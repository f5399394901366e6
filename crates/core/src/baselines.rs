//! Baseline partitioning strategies.
//!
//! * [`Policy`] — the strategies compared in §V: LoADPart itself, local
//!   inference, full offloading, and Neurosurgeon (bandwidth-aware but
//!   load-oblivious: it always evaluates Problem (1) with `k = 1`).
//! * [`min_cut_partition`] — a DADS-style DNN-surgery partitioner that
//!   searches *all* DAG cuts via max-flow/min-cut. The paper cites its
//!   O(n³) cost as the reason to restrict the search to the topological
//!   order; we implement it both as a correctness oracle (its optimum can
//!   never be worse than Algorithm 1's) and as the ablation comparator for
//!   the decision-latency bench.

use crate::policy::PartitionPolicy;
use lp_graph::{ComputationGraph, ValueId};

/// A partition-decision strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's system: bandwidth- and load-aware Algorithm 1.
    LoadPart,
    /// Neurosurgeon: bandwidth-aware, assumes an idle server (`k = 1`).
    Neurosurgeon,
    /// Always run everything on the device.
    Local,
    /// Always upload the input and run everything on the server.
    Full,
    /// A fixed partition point (ablations).
    Fixed(usize),
}

impl Policy {
    /// The trait-object form of this policy — what the engine actually
    /// dispatches through. Each variant maps to its thin
    /// [`PartitionPolicy`] impl in [`crate::policy`]:
    ///
    /// * `LoadPart` — Algorithm 1 at the measured `(bandwidth, k)`;
    /// * `Neurosurgeon` — Algorithm 1 at `k = 1`, whatever the load;
    /// * `Local`, `Full` and `Fixed(p)` — the latency at `p = n`, `0` and
    ///   `p`.
    ///
    /// The equivalence tests pin each impl to that formula.
    #[must_use]
    pub fn build(self) -> Box<dyn PartitionPolicy> {
        use crate::policy::{FixedPolicy, FullOffloadPolicy, LoadPartPolicy, LocalPolicy};
        match self {
            Policy::LoadPart => Box::new(LoadPartPolicy),
            Policy::Neurosurgeon => Box::new(crate::policy::NeurosurgeonPolicy),
            Policy::Local => Box::new(LocalPolicy),
            Policy::Full => Box::new(FullOffloadPolicy),
            Policy::Fixed(p) => Box::new(FixedPolicy::new(p)),
        }
    }
}

/// Result of the min-cut (DNN surgery) partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct MinCutResult {
    /// Node positions assigned to the device (a downward-closed set).
    pub device_set: Vec<usize>,
    /// Total predicted latency of the cut, in seconds.
    pub predicted_secs: f64,
}

const INF: u64 = u64::MAX / 4;

/// DADS-style optimal DAG partition by max-flow/min-cut.
///
/// Given per-node device times `f` and (k-scaled) edge times `g` in
/// seconds, and the upload bandwidth, finds the assignment of nodes to
/// device/server minimising `Σ_device f + Σ_crossing bytes/B_u + Σ_server g`
/// over *all* cuts of the DAG (not only topological prefixes). Mid-graph
/// server-to-device transfers are disallowed, as in DADS.
///
/// # Panics
///
/// Panics if the time vectors do not match the graph size or the bandwidth
/// is non-positive.
#[must_use]
pub fn min_cut_partition(
    graph: &ComputationGraph,
    device_times_secs: &[f64],
    edge_times_secs: &[f64],
    bandwidth_up_mbps: f64,
) -> MinCutResult {
    let n = graph.len();
    assert_eq!(device_times_secs.len(), n, "device time length");
    assert_eq!(edge_times_secs.len(), n, "edge time length");
    assert!(bandwidth_up_mbps > 0.0, "bandwidth must be positive");
    let bytes_per_sec = lp_net::mbps_to_bytes_per_sec(bandwidth_up_mbps);
    let to_ns = |secs: f64| -> u64 { (secs * 1e9).round().max(0.0) as u64 };
    let trans_ns = |bytes: u64| -> u64 { to_ns(bytes as f64 / bytes_per_sec) };

    // Vertex layout: 0 = source (device), 1 = sink (server),
    // 2..2+n = CNodes, then one aux vertex per consumed value.
    let consumers = graph.consumer_table();
    let mut dinic = Dinic::new(2 + n);
    let s = 0;
    let t = 1;
    let v_of = |pos: usize| 1 + pos; // pos is 1-based -> vertex 2..=n+1

    for i in 1..=n {
        dinic.add_edge(s, v_of(i), to_ns(edge_times_secs[i - 1]));
        dinic.add_edge(v_of(i), t, to_ns(device_times_secs[i - 1]));
    }
    for (pos, users) in consumers.iter().enumerate() {
        if users.is_empty() {
            continue;
        }
        let producer = if pos == 0 { s } else { v_of(pos) };
        let v = if pos == 0 {
            ValueId::Input
        } else {
            ValueId::Node(node_id(graph, pos))
        };
        let cost = trans_ns(graph.value_desc(v).size_bytes());
        let aux = dinic.add_vertex();
        dinic.add_edge(producer, aux, cost);
        for c in users {
            dinic.add_edge(aux, v_of(c.position()), INF);
            // Forbid server -> device data movement mid-graph.
            if producer != s {
                dinic.add_edge(v_of(c.position()), producer, INF);
            }
        }
    }

    let flow = dinic.max_flow(s, t);
    let reachable = dinic.residual_reachable(s);
    let device_set: Vec<usize> = (1..=n).filter(|&i| reachable[v_of(i)]).collect();
    MinCutResult {
        device_set,
        predicted_secs: flow as f64 / 1e9,
    }
}

fn node_id(graph: &ComputationGraph, pos: usize) -> lp_graph::NodeId {
    graph
        .iter()
        .map(|(id, _)| id)
        .nth(pos - 1)
        .expect("position in range")
}

/// Dinic's max-flow on an adjacency-list residual graph.
#[derive(Debug)]
struct Dinic {
    // edges[i] = (to, cap); edges stored in pairs (forward, backward).
    to: Vec<usize>,
    cap: Vec<u64>,
    head: Vec<Vec<usize>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(n: usize) -> Self {
        Self {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
            level: Vec::new(),
            iter: Vec::new(),
        }
    }

    fn add_vertex(&mut self) -> usize {
        self.head.push(Vec::new());
        self.head.len() - 1
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: u64) {
        let e = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
        self.head[from].push(e);
        self.to.push(from);
        self.cap.push(0);
        self.head[to].push(e + 1);
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level = vec![-1; self.head.len()];
        let mut q = std::collections::VecDeque::new();
        self.level[s] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &e in &self.head[u] {
                if self.cap[e] > 0 && self.level[self.to[e]] < 0 {
                    self.level[self.to[e]] = self.level[u] + 1;
                    q.push_back(self.to[e]);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, f: u64) -> u64 {
        if u == t {
            return f;
        }
        while self.iter[u] < self.head[u].len() {
            let e = self.head[u][self.iter[u]];
            let v = self.to[e];
            if self.cap[e] > 0 && self.level[v] == self.level[u] + 1 {
                let d = self.dfs(v, t, f.min(self.cap[e]));
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        let mut flow = 0u64;
        while self.bfs(s, t) {
            self.iter = vec![0; self.head.len()];
            loop {
                let f = self.dfs(s, t, INF);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.head.len()];
        let mut q = std::collections::VecDeque::new();
        seen[s] = true;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &e in &self.head[u] {
                if self.cap[e] > 0 && !seen[self.to[e]] {
                    seen[self.to[e]] = true;
                    q.push_back(self.to[e]);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::PartitionSolver;
    use crate::policy::PolicyContext;
    use lp_graph::{transmission_series, Activation, ConvAttrs, GraphBuilder, NodeKind};
    use lp_tensor::{Shape, TensorDesc};

    fn chain() -> ComputationGraph {
        let mut b = GraphBuilder::new("chain", TensorDesc::f32(Shape::nchw(1, 4, 16, 16)));
        let c1 = b
            .node("c1", NodeKind::Conv(ConvAttrs::same(8, 3)), [b.input()])
            .unwrap();
        let r1 = b
            .node("r1", NodeKind::Activation(Activation::Relu), [c1])
            .unwrap();
        let c2 = b
            .node("c2", NodeKind::Conv(ConvAttrs::new(4, 3, 2, 1)), [r1])
            .unwrap();
        let r2 = b
            .node("r2", NodeKind::Activation(Activation::Relu), [c2])
            .unwrap();
        b.finish(r2).unwrap()
    }

    fn solver_for(graph: &ComputationGraph, f: &[f64], g: &[f64]) -> PartitionSolver {
        PartitionSolver::from_times(
            f,
            g,
            transmission_series(graph),
            graph.output().size_bytes(),
        )
    }

    #[test]
    fn min_cut_matches_linear_search_on_chains() {
        // On a chain every cut is a topological cut, so the two optimisers
        // must agree exactly.
        let graph = chain();
        let f = [0.010, 0.002, 0.008, 0.002];
        let g = [0.001, 0.0002, 0.0008, 0.0002];
        let solver = solver_for(&graph, &f, &g);
        for bw in [0.5, 2.0, 8.0, 64.0] {
            let lin = solver.decide(bw, 1.0);
            let cut = min_cut_partition(&graph, &f, &g, bw);
            assert!(
                (cut.predicted_secs - lin.predicted.as_secs_f64()).abs() < 1e-6,
                "bw={bw}: mincut {} vs linear {}",
                cut.predicted_secs,
                lin.predicted.as_secs_f64()
            );
            assert_eq!(cut.device_set.len(), lin.p, "bw={bw}");
        }
    }

    #[test]
    fn min_cut_never_worse_than_linear_on_dags() {
        // Residual block: min-cut searches more cuts, so it can only match
        // or beat the topological-order optimum.
        let mut b = GraphBuilder::new("res", TensorDesc::f32(Shape::nchw(1, 8, 8, 8)));
        let c1 = b
            .node("c1", NodeKind::Conv(ConvAttrs::same(8, 3)), [b.input()])
            .unwrap();
        let r1 = b
            .node("r1", NodeKind::Activation(Activation::Relu), [c1])
            .unwrap();
        let c2 = b
            .node("c2", NodeKind::Conv(ConvAttrs::same(8, 3)), [r1])
            .unwrap();
        let add = b.node("add", NodeKind::Add, [r1, c2]).unwrap();
        let graph = b.finish(add).unwrap();
        let f = [0.004, 0.001, 0.004, 0.001];
        let g = [0.0004, 0.0001, 0.0004, 0.0001];
        let solver = solver_for(&graph, &f, &g);
        for bw in [1.0, 8.0, 64.0, 512.0] {
            let lin = solver.decide(bw, 1.0).predicted.as_secs_f64();
            let cut = min_cut_partition(&graph, &f, &g, bw).predicted_secs;
            assert!(cut <= lin + 1e-6, "bw={bw}: {cut} > {lin}");
        }
    }

    #[test]
    fn device_set_is_downward_closed() {
        let graph = chain();
        let f = [0.001; 4];
        let g = [0.0001; 4];
        let cut = min_cut_partition(&graph, &f, &g, 8.0);
        // Whatever the cut, predecessors of device nodes are device nodes.
        for &pos in &cut.device_set {
            let node = graph.nodes()[pos - 1].clone();
            for v in node.inputs {
                let p = v.producer_position();
                assert!(p == 0 || cut.device_set.contains(&p));
            }
        }
    }

    #[test]
    fn policies_behave_as_documented() {
        let graph = chain();
        let f = [0.010, 0.002, 0.008, 0.002];
        let g = [0.001, 0.0002, 0.0008, 0.0002];
        let solver = solver_for(&graph, &f, &g);
        let p = |policy: Policy, bandwidth_mbps: f64, k: f64| {
            policy
                .build()
                .decide(&PolicyContext {
                    solver: &solver,
                    bandwidth_mbps,
                    k,
                    now: lp_sim::SimTime::ZERO,
                })
                .p
        };
        assert_eq!(p(Policy::Local, 8.0, 5.0), 4);
        assert_eq!(p(Policy::Full, 8.0, 5.0), 0);
        assert_eq!(p(Policy::Fixed(2), 8.0, 5.0), 2);
        // Neurosurgeon ignores k: same p at k=1 and k=50.
        assert_eq!(
            p(Policy::Neurosurgeon, 8.0, 1.0),
            p(Policy::Neurosurgeon, 8.0, 50.0)
        );
        // LoADPart reacts to k.
        let lp_idle = p(Policy::LoadPart, 64.0, 1.0);
        let lp_busy = p(Policy::LoadPart, 64.0, 100.0);
        assert!(lp_busy >= lp_idle);
    }
}

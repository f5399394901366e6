//! Property-style tests over randomly generated graphs and inputs,
//! exercising the invariants the decision pipeline relies on.
//!
//! Each test draws a fixed number of cases from a seeded [`StdRng`], so
//! failures reproduce exactly (no external property-testing framework in
//! this offline build — the invariants are unchanged).

use loadpart::policy::build_named;
use loadpart::{
    spawn_server_tuned, AdmissionConfig, AdmissionController, AdmissionDecision, BreakerState,
    CircuitBreaker, ClusterEngine, ClusterLink, EngineConfig, FrameChannel, LoadEnv,
    PartitionSolver, ServerFaultSpec, ServerTuning, Telemetry, WireGate,
};
use lp_graph::cut::cut_at;
use lp_graph::partition::{extract_segment, partition_at, Segment};
use lp_graph::{
    transmission_series, Activation, ComputationGraph, ConvAttrs, GraphBuilder, NodeKind,
    PoolAttrs, ValueId,
};
use lp_hardware::DeviceModel;
use lp_linalg::{nnls, Matrix};
use lp_sim::{SimDuration, SimTime};
use lp_tensor::{Shape, TensorDesc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

/// Builds a random valid graph: a chain of unary ops with occasional
/// residual (two-branch) detours, always shape-consistent.
fn random_graph(rng: &mut StdRng) -> ComputationGraph {
    let segments = rng.gen_range(4usize..24);
    let c = rng.gen_range(8usize..32);
    let hw = rng.gen_range(8usize..24);
    let n_ops = rng.gen_range(3usize..24);
    let ops: Vec<u8> = (0..n_ops).map(|_| rng.gen_range(0u8..4)).collect();
    let end_pool = rng.gen_range(0u8..2) == 1;

    let mut b = GraphBuilder::new("random", TensorDesc::f32(Shape::nchw(1, c, hw, hw)));
    let mut x = b.input();
    let mut i = 0usize;
    for (seg, &op) in ops.iter().take(segments).enumerate() {
        i += 1;
        x = match op {
            0 => b
                .node(
                    format!("conv{seg}_{i}"),
                    NodeKind::Conv(ConvAttrs::same(c, 3)),
                    [x],
                )
                .expect("same conv keeps shape"),
            1 => b
                .node(
                    format!("relu{seg}_{i}"),
                    NodeKind::Activation(Activation::Relu),
                    [x],
                )
                .expect("relu keeps shape"),
            2 => b
                .node(format!("bn{seg}_{i}"), NodeKind::BatchNorm, [x])
                .expect("bn keeps shape"),
            _ => {
                // Residual detour: x -> conv -> add(x, conv).
                let main = b
                    .node(
                        format!("res{seg}_{i}.conv"),
                        NodeKind::Conv(ConvAttrs::same(c, 3)),
                        [x],
                    )
                    .expect("same conv keeps shape");
                b.node(format!("res{seg}_{i}.add"), NodeKind::Add, [x, main])
                    .expect("shapes match")
            }
        };
    }
    if end_pool && hw >= 4 {
        x = b
            .node("final_pool", NodeKind::Pool(PoolAttrs::max(2, 2)), [x])
            .expect("pool fits");
    }
    b.finish(x).expect("non-empty graph")
}

/// Random per-node (device, edge) second-pairs for the solver tests.
fn random_times(rng: &mut StdRng, max_len: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rng.gen_range(2usize..max_len);
    let device: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(1u32..50_000) as f64 * 1e-6)
        .collect();
    let edge: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(1u32..5_000) as f64 * 1e-6)
        .collect();
    (device, edge)
}

/// The O(V+E) transmission sweep equals the per-point cut computation.
#[test]
fn transmission_series_matches_cut_at() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE01);
    for _ in 0..CASES {
        let graph = random_graph(&mut rng);
        let series = transmission_series(&graph);
        assert_eq!(series.len(), graph.len() + 1);
        for (p, &bytes) in series.iter().enumerate() {
            assert_eq!(bytes, cut_at(&graph, p).bytes, "p={p}");
        }
    }
}

/// Random graphs validate, and every partition point splits the node set
/// exactly.
#[test]
fn partitions_split_exactly() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE02);
    for _ in 0..CASES {
        let graph = random_graph(&mut rng);
        assert!(graph.validate().is_ok());
        for p in 0..=graph.len() {
            let part = partition_at(&graph, p).expect("in range");
            let dev = part.device.as_ref().map_or(0, |s| s.nodes.len());
            let srv = part.server.as_ref().map_or(0, |s| s.nodes.len());
            assert_eq!(dev, p);
            assert_eq!(dev + srv, graph.len());
        }
    }
}

/// Suffix-segment Parameters are exactly the crossing values of the
/// corresponding cut (Figure 5 consistency).
#[test]
fn segment_parameters_match_crossing_values() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE03);
    for _ in 0..CASES {
        let graph = random_graph(&mut rng);
        for p in 0..graph.len() {
            let seg = extract_segment(&graph, Segment::new(p + 1, graph.len())).expect("in range");
            let crossing = cut_at(&graph, p).crossing;
            let sources: Vec<ValueId> = seg.parameters.iter().map(|pa| pa.source).collect();
            assert_eq!(sources, crossing, "p={p}");
        }
    }
}

/// Algorithm 1 equals exhaustive search for arbitrary per-node times.
#[test]
fn algorithm1_matches_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE04);
    for _ in 0..CASES {
        let (device, edge) = random_times(&mut rng, 64);
        let n = device.len();
        // Decreasing-ish transmission sizes.
        let trans: Vec<u64> = (0..=n).map(|i| 1_000_000 / (i as u64 + 1)).collect();
        let solver = PartitionSolver::from_times(&device, &edge, trans.clone(), 1000);
        let bw = rng.gen_range(10u32..640_000) as f64 / 100.0;
        let k = rng.gen_range(10u32..400) as f64 / 10.0;
        let fast = solver.decide(bw, k);
        let mut best_t = f64::INFINITY;
        let mut best_p = 0;
        for p in 0..=n {
            let d = solver.latency_at(p, bw, k);
            let t = d.predicted.as_secs_f64();
            if t <= best_t {
                best_t = t;
                best_p = p;
            }
        }
        assert_eq!(fast.p, best_p);
        assert!((fast.predicted.as_secs_f64() - best_t).abs() < 1e-12);
    }
}

/// The optimal partition point never moves toward the server as the load
/// factor k rises (monotonicity of Algorithm 1 in k).
#[test]
fn optimal_p_monotone_in_k() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE05);
    for _ in 0..CASES {
        let (device, edge) = random_times(&mut rng, 48);
        let n = device.len();
        let trans: Vec<u64> = (0..=n).map(|i| 500_000 / (i as u64 + 1)).collect();
        let solver = PartitionSolver::from_times(&device, &edge, trans, 1000);
        let mut prev = 0usize;
        for k10 in [10u32, 20, 40, 80, 160, 320, 1000] {
            let p = solver.decide(8.0, k10 as f64 / 10.0).p;
            assert!(p >= prev, "p went from {prev} back to {p} at k={k10}");
            prev = p;
        }
    }
}

/// Drives a breaker through a random schedule of gates, successes and
/// failures at monotonically advancing times. Every individual breaker
/// call appends one observation `(time, gate verdict if any, state right
/// after the call)`, so the state sequence has no hidden intermediate
/// steps.
fn random_breaker_trace(rng: &mut StdRng) -> Vec<(SimTime, Option<WireGate>, BreakerState)> {
    let threshold = rng.gen_range(1u32..4);
    let open_ms = rng.gen_range(50u64..500);
    let probe_ms = rng.gen_range(20u64..200);
    let mut b = CircuitBreaker::new(
        threshold,
        SimDuration::from_millis(open_ms),
        SimDuration::from_millis(probe_ms),
    );
    let mut now = SimTime::ZERO;
    let steps = rng.gen_range(20usize..120);
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        now += SimDuration::from_millis(rng.gen_range(1u64..150));
        match rng.gen_range(0u8..4) {
            0 => {
                let g = b.gate(now);
                trace.push((now, Some(g), b.state()));
            }
            1 => {
                b.record_success(now);
                trace.push((now, None, b.state()));
            }
            2 => {
                b.record_failure(now);
                trace.push((now, None, b.state()));
            }
            _ => {
                // A full request: gate, then an outcome consistent with it.
                let g = b.gate(now);
                trace.push((now, Some(g), b.state()));
                if g != WireGate::Block {
                    if rng.gen_range(0u8..2) == 0 {
                        b.record_failure(now);
                    } else {
                        b.record_success(now);
                    }
                    trace.push((now, None, b.state()));
                }
            }
        }
    }
    trace
}

/// The breaker state machine never skips half-open on the way back to
/// closed: a recovering client always probes before resuming full traffic.
#[test]
fn breaker_recovery_never_skips_half_open() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE07);
    for _ in 0..CASES {
        let mut prev = BreakerState::Closed;
        for (now, _, state) in random_breaker_trace(&mut rng) {
            assert!(
                !(prev == BreakerState::Open && state == BreakerState::Closed),
                "open -> closed without a half-open probe at {now:?}"
            );
            if state == BreakerState::Closed && prev != BreakerState::Closed {
                assert_eq!(
                    prev,
                    BreakerState::HalfOpen,
                    "closed is only entered from half-open"
                );
            }
            prev = state;
        }
    }
}

/// An open breaker emits no wire traffic at all, a half-open breaker at
/// most one probe per probe period, and full traffic only flows closed.
#[test]
fn breaker_open_state_blocks_all_wire_traffic_except_the_probe() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE08);
    for _ in 0..CASES {
        let mut last_probe: Option<SimTime> = None;
        for (now, gate, state) in random_breaker_trace(&mut rng) {
            let Some(gate) = gate else { continue };
            match gate {
                WireGate::Pass => assert_eq!(
                    state,
                    BreakerState::Closed,
                    "full wire traffic only while closed"
                ),
                WireGate::Probe => {
                    assert_eq!(state, BreakerState::HalfOpen, "probes only half-open");
                    if let Some(last) = last_probe {
                        assert!(
                            now.since(last) >= SimDuration::from_millis(20),
                            "probes paced at least a probe period apart"
                        );
                    }
                    last_probe = Some(now);
                }
                WireGate::Block => {
                    assert_ne!(state, BreakerState::Closed, "a closed breaker never blocks")
                }
            }
        }
    }
}

/// Admission control never lets pending work exceed its budget, under any
/// interleaving of arrivals: in-flight suffixes stay within `max_inflight`
/// and an admitted request never waits longer than `max_queue_delay`.
#[test]
fn admission_pending_work_never_exceeds_budget() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE09);
    for _ in 0..CASES {
        let config = AdmissionConfig {
            max_inflight: rng.gen_range(1usize..6),
            max_queue_delay: SimDuration::from_millis(rng.gen_range(10u64..300)),
        };
        let mut ctl = AdmissionController::new(config);
        let mut now = SimTime::ZERO;
        let mut assessed = 0u64;
        for _ in 0..rng.gen_range(20usize..200) {
            now += SimDuration::from_millis(rng.gen_range(0u64..80));
            let scaled = SimDuration::from_millis(rng.gen_range(1u64..400));
            match ctl.assess(now, scaled) {
                AdmissionDecision::Admit { start, completion } => {
                    assert!(start >= now, "work never starts in the past");
                    assert_eq!(completion, start + scaled);
                    assert!(
                        start.since(now) <= config.max_queue_delay,
                        "admitted work never waits past the delay budget"
                    );
                }
                AdmissionDecision::Reject { retry_after } => {
                    // The hint reflects the actual backlog: waiting that
                    // long (plus any in-flight cap pressure) drains it.
                    assert!(retry_after <= config.max_queue_delay + SimDuration::from_millis(400));
                }
            }
            assessed += 1;
            assert!(
                ctl.inflight(now) <= config.max_inflight,
                "pending suffixes exceed the in-flight budget"
            );
            assert_eq!(ctl.admitted() + ctl.rejected(), assessed);
        }
    }
}

/// The cluster's joint (server, p) routing honors per-server breaker and
/// cooldown state under arbitrary state combinations: a breaker-open
/// server never appears in the route plan, and every clean server always
/// does — so an open breaker can never be selected while any breaker is
/// still closed. Scripted directly against the breaker/profile state
/// machines; `route_plan` itself never touches the wire.
#[test]
fn route_plan_never_selects_a_blocked_server_while_a_clean_one_exists() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE0A);
    let (user, edge) = loadpart::system::trained_models(150, 42);
    let graph = std::sync::Arc::new(lp_models::alexnet(1));
    let n = 4usize;
    let handles: Vec<_> = (0..n)
        .map(|_| {
            spawn_server_tuned(
                std::sync::Arc::clone(&graph),
                edge.clone(),
                LoadEnv::new(1.0),
                ServerFaultSpec::default(),
                None,
                &Telemetry::disabled(),
                ServerTuning,
            )
        })
        .collect();
    let links = handles
        .iter()
        .enumerate()
        .map(|(i, h)| ClusterLink {
            name: format!("srv-{i}"),
            bandwidth_mbps: 8.0,
            conn: Box::new(h.connect()) as Box<dyn FrameChannel>,
        })
        .collect();
    let config = EngineConfig {
        seed: 5,
        breaker_failure_threshold: 1, // one scripted failure opens a breaker
        ..EngineConfig::default()
    };
    let mut cluster = ClusterEngine::new(
        graph,
        build_named("loadpart").expect("registered"),
        &user,
        &edge,
        DeviceModel::default(),
        0,
        config,
        links,
    )
    .expect("valid cluster");

    let mut base = SimTime::ZERO;
    for _ in 0..CASES {
        // Jump far past every open period and cooldown from the previous
        // case, then reset each breaker to clean closed.
        base += SimDuration::from_secs(120);
        for s in 0..n {
            let b = cluster.engine_mut().breaker_of_mut(s);
            let _ = b.gate(base); // elapsed open -> half-open
            b.record_success(base); // half-open -> closed, failures cleared
        }
        // Script a random state per endpoint, evaluated 30 s later (past
        // the 5 s open period, inside a fresh one).
        let eval = base + SimDuration::from_secs(30);
        let mut clean = Vec::new();
        for s in 0..n {
            match rng.gen_range(0u8..4) {
                0 => clean.push(s),
                // Opened at eval: blocked for the whole open period.
                1 => cluster.engine_mut().breaker_of_mut(s).record_failure(eval),
                // Opened at base: the open period has elapsed, probe-due.
                2 => cluster.engine_mut().breaker_of_mut(s).record_failure(base),
                // Profiler fault cooldown, still running at eval.
                _ => cluster
                    .engine_mut()
                    .profile_of_mut(s)
                    .enter_cooldown(eval, SimDuration::from_millis(rng.gen_range(1u64..5_000))),
            }
        }

        let plan = cluster.route_plan(eval);
        for &s in &plan {
            assert_ne!(
                cluster.engine().breaker_of(s).peek(eval),
                WireGate::Block,
                "a breaker-open server must never be routable"
            );
            assert!(
                !cluster.engine().profile_of(s).in_cooldown(eval),
                "a cooling-down server must never be routable"
            );
        }
        for &s in &clean {
            assert!(
                plan.contains(&s),
                "server {s} is clean (closed breaker, no cooldown) but was \
                 excluded — an open breaker would steal its traffic"
            );
        }
    }
    drop(cluster);
    for h in handles {
        h.shutdown().expect("clean");
    }
}

/// NNLS always returns non-negative coefficients with residual no worse
/// than the zero vector, on arbitrary data.
#[test]
fn nnls_invariants() {
    let mut rng = StdRng::seed_from_u64(0x0A11_CE06);
    for _ in 0..CASES {
        let n = rng.gen_range(3usize..40);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-100.0f64..100.0)).collect())
            .collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0f64..1000.0)).collect();
        let a = Matrix::from_rows(&rows);
        let x = nnls(&a, &ys, 1e-10, 200);
        assert!(x.iter().all(|&v| v >= 0.0 && v.is_finite()));
        let ax = a.mul_vec(&x);
        let res: f64 = ys.iter().zip(&ax).map(|(bi, ai)| (bi - ai).powi(2)).sum();
        let zero_res: f64 = ys.iter().map(|v| v * v).sum();
        assert!(res <= zero_res + 1e-6);
    }
}

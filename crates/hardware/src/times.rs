//! Per-graph node-time tables.
//!
//! A latency model's `sample` re-derives a node's noise-free time (FLOPs,
//! parameter bytes, shape arithmetic) before drawing its noise. A
//! simulation that samples the same graph on every request evaluates the
//! model once per node instead: [`DeviceModel::node_times`](crate::DeviceModel::node_times)
//! and [`GpuModel::node_times`](crate::GpuModel::node_times) return a
//! [`NodeTimes`] table, and each request draws only the noise. Node `i`'s
//! draw is `expected[i].scale(lognormal_factor(rng, sigma))` — the model's
//! `sample` for that node, from the same single draw — so a table-driven
//! run consumes the RNG exactly like a model-driven one. The table also
//! keeps each time in seconds, so a draw multiplies instead of converting
//! nanoseconds to seconds per node.
//!
//! A draw is one ziggurat N(0, 1) and one `exp` (lp-sim's
//! [`lognormal_factor`]) plus the rounding to nanoseconds. The caller
//! chooses the stream: the co-simulated device draws its prefix from the
//! client engine's RNG, the co-simulated server a suffix from an RNG
//! seeded by the request alone.

use lp_graph::{ComputationGraph, NodeKind};
use lp_sim::{lognormal_factor, SimDuration};
use lp_tensor::TensorDesc;
use rand::Rng;
use std::ops::Range;

/// Every node's noise-free time under one latency model, in topological
/// order, plus the model's log-space noise sigma.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTimes {
    expected: Vec<SimDuration>,
    /// `expected[i].as_secs_f64()`: [`SimDuration::scale`]'s operand.
    secs: Vec<f64>,
    noise_sigma: f64,
}

impl NodeTimes {
    /// Evaluates a model's `expected(kind, input, output)` once per node
    /// of `graph`.
    pub(crate) fn of(
        graph: &ComputationGraph,
        noise_sigma: f64,
        expected: impl Fn(&NodeKind, &TensorDesc, &TensorDesc) -> SimDuration,
    ) -> Self {
        let expected: Vec<SimDuration> = graph
            .nodes()
            .iter()
            .map(|n| expected(&n.kind, graph.value_desc(n.inputs[0]), &n.output))
            .collect();
        Self {
            secs: expected.iter().map(|t| t.as_secs_f64()).collect(),
            expected,
            noise_sigma,
        }
    }

    /// Number of nodes in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// Whether the table is empty (never, for a zoo graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }

    /// Noise-free time of each node, in topological order.
    #[must_use]
    pub(crate) fn expected(&self) -> &[SimDuration] {
        &self.expected
    }

    /// One noisy draw for each node in `nodes` (0-based topological
    /// indices), in order, one [`lognormal_factor`] per node: the
    /// duration [`SimDuration::scale`] gives, from the stored seconds.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` reaches past the table.
    pub fn sample<'a, R: Rng + ?Sized>(
        &'a self,
        nodes: Range<usize>,
        rng: &'a mut R,
    ) -> impl Iterator<Item = SimDuration> + 'a {
        let sigma = self.noise_sigma;
        self.secs[nodes].iter().map(move |&secs| {
            SimDuration::from_secs_f64(secs * lognormal_factor(rng, sigma).max(0.0))
        })
    }
}

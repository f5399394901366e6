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
//! [`lognormal_factor`](lp_sim::lognormal_factor)) plus the rounding to
//! nanoseconds. A range of nodes is drawn in chunks of
//! [`NodeTimes::CHUNK`] held in a stack array: every N(0, 1) of a chunk
//! first, then the `exp`s, the scaling and the rounding
//! ([`lognormal_factors`]). Each node still takes the same RNG words in the
//! same order, so a batch equals a loop of single draws bit for bit. One
//! core serves two entry points: [`NodeTimes::sample_into`] fills a
//! caller's buffer (a GPU suffix, whose kernels the simulator queues one
//! by one) and [`NodeTimes::sample_sum`] returns the total (a device
//! prefix, of which only the time is used). The caller chooses the stream:
//! the co-simulated device draws its prefix from the client engine's RNG,
//! the co-simulated server a suffix from an RNG seeded by the request
//! alone.

use lp_graph::{ComputationGraph, NodeKind};
use lp_sim::{lognormal_factors, SimDuration};
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
    /// Nodes drawn per chunk: the stack array that holds a chunk's
    /// N(0, 1) draws, and then its factors, has this many slots.
    pub const CHUNK: usize = 64;

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

    /// The batch draw core: node `secs[i]`'s noisy duration into `out[i]`,
    /// chunk by chunk, with one
    /// [`lognormal_factor`](lp_sim::lognormal_factor) per node from `rng`,
    /// in order. A draw is the duration [`SimDuration::scale`] gives, from
    /// the stored seconds.
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, secs: &[f64], rng: &mut R, out: &mut [SimDuration]) {
        debug_assert_eq!(secs.len(), out.len());
        let mut factors = [0.0; Self::CHUNK];
        for (secs, out) in secs.chunks(Self::CHUNK).zip(out.chunks_mut(Self::CHUNK)) {
            let factors = &mut factors[..secs.len()];
            lognormal_factors(rng, self.noise_sigma, factors);
            for ((draw, &secs), &factor) in out.iter_mut().zip(secs).zip(&*factors) {
                *draw = SimDuration::from_secs_f64(secs * factor.max(0.0));
            }
        }
    }

    /// One noisy draw for each node in `nodes` (0-based topological
    /// indices), in order, into `out`, which is cleared first: its
    /// capacity is reused, so a caller that keeps the buffer draws without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` reaches past the table.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        nodes: Range<usize>,
        rng: &mut R,
        out: &mut Vec<SimDuration>,
    ) {
        let secs = &self.secs[nodes];
        out.clear();
        out.resize(secs.len(), SimDuration::ZERO);
        self.draw(secs, rng, out);
    }

    /// The sum of one noisy draw for each node in `nodes`, drawn as
    /// [`NodeTimes::sample_into`] draws them, through a stack array.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` reaches past the table.
    pub fn sample_sum<R: Rng + ?Sized>(&self, nodes: Range<usize>, rng: &mut R) -> SimDuration {
        let mut chunk = [SimDuration::ZERO; Self::CHUNK];
        let mut total = SimDuration::ZERO;
        for secs in self.secs[nodes].chunks(Self::CHUNK) {
            let chunk = &mut chunk[..secs.len()];
            self.draw(secs, rng, chunk);
            total += chunk.iter().copied().sum();
        }
        total
    }
}

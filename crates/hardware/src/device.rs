//! Analytic latency model of the user-end device (Raspberry Pi 4 class).
//!
//! The model is deliberately *not* linear in the Table II features: per-node
//! time combines a compute term whose efficiency depends on channel count
//! and kernel size, a memory term with an L2 cache cliff, and a fixed
//! dispatch overhead, all under multiplicative log-normal noise. Linear
//! regression fitted on top of it therefore shows realistic error levels
//! (Table III reports 40% MAPE for Conv on the device) while remaining good
//! enough to rank partition points.
//!
//! Calibration anchors (paper §V-B/§V-C): VGG16 local inference ≈ 5.2 s,
//! Xception local ≈ 1.8–2.8 s, AlexNet local in the hundreds of ms.

use crate::NodeTimes;
use lp_graph::{flops::node_flops, NodeKind};
use lp_sim::{lognormal_factor, SimDuration};
use lp_tensor::TensorDesc;
use rand::Rng;

/// Latency model for one node executed on the user-end CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Peak effective conv throughput in FLOP/s (multiply-accumulates/s).
    pub conv_flops: f64,
    /// Peak effective GEMM (fully-connected) throughput in FLOP/s.
    pub gemm_flops: f64,
    /// Throughput for element-wise/pooling work in FLOP/s.
    pub simple_flops: f64,
    /// Main-memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// L2 cache size in bytes; working sets beyond it pay
    /// [`cache_penalty`](Self::cache_penalty).
    pub l2_bytes: u64,
    /// Multiplier on the memory term once the working set spills L2.
    pub cache_penalty: f64,
    /// Fixed per-node dispatch overhead.
    pub overhead: SimDuration,
    /// Log-space sigma of the multiplicative measurement noise.
    pub noise_sigma: f64,
}

impl Default for DeviceModel {
    /// Raspberry Pi 4 calibration (see module docs).
    fn default() -> Self {
        Self {
            conv_flops: 6.0e9,
            gemm_flops: 2.2e9,
            simple_flops: 1.2e9,
            mem_bandwidth: 3.0e9,
            l2_bytes: 1 << 20,
            cache_penalty: 1.6,
            overhead: SimDuration::from_micros(30),
            noise_sigma: 0.08,
        }
    }
}

impl DeviceModel {
    /// Noise-free expected execution time of one node.
    #[must_use]
    pub fn expected(
        &self,
        kind: &NodeKind,
        input: &TensorDesc,
        output: &TensorDesc,
    ) -> SimDuration {
        let flops = node_flops(kind, input, output) as f64;
        let params = kind.param_bytes(input) as f64;
        let bytes = input.size_bytes() as f64 + output.size_bytes() as f64 + params;

        let rate = match kind {
            NodeKind::Conv(a) => {
                // Small channel counts, very large kernels and small output
                // maps vectorise poorly — real im2col+GEMM effects the LR
                // features cannot express exactly (they are what give the
                // device Conv model its ~40% Table III MAPE).
                let c_in = input.shape().channels().unwrap_or(1) as f64;
                let chan_eff = c_in / (c_in + 4.0);
                let kernel_eff = if a.kernel.0.max(a.kernel.1) >= 7 {
                    0.85
                } else {
                    1.0
                };
                let h_out = output.shape().height().unwrap_or(1) as f64;
                let spatial_eff = (h_out / (h_out + 6.0)).max(0.55);
                // Input maps that spill L2 thrash the cache on every
                // im2col pass (VGG's 224^2/112^2 layers; AlexNet's maps
                // all fit) — the effect behind the paper's 4.9 s for
                // VGG16's first 23 layers on the Pi.
                let cache_eff = if input.size_bytes() > self.l2_bytes {
                    0.7
                } else {
                    1.0
                };
                self.conv_flops * chan_eff.max(0.15) * kernel_eff * spatial_eff * cache_eff
            }
            // Depth-wise convs have low arithmetic intensity on CPUs.
            NodeKind::DwConv(_) => self.conv_flops * 0.30,
            NodeKind::MatMul { .. } => self.gemm_flops,
            _ => self.simple_flops,
        };
        let compute_s = flops / rate;

        let mut mem_s = bytes / self.mem_bandwidth;
        if bytes > self.l2_bytes as f64 {
            mem_s *= self.cache_penalty;
        }

        // Partial compute/memory overlap: the slower stream dominates, a
        // fraction of the faster one leaks through.
        let body = compute_s.max(mem_s) + 0.3 * compute_s.min(mem_s);
        self.overhead + SimDuration::from_secs_f64(body)
    }

    /// One noisy measurement of the node's execution time.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        &self,
        kind: &NodeKind,
        input: &TensorDesc,
        output: &TensorDesc,
        rng: &mut R,
    ) -> SimDuration {
        self.expected(kind, input, output)
            .scale(lognormal_factor(rng, self.noise_sigma))
    }

    /// Every node's [`expected`](Self::expected) time in `graph`, with this
    /// model's noise sigma: the table a request samples instead of the
    /// model.
    #[must_use]
    pub fn node_times(&self, graph: &lp_graph::ComputationGraph) -> NodeTimes {
        NodeTimes::of(graph, self.noise_sigma, |k, i, o| self.expected(k, i, o))
    }

    /// Noise-free total time of a whole graph executed locally.
    #[must_use]
    pub fn graph_time(&self, graph: &lp_graph::ComputationGraph) -> SimDuration {
        self.node_times(graph).expected().iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_graph::ConvAttrs;
    use lp_models::{alexnet, vgg16, xception};
    use lp_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn vgg16_local_is_about_five_seconds() {
        let m = DeviceModel::default();
        let t = m.graph_time(&vgg16(1)).as_secs_f64();
        assert!(
            (3.0..6.5).contains(&t),
            "VGG16 local = {t:.2}s, paper reports ~5.2s"
        );
    }

    #[test]
    fn xception_local_is_seconds_scale() {
        let m = DeviceModel::default();
        let t = m.graph_time(&xception(1)).as_secs_f64();
        assert!((1.2..4.5).contains(&t), "Xception local = {t:.2}s");
    }

    #[test]
    fn alexnet_local_is_hundreds_of_ms() {
        let m = DeviceModel::default();
        let t = m.graph_time(&alexnet(1)).as_millis_f64();
        assert!((150.0..900.0).contains(&t), "AlexNet local = {t:.0}ms");
    }

    #[test]
    fn bigger_conv_takes_longer() {
        let m = DeviceModel::default();
        let small_in = TensorDesc::f32(Shape::nchw(1, 64, 28, 28));
        let big_in = TensorDesc::f32(Shape::nchw(1, 64, 56, 56));
        let k = NodeKind::Conv(ConvAttrs::same(64, 3));
        let so = k.infer_output(std::slice::from_ref(&small_in)).unwrap();
        let bo = k.infer_output(std::slice::from_ref(&big_in)).unwrap();
        assert!(m.expected(&k, &big_in, &bo) > m.expected(&k, &small_in, &so));
    }

    #[test]
    fn overhead_floors_tiny_nodes() {
        let m = DeviceModel::default();
        let tiny = TensorDesc::f32(Shape::nchw(1, 1, 2, 2));
        let k = NodeKind::Activation(lp_graph::Activation::Relu);
        let out = k.infer_output(std::slice::from_ref(&tiny)).unwrap();
        let t = m.expected(&k, &tiny, &out);
        assert!(t >= m.overhead);
    }

    #[test]
    fn samples_are_noisy_but_centered() {
        let m = DeviceModel::default();
        let input = TensorDesc::f32(Shape::nchw(1, 64, 56, 56));
        let k = NodeKind::Conv(ConvAttrs::same(64, 3));
        let out = k.infer_output(std::slice::from_ref(&input)).unwrap();
        let expected = m.expected(&k, &input, &out).as_secs_f64();
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..500)
            .map(|_| m.sample(&k, &input, &out, &mut rng).as_secs_f64())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (mean / expected - 1.0).abs() < 0.05,
            "mean ratio {}",
            mean / expected
        );
        let distinct: std::collections::HashSet<u64> =
            samples.iter().map(|s| s.to_bits()).collect();
        assert!(distinct.len() > 100, "noise should vary");
    }

    #[test]
    fn deterministic_expected_time() {
        let m = DeviceModel::default();
        let g = alexnet(1);
        assert_eq!(m.graph_time(&g), m.graph_time(&g));
    }
}

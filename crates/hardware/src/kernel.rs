//! Per-kernel latency model of the idle edge GPU (Tesla T4 class).
//!
//! Each computation node maps to one GPU kernel (the paper's granularity).
//! Kernel time is a roofline — max of launch overhead, compute time at an
//! occupancy-dependent rate, and memory time — with multiplicative noise.
//! Occupancy (small tensors underfill the GPU) is the nonlinearity that
//! gives the edge-side LR models their Table III error levels.

use crate::NodeTimes;
use lp_graph::{flops::node_flops, ComputationGraph, NodeKind};
use lp_sim::{lognormal_factor, SimDuration};
use lp_tensor::TensorDesc;
use rand::Rng;

/// Latency model for one kernel on the edge GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Peak effective FLOP/s at full occupancy.
    pub peak_flops: f64,
    /// Effective memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Kernel launch + driver overhead.
    pub launch_overhead: SimDuration,
    /// Output elements needed to reach full occupancy.
    pub full_occupancy_elems: f64,
    /// Log-space sigma of multiplicative noise.
    pub noise_sigma: f64,
}

impl Default for GpuModel {
    /// Tesla T4 calibration for **batch-1 framework inference**: the card's
    /// 8.1 TFLOPS fp32 peak is far out of reach for single-image kernels
    /// (~10% achieved, matching published batch-1 numbers: VGG16 in the
    /// tens of ms), 320 GB/s HBM at ~55% efficiency, ~20 µs launch path
    /// through the framework.
    fn default() -> Self {
        Self {
            peak_flops: 8.0e11,
            mem_bandwidth: 1.8e11,
            launch_overhead: SimDuration::from_micros(20),
            full_occupancy_elems: 262_144.0,
            noise_sigma: 0.10,
        }
    }
}

impl GpuModel {
    /// Noise-free expected kernel time for one node on the **idle** GPU.
    ///
    /// Load effects are not modelled here — they emerge from queueing and
    /// time slicing in [`crate::gpu::GpuSim`], exactly as §III-C argues
    /// (single kernels are too short to be affected by the 2 ms slices).
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

        // Occupancy: kernels over small outputs cannot fill the SMs.
        let out_elems = output.numel() as f64;
        let occupancy = (out_elems / self.full_occupancy_elems).clamp(0.02, 1.0);
        // Depth-wise convs reach lower arithmetic throughput on GPUs too.
        let kind_eff = match kind {
            NodeKind::DwConv(_) => 0.35,
            NodeKind::MatMul { .. } => 0.8,
            _ => 1.0,
        };
        let compute_s = flops / (self.peak_flops * occupancy * kind_eff);
        let mem_s = bytes / self.mem_bandwidth;
        let body = compute_s.max(mem_s);
        self.launch_overhead + SimDuration::from_secs_f64(body)
    }

    /// One noisy kernel-time measurement.
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

    /// Every node's [`expected`](Self::expected) kernel time in `graph`,
    /// with this model's noise sigma: the table a request samples instead
    /// of the model.
    #[must_use]
    pub fn node_times(&self, graph: &ComputationGraph) -> NodeTimes {
        NodeTimes::of(graph, self.noise_sigma, |k, i, o| self.expected(k, i, o))
    }

    /// Expected kernel durations for a contiguous range `[start, end]` of a
    /// graph's topological order (1-based, inclusive), e.g. the server-side
    /// partition `[p+1, n]`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn kernel_sequence(
        &self,
        graph: &ComputationGraph,
        start: usize,
        end: usize,
    ) -> Vec<SimDuration> {
        assert!(
            start >= 1 && end <= graph.len() && start <= end,
            "bad range"
        );
        self.node_times(graph).expected()[start - 1..end].to_vec()
    }

    /// Expected total GPU time of the whole graph on the idle GPU.
    #[must_use]
    pub fn graph_time(&self, graph: &ComputationGraph) -> SimDuration {
        self.kernel_sequence(graph, 1, graph.len())
            .into_iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_models::{alexnet, resnet152, vgg16};
    use lp_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gpu_is_orders_of_magnitude_faster_than_device() {
        let gpu = GpuModel::default();
        let dev = crate::device::DeviceModel::default();
        let g = vgg16(1);
        let gt = gpu.graph_time(&g).as_secs_f64();
        let dt = dev.graph_time(&g).as_secs_f64();
        assert!(dt / gt > 50.0, "speedup {:.1} too small", dt / gt);
        // And the absolute scale is milliseconds, not seconds.
        assert!(gt < 0.15, "VGG16 on idle T4 = {gt:.3}s");
    }

    #[test]
    fn single_kernels_are_sub_slice() {
        // §III-C: "the execution time of a single layer, in most cases, is
        // too short to use up a time slice (2 ms)".
        let gpu = GpuModel::default();
        let g = alexnet(1);
        let ks = gpu.kernel_sequence(&g, 1, g.len());
        let below_slice = ks.iter().filter(|k| k.as_millis_f64() < 2.0).count();
        assert!(
            below_slice as f64 / ks.len() as f64 > 0.9,
            "{below_slice}/{} kernels under 2ms",
            ks.len()
        );
    }

    #[test]
    fn launch_overhead_floors_small_kernels() {
        let gpu = GpuModel::default();
        let tiny = TensorDesc::f32(Shape::nchw(1, 8, 2, 2));
        let k = NodeKind::Activation(lp_graph::Activation::Relu);
        let out = k.infer_output(std::slice::from_ref(&tiny)).unwrap();
        assert!(gpu.expected(&k, &tiny, &out) >= gpu.launch_overhead);
    }

    #[test]
    fn resnet152_task_is_much_longer_than_alexnet() {
        let gpu = GpuModel::default();
        let a: SimDuration = gpu.graph_time(&alexnet(1));
        let r: SimDuration = gpu.graph_time(&resnet152(1));
        assert!(r.as_secs_f64() / a.as_secs_f64() > 3.0);
    }

    #[test]
    fn kernel_sequence_range_selects_suffix() {
        let gpu = GpuModel::default();
        let g = alexnet(1);
        let full = gpu.kernel_sequence(&g, 1, 27);
        let suffix = gpu.kernel_sequence(&g, 9, 27);
        assert_eq!(suffix.len(), 19);
        assert_eq!(&full[8..], &suffix[..]);
    }

    #[test]
    fn sampling_is_noisy() {
        let gpu = GpuModel::default();
        let input = TensorDesc::f32(Shape::nchw(1, 64, 56, 56));
        let k = NodeKind::Conv(lp_graph::ConvAttrs::same(64, 3));
        let out = k.infer_output(std::slice::from_ref(&input)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = gpu.sample(&k, &input, &out, &mut rng);
        let b = gpu.sample(&k, &input, &out, &mut rng);
        assert_ne!(a, b);
    }
}

//! Background computation-load generation — the §II methodology.
//!
//! The paper creates six load levels by running **7 processes** that each
//! execute AlexNet periodically, tuning the period to hit GPU utilizations
//! of 30%, 50%, 70%, 90% and 100% ("100%(l)"), plus an extreme "100%(h)"
//! level where the 7 processes run **ResNet152 every 1 µs** (effectively
//! back-to-back). 100%(l) and 100%(h) share the same utilization but differ
//! in queueing — the contrast Figure 2 highlights.

use crate::gpu::Generator;
use crate::kernel::GpuModel;
use lp_sim::SimDuration;
use std::fmt;

/// Number of background processes in the paper's methodology.
pub const BACKGROUND_PROCESSES: usize = 7;

/// The background computation-load levels of §II / Figure 2 / Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadLevel {
    /// No background tasks (profiling baseline, 0% utilization).
    Idle,
    /// ~30% GPU utilization from periodic AlexNet tasks.
    Pct30,
    /// ~50% GPU utilization.
    Pct50,
    /// ~70% GPU utilization.
    Pct70,
    /// ~90% GPU utilization.
    Pct90,
    /// 100% utilization with periodic AlexNet tasks ("100%(l)").
    Pct100Low,
    /// 100% utilization with back-to-back ResNet152 tasks ("100%(h)").
    Pct100High,
}

impl LoadLevel {
    /// All levels in Figure 2 order.
    #[must_use]
    pub fn all() -> [LoadLevel; 7] {
        [
            LoadLevel::Idle,
            LoadLevel::Pct30,
            LoadLevel::Pct50,
            LoadLevel::Pct70,
            LoadLevel::Pct90,
            LoadLevel::Pct100Low,
            LoadLevel::Pct100High,
        ]
    }

    /// The target utilization in `[0, 1]`, or `None` for the back-to-back
    /// 100%(h) level (whose utilization is 1 by construction).
    #[must_use]
    pub fn target_utilization(self) -> Option<f64> {
        match self {
            LoadLevel::Idle => Some(0.0),
            LoadLevel::Pct30 => Some(0.30),
            LoadLevel::Pct50 => Some(0.50),
            LoadLevel::Pct70 => Some(0.70),
            LoadLevel::Pct90 => Some(0.90),
            LoadLevel::Pct100Low => Some(1.0),
            LoadLevel::Pct100High => None,
        }
    }
}

impl fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LoadLevel::Idle => "0%",
            LoadLevel::Pct30 => "30%",
            LoadLevel::Pct50 => "50%",
            LoadLevel::Pct70 => "70%",
            LoadLevel::Pct90 => "90%",
            LoadLevel::Pct100Low => "100%(l)",
            LoadLevel::Pct100High => "100%(h)",
        };
        f.write_str(s)
    }
}

/// Coalesces consecutive kernels into chunks of at most `max_chunk` so
/// background tasks carry fewer simulator events while preserving the
/// preemption granularity that matters (chunks stay well under a slice).
#[must_use]
pub fn coalesce_kernels(kernels: &[SimDuration], max_chunk: SimDuration) -> Vec<SimDuration> {
    let mut out = Vec::new();
    let mut acc = SimDuration::ZERO;
    for &k in kernels {
        if acc > SimDuration::ZERO && acc + k > max_chunk {
            out.push(acc);
            acc = SimDuration::ZERO;
        }
        acc += k;
    }
    if acc > SimDuration::ZERO {
        out.push(acc);
    }
    out
}

/// Builds the background [`Generator`]s for a load level.
///
/// Periods are derived from the expected task cost `c` so that
/// `BACKGROUND_PROCESSES * c / period` equals the target utilization;
/// 100%(h) uses ResNet152 kernels at a 1 µs period with a bounded queue
/// (back-to-back submission).
///
/// Returns an empty vector for [`LoadLevel::Idle`].
#[must_use]
pub fn background_generators(level: LoadLevel, gpu_model: &GpuModel) -> Vec<Generator> {
    if level == LoadLevel::Idle {
        return Vec::new();
    }
    let chunk = SimDuration::from_micros(250);
    match level.target_utilization() {
        Some(u) => {
            let alexnet = lp_models::alexnet(1);
            let kernels = coalesce_kernels(
                &gpu_model.kernel_sequence(&alexnet, 1, alexnet.len()),
                chunk,
            );
            let cost: SimDuration = kernels.iter().copied().sum();
            // u = BACKGROUND_PROCESSES * cost / period.
            let period =
                SimDuration::from_secs_f64(BACKGROUND_PROCESSES as f64 * cost.as_secs_f64() / u);
            (0..BACKGROUND_PROCESSES)
                .map(|_| Generator {
                    kernels: kernels.clone(),
                    period,
                    max_outstanding: 2,
                    noise_sigma: 0.10,
                })
                .collect()
        }
        None => {
            let resnet = lp_models::resnet152(1);
            let kernels =
                coalesce_kernels(&gpu_model.kernel_sequence(&resnet, 1, resnet.len()), chunk);
            (0..BACKGROUND_PROCESSES)
                .map(|_| Generator {
                    kernels: kernels.clone(),
                    period: SimDuration::from_micros(1), // "every 1 µs"
                    max_outstanding: 2,
                    noise_sigma: 0.10,
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuSim;
    use lp_sim::SimTime;

    fn measured_utilization(level: LoadLevel, horizon_ms: u64) -> f64 {
        let model = GpuModel::default();
        let mut gpu = GpuSim::with_default_slice(99);
        for g in background_generators(level, &model) {
            let ctx = gpu.add_context();
            gpu.set_generator(ctx, g, SimTime::ZERO);
        }
        gpu.advance_to(SimTime::ZERO + SimDuration::from_millis(horizon_ms));
        gpu.busy_time().as_secs_f64() / gpu.now().as_secs_f64()
    }

    #[test]
    fn idle_has_no_generators() {
        assert!(background_generators(LoadLevel::Idle, &GpuModel::default()).is_empty());
        assert_eq!(measured_utilization(LoadLevel::Idle, 100), 0.0);
    }

    #[test]
    fn utilization_tracks_targets() {
        for (level, lo, hi) in [
            (LoadLevel::Pct30, 0.22, 0.40),
            (LoadLevel::Pct50, 0.40, 0.62),
            (LoadLevel::Pct70, 0.58, 0.85),
            (LoadLevel::Pct90, 0.75, 1.0),
        ] {
            let u = measured_utilization(level, 2_000);
            assert!((lo..hi).contains(&u), "{level}: measured {u:.3}");
        }
    }

    #[test]
    fn both_100s_saturate() {
        for level in [LoadLevel::Pct100Low, LoadLevel::Pct100High] {
            let u = measured_utilization(level, 2_000);
            assert!(u > 0.93, "{level}: measured {u:.3}");
        }
    }

    #[test]
    fn high_level_uses_much_longer_tasks() {
        let model = GpuModel::default();
        let low = background_generators(LoadLevel::Pct100Low, &model);
        let high = background_generators(LoadLevel::Pct100High, &model);
        assert_eq!(low.len(), BACKGROUND_PROCESSES);
        assert_eq!(high.len(), BACKGROUND_PROCESSES);
        let cost = |g: &Generator| g.kernels.iter().copied().sum::<SimDuration>().as_secs_f64();
        assert!(cost(&high[0]) / cost(&low[0]) > 3.0);
        assert_eq!(high[0].period, SimDuration::from_micros(1));
    }

    #[test]
    fn coalesce_preserves_total_and_caps_chunks() {
        let ks: Vec<SimDuration> = (0..40).map(|_| SimDuration::from_micros(97)).collect();
        let total: SimDuration = ks.iter().copied().sum();
        let chunks = coalesce_kernels(&ks, SimDuration::from_micros(250));
        let chunk_total: SimDuration = chunks.iter().copied().sum();
        assert_eq!(total, chunk_total);
        assert!(chunks.len() < ks.len());
        assert!(chunks.iter().all(|c| c.as_micros_f64() <= 291.0 + 1e-9)); // <= 3*97
    }

    #[test]
    fn coalesce_keeps_oversized_kernels_alone() {
        let ks = vec![SimDuration::from_millis(5), SimDuration::from_micros(10)];
        let chunks = coalesce_kernels(&ks, SimDuration::from_micros(250));
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], SimDuration::from_millis(5));
    }

    #[test]
    fn display_names() {
        assert_eq!(LoadLevel::Pct100Low.to_string(), "100%(l)");
        assert_eq!(LoadLevel::Pct100High.to_string(), "100%(h)");
        assert_eq!(LoadLevel::all().len(), 7);
    }
}

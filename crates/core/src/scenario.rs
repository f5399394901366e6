//! Experiment drivers reproducing the paper's measurement campaigns.
//!
//! * [`bandwidth_sweep`] — Figures 6/7/8: drive inferences while the upload
//!   bandwidth follows a trace (8 → 1 → 64 Mbps), recording the chosen
//!   partition point and the end-to-end latency.
//! * [`load_timeline`] — Figure 9 (and Figure 2's methodology): fixed
//!   8 Mbps link, background load stepping through phases
//!   (0% → … → 100%(l) → 100%(h) → …), one record per inference.
//! * [`latency_distribution`] — Figure 2: repeated sampling of the
//!   end-to-end latency at a fixed load level.

use crate::baselines::Policy;
use crate::system::{InferenceRecord, OffloadingSystem, SystemConfig, Testbed};
use lp_graph::ComputationGraph;
use lp_hardware::LoadLevel;
use lp_net::{BandwidthTrace, Link};
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};

/// One sample of a bandwidth sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// True link bandwidth at request time (Mbps).
    pub true_mbps: f64,
    /// The inference measurement.
    pub record: InferenceRecord,
}

/// Runs a bandwidth sweep: inferences every `interval` for
/// `duration_secs`, link following `trace`, idle server.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn bandwidth_sweep(
    graph: ComputationGraph,
    policy: Policy,
    trace: BandwidthTrace,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    duration_secs: f64,
    interval: SimDuration,
    seed: u64,
) -> Vec<SweepPoint> {
    let link = Link::symmetric(trace.clone());
    let testbed = Testbed::new(link, seed);
    let mut sys = OffloadingSystem::new(
        graph,
        policy,
        testbed,
        user_models,
        edge_models,
        SystemConfig {
            seed,
            ..SystemConfig::default()
        },
    );
    let mut out = Vec::new();
    let mut t = SimTime::ZERO + interval;
    let end = SimTime::ZERO + SimDuration::from_secs_f64(duration_secs);
    while t < end {
        let true_mbps = trace.mbps_at(t);
        let record = sys.infer(t);
        out.push(SweepPoint { true_mbps, record });
        // Next request `interval` after this one completed (closed loop).
        t = (t + record.total).max(t + interval);
    }
    out
}

/// One phase of a load timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// Phase start, seconds from experiment start.
    pub start_secs: f64,
    /// Background load level during the phase.
    pub level: LoadLevel,
}

/// One sample of a load timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Load level active at request time.
    pub level: LoadLevel,
    /// The inference measurement.
    pub record: InferenceRecord,
}

/// The Figure 9 phase schedule: 0% rising to 100%(l), then 100%(h), then
/// back down, over ~260 s.
#[must_use]
pub fn figure9_phases() -> Vec<LoadPhase> {
    vec![
        LoadPhase {
            start_secs: 0.0,
            level: LoadLevel::Idle,
        },
        LoadPhase {
            start_secs: 30.0,
            level: LoadLevel::Pct30,
        },
        LoadPhase {
            start_secs: 60.0,
            level: LoadLevel::Pct50,
        },
        LoadPhase {
            start_secs: 90.0,
            level: LoadLevel::Pct70,
        },
        LoadPhase {
            start_secs: 120.0,
            level: LoadLevel::Pct90,
        },
        LoadPhase {
            start_secs: 150.0,
            level: LoadLevel::Pct100Low,
        },
        LoadPhase {
            start_secs: 180.0,
            level: LoadLevel::Pct100High,
        },
        LoadPhase {
            start_secs: 220.0,
            level: LoadLevel::Idle,
        },
    ]
}

/// Runs a load timeline at fixed bandwidth: inferences every `interval`
/// for `duration_secs`, background load following `phases`.
///
/// # Panics
///
/// Panics if `phases` is empty or not sorted by start time.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn load_timeline(
    graph: ComputationGraph,
    policy: Policy,
    phases: &[LoadPhase],
    bandwidth_mbps: f64,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    duration_secs: f64,
    interval: SimDuration,
    seed: u64,
) -> Vec<TimelinePoint> {
    load_timeline_with_telemetry(
        graph,
        policy,
        phases,
        bandwidth_mbps,
        user_models,
        edge_models,
        duration_secs,
        interval,
        seed,
        &crate::telemetry::Telemetry::disabled(),
    )
}

/// [`load_timeline`] with an observability handle: every inference's
/// metrics and trace spans flow into `telemetry` (see [`crate::telemetry`]).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn load_timeline_with_telemetry(
    graph: ComputationGraph,
    policy: Policy,
    phases: &[LoadPhase],
    bandwidth_mbps: f64,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    duration_secs: f64,
    interval: SimDuration,
    seed: u64,
    telemetry: &crate::telemetry::Telemetry,
) -> Vec<TimelinePoint> {
    assert!(!phases.is_empty(), "need at least one phase");
    assert!(
        phases.windows(2).all(|w| w[0].start_secs < w[1].start_secs),
        "phases must be sorted"
    );
    let testbed = Testbed::with_constant_bandwidth(bandwidth_mbps, seed);
    let mut sys = OffloadingSystem::new(
        graph,
        policy,
        testbed,
        user_models,
        edge_models,
        SystemConfig {
            seed,
            ..SystemConfig::default()
        },
    );
    sys.set_telemetry(telemetry.clone());
    let mut out = Vec::new();
    let mut next_phase = 0usize;
    let mut t = SimTime::ZERO + interval;
    let end = SimTime::ZERO + SimDuration::from_secs_f64(duration_secs);
    let mut level = LoadLevel::Idle;
    while t < end {
        while next_phase < phases.len() && phases[next_phase].start_secs <= t.as_secs_f64() {
            // Load changes take effect at the GPU's current instant, so
            // advance it to the boundary first.
            sys.testbed.server.gpu.advance_to(
                SimTime::ZERO + SimDuration::from_secs_f64(phases[next_phase].start_secs),
            );
            level = phases[next_phase].level;
            sys.testbed.server.set_load(level);
            next_phase += 1;
        }
        let record = sys.infer(t);
        out.push(TimelinePoint { level, record });
        t = (t + record.total).max(t + interval);
    }
    out
}

/// Samples the end-to-end latency distribution at one fixed load level
/// (the Figure 2 methodology: repeated requests with a small think time).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn latency_distribution(
    graph: ComputationGraph,
    policy: Policy,
    level: LoadLevel,
    bandwidth_mbps: f64,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    samples: usize,
    think_time: SimDuration,
    seed: u64,
) -> Vec<SimDuration> {
    let mut testbed = Testbed::with_constant_bandwidth(bandwidth_mbps, seed);
    testbed.server.set_load(level);
    let mut sys = OffloadingSystem::new(
        graph,
        policy,
        testbed,
        user_models,
        edge_models,
        SystemConfig {
            seed,
            ..SystemConfig::default()
        },
    );
    // Warm-up so the background generators reach steady state.
    let mut t = SimTime::ZERO + SimDuration::from_millis(500);
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let r = sys.infer(t);
        out.push(r.total);
        t = t + r.total + think_time;
    }
    out
}

/// Summary statistics of a latency sample (for Figure 2-style reporting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Mean latency.
    pub mean: SimDuration,
    /// 5th percentile.
    pub p5: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl LatencyStats {
    /// Computes the stats of a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    #[must_use]
    pub fn of(samples: &[SimDuration]) -> Self {
        assert!(!samples.is_empty(), "empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort();
        let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
        let mean_ns = sorted.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / sorted.len() as f64;
        Self {
            mean: SimDuration::from_nanos(mean_ns.round() as u64),
            p5: q(0.05),
            p50: q(0.50),
            p95: q(0.95),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::trained_models;
    use std::sync::OnceLock;

    fn models() -> &'static (PredictionModels, PredictionModels) {
        static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
        MODELS.get_or_init(|| trained_models(200, 42))
    }

    #[test]
    fn sweep_adapts_partition_to_bandwidth() {
        let (user, edge) = models();
        let trace = BandwidthTrace::steps(&[(0.0, 8.0), (10.0, 1.0), (20.0, 64.0)]);
        let pts = bandwidth_sweep(
            lp_models::alexnet(1),
            Policy::LoadPart,
            trace,
            user,
            edge,
            30.0,
            SimDuration::from_millis(400),
            3,
        );
        assert!(pts.len() > 20);
        // Partition point under 1 Mbps must be later (more local) than the
        // one under 64 Mbps. Compare settled medians per phase.
        let median_p = |lo: f64, hi: f64| {
            let mut ps: Vec<usize> = pts
                .iter()
                .filter(|pt| {
                    let t = pt.record.start.as_secs_f64();
                    // Skip 6 s after each phase switch (profiler period).
                    t > lo + 6.0 && t < hi
                })
                .map(|pt| pt.record.p)
                .collect();
            ps.sort_unstable();
            ps[ps.len() / 2]
        };
        let p_low = median_p(10.0, 20.0); // 1 Mbps
        let p_high = median_p(20.0, 30.0); // 64 Mbps
        assert!(p_low > p_high, "p@1Mbps={p_low} p@64Mbps={p_high}");
    }

    #[test]
    fn timeline_shifts_p_under_load_and_recovers() {
        let (user, edge) = models();
        let phases = vec![
            LoadPhase {
                start_secs: 0.0,
                level: LoadLevel::Idle,
            },
            LoadPhase {
                start_secs: 10.0,
                level: LoadLevel::Pct100High,
            },
            LoadPhase {
                start_secs: 80.0,
                level: LoadLevel::Idle,
            },
        ];
        let pts = load_timeline(
            lp_models::alexnet(1),
            Policy::LoadPart,
            &phases,
            8.0,
            user,
            edge,
            110.0,
            SimDuration::from_millis(500),
            4,
        );
        let median_p = |lo: f64, hi: f64| {
            let mut ps: Vec<usize> = pts
                .iter()
                .filter(|pt| {
                    let t = pt.record.start.as_secs_f64();
                    t > lo && t < hi
                })
                .map(|pt| pt.record.p)
                .collect();
            assert!(!ps.is_empty(), "no points in {lo}..{hi}");
            ps.sort_unstable();
            ps[ps.len() / 2]
        };
        let p_idle = median_p(2.0, 10.0);
        // Settled under heavy load: k needs a few profiler periods to climb
        // past the crossing point.
        let p_busy = median_p(50.0, 80.0);
        let p_recovered = median_p(98.0, 110.0); // after watchdog reset
        assert!(p_busy > p_idle, "p_idle={p_idle} p_busy={p_busy}");
        assert!(
            p_recovered <= p_idle,
            "p_recovered={p_recovered} p_idle={p_idle}"
        );
    }

    #[test]
    fn heavy_load_distribution_is_worse_and_wider() {
        let (user, edge) = models();
        // High bandwidth so the server-side effect dominates the upload
        // jitter, as in Figure 2's server-focused measurement.
        let dist = |level| {
            latency_distribution(
                lp_models::alexnet(1),
                Policy::Full,
                level,
                64.0,
                user,
                edge,
                80,
                SimDuration::from_millis(15),
                9,
            )
        };
        let idle = LatencyStats::of(&dist(LoadLevel::Idle));
        let heavy = LatencyStats::of(&dist(LoadLevel::Pct100High));
        assert!(heavy.mean > idle.mean, "{heavy:?} vs {idle:?}");
        let idle_spread = idle.p95.saturating_sub(idle.p5).as_secs_f64();
        let heavy_spread = heavy.p95.saturating_sub(heavy.p5).as_secs_f64();
        assert!(
            heavy_spread > idle_spread,
            "spread {heavy_spread} vs {idle_spread}"
        );
    }

    #[test]
    fn stats_quantiles_are_ordered() {
        let samples: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        let s = LatencyStats::of(&samples);
        assert!(s.p5 <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.max, SimDuration::from_millis(100));
        assert!((s.mean.as_millis_f64() - 50.5).abs() < 0.6);
    }

    #[test]
    fn figure9_phase_schedule_is_sorted() {
        let phases = figure9_phases();
        assert!(phases.windows(2).all(|w| w[0].start_secs < w[1].start_secs));
        assert_eq!(phases.first().unwrap().level, LoadLevel::Idle);
        assert_eq!(phases.last().unwrap().level, LoadLevel::Idle);
    }
}

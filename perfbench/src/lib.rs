//! The repository's benchmark: three closed-loop workloads over the
//! LoADPart runtime, each run in a fresh process, measured from outside
//! the program through its public functions, procfs and the telemetry it
//! already has.
//!
//! * [`wire`] — `wire_steady` and `wire_drift`: `nproc` sessions over
//!   loopback TCP against an in-process server.
//! * [`cosim`] — `cosim_shared_gpu`: eight co-simulated clients sharing
//!   one simulated GPU.
//!
//! Every record is checked as it arrives ([`check`]). Timing metrics are
//! taken over slices of the timed phase scaled to a nominal host speed
//! ([`timing`], [`calib`]); per-layer figures come from the client spans
//! ([`spans`]), procfs ([`procfs`]) and replays ([`layers`]).
//!
//! `perfbench/run.py` builds this crate, runs the processes and prints the
//! result; `perfbench setup|run --workload <name> --seed <n>` is one
//! process.

pub mod calib;
pub mod check;
pub mod cosim;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timing;
pub mod wire;

use lp_profiler::PredictionModels;
use report::{Metric, Report};
use std::path::Path;
use std::time::Instant;
use wire::{WirePolicy, WireSpec};

/// Training-set size of the prediction models (the repository's quick
/// bundle). The models are part of the program under test, so they do
/// not vary with `--seed`.
pub const SAMPLES_PER_KIND: usize = 150;

/// Seed of the model training.
pub const MODEL_SEED: u64 = 42;

/// The user-device and edge prediction models every workload runs with.
#[must_use]
pub fn trained() -> (PredictionModels, PredictionModels) {
    loadpart::system::trained_models(SAMPLES_PER_KIND, MODEL_SEED)
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall time of each set-up step, ms as measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupLayers {
    /// Building the model graph.
    pub build_ms: f64,
    /// Training the prediction models.
    pub train_ms: f64,
    /// Spawning the server and binding its socket.
    pub spawn_ms: f64,
    /// Connecting a session and constructing its client (mean).
    pub connect_ms: f64,
    /// The warm-up requests of a session (mean).
    pub warmup_ms: f64,
}

impl SetupLayers {
    /// The set-up layer metrics, scaled by the host `speed` calibrated
    /// right after set-up.
    #[must_use]
    pub fn metrics(&self, speed: f64) -> Vec<Metric> {
        vec![
            Metric::new("profiler.train_ms", self.train_ms * speed, "ms", 1),
            Metric::new("models.build_ms", self.build_ms * speed, "ms", 1),
            Metric::new("threaded.spawn_ms", self.spawn_ms * speed, "ms", 1),
            Metric::new("engine.connect_ms", self.connect_ms * speed, "ms", 1),
            Metric::new("engine.warmup_ms", self.warmup_ms * speed, "ms", 1),
        ]
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// AlexNet, fp32 LoADPart behind the decision memo, one constant
    /// bandwidth per run, over loopback TCP.
    WireSteady,
    /// ResNet50, `QuantPolicy`, a seeded bandwidth per request, over
    /// loopback TCP.
    WireDrift,
    /// InceptionV3, eight co-simulated clients sharing one GPU.
    CosimSharedGpu,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WireSteady,
        Workload::WireDrift,
        Workload::CosimSharedGpu,
    ];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSteady => "wire_steady",
            Workload::WireDrift => "wire_drift",
            Workload::CosimSharedGpu => "cosim_shared_gpu",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload in this process: set-up, then `seconds` of timed
    /// closed loop (none when `seconds` is 0), the checks and the metrics.
    /// `start` is the process start; `spans` is where a traced wire run
    /// writes its spans.
    #[must_use]
    pub fn run(
        self,
        seed: u64,
        seconds: f64,
        traced: bool,
        start: Instant,
        spans: Option<&Path>,
    ) -> Report {
        let wire = |model, policy| {
            wire::run(
                WireSpec { model, policy },
                seed,
                seconds,
                traced,
                start,
                spans,
            )
        };
        match self {
            Workload::WireSteady => wire("alexnet", WirePolicy::LoadPart),
            Workload::WireDrift => wire("resnet50", WirePolicy::Quant),
            Workload::CosimSharedGpu => cosim::run(seed, seconds, traced, start),
        }
    }
}

//! The end-to-end offloading system co-simulation.
//!
//! [`Testbed`] bundles the simulated hardware — the link, the edge GPU with
//! its background-load contexts, and the device/GPU latency models.
//! [`OffloadingSystem`] is the [`OffloadEngine`] composed with the
//! co-simulated backends: a [`SimulatedDevice`] over the device's
//! node-time table, a [`LinkTransport`] over the jittered link, and a
//! [`GpuBackend`] over the GPU's kernel-time table and an exclusive GPU
//! context with the §IV watchdog armed. Both tables are built once, when
//! the system is assembled; the testbed's models are private, so nothing
//! can change a model behind its table. The
//! per-request pipeline itself — profiler refresh, Algorithm 1 decision,
//! partition caches, prefix/upload/suffix, load-tracker feedback — lives in
//! the engine; this module only owns the hardware and the server-side
//! state.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::baselines::Policy;
use crate::cache::PartitionCache;
use crate::engine::backends::{GpuBackend, LinkTransport, SimulatedDevice};
use crate::engine::OffloadEngine;
use lp_graph::ComputationGraph;
use lp_hardware::load::install_background;
use lp_hardware::{DeviceModel, GpuModel, GpuSim, LoadLevel, NodeTimes};
use lp_net::{BandwidthTrace, Link};
use lp_profiler::dataset::{DeviceSource, EdgeSource};
use lp_profiler::{train_all, GpuUtilWatchdog, LoadFactorTracker, PredictionModels};
use lp_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

pub use crate::engine::{EngineConfig as SystemConfig, InferenceRecord};

/// The simulated hardware: link + edge GPU (+ background load) + models.
#[derive(Debug)]
pub struct Testbed {
    /// The device<->server link.
    pub link: Link,
    /// The edge GPU simulator.
    pub gpu: GpuSim,
    gpu_model: GpuModel,
    device_model: DeviceModel,
    /// The foreground context offloaded partitions run in.
    pub fg_ctx: usize,
    bg_ctxs: Vec<usize>,
    load: LoadLevel,
}

impl Testbed {
    /// Builds a testbed over the given link; background load starts idle.
    #[must_use]
    pub fn new(link: Link, seed: u64) -> Self {
        let mut gpu = GpuSim::with_default_slice(seed);
        let fg_ctx = gpu.add_context();
        Self {
            link,
            gpu,
            gpu_model: GpuModel::default(),
            device_model: DeviceModel::default(),
            fg_ctx,
            bg_ctxs: Vec::new(),
            load: LoadLevel::Idle,
        }
    }

    /// Convenience: a testbed with a constant-bandwidth symmetric link.
    #[must_use]
    pub fn with_constant_bandwidth(mbps: f64, seed: u64) -> Self {
        Self::new(Link::symmetric(BandwidthTrace::constant(mbps)), seed)
    }

    /// Switches the background load level, effective from the current
    /// simulation instant.
    pub fn set_load(&mut self, level: LoadLevel) {
        for &ctx in &self.bg_ctxs {
            self.gpu.clear_generator(ctx);
        }
        self.load = level;
        // 100%(h)'s 1 µs submission storm congests the kernel-launch path
        // for everyone (§II); the other levels leave it uncontended.
        let tax = if level == LoadLevel::Pct100High {
            SimDuration::from_micros(1200)
        } else {
            SimDuration::ZERO
        };
        self.gpu.set_kernel_tax(tax);
        if level == LoadLevel::Idle {
            return;
        }
        let now = self.gpu.now();
        if self.bg_ctxs.is_empty() {
            self.bg_ctxs = install_background(&mut self.gpu, level, &self.gpu_model, now);
        } else {
            let gens = lp_hardware::background_generators(level, &self.gpu_model);
            for (&ctx, g) in self.bg_ctxs.iter().zip(gens) {
                self.gpu.set_generator(ctx, g, now);
            }
        }
    }

    /// The current background load level.
    #[must_use]
    pub fn load(&self) -> LoadLevel {
        self.load
    }

    /// The user-end device's node-time table for `graph` (what a
    /// [`SimulatedDevice`] samples).
    #[must_use]
    pub fn device_times(&self, graph: &ComputationGraph) -> NodeTimes {
        self.device_model.node_times(graph)
    }

    /// The edge GPU's kernel-time table for `graph` (what a
    /// [`GpuBackend`] samples).
    #[must_use]
    pub fn kernel_times(&self, graph: &ComputationGraph) -> NodeTimes {
        self.gpu_model.node_times(graph)
    }
}

/// The running system: the offload engine driving inferences over a
/// testbed.
#[derive(Debug)]
pub struct OffloadingSystem {
    engine: OffloadEngine,
    /// The simulated hardware (public for scenario drivers to switch load).
    pub testbed: Testbed,
    device_times: NodeTimes,
    kernel_times: NodeTimes,
    tracker: LoadFactorTracker,
    watchdog: GpuUtilWatchdog,
    server_cache: PartitionCache,
    admission: Option<AdmissionController>,
}

impl OffloadingSystem {
    /// Assembles a system for one DNN.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EngineConfig::validate`](crate::engine::EngineConfig::validate);
    /// construct an [`OffloadEngine`] directly for `Result`-based
    /// handling).
    #[must_use]
    pub fn new(
        graph: ComputationGraph,
        policy: Policy,
        testbed: Testbed,
        user_models: &PredictionModels,
        edge_models: PredictionModels,
        config: SystemConfig,
    ) -> Self {
        let engine = OffloadEngine::new(graph, policy, user_models, &edge_models, 0, config)
            .expect("valid system config");
        Self::from_engine(engine, testbed)
    }

    /// Assembles a system around an externally supplied
    /// [`PartitionPolicy`](crate::policy::PartitionPolicy) — stateful
    /// learners included (the engine feeds them completed records through
    /// the guarded feedback hook).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_policy(
        graph: ComputationGraph,
        policy: Box<dyn crate::policy::PartitionPolicy>,
        testbed: Testbed,
        user_models: &PredictionModels,
        edge_models: PredictionModels,
        config: SystemConfig,
    ) -> Self {
        let engine =
            OffloadEngine::with_policy(graph, policy, user_models, &edge_models, 0, config)
                .expect("valid system config");
        Self::from_engine(engine, testbed)
    }

    fn from_engine(engine: OffloadEngine, testbed: Testbed) -> Self {
        let tracker = LoadFactorTracker::new(engine.config().tracker_period);
        Self {
            device_times: testbed.device_times(engine.graph()),
            kernel_times: testbed.kernel_times(engine.graph()),
            engine,
            testbed,
            tracker,
            watchdog: GpuUtilWatchdog::new(),
            server_cache: PartitionCache::new(),
            admission: None,
        }
    }

    /// Arms server-side admission control with the given budget; offload
    /// requests past it are shed
    /// ([`SuffixOutcome::Rejected`](crate::engine::SuffixOutcome::Rejected))
    /// and complete locally.
    pub fn set_admission(&mut self, config: AdmissionConfig) {
        self.admission = Some(AdmissionController::new(config));
    }

    /// The underlying engine (solver, profile, caches).
    #[must_use]
    pub fn engine(&self) -> &OffloadEngine {
        &self.engine
    }

    /// Installs an observability handle on the underlying engine
    /// (metrics + trace spans; see [`crate::telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: crate::telemetry::Telemetry) {
        self.engine.set_telemetry(telemetry);
    }

    /// The solver (for inspecting predictions).
    #[must_use]
    pub fn solver(&self) -> &crate::algorithm::PartitionSolver {
        self.engine.solver()
    }

    /// The device-side partition cache.
    #[must_use]
    pub fn device_cache(&self) -> &PartitionCache {
        self.engine.device_cache()
    }

    /// The load factor the device currently believes.
    #[must_use]
    pub fn current_k(&self) -> f64 {
        self.engine.profile().k()
    }

    /// Performs one inference request arriving at `at` and returns its
    /// record.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the testbed's current simulated time.
    pub fn infer(&mut self, at: SimTime) -> InferenceRecord {
        let Testbed {
            link, gpu, fg_ctx, ..
        } = &mut self.testbed;
        let mut device = SimulatedDevice {
            times: &self.device_times,
        };
        let mut transport = LinkTransport { link };
        let mut backend = GpuBackend {
            gpu,
            kernel_times: &self.kernel_times,
            ctx: *fg_ctx,
            tracker: &mut self.tracker,
            watchdog: Some(&mut self.watchdog),
            server_cache: &self.server_cache,
            admission: self.admission.as_mut(),
        };
        self.engine
            .run(at, &mut device, &mut backend, &mut transport)
            .expect("co-simulated backends are infallible")
    }
}

/// Trains both model bundles on the default hardware calibration — the
/// offline-profiler step shared by examples, tests and benches.
///
/// `samples_per_kind` trades accuracy for speed (400+ reproduces Table III;
/// 64 is enough for doctests).
///
/// Training is deterministic in `(samples_per_kind, seed)`, so results are
/// memoized process-wide: every experiment binary and test that asks for
/// the same profile gets clones of one trained bundle instead of
/// re-running NNLS from scratch.
#[must_use]
pub fn trained_models(samples_per_kind: usize, seed: u64) -> (PredictionModels, PredictionModels) {
    type ModelCache = Mutex<HashMap<(usize, u64), (PredictionModels, PredictionModels)>>;
    static CACHE: OnceLock<ModelCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    map.entry((samples_per_kind, seed))
        .or_insert_with(|| {
            let mut dev = DeviceSource::new(DeviceModel::default(), seed);
            let (user_models, _) = train_all(&mut dev, samples_per_kind, seed);
            let mut edge = EdgeSource::new(GpuModel::default(), seed ^ 0xBEEF);
            let (edge_models, _) = train_all(&mut edge, samples_per_kind, seed ^ 0xBEEF);
            (user_models, edge_models)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn models() -> &'static (PredictionModels, PredictionModels) {
        static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
        MODELS.get_or_init(|| trained_models(200, 42))
    }

    fn system(policy: Policy, mbps: f64, graph: ComputationGraph) -> OffloadingSystem {
        let (user, edge) = models();
        OffloadingSystem::new(
            graph,
            policy,
            Testbed::with_constant_bandwidth(mbps, 5),
            user,
            edge.clone(),
            SystemConfig::default(),
        )
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn alexnet_at_8mbps_partial_offloads() {
        let mut sys = system(Policy::LoadPart, 8.0, lp_models::alexnet(1));
        let r = sys.infer(secs(1));
        assert!(r.p > 0 && r.p < 27, "p={}", r.p);
        assert!(r.total > SimDuration::ZERO);
        assert!(r.upload > SimDuration::ZERO);
        assert!(r.server > SimDuration::ZERO);
    }

    #[test]
    fn partial_beats_local_and_full_for_alexnet() {
        // Figure 1's core claim at 8 Mbps on an idle server.
        let avg = |policy: Policy| {
            let mut sys = system(policy, 8.0, lp_models::alexnet(1));
            let mut total = 0.0;
            for i in 0..20 {
                total += sys
                    .infer(secs(1) + SimDuration::from_millis(400 * i))
                    .total
                    .as_secs_f64();
            }
            total / 20.0
        };
        let lp = avg(Policy::LoadPart);
        let local = avg(Policy::Local);
        let full = avg(Policy::Full);
        assert!(lp < local, "LoADPart {lp:.3}s vs local {local:.3}s");
        assert!(lp < full, "LoADPart {lp:.3}s vs full {full:.3}s");
        // Figure 1 reports ~4x over full offloading and ~30% over local.
        assert!(full / lp > 1.5, "speedup over full = {:.2}", full / lp);
    }

    #[test]
    fn local_policy_never_uses_network() {
        let mut sys = system(Policy::Local, 8.0, lp_models::alexnet(1));
        let r = sys.infer(secs(1));
        assert_eq!(r.p, 27);
        assert_eq!(r.upload, SimDuration::ZERO);
        assert_eq!(r.server, SimDuration::ZERO);
    }

    #[test]
    fn cache_hits_after_first_request() {
        let mut sys = system(Policy::LoadPart, 8.0, lp_models::alexnet(1));
        let a = sys.infer(secs(1));
        let b = sys.infer(secs(2));
        assert!(!a.cache_hit);
        assert!(b.cache_hit, "same decision should hit the cache");
    }

    #[test]
    fn heavy_load_raises_k_and_moves_p() {
        let mut sys = system(Policy::LoadPart, 8.0, lp_models::alexnet(1));
        // Warm up on an idle server.
        let idle_p = sys.infer(secs(1)).p;
        // Saturate the GPU and keep inferring; after the next profiler
        // period the device sees k > 1.
        sys.testbed.set_load(LoadLevel::Pct100High);
        let mut last = None;
        for i in 0..30 {
            let r = sys.infer(secs(2) + SimDuration::from_millis(600 * i));
            last = Some(r);
        }
        let r = last.unwrap();
        assert!(r.k_used > 1.3, "k={}", r.k_used);
        assert!(r.p >= idle_p, "p should not move earlier under load");
    }

    #[test]
    fn watchdog_recovers_k_after_load_drops() {
        let mut sys = system(Policy::LoadPart, 8.0, lp_models::alexnet(1));
        sys.testbed.set_load(LoadLevel::Pct100High);
        for i in 0..30 {
            sys.infer(secs(1) + SimDuration::from_millis(600 * i));
        }
        let k_busy = sys.current_k();
        assert!(k_busy > 2.0, "k={k_busy}");
        // Load vanishes; the device may have gone local, but the watchdog
        // resets the tracker and the next k fetch sees the idle baseline
        // again (~1.3-1.5: the NNLS models' systematic underprediction,
        // which `k` absorbs by design).
        sys.testbed.set_load(LoadLevel::Idle);
        for i in 0..8 {
            sys.infer(secs(30) + SimDuration::from_secs(5 * i));
        }
        let k_recovered = sys.current_k();
        assert!(
            k_recovered < 2.0 && k_recovered < k_busy / 2.0,
            "k should recover: busy {k_busy} -> {k_recovered}"
        );
    }

    #[test]
    fn neurosurgeon_ignores_load_in_decisions() {
        let mut sys = system(Policy::Neurosurgeon, 8.0, lp_models::alexnet(1));
        let p_idle = sys.infer(secs(1)).p;
        sys.testbed.set_load(LoadLevel::Pct100High);
        for i in 0..20 {
            let r = sys.infer(secs(2) + SimDuration::from_millis(700 * i));
            assert_eq!(r.p, p_idle, "baseline must keep its partition point");
        }
    }

    #[test]
    fn records_are_internally_consistent() {
        let mut sys = system(Policy::LoadPart, 8.0, lp_models::alexnet(1));
        let r = sys.infer(secs(1));
        let parts = r.device + r.upload + r.server + r.download;
        // total is end-to-end; parts should account for it (no download).
        assert!(
            (parts.as_secs_f64() - r.total.as_secs_f64()).abs() < 1e-6,
            "{parts} vs {r:?}"
        );
    }
}

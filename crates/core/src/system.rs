//! The end-to-end offloading system co-simulation.
//!
//! [`EdgeServer`] is the co-simulated edge server of §IV as one unit: the
//! GPU it shares with §II's background processes, the tracker that
//! measures the load factor `k` (observed over predicted suffix time), the
//! GPU-utilization watchdog that resets `k` when the GPU idles, and
//! optional admission control. Every co-simulation driver builds exactly
//! one; each client reaches it through a [`GpuBackend`] view over its own
//! GPU context ([`EdgeServer::backend`]).
//!
//! [`Testbed`] holds one server next to the link and the device model.
//! [`OffloadingSystem`] is the [`OffloadEngine`] composed with the
//! co-simulated backends: a [`SimulatedDevice`] over the device's
//! node-time table, a [`LinkTransport`] over the jittered link, and the
//! testbed server's view over the GPU's kernel-time table and the
//! foreground context. Both tables are built once, when the system is
//! assembled; the models are private, so nothing can change a model
//! behind its table. The per-request pipeline itself — profiler refresh,
//! Algorithm 1 decision, the device partition cache,
//! prefix/upload/suffix, load-tracker feedback — lives in the engine;
//! this module only owns the hardware and the server.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::baselines::Policy;
use crate::engine::backends::{GpuBackend, LinkTransport, SimulatedDevice};
use crate::engine::OffloadEngine;
use lp_graph::ComputationGraph;
use lp_hardware::{background_generators, DeviceModel, GpuModel, GpuSim, LoadLevel, NodeTimes};
use lp_net::{BandwidthTrace, Link};
use lp_profiler::dataset::{DeviceSource, EdgeSource};
use lp_profiler::{train_all, GpuUtilWatchdog, LoadFactorTracker, PredictionModels};
use lp_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

pub use crate::engine::{EngineConfig as SystemConfig, InferenceRecord};

/// The co-simulated edge server: one GPU, its §II background load, the
/// load-factor tracker, an always-armed GPU-utilization watchdog and
/// optional admission control.
///
/// The GPU schedules its contexts round-robin in index order, so the
/// order contexts are added in is part of the model: clients add theirs
/// first, and the background contexts follow on the first
/// [`EdgeServer::set_load`] away from idle.
#[derive(Debug)]
pub struct EdgeServer {
    /// The edge GPU simulator.
    pub gpu: GpuSim,
    gpu_model: GpuModel,
    bg_ctxs: Vec<usize>,
    load: LoadLevel,
    pub(crate) tracker: LoadFactorTracker,
    pub(crate) watchdog: GpuUtilWatchdog,
    pub(crate) admission: Option<AdmissionController>,
}

impl EdgeServer {
    /// An idle server without contexts: the paper's 5 s tracker period,
    /// the watchdog armed, admission control off.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            gpu: GpuSim::with_default_slice(seed),
            gpu_model: GpuModel::default(),
            bg_ctxs: Vec::new(),
            load: LoadLevel::Idle,
            tracker: LoadFactorTracker::new(SimDuration::from_secs(5)),
            watchdog: GpuUtilWatchdog::new(),
            admission: None,
        }
    }

    /// Replaces the load tracker with one monitoring `period`; samples
    /// recorded so far are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_tracker_period(&mut self, period: SimDuration) {
        self.tracker = LoadFactorTracker::new(period);
    }

    /// Arms admission control with the given budget; offload requests
    /// past it are shed
    /// ([`SuffixOutcome::Rejected`](crate::engine::SuffixOutcome::Rejected))
    /// and complete locally.
    pub fn set_admission(&mut self, config: AdmissionConfig) {
        self.admission = Some(AdmissionController::new(config));
    }

    /// Switches the background load level, effective from the GPU's
    /// current simulation instant.
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
        let gens = background_generators(level, &self.gpu_model);
        if self.bg_ctxs.is_empty() {
            self.bg_ctxs = gens.iter().map(|_| self.gpu.add_context()).collect();
        }
        let now = self.gpu.now();
        for (&ctx, g) in self.bg_ctxs.iter().zip(gens) {
            self.gpu.set_generator(ctx, g, now);
        }
    }

    /// The current background load level.
    #[must_use]
    pub fn load(&self) -> LoadLevel {
        self.load
    }

    /// The GPU's kernel-time table for `graph` (what a [`GpuBackend`]
    /// samples).
    #[must_use]
    pub fn kernel_times(&self, graph: &ComputationGraph) -> NodeTimes {
        self.gpu_model.node_times(graph)
    }

    /// The view a client offloads through: its suffixes run in GPU context
    /// `ctx`, sampled from `kernel_times`, its graph's table.
    pub fn backend<'a>(&'a mut self, kernel_times: &'a NodeTimes, ctx: usize) -> GpuBackend<'a> {
        GpuBackend {
            server: self,
            kernel_times,
            ctx,
        }
    }

    /// GPU utilization from time zero to the GPU's current instant.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.gpu.now() > SimTime::ZERO {
            self.gpu.busy_time().as_secs_f64() / self.gpu.now().as_secs_f64()
        } else {
            0.0
        }
    }

    /// Requests admission control has shed (0 while it is off).
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.admission
            .as_ref()
            .map_or(0, AdmissionController::rejected)
    }
}

/// The simulated hardware: the link, the edge server and the device
/// model.
#[derive(Debug)]
pub struct Testbed {
    /// The device<->server link.
    pub link: Link,
    /// The edge server.
    pub server: EdgeServer,
    device_model: DeviceModel,
    fg_ctx: usize,
}

impl Testbed {
    /// Builds a testbed over the given link; the server starts idle.
    #[must_use]
    pub fn new(link: Link, seed: u64) -> Self {
        let mut server = EdgeServer::new(seed);
        // The foreground context comes first, so background contexts
        // follow it even when the load is set before a system is built.
        let fg_ctx = server.gpu.add_context();
        Self {
            link,
            server,
            device_model: DeviceModel::default(),
            fg_ctx,
        }
    }

    /// Convenience: a testbed with a constant-bandwidth symmetric link.
    #[must_use]
    pub fn with_constant_bandwidth(mbps: f64, seed: u64) -> Self {
        Self::new(Link::symmetric(BandwidthTrace::constant(mbps)), seed)
    }

    /// The user-end device's node-time table for `graph` (what a
    /// [`SimulatedDevice`] samples).
    #[must_use]
    pub fn device_times(&self, graph: &ComputationGraph) -> NodeTimes {
        self.device_model.node_times(graph)
    }

    /// The transport over the link and the server view the foreground
    /// client offloads through (`kernel_times` is its graph's table).
    pub fn backends<'a>(
        &'a mut self,
        kernel_times: &'a NodeTimes,
    ) -> (LinkTransport<'a>, GpuBackend<'a>) {
        (
            LinkTransport { link: &self.link },
            self.server.backend(kernel_times, self.fg_ctx),
        )
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
        edge_models: &PredictionModels,
        config: SystemConfig,
    ) -> Self {
        let engine = OffloadEngine::new(graph, policy, user_models, edge_models, 0, config)
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
        edge_models: &PredictionModels,
        config: SystemConfig,
    ) -> Self {
        let engine = OffloadEngine::with_policy(graph, policy, user_models, edge_models, 0, config)
            .expect("valid system config");
        Self::from_engine(engine, testbed)
    }

    fn from_engine(engine: OffloadEngine, testbed: Testbed) -> Self {
        Self {
            device_times: testbed.device_times(engine.graph()),
            kernel_times: testbed.server.kernel_times(engine.graph()),
            engine,
            testbed,
        }
    }

    /// The underlying engine (solver, profile, caches, the `k` the device
    /// believes).
    #[must_use]
    pub fn engine(&self) -> &OffloadEngine {
        &self.engine
    }

    /// Installs an observability handle on the underlying engine
    /// (metrics + trace spans; see [`crate::telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: crate::telemetry::Telemetry) {
        self.engine.set_telemetry(telemetry);
    }

    /// Performs one inference request arriving at `at` and returns its
    /// record.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the testbed's current simulated time.
    pub fn infer(&mut self, at: SimTime) -> InferenceRecord {
        let mut device = SimulatedDevice {
            times: &self.device_times,
        };
        let (mut transport, mut backend) = self.testbed.backends(&self.kernel_times);
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
            edge,
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
        sys.testbed.server.set_load(LoadLevel::Pct100High);
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
        sys.testbed.server.set_load(LoadLevel::Pct100High);
        for i in 0..30 {
            sys.infer(secs(1) + SimDuration::from_millis(600 * i));
        }
        let k_busy = sys.engine().profile().k();
        assert!(k_busy > 2.0, "k={k_busy}");
        // Load vanishes; the device may have gone local, but the watchdog
        // resets the tracker and the next k fetch sees the idle baseline
        // again (~1.3-1.5: the NNLS models' systematic underprediction,
        // which `k` absorbs by design).
        sys.testbed.server.set_load(LoadLevel::Idle);
        for i in 0..8 {
            sys.infer(secs(30) + SimDuration::from_secs(5 * i));
        }
        let k_recovered = sys.engine().profile().k();
        assert!(
            k_recovered < 2.0 && k_recovered < k_busy / 2.0,
            "k should recover: busy {k_busy} -> {k_recovered}"
        );
    }

    #[test]
    fn neurosurgeon_ignores_load_in_decisions() {
        let mut sys = system(Policy::Neurosurgeon, 8.0, lp_models::alexnet(1));
        let p_idle = sys.infer(secs(1)).p;
        sys.testbed.server.set_load(LoadLevel::Pct100High);
        for i in 0..20 {
            let r = sys.infer(secs(2) + SimDuration::from_millis(700 * i));
            assert_eq!(r.p, p_idle, "baseline must keep its partition point");
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_tracker_period_is_refused() {
        EdgeServer::new(1).set_tracker_period(SimDuration::ZERO);
    }

    /// The GPU's round-robin follows context indices: the foreground
    /// context is 0 and the background ones follow, even when the load is
    /// set before a system is assembled.
    #[test]
    fn background_contexts_follow_the_foreground_context() {
        let mut testbed = Testbed::with_constant_bandwidth(8.0, 1);
        assert!(testbed.server.bg_ctxs.is_empty(), "idle builds no load");
        testbed.server.set_load(LoadLevel::Pct50);
        assert_eq!(testbed.fg_ctx, 0);
        let n = lp_hardware::load::BACKGROUND_PROCESSES;
        assert_eq!(testbed.server.bg_ctxs, (1..=n).collect::<Vec<_>>());
    }

    /// When a SqueezeNet suffix handed to an idle server with `noise_seed`
    /// completes: one draw of its 91 kernels.
    fn suffix_completion(noise_seed: u64) -> SimTime {
        use crate::engine::{ServerBackend, SuffixOutcome, SuffixRequest};
        let graph = lp_models::squeezenet(1);
        let mut server = EdgeServer::new(3);
        let ctx = server.gpu.add_context();
        let times = server.kernel_times(&graph);
        let mut backend = server.backend(&times, ctx);
        let req = SuffixRequest {
            request_id: 0,
            p: 0,
            precision: lp_graph::Precision::Fp32,
            upload_bytes: 0,
            arrive: secs(1),
            noise_seed,
        };
        match backend.execute_suffix(&graph, &req) {
            Ok(SuffixOutcome::Pending { task }) => backend.wait(task),
            other => panic!("an idle server without admission queues: {other:?}"),
        }
    }

    #[test]
    fn suffix_kernels_are_a_pure_function_of_seed_client_and_request() {
        use crate::engine::suffix_noise_seed;
        let at = |seed, client, id| suffix_completion(suffix_noise_seed(seed, client, id));
        let base = at(42, 3, 17);
        assert_eq!(
            at(42, 3, 17),
            base,
            "the same triple draws the same kernels"
        );
        for (seed, client, id) in [(42, 3, 18), (42, 4, 17), (43, 3, 17)] {
            assert_ne!(at(seed, client, id), base, "({seed}, {client}, {id})");
        }
    }

    /// The engine's own stream feeds the device prefix, the link's jitter
    /// and the profiler's probes; a co-simulated suffix draws from its
    /// request's stream instead. So the same requests through a server
    /// that draws 55 kernels each and through one that draws nothing see
    /// the same device, upload and download times.
    #[test]
    fn suffix_draws_do_not_advance_the_engine_stream() {
        use crate::engine::backends::SimulatedDevice;
        use crate::engine::{ServerBackend, SuffixOutcome, SuffixRequest};
        use crate::protocol::ProtocolError;

        /// A server that answers every suffix at once and draws nothing.
        struct Instant;
        impl ServerBackend for Instant {
            fn query_k(&mut self, _now: SimTime) -> Result<f64, ProtocolError> {
                Ok(1.0)
            }
            fn execute_suffix(
                &mut self,
                _graph: &ComputationGraph,
                req: &SuffixRequest,
            ) -> Result<SuffixOutcome, ProtocolError> {
                Ok(SuffixOutcome::Done {
                    completion: req.arrive,
                })
            }
            fn complete(&mut self, _: SimTime, _: SimDuration, _: SimDuration) {}
        }

        let (user, edge) = models();
        let graph = lp_models::squeezenet(1);
        let run = |gpu: bool| {
            let mut engine = OffloadEngine::new(
                graph.clone(),
                Policy::Fixed(36),
                user,
                edge,
                0,
                SystemConfig::default(),
            )
            .expect("valid config");
            let mut testbed = Testbed::with_constant_bandwidth(8.0, 5);
            let device_times = testbed.device_times(&graph);
            let kernel_times = testbed.server.kernel_times(&graph);
            let mut device = SimulatedDevice {
                times: &device_times,
            };
            let (mut transport, mut server) = testbed.backends(&kernel_times);
            (0..12)
                .map(|i| {
                    let at = secs(1 + i);
                    let r = if gpu {
                        engine.run(at, &mut device, &mut server, &mut transport)
                    } else {
                        engine.run(at, &mut device, &mut Instant, &mut transport)
                    }
                    .expect("co-simulated backends are infallible");
                    assert_eq!(r.p, 36);
                    (r.device, r.upload, r.download)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
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

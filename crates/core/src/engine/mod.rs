//! The shared per-request offload pipeline.
//!
//! Every driver in this crate — the co-simulated [`OffloadingSystem`]
//! (`system`), the threaded wire runtime (`threaded`) and the shared-GPU
//! multi-client run (`multi_client`) — executes the same LoADPart loop per
//! request:
//!
//! 1. run the periodic runtime-profiler action if due ([`RuntimeProfile`]:
//!    bandwidth probe + `k` fetch, §IV);
//! 2. pick the partition point with the installed
//!    [`PartitionPolicy`] (Algorithm 1 for LoADPart);
//! 3. fetch the partitioned graph from the device-side partition cache
//!    (§III-A);
//! 4. execute `L_1..L_p` on the device, upload the crossing tensors, hand
//!    the suffix to the server;
//! 5. when the suffix completes, report the observed server time to the
//!    load-factor tracker (§III-C).
//!
//! [`OffloadEngine`] owns that loop once. What differs per driver is *how*
//! each step executes, expressed as three traits the engine is generic
//! over:
//!
//! * [`DeviceExecutor`] — how `L_1..L_p` runs (a sampled node-time table
//!   vs logical no-op);
//! * [`Transport`] — how the profiler's probes and `k` fetch and the
//!   tensors move (simulated [`lp_net::Link`] vs protocol frames over
//!   channels, where one refresh is one pipelined exchange);
//! * [`ServerBackend`] — how the suffix executes and where `k` comes from
//!   (queueing [`lp_hardware::GpuSim`], shared or exclusive, vs a remote
//!   server thread).
//!
//! Backends that queue (a shared GPU) return [`SuffixOutcome::Pending`];
//! drivers that interleave many clients keep the [`PendingRequest`] and
//! call [`OffloadEngine::finish`] when the completion arrives. Drivers
//! that block per request just call [`OffloadEngine::run`].
//!
//! The decision step itself is pluggable: [`OffloadEngine::new`] takes
//! the classic [`Policy`] enum spec (always wrapped in a [`MemoPolicy`]),
//! while [`OffloadEngine::with_policy`] installs any [`PartitionPolicy`]
//! trait object — including stateful online learners, which the engine
//! feeds completed records through [`PartitionPolicy::observe`] (guarded:
//! fallback-local and admission-shed records never reach the learner).
//!
//! [`OffloadingSystem`]: crate::system::OffloadingSystem
//! [`Policy`]: crate::baselines::Policy

pub mod backends;
pub mod breaker;
mod config;
mod profile;
mod record;

pub use breaker::{BreakerState, CircuitBreaker, WireGate};
pub(crate) use config::{check_bandwidth, suffix_noise_seed};
pub use config::{seeded_jitter, splitmix64, ConfigError, EngineConfig};
pub use profile::RuntimeProfile;
pub use record::InferenceRecord;

use crate::algorithm::PartitionSolver;
use crate::baselines::Policy;
use crate::cache::PartitionCache;
use crate::policy::{MemoPolicy, PartitionPolicy, PolicyContext};
use crate::protocol::ProtocolError;
use crate::telemetry::{EngineMetrics, SpanEvent, SpanKind, Telemetry};
use lp_graph::{quantized_transmission_series, ComputationGraph, Precision};
use lp_hardware::TaskId;
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// How a driver executes device-side layers.
pub trait DeviceExecutor {
    /// Executes layers `L_{from+1}..L_to` and returns the time it took.
    /// The engine uses `0..p` for the normal prefix and `p..n` when the
    /// offload path fails mid-request and the device has to finish the
    /// inference itself.
    fn execute_range(
        &mut self,
        graph: &ComputationGraph,
        from: usize,
        to: usize,
        rng: &mut StdRng,
    ) -> SimDuration;

    /// Executes the prefix `L_1..L_p` and returns the time it took.
    fn execute_prefix(
        &mut self,
        graph: &ComputationGraph,
        p: usize,
        rng: &mut StdRng,
    ) -> SimDuration {
        self.execute_range(graph, 0, p, rng)
    }
}

/// One suffix execution handed to a [`ServerBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuffixRequest {
    /// Engine-assigned request id.
    pub request_id: u64,
    /// Partition point: the server runs `L_{p+1}..L_n`.
    pub p: usize,
    /// Negotiated upload-tensor precision. The wire backend ships a zero
    /// payload of the packed length at this width, and the server counts
    /// narrow uploads without reading them.
    pub precision: Precision,
    /// Bytes of crossing tensors shipped with the request (already
    /// quantized: at a narrow precision this is the packed size).
    pub upload_bytes: u64,
    /// When the upload finished — the suffix cannot start earlier, and
    /// server time is measured from here.
    pub arrive: SimTime,
    /// Seed of the suffix's own kernel-noise stream, a `splitmix64` mix
    /// of (engine seed, client, request id) and nothing else. A
    /// co-simulated server draws the suffix's kernel times from it, so
    /// they never advance the engine's device/link stream, and a failover
    /// re-issues the same draws.
    pub noise_seed: u64,
}

/// What a [`ServerBackend`] did with a suffix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SuffixOutcome {
    /// The suffix ran to completion (blocking backends).
    Done {
        /// When the suffix finished on the server.
        completion: SimTime,
    },
    /// The suffix is queued; the driver must observe the completion and
    /// call [`OffloadEngine::finish`] (shared-GPU backends).
    Pending {
        /// Handle to poll the simulator with.
        task: TaskId,
    },
    /// The server's admission control shed the request — its pending-work
    /// budget is exhausted. The device runs the suffix itself; no retry
    /// (the server told us it is overloaded, hammering it again is
    /// counter-productive).
    Rejected {
        /// Predicted time until the server's backlog drains.
        retry_after: SimDuration,
        /// The server's load factor, piggybacked so the client's profile
        /// is load-aware immediately.
        k: f64,
    },
}

/// How a driver executes the server side: suffix execution and the load
/// feedback loop.
pub trait ServerBackend {
    /// Advances server-side clocks to `now` (called once per request,
    /// before anything else).
    fn advance(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Server-side housekeeping that runs every request regardless of the
    /// profiler cadence — the GPU-utilization watchdog in the
    /// co-simulation.
    fn monitor(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Answers the device's "what is `k` now?" query on its own: the
    /// explicit [`OffloadEngine::refresh_k`], and the periodic refresh of
    /// transports that do not fetch `k` themselves (the simulated link).
    ///
    /// # Errors
    ///
    /// Wire backends propagate [`ProtocolError`] on malformed replies.
    fn query_k(&mut self, now: SimTime) -> Result<f64, ProtocolError>;

    /// Executes (or enqueues) the suffix `L_{p+1}..L_n`. A backend that
    /// samples kernel times draws them from the stream seeded by
    /// `req.noise_seed`; the engine's own RNG stays on the device side.
    ///
    /// # Errors
    ///
    /// Wire backends propagate [`ProtocolError`] on malformed responses.
    fn execute_suffix(
        &mut self,
        graph: &ComputationGraph,
        req: &SuffixRequest,
    ) -> Result<SuffixOutcome, ProtocolError>;

    /// Blocks until a [`SuffixOutcome::Pending`] task completes and
    /// returns the completion time. Only called by [`OffloadEngine::run`];
    /// backends that never defer keep the default.
    fn wait(&mut self, task: TaskId) -> SimTime {
        let _ = task;
        unreachable!("backend never defers suffix execution")
    }

    /// Feeds one observed suffix execution to the server's load-factor
    /// tracker. Backends whose server observes executions itself (the
    /// threaded server thread) leave this a no-op.
    fn complete(&mut self, completion: SimTime, observed: SimDuration, predicted: SimDuration);
}

/// How bytes move between device and server.
pub trait Transport {
    /// Runs the runtime profiler's exchange at `now` (§IV): `probes`
    /// bandwidth probes feeding `profiler`, then the `k` fetch, and
    /// returns the server's load factor. The simulated link probes and
    /// asks `backend` in turn; the wire sends every probe and the load
    /// query in one batch and awaits the acks, then the reply.
    ///
    /// # Errors
    ///
    /// Wire transports propagate [`ProtocolError`] when an ack or the
    /// reply is missing or malformed; the exchange succeeds only whole.
    fn probe_and_query_k<S: ServerBackend + ?Sized>(
        &mut self,
        profiler: &mut lp_net::ProbeProfiler,
        probes: usize,
        backend: &mut S,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Result<f64, ProtocolError>;

    /// Ships `bytes` of crossing tensors starting at `start`; returns the
    /// arrival time at the server. Real uploads also feed the estimator
    /// passively (§IV).
    ///
    /// # Errors
    ///
    /// Wire transports propagate [`ProtocolError`].
    fn upload(
        &mut self,
        profiler: &mut lp_net::ProbeProfiler,
        bytes: u64,
        start: SimTime,
        rng: &mut StdRng,
    ) -> Result<SimTime, ProtocolError>;

    /// Ships the result back starting at `start`; returns when it lands on
    /// the device.
    fn download(&mut self, bytes: u64, start: SimTime, rng: &mut StdRng) -> SimTime;
}

/// An offload request whose suffix is still queued on the server.
#[derive(Debug)]
pub struct PendingRequest {
    /// Handle the driver polls the simulator with.
    pub task: TaskId,
    arrive: SimTime,
    record: InferenceRecord,
    /// Whether the installed policy made this decision (as opposed to
    /// the degraded local path) — gates the feedback hook at settle time.
    policy_decided: bool,
    /// Which endpoint the suffix was handed to (0 for single-server
    /// drivers) — settle-time telemetry reads that endpoint's breaker.
    endpoint: usize,
}

impl PendingRequest {
    /// The partially filled record (server/download/total not yet final).
    #[must_use]
    pub fn record(&self) -> &InferenceRecord {
        &self.record
    }
}

/// Result of [`OffloadEngine::start`].
#[derive(Debug)]
pub enum Outcome {
    /// The request ran to completion.
    Complete(InferenceRecord),
    /// The suffix is queued on a shared backend.
    Deferred(PendingRequest),
}

/// An offload attempt whose suffix exchange failed *after* the prefix ran
/// and the crossing tensors were produced. The partition point is fixed —
/// `L_1..L_p` already executed on the device — so a cluster driver can
/// re-issue exactly this suffix on another endpoint
/// ([`OffloadEngine::failover_on`]) or give up and finish locally
/// ([`OffloadEngine::complete_failed`]).
#[derive(Debug)]
pub struct FailedAttempt {
    /// The in-flight record; `fallback_local` / `rejected` reflect the
    /// *last* failed attempt and are cleared by the next failover.
    record: InferenceRecord,
    /// When the engine gave up on the wire — the next attempt (or the
    /// local completion) resumes from here.
    resume_at: SimTime,
    /// The endpoint the failed attempt used.
    endpoint: usize,
    /// The server's drain estimate when the failure was an admission shed.
    retry_after: Option<SimDuration>,
    /// Cumulative backoff sleeping already charged to this request.
    spent: Duration,
}

impl FailedAttempt {
    /// The partially filled record of the failed attempt.
    #[must_use]
    pub fn record(&self) -> &InferenceRecord {
        &self.record
    }

    /// Whether the failure was an admission shed (vs a wire fault).
    #[must_use]
    pub fn rejected(&self) -> bool {
        self.record.rejected
    }

    /// The server's backlog-drain estimate, when it shed the request.
    #[must_use]
    pub fn retry_after(&self) -> Option<SimDuration> {
        self.retry_after
    }

    /// The endpoint the failed attempt used.
    #[must_use]
    pub fn endpoint(&self) -> usize {
        self.endpoint
    }
}

/// Result of [`OffloadEngine::start_attempt_on`] — [`Outcome`] plus the
/// two failure shapes a cluster driver reroutes instead of degrading.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The request ran to completion on the attempted endpoint.
    Complete(InferenceRecord),
    /// The suffix is queued on a shared backend.
    Deferred(PendingRequest),
    /// The endpoint was unusable before anything ran — breaker/cooldown
    /// blocked it, or the profiler refresh failed. Nothing executed and no
    /// request id was consumed: restart the whole attempt on another
    /// endpoint, or fall back to [`OffloadEngine::start_on`] (whose gate
    /// will short-circuit to a plain local decision).
    NoService,
    /// The suffix exchange failed after the prefix ran: fail the suffix
    /// over with [`OffloadEngine::failover_on`] or finish locally with
    /// [`OffloadEngine::complete_failed`].
    Failed(FailedAttempt),
}

/// Everything the engine tracks *per server*: the runtime profile
/// (bandwidth estimate + cached `k` + fault cooldown), the circuit
/// breaker, and the last `retry_after` hint the server's admission
/// control sent. Endpoint 0 always exists and is what the single-server
/// API (`start`, `profile()`, `breaker()`) operates on; cluster drivers
/// add more with [`OffloadEngine::add_endpoint`]. Keeping the state
/// per-endpoint is what makes one sick server unable to blind the client
/// to healthy ones: a probe failure on server A trips only A's breaker
/// and only A's cooldown.
#[derive(Debug)]
struct Endpoint {
    profile: RuntimeProfile,
    breaker: CircuitBreaker,
    /// Transition count already surfaced through telemetry, so each
    /// finish span reports only the delta since the previous request.
    breaker_reported: u64,
    /// The drain estimate from this server's last admission shed; the
    /// next retry backoff against this endpoint uses it (once) instead of
    /// the exponential schedule.
    retry_after_hint: Option<Duration>,
}

impl Endpoint {
    fn new(config: &EngineConfig) -> Self {
        // Half-open probes are paced to the runtime profiler: one wire
        // attempt per profiler period while recovering.
        Endpoint {
            profile: RuntimeProfile::new(config.bandwidth_window, config.profiler_period),
            breaker: CircuitBreaker::new(
                config.breaker_failure_threshold,
                config.breaker_open_period,
                config.profiler_period,
            ),
            breaker_reported: 0,
            retry_after_hint: None,
        }
    }
}

/// The per-client LoADPart runtime: solver + policy + per-endpoint
/// profiles/breakers + partition cache, driving one request at a time over
/// whatever device/transport/server backends the driver supplies.
#[derive(Debug)]
pub struct OffloadEngine {
    graph: Arc<ComputationGraph>,
    /// Shared by every engine a driver builds for one graph and one pair
    /// of model bundles.
    solver: Arc<PartitionSolver>,
    policy: Box<dyn PartitionPolicy>,
    config: EngineConfig,
    endpoints: Vec<Endpoint>,
    device_cache: PartitionCache,
    rng: StdRng,
    next_id: u64,
    client: usize,
    telemetry: Telemetry,
    metrics: Option<EngineMetrics>,
    /// Quantized transmission series per narrow precision, built lazily
    /// the first time a policy negotiates that width (indexed in
    /// [`Precision::NARROW`] order). Fp32 stays on the partition's raw
    /// byte count, so fp32-only runs never touch this.
    quant_tx: [Option<Vec<u64>>; 3],
    /// splitmix64 state for backoff jitter — deliberately separate from
    /// `rng` so jitter draws never perturb measurement sampling (and thus
    /// never change logical records).
    backoff_state: u64,
}

impl OffloadEngine {
    /// Assembles an engine for one DNN on one client, from a [`Policy`]
    /// enum spec. The policy is wrapped in a [`MemoPolicy`], so
    /// back-to-back requests with an unchanged quantized `(bandwidth, k)`
    /// skip the decision scan — safe because every enum variant is a pure
    /// function of that key.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations with [`ConfigError`].
    pub fn new(
        graph: impl Into<Arc<ComputationGraph>>,
        policy: Policy,
        user_models: &PredictionModels,
        edge_models: &PredictionModels,
        client: usize,
        config: EngineConfig,
    ) -> Result<Self, ConfigError> {
        let graph: Arc<ComputationGraph> = graph.into();
        let solver = Arc::new(PartitionSolver::new(&graph, user_models, edge_models));
        Self::with_solver(graph, policy, solver, client, config)
    }

    /// [`OffloadEngine::new`] around a solver already built for `graph`,
    /// so a driver running many clients of one graph builds it once.
    pub(crate) fn with_solver(
        graph: Arc<ComputationGraph>,
        policy: Policy,
        solver: Arc<PartitionSolver>,
        client: usize,
        config: EngineConfig,
    ) -> Result<Self, ConfigError> {
        let memo = Box::new(MemoPolicy::new(policy.build()));
        Self::assemble(graph, memo, solver, client, config)
    }

    /// Assembles an engine around an externally supplied
    /// [`PartitionPolicy`] — the entry point for stateful policies such as
    /// the online-learning bandit. No memo wrapper is applied here (only
    /// [`OffloadEngine::new`] applies one): a learning policy's decision
    /// may change between identical `(bandwidth, k)` keys, so memoizing it
    /// would freeze learning. Wrap in [`MemoPolicy`] yourself if the
    /// policy is pure.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations with [`ConfigError`].
    pub fn with_policy(
        graph: impl Into<Arc<ComputationGraph>>,
        policy: Box<dyn PartitionPolicy>,
        user_models: &PredictionModels,
        edge_models: &PredictionModels,
        client: usize,
        config: EngineConfig,
    ) -> Result<Self, ConfigError> {
        let graph: Arc<ComputationGraph> = graph.into();
        let solver = Arc::new(PartitionSolver::new(&graph, user_models, edge_models));
        Self::assemble(graph, policy, solver, client, config)
    }

    fn assemble(
        graph: Arc<ComputationGraph>,
        policy: Box<dyn PartitionPolicy>,
        solver: Arc<PartitionSolver>,
        client: usize,
        config: EngineConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        assert_eq!(solver.len(), graph.len(), "solver of another graph");
        let rng = StdRng::seed_from_u64(config.seed);
        let endpoints = vec![Endpoint::new(&config)];
        let backoff_state = config.seed ^ 0xB0FF_B0FF_B0FF_B0FF;
        Ok(Self {
            graph,
            solver,
            policy,
            config,
            endpoints,
            device_cache: PartitionCache::new(),
            rng,
            next_id: 0,
            client,
            telemetry: Telemetry::disabled(),
            metrics: None,
            quant_tx: [None, None, None],
            backoff_state,
        })
    }

    /// Registers one more server endpoint (its own [`RuntimeProfile`] and
    /// [`CircuitBreaker`], both fresh) and returns its id. Endpoint 0 is
    /// created by the constructor; cluster drivers call this once per
    /// extra server and pass the id to the `*_on` request entry points.
    pub fn add_endpoint(&mut self) -> usize {
        self.endpoints.push(Endpoint::new(&self.config));
        self.endpoints.len() - 1
    }

    /// How many server endpoints this engine tracks (≥ 1).
    #[must_use]
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// How many requests were answered from the decision memo instead of
    /// re-running the decision scan (0 unless the installed policy carries
    /// a [`MemoPolicy`] layer).
    #[must_use]
    pub fn decision_memo_hits(&self) -> u64 {
        self.policy.memo_hits()
    }

    /// The installed decision policy (for introspecting learner state in
    /// drivers and tests).
    #[must_use]
    pub fn policy(&self) -> &dyn PartitionPolicy {
        self.policy.as_ref()
    }

    /// Runs the policy feedback hook for a settled record. Guarded: the
    /// hook only fires when the installed policy actually made the
    /// decision (not the degraded local path) and the record is a real
    /// end-to-end measurement — fallback-local and admission-shed records
    /// carry synthetic local-completion timings that would poison an
    /// online learner's wire-timing estimates.
    fn feedback(&mut self, policy_decided: bool, record: &InferenceRecord) {
        if policy_decided && !record.fallback_local && !record.rejected {
            self.policy.observe(record);
        }
    }

    /// Installs an observability handle. Instrument handles are registered
    /// here, off the per-request path; with [`Telemetry::disabled`]
    /// (the default) the request path performs no telemetry work and no
    /// allocation.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = telemetry.registry().map(EngineMetrics::register);
        self.telemetry = telemetry;
    }

    /// The installed observability handle (disabled by default).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Wire bytes for the cut at `p` at `precision`: the partition's raw
    /// fp32 bytes, or the packed size from the lazily built quantized
    /// series (scale headers included).
    fn wire_upload_bytes(&mut self, p: usize, precision: Precision, raw: u64) -> u64 {
        let Some(idx) = Precision::NARROW.iter().position(|&q| q == precision) else {
            return raw;
        };
        let series = self.quant_tx[idx]
            .get_or_insert_with(|| quantized_transmission_series(&self.graph, precision));
        series[p]
    }

    /// Builds and emits one span event for `record`. The event is all
    /// scalars; when no sink is installed this is a single branch.
    fn emit_span(
        &self,
        record: &InferenceRecord,
        kind: SpanKind,
        at: SimTime,
        duration: SimDuration,
        bytes: u64,
    ) {
        if !self.telemetry.traces() {
            return;
        }
        self.telemetry.emit(SpanEvent {
            client: record.client,
            request_id: record.request_id,
            kind,
            at,
            duration,
            p: record.p,
            k: record.k_used,
            bandwidth_mbps: record.bandwidth_est_mbps,
            bytes,
            fallback_local: record.fallback_local,
        });
    }

    /// Telemetry tail shared by every way a request can settle: bumps the
    /// outcome counters, surfaces the finishing endpoint's breaker
    /// activity, and emits the `Finish` span.
    fn observe_finish(&mut self, endpoint: usize, record: &InferenceRecord) {
        if let Some(m) = &self.metrics {
            if record.fallback_local {
                m.fallbacks.incr(1);
            } else if record.rejected {
                m.rejected.incr(1);
            } else if record.offloaded() {
                m.offloaded.incr(1);
            } else {
                m.local.incr(1);
            }
            if record.retries > 0 {
                m.retries.incr(u64::from(record.retries));
            }
            m.breaker_state
                .set(match self.endpoints[endpoint].breaker.state() {
                    BreakerState::Closed => 0.0,
                    BreakerState::HalfOpen => 1.0,
                    BreakerState::Open => 2.0,
                });
        }
        let transitions = self.endpoints[endpoint].breaker.transitions();
        let delta = transitions - self.endpoints[endpoint].breaker_reported;
        if delta > 0 {
            self.endpoints[endpoint].breaker_reported = transitions;
            if let Some(m) = &self.metrics {
                m.breaker_transitions.incr(delta);
            }
            // The span's byte field carries the transition delta — spans
            // are all-scalar by design and this request caused exactly
            // those transitions.
            self.emit_span(
                record,
                SpanKind::Breaker,
                record.start,
                SimDuration::ZERO,
                delta,
            );
        }
        self.emit_span(
            record,
            SpanKind::Finish,
            record.start,
            record.total,
            record.uploaded_bytes,
        );
    }

    /// The client-side circuit breaker of endpoint 0 (the single-server
    /// path; for inspecting state in drivers and tests).
    #[must_use]
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.endpoints[0].breaker
    }

    /// The circuit breaker guarding `endpoint`.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered.
    #[must_use]
    pub fn breaker_of(&self, endpoint: usize) -> &CircuitBreaker {
        &self.endpoints[endpoint].breaker
    }

    /// Mutable access to the breaker guarding `endpoint` (cluster drivers
    /// and tests scripting breaker states directly).
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered.
    #[must_use]
    pub fn breaker_of_mut(&mut self, endpoint: usize) -> &mut CircuitBreaker {
        &mut self.endpoints[endpoint].breaker
    }

    /// The solver (for inspecting predictions).
    #[must_use]
    pub fn solver(&self) -> &PartitionSolver {
        &self.solver
    }

    /// The graph this engine serves.
    #[must_use]
    pub fn graph(&self) -> &ComputationGraph {
        &self.graph
    }

    /// The device-side partition cache.
    #[must_use]
    pub fn device_cache(&self) -> &PartitionCache {
        &self.device_cache
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The runtime profile of endpoint 0 (bandwidth estimate + cached `k`;
    /// the single-server path).
    #[must_use]
    pub fn profile(&self) -> &RuntimeProfile {
        &self.endpoints[0].profile
    }

    /// Mutable endpoint-0 profile access (drivers that inject bandwidth).
    #[must_use]
    pub fn profile_mut(&mut self) -> &mut RuntimeProfile {
        &mut self.endpoints[0].profile
    }

    /// The runtime profile tracking `endpoint`.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered.
    #[must_use]
    pub fn profile_of(&self, endpoint: usize) -> &RuntimeProfile {
        &self.endpoints[endpoint].profile
    }

    /// Mutable access to the profile tracking `endpoint` (cluster drivers
    /// injecting per-link bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered.
    #[must_use]
    pub fn profile_of_mut(&mut self, endpoint: usize) -> &mut RuntimeProfile {
        &mut self.endpoints[endpoint].profile
    }

    /// Fetches `k` from the server out of cadence and caches it — the
    /// explicit runtime-profiler action. Transient wire failures are
    /// retried up to [`EngineConfig::max_retries`] times with exponential
    /// backoff before the error surfaces.
    ///
    /// # Errors
    ///
    /// Propagates backend failures once the retry budget is exhausted (or
    /// immediately on a non-transient failure such as
    /// [`ProtocolError::Disconnected`]).
    pub fn refresh_k<S: ServerBackend + ?Sized>(
        &mut self,
        now: SimTime,
        backend: &mut S,
    ) -> Result<f64, ProtocolError> {
        let mut attempt = 0u32;
        let mut spent = Duration::ZERO;
        loop {
            match backend.query_k(now) {
                Ok(k) => {
                    self.endpoints[0].profile.set_k(k);
                    return Ok(k);
                }
                Err(e) if e.is_transient() && attempt < self.config.max_retries => {
                    attempt += 1;
                    if !self.backoff_sleep(0, attempt, &mut spent) {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sleeps before retry `attempt` (1-based) against `endpoint` and
    /// charges the sleep to the request's retry budget. Wall-clock, not
    /// logical time: the wire the retries go over is real.
    ///
    /// The base wait is the endpoint's last `Rejected{retry_after}` hint
    /// when one is pending (consumed here), otherwise the exponential
    /// schedule; [`EngineConfig::retry_jitter`] spreads it over
    /// `[0.5, 1.5)x` from the deterministic side stream. Returns `false` —
    /// without sleeping — when the jittered wait would push the request
    /// past [`EngineConfig::retry_budget`]; the caller must then stop
    /// retrying. The budget check uses the *planned* wait, so replays with
    /// the same seed truncate retry loops at exactly the same attempt.
    fn backoff_sleep(&mut self, endpoint: usize, attempt: u32, spent: &mut Duration) -> bool {
        let base = self.endpoints[endpoint]
            .retry_after_hint
            .take()
            .unwrap_or_else(|| self.config.backoff_for(attempt));
        let wait = if self.config.retry_jitter {
            seeded_jitter(base, &mut self.backoff_state)
        } else {
            base
        };
        let budget = self.config.retry_budget;
        if !budget.is_zero() && *spent + wait > budget {
            return false;
        }
        *spent += wait;
        if wait > Duration::ZERO {
            std::thread::sleep(wait);
        }
        true
    }

    /// Marks `endpoint` faulted at `at`: cooldown keeps decisions local
    /// and the wire quiet, and the failure counts toward its breaker.
    fn fault_endpoint(&mut self, endpoint: usize, at: SimTime) {
        let ep = &mut self.endpoints[endpoint];
        ep.profile.enter_cooldown(at, self.config.fault_cooldown);
        ep.breaker.record_failure(at);
    }

    /// Remembers the drain estimate an admission shed carried, so the next
    /// backoff against this endpoint waits what the server asked for
    /// instead of the blind exponential schedule. Capped at one second —
    /// a confused server must not be able to stall a client arbitrarily.
    fn remember_retry_after(&mut self, endpoint: usize, retry_after: SimDuration) {
        let hint = Duration::from_secs_f64(retry_after.as_secs_f64().min(1.0));
        self.endpoints[endpoint].retry_after_hint = Some(hint);
    }

    /// Starts one inference request at `at`: profiler refresh, decision,
    /// prefix, upload, suffix hand-off. Returns a completed record, or a
    /// [`PendingRequest`] when the backend queued the suffix.
    ///
    /// Wire faults never abort the request. A refresh (probe / `k` fetch)
    /// or suffix exchange that keeps failing after
    /// [`EngineConfig::max_retries`] retries degrades the request to local
    /// execution — the device runs the remaining layers itself, the record
    /// comes back with [`InferenceRecord::fallback_local`] set, and the
    /// profile enters a [`EngineConfig::fault_cooldown`] during which
    /// decisions stay local and the wire is left alone. Once the cooldown
    /// expires, the next due refresh probes the wire again and a success
    /// restores offloading.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the upload leg (no current
    /// transport fails there; wire payloads ride inside the offload
    /// request frame).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the backend's current simulated time.
    pub fn start<D, S, T>(
        &mut self,
        at: SimTime,
        device: &mut D,
        backend: &mut S,
        transport: &mut T,
    ) -> Result<Outcome, ProtocolError>
    where
        D: DeviceExecutor + ?Sized,
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        self.start_on(0, at, device, backend, transport)
    }

    /// [`OffloadEngine::start`] against a specific endpoint's profile,
    /// breaker and cooldown. Single-server semantics: any wire failure
    /// degrades this request to local completion on the device.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the upload leg.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered or `at` is before the
    /// backend's current simulated time.
    pub fn start_on<D, S, T>(
        &mut self,
        endpoint: usize,
        at: SimTime,
        device: &mut D,
        backend: &mut S,
        transport: &mut T,
    ) -> Result<Outcome, ProtocolError>
    where
        D: DeviceExecutor + ?Sized,
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        match self.start_inner(endpoint, at, false, device, backend, transport)? {
            AttemptOutcome::Complete(record) => Ok(Outcome::Complete(record)),
            AttemptOutcome::Deferred(pending) => Ok(Outcome::Deferred(pending)),
            // Single-server mode degrades a failed suffix in place.
            AttemptOutcome::Failed(failed) => {
                Ok(Outcome::Complete(self.complete_failed(failed, device)))
            }
            AttemptOutcome::NoService => {
                unreachable!("single-server mode decides locally instead of refusing service")
            }
        }
    }

    /// Starts one inference attempt against `endpoint` with *cluster*
    /// semantics: instead of degrading to local completion, wire failures
    /// surface as [`AttemptOutcome::NoService`] (nothing ran — retry the
    /// whole attempt elsewhere) or [`AttemptOutcome::Failed`] (the prefix
    /// ran at a fixed `p` — fail the suffix over with
    /// [`OffloadEngine::failover_on`]). The failing endpoint's breaker and
    /// cooldown are recorded exactly as in single-server mode.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the upload leg.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered or `at` is before the
    /// backend's current simulated time.
    pub fn start_attempt_on<D, S, T>(
        &mut self,
        endpoint: usize,
        at: SimTime,
        device: &mut D,
        backend: &mut S,
        transport: &mut T,
    ) -> Result<AttemptOutcome, ProtocolError>
    where
        D: DeviceExecutor + ?Sized,
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        self.start_inner(endpoint, at, true, device, backend, transport)
    }

    /// The shared request pipeline. `failfast` selects cluster semantics
    /// (a blocked or unreachable endpoint is [`AttemptOutcome::NoService`])
    /// over single-server semantics (decide locally instead). A failed
    /// suffix comes back as [`AttemptOutcome::Failed`] either way.
    fn start_inner<D, S, T>(
        &mut self,
        endpoint: usize,
        at: SimTime,
        failfast: bool,
        device: &mut D,
        backend: &mut S,
        transport: &mut T,
    ) -> Result<AttemptOutcome, ProtocolError>
    where
        D: DeviceExecutor + ?Sized,
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        backend.advance(at);
        let cooling = self.endpoints[endpoint].profile.in_cooldown(at);
        // The breaker gates all wire traffic. A fault cooldown already
        // keeps the wire quiet, so it does not consume the half-open
        // probe slot.
        let gate = if cooling {
            WireGate::Block
        } else {
            self.endpoints[endpoint].breaker.gate(at)
        };
        let blocked = gate == WireGate::Block;
        let probing = gate == WireGate::Probe;
        if failfast && blocked {
            // Cluster mode never burns a blocked endpoint's request on a
            // guaranteed-local decision; the driver reroutes it.
            return Ok(AttemptOutcome::NoService);
        }
        let mut retries = 0u32;
        let mut spent = Duration::ZERO;
        // True only when the wire failed *during this request* — requests
        // that stay local because an earlier request tripped the cooldown
        // are ordinary local decisions, not fallbacks.
        let mut faulted = false;
        if !blocked {
            let mut attempt = 0u32;
            loop {
                let ep = &mut self.endpoints[endpoint];
                // The half-open probe must actually touch the wire, so it
                // bypasses the profiler cadence.
                let refreshed = if probing {
                    ep.profile
                        .refresh_now(at, transport, backend, &mut self.rng, &self.telemetry)
                } else {
                    ep.profile
                        .refresh(at, transport, backend, &mut self.rng, &self.telemetry)
                };
                match refreshed {
                    Ok(()) => {
                        if probing {
                            // The half-open probe succeeded: close the
                            // breaker (the refreshed `k` keeps Algorithm 1
                            // load-aware, so re-entry is safe).
                            self.endpoints[endpoint].breaker.record_success(at);
                        }
                        break;
                    }
                    Err(e) if e.is_transient() && attempt < self.config.max_retries => {
                        attempt += 1;
                        retries += 1;
                        if !self.backoff_sleep(endpoint, attempt, &mut spent) {
                            // Retry budget exhausted: same degradation as
                            // a non-transient failure.
                            self.fault_endpoint(endpoint, at);
                            faulted = true;
                            break;
                        }
                    }
                    Err(_) => {
                        self.fault_endpoint(endpoint, at);
                        faulted = true;
                        break;
                    }
                }
            }
        }
        if failfast && faulted {
            // Nothing ran and no request id was consumed; the driver
            // restarts the attempt on the next-best endpoint.
            return Ok(AttemptOutcome::NoService);
        }
        backend.monitor(at);
        let n = self.graph.len();
        let bandwidth = self.endpoints[endpoint].profile.bandwidth_mbps(at);
        let k = self.endpoints[endpoint].profile.k();
        // Wall-clock spent actually deciding; memo hits (detected via the
        // policy's hit counter) skip the timer observation.
        let mut decide_secs: Option<f64> = None;
        let mut memo_hit = false;
        // True only on the healthy arm, where the installed policy made
        // the call — the degraded path below bypasses it entirely.
        let mut policy_decided = false;
        let decision = match bandwidth {
            Some(bw) if !faulted && !blocked => {
                policy_decided = true;
                let hits_before = self.policy.memo_hits();
                let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
                let ctx = PolicyContext {
                    solver: &self.solver,
                    bandwidth_mbps: bw,
                    k,
                    now: at,
                };
                let d = self.policy.decide(&ctx);
                memo_hit = self.policy.memo_hits() > hits_before;
                if !memo_hit {
                    decide_secs = started.map(|s| s.elapsed().as_secs_f64());
                }
                d
            }
            // Degraded: everything runs on the device. `latency_at(n, ..)`
            // ignores the wire terms, so a placeholder bandwidth is fine
            // even when the very first refresh failed and no estimate
            // exists yet.
            _ => {
                let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
                let d = self
                    .solver
                    .latency_at(n, bandwidth.unwrap_or(1.0), k.max(1.0));
                decide_secs = started.map(|s| s.elapsed().as_secs_f64());
                d
            }
        };
        let p = decision.p;
        let precision = decision.precision;

        let (partition, cache_hit) = self
            .device_cache
            .get_or_partition(&self.graph, p)
            .expect("decision p in range");

        if let Some(m) = &self.metrics {
            m.requests.incr(1);
            if let Some(secs) = decide_secs {
                m.decision_seconds.observe(secs);
            }
            if memo_hit {
                m.decision_memo_hits.incr(1);
            }
            if cache_hit {
                m.cache_hits.incr(1);
            } else {
                m.cache_misses.incr(1);
            }
            m.k.set(k);
            m.bandwidth_mbps.set(bandwidth.unwrap_or(0.0));
            m.partition_point.set(p as f64);
            m.precision_decisions[precision.wire() as usize].incr(1);
        }

        let device_time = device.execute_prefix(&self.graph, p, &mut self.rng);
        if let Some(m) = &self.metrics {
            m.device_seconds.observe(device_time.as_secs_f64());
        }
        let request_id = self.next_id;
        self.next_id += 1;
        let mut record = InferenceRecord {
            request_id,
            client: self.client,
            start: at,
            p,
            k_used: k,
            bandwidth_est_mbps: bandwidth.unwrap_or(0.0),
            predicted: decision.predicted,
            device: device_time,
            upload: SimDuration::ZERO,
            precision,
            uploaded_bytes: 0,
            raw_bytes: 0,
            server: SimDuration::ZERO,
            download: SimDuration::ZERO,
            total: device_time,
            cache_hit,
            fallback_local: faulted,
            rejected: false,
            retries,
        };
        self.emit_span(&record, SpanKind::Decide, at, SimDuration::ZERO, 0);
        self.emit_span(&record, SpanKind::DevicePrefix, at, device_time, 0);
        if p == n {
            // Local inference: nothing leaves the device.
            self.feedback(policy_decided, &record);
            self.observe_finish(endpoint, &record);
            return Ok(AttemptOutcome::Complete(record));
        }

        let raw_bytes = partition.upload_bytes(&self.graph);
        let upload_bytes = self.wire_upload_bytes(p, precision, raw_bytes);
        let upload_start = at + device_time;
        if precision != Precision::Fp32 {
            // Quantization happens on-device between the prefix and the
            // upload. Nothing models its kernel cost yet (the device
            // executor samples only `L_1..L_p`), so the span is
            // instantaneous and carries only the bytes saved; the
            // kernel-cost term is ROADMAP item 1's open work.
            self.emit_span(
                &record,
                SpanKind::Quantize,
                upload_start,
                SimDuration::ZERO,
                raw_bytes.saturating_sub(upload_bytes),
            );
        }
        let upload_end = transport.upload(
            self.endpoints[endpoint].profile.probe_profiler_mut(),
            upload_bytes,
            upload_start,
            &mut self.rng,
        )?;
        record.upload = upload_end.since(upload_start);
        record.uploaded_bytes = upload_bytes;
        record.raw_bytes = raw_bytes;
        if let Some(m) = &self.metrics {
            m.upload_seconds.observe(record.upload.as_secs_f64());
            m.upload_bytes_raw.incr(raw_bytes);
            m.upload_bytes_sent.incr(upload_bytes);
        }
        self.emit_span(
            &record,
            SpanKind::Upload,
            upload_start,
            record.upload,
            upload_bytes,
        );

        Ok(self.offload_suffix(
            endpoint,
            record,
            at,
            upload_end,
            policy_decided,
            spent,
            backend,
            transport,
        ))
    }

    /// The offload tail of a first attempt and of a failover: hands the
    /// record's suffix to `endpoint` (retrying transient wire faults) and
    /// settles it, defers it, or returns [`AttemptOutcome::Failed`] for a
    /// wire fault or an admission shed. `breaker_at` is the instant the
    /// endpoint's breaker and cooldown record the outcome at;
    /// `policy_decided` gates the feedback hook at settle time.
    #[allow(clippy::too_many_arguments)]
    fn offload_suffix<S, T>(
        &mut self,
        endpoint: usize,
        mut record: InferenceRecord,
        breaker_at: SimTime,
        upload_end: SimTime,
        policy_decided: bool,
        mut spent: Duration,
        backend: &mut S,
        transport: &mut T,
    ) -> AttemptOutcome
    where
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        let req = SuffixRequest {
            request_id: record.request_id,
            p: record.p,
            precision: record.precision,
            upload_bytes: record.uploaded_bytes,
            arrive: upload_end,
            noise_seed: suffix_noise_seed(self.config.seed, self.client, record.request_id),
        };
        let mut attempt = 0u32;
        let retry_after = loop {
            match backend.execute_suffix(&self.graph, &req) {
                // A rejection is the server telling us it is overloaded:
                // never retried, counted toward the breaker.
                Ok(SuffixOutcome::Rejected { retry_after, k }) => {
                    // Pre-seed the profile with the server's own load
                    // factor so re-entry decisions are load-aware
                    // immediately.
                    self.endpoints[endpoint].profile.set_k(k);
                    self.endpoints[endpoint].breaker.record_failure(breaker_at);
                    self.remember_retry_after(endpoint, retry_after);
                    record.rejected = true;
                    self.emit_span(&record, SpanKind::Rejected, upload_end, retry_after, 0);
                    break Some(retry_after);
                }
                Ok(SuffixOutcome::Done { completion }) => {
                    self.endpoints[endpoint].breaker.record_success(breaker_at);
                    return AttemptOutcome::Complete(self.settle(
                        endpoint,
                        record,
                        upload_end,
                        completion,
                        policy_decided,
                        backend,
                        transport,
                    ));
                }
                Ok(SuffixOutcome::Pending { task }) => {
                    self.endpoints[endpoint].breaker.record_success(breaker_at);
                    return AttemptOutcome::Deferred(PendingRequest {
                        task,
                        arrive: upload_end,
                        record,
                        policy_decided,
                        endpoint,
                    });
                }
                Err(e) if e.is_transient() && attempt < self.config.max_retries => {
                    attempt += 1;
                    record.retries += 1;
                    if !self.backoff_sleep(endpoint, attempt, &mut spent) {
                        // Retry budget exhausted: same degradation as a
                        // non-transient failure.
                        self.fault_endpoint(endpoint, breaker_at);
                        record.fallback_local = true;
                        break None;
                    }
                }
                Err(_) => {
                    self.fault_endpoint(endpoint, breaker_at);
                    record.fallback_local = true;
                    break None;
                }
            }
        };
        AttemptOutcome::Failed(FailedAttempt {
            record,
            resume_at: upload_end,
            endpoint,
            retry_after,
            spent,
        })
    }

    /// Re-issues the suffix of a failed attempt on another endpoint: the
    /// partition point is fixed (the prefix already ran), so the crossing
    /// tensors are re-uploaded over the new endpoint's link and exactly
    /// the same `SuffixRequest` (same request id, same `p`) is handed to
    /// the new server — the request is neither duplicated nor dropped.
    /// On success the record settles as a genuine end-to-end measurement
    /// (the policy feedback hook is skipped: the decision context belonged
    /// to the original endpoint). On failure another [`FailedAttempt`]
    /// comes back for the driver to route further or complete locally.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the re-upload leg.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered.
    pub fn failover_on<S, T>(
        &mut self,
        endpoint: usize,
        failed: FailedAttempt,
        backend: &mut S,
        transport: &mut T,
    ) -> Result<AttemptOutcome, ProtocolError>
    where
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        let FailedAttempt {
            mut record,
            resume_at,
            spent,
            ..
        } = failed;
        backend.advance(resume_at);
        let cooling = self.endpoints[endpoint].profile.in_cooldown(resume_at);
        let gate = if cooling {
            WireGate::Block
        } else {
            self.endpoints[endpoint].breaker.gate(resume_at)
        };
        if gate == WireGate::Block {
            // Target unusable; hand the attempt back unchanged (flags
            // still describe the previous failure) for further routing.
            return Ok(AttemptOutcome::Failed(FailedAttempt {
                retry_after: None,
                record,
                resume_at,
                endpoint,
                spent,
            }));
        }
        // This attempt decides the record's fate anew.
        record.fallback_local = false;
        record.rejected = false;
        let upload_end = transport.upload(
            self.endpoints[endpoint].profile.probe_profiler_mut(),
            record.uploaded_bytes,
            resume_at,
            &mut self.rng,
        )?;
        record.upload += upload_end.since(resume_at);
        self.emit_span(
            &record,
            SpanKind::Upload,
            resume_at,
            upload_end.since(resume_at),
            record.uploaded_bytes,
        );
        Ok(self.offload_suffix(
            endpoint, record, resume_at, upload_end, false, spent, backend, transport,
        ))
    }

    /// Gives up on the wire for a failed attempt: the device re-executes
    /// the remaining layers itself. The record keeps the failure flags of
    /// the last attempt (`fallback_local` for wire faults, `rejected` for
    /// admission sheds).
    pub fn complete_failed<D: DeviceExecutor + ?Sized>(
        &mut self,
        failed: FailedAttempt,
        device: &mut D,
    ) -> InferenceRecord {
        self.complete_locally(failed.endpoint, failed.record, failed.resume_at, device)
    }

    /// Graceful degradation: the suffix exchange is lost (wire fault) or
    /// shed (admission control), so the device re-executes the remaining
    /// layers `L_{p+1}..L_n` itself, starting at the moment the engine
    /// gave up on the wire. The caller flags *why* on the record
    /// (`fallback_local` vs `rejected`) before handing it in.
    fn complete_locally<D: DeviceExecutor + ?Sized>(
        &mut self,
        endpoint: usize,
        mut record: InferenceRecord,
        resume_at: SimTime,
        device: &mut D,
    ) -> InferenceRecord {
        let local = device.execute_range(&self.graph, record.p, self.graph.len(), &mut self.rng);
        record.device += local;
        record.server = SimDuration::ZERO;
        record.download = SimDuration::ZERO;
        record.total = (resume_at + local).since(record.start);
        self.observe_finish(endpoint, &record);
        record
    }

    /// Completes a deferred request once the driver observed its
    /// completion time.
    pub fn finish<S, T>(
        &mut self,
        pending: PendingRequest,
        completion: SimTime,
        backend: &mut S,
        transport: &mut T,
    ) -> InferenceRecord
    where
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        self.settle(
            pending.endpoint,
            pending.record,
            pending.arrive,
            completion,
            pending.policy_decided,
            backend,
            transport,
        )
    }

    /// Runs one request to completion, blocking on the backend if it
    /// queues.
    ///
    /// # Errors
    ///
    /// Propagates transport/backend failures (wire runtimes only).
    pub fn run<D, S, T>(
        &mut self,
        at: SimTime,
        device: &mut D,
        backend: &mut S,
        transport: &mut T,
    ) -> Result<InferenceRecord, ProtocolError>
    where
        D: DeviceExecutor + ?Sized,
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        match self.start(at, device, backend, transport)? {
            Outcome::Complete(record) => Ok(record),
            Outcome::Deferred(pending) => {
                let completion = backend.wait(pending.task);
                Ok(self.finish(pending, completion, backend, transport))
            }
        }
    }

    /// Shared tail of every offloaded request: measure server time, feed
    /// the load tracker, optionally download the result.
    #[allow(clippy::too_many_arguments)]
    fn settle<S, T>(
        &mut self,
        endpoint: usize,
        mut record: InferenceRecord,
        arrive: SimTime,
        completion: SimTime,
        policy_decided: bool,
        backend: &mut S,
        transport: &mut T,
    ) -> InferenceRecord
    where
        S: ServerBackend + ?Sized,
        T: Transport + ?Sized,
    {
        let server = completion.since(arrive);
        record.server = server;
        // The tracker normalises against the *unscaled* model prediction
        // for this suffix — the §III-C observed/predicted ratio.
        let predicted = SimDuration::from_secs_f64(self.solver.suffix_edge_secs(record.p));
        backend.complete(completion, server, predicted);
        if let Some(m) = &self.metrics {
            m.server_seconds.observe(server.as_secs_f64());
        }
        self.emit_span(&record, SpanKind::ServerSuffix, arrive, server, 0);
        let mut end = completion;
        if self.config.model_download {
            let dl_end = transport.download(self.graph.output().size_bytes(), end, &mut self.rng);
            record.download = dl_end.since(end);
            end = dl_end;
        }
        record.total = end.since(record.start);
        self.feedback(policy_decided, &record);
        self.observe_finish(endpoint, &record);
        record
    }

    /// Runs the installed policy against `endpoint`'s current profile
    /// (its bandwidth estimate and cached `k`) without touching the wire.
    /// Cluster drivers call this once per candidate endpoint to rank the
    /// joint (server, p) decision; `None` until the endpoint has a
    /// bandwidth estimate.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was never registered.
    pub fn decide_on(
        &mut self,
        endpoint: usize,
        now: SimTime,
    ) -> Option<crate::algorithm::Decision> {
        let profile = &self.endpoints[endpoint].profile;
        let bandwidth = profile.bandwidth_mbps(now)?;
        let k = profile.k();
        let ctx = PolicyContext {
            solver: &self.solver,
            bandwidth_mbps: bandwidth,
            k,
            now,
        };
        Some(self.policy.decide(&ctx))
    }
}

//! Multi-server edge cluster: per-server profiles, joint (server, p)
//! decisions, breaker-driven failover, and the cluster chaos soak behind
//! `loadpart chaos --cluster`.
//!
//! The paper assumes a single edge server, so an open circuit breaker
//! used to mean "degenerate to pure-local" even when another server sat
//! idle. [`ClusterEngine`] extends Algorithm 1 to a *joint* (server, p)
//! decision: the [`OffloadEngine`] keeps one [`RuntimeProfile`] +
//! [`CircuitBreaker`](crate::engine::CircuitBreaker) per endpoint, and
//! every request ranks the reachable servers by the latency each one's
//! own profile (bandwidth estimate + cached `k`) predicts for its best
//! partition point. The policy itself is unchanged — any registered
//! [`PartitionPolicy`] slots in, so baselines and the bandit compare
//! cleanly across cluster sizes.
//!
//! Robustness semantics layered on top:
//!
//! * **per-server breakers** — an open breaker on server A reroutes to
//!   the next-best server instead of degrading locally; pure-local only
//!   happens when *every* endpoint is blocked;
//! * **health-checked readmission** — a probe-due (half-open) endpoint
//!   is routed first, so a recovered server is readmitted by the
//!   existing half-open probe path within a few profiler periods;
//! * **`Rejected{retry_after}`-aware selection** — a shed suspends the
//!   shedding server from routing for (a clamp of) its own drain
//!   estimate, while the request itself fails over immediately;
//! * **suffix failover** — a crash mid-suffix re-uploads the crossing
//!   tensors and re-issues *the same* request id and partition point on
//!   the next server ([`OffloadEngine::failover_on`]), so the request
//!   is neither duplicated nor dropped.
//!
//! [`cluster_chaos_run`] scripts a deterministic soak over N
//! heterogeneous servers (distinct background-load [`LoadEnv`] scripts,
//! bandwidths and suffix costs): a mid-soak outage on one server (its
//! links go dark behind an [`OutageSwitch`]) followed by a `k` spike on the
//! same server once it has recovered.

use crate::admission::AdmissionConfig;
use crate::chaos::ChaosServer;
use crate::emulator::{EmulatedLink, LinkSpec, OutageSwitch};
use crate::engine::backends::{SimulatedDevice, WireBackend, WireTransport};
use crate::engine::{
    check_bandwidth, AttemptOutcome, ConfigError, EngineConfig, InferenceRecord, OffloadEngine,
    Outcome, RuntimeProfile, WireGate,
};
use crate::policy::{build_named, PartitionPolicy};
use crate::protocol::ProtocolError;
use crate::telemetry::Telemetry;
use crate::threaded::{spawn_server_tuned, FrameChannel, LoadEnv, ServerFaultSpec, ServerTuning};
use crate::transport::{SocketServer, TcpFrameChannel};
use lp_graph::ComputationGraph;
use lp_hardware::{DeviceModel, NodeTimes};
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Longest a `Rejected{retry_after}` drain estimate may suspend a server
/// from routing — mirrors the engine's own backoff-hint clamp, so one
/// pathological estimate cannot starve a healthy server out of the plan.
const MAX_SUSPENSION_SECS: f64 = 1.0;

/// One server of a spawned cluster: its name, background-load script,
/// link bandwidth and serving knobs. Heterogeneity across specs is what
/// makes the joint (server, p) decision non-trivial.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Display name ("edge-a", …).
    pub name: String,
    /// Background load factor the server's [`LoadEnv`] starts at.
    pub base_k: f64,
    /// Client<->server link bandwidth (Mbps).
    pub bandwidth_mbps: f64,
    /// Wall-clock cost per admitted suffix ([`ServerTuning::suffix_cost`]).
    pub suffix_cost: std::time::Duration,
    /// Admission budget; `None` runs the server unbounded.
    pub admission: Option<AdmissionConfig>,
}

impl ServerSpec {
    /// A named server with the default admission budget and no wall-clock
    /// suffix cost.
    #[must_use]
    pub fn named(name: &str, base_k: f64, bandwidth_mbps: f64) -> Self {
        Self {
            name: name.to_string(),
            base_k,
            bandwidth_mbps,
            suffix_cost: std::time::Duration::ZERO,
            admission: Some(AdmissionConfig::default()),
        }
    }

    /// The canonical heterogeneous trio used by the chaos scenario and
    /// the CI smoke job: a fast lightly-loaded server, a mid one, and a
    /// slow loaded one. Algorithm 1 prefers `edge-a` until its load or
    /// reachability says otherwise — which is exactly what the scripted
    /// outage and spike then exercise.
    #[must_use]
    pub fn heterogeneous_trio() -> Vec<Self> {
        vec![
            Self::named("edge-a", 1.0, 10.0),
            Self::named("edge-b", 2.0, 8.0),
            Self::named("edge-c", 3.0, 6.0),
        ]
    }
}

/// Client-side routing state for one server: identity plus counters.
/// The server's [`RuntimeProfile`] itself lives inside the engine
/// ([`OffloadEngine::profile_of`]); this is the layer above it that the
/// router consults and the reports read.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStatus {
    /// Display name.
    pub name: String,
    /// Requests (initial attempts and failovers) routed to this server.
    pub attempts: u64,
    /// Requests this server completed remotely.
    pub served: u64,
    /// Attempts that failed here (shed, wire fault, or unusable).
    pub failed: u64,
    /// Routing suspension from the server's last `Rejected{retry_after}`;
    /// the server re-enters the plan once `now` passes this.
    pub suspended_until: Option<SimTime>,
}

/// The client-side registry of every server in the cluster: one
/// [`ServerStatus`] per endpoint, index-aligned with the engine's
/// per-endpoint [`RuntimeProfile`]s and breakers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterProfile {
    servers: Vec<ServerStatus>,
}

impl ClusterProfile {
    fn new(names: Vec<String>) -> Self {
        Self {
            servers: names
                .into_iter()
                .map(|name| ServerStatus {
                    name,
                    attempts: 0,
                    served: 0,
                    failed: 0,
                    suspended_until: None,
                })
                .collect(),
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the cluster has no servers (never true for a constructed
    /// [`ClusterEngine`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Per-server status, index-aligned with endpoint ids.
    #[must_use]
    pub fn servers(&self) -> &[ServerStatus] {
        &self.servers
    }

    /// Whether `server` is currently suspended from routing by a
    /// `Rejected{retry_after}` hint.
    #[must_use]
    pub fn suspended(&self, server: usize, now: SimTime) -> bool {
        self.servers[server]
            .suspended_until
            .is_some_and(|until| now < until)
    }
}

/// How one request was routed: which server finally served it remotely
/// (if any) and how many times it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// Endpoint that completed the request remotely; `None` when it
    /// finished on the device (local decision or full degradation).
    pub server: Option<usize>,
    /// Endpoints consulted (1 = first choice served it).
    pub attempts: u32,
    /// Reroutes after the first choice (failed-attempt restarts plus
    /// mid-suffix failovers).
    pub failovers: u32,
}

/// One server's connection material for [`ClusterEngine::new`].
pub struct ClusterLink {
    /// Display name.
    pub name: String,
    /// Initial link bandwidth estimate (Mbps), injected into the
    /// endpoint's profile so the first request can decide before the
    /// first probe.
    pub bandwidth_mbps: f64,
    /// The frame pipe to this server.
    pub conn: Box<dyn FrameChannel>,
}

impl std::fmt::Debug for ClusterLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterLink")
            .field("name", &self.name)
            .field("bandwidth_mbps", &self.bandwidth_mbps)
            .finish_non_exhaustive()
    }
}

/// The cluster driver: one [`OffloadEngine`] with an endpoint per
/// server, the frame channels to reach them, and the routing layer that
/// turns per-endpoint profiles + breakers into a joint (server, p)
/// decision with failover.
pub struct ClusterEngine {
    engine: OffloadEngine,
    conns: Vec<Box<dyn FrameChannel>>,
    profile: ClusterProfile,
    device_times: NodeTimes,
    failover: bool,
}

impl std::fmt::Debug for ClusterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("servers", &self.profile.len())
            .field("failover", &self.failover)
            .finish_non_exhaustive()
    }
}

impl ClusterEngine {
    /// Assembles a cluster driver over `links`. The policy decides the
    /// partition point per candidate server; the routing layer picks the
    /// server. Device-side layers cost time sampled from
    /// `device_model`'s node-time table (built here, once), so a degraded
    /// (pure-local) request pays the full local inference in logical time
    /// — which is what the failover-off baseline measures.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NoServers`] without links,
    /// [`ConfigError::NonPositiveBandwidth`] for a link bandwidth that is
    /// not positive (NaN included), plus whatever
    /// [`EngineConfig::validate`] rejects.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: impl Into<Arc<ComputationGraph>>,
        policy: Box<dyn PartitionPolicy>,
        user_models: &PredictionModels,
        edge_models: &PredictionModels,
        device_model: DeviceModel,
        client: usize,
        config: EngineConfig,
        links: Vec<ClusterLink>,
    ) -> Result<Self, ConfigError> {
        if links.is_empty() {
            return Err(ConfigError::NoServers);
        }
        for link in &links {
            check_bandwidth(link.bandwidth_mbps)?;
        }
        let mut engine =
            OffloadEngine::with_policy(graph, policy, user_models, edge_models, client, config)?;
        for _ in 1..links.len() {
            engine.add_endpoint();
        }
        let mut names = Vec::with_capacity(links.len());
        let mut conns = Vec::with_capacity(links.len());
        for (s, link) in links.into_iter().enumerate() {
            engine
                .profile_of_mut(s)
                .inject_bandwidth(link.bandwidth_mbps);
            names.push(link.name);
            conns.push(link.conn);
        }
        Ok(Self {
            device_times: device_model.node_times(engine.graph()),
            engine,
            conns,
            profile: ClusterProfile::new(names),
            failover: true,
        })
    }

    /// Enables or disables failover. Disabled, every request is pinned
    /// to endpoint 0 with single-server semantics (wire failures degrade
    /// to local completion) — the baseline failover is measured against.
    pub fn set_failover(&mut self, failover: bool) {
        self.failover = failover;
    }

    /// The underlying engine (per-endpoint profiles, breakers, config).
    #[must_use]
    pub fn engine(&self) -> &OffloadEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine (bandwidth injection,
    /// telemetry).
    pub fn engine_mut(&mut self) -> &mut OffloadEngine {
        &mut self.engine
    }

    /// The client-side server registry.
    #[must_use]
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// The runtime profile of one server (bandwidth estimate + `k`).
    #[must_use]
    pub fn server_profile(&self, server: usize) -> &RuntimeProfile {
        self.engine.profile_of(server)
    }

    /// The joint (server, p) routing order for a request at `now`:
    ///
    /// 1. endpoints whose half-open breaker is probe-due come first (by
    ///    index) — the request *is* the health check, which is what
    ///    readmits a recovered server;
    /// 2. then every passable endpoint, ranked by the end-to-end latency
    ///    the policy predicts from that endpoint's own profile
    ///    (bandwidth + `k`), ties broken by index.
    ///
    /// Suspended ([`ClusterProfile::suspended`]), cooling-down and
    /// breaker-blocked endpoints are excluded entirely. Ranking uses
    /// [`CircuitBreaker::peek`](crate::engine::CircuitBreaker::peek), so
    /// an unselected half-open endpoint keeps its probe slot.
    pub fn route_plan(&mut self, now: SimTime) -> Vec<usize> {
        let n = self.engine.endpoint_count();
        let mut plan = Vec::new();
        let mut ranked: Vec<(f64, usize)> = Vec::new();
        for s in 0..n {
            if self.profile.suspended(s, now) || self.engine.profile_of(s).in_cooldown(now) {
                continue;
            }
            match self.engine.breaker_of(s).peek(now) {
                WireGate::Block => {}
                WireGate::Probe => plan.push(s),
                WireGate::Pass => {
                    let cost = self
                        .engine
                        .decide_on(s, now)
                        .map_or(f64::INFINITY, |d| d.predicted.as_secs_f64());
                    ranked.push((cost, s));
                }
            }
        }
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        plan.extend(ranked.into_iter().map(|(_, s)| s));
        plan
    }

    /// Runs one request at `now` through the cluster: tries the route
    /// plan in order, restarting on the next candidate while nothing has
    /// run ([`AttemptOutcome::NoService`]) and failing the suffix over
    /// once the prefix has ([`AttemptOutcome::Failed`]). Local
    /// completion happens only when every endpoint was consulted and
    /// none could serve (or, with failover disabled, endpoint 0 fails) —
    /// every request completes either way.
    ///
    /// # Errors
    ///
    /// Propagates transport failures the engine itself could not absorb.
    pub fn infer(&mut self, now: SimTime) -> Result<(InferenceRecord, RouteInfo), ProtocolError> {
        if !self.failover {
            return self.infer_pinned(now);
        }
        let plan = self.route_plan(now);
        let mut info = RouteInfo {
            server: None,
            attempts: 0,
            failovers: 0,
        };
        let mut tried: Vec<usize> = Vec::new();
        let mut outcome: Option<(usize, AttemptOutcome)> = None;
        for &s in &plan {
            tried.push(s);
            info.attempts += 1;
            self.profile.servers[s].attempts += 1;
            // One cluster-semantics attempt against `s`.
            let attempt = self.on_wire(s, |engine, device, backend, transport| {
                engine.start_attempt_on(s, now, device, backend, transport)
            })?;
            match attempt {
                AttemptOutcome::NoService => {
                    // Nothing ran and no request id was consumed:
                    // restart the whole attempt on the next candidate.
                    self.profile.servers[s].failed += 1;
                    info.failovers += 1;
                }
                other => {
                    outcome = Some((s, other));
                    break;
                }
            }
        }
        let record = loop {
            match outcome.take() {
                None => {
                    // Every routable endpoint refused before anything
                    // ran (or none was routable). Run the single-server
                    // path on the least-bad endpoint: a blocked gate
                    // degrades to an ordinary local decision — the
                    // "pure-local only when every breaker is open" arm.
                    let fallback = self.local_fallback(&tried, now);
                    self.profile.servers[fallback].attempts += 1;
                    info.attempts += 1;
                    let record = self.run_single(fallback, now)?;
                    if served_remotely(&record) {
                        info.server = Some(fallback);
                        self.profile.servers[fallback].served += 1;
                    }
                    break record;
                }
                Some((s, AttemptOutcome::Complete(record))) => {
                    if served_remotely(&record) {
                        info.server = Some(s);
                        self.profile.servers[s].served += 1;
                    }
                    break record;
                }
                Some((s, AttemptOutcome::Failed(failed))) => {
                    self.profile.servers[s].failed += 1;
                    if let Some(after) = failed.retry_after() {
                        // Rejected{retry_after}: keep routing traffic
                        // away from the shedding server while its
                        // backlog drains (clamped, so a pathological
                        // estimate cannot starve it out of the plan).
                        let pause = SimDuration::from_secs_f64(
                            after.as_secs_f64().min(MAX_SUSPENSION_SECS),
                        );
                        self.profile.servers[s].suspended_until = Some(now + pause);
                    }
                    match plan.iter().copied().find(|c| !tried.contains(c)) {
                        Some(next) => {
                            tried.push(next);
                            info.attempts += 1;
                            info.failovers += 1;
                            self.profile.servers[next].attempts += 1;
                            // Same request id, same `p`, on `next`.
                            let out = self.on_wire(next, |engine, _, backend, transport| {
                                engine.failover_on(next, failed, backend, transport)
                            })?;
                            outcome = Some((next, out));
                        }
                        None => {
                            // Out of servers: the device finishes the
                            // remaining layers itself.
                            let mut device = SimulatedDevice {
                                times: &self.device_times,
                            };
                            break self.engine.complete_failed(failed, &mut device);
                        }
                    }
                }
                Some((_, AttemptOutcome::Deferred(_) | AttemptOutcome::NoService)) => {
                    unreachable!("wire backends never defer and failover never returns NoService")
                }
            }
        };
        Ok((record, info))
    }

    /// The failover-off baseline: endpoint 0, single-server semantics.
    fn infer_pinned(
        &mut self,
        now: SimTime,
    ) -> Result<(InferenceRecord, RouteInfo), ProtocolError> {
        self.profile.servers[0].attempts += 1;
        let record = self.run_single(0, now)?;
        let mut info = RouteInfo {
            server: None,
            attempts: 1,
            failovers: 0,
        };
        if served_remotely(&record) {
            info.server = Some(0);
            self.profile.servers[0].served += 1;
        } else if record.fallback_local || record.rejected {
            self.profile.servers[0].failed += 1;
        }
        Ok((record, info))
    }

    /// Runs `f` on the engine with the device and the wire backend and
    /// transport over endpoint `s`'s connection.
    fn on_wire<R>(
        &mut self,
        s: usize,
        f: impl FnOnce(
            &mut OffloadEngine,
            &mut SimulatedDevice<'_>,
            &mut WireBackend<'_, dyn FrameChannel>,
            &mut WireTransport<'_, dyn FrameChannel>,
        ) -> R,
    ) -> R {
        let deadline = self.engine.config().io_timeout;
        let conn: &dyn FrameChannel = &*self.conns[s];
        let mut device = SimulatedDevice {
            times: &self.device_times,
        };
        let mut backend = WireBackend {
            server: conn,
            deadline,
        };
        let mut transport = WireTransport {
            server: conn,
            deadline,
        };
        f(&mut self.engine, &mut device, &mut backend, &mut transport)
    }

    /// Single-server semantics against `s`: wire failures degrade to
    /// local completion inside the engine.
    fn run_single(&mut self, s: usize, now: SimTime) -> Result<InferenceRecord, ProtocolError> {
        let outcome = self.on_wire(s, |engine, device, backend, transport| {
            engine.start_on(s, now, device, backend, transport)
        })?;
        match outcome {
            Outcome::Complete(record) => Ok(record),
            Outcome::Deferred(_) => unreachable!("wire backends never defer"),
        }
    }

    /// The endpoint the all-refused fallback runs on: prefer a healthy
    /// endpoint that was only excluded by a routing suspension (soonest
    /// expiry first — its server sheds again at worst), else the first
    /// endpoint already tried (blocked, so the gate decides locally).
    fn local_fallback(&self, tried: &[usize], now: SimTime) -> usize {
        let n = self.engine.endpoint_count();
        let mut best: Option<(SimTime, usize)> = None;
        for s in 0..n {
            if tried.contains(&s)
                || self.engine.profile_of(s).in_cooldown(now)
                || self.engine.breaker_of(s).peek(now) == WireGate::Block
            {
                continue;
            }
            let until = self.profile.servers[s].suspended_until.unwrap_or(now);
            if best.is_none_or(|(b, _)| until < b) {
                best = Some((until, s));
            }
        }
        best.map(|(_, s)| s)
            .or_else(|| tried.first().copied())
            .unwrap_or(0)
    }
}

/// Whether a record represents a request the cluster actually served
/// remotely (vs a local decision, a shed, or a degraded fallback).
fn served_remotely(record: &InferenceRecord) -> bool {
    record.offloaded() && !record.fallback_local && !record.rejected
}

/// How chaos clients reach the cluster.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ClusterTransport {
    /// In-process channel sessions, one spawned server per spec.
    #[default]
    Channel,
    /// Loopback TCP through a [`SocketServer`] per spawned server.
    Tcp,
    /// Already-running `loadpart serve` processes at these addresses
    /// (index-aligned with the specs). The harness cannot script a
    /// remote server's `LoadEnv`, so the `k` spike is skipped; the
    /// outage is still exercised (it is client-side link gating).
    Remote(Vec<String>),
}

impl ClusterTransport {
    /// Short name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Channel => "channel",
            Self::Tcp => "tcp",
            Self::Remote(_) => "remote",
        }
    }
}

/// The scripted cluster chaos timeline: a heterogeneous server fleet, a
/// mid-soak outage on one server (links dark, then restored), and a
/// later `k` spike on a (by default the same, recovered) server.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterChaosConfig {
    /// The fleet, index-aligned with endpoints.
    pub servers: Vec<ServerSpec>,
    /// Number of concurrent clients (strict turn-taking, so the soak is
    /// deterministic).
    pub n_clients: usize,
    /// Rounds; each client issues one inference per round.
    pub rounds: usize,
    /// Logical time between a client's requests.
    pub request_period: SimDuration,
    /// Which server's links go dark.
    pub outage_server: usize,
    /// First round (0-based) of the outage.
    pub outage_start: usize,
    /// Outage length in rounds (0 disables it).
    pub outage_rounds: usize,
    /// Which server's `LoadEnv` spikes.
    pub spike_server: usize,
    /// First round of the `k` spike.
    pub spike_start: usize,
    /// Spike length in rounds (0 disables it).
    pub spike_rounds: usize,
    /// Load factor during the spike.
    pub spike_k: f64,
    /// Route with failover (`true`) or pin everything to server 0 with
    /// single-server degradation (`false`, the no-failover baseline).
    pub failover: bool,
    /// Policy-registry name for the partition decision.
    pub policy: String,
    /// Client engine configuration.
    pub engine: EngineConfig,
    /// How clients reach the servers.
    pub transport: ClusterTransport,
}

impl Default for ClusterChaosConfig {
    /// Four clients against the heterogeneous trio for 65 rounds:
    /// `edge-a` (the server Algorithm 1 prefers) goes dark for rounds
    /// 15..27, recovers and is readmitted, then its `k` spikes for
    /// rounds 40..50 — so the soak shows load migrating off a crashed
    /// server *and* off an overloaded one, and returning both times.
    fn default() -> Self {
        Self {
            servers: ServerSpec::heterogeneous_trio(),
            n_clients: 4,
            rounds: 65,
            request_period: SimDuration::from_secs(1),
            outage_server: 0,
            outage_start: 15,
            outage_rounds: 12,
            spike_server: 0,
            spike_start: 40,
            spike_rounds: 10,
            spike_k: 40.0,
            failover: true,
            policy: "loadpart".to_string(),
            engine: EngineConfig {
                io_timeout: std::time::Duration::from_millis(100),
                retry_backoff: std::time::Duration::ZERO,
                breaker_failure_threshold: 1,
                ..EngineConfig::default()
            },
            transport: ClusterTransport::Channel,
        }
    }
}

impl ClusterChaosConfig {
    /// Checks the timeline describes a runnable soak.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::NoServers`] with an empty fleet or a remote
    ///   address list whose length differs from the fleet's;
    /// * [`ConfigError::ZeroClients`] / [`ConfigError::ZeroDuration`]
    ///   for an empty population or timeline;
    /// * [`ConfigError::NonPositiveBandwidth`] for a bad link spec;
    /// * [`ConfigError::UnknownPolicy`] if the policy name is not
    ///   registered;
    /// * whatever [`EngineConfig::validate`] rejects.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.servers.is_empty()
            || self.outage_server >= self.servers.len()
            || self.spike_server >= self.servers.len()
        {
            return Err(ConfigError::NoServers);
        }
        if let ClusterTransport::Remote(addrs) = &self.transport {
            if addrs.len() != self.servers.len() {
                return Err(ConfigError::NoServers);
            }
        }
        if self.n_clients == 0 {
            return Err(ConfigError::ZeroClients);
        }
        if self.rounds == 0 || self.request_period == SimDuration::ZERO {
            return Err(ConfigError::ZeroDuration);
        }
        for server in &self.servers {
            check_bandwidth(server.bandwidth_mbps)?;
        }
        if build_named(&self.policy).is_err() {
            return Err(ConfigError::UnknownPolicy);
        }
        self.engine.validate()
    }

    /// Whether `round` falls inside the outage window.
    #[must_use]
    pub fn in_outage(&self, round: usize) -> bool {
        (self.outage_start..self.outage_start + self.outage_rounds).contains(&round)
    }

    /// Whether `round` falls inside the spike window.
    #[must_use]
    pub fn in_spike(&self, round: usize) -> bool {
        (self.spike_start..self.spike_start + self.spike_rounds).contains(&round)
    }

    /// First round after the outage window.
    #[must_use]
    pub fn outage_end(&self) -> usize {
        self.outage_start + self.outage_rounds
    }
}

/// One server's totals over a cluster soak.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterServerSummary {
    /// Display name.
    pub name: String,
    /// Client-side attempts routed to this server (all clients).
    pub attempts: u64,
    /// Requests this server completed remotely (client-side count).
    pub served: u64,
    /// Attempts that failed against this server.
    pub failed: u64,
    /// Offload requests the server itself counted at shutdown (`None`
    /// for remote servers, which outlive the soak).
    pub server_served: Option<u64>,
}

/// The outcome of one [`cluster_chaos_run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterChaosReport {
    /// Every inference record, in issue order (round-major,
    /// client-minor).
    pub records: Vec<InferenceRecord>,
    /// Per-server totals, endpoint index ascending.
    pub servers: Vec<ClusterServerSummary>,
    /// Requests served remotely, per round per server
    /// (`served_by_round[round][server]`) — the migration timeline.
    pub served_by_round: Vec<Vec<u64>>,
    /// Requests that finished on the device, per round.
    pub local_by_round: Vec<u64>,
    /// Requests completed (liveness: must equal `expected`).
    pub completed: u64,
    /// `n_clients * rounds`.
    pub expected: u64,
    /// Total reroutes (restarts plus mid-suffix failovers).
    pub failovers: u64,
    /// Requests that finished on the device.
    pub locals: u64,
    /// Requests whose *final* state was an admission shed.
    pub sheds: u64,
    /// First round at/after the outage end in which the outage server
    /// served again (`None` if it never did, or no outage was scripted).
    pub readmission_round: Option<usize>,
    /// Rounds driven.
    pub rounds: usize,
    /// Echo of the scripted outage window, for report consumers.
    pub outage_server: usize,
    /// First outage round.
    pub outage_start: usize,
    /// Outage length in rounds.
    pub outage_rounds: usize,
}

impl ClusterChaosReport {
    /// Requests that never completed (liveness demands 0).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.expected - self.completed
    }

    /// Remote completions by `server` within `rounds`.
    #[must_use]
    pub fn served_during(&self, rounds: std::ops::Range<usize>, server: usize) -> u64 {
        rounds
            .filter_map(|r| self.served_by_round.get(r))
            .map(|row| row[server])
            .sum()
    }

    /// Rounds after the scripted outage, until at most `outage_start`
    /// rounds have elapsed (a window as long as the pre-outage one).
    #[must_use]
    pub fn recovery_window(&self) -> std::ops::Range<usize> {
        let end = self.outage_start + self.outage_rounds;
        end..self.rounds.min(end + self.outage_start)
    }
}

/// Runs the scripted cluster chaos soak. Deterministic for the local
/// transports: clients take strict turns, the outage and spike are
/// keyed by round index, and the outage gates links client-side — so
/// two runs with the same config produce bit-identical reports.
///
/// # Errors
///
/// Rejects invalid configurations with [`ConfigError`] before spawning
/// anything.
///
/// # Panics
///
/// Panics if a server thread panics mid-soak or a remote address
/// cannot be reached — the failures the harness exists to surface.
pub fn cluster_chaos_run(
    graph: &ComputationGraph,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    config: &ClusterChaosConfig,
    telemetry: &Telemetry,
) -> Result<ClusterChaosReport, ConfigError> {
    config.validate()?;
    let shared_graph = Arc::new(graph.clone());
    let n_servers = config.servers.len();
    // Spawn the fleet (unless the servers are remote processes).
    let mut ends: Vec<ChaosServer> = Vec::new();
    let mut envs: Vec<LoadEnv> = Vec::new();
    if !matches!(config.transport, ClusterTransport::Remote(_)) {
        for spec in &config.servers {
            let env = LoadEnv::new(spec.base_k);
            let handle = spawn_server_tuned(
                Arc::clone(&shared_graph),
                edge_models.clone(),
                env.clone(),
                ServerFaultSpec::default(),
                spec.admission,
                telemetry,
                ServerTuning {
                    suffix_cost: spec.suffix_cost,
                    ..ServerTuning::default()
                },
            );
            envs.push(env);
            ends.push(match config.transport {
                ClusterTransport::Channel => ChaosServer::Handle(handle),
                ClusterTransport::Tcp => ChaosServer::Socket(
                    SocketServer::bind_tcp("127.0.0.1:0", handle)
                        .expect("bind cluster server to loopback TCP"),
                ),
                ClusterTransport::Remote(_) => unreachable!("remote fleets are not spawned"),
            });
        }
    }
    let outage = OutageSwitch::new();
    let outage_scripted = config.outage_rounds > 0;
    let mut clusters: Vec<(ClusterEngine, SimTime)> = Vec::with_capacity(config.n_clients);
    for i in 0..config.n_clients {
        let links = (0..n_servers)
            .map(|s| {
                let conn: Box<dyn FrameChannel> = match &config.transport {
                    ClusterTransport::Channel => match &ends[s] {
                        ChaosServer::Handle(h) => Box::new(h.connect()),
                        ChaosServer::Socket(_) => unreachable!(),
                    },
                    ClusterTransport::Tcp => match &ends[s] {
                        ChaosServer::Socket(sock) => Box::new(
                            TcpFrameChannel::connect(sock.local_addr())
                                .expect("connect cluster client over loopback TCP"),
                        ),
                        ChaosServer::Handle(_) => unreachable!(),
                    },
                    ClusterTransport::Remote(addrs) => Box::new(
                        TcpFrameChannel::connect(&addrs[s])
                            .expect("connect cluster client to remote server"),
                    ),
                };
                let conn = if outage_scripted && s == config.outage_server {
                    let spec = LinkSpec {
                        outage: Some(outage.clone()),
                        ..LinkSpec::default()
                    };
                    Box::new(EmulatedLink::new(conn, spec)) as Box<dyn FrameChannel>
                } else {
                    conn
                };
                ClusterLink {
                    name: config.servers[s].name.clone(),
                    bandwidth_mbps: config.servers[s].bandwidth_mbps,
                    conn,
                }
            })
            .collect();
        let policy = build_named(&config.policy).expect("validated policy name");
        let mut cluster = ClusterEngine::new(
            Arc::clone(&shared_graph),
            policy,
            user_models,
            edge_models,
            DeviceModel::default(),
            i,
            EngineConfig {
                seed: config.engine.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                ..config.engine.clone()
            },
            links,
        )?;
        cluster.set_failover(config.failover);
        cluster.engine_mut().set_telemetry(telemetry.clone());
        clusters.push((cluster, SimTime::ZERO));
    }

    let mut records = Vec::with_capacity(config.n_clients * config.rounds);
    let mut served_by_round = vec![vec![0u64; n_servers]; config.rounds];
    let mut local_by_round = vec![0u64; config.rounds];
    let mut failovers = 0u64;
    let mut locals = 0u64;
    let mut sheds = 0u64;
    for round in 0..config.rounds {
        outage.set_blocked(config.in_outage(round));
        if let Some(env) = envs.get(config.spike_server) {
            env.set_k(if config.in_spike(round) {
                config.spike_k
            } else {
                config.servers[config.spike_server].base_k
            });
        }
        // Strict turns: one in-flight exchange at a time, so every
        // server observes a deterministic frame order.
        for (cluster, now) in clusters.iter_mut() {
            *now += config.request_period;
            for (s, spec) in config.servers.iter().enumerate() {
                cluster
                    .engine_mut()
                    .profile_of_mut(s)
                    .inject_bandwidth(spec.bandwidth_mbps);
            }
            let (record, route) = cluster
                .infer(*now)
                .expect("cluster routing absorbs wire faults");
            failovers += u64::from(route.failovers);
            match route.server {
                Some(s) => served_by_round[round][s] += 1,
                None => {
                    local_by_round[round] += 1;
                    locals += 1;
                }
            }
            if record.rejected {
                sheds += 1;
            }
            records.push(record);
        }
    }

    let mut server_served: Vec<Option<u64>> = vec![None; n_servers];
    let summaries_src: Vec<ClusterProfile> =
        clusters.iter().map(|(c, _)| c.profile().clone()).collect();
    drop(clusters); // closes every client connection before shutdown
    for (s, end) in ends.into_iter().enumerate() {
        server_served[s] = Some(
            end.shutdown()
                .expect("cluster server must survive the soak"),
        );
    }
    let servers: Vec<ClusterServerSummary> = (0..n_servers)
        .map(|s| ClusterServerSummary {
            name: config.servers[s].name.clone(),
            attempts: summaries_src.iter().map(|p| p.servers()[s].attempts).sum(),
            served: summaries_src.iter().map(|p| p.servers()[s].served).sum(),
            failed: summaries_src.iter().map(|p| p.servers()[s].failed).sum(),
            server_served: server_served[s],
        })
        .collect();

    let readmission_round = if outage_scripted {
        (config.outage_end()..config.rounds).find(|&r| served_by_round[r][config.outage_server] > 0)
    } else {
        None
    };
    let completed = records.len() as u64;
    let report = ClusterChaosReport {
        records,
        servers,
        served_by_round,
        local_by_round,
        completed,
        expected: (config.n_clients * config.rounds) as u64,
        failovers,
        locals,
        sheds,
        readmission_round,
        rounds: config.rounds,
        outage_server: config.outage_server,
        outage_start: config.outage_start,
        outage_rounds: config.outage_rounds,
    };
    if telemetry.is_enabled() {
        telemetry.incr("cluster.completed_total", report.completed);
        telemetry.incr("cluster.failovers_total", report.failovers);
        telemetry.set_gauge("cluster.locals", report.locals as f64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn models() -> &'static (PredictionModels, PredictionModels) {
        static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
        MODELS.get_or_init(|| crate::system::trained_models(150, 42))
    }

    fn tiny_config() -> ClusterChaosConfig {
        ClusterChaosConfig {
            n_clients: 2,
            rounds: 10,
            outage_start: 2,
            outage_rounds: 3,
            spike_rounds: 0,
            ..ClusterChaosConfig::default()
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = ClusterChaosConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = ClusterChaosConfig {
            servers: Vec::new(),
            ..ClusterChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::NoServers));
        let bad = ClusterChaosConfig {
            outage_server: 9,
            ..ClusterChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::NoServers));
        let bad = ClusterChaosConfig {
            policy: "no-such-policy".into(),
            ..ClusterChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::UnknownPolicy));
        let bad = ClusterChaosConfig {
            transport: ClusterTransport::Remote(vec!["127.0.0.1:1".into()]),
            ..ClusterChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::NoServers));
        let bad = ClusterChaosConfig {
            n_clients: 0,
            ..ClusterChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroClients));
    }

    /// A NaN bandwidth is not positive: every validator refuses it, and
    /// `multi_client_run` returns the error instead of panicking deep in
    /// the run.
    #[test]
    fn nan_bandwidth_is_a_config_error() {
        let refused = Err(ConfigError::NonPositiveBandwidth);
        let multi = crate::MultiClientConfig {
            bandwidth_mbps: f64::NAN,
            ..crate::MultiClientConfig::default()
        };
        assert_eq!(multi.validate(), refused);
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        assert_eq!(
            crate::multi_client_run(&graph, user, edge, &multi).map(|_| ()),
            refused
        );
        let chaos = crate::ChaosConfig {
            bandwidth_mbps: f64::NAN,
            ..crate::ChaosConfig::default()
        };
        assert_eq!(chaos.validate(), refused);
        let mut cluster = ClusterChaosConfig::default();
        cluster.servers[1].bandwidth_mbps = f64::NAN;
        assert_eq!(cluster.validate(), refused);
        let server = crate::threaded::spawn_server(graph.clone(), edge.clone(), 1.0);
        let engine = ClusterEngine::new(
            Arc::new(graph),
            build_named("loadpart").expect("registered"),
            user,
            edge,
            DeviceModel::default(),
            0,
            EngineConfig::default(),
            vec![ClusterLink {
                name: "srv".into(),
                bandwidth_mbps: f64::NAN,
                conn: Box::new(server.connect()),
            }],
        );
        assert_eq!(engine.map(|_| ()), refused);
        server.shutdown().expect("clean");
    }

    #[test]
    fn outage_and_spike_windows_are_half_open() {
        let cfg = ClusterChaosConfig::default();
        assert!(!cfg.in_outage(cfg.outage_start - 1));
        assert!(cfg.in_outage(cfg.outage_start));
        assert!(cfg.in_outage(cfg.outage_end() - 1));
        assert!(!cfg.in_outage(cfg.outage_end()));
        assert!(cfg.in_spike(cfg.spike_start));
        assert!(!cfg.in_spike(cfg.spike_start + cfg.spike_rounds));
    }

    /// `Rejected{retry_after}` routing suspension: a suspended server is
    /// excluded from the plan until the suspension expires, and when
    /// every healthy server is suspended the fallback picks the one
    /// whose suspension expires soonest rather than going pure-local.
    #[test]
    fn suspension_excludes_a_server_until_expiry() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                spawn_server_tuned(
                    Arc::new(graph.clone()),
                    edge.clone(),
                    LoadEnv::new(1.0),
                    ServerFaultSpec::default(),
                    None,
                    &Telemetry::disabled(),
                    ServerTuning::default(),
                )
            })
            .collect();
        let links = handles
            .iter()
            .enumerate()
            .map(|(i, h)| ClusterLink {
                name: format!("srv-{i}"),
                bandwidth_mbps: 8.0,
                conn: Box::new(h.connect()) as Box<dyn FrameChannel>,
            })
            .collect();
        let mut cluster = ClusterEngine::new(
            Arc::new(graph),
            build_named("loadpart").expect("registered"),
            user,
            edge,
            DeviceModel::default(),
            0,
            EngineConfig::default(),
            links,
        )
        .expect("valid");
        let t0 = SimTime::ZERO + SimDuration::from_secs(1);
        assert_eq!(cluster.route_plan(t0), vec![0, 1], "tie broken by index");

        // Suspend server 0 (the shape infer() writes on a shed).
        let until = t0 + SimDuration::from_millis(500);
        cluster.profile.servers[0].suspended_until = Some(until);
        assert!(cluster.profile().suspended(0, t0));
        assert_eq!(cluster.route_plan(t0), vec![1], "suspended server skipped");
        // Expiry readmits it — suspension is time-bounded, not sticky.
        assert!(!cluster.profile().suspended(0, until));
        assert_eq!(cluster.route_plan(until), vec![0, 1]);

        // All servers suspended: the local fallback prefers the soonest
        // expiry instead of degrading to pure-local.
        cluster.profile.servers[0].suspended_until = Some(t0 + SimDuration::from_millis(900));
        cluster.profile.servers[1].suspended_until = Some(t0 + SimDuration::from_millis(300));
        assert!(cluster.route_plan(t0).is_empty());
        assert_eq!(cluster.local_fallback(&[], t0), 1, "soonest expiry wins");

        drop(cluster);
        for h in handles {
            h.shutdown().expect("clean");
        }
    }

    /// A small smoke soak; the full scenario lives in
    /// `tests/cluster_failover.rs`.
    #[test]
    fn tiny_cluster_soak_is_live_and_deterministic() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let cfg = tiny_config();
        let a = cluster_chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        let b = cluster_chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        assert_eq!(a, b, "same config, same soak");
        assert_eq!(a.lost(), 0, "every request completes");
        assert!(a.failovers > 0, "the outage forces reroutes");
    }

    #[test]
    fn tiny_cluster_soak_matches_over_tcp() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let cfg = tiny_config();
        let channel =
            cluster_chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        let tcp_cfg = ClusterChaosConfig {
            transport: ClusterTransport::Tcp,
            ..cfg
        };
        let tcp =
            cluster_chaos_run(&graph, user, edge, &tcp_cfg, &Telemetry::disabled()).expect("valid");
        assert_eq!(
            tcp.records, channel.records,
            "logical-time records replay identically over TCP"
        );
        assert_eq!(tcp.served_by_round, channel.served_by_round);
    }
}

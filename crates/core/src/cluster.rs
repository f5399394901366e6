//! Multi-server edge cluster: per-server profiles, joint (server, p)
//! decisions and breaker-driven failover.
//!
//! The paper assumes a single edge server, so an open circuit breaker
//! used to mean "degenerate to pure-local" even when another server sat
//! idle. [`ClusterEngine`] extends Algorithm 1 to a *joint* (server, p)
//! decision: the [`OffloadEngine`] keeps one
//! [`RuntimeProfile`](crate::engine::RuntimeProfile) +
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
//! Every client of the chaos soak ([`crate::chaos`]) is a
//! [`ClusterEngine`]: with one server and failover off it keeps
//! single-server semantics.

use crate::emulator::{EmulatedLink, LinkSpec};
use crate::engine::backends::{SimulatedDevice, WireBackend, WireTransport};
use crate::engine::{
    check_bandwidth, AttemptOutcome, ConfigError, EngineConfig, InferenceRecord, OffloadEngine,
    Outcome, WireGate,
};
use crate::policy::PartitionPolicy;
use crate::protocol::ProtocolError;
use crate::threaded::FrameChannel;
use lp_graph::ComputationGraph;
use lp_hardware::{DeviceModel, NodeTimes};
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Longest a `Rejected{retry_after}` drain estimate may suspend a server
/// from routing — mirrors the engine's own backoff-hint clamp, so one
/// pathological estimate cannot starve a healthy server out of the plan.
const MAX_SUSPENSION_SECS: f64 = 1.0;

/// Client-side routing state for one server: identity plus counters.
/// The server's [`RuntimeProfile`](crate::engine::RuntimeProfile) itself
/// lives inside the engine ([`OffloadEngine::profile_of`]); this is the
/// layer above it that the router consults and the reports read.
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
/// per-endpoint [`RuntimeProfile`](crate::engine::RuntimeProfile)s and
/// breakers.
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
    /// Link bandwidth (Mbps), injected into the endpoint's profile: the
    /// wire runtime pins the estimate instead of measuring a link.
    pub bandwidth_mbps: f64,
    /// The frame pipe to this server.
    pub conn: Box<dyn FrameChannel>,
    /// The link the client sees `conn` through: its faults, timing and
    /// outage switch ([`LinkSpec::default`] is a perfect link).
    pub spec: LinkSpec,
}

impl std::fmt::Debug for ClusterLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterLink")
            .field("name", &self.name)
            .field("bandwidth_mbps", &self.bandwidth_mbps)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// The cluster driver: one [`OffloadEngine`] with an endpoint per
/// server, the emulated links to reach them, and the routing layer that
/// turns per-endpoint profiles + breakers into a joint (server, p)
/// decision with failover.
pub struct ClusterEngine {
    engine: OffloadEngine,
    links: Vec<EmulatedLink<Box<dyn FrameChannel>>>,
    profile: ClusterProfile,
    device_times: NodeTimes,
    failover: bool,
}

impl std::fmt::Debug for ClusterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("servers", &self.profile.servers.len())
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
        let mut emulated = Vec::with_capacity(links.len());
        for (s, link) in links.into_iter().enumerate() {
            engine
                .profile_of_mut(s)
                .inject_bandwidth(link.bandwidth_mbps);
            names.push(link.name);
            emulated.push(EmulatedLink::new(link.conn, link.spec));
        }
        Ok(Self {
            device_times: device_model.node_times(engine.graph()),
            engine,
            links: emulated,
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

    /// The links to the servers, index-aligned with endpoints (their
    /// [`EmulatedLink::stats`] and [`EmulatedLink::faults_injected`]).
    #[must_use]
    pub fn links(&self) -> &[EmulatedLink<Box<dyn FrameChannel>>] {
        &self.links
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
        let conn: &dyn FrameChannel = &self.links[s];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::policy::build_named;
    use crate::telemetry::Telemetry;
    use crate::threaded::{spawn_server_tuned, LoadEnv, ServerFaultSpec, ServerTuning};
    use std::sync::OnceLock;

    fn models() -> &'static (PredictionModels, PredictionModels) {
        static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
        MODELS.get_or_init(|| crate::system::trained_models(150, 42))
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
        let mut chaos = ChaosConfig::default();
        chaos.servers[0].bandwidth_mbps = f64::NAN;
        assert_eq!(chaos.validate(&graph), refused);
        let mut cluster = ChaosConfig::cluster();
        cluster.servers[1].bandwidth_mbps = f64::NAN;
        assert_eq!(cluster.validate(&graph), refused);
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
                spec: LinkSpec::default(),
            }],
        );
        assert_eq!(engine.map(|_| ()), refused);
        server.shutdown().expect("clean");
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
                    ServerTuning,
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
                spec: LinkSpec::default(),
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
}

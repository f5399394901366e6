//! The chaos soak: overload protection and failover exercised end to end.
//!
//! [`chaos_run`] drives N [`ClusterEngine`] clients against a fleet of
//! admission-controlled servers through a timeline scripted by round: a
//! load spike on one server (its [`LoadEnv`] stretch factor jumps), an
//! optional outage on one server (every client's link to it goes dark
//! behind an [`OutageSwitch`]), and per-client frame faults (a
//! [`FaultPlan`] run by each of the client's [`EmulatedLink`]s). These
//! are the three failure classes of edge offloading: overload, server
//! churn and link degradation. Everything is deterministic: clients take
//! turns within a round (one in-flight exchange at a time, so the frame
//! order at every server is fixed), and fault plans are keyed by frame
//! index.
//!
//! Requests are issued every [`ChaosConfig::request_period`] of logical
//! time while the profiler refreshes only every
//! [`EngineConfig::profiler_period`], so when the spike hits, clients
//! keep offloading on a *stale* load factor for up to one profiler
//! period. That window is what server-side admission control exists
//! for: the paper's load awareness cannot shed what it has not yet
//! measured.
//!
//! Two presets script the soaks behind `loadpart chaos`:
//!
//! * [`ChaosConfig::default`] — one server, eight clients, a spike and a
//!   sprinkle of frame faults, failover off, so every client keeps
//!   single-server semantics;
//! * [`ChaosConfig::cluster`] (`chaos --cluster`) — a heterogeneous
//!   trio, four clients, an outage and later a spike on the preferred
//!   server, failover on.
//!
//! What the soak asserts (see `tests/chaos_soak.rs` and
//! `tests/cluster_failover.rs`):
//!
//! * **liveness** — every request completes, locally or remotely; no
//!   panics, no hangs;
//! * **shedding** — during the spike the server's admission control
//!   rejects work (`server.rejected_total` climbs) instead of queueing it;
//! * **breaker convergence** — every client's circuit breakers are closed
//!   again within a few profiler periods after the spike ends;
//! * **bounded latency** — no request's end-to-end time exceeds a pure
//!   local inference plus the bounded wire-retry budget;
//! * **failover** — with failover on, the outage server's traffic moves
//!   to the rest of the fleet and the server is readmitted once it
//!   recovers;
//! * **determinism** — an identical config replays bit-identically.

use crate::admission::AdmissionConfig;
use crate::cluster::{ClusterEngine, ClusterLink};
use crate::emulator::{EmulatedLink, FaultAction, FaultPlan, LinkSpec, OutageSwitch};
use crate::engine::{check_bandwidth, BreakerState, ConfigError, EngineConfig, InferenceRecord};
use crate::policy::{build_for, build_named};
use crate::telemetry::Telemetry;
use crate::threaded::{
    spawn_server_tuned, FrameChannel, LoadEnv, ServerFaultSpec, ServerHandle, ServerTuning,
};
use crate::transport::{SocketServer, TcpFrameChannel};
use lp_graph::ComputationGraph;
use lp_hardware::DeviceModel;
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::ops::Range;
use std::sync::Arc;

/// How the soak's clients reach the fleet.
///
/// The soak itself is transport-agnostic: clients take strict turns (one
/// in-flight exchange at a time), so every server observes the same frame
/// order either way and the report's logical-time contents replay
/// identically over channels and loopback TCP.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ChaosTransport {
    /// In-process channel sessions, one spawned server per spec.
    #[default]
    Channel,
    /// Loopback TCP through a [`SocketServer`] per spawned server.
    Tcp,
    /// Already-running `loadpart serve` processes at these addresses
    /// (index-aligned with the fleet). The soak cannot script a remote
    /// server's load, so the spike is skipped; the outage still runs,
    /// because it gates the links client-side.
    Remote(Vec<String>),
}

impl ChaosTransport {
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

/// One server of the soak's fleet: its name, background load, link
/// bandwidth and admission budget. Heterogeneity across specs is what
/// makes the joint (server, p) decision non-trivial.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Display name ("edge-a", …).
    pub name: String,
    /// Background load factor the server's [`LoadEnv`] starts at.
    pub base_k: f64,
    /// Client<->server link bandwidth (Mbps).
    pub bandwidth_mbps: f64,
    /// Admission budget; `None` runs the server unbounded.
    pub admission: Option<AdmissionConfig>,
}

impl ServerSpec {
    /// A named server with the default admission budget.
    #[must_use]
    pub fn named(name: &str, base_k: f64, bandwidth_mbps: f64) -> Self {
        Self {
            name: name.to_string(),
            base_k,
            bandwidth_mbps,
            admission: Some(AdmissionConfig::default()),
        }
    }

    /// The canonical heterogeneous trio of the cluster preset and the CI
    /// smoke job: a fast lightly-loaded server, a mid one, and a slow
    /// loaded one. Algorithm 1 prefers `edge-a` until its load or
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

/// A scripted run of rounds on one server of the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// The server it hits (index into the fleet).
    pub server: usize,
    /// First round (0-based).
    pub start: usize,
    /// Length in rounds (0: the window is empty).
    pub rounds: usize,
}

impl Window {
    /// The rounds the window covers, half-open.
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.rounds
    }

    /// Whether `round` falls inside the window.
    #[must_use]
    pub fn contains(&self, round: usize) -> bool {
        self.range().contains(&round)
    }
}

/// The scripted chaos timeline: the fleet, the client population and
/// the failures the soak throws at them.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The fleet, index-aligned with every client's endpoints.
    pub servers: Vec<ServerSpec>,
    /// Number of concurrent clients.
    pub n_clients: usize,
    /// Total rounds; each client issues one inference per round.
    pub rounds: usize,
    /// Logical time between a client's requests (smaller than the profiler
    /// period, so the load factor goes stale between refreshes).
    pub request_period: SimDuration,
    /// Client-side fault plans, indexed by client; each runs on every link
    /// of its client, and clients past the end of the vector run clean.
    pub fault_plans: Vec<FaultPlan>,
    /// The server whose links go dark, and when; `None`: no outage.
    pub outage: Option<Window>,
    /// The server whose load factor spikes, and when.
    pub spike: Window,
    /// Load factor during the spike.
    pub spike_k: f64,
    /// Route with failover (`true`), or pin every client to server 0 with
    /// single-server degradation (`false`).
    pub failover: bool,
    /// Policy-registry name for the partition decision.
    pub policy: String,
    /// Client engine configuration (breaker knobs, timeouts, retries).
    pub engine: EngineConfig,
    /// How clients reach the fleet.
    pub transport: ChaosTransport,
}

impl Default for ChaosConfig {
    /// The single-server soak: eight clients at one request per second,
    /// a ten-round spike to `k = 40` after a ten-round warm-up,
    /// twenty-five recovery rounds (five profiler periods), a
    /// hair-trigger breaker, a light sprinkle of pre-spike frame faults
    /// the retry budget absorbs, and failover off.
    fn default() -> Self {
        Self {
            servers: vec![ServerSpec::named("edge", 1.0, 8.0)],
            n_clients: 8,
            rounds: 45,
            request_period: SimDuration::from_secs(1),
            fault_plans: vec![
                FaultPlan::new().on_send(2, FaultAction::Drop),
                FaultPlan::new().on_recv(5, FaultAction::Corrupt),
            ],
            outage: None,
            spike: Window {
                server: 0,
                start: 10,
                rounds: 10,
            },
            spike_k: 40.0,
            failover: false,
            policy: "loadpart".to_string(),
            engine: EngineConfig {
                io_timeout: std::time::Duration::from_millis(100),
                retry_backoff: std::time::Duration::ZERO,
                breaker_failure_threshold: 1,
                ..EngineConfig::default()
            },
            transport: ChaosTransport::Channel,
        }
    }
}

impl ChaosConfig {
    /// The cluster soak: four clients against the heterogeneous trio for
    /// 65 rounds with failover on. `edge-a` (the server Algorithm 1
    /// prefers) goes dark for rounds 15..27, recovers and is readmitted,
    /// then its `k` spikes for rounds 40..50 — so the soak shows load
    /// migrating off a crashed server *and* off an overloaded one, and
    /// returning both times.
    #[must_use]
    pub fn cluster() -> Self {
        Self {
            servers: ServerSpec::heterogeneous_trio(),
            n_clients: 4,
            rounds: 65,
            fault_plans: Vec::new(),
            outage: Some(Window {
                server: 0,
                start: 15,
                rounds: 12,
            }),
            spike: Window {
                server: 0,
                start: 40,
                rounds: 10,
            },
            failover: true,
            ..Self::default()
        }
    }

    /// Checks the timeline describes a runnable soak of `graph`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::NoServers`] with an empty fleet, a window on a
    ///   server past its end, or a remote address list whose length
    ///   differs from the fleet's;
    /// * [`ConfigError::ZeroClients`] / [`ConfigError::ZeroDuration`]
    ///   for an empty population or timeline;
    /// * [`ConfigError::NonPositiveBandwidth`] unless every server's
    ///   bandwidth is positive (NaN included);
    /// * [`ConfigError::UnknownPolicy`] if the policy name is not
    ///   registered, or names a fixed point past the graph;
    /// * whatever [`EngineConfig::validate`] rejects.
    pub fn validate(&self, graph: &ComputationGraph) -> Result<(), ConfigError> {
        let n = self.servers.len();
        if n == 0 || self.spike.server >= n || self.outage.is_some_and(|w| w.server >= n) {
            return Err(ConfigError::NoServers);
        }
        if let ChaosTransport::Remote(addrs) = &self.transport {
            if addrs.len() != n {
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
        if build_for(&self.policy, graph.len()).is_err() {
            return Err(ConfigError::UnknownPolicy);
        }
        self.engine.validate()
    }
}

/// One client's totals over the soak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSummary {
    /// Client index.
    pub client: usize,
    /// Requests completed (must equal the round count: liveness).
    pub completed: usize,
    /// Requests whose suffix a server executed.
    pub offloaded: usize,
    /// Requests decided fully local (p == n), breaker-forced or not.
    pub local: usize,
    /// Requests shed by a server's admission control.
    pub shed: usize,
    /// Requests settled by local fallback after a wire fault.
    pub fallbacks: usize,
    /// Worst end-to-end latency this client saw.
    pub max_total: SimDuration,
    /// Breaker state at the end of the soak: the first endpoint's that is
    /// not closed, else closed.
    pub breaker_state: BreakerState,
    /// Breaker transitions over the whole soak, every endpoint's.
    pub breaker_transitions: u64,
    /// Scripted frame faults that actually fired, on every link.
    pub faults_injected: u64,
}

/// One server's totals over the soak.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerSummary {
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

/// The outcome of one [`chaos_run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Every inference record, in issue order (round-major,
    /// client-minor).
    pub records: Vec<InferenceRecord>,
    /// Per-client totals, client index ascending.
    pub clients: Vec<ClientSummary>,
    /// Per-server totals, index-aligned with the fleet.
    pub servers: Vec<ServerSummary>,
    /// Requests served remotely, per round per server
    /// (`served_by_round[round][server]`) — the migration timeline.
    pub served_by_round: Vec<Vec<u64>>,
    /// Requests that finished on the device, per round.
    pub local_by_round: Vec<u64>,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Requests shed during the spike window.
    pub spike_sheds: u64,
    /// Total reroutes (restarts plus mid-suffix failovers).
    pub failovers: u64,
    /// First round at or after the outage's end in which the outage
    /// server served again (`None` without an outage, or if it never
    /// did).
    pub readmission_round: Option<usize>,
}

impl ChaosReport {
    /// Total requests completed across all clients.
    #[must_use]
    pub fn total_completed(&self) -> usize {
        self.clients.iter().map(|c| c.completed).sum()
    }

    /// Requests that never completed (liveness demands 0).
    #[must_use]
    pub fn lost(&self) -> usize {
        // `local_by_round` has one entry per round.
        self.clients.len() * self.local_by_round.len() - self.total_completed()
    }

    /// Requests that finished on the device.
    #[must_use]
    pub fn locals(&self) -> u64 {
        self.local_by_round.iter().sum()
    }

    /// Whether every client's breakers have converged back to closed.
    #[must_use]
    pub fn all_breakers_closed(&self) -> bool {
        self.clients
            .iter()
            .all(|c| c.breaker_state == BreakerState::Closed)
    }

    /// Fraction of all requests the fleet shed.
    #[must_use]
    pub fn shed_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.sheds as f64 / self.records.len() as f64
    }

    /// The worst end-to-end latency any client saw.
    #[must_use]
    pub fn max_total(&self) -> SimDuration {
        self.clients
            .iter()
            .fold(SimDuration::ZERO, |acc, c| acc.max(c.max_total))
    }

    /// Remote completions by `server` within `rounds`.
    #[must_use]
    pub fn served_during(&self, rounds: Range<usize>, server: usize) -> u64 {
        rounds
            .filter_map(|r| self.served_by_round.get(r))
            .map(|row| row[server])
            .sum()
    }
}

/// One server of the fleet as the soak reaches it.
enum Server {
    Handle(ServerHandle),
    Socket(SocketServer),
    /// A running `loadpart serve` process at this address.
    Remote(String),
}

impl Server {
    /// A new client connection to this server.
    ///
    /// # Panics
    ///
    /// Panics if a socket cannot be connected.
    fn connect(&self) -> Box<dyn FrameChannel> {
        match self {
            Self::Handle(handle) => Box::new(handle.connect()),
            Self::Socket(sock) => Box::new(
                TcpFrameChannel::connect(sock.local_addr())
                    .expect("connect chaos client over loopback TCP"),
            ),
            Self::Remote(addr) => Box::new(
                TcpFrameChannel::connect(addr.as_str())
                    .expect("connect chaos client to remote server"),
            ),
        }
    }

    /// Stops a spawned server and returns how many offloads it served;
    /// a remote one keeps running.
    ///
    /// # Panics
    ///
    /// Panics if the server thread died during the soak.
    fn shutdown(self) -> Option<u64> {
        let served = match self {
            Self::Handle(handle) => handle.shutdown(),
            Self::Socket(sock) => sock.shutdown(),
            Self::Remote(_) => return None,
        };
        Some(served.expect("chaos server must survive the soak"))
    }
}

/// Runs the chaos soak `config` scripts over `graph`.
///
/// # Errors
///
/// Rejects invalid configurations with [`ConfigError`] before spawning
/// anything.
///
/// # Panics
///
/// Panics if a server thread panics during the soak or a socket cannot
/// be reached — the failures the harness exists to surface.
pub fn chaos_run(
    graph: &ComputationGraph,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    config: &ChaosConfig,
    telemetry: &Telemetry,
) -> Result<ChaosReport, ConfigError> {
    config.validate(graph)?;
    // One shared graph: every server and client engine holds an `Arc`
    // bump of a single copy.
    let graph = Arc::new(graph.clone());
    // A remote server's load cannot be scripted: its env is never read.
    let envs: Vec<LoadEnv> = config
        .servers
        .iter()
        .map(|spec| LoadEnv::new(spec.base_k))
        .collect();
    let fleet: Vec<Server> = config
        .servers
        .iter()
        .zip(&envs)
        .enumerate()
        .map(|(s, (spec, env))| {
            let spawn = || {
                spawn_server_tuned(
                    Arc::clone(&graph),
                    edge_models.clone(),
                    env.clone(),
                    ServerFaultSpec::default(),
                    spec.admission,
                    telemetry,
                    ServerTuning,
                )
            };
            match &config.transport {
                ChaosTransport::Channel => Server::Handle(spawn()),
                ChaosTransport::Tcp => Server::Socket(
                    SocketServer::bind_tcp("127.0.0.1:0", spawn())
                        .expect("bind chaos server to loopback TCP"),
                ),
                ChaosTransport::Remote(addrs) => Server::Remote(addrs[s].clone()),
            }
        })
        .collect();
    let outage = config.outage.unwrap_or_default();
    let dark = OutageSwitch::new();
    let mut clients = Vec::with_capacity(config.n_clients);
    for i in 0..config.n_clients {
        let faults = config.fault_plans.get(i).cloned().unwrap_or_default();
        let links = config
            .servers
            .iter()
            .zip(&fleet)
            .enumerate()
            .map(|(s, (spec, server))| ClusterLink {
                name: spec.name.clone(),
                bandwidth_mbps: spec.bandwidth_mbps,
                conn: server.connect(),
                spec: LinkSpec {
                    faults: faults.clone(),
                    outage: (s == outage.server).then(|| dark.clone()),
                    ..LinkSpec::default()
                },
            })
            .collect();
        let mut client = ClusterEngine::new(
            Arc::clone(&graph),
            build_named(&config.policy).expect("validated policy name"),
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
        client.set_failover(config.failover);
        client.engine_mut().set_telemetry(telemetry.clone());
        clients.push(client);
    }

    let mut records = Vec::with_capacity(config.n_clients * config.rounds);
    let mut summaries: Vec<ClientSummary> = (0..config.n_clients)
        .map(|client| ClientSummary {
            client,
            completed: 0,
            offloaded: 0,
            local: 0,
            shed: 0,
            fallbacks: 0,
            max_total: SimDuration::ZERO,
            breaker_state: BreakerState::Closed,
            breaker_transitions: 0,
            faults_injected: 0,
        })
        .collect();
    let mut served_by_round = vec![vec![0u64; config.servers.len()]; config.rounds];
    let mut local_by_round = vec![0u64; config.rounds];
    let (mut sheds, mut spike_sheds, mut failovers) = (0u64, 0u64, 0u64);
    let mut now = SimTime::ZERO;
    for round in 0..config.rounds {
        now += config.request_period;
        dark.set_blocked(outage.contains(round));
        let in_spike = config.spike.contains(round);
        let spiked = config.spike.server;
        envs[spiked].set_k(if in_spike {
            config.spike_k
        } else {
            config.servers[spiked].base_k
        });
        // Clients take strict turns: one in-flight exchange at a time, so
        // every server sees a deterministic frame order.
        for (client, summary) in clients.iter_mut().zip(&mut summaries) {
            let (record, route) = client
                .infer(now)
                .expect("engine degradation paths absorb wire faults");
            summary.completed += 1;
            if record.rejected {
                summary.shed += 1;
                sheds += 1;
                spike_sheds += u64::from(in_spike);
            } else if record.fallback_local {
                summary.fallbacks += 1;
            } else if record.offloaded() {
                summary.offloaded += 1;
            } else {
                summary.local += 1;
            }
            summary.max_total = summary.max_total.max(record.total);
            failovers += u64::from(route.failovers);
            match route.server {
                Some(s) => served_by_round[round][s] += 1,
                None => local_by_round[round] += 1,
            }
            records.push(record);
        }
    }

    let mut servers: Vec<ServerSummary> = config
        .servers
        .iter()
        .map(|spec| ServerSummary {
            name: spec.name.clone(),
            ..ServerSummary::default()
        })
        .collect();
    for (client, summary) in clients.iter().zip(&mut summaries) {
        let engine = client.engine();
        let breakers = (0..engine.endpoint_count()).map(|s| engine.breaker_of(s));
        summary.breaker_state = breakers
            .clone()
            .map(|b| b.state())
            .find(|&state| state != BreakerState::Closed)
            .unwrap_or(BreakerState::Closed);
        summary.breaker_transitions = breakers.map(|b| b.transitions()).sum();
        summary.faults_injected = client
            .links()
            .iter()
            .map(EmulatedLink::faults_injected)
            .sum();
        for (books, status) in servers.iter_mut().zip(client.profile().servers()) {
            books.attempts += status.attempts;
            books.served += status.served;
            books.failed += status.failed;
        }
    }
    drop(clients); // closes every client connection before shutdown
    for (books, server) in servers.iter_mut().zip(fleet) {
        books.server_served = server.shutdown();
    }

    let readmission_round = if outage.rounds > 0 {
        (outage.range().end..config.rounds).find(|&r| served_by_round[r][outage.server] > 0)
    } else {
        None
    };
    let report = ChaosReport {
        records,
        clients: summaries,
        servers,
        served_by_round,
        local_by_round,
        sheds,
        spike_sheds,
        failovers,
        readmission_round,
    };
    if telemetry.is_enabled() {
        telemetry.incr("chaos.completed_total", report.total_completed() as u64);
        telemetry.incr("chaos.failovers_total", report.failovers);
        telemetry.set_gauge("chaos.locals", report.locals() as f64);
        telemetry.set_gauge("chaos.shed_ratio", report.shed_ratio());
        telemetry.set_gauge(
            "chaos.breakers_closed",
            if report.all_breakers_closed() {
                1.0
            } else {
                0.0
            },
        );
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

    #[test]
    fn config_validation_rejects_nonsense() {
        let graph = lp_models::alexnet(1);
        assert_eq!(ChaosConfig::default().validate(&graph), Ok(()));
        let bad = ChaosConfig {
            n_clients: 0,
            ..ChaosConfig::default()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::ZeroClients));
        let bad = ChaosConfig {
            rounds: 0,
            ..ChaosConfig::default()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::ZeroDuration));
        let mut bad = ChaosConfig::default();
        bad.servers[0].bandwidth_mbps = 0.0;
        assert_eq!(bad.validate(&graph), Err(ConfigError::NonPositiveBandwidth));
        let bad = ChaosConfig {
            spike: Window {
                server: 1,
                ..ChaosConfig::default().spike
            },
            ..ChaosConfig::default()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::NoServers));
    }

    #[test]
    fn cluster_preset_validation_rejects_nonsense() {
        let graph = lp_models::alexnet(1);
        assert_eq!(ChaosConfig::cluster().validate(&graph), Ok(()));
        let bad = ChaosConfig {
            servers: Vec::new(),
            ..ChaosConfig::cluster()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::NoServers));
        let bad = ChaosConfig {
            outage: Some(Window {
                server: 9,
                ..Window::default()
            }),
            ..ChaosConfig::cluster()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::NoServers));
        let bad = ChaosConfig {
            policy: "no-such-policy".into(),
            ..ChaosConfig::cluster()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::UnknownPolicy));
        // A fixed point past the graph would panic at the first decision.
        let n = graph.len();
        let fixed = |p: usize| ChaosConfig {
            policy: format!("fixed:{p}"),
            ..ChaosConfig::cluster()
        };
        assert_eq!(fixed(n).validate(&graph), Ok(()));
        assert_eq!(
            fixed(n + 1).validate(&graph),
            Err(ConfigError::UnknownPolicy)
        );
        let bad = ChaosConfig {
            transport: ChaosTransport::Remote(vec!["127.0.0.1:1".into()]),
            ..ChaosConfig::cluster()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::NoServers));
        let bad = ChaosConfig {
            n_clients: 0,
            ..ChaosConfig::cluster()
        };
        assert_eq!(bad.validate(&graph), Err(ConfigError::ZeroClients));
    }

    #[test]
    fn chaos_and_cluster_windows_are_half_open() {
        let cluster = ChaosConfig::cluster();
        let outage = cluster
            .outage
            .expect("the cluster preset scripts an outage");
        for w in [ChaosConfig::default().spike, cluster.spike, outage] {
            assert!(!w.contains(w.start - 1));
            assert!(w.contains(w.start));
            assert!(w.contains(w.range().end - 1));
            assert!(!w.contains(w.range().end));
        }
        assert!((0..100).all(|r| !Window::default().contains(r)));
    }

    /// A small single-server smoke run: the full soak lives in
    /// `tests/chaos_soak.rs`.
    #[test]
    fn tiny_soak_is_live_and_deterministic() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let cfg = ChaosConfig {
            n_clients: 2,
            rounds: 6,
            spike: Window {
                server: 0,
                start: 1,
                rounds: 2,
            },
            fault_plans: Vec::new(),
            ..ChaosConfig::default()
        };
        let a = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        let b = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        assert_eq!(a, b, "same config, same soak");
        assert_eq!(a.total_completed(), 2 * 6, "every request completes");
    }

    /// The same tiny soak over loopback TCP: live, and logically identical
    /// to the in-process run (the full-size comparison lives in
    /// `tests/tcp_transport.rs`).
    #[test]
    fn tiny_soak_runs_over_tcp() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let cfg = ChaosConfig {
            n_clients: 2,
            rounds: 6,
            spike: Window {
                server: 0,
                start: 1,
                rounds: 2,
            },
            fault_plans: Vec::new(),
            ..ChaosConfig::default()
        };
        let channel = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        let tcp_cfg = ChaosConfig {
            transport: ChaosTransport::Tcp,
            ..cfg
        };
        let tcp = chaos_run(&graph, user, edge, &tcp_cfg, &Telemetry::disabled()).expect("valid");
        assert_eq!(tcp.total_completed(), 2 * 6, "every request completes");
        assert_eq!(
            tcp.records, channel.records,
            "logical-time records replay identically over TCP"
        );
        assert_eq!(tcp.servers, channel.servers);
    }

    fn tiny_cluster() -> ChaosConfig {
        ChaosConfig {
            n_clients: 2,
            rounds: 10,
            outage: Some(Window {
                server: 0,
                start: 2,
                rounds: 3,
            }),
            spike: Window::default(),
            ..ChaosConfig::cluster()
        }
    }

    /// A small cluster smoke soak; the full scenario lives in
    /// `tests/cluster_failover.rs`.
    #[test]
    fn tiny_cluster_soak_is_live_and_deterministic() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let cfg = tiny_cluster();
        let a = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        let b = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        assert_eq!(a, b, "same config, same soak");
        assert_eq!(a.lost(), 0, "every request completes");
        assert!(a.failovers > 0, "the outage forces reroutes");
    }

    #[test]
    fn tiny_cluster_soak_matches_over_tcp() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let cfg = tiny_cluster();
        let channel = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
        let tcp_cfg = ChaosConfig {
            transport: ChaosTransport::Tcp,
            ..cfg
        };
        let tcp = chaos_run(&graph, user, edge, &tcp_cfg, &Telemetry::disabled()).expect("valid");
        assert_eq!(
            tcp.records, channel.records,
            "logical-time records replay identically over TCP"
        );
        assert_eq!(tcp.served_by_round, channel.served_by_round);
    }
}

//! The chaos soak harness: overload protection exercised end to end.
//!
//! [`chaos_run`] drives N threaded clients against one admission-controlled
//! [`spawn_server_tuned`] instance through a scripted timeline: a warm-up
//! under base load, a GPU load spike (the [`LoadEnv`] stretch factor
//! jumps), and a recovery tail — optionally with client-side frame faults
//! (a [`FaultPlan`] per client, run by its [`EmulatedLink`]) layered on
//! top. Everything is deterministic: clients take turns within a round
//! (one in-flight exchange at a time, so frame order at the server is
//! fixed), the spike is keyed by round index, and fault plans are keyed
//! by frame index.
//!
//! What the soak asserts (see `tests/chaos_soak.rs`):
//!
//! * **liveness** — every request completes, locally or remotely; no
//!   panics, no hangs;
//! * **shedding** — during the spike the server's admission control
//!   rejects work (`server.rejected_total` climbs) instead of queueing it;
//! * **breaker convergence** — every client's circuit breaker is closed
//!   again within a few profiler periods after the spike ends;
//! * **bounded latency** — no request's end-to-end time exceeds a pure
//!   local inference plus the bounded wire-retry budget.

use crate::admission::AdmissionConfig;
use crate::baselines::Policy;
use crate::emulator::{EmulatedLink, FaultAction, FaultPlan, LinkSpec};
use crate::engine::backends::{NullDevice, WireBackend, WireTransport};
use crate::engine::{
    check_bandwidth, BreakerState, ConfigError, EngineConfig, InferenceRecord, OffloadEngine,
};
use crate::protocol::ProtocolError;
use crate::telemetry::Telemetry;
use crate::threaded::{
    spawn_server_tuned, FrameChannel, LoadEnv, ServerFaultSpec, ServerHandle, ServerTuning,
};
use crate::transport::{SocketServer, TcpFrameChannel};
use lp_graph::ComputationGraph;
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};

/// Which transport the soak's clients reach the server over.
///
/// The soak itself is transport-agnostic: clients take strict turns (one
/// in-flight exchange at a time), so the server observes the same frame
/// order either way and the report's logical-time contents replay
/// identically — asserted by `tests/tcp_transport.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ChaosTransport {
    /// In-process channel sessions (the original harness).
    #[default]
    Channel,
    /// Real loopback TCP sockets through a [`SocketServer`].
    Tcp,
}

/// The server end of a soak (here and in the cluster soak): the bare
/// server handle or its socket front-end.
#[derive(Debug)]
pub(crate) enum ChaosServer {
    Handle(ServerHandle),
    Socket(SocketServer),
}

impl ChaosServer {
    pub(crate) fn shutdown(self) -> Result<u64, ProtocolError> {
        match self {
            Self::Handle(handle) => handle.shutdown(),
            Self::Socket(sock) => sock.shutdown(),
        }
    }
}

/// The scripted chaos timeline: population, spike window and budgets.
///
/// Requests are issued every [`ChaosConfig::request_period`] of logical
/// time while the profiler refreshes only every
/// [`EngineConfig::profiler_period`] — so when the spike hits, clients
/// keep offloading on a *stale* load factor for up to one profiler period.
/// That window is exactly what server-side admission control exists for:
/// the paper's load awareness cannot shed what it has not yet measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Number of concurrent clients.
    pub n_clients: usize,
    /// Total rounds; each client issues one inference per round.
    pub rounds: usize,
    /// Logical time between a client's requests (smaller than the profiler
    /// period, so the load factor goes stale between refreshes).
    pub request_period: SimDuration,
    /// First round (0-based) of the load spike.
    pub spike_start: usize,
    /// How many rounds the spike lasts.
    pub spike_rounds: usize,
    /// Server load factor outside the spike.
    pub base_k: f64,
    /// Server load factor during the spike.
    pub spike_k: f64,
    /// Per-client uplink bandwidth (Mbps).
    pub bandwidth_mbps: f64,
    /// The server's admission budget.
    pub admission: AdmissionConfig,
    /// Client engine configuration (breaker knobs, timeouts, retries).
    pub engine: EngineConfig,
    /// Client-side fault plans, indexed by client; clients past the end of
    /// the vector run clean.
    pub fault_plans: Vec<FaultPlan>,
    /// How clients reach the server: in-process channels or loopback TCP.
    pub transport: ChaosTransport,
}

impl Default for ChaosConfig {
    /// Eight clients at one request per second, a ten-round spike after a
    /// ten-round warm-up, twenty-five recovery rounds (five profiler
    /// periods), a hair-trigger breaker, and a light sprinkle of pre-spike
    /// frame faults the retry budget absorbs.
    fn default() -> Self {
        Self {
            n_clients: 8,
            rounds: 45,
            request_period: SimDuration::from_secs(1),
            spike_start: 10,
            spike_rounds: 10,
            base_k: 1.0,
            spike_k: 40.0,
            bandwidth_mbps: 8.0,
            admission: AdmissionConfig::default(),
            engine: EngineConfig {
                io_timeout: std::time::Duration::from_millis(100),
                retry_backoff: std::time::Duration::ZERO,
                breaker_failure_threshold: 1,
                ..EngineConfig::default()
            },
            fault_plans: vec![
                FaultPlan::new().on_send(2, FaultAction::Drop),
                FaultPlan::new().on_recv(5, FaultAction::Corrupt),
            ],
            transport: ChaosTransport::Channel,
        }
    }
}

impl ChaosConfig {
    /// Checks the timeline describes a runnable soak.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroClients`] if `n_clients == 0`;
    /// * [`ConfigError::ZeroDuration`] if `rounds == 0`;
    /// * [`ConfigError::NonPositiveBandwidth`] unless `bandwidth_mbps > 0`
    ///   (NaN included);
    /// * whatever [`EngineConfig::validate`] rejects.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_clients == 0 {
            return Err(ConfigError::ZeroClients);
        }
        if self.rounds == 0 {
            return Err(ConfigError::ZeroDuration);
        }
        check_bandwidth(self.bandwidth_mbps)?;
        if self.request_period == SimDuration::ZERO {
            return Err(ConfigError::ZeroDuration);
        }
        self.engine.validate()
    }

    /// Whether `round` falls inside the spike window.
    #[must_use]
    pub fn in_spike(&self, round: usize) -> bool {
        (self.spike_start..self.spike_start + self.spike_rounds).contains(&round)
    }
}

/// One client's totals over the soak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSummary {
    /// Client index.
    pub client: usize,
    /// Requests completed (must equal the round count: liveness).
    pub completed: usize,
    /// Requests whose suffix the server executed.
    pub offloaded: usize,
    /// Requests decided fully local (p == n), breaker-forced or not.
    pub local: usize,
    /// Requests shed by the server's admission control.
    pub shed: usize,
    /// Requests settled by local fallback after a wire fault.
    pub fallbacks: usize,
    /// Worst end-to-end latency this client saw.
    pub max_total: SimDuration,
    /// Breaker state at the end of the soak.
    pub breaker_state: BreakerState,
    /// Breaker transitions over the whole soak.
    pub breaker_transitions: u64,
    /// Scripted frame faults that actually fired.
    pub faults_injected: u64,
}

/// The outcome of one [`chaos_run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Per-client totals, client index ascending.
    pub clients: Vec<ClientSummary>,
    /// Every inference record, in issue order.
    pub records: Vec<InferenceRecord>,
    /// Rounds driven.
    pub rounds: usize,
    /// Requests shed during the spike window.
    pub spike_sheds: u64,
    /// Requests shed over the whole soak.
    pub total_sheds: u64,
    /// Offload requests the server actually served.
    pub server_served: u64,
}

impl ChaosReport {
    /// Total requests completed across all clients.
    #[must_use]
    pub fn total_completed(&self) -> usize {
        self.clients.iter().map(|c| c.completed).sum()
    }

    /// Whether every client's breaker has converged back to closed.
    #[must_use]
    pub fn all_breakers_closed(&self) -> bool {
        self.clients
            .iter()
            .all(|c| c.breaker_state == BreakerState::Closed)
    }

    /// Fraction of all requests the server shed.
    #[must_use]
    pub fn shed_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.total_sheds as f64 / self.records.len() as f64
    }

    /// The worst end-to-end latency any client saw.
    #[must_use]
    pub fn max_total(&self) -> SimDuration {
        self.clients
            .iter()
            .fold(SimDuration::ZERO, |acc, c| acc.max(c.max_total))
    }
}

/// Runs the chaos soak: N clients, a scripted load spike, optional frame
/// faults, against an admission-controlled threaded server.
///
/// # Errors
///
/// Rejects invalid configurations with [`ConfigError`] before spawning
/// anything.
///
/// # Panics
///
/// Panics if the server thread panics during the soak — the exact failure
/// the harness exists to catch.
pub fn chaos_run(
    graph: &ComputationGraph,
    user_models: &PredictionModels,
    edge_models: &PredictionModels,
    config: &ChaosConfig,
    telemetry: &Telemetry,
) -> Result<ChaosReport, ConfigError> {
    config.validate()?;
    let env = LoadEnv::new(config.base_k);
    // One shared graph: the server and every client engine hold `Arc`
    // bumps of a single copy.
    let shared_graph = std::sync::Arc::new(graph.clone());
    let server = spawn_server_tuned(
        std::sync::Arc::clone(&shared_graph),
        edge_models.clone(),
        env.clone(),
        ServerFaultSpec::default(),
        Some(config.admission),
        telemetry,
        ServerTuning,
    );
    let (server, conns): (ChaosServer, Vec<Box<dyn FrameChannel>>) = match config.transport {
        ChaosTransport::Channel => {
            let conns = (0..config.n_clients)
                .map(|_| Box::new(server.connect()) as Box<dyn FrameChannel>)
                .collect();
            (ChaosServer::Handle(server), conns)
        }
        ChaosTransport::Tcp => {
            let sock = SocketServer::bind_tcp("127.0.0.1:0", server)
                .expect("bind chaos server to loopback TCP");
            let conns = (0..config.n_clients)
                .map(|_| {
                    let chan = TcpFrameChannel::connect(sock.local_addr())
                        .expect("connect chaos client over loopback TCP");
                    Box::new(chan) as Box<dyn FrameChannel>
                })
                .collect();
            (ChaosServer::Socket(sock), conns)
        }
    };
    let links: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(i, conn)| {
            let spec = LinkSpec {
                faults: config.fault_plans.get(i).cloned().unwrap_or_default(),
                ..LinkSpec::default()
            };
            EmulatedLink::new(conn, spec)
        })
        .collect();
    let mut engines = Vec::with_capacity(config.n_clients);
    for i in 0..config.n_clients {
        let mut engine = OffloadEngine::new(
            std::sync::Arc::clone(&shared_graph),
            Policy::LoadPart,
            user_models,
            edge_models,
            i,
            EngineConfig {
                seed: config.engine.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                ..config.engine.clone()
            },
        )?;
        engine.set_telemetry(telemetry.clone());
        engines.push((engine, SimTime::ZERO));
    }

    let mut records = Vec::with_capacity(config.n_clients * config.rounds);
    let mut spike_sheds = 0u64;
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

    for round in 0..config.rounds {
        env.set_k(if config.in_spike(round) {
            config.spike_k
        } else {
            config.base_k
        });
        // Clients take strict turns: one in-flight exchange at a time, so
        // the server sees a deterministic frame order.
        for (i, (engine, now)) in engines.iter_mut().enumerate() {
            *now += config.request_period;
            engine.profile_mut().inject_bandwidth(config.bandwidth_mbps);
            let channel = &links[i];
            let deadline = engine.config().io_timeout;
            let mut device = NullDevice;
            let mut backend = WireBackend {
                server: channel,
                deadline,
            };
            let mut transport = WireTransport {
                server: channel,
                deadline,
            };
            let record = engine
                .run(*now, &mut device, &mut backend, &mut transport)
                .expect("engine degradation paths absorb wire faults");
            let summary = &mut summaries[i];
            summary.completed += 1;
            if record.fallback_local {
                summary.fallbacks += 1;
            } else if record.rejected {
                summary.shed += 1;
                if config.in_spike(round) {
                    spike_sheds += 1;
                }
            } else if record.offloaded() {
                summary.offloaded += 1;
            } else {
                summary.local += 1;
            }
            summary.max_total = summary.max_total.max(record.total);
            records.push(record);
        }
    }

    for (i, (engine, _)) in engines.iter().enumerate() {
        summaries[i].breaker_state = engine.breaker().state();
        summaries[i].breaker_transitions = engine.breaker().transitions();
        summaries[i].faults_injected = links[i].faults_injected();
    }
    drop(links);
    let server_served = server
        .shutdown()
        .expect("chaos server must survive the soak");

    let total_sheds = summaries.iter().map(|c| c.shed as u64).sum();
    let report = ChaosReport {
        clients: summaries,
        records,
        rounds: config.rounds,
        spike_sheds,
        total_sheds,
        server_served,
    };
    if telemetry.is_enabled() {
        telemetry.incr("chaos.completed_total", report.total_completed() as u64);
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
        let bad = ChaosConfig {
            n_clients: 0,
            ..ChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroClients));
        let bad = ChaosConfig {
            rounds: 0,
            ..ChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroDuration));
        let bad = ChaosConfig {
            bandwidth_mbps: 0.0,
            ..ChaosConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::NonPositiveBandwidth));
        assert_eq!(ChaosConfig::default().validate(), Ok(()));
    }

    #[test]
    fn spike_window_is_half_open() {
        let cfg = ChaosConfig::default();
        assert!(!cfg.in_spike(cfg.spike_start - 1));
        assert!(cfg.in_spike(cfg.spike_start));
        assert!(cfg.in_spike(cfg.spike_start + cfg.spike_rounds - 1));
        assert!(!cfg.in_spike(cfg.spike_start + cfg.spike_rounds));
    }

    /// A small smoke run: the full soak lives in `tests/chaos_soak.rs`.
    #[test]
    fn tiny_soak_is_live_and_deterministic() {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let cfg = ChaosConfig {
            n_clients: 2,
            rounds: 6,
            spike_start: 1,
            spike_rounds: 2,
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
            spike_start: 1,
            spike_rounds: 2,
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
        assert_eq!(tcp.server_served, channel.server_served);
    }
}

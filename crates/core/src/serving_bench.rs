//! The reproducible serving-throughput benchmark behind `loadpart bench`.
//!
//! Two server configurations face identical traffic from N concurrent
//! threaded clients over the real wire [`protocol`](crate::protocol):
//!
//! * **baseline** — the oldest serving path's framing and scheduling:
//!   [`ServerTuning::single_threaded_legacy`] (no suffix coalescing,
//!   replies use the contiguous copying encoder), clients flatten every
//!   frame to one contiguous buffer, and the engine's Algorithm-1
//!   decision memo is disabled.
//! * **parallel** — the tuned hot path: continuous suffix batching,
//!   zero-copy header/payload framing with the shared payload pool, one
//!   `Arc`'d graph across all engines, and the decision memo on.
//!
//! Both modes charge the same per-suffix execution cost
//! ([`BenchConfig::suffix_cost`]) on the serving thread, so the measured
//! difference is how the serving path schedules that work: the baseline
//! charges every suffix, the tuned path one charge per same-bucket batch.
//!
//! Wall-clock throughput and latency come from [`Instant`]; the copied-byte
//! counts come from [`framing_bytes_copied`]. Results serialize to the
//! `BENCH_serving.json` document consumed by CI's bench smoke job.

use crate::admission::AdmissionConfig;
use crate::engine::EngineConfig;
use crate::protocol::{framing_bytes_copied, ProtocolError};
use crate::telemetry::Telemetry;
use crate::threaded::{
    spawn_server_tuned, FrameChannel, LoadEnv, ServerFaultSpec, ServerHandle, ServerTuning,
    ThreadedClient,
};
use crate::transport::{default_shards, SocketServer, TcpFrameChannel};
use bytes::Bytes;
use lp_graph::ComputationGraph;
use lp_json::Json;
use lp_profiler::PredictionModels;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Which serving path a measurement exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// The oldest serving path: no suffix coalescing, copying framing, no
    /// decision memo.
    Baseline,
    /// The tuned path: suffix batching, zero-copy framing, decision memo.
    Parallel,
}

impl BenchMode {
    /// Stable name used in the JSON document.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BenchMode::Baseline => "baseline",
            BenchMode::Parallel => "parallel",
        }
    }
}

/// Which wire the benchmark's clients run over.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BenchTransport {
    /// In-process channel sessions (the original benchmark).
    #[default]
    Channel,
    /// Loopback TCP through a locally spawned [`SocketServer`]: both modes
    /// still run, since the harness controls the server tuning.
    Tcp,
    /// TCP to an already-running `loadpart serve` at this address. Only
    /// the parallel mode runs (a remote server cannot be re-tuned into the
    /// legacy baseline), and the server is left running afterwards.
    Remote(String),
}

impl BenchTransport {
    /// Stable name used in the JSON document.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BenchTransport::Channel => "channel",
            BenchTransport::Tcp => "tcp",
            BenchTransport::Remote(_) => "tcp-remote",
        }
    }
}

/// Configuration of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Concurrency levels to measure, in order.
    pub client_counts: Vec<usize>,
    /// Requests each client issues per measurement point.
    pub requests_per_client: usize,
    /// Wall-clock cost charged per admitted suffix on the executing server
    /// thread — identical in both modes; see [`ServerTuning::suffix_cost`].
    pub suffix_cost: Duration,
    /// Client-side bandwidth estimate injected per request (Mbps). 8 Mbps
    /// sits in the partial-offload regime, so requests actually cross the
    /// wire.
    pub bandwidth_mbps: f64,
    /// Training-set size for the prediction models (shared, memoized).
    pub samples_per_kind: usize,
    /// RNG seed (models and per-client engine seeds derive from it).
    pub seed: u64,
    /// The wire the clients run over.
    pub transport: BenchTransport,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            client_counts: vec![1, 4, 8, 16],
            requests_per_client: 40,
            suffix_cost: Duration::from_millis(2),
            bandwidth_mbps: 8.0,
            samples_per_kind: 150,
            seed: 42,
            transport: BenchTransport::Channel,
        }
    }
}

impl BenchConfig {
    /// The CI smoke configuration: small counts, short run.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            client_counts: vec![1, 2, 4],
            requests_per_client: 12,
            suffix_cost: Duration::from_millis(1),
            samples_per_kind: 64,
            ..Self::default()
        }
    }
}

/// One measured (mode, concurrency) point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Serving path measured.
    pub mode: BenchMode,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests completed (all of them — the engine absorbs faults).
    pub requests: u64,
    /// Wall-clock span from barrier release to the last client finishing.
    pub elapsed: Duration,
    /// `requests / elapsed` in requests per second.
    pub throughput_rps: f64,
    /// Median per-request wall latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request wall latency, milliseconds.
    pub p99_ms: f64,
    /// Bytes memcpy'd by framing during this point
    /// (delta of [`framing_bytes_copied`]).
    pub bytes_copied: u64,
    /// Requests whose suffix ran on the server.
    pub offloaded: u64,
    /// Requests shed by admission control.
    pub shed: u64,
}

impl BenchPoint {
    /// Fraction of requests the server shed.
    #[must_use]
    pub fn shed_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.shed as f64 / self.requests as f64
    }
}

/// The full benchmark result: every point, plus the tuning facts needed to
/// interpret them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// All measured points, baseline first, client counts ascending within
    /// each mode.
    pub points: Vec<BenchPoint>,
    /// Per-suffix execution cost charged in both modes.
    pub suffix_cost: Duration,
    /// Stable name of the transport the clients ran over
    /// (`"channel"` / `"tcp"` / `"tcp-remote"`).
    pub transport: String,
}

impl BenchReport {
    /// The point for `(mode, clients)`, if measured.
    #[must_use]
    pub fn point(&self, mode: BenchMode, clients: usize) -> Option<&BenchPoint> {
        self.points
            .iter()
            .find(|p| p.mode == mode && p.clients == clients)
    }

    /// Parallel-over-baseline throughput ratio at `clients`, when both
    /// modes measured that concurrency.
    #[must_use]
    pub fn speedup_at(&self, clients: usize) -> Option<f64> {
        let base = self.point(BenchMode::Baseline, clients)?;
        let par = self.point(BenchMode::Parallel, clients)?;
        (base.throughput_rps > 0.0).then(|| par.throughput_rps / base.throughput_rps)
    }

    /// Serializes to the `BENCH_serving.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("mode".into(), Json::Str(p.mode.name().into())),
                    ("clients".into(), Json::Num(p.clients as f64)),
                    ("requests".into(), Json::Num(p.requests as f64)),
                    ("elapsed_secs".into(), Json::Num(p.elapsed.as_secs_f64())),
                    ("throughput_rps".into(), Json::Num(p.throughput_rps)),
                    ("p50_ms".into(), Json::Num(p.p50_ms)),
                    ("p99_ms".into(), Json::Num(p.p99_ms)),
                    ("bytes_copied".into(), Json::Num(p.bytes_copied as f64)),
                    ("offloaded".into(), Json::Num(p.offloaded as f64)),
                    ("shed_ratio".into(), Json::Num(p.shed_ratio())),
                ])
            })
            .collect();
        let speedup = self
            .points
            .iter()
            .filter(|p| p.mode == BenchMode::Parallel)
            .filter_map(|p| {
                self.speedup_at(p.clients)
                    .map(|s| (p.clients.to_string(), Json::Num(s)))
            })
            .collect();
        Json::Obj(vec![
            ("benchmark".into(), Json::Str("serving".into())),
            ("transport".into(), Json::Str(self.transport.clone())),
            (
                "suffix_cost_ms".into(),
                Json::Num(self.suffix_cost.as_secs_f64() * 1e3),
            ),
            ("points".into(), Json::Arr(points)),
            ("speedup".into(), Json::Obj(speedup)),
        ])
    }

    /// Renders a fixed-width summary table for the terminal.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "serving benchmark — {:.1} ms/suffix\n{:>8}  {:>7}  {:>10}  {:>8}  {:>8}  {:>12}  {:>6}\n",
            self.suffix_cost.as_secs_f64() * 1e3,
            "mode",
            "clients",
            "req/s",
            "p50 ms",
            "p99 ms",
            "copied bytes",
            "shed"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>8}  {:>7}  {:>10.1}  {:>8.2}  {:>8.2}  {:>12}  {:>5.1}%\n",
                p.mode.name(),
                p.clients,
                p.throughput_rps,
                p.p50_ms,
                p.p99_ms,
                p.bytes_copied,
                p.shed_ratio() * 100.0
            ));
        }
        for p in &self.points {
            if p.mode == BenchMode::Parallel {
                if let Some(s) = self.speedup_at(p.clients) {
                    out.push_str(&format!("speedup at {:>2} clients: {s:.2}x\n", p.clients));
                }
            }
        }
        out
    }
}

/// Forces the pre-PR client framing: delegates only the contiguous
/// [`FrameChannel::send`]/[`FrameChannel::recv_deadline`], so the default
/// split methods flatten every outgoing frame into one freshly copied
/// buffer — exactly what the wire did before zero-copy framing.
struct LegacyChannel<'a, C: FrameChannel + ?Sized>(&'a C);

impl<C: FrameChannel + ?Sized> FrameChannel for LegacyChannel<'_, C> {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        self.0.send(frame)
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        self.0.recv_deadline(deadline)
    }
}

/// Runs the full benchmark: both modes at every configured concurrency.
///
/// # Panics
///
/// Panics if a client thread or the server panics mid-measurement — a
/// benchmark over a broken runtime has no meaningful result.
#[must_use]
pub fn serving_bench(config: &BenchConfig) -> BenchReport {
    let graph = Arc::new(lp_models::alexnet(1));
    let (user, edge) = crate::system::trained_models(config.samples_per_kind, config.seed);
    // A remote server cannot be re-tuned into the legacy baseline: measure
    // only the tuned serving path against it.
    let modes: &[BenchMode] = if matches!(config.transport, BenchTransport::Remote(_)) {
        &[BenchMode::Parallel]
    } else {
        &[BenchMode::Baseline, BenchMode::Parallel]
    };
    let mut points = Vec::new();
    for &mode in modes {
        for &clients in &config.client_counts {
            points.push(run_point(mode, clients, &graph, &user, &edge, config));
        }
    }
    BenchReport {
        points,
        suffix_cost: config.suffix_cost,
        transport: config.transport.name().to_string(),
    }
}

/// The server end of one measurement point: a locally spawned handle, its
/// socket front-end, or an externally managed `loadpart serve` process.
enum ServerEnd {
    Handle(ServerHandle),
    Socket(SocketServer),
    Remote,
}

impl ServerEnd {
    fn connect(&self, config: &BenchConfig) -> Box<dyn FrameChannel + Send> {
        match self {
            ServerEnd::Handle(handle) => Box::new(handle.connect()),
            ServerEnd::Socket(sock) => {
                Box::new(TcpFrameChannel::connect(sock.local_addr()).expect("connect bench client"))
            }
            ServerEnd::Remote => {
                let BenchTransport::Remote(addr) = &config.transport else {
                    unreachable!("ServerEnd::Remote only under BenchTransport::Remote");
                };
                Box::new(
                    TcpFrameChannel::connect(addr.as_str()).expect("connect remote bench server"),
                )
            }
        }
    }

    /// Stops a locally spawned server; a remote one is left running.
    fn finish(self) {
        match self {
            ServerEnd::Handle(handle) => {
                handle.shutdown().expect("clean server shutdown");
            }
            ServerEnd::Socket(sock) => {
                sock.shutdown().expect("clean server shutdown");
            }
            ServerEnd::Remote => {}
        }
    }
}

fn run_point(
    mode: BenchMode,
    clients: usize,
    graph: &Arc<ComputationGraph>,
    user: &PredictionModels,
    edge: &PredictionModels,
    config: &BenchConfig,
) -> BenchPoint {
    let tuning = match mode {
        BenchMode::Baseline => ServerTuning {
            suffix_cost: config.suffix_cost,
            ..ServerTuning::single_threaded_legacy()
        },
        BenchMode::Parallel => ServerTuning {
            suffix_cost: config.suffix_cost,
            ..ServerTuning::default()
        },
    };
    let spawn = || {
        spawn_server_tuned(
            Arc::clone(graph),
            edge.clone(),
            LoadEnv::new(1.0),
            ServerFaultSpec::default(),
            None,
            &Telemetry::disabled(),
            tuning,
        )
    };
    let server = match &config.transport {
        BenchTransport::Channel => ServerEnd::Handle(spawn()),
        BenchTransport::Tcp => ServerEnd::Socket(
            SocketServer::bind_tcp("127.0.0.1:0", spawn()).expect("bind bench server"),
        ),
        BenchTransport::Remote(_) => ServerEnd::Remote,
    };
    let copied_before = framing_bytes_copied();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for i in 0..clients {
        let conn = server.connect(config);
        let mut client = ThreadedClient::with_config(
            Arc::clone(graph),
            user,
            edge,
            EngineConfig {
                decision_memo: mode == BenchMode::Parallel,
                seed: config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                ..EngineConfig::default()
            },
        )
        .expect("bench engine config is valid");
        let start = Arc::clone(&barrier);
        let rounds = config.requests_per_client;
        let bandwidth = config.bandwidth_mbps;
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut latencies = Vec::with_capacity(rounds);
            let mut offloaded = 0u64;
            let mut shed = 0u64;
            for _ in 0..rounds {
                let t0 = Instant::now();
                let record = match mode {
                    BenchMode::Baseline => client.infer(&LegacyChannel(&*conn), bandwidth),
                    BenchMode::Parallel => client.infer(&*conn, bandwidth),
                }
                .expect("engine degradation absorbs wire faults");
                latencies.push(t0.elapsed());
                if record.rejected {
                    shed += 1;
                } else if record.offloaded() {
                    offloaded += 1;
                }
            }
            (latencies, offloaded, shed)
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let mut latencies = Vec::with_capacity(clients * config.requests_per_client);
    let mut offloaded = 0u64;
    let mut shed = 0u64;
    for handle in handles {
        let (lat, off, sh) = handle.join().expect("bench client thread panicked");
        latencies.extend(lat);
        offloaded += off;
        shed += sh;
    }
    let elapsed = t0.elapsed();
    server.finish();
    let bytes_copied = framing_bytes_copied().saturating_sub(copied_before);
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let throughput_rps = if elapsed.is_zero() {
        0.0
    } else {
        requests as f64 / elapsed.as_secs_f64()
    };
    BenchPoint {
        mode,
        clients,
        requests,
        elapsed,
        throughput_rps,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        bytes_copied,
        offloaded,
        shed,
    }
}

/// Configuration of the fleet-scale session sweep behind
/// `loadpart bench --sessions-sweep`: many persistent sessions over
/// loopback TCP, driven by a *bounded* pool of driver threads (the
/// thread-per-client loop of the serving benchmark does not survive 1024
/// sessions).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Session counts to measure, in order.
    pub session_counts: Vec<usize>,
    /// Requests each session issues per measurement point.
    pub requests_per_session: usize,
    /// Driver threads in the bounded pool; `0` derives
    /// `clamp(sessions / 4, 8, 64)` per point, so offered concurrency
    /// grows with the fleet until the pool's 64-thread bound.
    pub driver_threads: usize,
    /// Per-suffix (or per coalesced batch) execution cost on the server.
    pub suffix_cost: Duration,
    /// Continuous-batching depth ([`ServerTuning::max_batch`]) and the
    /// batch-aware admission depth, applied to the spawned server.
    pub max_batch: usize,
    /// Event-driven shards for the socket front-end.
    pub shards: usize,
    /// Client-side bandwidth estimate injected per request (Mbps).
    pub bandwidth_mbps: f64,
    /// Training-set size for the prediction models (shared, memoized).
    pub samples_per_kind: usize,
    /// RNG seed (models and per-session engine seeds derive from it).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            session_counts: vec![64, 128, 256, 512, 1024],
            requests_per_session: 4,
            driver_threads: 0,
            suffix_cost: Duration::from_millis(2),
            max_batch: 16,
            shards: default_shards(),
            bandwidth_mbps: 8.0,
            samples_per_kind: 150,
            seed: 42,
        }
    }
}

impl FleetConfig {
    /// The CI smoke configuration: small fleets, short run.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            session_counts: vec![16, 32, 64],
            requests_per_session: 2,
            suffix_cost: Duration::from_millis(1),
            samples_per_kind: 64,
            ..Self::default()
        }
    }

    /// The driver-pool size for one point.
    #[must_use]
    fn drivers_for(&self, sessions: usize) -> usize {
        if self.driver_threads > 0 {
            self.driver_threads.min(sessions.max(1))
        } else {
            (sessions / 4).clamp(8, 64).min(sessions.max(1))
        }
    }
}

/// One measured fleet point.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// Concurrent persistent sessions.
    pub sessions: usize,
    /// Driver threads that multiplexed them.
    pub drivers: usize,
    /// Requests completed.
    pub requests: u64,
    /// Wall-clock span from barrier release to the last driver finishing.
    pub elapsed: Duration,
    /// `requests / elapsed` in requests per second.
    pub throughput_rps: f64,
    /// Median per-request wall latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request wall latency, milliseconds.
    pub p99_ms: f64,
    /// Requests whose suffix ran on the server.
    pub offloaded: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// `server.batched_suffixes_total`: suffixes that executed inside a
    /// coalesced batch of ≥ 2.
    pub batched_suffixes: u64,
    /// `server.suffix_batches_total`: coalesced batch executions.
    pub suffix_batches: u64,
}

impl FleetPoint {
    /// Fraction of requests the server shed.
    #[must_use]
    pub fn shed_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.shed as f64 / self.requests as f64
    }
}

/// The full fleet-sweep result, serializable to `BENCH_fleet.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// All measured points, session counts ascending.
    pub points: Vec<FleetPoint>,
    /// Event-driven shard count.
    pub shards: usize,
    /// Continuous-batching depth.
    pub max_batch: usize,
    /// Per-suffix (per-batch) execution cost charged.
    pub suffix_cost: Duration,
}

impl FleetReport {
    /// Total suffixes that executed inside coalesced batches.
    #[must_use]
    pub fn batched_suffixes_total(&self) -> u64 {
        self.points.iter().map(|p| p.batched_suffixes).sum()
    }

    /// Serializes to the `BENCH_fleet.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("sessions".into(), Json::Num(p.sessions as f64)),
                    ("drivers".into(), Json::Num(p.drivers as f64)),
                    ("requests".into(), Json::Num(p.requests as f64)),
                    ("elapsed_secs".into(), Json::Num(p.elapsed.as_secs_f64())),
                    ("throughput_rps".into(), Json::Num(p.throughput_rps)),
                    ("p50_ms".into(), Json::Num(p.p50_ms)),
                    ("p99_ms".into(), Json::Num(p.p99_ms)),
                    ("offloaded".into(), Json::Num(p.offloaded as f64)),
                    ("shed_ratio".into(), Json::Num(p.shed_ratio())),
                    (
                        "batched_suffixes".into(),
                        Json::Num(p.batched_suffixes as f64),
                    ),
                    ("suffix_batches".into(), Json::Num(p.suffix_batches as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("benchmark".into(), Json::Str("fleet".into())),
            ("transport".into(), Json::Str("tcp".into())),
            ("shards".into(), Json::Num(self.shards as f64)),
            ("max_batch".into(), Json::Num(self.max_batch as f64)),
            (
                "suffix_cost_ms".into(),
                Json::Num(self.suffix_cost.as_secs_f64() * 1e3),
            ),
            ("points".into(), Json::Arr(points)),
            (
                "batched_suffixes_total".into(),
                Json::Num(self.batched_suffixes_total() as f64),
            ),
        ])
    }

    /// Renders a fixed-width summary table for the terminal.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "fleet sweep — {} shards, batch {}, {:.1} ms/suffix\n{:>9}  {:>7}  {:>10}  {:>8}  {:>8}  {:>8}  {:>7}\n",
            self.shards,
            self.max_batch,
            self.suffix_cost.as_secs_f64() * 1e3,
            "sessions",
            "drivers",
            "req/s",
            "p50 ms",
            "p99 ms",
            "batched",
            "shed"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>9}  {:>7}  {:>10.1}  {:>8.2}  {:>8.2}  {:>8}  {:>6.1}%\n",
                p.sessions,
                p.drivers,
                p.throughput_rps,
                p.p50_ms,
                p.p99_ms,
                p.batched_suffixes,
                p.shed_ratio() * 100.0
            ));
        }
        out
    }
}

/// Runs the fleet sweep: every configured session count over loopback TCP
/// against a freshly spawned event-driven socket server with continuous
/// batching and batch-aware admission enabled.
///
/// # Panics
///
/// Panics if a driver thread or the server panics mid-measurement — a
/// benchmark over a broken runtime has no meaningful result.
#[must_use]
pub fn fleet_bench(config: &FleetConfig) -> FleetReport {
    let graph = Arc::new(lp_models::alexnet(1));
    let (user, edge) = crate::system::trained_models(config.samples_per_kind, config.seed);
    let tuning = ServerTuning {
        suffix_cost: config.suffix_cost,
        max_batch: config.max_batch.max(1),
        ..ServerTuning::default()
    };
    let mut points = Vec::new();
    for &sessions in &config.session_counts {
        points.push(run_fleet_point(
            sessions, &graph, &user, &edge, config, tuning,
        ));
    }
    FleetReport {
        points,
        shards: config.shards.max(1),
        max_batch: tuning.max_batch,
        suffix_cost: config.suffix_cost,
    }
}

fn run_fleet_point(
    sessions: usize,
    graph: &Arc<ComputationGraph>,
    user: &PredictionModels,
    edge: &PredictionModels,
    config: &FleetConfig,
    tuning: ServerTuning,
) -> FleetPoint {
    let telemetry = Telemetry::enabled();
    let server = spawn_server_tuned(
        Arc::clone(graph),
        edge.clone(),
        LoadEnv::new(1.0),
        ServerFaultSpec::default(),
        // Batch-aware admission with an unbounded budget: the sweep
        // measures capacity, not shedding — `shed_ratio` stays 0 and the
        // open-batch join path is still exercised.
        Some(AdmissionConfig::unbounded().with_max_batch(tuning.max_batch)),
        &telemetry,
        tuning,
    );
    let sock = SocketServer::bind_tcp_sharded("127.0.0.1:0", server, config.shards)
        .expect("bind fleet server");
    let addr = sock.local_addr().to_string();
    let drivers = config.drivers_for(sessions);
    let barrier = Arc::new(Barrier::new(drivers + 1));
    let mut handles = Vec::with_capacity(drivers);
    for d in 0..drivers {
        // Driver `d` owns sessions d, d+drivers, d+2*drivers, … — each a
        // persistent connection + engine reused across every round.
        let owned: Vec<usize> = (d..sessions).step_by(drivers).collect();
        let mut lanes = Vec::with_capacity(owned.len());
        for s in owned {
            let conn = TcpFrameChannel::connect(addr.as_str()).expect("connect fleet session");
            let client = ThreadedClient::with_config(
                Arc::clone(graph),
                user,
                edge,
                EngineConfig {
                    seed: config.seed ^ (s as u64).wrapping_mul(0x9E37_79B9),
                    ..EngineConfig::default()
                },
            )
            .expect("fleet engine config is valid");
            lanes.push((client, conn));
        }
        let start = Arc::clone(&barrier);
        let rounds = config.requests_per_session;
        let bandwidth = config.bandwidth_mbps;
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut latencies = Vec::with_capacity(rounds * lanes.len());
            let mut offloaded = 0u64;
            let mut shed = 0u64;
            for _ in 0..rounds {
                for (client, conn) in &mut lanes {
                    let t0 = Instant::now();
                    let record = client
                        .infer(&*conn, bandwidth)
                        .expect("engine degradation absorbs wire faults");
                    latencies.push(t0.elapsed());
                    if record.rejected {
                        shed += 1;
                    } else if record.offloaded() {
                        offloaded += 1;
                    }
                }
            }
            (latencies, offloaded, shed)
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let mut latencies = Vec::with_capacity(sessions * config.requests_per_session);
    let mut offloaded = 0u64;
    let mut shed = 0u64;
    for handle in handles {
        let (lat, off, sh) = handle.join().expect("fleet driver thread panicked");
        latencies.extend(lat);
        offloaded += off;
        shed += sh;
    }
    let elapsed = t0.elapsed();
    sock.shutdown().expect("clean fleet server shutdown");
    let snapshot = telemetry.snapshot().expect("telemetry enabled");
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let throughput_rps = if elapsed.is_zero() {
        0.0
    } else {
        requests as f64 / elapsed.as_secs_f64()
    };
    FleetPoint {
        sessions,
        drivers,
        requests,
        elapsed,
        throughput_rps,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        offloaded,
        shed,
        batched_suffixes: snapshot.counter("server.batched_suffixes_total"),
        suffix_batches: snapshot.counter("server.suffix_batches_total"),
    }
}

/// Nearest-rank percentile of an ascending-sorted latency sample, in
/// milliseconds.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            client_counts: vec![1, 2],
            requests_per_client: 3,
            suffix_cost: Duration::from_micros(200),
            samples_per_kind: 64,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn bench_measures_every_mode_and_count() {
        let report = serving_bench(&tiny_config());
        assert_eq!(report.points.len(), 4, "2 modes x 2 counts");
        for p in &report.points {
            assert_eq!(p.requests, p.clients as u64 * 3);
            assert!(p.throughput_rps > 0.0, "{p:?}");
            assert!(p.p99_ms >= p.p50_ms, "{p:?}");
            assert!(p.offloaded > 0, "8 Mbps must offload: {p:?}");
            assert_eq!(p.shed, 0, "unbounded admission never sheds");
        }
        assert!(report.speedup_at(2).is_some());
        // The baseline's copying framing must show up in the copied-byte
        // accounting; AlexNet's conv1 output tensor alone is hundreds of
        // kilobytes per offload.
        let base = report.point(BenchMode::Baseline, 2).expect("measured");
        assert!(base.bytes_copied > 100_000, "{}", base.bytes_copied);
    }

    #[test]
    fn report_serializes_to_parseable_json() {
        let report = serving_bench(&BenchConfig {
            client_counts: vec![1],
            requests_per_client: 2,
            suffix_cost: Duration::ZERO,
            samples_per_kind: 64,
            ..BenchConfig::default()
        });
        let text = report.to_json().to_string_pretty();
        let parsed = lp_json::Json::parse(&text).expect("round-trips");
        assert_eq!(
            parsed.get("benchmark").and_then(Json::as_str),
            Some("serving")
        );
        let points = parsed
            .get("points")
            .and_then(Json::as_arr)
            .expect("points array");
        assert_eq!(points.len(), 2);
        for p in points {
            assert!(p.get("throughput_rps").and_then(Json::as_f64).is_some());
            assert!(p.get("clients").and_then(Json::as_f64).is_some());
        }
        assert!(report.render_table().contains("req/s"));
    }

    /// A tiny measurement over loopback TCP: both modes still run (the
    /// harness spawns and tunes the server itself) and the JSON names the
    /// transport.
    #[test]
    fn bench_runs_over_loopback_tcp() {
        let report = serving_bench(&BenchConfig {
            client_counts: vec![1, 2],
            requests_per_client: 2,
            suffix_cost: Duration::ZERO,
            samples_per_kind: 64,
            transport: BenchTransport::Tcp,
            ..BenchConfig::default()
        });
        assert_eq!(report.points.len(), 4, "2 modes x 2 counts");
        for p in &report.points {
            assert_eq!(p.requests, p.clients as u64 * 2);
            assert!(p.throughput_rps > 0.0, "{p:?}");
            assert!(p.offloaded > 0, "8 Mbps must offload over TCP: {p:?}");
        }
        let json = report.to_json();
        assert_eq!(json.get("transport").and_then(Json::as_str), Some("tcp"));
    }

    /// A miniature fleet sweep: two points over loopback TCP, monotone
    /// request accounting, parseable `BENCH_fleet.json` shape.
    #[test]
    fn fleet_bench_small_sweep_round_trips() {
        let report = fleet_bench(&FleetConfig {
            session_counts: vec![4, 8],
            requests_per_session: 2,
            driver_threads: 2,
            suffix_cost: Duration::from_micros(500),
            samples_per_kind: 64,
            ..FleetConfig::default()
        });
        assert_eq!(report.points.len(), 2);
        for (p, sessions) in report.points.iter().zip([4usize, 8]) {
            assert_eq!(p.sessions, sessions);
            assert_eq!(p.requests, sessions as u64 * 2, "{p:?}");
            assert_eq!(p.drivers, 2);
            assert!(p.throughput_rps > 0.0, "{p:?}");
            assert!(p.p99_ms >= p.p50_ms, "{p:?}");
            assert_eq!(p.shed, 0, "unbounded admission never sheds: {p:?}");
            assert!(p.offloaded > 0, "8 Mbps must offload: {p:?}");
        }
        let text = report.to_json().to_string_pretty();
        let parsed = lp_json::Json::parse(&text).expect("round-trips");
        assert_eq!(
            parsed.get("benchmark").and_then(Json::as_str),
            Some("fleet")
        );
        let points = parsed
            .get("points")
            .and_then(Json::as_arr)
            .expect("points array");
        assert_eq!(points.len(), 2);
        for p in points {
            for key in [
                "sessions",
                "throughput_rps",
                "p50_ms",
                "p99_ms",
                "batched_suffixes",
                "suffix_batches",
            ] {
                assert!(p.get(key).and_then(Json::as_f64).is_some(), "missing {key}");
            }
        }
        assert!(report.render_table().contains("sessions"));
    }

    /// Driver auto-scaling grows with the fleet and respects its bounds.
    #[test]
    fn fleet_driver_autoscaling_is_bounded() {
        let auto = FleetConfig::default();
        assert_eq!(auto.drivers_for(4), 4, "never more drivers than sessions");
        assert_eq!(auto.drivers_for(64), 16);
        assert_eq!(auto.drivers_for(256), 64);
        assert_eq!(auto.drivers_for(1024), 64, "pool bound holds");
        let fixed = FleetConfig {
            driver_threads: 12,
            ..FleetConfig::default()
        };
        assert_eq!(fixed.drivers_for(256), 12);
        assert_eq!(fixed.drivers_for(4), 4);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert!((percentile_ms(&ms, 0.50) - 50.0).abs() < 2.0);
        assert!((percentile_ms(&ms, 0.99) - 99.0).abs() < 2.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }
}

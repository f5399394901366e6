//! The wire workloads: `nproc` closed-loop sessions, each a client thread
//! with its own loopback TCP connection, against one in-process server
//! (`spawn_server_tuned` with the default tuning and no admission budget,
//! behind `SocketServer::bind_tcp`). Nothing is injected: no suffix cost,
//! no emulated link, and the server's environment stays idle (`k` = 1).

use crate::calib::Calibrator;
use crate::check::{self, Counts, Tally, UploadSizes};
use crate::layers;
use crate::procfs::{self, TICKS_PER_SEC};
use crate::report::{account, properties, Metric, Report};
use crate::spans::{summarize, SpanLog, TracedChannel};
use crate::stats::{mean, ratio, Inputs};
use crate::timing::{self, Slice, Timing};
use crate::{ms_since, trained, SetupLayers};
use loadpart::policy::LoadPartPolicy;
use loadpart::{
    framing_bytes_copied, pool, spawn_server_tuned, EngineConfig, FrameChannel, LoadEnv,
    MemoPolicy, MetricsSnapshot, PartitionPolicy, PartitionSolver, Policy, Precision, QuantPolicy,
    ServerFaultSpec, ServerTuning, SocketServer, TcpFrameChannel, Telemetry, ThreadedClient,
    DEFAULT_ACCURACY_BUDGET,
};
use lp_graph::ComputationGraph;
use lp_json::Json;
use lp_profiler::PredictionModels;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Requests each session completes before the timed phase, so the memo,
/// the partition caches and the payload pool are warm.
const WARMUP_REQUESTS: usize = 64;

/// Length of a timed slice. Short, so that a burst of host steal spoils
/// few slices and leaves many calm ones; long enough that each slice
/// holds several hundred requests for its own percentiles.
const SLICE: Duration = Duration::from_millis(250);

/// The decision layer a wire workload's clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePolicy {
    /// Algorithm 1 behind the engine's decision memo, at one constant
    /// bandwidth per run.
    LoadPart,
    /// `QuantPolicy` at `DEFAULT_ACCURACY_BUDGET` (never memoized), at a
    /// fresh bandwidth per request.
    Quant,
}

/// One wire workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSpec {
    /// Model name (`lp_models::by_name`).
    pub model: &'static str,
    /// Decision layer and bandwidth process.
    pub policy: WirePolicy,
}

/// Band the `LoadPart` workload draws its one bandwidth per run from;
/// AlexNet keeps one cut point across it.
pub const STEADY_MBPS: (f64, f64) = (7.9, 8.1);

/// Per-request bandwidth range of the `Quant` workload: a log-uniform
/// draw from `DRIFT_POINTS` log-spaced values.
pub const DRIFT_MBPS: (f64, f64) = (0.5, 64.0);

/// Distinct bandwidths of the `Quant` workload. Finite, so the checks
/// replay each distinct input once instead of once per request.
pub const DRIFT_POINTS: u64 = 1024;

impl WireSpec {
    fn client(
        &self,
        graph: &Arc<ComputationGraph>,
        user: &PredictionModels,
        edge: &PredictionModels,
        seed: u64,
    ) -> ThreadedClient {
        let config = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        match self.policy {
            WirePolicy::LoadPart => {
                ThreadedClient::with_config(Arc::clone(graph), user, edge, config)
            }
            WirePolicy::Quant => ThreadedClient::with_policy(
                Arc::clone(graph),
                Box::new(QuantPolicy::for_graph(graph, DEFAULT_ACCURACY_BUDGET)),
                user,
                edge,
                config,
            ),
        }
        .expect("the default engine configuration is valid")
    }

    /// A replica of the policy a session runs, for the checks, and
    /// whether it is a pure function of its input.
    #[must_use]
    pub fn replica(&self, graph: &ComputationGraph) -> (Box<dyn PartitionPolicy>, bool) {
        match self.policy {
            WirePolicy::LoadPart => (Box::new(MemoPolicy::new(Policy::LoadPart.build())), false),
            WirePolicy::Quant => (
                Box::new(QuantPolicy::for_graph(graph, DEFAULT_ACCURACY_BUDGET)),
                true,
            ),
        }
    }

    /// The bare decision policy, without the memo.
    #[must_use]
    pub fn bare_policy(&self, graph: &ComputationGraph) -> Box<dyn PartitionPolicy> {
        match self.policy {
            WirePolicy::LoadPart => Box::new(LoadPartPolicy),
            WirePolicy::Quant => Box::new(QuantPolicy::for_graph(graph, DEFAULT_ACCURACY_BUDGET)),
        }
    }

    /// The bandwidth each request of session `session` injects.
    pub fn bandwidths(&self, seed: u64, session: usize) -> impl FnMut() -> f64 {
        let policy = self.policy;
        let steady = {
            let mut run = Inputs::new(seed, u64::MAX);
            STEADY_MBPS.0 + run.unit() * (STEADY_MBPS.1 - STEADY_MBPS.0)
        };
        let mut draws = Inputs::new(seed, session as u64);
        move || match policy {
            WirePolicy::LoadPart => steady,
            WirePolicy::Quant => draws.log_uniform(DRIFT_MBPS.0, DRIFT_MBPS.1, DRIFT_POINTS),
        }
    }
}

/// What one session did.
struct Session {
    /// Counts over the timed records.
    counts: Counts,
    /// Healthy and all offloads, warm-up included.
    offloads: (u64, u64),
    error: Option<String>,
    errors: u64,
    cpu_ticks: u64,
    connect_ms: f64,
    warmup_ms: f64,
    memo_hits: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_entries: usize,
    spans: Option<SpanLog>,
}

/// Shared, read-only state every session thread borrows.
struct Ctx<'a> {
    spec: WireSpec,
    graph: &'a Arc<ComputationGraph>,
    user: &'a PredictionModels,
    edge: &'a PredictionModels,
    solver: &'a PartitionSolver,
    sizes: &'a UploadSizes,
    addr: &'a str,
    seed: u64,
    slice: Duration,
    slices: usize,
    telemetry: &'a Telemetry,
    epoch: Instant,
    barrier: &'a Barrier,
    /// Latencies of the current slice's requests, ms, from every session.
    latencies: &'a Mutex<Vec<f64>>,
}

fn session(ctx: &Ctx<'_>, index: usize) -> Session {
    let started = Instant::now();
    let conn = TcpFrameChannel::connect(ctx.addr).expect("connect to the loopback server");
    let mut client = ctx
        .spec
        .client(ctx.graph, ctx.user, ctx.edge, ctx.seed ^ index as u64);
    if ctx.telemetry.is_enabled() {
        client.set_telemetry(ctx.telemetry.clone());
    }
    let connect_ms = ms_since(started);
    let mut s = if ctx.telemetry.is_enabled() {
        let log = RefCell::new(SpanLog::new(ctx.epoch));
        let mut s = drive(
            ctx,
            index,
            &mut client,
            &TracedChannel::new(&conn, &log),
            Some(&log),
        );
        s.spans = Some(log.into_inner());
        s
    } else {
        drive(ctx, index, &mut client, &conn, None)
    };
    s.connect_ms = connect_ms;
    s
}

/// Warms the session up, waits for every other session, then runs the
/// closed loop slice by slice, checking each record as it arrives.
fn drive<C: FrameChannel>(
    ctx: &Ctx<'_>,
    index: usize,
    client: &mut ThreadedClient,
    channel: &C,
    log: Option<&RefCell<SpanLog>>,
) -> Session {
    let (replica, pure) = ctx.spec.replica(ctx.graph);
    let mut tally = Tally::new(index, ctx.solver, ctx.sizes, replica, pure);
    let mut bandwidth = ctx.spec.bandwidths(ctx.seed, index);
    let started = Instant::now();
    for _ in 0..WARMUP_REQUESTS {
        match client.infer(channel, bandwidth()) {
            Ok(r) => tally.observe(&r),
            Err(e) => panic!("warm-up request failed: {e}"),
        }
    }
    let warmup_ms = ms_since(started);
    tally.restart_counts();
    if let Some(log) = log {
        log.borrow_mut().clear();
    }
    let memo0 = client.engine().decision_memo_hits();
    let cache0 = client.engine().device_cache().stats();
    let mut errors = 0;
    ctx.barrier.wait();
    let cpu0 = procfs::own_thread_cpu_ticks();
    for _ in 0..ctx.slices {
        // Every session starts and ends each slice together; between
        // slices the program is idle while the host is calibrated.
        ctx.barrier.wait();
        let slice_end = Instant::now() + ctx.slice;
        let mut latencies_ms = Vec::new();
        loop {
            let begin = Instant::now();
            if begin >= slice_end {
                break;
            }
            let bw = bandwidth();
            if let Some(log) = log {
                log.borrow_mut().begin_request();
            }
            let result = client.infer(channel, bw);
            let elapsed = begin.elapsed();
            if let Some(log) = log {
                log.borrow_mut().end_request();
            }
            match result {
                Ok(r) => {
                    tally.observe(&r);
                    latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                }
                Err(_) => errors += 1,
            }
        }
        ctx.latencies
            .lock()
            .expect("no session panics holding the latencies")
            .extend(latencies_ms);
        ctx.barrier.wait();
    }
    let cpu_ticks = procfs::own_thread_cpu_ticks() - cpu0;
    let cache1 = client.engine().device_cache().stats();
    Session {
        offloads: tally.offloads(),
        error: tally.error().map(str::to_owned),
        counts: tally.counts,
        errors,
        cpu_ticks,
        connect_ms: 0.0,
        warmup_ms,
        memo_hits: client.engine().decision_memo_hits() - memo0,
        cache_hits: cache1.hits - cache0.hits,
        cache_lookups: cache1.hits + cache1.misses - cache0.hits - cache0.misses,
        cache_entries: client.engine().device_cache().len(),
        spans: None,
    }
}

/// The server's thread groups. The socket shards (`loadpart-mux-*`) and
/// suffix workers (`loadpart-suffix-*`) carry names; the session mux
/// thread is spawned unnamed, so it is known by the id of the unnamed
/// thread `spawn_server_tuned` started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Transport,
    Mux,
    Workers,
}

/// CPU ticks of every live server thread, by thread id.
fn server_cpu(mux: &BTreeSet<u32>) -> BTreeMap<u32, (Group, u64)> {
    procfs::threads()
        .into_iter()
        .filter_map(|t| {
            let group = if t.comm.starts_with("loadpart-mux") {
                Group::Transport
            } else if t.comm.starts_with("loadpart-suffix") {
                Group::Workers
            } else if mux.contains(&t.tid) {
                Group::Mux
            } else {
                return None;
            };
            Some((t.tid, (group, t.ticks)))
        })
        .collect()
}

/// CPU ticks `group` spent between two readings.
fn group_ticks(
    before: &BTreeMap<u32, (Group, u64)>,
    after: &BTreeMap<u32, (Group, u64)>,
    group: Group,
) -> u64 {
    after
        .iter()
        .filter(|(_, (g, _))| *g == group)
        .map(|(tid, (_, ticks))| ticks - before.get(tid).map_or(0, |b| b.1))
        .sum()
}

fn write_spans(path: &Path, sessions: &[Session]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    for (i, s) in sessions.iter().enumerate() {
        if let Some(log) = &s.spans {
            log.write_jsonl(i, &mut out)?;
        }
    }
    out.flush()
}

/// Process-wide readings taken at both ends of the timed phase.
struct Snapshot {
    steal_ticks: u64,
    loadavg: f64,
    server: BTreeMap<u32, (Group, u64)>,
    pool: (u64, u64),
    copied: u64,
    counters: Option<MetricsSnapshot>,
}

impl Snapshot {
    fn take(telemetry: &Telemetry, mux: &BTreeSet<u32>) -> Self {
        Self {
            steal_ticks: procfs::steal_ticks(),
            loadavg: procfs::loadavg_1m(),
            server: if mux.is_empty() {
                BTreeMap::new()
            } else {
                server_cpu(mux)
            },
            pool: pool::stats(),
            copied: framing_bytes_copied(),
            counters: telemetry.snapshot(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.as_ref().map_or(0, |c| c.counter(name))
    }

    fn decision_secs(&self) -> f64 {
        self.counters
            .as_ref()
            .and_then(|c| c.histogram("engine.decision_seconds"))
            .map_or(0.0, |h| h.sum_secs)
    }
}

/// Runs one wire workload: set-up, then (for `seconds > 0`) the timed
/// closed loop with its checks, and the metrics. `traced` adds the client
/// spans, written to `spans_out`, and the program's telemetry.
///
/// # Panics
///
/// Panics when set-up fails (no loopback socket, a failed warm-up
/// request) or a thread panics: a run over a broken runtime has no
/// result.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(
    spec: WireSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    start: Instant,
    spans_out: Option<&Path>,
) -> Report {
    let mut setup = SetupLayers::default();
    let t = Instant::now();
    let graph = Arc::new(lp_models::by_name(spec.model, 1).expect("known model"));
    setup.build_ms = ms_since(t);
    let t = Instant::now();
    let (user, edge) = trained();
    setup.train_ms = ms_since(t);
    let solver = PartitionSolver::new(&graph, &user, &edge);
    let sizes = UploadSizes::new(&graph, &solver);
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let tids = || -> BTreeSet<u32> { procfs::threads().iter().map(|t| t.tid).collect() };
    let existing = if traced { tids() } else { BTreeSet::new() };
    let t = Instant::now();
    let server = spawn_server_tuned(
        Arc::clone(&graph),
        edge.clone(),
        LoadEnv::new(1.0),
        ServerFaultSpec::default(),
        None,
        &telemetry,
        ServerTuning::default(),
    );
    let socket = SocketServer::bind_tcp("127.0.0.1:0", server).expect("bind a loopback port");
    setup.spawn_ms = ms_since(t);
    let mux: BTreeSet<u32> = if traced {
        procfs::threads()
            .into_iter()
            .filter(|t| !existing.contains(&t.tid) && !t.comm.starts_with("loadpart-"))
            .map(|t| t.tid)
            .collect()
    } else {
        BTreeSet::new()
    };
    let sessions = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let (slice, count) = if seconds > 0.0 {
        timing::plan(seconds, SLICE)
    } else {
        (Duration::ZERO, 0)
    };
    let barrier = Barrier::new(sessions + 1);
    let latencies = Mutex::new(Vec::new());
    let ctx = Ctx {
        spec,
        graph: &graph,
        user: &user,
        edge: &edge,
        solver: &solver,
        sizes: &sizes,
        addr: socket.local_addr(),
        seed,
        slice,
        slices: count,
        telemetry: &telemetry,
        epoch: start,
        barrier: &barrier,
        latencies: &latencies,
    };
    let mut calibrator = Calibrator::new();
    let (setup_raw, setup_speed, slices, before, results, after) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let ctx = &ctx;
                std::thread::Builder::new()
                    .name(format!("perfbench-cli-{i}"))
                    .spawn_scoped(s, move || session(ctx, i))
                    .expect("spawn a session thread")
            })
            .collect();
        barrier.wait();
        let setup_raw = start.elapsed().as_secs_f64();
        let setup_speed = calibrator.speed();
        let mut speed = setup_speed;
        let before = Snapshot::take(&telemetry, &mux);
        let mut slices = Vec::with_capacity(count);
        for _ in 0..count {
            let (at, ticks, steal) = (
                Instant::now(),
                procfs::process_cpu_ticks(),
                procfs::steal_ticks(),
            );
            barrier.wait();
            barrier.wait();
            let mut slice = Slice {
                wall_s: at.elapsed().as_secs_f64(),
                ticks: procfs::process_cpu_ticks() - ticks,
                steal: procfs::steal_ticks() - steal,
                ..Slice::default()
            };
            let taken =
                std::mem::take(&mut *latencies.lock().expect("sessions wait at the barrier"));
            slice.requests = taken.len() as u64;
            slice.reduce_latencies(taken);
            let next = calibrator.speed();
            slice.speed = (speed + next) / 2.0;
            speed = next;
            slices.push(slice);
        }
        let after = Snapshot::take(&telemetry, &mux);
        let results: Vec<Session> = handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect();
        (setup_raw, setup_speed, slices, before, results, after)
    });
    let served = socket.shutdown().expect("the server shuts down cleanly");
    let peak_rss = procfs::peak_rss_mib();

    setup.connect_ms = mean(&results.iter().map(|r| r.connect_ms).collect::<Vec<_>>());
    setup.warmup_ms = mean(&results.iter().map(|r| r.warmup_ms).collect::<Vec<_>>());
    let mut report = Report {
        setup_s: setup_raw * setup_speed,
        layers: setup.metrics(setup_speed),
        raw: vec![Metric::new("setup_s", setup_raw, "s", 1)],
        ..Report::default()
    };
    if count == 0 {
        return report;
    }

    let mut counts = Counts::default();
    let mut offloads = (0, 0);
    for r in &results {
        counts.absorb(&r.counts);
        offloads.0 += r.offloads.0;
        offloads.1 += r.offloads.1;
        report.fail(r.error.clone().map_or(Ok(()), Err));
    }
    report.fail(check::served(offloads, served));
    account(&mut report, &counts, results.iter().map(|r| r.errors).sum());
    let done = report.completed as f64;
    let n = report.completed;
    let scaled = timing::timing(&slices, true);
    let measured = timing::timing(&slices, false);
    let e2e = |t: &Timing| {
        vec![
            Metric::new("throughput_rps", t.throughput_rps, "1/s", n),
            Metric::new("latency_p50_ms", t.p50_ms, "ms", t.samples),
            Metric::new("latency_p99_ms", t.p99_ms, "ms", t.samples),
            Metric::new("cpu_us_per_req", t.cpu_us_per_req, "us", n),
        ]
    };
    report.metrics = e2e(&scaled);
    report.metrics.extend([
        Metric::new("peak_rss_mb", peak_rss, "MiB", 1),
        // The wire runtime runs no device model and no link (both take
        // zero logical time), so its simulated end-to-end latency is the
        // decision's modelled one: device prefix + upload at the injected
        // bandwidth + the server suffix, which the idle server charges at
        // its predicted time.
        Metric::new(
            "sim_latency_mean_ms",
            ratio(counts.predicted_ms, done),
            "ms",
            n,
        ),
    ]);
    report.raw.extend(e2e(&measured));

    let memo_hits: u64 = results.iter().map(|r| r.memo_hits).sum();
    report.properties = properties(&counts, graph.len(), memo_hits);
    report.env = vec![
        ("transport", Json::Str("tcp-loopback".into())),
        ("sessions", Json::Num(sessions as f64)),
        ("model", Json::Str(spec.model.into())),
        ("host_speed", Json::Num(timing::mean_speed(&slices))),
        (
            "steal_s",
            Json::Num((after.steal_ticks - before.steal_ticks) as f64 / TICKS_PER_SEC),
        ),
        ("loadavg_start", Json::Num(before.loadavg)),
        ("loadavg_end", Json::Num(after.loadavg)),
        (
            "timed_wall_s",
            Json::Num(slices.iter().map(|s| s.wall_s).sum()),
        ),
    ];
    if !traced {
        return report;
    }

    // Thread-group CPU is read over the whole timed phase; scaling it by
    // the CPU-weighted host speed makes the groups add up to the scaled
    // `cpu_us_per_req`. Span times are scaled by the mean host speed,
    // replayed times by a calibration taken just before the replays.
    let total_ticks: u64 = slices.iter().map(|s| s.ticks).sum();
    let cpu_speed = ratio(
        slices.iter().map(|s| s.ticks as f64 * s.speed).sum(),
        total_ticks as f64,
    );
    let us_per_req = |ticks: u64| ratio(ticks as f64 * 1e6 / TICKS_PER_SEC * cpu_speed, done);
    let cpu = |group| group_ticks(&before.server, &after.server, group);
    let (transport, mux, workers) = (cpu(Group::Transport), cpu(Group::Mux), cpu(Group::Workers));
    let clients: u64 = results.iter().map(|r| r.cpu_ticks).sum();
    let other = total_ticks.saturating_sub(transport + mux + workers + clients);
    let speed = timing::mean_speed(&slices);
    report.env.push((
        "cpu_us_per_req_whole_phase",
        Json::Num(us_per_req(total_ticks)),
    ));
    let spans = summarize(results.iter().filter_map(|r| r.spans.as_ref()));
    if let Some(path) = spans_out {
        report.fail(write_spans(path, &results).map_err(|e| format!("writing spans: {e}")));
    }
    let frames: Vec<_> = results
        .iter()
        .filter_map(|r| r.spans.as_ref())
        .flat_map(|l| l.frames().iter().cloned())
        .collect();
    let replay_speed = calibrator.speed();
    let (encode_ns, decode_ns) = layers::codec_ns_per_frame(&frames);
    let kernels = layers::quant_kernels(&counts);
    let decide_us = layers::decide_us_mean(&solver, &counts.inputs, spec.bare_policy(&graph));
    let narrow: u64 = counts
        .cuts
        .iter()
        .filter(|((_, q), _)| *q != Precision::Fp32.wire())
        .map(|(_, c)| c.count)
        .sum();
    let offloaded = counts.offloads();
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let offloads_served = delta("server.offloads_served_total");
    let executions = offloads_served - delta("server.batched_suffixes_total")
        + delta("server.suffix_batches_total");
    let pool_hits = (after.pool.0 - before.pool.0) as f64;
    let pool_lookups = pool_hits + (after.pool.1 - before.pool.1) as f64;
    let spans_n = spans.requests;
    report.layers.extend([
        Metric::new("transport.cpu_us_per_req", us_per_req(transport), "us", n),
        Metric::new("threaded.mux_cpu_us_per_req", us_per_req(mux), "us", n),
        Metric::new(
            "threaded.worker_cpu_us_per_req",
            us_per_req(workers),
            "us",
            n,
        ),
        Metric::new("engine.cpu_us_per_req", us_per_req(clients), "us", n),
        Metric::new("other.cpu_us_per_req", us_per_req(other), "us", n),
        Metric::new(
            "transport.exchanges_per_req",
            spans.exchanges_per_req,
            "count",
            spans_n,
        ),
        Metric::new(
            "transport.bytes_up_per_req",
            spans.bytes_up_per_req,
            "B",
            spans_n,
        ),
        Metric::new(
            "transport.bytes_down_per_req",
            spans.bytes_down_per_req,
            "B",
            spans_n,
        ),
        Metric::new(
            "transport.rtt_offload_us_p50",
            spans.rtt_offload_us_p50 * speed,
            "us",
            spans_n,
        ),
        Metric::new(
            "transport.rtt_offload_us_p99",
            spans.rtt_offload_us_p99 * speed,
            "us",
            spans_n,
        ),
        Metric::new(
            "transport.rtt_control_us_p50",
            spans.rtt_control_us_p50 * speed,
            "us",
            spans_n,
        ),
        Metric::new(
            "transport.send_us_p50",
            spans.send_us_p50 * speed,
            "us",
            spans_n,
        ),
        Metric::new(
            "engine.self_us_p50",
            spans.self_us_p50 * speed,
            "us",
            spans_n,
        ),
        Metric::new("policy.decide_us_mean", decide_us * replay_speed, "us", n),
        Metric::new(
            "policy.memo_hit_ratio",
            ratio(memo_hits as f64, done),
            "ratio",
            n,
        ),
        Metric::new(
            "cache.hit_ratio",
            ratio(
                results.iter().map(|r| r.cache_hits).sum::<u64>() as f64,
                results.iter().map(|r| r.cache_lookups).sum::<u64>() as f64,
            ),
            "ratio",
            n,
        ),
        Metric::new(
            "cache.entries",
            results.iter().map(|r| r.cache_entries).sum::<usize>() as f64,
            "count",
            results.len() as u64,
        ),
        Metric::new(
            "protocol.encode_ns_per_frame",
            encode_ns * replay_speed,
            "ns",
            frames.len() as u64,
        ),
        Metric::new(
            "protocol.decode_ns_per_frame",
            decode_ns * replay_speed,
            "ns",
            frames.len() as u64,
        ),
        Metric::new(
            "protocol.bytes_copied_per_req",
            ratio((after.copied - before.copied) as f64, done),
            "B",
            n,
        ),
        Metric::new(
            "pool.hit_ratio",
            ratio(pool_hits, pool_lookups),
            "ratio",
            pool_lookups as u64,
        ),
        Metric::new("quant.narrow_share", ratio(narrow as f64, done), "ratio", n),
        Metric::new(
            "quant.sent_over_raw",
            ratio(offloaded.uploaded as f64, offloaded.raw as f64),
            "ratio",
            offloaded.count,
        ),
        Metric::new(
            "quant.kernel_us_per_req",
            ratio(kernels.total_us * replay_speed, done),
            "us",
            n,
        ),
        Metric::new(
            "quant.kernel_over_saved",
            ratio(kernels.total_us * replay_speed / 1e6, kernels.saved_s),
            "ratio",
            narrow,
        ),
        Metric::new(
            "threaded.frames_per_req",
            ratio(delta("server.frames_total"), done),
            "count",
            n,
        ),
        Metric::new(
            "threaded.batch_size_mean",
            ratio(offloads_served, executions),
            "count",
            executions as u64,
        ),
        Metric::new(
            "engine.decide_share",
            ratio(
                after.decision_secs() - before.decision_secs(),
                slices.iter().map(|s| s.wall_s).sum::<f64>() * sessions as f64,
            ),
            "ratio",
            n,
        ),
        Metric::new("multi_client.other_us_per_req", 0.0, "us", 0),
        Metric::new("multi_client.gpu_utilization", 0.0, "ratio", 0),
        Metric::new("multi_client.final_k", 0.0, "factor", 0),
        Metric::new(
            "engine.offload_share",
            ratio(offloaded.count as f64, done),
            "ratio",
            n,
        ),
        Metric::new("host.speed_factor", speed, "factor", slices.len() as u64),
    ]);
    report
}

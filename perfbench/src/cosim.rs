//! The co-simulated workload: `multi_client_run` with eight LoADPart
//! clients sharing one simulated edge GPU (InceptionV3, 8 Mbps), on one
//! thread and without sockets. The timed phase repeats one seeded episode
//! back to back; every episode must produce the warm-up episode's records.
//! The latency metrics are the wall time of one episode.

use crate::calib::Calibrator;
use crate::check::{Counts, Tally, UploadSizes};
use crate::layers;
use crate::procfs::{self, TICKS_PER_SEC};
use crate::report::{account, properties, Metric, Report};
use crate::stats::ratio;
use crate::timing::{self, Slice, Timing};
use crate::{ms_since, trained, SetupLayers};
use loadpart::policy::LoadPartPolicy;
use loadpart::{
    multi_client_run_with_telemetry, InferenceRecord, MemoPolicy, MetricsSnapshot,
    MultiClientConfig, MultiClientReport, PartitionSolver, Policy, Telemetry,
};
use lp_graph::ComputationGraph;
use lp_json::Json;
use lp_profiler::PredictionModels;
use lp_sim::SimDuration;
use std::time::{Duration, Instant};

/// Clients sharing the GPU.
pub const CLIENTS: usize = 8;

/// Simulated length of one episode.
pub const EPISODE: SimDuration = SimDuration::from_secs(120);

/// Length of a timed slice: a whole number of episodes of about a second.
const SLICE: Duration = Duration::from_secs(1);

/// The episode's records split per client, each in request order.
fn per_client(report: &MultiClientReport) -> Vec<Vec<InferenceRecord>> {
    let mut out = vec![Vec::new(); CLIENTS];
    for r in &report.records {
        out[r.client].push(*r);
    }
    for records in &mut out {
        records.sort_by_key(|r| r.request_id);
    }
    out
}

/// What the simulation thread measured.
struct Timed {
    first: MultiClientReport,
    warmup_ms: f64,
    setup_raw: f64,
    setup_speed: f64,
    /// Slices, with `requests` still counted in episodes.
    slices: Vec<Slice>,
    /// CPU ticks of the simulation thread within the slices.
    thread_ticks: u64,
    /// The first timed episode whose records differ from `first`.
    mismatch: Option<usize>,
    steal_s: f64,
    loadavg: (f64, f64),
    before: Option<MetricsSnapshot>,
    after: Option<MetricsSnapshot>,
}

fn timed_phase(
    graph: &ComputationGraph,
    models: &(PredictionModels, PredictionModels),
    seed: u64,
    seconds: f64,
    telemetry: &Telemetry,
    start: Instant,
) -> Timed {
    let config = MultiClientConfig {
        n_clients: CLIENTS,
        bandwidth_mbps: 8.0,
        duration: EPISODE,
        seed,
        ..MultiClientConfig::default()
    };
    let episode = || {
        multi_client_run_with_telemetry(graph, &models.0, &models.1, &config, telemetry)
            .expect("valid multi-client configuration")
    };
    let t = Instant::now();
    let first = episode();
    let warmup_ms = ms_since(t);
    let setup_raw = start.elapsed().as_secs_f64();
    let mut calibrator = Calibrator::new();
    let mut speed = calibrator.speed();
    let setup_speed = speed;
    let before = telemetry.snapshot();
    let (steal0, load0) = (procfs::steal_ticks(), procfs::loadavg_1m());
    let (slice, count) = if seconds > 0.0 {
        timing::plan(seconds, SLICE)
    } else {
        (Duration::ZERO, 0)
    };
    let mut slices = Vec::with_capacity(count);
    let mut thread_ticks = 0;
    let mut mismatch = None;
    let mut episodes = 0;
    for _ in 0..count {
        let t0 = Instant::now();
        let (process0, thread0, steal0) = (
            procfs::process_cpu_ticks(),
            procfs::own_thread_cpu_ticks(),
            procfs::steal_ticks(),
        );
        let mut latencies_ms = Vec::new();
        while latencies_ms.is_empty() || t0.elapsed() < slice {
            let e0 = Instant::now();
            let again = episode();
            latencies_ms.push(ms_since(e0));
            episodes += 1;
            if mismatch.is_none() && again != first {
                mismatch = Some(episodes);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let ticks = procfs::process_cpu_ticks() - process0;
        let steal = procfs::steal_ticks() - steal0;
        thread_ticks += procfs::own_thread_cpu_ticks() - thread0;
        // The host is calibrated between slices, while nothing else runs.
        let next = calibrator.speed();
        slices.push(Slice {
            wall_s,
            ticks,
            steal,
            requests: latencies_ms.len() as u64,
            latencies_ms,
            speed: (speed + next) / 2.0,
            ..Slice::default()
        });
        speed = next;
    }
    Timed {
        warmup_ms,
        setup_raw,
        setup_speed,
        slices,
        thread_ticks,
        mismatch,
        steal_s: (procfs::steal_ticks() - steal0) as f64 / TICKS_PER_SEC,
        loadavg: (load0, procfs::loadavg_1m()),
        before,
        after: telemetry.snapshot(),
        first,
    }
}

/// Runs the co-simulated workload; see [`crate::wire::run`] for the
/// arguments.
///
/// # Panics
///
/// Panics when the simulation rejects its configuration or its thread
/// panics.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, traced: bool, start: Instant) -> Report {
    let mut setup = SetupLayers::default();
    let t = Instant::now();
    let graph = lp_models::inception_v3(1);
    setup.build_ms = ms_since(t);
    let t = Instant::now();
    let models = trained();
    setup.train_ms = ms_since(t);
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    // The simulation runs on a named thread, so its CPU is read like a
    // wire session's.
    let mut timed = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("perfbench-cli-0".into())
            .spawn_scoped(s, || {
                timed_phase(&graph, &models, seed, seconds, &telemetry, start)
            })
            .expect("spawn the simulation thread")
            .join()
            .expect("simulation thread panicked")
    });
    let peak_rss = procfs::peak_rss_mib();
    setup.warmup_ms = timed.warmup_ms;
    let mut report = Report {
        setup_s: timed.setup_raw * timed.setup_speed,
        layers: setup.metrics(timed.setup_speed),
        raw: vec![Metric::new("setup_s", timed.setup_raw, "s", 1)],
        ..Report::default()
    };
    if timed.slices.is_empty() {
        return report;
    }

    let first = &timed.first;
    let (user, edge) = &models;
    let solver = PartitionSolver::new(&graph, user, edge);
    let sizes = UploadSizes::new(&graph, &solver);
    let mut counts = Counts::default();
    let mut memo_hits = 0;
    for (client, records) in per_client(first).iter().enumerate() {
        let replica = Box::new(MemoPolicy::new(Policy::LoadPart.build()));
        let mut tally = Tally::new(client, &solver, &sizes, replica, false);
        for r in records {
            tally.observe(r);
        }
        report.fail(tally.error().map_or(Ok(()), |e| Err(e.to_owned())));
        counts.absorb(&tally.counts);
        memo_hits += tally.memo_hits();
    }
    if let Some(i) = timed.mismatch {
        report.fail(Err(format!(
            "timed episode {i} differs from the warm-up episode of the same seed"
        )));
    }
    // Every timed episode repeats `first`, so its counts stand for each.
    let per_episode = counts.records;
    let episodes: u64 = timed.slices.iter().map(|s| s.requests).sum();
    for s in &mut timed.slices {
        s.requests *= per_episode;
    }
    account(&mut report, &counts, 0);
    report.completed *= episodes;
    report.attempted *= episodes;
    report.failed *= episodes;
    report.retries *= episodes;
    let done = report.completed as f64;
    let n = report.completed;
    let slices = &timed.slices;
    let e2e = |t: &Timing| {
        vec![
            Metric::new("throughput_rps", t.throughput_rps, "1/s", n),
            Metric::new("latency_p50_ms", t.p50_ms, "ms", t.samples),
            Metric::new("latency_p99_ms", t.p99_ms, "ms", t.samples),
            Metric::new("cpu_us_per_req", t.cpu_us_per_req, "us", n),
        ]
    };
    report.metrics = e2e(&timing::timing(slices, true));
    report.metrics.extend([
        Metric::new("peak_rss_mb", peak_rss, "MiB", 1),
        Metric::new(
            "sim_latency_mean_ms",
            ratio(counts.total_ms, counts.records as f64),
            "ms",
            counts.records,
        ),
    ]);
    report.raw.extend(e2e(&timing::timing(slices, false)));
    report.properties = properties(&counts, graph.len(), memo_hits);
    let wall: f64 = slices.iter().map(|s| s.wall_s).sum();
    let speed = timing::mean_speed(slices);
    report.env = vec![
        ("transport", Json::Str("none (co-simulation)".into())),
        ("sessions", Json::Num(CLIENTS as f64)),
        ("model", Json::Str("inceptionv3".into())),
        ("host_speed", Json::Num(speed)),
        ("steal_s", Json::Num(timed.steal_s)),
        ("loadavg_start", Json::Num(timed.loadavg.0)),
        ("loadavg_end", Json::Num(timed.loadavg.1)),
        ("timed_wall_s", Json::Num(wall)),
        ("episodes", Json::Num(episodes as f64)),
    ];
    if !traced {
        return report;
    }

    // CPU is scaled by the CPU-weighted host speed, replayed times by a
    // calibration taken just before the replays.
    let total_ticks: u64 = slices.iter().map(|s| s.ticks).sum();
    let cpu_speed = ratio(
        slices.iter().map(|s| s.ticks as f64 * s.speed).sum(),
        total_ticks as f64,
    );
    let us_per_req = |ticks: u64| ratio(ticks as f64 * 1e6 / TICKS_PER_SEC * cpu_speed, done);
    report.env.push((
        "cpu_us_per_req_whole_phase",
        Json::Num(us_per_req(total_ticks)),
    ));
    let counter =
        |s: &Option<MetricsSnapshot>, name: &str| s.as_ref().map_or(0, |s| s.counter(name)) as f64;
    let delta = |name: &str| counter(&timed.after, name) - counter(&timed.before, name);
    let decide_s = {
        let sum = |s: &Option<MetricsSnapshot>| {
            s.as_ref()
                .and_then(|s| s.histogram("engine.decision_seconds"))
                .map_or(0.0, |h| h.sum_secs)
        };
        sum(&timed.after) - sum(&timed.before)
    };
    let replay_speed = Calibrator::new().speed();
    let decide_us = layers::decide_us_mean(&solver, &counts.inputs, Box::new(LoadPartPolicy));
    let offloads = counts.offloads();
    let zero = |name: &'static str, unit: &'static str| Metric::new(name, 0.0, unit, 0);
    report.layers.extend([
        zero("transport.cpu_us_per_req", "us"),
        zero("threaded.mux_cpu_us_per_req", "us"),
        zero("threaded.worker_cpu_us_per_req", "us"),
        Metric::new(
            "engine.cpu_us_per_req",
            us_per_req(timed.thread_ticks),
            "us",
            n,
        ),
        Metric::new(
            "other.cpu_us_per_req",
            us_per_req(total_ticks.saturating_sub(timed.thread_ticks)),
            "us",
            n,
        ),
        zero("transport.exchanges_per_req", "count"),
        zero("transport.bytes_up_per_req", "B"),
        zero("transport.bytes_down_per_req", "B"),
        zero("transport.rtt_offload_us_p50", "us"),
        zero("transport.rtt_offload_us_p99", "us"),
        zero("transport.rtt_control_us_p50", "us"),
        zero("transport.send_us_p50", "us"),
        zero("engine.self_us_p50", "us"),
        Metric::new(
            "policy.decide_us_mean",
            decide_us * replay_speed,
            "us",
            per_episode,
        ),
        Metric::new(
            "policy.memo_hit_ratio",
            ratio(
                delta("engine.decision_memo_hits_total"),
                delta("engine.requests_total"),
            ),
            "ratio",
            n,
        ),
        Metric::new(
            "cache.hit_ratio",
            ratio(
                delta("engine.cache_hits_total"),
                delta("engine.cache_hits_total") + delta("engine.cache_misses_total"),
            ),
            "ratio",
            n,
        ),
        Metric::new(
            "cache.entries",
            ratio(delta("engine.cache_misses_total"), episodes as f64),
            "count",
            episodes,
        ),
        zero("protocol.encode_ns_per_frame", "ns"),
        zero("protocol.decode_ns_per_frame", "ns"),
        zero("protocol.bytes_copied_per_req", "B"),
        zero("pool.hit_ratio", "ratio"),
        zero("quant.narrow_share", "ratio"),
        Metric::new(
            "quant.sent_over_raw",
            ratio(offloads.uploaded as f64, offloads.raw as f64),
            "ratio",
            offloads.count,
        ),
        zero("quant.kernel_us_per_req", "us"),
        zero("quant.kernel_over_saved", "ratio"),
        zero("threaded.frames_per_req", "count"),
        zero("threaded.batch_size_mean", "count"),
        Metric::new("engine.decide_share", ratio(decide_s, wall), "ratio", n),
        Metric::new(
            "multi_client.other_us_per_req",
            ratio((wall - decide_s) * speed * 1e6, done),
            "us",
            n,
        ),
        Metric::new(
            "multi_client.gpu_utilization",
            first.gpu_utilization,
            "ratio",
            per_episode,
        ),
        Metric::new("multi_client.final_k", first.final_k, "factor", per_episode),
        Metric::new(
            "engine.offload_share",
            ratio(offloads.count as f64, per_episode as f64),
            "ratio",
            per_episode,
        ),
        Metric::new("host.speed_factor", speed, "factor", slices.len() as u64),
    ]);
    report
}

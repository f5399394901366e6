//! `loadpart` — command-line front end to the reproduction.
//!
//! ```text
//! loadpart models
//! loadpart decide    --model alexnet --bandwidth 8 [--k 1.0] [--samples 200] [--seed 42]
//! loadpart curve     --model alexnet --bandwidth 8 [--k 1.0]
//! loadpart partition --model alexnet --p 8 [--dot]
//! loadpart faults    [--model alexnet] [--crash-after 5] [--bandwidth 8]
//! loadpart report    [--model squeezenet] [--clients 4] [--duration 30] [--trace spans.jsonl]
//! loadpart chaos     [--model alexnet] [--clients 8] [--rounds 13] [--spike-k 40] [--transport tcp]
//! loadpart chaos     --cluster [--clients 4] [--rounds 65] [--transport tcp | --connect A,B,C] [--no-failover] [--policy loadpart]
//! loadpart compare   [--quick] [--out report.json] [--requests 320] [--windows 8]
//! loadpart serve     [--model alexnet] [--listen 127.0.0.1:0 | --uds /tmp/lp.sock] [--k 1.0] [--shards 2] [--no-admission]
//! loadpart smoke     --connect HOST:PORT | --uds PATH [--requests 5] [--latency-ms 20] [--rate-mbps 8] [--shutdown-server]
//! ```
//!
//! `decide` runs the offline profiler (training the NNLS prediction models
//! on the calibrated hardware models) and prints Algorithm 1's choice;
//! `curve` prints the whole `t_p` landscape; `partition` materialises a
//! Figure 5 split and summarises both sides (optionally as Graphviz DOT);
//! `faults` demos the fault-tolerant wire runtime: a scripted server crash
//! mid-session, local-fallback degradation, and recovery on a fresh server;
//! `report` runs a multi-client experiment with the telemetry layer enabled
//! and prints the metrics registry (optionally exporting per-request trace
//! spans as JSONL); `chaos` runs the chaos soak in one of its two presets.
//! The default is the overload-protection soak — N clients through a
//! scripted GPU load spike against one admission-controlled server, with
//! per-client shed/breaker outcomes and the metrics registry (its
//! wall-clock means left out, so a seeded soak prints the same report on
//! every run); `--cluster`
//! is the multi-server preset — a heterogeneous fleet, a scripted
//! mid-soak outage on the preferred server and a later load spike on it,
//! asserting that traffic migrates to the other servers, nothing is lost,
//! the run replays bit-identically and the recovered server is readmitted
//! (`--no-failover` pins every client to the first server instead);
//! `compare` races every registered partition policy (plus the bandit
//! online learner and the oracle) through the nonstationary-load,
//! miscalibrated-device-model and drifting-bandwidth scenarios, reporting
//! per-policy latency and regret-vs-oracle (it prints its table, and
//! writes its JSON report only to the file `--out` names);
//! `serve` exposes the threaded server over a real
//! TCP (or Unix-domain) socket and blocks until a client shuts it down over
//! the wire; `smoke` connects to a running `serve` from a separate process,
//! measures wall-clock bandwidth, runs a handful of inferences — optionally
//! through the deterministic link emulator (latency / jitter / rate limit /
//! stalls / connection reset) — and can send the shutdown frame.

use loadpart::policy::build_for;
#[cfg(unix)]
use loadpart::UdsFrameChannel;
use loadpart::{
    chaos_run, compare_policies, measure_bandwidth, multi_client_run_with_telemetry, spawn_server,
    spawn_server_tuned, AdmissionConfig, ChaosConfig, ChaosTransport, CompareConfig, EmulatedLink,
    EngineConfig, FrameChannel, InferenceRecord, JsonlSink, LinkSpec, LoadEnv, Message,
    MultiClientConfig, PartitionSolver, PolicyContext, Precision, ServerFaultSpec, ServerTuning,
    SocketServer, TcpFrameChannel, Telemetry, ThreadedClient,
};
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            // Tolerate a closed pipe (`loadpart ... | head`) instead of
            // panicking like println! would.
            let _ = writeln!(std::io::stdout(), "{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  loadpart models
  loadpart decide    --model <name> --bandwidth <Mbps> [--k <factor>] [--policy <name>] [--samples <n>] [--seed <n>]
  loadpart curve     --model <name> --bandwidth <Mbps> [--k <factor>] [--policy <name>] [--samples <n>] [--seed <n>]
  loadpart partition --model <name> --p <point> [--dot]
  loadpart faults    [--model <name>] [--crash-after <frames>] [--bandwidth <Mbps>] [--samples <n>] [--seed <n>]
  loadpart report    [--model <name>] [--clients <n>] [--duration <secs>] [--bandwidth <Mbps>] [--samples <n>] [--seed <n>] [--trace <file.jsonl>]
  loadpart chaos     [--model <name>] [--clients <n>] [--rounds <n>] [--spike-k <factor>] [--bandwidth <Mbps>] [--samples <n>] [--seed <n>] [--transport channel|tcp]
  loadpart chaos     --cluster [--model <name>] [--clients <n>] [--rounds <n>] [--outage-start <round>] [--outage-rounds <n>]
                     [--samples <n>] [--seed <n>] [--policy <name>] [--no-failover] [--transport channel|tcp | --connect <a:p1,b:p2,c:p3>]
  loadpart compare   [--quick] [--out <file.json>] [--requests <n>] [--windows <n>] [--samples <n>] [--seed <n>]
  loadpart serve     [--model <name>] [--listen <host:port> | --uds <path>] [--k <factor>] [--shards <n>] [--no-admission] [--samples <n>] [--seed <n>]
  loadpart smoke     --connect <host:port> | --uds <path> [--model <name>] [--requests <n>] [--samples <n>] [--seed <n>]
                     [--latency-ms <ms>] [--jitter-ms <ms>] [--rate-mbps <Mbps>] [--stall-every <n>] [--stall-ms <ms>] [--reset-after <frames>] [--link-seed <n>]
                     [--shutdown-server]";

/// A subcommand's handler.
type Handler = fn(&HashMap<String, String>) -> Result<String, String>;

/// Every subcommand: its name, the mode flag that selects it (`chaos
/// --cluster`), the other flags it accepts, as listed in [`USAGE`], and
/// its handler. A mode's entry comes before its subcommand's plain entry.
const COMMANDS: &[(&str, Option<&str>, &str, Handler)] = &[
    ("models", None, "", |_| Ok(cmd_models())),
    (
        "decide",
        None,
        "model bandwidth k policy samples seed",
        |f| cmd_decide(f, false),
    ),
    (
        "curve",
        None,
        "model bandwidth k policy samples seed",
        |f| cmd_decide(f, true),
    ),
    ("partition", None, "model p dot", cmd_partition),
    (
        "faults",
        None,
        "model crash-after bandwidth samples seed",
        cmd_faults,
    ),
    (
        "report",
        None,
        "model clients duration bandwidth samples seed trace",
        cmd_report,
    ),
    (
        "chaos",
        Some("cluster"),
        "model clients rounds outage-start outage-rounds samples seed policy no-failover \
         transport connect",
        cmd_chaos_cluster,
    ),
    (
        "chaos",
        None,
        "model clients rounds spike-k bandwidth samples seed transport",
        cmd_chaos,
    ),
    (
        "compare",
        None,
        "quick out requests windows samples seed",
        cmd_compare,
    ),
    (
        "serve",
        None,
        "model listen uds k shards no-admission samples seed",
        cmd_serve,
    ),
    (
        "smoke",
        None,
        "connect uds model requests samples seed latency-ms jitter-ms rate-mbps stall-every \
         stall-ms reset-after link-seed shutdown-server",
        cmd_smoke,
    ),
];

/// Parses `--key value` pairs (and bare `--flag`s) after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {:?}", args[i]))?;
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key.to_string(), String::new());
            i += 1;
        }
    }
    Ok(flags)
}

/// Parses a numeric flag. A value that reads as NaN or an infinity is
/// rejected here for every flag, so no range check or `Duration`
/// conversion downstream ever sees one.
fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) if v.parse::<f64>().is_ok_and(|x| !x.is_finite()) => {
            Err(format!("invalid value for --{key}: {v:?} (must be finite)"))
        }
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        None => default.ok_or_else(|| format!("missing required flag --{key}")),
    }
}

fn load_model(flags: &HashMap<String, String>) -> Result<lp_graph::ComputationGraph, String> {
    let name = flags
        .get("model")
        .ok_or_else(|| "missing required flag --model".to_string())?;
    lp_models::by_name(name, 1)
        .ok_or_else(|| format!("unknown model {name:?}; run `loadpart models` for the zoo"))
}

fn run(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no subcommand".to_string());
    };
    let flags = parse_flags(rest)?;
    let (name, mode, known, handler) = COMMANDS
        .iter()
        .find(|(name, mode, ..)| name == cmd && mode.is_none_or(|m| flags.contains_key(m)))
        .ok_or_else(|| format!("unknown subcommand {cmd:?}"))?;
    // A flag the subcommand does not know (a typo, a retired option) is an
    // error rather than a silently different run.
    let knows = |flag: &str| *mode == Some(flag) || known.split_whitespace().any(|k| k == flag);
    if let Some(flag) = flags.keys().find(|f| !knows(f)) {
        let mode = mode.map_or(String::new(), |m| format!(" --{m}"));
        return Err(format!("unknown flag --{flag} for {name}{mode}"));
    }
    handler(&flags)
}

fn cmd_models() -> String {
    let mut out = String::from("model        nodes  params(M)  GMACs  input\n");
    for g in lp_models::full_zoo(1) {
        out.push_str(&format!(
            "{:12} {:5}  {:9.1}  {:5.2}  {}\n",
            g.name().to_lowercase(),
            g.len(),
            g.total_param_bytes() as f64 / 4e6,
            lp_graph::flops::graph_flops(&g) as f64 / 1e9,
            g.input()
        ));
    }
    out
}

fn cmd_decide(flags: &HashMap<String, String>, full_curve: bool) -> Result<String, String> {
    let graph = load_model(flags)?;
    let bandwidth: f64 = get_parsed(flags, "bandwidth", None)?;
    let k: f64 = get_parsed(flags, "k", Some(1.0))?;
    let samples: usize = get_parsed(flags, "samples", Some(200))?;
    let seed: u64 = get_parsed(flags, "seed", Some(42))?;
    if bandwidth <= 0.0 {
        return Err("--bandwidth must be positive".to_string());
    }
    if k < 1.0 {
        return Err("--k must be >= 1 (constraint (1c))".to_string());
    }
    let policy_name = flags.get("policy").map_or("loadpart", String::as_str);
    let mut policy = build_for(policy_name, graph.len())?;
    let (user, edge) = loadpart::system::trained_models(samples, seed);
    let solver = PartitionSolver::new(&graph, &user, &edge);
    let mut out = String::new();
    if full_curve {
        out.push_str("  p  after                    upload KiB  predicted ms\n");
        let curve = solver.latency_curve(bandwidth, k);
        for d in &curve {
            let label = if d.p == 0 {
                "(full offload)".to_string()
            } else if d.p == graph.len() {
                format!("{} [local]", graph.nodes()[d.p - 1].name)
            } else {
                graph.nodes()[d.p - 1].name.clone()
            };
            out.push_str(&format!(
                "{:3}  {:24} {:10.0}  {:12.1}\n",
                d.p,
                label,
                solver.transmission()[d.p] as f64 / 1024.0,
                d.predicted.as_millis_f64()
            ));
        }
    }
    let d = policy.decide(&PolicyContext {
        solver: &solver,
        bandwidth_mbps: bandwidth,
        k,
        now: SimTime::ZERO,
    });
    // Fp32 is the paper's upload; only a quantized one is named.
    let precision = if d.precision == Precision::Fp32 {
        String::new()
    } else {
        format!(", {} upload", d.precision)
    };
    out.push_str(&format!(
        "{} @ {bandwidth} Mbps, k = {k} [{policy_name}]: partition after L_{} of {}{precision} -> \
         predicted {:.1} ms (device {:.1} + upload {:.1} + server {:.1})",
        graph.name(),
        d.p,
        graph.len(),
        d.predicted.as_millis_f64(),
        d.device.as_millis_f64(),
        d.upload.as_millis_f64(),
        d.server.as_millis_f64()
    ));
    Ok(out)
}

fn cmd_partition(flags: &HashMap<String, String>) -> Result<String, String> {
    let graph = load_model(flags)?;
    let p: usize = get_parsed(flags, "p", None)?;
    if p > graph.len() {
        return Err(format!(
            "--p {p} out of range 0..={} for {}",
            graph.len(),
            graph.name()
        ));
    }
    if flags.contains_key("dot") {
        return Ok(lp_graph::dot::to_dot(&graph, Some(p)));
    }
    let part = lp_graph::partition::partition_at(&graph, p).expect("checked range");
    let mut out = format!("{} partitioned after L_{p}:\n", graph.name());
    for (side, seg) in [("device", &part.device), ("server", &part.server)] {
        match seg {
            Some(s) => out.push_str(&format!(
                "  {side}: {} nodes, {} parameter(s), outputs {} tensor(s){}, ships {} KiB\n",
                s.nodes.len(),
                s.parameters.len(),
                s.outputs.len(),
                if s.needs_make_tuple() {
                    " via MakeTuple"
                } else {
                    ""
                },
                s.output_bytes() / 1024
            )),
            None => out.push_str(&format!("  {side}: (empty)\n")),
        }
    }
    out.push_str(&format!(
        "  uplink payload: {} KiB (input {} KiB)",
        part.upload_bytes(&graph) / 1024,
        graph.input().size_bytes() / 1024
    ));
    Ok(out)
}

fn cmd_faults(flags: &HashMap<String, String>) -> Result<String, String> {
    let name = flags.get("model").map_or("alexnet", String::as_str);
    let graph = lp_models::by_name(name, 1)
        .ok_or_else(|| format!("unknown model {name:?}; run `loadpart models` for the zoo"))?;
    let samples: usize = get_parsed(flags, "samples", Some(120))?;
    let seed: u64 = get_parsed(flags, "seed", Some(42))?;
    let bandwidth: f64 = get_parsed(flags, "bandwidth", Some(8.0))?;
    let crash_after: u64 = get_parsed(flags, "crash-after", Some(5))?;
    if bandwidth <= 0.0 {
        return Err("--bandwidth must be positive".to_string());
    }
    let (user, edge) = loadpart::system::trained_models(samples, seed);
    let config = EngineConfig {
        io_timeout: Duration::from_millis(200),
        retry_backoff: Duration::from_millis(1),
        ..EngineConfig::default()
    };
    let mut client = ThreadedClient::with_config(graph.clone(), &user, &edge, config)
        .map_err(|e| e.to_string())?;
    let n = graph.len();
    let row = |r: &InferenceRecord| {
        let mode = if r.fallback_local {
            "FALLBACK-LOCAL"
        } else if r.offloaded() {
            "offloaded"
        } else {
            "local"
        };
        format!(
            "req {}: p = {:2}/{n}  {:14}  retries = {}  total = {:.1} ms\n",
            r.request_id,
            r.p,
            mode,
            r.retries,
            r.total.as_millis_f64()
        )
    };
    let mut out = format!(
        "{} over the wire runtime; the server crashes after receiving {crash_after} frames\n",
        graph.name()
    );
    let server = spawn_server_tuned(
        graph.clone(),
        edge.clone(),
        LoadEnv::new(1.0),
        ServerFaultSpec {
            crash_after_frames: Some(crash_after),
            ..ServerFaultSpec::default()
        },
        None,
        &Telemetry::disabled(),
        ServerTuning,
    );
    for _ in 0..3 {
        let r = client
            .infer(&server, bandwidth)
            .map_err(|e| e.to_string())?;
        out.push_str(&row(&r));
    }
    drop(server);
    out.push_str("-- server crashed mid-session; spawning a fresh one --\n");
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut recovered = false;
    for _ in 0..3 {
        let r = client
            .infer(&server, bandwidth)
            .map_err(|e| e.to_string())?;
        recovered |= r.offloaded() && !r.fallback_local;
        out.push_str(&row(&r));
    }
    out.push_str(if recovered {
        "client re-offloads after the fault cleared: recovery complete"
    } else {
        "client still local (cooldown has not expired yet)"
    });
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(out)
}

fn cmd_report(flags: &HashMap<String, String>) -> Result<String, String> {
    let name = flags.get("model").map_or("squeezenet", String::as_str);
    let graph = lp_models::by_name(name, 1)
        .ok_or_else(|| format!("unknown model {name:?}; run `loadpart models` for the zoo"))?;
    let clients: usize = get_parsed(flags, "clients", Some(4))?;
    let duration: f64 = get_parsed(flags, "duration", Some(30.0))?;
    let bandwidth: f64 = get_parsed(flags, "bandwidth", Some(8.0))?;
    let samples: usize = get_parsed(flags, "samples", Some(120))?;
    let seed: u64 = get_parsed(flags, "seed", Some(42))?;
    if bandwidth <= 0.0 {
        return Err("--bandwidth must be positive".to_string());
    }
    if duration <= 0.0 {
        return Err("--duration must be positive".to_string());
    }
    let jsonl = match flags.get("trace") {
        Some(path) if !path.is_empty() => Some((
            path.clone(),
            JsonlSink::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?,
        )),
        Some(_) => return Err("--trace needs a file path".to_string()),
        None => None,
    };
    let telemetry = match &jsonl {
        Some((_, sink)) => Telemetry::enabled().with_sink(sink.clone()),
        None => Telemetry::enabled(),
    };
    let (user, edge) = loadpart::system::trained_models(samples, seed);
    let config = MultiClientConfig {
        n_clients: clients,
        bandwidth_mbps: bandwidth,
        duration: SimDuration::from_secs_f64(duration),
        seed,
        ..MultiClientConfig::default()
    };
    let report = multi_client_run_with_telemetry(&graph, &user, &edge, &config, &telemetry)
        .map_err(|e| e.to_string())?;
    let snapshot = telemetry.snapshot().expect("telemetry is enabled");
    let raw: u64 = report.records.iter().map(|r| r.raw_bytes).sum();
    let sent: u64 = report.records.iter().map(|r| r.uploaded_bytes).sum();
    let mut precision_counts = [0u64; 4];
    for r in &report.records {
        precision_counts[r.precision.wire() as usize] += 1;
    }
    let precisions: Vec<String> = lp_graph::Precision::ALL
        .iter()
        .map(|&q| format!("{}:{}", q.as_str(), precision_counts[q.wire() as usize]))
        .collect();
    let mut out = format!(
        "{} x {clients} client(s) @ {bandwidth} Mbps for {duration} s: {} inference(s), \
         mean latency {:.1} ms\n",
        graph.name(),
        report.records.len(),
        report.mean_latency_secs() * 1e3,
    );
    out.push_str(&format!(
        "upload bytes: {raw} raw -> {sent} sent ({} saved); precision decisions [{}]\n\n",
        raw.saturating_sub(sent),
        precisions.join(" ")
    ));
    out.push_str(&snapshot.render_table());
    if let Some((path, sink)) = jsonl {
        sink.flush()
            .map_err(|e| format!("flushing {path:?}: {e}"))?;
        out.push_str(&format!("\ntrace spans written to {path}"));
    }
    Ok(out)
}

/// The soak a `chaos` mode runs: `config`, its preset, with the flags both
/// modes share applied, then the mode's own (`mode`), validated against
/// the graph before the profiler trains. Returns the graph, the config
/// and the trained (user, edge) models.
fn chaos_setup(
    flags: &HashMap<String, String>,
    mut config: ChaosConfig,
    mode: impl FnOnce(&mut ChaosConfig) -> Result<(), String>,
) -> Result<
    (
        lp_graph::ComputationGraph,
        ChaosConfig,
        (PredictionModels, PredictionModels),
    ),
    String,
> {
    let name = flags.get("model").map_or("alexnet", String::as_str);
    let graph = lp_models::by_name(name, 1)
        .ok_or_else(|| format!("unknown model {name:?}; run `loadpart models` for the zoo"))?;
    let samples: usize = get_parsed(flags, "samples", Some(120))?;
    let seed: u64 = get_parsed(flags, "seed", Some(42))?;
    config.n_clients = get_parsed(flags, "clients", Some(config.n_clients))?;
    config.rounds = get_parsed(flags, "rounds", Some(config.rounds))?;
    config.engine.seed = seed;
    config.transport = match flags.get("transport").map(String::as_str) {
        None | Some("channel") => ChaosTransport::Channel,
        Some("tcp") => ChaosTransport::Tcp,
        Some(other) => return Err(format!("unknown transport {other:?} (channel|tcp)")),
    };
    mode(&mut config)?;
    build_for(&config.policy, graph.len())?;
    config.validate(&graph).map_err(|e| e.to_string())?;
    let models = loadpart::system::trained_models(samples, seed);
    Ok((graph, config, models))
}

/// `chaos`: the single-server soak.
fn cmd_chaos(flags: &HashMap<String, String>) -> Result<String, String> {
    let (graph, config, (user, edge)) = chaos_setup(flags, ChaosConfig::default(), |config| {
        config.spike_k = get_parsed(flags, "spike-k", Some(config.spike_k))?;
        let server = &mut config.servers[0];
        server.bandwidth_mbps = get_parsed(flags, "bandwidth", Some(server.bandwidth_mbps))?;
        Ok(())
    })?;
    let telemetry = Telemetry::enabled();
    let report = chaos_run(&graph, &user, &edge, &config, &telemetry).map_err(|e| e.to_string())?;
    let mut out = format!(
        "{} chaos soak: {} client(s), {} round(s), spike k = {} over rounds {}..{}\n\n",
        graph.name(),
        config.n_clients,
        config.rounds,
        config.spike_k,
        config.spike.start,
        config.spike.range().end,
    );
    out.push_str("client  completed  offloaded  local  shed  fallback  breaker  transitions\n");
    for c in &report.clients {
        out.push_str(&format!(
            "{:6}  {:9}  {:9}  {:5}  {:4}  {:8}  {:7}  {:11}\n",
            c.client,
            c.completed,
            c.offloaded,
            c.local,
            c.shed,
            c.fallbacks,
            format!("{:?}", c.breaker_state).to_lowercase(),
            c.breaker_transitions,
        ));
    }
    out.push_str(&format!(
        "\nserver served {} offload(s), shed {} request(s) ({} during the spike); \
         shed ratio {:.2}; worst latency {:.1} ms; breakers {}\n\n",
        report
            .servers
            .iter()
            .filter_map(|s| s.server_served)
            .sum::<u64>(),
        report.sheds,
        report.spike_sheds,
        report.shed_ratio(),
        report.max_total().as_millis_f64(),
        if report.all_breakers_closed() {
            "all closed again"
        } else {
            "NOT yet converged"
        },
    ));
    out.push_str(
        &telemetry
            .snapshot()
            .expect("telemetry is enabled")
            .render_replayable_table(),
    );
    Ok(out)
}

/// `chaos --cluster`: the multi-server failover soak.
fn cmd_chaos_cluster(flags: &HashMap<String, String>) -> Result<String, String> {
    let (graph, config, (user, edge)) = chaos_setup(flags, ChaosConfig::cluster(), |config| {
        if let Some(list) = flags.get("connect") {
            let addrs: Vec<String> = list
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if addrs.len() != config.servers.len() {
                return Err(format!(
                    "--connect needs {} comma-separated addresses (one per server), got {}",
                    config.servers.len(),
                    addrs.len()
                ));
            }
            config.transport = ChaosTransport::Remote(addrs);
        }
        if let Some(outage) = &mut config.outage {
            outage.start = get_parsed(flags, "outage-start", Some(outage.start))?;
            outage.rounds = get_parsed(flags, "outage-rounds", Some(outage.rounds))?;
        }
        if let Some(policy) = flags.get("policy") {
            config.policy.clone_from(policy);
        }
        config.failover = !flags.contains_key("no-failover");
        Ok(())
    })?;
    let telemetry = Telemetry::enabled();
    let report = chaos_run(&graph, &user, &edge, &config, &telemetry).map_err(|e| e.to_string())?;
    let replayed = if matches!(config.transport, ChaosTransport::Remote(_)) {
        // Remote servers outlive the soak and keep state between runs; the
        // replay assertion only holds for freshly spawned fleets.
        false
    } else {
        let again = chaos_run(&graph, &user, &edge, &config, &Telemetry::disabled())
            .map_err(|e| e.to_string())?;
        if again != report {
            return Err("cluster soak is not deterministic: replay diverged".to_string());
        }
        true
    };
    let outage = config.outage.unwrap_or_default();
    let mut out = format!(
        "{} cluster soak: {} server(s) over {}, {} client(s), {} round(s); outage on #{} \
         rounds {}..{}, spike k = {} on #{} rounds {}..{}\n\n",
        graph.name(),
        config.servers.len(),
        config.transport.name(),
        config.n_clients,
        config.rounds,
        outage.server,
        outage.start,
        outage.range().end,
        config.spike_k,
        config.spike.server,
        config.spike.start,
        config.spike.range().end,
    );
    out.push_str("server   attempts  served  failed  served@outage  served@spike  server-side\n");
    for (s, srv) in report.servers.iter().enumerate() {
        out.push_str(&format!(
            "{:8} {:8}  {:6}  {:6}  {:13}  {:12}  {}\n",
            srv.name,
            srv.attempts,
            srv.served,
            srv.failed,
            report.served_during(outage.range(), s),
            report.served_during(config.spike.range(), s),
            srv.server_served
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
        ));
    }
    out.push_str(&format!(
        "\ncompleted {}/{} request(s), failovers: {}, locals: {}, sheds: {}, lost: {}\n",
        report.total_completed(),
        config.n_clients * config.rounds,
        report.failovers,
        report.locals(),
        report.sheds,
        report.lost(),
    ));
    match report.readmission_round {
        Some(r) => out.push_str(&format!(
            "outage server readmitted in round {r} ({} round(s) after the outage lifted)\n",
            r - outage.range().end,
        )),
        None if outage.rounds > 0 && config.failover => {
            out.push_str("outage server was NOT readmitted\n");
        }
        None => {}
    }
    out.push_str(if replayed {
        "replay: bit-identical\n"
    } else {
        "replay: skipped (remote servers keep state between runs)\n"
    });
    if report.lost() > 0 {
        return Err(format!("{} request(s) lost", report.lost()));
    }
    out.push('\n');
    out.push_str(
        &telemetry
            .snapshot()
            .expect("telemetry is enabled")
            .render_replayable_table(),
    );
    Ok(out)
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<String, String> {
    let mut config = if flags.contains_key("quick") {
        CompareConfig::quick()
    } else {
        CompareConfig::default()
    };
    config.requests = get_parsed(flags, "requests", Some(config.requests))?;
    config.windows = get_parsed(flags, "windows", Some(config.windows))?;
    config.samples_per_kind = get_parsed(flags, "samples", Some(config.samples_per_kind))?;
    config.seed = get_parsed(flags, "seed", Some(config.seed))?;
    if config.requests == 0 {
        return Err("--requests must be positive".to_string());
    }
    if config.windows == 0 || config.windows > config.requests {
        return Err("--windows must be in 1..=requests".to_string());
    }
    // The JSON report is written only to the file `--out` names; an empty
    // `--out` is refused before the comparison starts.
    let path = flags.get("out");
    if path.is_some_and(String::is_empty) {
        return Err("--out needs a file path".to_string());
    }
    let report = compare_policies(&config);
    let mut table = report.render_table();
    match path {
        Some(path) => {
            std::fs::write(path, report.to_json().to_string_pretty())
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            table.push_str(&format!("report written to {path}"));
        }
        None => table.truncate(table.trim_end().len()),
    }
    Ok(table)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<String, String> {
    let name = flags.get("model").map_or("alexnet", String::as_str);
    let graph = lp_models::by_name(name, 1)
        .ok_or_else(|| format!("unknown model {name:?}; run `loadpart models` for the zoo"))?;
    let samples: usize = get_parsed(flags, "samples", Some(120))?;
    let seed: u64 = get_parsed(flags, "seed", Some(42))?;
    let k: f64 = get_parsed(flags, "k", Some(1.0))?;
    if k < 1.0 {
        return Err("--k must be >= 1 (constraint (1c))".to_string());
    }
    let shards: usize = get_parsed(flags, "shards", Some(loadpart::default_shards()))?;
    if shards == 0 {
        return Err("--shards must be positive".to_string());
    }
    let admission = if flags.contains_key("no-admission") {
        None
    } else {
        Some(AdmissionConfig::default())
    };
    let (_, edge) = loadpart::system::trained_models(samples, seed);
    let server = spawn_server_tuned(
        std::sync::Arc::new(graph.clone()),
        edge,
        LoadEnv::new(k),
        ServerFaultSpec::default(),
        admission,
        &Telemetry::disabled(),
        ServerTuning,
    );
    let sock = if let Some(path) = flags.get("uds") {
        if path.is_empty() {
            return Err("--uds needs a socket path".to_string());
        }
        #[cfg(unix)]
        {
            SocketServer::bind_uds_sharded(path, server, shards)
                .map_err(|e| format!("cannot bind {path:?}: {e}"))?
        }
        #[cfg(not(unix))]
        {
            drop(server);
            return Err("--uds is only available on Unix platforms".to_string());
        }
    } else {
        let listen = flags.get("listen").map_or("127.0.0.1:0", String::as_str);
        SocketServer::bind_tcp_sharded(listen, server, shards)
            .map_err(|e| format!("cannot bind {listen:?}: {e}"))?
    };
    // The clients are separate processes polling for this line: it must
    // reach them before we block in wait().
    println!(
        "{} listening on {} (k = {k}, {shards} shard(s), admission {})",
        graph.name(),
        sock.local_addr(),
        if admission.is_some() { "on" } else { "off" },
    );
    let _ = std::io::stdout().flush();
    let served = sock.wait().map_err(|e| e.to_string())?;
    Ok(format!(
        "server shut down cleanly after serving {served} offload(s)"
    ))
}

fn cmd_smoke(flags: &HashMap<String, String>) -> Result<String, String> {
    let name = flags.get("model").map_or("alexnet", String::as_str);
    let graph = lp_models::by_name(name, 1)
        .ok_or_else(|| format!("unknown model {name:?}; run `loadpart models` for the zoo"))?;
    let samples: usize = get_parsed(flags, "samples", Some(120))?;
    let seed: u64 = get_parsed(flags, "seed", Some(42))?;
    let requests: usize = get_parsed(flags, "requests", Some(5))?;
    if requests == 0 {
        return Err("--requests must be positive".to_string());
    }
    let latency_ms: f64 = get_parsed(flags, "latency-ms", Some(0.0))?;
    let jitter_ms: f64 = get_parsed(flags, "jitter-ms", Some(0.0))?;
    let rate_mbps: f64 = get_parsed(flags, "rate-mbps", Some(0.0))?;
    let stall_every: u64 = get_parsed(flags, "stall-every", Some(0))?;
    let stall_ms: f64 = get_parsed(flags, "stall-ms", Some(0.0))?;
    let link_seed: u64 = get_parsed(flags, "link-seed", Some(0))?;
    let reset_after: Option<u64> = match flags.get("reset-after") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("invalid value for --reset-after: {v:?}"))?,
        ),
        None => None,
    };
    if latency_ms < 0.0 || jitter_ms < 0.0 || rate_mbps < 0.0 || stall_ms < 0.0 {
        return Err("link parameters must be non-negative".to_string());
    }
    let spec = LinkSpec {
        latency: Duration::from_secs_f64(latency_ms / 1e3),
        jitter: Duration::from_secs_f64(jitter_ms / 1e3),
        rate_mbps,
        stall_every,
        stall: Duration::from_secs_f64(stall_ms / 1e3),
        reset_after_frames: reset_after,
        seed: link_seed,
        ..LinkSpec::default()
    };
    let emulated = spec != LinkSpec::default();
    let chan: Box<dyn FrameChannel> = if let Some(path) = flags.get("uds") {
        if path.is_empty() {
            return Err("--uds needs a socket path".to_string());
        }
        #[cfg(unix)]
        {
            Box::new(
                UdsFrameChannel::connect_path(path)
                    .map_err(|e| format!("cannot connect to {path:?}: {e}"))?,
            )
        }
        #[cfg(not(unix))]
        {
            return Err("--uds is only available on Unix platforms".to_string());
        }
    } else {
        let addr = flags
            .get("connect")
            .ok_or_else(|| "missing required flag --connect (or --uds)".to_string())?;
        Box::new(
            TcpFrameChannel::connect(addr.as_str())
                .map_err(|e| format!("cannot connect to {addr:?}: {e}"))?,
        )
    };
    let (user, edge) = loadpart::system::trained_models(samples, seed);
    let mut client = ThreadedClient::with_config(
        graph.clone(),
        &user,
        &edge,
        EngineConfig {
            io_timeout: Duration::from_millis(500),
            retry_backoff: Duration::from_millis(1),
            seed,
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut out;
    if emulated {
        let link = EmulatedLink::new(&*chan, spec);
        out = smoke_requests(&link, &mut client, &graph, requests)?;
        let stats = link.stats();
        out.push_str(&format!(
            "link: {} frame(s) sent / {} received, {} stall(s), {} held past deadline, {} reset(s)\n",
            stats.frames_sent,
            stats.frames_received,
            stats.stalls,
            stats.held_past_deadline,
            stats.resets,
        ));
    } else {
        out = smoke_requests(&*chan, &mut client, &graph, requests)?;
    }
    if flags.contains_key("shutdown-server") {
        // Over the raw channel: the emulator may have scripted itself dead
        // (connection reset), but the socket underneath is still fine.
        chan.send(Message::Shutdown.encode().expect("no payload"))
            .map_err(|e| format!("cannot shut the server down: {e}"))?;
        out.push_str("shutdown frame sent\n");
    }
    Ok(out)
}

/// Measures bandwidth through the estimator guard, then runs `requests`
/// inferences over `channel`, returning one row per request.
fn smoke_requests(
    channel: &dyn FrameChannel,
    client: &mut ThreadedClient,
    graph: &lp_graph::ComputationGraph,
    requests: usize,
) -> Result<String, String> {
    // Wall-clock probes can measure absurd loopback rates; the estimator
    // rejects non-finite and non-positive samples at the door.
    let mut estimator = lp_net::BandwidthEstimator::new(4);
    for _ in 0..2 {
        let mbps = measure_bandwidth(channel, 64 * 1024, Duration::from_secs(5))
            .map_err(|e| format!("bandwidth probe failed: {e}"))?;
        estimator.record(SimTime::ZERO, mbps);
    }
    let bandwidth = estimator.estimate_mbps().unwrap_or(8.0);
    let n = graph.len();
    let mut out = format!("measured {bandwidth:.1} Mbps over the wire\n");
    for _ in 0..requests {
        let r = client
            .infer(channel, bandwidth)
            .map_err(|e| e.to_string())?;
        let mode = if r.fallback_local {
            "FALLBACK-LOCAL"
        } else if r.rejected {
            "SHED"
        } else if r.offloaded() {
            "offloaded"
        } else {
            "local"
        };
        out.push_str(&format!(
            "req {}: p = {:2}/{n}  {:14}  retries = {}  total = {:.1} ms\n",
            r.request_id,
            r.p,
            mode,
            r.retries,
            r.total.as_millis_f64()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn models_lists_the_zoo() {
        let out = run(&argv("models")).expect("ok");
        for name in ["alexnet", "squeezenet", "inceptionv3"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn decide_picks_a_point() {
        let out = run(&argv(
            "decide --model alexnet --bandwidth 8 --samples 60 --seed 1",
        ))
        .expect("ok");
        assert!(out.contains("partition after L_"), "{out}");
    }

    #[test]
    fn curve_prints_all_points() {
        let out = run(&argv(
            "curve --model alexnet --bandwidth 8 --samples 60 --seed 1",
        ))
        .expect("ok");
        assert!(out.contains("(full offload)"));
        assert!(out.contains("[local]"));
    }

    #[test]
    fn partition_summarises_both_sides() {
        let out = run(&argv("partition --model squeezenet --p 36")).expect("ok");
        assert!(out.contains("device: 36 nodes"));
        assert!(out.contains("server: 55 nodes"));
    }

    #[test]
    fn partition_dot_emits_graphviz() {
        let out = run(&argv("partition --model alexnet --p 8 --dot")).expect("ok");
        assert!(out.starts_with("digraph"));
        assert!(out.contains("lightblue") && out.contains("lightsalmon"));
    }

    #[test]
    fn faults_demo_survives_the_crash_and_recovers() {
        let out = run(&argv("faults --samples 60 --seed 1")).expect("no panic, no hang");
        assert!(out.contains("FALLBACK-LOCAL"), "{out}");
        assert!(out.contains("recovery complete"), "{out}");
    }

    #[test]
    fn report_prints_metrics_and_exports_traces() {
        let dir = std::env::temp_dir().join("loadpart-report-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let trace = dir.join("spans.jsonl");
        let trace = trace.to_str().expect("utf-8 temp path");
        let out = run(&argv(&format!(
            "report --clients 2 --duration 5 --samples 60 --seed 1 --trace {trace}"
        )))
        .expect("ok");
        assert!(out.contains("engine.requests_total"), "{out}");
        assert!(out.contains("engine.decision_seconds"), "{out}");
        assert!(out.contains("trace spans written"), "{out}");
        let jsonl = std::fs::read_to_string(trace).expect("trace file");
        let first = jsonl.lines().next().expect("at least one span");
        assert!(first.contains("\"kind\":\"decide\""), "{first}");
    }

    #[test]
    fn chaos_soak_sheds_and_recovers() {
        let out = run(&argv("chaos --clients 4 --rounds 10 --samples 60 --seed 1"))
            .expect("no panic, no hang");
        assert!(out.contains("server.rejected_total"), "{out}");
        assert!(out.contains("breaker.transitions_total"), "{out}");
        assert!(out.contains("all closed again"), "{out}");
    }

    #[test]
    fn chaos_cluster_migrates_and_loses_nothing() {
        let out = run(&argv(
            "chaos --cluster --clients 2 --rounds 12 --outage-start 2 --outage-rounds 4 \
             --samples 60 --seed 1",
        ))
        .expect("no panic, no hang");
        assert!(out.contains("edge-a"), "{out}");
        assert!(out.contains("lost: 0"), "{out}");
        assert!(out.contains("replay: bit-identical"), "{out}");
        assert!(!out.contains("failovers: 0,"), "{out}");
    }

    /// Spawns a socket-fronted server in-process; `smoke` connects to it
    /// the same way a separate OS process would.
    fn socket_server() -> SocketServer {
        let (_, edge) = loadpart::system::trained_models(60, 1);
        let server = spawn_server(lp_models::alexnet(1), edge, 1.0);
        SocketServer::bind_tcp("127.0.0.1:0", server).expect("bind loopback")
    }

    #[test]
    fn smoke_runs_against_a_socket_server_and_shuts_it_down() {
        let sock = socket_server();
        let addr = sock.local_addr().to_string();
        let out = run(&argv(&format!(
            "smoke --connect {addr} --requests 3 --samples 60 --seed 1 --shutdown-server"
        )))
        .expect("ok");
        assert!(out.contains("measured"), "{out}");
        assert!(out.contains("req "), "{out}");
        assert!(out.contains("shutdown frame sent"), "{out}");
        // The wire shutdown must actually take the server down.
        sock.wait().expect("clean shutdown");
    }

    #[test]
    fn smoke_survives_an_emulated_bad_link() {
        let sock = socket_server();
        let addr = sock.local_addr().to_string();
        let out = run(&argv(&format!(
            "smoke --connect {addr} --requests 2 --samples 60 --seed 1 \
             --latency-ms 1 --jitter-ms 1 --rate-mbps 200 --link-seed 7"
        )))
        .expect("ok");
        assert!(out.contains("link:"), "{out}");
        sock.shutdown().expect("clean");
    }

    #[test]
    fn decide_accepts_registered_policies() {
        for policy in ["local", "full", "bandit", "fixed:3"] {
            let out = run(&argv(&format!(
                "decide --model alexnet --bandwidth 8 --samples 60 --seed 1 --policy {policy}"
            )))
            .expect("ok");
            assert!(out.contains(&format!("[{policy}]")), "{out}");
        }
        let out = run(&argv(
            "decide --model alexnet --bandwidth 8 --samples 60 --seed 1 --policy local",
        ))
        .expect("ok");
        assert!(out.contains("partition after L_27 of 27 ->"), "{out}");
        // A starved link makes the quant policy ship a narrow upload, and
        // the decision names it.
        let out = run(&argv(
            "decide --model alexnet --bandwidth 2 --samples 60 --seed 1 --policy quant:0.02",
        ))
        .expect("ok");
        assert!(out.contains("[quant:0.02]"), "{out}");
        assert!(
            ["fp16", "int8", "int4"]
                .iter()
                .any(|q| out.contains(&format!(", {q} upload ->"))),
            "{out}"
        );
    }

    #[test]
    fn decide_unknown_policy_lists_the_registry() {
        let err = run(&argv(
            "decide --model alexnet --bandwidth 8 --policy frobnicate",
        ))
        .unwrap_err();
        assert!(err.contains("unknown policy"), "{err}");
        for name in ["loadpart", "neurosurgeon", "local", "full", "bandit"] {
            assert!(err.contains(name), "registry listing missing {name}: {err}");
        }
    }

    #[test]
    fn compare_writes_a_parseable_report() {
        let dir = std::env::temp_dir().join("loadpart-compare-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_policies.json");
        let path = path.to_str().expect("utf-8 temp path");
        let out = run(&argv(&format!(
            "compare --quick --requests 12 --windows 2 --samples 60 --out {path}"
        )))
        .expect("ok");
        assert!(out.contains("drifting-bandwidth"), "{out}");
        assert!(out.contains("oracle"), "{out}");
        let text = std::fs::read_to_string(path).expect("report file");
        let json = lp_json::Json::parse(&text).expect("valid json");
        assert_eq!(
            json.get("benchmark").and_then(lp_json::Json::as_str),
            Some("policies")
        );
        assert!(json
            .get("scenarios")
            .and_then(lp_json::Json::as_arr)
            .is_some_and(|s| s.len() == 3));
    }

    /// Without `--out`, `compare` prints its table and writes no report,
    /// in particular not the `BENCH_policies.json` it once wrote into the
    /// working directory by default.
    #[test]
    fn compare_without_out_writes_no_file() {
        let default = std::path::Path::new("BENCH_policies.json");
        assert!(
            !default.exists(),
            "stale {default:?} in the working directory"
        );
        let out = run(&argv(
            "compare --quick --requests 12 --windows 2 --samples 60",
        ))
        .expect("ok");
        assert!(out.contains("oracle"), "{out}");
        assert!(!out.contains("report written"), "{out}");
        assert!(!default.exists(), "compare wrote {default:?} without --out");
    }

    /// Each subcommand accepts exactly the flags `USAGE` lists for it.
    #[test]
    fn command_table_matches_usage() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut usage: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut current = "";
        for line in USAGE.lines().skip(1) {
            let mut words = line.split_whitespace();
            if words.next() == Some("loadpart") {
                current = words.next().expect("a subcommand name");
            }
            let flags = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|w| w.strip_prefix("--"));
            usage.entry(current).or_default().extend(flags);
        }
        let mut table: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, mode, known, _) in COMMANDS {
            let flags = table.entry(name).or_default();
            flags.extend(known.split_whitespace().chain(*mode));
        }
        assert_eq!(table, usage);
    }

    #[test]
    fn errors_are_helpful() {
        assert!(run(&argv("decide --bandwidth 8"))
            .unwrap_err()
            .contains("--model"));
        assert!(run(&argv("decide --model nope --bandwidth 8"))
            .unwrap_err()
            .contains("unknown model"));
        assert!(run(&argv("decide --model alexnet"))
            .unwrap_err()
            .contains("--bandwidth"));
        assert!(run(&argv("decide --model alexnet --bandwidth 0"))
            .unwrap_err()
            .contains("positive"));
        assert!(run(&argv("decide --model alexnet --bandwidth 8 --k 0.5"))
            .unwrap_err()
            .contains("constraint"));
        assert!(run(&argv("partition --model alexnet --p 99"))
            .unwrap_err()
            .contains("out of range"));
        assert!(run(&argv("bogus"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(run(&[]).unwrap_err().contains("no subcommand"));
        assert!(run(&argv("smoke --requests 2"))
            .unwrap_err()
            .contains("--connect"));
        assert!(run(&argv("chaos --transport carrier-pigeon"))
            .unwrap_err()
            .contains("unknown transport"));
        assert!(run(&argv("bench --quick"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(run(&argv("serve --shards 0"))
            .unwrap_err()
            .contains("positive"));
        // NaN passes `x <= 0.0` and `x < 1.0`; it and the infinities are
        // rejected before any range check or `Duration` conversion.
        for args in [
            "decide --model alexnet --bandwidth nan",
            "decide --model alexnet --bandwidth inf",
            "decide --model alexnet --bandwidth 8 --k nan",
            "faults --bandwidth nan",
            "chaos --bandwidth nan",
            "chaos --spike-k inf",
            "report --bandwidth nan",
            "serve --k nan",
            "smoke --connect 127.0.0.1:9 --latency-ms nan",
            "smoke --connect 127.0.0.1:9 --stall-ms inf",
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(err.contains("must be finite"), "{args}: {err}");
        }
        // Every subcommand, and each mode of one, rejects a flag it does
        // not know before doing any work.
        for args in [
            "decide --model alexnet --bandwidth 8 --bogus-flag 3",
            "curve --model alexnet --bandwidth 8 --dot",
            "partition --model alexnet --p 8 --k 2",
            "models --verbose",
            "faults --clients 2",
            "report --transport tcp",
            "chaos --no-failover",
            "chaos --cluster --spike-k 40",
            "compare --transport tcp",
            "serve --workers 4",
            "serve --batch 16",
            "smoke --connect 127.0.0.1:9 --workers 4",
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(err.contains("unknown flag"), "{args}: {err}");
        }
        assert!(run(&argv("chaos --cluster --spike-k 40"))
            .unwrap_err()
            .contains("--spike-k for chaos --cluster"));
        // A fixed partition point past the graph is a usage error, not a
        // panic at the first decision.
        for args in [
            "decide --model alexnet --bandwidth 8 --policy fixed:28",
            "chaos --cluster --policy fixed:28",
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(err.contains("out of range 0..=27"), "{args}: {err}");
        }
    }
}

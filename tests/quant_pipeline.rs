//! End-to-end coverage of the quantized upload path: over the threaded
//! wire runtime, and in modelled time over the co-simulation.
//!
//! Four invariants ride here:
//!
//! 1. **Zero-alloc steady state** — once the first requests warm the
//!    pool with each packed payload size, later quantized uploads reuse
//!    pooled buffers: the pool miss counter stays flat while the hit
//!    counter keeps climbing. The test reads the pool counters of its
//!    own thread (`pool::thread_stats`), which drives the client engine:
//!    the process-wide counters also move with every other test's
//!    servers and engines running concurrently in this binary.
//! 2. **Budget zero is fp32 LoADPart** — a [`QuantPolicy`] with
//!    `accuracy_budget = 0` makes decisions bit-identical to
//!    `Policy::LoadPart` at the engine level, request for request.
//! 3. **The server observes the negotiated precision** — narrow uploads
//!    increment `server.quantized_offloads_total` on the server's own
//!    metrics registry.
//! 4. **Quantized offload wins the starved band** — on links slow enough
//!    that fp32 Algorithm 1 runs everything on the device, the joint
//!    (p, precision) policy still offloads and beats pure-local, and at
//!    2 Mbps also the best forced fp32 offload. The co-simulation's
//!    modelled latencies make this exact and seeded.

use std::sync::Arc;
use std::time::Duration;

use loadpart::engine::backends::{NullDevice, WireBackend, WireTransport};
use loadpart::{
    spawn_server, spawn_server_tuned, EngineConfig, InferenceRecord, LoadEnv, OffloadEngine,
    OffloadingSystem, PartitionPolicy, PartitionSolver, Policy, QuantPolicy, ServerFaultSpec,
    ServerHandle, ServerTuning, SystemConfig, Telemetry, Testbed,
};
use lp_graph::Precision;
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::OnceLock;

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

/// Budget that admits int4/int8 on alexnet's shallow cuts (two top-1
/// points, same as the bench default).
const BUDGET: f64 = 0.02;

/// Drives `requests` inferences through `engine` against `server` at a
/// fixed injected bandwidth estimate, returning every record.
fn drive(
    engine: &mut OffloadEngine,
    server: &ServerHandle,
    bandwidth_mbps: f64,
    requests: usize,
) -> Vec<InferenceRecord> {
    let deadline = engine.config().io_timeout;
    let period = engine.config().profiler_period;
    let mut now = SimTime::ZERO;
    let mut records = Vec::with_capacity(requests);
    for _ in 0..requests {
        now += period;
        engine.profile_mut().inject_bandwidth(bandwidth_mbps);
        let mut backend = WireBackend { server, deadline };
        let mut transport = WireTransport { server, deadline };
        let record = engine
            .run(now, &mut NullDevice, &mut backend, &mut transport)
            .expect("healthy channel server never faults");
        assert!(
            !record.fallback_local && !record.rejected,
            "healthy-path run degraded: {record:?}"
        );
        records.push(record);
    }
    records
}

fn quant_engine(graph: &Arc<lp_graph::ComputationGraph>, budget: f64) -> OffloadEngine {
    let (user, edge) = models();
    OffloadEngine::with_policy(
        Arc::clone(graph),
        Box::new(QuantPolicy::for_graph(graph, budget)),
        user,
        edge,
        0,
        EngineConfig {
            io_timeout: Duration::from_millis(500),
            ..EngineConfig::default()
        },
    )
    .expect("engine config is valid")
}

/// Satellite 1: after warmup, the quantized upload hot path allocates
/// nothing — every packed payload comes from the pool.
#[test]
fn steady_state_quantized_uploads_reuse_pooled_buffers() {
    let graph = Arc::new(lp_models::alexnet(1));
    let (_, edge) = models();
    let server = spawn_server(Arc::clone(&graph), edge.clone(), 1.0);
    let mut engine = quant_engine(&graph, BUDGET);

    // Warmup: the first requests register each payload size with the
    // pool (quantized upload, probe, load query).
    let warmup = drive(&mut engine, &server, 2.0, 4);
    assert!(
        warmup.iter().all(|r| r.precision != Precision::Fp32),
        "a starved 2 Mbps link must make the quant policy pick a narrow width"
    );
    let (hits_before, misses_before) = loadpart::pool::thread_stats();

    let steady = drive(&mut engine, &server, 2.0, 12);
    let (hits_after, misses_after) = loadpart::pool::thread_stats();

    for r in &steady {
        assert!(r.offloaded(), "steady-state request stayed local: {r:?}");
        assert!(r.precision != Precision::Fp32);
        assert!(
            r.uploaded_bytes < r.raw_bytes,
            "packed upload must be smaller than fp32: {r:?}"
        );
    }
    assert_eq!(
        misses_after, misses_before,
        "steady state allocated fresh payload buffers instead of pooling"
    );
    assert!(
        hits_after >= hits_before + steady.len() as u64,
        "expected at least one pool hit per steady-state request \
         ({hits_before} -> {hits_after} over {} requests)",
        steady.len()
    );
    server.shutdown().expect("clean shutdown");
}

/// The decision-relevant slice of a record: everything except the
/// wall-clock timings, which the threaded runtime measures for real and
/// so can never be compared across runs.
fn decision_of(r: &InferenceRecord) -> (u64, usize, Precision, u64, u64, u64, u64, bool) {
    (
        r.request_id,
        r.p,
        r.precision,
        r.uploaded_bytes,
        r.raw_bytes,
        r.k_used.to_bits(),
        r.bandwidth_est_mbps.to_bits(),
        r.cache_hit,
    )
}

/// Satellite 3 (engine level): with `accuracy_budget = 0` only fp32
/// survives the budget gate, and the joint scan collapses to Algorithm 1
/// — the two engines agree bit for bit on every decision.
#[test]
fn zero_budget_quant_policy_matches_fp32_loadpart_decisions() {
    let graph = Arc::new(lp_models::alexnet(1));
    let (user, edge) = models();
    let schedule = [16.0, 8.0, 2.0, 1.0, 4.0, 12.0, 2.0, 8.0];

    let run_quant = {
        let server = spawn_server(Arc::clone(&graph), edge.clone(), 1.0);
        let mut engine = quant_engine(&graph, 0.0);
        let mut records = Vec::new();
        for &bw in &schedule {
            records.extend(drive(&mut engine, &server, bw, 2));
        }
        server.shutdown().expect("clean shutdown");
        records
    };

    let run_fp32 = {
        let server = spawn_server(Arc::clone(&graph), edge.clone(), 1.0);
        let mut engine = OffloadEngine::new(
            Arc::clone(&graph),
            Policy::LoadPart,
            user,
            edge,
            0,
            EngineConfig {
                io_timeout: Duration::from_millis(500),
                ..EngineConfig::default()
            },
        )
        .expect("engine config is valid");
        let mut records = Vec::new();
        for &bw in &schedule {
            records.extend(drive(&mut engine, &server, bw, 2));
        }
        server.shutdown().expect("clean shutdown");
        records
    };

    assert_eq!(run_quant.len(), run_fp32.len());
    for (q, f) in run_quant.iter().zip(&run_fp32) {
        assert_eq!(
            decision_of(q),
            decision_of(f),
            "budget 0 must reproduce fp32 LoADPart exactly"
        );
        assert_eq!(q.precision, Precision::Fp32);
    }
}

/// The server's own metrics registry counts narrow uploads, so operators
/// can see quantization working without client-side telemetry.
#[test]
fn server_counts_quantized_offloads() {
    let graph = Arc::new(lp_models::alexnet(1));
    let (_, edge) = models();
    let telemetry = Telemetry::enabled();
    let server = spawn_server_tuned(
        Arc::clone(&graph),
        edge.clone(),
        LoadEnv::new(1.0),
        ServerFaultSpec::default(),
        None,
        &telemetry,
        ServerTuning::default(),
    );
    let mut engine = quant_engine(&graph, BUDGET);

    let records = drive(&mut engine, &server, 2.0, 3);
    let narrow = records
        .iter()
        .filter(|r| r.offloaded() && r.precision != Precision::Fp32)
        .count() as u64;
    assert!(narrow > 0, "starved link should produce narrow uploads");

    let snapshot = telemetry.snapshot().expect("telemetry is enabled");
    assert_eq!(
        snapshot.counter("server.quantized_offloads_total"),
        narrow,
        "server must count exactly the narrow uploads it received"
    );
    server.shutdown().expect("clean shutdown");
}

/// Requests per co-simulated run, one per simulated second.
const COSIM_REQUESTS: u64 = 10;

/// Seed of the co-simulated link, GPU and engine.
const COSIM_SEED: u64 = 42;

/// Runs [`COSIM_REQUESTS`] co-simulated AlexNet requests under `policy`
/// over a constant `mbps` link and an idle edge GPU.
fn cosim(policy: Box<dyn PartitionPolicy>, mbps: f64) -> Vec<InferenceRecord> {
    let (user, edge) = models();
    let mut sys = OffloadingSystem::with_policy(
        lp_models::alexnet(1),
        policy,
        Testbed::with_constant_bandwidth(mbps, COSIM_SEED),
        user,
        edge,
        SystemConfig {
            seed: COSIM_SEED,
            ..SystemConfig::default()
        },
    );
    (1..=COSIM_REQUESTS)
        .map(|s| sys.infer(SimTime::ZERO + SimDuration::from_secs(s)))
        .collect()
}

fn mean_total_ms(records: &[InferenceRecord]) -> f64 {
    records.iter().map(|r| r.total.as_millis_f64()).sum::<f64>() / records.len() as f64
}

/// Invariant 4: in the starved band {2, 1} Mbps fp32 LoADPart keeps every
/// request on the device, while the quant policy offloads every request
/// at a narrow precision and finishes faster than pure-local inference.
/// At 2 Mbps it also beats the best fp32 offload the solver can force
/// (`p < n`). Mean `total` is modelled time, so the comparison is exact
/// and replays bit for bit.
#[test]
fn quantized_offload_beats_local_and_forced_fp32_on_a_starved_link() {
    let graph = lp_models::alexnet(1);
    let n = graph.len();
    let (user, edge) = models();
    let quant = || Box::new(QuantPolicy::for_graph(&graph, BUDGET)) as Box<dyn PartitionPolicy>;
    for mbps in [2.0, 1.0] {
        let local = cosim(Policy::Local.build(), mbps);
        let fp32 = cosim(Policy::LoadPart.build(), mbps);
        let narrow = cosim(quant(), mbps);
        assert_eq!(narrow, cosim(quant(), mbps), "{mbps} Mbps replay diverged");
        assert!(
            fp32.iter().all(|r| !r.offloaded()),
            "{mbps} Mbps must starve fp32 LoADPart into p = n: {fp32:?}"
        );
        for r in &narrow {
            assert!(r.offloaded(), "{mbps} Mbps quant stayed local: {r:?}");
            assert_ne!(r.precision, Precision::Fp32, "{mbps} Mbps: {r:?}");
        }
        let (local_ms, narrow_ms) = (mean_total_ms(&local), mean_total_ms(&narrow));
        assert!(
            narrow_ms < local_ms,
            "{mbps} Mbps: quant {narrow_ms:.1} ms must beat local {local_ms:.1} ms"
        );
        if mbps == 2.0 {
            // Algorithm 1's scan restricted to p < n; ties go to the
            // larger p, as in the solver.
            let solver = PartitionSolver::new(&graph, user, edge);
            let best = (0..n)
                .rev()
                .map(|p| solver.latency_at(p, mbps, 1.0))
                .min_by_key(|d| d.predicted)
                .expect("AlexNet has offload points");
            let forced_ms = mean_total_ms(&cosim(Policy::Fixed(best.p).build(), mbps));
            assert!(
                narrow_ms < forced_ms,
                "2 Mbps: quant {narrow_ms:.1} ms must beat fp32 offload at p = {} ({forced_ms:.1} ms)",
                best.p
            );
        }
    }
}

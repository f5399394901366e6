//! Cross-driver equivalence: the co-simulated [`OffloadingSystem`] and the
//! threaded wire runtime are different compositions over the *same*
//! [`loadpart::OffloadEngine`], so for identical inputs they must make the
//! same Algorithm 1 decisions.

use loadpart::system::trained_models;
use loadpart::{
    multi_client_run, spawn_server, spawn_server_tuned, AdmissionConfig, EngineConfig,
    InferenceRecord, LoadEnv, MemoPolicy, MultiClientConfig, OffloadingSystem, PartitionPolicy,
    PartitionSolver, Policy, PolicyContext, RingSink, ServerFaultSpec, ServerTuning, SpanKind,
    SystemConfig, Telemetry, Testbed, ThreadedClient,
};
use lp_sim::{SimDuration, SimTime};
use std::sync::{Arc, OnceLock};

fn models() -> &'static (lp_profiler::PredictionModels, lp_profiler::PredictionModels) {
    static MODELS: OnceLock<(lp_profiler::PredictionModels, lp_profiler::PredictionModels)> =
        OnceLock::new();
    MODELS.get_or_init(|| trained_models(150, 42))
}

/// On an idle server both drivers see `k = 1`, and feeding the threaded
/// client the co-simulation's *measured* bandwidth estimate makes it pick
/// the same partition point.
#[test]
fn cosim_and_threaded_pick_the_same_partition() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);

    let mut sys = OffloadingSystem::new(
        graph.clone(),
        Policy::LoadPart,
        Testbed::with_constant_bandwidth(8.0, 5),
        user,
        edge,
        SystemConfig {
            seed: 5,
            ..SystemConfig::default()
        },
    );
    let r = sys.infer(SimTime::ZERO + SimDuration::from_secs(1));
    assert_eq!(r.k_used, 1.0, "idle co-sim server must report k = 1");

    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = ThreadedClient::new(graph, user, edge);
    assert_eq!(
        client.refresh_k(&server).expect("protocol ok"),
        1.0,
        "idle threaded server must report k = 1"
    );
    let t = client
        .infer(&server, r.bandwidth_est_mbps)
        .expect("protocol ok");
    assert_eq!(
        t.p, r.p,
        "same bandwidth + same k must give the same partition point"
    );
    assert_eq!(t.k_used, r.k_used);
    server.shutdown().expect("clean shutdown");
}

/// The two co-simulation drivers run one server: a one-client
/// [`multi_client_run`] and an [`OffloadingSystem`] over the same graph,
/// bandwidth, seed and policy, driven on the multi-client schedule (first
/// request at 50 ms, each next one `think_time` after the previous
/// completes, until `duration`), return identical records. The last case
/// arms admission control with a zero budget, so every offload is shed
/// and completes locally on both.
#[test]
fn one_client_multi_client_run_matches_offloading_system() {
    let (user, edge) = models();
    let shed_all = AdmissionConfig {
        max_inflight: 0,
        ..AdmissionConfig::default()
    };
    let cases = [
        (lp_models::squeezenet(1), Policy::LoadPart, 8.0, None),
        (lp_models::alexnet(1), Policy::LoadPart, 8.0, None),
        (lp_models::alexnet(1), Policy::Full, 2.0, None),
        (lp_models::inception_v3(1), Policy::LoadPart, 8.0, None),
        (lp_models::alexnet(1), Policy::LoadPart, 8.0, Some(shed_all)),
    ];
    for (graph, policy, mbps, admission) in cases {
        let config = MultiClientConfig {
            n_clients: 1,
            bandwidth_mbps: mbps,
            policy,
            admission,
            ..MultiClientConfig::default()
        };
        let report = multi_client_run(&graph, user, edge, &config).expect("valid config");

        let name = graph.name().to_string();
        let mut testbed = Testbed::with_constant_bandwidth(mbps, config.seed);
        if let Some(admission) = admission {
            testbed.server.set_admission(admission);
        }
        let mut sys = OffloadingSystem::new(
            graph,
            policy,
            testbed,
            user,
            edge,
            SystemConfig {
                profiler_period: config.profiler_period,
                seed: config.seed,
                ..SystemConfig::default()
            },
        );
        let mut records = Vec::new();
        let mut t = SimTime::ZERO + SimDuration::from_millis(50);
        while t < SimTime::ZERO + config.duration {
            let r = sys.infer(t);
            t = r.start + r.total + config.think_time;
            records.push(r);
        }
        assert!(records.len() > 10, "{name}: {} records", records.len());
        assert_eq!(
            report.records, records,
            "{name} {policy:?} at {mbps} Mbps: the drivers diverged"
        );
        let shed = records.iter().filter(|r| r.rejected).count() as u64;
        assert_eq!(report.rejections, shed);
        assert_eq!(shed > 0, admission.is_some(), "{name}: {shed} shed");
    }
}

/// Under load, the threaded client's fetched `k` matches what its server's
/// tracker measured, and its next decision is exactly the solver's for
/// that `(bandwidth, k)` — i.e. the wire round trip adds no decision
/// drift over the in-process engine.
#[test]
fn threaded_k_is_consistent_with_the_solver() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let k_factor = 3.0;
    let server = spawn_server(graph.clone(), edge.clone(), k_factor);
    let mut client = ThreadedClient::new(graph, user, edge);

    // One offload populates the server tracker with an observation whose
    // observed/predicted ratio is exactly `k_factor`.
    client.infer(&server, 8.0).expect("protocol ok");
    let k = client.refresh_k(&server).expect("protocol ok");
    assert!(
        (k - k_factor).abs() < 1e-3,
        "tracker must measure the injected factor: k={k}"
    );

    let expected_p = client.engine().solver().decide(8.0, k).p;
    let r = client.infer(&server, 8.0).expect("protocol ok");
    assert_eq!(
        r.p, expected_p,
        "decision must match the solver at (8.0, {k})"
    );
    server.shutdown().expect("clean shutdown");
}

/// Both drivers run the same engine, so an offloaded request must produce
/// the *same* trace-span schema from either: decide, device_prefix,
/// upload, server_suffix, finish — in that order, with consistent payload
/// fields. This is the contract dashboards rely on to mix co-simulated and
/// wire traces.
#[test]
fn cosim_and_threaded_emit_the_same_span_sequence() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);

    let cosim_sink = RingSink::new(64);
    let mut sys = OffloadingSystem::new(
        graph.clone(),
        Policy::LoadPart,
        Testbed::with_constant_bandwidth(8.0, 5),
        user,
        edge,
        SystemConfig {
            seed: 5,
            ..SystemConfig::default()
        },
    );
    sys.set_telemetry(Telemetry::enabled().with_sink(cosim_sink.clone()));
    let r = sys.infer(SimTime::ZERO + SimDuration::from_secs(1));
    assert!(r.offloaded(), "8 Mbps idle alexnet must offload");

    let wire_sink = RingSink::new(64);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = ThreadedClient::new(graph, user, edge);
    client.set_telemetry(Telemetry::enabled().with_sink(wire_sink.clone()));
    let t = client
        .infer(&server, r.bandwidth_est_mbps)
        .expect("protocol ok");
    assert!(t.offloaded());
    server.shutdown().expect("clean shutdown");

    let cosim_kinds = cosim_sink.kinds_for(r.request_id);
    let wire_kinds = wire_sink.kinds_for(t.request_id);
    assert_eq!(
        cosim_kinds, wire_kinds,
        "drivers must emit the same span schema for an offloaded request"
    );
    assert_eq!(
        cosim_kinds,
        vec![
            SpanKind::Decide,
            SpanKind::DevicePrefix,
            SpanKind::Upload,
            SpanKind::ServerSuffix,
            SpanKind::Finish,
        ]
    );
    // Field-level consistency: every span carries the decision, the upload
    // span carries the payload, and the finish span's duration is the
    // record's end-to-end latency.
    for (sink, rec) in [(&cosim_sink, &r), (&wire_sink, &t)] {
        let events = sink.events_for(rec.request_id);
        assert!(events.iter().all(|e| e.p == rec.p && !e.fallback_local));
        let upload = &events[2];
        assert!(upload.bytes > 0, "upload span must carry the payload size");
        let finish = events.last().expect("non-empty");
        assert_eq!(finish.at, rec.start);
        assert_eq!(finish.duration, rec.total);
    }
}

/// A request decided local skips the network spans in both drivers:
/// decide, device_prefix, finish.
#[test]
fn local_decisions_emit_the_same_abbreviated_span_sequence() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);

    let cosim_sink = RingSink::new(64);
    let mut sys = OffloadingSystem::new(
        graph.clone(),
        Policy::Local,
        Testbed::with_constant_bandwidth(8.0, 5),
        user,
        edge,
        SystemConfig::default(),
    );
    sys.set_telemetry(Telemetry::enabled().with_sink(cosim_sink.clone()));
    let r = sys.infer(SimTime::ZERO + SimDuration::from_secs(1));
    assert!(!r.offloaded());

    // The threaded client runs LoADPart; a starved uplink makes Algorithm 1
    // choose p = n, exercising the same local path over the wire runtime.
    let wire_sink = RingSink::new(64);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = ThreadedClient::new(graph, user, edge);
    client.set_telemetry(Telemetry::enabled().with_sink(wire_sink.clone()));
    let t = client.infer(&server, 0.05).expect("protocol ok");
    assert!(!t.offloaded(), "0.05 Mbps must decide local");
    server.shutdown().expect("clean shutdown");

    let expected = vec![SpanKind::Decide, SpanKind::DevicePrefix, SpanKind::Finish];
    assert_eq!(cosim_sink.kinds_for(r.request_id), expected);
    assert_eq!(wire_sink.kinds_for(t.request_id), expected);
}

/// Property-style sweep: every [`Policy`] enum variant's trait impl (what
/// the engine now dispatches through) is decision-identical to the legacy
/// `Policy::decide`, at every `(bandwidth, k)` grid point — and stays so
/// through a [`MemoPolicy`] wrapper whose key changes every cell.
#[test]
fn trait_policies_reproduce_legacy_enum_decisions_across_the_sweep() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let solver = PartitionSolver::new(&graph, user, edge);
    let bandwidths = [0.05, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 50.0, 160.0];
    let ks = [1.0, 1.5, 2.0, 3.0, 6.0, 12.0];
    for policy in [
        Policy::LoadPart,
        Policy::Neurosurgeon,
        Policy::Local,
        Policy::Full,
        Policy::Fixed(0),
        Policy::Fixed(13),
    ] {
        let mut via_trait = policy.build();
        let mut via_memo = MemoPolicy::new(policy.build());
        for bw in bandwidths {
            for k in ks {
                let legacy = policy.decide(&solver, bw, k);
                let ctx = PolicyContext {
                    solver: &solver,
                    bandwidth_mbps: bw,
                    k,
                    now: SimTime::ZERO,
                };
                assert_eq!(
                    via_trait.decide(&ctx),
                    legacy,
                    "{policy:?} trait impl diverged at ({bw}, {k})"
                );
                assert_eq!(
                    via_memo.decide(&ctx),
                    legacy,
                    "{policy:?} memoized impl diverged at ({bw}, {k})"
                );
                // Same key again: the memo must serve the identical value.
                assert_eq!(via_memo.decide(&ctx), legacy);
            }
        }
        assert!(
            via_memo.memo_hits() >= (bandwidths.len() * ks.len()) as u64,
            "every repeated cell must be a memo hit"
        );
    }
}

/// The decision memo is an equivalence-preserving fast path end to end:
/// two identically-seeded co-simulations, one through
/// [`OffloadingSystem::new`] (which memoizes the enum policy) and one with
/// the bare policy installed through [`OffloadingSystem::with_policy`],
/// produce bit-identical record sequences — while the memoized run
/// actually answers repeats from the memo.
#[test]
fn memo_enabled_cosim_replays_identically_to_memoless() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let run = |mbps: f64, memo: bool| {
        let testbed = Testbed::with_constant_bandwidth(mbps, 5);
        let config = SystemConfig {
            seed: 5,
            ..SystemConfig::default()
        };
        let mut sys = if memo {
            OffloadingSystem::new(graph.clone(), Policy::LoadPart, testbed, user, edge, config)
        } else {
            OffloadingSystem::with_policy(
                graph.clone(),
                Policy::LoadPart.build(),
                testbed,
                user,
                edge,
                config,
            )
        };
        let records: Vec<InferenceRecord> = (1..=8)
            .map(|s| sys.infer(SimTime::ZERO + SimDuration::from_secs(s)))
            .collect();
        (records, sys.engine().decision_memo_hits())
    };
    // Offloading regime: every upload feeds the estimator a passive
    // sample, so the quantized bandwidth key churns — the memo must stay
    // invisible either way.
    let (with_memo, _) = run(8.0, true);
    let (without_memo, no_hits) = run(8.0, false);
    assert_eq!(
        with_memo, without_memo,
        "the memo must never change what any request observes"
    );
    assert_eq!(no_hits, 0);
    // Local regime: no uploads, so between profiler refreshes the
    // (bandwidth, k) key repeats exactly and the memo actually serves.
    let (with_memo, hits) = run(0.05, true);
    let (without_memo, no_hits) = run(0.05, false);
    assert_eq!(with_memo, without_memo);
    assert_eq!(no_hits, 0);
    assert!(hits > 0, "repeated (bandwidth, k) keys must hit the memo");
}

/// Engine-level memo regression: with the bandwidth pinned and `k` set
/// explicitly, hits and invalidations follow the quantized `(bandwidth,
/// k)` key exactly, the decision always equals the solver's at the pinned
/// inputs, and `engine.decision_memo_hits_total` counts every hit.
#[test]
fn engine_memo_invalidates_on_quantized_key_change_and_telemetry_counts_hits() {
    use loadpart::engine::backends::SimulatedDevice;

    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let telemetry = Telemetry::enabled();
    let mut engine = loadpart::OffloadEngine::new(
        graph,
        Policy::LoadPart,
        user,
        edge,
        0,
        EngineConfig::default(), // `new` always memoizes the enum policy
    )
    .expect("valid config");
    engine.set_telemetry(telemetry.clone());
    let mut testbed = Testbed::with_constant_bandwidth(8.0, 7);
    let device_times = testbed.device_times(engine.graph());
    let kernel_times = testbed.server.kernel_times(engine.graph());

    // (k override, injected bandwidth, expected memo hit). The whole
    // script fits inside one profiler period, so nothing but these two
    // inputs can move the quantized key.
    let script: [(Option<f64>, f64, bool); 7] = [
        (None, 8.0, false),      // cold memo: miss + fill
        (None, 8.0, true),       // identical key: hit
        (None, 8.0, true),       // identical key: hit
        (Some(2.0), 8.0, false), // k changed: quantized key invalidates
        (Some(2.0), 8.0, true),  // new key cached: hit
        (None, 9.0, false),      // bandwidth changed: key invalidates
        (None, 9.0, true),       // hit on the refilled entry
    ];
    let mut t = SimTime::ZERO + SimDuration::from_secs(1);
    let mut k_now = 1.0;
    let mut hits_expected = 0u64;
    for (i, (set_k, bw, expect_hit)) in script.into_iter().enumerate() {
        if let Some(k) = set_k {
            engine.profile_mut().set_k(k);
            k_now = k;
        }
        engine.profile_mut().inject_bandwidth(bw);
        let before = engine.decision_memo_hits();
        let mut device = SimulatedDevice {
            times: &device_times,
        };
        let (mut transport, mut backend) = testbed.backends(&kernel_times);
        let record = engine
            .run(t, &mut device, &mut backend, &mut transport)
            .expect("co-simulated backends are infallible");
        let was_hit = engine.decision_memo_hits() > before;
        assert_eq!(was_hit, expect_hit, "request {i}: {record:?}");
        hits_expected += u64::from(expect_hit);
        // Memo transparency through the whole engine: hit or miss, the
        // decision is the solver's at the pinned inputs.
        assert_eq!(
            record.p,
            engine.solver().decide(bw, k_now).p,
            "request {i} diverged from Algorithm 1 at ({bw}, {k_now})"
        );
        t = t + record.total + SimDuration::from_millis(200);
    }
    assert_eq!(engine.decision_memo_hits(), hits_expected);
    let snapshot = telemetry.snapshot().expect("metrics enabled");
    assert_eq!(
        snapshot.counter("engine.decision_memo_hits_total"),
        hits_expected,
        "telemetry must count exactly the memo hits"
    );
}

/// Runs `clients` engine sessions against one server, strict round-robin
/// turns, and returns each session's records in the order that session
/// received them.
fn run_sessions(clients: usize, rounds: usize) -> Vec<Vec<InferenceRecord>> {
    let (user, edge) = models();
    let graph = Arc::new(lp_models::alexnet(1));
    let server = spawn_server(Arc::clone(&graph), edge.clone(), 1.0);
    let conns: Vec<_> = (0..clients).map(|_| server.connect()).collect();
    let mut engines: Vec<ThreadedClient> = (0..clients)
        .map(|i| {
            ThreadedClient::with_config(
                Arc::clone(&graph),
                user,
                edge,
                EngineConfig {
                    seed: 42 ^ (i as u64).wrapping_mul(0x9E37_79B9),
                    ..EngineConfig::default()
                },
            )
            .expect("valid config")
        })
        .collect();
    let mut records = vec![Vec::with_capacity(rounds); clients];
    for _ in 0..rounds {
        for (i, engine) in engines.iter_mut().enumerate() {
            records[i].push(engine.infer(&conns[i], 8.0).expect("protocol ok"));
        }
    }
    server.shutdown().expect("clean shutdown");
    records
}

/// Replay determinism: two identically-seeded runs of four sessions
/// against one server produce bit-identical records.
#[test]
fn parallel_server_replays_bit_identically_under_a_fixed_seed() {
    let a = run_sessions(4, 4);
    let b = run_sessions(4, 4);
    assert_eq!(a, b, "fixed seed must replay bit-identically");
}

/// A request shed by server-side admission control emits the *same* span
/// schema from both drivers: decide, device_prefix, upload, rejected,
/// finish. The rejection happens after the upload (the server assesses the
/// request it received), completes locally, and is never labelled a
/// fallback.
#[test]
fn shed_requests_emit_the_same_span_sequence() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    // A zero in-flight budget sheds every offload — deterministically.
    let admission = AdmissionConfig {
        max_inflight: 0,
        ..AdmissionConfig::default()
    };

    let cosim_sink = RingSink::new(64);
    let mut testbed = Testbed::with_constant_bandwidth(8.0, 5);
    testbed.server.set_admission(admission);
    let mut sys = OffloadingSystem::new(
        graph.clone(),
        Policy::LoadPart,
        testbed,
        user,
        edge,
        SystemConfig {
            seed: 5,
            ..SystemConfig::default()
        },
    );
    sys.set_telemetry(Telemetry::enabled().with_sink(cosim_sink.clone()));
    let r = sys.infer(SimTime::ZERO + SimDuration::from_secs(1));
    assert!(r.rejected && !r.fallback_local, "{r:?}");
    assert_eq!(r.server, SimDuration::ZERO, "no suffix ran on the server");

    let wire_sink = RingSink::new(64);
    let server = spawn_server_tuned(
        graph.clone(),
        edge.clone(),
        LoadEnv::new(1.0),
        ServerFaultSpec::default(),
        Some(admission),
        &Telemetry::disabled(),
        ServerTuning,
    );
    let mut client = ThreadedClient::new(graph.clone(), user, edge);
    client.set_telemetry(Telemetry::enabled().with_sink(wire_sink.clone()));
    let t = client
        .infer(&server, r.bandwidth_est_mbps)
        .expect("shed, not an error");
    assert!(t.rejected && !t.fallback_local, "{t:?}");
    assert_eq!(t.server, SimDuration::ZERO, "no suffix ran on the server");
    server.shutdown().expect("clean shutdown");

    let expected = vec![
        SpanKind::Decide,
        SpanKind::DevicePrefix,
        SpanKind::Upload,
        SpanKind::Rejected,
        SpanKind::Finish,
    ];
    assert_eq!(cosim_sink.kinds_for(r.request_id), expected);
    assert_eq!(wire_sink.kinds_for(t.request_id), expected);

    // A hair-trigger breaker adds its transition span between the
    // rejection and the finish — the only schema difference breakers make.
    let breaker_sink = RingSink::new(64);
    let server = spawn_server_tuned(
        graph.clone(),
        edge.clone(),
        LoadEnv::new(1.0),
        ServerFaultSpec::default(),
        Some(admission),
        &Telemetry::disabled(),
        ServerTuning,
    );
    let mut client = ThreadedClient::with_config(
        graph,
        user,
        edge,
        EngineConfig {
            breaker_failure_threshold: 1,
            ..EngineConfig::default()
        },
    )
    .expect("valid config");
    client.set_telemetry(Telemetry::enabled().with_sink(breaker_sink.clone()));
    let b = client
        .infer(&server, r.bandwidth_est_mbps)
        .expect("shed, not an error");
    assert!(b.rejected, "{b:?}");
    server.shutdown().expect("clean shutdown");
    assert_eq!(
        breaker_sink.kinds_for(b.request_id),
        vec![
            SpanKind::Decide,
            SpanKind::DevicePrefix,
            SpanKind::Upload,
            SpanKind::Rejected,
            SpanKind::Breaker,
            SpanKind::Finish,
        ]
    );
}

//! Failover correctness for the multi-server cluster driver.
//!
//! The guarantees under test, per ISSUE's robustness archetype:
//!
//! * a server **crash mid-suffix** fails the request over to the next
//!   server with the *same* request id and partition point — no request
//!   is duplicated (the fallback server executes each suffix exactly
//!   once) and none is dropped (per-session ids stay contiguous FIFO);
//! * post-failover traffic is **equivalent to a single healthy server**:
//!   the decision-relevant record fields match what a one-server cluster
//!   produces against the same spec;
//! * a **probe failure on server A does not cooldown server B** — fault
//!   state is per-endpoint;
//! * registering extra endpoints leaves the **single-server path
//!   bit-identical** — the multi-server refactor is a pure extension;
//! * a shedding server cannot provoke a **retry storm**: the per-request
//!   retry budget truncates backoff no matter what the server hints;
//! * a scripted **outage on the preferred server** stays invisible with
//!   failover on — every request in the window is still served remotely —
//!   while clients pinned to that server fall back to the device, and
//!   neither run loses a request.

use loadpart::engine::backends::{SimulatedDevice, WireBackend, WireTransport};
use loadpart::policy::build_named;
use loadpart::{
    cluster_chaos_run, spawn_server_tuned, AdmissionConfig, ClusterChaosConfig, ClusterChaosReport,
    ClusterEngine, ClusterLink, EmulatedLink, EngineConfig, FrameChannel, InferenceRecord,
    LinkSpec, LoadEnv, OffloadEngine, OutageSwitch, Outcome, RouteInfo, ServerFaultSpec,
    ServerHandle, ServerTuning, Telemetry,
};
use lp_hardware::DeviceModel;
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

/// Fast-failing engine config shared by the failover tests: first fault
/// opens the breaker, timeouts are short, backoff sleeps are zero.
fn failfast_config(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        io_timeout: Duration::from_millis(100),
        retry_backoff: Duration::ZERO,
        breaker_failure_threshold: 1,
        ..EngineConfig::default()
    }
}

fn spawn(
    env: LoadEnv,
    faults: ServerFaultSpec,
    admission: Option<AdmissionConfig>,
) -> ServerHandle {
    let (_, edge) = models();
    spawn_server_tuned(
        Arc::new(lp_models::alexnet(1)),
        edge.clone(),
        env,
        faults,
        admission,
        &Telemetry::disabled(),
        ServerTuning,
    )
}

fn cluster_over(
    handles: &[&ServerHandle],
    bandwidth_mbps: f64,
    config: EngineConfig,
) -> ClusterEngine {
    let (user, edge) = models();
    let links = handles
        .iter()
        .enumerate()
        .map(|(i, h)| ClusterLink {
            name: format!("srv-{i}"),
            bandwidth_mbps,
            conn: Box::new(h.connect()) as Box<dyn FrameChannel>,
        })
        .collect();
    ClusterEngine::new(
        Arc::new(lp_models::alexnet(1)),
        build_named("loadpart").expect("registered"),
        user,
        edge,
        DeviceModel::default(),
        0,
        config,
        links,
    )
    .expect("valid cluster")
}

/// `conn`, dark while `switch` is on.
fn gated(conn: Box<dyn FrameChannel>, switch: &OutageSwitch) -> Box<dyn FrameChannel> {
    let spec = LinkSpec {
        outage: Some(switch.clone()),
        ..LinkSpec::default()
    };
    Box::new(EmulatedLink::new(conn, spec))
}

/// Drives `rounds` requests one second apart, returning records + routes.
fn drive(cluster: &mut ClusterEngine, rounds: usize) -> Vec<(InferenceRecord, RouteInfo)> {
    let mut out = Vec::with_capacity(rounds);
    let mut now = SimTime::ZERO;
    for _ in 0..rounds {
        now += SimDuration::from_secs(1);
        out.push(cluster.infer(now).expect("cluster absorbs wire faults"));
    }
    out
}

/// The tentpole failover path: the preferred server crashes on a suffix
/// frame a couple of requests in, so the prefix has already run and the
/// upload is in flight. The interrupted request must complete on the
/// fallback server under the same id, and everything after it must flow
/// to the fallback — exactly once.
#[test]
fn crash_mid_suffix_fails_over_without_duplicating_or_dropping() {
    // Bandwidth is injected, so probes stay off the wire; the crashing
    // server sees the k query and then one suffix frame per request. The
    // threshold lands the crash on the second request's suffix — mid-
    // flight, after its prefix and upload.
    let crashing = spawn(
        LoadEnv::new(1.0),
        ServerFaultSpec {
            crash_after_frames: Some(3),
            ..ServerFaultSpec::default()
        },
        None,
    );
    let healthy = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
    let mut cluster = cluster_over(&[&crashing, &healthy], 8.0, failfast_config(7));
    let rounds = 6;
    let results = drive(&mut cluster, rounds);

    // Liveness + per-session FIFO: every round produced exactly one
    // record, ids contiguous from 0 in issue order — nothing dropped,
    // nothing reordered, nothing issued twice.
    assert_eq!(results.len(), rounds);
    for (i, (record, _)) in results.iter().enumerate() {
        assert_eq!(record.request_id, i as u64, "contiguous FIFO ids");
    }

    // Exactly one request was interrupted mid-suffix: it consulted both
    // servers and still completed remotely on the fallback.
    let crash_at = results
        .iter()
        .position(|(_, route)| route.failovers > 0)
        .expect("the crash must interrupt some request");
    let (interrupted, route) = &results[crash_at];
    assert_eq!(route.attempts, 2, "crashing server was tried first");
    assert_eq!(route.failovers, 1);
    assert_eq!(route.server, Some(1), "completed on the fallback");
    assert!(interrupted.offloaded() && !interrupted.fallback_local && !interrupted.rejected);

    // Before the crash the preferred server serves; afterwards everything
    // routes straight to the fallback (the crashed server sits behind an
    // open breaker) with no further detours.
    for (record, route) in &results[..crash_at] {
        assert_eq!(route.server, Some(0));
        assert!(record.offloaded());
    }
    let healthy_served = 1 + (rounds - crash_at - 1);
    for (record, route) in &results[crash_at + 1..] {
        assert_eq!(route.server, Some(1));
        assert_eq!(route.attempts, 1, "no detour once the breaker is open");
        assert!(record.offloaded() && !record.fallback_local);
    }

    // Exactly-once: the healthy server's own served count must equal the
    // number of requests the clients saw it serve — the failed suffix was
    // re-issued to it once, not duplicated.
    drop(cluster);
    let served = healthy.shutdown().expect("healthy server survives");
    assert_eq!(
        served, healthy_served as u64,
        "each suffix executed exactly once"
    );
    // The crashed server stopped mid-suffix: it served only the requests
    // before the interruption and never completed the one in flight.
    let crashed_served = crashing.shutdown().expect("simulated crash exits the loop");
    assert_eq!(
        crashed_served, crash_at as u64,
        "the interrupted suffix must not count as served anywhere but the fallback"
    );
}

/// Post-failover records carry the same decisions a single healthy
/// server would have produced: same ids, partition points, load factors
/// and bandwidth estimates, all served remotely. (Latency fields differ
/// by sampling noise; the *decision* stream is what equivalence means.)
#[test]
fn post_failover_records_match_a_single_healthy_server() {
    let crashing = spawn(
        LoadEnv::new(1.0),
        ServerFaultSpec {
            crash_after_frames: Some(3),
            ..ServerFaultSpec::default()
        },
        None,
    );
    let healthy = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
    let mut cluster = cluster_over(&[&crashing, &healthy], 8.0, failfast_config(7));
    let failed_over = drive(&mut cluster, 6);

    let single_server = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
    let mut single = cluster_over(&[&single_server], 8.0, failfast_config(7));
    let baseline = drive(&mut single, 6);

    for ((a, _), (b, _)) in failed_over.iter().zip(&baseline) {
        assert_eq!(a.request_id, b.request_id);
        assert_eq!(
            a.p, b.p,
            "request {}: same partition decision",
            a.request_id
        );
        assert_eq!(a.k_used, b.k_used, "request {}", a.request_id);
        assert_eq!(a.bandwidth_est_mbps, b.bandwidth_est_mbps);
        assert!(a.offloaded() && !a.fallback_local && !a.rejected);
        assert!(b.offloaded() && !b.fallback_local && !b.rejected);
    }
}

/// Per-endpoint fault isolation: a dead link to server A puts only A's
/// profile into cooldown; B keeps serving and B's profile stays clean.
#[test]
fn probe_failure_on_one_server_does_not_cooldown_the_other() {
    let dead = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
    let healthy = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
    let (user, edge) = models();
    let switch = OutageSwitch::new();
    switch.set_blocked(true); // server A is unreachable from the start
    let links = vec![
        ClusterLink {
            name: "dead".into(),
            bandwidth_mbps: 8.0,
            conn: gated(Box::new(dead.connect()), &switch),
        },
        ClusterLink {
            name: "healthy".into(),
            bandwidth_mbps: 8.0,
            conn: Box::new(healthy.connect()),
        },
    ];
    let mut cluster = ClusterEngine::new(
        Arc::new(lp_models::alexnet(1)),
        build_named("loadpart").expect("registered"),
        user,
        edge,
        DeviceModel::default(),
        0,
        failfast_config(11),
        links,
    )
    .expect("valid cluster");

    let now = SimTime::ZERO + SimDuration::from_secs(1);
    let (record, route) = cluster.infer(now).expect("absorbed");
    assert_eq!(route.server, Some(1), "failed over to the healthy server");
    assert!(record.offloaded());

    // The fault cooldown is endpoint-local: A cools down, B does not.
    assert!(
        cluster.engine().profile_of(0).in_cooldown(now),
        "probe failure must cooldown the failing endpoint"
    );
    assert!(
        !cluster.engine().profile_of(1).in_cooldown(now),
        "a fault on server A must not cooldown server B"
    );

    // And the next request skips A entirely (cooldown, not just breaker).
    let next = now + SimDuration::from_secs(1);
    let (_, route) = cluster.infer(next).expect("absorbed");
    assert_eq!(route.server, Some(1));
    assert_eq!(route.attempts, 1, "cooling endpoint is not even attempted");

    drop(cluster);
    healthy.shutdown().expect("clean");
    switch.set_blocked(false);
    dead.shutdown().expect("server A was healthy all along");
}

/// Registering extra endpoints must not perturb the single-server path:
/// an engine with an unused second endpoint produces bit-identical
/// records to one without it.
#[test]
fn single_server_path_is_bit_identical_with_extra_endpoints_registered() {
    let (user, edge) = models();
    let graph = Arc::new(lp_models::alexnet(1));
    let device_times = DeviceModel::default().node_times(&graph);
    let run = |extra_endpoints: usize| -> Vec<InferenceRecord> {
        let server = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
        let mut engine = OffloadEngine::with_policy(
            Arc::clone(&graph),
            build_named("loadpart").expect("registered"),
            user,
            edge,
            0,
            failfast_config(23),
        )
        .expect("valid");
        for _ in 0..extra_endpoints {
            engine.add_endpoint();
        }
        engine.profile_of_mut(0).inject_bandwidth(8.0);
        let conn = server.connect();
        let mut records = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now += SimDuration::from_secs(1);
            let mut device = SimulatedDevice {
                times: &device_times,
            };
            let mut backend = WireBackend {
                server: &conn,
                deadline: Duration::from_millis(100),
            };
            let mut transport = WireTransport {
                server: &conn,
                deadline: Duration::from_millis(100),
            };
            match engine
                .start_on(0, now, &mut device, &mut backend, &mut transport)
                .expect("healthy server")
            {
                Outcome::Complete(r) => records.push(r),
                Outcome::Deferred(_) => unreachable!("wire backends never defer"),
            }
        }
        drop(conn);
        server.shutdown().expect("clean");
        records
    };
    let baseline = run(0);
    let with_extras = run(3);
    assert_eq!(
        baseline, with_extras,
        "endpoint registration alone must not change endpoint-0 behaviour"
    );
}

/// A wire that fails instantly plus a generous retry schedule must not
/// add up to a retry storm: the per-request retry budget truncates the
/// backoff sequence, so each request degrades locally in bounded time.
#[test]
fn retry_budget_prevents_a_retry_storm() {
    let server = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
    let switch = OutageSwitch::new();
    switch.set_blocked(true); // every exchange times out instantly
    let (user, edge) = models();
    let config = EngineConfig {
        seed: 31,
        io_timeout: Duration::from_millis(50),
        max_retries: 8,
        retry_backoff: Duration::from_millis(40),
        retry_jitter: true,
        retry_budget: Duration::from_millis(100),
        breaker_failure_threshold: 0, // no breaker: every request retries
        fault_cooldown: SimDuration::from_millis(1),
        ..EngineConfig::default()
    };
    // Un-truncated, each request would sleep 40+80+160+...+5120 ms; the
    // budget caps it at ~100 ms of planned backoff.
    let links = vec![ClusterLink {
        name: "dark".into(),
        bandwidth_mbps: 8.0,
        conn: gated(Box::new(server.connect()), &switch),
    }];
    let mut cluster = ClusterEngine::new(
        Arc::new(lp_models::alexnet(1)),
        build_named("loadpart").expect("registered"),
        user,
        edge,
        DeviceModel::default(),
        0,
        config,
        links,
    )
    .expect("valid cluster");
    let rounds = 8;
    let started = std::time::Instant::now();
    let results = drive(&mut cluster, rounds);
    let elapsed = started.elapsed();
    for (record, route) in &results {
        assert!(!record.offloaded(), "the wire is dark");
        assert_eq!(route.server, None);
    }
    assert!(
        elapsed < Duration::from_secs(3),
        "retry budget must bound degradation time, took {elapsed:?}"
    );
    drop(cluster);
    switch.set_blocked(false);
    server.shutdown().expect("server itself was healthy");
}

/// A server that sheds every request (zero admission budget) must not
/// cost the request its remote completion: the shed fails over to a
/// server with capacity within the same request, every time. (The
/// longer-horizon `retry_after` routing suspension is unit-tested in
/// `cluster::tests`, where the suspension clock can be scripted.)
#[test]
fn rejected_requests_fail_over_to_servers_with_capacity() {
    let shedding = spawn(
        LoadEnv::new(1.0),
        ServerFaultSpec::default(),
        Some(AdmissionConfig {
            max_inflight: 0, // rejects everything
            ..AdmissionConfig::default()
        }),
    );
    let healthy = spawn(LoadEnv::new(1.0), ServerFaultSpec::default(), None);
    // Breaker disabled: only the Rejected-aware failover may steer here.
    let config = EngineConfig {
        breaker_failure_threshold: 0,
        ..failfast_config(17)
    };
    let mut cluster = cluster_over(&[&shedding, &healthy], 8.0, config);
    let results = drive(&mut cluster, 4);
    for (record, route) in &results {
        assert!(
            record.offloaded() && !record.rejected && !record.fallback_local,
            "every request must end up served remotely"
        );
        assert_eq!(route.server, Some(1), "served by the server with capacity");
        assert!(route.failovers >= 1, "the shed must trigger failover");
    }
    // The client kept book on the sheds: every attempt at the shedding
    // server failed, none was served there.
    let status = &cluster.profile().servers()[0];
    assert_eq!(status.served, 0);
    assert!(status.failed >= results.len() as u64);
    drop(cluster);
    healthy.shutdown().expect("clean");
    shedding.shutdown().expect("clean");
}

/// Requests inside the outage window that some server completed remotely
/// (not local, not shed, not a degraded fallback), and how many requests
/// fell in the window. Records are round-major, client-minor.
fn outage_service(config: &ClusterChaosConfig, report: &ClusterChaosReport) -> (usize, usize) {
    let window: Vec<&InferenceRecord> = report
        .records
        .iter()
        .enumerate()
        .filter(|(i, _)| config.in_outage(i / config.n_clients))
        .map(|(_, r)| r)
        .collect();
    let remote = window
        .iter()
        .filter(|r| r.offloaded() && !r.fallback_local && !r.rejected)
        .count();
    (remote, window.len())
}

/// The scripted outage with failover on and off, spike disabled: the
/// preferred server goes dark for rounds 8..16 of 30. With failover the
/// other servers take every request in the window; pinned to the dark
/// server, the clients finish those requests on the device instead.
#[test]
fn failover_serves_every_outage_request_remotely_and_pinning_does_not() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let on = ClusterChaosConfig {
        rounds: 30,
        outage_start: 8,
        outage_rounds: 8,
        spike_rounds: 0,
        failover: true,
        ..ClusterChaosConfig::default()
    };
    let off = ClusterChaosConfig {
        failover: false,
        ..on.clone()
    };
    let run = |config: &ClusterChaosConfig| {
        cluster_chaos_run(&graph, user, edge, config, &Telemetry::disabled()).expect("valid")
    };
    let (on_report, off_report) = (run(&on), run(&off));
    assert_eq!(
        on_report,
        run(&on),
        "the failover soak must replay bit for bit"
    );
    assert_eq!(on_report.lost(), 0, "failover on lost requests");
    assert_eq!(off_report.lost(), 0, "failover off lost requests");
    assert!(on_report.failovers > 0, "the outage must force reroutes");

    let (on_remote, window) = outage_service(&on, &on_report);
    assert_eq!(window, on.n_clients * on.outage_rounds);
    assert_eq!(
        on_remote, window,
        "failover must serve every outage-window request remotely"
    );
    let (off_remote, _) = outage_service(&off, &off_report);
    assert!(
        off_remote < on_remote,
        "pinned clients served {off_remote} of {window} outage requests remotely"
    );
}

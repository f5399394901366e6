//! Fault-tolerance tests for the wire runtime: scripted drops, delays,
//! corruption, duplication and server crashes/stalls, all deterministic.
//!
//! The invariant under test everywhere: a wire fault never panics or hangs
//! the client. Transient faults are absorbed by bounded retries; persistent
//! faults degrade the request to local execution (`fallback_local` on the
//! record) and start a cooldown; once the fault clears, offloading resumes.
//!
//! Client-side faults are injected by an [`EmulatedLink`] running a
//! [`FaultPlan`] (a scripted middlebox between the engine and the server
//! channel); server-side crash
//! and stall scripts ride in [`ServerFaultSpec`]. Frame indices below
//! follow the client's per-request send order at steady state — probe (0)
//! and load query (1), which leave together as one pipelined refresh, then
//! the offload request (2) — shifted by retries. A retried refresh resends
//! both, so each refresh attempt is two frames, and one whose probe was
//! lost still sends (and gets answered) its query.

use loadpart::{
    spawn_server, spawn_server_tuned, EmulatedLink, EngineConfig, FaultAction, FaultPlan,
    FrameChannel, InferenceRecord, LinkSpec, LoadEnv, ServerFaultSpec, ServerHandle, ServerTuning,
    StallWindow, Telemetry, ThreadedClient,
};
use lp_profiler::PredictionModels;
use std::sync::OnceLock;
use std::time::Duration;

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

/// Short deadlines and no backoff sleeps keep the fault paths fast while
/// exercising exactly the same code as the defaults.
fn fast_client(graph: lp_graph::ComputationGraph) -> ThreadedClient {
    let (user, edge) = models();
    ThreadedClient::with_config(
        graph,
        user,
        edge,
        EngineConfig {
            io_timeout: Duration::from_millis(100),
            retry_backoff: Duration::ZERO,
            ..EngineConfig::default()
        },
    )
    .expect("valid config")
}

/// A plain link to `server` that executes the client-side fault `plan`.
fn faulty<C: FrameChannel>(server: &C, plan: FaultPlan) -> EmulatedLink<&C> {
    EmulatedLink::new(
        server,
        LinkSpec {
            faults: plan,
            ..LinkSpec::default()
        },
    )
}

/// A server for `graph` running the server-side fault script `faults`.
fn faulty_server(graph: lp_graph::ComputationGraph, faults: ServerFaultSpec) -> ServerHandle {
    let (_, edge) = models();
    spawn_server_tuned(
        graph,
        edge.clone(),
        LoadEnv::new(1.0),
        faults,
        None,
        &Telemetry::disabled(),
        ServerTuning,
    )
}

const N: usize = 27; // alexnet node count: p == N means fully local

#[test]
fn dropped_offload_request_is_absorbed_by_a_retry() {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = fast_client(graph);
    // The first offload request (send frame 2) vanishes; the retry lands.
    let plan = FaultPlan::new().on_send(2, FaultAction::Drop);
    let inj = faulty(&server, plan);
    let r = client.infer(&inj, 8.0).expect("absorbed");
    assert!(r.offloaded(), "retry must complete the offload");
    assert!(!r.fallback_local);
    assert_eq!(r.retries, 1, "exactly one resend");
    assert_eq!(inj.faults_injected(), 1);
    assert_eq!(server.shutdown(), Ok(1));
}

#[test]
fn persistent_drops_degrade_locally_then_recover() {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = fast_client(graph);
    // All three offload attempts of request 0 (sends 2, 3, 4) vanish.
    let plan = FaultPlan::new()
        .on_send(2, FaultAction::Drop)
        .on_send(3, FaultAction::Drop)
        .on_send(4, FaultAction::Drop);
    let inj = faulty(&server, plan);

    let r0 = client.infer(&inj, 8.0).expect("no panic");
    assert!(
        r0.fallback_local,
        "exhausted retries must fall back locally"
    );
    assert!(r0.p < N && r0.uploaded_bytes > 0, "fault hit mid-offload");
    assert_eq!(r0.retries, 2, "default budget: 2 retries, 3 attempts");

    // Cooldown (10 s logical = 2 requests): local by decision, no wire,
    // and explicitly NOT a fallback — the fault happened last request.
    let r1 = client.infer(&inj, 8.0).expect("no panic");
    assert_eq!((r1.p, r1.fallback_local, r1.retries), (N, false, 0));

    // Cooldown expired: the next refresh probes, succeeds, and offloading
    // resumes on the same channel.
    let r2 = client.infer(&inj, 8.0).expect("no panic");
    assert!(r2.offloaded() && !r2.fallback_local, "{r2:?}");
    assert_eq!(
        server.shutdown(),
        Ok(1),
        "only the recovered request arrived"
    );
}

#[test]
fn reply_delayed_past_the_deadline_is_recovered_as_stale() {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = fast_client(graph);
    // The offload response (recv frame 2) crosses the deadline; it lands
    // late, during the retry's receive, and still matches the request id.
    let plan = FaultPlan::new().on_recv(2, FaultAction::Delay);
    let inj = faulty(&server, plan);
    let r0 = client.infer(&inj, 8.0).expect("no panic");
    assert!(r0.offloaded() && !r0.fallback_local);
    assert_eq!(r0.retries, 1, "one timed-out exchange");
    // The retry produced a second, unconsumed response; the next request's
    // probe must skip it as stale instead of misreading it as an ack.
    let r1 = client.infer(&inj, 8.0).expect("stale frame skipped");
    assert!(r1.offloaded() && !r1.fallback_local);
    assert_eq!(r1.retries, 0);
    assert_eq!(
        server.shutdown(),
        Ok(3),
        "request 0 twice (retry) + request 1"
    );
}

#[test]
fn corrupt_frames_in_both_directions_are_retried() {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = fast_client(graph);
    // Send 1 (load query) reaches the server corrupted: it drops the frame
    // and the whole refresh retries (probe 2, query 3). Recv 3 (the
    // offload response, after the extra ack+reply) arrives corrupted: the
    // client's decoder rejects it and the offload retries.
    let plan = FaultPlan::new()
        .on_send(1, FaultAction::Corrupt)
        .on_recv(3, FaultAction::Corrupt);
    let inj = faulty(&server, plan);
    let r = client.infer(&inj, 8.0).expect("no panic");
    assert!(r.offloaded() && !r.fallback_local, "{r:?}");
    assert_eq!(r.retries, 2, "one refresh retry + one offload retry");
    assert_eq!(inj.faults_injected(), 2);
    assert_eq!(server.shutdown(), Ok(2), "original + retried offload");
}

#[test]
fn duplicated_reply_is_drained_not_misattributed() {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = fast_client(graph);
    // The offload response arrives twice; the twin must not be mistaken
    // for the next request's probe ack.
    let plan = FaultPlan::new().on_recv(2, FaultAction::Duplicate);
    let inj = faulty(&server, plan);
    let r0 = client.infer(&inj, 8.0).expect("no panic");
    let r1 = client.infer(&inj, 8.0).expect("twin skipped as stale");
    for r in [&r0, &r1] {
        assert!(
            r.offloaded() && !r.fallback_local && r.retries == 0,
            "{r:?}"
        );
    }
    assert_eq!(server.shutdown(), Ok(2));
}

/// Runs `requests` requests through a link scripted with
/// `plan`; returns the records and how many offloads the server served.
fn scripted_session(plan: FaultPlan, requests: usize) -> (Vec<InferenceRecord>, u64) {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = fast_client(graph);
    let inj = faulty(&server, plan);
    let records = (0..requests)
        .map(|_| client.infer(&inj, 8.0).expect("no panic"))
        .collect();
    assert_eq!(inj.faults_injected(), 1);
    (records, server.shutdown().expect("clean shutdown"))
}

/// Every request offloaded; request 0 after one refresh retry, the rest
/// clean.
fn assert_one_refresh_retry(records: &[InferenceRecord]) {
    for (i, r) in records.iter().enumerate() {
        assert!(r.offloaded() && !r.fallback_local, "request {i}: {r:?}");
        assert_eq!(r.retries, u32::from(i == 0), "request {i}: {r:?}");
    }
}

#[test]
fn dropped_probe_fails_its_refresh_though_its_query_was_answered() {
    // The probe (send 0) vanishes; the load query (send 1) is answered,
    // but its reply arrives while the ack is still owed and is skipped as
    // stale. The refresh times out and its retry (sends 2, 3) succeeds.
    let (records, served) = scripted_session(FaultPlan::new().on_send(0, FaultAction::Drop), 2);
    assert_one_refresh_retry(&records);
    assert_eq!(served, 2);
}

#[test]
fn probe_delayed_behind_its_query_fails_the_refresh_once() {
    // The probe is held behind the query, so the server answers the query
    // first: the reply is skipped as stale, the ack lands, and the wait
    // for the reply times out. The retry finds a clean wire.
    let (records, served) = scripted_session(FaultPlan::new().on_send(0, FaultAction::Delay), 4);
    assert_one_refresh_retry(&records);
    assert_eq!(served, 4);
}

#[test]
fn probe_ack_delayed_past_the_deadline_lands_stale_on_the_retry() {
    // The first ack (recv 0) crosses the deadline. On the retry it lands
    // as the awaited ack and the first reply answers the wait; the
    // retry's own ack and reply are skipped as stale by the offload.
    let (records, served) = scripted_session(FaultPlan::new().on_recv(0, FaultAction::Delay), 4);
    assert_one_refresh_retry(&records);
    assert_eq!(served, 4);
}

#[test]
fn duplicated_probe_ack_is_skipped_as_stale() {
    let (records, served) =
        scripted_session(FaultPlan::new().on_recv(0, FaultAction::Duplicate), 4);
    for (i, r) in records.iter().enumerate() {
        assert!(
            r.offloaded() && !r.fallback_local && r.retries == 0,
            "request {i}: {r:?}"
        );
    }
    assert_eq!(served, 4);
}

#[test]
fn server_crash_mid_session_falls_back_then_fresh_server_recovers() {
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    // Request 0 consumes frames 1-3; request 1's offload request is frame
    // 6, which crosses the threshold and kills the server thread unserved.
    let server = faulty_server(
        graph.clone(),
        ServerFaultSpec {
            crash_after_frames: Some(5),
            ..ServerFaultSpec::default()
        },
    );
    let mut client = fast_client(graph.clone());

    let r0 = client.infer(&server, 8.0).expect("healthy");
    assert!(r0.offloaded() && !r0.fallback_local);

    // The crash lands after the upload: the record must come back
    // completed locally, not as a panic, hang or error.
    let r1 = client.infer(&server, 8.0).expect("no panic on crash");
    assert!(r1.fallback_local, "{r1:?}");
    assert!(r1.p < N && r1.uploaded_bytes > 0, "crash hit mid-offload");

    // Cooldown: local by decision, the dead channel is not touched.
    let r2 = client.infer(&server, 8.0).expect("no panic");
    assert_eq!((r2.p, r2.fallback_local), (N, false));
    drop(server);

    // The operator restarts the server; the client's next due refresh
    // probes it and offloading resumes.
    let server = spawn_server(graph, edge.clone(), 1.0);
    let r3 = client.infer(&server, 8.0).expect("recovered");
    assert!(r3.offloaded() && !r3.fallback_local, "{r3:?}");
    assert_eq!(r3.retries, 0);
    assert_eq!(server.shutdown(), Ok(1));
}

#[test]
fn server_stall_window_degrades_then_same_server_recovers() {
    let graph = lp_models::alexnet(1);
    // Frames 3-8 are swallowed: request 1's three refresh attempts (probe
    // + load query each) all time out, request 2 rides out the cooldown
    // locally, and request 3 finds the server responsive again — same
    // channel, no respawn.
    let server = faulty_server(
        graph.clone(),
        ServerFaultSpec {
            stall: Some(StallWindow {
                after_frames: 3,
                frames: 6,
            }),
            ..ServerFaultSpec::default()
        },
    );
    let mut client = fast_client(graph);

    let r0 = client.infer(&server, 8.0).expect("healthy");
    assert!(r0.offloaded() && !r0.fallback_local);

    let r1 = client.infer(&server, 8.0).expect("no hang");
    assert!(r1.fallback_local, "{r1:?}");
    assert_eq!(r1.retries, 2);

    let r2 = client.infer(&server, 8.0).expect("no panic");
    assert_eq!((r2.p, r2.fallback_local), (N, false));

    let r3 = client.infer(&server, 8.0).expect("recovered");
    assert!(r3.offloaded() && !r3.fallback_local, "{r3:?}");
    assert_eq!(server.shutdown(), Ok(2), "requests 0 and 3 were served");
}

/// A middlebox that rewrites the tag byte of one scripted reply to a value
/// this protocol version has never assigned — the frame a *newer* server
/// would send to an old client.
struct FutureTagRewriter<'a, C: loadpart::FrameChannel> {
    inner: &'a C,
    recvs: std::sync::Mutex<u64>,
    target: u64,
}

impl<C: loadpart::FrameChannel> loadpart::FrameChannel for FutureTagRewriter<'_, C> {
    fn send(&self, frame: bytes::Bytes) -> Result<(), loadpart::ProtocolError> {
        self.inner.send(frame)
    }

    fn recv_deadline(
        &self,
        deadline: std::time::Instant,
    ) -> Result<bytes::Bytes, loadpart::ProtocolError> {
        let frame = self.inner.recv_deadline(deadline)?;
        let mut recvs = self.recvs.lock().expect("test lock");
        let idx = *recvs;
        *recvs += 1;
        if idx == self.target && frame.len() >= 2 {
            // Keep the version byte; claim a tag from the future.
            let mut b = bytes::BytesMut::with_capacity(frame.len());
            use bytes::BufMut;
            b.put_u8(frame[0]);
            b.put_u8(0xEE);
            b.put_slice(&frame[2..]);
            return Ok(b.freeze());
        }
        Ok(frame)
    }
}

/// Wire compatibility: a frame carrying a tag this decoder does not know
/// (e.g. `Rejected` arriving at a pre-`Rejected` client) maps to
/// [`ProtocolError::Unexpected`] — never a panic — and the bounded retry
/// absorbs it like any other malformed reply.
#[test]
fn future_tag_reply_degrades_gracefully_on_an_old_decoder() {
    use loadpart::{Message, ProtocolError};

    // The decoder itself: unknown tag is an error value, not a panic.
    let mut raw = bytes::BytesMut::new();
    {
        use bytes::BufMut;
        raw.put_u8(loadpart::PROTOCOL_VERSION);
        raw.put_u8(0xEE); // a tag from the future
        raw.put_u8(0); // payload the old decoder cannot know
    }
    assert_eq!(
        Message::decode(raw.freeze()),
        Err(ProtocolError::UnknownTag(0xEE))
    );

    // End to end: the offload response (recv frame 2) arrives with a
    // future tag; the client treats it as an unexpected reply and retries.
    let (_, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = fast_client(graph);
    let rewriter = FutureTagRewriter {
        inner: &server,
        recvs: std::sync::Mutex::new(0),
        target: 2,
    };
    let r = client.infer(&rewriter, 8.0).expect("no panic");
    assert!(r.offloaded() && !r.fallback_local, "{r:?}");
    assert_eq!(r.retries, 1, "the unknown-tag reply costs one retry");
    assert_eq!(server.shutdown(), Ok(2), "original + retried offload");
}

/// A server thread that panics mid-session degrades the in-flight request
/// to local and surfaces the panic as `Err(ServerPanicked)` at shutdown —
/// the panic never crosses into the client.
#[test]
fn server_panic_mid_session_is_reported_at_shutdown() {
    use loadpart::ProtocolError;

    let graph = lp_models::alexnet(1);
    // Frames 0-2 serve request 0; frame 3 (request 1's probe) crosses the
    // threshold and panics the server thread.
    let server = faulty_server(
        graph.clone(),
        ServerFaultSpec {
            panic_after_frames: Some(3),
            ..ServerFaultSpec::default()
        },
    );
    let mut client = fast_client(graph);

    let r0 = client.infer(&server, 8.0).expect("healthy");
    assert!(r0.offloaded() && !r0.fallback_local);

    let r1 = client
        .infer(&server, 8.0)
        .expect("no panic crosses the wire");
    assert!(r1.fallback_local, "{r1:?}");

    assert_eq!(server.shutdown(), Err(ProtocolError::ServerPanicked));
}

/// The engine's feedback guard end to end: a crash/retry episode that
/// degrades a request to local fallback, and the cooldown request after it
/// (local on the degraded path, without consulting the policy), must leave
/// an online learner's estimates bit-identical to its untouched priors —
/// only the healthy offload after recovery trains it.
#[test]
fn a_crash_retry_episode_never_trains_the_online_learner() {
    use loadpart::{
        BanditConfig, BanditPolicy, EngineConfig, PartitionPolicy, PolicyContext, ThreadedClient,
    };
    use lp_sim::SimTime;

    fn bandit(client: &ThreadedClient) -> &BanditPolicy {
        client
            .engine()
            .policy()
            .as_any()
            .expect("the bandit exposes its state")
            .downcast_ref()
            .expect("the engine policy is the bandit")
    }

    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let server = spawn_server(graph.clone(), edge.clone(), 1.0);
    let mut client = ThreadedClient::with_policy(
        graph,
        Box::new(BanditPolicy::new(BanditConfig::default())),
        user,
        edge,
        EngineConfig {
            io_timeout: Duration::from_millis(100),
            retry_backoff: Duration::ZERO,
            ..EngineConfig::default()
        },
    )
    .expect("valid config");

    // All three offload attempts of request 0 (sends 2, 3, 4) vanish.
    let plan = FaultPlan::new()
        .on_send(2, FaultAction::Drop)
        .on_send(3, FaultAction::Drop)
        .on_send(4, FaultAction::Drop);
    let inj = faulty(&server, plan);

    let r0 = client.infer(&inj, 8.0).expect("no panic");
    assert!(r0.fallback_local, "{r0:?}");
    assert_eq!(r0.retries, 2, "default budget exhausted");
    assert_eq!(
        bandit(&client).observations(),
        0,
        "a fallback record must not train the learner"
    );
    // The bandit decided r0 (healthy path), so its bandwidth bucket exists
    // — and every arm's estimate must still equal the pure model prior,
    // reproduced here on a fresh learner given the same decision context.
    let mut fresh = BanditPolicy::new(BanditConfig::default());
    fresh.decide(&PolicyContext {
        solver: client.engine().solver(),
        bandwidth_mbps: r0.bandwidth_est_mbps,
        k: r0.k_used,
        now: SimTime::ZERO,
    });
    for p in client.engine().solver().candidate_points() {
        assert_eq!(
            bandit(&client).estimate_secs(r0.bandwidth_est_mbps, p),
            fresh.estimate_secs(r0.bandwidth_est_mbps, p),
            "arm {p}: estimate poisoned by the crash/retry episode"
        );
    }

    // Cooldown request: local on the degraded path, the policy was never
    // consulted — its record (neither fallback nor shed) must not train
    // the learner either.
    let r1 = client.infer(&inj, 8.0).expect("no panic");
    assert_eq!((r1.p, r1.fallback_local, r1.rejected), (N, false, false));
    assert_eq!(
        bandit(&client).observations(),
        0,
        "a cooldown record the policy never decided must not train it"
    );

    // Cooldown expired: the healthy offload is real feedback and trains.
    let r2 = client.infer(&inj, 8.0).expect("no panic");
    assert!(r2.offloaded() && !r2.fallback_local, "{r2:?}");
    assert_eq!(bandit(&client).observations(), 1);
    assert_ne!(
        bandit(&client).estimate_secs(r2.bandwidth_est_mbps, r2.p),
        fresh.estimate_secs(r2.bandwidth_est_mbps, r2.p),
        "healthy feedback must move the pulled arm's estimate"
    );
    server.shutdown().expect("clean shutdown");
}

//! The client-side wire-fault scenarios every transport must survive,
//! one body each. `tests/fault_tolerance.rs` runs them over an
//! in-process session and `tests/tcp_transport.rs` over a loopback TCP
//! socket, with the same assertions: retries, local fallback, cooldown,
//! the faults that fired and the offloads the server served.
//!
//! A [`FaultPlan`] scripts the faults by frame index, in the client's
//! per-request send order at steady state: probe (0) and load query (1),
//! which leave together as one pipelined refresh, then the offload
//! request (2), shifted by retries.

use loadpart::{
    EmulatedLink, EngineConfig, FaultAction, FaultPlan, FrameChannel, LinkSpec, ProtocolError,
    ThreadedClient,
};
use lp_profiler::PredictionModels;
use std::sync::OnceLock;
use std::time::Duration;

/// The models every scenario trains once per test binary.
pub fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

/// Short deadlines and no backoff sleeps keep the fault paths fast while
/// exercising exactly the same code as the defaults.
pub fn fast_client(graph: lp_graph::ComputationGraph) -> ThreadedClient {
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

/// A plain link over `chan` that executes the client-side fault `plan`.
pub fn faulty<C: FrameChannel + ?Sized>(chan: &C, plan: FaultPlan) -> EmulatedLink<&C> {
    EmulatedLink::new(
        chan,
        LinkSpec {
            faults: plan,
            ..LinkSpec::default()
        },
    )
}

/// Alexnet's node count: p == N means fully local.
pub const N: usize = 27;

/// An idle alexnet server (`k = 1`) and the channel a client reaches it
/// over.
pub trait Rig {
    /// The client's channel to the server.
    fn chan(&self) -> &dyn FrameChannel;
    /// Shuts the server down; returns how many offloads it served.
    fn shutdown(self) -> Result<u64, ProtocolError>;
}

/// The first offload request (send frame 2) vanishes; the retry lands.
pub fn dropped_offload_request_is_absorbed_by_a_retry(rig: impl Rig) {
    let mut client = fast_client(lp_models::alexnet(1));
    let inj = faulty(rig.chan(), FaultPlan::new().on_send(2, FaultAction::Drop));
    let r = client.infer(&inj, 8.0).expect("absorbed");
    assert!(r.offloaded(), "retry must complete the offload");
    assert!(!r.fallback_local);
    assert_eq!(r.retries, 1, "exactly one resend");
    assert_eq!(inj.faults_injected(), 1);
    assert_eq!(rig.shutdown(), Ok(1));
}

/// All three offload attempts of request 0 (sends 2, 3, 4) vanish: the
/// request falls back locally, the next one cools down on the device,
/// and the one after offloads again over the same link.
pub fn persistent_drops_degrade_locally_then_recover(rig: impl Rig) {
    let mut client = fast_client(lp_models::alexnet(1));
    let plan = FaultPlan::new()
        .on_send(2, FaultAction::Drop)
        .on_send(3, FaultAction::Drop)
        .on_send(4, FaultAction::Drop);
    let inj = faulty(rig.chan(), plan);

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
    assert_eq!(rig.shutdown(), Ok(1), "only the recovered request arrived");
}

/// The offload response (recv frame 2) crosses the deadline; it lands
/// late, during the retry's receive, and still matches the request id.
pub fn reply_delayed_past_the_deadline_is_recovered_as_stale(rig: impl Rig) {
    let mut client = fast_client(lp_models::alexnet(1));
    let inj = faulty(rig.chan(), FaultPlan::new().on_recv(2, FaultAction::Delay));
    let r0 = client.infer(&inj, 8.0).expect("no panic");
    assert!(r0.offloaded() && !r0.fallback_local);
    assert_eq!(r0.retries, 1, "one timed-out exchange");
    // The retry produced a second, unconsumed response; the next request's
    // probe must skip it as stale instead of misreading it as an ack.
    let r1 = client.infer(&inj, 8.0).expect("stale frame skipped");
    assert!(r1.offloaded() && !r1.fallback_local);
    assert_eq!(r1.retries, 0);
    assert_eq!(rig.shutdown(), Ok(3), "request 0 twice (retry) + request 1");
}

/// Send 1 (load query) reaches the server corrupted: it drops the frame
/// and the whole refresh retries (probe 2, query 3). Recv 3 (the offload
/// response, after the extra ack+reply) arrives corrupted: the client's
/// decoder rejects it and the offload retries.
pub fn corrupt_frames_in_both_directions_are_retried(rig: impl Rig) {
    let mut client = fast_client(lp_models::alexnet(1));
    let plan = FaultPlan::new()
        .on_send(1, FaultAction::Corrupt)
        .on_recv(3, FaultAction::Corrupt);
    let inj = faulty(rig.chan(), plan);
    let r = client.infer(&inj, 8.0).expect("no panic");
    assert!(r.offloaded() && !r.fallback_local, "{r:?}");
    assert_eq!(r.retries, 2, "one refresh retry + one offload retry");
    assert_eq!(inj.faults_injected(), 2);
    assert_eq!(rig.shutdown(), Ok(2), "original + retried offload");
}

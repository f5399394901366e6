//! The chaos soak: overload protection exercised end to end, bounded and
//! deterministic (well under the CI budget of two minutes).
//!
//! The soak's single-server preset (`ChaosConfig::default()`): eight wire
//! clients, each a `ClusterEngine` with failover off, drive an
//! admission-controlled server through a scripted GPU load spike with
//! client-side frame faults layered on top. The soak asserts the full
//! overload-protection story:
//!
//! * **liveness** — every request completes, locally or remotely; no
//!   panics, no hangs (the run itself finishing is the assertion);
//! * **shedding** — during the spike the server rejects offloads instead
//!   of queueing them (`server.rejected_total` is nonzero), because
//!   clients keep offloading on a stale load factor until their next
//!   profiler refresh;
//! * **graceful degradation** — every shed request still completes on the
//!   device, and a request is never double-counted as both shed and
//!   fallback;
//! * **breaker convergence** — every client's breaker has cycled back to
//!   closed within five profiler periods of the spike ending;
//! * **bounded latency** — the worst end-to-end time stays within the
//!   local-plus-retry budget;
//! * **determinism** — an identical config replays bit-identically.

use loadpart::chaos::Window;
use loadpart::{chaos_run, BreakerState, ChaosConfig, ChaosTransport, Telemetry};
use lp_profiler::PredictionModels;
use lp_sim::SimDuration;
use std::sync::OnceLock;

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

/// The full spike-survival assertion set, shared by every transport: the
/// soak's guarantees are about the protection machinery, not about how
/// frames move, so the same config must pass the same checks whether the
/// clients talk over in-process channels or loopback TCP sockets.
fn assert_spike_survival(cfg: &ChaosConfig) {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let telemetry = Telemetry::enabled();
    let report = chaos_run(&graph, user, edge, cfg, &telemetry).expect("valid config");

    // Liveness: every client completed every round.
    assert_eq!(report.total_completed(), cfg.n_clients * cfg.rounds);
    for client in &report.clients {
        assert_eq!(client.completed, cfg.rounds, "client {}", client.client);
        assert_eq!(
            client.offloaded + client.local + client.shed + client.fallbacks,
            client.completed,
            "client {}: every request classified exactly once",
            client.client
        );
    }
    assert_eq!(report.records.len(), cfg.n_clients * cfg.rounds);

    // Shedding: the server rejected work during the spike — load awareness
    // alone cannot shed requests issued on a stale `k`.
    assert!(
        report.spike_sheds > 0,
        "admission control must reject during the spike"
    );
    assert_eq!(
        report.spike_sheds, report.sheds,
        "outside the spike the budget is never exceeded"
    );

    // Graceful degradation: a shed request completes locally and is never
    // also counted as a wire-fault fallback.
    for record in &report.records {
        assert!(
            !(record.rejected && record.fallback_local),
            "shed and fallback are distinct outcomes"
        );
    }

    // Breaker convergence: the tail of the timeline is five profiler
    // periods, and every breaker is closed again by the end of it.
    assert!(
        report.all_breakers_closed(),
        "breakers must converge after the spike: {:?}",
        report
            .clients
            .iter()
            .map(|c| c.breaker_state)
            .collect::<Vec<_>>()
    );
    // The spike tripped at least one breaker: shedding was not silent.
    assert!(
        report.clients.iter().any(|c| c.breaker_transitions >= 3),
        "at least one breaker must complete a closed/open/half-open cycle"
    );

    // Bounded latency: even the worst request stays within the local
    // inference plus bounded-retry budget.
    assert!(
        report.max_total() < SimDuration::from_secs(1),
        "worst latency {:?} exceeds the soak budget",
        report.max_total()
    );

    // The scripted frame faults actually fired and were absorbed.
    let faults: u64 = report.clients.iter().map(|c| c.faults_injected).sum();
    assert!(faults > 0, "the fault plans must fire");

    // Telemetry tells the same story as the report.
    let snapshot = telemetry.snapshot().expect("metrics enabled");
    assert_eq!(
        snapshot.counter("server.rejected_total"),
        report.sheds,
        "server-side rejection counter matches the client-side shed count"
    );
    assert_eq!(snapshot.counter("engine.rejected_total"), report.sheds);
    assert!(snapshot.counter("breaker.transitions_total") > 0);
    assert_eq!(snapshot.gauge("chaos.breakers_closed"), Some(1.0));
}

#[test]
fn chaos_soak_survives_a_load_spike() {
    assert_spike_survival(&ChaosConfig::default());
}

/// The same soak, the same assertions, but every frame crosses a real
/// loopback TCP socket: the server sits behind a [`SocketServer`] acceptor
/// and each client holds its own `TcpFrameChannel` connection.
#[test]
fn chaos_soak_survives_a_load_spike_over_tcp() {
    assert_spike_survival(&ChaosConfig {
        transport: ChaosTransport::Tcp,
        ..ChaosConfig::default()
    });
}

#[test]
fn chaos_soak_replays_bit_identically() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let cfg = ChaosConfig::default();
    let a = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
    let b = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
    assert_eq!(a, b, "same config, same soak, frame for frame");
}

/// Without a spike the soak is quiet: no sheds, no breaker transitions
/// beyond what the scripted faults cause, everything still live.
#[test]
fn quiet_timeline_sheds_nothing() {
    let (user, edge) = models();
    let graph = lp_models::alexnet(1);
    let cfg = ChaosConfig {
        spike: Window::default(),
        rounds: 12,
        fault_plans: Vec::new(),
        ..ChaosConfig::default()
    };
    let report = chaos_run(&graph, user, edge, &cfg, &Telemetry::disabled()).expect("valid");
    assert_eq!(report.total_completed(), cfg.n_clients * cfg.rounds);
    assert_eq!(report.sheds, 0, "no spike, no shedding");
    assert!(report.all_breakers_closed());
    assert!(report
        .clients
        .iter()
        .all(|c| c.breaker_state == BreakerState::Closed && c.breaker_transitions == 0));
}

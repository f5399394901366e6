//! Adverse-condition tests: the system must stay sane (no panics, bounded
//! behaviour, eventual recovery) under hostile network and load dynamics.

use loadpart::{OffloadingSystem, Policy, SystemConfig, Testbed};
use lp_hardware::LoadLevel;
use lp_net::{BandwidthTrace, Link};
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::OnceLock;

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

fn system_with_link(link: Link, policy: Policy) -> OffloadingSystem {
    let (user, edge) = models();
    OffloadingSystem::new(
        lp_models::alexnet(1),
        policy,
        Testbed::new(link, 77),
        user,
        edge,
        SystemConfig::default(),
    )
}

/// Near-dead uplink (0.05 Mbps): the system must settle on local inference
/// rather than stall on multi-minute uploads.
#[test]
fn starved_link_degrades_to_local() {
    let link = Link::symmetric(BandwidthTrace::constant(0.05));
    let mut sys = system_with_link(link, Policy::LoadPart);
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    let mut last_p = 0;
    for _ in 0..6 {
        let r = sys.infer(t);
        last_p = r.p;
        // Even the first (possibly offloaded) request must finish.
        assert!(r.total.as_secs_f64() < 120.0);
        t = t + r.total + SimDuration::from_millis(50);
    }
    assert_eq!(last_p, 27, "should settle on local inference");
}

/// A bandwidth cliff mid-experiment (64 -> 0.5 Mbps): the estimator's
/// sliding window must pull the decision back within a few profiler
/// periods, and no request may observe an estimate of zero.
#[test]
fn bandwidth_cliff_recovery() {
    let link = Link::symmetric(BandwidthTrace::steps(&[(0.0, 64.0), (10.0, 0.5)]));
    let mut sys = system_with_link(link, Policy::LoadPart);
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    let mut final_p = 0;
    while t.as_secs_f64() < 60.0 {
        let r = sys.infer(t);
        assert!(r.bandwidth_est_mbps > 0.0);
        final_p = r.p;
        t = t + r.total + SimDuration::from_millis(200);
    }
    assert!(
        final_p > 20,
        "after the cliff the device should carry the network, got p={final_p}"
    );
}

/// Load flapping every couple of seconds must not wedge the GPU simulator
/// or the k tracker; latencies stay within an order of magnitude of idle.
#[test]
fn load_flapping_is_survivable() {
    let (user, edge) = models();
    let mut sys = OffloadingSystem::new(
        lp_models::squeezenet(1),
        Policy::LoadPart,
        Testbed::with_constant_bandwidth(8.0, 3),
        user,
        edge,
        SystemConfig::default(),
    );
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    let levels = [
        LoadLevel::Idle,
        LoadLevel::Pct100High,
        LoadLevel::Pct50,
        LoadLevel::Pct100Low,
        LoadLevel::Idle,
        LoadLevel::Pct100High,
    ];
    let mut worst: f64 = 0.0;
    for (i, &level) in levels.iter().cycle().take(24).enumerate() {
        sys.testbed.server.set_load(level);
        let r = sys.infer(t);
        worst = worst.max(r.total.as_secs_f64());
        t = t + r.total + SimDuration::from_millis(500 + 37 * i as u64);
    }
    assert!(worst < 3.0, "worst latency {worst:.2}s under flapping load");
}

/// The Neurosurgeon baseline must also survive heavy load (it just pays
/// for it), and its partition point must never change.
#[test]
fn baseline_is_stable_under_duress() {
    let (user, edge) = models();
    let mut sys = OffloadingSystem::new(
        lp_models::alexnet(1),
        Policy::Neurosurgeon,
        Testbed::with_constant_bandwidth(8.0, 5),
        user,
        edge,
        SystemConfig::default(),
    );
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    let first = sys.infer(t);
    sys.testbed.server.set_load(LoadLevel::Pct100High);
    for _ in 0..10 {
        t += SimDuration::from_millis(700);
        let r = sys.infer(t);
        assert_eq!(r.p, first.p);
        assert!(r.total.as_secs_f64() < 5.0);
    }
}

/// Requests arriving in rapid succession (faster than the service time)
/// queue up in the foreground context FIFO and all complete.
#[test]
fn burst_arrivals_all_complete() {
    let (user, edge) = models();
    let mut sys = OffloadingSystem::new(
        lp_models::alexnet(1),
        Policy::Full,
        Testbed::with_constant_bandwidth(64.0, 9),
        user,
        edge,
        SystemConfig::default(),
    );
    // The co-simulation is closed-loop per request, but nothing stops a
    // caller issuing the next request immediately after the previous one.
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    for _ in 0..20 {
        let r = sys.infer(t);
        assert!(r.total > SimDuration::ZERO);
        t += SimDuration::from_micros(500); // way below service time
        t = t.max(r.start + SimDuration::from_micros(1));
    }
}

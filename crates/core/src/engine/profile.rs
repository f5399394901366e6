//! The device-side runtime profile: bandwidth estimate + load factor.
//!
//! The paper's runtime profiler is a device thread that periodically (§IV,
//! 5 s period) probes the upload bandwidth and asks the server for the
//! current load influence factor `k`. [`RuntimeProfile`] is that thread's
//! state, made driver-agnostic: one refresh is one
//! [`Transport::probe_and_query_k`] call — the simulated link probes and
//! then asks the [`ServerBackend`]; the wire sends the probes and the load
//! query as one pipelined batch — so the same cadence logic serves the
//! co-simulation, the wire runtime and multi-client runs.

use crate::engine::{ServerBackend, Transport};
use crate::protocol::ProtocolError;
use crate::telemetry::Telemetry;
use lp_net::ProbeProfiler;
use lp_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// How many refresh periods a bandwidth sample stays relevant. Eight
/// periods matches the default window of eight samples probed once per
/// period, so a healthy steady-state window is never shrunk by age.
const MAX_SAMPLE_AGE_PERIODS: f64 = 8.0;

/// The state the periodic runtime-profiler action maintains.
#[derive(Debug)]
pub struct RuntimeProfile {
    probe: ProbeProfiler,
    period: SimDuration,
    cached_k: f64,
    last_refresh: Option<SimTime>,
    injected_mbps: Option<f64>,
    cooldown_until: Option<SimTime>,
}

impl RuntimeProfile {
    /// Creates a profile with the given estimator window and refresh
    /// period. Samples older than eight periods are evicted from the
    /// window (§IV's sliding window is over *recent* transfers; a long
    /// local-only stretch must read as cold, not as the last estimate).
    #[must_use]
    pub fn new(window: usize, period: SimDuration) -> Self {
        let mut probe = ProbeProfiler::new(window);
        probe.estimator = probe
            .estimator
            .clone()
            .with_max_age(period.scale(MAX_SAMPLE_AGE_PERIODS));
        Self {
            probe,
            period,
            cached_k: 1.0,
            last_refresh: None,
            injected_mbps: None,
            cooldown_until: None,
        }
    }

    /// The probe profiler (estimator window + probe sizing), for
    /// inspection.
    #[must_use]
    pub fn probe_profiler(&self) -> &ProbeProfiler {
        &self.probe
    }

    /// Mutable access for transports that feed passive measurements.
    #[must_use]
    pub fn probe_profiler_mut(&mut self) -> &mut ProbeProfiler {
        &mut self.probe
    }

    /// Overrides the bandwidth estimate with an externally supplied value
    /// (the threaded runtime injects the bandwidth instead of measuring a
    /// simulated link). Probing still happens, but the estimate is pinned.
    pub fn inject_bandwidth(&mut self, mbps: f64) {
        self.injected_mbps = Some(mbps);
    }

    /// The load factor most recently fetched from the server.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.cached_k
    }

    /// Replaces the cached load factor (an explicit, out-of-cadence `k`
    /// fetch).
    pub fn set_k(&mut self, k: f64) {
        self.cached_k = k;
    }

    /// The bandwidth estimate decisions should use at `now`: the injected
    /// value if any, else the window mean over samples that have not aged
    /// out. `None` before any sample or once every sample is stale.
    #[must_use]
    pub fn bandwidth_mbps(&self, now: SimTime) -> Option<f64> {
        self.injected_mbps
            .or_else(|| self.probe.estimator.estimate_mbps_at(now))
    }

    /// Starts (or extends) the post-fault cooldown: until `now + for_` the
    /// engine biases decisions local and does not touch the wire.
    pub fn enter_cooldown(&mut self, now: SimTime, for_: SimDuration) {
        self.cooldown_until = Some(now + for_);
    }

    /// Whether the profile is cooling down after a wire fault at `now`.
    #[must_use]
    pub fn in_cooldown(&self, now: SimTime) -> bool {
        self.cooldown_until.is_some_and(|until| now < until)
    }

    /// When the current cooldown expires, if one is active at all.
    #[must_use]
    pub fn cooldown_until(&self) -> Option<SimTime> {
        self.cooldown_until
    }

    /// Runs the periodic profiler action if it is due at `now`: probe the
    /// bandwidth and fetch `k` from the server.
    ///
    /// On a cold start the estimator window is filled with a back-to-back
    /// probe burst rather than a single probe. A single jittered sample is
    /// a poor first estimate — when the local/offload margin is a few
    /// percent (VGG16 at 1 Mbps) one unlucky draw can park the client on
    /// the wrong side of the crossing for many periods, because a
    /// locally-inferring client adds no passive samples to heal the
    /// window. A full window's mean has `1/sqrt(w)` of the jitter.
    ///
    /// # Errors
    ///
    /// Propagates transport/backend failures (wire runtimes only; the
    /// co-simulated transport and backend are infallible). A failed
    /// refresh does **not** count as done: `last_refresh` is committed
    /// only when every probe and the `k` fetch succeeded, so the engine
    /// can retry the same instant.
    pub fn refresh<T: Transport + ?Sized, S: ServerBackend + ?Sized>(
        &mut self,
        now: SimTime,
        transport: &mut T,
        backend: &mut S,
        rng: &mut StdRng,
        telemetry: &Telemetry,
    ) -> Result<(), ProtocolError> {
        let due = match self.last_refresh {
            None => true,
            Some(prev) => now.since(prev) >= self.period,
        };
        if !due {
            return Ok(());
        }
        self.refresh_now(now, transport, backend, rng, telemetry)
    }

    /// Runs the profiler action immediately, regardless of the cadence —
    /// the circuit breaker's half-open probe, which must touch the wire to
    /// prove the server recovered. Commits the cadence like a due refresh.
    ///
    /// # Errors
    ///
    /// Propagates transport/backend failures, like
    /// [`RuntimeProfile::refresh`].
    pub fn refresh_now<T: Transport + ?Sized, S: ServerBackend + ?Sized>(
        &mut self,
        now: SimTime,
        transport: &mut T,
        backend: &mut S,
        rng: &mut StdRng,
        telemetry: &Telemetry,
    ) -> Result<(), ProtocolError> {
        let deficit = if self.injected_mbps.is_none() {
            self.probe
                .estimator
                .window()
                .saturating_sub(self.probe.estimator.len())
        } else {
            0
        };
        self.cached_k =
            transport.probe_and_query_k(&mut self.probe, deficit.max(1), backend, now, rng)?;
        self.last_refresh = Some(now);
        // A full probe + k round trip succeeded: the wire is healthy
        // again, so stop biasing decisions local.
        self.cooldown_until = None;
        if telemetry.is_enabled() {
            telemetry.incr("profile.refreshes_total", 1);
            telemetry.set_gauge("profile.k", self.cached_k);
            if let Some(mbps) = self.bandwidth_mbps(now) {
                telemetry.set_gauge("profile.bandwidth_mbps", mbps);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::backends::LinkTransport;
    use crate::engine::{SuffixOutcome, SuffixRequest};
    use lp_graph::ComputationGraph;
    use lp_net::{BandwidthTrace, Link};
    use rand::SeedableRng;

    struct FixedK(f64);

    impl ServerBackend for FixedK {
        fn query_k(&mut self, _now: SimTime) -> Result<f64, ProtocolError> {
            Ok(self.0)
        }
        fn execute_suffix(
            &mut self,
            _graph: &ComputationGraph,
            _req: &SuffixRequest,
            _rng: &mut StdRng,
        ) -> Result<SuffixOutcome, ProtocolError> {
            unreachable!("profile tests never offload")
        }
        fn complete(
            &mut self,
            _completion: SimTime,
            _observed: SimDuration,
            _predicted: SimDuration,
        ) {
        }
    }

    #[test]
    fn cold_start_fills_the_window() {
        let link = Link::symmetric(BandwidthTrace::constant(8.0));
        let mut transport = LinkTransport { link: &link };
        let mut profile = RuntimeProfile::new(8, SimDuration::from_secs(5));
        let mut rng = StdRng::seed_from_u64(1);
        profile
            .refresh(
                SimTime::ZERO,
                &mut transport,
                &mut FixedK(1.0),
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect("infallible");
        assert_eq!(profile.probe_profiler().estimator.len(), 8);
        let est = profile.bandwidth_mbps(SimTime::ZERO).expect("warmed");
        assert!((est - 8.0).abs() < 1.0, "estimate {est}");
    }

    #[test]
    fn steady_state_probes_once_per_period() {
        let link = Link::symmetric(BandwidthTrace::constant(8.0));
        let mut transport = LinkTransport { link: &link };
        let mut profile = RuntimeProfile::new(4, SimDuration::from_secs(5));
        let mut rng = StdRng::seed_from_u64(2);
        let mut now = SimTime::ZERO;
        profile
            .refresh(
                now,
                &mut transport,
                &mut FixedK(1.0),
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect("infallible");
        // Not due yet: no extra samples.
        now += SimDuration::from_secs(1);
        profile
            .refresh(
                now,
                &mut transport,
                &mut FixedK(2.0),
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect("infallible");
        assert_eq!(profile.k(), 1.0, "k fetch must respect the cadence");
        // Due again: exactly one more probe (window already full).
        now += SimDuration::from_secs(5);
        profile
            .refresh(
                now,
                &mut transport,
                &mut FixedK(2.0),
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect("infallible");
        assert_eq!(profile.k(), 2.0);
        assert_eq!(profile.probe_profiler().estimator.len(), 4);
    }

    #[test]
    fn injected_bandwidth_pins_the_estimate() {
        let mut profile = RuntimeProfile::new(4, SimDuration::from_secs(5));
        assert_eq!(profile.bandwidth_mbps(SimTime::ZERO), None);
        profile.inject_bandwidth(16.0);
        assert_eq!(profile.bandwidth_mbps(SimTime::ZERO), Some(16.0));
    }

    #[test]
    fn cooldown_expires_with_time_and_clears_on_successful_refresh() {
        let mut profile = RuntimeProfile::new(4, SimDuration::from_secs(5));
        let t0 = SimTime::ZERO;
        assert!(!profile.in_cooldown(t0));
        profile.enter_cooldown(t0, SimDuration::from_secs(10));
        assert!(profile.in_cooldown(t0 + SimDuration::from_secs(9)));
        assert!(!profile.in_cooldown(t0 + SimDuration::from_secs(10)));
        // A successful probe + k round trip ends the cooldown early.
        profile.enter_cooldown(t0, SimDuration::from_secs(100));
        assert!(profile.in_cooldown(t0 + SimDuration::from_secs(50)));
        let link = Link::symmetric(BandwidthTrace::constant(8.0));
        let mut transport = LinkTransport { link: &link };
        let mut rng = StdRng::seed_from_u64(3);
        profile
            .refresh(
                t0,
                &mut transport,
                &mut FixedK(1.0),
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect("infallible");
        assert!(!profile.in_cooldown(t0 + SimDuration::from_secs(50)));
        assert_eq!(profile.cooldown_until(), None);
    }

    #[test]
    fn failed_refresh_does_not_count_as_done() {
        struct FailingK;
        impl ServerBackend for FailingK {
            fn query_k(&mut self, _now: SimTime) -> Result<f64, ProtocolError> {
                Err(ProtocolError::Timeout)
            }
            fn execute_suffix(
                &mut self,
                _graph: &ComputationGraph,
                _req: &SuffixRequest,
                _rng: &mut StdRng,
            ) -> Result<SuffixOutcome, ProtocolError> {
                unreachable!("profile tests never offload")
            }
            fn complete(
                &mut self,
                _completion: SimTime,
                _observed: SimDuration,
                _predicted: SimDuration,
            ) {
            }
        }
        let link = Link::symmetric(BandwidthTrace::constant(8.0));
        let mut transport = LinkTransport { link: &link };
        let mut profile = RuntimeProfile::new(2, SimDuration::from_secs(5));
        let mut rng = StdRng::seed_from_u64(4);
        let err = profile
            .refresh(
                SimTime::ZERO,
                &mut transport,
                &mut FailingK,
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect_err("k fetch fails");
        assert_eq!(err, ProtocolError::Timeout);
        // Still due at the same instant: a retry runs the k fetch again
        // instead of being swallowed by the cadence check.
        profile
            .refresh(
                SimTime::ZERO,
                &mut transport,
                &mut FixedK(3.0),
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect("retry succeeds");
        assert_eq!(profile.k(), 3.0);
    }
}

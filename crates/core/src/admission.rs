//! Server-side admission control: a bounded pending-work budget.
//!
//! The paper's edge server accepts every `OffloadRequest` unconditionally;
//! under a load spike that just grows the queue and degrades *every*
//! client. Classic SLO-driven serving systems (Clipper, Clockwork) instead
//! reject work whose predicted completion would blow the budget — and
//! LoADPart's per-partition latency models plus the load factor `k` give
//! the server exactly the signal needed to predict completion times.
//!
//! [`AdmissionController`] keeps a backlog watermark: each admitted suffix
//! occupies the (single, FIFO) GPU from `max(now, backlog_until)` for its
//! `k`-scaled predicted execution time. A new request is rejected when
//! either
//!
//! * the number of in-flight suffixes has reached
//!   [`AdmissionConfig::max_inflight`], or
//! * the predicted queue delay (`backlog_until - now`) exceeds
//!   [`AdmissionConfig::max_queue_delay`].
//!
//! A rejection carries `retry_after` — the time until the backlog drains —
//! so the client can piggyback it into its next decision.

use std::collections::VecDeque;

use lp_sim::{SimDuration, SimTime};

/// The pending-work budget for one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum number of suffixes queued or executing at once. `0` rejects
    /// every request (useful for forcing the shed path in tests).
    pub max_inflight: usize,
    /// Maximum predicted queue delay before a new suffix would start.
    pub max_queue_delay: SimDuration,
}

impl AdmissionConfig {
    /// A budget that never rejects — the pre-admission-control behaviour,
    /// used so the serving loops have one uniform code path.
    #[must_use]
    pub fn unbounded() -> Self {
        AdmissionConfig {
            max_inflight: usize::MAX,
            // The largest representable duration: `from_secs` here would
            // overflow the nanosecond representation (a debug-build panic).
            max_queue_delay: SimDuration::from_nanos(u64::MAX),
        }
    }
}

impl Default for AdmissionConfig {
    /// A small default budget: 4 in-flight suffixes, 250 ms queue delay.
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 4,
            max_queue_delay: SimDuration::from_millis(250),
        }
    }
}

/// The outcome of [`AdmissionController::assess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Admitted: the suffix starts at `start` and completes at `completion`.
    Admit {
        /// When the GPU frees up for this suffix.
        start: SimTime,
        /// Predicted completion time (`start` + scaled execution).
        completion: SimTime,
    },
    /// Rejected: the budget is exhausted; retry once the backlog drains.
    Reject {
        /// Predicted time until the current backlog completes.
        retry_after: SimDuration,
    },
}

/// Tracks the server's predicted backlog and enforces the budget.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Completion times of admitted suffixes, oldest first.
    completions: VecDeque<SimTime>,
    /// The watermark: when the last admitted suffix completes.
    backlog_until: SimTime,
    admitted: u64,
    rejected: u64,
}

impl AdmissionController {
    /// A controller with the given budget and an empty backlog.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            completions: VecDeque::new(),
            backlog_until: SimTime::ZERO,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Assesses a request arriving at `now` whose suffix is predicted to
    /// execute for `scaled` (`k`-scaled) seconds. Admitting pushes the
    /// backlog watermark; rejecting leaves all state untouched except the
    /// rejection counter.
    pub fn assess(&mut self, now: SimTime, scaled: SimDuration) -> AdmissionDecision {
        self.prune(now);
        let queue_delay = self.backlog_until.since(now);
        if self.completions.len() >= self.config.max_inflight
            || queue_delay > self.config.max_queue_delay
        {
            self.rejected += 1;
            return AdmissionDecision::Reject {
                retry_after: queue_delay,
            };
        }
        let start = now.max(self.backlog_until);
        let completion = start + scaled;
        self.backlog_until = completion;
        self.completions.push_back(completion);
        self.admitted += 1;
        AdmissionDecision::Admit { start, completion }
    }

    /// Number of suffixes still queued or executing at `now`.
    pub fn inflight(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.completions.len()
    }

    /// Total requests admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total requests rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Drops completions that have already finished by `now`.
    fn prune(&mut self, now: SimTime) {
        while matches!(self.completions.front(), Some(&c) if c <= now) {
            self.completions.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn unbounded_admits_everything() {
        let mut ctl = AdmissionController::new(AdmissionConfig::unbounded());
        for i in 0..1000 {
            let d = ctl.assess(at(0), SimDuration::from_millis(10 + i));
            assert!(matches!(d, AdmissionDecision::Admit { .. }));
        }
        assert_eq!(ctl.admitted(), 1000);
        assert_eq!(ctl.rejected(), 0);
    }

    #[test]
    fn inflight_cap_rejects_then_recovers() {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 2,
            max_queue_delay: SimDuration::from_secs(1000),
        });
        assert!(matches!(
            ctl.assess(at(0), SimDuration::from_millis(50)),
            AdmissionDecision::Admit { .. }
        ));
        assert!(matches!(
            ctl.assess(at(0), SimDuration::from_millis(50)),
            AdmissionDecision::Admit { .. }
        ));
        // Budget full at t=0.
        let d = ctl.assess(at(0), SimDuration::from_millis(50));
        assert!(matches!(d, AdmissionDecision::Reject { .. }));
        // By t=200ms both admitted suffixes (50ms + 50ms serial) are done.
        assert_eq!(ctl.inflight(at(200)), 0);
        assert!(matches!(
            ctl.assess(at(200), SimDuration::from_millis(50)),
            AdmissionDecision::Admit { .. }
        ));
        assert_eq!(ctl.admitted(), 3);
        assert_eq!(ctl.rejected(), 1);
    }

    #[test]
    fn queue_delay_cap_rejects_with_retry_after() {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: usize::MAX,
            max_queue_delay: SimDuration::from_millis(100),
        });
        // One long suffix: backlog runs 0..=300ms.
        ctl.assess(at(0), SimDuration::from_millis(300));
        // At t=0 queue delay is 300ms > 100ms: reject, retry in 300ms.
        match ctl.assess(at(0), SimDuration::from_millis(10)) {
            AdmissionDecision::Reject { retry_after } => {
                assert_eq!(retry_after, SimDuration::from_millis(300));
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // At t=250ms only 50ms of backlog remains: admit, queued behind it.
        match ctl.assess(at(250), SimDuration::from_millis(10)) {
            AdmissionDecision::Admit { start, completion } => {
                assert_eq!(start, at(300));
                assert_eq!(completion, at(310));
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn zero_inflight_budget_rejects_all() {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 0,
            max_queue_delay: SimDuration::from_secs(1000),
        });
        for _ in 0..5 {
            assert!(matches!(
                ctl.assess(at(0), SimDuration::from_millis(1)),
                AdmissionDecision::Reject { .. }
            ));
        }
        assert_eq!(ctl.rejected(), 5);
        assert_eq!(ctl.admitted(), 0);
    }

    #[test]
    fn rejection_leaves_backlog_untouched() {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 1,
            max_queue_delay: SimDuration::from_secs(1000),
        });
        let first = ctl.assess(at(0), SimDuration::from_millis(80));
        let AdmissionDecision::Admit { completion, .. } = first else {
            panic!("first request must be admitted");
        };
        ctl.assess(at(0), SimDuration::from_millis(80)); // rejected
        assert_eq!(ctl.inflight(at(0)), 1);
        // The backlog still drains at the original completion time.
        assert_eq!(ctl.inflight(completion), 0);
    }
}

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
//!
//! # Batched admission
//!
//! When the serving threads batch compatible requests (continuous batching,
//! [`crate::threaded::ServerTuning::max_batch`]), charging each member of
//! the batch its full predicted execution time would over-count the
//! backlog: the batch occupies the GPU *once*. [`AdmissionController::
//! assess_batched`] therefore keeps an **open batch** — the most recent
//! admission's compatibility bucket, predicted completion and member
//! count. A request arriving while the open batch is still pending and
//! compatible (same bucket, under [`AdmissionConfig::max_batch`]) *joins*
//! it: admitted at the batch's start/completion, counted against
//! `max_inflight`, but the backlog watermark does not advance. Any other
//! admission closes the batch and opens a new one. With `max_batch == 1`
//! (the default) a batch is full the moment it opens, so the behaviour is
//! bit-for-bit the historical per-request budget.

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
    /// Maximum requests sharing one predicted batch execution in
    /// [`AdmissionController::assess_batched`]. `1` (and `0`, which is
    /// clamped) disables batching: every request is charged its own
    /// backlog slot — the historical behaviour.
    pub max_batch: usize,
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
            max_batch: 1,
        }
    }

    /// The same budget with batched-admission headroom of `max_batch`
    /// requests per predicted batch execution.
    #[must_use]
    pub fn with_max_batch(self, max_batch: usize) -> Self {
        AdmissionConfig { max_batch, ..self }
    }
}

impl Default for AdmissionConfig {
    /// A small default budget: 4 in-flight suffixes, 250 ms queue delay,
    /// per-request (unbatched) accounting.
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 4,
            max_queue_delay: SimDuration::from_millis(250),
            max_batch: 1,
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

/// The most recent admission, viewed as a batch other requests may join:
/// its compatibility bucket, when it runs, and how many members it has.
#[derive(Debug, Clone, Copy)]
struct OpenBatch {
    bucket: u64,
    start: SimTime,
    completion: SimTime,
    size: usize,
}

/// Tracks the server's predicted backlog and enforces the budget.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Completion times of admitted suffixes, oldest first.
    completions: VecDeque<SimTime>,
    /// The watermark: when the last admitted suffix completes.
    backlog_until: SimTime,
    /// The most recent admission, open for compatible joins until it is
    /// predicted to finish or a different admission closes it.
    open_batch: Option<OpenBatch>,
    admitted: u64,
    batched: u64,
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
            open_batch: None,
            admitted: 0,
            batched: 0,
            rejected: 0,
        }
    }

    /// Assesses a request arriving at `now` whose suffix is predicted to
    /// execute for `scaled` (`k`-scaled) seconds. Admitting pushes the
    /// backlog watermark; rejecting leaves all state untouched except the
    /// rejection counter.
    pub fn assess(&mut self, now: SimTime, scaled: SimDuration) -> AdmissionDecision {
        // Bucket 0 with max_batch <= 1 can never join, so this is exactly
        // the per-request budget.
        self.assess_batched(now, scaled, 0)
    }

    /// [`AdmissionController::assess`] with batch-aware accounting: a
    /// request compatible with the still-pending open batch (same
    /// `bucket`, batch under [`AdmissionConfig::max_batch`]) joins it —
    /// it is admitted at the batch's predicted start/completion and counts
    /// against `max_inflight`, but the backlog watermark does not advance,
    /// because the server executes the whole batch as one occupancy.
    pub fn assess_batched(
        &mut self,
        now: SimTime,
        scaled: SimDuration,
        bucket: u64,
    ) -> AdmissionDecision {
        self.prune(now);
        if let Some(open) = self.open_batch {
            // A batch predicted to have finished can no longer be joined.
            if open.completion <= now {
                self.open_batch = None;
            } else if open.bucket == bucket && open.size < self.config.max_batch.max(1) {
                if self.completions.len() >= self.config.max_inflight {
                    self.rejected += 1;
                    return AdmissionDecision::Reject {
                        retry_after: self.backlog_until.since(now),
                    };
                }
                // Joining rides the already-budgeted execution: no queue-
                // delay check (the batch opener passed it) and no backlog
                // push. While a batch is open no other admission has
                // happened, so its completion is still the newest entry
                // and the completions deque stays sorted.
                self.open_batch = Some(OpenBatch {
                    size: open.size + 1,
                    ..open
                });
                self.completions.push_back(open.completion);
                self.admitted += 1;
                self.batched += 1;
                return AdmissionDecision::Admit {
                    start: open.start,
                    completion: open.completion,
                };
            }
        }
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
        self.open_batch = Some(OpenBatch {
            bucket,
            start,
            completion,
            size: 1,
        });
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

    /// Of the admitted requests, how many joined an already-open batch
    /// (and therefore did not push the backlog watermark).
    #[must_use]
    pub fn batched(&self) -> u64 {
        self.batched
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
            max_batch: 1,
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
            max_batch: 1,
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
            max_batch: 1,
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
            max_batch: 1,
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

    #[test]
    fn compatible_requests_join_the_open_batch_without_backlog_growth() {
        let mut ctl = AdmissionController::new(AdmissionConfig::unbounded().with_max_batch(4));
        let AdmissionDecision::Admit { start, completion } =
            ctl.assess_batched(at(0), SimDuration::from_millis(40), 3)
        else {
            panic!("opener admitted");
        };
        // Three joiners ride the same predicted execution: identical
        // start/completion, no backlog extension.
        for _ in 0..3 {
            match ctl.assess_batched(at(0), SimDuration::from_millis(40), 3) {
                AdmissionDecision::Admit {
                    start: s,
                    completion: c,
                } => assert_eq!((s, c), (start, completion)),
                other => panic!("expected join, got {other:?}"),
            }
        }
        assert_eq!(ctl.admitted(), 4);
        assert_eq!(ctl.batched(), 3);
        // The batch is full: the fifth compatible request opens a new one
        // queued behind the first.
        match ctl.assess_batched(at(0), SimDuration::from_millis(40), 3) {
            AdmissionDecision::Admit { start: s, .. } => assert_eq!(s, completion),
            other => panic!("expected a fresh batch, got {other:?}"),
        }
        assert_eq!(ctl.batched(), 3, "the opener of a new batch is not batched");
    }

    #[test]
    fn incompatible_bucket_closes_the_batch() {
        let mut ctl = AdmissionController::new(AdmissionConfig::unbounded().with_max_batch(8));
        ctl.assess_batched(at(0), SimDuration::from_millis(40), 1);
        // A different bucket queues serially and becomes the open batch.
        let AdmissionDecision::Admit { start, .. } =
            ctl.assess_batched(at(0), SimDuration::from_millis(40), 2)
        else {
            panic!("admitted");
        };
        assert_eq!(start, at(40), "queued behind the first batch");
        // The original bucket can no longer join its (closed) batch.
        let AdmissionDecision::Admit { start, .. } =
            ctl.assess_batched(at(0), SimDuration::from_millis(40), 1)
        else {
            panic!("admitted");
        };
        assert_eq!(start, at(80));
        assert_eq!(ctl.batched(), 0);
    }

    #[test]
    fn joining_still_counts_against_max_inflight() {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 2,
            max_queue_delay: SimDuration::from_secs(1000),
            max_batch: 8,
        });
        ctl.assess_batched(at(0), SimDuration::from_millis(50), 0);
        assert!(matches!(
            ctl.assess_batched(at(0), SimDuration::from_millis(50), 0),
            AdmissionDecision::Admit { .. }
        ));
        // Batch-compatible, but the inflight budget is spent.
        assert!(matches!(
            ctl.assess_batched(at(0), SimDuration::from_millis(50), 0),
            AdmissionDecision::Reject { .. }
        ));
        assert_eq!((ctl.admitted(), ctl.batched(), ctl.rejected()), (2, 1, 1));
    }

    #[test]
    fn a_finished_batch_cannot_be_joined() {
        let mut ctl = AdmissionController::new(AdmissionConfig::unbounded().with_max_batch(8));
        ctl.assess_batched(at(0), SimDuration::from_millis(40), 5);
        // Arriving after the batch's predicted completion: a fresh batch
        // starting at `now`, not a join at the stale start time.
        match ctl.assess_batched(at(100), SimDuration::from_millis(40), 5) {
            AdmissionDecision::Admit { start, .. } => assert_eq!(start, at(100)),
            other => panic!("expected admit, got {other:?}"),
        }
        assert_eq!(ctl.batched(), 0);
    }

    #[test]
    fn max_batch_one_matches_unbatched_assess_exactly() {
        let cfg = AdmissionConfig {
            max_inflight: 3,
            max_queue_delay: SimDuration::from_millis(120),
            max_batch: 1,
        };
        let mut batched = AdmissionController::new(cfg);
        let mut plain = AdmissionController::new(cfg);
        for i in 0..40u64 {
            let now = at(i * 17 % 300);
            let cost = SimDuration::from_millis(10 + i % 90);
            assert_eq!(
                batched.assess_batched(now, cost, i % 3),
                plain.assess(now, cost),
                "step {i}"
            );
        }
        assert_eq!(batched.admitted(), plain.admitted());
        assert_eq!(batched.rejected(), plain.rejected());
        assert_eq!(batched.batched(), 0);
    }
}

//! Runtime load profiling on the edge server (§III-C, §IV).
//!
//! The server monitors actual execution times of offloaded DNN partitions,
//! keeps those within the most recent monitoring period, and publishes the
//! **load influence factor** `k` = mean(observed) / mean(predicted),
//! clamped to `k >= 1` (constraint (1c)). A separate watchdog thread
//! samples GPU utilization; when it drops below a threshold (default 90%)
//! while the client has gone local, it resets `k` so the client learns the
//! server is free again.

use lp_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Sliding-period tracker of the load influence factor `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadFactorTracker {
    period: SimDuration,
    samples: VecDeque<(SimTime, f64, f64)>, // (when, observed_us, predicted_us)
}

impl LoadFactorTracker {
    /// Creates a tracker with the given monitoring period (the paper's
    /// profiler works with a 5 s period).
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    #[must_use]
    pub fn new(period: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO, "period must be positive");
        Self {
            period,
            samples: VecDeque::new(),
        }
    }

    /// Records one offloaded-partition execution: the observed server-side
    /// time and the model-predicted time for that same partition.
    ///
    /// Records with zero predicted time are ignored (nothing to normalise
    /// against — e.g. an all-structural segment).
    pub fn record(&mut self, at: SimTime, observed: SimDuration, predicted: SimDuration) {
        if predicted == SimDuration::ZERO {
            return;
        }
        self.samples
            .push_back((at, observed.as_micros_f64(), predicted.as_micros_f64()));
        self.evict(at);
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now.since(SimTime::ZERO).saturating_sub(self.period);
        while let Some(&(t, _, _)) = self.samples.front() {
            if t.since(SimTime::ZERO) < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// The current load factor `k >= 1`: ratio of average observed time
    /// over average predicted time in the monitoring period; 1 with no
    /// recent samples.
    #[must_use]
    pub fn k(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let obs: f64 = self.samples.iter().map(|&(_, o, _)| o).sum();
        let pred: f64 = self.samples.iter().map(|&(_, _, p)| p).sum();
        (obs / pred).max(1.0)
    }

    /// Evicts stale samples and returns `k` as of `now` — what the server
    /// replies when the device-side profiler asks for the computation load.
    pub fn k_at(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.k()
    }

    /// Drops all samples (used by the GPU watchdog reset).
    pub fn reset(&mut self) {
        self.samples.clear();
    }

    /// Number of samples in the current period.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the tracker holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The GPU-utilization watchdog (§IV): checks utilization every
/// `check_interval`; when it falls below `threshold` it resets the load
/// tracker so a locally-inferring client can discover the idle server.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuUtilWatchdog {
    /// Utilization threshold below which `k` is reset (default 0.9).
    pub threshold: f64,
    /// How often the watchdog samples utilization (default 10 s).
    pub check_interval: SimDuration,
    last_check: Option<SimTime>,
    last_busy: SimDuration,
    resets: u64,
}

impl GpuUtilWatchdog {
    /// Creates the watchdog with the paper's defaults (90%, 10 s).
    #[must_use]
    pub fn new() -> Self {
        Self {
            threshold: 0.9,
            check_interval: SimDuration::from_secs(10),
            last_check: None,
            last_busy: SimDuration::ZERO,
            resets: 0,
        }
    }

    /// How many times the watchdog has reset the tracker since creation —
    /// drivers report this so a sticky-high `k` that never resets is
    /// observable.
    #[must_use]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Offers the watchdog a chance to run at `now`, given the GPU's
    /// cumulative busy time. Returns `true` when it reset the tracker.
    pub fn poll(
        &mut self,
        now: SimTime,
        cumulative_busy: SimDuration,
        tracker: &mut LoadFactorTracker,
    ) -> bool {
        match self.last_check {
            None => {
                self.last_check = Some(now);
                self.last_busy = cumulative_busy;
                false
            }
            Some(prev) => {
                if now.since(prev) < self.check_interval {
                    return false;
                }
                let wall = now.since(prev).as_secs_f64();
                let busy = cumulative_busy.saturating_sub(self.last_busy).as_secs_f64();
                self.last_check = Some(now);
                self.last_busy = cumulative_busy;
                let util = if wall > 0.0 { busy / wall } else { 0.0 };
                if util < self.threshold {
                    tracker.reset();
                    self.resets += 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

impl Default for GpuUtilWatchdog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }
    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn k_is_one_without_samples() {
        let t = LoadFactorTracker::new(SimDuration::from_secs(5));
        assert_eq!(t.k(), 1.0);
        assert!(t.is_empty());
    }

    #[test]
    fn k_reflects_observed_over_predicted() {
        let mut t = LoadFactorTracker::new(SimDuration::from_secs(5));
        t.record(secs(1), ms(30), ms(10));
        t.record(secs(2), ms(50), ms(10));
        // (30+50)/(10+10) = 4.
        assert!((t.k() - 4.0).abs() < 1e-9);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn k_clamped_at_one() {
        let mut t = LoadFactorTracker::new(SimDuration::from_secs(5));
        t.record(secs(1), ms(5), ms(10)); // faster than predicted
        assert_eq!(t.k(), 1.0);
    }

    #[test]
    fn old_samples_age_out() {
        let mut t = LoadFactorTracker::new(SimDuration::from_secs(5));
        t.record(secs(1), ms(80), ms(10)); // k = 8
        t.record(secs(10), ms(10), ms(10)); // evicts the old sample
        assert!((t.k() - 1.0).abs() < 1e-9, "k={}", t.k());
        assert_eq!(t.len(), 1);
        // Asking later with no new samples also evicts.
        assert_eq!(t.k_at(secs(30)), 1.0);
        assert!(t.is_empty());
    }

    #[test]
    fn zero_prediction_ignored() {
        let mut t = LoadFactorTracker::new(SimDuration::from_secs(5));
        t.record(secs(1), ms(10), SimDuration::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn watchdog_resets_on_low_utilization() {
        let mut t = LoadFactorTracker::new(SimDuration::from_secs(100));
        t.record(secs(1), ms(80), ms(10));
        assert!(t.k() > 1.0);
        let mut w = GpuUtilWatchdog::new();
        // First poll just arms the baseline.
        assert!(!w.poll(secs(2), SimDuration::from_secs(1), &mut t));
        // 10 s later: 1 s of busy over 10 s of wall = 10% < 90% -> reset.
        assert!(w.poll(secs(12), SimDuration::from_secs(2), &mut t));
        assert_eq!(t.k(), 1.0);
        assert_eq!(w.resets(), 1);
    }

    #[test]
    fn watchdog_keeps_k_under_high_utilization() {
        let mut t = LoadFactorTracker::new(SimDuration::from_secs(100));
        t.record(secs(1), ms(80), ms(10));
        let mut w = GpuUtilWatchdog::new();
        w.poll(secs(2), SimDuration::from_secs(2), &mut t);
        // 10 s later: 9.8 s busy over 10 s wall = 98% -> no reset.
        assert!(!w.poll(
            secs(12),
            SimDuration::from_secs(2) + SimDuration::from_millis(9_800),
            &mut t
        ));
        assert!(t.k() > 1.0);
    }

    #[test]
    fn watchdog_respects_interval() {
        let mut t = LoadFactorTracker::new(SimDuration::from_secs(100));
        t.record(secs(1), ms(80), ms(10));
        let mut w = GpuUtilWatchdog::new();
        w.poll(secs(2), SimDuration::ZERO, &mut t);
        // Only 5 s elapsed: below check_interval, no action.
        assert!(!w.poll(secs(7), SimDuration::ZERO, &mut t));
        assert!(t.k() > 1.0);
    }
}

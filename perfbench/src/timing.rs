//! The timed phase as a sequence of slices, each scaled by the host
//! speed calibrated around it (see [`crate::calib`]), and the timing
//! metrics taken over them.

use crate::procfs::TICKS_PER_SEC;
use crate::stats::{percentile, ratio, sort};
use std::time::Duration;

/// The slice length and count for a timed phase of `seconds`: slices of
/// about `length` that add up to `seconds`.
#[must_use]
pub fn plan(seconds: f64, length: Duration) -> (Duration, usize) {
    let count = (seconds / length.as_secs_f64()).round().max(1.0) as usize;
    (Duration::from_secs_f64(seconds / count as f64), count)
}

/// What one slice measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    /// Wall time of the slice, s.
    pub wall_s: f64,
    /// Process CPU ticks spent in the slice.
    pub ticks: u64,
    /// Host steal ticks, summed over CPUs, during the slice.
    pub steal: u64,
    /// Requests completed in the slice.
    pub requests: u64,
    /// Latency of each completed episode, ms, when the slice holds too
    /// few for its own percentiles (the co-simulation).
    pub latencies_ms: Vec<f64>,
    /// The slice's own median and 99th-percentile latency, ms (the wire
    /// workloads).
    pub percentiles_ms: Option<(f64, f64)>,
    /// Host speed relative to nominal: the mean of the calibrations just
    /// before and just after the slice.
    pub speed: f64,
}

/// The timing metrics over a run's slices.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Requests completed per second.
    pub throughput_rps: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Process CPU per completed request, µs.
    pub cpu_us_per_req: f64,
    /// Latency samples.
    pub samples: u64,
}

impl Slice {
    /// Reduces the slice's request latencies to its own percentiles, so a
    /// long run's memory does not grow with its request count.
    pub fn reduce_latencies(&mut self, mut latencies_ms: Vec<f64>) {
        sort(&mut latencies_ms);
        self.percentiles_ms = Some((
            percentile(&latencies_ms, 0.5),
            percentile(&latencies_ms, 0.99),
        ));
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 0.5)
}

/// Fewest slices the timing metrics are read over, when a run has them.
const QUIET_SLICES: usize = 8;

/// The slices in which the host stole no more CPU time than in the
/// `QUIET_SLICES`-th least-stolen one: every steal-free slice when there
/// are that many, else the least-stolen few and the slices tied with
/// them. Steal is the host running other tenants on this machine's CPUs;
/// a slice it hits stalls every thread of the run, so it measures the
/// host rather than the program. Even a tick or two of steal in a wire
/// slice raises its 99th percentile by half, and when the host steals a
/// third of the CPU few slices escape, so the selection goes as deep as
/// the run allows: a calm run keeps nearly every slice, a stolen one its
/// least-stolen few.
#[must_use]
fn quietest(slices: &[Slice]) -> Vec<Slice> {
    let mut steal: Vec<u64> = slices.iter().map(|s| s.steal).collect();
    steal.sort_unstable();
    let Some(&limit) = steal.get(QUIET_SLICES.min(steal.len()).saturating_sub(1)) else {
        return Vec::new();
    };
    slices
        .iter()
        .filter(|s| s.steal <= limit)
        .cloned()
        .collect()
}

/// The timing metrics, with every time scaled to the nominal host speed
/// (`scaled`) or as measured.
///
/// Each metric is the median over the [`quietest`] slices of that
/// slice's figure, the percentiles included. The steal count misses short
/// stalls (it counts in 10-ms ticks, and a few milliseconds stall a
/// request many times over), so a slice can be disturbed with no steal
/// counted; its 99th percentile is then high, and the median passes over
/// it. A median, not a lower quantile, because each slice's figures are
/// scaled by its own noisy speed reading, and a low quantile would pick
/// the slices whose reading erred low. Slices that keep their samples
/// whole (the co-simulation's episodes, too few per slice for their own
/// percentiles) give both percentiles over all samples of the quietest
/// slices instead.
#[must_use]
pub fn timing(slices: &[Slice], scaled: bool) -> Timing {
    let slices = &quietest(slices);
    let speed = |s: &Slice| if scaled { s.speed } else { 1.0 };
    let own = |which: fn((f64, f64)) -> f64| -> Option<f64> {
        let values: Option<Vec<f64>> = slices
            .iter()
            .map(|s| s.percentiles_ms.map(|p| which(p) * speed(s)))
            .collect();
        values.map(median)
    };
    let (p50_ms, p99_ms) = match (own(|p| p.0), own(|p| p.1)) {
        (Some(p50), Some(p99)) => (p50, p99),
        _ => {
            let mut all: Vec<f64> = slices
                .iter()
                .flat_map(|s| s.latencies_ms.iter().map(move |l| l * speed(s)))
                .collect();
            sort(&mut all);
            (percentile(&all, 0.5), percentile(&all, 0.99))
        }
    };
    Timing {
        throughput_rps: median(
            slices
                .iter()
                .map(|s| ratio(s.requests as f64, s.wall_s * speed(s)))
                .collect(),
        ),
        p50_ms,
        p99_ms,
        cpu_us_per_req: median(
            slices
                .iter()
                .map(|s| {
                    ratio(
                        s.ticks as f64 / TICKS_PER_SEC * speed(s) * 1e6,
                        s.requests as f64,
                    )
                })
                .collect(),
        ),
        samples: slices.iter().map(|s| s.requests).sum(),
    }
}

/// Mean host speed over the slices.
#[must_use]
pub fn mean_speed(slices: &[Slice]) -> f64 {
    ratio(slices.iter().map(|s| s.speed).sum(), slices.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slice_hit_by_steal_does_not_move_the_medians() {
        let slice = |requests: u64| Slice {
            wall_s: 1.0,
            ticks: 100,
            steal: 0,
            requests,
            latencies_ms: vec![1.0; 10],
            percentiles_ms: None,
            speed: 1.0,
        };
        let calm = timing(&[slice(100), slice(100), slice(100)], true);
        let mut stolen = slice(10);
        stolen.steal = 50;
        let hit = timing(&[slice(100), stolen, slice(100)], true);
        assert_eq!(calm.throughput_rps, hit.throughput_rps);
        let kept = |steal: &[u64]| {
            let slices: Vec<Slice> = steal
                .iter()
                .map(|&steal| Slice {
                    steal,
                    ..slice(100)
                })
                .collect();
            quietest(&slices).len()
        };
        assert_eq!(kept(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 9]), 9);
        assert_eq!(kept(&[9, 1, 2, 3, 4, 5, 6, 7, 8, 10, 20]), 8);
        assert_eq!(kept(&[4; 10]), 10);
        assert_eq!(kept(&[5, 9]), 2);
        assert_eq!(kept(&[]), 0);
    }

    #[test]
    fn a_tail_the_steal_count_misses_does_not_move_the_p99() {
        let slice = |tail_ms: f64| {
            let mut s = Slice {
                wall_s: 1.0,
                requests: 200,
                speed: 1.0,
                ..Slice::default()
            };
            let mut latencies = vec![1.0; 200];
            latencies[199] = tail_ms;
            latencies[198] = tail_ms;
            latencies[197] = tail_ms;
            s.reduce_latencies(latencies);
            s
        };
        assert_eq!(slice(9.0).percentiles_ms, Some((1.0, 9.0)));
        let run = |tails: [f64; 5]| timing(&tails.map(slice), true).p99_ms;
        assert_eq!(run([2.0; 5]), 2.0);
        assert_eq!(run([2.0, 9.0, 2.0, 9.0, 2.0]), 2.0);
    }

    #[test]
    fn plans_whole_slices_that_add_up() {
        let second = Duration::from_secs(1);
        assert_eq!(plan(30.0, second), (second, 30));
        assert_eq!(
            plan(30.0, Duration::from_millis(250)),
            (Duration::from_millis(250), 120)
        );
        assert_eq!(plan(0.3, second), (Duration::from_secs_f64(0.3), 1));
        let (len, n) = plan(2.5, second);
        assert!((len.as_secs_f64() * n as f64 - 2.5).abs() < 1e-6);
    }

    #[test]
    fn a_host_half_as_fast_scales_back_to_nominal() {
        let slice = |speed: f64, k: f64| Slice {
            wall_s: 1.0 * k,
            ticks: (100.0 * k) as u64,
            steal: 0,
            requests: 100,
            latencies_ms: vec![10.0 * k; 100],
            percentiles_ms: None,
            speed,
        };
        let nominal = timing(&[slice(1.0, 1.0)], true);
        let slow = timing(&[slice(0.5, 2.0)], true);
        assert_eq!(nominal, slow);
        assert_eq!(nominal.throughput_rps, 100.0);
        assert_eq!(nominal.cpu_us_per_req, 10_000.0);
        assert_eq!(timing(&[slice(0.5, 2.0)], false).throughput_rps, 50.0);
    }
}

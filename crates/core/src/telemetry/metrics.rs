//! The metrics half of the observability layer: counters, gauges and
//! fixed-bucket histograms behind cheap `Arc`-shared handles.
//!
//! A [`MetricsRegistry`] is a name → instrument map; registering returns a
//! clonable handle whose operations are single relaxed atomic updates, so
//! instrumented hot paths (the per-request engine pipeline) pay no lock
//! and no allocation once the handle exists. Reading happens through
//! [`MetricsRegistry::snapshot`], which tests assert against and the
//! `loadpart report` subcommand renders as a table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (requests served, faults seen, …).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `by` to the counter.
    pub fn incr(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins float instrument (live `k`, bandwidth estimate, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replaces the gauge value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value (0.0 before the first `set`).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default bucket bounds (seconds) for simulated per-phase times: 1 ms up
/// to 5 s, roughly geometric.
pub const LATENCY_BUCKETS_SECS: [f64; 11] = [
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
];

/// Default bucket bounds (seconds) for wall-clock decision latency: 1 µs
/// up to 10 ms (Algorithm 1 is O(n); anything slower is a regression).
pub const DECISION_BUCKETS_SECS: [f64; 8] = [1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2];

/// The histograms that observe wall-clock seconds; every other one
/// observes logical (simulated) time. On one seed their counts replay but
/// their values depend on the host.
pub const WALL_CLOCK_HISTOGRAMS: [&str; 1] = ["engine.decision_seconds"];

#[derive(Debug)]
struct HistogramInner {
    /// Ascending upper bounds; an implicit +inf bucket follows the last.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    observations: AtomicU64,
    sum_nanos: AtomicU64,
}

/// A fixed-bucket histogram of non-negative values (seconds by
/// convention). Observation is two relaxed atomic adds plus a linear
/// bucket scan over a handful of bounds.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                observations: AtomicU64::new(0),
                sum_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.observations.fetch_add(1, Ordering::Relaxed);
        self.inner
            .sum_nanos
            .fetch_add((v.max(0.0) * 1e9) as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self
                .inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.inner.observations.load(Ordering::Relaxed),
            sum_secs: self.inner.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending upper bounds; the final count bucket is the overflow.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (seconds).
    pub sum_secs: f64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 with no observations.
    #[must_use]
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_secs / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of instruments shared by everything observing one
/// run. Cloning shares the underlying map; handles returned by the
/// `counter`/`gauge`/`histogram` accessors stay valid for the registry's
/// lifetime and bypass the registry lock entirely.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .lock()
            .expect("registry lock poisoned")
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .lock()
            .expect("registry lock poisoned")
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, creating it with `bounds` on
    /// first use (an existing histogram keeps its original bounds).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.inner
            .lock()
            .expect("registry lock poisoned")
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// A point-in-time copy of every instrument.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`] — the unit tests
/// assert against and `loadpart report` renders.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 if never registered).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's state, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as an aligned text table (the `loadpart
    /// report` output). A [wall-clock histogram](WALL_CLOCK_HISTOGRAMS)'s
    /// row says so after its mean.
    #[must_use]
    pub fn render_table(&self) -> String {
        self.render(true)
    }

    /// [`render_table`](Self::render_table) without wall-clock values: a
    /// wall-clock histogram's row keeps its count but not its mean, so a
    /// seeded run prints the same table on any host (the `loadpart chaos`
    /// output).
    #[must_use]
    pub fn render_replayable_table(&self) -> String {
        self.render(false)
    }

    fn render(&self, wall_clock_means: bool) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:40} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:40} {v:>12.3}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:                                       count      mean ms\n");
            for (name, h) in &self.histograms {
                let wall_clock = WALL_CLOCK_HISTOGRAMS.contains(&name.as_str());
                let mean_ms = if wall_clock && !wall_clock_means {
                    "-".to_string()
                } else {
                    format!("{:.3}", h.mean_secs() * 1e3)
                };
                let label = if wall_clock { "  (wall clock)" } else { "" };
                let _ = writeln!(out, "  {name:40} {:>12} {mean_ms:>12}{label}", h.count);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.incr(2);
        b.incr(3);
        assert_eq!(reg.snapshot().counter("requests"), 5);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("k");
        assert_eq!(g.get(), 0.0);
        g.set(3.5);
        g.set(1.25);
        assert_eq!(reg.snapshot().gauge("k"), Some(1.25));
    }

    #[test]
    fn histogram_buckets_count_and_mean() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[0.01, 0.1, 1.0]);
        h.observe(0.005); // bucket 0
        h.observe(0.05); // bucket 1
        h.observe(0.5); // bucket 2
        h.observe(5.0); // overflow
        let s = reg.snapshot();
        let snap = s.histogram("lat").expect("registered");
        assert_eq!(snap.counts, vec![1, 1, 1, 1]);
        assert_eq!(snap.count, 4);
        assert!((snap.mean_secs() - 5.555 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_keeps_original_bounds() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("h", &[1.0, 2.0]);
        let b = reg.histogram("h", &[9.0]);
        a.observe(1.5);
        assert_eq!(b.snapshot().bounds, vec![1.0, 2.0]);
        assert_eq!(b.snapshot().count, 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("bad", &[2.0, 1.0]);
    }

    #[test]
    fn snapshot_names_missing_instruments() {
        let s = MetricsRegistry::new().snapshot();
        assert_eq!(s.counter("nope"), 0);
        assert_eq!(s.gauge("nope"), None);
        assert!(s.histogram("nope").is_none());
    }

    #[test]
    fn table_renders_all_sections() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.requests_total").incr(7);
        reg.gauge("profile.k").set(2.0);
        reg.histogram("engine.device_seconds", &LATENCY_BUCKETS_SECS)
            .observe(0.02);
        let table = reg.snapshot().render_table();
        assert!(table.contains("engine.requests_total"), "{table}");
        assert!(table.contains("profile.k"), "{table}");
        assert!(table.contains("engine.device_seconds"), "{table}");
    }

    /// A registry with one logical and one wall-clock histogram, the
    /// latter fed `decision_secs`.
    fn soak_snapshot(decision_secs: &[f64]) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("engine.requests_total").incr(2);
        reg.histogram("engine.device_seconds", &LATENCY_BUCKETS_SECS)
            .observe(0.163_103);
        let decisions = reg.histogram(WALL_CLOCK_HISTOGRAMS[0], &DECISION_BUCKETS_SECS);
        for &secs in decision_secs {
            decisions.observe(secs);
        }
        reg.snapshot()
    }

    /// The whitespace-separated fields of `name`'s row in `table`.
    fn row<'a>(table: &'a str, name: &str) -> Vec<&'a str> {
        table
            .lines()
            .map(|line| line.split_whitespace().collect::<Vec<_>>())
            .find(|fields| fields.first() == Some(&name))
            .unwrap_or_else(|| panic!("no {name} row in\n{table}"))
    }

    #[test]
    fn replayable_table_drops_only_wall_clock_values() {
        // One host rounds the decision mean to 0.000 ms, a slower one to
        // 0.001 ms.
        let fast = soak_snapshot(&[4e-7, 4e-7]);
        let slow = soak_snapshot(&[6e-7, 6e-7]);
        assert_ne!(fast, slow);
        let replayable = fast.render_replayable_table();
        assert_eq!(replayable, slow.render_replayable_table());
        let decisions = WALL_CLOCK_HISTOGRAMS[0];
        assert_eq!(
            row(&replayable, decisions)[1..],
            ["2", "-", "(wall", "clock)"]
        );
        assert_eq!(
            row(&replayable, "engine.device_seconds")[1..],
            ["1", "163.103"]
        );
        // The full table keeps the mean, labelled.
        assert_eq!(
            row(&fast.render_table(), decisions)[1..],
            ["2", "0.000", "(wall", "clock)"]
        );
        assert_eq!(
            row(&slow.render_table(), decisions)[1..],
            ["2", "0.001", "(wall", "clock)"]
        );
    }
}

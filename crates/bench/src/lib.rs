//! Shared utilities for the experiment binaries and timing benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index); this library provides the common
//! pieces: the trained prediction-model bundles, simple text tables, and
//! summary statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lp_profiler::PredictionModels;
use lp_sim::SimDuration;

pub mod timing;

/// Trains the standard model bundles used by all experiment binaries
/// (seed 42, 400 samples per node kind — the Table III configuration).
#[must_use]
pub fn standard_models() -> (PredictionModels, PredictionModels) {
    loadpart::system::trained_models(400, 42)
}

/// A lighter bundle for quick runs and criterion setup.
#[must_use]
pub fn quick_models() -> (PredictionModels, PredictionModels) {
    loadpart::system::trained_models(150, 42)
}

/// Renders rows as a fixed-width text table with a header rule.
#[must_use]
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Mean of a latency sample in milliseconds.
#[must_use]
pub fn mean_ms(samples: &[SimDuration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|d| d.as_millis_f64()).sum::<f64>() / samples.len() as f64
}

/// Maximum of a latency sample in milliseconds.
#[must_use]
pub fn max_ms(samples: &[SimDuration]) -> f64 {
    samples
        .iter()
        .map(|d| d.as_millis_f64())
        .fold(0.0, f64::max)
}

/// Formats milliseconds with one decimal.
#[must_use]
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

/// Runs the Figure 7/8 comparison for one model: LoADPart vs local
/// inference vs full offloading across the bandwidth levels 1..64 Mbps on
/// an idle server. Returns the printed report.
#[must_use]
pub fn speedup_figure(model: &str, user: &PredictionModels, edge: &PredictionModels) -> String {
    use loadpart::{OffloadingSystem, Policy, SystemConfig, Testbed};
    use lp_sim::SimTime;

    const BANDWIDTHS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    const RUNS: usize = 10;

    let graph = lp_models::by_name(model, 1).expect("zoo model");
    let mut out = String::new();
    let mut rows = Vec::new();
    let mut speedup_full = Vec::new();
    let mut speedup_local = Vec::new();
    for mbps in BANDWIDTHS {
        let mut means = Vec::new();
        let mut chosen_p = 0usize;
        for policy in [Policy::LoadPart, Policy::Local, Policy::Full] {
            let testbed = Testbed::with_constant_bandwidth(mbps, 31);
            let mut sys = OffloadingSystem::new(
                graph.clone(),
                policy,
                testbed,
                user,
                edge,
                SystemConfig::default(),
            );
            let mut t = SimTime::ZERO + SimDuration::from_millis(100);
            let mut totals = Vec::new();
            for _ in 0..RUNS {
                let r = sys.infer(t);
                totals.push(r.total);
                if policy == Policy::LoadPart {
                    chosen_p = r.p;
                }
                t = t + r.total + SimDuration::from_millis(50);
            }
            means.push(mean_ms(&totals));
        }
        let (lp, local, full) = (means[0], means[1], means[2]);
        speedup_full.push(full / lp);
        speedup_local.push(local / lp);
        rows.push(vec![
            format!("{mbps:.0}"),
            format!("{chosen_p}/{}", graph.len()),
            ms(lp),
            ms(local),
            ms(full),
            format!("{:.2}x", local / lp),
            format!("{:.2}x", full / lp),
        ]);
    }
    out.push_str(&format!(
        "{} — LoADPart vs local vs full offloading:\n",
        graph.name()
    ));
    out.push_str(&text_table(
        &[
            "Mbps",
            "p",
            "LoADPart ms",
            "local ms",
            "full ms",
            "vs local",
            "vs full",
        ],
        &rows,
    ));
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
    out.push_str(&format!(
        "speedup vs full offloading: {:.2}x average, up to {:.2}x\n",
        avg(&speedup_full),
        max(&speedup_full)
    ));
    out.push_str(&format!(
        "speedup vs local inference: {:.2}x average, up to {:.2}x\n",
        avg(&speedup_local),
        max(&speedup_local)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = text_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn stats_helpers() {
        let xs = vec![SimDuration::from_millis(10), SimDuration::from_millis(30)];
        assert_eq!(mean_ms(&xs), 20.0);
        assert_eq!(max_ms(&xs), 30.0);
        assert_eq!(mean_ms(&[]), 0.0);
        assert_eq!(ms(1.234), "1.2");
    }
}

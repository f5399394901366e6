//! What one benchmark process reports, and its JSON form.

use crate::check::Counts;
use crate::stats::ratio;
use loadpart::Precision;
use lp_json::Json;
use std::collections::BTreeSet;

/// One named figure with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: u64,
}

impl Metric {
    /// A metric over `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Everything one process measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Time from process start to the first timed request, s.
    pub setup_s: f64,
    /// The first failed correctness check, if any.
    pub error: Option<String>,
    /// Requests attempted in the timed phase.
    pub attempted: u64,
    /// Requests that returned a record.
    pub completed: u64,
    /// Requests that failed: an `Err` from the runtime, a local fallback
    /// or an admission rejection.
    pub failed: u64,
    /// Wire retries summed over the timed phase.
    pub retries: u64,
    /// End-to-end metrics, times scaled to the nominal host speed.
    pub metrics: Vec<Metric>,
    /// The timing metrics as measured, before host-speed scaling.
    pub raw: Vec<Metric>,
    /// Per-layer metrics (traced runs; the set-up layers always).
    pub layers: Vec<Metric>,
    /// The measured share of each workload property.
    pub properties: Vec<(&'static str, f64)>,
    /// The run's environment.
    pub env: Vec<(&'static str, Json)>,
}

impl Report {
    /// Records the first failed check; later failures are dropped.
    pub fn fail(&mut self, check: Result<(), String>) {
        if let (None, Err(e)) = (&self.error, check) {
            self.error = Some(e);
        }
    }

    /// The report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(
                list.iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::Str(m.unit.into())),
                                ("samples".into(), Json::Num(m.samples as f64)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let count = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.error.is_none())),
            (
                "error".into(),
                self.error.clone().map_or(Json::Null, Json::Str),
            ),
            ("attempted".into(), count(self.attempted)),
            ("completed".into(), count(self.completed)),
            ("failed".into(), count(self.failed)),
            ("retries".into(), count(self.retries)),
            ("setup_s".into(), Json::Num(self.setup_s)),
            ("metrics".into(), metrics(&self.metrics)),
            ("raw_metrics".into(), metrics(&self.raw)),
            ("layers".into(), metrics(&self.layers)),
            (
                "properties".into(),
                Json::Obj(
                    self.properties
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "env".into(),
                Json::Obj(
                    self.env
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Fills in the request accounting: `counts` holds the timed records,
/// `errors` the requests that returned no record.
pub fn account(report: &mut Report, counts: &Counts, errors: u64) {
    report.completed = counts.records;
    report.attempted = counts.records + errors;
    report.failed = counts.failed + errors;
    report.retries = counts.retries;
}

/// The traffic properties the workloads were chosen for, measured over
/// the timed records: memo hit ratio, local share, precision mix,
/// distinct cut points and mean bytes per offload.
#[must_use]
pub fn properties(counts: &Counts, n_nodes: usize, memo_hits: u64) -> Vec<(&'static str, f64)> {
    let total = counts.records as f64;
    let share = |keep: &dyn Fn(usize, u8) -> bool| {
        let n: u64 = counts
            .cuts
            .iter()
            .filter(|((p, q), _)| keep(*p, *q))
            .map(|(_, c)| c.count)
            .sum();
        ratio(n as f64, total)
    };
    let precision = |q: Precision| share(&move |_, w| w == q.wire());
    let cuts: BTreeSet<usize> = counts.cuts.keys().map(|(p, _)| *p).collect();
    let offloads = counts.offloads();
    vec![
        ("memo_hit_ratio", ratio(memo_hits as f64, total)),
        ("local_share", share(&|p, _| p >= n_nodes)),
        ("fp32_share", precision(Precision::Fp32)),
        ("fp16_share", precision(Precision::Fp16)),
        ("int8_share", precision(Precision::Int8)),
        ("int4_share", precision(Precision::Int4)),
        ("distinct_cut_points", cuts.len() as f64),
        (
            "mean_bytes_per_offload",
            ratio(offloads.uploaded as f64, offloads.count as f64),
        ),
    ]
}

//! Correctness checks, applied to each record as it arrives, and the
//! per-run aggregates the metrics need. Nothing here grows with the
//! number of requests, so a longer run does not move peak RSS.

use loadpart::{
    quantized_transmission_series, Decision, InferenceRecord, PartitionPolicy, PartitionSolver,
    PolicyContext, Precision,
};
use lp_graph::ComputationGraph;
use std::collections::{BTreeMap, HashMap};

/// Whether a record is a failure: shed by admission, or completed locally
/// after the wire failed.
#[must_use]
fn failed(r: &InferenceRecord) -> bool {
    r.fallback_local || r.rejected
}

/// The packed size of every cut at every precision.
#[derive(Debug, Clone)]
pub struct UploadSizes {
    n: usize,
    fp32: Vec<u64>,
    narrow: Vec<(Precision, Vec<u64>)>,
}

impl UploadSizes {
    /// The sizes for `graph`.
    #[must_use]
    pub fn new(graph: &ComputationGraph, solver: &PartitionSolver) -> Self {
        Self {
            n: graph.len(),
            fp32: solver.transmission().to_vec(),
            narrow: Precision::NARROW
                .iter()
                .map(|&q| (q, quantized_transmission_series(graph, q)))
                .collect(),
        }
    }

    /// Bytes a cut at `p` uploads at `precision` (0 for a local decision).
    #[must_use]
    pub fn packed(&self, p: usize, precision: Precision) -> Option<u64> {
        if p >= self.n {
            return Some(0);
        }
        if precision == Precision::Fp32 {
            return self.fp32.get(p).copied();
        }
        let (_, series) = self.narrow.iter().find(|(q, _)| *q == precision)?;
        series.get(p).copied()
    }
}

/// Records at one (partition point, precision).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cut {
    /// Records.
    pub count: u64,
    /// Bytes they uploaded.
    pub uploaded: u64,
    /// Fp32 bytes of their crossing tensors.
    pub raw: u64,
}

/// Aggregates over the records a [`Tally`] has counted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Records.
    pub records: u64,
    /// Records that failed.
    pub failed: u64,
    /// Wire retries.
    pub retries: u64,
    /// Records per `(p, precision wire byte)`.
    pub cuts: BTreeMap<(usize, u8), Cut>,
    /// Records per decision input `(bandwidth bits, k bits)`.
    pub inputs: HashMap<(u64, u64), u64>,
    /// Narrow uploads per `(elements, precision wire byte)`.
    pub kernels: BTreeMap<(u64, u8), u64>,
    /// Modelled upload time the narrow uploads saved, s.
    pub saved_s: f64,
    /// Sum of the decisions' modelled end-to-end latency, ms.
    pub predicted_ms: f64,
    /// Sum of the records' simulated end-to-end latency, ms.
    pub total_ms: f64,
}

impl Counts {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: &Counts) {
        self.records += other.records;
        self.failed += other.failed;
        self.retries += other.retries;
        for (k, c) in &other.cuts {
            let e = self.cuts.entry(*k).or_default();
            e.count += c.count;
            e.uploaded += c.uploaded;
            e.raw += c.raw;
        }
        for (k, c) in &other.inputs {
            *self.inputs.entry(*k).or_default() += c;
        }
        for (k, c) in &other.kernels {
            *self.kernels.entry(*k).or_default() += c;
        }
        self.saved_s += other.saved_s;
        self.predicted_ms += other.predicted_ms;
        self.total_ms += other.total_ms;
    }

    /// Records that offloaded.
    #[must_use]
    pub fn offloads(&self) -> Cut {
        let mut out = Cut::default();
        for c in self.cuts.values().filter(|c| c.uploaded > 0) {
            out.count += c.count;
            out.uploaded += c.uploaded;
            out.raw += c.raw;
        }
        out
    }
}

/// Checks one session's records in request order and counts them.
///
/// Each record's `(p, precision, predicted)` must equal what a replica
/// of the session's policy decides on the record's bandwidth estimate and
/// load factor, its upload must be the cut's packed size, and request ids
/// must run 0, 1, 2, …. A replica that is a pure function of its input
/// (`pure`) is asked once per distinct input; a stateful one (the memo)
/// sees every record in order, as the engine's policy did.
#[derive(Debug)]
pub struct Tally<'a> {
    session: usize,
    solver: &'a PartitionSolver,
    sizes: &'a UploadSizes,
    replay: Box<dyn PartitionPolicy>,
    pure: bool,
    known: HashMap<(u64, u64), Decision>,
    next_id: u64,
    error: Option<String>,
    /// Healthy offloads and all offloads, since the first record.
    offloads: (u64, u64),
    /// Counts since the last [`Tally::restart_counts`].
    pub counts: Counts,
}

impl<'a> Tally<'a> {
    /// A tally for session `session`, replaying `replay`.
    #[must_use]
    pub fn new(
        session: usize,
        solver: &'a PartitionSolver,
        sizes: &'a UploadSizes,
        replay: Box<dyn PartitionPolicy>,
        pure: bool,
    ) -> Self {
        Self {
            session,
            solver,
            sizes,
            replay,
            pure,
            known: HashMap::new(),
            next_id: 0,
            error: None,
            offloads: (0, 0),
            counts: Counts::default(),
        }
    }

    /// The first failed check, if any.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Healthy offloads and all offloads seen since the first record.
    #[must_use]
    pub fn offloads(&self) -> (u64, u64) {
        self.offloads
    }

    /// Decisions the replica answered from its memo.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.replay.memo_hits()
    }

    /// Zeroes the counts (the warm-up ends); checks continue.
    pub fn restart_counts(&mut self) {
        self.counts = Counts::default();
    }

    fn fail(&mut self, r: &InferenceRecord, what: String) {
        if self.error.is_none() {
            self.error = Some(format!(
                "session {}, request {}: {what}",
                self.session, r.request_id
            ));
        }
    }

    /// Checks and counts the next record.
    pub fn observe(&mut self, r: &InferenceRecord) {
        if r.request_id != self.next_id {
            self.fail(r, format!("expected request id {}", self.next_id));
        }
        self.next_id = r.request_id + 1;
        let bad = failed(r);
        let c = &mut self.counts;
        c.records += 1;
        c.failed += u64::from(bad);
        c.retries += u64::from(r.retries);
        c.predicted_ms += r.predicted.as_millis_f64();
        c.total_ms += r.total.as_millis_f64();
        if r.offloaded() {
            self.offloads.1 += 1;
            self.offloads.0 += u64::from(!bad);
        }
        if bad {
            // A failed refresh bypasses the policy: nothing to replay.
            return;
        }
        let key = (r.bandwidth_est_mbps.to_bits(), r.k_used.to_bits());
        *c.inputs.entry(key).or_default() += 1;
        let cut = c.cuts.entry((r.p, r.precision.wire())).or_default();
        cut.count += 1;
        cut.uploaded += r.uploaded_bytes;
        cut.raw += r.raw_bytes;
        if r.offloaded() && r.precision != Precision::Fp32 {
            *c.kernels
                .entry((r.raw_bytes / 4, r.precision.wire()))
                .or_default() += 1;
            c.saved_s += r.bytes_saved() as f64 / (r.bandwidth_est_mbps * 1e6 / 8.0);
        }
        let d = match self.known.get(&key) {
            Some(d) => *d,
            None => {
                let d = self.replay.decide(&PolicyContext {
                    solver: self.solver,
                    bandwidth_mbps: r.bandwidth_est_mbps,
                    k: r.k_used,
                    now: r.start,
                });
                if self.pure {
                    self.known.insert(key, d);
                }
                d
            }
        };
        if (d.p, d.precision, d.predicted) != (r.p, r.precision, r.predicted) {
            self.fail(
                r,
                format!(
                    "recorded p={} {:?} predicted={} but the policy decides p={} {:?} \
                     predicted={} at {} Mbps, k={}",
                    r.p,
                    r.precision,
                    r.predicted,
                    d.p,
                    d.precision,
                    d.predicted,
                    r.bandwidth_est_mbps,
                    r.k_used
                ),
            );
        }
        match self.sizes.packed(r.p, r.precision) {
            Some(bytes) if bytes == r.uploaded_bytes => {}
            expected => self.fail(
                r,
                format!(
                    "uploaded {} bytes at p={} {:?}; the cut packs to {expected:?}",
                    r.uploaded_bytes, r.p, r.precision
                ),
            ),
        }
    }
}

/// Checks the server's served-offload count against the sessions' records:
/// every healthy offload was served once; a failed one may or may not
/// have been.
///
/// # Errors
///
/// Reports both counts when they disagree.
pub fn served(offloads: (u64, u64), served: u64) -> Result<(), String> {
    let (healthy, any) = offloads;
    if served < healthy || served > any {
        return Err(format!(
            "the server served {served} offloads but the clients recorded {healthy} \
             (plus {} failed)",
            any - healthy
        ));
    }
    Ok(())
}

//! Problem (1) and Algorithm 1 — the partition decision.
//!
//! Minimise over `p ∈ [0, n]`:
//!
//! ```text
//! t_p = Σ_{i<=p} f(L_i)  +  s_p/B_u  +  Σ_{i>p} g(L_i, k)  +  s_n/B_d     (p < n)
//! t_n = Σ_i f(L_i)                                                        (p = n)
//! ```
//!
//! with `f(L_i) = M_user(L_i)`, `g(L_i, k) = k * M_edge(L_i)` (§IV). The
//! solver stores prefix sums of `f`, suffix sums of `M_edge` and the
//! transmission series once per graph; each [`decide`](PartitionSolver::decide)
//! is then a single O(n) scan that multiplies the most recent `k` onto the
//! suffix sums — exactly the implementation the paper describes. The scan
//! compares candidates at nanosecond granularity but rounds once per
//! decision: each candidate's `t_p` is summed in `f64` and scaled to
//! unrounded nanoseconds, only the minimum is rounded, and the winner's
//! [`Decision`] is built once, after the scan. Following
//! §IV the result-download term `s_n/B_d` is ignored by default (the output
//! tensor is tiny); [`decide_with_download`](PartitionSolver::decide_with_download)
//! keeps it for completeness.

use lp_graph::{transmission_series, ComputationGraph, Precision};
use lp_profiler::PredictionModels;
use lp_sim::SimDuration;

/// The outcome of one partition decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The optimal partition point (0 = full offloading, n = local).
    pub p: usize,
    /// Upload-tensor precision negotiated for the cut (fp32 unless a
    /// quantization-aware policy picked a narrower width).
    pub precision: Precision,
    /// Predicted end-to-end latency at `p`.
    pub predicted: SimDuration,
    /// Predicted device-side compute time.
    pub device: SimDuration,
    /// Predicted upload time.
    pub upload: SimDuration,
    /// Predicted (k-scaled) server-side compute time.
    pub server: SimDuration,
    /// Predicted download time (zero unless download is modelled).
    pub download: SimDuration,
}

/// One decision's inputs, validated, with what every candidate shares
/// computed once: the upload rate in bytes/s, the download term in
/// seconds (0 unless modelled) and `k`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanInputs {
    up_bytes_per_sec: f64,
    download: f64,
    k: f64,
}

impl ScanInputs {
    /// `t_p`'s four terms in seconds — device, upload, k-scaled server,
    /// download — for an offloading cut (`p < n`) that has spent `device`
    /// seconds on the device, uploads `upload_bytes` and leaves
    /// `suffix_edge` seconds of unscaled server work: the one formula
    /// behind every scan and every [`Decision`].
    fn offload_terms(&self, device: f64, upload_bytes: u64, suffix_edge: f64) -> [f64; 4] {
        [
            device,
            upload_bytes as f64 / self.up_bytes_per_sec,
            self.k * suffix_edge,
            self.download,
        ]
    }
}

/// `t_p` from its terms, summed left to right in `f64` and scaled to
/// nanoseconds: [`SimDuration::from_secs_f64`]'s value before it rounds.
fn unrounded_ns([device, upload, server, download]: [f64; 4]) -> f64 {
    (device + upload + server + download).max(0.0) * 1e9
}

/// Rounds an [`unrounded_ns`] value to whole nanoseconds, as
/// [`SimDuration::from_secs_f64`] does: half away from zero, saturating.
fn round_ns(y: f64) -> SimDuration {
    SimDuration::from_nanos(y.round() as u64)
}

/// Below this many unrounded nanoseconds the minimum rounds to some
/// `T < 2^52`, so the tie bound `T + 0.5` is an exact `f64`.
const ONE_ROUNDING_BELOW_NS: f64 = 4_503_599_627_370_496.0 - 0.5;

/// Algorithm 1's `<=` update at nanosecond granularity over
/// `(candidate, y)` pairs in scan order, `y` being a candidate's `t_p` in
/// unrounded nanoseconds ([`PartitionSolver::y_p`]): the last candidate
/// whose `y` rounds to the smallest rounded value `T`, with `T`; `None`
/// if there is no candidate.
///
/// It rounds once per decision, not once per candidate. Rounding is
/// monotone, so `T` is the rounded minimum `y`, and a candidate rounds to
/// `T` exactly when its `y < T + 0.5`. A candidate at or past the running
/// minimum plus 1 ns cannot tie (`T + 0.5` is at most the minimum plus
/// 1 ns), so only a near-tie rounds the running minimum to test the bound.
/// From `T = 2^52` ns up the bound is not an `f64`, and the scan is
/// repeated rounding every candidate.
pub(crate) fn argmin_ns<C: Copy>(
    candidates: impl Iterator<Item = (C, f64)> + Clone,
) -> Option<(C, SimDuration)> {
    let (mut min, mut near, mut best) = (f64::INFINITY, f64::INFINITY, None);
    candidates.clone().for_each(|(c, y)| {
        if y < near {
            if y < min {
                (min, near) = (y, y + 1.0);
                best = Some(c);
            } else if y < min.round() + 0.5 {
                best = Some(c);
            }
        }
    });
    if min < ONE_ROUNDING_BELOW_NS {
        return best.map(|c| (c, round_ns(min)));
    }
    let mut best = None;
    let mut best_t = SimDuration::from_nanos(u64::MAX);
    candidates.for_each(|(c, y)| {
        let t = round_ns(y);
        if t <= best_t {
            (best, best_t) = (Some(c), t);
        }
    });
    best.map(|c| (c, best_t))
}

/// Precomputed per-graph state for Algorithm 1.
///
/// Construction is O(n); each decision is an O(n) scan with O(1) work per
/// candidate point thanks to the prefix/suffix sums.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSolver {
    /// `prefix[i] = Σ_{j<=i} f(L_j)` in seconds; `prefix[0] = 0` (`L_0` is
    /// virtual).
    prefix_device: Vec<f64>,
    /// `suffix[i] = Σ_{j>i} M_edge(L_j)` in seconds (unscaled by `k`);
    /// `suffix[n] = 0`.
    suffix_edge: Vec<f64>,
    /// Transmission sizes `s_0..s_n` in bytes.
    transmission: Vec<u64>,
    /// Output tensor size `s_n` in bytes (for the optional download term).
    output_bytes: u64,
}

impl PartitionSolver {
    /// Builds the solver from a graph and the two prediction-model bundles.
    #[must_use]
    pub fn new(
        graph: &ComputationGraph,
        user_models: &PredictionModels,
        edge_models: &PredictionModels,
    ) -> Self {
        let f: Vec<f64> = user_models
            .predict_graph(graph)
            .into_iter()
            .map(SimDuration::as_secs_f64)
            .collect();
        let g: Vec<f64> = edge_models
            .predict_graph(graph)
            .into_iter()
            .map(SimDuration::as_secs_f64)
            .collect();
        Self::from_times(
            &f,
            &g,
            transmission_series(graph),
            graph.output().size_bytes(),
        )
    }

    /// Builds the solver directly from per-node times (testing, ablations).
    ///
    /// # Panics
    ///
    /// Panics if `device_times`/`edge_times` lengths differ or
    /// `transmission.len() != n + 1`.
    #[must_use]
    pub fn from_times(
        device_times: &[f64],
        edge_times: &[f64],
        transmission: Vec<u64>,
        output_bytes: u64,
    ) -> Self {
        let n = device_times.len();
        assert_eq!(edge_times.len(), n, "per-node time lengths differ");
        assert_eq!(transmission.len(), n + 1, "need s_0..s_n");
        let mut prefix_device = vec![0.0; n + 1];
        for i in 1..=n {
            prefix_device[i] = prefix_device[i - 1] + device_times[i - 1];
        }
        let mut suffix_edge = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix_edge[i] = suffix_edge[i + 1] + edge_times[i];
        }
        Self {
            prefix_device,
            suffix_edge,
            transmission,
            output_bytes,
        }
    }

    /// Number of computation nodes `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prefix_device.len() - 1
    }

    /// Whether the graph behind this solver is empty (never true; graphs
    /// have at least one node).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predicted latency of a specific partition point (Problem (1) with
    /// the download term dropped, as in §IV).
    #[must_use]
    pub fn latency_at(&self, p: usize, bandwidth_up_mbps: f64, k: f64) -> Decision {
        self.latency_inner(p, bandwidth_up_mbps, None, k)
    }

    fn latency_inner(
        &self,
        p: usize,
        bandwidth_up_mbps: f64,
        bandwidth_down_mbps: Option<f64>,
        k: f64,
    ) -> Decision {
        assert!(p <= self.len(), "partition point out of range");
        let scan = self.scan_inputs(bandwidth_up_mbps, bandwidth_down_mbps, k);
        self.decision_at(p, Precision::Fp32, self.transmission[p], &scan)
    }

    /// Validates one decision's inputs and hoists what every candidate
    /// shares out of the candidate loop.
    pub(crate) fn scan_inputs(
        &self,
        bandwidth_up_mbps: f64,
        bandwidth_down_mbps: Option<f64>,
        k: f64,
    ) -> ScanInputs {
        assert!(bandwidth_up_mbps > 0.0, "upload bandwidth must be positive");
        assert!(k >= 1.0, "constraint (1c): k >= 1");
        ScanInputs {
            up_bytes_per_sec: lp_net::mbps_to_bytes_per_sec(bandwidth_up_mbps),
            download: bandwidth_down_mbps.map_or(0.0, |bd| {
                self.output_bytes as f64 / lp_net::mbps_to_bytes_per_sec(bd)
            }),
            k,
        }
    }

    /// `t_p`'s four terms in seconds for a cut at `p` that uploads
    /// `upload_bytes` ([`ScanInputs::offload_terms`]); local inference
    /// (`p = n`) is its device time alone.
    fn terms(&self, p: usize, upload_bytes: u64, scan: &ScanInputs) -> [f64; 4] {
        let device = self.prefix_device[p];
        if p == self.len() {
            return [device, 0.0, 0.0, 0.0];
        }
        scan.offload_terms(device, upload_bytes, self.suffix_edge[p])
    }

    /// `t_p` for a cut at `p` that uploads `upload_bytes`, in unrounded
    /// nanoseconds: the value every scan compares with [`argmin_ns`].
    pub(crate) fn y_p(&self, p: usize, upload_bytes: u64, scan: &ScanInputs) -> f64 {
        unrounded_ns(self.terms(p, upload_bytes, scan))
    }

    /// The full [`Decision`] for a cut at `p` uploading `upload_bytes` at
    /// `precision`; its `predicted` is `t_p` rounded to nanoseconds.
    pub(crate) fn decision_at(
        &self,
        p: usize,
        precision: Precision,
        upload_bytes: u64,
        scan: &ScanInputs,
    ) -> Decision {
        let terms = self.terms(p, upload_bytes, scan);
        let [device, upload, server, download] = terms;
        Decision {
            p,
            precision,
            predicted: round_ns(unrounded_ns(terms)),
            device: SimDuration::from_secs_f64(device),
            upload: SimDuration::from_secs_f64(upload),
            server: SimDuration::from_secs_f64(server),
            download: SimDuration::from_secs_f64(download),
        }
    }

    /// Every cut's `(p, y_p)` at fp32, `p` ascending: the full scan, which
    /// walks the sums and the transmission series side by side instead of
    /// indexing each per candidate.
    fn every_cut<'a>(
        &'a self,
        scan: &'a ScanInputs,
    ) -> impl Iterator<Item = (usize, f64)> + Clone + 'a {
        let n = self.len();
        let offload = self.prefix_device[..n]
            .iter()
            .zip(&self.transmission[..n])
            .zip(&self.suffix_edge[..n])
            .map(|((&device, &bytes), &suffix)| {
                unrounded_ns(scan.offload_terms(device, bytes, suffix))
            });
        let local = std::iter::once((n, self.y_p(n, 0, scan)));
        offload.enumerate().chain(local)
    }

    /// Algorithm 1: the optimal partition point for the current upload
    /// bandwidth (Mbps) and load factor `k`, ignoring the download term.
    ///
    /// Ties resolve to the **larger** `p` (the algorithm's `<=` update),
    /// i.e. towards keeping work on the device.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_up_mbps <= 0` or `k < 1`.
    #[must_use]
    pub fn decide(&self, bandwidth_up_mbps: f64, k: f64) -> Decision {
        self.decide_inner(bandwidth_up_mbps, None, k)
    }

    /// Algorithm 1 with the `s_n/B_d` download term retained.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth is non-positive or `k < 1`.
    #[must_use]
    pub fn decide_with_download(
        &self,
        bandwidth_up_mbps: f64,
        bandwidth_down_mbps: f64,
        k: f64,
    ) -> Decision {
        assert!(
            bandwidth_down_mbps > 0.0,
            "download bandwidth must be positive"
        );
        self.decide_inner(bandwidth_up_mbps, Some(bandwidth_down_mbps), k)
    }

    fn decide_inner(&self, bu: f64, bd: Option<f64>, k: f64) -> Decision {
        let scan = self.scan_inputs(bu, bd, k);
        let p = argmin_ns(self.every_cut(&scan)).map_or(0, |(p, _)| p);
        self.decision_at(p, Precision::Fp32, self.transmission[p], &scan)
    }

    /// DeepWear-style candidate pruning: the points worth scanning are the
    /// endpoints (full offloading, local inference) plus every point whose
    /// upload is *smaller than the raw input* — any other cut ships more
    /// bytes than `p = 0` while also spending device time, so it can only
    /// win in pathological landscapes. The paper's related work credits
    /// DeepWear with this reduction; on the zoo it shrinks the scan by
    /// 3-10x without changing any decision (see `tests/pruning.rs`).
    #[must_use]
    pub fn candidate_points(&self) -> Vec<usize> {
        self.candidates().collect()
    }

    fn candidates(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        let n = self.len();
        let input = self.transmission[0];
        (0..=n).filter(move |&p| p == 0 || p == n || self.transmission[p] < input)
    }

    /// Algorithm 1 restricted to [`candidate_points`](Self::candidate_points)
    /// — the DeepWear-pruned scan.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_up_mbps <= 0` or `k < 1`.
    #[must_use]
    pub fn decide_pruned(&self, bandwidth_up_mbps: f64, k: f64) -> Decision {
        let scan = self.scan_inputs(bandwidth_up_mbps, None, k);
        let candidates = self
            .candidates()
            .map(|p| (p, self.y_p(p, self.transmission[p], &scan)));
        let p = argmin_ns(candidates).map_or(0, |(p, _)| p);
        self.decision_at(p, Precision::Fp32, self.transmission[p], &scan)
    }

    /// The predicted latency curve `t_p` for all `p` (used by Figure 1).
    #[must_use]
    pub fn latency_curve(&self, bandwidth_up_mbps: f64, k: f64) -> Vec<Decision> {
        (0..=self.len())
            .map(|p| self.latency_at(p, bandwidth_up_mbps, k))
            .collect()
    }

    /// The transmission series `s_0..s_n` (bytes).
    #[must_use]
    pub fn transmission(&self) -> &[u64] {
        &self.transmission
    }

    /// Unscaled per-suffix edge predictions `Σ_{j>p} M_edge(L_j)` in
    /// seconds — the quantity the runtime scales by the live `k`.
    #[must_use]
    pub fn suffix_edge_secs(&self, p: usize) -> f64 {
        self.suffix_edge[p]
    }

    /// Prefix device predictions `Σ_{j<=p} f(L_j)` in seconds.
    #[must_use]
    pub fn prefix_device_secs(&self, p: usize) -> f64 {
        self.prefix_device[p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic 4-node chain where every regime is reachable:
    /// device times 10ms each, edge times 1ms each, transmissions
    /// shrinking along the chain.
    fn toy() -> PartitionSolver {
        PartitionSolver::from_times(
            &[0.010; 4],
            &[0.001; 4],
            vec![1_000_000, 500_000, 250_000, 125_000, 4_000],
            4_000,
        )
    }

    #[test]
    fn high_bandwidth_prefers_full_offloading() {
        let d = toy().decide(1000.0, 1.0);
        assert_eq!(d.p, 0);
        assert!(d.device == SimDuration::ZERO);
    }

    #[test]
    fn tiny_bandwidth_prefers_local() {
        let d = toy().decide(0.001, 1.0);
        assert_eq!(d.p, 4);
        assert_eq!(d.upload, SimDuration::ZERO);
        assert_eq!(d.server, SimDuration::ZERO);
    }

    #[test]
    fn moderate_bandwidth_partitions_in_the_middle() {
        // 8 Mbps = 1 MB/s: even s_3 costs 0.125 s, so local (0.04 s) wins.
        let d = toy().decide(8.0, 1.0);
        assert_eq!(d.p, 4);
        // At 160 Mbps (20 MB/s): t_2 = 0.02 + 0.0125 + 0.002 = 0.0345 is
        // the minimum -> a genuine mid-chain partition.
        let d = toy().decide(160.0, 1.0);
        assert_eq!(d.p, 2);
    }

    #[test]
    fn rising_k_pushes_partition_later() {
        let s = toy();
        let p_idle = s.decide(160.0, 1.0).p;
        let p_busy = s.decide(160.0, 20.0).p;
        assert_eq!(p_idle, 2);
        assert!(p_busy > p_idle);
        assert_eq!(p_busy, 4, "k=20 makes the server useless");
    }

    #[test]
    fn k_scales_only_the_server_term() {
        let s = toy();
        let a = s.latency_at(2, 8.0, 1.0);
        let b = s.latency_at(2, 8.0, 3.0);
        assert_eq!(a.device, b.device);
        assert_eq!(a.upload, b.upload);
        assert!((b.server.as_secs_f64() - 3.0 * a.server.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn local_inference_has_no_network_or_server_terms() {
        let s = toy();
        let d = s.latency_at(4, 0.001, 5.0);
        assert_eq!(d.upload, SimDuration::ZERO);
        assert_eq!(d.server, SimDuration::ZERO);
        assert_eq!(d.download, SimDuration::ZERO);
        assert!((d.predicted.as_secs_f64() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn download_term_optional() {
        let s = toy();
        let without = s.latency_at(0, 8.0, 1.0);
        let with = s.latency_inner(0, 8.0, Some(8.0), 1.0);
        assert!(with.predicted > without.predicted);
        assert!((with.download.as_secs_f64() - 4e3 / 1e6).abs() < 1e-9);
        // decide_with_download agrees with manual evaluation.
        let d = s.decide_with_download(8.0, 8.0, 1.0);
        let best = (0..=4)
            .map(|p| s.latency_inner(p, 8.0, Some(8.0), 1.0))
            .min_by(|a, b| a.predicted.cmp(&b.predicted))
            .unwrap();
        assert_eq!(d.predicted, best.predicted);
    }

    #[test]
    fn ties_resolve_to_larger_p() {
        // Two points with identical cost: zero-size transmissions and
        // symmetric times.
        let s = PartitionSolver::from_times(&[0.01, 0.01], &[0.01, 0.01], vec![0, 0, 0], 0);
        // t_0 = 0.02, t_1 = 0.02, t_2 = 0.02 -> p = 2.
        assert_eq!(s.decide(8.0, 1.0).p, 2);
    }

    #[test]
    fn decision_matches_exhaustive_search() {
        let s = toy();
        for bw in [0.5, 1.0, 8.0, 64.0, 512.0] {
            for k in [1.0, 2.0, 8.0] {
                let fast = s.decide(bw, k);
                let slow = (0..=s.len())
                    .map(|p| s.latency_at(p, bw, k))
                    .min_by(|a, b| {
                        a.predicted.cmp(&b.predicted).then(b.p.cmp(&a.p)) // larger p wins ties
                    })
                    .unwrap();
                assert_eq!(fast.p, slow.p, "bw={bw} k={k}");
                assert_eq!(fast.predicted, slow.predicted);
            }
        }
    }

    #[test]
    fn pruned_candidates_keep_endpoints_and_small_uploads() {
        let s = toy();
        // s_0 = 1 MB; every later point uploads less -> all candidates.
        assert_eq!(s.candidate_points(), vec![0, 1, 2, 3, 4]);
        let grow = PartitionSolver::from_times(&[0.01; 3], &[0.001; 3], vec![100, 500, 50, 0], 0);
        // s_1 = 500 > input 100 is pruned; endpoints and s_2 survive.
        assert_eq!(grow.candidate_points(), vec![0, 2, 3]);
    }

    #[test]
    fn pruned_decision_matches_full_scan_here() {
        let s = toy();
        for bw in [0.5, 8.0, 160.0] {
            for k in [1.0, 8.0] {
                assert_eq!(s.decide(bw, k).p, s.decide_pruned(bw, k).p, "bw={bw} k={k}");
            }
        }
    }

    #[test]
    fn latency_curve_has_n_plus_one_points() {
        let s = toy();
        let curve = s.latency_curve(8.0, 1.0);
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[4].upload, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn k_below_one_panics() {
        let _ = toy().decide(8.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = toy().decide(0.0, 1.0);
    }
}

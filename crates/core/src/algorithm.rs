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
//! suffix sums — exactly the implementation the paper describes. Each
//! candidate's `t_p` is summed in `f64` and rounded once to nanoseconds for
//! the comparison, and the winner's [`Decision`] is built once, after the
//! scan. Following
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

/// `t_p` from its terms, summed in `f64` and rounded once to whole
/// nanoseconds: the granularity at which Algorithm 1's `<=` compares
/// candidates.
fn rounded_sum([device, upload, server, download]: [f64; 4]) -> SimDuration {
    SimDuration::from_secs_f64(device + upload + server + download)
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

    /// `t_p`'s four terms in seconds — device, upload, server, download —
    /// for a cut at `p` that uploads `upload_bytes`: the one formula
    /// behind every scan and every [`Decision`].
    fn terms(&self, p: usize, upload_bytes: u64, scan: &ScanInputs) -> [f64; 4] {
        let device = self.prefix_device[p];
        if p == self.len() {
            return [device, 0.0, 0.0, 0.0];
        }
        [
            device,
            upload_bytes as f64 / scan.up_bytes_per_sec,
            scan.k * self.suffix_edge[p],
            scan.download,
        ]
    }

    /// `t_p` for a cut at `p` that uploads `upload_bytes`, rounded as
    /// [`rounded_sum`] does.
    pub(crate) fn t_p(&self, p: usize, upload_bytes: u64, scan: &ScanInputs) -> SimDuration {
        rounded_sum(self.terms(p, upload_bytes, scan))
    }

    /// The full [`Decision`] for a cut at `p` uploading `upload_bytes` at
    /// `precision`; its `predicted` is [`t_p`](Self::t_p).
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
            predicted: rounded_sum(terms),
            device: SimDuration::from_secs_f64(device),
            upload: SimDuration::from_secs_f64(upload),
            server: SimDuration::from_secs_f64(server),
            download: SimDuration::from_secs_f64(download),
        }
    }

    /// Algorithm 1's update over ascending `points` at fp32: the `<=`
    /// hands ties (at nanosecond granularity) to the larger `p`.
    fn argmin(&self, points: impl Iterator<Item = usize>, scan: &ScanInputs) -> usize {
        let mut best = (SimDuration::from_nanos(u64::MAX), 0);
        for p in points {
            let t = self.t_p(p, self.transmission[p], scan);
            if t <= best.0 {
                best = (t, p);
            }
        }
        best.1
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
        let p = self.argmin(0..=self.len(), &scan);
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

    fn candidates(&self) -> impl Iterator<Item = usize> + '_ {
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
        let p = self.argmin(self.candidates(), &scan);
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

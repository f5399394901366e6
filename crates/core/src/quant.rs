//! Adaptive upload-tensor quantization: kernels and the joint
//! (p, precision) decision policy.
//!
//! The paper's upload term `s_p / B` dominates on slow links, and plain
//! Algorithm 1 degenerates to pure-local inference once even the smallest
//! cut is too expensive at fp32. QPART-style joint optimization recovers
//! that regime: quantize the crossing tensors to fp16/int8/int4, pay a
//! modeled accuracy cost, and re-run the partition scan over the joint
//! (p, precision) space under an `accuracy_budget`.
//!
//! Two pieces live here:
//!
//! * scalar-packed symmetric quantization kernels
//!   ([`quantize_into`] / [`dequantize_into`]) with a hard round-trip
//!   error bound ([`round_trip_bound`]). [`payload_len`] is the packed
//!   size the engine charges a narrow upload; the runtime ships a pooled
//!   zero payload of that length ([`crate::pool::zero_payload`]) and does
//!   not run the kernels;
//! * [`QuantPolicy`] — a composable [`PartitionPolicy`] implementing the
//!   joint decision. With `accuracy_budget = 0` it is bit-identical to
//!   the fp32 [`LoadPartPolicy`](crate::policy::LoadPartPolicy).
//!
//! The graph-side size/accuracy models come from [`lp_graph::quant`] and
//! are re-exported by the crate root.

use crate::algorithm::{argmin_ns, Decision, PartitionSolver};
use crate::policy::{PartitionPolicy, PolicyContext};
use lp_graph::quant::{base_degradation, SCALE_HEADER_BYTES};
use lp_graph::{quantized_transmission_series, AccuracyModel, ComputationGraph, Precision};

/// Default accuracy budget for the registry's bare `quant` policy: one
/// top-1 point (`0.01`), enough to admit int8 on most cuts while keeping
/// int4 confined to the shallow, tolerant ones.
pub const DEFAULT_ACCURACY_BUDGET: f64 = 0.01;

/// Payload bytes (scale header included for non-fp32) for `numel` f32
/// elements at `precision` — the element-count form of
/// [`lp_graph::quantized_tensor_bytes`].
#[must_use]
pub fn payload_len(numel: usize, precision: Precision) -> usize {
    let header = SCALE_HEADER_BYTES as usize;
    match precision {
        Precision::Fp32 => numel * 4,
        Precision::Fp16 => header + numel * 2,
        Precision::Int8 => header + numel,
        Precision::Int4 => header + numel.div_ceil(2),
    }
}

/// Worst-case absolute round-trip error of [`quantize_into`] →
/// [`dequantize_into`] for values with magnitude at most `max_abs`.
///
/// Symmetric scalar quantization rounds to the nearest grid point of
/// spacing `scale = max_abs / qmax`, so the error is at most `scale / 2`.
/// Fp32 is the identity (zero error).
#[must_use]
pub fn round_trip_bound(max_abs: f32, precision: Precision) -> f32 {
    match precision.qmax() {
        None => 0.0,
        Some(qmax) => max_abs / (2.0 * qmax as f32),
    }
}

/// Quantizes `values` into `out` (cleared first; capacity is reused).
///
/// Layout: fp32 is the identity — raw little-endian f32 bytes, no header.
/// Narrow widths write a 4-byte little-endian f32 scale followed by the
/// packed integer payload (`q = round(x / scale)`, clamped to `±qmax`;
/// int4 packs even indices in the low nibble, odd in the high, two's
/// complement). An all-zero (or empty) tensor gets `scale = 0` and an
/// all-zero payload.
pub fn quantize_into(values: &[f32], precision: Precision, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(payload_len(values.len(), precision));
    let Some(qmax) = precision.qmax() else {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        return;
    };
    let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs > 0.0 {
        max_abs / qmax as f32
    } else {
        0.0
    };
    out.extend_from_slice(&scale.to_le_bytes());
    let q = |x: f32| -> i32 {
        if scale == 0.0 {
            0
        } else {
            (x / scale).round().clamp(-(qmax as f32), qmax as f32) as i32
        }
    };
    match precision {
        Precision::Fp32 => unreachable!("identity handled above"),
        Precision::Fp16 => {
            for &v in values {
                out.extend_from_slice(&(q(v) as i16).to_le_bytes());
            }
        }
        Precision::Int8 => {
            for &v in values {
                out.push(q(v) as i8 as u8);
            }
        }
        Precision::Int4 => {
            for pair in values.chunks(2) {
                let lo = (q(pair[0]) as i8 as u8) & 0x0F;
                let hi = pair.get(1).map_or(0, |&v| (q(v) as i8 as u8) & 0x0F);
                out.push(lo | (hi << 4));
            }
        }
    }
}

/// Error decoding a quantized payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// Payload length does not match `numel` at the declared precision.
    LengthMismatch {
        /// Bytes the decoder expected ([`payload_len`]).
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::LengthMismatch { expected, got } => {
                write!(f, "quantized payload length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Sign-extends a 4-bit two's-complement nibble.
fn nib_i8(nib: u8) -> i8 {
    ((nib << 4) as i8) >> 4
}

/// Dequantizes a payload produced by [`quantize_into`] back into `out`
/// (cleared first; capacity is reused). `numel` is the element count the
/// receiver negotiated (int4 packing makes it ambiguous from the length
/// alone).
///
/// # Errors
///
/// [`QuantError::LengthMismatch`] if the payload length disagrees with
/// `numel` at `precision`.
pub fn dequantize_into(
    payload: &[u8],
    precision: Precision,
    numel: usize,
    out: &mut Vec<f32>,
) -> Result<(), QuantError> {
    let expected = payload_len(numel, precision);
    if payload.len() != expected {
        return Err(QuantError::LengthMismatch {
            expected,
            got: payload.len(),
        });
    }
    out.clear();
    out.reserve(numel);
    if precision == Precision::Fp32 {
        for b in payload.chunks_exact(4) {
            out.push(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        return Ok(());
    }
    let scale = f32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
    let body = &payload[4..];
    match precision {
        Precision::Fp32 => unreachable!("identity handled above"),
        Precision::Fp16 => {
            for b in body.chunks_exact(2) {
                out.push(i16::from_le_bytes([b[0], b[1]]) as f32 * scale);
            }
        }
        Precision::Int8 => {
            for &b in body {
                out.push(b as i8 as f32 * scale);
            }
        }
        Precision::Int4 => {
            for (i, &b) in body.iter().enumerate() {
                out.push(nib_i8(b & 0x0F) as f32 * scale);
                if 2 * i + 1 < numel {
                    out.push(nib_i8(b >> 4) as f32 * scale);
                }
            }
        }
    }
    Ok(())
}

/// Per-precision lookup tables behind [`QuantPolicy`].
#[derive(Debug, Clone)]
struct QuantTables {
    /// `series[i][p]` = upload bytes at `Precision::NARROW[i]`, cut `p`.
    series: Vec<Vec<u64>>,
    /// `degradation[i][p]` = modeled top-1 drop at `Precision::NARROW[i]`.
    degradation: Vec<Vec<f64>>,
}

impl QuantTables {
    /// Exact tables from the graph: per-tensor scale headers and the
    /// per-(node, precision) accuracy model.
    fn for_graph(graph: &ComputationGraph) -> Self {
        let model = AccuracyModel::for_graph(graph);
        let n = graph.len();
        let mut series = Vec::with_capacity(Precision::NARROW.len());
        let mut degradation = Vec::with_capacity(Precision::NARROW.len());
        for prec in Precision::NARROW {
            series.push(quantized_transmission_series(graph, prec));
            degradation.push((0..=n).map(|p| model.degradation(p, prec)).collect());
        }
        Self {
            series,
            degradation,
        }
    }

    /// Graph-free tables derived from a solver's fp32 transmission series:
    /// one scale header per cut (exact for chain graphs, a 4-byte-per-extra-
    /// tensor undercount inside residual blocks) and a depth-only
    /// sensitivity (unit kind factor).
    fn from_solver(solver: &PartitionSolver) -> Self {
        let n = solver.len();
        let tx = solver.transmission();
        let mut series = Vec::with_capacity(Precision::NARROW.len());
        let mut degradation = Vec::with_capacity(Precision::NARROW.len());
        for prec in Precision::NARROW {
            let mut s = Vec::with_capacity(n + 1);
            let mut d = Vec::with_capacity(n + 1);
            for (p, &raw) in tx.iter().enumerate() {
                if p == n || raw == 0 {
                    s.push(0);
                    d.push(0.0);
                    continue;
                }
                let numel = (raw / 4) as usize;
                s.push(payload_len(numel, prec) as u64);
                let depth = 1.0 + 0.8 * (n - p) as f64 / n.max(1) as f64;
                d.push(base_degradation(prec) * depth);
            }
            series.push(s);
            degradation.push(d);
        }
        Self {
            series,
            degradation,
        }
    }
}

/// The joint (p, precision) partition policy.
///
/// `decide` first runs the exact fp32 Algorithm-1 scan (bit-identical to
/// [`LoadPartPolicy`](crate::policy::LoadPartPolicy)), then scans every
/// narrow precision over `p < n`, skipping candidates whose modeled
/// accuracy drop exceeds the budget and pricing the rest with the
/// quantized upload size. Updates keep the algorithm's `<=` tie-break, so
/// ties resolve to the narrower precision and, within a precision, the
/// larger `p`. With `accuracy_budget = 0` every narrow candidate is
/// inadmissible (the degradation model is strictly positive for `p < n`)
/// and the result is the fp32 decision, bit for bit.
///
/// Tables come either exactly from the graph
/// ([`QuantPolicy::for_graph`]) or, for registry construction without a
/// graph in hand ([`QuantPolicy::new`]), lazily from the first-seen
/// solver's transmission series — the same lazy-initialization idiom as
/// the bandit's candidate arms.
#[derive(Debug, Clone)]
pub struct QuantPolicy {
    budget: f64,
    name: String,
    tables: Option<QuantTables>,
}

impl QuantPolicy {
    /// A policy that derives its tables from the first solver it sees.
    #[must_use]
    pub fn new(accuracy_budget: f64) -> Self {
        assert!(
            accuracy_budget >= 0.0 && accuracy_budget.is_finite(),
            "accuracy budget must be finite and >= 0"
        );
        Self {
            budget: accuracy_budget,
            name: "quant".to_owned(),
            tables: None,
        }
    }

    /// A policy with exact per-graph tables (per-tensor scale headers,
    /// per-(node, precision) accuracy model).
    #[must_use]
    pub fn for_graph(graph: &ComputationGraph, accuracy_budget: f64) -> Self {
        let mut p = Self::new(accuracy_budget);
        p.tables = Some(QuantTables::for_graph(graph));
        p
    }

    /// Renames the policy (registry spellings like `quant:0.02`).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The accuracy budget (top-1 fraction).
    #[must_use]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Upload bytes at (`p`, `precision`) per the policy's tables, if
    /// they are built (`None` before the first decide on a lazily
    /// constructed policy). Fp32 is answered from the solver at decide
    /// time, not stored here.
    #[must_use]
    pub fn quantized_upload_bytes(&self, p: usize, precision: Precision) -> Option<u64> {
        let idx = Precision::NARROW.iter().position(|&q| q == precision)?;
        self.tables.as_ref().map(|t| t.series[idx][p])
    }

    /// Modeled accuracy drop at (`p`, `precision`), if tables are built.
    #[must_use]
    pub fn modeled_degradation(&self, p: usize, precision: Precision) -> Option<f64> {
        if precision == Precision::Fp32 {
            return Some(0.0);
        }
        let idx = Precision::NARROW.iter().position(|&q| q == precision)?;
        self.tables.as_ref().map(|t| t.degradation[idx][p])
    }
}

impl PartitionPolicy for QuantPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        let solver = ctx.solver;
        let n = solver.len();
        let tables = self
            .tables
            .get_or_insert_with(|| QuantTables::from_solver(solver));
        debug_assert_eq!(tables.series[0].len(), n + 1, "tables built for this graph");
        // Exact fp32 Algorithm 1 first: the baseline every quantized
        // candidate must beat (or tie, taking the bytes savings).
        let fp32 = solver.decide(ctx.bandwidth_mbps, ctx.k);
        let scan = solver.scan_inputs(ctx.bandwidth_mbps, None, ctx.k);
        let budget = self.budget;
        let narrow = Precision::NARROW
            .into_iter()
            .zip(&tables.series)
            .zip(&tables.degradation)
            .flat_map(|((prec, series), degradation)| {
                (0..n)
                    .filter(move |&p| degradation[p] <= budget)
                    .map(move |p| ((p, prec, series[p]), solver.y_p(p, series[p], &scan)))
            });
        match argmin_ns(narrow) {
            Some(((p, prec, bytes), t)) if t <= fp32.predicted => {
                solver.decision_at(p, prec, bytes, &scan)
            }
            _ => fp32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LoadPartPolicy;
    use lp_sim::SimTime;

    /// A device slow enough (0.3 s/layer) that squeezing the upload can
    /// flip Algorithm 1's pure-local verdict: at 2 Mbps the fp32 upload
    /// from any cut dwarfs the remaining device work, but a 4-8x smaller
    /// quantized tensor fits in the margin.
    fn toy() -> PartitionSolver {
        PartitionSolver::from_times(
            &[0.3; 4],
            &[0.001; 4],
            vec![1_000_000, 500_000, 250_000, 125_000, 4_000],
            4_000,
        )
    }

    fn ctx<'a>(solver: &'a PartitionSolver, bw: f64, k: f64) -> PolicyContext<'a> {
        PolicyContext {
            solver,
            bandwidth_mbps: bw,
            k,
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn payload_len_matches_graph_model() {
        use lp_graph::quantized_tensor_bytes;
        use lp_tensor::{Shape, TensorDesc};
        for numel in [1usize, 2, 3, 64, 1001] {
            let d = TensorDesc::f32(Shape::nchw(1, 1, 1, numel));
            for prec in Precision::ALL {
                assert_eq!(
                    payload_len(numel, prec) as u64,
                    quantized_tensor_bytes(&d, prec),
                    "numel={numel} {prec}"
                );
            }
        }
    }

    #[test]
    fn round_trip_within_bound() {
        // Deterministic xorshift values in [-8, 8).
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 65536.0 * 16.0 - 8.0
        };
        let (mut packed, mut out) = (Vec::new(), Vec::new());
        for len in [1usize, 2, 7, 64, 513] {
            let values: Vec<f32> = (0..len).map(|_| next()).collect();
            let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for prec in Precision::ALL {
                quantize_into(&values, prec, &mut packed);
                assert_eq!(packed.len(), payload_len(len, prec));
                dequantize_into(&packed, prec, len, &mut out).unwrap();
                assert_eq!(out.len(), len);
                let bound = round_trip_bound(max_abs, prec) * (1.0 + 1e-5) + f32::EPSILON;
                for (a, b) in values.iter().zip(&out) {
                    assert!(
                        (a - b).abs() <= bound,
                        "{prec} len={len}: {a} -> {b} exceeds bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn fp32_is_the_identity() {
        let values = [1.5f32, -0.25, 3.25e-8, -1.0e9];
        let (mut packed, mut out) = (Vec::new(), Vec::new());
        quantize_into(&values, Precision::Fp32, &mut packed);
        dequantize_into(&packed, Precision::Fp32, values.len(), &mut out).unwrap();
        assert_eq!(out, values, "fp32 must round-trip bit-exactly");
    }

    #[test]
    fn all_zero_tensor_round_trips() {
        let values = [0.0f32; 9];
        let (mut packed, mut out) = (Vec::new(), Vec::new());
        for prec in Precision::ALL {
            quantize_into(&values, prec, &mut packed);
            dequantize_into(&packed, prec, values.len(), &mut out).unwrap();
            assert_eq!(out.len(), values.len(), "{prec}");
            assert!(out.iter().all(|&x| x == 0.0), "{prec}");
        }
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let mut out = Vec::new();
        let err = dequantize_into(&[0u8; 5], Precision::Int8, 7, &mut out).unwrap_err();
        assert_eq!(
            err,
            QuantError::LengthMismatch {
                expected: 11,
                got: 5
            }
        );
        assert!(err.to_string().contains("expected 11"));
    }

    #[test]
    fn zero_budget_is_bit_identical_to_loadpart() {
        let s = toy();
        let mut quant = QuantPolicy::new(0.0);
        let mut base = LoadPartPolicy;
        for (bw, k) in [
            (0.001, 1.0),
            (0.5, 1.0),
            (8.0, 1.0),
            (160.0, 1.0),
            (160.0, 20.0),
            (1000.0, 4.0),
        ] {
            let c = ctx(&s, bw, k);
            let dq = quant.decide(&c);
            let db = base.decide(&c);
            assert_eq!(dq, db, "bw={bw} k={k}");
            assert_eq!(dq.precision, Precision::Fp32);
        }
    }

    #[test]
    fn starved_link_quantizes_instead_of_going_local() {
        let s = toy();
        // 2 Mbps: fp32 Algorithm 1 picks local (p = 4).
        let fp32 = s.decide(2.0, 1.0);
        assert_eq!(fp32.p, 4);
        let mut quant = QuantPolicy::new(DEFAULT_ACCURACY_BUDGET);
        let d = quant.decide(&ctx(&s, 2.0, 1.0));
        assert_ne!(d.precision, Precision::Fp32, "narrow width must win");
        assert!(d.p < 4, "quantized offload must beat pure-local");
        assert!(d.predicted < fp32.predicted);
    }

    #[test]
    fn generous_link_keeps_fp32() {
        let s = toy();
        let mut quant = QuantPolicy::new(DEFAULT_ACCURACY_BUDGET);
        // At 10 Gbps upload is nearly free at any width; fp32's tie-break
        // still must not be displaced by a *slower* narrow candidate.
        let d = quant.decide(&ctx(&s, 10_000.0, 1.0));
        let base = s.decide(10_000.0, 1.0);
        assert!(d.predicted <= base.predicted);
    }

    #[test]
    fn budget_gates_precisions() {
        let s = toy();
        // A budget below the cheapest narrow candidate's degradation
        // reduces to fp32; a generous one admits int4.
        let mut tight = QuantPolicy::new(1e-6);
        let mut loose = QuantPolicy::new(0.1);
        let c = ctx(&s, 0.5, 1.0);
        let dt = tight.decide(&c);
        assert_eq!(dt, s.decide(0.5, 1.0));
        let dl = loose.decide(&ctx(&s, 0.5, 1.0));
        assert_eq!(dl.precision, Precision::Int4, "loose budget at 0.5 Mbps");
        assert!(dl.predicted < dt.predicted);
    }

    #[test]
    fn for_graph_tables_pay_per_tensor_headers() {
        use lp_graph::{Activation, ConvAttrs, GraphBuilder, NodeKind};
        use lp_tensor::{Shape, TensorDesc};
        let mut b = GraphBuilder::new("res", TensorDesc::f32(Shape::nchw(1, 8, 8, 8)));
        let c1 = b
            .node("c1", NodeKind::Conv(ConvAttrs::same(8, 3)), [b.input()])
            .unwrap();
        let r1 = b
            .node("r1", NodeKind::Activation(Activation::Relu), [c1])
            .unwrap();
        let c2 = b
            .node("c2", NodeKind::Conv(ConvAttrs::same(8, 3)), [r1])
            .unwrap();
        let add = b.node("add", NodeKind::Add, [r1, c2]).unwrap();
        let g = b.finish(add).unwrap();
        let p = QuantPolicy::for_graph(&g, 0.01);
        // p=3: two tensors cross -> two headers.
        assert_eq!(
            p.quantized_upload_bytes(3, Precision::Int8),
            Some(2 * (4 + 8 * 8 * 8))
        );
        assert_eq!(p.modeled_degradation(3, Precision::Fp32), Some(0.0));
        assert!(p.modeled_degradation(3, Precision::Int4).unwrap() > 0.0);
    }

    #[test]
    fn registry_name_round_trips() {
        use crate::policy::build_named;
        assert_eq!(build_named("quant").unwrap().name(), "quant");
        let p = build_named("quant:0.02").unwrap();
        assert_eq!(p.name(), "quant:0.02");
        let any = build_named("quant:0.02").unwrap();
        let _ = any;
        assert!(build_named("quant:x").is_err());
        assert!(build_named("quant:-1").is_err());
    }
}

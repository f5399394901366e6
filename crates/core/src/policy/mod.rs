//! The pluggable partition-decision layer.
//!
//! [`PartitionPolicy`] is the trait every decision strategy implements:
//! one [`decide`](PartitionPolicy::decide) per request over a
//! [`PolicyContext`] (solver + live bandwidth/`k`), and an optional
//! [`observe`](PartitionPolicy::observe) feedback hook fed each completed
//! [`InferenceRecord`]. The engine only ever sees the trait, so the §V
//! baselines, the memoized fast path and learning policies all compose the
//! same way:
//!
//! * [`LoadPartPolicy`], [`NeurosurgeonPolicy`], [`LocalPolicy`],
//!   [`FullOffloadPolicy`], [`FixedPolicy`] — stateless wrappers over the
//!   [`PartitionSolver`] queries, one per [`Policy`](crate::Policy) enum
//!   variant (the enum remains as the config-level spec and builds these
//!   via [`Policy::build`](crate::Policy::build)).
//! * [`MemoPolicy`] — the single-entry decision memo, lifted out of the
//!   engine into a composable wrapper: between profiler refreshes the
//!   quantized `(bandwidth, k)` key repeats exactly, so back-to-back
//!   requests skip the inner policy entirely.
//! * [`BanditPolicy`] — an Autodidactic-Neurosurgeon-style online learner:
//!   a contextual bandit over the solver's candidate partition points,
//!   contexts discretized from the bandwidth estimate, trained on observed
//!   end-to-end latencies.
//! * [`OraclePolicy`] — a reference policy that reads the true cost
//!   landscape from an externally updated [`OracleCell`]; the policy
//!   comparison harness ([`crate::compare`]) uses it as the zero-regret
//!   baseline.
//!
//! The engine guards the feedback path: `observe` is only called for
//! records whose partition point actually came from the policy on the
//! healthy path, and never for `fallback_local` or admission-shed records
//! — their timings are synthetic local completions that would poison an
//! online learner's wire-time estimates.

mod bandit;
mod oracle;

pub use bandit::{BanditConfig, BanditPolicy};
pub use oracle::{OracleCell, OraclePolicy};

use crate::algorithm::{Decision, PartitionSolver};
use crate::engine::InferenceRecord;
use lp_sim::SimTime;
use std::fmt;

/// Everything a policy may consult when choosing a partition point for
/// one request.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// The per-graph Algorithm-1 state (prefix/suffix sums, transmission
    /// series, candidate points).
    pub solver: &'a PartitionSolver,
    /// The device's current upload-bandwidth estimate (Mbps, positive).
    pub bandwidth_mbps: f64,
    /// The load influence factor most recently fetched from the server
    /// (`>= 1`).
    pub k: f64,
    /// Request arrival time.
    pub now: SimTime,
}

/// A partition-decision strategy the engine can drive.
///
/// `decide` runs once per healthy request; `observe` is fed the completed
/// record afterwards (see the module docs for the guard conditions).
/// Implementations must be deterministic given their construction
/// parameters and the sequence of calls — the repo's equivalence tests
/// replay runs bit-identically.
pub trait PartitionPolicy: fmt::Debug + Send {
    /// Stable policy name (registry key, report label).
    fn name(&self) -> &str;

    /// Chooses the partition point for one request.
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision;

    /// Feedback hook: one completed inference this policy decided.
    /// Default: ignore (stateless policies).
    fn observe(&mut self, record: &InferenceRecord) {
        let _ = record;
    }

    /// Requests answered from a memo instead of the inner decision logic
    /// (non-zero only for [`MemoPolicy`]).
    fn memo_hits(&self) -> u64 {
        0
    }

    /// The concrete policy as [`Any`](std::any::Any), for tests and
    /// diagnostics that inspect learned state through the trait object
    /// (e.g. the fault-injection suite checking a [`BanditPolicy`]'s
    /// estimates were not poisoned). Stateless policies keep the default
    /// (`None`); [`MemoPolicy`] forwards to its inner policy.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The paper's system: bandwidth- and load-aware Algorithm 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadPartPolicy;

impl PartitionPolicy for LoadPartPolicy {
    fn name(&self) -> &str {
        "loadpart"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        ctx.solver.decide(ctx.bandwidth_mbps, ctx.k)
    }
}

/// Neurosurgeon: bandwidth-aware, assumes an idle server (`k = 1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeurosurgeonPolicy;

impl PartitionPolicy for NeurosurgeonPolicy {
    fn name(&self) -> &str {
        "neurosurgeon"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        // Load-oblivious: picks p with k=1, but the latency it actually
        // experiences is governed by the real queueing.
        ctx.solver.decide(ctx.bandwidth_mbps, 1.0)
    }
}

/// Always run everything on the device.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalPolicy;

impl PartitionPolicy for LocalPolicy {
    fn name(&self) -> &str {
        "local"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        ctx.solver
            .latency_at(ctx.solver.len(), ctx.bandwidth_mbps, ctx.k)
    }
}

/// Always upload the input and run everything on the server.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullOffloadPolicy;

impl PartitionPolicy for FullOffloadPolicy {
    fn name(&self) -> &str {
        "full"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        ctx.solver.latency_at(0, ctx.bandwidth_mbps, ctx.k)
    }
}

/// A fixed partition point (ablations).
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    /// The partition point every request uses.
    pub p: usize,
    name: String,
}

impl FixedPolicy {
    /// A policy pinned to partition point `p`.
    #[must_use]
    pub fn new(p: usize) -> Self {
        Self {
            p,
            name: format!("fixed:{p}"),
        }
    }
}

impl PartitionPolicy for FixedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        ctx.solver.latency_at(self.p, ctx.bandwidth_mbps, ctx.k)
    }
}

/// Quantizes a memo-key input to micro-units, the same precision the wire
/// carries `k` at ([`Message::k_to_micro`](crate::Message::k_to_micro)).
#[must_use]
pub fn memo_quantize(x: f64) -> u64 {
    (x * 1e6).round() as u64
}

/// The single-entry decision memo as a composable policy wrapper.
///
/// Between profiler refreshes the `(bandwidth, k)` inputs repeat exactly,
/// so back-to-back requests are answered from the cached [`Decision`]
/// instead of re-running the inner policy's scan. The key is the
/// micro-quantized input pair ([`memo_quantize`]); any change invalidates
/// the entry.
///
/// Only wrap policies whose decision is a pure function of the context —
/// a learning policy's decision drifts with its `observe` state, which a
/// memo would freeze. The engine therefore applies this wrapper only to
/// the stateless [`Policy`](crate::Policy)-enum specs
/// ([`OffloadEngine::new`](crate::OffloadEngine::new)), never to
/// externally supplied policies.
#[derive(Debug)]
pub struct MemoPolicy {
    inner: Box<dyn PartitionPolicy>,
    memo: Option<((u64, u64), Decision)>,
    hits: u64,
}

impl MemoPolicy {
    /// Wraps `inner` with an empty memo.
    #[must_use]
    pub fn new(inner: Box<dyn PartitionPolicy>) -> Self {
        Self {
            inner,
            memo: None,
            hits: 0,
        }
    }

    /// The wrapped policy.
    #[must_use]
    pub fn inner(&self) -> &dyn PartitionPolicy {
        self.inner.as_ref()
    }

    /// The currently memoized key, if any (tests).
    #[must_use]
    pub fn memo_key(&self) -> Option<(u64, u64)> {
        self.memo.map(|(key, _)| key)
    }
}

impl PartitionPolicy for MemoPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        let key = (memo_quantize(ctx.bandwidth_mbps), memo_quantize(ctx.k));
        if let Some((cached_key, cached)) = self.memo {
            if cached_key == key {
                self.hits += 1;
                return cached;
            }
        }
        let d = self.inner.decide(ctx);
        self.memo = Some((key, d));
        d
    }

    fn observe(&mut self, record: &InferenceRecord) {
        self.inner.observe(record);
    }

    fn memo_hits(&self) -> u64 {
        self.hits
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// Names accepted by [`build_named`], in registry order.
#[must_use]
pub fn policy_names() -> &'static [&'static str] {
    &[
        "loadpart",
        "neurosurgeon",
        "local",
        "full",
        "bandit",
        "quant[:<budget>]",
        "fixed:<p>",
    ]
}

/// Builds a registered policy by name.
///
/// `fixed:<p>` takes the partition point inline (e.g. `fixed:8`);
/// `bandit` builds an online learner with its default configuration.
///
/// # Errors
///
/// Unknown names return a message listing the whole registry.
pub fn build_named(name: &str) -> Result<Box<dyn PartitionPolicy>, String> {
    match name {
        "loadpart" => Ok(Box::new(LoadPartPolicy)),
        "neurosurgeon" => Ok(Box::new(NeurosurgeonPolicy)),
        "local" => Ok(Box::new(LocalPolicy)),
        "full" => Ok(Box::new(FullOffloadPolicy)),
        "bandit" => Ok(Box::new(BanditPolicy::new(BanditConfig::default()))),
        "quant" => Ok(Box::new(crate::quant::QuantPolicy::new(
            crate::quant::DEFAULT_ACCURACY_BUDGET,
        ))),
        other => {
            if let Some(p) = other.strip_prefix("fixed:") {
                let p: usize = p
                    .parse()
                    .map_err(|_| format!("invalid fixed partition point {p:?}"))?;
                return Ok(Box::new(FixedPolicy::new(p)));
            }
            if let Some(b) = other.strip_prefix("quant:") {
                let budget: f64 = b
                    .parse()
                    .ok()
                    .filter(|b: &f64| *b >= 0.0 && b.is_finite())
                    .ok_or_else(|| format!("invalid accuracy budget {b:?}"))?;
                return Ok(Box::new(
                    crate::quant::QuantPolicy::new(budget).named(other),
                ));
            }
            Err(format!(
                "unknown policy {other:?}; available: {}",
                policy_names().join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::SimTime;

    fn toy() -> PartitionSolver {
        PartitionSolver::from_times(
            &[0.010; 4],
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
    fn baseline_policies_match_solver_queries() {
        let s = toy();
        let c = ctx(&s, 160.0, 3.0);
        assert_eq!(LoadPartPolicy.decide(&c), s.decide(160.0, 3.0));
        assert_eq!(NeurosurgeonPolicy.decide(&c), s.decide(160.0, 1.0));
        assert_eq!(LocalPolicy.decide(&c), s.latency_at(4, 160.0, 3.0));
        assert_eq!(FullOffloadPolicy.decide(&c), s.latency_at(0, 160.0, 3.0));
        assert_eq!(FixedPolicy::new(2).decide(&c), s.latency_at(2, 160.0, 3.0));
    }

    #[test]
    fn fixed_policy_names_its_point() {
        assert_eq!(FixedPolicy::new(8).name(), "fixed:8");
    }

    #[test]
    fn memo_hits_on_repeat_and_invalidates_on_key_change() {
        let s = toy();
        let mut memo = MemoPolicy::new(Box::new(LoadPartPolicy));
        let d1 = memo.decide(&ctx(&s, 160.0, 1.0));
        assert_eq!(memo.memo_hits(), 0);
        let d2 = memo.decide(&ctx(&s, 160.0, 1.0));
        assert_eq!(memo.memo_hits(), 1);
        assert_eq!(d1, d2);
        // Sub-microunit wiggle quantizes to the same key: still a hit.
        let d3 = memo.decide(&ctx(&s, 160.0 + 1e-8, 1.0));
        assert_eq!(memo.memo_hits(), 2);
        assert_eq!(d1, d3);
        // A real k change invalidates and re-decides.
        let d4 = memo.decide(&ctx(&s, 160.0, 20.0));
        assert_eq!(memo.memo_hits(), 2);
        assert_eq!(d4, s.decide(160.0, 20.0));
        // And the new key is now the cached one.
        memo.decide(&ctx(&s, 160.0, 20.0));
        assert_eq!(memo.memo_hits(), 3);
    }

    #[test]
    fn memo_is_transparent_to_decisions() {
        let s = toy();
        let mut plain = LoadPartPolicy;
        let mut memo = MemoPolicy::new(Box::new(LoadPartPolicy));
        for (bw, k) in [(8.0, 1.0), (8.0, 1.0), (160.0, 2.0), (8.0, 1.0)] {
            assert_eq!(plain.decide(&ctx(&s, bw, k)), memo.decide(&ctx(&s, bw, k)));
        }
        assert_eq!(memo.name(), "loadpart");
    }

    #[test]
    fn registry_builds_every_name_and_rejects_unknowns() {
        for name in ["loadpart", "neurosurgeon", "local", "full", "bandit"] {
            let p = build_named(name).expect("registered");
            assert_eq!(p.name(), name);
        }
        assert_eq!(
            build_named("fixed:3").expect("registered").name(),
            "fixed:3"
        );
        let err = build_named("nope").expect_err("unknown");
        assert!(err.contains("available:"), "{err}");
        assert!(err.contains("loadpart") && err.contains("bandit"), "{err}");
        let err = build_named("fixed:x").expect_err("bad point");
        assert!(err.contains("invalid fixed partition point"), "{err}");
    }
}

//! The policy-comparison subsystem behind `loadpart compare`.
//!
//! Every policy faces the same three adversarial scenario families, each
//! chosen to break a different assumption the offline-modelled Algorithm 1
//! rests on:
//!
//! * **nonstationary-load** — the background GPU load square-waves between
//!   idle and the 100%(h) submission storm faster than the profiler
//!   cadence, so the device's cached `k` is chronically stale;
//! * **miscalibrated-device-model** — the real device executes layers
//!   [`CompareConfig::device_miscalibration`]× slower than the trained
//!   [`DeviceModel`] predicts: model-driven policies keep too many layers
//!   on the device forever, while the online learner sees the truth in its
//!   own latency feedback;
//! * **drifting-bandwidth** — the uplink steps through
//!   16 → 2 → 24 → 1 → 8 Mbps on a 10 s cycle, stressing how each policy's
//!   context tracks the wire.
//!
//! Each (scenario, policy) pair runs an isolated closed-loop co-simulation
//! (own [`Testbed`] with its edge server, own engine) from the same seed.
//! Per request the harness computes the **true** expected cost of every
//! partition point from the simulation's ground truth — the trace
//! bandwidth at that instant, the server tracker's current load factor,
//! and the injected device-model miscalibration:
//!
//! ```text
//! cost(p) = scale·Σ_{i≤p} f(L_i)  +  [p<n] · (s_p/B_true + ℓ + k_true·Σ_{i>p} g(L_i))
//! ```
//!
//! **Regret** of a request is `cost(p_chosen) − min_p cost(p)` ≥ 0. The
//! [`OraclePolicy`] receives the cost vector before each request and picks
//! its argmin, so the oracle's regret is zero by construction and every
//! other policy's regret is measured against the same yardstick. Per-run
//! regret is reported both in total and summed over
//! [`CompareConfig::windows`] equal request windows — the window series is
//! what shows a learner *converging* (decreasing) where a static policy's
//! regret stays flat.
//!
//! Results serialize to the `BENCH_policies.json` document consumed by
//! CI's policy-compare smoke job.
//!
//! [`DeviceModel`]: lp_hardware::DeviceModel

use crate::algorithm::PartitionSolver;
use crate::baselines::Policy;
use crate::engine::backends::SimulatedDevice;
use crate::engine::{DeviceExecutor, EngineConfig, OffloadEngine};
use crate::policy::{
    BanditConfig, BanditPolicy, MemoPolicy, OracleCell, OraclePolicy, PartitionPolicy,
};
use crate::system::{trained_models, Testbed};
use lp_graph::ComputationGraph;
use lp_hardware::LoadLevel;
use lp_json::Json;
use lp_net::{mbps_to_bytes_per_sec, BandwidthTrace, Link};
use lp_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// Configuration of one comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareConfig {
    /// Requests per (scenario, policy) run.
    pub requests: usize,
    /// Minimum spacing between request starts (closed loop: the next
    /// request never starts before the previous one completed).
    pub interval: SimDuration,
    /// How many equal request windows the regret series is summed over.
    pub windows: usize,
    /// Training-set size for the prediction models (shared, memoized).
    pub samples_per_kind: usize,
    /// RNG seed (models, testbeds and engines all derive from it).
    pub seed: u64,
    /// How many times slower the real device is than its trained model in
    /// the miscalibrated-device-model scenario (1.0 = calibrated).
    pub device_miscalibration: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            requests: 320,
            interval: SimDuration::from_millis(250),
            windows: 8,
            samples_per_kind: 200,
            seed: 42,
            device_miscalibration: 4.0,
        }
    }
}

impl CompareConfig {
    /// The CI smoke configuration: short runs, small training set.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            requests: 96,
            windows: 4,
            samples_per_kind: 64,
            ..Self::default()
        }
    }
}

/// One of the three adversarial scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Background load square-waves faster than the profiler cadence.
    NonstationaryLoad,
    /// The device executes slower than its trained model predicts.
    MiscalibratedDevice,
    /// The uplink bandwidth steps through a drift cycle.
    DriftingBandwidth,
}

impl ScenarioKind {
    /// All scenario families, in report order.
    #[must_use]
    pub fn all() -> [ScenarioKind; 3] {
        [
            ScenarioKind::NonstationaryLoad,
            ScenarioKind::MiscalibratedDevice,
            ScenarioKind::DriftingBandwidth,
        ]
    }

    /// Stable name used in the JSON document.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::NonstationaryLoad => "nonstationary-load",
            ScenarioKind::MiscalibratedDevice => "miscalibrated-device-model",
            ScenarioKind::DriftingBandwidth => "drifting-bandwidth",
        }
    }

    /// The uplink/downlink bandwidth trace of this scenario.
    fn trace(self) -> BandwidthTrace {
        match self {
            // The partial-offload regime of §V: wire terms matter, so a
            // stale k actually moves the optimum.
            ScenarioKind::NonstationaryLoad => BandwidthTrace::constant(8.0),
            // Slow enough that the trained model keeps a large prefix on
            // the device — exactly where the hidden slowdown hurts.
            ScenarioKind::MiscalibratedDevice => BandwidthTrace::constant(3.0),
            ScenarioKind::DriftingBandwidth => {
                // 16 → 2 → 24 → 1 → 8 Mbps, 10 s per step, looped long
                // past any plausible run length.
                let cycle = [16.0, 2.0, 24.0, 1.0, 8.0];
                let steps: Vec<(f64, f64)> = (0..120)
                    .map(|i| (10.0 * i as f64, cycle[i % cycle.len()]))
                    .collect();
                BandwidthTrace::steps(&steps)
            }
        }
    }

    /// Device-model miscalibration factor of this scenario.
    fn device_scale(self, config: &CompareConfig) -> f64 {
        match self {
            ScenarioKind::MiscalibratedDevice => config.device_miscalibration,
            _ => 1.0,
        }
    }

    /// Background-load square wave half-period (None = stays idle).
    fn load_toggle(self) -> Option<SimDuration> {
        match self {
            ScenarioKind::NonstationaryLoad => Some(SimDuration::from_secs(8)),
            _ => None,
        }
    }
}

/// The policies every scenario runs (plus the oracle yardstick).
///
/// The quant contender's regret is still measured against the **fp32**
/// true-cost vector: a narrow upload makes its real cost lower than the
/// fp32 cost at the same cut, so the number *overstates* quant's regret.
/// That keeps the oracle's zero-regret invariant intact — quant's actual
/// advantage shows up in the latency columns, most visibly on the
/// drifting-bandwidth scenario's 1-2 Mbps steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contender {
    Spec(Policy),
    Bandit,
    Quant,
    Oracle,
}

impl Contender {
    fn all() -> [Contender; 7] {
        [
            Contender::Spec(Policy::LoadPart),
            Contender::Spec(Policy::Neurosurgeon),
            Contender::Spec(Policy::Local),
            Contender::Spec(Policy::Full),
            Contender::Bandit,
            Contender::Quant,
            Contender::Oracle,
        ]
    }

    fn name(self) -> &'static str {
        match self {
            Contender::Spec(Policy::LoadPart) => "loadpart",
            Contender::Spec(Policy::Neurosurgeon) => "neurosurgeon",
            Contender::Spec(Policy::Local) => "local",
            Contender::Spec(Policy::Full) => "full",
            Contender::Spec(Policy::Fixed(_)) => "fixed",
            Contender::Bandit => "bandit",
            Contender::Quant => "quant",
            Contender::Oracle => "oracle",
        }
    }
}

/// One policy's results on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// Policy name (see [`crate::policy::policy_names`], plus "oracle").
    pub policy: String,
    /// Requests completed.
    pub requests: u64,
    /// Mean end-to-end latency, milliseconds.
    pub mean_latency_ms: f64,
    /// 95th-percentile end-to-end latency, milliseconds (nearest rank).
    pub p95_latency_ms: f64,
    /// Sum of per-request regret over the whole run, seconds.
    pub total_regret_secs: f64,
    /// Mean per-request regret, milliseconds.
    pub mean_regret_ms: f64,
    /// Regret summed per equal request window, seconds — the convergence
    /// series.
    pub window_regret_secs: Vec<f64>,
}

/// All policies' results on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario family measured.
    pub kind: ScenarioKind,
    /// Per-policy results, contender order (oracle last).
    pub policies: Vec<PolicyResult>,
}

impl ScenarioResult {
    /// The result row for `policy`, if present.
    #[must_use]
    pub fn policy(&self, name: &str) -> Option<&PolicyResult> {
        self.policies.iter().find(|p| p.policy == name)
    }
}

/// The full comparison: every scenario over every policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Configuration the comparison ran with.
    pub config: CompareConfig,
    /// Per-scenario results, [`ScenarioKind::all`] order.
    pub scenarios: Vec<ScenarioResult>,
}

impl CompareReport {
    /// The scenario row for `kind`, if present.
    #[must_use]
    pub fn scenario(&self, kind: ScenarioKind) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.kind == kind)
    }

    /// Serializes to the `BENCH_policies.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                let policies = s
                    .policies
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("policy".into(), Json::Str(p.policy.clone())),
                            ("requests".into(), Json::Num(p.requests as f64)),
                            ("mean_latency_ms".into(), Json::Num(p.mean_latency_ms)),
                            ("p95_latency_ms".into(), Json::Num(p.p95_latency_ms)),
                            ("total_regret_secs".into(), Json::Num(p.total_regret_secs)),
                            ("mean_regret_ms".into(), Json::Num(p.mean_regret_ms)),
                            (
                                "window_regret_secs".into(),
                                Json::Arr(
                                    p.window_regret_secs.iter().map(|&w| Json::Num(w)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.kind.name().into())),
                    ("policies".into(), Json::Arr(policies)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("benchmark".into(), Json::Str("policies".into())),
            ("requests".into(), Json::Num(self.config.requests as f64)),
            ("windows".into(), Json::Num(self.config.windows as f64)),
            ("seed".into(), Json::Num(self.config.seed as f64)),
            (
                "device_miscalibration".into(),
                Json::Num(self.config.device_miscalibration),
            ),
            ("scenarios".into(), Json::Arr(scenarios)),
        ])
    }

    /// Renders a fixed-width summary table for the terminal.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            out.push_str(&format!(
                "{}\n{:>14}  {:>8}  {:>9}  {:>9}  {:>11}  {:>10}  windows\n",
                s.kind.name(),
                "policy",
                "requests",
                "mean ms",
                "p95 ms",
                "regret s",
                "regret ms"
            ));
            for p in &s.policies {
                let windows: Vec<String> = p
                    .window_regret_secs
                    .iter()
                    .map(|w| format!("{w:.2}"))
                    .collect();
                out.push_str(&format!(
                    "{:>14}  {:>8}  {:>9.1}  {:>9.1}  {:>11.3}  {:>10.2}  [{}]\n",
                    p.policy,
                    p.requests,
                    p.mean_latency_ms,
                    p.p95_latency_ms,
                    p.total_regret_secs,
                    p.mean_regret_ms,
                    windows.join(" ")
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// A [`DeviceExecutor`] that runs `scale`× slower than the model the
/// policies were trained on — the injected miscalibration.
#[derive(Debug)]
struct ScaledDevice<'a> {
    inner: SimulatedDevice<'a>,
    scale: f64,
}

impl DeviceExecutor for ScaledDevice<'_> {
    fn execute_range(
        &mut self,
        graph: &ComputationGraph,
        from: usize,
        to: usize,
        rng: &mut StdRng,
    ) -> SimDuration {
        self.inner
            .execute_range(graph, from, to, rng)
            .scale(self.scale)
    }
}

/// The ground-truth expected cost of every partition point under the
/// simulation's current conditions (see module docs).
fn true_costs(
    solver: &PartitionSolver,
    device_scale: f64,
    bw_true_mbps: f64,
    k_true: f64,
    link_latency_secs: f64,
) -> Vec<f64> {
    let n = solver.len();
    (0..=n)
        .map(|p| {
            let mut cost = device_scale * solver.prefix_device_secs(p);
            if p < n {
                cost += solver.transmission()[p] as f64 / mbps_to_bytes_per_sec(bw_true_mbps)
                    + link_latency_secs
                    + k_true * solver.suffix_edge_secs(p);
            }
            cost
        })
        .collect()
}

/// Nearest-rank percentile in milliseconds (`q` in 0..=100).
fn percentile_ms(sorted: &[SimDuration], q: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

fn run_contender(kind: ScenarioKind, config: &CompareConfig, contender: Contender) -> PolicyResult {
    let graph = lp_models::alexnet(1);
    let (user, edge) = trained_models(config.samples_per_kind, config.seed);
    let engine_config = EngineConfig {
        seed: config.seed,
        ..EngineConfig::default()
    };
    let cell = OracleCell::new();
    // The spec'd policies get the memo `OffloadEngine::new` would add.
    let policy: Box<dyn PartitionPolicy> = match contender {
        Contender::Spec(policy) => Box::new(MemoPolicy::new(policy.build())),
        Contender::Bandit => Box::new(BanditPolicy::new(BanditConfig {
            seed: config.seed,
            ..BanditConfig::default()
        })),
        Contender::Quant => Box::new(crate::quant::QuantPolicy::for_graph(
            &graph,
            crate::quant::DEFAULT_ACCURACY_BUDGET,
        )),
        Contender::Oracle => Box::new(OraclePolicy::new(cell.clone())),
    };
    let mut engine = OffloadEngine::with_policy(graph, policy, &user, &edge, 0, engine_config)
        .expect("valid compare config");
    let mut testbed = Testbed::new(Link::symmetric(kind.trace()), config.seed);
    let device_times = testbed.device_times(engine.graph());
    let kernel_times = testbed.server.kernel_times(engine.graph());
    let device_scale = kind.device_scale(config);
    let link_latency_secs = testbed.link.latency.as_secs_f64();

    let mut latencies = Vec::with_capacity(config.requests);
    let mut regrets = Vec::with_capacity(config.requests);
    let mut t = SimTime::ZERO + config.interval;
    // The square-wave load schedule, when the scenario has one.
    let mut next_toggle = kind.load_toggle().map(|half| SimTime::ZERO + half);
    let mut load_high = false;
    for _ in 0..config.requests {
        if let (Some(half), Some(boundary)) = (kind.load_toggle(), next_toggle) {
            let mut boundary = boundary;
            while boundary <= t {
                // Load changes take effect at the GPU's current instant,
                // so advance it to the boundary first.
                testbed.server.gpu.advance_to(boundary);
                load_high = !load_high;
                testbed.server.set_load(if load_high {
                    LoadLevel::Pct100High
                } else {
                    LoadLevel::Idle
                });
                boundary += half;
            }
            next_toggle = Some(boundary);
        }
        let bw_true = testbed.link.upload.mbps_at(t);
        let k_true = testbed.server.tracker.k_at(t).max(1.0);
        let costs = true_costs(
            engine.solver(),
            device_scale,
            bw_true,
            k_true,
            link_latency_secs,
        );
        if contender == Contender::Oracle {
            cell.publish(costs.clone());
        }
        let mut device = ScaledDevice {
            inner: SimulatedDevice {
                times: &device_times,
            },
            scale: device_scale,
        };
        let (mut transport, mut backend) = testbed.backends(&kernel_times);
        let record = engine
            .run(t, &mut device, &mut backend, &mut transport)
            .expect("co-simulated backends are infallible");
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        regrets.push(costs[record.p] - best);
        latencies.push(record.total);
        t = (t + record.total).max(t + config.interval);
    }

    let total_regret_secs: f64 = regrets.iter().sum();
    let window = regrets.len().div_ceil(config.windows.max(1)).max(1);
    let window_regret_secs: Vec<f64> = regrets.chunks(window).map(|c| c.iter().sum()).collect();
    let mean_latency_ms = latencies.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>()
        / latencies.len().max(1) as f64;
    let mut sorted = latencies;
    sorted.sort_unstable();
    PolicyResult {
        policy: contender.name().to_string(),
        requests: regrets.len() as u64,
        mean_latency_ms,
        p95_latency_ms: percentile_ms(&sorted, 95),
        total_regret_secs,
        mean_regret_ms: total_regret_secs * 1e3 / regrets.len().max(1) as f64,
        window_regret_secs,
    }
}

/// Runs one scenario family across every contender (oracle included).
#[must_use]
pub fn run_scenario(kind: ScenarioKind, config: &CompareConfig) -> ScenarioResult {
    ScenarioResult {
        kind,
        policies: Contender::all()
            .into_iter()
            .map(|c| run_contender(kind, config, c))
            .collect(),
    }
}

/// Runs the full comparison: all three scenario families, every policy.
#[must_use]
pub fn compare_policies(config: &CompareConfig) -> CompareReport {
    CompareReport {
        config: config.clone(),
        scenarios: ScenarioKind::all()
            .into_iter()
            .map(|kind| run_scenario(kind, config))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_has_zero_regret_and_dominates() {
        let config = CompareConfig {
            requests: 24,
            windows: 2,
            samples_per_kind: 64,
            ..CompareConfig::default()
        };
        let result = run_scenario(ScenarioKind::MiscalibratedDevice, &config);
        let oracle = result.policy("oracle").expect("oracle ran");
        assert!(oracle.total_regret_secs.abs() < 1e-9, "{oracle:?}");
        for p in &result.policies {
            assert!(p.total_regret_secs.is_finite());
            assert!(
                p.total_regret_secs >= oracle.total_regret_secs - 1e-9,
                "{} regret {} below oracle",
                p.policy,
                p.total_regret_secs
            );
        }
    }

    #[test]
    fn report_serializes_all_scenarios_and_policies() {
        let config = CompareConfig {
            requests: 8,
            windows: 2,
            samples_per_kind: 64,
            ..CompareConfig::default()
        };
        let report = compare_policies(&config);
        assert_eq!(report.scenarios.len(), 3);
        for s in &report.scenarios {
            assert_eq!(s.policies.len(), 7);
        }
        let text = report.to_json().to_string_pretty();
        let parsed = Json::parse(&text).expect("round-trips");
        match parsed {
            Json::Obj(fields) => {
                assert!(fields.iter().any(|(k, _)| k == "scenarios"));
            }
            other => panic!("expected object, got {other:?}"),
        }
        let table = report.render_table();
        assert!(table.contains("miscalibrated-device-model"));
        assert!(table.contains("oracle"));
        assert!(table.contains("quant"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        assert!((percentile_ms(&sorted, 95) - 95.0).abs() < 1e-9);
        assert!((percentile_ms(&sorted, 100) - 100.0).abs() < 1e-9);
        assert_eq!(percentile_ms(&[], 95), 0.0);
    }
}

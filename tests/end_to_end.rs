//! Cross-crate integration tests: the full pipeline from model zoo through
//! offline profiling, partition decision, Figure 5 extraction and system
//! co-simulation.

use loadpart::policy::{PartitionPolicy, PolicyContext};
use loadpart::{Decision, OffloadingSystem, PartitionSolver, Policy, SystemConfig, Testbed};
use lp_graph::partition::partition_at;
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::OnceLock;

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(200, 42))
}

fn run_policy(model: &str, policy: Policy, mbps: f64, runs: usize) -> f64 {
    let (user, edge) = models();
    let graph = lp_models::by_name(model, 1).expect("zoo model");
    let mut sys = OffloadingSystem::new(
        graph,
        policy,
        Testbed::with_constant_bandwidth(mbps, 17),
        user,
        edge,
        SystemConfig::default(),
    );
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    let mut total = 0.0;
    for _ in 0..runs {
        let r = sys.infer(t);
        total += r.total.as_secs_f64();
        t = t + r.total + SimDuration::from_millis(60);
    }
    total / runs as f64
}

/// LoADPart should never be meaningfully worse than the better of the two
/// trivial policies, for any evaluation model at any bandwidth.
#[test]
fn loadpart_never_meaningfully_worse_than_trivial_policies() {
    for model in [
        "alexnet",
        "squeezenet",
        "vgg16",
        "resnet18",
        "resnet50",
        "xception",
    ] {
        for mbps in [1.0, 8.0, 64.0] {
            let lp = run_policy(model, Policy::LoadPart, mbps, 6);
            let local = run_policy(model, Policy::Local, mbps, 6);
            let full = run_policy(model, Policy::Full, mbps, 6);
            let best_trivial = local.min(full);
            // Allow 30%: on knife-edge cases (e.g. ResNet18 at 8 Mbps,
            // where local and full offloading nearly tie) Table III-level
            // prediction error can pick the slightly worse side — the same
            // regime the paper describes in §V-B for the ResNets.
            assert!(
                lp <= best_trivial * 1.30,
                "{model}@{mbps}Mbps: LoADPart {lp:.3}s vs best trivial {best_trivial:.3}s"
            );
        }
    }
}

/// Every decision the solver can make corresponds to a partition that
/// actually materialises, with consistent upload sizes.
#[test]
fn decisions_materialise_for_all_models() {
    let (user, edge) = models();
    for graph in lp_models::evaluation_set(1) {
        let solver = PartitionSolver::new(&graph, user, edge);
        for mbps in [1.0, 4.0, 8.0, 32.0, 64.0] {
            for k in [1.0, 5.0, 25.0] {
                let d = solver.decide(mbps, k);
                let part = partition_at(&graph, d.p)
                    .unwrap_or_else(|e| panic!("{} p={}: {e}", graph.name(), d.p));
                assert_eq!(
                    part.upload_bytes(&graph),
                    solver.transmission()[d.p],
                    "{} p={}",
                    graph.name(),
                    d.p
                );
            }
        }
    }
}

/// Decides `p = 0, 1, 2, ...` on successive requests.
#[derive(Debug)]
struct EveryPoint(usize);

impl PartitionPolicy for EveryPoint {
    fn name(&self) -> &str {
        "every-point"
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        self.0 += 1;
        ctx.solver.latency_at(self.0 - 1, ctx.bandwidth_mbps, ctx.k)
    }
}

/// The engine's device cache keeps the device side of each partition it
/// ran, exactly as Figure 5 extracts it, and the engine uploads exactly
/// the partition's crossing bytes, at every point of every zoo network.
#[test]
fn device_cache_keeps_the_device_side_and_engine_uploads_the_cut() {
    let (user, edge) = models();
    for graph in lp_models::full_zoo(1) {
        let mut sys = OffloadingSystem::with_policy(
            graph.clone(),
            Box::new(EveryPoint(0)),
            Testbed::with_constant_bandwidth(8.0, 5),
            user,
            edge,
            SystemConfig::default(),
        );
        let mut t = SimTime::ZERO + SimDuration::from_millis(100);
        for p in 0..=graph.len() {
            let r = sys.infer(t);
            t = t + r.total + SimDuration::from_millis(1);
            let name = graph.name();
            assert_eq!(r.p, p, "{name}: the sweep decides every point");
            assert!(!r.cache_hit, "{name} p={p}: first lookup");
            let part = partition_at(&graph, p).expect("p in range");
            assert_eq!(r.raw_bytes, part.upload_bytes(&graph), "{name} p={p}");
            assert_eq!(r.uploaded_bytes, r.raw_bytes, "{name} p={p}: fp32");
            let (cached, hit) = sys
                .engine()
                .device_cache()
                .get_or_extract(&graph, p)
                .expect("p in range");
            assert!(hit, "{name} p={p}: the request cached it");
            assert_eq!(cached.as_deref(), part.device.as_ref(), "{name} p={p}");
        }
        assert_eq!(sys.engine().device_cache().len(), graph.len() + 1);
    }
}

/// The measured end-to-end latency should track the solver's prediction
/// within a factor of ~2 on an idle server (the prediction models have
/// Table III-level error, not order-of-magnitude error).
#[test]
fn predictions_track_measurements_on_idle_server() {
    let (user, edge) = models();
    for model in ["alexnet", "squeezenet", "resnet18"] {
        let graph = lp_models::by_name(model, 1).expect("zoo model");
        let mut sys = OffloadingSystem::new(
            graph,
            Policy::LoadPart,
            Testbed::with_constant_bandwidth(8.0, 3),
            user,
            edge,
            SystemConfig::default(),
        );
        let mut t = SimTime::ZERO + SimDuration::from_millis(100);
        for _ in 0..5 {
            let r = sys.infer(t);
            let ratio = r.total.as_secs_f64() / r.predicted.as_secs_f64();
            assert!(
                (0.5..2.0).contains(&ratio),
                "{model}: measured {:.1}ms vs predicted {:.1}ms",
                r.total.as_millis_f64(),
                r.predicted.as_millis_f64()
            );
            t = t + r.total + SimDuration::from_millis(60);
        }
    }
}

/// Serialising the trained bundles and reloading them must leave decisions
/// unchanged (the paper stores the models on both device and server).
#[test]
fn model_bundles_round_trip_through_json() {
    let (user, edge) = models();
    let user2 = PredictionModels::from_json(&user.to_json()).expect("round trip");
    let edge2 = PredictionModels::from_json(&edge.to_json()).expect("round trip");
    let graph = lp_models::alexnet(1);
    let a = PartitionSolver::new(&graph, user, edge);
    let b = PartitionSolver::new(&graph, &user2, &edge2);
    for mbps in [1.0, 8.0, 64.0] {
        assert_eq!(a.decide(mbps, 1.0).p, b.decide(mbps, 1.0).p);
    }
}

/// Identical seeds give bit-identical runs; different seeds differ — the
/// whole stack is deterministic by construction.
#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        let (user, edge) = models();
        let graph = lp_models::alexnet(1);
        let mut sys = OffloadingSystem::new(
            graph,
            Policy::LoadPart,
            Testbed::with_constant_bandwidth(8.0, seed),
            user,
            edge,
            SystemConfig {
                seed,
                ..SystemConfig::default()
            },
        );
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + SimDuration::from_millis(100);
        for _ in 0..4 {
            let r = sys.infer(t);
            out.push(r.total.as_nanos());
            t = t + r.total + SimDuration::from_millis(60);
        }
        out
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

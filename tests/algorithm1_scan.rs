//! Algorithm 1's scan sums each candidate's `t_p` in `f64`, rounds it once
//! to nanoseconds for the `<=` compare and builds one `Decision`, for the
//! winner. These tests pin it to the definition: on every zoo network and
//! a grid of bandwidths and load factors, each scan returns, field for
//! field, the exhaustive argmin of Problem (1) with ties (at nanosecond
//! granularity) going to the larger `p`.

use loadpart::{Decision, PartitionPolicy, PartitionSolver, PolicyContext, Precision, QuantPolicy};
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::OnceLock;

const BANDWIDTHS_MBPS: [f64; 15] = [
    0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 512.0, 1e3, 4e3, 1e4,
];

fn models() -> &'static (PredictionModels, PredictionModels) {
    static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
    MODELS.get_or_init(|| loadpart::system::trained_models(150, 42))
}

fn solvers() -> Vec<(String, PartitionSolver, u64)> {
    let (user, edge) = models();
    lp_models::full_zoo(1)
        .into_iter()
        .map(|g| {
            let solver = PartitionSolver::new(&g, user, edge);
            (g.name().to_owned(), solver, g.output().size_bytes())
        })
        .collect()
}

fn bytes_per_sec(mbps: f64) -> f64 {
    mbps * 1e6 / 8.0
}

/// Problem (1) at `p`, written out from the solver's public sums, with the
/// download term when `download` (Mbps, output bytes) is given.
fn problem_1(
    solver: &PartitionSolver,
    p: usize,
    up_mbps: f64,
    download: Option<(f64, u64)>,
    k: f64,
) -> Decision {
    let device = solver.prefix_device_secs(p);
    let (upload, server, down) = if p == solver.len() {
        (0.0, 0.0, 0.0)
    } else {
        (
            solver.transmission()[p] as f64 / bytes_per_sec(up_mbps),
            k * solver.suffix_edge_secs(p),
            download.map_or(0.0, |(mbps, bytes)| bytes as f64 / bytes_per_sec(mbps)),
        )
    };
    Decision {
        p,
        precision: Precision::Fp32,
        predicted: SimDuration::from_secs_f64(device + upload + server + down),
        device: SimDuration::from_secs_f64(device),
        upload: SimDuration::from_secs_f64(upload),
        server: SimDuration::from_secs_f64(server),
        download: SimDuration::from_secs_f64(down),
    }
}

/// The exhaustive argmin over `points` (ascending), larger `p` on ties.
fn argmin(points: impl Iterator<Item = usize>, t: impl Fn(usize) -> Decision) -> Decision {
    points
        .map(t)
        .reduce(|best, d| {
            if d.predicted <= best.predicted {
                d
            } else {
                best
            }
        })
        .expect("at least one candidate")
}

#[test]
fn every_scan_equals_the_exhaustive_argmin_on_the_zoo() {
    for (name, solver, output_bytes) in solvers() {
        let n = solver.len();
        let pruned: Vec<usize> = solver.candidate_points();
        for bw in BANDWIDTHS_MBPS {
            for k in (1..=50).map(f64::from) {
                let at = |p| solver.latency_at(p, bw, k);
                // The written-out formula is latency_at's, field for field.
                for p in [0, n / 3, n / 2, n] {
                    assert_eq!(problem_1(&solver, p, bw, None, k), at(p), "{name} p={p}");
                }
                let want = argmin(0..=n, at);
                assert_eq!(solver.decide(bw, k), want, "{name} bw={bw} k={k}");
                assert_eq!(
                    solver.decide_pruned(bw, k),
                    argmin(pruned.iter().copied(), at),
                    "{name} bw={bw} k={k} (pruned)"
                );
                let bd = bw / 4.0;
                let with_download = argmin(0..=n, |p| {
                    problem_1(&solver, p, bw, Some((bd, output_bytes)), k)
                });
                assert_eq!(
                    solver.decide_with_download(bw, bd, k),
                    with_download,
                    "{name} bw={bw} bd={bd} k={k}"
                );
            }
        }
    }
}

#[test]
fn quant_policy_equals_its_written_out_narrow_scan() {
    let (user, edge) = models();
    for graph in lp_models::full_zoo(1) {
        let solver = PartitionSolver::new(&graph, user, edge);
        let n = solver.len();
        for budget in [0.0, 0.01, 0.05] {
            let mut policy = QuantPolicy::for_graph(&graph, budget);
            for bw in BANDWIDTHS_MBPS {
                for k in [1.0, 2.0, 5.0, 20.0, 50.0] {
                    // fp32 Algorithm 1, then every narrow cut inside the
                    // budget, each `t_p` rounded once, `<=` keeping the
                    // later candidate.
                    let mut want = solver.decide(bw, k);
                    for prec in Precision::NARROW {
                        for p in 0..n {
                            let degradation = policy.modeled_degradation(p, prec).unwrap();
                            if degradation > budget {
                                continue;
                            }
                            let bytes = policy.quantized_upload_bytes(p, prec).unwrap();
                            let device = solver.prefix_device_secs(p);
                            let upload = bytes as f64 / bytes_per_sec(bw);
                            let server = k * solver.suffix_edge_secs(p);
                            let predicted = SimDuration::from_secs_f64(device + upload + server);
                            if predicted <= want.predicted {
                                want = Decision {
                                    p,
                                    precision: prec,
                                    predicted,
                                    device: SimDuration::from_secs_f64(device),
                                    upload: SimDuration::from_secs_f64(upload),
                                    server: SimDuration::from_secs_f64(server),
                                    download: SimDuration::ZERO,
                                };
                            }
                        }
                    }
                    let got = policy.decide(&PolicyContext {
                        solver: &solver,
                        bandwidth_mbps: bw,
                        k,
                        now: SimTime::ZERO,
                    });
                    assert_eq!(got, want, "{} budget={budget} bw={bw} k={k}", graph.name());
                }
            }
        }
    }
}

#[test]
fn candidates_that_round_to_the_same_nanosecond_tie_to_the_larger_p() {
    // At 8 Mbps (1e6 B/s): t_0 = 1 s; t_1 = 10 ms + 100 B upload
    // (0.1 ms) = 10.1 ms; t_2 = local = 10.1 ms + 0.3 ns. In f64 p = 1 is
    // strictly better, but both round to 10_100_000 ns, and the `<=`
    // update hands the tie to p = 2.
    let solver = PartitionSolver::from_times(
        &[0.010, 0.000_100_000_3],
        &[0.0, 0.0],
        vec![1_000_000, 100, 0],
        0,
    );
    let exact = |p: usize| {
        let upload = if p < solver.len() {
            solver.transmission()[p] as f64 / bytes_per_sec(8.0)
        } else {
            0.0
        };
        solver.prefix_device_secs(p) + upload + solver.suffix_edge_secs(p)
    };
    assert!(exact(1) < exact(2), "{} vs {}", exact(1), exact(2));
    assert_eq!(
        solver.latency_at(1, 8.0, 1.0).predicted,
        solver.latency_at(2, 8.0, 1.0).predicted
    );
    assert_eq!(
        solver.latency_at(2, 8.0, 1.0).predicted,
        SimDuration::from_nanos(10_100_000)
    );
    let d = solver.decide(8.0, 1.0);
    assert_eq!(d.p, 2);
    assert_eq!(d, solver.latency_at(2, 8.0, 1.0));
    assert_eq!(solver.decide_pruned(8.0, 1.0).p, 2);
    assert_eq!(solver.decide_with_download(8.0, 8.0, 1.0).p, 2);

    // A full nanosecond apart, the f64 winner keeps the cut.
    let apart = PartitionSolver::from_times(
        &[0.010, 0.000_100_001],
        &[0.0, 0.0],
        vec![1_000_000, 100, 0],
        0,
    );
    assert_eq!(apart.decide(8.0, 1.0).p, 1);
}

//! Algorithm 1's scan compares candidates' `t_p` at nanosecond
//! granularity but rounds once per decision: each candidate's sum is
//! scaled to unrounded nanoseconds, only the minimum is rounded, and one
//! `Decision` is built, for the winner. These tests pin it to the
//! definition — every candidate's `t_p` rounded to nanoseconds, the `<=`
//! update handing ties to the larger `p` — on every zoo network over a
//! grid of bandwidths and load factors, and on landscapes built for the
//! rounding's edges: sums on, and one ulp either side of, an x.5 ns
//! boundary, distant minima that round to the same nanosecond, and minima
//! past 2^52 ns, where the scan rounds every candidate instead.

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

/// Problem (1)'s four terms at `p` in seconds, written out from the
/// solver's public sums, with the download term when `download` (Mbps,
/// output bytes) is given.
fn terms(
    solver: &PartitionSolver,
    p: usize,
    up_mbps: f64,
    download: Option<(f64, u64)>,
    k: f64,
) -> [f64; 4] {
    let device = solver.prefix_device_secs(p);
    if p == solver.len() {
        return [device, 0.0, 0.0, 0.0];
    }
    [
        device,
        solver.transmission()[p] as f64 / bytes_per_sec(up_mbps),
        k * solver.suffix_edge_secs(p),
        download.map_or(0.0, |(mbps, bytes)| bytes as f64 / bytes_per_sec(mbps)),
    ]
}

/// `t_p` in nanoseconds before rounding: what `SimDuration::from_secs_f64`
/// rounds.
fn unrounded_ns([device, upload, server, down]: [f64; 4]) -> f64 {
    (device + upload + server + down).max(0.0) * 1e9
}

/// Problem (1) at `p`, each term and the total rounded to nanoseconds.
fn problem_1(
    solver: &PartitionSolver,
    p: usize,
    up_mbps: f64,
    download: Option<(f64, u64)>,
    k: f64,
) -> Decision {
    let [device, upload, server, down] = terms(solver, p, up_mbps, download, k);
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

/// `QuantPolicy`'s decision written out: fp32 Algorithm 1, then every
/// narrow cut inside the budget, each `t_p` rounded to nanoseconds, `<=`
/// keeping the later candidate. `policy` must have its tables.
fn narrow_scan(policy: &QuantPolicy, solver: &PartitionSolver, bw: f64, k: f64) -> Decision {
    let mut want = solver.decide(bw, k);
    for prec in Precision::NARROW {
        for p in 0..solver.len() {
            let degradation = policy.modeled_degradation(p, prec).unwrap();
            if degradation > policy.budget() {
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
    want
}

fn quant_decide(policy: &mut QuantPolicy, solver: &PartitionSolver, bw: f64, k: f64) -> Decision {
    policy.decide(&PolicyContext {
        solver,
        bandwidth_mbps: bw,
        k,
        now: SimTime::ZERO,
    })
}

#[test]
fn quant_policy_equals_its_written_out_narrow_scan() {
    let (user, edge) = models();
    for graph in lp_models::full_zoo(1) {
        let solver = PartitionSolver::new(&graph, user, edge);
        for budget in [0.0, 0.01, 0.05] {
            let mut policy = QuantPolicy::for_graph(&graph, budget);
            for bw in BANDWIDTHS_MBPS {
                for k in [1.0, 2.0, 5.0, 20.0, 50.0] {
                    let got = quant_decide(&mut policy, &solver, bw, k);
                    let want = narrow_scan(&policy, &solver, bw, k);
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

/// The two `x` one ulp apart between which `y(x)` crosses `target`:
/// `y(below) < target <= y(above)`. `y` must be monotone non-decreasing
/// in `x`, and `start` within a few thousand ulps of the crossing.
fn crossing(target: f64, start: f64, y: impl Fn(f64) -> f64) -> (f64, f64) {
    let mut x = start;
    for _ in 0..100_000 {
        if y(x) < target {
            if y(x.next_up()) >= target {
                return (x, x.next_up());
            }
            x = x.next_up();
        } else {
            if y(x.next_down()) < target {
                return (x.next_down(), x);
            }
            x = x.next_down();
        }
    }
    panic!("y does not cross {target} near {start}");
}

/// The `x` at which `y(x)` is exactly `target`.
fn tune(target: f64, start: f64, y: impl Fn(f64) -> f64) -> f64 {
    let x = crossing(target, start, &y).1;
    assert_eq!(y(x), target, "{target} ns is not reachable exactly");
    x
}

/// The landscapes below are scanned at 8 Mbps (1 MB/s) and `k = 1`.
const BW: f64 = 8.0;

/// `t_p` of `solver` at [`BW`] and `k = 1`, unrounded.
fn y(solver: &PartitionSolver, p: usize) -> f64 {
    unrounded_ns(terms(solver, p, BW, None, 1.0))
}

/// Every scan on `solver` at [`BW`] and `k = 1` against its written-out
/// argmin, returning what `decide` chose: `decide`, `decide_pruned`,
/// `decide_with_download` (a quarter of [`BW`] down, `output_bytes`
/// downloaded) and `QuantPolicy` at three budgets, its tables built from
/// the solver.
fn every_scan_is_its_argmin(name: &str, solver: &PartitionSolver, output_bytes: u64) -> usize {
    let n = solver.len();
    let at = |p| solver.latency_at(p, BW, 1.0);
    let decision = solver.decide(BW, 1.0);
    assert_eq!(decision, argmin(0..=n, at), "{name}: decide");
    let pruned = solver.candidate_points();
    assert_eq!(
        solver.decide_pruned(BW, 1.0),
        argmin(pruned.iter().copied(), at),
        "{name}: decide_pruned"
    );
    let download = Some((BW / 4.0, output_bytes));
    assert_eq!(
        solver.decide_with_download(BW, BW / 4.0, 1.0),
        argmin(0..=n, |p| problem_1(solver, p, BW, download, 1.0)),
        "{name}: decide_with_download"
    );
    for budget in [0.0, 0.05, 1.0] {
        let mut policy = QuantPolicy::new(budget);
        let got = quant_decide(&mut policy, solver, BW, 1.0);
        let want = narrow_scan(&policy, solver, BW, 1.0);
        assert_eq!(got, want, "{name}: quant budget={budget}");
    }
    decision.p
}

/// One node: full offloading (`p = 0`) uploads 5,000 B at [`BW`] plus
/// `edge` on the server; local inference (`p = 1`) costs the device time
/// that puts `t_1` at exactly `y1` ns. The scan meets `p = 0` first, so
/// `p = 1` wins only by a tie or better.
fn one_node(y1: f64, edge: f64) -> PartitionSolver {
    let solver = |d0: f64| PartitionSolver::from_times(&[d0], &[edge], vec![5_000, 0], 0);
    solver(tune(y1, y1 / 1e9, |d0| y(&solver(d0), 1)))
}

#[test]
fn a_sum_on_an_x5_boundary_rounds_up_and_one_ulp_below_it_ties() {
    let y0 = y(
        &PartitionSolver::from_times(&[1.0], &[0.0], vec![5_000, 0], 0),
        0,
    );
    let bound = y0.round() + 0.5;
    for (y1, p, why) in [
        (
            bound.next_down(),
            1,
            "one ulp below T + 0.5 rounds to T: a tie",
        ),
        (bound, 0, "T + 0.5 rounds up to T + 1"),
        (bound.next_up(), 0, "one ulp above T + 0.5"),
        (y0, 1, "the same unrounded sum"),
        (y0.next_down(), 1, "strictly smaller"),
    ] {
        let solver = one_node(y1, 0.0);
        assert_eq!(y(&solver, 1), y1);
        assert_eq!(every_scan_is_its_argmin(why, &solver, 0), p, "{why}");
    }

    // The minimum itself on an x.5 boundary: the server term puts `t_0` at
    // 10,100,000.5 ns, which rounds up, so `T + 0.5` is a whole
    // nanosecond above it.
    let y0 = 10_100_000.5;
    let at_edge = |edge: f64| {
        y(
            &PartitionSolver::from_times(&[1.0], &[edge], vec![5_000, 0], 0),
            0,
        )
    };
    let edge = tune(y0, y0 / 1e9 - 0.005, at_edge);
    let bound = y0.round() + 0.5;
    for (y1, p, why) in [
        (
            bound.next_down(),
            1,
            "a whole ns above an x.5 minimum still ties",
        ),
        (bound, 0, "T + 0.5 above an x.5 minimum"),
        (y0, 1, "ties an x.5 minimum exactly"),
        (
            y0.next_down(),
            1,
            "just below an x.5 minimum rounds down: better",
        ),
    ] {
        let solver = one_node(y1, edge);
        assert_eq!(y(&solver, 0), y0);
        assert_eq!(every_scan_is_its_argmin(why, &solver, 0), p, "{why}");
    }
}

#[test]
fn distant_minima_that_round_to_the_same_nanosecond_tie_to_the_later() {
    // 40 nodes, 1 ms each on the device, the last five 1 s; nothing on
    // the server. Every cut uploads 1 GB except p = 3 (40 kB) and p = 35
    // (8 kB), so at 1 MB/s both cost about 43 ms and every other cut
    // seconds. Node 34's device time moves `t_35` against `t_3`.
    let n = 40;
    let solver = |d34: f64| {
        let mut device = vec![1e-3; n];
        device[34] = d34;
        device[35..].fill(1.0);
        let mut tx = vec![1_000_000_000; n + 1];
        tx[3] = 40_000;
        tx[35] = 8_000;
        tx[n] = 0;
        PartitionSolver::from_times(&device, &vec![0.0; n], tx, 0)
    };
    let y3 = y(&solver(1e-3), 3);
    let bound = y3.round() + 0.5;
    let start = 1e-3 + (bound - y3) / 1e9;
    let (below, at_or_above) = crossing(bound, start, |d34| y(&solver(d34), 35));
    for (d34, p, why) in [
        (below, 35, "32 cuts apart, the same nanosecond"),
        (at_or_above, 3, "past T + 0.5, the next nanosecond"),
    ] {
        let solver = solver(d34);
        assert_eq!(y(&solver, 3), y3);
        assert!(y(&solver, 35) > y3, "t_35 is the larger in f64");
        assert!((5..35).all(|p| y(&solver, p) > y3 + 1e6), "only two minima");
        assert_eq!(solver.candidate_points(), vec![0, 3, 35, n]);
        assert_eq!(every_scan_is_its_argmin(why, &solver, 0), p, "{why}");
    }
}

#[test]
fn minima_past_2_pow_52_ns_round_every_candidate() {
    let two_52 = 2f64.powi(52);
    // One node whose device and server terms are equal: both cuts cost
    // the same `y` ns. At or past 2^52 an even `y` is a `T` whose
    // `T + 0.5` rounds back to `T`, yet the later cut must win the tie.
    for secs in [4_503_600.0, 5e6, 1.2e9] {
        let solver = PartitionSolver::from_times(&[secs], &[secs], vec![0, 0], 0);
        let (y0, y1) = (y(&solver, 0), y(&solver, 1));
        assert_eq!(y0, y1);
        assert!(y0 >= two_52 && y0 % 2.0 == 0.0 && y0 + 0.5 == y0, "{y0}");
        assert_eq!(every_scan_is_its_argmin("tie past 2^52", &solver, 0), 1);
    }
    // Just below 2^52 the one rounding decides the same tie.
    let solver = PartitionSolver::from_times(&[4_503_599.0], &[4_503_599.0], vec![0, 0], 0);
    assert!(y(&solver, 1) < two_52);
    assert_eq!(every_scan_is_its_argmin("tie below 2^52", &solver, 0), 1);
    // Past 2^52, a nanosecond apart: no tie, the earlier cut wins.
    let apart =
        PartitionSolver::from_times(&[4_503_600.0f64.next_up()], &[4_503_600.0], vec![0, 0], 0);
    assert_eq!(y(&apart, 1), y(&apart, 0) + 1.0);
    assert_eq!(
        every_scan_is_its_argmin("1 ns apart past 2^52", &apart, 0),
        0
    );
    // Past 2^64 ns every candidate saturates to the same `u64::MAX`, so
    // the last one wins.
    let huge = PartitionSolver::from_times(&[3e10, 1e11], &[5e10, 1e10], vec![4, 2, 0], 8);
    assert!((0..=2).all(|p| y(&huge, p) >= 2f64.powi(64)));
    assert_eq!(every_scan_is_its_argmin("saturated", &huge, 8), 2);
}

#[test]
fn quant_keeps_fp32_unless_the_narrow_minimum_rounds_at_most_to_its_t() {
    // One node; local inference (fp32, p = 1) costs 10.1 ms, and every
    // fp32 or fp16/int8 upload of the 40 kB cut costs more. At int4 the
    // cut ships 5,004 B (5 ms at 1 MB/s); the server term puts its `t_0`
    // around fp32's `T + 0.5`.
    let solver = |edge: f64| PartitionSolver::from_times(&[0.0101], &[edge], vec![40_000, 0], 0);
    let fp32 = solver(0.0).decide(BW, 1.0);
    assert_eq!(fp32.p, 1);
    let fp32_t = fp32.predicted.as_nanos() as f64;
    let int4_bytes = 5_004.0;
    let y_int4 = |edge: f64| (int4_bytes / 1e6 + edge).max(0.0) * 1e9;
    let bound = fp32_t + 0.5;
    for (target, want, why) in [
        (
            bound.next_down(),
            Precision::Int4,
            "rounds to fp32's t: int4 wins the tie",
        ),
        (fp32_t - 0.5, Precision::Int4, "rounds up to fp32's t"),
        (bound, Precision::Fp32, "rounds to fp32's t + 1"),
        (bound.next_up(), Precision::Fp32, "one ulp past T + 0.5"),
    ] {
        let edge = tune(target, target / 1e9 - int4_bytes / 1e6, y_int4);
        let solver = solver(edge);
        every_scan_is_its_argmin(why, &solver, 0);
        let mut policy = QuantPolicy::new(1.0);
        let got = quant_decide(&mut policy, &solver, BW, 1.0);
        assert_eq!(
            policy.quantized_upload_bytes(0, Precision::Int4),
            Some(int4_bytes as u64)
        );
        assert_eq!(got.precision, want, "{why}");
    }
}

//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. tracker-period (k-smoothing window) sweep — how fast the system
//!    reacts to a load step vs how noisy its decisions get;
//! 2. profiler-period sweep — the bandwidth/load refresh cadence (the
//!    paper's 5 s default, which it notes "can be shortened");
//! 3. download-term modelling on/off — §IV drops `s_n/B_d`; measure what
//!    that ignores;
//! 4. probe-based vs passive-only bandwidth estimation.

use loadpart::{OffloadingSystem, PartitionSolver, Policy, SystemConfig, Testbed};
use lp_bench::{standard_models, text_table};
use lp_hardware::LoadLevel;
use lp_net::{BandwidthTrace, Link, ProbeProfiler};
use lp_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (user, edge) = standard_models();

    // ---- 1 & 2: reaction-speed sweep on a load step ------------------
    println!("[1/2] profiler-period sweep (SqueezeNet, load step 0% -> 100%(h) at t=10s):");
    let mut rows = Vec::new();
    for period_s in [1u64, 2, 5, 10, 20] {
        let graph = lp_models::squeezenet(1);
        let mut testbed = Testbed::with_constant_bandwidth(8.0, 51);
        testbed
            .server
            .set_tracker_period(SimDuration::from_secs(period_s));
        let mut sys = OffloadingSystem::new(
            graph,
            Policy::LoadPart,
            testbed,
            &user,
            &edge,
            SystemConfig {
                profiler_period: SimDuration::from_secs(period_s),
                ..SystemConfig::default()
            },
        );
        let mut t = SimTime::ZERO + SimDuration::from_millis(400);
        let mut shift_at = None;
        let mut mean_after = Vec::new();
        while t.as_secs_f64() < 90.0 {
            if t.as_secs_f64() >= 10.0 && sys.testbed.server.load() != LoadLevel::Pct100High {
                sys.testbed
                    .server
                    .gpu
                    .advance_to(SimTime::ZERO + SimDuration::from_secs(10));
                sys.testbed.server.set_load(LoadLevel::Pct100High);
            }
            let r = sys.infer(t);
            if shift_at.is_none() && t.as_secs_f64() > 10.0 && r.p > 36 {
                shift_at = Some(t.as_secs_f64() - 10.0);
            }
            if t.as_secs_f64() > 40.0 {
                mean_after.push(r.total.as_millis_f64());
            }
            t = t + r.total + SimDuration::from_millis(400);
        }
        rows.push(vec![
            format!("{period_s}"),
            shift_at.map_or("never".to_string(), |s| format!("{s:.1}")),
            format!(
                "{:.1}",
                mean_after.iter().sum::<f64>() / mean_after.len().max(1) as f64
            ),
        ]);
    }
    println!(
        "{}",
        text_table(&["period s", "shift latency s", "settled mean ms"], &rows)
    );
    println!("shorter periods react faster, as §V-A predicts; the settled quality is similar.\n");

    // ---- 3: download-term modelling -----------------------------------
    println!("[3] download term (s_n/B_d) on vs off — decisions and predicted latency:");
    let mut rows = Vec::new();
    for name in ["alexnet", "squeezenet", "resnet50"] {
        let graph = lp_models::by_name(name, 1).expect("model");
        let solver = PartitionSolver::new(&graph, &user, &edge);
        for mbps in [1.0, 8.0, 64.0] {
            let without = solver.decide(mbps, 1.0);
            let with = solver.decide_with_download(mbps, mbps, 1.0);
            rows.push(vec![
                name.to_string(),
                format!("{mbps:.0}"),
                format!("{}", without.p),
                format!("{}", with.p),
                format!("{:.1}", without.predicted.as_millis_f64()),
                format!("{:.1}", with.predicted.as_millis_f64()),
                format!("{:.2}", with.download.as_millis_f64()),
            ]);
        }
    }
    println!(
        "{}",
        text_table(
            &[
                "model",
                "Mbps",
                "p (no dl)",
                "p (dl)",
                "pred ms",
                "pred+dl ms",
                "dl ms"
            ],
            &rows
        )
    );
    println!("the download term shifts no decision: result tensors are ~4 KB, exactly why §IV drops it.\n");

    // ---- 4: probe vs passive-only bandwidth estimation ----------------
    println!(
        "[4] probe-based vs passive-only estimation after a bandwidth drop (8 -> 1 Mbps at t=5s):"
    );
    let link = Link::symmetric(BandwidthTrace::steps(&[(0.0, 8.0), (5.0, 1.0)]));
    let mut rows = Vec::new();
    for (label, use_probes) in [("probe + passive", true), ("passive only", false)] {
        let mut profiler = ProbeProfiler::new(8);
        let mut rng = StdRng::seed_from_u64(13);
        let mut converged_at = None;
        // Passive samples only arrive when an offload happens; model a
        // client uploading a 127 KiB tensor once per second, with probes
        // (if enabled) every second too.
        for step in 0..60u64 {
            let now = SimTime::ZERO + SimDuration::from_millis(1000 * step);
            if use_probes {
                let (_, _end) = profiler.probe(&link, now, &mut rng);
            }
            let bytes = 130_000;
            let end = link.upload_end(bytes, now, &mut rng);
            profiler.record_passive(bytes, now, end, link.latency);
            if converged_at.is_none() && now.as_secs_f64() > 5.0 {
                if let Some(est) = profiler.estimator.estimate_mbps() {
                    if est < 1.5 {
                        converged_at = Some(now.as_secs_f64() - 5.0);
                    }
                }
            }
        }
        rows.push(vec![
            label.to_string(),
            converged_at.map_or(">55".into(), |s| format!("{s:.0}")),
            format!("{:.2}", profiler.estimator.estimate_mbps().unwrap_or(0.0)),
        ]);
    }
    println!(
        "{}",
        text_table(&["estimator", "converged after s", "final est Mbps"], &rows)
    );
    println!("both converge (passive uploads dominate the window here); probes matter\nwhen the client is running locally and produces no passive samples.");
}

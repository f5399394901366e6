//! Figure 1: AlexNet end-to-end latency at every partition point, 8 Mbps
//! symmetric link, idle edge server.
//!
//! Each bar of the paper's figure becomes one row: device compute, network
//! transmission, server compute and the total. The paper's headline numbers
//! — partial offloading at MaxPool-2 beating full offloading by ~4x and
//! local inference by ~30% — are recomputed at the bottom.

use loadpart::{OffloadingSystem, Policy, SystemConfig, Testbed};
use lp_bench::{mean_ms, ms, standard_models, text_table};
use lp_graph::transmission_series;
use lp_hardware::{EDGE_SERVER_SPEC, USER_DEVICE_SPEC};
use lp_sim::{SimDuration, SimTime};

const RUNS_PER_POINT: usize = 12;

fn main() {
    println!("Table IV hardware calibration targets:");
    for spec in [EDGE_SERVER_SPEC, USER_DEVICE_SPEC] {
        println!("  {}:", spec.role);
        for (k, v) in spec.table_rows() {
            println!("    {k:9} {v}");
        }
    }
    println!();

    let (user, edge) = standard_models();
    let graph = lp_models::alexnet(1);
    let series = transmission_series(&graph);
    let n = graph.len();

    let mut rows = Vec::new();
    let mut totals = vec![0.0f64; n + 1];
    for p in 0..=n {
        let testbed = Testbed::with_constant_bandwidth(8.0, 11);
        let mut sys = OffloadingSystem::new(
            graph.clone(),
            Policy::Fixed(p),
            testbed,
            &user,
            &edge,
            SystemConfig::default(),
        );
        let mut t = SimTime::ZERO + SimDuration::from_millis(100);
        let mut device = Vec::new();
        let mut net = Vec::new();
        let mut server = Vec::new();
        let mut total = Vec::new();
        for _ in 0..RUNS_PER_POINT {
            let r = sys.infer(t);
            device.push(r.device);
            net.push(r.upload);
            server.push(r.server);
            total.push(r.total);
            t = t + r.total + SimDuration::from_millis(50);
        }
        totals[p] = mean_ms(&total);
        let label = if p == 0 {
            "input (full offload)".to_string()
        } else if p == n {
            format!("{} (local)", graph.nodes()[p - 1].name)
        } else {
            graph.nodes()[p - 1].name.clone()
        };
        rows.push(vec![
            p.to_string(),
            label,
            format!("{:.0}", series[p] as f64 / 1024.0),
            ms(mean_ms(&device)),
            ms(mean_ms(&net)),
            ms(mean_ms(&server)),
            ms(totals[p]),
        ]);
    }
    println!(
        "{}",
        text_table(
            &[
                "p",
                "partition after",
                "upload KiB",
                "device ms",
                "network ms",
                "server ms",
                "total ms"
            ],
            &rows
        )
    );

    let best = (0..=n)
        .min_by(|&a, &b| totals[a].partial_cmp(&totals[b]).expect("finite"))
        .expect("non-empty");
    println!(
        "best partition point: p = {best} ({})",
        if best == 0 {
            "full offloading".to_string()
        } else if best == n {
            "local inference".to_string()
        } else {
            graph.nodes()[best - 1].name.clone()
        }
    );
    println!(
        "vs full offloading (p=0):  {:.2}x faster (paper: up to 4x)",
        totals[0] / totals[best]
    );
    println!(
        "vs local inference (p={n}): {:.0}% lower (paper: ~30%)",
        100.0 * (1.0 - totals[best] / totals[n])
    );
}

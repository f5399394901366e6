//! Quickstart: the end-to-end LoADPart workflow on AlexNet.
//!
//! 1. Build a DNN computation graph from the model zoo.
//! 2. Run the offline profiler: train the per-node-kind NNLS
//!    inference-time prediction models for both platforms.
//! 3. Ask Algorithm 1 for the optimal partition point under a given
//!    bandwidth and server-load factor.
//! 4. Materialise the partition (Figure 5 segment extraction) and run one
//!    simulated offloaded inference.
//!
//! Run with: `cargo run --example quickstart`

use loadpart::{OffloadingSystem, PartitionSolver, Policy, SystemConfig, Testbed};
use lp_graph::partition::partition_at;
use lp_sim::{SimDuration, SimTime};

fn main() {
    // 1. The DNN.
    let graph = lp_models::alexnet(1);
    println!(
        "model: {} ({} computation nodes, input {})",
        graph.name(),
        graph.len(),
        graph.input()
    );

    // 2. Offline profiling (small sample budget to keep the example quick).
    println!("training prediction models (offline profiler)...");
    let (user_models, edge_models) = loadpart::system::trained_models(200, 42);

    // 3. Partition decisions across conditions.
    let solver = PartitionSolver::new(&graph, &user_models, &edge_models);
    println!("\nAlgorithm 1 decisions:");
    for (mbps, k) in [(64.0, 1.0), (8.0, 1.0), (8.0, 20.0), (1.0, 1.0)] {
        let d = solver.decide(mbps, k);
        println!(
            "  {mbps:>4} Mbps, k={k:<4}: p = {:>2}/{} predicted {:>6.1} ms \
             (device {:.1} + upload {:.1} + server {:.1})",
            d.p,
            graph.len(),
            d.predicted.as_millis_f64(),
            d.device.as_millis_f64(),
            d.upload.as_millis_f64(),
            d.server.as_millis_f64(),
        );
    }

    // 4. Materialise one partition and run a simulated inference.
    let d = solver.decide(8.0, 1.0);
    let partition = partition_at(&graph, d.p).expect("p in range");
    if let Some(device_side) = &partition.device {
        println!(
            "\ndevice-side subgraph: {} nodes, {} parameter(s), uploads {} KiB{}",
            device_side.nodes.len(),
            device_side.parameters.len(),
            partition.upload_bytes(&graph) / 1024,
            if device_side.needs_make_tuple() {
                " via MakeTuple"
            } else {
                ""
            }
        );
    }

    let testbed = Testbed::with_constant_bandwidth(8.0, 7);
    let mut system = OffloadingSystem::new(
        graph,
        Policy::LoadPart,
        testbed,
        &user_models,
        &edge_models,
        SystemConfig::default(),
    );
    let record = system.infer(SimTime::ZERO + SimDuration::from_millis(100));
    println!(
        "\none simulated inference at 8 Mbps: p = {}, measured {:.1} ms \
         (device {:.1} + upload {:.1} + server {:.1})",
        record.p,
        record.total.as_millis_f64(),
        record.device.as_millis_f64(),
        record.upload.as_millis_f64(),
        record.server.as_millis_f64(),
    );
}

//! The §III-A partition cache: cold extraction cost vs a cached lookup
//! (the paper amortises the former to ~1% of inference time over 100
//! requests). The cache keeps only the device side `L_1..L_p`, so an
//! engine's miss is `device_miss`: a fresh cache's first lookup, at
//! `p = n/3` of each network and at InceptionV3's `p = 0`. The last is the
//! co-simulation's miss (each `cosim_shared_gpu` client's engine decides
//! `p = 0` and looks it up once per episode), which extracts nothing.
//! `cold_partition` extracts both sides with `partition_at`, as the cache
//! did before it kept only the device side; `cold_partition_p0` is that
//! two-sided reference at InceptionV3's `p = 0`, where all 314 nodes are
//! the server side.

use loadpart::PartitionCache;
use lp_bench::timing::{bench, group};
use lp_graph::partition::partition_at;
use lp_graph::ComputationGraph;
use std::hint::black_box;

/// One engine miss: a fresh cache's first lookup of `p`.
fn device_miss(label: &str, graph: &ComputationGraph, p: usize) {
    bench(label, || {
        black_box(
            PartitionCache::new()
                .get_or_extract(black_box(graph), p)
                .expect("valid p"),
        )
    });
}

fn main() {
    group("partition_cache");
    for name in ["alexnet", "resnet152"] {
        let graph = lp_models::by_name(name, 1).expect("model");
        let p = graph.len() / 3;

        bench(&format!("cold_partition/{}", graph.len()), || {
            black_box(partition_at(black_box(&graph), p).expect("valid p"))
        });
        device_miss(&format!("device_miss/{}", graph.len()), &graph, p);

        let cache = PartitionCache::new();
        cache.get_or_extract(&graph, p).expect("valid p");
        bench(&format!("warm_lookup/{}", graph.len()), || {
            black_box(cache.get_or_extract(black_box(&graph), p).expect("valid p"))
        });
    }

    let graph = lp_models::inception_v3(1);
    let n = graph.len();
    bench(&format!("cold_partition_p0/inception_v3_{n}"), || {
        black_box(partition_at(black_box(&graph), 0).expect("valid p"))
    });
    device_miss(&format!("device_miss_p0/inception_v3_{n}"), &graph, 0);
    device_miss(&format!("device_miss/inception_v3_{n}"), &graph, n / 3);
}

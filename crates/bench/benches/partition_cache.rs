//! The §III-A partition cache: cold partitioning cost vs a cached lookup
//! (the paper amortises the former to ~1% of inference time over 100
//! requests). `cold_partition_p0/inception_v3_314` is the co-simulation's
//! partition-cache miss: each `cosim_shared_gpu` client's engine decides
//! `p = 0` and, once per episode, extracts all of InceptionV3 as the
//! server side.

use loadpart::PartitionCache;
use lp_bench::timing::{bench, group};
use lp_graph::partition::partition_at;
use std::hint::black_box;

fn main() {
    group("partition_cache");
    for name in ["alexnet", "resnet152"] {
        let graph = lp_models::by_name(name, 1).expect("model");
        let p = graph.len() / 3;

        bench(&format!("cold_partition/{}", graph.len()), || {
            black_box(partition_at(black_box(&graph), p).expect("valid p"))
        });

        let cache = PartitionCache::new();
        cache.get_or_partition(&graph, p).expect("valid p");
        bench(&format!("warm_lookup/{}", graph.len()), || {
            black_box(
                cache
                    .get_or_partition(black_box(&graph), p)
                    .expect("valid p"),
            )
        });
    }

    let graph = lp_models::inception_v3(1);
    bench(
        &format!("cold_partition_p0/inception_v3_{}", graph.len()),
        || black_box(partition_at(black_box(&graph), 0).expect("valid p")),
    );
}

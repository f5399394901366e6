//! The co-simulation's kernel-noise draws (lp-sim's `lognormal_factor`,
//! lp-hardware's `NodeTimes` batch draws). `node_times_sample_into` draws
//! all 314 of InceptionV3's GPU kernels from the edge node-time table into
//! a reused buffer, as a co-simulated suffix at p = 0 does;
//! `node_times_sample_sum` draws the same 314 and returns their total, as
//! a device prefix does. `lognormal_factor` makes the same 314 draws one
//! at a time at the GPU model's sigma, without the table. The gap between
//! the batch paths and the bare draws is the per-node scaling and
//! rounding to nanoseconds, less what drawing a chunk's N(0, 1)s before
//! their `exp`s saves.

use lp_bench::timing::{bench, group};
use lp_hardware::GpuModel;
use lp_sim::{lognormal_factor, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn main() {
    group("noise_draws");
    let graph = lp_models::inception_v3(1);
    let model = GpuModel::default();
    let times = model.node_times(&graph);
    let n = times.len();
    let mut rng = StdRng::seed_from_u64(7);
    let mut kernels: Vec<SimDuration> = Vec::with_capacity(n);
    bench(&format!("node_times_sample_into/inception_v3_{n}"), || {
        times.sample_into(0..n, &mut rng, &mut kernels);
        kernels[n - 1]
    });
    bench(&format!("node_times_sample_sum/inception_v3_{n}"), || {
        times.sample_sum(0..n, &mut rng)
    });
    bench(&format!("lognormal_factor/x{n}"), || {
        (0..n)
            .map(|_| lognormal_factor(&mut rng, black_box(model.noise_sigma)))
            .sum::<f64>()
    });
}

//! The co-simulation's kernel-noise draws (lp-sim's `lognormal_factor`,
//! lp-hardware's `NodeTimes::sample`). `node_times_sample` draws all 314
//! of InceptionV3's GPU kernels from the edge node-time table, as a
//! co-simulated suffix at p = 0 does; `lognormal_factor` makes the same
//! 314 draws at the GPU model's sigma without the table. The gap between
//! them is the per-node scaling and rounding to nanoseconds.

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
    bench(&format!("node_times_sample/inception_v3_{n}"), || {
        times.sample(0..n, &mut rng).sum::<SimDuration>()
    });
    bench(&format!("lognormal_factor/x{n}"), || {
        (0..n)
            .map(|_| lognormal_factor(&mut rng, black_box(model.noise_sigma)))
            .sum::<f64>()
    });
}

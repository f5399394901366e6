//! The co-simulation's kernel-noise draws (lp-sim's `lognormal_factor`
//! and batch core `lognormal_durations`, lp-hardware's `NodeTimes`).
//! `node_times_sample_into` draws all 314 of InceptionV3's GPU kernels
//! from the edge node-time table into a reused buffer, as a co-simulated
//! suffix at p = 0 does; `node_times_sample_sum` draws the same 314 and
//! returns their total, as a device prefix does. Both go through the batch
//! core: every N(0, 1) of a chunk, then one vectorised pass of inline
//! `exp`, scaling and rounding. `lognormal_factor` makes the same 314
//! draws one at a time at the GPU model's sigma, each through libm's
//! `exp`, and neither scales nor rounds them. `libm_exp` is libm's `exp`
//! alone over 314 values of `σz`: the share of the one-at-a-time draw that
//! the batch core's inline `exp` replaces.

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
    // The logs of 314 factors: the σz values whose `exp` a draw takes.
    let exponents: Vec<f64> = (0..n)
        .map(|_| lognormal_factor(&mut rng, model.noise_sigma).ln())
        .collect();
    bench(&format!("libm_exp/x{n}"), || {
        black_box(&exponents).iter().map(|&t| t.exp()).sum::<f64>()
    });
}

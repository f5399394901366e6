//! The GPU simulator's stepping cost (`GpuSim`, §II/§III-C): eight
//! contexts each queue one InceptionV3 suffix — all 314 kernels,
//! noise-free — and the simulator runs until all eight finish, on an idle
//! GPU and under the paper's 100%(h) background load (seven storm
//! processes and the per-kernel launch tax). One iteration is one such
//! round, so the figure is the simulator's own cost for 8 × 314
//! foreground kernels plus whatever background kernels interleave. Each
//! suffix refills its context's recycled kernel buffer, as a co-simulated
//! client's does, and under 100%(h) each background fire refills its
//! generator's: after the first rounds neither allocates.

use loadpart::system::EdgeServer;
use lp_bench::timing::{bench, group};
use lp_hardware::{GpuModel, LoadLevel};
use std::hint::black_box;

fn main() {
    group("gpu_sim");
    let graph = lp_models::inception_v3(1);
    let kernels = GpuModel::default().kernel_sequence(&graph, 1, graph.len());
    for (label, level) in [("idle", LoadLevel::Idle), ("100h", LoadLevel::Pct100High)] {
        let mut server = EdgeServer::new(7);
        server.set_load(level);
        let contexts: [usize; 8] = std::array::from_fn(|_| server.gpu.add_context());
        bench(&format!("inception_v3_x8/{label}"), || {
            let now = server.gpu.now();
            let tasks = contexts.map(|ctx| {
                let mut suffix = server.gpu.kernel_buffer(ctx);
                suffix.extend_from_slice(black_box(&kernels));
                server.gpu.submit(ctx, now, suffix)
            });
            for task in tasks {
                server.gpu.run_until_complete(task);
            }
            server.gpu.now()
        });
    }
}

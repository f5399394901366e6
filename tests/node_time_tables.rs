//! The co-simulation samples per-graph node-time tables instead of the
//! latency models. These tests pin that the swap is invisible: over every
//! zoo network and seeded random node ranges, a table draws exactly the
//! durations the per-node `sample` loop over the model draws, and leaves
//! the RNG in exactly the same state — so every co-simulated record stays
//! bit-identical. A last test pins one suffix's draws to recorded
//! nanoseconds, so a change to how a draw is converted or rounded fails
//! by name.

use lp_graph::{ComputationGraph, NodeKind};
use lp_hardware::{DeviceModel, GpuModel, NodeTimes};
use lp_sim::SimDuration;
use lp_tensor::TensorDesc;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Random ranges drawn per network, besides the empty, prefix-only and
/// full ones.
const RANGES: usize = 24;

/// The reference: one `model.sample` per node of `from..to`, in
/// topological order — what the backends drew before the tables.
fn per_node_loop(
    graph: &ComputationGraph,
    from: usize,
    to: usize,
    rng: &mut StdRng,
    sample: impl Fn(&NodeKind, &TensorDesc, &TensorDesc, &mut StdRng) -> SimDuration,
) -> Vec<SimDuration> {
    graph.nodes()[from..to]
        .iter()
        .map(|node| {
            sample(
                &node.kind,
                graph.value_desc(node.inputs[0]),
                &node.output,
                rng,
            )
        })
        .collect()
}

/// Samples `from..to` from the table and from the reference loop with the
/// same seed, and checks both the draws and the RNGs they leave behind.
fn assert_same_draws(
    graph: &ComputationGraph,
    table: &NodeTimes,
    (from, to): (usize, usize),
    seed: u64,
    sample: impl Fn(&NodeKind, &TensorDesc, &TensorDesc, &mut StdRng) -> SimDuration,
) {
    let mut by_model = StdRng::seed_from_u64(seed);
    let want = per_node_loop(graph, from, to, &mut by_model, sample);
    let mut by_table = StdRng::seed_from_u64(seed);
    let got: Vec<SimDuration> = table.sample(from..to, &mut by_table).collect();
    assert_eq!(got, want, "{} nodes {from}..{to}", graph.name());
    assert_eq!(
        by_table,
        by_model,
        "{} nodes {from}..{to}: RNG state diverged",
        graph.name()
    );
}

fn ranges(n: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut out = vec![(0, 0), (0, n), (0, n / 2), (n / 2, n)];
    for _ in 0..RANGES {
        let from = rng.gen_range(0..=n);
        out.push((from, rng.gen_range(from..=n)));
    }
    out
}

#[test]
fn table_sampling_replays_the_per_node_model_loop() {
    let mut cases = StdRng::seed_from_u64(0x7AB1E);
    // The calibrated models, plus noise-free ones: with sigma 0 neither
    // path may draw from the RNG at all.
    let devices = [
        DeviceModel::default(),
        DeviceModel {
            noise_sigma: 0.0,
            ..DeviceModel::default()
        },
    ];
    let gpus = [
        GpuModel::default(),
        GpuModel {
            noise_sigma: 0.0,
            ..GpuModel::default()
        },
    ];
    for graph in lp_models::full_zoo(1) {
        for (device, gpu) in devices.iter().zip(&gpus) {
            let device_times = device.node_times(&graph);
            let kernel_times = gpu.node_times(&graph);
            assert_eq!(device_times.len(), graph.len());
            assert_eq!(kernel_times.len(), graph.len());
            for range in ranges(graph.len(), &mut cases) {
                let seed = cases.gen_range(0..u64::MAX);
                assert_same_draws(&graph, &device_times, range, seed, |k, i, o, rng| {
                    device.sample(k, i, o, rng)
                });
                assert_same_draws(&graph, &kernel_times, range, seed, |k, i, o, rng| {
                    gpu.sample(k, i, o, rng)
                });
            }
        }
    }
}

/// All 314 of InceptionV3's GPU-kernel draws at `p = 0`, as a co-simulated
/// suffix makes them, from one fixed noise seed. Selected draws, their
/// total and the stream's next word are recorded values: a change to how
/// a draw is converted, scaled or rounded moves them, and with them every
/// co-simulated record. Draws 26 and 45 leave the ziggurat's fast path
/// (three words each), 70 and 238 pass its wedge test (two words each), so
/// the stream is 320 words long.
#[test]
fn inception_v3_suffix_draws_keep_their_recorded_nanoseconds() {
    let graph = lp_models::inception_v3(1);
    let table = GpuModel::default().node_times(&graph);
    assert_eq!(table.len(), 314);
    let mut noise = StdRng::seed_from_u64(0x5EED);
    let ns: Vec<u64> = table
        .sample(0..table.len(), &mut noise)
        .map(SimDuration::as_nanos)
        .collect();
    let recorded = [
        (0, 45_997),
        (3, 259_887),
        (26, 88_273),
        (45, 22_218),
        (70, 24_070),
        (238, 20_960),
        (313, 20_267),
    ];
    for (i, want) in recorded {
        assert_eq!(ns[i], want, "kernel draw {i}");
    }
    assert_eq!(ns.iter().sum::<u64>(), 39_874_447, "total of the 314 draws");
    assert_eq!(noise.next_u64(), 0xb432_00f7_4b49_0a87, "words consumed");
}

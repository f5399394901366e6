//! The co-simulation samples per-graph node-time tables instead of the
//! latency models, in batches. These tests pin that the swap is
//! invisible: over every zoo network and seeded node ranges, both batch
//! entry points — `sample_into`, which fills a caller's buffer, and
//! `sample_sum` — give exactly what the per-node `sample` loop over the
//! model draws, and leave the RNG in exactly the same state, so every
//! co-simulated record stays bit-identical. The ranges include every
//! length around a chunk boundary. A last test pins one suffix's draws to
//! recorded nanoseconds, so a change to how a draw is converted or rounded
//! fails by name.

use lp_graph::{ComputationGraph, NodeKind};
use lp_hardware::{DeviceModel, GpuModel, NodeTimes};
use lp_sim::SimDuration;
use lp_tensor::TensorDesc;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Random ranges drawn per network, besides the fixed ones.
const RANGES: usize = 24;

/// Seeds drawn per range.
const SEEDS: usize = 3;

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

/// Samples `from..to` by the reference loop and by both batch entry
/// points, each from a fresh RNG of the same seed, and checks the draws
/// and the RNGs they leave behind. `buffer` is the caller's, reused from
/// call to call: it holds the previous range's draws and more capacity
/// than any range needs, which the fill must overwrite and keep. A
/// `noise_free` table must leave its RNG untouched.
fn assert_same_draws(
    graph: &ComputationGraph,
    table: &NodeTimes,
    (from, to): (usize, usize),
    seed: u64,
    buffer: &mut Vec<SimDuration>,
    noise_free: bool,
    sample: impl Fn(&NodeKind, &TensorDesc, &TensorDesc, &mut StdRng) -> SimDuration,
) {
    let name = graph.name();
    let mut by_model = StdRng::seed_from_u64(seed);
    let want = per_node_loop(graph, from, to, &mut by_model, sample);
    if noise_free {
        assert_eq!(
            by_model,
            StdRng::seed_from_u64(seed),
            "{name}: sigma 0 drew"
        );
    }

    let capacity = buffer.capacity();
    let mut by_fill = StdRng::seed_from_u64(seed);
    table.sample_into(from..to, &mut by_fill, buffer);
    assert_eq!(*buffer, want, "{name} nodes {from}..{to}: filled draws");
    assert_eq!(buffer.capacity(), capacity, "{name}: the fill reallocated");
    assert_eq!(by_fill, by_model, "{name} nodes {from}..{to}: fill's RNG");

    let mut by_sum = StdRng::seed_from_u64(seed);
    let total = table.sample_sum(from..to, &mut by_sum);
    assert_eq!(
        total,
        want.iter().copied().sum(),
        "{name} nodes {from}..{to}: sum"
    );
    assert_eq!(by_sum, by_model, "{name} nodes {from}..{to}: sum's RNG");
}

/// The fixed ranges (empty, whole, halves), every length around a chunk
/// boundary from the start and from a random offset, and `RANGES` random
/// ones.
fn ranges(n: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut out = vec![(0, 0), (0, n), (0, n / 2), (n / 2, n)];
    let chunk = NodeTimes::CHUNK;
    for len in [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, n] {
        let len = len.min(n);
        let from = rng.gen_range(0..=n - len);
        out.extend([(0, len), (from, from + len), (n - len, n)]);
    }
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
        // Stale values and spare capacity from the start.
        let mut buffer = vec![SimDuration::from_nanos(u64::MAX); graph.len() + 1];
        for (device, gpu) in devices.iter().zip(&gpus) {
            let device_times = device.node_times(&graph);
            let kernel_times = gpu.node_times(&graph);
            assert_eq!(device_times.len(), graph.len());
            assert_eq!(kernel_times.len(), graph.len());
            for range in ranges(graph.len(), &mut cases) {
                // Several seeds per range.
                for _ in 0..SEEDS {
                    let seed = cases.gen_range(0..u64::MAX);
                    assert_same_draws(
                        &graph,
                        &device_times,
                        range,
                        seed,
                        &mut buffer,
                        device.noise_sigma == 0.0,
                        |k, i, o, rng| device.sample(k, i, o, rng),
                    );
                    assert_same_draws(
                        &graph,
                        &kernel_times,
                        range,
                        seed,
                        &mut buffer,
                        gpu.noise_sigma == 0.0,
                        |k, i, o, rng| gpu.sample(k, i, o, rng),
                    );
                }
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
    let mut kernels = Vec::new();
    table.sample_into(0..table.len(), &mut noise, &mut kernels);
    let ns: Vec<u64> = kernels.into_iter().map(SimDuration::as_nanos).collect();
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

//! Per-layer figures taken after the timed phase by calling the layers'
//! public functions on the inputs the run recorded.

use crate::check::Counts;
use crate::stats::{ratio, Inputs};
use loadpart::{
    dequantize_into, quantize_into, Frame, Message, PartitionPolicy, PartitionSolver,
    PolicyContext, Precision,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each timed replay loop runs at least this long.
const MIN_REPLAY: Duration = Duration::from_millis(5);

/// Mean wall time, in µs, of one `PartitionPolicy::decide` of the bare
/// policy (no memo) over the recorded `(bandwidth, k)` inputs, each
/// weighted by how often it occurred.
#[must_use]
pub fn decide_us_mean(
    solver: &PartitionSolver,
    inputs: &HashMap<(u64, u64), u64>,
    mut policy: Box<dyn PartitionPolicy>,
) -> f64 {
    let mut inputs: Vec<(&(u64, u64), &u64)> = inputs.iter().collect();
    inputs.sort_unstable();
    // Together the inputs are timed for at least MIN_REPLAY, each for at
    // least three calls.
    let per_input = MIN_REPLAY / u32::try_from(inputs.len().max(1)).unwrap_or(u32::MAX);
    let (mut total_us, mut weight) = (0.0, 0u64);
    for (&(bandwidth, k), &count) in inputs {
        let ctx = PolicyContext {
            solver,
            bandwidth_mbps: f64::from_bits(bandwidth),
            k: f64::from_bits(k),
            now: lp_sim::SimTime::ZERO,
        };
        let mut calls = 0u64;
        let start = Instant::now();
        while calls < 3 || start.elapsed() < per_input {
            black_box(policy.decide(black_box(&ctx)));
            calls += 1;
        }
        total_us += start.elapsed().as_secs_f64() * 1e6 / calls as f64 * count as f64;
        weight += count;
    }
    ratio(total_us, weight as f64)
}

/// Mean ns per frame to decode the sampled frames and to encode the
/// decoded messages again.
#[must_use]
pub fn codec_ns_per_frame(frames: &[Frame]) -> (f64, f64) {
    let messages: Vec<Message> = frames
        .iter()
        .filter_map(|f| Message::decode_frame(f.clone()).ok())
        .collect();
    if messages.is_empty() {
        return (0.0, 0.0);
    }
    let time = |op: &mut dyn FnMut()| {
        let mut rounds = 0u64;
        let start = Instant::now();
        while rounds == 0 || start.elapsed() < MIN_REPLAY {
            op();
            rounds += 1;
        }
        start.elapsed().as_secs_f64() * 1e9 / (rounds * messages.len() as u64) as f64
    };
    let encode = time(&mut || {
        for m in &messages {
            black_box(m.to_frame().expect("a decoded message re-encodes"));
        }
    });
    let decode = time(&mut || {
        for f in frames {
            black_box(Message::decode_frame(black_box(f.clone())).ok());
        }
    });
    (encode, decode)
}

/// The cost of running the quantization kernels on the recorded uploads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// `quantize_into` + `dequantize_into` time summed over every narrow
    /// upload, µs.
    pub total_us: f64,
    /// Modeled upload time the narrow uploads saved at their recorded
    /// bandwidth, s.
    pub saved_s: f64,
}

/// Times `quantize_into` + `dequantize_into` at each recorded narrow
/// (element count, precision), weighted by how often it occurred.
#[must_use]
pub fn quant_kernels(counts: &Counts) -> KernelCost {
    let mut total_us = 0.0;
    let mut tensor = Inputs::new(0x7E45_0C0D, 0);
    for (&(numel, wire), &count) in &counts.kernels {
        let precision = Precision::from_wire(wire).expect("recorded precision");
        let values: Vec<f32> = (0..numel)
            .map(|_| tensor.unit() as f32 * 2.0 - 1.0)
            .collect();
        let (mut packed, mut restored) = (Vec::new(), Vec::new());
        let mut reps = 0u64;
        let start = Instant::now();
        while reps < 3 || start.elapsed() < MIN_REPLAY {
            quantize_into(black_box(&values), precision, &mut packed);
            dequantize_into(&packed, precision, numel as usize, &mut restored)
                .expect("a packed payload round-trips");
            black_box(&restored);
            reps += 1;
        }
        total_us += start.elapsed().as_secs_f64() * 1e6 / reps as f64 * count as f64;
    }
    KernelCost {
        total_us,
        saved_s: counts.saved_s,
    }
}

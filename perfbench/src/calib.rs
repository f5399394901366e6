//! Host speed calibration.
//!
//! The machines this benchmark runs on are shared: the speed the host
//! gives one thread drifts by ±20% over tens of seconds, which no run
//! length averages out. So the timed phase is cut into slices, and
//! between slices, while the program is idle, the benchmark times a fixed
//! reference computation of its own (sorting a seeded buffer). Each
//! slice's times are scaled by `REFERENCE_MS` over the reference time
//! measured around that slice: a timing metric then reads what it would
//! on a host that runs the reference in `REFERENCE_MS`. The program under
//! test never runs during a calibration, so it cannot move the scale.

use crate::stats::{sort, Inputs};
use std::hint::black_box;
use std::time::Instant;

/// Wall time of one reference computation at the nominal host speed,
/// ms. A constant: it only sets the scale the timing metrics are read in.
pub const REFERENCE_MS: f64 = 0.7;

/// Elements of the reference buffer (256 KiB of `u64`).
const ELEMENTS: usize = 1 << 15;

/// Reference computations per calibration; the fastest one counts, so a
/// preemption during one does not read as a slow host.
const ROUNDS: usize = 5;

/// Times the reference computation and returns the host's speed relative
/// to nominal (above 1 on a host faster than nominal).
#[derive(Debug)]
pub struct Calibrator {
    buffer: Vec<u64>,
    inputs: Inputs,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator with its buffer allocated.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buffer: vec![0; ELEMENTS],
            inputs: Inputs::new(0xCA11_B8A7, 0),
        }
    }

    /// Runs the reference `ROUNDS` times; the host speed from the fastest.
    pub fn speed(&mut self) -> f64 {
        let mut times: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                for x in &mut self.buffer {
                    *x = self.inputs.next_u64();
                }
                let start = Instant::now();
                self.buffer.sort_unstable();
                black_box(&self.buffer);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        sort(&mut times);
        REFERENCE_MS / times[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_finite() {
        let s = Calibrator::new().speed();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}

//! Order statistics and the seeded input generator.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice; 0 for
/// an empty one.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending in place (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Mean, or 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A splitmix64 stream: every workload input is drawn from one, seeded
/// from `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    state: u64,
}

impl Inputs {
    /// The stream for `seed`, split by `stream` (one per session).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = Self {
            state: seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        s.next_u64();
        s
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        loadpart::engine::splitmix64(&mut self.state)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A log-uniform draw from `points` log-spaced values spanning
    /// `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64, points: u64) -> f64 {
        let i = self.next_u64() % points;
        lo * (hi / lo).powf(i as f64 / (points - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed, stream| {
            let mut s = Inputs::new(seed, stream);
            (0..4)
                .map(|_| s.log_uniform(0.5, 64.0, 1024))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert!(draw(3, 2).iter().all(|&b| (0.5..=64.0).contains(&b)));
        let mut s = Inputs::new(4, 0);
        assert_eq!(s.log_uniform(2.0, 2.0, 2), 2.0);
    }
}

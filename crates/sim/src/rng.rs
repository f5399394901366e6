//! Seeded randomness helpers for the simulators.

use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// Samples a multiplicative noise factor from a log-normal distribution
/// with **median 1.0** and log-space standard deviation `sigma`.
///
/// Measurement noise in execution times is multiplicative (a 10% wobble on
/// a 10 µs kernel and on a 10 ms layer alike), which is exactly what the
/// paper's profiler has to cope with. `sigma = 0` returns exactly 1.0.
///
/// Draws its N(0, 1) with a 256-layer ziggurat (Marsaglia & Tsang, J. Stat.
/// Softw. 5(8), 2000), so we do not need `rand_distr`: almost every draw
/// costs one `next_u64`, one table compare and the `exp` of the result.
#[must_use]
#[inline]
pub fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    (sigma * standard_normal(rng)).exp()
}

/// Fills `factors` with one [`lognormal_factor`] per slot, in order and
/// from the same RNG words, in two passes: every N(0, 1) first, then
/// their `exp`s back to back, rather than each `exp` between two
/// ziggurat draws. `sigma = 0` fills 1.0 and draws nothing.
#[inline]
pub fn lognormal_factors<R: Rng + ?Sized>(rng: &mut R, sigma: f64, factors: &mut [f64]) {
    if sigma <= 0.0 {
        factors.fill(1.0);
        return;
    }
    for z in factors.iter_mut() {
        *z = standard_normal(rng);
    }
    for f in factors.iter_mut() {
        *f = (sigma * *f).exp();
    }
}

/// Right edge of the ziggurat's base layer; beyond it lies the tail.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of each of the 256 layers under the unnormalised density
/// `exp(-x²/2)`: `R·f(R)` plus the tail's `√(π/2)·erfc(R/√2)`.
const ZIG_V: f64 = 4.928_673_233_974_658e-3;

/// The ziggurat's layer edges `x` (`x[0]` the base layer's virtual width
/// `V/f(R)`, `x[1] = R`, `x[256] = 0`) and the density `f = exp(-x²/2)` at
/// each edge. Layer `i` spans `[0, x[i])` between heights `f[i]` and
/// `f[i + 1]`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

impl Ziggurat {
    #[inline]
    fn get() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let density = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0; 257];
            x[0] = ZIG_V / density(ZIG_R);
            x[1] = ZIG_R;
            for i in 1..255 {
                x[i + 1] = (-2.0 * (ZIG_V / x[i] + density(x[i])).ln()).sqrt();
            }
            Ziggurat {
                f: x.map(density),
                x,
            }
        })
    }
}

/// Uniform in the open interval (0, 1) from 53 random bits.
#[inline]
fn open_unit<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (bits_53(rng.next_u64()) + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// The top 53 bits of `bits` as an `f64`, exactly. They fit an `i64`, so
/// the conversion goes through the signed cast: one instruction on
/// x86-64 without AVX-512, where `u64 as f64` is a multi-instruction
/// sequence. Both give the same value.
#[inline]
fn bits_53(bits: u64) -> f64 {
    ((bits >> 11) as i64) as f64
}

/// One N(0, 1) draw by the ziggurat. The low 8 bits of one `next_u64`
/// pick a layer and the top 53 a signed position in it; a position inside
/// the next layer's width lies under the density and is returned at once
/// (98.5% of draws). Otherwise the base layer samples the tail beyond `R`
/// (Marsaglia's exponential method), any other layer tests its wedge, and
/// a rejected point starts over.
#[inline]
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let zig = Ziggurat::get();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // 53 bits -> [0, 2) exactly, shifted to [-1, 1).
        let u = bits_53(bits) * (1.0 / (1u64 << 52) as f64) - 1.0;
        let x = u * zig.x[i];
        if x.abs() < zig.x[i + 1] {
            return x;
        }
        if i == 0 {
            loop {
                let tail = -open_unit(rng).ln() / ZIG_R;
                let y = -open_unit(rng).ln();
                if 2.0 * y > tail * tail {
                    return (ZIG_R + tail).copysign(u);
                }
            }
        }
        let height = zig.f[i] + (zig.f[i + 1] - zig.f[i]) * open_unit(rng);
        if height < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// Samples uniformly from an inclusive integer range.
///
/// # Panics
///
/// Panics if `lo > hi`.
#[must_use]
pub fn uniform_in<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    assert!(lo <= hi, "empty range");
    rng.gen_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The Box–Muller N(0, 1) the ziggurat replaced: the reference its
    /// distribution is tested against.
    fn box_muller(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn draws(seed: u64, n: usize, draw: fn(&mut StdRng) -> f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| draw(&mut rng)).collect()
    }

    #[test]
    fn zero_sigma_is_exactly_one() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(lognormal_factor(&mut rng, 0.0), 1.0);
        }
    }

    #[test]
    fn batch_factors_equal_single_draws_word_for_word() {
        for (seed, len, sigma) in [(4, 0, 0.3), (5, 1, 0.3), (6, 333, 0.3), (7, 64, 0.0)] {
            let mut single = StdRng::seed_from_u64(seed);
            let want: Vec<f64> = (0..len)
                .map(|_| lognormal_factor(&mut single, sigma))
                .collect();
            let mut batch = StdRng::seed_from_u64(seed);
            let mut got = vec![f64::NAN; len];
            lognormal_factors(&mut batch, sigma, &mut got);
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(batch, single, "seed {seed}: RNG state diverged");
        }
    }

    #[test]
    fn median_is_near_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples: Vec<f64> = (0..20_001)
            .map(|_| lognormal_factor(&mut rng, 0.3))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median={median}");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn log_std_matches_sigma() {
        let mut rng = StdRng::seed_from_u64(2);
        let sigma = 0.25;
        let logs: Vec<f64> = (0..20_000)
            .map(|_| lognormal_factor(&mut rng, sigma).ln())
            .collect();
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / logs.len() as f64;
        assert!((var.sqrt() - sigma).abs() < 0.02, "std={}", var.sqrt());
    }

    #[test]
    fn ziggurat_layers_close_at_the_top() {
        let zig = Ziggurat::get();
        // Every layer has area V, the top one included: the recursion
        // from R lands on a last edge whose layer up to f(0) = 1 has the
        // same area.
        let top = zig.x[255] * (1.0 - zig.f[255]);
        assert!((top / ZIG_V - 1.0).abs() < 1e-9, "top layer area {top}");
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        assert_eq!((zig.x[256], zig.f[256]), (0.0, 1.0));
    }

    #[test]
    fn ziggurat_matches_box_muller_by_two_sample_ks() {
        let n = 200_000;
        let mut zig = draws(11, n, standard_normal);
        let mut reference = draws(12, n, box_muller);
        zig.sort_by(f64::total_cmp);
        reference.sort_by(f64::total_cmp);
        // Largest gap between the two empirical CDFs, over merged points.
        let (mut a, mut b, mut d) = (0usize, 0usize, 0.0f64);
        while a < n && b < n {
            if zig[a] <= reference[b] {
                a += 1;
            } else {
                b += 1;
            }
            d = d.max((a as f64 - b as f64).abs() / n as f64);
        }
        // Critical value at alpha = 0.05 for two samples of n.
        let critical = 1.358 * (2.0 / n as f64).sqrt();
        assert!(d < critical, "KS D = {d:.5}, critical {critical:.5}");
    }

    #[test]
    fn ziggurat_tail_fires_at_its_rate_and_moments_are_normal() {
        let n = 1_000_000;
        let z = draws(13, n, standard_normal);
        let nf = n as f64;
        // P(|z| > R) = erfc(R/√2) = 2.58e-4: about 258 draws, sd 16.
        let tail: Vec<f64> = z
            .iter()
            .map(|x| x.abs() - ZIG_R)
            .filter(|&e| e > 0.0)
            .collect();
        assert!(
            (200..=320).contains(&tail.len()),
            "tail draws {}",
            tail.len()
        );
        // Past R the normal's mean excess is φ(R)/(1 − Φ(R)) − R = 0.245,
        // sd 0.21: about 0.013 over 258 draws.
        let excess = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((0.20..0.29).contains(&excess), "mean tail excess {excess}");
        let mean = z.iter().sum::<f64>() / nf;
        let central = |k: i32| z.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / nf;
        let var = central(2);
        let skew = central(3) / var.powf(1.5);
        let kurt = central(4) / (var * var);
        // Standard errors at n = 1e6: mean 0.001, variance 0.0014,
        // skewness 0.0024, kurtosis 0.0049; five of each allowed.
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "variance {var}");
        assert!(skew.abs() < 0.012, "skewness {skew}");
        assert!((kurt - 3.0).abs() < 0.025, "kurtosis {kurt}");
    }

    #[test]
    fn signed_bit_conversion_equals_the_unsigned_one() {
        let mut rng = StdRng::seed_from_u64(53);
        let edges = [0, 1, 0x7ff, 0x800, u64::MAX >> 1, 1 << 63, u64::MAX];
        for bits in edges
            .into_iter()
            .chain((0..100_000).map(|_| rng.next_u64()))
        {
            assert_eq!(bits_53(bits), (bits >> 11) as f64, "bits {bits:#018x}");
        }
    }

    #[test]
    fn uniform_bounds_inclusive() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let v = uniform_in(&mut rng, 2, 4);
            assert!((2..=4).contains(&v));
            seen_lo |= v == 2;
            seen_hi |= v == 4;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..5).map(|_| lognormal_factor(&mut r, 0.1)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..5).map(|_| lognormal_factor(&mut r, 0.1)).collect()
        };
        assert_eq!(a, b);
    }
}

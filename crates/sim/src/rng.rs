//! Seeded randomness helpers for the simulators.
//!
//! The simulators' noise is multiplicative and log-normal:
//! [`lognormal_factor`] draws one factor `e^{σ·N(0,1)}`, and
//! [`lognormal_durations`] scales a slice of durations by one such factor
//! each, rounded to nanoseconds. The batch form is the co-simulation's
//! hot path: every GPU kernel of a suffix, every layer of a device prefix
//! and every background kernel goes through it. It equals the
//! one-at-a-time draw bit for bit, from the same RNG words, but computes
//! the `exp` and the rounding of a whole chunk in one branch-free pass
//! that the compiler vectorises. A slot whose fast result could round
//! differently from libm's is recomputed through libm: Ziv's rounding test
//! (A. Ziv, ACM TOMS 17(3), 1991) decides which.

use crate::SimDuration;
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
/// To scale many durations, [`lognormal_durations`] makes the same draws
/// with a vectorised `exp` and rounding.
#[must_use]
#[inline]
pub fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    (sigma * standard_normal(rng)).exp()
}

/// Slots [`lognormal_durations`] handles per chunk: a chunk's N(0, 1)
/// draws wait in a stack array of this many `f64`s.
pub const DRAW_CHUNK: usize = 64;

/// Scales each of `secs` by its own [`lognormal_factor`] and rounds it to
/// nanoseconds: slot `i` of `out` becomes
/// `SimDuration::from_secs_f64(secs[i] * lognormal_factor(rng, sigma).max(0.0))`,
/// the duration [`SimDuration::scale`] gives, bit for bit, with the slots
/// drawn in order from the same RNG words. `sigma = 0` draws nothing.
///
/// Chunk by chunk, it draws every N(0, 1) first, with the generator
/// copied into a local, and then scales the chunk in one branch-free pass
/// that the compiler vectorises: an inline `exp` (Cody–Waite reduction, a
/// degree-13 polynomial, the power of two set in the exponent bits) in
/// place of libm's, and rounding by adding 2^52. That `exp` is within
/// 2^-48 of libm's, so a product `y` in nanoseconds rounds to the same
/// integer as libm's unless `y` lies within `y·2^-40` of a half-integer
/// (Ziv's test), which every `y` of 2^39 ns or more does. A chunk with
/// such a slot, or with a `|σz|` past 700, is recomputed through libm
/// from the same normals. On the zoo's device and GPU tables about 8
/// slots in a million fail the test.
///
/// # Panics
///
/// Panics if `secs` and `out` differ in length.
#[inline]
pub fn lognormal_durations<R: RngCore + Clone>(
    rng: &mut R,
    sigma: f64,
    secs: &[f64],
    out: &mut [SimDuration],
) {
    assert_eq!(secs.len(), out.len(), "one output slot per duration");
    if sigma <= 0.0 {
        for (out, &secs) in out.iter_mut().zip(secs) {
            *out = SimDuration::from_secs_f64(secs);
        }
        return;
    }
    let zig = Ziggurat::get();
    let mut local = rng.clone();
    let mut normals = [0.0; DRAW_CHUNK];
    for (secs, out) in secs.chunks(DRAW_CHUNK).zip(out.chunks_mut(DRAW_CHUNK)) {
        let normals = &mut normals[..secs.len()];
        for z in normals.iter_mut() {
            *z = zig.standard_normal(&mut local);
        }
        if !scale_chunk(sigma, normals, secs, out) {
            #[cfg(test)]
            LIBM_CHUNKS.with(|chunks| chunks.set(chunks.get() + 1));
            for ((out, &secs), &z) in out.iter_mut().zip(secs).zip(&*normals) {
                *out = SimDuration::from_secs_f64(secs * (sigma * z).exp().max(0.0));
            }
        }
    }
    *rng = local;
}

#[cfg(test)]
thread_local! {
    /// Chunks [`lognormal_durations`] recomputed through libm on this
    /// thread.
    static LIBM_CHUNKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `2^52`: adding it to a `y` in `[0, 2^52)` leaves the nearest integer to
/// `y` in the sum's mantissa bits.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Ziv's margin, relative: a fast `y` this close to a half-integer may
/// round differently from libm's. It is 2^8 times the error bound the
/// tests hold the fast `exp` to, and 2^12 to 2^13 ulps of `y`. It also
/// bounds `y`: from 2^39 ns (9 minutes) on, the margin exceeds one half
/// and every slot fails, well short of 2^52, where adding 2^52 would stop
/// rounding exactly.
const ZIV_MARGIN: f64 = 1.0 / 1_099_511_627_776.0;

/// Largest `|σz|` the fast `exp` serves: `e^{±700}` is a normal `f64`,
/// so the power of two fits the exponent field.
const EXP_FAST_MAX: f64 = 700.0;

/// One chunk's fast pass: `out[i]` from `secs[i]` and the normal
/// `normals[i]` as [`lognormal_durations`] defines it. Returns `false`
/// when some slot fails Ziv's test (or leaves the fast range), and the
/// chunk must be recomputed through libm.
///
/// Every slot's work is branch-free and call-free, so the loop
/// vectorises. The `exp` is [`exp_fast`]'s; for the same `z` it differs
/// from libm's by a relative `e`, and each side then rounds twice (the
/// product with `secs` and with 1e9), so the fast `y` and libm's differ by
/// at most `y·(e + 2^-51)`, far below the margin `y·2^-40`. A slot whose
/// distance to the nearest half-integer exceeds the margin therefore
/// rounds to the same integer on both sides. The rounding is exact: `y +
/// 2^52` holds the nearest integer in its mantissa, `y` minus that integer
/// is exact (the two are within one half of each other), and so is its
/// distance to the half-integer wherever that is under a quarter.
#[inline]
fn scale_chunk(sigma: f64, normals: &[f64], secs: &[f64], out: &mut [SimDuration]) -> bool {
    let mut certain = true;
    for ((out, &secs), &z) in out.iter_mut().zip(secs).zip(normals) {
        let t = sigma * z;
        let y = (secs * exp_fast(t)).max(0.0) * 1e9;
        let shifted = y + TWO_POW_52;
        let tie_distance = 0.5 - (y - (shifted - TWO_POW_52)).abs();
        // Each comparison is false on a NaN, so a NaN (as from an infinite
        // `y`) fails the chunk.
        certain &= (t.abs() <= EXP_FAST_MAX) & (tie_distance > y * ZIV_MARGIN);
        *out = SimDuration::from_nanos(shifted.to_bits().wrapping_sub(TWO_POW_52.to_bits()));
    }
    certain
}

/// `1/j!` for `j = 0..=13`: the Taylor polynomial of `e^r`. On the
/// reduced range `|r| ≤ ln2/2` its first omitted term is below 2^-57
/// relative.
const EXP_TAYLOR: [f64; 14] = [
    1.0,
    1.0,
    0.5,
    0.166_666_666_666_666_66,
    0.041_666_666_666_666_664,
    0.008_333_333_333_333_333,
    0.001_388_888_888_888_889,
    0.000_198_412_698_412_698_4,
    2.480_158_730_158_73e-5,
    2.755_731_922_398_589_3e-6,
    2.755_731_922_398_589e-7,
    2.505_210_838_544_172e-8,
    2.087_675_698_786_81e-9,
    1.605_904_383_682_161_3e-10,
];

/// `e^t` without a call or a table, for `|t| ≤ 700` (anything else gives
/// garbage, which [`scale_chunk`] flags). Cody–Waite reduction: `k =
/// round(t/ln2)` by the 1.5·2^52 shift, `r = t − k·ln2` in two steps with
/// `ln2` split so `k·LN2_HI` is exact; then the Taylor polynomial of `e^r`,
/// times `2^k` built in the exponent bits (exact: the result is a normal
/// `f64`). Within about 2^-52 of the true value, so well within 2^-48 of
/// libm's (tested against `f64::exp`).
#[inline]
fn exp_fast(t: f64) -> f64 {
    const LOG2_E: f64 = std::f64::consts::LOG2_E;
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // fdlibm's split of ln2: 32 significant bits, and the remainder.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    let shifted = t * LOG2_E + SHIFT;
    let k = shifted - SHIFT;
    let r = (t - k * LN2_HI) - k * LN2_LO;
    // `1 + (r + r²·q)`, with `q` by Estrin's scheme: six independent pairs
    // `c[i] + c[i+1]·r`, joined by `r²`, `r⁴` and `r⁸`. Horner's thirteen
    // dependent steps made the chunk's pass latency-bound; adding the
    // leading `1 + r` last keeps the error within about one ulp.
    let c = &EXP_TAYLOR;
    let pair = |i: usize| c[i] + c[i + 1] * r;
    let r2 = r * r;
    let r4 = r2 * r2;
    let low = pair(2) + r2 * pair(4);
    let mid = pair(6) + r2 * pair(8);
    let high = pair(10) + r2 * pair(12);
    let poly = 1.0 + (r + r2 * ((low + r4 * mid) + (r4 * r4) * high));
    // The shifted sum's low 12 bits hold `k` modulo 4096; `k + 1023` is
    // the biased exponent of `2^k`.
    poly * f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
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

    /// One N(0, 1) draw. The low 8 bits of one `next_u64` pick a layer and
    /// the top 53 a signed position in it; a position inside the next
    /// layer's width lies under the density and is returned at once (98.5%
    /// of draws). Otherwise the base layer samples the tail beyond `R`
    /// (Marsaglia's exponential method), any other layer tests its wedge,
    /// and a rejected point starts over.
    #[inline]
    fn standard_normal<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            // 53 bits -> [0, 2) exactly, shifted to [-1, 1).
            let u = bits_53(bits) * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * self.x[i];
            if x.abs() < self.x[i + 1] {
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
            let height = self.f[i] + (self.f[i + 1] - self.f[i]) * open_unit(rng);
            if height < (-0.5 * x * x).exp() {
                return x;
            }
        }
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

/// One N(0, 1) draw by the ziggurat ([`Ziggurat::standard_normal`]).
#[inline]
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    Ziggurat::get().standard_normal(rng)
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

    /// The one-at-a-time draws [`lognormal_durations`] must equal: each
    /// slot's [`lognormal_factor`] applied as `SimDuration::scale` applies
    /// it, through libm's `exp` and `from_secs_f64`'s rounding.
    fn single_draws(rng: &mut StdRng, sigma: f64, secs: &[f64]) -> Vec<SimDuration> {
        secs.iter()
            .map(|&s| SimDuration::from_secs_f64(s * lognormal_factor(rng, sigma).max(0.0)))
            .collect()
    }

    /// Draws `secs` through the batch core and one slot at a time, each
    /// from a fresh RNG of `seed`, and asserts equal durations and equal
    /// RNG states after. Returns the batch's durations and the number of
    /// chunks it recomputed through libm.
    fn assert_batch_equals_single(
        seed: u64,
        sigma: f64,
        secs: &[f64],
    ) -> (Vec<SimDuration>, usize) {
        let mut single = StdRng::seed_from_u64(seed);
        let want = single_draws(&mut single, sigma, secs);
        let mut batch = StdRng::seed_from_u64(seed);
        let mut got = vec![SimDuration::from_nanos(u64::MAX); secs.len()];
        let before = LIBM_CHUNKS.with(std::cell::Cell::get);
        lognormal_durations(&mut batch, sigma, secs, &mut got);
        let libm = LIBM_CHUNKS.with(std::cell::Cell::get) - before;
        assert_eq!(got, want, "seed {seed}, sigma {sigma}: {secs:?}");
        assert_eq!(batch, single, "seed {seed}: RNG state diverged");
        (got, libm)
    }

    /// `n` durations log-uniform between `lo` and `hi` seconds.
    fn log_uniform_secs(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|_| (rng.gen_range(lo.ln()..hi.ln())).exp())
            .collect()
    }

    #[test]
    fn batch_durations_equal_single_draws_word_for_word() {
        let mut cases = StdRng::seed_from_u64(0xBA7C);
        for (seed, len, sigma) in [(4, 0, 0.3), (5, 1, 0.3), (6, 333, 0.3), (7, 64, 0.0)] {
            let secs = log_uniform_secs(&mut cases, len, 1e-6, 1e-1);
            assert_batch_equals_single(seed, sigma, &secs);
        }
        // Every length up to three chunks, sigmas from the models' 0.08 up
        // to 2, and times from a nanosecond to a quarter of an hour.
        for len in 0..=3 * DRAW_CHUNK {
            let sigma = [0.08, 0.1, 0.3, 2.0][len % 4];
            let secs = log_uniform_secs(&mut cases, len, 1e-9, 1e3);
            assert_batch_equals_single(cases.next_u64(), sigma, &secs);
        }
    }

    /// The fast `exp`'s error bound relative to libm's, as tested: the
    /// margin Ziv's test relies on, 2^8 lower.
    const EXP_TESTED_ERROR: f64 = ZIV_MARGIN / 256.0;

    #[test]
    fn fast_exp_stays_within_its_tested_bound_of_libm() {
        let mut worst = (0.0f64, 0.0f64);
        let mut check = |t: f64| {
            let want = t.exp();
            let error = ((exp_fast(t) - want) / want).abs();
            assert!(
                error <= EXP_TESTED_ERROR,
                "t = {t:e}: fast {:e}, libm {want:e}",
                exp_fast(t)
            );
            if error > worst.0 {
                worst = (error, t);
            }
        };
        // A dense grid on [-30, 30], step 2^-14: every reduction interval
        // a kernel's σz can reach, and far past it.
        let steps = 60i32 << 14;
        for i in 0..=steps {
            check(-30.0 + f64::from(i) / 16_384.0);
        }
        // Seeded values over the whole fast range, and its edges.
        let mut rng = StdRng::seed_from_u64(0xE4B);
        for _ in 0..1_000_000 {
            check(rng.gen_range(-EXP_FAST_MAX..=EXP_FAST_MAX));
        }
        let half_ln2 = std::f64::consts::LN_2 / 2.0;
        for t in [0.0, -0.0, EXP_FAST_MAX, -EXP_FAST_MAX, half_ln2, -half_ln2] {
            for t in [t.next_down(), t, t.next_up()] {
                check(t);
            }
        }
        // What the bound leaves spare: measured 2.2e-16, about 2^-52.
        assert!(
            worst.0 < EXP_TESTED_ERROR / 8.0,
            "worst {:e} at t = {}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn near_ties_go_through_libm_and_every_slot_equals_the_single_draw() {
        const SEED: u64 = 0x71E5;
        let sigma = 0.1;
        // The chunk's factors, from the normals the core will draw.
        let mut rng = StdRng::seed_from_u64(SEED);
        let factors: Vec<f64> = (0..DRAW_CHUNK)
            .map(|_| (sigma * standard_normal(&mut rng)).exp())
            .collect();
        // libm's nanoseconds before rounding, and the `secs` that lands
        // them exactly on `target`, searched among the floats next to the
        // quotient.
        let y = |secs: f64, f: f64| (secs * f).max(0.0) * 1e9;
        let hit = |target: f64, f: f64| {
            let mut secs = target / 1e9 / f;
            for _ in 0..32 {
                secs = secs.next_down();
            }
            (0..64).find_map(|_| {
                secs = secs.next_up();
                (y(secs, f) == target).then_some(secs)
            })
        };
        // Per slot, a tie `k + 0.5` (20 µs and up) that some `secs` reaches
        // exactly, as do the floats either side of it. Where `y`'s
        // mantissa is 1.86 or more, consecutive `secs` move it by 1.86
        // ulps, so no three neighbours are all reachable and the search
        // moves on.
        let ties: Vec<(f64, [f64; 3])> = factors
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                (0..10_000)
                    .find_map(|j| {
                        let tie = (20_000 + 1_000 * i + j) as f64 + 0.5;
                        let below = hit(tie.next_down(), f)?;
                        let exact = hit(tie, f)?;
                        let above = hit(tie.next_up(), f)?;
                        Some((tie, [below, exact, above]))
                    })
                    .expect("a reachable tie")
            })
            .collect();
        // Slot `i` alone at `secs`, the others at 0 ns (which the fast
        // path serves): the chunk takes libm only if slot `i` fails.
        let alone = |i: usize, secs: f64| {
            let mut chunk = vec![0.0; DRAW_CHUNK];
            chunk[i] = secs;
            chunk
        };
        let nanos = |v: f64| SimDuration::from_nanos(v as u64);
        // Exactly on the tie and one ulp either side: libm's rounding,
        // half away from zero, and every slot fails Ziv's test.
        for (side, rounds_to) in [(0, -0.5), (1, 0.5), (2, 0.5)] {
            let secs: Vec<f64> = ties.iter().map(|(_, s)| s[side]).collect();
            let (got, _) = assert_batch_equals_single(SEED, sigma, &secs);
            for (i, ((tie, _), got)) in ties.iter().zip(&got).enumerate() {
                assert_eq!(*got, nanos(tie + rounds_to), "tie {tie}, side {side}");
                let (_, libm) = assert_batch_equals_single(SEED, sigma, &alone(i, secs[i]));
                assert_eq!(libm, 1, "tie {tie}, side {side}: took the fast path");
            }
        }
        // Just inside the margin from the tie, either way: libm, slot by
        // slot. Just outside: the whole chunk on the fast path, with the
        // same nanoseconds. The fast `y` sits within 2^-7 margins of
        // libm's, so 0.9 and 1.1 margins are on either side of the test.
        for (scale, fails) in [(0.9, true), (-0.9, true), (1.1, false), (-1.1, false)] {
            let secs: Vec<f64> = ties
                .iter()
                .zip(&factors)
                .map(|(&(tie, _), &f)| {
                    let secs = (tie + scale * tie * ZIV_MARGIN) / 1e9 / f;
                    let off = (y(secs, f) - tie) / (tie * ZIV_MARGIN);
                    assert!((off - scale).abs() < 0.01, "tie {tie}: {off} margins off");
                    secs
                })
                .collect();
            let (_, libm) = assert_batch_equals_single(SEED, sigma, &secs);
            assert_eq!(libm, usize::from(fails), "{scale} margins from the ties");
            if fails {
                for (i, &secs) in secs.iter().enumerate() {
                    let (_, libm) = assert_batch_equals_single(SEED, sigma, &alone(i, secs));
                    assert_eq!(libm, 1, "slot {i}, {scale} margins from its tie");
                }
            }
        }
    }

    #[test]
    fn edge_inputs_equal_the_single_draw() {
        // σ = 0 takes no word and scales by exactly 1.
        let secs = [0.0, 1e-6, 0.25, -1.0, f64::NAN, 1e7, f64::INFINITY];
        let (got, libm) = assert_batch_equals_single(9, 0.0, &secs);
        assert_eq!(got, secs.map(SimDuration::from_secs_f64));
        assert_eq!(libm, 0);
        // Zero, negative and NaN durations are 0 ns on the fast path.
        let mut secs = [0.0; 100];
        secs[7] = -1e-3;
        secs[70] = f64::NAN;
        let (got, libm) = assert_batch_equals_single(10, 0.1, &secs);
        assert!(got.iter().all(|&d| d == SimDuration::ZERO));
        assert_eq!(libm, 0);
        // 10^15 ns and past, up to the saturation at u64::MAX: libm, by
        // Ziv's test alone.
        for huge in [1e6, 5e6, 1e9, 1e300, f64::INFINITY] {
            let mut secs = vec![1e-4; 70];
            secs[3] = huge;
            let (got, libm) = assert_batch_equals_single(11, 0.1, &secs);
            assert!(
                got[3].as_nanos() >= 900_000_000_000_000,
                "{huge}: {:?}",
                got[3]
            );
            assert_eq!(libm, 1, "{huge}");
        }
        // |σz| past 700, alone in its chunk. There the fast `exp`'s
        // exponent bits wrap: to a negative number at σz = 1000 (libm:
        // infinity), to -inf at -710 (libm: a subnormal that 10^300 s
        // scales to 4 ns). Either gives a certain-looking 0 ns, so only the
        // range check sends them to libm.
        for (t, secs, want) in [(1_000.0, 1e-5, u64::MAX), (-710.0, 1e300, 4)] {
            let (seed, z) = (12..)
                .map(|seed| (seed, standard_normal(&mut StdRng::seed_from_u64(seed))))
                .find(|&(_, z)| z * t > 0.0)
                .expect("a normal of either sign");
            let (got, libm) = assert_batch_equals_single(seed, t / z, &[secs]);
            assert_eq!(got, [SimDuration::from_nanos(want)], "σz = {t}");
            assert_eq!(libm, 1, "σz = {t}");
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

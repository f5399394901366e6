//! Logical simulation time with nanosecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

/// A span of simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration since an earlier instant, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Element-wise maximum.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Constructs from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Constructs from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Constructs from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Constructs from float seconds, rounding to nanoseconds and
    /// saturating below zero.
    #[must_use]
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Self(round_to_u64(s.max(0.0) * 1e9))
    }

    /// Constructs from float microseconds.
    #[must_use]
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds as a float.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Scales by a non-negative float factor (used when applying the load
    /// influence factor `k`).
    #[must_use]
    pub fn scale(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor.max(0.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Element-wise minimum.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

/// `y.round() as u64` for every `f64`, without the libm call `f64::round`
/// compiles to on the default x86-64 target. Below 2^52 an `f64` can
/// carry a fraction: the truncating cast takes the integer part, and
/// `y - t` is exact there, so comparing it with one half rounds half away
/// from zero as `round` does; negative results (and `-0.0`) clamp to 0 as
/// the saturating `round() as u64` does. From 2^52 up every `f64` is an
/// integer, so the saturating cast alone agrees, as it does on NaN (0) and
/// infinities.
///
/// The fractional branch casts through `i64`, not `u64`: every `y` it
/// sees is below 2^52, so the signed casts are exact, and on x86-64
/// without AVX-512 each is one instruction where an unsigned cast is a
/// multi-instruction sequence. A co-simulated suffix rounds once per
/// kernel, so this sits on the hottest path of a request.
#[inline]
fn round_to_u64(y: f64) -> u64 {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if y < TWO_POW_52 {
        let t = y as i64;
        (t + i64::from(y - t as f64 >= 0.5)).max(0) as u64
    } else {
        y as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_millis_f64(), 1000.0);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_secs_f64(), 0.5);
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
    }

    #[test]
    fn negative_float_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    /// Edge inputs, every x.5 half-way point below 2^16 and next to each
    /// power of two up to 2^53 with the floats on either side, the powers
    /// 2^52, 2^53 and 2^64 with theirs, random bit patterns, random
    /// magnitudes up to 2^70, and random values in [2^51, 2^52) (the
    /// signed cast's top binade, where one half is the ulp) with their
    /// negatives (where the clamp to 0 acts).
    fn rounding_inputs() -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut ys = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -0.5,
            -1.5,
            0.5f64.next_down(),
            u64::MAX as f64,
            f64::MAX,
            -f64::MAX,
        ];
        let halves = (0..1u64 << 16)
            .map(|n| n as f64 + 0.5)
            .chain((0..53).map(|e| (1u64 << e) as f64 + 0.5))
            .chain((1..54).map(|e| (1u64 << e) as f64 - 0.5));
        let powers = [2f64.powi(52), 2f64.powi(53), 2f64.powi(64)];
        for y in halves.chain(powers) {
            ys.extend([y.next_down(), y, y.next_up()]);
        }
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..200_000 {
            ys.push(f64::from_bits(rng.next_u64()));
            let magnitude = 2f64.powi(rng.gen_range(0u32..70) as i32);
            ys.push(rng.gen_range(0.0..magnitude));
        }
        for _ in 0..20_000 {
            let y = rng.gen_range(2f64.powi(51)..2f64.powi(52));
            ys.extend([y, -y]);
        }
        ys
    }

    #[test]
    fn rounding_equals_f64_round_on_every_input() {
        for y in rounding_inputs() {
            assert_eq!(
                round_to_u64(y),
                y.round() as u64,
                "y = {y:e} (bits {:#018x})",
                y.to_bits()
            );
            for s in [y, y / 1e9] {
                assert_eq!(
                    SimDuration::from_secs_f64(s).as_nanos(),
                    (s.max(0.0) * 1e9).round() as u64,
                    "s = {s:e} (bits {:#018x})",
                    s.to_bits()
                );
            }
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        let u = t + SimDuration::from_millis(5);
        assert_eq!((u - t).as_millis_f64(), 5.0);
        assert_eq!(t.since(u), SimDuration::ZERO); // saturating
        assert_eq!(u.since(t).as_millis_f64(), 5.0);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.scale(2.5).as_millis_f64(), 25.0);
        assert_eq!(d.scale(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn sum_and_minmax() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .sum();
        assert_eq!(total.as_millis_f64(), 6.0);
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(b.saturating_sub(a).as_millis_f64(), 1.0);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1500.000ms");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_secs(2)).to_string(),
            "2.000s"
        );
    }
}

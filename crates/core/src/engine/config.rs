//! Engine configuration and its validation.

use lp_sim::SimDuration;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Tunables of the per-request offload engine (defaults follow §V-A).
///
/// This is the same shape the co-simulated system historically called
/// `SystemConfig`; that name remains available as an alias.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Runtime-profiler period (bandwidth probe + `k` fetch), default 5 s.
    pub profiler_period: SimDuration,
    /// Sliding-window length of the bandwidth estimator.
    pub bandwidth_window: usize,
    /// Whether to add the result-download leg to measured latency
    /// (§IV ignores it; kept for ablations).
    pub model_download: bool,
    /// RNG seed for measurement noise.
    pub seed: u64,
    /// Wall-clock deadline for each awaited reply: the offload response,
    /// and in a pipelined profiler refresh each probe ack, then the load
    /// reply. Only the threaded runtime blocks on real channels; the
    /// co-simulated backends never wait.
    pub io_timeout: Duration,
    /// How many times a failed profiler refresh (probes + load query) or
    /// offload exchange is retried before the engine degrades (0 = a
    /// single attempt).
    pub max_retries: u32,
    /// Base of the exponential retry backoff: attempt `i` sleeps
    /// `retry_backoff * 2^(i-1)`. Zero disables sleeping (tests).
    pub retry_backoff: Duration,
    /// Hard cap on the *cumulative* backoff sleeping one request may do
    /// across all of its retries (profiler probes and suffix exchanges
    /// combined). When the next sleep would exceed the remaining budget
    /// the retry is abandoned and the engine degrades immediately, so a
    /// sustained outage cannot turn `max_retries` into a retry storm.
    /// Only sleeps count against the budget — `io_timeout` waits do not.
    pub retry_budget: Duration,
    /// Jitter each backoff sleep to `[0.5, 1.5)x` its base using a
    /// deterministic seeded generator (decorrelates clients hammering a
    /// recovering server). The jitter stream is separate from the
    /// measurement RNG, so enabling it never changes logical records.
    pub retry_jitter: bool,
    /// After the offload path exhausts its retries, decisions are biased
    /// local for this long (logical time) before the wire is probed again.
    pub fault_cooldown: SimDuration,
    /// Consecutive wire failures (rejections, exhausted retries) before
    /// the client's circuit breaker opens. `0` disables the breaker.
    pub breaker_failure_threshold: u32,
    /// How long an open breaker suppresses all wire traffic before
    /// half-open probing starts (logical time).
    pub breaker_open_period: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            profiler_period: SimDuration::from_secs(5),
            bandwidth_window: 8,
            model_download: false,
            seed: 7,
            io_timeout: Duration::from_millis(500),
            max_retries: 2,
            retry_backoff: Duration::from_millis(5),
            retry_budget: Duration::from_millis(250),
            retry_jitter: true,
            fault_cooldown: SimDuration::from_secs(10),
            breaker_failure_threshold: 3,
            breaker_open_period: SimDuration::from_secs(5),
        }
    }
}

impl EngineConfig {
    /// Checks the configuration for values the runtime cannot work with.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.bandwidth_window == 0 {
            return Err(ConfigError::ZeroBandwidthWindow);
        }
        if self.profiler_period == SimDuration::ZERO {
            return Err(ConfigError::ZeroProfilerPeriod);
        }
        if self.io_timeout == Duration::ZERO {
            return Err(ConfigError::ZeroIoTimeout);
        }
        if self.fault_cooldown == SimDuration::ZERO {
            return Err(ConfigError::ZeroFaultCooldown);
        }
        if self.breaker_failure_threshold > 0 && self.breaker_open_period == SimDuration::ZERO {
            return Err(ConfigError::ZeroBreakerOpenPeriod);
        }
        Ok(())
    }

    /// The backoff before retry attempt `attempt` (1-based): exponential
    /// doubling on the configured base, capped at 16x to bound the total
    /// stall a dead server can impose on one request.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(4);
        self.retry_backoff.saturating_mul(factor)
    }
}

/// Refuses a link bandwidth that is not greater than zero, NaN included
/// (a `<= 0.0` test lets NaN through).
pub(crate) fn check_bandwidth(mbps: f64) -> Result<(), ConfigError> {
    if mbps > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositiveBandwidth)
    }
}

/// One step of the splitmix64 sequence — the engine's side stream for
/// backoff jitter. Kept apart from the measurement RNG so jitter draws
/// never perturb device/bandwidth sampling (and therefore never change
/// logical records).
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of one offloaded request's suffix-noise stream
/// ([`SuffixRequest::noise_seed`](crate::engine::SuffixRequest::noise_seed)):
/// [`splitmix64`] steps over the engine's seed with the client index and
/// then the request id folded in. Pure in the triple, so any server that
/// knows it draws the same suffix kernels.
#[must_use]
pub(crate) fn suffix_noise_seed(seed: u64, client: usize, request_id: u64) -> u64 {
    let mut state = seed;
    for word in [client as u64, request_id] {
        state = splitmix64(&mut state) ^ word;
    }
    splitmix64(&mut state)
}

/// Jitters a backoff `base` to `[0.5, 1.5)x` using one [`splitmix64`]
/// draw. Deterministic: the same state sequence yields the same sleeps,
/// which keeps retry counts (and thus records) replayable even when the
/// retry budget truncates a retry loop.
#[must_use]
pub fn seeded_jitter(base: Duration, state: &mut u64) -> Duration {
    if base.is_zero() {
        return base;
    }
    // 53 uniform bits -> u in [0, 1); scale to [0.5, 1.5).
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(0.5 + u)
}

/// A configuration value the runtime cannot work with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The bandwidth estimator needs a non-empty sliding window.
    ZeroBandwidthWindow,
    /// The runtime profiler needs a positive period.
    ZeroProfilerPeriod,
    /// A multi-client run needs at least one client.
    ZeroClients,
    /// Links need a positive bandwidth.
    NonPositiveBandwidth,
    /// An experiment needs a positive duration.
    ZeroDuration,
    /// Wire exchanges need a positive deadline.
    ZeroIoTimeout,
    /// The post-fault cooldown needs a positive length (otherwise a dead
    /// server is re-probed on every request, stalling each one).
    ZeroFaultCooldown,
    /// An enabled circuit breaker needs a positive open period (otherwise
    /// opening the breaker would be a no-op and every request would still
    /// hit the overloaded server).
    ZeroBreakerOpenPeriod,
    /// A cluster needs at least one server endpoint.
    NoServers,
    /// A named policy was not found in the policy registry.
    UnknownPolicy,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBandwidthWindow => {
                write!(f, "bandwidth window must hold at least one sample")
            }
            ConfigError::ZeroProfilerPeriod => write!(f, "profiler period must be positive"),
            ConfigError::ZeroClients => write!(f, "need at least one client"),
            ConfigError::NonPositiveBandwidth => write!(f, "bandwidth must be positive"),
            ConfigError::ZeroDuration => write!(f, "duration must be positive"),
            ConfigError::ZeroIoTimeout => write!(f, "wire I/O timeout must be positive"),
            ConfigError::ZeroFaultCooldown => write!(f, "fault cooldown must be positive"),
            ConfigError::ZeroBreakerOpenPeriod => {
                write!(f, "breaker open period must be positive when enabled")
            }
            ConfigError::NoServers => write!(f, "a cluster needs at least one server"),
            ConfigError::UnknownPolicy => {
                write!(f, "policy name not found in the policy registry")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(EngineConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_window_is_rejected() {
        let cfg = EngineConfig {
            bandwidth_window: 0,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBandwidthWindow));
    }

    #[test]
    fn zero_periods_are_rejected() {
        let cfg = EngineConfig {
            profiler_period: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroProfilerPeriod));
    }

    #[test]
    fn zero_fault_knobs_are_rejected() {
        let cfg = EngineConfig {
            io_timeout: Duration::ZERO,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroIoTimeout));
        let cfg = EngineConfig {
            fault_cooldown: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroFaultCooldown));
        // Zero backoff and zero retries are legitimate (single attempt,
        // no sleeping) — deterministic tests rely on them.
        let cfg = EngineConfig {
            max_retries: 0,
            retry_backoff: Duration::ZERO,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = EngineConfig {
            retry_backoff: Duration::from_millis(10),
            ..EngineConfig::default()
        };
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(10));
        assert_eq!(cfg.backoff_for(2), Duration::from_millis(20));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(40));
        // Capped at 16x so a dead server cannot stall a request unboundedly.
        assert_eq!(cfg.backoff_for(40), Duration::from_millis(160));
    }

    #[test]
    fn seeded_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(10);
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..64 {
            let ja = seeded_jitter(base, &mut a);
            let jb = seeded_jitter(base, &mut b);
            // Same seed, same draw index -> identical sleep.
            assert_eq!(ja, jb);
            // Always within [0.5, 1.5)x the base.
            assert!(ja >= base / 2 && ja < base + base / 2, "{ja:?}");
        }
        // Distinct seeds decorrelate (at least one draw differs).
        let (mut c, mut d) = (43u64, 44u64);
        let diverges = (0..64).any(|_| seeded_jitter(base, &mut c) != seeded_jitter(base, &mut d));
        assert!(diverges);
        // Zero base stays zero regardless of the stream.
        assert_eq!(seeded_jitter(Duration::ZERO, &mut a), Duration::ZERO);
    }

    #[test]
    fn breaker_knobs_validate() {
        // Disabled breaker tolerates a zero open period.
        let cfg = EngineConfig {
            breaker_failure_threshold: 0,
            breaker_open_period: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        // Enabled breaker requires a positive open period.
        let cfg = EngineConfig {
            breaker_failure_threshold: 3,
            breaker_open_period: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBreakerOpenPeriod));
    }

    #[test]
    fn errors_display_readably() {
        let msg = ConfigError::ZeroClients.to_string();
        assert!(msg.contains("at least one client"), "{msg}");
        assert!(ConfigError::ZeroIoTimeout.to_string().contains("timeout"));
        assert!(ConfigError::ZeroFaultCooldown
            .to_string()
            .contains("cooldown"));
    }
}

//! History-pool abuse detection and throttling (§3.3).
//!
//! A malicious user cannot be prevented from writing — that would deny
//! service — and old versions cannot be pruned — that would let an
//! intruder destroy history. The paper's hybrid answer: when the history
//! pool comes under pressure, detect clients writing far above their rate
//! budget and *slow them down* ("selectively increasing latency and/or
//! decreasing bandwidth allows well-behaved users to continue to use the
//! system even while it is under attack"), buying the administrator time
//! to intervene.

use std::collections::HashMap;

use s4_clock::{SimDuration, SimTime};

/// Throttling policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ThrottleConfig {
    /// Master switch.
    pub enabled: bool,
    /// Pool pressure (fraction of data blocks referenced) above which
    /// throttling engages.
    pub pressure_threshold: f64,
    /// Per-client sustainable write rate while under pressure.
    pub budget_bytes_per_sec: u64,
    /// Added latency per byte written beyond budget, in nanoseconds.
    pub penalty_ns_per_excess_byte: u64,
    /// Cap on the penalty charged for a single request.
    pub max_penalty: SimDuration,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            enabled: true,
            pressure_threshold: 0.85,
            budget_bytes_per_sec: 1_000_000,
            penalty_ns_per_excess_byte: 2_000,
            max_penalty: SimDuration::from_millis(500),
        }
    }
}

impl ThrottleConfig {
    /// A disabled throttler.
    pub(crate) fn disabled() -> Self {
        ThrottleConfig {
            enabled: false,
            ..ThrottleConfig::default()
        }
    }
}

/// Per-client token bucket: a client accumulates budget over time and
/// spends it by writing.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// Bytes of budget available (may go negative, expressed as deficit).
    tokens: f64,
    last: SimTime,
}

/// The drive's throttling state.
#[derive(Clone, Debug)]
pub(crate) struct ThrottleState {
    config: ThrottleConfig,
    buckets: HashMap<u32, Bucket>,
    /// Total penalty ever charged (for stats/tests).
    pub total_penalty: SimDuration,
    /// Number of requests penalized.
    pub penalized_requests: u64,
}

impl ThrottleState {
    /// Creates throttle state under `config`.
    pub(crate) fn new(config: ThrottleConfig) -> Self {
        ThrottleState {
            config,
            buckets: HashMap::new(),
            total_penalty: SimDuration::ZERO,
            penalized_requests: 0,
        }
    }

    /// Records a write of `bytes` by `client` at `now` with the given pool
    /// `pressure`, returning the latency penalty to charge (zero when the
    /// pool is healthy or the client is within budget).
    pub(crate) fn on_write(
        &mut self,
        client: u32,
        bytes: u64,
        now: SimTime,
        pressure: f64,
    ) -> SimDuration {
        if !self.config.enabled {
            return SimDuration::ZERO;
        }
        let cap = self.config.budget_bytes_per_sec as f64; // burst = 1s of budget
        let bucket = self.buckets.entry(client).or_insert(Bucket {
            tokens: cap,
            last: now,
        });
        // Refill.
        let dt = now.saturating_since(bucket.last).as_secs_f64();
        bucket.last = now;
        bucket.tokens = (bucket.tokens + dt * self.config.budget_bytes_per_sec as f64).min(cap);
        // Spend.
        bucket.tokens -= bytes as f64;
        if pressure < self.config.pressure_threshold || bucket.tokens >= 0.0 {
            return SimDuration::ZERO;
        }
        let excess = -bucket.tokens;
        let penalty_us =
            (excess * self.config.penalty_ns_per_excess_byte as f64 / 1000.0).round() as u64;
        let penalty = SimDuration::from_micros(penalty_us).min(self.config.max_penalty);
        if penalty > SimDuration::ZERO {
            self.total_penalty += penalty;
            self.penalized_requests += 1;
        }
        penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ThrottleConfig {
        ThrottleConfig {
            enabled: true,
            pressure_threshold: 0.8,
            budget_bytes_per_sec: 1_000,
            penalty_ns_per_excess_byte: 1_000_000, // 1ms per excess byte
            max_penalty: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn no_penalty_when_pool_healthy() {
        let mut t = ThrottleState::new(config());
        let p = t.on_write(1, 1_000_000, SimTime::from_secs(1), 0.2);
        assert_eq!(p, SimDuration::ZERO);
    }

    #[test]
    fn no_penalty_within_budget_even_under_pressure() {
        let mut t = ThrottleState::new(config());
        let p = t.on_write(1, 500, SimTime::from_secs(1), 0.95);
        assert_eq!(p, SimDuration::ZERO);
    }

    #[test]
    fn abuser_is_penalized_and_capped() {
        let mut t = ThrottleState::new(config());
        let p = t.on_write(1, 100_000, SimTime::from_secs(1), 0.95);
        assert_eq!(p, SimDuration::from_secs(1), "hit the cap");
        assert_eq!(t.penalized_requests, 1);
    }

    #[test]
    fn budget_refills_over_time() {
        let mut t = ThrottleState::new(config());
        // Drain the bucket.
        let p1 = t.on_write(1, 1_500, SimTime::from_secs(1), 0.95);
        assert!(p1 > SimDuration::ZERO);
        // After 10 seconds of quiet, the bucket is full again.
        let p2 = t.on_write(1, 800, SimTime::from_secs(11), 0.95);
        assert_eq!(p2, SimDuration::ZERO);
    }

    #[test]
    fn clients_are_isolated() {
        let mut t = ThrottleState::new(config());
        let _ = t.on_write(1, 1_000_000, SimTime::from_secs(1), 0.95);
        // A different, well-behaved client pays nothing.
        let p = t.on_write(2, 100, SimTime::from_secs(1), 0.95);
        assert_eq!(p, SimDuration::ZERO);
    }

    #[test]
    fn disabled_throttler_is_free() {
        let mut t = ThrottleState::new(ThrottleConfig::disabled());
        let p = t.on_write(1, u64::MAX / 2, SimTime::from_secs(1), 1.0);
        assert_eq!(p, SimDuration::ZERO);
    }
}

//! Simulated instants, durations, and the shared monotonic clock.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An instant on the simulated timeline, in microseconds since simulation
/// start.
///
/// `SimTime` is the unit in which every version timestamp, audit record, and
/// benchmark result is expressed. It is a plain `u64` wrapper so it can be
/// stored directly in on-disk structures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// The greatest representable instant; used as an "end of time" sentinel
    /// (e.g. the upper bound of the version that is currently live).
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the instant as microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration (clamps at the origin).
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
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
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from whole days (used for detection windows).
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400 * 1_000_000)
    }

    /// Returns the span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating addition.
    pub(crate) fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the span by an integer factor.
    #[allow(clippy::should_implement_trait)] // `Mul<u64>` fits poorly in const fns
    pub(crate) fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
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

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// A shared, thread-safe, monotonic simulated clock.
///
/// Components *advance* the clock by the service time they model; nothing in
/// the system reads real wall-clock time. Cloning a `SimClock` yields a
/// handle onto the same underlying timeline.
///
/// # Examples
///
/// ```
/// use s4_clock::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// clock.advance(SimDuration::from_millis(5));
/// assert_eq!(clock.now().as_micros(), 5_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now_us: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock positioned at the origin of the simulated timeline.
    pub fn new() -> Self {
        SimClock {
            now_us: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Returns the current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_us.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        SimTime(self.now_us.fetch_add(d.0, Ordering::SeqCst) + d.0)
    }

    /// Moves the clock forward to `t` if `t` is in the future; the clock
    /// never moves backward.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let mut cur = self.now_us.load(Ordering::SeqCst);
        while cur < t.0 {
            match self
                .now_us
                .compare_exchange(cur, t.0, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimTime(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_micros(2_000_000));
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!((t - SimTime::from_secs(1)).as_micros(), 500_000);
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn simtime_saturating_sub_clamps_at_origin() {
        let t = SimTime::from_micros(1_000);
        assert_eq!(t.saturating_sub(SimDuration::from_secs(1)), SimTime::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn clock_is_monotonic_under_advance_to() {
        let c = SimClock::new();
        c.advance(SimDuration::from_secs(10));
        // Moving "back" is a no-op.
        c.advance_to(SimTime::from_secs(5));
        assert_eq!(c.now(), SimTime::from_secs(10));
        c.advance_to(SimTime::from_secs(15));
        assert_eq!(c.now(), SimTime::from_secs(15));
    }

    #[test]
    fn clock_clones_share_the_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_micros(7));
        assert_eq!(b.now().as_micros(), 7);
    }

    #[test]
    fn clock_concurrent_advances_all_land() {
        let c = SimClock::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(SimDuration::from_micros(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now().as_micros(), 8_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_micros(1_500_000)), "1.500000s");
        assert_eq!(format!("{:?}", SimDuration::from_micros(3)), "3us");
    }
}

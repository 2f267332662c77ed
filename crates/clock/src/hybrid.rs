//! Hybrid timestamps: totally ordered version stamps.
//!
//! Comprehensive versioning ("a separate version for every modification",
//! §3.3 of the paper) needs a total order over mutations even when many land
//! within the same simulated microsecond. A [`HybridTimestamp`] pairs the
//! simulated instant with a per-drive sequence number; the sequence breaks
//! ties, and time-based reads ("the version most current at time T") compare
//! on the time component only.

use core::fmt;

use crate::time::{SimClock, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A totally ordered version stamp: simulated time plus a tie-breaking
/// sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HybridTimestamp {
    /// Simulated instant at which the mutation was applied.
    pub time: SimTime,
    /// Drive-assigned sequence number; strictly increasing across all
    /// mutations the drive applies, so two stamps are never equal.
    pub seq: u64,
}

impl HybridTimestamp {
    /// The earliest possible stamp.
    pub const ZERO: HybridTimestamp = HybridTimestamp {
        time: SimTime::ZERO,
        seq: 0,
    };

    /// The latest possible stamp; used as an "end of time" sentinel.
    pub const MAX: HybridTimestamp = HybridTimestamp {
        time: SimTime::MAX,
        seq: u64::MAX,
    };

    /// Builds a stamp from raw parts.
    pub const fn new(time: SimTime, seq: u64) -> Self {
        HybridTimestamp { time, seq }
    }

    /// A stamp that compares after every mutation applied at or before `t`
    /// and before every mutation applied after `t`. Time-based reads use
    /// this to select "the version that was most current at time `t`".
    pub const fn upper_bound_at(t: SimTime) -> Self {
        HybridTimestamp {
            time: t,
            seq: u64::MAX,
        }
    }
}

impl fmt::Debug for HybridTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}#{}", self.time, self.seq)
    }
}

impl fmt::Display for HybridTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.time, self.seq)
    }
}

/// Issues strictly increasing [`HybridTimestamp`]s from a [`SimClock`].
///
/// Cloning yields a handle onto the same sequence counter, so all handles
/// together issue a single strictly increasing stream.
#[derive(Clone, Debug)]
pub struct HybridClock {
    clock: SimClock,
    seq: Arc<AtomicU64>,
    /// The instant [`HybridClock::pinned`] holds this issuer at, in
    /// microseconds; [`UNPINNED`] while it follows the clock.
    pin: Arc<AtomicU64>,
}

/// No pin set. `SimTime::MAX` is the end-of-time sentinel, never an
/// instant a clock reaches.
const UNPINNED: u64 = u64::MAX;

impl HybridClock {
    /// Creates a stamp issuer over `clock`, starting the sequence at 1
    /// (sequence 0 is reserved for [`HybridTimestamp::ZERO`]).
    pub fn new(clock: SimClock) -> Self {
        Self::resuming_from(clock, 1)
    }

    /// Creates a stamp issuer whose next sequence number is `next_seq`;
    /// used when remounting a drive so stamps keep increasing across
    /// restarts.
    pub fn resuming_from(clock: SimClock, next_seq: u64) -> Self {
        HybridClock {
            clock,
            seq: Arc::new(AtomicU64::new(next_seq)),
            pin: Arc::new(AtomicU64::new(UNPINNED)),
        }
    }

    /// The instant a stamp issued now would carry: the pin while one is
    /// set, the clock otherwise.
    pub fn now(&self) -> SimTime {
        match self.pin.load(Ordering::SeqCst) {
            UNPINNED => self.clock.now(),
            at => SimTime::from_micros(at),
        }
    }

    /// Runs `f` with every stamp issued, and [`HybridClock::now`], held
    /// at `at` however far the clock moves meanwhile; the previous
    /// state returns when `f` does, or unwinds. Two uses: a replayed
    /// mutation must carry its *original* time (the sequence stays this
    /// issuer's own), and replicas re-executing one request must all
    /// stamp it at one instant although they share a clock that each
    /// one's own charges advance.
    pub fn pinned<R>(&self, at: SimTime, f: impl FnOnce() -> R) -> R {
        struct Restore<'a>(&'a AtomicU64, u64);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.store(self.1, Ordering::SeqCst);
            }
        }
        let _restore = Restore(&self.pin, self.pin.swap(at.as_micros(), Ordering::SeqCst));
        f()
    }

    /// Issues the next stamp.
    pub fn next(&self) -> HybridTimestamp {
        HybridTimestamp {
            time: self.now(),
            seq: self.seq.fetch_add(1, Ordering::SeqCst),
        }
    }

    /// Returns the sequence number the next call to [`HybridClock::next`]
    /// would use (persisted at sync so restarts can resume).
    pub fn peek_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn stamps_strictly_increase_even_at_same_instant() {
        let hc = HybridClock::new(SimClock::new());
        let a = hc.next();
        let b = hc.next();
        assert_eq!(a.time, b.time);
        assert!(a < b);
    }

    #[test]
    fn time_dominates_sequence() {
        let clock = SimClock::new();
        let hc = HybridClock::new(clock.clone());
        let early = hc.next();
        clock.advance(SimDuration::from_micros(1));
        let late = HybridTimestamp::new(clock.now(), 0);
        assert!(early < late, "a later time wins regardless of sequence");
    }

    #[test]
    fn upper_bound_selects_versions_at_or_before_t() {
        let clock = SimClock::new();
        let hc = HybridClock::new(clock.clone());
        clock.advance(SimDuration::from_micros(10));
        let v1 = hc.next();
        let v2 = hc.next();
        clock.advance(SimDuration::from_micros(10));
        let v3 = hc.next();

        let bound = HybridTimestamp::upper_bound_at(SimTime::from_micros(10));
        assert!(v1 <= bound && v2 <= bound);
        assert!(v3 > bound);
    }

    #[test]
    fn resuming_continues_sequence() {
        let clock = SimClock::new();
        let hc = HybridClock::new(clock.clone());
        hc.next();
        hc.next();
        let saved = hc.peek_seq();
        let resumed = HybridClock::resuming_from(clock, saved);
        assert_eq!(resumed.next().seq, saved);
    }

    #[test]
    fn a_pin_holds_the_instant_while_the_clock_moves_and_unwinds_cleanly() {
        let clock = SimClock::new();
        let hc = HybridClock::new(clock.clone());
        let at = SimTime::from_micros(5);
        let (a, b) = hc.pinned(at, || {
            let a = hc.next();
            clock.advance(SimDuration::from_micros(100));
            (a, hc.next())
        });
        assert_eq!((a.time, b.time, hc.now()), (at, at, clock.now()));
        assert!(a < b, "the sequence still orders stamps of one instant");

        let hc2 = hc.clone();
        let unwound = std::panic::catch_unwind(move || hc2.pinned(at, || panic!("step failed")));
        assert!(unwound.is_err());
        assert_eq!(
            hc.next().time,
            clock.now(),
            "an unwinding step leaves no pin behind"
        );
    }

    #[test]
    fn sentinels_bracket_everything() {
        let hc = HybridClock::new(SimClock::new());
        let s = hc.next();
        assert!(HybridTimestamp::ZERO < s);
        assert!(s < HybridTimestamp::MAX);
    }
}

//! I/O statistics collected by [`crate::TimedDisk`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use s4_clock::SimDuration;

/// A point-in-time snapshot of device counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of read requests issued.
    pub reads: u64,
    /// Number of write requests issued.
    pub writes: u64,
    /// Sectors transferred by reads.
    pub sectors_read: u64,
    /// Sectors transferred by writes.
    pub sectors_written: u64,
    /// Total simulated time the device spent servicing requests, in
    /// microseconds.
    pub busy_us: u64,
}

impl DiskStats {
    /// Counter-wise difference `self - earlier`; useful for measuring a
    /// benchmark phase.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            sectors_read: self.sectors_read - earlier.sectors_read,
            sectors_written: self.sectors_written - earlier.sectors_written,
            busy_us: self.busy_us - earlier.busy_us,
        }
    }
}

/// Shared live counters; cheap to clone, snapshot with
/// [`StatsHandle::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct StatsHandle {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    sectors_read: AtomicU64,
    sectors_written: AtomicU64,
    busy_us: AtomicU64,
}

impl StatsHandle {
    /// Records one read of `sectors` sectors taking `t`.
    pub(crate) fn record_read(&self, sectors: u64, t: SimDuration) {
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
        self.inner
            .sectors_read
            .fetch_add(sectors, Ordering::Relaxed);
        self.inner
            .busy_us
            .fetch_add(t.as_micros(), Ordering::Relaxed);
    }

    /// Records one write of `sectors` sectors taking `t`.
    pub(crate) fn record_write(&self, sectors: u64, t: SimDuration) {
        self.inner.writes.fetch_add(1, Ordering::Relaxed);
        self.inner
            .sectors_written
            .fetch_add(sectors, Ordering::Relaxed);
        self.inner
            .busy_us
            .fetch_add(t.as_micros(), Ordering::Relaxed);
    }

    /// Returns a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> DiskStats {
        DiskStats {
            reads: self.inner.reads.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
            sectors_read: self.inner.sectors_read.load(Ordering::Relaxed),
            sectors_written: self.inner.sectors_written.load(Ordering::Relaxed),
            busy_us: self.inner.busy_us.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let h = StatsHandle::default();
        h.record_read(8, SimDuration::from_micros(100));
        h.record_write(16, SimDuration::from_micros(200));
        h.record_write(16, SimDuration::from_micros(200));
        let s = h.snapshot();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.sectors_read, 8);
        assert_eq!(s.sectors_written, 32);
        assert_eq!(s.busy_us, 500);
    }

    #[test]
    fn since_subtracts() {
        let h = StatsHandle::default();
        h.record_read(1, SimDuration::from_micros(10));
        let mark = h.snapshot();
        h.record_read(2, SimDuration::from_micros(20));
        let delta = h.snapshot().since(&mark);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.sectors_read, 2);
        assert_eq!(delta.busy_us, 20);
    }
}

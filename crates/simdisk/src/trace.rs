//! Request tracing for crash-point enumeration.
//!
//! [`TraceDisk`] wraps any [`BlockDev`] and records every request —
//! class, start sector, and byte length — while mirroring it to the
//! inner device unchanged. The crash-consistency torture harness runs a
//! "golden" (fault-free) workload against a `TraceDisk` to learn how
//! many device requests the workload issues; each recorded request index
//! then becomes one crash point for a subsequent
//! [`FaultyDisk`](crate::FaultyDisk) replay.

use std::sync::{Arc, Mutex};

use crate::dev::{BlockDev, DiskError};
use crate::fault::RequestClassMask;

/// The class of one traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceClass {
    /// A write request.
    Write,
    /// A sync (flush/barrier) request.
    Sync,
    /// A read request.
    Read,
}

impl TraceClass {
    /// The [`RequestClassMask`] bit corresponding to this class.
    pub(crate) fn mask(self) -> RequestClassMask {
        match self {
            TraceClass::Write => RequestClassMask::WRITES,
            TraceClass::Sync => RequestClassMask::SYNCS,
            TraceClass::Read => RequestClassMask::READS,
        }
    }
}

/// One traced device request.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Request class.
    pub class: TraceClass,
    /// Start sector (0 for sync).
    pub sector: u64,
    /// Transfer length in bytes (0 for sync).
    pub len: usize,
}

/// The trace a [`TraceDisk`] accumulates, shareable via
/// [`TraceDisk::handle`]: a handle keeps observing requests after the
/// disk itself has been consumed by a drive (`S4Drive::format` takes the
/// device by value, so the trace must be readable from outside while the
/// drive runs). Every count is a count of [`records`](Self::records).
#[derive(Clone, Default)]
pub struct TraceHandle {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceHandle {
    /// Snapshot of every request recorded so far, in arrival order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Total write requests recorded.
    pub fn writes(&self) -> u64 {
        self.countable(RequestClassMask::WRITES)
    }

    /// Total sync requests recorded.
    pub fn syncs(&self) -> u64 {
        self.countable(RequestClassMask::SYNCS)
    }

    /// Total read requests recorded.
    pub fn reads(&self) -> u64 {
        self.countable(RequestClassMask::READS)
    }

    /// Number of recorded requests whose class is in `mask` — the size of
    /// the crash-point domain a [`FaultPlan`](crate::FaultPlan) with that
    /// `counted` mask would enumerate over this trace.
    pub fn countable(&self, mask: RequestClassMask) -> u64 {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter(|r| mask.contains(r.class.mask()))
            .count() as u64
    }

    /// Discards the trace collected so far.
    pub fn clear(&self) {
        self.records.lock().unwrap().clear();
    }

    fn record(&self, class: TraceClass, sector: u64, len: usize) {
        self.records
            .lock()
            .unwrap()
            .push(TraceRecord { class, sector, len });
    }
}

/// A [`BlockDev`] wrapper that records every request while mirroring it
/// to the inner device; read the trace through [`handle`](Self::handle).
pub struct TraceDisk<D: BlockDev> {
    inner: D,
    trace: TraceHandle,
}

impl<D: BlockDev> TraceDisk<D> {
    /// Wraps `inner`, starting with an empty trace.
    pub fn new(inner: D) -> Self {
        TraceDisk {
            inner,
            trace: TraceHandle::default(),
        }
    }

    /// A shared handle onto this disk's trace; stays live after the disk
    /// is moved into a drive.
    pub fn handle(&self) -> TraceHandle {
        self.trace.clone()
    }

    /// Consumes the wrapper, returning the inner device.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDev> BlockDev for TraceDisk<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.trace.record(TraceClass::Read, sector, buf.len());
        self.inner.read(sector, buf)
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        self.trace.record(TraceClass::Write, sector, buf.len());
        self.inner.write(sector, buf)
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.trace.record(TraceClass::Sync, 0, 0);
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::MemDisk;
    use crate::SECTOR_SIZE;

    #[test]
    fn trace_mirrors_and_records() {
        let d = TraceDisk::new(MemDisk::new(64));
        let t = d.handle();
        d.write(4, &[9u8; SECTOR_SIZE * 2]).unwrap();
        d.sync().unwrap();
        let mut out = [0u8; SECTOR_SIZE];
        d.read(5, &mut out).unwrap();
        assert_eq!(out[0], 9, "write mirrored to inner device");

        let recs = t.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].class, TraceClass::Write);
        assert_eq!(recs[0].sector, 4);
        assert_eq!(recs[0].len, SECTOR_SIZE * 2);
        assert_eq!(recs[1].class, TraceClass::Sync);
        assert_eq!(recs[2].class, TraceClass::Read);
        assert_eq!((t.writes(), t.syncs(), t.reads()), (1, 1, 1));
    }

    #[test]
    fn countable_respects_mask() {
        let d = TraceDisk::new(MemDisk::new(64));
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        d.write(1, &[1u8; SECTOR_SIZE]).unwrap();
        d.sync().unwrap();
        d.read(0, &mut [0u8; SECTOR_SIZE]).unwrap();
        let t = d.handle();
        assert_eq!(t.countable(RequestClassMask::WRITES), 2);
        assert_eq!(
            t.countable(RequestClassMask::WRITES | RequestClassMask::SYNCS),
            3
        );
        assert_eq!(t.countable(RequestClassMask::ALL), 4);
    }

    #[test]
    fn handle_observes_after_move() {
        let d = TraceDisk::new(MemDisk::new(64));
        let h = d.handle();
        let moved = d; // simulate handing the disk to a drive
        moved.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        moved.sync().unwrap();
        assert_eq!(h.writes(), 1);
        assert_eq!(
            h.countable(RequestClassMask::WRITES | RequestClassMask::SYNCS),
            2
        );
    }

    #[test]
    fn clear_resets_trace() {
        let d = TraceDisk::new(MemDisk::new(64));
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        let t = d.handle();
        t.clear();
        assert!(t.records().is_empty());
        assert_eq!(t.writes(), 0);
    }
}

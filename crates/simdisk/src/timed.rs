//! [`TimedDisk`]: glue between a raw sector store, the mechanical model,
//! and the simulated clock.

use s4_clock::sync::Mutex;

use s4_clock::SimClock;

use crate::dev::{BlockDev, DiskError};
use crate::model::{DiskModel, DiskModelParams};
use crate::stats::StatsHandle;
use crate::SECTOR_SIZE;

/// A block device that charges a `DiskModel`'s service time to a
/// [`SimClock`] and records [`DiskStats`](crate::DiskStats) for every request, delegating
/// the actual data movement to an inner [`BlockDev`].
pub struct TimedDisk<D: BlockDev> {
    inner: D,
    model: Mutex<DiskModel>,
    clock: SimClock,
    stats: StatsHandle,
}

impl<D: BlockDev> TimedDisk<D> {
    /// Wraps `inner` with the given model parameters, charging time to
    /// `clock`.
    pub fn new(inner: D, params: DiskModelParams, clock: SimClock) -> Self {
        let model = DiskModel::new(params, inner.num_sectors());
        TimedDisk {
            inner,
            model: Mutex::new(model),
            clock,
            stats: StatsHandle::default(),
        }
    }

    /// Returns a handle to the live statistics counters.
    pub fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }
}

impl<D: BlockDev> BlockDev for TimedDisk<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.inner.read(sector, buf)?;
        let count = (buf.len() / SECTOR_SIZE) as u64;
        let t = self.model.lock().service(sector, count);
        self.clock.advance(t);
        s4_obs::span::charge(s4_obs::span::Layer::Disk, t.as_micros());
        self.stats.record_read(count, t);
        Ok(())
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        self.inner.write(sector, buf)?;
        let count = (buf.len() / SECTOR_SIZE) as u64;
        let t = self.model.lock().service(sector, count);
        self.clock.advance(t);
        s4_obs::span::charge(s4_obs::span::Layer::Disk, t.as_micros());
        self.stats.record_write(count, t);
        Ok(())
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }

    fn peek(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        // No model charge, no stats: the caller is serving from its own
        // memory; the device is only the byte store.
        self.inner.peek(sector, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::MemDisk;

    #[test]
    fn timed_disk_advances_clock_and_counts() {
        let clock = SimClock::new();
        let d = TimedDisk::new(
            MemDisk::new(100_000),
            DiskModelParams::cheetah_9gb_10k(),
            clock.clone(),
        );
        let buf = vec![7u8; SECTOR_SIZE * 8];
        d.write(0, &buf).unwrap();
        let mut out = vec![0u8; SECTOR_SIZE * 8];
        d.read(0, &mut out).unwrap();
        assert_eq!(out, buf);
        let s = d.stats_handle().snapshot();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!(s.sectors_written, 8);
        assert!(clock.now().as_micros() > 0, "mechanical time was charged");
        assert_eq!(clock.now().as_micros(), s.busy_us);
    }

    #[test]
    fn errors_cost_nothing() {
        let clock = SimClock::new();
        let d = TimedDisk::new(
            MemDisk::new(8),
            DiskModelParams::cheetah_9gb_10k(),
            clock.clone(),
        );
        let buf = vec![0u8; SECTOR_SIZE * 16];
        assert!(d.write(0, &buf).is_err());
        assert_eq!(clock.now().as_micros(), 0);
        assert_eq!(d.stats_handle().snapshot().writes, 0);
    }

    #[test]
    fn sequential_stream_is_cheaper_than_scattered() {
        let params = DiskModelParams::cheetah_9gb_10k();

        let seq_clock = SimClock::new();
        let seq = TimedDisk::new(MemDisk::new(1_000_000), params, seq_clock.clone());
        let buf = vec![1u8; SECTOR_SIZE * 8];
        for i in 0..64 {
            seq.write(i * 8, &buf).unwrap();
        }

        let rnd_clock = SimClock::new();
        let rnd = TimedDisk::new(MemDisk::new(1_000_000), params, rnd_clock.clone());
        for i in 0..64u64 {
            rnd.write((i * 7919 * 101) % 900_000, &buf).unwrap();
        }

        assert!(rnd_clock.now().as_micros() > seq_clock.now().as_micros() * 3);
    }
}

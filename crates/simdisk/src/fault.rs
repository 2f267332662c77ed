//! Fault injection for crash-recovery and failure testing.
//!
//! [`FaultyDisk`] wraps any [`BlockDev`] and applies a [`FaultPlan`]:
//! after a configured number of counted requests the device can tear the
//! in-flight write (persist only a prefix of its sectors) and/or fail
//! permanently. Integration tests use this to emulate power loss
//! mid-segment and verify that remount recovers a consistent state from
//! the log.
//!
//! Which request classes count toward the fault trigger is controlled by
//! [`RequestClassMask`]. Historically only `write()` requests counted,
//! which made crash points *between* a data write and its `sync()`
//! unreachable; plans can now count sync and read requests too. A power
//! loss that fires on a write tears it per the plan's [`TornPattern`],
//! which decides sector-by-sector what persists (prefix, interleaved, or
//! holed); a fault that fires on a sync or read simply fails the request
//! (there is nothing to tear).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::dev::{BlockDev, DiskError};
use crate::SECTOR_SIZE;

/// Bitmask of request classes that count toward (and may trigger) a
/// [`FaultPlan`].
///
/// Plain `u8`-backed newtype — no external bitflags dependency. Combine
/// with [`RequestClassMask::union`] or the `|` operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestClassMask(u8);

impl RequestClassMask {
    /// Write requests.
    pub const WRITES: RequestClassMask = RequestClassMask(0b001);
    /// Sync (flush/barrier) requests.
    pub const SYNCS: RequestClassMask = RequestClassMask(0b010);
    /// Read requests.
    pub const READS: RequestClassMask = RequestClassMask(0b100);
    /// Every request class.
    pub const ALL: RequestClassMask = RequestClassMask(0b111);

    /// Union of two masks.
    pub const fn union(self, other: RequestClassMask) -> RequestClassMask {
        RequestClassMask(self.0 | other.0)
    }

    /// True if every class in `other` is present in `self`.
    pub(crate) const fn contains(self, other: RequestClassMask) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for RequestClassMask {
    type Output = RequestClassMask;
    fn bitor(self, rhs: RequestClassMask) -> RequestClassMask {
        self.union(rhs)
    }
}

/// Sector-level persistence shape of a torn write: which sectors of the
/// offending multi-sector write actually reach the platter before power
/// dies. Real disks reorder sectors within a queued write, so a crash
/// can persist an arbitrary subset — not just a prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornPattern {
    /// Persist only the first `n` sectors (the historical behaviour;
    /// `Prefix(0)` drops the write entirely).
    Prefix(u64),
    /// Persist alternating sectors, keeping those whose index within the
    /// write is congruent to `phase` (mod 2) — the interleaved loss a
    /// disk's zig-zag servo scheduling can produce.
    Interleaved {
        /// Parity of the sector indices that persist (0 or 1).
        phase: u64,
    },
    /// Persist everything except a hole of `len` sectors starting at
    /// index `start` within the write — a dropped DMA chunk mid-write.
    Holed {
        /// First lost sector index within the write.
        start: u64,
        /// Number of consecutive lost sectors.
        len: u64,
    },
}

impl TornPattern {
    /// Whether sector `index` (within the torn write) persists.
    pub fn keeps(self, index: u64) -> bool {
        match self {
            TornPattern::Prefix(n) => index < n,
            TornPattern::Interleaved { phase } => index % 2 == phase % 2,
            TornPattern::Holed { start, len } => index < start || index >= start + len,
        }
    }
}

/// How the fault manifests once the trigger count is reached. The mode
/// alone decides whether the device dies and whether a write tears.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultMode {
    /// The crash model: the firing write persists only the sectors
    /// `torn` keeps, then every device on the rail refuses requests
    /// until [`FaultyDisk::revive`].
    PowerLoss {
        /// Which sectors of the firing write persist.
        torn: TornPattern,
    },
    /// Whole-member death: the firing request and every request after it
    /// fail with [`DiskError::DeviceFailed`], permanently (no revive is
    /// expected — the member is replaced, not rebooted). Nothing tears:
    /// the failing request performs no I/O at all.
    MemberDeath,
    /// A flaky-but-alive medium: every `period`-th counted request (from
    /// the trigger onward) fails with a transient [`DiskError::Io`]; the
    /// device never dies and intervening requests succeed. Exercises
    /// bounded-retry paths.
    Intermittent {
        /// Counted requests between consecutive transient failures
        /// (clamped to at least 1).
        period: u64,
    },
}

/// What should go wrong, and when; built by its constructors.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Number of counted requests to let through untouched before the
    /// fault fires. `u64::MAX` means never.
    fires_at: u64,
    /// Which request classes count toward `fires_at`.
    counted: RequestClassMask,
    mode: FaultMode,
}

impl FaultPlan {
    /// A plan that never faults.
    pub fn none() -> Self {
        Self::count_only(RequestClassMask::WRITES)
    }

    /// A plan that never faults but counts requests of the given classes,
    /// observable via [`FaultyDisk::requests_seen`] — used to measure a
    /// workload's fault domain before enumerating injection points.
    pub fn count_only(counted: RequestClassMask) -> Self {
        Self::power_loss_after_requests(u64::MAX, counted)
    }

    /// Power loss after `n` counted requests of the given classes,
    /// dropping the offending request entirely if it is a write.
    pub fn power_loss_after_requests(n: u64, counted: RequestClassMask) -> Self {
        Self::power_loss_with_pattern(n, TornPattern::Prefix(0), counted)
    }

    /// Power loss after `n` counted requests, tearing the offending write
    /// per an arbitrary [`TornPattern`].
    pub fn power_loss_with_pattern(n: u64, torn: TornPattern, counted: RequestClassMask) -> Self {
        FaultPlan {
            fires_at: n,
            counted,
            mode: FaultMode::PowerLoss { torn },
        }
    }

    /// Whole-member death after `n` counted requests: the (n+1)-th
    /// counted request and everything after it fail with
    /// [`DiskError::DeviceFailed`].
    pub fn member_death_after_requests(n: u64, counted: RequestClassMask) -> Self {
        FaultPlan {
            fires_at: n,
            counted,
            mode: FaultMode::MemberDeath,
        }
    }

    /// Intermittent transient I/O errors: starting at counted request
    /// `start`, every `period`-th counted request fails with a transient
    /// [`DiskError::Io`]; the device stays alive throughout.
    pub fn intermittent_io(start: u64, period: u64, counted: RequestClassMask) -> Self {
        FaultPlan {
            fires_at: start,
            counted,
            mode: FaultMode::Intermittent { period },
        }
    }
}

/// A [`BlockDev`] wrapper that injects faults per a [`FaultPlan`].
pub struct FaultyDisk<D: BlockDev> {
    inner: D,
    plan: FaultPlan,
    /// Live copy of `plan.fires_at`; set to `u64::MAX` on revive
    /// so the fault does not re-fire.
    armed_at: AtomicU64,
    requests_seen: AtomicU64,
    /// The power rail: every device holding this flag is dead while it
    /// is set.
    dead: Arc<AtomicBool>,
}

impl<D: BlockDev> FaultyDisk<D> {
    /// Wraps `inner` with the given plan, on a power rail of its own.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        Self::on_rail(inner, plan, Arc::default())
    }

    /// Wraps `inner` with the given plan on the shared power rail `rail`:
    /// the instant any device on a rail fires a fault that kills it,
    /// every device on the rail refuses requests — whole-machine power
    /// loss — until one of them is [revived](FaultyDisk::revive).
    pub fn on_rail(inner: D, plan: FaultPlan, rail: Arc<AtomicBool>) -> Self {
        FaultyDisk {
            inner,
            plan,
            armed_at: AtomicU64::new(plan.fires_at),
            requests_seen: AtomicU64::new(0),
            dead: rail,
        }
    }

    /// True once the fault has fired and the device is refusing requests.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Brings a dead device back to life ("reboot"): subsequent requests
    /// succeed and observe whatever was actually persisted.
    pub fn revive(&self) {
        self.dead.store(false, Ordering::SeqCst);
        // Disarm the plan so the fault does not re-fire.
        self.armed_at.store(u64::MAX, Ordering::SeqCst);
    }

    /// Consumes the wrapper, returning the inner device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Counted requests observed so far (only classes in the plan's
    /// [`RequestClassMask`] increment this).
    pub fn requests_seen(&self) -> u64 {
        self.requests_seen.load(Ordering::SeqCst)
    }

    /// Counts one request of class `class` against the plan.
    fn count(&self, class: RequestClassMask) -> Counted {
        if !self.plan.counted.contains(class) {
            return Counted::Pass;
        }
        let armed_at = self.armed_at.load(Ordering::SeqCst);
        let n = self.requests_seen.fetch_add(1, Ordering::SeqCst);
        if let FaultMode::Intermittent { period } = self.plan.mode {
            return if armed_at != u64::MAX
                && n >= armed_at
                && (n - armed_at).is_multiple_of(period.max(1))
            {
                Counted::Fire
            } else {
                Counted::Pass
            };
        }
        if n == armed_at {
            Counted::Fire
        } else if n > armed_at {
            Counted::Dead
        } else {
            Counted::Pass
        }
    }

    /// Handles a firing fault on a read or sync (no data to tear).
    fn fire_simple(&self, what: &str) -> DiskError {
        match self.plan.mode {
            FaultMode::MemberDeath => {
                self.dead.store(true, Ordering::SeqCst);
                DiskError::DeviceFailed
            }
            FaultMode::Intermittent { .. } => DiskError::Io(format!("injected {what} fault")),
            FaultMode::PowerLoss { .. } => {
                self.dead.store(true, Ordering::SeqCst);
                DiskError::Io(format!("injected {what} fault"))
            }
        }
    }
}

/// Outcome of counting one request against the plan.
enum Counted {
    /// Request proceeds normally.
    Pass,
    /// The fault fires on this request.
    Fire,
    /// The fault already fired and the plan kills later requests.
    Dead,
}

impl<D: BlockDev> BlockDev for FaultyDisk<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        if self.is_dead() {
            return Err(DiskError::DeviceFailed);
        }
        match self.count(RequestClassMask::READS) {
            Counted::Fire => Err(self.fire_simple("read")),
            Counted::Dead => Err(DiskError::DeviceFailed),
            Counted::Pass => self.inner.read(sector, buf),
        }
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        if self.is_dead() {
            return Err(DiskError::DeviceFailed);
        }
        match self.count(RequestClassMask::WRITES) {
            Counted::Fire => {
                let torn = match self.plan.mode {
                    FaultMode::MemberDeath => {
                        self.dead.store(true, Ordering::SeqCst);
                        return Err(DiskError::DeviceFailed);
                    }
                    // A transient write failure persists nothing: the
                    // controller fails before touching the medium, so the
                    // caller can safely retry.
                    FaultMode::Intermittent { .. } => {
                        return Err(DiskError::Io("injected write fault".into()));
                    }
                    FaultMode::PowerLoss { torn } => torn,
                };
                // Tear the write: persist only the sectors the pattern
                // keeps, as maximal contiguous runs.
                let nsectors = buf.len().div_ceil(SECTOR_SIZE) as u64;
                let mut run_start: Option<u64> = None;
                for i in 0..=nsectors {
                    let keep = i < nsectors && torn.keeps(i);
                    match (keep, run_start) {
                        (true, None) => run_start = Some(i),
                        (false, Some(s)) => {
                            let lo = (s as usize) * SECTOR_SIZE;
                            let hi = ((i as usize) * SECTOR_SIZE).min(buf.len());
                            self.inner.write(sector + s, &buf[lo..hi])?;
                            run_start = None;
                        }
                        _ => {}
                    }
                }
                self.dead.store(true, Ordering::SeqCst);
                Err(DiskError::Io("injected torn write".into()))
            }
            Counted::Dead => Err(DiskError::DeviceFailed),
            Counted::Pass => self.inner.write(sector, buf),
        }
    }

    fn sync(&self) -> Result<(), DiskError> {
        if self.is_dead() {
            return Err(DiskError::DeviceFailed);
        }
        match self.count(RequestClassMask::SYNCS) {
            Counted::Fire => Err(self.fire_simple("sync")),
            Counted::Dead => Err(DiskError::DeviceFailed),
            Counted::Pass => self.inner.sync(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::MemDisk;

    #[test]
    fn no_fault_plan_is_transparent() {
        let d = FaultyDisk::new(MemDisk::new(64), FaultPlan::none());
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        let mut out = [0u8; SECTOR_SIZE];
        d.read(0, &mut out).unwrap();
        assert_eq!(out[0], 1);
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::power_loss_with_pattern(1, TornPattern::Prefix(1), RequestClassMask::WRITES),
        );
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        // This 4-sector write tears after 1 sector.
        let err = d.write(8, &[2u8; SECTOR_SIZE * 4]).unwrap_err();
        assert!(matches!(err, DiskError::Io(_)));
        assert!(d.is_dead());
        assert!(matches!(
            d.read(0, &mut [0u8; SECTOR_SIZE]),
            Err(DiskError::DeviceFailed)
        ));

        d.revive();
        let mut out = [0u8; SECTOR_SIZE];
        d.read(8, &mut out).unwrap();
        assert_eq!(out[0], 2, "first torn sector persisted");
        d.read(9, &mut out).unwrap();
        assert_eq!(out[0], 0, "later sectors of torn write lost");
    }

    #[test]
    fn interleaved_tear_keeps_alternating_sectors() {
        for phase in [0u64, 1] {
            let d = FaultyDisk::new(
                MemDisk::new(64),
                FaultPlan::power_loss_with_pattern(
                    0,
                    TornPattern::Interleaved { phase },
                    RequestClassMask::WRITES,
                ),
            );
            assert!(d.write(8, &[9u8; SECTOR_SIZE * 4]).is_err());
            d.revive();
            for i in 0..4u64 {
                let mut out = [0u8; SECTOR_SIZE];
                d.read(8 + i, &mut out).unwrap();
                let expect = if i % 2 == phase { 9 } else { 0 };
                assert_eq!(out[0], expect, "sector {i} phase {phase}");
            }
        }
    }

    #[test]
    fn holed_tear_loses_middle_run_only() {
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::power_loss_with_pattern(
                0,
                TornPattern::Holed { start: 1, len: 2 },
                RequestClassMask::WRITES,
            ),
        );
        assert!(d.write(0, &[5u8; SECTOR_SIZE * 4]).is_err());
        d.revive();
        for (i, expect) in [(0u64, 5u8), (1, 0), (2, 0), (3, 5)] {
            let mut out = [0u8; SECTOR_SIZE];
            d.read(i, &mut out).unwrap();
            assert_eq!(out[0], expect, "sector {i}");
        }
    }

    #[test]
    fn torn_pattern_keep_decisions() {
        assert!(TornPattern::Prefix(2).keeps(1));
        assert!(!TornPattern::Prefix(2).keeps(2));
        assert!(TornPattern::Interleaved { phase: 0 }.keeps(4));
        assert!(!TornPattern::Interleaved { phase: 0 }.keeps(3));
        assert!(TornPattern::Holed { start: 2, len: 3 }.keeps(1));
        assert!(!TornPattern::Holed { start: 2, len: 3 }.keeps(4));
        assert!(TornPattern::Holed { start: 2, len: 3 }.keeps(5));
    }

    #[test]
    fn devices_on_one_rail_die_and_revive_together() {
        let rail = Arc::default();
        let plan = FaultPlan::power_loss_after_requests(0, RequestClassMask::WRITES);
        let a = FaultyDisk::on_rail(MemDisk::new(64), plan, Arc::clone(&rail));
        let b = FaultyDisk::on_rail(MemDisk::new(64), FaultPlan::none(), rail);
        let alone = FaultyDisk::new(MemDisk::new(64), FaultPlan::none());
        b.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        assert!(a.write(0, &[2u8; SECTOR_SIZE]).is_err());
        assert!(a.is_dead() && b.is_dead(), "one fault cuts the whole rail");
        assert!(matches!(
            b.write(1, &[3u8; SECTOR_SIZE]),
            Err(DiskError::DeviceFailed)
        ));
        // A device made by `new` has a rail of its own.
        assert!(!alone.is_dead());
        alone.write(0, &[4u8; SECTOR_SIZE]).unwrap();
        // Power comes back for everyone; what was persisted is intact.
        a.revive();
        assert!(!b.is_dead());
        let mut out = [0u8; SECTOR_SIZE];
        b.read(0, &mut out).unwrap();
        assert_eq!(out[0], 1);
        b.read(1, &mut out).unwrap();
        assert_eq!(
            out[0], 0,
            "a write refused by a dead rail persisted nothing"
        );
    }

    #[test]
    fn revive_disarms_plan() {
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::power_loss_after_requests(0, RequestClassMask::WRITES),
        );
        assert!(d.write(0, &[1u8; SECTOR_SIZE]).is_err());
        d.revive();
        for i in 0..10 {
            d.write(i, &[3u8; SECTOR_SIZE]).unwrap();
        }
    }

    #[test]
    fn writes_only_mask_ignores_sync_and_reads() {
        // Fault after 1 counted request, writes-only: sync and read must
        // neither count nor fire.
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::power_loss_after_requests(1, RequestClassMask::WRITES),
        );
        d.sync().unwrap();
        d.read(0, &mut [0u8; SECTOR_SIZE]).unwrap();
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        d.sync().unwrap();
        assert!(d.write(1, &[2u8; SECTOR_SIZE]).is_err());
        assert!(d.is_dead());
    }

    #[test]
    fn sync_counts_and_fires_with_syncs_mask() {
        let mask = RequestClassMask::WRITES | RequestClassMask::SYNCS;
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::power_loss_after_requests(2, mask),
        );
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap(); // request 0
        d.sync().unwrap(); // request 1
        let err = d.sync().unwrap_err(); // request 2: fires
        assert!(matches!(err, DiskError::Io(_)));
        assert!(d.is_dead());
        d.revive();
        // The write before the fault persisted.
        let mut out = [0u8; SECTOR_SIZE];
        d.read(0, &mut out).unwrap();
        assert_eq!(out[0], 1);
    }

    #[test]
    fn read_counts_and_fires_with_reads_mask() {
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::power_loss_after_requests(1, RequestClassMask::ALL),
        );
        d.write(0, &[7u8; SECTOR_SIZE]).unwrap(); // request 0
        let err = d.read(0, &mut [0u8; SECTOR_SIZE]).unwrap_err(); // request 1: fires
        assert!(matches!(err, DiskError::Io(_)));
        assert!(d.is_dead());
    }

    #[test]
    fn fault_on_sync_loses_nothing_already_written() {
        // A fault firing on sync must not tear or drop prior writes: the
        // crash point sits between a data write and its barrier.
        let mask = RequestClassMask::WRITES | RequestClassMask::SYNCS;
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::power_loss_after_requests(3, mask),
        );
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap(); // 0
        d.write(1, &[2u8; SECTOR_SIZE]).unwrap(); // 1
        d.write(2, &[3u8; SECTOR_SIZE]).unwrap(); // 2
        assert!(d.sync().is_err()); // 3: fires
        d.revive();
        for (i, v) in [1u8, 2, 3].iter().enumerate() {
            let mut out = [0u8; SECTOR_SIZE];
            d.read(i as u64, &mut out).unwrap();
            assert_eq!(out[0], *v);
        }
    }

    #[test]
    fn member_death_fails_everything_without_tearing() {
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::member_death_after_requests(1, RequestClassMask::WRITES),
        );
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap(); // request 0
        assert!(matches!(
            d.write(1, &[2u8; SECTOR_SIZE * 4]),
            Err(DiskError::DeviceFailed)
        ));
        assert!(d.is_dead());
        // Reads die too (whole-member death, not a media error).
        assert!(matches!(
            d.read(0, &mut [0u8; SECTOR_SIZE]),
            Err(DiskError::DeviceFailed)
        ));
        // The failing write persisted nothing.
        d.revive();
        let mut out = [0u8; SECTOR_SIZE];
        d.read(1, &mut out).unwrap();
        assert_eq!(out[0], 0, "dead member's write never reached the medium");
        d.read(0, &mut out).unwrap();
        assert_eq!(out[0], 1, "pre-death write intact");
    }

    #[test]
    fn intermittent_fails_periodically_and_stays_alive() {
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::intermittent_io(2, 3, RequestClassMask::WRITES),
        );
        let mut outcomes = Vec::new();
        for i in 0..9u64 {
            outcomes.push(d.write(i, &[7u8; SECTOR_SIZE]).is_ok());
        }
        // Requests 2, 5, 8 fail; everything else succeeds.
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert!(!d.is_dead());
        // Failed writes persisted nothing; successful ones did.
        d.revive();
        let mut out = [0u8; SECTOR_SIZE];
        d.read(2, &mut out).unwrap();
        assert_eq!(out[0], 0);
        d.read(3, &mut out).unwrap();
        assert_eq!(out[0], 7);
    }

    #[test]
    fn count_only_observes_without_firing() {
        let d = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan::count_only(RequestClassMask::ALL),
        );
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        d.sync().unwrap();
        d.read(0, &mut [0u8; SECTOR_SIZE]).unwrap();
        assert_eq!(d.requests_seen(), 3);
        assert!(!d.is_dead());
    }

    #[test]
    fn mask_ops() {
        let m = RequestClassMask::WRITES | RequestClassMask::READS;
        assert!(m.contains(RequestClassMask::WRITES));
        assert!(m.contains(RequestClassMask::READS));
        assert!(!m.contains(RequestClassMask::SYNCS));
        assert!(RequestClassMask::ALL.contains(m));
        assert!(!RequestClassMask(0).contains(RequestClassMask::WRITES));
    }
}

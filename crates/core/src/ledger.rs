//! The ledger: which log blocks are reachable, and through how many
//! references — said once.
//!
//! A plain block (data, a reserved-stream block, one block of a dedicated
//! checkpoint chain) is held by one reference; a shared container (see
//! [`crate::packed`]) by one per slot some object still points at. Every
//! block the drive appends enters through [`Ledger::append`] and leaves
//! through [`Ledger::release`] (the last reference) or, when the cleaner
//! copies it out of a victim segment, through [`Ledger::moved`]. Nothing
//! else in this crate appends to the log (`scripts/verify.sh` checks).
//!
//! Those three are also the only writers of each segment's *live count*
//! — the number of held addresses in it, which the cleaner
//! ([`crate::expiry`]) reads to pick a victim, and a segment freed only
//! at zero. It is the drive's one count of liveness; the log keeps none.
//!
//! The ledger is *derivable*: [`Ledger::derive`] recounts it from the
//! object table and the audit log's block list. Mount installs
//! that recount, and [`S4Drive::check_image`](crate::S4Drive::check_image)
//! compares the running ledger against it — nrfs rebuilds its allocator
//! from its records the same way.

use std::collections::{BTreeMap, BTreeSet};

use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log};
use s4_simdisk::BlockDev;

use crate::drive::{old_blocks, Inner};
use crate::object::ObjectEntry;
use crate::persist::{retained, slot_entry};
use crate::Result;

/// One address the running ledger and its recount disagree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Discrepancy {
    /// The block.
    pub addr: BlockAddr,
    /// References the running ledger holds (`None`: not held).
    pub held: Option<u32>,
    /// References the object table accounts for (`None`: unreachable).
    pub derived: Option<u32>,
}

/// One segment whose running live count is not the number of held
/// addresses in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMismatch {
    /// The segment.
    pub segment: u32,
    /// Live blocks the running count holds.
    pub counted: u32,
    /// Held addresses in the segment.
    pub derived: u32,
}

/// Every reachable block: its kind and the references holding it; and
/// per segment, how many of them it holds.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ledger {
    held: BTreeMap<BlockAddr, (BlockKind, u32)>,
    /// Held addresses per segment; a segment holding none has no entry.
    live: BTreeMap<u32, u32>,
    refused: u64,
}

impl Ledger {
    /// Appends one block to the log, held by `refs` references.
    pub(crate) fn append<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        tag: BlockTag,
        data: &[u8],
        refs: u32,
    ) -> s4_lfs::Result<BlockAddr> {
        let addr = log.append(tag, data)?;
        // A stale hold at a reused address is already counted.
        if self.held.insert(addr, (tag.kind, refs)).is_none() {
            *self.live.entry(segment(log, addr)).or_default() += 1;
        }
        Ok(addr)
    }

    /// Drops one reference to the `kind` block at `addr`; the last one
    /// releases the block. Returns the number of blocks released (0 or
    /// 1). An address that is not held, or is held as another kind — a
    /// stale pointer whose address the log has since reused — releases
    /// nothing and is counted.
    pub(crate) fn release<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        addr: BlockAddr,
        kind: BlockKind,
    ) -> u64 {
        let Some((_, n)) = self.held.get_mut(&addr).filter(|(k, _)| *k == kind) else {
            self.refused += 1;
            return 0;
        };
        *n -= 1;
        if *n > 0 {
            return 0;
        }
        self.held.remove(&addr);
        self.uncount(log, addr);
        1
    }

    /// The cleaner copied the block at `old` to `new`, which
    /// [`Ledger::append`] holds: `old`'s references move to it, and
    /// `old` leaves its segment's live count.
    pub(crate) fn moved<D: BlockDev>(&mut self, log: &Log<D>, old: BlockAddr, new: BlockAddr) {
        if let Some(held) = self.held.remove(&old) {
            self.held.insert(new, held);
            self.uncount(log, old);
        }
    }

    fn uncount<D: BlockDev>(&mut self, log: &Log<D>, addr: BlockAddr) {
        let seg = segment(log, addr);
        let n = self.live.get_mut(&seg).expect("a held address is counted");
        *n -= 1;
        if *n == 0 {
            self.live.remove(&seg);
        }
    }

    /// Held addresses in `seg`: its live blocks.
    pub(crate) fn live(&self, seg: u32) -> u32 {
        self.live.get(&seg).copied().unwrap_or(0)
    }

    /// Held addresses in every segment.
    pub(crate) fn total(&self) -> usize {
        self.held.len()
    }

    /// Whether the block at `addr` is reachable.
    pub(crate) fn holds(&self, addr: BlockAddr) -> bool {
        self.held.contains_key(&addr)
    }

    /// Every reachable address, ascending.
    pub(crate) fn addrs(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.held.keys().copied()
    }

    /// Releases refused since mount.
    pub(crate) fn refused(&self) -> u64 {
        self.refused
    }

    /// Every segment whose running live count is not the number of
    /// addresses held in it.
    pub(crate) fn check_segments<D: BlockDev>(&self, log: &Log<D>) -> Vec<SegmentMismatch> {
        let recount = counts(log, self.held.keys());
        let segs: BTreeSet<u32> = self.live.keys().chain(recount.keys()).copied().collect();
        let count = |m: &BTreeMap<u32, u32>, s| m.get(&s).copied().unwrap_or(0);
        segs.into_iter()
            .map(|segment| SegmentMismatch {
                segment,
                counted: count(&self.live, segment),
                derived: count(&recount, segment),
            })
            .filter(|m| m.counted != m.derived)
            .collect()
    }

    /// Every address `self` and `derived` hold by different counts.
    pub(crate) fn diff(&self, derived: &Ledger) -> Vec<Discrepancy> {
        let refs = |l: &Ledger, a| l.held.get(&a).map(|&(_, n)| n);
        let addrs: BTreeSet<BlockAddr> = self.addrs().chain(derived.addrs()).collect();
        addrs
            .into_iter()
            .filter(|&a| refs(self, a) != refs(derived, a))
            .map(|addr| Discrepancy {
                addr,
                held: refs(self, addr),
                derived: refs(derived, addr),
            })
            .collect()
    }

    /// Recounts the ledger from the audit log's block list and
    /// the object table: evicted objects through their checkpoints,
    /// cached ones in place.
    pub(crate) fn derive<D: BlockDev>(log: &Log<D>, inner: &Inner) -> Result<Ledger> {
        let mut held: BTreeMap<BlockAddr, (BlockKind, u32)> = BTreeMap::new();
        let mut slot = |addr, kind| held.entry(addr).or_insert((kind, 0)).1 += 1;
        let mut plain: Vec<(BlockAddr, BlockKind)> = Vec::new();
        let audit = inner.audit.blocks().iter();
        plain.extend(audit.map(|&a| (a, BlockKind::Audit)));
        for s in inner.table.values() {
            let entry = &*slot_entry(log, s)?;
            // Checkpoint storage: chain blocks, or one shared-block reference.
            let chain = entry.checkpoint_blocks.iter();
            plain.extend(chain.map(|&a| (a, BlockKind::ObjectCheckpoint)));
            if !entry.checkpoint_root.is_none() && entry.checkpoint_slot != u32::MAX {
                slot(entry.checkpoint_root, BlockKind::ObjectCheckpoint);
            }
            // Delta-encoded history: one reference on the shared block.
            for dref in entry.deltas.values() {
                slot(dref.block, BlockKind::DeltaData);
            }
            let mut data = |addr| plain.push((addr, BlockKind::Data));
            // Current data blocks.
            entry.meta.blocks.values().for_each(|&a| data(a));
            // Landmark versions pin their block maps.
            for m in &entry.landmarks {
                m.blocks.values().for_each(|&a| data(a));
            }
            // The history the retained journal keeps, and its blocks.
            retained_history(log, entry)?.into_iter().for_each(data);
            for s in &entry.sectors {
                slot(s.addr, BlockKind::JournalSector);
            }
        }
        // A container's count stands where a stale plain pointer shares
        // its address.
        for (addr, kind) in plain {
            held.entry(addr).or_insert((kind, 1));
        }
        Ok(Ledger::with_held(log, held))
    }

    /// A ledger holding `held`, each segment's live count bucketed from it.
    fn with_held<D: BlockDev>(log: &Log<D>, held: BTreeMap<BlockAddr, (BlockKind, u32)>) -> Ledger {
        let live = counts(log, held.keys());
        Ledger {
            held,
            live,
            refused: 0,
        }
    }
}

fn segment<D: BlockDev>(log: &Log<D>, addr: BlockAddr) -> u32 {
    log.geometry().segment_of(addr)
}

/// `addrs` bucketed by segment.
fn counts<'a, D: BlockDev>(
    log: &Log<D>,
    addrs: impl Iterator<Item = &'a BlockAddr>,
) -> BTreeMap<u32, u32> {
    let mut live = BTreeMap::new();
    for &a in addrs {
        *live.entry(segment(log, a)).or_default() += 1;
    }
    live
}

/// The history blocks an object's retained journal keeps alive: every
/// old pointer it names, save the delta-encoded ones, which are
/// accounted through their shared delta block.
pub(crate) fn retained_history<D: BlockDev>(
    log: &Log<D>,
    entry: &ObjectEntry,
) -> Result<Vec<BlockAddr>> {
    let journal = retained(log, entry)?;
    let old = journal.iter().flat_map(old_blocks).map(|c| c.old);
    Ok(old.filter(|a| !entry.deltas.contains_key(&a.0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{PackedBlocks, DELTAS, JOURNAL};
    use s4_lfs::{LogConfig, BLOCK_SIZE};
    use s4_simdisk::MemDisk;

    fn log() -> Log<MemDisk> {
        let config = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        Log::format(MemDisk::with_capacity_bytes(4 << 20), config).unwrap()
    }

    /// Packs `n` one-byte slots into one flushed container.
    fn container(p: PackedBlocks, log: &Log<MemDisk>, l: &mut Ledger, n: u64) -> BlockAddr {
        let items = (0..n).map(|i| (i, vec![i as u8], ())).collect();
        let mut at = BlockAddr::NONE;
        p.pack(log, l, items, |_, addr, _, _, ()| at = addr)
            .unwrap();
        log.flush().unwrap();
        at
    }

    /// The live count of the segment holding `addr`.
    fn counted(log: &Log<MemDisk>, l: &Ledger, addr: BlockAddr) -> u32 {
        l.live(segment(log, addr))
    }

    /// Each segment's count is the number of addresses held in it, the
    /// running check finds nothing, and derive's bucketing of the same
    /// holds gives the same counts.
    fn agrees(log: &Log<MemDisk>, l: &Ledger) {
        for seg in 0..log.geometry().num_segments {
            let held = l.held.keys().filter(|&&a| segment(log, a) == seg);
            assert_eq!(l.live(seg), held.count() as u32, "segment {seg}");
        }
        assert_eq!(l.check_segments(log), []);
        assert_eq!(Ledger::with_held(log, l.held.clone()).live, l.live);
    }

    #[test]
    fn each_segment_counts_its_held_addresses() {
        let (log, mut l) = (log(), Ledger::default());
        let tag = |i| BlockTag::new(BlockKind::Data, 1, i);
        let block = [1; BLOCK_SIZE];
        let plain: Vec<BlockAddr> = (0..20)
            .map(|i| l.append(&log, tag(i), &block, 1).unwrap())
            .collect();
        let (first, last) = (segment(&log, plain[0]), segment(&log, plain[19]));
        assert_ne!(first, last, "appends across two segments");
        // Released before the flush that writes it.
        assert_eq!(l.release(&log, plain[19], BlockKind::Data), 1);
        agrees(&log, &l);
        // A shared container leaves its count at its last reference.
        let shared = container(DELTAS, &log, &mut l, 2);
        let before = counted(&log, &l, shared);
        assert_eq!(l.release(&log, shared, BlockKind::DeltaData), 0);
        assert_eq!(counted(&log, &l, shared), before);
        agrees(&log, &l);
        assert_eq!(l.release(&log, shared, BlockKind::DeltaData), 1);
        assert_eq!(counted(&log, &l, shared), before - 1);
        agrees(&log, &l);
        // A stale release is refused and counts nothing.
        assert_eq!(l.release(&log, plain[19], BlockKind::Data), 0);
        assert_eq!(l.refused(), 1);
        agrees(&log, &l);
        // A copy at the head takes the count from the first segment.
        let (old, new) = (plain[0], l.append(&log, tag(0), &block, 1).unwrap());
        let (a, b) = (counted(&log, &l, old), counted(&log, &l, new));
        assert_ne!(segment(&log, new), first);
        l.moved(&log, old, new);
        assert_eq!(counted(&log, &l, old), a - 1);
        assert_eq!(counted(&log, &l, new), b);
        agrees(&log, &l);
    }

    #[test]
    fn release_frees_at_zero_and_only_at_zero() {
        let (log, mut l) = (log(), Ledger::default());
        let addr = container(DELTAS, &log, &mut l, 3);
        let before = counted(&log, &l, addr);
        assert_eq!(l.release(&log, addr, BlockKind::DeltaData), 0);
        assert_eq!(l.release(&log, addr, BlockKind::DeltaData), 0);
        assert!(l.holds(addr), "one reference left");
        assert_eq!(counted(&log, &l, addr), before);
        assert_eq!(l.release(&log, addr, BlockKind::DeltaData), 1);
        assert!(l.held.is_empty());
        assert_eq!((counted(&log, &l, addr), l.refused()), (before - 1, 0));
    }

    #[test]
    fn relocation_moves_the_count() {
        let (log, mut l) = (log(), Ledger::default());
        let addr = container(JOURNAL, &log, &mut l, 2);
        let tag = BlockTag::new(BlockKind::JournalSector, 0, 0);
        let new = l.append(&log, tag, &[0; BLOCK_SIZE], 1).unwrap();
        assert_eq!(counted(&log, &l, addr), 2, "the container and its copy");
        l.moved(&log, addr, new);
        let moved = BTreeMap::from([(new, (BlockKind::JournalSector, 2))]);
        assert_eq!(l.held, moved);
        assert_eq!(counted(&log, &l, addr), 1, "the copy alone");
        l.moved(&log, BlockAddr(12345), BlockAddr(6)); // unknown block: no-op
        assert_eq!(l.held, moved);
        agrees(&log, &l);
    }

    /// The parent's event on `image_determinism`'s pinned stream: at step
    /// 894 an expired history pointer of object 28 released address 120 as
    /// data when the log had reused it for a delta container holding 23
    /// references — `live` dropped the block, `dblocks` went on counting 23.
    #[test]
    fn a_stale_pointer_of_another_kind_releases_nothing() {
        let (log, mut l) = (log(), Ledger::default());
        let x = container(DELTAS, &log, &mut l, 3);
        let before = counted(&log, &l, x);
        assert_eq!(l.release(&log, x, BlockKind::Data), 0);
        assert_eq!(l.held[&x], (BlockKind::DeltaData, 3));
        assert_eq!(l.release(&log, BlockAddr(x.0 + 1), BlockKind::Data), 0);
        assert_eq!((counted(&log, &l, x), l.refused()), (before, 2));
    }

    #[test]
    fn diff_names_every_address_held_by_another_count() {
        let (log, mut a, mut b) = (log(), Ledger::default(), Ledger::default());
        let x = container(DELTAS, &log, &mut a, 3);
        let tag = BlockTag::new(BlockKind::Data, 1, 0);
        let (y, seven) = (a.append(&log, tag, &[1], 1).unwrap(), BlockAddr(7));
        b.held.insert(x, (BlockKind::DeltaData, 2));
        b.held.insert(seven, (BlockKind::Data, 1));
        let mut want = vec![
            (x, Some(3), Some(2)),
            (y, Some(1), None),
            (seven, None, Some(1)),
        ];
        want.sort();
        let got = a.diff(&b);
        let got: Vec<_> = got.iter().map(|d| (d.addr, d.held, d.derived)).collect();
        assert_eq!(got, want);
        assert!(a.diff(&a.clone()).is_empty());
    }
}

//! The ledger: which log blocks are reachable, and through how many
//! references — said once.
//!
//! A plain block (data, a reserved-stream block, one block of a dedicated
//! checkpoint chain) is held by one reference; a shared container (see
//! [`crate::packed`]) by one per slot some object still points at. Every
//! block the drive appends enters through [`Ledger::append`] and leaves
//! through [`Ledger::release`] (the last reference returns the block to
//! its segment's usage count) or, when the cleaner reclaims the segment
//! under it, through [`Ledger::moved`]. Nothing else in this crate
//! appends to the log or releases from it (`scripts/verify.sh` checks).
//!
//! The ledger is *derivable*: [`Ledger::derive`] recounts it from the
//! object table and the audit log's block list. Mount installs
//! that recount, and [`S4Drive::check_image`](crate::S4Drive::check_image)
//! compares the running ledger against it — nrfs rebuilds its allocator
//! from its records the same way.

use std::collections::{BTreeMap, BTreeSet};

use s4_journal::JournalEntry;
use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log};
use s4_simdisk::BlockDev;

use crate::drive::{old_blocks, Inner};
use crate::persist::{read_subsector, slot_entry};
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

/// Every reachable block: its kind and the references holding it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ledger {
    held: BTreeMap<BlockAddr, (BlockKind, u32)>,
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
        self.held.insert(addr, (tag.kind, refs));
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
        log.release_blocks([addr]);
        1
    }

    /// The cleaner copied the block at `old` to `new`: its references
    /// move, and `old`'s storage goes with the segment being reclaimed.
    pub(crate) fn moved(&mut self, old: BlockAddr, new: BlockAddr) {
        if let Some(held) = self.held.remove(&old) {
            self.held.insert(new, held);
        }
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
            // Journal blocks, and the history their old-pointers keep.
            let mut history = |entries: &[JournalEntry]| {
                for c in entries.iter().flat_map(old_blocks) {
                    // Delta-encoded history is accounted through its
                    // shared delta block, not the (released) original.
                    if !entry.deltas.contains_key(&c.old.0) {
                        data(c.old);
                    }
                }
            };
            history(&entry.pending);
            for s in &entry.sectors {
                slot(s.addr, BlockKind::JournalSector);
                history(&read_subsector(log, s.addr, s.slot)?.1);
            }
        }
        // A container's count stands where a stale plain pointer shares
        // its address.
        for (addr, kind) in plain {
            held.entry(addr).or_insert((kind, 1));
        }
        Ok(Ledger { held, refused: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{PackedBlocks, DELTAS, JOURNAL};
    use s4_lfs::LogConfig;
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

    /// Live blocks the usage table counts in the segment holding `addr`.
    fn counted(log: &Log<MemDisk>, addr: BlockAddr) -> u32 {
        let seg = log.geometry().segment_of(addr);
        log.usage_snapshot().get(seg).live_blocks
    }

    #[test]
    fn release_frees_at_zero_and_only_at_zero() {
        let (log, mut l) = (log(), Ledger::default());
        let addr = container(DELTAS, &log, &mut l, 3);
        let before = counted(&log, addr);
        assert_eq!(l.release(&log, addr, BlockKind::DeltaData), 0);
        assert_eq!(l.release(&log, addr, BlockKind::DeltaData), 0);
        assert!(l.holds(addr), "one reference left");
        assert_eq!(counted(&log, addr), before);
        assert_eq!(l.release(&log, addr, BlockKind::DeltaData), 1);
        assert!(l.held.is_empty());
        assert_eq!((counted(&log, addr), l.refused()), (before - 1, 0));
    }

    #[test]
    fn relocation_moves_the_count() {
        let (log, mut l) = (log(), Ledger::default());
        let addr = container(JOURNAL, &log, &mut l, 2);
        let before = counted(&log, addr);
        let new = BlockAddr(addr.0 + 100);
        l.moved(addr, new);
        let moved = BTreeMap::from([(new, (BlockKind::JournalSector, 2))]);
        assert_eq!(l.held, moved);
        l.moved(BlockAddr(12345), BlockAddr(6)); // unknown block: no-op
        assert_eq!(l.held, moved);
        assert_eq!(
            counted(&log, addr),
            before,
            "moved leaves storage to the cleaner"
        );
    }

    /// The parent's event on `image_determinism`'s pinned stream: at step
    /// 894 an expired history pointer of object 28 released address 120 as
    /// data when the log had reused it for a delta container holding 23
    /// references — `live` dropped the block, `dblocks` went on counting 23.
    #[test]
    fn a_stale_pointer_of_another_kind_releases_nothing() {
        let (log, mut l) = (log(), Ledger::default());
        let x = container(DELTAS, &log, &mut l, 3);
        let before = counted(&log, x);
        assert_eq!(l.release(&log, x, BlockKind::Data), 0);
        assert_eq!(l.held[&x], (BlockKind::DeltaData, 3));
        assert_eq!(l.release(&log, BlockAddr(x.0 + 1), BlockKind::Data), 0);
        assert_eq!((counted(&log, x), l.refused()), (before, 2));
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

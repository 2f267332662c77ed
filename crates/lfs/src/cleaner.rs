//! The log's half of the S4 cleaner (§4.2.1, Figure 5 of the paper):
//! the walk of a victim segment.
//!
//! Only the upper layer knows which blocks are still referenced — the
//! versions holding a block age out of the detection window there — so
//! it picks the victim and decides, block by block, what to copy
//! forward. What only the log can do is read the victim: the **whole
//! segment** in one sequential transfer (the extra reads the paper
//! blames for S4's higher cleaning overhead), walked batch by batch
//! through its summaries. The upper layer then frees it with
//! [`Log::reclaim_segment`].

use s4_simdisk::BlockDev;

use crate::layout::{BlockAddr, BlockTag, SegmentId, BLOCK_SIZE};
use crate::log::Log;
use crate::summary::Summary;
use crate::Result;

impl<D: BlockDev> Log<D> {
    /// Reads `victim` in one sequential transfer and offers every block
    /// its summaries describe to `f`, in log order: its address, its
    /// tag, and its bytes — the whole block, or, for a carried record
    /// ([`BlockAddr::is_carried`]), the payload at the length it was
    /// appended with, so that a copy of it is short enough to be
    /// carried again.
    pub fn walk_segment(
        &self,
        victim: SegmentId,
        mut f: impl FnMut(&BlockTag, BlockAddr, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let geo = *self.geometry();
        let written = self.usage_snapshot().get(victim).written_blocks;
        let raw = self.read_blocks_raw(geo.addr_of(victim, 0), written)?;

        // A summary at offset p describes the blocks at p+1 ..= p+n, and
        // may carry one record itself.
        let mut p: u32 = 0;
        while p < written {
            let s = &raw[p as usize * BLOCK_SIZE..][..BLOCK_SIZE];
            let at = geo.addr_of(victim, p);
            let Some(summary) = Summary::decode(s).ok().filter(|s| s.is_at(&geo, at)) else {
                break;
            };
            let n = summary.entries.len() as u32;
            let end = (p + 1 + n).min(written);
            let data = &raw[(p + 1) as usize * BLOCK_SIZE..end as usize * BLOCK_SIZE];
            for (addr, tag, bytes) in summary.blocks(&geo, data) {
                f(&tag, addr, bytes)?;
            }
            p += 1 + n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BlockKind;
    use crate::log::LogConfig;
    use s4_simdisk::MemDisk;
    use std::collections::HashMap;

    /// A toy upper layer: a map from logical id (a tag's `aux`) to the
    /// block's current address, the only reference to it.
    struct Toy<'a> {
        log: &'a Log<MemDisk>,
        current: HashMap<u64, BlockAddr>,
    }

    impl Toy<'_> {
        fn put(&mut self, tag: BlockTag, data: &[u8]) {
            let addr = self.log.append(tag, data).unwrap();
            self.current.insert(tag.aux, addr);
        }

        /// Blocks the map references in `seg`.
        fn live_in(&self, seg: SegmentId) -> u32 {
            let geo = self.log.geometry();
            let held = self.current.values().filter(|&&a| geo.segment_of(a) == seg);
            held.count() as u32
        }

        /// Copies every block of `victim` the map still references to
        /// the log head, then reclaims the segment; returns the copies.
        fn clean(&mut self, victim: SegmentId) -> u32 {
            let (log, current) = (self.log, &mut self.current);
            let mut copied = 0;
            let walk = log.walk_segment(victim, |tag, addr, data| {
                if current.get(&tag.aux) == Some(&addr) {
                    current.insert(tag.aux, log.append(*tag, data)?);
                    copied += 1;
                }
                Ok(())
            });
            walk.unwrap();
            log.reclaim_segment(victim);
            copied
        }
    }

    fn free_or_pending(log: &Log<MemDisk>) -> u32 {
        let u = log.usage_snapshot();
        u.free_segments() + u.pending_free_segments()
    }

    #[test]
    fn cleaner_frees_dead_and_copies_sparse_segments() {
        let log = Log::format(
            MemDisk::new(400_000),
            LogConfig {
                blocks_per_segment: 8,
                cache_blocks: 256,
                readahead_blocks: 1,
            },
        )
        .unwrap();
        let mut toy = Toy {
            log: &log,
            current: HashMap::new(),
        };

        // Write 100 logical blocks, then overwrite most of them so early
        // segments hold mostly-garbage.
        for i in 0..100u64 {
            toy.put(BlockTag::new(BlockKind::Data, 1, i), &i.to_le_bytes());
            log.flush().unwrap();
        }
        for i in 0..90u64 {
            let data = (i + 1000).to_le_bytes();
            toy.put(BlockTag::new(BlockKind::Data, 1, i), &data);
            log.flush().unwrap();
        }

        // Reclaim every segment that is not wholly live: the dead ones
        // copy nothing, the sparse ones their stragglers.
        let free_before = free_or_pending(&log);
        let (mut dead, mut copied) = (0, 0);
        for (seg, written) in log.reclaimable_segments() {
            let live = toy.live_in(seg);
            if live < written {
                assert_eq!(toy.clean(seg), live);
                if live == 0 {
                    dead += 1;
                } else {
                    copied += 1;
                }
            }
        }
        assert!(dead > 0 && copied > 0, "{dead} dead, {copied} copied");

        // Every logical block still reads its latest value.
        log.flush().unwrap();
        log.cache().clear();
        for i in 0..100u64 {
            let expect = if i < 90 { i + 1000 } else { i };
            assert_eq!(
                &log.read_block(toy.current[&i]).unwrap()[..8],
                &expect.to_le_bytes(),
                "logical block {i}"
            );
        }
        assert!(free_or_pending(&log) > free_before);
    }

    /// A live record carried by a summary is offered and copied like any
    /// block; once its segment has been reclaimed, handed out again and
    /// rewritten, its old address can no longer produce its bytes.
    #[test]
    fn cleaner_relocates_a_live_carried_record_and_its_old_address_dies() {
        let cfg = LogConfig {
            blocks_per_segment: 8,
            cache_blocks: 256,
            readahead_blocks: 1,
        };
        let log = Log::format(MemDisk::new(400_000), cfg).unwrap();
        let mut toy = Toy {
            log: &log,
            current: HashMap::new(),
        };
        let record = |i: u64| vec![i as u8 + 1; 200];
        let block = |i: u64| BlockTag::new(BlockKind::Data, 1, 100 + i);
        // Commits of `[summary + record i | block i]`; then every block
        // is overwritten, so the first segments hold live records only.
        for i in 0..20u64 {
            toy.put(BlockTag::new(BlockKind::JournalSector, 1, i), &record(i));
            assert!(toy.current[&i].is_carried());
            toy.put(block(i), &[0xAA; BLOCK_SIZE]);
            log.flush().unwrap();
        }
        for i in 0..20u64 {
            toy.put(block(i), &[0xBB; BLOCK_SIZE]);
            log.flush().unwrap();
        }
        let old: Vec<BlockAddr> = (0..20).map(|i| toy.current[&i]).collect();
        let geo = *log.geometry();
        assert_eq!(toy.live_in(0), 4, "four summaries");

        let free_before = log.usage_snapshot().free_segments();
        assert_eq!(toy.clean(0), 4);
        assert_eq!(free_or_pending(&log), free_before + 1);
        log.flush().unwrap();
        for i in 0..4u64 {
            let new = toy.current[&i];
            assert_ne!(new, old[i as usize]);
            assert_ne!(geo.segment_of(new), 0);
            assert_eq!(&log.read_block(new).unwrap()[..200], &record(i)[..]);
        }
        // The copies went out together: one carried again, three in blocks.
        let carried = (0..4u64).filter(|i| toy.current[i].is_carried());
        assert_eq!(carried.count(), 1);

        // Segment 0 is reclaimed; an anchor makes it allocatable, and the
        // log gets there again when its active segment fills.
        log.write_anchor(b"", 1, 1).unwrap();
        let mut i = 0;
        while log.usage_snapshot().get(0).written_blocks < 8 {
            toy.put(block(i % 20), &[0xCC; BLOCK_SIZE]);
            log.flush().unwrap();
            i += 1;
        }
        for warm in [true, false] {
            if !warm {
                log.cache().clear();
            }
            for i in 0..4u64 {
                let stale = old[i as usize];
                assert_eq!(geo.segment_of(stale), 0);
                let read = log.read_block(stale);
                assert!(
                    read.map_or(true, |b| b[..200] != record(i)[..]),
                    "record {i}, cache warm: {warm}"
                );
            }
        }
    }
}

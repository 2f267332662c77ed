//! The S4 cleaner (§4.2.1, Figure 5 of the paper).
//!
//! Unlike a classic LFS cleaner, the S4 cleaner may only reclaim blocks
//! whose versions have aged out of the detection window — the upper layer
//! expresses this by releasing blocks from the usage table as versions
//! expire. The cleaner then:
//!
//! 1. frees *dead* segments (zero referenced blocks) without copying, and
//! 2. if more space is needed, picks the in-use segment with the fewest
//!    referenced blocks, reads the **whole segment** (the extra reads the
//!    paper blames for S4's higher cleaning overhead), asks the upper
//!    layer which blocks are still live, copies those forward through the
//!    normal append path, and reclaims the segment.
//!
//! The upper layer participates through [`RelocationCallbacks`], because
//! only it can map a block to the object version(s) referencing it and
//! update their pointers.

use s4_simdisk::BlockDev;

use crate::layout::{BlockAddr, BlockTag, SegmentId, BLOCK_SIZE};
use crate::log::Log;
use crate::summary::Summary;
use crate::Result;

/// Upper-layer hooks the cleaner needs.
pub trait RelocationCallbacks {
    /// True if the block at `addr` is still referenced by the current
    /// state or by any in-window history version.
    fn is_live(&self, tag: &BlockTag, addr: BlockAddr) -> bool;

    /// Re-home a live block: append it at the log head and update every
    /// pointer that referenced `addr`. `data` is the whole block, or —
    /// for a carried record ([`BlockAddr::is_carried`]) — the payload at
    /// the length it was appended with.
    fn relocate(&self, tag: &BlockTag, addr: BlockAddr, data: &[u8]) -> Result<()>;
}

/// Cleaner tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CleanerConfig {
    /// Keep cleaning until at least this many segments are free (or
    /// pending-free).
    pub min_free_target: u32,
    /// Upper bound on segments copied per [`Cleaner::clean_pass`] call,
    /// bounding how much a foreground pass steals from request service.
    pub max_segments_per_pass: u32,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            min_free_target: 8,
            max_segments_per_pass: 4,
        }
    }
}

/// Outcome of one cleaning pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CleanOutcome {
    /// Segments freed without copying (fully expired).
    pub dead_freed: u32,
    /// Segments reclaimed by copy-forward.
    pub copied_segments: u32,
    /// Live blocks relocated.
    pub blocks_relocated: u32,
    /// Blocks read while examining victim segments.
    pub blocks_read: u32,
}

/// The cleaner. Stateless; all persistent state lives in the log's usage
/// table.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cleaner {
    config: CleanerConfig,
}

impl Cleaner {
    /// Creates a cleaner with the given configuration.
    pub fn new(config: CleanerConfig) -> Self {
        Cleaner { config }
    }

    /// Runs one cleaning pass. Returns what was reclaimed.
    pub fn clean_pass<D: BlockDev, C: RelocationCallbacks>(
        &self,
        log: &Log<D>,
        callbacks: &C,
    ) -> Result<CleanOutcome> {
        let mut outcome = CleanOutcome {
            dead_freed: log.free_dead_segments(),
            ..CleanOutcome::default()
        };

        let mut copied = 0;
        while copied < self.config.max_segments_per_pass {
            let usage = log.usage_snapshot();
            let free_now = usage.free_segments() + usage.pending_free_segments();
            if free_now >= self.config.min_free_target {
                break;
            }
            let exclude = log.protected_segments();
            let Some((victim, live)) = usage.lowest_utilization(&exclude) else {
                break;
            };
            // A fully-live victim cannot gain us a segment: copying its
            // blocks forward consumes as much as it frees.
            let written = usage.get(victim).written_blocks;
            if live >= written {
                break;
            }
            outcome.blocks_relocated += self.copy_segment_forward(log, callbacks, victim)?;
            outcome.blocks_read += log.geometry().blocks_per_segment;
            outcome.copied_segments += 1;
            copied += 1;
        }
        Ok(outcome)
    }

    /// Reads `victim` in one sequential transfer, relocates its live
    /// blocks, and reclaims it. Returns the number of blocks relocated.
    fn copy_segment_forward<D: BlockDev, C: RelocationCallbacks>(
        &self,
        log: &Log<D>,
        callbacks: &C,
        victim: SegmentId,
    ) -> Result<u32> {
        let geo = *log.geometry();
        let written = log.usage_snapshot().get(victim).written_blocks;
        let head = geo.addr_of(victim, 0);
        let raw = log.read_blocks_raw(head, written)?;

        // Structurally walk the batches inside the segment: a summary at
        // offset p describes the blocks at p+1 ..= p+n, and may carry one
        // record itself — offered at its own length, so that a copy of it
        // is short enough to be carried again.
        let mut relocated = 0;
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
                if callbacks.is_live(&tag, addr) {
                    callbacks.relocate(&tag, addr, bytes)?;
                    relocated += 1;
                }
            }
            p += 1 + n;
        }
        log.reclaim_segment(victim);
        Ok(relocated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BlockKind;
    use crate::log::LogConfig;
    use s4_clock::sync::Mutex;
    use s4_simdisk::MemDisk;
    use std::collections::HashMap;

    /// A toy upper layer: a map from logical id to current address.
    struct ToyCb<'a> {
        current: &'a Mutex<HashMap<u64, BlockAddr>>,
        log: &'a Log<MemDisk>,
    }

    impl RelocationCallbacks for ToyCb<'_> {
        fn is_live(&self, tag: &BlockTag, addr: BlockAddr) -> bool {
            self.current.lock().get(&tag.aux) == Some(&addr)
        }
        fn relocate(&self, tag: &BlockTag, addr: BlockAddr, data: &[u8]) -> Result<()> {
            let new = self.log.append(*tag, data)?;
            let mut cur = self.current.lock();
            assert_eq!(cur.insert(tag.aux, new), Some(addr));
            // The old block is no longer referenced.
            self.log.release_blocks([addr]);
            Ok(())
        }
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
        let current = Mutex::new(HashMap::new());

        // Write 100 logical blocks, then overwrite most of them so early
        // segments hold mostly-garbage.
        for i in 0..100u64 {
            let a = log
                .append(BlockTag::new(BlockKind::Data, 1, i), &i.to_le_bytes())
                .unwrap();
            current.lock().insert(i, a);
            log.flush().unwrap();
        }
        for i in 0..90u64 {
            let a = log
                .append(
                    BlockTag::new(BlockKind::Data, 1, i),
                    &(i + 1000).to_le_bytes(),
                )
                .unwrap();
            let old = current.lock().insert(i, a).unwrap();
            log.release_blocks([old]);
            log.flush().unwrap();
        }

        let free_before = {
            let u = log.usage_snapshot();
            u.free_segments() + u.pending_free_segments()
        };
        let cleaner = Cleaner::new(CleanerConfig {
            min_free_target: free_before + 6,
            max_segments_per_pass: 32,
        });
        let cb = ToyCb {
            current: &current,
            log: &log,
        };
        let outcome = cleaner.clean_pass(&log, &cb).unwrap();
        assert!(
            outcome.copied_segments > 0 || outcome.dead_freed > 0,
            "cleaner reclaimed nothing: {outcome:?}"
        );

        // Every logical block still reads its latest value.
        log.flush().unwrap();
        log.cache().clear();
        for i in 0..100u64 {
            let addr = current.lock()[&i];
            let expect = if i < 90 { i + 1000 } else { i };
            assert_eq!(
                &log.read_block(addr).unwrap()[..8],
                &expect.to_le_bytes(),
                "logical block {i}"
            );
        }
        let after = {
            let u = log.usage_snapshot();
            u.free_segments() + u.pending_free_segments()
        };
        assert!(after > free_before);
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
        let current = Mutex::new(HashMap::new());
        let record = |i: u64| vec![i as u8 + 1; 200];
        let put = |i: u64, fill: u8| {
            let tag = BlockTag::new(BlockKind::Data, 1, 100 + i);
            let block = log.append(tag, &[fill; BLOCK_SIZE]).unwrap();
            let old = current.lock().insert(100 + i, block);
            log.release_blocks(old);
        };
        // Commits of `[summary + record i | block i]`; then every block
        // is overwritten, so the first segments hold live records only.
        for i in 0..20u64 {
            let tag = BlockTag::new(BlockKind::JournalSector, 1, i);
            let a = log.append(tag, &record(i)).unwrap();
            assert!(a.is_carried());
            current.lock().insert(i, a);
            put(i, 0xAA);
            log.flush().unwrap();
        }
        for i in 0..20u64 {
            put(i, 0xBB);
            log.flush().unwrap();
        }
        let old: Vec<BlockAddr> = (0..20).map(|i| current.lock()[&i]).collect();
        let geo = *log.geometry();
        assert_eq!(log.usage_snapshot().get(0).live_blocks, 4, "four summaries");

        let free_before = log.usage_snapshot().free_segments();
        let cleaner = Cleaner::new(CleanerConfig {
            min_free_target: free_before + 1,
            max_segments_per_pass: 1,
        });
        let cb = ToyCb {
            current: &current,
            log: &log,
        };
        let outcome = cleaner.clean_pass(&log, &cb).unwrap();
        assert_eq!((outcome.copied_segments, outcome.blocks_relocated), (1, 4));
        log.flush().unwrap();
        for i in 0..4u64 {
            let new = current.lock()[&i];
            assert_ne!(new, old[i as usize]);
            assert_ne!(geo.segment_of(new), 0);
            assert_eq!(&log.read_block(new).unwrap()[..200], &record(i)[..]);
        }
        // The copies went out together: one carried again, three in blocks.
        let carried = (0..4u64).filter(|i| current.lock()[i].is_carried());
        assert_eq!(carried.count(), 1);

        // Segment 0 is reclaimed; an anchor makes it allocatable, and the
        // log gets there again when its active segment fills.
        log.write_anchor(b"", 1, 1).unwrap();
        let mut i = 0;
        while log.usage_snapshot().get(0).written_blocks < 8 {
            put(i % 20, 0xCC);
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

    #[test]
    fn cleaner_respects_target_and_pass_bound() {
        let log = Log::format(
            MemDisk::new(400_000),
            LogConfig {
                blocks_per_segment: 8,
                cache_blocks: 64,
                readahead_blocks: 1,
            },
        )
        .unwrap();
        let current: Mutex<HashMap<u64, BlockAddr>> = Mutex::new(HashMap::new());
        let cb = ToyCb {
            current: &current,
            log: &log,
        };
        // Target already satisfied: nothing happens.
        let cleaner = Cleaner::new(CleanerConfig {
            min_free_target: 1,
            max_segments_per_pass: 4,
        });
        let outcome = cleaner.clean_pass(&log, &cb).unwrap();
        assert_eq!(outcome, CleanOutcome::default());
    }
}

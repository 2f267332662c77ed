//! The object table: per-object versioning state and its checkpoint codec.
//!
//! Each object couples its [`ObjectMeta`] (the journal layer's "inode")
//! with drive-level state: the list of on-disk journal sectors (oldest
//! first — the authoritative backward chain used for time-based reads and
//! expiry), the entries not yet packed to a sector, the current metadata
//! checkpoint chain, delta encodings and landmarks. Every pointer names
//! where its block is now: the cleaner rewrites each one it moves.
//!
//! An object can be *cached* (full [`ObjectEntry`] in memory) or *evicted*
//! (only its checkpoint root and expiry hints retained); the paper's 32 MB
//! object cache corresponds to the cached set.

use std::collections::BTreeMap;

use s4_clock::HybridTimestamp;
use s4_journal::{JournalEntry, ObjectMeta};
use s4_lfs::BlockAddr;

use crate::drive::changes_mut;

use crate::codec::{push_bytes, push_stamp, Reader};
use crate::Result;

/// Where a delta-encoded history block's bytes live: applying the delta
/// stored at `(block, slot)` to the (possibly itself delta-encoded)
/// content at `base` reproduces the original block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct DeltaRef {
    /// Address whose content is the delta's source.
    pub base: BlockAddr,
    /// Shared delta block holding the encoded difference.
    pub block: BlockAddr,
    /// Sub-slot within the delta block.
    pub slot: u32,
}

/// Summary of one on-disk journal sector.
///
/// Journal sectors are small (§4.2.2), so the drive packs sectors of
/// *several* objects into each 4 KiB journal block; `slot` selects this
/// object's sector within the block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SectorInfo {
    /// Log address of the journal block holding the sector.
    pub addr: BlockAddr,
    /// Sub-sector index within the block.
    pub slot: u32,
    /// Stamp of the newest entry in the sector.
    pub newest: HybridTimestamp,
}

impl SectorInfo {
    /// What a sector list entry takes in a checkpoint blob and in the
    /// anchor payload: address, slot, the newest entry's stamp.
    const BYTES: usize = 8 + 4 + 16;

    /// Appends a sector list: `n u32 | n × (addr u64, slot u32, newest)`.
    pub(crate) fn encode_list(list: &[SectorInfo], out: &mut Vec<u8>) {
        out.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for s in list {
            out.extend_from_slice(&s.addr.0.to_le_bytes());
            out.extend_from_slice(&s.slot.to_le_bytes());
            push_stamp(out, s.newest);
        }
    }

    pub(crate) fn decode_list(r: &mut Reader) -> Result<Vec<SectorInfo>> {
        let n = r.count(Self::BYTES)?;
        let one = |r: &mut Reader| -> Result<SectorInfo> {
            let (addr, slot) = (BlockAddr(r.u64()?), r.u32()?);
            Ok(SectorInfo {
                addr,
                slot,
                newest: r.stamp()?,
            })
        };
        (0..n).map(|_| one(r)).collect()
    }
}

/// Full in-memory state of one object.
#[derive(Clone, Debug)]
pub(crate) struct ObjectEntry {
    /// Current metadata (attributes, ACL blob, block map).
    pub meta: ObjectMeta,
    /// On-disk journal sectors, oldest first.
    pub sectors: Vec<SectorInfo>,
    /// Journal entries applied to `meta` but not yet packed to a sector.
    pub pending: Vec<JournalEntry>,
    /// Root of the current metadata checkpoint ([`BlockAddr::NONE`] if
    /// never checkpointed — recoverable from the journal alone while the
    /// full history is retained).
    pub checkpoint_root: BlockAddr,
    /// Sub-slot within a *shared* checkpoint block (small checkpoints of
    /// several objects share one 4 KiB block, like journal sectors);
    /// `u32::MAX` means the checkpoint is a dedicated chain of blocks.
    pub checkpoint_slot: u32,
    /// Every block of a dedicated checkpoint chain (released when a newer
    /// checkpoint supersedes it); empty for shared checkpoints, whose
    /// block is released through the drive's refcounts.
    pub checkpoint_blocks: Vec<BlockAddr>,
    /// History blocks whose bytes have been replaced by cross-version
    /// deltas (the cleaner's differencing pass, §4.2.2), keyed by the
    /// address the journal names.
    pub deltas: BTreeMap<u64, DeltaRef>,
    /// Landmark versions (§6: "combining self-securing storage with
    /// long-term landmark versioning"): materialized metadata snapshots
    /// whose blocks are pinned past the detection window, newest last.
    pub landmarks: Vec<ObjectMeta>,
    /// The stamp of the newest retired journal entry: a time-based read
    /// at or below it finds a landmark or `VersionUnavailable`.
    pub history_floor: HybridTimestamp,
    /// `meta.modified` as of the last checkpoint (in memory only): the
    /// checkpoint covers the journal up to this stamp, and no newer
    /// sector may be retired before a fresh checkpoint is written.
    pub covered: HybridTimestamp,
    /// True if `meta`/`sectors` changed since the last checkpoint.
    pub dirty: bool,
    /// True if state *not derivable from the journal* changed since the
    /// last checkpoint (block pointers the cleaner rewrote, delta
    /// encodings, landmarks): the next anchor must write a fresh
    /// checkpoint or a crash would resurrect pointers into reclaimed
    /// segments.
    pub needs_checkpoint: bool,
    /// LRU clock for object-cache eviction.
    pub last_used: u64,
}

impl ObjectEntry {
    /// Fresh entry for a newly created object.
    pub(crate) fn new(meta: ObjectMeta) -> Self {
        ObjectEntry {
            covered: meta.modified,
            meta,
            sectors: Vec::new(),
            pending: Vec::new(),
            checkpoint_root: BlockAddr::NONE,
            checkpoint_slot: u32::MAX,
            checkpoint_blocks: Vec::new(),
            deltas: BTreeMap::new(),
            landmarks: Vec::new(),
            history_floor: HybridTimestamp::ZERO,
            dirty: true,
            needs_checkpoint: false,
            last_used: 0,
        }
    }

    /// Re-points every in-memory pointer to the block at `from` at `to`
    /// (sectors on disk name `from` until the drive rewrites them). Anchors
    /// carry sector lists and roots; any other move needs a fresh checkpoint.
    pub(crate) fn repoint(&mut self, from: BlockAddr, to: BlockAddr) {
        let at_from = |a: &&mut BlockAddr| **a == from;
        let maps = std::iter::once(&mut self.meta).chain(&mut self.landmarks);
        let mapped = maps.flat_map(|m| m.blocks.values_mut());
        let deltas = self
            .deltas
            .values_mut()
            .flat_map(|d| [&mut d.base, &mut d.block]);
        let logged = self.pending.iter_mut().flat_map(changes_mut);
        let logged = logged.flat_map(|c| [&mut c.old, &mut c.new]);
        let state = mapped
            .chain(deltas)
            .chain(logged)
            .chain(&mut self.checkpoint_blocks);
        for a in state.filter(at_from) {
            (*a, self.dirty, self.needs_checkpoint) = (to, true, true);
        }
        for a in self.sectors.iter_mut().map(|s| &mut s.addr).filter(at_from) {
            (*a, self.dirty) = (to, true);
        }
        if self.checkpoint_root == from {
            self.checkpoint_root = to;
        }
    }

    /// True if `addr` belongs to a landmark version's block map (such
    /// blocks are pinned: never released by expiry, flushes, or the
    /// differencing pass).
    pub(crate) fn is_landmark_block(&self, addr: BlockAddr) -> bool {
        self.landmarks
            .iter()
            .any(|m| m.blocks.values().any(|&a| a == addr))
    }

    /// Stamp used to decide whether this object has journal history old
    /// enough to expire: the newest stamp of the oldest sector
    /// ([`HybridTimestamp::MAX`] if no sectors are on disk).
    pub(crate) fn expiry_hint(&self) -> HybridTimestamp {
        self.sectors
            .first()
            .map(|s| s.newest)
            .unwrap_or(HybridTimestamp::MAX)
    }

    /// Serializes the entry for its metadata checkpoint.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = self.meta.encode();
        SectorInfo::encode_list(&self.sectors, &mut out);
        out.extend_from_slice(&(self.deltas.len() as u32).to_le_bytes());
        for (key, d) in &self.deltas {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&d.base.0.to_le_bytes());
            out.extend_from_slice(&d.block.0.to_le_bytes());
            out.extend_from_slice(&d.slot.to_le_bytes());
        }
        out.extend_from_slice(&(self.landmarks.len() as u32).to_le_bytes());
        for m in &self.landmarks {
            push_bytes(&mut out, &m.encode());
        }
        push_stamp(&mut out, self.history_floor);
        out
    }

    /// Deserializes an entry from a checkpoint blob.
    ///
    /// The decoded entry is clean (`dirty == false`) and has no pending
    /// journal entries; `checkpoint_root`/`checkpoint_blocks` are set by
    /// the caller, which knows where the blob was read from.
    pub(crate) fn decode(buf: &[u8]) -> Result<ObjectEntry> {
        let mut pos = 0;
        let meta = ObjectMeta::decode_from(buf, &mut pos)?;
        let mut r = Reader::at(buf, pos, "object checkpoint truncated");
        let sectors = SectorInfo::decode_list(&mut r)?;
        let mut deltas = BTreeMap::new();
        for _ in 0..r.count(8 + 8 + 8 + 4)? {
            let key = r.u64()?;
            let (base, block) = (BlockAddr(r.u64()?), BlockAddr(r.u64()?));
            let slot = r.u32()?;
            deltas.insert(key, DeltaRef { base, block, slot });
        }
        let mut landmarks = Vec::new();
        for _ in 0..r.count(4)? {
            landmarks.push(ObjectMeta::decode_from(r.bytes()?, &mut 0)?);
        }
        let history_floor = r.stamp()?;
        Ok(ObjectEntry {
            covered: meta.modified,
            meta,
            sectors,
            pending: Vec::new(),
            checkpoint_root: BlockAddr::NONE,
            checkpoint_slot: u32::MAX,
            checkpoint_blocks: Vec::new(),
            deltas,
            landmarks,
            history_floor,
            dirty: false,
            needs_checkpoint: false,
            last_used: 0,
        })
    }
}

/// Residual record for an object whose full state has been evicted from
/// the object cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EvictInfo {
    /// Checkpoint root holding the full [`ObjectEntry`].
    pub checkpoint_root: BlockAddr,
    /// Sub-slot within a shared checkpoint block (`u32::MAX` = dedicated
    /// chain).
    pub checkpoint_slot: u32,
    /// Copy of [`ObjectEntry::expiry_hint`] at eviction time, so the
    /// expiry scan can skip objects with nothing old enough to reclaim.
    pub expiry_hint: HybridTimestamp,
    /// Copy of the deletion stamp, so fully-expired deleted objects can be
    /// detected without loading.
    pub deleted: Option<HybridTimestamp>,
}

/// A slot in the object table.
#[derive(Clone, Debug)]
pub(crate) enum Slot {
    /// Full state in memory.
    Cached(Box<ObjectEntry>),
    /// Only the checkpoint location retained.
    Evicted(EvictInfo),
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::SimTime;

    fn stamp(t: u64) -> HybridTimestamp {
        HybridTimestamp::new(SimTime::from_micros(t), t)
    }

    fn sample() -> ObjectEntry {
        let mut meta = ObjectMeta::new(9, stamp(1));
        meta.size = 8192;
        meta.blocks.insert(0, BlockAddr(100));
        meta.blocks.insert(1, BlockAddr(101));
        meta.attrs = vec![1, 2, 3];
        let mut e = ObjectEntry::new(meta);
        e.sectors.push(SectorInfo {
            addr: BlockAddr(50),
            slot: 0,
            newest: stamp(5),
        });
        e.sectors.push(SectorInfo {
            addr: BlockAddr(60),
            slot: 3,
            newest: stamp(9),
        });
        e.deltas.insert(
            90,
            DeltaRef {
                base: BlockAddr(100),
                block: BlockAddr(70),
                slot: 2,
            },
        );
        e.history_floor = stamp(2);
        e
    }

    #[test]
    fn encode_decode_round_trip() {
        let e = sample();
        let d = ObjectEntry::decode(&e.encode()).unwrap();
        assert_eq!(d.meta, e.meta);
        assert_eq!(d.sectors, e.sectors);
        assert_eq!(d.deltas, e.deltas);
        assert_eq!(d.history_floor, e.history_floor);
        assert!(!d.dirty);
        assert!(d.pending.is_empty());
    }

    #[test]
    fn repoint_rewrites_every_in_memory_pointer_and_only_those() {
        let mut e = sample();
        e.landmarks.push(e.meta.clone());
        e.pending.push(JournalEntry::Write {
            stamp: stamp(10),
            old_size: 8192,
            new_size: 8192,
            changes: vec![s4_journal::PtrChange {
                lbn: 0,
                old: BlockAddr(100),
                new: BlockAddr(102),
            }],
        });
        e.repoint(BlockAddr(100), BlockAddr(300));
        assert_eq!(e.meta.blocks[&0], BlockAddr(300));
        assert_eq!(e.meta.blocks[&1], BlockAddr(101));
        assert_eq!(e.landmarks[0].blocks[&0], BlockAddr(300));
        assert_eq!(e.deltas[&90].base, BlockAddr(300));
        assert_eq!(
            e.deltas[&90].block,
            BlockAddr(70),
            "a delta's own block moves alone"
        );
        let JournalEntry::Write { changes, .. } = &e.pending[0] else {
            unreachable!()
        };
        assert_eq!(
            (changes[0].old, changes[0].new),
            (BlockAddr(300), BlockAddr(102))
        );
        assert!(e.needs_checkpoint);

        // A journal block's move re-points its sectors, and needs no
        // checkpoint of its own.
        let mut e = sample();
        e.needs_checkpoint = false;
        e.repoint(BlockAddr(60), BlockAddr(61));
        let at: Vec<_> = e.sectors.iter().map(|s| s.addr).collect();
        assert_eq!(at, [BlockAddr(50), BlockAddr(61)]);
        assert!(e.dirty && !e.needs_checkpoint);
    }

    #[test]
    fn expiry_hint_tracks_oldest_sector() {
        let mut e = sample();
        assert_eq!(e.expiry_hint(), stamp(5));
        e.sectors.clear();
        assert_eq!(e.expiry_hint(), HybridTimestamp::MAX);
    }

    /// A sector list of one entry, format revision 8: `n u32`, then per
    /// entry `addr u64 | slot u32 | newest stamp` (28 bytes).
    const SECTORS: &str = "01000000 3200000000000000 03000000 0900000000000000 0900000000000000";

    /// A checkpoint blob, format revision 8: the metadata (81 bytes
    /// here), one sector, one delta (`key | base | block | slot`), no
    /// landmark, the history floor.
    const CHECKPOINT: &str = "
        544d3453 0900000000000000 0100000000000000 0100000000000000
        0100000000000000 0100000000000000 00 0010000000000000 00000000 00000000
        01000000 0000000000000000 6400000000000000
        01000000 3200000000000000 00000000 0500000000000000 0500000000000000
        01000000 5a00000000000000 6400000000000000 4600000000000000 02000000
        00000000
        0200000000000000 0200000000000000";

    #[test]
    fn a_sector_list_entry_is_its_fixture() {
        let info = SectorInfo {
            addr: BlockAddr(50),
            slot: 3,
            newest: stamp(9),
        };
        let bytes = crate::unhex(SECTORS);
        let mut out = Vec::new();
        SectorInfo::encode_list(&[info], &mut out);
        assert_eq!((out.len(), &out), (4 + SectorInfo::BYTES, &bytes));
        let mut r = Reader::new(&bytes, "fixture");
        assert_eq!(SectorInfo::decode_list(&mut r).unwrap(), [info]);
    }

    #[test]
    fn a_checkpoint_blob_is_its_fixture() {
        let mut meta = ObjectMeta::new(9, stamp(1));
        meta.size = 4096;
        meta.blocks.insert(0, BlockAddr(100));
        let mut e = ObjectEntry::new(meta);
        e.sectors.push(SectorInfo {
            addr: BlockAddr(50),
            slot: 0,
            newest: stamp(5),
        });
        let delta = DeltaRef {
            base: BlockAddr(100),
            block: BlockAddr(70),
            slot: 2,
        };
        e.deltas.insert(90, delta);
        e.history_floor = stamp(2);
        let bytes = crate::unhex(CHECKPOINT);
        assert_eq!(e.encode(), bytes);
        let d = ObjectEntry::decode(&bytes).unwrap();
        assert_eq!(
            (&d.meta, &d.sectors, &d.deltas),
            (&e.meta, &e.sectors, &e.deltas)
        );
        assert_eq!((d.landmarks.len(), d.history_floor), (0, e.history_floor));
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = sample().encode();
        for cut in [0, 10, buf.len() / 2, buf.len() - 1] {
            assert!(ObjectEntry::decode(&buf[..cut]).is_err());
        }
        for bad in crate::hostile(&buf) {
            let _ = ObjectEntry::decode(&bad);
        }
    }
}

//! Shared containers (§4.2.2), implemented once.
//!
//! The paper packs the 512-byte journal sectors of many objects into
//! shared log blocks, and sizes on-disk inodes the same way. The drive
//! has three kinds of record too small to deserve a 4 KiB block each —
//! journal sectors, small metadata checkpoints, and cross-version deltas
//! — and `PackedBlocks` is the one mechanism behind all of them: fill a
//! block greedily, append it, register it reachable, count how many of
//! its slots are still referenced, and release the block when the last
//! reference goes.
//!
//! What differs between the kinds is what a slot *means* (whose sector
//! list, checkpoint root or delta map points at it) and what the cleaner
//! does on relocation — journal and delta blocks are copied and
//! re-pointed, checkpoint blocks are rewritten fresh — and both stay with
//! the callers: `pack` hands each placed slot to an install callback.
//!
//! The on-disk contract — pinned byte for byte by the tests below — is
//! the payload `[magic u32 | count u16 | count × (len u32, bytes)]`,
//! little-endian, and the tag `BlockTag::new(kind, oid of slot 0, aux)`
//! with `aux` the slot count for journal and delta blocks and `u64::MAX`
//! for shared checkpoint blocks (a dedicated checkpoint chain tags its
//! blocks with their chunk index, so the cleaner can tell the two apart).

use std::collections::{BTreeMap, BTreeSet};

use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::codec::{push_bytes, Reader};
use crate::{Result, S4Error};

/// Container bytes ahead of the first slot: magic and count.
const HEADER: usize = 6;

/// One record on its way into a container: the object it belongs to,
/// its bytes, and whatever the caller wants back at install time.
pub(crate) type Item<T> = (u64, Vec<u8>, T);

/// The containers of one kind: their identity on disk plus, per block,
/// the number of slots some object still references.
#[derive(Clone, Debug)]
pub(crate) struct PackedBlocks {
    magic: u32,
    kind: BlockKind,
    refs: BTreeMap<u64, u32>,
}

/// Journal blocks: several objects' journal sectors per block.
pub(crate) const JOURNAL: PackedBlocks = PackedBlocks::of(0x5334_4A42, BlockKind::JournalSector); // "S4JB"
/// Shared checkpoint blocks: several objects' small metadata checkpoints.
pub(crate) const CHECKPOINTS: PackedBlocks =
    PackedBlocks::of(0x5334_4342, BlockKind::ObjectCheckpoint); // "S4CB"
/// Delta blocks: history blocks re-encoded against their successors.
pub(crate) const DELTAS: PackedBlocks = PackedBlocks::of(0x5334_4444, BlockKind::DeltaData); // "S4DD"

impl PackedBlocks {
    const fn of(magic: u32, kind: BlockKind) -> PackedBlocks {
        PackedBlocks {
            magic,
            kind,
            refs: BTreeMap::new(),
        }
    }

    /// Packs `items`, in order, into as few blocks as hold them: a block
    /// is appended the moment the next item would not fit. Each placed
    /// slot goes to `install(live, addr, slot, oid, what)` right after
    /// its block is appended, so a failing append leaves every earlier
    /// block fully installed.
    pub(crate) fn pack<D: BlockDev, T>(
        &mut self,
        log: &Log<D>,
        live: &mut BTreeSet<u64>,
        items: Vec<Item<T>>,
        mut install: impl FnMut(&mut BTreeSet<u64>, BlockAddr, u32, u64, T),
    ) -> Result<()> {
        let mut batch: Vec<Item<T>> = Vec::new();
        let mut used = HEADER;
        for item in items {
            let need = 4 + item.1.len();
            if used + need > BLOCK_SIZE {
                self.append(log, live, &mut batch, &mut install)?;
                used = HEADER;
            }
            used += need;
            batch.push(item);
        }
        self.append(log, live, &mut batch, &mut install)
    }

    /// Appends `batch` as one container — the only place one is written.
    fn append<D: BlockDev, T>(
        &mut self,
        log: &Log<D>,
        live: &mut BTreeSet<u64>,
        batch: &mut Vec<Item<T>>,
        install: &mut impl FnMut(&mut BTreeSet<u64>, BlockAddr, u32, u64, T),
    ) -> Result<()> {
        let Some(first) = batch.first() else {
            return Ok(());
        };
        let count = batch.len();
        let aux = match self.kind {
            BlockKind::ObjectCheckpoint => u64::MAX,
            _ => count as u64,
        };
        let payload = encode_container(self.magic, batch.iter().map(|(_, p, _)| p.as_slice()));
        let addr = log.append(BlockTag::new(self.kind, first.0, aux), &payload)?;
        live.insert(addr.0);
        self.refs.insert(addr.0, count as u32);
        for (slot, (oid, _, what)) in batch.drain(..).enumerate() {
            install(live, addr, slot as u32, oid, what);
        }
        Ok(())
    }

    /// Drops one reference to the block at `addr`; the last one releases
    /// the block. Returns the number of blocks released (0 or 1).
    pub(crate) fn release_ref<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        live: &mut BTreeSet<u64>,
        addr: BlockAddr,
    ) -> u64 {
        match self.refs.get_mut(&addr.0) {
            Some(n) if *n > 1 => {
                *n -= 1;
                0
            }
            _ => {
                self.refs.remove(&addr.0);
                live.remove(&addr.0);
                log.release_blocks([addr]);
                1
            }
        }
    }

    /// Counts one reference to `addr` (mount rebuilds the counts from the
    /// recovered object table).
    pub(crate) fn add_ref(&mut self, addr: BlockAddr) {
        *self.refs.entry(addr.0).or_insert(0) += 1;
    }

    /// The cleaner copied the block at `old` to `new`: the count moves.
    pub(crate) fn relocated(&mut self, old: BlockAddr, new: BlockAddr) {
        if let Some(n) = self.refs.remove(&old.0) {
            self.refs.insert(new.0, n);
        }
    }

    /// Forgets the block at `addr` without releasing its storage — the
    /// cleaner is reclaiming the segment under it.
    pub(crate) fn forget(&mut self, addr: BlockAddr) {
        self.refs.remove(&addr.0);
    }

    /// Forgets every count (mount, before recounting).
    pub(crate) fn clear(&mut self) {
        self.refs.clear();
    }

    /// Splits a container of this kind back into its slots.
    pub(crate) fn split(&self, buf: &[u8]) -> Result<Vec<Vec<u8>>> {
        let mut r = Reader::new(buf, "container block truncated");
        if r.u32()? != self.magic {
            return Err(S4Error::BadRequest("container block magic"));
        }
        let mut out = Vec::new();
        for _ in 0..r.u16()? {
            out.push(r.bytes()?.to_vec());
        }
        Ok(out)
    }
}

fn encode_container<'a>(magic: u32, subs: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_SIZE);
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // count patched below
    let mut count = 0u16;
    for sub in subs {
        push_bytes(&mut out, sub);
        count += 1;
    }
    out[4..6].copy_from_slice(&count.to_le_bytes());
    debug_assert!(out.len() <= BLOCK_SIZE, "container block overflow");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_lfs::{LogConfig, Mounted};
    use s4_simdisk::MemDisk;

    fn log() -> Log<MemDisk> {
        let config = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        Log::format(MemDisk::with_capacity_bytes(4 << 20), config).unwrap()
    }

    type Placed = Vec<(BlockAddr, u32, u64, &'static str)>;

    /// Packs `items` and returns where each landed.
    fn pack(
        p: &mut PackedBlocks,
        log: &Log<MemDisk>,
        live: &mut BTreeSet<u64>,
        items: Vec<Item<&'static str>>,
    ) -> Placed {
        let mut placed = Vec::new();
        p.pack(log, live, items, |_, addr, slot, oid, what| {
            placed.push((addr, slot, oid, what))
        })
        .unwrap();
        placed
    }

    /// The tag every block of the log was appended under, by address.
    fn tags(log: Log<MemDisk>) -> BTreeMap<u64, BlockTag> {
        log.flush().unwrap();
        let Mounted { batches, .. } = Log::mount(log.into_device(), 64).unwrap();
        batches
            .iter()
            .flat_map(|b| b.blocks.iter().map(|&(a, t)| (a.0, t)))
            .collect()
    }

    /// The container payload and tag are an on-disk contract: an image
    /// written by any revision-2 build must keep mounting.
    #[test]
    fn containers_are_pinned_byte_for_byte() {
        let two = || vec![(7u64, vec![0xAA, 0xBB, 0xCC], "a"), (9u64, vec![0xDD], "b")];
        #[rustfmt::skip]
        let body = [
            2, 0,                         // count
            3, 0, 0, 0, 0xAA, 0xBB, 0xCC, // slot 0: len, bytes
            1, 0, 0, 0, 0xDD,             // slot 1
        ];
        for (kind, magic, tag) in [
            (
                JOURNAL,
                *b"BJ4S",
                BlockTag::new(BlockKind::JournalSector, 7, 2),
            ),
            (
                CHECKPOINTS,
                *b"BC4S",
                BlockTag::new(BlockKind::ObjectCheckpoint, 7, u64::MAX),
            ),
            (DELTAS, *b"DD4S", BlockTag::new(BlockKind::DeltaData, 7, 2)),
        ] {
            let (log, mut live, mut p) = (log(), BTreeSet::new(), kind);
            let placed = pack(&mut p, &log, &mut live, two());
            let addr = placed[0].0;
            assert_eq!(placed, [(addr, 0, 7, "a"), (addr, 1, 9, "b")]);
            assert!(live.contains(&addr.0));
            let block = log.read_block(addr).unwrap();
            let want: Vec<u8> = magic.iter().chain(&body).copied().collect();
            assert_eq!(block[..want.len()], want[..]);
            assert!(block[want.len()..].iter().all(|&b| b == 0), "zero padding");
            assert_eq!(
                p.split(&block).unwrap(),
                [vec![0xAA, 0xBB, 0xCC], vec![0xDD]]
            );
            assert_eq!(tags(log)[&addr.0], tag);
        }
    }

    #[test]
    fn a_block_overflows_at_exactly_4096_bytes() {
        let (log, mut live, mut p) = (log(), BTreeSet::new(), JOURNAL);
        // 6 + (4 + 2041) + (4 + 2041) = 4096: fits to the last byte.
        let placed = pack(
            &mut p,
            &log,
            &mut live,
            vec![(1, vec![1; 2041], "a"), (2, vec![2; 2041], "b")],
        );
        assert_eq!(placed[0].0, placed[1].0, "exact fit shares the block");
        // One byte more and the second item starts a new block.
        let placed = pack(
            &mut p,
            &log,
            &mut live,
            vec![
                (1, vec![1; 2041], "a"),
                (2, vec![2; 2042], "b"),
                (3, vec![3], "c"),
            ],
        );
        assert_ne!(placed[0].0, placed[1].0, "4097 bytes overflow");
        assert_eq!((placed[1].1, placed[2].0, placed[2].1), (0, placed[1].0, 1));
        let t = tags(log);
        assert_eq!(
            t[&placed[0].0 .0],
            BlockTag::new(BlockKind::JournalSector, 1, 1)
        );
        assert_eq!(
            t[&placed[1].0 .0],
            BlockTag::new(BlockKind::JournalSector, 2, 2)
        );
    }

    #[test]
    fn release_frees_at_zero_and_only_at_zero() {
        let (log, mut live, mut p) = (log(), BTreeSet::new(), DELTAS);
        let items = vec![(1, vec![1], "a"), (2, vec![2], "b"), (3, vec![3], "c")];
        let addr = pack(&mut p, &log, &mut live, items)[0].0;
        assert_eq!(p.release_ref(&log, &mut live, addr), 0);
        assert_eq!(p.release_ref(&log, &mut live, addr), 0);
        assert!(live.contains(&addr.0), "one reference left");
        assert_eq!(p.release_ref(&log, &mut live, addr), 1);
        assert!(!live.contains(&addr.0) && p.refs.is_empty());
    }

    #[test]
    fn relocation_moves_the_count_and_forget_drops_it() {
        let (log, mut live, mut p) = (log(), BTreeSet::new(), JOURNAL);
        let addr = pack(
            &mut p,
            &log,
            &mut live,
            vec![(1, vec![1], "a"), (2, vec![2], "b")],
        )[0]
        .0;
        let new = BlockAddr(addr.0 + 100);
        p.relocated(addr, new);
        assert_eq!(p.refs, BTreeMap::from([(new.0, 2)]));
        p.relocated(BlockAddr(12345), BlockAddr(6)); // unknown block: no-op
        assert_eq!(p.refs.len(), 1);
        p.add_ref(new);
        assert_eq!(p.refs[&new.0], 3);
        p.forget(new);
        assert!(p.refs.is_empty());
        assert!(
            live.contains(&addr.0),
            "forget leaves storage to the cleaner"
        );
    }

    #[test]
    fn split_rejects_wrong_magic_and_each_truncation() {
        let block = encode_container(0x5334_4A42, [&[1u8, 2, 3][..], &[4u8][..]].into_iter());
        assert_eq!(JOURNAL.split(&block).unwrap().len(), 2);
        let err = |p: &PackedBlocks, buf: &[u8]| p.split(buf).unwrap_err();
        assert_eq!(
            err(&DELTAS, &block),
            S4Error::BadRequest("container block magic")
        );
        for bad in crate::hostile(&block) {
            let _ = JOURNAL.split(&bad);
        }
        for cut in [3, 5, 8, block.len() - 1] {
            assert_eq!(
                err(&JOURNAL, &block[..cut]),
                S4Error::BadRequest("container block truncated"),
                "cut at {cut}"
            );
        }
    }
}

//! Shared containers (§4.2.2), the format implemented once.
//!
//! The paper packs the 512-byte journal sectors of many objects into
//! shared log blocks, and sizes on-disk inodes the same way. The drive
//! has three kinds of record too small to deserve a 4 KiB block each —
//! journal sectors, small metadata checkpoints, and cross-version deltas
//! — and `PackedBlocks` is the one format behind all of them: fill a
//! block greedily, append it held by one reference per slot, and split
//! it back. How many of a block's slots are still referenced is the
//! [`Ledger`]'s business, like every other block's.
//!
//! What differs between the kinds is what a slot *means* (whose sector
//! list, checkpoint root or delta map points at it), and that stays with
//! the callers: `pack` hands each placed slot to an install callback.
//!
//! The on-disk contract — pinned byte for byte by the tests below — is
//! the payload `[magic u32 | count u16 | count × (len u32, bytes)]`,
//! little-endian, and the tag `BlockTag::new(kind, oid of slot 0, aux)`
//! with `aux` the slot count for journal and delta blocks and `u64::MAX`
//! for shared checkpoint blocks (a dedicated checkpoint chain tags its
//! blocks with their chunk index) and for journal blocks the drive
//! rewrote, which mount tells from a sync's by that tag alone.

use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::codec::{push_bytes, Reader};
use crate::ledger::Ledger;
use crate::{Result, S4Error};

/// Container bytes ahead of the first slot: magic and count.
const HEADER: usize = 6;

/// One record on its way into a container: the object it belongs to,
/// its bytes, and whatever the caller wants back at install time.
pub(crate) type Item<T> = (u64, Vec<u8>, T);

/// The containers of one kind: their identity on disk.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedBlocks {
    magic: u32,
    kind: BlockKind,
    /// Whether the tag's `aux` is the slot count, or `u64::MAX`.
    counted: bool,
}

/// Journal blocks: several objects' journal sectors per block.
pub(crate) const JOURNAL: PackedBlocks =
    PackedBlocks::of(0x5334_4A42, BlockKind::JournalSector, true); // "S4JB"
/// Journal blocks the drive rewrote — a relocated journal block's copy,
/// sectors re-pointed at moved blocks: read like [`JOURNAL`], but never
/// replayed by mount (the anchor commits a history rewrite).
pub(crate) const REWRITTEN: PackedBlocks = PackedBlocks {
    counted: false,
    ..JOURNAL
};
/// Shared checkpoint blocks: several objects' small metadata checkpoints.
pub(crate) const CHECKPOINTS: PackedBlocks =
    PackedBlocks::of(0x5334_4342, BlockKind::ObjectCheckpoint, false); // "S4CB"
/// Delta blocks: history blocks re-encoded against their successors.
pub(crate) const DELTAS: PackedBlocks = PackedBlocks::of(0x5334_4444, BlockKind::DeltaData, true); // "S4DD"

impl PackedBlocks {
    const fn of(magic: u32, kind: BlockKind, counted: bool) -> PackedBlocks {
        PackedBlocks {
            magic,
            kind,
            counted,
        }
    }

    /// The tag of a container of this kind holding `slots` slots, the
    /// first of them `oid`'s.
    pub(crate) fn tag(self, oid: u64, slots: usize) -> BlockTag {
        let aux = if self.counted { slots as u64 } else { u64::MAX };
        BlockTag::new(self.kind, oid, aux)
    }

    /// Packs `items`, in order, into as few blocks as hold them: a block
    /// is appended the moment the next item would not fit. Each placed
    /// slot goes to `install(ledger, addr, slot, oid, what)` right after
    /// its block is appended, so a failing append leaves every earlier
    /// block fully installed.
    pub(crate) fn pack<D: BlockDev, T>(
        self,
        log: &Log<D>,
        ledger: &mut Ledger,
        items: Vec<Item<T>>,
        mut install: impl FnMut(&mut Ledger, BlockAddr, u32, u64, T),
    ) -> Result<()> {
        let mut batch: Vec<Item<T>> = Vec::new();
        let mut used = HEADER;
        for item in items {
            let need = 4 + item.1.len();
            if used + need > BLOCK_SIZE {
                self.append(log, ledger, &mut batch, &mut install)?;
                used = HEADER;
            }
            used += need;
            batch.push(item);
        }
        self.append(log, ledger, &mut batch, &mut install)
    }

    /// Appends `batch` as one container — the only place one is written.
    fn append<D: BlockDev, T>(
        self,
        log: &Log<D>,
        ledger: &mut Ledger,
        batch: &mut Vec<Item<T>>,
        install: &mut impl FnMut(&mut Ledger, BlockAddr, u32, u64, T),
    ) -> Result<()> {
        let Some(first) = batch.first() else {
            return Ok(());
        };
        let count = batch.len();
        let payload = encode_container(self.magic, batch.iter().map(|(_, p, _)| p.as_slice()));
        let addr = ledger.append(log, self.tag(first.0, count), &payload, count as u32)?;
        for (slot, (oid, _, what)) in batch.drain(..).enumerate() {
            install(ledger, addr, slot as u32, oid, what);
        }
        Ok(())
    }

    /// The slots of a container of this kind, in order, borrowed from
    /// `buf`.
    fn slots(self, buf: &[u8]) -> Result<impl Iterator<Item = Result<&[u8]>>> {
        let mut r = Reader::new(buf, "container block truncated");
        if r.u32()? != self.magic {
            return Err(S4Error::BadRequest("container block magic"));
        }
        Ok((0..r.u16()?).map(move |_| Ok(r.bytes()?)))
    }

    /// Splits a container of this kind back into its slots — for the
    /// cleaner, which wants them all.
    pub(crate) fn split(self, buf: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.slots(buf)?.map(|s| s.map(<[u8]>::to_vec)).collect()
    }

    /// Slot `n` of a container of this kind, without materialising its
    /// neighbours: a reader of one object's record pays for that record.
    pub(crate) fn slot(self, buf: &[u8], n: u32) -> Result<&[u8]> {
        let mut slots = self.slots(buf)?;
        for _ in 0..n {
            slots.next().transpose()?; // a damaged neighbour is still damage
        }
        let missing = S4Error::BadRequest("container slot out of range");
        slots.next().unwrap_or(Err(missing))
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
    use std::collections::BTreeMap;

    const CONFIG: LogConfig = LogConfig {
        blocks_per_segment: 16,
        cache_blocks: 64,
        readahead_blocks: 1,
    };

    fn log() -> Log<MemDisk> {
        Log::format(MemDisk::with_capacity_bytes(4 << 20), CONFIG).unwrap()
    }

    type Placed = Vec<(BlockAddr, u32, u64, &'static str)>;

    /// Packs `items` and returns where each landed.
    fn pack(
        p: PackedBlocks,
        log: &Log<MemDisk>,
        ledger: &mut Ledger,
        items: Vec<Item<&'static str>>,
    ) -> Placed {
        let mut placed = Vec::new();
        p.pack(log, ledger, items, |_, addr, slot, oid, what| {
            placed.push((addr, slot, oid, what))
        })
        .unwrap();
        placed
    }

    /// The tag every block of the log was appended under, by address.
    fn tags(log: Log<MemDisk>) -> BTreeMap<u64, BlockTag> {
        log.flush().unwrap();
        let Mounted { batches, .. } = Log::mount(log.into_device(), CONFIG).unwrap();
        batches
            .iter()
            .flat_map(|b| b.blocks.iter().map(|&(a, t)| (a.0, t)))
            .collect()
    }

    /// The container payload and tag are an on-disk contract. Format
    /// revision 3 moved where a short container sits — each of these is
    /// its batch's first short payload, so the summary block carries it —
    /// and nothing of what it holds: payload, padding as read, and tag
    /// are revision 2's.
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
            (
                REWRITTEN,
                *b"BJ4S",
                BlockTag::new(BlockKind::JournalSector, 7, u64::MAX),
            ),
        ] {
            let (log, mut ledger, p) = (log(), Ledger::default(), kind);
            let placed = pack(p, &log, &mut ledger, two());
            let addr = placed[0].0;
            assert_eq!(placed, [(addr, 0, 7, "a"), (addr, 1, 9, "b")]);
            assert!(ledger.holds(addr) && addr.is_carried());
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
        let (log, mut ledger, p) = (log(), Ledger::default(), JOURNAL);
        // 6 + (4 + 2041) + (4 + 2041) = 4096: fits to the last byte.
        let placed = pack(
            p,
            &log,
            &mut ledger,
            vec![(1, vec![1; 2041], "a"), (2, vec![2; 2041], "b")],
        );
        assert_eq!(placed[0].0, placed[1].0, "exact fit shares the block");
        // One byte more and the second item starts a new block.
        let placed = pack(
            p,
            &log,
            &mut ledger,
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
    fn split_rejects_wrong_magic_and_each_truncation() {
        let block = encode_container(0x5334_4A42, [&[1u8, 2, 3][..], &[4u8][..]].into_iter());
        assert_eq!(JOURNAL.split(&block).unwrap().len(), 2);
        assert_eq!(JOURNAL.slot(&block, 0), Ok(&[1u8, 2, 3][..]));
        assert_eq!(JOURNAL.slot(&block, 1), Ok(&[4u8][..]));
        assert_eq!(
            JOURNAL.slot(&block, 2),
            Err(S4Error::BadRequest("container slot out of range"))
        );
        // One slot is read through the same walk, so it fails alike.
        let err = |p: PackedBlocks, buf: &[u8]| {
            assert_eq!(p.slot(buf, 1).unwrap_err(), p.split(buf).unwrap_err());
            p.split(buf).unwrap_err()
        };
        assert_eq!(
            err(DELTAS, &block),
            S4Error::BadRequest("container block magic")
        );
        for bad in crate::hostile(&block) {
            let _ = JOURNAL.split(&bad);
        }
        for cut in [3, 5, 8, block.len() - 1] {
            assert_eq!(
                err(JOURNAL, &block[..cut]),
                S4Error::BadRequest("container block truncated"),
                "cut at {cut}"
            );
        }
    }
}

//! Partial-segment summary blocks.
//!
//! Every flush of the log writes one summary block at the head of the
//! batch, describing each block that follows (its [`BlockTag`]) and
//! carrying a 64-bit checksum of those blocks' contents. Summary and data
//! reach the device in one transfer, so the checksum — not write order —
//! is what makes a torn flush detectable. Summaries carry a strictly
//! increasing epoch; crash recovery rolls forward from the anchored
//! cursor, accepting summaries only in exact epoch order and only with
//! matching data, so a torn flush cleanly terminates recovery at the last
//! complete batch (§4.2.2: "journal sectors are identified by segment
//! summary information").
//!
//! A summary uses 44 bytes plus 17 per block it describes, and most
//! commits hold one block far shorter than 4 KiB — the journal container
//! of a `Sync`. So the summary *carries* the batch's first short payload
//! in its own unused bytes instead of giving it a block slot: the record
//! is covered by the summary's CRC (a torn record is a torn summary) and
//! named by `BlockAddr::carried_by` the summary's slot.
//!
//! Block layout (format revision 3): magic (0..4), CRC-32 of bytes 8..
//! (4..8), epoch (8..16), segment (16..20), offset (20..24), next segment
//! (24..28), entry count (28..32), data checksum (32..40), carried
//! record's length (40..42), its position in the batch's append order
//! (42..44; `0xFFFF`: no carried record), then the entries — kind (1),
//! object (8), aux (8) each — then, if a record is carried, its tag in
//! the same 17 bytes and its bytes. The rest of the block is zero.

use crate::codec::Reader;
use crate::crc::crc32;
use crate::layout::{BlockAddr, BlockKind, BlockTag, Geometry, SegmentId, BLOCK_SIZE};
use crate::{LfsError, Result};

const MAGIC: u32 = 0x5334_534D; // "S4SM"
const HEADER_BYTES: usize = 44;
const ENTRY_BYTES: usize = 17;
const NOT_CARRYING: u16 = u16::MAX;

/// Sentinel for "this summary does not seal the segment".
pub const NO_NEXT_SEGMENT: u32 = u32::MAX;

/// The longest payload a summary of a log with `blocks_per_segment`-block
/// segments carries, or `None` where nothing fits: what is left of the
/// block beside the header and the tags of a full segment's worth of
/// entries, less the record's own tag. A batch ends with its segment at
/// the latest, so a summary that carries a record within the limit
/// always has room for every entry its batch can take.
pub(crate) fn carried_limit(blocks_per_segment: u32) -> Option<usize> {
    let tags = ENTRY_BYTES.checked_mul(blocks_per_segment as usize + 1)?;
    (BLOCK_SIZE - HEADER_BYTES).checked_sub(tags)
}

/// One block description inside a summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SummaryEntry {
    /// Tag of the described block.
    pub tag: BlockTag,
}

/// The record a summary carries in place of a block of its own.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Carried {
    /// Tag of the record, as an entry's.
    pub tag: BlockTag,
    /// How many of the batch's entries were appended before it.
    pub pos: u16,
    /// The payload, at its own length.
    pub data: Vec<u8>,
}

/// A decoded partial-segment summary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Summary {
    /// Flush sequence number; recovery accepts epochs in exact order.
    pub epoch: u64,
    /// Segment this summary lives in (sanity check for recovery).
    pub segment: SegmentId,
    /// Block offset within the segment of the summary block itself.
    pub offset: u32,
    /// If this flush sealed the segment, the segment where the log
    /// continues; otherwise [`NO_NEXT_SEGMENT`].
    pub next_segment: SegmentId,
    /// [`crate::crc::xxh64`] of the `entries.len()` data blocks that
    /// follow the summary, concatenated in log order.
    pub data_checksum: u64,
    /// Descriptions of the `entries.len()` blocks that follow the summary.
    pub entries: Vec<SummaryEntry>,
    /// The record riding in the summary block itself, if any.
    pub carried: Option<Carried>,
}

/// Maximum number of block entries one summary block can describe.
pub(crate) const MAX_ENTRIES: usize = (BLOCK_SIZE - HEADER_BYTES) / ENTRY_BYTES;

fn put_tag(buf: &mut [u8], tag: &BlockTag) {
    buf[0] = tag.kind as u8;
    buf[1..9].copy_from_slice(&tag.object.to_le_bytes());
    buf[9..17].copy_from_slice(&tag.aux.to_le_bytes());
}

fn tag(r: &mut Reader<'_>) -> Result<BlockTag> {
    let kind = BlockKind::from_u8(r.u8()?)?;
    Ok(BlockTag::new(kind, r.u64()?, r.u64()?))
}

impl Summary {
    /// Serializes into exactly one block.
    ///
    /// # Panics
    ///
    /// Panics if the entries and the carried record overrun the block;
    /// the log writer limits batch size and record length
    /// (`MAX_ENTRIES`, `carried_limit`) so this cannot happen in
    /// normal operation.
    pub fn encode(&self) -> Vec<u8> {
        let carried = self.carried.as_ref();
        let used = HEADER_BYTES
            + ENTRY_BYTES * self.entries.len()
            + carried.map_or(0, |c| ENTRY_BYTES + c.data.len());
        assert!(used <= BLOCK_SIZE, "summary overflow");
        let mut buf = vec![0u8; BLOCK_SIZE];
        buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        // CRC at 4..8 filled last.
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        buf[16..20].copy_from_slice(&self.segment.to_le_bytes());
        buf[20..24].copy_from_slice(&self.offset.to_le_bytes());
        buf[24..28].copy_from_slice(&self.next_segment.to_le_bytes());
        buf[28..32].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        buf[32..40].copy_from_slice(&self.data_checksum.to_le_bytes());
        let (len, pos) = carried.map_or((0, NOT_CARRYING), |c| (c.data.len() as u16, c.pos));
        assert!(pos == NOT_CARRYING || pos as usize <= self.entries.len());
        buf[40..42].copy_from_slice(&len.to_le_bytes());
        buf[42..44].copy_from_slice(&pos.to_le_bytes());
        let mut o = HEADER_BYTES;
        for e in &self.entries {
            put_tag(&mut buf[o..], &e.tag);
            o += ENTRY_BYTES;
        }
        if let Some(c) = carried {
            put_tag(&mut buf[o..], &c.tag);
            buf[o + ENTRY_BYTES..][..c.data.len()].copy_from_slice(&c.data);
        }
        let crc = crc32(&buf[8..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and validates a block.
    pub fn decode(buf: &[u8]) -> Result<Summary> {
        let mut r = Self::sealed(buf)?;
        if crc32(&buf[8..]) != r.u32()? {
            return Err(LfsError::Corrupt("summary crc"));
        }
        Self::fields(r)
    }

    /// A cursor at the CRC of a block of the right length and magic.
    fn sealed(buf: &[u8]) -> Result<Reader<'_>> {
        if buf.len() != BLOCK_SIZE {
            return Err(LfsError::Corrupt("summary length"));
        }
        if buf[0..4] != MAGIC.to_le_bytes() {
            return Err(LfsError::Corrupt("summary magic"));
        }
        Ok(Reader::at(buf, 4, "summary truncated"))
    }

    /// The fields behind the CRC, every one bounds-checked.
    fn fields(mut r: Reader<'_>) -> Result<Summary> {
        let epoch = r.u64()?;
        let segment = r.u32()?;
        let offset = r.u32()?;
        let next_segment = r.u32()?;
        let n = r.count(ENTRY_BYTES)?;
        let data_checksum = r.u64()?;
        let (len, pos) = (r.u16()?, r.u16()?);
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(SummaryEntry { tag: tag(&mut r)? });
        }
        // The record follows the entries, so it cannot overlap them; one
        // that runs off the block, or claims a place in the append order
        // past the last entry, is refused under a valid CRC.
        let carried = match pos {
            NOT_CARRYING if len == 0 => None,
            NOT_CARRYING => return Err(LfsError::Corrupt("summary record length")),
            _ if pos as usize > n => return Err(LfsError::Corrupt("summary record position")),
            _ => Some(Carried {
                tag: tag(&mut r)?,
                pos,
                data: r.take(len as usize)?.to_vec(),
            }),
        };
        Ok(Summary {
            epoch,
            segment,
            offset,
            next_segment,
            data_checksum,
            entries,
            carried,
        })
    }

    /// True if this is the summary of the batch at block slot `at`: a
    /// block that decodes as a summary of another place is some payload's
    /// bytes.
    pub(crate) fn is_at(&self, geo: &Geometry, at: BlockAddr) -> bool {
        self.segment == geo.segment_of(at) && self.offset == geo.offset_in_segment(at)
    }

    /// The summary a read passing block slot `at` finds there, if any:
    /// [`Summary::decode`] without the CRC. Roll-forward verified every
    /// commit it replayed and the read path re-verifies no block; over a
    /// 32-block readahead run a dozen 4 KiB CRCs cost more than the
    /// transfer (measured: `drive_churn_recover`'s remount 0.32 → 0.53 s).
    pub fn passing(geo: &Geometry, at: BlockAddr, block: &[u8]) -> Option<Summary> {
        let mut r = Self::sealed(block).ok()?;
        r.u32().ok()?;
        Self::fields(r).ok().filter(|s| s.is_at(geo, at))
    }

    /// Every block of the batch in append order — address, tag, bytes —
    /// given `data`, the blocks that follow the summary on the device.
    /// An entry's bytes are its 4 KiB block; the carried record's are the
    /// payload at its own length, under its carried address.
    pub(crate) fn blocks<'a>(
        &'a self,
        geo: &Geometry,
        data: &'a [u8],
    ) -> Vec<(BlockAddr, BlockTag, &'a [u8])> {
        let at = |i: usize| geo.addr_of(self.segment, self.offset + i as u32);
        let entries = self.entries.iter().zip(data.chunks_exact(BLOCK_SIZE));
        let mut out: Vec<_> = entries
            .enumerate()
            .map(|(i, (e, block))| (at(1 + i), e.tag, block))
            .collect();
        if let Some(c) = &self.carried {
            let record = (BlockAddr::carried_by(at(0)), c.tag, &c.data[..]);
            out.insert((c.pos as usize).min(out.len()), record);
        }
        out
    }

    /// True if this flush sealed its segment.
    pub(crate) fn seals_segment(&self) -> bool {
        self.next_segment != NO_NEXT_SEGMENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Summary {
        Summary {
            epoch: 77,
            segment: 3,
            offset: 40,
            next_segment: NO_NEXT_SEGMENT,
            data_checksum: 0xFEED_FACE_0BAD_F00D,
            entries: (0..10)
                .map(|i| SummaryEntry {
                    tag: BlockTag::new(BlockKind::Data, 100 + i, i * 7),
                })
                .collect(),
            carried: None,
        }
    }

    /// [`sample`] carrying a 300-byte record appended after its third
    /// entry.
    fn carrying() -> Summary {
        let mut s = sample();
        s.carried = Some(Carried {
            tag: BlockTag::new(BlockKind::JournalSector, 9, 2),
            pos: 3,
            data: (0..300u32).map(|i| i as u8 | 1).collect(),
        });
        s
    }

    /// Re-seals `buf` after a test has edited it.
    fn reseal(buf: &mut [u8]) {
        let crc = crc32(&buf[8..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn round_trip() {
        for s in [sample(), carrying()] {
            assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
        }
    }

    #[test]
    fn a_carried_record_round_trips_at_every_position_and_length() {
        let mut s = carrying();
        for pos in 0..=s.entries.len() as u16 {
            s.carried.as_mut().unwrap().pos = pos;
            assert_eq!(Summary::decode(&s.encode()).unwrap(), s, "pos {pos}");
        }
        // An empty record is a record; the longest one fills the block
        // beside a full 16-block segment's entries.
        s.entries.truncate(15);
        for len in [0, 1, carried_limit(16).unwrap()] {
            s.carried.as_mut().unwrap().data = vec![0xC3; len];
            assert_eq!(Summary::decode(&s.encode()).unwrap(), s, "len {len}");
        }
        s.entries.clear();
        s.carried.as_mut().unwrap().pos = 0;
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s, "no entries");
    }

    #[test]
    fn the_limit_leaves_room_for_a_full_segment_of_tags() {
        assert_eq!(carried_limit(128), Some(4096 - 44 - 17 * 128 - 17)); // 1 859
        assert_eq!(carried_limit(16), Some(3763));
        assert_eq!(carried_limit(237), Some(6));
        assert_eq!(carried_limit(238), None, "no room beside 238 tags");
        assert_eq!(carried_limit(u32::MAX), None);
        for bps in [8u32, 16, 128, 237] {
            let mut s = sample();
            s.entries = vec![s.entries[0]; bps as usize - 1];
            s.carried = Some(Carried {
                tag: s.entries[0].tag,
                pos: 0,
                data: vec![7; carried_limit(bps).unwrap()],
            });
            assert_eq!(Summary::decode(&s.encode()).unwrap(), s, "{bps}");
        }
    }

    #[test]
    fn a_hostile_record_is_refused_under_a_valid_crc() {
        let good = carrying().encode();
        let n = carrying().entries.len() as u16;
        let edits: [(&str, usize, u16); 5] = [
            ("length runs off the block", 40, 4000),
            ("length u16::MAX", 40, u16::MAX),
            ("position past the last entry", 42, n + 1),
            ("position 0xFFFE", 42, 0xFFFE),
            ("a length without a record", 42, NOT_CARRYING),
        ];
        // The read path's CRC-less parse refuses the same blocks, and
        // takes a sound one only at its own place.
        let geo = Geometry::compute(1_000_000, 128).unwrap();
        let here = geo.addr_of(3, 40);
        assert_eq!(Summary::passing(&geo, here, &good), Some(carrying()));
        assert_eq!(Summary::passing(&geo, geo.addr_of(3, 41), &good), None);
        for (what, at, v) in edits {
            let mut buf = good.clone();
            buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
            assert_eq!(Summary::passing(&geo, here, &buf), None, "{what}");
            reseal(&mut buf);
            assert!(
                matches!(Summary::decode(&buf), Err(LfsError::Corrupt(_))),
                "{what}"
            );
        }
        // More entries than the record leaves room for: the record would
        // have to overlap them, and instead runs off the block.
        let mut buf = good.clone();
        buf[28..32].copy_from_slice(&230u32.to_le_bytes());
        buf[42..44].copy_from_slice(&0u16.to_le_bytes());
        for e in 0..230 {
            buf[HEADER_BYTES + e * ENTRY_BYTES] = BlockKind::Data as u8;
        }
        reseal(&mut buf);
        assert!(matches!(Summary::decode(&buf), Err(LfsError::Corrupt(_))));
        // A bad kind in the record's tag.
        let mut buf = good.clone();
        buf[HEADER_BYTES + n as usize * ENTRY_BYTES] = 99;
        reseal(&mut buf);
        assert_eq!(
            Summary::decode(&buf),
            Err(LfsError::Corrupt("block kind")),
            "the record's tag is checked like an entry's"
        );
    }

    #[test]
    fn blocks_lists_the_batch_in_append_order() {
        let geo = Geometry::compute(1_000_000, 128).unwrap();
        let s = carrying();
        let data: Vec<u8> = (0..10u8).flat_map(|i| vec![i; BLOCK_SIZE]).collect();
        let blocks = s.blocks(&geo, &data);
        assert_eq!(blocks.len(), 11);
        let summary = geo.addr_of(3, 40);
        assert_eq!(blocks[3].0, BlockAddr::carried_by(summary));
        assert_eq!(blocks[3].1, s.carried.as_ref().unwrap().tag);
        assert_eq!(blocks[3].2.len(), 300);
        let plain: Vec<_> = blocks.iter().filter(|b| !b.0.is_carried()).collect();
        for (i, (addr, tag, block)) in plain.into_iter().enumerate() {
            assert_eq!(*addr, geo.addr_of(3, 41 + i as u32));
            assert_eq!(*tag, s.entries[i].tag);
            assert_eq!(block[..], vec![i as u8; BLOCK_SIZE][..]);
        }
        assert_eq!(sample().blocks(&geo, &data).len(), 10);
    }

    #[test]
    fn data_checksum_round_trips_and_is_covered_by_the_crc() {
        let buf = sample().encode();
        assert_eq!(
            Summary::decode(&buf).unwrap().data_checksum,
            0xFEED_FACE_0BAD_F00D
        );
        for byte in 32..40 {
            let mut bad = buf.clone();
            bad[byte] ^= 0x80;
            assert!(Summary::decode(&bad).is_err(), "flip at byte {byte}");
        }
    }

    #[test]
    fn round_trip_max_entries() {
        let mut s = sample();
        s.entries = (0..MAX_ENTRIES as u64)
            .map(|i| SummaryEntry {
                tag: BlockTag::new(BlockKind::JournalSector, i, u64::MAX - i),
            })
            .collect();
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn a_sealed_block_whose_count_overruns_it_is_refused() {
        // `Reader::count` stands in for a `> MAX_ENTRIES` test: one entry
        // too many, or a hostile count, runs off the block under a valid
        // CRC.
        let mut full = sample();
        full.entries = vec![full.entries[0]; MAX_ENTRIES];
        for n in [MAX_ENTRIES as u32 + 1, u32::MAX] {
            let mut buf = full.encode();
            buf[28..32].copy_from_slice(&n.to_le_bytes());
            reseal(&mut buf);
            assert!(
                matches!(Summary::decode(&buf), Err(LfsError::Corrupt(_))),
                "count {n}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let mut buf = sample().encode();
        buf[100] ^= 1;
        assert!(Summary::decode(&buf).is_err());
    }

    #[test]
    fn zero_block_is_not_a_summary() {
        assert!(Summary::decode(&vec![0u8; BLOCK_SIZE]).is_err());
    }

    #[test]
    fn seals_segment_flag() {
        let mut s = sample();
        assert!(!s.seals_segment());
        s.next_segment = 9;
        assert!(s.seals_segment());
    }

    #[test]
    fn max_entries_is_plausible() {
        // A 512 KiB segment has 128 blocks; one summary must be able to
        // describe a full segment's worth of blocks.
        const { assert!(MAX_ENTRIES >= 127) };
    }
}

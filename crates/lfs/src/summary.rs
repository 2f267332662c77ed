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
//! Block layout: magic (0..4), CRC-32 of bytes 8.. (4..8), epoch (8..16),
//! segment (16..20), offset (20..24), next segment (24..28), entry count
//! (28..32), data checksum (32..40), reserved (40..44), then the entries.

use crate::codec::Reader;
use crate::crc::crc32;
use crate::layout::{BlockKind, BlockTag, SegmentId, BLOCK_SIZE};
use crate::{LfsError, Result};

const MAGIC: u32 = 0x5334_534D; // "S4SM"
const HEADER_BYTES: usize = 44;
const ENTRY_BYTES: usize = 17;

/// Sentinel for "this summary does not seal the segment".
pub const NO_NEXT_SEGMENT: u32 = u32::MAX;

/// One block description inside a summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SummaryEntry {
    /// Tag of the described block.
    pub tag: BlockTag,
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
}

/// Maximum number of block entries one summary block can describe.
pub const MAX_ENTRIES: usize = (BLOCK_SIZE - HEADER_BYTES) / ENTRY_BYTES;

impl Summary {
    /// Serializes into exactly one block.
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() > MAX_ENTRIES`; the log writer limits batch
    /// size so this cannot happen in normal operation.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.entries.len() <= MAX_ENTRIES, "summary overflow");
        let mut buf = vec![0u8; BLOCK_SIZE];
        buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        // CRC at 4..8 filled last.
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        buf[16..20].copy_from_slice(&self.segment.to_le_bytes());
        buf[20..24].copy_from_slice(&self.offset.to_le_bytes());
        buf[24..28].copy_from_slice(&self.next_segment.to_le_bytes());
        buf[28..32].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        buf[32..40].copy_from_slice(&self.data_checksum.to_le_bytes());
        let mut o = HEADER_BYTES;
        for e in &self.entries {
            buf[o] = e.tag.kind as u8;
            buf[o + 1..o + 9].copy_from_slice(&e.tag.object.to_le_bytes());
            buf[o + 9..o + 17].copy_from_slice(&e.tag.aux.to_le_bytes());
            o += ENTRY_BYTES;
        }
        let crc = crc32(&buf[8..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and validates a block.
    pub fn decode(buf: &[u8]) -> Result<Summary> {
        if buf.len() != BLOCK_SIZE {
            return Err(LfsError::Corrupt("summary length"));
        }
        if buf[0..4] != MAGIC.to_le_bytes() {
            return Err(LfsError::Corrupt("summary magic"));
        }
        let mut r = Reader::at(buf, 4, "summary truncated");
        if crc32(&buf[8..]) != r.u32()? {
            return Err(LfsError::Corrupt("summary crc"));
        }
        let epoch = r.u64()?;
        let segment = r.u32()?;
        let offset = r.u32()?;
        let next_segment = r.u32()?;
        let n = r.count(ENTRY_BYTES)?;
        let data_checksum = r.u64()?;
        r.take(4)?; // reserved
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = BlockKind::from_u8(r.u8()?)?;
            let object = r.u64()?;
            let aux = r.u64()?;
            entries.push(SummaryEntry {
                tag: BlockTag { kind, object, aux },
            });
        }
        Ok(Summary {
            epoch,
            segment,
            offset,
            next_segment,
            data_checksum,
            entries,
        })
    }

    /// True if this flush sealed its segment.
    pub fn seals_segment(&self) -> bool {
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
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
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
            let crc = crc32(&buf[8..]);
            buf[4..8].copy_from_slice(&crc.to_le_bytes());
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

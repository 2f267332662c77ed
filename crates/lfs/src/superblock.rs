//! Dual-copy checksummed superblock.
//!
//! The superblock records the geometry and the *log anchor*: the position
//! from which crash recovery rolls forward, plus the summary-epoch range
//! of the batches holding the most recent system-state checkpoint. Two
//! copies live at the front of the device and are written alternately
//! (selected by epoch parity), so a torn superblock write always leaves
//! the previous copy intact.

use s4_simdisk::{BlockDev, SECTOR_SIZE};

use crate::codec::Reader;
use crate::crc::crc32;
use crate::layout::{Geometry, SegmentId};
use crate::{LfsError, Result};

const MAGIC: u32 = 0x5334_4C46; // "S4LF"
const SB_BYTES: usize = 96;

/// On-disk format revision, stored at bytes 72..76 (zero padding before
/// revision 2). Revision 2 commits a batch as one `[summary | data]`
/// write whose summary carries a checksum of the data; a revision-1 image
/// has no such checksums, so mounting it would reject every batch as torn
/// and silently roll forward to an empty log. It is refused instead.
/// Revision 3 lets a summary block carry its batch's first short payload
/// (see [`crate::summary`]); a revision-2 summary's reserved bytes read
/// as a malformed record, so that image is refused the same way.
/// Revision 4 drops the forwarding table from the drive's checkpoints.
/// Revision 5 keeps one 68-byte audit record per request, with its trace
/// context and layer times, and no separate trace stream: a revision-4
/// audit block reads as malformed records and its anchor payload as a
/// truncated one. Revision 6 files each alert as one audit record and
/// drops the alert stream with its blocks and its anchor-payload section.
pub(crate) const FORMAT_VERSION: u32 = 6;

/// Sentinel for "the log has never been anchored".
pub(crate) const NO_STATE: u64 = u64::MAX;

/// On-disk superblock contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Monotonically increasing write epoch; the copy with the larger
    /// valid epoch wins at mount.
    pub epoch: u64,
    /// Blocks per segment (fixed at format time).
    pub blocks_per_segment: u32,
    /// Number of segments (fixed at format time).
    pub num_segments: u32,
    /// Segment the log cursor was in at anchor time.
    pub cursor_segment: SegmentId,
    /// Block offset of the cursor within that segment.
    pub cursor_block: u32,
    /// Epoch the first summary after the anchor carries; roll-forward
    /// accepts only exact epoch sequence from here.
    pub next_summary_epoch: u64,
    /// First summary epoch of the system-state batches (`NO_STATE` if
    /// never anchored).
    pub state_epoch_first: u64,
    /// Last summary epoch of the system-state batches.
    pub state_epoch_last: u64,
    /// Next hybrid-timestamp sequence number (so version stamps keep
    /// increasing across remounts).
    pub next_stamp_seq: u64,
    /// Simulated time at anchor (restored into the clock on mount of a
    /// long-lived history).
    pub anchor_time_us: u64,
}

impl Superblock {
    /// Serializes to exactly [`SECTOR_SIZE`] bytes with magic and CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; SECTOR_SIZE];
        buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        // CRC at 4..8 filled last.
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        buf[16..20].copy_from_slice(&self.blocks_per_segment.to_le_bytes());
        buf[20..24].copy_from_slice(&self.num_segments.to_le_bytes());
        buf[24..28].copy_from_slice(&self.cursor_segment.to_le_bytes());
        buf[28..32].copy_from_slice(&self.cursor_block.to_le_bytes());
        buf[32..40].copy_from_slice(&self.next_summary_epoch.to_le_bytes());
        buf[40..48].copy_from_slice(&self.state_epoch_first.to_le_bytes());
        buf[48..56].copy_from_slice(&self.state_epoch_last.to_le_bytes());
        buf[56..64].copy_from_slice(&self.next_stamp_seq.to_le_bytes());
        buf[64..72].copy_from_slice(&self.anchor_time_us.to_le_bytes());
        buf[72..76].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        let crc = crc32(&buf[8..SB_BYTES]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and validates a sector.
    pub fn decode(buf: &[u8]) -> Result<Superblock> {
        if buf.len() < SECTOR_SIZE {
            return Err(LfsError::Corrupt("superblock length"));
        }
        if buf[0..4] != MAGIC.to_le_bytes() {
            return Err(LfsError::Corrupt("superblock magic"));
        }
        let mut r = Reader::at(buf, 4, "superblock truncated");
        if crc32(&buf[8..SB_BYTES]) != r.u32()? {
            return Err(LfsError::Corrupt("superblock crc"));
        }
        let sb = Superblock {
            epoch: r.u64()?,
            blocks_per_segment: r.u32()?,
            num_segments: r.u32()?,
            cursor_segment: r.u32()?,
            cursor_block: r.u32()?,
            next_summary_epoch: r.u64()?,
            state_epoch_first: r.u64()?,
            state_epoch_last: r.u64()?,
            next_stamp_seq: r.u64()?,
            anchor_time_us: r.u64()?,
        };
        match r.u32()? {
            FORMAT_VERSION => {}
            other => return Err(LfsError::Format(other)),
        }
        Ok(sb)
    }

    /// True if the log has never been anchored.
    pub(crate) fn has_no_state(&self) -> bool {
        self.state_epoch_first == NO_STATE
    }

    /// Writes this superblock to the copy slot selected by epoch parity.
    pub(crate) fn write_to<D: BlockDev>(&self, dev: &D) -> Result<()> {
        let slot = (self.epoch % 2) * Geometry::SUPERBLOCK_COPY_SECTORS;
        dev.write(slot, &self.encode())?;
        dev.sync()?;
        Ok(())
    }

    /// Reads both copies and returns the valid one with the larger epoch.
    /// A device error, or an intact copy of another format revision, fails
    /// the mount outright rather than being skipped like a torn copy.
    pub(crate) fn read_latest<D: BlockDev>(dev: &D) -> Result<Superblock> {
        let mut best: Option<Superblock> = None;
        for copy in 0..2u64 {
            let mut buf = vec![0u8; SECTOR_SIZE];
            // A copy that cannot be read is not a torn copy: falling back
            // to the other one could resurrect a superseded anchor.
            dev.read(copy * Geometry::SUPERBLOCK_COPY_SECTORS, &mut buf)?;
            match Superblock::decode(&buf) {
                Ok(sb) if best.as_ref().is_none_or(|b| sb.epoch > b.epoch) => best = Some(sb),
                Err(e @ LfsError::Format(_)) => return Err(e),
                _ => {}
            }
        }
        best.ok_or(LfsError::Corrupt("no valid superblock"))
    }

    /// Geometry implied by this superblock.
    pub(crate) fn geometry(&self) -> Geometry {
        Geometry {
            superblock_sectors: Geometry::SUPERBLOCK_COPY_SECTORS * 2,
            blocks_per_segment: self.blocks_per_segment,
            num_segments: self.num_segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_simdisk::MemDisk;

    fn sample(epoch: u64) -> Superblock {
        Superblock {
            epoch,
            blocks_per_segment: 128,
            num_segments: 1000,
            cursor_segment: 5,
            cursor_block: 17,
            next_summary_epoch: 42,
            state_epoch_first: 40,
            state_epoch_last: 41,
            next_stamp_seq: 7_000,
            anchor_time_us: 123_456,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let sb = sample(9);
        assert_eq!(Superblock::decode(&sb.encode()).unwrap(), sb);
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut buf = sample(1).encode();
        buf[30] ^= 0xFF;
        assert!(Superblock::decode(&buf).is_err());
        let mut buf2 = sample(1).encode();
        buf2[0] = 0;
        assert!(Superblock::decode(&buf2).is_err());
    }

    #[test]
    fn read_latest_prefers_higher_epoch() {
        let dev = MemDisk::new(1024);
        sample(4).write_to(&dev).unwrap();
        sample(7).write_to(&dev).unwrap();
        assert_eq!(Superblock::read_latest(&dev).unwrap().epoch, 7);
    }

    #[test]
    fn torn_superblock_write_falls_back_to_previous_copy() {
        let dev = MemDisk::new(1024);
        sample(4).write_to(&dev).unwrap();
        sample(5).write_to(&dev).unwrap();
        // Corrupt the epoch-5 copy in place (slot 1).
        let mut garbage = vec![0u8; SECTOR_SIZE];
        garbage[0] = 0xBB;
        dev.write(Geometry::SUPERBLOCK_COPY_SECTORS, &garbage)
            .unwrap();
        assert_eq!(Superblock::read_latest(&dev).unwrap().epoch, 4);
    }

    #[test]
    fn an_earlier_format_is_refused_not_skipped() {
        // A revision-1 superblock — same magic and layout, zero padding
        // where the format revision now lives — and revisions 2 to 5,
        // CRC valid: each refused, by name, beside this build's revision.
        for revision in [0u32, 2, 3, 4, 5] {
            let mut old = sample(3).encode();
            old[72..76].copy_from_slice(&revision.to_le_bytes());
            let crc = crc32(&old[8..SB_BYTES]);
            old[4..8].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(Superblock::decode(&old), Err(LfsError::Format(revision)));

            let dev = MemDisk::new(1024);
            dev.write(Geometry::SUPERBLOCK_COPY_SECTORS, &old).unwrap();
            let err = Superblock::read_latest(&dev).unwrap_err();
            assert_eq!(err, LfsError::Format(revision));
            let text = err.to_string();
            assert!(
                text.contains(&format!("revision {revision} ")) && text.contains("revision 6"),
                "{text}"
            );
        }
    }

    #[test]
    fn empty_disk_has_no_superblock() {
        let dev = MemDisk::new(1024);
        assert!(Superblock::read_latest(&dev).is_err());
    }

    #[test]
    fn no_state_sentinel() {
        let mut sb = sample(1);
        sb.state_epoch_first = NO_STATE;
        assert!(sb.has_no_state());
        assert!(!sample(1).has_no_state());
    }
}

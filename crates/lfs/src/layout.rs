//! Disk geometry, block addressing, and block classification.

use s4_simdisk::SECTOR_SIZE;

use crate::{LfsError, Result};

/// Size of one log block in bytes (8 sectors). All log I/O is in whole
/// blocks; object data is block-granular, matching the paper's 4 KB NFS
/// transfer size.
pub const BLOCK_SIZE: usize = 4096;

/// Sectors per log block.
const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / SECTOR_SIZE) as u64;

/// Index of a segment within the data area.
pub(crate) type SegmentId = u32;

/// Absolute index of a block within the data area of the device.
///
/// Blocks are the unit of allocation and caching; the segment a block
/// belongs to is `addr / blocks_per_segment`. An address with the top
/// bit set names not the block slot itself but the record *carried* by
/// the summary block in that slot (see [`crate::summary`]): a payload too
/// short to deserve a block of its own. The two never collide — a plain
/// summary-slot address is never handed out — and everything that turns
/// an address into a place on the device lives in this file and strips
/// the bit (`BlockAddr::slot`); to every other layer an address is an
/// opaque name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Sentinel for "no block" (used in on-disk pointers).
    pub const NONE: BlockAddr = BlockAddr(u64::MAX);

    const CARRIED: u64 = 1 << 63;

    /// True if this address is the [`BlockAddr::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self == BlockAddr::NONE
    }

    /// The address of the record carried by the summary block at
    /// `summary`.
    pub(crate) fn carried_by(summary: BlockAddr) -> BlockAddr {
        BlockAddr(summary.0 | Self::CARRIED)
    }

    /// True if this address names a record carried by a summary block.
    pub fn is_carried(self) -> bool {
        self.0 & Self::CARRIED != 0 && !self.is_none()
    }

    /// The block slot this address lives in: the address itself, or the
    /// summary block carrying the record it names.
    pub(crate) fn slot(self) -> BlockAddr {
        if self.is_carried() {
            BlockAddr(self.0 & !Self::CARRIED)
        } else {
            self
        }
    }
}

/// Classification of a log block, recorded in segment summaries so crash
/// recovery and the cleaner know how to treat each block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum BlockKind {
    /// Object data.
    Data = 1,
    /// A packed journal sector holding metadata-change entries for one
    /// object (§4.2.2).
    JournalSector = 2,
    /// A checkpoint of one object's complete metadata.
    ObjectCheckpoint = 3,
    /// Drive system state written at anchor time (object map, usage table).
    SystemState = 4,
    /// Audit-log data (the reserved audit object, §4.2.3).
    Audit = 5,
    /// Cross-version delta payloads: history blocks re-encoded as
    /// differences against newer versions (§4.2.2's differencing).
    DeltaData = 6,
}

impl BlockKind {
    /// Parses the on-disk representation.
    pub(crate) fn from_u8(v: u8) -> Result<BlockKind> {
        Ok(match v {
            1 => BlockKind::Data,
            2 => BlockKind::JournalSector,
            3 => BlockKind::ObjectCheckpoint,
            4 => BlockKind::SystemState,
            5 => BlockKind::Audit,
            6 => BlockKind::DeltaData,
            _ => return Err(LfsError::Corrupt("block kind")),
        })
    }
}

/// Per-block description stored in segment summaries: what the block is,
/// which object it belongs to, and a kind-specific auxiliary value (e.g.
/// the logical block number for data, or the version sequence for
/// checkpoints).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockTag {
    /// Block classification.
    pub kind: BlockKind,
    /// Owning object identifier (0 for system blocks).
    pub object: u64,
    /// Kind-specific auxiliary value.
    pub aux: u64,
}

impl BlockTag {
    /// Builds a tag.
    pub fn new(kind: BlockKind, object: u64, aux: u64) -> Self {
        BlockTag { kind, object, aux }
    }
}

/// Computed layout of the device: where superblocks live, how many
/// segments fit, and translation from block addresses to sectors.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    /// Sectors reserved at the front of the device for the two superblock
    /// copies.
    pub superblock_sectors: u64,
    /// Blocks per segment.
    pub blocks_per_segment: u32,
    /// Number of segments in the data area.
    pub num_segments: u32,
}

impl Geometry {
    /// Sectors occupied by one superblock copy.
    pub(crate) const SUPERBLOCK_COPY_SECTORS: u64 = 8;

    /// Computes a geometry for a device of `num_sectors` sectors with the
    /// given segment size in blocks.
    pub fn compute(num_sectors: u64, blocks_per_segment: u32) -> Result<Geometry> {
        let superblock_sectors = Self::SUPERBLOCK_COPY_SECTORS * 2;
        let data_sectors = num_sectors.saturating_sub(superblock_sectors);
        let total_blocks = data_sectors / SECTORS_PER_BLOCK;
        let num_segments = (total_blocks / blocks_per_segment as u64) as u32;
        if num_segments < 4 {
            return Err(LfsError::TooSmall);
        }
        Ok(Geometry {
            superblock_sectors,
            blocks_per_segment,
            num_segments,
        })
    }

    /// Total blocks in the data area.
    pub(crate) fn total_blocks(&self) -> u64 {
        self.num_segments as u64 * self.blocks_per_segment as u64
    }

    /// First sector of the data area.
    fn data_start_sector(&self) -> u64 {
        self.superblock_sectors
    }

    /// Translates a block address to the first sector of its slot on
    /// the device.
    pub(crate) fn sector_of(&self, addr: BlockAddr) -> u64 {
        self.data_start_sector() + addr.slot().0 * SECTORS_PER_BLOCK
    }

    /// The segment containing `addr`.
    pub fn segment_of(&self, addr: BlockAddr) -> SegmentId {
        (addr.slot().0 / self.blocks_per_segment as u64) as SegmentId
    }

    /// Block offset of `addr` within its segment.
    pub(crate) fn offset_in_segment(&self, addr: BlockAddr) -> u32 {
        (addr.slot().0 % self.blocks_per_segment as u64) as u32
    }

    /// Address of block `offset` within segment `seg`.
    pub fn addr_of(&self, seg: SegmentId, offset: u32) -> BlockAddr {
        BlockAddr(seg as u64 * self.blocks_per_segment as u64 + offset as u64)
    }

    /// Validates that `addr` falls inside the data area.
    pub(crate) fn check(&self, addr: BlockAddr) -> Result<BlockAddr> {
        if addr.slot().0 >= self.total_blocks() {
            return Err(LfsError::BadAddress(addr.0));
        }
        Ok(addr)
    }

    /// Validates that the `n` block slots starting at `head` fall inside
    /// the data area.
    pub(crate) fn check_run(&self, head: BlockAddr, n: u32) -> Result<()> {
        match head.slot().0.checked_add(n as u64) {
            Some(end) if end <= self.total_blocks() => Ok(()),
            _ => Err(LfsError::BadAddress(head.0)),
        }
    }

    /// The readahead run around `addr`: the aligned run of up to `blocks`
    /// slots holding it, clamped to its segment and to `frontier`, the
    /// first slot the log has not written yet, as (first slot, length).
    /// The length is 0 when `addr` itself is at or past the frontier.
    pub(crate) fn readahead_run(
        &self,
        addr: BlockAddr,
        blocks: u32,
        frontier: BlockAddr,
    ) -> (BlockAddr, u32) {
        let at = addr.slot().0;
        let ra = blocks.max(1) as u64;
        let seg_start = at - at % self.blocks_per_segment as u64;
        let start = (at - at % ra).max(seg_start);
        let mut end = (start + ra).min(seg_start + self.blocks_per_segment as u64);
        let f = frontier.slot().0;
        if (seg_start..end).contains(&f) {
            end = f;
        }
        if at >= end {
            return (addr.slot(), 0);
        }
        (BlockAddr(start), (end - start) as u32)
    }

    /// The plain address `i` slots after `head`.
    pub(crate) fn nth_after(&self, head: BlockAddr, i: u32) -> BlockAddr {
        BlockAddr(head.slot().0 + i as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_round_trips_addresses() {
        let g = Geometry::compute(1_000_000, 128).unwrap();
        for addr in [0u64, 1, 127, 128, 12_345] {
            let a = BlockAddr(addr);
            let seg = g.segment_of(a);
            let off = g.offset_in_segment(a);
            assert_eq!(g.addr_of(seg, off), a);
        }
    }

    #[test]
    fn geometry_rejects_tiny_devices() {
        assert!(matches!(
            Geometry::compute(100, 128),
            Err(LfsError::TooSmall)
        ));
    }

    #[test]
    fn sector_translation_skips_superblocks() {
        let g = Geometry::compute(1_000_000, 128).unwrap();
        assert_eq!(g.sector_of(BlockAddr(0)), 16);
        assert_eq!(g.sector_of(BlockAddr(1)), 16 + SECTORS_PER_BLOCK);
    }

    #[test]
    fn block_kind_round_trip() {
        for k in [
            BlockKind::Data,
            BlockKind::JournalSector,
            BlockKind::ObjectCheckpoint,
            BlockKind::SystemState,
            BlockKind::Audit,
            BlockKind::DeltaData,
        ] {
            assert_eq!(BlockKind::from_u8(k as u8).unwrap(), k);
        }
        assert!(BlockKind::from_u8(0).is_err());
        assert!(BlockKind::from_u8(99).is_err());
    }

    #[test]
    fn check_rejects_out_of_range() {
        let g = Geometry::compute(1_000_000, 128).unwrap();
        assert!(g.check(BlockAddr(g.total_blocks())).is_err());
        assert!(g.check(BlockAddr(0)).is_ok());
        assert!(g.check(BlockAddr::NONE).is_err());
        assert!(g.check_run(BlockAddr(g.total_blocks() - 2), 2).is_ok());
        assert!(g.check_run(BlockAddr(g.total_blocks() - 2), 3).is_err());
        assert!(g.check_run(BlockAddr(u64::MAX - 1), 3).is_err());
    }

    #[test]
    fn a_carried_address_lives_where_its_summary_does() {
        let g = Geometry::compute(1_000_000, 128).unwrap();
        let summary = g.addr_of(3, 40);
        let carried = BlockAddr::carried_by(summary);
        assert!(carried.is_carried() && !summary.is_carried());
        assert!(!BlockAddr::NONE.is_carried(), "the sentinel names nothing");
        assert_ne!(carried, summary, "a cached raw block is another key");
        assert_eq!(carried.slot(), summary);
        assert_eq!(g.segment_of(carried), 3);
        assert_eq!(g.offset_in_segment(carried), 40);
        assert_eq!(g.sector_of(carried), g.sector_of(summary));
        assert_eq!(g.check(carried), Ok(carried));
        let outside = BlockAddr::carried_by(BlockAddr(g.total_blocks()));
        assert!(g.check(outside).is_err());
    }

    #[test]
    fn a_readahead_run_is_aligned_and_stays_inside_the_segment() {
        let g = Geometry::compute(1_000_000, 48).unwrap();
        // A frontier in another segment clamps nothing.
        let far = BlockAddr(480);
        // 48-block segments, 32-block runs: [0, 32) and [32, 48).
        assert_eq!(g.readahead_run(BlockAddr(5), 32, far), (BlockAddr(0), 32));
        assert_eq!(g.readahead_run(BlockAddr(40), 32, far), (BlockAddr(32), 16));
        // Segment 1 starts at 48, inside the aligned run [32, 64): the run
        // starts with the segment.
        assert_eq!(g.readahead_run(BlockAddr(50), 32, far), (BlockAddr(48), 32));
        assert_eq!(g.readahead_run(BlockAddr(70), 32, far), (BlockAddr(64), 32));
        let carried = BlockAddr::carried_by(BlockAddr(70));
        assert_eq!(g.readahead_run(carried, 32, far), (BlockAddr(64), 32));
        assert_eq!(g.readahead_run(carried, 0, far), (BlockAddr(70), 1));
        assert_eq!(g.nth_after(BlockAddr(64), 6), BlockAddr(70));
        // The run ends at the frontier, and a slot at or past it has none.
        assert_eq!(
            g.readahead_run(BlockAddr(70), 32, BlockAddr(75)),
            (BlockAddr(64), 11)
        );
        assert_eq!(
            g.readahead_run(carried, 32, BlockAddr(71)),
            (BlockAddr(64), 7)
        );
        assert_eq!(
            g.readahead_run(carried, 32, BlockAddr(70)),
            (BlockAddr(70), 0)
        );
        assert_eq!(
            g.readahead_run(BlockAddr(90), 32, BlockAddr(70)),
            (BlockAddr(90), 0)
        );
        // A frontier in an earlier segment clamps nothing either.
        assert_eq!(
            g.readahead_run(BlockAddr(60), 32, BlockAddr(40)),
            (BlockAddr(48), 32)
        );
    }
}

//! Segment usage table and free-segment allocation.
//!
//! Tracks, per segment, its lifecycle state and how many blocks have
//! been written into it. How many of those blocks are still *referenced*
//! — reachable from current object state or from a history-pool version
//! inside the detection window — is the upper layer's to count: only it
//! knows which versions have aged out (§4.2.1). It frees a segment none
//! of its blocks are referenced in through [`crate::Log::reclaim_segment`],
//! after copying forward whatever was still live.

use crate::codec::Reader;
use crate::layout::{Geometry, SegmentId};
use crate::{LfsError, Result};

/// Lifecycle state of a segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum SegmentState {
    /// On the free list; contents are garbage.
    Free = 0,
    /// The log cursor is (or has been) inside; blocks may be referenced.
    InUse = 1,
    /// Reclaimed since the last anchor; contents may still be referenced
    /// by the *anchored* (on-disk) object map, so the segment must not be
    /// reused until the next anchor makes the reclamation durable.
    PendingFree = 2,
}

/// Per-segment accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SegmentUsage {
    /// Lifecycle state.
    pub(crate) state: SegmentState,
    /// Blocks appended so far (summaries included); equals the write
    /// cursor if this is the active segment.
    pub(crate) written_blocks: u32,
}

/// The usage table for every segment on the device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentUsageTable {
    segs: Vec<SegmentUsage>,
    blocks_per_segment: u32,
    free_count: u32,
}

impl SegmentUsageTable {
    /// Creates a table with every segment free.
    pub fn new(geo: &Geometry) -> Self {
        SegmentUsageTable {
            segs: vec![
                SegmentUsage {
                    state: SegmentState::Free,
                    written_blocks: 0,
                };
                geo.num_segments as usize
            ],
            blocks_per_segment: geo.blocks_per_segment,
            free_count: geo.num_segments,
        }
    }

    /// Number of free segments.
    pub fn free_segments(&self) -> u32 {
        self.free_count
    }

    /// Usage record for `seg`.
    pub(crate) fn get(&self, seg: SegmentId) -> SegmentUsage {
        self.segs[seg as usize]
    }

    /// Allocates the lowest-numbered free segment, marking it in use.
    pub fn allocate(&mut self) -> Result<SegmentId> {
        let idx = self
            .segs
            .iter()
            .position(|s| s.state == SegmentState::Free)
            .ok_or(LfsError::NoFreeSegments)?;
        self.segs[idx] = SegmentUsage {
            state: SegmentState::InUse,
            written_blocks: 0,
        };
        self.free_count -= 1;
        Ok(idx as SegmentId)
    }

    /// Marks `seg` allocated (used during crash-recovery roll-forward when
    /// the log is discovered to have continued into `seg`).
    pub(crate) fn force_allocate(&mut self, seg: SegmentId) {
        let s = &mut self.segs[seg as usize];
        if s.state == SegmentState::Free {
            self.free_count -= 1;
        }
        *s = SegmentUsage {
            state: SegmentState::InUse,
            written_blocks: 0,
        };
    }

    /// Records `n` blocks written to `seg`.
    pub fn note_append(&mut self, seg: SegmentId, n: u32) {
        let s = &mut self.segs[seg as usize];
        debug_assert_eq!(s.state, SegmentState::InUse);
        s.written_blocks = (s.written_blocks + n).min(self.blocks_per_segment);
    }

    /// Moves `seg` to the pending-free list; it becomes allocatable only
    /// after [`SegmentUsageTable::promote_pending_free`] (called once the
    /// next anchor is durable).
    pub(crate) fn free_segment(&mut self, seg: SegmentId) {
        self.segs[seg as usize] = SegmentUsage {
            state: SegmentState::PendingFree,
            written_blocks: 0,
        };
    }

    /// Promotes every pending-free segment to free. Safe only once a new
    /// anchor (whose object map no longer references those segments) is
    /// durable on disk.
    pub(crate) fn promote_pending_free(&mut self) -> u32 {
        let mut n = 0;
        for s in &mut self.segs {
            if s.state == SegmentState::PendingFree {
                s.state = SegmentState::Free;
                self.free_count += 1;
                n += 1;
            }
        }
        n
    }

    /// Number of segments reclaimed but awaiting the next anchor.
    pub fn pending_free_segments(&self) -> u32 {
        self.segs
            .iter()
            .filter(|s| s.state == SegmentState::PendingFree)
            .count() as u32
    }

    /// Every in-use segment with blocks written, outside `exclude`, and
    /// its written count, ascending: what the cleaner may reclaim.
    pub(crate) fn reclaimable(&self, exclude: &[SegmentId]) -> Vec<(SegmentId, u32)> {
        let segs = (0..).zip(&self.segs);
        segs.filter(|(i, s)| {
            s.state == SegmentState::InUse && s.written_blocks > 0 && !exclude.contains(i)
        })
        .map(|(i, s)| (i, s.written_blocks))
        .collect()
    }

    /// Serializes for inclusion in the anchor's system state: per
    /// segment its state and written count.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.segs.len() * 5);
        out.extend_from_slice(&(self.segs.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.blocks_per_segment.to_le_bytes());
        for s in &self.segs {
            out.push(s.state as u8);
            out.extend_from_slice(&s.written_blocks.to_le_bytes());
        }
        out
    }

    /// Deserializes from anchor system state.
    pub fn decode(buf: &[u8]) -> Result<SegmentUsageTable> {
        let mut r = Reader::new(buf, "usage table truncated");
        let n = r.count(5)?;
        let blocks_per_segment = r.u32()?;
        let mut segs = Vec::with_capacity(n);
        let mut free_count = 0;
        for _ in 0..n {
            let state = match r.u8()? {
                0 => SegmentState::Free,
                1 => SegmentState::InUse,
                2 => SegmentState::PendingFree,
                _ => return Err(LfsError::Corrupt("segment state")),
            };
            if state == SegmentState::Free {
                free_count += 1;
            }
            segs.push(SegmentUsage {
                state,
                written_blocks: r.u32()?,
            });
        }
        Ok(SegmentUsageTable {
            segs,
            blocks_per_segment,
            free_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SegmentUsageTable {
        let geo = Geometry::compute(200_000, 16).unwrap();
        SegmentUsageTable::new(&geo)
    }

    #[test]
    fn allocate_and_free_cycle() {
        let mut t = table();
        let total = t.free_segments();
        let a = t.allocate().unwrap();
        let b = t.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(t.free_segments(), total - 2);
        t.note_append(a, 4);
        t.free_segment(a);
        // Pending-free is not yet allocatable.
        assert_eq!(t.free_segments(), total - 2);
        assert_eq!(t.pending_free_segments(), 1);
        assert_eq!(t.promote_pending_free(), 1);
        assert_eq!(t.free_segments(), total - 1);
        // Freed segment is allocatable again.
        assert_eq!(t.allocate().unwrap(), a);
    }

    #[test]
    fn exhaustion_reported() {
        let mut t = table();
        while t.free_segments() > 0 {
            t.allocate().unwrap();
        }
        assert!(matches!(t.allocate(), Err(LfsError::NoFreeSegments)));
    }

    #[test]
    fn reclaimable_lists_written_in_use_segments() {
        let mut t = table();
        let a = t.allocate().unwrap();
        let b = t.allocate().unwrap();
        t.allocate().unwrap(); // nothing written: nothing to reclaim
        t.note_append(a, 4);
        t.note_append(b, 7);
        assert_eq!(t.reclaimable(&[]), vec![(a, 4), (b, 7)]);
        assert_eq!(t.reclaimable(&[a]), vec![(b, 7)], "exclusion respected");
        t.free_segment(b);
        assert_eq!(
            t.reclaimable(&[]),
            vec![(a, 4)],
            "pending-free is not in use"
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut t = table();
        let a = t.allocate().unwrap();
        t.note_append(a, 7);
        assert_eq!(SegmentUsageTable::decode(&t.encode()).unwrap(), t);
    }

    /// The bytes a fixture's hex literal spells; whitespace separates
    /// its fields.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let digit = |d: u8| (d as char).to_digit(16).expect("a hex digit") as u8;
        digits
            .chunks(2)
            .map(|p| digit(p[0]) << 4 | digit(p[1]))
            .collect()
    }

    /// Three segments of 16 blocks, format revision 8: `count |
    /// blocks per segment | (state, written)…` — 5 bytes per segment.
    const TABLE: &str = "03000000 10000000 01 07000000 00 00000000 02 00000000";

    #[test]
    fn a_usage_table_is_its_fixture() {
        let seg = |state, written_blocks| SegmentUsage {
            state,
            written_blocks,
        };
        let table = SegmentUsageTable {
            segs: vec![
                seg(SegmentState::InUse, 7),
                seg(SegmentState::Free, 0),
                seg(SegmentState::PendingFree, 0),
            ],
            blocks_per_segment: 16,
            free_count: 1,
        };
        let bytes = unhex(TABLE);
        assert_eq!(table.encode(), bytes);
        assert_eq!(SegmentUsageTable::decode(&bytes).unwrap(), table);
    }

    #[test]
    fn force_allocate_is_idempotent_on_used_segments() {
        let mut t = table();
        let a = t.allocate().unwrap();
        let free = t.free_segments();
        t.force_allocate(a);
        assert_eq!(t.free_segments(), free);
        t.force_allocate(a + 1);
        assert_eq!(t.free_segments(), free - 1);
    }
}

//! Segment usage table and free-segment allocation.
//!
//! Tracks, per segment, how many blocks are *referenced* — reachable from
//! current object state **or** from any history-pool version still inside
//! the detection window. A block's count is decremented only when the
//! version holding it ages out of the window (or is administratively
//! flushed); a segment whose count reaches zero can be reclaimed without
//! copying (§4.2.1). Segments with a few stragglers are reclaimed by the
//! cleaner, which copies live blocks forward.

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
pub struct SegmentUsage {
    /// Lifecycle state.
    pub(crate) state: SegmentState,
    /// Referenced (current + in-window history) blocks.
    pub live_blocks: u32,
    /// Blocks appended so far (summaries included); equals the write
    /// cursor if this is the active segment.
    pub written_blocks: u32,
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
                    live_blocks: 0,
                    written_blocks: 0,
                };
                geo.num_segments as usize
            ],
            blocks_per_segment: geo.blocks_per_segment,
            free_count: geo.num_segments,
        }
    }

    /// Number of segments in the table.
    pub(crate) fn num_segments(&self) -> u32 {
        self.segs.len() as u32
    }

    /// Number of free segments.
    pub fn free_segments(&self) -> u32 {
        self.free_count
    }

    /// Usage record for `seg`.
    pub fn get(&self, seg: SegmentId) -> SegmentUsage {
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
            live_blocks: 0,
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
            live_blocks: 0,
            written_blocks: 0,
        };
    }

    /// Records `n` blocks written to `seg`. A block's live count is
    /// taken at its append, or recounted at mount
    /// ([`crate::Log::rebuild_live_counts`]), not here.
    pub fn note_append(&mut self, seg: SegmentId, n: u32) {
        let s = &mut self.segs[seg as usize];
        debug_assert_eq!(s.state, SegmentState::InUse);
        s.written_blocks = (s.written_blocks + n).min(self.blocks_per_segment);
    }

    /// Decrements the live count of `seg` by `n` (versions aged out or
    /// administratively flushed).
    pub(crate) fn release_blocks(&mut self, seg: SegmentId, n: u32) {
        let s = &mut self.segs[seg as usize];
        s.live_blocks = s.live_blocks.saturating_sub(n);
    }

    /// Zeroes every segment's live count (prelude to
    /// [`SegmentUsageTable::add_live`]-based reconstruction from an
    /// authoritative reachable-block set after crash recovery).
    pub(crate) fn zero_live(&mut self) {
        for s in &mut self.segs {
            s.live_blocks = 0;
        }
    }

    /// Increments the live count of `seg` by `n`.
    pub(crate) fn add_live(&mut self, seg: SegmentId, n: u32) {
        self.segs[seg as usize].live_blocks += n;
    }

    /// Moves `seg` to the pending-free list; it becomes allocatable only
    /// after [`SegmentUsageTable::promote_pending_free`] (called once the
    /// next anchor is durable).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the segment still has live blocks.
    pub(crate) fn free_segment(&mut self, seg: SegmentId) {
        let s = &mut self.segs[seg as usize];
        debug_assert_eq!(s.live_blocks, 0, "freeing a segment with live blocks");
        *s = SegmentUsage {
            state: SegmentState::PendingFree,
            live_blocks: 0,
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

    /// Segments that are fully written, have zero live blocks, and can be
    /// freed without any copying.
    pub(crate) fn dead_segments(&self, exclude: &[SegmentId]) -> Vec<SegmentId> {
        self.segs
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.state == SegmentState::InUse
                    && s.live_blocks == 0
                    && s.written_blocks > 0
                    && !exclude.contains(&(*i as SegmentId))
            })
            .map(|(i, _)| i as SegmentId)
            .collect()
    }

    /// The in-use, fully-or-partially written segment with the lowest
    /// live-block count (the cleaner's greedy victim), excluding the
    /// listed segments (e.g. the active one).
    pub(crate) fn lowest_utilization(&self, exclude: &[SegmentId]) -> Option<(SegmentId, u32)> {
        self.segs
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.state == SegmentState::InUse
                    && s.written_blocks > 0
                    && !exclude.contains(&(*i as SegmentId))
            })
            .map(|(i, s)| (i as SegmentId, s.live_blocks))
            .min_by_key(|&(_, live)| live)
    }

    /// Fraction of data-area blocks currently referenced.
    pub(crate) fn utilization(&self) -> f64 {
        let live: u64 = self.segs.iter().map(|s| s.live_blocks as u64).sum();
        live as f64 / (self.segs.len() as u64 * self.blocks_per_segment as u64) as f64
    }

    /// Serializes for inclusion in the anchor's system state: per
    /// segment its state and written count. No live count is persisted;
    /// mount recounts every one from what the upper layer reaches.
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

    /// Deserializes from anchor system state, every live count zero.
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
                live_blocks: 0,
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
        t.add_live(a, 3);
        t.release_blocks(a, 3);
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
    fn dead_segment_detection() {
        let mut t = table();
        let a = t.allocate().unwrap();
        let b = t.allocate().unwrap();
        t.note_append(a, 4);
        t.add_live(a, 3);
        t.note_append(b, 4);
        t.add_live(b, 4);
        assert!(t.dead_segments(&[]).is_empty());
        t.release_blocks(a, 3);
        assert_eq!(t.dead_segments(&[]), vec![a]);
        assert!(t.dead_segments(&[a]).is_empty(), "exclusion respected");
    }

    #[test]
    fn lowest_utilization_picks_emptiest() {
        let mut t = table();
        let a = t.allocate().unwrap();
        let b = t.allocate().unwrap();
        t.note_append(a, 10);
        t.add_live(a, 9);
        t.note_append(b, 10);
        t.add_live(b, 2);
        assert_eq!(t.lowest_utilization(&[]), Some((b, 2)));
        assert_eq!(t.lowest_utilization(&[b]), Some((a, 9)));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut t = table();
        let a = t.allocate().unwrap();
        t.note_append(a, 7);
        t.add_live(a, 5);
        let d = SegmentUsageTable::decode(&t.encode()).unwrap();
        let unlive = SegmentUsage {
            live_blocks: 0,
            ..t.get(a)
        };
        assert_eq!(d.get(a), unlive, "no live count is persisted");
        assert_eq!(d.free_segments(), t.free_segments());
        assert_eq!(d.num_segments(), t.num_segments());
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
    /// blocks per segment | (state, written)…` — 5 bytes per segment, and
    /// no live count.
    const TABLE: &str = "03000000 10000000 01 07000000 00 00000000 02 00000000";

    #[test]
    fn a_usage_table_is_its_fixture() {
        let seg = |state, written_blocks| SegmentUsage {
            state,
            live_blocks: 0,
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

    #[test]
    fn utilization_fraction() {
        let mut t = table();
        assert_eq!(t.utilization(), 0.0);
        let a = t.allocate().unwrap();
        t.note_append(a, 16);
        t.add_live(a, 16);
        assert!(t.utilization() > 0.0);
    }
}

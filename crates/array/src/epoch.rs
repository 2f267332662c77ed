//! Routing epochs: the bookkeeping that lets an array split live from
//! `N` to `2N` shards (DESIGN §6h).
//!
//! An epoch is `(seq, base, bits)`: `base` pre-split shards plus one
//! in-flight split target per set bit of `bits` — bit `i` set means
//! source slot `i`'s residue class `i (mod base)` has split into
//! `i (mod 2·base)` (kept by slot `i`) and `base+i (mod 2·base)`
//! (owned by the new slot `base+i`). When every source slot has split,
//! the generation completes: `base` doubles and `bits` clears.
//!
//! **Slot vs dense index.** A *slot id* names a shard's residue class
//! and is stable for the shard's lifetime (a split target created for
//! slot `base+i` keeps that id when the generation completes and it
//! becomes a source of the next one). A *dense index* is the shard's
//! position in the array's live-shard vector: sources `0..base` first,
//! then targets in slot order. All public `S4Array` indexing is dense —
//! existing callers that iterate `0..shard_count()` keep working across
//! splits — and slot ids surface only in metric labels and oid classes.
//!
//! The current epoch is persisted in the *distributed partition table*:
//! a reserved entry named `__s4/epoch/<seq>/<base>/<bits>` targeting the
//! partition object itself, written to every member of slot 0 (reserved
//! names are filtered from client listings and rejected on the client
//! write path). Highest `seq` wins at mount; divergent members — a
//! crash can land mid-flip — are repaired to the winner.

use s4_clock::SimDuration;

/// Prefix of partition names reserved for array-internal state. The
/// dispatcher rejects client `PCreate`/`PDelete`/`PMount` under this
/// prefix, batched or not, and filters it from merged `PList` responses.
pub(crate) const RESERVED_NAME_PREFIX: &str = "__s4/";

/// Prefix of the epoch note's partition name.
pub const EPOCH_NOTE_PREFIX: &str = "__s4/epoch/";

/// One routing epoch (see the module docs for the model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochInfo {
    /// Monotonic install sequence; the highest persisted `seq` wins at
    /// mount.
    pub seq: u64,
    /// Shards of the pre-split generation (each owning `slot mod base`
    /// unless its bit is set).
    pub base: usize,
    /// Bit `i` set: source slot `i` has split and slot `base+i` is live.
    pub bits: u64,
}

impl EpochInfo {
    /// The initial epoch of a freshly formatted `base`-shard array.
    pub fn initial(base: usize) -> EpochInfo {
        EpochInfo {
            seq: 1,
            base,
            bits: 0,
        }
    }

    /// Number of live shards (sources plus in-flight split targets).
    pub(crate) fn live_shards(&self) -> usize {
        self.base + self.bits.count_ones() as usize
    }

    /// Slot id of the shard at dense position `p` (sources first, then
    /// targets in slot order).
    pub(crate) fn slot_of_dense(&self, p: usize) -> usize {
        if p < self.base {
            return p;
        }
        let mut remaining = p - self.base;
        for i in 0..self.base {
            if self.bits & (1u64 << i) != 0 {
                if remaining == 0 {
                    return self.base + i;
                }
                remaining -= 1;
            }
        }
        panic!("dense index {p} out of range for epoch {self:?}");
    }

    /// Dense position of `slot`, or `None` if that slot is not live in
    /// this epoch.
    pub(crate) fn dense_of_slot(&self, slot: usize) -> Option<usize> {
        if slot < self.base {
            return Some(slot);
        }
        let i = slot - self.base;
        if i >= self.base || self.bits & (1u64 << i) == 0 {
            return None;
        }
        let below = self.bits & ((1u64 << i) - 1);
        Some(self.base + below.count_ones() as usize)
    }

    /// ObjectID residue class `(stride, offset)` of the shard at dense
    /// position `p`: a split source or a target allocates in the
    /// doubled class; an unsplit source still owns its whole class.
    pub(crate) fn class_of_dense(&self, p: usize) -> (u64, u64) {
        let slot = self.slot_of_dense(p);
        if slot < self.base && self.bits & (1u64 << slot) == 0 {
            (self.base as u64, slot as u64)
        } else {
            (2 * self.base as u64, slot as u64)
        }
    }

    /// The epoch after source `slot` finishes its split: the bit is
    /// set, and a complete generation collapses into the doubled base.
    pub(crate) fn after_split(&self, slot: usize) -> EpochInfo {
        let bits = self.bits | (1u64 << slot);
        let full = if self.base == 64 {
            u64::MAX
        } else {
            (1u64 << self.base) - 1
        };
        if bits == full {
            EpochInfo {
                seq: self.seq + 1,
                base: 2 * self.base,
                bits: 0,
            }
        } else {
            EpochInfo {
                seq: self.seq + 1,
                base: self.base,
                bits,
            }
        }
    }

    /// The partition-table entry name this epoch persists under.
    pub fn note_name(&self) -> String {
        format!(
            "{EPOCH_NOTE_PREFIX}{}/{}/{}",
            self.seq, self.base, self.bits
        )
    }

    /// Parses an epoch note name; `None` for anything else (including
    /// other reserved names).
    pub(crate) fn parse_note(name: &str) -> Option<EpochInfo> {
        let rest = name.strip_prefix(EPOCH_NOTE_PREFIX)?;
        let mut it = rest.split('/');
        let seq = it.next()?.parse().ok()?;
        let base: usize = it.next()?.parse().ok()?;
        let bits = it.next()?.parse().ok()?;
        if it.next().is_some() || base == 0 || base > 64 {
            return None;
        }
        Some(EpochInfo { seq, base, bits })
    }
}

/// Progress and outcome of one flip, carried in a
/// [`crate::ReshardReport`]: how long the split shard was quiesced, on
/// its own member clock.
#[derive(Clone, Copy, Debug)]
pub struct FlipReport {
    /// Simulated time the source shard spent quiesced (write gate held):
    /// final queue drain, last-delta replay, and epoch install.
    pub pause: SimDuration,
    /// The epoch installed by the flip.
    pub epoch: EpochInfo,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_slot_maps_invert() {
        let e = EpochInfo {
            seq: 3,
            base: 4,
            bits: 0b1010,
        };
        assert_eq!(e.live_shards(), 6);
        // Dense: sources 0..4, then targets for slots 5 (bit 1) and 7
        // (bit 3), in slot order.
        let slots: Vec<usize> = (0..e.live_shards()).map(|p| e.slot_of_dense(p)).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 5, 7]);
        for (p, &slot) in slots.iter().enumerate() {
            assert_eq!(e.dense_of_slot(slot), Some(p));
        }
        assert_eq!(e.dense_of_slot(4), None, "slot 4's source has not split");
        assert_eq!(e.dense_of_slot(6), None);
    }

    #[test]
    fn classes_narrow_only_after_split() {
        let e = EpochInfo {
            seq: 2,
            base: 4,
            bits: 0b0010,
        };
        assert_eq!(e.class_of_dense(0), (4, 0), "unsplit source keeps class");
        assert_eq!(e.class_of_dense(1), (8, 1), "split source narrowed");
        assert_eq!(e.class_of_dense(4), (8, 5), "target owns the moved class");
    }

    #[test]
    fn generation_completes_when_all_bits_set() {
        let mut e = EpochInfo::initial(2);
        e = e.after_split(0);
        assert_eq!((e.base, e.bits), (2, 0b01));
        e = e.after_split(1);
        assert_eq!((e.base, e.bits), (4, 0), "complete generation collapses");
        assert_eq!(e.seq, 3);
    }

    #[test]
    fn note_names_round_trip() {
        let e = EpochInfo {
            seq: 7,
            base: 8,
            bits: 0b101,
        };
        assert_eq!(EpochInfo::parse_note(&e.note_name()), Some(e));
        assert_eq!(EpochInfo::parse_note("__s4/epoch/1/0/0"), None);
        assert_eq!(EpochInfo::parse_note("__s4/epoch/1/65/0"), None);
        assert_eq!(EpochInfo::parse_note("__s4/other"), None);
        assert_eq!(EpochInfo::parse_note("user-data"), None);
    }
}

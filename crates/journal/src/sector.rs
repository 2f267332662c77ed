//! Journal sectors: packed per-object entry blocks, chained backward in
//! time.
//!
//! "Storing an object's changes within the log is done using journal
//! sectors. Each journal sector contains the packed journal entries that
//! refer to a single object's changes ... The sectors are chained together
//! backward in time to allow for version reconstruction." (§4.2.2)
//!
//! [`encode_sectors`] splits a run of entries into one or more sector
//! payloads; the caller appends each to the log in order, naming the
//! object's newest sector already on disk as `prev`. Nothing reads `prev`
//! back: the drive keeps each object's sector list itself.

use s4_lfs::codec::{push_bytes, Reader};
use s4_lfs::{BlockAddr, BLOCK_SIZE};

use crate::entry::JournalEntry;
use crate::{JournalError, Result};

const MAGIC: u32 = 0x5334_4A53; // "S4JS"
const HEADER_BYTES: usize = 28;
/// What a sector costs in the shared container that carries it to the
/// log (s4-core's `packed`): the container's magic and count, and the
/// slot's length.
const CONTAINER_BYTES: usize = 6 + 4;

/// Maximum payload bytes of entries per sector: a sector alone in a
/// container fills one block.
pub const MAX_SECTOR_BYTES: usize = BLOCK_SIZE - CONTAINER_BYTES - HEADER_BYTES;

/// One encoded sector payload plus the entries it holds (handy for
/// accounting in callers).
#[derive(Clone, Debug)]
pub struct SectorPayload {
    /// The entries packed into this sector, oldest first.
    pub entries: Vec<JournalEntry>,
    /// Encoded entry bytes (header is added by [`finish_sector`]).
    encoded: Vec<u8>,
}

impl SectorPayload {
    /// Finalizes the sector into a block payload given the owning object
    /// and the address of the previous sector in the chain.
    pub fn finish(&self, object: u64, prev: BlockAddr) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.encoded.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&object.to_le_bytes());
        out.extend_from_slice(&prev.0.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        push_bytes(&mut out, &self.encoded);
        debug_assert!(out.len() <= BLOCK_SIZE - CONTAINER_BYTES);
        out
    }
}

/// Splits `entries` (oldest first) into sector payloads, each fitting in
/// one block.
pub fn encode_sectors(entries: &[JournalEntry]) -> Vec<SectorPayload> {
    let mut out: Vec<SectorPayload> = Vec::new();
    let mut cur = SectorPayload {
        entries: Vec::new(),
        encoded: Vec::new(),
    };
    for e in entries {
        let len = e.encoded_len();
        if !cur.entries.is_empty() && cur.encoded.len() + len > MAX_SECTOR_BYTES {
            out.push(std::mem::replace(
                &mut cur,
                SectorPayload {
                    entries: Vec::new(),
                    encoded: Vec::new(),
                },
            ));
        }
        e.encode_into(&mut cur.encoded);
        cur.entries.push(e.clone());
    }
    if !cur.entries.is_empty() {
        out.push(cur);
    }
    out
}

/// Decodes a sector block: returns `(object, prev, entries)` with entries
/// oldest first.
pub fn decode_sector(buf: &[u8]) -> Result<(u64, BlockAddr, Vec<JournalEntry>)> {
    let mut r = Reader::new(buf, "sector truncated");
    if r.u32()? != MAGIC {
        return Err(JournalError::Corrupt("sector magic"));
    }
    let object = r.u64()?;
    let prev = BlockAddr(r.u64()?);
    let count = r.count(17)?; // an entry is at least its tag and stamp
    let body = r.bytes()?;
    let mut pos = 0;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(JournalEntry::decode_from(body, &mut pos)?);
    }
    if pos != body.len() {
        return Err(JournalError::Corrupt("sector trailing bytes"));
    }
    Ok((object, prev, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::PtrChange;
    use s4_clock::{HybridTimestamp, SimTime};

    fn entry(i: u64) -> JournalEntry {
        JournalEntry::Write {
            stamp: HybridTimestamp::new(SimTime::from_micros(i), i),
            old_size: i,
            new_size: i + 4096,
            changes: vec![PtrChange {
                lbn: i,
                old: BlockAddr::NONE,
                new: BlockAddr(i),
            }],
        }
    }

    #[test]
    fn single_sector_round_trip() {
        let entries: Vec<_> = (0..5).map(entry).collect();
        let sectors = encode_sectors(&entries);
        assert_eq!(sectors.len(), 1);
        let block = sectors[0].finish(42, BlockAddr(7));
        let (obj, prev, got) = decode_sector(&block).unwrap();
        assert_eq!(obj, 42);
        assert_eq!(prev, BlockAddr(7));
        assert_eq!(got, entries);
    }

    #[test]
    fn many_entries_split_across_sectors_in_order() {
        let entries: Vec<_> = (0..500).map(entry).collect();
        let sectors = encode_sectors(&entries);
        assert!(sectors.len() > 1);
        let mut reassembled = Vec::new();
        for s in &sectors {
            let block = s.finish(1, BlockAddr::NONE);
            assert!(block.len() <= BLOCK_SIZE);
            let (_, _, es) = decode_sector(&block).unwrap();
            reassembled.extend(es);
        }
        assert_eq!(reassembled, entries);
    }

    #[test]
    fn empty_input_yields_no_sectors() {
        assert!(encode_sectors(&[]).is_empty());
    }

    #[test]
    fn corruption_rejected() {
        let block = encode_sectors(&[entry(1)])[0].finish(1, BlockAddr::NONE);
        let mut bad = block.clone();
        bad[0] = 0;
        assert!(decode_sector(&bad).is_err());
        let mut short = block;
        short.truncate(10);
        assert!(decode_sector(&short).is_err());
    }

    /// The widest `Write` entry, alone in a sector, fits one container
    /// slot; one more pointer change would not.
    #[test]
    fn the_widest_entry_fits_one_container_slot() {
        let write = |n: usize| JournalEntry::Write {
            stamp: HybridTimestamp::ZERO,
            old_size: 0,
            new_size: n as u64 * 4096,
            changes: (0..n as u64)
                .map(|lbn| PtrChange {
                    lbn,
                    old: BlockAddr::NONE,
                    new: BlockAddr(lbn),
                })
                .collect(),
        };
        let widest = encode_sectors(&[write(crate::MAX_PTR_CHANGES)]);
        assert!(widest[0].finish(1, BlockAddr::NONE).len() + CONTAINER_BYTES <= BLOCK_SIZE);
        assert!(write(crate::MAX_PTR_CHANGES + 1).encoded_len() > MAX_SECTOR_BYTES);
    }

    #[test]
    fn huge_single_entry_still_fits_or_splits() {
        // A SetAttr with large blobs must still produce sectors <= block.
        let e = JournalEntry::SetAttr {
            stamp: HybridTimestamp::ZERO,
            old: vec![1; 1500],
            new: vec![2; 1500],
        };
        let sectors = encode_sectors(&[e.clone(), e.clone()]);
        for s in &sectors {
            assert!(s.finish(1, BlockAddr::NONE).len() <= BLOCK_SIZE);
        }
    }
}

//! Journal entry types and their binary codec.
//!
//! Every entry carries both the *old* and *new* values it changes, so a
//! metadata record can be rolled **backward** (for time-based reads of the
//! history pool) or **forward** (for crash-recovery replay over the
//! anchored object map). Entries are small — tens of bytes — which is the
//! whole point: Figure 2 of the paper contrasts one journal entry against
//! a conventional versioning system's new data block, indirect block(s),
//! and inode per update.

use s4_clock::HybridTimestamp;
use s4_lfs::codec::{push_bytes, push_stamp, Reader};
use s4_lfs::BlockAddr;

use crate::sector::MAX_SECTOR_BYTES;
use crate::{JournalError, Result};

/// One logical-block pointer change: logical block `lbn` moved from `old`
/// to `new` ([`BlockAddr::NONE`] encodes absence on either side).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PtrChange {
    /// Logical block number within the object.
    pub lbn: u64,
    /// Previous address ([`BlockAddr::NONE`] if the block did not exist).
    pub old: BlockAddr,
    /// New address ([`BlockAddr::NONE`] if the block was removed).
    pub new: BlockAddr,
}

/// The most pointer changes one `Write` or `Truncate` entry carries: as
/// many as still fit one sector alone. A mutation that changes more
/// blocks is journaled as consecutive entries of at most this many.
pub const MAX_PTR_CHANGES: usize = (MAX_SECTOR_BYTES - (1 + 16 + 16 + 4)) / 24; // tag, stamp, sizes, count

/// A metadata-change record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalEntry {
    /// Object creation.
    Create {
        /// Version stamp of the mutation.
        stamp: HybridTimestamp,
    },
    /// Object deletion (the object and its versions stay in the history
    /// pool; deletion only ends the live version).
    Delete {
        /// Version stamp of the mutation.
        stamp: HybridTimestamp,
    },
    /// A data write (including appends): the affected block pointers and
    /// the size change.
    Write {
        /// Version stamp of the mutation.
        stamp: HybridTimestamp,
        /// Object size before the write.
        old_size: u64,
        /// Object size after the write.
        new_size: u64,
        /// Pointer changes, one per affected logical block.
        changes: Vec<PtrChange>,
    },
    /// A truncation: the new size and the pointers dropped.
    Truncate {
        /// Version stamp of the mutation.
        stamp: HybridTimestamp,
        /// Object size before the truncate.
        old_size: u64,
        /// Object size after the truncate.
        new_size: u64,
        /// Pointers removed (`new` is [`BlockAddr::NONE`] in each).
        freed: Vec<PtrChange>,
    },
    /// Replacement of the opaque client attribute blob.
    SetAttr {
        /// Version stamp of the mutation.
        stamp: HybridTimestamp,
        /// Previous attribute bytes.
        old: Vec<u8>,
        /// New attribute bytes.
        new: Vec<u8>,
    },
    /// Replacement of the encoded ACL table.
    SetAcl {
        /// Version stamp of the mutation.
        stamp: HybridTimestamp,
        /// Previous ACL bytes.
        old: Vec<u8>,
        /// New ACL bytes.
        new: Vec<u8>,
    },
    /// Un-deletion of a deleted object — the inverse of [`Delete`],
    /// used by transaction abort compensation to put a mid-transaction
    /// deletion back. A distinct variant (rather than reusing `Create`)
    /// keeps the "one `Create` begins each object's history" invariant
    /// that point-in-time reconstruction relies on.
    ///
    /// [`Delete`]: JournalEntry::Delete
    Revive {
        /// Version stamp of the mutation.
        stamp: HybridTimestamp,
        /// The deletion stamp this entry cancels (restored on undo).
        was_deleted: HybridTimestamp,
    },
}

impl JournalEntry {
    /// The mutation stamp of this entry.
    pub fn stamp(&self) -> HybridTimestamp {
        match self {
            JournalEntry::Create { stamp }
            | JournalEntry::Delete { stamp }
            | JournalEntry::Write { stamp, .. }
            | JournalEntry::Truncate { stamp, .. }
            | JournalEntry::SetAttr { stamp, .. }
            | JournalEntry::SetAcl { stamp, .. }
            | JournalEntry::Revive { stamp, .. } => *stamp,
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            JournalEntry::Create { .. } | JournalEntry::Delete { .. } => 0,
            JournalEntry::Write { changes, .. } => 16 + 4 + changes.len() * 24,
            JournalEntry::Truncate { freed, .. } => 16 + 4 + freed.len() * 24,
            JournalEntry::SetAttr { old, new, .. } | JournalEntry::SetAcl { old, new, .. } => {
                4 + old.len() + 4 + new.len()
            }
            JournalEntry::Revive { .. } => 16,
        };
        1 + 16 + body // type + stamp + body
    }

    /// Appends the binary encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let tag = match self {
            JournalEntry::Create { .. } => 1u8,
            JournalEntry::Delete { .. } => 2,
            JournalEntry::Write { .. } => 3,
            JournalEntry::Truncate { .. } => 4,
            JournalEntry::SetAttr { .. } => 5,
            JournalEntry::SetAcl { .. } => 6,
            JournalEntry::Revive { .. } => 8,
        };
        out.push(tag);
        push_stamp(out, self.stamp());
        match self {
            JournalEntry::Create { .. } | JournalEntry::Delete { .. } => {}
            JournalEntry::Write {
                old_size,
                new_size,
                changes,
                ..
            }
            | JournalEntry::Truncate {
                old_size,
                new_size,
                freed: changes,
                ..
            } => {
                out.extend_from_slice(&old_size.to_le_bytes());
                out.extend_from_slice(&new_size.to_le_bytes());
                out.extend_from_slice(&(changes.len() as u32).to_le_bytes());
                for c in changes {
                    out.extend_from_slice(&c.lbn.to_le_bytes());
                    out.extend_from_slice(&c.old.0.to_le_bytes());
                    out.extend_from_slice(&c.new.0.to_le_bytes());
                }
            }
            JournalEntry::SetAttr { old, new, .. } | JournalEntry::SetAcl { old, new, .. } => {
                push_bytes(out, old);
                push_bytes(out, new);
            }
            JournalEntry::Revive { was_deleted, .. } => push_stamp(out, *was_deleted),
        }
    }

    /// Decodes one entry from `buf[*pos..]`, advancing `pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<JournalEntry> {
        let mut r = Reader::at(buf, *pos, "journal entry truncated");
        let tag = r.u8()?;
        let stamp = r.stamp()?;
        let e = match tag {
            1 => JournalEntry::Create { stamp },
            2 => JournalEntry::Delete { stamp },
            3 | 4 => {
                let old_size = r.u64()?;
                let new_size = r.u64()?;
                let n = r.count(24)?;
                let mut changes = Vec::with_capacity(n);
                for _ in 0..n {
                    let lbn = r.u64()?;
                    let old = BlockAddr(r.u64()?);
                    let new = BlockAddr(r.u64()?);
                    changes.push(PtrChange { lbn, old, new });
                }
                if tag == 3 {
                    JournalEntry::Write {
                        stamp,
                        old_size,
                        new_size,
                        changes,
                    }
                } else {
                    JournalEntry::Truncate {
                        stamp,
                        old_size,
                        new_size,
                        freed: changes,
                    }
                }
            }
            5 | 6 => {
                let old = r.bytes()?.to_vec();
                let new = r.bytes()?.to_vec();
                if tag == 5 {
                    JournalEntry::SetAttr { stamp, old, new }
                } else {
                    JournalEntry::SetAcl { stamp, old, new }
                }
            }
            8 => JournalEntry::Revive {
                stamp,
                was_deleted: r.stamp()?,
            },
            _ => return Err(JournalError::Corrupt("journal entry tag")),
        };
        *pos = r.pos();
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::SimTime;

    fn st(t: u64, s: u64) -> HybridTimestamp {
        HybridTimestamp::new(SimTime::from_micros(t), s)
    }

    fn samples() -> Vec<JournalEntry> {
        vec![
            JournalEntry::Create { stamp: st(1, 1) },
            JournalEntry::Write {
                stamp: st(2, 2),
                old_size: 0,
                new_size: 8192,
                changes: vec![
                    PtrChange {
                        lbn: 0,
                        old: BlockAddr::NONE,
                        new: BlockAddr(100),
                    },
                    PtrChange {
                        lbn: 1,
                        old: BlockAddr::NONE,
                        new: BlockAddr(101),
                    },
                ],
            },
            JournalEntry::Truncate {
                stamp: st(3, 3),
                old_size: 8192,
                new_size: 4096,
                freed: vec![PtrChange {
                    lbn: 1,
                    old: BlockAddr(101),
                    new: BlockAddr::NONE,
                }],
            },
            JournalEntry::SetAttr {
                stamp: st(4, 4),
                old: vec![1, 2, 3],
                new: vec![4, 5],
            },
            JournalEntry::SetAcl {
                stamp: st(5, 5),
                old: vec![],
                new: vec![9; 40],
            },
            JournalEntry::Delete { stamp: st(7, 7) },
            JournalEntry::Revive {
                stamp: st(8, 8),
                was_deleted: st(7, 7),
            },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        let mut buf = Vec::new();
        for e in samples() {
            e.encode_into(&mut buf);
        }
        let mut pos = 0;
        for want in samples() {
            let got = JournalEntry::decode_from(&buf, &mut pos).unwrap();
            assert_eq!(got, want);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn encoded_len_matches_actual() {
        for e in samples() {
            let mut buf = Vec::new();
            e.encode_into(&mut buf);
            assert_eq!(buf.len(), e.encoded_len(), "variant {e:?}");
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        samples()[1].encode_into(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let _ = JournalEntry::decode_from(&buf[..cut], &mut pos);
        }
    }

    #[test]
    fn bad_tag_rejected() {
        // 7 was a checkpoint marker no writer ever produced.
        for tag in [0, 7, 9, 99] {
            let mut buf = vec![0u8; 25];
            buf[0] = tag;
            let mut pos = 0;
            assert!(
                JournalEntry::decode_from(&buf, &mut pos).is_err(),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn entry_is_compact_relative_to_a_block() {
        // The Figure 2 claim: a single-block update costs a ~tens-of-bytes
        // journal entry instead of new metadata blocks.
        let e = JournalEntry::Write {
            stamp: st(1, 1),
            old_size: 1 << 30,
            new_size: 1 << 30,
            changes: vec![PtrChange {
                lbn: 262144,
                old: BlockAddr(1),
                new: BlockAddr(2),
            }],
        };
        assert!(e.encoded_len() < 100);
    }
}

//! Journal-based metadata versioning — the paper's key structural novelty
//! (§4.2.2, Figure 2).
//!
//! Because S4 clients are untrusted, *every* modification creates a new
//! version, so a conventional versioning layout would write a new inode
//! (and every indirect block on the path) per update — up to 4× space
//! growth for large files. S4 instead records each metadata change as a
//! compact **journal entry** carrying both the old and new values
//! (undo+redo), packs the entries into per-object **journal sectors**
//! chained backward in time, and checkpoints an object's full metadata
//! only when it is evicted from the cache or at sync. Any version of the
//! metadata can then be recreated by replaying entries from the nearest
//! checkpoint.
//!
//! The API:
//!
//! * [`JournalEntry`] — the journal entry types and their binary codec.
//! * [`encode_sectors`] / [`decode_sector`] — packing entries into
//!   chained journal-sector blocks.
//! * [`ObjectMeta`] — the object metadata record and its checkpoint codec.
//! * [`undo`] / [`redo`] of entries over a metadata record, and
//!   point-in-time reconstruction ([`UndoWalk`], [`reconstruct_at`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entry;
mod meta;
mod replay;
mod sector;
pub mod txn;

pub use entry::{JournalEntry, PtrChange, MAX_PTR_CHANGES};
pub use meta::ObjectMeta;
pub use replay::{reconstruct_at, redo, undo, UndoWalk};
pub use sector::{decode_sector, encode_sectors, SectorPayload, MAX_SECTOR_BYTES};

use std::fmt;

/// Errors surfaced by the journal layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// A serialized structure failed validation.
    Corrupt(&'static str),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Corrupt(what) => write!(f, "corrupt journal structure: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<s4_lfs::codec::Malformed> for JournalError {
    fn from(e: s4_lfs::codec::Malformed) -> Self {
        JournalError::Corrupt(e.0)
    }
}

/// Result alias for journal operations.
pub(crate) type Result<T> = std::result::Result<T, JournalError>;

//! Log-structured on-disk layout for the S4 self-securing storage server.
//!
//! S4 stores everything — object data, journal sectors, metadata
//! checkpoints, audit records, and its own system state — in a
//! log-structured layout modeled on LFS (Rosenblum & Ousterhout), because
//! data in the history pool must never be overwritten in place (§4.2.1 of
//! the paper). This crate implements that layout over any
//! [`s4_simdisk::BlockDev`]:
//!
//! * [`Geometry`], [`BlockAddr`], [`BlockKind`], [`BlockTag`] — geometry,
//!   block addressing, block kinds and tags.
//! * [`Superblock`] — dual-copy checksummed superblock with the log anchor.
//! * [`summary`] — partial-segment summary blocks, chained by epoch, that
//!   describe every block appended to the log.
//! * [`Log`] — buffered append, flush (one sequential write
//!   per batch, summary first), read-through block cache, anchor
//!   checkpointing, and crash-recovery roll-forward.
//! * [`SegmentUsageTable`] — the segment usage table tracking live blocks per segment.
//! * [`Cleaner`] — the S4 cleaner: reclaims segments whose contents have
//!   aged out of the detection window, copying still-live blocks forward
//!   through upper-layer callbacks.
//! * [`BlockCache`] — the block (buffer) cache.
//! * [`crc`] — the format's checksums: CRC-32 over each superblock and
//!   summary block, XXH64 over each batch's data blocks.
//! * [`codec`] — the bounds-checked cursor every decoder of stored or
//!   received bytes, here and in the crates above, reads through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod cache;
mod cleaner;
pub mod codec;
pub mod crc;
mod layout;
mod log;
pub mod summary;
mod superblock;
mod usage;

pub use bytes::Bytes;
pub use cache::BlockCache;
pub use cleaner::{CleanOutcome, Cleaner, CleanerConfig, RelocationCallbacks};
pub use layout::{BlockAddr, BlockKind, BlockTag, Geometry, BLOCK_SIZE};
pub use log::{FlushStats, Log, LogConfig, Mounted, RecoveredBatch, SegmentMismatch};
pub use summary::SummaryEntry;
pub use superblock::Superblock;
pub use usage::{SegmentState, SegmentUsageTable};

use std::fmt;

/// Errors surfaced by the log layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LfsError {
    /// The underlying device failed.
    Disk(s4_simdisk::DiskError),
    /// The device is full: no free segments remain.
    NoFreeSegments,
    /// A structure failed validation (bad magic or checksum).
    Corrupt(&'static str),
    /// The device is too small for the requested geometry.
    TooSmall,
    /// An address referenced a block outside the data area.
    BadAddress(u64),
    /// A block payload exceeded [`BLOCK_SIZE`].
    Oversize(usize),
    /// The superblock names an on-disk format revision this build does
    /// not read.
    Format(u32),
}

impl fmt::Display for LfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfsError::Disk(e) => write!(f, "disk error: {e}"),
            LfsError::NoFreeSegments => write!(f, "log full: no free segments"),
            LfsError::Corrupt(what) => write!(f, "corrupt on-disk structure: {what}"),
            LfsError::TooSmall => write!(f, "device too small for log geometry"),
            LfsError::BadAddress(a) => write!(f, "block address {a} out of range"),
            LfsError::Oversize(n) => write!(f, "payload of {n} bytes exceeds block size"),
            LfsError::Format(found) => write!(
                f,
                "unsupported on-disk format revision {found} (this build reads revision {}); \
                 reformat the image",
                superblock::FORMAT_VERSION
            ),
        }
    }
}

impl std::error::Error for LfsError {}

impl From<s4_simdisk::DiskError> for LfsError {
    fn from(e: s4_simdisk::DiskError) -> Self {
        LfsError::Disk(e)
    }
}

/// Result alias for log-layer operations.
pub type Result<T> = std::result::Result<T, LfsError>;

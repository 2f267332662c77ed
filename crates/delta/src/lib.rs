//! Cross-version differencing and compression (§4.2.2, §5.2).
//!
//! "Journal-based metadata can also simplify cross-version differential
//! compression. Since the blocks changed between versions are noted
//! within each entry, it is easy to find the blocks that should be
//! compared. Once the differencing is complete, the old blocks can be
//! discarded, and the difference left in its place."
//!
//! The paper measured ~200% space-efficiency gain from differencing
//! adjacent daily versions (Xdelta) and another ~200% from compressing
//! the deltas, for 500% total — extending a 10 GB history pool's
//! detection window to 50–470 days (Figure 7). This crate implements
//! both technologies from scratch:
//!
//! * [`diff`] / [`apply`] — a rolling-hash copy/insert differencer in the spirit of
//!   Xdelta (MacDonald), with a byte-stable binary encoding.
//! * [`compress`] / [`decompress`] — LZ77/LZSS compression with a 4 KiB window.
//! * [`DeltaChain`] — reverse delta chains: newest version stored whole, each
//!   older version as a delta against its successor, exactly how the S4
//!   cleaner would repack expired-adjacent history.
//!
//! # Examples
//!
//! ```
//! let old = b"the quick brown fox jumps over the lazy dog".repeat(20);
//! let mut new = old.clone();
//! new[100..105].copy_from_slice(b"EDITS");
//!
//! // A small edit produces a tiny delta...
//! let delta = s4_delta::diff(&old, &new);
//! assert!(delta.encoded_len() < old.len() / 4);
//! // ...that reproduces the target exactly.
//! assert_eq!(s4_delta::apply(&old, &delta)?, new);
//!
//! // And LZSS round-trips losslessly.
//! let compressed = s4_delta::compress(&old);
//! assert_eq!(s4_delta::decompress(&compressed)?, old);
//! # Ok::<(), s4_delta::DeltaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod lzss;
mod xdelta;

pub use chain::{ChainMode, DeltaChain};
pub use lzss::{compress, decompress};
pub use xdelta::{apply, diff, Delta};

use core::fmt;

/// Errors from delta/compression decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A serialized delta failed validation.
    Corrupt(&'static str),
    /// A delta referenced source bytes out of range.
    SourceOutOfRange,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Corrupt(what) => write!(f, "corrupt delta: {what}"),
            DeltaError::SourceOutOfRange => write!(f, "delta references bytes beyond source"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Result alias for delta operations.
pub(crate) type Result<T> = std::result::Result<T, DeltaError>;

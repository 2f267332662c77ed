//! The bounds-checked cursor every decoder reads through lives in
//! [`s4_lfs::codec`], below the journal; re-exported here so the drive's
//! own modules and the crates above (`s4-fs`, `s4-detect`) name one path.

pub use s4_lfs::codec::*;

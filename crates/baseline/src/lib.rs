//! Baseline NFS servers for the paper's four-way comparison (§5.1.1).
//!
//! The paper compares S4 against a FreeBSD 4.0 NFS server (FFS) and a
//! RedHat 6.1 Linux NFS server (ext2, mounted synchronously). What makes
//! these baselines interesting is their *update-in-place* I/O pattern:
//! data and metadata live at fixed disk addresses, so NFSv2's
//! commit-before-reply semantics turn every small operation into several
//! scattered synchronous writes — exactly the pattern the log-structured
//! S4 drive batches away.
//!
//! One server, [`UipServer`], models both. `UipServer::format(dev, true,
//! clock)` is FreeBSD's behavior (every metadata update written
//! synchronously); `UipServer::format(dev, false, clock)` is Linux's
//! `sync` mount, including the paper's observed anomaly ("the superior
//! performance of the Linux NFS server in the configure stage is due to
//! a much lower number of write I/Os ... apparently due to a flaw in the
//! synchronous mount option"): inode updates are batched instead of
//! written per operation.
//!
//! File *data* genuinely lives on the wrapped block device at allocated
//! addresses; directory and inode structures are tracked in memory while
//! their I/O is charged through explicit sector writes at their fixed
//! locations, so service times through a timed device reflect a realistic
//! FFS/ext2 access pattern (seeks between inode region, directory blocks,
//! and file data).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod uip;

pub use uip::UipServer;

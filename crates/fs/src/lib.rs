//! NFS-style file system overlay on the S4 object store (§4.1.2).
//!
//! The paper's "S4 client" is a user-level translator that appears to the
//! workstation as an NFSv2 server and turns file-system requests into
//! S4-specific RPCs: directories and files are overlaid on objects, NFS
//! file handles hash directly to ObjectIDs, attribute and directory
//! caches serve reads, and every mutating operation is followed by a Sync
//! RPC to honor NFSv2's commit-before-reply semantics.
//!
//! This crate provides:
//!
//! * [`server`] — the transport-agnostic [`FileServer`] trait all
//!   benchmarked systems implement (S4 and the baselines), mirroring the
//!   NFSv2 operation set.
//! * [`S4FileServer`] — the S4 client translator, including
//!   time-travel variants of the read operations.
//! * [`Transport`] — the transport abstraction, plus the in-process
//!   [`LoopbackTransport`] that charges the network cost model.
//! * [`TcpTransport`] and [`TcpServerHandle`] — a real framed-TCP
//!   transport and server for the S4 RPC protocol.
//! * [`ls_at`], [`read_file_at`], [`restore_file`] — §3.6's
//!   "time-enhanced" administrative utilities (`ls`/`cat` at a point in
//!   time, file restoration from the history pool).
//!
//! The directory-object format the translator reads and writes is
//! `s4_detect::dirblob` (see there for why it lives on that side).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod s4fs;
pub mod server;
mod tcp;
mod tools;
mod transport;

pub use s4fs::{S4FileServer, S4FsConfig};
pub use server::{FileAttr, FileKind, FileServer, FsError, FsResult, Handle};
pub use tcp::{RpcHandler, TcpServerHandle, TcpTransport};
pub use tools::{ls_at, read_file_at, restore_file, split_path, write_file};
pub use transport::{call_in_process, LoopbackTransport, Transport};

//! The S4 self-securing storage drive (§3–4 of the paper).
//!
//! S4 is a network-attached object store that treats its clients —
//! including the host operating system — as untrusted. Behind its security
//! perimeter it keeps **every version of every object** for a guaranteed
//! *detection window*, maintains an append-only **audit log** of all
//! requests, and serves time-based reads of the history pool so
//! administrators can diagnose and recover from intrusions even when the
//! host OS was compromised.
//!
//! This crate is the drive itself:
//!
//! * `ids` — object/user/client identifiers ([`ObjectId`], [`UserId`],
//!   [`ClientId`]) and the per-request context ([`RequestContext`]).
//! * `acl` — per-object ACL table ([`AclTable`]) with the paper's
//!   **Recovery flag** (who may read an object's history-pool versions).
//! * `audit` — audit records ([`AuditRecord`]) and the reserved,
//!   drive-written-only audit object (§4.2.3), alerts included.
//! * `object` — the object table: journal-based metadata per object,
//!   checkpoints, sector chains, delta encodings and landmarks.
//! * `throttle` — history-pool abuse detection and per-client
//!   throttling ([`ThrottleConfig`], §3.3's answer to space exhaustion).
//! * `drive` — [`S4Drive`]: format/mount/recovery, the internal
//!   operation implementations, version expiry, and cleaner integration.
//! * `rpc` — the Table-1 RPC request/response types ([`Request`],
//!   [`Response`]), their wire codec, and the authenticated dispatch
//!   entry point.
//! * `stats` — operation counters for the benchmarks ([`DriveStats`]).
//!
//! [`S4Drive::dispatch`] is the audited front door — every request
//! (including denials) lands in the audit log. The `op_*` methods are the
//! operation implementations; library embedders who need the §3.2
//! security perimeter should go through `dispatch` or a transport.
//!
//! # Examples
//!
//! ```
//! use s4_clock::{SimClock, SimDuration};
//! use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive, UserId};
//! use s4_simdisk::MemDisk;
//!
//! let clock = SimClock::new();
//! let drive = S4Drive::format(
//!     MemDisk::with_capacity_bytes(32 << 20),
//!     DriveConfig::small_test(),
//!     clock.clone(),
//! )?;
//! let alice = RequestContext::user(UserId(1), ClientId(1));
//!
//! // Every modification creates a recoverable version.
//! let oid = drive.op_create(&alice, None)?;
//! drive.op_write(&alice, oid, 0, b"v1")?;
//! let t1 = drive.now();
//! clock.advance(SimDuration::from_secs(60));
//! drive.op_write(&alice, oid, 0, b"v2")?;
//!
//! assert_eq!(drive.op_read(&alice, oid, 0, 16, None)?, b"v2");
//! assert_eq!(drive.op_read(&alice, oid, 0, 16, Some(t1))?, b"v1");
//! # Ok::<(), s4_core::S4Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acl;
mod audit;
pub mod codec;
mod drive;
mod expiry;
mod ids;
mod image;
mod ledger;
mod object;
mod ops;
mod packed;
mod persist;
mod recovery;
mod reserved;
mod rpc;
mod stats;
mod throttle;
mod txn;

pub use acl::{AclEntry, AclTable, Perm};
pub use audit::{AlertRule, AuditRecord, AuditState, OpKind, RECORD_BYTES};
pub use drive::{
    AuditObserver, DriveConfig, ObjectAttrs, RecoveryReport, ResyncImage, ResyncObject, S4Drive,
    VersionKind, VersionRecord, AUDIT_OBJECT, PARTITION_OBJECT,
};
pub use ids::{
    ClientId, ObjectId, RequestContext, TraceCtx, TraceIdGen, UserId, PHASE_ALERT, PHASE_APPLY,
    PHASE_CATCHUP, PHASE_CLIENT, PHASE_DECIDE, PHASE_NOTE, PHASE_PREPARE,
};
pub use ledger::Discrepancy;
pub use reserved::{ResyncStream, StreamCursor};
pub use rpc::{Request, Response, LAST_CREATED};
pub use stats::{DriveStats, StatsSnapshot};
pub use throttle::ThrottleConfig;

use std::fmt;

/// Errors returned by drive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S4Error {
    /// The requesting principal lacks permission for this operation.
    AccessDenied,
    /// The object does not exist (or did not exist at the requested time).
    NoSuchObject,
    /// The requested historical version has aged out of the history pool.
    VersionUnavailable,
    /// A partition name was not found.
    NoSuchPartition,
    /// A partition name already exists.
    PartitionExists,
    /// The request was malformed (bad range, bad name, oversized payload).
    BadRequest(&'static str),
    /// The history pool has consumed the device; writes cannot proceed
    /// until versions age out or an administrator intervenes (§3.3).
    PoolFull,
    /// The underlying log failed.
    Storage(s4_lfs::LfsError),
    /// A journal structure failed validation.
    Journal(s4_journal::JournalError),
    /// A batch aborted partway: `completed` sub-requests finished before
    /// sub-request `failed_at` returned `error`. Callers that batched
    /// mutations can tell exactly which prefix took effect.
    BatchFailed {
        /// Sub-requests that completed successfully before the failure.
        completed: u32,
        /// Index of the failing sub-request within the batch.
        failed_at: u32,
        /// The failing sub-request's error.
        error: Box<S4Error>,
    },
}

/// Classification of an [`S4Error`] as a disk-level fault, used by
/// redundancy layers to decide between retrying and declaring a member
/// dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// A fault worth retrying (an I/O error that may not recur).
    Transient,
    /// The device is gone or structurally unusable; retrying is futile.
    Fatal,
}

impl S4Error {
    /// The variants' names, in declaration order. An `array-degraded`
    /// alert keeps the fault that took a member out of service as its
    /// index here, [`S4Error::kind`].
    pub const KINDS: [&str; 10] = [
        "access denied",
        "no such object",
        "version unavailable",
        "no such partition",
        "partition exists",
        "bad request",
        "history pool full",
        "storage error",
        "journal error",
        "batch failed",
    ];

    /// The variant, as its index into [`S4Error::KINDS`].
    pub fn kind(&self) -> u8 {
        match self {
            S4Error::AccessDenied => 0,
            S4Error::NoSuchObject => 1,
            S4Error::VersionUnavailable => 2,
            S4Error::NoSuchPartition => 3,
            S4Error::PartitionExists => 4,
            S4Error::BadRequest(_) => 5,
            S4Error::PoolFull => 6,
            S4Error::Storage(_) => 7,
            S4Error::Journal(_) => 8,
            S4Error::BatchFailed { .. } => 9,
        }
    }

    /// Classifies this error as a disk fault, if it is one. Logical
    /// errors (denials, missing objects, malformed requests, a full
    /// history pool) return `None` — they are properties of the request
    /// or drive state, not of the medium, and must not trigger failover.
    pub fn disk_fault(&self) -> Option<DiskFaultKind> {
        match self {
            S4Error::Storage(s4_lfs::LfsError::Disk(d)) => match d {
                s4_simdisk::DiskError::Io(_) => Some(DiskFaultKind::Transient),
                s4_simdisk::DiskError::DeviceFailed
                | s4_simdisk::DiskError::OutOfRange { .. }
                | s4_simdisk::DiskError::UnalignedLength(_) => Some(DiskFaultKind::Fatal),
            },
            S4Error::Storage(s4_lfs::LfsError::Corrupt(_) | s4_lfs::LfsError::Format(_)) => {
                Some(DiskFaultKind::Fatal)
            }
            S4Error::BatchFailed { error, .. } => error.disk_fault(),
            _ => None,
        }
    }
}

impl fmt::Display for S4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S4Error::AccessDenied => write!(f, "access denied"),
            S4Error::NoSuchObject => write!(f, "no such object"),
            S4Error::VersionUnavailable => write!(f, "version aged out of history pool"),
            S4Error::NoSuchPartition => write!(f, "no such partition"),
            S4Error::PartitionExists => write!(f, "partition already exists"),
            S4Error::BadRequest(why) => write!(f, "bad request: {why}"),
            S4Error::PoolFull => write!(f, "history pool exhausted"),
            S4Error::Storage(e) => write!(f, "storage error: {e}"),
            S4Error::Journal(e) => write!(f, "journal error: {e}"),
            S4Error::BatchFailed {
                completed,
                failed_at,
                error,
            } => write!(
                f,
                "batch failed at sub-request {failed_at} after {completed} completed: {error}"
            ),
        }
    }
}

impl std::error::Error for S4Error {}

impl From<s4_lfs::LfsError> for S4Error {
    fn from(e: s4_lfs::LfsError) -> Self {
        match e {
            s4_lfs::LfsError::NoFreeSegments => S4Error::PoolFull,
            other => S4Error::Storage(other),
        }
    }
}

impl From<codec::Malformed> for S4Error {
    fn from(e: codec::Malformed) -> Self {
        S4Error::BadRequest(e.0)
    }
}

impl From<s4_journal::JournalError> for S4Error {
    fn from(e: s4_journal::JournalError) -> Self {
        S4Error::Journal(e)
    }
}

/// Result alias for drive operations.
pub type Result<T> = std::result::Result<T, S4Error>;

#[cfg(test)]
/// The mutations `tests/decoder_fuzz.rs` feeds the public decoders, for the
/// unit tests of the crate-private ones: every truncation, every byte set
/// to `00`/`7F`/`80`/`FF`, every aligned four-byte field set to
/// `FF FF FF FF`. A decoder passes by returning from each.
pub(crate) fn hostile(valid: &[u8]) -> Vec<Vec<u8>> {
    let set = |at: usize, len: usize, v: u8| {
        let mut bad = valid.to_vec();
        bad[at..at + len].fill(v);
        bad
    };
    let truncations = (0..valid.len()).map(|cut| valid[..cut].to_vec());
    let bytes = (0..valid.len()).flat_map(|at| [0x00, 0x7F, 0x80, 0xFF].map(|v| set(at, 1, v)));
    let fields = (0..valid.len().saturating_sub(3)).step_by(4);
    truncations
        .chain(bytes)
        .chain(fields.map(|at| set(at, 4, 0xFF)))
        .collect()
}

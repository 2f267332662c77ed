//! Block-device substrate for the S4 self-securing storage reproduction.
//!
//! The paper's S4 prototype stored its log on a 9 GB 10,000 RPM Seagate
//! Cheetah SCSI drive. This crate substitutes a simulated drive: a sector
//! store ([`MemDisk`] or [`FileDisk`]) wrapped by [`TimedDisk`], which
//! charges a mechanical service-time model (`DiskModel`) to the shared
//! simulated clock and keeps I/O statistics. A [`FaultyDisk`] wrapper
//! injects failures and torn writes for crash-recovery testing.
//!
//! All storage layers above (the LFS layout, the S4 drive, the baseline
//! servers) speak the [`BlockDev`] trait, so every experiment runs against
//! the identical substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dev;
mod fault;
mod model;
mod stats;
mod timed;
mod trace;

pub use dev::{BlockDev, DiskError, FileDisk, MemDisk, SECTOR_SIZE};
pub use fault::{FaultPlan, FaultyDisk, RequestClassMask, TornPattern};
pub use model::DiskModelParams;
pub use stats::{DiskStats, StatsHandle};
pub use timed::TimedDisk;
pub use trace::{TraceClass, TraceDisk, TraceHandle, TraceRecord};

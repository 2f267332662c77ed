//! Simulated-time substrate for the S4 self-securing storage reproduction.
//!
//! The original S4 evaluation ran on physical hardware (Pentium III servers,
//! a 9 GB 10,000 RPM SCSI disk, switched 100 Mb Ethernet). This reproduction
//! replaces wall-clock measurement with a *simulated clock*: every component
//! (disk model, network model, CPU think time) charges its service time to a
//! shared [`SimClock`], and benchmarks report simulated seconds. This keeps
//! the evaluation deterministic and laptop-runnable while preserving the
//! relative shapes the paper reports.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution instants and
//!   durations on the simulated timeline.
//! * [`SimClock`] — a shared, thread-safe monotonic clock.
//! * [`HybridTimestamp`] — a totally ordered version stamp (simulated time
//!   plus a sequence number) used to order object versions even when many
//!   mutations land within the same microsecond.
//! * [`NetworkModel`] — RPC cost model (per-message latency + bandwidth).
//! * [`CpuModel`] — per-operation CPU cost model for server-side work and
//!   client think time (e.g. the compile phase of SSH-build).
//!
//! # Examples
//!
//! ```
//! use s4_clock::{NetworkModel, SimClock, SimDuration};
//!
//! let clock = SimClock::new();
//! let net = NetworkModel::lan_100mbit();
//! // Charge one 4 KB NFS transfer to the shared timeline.
//! clock.advance(net.rpc_cost(4096, 32));
//! assert!(clock.now().as_micros() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hybrid;
mod models;
pub mod sync;
mod time;

pub use hybrid::{HybridClock, HybridTimestamp};
pub use models::{CpuModel, NetworkModel};
pub use time::{SimClock, SimDuration, SimTime};

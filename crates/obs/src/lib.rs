//! Observability layer for the S4 stack: metrics and spans.
//!
//! The paper's administrative story (§3.6, §5) assumes the operator can
//! *see* the drive: how much detection-window headroom the history pool
//! has left, what the cleaner reclaims, and what the last requests
//! looked like before an intrusion. This crate provides the plumbing,
//! with zero external dependencies so every other crate can use it:
//!
//! * [`Registry`] — a named-metric registry holding monotonic
//!   [`Counter`]s, float [`Gauge`]s, and log-linear latency
//!   [`Histogram`]s, rendered as Prometheus-style text;
//! * [`Histogram`] — the histogram itself (4 linear sub-buckets per
//!   power-of-two octave; constant memory, lock-free recording,
//!   p50/p90/p99/max queries);
//! * [`span`] — a thread-local per-request span that hot-path layers
//!   (rpc, journal, lfs, disk) charge simulated microseconds to, so one
//!   request's latency decomposes by layer without threading a context
//!   object through every call. The drive stores each request's span
//!   in the request's audit record (see `s4-core`).
//!
//! Everything here measures **simulated** time (the `SimClock` the rest
//! of the stack runs on), never wall time, so recorded values are
//! deterministic and replayable.

mod hist;
mod registry;
pub mod span;

pub use hist::Histogram;
pub use registry::{Counter, Gauge, Registry, Sample};

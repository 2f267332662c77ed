//! Sharded multi-drive S4 array (scale-out, §5 "costs and scalability").
//!
//! One self-securing drive bounds its throughput by a single log and a
//! single security perimeter. The array scales out by running `n`
//! independent [`s4_core::S4Drive`]s and partitioning the flat object
//! namespace across them by residue class (`oid % n`), with each member
//! drive allocating ObjectIDs only inside its own class so that
//! drive-assigned IDs route home with no mapping table.
//!
//! Design points:
//!
//! * **Per-shard workers with bounded queues.** Each shard owns one
//!   worker thread fed by a bounded channel; a full queue blocks the
//!   submitter (backpressure) rather than spawning threads or buffering
//!   without limit.
//! * **Scatter-gather.** Whole-array operations (`Sync`, `Flush`,
//!   `SetWindow`, retention flushes, partition lookups) broadcast to
//!   every shard concurrently and merge the responses; batches split
//!   into per-shard sub-batches that run in parallel.
//! * **Security perimeter stays per drive.** Audit logs, alerts
//!   included, are shard-local and tamper-resistant exactly
//!   as on a lone drive; the array only ever *reads* and merges them
//!   ([`Sharded`] tags each record with the vouching shard). Recovery
//!   and mount are strictly per shard.
//! * **Mirrored shards, degraded mode, online resync.** With
//!   [`ArrayConfig::mirrors`] > 1 each residue class is served by a
//!   replica group: mutations re-execute on every in-sync member, reads
//!   fail over, transient device faults are retried with backoff while
//!   hard faults / torn writes / panics mark the member
//!   [`MemberState::Dead`] — invisibly to clients. Degraded shards are
//!   surfaced via a persisted `array-degraded` alert, the
//!   `s4_array_degraded` gauge, and `s4 stats`;
//!   [`S4Array::resync_member`] rebuilds a dead replica onto a fresh
//!   device online with per-object digest verification. A lone
//!   surviving replica whose device fails falls back to read-only.
//! * **Drop-in surface.** The array implements [`s4_fs::RpcHandler`],
//!   so the TCP server and the NFS-style file system layer run over it
//!   unchanged ([`ArrayTransport`] is the in-process variant).
//! * **Online resharding.** Routing is epoch-aware ([`EpochInfo`]):
//!   a live array splits from `N` to `2N` shards one residue class at a
//!   time, with the history pool serving as the migration mechanism and
//!   only a brief per-shard quiesce at the flip
//!   ([`split_shard`], [`double_array`], DESIGN §6h).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod dispatch;
mod epoch;
mod flip;
mod forensics;
mod metrics;
mod reshard;
mod router;
mod shard;
mod transport;
mod txn;

pub use array::{ArrayConfig, S4Array, QUEUE_DEPTH};
pub use dispatch::BatchOutcome;
pub use epoch::{EpochInfo, FlipReport, EPOCH_NOTE_PREFIX};
pub use forensics::Sharded;
pub use reshard::{double_array, split_shard, ReshardConfig, ReshardReport};
pub use router::shard_of;
pub use shard::MemberState;
pub use transport::ArrayTransport;

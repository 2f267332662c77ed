//! Deterministic workload generators for the S4 evaluation (§5.1.1).
//!
//! The paper drives its four servers with PostMark ("Internet server"
//! workload), SSH-build ("software development" workload, an
//! Andrew-benchmark replacement), and a small-file micro-benchmark for
//! the audit-log study. This crate regenerates those workloads as
//! deterministic operation traces that replay against anything
//! implementing [`s4_fs::FileServer`]:
//!
//! * [`Rng`] — seedable xoshiro256\*\* PRNG (vendored so traces are
//!   byte-stable regardless of external crate versions).
//! * [`FsOp`] — the trace vocabulary, and the [`replay`] driver.
//! * [`postmark`] — PostMark (Katcher, TR3022): file pool, paired
//!   create/delete + read/append transactions.
//! * [`sshbuild_phases`] — SSH-build's unpack / configure / build
//!   phases, with CPU think time for the compile-heavy parts.
//! * [`micro_benchmark`] — the Figure 6 micro-benchmark: 10,000 1 KiB
//!   files in 10 directories; create, read in creation order, delete in
//!   creation order.
//! * [`srctree`] — synthetic source-tree evolution (daily edits) for the
//!   §5.2 differencing/compression study.
//! * [`profiles`] — the three workload-study write rates behind
//!   Figure 7 (AFS, NT, Elephant).
//!
//! # Examples
//!
//! ```
//! use s4_workloads::postmark::{self, PostmarkConfig};
//!
//! // The paper's default PostMark, as a deterministic trace.
//! let phases = postmark::generate(&PostmarkConfig::tiny());
//! assert!(!phases.create.is_empty());
//! // Same seed, same trace — byte for byte.
//! let again = postmark::generate(&PostmarkConfig::tiny());
//! assert_eq!(phases.transactions, again.transactions);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod micro;
mod ops;
pub mod postmark;
pub mod profiles;
mod rng;
pub mod srctree;
mod sshbuild;

pub use micro::{micro_benchmark, MicroConfig, MicroPhases};
pub use ops::{replay, replay_with_clock, FsOp, ReplayStats};
pub use rng::Rng;
pub use sshbuild::{sshbuild_phases, SshBuildConfig, SshBuildPhases};

//! Intrusion detection, forensics, and recovery for self-securing
//! storage.
//!
//! The paper's security model (§3) makes the drive a vantage point the
//! intruder cannot reach: every request is versioned and audited behind
//! the physical interface boundary, so the drive sees a complete,
//! tamper-proof record of what happened even when every client OS is
//! compromised. This crate is the machinery that *exploits* that vantage
//! point, in three layers:
//!
//! * **Detection** — streaming analytics over the drive-written audit
//!   log (§4.2.3). The standard rule set ([`DetectorSet`]) consumes [`AuditRecord`](s4_core::AuditRecord)s
//!   one at a time; its rules flag the §2 intrusion shapes: scrubbing an
//!   append-only log, bursts of ACL/attribute tampering, mass overwrite
//!   storms (the ransomware shape), write-rate spikes, a known user
//!   suddenly operating from a foreign client, and gaps in audit
//!   coverage. Detectors run *offline* over the decoded log
//!   ([`scan_audit`]) or *online* inside the drive via
//!   [`install_standard_monitor`], with each alert filed as one record of
//!   the drive-written audit log itself, which the intruder can neither
//!   suppress nor rewrite; [`read_alerts`] puts those records in words.
//! * **Forensics** — given an intrusion time `T`, reconstruct what
//!   happened: per-object tamper timelines ([`object_timeline`]) merging
//!   the journal's version history with the audit stream, namespace tree
//!   diffs between `T` and now ([`tree_diff`]), and the §3.6 damage
//!   report ([`damage_report`]: reads, writes, and crude taint
//!   propagation for a suspect principal).
//! * **Recovery** — turn the forensic picture into a reviewable
//!   [`RecoveryPlan`] ([`plan_recovery`]): restore tampered objects to their
//!   pre-intrusion versions, undelete destroyed ones, remove planted
//!   ones (landmark-pinned first, as evidence), and quarantine
//!   already-deleted exploit tools. [`execute_plan_on`] applies it
//!   through the drive's `dispatch` — time-based reads and copy-forward
//!   writes, audited under the admin principal like any other request
//!   — so history is never rewritten and recovery is itself on the
//!   record and undoable.
//!
//! The crate deliberately depends only on `s4-core` (drive interface):
//! it lives with the administrator inside the security perimeter, not
//! with any file-system client. It also owns the directory-object
//! format ([`dirblob`]), which the file-server layer (`s4-fs`) imports
//! from here — see that module for why.

#![warn(missing_docs)]

mod alert;
mod detector;
pub mod dirblob;
mod forensics;
mod recovery;
mod rules;
mod timeline;

pub use alert::{Alert, Severity};
pub use detector::{install_standard_monitor, read_alerts, scan_audit, DetectorSet};
pub use forensics::{
    assemble_traces, audit_coverage, damage_report, object_timeline, render_trace_tree,
    slowest_traces, tree_diff, CoverageReport, DamageReport, TimelineEvent, TimelineSource,
    TraceSpan, TraceTree, TreeDiff, TreeNode,
};
pub use recovery::{
    execute_plan_on, plan_recovery, PlannedAction, RecoveryAction, RecoveryPlan, RecoveryReport,
    Suspects,
};

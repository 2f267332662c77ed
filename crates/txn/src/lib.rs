//! Cross-shard atomic batches: the two-phase-commit vocabulary shared by
//! the S4 array coordinator and its tools.
//!
//! A multi-shard batch must be all-or-nothing even though each shard is
//! an independent self-securing drive with its own journal. The protocol
//! (classic presumed-abort 2PC, adapted to S4's append-only history
//! discipline):
//!
//! 1. **Prepare** — the coordinator sends each participant shard its
//!    sub-batch. The shard executes it and force-flushes its `Prepared`
//!    and `Touched` records to its journaled transaction log, in the
//!    same commit as the effects; the successful reply is its yes-vote:
//!    the effects are durable and their scope is recorded.
//! 2. **Decide** — once every vote is in, the coordinator durably writes
//!    a **decision note** (a `__s4/txn/<txid>` partition entry on shard
//!    0, journal-flushed). That single write is the commit point: a
//!    crash before it aborts the transaction everywhere (presumed
//!    abort), a crash after it commits everywhere.
//! 3. **Fan-out** — Commit/Abort is sent to each participant; abort
//!    rolls the sub-batch back through forward compensation. A
//!    participant does not flush its resolution: it rides whatever the
//!    participant packs next. So the note outlives the fan-out: it is
//!    retired inside a later note's install, once every participant
//!    reports its resolution durable, and until then recovery can always
//!    re-derive the decision from it.
//!
//! Mount-time recovery resolves in-doubt participants by looking for the
//! note: present ⇒ redo (effects are already durable — commit is pure
//! bookkeeping), absent ⇒ abort via compensation.
//!
//! This crate is dependency-free: it owns the transaction-id type, the
//! decision-note naming scheme, and the generic coordinator driver
//! ([`run`]) over an abstract [`TwoPhaseOps`] port, so the state-machine
//! logic is unit-testable without spinning up an array. The array mints
//! ids with the same clock-and-counter generator as trace ids
//! (`s4_core::TraceIdGen`, an instance of its own).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A transaction identifier, unique per array lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Namespace prefix of coordinator decision notes: they live in the
/// partition table of shard 0 under the array's reserved name prefix, so
/// clients can never collide with (or forge) them.
pub(crate) const TXN_NOTE_PREFIX: &str = "__s4/txn/";

/// The decision-note partition name for `txid`.
pub fn note_name(txid: TxId) -> String {
    format!("{TXN_NOTE_PREFIX}{txid}")
}

/// Parses a partition name back into the transaction it commits.
pub fn parse_note(name: &str) -> Option<TxId> {
    let hex = name.strip_prefix(TXN_NOTE_PREFIX)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(TxId)
}

/// The side effects the coordinator driver needs, abstracted so the
/// state machine is testable without an array. Implementations decide
/// what "shard" indexes mean and how messages travel.
pub trait TwoPhaseOps {
    /// Transport/participant error type.
    type Err;

    /// Sends participant `shard` its sub-batch; `Ok` is the yes-vote
    /// (effects executed AND durable). A failing participant must have
    /// rolled its partial effects back before returning.
    fn prepare(&mut self, shard: usize, txid: TxId) -> Result<(), Self::Err>;

    /// Durably records the commit decision (the commit point). Only ever
    /// called with every vote in hand.
    fn record_decision(&mut self, txid: TxId) -> Result<(), Self::Err>;

    /// Tells participant `shard` the outcome; on `commit = false` it
    /// compensates. Must be idempotent — recovery may repeat it.
    fn decide(&mut self, shard: usize, txid: TxId, commit: bool) -> Result<(), Self::Err>;

    /// Called once every participant acknowledged the commit: the note
    /// may go once their acknowledged resolutions are durable, which an
    /// implementation whose participants make them durable later must
    /// wait for (the array retires it inside a later note's install).
    /// Failure is harmless (recovery cleans orphaned notes).
    fn retire_decision(&mut self, txid: TxId) -> Result<(), Self::Err>;
}

/// How a coordinated transaction ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOutcome<E> {
    /// The decision note was written: the transaction is durable on
    /// every shard. `lagging` lists participants whose commit fan-out
    /// failed — their mount-time recovery will redo from the note.
    Committed {
        /// Shards that did not acknowledge the commit.
        lagging: Vec<usize>,
    },
    /// The transaction rolled back everywhere reachable.
    Aborted {
        /// The participant whose prepare failed, if that was the cause
        /// (`None`: the decision write itself failed).
        failed_shard: Option<usize>,
        /// The underlying error.
        error: E,
    },
}

/// Drives one transaction to its outcome. The invariants this encodes:
///
/// * `record_decision` happens only after **every** prepare succeeded;
/// * an abort never follows a recorded decision;
/// * the note is handed to `retire_decision` only when **every**
///   participant acknowledged; it leaves the disk only once every
///   acknowledged resolution is durable, which may be later.
pub fn run<O: TwoPhaseOps>(ops: &mut O, txid: TxId, shards: &[usize]) -> TxnOutcome<O::Err> {
    let mut prepared: Vec<usize> = Vec::with_capacity(shards.len());
    for &s in shards {
        match ops.prepare(s, txid) {
            Ok(()) => prepared.push(s),
            Err(error) => {
                // The failing shard rolled itself back; release the
                // others. A shard that misses this abort resolves it at
                // mount: prepared, no note ⇒ presumed abort.
                for &p in &prepared {
                    let _ = ops.decide(p, txid, false);
                }
                return TxnOutcome::Aborted {
                    failed_shard: Some(s),
                    error,
                };
            }
        }
    }
    if let Err(error) = ops.record_decision(txid) {
        for &p in &prepared {
            let _ = ops.decide(p, txid, false);
        }
        return TxnOutcome::Aborted {
            failed_shard: None,
            error,
        };
    }
    let mut lagging = Vec::new();
    for &s in shards {
        if ops.decide(s, txid, true).is_err() {
            lagging.push(s);
        }
    }
    if lagging.is_empty() {
        // Best-effort: an orphaned note is cleaned at the next mount.
        let _ = ops.retire_decision(txid);
    }
    TxnOutcome::Committed { lagging }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_names_round_trip_and_reject_garbage() {
        let txid = TxId(0xdead_beef_0042_0007);
        let name = note_name(txid);
        assert!(name.starts_with(TXN_NOTE_PREFIX));
        assert_eq!(parse_note(&name), Some(txid));
        assert_eq!(parse_note("__s4/txn/xyz"), None);
        assert_eq!(parse_note("__s4/txn/123"), None, "short hex rejected");
        assert_eq!(parse_note("home"), None);
        assert_eq!(parse_note("__s4/epoch/4"), None);
    }

    /// Scripted mock: records the event order and fails exactly the
    /// steps it is told to.
    #[derive(Default)]
    struct Mock {
        events: Vec<String>,
        fail_prepare: Option<usize>,
        fail_decision: bool,
        fail_commit_on: Vec<usize>,
    }

    impl TwoPhaseOps for Mock {
        type Err = String;
        fn prepare(&mut self, shard: usize, _txid: TxId) -> Result<(), String> {
            self.events.push(format!("prepare:{shard}"));
            if self.fail_prepare == Some(shard) {
                return Err(format!("prepare {shard} refused"));
            }
            Ok(())
        }
        fn record_decision(&mut self, _txid: TxId) -> Result<(), String> {
            self.events.push("note".into());
            if self.fail_decision {
                return Err("note write failed".into());
            }
            Ok(())
        }
        fn decide(&mut self, shard: usize, _txid: TxId, commit: bool) -> Result<(), String> {
            self.events.push(format!(
                "{}:{shard}",
                if commit { "commit" } else { "abort" }
            ));
            if commit && self.fail_commit_on.contains(&shard) {
                return Err(format!("shard {shard} unreachable"));
            }
            Ok(())
        }
        fn retire_decision(&mut self, _txid: TxId) -> Result<(), String> {
            self.events.push("retire".into());
            Ok(())
        }
    }

    #[test]
    fn clean_commit_orders_note_between_votes_and_fanout() {
        let mut m = Mock::default();
        let out = run(&mut m, TxId(1), &[0, 2, 3]);
        assert_eq!(out, TxnOutcome::Committed { lagging: vec![] });
        assert_eq!(
            m.events,
            vec![
                "prepare:0",
                "prepare:2",
                "prepare:3",
                "note",
                "commit:0",
                "commit:2",
                "commit:3",
                "retire"
            ]
        );
    }

    #[test]
    fn prepare_failure_aborts_the_prepared_prefix_only() {
        let mut m = Mock {
            fail_prepare: Some(2),
            ..Mock::default()
        };
        let out = run(&mut m, TxId(2), &[0, 2, 3]);
        assert!(matches!(
            out,
            TxnOutcome::Aborted {
                failed_shard: Some(2),
                ..
            }
        ));
        // Shard 3 was never prepared, so it gets no abort; no note ever.
        assert_eq!(m.events, vec!["prepare:0", "prepare:2", "abort:0"]);
    }

    #[test]
    fn decision_write_failure_aborts_everything_prepared() {
        let mut m = Mock {
            fail_decision: true,
            ..Mock::default()
        };
        let out = run(&mut m, TxId(3), &[1, 4]);
        assert!(matches!(
            out,
            TxnOutcome::Aborted {
                failed_shard: None,
                ..
            }
        ));
        assert_eq!(
            m.events,
            vec!["prepare:1", "prepare:4", "note", "abort:1", "abort:4"]
        );
    }

    #[test]
    fn lagging_commit_keeps_the_note_for_recovery() {
        let mut m = Mock {
            fail_commit_on: vec![4],
            ..Mock::default()
        };
        let out = run(&mut m, TxId(4), &[1, 4, 5]);
        assert_eq!(out, TxnOutcome::Committed { lagging: vec![4] });
        // No retire: shard 4's mount recovery still needs the note.
        assert_eq!(
            m.events,
            vec![
                "prepare:1",
                "prepare:4",
                "prepare:5",
                "note",
                "commit:1",
                "commit:4",
                "commit:5"
            ]
        );
    }
}

//! Cross-shard two-phase-commit crash torture (see
//! `crates/torture/src/txn.rs` and DESIGN §6i).
//!
//! The window is a stretch of three steps: a cross-shard transaction, a
//! write and `Sync` on every shard (the commit that carries the
//! transaction's resolutions), and a second transaction (whose note
//! install retires the first note). The bounded campaign is the CI
//! gate: two unmirrored shards, every crash point of both devices'
//! windows (the cap of 24 is above the window's 8), one torn-sector
//! pattern per point rotating through the standard mix, and the uncut
//! control run.
//! The exhaustive campaigns (`--ignored`) enumerate **every** countable
//! device request of the window — on the two-shard array and on a
//! three-shard × two-mirror array — under two patterns per point.
//!
//! Every replay asserts all-or-nothing recovery (each transaction's
//! content on every shard and mirror or on none, every returned step
//! durable), decision convergence (nothing in doubt, no note outliving
//! its mount, a live note only while a resolution is queued), audit
//! prefix integrity, and remount idempotence — so these tests pass
//! only if the commit protocol is atomic at every power-loss point.

use s4_simdisk::TornPattern;
use s4_torture::txn::{txn_lost_retire, Stretch};
use s4_torture::{enumerate, replay, windows, Campaign};

/// The bounded CI campaign: ≤ 24 crash points, one pattern at each.
const BOUNDED: Campaign = Campaign::new(Some(1), Some(24));

/// The exhaustive campaigns: every crash point, two patterns at each.
const EXHAUSTIVE: Campaign = Campaign::new(Some(2), None);

#[test]
fn bounded_txn_campaign_is_atomic_at_every_sampled_point() {
    let summary = enumerate(&Stretch::TWO_SHARDS, BOUNDED);
    // One greppable line per campaign; verify.sh and CI tee these into
    // the txn-torture summary artifact.
    println!("TXN_TORTURE bounded {summary:?}");
    // Eight log commits in eight transfers. Each transaction is three:
    // the vote on each participant (which carries `Prepared` and is also
    // the batch's `Sync`) and the decision note on shard 0. Between them
    // the write and `Sync` on each shard is one commit per shard, and it
    // carries the first transaction's `Resolved`; the second note's
    // install carries the first note's retire. (The parent's window was
    // the first transaction alone, five transfers: `Resolved` flushed on
    // each participant. A batch whose blocks reach the end of its
    // segment is cut there and commits in two.)
    assert_eq!(summary.domain, 8, "the 2PC window moved: {summary:?}");
    assert!(
        summary.crash_points <= 24,
        "bounded cap violated: {summary:?}"
    );
    assert_eq!(
        summary.replays,
        summary.crash_points * BOUNDED.replays_per_point()
    );
    // Crash points cover both sides of the commit point, so the
    // campaign must observe both recovered decisions.
    let decisions = summary.tally;
    assert!(
        decisions.aborted > 0,
        "no pre-commit-point crash: {summary:?}"
    );
    assert!(
        decisions.committed > 0,
        "no post-commit-point crash: {summary:?}"
    );
}

#[test]
fn crash_on_first_and_last_window_request() {
    // The window edges: dying on the very first countable request of
    // the protocol must roll back cleanly; a fault armed past the
    // window never fires and the protocol simply completes.
    let s = Stretch::TWO_SHARDS;
    let (start, end) = windows(&s)[0];
    let first = replay(&s, 0, start, TornPattern::Prefix(0));
    assert!(first.died);
    assert_eq!(first.tally.aborted, 1, "first-request crash must abort");
    let past = replay(&s, 0, end + 100, TornPattern::Prefix(0));
    assert!(!past.died);
    assert_eq!(past.tally.committed, 1, "undisturbed protocol must commit");
}

#[test]
fn a_lost_lazy_retire_leaves_a_note_that_mount_retires_again() {
    // A decision note waits for a later note install, and a resolution
    // for its participant's next commit, so power lost right after the
    // stretch leaves the second transaction's note on every shard-0
    // platter and its participants in doubt (the harness asserts the
    // rest: redone from the note at mount, the note retired, objects at
    // the last step, idempotent).
    for s in [Stretch::TWO_SHARDS, Stretch::MIRRORED] {
        assert_eq!(txn_lost_retire(&s), s.mirrors);
    }
}

#[test]
fn torn_decision_note_recovers_uniformly() {
    // Walk the shard-0 device (where the decision note lives) across
    // its whole window with a sector-holed tear — the nastiest pattern
    // for the single commit-point write. Every recovery must still be
    // all-or-nothing (the scenario's check panics otherwise).
    let s = Stretch::TWO_SHARDS;
    let (start, end) = windows(&s)[0];
    let mut decisions = Vec::new();
    for k in start..end {
        let out = replay(&s, 0, k, TornPattern::Holed { start: 1, len: 2 });
        decisions.push((out.run.txn_step(), out.tally.committed == 1));
    }
    // Each transaction's decision must be monotone in the crash point on
    // the coordinator device: once a crash point recovers it committed,
    // every later one does too (its note write is its single commit
    // point).
    for step in [1, 3] {
        let of_step: Vec<bool> = decisions
            .iter()
            .filter(|d| d.0 == step)
            .map(|d| d.1)
            .collect();
        let first_commit = of_step.iter().position(|&c| c);
        if let Some(i) = first_commit {
            assert!(
                of_step[i..].iter().all(|&c| c),
                "decision of step {step} not monotone across the coordinator window: {decisions:?}"
            );
        }
    }
}

#[test]
#[ignore = "exhaustive: every crash point on every device; run explicitly"]
fn exhaustive_txn_campaign_two_shards() {
    let summary = enumerate(&Stretch::TWO_SHARDS, EXHAUSTIVE);
    println!("TXN_TORTURE exhaustive-two-shard {summary:?}");
    assert_eq!(summary.crash_points as u64, summary.domain, "{summary:?}");
    let decisions = summary.tally;
    assert!(
        decisions.committed > 0 && decisions.aborted > 0,
        "{summary:?}"
    );
}

#[test]
#[ignore = "exhaustive: mirrored 3-shard array, every crash point; run explicitly"]
fn exhaustive_txn_campaign_mirrored() {
    let summary = enumerate(&Stretch::MIRRORED, EXHAUSTIVE);
    println!("TXN_TORTURE exhaustive-mirrored {summary:?}");
    assert_eq!(summary.crash_points as u64, summary.domain, "{summary:?}");
    let decisions = summary.tally;
    assert!(
        decisions.committed > 0 && decisions.aborted > 0,
        "{summary:?}"
    );
}

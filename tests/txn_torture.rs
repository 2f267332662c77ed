//! Cross-shard two-phase-commit crash torture (see
//! `crates/torture/src/txn.rs` and DESIGN §6i).
//!
//! The bounded campaign is the CI gate: two unmirrored shards, every
//! crash point of both devices' 2PC windows (the cap of 24 is above
//! the window's 5), one torn-sector pattern per point rotating through
//! the standard mix.
//! The exhaustive campaigns (`--ignored`) enumerate **every** countable
//! device request of the window — on the two-shard array and on a
//! three-shard × two-mirror array — under two patterns per point.
//!
//! Every replay asserts all-or-nothing recovery (uniformly old or
//! uniformly new content across every shard and mirror), decision
//! convergence (nothing in doubt, no note outliving its mount), audit
//! prefix integrity, and remount idempotence — so these tests pass
//! only if the commit protocol is atomic at every power-loss point.

use s4_simdisk::TornPattern;
use s4_torture::txn::{
    txn_campaign, txn_golden, txn_lost_retire, txn_torture_point, TxnTortureConfig,
};

#[test]
fn bounded_txn_campaign_is_atomic_at_every_sampled_point() {
    let cfg = TxnTortureConfig::bounded();
    let summary = txn_campaign(&cfg);
    // One greppable line per campaign; verify.sh and CI tee these into
    // the txn-torture summary artifact.
    println!("TXN_TORTURE bounded {summary:?}");
    // Five log commits — the vote (which carries `Prepared` and is also
    // the batch's `Sync`) and `Resolved` on each participant, the
    // decision note on shard 0; none for the retire — in five transfers.
    // (A batch whose blocks reach the end of its segment is cut there
    // and commits in two; on the seeded image the note's commit was,
    // until format revision 3 made every commit a block shorter.)
    assert_eq!(summary.domain, 5, "the 2PC window moved: {summary:?}");
    assert!(summary.crash_points <= 24, "bounded cap violated: {summary:?}");
    assert_eq!(summary.replays, summary.crash_points * cfg.replays_per_point());
    // Crash points cover both sides of the commit point, so the
    // campaign must observe both recovered decisions.
    assert!(summary.aborted > 0, "no pre-commit-point crash: {summary:?}");
    assert!(summary.committed > 0, "no post-commit-point crash: {summary:?}");
}

#[test]
fn crash_on_first_and_last_window_request() {
    // The window edges: dying on the very first countable request of
    // the protocol must roll back cleanly; a fault armed past the
    // window never fires and the protocol simply completes.
    let cfg = TxnTortureConfig::bounded();
    let g = txn_golden(&cfg);
    let (start, end) = g.windows[0];
    let first = txn_torture_point(&cfg, 0, start, TornPattern::Prefix(0));
    assert!(first.died);
    assert!(!first.committed, "first-request crash must abort");
    let past = txn_torture_point(&cfg, 0, end + 100, TornPattern::Prefix(0));
    assert!(!past.died);
    assert!(past.committed, "undisturbed protocol must commit");
}

#[test]
fn a_lost_lazy_retire_leaves_a_note_that_mount_retires_again() {
    // Retiring the decision note pays no flush of its own, so power
    // lost right after a completed transaction leaves the note on every
    // shard-0 platter with nobody in doubt about it (the harness
    // asserts the rest: retired at mount, objects new, idempotent).
    for cfg in [TxnTortureConfig::bounded(), TxnTortureConfig::exhaustive()] {
        assert_eq!(txn_lost_retire(&cfg), cfg.mirrors);
    }
}

#[test]
fn torn_decision_note_recovers_uniformly() {
    // Walk the shard-0 device (where the decision note lives) across
    // its whole window with a sector-holed tear — the nastiest pattern
    // for the single commit-point write. Every recovery must still be
    // all-or-nothing (txn_torture_point panics otherwise).
    let cfg = TxnTortureConfig::bounded();
    let g = txn_golden(&cfg);
    let (start, end) = g.windows[0];
    let mut decisions = Vec::new();
    for k in start..end {
        let out = txn_torture_point(&cfg, 0, k, TornPattern::Holed { start: 1, len: 2 });
        decisions.push(out.committed);
    }
    // The decision must be monotone in the crash point on the
    // coordinator device: once a crash point recovers committed, every
    // later one does too (the note write is the single commit point).
    let first_commit = decisions.iter().position(|&c| c);
    if let Some(i) = first_commit {
        assert!(
            decisions[i..].iter().all(|&c| c),
            "decision not monotone across the coordinator window: {decisions:?}"
        );
    }
}

#[test]
#[ignore = "exhaustive: every crash point on every device; run explicitly"]
fn exhaustive_txn_campaign_two_shards() {
    let mut cfg = TxnTortureConfig::bounded();
    cfg.max_crash_points = None;
    cfg.patterns_per_point = Some(2);
    let summary = txn_campaign(&cfg);
    println!("TXN_TORTURE exhaustive-two-shard {summary:?}");
    assert_eq!(summary.crash_points as u64, summary.domain, "{summary:?}");
    assert!(summary.committed > 0 && summary.aborted > 0, "{summary:?}");
}

#[test]
#[ignore = "exhaustive: mirrored 3-shard array, every crash point; run explicitly"]
fn exhaustive_txn_campaign_mirrored() {
    let summary = txn_campaign(&TxnTortureConfig::exhaustive());
    println!("TXN_TORTURE exhaustive-mirrored {summary:?}");
    assert_eq!(summary.crash_points as u64, summary.domain, "{summary:?}");
    assert!(summary.committed > 0 && summary.aborted > 0, "{summary:?}");
}

//! Crash-consistency torture campaigns on the write path (see
//! `crates/torture`).
//!
//! The bounded campaign is the CI gate: a fixed seed, crash points
//! sampled down to ≤ 64, two torn-sector patterns per point (rotating
//! through prefix / interleaved / holed / summary-only tears so the whole
//! mix is exercised without growing the replay budget). The exhaustive
//! campaign (`--ignored`) replays *every* countable device request of a
//! 500-op workload.
//!
//! Every replay asserts the four recovery invariants — durability of
//! everything the last completed sync covered, audit-log prefix
//! integrity (trace contexts included), remount idempotence, and
//! post-recovery retention — so these tests pass
//! only if recovery is correct at every crash point visited.

use s4_simdisk::TornPattern;
use s4_torture::workload::{
    enumerate_recovery_crashes, golden_run, torture_crash_during_recovery, CleanerBetween,
    WritePath,
};
use s4_torture::{enumerate, replay, windows, Campaign};

/// Fixed CI seed; campaigns are pure functions of it.
const SEED: u64 = 0xB0A710AD;

/// The bounded CI campaign: ≤ 64 crash points, two patterns at each.
const BOUNDED: Campaign = Campaign::new(Some(2), Some(64));

/// The exhaustive campaign: every crash point, two patterns at each.
const EXHAUSTIVE: Campaign = Campaign::new(Some(2), None);

#[test]
fn bounded_crash_enumeration_holds_invariants() {
    let summary = enumerate(&WritePath::bounded(SEED), BOUNDED);
    assert!(
        summary.crash_points >= 16,
        "workload too small to be interesting: {summary:?}"
    );
    assert!(
        summary.crash_points <= 64,
        "bounded cap violated: {summary:?}"
    );
    assert_eq!(
        summary.replays,
        summary.crash_points * BOUNDED.replays_per_point()
    );
    // Every sampled crash point is inside the workload, so every replay
    // must actually lose power.
    assert_eq!(
        summary.died, summary.replays,
        "some faults never fired: {summary:?}"
    );
    // The mix includes tears that keep a commit's summary and lose its
    // data; the campaign must have exercised the checksum that catches
    // them.
    assert!(
        summary.tally.torn_batches > 0,
        "no torn commit seen: {summary:?}"
    );
}

#[test]
fn bounded_campaign_second_seed() {
    // A second seed guards against the first being accidentally benign.
    let summary = enumerate(&WritePath::bounded(0x5EED_0002), BOUNDED);
    assert_eq!(summary.died, summary.replays, "{summary:?}");
}

#[test]
fn golden_run_validates_oracle_and_audit_predictor() {
    let g = golden_run(&WritePath::bounded(SEED));
    assert!(g.versions > 0);
    assert!(g.audit_records > 0);
    // The harness's eight-entry object cache makes the workload evict,
    // several victims to a checkpoint block.
    let (checkpoints, blocks) = g.checkpoints;
    assert!(blocks > 0 && blocks < checkpoints, "{g:?}");
}

#[test]
fn power_cuts_around_a_batch_eviction_hold_invariants() {
    // The script's first sync evicts 18 objects at once and leaves their
    // checkpoints in the open log batch; its second sync is the flush
    // that carries them. Cutting every countable request under every
    // torn pattern covers both the power loss that finds the batch
    // unflushed (that flush's first request, nothing of it persisting)
    // and every tear of the flush itself — alone, and with a maintenance
    // pass between recovery and a second power-off.
    let cfg = WritePath::batch_eviction();
    let g = golden_run(&cfg);
    let (checkpoints, blocks) = g.checkpoints;
    assert!(
        checkpoints >= 18 && blocks * 6 <= checkpoints,
        "the script must write back in batches: {g:?}"
    );
    let plain = enumerate(&cfg, Campaign::EVERY);
    let cleaned = enumerate(&CleanerBetween(cfg), Campaign::EVERY);
    for summary in [plain, cleaned] {
        assert_eq!(summary.crash_points as u64, summary.domain, "{summary:?}");
        assert_eq!(
            summary.replays,
            summary.crash_points * Campaign::EVERY.replays_per_point()
        );
        assert_eq!(
            summary.died, summary.replays,
            "some faults never fired: {summary:?}"
        );
        assert!(summary.tally.versions_checked > 0, "{summary:?}");
    }
}

#[test]
fn crash_on_first_workload_request() {
    // The earliest possible workload crash: nothing synced yet, so
    // recovery must fall back to the format-time anchor.
    let cfg = WritePath::bounded(SEED);
    let (start, _) = windows(&cfg)[0];
    let outcome = replay(&cfg, 0, start, TornPattern::Prefix(0));
    assert!(outcome.died);
}

#[test]
fn cleaner_between_crash_and_remount_holds_invariants() {
    // A maintenance pass (cleaner + compaction + anchor) between the
    // crash and the final remount must neither eat windowed versions
    // nor break remount idempotence. Smaller sample than the plain
    // campaign: each point costs three recoveries plus two cleans.
    let c = Campaign::new(Some(1), Some(12));
    let summary = enumerate(&CleanerBetween(WritePath::bounded(SEED)), c);
    assert!(summary.crash_points >= 8, "{summary:?}");
    assert_eq!(
        summary.died, summary.replays,
        "some faults never fired: {summary:?}"
    );
    assert!(summary.tally.versions_checked > 0, "{summary:?}");
}

#[test]
fn crash_during_recovery_holds_invariants() {
    // Second power loss inside the recovery replay: sample three
    // first-crash points across the domain and a handful of
    // second-crash points inside each recovery.
    let summary = enumerate_recovery_crashes(&WritePath::bounded(SEED), 3, Some(6));
    assert_eq!(summary.first_points, 3, "{summary:?}");
    assert!(
        summary.recovery_requests > 0,
        "recovery issued no device requests: {summary:?}"
    );
    // Every sampled second crash lands inside the recovery's request
    // stream, so every one must abort the interrupted mount.
    assert!(summary.second_replays >= 3, "{summary:?}");
    assert_eq!(summary.second_died, summary.second_replays, "{summary:?}");
}

#[test]
fn recovery_crash_on_first_recovery_read() {
    // The nastiest double crash: the workload dies mid-stream, then the
    // very first device request of the recovery replay dies too.
    let cfg = WritePath::bounded(SEED);
    let (start, end) = windows(&cfg)[0];
    let mid = start + (end - start) / 2;
    let o = torture_crash_during_recovery(&cfg, mid, TornPattern::Prefix(0), Some(1));
    assert!(o.died, "first fault must fire");
    assert_eq!(o.recovery_writes, 0, "recovery must be read-only");
    assert!(
        o.second_died >= 1,
        "second fault must abort the mount: {o:?}"
    );
}

#[test]
#[ignore = "exhaustive: replays every crash point of a 500-op workload; run with --ignored"]
fn exhaustive_crash_enumeration_holds_invariants() {
    let cfg = WritePath::exhaustive(SEED);
    let summary = enumerate(&cfg, EXHAUSTIVE);
    assert_eq!(
        summary.crash_points as u64, summary.domain,
        "exhaustive mode must visit every countable request: {summary:?}"
    );
    assert_eq!(summary.died, summary.replays, "{summary:?}");
    // A 500-op workload crosses the anchor interval, so the domain must
    // include sync-class (anchor barrier) crash points.
    let g = golden_run(&cfg);
    assert!(
        g.sync_points > 0,
        "exhaustive workload never hit the anchor barrier: {g:?}"
    );
}

#[test]
#[ignore = "exhaustive: cleaner pass at every crash point of a 500-op workload; run with --ignored"]
fn exhaustive_cleaner_between_holds_invariants() {
    let summary = enumerate(&CleanerBetween(WritePath::exhaustive(SEED)), EXHAUSTIVE);
    assert_eq!(summary.died, summary.replays, "{summary:?}");
}

#[test]
#[ignore = "exhaustive: every second-crash point inside recovery at 16 first points; run with --ignored"]
fn exhaustive_crash_during_recovery_holds_invariants() {
    let summary = enumerate_recovery_crashes(&WritePath::exhaustive(SEED), 16, None);
    assert_eq!(summary.second_died, summary.second_replays, "{summary:?}");
}

//! Tests for the cleaner's differencing pass (§4.2.2): history blocks
//! re-encoded as cross-version deltas must stay byte-exact across reads,
//! expiry, administrative flushes, and remounts — while releasing space.

use s4_clock::{SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, ObjectId, RequestContext, S4Drive, UserId};
use s4_simdisk::MemDisk;

fn drive() -> S4Drive<MemDisk> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    S4Drive::format(
        MemDisk::with_capacity_bytes(96 << 20),
        DriveConfig::small_test(),
        clock,
    )
    .unwrap()
}

fn ctx() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

/// Writes `rounds` similar versions of one object (text-like, small
/// mutations) and returns the version timestamps.
fn churn(d: &S4Drive<MemDisk>, oid: ObjectId, rounds: usize) -> Vec<s4_clock::SimTime> {
    let ctx = ctx();
    let base = "fn handler(conn: &mut Conn) -> io::Result<()> { conn.flush() }\n".repeat(60);
    let mut times = Vec::new();
    for r in 0..rounds {
        let mut v = base.clone().into_bytes();
        let at = 64 * (r % 40);
        v[at..at + 8].copy_from_slice(format!("REV{:05}", r).as_bytes());
        d.op_write(&ctx, oid, 0, &v).unwrap();
        d.op_sync(&ctx).unwrap();
        times.push(d.now());
        d.clock().advance(SimDuration::from_millis(20));
    }
    times
}

#[test]
fn compaction_preserves_every_version() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    let times = churn(&d, oid, 12);

    // Snapshot every version's contents before compaction.
    let before: Vec<Vec<u8>> = times
        .iter()
        .map(|t| d.op_read(&ctx(), oid, 0, 1 << 16, Some(*t)).unwrap())
        .collect();

    let (encoded, released) = d.compact_history().unwrap();
    assert!(encoded > 5, "expected several encodings, got {encoded}");
    assert_eq!(encoded, released);

    // Every version still reads byte-exactly, including cross-block ones.
    for (i, t) in times.iter().enumerate() {
        let after = d.op_read(&ctx(), oid, 0, 1 << 16, Some(*t)).unwrap();
        assert_eq!(after, before[i], "version {i} corrupted by compaction");
    }
    // The current version too.
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 1 << 16, None).unwrap(),
        *before.last().unwrap()
    );
}

#[test]
fn compaction_releases_space() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    churn(&d, oid, 30);
    let before = d.utilization();
    let (encoded, _) = d.compact_history().unwrap();
    assert!(encoded >= 20);
    // Free the dead segments the released blocks left behind.
    d.free_dead_segments();
    d.force_anchor().unwrap();
    let after = d.utilization();
    assert!(
        after < before * 0.8,
        "utilization should drop: {before:.4} -> {after:.4}"
    );
}

#[test]
fn compaction_is_idempotent() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    let times = churn(&d, oid, 8);
    let (e1, _) = d.compact_history().unwrap();
    assert!(e1 > 0);
    let (e2, _) = d.compact_history().unwrap();
    assert_eq!(e2, 0, "second pass must find nothing new");
    for t in &times {
        assert!(d.op_read(&ctx(), oid, 0, 1 << 16, Some(*t)).is_ok());
    }
}

#[test]
fn compacted_history_survives_remount() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(96 << 20),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let oid = d.op_create(&ctx(), None).unwrap();
    let times = churn(&d, oid, 10);
    let before: Vec<Vec<u8>> = times
        .iter()
        .map(|t| d.op_read(&ctx(), oid, 0, 1 << 16, Some(*t)).unwrap())
        .collect();
    d.compact_history().unwrap();

    let dev = d.unmount().unwrap();
    let d2 = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
    for (i, t) in times.iter().enumerate() {
        let data = d2.op_read(&ctx(), oid, 0, 1 << 16, Some(*t)).unwrap();
        assert_eq!(data, before[i], "version {i} after remount");
    }
}

#[test]
fn expiry_reclaims_compacted_versions() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    let times = churn(&d, oid, 10);
    d.compact_history().unwrap();

    // Age everything past the (1 hour) window except the last version.
    d.clock().advance(SimDuration::from_secs(7200));
    d.op_truncate(&ctx(), oid, 0).unwrap();
    d.op_write(&ctx(), oid, 0, b"fresh current version")
        .unwrap();
    d.op_sync(&ctx()).unwrap();
    let released = d.expire_versions().unwrap();
    assert!(released > 0);

    // Old versions gone, current intact.
    assert!(d.op_read(&ctx(), oid, 0, 64, Some(times[0])).is_err());
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 64, None).unwrap(),
        b"fresh current version"
    );
}

#[test]
fn flusho_rebases_dependent_deltas() {
    // Expunge a middle version that another version's delta is based on:
    // the dependent must be re-materialized, not corrupted.
    let d = drive();
    let admin = RequestContext::admin(ClientId(0), 42);
    let oid = d.op_create(&ctx(), None).unwrap();
    let times = churn(&d, oid, 6);
    let v1 = d.op_read(&admin, oid, 0, 1 << 16, Some(times[1])).unwrap();
    d.compact_history().unwrap();

    // Flush version 2 (whose content is the base of version 1's delta).
    let from = times[2].saturating_sub(SimDuration::from_millis(5));
    d.op_flusho(&admin, oid, from, times[2]).unwrap();

    // Version 1 still reads exactly.
    let v1_after = d.op_read(&admin, oid, 0, 1 << 16, Some(times[1])).unwrap();
    assert_eq!(v1_after, v1);
    // Version 2 now resolves to version 1's content (it was expunged).
    let v2_after = d.op_read(&admin, oid, 0, 1 << 16, Some(times[2])).unwrap();
    assert_eq!(v2_after, v1);
}

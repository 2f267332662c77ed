//! Behavioral tests for the S4 drive: comprehensive versioning,
//! time-based access, the Recovery flag, auditing, expiry, cleaning,
//! administrative flushes, and crash recovery.

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{
    AclEntry, AuditObserver, AuditRecord, DriveConfig, ObjectId, Perm, Request, RequestContext,
    Response, S4Drive, S4Error, UserId,
};
use s4_simdisk::{BlockDev, DiskError, MemDisk};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

const ADMIN_TOKEN: u64 = 42;

fn drive() -> S4Drive<MemDisk> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap()
}

fn alice() -> RequestContext {
    RequestContext::user(UserId(10), s4_core::ClientId(1))
}

fn bob() -> RequestContext {
    RequestContext::user(UserId(20), s4_core::ClientId(2))
}

fn admin() -> RequestContext {
    RequestContext::admin(s4_core::ClientId(9), ADMIN_TOKEN)
}

fn tick(d: &S4Drive<MemDisk>) {
    d.clock().advance(SimDuration::from_millis(10));
}

#[test]
fn create_write_read_roundtrip() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"hello world").unwrap();
    d.op_sync(&ctx).unwrap();
    assert_eq!(d.op_read(&ctx, oid, 0, 1024, None).unwrap(), b"hello world");
    // Partial reads.
    assert_eq!(d.op_read(&ctx, oid, 6, 5, None).unwrap(), b"world");
    // Reads past EOF are empty.
    assert!(d.op_read(&ctx, oid, 100, 10, None).unwrap().is_empty());
}

#[test]
fn cross_block_write_and_overwrite() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    d.op_write(&ctx, oid, 0, &big).unwrap();
    assert_eq!(d.op_read(&ctx, oid, 0, 20_000, None).unwrap(), big);
    // Overwrite a span crossing block boundaries.
    d.op_write(&ctx, oid, 4000, &[0xEE; 300]).unwrap();
    let out = d.op_read(&ctx, oid, 0, 20_000, None).unwrap();
    assert_eq!(&out[..4000], &big[..4000]);
    assert!(out[4000..4300].iter().all(|&b| b == 0xEE));
    assert_eq!(&out[4300..], &big[4300..]);
}

#[test]
fn append_and_truncate() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    assert_eq!(d.op_append(&ctx, oid, b"aaaa").unwrap(), 4);
    assert_eq!(d.op_append(&ctx, oid, b"bbbb").unwrap(), 8);
    d.op_truncate(&ctx, oid, 6).unwrap();
    assert_eq!(d.op_read(&ctx, oid, 0, 100, None).unwrap(), b"aaaabb");
    let attrs = d.op_getattr(&ctx, oid, None).unwrap();
    assert_eq!(attrs.size, 6);
}

#[test]
fn every_modification_is_a_version() {
    // The §3.3 requirement: a separate version per modification, not per
    // close.
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    let mut times = Vec::new();
    for i in 0..5u8 {
        tick(&d);
        d.op_write(&ctx, oid, 0, &[b'0' + i; 4]).unwrap();
        times.push(d.now());
    }
    d.op_sync(&ctx).unwrap();
    for (i, t) in times.iter().enumerate() {
        let data = d.op_read(&ctx, oid, 0, 4, Some(*t)).unwrap();
        assert_eq!(data, vec![b'0' + i as u8; 4], "version {i}");
    }
}

#[test]
fn time_based_reads_see_old_sizes_and_attrs() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"version one is long").unwrap();
    d.op_setattr(&ctx, oid, vec![1]).unwrap();
    let t1 = d.now();
    tick(&d);
    d.op_truncate(&ctx, oid, 7).unwrap();
    d.op_setattr(&ctx, oid, vec![2]).unwrap();
    d.op_sync(&ctx).unwrap();

    let now_attrs = d.op_getattr(&ctx, oid, None).unwrap();
    assert_eq!(now_attrs.size, 7);
    assert_eq!(now_attrs.opaque, vec![2]);

    let old_attrs = d.op_getattr(&ctx, oid, Some(t1)).unwrap();
    assert_eq!(old_attrs.size, 19);
    assert_eq!(old_attrs.opaque, vec![1]);
    assert_eq!(
        d.op_read(&ctx, oid, 0, 100, Some(t1)).unwrap(),
        b"version one is long"
    );
}

#[test]
fn deleted_files_recoverable_within_window() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"exploit-tool-evidence").unwrap();
    let before_delete = d.now();
    tick(&d);
    d.op_delete(&ctx, oid).unwrap();
    d.op_sync(&ctx).unwrap();

    // Live read fails.
    assert_eq!(
        d.op_read(&ctx, oid, 0, 100, None).unwrap_err(),
        S4Error::NoSuchObject
    );
    // Time-based read recovers the contents.
    assert_eq!(
        d.op_read(&ctx, oid, 0, 100, Some(before_delete)).unwrap(),
        b"exploit-tool-evidence"
    );
}

#[test]
fn acl_enforcement_and_recovery_flag() {
    let d = drive();
    let oid = d.op_create(&alice(), None).unwrap();
    d.op_write(&alice(), oid, 0, b"v1").unwrap();
    let t1 = d.now();
    tick(&d);
    d.op_write(&alice(), oid, 0, b"v2").unwrap();
    d.op_sync(&alice()).unwrap();

    // Bob has no entry: everything denied.
    assert_eq!(
        d.op_read(&bob(), oid, 0, 10, None).unwrap_err(),
        S4Error::AccessDenied
    );
    // Grant Bob read WITHOUT recovery.
    d.op_set_acl(
        &alice(),
        oid,
        AclEntry {
            user: UserId(20),
            perm: Perm::READ,
        },
    )
    .unwrap();
    assert_eq!(d.op_read(&bob(), oid, 0, 10, None).unwrap(), b"v2");
    // Current version via time parameter is fine with plain READ...
    let now = d.now();
    assert_eq!(d.op_read(&bob(), oid, 0, 10, Some(now)).unwrap(), b"v2");
    // ...but the history pool needs the Recovery flag (§3.4).
    assert_eq!(
        d.op_read(&bob(), oid, 0, 10, Some(t1)).unwrap_err(),
        S4Error::AccessDenied
    );
    // The administrator can always read history.
    assert_eq!(d.op_read(&admin(), oid, 0, 10, Some(t1)).unwrap(), b"v1");
    // With the Recovery flag, Bob can too... but the flag must exist in
    // the ACL *of that version*; granting it now only covers versions
    // from now on.
    d.op_set_acl(
        &alice(),
        oid,
        AclEntry {
            user: UserId(20),
            perm: Perm::READ.union(Perm::RECOVERY),
        },
    )
    .unwrap();
    tick(&d);
    d.op_write(&alice(), oid, 0, b"v3").unwrap();
    let t3 = d.now();
    tick(&d);
    d.op_write(&alice(), oid, 0, b"v4").unwrap();
    assert_eq!(d.op_read(&bob(), oid, 0, 10, Some(t3)).unwrap(), b"v3");
    // The v1-era ACL still denies Bob.
    assert_eq!(
        d.op_read(&bob(), oid, 0, 10, Some(t1)).unwrap_err(),
        S4Error::AccessDenied
    );
}

#[test]
fn acl_history_is_versioned() {
    let d = drive();
    let oid = d.op_create(&alice(), None).unwrap();
    let t1 = d.now();
    tick(&d);
    d.op_set_acl(
        &alice(),
        oid,
        AclEntry {
            user: UserId(20),
            perm: Perm::READ,
        },
    )
    .unwrap();
    d.op_sync(&alice()).unwrap();
    // Current table has Bob; the t1 table does not.
    let now_entry = d
        .op_get_acl_by_user(&alice(), oid, UserId(20), None)
        .unwrap();
    assert!(now_entry.is_some());
    let old_entry = d
        .op_get_acl_by_user(&admin(), oid, UserId(20), Some(t1))
        .unwrap();
    assert!(old_entry.is_none());
    // Index-based lookups work too.
    let e0 = d
        .op_get_acl_by_index(&alice(), oid, 0, None)
        .unwrap()
        .unwrap();
    assert_eq!(e0.user, UserId(10));
}

#[test]
fn audit_log_records_all_requests_including_denied() {
    let d = drive();
    let oid = match d.dispatch(&alice(), &Request::Create).unwrap() {
        Response::Created(oid) => oid,
        other => panic!("{other:?}"),
    };
    d.dispatch(
        &alice(),
        &Request::Write {
            oid,
            offset: 0,
            data: b"x".to_vec(),
        },
    )
    .unwrap();
    // A denied request is still audited.
    let denied = d.dispatch(
        &bob(),
        &Request::Read {
            oid,
            offset: 0,
            len: 10,
            time: None,
        },
    );
    assert!(denied.is_err());
    let records = d.read_audit_records(&admin()).unwrap();
    assert!(records.len() >= 3);
    let denied_rec = records
        .iter()
        .find(|r| r.user == UserId(20))
        .expect("denied read audited");
    assert!(!denied_rec.ok);
    assert_eq!(denied_rec.object, oid);
    // Ordinary users cannot read the audit log.
    assert_eq!(
        d.read_audit_records(&alice()).unwrap_err(),
        S4Error::AccessDenied
    );
}

#[test]
fn partitions_are_versioned_named_objects() {
    let d = drive();
    let ctx = alice();
    let root1 = d.op_create(&ctx, None).unwrap();
    let root2 = d.op_create(&ctx, None).unwrap();
    d.op_pcreate(&ctx, "export", root1).unwrap();
    let t1 = d.now();
    tick(&d);
    d.op_pdelete(&ctx, "export").unwrap();
    d.op_pcreate(&ctx, "export", root2).unwrap();
    d.op_sync(&ctx).unwrap();

    assert_eq!(d.op_pmount(&ctx, "export", None).unwrap(), root2);
    // Time-based PMount sees the old association (Table 1).
    assert_eq!(d.op_pmount(&ctx, "export", Some(t1)).unwrap(), root1);
    assert_eq!(d.op_plist(&ctx, None).unwrap().len(), 1);
    // Duplicate names rejected.
    assert_eq!(
        d.op_pcreate(&ctx, "export", root1).unwrap_err(),
        S4Error::PartitionExists
    );
    assert_eq!(
        d.op_pdelete(&ctx, "nope").unwrap_err(),
        S4Error::NoSuchPartition
    );
}

#[test]
fn clean_remount_preserves_everything() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(5));
    let d = S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"v1").unwrap();
    let t1 = d.now();
    d.clock().advance(SimDuration::from_millis(10));
    d.op_write(&ctx, oid, 0, b"v2").unwrap();
    d.op_pcreate(&ctx, "root", oid).unwrap();
    let dev = d.unmount().unwrap();

    let clock2 = SimClock::new();
    let d2 = S4Drive::mount(dev, DriveConfig::small_test(), clock2).unwrap();
    assert_eq!(d2.op_read(&ctx, oid, 0, 10, None).unwrap(), b"v2");
    assert_eq!(d2.op_read(&ctx, oid, 0, 10, Some(t1)).unwrap(), b"v1");
    assert_eq!(d2.op_pmount(&ctx, "root", None).unwrap(), oid);
    // The clock resumed past the anchor time.
    assert!(d2.now() >= t1);
}

#[test]
fn crash_recovery_replays_synced_state() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(5));
    let d = S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"synced-data").unwrap();
    let t1 = d.now();
    d.clock().advance(SimDuration::from_millis(10));
    d.op_write(&ctx, oid, 0, b"synced-two!").unwrap();
    d.op_sync(&ctx).unwrap();
    // NOT synced: lost by the crash.
    d.op_write(&ctx, oid, 0, b"lost").unwrap();

    // Crash: power loss — all drive memory vanishes.
    let dev = d.crash();

    let d2 = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
    assert_eq!(d2.op_read(&ctx, oid, 0, 20, None).unwrap(), b"synced-two!");
    assert_eq!(
        d2.op_read(&ctx, oid, 0, 20, Some(t1)).unwrap(),
        b"synced-data"
    );
    // New writes after recovery work and version history continues.
    d2.clock().advance(SimDuration::from_secs(10));
    d2.op_write(&ctx, oid, 0, b"post-crash!").unwrap();
    d2.op_sync(&ctx).unwrap();
    assert_eq!(d2.op_read(&ctx, oid, 0, 20, None).unwrap(), b"post-crash!");
}

#[test]
fn expiry_reclaims_old_versions_but_keeps_current() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"ancient").unwrap();
    let t_v1 = d.now();
    tick(&d);
    // v1 is *deprecated* here; the window counts from deprecation (§3.3:
    // "a deprecated object remains in the history pool" for the window).
    d.op_write(&ctx, oid, 0, b"middle!").unwrap();
    let t_v2 = d.now();
    d.op_sync(&ctx).unwrap();

    // Move past the detection window (1 hour in the test config).
    d.clock().advance(SimDuration::from_secs(7200));
    d.op_write(&ctx, oid, 0, b"current").unwrap();
    d.op_sync(&ctx).unwrap();

    let released = d.expire_versions().unwrap();
    assert!(released > 0, "old version blocks should be released");

    // Current data intact.
    assert_eq!(d.op_read(&ctx, oid, 0, 10, None).unwrap(), b"current");
    // v1's validity ended at t_v2, over a window ago: reclaimed.
    assert!(matches!(
        d.op_read(&ctx, oid, 0, 10, Some(t_v1)),
        Err(S4Error::VersionUnavailable) | Err(S4Error::NoSuchObject)
    ));
    // v2 was deprecated only "now": still guaranteed recoverable.
    assert_eq!(d.op_read(&ctx, oid, 0, 10, Some(t_v2)).unwrap(), b"middle!");
}

#[test]
fn expired_deleted_objects_vanish_entirely() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"temp").unwrap();
    d.op_delete(&ctx, oid).unwrap();
    d.op_sync(&ctx).unwrap();
    d.clock().advance(SimDuration::from_secs(7200));
    d.expire_versions().unwrap();
    assert_eq!(
        d.op_read(&ctx, oid, 0, 10, None).unwrap_err(),
        S4Error::NoSuchObject
    );
    assert_eq!(
        d.op_getattr(&ctx, oid, Some(SimTime::from_secs(1)))
            .unwrap_err(),
        S4Error::NoSuchObject
    );
}

#[test]
fn cleaner_reclaims_space_and_preserves_data() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    // Churn: many overwrites fill segments with dead-after-window blocks.
    for round in 0..30u32 {
        let payload = vec![round as u8; 8192];
        d.op_write(&ctx, oid, 0, &payload).unwrap();
        d.op_sync(&ctx).unwrap();
    }
    d.clock().advance(SimDuration::from_secs(7200));
    // One fresh write so current data is newer than the window.
    d.op_write(&ctx, oid, 0, &[0xAB; 8192]).unwrap();
    d.op_sync(&ctx).unwrap();

    let free_before = d.free_segments();
    d.clean().unwrap();
    d.force_anchor().unwrap(); // promotes pending-free
    assert!(
        d.free_segments() > free_before,
        "cleaning should free segments ({} -> {})",
        free_before,
        d.free_segments()
    );
    let data = d.op_read(&ctx, oid, 0, 8192, None).unwrap();
    assert!(data.iter().all(|&b| b == 0xAB));
}

#[test]
fn flusho_removes_middle_versions_only() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"version-1").unwrap();
    let t1 = d.now();
    d.clock().advance(SimDuration::from_secs(10));
    let flush_from = d.now();
    d.op_write(&ctx, oid, 0, b"v2-secret").unwrap();
    let t2 = d.now();
    d.clock().advance(SimDuration::from_secs(10));
    let flush_to = d.now();
    d.clock().advance(SimDuration::from_secs(10));
    d.op_write(&ctx, oid, 0, b"version-3").unwrap();
    let t3 = d.now();
    d.op_sync(&ctx).unwrap();

    // Non-admin cannot flush.
    assert_eq!(
        d.op_flusho(&ctx, oid, flush_from, flush_to).unwrap_err(),
        S4Error::AccessDenied
    );
    d.op_flusho(&admin(), oid, flush_from, flush_to).unwrap();

    // v2 is gone; reading at t2 now yields v1 (the version that "was
    // current" once v2 is expunged).
    assert_eq!(
        d.op_read(&admin(), oid, 0, 20, Some(t2)).unwrap(),
        b"version-1"
    );
    assert_eq!(
        d.op_read(&admin(), oid, 0, 20, Some(t1)).unwrap(),
        b"version-1"
    );
    assert_eq!(
        d.op_read(&admin(), oid, 0, 20, Some(t3)).unwrap(),
        b"version-3"
    );
    assert_eq!(d.op_read(&ctx, oid, 0, 20, None).unwrap(), b"version-3");
}

#[test]
fn object_cache_eviction_round_trips_objects() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.object_cache_entries = 4;
    let d = S4Drive::format(MemDisk::new(400_000), config, clock).unwrap();
    let ctx = alice();
    let mut oids = Vec::new();
    for i in 0..20u32 {
        let oid = d.op_create(&ctx, None).unwrap();
        d.op_write(&ctx, oid, 0, format!("object-{i}").as_bytes())
            .unwrap();
        oids.push(oid);
        d.op_sync(&ctx).unwrap();
    }
    // All objects remain readable after eviction cycles.
    for (i, oid) in oids.iter().enumerate() {
        let data = d.op_read(&ctx, *oid, 0, 100, None).unwrap();
        assert_eq!(data, format!("object-{i}").as_bytes());
    }
    assert!(
        d.stats().snapshot().checkpoints > 0,
        "evictions checkpointed"
    );
}

/// An entry mount rebuilt from a checkpoint *plus* newer anchored journal
/// is ahead of that checkpoint: evicting it must write a fresh one, not
/// retire it to the stale one.
#[test]
fn a_synced_write_survives_mount_then_eviction() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.object_cache_entries = 2;
    let d = S4Drive::format(MemDisk::new(400_000), config, clock.clone()).unwrap();
    let ctx = alice();
    let a = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, a, 0, b"version one").unwrap();
    d.op_sync(&ctx).unwrap();
    // Three fillers push A out of the two-entry cache: it is
    // checkpointed as "version one".
    let fillers: Vec<ObjectId> = (0..3)
        .map(|_| {
            let oid = d.op_create(&ctx, None).unwrap();
            d.op_write(&ctx, oid, 0, b"filler").unwrap();
            d.op_sync(&ctx).unwrap();
            oid
        })
        .collect();
    d.op_write(&ctx, a, 0, b"VERSION TWO").unwrap();
    d.op_sync(&ctx).unwrap();
    let d = S4Drive::mount(d.unmount().unwrap(), config, clock).unwrap();
    for oid in &fillers {
        assert_eq!(d.op_read(&ctx, *oid, 0, 20, None).unwrap(), b"filler");
    }
    d.op_sync(&ctx).unwrap(); // evicts A again
    let read = d.op_read(&ctx, a, 0, 20, None).unwrap();
    assert_eq!(String::from_utf8_lossy(&read), "VERSION TWO");
}

/// Expiry may not retire journal the object's checkpoint does not cover
/// (`benchmark`'s `expire_mount_probe`, in tier-1): write, sync and let
/// the window pass four times, expire after the second and the fourth,
/// remount cleanly, read.
#[test]
fn four_versions_two_expiries_and_a_clean_remount_read_back_the_fourth() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(1);
    let d = S4Drive::format(MemDisk::new(400_000), config, clock.clone()).unwrap();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    for v in 1..=4u8 {
        d.op_write(&ctx, oid, 0, &[v; 4096]).unwrap();
        d.op_sync(&ctx).unwrap();
        clock.advance(SimDuration::from_secs(2));
        if v % 2 == 0 {
            d.expire_versions().unwrap();
        }
    }
    let d = S4Drive::mount(d.unmount().unwrap(), config, clock).unwrap();
    let data = d.op_read(&ctx, oid, 0, 4096, None).unwrap();
    assert_eq!((data[0], data.len()), (4, 4096), "version read back");
}

/// Creates `n` objects holding `object-<i>`, each synced as it is made.
fn small_objects(d: &S4Drive<MemDisk>, n: u32) -> Vec<ObjectId> {
    (0..n)
        .map(|i| {
            let oid = d.op_create(&alice(), None).unwrap();
            d.op_write(&alice(), oid, 0, format!("object-{i}").as_bytes())
                .unwrap();
            d.op_sync(&alice()).unwrap();
            oid
        })
        .collect()
}

/// Every object of [`small_objects`] reads back, and the ledger equals
/// its recount.
fn assert_small_objects(d: &S4Drive<MemDisk>, oids: &[ObjectId], suffix: &str) {
    for (i, oid) in oids.iter().enumerate() {
        let data = d.op_read(&alice(), *oid, 0, 100, None).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&data),
            format!("object-{i}{suffix}")
        );
    }
    assert_eq!(d.check_image(), Ok((vec![], vec![], 0)));
}

/// Eviction hands the shared checkpoint container its victims as one
/// batch: a 64-entry cache retires nine at a time (the 65th entry takes
/// it down to 64 - 64/8 = 56), and nine small checkpoints are one 4 KiB
/// block. One victim per turn was one block per victim.
#[test]
fn evicted_checkpoints_share_their_blocks() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.object_cache_entries = 64;
    let d = S4Drive::format(MemDisk::new(400_000), config, clock.clone()).unwrap();
    let oids = small_objects(&d, 128);
    let s = d.stats().snapshot();
    // Every victim was born dirty, so each eviction wrote a checkpoint.
    assert!(s.checkpoints >= 64, "{} evictions", s.checkpoints);
    assert!(
        s.checkpoint_blocks <= s.checkpoints.div_ceil(9),
        "{} checkpoints took {} blocks",
        s.checkpoints,
        s.checkpoint_blocks
    );
    assert_small_objects(&d, &oids, "");
    let d = S4Drive::mount(d.unmount().unwrap(), config, clock).unwrap();
    assert_small_objects(&d, &oids, "");
}

/// An expiry pass over a fully cached drive checkpoints every object
/// whose only description is the journal about to go — all of them in
/// one batch, so 64 small checkpoints share a few blocks instead of
/// taking one each.
#[test]
fn one_expiry_pass_checkpoints_its_objects_together() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(1);
    let d = S4Drive::format(MemDisk::new(400_000), config, clock.clone()).unwrap();
    let oids = small_objects(&d, 64);
    for oid in &oids {
        d.op_append(&alice(), *oid, b"+v2").unwrap();
        d.op_sync(&alice()).unwrap();
    }
    clock.advance(SimDuration::from_secs(2));
    let before = d.stats().snapshot();
    assert!(d.expire_versions().unwrap() > 0);
    let pass = d.stats().snapshot().delta(&before);
    assert!(pass.checkpoints >= 64, "{} checkpoints", pass.checkpoints);
    assert!(
        pass.checkpoint_blocks * 8 <= pass.checkpoints,
        "{} checkpoints took {} blocks",
        pass.checkpoints,
        pass.checkpoint_blocks
    );
    assert_small_objects(&d, &oids, "+v2");
    let d = S4Drive::mount(d.unmount().unwrap(), config, clock).unwrap();
    assert_small_objects(&d, &oids, "+v2");
}

#[test]
fn set_window_is_admin_only_and_effective() {
    let d = drive();
    assert_eq!(
        d.op_set_window(&alice(), SimDuration::from_secs(60))
            .unwrap_err(),
        S4Error::AccessDenied
    );
    d.op_set_window(&admin(), SimDuration::from_secs(60))
        .unwrap();
    assert_eq!(d.detection_window(), SimDuration::from_secs(60));

    // With a 60s window, a version deprecated two minutes ago expires.
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"old").unwrap();
    let t = d.now();
    d.op_sync(&ctx).unwrap();
    d.clock().advance(SimDuration::from_secs(120));
    d.op_write(&ctx, oid, 0, b"new").unwrap();
    d.op_sync(&ctx).unwrap();
    // Deprecation happened just now; wait out the window before expiry.
    d.clock().advance(SimDuration::from_secs(120));
    d.expire_versions().unwrap();
    assert!(d.op_read(&admin(), oid, 0, 10, Some(t)).is_err());
}

#[test]
fn reserved_objects_are_protected() {
    let d = drive();
    let ctx = alice();
    for oid in [s4_core::AUDIT_OBJECT, s4_core::PARTITION_OBJECT] {
        assert_eq!(
            d.op_write(&ctx, oid, 0, b"tamper").unwrap_err(),
            S4Error::AccessDenied
        );
        assert_eq!(d.op_delete(&ctx, oid).unwrap_err(), S4Error::AccessDenied);
    }
    // Even the admin cannot write the audit object through the front
    // door: "cannot be modified except by the drive itself".
    assert_eq!(
        d.op_write(&admin(), s4_core::AUDIT_OBJECT, 0, b"x")
            .unwrap_err(),
        S4Error::AccessDenied
    );
}

#[test]
fn version_counter_tracks_mutations() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    let before = d.stats().snapshot().versions_created;
    d.op_write(&ctx, oid, 0, b"a").unwrap();
    d.op_setattr(&ctx, oid, vec![1]).unwrap();
    d.op_truncate(&ctx, oid, 0).unwrap();
    let after = d.stats().snapshot().versions_created;
    assert_eq!(after - before, 3);
}

/// Raises one alert per audited request.
struct AlertPerRecord;

impl AuditObserver for AlertPerRecord {
    fn on_record(&mut self, rec: &AuditRecord) -> Vec<Vec<u8>> {
        let mut blob = vec![2]; // severity, then the time retention reads
        blob.extend_from_slice(&rec.time.as_micros().to_le_bytes());
        blob.resize(200, 0xAB);
        vec![blob]
    }
}

fn audited_writes(d: &S4Drive<MemDisk>, oid: ObjectId, n: u64) {
    for i in 0..n {
        tick(d);
        let data = i.to_le_bytes().to_vec();
        let req = Request::Write { oid, offset: 0, data };
        d.dispatch(&alice(), &req).unwrap();
    }
}

#[test]
fn replay_counts_post_anchor_records_on_every_reserved_stream() {
    let d = drive();
    d.register_audit_observer(Box::new(AlertPerRecord));
    let oid = d.op_create(&alice(), None).unwrap();
    audited_writes(&d, oid, 10);
    d.force_anchor().unwrap();
    audited_writes(&d, oid, 100);
    d.op_sync(&alice()).unwrap();

    // Power loss: each stream keeps its anchored blocks plus the blocks
    // spilled (and flushed) since; the buffered tails are gone. The
    // totals must describe exactly what survived.
    let totals = |d: &S4Drive<MemDisk>| {
        let image = d.resync_image(&admin()).unwrap();
        let audit = d.read_audit_records(&admin()).unwrap().len() as u64;
        assert_eq!(d.audit_total_records(&admin()).unwrap(), audit);
        assert_eq!(image.audit.total, audit);
        let alerts = d.read_alerts(&admin()).unwrap().len() as u64;
        assert_eq!(image.alerts.total, alerts);
        let traces = d.read_traces(&admin()).unwrap().len() as u64;
        assert_eq!(image.traces.total, traces);
        (audit, alerts, traces)
    };
    let d2 = S4Drive::mount(d.crash(), DriveConfig::small_test(), SimClock::new()).unwrap();
    let recovered = totals(&d2);
    assert_eq!(recovered.0, 10 + 85, "one full post-anchor audit block");
    assert!(recovered.1 > 10 && recovered.2 > 10, "post-anchor blocks replayed");

    // Replay is idempotent: a second crash before any new anchor
    // recovers the same state.
    let digest = d2.state_digest();
    let d3 = S4Drive::mount(d2.crash(), DriveConfig::small_test(), SimClock::new()).unwrap();
    assert_eq!(d3.state_digest(), digest);
    assert_eq!(totals(&d3), recovered);
}

#[test]
fn audit_cursor_resumes_exactly_across_an_anchor_spilled_block() {
    let d = drive();
    let oid = d.op_create(&alice(), None).unwrap();
    // The anchor spills a 10-record *partial* block, so later blocks do
    // not start on multiples of the per-block record count.
    audited_writes(&d, oid, 10);
    d.force_anchor().unwrap();
    audited_writes(&d, oid, 90);
    let mut cursor = d.audit_cursor(&admin()).unwrap();
    audited_writes(&d, oid, 10);

    let all = d.read_audit_records(&admin()).unwrap();
    assert_eq!(all.len(), 110);
    let fresh = d.read_audit_from(&admin(), &mut cursor).unwrap();
    assert_eq!(fresh, all[100..]);
    // Nothing new: nothing returned; then only the next record.
    assert!(d.read_audit_from(&admin(), &mut cursor).unwrap().is_empty());
    audited_writes(&d, oid, 1);
    assert_eq!(d.read_audit_from(&admin(), &mut cursor).unwrap().len(), 1);
    assert_eq!(cursor, d.audit_cursor(&admin()).unwrap());
    assert!(d.audit_cursor(&alice()).is_err(), "admin only");
}

// ---------------------------------------------------------------------
// A failed expiry or flush must not delete the object.
// ---------------------------------------------------------------------

/// A device with a read budget: every read spends one, and once the
/// budget is gone reads fail (a transient medium error) until the test
/// restores it. Writes always succeed.
struct FlakyReads {
    disk: MemDisk,
    reads_left: Arc<AtomicI64>,
}

const HEALTHY: i64 = i64::MAX / 2;

impl BlockDev for FlakyReads {
    fn num_sectors(&self) -> u64 {
        self.disk.num_sectors()
    }
    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        if self.reads_left.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(DiskError::Io("injected read error".into()));
        }
        self.disk.read(sector, buf)
    }
    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        self.disk.write(sector, buf)
    }
}

/// A drive on a [`FlakyReads`] device with a two-block buffer cache (so
/// history reads reach the device) and a ten-second window.
fn flaky_drive() -> (S4Drive<FlakyReads>, DriveConfig, Arc<AtomicI64>) {
    let mut cfg = DriveConfig::small_test();
    cfg.log.cache_blocks = 2;
    cfg.detection_window = SimDuration::from_secs(10);
    let reads_left = Arc::new(AtomicI64::new(HEALTHY));
    let disk = FlakyReads {
        disk: MemDisk::new(400_000),
        reads_left: reads_left.clone(),
    };
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    (S4Drive::format(disk, cfg, clock).unwrap(), cfg, reads_left)
}

#[test]
fn failed_expiry_keeps_the_object() {
    let (d, cfg, reads_left) = flaky_drive();
    let ctx = alice();
    let a = d.op_create(&ctx, None).unwrap();
    let b = d.op_create(&ctx, None).unwrap();
    for i in 0..8u8 {
        d.clock().advance(SimDuration::from_millis(10));
        d.op_write(&ctx, a, 0, &[b'a' + i; 100]).unwrap();
        d.op_write(&ctx, b, 0, &[b'A' + i; 100]).unwrap();
        d.op_sync(&ctx).unwrap();
    }
    let ids = d.live_object_ids(&admin()).unwrap();
    d.clock().advance(SimDuration::from_secs(3600));

    reads_left.store(0, Ordering::SeqCst);
    assert!(d.expire_versions().is_err(), "expiry must hit the read error");
    reads_left.store(HEALTHY, Ordering::SeqCst);

    let intact = |d: &S4Drive<FlakyReads>| {
        assert_eq!(d.live_object_ids(&admin()).unwrap(), ids);
        assert_eq!(d.op_read(&ctx, a, 0, 100, None).unwrap(), [b'a' + 7; 100]);
        assert_eq!(d.op_read(&ctx, b, 0, 100, None).unwrap(), [b'A' + 7; 100]);
    };
    intact(&d);
    let clock = d.clock().clone();
    let d = S4Drive::mount(d.unmount().unwrap(), cfg, clock).unwrap();
    intact(&d);
}

#[test]
fn failed_flush_keeps_the_object() {
    let (d, cfg, reads_left) = flaky_drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    // Six one-block versions. The third is noise, so neither it nor its
    // predecessor delta-encodes (a delta's source is the *next* version);
    // the first does, against the second. Flushing the second therefore
    // has to re-materialize the first before its source disappears —
    // device reads in the middle of `flush_object_range`'s release step.
    let text = |rev: u8| {
        let mut v = "fn handler(conn: &mut Conn) -> io::Result<()> { conn.flush() }\n"
            .repeat(40)
            .into_bytes();
        v[64 * rev as usize] = b'0' + rev;
        v
    };
    let mut noise = 0x9E37_79B9_7F4A_7C15u64;
    let random: Vec<u8> = (0..text(1).len())
        .map(|_| {
            noise = noise.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (noise >> 56) as u8
        })
        .collect();
    let versions = [text(1), text(2), random, text(4), text(5), text(6)];
    let mut times = Vec::new();
    for v in &versions {
        d.clock().advance(SimDuration::from_millis(10));
        d.op_write(&ctx, oid, 0, v).unwrap();
        d.op_sync(&ctx).unwrap();
        times.push(d.now());
    }
    let (encoded, _) = d.compact_history().unwrap();
    assert!(encoded >= 2, "text versions must delta-encode, got {encoded}");
    let ids = d.live_object_ids(&admin()).unwrap();

    // Fail the k-th device read of the flush, for every k until it gets
    // through: whichever step the error lands in, the object survives.
    let mut failures = 0;
    loop {
        reads_left.store(failures, Ordering::SeqCst);
        let r = d.op_flusho(&admin(), oid, times[1], times[1]);
        reads_left.store(HEALTHY, Ordering::SeqCst);
        assert_eq!(d.live_object_ids(&admin()).unwrap(), ids);
        let current = d.op_read(&ctx, oid, 0, 4096, None).unwrap();
        assert!(current == versions[5], "current version damaged after {failures} reads");
        if r.is_ok() {
            break;
        }
        failures += 1;
        assert!(failures < 64, "flush never completed");
    }
    assert!(failures >= 3, "the sweep must reach past the sector reads");
    let intact = |d: &S4Drive<FlakyReads>| {
        assert_eq!(d.live_object_ids(&admin()).unwrap(), ids);
        for (i, v) in [(0, 0), (1, 0), (2, 2), (5, 5)] {
            let got = d.op_read(&ctx, oid, 0, 4096, Some(times[i])).unwrap();
            assert!(got == versions[v], "version {v} damaged by the flush");
        }
    };
    intact(&d);
    let clock = d.clock().clone();
    let d = S4Drive::mount(d.unmount().unwrap(), cfg, clock).unwrap();
    intact(&d);
}

/// A 4 MiB log under a cleaner that always wants more free segments, a
/// one-second window and an anchor every third round: the addresses the
/// cleaner moves blocks away from come back into use within a few dozen
/// rounds.
fn reusing_drive(clock: &SimClock) -> S4Drive<MemDisk> {
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(1);
    config.cleaner.min_free_target = 10_000;
    config.cleaner.max_segments_per_pass = 64;
    S4Drive::format(MemDisk::with_capacity_bytes(4 << 20), config, clock.clone()).unwrap()
}

/// One long-lived object, rewritten every fifth round, beside two fillers
/// rewritten every round. With a forwarding table, relocation left a
/// forward `old → new` in the object and nothing dropped it when the log
/// reused `old`: the object's next version landed there, and its current
/// read followed the forward to the relocated copy. Under `cargo test -q`
/// that read came back wrong at round 36, after 12 relocations — round
/// 26's bytes where round 36's were written.
#[test]
fn reads_after_relocation_and_address_reuse_are_the_versions_written() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = reusing_drive(&clock);
    let ctx = alice();
    let keep = d.op_create(&ctx, None).unwrap();
    let fillers = [(); 2].map(|_| d.op_create(&ctx, None).unwrap());
    let filled = |got: &[u8], byte: u8| got.len() == 4096 && got.iter().all(|&b| b == byte);
    let (mut relocated, mut versions) = (0, Vec::new());
    for round in 1..=60u32 {
        if round % 5 == 1 {
            d.op_write(&ctx, keep, 0, &[round as u8; 4096]).unwrap();
            versions.push((d.now(), round as u8));
        }
        for (i, f) in fillers.iter().enumerate() {
            d.op_write(&ctx, *f, 0, &[0xF0 + i as u8; 4096]).unwrap();
        }
        d.op_sync(&ctx).unwrap();
        clock.advance(SimDuration::from_millis(400));
        if round % 3 == 0 {
            relocated += d.clean().unwrap().blocks_relocated;
            d.force_anchor().unwrap();
        }
        let read = |oid, at| d.op_read(&admin(), oid, 0, 4096, at);
        let (_, current) = versions[versions.len() - 1];
        let got = read(keep, None).unwrap();
        assert!(
            filled(&got, current),
            "round {round}, after {relocated} relocations: read {}, wrote {current}",
            got[0]
        );
        for (i, f) in fillers.iter().enumerate() {
            assert!(
                filled(&read(*f, None).unwrap(), 0xF0 + i as u8),
                "round {round}"
            );
        }
        // The previous version reads back exactly, or has aged out.
        if let Some(&(t, byte)) = versions.iter().rev().nth(1) {
            match read(keep, Some(t)) {
                Ok(got) => assert!(
                    filled(&got, byte),
                    "round {round}: read {} at {t:?}",
                    got[0]
                ),
                Err(e) => assert_eq!(e, S4Error::VersionUnavailable, "round {round}"),
            }
        }
    }
    assert!(relocated > 12, "the churn relocates: {relocated}");
    assert_eq!(d.check_image(), Ok((vec![], vec![], 0)));
}

/// Checkpoints move by copy, like every other block. A four-entry cache
/// beside churned fillers keeps shared checkpoint containers in the
/// cleaner's victims, while it moves the blocks of an object with twelve
/// landmarks over and over; every landmark reads back each round, and
/// after a remount.
#[test]
fn relocated_checkpoints_and_landmarks_read_back_after_reuse_and_remount() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(1);
    config.cleaner.min_free_target = 10_000;
    config.cleaner.max_segments_per_pass = 4;
    config.object_cache_entries = 4;
    let d = S4Drive::format(MemDisk::with_capacity_bytes(4 << 20), config, clock.clone()).unwrap();
    let ctx = alice();
    let big = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, big, 0, &[7; 20 * 4096]).unwrap();
    let mut marks = Vec::new();
    for v in 0..12u8 {
        d.op_write(&ctx, big, 0, &[v; 16]).unwrap();
        d.op_mark_landmark(&ctx, big, d.now()).unwrap();
        marks.push((d.now(), v));
        clock.advance(SimDuration::from_millis(10));
    }
    let fillers = [(); 3].map(|_| d.op_create(&ctx, None).unwrap());
    let intact = |d: &S4Drive<MemDisk>, what: &str| {
        for &(t, v) in &marks {
            let got = d.op_read(&ctx, big, 0, 20 * 4096, Some(t)).unwrap();
            assert!(
                got[..16] == [v; 16] && got[16..] == [7; 20 * 4096 - 16][..],
                "{what}"
            );
        }
    };
    let mut relocated = 0;
    for round in 1..=45u32 {
        for f in &fillers {
            d.op_write(&ctx, *f, 0, &[round as u8; 4096]).unwrap();
        }
        d.op_sync(&ctx).unwrap();
        clock.advance(SimDuration::from_millis(400));
        if round % 3 == 0 {
            relocated += d.clean().unwrap().blocks_relocated;
            d.force_anchor().unwrap();
        }
        intact(&d, &format!("round {round}, after {relocated} relocations"));
    }
    assert!(relocated > 100, "the churn relocates: {relocated}");
    assert_eq!(d.check_image(), Ok((vec![], vec![], 0)));
    let d = S4Drive::mount(d.crash(), config, clock).unwrap();
    intact(&d, "after remount");
    assert_eq!(d.check_image(), Ok((vec![], vec![], 0)));
}

/// A version older than every retained journal entry but newer than the
/// history floor is the state after the retired entries, so its time is
/// the floor's: the stamp of the newest retired entry, here the first
/// write's, not the object's creation (which the walk fell back to, and
/// reported 1.000000 s for both reads below).
#[test]
fn a_version_between_the_floor_and_the_oldest_retained_entry_keeps_its_time() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(5);
    let d = S4Drive::format(MemDisk::new(400_000), config, clock.clone()).unwrap();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    assert_eq!(d.now(), SimTime::from_micros(1_000_000));
    tick(&d);
    d.op_write(&ctx, oid, 0, b"version one").unwrap();
    let v1 = d.now();
    assert_eq!(v1, SimTime::from_micros(1_010_000));
    d.op_sync(&ctx).unwrap();
    clock.advance(SimDuration::from_secs(10));
    d.op_write(&ctx, oid, 0, b"version two").unwrap();
    d.op_sync(&ctx).unwrap();
    clock.advance(SimDuration::from_secs(1));
    assert_eq!(d.expire_versions().unwrap(), 2);

    let t = SimTime::from_micros(9_010_000);
    assert_eq!(
        d.op_read(&ctx, oid, 0, 64, Some(t)).unwrap(),
        b"version one"
    );
    assert_eq!(d.op_getattr(&ctx, oid, Some(t)).unwrap().modified, v1);
    assert_eq!(d.op_getattr(&ctx, oid, Some(v1)).unwrap().modified, v1);
}

/// A write of more blocks than one journal sector can name is still one
/// acknowledged, durable write, and so is the truncate that frees them:
/// a `Sync` that returns `Ok` means durable.
///
/// The parent journaled a write as one entry, however many blocks it
/// changed. A 1 MiB write (256 blocks) made a 6 219-byte container that
/// no block holds: the write answered `Ok`, the `Sync` failed with
/// `Storage(Oversize(6219))` after dropping the entry it could not
/// pack, a second `Sync` answered `Ok`, and the live drive read the
/// 1 MiB back while the object read "before" after a crash. (A build
/// with debug assertions stopped at `SectorPayload::finish` instead.)
#[test]
fn a_write_larger_than_a_journal_sector_is_durable_once_synced() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    d.op_write(&ctx, oid, 0, b"before").unwrap();
    d.op_sync(&ctx).unwrap();
    let before = d.now();
    tick(&d);

    let big: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    let written = d.now();
    d.op_write(&ctx, oid, 0, &big).unwrap();
    d.op_sync(&ctx).unwrap();
    assert_eq!(d.op_read(&ctx, oid, 0, 2 << 20, None).unwrap(), big);

    let d = S4Drive::mount(d.crash(), DriveConfig::small_test(), SimClock::new()).unwrap();
    assert_eq!(d.op_read(&ctx, oid, 0, 2 << 20, None).unwrap(), big);
    // One write, one instant: the old bytes at the old time, all of the
    // new ones at the write's.
    assert_eq!(d.op_read(&ctx, oid, 0, 64, Some(before)).unwrap(), b"before");
    assert_eq!(d.op_read(&ctx, oid, 0, 2 << 20, Some(written)).unwrap(), big);

    // Truncating the 1 MiB to its first 6 bytes frees 255 pointers.
    d.clock().advance(SimDuration::from_secs(1));
    d.op_truncate(&ctx, oid, 6).unwrap();
    d.op_sync(&ctx).unwrap();
    let d = S4Drive::mount(d.crash(), DriveConfig::small_test(), SimClock::new()).unwrap();
    assert_eq!(d.op_getattr(&ctx, oid, None).unwrap().size, 6);
    assert_eq!(d.op_read(&ctx, oid, 0, 2 << 20, None).unwrap(), big[..6]);
    assert_eq!(d.op_read(&ctx, oid, 0, 2 << 20, Some(written)).unwrap(), big);
}

/// An attribute or ACL change is one journal entry holding the old value
/// and the new, and an entry must fit one journal sector
/// (`s4_journal::MAX_SECTOR_BYTES`). A change that would not is refused
/// before it changes anything — alone or as a batch's sub-request — and
/// what was there before survives a crash.
///
/// The parent took the second 2 100-byte `SetAttr` (a 4 263-byte
/// sector): both answered `Ok`, the `Sync` failed with
/// `Storage(Oversize(4263))` after dropping the entry it could not pack,
/// a second `Sync` answered `Ok`, and the live drive read the second
/// value while a crash brought back the first. (A build with debug
/// assertions stopped at `SectorPayload::finish` instead.)
#[test]
fn a_metadata_change_too_big_for_a_journal_sector_is_refused() {
    let d = drive();
    let ctx = alice();
    let oid = d.op_create(&ctx, None).unwrap();
    let first = vec![1u8; 2100];
    d.op_setattr(&ctx, oid, first.clone()).unwrap();
    // 2 100 old bytes and 2 100 new: 4 225 bytes of entry.
    assert!(matches!(
        d.op_setattr(&ctx, oid, vec![2u8; 2100]),
        Err(S4Error::BadRequest(_))
    ));
    let batch = Request::Batch(vec![
        Request::SetAttr {
            oid,
            attrs: vec![3u8; 2100],
        },
        Request::Sync,
    ]);
    match d.dispatch(&ctx, &batch) {
        Err(S4Error::BatchFailed {
            completed: 0,
            error,
            ..
        }) => assert!(matches!(*error, S4Error::BadRequest(_)), "{error:?}"),
        other => panic!("the batch ran: {other:?}"),
    }
    assert_eq!(d.op_getattr(&ctx, oid, None).unwrap().opaque, first);

    // An ACL grows five bytes an entry; the change that would take its
    // old and new tables past a sector is refused the same way.
    let mut granted = 0u32;
    let refused = loop {
        let entry = AclEntry {
            user: UserId(1000 + granted),
            perm: Perm::READ,
        };
        match d.op_set_acl(&ctx, oid, entry) {
            Ok(()) => granted += 1,
            Err(e) => break e,
        }
        assert!(granted < 1000, "no ACL change was refused");
    };
    assert!(matches!(refused, S4Error::BadRequest(_)), "{refused:?}");
    d.op_sync(&ctx).unwrap();

    let d = S4Drive::mount(d.crash(), DriveConfig::small_test(), SimClock::new()).unwrap();
    assert_eq!(d.op_getattr(&ctx, oid, None).unwrap().opaque, first);
    let last = d.op_get_acl_by_user(&ctx, oid, UserId(1000 + granted - 1), None);
    assert_eq!(last.unwrap().map(|e| e.perm), Some(Perm::READ));
    assert_eq!(d.op_get_acl_by_user(&ctx, oid, UserId(1000 + granted), None).unwrap(), None);
}

/// A `Sync` whose pack fails part-way leaves every entry it did not write
/// pending, so the next `Sync` that answers `Ok` has written each of them
/// once.
///
/// Sixty objects each take a 3 000-byte `SetAttr`, one journal block
/// each, and one `Sync` packs them: the log writes a batch at every
/// segment end while the pack runs, then the final flush. The parent
/// dropped every object's entries before packing them, so when the
/// pack's first device write failed, that `Sync` returned
/// `Err(Storage(Disk(Io)))`, the next `Sync` answered `Ok`, the live
/// drive read all 60 new blobs, and after a crash 54 of 60 read the old
/// one (38, 22 and 6 with the second, third or fourth write failed; none
/// with the final flush failed, since the log keeps its open batch).
#[test]
fn a_sync_after_a_failed_pack_has_written_every_entry() {
    use s4_simdisk::{FaultPlan, FaultyDisk, RequestClassMask};
    let ctx = alice();
    // Sixty objects with a synced "old" blob and an unsynced new one;
    // returns the drive before the `Sync` and the writes it has seen.
    let stage = |plan: FaultPlan| {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let dev = FaultyDisk::new(MemDisk::new(400_000), plan);
        let d = S4Drive::format(dev, DriveConfig::small_test(), clock).unwrap();
        let oids: Vec<ObjectId> = (0..60).map(|_| d.op_create(&ctx, None).unwrap()).collect();
        for &oid in &oids {
            d.op_setattr(&ctx, oid, b"old".to_vec()).unwrap();
        }
        d.op_sync(&ctx).unwrap();
        d.clock().advance(SimDuration::from_millis(10));
        for &oid in &oids {
            d.op_setattr(&ctx, oid, vec![7u8; 3000]).unwrap();
        }
        let seen = d.log().device().requests_seen();
        (d, oids, seen)
    };
    let (_, _, before_sync) = stage(FaultPlan::none());
    for failed in 0..5 {
        let plan =
            FaultPlan::intermittent_io(before_sync + failed, u64::MAX, RequestClassMask::WRITES);
        let (d, oids, _) = stage(plan);
        assert!(
            d.op_sync(&ctx).is_err(),
            "write {failed} of the sync failed"
        );
        d.op_sync(&ctx).unwrap();
        let d = S4Drive::mount(d.crash(), DriveConfig::small_test(), SimClock::new()).unwrap();
        let lost = oids
            .iter()
            .filter(|&&oid| d.op_getattr(&ctx, oid, None).unwrap().opaque != vec![7u8; 3000])
            .count();
        for &oid in &oids {
            let history = d.version_history(&admin(), oid).unwrap();
            let stamps: Vec<_> = history.iter().map(|v| v.stamp).collect();
            assert!(
                stamps.windows(2).all(|w| w[0] < w[1]),
                "{oid:?} repeats an entry"
            );
        }
        assert_eq!(
            lost, 0,
            "write {failed} of the sync failed: {lost} of 60 lost"
        );
    }
}

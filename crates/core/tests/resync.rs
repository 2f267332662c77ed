//! Mirror-resync round trip (DESIGN §6g): exporting a drive's logical
//! state with `resync_image` and replaying it with `format_from_image`
//! must reproduce every live object and all three reserved streams on
//! the replacement device.

use s4_clock::{SimClock, SimDuration};
use s4_core::{
    AclEntry, AclTable, AlertRule, ClientId, DriveConfig, ObjectId, Perm, RequestContext, S4Drive,
    S4Error, UserId,
};
use s4_simdisk::MemDisk;

fn admin() -> RequestContext {
    RequestContext::admin(ClientId(0), 42)
}

/// Builds a drive with a representative mix of state: plain objects,
/// attributes, custom ACLs, a sparse object, an empty-but-touched
/// object, a deleted object, and a system alert.
fn populated_drive(clock: &SimClock) -> S4Drive<MemDisk> {
    let drive = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let alice = RequestContext::user(UserId(1), ClientId(1));

    let a = drive.op_create(&alice, None).unwrap();
    drive.op_write(&alice, a, 0, b"first version").unwrap();
    clock.advance(SimDuration::from_secs(3));
    drive.op_write(&alice, a, 6, b"overwrite").unwrap();
    drive.op_setattr(&alice, a, vec![7, 7, 7]).unwrap();

    // Custom ACL (recovery flag on a second user).
    let mut table = AclTable::owner_default(UserId(1));
    table.set(AclEntry {
        user: UserId(2),
        perm: Perm::READ.union(Perm::RECOVERY),
    });
    let b = drive.op_create(&alice, Some(table)).unwrap();
    drive.op_write(&alice, b, 10_000, b"sparse tail").unwrap();

    // Created and truncated back to empty at a later time.
    let c = drive.op_create(&alice, None).unwrap();
    clock.advance(SimDuration::from_secs(2));
    drive.op_truncate(&alice, c, 0).unwrap();

    // Deleted objects are not carried over.
    let d = drive.op_create(&alice, None).unwrap();
    drive.op_write(&alice, d, 0, b"doomed").unwrap();
    drive.op_delete(&alice, d).unwrap();

    // Member 1 of shard 0 died of a storage error.
    let storage = S4Error::Storage(s4_lfs::LfsError::Corrupt("test")).kind();
    drive.system_alert(
        AlertRule::ArrayDegraded,
        false,
        ObjectId(0),
        1,
        storage.into(),
    );
    drive.op_sync(&admin()).unwrap();
    drive
}

#[test]
fn image_replay_reproduces_objects_and_streams() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let src = populated_drive(&clock);
    let adm = admin();

    let image = src.resync_image(&adm).unwrap();
    let dst = S4Drive::format_from_image(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
        &image,
    )
    .unwrap();

    // Same live objects, same per-object logical digests.
    let src_ids = src.live_object_ids(&adm).unwrap();
    assert_eq!(src_ids, dst.live_object_ids(&adm).unwrap());
    assert!(src_ids.len() >= 4); // partition object + a, b, c
    for &oid in &src_ids {
        assert_eq!(
            src.object_digest(&adm, ObjectId(oid)).unwrap(),
            dst.object_digest(&adm, ObjectId(oid)).unwrap(),
            "object {oid} diverged after replay"
        );
    }

    // The deleted object stays deleted on the replica.
    let alice = RequestContext::user(UserId(1), ClientId(1));
    let doomed = src_ids.iter().copied().max().unwrap() + 1;
    assert!(!src_ids.contains(&doomed));
    assert_eq!(
        dst.op_read(&alice, ObjectId(doomed), 0, 8, None),
        Err(S4Error::NoSuchObject)
    );

    // The audit log, alerts included, decodes identically.
    assert_eq!(
        src.read_traces(&adm).unwrap(),
        dst.read_traces(&adm).unwrap()
    );
    assert_eq!(
        src.read_alerts(&adm).unwrap(),
        dst.read_alerts(&adm).unwrap()
    );

    // Id allocation resumes past the source's floor — no id reuse.
    let fresh = dst.op_create(&alice, None).unwrap();
    assert!(fresh.0 >= image.next_oid);

    // Contents are readable through the normal client path too.
    let a = src_ids[1]; // first dynamic object
    assert_eq!(
        src.op_read(&alice, ObjectId(a), 0, 64, None).unwrap(),
        dst.op_read(&alice, ObjectId(a), 0, 64, None).unwrap()
    );
}

#[test]
fn replayed_drive_survives_remount() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let src = populated_drive(&clock);
    let adm = admin();

    let image = src.resync_image(&adm).unwrap();
    let dst = S4Drive::format_from_image(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
        &image,
    )
    .unwrap();
    let digest = dst.state_digest();
    let dev = dst.unmount().unwrap();
    let dst = S4Drive::mount(dev, DriveConfig::small_test(), clock.clone()).unwrap();
    assert_eq!(dst.state_digest(), digest, "remount must be idempotent");
    for &oid in &src.live_object_ids(&adm).unwrap() {
        assert_eq!(
            src.object_digest(&adm, ObjectId(oid)).unwrap(),
            dst.object_digest(&adm, ObjectId(oid)).unwrap()
        );
    }
    assert_eq!(
        src.read_alerts(&adm).unwrap(),
        dst.read_alerts(&adm).unwrap()
    );
}

#[test]
fn resync_endpoints_require_admin() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = populated_drive(&clock);
    let alice = RequestContext::user(UserId(1), ClientId(1));
    assert_eq!(
        drive.resync_image(&alice).unwrap_err(),
        S4Error::AccessDenied
    );
    assert_eq!(
        drive.live_object_ids(&alice).unwrap_err(),
        S4Error::AccessDenied
    );
    assert_eq!(
        drive.object_digest(&alice, ObjectId(4)).unwrap_err(),
        S4Error::AccessDenied
    );
}

/// One `converge` behind mirror resync, reshard apply and transaction
/// compensation: each caller brings an object that is *larger* and
/// carries different attributes and a different ACL down onto the same
/// target, and all three end up with one `object_digest`.
#[test]
fn converge_reaches_one_digest_through_all_three_callers() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let new_drive = || {
        S4Drive::format(
            MemDisk::with_capacity_bytes(64 << 20),
            DriveConfig::small_test(),
            clock.clone(),
        )
        .unwrap()
    };
    let alice = RequestContext::user(UserId(1), ClientId(1));
    let wide_acl = AclEntry {
        user: UserId(9),
        perm: Perm::READ.union(Perm::WRITE),
    };
    // Grows an object past two blocks and changes its attributes and ACL.
    let bloat = |d: &S4Drive<MemDisk>, oid: ObjectId| {
        d.op_write(&alice, oid, 0, &[0xEE; 9_000]).unwrap();
        d.op_setattr(&alice, oid, vec![9; 40]).unwrap();
        d.op_set_acl(&alice, oid, wide_acl).unwrap();
    };

    let source = new_drive();
    let oid = source.op_create(&alice, None).unwrap();
    source
        .op_write(&alice, oid, 0, b"the target content")
        .unwrap();
    source.op_setattr(&alice, oid, vec![1, 2, 3]).unwrap();
    let before = source.reshard_export(&admin(), oid, None).unwrap().unwrap();

    // A reshard target that copied the object at its snapshot and has
    // since drifted: larger, other attributes, other ACL.
    let other = new_drive();
    other.reshard_apply(&admin(), &before).unwrap();
    clock.advance(SimDuration::from_secs(1));
    bloat(&other, oid);

    // Transaction compensation: the source object is bloated inside a
    // transaction, and the abort converges it back onto its t0 version.
    clock.advance(SimDuration::from_secs(1));
    source.txn_begin(7).unwrap();
    bloat(&source, oid);
    source.txn_vote(7, vec![oid.0], Vec::new()).unwrap();
    clock.advance(SimDuration::from_secs(1));
    source.txn_decide(7, false).unwrap();
    let target = source.reshard_export(&admin(), oid, None).unwrap().unwrap();
    assert_eq!(
        (&target.content, &target.attrs, &target.acl),
        (&before.content, &before.attrs, &before.acl),
        "compensation restored the t0 version"
    );
    assert!(
        target.modified > before.modified,
        "by appending, not rewinding"
    );
    let digest = source.object_digest(&admin(), oid).unwrap();

    // Reshard apply: catch-up brings the drifted copy onto the source's.
    assert_ne!(other.object_digest(&admin(), oid).unwrap(), digest);
    other.reshard_apply(&admin(), &target).unwrap();
    assert_eq!(other.object_digest(&admin(), oid).unwrap(), digest);
    // Converged is converged: applying again writes nothing.
    let versions = other.version_history(&admin(), oid).unwrap().len();
    other.reshard_apply(&admin(), &target).unwrap();
    assert_eq!(
        other.version_history(&admin(), oid).unwrap().len(),
        versions
    );

    // Mirror resync: a replacement drive built from the source's image.
    let image = source.resync_image(&admin()).unwrap();
    let replica = S4Drive::format_from_image(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
        &image,
    )
    .unwrap();
    assert_eq!(replica.object_digest(&admin(), oid).unwrap(), digest);
    // And the replayed ones survive a remount.
    for d in [other, replica] {
        let d = S4Drive::mount(
            d.unmount().unwrap(),
            DriveConfig::small_test(),
            clock.clone(),
        );
        assert_eq!(d.unwrap().object_digest(&admin(), oid).unwrap(), digest);
    }
}

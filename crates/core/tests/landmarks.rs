//! Landmark versioning (§6): pinned versions survive detection-window
//! expiry, differencing, and remounts.

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive, S4Error, UserId};
use s4_simdisk::MemDisk;

fn drive() -> S4Drive<MemDisk> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock,
    )
    .unwrap()
}

fn ctx() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

#[test]
fn landmark_survives_window_expiry() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    d.op_write(&ctx(), oid, 0, b"milestone release v1.0")
        .unwrap();
    let v1 = d.now();
    d.clock().advance(SimDuration::from_secs(60));
    d.op_write(&ctx(), oid, 0, b"throwaway work-in-prog")
        .unwrap();
    let v2 = d.now();
    d.clock().advance(SimDuration::from_secs(60));
    // v2 is deprecated *here*, inside the window being aged out below.
    d.op_write(&ctx(), oid, 0, b"also aging throwaway..")
        .unwrap();
    d.op_sync(&ctx()).unwrap();

    // Pin v1, then age everything past the (1 hour) window.
    d.op_mark_landmark(&ctx(), oid, v1).unwrap();
    d.clock().advance(SimDuration::from_secs(7200));
    d.op_write(&ctx(), oid, 0, b"current state of file.")
        .unwrap();
    d.op_sync(&ctx()).unwrap();
    d.expire_versions().unwrap();

    // The unpinned middle version's own content is gone; reads in the
    // aged-out era resolve to the nearest earlier landmark (Elephant's
    // "landmarks are what remain of an era" semantics).
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 64, Some(v2)).unwrap(),
        b"milestone release v1.0"
    );
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 64, Some(v1)).unwrap(),
        b"milestone release v1.0"
    );
    let lms = d.landmarks(&ctx(), oid).unwrap();
    assert_eq!(lms.len(), 1);
    assert_eq!(lms[0].1, 22);
}

#[test]
fn landmark_survives_compaction_and_remount() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let oid = d.op_create(&ctx(), None).unwrap();
    let text = "landmarked content line\n".repeat(100);
    d.op_write(&ctx(), oid, 0, text.as_bytes()).unwrap();
    let v1 = d.now();
    clock.advance(SimDuration::from_secs(10));
    let mut v = text.clone().into_bytes();
    v[0..7].copy_from_slice(b"EDITED!");
    d.op_write(&ctx(), oid, 0, &v).unwrap();
    d.op_sync(&ctx()).unwrap();

    d.op_mark_landmark(&ctx(), oid, v1).unwrap();
    d.compact_history().unwrap();

    let dev = d.unmount().unwrap();
    let d2 = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
    assert_eq!(
        d2.op_read(&ctx(), oid, 0, 1 << 16, Some(v1)).unwrap(),
        text.as_bytes()
    );
    assert_eq!(d2.landmarks(&ctx(), oid).unwrap().len(), 1);
}

#[test]
fn unmark_releases_the_pin() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    d.op_write(&ctx(), oid, 0, b"pin me").unwrap();
    let v1 = d.now();
    d.clock().advance(SimDuration::from_secs(60));
    d.op_write(&ctx(), oid, 0, b"newer!").unwrap();
    d.op_sync(&ctx()).unwrap();
    d.op_mark_landmark(&ctx(), oid, v1).unwrap();
    let lm_stamp = d.landmarks(&ctx(), oid).unwrap()[0].0;

    // Age out and expire: landmark holds.
    d.clock().advance(SimDuration::from_secs(7200));
    d.op_write(&ctx(), oid, 0, b"latest").unwrap();
    d.op_sync(&ctx()).unwrap();
    d.expire_versions().unwrap();
    assert!(d.op_read(&ctx(), oid, 0, 16, Some(v1)).is_ok());

    // Unpin: the version becomes unavailable.
    d.op_unmark_landmark(&ctx(), oid, lm_stamp).unwrap();
    assert!(matches!(
        d.op_read(&ctx(), oid, 0, 16, Some(v1)),
        Err(S4Error::VersionUnavailable) | Err(S4Error::NoSuchObject)
    ));
    assert!(d.landmarks(&ctx(), oid).unwrap().is_empty());
}

#[test]
fn landmarks_require_owner_permission() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    d.op_write(&ctx(), oid, 0, b"x").unwrap();
    let t = d.now();
    let stranger = RequestContext::user(UserId(9), ClientId(9));
    assert_eq!(
        d.op_mark_landmark(&stranger, oid, t).unwrap_err(),
        S4Error::AccessDenied
    );
    // The drive administrator can pin anything.
    let admin = RequestContext::admin(ClientId(0), 42);
    d.op_mark_landmark(&admin, oid, t).unwrap();
}

#[test]
fn landmarked_deleted_object_survives_expiry_anchor_and_remount() {
    // The hard path: a deleted object whose whole journal history expires
    // while a landmark pins one version — it must still be anchorable
    // (checkpointed lazily) and recoverable after remount.
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let oid = d.op_create(&ctx(), None).unwrap();
    d.op_write(&ctx(), oid, 0, b"pinned forever").unwrap();
    let v1 = d.now();
    d.op_mark_landmark(&ctx(), oid, v1).unwrap();
    clock.advance(SimDuration::from_secs(60));
    d.op_delete(&ctx(), oid).unwrap();
    d.op_sync(&ctx()).unwrap();
    clock.advance(SimDuration::from_secs(100_000));
    d.expire_versions().unwrap();

    let dev = d.unmount().unwrap();
    let d2 = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
    assert_eq!(
        d2.op_read(&ctx(), oid, 0, 64, Some(v1)).unwrap(),
        b"pinned forever"
    );
    assert_eq!(d2.landmarks(&ctx(), oid).unwrap().len(), 1);
}

#[test]
fn deleted_object_with_landmark_is_not_dropped() {
    let d = drive();
    let oid = d.op_create(&ctx(), None).unwrap();
    d.op_write(&ctx(), oid, 0, b"keep forever").unwrap();
    let v1 = d.now();
    d.op_mark_landmark(&ctx(), oid, v1).unwrap();
    d.clock().advance(SimDuration::from_secs(60));
    d.op_delete(&ctx(), oid).unwrap();
    d.op_sync(&ctx()).unwrap();

    // Age far past the window; the object would normally vanish.
    d.clock().advance(SimDuration::from_secs(100_000));
    d.expire_versions().unwrap();
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 64, Some(v1)).unwrap(),
        b"keep forever"
    );
}

/// A landmark whose block the cleaner relocates, whose superseding entry
/// expires, and whose old segment the log reuses still reads its own
/// bytes. With a forwarding table the landmark's map kept naming the old
/// address, expiry released the relocated copy, and reuse closed a cycle
/// in the forwards: under `cargo test -q` the read panicked with
/// `forwarding cycle` at round 57. A release build, whose debug assertion
/// is compiled out, spins in that loop instead, holding the drive's lock.
#[test]
fn a_landmark_reads_back_after_relocation_expiry_and_reuse() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(1);
    config.cleaner.min_free_target = 10_000;
    config.cleaner.max_segments_per_pass = 64;
    let d = S4Drive::format(MemDisk::with_capacity_bytes(4 << 20), config, clock.clone()).unwrap();
    let oid = d.op_create(&ctx(), None).unwrap();
    d.op_write(&ctx(), oid, 0, &[0x11; 4096]).unwrap();
    let v1 = d.now();
    d.op_mark_landmark(&ctx(), oid, v1).unwrap();
    clock.advance(SimDuration::from_millis(100));
    d.op_write(&ctx(), oid, 0, &[0x22; 4096]).unwrap();
    d.op_sync(&ctx()).unwrap();
    let fillers = [(); 2].map(|_| d.op_create(&ctx(), None).unwrap());
    let mut relocated = 0;
    for round in 1..=90u32 {
        for f in &fillers {
            d.op_write(&ctx(), *f, 0, &[0xF0; 4096]).unwrap();
        }
        d.op_sync(&ctx()).unwrap();
        clock.advance(SimDuration::from_millis(400));
        if round % 3 == 0 {
            relocated += d.clean().unwrap().blocks_relocated;
            d.force_anchor().unwrap();
        }
        let landmark = d.op_read(&ctx(), oid, 0, 4096, Some(v1)).unwrap();
        assert!(
            landmark == [0x11; 4096],
            "round {round}, after {relocated} relocations"
        );
    }
    assert!(relocated > 24, "the churn relocates: {relocated}");
    assert_eq!(d.op_read(&ctx(), oid, 0, 4096, None).unwrap(), [0x22; 4096]);
    assert_eq!(d.check_image(), Ok((vec![], vec![], 0)));
}

/// A landmark pinned between the history floor and the oldest retained
/// entry pins the version the retired entries left, stamped with the
/// newest one's time. Stamped with the object's creation instead, it was
/// listed at 1.000000 s and, once the journal aged past it, served
/// "version one" for 1.005000 s, when the object was still empty.
#[test]
fn a_landmark_pinned_above_the_floor_is_never_served_before_its_version() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(5);
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        config,
        clock.clone(),
    )
    .unwrap();
    let oid = d.op_create(&ctx(), None).unwrap();
    clock.advance(SimDuration::from_millis(10));
    d.op_write(&ctx(), oid, 0, b"version one").unwrap();
    let v1 = d.now();
    assert_eq!(v1, SimTime::from_micros(1_010_000));
    d.op_sync(&ctx()).unwrap();
    clock.advance(SimDuration::from_secs(10));
    d.op_write(&ctx(), oid, 0, b"version two").unwrap();
    d.op_sync(&ctx()).unwrap();
    clock.advance(SimDuration::from_secs(1));
    assert_eq!(d.expire_versions().unwrap(), 2);

    d.op_mark_landmark(&ctx(), oid, SimTime::from_micros(9_010_000))
        .unwrap();
    assert_eq!(d.landmarks(&ctx(), oid).unwrap(), vec![(v1, 11)]);

    for v in [b"version three", b"version four!"] {
        clock.advance(SimDuration::from_secs(30));
        d.op_write(&ctx(), oid, 0, v).unwrap();
        d.op_sync(&ctx()).unwrap();
    }
    d.expire_versions().unwrap();
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 64, Some(SimTime::from_micros(11_010_000))),
        Ok(b"version one".to_vec())
    );
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 64, Some(SimTime::from_micros(1_005_000))),
        Err(S4Error::VersionUnavailable)
    );
}

/// A deleted object that a landmark pins is not retired whole, so the
/// expiry that retires its journal must first checkpoint the deletion.
/// It skipped that checkpoint as if the object were going whole, and a
/// remount then restored the checkpoint from before the delete: the
/// object read back alive.
#[test]
fn a_pinned_object_deleted_before_its_history_expires_stays_deleted_across_a_remount() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = SimDuration::from_secs(20);
    let disk = MemDisk::with_capacity_bytes(64 << 20);
    let d = S4Drive::format(disk, config, clock.clone()).unwrap();
    let oid = d.op_create(&ctx(), None).unwrap();
    d.op_write(&ctx(), oid, 0, b"pinned").unwrap();
    d.op_mark_landmark(&ctx(), oid, d.now()).unwrap();
    let d = S4Drive::mount(d.unmount().unwrap(), config, clock.clone()).unwrap();
    clock.advance(SimDuration::from_millis(1));
    d.op_delete(&ctx(), oid).unwrap();
    d.op_sync(&ctx()).unwrap();
    clock.advance(SimDuration::from_secs(30));
    d.expire_versions().unwrap();
    let d = S4Drive::mount(d.unmount().unwrap(), config, clock).unwrap();
    assert_eq!(
        d.op_read(&ctx(), oid, 0, 64, None),
        Err(S4Error::NoSuchObject)
    );
    assert_eq!(d.landmarks(&ctx(), oid).unwrap().len(), 1);
}

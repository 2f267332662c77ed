//! Crash-point torture for online resharding: whatever instant the
//! machine dies, a remount must come up routing **wholly in the old
//! epoch or wholly in the new one** — never a hybrid — and every
//! synced object must survive with its digest intact.
//!
//! The split protocol's externally visible states are sampled directly:
//!
//! * crash **during snapshot/catch-up** — no epoch note has changed, so
//!   remounting the original device set must behave as if the split was
//!   never attempted (targets are scratch and are discarded);
//! * crash **after a flip**, both mid-generation (epoch `base=2,
//!   bits=0b01`, five-... six-device remount) and at generation
//!   completion (doubled base) — the persisted note must route the
//!   moved class to its new home;
//! * crash **between per-member note installs** — shard 0's mirrors
//!   disagree about the epoch; mount must pick the highest sequence
//!   number and repair the stale member's partition table.

use s4_array::{split_shard, ArrayConfig, EpochInfo, ReshardConfig, S4Array, EPOCH_NOTE_PREFIX};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive, S4Error, UserId,
    PARTITION_OBJECT,
};
use s4_simdisk::{BlockDev, DiskModelParams, MemDisk, TimedDisk};
use std::collections::BTreeMap;

const MIRRORS: usize = 2;

fn disk() -> MemDisk {
    MemDisk::with_capacity_bytes(64 << 20)
}

fn array_cfg() -> ArrayConfig {
    ArrayConfig {
        mirrors: MIRRORS,
        ..ArrayConfig::default()
    }
}

fn admin() -> RequestContext {
    RequestContext::admin(ClientId(0), 42)
}

fn build(shards: usize) -> S4Array<MemDisk> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..shards * MIRRORS).map(|_| disk()).collect();
    S4Array::format(devices, DriveConfig::small_test(), array_cfg(), clock).unwrap()
}

/// Creates and writes a synced population; returns oid → digest.
fn populate<D: BlockDev + 'static>(a: &S4Array<D>, count: u64) -> BTreeMap<ObjectId, u64> {
    let ctx = RequestContext::user(UserId(9), ClientId(3));
    let mut oids = Vec::new();
    for i in 0..count {
        let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        a.dispatch(
            &ctx,
            &Request::Write {
                oid,
                offset: 0,
                data: vec![i as u8; 32 + (i as usize % 5) * 8],
            },
        )
        .unwrap();
        oids.push(oid);
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();
    oids.iter()
        .map(|&oid| {
            let s = a.shard_index_of(oid);
            (oid, a.shard_drive(s).object_digest(&admin(), oid).unwrap())
        })
        .collect()
}

fn assert_population(a: &S4Array<MemDisk>, digests: &BTreeMap<ObjectId, u64>) {
    for (&oid, &want) in digests {
        let s = a.shard_index_of(oid);
        assert_eq!(
            a.shard_drive(s).object_digest(&admin(), oid).unwrap(),
            want,
            "object {oid:?} damaged across crash"
        );
    }
}

/// Crash in the middle of the migration (snapshot copied, catch-up not
/// finished, no flip): the targets are scratch, so remounting the old
/// device set must come up in the untouched old epoch with every
/// object exactly where it was.
#[test]
fn crash_during_catchup_remounts_wholly_old() {
    let a = build(2);
    let digests = populate(&a, 20);
    let epoch_before = a.epoch();

    // Reproduce split_shard's on-disk state as of mid-migration: the
    // moving class is (partially) exported onto freshly formatted
    // targets, nothing on the sources has changed.
    {
        let src = a.shard_drive(0);
        let drive_cfg = *src.config();
        let tgts: Vec<S4Drive<MemDisk>> = (0..MIRRORS)
            .map(|_| {
                let tgt = S4Drive::format(disk(), drive_cfg, src.clock().clone()).unwrap();
                tgt.set_oid_class(4, 2);
                tgt
            })
            .collect();
        let t = src.clock().now();
        let mut copied = 0usize;
        for oid in src.live_object_ids(&admin()).unwrap() {
            if ObjectId(oid).is_reserved() || oid % 4 != 2 {
                continue;
            }
            if copied.is_multiple_of(2) {
                // "partial": the crash interrupts the copy loop
                let obj = src
                    .reshard_export(&admin(), ObjectId(oid), Some(t))
                    .unwrap()
                    .unwrap();
                for tg in &tgts {
                    tg.reshard_apply(&admin(), &obj).unwrap();
                }
            }
            copied += 1;
        }
        assert!(copied > 0, "moving class unexpectedly empty");
        // tgts drop here: a crash discards the half-built shard
    }

    let devices = a.crash().unwrap();
    assert_eq!(devices.len(), 2 * MIRRORS);
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(a2.epoch(), epoch_before, "epoch moved without a flip");
    assert_eq!(a2.shard_count(), 2);
    assert_population(&a2, &digests);
}

/// Crash right after a flip — first mid-generation (only slot 0 split:
/// three live shards), then after the generation completes (doubled
/// base). Both remounts must route wholly in the new epoch.
#[test]
fn crash_after_flip_remounts_wholly_new() {
    let a = build(2);
    let digests = populate(&a, 20);

    // Split slot 0 only, then crash: the remount set is six devices in
    // dense order (sources 0,1 then target 2), epoch base=2 bits=0b01.
    let r = split_shard(
        &a,
        0,
        (0..MIRRORS).map(|_| disk()).collect(),
        ReshardConfig::default(),
    )
    .unwrap();
    assert_eq!(r.target_slot, 2);
    let devices = a.crash().unwrap();
    assert_eq!(devices.len(), 3 * MIRRORS);
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(
        a2.epoch(),
        EpochInfo {
            seq: 2,
            base: 2,
            bits: 0b01
        }
    );
    assert_eq!(a2.shard_count(), 3);
    for &oid in digests.keys() {
        let slot = a2.shard_slot(a2.shard_index_of(oid));
        let want = if oid.0 % 4 == 2 {
            2
        } else {
            (oid.0 % 2) as usize
        };
        assert_eq!(slot, want, "hybrid routing for {oid:?} after crash");
    }
    assert_population(&a2, &digests);

    // Finish the generation on the remounted array, crash again: the
    // epoch collapses to base=4 and routes by `oid mod 4`.
    split_shard(
        &a2,
        1,
        (0..MIRRORS).map(|_| disk()).collect(),
        ReshardConfig::default(),
    )
    .unwrap();
    let devices = a2.crash().unwrap();
    assert_eq!(devices.len(), 4 * MIRRORS);
    let (a3, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(
        a3.epoch(),
        EpochInfo {
            seq: 3,
            base: 4,
            bits: 0
        }
    );
    assert_eq!(a3.shard_count(), 4);
    for &oid in digests.keys() {
        assert_eq!(a3.shard_slot(a3.shard_index_of(oid)), (oid.0 % 4) as usize);
    }
    assert_population(&a3, &digests);
}

/// A split anchors its source's members before the flip, packing what
/// they hold pending: here an abort's compensation and a client write
/// after it to the same object. The abort's queued resolution must
/// become durable with them. Otherwise the client's next `Sync` finds
/// nothing left to pack, and a crash leaves the transaction in doubt
/// with no note: mount aborts it again and takes the acknowledged write
/// back to the transaction's `t0`.
#[test]
fn a_split_anchors_a_queued_abort_with_the_writes_it_carries() {
    let a = build(3);
    let ctx = RequestContext::user(UserId(9), ClientId(3));
    let put = |oid: ObjectId, data: &[u8]| Request::Write {
        oid,
        offset: 0,
        data: data.to_vec(),
    };
    // Split shard 1 of three: shard 0 installs the new epoch note, a
    // commit of its own, and shard 2 refuses the batch below after shard
    // 1 prepared. One object stays on shard 1 through the split; nothing
    // else is live, so the split's cleanup leaves nothing pending.
    let stays = loop {
        let Response::Created(oid) = a.dispatch(&ctx, &Request::Create).unwrap() else {
            panic!("a create answers with an oid");
        };
        if oid.0 % 6 == 1 {
            break oid;
        }
        a.dispatch(&ctx, &Request::Delete { oid }).unwrap();
    };
    a.dispatch(&ctx, &put(stays, b"stable")).unwrap();
    a.dispatch(&ctx, &Request::Sync).unwrap();

    // Shard 2 refuses its half, so shard 1 compensates and queues the
    // abort's resolution.
    let missing = ObjectId(stays.0 + 6001);
    let batch = vec![put(stays, b"doomed"), put(missing, b"x"), Request::Sync];
    let refused = a.dispatch(&ctx, &Request::Batch(batch));
    assert!(
        matches!(refused, Err(S4Error::BatchFailed { .. })),
        "{refused:?}"
    );
    let status = a.txn_status_text();
    assert!(status.starts_with("committed=0 aborted=1 "), "{status}");
    a.dispatch(&ctx, &put(stays, b"acknowledged")).unwrap();

    split_shard(
        &a,
        1,
        (0..MIRRORS).map(|_| disk()).collect(),
        ReshardConfig::default(),
    )
    .unwrap();
    a.dispatch(&ctx, &Request::Sync).unwrap();
    a.check_mirrors(&admin()).unwrap();
    let devices = a.crash().unwrap();
    // Shard 1's members made the abort durable with the writes the
    // anchor packed. (Shard 2 may hold its refused prepare in doubt: it
    // has no effect to undo, and mount aborts it again.)
    let devices: Vec<MemDisk> = devices
        .into_iter()
        .enumerate()
        .map(|(i, dev)| {
            let d = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
            if i / MIRRORS == 1 {
                assert_eq!(d.txn_in_doubt(), Vec::new(), "shard 1 device {i} in doubt");
            }
            d.crash()
        })
        .collect();
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    let read = Request::Read {
        oid: stays,
        offset: 0,
        len: 64,
        time: None,
    };
    assert_eq!(
        a2.dispatch(&ctx, &read).unwrap(),
        Response::Data(b"acknowledged".to_vec()),
        "the acknowledged write survives the crash"
    );
}

/// Crash between the per-member epoch-note installs: shard 0's two
/// mirrors persist different epochs. Mount must elect the highest
/// sequence number, route by it, and repair the stale member's
/// partition table so a later mount sees no divergence.
#[test]
fn crash_between_note_installs_repairs_divergent_member() {
    let a = build(2);
    let digests = populate(&a, 20);

    split_shard(
        &a,
        0,
        (0..MIRRORS).map(|_| disk()).collect(),
        ReshardConfig::default(),
    )
    .unwrap();
    let new_epoch = a.epoch();
    assert_eq!(
        new_epoch,
        EpochInfo {
            seq: 2,
            base: 2,
            bits: 0b01
        }
    );

    // Rewind member 1 of shard 0 to the pre-flip note, exactly the
    // state a crash leaves if it lands between the two installs.
    {
        let stale = a.member_drive(0, 1);
        stale.op_pdelete(&admin(), &new_epoch.note_name()).unwrap();
        stale
            .op_pcreate(
                &admin(),
                &EpochInfo::initial(2).note_name(),
                PARTITION_OBJECT,
            )
            .unwrap();
        stale.force_anchor().unwrap();
    }

    let devices = a.crash().unwrap();
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    // Highest seq wins: the flip is not lost to the stale mirror.
    assert_eq!(a2.epoch(), new_epoch);
    assert_eq!(a2.shard_count(), 3);
    assert_population(&a2, &digests);

    // The stale member was repaired in place: both mirrors now carry
    // exactly the winning note.
    for k in 0..MIRRORS {
        let notes: Vec<String> = a2
            .member_drive(0, k)
            .op_plist(&admin(), None)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with(EPOCH_NOTE_PREFIX))
            .collect();
        assert_eq!(
            notes,
            vec![new_epoch.note_name()],
            "member {k} not repaired"
        );
    }

    // And the repair is durable: one more crash/mount pair agrees.
    let devices = a2.crash().unwrap();
    let (a3, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(a3.epoch(), new_epoch);
    assert_population(&a3, &digests);
}

/// A split's target group starts as copies of one formatted member. On
/// disks that charge the shared clock, members formatted one after
/// another disagree on when their partition tables were created.
#[test]
fn split_targets_on_timed_disks_are_identical_mirrors() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let timed = || TimedDisk::new(disk(), DiskModelParams::cheetah_9gb_10k(), clock.clone());
    let devices = (0..2 * MIRRORS).map(|_| timed()).collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        clock.clone(),
    )
    .unwrap();
    populate(&a, 12);
    split_shard(&a, 0, vec![timed(), timed()], ReshardConfig::default()).unwrap();
    assert_eq!(a.check_mirrors(&admin()), Ok(()));
}

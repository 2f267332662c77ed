//! Digest equality against an offline baseline: a live `4 → 8` split
//! (snapshot + catch-up + flip, clients untouched) must land every
//! object byte-for-byte identical to the obvious offline procedure —
//! unmount, export each moving object from its old home, apply it into
//! a freshly formatted doubled-class drive.
//!
//! Two arrays receive the same deterministic single-threaded workload,
//! so their object populations and digests match exactly. Array A is
//! split live; array B is unmounted and copied offline. Every surviving
//! object must digest identically on both sides.

use std::collections::BTreeMap;

use s4_array::{double_array, ArrayConfig, ReshardConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive, UserId,
};
use s4_simdisk::MemDisk;

const SHARDS: usize = 4;

fn disk() -> MemDisk {
    MemDisk::with_capacity_bytes(64 << 20)
}

fn array_cfg() -> ArrayConfig {
    ArrayConfig {
        mirrors: 1,
        ..ArrayConfig::default()
    }
}

fn build_array() -> S4Array<MemDisk> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..SHARDS).map(|_| disk()).collect();
    S4Array::format(devices, DriveConfig::small_test(), array_cfg(), clock).unwrap()
}

/// Deterministic mixed workload: creates, overwrites, appends,
/// truncates, attribute changes, and deletions — identical on every
/// array it runs against. Returns the oids that are still live.
fn workload(a: &S4Array<MemDisk>) -> Vec<ObjectId> {
    let ctx = RequestContext::user(UserId(7), ClientId(1));
    let mut oids = Vec::new();
    for i in 0..32u64 {
        let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        a.dispatch(
            &ctx,
            &Request::Write {
                oid,
                offset: 0,
                data: vec![i as u8 ^ 0x5a; 48 + (i as usize % 7) * 16],
            },
        )
        .unwrap();
        oids.push(oid);
    }
    for (i, &oid) in oids.iter().enumerate() {
        match i % 5 {
            0 => {
                a.dispatch(
                    &ctx,
                    &Request::Append {
                        oid,
                        data: vec![0xab; 24],
                    },
                )
                .unwrap();
            }
            1 => {
                a.dispatch(&ctx, &Request::Truncate { oid, len: 8 })
                    .unwrap();
            }
            2 => {
                a.dispatch(
                    &ctx,
                    &Request::Write {
                        oid,
                        offset: 11,
                        data: vec![i as u8; 97],
                    },
                )
                .unwrap();
            }
            _ => {}
        }
    }
    // Delete every fourth object so the migration has tombstones to
    // get right (a moved-then-deleted object must not resurrect).
    let mut live = Vec::new();
    for (i, &oid) in oids.iter().enumerate() {
        if i % 4 == 3 {
            a.dispatch(&ctx, &Request::Delete { oid }).unwrap();
        } else {
            live.push(oid);
        }
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();
    live
}

#[test]
fn live_split_matches_offline_copy_digests() {
    let admin = RequestContext::admin(ClientId(0), 42);

    // Identical workloads on two identical arrays.
    let a = build_array();
    let b = build_array();
    let live_a = workload(&a);
    let live_b = workload(&b);
    assert_eq!(live_a, live_b, "workload is not deterministic");

    // --- Array A: live online split to 8 shards.
    let groups: Vec<Vec<MemDisk>> = (0..SHARDS).map(|_| vec![disk()]).collect();
    let reports = double_array(&a, groups, ReshardConfig::default()).unwrap();
    assert_eq!(reports.len(), SHARDS);
    assert_eq!(a.epoch().base, 2 * SHARDS);

    // --- Array B: offline copy. Unmount, then per old shard export the
    // moving half into a fresh doubled-class drive.
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let stride = 2 * SHARDS as u64;
    let mut offline: BTreeMap<u64, u64> = BTreeMap::new();
    for (slot, dev) in b.unmount().unwrap().into_iter().enumerate() {
        let src = S4Drive::mount(dev, DriveConfig::small_test(), clock.clone()).unwrap();
        src.set_oid_class(SHARDS as u64, slot as u64);
        let tgt = S4Drive::format(disk(), DriveConfig::small_test(), clock.clone()).unwrap();
        tgt.set_oid_class(stride, (SHARDS + slot) as u64);
        for oid in src.live_object_ids(&admin).unwrap() {
            if ObjectId(oid).is_reserved() {
                continue;
            }
            if oid % stride == (SHARDS + slot) as u64 {
                let obj = src
                    .reshard_export(&admin, ObjectId(oid), None)
                    .unwrap()
                    .expect("live object must export");
                tgt.reshard_apply(&admin, &obj).unwrap();
                offline.insert(oid, tgt.object_digest(&admin, ObjectId(oid)).unwrap());
            } else {
                offline.insert(oid, src.object_digest(&admin, ObjectId(oid)).unwrap());
            }
        }
    }

    // The offline baseline saw exactly the objects that survived.
    let survivors: Vec<u64> = live_b.iter().map(|o| o.0).collect();
    assert_eq!(offline.keys().copied().collect::<Vec<_>>(), survivors);

    // --- Every object digests identically: live migration lost and
    // changed nothing relative to the offline copy.
    for &oid in &live_a {
        let s = a.shard_index_of(oid);
        assert_eq!(
            a.shard_slot(s),
            (oid.0 % stride) as usize,
            "wrong home for {oid:?}"
        );
        assert_eq!(
            a.shard_drive(s).object_digest(&admin, oid).unwrap(),
            offline[&oid.0],
            "object {oid:?} diverged from the offline baseline"
        );
    }
}

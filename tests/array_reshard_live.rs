//! Live-reshard drill: 8 threaded TCP clients hammer a mirrored 4×2
//! array while the array splits live to 8×2, one residue class at a
//! time. The clients must see zero errors, the routing epoch must land
//! at base 8, every object must be served from its new home with its
//! pre-split digest, the audit stream must remain a serializable
//! interleaving of what the clients issued, and the doubled array must
//! survive a full unmount/remount cycle with the persisted epoch.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::{check_interleaving, hammer, unwrap_arc};
use s4_array::{double_array, ArrayConfig, ReshardConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{AuditRecord, ClientId, DriveConfig, Request, RequestContext, Response, UserId};
use s4_fs::{TcpServerHandle, TcpTransport};
use s4_simdisk::MemDisk;

const SHARDS: usize = 4;
const MIRRORS: usize = 2;
const PRELOAD: u64 = 24;

fn disk() -> MemDisk {
    MemDisk::with_capacity_bytes(64 << 20)
}

fn array_cfg() -> ArrayConfig {
    ArrayConfig {
        mirrors: MIRRORS,
        ..ArrayConfig::default()
    }
}

#[test]
fn live_split_4_to_8_under_tcp_load_is_invisible() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let admin = RequestContext::admin(ClientId(0), 42);

    let devices = (0..SHARDS * MIRRORS).map(|_| disk()).collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        clock.clone(),
    )
    .unwrap();

    // Preload a population of objects so the snapshot phase has real
    // residue classes to migrate, and remember every digest.
    let owner = RequestContext::user(UserId(7), ClientId(99));
    let mut preload = Vec::new();
    for i in 0..PRELOAD {
        let oid = match a.dispatch(&owner, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        a.dispatch(
            &owner,
            &Request::Write {
                oid,
                offset: 0,
                data: vec![i as u8; 64],
            },
        )
        .unwrap();
        preload.push(oid);
    }
    a.dispatch(&owner, &Request::Sync).unwrap();
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    for &oid in &preload {
        let s = a.shard_index_of(oid);
        digests.insert(oid.0, a.shard_drive(s).object_digest(&admin, oid).unwrap());
    }

    // Serve TCP; hammer and reshard run concurrently.
    let array = Arc::new(a);
    let server = TcpServerHandle::serve(array.clone(), "127.0.0.1:0").unwrap();
    let hammer_server = TcpServerHandle::serve(array.clone(), "127.0.0.1:0").unwrap();
    let hammer_thread = {
        let s = hammer_server;
        std::thread::spawn(move || {
            let oids = hammer(&s, Some(8));
            s.shutdown();
            oids
        })
    };

    let groups: Vec<Vec<MemDisk>> = (0..SHARDS)
        .map(|_| (0..MIRRORS).map(|_| disk()).collect())
        .collect();
    let reports = double_array(&array, groups, ReshardConfig::default()).unwrap();
    assert_eq!(reports.len(), SHARDS);
    for r in &reports {
        assert!(
            r.snapshot_objects + r.catchup_objects + r.final_delta_objects > 0
                || r.cleaned_objects == 0
        );
    }

    let oids = hammer_thread.join().unwrap();

    // Routing landed in the doubled generation and the wire surfaces it.
    assert_eq!(array.epoch().base, 2 * SHARDS);
    assert_eq!(array.epoch().bits, 0);
    assert_eq!(array.shard_count(), 2 * SHARDS);
    let status = TcpTransport::connect(server.addr())
        .unwrap()
        .fetch_reshard_status()
        .unwrap();
    assert!(status.contains("base=8"), "{status}");
    assert!(status.contains("active=0"), "{status}");
    let stats = TcpTransport::connect(server.addr())
        .unwrap()
        .fetch_stats()
        .unwrap();
    assert!(stats.contains("s4_array_shards 8"), "{stats}");
    assert!(stats.contains("s4_reshard_flip_pause_us"), "{stats}");
    server.shutdown();
    let a = unwrap_arc(array);

    // Every preloaded object kept its digest across the migration and
    // is served from its doubled-class home shard.
    for &oid in &preload {
        let s = a.shard_index_of(oid);
        assert_eq!(a.shard_slot(s), (oid.0 % (2 * SHARDS as u64)) as usize);
        assert_eq!(
            a.shard_drive(s).object_digest(&admin, oid).unwrap(),
            digests[&oid.0],
            "object {oid:?} digest changed during migration"
        );
    }

    // The merged audit stream is still a serializable interleaving.
    let merged: Vec<AuditRecord> = a
        .read_audit_merged(&admin)
        .unwrap()
        .into_iter()
        .map(|r| r.record)
        .collect();
    check_interleaving(&merged, &oids);

    // The doubled array survives a full unmount/remount: the epoch is
    // read back from the partition table and every object still reads.
    let devices = a.unmount().unwrap();
    assert_eq!(devices.len(), 2 * SHARDS * MIRRORS);
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(a2.epoch().base, 2 * SHARDS);
    for (i, &oid) in oids.iter().enumerate() {
        let ctx = RequestContext::user(UserId(100 + i as u32), ClientId(i as u32));
        match a2
            .dispatch(
                &ctx,
                &Request::Read {
                    oid,
                    offset: 0,
                    len: 8,
                    time: None,
                },
            )
            .unwrap()
        {
            Response::Data(d) => assert_eq!(d, vec![i as u8; 8]),
            other => panic!("unexpected response {other:?}"),
        }
    }
    for &oid in &preload {
        let s = a2.shard_index_of(oid);
        assert_eq!(
            a2.shard_drive(s).object_digest(&admin, oid).unwrap(),
            digests[&oid.0]
        );
    }
}

//! End-to-end member-kill drill: 8 threaded TCP clients hammer a
//! mirrored 4×2 array while one replica's device dies mid-run. The
//! clients must see zero errors, the degraded state must surface
//! through the stats wire (`s4_array_degraded` gauge) and the
//! alerts in the tamper-evident audit log, an online resync must restore full
//! redundancy, and the merged audit stream — live and again after a
//! full unmount/remount cycle — must stay a serializable interleaving
//! of what the clients issued.

mod common;

use std::sync::Arc;

use common::{check_interleaving, hammer, unwrap_arc};
use s4_array::{ArrayConfig, MemberState, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{AuditRecord, ClientId, DriveConfig, Request, RequestContext, Response, UserId};
use s4_fs::{TcpServerHandle, TcpTransport};
use s4_simdisk::{FaultPlan, FaultyDisk, MemDisk, RequestClassMask};

const SHARDS: usize = 4;
const MIRRORS: usize = 2;

type Disk = FaultyDisk<MemDisk>;

fn clean_disk() -> Disk {
    FaultyDisk::new(MemDisk::with_capacity_bytes(64 << 20), FaultPlan::none())
}

fn array_cfg() -> ArrayConfig {
    ArrayConfig {
        mirrors: MIRRORS,
        ..ArrayConfig::default()
    }
}

#[test]
fn member_kill_under_tcp_stress_is_invisible_and_resyncable() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));

    // Format clean, then re-arm: shard 0's first replica dies at its
    // third post-mount commit (one device write each) — mid-run, while
    // the clients are hammering; the workload commits at least six
    // times per shard.
    let devices = (0..SHARDS * MIRRORS).map(|_| clean_disk()).collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        clock.clone(),
    )
    .unwrap();
    let devices = a.unmount().unwrap();
    let devices: Vec<Disk> = devices
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let plan = if i == 0 {
                FaultPlan::member_death_after_requests(
                    2,
                    RequestClassMask::WRITES.union(RequestClassMask::SYNCS),
                )
            } else {
                FaultPlan::none()
            };
            FaultyDisk::new(d.into_inner(), plan)
        })
        .collect();
    let (a, reports) =
        S4Array::mount(devices, DriveConfig::small_test(), array_cfg(), clock).unwrap();
    assert_eq!(reports.len(), SHARDS * MIRRORS);
    let array = Arc::new(a);

    let server = TcpServerHandle::serve(array.clone(), "127.0.0.1:0").unwrap();
    let oids = hammer(&server, Some(8));

    // The kill is visible on the admin plane — and only there: the
    // stats wire shows the degraded shard and the mirror count.
    let stats = TcpTransport::connect(server.addr())
        .unwrap()
        .fetch_stats()
        .unwrap();
    assert!(stats.contains("s4_array_shards 4"), "{stats}");
    assert!(stats.contains("s4_array_mirrors 2"), "{stats}");
    assert!(
        stats.contains("s4_array_degraded{shard=\"0\"} 1"),
        "{stats}"
    );
    server.shutdown();

    let a = unwrap_arc(array);
    assert_eq!(a.member_states()[0][0], MemberState::Dead);
    assert_eq!(a.member_states()[0][1], MemberState::InSync);
    assert!(a.shard_degraded(0));

    let admin = RequestContext::admin(ClientId(0), 42);
    let degraded_alert = a
        .read_alerts_merged(&admin)
        .unwrap()
        .iter()
        .any(|s| s.record.rule == "array-degraded");
    assert!(
        degraded_alert,
        "degraded alert missing from the merged stream"
    );

    // Online resync onto a fresh device restores full redundancy and
    // the replicas converge object-for-object.
    a.resync_member(0, 0, clean_disk()).unwrap();
    assert!(!a.shard_degraded(0));
    a.check_mirrors(&admin).unwrap();

    // The merged audit stream is still a serializable interleaving…
    let merged: Vec<AuditRecord> = a
        .read_audit_merged(&admin)
        .unwrap()
        .into_iter()
        .map(|r| r.record)
        .collect();
    check_interleaving(&merged, &oids);

    // …and survives a full unmount/remount cycle, rebuilt member
    // included.
    let devices = a.unmount().unwrap();
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    let merged: Vec<AuditRecord> = a2
        .read_audit_merged(&admin)
        .unwrap()
        .into_iter()
        .map(|r| r.record)
        .collect();
    check_interleaving(&merged, &oids);
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
}

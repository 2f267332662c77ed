//! Concurrent-client stress: ≥8 threaded clients hammer the framed-TCP
//! server — once over a lone drive, once over a 4-shard array — and the
//! audit stream recovered after unmount must be a serializable
//! interleaving of what the clients issued: every client's operations
//! appear in issue order (the drive executed them one at a time in
//! *some* global order), with no record lost and none duplicated.

mod common;

use std::sync::Arc;

use common::{check_interleaving, hammer, unwrap_arc};
use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{AuditRecord, ClientId, DriveConfig, OpKind, RequestContext, S4Drive};
use s4_fs::{TcpServerHandle, TcpTransport};
use s4_simdisk::MemDisk;

#[test]
fn tcp_stress_single_drive_audit_is_serializable() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = Arc::new(
        S4Drive::format(
            MemDisk::with_capacity_bytes(64 << 20),
            DriveConfig::small_test(),
            clock,
        )
        .unwrap(),
    );
    let server = TcpServerHandle::serve(drive.clone(), "127.0.0.1:0").unwrap();
    let oids = hammer(&server, None);
    let stats = TcpTransport::connect(server.addr())
        .unwrap()
        .fetch_stats()
        .unwrap();
    assert!(stats.contains("s4_requests_total"));
    server.shutdown();

    let dev = unwrap_arc(drive).unmount().unwrap();
    let d2 = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
    let admin = RequestContext::admin(ClientId(0), 42);
    let records = d2.read_audit_records(&admin).unwrap();
    check_interleaving(&records, &oids);
}

#[test]
fn tcp_stress_array_merged_audit_is_serializable() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..4)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect();
    let array = Arc::new(
        S4Array::format(
            devices,
            DriveConfig::small_test(),
            ArrayConfig::default(),
            clock,
        )
        .unwrap(),
    );
    let server = TcpServerHandle::serve(array.clone(), "127.0.0.1:0").unwrap();
    let oids = hammer(&server, None);
    // The aggregated exposition is served over the same wire.
    let stats = TcpTransport::connect(server.addr())
        .unwrap()
        .fetch_stats()
        .unwrap();
    assert!(stats.contains("s4_array_shards 4"));
    server.shutdown();

    let devices = unwrap_arc(array).unmount().unwrap();
    let (a2, reports) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        ArrayConfig::default(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(reports.len(), 4);

    // Each client's object lives on one shard; its writes are audited
    // only there, in order. The merged stream must still read as a
    // serializable interleaving — and each per-shard stream on its own
    // must as well (a shard never reorders its queue).
    let admin = RequestContext::admin(ClientId(0), 42);
    let merged: Vec<AuditRecord> = a2
        .read_audit_merged(&admin)
        .unwrap()
        .into_iter()
        .map(|r| r.record)
        .collect();
    check_interleaving(&merged, &oids);
    let mut shards_with_writes = 0;
    for s in 0..4 {
        let own = a2.shard_drive(s).read_audit_records(&admin).unwrap();
        if own.iter().any(|r| r.op == OpKind::Write) {
            shards_with_writes += 1;
        }
        for w in own.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }
    assert!(shards_with_writes >= 2, "load spread across shards");
}

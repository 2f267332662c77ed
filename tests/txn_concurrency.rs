//! Concurrent cross-shard atomic batches over the TCP surface
//! (DESIGN §6i): 8 threaded clients fire overlapping two-phase-commit
//! batches at a 4-shard × 2-mirror array. Every batch spans all four
//! shards, so every batch is a distributed transaction; the workers
//! interleave prepares from different coordinators freely.
//!
//! The bar: zero client-visible errors, zero partial batches (every
//! transaction commits on all four shards or none), per-client audit
//! streams that form exactly the issued sequence on every shard,
//! mirror byte-convergence, and the same answers after a full
//! unmount/remount. A second run kills one replica's device mid-run —
//! mid-prepare from the clients' point of view — and demands the same
//! guarantees from the survivors.

mod common;

use std::sync::Arc;

use common::{unwrap_arc, CLIENTS};
use s4_array::{ArrayConfig, MemberState, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    AuditRecord, ClientId, DriveConfig, ObjectId, OpKind, Request, RequestContext, Response, UserId,
};
use s4_fs::{TcpServerHandle, TcpTransport, Transport};
use s4_simdisk::{BlockDev, FaultPlan, FaultyDisk, MemDisk, RequestClassMask};

const BATCHES_PER_CLIENT: u64 = 10;
const SHARDS: usize = 4;
const MIRRORS: usize = 2;

fn array_cfg() -> ArrayConfig {
    ArrayConfig {
        mirrors: MIRRORS,
        ..ArrayConfig::default()
    }
}

/// Each client creates one object per shard (creates round-robin until
/// every residue class is covered), then issues `BATCHES_PER_CLIENT`
/// cross-shard batches. Batch `s` writes `[c; 8]` at offset `s` into
/// all four objects — one sub-batch per shard, one 2PC transaction per
/// batch. Every call must succeed.
fn hammer(server: &TcpServerHandle) -> Vec<[ObjectId; SHARDS]> {
    let addr = server.addr();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let t = TcpTransport::connect(addr).unwrap();
                let ctx = RequestContext::user(UserId(100 + c), ClientId(c));
                let mut oids: [Option<ObjectId>; SHARDS] = [None; SHARDS];
                while oids.iter().any(Option::is_none) {
                    match t.call(&ctx, &Request::Create).unwrap() {
                        Response::Created(oid) => {
                            oids[oid.0 as usize % SHARDS].get_or_insert(oid);
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                let oids = oids.map(Option::unwrap);
                for seq in 0..BATCHES_PER_CLIENT {
                    let reqs = oids
                        .iter()
                        .map(|&oid| Request::Write {
                            oid,
                            offset: seq,
                            data: vec![c as u8; 8],
                        })
                        .collect();
                    match t.call(&ctx, &Request::Batch(reqs)).unwrap() {
                        Response::Batch(rs) => assert_eq!(rs.len(), SHARDS, "every slot answered"),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                oids
            })
        })
        .collect();
    threads.into_iter().map(|t| t.join().unwrap()).collect()
}

/// Per client, per shard: the audited transactional writes form exactly
/// the issued sequence — no gap (a lost sub-batch would be a partial
/// transaction) and no reordering (prepares serialize per shard).
fn check_interleaving(records: &[AuditRecord], oids: &[[ObjectId; SHARDS]]) {
    for c in 0..CLIENTS {
        for (s, &oid) in oids[c as usize].iter().enumerate() {
            let issued: Vec<u64> = records
                .iter()
                .filter(|r| r.client == ClientId(c) && r.op == OpKind::Write && r.object == oid)
                .map(|r| {
                    assert!(r.ok, "client {c} write denied on shard {s}");
                    r.arg1
                })
                .collect();
            let expect: Vec<u64> = (0..BATCHES_PER_CLIENT).collect();
            assert_eq!(issued, expect, "client {c} stream on shard {s} not serial");
        }
    }
}

/// Every in-sync mirror pair agrees object-for-object, and nothing is
/// left in doubt or parked in the transaction namespace anywhere.
fn check_converged_and_clean<D: BlockDev + 'static>(a: &S4Array<D>) {
    let admin = RequestContext::admin(ClientId(0), 42);
    a.check_mirrors(&admin).unwrap();
    for (s, states) in a.member_states().iter().enumerate() {
        for k in (0..states.len()).filter(|&k| states[k] == MemberState::InSync) {
            assert!(
                a.member_drive(s, k).txn_in_doubt().is_empty(),
                "shard {s} member {k} left in doubt"
            );
        }
    }
    match a.dispatch(&admin, &Request::PList { time: None }).unwrap() {
        Response::Partitions(ps) => {
            let stale = ps
                .iter()
                .filter(|(n, _)| n.starts_with("__s4/txn/"))
                .count();
            assert_eq!(stale, 0, "decision notes outlived their transactions");
        }
        other => panic!("unexpected response {other:?}"),
    }
}

/// Final contents: every object of every client carries the last
/// batch's write — reads answered by whatever member is first in line.
fn check_contents<D: BlockDev + 'static>(a: &S4Array<D>, oids: &[[ObjectId; SHARDS]]) {
    for (c, objs) in oids.iter().enumerate() {
        let ctx = RequestContext::user(UserId(100 + c as u32), ClientId(c as u32));
        for &oid in objs {
            match a
                .dispatch(
                    &ctx,
                    &Request::Read {
                        oid,
                        offset: BATCHES_PER_CLIENT - 1,
                        len: 8,
                        time: None,
                    },
                )
                .unwrap()
            {
                Response::Data(d) => assert_eq!(d, vec![c as u8; 8], "client {c} object {oid:?}"),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
}

#[test]
fn overlapping_cross_shard_batches_commit_atomically() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..SHARDS * MIRRORS)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect();
    let a = S4Array::format(devices, DriveConfig::small_test(), array_cfg(), clock).unwrap();
    let array = Arc::new(a);

    let server = TcpServerHandle::serve(array.clone(), "127.0.0.1:0").unwrap();
    let oids = hammer(&server);

    // The transaction counters surface over the admin wire: every batch
    // committed, nothing aborted, nothing lagging.
    let status = TcpTransport::connect(server.addr())
        .unwrap()
        .fetch_txn_status()
        .unwrap();
    let want = format!(
        "committed={} aborted=0",
        CLIENTS as u64 * BATCHES_PER_CLIENT
    );
    assert!(status.starts_with(&want), "txn status wire: {status}");
    server.shutdown();

    let a = unwrap_arc(array);
    check_converged_and_clean(&a);
    check_contents(&a, &oids);

    let admin = RequestContext::admin(ClientId(0), 42);
    let merged: Vec<AuditRecord> = a
        .read_audit_merged(&admin)
        .unwrap()
        .into_iter()
        .map(|r| r.record)
        .collect();
    check_interleaving(&merged, &oids);

    // The same answers after a clean unmount/remount.
    let devices = a.unmount().unwrap();
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    check_converged_and_clean(&a2);
    check_contents(&a2, &oids);
    let merged: Vec<AuditRecord> = a2
        .read_audit_merged(&admin)
        .unwrap()
        .into_iter()
        .map(|r| r.record)
        .collect();
    check_interleaving(&merged, &oids);
}

#[test]
fn member_death_mid_prepare_stays_atomic_for_every_client() {
    type Disk = FaultyDisk<MemDisk>;
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));

    // Format clean, then re-arm: shard 2's first replica dies at its
    // third post-mount journal flush (one device write each) — inside
    // some client's prepare window, while the batches are flying.
    let devices: Vec<Disk> = (0..SHARDS * MIRRORS)
        .map(|_| FaultyDisk::new(MemDisk::with_capacity_bytes(64 << 20), FaultPlan::none()))
        .collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        clock.clone(),
    )
    .unwrap();
    let devices: Vec<Disk> = a
        .unmount()
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            // Device index 2*MIRRORS: shard 2, member 0.
            let plan = if i == 2 * MIRRORS {
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
    let (a, _) = S4Array::mount(devices, DriveConfig::small_test(), array_cfg(), clock).unwrap();
    let array = Arc::new(a);

    let server = TcpServerHandle::serve(array.clone(), "127.0.0.1:0").unwrap();
    let oids = hammer(&server);
    server.shutdown();

    let a = unwrap_arc(array);
    // The victim is dead, its twin carried the shard through — every
    // transaction still committed on all four shards.
    assert_eq!(a.member_states()[2][0], MemberState::Dead);
    assert_eq!(a.member_states()[2][1], MemberState::InSync);
    assert!(a.shard_degraded(2));
    assert!(
        a.txn_status_text().starts_with(&format!(
            "committed={} aborted=0",
            CLIENTS as u64 * BATCHES_PER_CLIENT
        )),
        "status: {}",
        a.txn_status_text()
    );

    check_converged_and_clean(&a);
    check_contents(&a, &oids);

    let admin = RequestContext::admin(ClientId(0), 42);
    let merged: Vec<AuditRecord> = a
        .read_audit_merged(&admin)
        .unwrap()
        .into_iter()
        .map(|r| r.record)
        .collect();
    check_interleaving(&merged, &oids);

    // Online resync onto a fresh device: the rebuilt member must carry
    // every transactional write, byte-for-byte with its twin.
    a.resync_member(
        2,
        0,
        FaultyDisk::new(MemDisk::with_capacity_bytes(64 << 20), FaultPlan::none()),
    )
    .unwrap();
    assert!(!a.shard_degraded(2));
    check_converged_and_clean(&a);

    // Unmount/remount the healed array: the decisions stay decided,
    // the contents stay uniform.
    let devices = a.unmount().unwrap();
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(),
        SimClock::new(),
    )
    .unwrap();
    check_contents(&a2, &oids);
    for s in 0..SHARDS {
        for k in 0..MIRRORS {
            if a2.member_states()[s][k] == MemberState::InSync {
                assert!(a2.member_drive(s, k).txn_in_doubt().is_empty(), "{s}/{k}");
            }
        }
    }
}

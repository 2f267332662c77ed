//! The 8-client TCP rig the array drills share (`mod common;`): threaded
//! clients hammer a served handler, and the audit stream recovered
//! afterwards must be a serializable interleaving of what they issued.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::sync::Arc;

use s4_core::{AuditRecord, ClientId, ObjectId, OpKind, Request, RequestContext, Response, UserId};
use s4_fs::{TcpServerHandle, TcpTransport, Transport};

pub const CLIENTS: u32 = 8;
pub const WRITES_PER_CLIENT: u64 = 40;

/// Per-connection handler threads exit asynchronously once their client
/// disconnects; wait them out before reclaiming sole ownership.
pub fn unwrap_arc<T>(mut arc: Arc<T>) -> T {
    for _ in 0..2000 {
        match Arc::try_unwrap(arc) {
            Ok(v) => return v,
            Err(a) => {
                arc = a;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
    }
    panic!("server threads still hold the handler");
}

/// Runs `CLIENTS` threads against the served handler. Client `c`
/// creates one object, then issues `WRITES_PER_CLIENT` writes with
/// offset = its own sequence number — the audit log records the offset
/// as `arg1`, which lets the checker reconstruct issue order — syncing
/// after every `sync_every`-th write (syncs force the replicas' disk
/// traffic) and once at the end. Every call must succeed: a dying
/// mirror or a reshard in flight is the array's problem, not the
/// client's.
pub fn hammer(server: &TcpServerHandle, sync_every: Option<u64>) -> Vec<ObjectId> {
    let addr = server.addr();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let t = TcpTransport::connect(addr).unwrap();
                let ctx = RequestContext::user(UserId(100 + c), ClientId(c));
                let oid = match t.call(&ctx, &Request::Create).unwrap() {
                    Response::Created(oid) => oid,
                    other => panic!("unexpected response {other:?}"),
                };
                for seq in 0..WRITES_PER_CLIENT {
                    t.call(
                        &ctx,
                        &Request::Write {
                            oid,
                            offset: seq,
                            data: vec![c as u8; 8],
                        },
                    )
                    .unwrap();
                    if sync_every.is_some_and(|n| seq % n == n - 1) {
                        t.call(&ctx, &Request::Sync).unwrap();
                    }
                }
                t.call(&ctx, &Request::Sync).unwrap();
                oid
            })
        })
        .collect();
    threads.into_iter().map(|t| t.join().unwrap()).collect()
}

/// Asserts the recovered audit stream is a serializable interleaving:
/// per client, the `Write` records form exactly the issued sequence
/// (offsets 0..WRITES_PER_CLIENT in order — no loss, no duplication,
/// no reordering — even when the writes span an old shard's log and a
/// new shard's across a flip), and every record claims a known client.
pub fn check_interleaving(records: &[AuditRecord], oids: &[ObjectId]) {
    for c in 0..CLIENTS {
        let issued: Vec<u64> = records
            .iter()
            .filter(|r| r.client == ClientId(c) && r.op == OpKind::Write)
            .map(|r| {
                assert!(r.ok, "client {c} write denied");
                assert_eq!(r.object, oids[c as usize], "write audited on wrong object");
                r.arg1
            })
            .collect();
        let expect: Vec<u64> = (0..WRITES_PER_CLIENT).collect();
        assert_eq!(issued, expect, "client {c} stream not serial");
    }
    let total = records
        .iter()
        .filter(|r| r.op == OpKind::Write && r.client.0 < CLIENTS)
        .count() as u64;
    assert_eq!(
        total,
        CLIENTS as u64 * WRITES_PER_CLIENT,
        "lost/extra writes"
    );
}

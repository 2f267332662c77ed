//! Broadcast fan-out really is concurrent: a scatter-gather request
//! (Sync) must be *submitted* to every shard worker before any reply is
//! collected, so the array-wide latency is one shard's latency, not the
//! sum over shards.
//!
//! Each shard gets an audit observer that sleeps a fixed wall-clock
//! delay on every Sync record — a stand-in for a slow detection rule.
//! With 4 shards sleeping 150 ms each, a concurrent scatter completes
//! in ~150 ms; a serial one needs ~600 ms. The assertion splits that
//! gap with a wide margin on both sides.

use std::time::{Duration, Instant};

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    AuditObserver, AuditRecord, ClientId, DriveConfig, OpKind, Request, RequestContext, Response,
    UserId,
};
use s4_simdisk::MemDisk;

const SHARDS: usize = 4;
const DELAY: Duration = Duration::from_millis(150);

struct SleepyObserver;

impl AuditObserver for SleepyObserver {
    fn on_record(&mut self, rec: &AuditRecord) -> Vec<AuditRecord> {
        if rec.op == OpKind::Sync {
            std::thread::sleep(DELAY);
        }
        Vec::new()
    }
}

#[test]
fn broadcast_sync_overlaps_shard_workers() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..SHARDS)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        ArrayConfig {
            mirrors: 1,
            ..ArrayConfig::default()
        },
        clock,
    )
    .unwrap();
    for s in 0..SHARDS {
        a.shard_drive(s)
            .register_audit_observer(Box::new(SleepyObserver));
    }

    let ctx = RequestContext::user(UserId(1), ClientId(1));
    let started = Instant::now();
    match a.dispatch(&ctx, &Request::Sync).unwrap() {
        Response::Ok => {}
        other => panic!("unexpected response {other:?}"),
    }
    let elapsed = started.elapsed();

    assert!(
        elapsed >= Duration::from_millis(100),
        "observers never ran ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_millis(450),
        "broadcast Sync took {elapsed:?}: shard workers were visited serially, \
         not scatter-gathered ({SHARDS} shards x {DELAY:?} each)"
    );
}

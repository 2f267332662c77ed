//! Alert object retention (`FlushAlerts`).
//!
//! The alert object is append-only and drive-written, so without
//! retention a chatty detector grows it until the history pool fills.
//! The admin retention op truncates blocks *strictly older* than the
//! detection window: the growth gauge drops, every in-window record
//! survives, outstanding alert cursors stay valid (the stream keeps
//! absolute block numbering), and the op itself is audited like any
//! other request. The audit log has no retention op: it is never
//! truncated.

use s4_clock::{SimClock, SimDuration};
use s4_core::{
    AuditObserver, AuditRecord, ClientId, DriveConfig, OpKind, Request, RequestContext, Response,
    S4Drive, StreamCursor, UserId,
};
use s4_simdisk::MemDisk;

/// Raises one fat, decodable alert per audited `Write` so the alert
/// object spills blocks quickly (~3 blobs per 4 KiB block). The blob
/// follows the alert wire format's dating convention: severity byte,
/// then the raise time (µs) at bytes `[1..9]`.
struct Noisy;

impl AuditObserver for Noisy {
    fn on_record(&mut self, rec: &AuditRecord) -> Vec<Vec<u8>> {
        if rec.op != OpKind::Write {
            return Vec::new();
        }
        let mut blob = Vec::with_capacity(1200);
        blob.push(2); // severity
        blob.extend_from_slice(&rec.time.as_micros().to_le_bytes());
        blob.resize(1200, 0xAB); // padding payload
        vec![blob]
    }
}

fn gauge(d: &S4Drive<MemDisk>, name: &str) -> f64 {
    d.metrics_text(); // refreshes operational gauges
    d.registry().gauge(name, "").get()
}

fn blob_time(blob: &[u8]) -> u64 {
    u64::from_le_bytes(blob[1..9].try_into().unwrap())
}

#[test]
fn flush_alerts_drops_gauge_and_keeps_in_window_records() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(), // 3600 s detection window
        clock.clone(),
    )
    .unwrap();
    d.register_audit_observer(Box::new(Noisy));
    let ctx = RequestContext::user(UserId(1), ClientId(1));
    let admin = RequestContext::admin(ClientId(0), 42);

    let oid = d.op_create(&ctx, None).unwrap();
    let write = |i: u64, data: &[u8]| Request::Write {
        oid,
        offset: i * 8,
        data: data.to_vec(),
    };

    // Phase A: old alerts — enough audited writes to spill several
    // blocks (auditing, and thus detection, runs in the dispatcher).
    for i in 0..30u64 {
        d.dispatch(&ctx, &write(i, b"old-data")).unwrap();
    }
    d.op_sync(&ctx).unwrap();

    // A cursor that has consumed everything so far.
    let mut cursor = StreamCursor::default();
    let seen = d.read_alerts_from(&admin, &mut cursor).unwrap();
    assert!(seen.len() >= 30);

    // Move past the detection window, then raise in-window alerts.
    clock.advance(SimDuration::from_secs(7200));
    for i in 0..6u64 {
        d.dispatch(&ctx, &write(i, b"new-data")).unwrap();
    }
    d.op_sync(&ctx).unwrap();

    let before_blocks = gauge(&d, "s4_alert_object_blocks");
    assert!(before_blocks >= 3.0, "workload too small: {before_blocks}");
    let before = d.read_alerts(&admin).unwrap();
    let cutoff = d.now().as_micros() - SimDuration::from_secs(3600).as_micros();
    let in_window: Vec<&Vec<u8>> = before.iter().filter(|b| blob_time(b) >= cutoff).collect();
    assert!(in_window.len() >= 6);

    // Non-admin callers are refused (and the refusal is audited).
    assert!(d.dispatch(&ctx, &Request::FlushAlerts).is_err());

    let released = match d.dispatch(&admin, &Request::FlushAlerts).unwrap() {
        Response::NewSize(n) => n,
        other => panic!("unexpected response {other:?}"),
    };
    assert!(released >= 3, "expected several expired blocks: {released}");

    // Growth gauge drops by exactly the released block count.
    let after_blocks = gauge(&d, "s4_alert_object_blocks");
    assert_eq!(after_blocks, before_blocks - released as f64);

    // Every in-window alert survives, order preserved, and the
    // surviving stream is a suffix of the original (truncation only
    // removes whole expired blocks from the front).
    let after = d.read_alerts(&admin).unwrap();
    assert!(after.len() < before.len());
    assert_eq!(&before[before.len() - after.len()..], &after[..]);
    for b in &in_window {
        assert!(after.contains(b), "in-window alert lost");
    }

    // The outstanding cursor survives truncation: it only returns the
    // alerts raised after its last poll, with nothing replayed.
    let fresh = d.read_alerts_from(&admin, &mut cursor).unwrap();
    assert_eq!(fresh.len(), before.len() - seen.len());
    assert!(fresh.iter().all(|b| blob_time(b) >= cutoff));

    // Both the denied and the successful retention calls are audited.
    let audit = d.read_audit_records(&admin).unwrap();
    let flushes: Vec<&AuditRecord> = audit
        .iter()
        .filter(|r| r.op == OpKind::FlushAlerts)
        .collect();
    assert_eq!(flushes.len(), 2);
    assert!(!flushes[0].ok, "denied attempt must be audited");
    assert!(flushes[1].ok);

    // A second flush finds nothing expired.
    assert_eq!(d.op_flush_alerts(&admin).unwrap(), 0);

    // The truncation survives a remount.
    let dev = d.unmount().unwrap();
    let d2 = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
    let remounted = d2.read_alerts(&admin).unwrap();
    assert_eq!(remounted, after);
}

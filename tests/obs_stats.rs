//! End-to-end checks of the observability layer (`crates/obs`): the
//! metrics exposition a mounted drive serves and the crash-surviving
//! readback of each request's record, layer times included.

use s4_clock::{SimClock, SimDuration};
use s4_core::{
    AuditRecord, ClientId, DriveConfig, Request, RequestContext, S4Drive, UserId, AUDIT_OBJECT,
};
use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};

fn contexts(config: &DriveConfig) -> (RequestContext, RequestContext) {
    (
        RequestContext::admin(ClientId(9), config.admin_token),
        RequestContext::user(UserId(1), ClientId(1)),
    )
}

fn write(drive: &S4Drive<impl s4_simdisk::BlockDev>, ctx: &RequestContext, data: &[u8]) {
    let oid = match drive.dispatch(ctx, &Request::Create).unwrap() {
        s4_core::Response::Created(oid) => oid,
        other => panic!("unexpected {other:?}"),
    };
    drive
        .dispatch(
            ctx,
            &Request::Write {
                oid,
                offset: 0,
                data: data.to_vec(),
            },
        )
        .unwrap();
}

#[test]
fn exposition_reports_per_layer_latency_and_gauges() {
    // A timed disk so the per-layer histograms see real service time.
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = TimedDisk::new(
        MemDisk::with_capacity_bytes(64 << 20),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    );
    let drive = S4Drive::format(disk, DriveConfig::small_test(), clock.clone()).unwrap();
    let (_, user) = contexts(drive.config());
    for i in 0..20u8 {
        write(&drive, &user, &vec![i; 2048]);
        clock.advance(SimDuration::from_millis(10));
    }
    drive.dispatch(&user, &Request::Sync).unwrap();

    let text = drive.metrics_text();
    for needle in [
        "s4_requests_total",
        "s4_bytes_written_total",
        "s4_checkpoints_total",
        "s4_checkpoint_blocks_total",
        "s4_commit_blocks_total",
        "s4_rpc_latency_us{quantile=\"0.5\"}",
        "s4_rpc_latency_us{quantile=\"0.9\"}",
        "s4_rpc_latency_us{quantile=\"0.99\"}",
        "s4_journal_latency_us{quantile=\"0.99\"}",
        "s4_lfs_latency_us{quantile=\"0.99\"}",
        "s4_disk_latency_us{quantile=\"0.99\"}",
        "s4_history_pool_occupancy",
        "s4_detection_window_headroom_days",
        "s4_journal_depth",
        "s4_audit_object_blocks",
    ] {
        assert!(
            text.contains(needle),
            "exposition missing {needle}:\n{text}"
        );
    }
    // The sync flushed segments through the timed disk, so the disk
    // histogram must have observed nonzero service time.
    assert!(
        !text.contains("s4_disk_latency_us_count 0"),
        "timed disk saw no service time:\n{text}"
    );
}

#[test]
fn persisted_traces_survive_crash_and_remount() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = S4Drive::format(
        MemDisk::new(400_000),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let (_, user) = contexts(drive.config());
    // 139 dispatches: enough to spill two full audit blocks (60
    // records each).
    for i in 0..69u8 {
        write(&drive, &user, &[i]);
        clock.advance(SimDuration::from_millis(1));
    }
    drive.dispatch(&user, &Request::Sync).unwrap();
    let live: Vec<AuditRecord> = {
        let (admin, _) = contexts(drive.config());
        drive.read_traces(&admin).unwrap()
    };
    assert_eq!(live.len(), 139, "one record per dispatched request");

    // Power loss: all volatile state gone; remount from the image.
    let mem = drive.crash();
    let (d2, report) =
        S4Drive::mount_with_report(mem, DriveConfig::small_test(), SimClock::new()).unwrap();
    assert!(
        report.audit_blocks >= 2,
        "spilled audit blocks must be recovered: {report:?}"
    );
    let (admin, _) = contexts(d2.config());
    let recovered = d2.read_traces(&admin).unwrap();
    assert!(
        recovered.len() >= 2 * 60,
        "full audit blocks flushed by the sync must survive, got {}",
        recovered.len()
    );
    // Exact prefix of the pre-crash stream, layer times included.
    for (i, (got, want)) in recovered.iter().zip(&live).enumerate() {
        assert_eq!(got, want, "record {i} diverged across the crash");
    }

    // New requests keep extending the stream contiguously: a record's
    // position is its sequence number, and the append counter agrees.
    write(&d2, &user, b"post-crash");
    let after = d2.read_traces(&admin).unwrap();
    assert_eq!(after.len(), recovered.len() + 2);
    assert_eq!(d2.audit_total_records(&admin).unwrap(), after.len() as u64);

    // The audit log is drive-written-only.
    let err = d2
        .dispatch(
            &user,
            &Request::Write {
                oid: AUDIT_OBJECT,
                offset: 0,
                data: b"forge".to_vec(),
            },
        )
        .unwrap_err();
    assert!(matches!(err, s4_core::S4Error::AccessDenied));
}

/// The value of one unlabelled metric in a Prometheus exposition.
fn metric(text: &str, name: &str) -> f64 {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    line.unwrap_or_else(|| panic!("no {name}:\n{text}"))
        .parse()
        .unwrap()
}

#[test]
fn block_cache_hits_and_misses_are_on_the_stats_wire() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = S4Drive::format(MemDisk::new(200_000), DriveConfig::small_test(), clock).unwrap();
    let (_, user) = contexts(drive.config());
    let Ok(s4_core::Response::Created(oid)) = drive.dispatch(&user, &Request::Create) else {
        panic!("create failed");
    };
    let data = vec![7; 4096];
    let write = Request::Write {
        oid,
        offset: 0,
        data: data.clone(),
    };
    drive.dispatch(&user, &write).unwrap();
    drive.dispatch(&user, &Request::Sync).unwrap();
    let counts = || {
        let text = drive.metrics_text();
        let hits = metric(&text, "s4_block_cache_hits");
        (hits, metric(&text, "s4_block_cache_misses"))
    };
    let read = || {
        let req = Request::Read {
            oid,
            offset: 0,
            len: 4096,
            time: None,
        };
        let got = drive.dispatch(&user, &req).unwrap();
        assert_eq!(got, s4_core::Response::Data(data.clone()));
    };

    let (hits, misses) = counts();
    read();
    let (warm_hits, warm_misses) = counts();
    assert!(
        warm_hits > hits,
        "the flushed block is served from the cache"
    );
    assert_eq!(warm_misses, misses);

    drive.log().cache().clear();
    read();
    let (_, cold_misses) = counts();
    assert!(cold_misses > warm_misses, "a read after a clear misses");
}

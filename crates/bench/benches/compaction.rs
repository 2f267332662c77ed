//! In-drive cross-version differencing (§4.2.2's "future work", built):
//! how much history-pool space the cleaner's differencing pass recovers
//! on a live drive, and what that does to the effective detection
//! window.
//!
//! A synthetic development workload writes daily-edited source files
//! through the full drive stack; we then run `compact_history` and
//! compare the history pool's footprint. `scripts/verify.sh` pins the
//! record's counts, utilization (percent) and pass time (simulated µs)
//! at scale 0.25 in `BENCH_compaction.json`.

use s4_bench::{banner, scaled, timed_drive, Record, DEFAULT_DISK_BYTES};
use s4_clock::SimDuration;
use s4_core::{ClientId, DriveConfig, RequestContext, UserId};
use s4_workloads::srctree::{self, SourceTreeConfig};

fn main() {
    banner(
        "In-drive differencing: history-pool compaction on a live S4 drive",
        "",
    );
    let drive = timed_drive(DEFAULT_DISK_BYTES, DriveConfig::default());
    let ctx = RequestContext::user(UserId(1), ClientId(1));

    // Evolve a source tree through the drive: every daily version of
    // every file is written (and versioned) in place.
    let tree = srctree::generate(&SourceTreeConfig {
        files: scaled(60, 10),
        ..SourceTreeConfig::default()
    });
    for f in &tree.files {
        let oid = drive.op_create(&ctx, None).unwrap();
        for v in &f.versions {
            drive.op_truncate(&ctx, oid, 0).unwrap();
            drive.op_write(&ctx, oid, 0, v).unwrap();
            drive.op_sync(&ctx).unwrap();
            drive.clock().advance(SimDuration::from_secs(60));
        }
    }

    let geo_bytes = 128.0 * 4096.0; // blocks per segment * block size
    let before_util = drive.utilization();
    let t0 = drive.now();
    let (encoded, released) = drive.compact_history().unwrap();
    drive.log().free_dead_segments();
    drive.force_anchor().unwrap();
    let pass_time = drive.now() - t0;
    let after_util = drive.utilization();

    let files = tree.files.len();
    let days = tree.files[0].versions.len();
    println!("workload        : {files} files x {days} daily versions (through the drive)");
    println!("blocks encoded  : {encoded} history blocks -> deltas ({released} released)");
    println!(
        "pool utilization: {:.2}% -> {:.2}%  ({:.2}x space factor on the whole pool)",
        before_util * 100.0,
        after_util * 100.0,
        before_util / after_util
    );
    println!(
        "pass cost       : {:.2}s simulated ({:.1} segments of I/O equivalent)",
        pass_time.as_secs_f64(),
        pass_time.as_secs_f64() * 21e6 / geo_bytes
    );
    println!();
    println!("paper: \"once the differencing is complete, the old blocks can be");
    println!("discarded, and the difference left in its place\" — extending a 10GB");
    println!("pool's window by the measured factor (see fig7_capacity)");
    Record::new("compaction")
        .sim("files", files)
        .sim("days", days)
        .sim("blocks_encoded", encoded)
        .sim("blocks_released", released)
        .sim("utilization_before_pct", before_util * 100.0)
        .sim("utilization_after_pct", after_util * 100.0)
        .sim("pass_us", pass_time)
        .emit();
}

//! Ablation studies for the design choices behind S4's performance
//! (§5.1.5's "fundamental costs" plus this reproduction's own knobs):
//!
//! 1. **Protection cost** — S4 with full protection (versioning pinned by
//!    a long window + auditing) vs the same drive with auditing off and a
//!    zero window (history reclaimed eagerly): the paper claims the
//!    fundamental costs degrade performance by <13% vs "similar systems
//!    that provide no data protection guarantees".
//! 2. **Segment size** — log batching granularity vs PostMark time.
//! 3. **Buffer-cache size** — the Figure-5 "sharp drop from 2% to 10%
//!    ... caused by the set of files expanding beyond the drive's cache".
//! 4. **Readahead** — segment-granular prefetch vs single-block reads on
//!    the creation-order read scan.

use std::sync::Arc;

use s4_bench::{bench_ctx, scale};
use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{DriveConfig, S4Drive};
use s4_fs::{LoopbackTransport, S4FileServer, S4FsConfig};
use s4_lfs::LogConfig;
use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};
use s4_workloads::micro::{micro_benchmark, MicroConfig};
use s4_workloads::postmark::{self, PostmarkConfig};
use s4_workloads::replay;

fn build(dconf: DriveConfig) -> S4FileServer<LoopbackTransport<TimedDisk<MemDisk>>> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = TimedDisk::new(
        MemDisk::with_capacity_bytes(1 << 30),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    );
    let drive = Arc::new(S4Drive::format(disk, dconf, clock).unwrap());
    S4FileServer::mount(
        LoopbackTransport::new(drive, NetworkModel::lan_100mbit()),
        bench_ctx(),
        "abl",
        S4FsConfig::default(),
    )
    .unwrap()
}

fn postmark_secs(dconf: DriveConfig, pm: &postmark::PostmarkPhases) -> (f64, f64) {
    let fs = build(dconf);
    let create = replay(&fs, &pm.create);
    let txn = replay(&fs, &pm.transactions);
    assert_eq!(create.errors + txn.errors, 0);
    (create.elapsed.as_secs_f64(), txn.elapsed.as_secs_f64())
}

fn main() {
    let s = scale();
    let pm = postmark::generate(&PostmarkConfig {
        nfiles: ((2_000.0 * s) as usize).max(100),
        transactions: ((8_000.0 * s) as usize).max(400),
        ..PostmarkConfig::default()
    });

    println!();
    println!("================================================================");
    println!("Ablations: the cost of each design choice (PostMark unless noted)");
    println!("================================================================");

    // ---------------------------------------------------------- 1
    let full = postmark_secs(DriveConfig::default(), &pm);
    let unprotected = {
        let dconf = DriveConfig {
            audit_enabled: false,
            detection_window: SimDuration::ZERO,
            ..DriveConfig::default()
        };
        // Eager reclamation between phases approximates a system keeping
        // no history at all.
        let fs = build(dconf);
        let drive = fs.transport().drive().clone();
        let mut total = (0.0, 0.0);
        let t0 = drive.now();
        for chunk in pm.create.chunks(1000) {
            assert_eq!(replay(&fs, chunk).errors, 0);
            drive.expire_versions().unwrap();
            drive.log().free_dead_segments();
        }
        total.0 = (drive.now() - t0).as_secs_f64();
        let t1 = drive.now();
        for chunk in pm.transactions.chunks(1000) {
            assert_eq!(replay(&fs, chunk).errors, 0);
            drive.expire_versions().unwrap();
            drive.log().free_dead_segments();
        }
        total.1 = (drive.now() - t1).as_secs_f64();
        total
    };
    println!("[1] protection cost (versioning window + audit) vs none:");
    println!(
        "    full protection : create {:8.2}s  txns {:8.2}s",
        full.0, full.1
    );
    println!(
        "    no protection   : create {:8.2}s  txns {:8.2}s",
        unprotected.0, unprotected.1
    );
    println!(
        "    overhead        : create {:+.1}%  txns {:+.1}%   (paper: <13%)",
        (full.0 - unprotected.0) / unprotected.0 * 100.0,
        (full.1 - unprotected.1) / unprotected.1 * 100.0
    );

    // ---------------------------------------------------------- 2
    println!();
    println!("[2] segment size (log batching granularity):");
    for blocks in [32u32, 128, 512] {
        let dconf = DriveConfig {
            log: LogConfig {
                blocks_per_segment: blocks,
                ..LogConfig::default()
            },
            ..DriveConfig::default()
        };
        let (c, t) = postmark_secs(dconf, &pm);
        println!(
            "    {:>4} KiB segments: create {c:8.2}s  txns {t:8.2}s",
            blocks * 4
        );
    }

    // ---------------------------------------------------------- 3
    println!();
    println!("[3] buffer-cache size (micro-benchmark read phase):");
    let m = micro_benchmark(&MicroConfig {
        files: ((6_000.0 * s) as usize).max(200),
        ..MicroConfig::default()
    });
    for cache_mb in [2usize, 8, 32, 128] {
        let dconf = DriveConfig {
            log: LogConfig {
                cache_blocks: cache_mb * 256,
                ..LogConfig::default()
            },
            ..DriveConfig::default()
        };
        let fs = build(dconf);
        assert_eq!(replay(&fs, &m.create).errors, 0);
        let read = replay(&fs, &m.read);
        assert_eq!(read.errors, 0);
        println!(
            "    {cache_mb:>4} MB cache: read {:8.2}s",
            read.elapsed.as_secs_f64()
        );
    }

    // ---------------------------------------------------------- 4
    println!();
    println!("[4] readahead (creation-order read scan, cold-ish cache):");
    for ra in [1u32, 8, 32] {
        let dconf = DriveConfig {
            log: LogConfig {
                cache_blocks: 2048, // 8 MB: the scan must hit the disk
                readahead_blocks: ra,
                ..LogConfig::default()
            },
            ..DriveConfig::default()
        };
        let fs = build(dconf);
        assert_eq!(replay(&fs, &m.create).errors, 0);
        let read = replay(&fs, &m.read);
        assert_eq!(read.errors, 0);
        println!(
            "    {:>3}-block readahead: read {:8.2}s",
            ra,
            read.elapsed.as_secs_f64()
        );
    }
}

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
//!
//! `scripts/verify.sh` pins the record's phase times (simulated µs) at
//! scale 0.25 in `BENCH_ablations.json`; EXPERIMENTS.md has full scale.

use s4_bench::{banner, lan_fs, scaled, secs, timed_drive, Record, DEFAULT_DISK_BYTES};
use s4_clock::SimDuration;
use s4_core::DriveConfig;
use s4_fs::{LoopbackTransport, S4FileServer};
use s4_lfs::LogConfig;
use s4_simdisk::{MemDisk, TimedDisk};
use s4_workloads::postmark::{self, PostmarkConfig};
use s4_workloads::{micro_benchmark, MicroConfig};
use s4_workloads::{replay, FsOp};

fn build(dconf: DriveConfig) -> S4FileServer<LoopbackTransport<TimedDisk<MemDisk>>> {
    lan_fs(timed_drive(DEFAULT_DISK_BYTES, dconf), "abl")
}

fn postmark_times(dconf: DriveConfig, pm: &postmark::PostmarkPhases) -> (SimDuration, SimDuration) {
    let fs = build(dconf);
    let create = replay(&fs, &pm.create);
    let txn = replay(&fs, &pm.transactions);
    assert_eq!(create.errors + txn.errors, 0);
    (create.elapsed, txn.elapsed)
}

fn main() {
    let pm = postmark::generate(&PostmarkConfig {
        nfiles: scaled(2_000, 100),
        transactions: scaled(8_000, 400),
        ..PostmarkConfig::default()
    });

    banner(
        "Ablations: the cost of each design choice (PostMark unless noted)",
        "",
    );
    let mut record = Record::new("ablations");

    // ---------------------------------------------------------- 1
    let full = postmark_times(DriveConfig::default(), &pm);
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
        let phase = |ops: &[FsOp]| {
            let t0 = drive.now();
            for chunk in ops.chunks(1000) {
                assert_eq!(replay(&fs, chunk).errors, 0);
                drive.expire_versions().unwrap();
                drive.log().free_dead_segments();
            }
            drive.now() - t0
        };
        (phase(&pm.create), phase(&pm.transactions))
    };
    let pct = |on: SimDuration, off: SimDuration| {
        (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0
    };
    println!("[1] protection cost (versioning window + audit) vs none:");
    for (label, (create, txns)) in [("full protection", full), ("no protection  ", unprotected)] {
        println!("    {label} : create {}  txns {}", secs(create), secs(txns));
    }
    println!(
        "    overhead        : create {:+.1}%  txns {:+.1}%   (paper: <13%)",
        pct(full.0, unprotected.0),
        pct(full.1, unprotected.1)
    );
    record
        .sim("protected_create_us", full.0)
        .sim("protected_txn_us", full.1)
        .sim("unprotected_create_us", unprotected.0)
        .sim("unprotected_txn_us", unprotected.1);

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
        let (c, t) = postmark_times(dconf, &pm);
        println!(
            "    {:>4} KiB segments: create {}  txns {}",
            blocks * 4,
            secs(c),
            secs(t)
        );
        record
            .sim(format!("segment_{}k_create_us", blocks * 4), c)
            .sim(format!("segment_{}k_txn_us", blocks * 4), t);
    }

    // ---------------------------------------------------------- 3
    println!();
    println!("[3] buffer-cache size (micro-benchmark read phase):");
    let m = micro_benchmark(&MicroConfig {
        files: scaled(6_000, 200),
        ..MicroConfig::default()
    });
    // The creation-order read scan on a drive whose log is `log`.
    let read_scan = |log: LogConfig| {
        let fs = build(DriveConfig {
            log,
            ..DriveConfig::default()
        });
        assert_eq!(replay(&fs, &m.create).errors, 0);
        let read = replay(&fs, &m.read);
        assert_eq!(read.errors, 0);
        read.elapsed
    };
    for cache_mb in [2usize, 8, 32, 128] {
        let read = read_scan(LogConfig {
            cache_blocks: cache_mb * 256,
            ..LogConfig::default()
        });
        println!("    {cache_mb:>4} MB cache: read {}", secs(read));
        record.sim(format!("cache_{cache_mb}mb_read_us"), read);
    }

    // ---------------------------------------------------------- 4
    println!();
    println!("[4] readahead (creation-order read scan, cold-ish cache):");
    for ra in [1u32, 8, 32] {
        let read = read_scan(LogConfig {
            cache_blocks: 2048, // 8 MB: the scan must hit the disk
            readahead_blocks: ra,
            ..LogConfig::default()
        });
        println!("    {ra:>3}-block readahead: read {}", secs(read));
        record.sim(format!("readahead_{ra}_read_us"), read);
    }
    record.emit();
}

//! Figure 6 (and §5.1.4): auditing overhead in S4.
//!
//! Micro-benchmark: 10,000 1 KiB files in 10 directories — create, read
//! in creation order, delete in creation order — with audit logging on
//! and off. Paper results: create −2.8%, read −7.2% (audit blocks
//! interleave with data in segments, hurting read locality), delete
//! −2.9%. The macro (PostMark) penalty was 1–3%.

use s4_bench::{banner, bench_ctx, secs};
use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{DriveConfig, S4Drive};
use s4_fs::{LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};
use s4_workloads::micro::{micro_benchmark, MicroConfig};
use s4_workloads::postmark::{self, PostmarkConfig};
use s4_workloads::replay;
use std::sync::Arc;

fn build(audit: bool, cache_blocks: usize) -> S4FileServer<LoopbackTransport<TimedDisk<MemDisk>>> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = TimedDisk::new(
        MemDisk::with_capacity_bytes(1 << 30),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    );
    let mut dconf = DriveConfig {
        audit_enabled: audit,
        ..DriveConfig::default()
    };
    dconf.log.cache_blocks = cache_blocks;
    let drive = Arc::new(S4Drive::format(disk, dconf, clock).unwrap());
    S4FileServer::mount(
        LoopbackTransport::new(drive, NetworkModel::lan_100mbit()),
        bench_ctx(),
        "fig6",
        S4FsConfig::default(),
    )
    .unwrap()
}

fn main() {
    let scale = s4_bench::scale();
    let m = micro_benchmark(&MicroConfig {
        files: ((10_000.0 * scale) as usize).max(100),
        ..MicroConfig::default()
    });
    banner(
        "Figure 6: auditing overhead in S4",
        "10,000 x 1KB files in 10 dirs: create, read (creation order), delete",
    );

    // A small buffer cache so the read phase actually hits the disk (the
    // paper's effect is about on-disk layout, not cache behavior).
    let cache = 2048; // 8 MB
    let mut results = Vec::new();
    for audit in [false, true] {
        let fs = build(audit, cache);
        let t0 = s4_workloads::ops::server_time(&fs);
        let create = replay(&fs, &m.create);
        let read = replay(&fs, &m.read);
        let delete = replay(&fs, &m.delete);
        assert_eq!(create.errors + read.errors + delete.errors, 0);
        results.push((audit, create.elapsed, read.elapsed, delete.elapsed));
        let _ = t0;
    }
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "audit", "create", "read", "delete"
    );
    for (audit, c, r, d) in &results {
        println!(
            "{:<14} {:>10} {:>10} {:>10}",
            if *audit { "enabled" } else { "disabled" },
            secs(*c),
            secs(*r),
            secs(*d)
        );
    }
    let (_, c0, r0, d0) = results[0];
    let (_, c1, r1, d1) = results[1];
    let pct = |off: s4_clock::SimDuration, on: s4_clock::SimDuration| {
        (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0
    };
    println!();
    println!(
        "overhead: create {:+.1}%  read {:+.1}%  delete {:+.1}%   (paper: +2.8%, +7.2%, +2.9%)",
        pct(c0, c1),
        pct(r0, r1),
        pct(d0, d1)
    );

    // §5.1.4 macro check: PostMark with auditing on/off.
    let pm = postmark::generate(&PostmarkConfig {
        nfiles: ((2_000.0 * scale) as usize).max(100),
        transactions: ((8_000.0 * scale) as usize).max(400),
        ..PostmarkConfig::default()
    });
    let mut macro_t = Vec::new();
    for audit in [false, true] {
        let fs = build(audit, 32 * 1024);
        let create = replay(&fs, &pm.create);
        let txn = replay(&fs, &pm.transactions);
        assert_eq!(create.errors + txn.errors, 0);
        macro_t.push(create.elapsed + txn.elapsed);
    }
    println!(
        "macro (PostMark) audit overhead: {:+.1}%   (paper: 1-3%)",
        pct(macro_t[0], macro_t[1])
    );
}

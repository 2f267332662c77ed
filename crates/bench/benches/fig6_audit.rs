//! Figure 6 (and §5.1.4): auditing overhead in S4.
//!
//! Micro-benchmark: 10,000 1 KiB files in 10 directories — create, read
//! in creation order, delete in creation order — with audit logging on
//! and off. Paper results: create −2.8%, read −7.2% (audit blocks
//! interleave with data in segments, hurting read locality), delete
//! −2.9%. The macro (PostMark) penalty was 1–3%.
//!
//! `scripts/verify.sh` pins the record's phase times (simulated µs) at
//! scale 0.25 in `BENCH_fig6.json`; EXPERIMENTS.md has full scale.

use s4_bench::{banner, lan_fs, scaled, secs, timed_drive, Record, DEFAULT_DISK_BYTES};
use s4_clock::SimDuration;
use s4_core::DriveConfig;
use s4_fs::{LoopbackTransport, S4FileServer};
use s4_simdisk::{MemDisk, TimedDisk};
use s4_workloads::postmark::{self, PostmarkConfig};
use s4_workloads::replay;
use s4_workloads::{micro_benchmark, MicroConfig};

fn build(audit: bool, cache_blocks: usize) -> S4FileServer<LoopbackTransport<TimedDisk<MemDisk>>> {
    let mut dconf = DriveConfig {
        audit_enabled: audit,
        ..DriveConfig::default()
    };
    dconf.log.cache_blocks = cache_blocks;
    lan_fs(timed_drive(DEFAULT_DISK_BYTES, dconf), "fig6")
}

fn main() {
    let m = micro_benchmark(&MicroConfig {
        files: scaled(10_000, 100),
        ..MicroConfig::default()
    });
    banner(
        "Figure 6: auditing overhead in S4",
        "10,000 x 1KB files in 10 dirs: create, read (creation order), delete",
    );

    // A small buffer cache so the read phase actually hits the disk (the
    // paper's effect is about on-disk layout, not cache behavior).
    let cache = 2048; // 8 MB
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "audit", "create", "read", "delete"
    );
    let mut record = Record::new("fig6_audit");
    let audits = [
        (false, "disabled", "audit_off"),
        (true, "enabled", "audit_on"),
    ];
    let [(c0, r0, d0), (c1, r1, d1)] = audits.map(|(audit, label, key)| {
        let fs = build(audit, cache);
        let create = replay(&fs, &m.create);
        let read = replay(&fs, &m.read);
        let delete = replay(&fs, &m.delete);
        assert_eq!(create.errors + read.errors + delete.errors, 0);
        let (c, r, d) = (create.elapsed, read.elapsed, delete.elapsed);
        println!(
            "{label:<14} {:>10} {:>10} {:>10}",
            secs(c),
            secs(r),
            secs(d)
        );
        record
            .sim(format!("{key}_create_us"), c)
            .sim(format!("{key}_read_us"), r)
            .sim(format!("{key}_delete_us"), d);
        (c, r, d)
    });
    let pct = |off: SimDuration, on: SimDuration| {
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
        nfiles: scaled(2_000, 100),
        transactions: scaled(8_000, 400),
        ..PostmarkConfig::default()
    });
    let macro_t = [false, true].map(|audit| {
        let fs = build(audit, 32 * 1024);
        let create = replay(&fs, &pm.create);
        let txn = replay(&fs, &pm.transactions);
        assert_eq!(create.errors + txn.errors, 0);
        create.elapsed + txn.elapsed
    });
    println!(
        "macro (PostMark) audit overhead: {:+.1}%   (paper: 1-3%)",
        pct(macro_t[0], macro_t[1])
    );
    record
        .sim("postmark_audit_off_us", macro_t[0])
        .sim("postmark_audit_on_us", macro_t[1])
        .emit();
}

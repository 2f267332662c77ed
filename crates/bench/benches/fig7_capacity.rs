//! Figure 7: projected detection window for a 10 GB history pool.
//!
//! Reproduces both halves of §5.2: the analytical projection from the
//! three workload-study write rates (AFS 143 MB/day, NT 1 GB/day,
//! Elephant 110 MB/day) and the empirical space-efficiency factors of
//! cross-version differencing and differencing + compression, measured
//! by running the delta machinery over a synthetic daily-evolving source
//! tree (standing in for the paper's CVS checkouts). Paper: differencing
//! gave ~200% improvement, compression another ~200% (500% total), for
//! windows between 50 and 470 days.
//!
//! `scripts/verify.sh` pins the record's byte counts and windows in
//! `BENCH_fig7.json` (the workload does not scale).

use s4_bench::capacity::{figure7_rows, measure_factors};
use s4_bench::{banner, Record};
use s4_workloads::srctree::{self, SourceTreeConfig};

fn main() {
    banner(
        "Figure 7: projected detection window (10 GB history pool)",
        "write rates from the AFS / NT / Elephant workload studies",
    );

    // Empirical factors from the synthetic source-tree evolution.
    let tree = srctree::generate(&SourceTreeConfig::default());
    let m = measure_factors(&tree);
    println!(
        "measured space-efficiency factors over {} files x {} daily versions:",
        tree.files.len(),
        tree.files[0].versions.len()
    );
    println!(
        "  full copies {:>9} bytes | differencing {:>8} bytes ({:.2}x) | +compression {:>8} bytes ({:.2}x)",
        m.full_bytes,
        m.diff_bytes,
        m.diff_factor(),
        m.diff_compress_bytes,
        m.compress_factor()
    );
    println!("  paper: ~3x from differencing, ~5x adding compression");
    let mut record = Record::new("fig7_capacity");
    record
        .sim("full_bytes", m.full_bytes)
        .sim("diff_bytes", m.diff_bytes)
        .sim("diff_compress_bytes", m.diff_compress_bytes);
    println!();

    let pool_gb = 10.0;
    println!(
        "{:<10} {:>14} {:>16} {:>22}",
        "workload", "baseline days", "+differencing", "+diff+compression"
    );
    for row in figure7_rows(pool_gb, m.diff_factor(), m.compress_factor()) {
        println!(
            "{:<10} {:>14.0} {:>16.0} {:>22.0}",
            row.profile.name, row.baseline_days, row.diff_days, row.diff_compress_days
        );
        let key = row.profile.name.to_lowercase();
        record
            .sim(format!("{key}_baseline_days"), row.baseline_days)
            .sim(format!("{key}_diff_days"), row.diff_days)
            .sim(format!("{key}_diff_compress_days"), row.diff_compress_days);
    }
    println!();
    println!("paper headline: 10GB yields >70 days (AFS), 10 days (NT), >90 days");
    println!("(Elephant) baseline; 50-470 days with differencing + compression");
    record.emit();
}

//! Figure 3: PostMark creation and transaction times for the four
//! systems.
//!
//! Paper result: "The S4 systems' performance is similar to both BSD and
//! Linux NFS performance, doing slightly better due to their log
//! structured layout."
//!
//! Scale: paper-default PostMark (5,000 files, 20,000 transactions,
//! 512 B–9 KiB). Set `S4_BENCH_SCALE` (e.g. `0.1`) to shrink for smoke
//! runs.

use s4_bench::{banner, build_system, run_phase, scale, secs, SystemConfig, SystemKind};
use s4_workloads::postmark::{self, PostmarkConfig};

fn main() {
    let s = scale();
    let config = PostmarkConfig {
        nfiles: ((5_000.0 * s) as usize).max(50),
        transactions: ((20_000.0 * s) as usize).max(200),
        ..PostmarkConfig::default()
    };
    banner(
        "Figure 3: PostMark benchmark",
        &format!(
            "{} files (512B-9KB), {} transactions, equal biases",
            config.nfiles, config.transactions
        ),
    );

    let phases = postmark::generate(&config);
    println!(
        "{:<24} {:>10} {:>12} {:>10} {:>12}",
        "system", "create", "(disk wIO)", "txns", "(disk wIO)"
    );
    let mut rows = Vec::new();
    for kind in SystemKind::ALL {
        let sys = build_system(kind, &SystemConfig::default());
        let w0 = sys.disk_stats.snapshot();
        let create = run_phase(&sys, &phases.create);
        let w1 = sys.disk_stats.snapshot();
        let txn = run_phase(&sys, &phases.transactions);
        let w2 = sys.disk_stats.snapshot();
        assert_eq!(create.errors + txn.errors, 0, "{kind:?} had errors");
        println!(
            "{:<24} {:>10} {:>12} {:>10} {:>12}",
            kind.label(),
            secs(create.elapsed),
            w1.since(&w0).writes,
            secs(txn.elapsed),
            w2.since(&w1).writes,
        );
        rows.push((kind, create.elapsed, txn.elapsed));
    }

    // Paper-shape check: S4 comparable to (or better than) the
    // update-in-place baselines on the transaction phase.
    let get = |k: SystemKind| rows.iter().find(|(rk, _, _)| *rk == k).unwrap().2;
    let s4 = get(SystemKind::S4Nfs).as_secs_f64();
    let bsd = get(SystemKind::FreeBsdNfs).as_secs_f64();
    println!();
    println!(
        "S4-NFS / BSD-NFS transaction-time ratio: {:.2} (paper: ~1.0 or below)",
        s4 / bsd
    );
}

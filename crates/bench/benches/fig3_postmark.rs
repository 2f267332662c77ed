//! Figure 3: PostMark creation and transaction times for the four
//! systems.
//!
//! Paper result: "The S4 systems' performance is similar to both BSD and
//! Linux NFS performance, doing slightly better due to their log
//! structured layout."
//!
//! Scale: paper-default PostMark (5,000 files, 20,000 transactions,
//! 512 B–9 KiB). Set `S4_BENCH_SCALE` (e.g. `0.1`) to shrink for smoke
//! runs. `scripts/verify.sh` pins the record's phase times (simulated
//! µs) and disk writes at scale 0.25 in `BENCH_fig3.json`;
//! EXPERIMENTS.md has full scale.

use s4_bench::{banner, run_phases, scaled, secs, Record, SystemKind};
use s4_workloads::postmark::{self, PostmarkConfig};

fn main() {
    let config = PostmarkConfig {
        nfiles: scaled(5_000, 50),
        transactions: scaled(20_000, 200),
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
    let mut record = Record::new("fig3_postmark");
    println!(
        "{:<24} {:>10} {:>12} {:>10} {:>12}",
        "system", "create", "(disk wIO)", "txns", "(disk wIO)"
    );
    let txn_times = SystemKind::ALL.map(|kind| {
        let [(create, create_writes), (txn, txn_writes)] = run_phases(
            kind,
            [
                ("create", &phases.create[..]),
                ("txn", &phases.transactions),
            ],
            &mut record,
        );
        println!(
            "{:<24} {:>10} {:>12} {:>10} {:>12}",
            kind.label(),
            secs(create),
            create_writes,
            secs(txn),
            txn_writes,
        );
        txn
    });

    // Paper-shape check: S4 comparable to (or better than) the
    // update-in-place baselines on the transaction phase.
    let [_, s4, bsd, _] = txn_times.map(|t| t.as_secs_f64());
    println!();
    println!(
        "S4-NFS / BSD-NFS transaction-time ratio: {:.2} (paper: ~1.0 or below)",
        s4 / bsd
    );
    record.emit();
}

//! Capacity planning with the §5.2 model: how large must the history
//! pool be for a desired detection window under a given write rate?
//!
//! Run with: `cargo run --release -p s4-bench --example capacity_planning`

use s4_bench::capacity::{detection_window_days, figure7_rows, measure_factors};
use s4_workloads::profiles::ALL;
use s4_workloads::srctree::{self, SourceTreeConfig};

fn main() {
    println!("== Empirical space-efficiency factors ==");
    let tree = srctree::generate(&SourceTreeConfig {
        files: 60,
        ..SourceTreeConfig::default()
    });
    let m = measure_factors(&tree);
    println!(
        "differencing {:.2}x, differencing+compression {:.2}x (paper: ~3x / ~5x)",
        m.diff_factor(),
        m.compress_factor()
    );

    println!();
    println!("== Detection windows for a 10 GB pool (Figure 7) ==");
    for row in figure7_rows(10.0, m.diff_factor(), m.compress_factor()) {
        println!(
            "{:<10} baseline {:>5.0}d   +diff {:>5.0}d   +diff+comp {:>5.0}d",
            row.profile.name, row.baseline_days, row.diff_days, row.diff_compress_days
        );
    }

    println!();
    println!("== Pool size needed for a 30-day guaranteed window ==");
    for p in ALL {
        // Invert the model: pool = window * rate / factor.
        let days = 30.0;
        let baseline_gb = days * p.write_mb_per_day / 1024.0;
        let with_tech_gb = baseline_gb / m.compress_factor();
        println!(
            "{:<10} ({:>6.0} MB/day): {:>6.1} GB raw, {:>5.1} GB with diff+compression",
            p.name, p.write_mb_per_day, baseline_gb, with_tech_gb
        );
    }

    println!();
    println!("== Sensitivity: window vs pool size (AFS rate) ==");
    for pool_gb in [1.0, 5.0, 10.0, 20.0, 50.0] {
        println!(
            "{:>5.0} GB pool -> {:>6.0} days baseline, {:>6.0} days with diff+compression",
            pool_gb,
            detection_window_days(pool_gb, 143.0, 1.0),
            detection_window_days(pool_gb, 143.0, m.compress_factor())
        );
    }
}

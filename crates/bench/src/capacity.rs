//! The §5.2 capacity analysis: how many days of complete version history
//! fit in a history pool (Figure 7).
//!
//! The paper's projection is simple division — a history pool of `P`
//! bytes absorbing `W` bytes/day of (worst-case, all-new) write traffic
//! retains `P/W` days — lifted by the space-efficiency factors of
//! cross-version differencing (~3x measured on its CVS history) and
//! differencing + compression (~5x). This module reproduces both halves:
//!
//! * [`detection_window_days`] / [`figure7_rows`] — the analytical model
//!   with the paper's three workload-study write rates.
//! * [`measure_factors`] — empirical re-measurement of the differencing
//!   and compression factors by running the `s4-delta` machinery over a
//!   synthetic daily-evolving source tree (standing in for the paper's
//!   CVS checkouts).

use s4_delta::ChainMode;
use s4_delta::DeltaChain;
use s4_workloads::{SourceTree, WorkloadProfile};

/// Days of history a pool retains at a given write rate and
/// space-efficiency factor.
pub fn detection_window_days(pool_gb: f64, write_mb_per_day: f64, space_factor: f64) -> f64 {
    assert!(write_mb_per_day > 0.0, "write rate must be positive");
    pool_gb * 1024.0 * space_factor / write_mb_per_day
}

/// One bar group of Figure 7.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig7Row {
    /// Workload study.
    pub profile: WorkloadProfile,
    /// Days with raw versions only.
    pub baseline_days: f64,
    /// Days with cross-version differencing.
    pub diff_days: f64,
    /// Days with differencing + compression.
    pub diff_compress_days: f64,
}

/// Computes the Figure 7 projection for a pool of `pool_gb` GB using the
/// given space factors (pass measured factors from [`measure_factors`],
/// or the paper's 3.0/5.0).
pub fn figure7_rows(pool_gb: f64, diff_factor: f64, compress_factor: f64) -> Vec<Fig7Row> {
    s4_workloads::profiles::ALL
        .iter()
        .map(|p| Fig7Row {
            profile: *p,
            baseline_days: detection_window_days(pool_gb, p.write_mb_per_day, 1.0),
            diff_days: detection_window_days(pool_gb, p.write_mb_per_day, diff_factor),
            diff_compress_days: detection_window_days(pool_gb, p.write_mb_per_day, compress_factor),
        })
        .collect()
}

/// Empirically measured space-efficiency factors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasuredFactors {
    /// Bytes of history with every version whole.
    pub full_bytes: u64,
    /// Bytes after cross-version differencing.
    pub diff_bytes: u64,
    /// Bytes after differencing + compression.
    pub diff_compress_bytes: u64,
}

impl MeasuredFactors {
    /// Space-efficiency factor of differencing alone.
    pub fn diff_factor(&self) -> f64 {
        self.full_bytes as f64 / self.diff_bytes as f64
    }

    /// Space-efficiency factor of differencing + compression.
    pub fn compress_factor(&self) -> f64 {
        self.full_bytes as f64 / self.diff_compress_bytes as f64
    }
}

/// Replays every file history through reverse delta chains (raw and
/// compressed) and totals the space, reproducing the paper's Xdelta
/// experiment on its CVS tree.
pub fn measure_factors(tree: &SourceTree) -> MeasuredFactors {
    let mut full = 0u64;
    let mut diff = 0u64;
    let mut diff_comp = 0u64;
    for f in &tree.files {
        full += f.versions.iter().map(|v| v.len() as u64).sum::<u64>();
        let mut c1 = DeltaChain::new(&f.versions[0], ChainMode::Diff);
        let mut c2 = DeltaChain::new(&f.versions[0], ChainMode::DiffCompress);
        for v in &f.versions[1..] {
            c1.push(v);
            c2.push(v);
        }
        diff += c1.stored_bytes() as u64;
        diff_comp += c2.stored_bytes() as u64;
    }
    MeasuredFactors {
        full_bytes: full,
        diff_bytes: diff,
        diff_compress_bytes: diff_comp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_workloads::srctree::{self, SourceTreeConfig};
    use s4_workloads::{AFS_SERVER, ELEPHANT_FS, NT_PERSONAL};

    #[test]
    fn paper_headline_numbers() {
        // "using just 20% of a modern 50GB disk would yield over 70 days"
        // (AFS, 143 MB/day, 10 GB pool).
        let afs = detection_window_days(10.0, AFS_SERVER.write_mb_per_day, 1.0);
        assert!(afs > 70.0, "AFS baseline {afs}");
        // "Even if the writes consume 1GB per day ... 10 days worth".
        let nt = detection_window_days(10.0, NT_PERSONAL.write_mb_per_day, 1.0);
        assert!((10.0..11.0).contains(&nt), "NT baseline {nt}");
        // "In this case, over 90 days of data could be kept" (Elephant).
        let ele = detection_window_days(10.0, ELEPHANT_FS.write_mb_per_day, 1.0);
        assert!(ele > 90.0, "Elephant baseline {ele}");
    }

    #[test]
    fn figure7_with_paper_factors_spans_50_to_470_days() {
        // "a 10GB history pool can provide a detection window of between
        // 50 and 470 days" with differencing + compression.
        let rows = figure7_rows(10.0, 3.0, 5.0);
        let min = rows
            .iter()
            .map(|r| r.diff_compress_days)
            .fold(f64::MAX, f64::min);
        let max = rows
            .iter()
            .map(|r| r.diff_compress_days)
            .fold(0.0, f64::max);
        assert!((45.0..60.0).contains(&min), "min {min}");
        assert!((400.0..550.0).contains(&max), "max {max}");
    }

    #[test]
    fn measured_factors_land_in_the_papers_band() {
        let tree = srctree::generate(&SourceTreeConfig {
            files: 30,
            ..SourceTreeConfig::default()
        });
        let m = measure_factors(&tree);
        // Paper: differencing gave ~200% improvement (3x), compression
        // ~another 200% (5x total). Synthetic churn should land at 2.5x+
        // and compression must strictly add.
        assert!(m.diff_factor() > 2.5, "diff factor {}", m.diff_factor());
        assert!(
            m.compress_factor() > m.diff_factor(),
            "compress {} vs diff {}",
            m.compress_factor(),
            m.diff_factor()
        );
    }

    #[test]
    fn window_scales_linearly_with_pool_and_factor() {
        let base = detection_window_days(10.0, 143.0, 1.0);
        assert!((detection_window_days(20.0, 143.0, 1.0) - 2.0 * base).abs() < 1e-9);
        assert!((detection_window_days(10.0, 143.0, 3.0) - 3.0 * base).abs() < 1e-9);
    }
}

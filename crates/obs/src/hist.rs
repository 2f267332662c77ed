//! Log-linear latency histogram (HdrHistogram-style, much simpler).
//!
//! Values (simulated microseconds) land in one of a fixed set of
//! buckets: exact buckets for 0..3, then 4 linear sub-buckets per
//! power-of-two octave up to 2^39, plus one overflow bucket. Relative quantile error is bounded by the
//! sub-bucket width (≤ 25%), memory is constant (~1.2 KiB), and
//! recording is a single atomic increment — safe on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 4;
/// Largest octave: values in [2^MAX_OCTAVE, 2^(MAX_OCTAVE+1)) still get
/// a bucket; anything ≥ 2^(MAX_OCTAVE+1) overflows. 2^40 µs ≈ 12.7
/// simulated days, far beyond any per-request latency.
const MAX_OCTAVE: u32 = 39;
/// Index of the overflow bucket.
const OVERFLOW_BUCKET: usize = (MAX_OCTAVE as usize - 1) * SUB_BUCKETS + SUB_BUCKETS;
/// Total bucket count, including overflow.
const NUM_BUCKETS: usize = OVERFLOW_BUCKET + 1;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // floor(log2(v)), ≥ 2
    if octave > MAX_OCTAVE {
        return OVERFLOW_BUCKET;
    }
    let base = 1u64 << octave;
    let sub = ((v - base) * SUB_BUCKETS as u64 / base) as usize;
    (octave as usize - 1) * SUB_BUCKETS + sub
}

/// Largest value that maps to bucket `i` (the bucket's inclusive upper
/// bound); quantile queries report this bound.
fn bucket_upper_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    if i >= OVERFLOW_BUCKET {
        return u64::MAX;
    }
    let octave = (i / SUB_BUCKETS + 1) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    let base = 1u64 << octave;
    let width = base / SUB_BUCKETS as u64;
    base + (sub + 1) * width - 1
}

struct Inner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Shared-handle histogram: clones observe the same buckets.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Default for Histogram {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        Histogram {
            inner: Arc::new(Inner {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// Records one value (relaxed atomics; totals are eventually
    /// consistent across threads, exact under the single-threaded
    /// simulation).
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (0 < p ≤ 1), or 0 when empty. The overflow bucket reports the
    /// recorded maximum instead of `u64::MAX`.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                if i == OVERFLOW_BUCKET {
                    return self.max();
                }
                return bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_consistent() {
        // Every bucket's upper bound maps back into that bucket, and
        // upper bound + 1 maps into the next.
        for i in 0..OVERFLOW_BUCKET {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(ub + 1), i + 1, "successor of bucket {i}");
        }
        // Indices are monotone over a dense range.
        let mut last = 0;
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(i >= last, "bucket_index must be monotone at {v}");
            last = i;
        }
    }

    #[test]
    fn octave_math_spot_checks() {
        assert_eq!(bucket_index(4), SUB_BUCKETS); // first octave bucket
        assert_eq!(bucket_index(7), SUB_BUCKETS + 3);
        assert_eq!(bucket_index(8), 2 * SUB_BUCKETS);
        assert_eq!(bucket_index(15), 2 * SUB_BUCKETS + 3);
        assert_eq!(bucket_upper_bound(2 * SUB_BUCKETS), 9); // [8,9]
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        assert_eq!(bucket_index(u64::MAX), OVERFLOW_BUCKET);
        assert_eq!(bucket_index(1u64 << (MAX_OCTAVE + 1)), OVERFLOW_BUCKET);
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Overflow percentile reports the true max, not u64::MAX-as-bound.
        assert_eq!(h.percentile(0.5), u64::MAX);
    }

    #[test]
    fn percentiles_bound_true_quantiles() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // Bucketed quantiles over-approximate by at most one sub-bucket
        // width (≤ 25% relative).
        for (p, true_q) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let est = h.percentile(p);
            assert!(est >= true_q, "p{p}: {est} < {true_q}");
            assert!(est as f64 <= true_q as f64 * 1.25 + 1.0, "p{p}: {est}");
        }
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
    }
}

//! Named-metric registry with a Prometheus-style text exposition.
//!
//! Names follow Prometheus conventions (`s4_requests_total`,
//! `s4_rpc_latency_us`). The registry hands out shared handles —
//! [`Counter`], [`Gauge`], [`Histogram`] — that record without taking
//! the registry lock; the lock is only held to register and to render.
//! `BTreeMap` keeps exposition output deterministically ordered.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;

/// Monotonic counter handle (clones share the same cell).
#[derive(Clone, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Float gauge handle (f64 bits in an atomic; clones share the cell).
#[derive(Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        // Non-finite values clamp to zero: every series is a number.
        let v = if v.is_finite() { v } else { 0.0 };
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Adds `delta` to the gauge (compare-and-swap loop; gauges are
    /// read-mostly, so contention is negligible). Migration progress
    /// gauges use this to accumulate copied objects across rounds.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f64::from_bits(cur) + delta;
            let next = if next.is_finite() { next } else { 0.0 };
            match self.bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(v) => cur = v,
            }
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    help: &'static str,
    metric: Metric,
}

/// Point-in-time view of one histogram: count, sum and the quantile
/// bounds its summary series report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// Point-in-time value of one metric. Both expositions — a lone
/// drive's registry and an array's shard-labeled aggregate — render
/// their series from this, so a family is the same series in both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sample {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

impl Sample {
    /// The family's Prometheus `# TYPE` (histograms render as summaries).
    pub fn type_name(&self) -> &'static str {
        match self {
            Sample::Counter(_) => "counter",
            Sample::Gauge(_) => "gauge",
            Sample::Histogram(_) => "summary",
        }
    }

    /// Appends this value's series of family `name` in Prometheus text,
    /// each carrying `label` (`shard="3"`) if there is one: `name value`,
    /// or for a histogram `name{quantile="…"}` lines (0.5 / 0.9 / 0.99 /
    /// 1 = max) plus `name_sum` / `name_count`.
    pub fn write_prometheus(&self, out: &mut String, name: &str, label: Option<&str>) {
        let braced = label.map(|l| format!("{{{l}}}")).unwrap_or_default();
        match self {
            Sample::Counter(v) => {
                let _ = writeln!(out, "{name}{braced} {v}");
            }
            Sample::Gauge(v) => {
                let _ = writeln!(out, "{name}{braced} {v}");
            }
            Sample::Histogram(h) => {
                let lead = label.map(|l| format!("{l},")).unwrap_or_default();
                for (q, v) in [
                    ("0.5", h.p50),
                    ("0.9", h.p90),
                    ("0.99", h.p99),
                    ("1", h.max),
                ] {
                    let _ = writeln!(out, "{name}{{{lead}quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "{name}_sum{braced} {}", h.sum);
                let _ = writeln!(out, "{name}_count{braced} {}", h.count);
            }
        }
    }
}

/// The registry itself; cheap to clone (shared map).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Entry>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) a counter by name. Re-registering the
    /// same name returns the existing handle, so layers can look
    /// metrics up idempotently.
    pub fn counter(&self, name: &str, help: &'static str) -> Counter {
        let mut map = self.inner.lock().unwrap();
        match &map
            .entry(name.to_string())
            .or_insert_with(|| Entry {
                help,
                metric: Metric::Counter(Counter::default()),
            })
            .metric
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Registers (or retrieves) a gauge by name.
    pub fn gauge(&self, name: &str, help: &'static str) -> Gauge {
        let mut map = self.inner.lock().unwrap();
        match &map
            .entry(name.to_string())
            .or_insert_with(|| Entry {
                help,
                metric: Metric::Gauge(Gauge::default()),
            })
            .metric
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Registers (or retrieves) a histogram by name.
    pub fn histogram(&self, name: &str, help: &'static str) -> Histogram {
        let mut map = self.inner.lock().unwrap();
        match &map
            .entry(name.to_string())
            .or_insert_with(|| Entry {
                help,
                metric: Metric::Histogram(Histogram::default()),
            })
            .metric
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Snapshot of every registered counter as `(name, value)`,
    /// name-ordered — array aggregation sums these across shards.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let map = self.inner.lock().unwrap();
        map.iter()
            .filter_map(|(name, e)| match &e.metric {
                Metric::Counter(c) => Some((name.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Snapshot of every registered metric as `(name, help, value)`,
    /// name-ordered — what the expositions, here and in an array's
    /// aggregate, are rendered from.
    pub fn samples(&self) -> Vec<(String, &'static str, Sample)> {
        let map = self.inner.lock().unwrap();
        map.iter()
            .map(|(name, e)| {
                let sample = match &e.metric {
                    Metric::Counter(c) => Sample::Counter(c.get()),
                    Metric::Gauge(g) => Sample::Gauge(g.get()),
                    Metric::Histogram(h) => Sample::Histogram(HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        p50: h.percentile(0.5),
                        p90: h.percentile(0.9),
                        p99: h.percentile(0.99),
                        max: h.max(),
                    }),
                };
                (name.clone(), e.help, sample)
            })
            .collect()
    }

    /// Prometheus text exposition: `# HELP`, `# TYPE` and the series of
    /// [`Sample::write_prometheus`] per metric.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, sample) in self.samples() {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", sample.type_name());
            sample.write_prometheus(&mut out, &name, None);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("s4_requests_total", "requests");
        c.add(3);
        r.counter("s4_requests_total", "requests").add(1);
        assert_eq!(c.get(), 4, "re-registration returns the same cell");
        let g = r.gauge("s4_occupancy", "fraction");
        g.set(0.25);
        assert_eq!(r.gauge("s4_occupancy", "fraction").get(), 0.25);
        g.set(f64::NAN);
        assert_eq!(g.get(), 0.0, "non-finite values clamp to zero");
    }

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::new();
        r.counter("s4_b_total", "b counter").add(7);
        r.gauge("s4_a_gauge", "a gauge").set(1.5);
        let h = r.histogram("s4_lat_us", "latency");
        h.record(10);
        h.record(20);
        let text = r.render_prometheus();
        // BTreeMap ordering: gauge (a) before counter (b) before hist (lat).
        let ia = text.find("s4_a_gauge 1.5").unwrap();
        let ib = text.find("s4_b_total 7").unwrap();
        assert!(ia < ib);
        assert!(text.contains("# TYPE s4_b_total counter"));
        assert!(text.contains("# TYPE s4_lat_us summary"));
        assert!(text.contains("s4_lat_us{quantile=\"0.99\"}"));
        assert!(text.contains("s4_lat_us_sum 30"));
        assert!(text.contains("s4_lat_us_count 2"));
    }

    #[test]
    fn value_snapshots_enumerate_by_type() {
        let r = Registry::new();
        r.counter("s4_b_total", "b").add(7);
        r.counter("s4_a_total", "a").add(3);
        r.gauge("s4_g", "g").set(1.5);
        r.histogram("s4_h_us", "h").record(10);
        assert_eq!(
            r.counter_values(),
            vec![("s4_a_total".into(), 3), ("s4_b_total".into(), 7)]
        );
    }

    #[test]
    fn samples_snapshot_every_metric_with_percentiles() {
        let r = Registry::new();
        let h = r.histogram("s4_lat_us", "lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        r.counter("s4_c_total", "c").add(1);
        let vals = r.samples();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0], ("s4_c_total".into(), "c", Sample::Counter(1)));
        let (name, _, Sample::Histogram(snap)) = &vals[1] else {
            panic!("not a histogram: {:?}", vals[1]);
        };
        assert_eq!(name, "s4_lat_us");
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        assert!(snap.p50 >= 50 && snap.p50 <= 63, "p50 = {}", snap.p50);
        assert!(snap.p99 >= 99, "p99 = {}", snap.p99);
    }
}

//! Aggregated observability over the member drives' registries.
//!
//! Each shard keeps its own [`s4_obs::Registry`]; the array renders one
//! exposition with a per-shard breakdown plus array totals. Counters
//! and gauges sum across shards (both are per-drive magnitudes: request
//! counts, occupancy blocks, queue depths); histograms never sum —
//! quantiles of quantiles are meaningless — so both expositions carry
//! them shard-labeled (percentile summaries per shard, no synthesized
//! total).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use s4_core::S4Drive;
use s4_obs::HistogramSnapshot;
use s4_simdisk::BlockDev;

use crate::array::S4Array;

/// Every shard's samples of one metric kind, by metric name: one
/// `(slot, value)` per shard, in dense shard order.
type Samples<V> = BTreeMap<String, Vec<(usize, V)>>;

/// Value of metric `name` in a registry's counter or gauge listing;
/// zero if it was never touched.
fn get<V: Copy + Default>(values: &[(String, V)], name: &str) -> V {
    values
        .iter()
        .find(|(n, _)| n == name)
        .map_or(V::default(), |(_, v)| *v)
}

/// The aggregate's `"name":sum` members: counters and gauges are
/// per-drive magnitudes, so they add up across shards.
fn summed<V: Copy + std::fmt::Display + std::iter::Sum>(samples: &Samples<V>) -> String {
    let sums = samples
        .iter()
        .map(|(name, s)| format!("\"{name}\":{}", s.iter().map(|(_, v)| *v).sum::<V>()));
    sums.collect::<Vec<_>>().join(",")
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// Reads every shard's registry (its first live member's) after
    /// `refresh` has made the drive bring its operational gauges up to
    /// date.
    fn gather(
        &self,
        mut refresh: impl FnMut(&S4Drive<D>),
    ) -> (Samples<u64>, Samples<f64>, Samples<HistogramSnapshot>) {
        let (mut counters, mut gauges, mut hists) =
            (Samples::new(), Samples::new(), Samples::new());
        for s in 0..self.shard_count() {
            let drive = self.shard_drive(s);
            let slot = self.shard_slot(s);
            refresh(&drive);
            for (name, v) in drive.registry().counter_values() {
                counters.entry(name).or_default().push((slot, v));
            }
            for (name, v) in drive.registry().gauge_values() {
                gauges.entry(name).or_default().push((slot, v));
            }
            for (name, v) in drive.registry().histogram_values() {
                hists.entry(name).or_default().push((slot, v));
            }
        }
        (counters, gauges, hists)
    }

    /// Prometheus-style text exposition: one `name{shard="i"}` sample
    /// per member drive plus an unlabeled array total per name.
    pub fn metrics_text(&self) -> String {
        let n = self.shard_count();
        let (counters, gauges, hists) = self.gather(|drive| {
            drive.metrics_text();
        });
        let mut out = String::new();
        let _ = writeln!(out, "# HELP s4_array_shards mirror groups in the array");
        let _ = writeln!(out, "# TYPE s4_array_shards gauge");
        let _ = writeln!(out, "s4_array_shards {n}");
        let _ = writeln!(out, "# HELP s4_array_mirrors member drives per shard");
        let _ = writeln!(out, "# TYPE s4_array_mirrors gauge");
        let _ = writeln!(out, "s4_array_mirrors {}", self.mirror_count());
        let _ = writeln!(
            out,
            "# HELP s4_array_degraded shard running with reduced redundancy (dead or read-only member)"
        );
        let _ = writeln!(out, "# TYPE s4_array_degraded gauge");
        let mut degraded_total = 0u64;
        for s in 0..n {
            let d = u64::from(self.shard_degraded(s));
            let slot = self.shard_slot(s);
            degraded_total += d;
            let _ = writeln!(out, "s4_array_degraded{{shard=\"{slot}\"}} {d}");
        }
        let _ = writeln!(out, "s4_array_degraded {degraded_total}");
        for (name, samples) in &counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let mut total = 0u64;
            for (s, v) in samples {
                total += v;
                let _ = writeln!(out, "{name}{{shard=\"{s}\"}} {v}");
            }
            let _ = writeln!(out, "{name} {total}");
        }
        for (name, samples) in &gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let mut total = 0.0f64;
            for (s, v) in samples {
                total += v;
                let _ = writeln!(out, "{name}{{shard=\"{s}\"}} {v}");
            }
            let _ = writeln!(out, "{name} {total}");
        }
        // Histograms stay per shard: quantiles do not sum, so each
        // shard's summary is exported under its own label and no
        // unlabeled total is synthesized.
        for (name, samples) in &hists {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (s, h) in samples {
                for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                    let _ = writeln!(out, "{name}{{shard=\"{s}\",quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "{name}_count{{shard=\"{s}\"}} {}", h.count);
                let _ = writeln!(out, "{name}_max{{shard=\"{s}\"}} {}", h.max);
            }
        }
        // Reshard progress (migration gauges, lag, flip pauses) and
        // cross-shard transaction outcomes live in array-level
        // registries, not on any member drive.
        out.push_str(&self.reshard_registry().render_prometheus());
        out.push_str(&self.txn_registry().render_prometheus());
        out
    }

    /// One-line cross-shard transaction status: coordinator outcome
    /// counters plus mount-time recovery counts (served on the TCP txn
    /// frame).
    pub fn txn_status_text(&self) -> String {
        let counters = self.txn_registry().counter_values();
        format!(
            "committed={} aborted={} lagging={} recovered_commit={} recovered_abort={}",
            get(&counters, "s4_txn_committed_total"),
            get(&counters, "s4_txn_aborted_total"),
            get(&counters, "s4_txn_lagging_total"),
            get(&counters, "s4_txn_recovered_commit_total"),
            get(&counters, "s4_txn_recovered_abort_total"),
        )
    }

    /// One-line reshard status: the routing epoch plus the progress
    /// gauges of any in-flight split (served on the TCP reshard frame).
    pub fn reshard_status_text(&self) -> String {
        let gauges = self.reshard_registry().gauge_values();
        let e = self.epoch();
        format!(
            "epoch seq={} base={} bits={:#b} active={} source_slot={} snapshot={} catchup={} lag={} rounds={}",
            e.seq,
            e.base,
            e.bits,
            get(&gauges, "s4_reshard_active") as u64,
            get(&gauges, "s4_reshard_source_slot") as u64,
            get(&gauges, "s4_reshard_snapshot_objects") as u64,
            get(&gauges, "s4_reshard_catchup_objects") as u64,
            get(&gauges, "s4_reshard_lag") as u64,
            get(&gauges, "s4_reshard_rounds") as u64,
        )
    }

    /// JSON exposition:
    /// `{"shards":N,"shard_metrics":[…],"aggregate":{"counters":…,"gauges":…,"histograms":…}}`
    /// where `shard_metrics[i]` is shard `i`'s full single-drive
    /// document, `aggregate` sums counters and gauges across shards,
    /// and `aggregate.histograms` carries each histogram's percentile
    /// snapshot per shard label (quantiles do not sum).
    pub fn metrics_json(&self) -> String {
        let n = self.shard_count();
        let mut per_shard = Vec::with_capacity(n);
        let (counters, gauges, hists) = self.gather(|drive| per_shard.push(drive.metrics_json()));
        // Quantiles do not sum, so the aggregate keeps histograms
        // shard-labeled: {"name":{"<slot>":{count,p50,p90,p99,max}}}.
        let histograms = hists
            .iter()
            .map(|(name, samples)| {
                let per = samples
                    .iter()
                    .map(|(s, h)| {
                        format!(
                            "\"{s}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                            h.count, h.p50, h.p90, h.p99, h.max
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!("\"{name}\":{{{per}}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        let (counters, gauges) = (summed(&counters), summed(&gauges));
        let degraded = (0..n)
            .map(|s| if self.shard_degraded(s) { "1" } else { "0" })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"shards\":{n},\"mirrors\":{},\"degraded\":[{degraded}],\"reshard\":{},\"txn\":{},\"shard_metrics\":[{}],\"aggregate\":{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}}}",
            self.mirror_count(),
            self.reshard_registry().render_json(),
            self.txn_registry().render_json(),
            per_shard.join(",")
        )
    }
}

//! Aggregated observability over the member drives' registries.
//!
//! Each shard keeps its own [`s4_obs::Registry`]; the array renders one
//! exposition in which every family a lone drive exposes appears as the
//! same series ([`Sample::write_prometheus`], [`Sample::to_json`]) with a
//! `shard` label, plus an array total for counters and gauges (both are
//! per-drive magnitudes: request counts, occupancy blocks, queue
//! depths). Histograms never sum — quantiles of quantiles are
//! meaningless — so they are shard-labeled only.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use s4_core::S4Drive;
use s4_obs::Sample;
use s4_simdisk::BlockDev;

use crate::array::S4Array;

/// Every member family by name: its help text and one `(slot, value)`
/// per shard, in dense shard order.
type Families = BTreeMap<String, (&'static str, Vec<(usize, Sample)>)>;

/// Value of counter `name` in a registry's counter listing; zero if it
/// was never touched.
fn get(values: &[(String, u64)], name: &str) -> u64 {
    values
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// The array total of one family: the sum of its shards' counters or
/// gauges, none for a histogram.
fn total(samples: &[(usize, Sample)]) -> Option<Sample> {
    let summable = samples.iter().map(|&(_, s)| match s {
        Sample::Histogram(_) => None,
        s => Some(s),
    });
    let sum = summable.reduce(|a, b| match (a?, b?) {
        (Sample::Counter(x), Sample::Counter(y)) => Some(Sample::Counter(x + y)),
        (Sample::Gauge(x), Sample::Gauge(y)) => Some(Sample::Gauge(x + y)),
        _ => None,
    });
    sum.flatten()
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// Reads every shard's registry (its first live member's) after
    /// `refresh` has made the drive bring its operational gauges up to
    /// date.
    fn gather(&self, mut refresh: impl FnMut(&S4Drive<D>)) -> Families {
        let mut families = Families::new();
        for s in 0..self.shard_count() {
            let drive = self.shard_drive(s);
            let slot = self.shard_slot(s);
            refresh(&drive);
            for (name, help, sample) in drive.registry().samples() {
                let family = families.entry(name).or_insert((help, Vec::new()));
                family.1.push((slot, sample));
            }
        }
        families
    }

    /// Prometheus-style text exposition: one `name{shard="i"}` sample
    /// per member drive plus an unlabeled array total per name.
    pub fn metrics_text(&self) -> String {
        let mut families = self.gather(S4Drive::refresh_gauges);
        let degraded = (0..self.shard_count())
            .map(|s| {
                let degraded = f64::from(u8::from(self.shard_degraded(s)));
                (self.shard_slot(s), Sample::Gauge(degraded))
            })
            .collect();
        let help = "shard running with reduced redundancy (dead or read-only member)";
        families.insert("s4_array_degraded".into(), (help, degraded));
        let mut out = String::new();
        let _ = writeln!(out, "# HELP s4_array_shards mirror groups in the array");
        let _ = writeln!(out, "# TYPE s4_array_shards gauge");
        let _ = writeln!(out, "s4_array_shards {}", self.shard_count());
        let _ = writeln!(out, "# HELP s4_array_mirrors member drives per shard");
        let _ = writeln!(out, "# TYPE s4_array_mirrors gauge");
        let _ = writeln!(out, "s4_array_mirrors {}", self.mirror_count());
        for (name, (help, samples)) in &families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", samples[0].1.type_name());
            for (slot, sample) in samples {
                sample.write_prometheus(&mut out, name, Some(&format!("shard=\"{slot}\"")));
            }
            if let Some(total) = total(samples) {
                total.write_prometheus(&mut out, name, None);
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
    /// counters, mount-time recovery counts, and the decision notes
    /// shard 0 still holds (served on the TCP txn frame).
    pub fn txn_status_text(&self) -> String {
        let counters = self.txn_registry().counter_values();
        format!(
            "committed={} aborted={} lagging={} recovered_commit={} recovered_abort={} unretired={}",
            get(&counters, "s4_txn_committed_total"),
            get(&counters, "s4_txn_aborted_total"),
            get(&counters, "s4_txn_lagging_total"),
            get(&counters, "s4_txn_recovered_commit_total"),
            get(&counters, "s4_txn_recovered_abort_total"),
            self.txn_notes.lock().len(),
        )
    }

    /// One-line reshard status: the routing epoch plus the progress
    /// gauges of any in-flight split (served on the TCP reshard frame).
    pub fn reshard_status_text(&self) -> String {
        let samples = self.reshard_registry().samples();
        let gauge = |name| match samples.iter().find(|(n, ..)| n == name) {
            Some((_, _, Sample::Gauge(v))) => *v as u64,
            _ => 0,
        };
        let e = self.epoch();
        format!(
            "epoch seq={} base={} bits={:#b} active={} source_slot={} snapshot={} catchup={} lag={} rounds={}",
            e.seq,
            e.base,
            e.bits,
            gauge("s4_reshard_active"),
            gauge("s4_reshard_source_slot"),
            gauge("s4_reshard_snapshot_objects"),
            gauge("s4_reshard_catchup_objects"),
            gauge("s4_reshard_lag"),
            gauge("s4_reshard_rounds"),
        )
    }

    /// JSON exposition:
    /// `{"shards":N,"shard_metrics":[…],"aggregate":{"counters":…,"gauges":…,"histograms":…}}`
    /// where `shard_metrics[i]` is shard `i`'s full single-drive
    /// document, `aggregate` sums counters and gauges across shards,
    /// and `aggregate.histograms` carries each histogram's single-drive
    /// object per shard label: `{"name":{"<slot>":{…}}}`.
    pub fn metrics_json(&self) -> String {
        let n = self.shard_count();
        let mut per_shard = Vec::with_capacity(n);
        let families = self.gather(|drive| per_shard.push(drive.metrics_json()));
        let (mut counters, mut gauges, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
        for (name, (_, samples)) in &families {
            let (group, value) = match total(samples) {
                Some(sum @ Sample::Counter(_)) => (&mut counters, sum.to_json()),
                Some(sum) => (&mut gauges, sum.to_json()),
                None => {
                    let per = samples
                        .iter()
                        .map(|(slot, h)| format!("\"{slot}\":{}", h.to_json()));
                    let per = per.collect::<Vec<_>>().join(",");
                    (&mut histograms, format!("{{{per}}}"))
                }
            };
            group.push(format!("\"{name}\":{value}"));
        }
        let [counters, gauges, histograms] = [counters, gauges, histograms].map(|g| g.join(","));
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

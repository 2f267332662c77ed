//! Aggregated observability over the member drives' registries.
//!
//! Each shard keeps its own [`s4_obs::Registry`]; the array renders one
//! Prometheus text exposition in which every family a lone drive
//! exposes appears as the same series ([`Sample::write_prometheus`])
//! with a `shard` label, plus an unlabeled array total for counters
//! (request counts, bytes, blocks: per-drive magnitudes that add up).
//! Gauges are per-drive levels — occupancy fractions, the detection
//! window, queue depths — and two shards keeping a 7-day window do not
//! make a 14-day array; histograms never sum either (quantiles of
//! quantiles are meaningless). Both are shard-labeled only.

use std::collections::BTreeMap;
use std::fmt::Write as _;

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

/// The array total of one family: the sum of its shards' counters,
/// none for a gauge or a histogram.
fn total(samples: &[(usize, Sample)]) -> Option<Sample> {
    let counts = samples.iter().map(|&(_, s)| match s {
        Sample::Counter(v) => Some(v),
        _ => None,
    });
    counts.sum::<Option<u64>>().map(Sample::Counter)
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// Reads every shard's registry (its first live member's) after
    /// the drive has brought its operational gauges up to date.
    fn gather(&self) -> Families {
        let mut families = Families::new();
        for s in 0..self.shard_count() {
            let drive = self.shard_drive(s);
            let slot = self.shard_slot(s);
            drive.refresh_gauges();
            for (name, help, sample) in drive.registry().samples() {
                let family = families.entry(name).or_insert((help, Vec::new()));
                family.1.push((slot, sample));
            }
        }
        families
    }

    /// Prometheus-style text exposition: one `name{shard="i"}` sample
    /// per member drive plus an unlabeled array total per counter.
    pub fn metrics_text(&self) -> String {
        let mut families = self.gather();
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
}

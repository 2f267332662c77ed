//! The metric and workload tables: every name the benchmark reports,
//! with its unit, which direction is better, which group of
//! `BENCHMARK.json` it belongs to, and how its value is formed from the
//! repetitions of a run. A unit test holds this table and
//! `BENCHMARK.json` to each other.

/// The four workloads; names are the contract.
pub const WORKLOADS: [&str; 4] = [
    "nfs_postmark_tcp",
    "rpc_read_hot",
    "rpc_write_sync_mirror",
    "drive_churn_recover",
];

/// The issue's ten end-to-end metrics, which `compare` judges on every
/// workload where they are defined, with the bound `seed_spread.json`
/// records for the (metric, workload) pair.
pub const CLAIMS: [&str; 10] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "batch_p50_us",
    "failed_frac",
    "cpu_us_per_op",
    "peak_rss_mb",
    "write_amp",
    "recover_objs_per_s",
    "remount_s",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Gated: printed with `--trace 0`.
    EndToEnd,
    /// Ungated: printed with `--trace 1`.
    PerLayer,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// Median over repetitions of the per-repetition value.
    Reps,
    /// Percentile of the latency samples of one class, pooled over
    /// repetitions, scaled from nanoseconds by `per`.
    Pooled {
        class: &'static str,
        pct: f64,
        per: f64,
    },
    /// Sum over repetitions of the per-repetition value `num` divided by
    /// the sum of `den`: for a numerator too coarse to rate one
    /// repetition (CPU time comes in 10 ms ticks; a PostMark repetition
    /// is some twenty transactions of different kinds).
    Ratio {
        num: &'static str,
        den: &'static str,
    },
    /// Sum over repetitions of the per-repetition value.
    Sum,
    /// Number of pooled `op` samples.
    SampleCount,
    /// `VmHWM` when the run ends.
    PeakRss,
    /// 1 − traced ÷ untraced `ops_per_s`.
    TraceOverhead,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; `compare` takes it from `BENCHMARK.json`,
    /// which the unit test holds to this.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    pub group: Group,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        group: Group::EndToEnd,
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        group: Group::PerLayer,
        source,
    }
}

const fn pooled_us(class: &'static str, pct: f64) -> Source {
    Source::Pooled {
        class,
        pct,
        per: 1e3,
    }
}

use Source::Reps;

pub const METRICS: &[MetricDef] = &[
    // ---- gated by the driver: defined and non-zero on every workload,
    //      and steady here whatever the hypervisor does to the clock ----
    e2e("setup_s", "s", "lower", Reps),
    e2e(
        "disk_bytes_per_op",
        "B",
        "lower",
        Source::Ratio {
            num: "disk_bytes",
            den: "ops",
        },
    ),
    e2e(
        "disk_ios_per_op",
        "count",
        "lower",
        Source::Ratio {
            num: "disk_ios",
            den: "ops",
        },
    ),
    // ---- the issue's other end-to-end metrics: zero or undefined on
    //      some workload, or too unsteady on this sandbox for the
    //      driver's gate; `compare` gates them pair by pair ------------
    layer("ops_per_s", "ops/s", "higher", Reps),
    layer("op_p50_us", "us", "lower", pooled_us("op", 50.0)),
    layer("batch_p50_us", "us", "lower", pooled_us("batch", 50.0)),
    layer("failed_frac", "ratio", "lower", Reps),
    layer(
        "cpu_us_per_op",
        "us",
        "lower",
        Source::Ratio {
            num: "cpu_us",
            den: "ops",
        },
    ),
    layer("peak_rss_mb", "MiB", "lower", Source::PeakRss),
    layer("write_amp", "ratio", "lower", Reps),
    layer("recover_objs_per_s", "objs/s", "higher", Reps),
    layer("remount_s", "s", "lower", Reps),
    // ---- client ----------------------------------------------------------
    layer("client.samples", "count", "higher", Source::SampleCount),
    layer("client.op_p99_us", "us", "lower", pooled_us("op", 99.0)),
    layer("client.op_p999_us", "us", "lower", pooled_us("op", 99.9)),
    layer("client.op_max_us", "us", "lower", pooled_us("op", 100.0)),
    layer("client.read_p50_us", "us", "lower", pooled_us("read", 50.0)),
    layer(
        "client.write_p50_us",
        "us",
        "lower",
        pooled_us("write", 50.0),
    ),
    layer("client.sync_p50_us", "us", "lower", pooled_us("sync", 50.0)),
    layer(
        "client.histread_p50_us",
        "us",
        "lower",
        pooled_us("histread", 50.0),
    ),
    layer("client.audit_scan_recs_per_s", "recs/s", "higher", Reps),
    // ---- fs::s4fs --------------------------------------------------------
    layer("s4fs.rpcs_per_op", "count", "lower", Reps),
    layer("s4fs.self_us_per_op", "us", "lower", Reps),
    // ---- fs::tcp ---------------------------------------------------------
    layer("tcp.self_us_per_rpc", "us", "lower", Reps),
    layer("tcp.req_bytes_per_rpc", "B", "lower", Reps),
    layer("tcp.rpcs_per_s", "1/s", "higher", Reps),
    // ---- array -----------------------------------------------------------
    layer("array.handle_us_per_rpc", "us", "lower", Reps),
    layer("array.hop_p50_us", "us", "lower", Reps),
    layer("array.hop_mean_us", "us", "lower", Reps),
    layer("array.member_rpcs_per_client_rpc", "count", "lower", Reps),
    layer("array.txn_per_op", "count", "lower", Reps),
    layer("array.txn_aborted_frac", "ratio", "lower", Reps),
    layer("proc.vol_ctx_switches_per_op", "count", "lower", Reps),
    layer("proc.steal_frac", "ratio", "lower", Reps),
    // ---- core ------------------------------------------------------------
    layer("core.dispatch_us_per_rpc", "us", "lower", Reps),
    layer("core.self_us_per_rpc", "us", "lower", Reps),
    layer("core.log_flushes_per_op", "count", "lower", Reps),
    layer("core.versions_per_op", "count", "lower", Reps),
    layer("core.checkpoints_per_op", "count", "lower", Reps),
    layer("core.audit_blocks_per_kop", "count", "lower", Reps),
    layer("core.anchors_per_kop", "count", "lower", Reps),
    layer("core.anchor_max_ms", "ms", "lower", Reps),
    layer("core.histread_bad_blocks", "count", "lower", Source::Sum),
    layer("core.remount_bad_blocks", "count", "lower", Source::Sum),
    layer("core.expire_mount_lost_versions", "count", "lower", Reps),
    // ---- journal ---------------------------------------------------------
    layer("journal.sectors_per_op", "count", "lower", Reps),
    layer("journal.encode_ns_per_entry", "ns", "lower", Reps),
    layer("journal.decode_ns_per_entry", "ns", "lower", Reps),
    layer("journal.reconstruct_ns_per_entry", "ns", "lower", Reps),
    // ---- lfs -------------------------------------------------------------
    layer("lfs.flush_self_us", "us", "lower", Reps),
    layer("lfs.cleaner_time_frac", "ratio", "lower", Reps),
    layer(
        "lfs.clean_call_p99_ms",
        "ms",
        "lower",
        Source::Pooled {
            class: "clean",
            pct: 99.0,
            per: 1e6,
        },
    ),
    layer("lfs.relocated_blocks_per_kop", "count", "lower", Reps),
    layer("lfs.segments_reclaimed_per_kop", "count", "higher", Reps),
    layer("lfs.free_segments_min", "count", "higher", Reps),
    layer("lfs.utilization_end", "ratio", "lower", Reps),
    layer("lfs.mount_replayed_batches", "count", "lower", Reps),
    // ---- simdisk (the sandbox's page cache, not a device) ---------------
    layer("simdisk.busy_us_per_op", "us", "lower", Reps),
    layer("simdisk.write_call_p50_us", "us", "lower", Reps),
    layer("simdisk.writes_per_op", "count", "lower", Reps),
    layer("simdisk.write_bytes_per_op", "B", "lower", Reps),
    layer("simdisk.reads_per_op", "count", "lower", Reps),
    layer("simdisk.read_bytes_per_op", "B", "lower", Reps),
    layer("simdisk.dev_syncs_per_sync_rpc", "ratio", "higher", Reps),
    // ---- sim: the Cheetah model beside the wall clock --------------------
    layer("sim.disk_busy_us_per_op", "us", "lower", Reps),
    layer("sim.ops_per_sim_s", "ops/s", "higher", Reps),
    // ---- trace -----------------------------------------------------------
    layer(
        "trace.overhead_frac",
        "ratio",
        "lower",
        Source::TraceOverhead,
    ),
    layer("trace.spans", "count", "lower", Reps),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn spec_file() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    /// `BENCHMARK.json` and this table list the same metrics, in the
    /// same groups, with the same units and directions, and the same
    /// workloads.
    #[test]
    fn benchmark_json_agrees_with_the_table() {
        let spec = spec_file();
        for (key, group) in [
            ("end_to_end", Group::EndToEnd),
            ("per_layer", Group::PerLayer),
        ] {
            let listed = spec.get(key).and_then(Value::as_arr).expect(key);
            let ours: Vec<&MetricDef> = METRICS.iter().filter(|m| m.group == group).collect();
            assert_eq!(listed.len(), ours.len(), "{key} count");
            for (theirs, ours) in listed.iter().zip(ours) {
                assert_eq!(theirs.get("name").and_then(Value::as_str), Some(ours.name));
                assert_eq!(
                    theirs.get("unit").and_then(Value::as_str),
                    Some(ours.unit),
                    "{}",
                    ours.name
                );
                assert_eq!(
                    theirs.get("better").and_then(Value::as_str),
                    Some(ours.better),
                    "{}",
                    ours.name
                );
                let bound = theirs.get("bound").and_then(Value::as_f64);
                match group {
                    Group::EndToEnd => {
                        assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", ours.name)
                    }
                    Group::PerLayer => assert!(bound.is_none(), "{}", ours.name),
                }
            }
        }
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(names, WORKLOADS);
        let setup = spec
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"));
        assert!(setup.is_some(), "setup_s must be an end-to-end metric");
    }
}

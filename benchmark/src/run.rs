//! One run: one workload in this process, as repetitions of set-up →
//! warm-up → timed phase, aggregated into named metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use crate::harness::{Plan, RepOut};
use crate::json::Value;
use crate::spec::{Group, Source, METRICS, WORKLOADS};
use crate::stats::{iqr_frac, median, percentile};
use crate::workloads::{churn, postmark_tcp, read_hot, write_sync};
use crate::{layers, micro, procfs, trace};

/// Repetitions of an untraced run; a traced run spends the same time
/// as `UNTRACED_IN_TRACED` untraced repetitions (which supply the
/// counts) plus traced ones (which supply the times).
pub const REPS: usize = 5;
const UNTRACED_IN_TRACED: usize = 2;
const WARM_S: f64 = 1.0;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metric {
    /// `None`: not defined on this workload, or not measurable here.
    pub value: Option<f64>,
    /// Spread over the repetitions, where there were at least two.
    pub iqr_frac: Option<f64>,
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// What ended each repetition's timed phase.
    pub ended_by: Vec<&'static str>,
    /// Layer table of the traced repetitions (row-wise median), µs/op.
    pub table: Vec<(&'static str, f64)>,
    /// `(setup_s, ops_per_s, proc.steal_frac)` of every repetition in
    /// order, untraced then traced: a repetition the hypervisor took
    /// CPU from shows here.
    pub rep_rates: Vec<(f64, f64, Option<f64>)>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `benchmark/target`, whether run from the repository root (as the
/// single command is) or from elsewhere.
pub fn target_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/target")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
    }
}

fn one_rep(workload: &str, plan: &Plan, rep: usize, traced: bool) -> RepOut {
    trace::drain();
    trace::set_enabled(traced);
    let t0 = trace::now_ns();
    let run = catch_unwind(AssertUnwindSafe(|| match workload {
        "nfs_postmark_tcp" => postmark_tcp::run_rep(plan, rep, traced),
        "rpc_read_hot" => read_hot::run_rep(plan, rep, traced),
        "rpc_write_sync_mirror" => write_sync::run_rep(plan, rep, traced),
        "drive_churn_recover" => churn::run_rep(plan, rep, traced),
        other => Err(format!("unknown workload {other}")),
    }));
    trace::set_enabled(false);
    // A repetition that could not run to the end is one failed op, with
    // the reason kept: never silently dropped.
    let failed_rep = |why: String| {
        let mut out = RepOut::default();
        out.check(false, || format!("repetition {rep} aborted: {why}"));
        out.spans = trace::drain();
        out
    };
    let mut out = match run {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => failed_rep(e),
        Err(panic) => failed_rep(
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into()),
        ),
    };
    if traced {
        if out.windows_ns.is_empty() {
            out.windows_ns.push((t0, trace::now_ns()));
        }
        let shape = match workload {
            "nfs_postmark_tcp" => layers::Shape::Tcp,
            "drive_churn_recover" => layers::Shape::Drive,
            _ => layers::Shape::Array,
        };
        layers::analyze(&mut out, shape);
    }
    out
}

fn pooled(reps: &[&RepOut], class: &str) -> Vec<u64> {
    let mut all: Vec<u64> = reps
        .iter()
        .filter_map(|r| r.samples.get(class))
        .flatten()
        .copied()
        .collect();
    all.sort_unstable();
    all
}

/// Untraced repetitions where any has the thing asked for, traced ones
/// otherwise: counts and latencies come from the untraced pass, times
/// only spans can give from the traced pass.
fn prefer_untraced<'a>(
    untraced: &'a [RepOut],
    traced: &'a [RepOut],
    has: impl Fn(&RepOut) -> bool,
) -> Vec<&'a RepOut> {
    let u: Vec<&RepOut> = untraced.iter().filter(|r| has(r)).collect();
    if u.is_empty() {
        traced.iter().filter(|r| has(r)).collect()
    } else {
        u
    }
}

fn aggregate(untraced: &[RepOut], traced: &[RepOut]) -> BTreeMap<&'static str, Metric> {
    let mut metrics = BTreeMap::new();
    let of = |reps: &[RepOut], name: &str| -> Vec<f64> {
        reps.iter()
            .filter_map(|r| r.values.get(name).copied())
            .collect()
    };
    for def in METRICS {
        let m = match def.source {
            Source::Reps => {
                let reps = prefer_untraced(untraced, traced, |r| r.values.contains_key(def.name));
                let vals: Vec<f64> = reps.iter().map(|r| r.values[def.name]).collect();
                Metric {
                    value: median(&vals),
                    iqr_frac: iqr_frac(&vals),
                }
            }
            Source::Pooled { class, pct, per } => {
                let reps = prefer_untraced(untraced, traced, |r| r.samples.contains_key(class));
                let per_rep: Vec<f64> = reps
                    .iter()
                    .filter_map(|r| percentile(&pooled(&[r], class), pct))
                    .map(|ns| ns as f64 / per)
                    .collect();
                Metric {
                    value: percentile(&pooled(&reps, class), pct).map(|ns| ns as f64 / per),
                    iqr_frac: iqr_frac(&per_rep),
                }
            }
            Source::Ratio { num, den } => {
                let reps = prefer_untraced(untraced, traced, |r| {
                    r.values.contains_key(num) && r.values.contains_key(den)
                });
                let sum = |name: &str| reps.iter().map(|r| r.values[name]).sum::<f64>();
                let per_rep: Vec<f64> =
                    reps.iter().map(|r| r.values[num] / r.values[den]).collect();
                Metric {
                    value: (!reps.is_empty() && sum(den) > 0.0).then(|| sum(num) / sum(den)),
                    iqr_frac: iqr_frac(&per_rep),
                }
            }
            Source::Sum => {
                let vals = of(untraced, def.name);
                let vals = if vals.is_empty() {
                    of(traced, def.name)
                } else {
                    vals
                };
                Metric {
                    value: (!vals.is_empty()).then(|| vals.iter().sum()),
                    iqr_frac: None,
                }
            }
            Source::SampleCount => {
                let reps = prefer_untraced(untraced, traced, |r| r.samples.contains_key("op"));
                Metric {
                    value: Some(pooled(&reps, "op").len() as f64),
                    iqr_frac: None,
                }
            }
            Source::PeakRss => Metric {
                value: procfs::peak_rss_mb(),
                iqr_frac: None,
            },
            Source::TraceOverhead => {
                let (u, t) = (of(untraced, "ops_per_s"), of(traced, "ops_per_s"));
                Metric {
                    value: median(&u)
                        .zip(median(&t))
                        .filter(|(u, _)| *u > 0.0)
                        .map(|(u, t)| 1.0 - t / u),
                    iqr_frac: None,
                }
            }
        };
        metrics.insert(def.name, m);
    }
    metrics
}

fn median_table(traced: &[RepOut]) -> Vec<(&'static str, f64)> {
    let Some(first) = traced.iter().find(|r| !r.table.is_empty()) else {
        return Vec::new();
    };
    first
        .table
        .iter()
        .map(|&(name, _)| {
            let vals: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.table.iter().find(|row| row.0 == name).map(|row| row.1))
                .collect();
            (name, median(&vals).expect("row came from a repetition"))
        })
        .collect()
}

fn write_trace(workload: &str, rep: &RepOut) -> std::io::Result<PathBuf> {
    let dir = target_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &rep.spans {
        writeln!(w, "{}", s.to_json())?;
    }
    w.flush()?;
    Ok(path)
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; the workloads are {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    let reps = if args.smoke { 1 } else { REPS };
    let (n_untraced, n_traced) = match (args.traced, args.smoke) {
        (false, _) => (reps, 0),
        (true, true) => (1, 1),
        (true, false) => (UNTRACED_IN_TRACED, REPS - UNTRACED_IN_TRACED),
    };
    let scratch = target_dir().join(format!("run-{}", std::process::id()));
    let plan = Plan {
        seed: args.seed,
        warm_s: if args.smoke { 0.2 } else { WARM_S },
        timed_s: args.seconds / (n_untraced + n_traced) as f64,
        smoke: args.smoke,
        scratch: scratch.clone(),
    };

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for rep in 0..n_untraced + n_traced {
        let is_traced = rep >= n_untraced;
        let out = one_rep(&args.workload, &plan, rep, is_traced);
        if is_traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push(out);
    }
    if args.traced && args.workload == "drive_churn_recover" {
        // The two layers no wrapper reaches, as microbenchmarks beside
        // the workload that depends on them.
        let mut extra = RepOut::default();
        micro::journal(&mut extra);
        if let Err(e) = micro::lfs(&mut extra, &plan) {
            extra.check(false, || format!("lfs microbenchmark: {e}"));
        }
        if let Err(e) = churn::expire_mount_probe(&mut extra) {
            extra.check(false, || e);
        }
        traced.push(extra);
    }
    let _ = std::fs::remove_dir(&scratch);

    let mut notes = Vec::new();
    if let Some(last) = traced.iter().rev().find(|r| !r.spans.is_empty()) {
        match write_trace(&args.workload, last) {
            Ok(path) => notes.push(format!(
                "{} spans written to {}",
                last.spans.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("trace file not written: {e}")),
        }
    }
    let all = || untraced.iter().chain(&traced);
    notes.extend(all().flat_map(|r| r.notes.iter().cloned()));
    Ok(RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.traced,
        attempted: all().map(|r| r.attempted).sum::<u64>().max(1),
        failed: all().map(|r| r.failed).sum(),
        metrics: aggregate(&untraced, &traced),
        ended_by: all()
            .map(|r| r.ended_by)
            .filter(|e| !e.is_empty())
            .collect(),
        table: median_table(&traced),
        rep_rates: all()
            .filter_map(|r| {
                Some((
                    *r.values.get("setup_s")?,
                    *r.values.get("ops_per_s")?,
                    r.values.get("proc.steal_frac").copied(),
                ))
            })
            .collect(),
        notes,
    })
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "null".into(),
        Some(v) if v != 0.0 && v.abs() < 0.01 => format!("{v:.3e}"),
        Some(v) if v.abs() >= 1e6 => format!("{v:.0}"),
        Some(v) => format!("{v:.3}"),
    }
}

impl RunResult {
    /// The human-readable report: every metric by name, with its unit
    /// and its spread over the repetitions.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced {
                "traced pass"
            } else {
                "untraced pass"
            }
        );
        println!(
            "attempted {} failed {}; timed phases ended by: {}",
            self.attempted,
            self.failed,
            self.ended_by.join(" ")
        );
        let per_rep: Vec<String> = self
            .rep_rates
            .iter()
            .map(|(setup, rate, steal)| match steal {
                Some(s) => format!("{setup:.3} s / {rate:.0} ({:.1} %)", 100.0 * s),
                None => format!("{setup:.3} s / {rate:.0}"),
            })
            .collect();
        println!(
            "setup_s / ops_per_s by repetition (CPU stolen by the hypervisor): {}",
            per_rep.join(", ")
        );
        for group in [Group::EndToEnd, Group::PerLayer] {
            println!(
                "-- {} --",
                match group {
                    Group::EndToEnd => "end to end",
                    Group::PerLayer => "per layer",
                }
            );
            for def in METRICS.iter().filter(|d| d.group == group) {
                let m = self.metrics[def.name];
                println!(
                    "{:<36} {:>16} {:<7} iqr_frac {}",
                    def.name,
                    fmt_value(m.value),
                    def.unit,
                    fmt_value(m.iqr_frac)
                );
            }
        }
        if !self.table.is_empty() {
            println!("-- where an op's time goes (traced pass, us per op) --");
            let op = self.table.last().map_or(1.0, |r| r.1);
            for (name, v) in &self.table {
                println!("{name:<36} {v:>16.3} {:>6.1} %", 100.0 * v / op);
            }
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }

    /// Everything, machine-readable: what `suite` stores per workload
    /// and `compare` reads.
    pub fn detail(&self) -> Value {
        let group = |g: Group| {
            Value::Obj(
                METRICS
                    .iter()
                    .filter(|d| d.group == g)
                    .map(|d| {
                        let m = self.metrics[d.name];
                        (
                            d.name.to_string(),
                            Value::Obj(vec![
                                ("value".into(), Value::num_or_null(m.value)),
                                ("unit".into(), Value::Str(d.unit.into())),
                                ("iqr_frac".into(), Value::num_or_null(m.iqr_frac)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("traced".into(), Value::Bool(self.traced)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            (
                "ended_by".into(),
                Value::Arr(
                    self.ended_by
                        .iter()
                        .map(|e| Value::Str(e.to_string()))
                        .collect(),
                ),
            ),
            ("end_to_end".into(), group(Group::EndToEnd)),
            ("per_layer".into(), group(Group::PerLayer)),
        ])
    }

    /// The contract's result line: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one. A per-layer
    /// metric that is not defined on this workload reads 0; an
    /// end-to-end one that could not be measured reads `null`.
    pub fn result_line(&self) -> String {
        let group = if self.traced {
            Group::PerLayer
        } else {
            Group::EndToEnd
        };
        let metrics = METRICS
            .iter()
            .filter(|d| d.group == group)
            .map(|d| {
                let v = self.metrics[d.name].value;
                let v = match group {
                    Group::PerLayer => Value::Num(v.unwrap_or(0.0)),
                    Group::EndToEnd => Value::num_or_null(v),
                };
                (
                    d.name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), v),
                        ("unit".into(), Value::Str(d.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .encode()
    }
}

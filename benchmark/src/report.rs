//! The whole suite in one command, and `compare` between two of its
//! result files.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::run::target_dir;
use crate::spec::{Group, MetricDef, CLAIMS, METRICS, WORKLOADS};
use crate::stats::median;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub only: Option<String>,
    pub out: Option<PathBuf>,
}

/// Runs this executable once for one workload and pass — a fresh
/// process, so allocator and page-cache state cannot leak between
/// workloads — echoing its report and returning its `DETAIL` document.
fn child(workload: &str, args: &SuiteArgs, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("DETAIL ") {
            Some(doc) => {
                detail = Some(json::parse(doc).map_err(|e| format!("{workload}: bad DETAIL: {e}"))?)
            }
            // The result line is for the driver; the table above it says the same.
            None if line.starts_with("{\"correct\"") => {}
            None => println!("{line}"),
        }
    }
    detail.ok_or_else(|| format!("{workload}: run printed no result (exit {})", output.status))
}

/// The per-layer group of a workload: counts and latencies from the
/// untraced run (five repetitions), and from the traced run what only it
/// has (span times, microbenchmarks, tracing overhead).
fn per_layer(plain: &Value, traced: &Value) -> Value {
    let group = |d: &Value| {
        d.get("per_layer")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .to_vec()
    };
    let plain = group(plain);
    Value::Obj(
        group(traced)
            .into_iter()
            .map(|(name, from_traced)| {
                let measured = |m: &Value| m.get("value").is_some_and(|v| *v != Value::Null);
                match plain.iter().find(|(n, m)| *n == name && measured(m)) {
                    Some((_, from_plain)) => (name, from_plain.clone()),
                    None => (name, from_traced),
                }
            })
            .collect(),
    )
}

/// Runs every selected workload, untraced then traced, writes the
/// result file, and returns whether every output check passed.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let selected: Vec<&str> = match &args.only {
        None => WORKLOADS.to_vec(),
        Some(w) => vec![*WORKLOADS
            .iter()
            .find(|x| **x == w.as_str())
            .ok_or_else(|| {
                format!(
                    "unknown workload {w:?}; the workloads are {}",
                    WORKLOADS.join(", ")
                )
            })?],
    };
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in selected {
        let plain = child(w, args, false)?;
        let traced = child(w, args, true)?;
        let count = |key: &str| {
            [&plain, &traced]
                .iter()
                .filter_map(|d| d.get(key).and_then(Value::as_f64))
                .sum::<f64>()
        };
        let correct = [&plain, &traced]
            .iter()
            .all(|d| d.get("correct") == Some(&Value::Bool(true)));
        all_correct &= correct;
        per_workload.push((
            w.to_string(),
            Value::Obj(vec![
                ("correct".into(), Value::Bool(correct)),
                ("attempted".into(), Value::Num(count("attempted"))),
                ("failed".into(), Value::Num(count("failed"))),
                (
                    "ended_by".into(),
                    plain.get("ended_by").cloned().unwrap_or(Value::Null),
                ),
                (
                    "end_to_end".into(),
                    plain.get("end_to_end").cloned().unwrap_or(Value::Null),
                ),
                ("per_layer".into(), per_layer(&plain, &traced)),
            ]),
        ));
    }
    let doc = Value::Obj(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("workloads".into(), Value::Obj(per_workload)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join(format!("result-seed{}.json", args.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.encode() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "suite {}: results in {}",
        if all_correct {
            "passed every output check"
        } else {
            "FAILED an output check"
        },
        path.display()
    );
    Ok(all_correct)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Neither side moved beyond the bound, but the spread between
    /// repetitions is wider than the bound: not known to be unchanged.
    Unresolved,
    /// `seed_spread.json` has no bound for the pair: its spread at the
    /// seed was too wide, or a run has no spread for the metric.
    Ungated,
}

/// Judges one end-to-end metric: `a` the baseline, `b` the candidate.
pub fn judge(a: f64, b: f64, better: &str, bound: f64, spread: f64) -> Verdict {
    // Positive = b is worse, as a share of the baseline.
    let worse_by = match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    };
    let threshold = bound.max(spread);
    if worse_by > threshold {
        Verdict::Worse
    } else if -worse_by > threshold {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// The metrics `compare` judges and `bounds` records: the issue's ten,
/// then the two the driver gates besides `setup_s`.
fn compared() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|m| CLAIMS.contains(&m.name) || m.group == Group::EndToEnd)
}

/// A spread above this share of the median leaves a pair ungated.
const MAX_SPREAD: f64 = 0.25;
const MIN_BOUND: f64 = 0.10;

/// The spread of every (metric, workload) pair at the commit that adds
/// the benchmark, and the bound `compare` applies to it: what
/// `benchmark bounds` printed for three sets of runs of that commit.
const SEED_SPREAD: &str = include_str!("../seed_spread.json");

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads_of(doc: &Value) -> Result<&[(String, Value)], String> {
    doc.get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| "result file has no workloads".to_string())
}

/// `field` of metric `m` in one workload's result, whichever group the
/// file lists it under.
fn field(result: &Value, m: &str, field: &str) -> Option<f64> {
    ["end_to_end", "per_layer"]
        .iter()
        .find_map(|g| result.get(g)?.get(m))?
        .get(field)?
        .as_f64()
}

/// From two or more result files of one commit, the table `compare`
/// reads: per (workload, metric) the values and `iqr_frac`s seen, the
/// spread — the largest `iqr_frac`, or the distance between the sets'
/// values as a share of their median if that is larger — and the bound,
/// max(0.10, 2 × spread), or `null` where the pair is left ungated: its
/// spread is above 0.25, or a run has no spread for it at all
/// (`peak_rss_mb` is one reading per process, and follows the op count
/// of a time-bounded run).
pub fn bounds(files: &[PathBuf]) -> Result<String, String> {
    let docs: Vec<Value> = files
        .iter()
        .map(|f| read_json(f))
        .collect::<Result<_, _>>()?;
    bounds_of(&docs)
}

fn bounds_of(docs: &[Value]) -> Result<String, String> {
    let [first, ..] = docs else {
        return Err("bounds needs result files".into());
    };
    let nums = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut blocks = Vec::new();
    for (w, _) in workloads_of(first)? {
        let results: Vec<&Value> = docs
            .iter()
            .filter_map(|d| d.get("workloads")?.get(w))
            .collect();
        let mut rows = Vec::new();
        for def in compared() {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| field(r, def.name, "value"))
                .collect();
            if values.len() < 2 || def.name == "failed_frac" {
                continue;
            }
            let iqrs: Vec<f64> = results
                .iter()
                .filter_map(|r| field(r, def.name, "iqr_frac"))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let between = median(&values)
                .filter(|m| *m != 0.0)
                .map_or(0.0, |m| (hi - lo) / m.abs());
            let spread = iqrs.iter().copied().fold(between, f64::max);
            // No spread within a run (one sample per process): ungated.
            let bound = if iqrs.is_empty() || spread > MAX_SPREAD {
                "null".to_string()
            } else {
                format!("{:.3}", MIN_BOUND.max(2.0 * spread))
            };
            rows.push(format!(
                "      \"{}\": {{\"values\": [{}], \"iqr_frac\": [{}], \"spread\": {spread:.3}, \"bound\": {bound}}}",
                def.name,
                nums(&values),
                nums(&iqrs)
            ));
        }
        blocks.push(format!("    \"{w}\": {{\n{}\n    }}", rows.join(",\n")));
    }
    Ok(format!(
        "{{\n  \"files\": {},\n  \"pairs\": {{\n{}\n  }}\n}}",
        docs.len(),
        blocks.join(",\n")
    ))
}

/// Judges the second result file against the first: one row per
/// (metric, workload) with the pair's bound from `seed_spread.json` and
/// the metric's direction. Prints the rows and returns `Ok(true)` when
/// nothing is worse and no workload's `failed_frac` rose.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let table = json::parse(SEED_SPREAD).map_err(|e| format!("seed_spread.json: {e}"))?;
    let outcome = compare_docs(&table, &read_json(a)?, &read_json(b)?)?;
    for line in &outcome.lines {
        println!("{line}");
    }
    Ok(outcome.pass)
}

pub struct Comparison {
    pub lines: Vec<String>,
    pub verdicts: Vec<(String, String, Verdict)>,
    pub pass: bool,
}

pub fn compare_docs(table: &Value, a: &Value, b: &Value) -> Result<Comparison, String> {
    let (wa, wb) = (workloads_of(a)?, workloads_of(b)?);
    let mut out = Comparison {
        lines: vec![format!(
            "{:<24} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
            "workload", "metric", "a", "b", "change", "bound", "spread"
        )],
        verdicts: Vec::new(),
        pass: true,
    };
    for (w, ra) in wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == w) else {
            out.lines.push(format!("{w:<24} only in the first file"));
            continue;
        };
        for def in compared() {
            if def.name == "failed_frac" {
                let frac = |r: &Value| {
                    let get = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                    get("failed") / get("attempted").max(1.0)
                };
                let (fa, fb) = (frac(ra), frac(rb));
                out.pass &= fb <= fa;
                out.lines.push(format!(
                    "{w:<24} {:<20} {fa:>14.6} {fb:>14.6}  {}",
                    def.name,
                    if fb > fa {
                        "WORSE (more failed ops)"
                    } else {
                        "ok"
                    }
                ));
                continue;
            }
            // Not defined on this workload: no row.
            let (Some(va), Some(vb)) = (field(ra, def.name, "value"), field(rb, def.name, "value"))
            else {
                continue;
            };
            let pair = table.get("pairs").and_then(|p| p.get(w)?.get(def.name));
            let bound = pair.and_then(|p| p.get("bound")?.as_f64());
            let spread = field(ra, def.name, "iqr_frac")
                .unwrap_or(0.0)
                .max(field(rb, def.name, "iqr_frac").unwrap_or(0.0));
            let v = match bound {
                Some(bound) => judge(va, vb, def.better, bound, spread),
                None => Verdict::Ungated,
            };
            out.pass &= v != Verdict::Worse;
            out.lines.push(format!(
                "{w:<24} {:<20} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>7} {:>6.1}%  {}",
                def.name,
                100.0 * (vb - va) / va.abs(),
                bound.map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
                100.0 * spread,
                match v {
                    Verdict::Better => "better",
                    Verdict::Within => "within",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Ungated => "ungated",
                }
            ));
            out.verdicts.push((w.clone(), def.name.to_string(), v));
        }
    }
    for (w, _) in wb.iter().filter(|(w, _)| !wa.iter().any(|(n, _)| n == w)) {
        out.lines.push(format!("{w:<24} only in the second file"));
    }
    out.lines.push(if out.pass {
        "compare: no regression".into()
    } else {
        "compare: REGRESSION".into()
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(judge(100.0, 105.0, "lower", 0.10, 0.02), Verdict::Within);
        assert_eq!(judge(100.0, 115.0, "lower", 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 85.0, "lower", 0.10, 0.02), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(100.0, 115.0, "higher", 0.10, 0.02), Verdict::Better);
        assert_eq!(judge(100.0, 85.0, "higher", 0.10, 0.02), Verdict::Worse);
        // A spread wider than the bound: small moves are unresolved, not
        // unchanged; a move beyond the spread is still called.
        assert_eq!(
            judge(100.0, 105.0, "lower", 0.10, 0.30),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 120.0, "lower", 0.10, 0.30),
            Verdict::Unresolved
        );
        assert_eq!(judge(100.0, 150.0, "lower", 0.10, 0.30), Verdict::Worse);
    }

    fn result(ops: f64, lat: f64, iqr: f64, failed: f64) -> Value {
        json::parse(&format!(
            r#"{{"seed":1,"workloads":{{"rpc_read_hot":{{"correct":true,"attempted":1000,"failed":{failed},
            "end_to_end":{{"setup_s":{{"value":0.3,"unit":"s","iqr_frac":0.05}}}},
            "per_layer":{{"ops_per_s":{{"value":{ops},"unit":"ops/s","iqr_frac":{iqr}}},
                          "op_p50_us":{{"value":{lat},"unit":"us","iqr_frac":0.01}},
                          "cpu_us_per_op":{{"value":{lat},"unit":"us","iqr_frac":0.01}},
                          "write_amp":{{"value":null,"unit":"ratio","iqr_frac":null}},
                          "array.hop_p50_us":{{"value":5.0,"unit":"us","iqr_frac":null}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn table() -> Value {
        json::parse(
            r#"{"pairs":{"rpc_read_hot":{
            "setup_s":{"spread":0.05,"bound":0.1},
            "ops_per_s":{"spread":0.05,"bound":0.1},
            "op_p50_us":{"spread":0.04,"bound":0.1},
            "cpu_us_per_op":{"spread":0.4,"bound":null}}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_passes_within_bounds_and_fails_on_regressions() {
        let verdict = |c: &Comparison, m: &str| {
            c.verdicts
                .iter()
                .find(|v| v.1 == m)
                .map(|v| v.2)
                .unwrap_or_else(|| panic!("no row for {m}"))
        };
        let base = result(1000.0, 10.0, 0.02, 0.0);
        let same = compare_docs(&table(), &base, &result(1040.0, 10.5, 0.02, 0.0)).unwrap();
        assert!(same.pass);
        for m in ["setup_s", "ops_per_s", "op_p50_us"] {
            assert_eq!(verdict(&same, m), Verdict::Within);
        }
        // Undefined on the workload: no row. Per-layer only: no row.
        assert!(!same.lines.iter().any(|l| l.contains("write_amp")));
        assert!(!same.lines.iter().any(|l| l.contains("array.hop_p50_us")));

        let slower = compare_docs(&table(), &base, &result(800.0, 10.0, 0.02, 0.0)).unwrap();
        assert!(!slower.pass);
        assert_eq!(verdict(&slower, "ops_per_s"), Verdict::Worse);
        assert_eq!(verdict(&slower, "op_p50_us"), Verdict::Within);

        // A pair demoted at the seed is shown and never gates.
        let faster = compare_docs(&table(), &base, &result(1000.0, 5.0, 0.02, 0.0)).unwrap();
        assert!(faster.pass);
        assert_eq!(verdict(&faster, "op_p50_us"), Verdict::Better);
        assert_eq!(verdict(&faster, "cpu_us_per_op"), Verdict::Ungated);
        let hot = compare_docs(&table(), &base, &result(1000.0, 30.0, 0.02, 0.0)).unwrap();
        assert_eq!(verdict(&hot, "cpu_us_per_op"), Verdict::Ungated);
        assert_eq!(verdict(&hot, "op_p50_us"), Verdict::Worse);

        let noisy = compare_docs(&table(), &base, &result(950.0, 10.0, 0.4, 0.0)).unwrap();
        assert!(noisy.pass, "unresolved is not a regression");
        assert_eq!(verdict(&noisy, "ops_per_s"), Verdict::Unresolved);

        let failing = compare_docs(&table(), &base, &result(1000.0, 10.0, 0.02, 3.0)).unwrap();
        assert!(
            !failing.pass,
            "more failed ops fails the comparison whatever the speed"
        );
    }

    #[test]
    fn bounds_come_from_the_spread_of_the_sets() {
        let sets: Vec<Value> = [(1000.0, 0.02), (1030.0, 0.04), (700.0, 0.02)]
            .iter()
            .map(|&(ops, iqr)| result(ops, 10.0, iqr, 0.0))
            .collect();
        // Two close sets: the bound is the floor or twice the spread.
        let close = json::parse(&bounds_of(&sets[..2]).unwrap()).unwrap();
        let pair = |t: &Value, m: &str, f: &str| {
            t.get("pairs")
                .and_then(|p| p.get("rpc_read_hot")?.get(m)?.get(f).cloned())
                .unwrap()
        };
        assert_eq!(pair(&close, "ops_per_s", "spread"), Value::Num(0.04));
        assert_eq!(pair(&close, "ops_per_s", "bound"), Value::Num(0.1));
        assert_eq!(pair(&close, "op_p50_us", "bound"), Value::Num(0.1));
        // A set 30 % away: the pair is left ungated.
        let far = json::parse(&bounds_of(&sets).unwrap()).unwrap();
        assert_eq!(pair(&far, "ops_per_s", "bound"), Value::Null);
        assert!(far
            .get("pairs")
            .and_then(|p| p.get("rpc_read_hot")?.get("write_amp"))
            .is_none());
    }
}

//! The wall-clock S4 benchmark: four workloads, one per entry point of
//! the stack (TCP → array → drive), each measured end to end and — in a
//! traced pass — layer by layer, from outside, through public functions
//! only. See `README.md` beside this package for definitions.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run
//! benchmark [suite] [--seed N] [--seconds S] [--smoke] [--only W] [--out FILE]
//! benchmark compare A.json B.json
//! benchmark bounds A.json B.json [C.json ...]
//! ```

#![forbid(unsafe_code)]

mod gen;
mod harness;
mod json;
mod layers;
mod micro;
mod oracle;
mod procfs;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures unless `--seconds` says otherwise; the same
/// number as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
  benchmark [suite] [--seed N] [--seconds S] [--smoke] [--only W] [--out FILE]
  benchmark compare A.json B.json
  benchmark bounds A.json B.json [C.json ...]";

/// Flags of any subcommand, in any order; positionals kept aside.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    only: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--only" => f.only = Some(value("a workload name")?),
            "--seed" => {
                f.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--smoke" => f.smoke = true,
            "--out" => f.out = Some(value("a path")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    let f = parse(args)?;
    let seed = f.seed.unwrap_or(1);
    let seconds = f
        .seconds
        .unwrap_or(if f.smoke { 1.0 } else { DEFAULT_SECONDS });
    match f.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = f.positional.as_slice() else {
                return Err("compare needs two result files".into());
            };
            report::compare(a.as_ref(), b.as_ref())
        }
        Some("bounds") => {
            let files: Vec<PathBuf> = f.positional[1..].iter().map(PathBuf::from).collect();
            if files.len() < 2 {
                return Err("bounds needs at least two result files of one commit".into());
            }
            println!("{}", report::bounds(&files)?);
            Ok(true)
        }
        Some("suite") | None if f.workload.is_none() => report::suite(&report::SuiteArgs {
            seed,
            seconds,
            smoke: f.smoke,
            only: f.only,
            out: f.out,
        }),
        None => {
            let result = run::run(&run::RunArgs {
                workload: f.workload.expect("checked above"),
                seed,
                seconds,
                traced: f.trace.unwrap_or(false),
                smoke: f.smoke,
            })?;
            result.print();
            println!("DETAIL {}", result.detail().encode());
            println!("{}", result.result_line());
            Ok(result.correct())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

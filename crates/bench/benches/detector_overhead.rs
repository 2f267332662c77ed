//! Online-detector overhead on PostMark (ROADMAP open item).
//!
//! Runs the same PostMark workload through the S4 drive twice — with and
//! without [`install_standard_monitor`] — and reports the cost along both
//! axes the monitor can show up on:
//!
//! * **simulated time** — extra storage work (alert records filed in
//!   the audit log ride the same log as data);
//! * **host CPU per audit record** — the rule set timed directly over
//!   the workload's captured audit stream (differencing the two
//!   whole-run wall clocks drowns in warm-up noise). This is the
//!   previously ad-hoc "~15µs/record" number, now tracked.
//!
//! In the record, simulated time, audit records and latency percentiles
//! are `sim` fields, which `scripts/verify.sh` pins at scale 0.25 in
//! `BENCH_obs.json` (EXPERIMENTS.md has full scale); host times are
//! `wall` fields.

use std::time::Instant;

use s4_bench::{banner, lan_fs, scaled, secs, timed_drive, Record, DEFAULT_DISK_BYTES};
use s4_clock::SimDuration;
use s4_core::{AuditRecord, ClientId, DriveConfig, RequestContext, S4Drive};
use s4_detect::{install_standard_monitor, DetectorSet};
use s4_simdisk::BlockDev;
use s4_workloads::postmark::{self, PostmarkConfig};
use s4_workloads::replay;

struct Run {
    sim: SimDuration,
    wall: f64,
    records: Vec<AuditRecord>,
    lat: Vec<(&'static str, u64)>,
}

/// Per-layer latency percentiles (simulated µs) pulled from the drive's
/// observability registry at the end of a run, each with its field name.
fn latencies<D: BlockDev>(drive: &S4Drive<D>) -> Vec<(&'static str, u64)> {
    let reg = drive.registry();
    let rpc = reg.histogram("s4_rpc_latency_us", "");
    let p99 = |name: &str| reg.histogram(name, "").percentile(0.99);
    vec![
        ("rpc_p50_us", rpc.percentile(0.5)),
        ("rpc_p90_us", rpc.percentile(0.9)),
        ("rpc_p99_us", rpc.percentile(0.99)),
        ("rpc_max_us", rpc.max()),
        ("journal_p99_us", p99("s4_journal_latency_us")),
        ("lfs_p99_us", p99("s4_lfs_latency_us")),
        ("disk_p99_us", p99("s4_disk_latency_us")),
    ]
}

fn run(pm: &postmark::PostmarkPhases, monitor: bool) -> Run {
    let drive = timed_drive(DEFAULT_DISK_BYTES, DriveConfig::default());
    if monitor {
        install_standard_monitor(&drive);
    }
    let fs = lan_fs(drive.clone(), "detov");

    let t0 = Instant::now();
    let create = replay(&fs, &pm.create);
    let txn = replay(&fs, &pm.transactions);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(create.errors + txn.errors, 0);

    let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);
    let records = drive.read_audit_records(&admin).unwrap();
    Run {
        sim: create.elapsed + txn.elapsed,
        wall,
        records,
        lat: latencies(&drive),
    }
}

fn main() {
    let nfiles = scaled(2_000, 100);
    let transactions = scaled(8_000, 400);
    let pm = postmark::generate(&PostmarkConfig {
        nfiles,
        transactions,
        ..PostmarkConfig::default()
    });
    banner(
        "Online-detector overhead (standard rule set, PostMark)",
        "same trace with and without install_standard_monitor",
    );

    let base = run(&pm, false);
    let mon = run(&pm, true);
    // Both runs audit every request identically; the monitor only adds
    // rule evaluation and alert persistence.
    assert_eq!(
        base.records.len(),
        mon.records.len(),
        "audit streams must match"
    );
    let records = mon.records.len();

    let sim_pct = (mon.sim.as_secs_f64() - base.sim.as_secs_f64()) / base.sim.as_secs_f64() * 100.0;

    // Detector CPU, measured directly: the standard rule set over the
    // workload's own audit stream (warm pass first, then timed).
    DetectorSet::standard().scan(&mon.records);
    let t0 = Instant::now();
    let passes = 5;
    for _ in 0..passes {
        DetectorSet::standard().scan(&mon.records);
    }
    let us_per_record = t0.elapsed().as_secs_f64() / (passes * records) as f64 * 1e6;

    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "monitor", "sim time", "host time", "records"
    );
    for (label, r) in [("off", &base), ("on", &mon)] {
        println!(
            "{:<12} {:>12} {:>11.2}s {:>12}",
            label,
            secs(r.sim),
            r.wall,
            r.records.len()
        );
    }
    println!();
    println!(
        "simulated overhead {sim_pct:+.2}%   detector cpu {us_per_record:.2} us/record \
         (tracked; was ~15 us/record ad hoc)"
    );
    let lat: Vec<String> = mon.lat.iter().map(|(n, v)| format!("{n} {v}")).collect();
    println!("latency (monitored, sim us): {}", lat.join(", "));
    let mut record = Record::new("detector_overhead");
    record
        .sim("nfiles", nfiles)
        .sim("transactions", transactions)
        .sim("records", records)
        .sim("sim_base_us", base.sim)
        .sim("sim_monitored_us", mon.sim)
        .sim("sim_overhead_pct", sim_pct);
    for (name, v) in mon.lat {
        record.sim(name, v);
    }
    record
        .wall("wall_base_s", base.wall)
        .wall("wall_monitored_s", mon.wall)
        .wall("detector_us_per_record", us_per_record)
        .emit();
}

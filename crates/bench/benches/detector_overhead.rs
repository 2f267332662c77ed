//! Online-detector overhead on PostMark (ROADMAP open item).
//!
//! Runs the same PostMark workload through the S4 drive twice — with and
//! without [`install_standard_monitor`] — and reports the cost along both
//! axes the monitor can show up on:
//!
//! * **simulated time** — extra storage work (alert blobs persisted to
//!   the reserved alert object ride the same log as data);
//! * **host CPU per audit record** — the rule set timed directly over
//!   the workload's captured audit stream (differencing the two
//!   whole-run wall clocks drowns in warm-up noise). This is the
//!   previously ad-hoc "~15µs/record" number, now tracked.
//!
//! The final line is machine-readable: `BENCH_JSON {...}` — one JSON
//! object per run, suitable for appending to a BENCH_*.json series.

use std::sync::Arc;
use std::time::Instant;

use s4_bench::{banner, bench_ctx, secs};
use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive};
use s4_core::AuditRecord;
use s4_detect::{install_standard_monitor, DetectorSet};
use s4_fs::{LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};
use s4_workloads::postmark::{self, PostmarkConfig};
use s4_workloads::replay;

struct Run {
    sim: SimDuration,
    wall: f64,
    records: Vec<AuditRecord>,
    lat: LatencySummary,
}

/// Per-layer latency percentiles (simulated µs) pulled from the drive's
/// observability registry at the end of a run.
struct LatencySummary {
    rpc_p50: u64,
    rpc_p90: u64,
    rpc_p99: u64,
    rpc_max: u64,
    journal_p99: u64,
    lfs_p99: u64,
    disk_p99: u64,
}

impl LatencySummary {
    fn capture<D: s4_simdisk::BlockDev>(drive: &S4Drive<D>) -> Self {
        let reg = drive.registry();
        let rpc = reg.histogram("s4_rpc_latency_us", "");
        LatencySummary {
            rpc_p50: rpc.percentile(0.5),
            rpc_p90: rpc.percentile(0.9),
            rpc_p99: rpc.percentile(0.99),
            rpc_max: rpc.max(),
            journal_p99: reg.histogram("s4_journal_latency_us", "").percentile(0.99),
            lfs_p99: reg.histogram("s4_lfs_latency_us", "").percentile(0.99),
            disk_p99: reg.histogram("s4_disk_latency_us", "").percentile(0.99),
        }
    }
}

fn run(pm: &postmark::PostmarkPhases, monitor: bool) -> Run {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = TimedDisk::new(
        MemDisk::with_capacity_bytes(1 << 30),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    );
    let drive = Arc::new(S4Drive::format(disk, DriveConfig::default(), clock.clone()).unwrap());
    if monitor {
        install_standard_monitor(&drive);
    }
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::lan_100mbit()),
        bench_ctx(),
        "detov",
        S4FsConfig::default(),
    )
    .unwrap();

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
        lat: LatencySummary::capture(&drive),
    }
}

fn main() {
    let scale = s4_bench::scale();
    let nfiles = ((2_000.0 * scale) as usize).max(100);
    let transactions = ((8_000.0 * scale) as usize).max(400);
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

    let sim_pct =
        (mon.sim.as_secs_f64() - base.sim.as_secs_f64()) / base.sim.as_secs_f64() * 100.0;

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
    println!(
        "rpc latency (monitored, sim us): p50 {} p90 {} p99 {} max {}   \
         p99 by layer: journal {} lfs {} disk {}",
        mon.lat.rpc_p50,
        mon.lat.rpc_p90,
        mon.lat.rpc_p99,
        mon.lat.rpc_max,
        mon.lat.journal_p99,
        mon.lat.lfs_p99,
        mon.lat.disk_p99,
    );
    println!(
        "BENCH_JSON {{\"bench\":\"detector_overhead\",\"nfiles\":{nfiles},\
\"transactions\":{transactions},\"records\":{records},\
\"sim_base_s\":{sim_base:.6},\"sim_monitored_s\":{sim_mon:.6},\
\"sim_overhead_pct\":{sim_pct:.3},\"wall_base_s\":{wall_base:.3},\
\"wall_monitored_s\":{wall_mon:.3},\"detector_us_per_record\":{us_per_record:.3},\
\"rpc_p50_us\":{rpc_p50},\"rpc_p90_us\":{rpc_p90},\"rpc_p99_us\":{rpc_p99},\
\"rpc_max_us\":{rpc_max},\"journal_p99_us\":{journal_p99},\
\"lfs_p99_us\":{lfs_p99},\"disk_p99_us\":{disk_p99}}}",
        records = records,
        sim_base = base.sim.as_secs_f64(),
        sim_mon = mon.sim.as_secs_f64(),
        wall_base = base.wall,
        wall_mon = mon.wall,
        rpc_p50 = mon.lat.rpc_p50,
        rpc_p90 = mon.lat.rpc_p90,
        rpc_p99 = mon.lat.rpc_p99,
        rpc_max = mon.lat.rpc_max,
        journal_p99 = mon.lat.journal_p99,
        lfs_p99 = mon.lat.lfs_p99,
        disk_p99 = mon.lat.disk_p99,
    );
}

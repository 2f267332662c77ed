//! Online-reshard cost: client throughput while a live `4 → 8` split
//! migrates every residue class, versus the same workload on a steady
//! 4-shard array — plus the flip pause, the only instant a client can
//! ever be made to wait.
//!
//! The mixed PostMark-style workload (as in `fig_array`) is replayed in
//! chunks; between chunks the migration advances one split (snapshot,
//! catch-up, flip). Simulated elapsed time is the slowest member
//! drive's busy time, so the migration's historical reads, re-exports,
//! and epoch installs are all charged against throughput exactly where
//! they land.
//!
//! Acceptance: the flip pause must not exceed one shard's queue drain —
//! `queue_depth` requests at the steady per-op service time. The final
//! line is machine-readable `BENCH_JSON {...}`; the committed baseline
//! lives in `BENCH_reshard.json`.

use s4_array::{ArrayConfig, S4Array};
use s4_bench::{banner, bench_ctx};
use s4_clock::{SimClock, SimDuration};
use s4_core::{DriveConfig, ObjectId, Request, Response, S4Drive};
use s4_reshard::{split_shard, ReshardConfig};
use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};

const SHARDS: usize = 4;

/// Deterministic 64-bit LCG (same constants as MMIX).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn build_array() -> S4Array<TimedDisk<MemDisk>> {
    let start = SimDuration::from_secs(1);
    let drives: Vec<S4Drive<TimedDisk<MemDisk>>> = (0..SHARDS)
        .map(|_| {
            let clock = SimClock::new();
            clock.advance(start);
            let disk = TimedDisk::new(
                MemDisk::with_capacity_bytes(1 << 30),
                DiskModelParams::cheetah_9gb_10k(),
                clock.clone(),
            );
            S4Drive::format(disk, DriveConfig::default(), clock).unwrap()
        })
        .collect();
    S4Array::from_drives(drives, ArrayConfig::default()).unwrap()
}

fn populate(array: &S4Array<TimedDisk<MemDisk>>, nfiles: usize, rng: &mut Lcg) -> (Vec<ObjectId>, u64) {
    let ctx = bench_ctx();
    let mut ops = 0u64;
    let mut oids = Vec::with_capacity(nfiles);
    for _ in 0..nfiles {
        let oid = match array.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        let size = 512 + (rng.next() % 8704) as usize;
        array
            .dispatch(&ctx, &Request::Write { oid, offset: 0, data: vec![0xA5; size] })
            .unwrap();
        oids.push(oid);
        ops += 2;
    }
    array.dispatch(&ctx, &Request::Sync).unwrap();
    (oids, ops + 1)
}

fn transactions(
    array: &S4Array<TimedDisk<MemDisk>>,
    oids: &[ObjectId],
    count: usize,
    rng: &mut Lcg,
) -> u64 {
    let ctx = bench_ctx();
    let mut ops = 0u64;
    for t in 0..count {
        let oid = oids[(rng.next() as usize) % oids.len()];
        let req = match rng.next() % 10 {
            0..=4 => Request::Read { oid, offset: 0, len: 512 + rng.next() % 4096, time: None },
            5..=8 => Request::Write {
                oid,
                offset: rng.next() % 4096,
                data: vec![0x5A; 512 + (rng.next() % 4096) as usize],
            },
            _ => Request::Append { oid, data: vec![0x3C; 256] },
        };
        array.dispatch(&ctx, &req).unwrap();
        ops += 1;
        if (t + 1) % 200 == 0 {
            array.dispatch(&ctx, &Request::Sync).unwrap();
            ops += 1;
        }
    }
    ops
}

/// Slowest member drive's simulated busy time since `start`.
fn elapsed_of(array: &S4Array<TimedDisk<MemDisk>>, start: SimDuration) -> SimDuration {
    (0..array.shard_count())
        .map(|s| {
            SimDuration::from_micros(
                array.shard_drive(s).clock().now().as_micros() - start.as_micros(),
            )
        })
        .max()
        .unwrap()
}

fn target_disk(clock: &SimClock) -> TimedDisk<MemDisk> {
    TimedDisk::new(
        MemDisk::with_capacity_bytes(1 << 30),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    )
}

fn main() {
    let scale = s4_bench::scale();
    let nfiles = ((600.0 * scale) as usize).max(64);
    let txns = ((4_800.0 * scale) as usize).max(400);
    let start = SimDuration::from_secs(1);
    banner(
        "Online reshard: live 4 -> 8 split vs steady state",
        &format!("{nfiles} objects (512B-9KB), {txns} transactions, splits interleaved"),
    );

    // --- Steady baseline: the whole workload on an untouched array.
    let steady = build_array();
    let mut rng = Lcg(0x5345_4355);
    let (oids, mut steady_ops) = populate(&steady, nfiles, &mut rng);
    steady_ops += transactions(&steady, &oids, txns, &mut rng);
    let before_barrier = elapsed_of(&steady, start);
    // A queue drain ends in a durability barrier; measure what one
    // costs with a realistic amount of dirty state (the tail of the
    // transaction phase since the last periodic sync).
    steady.dispatch(&bench_ctx(), &Request::Sync).unwrap();
    steady_ops += 1;
    let steady_elapsed = elapsed_of(&steady, start);
    let barrier_us = (steady_elapsed.as_micros() - before_barrier.as_micros()) as f64;
    let steady_tput = steady_ops as f64 / steady_elapsed.as_secs_f64();
    // One request's steady per-shard service time, for the drain bound.
    let op_us = steady_elapsed.as_micros() as f64 * SHARDS as f64 / steady_ops as f64;
    steady.unmount().unwrap();

    // --- Migration run: identical stream, but between chunks the array
    // splits one residue class, until all four have moved.
    let migrating = build_array();
    let mut rng = Lcg(0x5345_4355);
    let (oids, mut mig_ops) = populate(&migrating, nfiles, &mut rng);
    let chunk = txns / (SHARDS + 1);
    let mut reports = Vec::new();
    for slot in 0..SHARDS {
        mig_ops += transactions(&migrating, &oids, chunk, &mut rng);
        let clock = migrating.shard_drive(slot).clock().clone();
        let report = split_shard(
            &migrating,
            slot,
            vec![target_disk(&clock)],
            ReshardConfig { lag_threshold: 0 },
        )
        .unwrap();
        reports.push(report);
    }
    mig_ops += transactions(&migrating, &oids, txns - SHARDS * chunk, &mut rng);
    assert_eq!(migrating.epoch().base, 2 * SHARDS);
    let mig_elapsed = elapsed_of(&migrating, start);
    let mig_tput = mig_ops as f64 / mig_elapsed.as_secs_f64();
    migrating.unmount().unwrap();

    let ratio = mig_tput / steady_tput;
    let snapshot: usize = reports.iter().map(|r| r.snapshot_objects).sum();
    let catchup: usize = reports.iter().map(|r| r.catchup_objects).sum();
    let final_delta: usize = reports.iter().map(|r| r.final_delta_objects).sum();
    let max_pause_us = reports
        .iter()
        .map(|r| r.flip.pause.as_micros())
        .max()
        .unwrap();
    let queue_depth = s4_array::QUEUE_DEPTH;
    let drain_bound_us = queue_depth as f64 * op_us + barrier_us;

    println!(
        "{:<22} {:>10} {:>14} {:>16}",
        "run", "ops", "sim elapsed", "ops/sim-sec"
    );
    println!(
        "{:<22} {:>10} {:>13.3}s {:>16.0}",
        "steady 4 shards",
        steady_ops,
        steady_elapsed.as_secs_f64(),
        steady_tput
    );
    println!(
        "{:<22} {:>10} {:>13.3}s {:>16.0}  ({ratio:.2}x of steady)",
        "migrating 4 -> 8",
        mig_ops,
        mig_elapsed.as_secs_f64(),
        mig_tput
    );
    println!();
    println!(
        "migrated: snapshot={snapshot} catchup={catchup} final_delta={final_delta} objects \
         across {SHARDS} splits"
    );
    println!(
        "flip pauses: {}",
        reports
            .iter()
            .map(|r| format!("slot {} {}us", r.source_slot, r.flip.pause.as_micros()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "worst flip pause {max_pause_us}us vs one shard's queue drain \
         ({queue_depth} x {op_us:.0}us + {barrier_us:.0}us barrier = {drain_bound_us:.0}us)"
    );
    assert!(
        (max_pause_us as f64) <= drain_bound_us,
        "flip pause {max_pause_us}us exceeds a queue drain ({drain_bound_us:.0}us)"
    );
    assert!(
        ratio >= 0.5,
        "migration must not halve client throughput: {ratio:.2}x"
    );

    println!(
        "BENCH_JSON {{\"bench\":\"fig_reshard\",\"nfiles\":{nfiles},\
\"transactions\":{txns},\"steady_ops_per_sim_s\":{steady_tput:.0},\
\"migrating_ops_per_sim_s\":{mig_tput:.0},\"migrating_over_steady\":{ratio:.3},\
\"snapshot_objects\":{snapshot},\"catchup_objects\":{catchup},\
\"final_delta_objects\":{final_delta},\"max_flip_pause_us\":{max_pause_us},\
\"steady_barrier_us\":{barrier_us:.0},\"queue_drain_bound_us\":{drain_bound_us:.0}}}"
    );
}

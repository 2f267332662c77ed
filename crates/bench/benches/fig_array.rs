//! Array scale-out: simulated throughput of a PostMark-style mixed
//! object workload on 1 / 2 / 4 / 8 shards.
//!
//! Each shard is an independent simulated drive (own disk model, own
//! clock — as independent spindles are), built with `from_drives` so
//! per-shard simulated time accumulates separately. The same request
//! stream is replayed against every array size; elapsed time is the
//! *slowest shard's* busy time, so throughput reflects the parallelism
//! actually extracted: perfect routing balance gives linear speedup,
//! broadcast `Sync`s and residue skew eat into it.
//!
//! The final line is machine-readable: `BENCH_JSON {...}` — the
//! committed baseline lives in `BENCH_array.json`.

use s4_array::{ArrayConfig, S4Array};
use s4_bench::{banner, bench_ctx};
use s4_clock::{SimClock, SimDuration};
use s4_core::{DriveConfig, ObjectId, Request, Response, S4Drive};
use s4_simdisk::{
    BlockDev, DiskModelParams, FaultPlan, FaultyDisk, MemDisk, RequestClassMask, TimedDisk,
};

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

struct RunResult {
    ops: u64,
    elapsed: SimDuration,
    wall: f64,
}

/// Replays the PostMark-style workload against `array`. Returns the
/// operation count.
fn workload<D: BlockDev + 'static>(
    array: &S4Array<D>,
    nfiles: usize,
    transactions: usize,
) -> u64 {
    let ctx = bench_ctx();
    let mut rng = Lcg(0x5345_4355);
    let mut ops = 0u64;

    // Population phase: PostMark's file set, written once.
    let mut oids: Vec<ObjectId> = Vec::with_capacity(nfiles);
    for _ in 0..nfiles {
        let oid = match array.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        let size = 512 + (rng.next() % 8704) as usize; // 512 B – 9 KiB
        array
            .dispatch(
                &ctx,
                &Request::Write {
                    oid,
                    offset: 0,
                    data: vec![0xA5; size],
                },
            )
            .unwrap();
        oids.push(oid);
        ops += 2;
    }
    array.dispatch(&ctx, &Request::Sync).unwrap();
    ops += 1;

    // Transaction phase: PostMark's equal read/write bias plus a tail
    // of appends, with a periodic durability barrier.
    for t in 0..transactions {
        let oid = oids[(rng.next() as usize) % oids.len()];
        let req = match rng.next() % 10 {
            0..=4 => Request::Read {
                oid,
                offset: 0,
                len: 512 + rng.next() % 4096,
                time: None,
            },
            5..=8 => Request::Write {
                oid,
                offset: rng.next() % 4096,
                data: vec![0x5A; 512 + (rng.next() % 4096) as usize],
            },
            _ => Request::Append {
                oid,
                data: vec![0x3C; 256],
            },
        };
        array.dispatch(&ctx, &req).unwrap();
        ops += 1;
        if (t + 1) % 200 == 0 {
            array.dispatch(&ctx, &Request::Sync).unwrap();
            ops += 1;
        }
    }
    array.dispatch(&ctx, &Request::Sync).unwrap();
    ops += 1;
    ops
}

/// The run takes as long as its busiest member drive.
fn elapsed_of<D: BlockDev + 'static>(array: &S4Array<D>, start: SimDuration) -> SimDuration {
    (0..array.shard_count())
        .flat_map(|s| (0..array.mirror_count()).map(move |k| (s, k)))
        .map(|(s, k)| {
            SimDuration::from_micros(
                array.member_drive(s, k).clock().now().as_micros() - start.as_micros(),
            )
        })
        .max()
        .unwrap()
}

/// Builds an `n`-shard array of independently-clocked timed drives and
/// replays the mixed workload. Returns (ops, slowest-shard sim time).
fn run(n: usize, nfiles: usize, transactions: usize) -> RunResult {
    let start = SimDuration::from_secs(1);
    let drives: Vec<S4Drive<TimedDisk<MemDisk>>> = (0..n)
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
    let array = S4Array::from_drives(drives, ArrayConfig::default()).unwrap();
    let t0 = std::time::Instant::now();
    let ops = workload(&array, nfiles, transactions);
    let elapsed = elapsed_of(&array, start);
    let wall = t0.elapsed().as_secs_f64();
    array.unmount().unwrap();
    RunResult { ops, elapsed, wall }
}

/// A 4-shard, 2-mirror array of timed drives. With `kill_one`, shard
/// 0's first replica dies a few device writes into the run, so almost
/// the whole workload executes in degraded mode — the datapoint the
/// healthy run is compared against.
fn run_mirrored(kill_one: bool, nfiles: usize, transactions: usize) -> RunResult {
    const SHARDS: usize = 4;
    const MIRRORS: usize = 2;
    let start = SimDuration::from_secs(1);
    let drives: Vec<S4Drive<FaultyDisk<TimedDisk<MemDisk>>>> = (0..SHARDS * MIRRORS)
        .map(|i| {
            let clock = SimClock::new();
            clock.advance(start);
            let config = DriveConfig::default();
            // Format fault-free, then re-arm: the victim's death counter
            // must count workload writes, not format's.
            let disk = FaultyDisk::new(
                TimedDisk::new(
                    MemDisk::with_capacity_bytes(1 << 30),
                    DiskModelParams::cheetah_9gb_10k(),
                    clock.clone(),
                ),
                FaultPlan::none(),
            );
            let drive = S4Drive::format(disk, config, clock.clone()).unwrap();
            let disk = drive.unmount().unwrap().into_inner();
            let plan = if kill_one && i == 0 {
                FaultPlan::member_death_after_requests(
                    10,
                    RequestClassMask::WRITES.union(RequestClassMask::SYNCS),
                )
            } else {
                FaultPlan::none()
            };
            S4Drive::mount(FaultyDisk::new(disk, plan), config, clock).unwrap()
        })
        .collect();
    let array = S4Array::from_drives(
        drives,
        ArrayConfig {
            mirrors: MIRRORS,
            ..ArrayConfig::default()
        },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    let ops = workload(&array, nfiles, transactions);
    if kill_one {
        assert!(array.shard_degraded(0), "victim member never died");
    }
    let elapsed = elapsed_of(&array, start);
    let wall = t0.elapsed().as_secs_f64();
    // A degraded array refuses to unmount (the dead member cannot
    // sync); dropping it joins the workers either way.
    drop(array);
    RunResult { ops, elapsed, wall }
}

fn main() {
    let scale = s4_bench::scale();
    let nfiles = ((800.0 * scale) as usize).max(64);
    let transactions = ((6_000.0 * scale) as usize).max(400);
    banner(
        "Array scale-out: PostMark-style mixed workload",
        &format!("{nfiles} objects (512B-9KB), {transactions} transactions, shards 1/2/4/8"),
    );

    println!(
        "{:<8} {:>10} {:>14} {:>16} {:>10}",
        "shards", "ops", "sim elapsed", "ops/sim-sec", "speedup"
    );
    let shard_counts = [1usize, 2, 4, 8];
    let mut throughputs = Vec::new();
    let mut base = 0.0f64;
    for &n in &shard_counts {
        let r = run(n, nfiles, transactions);
        let tput = r.ops as f64 / r.elapsed.as_secs_f64();
        if n == 1 {
            base = tput;
        }
        println!(
            "{:<8} {:>10} {:>13.3}s {:>16.0} {:>9.2}x  (wall {:.2}s)",
            n,
            r.ops,
            r.elapsed.as_secs_f64(),
            tput,
            tput / base,
            r.wall,
        );
        throughputs.push(tput);
    }

    let speedups: Vec<f64> = throughputs.iter().map(|t| t / base).collect();
    println!();
    println!(
        "4-shard speedup {:.2}x (acceptance: >= 2x), 8-shard {:.2}x",
        speedups[2], speedups[3]
    );
    assert!(
        speedups[2] >= 2.0,
        "4 shards must at least double 1-shard throughput: {:.2}x",
        speedups[2]
    );

    // Fault-tolerance datapoint: the same workload on a 4×2 mirrored
    // array, healthy vs. running degraded after a member kill. Degraded
    // mode must not collapse client throughput — reads fail over and
    // writes simply stop paying for the dead replica.
    println!();
    let healthy = run_mirrored(false, nfiles, transactions);
    let h_tput = healthy.ops as f64 / healthy.elapsed.as_secs_f64();
    let degraded = run_mirrored(true, nfiles, transactions);
    let d_tput = degraded.ops as f64 / degraded.elapsed.as_secs_f64();
    let ratio = d_tput / h_tput;
    println!(
        "4x2 mirrored: healthy {h_tput:.0} ops/sim-s, degraded (one member dead) \
{d_tput:.0} ops/sim-s ({ratio:.2}x, acceptance: >= 0.5x)"
    );
    assert!(
        ratio >= 0.5,
        "degraded mode must not halve client throughput: {ratio:.2}x"
    );

    let fmt = |v: &[f64], p: usize| {
        v.iter()
            .map(|x| format!("{x:.*}", p))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "BENCH_JSON {{\"bench\":\"fig_array\",\"nfiles\":{nfiles},\
\"transactions\":{transactions},\"shards\":[1,2,4,8],\
\"throughput_ops_per_sim_s\":[{}],\"speedup_vs_1\":[{}],\
\"mirrored_healthy_ops_per_sim_s\":{h_tput:.0},\
\"mirrored_degraded_ops_per_sim_s\":{d_tput:.0},\
\"degraded_over_healthy\":{ratio:.3}}}",
        fmt(&throughputs, 0),
        fmt(&speedups, 3),
    );
}

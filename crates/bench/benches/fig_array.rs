//! Array scale-out: simulated throughput of a PostMark-style mixed
//! object workload on 1 / 2 / 4 / 8 shards.
//!
//! Each shard is an independent simulated drive (own disk model, own
//! clock — as independent spindles are), built with `from_drives` so
//! per-shard simulated time accumulates separately. The same request
//! stream is replayed against every array size; elapsed time is the
//! *slowest shard's* busy time, so throughput reflects the parallelism
//! actually extracted: perfect routing balance gives linear speedup,
//! broadcast `Sync`s and residue skew eat into it. The workload is
//! `s4_bench::scaleout`'s, shared with `fig_reshard`.
//!
//! The degraded datapoint replays the workload on a 4×2 mirrored array
//! with one member of shard 0 killed early, against the same array
//! healthy. Its ratio is exactly 1.000 by construction (13 150 / 13 150
//! ops/sim-s at scale 0.25, 18 191 / 18 191 at full scale): each member
//! has its own clock, and the surviving mirror does exactly the work the
//! healthy array's read-serving member did, so the slowest member's
//! time is the same. The ≥ 0.5× assertion therefore cannot fail; it
//! measures that a dead member adds no work, not what a shared spindle
//! would lose.
//!
//! `scripts/verify.sh` pins the record's `sim` fields at scale 0.25 in
//! `BENCH_array.json`; EXPERIMENTS.md has full scale.

use s4_bench::scaleout::{array_of, mixed_workload, timed_array, Run};
use s4_bench::{banner, scaled, timed_disk, Record, DEFAULT_DISK_BYTES};
use s4_core::{DriveConfig, S4Drive};
use s4_simdisk::{FaultPlan, FaultyDisk, RequestClassMask};

/// A 4-shard, 2-mirror array of timed drives. With `kill_one`, shard
/// 0's first replica dies a few device writes into the run, so almost
/// the whole workload executes in degraded mode — the datapoint the
/// healthy run is compared against. Returns its simulated throughput.
fn run_mirrored(kill_one: bool, nfiles: usize, transactions: usize) -> f64 {
    let array = array_of(4 * 2, 2, |i, clock| {
        let config = DriveConfig::default();
        // Format fault-free, then re-arm: the victim's death counter
        // must count workload writes, not format's.
        let disk = FaultyDisk::new(timed_disk(DEFAULT_DISK_BYTES, &clock), FaultPlan::none());
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
    });
    let run = mixed_workload(&array, nfiles, transactions);
    if kill_one {
        assert!(array.shard_degraded(0), "victim member never died");
    }
    // A degraded array refuses to unmount (the dead member cannot
    // sync); dropping it joins the workers either way.
    run.ops_per_sim_s()
}

fn main() {
    let nfiles = scaled(800, 64);
    let transactions = scaled(6_000, 400);
    banner(
        "Array scale-out: PostMark-style mixed workload",
        &format!("{nfiles} objects (512B-9KB), {transactions} transactions, shards 1/2/4/8"),
    );

    println!(
        "{:<8} {:>10} {:>14} {:>16} {:>10}",
        "shards", "ops", "sim elapsed", "ops/sim-sec", "speedup"
    );
    let shard_counts = [1usize, 2, 4, 8];
    let runs = shard_counts.map(|n| {
        let array = timed_array(n);
        let run = mixed_workload(&array, nfiles, transactions);
        array.unmount().unwrap();
        run
    });
    let throughputs = runs.each_ref().map(Run::ops_per_sim_s);
    let speedups = throughputs.map(|t| t / throughputs[0]);
    for (i, r) in runs.iter().enumerate() {
        println!(
            "{:<8} {:>10} {:>13.3}s {:>16.0} {:>9.2}x  (wall {:.2}s)",
            shard_counts[i],
            r.ops,
            r.elapsed.as_secs_f64(),
            throughputs[i],
            speedups[i],
            r.wall,
        );
    }

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
    let h_tput = run_mirrored(false, nfiles, transactions);
    let d_tput = run_mirrored(true, nfiles, transactions);
    let ratio = d_tput / h_tput;
    println!(
        "4x2 mirrored: healthy {h_tput:.0} ops/sim-s, degraded (one member dead) \
{d_tput:.0} ops/sim-s ({ratio:.2}x, acceptance: >= 0.5x)"
    );
    assert!(
        ratio >= 0.5,
        "degraded mode must not halve client throughput: {ratio:.2}x"
    );

    Record::new("fig_array")
        .sim("nfiles", nfiles)
        .sim("transactions", transactions)
        .sim("shards", &shard_counts[..])
        .sim("elapsed_us", &runs.each_ref().map(|r| r.elapsed)[..])
        .sim("throughput_ops_per_sim_s", &throughputs[..])
        .sim("speedup_vs_1", &speedups[..])
        .sim("mirrored_healthy_ops_per_sim_s", h_tput)
        .sim("mirrored_degraded_ops_per_sim_s", d_tput)
        .sim("degraded_over_healthy", ratio)
        .wall("wall_s", &runs.each_ref().map(|r| r.wall)[..])
        .emit();
}

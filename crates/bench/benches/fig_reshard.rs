//! Online-reshard cost: client throughput while a live `4 → 8` split
//! migrates every residue class, versus the same workload on a steady
//! 4-shard array — plus the flip pause, the only instant a client can
//! ever be made to wait.
//!
//! The mixed PostMark-style workload of `s4_bench::scaleout` (shared
//! with `fig_array`) is replayed in chunks; between chunks the migration
//! advances one split (snapshot, catch-up, flip). Simulated elapsed time
//! is the slowest member drive's busy time, so the migration's
//! historical reads, re-exports, and epoch installs are all charged
//! against throughput exactly where they land.
//!
//! Acceptance: the flip pause must not exceed one shard's queue drain —
//! `queue_depth` requests at the steady per-op service time.
//! `scripts/verify.sh` pins the record's `sim` fields at scale 0.25 in
//! `BENCH_reshard.json`; EXPERIMENTS.md has full scale.

use s4_array::{split_shard, ReshardConfig};
use s4_bench::scaleout::{elapsed_of, mixed_workload, populate, timed_array, transactions, SEED};
use s4_bench::{banner, scaled, timed_disk, Lcg, Record, DEFAULT_DISK_BYTES};

const SHARDS: usize = 4;

fn main() {
    let nfiles = scaled(600, 64);
    let txns = scaled(4_800, 400);
    banner(
        "Online reshard: live 4 -> 8 split vs steady state",
        &format!("{nfiles} objects (512B-9KB), {txns} transactions, splits interleaved"),
    );

    // --- Steady baseline: the whole workload on an untouched array. A
    // queue drain ends in a durability barrier; its closing `Sync` measures
    // what one costs with a realistic amount of dirty state (the tail of
    // the transaction phase since the last periodic sync).
    let array = timed_array(SHARDS);
    let steady = mixed_workload(&array, nfiles, txns);
    array.unmount().unwrap();
    let (steady_tput, barrier_us) = (steady.ops_per_sim_s(), steady.barrier_us);
    // One request's steady per-shard service time, for the drain bound.
    let op_us = steady.elapsed.as_micros() as f64 * SHARDS as f64 / steady.ops as f64;

    // --- Migration run: identical stream, but between chunks the array
    // splits one residue class, until all four have moved.
    let migrating = timed_array(SHARDS);
    let mut rng = Lcg(SEED);
    let (oids, mut mig_ops) = populate(&migrating, nfiles, &mut rng);
    let chunk = txns / (SHARDS + 1);
    let mut reports = Vec::new();
    for slot in 0..SHARDS {
        mig_ops += transactions(&migrating, &oids, chunk, &mut rng);
        let clock = migrating.shard_drive(slot).clock().clone();
        let report = split_shard(
            &migrating,
            slot,
            vec![timed_disk(DEFAULT_DISK_BYTES, &clock)],
            ReshardConfig { lag_threshold: 0 },
        )
        .unwrap();
        reports.push(report);
    }
    mig_ops += transactions(&migrating, &oids, txns - SHARDS * chunk, &mut rng);
    assert_eq!(migrating.epoch().base, 2 * SHARDS);
    let mig_elapsed = elapsed_of(&migrating);
    let mig_tput = mig_ops as f64 / mig_elapsed.as_secs_f64();
    migrating.unmount().unwrap();

    let ratio = mig_tput / steady_tput;
    let snapshot: usize = reports.iter().map(|r| r.snapshot_objects).sum();
    let catchup: usize = reports.iter().map(|r| r.catchup_objects).sum();
    let final_delta: usize = reports.iter().map(|r| r.final_delta_objects).sum();
    let pauses: Vec<u64> = reports.iter().map(|r| r.flip.pause.as_micros()).collect();
    let max_pause_us = *pauses.iter().max().unwrap();
    let queue_depth = s4_array::QUEUE_DEPTH;
    let drain_bound_us = queue_depth as f64 * op_us + barrier_us as f64;

    println!(
        "{:<22} {:>10} {:>14} {:>16}",
        "run", "ops", "sim elapsed", "ops/sim-sec"
    );
    println!(
        "{:<22} {:>10} {:>13.3}s {:>16.0}",
        "steady 4 shards",
        steady.ops,
        steady.elapsed.as_secs_f64(),
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
            .zip(&pauses)
            .map(|(r, pause)| format!("slot {} {pause}us", r.source_slot))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "worst flip pause {max_pause_us}us vs one shard's queue drain \
         ({queue_depth} x {op_us:.0}us + {barrier_us}us barrier = {drain_bound_us:.0}us)"
    );
    assert!(
        (max_pause_us as f64) <= drain_bound_us,
        "flip pause {max_pause_us}us exceeds a queue drain ({drain_bound_us:.0}us)"
    );
    assert!(
        ratio >= 0.5,
        "migration must not halve client throughput: {ratio:.2}x"
    );

    Record::new("fig_reshard")
        .sim("nfiles", nfiles)
        .sim("transactions", txns)
        .sim("steady_ops_per_sim_s", steady_tput)
        .sim("migrating_ops_per_sim_s", mig_tput)
        .sim("migrating_over_steady", ratio)
        .sim("snapshot_objects", snapshot)
        .sim("catchup_objects", catchup)
        .sim("final_delta_objects", final_delta)
        .sim("flip_pause_us", &pauses[..])
        .sim("steady_barrier_us", barrier_us)
        .sim("queue_drain_bound_us", drain_bound_us)
        .emit();
}

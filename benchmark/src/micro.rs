//! Microbenchmarks of the two layers no wrapper can reach from outside
//! a running drive: the journal codec and version reconstruction
//! (`s4_journal`), and the log's append + flush path (`s4_lfs`). They
//! call public functions directly, on inputs shaped like the
//! `drive_churn_recover` workload's: one-block overwrites.

use std::hint::black_box;
use std::time::Instant;

use s4_clock::{HybridTimestamp, SimTime};
use s4_journal::{
    decode_sector, encode_sectors, reconstruct_at, redo, JournalEntry, ObjectMeta, PtrChange,
};
use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, LogConfig, BLOCK_SIZE};

use crate::harness::{Images, Plan, RepOut};
use crate::stats::median;
use crate::trace;
use crate::wrap::SpanDisk;

/// A 100-version chain of one-block overwrites of a two-block object.
const CHAIN: u64 = 100;
const ROUNDS: usize = 9;
const ITERS: usize = 200;

fn stamp(i: u64) -> HybridTimestamp {
    HybridTimestamp::new(SimTime::from_micros(1_000 * i), i)
}

fn chain() -> (ObjectMeta, Vec<JournalEntry>) {
    let mut meta = ObjectMeta::new(7, stamp(0));
    let mut entries = Vec::new();
    for i in 1..=CHAIN {
        let lbn = i % 2;
        let old = meta.blocks.get(&lbn).copied().unwrap_or(BlockAddr::NONE);
        let e = JournalEntry::Write {
            stamp: stamp(i),
            old_size: meta.size,
            new_size: 8192,
            changes: vec![PtrChange {
                lbn,
                old,
                new: BlockAddr(1_000 + i),
            }],
        };
        redo(&mut meta, &e);
        meta.modified = stamp(i);
        entries.push(e);
    }
    (meta, entries)
}

/// Median over `ROUNDS` rounds of the mean nanoseconds one call of `f`
/// takes over `ITERS` calls.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            t0.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&rounds).expect("ROUNDS > 0")
}

/// `journal.encode_ns_per_entry`, `journal.decode_ns_per_entry`,
/// `journal.reconstruct_ns_per_entry`.
pub fn journal(out: &mut RepOut) {
    let (meta, entries) = chain();
    let n = entries.len() as f64;
    out.set(
        "journal.encode_ns_per_entry",
        time_ns(|| {
            black_box(encode_sectors(black_box(&entries)));
        }) / n,
    );
    let blocks: Vec<Vec<u8>> = encode_sectors(&entries)
        .iter()
        .map(|s| s.finish(meta.id, BlockAddr::NONE))
        .collect();
    out.set(
        "journal.decode_ns_per_entry",
        time_ns(|| {
            for b in &blocks {
                black_box(decode_sector(black_box(b)).expect("sector decodes"));
            }
        }) / n,
    );
    // Walk the whole chain back: the version current just after creation.
    let newest_first: Vec<JournalEntry> = entries.iter().rev().cloned().collect();
    let bound = HybridTimestamp::upper_bound_at(SimTime::from_micros(500));
    out.set(
        "journal.reconstruct_ns_per_entry",
        time_ns(|| {
            let v = reconstruct_at(black_box(&meta), newest_first.iter().cloned(), bound);
            assert!(black_box(v).is_some_and(|m| m.blocks.is_empty()));
        }) / n,
    );
}

/// `lfs.flush_self_us`: `Log::append` × 4 then `Log::flush` on a
/// `SpanDisk` over a file-backed device, minus the time inside the
/// device calls — the log's own cost of one small batch.
pub fn lfs(out: &mut RepOut, plan: &Plan) -> Result<(), String> {
    const BATCH: usize = 4;
    let mut images = Images::new(&plan.scratch).map_err(|e| e.to_string())?;
    let file = images.create(90, 64 << 20)?;
    let log =
        Log::format(SpanDisk::new(file, 90), LogConfig::default()).map_err(|e| e.to_string())?;
    let block = vec![0xA5u8; BLOCK_SIZE];
    let was_on = trace::enabled();
    trace::drain();
    trace::set_enabled(true);
    let mut total_ns = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for i in 0..ITERS {
            for b in 0..BATCH {
                log.append(
                    BlockTag::new(BlockKind::Data, 7, (i * BATCH + b) as u64),
                    &block,
                )
                .map_err(|e| e.to_string())?;
            }
            log.flush().map_err(|e| e.to_string())?;
        }
        total_ns.push(t0.elapsed().as_nanos() as f64);
    }
    trace::set_enabled(was_on);
    let disk_ns: u64 = trace::drain().iter().map(|s| s.dur_ns()).sum();
    let flushes = (ROUNDS * ITERS) as f64;
    let self_ns = (total_ns.iter().sum::<f64>() - disk_ns as f64) / flushes;
    out.set("lfs.flush_self_us", self_ns / 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_a_hundred_versions_that_reconstruct_to_empty() {
        let (meta, entries) = chain();
        assert_eq!(entries.len(), 100);
        assert_eq!(meta.blocks.len(), 2);
        let newest_first: Vec<_> = entries.iter().rev().cloned().collect();
        let early = HybridTimestamp::upper_bound_at(SimTime::from_micros(500));
        let v = reconstruct_at(&meta, newest_first.clone(), early).unwrap();
        assert!(v.blocks.is_empty());
        let mid = HybridTimestamp::upper_bound_at(SimTime::from_micros(50_500));
        let v = reconstruct_at(&meta, newest_first, mid).unwrap();
        assert_eq!(v.blocks.get(&0), Some(&BlockAddr(1_050)));
        assert_eq!(v.blocks.get(&1), Some(&BlockAddr(1_049)));
        let mut out = RepOut::default();
        journal(&mut out);
        assert!(out.values["journal.encode_ns_per_entry"] > 0.0);
        assert!(out.values["journal.decode_ns_per_entry"] > 0.0);
        assert!(out.values["journal.reconstruct_ns_per_entry"] > 0.0);
    }
}

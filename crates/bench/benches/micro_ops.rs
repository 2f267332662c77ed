//! Micro-benchmarks for the hot primitives underneath the figure
//! harnesses: journal entry codec, CRC, LZSS, xdelta, block-cache
//! operations, and the drive's write/read path.
//!
//! Self-contained timing harness (no external bench framework so the
//! tier-1 build stays hermetic): each case is warmed up, then run for a
//! fixed wall-clock budget and reported as ns/op. The ns/op figures end
//! in one `s4_bench::Record` of `wall` fields; nothing commits them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use s4_bench::{banner, Record};
use s4_clock::{HybridTimestamp, SimClock, SimTime};
use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive, UserId};
use s4_journal::{encode_sectors, JournalEntry, PtrChange};
use s4_lfs::{BlockAddr, BlockCache, Bytes};
use s4_simdisk::MemDisk;

const WARMUP: Duration = Duration::from_millis(200);
const MEASURE: Duration = Duration::from_millis(800);

/// Runs `op` repeatedly for the measurement budget, prints ns/op,
/// records it as the wall field `name` and returns it.
fn bench<R>(rec: &mut Record, name: &str, mut op: impl FnMut() -> R) -> f64 {
    let mut spin = |budget: Duration| -> (u64, Duration) {
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < budget {
            for _ in 0..16 {
                black_box(op());
            }
            iters += 16;
        }
        (iters, start.elapsed())
    };
    spin(WARMUP);
    let (iters, elapsed) = spin(MEASURE);
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<34} {ns:>12.1} ns/op   ({iters} iters)");
    rec.wall(name, ns);
    ns
}

fn sample_entries(n: u64) -> Vec<JournalEntry> {
    (0..n)
        .map(|i| JournalEntry::Write {
            stamp: HybridTimestamp::new(SimTime::from_micros(i), i),
            old_size: i * 4096,
            new_size: (i + 1) * 4096,
            changes: vec![PtrChange {
                lbn: i,
                old: BlockAddr(i),
                new: BlockAddr(i + 100),
            }],
        })
        .collect()
}

fn bench_journal(rec: &mut Record) {
    let entries = sample_entries(64);
    bench(rec, "journal/encode_sectors_64_entries", || {
        encode_sectors(black_box(&entries))
    });
    let mut buf = Vec::new();
    entries[0].encode_into(&mut buf);
    bench(rec, "journal/decode_entry", || {
        let mut pos = 0;
        JournalEntry::decode_from(black_box(&buf), &mut pos).unwrap()
    });
}

/// The two checksums on the commit path: every flush CRCs its 4 KiB
/// summary block and XXH64s its data blocks (64 KiB here; up to a
/// segment's worth per flush). Prints throughput next to ns/op.
fn bench_checksums(rec: &mut Record) {
    fn case<R>(rec: &mut Record, name: &str, len: usize, sum: impl Fn(&[u8]) -> R) {
        let buf = vec![0xA5u8; len];
        let ns = bench(rec, name, || sum(black_box(&buf)));
        println!("{name:<34} {:>12.2} GB/s", len as f64 / ns);
    }
    case(rec, "lfs/crc32_4k", 4096, s4_lfs::crc::crc32);
    case(rec, "lfs/batch_checksum_64k", 64 << 10, s4_lfs::crc::xxh64);
}

fn bench_delta(rec: &mut Record) {
    let old = b"static int handle_packet(struct conn *c) { return enqueue(c); }\n".repeat(200);
    let mut new = old.clone();
    new[4000..4010].copy_from_slice(b"EDITEDLINE");
    bench(rec, "delta/xdelta_diff_13k", || {
        s4_delta::diff(black_box(&old), black_box(&new))
    });
    bench(rec, "delta/lzss_compress_13k", || {
        s4_delta::compress(black_box(&old))
    });
}

fn bench_cache(rec: &mut Record) {
    let cache = BlockCache::new(1024);
    for i in 0..1024u64 {
        cache.insert(BlockAddr(i), Bytes::from(vec![0u8; 64]));
    }
    let mut i = 0u64;
    bench(rec, "lfs/block_cache_hit", || {
        i = (i + 1) % 1024;
        cache.get(black_box(BlockAddr(i)))
    });
}

fn bench_drive(rec: &mut Record) {
    let clock = SimClock::new();
    // Zero window + periodic reclamation keep the pool from filling while
    // the harness drives tens of thousands of version-creating writes.
    let config = DriveConfig {
        detection_window: s4_clock::SimDuration::ZERO,
        ..DriveConfig::default()
    };
    let drive = S4Drive::format(
        MemDisk::with_capacity_bytes(512 << 20),
        config,
        clock.clone(),
    )
    .unwrap();
    let ctx = RequestContext::user(UserId(1), ClientId(1));
    let oid = drive.op_create(&ctx, None).unwrap();
    let payload = vec![7u8; 4096];
    let mut n = 0u32;
    bench(rec, "drive/write_4k_version", || {
        n += 1;
        if n.is_multiple_of(4096) {
            clock.advance(s4_clock::SimDuration::from_secs(1));
            drive.op_sync(&ctx).unwrap();
            drive.expire_versions().unwrap();
            drive.free_dead_segments();
            drive.force_anchor().unwrap();
        }
        drive.op_write(&ctx, oid, 0, black_box(&payload)).unwrap()
    });
    drive.op_sync(&ctx).unwrap();
    bench(rec, "drive/read_4k", || {
        drive.op_read(&ctx, oid, 0, 4096, None).unwrap()
    });
    let t = drive.now();
    bench(rec, "drive/time_based_read_4k", || {
        drive
            .op_read(&ctx, oid, 0, 4096, Some(black_box(t)))
            .unwrap()
    });
}

fn main() {
    banner(
        "micro_ops: hot-path primitives",
        "journal codec, crc32, delta, block cache, drive write/read",
    );
    let mut rec = Record::new("micro_ops");
    bench_journal(&mut rec);
    bench_checksums(&mut rec);
    bench_delta(&mut rec);
    bench_cache(&mut rec);
    bench_drive(&mut rec);
    rec.emit();
}

//! Model and round-trip properties of the layers below the drive —
//! journal entries, the log, differencing and compression — on random
//! inputs from the in-tree xoshiro256** PRNG (`s4_workloads::Rng`).
//!
//! The seeds are fixed, so CI is deterministic, and a failure prints the
//! seed and case it happened on; edit `SEEDS` to try another. What these
//! decoders do with *hostile* bytes is `tests/decoder_fuzz.rs`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use s4_clock::{HybridTimestamp, SimTime};
use s4_delta::ChainMode;
use s4_delta::{apply, compress, decompress, diff, Delta, DeltaChain};
use s4_journal::{
    decode_sector, encode_sectors, reconstruct_at, redo, undo, JournalEntry, ObjectMeta, PtrChange,
};
use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, LogConfig};
use s4_simdisk::MemDisk;
use s4_workloads::Rng;

const SEEDS: [u64; 3] = [0x5345_4355_5245_5334, 1, 2];

/// Runs `property` on `cases` successive draws from each fixed seed.
fn check(cases: usize, property: impl Fn(&mut Rng)) {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        for case in 0..cases {
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
                eprintln!("property failed on seed {seed:#x}, case {case}");
                resume_unwind(panic);
            }
        }
    }
}

/// Random bytes, `lo..=hi` of them.
fn bytes(rng: &mut Rng, lo: u64, hi: u64) -> Vec<u8> {
    let len = rng.range(lo, hi) as usize;
    rng.bytes(len)
}

// ---------------------------------------------------------------------
// Journal: codec stability, undo/redo inversion, and point-in-time
// reconstruction against replayed state.
// ---------------------------------------------------------------------

fn stamp(i: u64) -> HybridTimestamp {
    HybridTimestamp::new(SimTime::from_micros(i * 10), i)
}

/// A *consistent* entry history of one object: old values always match
/// the state the previous entries produced (as the drive guarantees).
fn history(rng: &mut Rng) -> Vec<JournalEntry> {
    let mut meta = ObjectMeta::new(1, stamp(1));
    let mut out = vec![JournalEntry::Create { stamp: stamp(1) }];
    redo(&mut meta, &out[0]);
    let mut next_addr = 100u64;
    for seq in 2..2 + rng.below(40) {
        if meta.deleted.is_some() {
            break;
        }
        let e = match rng.below(11) {
            0..=5 => {
                let lbn = rng.below(8);
                next_addr += 1;
                JournalEntry::Write {
                    stamp: stamp(seq),
                    old_size: meta.size,
                    new_size: meta.size.max((lbn + 1) * 4096).max(rng.below(1 << 16)),
                    changes: vec![PtrChange {
                        lbn,
                        old: meta.blocks.get(&lbn).copied().unwrap_or(BlockAddr::NONE),
                        new: BlockAddr(next_addr),
                    }],
                }
            }
            6 | 7 => {
                let new_size = rng.below(8) * 512;
                let freed = meta
                    .blocks
                    .range(new_size.div_ceil(4096)..)
                    .map(|(&lbn, &old)| PtrChange {
                        lbn,
                        old,
                        new: BlockAddr::NONE,
                    })
                    .collect();
                JournalEntry::Truncate {
                    stamp: stamp(seq),
                    old_size: meta.size,
                    new_size,
                    freed,
                }
            }
            8 | 9 => JournalEntry::SetAttr {
                stamp: stamp(seq),
                old: meta.attrs.clone(),
                new: bytes(rng, 0, 23),
            },
            _ => JournalEntry::Delete { stamp: stamp(seq) },
        };
        redo(&mut meta, &e);
        out.push(e);
    }
    out
}

fn replay_all(entries: &[JournalEntry]) -> ObjectMeta {
    let mut meta = ObjectMeta::new(1, entries[0].stamp());
    for e in entries {
        redo(&mut meta, e);
    }
    meta
}

#[test]
fn sector_codec_round_trips() {
    check(40, |rng| {
        let entries = history(rng);
        let mut reassembled = Vec::new();
        for s in &encode_sectors(&entries) {
            let payload = s.finish(1, BlockAddr::NONE);
            assert!(payload.len() <= s4_lfs::BLOCK_SIZE);
            let (oid, _prev, es) = decode_sector(&payload).unwrap();
            assert_eq!(oid, 1);
            reassembled.extend(es);
        }
        assert_eq!(reassembled, entries);
    });
}

#[test]
fn undo_inverts_redo() {
    check(40, |rng| {
        let entries = history(rng);
        let final_meta = replay_all(&entries);
        // Undo everything but the Create; then redo; must converge.
        let mut m = final_meta.clone();
        for e in entries.iter().skip(1).rev() {
            assert!(undo(&mut m, e));
        }
        assert!(
            m.size == 0 && m.blocks.is_empty() && m.attrs.is_empty() && m.is_live(),
            "undo did not reach the created state: {m:?}"
        );
        for e in entries.iter().skip(1) {
            redo(&mut m, e);
        }
        assert_eq!(m, final_meta);
    });
}

#[test]
fn reconstruction_matches_prefix_replay() {
    check(40, |rng| {
        let entries = history(rng);
        let final_meta = replay_all(&entries);
        let newest_first: Vec<_> = entries.iter().rev().cloned().collect();
        // Reconstructing at entry k's stamp must equal replaying the
        // prefix 0..=k.
        for k in 0..entries.len() {
            let bound = entries[k].stamp();
            let got = reconstruct_at(&final_meta, newest_first.clone(), bound).unwrap();
            let want = replay_all(&entries[..=k]);
            assert_eq!(got.size, want.size, "size at {k}");
            assert_eq!(got.blocks, want.blocks, "blocks at {k}");
            assert_eq!(got.attrs, want.attrs, "attrs at {k}");
            assert_eq!(
                got.deleted.is_some(),
                want.deleted.is_some(),
                "liveness at {k}"
            );
        }
        // Before creation: no object.
        assert!(reconstruct_at(&final_meta, newest_first, HybridTimestamp::ZERO).is_none());
    });
}

#[test]
fn meta_codec_round_trips() {
    check(40, |rng| {
        let meta = replay_all(&history(rng));
        let buf = meta.encode();
        let mut pos = 0;
        assert_eq!(ObjectMeta::decode_from(&buf, &mut pos).unwrap(), meta);
        assert_eq!(pos, buf.len());
    });
}

// ---------------------------------------------------------------------
// Log: arbitrary append/flush/remount sequences against an in-memory
// oracle of block contents.
// ---------------------------------------------------------------------

#[test]
fn log_round_trips_all_blocks() {
    check(10, |rng| {
        let cfg = LogConfig {
            blocks_per_segment: 8,
            cache_blocks: 16,
            readahead_blocks: 4,
        };
        let mut log = Log::format(MemDisk::new(400_000), cfg).unwrap();
        // Oracle: (addr, payload, flushed?) — unflushed blocks may vanish
        // on remount, flushed blocks never may.
        let mut oracle: Vec<(BlockAddr, Vec<u8>, bool)> = Vec::new();
        for seq in 1..=rng.range(1, 79) {
            match rng.below(10) {
                0..=5 => {
                    let payload = bytes(rng, 1, 255);
                    let tag = BlockTag::new(BlockKind::Data, 1, seq);
                    oracle.push((log.append(tag, &payload).unwrap(), payload, false));
                }
                6 | 7 => {
                    log.flush().unwrap();
                    oracle.iter_mut().for_each(|e| e.2 = true);
                }
                8 => {
                    log = Log::mount(log.into_device(), cfg).unwrap().log;
                    // Unflushed appends are gone.
                    oracle.retain(|(_, _, flushed)| *flushed);
                }
                _ => log.cache().clear(),
            }
            // Every surviving block must read back exactly (zero-padded).
            for (addr, want, _) in &oracle {
                let got = log.read_block(*addr).unwrap();
                assert_eq!(&got[..want.len()], &want[..]);
                assert!(got[want.len()..].iter().all(|&b| b == 0));
            }
        }
    });
}

#[test]
fn recovery_reports_exactly_the_flushed_batches() {
    check(10, |rng| {
        let cfg = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 16,
            readahead_blocks: 1,
        };
        let log = Log::format(MemDisk::new(400_000), cfg).unwrap();
        let mut expected = Vec::new();
        let mut seq = 0u64;
        for _ in 0..rng.range(1, 9) {
            for _ in 0..rng.range(1, 11) {
                seq += 1;
                let tag = BlockTag::new(BlockKind::Data, 7, seq);
                expected.push((log.append(tag, &seq.to_le_bytes()).unwrap(), seq));
            }
            log.flush().unwrap();
        }
        // One unflushed straggler must not be recovered.
        log.append(BlockTag::new(BlockKind::Data, 7, 9999), b"lost")
            .unwrap();

        let recovered = Log::mount(log.into_device(), cfg).unwrap().batches;
        let got: Vec<(BlockAddr, u64)> = recovered
            .iter()
            .flat_map(|b| b.blocks.iter().map(|(a, t)| (*a, t.aux)))
            .collect();
        assert_eq!(got, expected);
    });
}

// ---------------------------------------------------------------------
// Differencing and compression.
// ---------------------------------------------------------------------

/// Byte sources with enough structure to exercise both copy and insert
/// paths: noise, one repeated byte, a repeated short unit.
fn blob(rng: &mut Rng) -> Vec<u8> {
    match rng.below(3) {
        0 => bytes(rng, 0, 2047),
        1 => vec![rng.below(256) as u8; rng.range(1, 4095) as usize],
        _ => bytes(rng, 1, 63).repeat(rng.range(1, 63) as usize),
    }
}

/// `(source, target)` where target is an edited source (the common case
/// for cross-version differencing).
fn edited_pair(rng: &mut Rng) -> (Vec<u8>, Vec<u8>) {
    let src = blob(rng);
    let mut dst = src.clone();
    let at = rng.index(dst.len().max(1)).min(dst.len());
    dst.splice(at..at, bytes(rng, 0, 63));
    (src, dst)
}

#[test]
fn diff_apply_round_trips() {
    check(80, |rng| {
        let (src, dst) = edited_pair(rng);
        assert_eq!(apply(&src, &diff(&src, &dst)).unwrap(), dst);
    });
}

#[test]
fn diff_apply_round_trips_unrelated() {
    check(80, |rng| {
        let (src, dst) = (blob(rng), blob(rng));
        assert_eq!(apply(&src, &diff(&src, &dst)).unwrap(), dst);
    });
}

#[test]
fn delta_codec_round_trips() {
    check(80, |rng| {
        let (src, dst) = edited_pair(rng);
        let d = diff(&src, &dst);
        assert_eq!(Delta::decode(&d.encode()).unwrap(), d);
    });
}

#[test]
fn lzss_round_trips() {
    check(80, |rng| {
        let data = blob(rng);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    });
}

#[test]
fn chains_materialize_every_version() {
    check(40, |rng| {
        let versions: Vec<Vec<u8>> = (0..rng.range(1, 7)).map(|_| blob(rng)).collect();
        let mode = if rng.chance(1, 2) {
            ChainMode::DiffCompress
        } else {
            ChainMode::Diff
        };
        let mut chain = DeltaChain::new(&versions[0], mode);
        for v in &versions[1..] {
            chain.push(v);
        }
        assert_eq!(chain.versions(), versions.len());
        for (age, want) in versions.iter().rev().enumerate() {
            assert_eq!(&chain.materialize(age).unwrap(), want);
        }
    });
}

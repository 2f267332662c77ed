//! Figure 2: efficiency of metadata versioning — journal-based metadata
//! vs a conventional versioning system.
//!
//! "When writing to an indirect block, a conventional versioning system
//! allocates a new data block, a new indirect block, and a new inode ...
//! With journal-based metadata, a single journal entry suffices."
//! (§4.2.2, including the "up to 4x growth" observation for large
//! files.)
//!
//! The harness updates single blocks of files at each indirection depth
//! and reports the metadata written per update under both schemes, then
//! measures total space growth for a burst of updates to a large file.
//! `scripts/verify.sh` pins the record's byte counts in `BENCH_fig2.json`.

use s4_bench::{banner, conventional_blocks, Record, N_DIRECT, PTRS_PER_BLOCK};
use s4_clock::{HybridTimestamp, SimTime};
use s4_journal::{encode_sectors, JournalEntry, PtrChange};
use s4_lfs::{BlockAddr, BLOCK_SIZE};

/// The journal entry for rewriting block `lbn` of a `size`-byte file:
/// one pointer change, stamped `seq`.
fn write_entry(lbn: u64, seq: u64, size: u64) -> JournalEntry {
    JournalEntry::Write {
        stamp: HybridTimestamp::new(SimTime::from_micros(seq), seq),
        old_size: size,
        new_size: size,
        changes: vec![PtrChange {
            lbn,
            old: BlockAddr(seq),
            new: BlockAddr(seq + 1),
        }],
    }
}

fn main() {
    banner(
        "Figure 2: efficiency of metadata versioning",
        "per-update metadata cost: conventional versioning vs journal-based",
    );

    let cases: [(&str, u64); 4] = [
        ("direct block", 0),
        ("single indirect", N_DIRECT + 1),
        ("double indirect", N_DIRECT + PTRS_PER_BLOCK + 1),
        (
            "triple indirect",
            N_DIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK + 1,
        ),
    ];
    let mut record = Record::new("fig2_metadata");
    println!(
        "{:<18} {:>24} {:>22}",
        "updated block", "conventional (bytes)", "journal entry (bytes)"
    );
    for (name, lbn) in cases {
        let key = name.replace(' ', "_");
        let blocks = conventional_blocks(lbn);
        let conv_bytes = blocks * BLOCK_SIZE as u64;
        let j = write_entry(lbn, 1, (lbn + 1) * BLOCK_SIZE as u64).encoded_len();
        println!(
            "{:<18} {:>17} ({} blks) {:>16}  ({:.0}x less)",
            name,
            conv_bytes,
            blocks,
            j,
            conv_bytes as f64 / j as f64
        );
        record
            .sim(format!("{key}_conventional_bytes"), conv_bytes)
            .sim(format!("{key}_journal_bytes"), j);
    }

    // Space growth for a burst of updates to a large (triple-indirect)
    // file — the paper's "up to 4x growth" observation.
    println!();
    let updates = 10_000u64;
    let base = N_DIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK;
    let mut conv_blocks = 0;
    let mut entries = Vec::new();
    for i in 0..updates {
        let lbn = base + (i % 512);
        conv_blocks += conventional_blocks(lbn);
        entries.push(write_entry(lbn, i, 0));
    }
    let data_bytes = updates * BLOCK_SIZE as u64;
    let conv_meta = conv_blocks * BLOCK_SIZE as u64;
    // Journal entries are packed into sectors; count real packed bytes.
    let packed: usize = encode_sectors(&entries)
        .iter()
        .map(|s| s.finish(1, BlockAddr::NONE).len())
        .sum();
    println!("{updates} single-block updates to a triple-indirect file:");
    println!("  data written          : {:>12} bytes", data_bytes);
    println!(
        "  conventional metadata : {:>12} bytes ({:.2}x of data -> {:.2}x total growth)",
        conv_meta,
        conv_meta as f64 / data_bytes as f64,
        1.0 + conv_meta as f64 / data_bytes as f64
    );
    println!(
        "  journal-based metadata: {:>12} bytes ({:.4}x of data)",
        packed,
        packed as f64 / data_bytes as f64
    );
    println!();
    println!("paper: conventional versioning caused up to 4x disk-usage growth;");
    println!("journal-based metadata reduces each update to a ~60-byte entry");
    record
        .sim("burst_conventional_bytes", conv_meta)
        .sim("burst_journal_bytes", packed)
        .emit();
}

// Hermetic-build gate: needs the external `proptest` crate. Re-add
// `proptest = "1"` to [dev-dependencies] and run
// `cargo test --features proptest-tests` to enable.
#![cfg(feature = "proptest-tests")]

//! Property-based tests for the log: arbitrary append/flush/remount
//! sequences against an in-memory oracle of block contents.

use proptest::prelude::*;

use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, LogConfig};
use s4_simdisk::MemDisk;

#[derive(Debug, Clone)]
enum Action {
    Append { payload: Vec<u8> },
    Flush,
    Remount,
    ClearCache,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => proptest::collection::vec(any::<u8>(), 1..256)
            .prop_map(|payload| Action::Append { payload }),
        2 => Just(Action::Flush),
        1 => Just(Action::Remount),
        1 => Just(Action::ClearCache),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn log_round_trips_all_blocks(actions in proptest::collection::vec(action(), 1..80)) {
        let cfg = LogConfig {
            blocks_per_segment: 8,
            cache_blocks: 16,
            readahead_blocks: 4,
        };
        let mut log = Some(Log::format(MemDisk::new(400_000), cfg).unwrap());
        // Oracle: (addr, payload, flushed?) — unflushed blocks may vanish
        // on remount, flushed blocks never may.
        let mut oracle: Vec<(BlockAddr, Vec<u8>, bool)> = Vec::new();
        let mut seq = 0u64;

        for a in &actions {
            match a {
                Action::Append { payload } => {
                    seq += 1;
                    let addr = log
                        .as_ref()
                        .unwrap()
                        .append(BlockTag::new(BlockKind::Data, 1, seq), payload)
                        .unwrap();
                    oracle.push((addr, payload.clone(), false));
                }
                Action::Flush => {
                    log.as_ref().unwrap().flush().unwrap();
                    for e in &mut oracle {
                        e.2 = true;
                    }
                }
                Action::Remount => {
                    let dev = log.take().unwrap().into_device();
                    log = Some(Log::mount(dev, 16).unwrap().log);
                    // Unflushed appends are gone.
                    oracle.retain(|(_, _, flushed)| *flushed);
                }
                Action::ClearCache => {
                    log.as_ref().unwrap().cache().clear();
                }
            }
            // Every surviving block must read back exactly (zero-padded).
            let l = log.as_ref().unwrap();
            for (addr, want, _) in &oracle {
                let got = l.read_block(*addr).unwrap();
                prop_assert_eq!(&got[..want.len()], &want[..]);
                prop_assert!(got[want.len()..].iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn recovery_reports_exactly_the_flushed_batches(
        batches in proptest::collection::vec(1usize..12, 1..10)
    ) {
        let cfg = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 16,
            readahead_blocks: 1,
        };
        let log = Log::format(MemDisk::new(400_000), cfg).unwrap();
        let mut expected = Vec::new();
        let mut seq = 0u64;
        for n in &batches {
            for _ in 0..*n {
                seq += 1;
                let addr = log
                    .append(BlockTag::new(BlockKind::Data, 7, seq), &seq.to_le_bytes())
                    .unwrap();
                expected.push((addr, seq));
            }
            log.flush().unwrap();
        }
        // One unflushed straggler must not be recovered.
        log.append(BlockTag::new(BlockKind::Data, 7, 9999), b"lost").unwrap();

        let dev = log.into_device();
        let recovered = Log::mount(dev, 16).unwrap().batches;
        let got: Vec<(BlockAddr, u64)> = recovered
            .iter()
            .flat_map(|b| b.blocks.iter().map(|(a, t)| (*a, t.aux)))
            .collect();
        prop_assert_eq!(got, expected);
    }
}

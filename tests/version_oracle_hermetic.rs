//! Randomized oracle tests for comprehensive versioning.
//!
//! Operation sequences come from the in-tree xoshiro256** PRNG
//! (`s4_workloads::Rng`) on fixed seeds — edit `SEEDS` to try another —
//! plus one fixed case a shrinking fuzzer once minimised. The model the
//! drive is compared against is `s4_torture::oracle::Oracle`, the one
//! the crash campaigns use; this file adds what their workload lacks:
//! operations aimed at deleted objects (which must fail), the
//! differencing pass (`Compact`, invisible to every read) and clean
//! remounts mid-sequence.
//!
//! After arbitrary create/write/truncate/delete/setattr/sync/tick/compact
//! sequences comes the full cross-product check — every object at every
//! mutation instant must read back exactly the contents, size and
//! attribute blob the oracle recorded.

use s4_clock::{SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, ObjectId, RequestContext, S4Drive, UserId};
use s4_simdisk::MemDisk;
use s4_torture::oracle::Oracle;
use s4_workloads::Rng;

#[derive(Debug, Clone)]
enum Op {
    Create,
    Write { obj: usize, offset: u16, len: u16, fill: u8 },
    Truncate { obj: usize, len: u16 },
    Delete { obj: usize },
    SetAttr { obj: usize, attr: u8 },
    Sync,
    Tick { secs: u8 },
    /// Runs the differencing pass; must be invisible to every read.
    Compact,
}

/// Draws one op, weighted 1:4:1:1:1:2:2:1 over the eight variants.
fn draw_op(rng: &mut Rng) -> Op {
    match rng.below(13) {
        0 => Op::Create,
        1..=4 => Op::Write {
            obj: rng.index(6),
            offset: rng.below(12_000) as u16,
            len: rng.range(1, 5_999) as u16,
            fill: rng.below(256) as u8,
        },
        5 => Op::Truncate {
            obj: rng.index(6),
            len: rng.below(12_000) as u16,
        },
        6 => Op::Delete { obj: rng.index(6) },
        7 => Op::SetAttr {
            obj: rng.index(6),
            attr: rng.below(256) as u8,
        },
        8 | 9 => Op::Sync,
        10 | 11 => Op::Tick {
            secs: rng.range(1, 29) as u8,
        },
        _ => Op::Compact,
    }
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| draw_op(&mut rng)).collect()
}

fn run_case(ops: Vec<Op>, remount_each: usize) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut drive = Some(
        S4Drive::format(
            MemDisk::with_capacity_bytes(96 << 20),
            DriveConfig::small_test(),
            clock.clone(),
        )
        .unwrap(),
    );
    let ctx = RequestContext::user(UserId(1), ClientId(1));

    let mut oids: Vec<ObjectId> = Vec::new();
    let mut oracle = Oracle::default();
    // The op's target and whether the oracle has it alive; `None` while
    // nothing has been created (the op is skipped).
    let target = |oids: &[ObjectId], oracle: &Oracle, obj: usize| {
        let oid = *oids.get(obj % oids.len().max(1))?;
        Some((oid, oracle.current(oid)?.alive))
    };

    for (i, op) in ops.iter().enumerate() {
        let d = drive.as_ref().unwrap();
        // Mutations at distinct instants keep oracle comparison simple.
        clock.advance(SimDuration::from_millis(1));
        match *op {
            Op::Create => {
                let oid = d.op_create(&ctx, None).unwrap();
                oids.push(oid);
                oracle.create(oid, d.now());
            }
            Op::Write { obj, offset, len, fill } => {
                if let Some((oid, alive)) = target(&oids, &oracle, obj) {
                    let data = vec![fill; len as usize];
                    let r = d.op_write(&ctx, oid, offset as u64, &data);
                    assert_eq!(r.is_ok(), alive, "write to {oid}: {r:?}");
                    if alive {
                        oracle.write(oid, d.now(), offset as u64, &data);
                    }
                }
            }
            Op::Truncate { obj, len } => {
                if let Some((oid, alive)) = target(&oids, &oracle, obj) {
                    let r = d.op_truncate(&ctx, oid, len as u64);
                    assert_eq!(r.is_ok(), alive, "truncate of {oid}: {r:?}");
                    if alive {
                        oracle.truncate(oid, d.now(), len as u64);
                    }
                }
            }
            Op::Delete { obj } => {
                if let Some((oid, alive)) = target(&oids, &oracle, obj) {
                    let r = d.op_delete(&ctx, oid);
                    assert_eq!(r.is_ok(), alive, "delete of {oid}: {r:?}");
                    if alive {
                        oracle.delete(oid, d.now());
                    }
                }
            }
            Op::SetAttr { obj, attr } => {
                if let Some((oid, true)) = target(&oids, &oracle, obj) {
                    d.op_setattr(&ctx, oid, vec![attr]).unwrap();
                    oracle.set_attr(oid, d.now(), &[attr]);
                }
            }
            Op::Sync => d.op_sync(&ctx).unwrap(),
            Op::Tick { secs } => {
                clock.advance(SimDuration::from_secs(secs as u64));
            }
            Op::Compact => {
                d.compact_history().unwrap();
            }
        }
        oracle.checkpoints.push(d.now());

        // Periodic remount (clean unmount): everything must survive.
        if remount_each > 0 && i % remount_each == remount_each - 1 {
            let dev = drive.take().unwrap().unmount().unwrap();
            drive = Some(S4Drive::mount(dev, DriveConfig::small_test(), clock.clone()).unwrap());
        }
    }

    // Final verification: every object at every checkpoint instant.
    let d = drive.as_ref().unwrap();
    d.op_sync(&ctx).unwrap();
    oracle.verify_full(d, "oracle");
    // ...and the space accounting it ends on is the one a mount would derive.
    assert_eq!(d.check_image(), Ok((Vec::new(), Vec::new(), 0)));
}

/// Seeds chosen once, arbitrarily; each is a distinct deterministic case.
const SEEDS: [u64; 6] = [
    0x0000_0000_0000_0001,
    0xDEAD_BEEF_CAFE_F00D,
    0x0123_4567_89AB_CDEF,
    0x5851_F42D_4C95_7F2D,
    0xA5A5_A5A5_5A5A_5A5A,
    0xFFFF_FFFF_FFFF_FFFE,
];

#[test]
fn drive_matches_oracle() {
    for &seed in &SEEDS {
        run_case(gen_ops(seed, 60), 0);
    }
}

#[test]
fn drive_matches_oracle_across_remounts() {
    for &seed in &SEEDS {
        run_case(gen_ops(seed ^ 0x5EED, 40), 12);
    }
}

/// The one failure a shrinking fuzzer recorded against this property
/// (a write past a truncated tail), kept as a fixed case.
#[test]
fn write_past_a_truncated_tail_matches_oracle() {
    let ops = vec![
        Op::Create,
        Op::Write { obj: 0, offset: 0, len: 3639, fill: 1 },
        Op::Truncate { obj: 0, len: 1 },
        Op::Write { obj: 0, offset: 2, len: 1, fill: 0 },
    ];
    run_case(ops.clone(), 0);
    run_case(ops, 2);
}

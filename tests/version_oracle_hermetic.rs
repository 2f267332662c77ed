//! Randomized oracle tests for comprehensive versioning.
//!
//! Operation sequences come from the in-tree xoshiro256** PRNG
//! (`s4_workloads::Rng`) on fixed seeds — edit `SEEDS` to try another —
//! plus one fixed case a shrinking fuzzer once minimised. The model the
//! drive is compared against is `s4_torture::oracle::Oracle`, the one
//! the crash campaigns use; this file adds what their workload lacks:
//! operations aimed at deleted objects (which must fail), the
//! differencing pass (`Compact`, invisible to every read), expiry past a
//! short detection window (`Expire`), landmarks pinned inside it
//! (`Landmark`) and clean remounts mid-sequence.
//!
//! After arbitrary sequences of those ops comes the full cross-product
//! check — every object at every mutation instant must read back exactly
//! the contents, size and attribute blob the oracle recorded, or, before
//! the last expiry's cutoff, a pinned landmark's version or
//! `VersionUnavailable`; never a version written after that instant.

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{ClientId, DriveConfig, ObjectId, RequestContext, S4Drive, UserId};
use s4_simdisk::MemDisk;
use s4_torture::oracle::Oracle;
use s4_workloads::Rng;

#[derive(Debug, Clone)]
enum Op {
    Create,
    Write {
        obj: usize,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Truncate {
        obj: usize,
        len: u16,
    },
    Delete {
        obj: usize,
    },
    SetAttr {
        obj: usize,
        attr: u8,
    },
    Sync,
    Tick {
        secs: u8,
    },
    /// Runs the differencing pass; must be invisible to every read.
    Compact,
    /// Retires every version older than the detection window.
    Expire,
    /// Pins the version current `back` instants ago (or at the expiry
    /// cutoff, if that is later) as a landmark.
    Landmark {
        obj: usize,
        back: u8,
    },
}

/// The detection window: short beside the ticks, so `Expire` retires.
const WINDOW: SimDuration = SimDuration::from_secs(20);

/// Draws one op, weighted 1:4:1:1:1:2:2:1:1:1 over the ten variants.
fn draw_op(rng: &mut Rng) -> Op {
    match rng.below(15) {
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
        12 => Op::Compact,
        13 => Op::Expire,
        _ => Op::Landmark {
            obj: rng.index(6),
            back: rng.below(8) as u8,
        },
    }
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| draw_op(&mut rng)).collect()
}

fn run_case(ops: Vec<Op>, remount_each: usize) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut config = DriveConfig::small_test();
    config.detection_window = WINDOW;
    let mut drive = Some(
        S4Drive::format(
            MemDisk::with_capacity_bytes(96 << 20),
            config,
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
            Op::Write {
                obj,
                offset,
                len,
                fill,
            } => {
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
            Op::Expire => {
                d.expire_versions().unwrap();
                oracle.retire(d.now().saturating_sub(WINDOW));
            }
            Op::Landmark { obj, back } => {
                if let Some((oid, _)) = target(&oids, &oracle, obj) {
                    let cps = &oracle.checkpoints;
                    let back = cps.len().saturating_sub(1 + back as usize);
                    let t = cps.get(back).copied().unwrap_or(SimTime::ZERO);
                    let t = t.max(oracle.retired());
                    let r = d.op_mark_landmark(&ctx, oid, t);
                    if oracle.version_at(oid, t).is_some_and(|v| v.alive) {
                        assert_eq!(r, Ok(()), "landmark on {oid} at {t}");
                    }
                    if r.is_ok() {
                        oracle.mark(oid, t);
                    }
                }
            }
        }
        oracle.checkpoints.push(d.now());

        // Periodic remount (clean unmount): everything must survive.
        if remount_each > 0 && i % remount_each == remount_each - 1 {
            let dev = drive.take().unwrap().unmount().unwrap();
            drive = Some(S4Drive::mount(dev, config, clock.clone()).unwrap());
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
        Op::Write {
            obj: 0,
            offset: 0,
            len: 3639,
            fill: 1,
        },
        Op::Truncate { obj: 0, len: 1 },
        Op::Write {
            obj: 0,
            offset: 2,
            len: 1,
            fill: 0,
        },
    ];
    run_case(ops.clone(), 0);
    run_case(ops, 2);
}

//! Randomized commit-or-rollback equivalence for cross-shard atomic
//! batches.
//!
//! Batch shapes come from the in-tree xoshiro256** PRNG
//! (`s4_workloads::Rng`) on fixed seeds, so CI is deterministic; edit the
//! seed array to try another.
//!
//! The property: every multi-shard batch — random mixes of writes,
//! truncates, and creates, some poisoned with a guaranteed-failing
//! sub-request — leaves the array exactly where an in-memory oracle
//! says it should be. A clean batch applies every sub-request; a
//! poisoned one applies none, on any shard, even though healthy shards
//! fully prepared it. The equivalence must also survive a clean
//! unmount/remount.

use std::collections::BTreeMap;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, UserId};
use s4_simdisk::MemDisk;
use s4_workloads::Rng;

const SHARDS: usize = 2;
const POOL: usize = 6;

/// One sub-request shape; `obj` indexes the pre-created pool.
#[derive(Debug, Clone)]
enum OpShape {
    Write {
        obj: usize,
        offset: u8,
        len: u8,
        fill: u8,
    },
    Truncate {
        obj: usize,
        len: u8,
    },
    Create,
    /// A write aimed at an object that does not exist on `shard` —
    /// guaranteed to fail that shard's prepare and poison the batch.
    Poison {
        shard: usize,
    },
}

fn draw_op(rng: &mut Rng) -> OpShape {
    match rng.below(10) {
        0..=4 => OpShape::Write {
            obj: rng.index(POOL),
            offset: rng.below(64) as u8,
            len: rng.range(1, 32) as u8,
            fill: rng.below(256) as u8,
        },
        5 | 6 => OpShape::Truncate {
            obj: rng.index(POOL),
            len: rng.below(96) as u8,
        },
        7 | 8 => OpShape::Create,
        _ => OpShape::Poison {
            shard: rng.index(SHARDS),
        },
    }
}

fn gen_batches(seed: u64, batches: usize) -> Vec<Vec<OpShape>> {
    let mut rng = Rng::new(seed);
    (0..batches)
        .map(|_| {
            let n = rng.range(2, 6) as usize;
            (0..n).map(|_| draw_op(&mut rng)).collect()
        })
        .collect()
}

fn write_req(oid: ObjectId, offset: u64, data: Vec<u8>) -> Request {
    Request::Write { oid, offset, data }
}

fn apply_write(content: &mut Vec<u8>, offset: usize, data: &[u8]) {
    let end = offset + data.len();
    if content.len() < end {
        content.resize(end, 0);
    }
    content[offset..end].copy_from_slice(data);
}

fn run_case(batches: Vec<Vec<OpShape>>) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..SHARDS)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        ArrayConfig::default(),
        clock,
    )
    .unwrap();
    let ctx = RequestContext::user(UserId(1), ClientId(1));

    // Pre-create the pool, alternating shards so `obj % POOL` hits both.
    let mut pool: Vec<ObjectId> = Vec::new();
    while pool.len() < POOL {
        match a.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => {
                let want = pool.len() % SHARDS;
                if oid.0 as usize % SHARDS == want {
                    pool.push(oid);
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // The oracle: current contents per object id.
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for &oid in &pool {
        oracle.insert(oid.0, Vec::new());
    }
    let (mut committed, mut aborted) = (0u64, 0u64);

    for shapes in &batches {
        let mut reqs: Vec<Request> = Vec::new();
        let mut poisoned = false;
        for shape in shapes {
            match shape {
                OpShape::Write {
                    obj,
                    offset,
                    len,
                    fill,
                } => {
                    let oid = pool[obj % POOL];
                    reqs.push(write_req(oid, *offset as u64, vec![*fill; *len as usize]));
                }
                OpShape::Truncate { obj, len } => {
                    let oid = pool[obj % POOL];
                    reqs.push(Request::Truncate {
                        oid,
                        len: *len as u64,
                    });
                }
                OpShape::Create => reqs.push(Request::Create),
                OpShape::Poison { shard } => {
                    // An id far past the allocator with the target
                    // shard's residue: NoSuchObject at prepare.
                    let oid = ObjectId((1 << 20) + *shard as u64);
                    reqs.push(write_req(oid, 0, vec![0xEE; 4]));
                    poisoned = true;
                }
            }
        }
        // Pin the batch to the two-phase path: make sure both shards
        // participate, whatever the draw produced.
        for (s, &anchor) in pool.iter().enumerate().take(SHARDS) {
            let touches = reqs.iter().any(|r| match r {
                Request::Write { oid, .. } | Request::Truncate { oid, .. } => {
                    oid.0 as usize % SHARDS == s
                }
                _ => false,
            });
            if !touches {
                reqs.push(write_req(anchor, 0, vec![0xAA; 1]));
            }
        }

        let resp = a.dispatch(&ctx, &Request::Batch(reqs.clone()));
        if poisoned {
            assert!(
                resp.is_err(),
                "poisoned batch must fail whole: {resp:?} ({shapes:?})"
            );
            aborted += 1;
            // Oracle untouched: rollback on every shard.
            continue;
        }
        let rs = match resp.expect("clean batch must commit") {
            Response::Batch(rs) => rs,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(rs.len(), reqs.len(), "every slot answered");
        committed += 1;
        // Commit: apply every sub-request to the oracle, in order,
        // resolving Created ids from the response slots.
        for (req, r) in reqs.iter().zip(&rs) {
            match (req, r) {
                (Request::Write { oid, offset, data }, Response::Ok) => {
                    let c = oracle.get_mut(&oid.0).expect("write to known object");
                    apply_write(c, *offset as usize, data);
                }
                (Request::Truncate { oid, len }, Response::Ok) => {
                    let c = oracle.get_mut(&oid.0).expect("truncate of known object");
                    c.resize(*len as usize, 0);
                }
                (Request::Create, Response::Created(oid)) => {
                    oracle.insert(oid.0, Vec::new());
                }
                (req, r) => panic!("unexpected slot {r:?} for {req:?}"),
            }
        }
    }

    let verify = |a: &S4Array<MemDisk>, what: &str| {
        for (&oid, content) in &oracle {
            let got = match a
                .dispatch(
                    &ctx,
                    &Request::Read {
                        oid: ObjectId(oid),
                        offset: 0,
                        len: 4096,
                        time: None,
                    },
                )
                .unwrap()
            {
                Response::Data(d) => d,
                other => panic!("unexpected response {other:?}"),
            };
            assert_eq!(&got, content, "{what}: object {oid} diverged from oracle");
        }
        for s in 0..SHARDS {
            assert!(
                a.shard_drive(s).txn_in_doubt().is_empty(),
                "{what}: shard {s} in doubt"
            );
        }
    };
    verify(&a, "live");
    assert!(
        a.txn_status_text()
            .starts_with(&format!("committed={committed} aborted={aborted}")),
        "status: {} (want committed={committed} aborted={aborted})",
        a.txn_status_text()
    );

    let devices = a.unmount().unwrap();
    let (a2, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        ArrayConfig::default(),
        SimClock::new(),
    )
    .unwrap();
    verify(&a2, "remounted");
}

#[test]
fn random_batches_match_oracle_fixed_seeds() {
    for seed in [1, 2, 3, 0xC0FFEE, 0x5E1F_5EC5] {
        run_case(gen_batches(seed, 30));
    }
}

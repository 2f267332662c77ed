//! Tracing overhead: the 8-client stress workload on a 4-shard array,
//! with request tracing on (the default) vs. off.
//!
//! Every dispatch already persists one audit record, trace fields
//! included; tracing adds the entry-point id stamp and the protocol
//! steps' records. The claim
//! (DESIGN §6j) is that the whole causal-tracing pipeline costs at most
//! 5% of client throughput. Eight threads hammer the array in-process
//! (the transport stamp is one branch and an atomic increment — the
//! interesting cost is inside the drives), wall clock is taken per
//! run, and the configs run in pairs, taking turns to go first, so
//! background noise and whatever the previous run left behind hit both
//! equally. The op count has a floor: a run much shorter than a quarter
//! second is decided by one scheduler hiccup. The overhead is the
//! *median of the per-pair ratios*: on the 2-core CI box one pair's
//! ratio has an inter-quartile range of ~13% at any run length (the
//! hypervisor's CPU share drifts over seconds, which a back-to-back
//! pair mostly cancels and a best-of-N over the whole bench does not),
//! so it takes a few dozen pairs, not five, to resolve 5%.
//!
//! Its record has `wall` fields only: CI uploads it, nothing compares
//! it. The ≤ 5 % assertion is the gate.

use std::sync::Arc;

use s4_array::{ArrayConfig, S4Array};
use s4_bench::{banner, scaled, Lcg, Record};
use s4_clock::{SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, UserId};
use s4_simdisk::MemDisk;

const SHARDS: usize = 4;
const CLIENTS: u32 = 8;
const ROUNDS: usize = 30;
/// Floor under `S4_BENCH_SCALE` (the full-scale count, so scaling only
/// ever lengthens this bench): enough work that one measured run lasts
/// a quarter second or more on the 2-core CI box.
const MIN_OPS_PER_CLIENT: usize = 3_000;

/// One full 8-client stress run; returns the wall-clock seconds of the
/// client phase and the array (still live) for post-run inspection.
fn run(trace: bool, ops_per_client: usize) -> (f64, Arc<S4Array<MemDisk>>) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..SHARDS)
        .map(|_| MemDisk::with_capacity_bytes(256 << 20))
        .collect();
    let array = Arc::new(
        S4Array::format(
            devices,
            DriveConfig::small_test(),
            ArrayConfig {
                trace,
                ..ArrayConfig::default()
            },
            clock,
        )
        .unwrap(),
    );

    let t0 = std::time::Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let a = Arc::clone(&array);
            std::thread::spawn(move || {
                let ctx = RequestContext::user(UserId(100 + c), ClientId(c));
                let mut rng = Lcg(0x7452_4143 ^ u64::from(c));
                let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
                    Response::Created(oid) => oid,
                    other => panic!("unexpected response {other:?}"),
                };
                let mut oids: Vec<ObjectId> = vec![oid];
                for t in 0..ops_per_client {
                    let oid = oids[(rng.next_u64() as usize) % oids.len()];
                    let req = match rng.next_u64() % 10 {
                        0 => Request::Create,
                        1..=4 => Request::Read {
                            oid,
                            offset: 0,
                            len: 256 + rng.next_u64() % 2048,
                            time: None,
                        },
                        5..=8 => Request::Write {
                            oid,
                            offset: rng.next_u64() % 2048,
                            data: vec![0x5A; 256 + (rng.next_u64() % 2048) as usize],
                        },
                        _ => Request::Append {
                            oid,
                            data: vec![0x3C; 128],
                        },
                    };
                    if let Response::Created(oid) = a.dispatch(&ctx, &req).unwrap() {
                        oids.push(oid);
                    }
                    if (t + 1) % 500 == 0 {
                        a.dispatch(&ctx, &Request::Sync).unwrap();
                    }
                }
                a.dispatch(&ctx, &Request::Sync).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    (t0.elapsed().as_secs_f64(), array)
}

fn main() {
    let ops_per_client = scaled(3_000, MIN_OPS_PER_CLIENT);
    banner(
        "Tracing overhead: 8-client stress, tracing on vs off",
        &format!("{SHARDS} shards, {CLIENTS} clients x {ops_per_client} ops, {ROUNDS} pairs"),
    );

    // Warm-up round (page-cache, allocator, thread pools) then the
    // interleaved measurement rounds.
    let _ = run(true, 500);

    let mut traced_walls = Vec::with_capacity(ROUNDS);
    let mut plain_walls = Vec::with_capacity(ROUNDS);
    let mut traces_assembled = 0usize;
    println!("{:<8} {:>14} {:>14}", "round", "traced", "untraced");
    for round in 0..ROUNDS {
        let ((tw, traced_array), (pw, plain_array)) = if round % 2 == 0 {
            let traced = run(true, ops_per_client);
            (traced, run(false, ops_per_client))
        } else {
            let plain = run(false, ops_per_client);
            (run(true, ops_per_client), plain)
        };
        println!("{:<8} {:>13.3}s {:>13.3}s", round, tw, pw);
        traced_walls.push(tw);
        plain_walls.push(pw);
        if round == 0 {
            // Sanity on the datapoint itself: the traced run really
            // produced assemblable causal trees, the untraced one none.
            let admin = RequestContext::admin(ClientId(0), 42);
            traces_assembled = traced_array.assemble_all_traces(&admin).unwrap().len();
            let plain = plain_array.assemble_all_traces(&admin).unwrap().len();
            assert!(traces_assembled > 0, "traced run assembled no traces");
            assert_eq!(plain, 0, "untraced run must not record trace ids");
        }
        // Threads are joined, so each Arc is sole-owned again.
        for a in [traced_array, plain_array] {
            Arc::try_unwrap(a)
                .unwrap_or_else(|_| panic!("client thread still holds the array"))
                .unmount()
                .unwrap();
        }
    }

    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
    };
    let ratios = traced_walls.iter().zip(&plain_walls).map(|(t, p)| t / p);
    let overhead = median(ratios.collect()) - 1.0;
    let (traced, plain) = (median(traced_walls), median(plain_walls));
    println!();
    println!(
        "{ROUNDS} pairs: median traced {traced:.3}s, untraced {plain:.3}s; median pair ratio -> \
         overhead {:.1}% (acceptance: <= 5%), {traces_assembled} traces assembled",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "tracing overhead {:.2}% exceeds the 5% budget",
        overhead * 100.0
    );

    Record::new("fig_trace")
        .wall("traced_s", traced)
        .wall("untraced_s", plain)
        .wall("overhead_frac", overhead)
        .emit();
}

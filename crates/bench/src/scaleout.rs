//! The scale-out benches' one workload: PostMark's file set and
//! transaction mix as object requests on an array of timed drives.
//! `fig_array` runs it whole ([`mixed_workload`]), as does `fig_reshard`'s
//! steady run; its migrating run calls [`populate`] and then
//! [`transactions`] in chunks between splits. All draw from one [`Lcg`]
//! seeded with [`SEED`], so every array sees the same request stream.

use std::time::Instant;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{DriveConfig, ObjectId, Request, Response, S4Drive};
use s4_simdisk::{BlockDev, MemDisk, TimedDisk};

use crate::{bench_ctx, timed_disk, Lcg, DEFAULT_DISK_BYTES};

/// Where every member's own clock starts; elapsed time counts from here.
pub const START: SimDuration = SimDuration::from_secs(1);

/// The seed of the workload's random stream.
pub const SEED: u64 = 0x5345_4355;

/// An array of `n` drives in mirror groups of `mirrors`: `drive(i,
/// clock)` builds member `i` on its own clock, started at [`START`].
pub fn array_of<D: BlockDev + 'static>(
    n: usize,
    mirrors: usize,
    mut drive: impl FnMut(usize, SimClock) -> S4Drive<D>,
) -> S4Array<D> {
    let drives = (0..n)
        .map(|i| {
            let clock = SimClock::new();
            clock.advance(START);
            drive(i, clock)
        })
        .collect();
    let config = ArrayConfig {
        mirrors,
        ..ArrayConfig::default()
    };
    S4Array::from_drives(drives, config).expect("assemble the array")
}

/// An `n`-shard array of timed drives, each on its own clock (as
/// independent spindles are), so per-shard simulated time accumulates
/// separately.
pub fn timed_array(n: usize) -> S4Array<TimedDisk<MemDisk>> {
    array_of(n, 1, |_, clock| {
        let disk = timed_disk(DEFAULT_DISK_BYTES, &clock);
        S4Drive::format(disk, DriveConfig::default(), clock).expect("format a member")
    })
}

/// PostMark's file set, written once (512 B – 9 KiB each), then a
/// `Sync`. Returns the objects and the operation count.
pub fn populate<D: BlockDev + 'static>(
    array: &S4Array<D>,
    nfiles: usize,
    rng: &mut Lcg,
) -> (Vec<ObjectId>, u64) {
    let ctx = bench_ctx();
    let mut oids = Vec::with_capacity(nfiles);
    for _ in 0..nfiles {
        let oid = match array.dispatch(&ctx, &Request::Create).expect("create") {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        let size = 512 + (rng.next_u64() % 8704) as usize;
        let write = Request::Write {
            oid,
            offset: 0,
            data: vec![0xA5; size],
        };
        array.dispatch(&ctx, &write).expect("populate");
        oids.push(oid);
    }
    array.dispatch(&ctx, &Request::Sync).expect("sync");
    (oids, 2 * nfiles as u64 + 1)
}

/// `count` PostMark transactions — equal read/write bias plus a tail of
/// appends — with a durability barrier every 200. Returns the operation
/// count.
pub fn transactions<D: BlockDev + 'static>(
    array: &S4Array<D>,
    oids: &[ObjectId],
    count: usize,
    rng: &mut Lcg,
) -> u64 {
    let ctx = bench_ctx();
    let mut ops = 0u64;
    for t in 0..count {
        let oid = oids[(rng.next_u64() as usize) % oids.len()];
        let req = match rng.next_u64() % 10 {
            0..=4 => Request::Read {
                oid,
                offset: 0,
                len: 512 + rng.next_u64() % 4096,
                time: None,
            },
            5..=8 => Request::Write {
                oid,
                offset: rng.next_u64() % 4096,
                data: vec![0x5A; 512 + (rng.next_u64() % 4096) as usize],
            },
            _ => Request::Append {
                oid,
                data: vec![0x3C; 256],
            },
        };
        array.dispatch(&ctx, &req).expect("transaction");
        ops += 1;
        if (t + 1) % 200 == 0 {
            array.dispatch(&ctx, &Request::Sync).expect("sync");
            ops += 1;
        }
    }
    ops
}

/// One measured replay of [`mixed_workload`].
pub struct Run {
    /// Requests sent.
    pub ops: u64,
    /// The slowest member's simulated time ([`elapsed_of`]).
    pub elapsed: SimDuration,
    /// The same measure for the final `Sync` alone, in µs.
    pub barrier_us: u64,
    /// Host seconds the replay took.
    pub wall: f64,
}

impl Run {
    /// Simulated throughput.
    pub fn ops_per_sim_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// The whole workload: populate, transactions, a final `Sync`.
pub fn mixed_workload<D: BlockDev + 'static>(
    array: &S4Array<D>,
    nfiles: usize,
    count: usize,
) -> Run {
    let t0 = Instant::now();
    let mut rng = Lcg(SEED);
    let (oids, ops) = populate(array, nfiles, &mut rng);
    let ops = ops + transactions(array, &oids, count, &mut rng) + 1;
    let before = elapsed_of(array);
    array.dispatch(&bench_ctx(), &Request::Sync).expect("sync");
    let elapsed = elapsed_of(array);
    let wall = t0.elapsed().as_secs_f64();
    let barrier_us = elapsed.as_micros() - before.as_micros();
    Run {
        ops,
        elapsed,
        barrier_us,
        wall,
    }
}

/// The run takes as long as its busiest member drive: the slowest
/// member clock's advance since [`START`].
pub fn elapsed_of<D: BlockDev + 'static>(array: &S4Array<D>) -> SimDuration {
    (0..array.shard_count())
        .flat_map(|s| (0..array.mirror_count()).map(move |k| (s, k)))
        .map(|(s, k)| array.member_drive(s, k).clock().now().as_micros() - START.as_micros())
        .max()
        .map(SimDuration::from_micros)
        .expect("an array has members")
}

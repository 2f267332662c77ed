//! Set-up shared by the three array workloads: the array on wrapped
//! `FileDisk` images, object preload, member-drive handles, 2PC
//! counters, and the array-hop microbenchmark.

use std::sync::Arc;
use std::time::Instant;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{DriveConfig, ObjectId, Request, RequestContext, Response};

use crate::harness::{wrap_disk, Drive, Images, Plan, RepOut, Snap};
use crate::oracle::BlockVersions;
use crate::stats::percentile;
use crate::trace;
use crate::wrap::{DiskCounters, DynDisk};

pub type Array = S4Array<DynDisk>;

pub struct Rig {
    pub array: Arc<Array>,
    pub counters: Vec<DiskCounters>,
    pub shards: usize,
    pub mirrors: usize,
    // Dropped last: the images outlive the drives that hold them open.
    _images: Images,
}

impl Rig {
    /// Formats a `shards` × `mirrors` array with the default drive and
    /// array configurations on fresh images of `image_bytes` each.
    pub fn build(
        plan: &Plan,
        traced: bool,
        shards: usize,
        mirrors: usize,
        image_bytes: u64,
    ) -> Result<Rig, String> {
        let mut images = Images::new(&plan.scratch).map_err(|e| e.to_string())?;
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let mut devices = Vec::new();
        let mut counters = Vec::new();
        for n in 0..shards * mirrors {
            let file = images.create(n, image_bytes)?;
            let w = wrap_disk(file, traced, n as u32, None);
            counters.push(w.counters);
            devices.push(w.disk);
        }
        let array = S4Array::format(
            devices,
            DriveConfig::default(),
            ArrayConfig {
                mirrors,
                ..ArrayConfig::default()
            },
            clock,
        )
        .map_err(|e| format!("array format: {e}"))?;
        Ok(Rig {
            array: Arc::new(array),
            counters,
            shards,
            mirrors,
            _images: images,
        })
    }

    /// One client RPC into the array, inside a `dispatch` span.
    pub fn call(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        trace::span("dispatch", 0, None, || self.array.dispatch(ctx, req))
    }

    /// Every member drive, shard-major.
    pub fn members(&self) -> Vec<Arc<Drive>> {
        (0..self.shards)
            .flat_map(|s| (0..self.mirrors).map(move |k| (s, k)))
            .map(|(s, k)| self.array.member_drive(s, k))
            .collect()
    }

    pub fn snap(&self) -> Snap {
        Snap::take(&self.counters, &self.members())
    }

    /// `(committed, aborted)` cross-shard transactions so far.
    pub fn txn_counts(&self) -> (u64, u64) {
        let values = self.array.txn_registry().counter_values();
        let get = |name: &str| {
            values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        (get("s4_txn_committed_total"), get("s4_txn_aborted_total"))
    }

    /// Sets `array.txn_per_op` and `array.txn_aborted_frac` from the
    /// counters at the two edges of the timed phase.
    pub fn txn_values(&self, out: &mut RepOut, before: (u64, u64), ops: u64) {
        let (c, a) = self.txn_counts();
        let (dc, da) = (c - before.0, a - before.1);
        out.set("array.txn_per_op", (dc + da) as f64 / ops.max(1) as f64);
        if dc + da > 0 {
            out.set("array.txn_aborted_frac", da as f64 / (dc + da) as f64);
        }
    }

    /// Creates `n` objects of `blocks` blocks through the array, each
    /// block at oracle version 0, and syncs. Object `i`'s oracle number
    /// is `i`; its shard is `oid % shards`. `PRELOADERS` threads send the
    /// requests, so the shard workers always have a request waiting:
    /// sent one at a time, every request is a wake-up of a sleeping
    /// thread on another vCPU, and set-up time then measures the
    /// hypervisor (0.29 s when it is quiet, 0.5–0.8 s with 3 % of the
    /// ticks stolen, 3–5 s with 30 %). The ObjectIDs are sorted before
    /// they are handed to objects, so which object gets which does not
    /// depend on how the threads interleave.
    pub fn preload(
        &self,
        ctx: &RequestContext,
        n: usize,
        blocks: usize,
    ) -> Result<Vec<ObjectId>, String> {
        const PRELOADERS: usize = 8;
        let share = n.div_ceil(PRELOADERS).max(1);
        let mut oids = vec![ObjectId(0); n];
        let each_share = |work: &(dyn Fn(usize, &mut ObjectId) -> Result<(), String> + Sync),
                          oids: &mut [ObjectId]| {
            std::thread::scope(|s| {
                let threads: Vec<_> = oids
                    .chunks_mut(share)
                    .enumerate()
                    .map(|(t, chunk)| {
                        s.spawn(move || -> Result<(), String> {
                            for (i, oid) in chunk.iter_mut().enumerate() {
                                work(t * share + i, oid)?;
                                if i % 64 == 63 {
                                    self.sync(ctx)?;
                                }
                            }
                            Ok(())
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .try_for_each(|t| t.join().expect("preload thread panicked"))
            })
        };
        each_share(
            &|_, oid| match self.array.dispatch(ctx, &Request::Create) {
                Ok(Response::Created(new)) => {
                    *oid = new;
                    Ok(())
                }
                other => Err(format!("preload create: {other:?}")),
            },
            &mut oids,
        )?;
        oids.sort_unstable();
        let fresh = BlockVersions::new(n, blocks);
        each_share(
            &|obj, oid| {
                let write = Request::Write {
                    oid: *oid,
                    offset: 0,
                    data: fresh.object_bytes(obj),
                };
                match self.array.dispatch(ctx, &write) {
                    Ok(Response::Ok) => Ok(()),
                    other => Err(format!("preload write: {other:?}")),
                }
            },
            &mut oids,
        )?;
        self.sync(ctx)?;
        Ok(oids)
    }

    pub fn sync(&self, ctx: &RequestContext) -> Result<(), String> {
        match self.array.dispatch(ctx, &Request::Sync) {
            Ok(Response::Ok) => Ok(()),
            other => Err(format!("sync: {other:?}")),
        }
    }

    /// The cost of the array's route → queue → reply hand-off alone: a
    /// cached `GetAttr` through `S4Array::dispatch` minus the same
    /// request sent straight to the owning member drive, one thread,
    /// nothing else running. Sets `array.hop_p50_us` and
    /// `array.hop_mean_us`.
    pub fn measure_hop(&self, out: &mut RepOut, ctx: &RequestContext, oid: ObjectId) {
        const CALLS: usize = 20_000;
        let req = Request::GetAttr { oid, time: None };
        let member = self.array.shard_drive(self.array.shard_index_of(oid));
        let time = |f: &dyn Fn() -> bool| -> Option<(f64, f64)> {
            let mut ns = Vec::with_capacity(CALLS);
            for _ in 0..CALLS {
                let t0 = Instant::now();
                let ok = f();
                ns.push(t0.elapsed().as_nanos() as u64);
                if !ok {
                    return None;
                }
            }
            let mean = ns.iter().sum::<u64>() as f64 / CALLS as f64;
            ns.sort_unstable();
            Some((percentile(&ns, 50.0)? as f64, mean))
        };
        let via_array = time(&|| self.array.dispatch(ctx, &req).is_ok());
        let direct = time(&|| member.dispatch(ctx, &req).is_ok());
        if let (Some((ap50, amean)), Some((dp50, dmean))) = (via_array, direct) {
            out.set("array.hop_p50_us", (ap50 - dp50) / 1e3);
            out.set("array.hop_mean_us", (amean - dmean) / 1e3);
            out.note(format!(
                "cached GetAttr: {:.2} us median / {:.2} us mean through S4Array::dispatch, \
                 {:.2} / {:.2} us straight into the member's S4Drive::dispatch",
                ap50 / 1e3,
                amean / 1e3,
                dp50 / 1e3,
                dmean / 1e3
            ));
        }
    }
}

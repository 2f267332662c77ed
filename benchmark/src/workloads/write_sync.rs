//! `rpc_write_sync_mirror`: two clients write through `S4Array::dispatch`
//! in-process to 2 shards × 2 mirrors. 95 % of ops are a one-block
//! `Write` followed by `Sync`; 5 % are one atomic `Batch` of four writes
//! spanning both shards, which the array runs as two-phase commit.

use std::time::Instant;

use s4_core::{ClientId, ObjectId, Request, RequestContext, Response, UserId};

use crate::gen::{stream_seed, WriteSyncGen, WriteSyncOp};
use crate::harness::{absorb, brief, common_values, run_clients, Plan, RepOut};
use crate::oracle::{BlockVersions, BLOCK};
use crate::trace;
use crate::workloads::rig::Rig;

pub const CLIENTS: usize = 2;
pub const SHARDS: usize = 2;
pub const MIRRORS: usize = 2;
pub const OBJECTS: usize = 1000;
pub const OBJECT_BLOCKS: usize = 2;
pub const IMAGE_BYTES: u64 = 1 << 30;
/// Every op leaves a data block, a journal block and a summary block on
/// each mirror of its shard, about 16 KiB with audit and trace records:
/// this many ops fill at most ~40 % of a 1 GiB image.
const OP_CAP: u64 = 50_000;

/// One client: its op stream, its objects (oracle numbers grouped by
/// home shard) and their versions. The two clients own disjoint
/// objects, so neither needs the other's versions.
struct Client {
    gen: WriteSyncGen,
    by_shard: [Vec<usize>; 2],
    oracle: BlockVersions,
}

impl Client {
    fn nth(&self, i: usize) -> usize {
        let n0 = self.by_shard[0].len();
        if i < n0 {
            self.by_shard[0][i]
        } else {
            self.by_shard[1][i - n0]
        }
    }

    fn write_req(&mut self, oids: &[ObjectId], obj: usize, block: usize) -> Request {
        Request::Write {
            oid: oids[obj],
            offset: (block * BLOCK) as u64,
            data: self.oracle.next_payload(obj, block),
        }
    }
}

pub fn run_rep(plan: &Plan, rep: usize, traced: bool) -> Result<RepOut, String> {
    let objects = plan.size(OBJECTS, 100);
    let mut out = RepOut::default();

    let t_setup = Instant::now();
    let rig = Rig::build(plan, traced, SHARDS, MIRRORS, IMAGE_BYTES)?;
    let owner = RequestContext::user(UserId(1), ClientId(0));
    let oids = rig.preload(&owner, objects, OBJECT_BLOCKS)?;
    out.set("setup_s", t_setup.elapsed().as_secs_f64());

    let mut owned = vec![[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
    for (obj, oid) in oids.iter().enumerate() {
        // Alternate owners within each shard so both clients get both.
        owned[(obj / SHARDS) % CLIENTS][rig.array.shard_index_of(*oid)].push(obj);
    }
    let mut clients: Vec<Client> = owned
        .into_iter()
        .enumerate()
        .map(|(c, by_shard)| Client {
            gen: WriteSyncGen::new(
                stream_seed(plan.seed, rep, c),
                [by_shard[0].len(), by_shard[1].len()],
                OBJECT_BLOCKS,
            ),
            by_shard,
            oracle: BlockVersions::new(objects, OBJECT_BLOCKS),
        })
        .collect();

    let txn_before = rig.txn_counts();
    let (totals, window, ended_by) = run_clients(
        plan,
        OP_CAP,
        &mut clients,
        &|| rig.snap(),
        &|c, me, phase, log| {
            let ctx = RequestContext::user(UserId(1), ClientId(c as u32 + 1));
            while !phase.stopped() {
                let timed = phase.timed();
                match me.gen.next().expect("endless stream") {
                    WriteSyncOp::WriteSync { obj, block } => {
                        let obj = me.nth(obj);
                        let write = me.write_req(&oids, obj, block);
                        let t0 = Instant::now();
                        let (r_write, t_mid, r_sync) = trace::span("op", 0, None, || {
                            let r = rig.call(&ctx, &write);
                            let t_mid = Instant::now();
                            (r, t_mid, rig.call(&ctx, &Request::Sync))
                        });
                        let t1 = Instant::now();
                        let wrote = matches!(r_write, Ok(Response::Ok));
                        let ok = wrote && matches!(r_sync, Ok(Response::Ok));
                        if !wrote {
                            me.oracle.undo(obj, block);
                        }
                        if !timed {
                            continue;
                        }
                        if ok {
                            log.user_bytes += BLOCK as u64;
                            log.sample("write", t_mid - t0);
                            log.sample("sync", t1 - t_mid);
                        }
                        log.rpcs += 2;
                        log.sync_rpcs += 1;
                        let err = (!ok).then(|| {
                            format!("write+sync: {} / {}", brief(&r_write), brief(&r_sync))
                        });
                        log.op(t0, t1, err);
                    }
                    WriteSyncOp::Batch { writes } => {
                        let targets: Vec<(usize, usize)> = writes
                            .iter()
                            .enumerate()
                            .map(|(i, &(o, b))| (me.by_shard[i / 2][o], b))
                            .collect();
                        let batch = Request::Batch(
                            targets
                                .iter()
                                .map(|&(o, b)| me.write_req(&oids, o, b))
                                .collect(),
                        );
                        let t0 = Instant::now();
                        let r = trace::span("op", 0, None, || rig.call(&ctx, &batch));
                        let t1 = Instant::now();
                        let ok = matches!(&r, Ok(Response::Batch(rs))
                            if rs.len() == 4 && rs.iter().all(|x| *x == Response::Ok));
                        if !ok {
                            // Atomic: a refused batch changed nothing.
                            for &(o, b) in &targets {
                                me.oracle.undo(o, b);
                            }
                        }
                        if !timed {
                            continue;
                        }
                        if ok {
                            log.user_bytes += 4 * BLOCK as u64;
                            log.sample("batch", t1 - t0);
                        }
                        log.rpcs += 1;
                        log.op(t0, t1, (!ok).then(|| format!("batch: {}", brief(&r))));
                    }
                }
                phase.completed();
            }
        },
    );
    out.ended_by = ended_by;
    common_values(&mut out, &window, &totals);
    rig.txn_values(&mut out, txn_before, totals.ops);
    absorb(&mut out, totals);

    // Read everything back from every mirror member directly: each must
    // hold exactly what its owner's oracle says was acknowledged.
    for me in &clients {
        for &obj in me.by_shard.iter().flatten() {
            let shard = rig.array.shard_index_of(oids[obj]);
            let req = Request::Read {
                oid: oids[obj],
                offset: 0,
                len: (OBJECT_BLOCKS * BLOCK) as u64,
                time: None,
            };
            for k in 0..MIRRORS {
                let r = rig.array.member_drive(shard, k).dispatch(&owner, &req);
                let ok = matches!(&r, Ok(Response::Data(d))
                    if me.oracle.verify(obj, 0, d, OBJECT_BLOCKS * BLOCK));
                out.check(ok, || {
                    format!(
                        "read-back of object {obj} from shard {shard} member {k}: {}",
                        brief(&r)
                    )
                });
            }
        }
    }
    if traced {
        trace::set_enabled(false);
        rig.measure_hop(&mut out, &owner, oids[0]);
        trace::set_enabled(true);
    }
    drop(rig);
    out.spans = trace::drain();
    Ok(out)
}

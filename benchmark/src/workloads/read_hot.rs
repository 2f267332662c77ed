//! `rpc_read_hot`: two clients read a cache-resident object set through
//! `S4Array::dispatch` in-process. The drive answers in about a
//! microsecond and the disks are idle, so what is timed is the array's
//! route → queue → reply hand-off.

use std::time::Instant;

use s4_core::{ClientId, Request, RequestContext, Response, UserId};

use crate::gen::{stream_seed, ReadHotGen, ReadHotOp};
use crate::harness::{absorb, brief, common_values, run_clients, Plan, RepOut};
use crate::oracle::{BlockVersions, BLOCK};
use crate::trace;
use crate::workloads::rig::Rig;

pub const CLIENTS: usize = 2;
pub const OBJECTS: usize = 2000;
pub const OBJECT_BLOCKS: usize = 2;
pub const IMAGE_BYTES: u64 = 1 << 30;
/// Backstop only: reads append just audit and flight-recorder records,
/// about 100 B each, so this many ops stay far below the image size.
const OP_CAP: u64 = 4_000_000;

pub fn run_rep(plan: &Plan, rep: usize, traced: bool) -> Result<RepOut, String> {
    let objects = plan.size(OBJECTS, 200);
    let mut out = RepOut::default();

    let t_setup = Instant::now();
    let rig = Rig::build(plan, traced, 2, 1, IMAGE_BYTES)?;
    let owner = RequestContext::user(UserId(1), ClientId(0));
    let oids = rig.preload(&owner, objects, OBJECT_BLOCKS)?;
    out.set("setup_s", t_setup.elapsed().as_secs_f64());

    // Nothing is written after preload: every block stays at version 0.
    let oracle = BlockVersions::new(objects, OBJECT_BLOCKS);
    let mut gens: Vec<ReadHotGen> = (0..CLIENTS)
        .map(|c| ReadHotGen::new(stream_seed(plan.seed, rep, c), objects, OBJECT_BLOCKS))
        .collect();
    let txn_before = rig.txn_counts();
    let (totals, window, ended_by) = run_clients(
        plan,
        OP_CAP,
        &mut gens,
        &|| rig.snap(),
        &|c, gen, phase, log| {
            let ctx = RequestContext::user(UserId(1), ClientId(c as u32 + 1));
            while !phase.stopped() {
                let timed = phase.timed();
                let op = gen.next().expect("endless stream");
                let req = match op {
                    ReadHotOp::Read { obj, block } => Request::Read {
                        oid: oids[obj],
                        offset: (block * BLOCK) as u64,
                        len: BLOCK as u64,
                        time: None,
                    },
                    ReadHotOp::GetAttr { obj } => Request::GetAttr {
                        oid: oids[obj],
                        time: None,
                    },
                };
                let t0 = Instant::now();
                let r = trace::span("op", 0, None, || rig.call(&ctx, &req));
                let t1 = Instant::now();
                if !timed {
                    continue;
                }
                let ok = match (&op, &r) {
                    (ReadHotOp::Read { obj, block }, Ok(Response::Data(d))) => {
                        oracle.verify(*obj, *block, d, BLOCK)
                    }
                    (ReadHotOp::GetAttr { .. }, Ok(Response::Attrs(a))) => {
                        a.size == (OBJECT_BLOCKS * BLOCK) as u64
                    }
                    _ => false,
                };
                if ok && matches!(op, ReadHotOp::Read { .. }) {
                    log.sample("read", t1 - t0);
                }
                log.rpcs += 1;
                log.op(t0, t1, (!ok).then(|| format!("{op:?}: {}", brief(&r))));
                phase.completed();
            }
        },
    );
    out.ended_by = ended_by;
    common_values(&mut out, &window, &totals);
    rig.txn_values(&mut out, txn_before, totals.ops);
    absorb(&mut out, totals);
    if traced {
        trace::set_enabled(false);
        rig.measure_hop(&mut out, &owner, oids[0]);
        trace::set_enabled(true);
    }
    drop(rig);
    out.spans = trace::drain();
    Ok(out)
}

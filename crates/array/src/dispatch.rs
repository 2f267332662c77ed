//! The request path: route → hold the gates → scatter to shard queues →
//! gather and merge, plus the per-shard outcomes of a split batch.

use std::sync::atomic::Ordering;
use std::sync::mpsc;

use s4_clock::sync::RwLock;
use s4_core::{Request, RequestContext, Response, S4Error};
use s4_fs::RpcHandler;
use s4_simdisk::BlockDev;

use crate::array::{Routing, S4Array};
use crate::epoch::RESERVED_NAME_PREFIX;
use crate::router::{route, split_batch, Merge, Route};
use crate::shard::{Job, SHARD_DEAD, SHARD_READ_ONLY, WORKER_GONE};

/// Per-shard sub-result of a split batch that failed on that shard:
/// how far the shard's sub-batch got before aborting, and why. The
/// indices are in the *original* batch's coordinates, so a client can
/// tell exactly which prefix of its batch took effect on which shard
/// (DESIGN §6f).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The shard whose sub-batch aborted.
    pub shard: usize,
    /// Sub-requests of that shard's sub-batch that completed before the
    /// failure.
    pub completed: u32,
    /// Index *in the original batch* of the failing sub-request.
    pub failed_at: u32,
    /// The failing sub-request's error.
    pub error: S4Error,
    /// `true` when the array cannot know how much of the sub-batch
    /// executed before the failure — the shard worker panicked mid-batch
    /// or vanished after the sub-batch was handed over, so `completed`
    /// is a floor, not a fact. Clients must treat the shard's state as
    /// unknown until they re-read (or the array remounts). `false`
    /// covers both precise partial failures (the drive reported exactly
    /// how far it got) and pre-execution refusals (read-only/dead
    /// shard), where `completed` is exact.
    pub in_doubt: bool,
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// Verifies, executes, and audits one request against the array —
    /// the sharded equivalent of [`s4_core::S4Drive::dispatch`].
    /// Single-object requests go to the owning shard's queue; broadcast
    /// requests scatter to every shard and gather one merged response;
    /// batches are split per shard (see `router::split_batch`).
    pub fn dispatch(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        // A batch names no partition itself: its sub-requests are
        // checked where it is split.
        check_namespace(std::slice::from_ref(req))?;
        let mut ctx = self.traced(ctx);
        loop {
            let r = self.routing();
            let n = r.shards.len();
            let route = route(req, &r.epoch);
            let shards: Vec<usize> = match route {
                Route::Create => vec![self.round_robin(n)],
                Route::Shard(s) => vec![s],
                Route::Broadcast(_) => (0..n).collect(),
                Route::SplitBatch => {
                    let Request::Batch(reqs) = req else {
                        unreachable!()
                    };
                    return self.dispatch_split(&ctx, reqs);
                }
            };
            // The entry shard annotates every record of the trace, so
            // the assembler can tell where the request came in.
            ctx.trace.origin = shards[0] as u8;
            let Some(mut results) = self.try_scatter(&r, &ctx, &shards, |_| req.clone()) else {
                continue; // epoch moved between snapshot and gates: replan
            };
            return match route {
                Route::Broadcast(merge) => merge_broadcast(merge, results),
                _ => results.pop().expect("one submission, one result"),
            };
        }
    }

    /// The next round-robin shard of `n`: where a `Create` goes when no
    /// named object in its batch says where (see [`split_batch`]).
    fn round_robin(&self, n: usize) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % n
    }

    /// Takes the gates of `shards` (dense indices, ascending — one
    /// order for everyone, so two holders cannot deadlock) with `lock`,
    /// then rechecks that the routing snapshot `r` is still current.
    /// `None` if the epoch moved in between: the check runs *after*
    /// every gate is held, so a plan can never be applied
    /// half-old-epoch, half-new-epoch. Dispatchers take the read side; a
    /// reshard flip takes its source's write side.
    pub(crate) fn hold<'r, G>(
        &self,
        r: &'r Routing<D>,
        shards: &[usize],
        lock: impl Fn(&'r RwLock<()>) -> G,
    ) -> Option<Vec<G>> {
        let gates = shards.iter().map(|&s| lock(&r.shards[s].gate)).collect();
        if self.routing.lock().epoch.seq != r.epoch.seq {
            return None;
        }
        Some(gates)
    }

    /// Sends each of `shards` (dense, ascending) the request `job`
    /// builds for it under the routing snapshot `r`, then gathers the
    /// responses in the same order. Returns `None` without sending
    /// anything if the epoch moved (see [`S4Array::hold`]); the caller
    /// replans.
    fn try_scatter(
        &self,
        r: &Routing<D>,
        ctx: &RequestContext,
        shards: &[usize],
        job: impl Fn(usize) -> Request,
    ) -> Option<Vec<s4_core::Result<Response>>> {
        let gates = self.hold(r, shards, RwLock::read)?;
        let pending = send_each(r, ctx, shards, job);
        drop(gates);
        Some(gather(pending))
    }

    /// Splits a batch across shards, runs the sub-batches concurrently,
    /// and returns the per-slot responses plus one [`BatchOutcome`] per
    /// shard whose sub-batch aborted (empty = full success). Slots of a
    /// failed shard's unreached suffix are `None`. The outer error is
    /// reserved for planning failures (nested batch, broadcast op
    /// inside a batch, orphan `LAST_CREATED`).
    ///
    /// A batch that *writes* more than one shard (`BatchPlan::writers`)
    /// is not scattered independently — it runs as one
    /// two-phase-commit transaction (DESIGN §6i), so it takes effect on
    /// every shard or on none: success looks identical to the scatter
    /// path, and failure is a single [`BatchOutcome`] with
    /// `completed = 0` (the rollback undid everything everywhere). A
    /// batch with at most one writer keeps the plain scatter path — it
    /// is trivially atomic already, however many shards its reads and
    /// its `Sync` reach.
    pub fn dispatch_batch_outcomes(
        &self,
        ctx: &RequestContext,
        reqs: &[Request],
    ) -> s4_core::Result<(Vec<Option<Response>>, Vec<BatchOutcome>)> {
        check_namespace(reqs)?;
        let mut ctx = self.traced(ctx);
        let (plan, touched, results) = loop {
            let r = self.routing();
            let n = r.shards.len();
            let plan = split_batch(reqs, &r.epoch, || self.round_robin(n))?;
            let touched: Vec<usize> = (0..n).filter(|&s| !plan.subs[s].is_empty()).collect();
            ctx.trace.origin = touched.first().map_or(0, |&s| s as u8);
            let results = if plan.writers.len() > 1 {
                self.dispatch_batch_txn(&r, &ctx, &plan, &touched)
            } else {
                self.try_scatter(&r, &ctx, &touched, |s| Request::Batch(plan.subs[s].clone()))
            };
            match results {
                Some(results) => break (plan, touched, results),
                None => continue, // epoch moved: replan the split
            }
        };

        // The one place sub-batch answers go home: a shard answers in
        // its sub-batch's coordinates, `plan.slots` maps them back to
        // the original batch's.
        let mut out: Vec<Option<Response>> = vec![None; plan.total];
        let mut outcomes = Vec::new();
        for (&shard, result) in touched.iter().zip(results) {
            let slots = &plan.slots[shard];
            let (completed, pos, error, in_doubt) = match result {
                Ok(Response::Batch(rs)) => {
                    for (pos, resp) in rs.into_iter().enumerate() {
                        out[slots[pos]] = Some(resp);
                    }
                    continue;
                }
                Ok(_) => {
                    return Err(S4Error::BadRequest(
                        "array: shard returned non-batch response",
                    ))
                }
                Err(S4Error::BatchFailed {
                    completed,
                    failed_at,
                    error,
                }) => (completed, failed_at as usize, *error, false),
                // Whole-sub-batch failure without partial-progress
                // info. A pre-execution refusal (read-only or dead
                // shard) provably executed nothing; anything else — a
                // worker that panicked mid-batch or vanished — may have
                // executed a prefix whose extent was lost with the
                // worker, so the outcome is in doubt rather than
                // falsely precise.
                Err(e) => {
                    let in_doubt = e != SHARD_READ_ONLY && e != SHARD_DEAD;
                    (0, 0, e, in_doubt)
                }
            };
            let failed_at = slots.get(pos).copied().unwrap_or(usize::MAX) as u32;
            outcomes.push(BatchOutcome {
                shard,
                completed,
                failed_at,
                error,
                in_doubt,
            });
        }
        outcomes.sort_by_key(|o| o.failed_at);
        Ok((out, outcomes))
    }

    /// Splits a batch across shards and reassembles one response,
    /// aborting with an aggregate [`S4Error::BatchFailed`] (earliest
    /// failing original index; `completed` counts sub-requests that
    /// finished across all shards) when any shard's sub-batch failed.
    fn dispatch_split(&self, ctx: &RequestContext, reqs: &[Request]) -> s4_core::Result<Response> {
        let (out, outcomes) = self.dispatch_batch_outcomes(ctx, reqs)?;
        if let Some(first) = outcomes.first() {
            let completed = out.iter().filter(|r| r.is_some()).count() as u32
                + outcomes.iter().map(|o| o.completed).sum::<u32>();
            return Err(S4Error::BatchFailed {
                completed,
                failed_at: first.failed_at,
                error: Box::new(first.error.clone()),
            });
        }
        Ok(Response::Batch(
            out.into_iter()
                .map(|r| r.expect("every batch slot answered"))
                .collect(),
        ))
    }
}

/// The `__s4/` partition namespace carries array-internal state (epoch
/// and decision notes): a client can neither create, delete nor resolve
/// a name in it, batched or not. The one gate in front of both public
/// entry points — a lone request is checked as a batch of one, and a
/// batch is refused whole before any of it runs. (A nested batch names
/// no partition; the split refuses it.)
fn check_namespace(reqs: &[Request]) -> s4_core::Result<()> {
    reqs.iter().try_for_each(|req| match req.partition_name() {
        Some(name) if name.starts_with(RESERVED_NAME_PREFIX) => Err(match req {
            Request::PMount { .. } => S4Error::NoSuchPartition,
            _ => S4Error::BadRequest("array: reserved partition namespace"),
        }),
        _ => Ok(()),
    })
}

/// Replies owed by the shards a scatter was sent to, in send order
/// (`None`: the shard's queue was already closed).
pub(crate) type Pending = Vec<Option<mpsc::Receiver<s4_core::Result<Response>>>>;

/// Queues on each of `shards` the request `job` builds for it; the
/// caller holds their gates. Every send completes before the first
/// reply is awaited ([`gather`]), so distinct shards execute
/// concurrently. Blocks while a shard's queue is full — that is the
/// backpressure contract.
pub(crate) fn send_each<D: BlockDev + 'static>(
    r: &Routing<D>,
    ctx: &RequestContext,
    shards: &[usize],
    job: impl Fn(usize) -> Request,
) -> Pending {
    let send = |&s: &usize| {
        let (reply, rx) = mpsc::sync_channel(1);
        let (ctx, req) = (*ctx, job(s));
        r.shards[s].send(Job::Rpc { ctx, req, reply }).then_some(rx)
    };
    shards.iter().map(send).collect()
}

/// Waits for every reply. A closed queue and a worker that died before
/// answering look the same from here.
pub(crate) fn gather(pending: Pending) -> Vec<s4_core::Result<Response>> {
    let answer = |rx: Option<mpsc::Receiver<_>>| {
        rx.and_then(|rx| rx.recv().ok()).unwrap_or(Err(WORKER_GONE))
    };
    pending.into_iter().map(answer).collect()
}

/// Combines per-shard responses of a broadcast request.
fn merge_broadcast(
    merge: Merge,
    results: Vec<s4_core::Result<Response>>,
) -> s4_core::Result<Response> {
    const BAD_SHAPE: S4Error = S4Error::BadRequest("array: unexpected per-shard response shape");
    match merge {
        Merge::AllOk => {
            for r in results {
                r?;
            }
            Ok(Response::Ok)
        }
        Merge::Partitions => {
            let mut all = Vec::new();
            for r in results {
                match r? {
                    Response::Partitions(p) => all.extend(p),
                    _ => return Err(BAD_SHAPE),
                }
            }
            // Array-internal names (epoch notes) never reach clients.
            all.retain(|(name, _)| !name.starts_with(RESERVED_NAME_PREFIX));
            all.sort();
            Ok(Response::Partitions(all))
        }
        Merge::FirstSuccess => pick_first_success(results),
    }
}

/// First successful response in shard order; otherwise the most
/// specific error (any non-`NoSuchPartition` error beats the generic
/// "no shard knows that name").
fn pick_first_success(results: Vec<s4_core::Result<Response>>) -> s4_core::Result<Response> {
    for r in results {
        match r {
            Err(S4Error::NoSuchPartition) => {}
            other => return other,
        }
    }
    Err(S4Error::NoSuchPartition)
}

impl<D: BlockDev + 'static> RpcHandler for S4Array<D> {
    fn handle(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        self.dispatch(ctx, req)
    }

    fn stats_text(&self) -> String {
        self.metrics_text()
    }

    fn reshard_text(&self) -> String {
        self.reshard_status_text()
    }

    fn txn_text(&self) -> String {
        self.txn_status_text()
    }
}

//! Cross-shard atomic batches (DESIGN §6i): the coordinator's port onto
//! the shard workers, and the worker-side steps — prepare, decide, and
//! the decision/epoch notes on shard 0 — each one fan-out at one
//! instant.

use std::collections::BTreeMap;

use s4_clock::sync::{Mutex, RwLock};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    ClientId, ObjectId, OpKind, Request, RequestContext, Response, S4Error, TraceCtx,
    PARTITION_OBJECT, PHASE_DECIDE, PHASE_NOTE, PHASE_PREPARE,
};
use s4_obs::{Gauge, Registry};
use s4_simdisk::BlockDev;
use s4_txn::{note_name, TwoPhaseOps, TxId, TxnOutcome};

use crate::array::{Routing, S4Array};
use crate::dispatch::{gather, send_each};
use crate::router::BatchPlan;
use crate::shard::{in_phase, MemberState, Shard};

impl<D: BlockDev> Shard<D> {
    /// Phase 1 of a cross-shard transaction on this shard: execute the
    /// sub-batch on every in-sync member via
    /// [`s4_core::S4Drive::txn_prepare_at`] and answer with the
    /// canonical responses — the yes-vote. The restore point `t0` is
    /// the job's instant and the clock is advanced past it exactly
    /// once, so every member stamps the sub-batch's effects at
    /// `t0 + 1 µs`: strictly after the restore point, identically on
    /// every mirror. A faulting member is *not* retried — a prepare is
    /// not idempotent under partial re-execution (the transaction id is
    /// already open on the member) — it leaves service and the
    /// survivors carry the shard.
    pub(crate) fn prepare(
        &self,
        ctx: &RequestContext,
        txid: u64,
        reqs: &[Request],
    ) -> s4_core::Result<Vec<Response>> {
        let tick = SimDuration::from_micros(1);
        let t0 = self.instant();
        self.clock.advance(tick);
        // The sub-requests run through the member's regular dispatch,
        // so a traced transaction's prepare leaves ordinary trace
        // records, stamped with the 2PC phase.
        let ctx = in_phase(ctx, PHASE_PREPARE);
        self.fan_out(t0 + tick, true, |drive| {
            drive.txn_prepare_at(&ctx, txid, t0, reqs)
        })
    }

    /// Phase 2 on this shard: commit or abort `txid` on every in-sync
    /// member (an abort's compensation is stamped at the job's
    /// instant). A traced decide leaves a step record in each member's
    /// audit log (`txn_decide` is a direct call, not a dispatched
    /// request, so no record would exist otherwise); `ok`
    /// carries the decision. Deciding a transaction a member never saw
    /// is an idempotent no-op.
    pub(crate) fn decide(
        &self,
        ctx: &RequestContext,
        txid: u64,
        commit: bool,
    ) -> s4_core::Result<()> {
        let ctx = in_phase(ctx, PHASE_DECIDE);
        self.fan_out(self.instant(), true, |drive| {
            drive.txn_decide(txid, commit)?;
            drive.record_phase_trace(&ctx, OpKind::Sync, ObjectId(txid), commit);
            Ok(())
        })
    }

    /// Installs and/or retires array-internal notes in the shard's
    /// partition table (shard 0 only): create `create` and remove every
    /// name in `remove`, in one rewrite of the table, and — when
    /// something was created — journal-flush. Reshard epoch notes and
    /// transaction decision notes both ride this — the flush after the
    /// create *is* their
    /// durability commit point (recovery replays the journal, so the
    /// note survives a crash without paying for a full anchor in the
    /// caller's window). Earlier decision notes leave in the same call
    /// as a later one's install, so their removal rides its flush. A
    /// removal alone commits nothing, so it pays no flush: it rides the
    /// shard's next one, and a crash that loses it leaves a decision
    /// note whose transaction nobody is in doubt about, which
    /// [`S4Array::mount`] retires again. It runs on the
    /// worker like any mutation, so the partition object's bytes stay
    /// identical across mirrors with respect to interleaved client
    /// `PCreate`s. Every step is idempotent: a crash between members
    /// leaves a divergence that mount repairs (epoch notes: highest
    /// sequence wins; transaction notes: any member's note commits the
    /// transaction). `trace` is the transaction whose decision this is
    /// (default = untraced: epoch notes, scrubs, mount's retires).
    pub(crate) fn note(
        &self,
        create: Option<&str>,
        remove: &[String],
        trace: TraceCtx,
    ) -> s4_core::Result<()> {
        self.fan_out(self.instant(), true, |drive| {
            let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);
            let add = create.map(|name| (name, PARTITION_OBJECT));
            drive.op_pedit(&admin, add, remove)?;
            if create.is_none() {
                return Ok(());
            }
            drive.op_sync(&admin)?;
            // A traced note (a 2PC decision install) leaves a step record
            // in the member's audit log *after* its durability barrier
            // — the record's presence means the commit point really
            // passed here.
            let ctx = in_phase(&admin.with_trace(trace), PHASE_NOTE);
            drive.record_phase_trace(&ctx, OpKind::PCreate, PARTITION_OBJECT, true);
            Ok(())
        })
    }
}

/// A committed transaction's decision note that shard 0 still holds.
/// Every participant has resolved the transaction, but a participant
/// may not have made its resolution durable yet; until then a crash
/// leaves it in doubt and the note is what mount redoes it from. The
/// participants are named by slot, not by handle: a list of handles
/// would keep shards referenced past [`S4Array::unmount`].
pub(crate) struct UnretiredNote {
    txid: TxId,
    slots: Vec<usize>,
}

impl UnretiredNote {
    /// Whether every live member of every participant reports the
    /// resolution durable — a flush that has returned on each, which is
    /// what orders the note's removal after them. A participant missing
    /// from `r` keeps the note, for mount to retire.
    fn resolved<D: BlockDev>(&self, r: &Routing<D>) -> bool {
        self.slots.iter().all(|&slot| {
            let Some(shard) = r.shards.iter().find(|s| s.slot == slot) else {
                return false;
            };
            shard.members.iter().all(|m| {
                m.state() == MemberState::Dead || !m.drive().txn_resolution_pending(self.txid.0)
            })
        })
    }
}

/// The gauge that counts [`UnretiredNote`]s, on the stats wire.
pub(crate) fn unretired_gauge(reg: &Registry) -> Gauge {
    reg.gauge(
        "s4_txn_notes_unretired",
        "decision notes kept until a later note install retires them",
    )
}

/// The array-side port of the two-phase-commit driver: protocol
/// messages become shard-worker jobs against a held routing snapshot,
/// and the decision note lives in shard 0's partition table with the
/// same flush-is-durability discipline as the reshard epoch note.
struct ArrayTxn<'a, D: BlockDev> {
    r: &'a Routing<D>,
    ctx: RequestContext,
    plan: &'a BatchPlan,
    responses: BTreeMap<usize, Vec<Response>>,
    clock: &'a SimClock,
    reg: &'a Registry,
    notes: &'a Mutex<Vec<UnretiredNote>>,
}

impl<D: BlockDev + 'static> ArrayTxn<'_, D> {
    /// Takes the unretired notes whose resolutions are durable
    /// everywhere (see [`UnretiredNote::resolved`]).
    fn take_retirable(&self) -> Vec<UnretiredNote> {
        let mut notes = self.notes.lock();
        let (done, kept) = notes.drain(..).partition(|n| n.resolved(self.r));
        *notes = kept;
        done
    }

    /// Brings the gauge up to date with the list.
    fn count_unretired(&self) {
        unretired_gauge(self.reg).set(self.notes.lock().len() as f64);
    }

    /// Runs one protocol step on `shard`'s worker, recording how long
    /// the coordinator waited for it under `metric`.
    fn timed<T: Send + 'static>(
        &self,
        shard: usize,
        (name, help): (&'static str, &'static str),
        step: impl FnOnce(&Shard<D>) -> s4_core::Result<T> + Send + 'static,
    ) -> s4_core::Result<T> {
        let started = self.clock.now();
        let r = self.r.shards[shard].call(step);
        let waited = self.clock.now() - started;
        self.reg.histogram(name, help).record(waited.as_micros());
        r
    }
}

impl<D: BlockDev + 'static> TwoPhaseOps for ArrayTxn<'_, D> {
    type Err = S4Error;

    fn prepare(&mut self, shard: usize, txid: TxId) -> Result<(), S4Error> {
        let (ctx, reqs) = (self.ctx, self.plan.subs[shard].clone());
        let resps = self.timed(
            shard,
            (
                "s4_txn_prepare_us",
                "per-participant 2PC prepare latency (execute + journal flush)",
            ),
            move |s| s.prepare(&ctx, txid.0, &reqs),
        )?;
        self.responses.insert(shard, resps);
        Ok(())
    }

    fn record_decision(&mut self, txid: TxId) -> Result<(), S4Error> {
        // Earlier notes whose resolutions are durable everywhere leave in
        // the commit that installs this one: retiring costs no flush.
        let retired = self.take_retirable();
        let names: Vec<String> = retired.iter().map(|n| note_name(n.txid)).collect();
        let (name, trace) = (note_name(txid), self.ctx.trace);
        let r = self.r.shards[0].call(move |s| s.note(Some(&name), &names, trace));
        if r.is_err() {
            // Best-effort scrub of a possibly half-installed note, at
            // once, so that absence — presumed abort, the decision the
            // driver is about to fan out — is what recovery reads back.
            // (A fault model where the note lands durably and this scrub
            // *also* fails is outside the power-loss discipline the
            // campaigns exercise; see DESIGN §6i.)
            let name = note_name(txid);
            let _ = self.r.shards[0].call(move |s| s.note(None, &[name], TraceCtx::default()));
            // The removals may not have landed either.
            self.notes.lock().extend(retired);
        }
        self.count_unretired();
        r
    }

    fn decide(&mut self, shard: usize, txid: TxId, commit: bool) -> Result<(), S4Error> {
        let ctx = self.ctx;
        self.timed(
            shard,
            (
                "s4_txn_decide_us",
                "per-participant 2PC decide latency (commit/abort fan-out)",
            ),
            move |s| s.decide(&ctx, txid.0, commit),
        )
    }

    fn retire_decision(&mut self, txid: TxId) -> Result<(), S4Error> {
        // Not yet: the participants' resolutions ride their next
        // commits, and until those return the note is what a crash
        // would redo from. A later note install removes it.
        let slots = self.plan.writers.iter().map(|&s| self.r.shards[s].slot);
        let note = UnretiredNote {
            txid,
            slots: slots.collect(),
        };
        self.notes.lock().push(note);
        self.count_unretired();
        Ok(())
    }
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// Runs a batch that writes several shards as one two-phase-commit
    /// transaction under the routing snapshot `r`. The participants are
    /// `plan.writers`: prepare each (execute + journal-flush its
    /// sub-batch), durably write the decision note on shard 0 — the
    /// commit point — then fan the decision out. The other `touched`
    /// shards, which the batch only reads or syncs, have nothing to
    /// vote on: once the transaction committed they run their
    /// sub-batches as a plain scatter (so a trailing `Sync` still
    /// reaches, and is audited on, every shard). The gates of every
    /// touched shard are held for the whole window, so a reshard flip
    /// cannot interleave with the transaction. Answers like a scatter,
    /// one result per touched shard; `None` if the epoch moved before
    /// the gates were held (the caller replans).
    pub(crate) fn dispatch_batch_txn(
        &self,
        r: &Routing<D>,
        ctx: &RequestContext,
        plan: &BatchPlan,
        touched: &[usize],
    ) -> Option<Vec<s4_core::Result<Response>>> {
        let gates = self.hold(r, touched, RwLock::read)?;
        let txid = TxId(self.txn_ids.next(self.clock.now().as_micros()));
        let mut ops = ArrayTxn {
            r,
            ctx: *ctx,
            plan,
            responses: BTreeMap::new(),
            clock: &self.clock,
            reg: &self.txn_reg,
            notes: &self.txn_notes,
        };
        let outcome = s4_txn::run(&mut ops, txid, &plan.writers);
        let mut responses = ops.responses;
        // Once committed, the shards the batch only reads or syncs run
        // their sub-batches; after an abort nobody runs anything.
        let committed = matches!(outcome, TxnOutcome::Committed { .. });
        let bystanders: Vec<usize> = touched
            .iter()
            .copied()
            .filter(|s| committed && !plan.writers.contains(s))
            .collect();
        let after = send_each(r, ctx, &bystanders, |s| {
            Request::Batch(plan.subs[s].clone())
        });
        drop(gates);

        let count = |name, help, n: usize| self.txn_reg.counter(name, help).add(n as u64);
        match outcome {
            TxnOutcome::Committed { lagging } => {
                count(
                    "s4_txn_committed_total",
                    "cross-shard transactions committed",
                    1,
                );
                if !lagging.is_empty() {
                    // A lagging participant missed the commit fan-out
                    // (its members failed after voting); its effects
                    // are durable and the decision note survives for
                    // its next mount, so the batch still succeeded.
                    count(
                        "s4_txn_lagging_total",
                        "participants that missed a commit fan-out (note kept for mount recovery)",
                        lagging.len(),
                    );
                }
                // Every writer voted; everyone else answers now.
                let mut after = gather(after).into_iter();
                let answer = |s| match responses.remove(s) {
                    Some(voted) => Ok(Response::Batch(voted)),
                    None => after.next().expect("one reply per bystander"),
                };
                Some(touched.iter().map(answer).collect())
            }
            TxnOutcome::Aborted {
                failed_shard,
                error,
            } => {
                count(
                    "s4_txn_aborted_total",
                    "cross-shard transactions rolled back",
                    1,
                );
                // The rollback undid every participant, so the whole
                // batch reports as never-executed: nothing completed on
                // the shard that refused (or shard 0's decision write),
                // no answer from anyone, nothing in doubt.
                let refused = touched.iter().position(|&s| Some(s) == failed_shard);
                let mut results: Vec<_> = touched
                    .iter()
                    .map(|_| Ok(Response::Batch(Vec::new())))
                    .collect();
                results[refused.unwrap_or(0)] = Err(S4Error::BatchFailed {
                    completed: 0,
                    failed_at: 0,
                    error: Box::new(error),
                });
                Some(results)
            }
        }
    }
}

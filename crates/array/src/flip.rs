//! The flip of a live split (DESIGN §6h): the brief quiesced window in
//! which a source shard's residue class divides and its target comes
//! online.

use std::sync::Arc;

use s4_clock::sync::RwLock;
use s4_core::{ClientId, Request, RequestContext, S4Drive, S4Error, TraceCtx};
use s4_simdisk::BlockDev;

use crate::array::{Routing, S4Array};
use crate::epoch::FlipReport;
use crate::shard::{MemberState, Shard, ShardHandle, SHARD_READ_ONLY, WORKER_GONE};

impl<D: BlockDev + 'static> S4Array<D> {
    /// Atomically installs the epoch in which source `source_slot`'s
    /// residue class has split, bringing the target shard (slot
    /// `base + source_slot`) online.
    ///
    /// The caller (the reshard engine) has already bulk-copied the
    /// moving class and caught up to a small lag. This method performs
    /// only the brief quiesced window:
    ///
    /// 1. takes the source shard's write gate — no dispatcher can be
    ///    mid-send on it — and re-verifies the epoch hasn't moved;
    /// 2. drains the source's queue with a `Sync` barrier (the queue is
    ///    FIFO, so the reply implies every earlier job finished, and
    ///    every member is durable);
    /// 3. hands the quiesced source members to `finish`, which replays
    ///    the final delta onto the prepared target member drives and
    ///    returns them (one per mirror), which then allocate in class
    ///    `base + source_slot (mod 2·base)`;
    /// 4. raises each target's ObjectID allocator above the source's
    ///    (moved-then-deleted oids must never be re-issued) and anchors
    ///    it, persists the new epoch note on shard 0 *through its worker
    ///    queue*, narrows the source's allocator class, and swaps in the
    ///    new routing.
    ///
    /// An error anywhere before the note install leaves the routing
    /// untouched — the array keeps running wholly in the old epoch and
    /// the flip can be retried. The returned [`FlipReport`] carries the
    /// pause duration (on the source's member clock) that
    /// `fig_reshard` asserts against.
    pub(crate) fn install_split<F>(
        &self,
        source_slot: usize,
        finish: F,
    ) -> s4_core::Result<FlipReport>
    where
        F: FnOnce(&[Arc<S4Drive<D>>]) -> s4_core::Result<Vec<S4Drive<D>>>,
    {
        let r = self.routing();
        let e = r.epoch;
        if source_slot >= e.base || source_slot >= 64 {
            return Err(S4Error::BadRequest("array: no such source slot"));
        }
        if e.bits & (1u64 << source_slot) != 0 {
            return Err(S4Error::BadRequest("array: slot already split"));
        }
        let src = &r.shards[source_slot]; // dense == slot for sources
        let gate = self
            .hold(&r, &[source_slot], RwLock::write)
            .ok_or(S4Error::BadRequest("array: epoch moved during flip"))?;
        let live: Vec<Arc<S4Drive<D>>> = src
            .members
            .iter()
            .filter(|m| m.state() == MemberState::InSync)
            .map(|m| m.drive())
            .collect();
        if live.is_empty() {
            return Err(SHARD_READ_ONLY);
        }
        let clock = live[0].clock().clone();
        let started = clock.now();
        let admin = RequestContext::admin(ClientId(0), live[0].config().admin_token);

        // Drain: a Sync through the FIFO queue completes every queued
        // job and makes every member durable.
        src.call(move |s| s.process(&admin, &Request::Sync))?;

        // Final delta onto the prepared targets, under quiescence.
        let targets = finish(&live)?;
        let target_slot = e.base + source_slot;
        let class = (2 * e.base as u64, target_slot as u64);
        if targets.len() != self.cfg.mirrors {
            return Err(S4Error::BadRequest("array: wrong target mirror count"));
        }
        for t in &targets {
            t.set_oid_class(class.0, class.1);
        }
        // The target must never re-issue an ObjectID the source already
        // allocated (a moved-then-deleted oid would resurrect). The
        // reshard engine pre-raises and anchors outside the gate, so
        // this usually finds the floor already durable and skips the
        // anchor write.
        let floor = live[0].next_oid(&admin)?;
        for t in &targets {
            if t.next_oid(&admin)? < floor {
                t.raise_next_oid(&admin, floor)?;
                t.force_anchor()?;
            }
        }

        // Persist the new epoch through shard 0's worker queue so the
        // partition object stays bit-identical across its mirrors. Only
        // the new note's creation is the commit point; the stale note is
        // retired after the gate drops (mount elects the highest seq and
        // repairs leftovers, so the overlap is harmless).
        let ne = e.after_split(source_slot);
        r.shards[0].call(move |s| s.note(Some(&ne.note_name()), &[], TraceCtx::default()))?;

        // Commit point passed: narrow the source's allocator and swap
        // in the new routing.
        for m in &src.members {
            if m.state() != MemberState::Dead {
                m.drive()
                    .set_oid_class(2 * e.base as u64, source_slot as u64);
            }
        }
        let target = Arc::new(ShardHandle::spawn(Shard::new(target_slot, targets)));
        let mut shards = r.shards.clone();
        let dense = ne
            .dense_of_slot(target_slot)
            .expect("freshly split slot is live");
        shards.insert(dense, target);
        *self.routing.lock() = Arc::new(Routing { epoch: ne, shards });

        let pause = clock.now() - started;
        self.reshard_reg
            .histogram(
                "s4_reshard_flip_pause_us",
                "time the source shard spent quiesced per flip",
            )
            .record(pause.as_micros());

        // Quiesce over: release the gate, then retire the old epoch
        // note outside the client-visible window. The job is idempotent
        // (pcreate tolerates an existing note), so a crash in between
        // just leaves both notes for mount's repair pass.
        drop(gate);
        let retire = move |s: &Shard<D>| {
            s.note(Some(&ne.note_name()), &[e.note_name()], TraceCtx::default())
        };
        match r.shards[0].call(retire) {
            // A vanished worker (shutdown race) is tolerable — mount's
            // repair pass drops the stale note — but a real fault is not.
            Err(err) if err != WORKER_GONE => Err(err),
            _ => Ok(FlipReport { pause, epoch: ne }),
        }
    }
}

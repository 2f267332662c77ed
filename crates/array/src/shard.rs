//! One mirror group and the worker thread that owns it: member slots
//! and their health, the job queue, the fan-out that applies a job to
//! every in-sync member *at one instant*, member failure, and online
//! resync.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use s4_clock::sync::{Mutex, RwLock};
use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{
    AlertRule, ClientId, DiskFaultKind, ObjectId, Request, RequestContext, Response, S4Drive,
    S4Error, TraceCtx, AUDIT_OBJECT, PHASE_APPLY,
};
use s4_simdisk::BlockDev;

use crate::array::QUEUE_DEPTH;

/// Returned when a shard's worker thread is gone (array shutting down
/// or worker panicked).
pub(crate) const WORKER_GONE: S4Error = S4Error::BadRequest("array shard worker unavailable");

/// Returned for mutations when every member of the shard has fallen
/// back to read-only (a lone member that exhausted its write retries).
pub(crate) const SHARD_READ_ONLY: S4Error =
    S4Error::BadRequest("array shard is read-only (degraded)");

/// Returned when every member of a shard is dead.
pub(crate) const SHARD_DEAD: S4Error = S4Error::BadRequest("array shard has no live members");

/// How many times a transient disk fault (an I/O error, as opposed to
/// whole-device failure) is retried before the member is declared dead.
const RETRIES: u32 = 3;

/// Base backoff between retries, charged to the simulated clock and
/// doubled on each attempt.
const RETRY_BACKOFF_US: u64 = 100;

/// Health of one mirrored member drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MemberState {
    /// Healthy: serves reads and applies every mutation.
    InSync,
    /// Last member standing after exhausting write retries: still
    /// serves reads, rejects mutations ([`S4Error::BadRequest`] with
    /// "read-only"). Only reachable when no in-sync sibling remains.
    ReadOnly,
    /// Removed from service after a fatal fault (or exhausted retries
    /// with a surviving sibling). Awaits [`crate::S4Array::resync_member`].
    Dead,
}

/// One member drive slot, shared between the shard worker (which owns
/// state transitions and the drive swap at resync) and the admin plane
/// (which reads state and live members' logs).
pub(crate) struct MemberSlot<D: BlockDev> {
    pub(crate) drive: Mutex<Arc<S4Drive<D>>>,
    state: AtomicU8,
}

impl<D: BlockDev> MemberSlot<D> {
    pub(crate) fn drive(&self) -> Arc<S4Drive<D>> {
        self.drive.lock().clone()
    }

    pub(crate) fn state(&self) -> MemberState {
        const STATES: [MemberState; 3] = [
            MemberState::InSync,
            MemberState::ReadOnly,
            MemberState::Dead,
        ];
        STATES[self.state.load(Ordering::SeqCst) as usize]
    }

    fn set_state(&self, s: MemberState) {
        self.state.store(s as u8, Ordering::SeqCst);
    }
}

/// Work for the worker thread other than a client request.
type OnWorker<D> = Box<dyn FnOnce(&Shard<D>) + Send>;

/// One queued job for a shard worker.
pub(crate) enum Job<D: BlockDev> {
    /// A client request plus the channel its response goes back on — a
    /// plain variant, so the request path allocates nothing per hop.
    Rpc {
        ctx: RequestContext,
        req: Request,
        reply: SyncSender<s4_core::Result<Response>>,
    },
    /// Anything else that must run on the worker thread, after whatever
    /// is already queued and with the shard quiesced meanwhile: resync,
    /// note installs, 2PC prepare and decide (see [`ShardHandle::call`]).
    Run(OnWorker<D>),
}

/// The dispatchers' end of one shard: its member slots, queue, worker
/// thread, and quiesce gate. `slot` is the shard's stable residue-class
/// id (see [`crate::epoch`]); the gate is held shared by every
/// dispatcher for the duration of its sends and exclusively by a
/// reshard flip, so the flip observes a moment with no dispatcher
/// mid-send on this shard.
pub(crate) struct ShardHandle<D: BlockDev> {
    pub(crate) slot: usize,
    pub(crate) gate: RwLock<()>,
    pub(crate) members: Vec<Arc<MemberSlot<D>>>,
    tx: Option<SyncSender<Job<D>>>,
    thread: Option<JoinHandle<()>>,
}

impl<D: BlockDev> Drop for ShardHandle<D> {
    fn drop(&mut self) {
        // Closing the queue ends the worker's recv loop; join so no
        // thread outlives the array.
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl<D: BlockDev + 'static> ShardHandle<D> {
    /// Starts the worker thread that owns `shard` from here on.
    pub(crate) fn spawn(shard: Shard<D>) -> ShardHandle<D> {
        let (slot, members) = (shard.slot, shard.members.clone());
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        let thread = std::thread::Builder::new()
            .name(format!("s4-shard-{slot}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Rpc { ctx, req, reply } => {
                            let _ = reply.send(shard.process(&ctx, &req));
                        }
                        Job::Run(f) => f(&shard),
                    }
                }
            })
            .expect("spawn shard worker thread");
        ShardHandle {
            slot,
            gate: RwLock::new(()),
            members,
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    /// Queues `job`; `false` if the worker is gone. Blocks while the
    /// queue is full — that is the backpressure contract.
    pub(crate) fn send(&self, job: Job<D>) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(job).is_ok())
    }

    /// Runs `f` on the worker thread and waits for its answer.
    /// [`WORKER_GONE`] covers both a closed queue and a worker that
    /// died before answering.
    pub(crate) fn call<T: Send + 'static>(
        &self,
        f: impl FnOnce(&Shard<D>) -> s4_core::Result<T> + Send + 'static,
    ) -> s4_core::Result<T> {
        let (reply, rx) = mpsc::sync_channel(1);
        let job = Job::Run(Box::new(move |shard| {
            let _ = reply.send(f(shard));
        }));
        let answer = self.send(job).then(|| rx.recv().ok()).flatten();
        answer.unwrap_or(Err(WORKER_GONE))
    }
}

/// The worker's end of one shard: the mirror group itself. Everything
/// that changes a member drive goes through [`Shard::fan_out`].
pub(crate) struct Shard<D: BlockDev> {
    slot: usize,
    pub(crate) members: Vec<Arc<MemberSlot<D>>>,
    /// The group's clock: its first member's (benchmarks that give
    /// each spindle its own still get one source of instants per group).
    pub(crate) clock: SimClock,
}

/// `ctx` with its trace marked as running in `phase`, so the assembler
/// can tell a 2PC prepare's records from a plain apply's. An untraced
/// request stays exactly as it came.
pub(crate) fn in_phase(ctx: &RequestContext, phase: u8) -> RequestContext {
    match ctx.trace.trace_id {
        0 => *ctx,
        _ => ctx.with_trace(TraceCtx { phase, ..ctx.trace }),
    }
}

impl<D: BlockDev> Shard<D> {
    /// Wraps `drives` (the group's members, in device order) as shard
    /// `slot` — the stable residue-class id used in alerts and metric
    /// labels.
    pub(crate) fn new(slot: usize, drives: Vec<S4Drive<D>>) -> Shard<D> {
        let clock = drives[0].clock().clone();
        let members = drives
            .into_iter()
            .map(|d| {
                Arc::new(MemberSlot {
                    drive: Mutex::new(Arc::new(d)),
                    state: AtomicU8::new(MemberState::InSync as u8),
                })
            })
            .collect();
        Shard {
            slot,
            members,
            clock,
        }
    }

    /// The instant a job happens at: read once, before the job touches
    /// any member — the only place the worker reads the clock for
    /// anything a member persists (see [`Shard::fan_out`]).
    pub(crate) fn instant(&self) -> SimTime {
        self.clock.now()
    }

    /// Applies `step` to member `k` held at `at`. `Ok` is the member's
    /// answer (possibly a logical error — denial, missing object —
    /// which is a property of the request, not the member); `Err` means
    /// the member faulted at the disk level or panicked and must leave
    /// service. A panic is contained to the member: the drive's locks
    /// are non-poisoning and every guarded structure stays valid.
    fn apply<T>(
        &self,
        k: usize,
        at: SimTime,
        step: &impl Fn(&S4Drive<D>) -> s4_core::Result<T>,
    ) -> Result<s4_core::Result<T>, S4Error> {
        let drive = self.members[k].drive();
        match catch_unwind(AssertUnwindSafe(|| drive.at(at, step))) {
            Ok(Err(e)) if e.disk_fault().is_some() => Err(e),
            Ok(answer) => Ok(answer),
            Err(_) => Err(S4Error::BadRequest("array member panicked during dispatch")),
        }
    }

    /// The one way a running array touches its member drives: applies
    /// `step` at the instant `at` to every in-sync member (`to_all`, a
    /// mutation — a shard with none left refuses) or to live members in
    /// turn until one answers (a read, failing over). The first answer
    /// is canonical; a member that faults or panics leaves service
    /// through [`Shard::fail_member`] and the survivors carry the job.
    ///
    /// Why `at`: members share a clock that each one's own CPU and disk
    /// charges advance, so a member that read it would stamp versions,
    /// audit records and alerts later than the sibling that ran before
    /// it (DESIGN §6g). Durations — span timings, cost-model charges,
    /// retry backoff — still read and advance the real clock.
    pub(crate) fn fan_out<T>(
        &self,
        at: SimTime,
        to_all: bool,
        step: impl Fn(&S4Drive<D>) -> s4_core::Result<T>,
    ) -> s4_core::Result<T> {
        let serves = |s| s == MemberState::InSync || (!to_all && s == MemberState::ReadOnly);
        let mut canonical = None;
        let mut faults = Vec::new();
        for k in 0..self.members.len() {
            if !serves(self.members[k].state()) {
                continue;
            }
            match self.apply(k, at, &step) {
                Ok(answer) => {
                    canonical.get_or_insert(answer);
                    if !to_all {
                        break;
                    }
                }
                Err(fault) => faults.push((k, fault)),
            }
        }
        // Failed members go after the survivors have all applied the
        // job, so every survivor's audit log reads "job, then the
        // sibling's death" in the same order.
        for (k, fault) in &faults {
            self.fail_member(*k, fault, at);
        }
        canonical.unwrap_or_else(|| {
            Err(match faults.pop() {
                Some((_, fault)) => fault,
                // Nobody was asked: no member serves this kind of job.
                None if self.members.iter().all(|m| m.state() == MemberState::Dead) => SHARD_DEAD,
                None => SHARD_READ_ONLY,
            })
        })
    }

    /// Files `rule` about `member`, dated `at`, in every live member's
    /// tamper-evident audit log — the same channel the operator already
    /// polls for intrusion alerts. The record's `arg1` names the member
    /// as `shard << 32 | member` ([`AlertRule`] gives the rest).
    fn announce(
        &self,
        at: SimTime,
        rule: AlertRule,
        ok: bool,
        object: ObjectId,
        member: usize,
        arg2: u64,
    ) {
        let who = (self.slot as u64) << 32 | member as u64;
        for m in self
            .members
            .iter()
            .filter(|m| m.state() != MemberState::Dead)
        {
            m.drive()
                .at(at, |d| d.system_alert(rule, ok, object, who, arg2));
        }
    }

    /// Takes member `k` out of service after `error`: the last non-dead
    /// member of the shard degrades to read-only (reads may still work)
    /// and alerts through its own stream — it may be the only reachable
    /// log; anyone else goes dead and the survivors raise the alert.
    fn fail_member(&self, k: usize, error: &S4Error, at: SimTime) {
        let others_alive =
            (0..self.members.len()).any(|i| i != k && self.members[i].state() != MemberState::Dead);
        let new_state = if others_alive {
            MemberState::Dead
        } else {
            MemberState::ReadOnly
        };
        self.members[k].set_state(new_state);
        let read_only = u64::from(new_state == MemberState::ReadOnly);
        let fault = u64::from(error.kind()) | read_only << 8;
        self.announce(at, AlertRule::ArrayDegraded, false, ObjectId(0), k, fault);
    }

    /// Processes one client request: mutations apply to every in-sync
    /// member, reads go to the first live one. Transient disk faults
    /// (an I/O error, as opposed to whole-device failure) are retried
    /// on the member that hit them, with a backoff charged to the
    /// clock and doubled per attempt, before the member is given up on.
    pub(crate) fn process(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        // Records written by member drives during ordinary worker
        // execution carry the apply phase (the entry phase stays on
        // whatever record the frontend wrote, if any).
        let ctx = in_phase(ctx, PHASE_APPLY);
        let step = |drive: &S4Drive<D>| {
            let mut backoff = RETRY_BACKOFF_US;
            let mut attempt = 0u32;
            loop {
                match drive.dispatch(&ctx, req) {
                    Err(e)
                        if e.disk_fault() == Some(DiskFaultKind::Transient)
                            && attempt < RETRIES =>
                    {
                        attempt += 1;
                        self.clock.advance(SimDuration::from_micros(backoff));
                        backoff = backoff.saturating_mul(2);
                    }
                    answer => return answer,
                }
            }
        };
        self.fan_out(self.instant(), req.mutates(), step)
    }

    /// Rebuilds member `member` onto `dev` from the first surviving
    /// sibling: export the survivor's logical image, replay it onto
    /// `dev`, verify the copy against its source ([`first_difference`]),
    /// then promote it to `InSync`. Runs on the shard worker thread, so
    /// the shard is quiesced for the duration — no mutation can
    /// interleave with the copy.
    pub(crate) fn resync(&self, member: usize, dev: D) -> s4_core::Result<()> {
        let members = &self.members;
        // Copy source: the first surviving sibling, or — when replacing
        // the sole (read-only) member of an unmirrored shard — the member
        // being replaced itself, which is still readable.
        let survivor_idx = (0..members.len())
            .find(|&i| i != member && members[i].state() != MemberState::Dead)
            .or_else(|| (members[member].state() != MemberState::Dead).then_some(member))
            .ok_or(SHARD_DEAD)?;
        let survivor = members[survivor_idx].drive();
        let config = *survivor.config();
        let admin = RequestContext::admin(ClientId(0), config.admin_token);

        let image = survivor.resync_image(&admin)?;
        let rebuilt = S4Drive::format_from_image(dev, config, survivor.clock().clone(), &image)?;
        // The survivor's allocator class may have been narrowed by a flip
        // since it was formatted; the replica must allocate identically.
        let (stride, offset) = survivor.oid_class();
        rebuilt.set_oid_class(stride, offset);

        // Verify the replica object by object and stream by stream
        // before trusting it with client reads.
        if let Some((differs, _)) = first_difference(&survivor, &rebuilt, &admin, true)? {
            self.announce(
                self.instant(),
                AlertRule::ArrayResync,
                false,
                differs,
                member,
                0,
            );
            return Err(S4Error::BadRequest(
                "array resync: replica differs from its source",
            ));
        }

        // Promote: swap the rebuilt drive in and mark the pair healthy.
        *members[member].drive.lock() = Arc::new(rebuilt);
        members[member].set_state(MemberState::InSync);
        if members[survivor_idx].state() == MemberState::ReadOnly {
            members[survivor_idx].set_state(MemberState::InSync);
        }
        self.announce(
            self.instant(),
            AlertRule::ArrayResync,
            true,
            ObjectId(0),
            member,
            0,
        );
        Ok(())
    }
}

/// The first thing members `a` and `b` of one mirror group disagree on
/// — live-object set, an object's [`S4Drive::object_digest`] (named
/// with the fields that differ), the audit log — as the object or stream
/// it is in and a description, or `None`.
///
/// A freshly resynced replica copied its source's audit log byte for
/// byte: `whole_streams` compares it entire, layer times, protocol steps
/// and alerts included. Two running members share only what was fanned
/// out to both — a read is served by one member, which alone audits it
/// and runs its detectors over it, and a record's layer times are that
/// member's own measurement — so they compare only the identity of the
/// requests' records of mutations ([`s4_core::AuditRecord::identity`]).
pub(crate) fn first_difference<D: BlockDev>(
    a: &S4Drive<D>,
    b: &S4Drive<D>,
    admin: &RequestContext,
    whole_streams: bool,
) -> s4_core::Result<Option<(ObjectId, String)>> {
    let (ids, other) = (a.live_object_ids(admin)?, b.live_object_ids(admin)?);
    if ids != other {
        let (x, y) = (BTreeSet::from_iter(&ids), BTreeSet::from_iter(&other));
        let first = x.symmetric_difference(&y).next().map_or(0, |&&oid| oid);
        let diff = format!("live objects {ids:?} vs {other:?}");
        return Ok(Some((ObjectId(first), diff)));
    }
    for oid in ids.into_iter().map(ObjectId) {
        if a.object_digest(admin, oid)? == b.object_digest(admin, oid)? {
            continue;
        }
        let versions = (
            a.reshard_export(admin, oid, None)?,
            b.reshard_export(admin, oid, None)?,
        );
        let (Some(x), Some(y)) = versions else {
            return Ok(Some((
                oid,
                format!("object {} deleted mid-comparison", oid.0),
            )));
        };
        let same = (x.content == y.content, x.attrs == y.attrs, x.acl == y.acl);
        return Ok(Some((oid, format!(
            "object {}: created {:?} vs {:?}, modified {:?} vs {:?}; content, attrs, acl equal: {same:?}",
            oid.0, x.created, y.created, x.modified, y.modified
        ))));
    }
    let shared = |d: &S4Drive<D>| -> s4_core::Result<Vec<_>> {
        let records = d.read_audit_records(admin)?.into_iter();
        Ok(records
            .filter(|r| r.op.mutates())
            .map(|r| r.identity())
            .collect())
    };
    let audit = if whole_streams {
        [a.read_traces(admin)?, b.read_traces(admin)?]
    } else {
        [shared(a)?, shared(b)?]
    };
    let [x, y] = &audit;
    let i = x.iter().zip(y).take_while(|(p, q)| p == q).count();
    if i < x.len().max(y.len()) {
        let diff = format!("audit record {i}: {:?} vs {:?}", x.get(i), y.get(i));
        return Ok(Some((AUDIT_OBJECT, diff)));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_core::{DriveConfig, UserId};
    use s4_simdisk::{FaultPlan, FaultyDisk, MemDisk, RequestClassMask};

    /// A two-member group on one clock; with `dying`, member 1's device
    /// fails for good at its first write.
    fn pair(dying: bool) -> Shard<FaultyDisk<MemDisk>> {
        let clock = SimClock::new();
        let config = DriveConfig::small_test();
        let drives = (0..2)
            .map(|k| {
                let plan = if dying && k == 1 {
                    FaultPlan::member_death_after_requests(0, RequestClassMask::WRITES)
                } else {
                    FaultPlan::none()
                };
                let clean =
                    FaultyDisk::new(MemDisk::with_capacity_bytes(8 << 20), FaultPlan::none());
                let dev = S4Drive::format(clean, config, clock.clone())
                    .unwrap()
                    .unmount()
                    .unwrap();
                S4Drive::mount(
                    FaultyDisk::new(dev.into_inner(), plan),
                    config,
                    clock.clone(),
                )
                .unwrap()
            })
            .collect();
        Shard::new(0, drives)
    }

    fn states<D: BlockDev>(shard: &Shard<D>) -> Vec<MemberState> {
        shard.members.iter().map(|m| m.state()).collect()
    }

    #[test]
    fn a_panicking_or_faulting_member_leaves_and_the_survivor_answers() {
        let ctx = RequestContext::user(UserId(1), ClientId(1));
        let create_and_flush = |d: &S4Drive<_>| {
            d.dispatch(&ctx, &Request::Create)?;
            d.dispatch(&ctx, &Request::Sync)
        };

        // A step that panics on member 0 only.
        let shard = pair(false);
        let victim = shard.members[0].drive();
        let answer = shard.fan_out(shard.instant(), true, |d| {
            assert!(!std::ptr::eq(d, &*victim), "step bug on this member");
            create_and_flush(d)
        });
        assert_eq!(
            answer,
            Ok(Response::Ok),
            "the survivor's answer is canonical"
        );
        assert_eq!(states(&shard), [MemberState::Dead, MemberState::InSync]);

        // A step that hits a failed device on member 1 only.
        let shard = pair(true);
        let answer = shard.fan_out(shard.instant(), true, create_and_flush);
        assert_eq!(answer, Ok(Response::Ok));
        assert_eq!(states(&shard), [MemberState::InSync, MemberState::Dead]);
        let fault = create_and_flush(&shard.members[1].drive()).unwrap_err();
        assert_eq!(fault.disk_fault(), Some(DiskFaultKind::Fatal));
        let alerts = shard.members[0]
            .drive()
            .read_alerts(&RequestContext::admin(ClientId(0), 42));
        assert_eq!(
            alerts.unwrap().len(),
            1,
            "the survivor records its sibling's death"
        );
    }

    #[test]
    fn no_in_sync_member_refuses_mutations_read_only_or_dead() {
        let shard = pair(false);
        let step = |_: &S4Drive<_>| Ok(());
        // The last member standing degrades to read-only, not dead…
        shard.fail_member(1, &SHARD_DEAD, shard.instant());
        shard.fail_member(0, &SHARD_DEAD, shard.instant());
        assert_eq!(states(&shard), [MemberState::ReadOnly, MemberState::Dead]);
        assert_eq!(
            shard.fan_out(shard.instant(), true, step),
            Err(SHARD_READ_ONLY)
        );
        assert_eq!(
            shard.fan_out(shard.instant(), false, step),
            Ok(()),
            "reads still served"
        );
        // …and a shard with nobody left answers nothing at all.
        shard.members[0].set_state(MemberState::Dead);
        assert_eq!(shard.fan_out(shard.instant(), true, step), Err(SHARD_DEAD));
        assert_eq!(shard.fan_out(shard.instant(), false, step), Err(SHARD_DEAD));
    }
}

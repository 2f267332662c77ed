//! Crash-point torture for cross-shard two-phase commit (DESIGN §6i).
//!
//! A participant's resolution rides its next commit, and a decision note
//! stays until a later note install finds every resolution durable, so
//! [`Stretch`] runs three steps through [`S4Array::dispatch`], the
//! coordinator that ships: a cross-shard batch, a write and a `Sync` on
//! every shard (the commit that carries the resolutions), and a second
//! cross-shard batch (whose note install retires the first note). After
//! each cut the array must show all-or-nothing (each transaction's
//! content on every participant object and mirror or on none, and every
//! step that returned durable), decision convergence (nothing in doubt,
//! a note kept only while some member has its resolution queued), audit
//! integrity (every member keeps its synced prefix) and remount
//! idempotence (a second crash and mount change nothing).
//!
//! Every device's own requests up to its cut are the counting run's, so
//! `windows`, `domain`, `crash_points`, `replays` and `died` are one value
//! per array shape. The committed/aborted split is too on an unmirrored
//! array, and the harness does not pin it on a mirrored one: the middle
//! `Sync` goes to every shard worker at once, and a cut on a shard's
//! second member after the first has flushed leaves that shard answering
//! `Ok` (a mirror outlives one dead member). The step returns only if the
//! other shards' parallel flushes reached their platters before the rail
//! went dark; then the last transaction the run reached is the second,
//! which the dark rail aborts, not the first, which committed. On 3 × 2
//! that is 2 replays of 44 (request 1 of devices 3 and 5).

use std::ops::AddAssign;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    DriveConfig, ObjectId, Request, Response, S4Drive, TraceCtx, PHASE_DECIDE, PHASE_NOTE,
    PHASE_PREPARE,
};
use s4_simdisk::MemDisk;

use crate::{admin_ctx, power_cut, user_ctx, Disk, Rail, Scenario};

/// The trace id every replay's batches carry, so `verify` can pick the
/// transactions' spans out of each member's stream. (The array mints the
/// transaction ids itself, from the simulated clock: replays stay
/// byte-identical.)
const TXN_ID: u64 = 0x7777;

/// Steps of the stretch every replay runs, in order: the first
/// transaction, a plain write and `Sync` on every shard (the commit that
/// carries the resolutions), and the second transaction (whose note
/// install retires the first note). Each step rewrites every
/// participant object, so the recovered content says how far each shard
/// got.
const STEPS: usize = 3;

/// Whether step `step` (1-based) is a cross-shard transaction.
fn is_txn(step: usize) -> bool {
    step != 2
}

/// Content of shard `shard`'s object once step `step` has applied
/// (step 0: the seeded content the stretch starts from).
fn content(step: usize, shard: usize) -> Vec<u8> {
    let tag = ["old", "NEW", "mid", "TWO"][step];
    format!("{tag}-{shard:04}").into_bytes()
}

/// Device capacity for every member (sparse in memory).
const DISK_BYTES: u64 = 64 << 20;

/// The 2PC scenario: the stretch on a `shards` × `mirrors` array, every
/// shard a participant.
#[derive(Clone, Copy, Debug)]
pub struct Stretch {
    /// Participant shards (every one joins the transaction).
    pub shards: usize,
    /// Members per shard (1 = unmirrored).
    pub mirrors: usize,
}

impl Stretch {
    /// Two unmirrored shards.
    pub const TWO_SHARDS: Stretch = Stretch {
        shards: 2,
        mirrors: 1,
    };
    /// Three shards × two mirrors.
    pub const MIRRORED: Stretch = Stretch {
        shards: 3,
        mirrors: 2,
    };

    fn array_cfg(&self) -> ArrayConfig {
        ArrayConfig {
            mirrors: self.mirrors,
            ..ArrayConfig::default()
        }
    }

    /// Power comes back: mounts the array on a fresh clock, running
    /// member recovery and in-doubt resolution.
    fn power_on(&self, images: Vec<MemDisk>) -> S4Array<MemDisk> {
        let mounted = S4Array::mount(
            images,
            DriveConfig::small_test(),
            self.array_cfg(),
            SimClock::new(),
        );
        mounted.unwrap().0
    }
}

/// How far a run got.
#[derive(Debug)]
pub struct Reached {
    /// Steps that returned.
    pub done: usize,
    /// Participant object of shard `s`, in shard order.
    oids: Vec<ObjectId>,
}

impl Reached {
    /// The step of the last transaction the run reached (1 or 3): the
    /// one whose decision a check counts.
    pub fn txn_step(&self) -> usize {
        let reached = (self.done + 1).min(STEPS);
        (1..=reached).rev().find(|&t| is_txn(t)).unwrap_or(1)
    }
}

/// What a 2PC check counts: how the last transaction a run reached was
/// recovered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Decisions {
    /// Every object holds its content.
    pub committed: usize,
    /// Every object was rolled back.
    pub aborted: usize,
}

impl AddAssign for Decisions {
    fn add_assign(&mut self, o: Decisions) {
        self.committed += o.committed;
        self.aborted += o.aborted;
    }
}

impl Scenario for Stretch {
    type Rig = (S4Array<Disk>, Vec<ObjectId>);
    type Run = Reached;
    type Tally = Decisions;

    fn devices(&self) -> usize {
        self.shards * self.mirrors
    }

    /// Formats an array, seeds one synced object per shard, unmounts it,
    /// and mounts the images on the rail: the instant a device dies the
    /// whole machine is dark, and whatever the coordinator tries next —
    /// abort fan-out, note scrub — reaches no platter.
    fn setup(&self, rail: &Rail) -> Self::Rig {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let devices = (0..self.devices())
            .map(|_| MemDisk::with_capacity_bytes(DISK_BYTES))
            .collect();
        let cfg = DriveConfig::small_test();
        let a = S4Array::format(devices, cfg, self.array_cfg(), clock.clone()).unwrap();

        // One participant object per shard, with synced pre-transaction
        // content.
        let ctx = user_ctx();
        let mut oids: Vec<Option<ObjectId>> = vec![None; self.shards];
        while oids.iter().any(Option::is_none) {
            let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
                Response::Created(oid) => oid,
                other => panic!("unexpected response {other:?}"),
            };
            oids[a.shard_index_of(oid)].get_or_insert(oid);
        }
        let oids: Vec<ObjectId> = oids.into_iter().map(Option::unwrap).collect();
        for (s, &oid) in oids.iter().enumerate() {
            let data = content(0, s);
            let write = Request::Write {
                oid,
                offset: 0,
                data,
            };
            a.dispatch(&ctx, &write).unwrap();
        }
        a.dispatch(&ctx, &Request::Sync).unwrap();

        let devices = a
            .unmount()
            .unwrap()
            .into_iter()
            .map(|d| rail.plug(d))
            .collect();
        let (array, _) = S4Array::mount(devices, cfg, self.array_cfg(), clock).unwrap();
        (array, oids)
    }

    /// Runs the stretch's three steps through the array's own dispatch. A
    /// transaction is one batch with a write to every shard's object and
    /// the `Sync` every translator batch ends with (§4.1.2; the vote's
    /// flush stands in for it, so every crash point of that flush is a
    /// crash point of the `Sync`) — `split_batch`, the held gates,
    /// `s4_txn::run` and `ArrayTxn`'s abort and scrub branches included.
    /// Transactions run traced (trace id = the pinned transaction id),
    /// so the shard workers leave their `PHASE_PREPARE` / `PHASE_NOTE` /
    /// `PHASE_DECIDE` spans and every replay also tortures the v2 trace
    /// records' crash survival alongside the data they annotate. Once a
    /// device dies the rail is dark and every later request fails.
    fn run(&self, (array, oids): &Self::Rig) -> Reached {
        let traced = user_ctx().with_trace(TraceCtx {
            trace_id: TXN_ID,
            origin: 0,
            phase: 0,
        });
        let oids = oids.clone();
        let mut reached = Reached { done: 0, oids };
        let dark = || array.member_drive(0, 0).log().device().is_dead();
        for step in 1..=STEPS {
            let writes = reached
                .oids
                .iter()
                .enumerate()
                .map(|(s, &oid)| Request::Write {
                    oid,
                    offset: 0,
                    data: content(step, s),
                });
            let mut reqs = writes.chain([Request::Sync]);
            let done = if is_txn(step) {
                let batch = Request::Batch(reqs.collect());
                array.dispatch(&traced, &batch).map(drop)
            } else {
                reqs.try_for_each(|req| array.dispatch(&user_ctx(), &req).map(drop))
            };
            if let Err(e) = done {
                assert!(dark(), "step {step} failed without the power going: {e}");
                return reached;
            }
            reached.done = step;
        }
        // A stretch that ran to its end on a live array has left the
        // transactions' *complete* causal span set: every member vouches
        // for its own PREPARE and DECIDE, and exactly the shard-0
        // (coordinator) members for the NOTE commit point.
        if dark() {
            return reached;
        }
        for s in 0..self.shards {
            for m in 0..self.mirrors {
                let traces = array.member_drive(s, m).read_traces(&admin_ctx()).unwrap();
                let phases: Vec<u8> = traces
                    .iter()
                    .filter(|t| t.trace_id == TXN_ID)
                    .map(|t| t.phase)
                    .collect();
                let has = |phase| phases.contains(&phase);
                let what = format!("shard {s} member {m}");
                assert!(has(PHASE_PREPARE), "{what}: no prepare span");
                assert!(has(PHASE_DECIDE), "{what}: no decide span");
                assert_eq!(
                    has(PHASE_NOTE),
                    s == 0,
                    "{what}: note span on the wrong shard"
                );
            }
        }
        reached
    }

    /// Mounts the images twice and verifies both: all-or-nothing, no
    /// decision flipped, byte-identical objects.
    fn check(&self, images: Vec<MemDisk>, run: &Reached, _: bool, what: &str) -> Decisions {
        let states = self.remount_twice(self.power_on(images), run, what);
        let committed = states[0] >= run.txn_step();
        Decisions {
            committed: usize::from(committed),
            aborted: usize::from(!committed),
        }
    }
}

impl Stretch {
    /// Verifies the mounted array `a`, crashes it and verifies the next
    /// mount: same decisions, byte-identical objects, still nothing in
    /// doubt. Returns the step each shard's object holds.
    fn remount_twice(&self, a: S4Array<MemDisk>, run: &Reached, what: &str) -> Vec<usize> {
        let (states, digests) = verify(&a, &run.oids, run.done, what);
        let again = self.power_on(a.crash().unwrap());
        let (states2, digests2) = verify(&again, &run.oids, run.done, what);
        assert_eq!(states, states2, "{what}: remount flipped a decision");
        assert_eq!(
            digests, digests2,
            "{what}: remount changed recovered objects"
        );
        states
    }
}

/// Post-recovery invariant check for a run in which `done` steps
/// returned. Returns the step each shard's object holds the content of
/// — panicking on a torn transaction, a lost step that returned, or any
/// other violation — and the per-object digests, so the caller can
/// assert remount idempotence.
fn verify(
    a: &S4Array<MemDisk>,
    oids: &[ObjectId],
    done: usize,
    what: &str,
) -> (Vec<usize>, Vec<u64>) {
    let ctx = user_ctx();
    let adm = admin_ctx();
    let mut states = Vec::new();
    for (s, &oid) in oids.iter().enumerate() {
        let data = match a
            .dispatch(
                &ctx,
                &Request::Read {
                    oid,
                    offset: 0,
                    len: 64,
                    time: None,
                },
            )
            .unwrap_or_else(|e| panic!("{what}: object {oid} unreadable after crash: {e}"))
        {
            Response::Data(d) => d,
            other => panic!("unexpected response {other:?}"),
        };
        let step = (0..=STEPS)
            .find(|&k| data == content(k, s))
            .unwrap_or_else(|| panic!("{what}: object {oid} holds no step's content: {data:?}"));
        states.push(step);
    }
    // Every step that returned is durable; none past the one that was
    // running when the power went ever reached a shard.
    let reached = (done + 1).min(STEPS);
    assert!(
        states.iter().all(|&k| (done..=reached).contains(&k)),
        "{what}: per-shard steps {states:?}, {done} step(s) returned"
    );
    for t in (1..=STEPS).filter(|&t| is_txn(t)) {
        let applied = states.iter().filter(|&&k| k >= t).count();
        assert!(
            applied == 0 || applied == states.len(),
            "{what}: atomicity of the transaction at step {t} violated — per-shard steps {states:?}"
        );
    }

    let mut digests = Vec::new();
    for (s, &oid) in oids.iter().enumerate() {
        for m in 0..a.mirror_count() {
            let d = a.member_drive(s, m);
            assert!(
                d.txn_in_doubt().is_empty(),
                "{what}: shard {s} member {m} still in doubt after mount"
            );
            let records = d
                .read_audit_records(&adm)
                .unwrap_or_else(|e| panic!("{what}: shard {s} member {m} audit unreadable: {e}"));
            assert!(
                records.len() >= 2,
                "{what}: shard {s} member {m} lost its synced audit prefix"
            );
            // A note may stay only while some member still holds its
            // transaction's resolution queued — never after a mount,
            // which starts with nothing queued.
            let listed = d.op_plist(&adm, None).unwrap();
            for txid in listed.iter().filter_map(|(n, _)| s4_txn::parse_note(n)) {
                let queued = |(s, m)| a.member_drive(s, m).txn_resolution_pending(txid.0);
                let mut members =
                    (0..oids.len()).flat_map(|s| (0..a.mirror_count()).map(move |m| (s, m)));
                assert!(
                    members.any(queued),
                    "{what}: shard {s} member {m} kept the note of {txid} past every resolution"
                );
            }
            // The persisted trace stream (mixed v1/v2 after the traced
            // window) must still decode whole, and every span the
            // transaction's id vouches for must carry a protocol phase.
            // Presence is not asserted: trace durability is bounded by
            // the last flush, and the crash may predate it.
            let traces = d.read_traces(&adm).unwrap_or_else(|e| {
                panic!("{what}: shard {s} member {m} trace stream unreadable: {e}")
            });
            for t in traces.iter().filter(|t| t.trace_id == TXN_ID) {
                assert_eq!(
                    t.origin, 0,
                    "{what}: shard {s} member {m} trace span with foreign origin"
                );
                assert!(
                    [PHASE_PREPARE, PHASE_NOTE, PHASE_DECIDE].contains(&t.phase),
                    "{what}: shard {s} member {m} trace span with phase {} outside the 2PC window",
                    t.phase
                );
            }
        }
        digests.push(a.shard_drive(s).object_digest(&adm, oid).unwrap());
    }
    (states, digests)
}

/// The crash no device request marks: the whole stretch completes — the
/// second transaction resolved everywhere in memory, the first one's
/// note retired inside the second's install, the second's note left for
/// a later install — and the power goes before any participant commits
/// again, so the second transaction's resolutions are lost. Returns how
/// many shard-0 devices still hold a decision note (each is mounted
/// alone to be asked, and cut off again). The array's mount must then
/// redo the second transaction from its note, retire the note and leave
/// every object at the last step; a second crash and mount must change
/// nothing.
pub fn txn_lost_retire(s: &Stretch) -> usize {
    let (_, cut, run, died) = power_cut(s, None);
    assert!(!died && run.done == STEPS, "the stretch ran to its end");
    let mut notes_on_disk = 0;
    let mut images = Vec::new();
    for (i, dev) in cut.into_iter().enumerate() {
        if i >= s.mirrors {
            images.push(dev);
            continue;
        }
        let lone = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
        let listed = lone.op_plist(&admin_ctx(), None).unwrap();
        notes_on_disk += listed
            .iter()
            .filter(|(n, _)| s4_txn::parse_note(n).is_some())
            .count();
        images.push(lone.crash());
    }

    let a2 = s.power_on(images);
    let status = a2.txn_status_text();
    assert!(
        status.contains(" recovered_commit=1 recovered_abort=0 "),
        "the lost resolutions were not redone from the note: {status}"
    );
    s.remount_twice(a2, &run, "lost retire");
    notes_on_disk
}

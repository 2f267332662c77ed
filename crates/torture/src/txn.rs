//! Exhaustive crash-point torture for cross-shard two-phase commit
//! (DESIGN §6i).
//!
//! The coordinator's window runs: *prepare* each participant shard
//! (execute + journal-flush the yes-vote, which also satisfies the
//! batch's `Sync`), durably install the *decision note* on shard 0 —
//! the commit point — and *fan out* the decision. No participant
//! flushes its resolution: it rides the participant's next commit, and
//! the note stays until a later note install finds every resolution
//! durable. So the stretch this module runs through
//! [`S4Array::dispatch`] — the coordinator that ships — is longer than
//! one batch: a cross-shard batch, a write and a `Sync` on every shard
//! (the commit that carries the resolutions), and a second cross-shard
//! batch (whose note install retires the first note). With every member
//! device on one power rail it kills the power at **every countable
//! device request of that stretch, on every device, under every
//! torn-sector pattern**, then remounts and asserts:
//!
//! - **all-or-nothing**: after recovery, each transaction's content is
//!   on every participant object or on none, mirrors included, and every
//!   step that returned is durable;
//! - **decision convergence**: no member is left in doubt, and no
//!   decision note outlives the mount that resolved it; a live array
//!   holds only the notes whose resolutions some member still has
//!   queued;
//! - **audit integrity**: every member's tamper-evident audit log is
//!   still readable and retains the synced pre-transaction prefix;
//! - **remount idempotence**: a second crash/remount pair reaches the
//!   identical decision and byte-identical objects — mount resolution
//!   is convergent.
//!
//! A replay is a pure function of its `(device, crash point, pattern)`
//! coordinates: each one rebuilds the same array from scratch on a
//! fresh simulated clock, so campaigns are reproducible request-for-
//! request.

use std::sync::Arc;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    DriveConfig, ObjectId, Request, Response, S4Drive, TraceCtx, PHASE_DECIDE, PHASE_NOTE,
    PHASE_PREPARE,
};
use s4_simdisk::{FaultPlan, FaultyDisk, MemDisk, TornPattern};

use crate::{admin_ctx, patterns_at, standard_patterns, user_ctx, CRASH_MASK};

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

/// Parameters of one 2PC torture campaign.
#[derive(Clone, Debug)]
pub struct TxnTortureConfig {
    /// Participant shards (every one joins the transaction).
    pub shards: usize,
    /// Members per shard (1 = unmirrored).
    pub mirrors: usize,
    /// Torn-sector patterns the campaign draws from.
    pub torn_patterns: Vec<TornPattern>,
    /// Patterns replayed per crash point: `None` replays all of them,
    /// `Some(m)` cycles the set across points, m per point.
    pub patterns_per_point: Option<usize>,
    /// Cap on crash points (sampled evenly across every device's
    /// window); `None` enumerates all of them.
    pub max_crash_points: Option<usize>,
}

impl TxnTortureConfig {
    /// The bounded CI campaign: two unmirrored shards, ≤ 24 sampled
    /// crash points, one pattern per point cycling the standard mix.
    pub fn bounded() -> Self {
        TxnTortureConfig {
            shards: 2,
            mirrors: 1,
            torn_patterns: standard_patterns(),
            patterns_per_point: Some(1),
            max_crash_points: Some(24),
        }
    }

    /// The exhaustive campaign: three shards × two mirrors, every
    /// countable request on every device, two patterns per point.
    pub fn exhaustive() -> Self {
        TxnTortureConfig {
            shards: 3,
            mirrors: 2,
            torn_patterns: standard_patterns(),
            patterns_per_point: Some(2),
            max_crash_points: None,
        }
    }

    /// Replays performed per crash point.
    pub fn replays_per_point(&self) -> usize {
        patterns_at(&self.torn_patterns, self.patterns_per_point, 0).len()
    }

    fn devices(&self) -> usize {
        self.shards * self.mirrors
    }
}

/// What the golden (fault-free) protocol run established.
#[derive(Clone, Debug)]
pub struct TxnGoldenSummary {
    /// Per-device crash-point window `[start, end)`: countable request
    /// indices the 2PC window issues on that device (indices below
    /// `start` belong to the remount that precedes the protocol).
    pub windows: Vec<(u64, u64)>,
    /// Countable requests in the whole window, summed over devices —
    /// the size of one pattern's crash-point domain.
    pub points: u64,
}

/// Outcome of one crash-point replay (panics on invariant violation).
#[derive(Clone, Copy, Debug)]
pub struct TxnCrashOutcome {
    /// Device the power-loss fault was armed on.
    pub device: usize,
    /// The countable-request index the fault was armed at.
    pub crash_point: u64,
    /// Torn-sector pattern applied to the faulting write.
    pub torn: TornPattern,
    /// Whether the fault actually fired.
    pub died: bool,
    /// The step of the last transaction the run reached (1 or 3): the
    /// one whose decision `committed` reports.
    pub txn_step: usize,
    /// The decision recovery converged on for that transaction: `true`
    /// = every object holds its content, `false` = every object was
    /// rolled back.
    pub committed: bool,
}

/// Outcome of a whole campaign.
#[derive(Clone, Copy, Debug, Default)]
pub struct TxnTortureSummary {
    /// Crash points in the full domain (all devices).
    pub domain: u64,
    /// Distinct crash points replayed.
    pub crash_points: usize,
    /// Total replays (crash points × patterns per point).
    pub replays: usize,
    /// Replays in which the fault fired mid-protocol.
    pub died: usize,
    /// Replays whose last reached transaction recovered committed.
    pub committed: usize,
    /// Replays whose last reached transaction recovered rolled back.
    pub aborted: usize,
}

type Disk = FaultyDisk<MemDisk>;

struct Rig {
    array: S4Array<Disk>,
    /// Participant object of shard `s`, in shard order.
    oids: Vec<ObjectId>,
}

fn array_cfg(mirrors: usize) -> ArrayConfig {
    ArrayConfig {
        mirrors,
        ..ArrayConfig::default()
    }
}

/// Formats a fresh array, seeds one synced object per shard, then
/// remounts it with `plans[i]` armed on device `i` and every device on
/// one power rail: the instant the armed device dies the whole machine
/// is dark, and whatever the coordinator tries next — abort fan-out,
/// note scrub — reaches no platter. Faults never fire during the
/// seeding phase, and each `FaultyDisk` counter restarts at zero on the
/// remount wrapper, so crash points index the remount + protocol
/// requests only. The whole build is a pure function of `cfg` and
/// `plans`.
fn build(cfg: &TxnTortureConfig, plans: Vec<FaultPlan>) -> Rig {
    assert_eq!(plans.len(), cfg.devices());
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..cfg.devices())
        .map(|_| FaultyDisk::new(MemDisk::with_capacity_bytes(DISK_BYTES), FaultPlan::none()))
        .collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        array_cfg(cfg.mirrors),
        clock.clone(),
    )
    .unwrap();

    // One participant object per shard, with synced pre-transaction
    // content.
    let ctx = user_ctx();
    let mut oids: Vec<Option<ObjectId>> = vec![None; cfg.shards];
    while oids.iter().any(Option::is_none) {
        let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        oids[a.shard_index_of(oid)].get_or_insert(oid);
    }
    let oids: Vec<ObjectId> = oids.into_iter().map(Option::unwrap).collect();
    for (s, &oid) in oids.iter().enumerate() {
        a.dispatch(
            &ctx,
            &Request::Write {
                oid,
                offset: 0,
                data: content(0, s),
            },
        )
        .unwrap();
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();

    let rail = Arc::default();
    let devices = a
        .unmount()
        .unwrap()
        .into_iter()
        .zip(plans)
        .map(|(d, plan)| FaultyDisk::on_rail(d.into_inner(), plan, Arc::clone(&rail)))
        .collect();
    let (array, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        array_cfg(cfg.mirrors),
        clock,
    )
    .unwrap();
    Rig { array, oids }
}

/// Runs the stretch ([`STEPS`]) through the array's own dispatch. A
/// transaction is one batch with a write to every shard's object and
/// the `Sync` every translator batch ends with (§4.1.2; the vote's flush
/// stands in for it, so every crash point of that flush is a crash
/// point of the `Sync`) — `split_batch`, the held gates, `s4_txn::run`
/// and `ArrayTxn`'s abort and scrub branches included. Transactions run
/// traced (trace id = the pinned transaction id), so the shard workers
/// leave their `PHASE_PREPARE` / `PHASE_NOTE` / `PHASE_DECIDE` spans and
/// every replay also tortures the v2 trace records' crash survival
/// alongside the data they annotate. Once the armed device dies the rail
/// is dark and every later request fails. Returns how many steps
/// returned, and the first error.
fn run_protocol(rig: &Rig) -> (usize, s4_core::Result<()>) {
    let traced = user_ctx().with_trace(TraceCtx {
        trace_id: TXN_ID,
        origin: 0,
        phase: 0,
    });
    for step in 1..=STEPS {
        let writes = rig.oids.iter().enumerate().map(|(s, &oid)| Request::Write {
            oid,
            offset: 0,
            data: content(step, s),
        });
        let mut reqs = writes.chain([Request::Sync]);
        let done = if is_txn(step) {
            let batch = Request::Batch(reqs.collect());
            rig.array.dispatch(&traced, &batch).map(drop)
        } else {
            reqs.try_for_each(|req| rig.array.dispatch(&user_ctx(), &req).map(drop))
        };
        if let Err(e) = done {
            return (step - 1, Err(e));
        }
    }
    (STEPS, Ok(()))
}

/// Post-recovery invariant check for a run in which `done` steps
/// returned. Returns the step each shard's object holds the content of
/// — panicking on a torn transaction, a lost step that returned, or any
/// other violation — and the per-object digests, so the caller can
/// assert remount idempotence.
fn verify(a: &S4Array<Disk>, oids: &[ObjectId], done: usize, what: &str) -> (Vec<usize>, Vec<u64>) {
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

/// The last transaction a run in which `done` steps returned reached,
/// and whether recovery committed it, from the per-shard `states`
/// [`verify`] returned.
fn decision(done: usize, states: &[usize]) -> (usize, bool) {
    let reached = (done + 1).min(STEPS);
    let txn_step = (1..=reached).rev().find(|&t| is_txn(t)).unwrap_or(1);
    (txn_step, states[0] >= txn_step)
}

/// Runs the protocol fault-free under counting plans and returns the
/// per-device crash-point windows.
pub fn txn_golden(cfg: &TxnTortureConfig) -> TxnGoldenSummary {
    let rig = build(cfg, vec![FaultPlan::count_only(CRASH_MASK); cfg.devices()]);
    let seen = || -> Vec<u64> {
        let member = |i| rig.array.member_drive(i / cfg.mirrors, i % cfg.mirrors);
        (0..cfg.devices())
            .map(|i| member(i).log().device().requests_seen())
            .collect()
    };
    // Requests below the post-mount watermark belong to the remount,
    // not the window — the same remount replays see before their fault
    // arms, so it is excluded from the crash-point domain.
    let devices_at_mount = seen();
    let (done, result) = run_protocol(&rig);
    result.expect("golden protocol run must not fail");
    let (states, _) = verify(&rig.array, &rig.oids, done, "golden");
    assert!(states.iter().all(|&k| k == STEPS), "golden run must commit");
    // Fault-free, the array is still live and no pending tail was lost:
    // the transactions' *complete* causal span set must be present —
    // every member vouches for its own PREPARE and DECIDE, and exactly
    // the shard-0 (coordinator) members for the NOTE commit point.
    let adm = admin_ctx();
    for s in 0..cfg.shards {
        for m in 0..cfg.mirrors {
            let traces = rig.array.member_drive(s, m).read_traces(&adm).unwrap();
            let phases: Vec<u8> = traces
                .iter()
                .filter(|t| t.trace_id == TXN_ID)
                .map(|t| t.phase)
                .collect();
            assert!(
                phases.contains(&PHASE_PREPARE),
                "golden: shard {s} member {m} missing its prepare span"
            );
            assert!(
                phases.contains(&PHASE_DECIDE),
                "golden: shard {s} member {m} missing its decide span"
            );
            assert_eq!(
                phases.contains(&PHASE_NOTE),
                s == 0,
                "golden: shard {s} member {m} note span on the wrong shard"
            );
        }
    }
    let windows: Vec<(u64, u64)> = devices_at_mount.into_iter().zip(seen()).collect();
    let points = windows.iter().map(|(s, e)| e - s).sum();
    assert!(points > 0, "2PC window issued no countable requests");
    TxnGoldenSummary { windows, points }
}

/// Power comes back: revives every device and mounts the array on a
/// fresh clock, running member recovery and in-doubt resolution.
fn power_on(devices: Vec<Disk>, cfg: &TxnTortureConfig) -> S4Array<Disk> {
    devices.iter().for_each(FaultyDisk::revive);
    let (drive_cfg, array_cfg) = (DriveConfig::small_test(), array_cfg(cfg.mirrors));
    let mounted = S4Array::mount(devices, drive_cfg, array_cfg, SimClock::new());
    mounted.unwrap().0
}

/// One replay: arm a power-loss fault at countable request `k` of
/// device `victim`, run the protocol until the power dies, then crash
/// every device, revive, remount, and verify all-or-nothing recovery —
/// twice, to prove mount resolution is idempotent.
pub fn txn_torture_point(
    cfg: &TxnTortureConfig,
    victim: usize,
    k: u64,
    torn: TornPattern,
) -> TxnCrashOutcome {
    let mut plans = vec![FaultPlan::none(); cfg.devices()];
    plans[victim] = FaultPlan::power_loss_with_pattern(k, torn, CRASH_MASK);
    let rig = build(cfg, plans);
    let (done, result) = run_protocol(&rig);

    let devices = rig.array.crash().unwrap();
    let died = devices[victim].is_dead();
    if result.is_err() {
        assert!(
            died,
            "protocol failed at point {k} on device {victim} without the fault firing: {result:?}"
        );
    }
    let a2 = power_on(devices, cfg);
    let (states, digests) = verify(&a2, &rig.oids, done, "first remount");

    // Idempotence: crash the recovered array and mount again — same
    // decisions, byte-identical objects, still nothing in doubt.
    let a3 = power_on(a2.crash().unwrap(), cfg);
    let (states2, digests2) = verify(&a3, &rig.oids, done, "second remount");
    assert_eq!(states, states2, "remount flipped a decision");
    assert_eq!(digests, digests2, "remount changed recovered objects");

    let (txn_step, committed) = decision(done, &states);
    TxnCrashOutcome {
        device: victim,
        crash_point: k,
        torn,
        died,
        txn_step,
        committed,
    }
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
pub fn txn_lost_retire(cfg: &TxnTortureConfig) -> usize {
    let rig = build(cfg, vec![FaultPlan::none(); cfg.devices()]);
    let (done, result) = run_protocol(&rig);
    result.expect("fault-free protocol run must not fail");
    let mut notes_on_disk = 0;
    let mut devices = Vec::new();
    for (i, dev) in rig.array.crash().unwrap().into_iter().enumerate() {
        if i >= cfg.mirrors {
            devices.push(dev);
            continue;
        }
        let lone = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
        let listed = lone.op_plist(&admin_ctx(), None).unwrap();
        notes_on_disk += listed
            .iter()
            .filter(|(n, _)| s4_txn::parse_note(n).is_some())
            .count();
        devices.push(lone.crash());
    }

    let a2 = power_on(devices, cfg);
    let status = a2.txn_status_text();
    assert!(
        status.contains(" recovered_commit=1 recovered_abort=0 "),
        "the lost resolutions were not redone from the note: {status}"
    );
    let (states, digests) = verify(&a2, &rig.oids, done, "first remount");
    let a3 = power_on(a2.crash().unwrap(), cfg);
    let (states2, digests2) = verify(&a3, &rig.oids, done, "second remount");
    assert_eq!(states, states2, "remount flipped a decision");
    assert_eq!(digests, digests2, "remount changed recovered objects");
    notes_on_disk
}

/// A full campaign: enumerate (or evenly sample) every `(device,
/// crash point)` pair in the golden windows and replay each with the
/// configured torn patterns. Panics on any invariant violation.
pub fn txn_campaign(cfg: &TxnTortureConfig) -> TxnTortureSummary {
    let golden = txn_golden(cfg);
    // Flatten the per-device windows into one domain of (device, k)
    // coordinates, then sample it evenly if capped.
    let mut all: Vec<(usize, u64)> = Vec::new();
    for (v, &(start, end)) in golden.windows.iter().enumerate() {
        for k in start..end {
            all.push((v, k));
        }
    }
    let picked: Vec<(usize, u64)> = match cfg.max_crash_points {
        Some(cap) if cap < all.len() => {
            let step = all.len() as f64 / cap as f64;
            (0..cap).map(|i| all[(i as f64 * step) as usize]).collect()
        }
        _ => all,
    };

    let mut summary = TxnTortureSummary {
        domain: golden.points,
        crash_points: picked.len(),
        ..TxnTortureSummary::default()
    };
    for (j, &(v, k)) in picked.iter().enumerate() {
        for torn in patterns_at(&cfg.torn_patterns, cfg.patterns_per_point, j) {
            let out = txn_torture_point(cfg, v, k, torn);
            summary.replays += 1;
            summary.died += usize::from(out.died);
            summary.committed += usize::from(out.committed);
            summary.aborted += usize::from(!out.committed);
        }
    }
    summary
}

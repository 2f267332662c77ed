//! The write path under a seeded workload, one drive on the rail.
//!
//! [`WritePath`] formats a drive (its setup), runs a deterministic
//! workload (its window: xoshiro256** from `s4-workloads`, or a script)
//! and holds the recovered drive to four invariants:
//!
//! - **(a) durability**: every version the oracle saw durable at the
//!   last *completed* sync reads back at its historical time, with the
//!   exact content, size and attributes;
//! - **(b) audit prefix**: the recovered audit log is an exact prefix of
//!   the predicted record stream, trace contexts included, and every
//!   full block flushed by the last completed sync survived;
//! - **(c) idempotence**: two mounts of one image give the same
//!   [`S4Drive::state_digest`] and [`RecoveryReport`] (mount writes
//!   nothing), and the running ledger equals its recount;
//! - **(d) post-recovery retention**: a cleaner pass after recovery
//!   reclaims nothing inside the detection window.
//!
//! Each replay rebuilds its own oracle and predicted streams and takes
//! the last sync that returned `Ok` as its durability boundary; a
//! workload that ends before its cut (the control run) is flushed and
//! held to the golden bar, every object at every checkpoint.
//! [`CleanerBetween`] wedges a maintenance pass between recovery and a
//! second power-off, and [`torture_crash_during_recovery`] cuts the power
//! a second time inside recovery, which reads only. [`golden_run`] runs
//! the workload on a [`TraceDisk`], validates the oracle and the audit
//! predictor against the live drive, and pins the image's hash.

use std::ops::AddAssign;

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{
    AuditRecord, DriveConfig, ObjectId, RecoveryReport, Request, Response, S4Drive, TraceCtx,
};
use s4_lfs::BLOCK_SIZE;
use s4_simdisk::{
    BlockDev, FaultPlan, FaultyDisk, MemDisk, RequestClassMask, TornPattern, TraceDisk,
};
use s4_workloads::Rng;

use crate::oracle::Oracle;
use crate::{
    admin_ctx, power_cut, sample, standard_patterns, user_ctx, Disk, Rail, Rig, Scenario,
    CRASH_MASK,
};

/// Whole audit records per 4 KiB audit block.
const RECORDS_PER_BLOCK: usize = BLOCK_SIZE / s4_core::RECORD_BYTES;

/// Every third workload request carries a caller-stamped trace context,
/// so the recovered audit log must hold each request's trace id too.
const TRACED_EVERY: usize = 3;

/// Device size for every torture drive (sparse in memory).
const DISK_BYTES: u64 = 96 << 20;

/// The configuration of every torture drive: `small_test` with an
/// eight-entry object cache, so the workload's ninth cached object starts
/// write-back in batches (down to seven) and the power cuts land on
/// evictions, their shared checkpoint blocks and the reloads after them.
fn drive_config() -> DriveConfig {
    DriveConfig {
        object_cache_entries: 8,
        ..DriveConfig::small_test()
    }
}

/// The write-path scenario: a formatted drive (setup) runs a seeded
/// workload (the window).
#[derive(Clone, Copy, Debug)]
pub struct WritePath {
    /// PRNG seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Workload length in operations.
    pub ops: usize,
    /// What those operations are.
    pub(crate) workload: Workload,
}

/// The request stream a campaign replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Workload {
    /// The seeded mix of creates, writes, truncates, deletes, attribute
    /// changes, syncs and idle ticks.
    Mixed,
    /// A fixed script around one large write-back: 24 objects are created
    /// and written, one `Sync` makes them durable and then evicts 18 of
    /// them as one batch — whose checkpoints sit in the open log batch —
    /// three of the evicted are written again (reloaded from those
    /// unflushed checkpoints) and a second `Sync` is the flush that
    /// carries the batch; three more writes and a third `Sync` evict the
    /// reloaded ones again.
    BatchEviction,
}

/// Operation `i` of [`Workload::BatchEviction`], given the objects made
/// so far.
fn batch_eviction_op(i: usize, live: &[ObjectId]) -> Request {
    let write = |obj: usize| Request::Write {
        oid: live[obj],
        offset: 0,
        data: vec![i as u8; 100],
    };
    match i {
        0..=23 => Request::Create,
        24..=47 => write(i - 24),
        49..=51 => write(i - 49),
        53..=55 => write(i - 43),
        _ => Request::Sync,
    }
}

impl WritePath {
    /// The small workload the bounded CI campaigns cut.
    pub fn bounded(seed: u64) -> Self {
        WritePath {
            seed,
            ops: 120,
            workload: Workload::Mixed,
        }
    }

    /// The 500-op workload the exhaustive campaigns cut.
    pub fn exhaustive(seed: u64) -> Self {
        let ops = 500;
        WritePath {
            ops,
            ..Self::bounded(seed)
        }
    }

    /// The `Workload::BatchEviction` script. The first request of the
    /// flush after the eviction torn as `Prefix(0)` is the power cut
    /// that finds the batch's checkpoints still unflushed; the other
    /// points and patterns cut the flush that carries them.
    pub fn batch_eviction() -> Self {
        WritePath {
            seed: 0,
            ops: 57,
            workload: Workload::BatchEviction,
        }
    }
}

/// What the golden (fault-free) run established.
#[derive(Clone, Copy, Debug)]
pub struct GoldenSummary {
    /// Audit records the workload produces.
    pub audit_records: usize,
    /// Syncs the workload issued.
    pub syncs: usize,
    /// Device-level sync requests the workload issued (anchor barriers;
    /// the only `BlockDev::sync` call sites are superblock writes, so a
    /// workload shorter than the anchor interval has none).
    pub sync_points: u64,
    /// Objects the workload created.
    pub objects: usize,
    /// Oracle version entries validated.
    pub versions: usize,
    /// Object checkpoints the workload wrote (every one of them for an
    /// eviction: the workload neither expires nor anchors with stale
    /// entries), and the blocks that hold them.
    pub checkpoints: (u64, u64),
    /// XXH64 of the whole device image after an orderly unmount. Same
    /// requests produce the same bytes, so this is one value per
    /// `(seed, ops)` across runs and processes — the byte-level oracle
    /// for any change that claims to leave the on-disk format alone.
    pub image_hash: u64,
}

/// What a write-path check counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Versions verified readable (invariant a, run after mount and
    /// after every maintenance pass).
    pub versions_checked: usize,
    /// Recoveries that dropped a commit for a data-checksum mismatch
    /// (its summary persisted, its data did not).
    pub torn_batches: usize,
}

impl AddAssign for Checked {
    fn add_assign(&mut self, o: Checked) {
        self.versions_checked += o.versions_checked;
        self.torn_batches += o.torn_batches;
    }
}

/// Everything one workload run produced: the oracle, the predicted audit
/// stream, and the durability boundary.
#[derive(Default)]
pub struct RunState {
    oracle: Oracle,
    /// The records dispatch appends, without their layer times
    /// ([`AuditRecord::identity`]), which the workload cannot predict.
    predicted: Vec<AuditRecord>,
    /// Drive time of the last sync that returned `Ok`.
    last_ok_sync: Option<SimTime>,
    /// Predicted records audited *before* that sync executed (its own
    /// record is appended after the flush and is volatile).
    records_at_sync: usize,
    /// The value `records_at_sync` had at the last completed sync that
    /// also anchored (every `anchor_interval_syncs`-th one). An anchor
    /// carries the audit tail, so every record before it is durable;
    /// blocks stay full, record `p` in block `p / 60`, across it.
    records_at_anchor: usize,
    syncs_ok: usize,
}

/// Drives the deterministic workload against `drive`, maintaining the
/// oracle and the predicted audit stream. Stops at the first failed
/// dispatch (the injected fault; the fault-free golden run never fails).
fn run_workload<D: BlockDev>(drive: &S4Drive<D>, cfg: &WritePath) -> RunState {
    let clock = drive.clock();
    let mut rng = Rng::new(cfg.seed);
    let ctx = user_ctx();
    let mut st = RunState::default();
    // Alive objects (targets for mutations), plus their oracle state.
    let mut live: Vec<ObjectId> = Vec::new();

    for i in 0..cfg.ops {
        // Distinct mutation instants keep oracle lookups unambiguous.
        clock.advance(SimDuration::from_millis(1));
        let roll = rng.below(100);

        // Build the request; an idle tick advances time without one.
        let req = if cfg.workload == Workload::BatchEviction {
            batch_eviction_op(i, &live)
        } else if roll < 90 && live.is_empty() {
            // Nothing to mutate yet.
            Request::Create
        } else if roll < 8 {
            Request::Create
        } else if roll < 48 {
            let oid = live[rng.index(live.len())];
            let offset = rng.below(12_000);
            let len = rng.range(1, 6_000) as usize;
            let fill = rng.below(256) as u8;
            let data = vec![fill; len];
            Request::Write { oid, offset, data }
        } else if roll < 58 {
            let oid = live[rng.index(live.len())];
            let len = rng.below(12_000);
            Request::Truncate { oid, len }
        } else if roll < 64 && live.len() > 1 {
            let oid = live[rng.index(live.len())];
            Request::Delete { oid }
        } else if roll < 64 {
            Request::Sync
        } else if roll < 72 {
            let oid = live[rng.index(live.len())];
            let attrs = vec![rng.below(256) as u8];
            Request::SetAttr { oid, attrs }
        } else if roll < 87 {
            Request::Sync
        } else {
            clock.advance(SimDuration::from_millis(rng.range(1, 400)));
            st.oracle.checkpoints.push(drive.now());
            continue;
        };

        // Every TRACED_EVERY-th request opts into tracing (a stamped
        // entry-point context, as the array router or a transport would
        // provide). The id is a deterministic function of the stream
        // position.
        let stamped = st.predicted.len().is_multiple_of(TRACED_EVERY);
        let trace_id = if stamped {
            st.predicted.len() as u64 + 1
        } else {
            0
        };
        let trace = TraceCtx {
            trace_id,
            ..TraceCtx::default()
        };
        let result = drive.dispatch(&ctx.with_trace(trace), &req);

        // Predict the audit record dispatch just appended (same
        // construction as `S4Drive::dispatch`; CPU is free in
        // `small_test`, so `now()` is unchanged by the op itself).
        let object = match &result {
            Ok(Response::Created(oid)) => *oid,
            _ => req.target(),
        };
        let (arg1, arg2) = req.audit_args();
        st.predicted.push(AuditRecord {
            time: drive.now(),
            user: ctx.user,
            client: ctx.client,
            op: req.op_kind(),
            ok: result.is_ok(),
            object,
            arg1,
            arg2,
            trace,
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        });

        // A failed dispatch is the injected fault: the drive is dying.
        let Ok(resp) = result else { break };

        // Mirror the mutation into the oracle.
        let now = drive.now();
        match (&req, &resp) {
            (Request::Create, Response::Created(oid)) => {
                live.push(*oid);
                st.oracle.create(*oid, now);
            }
            (Request::Write { oid, offset, data }, _) => st.oracle.write(*oid, now, *offset, data),
            (Request::Truncate { oid, len }, _) => st.oracle.truncate(*oid, now, *len),
            (Request::Delete { oid }, _) => {
                st.oracle.delete(*oid, now);
                live.retain(|l| l != oid);
            }
            (Request::SetAttr { oid, attrs }, _) => st.oracle.set_attr(*oid, now, attrs),
            (Request::Sync, _) => {
                st.last_ok_sync = Some(now);
                // The sync's own record (just pushed) is post-flush.
                st.records_at_sync = st.predicted.len() - 1;
                st.syncs_ok += 1;
                let interval = drive_config().anchor_interval_syncs as usize;
                if st.syncs_ok.is_multiple_of(interval) {
                    st.records_at_anchor = st.records_at_sync;
                }
            }
            _ => unreachable!("workload issues no other requests"),
        }
        st.oracle.checkpoints.push(now);
    }
    st
}

/// Invariant (b): the recovered audit log must be an exact prefix of the
/// predicted stream — identity and trace context of every request, in
/// dispatch order — and at least every record in a full block flushed
/// by the last completed sync must have survived.
fn verify_audit_prefix(recovered: &[AuditRecord], st: &RunState, what: &str) {
    assert!(
        recovered.len() <= st.predicted.len(),
        "{what}: recovered {} audit records, predicted only {}",
        recovered.len(),
        st.predicted.len()
    );
    for (i, (got, want)) in recovered.iter().zip(&st.predicted).enumerate() {
        assert_eq!(
            got.identity(),
            *want,
            "{what}: audit record {i} diverged (hole or reordering)"
        );
    }
    let min_durable = if st.last_ok_sync.is_some() {
        let in_full_blocks = st.records_at_sync / RECORDS_PER_BLOCK * RECORDS_PER_BLOCK;
        st.records_at_anchor.max(in_full_blocks)
    } else {
        0
    };
    assert!(
        recovered.len() >= min_durable,
        "{what}: only {} audit records recovered; {} were in full blocks \
         flushed by the last completed sync",
        recovered.len(),
        min_durable
    );
}

/// Runs the workload fault-free on a traced device and validates the
/// oracle and the audit predictor against the live drive.
pub fn golden_run(cfg: &WritePath) -> GoldenSummary {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let dev = TraceDisk::new(MemDisk::with_capacity_bytes(DISK_BYTES));
    let trace = dev.handle();
    let drive = S4Drive::format(dev, drive_config(), clock).expect("golden: format failed");
    let format_syncs = trace.syncs();
    let st = run_workload(&drive, cfg);
    let failed = st.predicted.iter().any(|r| !r.ok);
    assert!(!failed, "golden: a fault-free dispatch failed");
    let sync_points = trace.syncs() - format_syncs;

    // Validate the oracle and predictor against the live drive.
    drive.op_sync(&user_ctx()).expect("golden: final sync");
    let versions = st.oracle.verify_full(&drive, "golden");
    let recovered = drive
        .read_audit_records(&admin_ctx())
        .expect("golden: audit read");
    assert_eq!(
        recovered.len(),
        st.predicted.len(),
        "golden: audit log incomplete on a fault-free run"
    );
    verify_audit_prefix(&recovered, &st, "golden");

    let stats = drive.stats().snapshot();
    let dev = drive.unmount().expect("golden: unmount").into_inner();
    let mut image = vec![0u8; dev.capacity_bytes() as usize];
    dev.read(0, &mut image).expect("golden: image read");

    GoldenSummary {
        audit_records: st.predicted.len(),
        syncs: st.syncs_ok,
        sync_points,
        objects: st.oracle.objects(),
        versions,
        checkpoints: (stats.checkpoints, stats.checkpoint_blocks),
        image_hash: s4_lfs::crc::xxh64(&image),
    }
}

/// The write path's drive: a workload that ran to its end is flushed, as
/// the golden run's is, before the power goes (a dead rail refuses the
/// flush).
pub struct Flushing(S4Drive<Disk>);

impl Rig for Flushing {
    fn requests_seen(&self) -> Vec<u64> {
        self.0.requests_seen()
    }

    fn crash(self) -> Vec<Disk> {
        let _ = self.0.op_sync(&user_ctx());
        Rig::crash(self.0)
    }
}

impl Scenario for WritePath {
    type Rig = Flushing;
    type Run = RunState;
    type Tally = Checked;

    fn devices(&self) -> usize {
        1
    }

    fn setup(&self, rail: &Rail) -> Flushing {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let dev = rail.plug(MemDisk::with_capacity_bytes(DISK_BYTES));
        Flushing(S4Drive::format(dev, drive_config(), clock).expect("format"))
    }

    fn run(&self, rig: &Flushing) -> RunState {
        run_workload(&rig.0, self)
    }

    /// Mount → remount → versions → streams → clean → versions.
    fn check(&self, images: Vec<MemDisk>, st: &RunState, died: bool, what: &str) -> Checked {
        let c = Crashed { what, st, died };
        let (d1, report) = mount(one(images), what, "recovery");
        let (d2, _) = c.check_remount(d1, Some(&report), "second recovery");
        // Only the one commit in flight when power died can be torn.
        assert!(
            report.torn_batches <= 1,
            "{what}: recovery dropped {} checksum-mismatched batches",
            report.torn_batches
        );
        assert!(report.recovered_objects >= 1, "{what}: no partition object");
        // Sanity: recovery must not invent mutations from the future.
        if let Some(&last_t) = st.oracle.checkpoints.last() {
            assert!(
                report.max_recovered_stamp.time <= last_t,
                "{what}: recovered stamp {} past the last issued op at {last_t}",
                report.max_recovered_stamp.time
            );
        }

        let mut versions_checked = c.check_versions(&d2);
        c.check_audit(&d2);
        // Invariant (d): a cleaner pass must reclaim nothing inside the
        // detection window (the workload spans seconds; the window is an
        // hour) — every durable version must still read back.
        d2.clean()
            .unwrap_or_else(|e| panic!("{what}: post-recovery clean failed: {e:?}"));
        versions_checked += c.check_versions(&d2);
        Checked {
            versions_checked,
            torn_batches: report.torn_batches,
        }
    }
}

/// The write path with a full maintenance pass — cleaner, history
/// compaction, and a forced anchor — wedged between the post-crash
/// recovery and a second power-off/remount cycle. The cleaner must
/// reclaim nothing inside the detection window even when it runs on
/// freshly recovered (possibly torn-tail) state, and the compacted,
/// re-anchored image must remount to the identical drive.
#[derive(Clone, Copy, Debug)]
pub struct CleanerBetween(pub WritePath);

impl Scenario for CleanerBetween {
    type Rig = Flushing;
    type Run = RunState;
    type Tally = Checked;

    fn devices(&self) -> usize {
        1
    }

    fn setup(&self, rail: &Rail) -> Flushing {
        self.0.setup(rail)
    }

    fn run(&self, rig: &Flushing) -> RunState {
        self.0.run(rig)
    }

    fn check(&self, images: Vec<MemDisk>, st: &RunState, died: bool, what: &str) -> Checked {
        let c = Crashed { what, st, died };
        let (d1, report) = mount(one(images), what, "recovery");

        // Invariants (a) and (b) hold right after recovery…
        let mut versions_checked = c.check_versions(&d1);
        c.check_audit(&d1);

        // …then the maintenance pass runs on the recovered state…
        d1.clean()
            .unwrap_or_else(|e| panic!("{what}: cleaner failed on recovered state: {e:?}"));
        d1.compact_history()
            .unwrap_or_else(|e| panic!("{what}: compaction failed on recovered state: {e:?}"));
        d1.force_anchor()
            .unwrap_or_else(|e| panic!("{what}: anchor failed after maintenance: {e:?}"));

        // …and must not have eaten anything inside the window.
        versions_checked += c.check_versions(&d1);

        // Second power-off. The anchor committed everything, so the cleaned
        // and compacted image must remount to the identical logical state,
        // idempotently.
        let (d2, report2) = c.check_remount(d1, None, "remount after maintenance");
        let (d3, _) = c.check_remount(d2, Some(&report2), "third recovery");

        // Durability and stream-prefix integrity survive the whole gauntlet.
        versions_checked += c.check_versions(&d3);
        c.check_audit(&d3);
        Checked {
            versions_checked,
            torn_batches: report.torn_batches,
        }
    }
}

/// The one image of a one-drive scenario.
fn one(images: Vec<MemDisk>) -> MemDisk {
    images.into_iter().next().expect("one device")
}

/// A workload run to its power cut, as every later mount of the image
/// is checked against it.
struct Crashed<'a> {
    /// Labels failures: the cut and its pattern.
    what: &'a str,
    st: &'a RunState,
    /// Whether the power went during the workload (false = the workload
    /// completed and was flushed).
    died: bool,
}

/// Mounts `dev` on a fresh clock. Recovery must always succeed — there
/// is always at least the format-time anchor to fall back to.
fn mount<D: BlockDev>(dev: D, what: &str, stage: &str) -> (S4Drive<D>, RecoveryReport) {
    S4Drive::mount_with_report(dev, drive_config(), SimClock::new())
        .unwrap_or_else(|e| panic!("{what}: {stage} failed: {e:?}"))
}

impl Crashed<'_> {
    /// Invariants (a) and (d), against the durability boundary: the last
    /// sync that completed before the crash. If the power never went,
    /// the workload completed — hold the replay to the golden bar
    /// instead (everything readable). Returns the version checks
    /// performed.
    fn check_versions<D: BlockDev>(&self, drive: &S4Drive<D>) -> usize {
        if !self.died {
            return self.st.oracle.verify_full(drive, self.what);
        }
        match self.st.last_ok_sync {
            Some(boundary) => self.st.oracle.verify_durable(drive, boundary, self.what),
            None => 0,
        }
    }

    /// Invariant (b): the whole audit log is an exact prefix of the
    /// predicted request stream.
    fn check_audit<D: BlockDev>(&self, drive: &S4Drive<D>) {
        let what = self.what;
        let recovered = drive
            .read_log_from(&admin_ctx(), &mut 0)
            .unwrap_or_else(|e| panic!("{what}: audit read failed: {e:?}"));
        verify_audit_prefix(&recovered, self.st, what);
    }

    /// Invariant (c): journal replay is idempotent, space accounting
    /// included. Powers `drive` off and mounts its image again: the
    /// ledger it ran on must equal its recount and every segment's live
    /// count the ledger's addresses in it
    /// ([`S4Drive::check_image`]), the state digest must not move, and
    /// — mount writes nothing — a second mount of one image must repeat
    /// the `report` of the first (`None` when `drive` has written since
    /// it was mounted). Returns the new mount.
    fn check_remount<D: BlockDev>(
        &self,
        drive: S4Drive<D>,
        report: Option<&RecoveryReport>,
        stage: &str,
    ) -> (S4Drive<D>, RecoveryReport) {
        let what = self.what;
        let digest = drive.state_digest();
        // The ledger this mount has been running on must be the one the
        // next mount is about to derive, and must have refused no release.
        let audit = drive.check_image();
        assert!(
            matches!(&audit, Ok((found, segments, 0)) if found.is_empty() && segments.is_empty()),
            "{what}: space accounting differs from its recount, or refused a release, before {stage}: {audit:?}"
        );
        let (again, report2) = mount(drive.crash(), what, stage);
        assert_eq!(
            digest,
            again.state_digest(),
            "{what}: {stage} not idempotent — state digests differ"
        );
        if let Some(report) = report {
            assert_eq!(
                *report, report2,
                "{what}: {stage} not idempotent — recovery reports differ"
            );
        }
        (again, report2)
    }
}

/// Outcome of one crash-during-recovery probe (panics on violation).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryCrashOutcome {
    /// Whether the first fault fired.
    pub died: bool,
    /// Device requests the undisturbed recovery issues — the domain the
    /// second crash is sampled from.
    pub recovery_requests: u64,
    /// Device writes issued by recovery (must be zero: recovery is
    /// read-only, which is what makes a crash inside it harmless).
    pub recovery_writes: u64,
    /// Second-crash points replayed.
    pub second_replays: usize,
    /// Replays in which the second fault aborted the mount.
    pub second_died: usize,
    /// Versions verified readable across all double-crash recoveries.
    pub versions_checked: usize,
}

/// Crashes the workload at countable request `k`, then enumerates a
/// second power loss at (sampled) device-request points *inside the
/// recovery replay itself*. After each interrupted recovery the image
/// is remounted again; the result must be byte-identical to the
/// undisturbed recovery (same state digest, same [`RecoveryReport`]),
/// remain idempotent across a further remount, and hold the durability,
/// audit-prefix, trace-prefix, and post-cleaner invariants.
///
/// The probe first proves recovery performs **zero** device writes, so
/// an interrupted recovery leaves the image bit-for-bit unchanged —
/// replaying the second crash is then exactly "remount the same image".
pub fn torture_crash_during_recovery(
    cfg: &WritePath,
    k: u64,
    torn: TornPattern,
    max_second_points: Option<usize>,
) -> RecoveryCrashOutcome {
    let (_, images, st, died) = power_cut(cfg, Some((0, k, torn)));
    let what = &format!("recovery-crash@{k}/{torn:?}");
    let c = Crashed {
        what,
        st: &st,
        died,
    };
    let image = one(images);

    // Undisturbed recovery: the baseline every interrupted recovery must
    // reproduce. Its trace measures the second-crash domain and proves
    // recovery writes nothing.
    let traced = TraceDisk::new(image.clone());
    let trace = traced.handle();
    let (baseline, base_report) = mount(traced, what, "baseline recovery");
    let base_digest = baseline.state_digest();
    let recovery_requests = trace.countable(RequestClassMask::ALL);
    let recovery_writes = trace.countable(CRASH_MASK);
    assert_eq!(
        recovery_writes, 0,
        "{what}: recovery wrote to the device — a crash inside it is no longer harmless"
    );

    let mut second_replays = 0;
    let mut second_died = 0;
    let mut versions_checked = 0;
    for r in sample(recovery_requests, max_second_points) {
        second_replays += 1;
        let wrapped = FaultyDisk::new(
            image.clone(),
            FaultPlan::power_loss_after_requests(r, RequestClassMask::ALL),
        );
        match S4Drive::mount_with_report(wrapped, drive_config(), SimClock::new()) {
            Err(_) => second_died += 1,
            Ok((d, rep)) => {
                // Tolerable only if the interrupted recovery still
                // reproduced the undisturbed result exactly.
                assert_eq!(
                    d.state_digest(),
                    base_digest,
                    "{what}@r{r}: recovery survived its fault with different state"
                );
                assert_eq!(rep, base_report, "{what}@r{r}: reports diverged");
            }
        }

        // Reboot after the second crash: recovery wrote nothing (proved
        // above), so the pre-crash image *is* the post-crash image.
        let (d2, rep2) = mount(image.clone(), what, &format!("double-crash recovery @r{r}"));
        assert_eq!(
            d2.state_digest(),
            base_digest,
            "{what}@r{r}: double-crash recovery diverged from the undisturbed one"
        );
        assert_eq!(
            rep2, base_report,
            "{what}@r{r}: double-crash report diverged"
        );

        // Idempotence still holds after the double crash.
        let (d3, _) = c.check_remount(d2, Some(&base_report), &format!("third recovery @r{r}"));

        // Durability, audit-prefix, trace-prefix, and post-cleaner
        // retention — the same bar as a single crash.
        versions_checked += c.check_versions(&d3);
        c.check_audit(&d3);
        d3.clean()
            .unwrap_or_else(|e| panic!("{what}@r{r}: post-recovery clean failed: {e:?}"));
        versions_checked += c.check_versions(&d3);
    }

    RecoveryCrashOutcome {
        died: c.died,
        recovery_requests,
        recovery_writes,
        second_replays,
        second_died,
        versions_checked,
    }
}

/// Outcome of a crash-during-recovery campaign.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoverySummary {
    /// First-crash points probed.
    pub first_points: usize,
    /// Total second-crash replays across all first points.
    pub second_replays: usize,
    /// Second faults that aborted the mount.
    pub second_died: usize,
    /// Total device requests across all undisturbed recoveries.
    pub recovery_requests: u64,
    /// Versions verified readable across all double-crash recoveries.
    pub versions_checked: usize,
}

/// Crash-during-recovery campaign: probes `first_points` workload crash
/// points spread across the window (rotating through the torn
/// patterns), and at each enumerates up to `second_per_point` second
/// crashes inside the recovery replay.
pub fn enumerate_recovery_crashes(
    cfg: &WritePath,
    first_points: usize,
    second_per_point: Option<usize>,
) -> RecoverySummary {
    let (start, end) = crate::windows(cfg)[0];
    assert!(end > start, "workload issued no countable requests");
    let n = first_points.max(1).min((end - start) as usize);
    let patterns = standard_patterns();
    let mut summary = RecoverySummary::default();
    for j in 0..n {
        // Midpoints of n equal slices of the window.
        let k = start + (end - start) * (2 * j as u64 + 1) / (2 * n as u64);
        let torn = patterns[j % patterns.len()];
        let o = torture_crash_during_recovery(cfg, k, torn, second_per_point);
        summary.first_points += 1;
        summary.second_replays += o.second_replays;
        summary.second_died += o.second_died;
        summary.recovery_requests += o.recovery_requests;
        summary.versions_checked += o.versions_checked;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay, windows};

    #[test]
    fn golden_run_is_self_consistent() {
        let g = golden_run(&WritePath::bounded(0xB0A710AD));
        assert!(g.objects >= 1);
        assert!(g.audit_records >= 100, "every op but ticks is audited");
        assert!(g.syncs >= 1, "workload must sync at least once");
    }

    /// The device image is a pure function of the request stream: two
    /// runs agree with each other and with the committed constant. A
    /// change that moves this value changed the on-disk bytes (or made
    /// them depend on something other than the requests) and must say so.
    /// (Format revision 8: the superblock's revision field, sector-list
    /// entries without their oldest stamp, metadata without its journal
    /// head, evicted anchor records without a floor, and a usage table
    /// without live counts.)
    #[test]
    fn golden_image_is_one_value_across_runs() {
        const GOLDEN_IMAGE_HASH: u64 = 0x1973_5b79_f634_142a;
        let cfg = WritePath::bounded(0xB0A710AD);
        let (a, b) = (golden_run(&cfg), golden_run(&cfg));
        assert_eq!(a.image_hash, b.image_hash, "two runs, two images");
        assert_eq!(
            a.image_hash, GOLDEN_IMAGE_HASH,
            "golden image changed: {:#018x}",
            a.image_hash
        );
    }

    /// Single cuts with real state at risk: mid-window, and late where
    /// multi-sector segment writes are in flight, torn as a prefix,
    /// interleaved and holed.
    #[test]
    fn single_crash_points_hold_invariants() {
        for (seed, (num, den), torn) in [
            (0xB0A710AD, (1, 2), TornPattern::Prefix(0)),
            (0x5EED, (3, 4), TornPattern::Prefix(4)),
            (0xB0A710AD, (2, 3), TornPattern::Interleaved { phase: 0 }),
            (0xB0A710AD, (2, 3), TornPattern::Holed { start: 2, len: 4 }),
        ] {
            let cfg = WritePath::bounded(seed);
            let (start, end) = windows(&cfg)[0];
            let k = start + (end - start) * num / den;
            assert!(replay(&cfg, 0, k, torn).died, "{seed:#x}@{k} {torn:?}");
        }
    }

    /// A fault armed past the workload never fires: the run is flushed
    /// like the golden run, the power goes off anyway, and every
    /// campaign holds the recovered drive to the golden bar — every
    /// object at every checkpoint, twice or more.
    #[test]
    fn unfired_fault_is_held_to_the_golden_bar() {
        let cfg = WritePath::bounded(0xB0A710AD);
        let g = golden_run(&cfg);
        let (k, torn) = (windows(&cfg)[0].1 + 50, TornPattern::Prefix(0));
        let plain = replay(&cfg, 0, k, torn);
        assert!(!plain.died);
        assert_eq!(plain.tally.versions_checked, 2 * g.versions);
        let cleaned = replay(&CleanerBetween(cfg), 0, k, torn);
        assert!(!cleaned.died);
        assert_eq!(cleaned.tally.versions_checked, 3 * g.versions);
        let twice = torture_crash_during_recovery(&cfg, k, torn, Some(2));
        let rounds = twice.second_replays;
        assert!(!twice.died);
        assert_eq!(twice.versions_checked, rounds * 2 * g.versions);
    }
}

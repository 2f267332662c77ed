//! [`S4Drive`]: the self-securing storage server.
//!
//! The drive composes the substrates: every object mutation appends data
//! blocks and a journal entry; sync packs entries into per-object journal
//! sectors — several objects' sectors share each 4 KiB journal block, as
//! the paper's 512-byte journal sectors share segments — and flushes the
//! log as one sequential batch. Periodic *anchors* persist the object
//! map (checkpoint locations plus each object's sector list); object
//! metadata checkpoints are written only when an object is evicted from
//! the object cache or when a cleaner relocation rewrote state the
//! journal cannot re-derive. The expiry scan walks the object map
//! releasing versions older than the detection window, and the cleaner
//! reclaims segments, rewriting every pointer to each block it moves.
//!
//! Crash recovery (mount) reloads the anchored object map, re-applies
//! journal sectors newer than each checkpoint and every journal block
//! flushed after the anchor, then derives the ledger of reachable blocks
//! (and from it the segment usage counts) from the recovered table.
//!
//! This file holds the configuration, the drive's state (`Inner`, behind
//! one mutex), the format/mount entry points, the accessors, and the
//! helpers every operation is built from (`with_object`, `commit`,
//! `converge`, `version_for`, the extent read/write path). The
//! operations are further `impl S4Drive` blocks in `ops`, `image`,
//! `expiry`, `persist`, `txn`, `recovery` and `reserved`, each
//! beside the state it works on; DESIGN §5 has the module map.

use std::collections::BTreeMap;

use s4_clock::sync::Mutex;

use s4_clock::{CpuModel, HybridClock, HybridTimestamp, SimClock, SimDuration, SimTime};
use s4_journal::txn::TxnRecord;
use s4_journal::JournalEntry::{Truncate, Write};
use s4_journal::{redo, JournalEntry, ObjectMeta, PtrChange, UndoWalk, MAX_PTR_CHANGES};
use s4_lfs::{BlockAddr, BlockKind, BlockTag, Cleaner, CleanerConfig, Log, LogConfig, BLOCK_SIZE};
use s4_obs::{Gauge, Histogram, Registry};
use s4_simdisk::BlockDev;

use crate::acl::{AclTable, Perm};
use crate::audit::{AuditRecord, OpKind};
use crate::ids::{ObjectId, RequestContext};
use crate::ledger::Ledger;
use crate::object::{ObjectEntry, Slot};
use crate::packed;
use crate::persist::{read_checkpoint, read_subsector};
use crate::reserved::ReservedLog;
use crate::stats::DriveStats;
use crate::throttle::{ThrottleConfig, ThrottleState};
use crate::txn::TxnPending;
use crate::{Result, S4Error};

pub use crate::image::{ResyncImage, ResyncObject};
pub use crate::recovery::RecoveryReport;

/// The reserved audit-log object (§4.2.3): writable only by the drive
/// front end, not versioned.
pub const AUDIT_OBJECT: ObjectId = ObjectId(1);

/// The reserved named-object (partition) table (§4.1): "implemented as a
/// special S4 object accessed through dedicated partition manipulation
/// RPC calls ... versioned in the same manner as other objects".
pub const PARTITION_OBJECT: ObjectId = ObjectId(2);

/// The reserved per-drive transaction log for cross-shard two-phase
/// commit: participants persist `Prepared`/`Touched`/`Resolved` records
/// here ([`s4_journal::txn`]). Unlike the audit stream (whose
/// volatile tail is only anchor-durable), this is a **real
/// journaled table object** — a record followed by a sync is durable at
/// that sync, which is exactly the commit-point discipline 2PC needs —
/// and its pending entries are packed ahead of every other object's, so
/// no commit carries a transaction's effects without its records.
/// Created lazily on a drive's first transaction; truncated to zero
/// whenever no transaction is pending. A high sentinel id rather than
/// the next small integer so the dynamic oid space (which grows without
/// bound) can never collide with it.
pub(crate) const TXN_OBJECT: ObjectId = ObjectId(u64::MAX - 4);

/// The first id a client's object gets. Id 3 is unused: it held the alert
/// stream until format revision 6 filed alerts in the audit log.
const FIRST_DYNAMIC_OID: u64 = 4;

impl ObjectId {
    /// Whether this is one of the reserved objects above. Each drive —
    /// each shard of an array — keeps its own, only the drive writes
    /// them, and no client request may name one.
    pub fn is_reserved(self) -> bool {
        matches!(self, AUDIT_OBJECT | PARTITION_OBJECT | TXN_OBJECT)
    }
}

/// Drive configuration.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig {
    /// Log layout and buffer-cache size.
    pub log: LogConfig,
    /// Maximum objects kept fully in memory (the paper's 32 MB object
    /// cache); past it, a sync or an expiry pass checkpoints and evicts
    /// the least recently used down to seven eighths of it, as one batch.
    pub object_cache_entries: usize,
    /// Guaranteed detection window (adjustable later via `SetWindow`).
    pub detection_window: SimDuration,
    /// Whether to record audit records (Figure 6 toggles this).
    pub audit_enabled: bool,
    /// Write an anchor every this many syncs.
    pub anchor_interval_syncs: u32,
    /// Server CPU cost model.
    pub cpu: CpuModel,
    /// History-pool abuse throttling.
    pub throttle: ThrottleConfig,
    /// Secret required for administrative commands (§3.5).
    pub admin_token: u64,
    /// Cleaner tuning.
    pub cleaner: CleanerConfig,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            log: LogConfig::default(),
            object_cache_entries: 1 << 20,
            detection_window: SimDuration::from_days(7),
            audit_enabled: true,
            anchor_interval_syncs: 2048,
            cpu: CpuModel::pentium3_600(),
            throttle: ThrottleConfig::default(),
            admin_token: 0x5345_4355_5245_5334, // "SECURES4"
            cleaner: CleanerConfig::default(),
        }
    }
}

impl DriveConfig {
    /// A small, fast configuration for unit tests: tiny segments, free
    /// CPU, tiny caches, frequent anchors.
    pub fn small_test() -> Self {
        DriveConfig {
            log: LogConfig {
                blocks_per_segment: 16,
                cache_blocks: 256,
                readahead_blocks: 1,
            },
            detection_window: SimDuration::from_secs(3600),
            anchor_interval_syncs: 64,
            cpu: CpuModel::free(),
            throttle: ThrottleConfig::disabled(),
            admin_token: 42,
            ..DriveConfig::default()
        }
    }
}

/// Attributes returned by `GetAttr` (the S4-specific part plus the opaque
/// client blob).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectAttrs {
    /// Object size in bytes.
    pub size: u64,
    /// Creation time.
    pub created: SimTime,
    /// Last-modification time (of the version being inspected).
    pub modified: SimTime,
    /// Deletion time, if the version is a deleted tombstone.
    pub deleted: Option<SimTime>,
    /// The opaque attribute blob maintained by client file systems.
    pub opaque: Vec<u8>,
}

/// The kind of mutation behind one retained version (see
/// [`S4Drive::version_history`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum VersionKind {
    Create,
    Write,
    Truncate,
    SetAttr,
    SetAcl,
    Delete,
    /// Transaction-abort compensation cancelling a mid-transaction
    /// deletion (drive-originated, not a client mutation).
    Revive,
}

/// One entry of an object's tamper/version timeline, derived from the
/// journal history the drive itself retains — ground truth a client-side
/// intruder cannot rewrite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionRecord {
    /// Version stamp of the mutation.
    pub stamp: HybridTimestamp,
    /// What kind of mutation produced this version.
    pub kind: VersionKind,
    /// Object size after the mutation, where the journal records it.
    pub size_after: Option<u64>,
}

impl VersionRecord {
    pub(crate) fn from_entry(e: &JournalEntry) -> VersionRecord {
        let (kind, size_after) = match e {
            JournalEntry::Create { .. } => (VersionKind::Create, Some(0)),
            JournalEntry::Delete { .. } => (VersionKind::Delete, None),
            JournalEntry::Write { new_size, .. } => (VersionKind::Write, Some(*new_size)),
            JournalEntry::Truncate { new_size, .. } => (VersionKind::Truncate, Some(*new_size)),
            JournalEntry::SetAttr { .. } => (VersionKind::SetAttr, None),
            JournalEntry::SetAcl { .. } => (VersionKind::SetAcl, None),
            JournalEntry::Revive { .. } => (VersionKind::Revive, None),
        };
        VersionRecord {
            stamp: e.stamp(),
            kind,
            size_after,
        }
    }
}

pub(crate) struct Inner {
    pub(crate) table: BTreeMap<u64, Slot>,
    pub(crate) next_oid: u64,
    pub(crate) window: SimDuration,
    /// The audit log (see [`crate::reserved`]).
    pub(crate) audit: ReservedLog,
    /// Every reachable block (current data, in-window history, journal
    /// blocks, checkpoints, deltas, stream blocks) and the references
    /// holding it. Derived from the rest of this state at mount.
    pub(crate) ledger: Ledger,
    /// Per object, superseded blocks moved (old → new) that its sectors
    /// still name, until [`S4Drive::rewrite_history`].
    pub(crate) moved: BTreeMap<u64, BTreeMap<BlockAddr, BlockAddr>>,
    throttle: ThrottleState,
    pub(crate) syncs_since_anchor: u32,
    lru: u64,
    /// Unresolved (prepared, not yet committed/aborted) cross-shard
    /// transactions this drive participates in, keyed by txid. Rebuilt
    /// from [`TXN_OBJECT`] at mount. `BTreeMap` for deterministic
    /// digest iteration.
    pub(crate) txn_pending: BTreeMap<u64, TxnPending>,
    /// Objects pinned by an in-flight transaction (oid → txid): the
    /// dispatcher rejects outside mutations so abort compensation can
    /// restore the pre-transaction version without clobbering anyone.
    pub(crate) txn_locks: BTreeMap<u64, u64>,
    /// Transaction-log records not yet in a commit that has returned, in
    /// the order they happened: `(record, appended)`. Whatever packs any
    /// object's journal entries appends the unappended ones to the log
    /// first, in one write, and so do a vote, an orderly unmount, an
    /// array mount's settle and a resync export; the next sync's flush
    /// makes them durable and drops them (DESIGN §6i).
    pub(crate) txn_queue: Vec<(TxnRecord, bool)>,
}

/// An online detector fed every freshly appended request's audit record
/// (the `s4-detect` crate provides implementations). Runs inside the
/// drive's security perimeter: the alerts it returns are filed in the
/// audit log, which clients cannot write.
pub trait AuditObserver: Send {
    /// Called after each audited request; returns the alerts' records
    /// ([`AuditRecord::alert`]) to file after it (empty when the record
    /// is unremarkable). A returned record that is no alert is dropped.
    fn on_record(&mut self, rec: &AuditRecord) -> Vec<AuditRecord>;
}

/// Per-drive observability state: the metrics registry every layer
/// reports into and the hot-path latency histograms (each request's
/// times are persisted in its audit record).
pub(crate) struct DriveObs {
    registry: Registry,
    rpc_hist: Histogram,
    journal_hist: Histogram,
    lfs_hist: Histogram,
    disk_hist: Histogram,
    gauges: Gauges,
}

/// The operational gauges the paper's admin story cares about (§3.6,
/// §5) — history-pool occupancy, detection-window headroom, journal
/// depth, the reserved-object sizes — registered once here and set by
/// [`S4Drive::refresh_gauges`].
struct Gauges {
    history_pool_occupancy: Gauge,
    free_segments: Gauge,
    journal_depth: Gauge,
    audit_object_blocks: Gauge,
    objects: Gauge,
    detection_window_days: Gauge,
    write_mb_per_day: Gauge,
    detection_window_headroom_days: Gauge,
    block_cache_hits: Gauge,
    block_cache_misses: Gauge,
}

impl Gauges {
    fn new(r: &Registry) -> Gauges {
        Gauges {
            history_pool_occupancy: r.gauge(
                "s4_history_pool_occupancy",
                "fraction of data-area blocks referenced (current + history)",
            ),
            free_segments: r.gauge("s4_free_segments", "free log segments remaining"),
            journal_depth: r.gauge(
                "s4_journal_depth",
                "journal entries pending (not yet packed) across cached objects",
            ),
            audit_object_blocks: r.gauge("s4_audit_object_blocks", "flushed audit-log blocks"),
            objects: r.gauge("s4_objects", "objects in the drive's object table"),
            detection_window_days: r.gauge(
                "s4_detection_window_days",
                "configured guaranteed detection window, days",
            ),
            write_mb_per_day: r.gauge(
                "s4_write_mb_per_day",
                "observed object write rate, MB per simulated day",
            ),
            detection_window_headroom_days: r.gauge(
                "s4_detection_window_headroom_days",
                "days the free history pool lasts at the observed write rate (space_factor 1.0)",
            ),
            block_cache_hits: r.gauge(
                "s4_block_cache_hits",
                "block reads the block cache served since mount",
            ),
            block_cache_misses: r.gauge(
                "s4_block_cache_misses",
                "block reads that missed the block cache and went to the device since mount",
            ),
        }
    }
}

impl DriveObs {
    fn new() -> DriveObs {
        let registry = Registry::new();
        let rpc_hist = registry.histogram(
            "s4_rpc_latency_us",
            "whole-dispatch latency per request, simulated microseconds",
        );
        let journal_hist = registry.histogram(
            "s4_journal_latency_us",
            "journal packing time per request that packed entries, simulated microseconds",
        );
        let lfs_hist = registry.histogram(
            "s4_lfs_latency_us",
            "device time inside LFS segment flushes per flushing request, simulated microseconds",
        );
        let disk_hist = registry.histogram(
            "s4_disk_latency_us",
            "simulated disk service time per request that touched the device, microseconds",
        );
        DriveObs {
            gauges: Gauges::new(&registry),
            registry,
            rpc_hist,
            journal_hist,
            lfs_hist,
            disk_hist,
        }
    }
}

/// The S4 drive.
pub struct S4Drive<D: BlockDev> {
    pub(crate) log: Log<D>,
    pub(crate) clock: SimClock,
    pub(crate) stamps: HybridClock,
    pub(crate) config: DriveConfig,
    // The oid residue class `(stride, offset)` new objects are allocated
    // in: `(1, 0)` until an array sets its member's class.
    oid_class: Mutex<(u64, u64)>,
    pub(crate) inner: Mutex<Inner>,
    pub(crate) stats: DriveStats,
    pub(crate) cleaner: Cleaner,
    pub(crate) observers: Mutex<Vec<Box<dyn AuditObserver>>>,
    pub(crate) obs: DriveObs,
}

impl<D: BlockDev> S4Drive<D> {
    /// Formats `dev` as a fresh S4 drive and writes the initial anchor.
    pub fn format(dev: D, config: DriveConfig, clock: SimClock) -> Result<S4Drive<D>> {
        let drive = Self::format_bare(dev, config, clock)?;
        // Create the partition-table object (versioned like any other).
        drive.insert_new(
            &mut drive.inner.lock(),
            PARTITION_OBJECT.0,
            drive.stamps.next(),
        );
        drive.force_anchor()?;
        Ok(drive)
    }

    /// Formats the log and builds the empty drive, without creating the
    /// partition object or anchoring — shared by [`S4Drive::format`] and
    /// [`S4Drive::format_from_image`] (which replays the partition
    /// object, along with everything else, from the image).
    pub(crate) fn format_bare(dev: D, config: DriveConfig, clock: SimClock) -> Result<S4Drive<D>> {
        let log = Log::format(dev, config.log)?;
        let stamps = HybridClock::new(clock.clone());
        Ok(Self::assemble(
            log,
            clock,
            stamps,
            config,
            Inner::new(&config),
        ))
    }

    pub(crate) fn assemble(
        log: Log<D>,
        clock: SimClock,
        stamps: HybridClock,
        config: DriveConfig,
        inner: Inner,
    ) -> S4Drive<D> {
        let obs = DriveObs::new();
        S4Drive {
            log,
            clock,
            stamps,
            cleaner: Cleaner::new(config.cleaner),
            stats: DriveStats::registered(&obs.registry),
            oid_class: Mutex::new((1, 0)),
            config,
            inner: Mutex::new(inner),
            observers: Mutex::new(Vec::new()),
            obs,
        }
    }

    /// Mounts an existing S4 drive, recovering to the last completed sync.
    pub fn mount(dev: D, config: DriveConfig, clock: SimClock) -> Result<S4Drive<D>> {
        Self::mount_with_report(dev, config, clock).map(|(drive, _)| drive)
    }

    /// Drops the drive *without* syncing or anchoring and returns the
    /// underlying device — simulating power loss for crash-recovery
    /// tests and experiments. All volatile state (caches, pending
    /// journal entries, buffered audit records) is lost, exactly as on a
    /// real crash.
    pub fn crash(self) -> D {
        self.log.into_device()
    }

    /// Records the queued transaction resolutions, syncs, anchors, and
    /// returns the underlying device.
    pub fn unmount(self) -> Result<D> {
        self.txn_settle()?;
        self.force_anchor()?;
        Ok(self.log.into_device())
    }

    /// The simulated clock this drive charges.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The instant this drive persists for what it does now — version
    /// stamps, audit and alert times: the clock's, unless the drive is
    /// held [`at`](Self::at) one. Durations and cost-model charges read
    /// and advance [`S4Drive::clock`] itself.
    pub fn now(&self) -> SimTime {
        self.stamps.now()
    }

    /// Runs `f` with every instant the drive persists held at `t`. A
    /// mirror group's worker reads the clock once per job and applies
    /// the job to each member at that instant, so members sharing a
    /// clock — which each one's own charges advance — still write equal
    /// bytes. A drive under an array has one mutating caller, its shard
    /// worker; a lone drive is never held.
    pub fn at<R>(&self, t: SimTime, f: impl FnOnce(&Self) -> R) -> R {
        self.stamps.pinned(t, || f(self))
    }

    /// Live operation counters.
    pub fn stats(&self) -> &DriveStats {
        &self.stats
    }

    /// Fraction of data-area blocks referenced (current + history).
    pub fn utilization(&self) -> f64 {
        self.log.utilization()
    }

    /// Free segments remaining in the log.
    pub fn free_segments(&self) -> u32 {
        self.log.free_segments()
    }

    /// The current detection window.
    pub fn detection_window(&self) -> SimDuration {
        self.inner.lock().window
    }

    /// The drive configuration.
    pub fn config(&self) -> &DriveConfig {
        &self.config
    }

    /// The oid residue class `(stride, offset)` new objects get ids in.
    pub fn oid_class(&self) -> (u64, u64) {
        *self.oid_class.lock()
    }

    /// Allocates new object ids in the class `offset (mod stride)`: an
    /// array gives shard `i` of `N` the class `(N, i)`, so every id a
    /// member assigns routes home, and a reshard flip narrows `(N, s)` to
    /// `(2N, s)` as it hands `(2N, s+N)` to the new shard.
    pub fn set_oid_class(&self, stride: u64, offset: u64) {
        assert!(stride >= 1, "oid stride must be at least 1");
        assert!(offset < stride, "oid offset must be below the stride");
        *self.oid_class.lock() = (stride, offset);
    }

    /// The underlying log (exposed for benchmarks and tests).
    pub fn log(&self) -> &Log<D> {
        &self.log
    }

    /// True if `ctx` carries the drive's administrative credential.
    pub(crate) fn is_admin(&self, ctx: &RequestContext) -> bool {
        ctx.admin_token == Some(self.config.admin_token)
    }

    /// Refuses anyone but the administrator.
    pub(crate) fn require_admin(&self, ctx: &RequestContext) -> Result<()> {
        if self.is_admin(ctx) {
            Ok(())
        } else {
            Err(S4Error::AccessDenied)
        }
    }

    /// Registers an online detector. Every subsequently audited request
    /// is passed to it; the alerts it returns land in the audit log.
    pub fn register_audit_observer(&self, obs: Box<dyn AuditObserver>) {
        self.observers.lock().push(obs);
    }

    /// Feeds one request's layer times into the latency histograms.
    pub(crate) fn record_latency(&self, rec: &AuditRecord) {
        self.obs.rpc_hist.record(rec.rpc_us.into());
        let layers = [
            (&self.obs.journal_hist, rec.journal_us),
            (&self.obs.lfs_hist, rec.lfs_us),
            (&self.obs.disk_hist, rec.disk_us),
        ];
        for (hist, us) in layers.into_iter().filter(|(_, us)| *us > 0) {
            hist.record(us.into());
        }
    }

    /// Records a distributed-protocol step that does not flow through
    /// [`dispatch`](Self::dispatch) — a 2PC decision, a coordinator note
    /// install, or a reshard catch-up apply — as one audit record whose
    /// phase (decide, note or catchup) marks it a step. No-op on an
    /// untraced context, so an untraced drive holds exactly one record
    /// per request. The online detectors and the latency histograms are
    /// left alone: a step is not a client-visible request.
    pub fn record_phase_trace(&self, ctx: &RequestContext, op: OpKind, object: ObjectId, ok: bool) {
        if ctx.trace.trace_id == 0 {
            return;
        }
        debug_assert!(ctx.trace.is_step(), "a step record carries a step's phase");
        self.audit_append(&AuditRecord {
            time: self.now(),
            user: ctx.user,
            client: ctx.client,
            op,
            ok,
            object,
            arg1: 0,
            arg2: 0,
            trace: ctx.trace,
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        });
    }

    /// The drive's metrics registry; every layer's counters, gauges,
    /// and latency histograms report here.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// Prometheus-style text exposition of every drive metric, with
    /// operational gauges refreshed first.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.obs.registry.render_prometheus()
    }

    /// Recomputes the operational gauges. The exposition above does it
    /// before rendering; an aggregator that reads the registry itself
    /// (the array) calls it first.
    pub fn refresh_gauges(&self) {
        let (journal_depth, audit_blocks, objects, window_us) = {
            let inner = self.inner.lock();
            let depth: usize = inner
                .table
                .values()
                .map(|s| match s {
                    Slot::Cached(e) => e.pending.len(),
                    _ => 0,
                })
                .sum();
            (
                depth,
                inner.audit.blocks().len(),
                inner.table.len(),
                inner.window.as_micros(),
            )
        };

        // Detection-window headroom: how long the *free* pool lasts at
        // the observed write rate — the same projection as
        // `s4_bench::capacity::detection_window_days(pool_gb, write_mb_per_day,
        // space_factor)` with space_factor 1.0 (raw versions; the
        // conservative bound). Clamped to 100 years when no write rate
        // is observable yet.
        const MAX_HEADROOM_DAYS: f64 = 36_500.0;
        let elapsed_days = self.clock.now().as_micros() as f64 / 86_400e6;
        let written_mb = self.stats.snapshot().bytes_written as f64 / (1u64 << 20) as f64;
        let rate_mb_per_day = if elapsed_days > 0.0 {
            written_mb / elapsed_days
        } else {
            0.0
        };
        let free_bytes = self.log.free_segments() as f64
            * self.config.log.blocks_per_segment as f64
            * BLOCK_SIZE as f64;
        let headroom = if rate_mb_per_day > 1e-9 {
            (free_bytes / (1u64 << 30) as f64 * 1024.0 / rate_mb_per_day).min(MAX_HEADROOM_DAYS)
        } else {
            MAX_HEADROOM_DAYS
        };

        let g = &self.obs.gauges;
        g.history_pool_occupancy.set(self.log.utilization());
        g.free_segments.set(self.log.free_segments() as f64);
        g.journal_depth.set(journal_depth as f64);
        g.audit_object_blocks.set(audit_blocks as f64);
        g.objects.set(objects as f64);
        g.detection_window_days.set(window_us as f64 / 86_400e6);
        g.write_mb_per_day.set(rate_mb_per_day);
        g.detection_window_headroom_days.set(headroom);
        let (hits, misses) = self.log.cache().hit_stats();
        g.block_cache_hits.set(hits as f64);
        g.block_cache_misses.set(misses as f64);
    }

    // ------------------------------------------------------------------
    // Shared helpers: what every operation module builds on.
    // ------------------------------------------------------------------

    pub(crate) fn check_not_reserved(&self, oid: ObjectId) -> Result<()> {
        if oid.is_reserved() {
            return Err(S4Error::AccessDenied);
        }
        Ok(())
    }

    pub(crate) fn throttle(&self, ctx: &RequestContext, bytes: u64) {
        let pressure = self.log.utilization();
        let now = self.clock.now();
        let penalty = self
            .inner
            .lock()
            .throttle
            .on_write(ctx.client.0, bytes, now, pressure);
        if penalty > SimDuration::ZERO {
            self.clock.advance(penalty);
            self.stats.throttle_penalty_us(penalty.as_micros());
        }
    }

    /// Allows the administrator, and a user whom the encoded table `acl`
    /// (an object's, or one historical version's) grants `need`.
    pub(crate) fn authorize(&self, ctx: &RequestContext, acl: &[u8], need: Perm) -> Result<()> {
        if self.is_admin(ctx) || AclTable::decode(acl)?.perms_of(ctx.user).includes(need) {
            Ok(())
        } else {
            Err(S4Error::AccessDenied)
        }
    }

    /// What every client mutation needs: the permission, on an object
    /// that still exists.
    pub(crate) fn authorize_live(
        &self,
        ctx: &RequestContext,
        entry: &ObjectEntry,
        need: Perm,
    ) -> Result<()> {
        self.authorize(ctx, &entry.meta.acl, need)?;
        if entry.meta.is_live() {
            Ok(())
        } else {
            Err(S4Error::NoSuchObject)
        }
    }

    /// History-pool access control (§3.4): the current version needs READ;
    /// an old version additionally needs the Recovery flag in the ACL *of
    /// that version* — or the administrator.
    fn authorize_historical(
        &self,
        ctx: &RequestContext,
        entry: &ObjectEntry,
        version: &ObjectMeta,
    ) -> Result<()> {
        let is_current = entry.meta.is_live() && version.modified == entry.meta.modified;
        let need = if is_current {
            Perm::READ
        } else {
            Perm::READ.union(Perm::RECOVERY)
        };
        self.authorize(ctx, &version.acl, need)
    }

    /// Loads an evicted object back into the cache.
    pub(crate) fn ensure_cached(&self, inner: &mut Inner, oid: ObjectId) -> Result<()> {
        let info = match inner.table.get(&oid.0) {
            None => return Err(S4Error::NoSuchObject),
            Some(Slot::Cached(_)) => return Ok(()),
            Some(Slot::Evicted(info)) => *info,
        };
        let mut entry = read_checkpoint(&self.log, info.checkpoint_root, info.checkpoint_slot)?;
        entry.last_used = inner.bump_lru();
        inner.table.insert(oid.0, Slot::Cached(Box::new(entry)));
        Ok(())
    }

    /// Runs `f` on the cached entry of `oid` — loaded first if it was
    /// evicted — lifted out of the table so `f` can use the entry and the
    /// rest of `inner` at once. The entry goes back on *every* return
    /// path: an error inside `f` must never cost an object the only
    /// description of its current state. The two callers that retire an
    /// entry (full expiry, eviction) do so explicitly after this returns.
    pub(crate) fn with_object<R>(
        &self,
        inner: &mut Inner,
        oid: ObjectId,
        f: impl FnOnce(&mut Inner, &mut ObjectEntry) -> Result<R>,
    ) -> Result<R> {
        self.ensure_cached(inner, oid)?;
        let Some(Slot::Cached(mut entry)) = inner.table.remove(&oid.0) else {
            return Err(S4Error::NoSuchObject);
        };
        entry.last_used = inner.bump_lru();
        let r = f(inner, &mut entry);
        inner.table.insert(oid.0, Slot::Cached(entry));
        r
    }

    /// The cached entry of `oid`, loaded first if it was evicted, for
    /// callers that re-point an entry in place (no LRU touch: the
    /// cleaner moving a block is not a use of the object).
    pub(crate) fn cached_mut<'a>(
        &self,
        inner: &'a mut Inner,
        oid: u64,
    ) -> Option<&'a mut ObjectEntry> {
        self.ensure_cached(inner, ObjectId(oid)).ok()?;
        match inner.table.get_mut(&oid) {
            Some(Slot::Cached(entry)) => Some(entry),
            _ => None,
        }
    }

    /// Adds a fresh object to the table with its `Create` entry pending.
    pub(crate) fn insert_new(&self, inner: &mut Inner, oid: u64, stamp: HybridTimestamp) {
        let mut entry = ObjectEntry::new(ObjectMeta::new(oid, stamp));
        entry.pending.push(JournalEntry::Create { stamp });
        entry.last_used = inner.bump_lru();
        inner.table.insert(oid, Slot::Cached(Box::new(entry)));
    }

    /// The version of `entry` a request may see: the current one needs
    /// READ; the one current at `time` is materialized from the history
    /// pool and needs what [`S4Drive::authorize_historical`] asks.
    /// Whether a deleted version is an answer is the caller's call.
    pub(crate) fn version_for(
        &self,
        ctx: &RequestContext,
        entry: &ObjectEntry,
        time: Option<SimTime>,
    ) -> Result<ObjectMeta> {
        let Some(t) = time else {
            self.authorize(ctx, &entry.meta.acl, Perm::READ)?;
            return Ok(entry.meta.clone());
        };
        self.stats.time_based_reads(1);
        let meta = self.version_at(entry, t)?;
        self.authorize_historical(ctx, entry, &meta)?;
        Ok(meta)
    }

    /// Reads `[offset, offset+len)` of the given version's data.
    pub(crate) fn read_extent(
        &self,
        entry: &ObjectEntry,
        meta: &ObjectMeta,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        if offset >= meta.size {
            return Ok(Vec::new());
        }
        let len = len.min(meta.size - offset) as usize;
        let mut out = vec![0u8; len];
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        for lbn in first..=last {
            let Some(&addr) = meta.blocks.get(&lbn) else {
                continue; // sparse hole reads as zeros
            };
            let block = self.materialize_block(entry, addr)?;
            let block_start = lbn * bs;
            let copy_from = offset.max(block_start);
            let copy_to = (offset + len as u64).min(block_start + bs);
            let src = (copy_from - block_start) as usize..(copy_to - block_start) as usize;
            let dst = (copy_from - offset) as usize..(copy_to - offset) as usize;
            out[dst].copy_from_slice(&block[src]);
        }
        Ok(out)
    }

    /// Fetches the bytes of `addr` for `entry`, materializing through any
    /// cross-version delta encoding (§4.2.2: "for subsequent reads of old
    /// versions, the data for each block must be recreated as the entries
    /// are traversed").
    pub(crate) fn materialize_block(
        &self,
        entry: &ObjectEntry,
        addr: BlockAddr,
    ) -> Result<Vec<u8>> {
        let Some(&dref) = entry.deltas.get(&addr.0) else {
            return Ok(self.log.read_block(addr)?.to_vec());
        };
        let base = self.materialize_block(entry, dref.base)?;
        let dblock = self.log.read_block(dref.block)?;
        let sub = packed::DELTAS.slot(&dblock, dref.slot)?;
        if sub.len() < 16 {
            return Err(S4Error::BadRequest("delta payload truncated"));
        }
        let delta =
            s4_delta::Delta::decode(&sub[16..]).map_err(|_| S4Error::BadRequest("delta decode"))?;
        let mut data =
            s4_delta::apply(&base, &delta).map_err(|_| S4Error::BadRequest("delta apply"))?;
        data.resize(BLOCK_SIZE, 0);
        Ok(data)
    }

    /// Writes the bytes of delta-encoded `addr` back out as a plain data
    /// block (tagged `lbn`) and returns its address.
    pub(crate) fn rematerialize(
        &self,
        inner: &mut Inner,
        entry: &ObjectEntry,
        addr: BlockAddr,
        lbn: u64,
    ) -> Result<BlockAddr> {
        let data = self.materialize_block(entry, addr)?;
        let trimmed = data.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let tag = BlockTag::new(BlockKind::Data, entry.meta.id, lbn);
        Ok(inner.ledger.append(&self.log, tag, &data[..trimmed], 1)?)
    }

    /// The one place a mutation becomes a version: applies `e` to the
    /// current metadata and queues it for the next journal pack.
    pub(crate) fn commit(&self, entry: &mut ObjectEntry, e: JournalEntry) {
        redo(&mut entry.meta, &e);
        entry.pending.push(e);
        entry.dirty = true;
        self.stats.versions_created(1);
    }

    /// `first`, then fresh stamps at `first`'s instant: the entries one
    /// mutation is journaled as share its time, so a read at a time sees
    /// all of them or none.
    fn stamps_from(&self, first: HybridTimestamp) -> impl FnMut() -> HybridTimestamp + '_ {
        let mut next = Some(first);
        move || {
            let later = || HybridTimestamp::new(first.time, self.stamps.next().seq);
            next.take().unwrap_or_else(later)
        }
    }

    /// Writes `data` at `offset` as one journaled mutation.
    pub(crate) fn write_extent(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let stamp = self.stamps.next();
        if data.is_empty() {
            return Ok(());
        }
        let bs = BLOCK_SIZE as u64;
        let end = offset + data.len() as u64;
        let first = offset / bs;
        let last = (end - 1) / bs;
        let mut changes = Vec::with_capacity((last - first + 1) as usize);
        for lbn in first..=last {
            let block_start = lbn * bs;
            let copy_from = offset.max(block_start);
            let copy_to = end.min(block_start + bs);
            let old = entry.meta.blocks.get(&lbn).copied();
            // Build the new block contents, merging with the old block for
            // partial coverage.
            let mut content = if copy_to - copy_from < bs {
                match old {
                    Some(a) => self.materialize_block(entry, a)?,
                    None => vec![0u8; BLOCK_SIZE],
                }
            } else {
                vec![0u8; BLOCK_SIZE]
            };
            content.resize(BLOCK_SIZE, 0);
            let src = (copy_from - offset) as usize..(copy_to - offset) as usize;
            content[(copy_from - block_start) as usize..(copy_to - block_start) as usize]
                .copy_from_slice(&data[src]);
            let tag = BlockTag::new(BlockKind::Data, entry.meta.id, lbn);
            let new = inner.ledger.append(&self.log, tag, &content, 1)?;
            changes.push(PtrChange {
                lbn,
                old: old.unwrap_or(BlockAddr::NONE),
                new,
            });
        }
        // A write of more blocks than one entry names is journaled as
        // consecutive writes, each growing the size as far as its own
        // blocks reach, so that every entry packs into one sector.
        let mut stamps = self.stamps_from(stamp);
        for run in runs(changes) {
            let reach = end.min((run[run.len() - 1].lbn + 1) * bs);
            let e = JournalEntry::Write {
                stamp: stamps(),
                old_size: entry.meta.size,
                new_size: entry.meta.size.max(reach),
                changes: run,
            };
            self.commit(entry, e);
        }
        self.stats.bytes_written(data.len() as u64);
        Ok(())
    }

    pub(crate) fn truncate_inner(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        new_len: u64,
    ) -> Result<()> {
        let bs = BLOCK_SIZE as u64;
        // Shrinking into the middle of a block must zero the retained
        // block's tail, or the stale bytes would resurface if the file
        // later grows (POSIX truncate semantics).
        if new_len < entry.meta.size && !new_len.is_multiple_of(bs) {
            let lbn = new_len / bs;
            if let Some(&old) = entry.meta.blocks.get(&lbn) {
                let block = self.materialize_block(entry, old)?;
                let rem = (new_len % bs) as usize;
                let mut buf = vec![0u8; BLOCK_SIZE];
                buf[..rem].copy_from_slice(&block[..rem]);
                self.write_extent(inner, entry, lbn * bs, &buf)?;
            }
        }
        let keep_blocks = new_len.div_ceil(bs);
        let freed: Vec<PtrChange> = entry
            .meta
            .blocks
            .range(keep_blocks..)
            .map(|(&lbn, &old)| PtrChange {
                lbn,
                old,
                new: BlockAddr::NONE,
            })
            .collect();
        // Freeing more blocks than one entry names is journaled as
        // consecutive truncates from the top, each down to its own lowest
        // block.
        let mut stamps = self.stamps_from(self.stamps.next());
        for (i, run) in runs(freed).into_iter().enumerate().rev() {
            let e = JournalEntry::Truncate {
                stamp: stamps(),
                old_size: entry.meta.size,
                new_size: if i == 0 { new_len } else { run[0].lbn * bs },
                freed: run,
            };
            self.commit(entry, e);
        }
        Ok(())
    }

    /// Makes the current version of `entry` equal `content`, `attrs` and
    /// `acl`, emitting only the journal entries that takes — the replay
    /// step shared by mirror resync, reshard migration and transaction
    /// compensation. With `at`, the drive is held at that instant
    /// meanwhile: resync and reshard reproduce the source's modification
    /// *time* (the stamp sequence component stays drive-local), which
    /// [`S4Drive::object_digest`] covers, so a pinned time is itself part
    /// of the target. `None` stamps at [`S4Drive::now`], as compensation
    /// must.
    pub(crate) fn converge(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        content: &[u8],
        attrs: &[u8],
        acl: &[u8],
        at: Option<SimTime>,
    ) -> Result<()> {
        let mut run = || {
            let current = self.read_extent(entry, &entry.meta, 0, entry.meta.size)?;
            if current != content || (at.is_some() && entry.meta.modified.time != self.now()) {
                // Wipe, then rewrite whole. A fresh object has nothing to
                // wipe; an empty target has nothing to write (an empty
                // write is a no-op), so there the truncate alone carries
                // the stamp.
                if entry.meta.size > 0 || content.is_empty() {
                    self.truncate_inner(inner, entry, 0)?;
                }
                self.write_extent(inner, entry, 0, content)?;
            }
            if entry.meta.attrs != attrs {
                let e = JournalEntry::SetAttr {
                    stamp: self.stamps.next(),
                    old: entry.meta.attrs.clone(),
                    new: attrs.to_vec(),
                };
                self.commit(entry, e);
            }
            if entry.meta.acl != acl {
                let e = JournalEntry::SetAcl {
                    stamp: self.stamps.next(),
                    old: entry.meta.acl.clone(),
                    new: acl.to_vec(),
                };
                self.commit(entry, e);
            }
            Ok(())
        };
        match at {
            Some(t) => self.stamps.pinned(t, run),
            None => run(),
        }
    }

    /// Materializes the version of `entry` current at `t`: the journal
    /// walk above the history floor (which stamps the version the retired
    /// entries left), a pinned landmark at or below it.
    pub(crate) fn version_at(&self, entry: &ObjectEntry, t: SimTime) -> Result<ObjectMeta> {
        let bound = HybridTimestamp::upper_bound_at(t);
        if bound <= entry.history_floor {
            // The journal no longer reaches t; a landmark may.
            let m = entry.landmarks.iter().rev().find(|m| m.modified <= bound);
            return m.cloned().ok_or(S4Error::VersionUnavailable);
        }
        // Pending entries are newer than every sector's. A sector is read
        // only if its newest entry is above the bound.
        let mut walk = UndoWalk::new(&entry.meta, bound);
        walk.rewind(entry.pending.iter().rev());
        for s in entry.sectors.iter().rev() {
            if !walk.needs(s.newest) {
                break;
            }
            walk.rewind(read_subsector(&self.log, s.addr, s.slot)?.1.iter().rev());
        }
        walk.finish(entry.history_floor)
            .ok_or(S4Error::NoSuchObject)
    }
}

impl Inner {
    pub(crate) fn new(config: &DriveConfig) -> Inner {
        Inner {
            table: BTreeMap::new(),
            next_oid: FIRST_DYNAMIC_OID,
            window: config.detection_window,
            audit: ReservedLog::default(),
            ledger: Ledger::default(),
            moved: BTreeMap::new(),
            throttle: ThrottleState::new(config.throttle),
            syncs_since_anchor: 0,
            lru: 0,
            txn_pending: BTreeMap::new(),
            txn_locks: BTreeMap::new(),
            txn_queue: Vec::new(),
        }
    }

    /// Notes that `oid`'s block at `from` now lives at `to`, composed
    /// with any earlier move that ended at `from`.
    pub(crate) fn note_move(&mut self, oid: u64, from: BlockAddr, to: BlockAddr) {
        let moves = self.moved.entry(oid).or_default();
        for a in moves.values_mut().filter(|a| **a == from) {
            *a = to;
        }
        moves.insert(from, to);
    }

    fn bump_lru(&mut self) -> u64 {
        self.lru += 1;
        self.lru
    }
}

/// The block pointer changes of a `Write` or `Truncate` entry.
pub(crate) fn changes(e: &JournalEntry) -> &[PtrChange] {
    match e {
        Write { changes, .. } | Truncate { freed: changes, .. } => changes,
        _ => &[],
    }
}

/// The block pointers a `Write` or `Truncate` entry superseded — the
/// history blocks its version keeps alive.
pub(crate) fn old_blocks(e: &JournalEntry) -> impl Iterator<Item = &PtrChange> {
    changes(e).iter().filter(|c| !c.old.is_none())
}

/// [`changes`], to rewrite.
pub(crate) fn changes_mut(e: &mut JournalEntry) -> &mut [PtrChange] {
    match e {
        Write { changes, .. } | Truncate { freed: changes, .. } => changes,
        _ => &mut [],
    }
}

/// `changes` cut, in order, into runs of at most [`MAX_PTR_CHANGES`]:
/// one run, empty or not, unless a write or truncate changes more blocks
/// than one journal entry names.
fn runs(mut changes: Vec<PtrChange>) -> Vec<Vec<PtrChange>> {
    let mut out = Vec::new();
    while changes.len() > MAX_PTR_CHANGES {
        let rest = changes.split_off(MAX_PTR_CHANGES);
        out.push(std::mem::replace(&mut changes, rest));
    }
    out.push(changes);
    out
}

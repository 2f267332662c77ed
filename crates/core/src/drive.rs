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
//! reclaims segments, forwarding still-referenced blocks.
//!
//! Crash recovery (mount) reloads the anchored object map, re-applies
//! journal sectors newer than each checkpoint and every journal block
//! flushed after the anchor, then rebuilds the reachable-block set (and
//! from it the segment usage counts) from first principles.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use s4_clock::sync::Mutex;

use s4_clock::{CpuModel, HybridClock, HybridTimestamp, SimClock, SimDuration, SimTime};
use s4_journal::txn::{self as txnlog, TxnRecord};
use s4_journal::{decode_sector, encode_sectors, redo, undo, JournalEntry, ObjectMeta, PtrChange};
use s4_lfs::{
    BlockAddr, BlockKind, BlockTag, CleanOutcome, Cleaner, CleanerConfig, Log, LogConfig, Mounted,
    RelocationCallbacks, BLOCK_SIZE,
};
use s4_obs::{FlightRecorder, Histogram, Registry, TraceRecord};
use s4_simdisk::BlockDev;

use crate::acl::{AclEntry, AclTable, Perm};
use crate::audit::{AuditRecord, OpKind};
use crate::ids::{ClientId, ObjectId, RequestContext};
use crate::object::{
    push_stamp, read_stamp, DeltaRef, EvictInfo, ObjectEntry, SectorInfo, Slot,
};
use crate::packed::{self, PackedBlocks};
use crate::reserved::{Framing, ReservedLog, ResyncStream};
use crate::stats::DriveStats;
use crate::throttle::{ThrottleConfig, ThrottleState};
use crate::{Result, S4Error};

/// The reserved audit-log object (§4.2.3): writable only by the drive
/// front end, not versioned.
pub const AUDIT_OBJECT: ObjectId = ObjectId(1);

/// The reserved named-object (partition) table (§4.1): "implemented as a
/// special S4 object accessed through dedicated partition manipulation
/// RPC calls ... versioned in the same manner as other objects".
pub const PARTITION_OBJECT: ObjectId = ObjectId(2);

/// The reserved alert object: detectors running inside the security
/// perimeter persist their findings here. Like the audit log it is
/// writable only by the drive itself, so an intruder with full client
/// privileges can neither suppress nor rewrite raised alerts.
pub const ALERT_OBJECT: ObjectId = ObjectId(3);

/// The reserved flight-recorder (trace) object: the drive appends one
/// fixed-size [`TraceRecord`] per dispatched request, so the tail of
/// the request stream survives crashes and is readable by forensics
/// after remount. Drive-written-only, like the audit log. A high
/// sentinel id rather than the next small integer so the dynamic oid
/// space (which grows without bound) can never collide with it.
pub const TRACE_OBJECT: ObjectId = ObjectId(u64::MAX - 3);

/// The reserved per-drive transaction log for cross-shard two-phase
/// commit: participants persist `Prepared`/`Touched`/`Resolved` records
/// here ([`s4_journal::txn`]). Unlike the alert and trace streams
/// (whose volatile tails are only anchor-durable), this is a **real
/// journaled table object** — a record followed by a sync is durable at
/// that sync, which is exactly the commit-point discipline 2PC needs.
/// Created lazily on a drive's first transaction; truncated to zero
/// whenever no transaction is pending. Another high sentinel id so the
/// dynamic oid space can never collide with it.
pub const TXN_OBJECT: ObjectId = ObjectId(u64::MAX - 4);

const FIRST_DYNAMIC_OID: u64 = 4;
const ANCHOR_MAGIC: u32 = 0x5334_414E; // "S4AN"
const SHARED_CP_THRESHOLD: usize = 1000;
const CHECKPOINT_CHUNK: usize = BLOCK_SIZE - 12;

/// Drive configuration.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig {
    /// Log layout and buffer-cache size.
    pub log: LogConfig,
    /// Maximum objects kept fully in memory (the paper's 32 MB object
    /// cache); excess objects are checkpointed and evicted at sync.
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
    /// Whether to persist per-request trace records to the reserved
    /// flight-recorder object (the in-memory ring always runs).
    pub flight_recorder: bool,
    /// Requests retained by the in-memory flight-recorder ring.
    pub flight_recorder_ring: usize,
    /// Fire a self-alert when the append-only alert object reaches this
    /// many flushed blocks (0 disables the warning).
    pub alert_warn_blocks: u64,
    /// Object-id allocation stride. A lone drive uses 1; shard `i` of an
    /// N-drive array uses stride N with [`DriveConfig::oid_offset`] `i`,
    /// so every id the drive assigns routes back to it under the array's
    /// `oid % N` placement rule — no cross-shard id coordination needed.
    pub oid_stride: u64,
    /// Residue (mod [`DriveConfig::oid_stride`]) of every object id this
    /// drive assigns.
    pub oid_offset: u64,
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
            flight_recorder: true,
            flight_recorder_ring: 256,
            alert_warn_blocks: 1024, // ~4 MiB of alerts
            oid_stride: 1,
            oid_offset: 0,
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
            object_cache_entries: 1 << 20,
            detection_window: SimDuration::from_secs(3600),
            audit_enabled: true,
            anchor_interval_syncs: 64,
            cpu: CpuModel::free(),
            throttle: ThrottleConfig::disabled(),
            admin_token: 42,
            cleaner: CleanerConfig::default(),
            flight_recorder: true,
            flight_recorder_ring: 64,
            // Disabled so tests that count exact alert streams are not
            // perturbed; the warn path has its own dedicated test.
            alert_warn_blocks: 0,
            oid_stride: 1,
            oid_offset: 0,
        }
    }

    /// The same configuration as `self`, allocating object ids in the
    /// residue class `offset (mod stride)` — how an array builds its
    /// member-drive configs.
    pub fn with_oid_class(mut self, stride: u64, offset: u64) -> Self {
        assert!(stride >= 1, "oid stride must be at least 1");
        assert!(offset < stride, "oid offset must be < stride");
        self.oid_stride = stride;
        self.oid_offset = offset;
        self
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
    /// Internal checkpoint marker (not a client mutation).
    Checkpoint,
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
    fn from_entry(e: &JournalEntry) -> VersionRecord {
        let (kind, size_after) = match e {
            JournalEntry::Create { .. } => (VersionKind::Create, Some(0)),
            JournalEntry::Delete { .. } => (VersionKind::Delete, None),
            JournalEntry::Write { new_size, .. } => (VersionKind::Write, Some(*new_size)),
            JournalEntry::Truncate { new_size, .. } => (VersionKind::Truncate, Some(*new_size)),
            JournalEntry::SetAttr { .. } => (VersionKind::SetAttr, None),
            JournalEntry::SetAcl { .. } => (VersionKind::SetAcl, None),
            JournalEntry::Checkpoint { .. } => (VersionKind::Checkpoint, None),
            JournalEntry::Revive { .. } => (VersionKind::Revive, None),
        };
        VersionRecord {
            stamp: e.stamp(),
            kind,
            size_after,
        }
    }
}

/// What crash recovery found and rebuilt, returned by
/// [`S4Drive::mount_with_report`]. The torture harness uses it to bound
/// the recovery point: everything stamped at or before
/// [`RecoveryReport::max_recovered_stamp`] survived the crash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Simulated time recorded in the anchor's superblock.
    pub anchor_time: SimTime,
    /// Objects present in the anchored object map.
    pub anchored_objects: usize,
    /// Log batches flushed after the anchor that roll-forward replayed.
    pub replayed_batches: usize,
    /// Trailing batches roll-forward dropped because their data did not
    /// match the summary's checksum (a torn commit whose summary
    /// persisted); 0 or 1, since the log ends at the first.
    pub torn_batches: usize,
    /// Journal sub-sectors re-applied from those batches.
    pub replayed_sectors: usize,
    /// Journal entries re-applied from those sectors.
    pub replayed_entries: usize,
    /// Audit-log blocks reachable after recovery (anchored + replayed).
    pub audit_blocks: usize,
    /// Alert-object blocks reachable after recovery (anchored + replayed).
    pub alert_blocks: usize,
    /// Flight-recorder (trace) blocks reachable after recovery.
    pub trace_blocks: usize,
    /// Objects in the recovered table (anchored plus any created in
    /// replayed batches).
    pub recovered_objects: usize,
    /// Next object id the drive will assign.
    pub next_oid: u64,
    /// Newest mutation stamp visible anywhere in the recovered state —
    /// the recovery point. [`HybridTimestamp::ZERO`] on an empty drive.
    pub max_recovered_stamp: HybridTimestamp,
}

pub(crate) struct Inner {
    table: BTreeMap<u64, Slot>,
    next_oid: u64,
    pub(crate) window: SimDuration,
    /// The three reserved streams (see [`crate::reserved`]). Trace blobs
    /// are encoded [`TraceRecord`]s.
    pub(crate) audit: ReservedLog,
    pub(crate) alerts: ReservedLog,
    pub(crate) traces: ReservedLog,
    /// One-shot latch for the alert-object growth self-alert.
    pub(crate) alert_growth_warned: bool,
    /// Every reachable block (current data, in-window history, journal
    /// blocks, checkpoints, audit blocks). Rebuilt from first principles
    /// at mount.
    pub(crate) live: BTreeSet<u64>,
    /// The three shared-container kinds (see [`crate::packed`]): journal
    /// blocks referenced from objects' sector lists, shared checkpoint
    /// blocks referenced from checkpoint roots, and delta blocks
    /// referenced from objects' delta maps.
    jblocks: PackedBlocks,
    cpblocks: PackedBlocks,
    dblocks: PackedBlocks,
    throttle: ThrottleState,
    syncs_since_anchor: u32,
    lru: u64,
    /// Unresolved (prepared, not yet committed/aborted) cross-shard
    /// transactions this drive participates in, keyed by txid. Rebuilt
    /// from [`TXN_OBJECT`] at mount. `BTreeMap` for deterministic
    /// digest iteration.
    txn_pending: BTreeMap<u64, TxnPending>,
    /// Objects pinned by an in-flight transaction (oid → txid): the
    /// dispatcher rejects outside mutations so abort compensation can
    /// restore the pre-transaction version without clobbering anyone.
    txn_locks: BTreeMap<u64, u64>,
}

/// In-memory state of one unresolved transaction (see
/// [`s4_journal::txn::InDoubtTxn`] for the recovered form).
struct TxnPending {
    /// Pre-transaction timestamp (µs); compensation restores to here.
    t0_us: u64,
    /// Exact touch scope once the vote record is durable; `None` while
    /// preparing (a crash then means blanket compensation).
    touched: Option<(Vec<u64>, Vec<String>)>,
}

/// An online detector fed every freshly appended audit record (the
/// `s4-detect` crate provides implementations). Runs inside the drive's
/// security perimeter: any blobs it returns are persisted to the
/// reserved alert object, which clients cannot write.
pub trait AuditObserver: Send {
    /// Called after each audited request; returns encoded alert blobs
    /// to persist (empty when the record is unremarkable).
    fn on_record(&mut self, rec: &AuditRecord) -> Vec<Vec<u8>>;
}

/// Per-drive observability state: the metrics registry every layer
/// reports into, the hot-path latency histograms, and the in-memory
/// flight-recorder ring (the persisted trace stream lives in
/// [`Inner::traces`]).
pub(crate) struct DriveObs {
    registry: Registry,
    rpc_hist: Histogram,
    journal_hist: Histogram,
    lfs_hist: Histogram,
    disk_hist: Histogram,
    pub(crate) recorder: FlightRecorder,
}

impl DriveObs {
    fn new(config: &DriveConfig) -> DriveObs {
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
            registry,
            rpc_hist,
            journal_hist,
            lfs_hist,
            disk_hist,
            recorder: FlightRecorder::new(config.flight_recorder_ring),
        }
    }
}

/// The S4 drive.
pub struct S4Drive<D: BlockDev> {
    pub(crate) log: Log<D>,
    pub(crate) clock: SimClock,
    stamps: HybridClock,
    pub(crate) config: DriveConfig,
    // The oid residue class new objects are allocated in. Initialized
    // from `config` but runtime-mutable: a reshard flip narrows a
    // source member's class from (N, s) to (2N, s) without a remount.
    oid_stride: AtomicU64,
    oid_offset: AtomicU64,
    pub(crate) inner: Mutex<Inner>,
    pub(crate) stats: DriveStats,
    cleaner: Cleaner,
    pub(crate) observers: Mutex<Vec<Box<dyn AuditObserver>>>,
    pub(crate) obs: DriveObs,
}

impl<D: BlockDev> S4Drive<D> {
    /// Formats `dev` as a fresh S4 drive and writes the initial anchor.
    pub fn format(dev: D, config: DriveConfig, clock: SimClock) -> Result<S4Drive<D>> {
        let drive = Self::format_bare(dev, config, clock)?;
        // Create the partition-table object (versioned like any other).
        {
            let mut inner = drive.inner.lock();
            drive.insert_new(&mut inner, PARTITION_OBJECT.0, drive.stamps.next());
            drive.sync_locked(&mut inner)?;
            drive.anchor_locked(&mut inner)?;
        }
        Ok(drive)
    }

    /// Formats the log and builds the empty drive, without creating the
    /// partition object or anchoring — shared by [`S4Drive::format`] and
    /// [`S4Drive::format_from_image`] (which replays the partition
    /// object, along with everything else, from the image).
    fn format_bare(dev: D, config: DriveConfig, clock: SimClock) -> Result<S4Drive<D>> {
        let log = Log::format(dev, config.log)?;
        let stamps = HybridClock::new(clock.clone());
        Ok(Self::assemble(log, clock, stamps, config, Inner::new(&config)))
    }

    fn assemble(
        log: Log<D>,
        clock: SimClock,
        stamps: HybridClock,
        config: DriveConfig,
        inner: Inner,
    ) -> S4Drive<D> {
        let obs = DriveObs::new(&config);
        S4Drive {
            log,
            clock,
            stamps,
            cleaner: Cleaner::new(config.cleaner),
            stats: DriveStats::registered(&obs.registry),
            oid_stride: AtomicU64::new(config.oid_stride),
            oid_offset: AtomicU64::new(config.oid_offset),
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

    /// Like [`S4Drive::mount`], but also returns a [`RecoveryReport`]
    /// describing what roll-forward found — the crash-consistency
    /// harness asserts its invariants against this.
    pub fn mount_with_report(
        dev: D,
        config: DriveConfig,
        clock: SimClock,
    ) -> Result<(S4Drive<D>, RecoveryReport)> {
        let Mounted {
            log,
            payload,
            batches,
            superblock: sb,
            torn_batches,
        } = Log::mount(dev, config.log.cache_blocks)?;
        clock.advance_to(SimTime::from_micros(sb.anchor_time_us));

        let (mut inner, records) = decode_anchor_payload(&payload, &config)?;
        let mut report = RecoveryReport {
            anchor_time: SimTime::from_micros(sb.anchor_time_us),
            anchored_objects: records.len(),
            replayed_batches: batches.len(),
            torn_batches,
            ..RecoveryReport::default()
        };

        // Phase 1: rebuild each anchored object from its checkpoint plus
        // the journal sectors newer than the checkpointed metadata.
        for rec in &records {
            let mut entry = if rec.root.is_none() {
                // Journal-only object: its entire history (from the
                // Create entry) is in the anchored sector list.
                let sectors = rec.sectors.clone().unwrap_or_default();
                let Some(first) = sectors.first() else {
                    return Err(S4Error::BadRequest("anchored object with no state"));
                };
                let (_o, entries) = read_subsector(&log, first.addr, first.slot)?;
                let Some(JournalEntry::Create { stamp }) = entries.first() else {
                    return Err(S4Error::BadRequest("journal-only object without create"));
                };
                ObjectEntry::new(ObjectMeta::new(rec.oid, *stamp))
            } else {
                read_checkpoint(&log, rec.root, rec.slot)?
            };
            if let Some(sectors) = &rec.sectors {
                entry.sectors = sectors.clone();
                entry.history_floor = entry.history_floor.max(rec.floor);
            }
            let cp_modified = entry.meta.modified;
            let sectors = entry.sectors.clone();
            for s in &sectors {
                if s.newest <= cp_modified {
                    continue;
                }
                let (_oid, entries) = read_subsector(&log, s.addr, s.slot)?;
                for e in &entries {
                    if e.stamp() > cp_modified {
                        redo(&mut entry.meta, e);
                    }
                }
            }
            if let Some(last) = entry.sectors.last() {
                entry.meta.journal_head = last.addr;
                report.max_recovered_stamp = report.max_recovered_stamp.max(last.newest);
            }
            report.max_recovered_stamp = report.max_recovered_stamp.max(entry.meta.modified);
            if let Some(d) = entry.meta.deleted {
                report.max_recovered_stamp = report.max_recovered_stamp.max(d);
            }
            entry.dirty = false;
            inner.table.insert(rec.oid, Slot::Cached(Box::new(entry)));
            // High-sentinel reserved objects (the transaction log) must
            // not drag the dynamic id allocator to the top of the space.
            if rec.oid < TXN_OBJECT.0 {
                inner.next_oid = inner.next_oid.max(rec.oid + 1);
            }
        }

        // Phase 2: re-apply every journal block flushed after the anchor.
        let mut max_seq = sb.next_stamp_seq;
        for batch in &batches {
            for &(addr, tag) in &batch.blocks {
                match tag.kind {
                    BlockKind::JournalSector => {
                        let block = log.read_block(addr)?;
                        let subs = packed::JOURNAL.split(&block)?;
                        for (slot, sub) in subs.iter().enumerate() {
                            let (oid, _prev, entries) = decode_sector(sub)?;
                            apply_recovered_sector(&mut inner, oid, addr, slot as u32, &entries)?;
                            report.replayed_sectors += 1;
                            report.replayed_entries += entries.len();
                            for e in &entries {
                                max_seq = max_seq.max(e.stamp().seq + 1);
                                report.max_recovered_stamp =
                                    report.max_recovered_stamp.max(e.stamp());
                            }
                        }
                    }
                    BlockKind::Audit => {
                        if let Some(stream) = inner.stream_mut(tag.object) {
                            stream.replay_block(addr, &log.read_block(addr)?)?;
                        }
                    }
                    // Data blocks become reachable via the journal entries
                    // referencing them; orphaned post-anchor checkpoints
                    // and relocated copies are intentionally dropped.
                    _ => {}
                }
            }
        }

        // Phase 3: rebuild the reachable-block set and journal-block
        // refcounts from the recovered object table.
        rebuild_liveness(&log, &mut inner)?;
        log.rebuild_live_counts(inner.live.iter().map(|&a| BlockAddr(a)));

        report.audit_blocks = inner.audit.blocks().len();
        report.alert_blocks = inner.alerts.blocks().len();
        report.trace_blocks = inner.traces.blocks().len();
        report.recovered_objects = inner.table.len();
        report.next_oid = inner.next_oid;

        // Power loss can strand the anchor behind journal batches flushed
        // after it, and the anchor time is all the superblock records. Every
        // stamp issued from here on must order *after* every recovered
        // mutation — otherwise recovery-time writes (transaction
        // compensation above all) would be shadowed by the very versions
        // they supersede once a later mount re-sorts history by stamp. Time
        // dominates the stamp order, so fast-forward to the newest
        // recovered instant; the resumed sequence counter breaks the tie
        // within it.
        clock.advance_to(report.max_recovered_stamp.time);

        let stamps = HybridClock::resuming_from(clock.clone(), max_seq.max(sb.next_stamp_seq));
        let drive = Self::assemble(log, clock, stamps, config, inner);
        // Rebuild in-doubt transaction state from the recovered
        // transaction log (the array resolves them against the
        // coordinator's decision notes before serving traffic).
        drive.rebuild_txn_state()?;
        Ok((drive, report))
    }

    /// Drops the drive *without* syncing or anchoring and returns the
    /// underlying device — simulating power loss for crash-recovery
    /// tests and experiments. All volatile state (caches, pending
    /// journal entries, buffered audit records) is lost, exactly as on a
    /// real crash.
    pub fn crash(self) -> D {
        self.log.into_device()
    }

    /// Syncs, anchors, and returns the underlying device.
    pub fn unmount(self) -> Result<D> {
        {
            let mut inner = self.inner.lock();
            self.sync_locked(&mut inner)?;
            self.anchor_locked(&mut inner)?;
        }
        Ok(self.log.into_device())
    }

    /// The simulated clock this drive charges.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
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

    /// The oid residue class new objects are allocated in, as
    /// `(stride, offset)`. Starts from the formatted configuration;
    /// [`S4Drive::set_oid_class`] narrows it at runtime during a
    /// reshard flip.
    pub fn oid_class(&self) -> (u64, u64) {
        (
            self.oid_stride.load(Ordering::Acquire),
            self.oid_offset.load(Ordering::Acquire),
        )
    }

    /// Changes the oid residue class new objects are allocated in. A
    /// reshard flip calls this on the source shard's members to narrow
    /// their class from `(N, s)` to `(2N, s)` the moment the split
    /// class `(2N, s+N)` is handed to the new shard.
    pub fn set_oid_class(&self, stride: u64, offset: u64) {
        assert!(stride >= 1, "oid stride must be at least 1");
        assert!(offset < stride, "oid offset must be below the stride");
        self.oid_stride.store(stride, Ordering::Release);
        self.oid_offset.store(offset, Ordering::Release);
    }

    /// The underlying log (exposed for benchmarks and tests).
    pub fn log(&self) -> &Log<D> {
        &self.log
    }

    /// True if `ctx` carries the drive's administrative credential.
    pub fn is_admin(&self, ctx: &RequestContext) -> bool {
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

    // ------------------------------------------------------------------
    // Object operations (authorization included; auditing happens in the
    // RPC dispatcher).
    // ------------------------------------------------------------------

    /// Creates an object; the creator receives a full-permission ACL
    /// entry unless an explicit table is supplied.
    pub fn op_create(&self, ctx: &RequestContext, acl: Option<AclTable>) -> Result<ObjectId> {
        let mut inner = self.inner.lock();
        // Round up to the drive's oid residue class (stride 1 / offset 0
        // degenerates to sequential allocation). Array members allocate
        // in disjoint classes so drive-assigned ids route home.
        let (stride, offset) = self.oid_class();
        let oid = if stride <= 1 {
            inner.next_oid
        } else {
            let n = inner.next_oid;
            let rem = n % stride;
            if rem == offset {
                n
            } else {
                n + (offset + stride - rem) % stride
            }
        };
        inner.next_oid = oid + 1;
        self.insert_new(&mut inner, oid, self.stamps.next());
        let table = acl.unwrap_or_else(|| AclTable::owner_default(ctx.user));
        self.with_object(&mut inner, ObjectId(oid), |_, entry| {
            let set = JournalEntry::SetAcl {
                stamp: self.stamps.next(),
                old: Vec::new(),
                new: table.encode(),
            };
            self.commit(entry, set);
            Ok(ObjectId(oid))
        })
    }

    /// Deletes an object (its versions remain recoverable for the
    /// detection window).
    pub fn op_delete(&self, ctx: &RequestContext, oid: ObjectId) -> Result<()> {
        self.check_not_reserved(oid)?;
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            self.authorize(ctx, entry, Perm::OWNER)?;
            if !entry.meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            let stamp = self.stamps.next();
            self.commit(entry, JournalEntry::Delete { stamp });
            Ok(())
        })
    }

    /// Reads `len` bytes at `offset`, optionally from the version current
    /// at `time` (Table 1: time-based access).
    pub fn op_read(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        offset: u64,
        len: u64,
        time: Option<SimTime>,
    ) -> Result<Vec<u8>> {
        if oid == AUDIT_OBJECT {
            return self.read_audit_raw(ctx, offset, len);
        }
        let mut inner = self.inner.lock();
        let data = self.with_object(&mut inner, oid, |_, entry| {
            let meta = self.version_for(ctx, entry, time)?;
            if !meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            self.read_extent(entry, &meta, offset, len)
        })?;
        self.stats.bytes_read(data.len() as u64);
        Ok(data)
    }

    /// Writes `data` at `offset`, creating a new version.
    pub fn op_write(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.check_not_reserved(oid)?;
        self.throttle(ctx, data.len() as u64);
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |inner, entry| {
            self.authorize(ctx, entry, Perm::WRITE)?;
            if !entry.meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            self.write_extent(inner, entry, offset, data)
        })
    }

    /// Appends `data` at the end of the object, returning the new size.
    pub fn op_append(&self, ctx: &RequestContext, oid: ObjectId, data: &[u8]) -> Result<u64> {
        self.check_not_reserved(oid)?;
        self.throttle(ctx, data.len() as u64);
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |inner, entry| {
            self.authorize(ctx, entry, Perm::WRITE)?;
            if !entry.meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            let off = entry.meta.size;
            self.write_extent(inner, entry, off, data)?;
            Ok(entry.meta.size)
        })
    }

    /// Truncates (or sparsely extends) the object to `new_len` bytes.
    pub fn op_truncate(&self, ctx: &RequestContext, oid: ObjectId, new_len: u64) -> Result<()> {
        self.check_not_reserved(oid)?;
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |inner, entry| {
            self.authorize(ctx, entry, Perm::WRITE)?;
            if !entry.meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            self.truncate_inner(inner, entry, new_len)
        })
    }

    /// Returns object attributes, optionally of a historical version.
    pub fn op_getattr(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        time: Option<SimTime>,
    ) -> Result<ObjectAttrs> {
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            let meta = self.version_for(ctx, entry, time)?;
            // A historical tombstone still reports its attributes (and
            // its deletion time); the current version must be live.
            if time.is_none() && !meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            Ok(ObjectAttrs {
                size: meta.size,
                created: meta.created.time,
                modified: meta.modified.time,
                deleted: meta.deleted.map(|d| d.time),
                opaque: meta.attrs,
            })
        })
    }

    /// Replaces the opaque attribute blob.
    pub fn op_setattr(&self, ctx: &RequestContext, oid: ObjectId, attrs: Vec<u8>) -> Result<()> {
        self.check_not_reserved(oid)?;
        self.throttle(ctx, attrs.len() as u64);
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            self.authorize(ctx, entry, Perm::WRITE)?;
            if !entry.meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            let e = JournalEntry::SetAttr {
                stamp: self.stamps.next(),
                old: entry.meta.attrs.clone(),
                new: attrs,
            };
            self.commit(entry, e);
            Ok(())
        })
    }

    /// Looks up the ACL entry for `user`, optionally in a historical
    /// version.
    pub fn op_get_acl_by_user(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        user: crate::ids::UserId,
        time: Option<SimTime>,
    ) -> Result<Option<AclEntry>> {
        self.acl_table_at(ctx, oid, time).map(|t| t.get_user(user))
    }

    /// Looks up the ACL entry at table index `idx`, optionally in a
    /// historical version.
    pub fn op_get_acl_by_index(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        idx: u32,
        time: Option<SimTime>,
    ) -> Result<Option<AclEntry>> {
        self.acl_table_at(ctx, oid, time)
            .map(|t| t.get_index(idx as usize))
    }

    /// Installs (or clears, when the permission bits are empty) one ACL
    /// entry.
    pub fn op_set_acl(&self, ctx: &RequestContext, oid: ObjectId, acl: AclEntry) -> Result<()> {
        self.check_not_reserved(oid)?;
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            self.authorize(ctx, entry, Perm::OWNER)?;
            if !entry.meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            let mut table = AclTable::decode(&entry.meta.acl)?;
            table.set(acl);
            let e = JournalEntry::SetAcl {
                stamp: self.stamps.next(),
                old: entry.meta.acl.clone(),
                new: table.encode(),
            };
            self.commit(entry, e);
            Ok(())
        })
    }

    /// Associates `name` with an existing object (persistent mount
    /// points, §4.1).
    pub fn op_pcreate(&self, _ctx: &RequestContext, name: &str, oid: ObjectId) -> Result<()> {
        if name.is_empty() || name.len() > 255 {
            return Err(S4Error::BadRequest("partition name length"));
        }
        let mut inner = self.inner.lock();
        // The target must exist.
        self.ensure_cached(&mut inner, oid)?;
        let mut parts = self.read_partitions(&mut inner, None)?;
        if parts.iter().any(|(n, _)| n == name) {
            return Err(S4Error::PartitionExists);
        }
        parts.push((name.to_string(), oid.0));
        self.write_partitions(&mut inner, &parts)
    }

    /// Removes a name/ObjectID association.
    pub fn op_pdelete(&self, _ctx: &RequestContext, name: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let mut parts = self.read_partitions(&mut inner, None)?;
        let before = parts.len();
        parts.retain(|(n, _)| n != name);
        if parts.len() == before {
            return Err(S4Error::NoSuchPartition);
        }
        self.write_partitions(&mut inner, &parts)
    }

    /// Lists partitions, optionally as of `time`.
    pub fn op_plist(
        &self,
        _ctx: &RequestContext,
        time: Option<SimTime>,
    ) -> Result<Vec<(String, ObjectId)>> {
        let mut inner = self.inner.lock();
        Ok(self
            .read_partitions(&mut inner, time)?
            .into_iter()
            .map(|(n, o)| (n, ObjectId(o)))
            .collect())
    }

    /// Resolves a partition name to its ObjectID, optionally as of
    /// `time`.
    pub fn op_pmount(
        &self,
        _ctx: &RequestContext,
        name: &str,
        time: Option<SimTime>,
    ) -> Result<ObjectId> {
        let mut inner = self.inner.lock();
        self.read_partitions(&mut inner, time)?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, o)| ObjectId(o))
            .ok_or(S4Error::NoSuchPartition)
    }

    /// Makes everything written so far durable (NFSv2 clients call this
    /// after every mutating operation).
    pub fn op_sync(&self, _ctx: &RequestContext) -> Result<()> {
        let mut inner = self.inner.lock();
        self.sync_locked(&mut inner)
    }

    /// Administrative: adjusts the guaranteed detection window.
    pub fn op_set_window(&self, ctx: &RequestContext, window: SimDuration) -> Result<()> {
        self.require_admin(ctx)?;
        self.inner.lock().window = window;
        Ok(())
    }

    /// Administrative: removes all versions of all objects whose creating
    /// mutation falls in `[from, to]`.
    pub fn op_flush(&self, ctx: &RequestContext, from: SimTime, to: SimTime) -> Result<()> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        let oids: Vec<u64> = inner.table.keys().copied().collect();
        for oid in oids {
            self.flush_object_range(&mut inner, ObjectId(oid), from, to)?;
        }
        Ok(())
    }

    /// Administrative: removes versions of one object in `[from, to]`.
    pub fn op_flusho(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        from: SimTime,
        to: SimTime,
    ) -> Result<()> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        self.flush_object_range(&mut inner, oid, from, to)
    }

    /// Registers an online detector. Every subsequently audited request
    /// is passed to it; returned blobs land in the alert object.
    pub fn register_audit_observer(&self, obs: Box<dyn AuditObserver>) {
        self.observers.lock().push(obs);
    }

    /// Records one per-request trace: always into the in-memory ring,
    /// and (when [`DriveConfig::flight_recorder`] is set) appended to
    /// the reserved trace object so the stream's prefix survives power
    /// loss. The persisted stream assigns `seq` — record `i` of the
    /// stream always carries seq `i`, which recovery re-derives from
    /// block contents, so forensics can detect gaps.
    pub(crate) fn record_dispatch(&self, rec: TraceRecord) {
        self.obs.rpc_hist.record(rec.rpc_us);
        if rec.journal_us > 0 {
            self.obs.journal_hist.record(rec.journal_us);
        }
        if rec.lfs_us > 0 {
            self.obs.lfs_hist.record(rec.lfs_us);
        }
        if rec.disk_us > 0 {
            self.obs.disk_hist.record(rec.disk_us);
        }
        if rec.trace_id != 0 {
            self.obs.registry.offer_exemplar(s4_obs::Exemplar {
                trace_id: rec.trace_id,
                time_us: rec.time_us,
                op: rec.op,
                object: rec.object,
                rpc_us: rec.rpc_us,
            });
        }
        self.persist_trace(rec);
    }

    /// Writes a synthetic v2 trace record for a distributed-protocol
    /// step that does not flow through [`dispatch`](Self::dispatch) —
    /// a 2PC decision, a coordinator note install, or a reshard
    /// catch-up apply. No-op on an untraced context: the persisted
    /// stream (and the torture predictor over it) only grows when a
    /// caller opted into tracing. Latency histograms and exemplars are
    /// left alone — phase records annotate causality, they are not
    /// client-visible requests.
    pub fn record_phase_trace(
        &self,
        ctx: &RequestContext,
        op: OpKind,
        object: ObjectId,
        ok: bool,
        rpc_us: u64,
    ) {
        if ctx.trace.trace_id == 0 {
            return;
        }
        self.persist_trace(TraceRecord {
            seq: 0, // assigned by the persisted stream
            time_us: self.now().as_micros(),
            user: ctx.user.0,
            client: ctx.client.0,
            op: op as u8,
            ok,
            object: object.0,
            rpc_us,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
            trace_id: ctx.trace.trace_id,
            origin: ctx.trace.origin,
            phase: ctx.trace.phase,
        });
    }

    /// The in-memory flight-recorder ring: the last N dispatched
    /// requests with per-layer timings (unauthenticated — it exposes
    /// aggregate operational data, not object contents).
    pub fn flight_recent(&self) -> Vec<TraceRecord> {
        self.obs.recorder.recent()
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

    /// JSON exposition of every drive metric, with operational gauges
    /// refreshed first.
    pub fn metrics_json(&self) -> String {
        self.refresh_gauges();
        self.obs.registry.render_json()
    }

    /// Recomputes the operational gauges the paper's admin story cares
    /// about (§3.6, §5): history-pool occupancy, detection-window
    /// headroom, journal depth, and the reserved-object sizes.
    fn refresh_gauges(&self) {
        let reg = &self.obs.registry;
        reg.gauge(
            "s4_history_pool_occupancy",
            "fraction of data-area blocks referenced (current + history)",
        )
        .set(self.log.utilization());
        reg.gauge("s4_free_segments", "free log segments remaining")
            .set(self.log.free_segments() as f64);

        let (journal_depth, audit_blocks, alert_blocks, trace_blocks, objects, window_us) = {
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
                inner.alerts.blocks().len(),
                inner.traces.blocks().len(),
                inner.table.len(),
                inner.window.as_micros(),
            )
        };
        reg.gauge(
            "s4_journal_depth",
            "journal entries pending (not yet packed) across cached objects",
        )
        .set(journal_depth as f64);
        reg.gauge("s4_audit_object_blocks", "flushed audit-log blocks")
            .set(audit_blocks as f64);
        reg.gauge("s4_alert_object_blocks", "flushed alert-object blocks")
            .set(alert_blocks as f64);
        reg.gauge("s4_trace_object_blocks", "flushed flight-recorder blocks")
            .set(trace_blocks as f64);
        reg.gauge("s4_objects", "objects in the drive's object table")
            .set(objects as f64);
        reg.gauge(
            "s4_detection_window_days",
            "configured guaranteed detection window, days",
        )
        .set(window_us as f64 / 86_400e6);

        // Detection-window headroom: how long the *free* pool lasts at
        // the observed write rate — the same projection as
        // `s4_capacity::detection_window_days(pool_gb, write_mb_per_day,
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
        reg.gauge(
            "s4_write_mb_per_day",
            "observed object write rate, MB per simulated day",
        )
        .set(rate_mb_per_day);
        let free_bytes = self.log.free_segments() as f64
            * self.config.log.blocks_per_segment as f64
            * BLOCK_SIZE as f64;
        let headroom = if rate_mb_per_day > 1e-9 {
            (free_bytes / (1u64 << 30) as f64 * 1024.0 / rate_mb_per_day).min(MAX_HEADROOM_DAYS)
        } else {
            MAX_HEADROOM_DAYS
        };
        reg.gauge(
            "s4_detection_window_headroom_days",
            "days the free history pool lasts at the observed write rate (space_factor 1.0)",
        )
        .set(headroom);
    }

    /// Deterministic digest of the drive's logical state: the object
    /// table (metadata, sector lists, forwarding/delta maps, landmarks,
    /// history floors, pending journal entries), the audit and alert
    /// logs, and the id allocator. Two mounts of the same device image
    /// must produce equal digests — the torture harness's journal-replay
    /// idempotence invariant. FNV-1a over a canonical (oid-sorted)
    /// serialization; caches, statistics, and LRU state are excluded.
    pub fn state_digest(&self) -> u64 {
        let inner = self.inner.lock();
        let mut h = Fnv::new();
        h.u64(inner.next_oid);
        h.u64(inner.window.as_micros());
        for (&oid, slot) in &inner.table {
            h.u64(oid);
            match slot {
                Slot::Cached(entry) => {
                    h.u64(1);
                    h.bytes(&entry.encode());
                    h.u64(entry.pending.len() as u64);
                    let mut buf = Vec::new();
                    for e in &entry.pending {
                        e.encode_into(&mut buf);
                    }
                    h.bytes(&buf);
                }
                Slot::Evicted(info) => {
                    h.u64(2);
                    h.u64(info.checkpoint_root.0);
                    h.u64(info.checkpoint_slot as u64);
                    h.stamp(info.expiry_hint);
                    h.u64(info.deleted.is_some() as u64);
                    if let Some(d) = info.deleted {
                        h.stamp(d);
                    }
                }
            }
        }
        for s in [&inner.audit, &inner.alerts, &inner.traces] {
            s.digest(|b| h.bytes(b));
        }
        // Unresolved-transaction state (the log object itself is hashed
        // with the table; this covers the derived pending/lock maps so
        // a rebuild divergence shows up as a digest mismatch).
        h.u64(inner.txn_pending.len() as u64);
        for (txid, p) in &inner.txn_pending {
            h.u64(*txid);
            h.u64(p.t0_us);
            match &p.touched {
                None => h.u64(0),
                Some((oids, names)) => {
                    h.u64(1);
                    h.u64(oids.len() as u64);
                    for o in oids {
                        h.u64(*o);
                    }
                    h.u64(names.len() as u64);
                    for n in names {
                        h.u64(n.len() as u64);
                        h.bytes(n.as_bytes());
                    }
                }
            }
        }
        h.u64(inner.txn_locks.len() as u64);
        for (o, t) in &inner.txn_locks {
            h.u64(*o);
            h.u64(*t);
        }
        h.0
    }

    // ------------------------------------------------------------------
    // Mirror resync: exporting one member's logical state and replaying
    // it onto a replacement drive (DESIGN §6g).
    // ------------------------------------------------------------------

    /// Raises a drive-originated alert (severity 2, no user/client)
    /// through the tamper-evident alert object — the channel redundancy
    /// layers use to surface member death and degraded mode, so the
    /// operator's existing alert poll sees infrastructure faults too.
    pub fn system_alert(&self, rule: &str, message: &str) {
        let blob = encode_system_alert(
            rule.as_bytes(),
            self.clock.now().as_micros(),
            message.as_bytes(),
        );
        self.alert_append(&blob);
    }

    /// Exports the drive's logical state for mirror resync (admin only):
    /// every live object's current version plus the raw audit, alert,
    /// and trace streams. Deleted objects and expired history are *not*
    /// exported — clients observe `NoSuchObject` either way, and the
    /// replacement member starts its history pool from the survivor's
    /// present (the paper's window guarantee is per-drive; a rebuilt
    /// member's window restarts at the rebuild).
    pub fn resync_image(&self, ctx: &RequestContext) -> Result<ResyncImage> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        let oids: Vec<u64> = inner.table.keys().copied().collect();
        let mut objects = Vec::new();
        for oid in oids {
            // Deleted objects are not replayed.
            objects.extend(self.export_object(&mut inner, ctx, ObjectId(oid), None)?);
        }
        Ok(ResyncImage {
            next_oid: inner.next_oid,
            window: inner.window,
            objects,
            audit: inner.audit.export(&self.log)?,
            alerts: inner.alerts.export(&self.log)?,
            traces: inner.traces.export(&self.log)?,
        })
    }

    /// Formats `dev` and replays `image` onto it: each live object is
    /// recreated with its original creation/modification *times* (the
    /// stamp sequence component is drive-local), and the audit, alert,
    /// and trace streams are copied byte for byte. The result is a
    /// mounted, anchored drive whose client-visible state matches the
    /// image's source — [`S4Drive::object_digest`] verifies the claim
    /// per object.
    pub fn format_from_image(
        dev: D,
        config: DriveConfig,
        clock: SimClock,
        image: &ResyncImage,
    ) -> Result<S4Drive<D>> {
        let drive = Self::format_bare(dev, config, clock)?;
        {
            let mut guard = drive.inner.lock();
            let inner = &mut *guard;
            inner.window = image.window;
            for obj in &image.objects {
                drive.insert_exported(inner, obj)?;
            }
            inner.next_oid = inner.next_oid.max(image.next_oid);

            let (streams, live) = inner.streams_mut();
            let images = [&image.audit, &image.alerts, &image.traces];
            for (s, image) in streams.into_iter().zip(images) {
                s.restore(&drive.log, live, image)?;
            }

            drive.sync_locked(inner)?;
            drive.anchor_locked(inner)?;
        }
        // The image may carry an in-doubt transaction log (a resync
        // racing 2PC is excluded by the array's transaction gate, but a
        // restored image from a crashed member may include one).
        drive.rebuild_txn_state()?;
        Ok(drive)
    }

    /// Digest of one live object's *logical* current version (admin
    /// only): FNV-1a over creation/modification times, size, contents,
    /// attributes, and ACL. Unlike [`S4Drive::state_digest`] it avoids
    /// physical block addresses and sequence numbers, so two mirrored
    /// members — whose layouts differ — can be compared object by object
    /// after a resync.
    pub fn object_digest(&self, ctx: &RequestContext, oid: ObjectId) -> Result<u64> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            let meta = &entry.meta;
            if !meta.is_live() {
                return Err(S4Error::NoSuchObject);
            }
            let mut h = Fnv::new();
            h.u64(meta.created.time.as_micros());
            h.u64(meta.modified.time.as_micros());
            h.u64(meta.size);
            h.bytes(&self.read_extent(entry, meta, 0, meta.size)?);
            h.u64(meta.attrs.len() as u64);
            h.bytes(&meta.attrs);
            h.u64(meta.acl.len() as u64);
            h.bytes(&meta.acl);
            Ok(h.0)
        })
    }

    /// Ids of every live (non-deleted) object, ascending (admin only) —
    /// the enumeration a resync verification walks, comparing
    /// [`S4Drive::object_digest`] across the mirror pair.
    pub fn live_object_ids(&self, ctx: &RequestContext) -> Result<Vec<u64>> {
        self.require_admin(ctx)?;
        let inner = self.inner.lock();
        Ok(inner
            .table
            .iter()
            .filter(|(_, slot)| match slot {
                Slot::Cached(e) => e.meta.is_live(),
                Slot::Evicted(info) => info.deleted.is_none(),
            })
            .map(|(&oid, _)| oid)
            .collect())
    }

    // ------------------------------------------------------------------
    // Online reshard: snapshot/catch-up readback and stamped replay
    // (DESIGN §6h). These sit next to the resync surface because they
    // move the same logical unit — one object's current (or historical)
    // version — but one object at a time, against a live drive.
    // ------------------------------------------------------------------

    /// The next oid this drive would hand out (admin only). A reshard
    /// flip raises the target's counter to the source's so oids whose
    /// history lives only on the source are never reissued.
    pub fn next_oid(&self, ctx: &RequestContext) -> Result<u64> {
        self.require_admin(ctx)?;
        Ok(self.inner.lock().next_oid)
    }

    /// Raises the drive's next-oid counter to at least `v` (admin only).
    /// Never lowers it — oids are single-use for the drive's lifetime.
    pub fn raise_next_oid(&self, ctx: &RequestContext, v: u64) -> Result<()> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        inner.next_oid = inner.next_oid.max(v);
        Ok(())
    }

    /// Exports one object's logical state for reshard migration (admin
    /// only): the version current now (`at == None`) or at the snapshot
    /// instant (`at == Some(t)`, served from the history pool like any
    /// time-based read). Returns `Ok(None)` if the object does not
    /// exist, is deleted, or had not yet been created at `t` — the
    /// caller treats all three as "nothing to copy". An instant below
    /// the history floor is an error: the snapshot time must sit inside
    /// the detection window.
    pub fn reshard_export(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        at: Option<SimTime>,
    ) -> Result<Option<ResyncObject>> {
        self.require_admin(ctx)?;
        self.export_object(&mut self.inner.lock(), ctx, oid, at)
    }

    /// [`S4Drive::reshard_export`] under the caller's lock and admin
    /// check — also each object's share of [`S4Drive::resync_image`].
    fn export_object(
        &self,
        inner: &mut Inner,
        ctx: &RequestContext,
        oid: ObjectId,
        at: Option<SimTime>,
    ) -> Result<Option<ResyncObject>> {
        let exported = self.with_object(inner, oid, |_, entry| {
            let meta = self.version_for(ctx, entry, at)?;
            if !meta.is_live() {
                return Ok(None);
            }
            Ok(Some(ResyncObject {
                oid: oid.0,
                created: meta.created.time,
                modified: meta.modified.time,
                content: self.read_extent(entry, &meta, 0, meta.size)?,
                attrs: meta.attrs,
                acl: meta.acl,
            }))
        });
        match exported {
            Err(S4Error::NoSuchObject) => Ok(None),
            r => r,
        }
    }

    /// Replays one exported object onto this drive (admin only),
    /// preserving its creation/modification *times* so post-reshard
    /// [`S4Drive::object_digest`] comparisons hold (the stamp sequence
    /// component stays drive-local, exactly as in mirror resync). A new
    /// oid is inserted fresh; an existing live object is overwritten in
    /// place with a stamped truncate-and-rewrite. A tombstoned oid is an
    /// error — oids are never reused.
    pub fn reshard_apply(&self, ctx: &RequestContext, obj: &ResyncObject) -> Result<()> {
        self.require_admin(ctx)?;
        let inner = &mut *self.inner.lock();
        if !inner.table.contains_key(&obj.oid) {
            self.insert_exported(inner, obj)?;
            inner.next_oid = inner.next_oid.max(obj.oid + 1);
            return Ok(());
        }
        self.with_object(inner, ObjectId(obj.oid), |inner, entry| {
            if !entry.meta.is_live() {
                return Err(S4Error::BadRequest("reshard apply onto a deleted object"));
            }
            self.converge(inner, entry, &obj.content, &obj.attrs, &obj.acl, Some(obj.modified))
        })
    }

    /// Inserts an exported object under its own id, carrying its
    /// creation/modification *times* — the replay step shared by mirror
    /// resync and reshard migration.
    fn insert_exported(&self, inner: &mut Inner, obj: &ResyncObject) -> Result<()> {
        self.insert_new(inner, obj.oid, self.stamp_at(Some(obj.created)));
        self.with_object(inner, ObjectId(obj.oid), |inner, entry| {
            // The ACL belongs to the creating instant, as in `op_create`.
            if !obj.acl.is_empty() {
                let set = JournalEntry::SetAcl {
                    stamp: self.stamp_at(Some(obj.created)),
                    old: Vec::new(),
                    new: obj.acl.clone(),
                };
                self.commit(entry, set);
            }
            self.converge(inner, entry, &obj.content, &obj.attrs, &obj.acl, Some(obj.modified))
        })
    }

    /// Walks an object's retained journal history, oldest first: one
    /// [`VersionRecord`] per in-window mutation. Requires admin (the
    /// forensic path) or `RECOVERY` permission on the current ACL.
    pub fn version_history(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
    ) -> Result<Vec<VersionRecord>> {
        self.check_not_reserved(oid)?;
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            self.authorize(ctx, entry, Perm::RECOVERY)?;
            let mut out = Vec::new();
            for s in &entry.sectors {
                let (_oid, entries) = read_subsector(&self.log, s.addr, s.slot)?;
                out.extend(entries.iter().map(VersionRecord::from_entry));
            }
            out.extend(entry.pending.iter().map(VersionRecord::from_entry));
            Ok(out)
        })
    }

    // ------------------------------------------------------------------
    // Maintenance: expiry and cleaning.
    // ------------------------------------------------------------------

    /// Releases every version older than the detection window; returns
    /// the number of blocks released. This is the scan the paper's
    /// cleaner performs over the object map (§4.2.1).
    pub fn expire_versions(&self) -> Result<u64> {
        let mut inner = self.inner.lock();
        let now = self.clock.now();
        let window = inner.window;
        let cutoff = HybridTimestamp::upper_bound_at(now.saturating_sub(window));
        let oids: Vec<u64> = inner.table.keys().copied().collect();
        let mut released = 0u64;
        for oid in oids {
            released += self.expire_object(&mut inner, ObjectId(oid), cutoff)?;
        }
        self.stats.expired_blocks(released);
        Ok(released)
    }

    /// Runs one cleaner pass (expiry first, then segment reclamation).
    pub fn clean(&self) -> Result<CleanOutcome> {
        self.expire_versions()?;
        let cb = DriveCallbacks { drive: self };
        let outcome = self
            .cleaner
            .clean_pass(&self.log, &cb)
            .map_err(S4Error::from)?;
        self.stats
            .cleaner_relocations(outcome.blocks_relocated as u64);
        self.stats
            .cleaner_segments((outcome.dead_freed + outcome.copied_segments) as u64);
        Ok(outcome)
    }

    /// Re-encodes history-pool data blocks as cross-version deltas
    /// against their successor versions, releasing the original blocks —
    /// the differencing pass the paper proposes for the S4 cleaner
    /// (§4.2.2). Only deltas smaller than half a block are kept; other
    /// versions stay plain. Returns `(blocks_encoded, blocks_released)`.
    pub fn compact_history(&self) -> Result<(u64, u64)> {
        let inner = &mut *self.inner.lock();
        // Pack pending entries so the journal reflects every mutation.
        let oids: Vec<u64> = inner.table.keys().copied().collect();
        self.pack_objects(inner, &oids)?;
        // Collected payloads: object, delta bytes, (key, base).
        let mut payloads: Vec<packed::Item<(u64, BlockAddr)>> = Vec::new();
        for oid in oids {
            // An object that cannot be loaded or read is skipped, not fatal.
            let _ = self.with_object(inner, ObjectId(oid), |inner, entry| {
                // Build per-lbn history chains (oldest first) from the
                // retained journal.
                let mut chains: BTreeMap<u64, Vec<BlockAddr>> = BTreeMap::new();
                for s in &entry.sectors {
                    let (_o, entries) = read_subsector(&self.log, s.addr, s.slot)?;
                    for c in entries.iter().flat_map(old_blocks) {
                        chains.entry(c.lbn).or_default().push(c.old);
                    }
                }
                for (lbn, olds) in chains {
                    // Successor of the newest old is the current block (if
                    // any); each older version's successor is the next old.
                    let mut seq: Vec<BlockAddr> = olds;
                    if let Some(&cur) = entry.meta.blocks.get(&lbn) {
                        seq.push(cur);
                    }
                    if seq.len() < 2 {
                        continue;
                    }
                    // Newest-first pairs: (target = seq[i], base = seq[i+1]).
                    let mut succ_content: Option<Vec<u8>> = None;
                    for i in (0..seq.len() - 1).rev() {
                        let target = entry.resolve_forward(seq[i]);
                        let base = entry.resolve_forward(seq[i + 1]);
                        if target == base
                            || entry.deltas.contains_key(&target.0)
                            || !inner.live.contains(&target.0)
                            || entry.is_landmark_block(target)
                        {
                            succ_content = None;
                            continue;
                        }
                        let base_content = match succ_content.take() {
                            Some(c) => c,
                            None => match self.materialize_block(entry, base) {
                                Ok(c) => c,
                                Err(_) => continue,
                            },
                        };
                        let Ok(target_content) = self.materialize_block(entry, target) else {
                            continue;
                        };
                        let delta = s4_delta::diff(&base_content, &target_content);
                        let enc = delta.encode();
                        if enc.len() + 16 <= BLOCK_SIZE / 2 {
                            let mut payload = Vec::with_capacity(16 + enc.len());
                            payload.extend_from_slice(&oid.to_le_bytes());
                            payload.extend_from_slice(&target.0.to_le_bytes());
                            payload.extend_from_slice(&enc);
                            payloads.push((oid, payload, (target.0, base)));
                        }
                        succ_content = Some(target_content);
                    }
                }
                Ok(())
            });
        }

        // Pack delta payloads into shared blocks and install references;
        // every encoded block releases its original.
        let mut encoded = 0u64;
        let Inner {
            table,
            live,
            dblocks,
            ..
        } = inner;
        dblocks.pack(
            &self.log,
            live,
            payloads,
            |live, block, slot, oid, (key, base)| {
                if let Some(Slot::Cached(entry)) = table.get_mut(&oid) {
                    entry.deltas.insert(key, DeltaRef { base, block, slot });
                    entry.needs_checkpoint = true;
                    entry.dirty = true;
                    // The original block's bytes are no longer needed.
                    live.remove(&key);
                    self.log.release_blocks([BlockAddr(key)]);
                    encoded += 1;
                }
            },
        )?;
        self.log.flush()?;
        Ok((encoded, encoded))
    }

    /// Pins the version of `oid` current at `time` as a *landmark*
    /// (§6's proposed combination with Elephant-style long-term
    /// versioning): the version's metadata is materialized and its blocks
    /// survive detection-window expiry until the landmark is removed.
    /// Requires OWNER permission (or the administrator).
    pub fn op_mark_landmark(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        time: SimTime,
    ) -> Result<()> {
        self.check_not_reserved(oid)?;
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |inner, entry| {
            self.authorize(ctx, entry, Perm::OWNER)?;
            let meta = self.version_at(entry, time)?;
            if entry.landmarks.iter().any(|m| m.modified == meta.modified) {
                return Ok(()); // already pinned
            }
            // Materialize any delta-encoded blocks: a landmark must not
            // depend on expirable delta bases.
            let mut meta = meta;
            let lbns: Vec<u64> = meta.blocks.keys().copied().collect();
            for lbn in lbns {
                let addr = meta.blocks[&lbn];
                let resolved = entry.resolve_forward(addr);
                if entry.deltas.contains_key(&resolved.0) {
                    let new = self.rematerialize(inner, entry, resolved, lbn)?;
                    meta.blocks.insert(lbn, new);
                } else {
                    meta.blocks.insert(lbn, resolved);
                }
            }
            entry.landmarks.push(meta);
            entry.landmarks.sort_by_key(|m| m.modified);
            entry.needs_checkpoint = true;
            entry.dirty = true;
            Ok(())
        })
    }

    /// Removes the landmark pinned at exactly `modified` (as reported by
    /// [`S4Drive::landmarks`]); its blocks become ordinary history again
    /// (releasable if no longer referenced).
    pub fn op_unmark_landmark(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        modified: SimTime,
    ) -> Result<()> {
        self.check_not_reserved(oid)?;
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |inner, entry| {
            self.authorize(ctx, entry, Perm::OWNER)?;
            let before = entry.landmarks.len();
            let removed: Vec<ObjectMeta> = entry
                .landmarks
                .iter()
                .filter(|m| m.modified.time == modified)
                .cloned()
                .collect();
            entry.landmarks.retain(|m| m.modified.time != modified);
            if entry.landmarks.len() == before {
                return Err(S4Error::NoSuchObject);
            }
            // Blocks that only the landmark kept alive: if they are not
            // referenced by current state and their journal entries have
            // already expired, release them now.
            for m in removed {
                for (_lbn, addr) in m.blocks {
                    if entry.is_landmark_block(addr) {
                        continue; // still pinned by another landmark
                    }
                    let current = entry.meta.blocks.values().any(|&a| a == addr);
                    let retained_floor = entry.history_floor;
                    if !current && m.modified <= retained_floor {
                        inner.live.remove(&addr.0);
                        self.log.release_blocks([addr]);
                    }
                }
            }
            entry.needs_checkpoint = true;
            entry.dirty = true;
            Ok(())
        })
    }

    /// Lists an object's landmark versions as `(modified, size)` pairs.
    pub fn landmarks(&self, ctx: &RequestContext, oid: ObjectId) -> Result<Vec<(SimTime, u64)>> {
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            self.authorize(ctx, entry, Perm::READ)?;
            Ok(entry
                .landmarks
                .iter()
                .map(|m| (m.modified.time, m.size))
                .collect())
        })
    }

    /// Forces an anchor now (used by orderly shutdown, tests, and
    /// experiments that want pending-free segments promoted).
    pub fn force_anchor(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.sync_locked(&mut inner)?;
        self.anchor_locked(&mut inner)
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn check_not_reserved(&self, oid: ObjectId) -> Result<()> {
        if oid == AUDIT_OBJECT || oid == PARTITION_OBJECT || oid == ALERT_OBJECT
            || oid == TRACE_OBJECT || oid == TXN_OBJECT
        {
            return Err(S4Error::AccessDenied);
        }
        Ok(())
    }

    fn throttle(&self, ctx: &RequestContext, bytes: u64) {
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

    fn authorize(&self, ctx: &RequestContext, entry: &ObjectEntry, need: Perm) -> Result<()> {
        if self.is_admin(ctx) {
            return Ok(());
        }
        let table = AclTable::decode(&entry.meta.acl)?;
        if table.perms_of(ctx.user).includes(need) {
            Ok(())
        } else {
            Err(S4Error::AccessDenied)
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
        if self.is_admin(ctx) {
            return Ok(());
        }
        let is_current = entry.meta.is_live() && version.modified == entry.meta.modified;
        let table = AclTable::decode(&version.acl)?;
        let need = if is_current {
            Perm::READ
        } else {
            Perm::READ.union(Perm::RECOVERY)
        };
        if table.perms_of(ctx.user).includes(need) {
            Ok(())
        } else {
            Err(S4Error::AccessDenied)
        }
    }

    fn acl_table_at(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        time: Option<SimTime>,
    ) -> Result<AclTable> {
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |_, entry| {
            AclTable::decode(&self.version_for(ctx, entry, time)?.acl)
        })
    }

    /// Loads an evicted object back into the cache.
    fn ensure_cached(&self, inner: &mut Inner, oid: ObjectId) -> Result<()> {
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
    fn cached_mut<'a>(&self, inner: &'a mut Inner, oid: u64) -> Option<&'a mut ObjectEntry> {
        self.ensure_cached(inner, ObjectId(oid)).ok()?;
        match inner.table.get_mut(&oid) {
            Some(Slot::Cached(entry)) => Some(entry),
            _ => None,
        }
    }

    /// Adds a fresh object to the table with its `Create` entry pending.
    fn insert_new(&self, inner: &mut Inner, oid: u64, stamp: HybridTimestamp) {
        let mut entry = ObjectEntry::new(ObjectMeta::new(oid, stamp));
        entry.pending.push(JournalEntry::Create { stamp });
        entry.last_used = inner.bump_lru();
        inner.table.insert(oid, Slot::Cached(Box::new(entry)));
    }

    /// The version of `entry` a request may see: the current one needs
    /// READ; the one current at `time` is materialized from the history
    /// pool and needs what [`S4Drive::authorize_historical`] asks.
    /// Whether a deleted version is an answer is the caller's call.
    fn version_for(
        &self,
        ctx: &RequestContext,
        entry: &ObjectEntry,
        time: Option<SimTime>,
    ) -> Result<ObjectMeta> {
        let Some(t) = time else {
            self.authorize(ctx, entry, Perm::READ)?;
            return Ok(entry.meta.clone());
        };
        self.stats.time_based_reads(1);
        let meta = self.version_at(entry, t)?;
        self.authorize_historical(ctx, entry, &meta)?;
        Ok(meta)
    }

    /// Reads `[offset, offset+len)` of the given version's data.
    fn read_extent(
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

    /// Fetches the bytes of `addr` for `entry`, materializing through the
    /// forwarding map and any cross-version delta encoding (§4.2.2: "for
    /// subsequent reads of old versions, the data for each block must be
    /// recreated as the entries are traversed").
    fn materialize_block(&self, entry: &ObjectEntry, addr: BlockAddr) -> Result<Vec<u8>> {
        let addr = entry.resolve_forward(addr);
        let Some(&dref) = entry.deltas.get(&addr.0) else {
            return Ok(self.log.read_block(addr)?.to_vec());
        };
        let base = self.materialize_block(entry, dref.base)?;
        let dblock = self.log.read_block(dref.block)?;
        let subs = packed::DELTAS.split(&dblock)?;
        let sub = subs
            .get(dref.slot as usize)
            .ok_or(S4Error::BadRequest("delta slot out of range"))?;
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

    /// Releases one history block: removes delta encodings, re-bases any
    /// deltas that used this block as their source, drops forwarding, and
    /// frees the storage. Returns blocks released.
    fn release_history_block(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        old: BlockAddr,
    ) -> Result<u64> {
        let key = entry.resolve_forward_and_prune(old);
        // Landmark-pinned blocks survive expiry and flushes.
        if entry.is_landmark_block(key) {
            return Ok(0);
        }
        // Delta-encoded: drop the reference; the real bytes were released
        // when the delta was installed.
        if let Some(dref) = entry.deltas.remove(&key.0) {
            return Ok(inner.dblocks.release_ref(&self.log, &mut inner.live, dref.block));
        }
        // Blocks whose deltas are based on `key` must be re-materialized
        // before the base disappears.
        let dependents: Vec<u64> = entry
            .deltas
            .iter()
            .filter(|(_, d)| d.base == key)
            .map(|(&k, _)| k)
            .collect();
        let mut released = 0;
        for dep in dependents {
            let new = self.rematerialize(inner, entry, BlockAddr(dep), 0)?;
            let dref = entry.deltas.remove(&dep).expect("collected above");
            released += inner.dblocks.release_ref(&self.log, &mut inner.live, dref.block);
            entry.forwards.insert(dep, new.0);
            entry.needs_checkpoint = true;
        }
        inner.live.remove(&key.0);
        self.log.release_blocks([key]);
        Ok(released + 1)
    }

    /// Writes the bytes of delta-encoded `addr` back out as a plain data
    /// block (tagged `lbn`) and returns its address.
    fn rematerialize(
        &self,
        inner: &mut Inner,
        entry: &ObjectEntry,
        addr: BlockAddr,
        lbn: u64,
    ) -> Result<BlockAddr> {
        let data = self.materialize_block(entry, addr)?;
        let trimmed = data.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let tag = BlockTag::new(BlockKind::Data, entry.meta.id, lbn);
        let new = self.log.append(tag, &data[..trimmed])?;
        inner.live.insert(new.0);
        Ok(new)
    }

    /// The one place a mutation becomes a version: applies `e` to the
    /// current metadata and queues it for the next journal pack.
    fn commit(&self, entry: &mut ObjectEntry, e: JournalEntry) {
        redo(&mut entry.meta, &e);
        entry.pending.push(e);
        entry.dirty = true;
        self.stats.versions_created(1);
    }

    /// A fresh stamp: at `time` when the caller replays a source's
    /// history (the sequence component is drive-local), else now.
    fn stamp_at(&self, time: Option<SimTime>) -> HybridTimestamp {
        match time {
            Some(t) => HybridTimestamp::new(t, self.stamps.next_seq()),
            None => self.stamps.next(),
        }
    }

    /// Writes `data` at `offset` as one journaled mutation.
    fn write_extent(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.write_extent_stamped(inner, entry, offset, data, self.stamps.next())
    }

    /// [`S4Drive::write_extent`] with a caller-chosen stamp — resync
    /// replay uses this to reproduce the survivor's mutation *times* on a
    /// replacement drive (the sequence component is still drive-local).
    fn write_extent_stamped(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        offset: u64,
        data: &[u8],
        stamp: HybridTimestamp,
    ) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = BLOCK_SIZE as u64;
        let old_size = entry.meta.size;
        let new_size = old_size.max(offset + data.len() as u64);
        let first = offset / bs;
        let last = (offset + data.len() as u64 - 1) / bs;
        let mut changes = Vec::with_capacity((last - first + 1) as usize);
        for lbn in first..=last {
            let block_start = lbn * bs;
            let copy_from = offset.max(block_start);
            let copy_to = (offset + data.len() as u64).min(block_start + bs);
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
            let new = self
                .log
                .append(BlockTag::new(BlockKind::Data, entry.meta.id, lbn), &content)?;
            inner.live.insert(new.0);
            changes.push(PtrChange {
                lbn,
                old: old.unwrap_or(BlockAddr::NONE),
                new,
            });
        }
        let e = JournalEntry::Write {
            stamp,
            old_size,
            new_size,
            changes,
        };
        self.commit(entry, e);
        self.stats.bytes_written(data.len() as u64);
        Ok(())
    }

    fn truncate_inner(
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
        let e = JournalEntry::Truncate {
            stamp: self.stamps.next(),
            old_size: entry.meta.size,
            new_size: new_len,
            freed,
        };
        self.commit(entry, e);
        Ok(())
    }

    /// Makes the current version of `entry` equal `content`, `attrs` and
    /// `acl`, emitting only the journal entries that takes — the replay
    /// step shared by mirror resync, reshard migration and transaction
    /// compensation. `at` pins the entries' time: resync and reshard
    /// reproduce the source's modification *time* (the stamp sequence
    /// component stays drive-local), which [`S4Drive::object_digest`]
    /// covers, so a pinned time is itself part of the target. `None`
    /// stamps with the drive's clock, as compensation must.
    fn converge(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        content: &[u8],
        attrs: &[u8],
        acl: &[u8],
        at: Option<SimTime>,
    ) -> Result<()> {
        let current = self.read_extent(entry, &entry.meta, 0, entry.meta.size)?;
        if current != content || at.is_some_and(|t| entry.meta.modified.time != t) {
            // Wipe, then rewrite whole. truncate_inner is unusable here:
            // it self-stamps (and its partial-block tail zeroing writes
            // at "now"), which would move a pinned modification time. A
            // fresh object has nothing to wipe; an empty target has
            // nothing to write (an empty write is a no-op), so there the
            // truncate alone carries the stamp.
            if entry.meta.size > 0 || content.is_empty() {
                let freed = entry.meta.blocks.iter().map(|(&lbn, &old)| PtrChange {
                    lbn,
                    old,
                    new: BlockAddr::NONE,
                });
                let e = JournalEntry::Truncate {
                    stamp: self.stamp_at(at),
                    old_size: entry.meta.size,
                    new_size: 0,
                    freed: freed.collect(),
                };
                self.commit(entry, e);
            }
            self.write_extent_stamped(inner, entry, 0, content, self.stamp_at(at))?;
        }
        if entry.meta.attrs != attrs {
            let e = JournalEntry::SetAttr {
                stamp: self.stamp_at(at),
                old: entry.meta.attrs.clone(),
                new: attrs.to_vec(),
            };
            self.commit(entry, e);
        }
        if entry.meta.acl != acl {
            let e = JournalEntry::SetAcl {
                stamp: self.stamp_at(at),
                old: entry.meta.acl.clone(),
                new: acl.to_vec(),
            };
            self.commit(entry, e);
        }
        Ok(())
    }

    /// Materializes the version of `entry` current at `t`, falling back
    /// to pinned landmark versions for instants below the history floor.
    fn version_at(&self, entry: &ObjectEntry, t: SimTime) -> Result<ObjectMeta> {
        let bound = HybridTimestamp::upper_bound_at(t);
        if bound <= entry.history_floor {
            // The journal no longer reaches t; a landmark may.
            if let Some(m) = entry.landmarks.iter().rev().find(|m| m.modified <= bound) {
                return Ok(m.clone());
            }
            return Err(S4Error::VersionUnavailable);
        }
        let mut meta = entry.meta.clone();
        let mut boundary: Option<HybridTimestamp> = None;
        let mut done = false;
        for e in entry.pending.iter().rev() {
            if e.stamp() <= bound {
                boundary = Some(e.stamp());
                done = true;
                break;
            }
            if !undo(&mut meta, e) {
                return Err(S4Error::NoSuchObject);
            }
        }
        if !done {
            for s in entry.sectors.iter().rev() {
                if s.newest <= bound {
                    boundary = Some(s.newest);
                    break;
                }
                let (_oid, entries) = read_subsector(&self.log, s.addr, s.slot)?;
                for e in entries.iter().rev() {
                    if e.stamp() <= bound {
                        boundary = Some(e.stamp());
                        done = true;
                        break;
                    }
                    if !undo(&mut meta, e) {
                        return Err(S4Error::NoSuchObject);
                    }
                }
                if done {
                    break;
                }
            }
        }
        if meta.created > bound {
            return Err(S4Error::NoSuchObject);
        }
        meta.modified = boundary.unwrap_or(meta.created);
        Ok(meta)
    }

    /// Releases an entry's current checkpoint storage (chain blocks, or
    /// one reference on a shared block).
    fn release_checkpoint(&self, inner: &mut Inner, entry: &mut ObjectEntry) {
        if entry.checkpoint_root.is_none() {
            return;
        }
        if entry.checkpoint_slot != u32::MAX {
            let root = entry.checkpoint_root;
            inner.cpblocks.release_ref(&self.log, &mut inner.live, root);
        } else {
            for old in entry.checkpoint_blocks.drain(..) {
                inner.live.remove(&old.0);
                self.log.release_blocks([old]);
            }
        }
        entry.checkpoint_root = BlockAddr::NONE;
        entry.checkpoint_slot = u32::MAX;
        entry.checkpoint_blocks.clear();
    }

    /// Writes fresh metadata checkpoints for `oids`, packing small blobs
    /// into shared checkpoint blocks (several objects per 4 KiB block,
    /// mirroring the paper's sector-sized on-disk inodes) and spilling
    /// large blobs into dedicated chains. The entries are checkpointed
    /// where they live, in the table: a caller that holds one lifted out
    /// (see [`S4Drive::with_object`]) calls this before or after, not
    /// inside.
    fn pack_checkpoints(&self, inner: &mut Inner, oids: &[u64]) -> Result<()> {
        let mut small: Vec<packed::Item<()>> = Vec::new();
        for &oid in oids {
            let shared = self.with_object(inner, ObjectId(oid), |inner, entry| {
                let blob = entry.encode();
                self.release_checkpoint(inner, entry);
                if blob.len() > SHARED_CP_THRESHOLD {
                    // Dedicated chain, written back-to-front.
                    let chunks: Vec<&[u8]> = blob.chunks(CHECKPOINT_CHUNK).collect();
                    let mut next = BlockAddr::NONE;
                    let mut new_blocks = Vec::with_capacity(chunks.len());
                    for (i, chunk) in chunks.iter().enumerate().rev() {
                        let mut payload = Vec::with_capacity(12 + chunk.len());
                        payload.extend_from_slice(&next.0.to_le_bytes());
                        payload.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
                        payload.extend_from_slice(chunk);
                        next = self.log.append(
                            BlockTag::new(BlockKind::ObjectCheckpoint, oid, i as u64),
                            &payload,
                        )?;
                        inner.live.insert(next.0);
                        new_blocks.push(next);
                    }
                    entry.checkpoint_root = next;
                    entry.checkpoint_blocks = new_blocks;
                    self.stats.checkpoints(1);
                }
                entry.dirty = false;
                entry.needs_checkpoint = false;
                Ok((blob.len() <= SHARED_CP_THRESHOLD).then_some(blob))
            })?;
            small.extend(shared.map(|blob| (oid, blob, ())));
        }
        let Inner {
            table,
            live,
            cpblocks,
            ..
        } = inner;
        cpblocks.pack(&self.log, live, small, |_, addr, slot, oid, ()| {
            if let Some(Slot::Cached(entry)) = table.get_mut(&oid) {
                entry.checkpoint_root = addr;
                entry.checkpoint_slot = slot;
            }
            self.stats.checkpoints(1);
        })
    }

    /// Packs the pending journal entries of `oids` into shared journal
    /// blocks (several objects' sectors per 4 KiB block, §4.2.2).
    fn pack_objects(&self, inner: &mut Inner, oids: &[u64]) -> Result<()> {
        // Journal span: simulated time across packing, including any
        // log auto-flush the appends trigger.
        let journal_t0 = self.clock.now().as_micros();
        // Per sector: its oldest and newest stamp.
        let mut items: Vec<packed::Item<(HybridTimestamp, HybridTimestamp)>> = Vec::new();
        for &oid in oids {
            let Some(Slot::Cached(entry)) = inner.table.get_mut(&oid) else {
                continue;
            };
            if entry.pending.is_empty() {
                continue;
            }
            for s in encode_sectors(&entry.pending) {
                let span = (
                    s.entries.first().expect("non-empty").stamp(),
                    s.entries.last().expect("non-empty").stamp(),
                );
                items.push((oid, s.finish(oid, entry.meta.journal_head), span));
            }
            entry.pending.clear();
            entry.dirty = true;
        }
        if items.is_empty() {
            return Ok(());
        }
        let Inner {
            table,
            live,
            jblocks,
            ..
        } = inner;
        jblocks.pack(
            &self.log,
            live,
            items,
            |_, addr, slot, oid, (oldest, newest)| {
                if let Some(Slot::Cached(entry)) = table.get_mut(&oid) {
                    entry.sectors.push(SectorInfo {
                        addr,
                        slot,
                        oldest,
                        newest,
                    });
                    entry.meta.journal_head = addr;
                }
                self.stats.journal_sectors(1);
            },
        )?;
        s4_obs::span::charge(
            s4_obs::Layer::Journal,
            self.clock.now().as_micros() - journal_t0,
        );
        Ok(())
    }

    /// Cached objects with journal entries not yet packed to a sector.
    fn pending_oids(inner: &Inner) -> Vec<u64> {
        inner
            .table
            .iter()
            .filter_map(|(&oid, slot)| match slot {
                Slot::Cached(e) if !e.pending.is_empty() => Some(oid),
                _ => None,
            })
            .collect()
    }

    /// Sync: pack all pending journal entries, flush the log, and perform
    /// periodic anchoring / object-cache eviction.
    fn sync_locked(&self, inner: &mut Inner) -> Result<()> {
        self.pack_objects(inner, &Self::pending_oids(inner))?;
        self.log.flush()?;
        self.stats.syncs(1);
        inner.syncs_since_anchor += 1;
        if inner.syncs_since_anchor >= self.config.anchor_interval_syncs {
            self.anchor_locked(inner)?;
        }
        self.evict_excess(inner)?;
        Ok(())
    }

    /// Evicts least-recently-used objects beyond the object-cache limit,
    /// checkpointing them first (§4.2.2: "an object's metadata is
    /// checkpointed to a log segment before being evicted from the
    /// cache").
    fn evict_excess(&self, inner: &mut Inner) -> Result<()> {
        let limit = self.config.object_cache_entries.max(1);
        loop {
            let cached: Vec<(u64, u64)> = inner
                .table
                .iter()
                .filter_map(|(&oid, slot)| match slot {
                    Slot::Cached(e) => Some((e.last_used, oid)),
                    _ => None,
                })
                .collect();
            if cached.len() <= limit {
                return Ok(());
            }
            let (_, victim) = cached.iter().copied().min().expect("non-empty");
            self.pack_objects(inner, &[victim])?;
            let stale = self.with_object(inner, ObjectId(victim), |_, entry| {
                Ok(entry.dirty || entry.checkpoint_root.is_none())
            })?;
            if stale {
                self.pack_checkpoints(inner, &[victim])?;
            }
            let info = self.with_object(inner, ObjectId(victim), |_, entry| {
                Ok(EvictInfo {
                    checkpoint_root: entry.checkpoint_root,
                    checkpoint_slot: entry.checkpoint_slot,
                    expiry_hint: entry.expiry_hint(),
                    deleted: entry.meta.deleted,
                })
            })?;
            // The one place a cached entry is retired on purpose: its
            // checkpoint now says everything the entry did.
            inner.table.insert(victim, Slot::Evicted(info));
        }
    }

    /// Writes a drive anchor: ensures every object is recoverable
    /// (first-time and relocation-dirtied objects get fresh checkpoints;
    /// everything else is covered by its checkpoint plus the anchored
    /// sector list), then persists the object map through the log's
    /// anchor mechanism.
    fn anchor_locked(&self, inner: &mut Inner) -> Result<()> {
        // Pack any pending journal entries first.
        self.pack_objects(inner, &Self::pending_oids(inner))?;

        // Checkpoint objects that a crash could not otherwise recover: a
        // checkpoint-less object is fine as long as its full journal
        // history (starting at its Create entry) is retained.
        let need_cp: Vec<u64> = inner
            .table
            .iter()
            .filter_map(|(&oid, slot)| match slot {
                Slot::Cached(e)
                    if e.needs_checkpoint
                        || (e.checkpoint_root.is_none()
                            && e.history_floor != HybridTimestamp::ZERO) =>
                {
                    Some(oid)
                }
                _ => None,
            })
            .collect();
        self.pack_checkpoints(inner, &need_cp)?;

        // Persist the buffered stream tails so audit records and alerts
        // survive restarts, and the persisted trace stream stays an exact
        // prefix of the request stream across an orderly shutdown.
        let (streams, live) = inner.streams_mut();
        for s in streams {
            if s.spill_tail(&self.log, live)? && s.oid() == AUDIT_OBJECT.0 {
                self.stats.audit_blocks(1);
            }
        }

        let payload = encode_anchor_payload(inner);
        self.log.write_anchor(
            &payload,
            self.stamps.peek_seq(),
            self.clock.now().as_micros(),
        )?;
        inner.syncs_since_anchor = 0;
        self.stats.anchors(1);
        Ok(())
    }

    /// Expires the history of one object up to `cutoff`.
    fn expire_object(
        &self,
        inner: &mut Inner,
        oid: ObjectId,
        cutoff: HybridTimestamp,
    ) -> Result<u64> {
        // Skip loading evicted objects that cannot have expirable state.
        if let Some(Slot::Evicted(info)) = inner.table.get(&oid.0) {
            let deletable = info.deleted.is_some_and(|d| d <= cutoff);
            if info.expiry_hint > cutoff && !deletable {
                return Ok(0);
            }
        }
        // Dropping journal prefix makes the object unrecoverable from the
        // journal alone: persist a checkpoint first (unless the whole
        // object is about to disappear).
        let needs_checkpoint = self.with_object(inner, oid, |_, entry| {
            let fully_expiring = entry.meta.deleted.is_some_and(|d| d <= cutoff)
                && entry.pending.is_empty()
                && entry.sectors.last().is_none_or(|s| s.newest <= cutoff);
            Ok(!fully_expiring
                && entry.checkpoint_root.is_none()
                && entry.sectors.first().is_some_and(|s| s.newest <= cutoff))
        })?;
        if needs_checkpoint {
            self.pack_checkpoints(inner, &[oid.0])?;
        }
        let (released, fully_expired) = self.with_object(inner, oid, |inner, entry| {
            let mut released = 0u64;
            while let Some(first) = entry.sectors.first().copied() {
                if first.newest > cutoff {
                    break;
                }
                let (_oid, entries) = read_subsector(&self.log, first.addr, first.slot)?;
                for c in entries.iter().flat_map(old_blocks) {
                    released += self.release_history_block(inner, entry, c.old)?;
                }
                released += inner
                    .jblocks
                    .release_ref(&self.log, &mut inner.live, first.addr);
                entry.history_floor = first.newest;
                entry.sectors.remove(0);
                entry.dirty = true;
            }
            // A deleted object whose entire history has aged out disappears.
            let fully_expired = entry.meta.deleted.is_some_and(|d| d <= cutoff)
                && entry.sectors.is_empty()
                && entry.pending.is_empty()
                && entry.landmarks.is_empty();
            if fully_expired {
                let addrs: Vec<BlockAddr> = entry.meta.blocks.values().copied().collect();
                for a in addrs {
                    released += self.release_history_block(inner, entry, a)?;
                }
                self.release_checkpoint(inner, entry);
                released += 1;
            }
            Ok((released, fully_expired))
        })?;
        if fully_expired {
            // The other place an entry is retired on purpose, and only
            // after everything it referenced was released without error.
            inner.table.remove(&oid.0);
        }
        Ok(released)
    }

    /// Rewrites one object's history with versions in `[from, to]`
    /// removed (the chain surgery behind `Flush`/`FlushO`).
    fn flush_object_range(
        &self,
        inner: &mut Inner,
        oid: ObjectId,
        from: SimTime,
        to: SimTime,
    ) -> Result<()> {
        let lo = HybridTimestamp::new(from, 0);
        let hi = HybridTimestamp::upper_bound_at(to);
        let rewritten = self.with_object(inner, oid, |inner, entry| {
            self.drop_versions(inner, entry, lo, hi)
        })?;
        if rewritten {
            self.pack_objects(inner, &[oid.0])?;
        }
        Ok(())
    }

    /// The chain surgery of [`S4Drive::flush_object_range`] on one lifted
    /// entry; returns whether the history was rewritten (and so waits in
    /// `pending` to be repacked).
    fn drop_versions(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        lo: HybridTimestamp,
        hi: HybridTimestamp,
    ) -> Result<bool> {
        // Collect the object's full retained history, oldest first.
        let mut all: Vec<JournalEntry> = Vec::new();
        for s in &entry.sectors {
            all.extend(read_subsector(&self.log, s.addr, s.slot)?.1);
        }
        all.extend(entry.pending.iter().cloned());

        // Pass 1 (newest -> oldest): an in-range entry is droppable only
        // if every item it touches is superseded by a kept, later entry;
        // Create/Delete are never dropped.
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Item {
            Lbn(u64),
            Attrs,
            Acl,
            Size,
        }
        fn items_of(e: &JournalEntry) -> Vec<Item> {
            match e {
                JournalEntry::Write { changes, .. } => {
                    let mut v: Vec<Item> = changes.iter().map(|c| Item::Lbn(c.lbn)).collect();
                    v.push(Item::Size);
                    v
                }
                JournalEntry::Truncate { freed, .. } => {
                    let mut v: Vec<Item> = freed.iter().map(|c| Item::Lbn(c.lbn)).collect();
                    v.push(Item::Size);
                    v
                }
                JournalEntry::SetAttr { .. } => vec![Item::Attrs],
                JournalEntry::SetAcl { .. } => vec![Item::Acl],
                _ => Vec::new(),
            }
        }
        let mut superseded: HashSet<Item> = HashSet::new();
        let mut drop_flags = vec![false; all.len()];
        for (i, e) in all.iter().enumerate().rev() {
            let items = items_of(e);
            let in_range = e.stamp() >= lo && e.stamp() <= hi;
            let droppable = in_range
                && !items.is_empty()
                && items.iter().all(|it| superseded.contains(it))
                && !matches!(e, JournalEntry::Create { .. } | JournalEntry::Delete { .. });
            if droppable {
                drop_flags[i] = true;
            } else {
                for it in items {
                    superseded.insert(it);
                }
            }
        }
        if !drop_flags.iter().any(|&d| d) {
            return Ok(false);
        }

        // Pass 2 (oldest -> newest): rewrite kept entries' old fields to
        // skip dropped versions, and release the dropped blocks.
        let mut last_val: HashMap<u64, BlockAddr> = HashMap::new();
        let mut last_attrs: Option<Vec<u8>> = None;
        let mut last_acl: Option<Vec<u8>> = None;
        let mut last_size: Option<u64> = None;
        let mut kept: Vec<JournalEntry> = Vec::with_capacity(all.len());
        let mut to_release: Vec<BlockAddr> = Vec::new();
        for (i, mut e) in all.into_iter().enumerate() {
            let dropped = drop_flags[i];
            match &mut e {
                JournalEntry::Write {
                    old_size,
                    new_size,
                    changes,
                    ..
                }
                | JournalEntry::Truncate {
                    old_size,
                    new_size,
                    freed: changes,
                    ..
                } => {
                    for c in changes.iter_mut() {
                        let baseline = *last_val.entry(c.lbn).or_insert(c.old);
                        if dropped {
                            if !c.new.is_none() {
                                to_release.push(c.new);
                            }
                        } else {
                            c.old = baseline;
                            last_val.insert(c.lbn, c.new);
                        }
                    }
                    let size_baseline = *last_size.get_or_insert(*old_size);
                    if !dropped {
                        *old_size = size_baseline;
                        last_size = Some(*new_size);
                    }
                }
                JournalEntry::SetAttr { old, new, .. } => {
                    let baseline = last_attrs.get_or_insert_with(|| old.clone()).clone();
                    if !dropped {
                        *old = baseline;
                        last_attrs = Some(new.clone());
                    }
                }
                JournalEntry::SetAcl { old, new, .. } => {
                    let baseline = last_acl.get_or_insert_with(|| old.clone()).clone();
                    if !dropped {
                        *old = baseline;
                        last_acl = Some(new.clone());
                    }
                }
                _ => {}
            }
            if !dropped {
                kept.push(e);
            }
        }

        // Release dropped data blocks.
        for a in to_release {
            self.release_history_block(inner, entry, a)?;
        }
        // Release the old sector chain; the caller repacks the rewritten
        // history.
        for s in entry.sectors.drain(..) {
            inner
                .jblocks
                .release_ref(&self.log, &mut inner.live, s.addr);
        }
        entry.meta.journal_head = BlockAddr::NONE;
        entry.pending = kept;
        entry.dirty = true;
        entry.needs_checkpoint = true;
        Ok(true)
    }

    fn read_partitions(
        &self,
        inner: &mut Inner,
        time: Option<SimTime>,
    ) -> Result<Vec<(String, u64)>> {
        // The table is the drive's own object (its ACL is empty): the
        // drive reads it under its own authority, for any caller.
        let own = RequestContext::admin(ClientId(0), self.config.admin_token);
        self.with_object(inner, PARTITION_OBJECT, |_, entry| {
            let meta = self.version_for(&own, entry, time)?;
            let data = self.read_extent(entry, &meta, 0, meta.size)?;
            decode_partition_blob(&data)
        })
    }

    fn write_partitions(&self, inner: &mut Inner, parts: &[(String, u64)]) -> Result<()> {
        let blob = encode_partition_blob(parts);
        self.with_object(inner, PARTITION_OBJECT, |inner, entry| {
            let old_size = entry.meta.size;
            if !blob.is_empty() {
                self.write_extent(inner, entry, 0, &blob)?;
            }
            if old_size > blob.len() as u64 {
                self.truncate_inner(inner, entry, blob.len() as u64)?;
            }
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Cross-shard transactions (participant side of two-phase commit).
    //
    // The drive persists its 2PC state in [`TXN_OBJECT`], a journaled
    // table object, so the ordinary sync discipline gives each record a
    // crisp durability point. Abort is *forward compensation*: rather
    // than physically undoing journal entries (which would corrupt the
    // append-only history pool), the drive appends NEW entries that
    // restore every touched object to its state as of the transaction's
    // `t0` — self-securing even across its own rollbacks.
    // ------------------------------------------------------------------

    /// Opens participation in transaction `txid`: flushes a `Prepared`
    /// record and returns `t0`, the instant compensation would restore
    /// to. The clock is nudged one microsecond past `t0` so every effect
    /// of the transaction is stamped *strictly* after it.
    pub fn txn_begin(&self, txid: u64) -> Result<SimTime> {
        let t0 = self.clock.now();
        self.clock.advance(SimDuration::from_micros(1));
        self.txn_begin_at(txid, t0)?;
        Ok(t0)
    }

    /// [`txn_begin`](Self::txn_begin) with a caller-chosen `t0`. Mirror
    /// workers use this to record the *same* restore point on every
    /// member — the shared clock must already be strictly past `t0`, or
    /// the transaction's effects would not sort after it.
    pub fn txn_begin_at(&self, txid: u64, t0: SimTime) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.txn_pending.contains_key(&txid) {
            return Err(S4Error::BadRequest("duplicate transaction id"));
        }
        self.txn_append_record(
            &mut inner,
            &TxnRecord::Prepared {
                txid,
                t0_us: t0.as_micros(),
            },
        )?;
        inner.txn_pending.insert(
            txid,
            TxnPending {
                t0_us: t0.as_micros(),
                touched: None,
            },
        );
        Ok(())
    }

    /// Casts this drive's yes-vote for `txid`: the sub-batch executed,
    /// touching exactly `oids` and adding partition `names`. The
    /// `Touched` record is flushed (making the effects and their scope
    /// durable) before this returns, so a vote that reached the
    /// coordinator implies the effects survive any crash.
    pub fn txn_vote(&self, txid: u64, oids: Vec<u64>, names: Vec<String>) -> Result<()> {
        let mut inner = self.inner.lock();
        if !inner.txn_pending.contains_key(&txid) {
            return Err(S4Error::BadRequest("vote for unknown transaction"));
        }
        self.txn_append_record(
            &mut inner,
            &TxnRecord::Touched {
                txid,
                oids: oids.clone(),
                names: names.clone(),
            },
        )?;
        for &o in &oids {
            inner.txn_locks.insert(o, txid);
        }
        if let Some(p) = inner.txn_pending.get_mut(&txid) {
            p.touched = Some((oids, names));
        }
        Ok(())
    }

    /// Applies the coordinator's decision for `txid`. Commit is a pure
    /// bookkeeping step (the effects are already durable); abort runs
    /// compensation first, so a crash mid-abort leaves the transaction
    /// in doubt and recovery simply aborts it again (compensation is
    /// convergent). Unknown `txid` is an idempotent no-op — retried
    /// decisions and already-resolved mounts land here.
    pub fn txn_decide(&self, txid: u64, commit: bool) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(p) = inner.txn_pending.get(&txid) else {
            return Ok(());
        };
        if !commit {
            let t0_us = p.t0_us;
            let scope = p.touched.clone();
            self.txn_compensate(&mut inner, txid, t0_us, scope.as_ref())?;
        }
        self.txn_append_record(&mut inner, &TxnRecord::Resolved { txid, committed: commit })?;
        inner.txn_pending.remove(&txid);
        inner.txn_locks.retain(|_, t| *t != txid);
        if inner.txn_pending.is_empty() {
            self.txn_truncate_log(&mut inner)?;
        }
        Ok(())
    }

    /// The transactions this drive has prepared but not resolved, as
    /// `(txid, t0_us)` in prepare order. The array consults this at
    /// mount to drive decision-note recovery.
    pub fn txn_in_doubt(&self) -> Vec<(u64, u64)> {
        self.inner
            .lock()
            .txn_pending
            .iter()
            .map(|(&txid, p)| (txid, p.t0_us))
            .collect()
    }

    /// The in-flight transaction holding `oid`, if any. The dispatcher
    /// uses this to reject outside mutations of pinned objects.
    pub fn txn_lock_holder(&self, oid: ObjectId) -> Option<u64> {
        self.inner.lock().txn_locks.get(&oid.0).copied()
    }

    /// Appends `rec` to the transaction log and syncs, creating the log
    /// object lazily on first use (no dynamic-oid consumption — the id
    /// is a reserved sentinel).
    fn txn_append_record(&self, inner: &mut Inner, rec: &TxnRecord) -> Result<()> {
        if !inner.table.contains_key(&TXN_OBJECT.0) {
            self.insert_new(inner, TXN_OBJECT.0, self.stamps.next());
        }
        let mut bytes = Vec::new();
        rec.encode_into(&mut bytes);
        self.with_object(inner, TXN_OBJECT, |inner, entry| {
            let off = entry.meta.size;
            self.write_extent(inner, entry, off, &bytes)
        })?;
        self.sync_locked(inner)
    }

    /// Truncates the transaction log once nothing is pending. Lazy: the
    /// truncate rides the next sync; losing it merely leaves resolved
    /// records that the in-doubt fold ignores.
    fn txn_truncate_log(&self, inner: &mut Inner) -> Result<()> {
        if !inner.table.contains_key(&TXN_OBJECT.0) {
            return Ok(());
        }
        self.with_object(inner, TXN_OBJECT, |inner, entry| {
            if entry.meta.size > 0 {
                self.truncate_inner(inner, entry, 0)?;
            }
            Ok(())
        })
    }

    /// Rebuilds `txn_pending`/`txn_locks` from the recovered transaction
    /// log — called at mount and after a resync image restore.
    pub(crate) fn rebuild_txn_state(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.txn_pending.clear();
        inner.txn_locks.clear();
        if !inner.table.contains_key(&TXN_OBJECT.0) {
            return Ok(());
        }
        let log = self.with_object(&mut inner, TXN_OBJECT, |_, entry| {
            self.read_extent(entry, &entry.meta, 0, entry.meta.size)
        })?;
        let records = txnlog::scan(&log)
            .map_err(|_| S4Error::BadRequest("corrupt transaction log"))?;
        for t in txnlog::in_doubt(&records) {
            if let Some((oids, _)) = &t.touched {
                for &o in oids {
                    inner.txn_locks.insert(o, t.txid);
                }
            }
            inner.txn_pending.insert(
                t.txid,
                TxnPending {
                    t0_us: t.t0_us,
                    touched: t.touched,
                },
            );
        }
        Ok(())
    }

    /// Restores this drive's state to `t0` for an aborting transaction.
    /// With a recorded scope, only the listed objects and names are
    /// compensated. Without one (crash mid-prepare), every object with a
    /// stamp after `t0` is restored — sound because the worker holds the
    /// drive exclusively while preparing, so only the dead transaction
    /// can have written in that window; objects pinned by *other*
    /// pending transactions are skipped (their effects predate `t0`
    /// anyway — prepares are serial — so there is nothing to restore).
    fn txn_compensate(
        &self,
        inner: &mut Inner,
        txid: u64,
        t0_us: u64,
        scope: Option<&(Vec<u64>, Vec<String>)>,
    ) -> Result<()> {
        let t0 = SimTime::from_micros(t0_us);
        match scope {
            Some((oids, names)) => {
                for &oid in oids {
                    self.txn_restore_object(inner, ObjectId(oid), t0)?;
                }
                if !names.is_empty() {
                    let mut parts = self.read_partitions(inner, None)?;
                    let before = parts.len();
                    parts.retain(|(n, _)| !names.contains(n));
                    if parts.len() != before {
                        self.write_partitions(inner, &parts)?;
                    }
                }
            }
            None => {
                let oids: Vec<u64> = inner.table.keys().copied().collect();
                for oid in oids {
                    if oid == TXN_OBJECT.0 {
                        continue;
                    }
                    if inner.txn_locks.get(&oid).is_some_and(|t| *t != txid) {
                        continue;
                    }
                    self.txn_restore_object(inner, ObjectId(oid), t0)?;
                }
            }
        }
        Ok(())
    }

    /// Forward-compensates one object back to its state at `t0`:
    /// created-after-`t0` objects are deleted; deleted-after-`t0`
    /// objects are revived to their recorded pre-delete stamp; content,
    /// attributes, and ACL diffs become fresh journal entries. Running
    /// it twice converges — the second pass finds nothing stamped after
    /// `t0` left to restore.
    fn txn_restore_object(&self, inner: &mut Inner, oid: ObjectId, t0: SimTime) -> Result<()> {
        if !inner.table.contains_key(&oid.0) {
            // The create never reached disk; nothing to compensate.
            return Ok(());
        }
        let bound = HybridTimestamp::upper_bound_at(t0);
        self.with_object(inner, oid, |inner, entry| {
            let touched_after = entry.meta.modified > bound
                || entry.meta.created > bound
                || entry.meta.deleted.is_some_and(|d| d > bound);
            if !touched_after {
                return Ok(());
            }
            let old = match self.version_at(entry, t0) {
                Ok(m) => Some(m),
                Err(S4Error::NoSuchObject) => None,
                Err(e) => return Err(e),
            };
            match old {
                Some(old) if old.is_live() => {
                    if let Some(was_deleted) = entry.meta.deleted {
                        let stamp = self.stamps.next();
                        self.commit(entry, JournalEntry::Revive { stamp, was_deleted });
                    }
                    let content = self.read_extent(entry, &old, 0, old.size)?;
                    self.converge(inner, entry, &content, &old.attrs, &old.acl, None)
                }
                // Created inside the transaction: make it dead again (its
                // id is never reused, so history stays sound). Or dead at
                // t0: re-delete if the transaction revived or recreated
                // it (content of a dead object is unreachable through
                // live reads, so liveness is the whole restore).
                _ => {
                    if entry.meta.is_live() {
                        let stamp = self.stamps.next();
                        self.commit(entry, JournalEntry::Delete { stamp });
                    }
                    Ok(())
                }
            }
        })
    }
}

impl Inner {
    pub(crate) fn new(config: &DriveConfig) -> Inner {
        Inner {
            table: BTreeMap::new(),
            next_oid: FIRST_DYNAMIC_OID,
            window: config.detection_window,
            audit: ReservedLog::new(AUDIT_OBJECT, Framing::Records),
            alerts: ReservedLog::new(ALERT_OBJECT, Framing::Blobs),
            traces: ReservedLog::new(TRACE_OBJECT, Framing::Blobs),
            alert_growth_warned: false,
            live: BTreeSet::new(),
            jblocks: packed::JOURNAL,
            cpblocks: packed::CHECKPOINTS,
            dblocks: packed::DELTAS,
            throttle: ThrottleState::new(config.throttle),
            syncs_since_anchor: 0,
            lru: 0,
            txn_pending: BTreeMap::new(),
            txn_locks: BTreeMap::new(),
        }
    }

    /// The three reserved streams, in the order their blocks reach the
    /// log at an anchor, beside the reachable-block set their appends
    /// register in.
    pub(crate) fn streams_mut(&mut self) -> ([&mut ReservedLog; 3], &mut BTreeSet<u64>) {
        (
            [&mut self.audit, &mut self.alerts, &mut self.traces],
            &mut self.live,
        )
    }

    /// The reserved stream stored as object `oid`, if it is one.
    fn stream_mut(&mut self, oid: u64) -> Option<&mut ReservedLog> {
        let (streams, _) = self.streams_mut();
        streams.into_iter().find(|s| s.oid() == oid)
    }

    fn bump_lru(&mut self) -> u64 {
        self.lru += 1;
        self.lru
    }
}

/// Reads one object's sector out of a shared journal block.
fn read_subsector<D: BlockDev>(
    log: &Log<D>,
    addr: BlockAddr,
    slot: u32,
) -> Result<(u64, Vec<JournalEntry>)> {
    let block = log.read_block(addr)?;
    let subs = packed::JOURNAL.split(&block)?;
    let sub = subs
        .get(slot as usize)
        .ok_or(S4Error::BadRequest("journal slot out of range"))?;
    let (oid, _prev, entries) = decode_sector(sub)?;
    Ok((oid, entries))
}

/// The block pointers a `Write` or `Truncate` entry superseded — the
/// history blocks its version keeps alive.
fn old_blocks(e: &JournalEntry) -> impl Iterator<Item = &PtrChange> {
    let changes = match e {
        JournalEntry::Write { changes, .. } => changes.as_slice(),
        JournalEntry::Truncate { freed, .. } => freed.as_slice(),
        _ => &[],
    };
    changes.iter().filter(|c| !c.old.is_none())
}

// ----------------------------------------------------------------------
// Cleaner callbacks.
// ----------------------------------------------------------------------

struct DriveCallbacks<'a, D: BlockDev> {
    drive: &'a S4Drive<D>,
}

impl<D: BlockDev> RelocationCallbacks for DriveCallbacks<'_, D> {
    fn is_live(&self, _tag: &BlockTag, addr: BlockAddr) -> bool {
        self.drive.inner.lock().live.contains(&addr.0)
    }

    fn relocate(&self, tag: &BlockTag, addr: BlockAddr, data: &[u8]) -> s4_lfs::Result<()> {
        let drive = self.drive;
        let inner = &mut *drive.inner.lock();
        // Every kind but checkpoints moves by copy.
        let copy = |inner: &mut Inner| -> s4_lfs::Result<BlockAddr> {
            let new = drive.log.append(*tag, data)?;
            inner.live.remove(&addr.0);
            inner.live.insert(new.0);
            Ok(new)
        };
        match tag.kind {
            BlockKind::Data => {
                let new = copy(inner)?;
                // No entry: the object vanished and the block was stale.
                if let Some(entry) = drive.cached_mut(inner, tag.object) {
                    // Current map pointer, if it is this address.
                    if entry.meta.blocks.get(&tag.aux) == Some(&addr) {
                        entry.meta.blocks.insert(tag.aux, new);
                    }
                    // History references resolve through forwarding.
                    entry.forwards.insert(addr.0, new.0);
                    entry.dirty = true;
                    entry.needs_checkpoint = true;
                }
            }
            BlockKind::Audit => {
                let new = copy(inner)?;
                if let Some(stream) = inner.stream_mut(tag.object) {
                    stream.relocate(addr, new);
                }
            }
            BlockKind::JournalSector => {
                let new = copy(inner)?;
                inner.jblocks.relocated(addr, new);
                // Every object with a sector in this block must re-point.
                for sub in packed::JOURNAL.split(data).unwrap_or_default() {
                    let Ok((oid, _, _)) = decode_sector(&sub) else {
                        continue;
                    };
                    let Some(entry) = drive.cached_mut(inner, oid) else {
                        continue;
                    };
                    for info in entry.sectors.iter_mut().filter(|s| s.addr == addr) {
                        info.addr = new;
                    }
                    if entry.meta.journal_head == addr {
                        entry.meta.journal_head = new;
                    }
                    entry.dirty = true;
                }
            }
            BlockKind::ObjectCheckpoint => {
                // Rewrite fresh checkpoints for every object whose
                // checkpoint lives in this block, instead of copying the
                // stale bytes.
                inner.live.remove(&addr.0);
                inner.cpblocks.forget(addr);
                let oids: Vec<u64> = match packed::CHECKPOINTS.split(data) {
                    Ok(subs) => subs
                        .iter()
                        .filter_map(|b| ObjectEntry::decode(b).ok().map(|e| e.meta.id))
                        .collect(),
                    // A dedicated chain block: tag.object owns it.
                    Err(_) => vec![tag.object],
                };
                let mut repack: Vec<u64> = Vec::new();
                for oid in oids {
                    let Some(entry) = drive.cached_mut(inner, oid) else {
                        continue;
                    };
                    if entry.checkpoint_root != addr {
                        continue; // superseded since
                    }
                    let stale_chain: Vec<BlockAddr> = entry.checkpoint_blocks.drain(..).collect();
                    entry.checkpoint_root = BlockAddr::NONE;
                    entry.checkpoint_slot = u32::MAX;
                    repack.push(oid);
                    // Drop the stale chain without touching the block
                    // being reclaimed.
                    for cp in stale_chain {
                        inner.live.remove(&cp.0);
                        if cp != addr {
                            drive.log.release_blocks([cp]);
                        }
                    }
                }
                drive
                    .pack_checkpoints(inner, &repack)
                    .map_err(|_| s4_lfs::LfsError::Corrupt("checkpoint rewrite"))?;
            }
            BlockKind::DeltaData => {
                let new = copy(inner)?;
                inner.dblocks.relocated(addr, new);
                // Re-point every (object, key) delta reference into the
                // relocated block.
                for sub in packed::DELTAS.split(data).unwrap_or_default() {
                    if sub.len() < 16 {
                        continue;
                    }
                    let oid = u64::from_le_bytes(sub[0..8].try_into().unwrap());
                    let key = u64::from_le_bytes(sub[8..16].try_into().unwrap());
                    let Some(entry) = drive.cached_mut(inner, oid) else {
                        continue;
                    };
                    if let Some(dref) = entry.deltas.get_mut(&key) {
                        if dref.block == addr {
                            dref.block = new;
                            entry.needs_checkpoint = true;
                            entry.dirty = true;
                        }
                    }
                }
            }
            BlockKind::SystemState => {}
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Anchor payload codec (version 2: object map with per-object sector
// lists; the reachable-block set is rebuilt at mount, not persisted).
// ----------------------------------------------------------------------

struct AnchorRecord {
    oid: u64,
    root: BlockAddr,
    slot: u32,
    floor: HybridTimestamp,
    /// `None` means "use the sector list inside the checkpoint blob"
    /// (always the case for evicted objects, whose checkpoint is exact).
    sectors: Option<Vec<SectorInfo>>,
}

/// FNV-1a, the hash behind [`S4Drive::state_digest`] and
/// [`S4Drive::object_digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn stamp(&mut self, s: HybridTimestamp) {
        self.u64(s.time.as_micros());
        self.u64(s.seq);
    }
}

/// One live object's current version as exported by
/// [`S4Drive::resync_image`]: everything needed to recreate the
/// client-visible object on a replacement mirror member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResyncObject {
    /// Object id (preserved verbatim — ids route by residue class).
    pub oid: u64,
    /// Creation time (the stamp's time component; sequence is local).
    pub created: SimTime,
    /// Last-modification time.
    pub modified: SimTime,
    /// Full current contents (`size` bytes; sparse holes as zeros).
    pub content: Vec<u8>,
    /// Opaque attribute blob.
    pub attrs: Vec<u8>,
    /// Encoded ACL table.
    pub acl: Vec<u8>,
}

/// A point-in-time export of a drive's logical state, consumed by
/// [`S4Drive::format_from_image`] to rebuild a failed mirror member
/// from its surviving peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResyncImage {
    /// The id allocator floor, so the replacement never re-issues an id.
    pub next_oid: u64,
    /// The detection window in force on the source drive.
    pub window: SimDuration,
    /// Every live object's current version, ascending by id.
    pub objects: Vec<ResyncObject>,
    /// The audit log stream.
    pub audit: ResyncStream,
    /// The alert object stream.
    pub alerts: ResyncStream,
    /// The flight-recorder trace stream.
    pub traces: ResyncStream,
}

/// Encodes a drive-raised self-alert in the `s4-detect` `Alert` wire
/// format (severity, time, user, client, object, then length-prefixed
/// rule and message strings), so the standard alert pollers decode it
/// like any detector-raised alert. The drive cannot depend on
/// `s4-detect` (the dependency points the other way), so the format is
/// reproduced here; `s4-detect` has a test pinning the two together.
pub(crate) fn encode_system_alert(rule: &[u8], time_us: u64, message: &[u8]) -> Vec<u8> {
    const SEVERITY_WARNING: u8 = 2;
    let mut out = Vec::with_capacity(29 + rule.len() + message.len());
    out.push(SEVERITY_WARNING);
    out.extend_from_slice(&time_us.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // user: the drive itself
    out.extend_from_slice(&0u32.to_le_bytes()); // client: the drive itself
    out.extend_from_slice(&ALERT_OBJECT.0.to_le_bytes());
    out.extend_from_slice(&(rule.len() as u16).to_le_bytes());
    out.extend_from_slice(rule);
    out.extend_from_slice(&(message.len() as u16).to_le_bytes());
    out.extend_from_slice(message);
    out
}

fn encode_anchor_payload(inner: &Inner) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&ANCHOR_MAGIC.to_le_bytes());
    out.extend_from_slice(&inner.next_oid.to_le_bytes());
    out.extend_from_slice(&inner.window.as_micros().to_le_bytes());
    inner.audit.encode_anchor(&mut out);
    out.extend_from_slice(&(inner.table.len() as u32).to_le_bytes());
    for (&oid, slot) in &inner.table {
        out.extend_from_slice(&oid.to_le_bytes());
        match slot {
            Slot::Cached(e) => {
                debug_assert!(
                    e.pending.is_empty()
                        && !e.needs_checkpoint
                        && (!e.checkpoint_root.is_none()
                            || e.history_floor == HybridTimestamp::ZERO),
                    "anchor with unrecoverable object {oid}"
                );
                out.extend_from_slice(&e.checkpoint_root.0.to_le_bytes());
                out.extend_from_slice(&e.checkpoint_slot.to_le_bytes());
                push_stamp(&mut out, e.history_floor);
                out.push(1); // explicit sector list
                out.extend_from_slice(&(e.sectors.len() as u32).to_le_bytes());
                for s in &e.sectors {
                    out.extend_from_slice(&s.addr.0.to_le_bytes());
                    out.extend_from_slice(&s.slot.to_le_bytes());
                    push_stamp(&mut out, s.oldest);
                    push_stamp(&mut out, s.newest);
                }
            }
            Slot::Evicted(i) => {
                out.extend_from_slice(&i.checkpoint_root.0.to_le_bytes());
                out.extend_from_slice(&i.checkpoint_slot.to_le_bytes());
                push_stamp(&mut out, HybridTimestamp::ZERO); // floor from blob
                out.push(0); // sector list from blob
            }
        }
    }
    // The alert and flight-recorder streams trail the table.
    inner.alerts.encode_anchor(&mut out);
    inner.traces.encode_anchor(&mut out);
    out
}

fn decode_anchor_payload(
    payload: &[u8],
    config: &DriveConfig,
) -> Result<(Inner, Vec<AnchorRecord>)> {
    let mut inner = Inner::new(config);
    if payload.is_empty() {
        return Ok((inner, Vec::new()));
    }
    let need = |p: usize, n: usize| {
        if p + n > payload.len() {
            Err(S4Error::BadRequest("anchor payload truncated"))
        } else {
            Ok(())
        }
    };
    need(0, 20)?;
    if payload[0..4] != ANCHOR_MAGIC.to_le_bytes() {
        return Err(S4Error::BadRequest("anchor payload magic"));
    }
    inner.next_oid = u64::from_le_bytes(payload[4..12].try_into().unwrap());
    inner.window =
        SimDuration::from_micros(u64::from_le_bytes(payload[12..20].try_into().unwrap()));
    let mut pos = 20;
    inner.audit.decode_anchor(payload, &mut pos)?;
    need(pos, 4)?;
    let nobj = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    let mut records = Vec::with_capacity(nobj);
    for _ in 0..nobj {
        need(pos, 20)?;
        let oid = u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap());
        let root = BlockAddr(u64::from_le_bytes(
            payload[pos + 8..pos + 16].try_into().unwrap(),
        ));
        let cp_slot = u32::from_le_bytes(payload[pos + 16..pos + 20].try_into().unwrap());
        pos += 20;
        let floor = read_stamp(payload, &mut pos)?;
        need(pos, 1)?;
        let explicit = payload[pos] == 1;
        pos += 1;
        let sectors = if explicit {
            need(pos, 4)?;
            let n = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                need(pos, 12)?;
                let addr = BlockAddr(u64::from_le_bytes(
                    payload[pos..pos + 8].try_into().unwrap(),
                ));
                let slot = u32::from_le_bytes(payload[pos + 8..pos + 12].try_into().unwrap());
                pos += 12;
                let oldest = read_stamp(payload, &mut pos)?;
                let newest = read_stamp(payload, &mut pos)?;
                v.push(SectorInfo {
                    addr,
                    slot,
                    oldest,
                    newest,
                });
            }
            Some(v)
        } else {
            None
        };
        records.push(AnchorRecord {
            oid,
            root,
            slot: cp_slot,
            floor,
            sectors,
        });
    }
    inner.alerts.decode_anchor(payload, &mut pos)?;
    inner.traces.decode_anchor(payload, &mut pos)?;
    Ok((inner, records))
}

/// Applies one recovered (post-anchor) journal sector to the object
/// table during mount.
fn apply_recovered_sector(
    inner: &mut Inner,
    oid: u64,
    addr: BlockAddr,
    slot: u32,
    entries: &[JournalEntry],
) -> Result<()> {
    // Materialize the object if it was born after the anchor.
    if let std::collections::btree_map::Entry::Vacant(v) = inner.table.entry(oid) {
        let Some(JournalEntry::Create { stamp }) = entries.first() else {
            return Err(S4Error::BadRequest("recovered sector for unknown object"));
        };
        let entry = ObjectEntry::new(ObjectMeta::new(oid, *stamp));
        v.insert(Slot::Cached(Box::new(entry)));
    }
    let Some(Slot::Cached(entry)) = inner.table.get_mut(&oid) else {
        // All anchored objects are Cached during mount.
        return Err(S4Error::BadRequest("recovered sector for evicted object"));
    };
    let mut oldest = None;
    let mut newest = HybridTimestamp::ZERO;
    for e in entries {
        if e.stamp() > entry.meta.modified || matches!(e, JournalEntry::Create { .. }) {
            redo(&mut entry.meta, e);
        }
        oldest.get_or_insert(e.stamp());
        newest = newest.max(e.stamp());
    }
    entry.sectors.push(SectorInfo {
        addr,
        slot,
        oldest: oldest.unwrap_or(HybridTimestamp::ZERO),
        newest,
    });
    entry.meta.journal_head = addr;
    entry.dirty = true;
    inner.next_oid = inner.next_oid.max(oid + 1);
    Ok(())
}

/// Rebuilds the reachable-block set and journal-block refcounts from the
/// recovered object table (mount phase 3).
fn rebuild_liveness<D: BlockDev>(log: &Log<D>, inner: &mut Inner) -> Result<()> {
    inner.live.clear();
    inner.jblocks.clear();
    inner.cpblocks.clear();
    inner.dblocks.clear();
    let (streams, live) = inner.streams_mut();
    for s in streams {
        live.extend(s.blocks().iter().map(|a| a.0));
    }
    let oids: Vec<u64> = inner.table.keys().copied().collect();
    for oid in oids {
        let Some(Slot::Cached(entry)) = inner.table.get(&oid) else {
            continue;
        };
        // Current data blocks (resolved through forwarding).
        let mut reach: Vec<u64> = entry
            .meta
            .blocks
            .values()
            .map(|a| entry.resolve_forward(*a).0)
            .collect();
        // Landmark versions pin their block maps.
        for m in &entry.landmarks {
            reach.extend(m.blocks.values().map(|a| a.0));
        }
        // Delta-encoded history: the shared delta blocks are reachable.
        for dref in entry.deltas.values() {
            reach.push(dref.block.0);
            inner.dblocks.add_ref(dref.block);
        }
        // Checkpoint storage: chain blocks, or one shared-block reference.
        reach.extend(entry.checkpoint_blocks.iter().map(|a| a.0));
        if !entry.checkpoint_root.is_none() && entry.checkpoint_slot != u32::MAX {
            reach.push(entry.checkpoint_root.0);
            inner.cpblocks.add_ref(entry.checkpoint_root);
        }
        // Journal blocks + refcounts, and history old-pointers.
        for s in &entry.sectors {
            reach.push(s.addr.0);
            inner.jblocks.add_ref(s.addr);
            let (_o, entries) = read_subsector(log, s.addr, s.slot)?;
            for c in entries.iter().flat_map(old_blocks) {
                let key = entry.resolve_forward(c.old).0;
                // Delta-encoded history is accounted through its
                // shared delta block, not the (released) original.
                if !entry.deltas.contains_key(&key) {
                    reach.push(key);
                }
            }
        }
        inner.live.extend(reach);
    }
    Ok(())
}

/// Reads the checkpoint at `(root, slot)` back into an entry that knows
/// where it came from.
fn read_checkpoint<D: BlockDev>(log: &Log<D>, root: BlockAddr, slot: u32) -> Result<ObjectEntry> {
    if root.is_none() {
        return Err(S4Error::NoSuchObject);
    }
    let mut blob = Vec::new();
    let mut blocks = Vec::new();
    if slot != u32::MAX {
        // Shared checkpoint block.
        let subs = packed::CHECKPOINTS.split(&log.read_block(root)?)?;
        blob = subs
            .into_iter()
            .nth(slot as usize)
            .ok_or(S4Error::BadRequest("checkpoint slot out of range"))?;
    } else {
        let mut addr = root;
        while !addr.is_none() {
            let block = log.read_block(addr)?;
            let next = BlockAddr(u64::from_le_bytes(block[0..8].try_into().unwrap()));
            let len = u32::from_le_bytes(block[8..12].try_into().unwrap()) as usize;
            if 12 + len > block.len() {
                return Err(S4Error::BadRequest("checkpoint chunk length"));
            }
            blob.extend_from_slice(&block[12..12 + len]);
            blocks.push(addr);
            addr = next;
        }
    }
    let mut entry = ObjectEntry::decode(&blob)?;
    entry.checkpoint_root = root;
    entry.checkpoint_slot = slot;
    entry.checkpoint_blocks = blocks;
    Ok(entry)
}

fn encode_partition_blob(parts: &[(String, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for (name, oid) in parts {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&oid.to_le_bytes());
    }
    out
}

fn decode_partition_blob(data: &[u8]) -> Result<Vec<(String, u64)>> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    if data.len() < 4 {
        return Err(S4Error::BadRequest("partition table truncated"));
    }
    let n = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    // Untrusted count: entries are >= 10 bytes each.
    let mut out = Vec::with_capacity(n.min(data.len() / 10 + 1));
    for _ in 0..n {
        if pos + 2 > data.len() {
            return Err(S4Error::BadRequest("partition entry truncated"));
        }
        let nl = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if pos + nl + 8 > data.len() {
            return Err(S4Error::BadRequest("partition name truncated"));
        }
        let name = String::from_utf8(data[pos..pos + nl].to_vec())
            .map_err(|_| S4Error::BadRequest("partition name utf8"))?;
        pos += nl;
        let oid = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        pos += 8;
        out.push((name, oid));
    }
    Ok(out)
}

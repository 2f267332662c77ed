//! Online resharding: live `N → 2N` residue-class splits with
//! history-pool catch-up (DESIGN §6h).
//!
//! A self-securing array shards its flat namespace by residue class
//! (`oid mod N`). This module grows a live array one class at a time:
//! source slot `s` (owning `s mod N`) splits into `s mod 2N` (kept)
//! and `N+s mod 2N` (migrated to a brand-new shard), with **zero
//! client-visible downtime**. The drive's own security machinery *is*
//! the migration mechanism:
//!
//! 1. **Snapshot.** Pick an instant `T` and bulk-copy every object of
//!    the moving class as of `T` using *historical reads* from the
//!    source's history pool — the comprehensive versioning that §3
//!    maintains for intrusion survival doubles as a consistent
//!    copy-on-write snapshot, so clients keep writing, no freeze.
//! 2. **Catch-up.** The audit log records *all* requests (§4.2.3), so
//!    replaying mutations newer than the snapshot cursor is a matter
//!    of reading the source's audit stream from a record index and
//!    re-exporting each touched object's current state. Rounds repeat
//!    until the remaining lag drops below a threshold.
//! 3. **Flip.** `S4Array::install_split` briefly quiesces
//!    only the splitting shard (write gate + queue drain), this module
//!    replays the final delta inside that window, and the new routing
//!    epoch is installed atomically — persisted in the distributed
//!    partition table so a crash remounts wholly-old or wholly-new.
//!
//! After the flip the moved objects are lazily deleted from the source
//! members; their history remains in the source's pool for the rest of
//! the detection window, exactly like any other overwritten data.

use std::collections::BTreeSet;

use s4_core::OpKind;
use s4_core::{
    ClientId, ObjectId, RequestContext, S4Drive, S4Error, TraceCtx, TraceIdGen, PHASE_CATCHUP,
};
use s4_obs::{Gauge, Histogram};
use s4_simdisk::BlockDev;

use crate::array::{format_group, S4Array};
use crate::epoch::FlipReport;

/// Tuning knobs for one split.
#[derive(Clone, Copy, Debug)]
pub struct ReshardConfig {
    /// Catch-up stops (and the flip starts) once a round leaves at most
    /// this many objects dirty — the flip replays them under quiesce,
    /// so the threshold bounds the pause.
    pub lag_threshold: usize,
}

impl Default for ReshardConfig {
    fn default() -> Self {
        ReshardConfig { lag_threshold: 8 }
    }
}

/// Upper bound on catch-up rounds; if the lag has not converged by then,
/// the flip proceeds anyway (its final round is exact, just longer).
const MAX_ROUNDS: usize = 16;

/// What one completed split did.
#[derive(Clone, Copy, Debug)]
pub struct ReshardReport {
    /// The source slot that split.
    pub source_slot: usize,
    /// The new shard's slot id (`base + source_slot`).
    pub target_slot: usize,
    /// Objects bulk-copied from the snapshot at `T`.
    pub snapshot_objects: usize,
    /// Catch-up rounds run before the flip.
    pub catchup_rounds: usize,
    /// Objects re-exported across all catch-up rounds.
    pub catchup_objects: usize,
    /// Objects replayed inside the quiesced flip window.
    pub final_delta_objects: usize,
    /// Moved objects lazily deleted from the source after the flip.
    pub cleaned_objects: usize,
    /// Quiesce pause and installed epoch, from the flip itself.
    pub flip: FlipReport,
}

/// Progress gauges, shared so tests and the status surface can watch a
/// split mid-flight. All live in the array's reshard registry.
struct Progress {
    active: Gauge,
    source: Gauge,
    snapshot: Gauge,
    catchup: Gauge,
    lag: Gauge,
    rounds: Gauge,
    lag_hist: Histogram,
}

impl Progress {
    fn new<D: BlockDev + 'static>(array: &S4Array<D>) -> Progress {
        let reg = array.reshard_registry();
        Progress {
            active: reg.gauge("s4_reshard_active", "1 while a split is in flight"),
            source: reg.gauge("s4_reshard_source_slot", "slot currently splitting"),
            snapshot: reg.gauge(
                "s4_reshard_snapshot_objects",
                "objects bulk-copied from the snapshot",
            ),
            catchup: reg.gauge(
                "s4_reshard_catchup_objects",
                "objects replayed by catch-up rounds",
            ),
            lag: reg.gauge(
                "s4_reshard_lag",
                "dirty objects found by the latest catch-up round",
            ),
            rounds: reg.gauge("s4_reshard_rounds", "catch-up rounds of the current split"),
            lag_hist: reg.histogram("s4_reshard_lag_objects", "dirty objects per catch-up round"),
        }
    }
}

/// Exports `oid`'s current state from `source` and applies it to every
/// target (or deletes it from them if it is gone on the source).
///
/// Each applied object (or deletion) leaves a `PHASE_CATCHUP` trace
/// record on the *target* member it landed on, carrying the split's
/// trace id — so `s4 trace` can show a migration's catch-up writes as
/// one causal tree whose spans are vouched for by the drives that
/// actually received the data.
fn replay_one<D: BlockDev>(
    source: &S4Drive<D>,
    targets: &[S4Drive<D>],
    admin: &RequestContext,
    oid: u64,
    trace: TraceCtx,
) -> s4_core::Result<()> {
    let tctx = admin.with_trace(trace);
    match source.reshard_export(admin, ObjectId(oid), None)? {
        Some(obj) => {
            for t in targets {
                t.reshard_apply(admin, &obj)?;
                t.record_phase_trace(&tctx, OpKind::Write, ObjectId(oid), true);
            }
        }
        None => {
            for t in targets {
                match t.op_delete(admin, ObjectId(oid)) {
                    Ok(()) | Err(S4Error::NoSuchObject) => {}
                    Err(e) => return Err(e),
                }
                t.record_phase_trace(&tctx, OpKind::Delete, ObjectId(oid), true);
            }
        }
    }
    Ok(())
}

/// Splits live source slot `source_slot` of `array` onto the fresh
/// devices `target_devs` (one per mirror), following the
/// snapshot → catch-up → flip protocol in the module docs. Clients keep
/// dispatching throughout; only the flip's final delta runs under the
/// source shard's (brief) quiesce.
pub fn split_shard<D: BlockDev + 'static>(
    array: &S4Array<D>,
    source_slot: usize,
    target_devs: Vec<D>,
    cfg: ReshardConfig,
) -> s4_core::Result<ReshardReport> {
    let e = array.epoch();
    if source_slot >= e.base || e.bits & (1u64 << source_slot.min(63)) != 0 {
        return Err(S4Error::BadRequest("reshard: slot not splittable"));
    }
    if target_devs.len() != array.mirror_count() {
        return Err(S4Error::BadRequest(
            "reshard: need one target device per mirror",
        ));
    }
    // Sources sit at dense index == slot id.
    let source = array.shard_drive(source_slot);
    let drive_cfg = *source.config();
    let admin = RequestContext::admin(ClientId(0), drive_cfg.admin_token);
    // One trace id for the whole split: every catch-up replay (rounds
    // and the quiesced final delta) stamps it, so the migration shows
    // up in cross-shard assembly as a single causal tree rooted at the
    // source slot.
    let trace = TraceCtx {
        trace_id: TraceIdGen::new().next(source.clock().now().as_micros()),
        origin: source_slot as u8,
        phase: PHASE_CATCHUP,
    };
    let stride = 2 * e.base as u64;
    let target_slot = e.base + source_slot;
    let moving = move |oid: u64| !ObjectId(oid).is_reserved() && oid % stride == target_slot as u64;

    let prog = Progress::new(array);
    prog.active.set(1.0);
    prog.source.set(source_slot as f64);
    prog.snapshot.set(0.0);
    prog.catchup.set(0.0);
    prog.rounds.set(0.0);

    // The flip gives the targets the doubled class, so every oid they
    // ever assign stays in the migrated residue.
    let targets = format_group(target_devs, drive_cfg, source.clock(), |_| Ok(()))?;

    // --- Phase 1: snapshot at T via the history pool. The audit cursor
    // is taken *before* T so any mutation the snapshot misses is
    // guaranteed to appear in the catch-up stream.
    let mut cursor = source.audit_cursor(&admin)?;
    let t = source.clock().now();
    let mut snapshot_objects = 0usize;
    for oid in source.live_object_ids(&admin)? {
        if !moving(oid) {
            continue;
        }
        if let Some(obj) = source.reshard_export(&admin, ObjectId(oid), Some(t))? {
            for tgt in &targets {
                tgt.reshard_apply(&admin, &obj)?;
            }
            snapshot_objects += 1;
            prog.snapshot.add(1.0);
        }
    }

    // --- Phase 2: catch-up rounds over the audit stream.
    let mut catchup_rounds = 0usize;
    let mut catchup_objects = 0usize;
    loop {
        let recs = source.read_audit_from(&admin, &mut cursor)?;
        let dirty: BTreeSet<u64> = recs
            .iter()
            .filter(|r| r.ok && r.op.creates_version() && moving(r.object.0))
            .map(|r| r.object.0)
            .collect();
        prog.lag.set(dirty.len() as f64);
        prog.lag_hist.record(dirty.len() as u64);
        for &oid in &dirty {
            replay_one(&source, &targets, &admin, oid, trace)?;
        }
        catchup_objects += dirty.len();
        prog.catchup.add(dirty.len() as f64);
        catchup_rounds += 1;
        prog.rounds.set(catchup_rounds as f64);
        if dirty.len() <= cfg.lag_threshold || catchup_rounds >= MAX_ROUNDS {
            break;
        }
    }

    // --- Phase 3: flip. The array quiesces the source shard and hands
    // us its live members; the final (exact) delta replays inside that
    // window, then the new epoch is installed atomically.
    //
    // Flush the source members *before* taking the gate: the quiesce
    // drain ends in a durability barrier, and paying for the dirty
    // segments out here keeps the client-visible pause down to the
    // queue itself plus the (bounded) final delta. The anchor is a job
    // on the source's worker, so that the mirrors pack — and record
    // queued transaction resolutions — at one point of their streams.
    array.apply_to_shard(source_slot, |d| d.force_anchor())?;
    // Likewise pre-raise the targets' ObjectID allocators to the
    // source's current ceiling and anchor them durably now; the flip
    // re-checks the (post-drain) floor but usually finds nothing new to
    // persist inside the gate.
    let floor = source.next_oid(&admin)?;
    for t in &targets {
        t.raise_next_oid(&admin, floor)?;
        t.force_anchor()?;
    }
    let mut final_delta_objects = 0usize;
    let flip = array.install_split(source_slot, |live| {
        let src = &live[0];
        // The audit cursor indexes *one member's* stream (reads are
        // served — and audited — by the first live member only). If
        // membership changed under us and the flip handed back a
        // different member, fall back to an exact full pass over the
        // moving class instead of trusting a foreign cursor.
        let dirty: BTreeSet<u64> = if std::sync::Arc::ptr_eq(&source, src) {
            src.read_audit_from(&admin, &mut cursor)?
                .iter()
                .filter(|r| r.ok && r.op.creates_version() && moving(r.object.0))
                .map(|r| r.object.0)
                .collect()
        } else {
            let mut all: BTreeSet<u64> = src
                .live_object_ids(&admin)?
                .into_iter()
                .filter(|&oid| moving(oid))
                .collect();
            // Objects the target holds but the source no longer does
            // must be replayed too (they resolve to deletions).
            all.extend(
                targets[0]
                    .live_object_ids(&admin)?
                    .into_iter()
                    .filter(|&oid| moving(oid)),
            );
            all
        };
        for &oid in &dirty {
            replay_one(src, &targets, &admin, oid, trace)?;
        }
        final_delta_objects = dirty.len();
        Ok(targets)
    })?;
    prog.lag.set(0.0);

    // --- Lazy cleanup: the moved class is unreachable on the source as
    // of the flip; delete it one object at a time, each delete a job on
    // the source's worker like any mutation of a mirror group. The
    // deleted objects' history stays in each member's pool for the
    // detection window — recoverable forensically, invisible to clients.
    let mut cleaned_objects = 0usize;
    for oid in array.shard_drive(source_slot).live_object_ids(&admin)? {
        if moving(oid) {
            array.apply_to_shard(source_slot, move |d| {
                match d.op_delete(&admin, ObjectId(oid)) {
                    Ok(()) | Err(S4Error::NoSuchObject) => Ok(()),
                    Err(e) => Err(e),
                }
            })?;
            cleaned_objects += 1;
        }
    }

    prog.active.set(0.0);
    Ok(ReshardReport {
        source_slot,
        target_slot,
        snapshot_objects,
        catchup_rounds,
        catchup_objects,
        final_delta_objects,
        cleaned_objects,
        flip,
    })
}

/// Doubles the whole array, `N → 2N`, by splitting every source slot in
/// turn. `device_groups[s]` supplies the target devices (one per
/// mirror) for source slot `s`. Returns one report per split; the last
/// flip completes the generation (the epoch's base doubles).
pub fn double_array<D: BlockDev + 'static>(
    array: &S4Array<D>,
    device_groups: Vec<Vec<D>>,
    cfg: ReshardConfig,
) -> s4_core::Result<Vec<ReshardReport>> {
    let base = array.epoch().base;
    if device_groups.len() != base {
        return Err(S4Error::BadRequest(
            "reshard: need one target device group per source slot",
        ));
    }
    let mut reports = Vec::with_capacity(base);
    for (slot, devs) in device_groups.into_iter().enumerate() {
        reports.push(split_shard(array, slot, devs, cfg)?);
    }
    Ok(reports)
}

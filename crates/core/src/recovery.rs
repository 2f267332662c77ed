//! Crash recovery: `mount` reloads the anchored object map, re-applies
//! the journal sectors newer than each checkpoint and every journal
//! block a sync flushed after the anchor — not those the drive rewrote,
//! which only an anchor commits — then derives the ledger of reachable
//! blocks from the recovered table ([`Ledger::derive`]). Recovery is
//! strictly read-only — the torture harness crashes the drive again
//! inside it.

use s4_clock::{HybridClock, HybridTimestamp, SimClock, SimTime};
use s4_journal::{decode_sector, redo, JournalEntry, ObjectMeta};
use s4_lfs::{BlockAddr, BlockKind, Log, Mounted, SegmentMismatch};
use s4_simdisk::BlockDev;

use crate::drive::{DriveConfig, Inner, S4Drive, TXN_OBJECT};
use crate::ledger::{Discrepancy, Ledger};
use crate::object::{ObjectEntry, SectorInfo, Slot};
use crate::packed;
use crate::persist::{decode_anchor_payload, read_checkpoint, read_subsector};
use crate::{Result, S4Error};

impl<D: BlockDev> S4Drive<D> {
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
        } = Log::mount(dev, config.log)?;
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
                let Some(first) = rec.listed.as_ref().and_then(|(_, s)| s.first()) else {
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
            if let Some((floor, sectors)) = &rec.listed {
                // An anchored sector list that has moved on from the
                // checkpoint's — grown past it, expired or relocated
                // since — leaves the entry ahead of its checkpoint.
                entry.dirty |= *sectors != entry.sectors;
                entry.sectors = sectors.clone();
                entry.history_floor = entry.history_floor.max(*floor);
            }
            for s in entry.sectors.iter().filter(|s| s.newest > entry.covered) {
                let (_oid, entries) = read_subsector(&log, s.addr, s.slot)?;
                for e in entries.iter().filter(|e| e.stamp() > entry.covered) {
                    redo(&mut entry.meta, e);
                }
            }
            if let Some(last) = entry.sectors.last() {
                report.max_recovered_stamp = report.max_recovered_stamp.max(last.newest);
            }
            report.max_recovered_stamp = report.max_recovered_stamp.max(entry.meta.modified);
            if let Some(d) = entry.meta.deleted {
                report.max_recovered_stamp = report.max_recovered_stamp.max(d);
            }
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
                    // History the drive rewrote: only an anchor commits it.
                    _ if tag == packed::REWRITTEN.tag(tag.object, 0) => {}
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
                    // The audit log's block at its next index; a
                    // cleaner's copy of one it lists is skipped.
                    BlockKind::Audit => inner.audit.replay_block(addr, tag),
                    // Data blocks become reachable via the journal entries
                    // referencing them; orphaned post-anchor checkpoints
                    // and relocated copies are intentionally dropped.
                    _ => {}
                }
            }
        }

        // Phase 3: derive the ledger of reachable blocks, and from it the
        // segment usage counts, from the recovered object table.
        inner.ledger = Ledger::derive(&log, &inner)?;
        log.rebuild_live_counts(inner.ledger.addrs());

        report.audit_blocks = inner.audit.blocks().len();
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

    /// Audits the drive's space accounting: recounts the ledger as mount
    /// would (read-only, nothing flushed) and returns every address the
    /// running ledger and the recount disagree on, every segment whose
    /// live count in the usage table is not the number of ledger
    /// addresses in it ([`Log::check_live_counts`]), and the number of
    /// releases the ledger has refused since mount. A block the audit log
    /// lists at index `i` must be tagged with `i` — what roll-forward
    /// replays by — and hold sixty records, or the image is corrupt.
    pub fn check_image(&self) -> Result<(Vec<Discrepancy>, Vec<SegmentMismatch>, u64)> {
        let inner = self.inner.lock();
        inner.audit.check(&self.log)?;
        let derived = Ledger::derive(&self.log, &inner)?;
        let segments = self.log.check_live_counts(inner.ledger.addrs());
        Ok((
            inner.ledger.diff(&derived),
            segments,
            inner.ledger.refused(),
        ))
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
    /// Objects in the recovered table (anchored plus any created in
    /// replayed batches).
    pub recovered_objects: usize,
    /// Next object id the drive will assign.
    pub next_oid: u64,
    /// Newest mutation stamp visible anywhere in the recovered state —
    /// the recovery point. [`HybridTimestamp::ZERO`] on an empty drive.
    pub max_recovered_stamp: HybridTimestamp,
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
    let mut newest = HybridTimestamp::ZERO;
    for e in entries {
        if e.stamp() > entry.meta.modified || matches!(e, JournalEntry::Create { .. }) {
            redo(&mut entry.meta, e);
        }
        newest = newest.max(e.stamp());
    }
    entry.sectors.push(SectorInfo { addr, slot, newest });
    entry.dirty = true;
    inner.next_oid = inner.next_oid.max(oid + 1);
    Ok(())
}

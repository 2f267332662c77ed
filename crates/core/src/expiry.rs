//! Retiring history: the detection-window expiry scan, the cleaner's
//! relocation callbacks, the differencing pass that re-encodes history
//! blocks as deltas, and the administrative flush that cuts versions out
//! of the middle of an object's journal. Everything here *releases*
//! blocks, and every path that walks an object's history to do so runs
//! inside `with_object`: a device error halfway leaves the entry in the
//! table, never a hole where it was.

use std::collections::{BTreeMap, HashMap, HashSet};

use s4_clock::{HybridTimestamp, SimTime};
use s4_journal::{decode_sector, JournalEntry};
use s4_lfs::{BlockAddr, BlockKind, BlockTag, CleanOutcome, RelocationCallbacks, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::codec::Reader;
use crate::drive::{old_blocks, Inner, S4Drive};
use crate::ids::ObjectId;
use crate::object::{DeltaRef, ObjectEntry, SectorInfo, Slot};
use crate::packed;
use crate::persist::read_subsector;
use crate::{Result, S4Error};

impl<D: BlockDev> S4Drive<D> {
    /// Releases every version older than the detection window; returns
    /// the number of blocks released. This is the scan the paper's
    /// cleaner performs over the object map (§4.2.1). Two phases over
    /// the pass: never retire the only durable description of current
    /// state before its replacement is written, so every object with a
    /// sector about to go that its checkpoint does not cover (or no
    /// checkpoint) is checkpointed first — all of them as one batch,
    /// sharing blocks — and only then is any journal retired. An error
    /// between the phases leaves extra checkpoints, never a hole. The
    /// objects the pass loaded leave the cache with it.
    pub fn expire_versions(&self) -> Result<u64> {
        let inner = &mut *self.inner.lock();
        let now = self.clock.now();
        let cutoff = HybridTimestamp::upper_bound_at(now.saturating_sub(inner.window));
        // Evicted objects that cannot have expirable state stay evicted.
        let expirable = |slot: &Slot| match slot {
            Slot::Cached(_) => true,
            Slot::Evicted(info) => {
                info.expiry_hint <= cutoff || info.deleted.is_some_and(|d| d <= cutoff)
            }
        };
        let oids: Vec<u64> = inner
            .table
            .iter()
            .filter(|(_, slot)| expirable(slot))
            .map(|(&oid, _)| oid)
            .collect();
        let mut uncovered = Vec::new();
        for &oid in &oids {
            let exposed = self.with_object(inner, ObjectId(oid), |_, entry| {
                // An object about to disappear whole needs no checkpoint.
                let fully_expiring = entry.meta.deleted.is_some_and(|d| d <= cutoff)
                    && entry.pending.is_empty()
                    && entry.sectors.last().is_none_or(|s| s.newest <= cutoff);
                let uncovered = |s: &SectorInfo| {
                    s.newest <= cutoff
                        && (entry.checkpoint_root.is_none() || s.newest > entry.covered)
                };
                Ok(!fully_expiring && entry.sectors.iter().any(uncovered))
            })?;
            if exposed {
                uncovered.push(oid);
            }
        }
        self.pack_checkpoints(inner, &uncovered)?;
        let mut released = 0u64;
        for oid in oids {
            released += self.expire_object(inner, ObjectId(oid), cutoff)?;
        }
        self.stats.expired_blocks(released);
        self.evict_excess(inner)?;
        Ok(released)
    }

    /// Runs one cleaner pass (expiry first, then segment reclamation).
    pub fn clean(&self) -> Result<CleanOutcome> {
        self.expire_versions()?;
        let outcome = self
            .cleaner
            .clean_pass(&self.log, self)
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
                            || !inner.ledger.holds(target)
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
        let Inner { table, ledger, .. } = inner;
        packed::DELTAS.pack(
            &self.log,
            ledger,
            payloads,
            |ledger, block, slot, oid, (key, base)| {
                if let Some(Slot::Cached(entry)) = table.get_mut(&oid) {
                    entry.deltas.insert(key, DeltaRef { base, block, slot });
                    entry.needs_checkpoint = true;
                    entry.dirty = true;
                    // The original block's bytes are no longer needed.
                    ledger.release(&self.log, BlockAddr(key), BlockKind::Data);
                    encoded += 1;
                }
            },
        )?;
        self.flush_log()?;
        Ok((encoded, encoded))
    }

    /// Retires the history of one object up to `cutoff`; the caller has
    /// checkpointed it if that journal was its only description.
    fn expire_object(
        &self,
        inner: &mut Inner,
        oid: ObjectId,
        cutoff: HybridTimestamp,
    ) -> Result<u64> {
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
                    .ledger
                    .release(&self.log, first.addr, BlockKind::JournalSector);
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
            return Ok(inner
                .ledger
                .release(&self.log, dref.block, BlockKind::DeltaData));
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
            released += inner
                .ledger
                .release(&self.log, dref.block, BlockKind::DeltaData);
            entry.forwards.insert(dep, new.0);
            entry.needs_checkpoint = true;
        }
        Ok(released + inner.ledger.release(&self.log, key, BlockKind::Data))
    }

    /// Rewrites one object's history with versions in `[from, to]`
    /// removed (the chain surgery behind `Flush`/`FlushO`).
    pub(crate) fn flush_object_range(
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
                JournalEntry::Write { changes, .. }
                | JournalEntry::Truncate { freed: changes, .. } => {
                    let mut v: Vec<Item> = changes.iter().map(|c| Item::Lbn(c.lbn)).collect();
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
                .ledger
                .release(&self.log, s.addr, BlockKind::JournalSector);
        }
        entry.meta.journal_head = BlockAddr::NONE;
        entry.pending = kept;
        entry.dirty = true;
        entry.needs_checkpoint = true;
        Ok(true)
    }
}

impl<D: BlockDev> RelocationCallbacks for S4Drive<D> {
    fn is_live(&self, _tag: &BlockTag, addr: BlockAddr) -> bool {
        self.inner.lock().ledger.holds(addr)
    }

    fn relocate(&self, tag: &BlockTag, addr: BlockAddr, data: &[u8]) -> s4_lfs::Result<()> {
        let inner = &mut *self.inner.lock();
        // Every kind but checkpoints moves by copy, its references with it.
        let copy = |inner: &mut Inner| -> s4_lfs::Result<BlockAddr> {
            let new = inner.ledger.append(&self.log, *tag, data, 1)?;
            inner.ledger.moved(addr, new);
            Ok(new)
        };
        match tag.kind {
            BlockKind::Data => {
                let new = copy(inner)?;
                // No entry: the object vanished and the block was stale.
                if let Some(entry) = self.cached_mut(inner, tag.object) {
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
                // Every object with a sector in this block must re-point.
                for sub in packed::JOURNAL.split(data).unwrap_or_default() {
                    let Ok((oid, _, _)) = decode_sector(&sub) else {
                        continue;
                    };
                    let Some(entry) = self.cached_mut(inner, oid) else {
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
                inner.ledger.forget(addr);
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
                    let Some(entry) = self.cached_mut(inner, oid) else {
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
                    for cp in stale_chain.into_iter().filter(|cp| *cp != addr) {
                        inner
                            .ledger
                            .release(&self.log, cp, BlockKind::ObjectCheckpoint);
                    }
                }
                self.pack_checkpoints(inner, &repack)
                    .map_err(|_| s4_lfs::LfsError::Corrupt("checkpoint rewrite"))?;
            }
            BlockKind::DeltaData => {
                let new = copy(inner)?;
                // Re-point every (object, key) delta reference into the
                // relocated block.
                for sub in packed::DELTAS.split(data).unwrap_or_default() {
                    let mut r = Reader::new(&sub, "delta slot truncated");
                    let (Ok(oid), Ok(key)) = (r.u64(), r.u64()) else {
                        continue;
                    };
                    let Some(entry) = self.cached_mut(inner, oid) else {
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

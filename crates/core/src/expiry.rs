//! Retiring history: the detection-window expiry scan, the cleaner's
//! relocation and the history rewrite after it, the differencing pass
//! that re-encodes history blocks as deltas, and the administrative flush
//! that cuts versions out of the middle of an object's journal. Everything
//! here *releases* blocks, and every path that walks an object's history
//! to do so runs inside `with_object`: a device error halfway leaves the
//! entry in the table, never a hole where it was.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};

use s4_clock::{HybridTimestamp, SimTime};
use s4_journal::{decode_sector, encode_sectors, redo, undo, JournalEntry};
use s4_lfs::{BlockAddr, BlockKind, BlockTag, CleanOutcome, RelocationCallbacks, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::codec::Reader;
use crate::drive::{changes, changes_mut, old_blocks, Inner, S4Drive};
use crate::ids::ObjectId;
use crate::object::{DeltaRef, ObjectEntry, SectorInfo, Slot};
use crate::packed::{self, PackedBlocks};
use crate::persist::read_subsector;
use crate::{Result, S4Error};

/// One cleaner pass's hold on the drive's lock, through the history
/// rewrite: no request walks history that names addresses the pass left.
struct Pass<'a, D: BlockDev>(&'a S4Drive<D>, RefCell<&'a mut Inner>);

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
                let uncovered = |s: &SectorInfo| {
                    s.newest <= cutoff
                        && (entry.checkpoint_root.is_none() || s.newest > entry.covered)
                };
                Ok(!retires_whole(entry, cutoff) && entry.sectors.iter().any(uncovered))
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
        self.rewrite_history(inner)?;
        self.evict_excess(inner)?;
        Ok(released)
    }

    /// Runs one cleaner pass: expiry, then reclamation and the rewrite of
    /// the history naming blocks it moved, under one hold of the lock.
    pub fn clean(&self) -> Result<CleanOutcome> {
        self.expire_versions()?;
        let inner = &mut *self.inner.lock();
        let pass = Pass(self, RefCell::new(inner));
        let outcome = self.cleaner.clean_pass(&self.log, &pass);
        // What the pass moved is rewritten whether or not it finished.
        self.rewrite_history(pass.1.into_inner())?;
        let outcome = outcome.map_err(S4Error::from)?;
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
                for c in self.history(entry)?.iter().flat_map(old_blocks) {
                    chains.entry(c.lbn).or_default().push(c.old);
                }
                for (lbn, olds) in chains {
                    // Successor of the newest old is the current block (if
                    // any); each older version's successor is the next old.
                    let cur = entry.meta.blocks.get(&lbn).copied();
                    let seq: Vec<BlockAddr> = olds.into_iter().chain(cur).collect();
                    // Newest-first pairs: (target, base = its successor).
                    let mut succ_content: Option<Vec<u8>> = None;
                    for pair in seq.windows(2).rev() {
                        let (target, base) = (pair[0], pair[1]);
                        if target == base
                            || entry.deltas.contains_key(&target.0)
                            || !inner.ledger.holds(target)
                            || entry.is_landmark_block(target)
                        {
                            succ_content = None;
                            continue;
                        }
                        let base_content = succ_content
                            .take()
                            .or_else(|| self.materialize_block(entry, base).ok());
                        let (Some(base_content), Ok(target_content)) =
                            (base_content, self.materialize_block(entry, target))
                        else {
                            continue;
                        };
                        let delta = s4_delta::diff(&base_content, &target_content);
                        let enc = delta.encode();
                        if enc.len() + 16 <= BLOCK_SIZE / 2 {
                            let payload = [&oid.to_le_bytes()[..], &target.0.to_le_bytes(), &enc];
                            payloads.push((oid, payload.concat(), (target.0, base)));
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
            let fully_expired = retires_whole(entry, cutoff);
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

    /// Releases one history block: removes delta encodings,
    /// re-materializes any deltas that used this block as their source,
    /// and frees the storage. Returns blocks released.
    fn release_history_block(
        &self,
        inner: &mut Inner,
        entry: &mut ObjectEntry,
        key: BlockAddr,
    ) -> Result<u64> {
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
        for dep in dependents.into_iter().map(BlockAddr) {
            let new = self.rematerialize(inner, entry, dep, 0)?;
            let dref = entry.deltas.remove(&dep.0).expect("collected above");
            released += inner
                .ledger
                .release(&self.log, dref.block, BlockKind::DeltaData);
            // The plain copy moves every pointer to the version with it.
            entry.repoint(dep, new);
            inner.note_move(entry.meta.id, dep, new);
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
        self.rewrite_history(inner)
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
        let mut all = self.history(entry)?;
        all.extend(entry.pending.iter().cloned());

        // Pass 1 (newest -> oldest): an in-range entry is droppable only
        // if every item it touches is superseded by a kept, later entry
        // (Create/Delete touch none, and are never dropped).
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Item {
            Lbn(u64),
            Attrs,
            Acl,
            Size,
        }
        fn items_of(e: &JournalEntry) -> Vec<Item> {
            match e {
                JournalEntry::Write { .. } | JournalEntry::Truncate { .. } => {
                    let lbns = changes(e).iter().map(|c| Item::Lbn(c.lbn));
                    lbns.chain([Item::Size]).collect()
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
            drop_flags[i] =
                in_range && !items.is_empty() && items.iter().all(|it| superseded.contains(it));
            if !drop_flags[i] {
                superseded.extend(items);
            }
        }
        if !drop_flags.iter().any(|&d| d) {
            return Ok(false);
        }

        // Pass 2 (oldest -> newest): replay the kept entries from the state
        // the history starts in, each one's `old` side re-derived from the
        // version it now supersedes; the dropped entries' blocks go.
        let mut state = entry.meta.clone();
        for e in all.iter_mut().rev() {
            // `new` is re-derived too: see `rewrite_history`.
            for c in changes_mut(e) {
                c.new = state.blocks.get(&c.lbn).copied().unwrap_or(BlockAddr::NONE);
            }
            undo(&mut state, e);
        }
        let mut kept: Vec<JournalEntry> = Vec::with_capacity(all.len());
        let mut to_release: Vec<BlockAddr> = Vec::new();
        for (mut e, dropped) in all.into_iter().zip(drop_flags) {
            if dropped {
                to_release.extend(changes(&e).iter().map(|c| c.new).filter(|a| !a.is_none()));
                continue;
            }
            match &mut e {
                JournalEntry::Write {
                    old_size, changes, ..
                }
                | JournalEntry::Truncate {
                    old_size,
                    freed: changes,
                    ..
                } => {
                    *old_size = state.size;
                    for c in changes {
                        c.old = state.blocks.get(&c.lbn).copied().unwrap_or(BlockAddr::NONE);
                    }
                }
                JournalEntry::SetAttr { old, .. } => *old = state.attrs.clone(),
                JournalEntry::SetAcl { old, .. } => *old = state.acl.clone(),
                _ => {}
            }
            redo(&mut state, &e);
            kept.push(e);
        }

        // The old sector chain goes, and the rewritten history waits in
        // `pending` for the caller to repack it; then the dropped blocks
        // go (a re-materialized delta re-points `pending` with the rest).
        for s in entry.sectors.drain(..) {
            inner
                .ledger
                .release(&self.log, s.addr, BlockKind::JournalSector);
        }
        entry.meta.journal_head = BlockAddr::NONE;
        entry.pending = kept;
        entry.dirty = true;
        entry.needs_checkpoint = true;
        for a in to_release {
            self.release_history_block(inner, entry, a)?;
        }
        Ok(true)
    }

    /// Every entry in `entry`'s on-disk sectors, oldest first.
    pub(crate) fn history(&self, entry: &ObjectEntry) -> Result<Vec<JournalEntry>> {
        let mut all = Vec::new();
        for s in &entry.sectors {
            all.extend(read_subsector(&self.log, s.addr, s.slot)?.1);
        }
        Ok(all)
    }

    /// Commits the moves in `inner.moved`: each retained sector whose entry
    /// superseded a moved block is rewritten, naming the new address as
    /// `old`, into a [`packed::REWRITTEN`] container — one pack — in place
    /// of its slot. Mount never replays those: the next anchor, which runs
    /// this first, commits them. A `new` pointer keeps where its write put
    /// the block; only mount's redo past the checkpoint follows it (the
    /// anchor re-checkpoints a moved current block), and `FlushO`
    /// re-derives it.
    pub(crate) fn rewrite_history(&self, inner: &mut Inner) -> Result<()> {
        // Per rewritten sector: its place in the object's sector list.
        let mut items: Vec<packed::Item<usize>> = Vec::new();
        for (oid, moves) in inner.moved.clone() {
            // An object that has since disappeared names nothing.
            let Some(entry) = self.cached_mut(inner, oid) else {
                continue;
            };
            // A block is superseded once: stop when every one is found.
            let mut left = moves.len();
            for (i, s) in entry.sectors.iter().enumerate() {
                if left == 0 {
                    break;
                }
                let (_, mut entries) = read_subsector(&self.log, s.addr, s.slot)?;
                let mut hit = false;
                for c in entries.iter_mut().flat_map(changes_mut) {
                    if let Some(&to) = moves.get(&c.old) {
                        (c.old, hit, left) = (to, true, left.saturating_sub(1));
                    }
                }
                if hit {
                    // Pointers are fixed-width: the entries still fit one sector.
                    let prev = i
                        .checked_sub(1)
                        .map_or(BlockAddr::NONE, |j| entry.sectors[j].addr);
                    items.push((oid, encode_sectors(&entries)[0].finish(oid, prev), i));
                }
            }
        }
        let Inner { table, ledger, .. } = &mut *inner;
        packed::REWRITTEN.pack(&self.log, ledger, items, |ledger, addr, slot, oid, i| {
            if let Some(Slot::Cached(entry)) = table.get_mut(&oid) {
                let s = &mut entry.sectors[i];
                ledger.release(&self.log, s.addr, BlockKind::JournalSector);
                (s.addr, s.slot) = (addr, slot);
                if i + 1 == entry.sectors.len() {
                    entry.meta.journal_head = addr;
                }
                entry.dirty = true;
            }
        })?;
        inner.moved.clear();
        Ok(())
    }

    /// Re-homes one live block the cleaner found in a victim segment —
    /// a copy at the log head — and rewrites every pointer to it.
    fn relocate(
        &self,
        inner: &mut Inner,
        tag: &BlockTag,
        addr: BlockAddr,
        data: &[u8],
    ) -> s4_lfs::Result<()> {
        let slots = |p: PackedBlocks| p.split(data).unwrap_or_default();
        // The objects that may hold a pointer to the block.
        let owners: Vec<u64> = match tag.kind {
            BlockKind::Data => vec![tag.object],
            BlockKind::JournalSector => slots(packed::JOURNAL)
                .iter()
                .filter_map(|sub| decode_sector(sub).ok().map(|(oid, ..)| oid))
                .collect(),
            BlockKind::DeltaData => slots(packed::DELTAS)
                .iter()
                .filter_map(|sub| Reader::new(sub, "delta slot truncated").u64().ok())
                .collect(),
            BlockKind::ObjectCheckpoint => match packed::CHECKPOINTS.split(data) {
                Ok(subs) => subs
                    .iter()
                    .filter_map(|b| ObjectEntry::decode(b).ok().map(|e| e.meta.id))
                    .collect(),
                // A dedicated chain block: tag.object owns it.
                Err(_) => vec![tag.object],
            },
            BlockKind::Audit => Vec::new(),
            BlockKind::SystemState => return Ok(()),
        };
        // A journal block's copy is a history rewrite too: never replayed.
        let tag = match tag.kind {
            BlockKind::JournalSector => packed::REWRITTEN.tag(tag.object, 0),
            _ => *tag,
        };
        let new = inner.ledger.append(&self.log, tag, data, 1)?;
        inner.ledger.moved(addr, new);
        if tag.kind == BlockKind::Audit {
            // The audit log's block: the stream lists it.
            inner.audit.relocate(addr, new);
        }
        for oid in owners {
            // No entry: the object vanished and the pointer was stale.
            let Some(entry) = self.cached_mut(inner, oid) else {
                continue;
            };
            let current = entry.meta.blocks.values().any(|&a| a == addr);
            entry.repoint(addr, new);
            if tag.kind == BlockKind::Data && !current {
                inner.note_move(oid, addr, new);
            }
        }
        Ok(())
    }
}

impl<D: BlockDev> RelocationCallbacks for Pass<'_, D> {
    fn is_live(&self, _tag: &BlockTag, addr: BlockAddr) -> bool {
        self.1.borrow().ledger.holds(addr)
    }

    fn relocate(&self, tag: &BlockTag, addr: BlockAddr, data: &[u8]) -> s4_lfs::Result<()> {
        self.0.relocate(&mut self.1.borrow_mut(), tag, addr, data)
    }
}

/// True if expiry at `cutoff` retires `entry` whole: a deleted object
/// whose history, all older than the cutoff, no landmark holds.
fn retires_whole(entry: &ObjectEntry, cutoff: HybridTimestamp) -> bool {
    entry.meta.deleted.is_some_and(|d| d <= cutoff)
        && entry.pending.is_empty()
        && entry.landmarks.is_empty()
        && entry.sectors.last().is_none_or(|s| s.newest <= cutoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveConfig;
    use crate::ids::{ClientId, RequestContext, UserId};
    use s4_clock::SimClock;
    use s4_simdisk::MemDisk;

    /// A dedicated checkpoint chain's non-root block is named by its
    /// predecessor's `next`, so moving it re-points the entry and demands
    /// a fresh checkpoint, which the anchor writes before the block's old
    /// segment can be reused; the object then reads back after a remount.
    #[test]
    fn a_moved_checkpoint_chain_block_is_superseded_at_the_anchor() {
        let config = DriveConfig::small_test();
        let disk = MemDisk::with_capacity_bytes(8 << 20);
        let d = S4Drive::format(disk, config, SimClock::new()).unwrap();
        let ctx = RequestContext::user(UserId(1), ClientId(1));
        let oid = d.op_create(&ctx, None).unwrap();
        for part in 0..3 {
            d.op_write(&ctx, oid, part * 100 * 4096, &[7; 100 * 4096])
                .unwrap();
        }
        let (tail, moved) = {
            let inner = &mut *d.inner.lock();
            d.pack_checkpoints(inner, &[oid.0]).unwrap();
            let entry = d.cached_mut(inner, oid.0).unwrap();
            let (root, tail) = (entry.checkpoint_root, entry.checkpoint_blocks[0]);
            assert!(tail != root, "a two-block chain");
            let tag = BlockTag::new(BlockKind::ObjectCheckpoint, oid.0, 1);
            let data = d.log.read_block(tail).unwrap();
            d.relocate(inner, &tag, tail, &data).unwrap();
            let entry = d.cached_mut(inner, oid.0).unwrap();
            assert!(entry.needs_checkpoint && !entry.checkpoint_blocks.contains(&tail));
            (tail, entry.checkpoint_blocks[0])
        };
        assert_ne!(tail, moved);
        d.force_anchor().unwrap();
        let d = S4Drive::mount(d.crash(), config, SimClock::new()).unwrap();
        assert!(d.op_read(&ctx, oid, 0, 300 * 4096, None).unwrap() == [7; 300 * 4096]);
        assert_eq!(d.check_image(), Ok((vec![], vec![], 0)));
    }

    /// A block moved while current is not rewritten on disk: its write's
    /// `new` pointer keeps the address it left. A flush that later drops
    /// that write must release where the block is, not where it was.
    #[test]
    fn a_flush_after_a_current_block_moved_releases_the_moved_copy() {
        let clock = SimClock::new();
        let disk = MemDisk::with_capacity_bytes(8 << 20);
        let d = S4Drive::format(disk, DriveConfig::small_test(), clock.clone()).unwrap();
        let (ctx, admin) = (
            RequestContext::user(UserId(1), ClientId(1)),
            RequestContext::admin(ClientId(9), 42),
        );
        let oid = d.op_create(&ctx, None).unwrap();
        let mut times = Vec::new();
        for v in 1..=3u8 {
            clock.advance(s4_clock::SimDuration::from_millis(10));
            d.op_write(&ctx, oid, 0, &[v; 4096]).unwrap();
            d.op_sync(&ctx).unwrap();
            times.push(d.now());
            if v == 2 {
                let inner = &mut *d.inner.lock();
                let current = d.cached_mut(inner, oid.0).unwrap().meta.blocks[&0];
                let data = d.log.read_block(current).unwrap();
                let tag = BlockTag::new(BlockKind::Data, oid.0, 0);
                d.relocate(inner, &tag, current, &data).unwrap();
                assert!(
                    inner.moved.is_empty(),
                    "a current block's move names no `old`"
                );
            }
        }
        d.op_flusho(&admin, oid, times[1], times[1]).unwrap();
        for (t, v) in [(times[0], 1), (times[1], 1), (times[2], 3)] {
            assert!(d.op_read(&ctx, oid, 0, 4096, Some(t)).unwrap() == [v; 4096]);
        }
        // The moved block's old segment was not reclaimed, so only the
        // ledger and the refusals are compared.
        let (found, _, refused) = d.check_image().unwrap();
        assert_eq!((found, refused), (vec![], 0));
    }
}

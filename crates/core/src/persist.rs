//! Making the object table durable: packing pending journal entries
//! into shared journal blocks, writing metadata checkpoints (shared
//! blocks for small ones, dedicated chains for large), sync, object-cache
//! eviction, and the anchor that persists the object map — plus the
//! codecs that read all of it back.
//!
//! The anchor payload (version 2) is the object map with per-object
//! sector lists; the ledger of reachable blocks is derived from it at
//! mount ([`crate::ledger`]), not persisted.

use std::borrow::Cow;

use s4_clock::{HybridTimestamp, SimDuration};
use s4_journal::{decode_sector, encode_sectors, JournalEntry};
use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::codec::{push_bytes, push_stamp, Reader};
use crate::drive::{DriveConfig, Inner, S4Drive, AUDIT_OBJECT, TXN_OBJECT};
use crate::ids::ObjectId;
use crate::object::{EvictInfo, ObjectEntry, SectorInfo, Slot};
use crate::packed;
use crate::{Result, S4Error};

const ANCHOR_MAGIC: u32 = 0x5334_414E; // "S4AN"
const SHARED_CP_THRESHOLD: usize = 1000;
const CHECKPOINT_CHUNK: usize = BLOCK_SIZE - 12;

impl<D: BlockDev> S4Drive<D> {
    /// Releases an entry's current checkpoint storage (chain blocks, or
    /// one reference on a shared block).
    pub(crate) fn release_checkpoint(&self, inner: &mut Inner, entry: &mut ObjectEntry) {
        if entry.checkpoint_root.is_none() {
            return;
        }
        // One reference on a shared block, or every block of a chain.
        let shared = (entry.checkpoint_slot != u32::MAX).then_some(entry.checkpoint_root);
        for old in entry.checkpoint_blocks.drain(..).chain(shared) {
            inner
                .ledger
                .release(&self.log, old, BlockKind::ObjectCheckpoint);
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
    pub(crate) fn pack_checkpoints(&self, inner: &mut Inner, oids: &[u64]) -> Result<()> {
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
                        push_bytes(&mut payload, chunk);
                        let tag = BlockTag::new(BlockKind::ObjectCheckpoint, oid, i as u64);
                        next = inner.ledger.append(&self.log, tag, &payload, 1)?;
                        self.stats.checkpoint_blocks(1);
                        new_blocks.push(next);
                    }
                    entry.checkpoint_root = next;
                    entry.checkpoint_blocks = new_blocks;
                    self.stats.checkpoints(1);
                }
                entry.covered = entry.meta.modified;
                entry.dirty = false;
                entry.needs_checkpoint = false;
                Ok((blob.len() <= SHARED_CP_THRESHOLD).then_some(blob))
            })?;
            small.extend(shared.map(|blob| (oid, blob, ())));
        }
        let Inner { table, ledger, .. } = inner;
        packed::CHECKPOINTS.pack(&self.log, ledger, small, |_, addr, slot, oid, ()| {
            if let Some(Slot::Cached(entry)) = table.get_mut(&oid) {
                entry.checkpoint_root = addr;
                entry.checkpoint_slot = slot;
            }
            self.stats.checkpoints(1);
            // Slot 0 is placed once per container appended.
            self.stats.checkpoint_blocks((slot == 0) as u64);
        })
    }

    /// Packs the pending journal entries of `oids` into shared journal
    /// blocks (several objects' sectors per 4 KiB block, §4.2.2).
    ///
    /// A pack that writes anything first appends the queued
    /// transaction-log records, whoever asked — a sync, an anchor, a
    /// `FlushO`, an eviction — and the transaction log's pending entries
    /// are packed first, asked for or not. A prepare's `Prepared` record
    /// is not flushed on its own, so the commit that makes any of its
    /// effects durable must carry it — and a commit the log cuts at a
    /// segment end reaches the device in append order, so no effect's
    /// sector is ever durable before the record that scopes its undo
    /// (DESIGN §6i). Nor does any entry become durable before the outcome
    /// of a transaction decided ahead of it: not another object's
    /// effect, which a second abort would undo, and not a resolved
    /// transaction's own `Prepared`, which would leave it in doubt. That
    /// trigger is the same on every mirror, where the log's layout is
    /// not, and a sync with nothing else to pack still writes nothing.
    /// An entry leaves `pending` only when its sector's block is
    /// appended, so a pack that fails part-way leaves the rest for the
    /// next one, which neither loses nor repeats an entry.
    pub(crate) fn pack_objects(&self, inner: &mut Inner, oids: &[u64]) -> Result<()> {
        let writes = |oid: &u64| matches!(inner.table.get(oid), Some(Slot::Cached(e)) if !e.pending.is_empty());
        let mut packed = std::iter::once(&TXN_OBJECT.0).chain(oids);
        if inner.txn_queue.iter().any(|r| !r.1) && packed.any(writes) {
            self.txn_append_queue(inner)?;
        }
        // Journal span: simulated time across packing, including any
        // log auto-flush the appends trigger.
        let journal_t0 = self.clock.now().as_micros();
        // Per sector: its oldest and newest stamp, and its entry count.
        let mut items: Vec<packed::Item<(HybridTimestamp, HybridTimestamp, usize)>> = Vec::new();
        let others = oids.iter().copied().filter(|&oid| oid != TXN_OBJECT.0);
        for oid in std::iter::once(TXN_OBJECT.0).chain(others) {
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
                    s.entries.len(),
                );
                items.push((oid, s.finish(oid, entry.meta.journal_head), span));
            }
        }
        if items.is_empty() {
            return Ok(());
        }
        let Inner { table, ledger, .. } = inner;
        packed::JOURNAL.pack(
            &self.log,
            ledger,
            items,
            |_, addr, slot, oid, (oldest, newest, count)| {
                if let Some(Slot::Cached(entry)) = table.get_mut(&oid) {
                    // Written: a failing append leaves the rest pending.
                    entry.pending.drain(..count);
                    entry.dirty = true;
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

    /// Commits the log's open batch, counting the blocks it wrote.
    pub(crate) fn flush_log(&self) -> Result<()> {
        let written = self.log.flush()?.blocks_written;
        self.stats.commit_blocks(written as u64);
        Ok(())
    }

    /// Sync: pack all pending journal entries, flush the log, and perform
    /// periodic anchoring / object-cache eviction.
    pub(crate) fn sync_locked(&self, inner: &mut Inner) -> Result<()> {
        self.pack_objects(inner, &Self::pending_oids(inner))?;
        self.flush_log()?;
        // The pack took every queued record along; now it is durable.
        inner.txn_queue.retain(|r| !r.1);
        self.stats.syncs(1);
        inner.syncs_since_anchor += 1;
        if inner.syncs_since_anchor >= self.config.anchor_interval_syncs {
            self.anchor_locked(inner)?;
        }
        self.evict_excess(inner)?;
        Ok(())
    }

    /// Evicts least-recently-used objects once the object cache exceeds
    /// its limit, checkpointing them first (§4.2.2: "an object's metadata
    /// is checkpointed to a log segment before being evicted from the
    /// cache") — as one batch, so that their small checkpoints share
    /// blocks: the cache is taken down to `limit - limit / 8`, which for
    /// a limit below 8 is the limit itself. A failing pack leaves every
    /// victim cached.
    pub(crate) fn evict_excess(&self, inner: &mut Inner) -> Result<()> {
        let limit = self.config.object_cache_entries.max(1);
        if inner.table.len() <= limit {
            return Ok(()); // not even the whole table is too many
        }
        let mut cached: Vec<(u64, u64)> = inner
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
        cached.sort_unstable();
        cached.truncate(cached.len() - (limit - limit / 8));
        let victims: Vec<u64> = cached.into_iter().map(|(_, oid)| oid).collect();
        self.pack_objects(inner, &victims)?;
        let stale: Vec<u64> = victims
            .iter()
            .copied()
            .filter(|oid| match inner.table.get(oid) {
                Some(Slot::Cached(e)) => e.dirty || e.checkpoint_root.is_none(),
                _ => false,
            })
            .collect();
        self.pack_checkpoints(inner, &stale)?;
        for oid in victims {
            let Some(Slot::Cached(entry)) = inner.table.get(&oid) else {
                continue;
            };
            let info = EvictInfo {
                checkpoint_root: entry.checkpoint_root,
                checkpoint_slot: entry.checkpoint_slot,
                expiry_hint: entry.expiry_hint(),
                deleted: entry.meta.deleted,
            };
            // The one place a cached entry is retired on purpose: its
            // checkpoint now says everything the entry did.
            inner.table.insert(oid, Slot::Evicted(info));
        }
        Ok(())
    }

    /// Writes a drive anchor: ensures every object is recoverable
    /// (first-time and relocation-dirtied objects get fresh checkpoints;
    /// everything else is covered by its checkpoint plus the anchored
    /// sector list), then persists the object map through the log's
    /// anchor mechanism.
    pub(crate) fn anchor_locked(&self, inner: &mut Inner) -> Result<()> {
        // The anchor that frees moved blocks' old segments commits the rewrite.
        self.rewrite_history(inner)?;
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
        let (streams, ledger) = inner.streams_mut();
        for s in streams {
            if s.spill_tail(&self.log, ledger)? && s.oid() == AUDIT_OBJECT.0 {
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

    /// Forces an anchor now (used by orderly shutdown, tests, and
    /// experiments that want pending-free segments promoted).
    pub fn force_anchor(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.sync_locked(&mut inner)?;
        self.anchor_locked(&mut inner)
    }
}

pub(crate) struct AnchorRecord {
    pub(crate) oid: u64,
    pub(crate) root: BlockAddr,
    pub(crate) slot: u32,
    pub(crate) floor: HybridTimestamp,
    /// `None` means "use the sector list inside the checkpoint blob"
    /// (always the case for evicted objects, whose checkpoint is exact).
    pub(crate) sectors: Option<Vec<SectorInfo>>,
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
                    s.encode_into(&mut out);
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

pub(crate) fn decode_anchor_payload(
    payload: &[u8],
    config: &DriveConfig,
) -> Result<(Inner, Vec<AnchorRecord>)> {
    let mut inner = Inner::new(config);
    if payload.is_empty() {
        return Ok((inner, Vec::new()));
    }
    let mut r = Reader::new(payload, "anchor payload truncated");
    if r.u32()? != ANCHOR_MAGIC {
        return Err(S4Error::BadRequest("anchor payload magic"));
    }
    inner.next_oid = r.u64()?;
    inner.window = SimDuration::from_micros(r.u64()?);
    inner.audit.decode_anchor(&mut r)?;
    let mut records = Vec::new();
    for _ in 0..r.count(8 + 8 + 4 + 16 + 1)? {
        let (oid, root) = (r.u64()?, BlockAddr(r.u64()?));
        let (slot, floor) = (r.u32()?, r.stamp()?);
        let explicit = r.u8()? == 1;
        let mut sectors = explicit.then(Vec::new);
        if let Some(list) = &mut sectors {
            for _ in 0..r.count(SectorInfo::BYTES)? {
                list.push(SectorInfo::decode(&mut r)?);
            }
        }
        records.push(AnchorRecord {
            oid,
            root,
            slot,
            floor,
            sectors,
        });
    }
    inner.alerts.decode_anchor(&mut r)?;
    inner.traces.decode_anchor(&mut r)?;
    Ok((inner, records))
}

/// Reads the checkpoint at `(root, slot)` back into an entry that knows
/// where it came from.
pub(crate) fn read_checkpoint<D: BlockDev>(
    log: &Log<D>,
    root: BlockAddr,
    slot: u32,
) -> Result<ObjectEntry> {
    if root.is_none() {
        return Err(S4Error::NoSuchObject);
    }
    let mut blocks = Vec::new();
    let mut entry = if slot != u32::MAX {
        // Shared checkpoint block: decoded where it lies.
        ObjectEntry::decode(packed::CHECKPOINTS.slot(&log.read_block(root)?, slot)?)?
    } else {
        let mut blob = Vec::new();
        let mut addr = root;
        while !addr.is_none() {
            let block = log.read_block(addr)?;
            let mut r = Reader::new(&block, "checkpoint chunk truncated");
            let next = BlockAddr(r.u64()?);
            blob.extend_from_slice(r.bytes()?);
            blocks.push(addr);
            addr = next;
        }
        ObjectEntry::decode(&blob)?
    };
    entry.checkpoint_root = root;
    entry.checkpoint_slot = slot;
    entry.checkpoint_blocks = blocks;
    Ok(entry)
}

/// The full entry behind a table slot: the cached one in place, an
/// evicted one read back from its checkpoint.
pub(crate) fn slot_entry<'a, D: BlockDev>(
    log: &Log<D>,
    slot: &'a Slot,
) -> Result<Cow<'a, ObjectEntry>> {
    Ok(match slot {
        Slot::Cached(entry) => Cow::Borrowed(&**entry),
        Slot::Evicted(i) => Cow::Owned(read_checkpoint(log, i.checkpoint_root, i.checkpoint_slot)?),
    })
}

/// Reads one object's sector out of a shared journal block.
pub(crate) fn read_subsector<D: BlockDev>(
    log: &Log<D>,
    addr: BlockAddr,
    slot: u32,
) -> Result<(u64, Vec<JournalEntry>)> {
    let block = log.read_block(addr)?;
    let (oid, _prev, entries) = decode_sector(packed::JOURNAL.slot(&block, slot)?)?;
    Ok((oid, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::EvictInfo;

    #[test]
    fn anchor_payload_round_trips_and_hostile_bytes_are_an_error_not_a_panic() {
        let config = DriveConfig::small_test();
        let mut inner = Inner::new(&config);
        inner.next_oid = 77;
        let stamp = HybridTimestamp::new(s4_clock::SimTime::from_micros(5), 2);
        let mut entry = ObjectEntry::new(s4_journal::ObjectMeta::new(9, stamp));
        entry.checkpoint_root = BlockAddr(40);
        entry.sectors.push(SectorInfo {
            addr: BlockAddr(50),
            slot: 1,
            oldest: stamp,
            newest: stamp,
        });
        inner.table.insert(9, Slot::Cached(Box::new(entry)));
        let evicted = EvictInfo {
            checkpoint_root: BlockAddr(60),
            checkpoint_slot: 3,
            expiry_hint: stamp,
            deleted: None,
        };
        inner.table.insert(10, Slot::Evicted(evicted));

        let payload = encode_anchor_payload(&inner);
        let (decoded, records) = decode_anchor_payload(&payload, &config).unwrap();
        assert_eq!(decoded.next_oid, 77);
        let roots: Vec<_> = records.iter().map(|r| (r.oid, r.root, r.slot)).collect();
        assert_eq!(
            roots,
            [(9, BlockAddr(40), u32::MAX), (10, BlockAddr(60), 3)]
        );
        assert_eq!(records[0].sectors.as_ref().map(Vec::len), Some(1));
        assert!(records[1].sectors.is_none());
        for cut in 1..payload.len() {
            assert!(decode_anchor_payload(&payload[..cut], &config).is_err());
        }
        for bad in crate::hostile(&payload) {
            let _ = decode_anchor_payload(&bad, &config);
        }
    }
}

//! One object's — or a whole drive's — *logical* state, detached from
//! block addresses: the export/replay surface behind mirror resync
//! (DESIGN §6g) and online reshard (DESIGN §6h), and the two digests
//! that check a replay. Resync moves every live object plus the audit
//! log onto a fresh drive; reshard moves one object's
//! current or historical version at a time onto a live one. Both replay
//! through [`S4Drive::converge`], so a copy and its source agree on
//! [`S4Drive::object_digest`].

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_journal::JournalEntry;
use s4_simdisk::BlockDev;

use crate::drive::{DriveConfig, Inner, S4Drive};
use crate::ids::{ObjectId, RequestContext};
use crate::object::Slot;
use crate::persist::slot_entry;
use crate::reserved::ResyncStream;
use crate::{Result, S4Error};

impl<D: BlockDev> S4Drive<D> {
    /// Deterministic digest of the drive's logical state: the object
    /// table (metadata, sector lists, delta maps, landmarks,
    /// history floors, pending journal entries), the audit log, and the
    /// id allocator. Two mounts of the same device image
    /// must produce equal digests — the torture harness's journal-replay
    /// idempotence invariant. FNV-1a over a canonical (oid-sorted)
    /// serialization; caches, statistics, and LRU state are excluded: an
    /// evicted object hashes as the entry its checkpoint decodes to,
    /// which is what a mount would cache.
    pub fn state_digest(&self) -> u64 {
        let inner = self.inner.lock();
        let mut h = Fnv::new();
        h.u64(inner.next_oid);
        h.u64(inner.window.as_micros());
        for (&oid, slot) in &inner.table {
            h.u64(oid);
            let Ok(entry) = slot_entry(&self.log, slot) else {
                h.u64(2); // an unreadable checkpoint is a state of its own
                continue;
            };
            h.u64(1);
            h.bytes(&entry.encode());
            h.u64(entry.pending.len() as u64);
            let mut buf = Vec::new();
            for e in &entry.pending {
                e.encode_into(&mut buf);
            }
            h.bytes(&buf);
        }
        inner.audit.digest(|b| h.bytes(b));
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
        // Transaction-log records not yet durable. None are queued after
        // a mount, or on a drive that runs no transaction, and then the
        // digest reads as it did before the queue existed.
        if !inner.txn_queue.is_empty() {
            h.u64(inner.txn_queue.len() as u64);
            for (rec, appended) in &inner.txn_queue {
                let mut buf = Vec::new();
                rec.encode_into(&mut buf);
                h.bytes(&buf);
                h.u64(u64::from(*appended));
            }
        }
        h.0
    }

    /// Exports the drive's logical state for mirror resync (admin only):
    /// every live object's current version plus the raw audit log. Deleted objects and expired history are *not*
    /// exported — clients observe `NoSuchObject` either way, and the
    /// replacement member starts its history pool from the survivor's
    /// present (the paper's window guarantee is per-drive; a rebuilt
    /// member's window restarts at the rebuild).
    pub fn resync_image(&self, ctx: &RequestContext) -> Result<ResyncImage> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        // A resolution still queued here would reach the replica as a
        // transaction in doubt: append the queue first, so that the
        // exported log carries it (it stays volatile here until the next
        // sync).
        self.txn_append_queue(&mut inner)?;
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
        })
    }

    /// Formats `dev` and replays `image` onto it: each live object is
    /// recreated with its original creation/modification *times* (the
    /// stamp sequence component is drive-local), and the audit log is
    /// copied byte for byte. The result is a
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
            let inner = &mut *drive.inner.lock();
            inner.window = image.window;
            for obj in &image.objects {
                drive.insert_exported(inner, obj)?;
            }
            inner.next_oid = inner.next_oid.max(image.next_oid);

            inner
                .audit
                .restore(&drive.log, &mut inner.ledger, &image.audit)?;
        }
        drive.force_anchor()?;
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
    /// oid is inserted fresh; an existing live object is converged onto
    /// `obj` in place (a stamped truncate-and-rewrite when content or
    /// modification time differ, nothing when they already agree). A
    /// tombstoned oid is an error — oids are never reused.
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
            self.converge(
                inner,
                entry,
                &obj.content,
                &obj.attrs,
                &obj.acl,
                Some(obj.modified),
            )
        })
    }

    /// Inserts an exported object under its own id, carrying its
    /// creation/modification *times* — the replay step shared by mirror
    /// resync and reshard migration.
    fn insert_exported(&self, inner: &mut Inner, obj: &ResyncObject) -> Result<()> {
        let created = || self.stamps.pinned(obj.created, || self.stamps.next());
        self.insert_new(inner, obj.oid, created());
        self.with_object(inner, ObjectId(obj.oid), |inner, entry| {
            // The ACL belongs to the creating instant, as in `op_create`.
            if !obj.acl.is_empty() {
                let set = JournalEntry::SetAcl {
                    stamp: created(),
                    old: Vec::new(),
                    new: obj.acl.clone(),
                };
                self.commit(entry, set);
            }
            self.converge(
                inner,
                entry,
                &obj.content,
                &obj.attrs,
                &obj.acl,
                Some(obj.modified),
            )
        })
    }
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
    /// The audit log, alerts included.
    pub audit: ResyncStream,
}

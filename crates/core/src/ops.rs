//! The Table-1 operations: object create/delete/read/write/append/
//! truncate, attributes and ACLs, the partition (named-object) table,
//! sync, the administrative window and flush commands, version history
//! and landmarks. Authorization is included; auditing happens in the RPC
//! dispatcher. Every operation is one `with_object` closure around the
//! shared helpers in [`crate::drive`] — this file owns no state.

use std::collections::BTreeSet;

use s4_clock::{HybridTimestamp, SimDuration, SimTime};
use s4_journal::{JournalEntry, ObjectMeta, MAX_SECTOR_BYTES};
use s4_lfs::{BlockAddr, BlockKind};
use s4_simdisk::BlockDev;

use crate::acl::{AclEntry, AclTable, Perm};
use crate::codec::Reader;
use crate::drive::{Inner, ObjectAttrs, S4Drive, VersionRecord, AUDIT_OBJECT, PARTITION_OBJECT};
use crate::ids::{ClientId, ObjectId, RequestContext};
use crate::ledger::retained_history;
use crate::object::ObjectEntry;
use crate::persist::retained;
use crate::{Result, S4Error};

impl<D: BlockDev> S4Drive<D> {
    /// Creates an object; the creator receives a full-permission ACL
    /// entry unless an explicit table is supplied.
    pub fn op_create(&self, ctx: &RequestContext, acl: Option<AclTable>) -> Result<ObjectId> {
        let mut inner = self.inner.lock();
        // Round up to the drive's oid residue class: array members
        // allocate in disjoint classes so drive-assigned ids route home.
        let (stride, offset) = self.oid_class();
        let n = inner.next_oid;
        let oid = n + (offset + stride - n % stride) % stride;
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
            self.authorize_live(ctx, entry, Perm::OWNER)?;
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
            self.authorize_live(ctx, entry, Perm::WRITE)?;
            self.write_extent(inner, entry, offset, data)
        })
    }

    /// Appends `data` at the end of the object, returning the new size.
    pub fn op_append(&self, ctx: &RequestContext, oid: ObjectId, data: &[u8]) -> Result<u64> {
        self.check_not_reserved(oid)?;
        self.throttle(ctx, data.len() as u64);
        let mut inner = self.inner.lock();
        self.with_object(&mut inner, oid, |inner, entry| {
            self.authorize_live(ctx, entry, Perm::WRITE)?;
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
            self.authorize_live(ctx, entry, Perm::WRITE)?;
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
            self.authorize_live(ctx, entry, Perm::WRITE)?;
            let old = entry.meta.attrs.clone();
            self.commit_metadata(entry, |stamp| JournalEntry::SetAttr {
                stamp,
                old: old.clone(),
                new: attrs.clone(),
            })
        })
    }

    /// Commits an attribute or ACL change, `make(stamp)`: one journal
    /// entry holding the old blob and the new. An entry never spans
    /// journal sectors, so one that no sector holds is refused before
    /// it takes a stamp or changes anything.
    fn commit_metadata(
        &self,
        entry: &mut ObjectEntry,
        make: impl Fn(HybridTimestamp) -> JournalEntry,
    ) -> Result<()> {
        if make(HybridTimestamp::ZERO).encoded_len() > MAX_SECTOR_BYTES {
            return Err(S4Error::BadRequest(
                "metadata change exceeds a journal sector",
            ));
        }
        self.commit(entry, make(self.stamps.next()));
        Ok(())
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
            self.authorize_live(ctx, entry, Perm::OWNER)?;
            let mut table = AclTable::decode(&entry.meta.acl)?;
            table.set(acl);
            let (old, new) = (entry.meta.acl.clone(), table.encode());
            self.commit_metadata(entry, |stamp| JournalEntry::SetAcl {
                stamp,
                old: old.clone(),
                new: new.clone(),
            })
        })
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

    /// Administrative: adds `add` unless its name is taken, and removes
    /// every name in `remove` that is there, rewriting the partition
    /// table once — an array's note install, which retires earlier notes
    /// in the same rewrite. A name already in place, or already gone, is
    /// no error, so the edit is idempotent; one that changes nothing
    /// writes nothing.
    pub fn op_pedit(
        &self,
        ctx: &RequestContext,
        add: Option<(&str, ObjectId)>,
        remove: &[String],
    ) -> Result<()> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        let mut parts = self.read_partitions(&mut inner, None)?;
        let before = parts.len();
        if let Some((name, oid)) = add {
            if name.is_empty() || name.len() > 255 {
                return Err(S4Error::BadRequest("partition name length"));
            }
            self.ensure_cached(&mut inner, oid)?;
            if !parts.iter().any(|(n, _)| n == name) {
                parts.push((name.to_string(), oid.0));
            }
        }
        let added = parts.len() != before;
        parts.retain(|(n, _)| !remove.contains(n));
        if !added && parts.len() == before {
            return Ok(());
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

    pub(crate) fn read_partitions(
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

    pub(crate) fn write_partitions(
        &self,
        inner: &mut Inner,
        parts: &[(String, u64)],
    ) -> Result<()> {
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
    /// mutation falls in `[from, to]`, and anchors, which commits the
    /// rewritten histories.
    pub fn op_flush(&self, ctx: &RequestContext, from: SimTime, to: SimTime) -> Result<()> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        let oids: Vec<u64> = inner.table.keys().copied().collect();
        for oid in oids {
            self.flush_object_range(&mut inner, ObjectId(oid), from, to)?;
        }
        self.anchor_locked(&mut inner)
    }

    /// Administrative: removes versions of one object in `[from, to]`, and
    /// anchors, which commits the rewritten history.
    pub fn op_flusho(
        &self,
        ctx: &RequestContext,
        oid: ObjectId,
        from: SimTime,
        to: SimTime,
    ) -> Result<()> {
        self.require_admin(ctx)?;
        let mut inner = self.inner.lock();
        self.flush_object_range(&mut inner, oid, from, to)?;
        self.anchor_locked(&mut inner)
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
            self.authorize(ctx, &entry.meta.acl, Perm::RECOVERY)?;
            let all = retained(&self.log, entry)?;
            Ok(all.iter().map(VersionRecord::from_entry).collect())
        })
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
            self.authorize(ctx, &entry.meta.acl, Perm::OWNER)?;
            let mut meta = self.version_at(entry, time)?;
            if entry.landmarks.iter().any(|m| m.modified == meta.modified) {
                return Ok(()); // already pinned
            }
            // Materialize any delta-encoded blocks: a landmark must not
            // depend on expirable delta bases.
            for (&lbn, addr) in meta.blocks.iter_mut() {
                if entry.deltas.contains_key(&addr.0) {
                    *addr = self.rematerialize(inner, entry, *addr, lbn)?;
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
            self.authorize(ctx, &entry.meta.acl, Perm::OWNER)?;
            // Read before the landmark leaves: a failed read changes nothing.
            let history = retained_history(&self.log, entry)?;
            let at = |m: &mut ObjectMeta| m.modified.time == modified;
            let removed: Vec<ObjectMeta> = entry.landmarks.extract_if(.., at).collect();
            if removed.is_empty() {
                return Err(S4Error::NoSuchObject);
            }
            // Blocks that only the landmark kept alive: neither current
            // state, another landmark nor a retained journal entry names
            // them, so they are released now — what `Ledger::derive`
            // counts.
            let addrs: BTreeSet<BlockAddr> = removed
                .iter()
                .flat_map(|m| m.blocks.values().copied())
                .collect();
            for addr in addrs {
                let current = entry.meta.blocks.values().any(|&a| a == addr);
                if !current && !entry.is_landmark_block(addr) && !history.contains(&addr) {
                    inner.ledger.release(&self.log, addr, BlockKind::Data);
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
            self.authorize(ctx, &entry.meta.acl, Perm::READ)?;
            Ok(entry
                .landmarks
                .iter()
                .map(|m| (m.modified.time, m.size))
                .collect())
        })
    }
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
    let mut r = Reader::new(data, "partition table truncated");
    let mut out = Vec::new();
    for _ in 0..r.count(2 + 8)? {
        let len = r.u16()? as usize;
        let name = String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| S4Error::BadRequest("partition name utf8"))?;
        out.push((name, r.u64()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_blob_round_trips_and_hostile_bytes_are_an_error_not_a_panic() {
        let parts = vec![("root".to_string(), 4), ("спул".to_string(), 9)];
        let blob = encode_partition_blob(&parts);
        assert_eq!(decode_partition_blob(&blob).unwrap(), parts);
        assert!(decode_partition_blob(&[]).unwrap().is_empty());
        for cut in 1..blob.len() {
            assert!(decode_partition_blob(&blob[..cut]).is_err());
        }
        for bad in crate::hostile(&blob) {
            let _ = decode_partition_blob(&bad);
        }
    }
}

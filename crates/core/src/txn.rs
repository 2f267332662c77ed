//! Cross-shard transactions: the participant side of two-phase commit.
//!
//! The drive persists its 2PC state in [`TXN_OBJECT`], a journaled
//! table object, so the ordinary sync discipline gives each record a
//! crisp durability point. Abort is *forward compensation*: rather
//! than physically undoing journal entries (which would corrupt the
//! append-only history pool), the drive appends NEW entries that
//! restore every touched object to its state as of the transaction's
//! `t0` — self-securing even across its own rollbacks.

use s4_clock::{HybridTimestamp, SimDuration, SimTime};
use s4_journal::txn::{self as txnlog, TxnRecord};
use s4_journal::JournalEntry;
use s4_simdisk::BlockDev;

use crate::drive::{Inner, S4Drive, TXN_OBJECT};
use crate::ids::ObjectId;
use crate::{Result, S4Error};

impl<D: BlockDev> S4Drive<D> {
    /// Opens participation in transaction `txid`: queues a `Prepared`
    /// record and returns `t0`, the instant compensation would restore
    /// to. The clock is nudged one microsecond past `t0` so every effect
    /// of the transaction is stamped *strictly* after it.
    ///
    /// The record is not written here. It goes to the transaction log
    /// with the first pack that carries any of the transaction's effects
    /// — normally the vote's, or a `Sync` before it — and the journal
    /// packs the transaction log ahead of every other object, so a crash
    /// before that commit leaves no trace of the transaction.
    pub fn txn_begin(&self, txid: u64) -> Result<SimTime> {
        let t0 = self.clock.now();
        self.clock.advance(SimDuration::from_micros(1));
        self.txn_begin_at(txid, t0)?;
        Ok(t0)
    }

    /// [`txn_begin`](Self::txn_begin) with a caller-chosen `t0`. Mirror
    /// workers use this to record the *same* restore point on every
    /// member — [`S4Drive::now`] must already be strictly past `t0`, or
    /// the transaction's effects would not sort after it. Like
    /// `txn_begin`, it issues no device write of its own.
    pub(crate) fn txn_begin_at(&self, txid: u64, t0: SimTime) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.txn_pending.contains_key(&txid) {
            return Err(S4Error::BadRequest("duplicate transaction id"));
        }
        let t0_us = t0.as_micros();
        inner
            .txn_queue
            .push((TxnRecord::Prepared { txid, t0_us }, false));
        inner.txn_pending.insert(
            txid,
            TxnPending {
                t0_us,
                touched: None,
            },
        );
        Ok(())
    }

    /// Casts this drive's yes-vote for `txid`: the sub-batch executed,
    /// touching exactly `oids` and adding partition `names`. The
    /// `Touched` record is queued and the queue appended — with
    /// `Prepared`, if no pack took it yet, in the same block — and
    /// flushed with the effects, one commit, before this returns; so a
    /// vote that reached the coordinator implies the effects and their
    /// scope survive any crash, which is also all a `Sync` inside the
    /// sub-batch asked for.
    pub fn txn_vote(&self, txid: u64, oids: Vec<u64>, names: Vec<String>) -> Result<()> {
        let mut inner = self.inner.lock();
        if !inner.txn_pending.contains_key(&txid) {
            return Err(S4Error::BadRequest("vote for unknown transaction"));
        }
        let touched = TxnRecord::Touched {
            txid,
            oids: oids.clone(),
            names: names.clone(),
        };
        inner.txn_queue.push((touched, false));
        self.txn_append_queue(&mut inner)?;
        self.sync_locked(&mut inner)?;
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
    /// compensation first, as pending entries. Either way the outcome
    /// is queued, not flushed: it rides whatever next packs any other
    /// object's entries, or an orderly unmount, and
    /// [`txn_resolution_pending`](Self::txn_resolution_pending) says
    /// until when. A crash before then leaves the transaction in doubt,
    /// and mount decides it again from the coordinator's note: a commit
    /// is redone, an abort compensated again (compensation is
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
        inner.txn_pending.remove(&txid);
        inner.txn_locks.retain(|_, t| *t != txid);
        let resolved = TxnRecord::Resolved {
            txid,
            committed: commit,
        };
        inner.txn_queue.push((resolved, false));
        Ok(())
    }

    /// Whether `txid`'s resolution is still volatile here: decided, but
    /// not yet in a commit that has returned. The array retires a
    /// transaction's decision note only once no live member of any
    /// participant says so.
    pub fn txn_resolution_pending(&self, txid: u64) -> bool {
        let inner = self.inner.lock();
        inner.txn_queue.iter().any(|(r, _)| match r {
            TxnRecord::Resolved { txid: t, .. } => *t == txid,
            _ => false,
        })
    }

    /// Appends every queued record now, to ride the next sync whatever
    /// it packs: an orderly unmount leaves nothing in doubt, and so does
    /// an array mount that resolved something. An array calls it
    /// through its shard worker, so that a mirror group's members record
    /// at one instant.
    pub fn txn_settle(&self) -> Result<()> {
        self.txn_append_queue(&mut self.inner.lock())
    }

    /// Appends the queued records to the transaction log in one write:
    /// the one place the log is written. When no transaction is left
    /// open the log's truncate says it for every record queued, so the
    /// records themselves are only written beside a transaction still
    /// pending. The next sync carries them; until its flush returns they
    /// stay queued, marked appended (a resolution among them stays
    /// [pending](Self::txn_resolution_pending)). A failed append marks
    /// nothing: every record stays queued for the next.
    pub(crate) fn txn_append_queue(&self, inner: &mut Inner) -> Result<()> {
        if inner.txn_queue.iter().all(|r| r.1) {
            return Ok(());
        }
        if inner.txn_pending.is_empty() {
            if inner.table.contains_key(&TXN_OBJECT.0) {
                self.with_object(inner, TXN_OBJECT, |inner, entry| {
                    if entry.meta.size > 0 {
                        self.truncate_inner(inner, entry, 0)?;
                    }
                    Ok(())
                })?;
            }
        } else {
            let mut bytes = Vec::new();
            for (rec, _) in inner.txn_queue.iter().filter(|r| !r.1) {
                rec.encode_into(&mut bytes);
            }
            // The log object is created lazily on first use (no
            // dynamic-oid consumption — the id is a reserved sentinel).
            if !inner.table.contains_key(&TXN_OBJECT.0) {
                self.insert_new(inner, TXN_OBJECT.0, self.stamps.next());
            }
            self.with_object(inner, TXN_OBJECT, |inner, entry| {
                let off = entry.meta.size;
                self.write_extent(inner, entry, off, &bytes)
            })?;
        }
        for r in &mut inner.txn_queue {
            r.1 = true;
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
        let records =
            txnlog::scan(&log).map_err(|_| S4Error::BadRequest("corrupt transaction log"))?;
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
            match self.version_at(entry, t0) {
                Ok(old) if old.is_live() => {
                    if let Some(was_deleted) = entry.meta.deleted {
                        let stamp = self.stamps.next();
                        self.commit(entry, JournalEntry::Revive { stamp, was_deleted });
                    }
                    let content = self.read_extent(entry, &old, 0, old.size)?;
                    self.converge(inner, entry, &content, &old.attrs, &old.acl, None)
                }
                Err(e) if e != S4Error::NoSuchObject => Err(e),
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

/// In-memory state of one unresolved transaction (see
/// [`s4_journal::txn::InDoubtTxn`] for the recovered form).
pub(crate) struct TxnPending {
    /// Pre-transaction timestamp (µs); compensation restores to here.
    pub(crate) t0_us: u64,
    /// Exact touch scope once the vote record is durable; `None` while
    /// preparing (a crash then means blanket compensation).
    pub(crate) touched: Option<(Vec<u64>, Vec<String>)>,
}

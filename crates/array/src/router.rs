//! Deterministic request routing for the sharded array.
//!
//! The flat object namespace is partitioned by residue class: shard `i`
//! of an `n`-shard array owns every dynamic ObjectID `oid ≡ i (mod n)`.
//! Because each member drive allocates only inside its own class (see
//! [`s4_core::S4Drive::set_oid_class`]), the ID a drive assigns at
//! `Create` time already routes home — the array never needs a mapping
//! table, and any client holding an ObjectID can compute its shard.
//!
//! Reserved drive-local objects (audit log, partition table, alert
//! stream, flight recorder) exist *per shard* — each member drive keeps
//! its own security perimeter — so a request explicitly addressed to a
//! reserved ID routes to shard 0 by convention, while the admin plane
//! reads every shard's copy and merges (see `forensics`).

use s4_core::rpc::LAST_CREATED;
use s4_core::{ObjectId, Request, S4Error};

use crate::epoch::EpochInfo;

/// How the scatter-gather layer combines per-shard responses of a
/// broadcast request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Every shard must answer `Ok` (Sync, Flush, SetWindow).
    AllOk,
    /// Sum the per-shard `NewSize` counts (FlushAlerts, FlushTraces).
    SumNewSize,
    /// Concatenate partition listings, sorted by name (PList).
    Partitions,
    /// The one shard that knows the name answers (PMount, PDelete —
    /// the association lives only on the root object's home shard).
    FirstSuccess,
}

/// Where a single (non-batch) request goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Round-robin shard choice; the drive assigns an ID in its class.
    Create,
    /// One specific shard.
    Shard(usize),
    /// Every shard, responses combined per [`Merge`].
    Broadcast(Merge),
    /// `Request::Batch`: split into per-shard sub-batches.
    SplitBatch,
}

/// Home shard of `oid` in an `n`-shard array with no split in flight.
pub fn shard_of(oid: ObjectId, n: usize) -> usize {
    slot_of(oid, &EpochInfo::initial(n))
}

/// Home *slot* of `oid` under epoch `e`: the doubled-class residue if
/// that class's source has split, its pre-split owner otherwise.
/// Degenerates to `oid % base` when no split is in flight.
pub fn slot_of(oid: ObjectId, e: &EpochInfo) -> usize {
    if oid.is_reserved() {
        return 0;
    }
    let c2 = (oid.0 % (2 * e.base as u64)) as usize;
    if c2 >= e.base && e.bits & (1u64 << (c2 - e.base)) != 0 {
        c2
    } else {
        c2 % e.base
    }
}

/// Dense index of `oid`'s home shard under epoch `e` (the index into
/// the array's live-shard vector).
pub fn dense_of(oid: ObjectId, e: &EpochInfo) -> usize {
    e.dense_of_slot(slot_of(oid, e))
        .expect("slot_of only routes to live slots")
}

/// Computes the route of one request under epoch `e`. `Route::Shard`
/// carries a *dense* index.
pub fn route(req: &Request, e: &EpochInfo) -> Route {
    match req {
        Request::Create => Route::Create,
        Request::Batch(_) => Route::SplitBatch,
        // Namespace ops: the association lives on the root object's
        // home shard (PCreate validates the object exists), so lookups
        // and deletions scatter.
        Request::PCreate { oid, .. } => Route::Shard(dense_of(*oid, e)),
        Request::PDelete { .. } | Request::PMount { .. } => Route::Broadcast(Merge::FirstSuccess),
        Request::PList { .. } => Route::Broadcast(Merge::Partitions),
        // Whole-drive admin/durability ops apply everywhere.
        Request::Sync => Route::Broadcast(Merge::AllOk),
        Request::Flush { .. } => Route::Broadcast(Merge::AllOk),
        Request::SetWindow { .. } => Route::Broadcast(Merge::AllOk),
        Request::FlushAlerts | Request::FlushTraces => Route::Broadcast(Merge::SumNewSize),
        // Everything else is object-directed.
        _ => Route::Shard(dense_of(req.target(), e)),
    }
}

/// A batch split into per-shard sub-batches.
///
/// `slots[s][p]` is the original batch index answered by position `p`
/// of shard `s`'s sub-batch. A `Sync` sub-request fans out to every
/// shard (one slot per shard, all mapping to the same original index),
/// so one original index may own several slots.
pub struct BatchPlan {
    /// Per-shard sub-batch (empty = shard not involved).
    pub subs: Vec<Vec<Request>>,
    /// Per-shard slot → original-index map.
    pub slots: Vec<Vec<usize>>,
    /// Shards (ascending) whose sub-batch holds a mutation other than
    /// `Sync`. Two or more make the batch a transaction (DESIGN §6i)
    /// with exactly these as participants: a shard that is only read or
    /// synced has nothing to roll back, so it casts no vote.
    pub writers: Vec<usize>,
    /// Number of sub-requests in the original batch.
    pub total: usize,
}

/// Splits a batch into per-shard sub-batches, preserving each shard's
/// relative order. `next_create_shard` supplies the round-robin shard
/// for each `Create`; [`LAST_CREATED`] targets follow the most recent
/// `Create`'s shard (its placeholder is substituted drive-side, inside
/// that shard's sub-batch).
///
/// Semantics deviation, documented: a lone drive aborts a batch at the
/// first failing sub-request. Split across shards, only the failing
/// *shard's* remainder is aborted — other shards' sub-batches may have
/// completed. This matches the paper's per-drive perimeter (a drive
/// can only vouch for its own operations) and the existing "earlier
/// effects remain" batch contract.
pub fn split_batch(
    reqs: &[Request],
    e: &EpochInfo,
    mut next_create_shard: impl FnMut() -> usize,
) -> Result<BatchPlan, S4Error> {
    let n = e.live_shards();
    let mut plan = BatchPlan {
        subs: vec![Vec::new(); n],
        slots: vec![Vec::new(); n],
        writers: Vec::new(),
        total: reqs.len(),
    };
    let mut last_created: Option<usize> = None;
    for (idx, sub) in reqs.iter().enumerate() {
        let shard = match route(sub, e) {
            Route::SplitBatch => return Err(S4Error::BadRequest("nested batch")),
            Route::Create => {
                let s = next_create_shard();
                last_created = Some(s);
                s
            }
            Route::Broadcast(_) if *sub == Request::Sync => {
                // Durability barrier: every shard syncs, the single
                // original index collapses to Ok iff all succeeded.
                for s in 0..n {
                    plan.subs[s].push(Request::Sync);
                    plan.slots[s].push(idx);
                }
                continue;
            }
            Route::Broadcast(_) => {
                return Err(S4Error::BadRequest("array: broadcast op inside batch"))
            }
            Route::Shard(_) if sub.target() == LAST_CREATED => {
                last_created.ok_or(S4Error::BadRequest("LAST_CREATED before any batch Create"))?
            }
            Route::Shard(s) => s,
        };
        plan.subs[shard].push(sub.clone());
        plan.slots[shard].push(idx);
    }
    let writes = |r: &Request| r.mutates() && *r != Request::Sync;
    plan.writers = (0..n)
        .filter(|&s| plan.subs[s].iter().any(writes))
        .collect();
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_objects_pin_to_shard_zero() {
        for oid in [0u64, 1, 2, 3, u64::MAX - 3] {
            assert_eq!(shard_of(ObjectId(oid), 4), 0, "oid {oid}");
        }
        assert_eq!(shard_of(ObjectId(7), 4), 3);
        assert_eq!(shard_of(ObjectId(8), 4), 0);
    }

    #[test]
    fn routes_cover_table_one() {
        let e = EpochInfo::initial(4);
        assert_eq!(route(&Request::Create, &e), Route::Create);
        assert_eq!(
            route(
                &Request::Read {
                    oid: ObjectId(6),
                    offset: 0,
                    len: 1,
                    time: None
                },
                &e
            ),
            Route::Shard(2)
        );
        assert_eq!(route(&Request::Sync, &e), Route::Broadcast(Merge::AllOk));
        assert_eq!(
            route(&Request::FlushAlerts, &e),
            Route::Broadcast(Merge::SumNewSize)
        );
        assert_eq!(
            route(&Request::PList { time: None }, &e),
            Route::Broadcast(Merge::Partitions)
        );
        assert_eq!(
            route(
                &Request::PCreate {
                    name: "p".into(),
                    oid: ObjectId(5)
                },
                &e
            ),
            Route::Shard(1)
        );
        for by_name in [
            Request::PMount {
                name: "p".into(),
                time: None,
            },
            Request::PDelete { name: "p".into() },
        ] {
            assert_eq!(route(&by_name, &e), Route::Broadcast(Merge::FirstSuccess));
        }
        assert_eq!(route(&Request::Batch(Vec::new()), &e), Route::SplitBatch);
    }

    #[test]
    fn split_epoch_routes_moved_class_to_target() {
        // 4 shards, slot 1 split: oids ≡ 5 (mod 8) moved to slot 5.
        let e = EpochInfo {
            seq: 2,
            base: 4,
            bits: 0b0010,
        };
        assert_eq!(slot_of(ObjectId(5), &e), 5, "moved residue");
        assert_eq!(slot_of(ObjectId(13), &e), 5);
        assert_eq!(slot_of(ObjectId(9), &e), 1, "kept residue stays home");
        assert_eq!(slot_of(ObjectId(6), &e), 2, "unsplit classes unchanged");
        assert_eq!(slot_of(ObjectId(7), &e), 3, "sibling unsplit class whole");
        // Dense mapping: slot 5 is the first (only) target.
        assert_eq!(dense_of(ObjectId(5), &e), 4);
        assert_eq!(dense_of(ObjectId(9), &e), 1);
        // Reserved objects pin to slot 0 in every epoch.
        assert_eq!(slot_of(ObjectId(2), &e), 0);
        assert_eq!(slot_of(s4_core::TRACE_OBJECT, &e), 0);
    }

    #[test]
    fn batch_split_follows_creates_and_fans_out_sync() {
        let reqs = vec![
            Request::Create,
            Request::SetAttr {
                oid: LAST_CREATED,
                attrs: vec![1],
            },
            Request::Write {
                oid: ObjectId(6),
                offset: 0,
                data: vec![2],
            },
            Request::Sync,
        ];
        let mut rr = 1;
        let plan = split_batch(&reqs, &EpochInfo::initial(2), || {
            rr += 1;
            (rr - 1) % 2
        })
        .unwrap();
        // Create + its LAST_CREATED SetAttr land on the rr shard (1);
        // the write on oid 6's home shard (0); Sync on both.
        assert_eq!(plan.slots[1], vec![0, 1, 3]);
        assert_eq!(plan.slots[0], vec![2, 3]);
        assert_eq!(plan.subs[0][1], Request::Sync);
        assert_eq!(plan.total, 4);
        assert_eq!(plan.writers, vec![0, 1], "both shards are written");

        // A shard the batch only reads or syncs is touched, not written.
        let read_6 = Request::GetAttr {
            oid: ObjectId(6),
            time: None,
        };
        let one_writer = [reqs[0].clone(), read_6, Request::Sync];
        let plan = split_batch(&one_writer, &EpochInfo::initial(2), || 1).unwrap();
        assert_eq!(plan.slots, vec![vec![1, 2], vec![0, 2]]);
        assert_eq!(plan.writers, vec![1]);
    }

    #[test]
    fn batch_split_rejects_broadcast_admin_ops_and_orphan_last_created() {
        let e = EpochInfo::initial(2);
        assert!(split_batch(&[Request::FlushAlerts], &e, || 0).is_err());
        let orphan = [Request::Delete { oid: LAST_CREATED }];
        assert!(split_batch(&orphan, &e, || 0).is_err());
        assert!(split_batch(&[Request::Batch(Vec::new())], &e, || 0).is_err());
    }
}

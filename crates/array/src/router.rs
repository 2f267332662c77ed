//! Deterministic request routing for the sharded array.
//!
//! The flat object namespace is partitioned by residue class: shard `i`
//! of an `n`-shard array owns every dynamic ObjectID `oid ≡ i (mod n)`.
//! Because each member drive allocates only inside its own class (see
//! [`s4_core::S4Drive::set_oid_class`]), the ID a drive assigns at
//! `Create` time already routes home — the array never needs a mapping
//! table, and any client holding an ObjectID can compute its shard.
//!
//! Reserved drive-local objects (audit log, partition table,
//! transaction log) exist *per shard* — each member drive keeps
//! its own security perimeter — so a request explicitly addressed to a
//! reserved ID routes to shard 0 by convention, while the admin plane
//! reads every shard's copy and merges (see `forensics`).

use s4_core::LAST_CREATED;
use s4_core::{ObjectId, Request, S4Error};

use crate::epoch::EpochInfo;

/// How the scatter-gather layer combines per-shard responses of a
/// broadcast request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Merge {
    /// Every shard must answer `Ok` (Sync, Flush, SetWindow).
    AllOk,
    /// Concatenate partition listings, sorted by name (PList).
    Partitions,
    /// The one shard that knows the name answers (PMount, PDelete —
    /// the association lives only on the root object's home shard).
    FirstSuccess,
}

/// Where a single (non-batch) request goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// A lone `Create`: round-robin shard choice; the drive assigns an
    /// ID in its class. Inside a batch, [`split_batch`] places a `Create`
    /// beside the nearest named object before it.
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
pub(crate) fn slot_of(oid: ObjectId, e: &EpochInfo) -> usize {
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
pub(crate) fn dense_of(oid: ObjectId, e: &EpochInfo) -> usize {
    e.dense_of_slot(slot_of(oid, e))
        .expect("slot_of only routes to live slots")
}

/// Computes the route of one request under epoch `e`. `Route::Shard`
/// carries a *dense* index.
pub(crate) fn route(req: &Request, e: &EpochInfo) -> Route {
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
pub(crate) struct BatchPlan {
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
/// relative order.
///
/// A `Create` goes where its batch already goes: to the home shard of
/// the nearest *named* object before it — a sub-request routed to one
/// shard whose target is not [`LAST_CREATED`] — so a file the
/// translator creates beside a `GetAttr` of its directory shares the
/// directory's shard, and the batches that later link and unlink it
/// write one shard (DESIGN §6f). A `Create` with no named object before
/// it takes the next round-robin shard from `next_create_shard`, which
/// a placed `Create` does not call. [`LAST_CREATED`] targets follow the
/// most recent `Create`'s shard (its placeholder is substituted
/// drive-side, inside that shard's sub-batch).
///
/// Semantics deviation, documented: a lone drive aborts a batch at the
/// first failing sub-request. Split across shards, only the failing
/// *shard's* remainder is aborted — other shards' sub-batches may have
/// completed. This matches the paper's per-drive perimeter (a drive
/// can only vouch for its own operations) and the existing "earlier
/// effects remain" batch contract.
pub(crate) fn split_batch(
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
    let mut last_named: Option<usize> = None;
    for (idx, sub) in reqs.iter().enumerate() {
        let shard = match route(sub, e) {
            Route::SplitBatch => return Err(S4Error::BadRequest("nested batch")),
            Route::Create => {
                let s = last_named.unwrap_or_else(&mut next_create_shard);
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
            Route::Shard(s) => {
                last_named = Some(s);
                s
            }
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
        for oid in [0u64, 1, 2, u64::MAX - 4, u64::MAX - 3] {
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
        assert_eq!(slot_of(ObjectId(1), &e), 0);
        assert_eq!(slot_of(ObjectId(2), &e), 0);
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

    fn getattr(oid: u64) -> Request {
        Request::GetAttr {
            oid: ObjectId(oid),
            time: None,
        }
    }

    fn set_attr(oid: ObjectId) -> Request {
        Request::SetAttr {
            oid,
            attrs: vec![1],
        }
    }

    /// Splits `reqs` over `shards` shards, counting the round-robin
    /// turns the plan took (each turn answers `rr`).
    fn split_counting(reqs: &[Request], shards: usize, rr: usize) -> (BatchPlan, usize) {
        let mut turns = 0;
        let plan = split_batch(reqs, &EpochInfo::initial(shards), || {
            turns += 1;
            rr
        })
        .unwrap();
        (plan, turns)
    }

    #[test]
    fn a_create_after_a_named_object_lands_on_its_shard() {
        // Oid 7 lives on shard 1 of 2; the Create and the SetAttr that
        // follows it through LAST_CREATED go there too.
        let reqs = [getattr(7), Request::Create, set_attr(LAST_CREATED)];
        let (plan, turns) = split_counting(&reqs, 2, 0);
        assert_eq!(plan.slots, vec![vec![], vec![0, 1, 2]]);
        assert_eq!(turns, 0, "a placed Create takes no round-robin turn");

        // The *nearest* named object wins; a LAST_CREATED target and a
        // Sync name nothing, so a second Create still follows oid 6.
        let reqs = [
            getattr(7),
            getattr(6),
            Request::Create,
            set_attr(LAST_CREATED),
            Request::Sync,
            Request::Create,
        ];
        let (plan, turns) = split_counting(&reqs, 2, 1);
        assert_eq!(plan.slots, vec![vec![1, 2, 3, 4, 5], vec![0, 4]]);
        assert_eq!(turns, 0);

        // Four shards: oid 6's home is shard 2.
        let reqs = [getattr(6), Request::Create];
        let (plan, turns) = split_counting(&reqs, 4, 0);
        assert_eq!(plan.slots[2], vec![0, 1]);
        assert_eq!(turns, 0);
    }

    #[test]
    fn a_create_with_no_named_object_before_it_is_round_robin() {
        for reqs in [
            vec![Request::Create],
            vec![Request::Create, getattr(7)],
            vec![Request::Sync, Request::Create, set_attr(LAST_CREATED)],
        ] {
            let (plan, turns) = split_counting(&reqs, 2, 0);
            assert_eq!(turns, 1, "{reqs:?}");
            let create = reqs.iter().position(|r| *r == Request::Create).unwrap();
            assert!(plan.slots[0].contains(&create), "{reqs:?}");
        }
        // Only the unplaced Create turns the wheel.
        let reqs = [Request::Create, getattr(7), Request::Create];
        let (plan, turns) = split_counting(&reqs, 2, 0);
        assert_eq!(plan.slots, vec![vec![0], vec![1, 2]]);
        assert_eq!(turns, 1);
    }

    /// The translator's create, `[GetAttr(dir), Create]`, puts the file
    /// beside its directory, so the batches that link and unlink it
    /// write one shard: no transaction.
    #[test]
    fn a_file_created_beside_its_directory_is_linked_by_one_writer() {
        for shards in [2, 4] {
            for dir in [6u64, 7] {
                let create = [getattr(dir), Request::Create];
                let (plan, _) = split_counting(&create, shards, 0);
                let home = shard_of(ObjectId(dir), shards);
                assert_eq!(plan.writers, vec![home]);
                // The drive of that shard names the file in its class.
                let file = (16..).map(ObjectId).find(|&o| shard_of(o, shards) == home);
                let file = file.unwrap();
                let dir_block = Request::Write {
                    oid: ObjectId(dir),
                    offset: 0,
                    data: vec![2],
                };
                let link = [set_attr(file), dir_block.clone(), Request::Sync];
                let unlink = [Request::Delete { oid: file }, dir_block, Request::Sync];
                for reqs in [link, unlink] {
                    let (plan, _) = split_counting(&reqs, shards, 0);
                    assert_eq!(plan.writers, vec![home], "{shards} shards, dir {dir}");
                }
            }
        }
    }

    #[test]
    fn batch_split_rejects_broadcast_admin_ops_and_orphan_last_created() {
        let e = EpochInfo::initial(2);
        let flush = Request::Flush {
            from: s4_clock::SimTime::ZERO,
            to: s4_clock::SimTime::from_secs(1),
        };
        assert!(split_batch(&[flush], &e, || 0).is_err());
        let orphan = [Request::Delete { oid: LAST_CREATED }];
        assert!(split_batch(&orphan, &e, || 0).is_err());
        assert!(split_batch(&[Request::Batch(Vec::new())], &e, || 0).is_err());
    }
}

//! Undo/redo of journal entries and point-in-time reconstruction.
//!
//! Because every entry carries both old and new values, a metadata record
//! can be rolled in either direction:
//!
//! * **redo** (oldest → newest) rebuilds current state from an anchored
//!   checkpoint during crash recovery;
//! * **undo** (newest → oldest) walks the backward journal chain to
//!   materialize "the version that was most current at time T" for
//!   time-based reads of the history pool.

use std::borrow::Borrow;

use s4_clock::HybridTimestamp;

use crate::entry::JournalEntry;
use crate::meta::ObjectMeta;

/// Applies `e` forward to `meta`.
pub fn redo(meta: &mut ObjectMeta, e: &JournalEntry) {
    match e {
        JournalEntry::Create { stamp } => {
            meta.created = *stamp;
            meta.deleted = None;
        }
        JournalEntry::Delete { stamp } => {
            meta.deleted = Some(*stamp);
        }
        JournalEntry::Write {
            new_size, changes, ..
        } => {
            for c in changes {
                if c.new.is_none() {
                    meta.blocks.remove(&c.lbn);
                } else {
                    meta.blocks.insert(c.lbn, c.new);
                }
            }
            meta.size = *new_size;
        }
        JournalEntry::Truncate {
            new_size, freed, ..
        } => {
            for c in freed {
                meta.blocks.remove(&c.lbn);
            }
            meta.size = *new_size;
        }
        JournalEntry::SetAttr { new, .. } => {
            meta.attrs = new.clone();
        }
        JournalEntry::SetAcl { new, .. } => {
            meta.acl = new.clone();
        }
        JournalEntry::Revive { .. } => {
            meta.deleted = None;
        }
    }
    if e.stamp() > meta.modified {
        meta.modified = e.stamp();
    }
}

/// Applies `e` backward to `meta`. Returns `false` when a `Create` was
/// undone — the object did not exist before this entry.
pub fn undo(meta: &mut ObjectMeta, e: &JournalEntry) -> bool {
    match e {
        JournalEntry::Create { .. } => return false,
        JournalEntry::Delete { .. } => {
            meta.deleted = None;
        }
        JournalEntry::Write {
            old_size, changes, ..
        } => {
            for c in changes {
                if c.old.is_none() {
                    meta.blocks.remove(&c.lbn);
                } else {
                    meta.blocks.insert(c.lbn, c.old);
                }
            }
            meta.size = *old_size;
        }
        JournalEntry::Truncate {
            old_size, freed, ..
        } => {
            for c in freed {
                if !c.old.is_none() {
                    meta.blocks.insert(c.lbn, c.old);
                }
            }
            meta.size = *old_size;
        }
        JournalEntry::SetAttr { old, .. } => {
            meta.attrs = old.clone();
        }
        JournalEntry::SetAcl { old, .. } => {
            meta.acl = old.clone();
        }
        JournalEntry::Revive { was_deleted, .. } => {
            meta.deleted = Some(*was_deleted);
        }
    }
    true
}

/// The one undo walk behind every time-based read: from an object's
/// current metadata back to the version current at `bound`, fed entries
/// newest first, a run (journal sector) at a time.
pub struct UndoWalk {
    meta: ObjectMeta,
    bound: HybridTimestamp,
    /// The newest stamp at or below the bound, once met: the version's time.
    reached: Option<HybridTimestamp>,
}

impl UndoWalk {
    /// Starts a walk from `current` toward `bound`.
    pub fn new(current: &ObjectMeta, bound: HybridTimestamp) -> UndoWalk {
        UndoWalk {
            meta: current.clone(),
            bound,
            reached: None,
        }
    }

    /// True if the walk needs a run whose newest entry is `newest`; a run
    /// at or below the bound ends the walk there, unread.
    pub fn needs(&mut self, newest: HybridTimestamp) -> bool {
        if newest <= self.bound {
            self.reached.get_or_insert(newest);
        }
        self.reached.is_none()
    }

    /// Undoes `newest_first` down to its first entry at or below the bound.
    pub fn rewind<E: Borrow<JournalEntry>>(&mut self, newest_first: impl IntoIterator<Item = E>) {
        for e in newest_first {
            if !self.needs(e.borrow().stamp()) {
                break;
            }
            undo(&mut self.meta, e.borrow());
        }
    }

    /// The version at the bound, `None` if created after it. A walk that
    /// undid every retained entry stands on the state the retired ones
    /// left, stamped `floor`, the newest retired stamp (`ZERO`: none).
    pub fn finish(mut self, floor: HybridTimestamp) -> Option<ObjectMeta> {
        self.meta.modified = self.reached.unwrap_or(floor);
        (self.meta.created <= self.bound).then_some(self.meta)
    }
}

/// Reconstructs the version of `current` that was current at `bound`
/// from `entries_newest_first`, the object's full history. `None` if the
/// object did not yet exist then: one `Create` begins each object's
/// history, and its id is never reused.
pub fn reconstruct_at<I: IntoIterator<Item = JournalEntry>>(
    current: &ObjectMeta,
    entries_newest_first: I,
    bound: HybridTimestamp,
) -> Option<ObjectMeta> {
    let mut walk = UndoWalk::new(current, bound);
    walk.rewind(entries_newest_first);
    // A full history retires nothing.
    walk.finish(HybridTimestamp::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::PtrChange;
    use s4_clock::SimTime;
    use s4_lfs::BlockAddr;

    fn st(t: u64) -> HybridTimestamp {
        HybridTimestamp::new(SimTime::from_micros(t), t)
    }

    /// Builds a history: create@1, write b0@2, write b0'+b1@3, setattr@4,
    /// truncate@5, delete@6. Returns (current meta, entries oldest first).
    fn history() -> (ObjectMeta, Vec<JournalEntry>) {
        let entries = vec![
            JournalEntry::Create { stamp: st(1) },
            JournalEntry::Write {
                stamp: st(2),
                old_size: 0,
                new_size: 4096,
                changes: vec![PtrChange {
                    lbn: 0,
                    old: BlockAddr::NONE,
                    new: BlockAddr(10),
                }],
            },
            JournalEntry::Write {
                stamp: st(3),
                old_size: 4096,
                new_size: 8192,
                changes: vec![
                    PtrChange {
                        lbn: 0,
                        old: BlockAddr(10),
                        new: BlockAddr(20),
                    },
                    PtrChange {
                        lbn: 1,
                        old: BlockAddr::NONE,
                        new: BlockAddr(21),
                    },
                ],
            },
            JournalEntry::SetAttr {
                stamp: st(4),
                old: vec![],
                new: vec![0xAA],
            },
            JournalEntry::Truncate {
                stamp: st(5),
                old_size: 8192,
                new_size: 4096,
                freed: vec![PtrChange {
                    lbn: 1,
                    old: BlockAddr(21),
                    new: BlockAddr::NONE,
                }],
            },
            JournalEntry::Delete { stamp: st(6) },
        ];
        let mut meta = ObjectMeta::new(7, st(1));
        for e in &entries {
            redo(&mut meta, e);
        }
        (meta, entries)
    }

    #[test]
    fn redo_builds_expected_current_state() {
        let (meta, _) = history();
        assert_eq!(meta.size, 4096);
        assert_eq!(meta.blocks.get(&0), Some(&BlockAddr(20)));
        assert_eq!(meta.blocks.get(&1), None);
        assert_eq!(meta.attrs, vec![0xAA]);
        assert!(!meta.is_live());
        assert_eq!(meta.modified, st(6));
    }

    #[test]
    fn reconstruct_every_epoch() {
        let (meta, entries) = history();
        let newest_first: Vec<_> = entries.iter().rev().cloned().collect();

        // Before creation: no object.
        assert!(reconstruct_at(&meta, newest_first.clone(), st(0)).is_none());

        // At t=2: one block, 4 KB.
        let v2 = reconstruct_at(&meta, newest_first.clone(), st(2)).unwrap();
        assert_eq!(v2.size, 4096);
        assert_eq!(v2.blocks.get(&0), Some(&BlockAddr(10)));
        assert!(v2.attrs.is_empty());
        assert!(v2.is_live());
        assert_eq!(v2.modified, st(2));

        // At t=3: two blocks, 8 KB, block 0 overwritten.
        let v3 = reconstruct_at(&meta, newest_first.clone(), st(3)).unwrap();
        assert_eq!(v3.size, 8192);
        assert_eq!(v3.blocks.get(&0), Some(&BlockAddr(20)));
        assert_eq!(v3.blocks.get(&1), Some(&BlockAddr(21)));

        // At t=5: truncated back to 4 KB but attr set.
        let v5 = reconstruct_at(&meta, newest_first.clone(), st(5)).unwrap();
        assert_eq!(v5.size, 4096);
        assert_eq!(v5.attrs, vec![0xAA]);
        assert!(v5.is_live());

        // At t=6 (and later): deleted.
        let v6 = reconstruct_at(&meta, newest_first.clone(), st(100)).unwrap();
        assert!(!v6.is_live());
    }

    #[test]
    fn undo_redo_are_inverses() {
        let (meta, entries) = history();
        // Walk all the way back, then forward again.
        let mut m = meta.clone();
        for e in entries.iter().rev().take(entries.len() - 1) {
            assert!(undo(&mut m, e));
        }
        // m is now the state just after Create.
        for e in entries.iter().skip(1) {
            redo(&mut m, e);
        }
        // modified stamps track the max; state must match.
        assert_eq!(m, meta);
    }

    #[test]
    fn reconstruct_with_bound_in_the_future_returns_current() {
        let (meta, entries) = history();
        let newest_first: Vec<_> = entries.iter().rev().cloned().collect();
        let v = reconstruct_at(&meta, newest_first, HybridTimestamp::MAX).unwrap();
        assert_eq!(v, meta);
    }

    #[test]
    fn revive_cancels_a_delete_and_undoes_back_to_it() {
        let (mut meta, _) = history(); // ends deleted @6
        assert!(!meta.is_live());
        let was = meta.deleted.unwrap();
        let rv = JournalEntry::Revive {
            stamp: st(7),
            was_deleted: was,
        };
        redo(&mut meta, &rv);
        assert!(meta.is_live());
        assert_eq!(meta.modified, st(7));
        // Undo restores the deletion stamp exactly.
        assert!(undo(&mut meta, &rv));
        assert_eq!(meta.deleted, Some(was));
        // And reconstruction before the revive sees the deleted state.
        let mut live = meta.clone();
        redo(&mut live, &rv);
        let v6 = reconstruct_at(&live, vec![rv.clone()], st(6)).unwrap();
        assert!(!v6.is_live());
    }

    #[test]
    fn a_walk_past_its_retained_entries_stands_on_the_floor() {
        // Create@1 and the writes @2, @3 are retired; the floor is @3.
        let (meta, entries) = history();
        let mut walk = UndoWalk::new(&meta, st(3));
        for run in entries[3..].rchunks(2) {
            assert!(walk.needs(run.last().unwrap().stamp()));
            walk.rewind(run.iter().rev());
        }
        let v = walk.finish(st(3)).unwrap();
        assert_eq!((v.size, v.modified), (8192, st(3)));
        assert!(v.attrs.is_empty());

        // A run at or below the bound is not read: the walk ends there.
        let mut walk = UndoWalk::new(&meta, st(4));
        assert!(walk.needs(st(6)));
        walk.rewind(entries[4..].iter().rev());
        assert!(!walk.needs(st(4)));
        let v = walk.finish(st(3)).unwrap();
        assert_eq!((v.attrs.as_slice(), v.modified), (&[0xAA][..], st(4)));
    }
}

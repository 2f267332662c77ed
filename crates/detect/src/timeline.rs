//! The per-object append-only ledger ([`ObjectProfile`]) that the
//! log-scrub and ransomware rules build on, fed from the audit stream.

use s4_core::{AuditRecord, OpKind};

/// What one mutation did to an object's append-only ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ProfileEvent {
    /// Data added strictly at or past the high-water mark.
    Appended,
    /// Existing bytes overwritten or truncated away. `first` is true on
    /// the first destructive op after the object had qualified as
    /// append-only — the alarm condition.
    Destructive {
        /// First violation of an established append-only pattern.
        first: bool,
    },
    /// Metadata-only or otherwise neutral.
    Other,
}

/// Streaming append-only ledger for one object, fed from audit records.
///
/// An object *qualifies* as append-only once it has seen
/// `min_appends` strictly-appending mutations with no destructive op;
/// the first destructive op on a qualified object is the log-scrub
/// signal. Directory blobs never qualify: the file server rewrites
/// their block 0 (the entry count) on every update after the first.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjectProfile {
    /// High-water mark: the largest end offset ever written.
    pub watermark: u64,
    /// Count of strictly-appending mutations so far.
    pub appends: u32,
    /// Whether any overwrite/shrink has been seen.
    pub destructive: bool,
}

impl ObjectProfile {
    /// Folds one successful mutation in; `min_appends` is the
    /// qualification threshold.
    pub(crate) fn observe(&mut self, rec: &AuditRecord, min_appends: u32) -> ProfileEvent {
        let qualified = self.appends >= min_appends && !self.destructive;
        match rec.op {
            OpKind::Write => {
                let (off, len) = (rec.arg1, rec.arg2);
                if off >= self.watermark {
                    self.watermark = off + len;
                    self.appends += 1;
                    ProfileEvent::Appended
                } else {
                    let first = qualified;
                    self.destructive = true;
                    self.watermark = self.watermark.max(off + len);
                    ProfileEvent::Destructive { first }
                }
            }
            OpKind::Append => {
                self.watermark += rec.arg1;
                self.appends += 1;
                ProfileEvent::Appended
            }
            OpKind::Truncate => {
                let new_len = rec.arg1;
                if new_len < self.watermark {
                    let first = qualified;
                    self.destructive = true;
                    self.watermark = new_len;
                    ProfileEvent::Destructive { first }
                } else {
                    self.watermark = new_len;
                    ProfileEvent::Other
                }
            }
            _ => ProfileEvent::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::SimTime;
    use s4_core::{ClientId, ObjectId, UserId};
    use std::collections::{BTreeMap, BTreeSet};

    /// Everything one `(user, client)` pair did, in summary.
    #[derive(Clone, Debug)]
    struct PrincipalActivity {
        /// Last request time.
        pub last_seen: SimTime,
        /// Total requests.
        pub requests: u64,
        /// Requests the drive refused.
        pub denied: u64,
        /// Total bytes written (writes + appends + attr blobs).
        pub bytes_written: u64,
        /// Successful request count per operation kind (keyed by wire code).
        pub ops: BTreeMap<u8, u64>,
        /// Objects this principal mutated.
        pub objects_modified: BTreeSet<u64>,
        /// Objects this principal read (data or attributes).
        pub objects_read: BTreeSet<u64>,
    }

    impl PrincipalActivity {
        fn new(rec: &AuditRecord) -> Self {
            PrincipalActivity {
                last_seen: rec.time,
                requests: 0,
                denied: 0,
                bytes_written: 0,
                ops: BTreeMap::new(),
                objects_modified: BTreeSet::new(),
                objects_read: BTreeSet::new(),
            }
        }
    }

    /// Per-principal activity summaries over an audit interval — the
    /// "per-client and per-user timeline" view an administrator starts
    /// diagnosis from.
    #[derive(Clone, Debug, Default)]
    struct ActivityTimeline {
        /// One summary per `(user, client)` pair, in id order.
        pub principals: BTreeMap<(u32, u32), PrincipalActivity>,
    }

    impl ActivityTimeline {
        /// Aggregates a full record slice.
        fn build(records: &[AuditRecord]) -> Self {
            let mut t = ActivityTimeline::default();
            for r in records {
                t.observe(r);
            }
            t
        }

        /// Folds one record into the summaries.
        fn observe(&mut self, rec: &AuditRecord) {
            let p = self
                .principals
                .entry((rec.user.0, rec.client.0))
                .or_insert_with(|| PrincipalActivity::new(rec));
            p.requests += 1;
            p.last_seen = rec.time;
            if !rec.ok {
                p.denied += 1;
                return;
            }
            *p.ops.entry(rec.op as u8).or_insert(0) += 1;
            p.bytes_written += rec.bytes_written();
            if rec.object.0 != 0 {
                if rec.op.creates_version() {
                    p.objects_modified.insert(rec.object.0);
                } else if rec.op.reads_object() {
                    p.objects_read.insert(rec.object.0);
                }
            }
        }
    }

    fn rec(op: OpKind, ok: bool, object: u64, arg1: u64, arg2: u64) -> AuditRecord {
        AuditRecord {
            time: SimTime::from_secs(1),
            user: UserId(1),
            client: ClientId(1),
            op,
            ok,
            object: ObjectId(object),
            arg1,
            arg2,
            trace: Default::default(),
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        }
    }

    #[test]
    fn timeline_aggregates_per_principal() {
        let records = vec![
            rec(OpKind::Create, true, 10, 0, 0),
            rec(OpKind::Write, true, 10, 0, 100),
            rec(OpKind::Read, true, 10, 0, 100),
            rec(OpKind::SetAcl, false, 10, 0, 0),
        ];
        let t = ActivityTimeline::build(&records);
        let p = &t.principals[&(1, 1)];
        assert_eq!(p.requests, 4);
        assert_eq!(p.denied, 1);
        assert_eq!(p.bytes_written, 100);
        assert!(p.objects_modified.contains(&10));
        assert!(p.objects_read.contains(&10));
    }

    #[test]
    fn profile_qualifies_then_flags_violation() {
        let mut p = ObjectProfile::default();
        // Two appends (a fresh write at the watermark counts).
        assert_eq!(
            p.observe(&rec(OpKind::Write, true, 5, 0, 30), 2),
            ProfileEvent::Appended
        );
        assert_eq!(
            p.observe(&rec(OpKind::Append, true, 5, 20, 0), 2),
            ProfileEvent::Appended
        );
        assert_eq!(p.watermark, 50);
        // Truncating below the watermark is the first violation.
        assert_eq!(
            p.observe(&rec(OpKind::Truncate, true, 5, 10, 0), 2),
            ProfileEvent::Destructive { first: true }
        );
        // Later destruction is no longer "first".
        assert_eq!(
            p.observe(&rec(OpKind::Write, true, 5, 0, 4), 2),
            ProfileEvent::Destructive { first: false }
        );
    }

    #[test]
    fn profile_never_qualifies_after_early_overwrite() {
        let mut p = ObjectProfile::default();
        // Directory-blob shape: rewrite block 0 on every update.
        p.observe(&rec(OpKind::Write, true, 7, 0, 40), 2);
        assert_eq!(
            p.observe(&rec(OpKind::Write, true, 7, 0, 60), 2),
            ProfileEvent::Destructive { first: false }
        );
        // Destruction later never reports `first: true`.
        p.observe(&rec(OpKind::Append, true, 7, 10, 0), 2);
        p.observe(&rec(OpKind::Append, true, 7, 10, 0), 2);
        assert_eq!(
            p.observe(&rec(OpKind::Truncate, true, 7, 0, 0), 2),
            ProfileEvent::Destructive { first: false }
        );
    }
}

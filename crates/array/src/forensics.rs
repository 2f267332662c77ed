//! Merged admin plane: audit, alerts, detection, and forensics across
//! shards.
//!
//! Every member drive keeps its own tamper-resistant audit log, alerts
//! included — the array merely *reads* them all and merges, tagging
//! each record with its shard so an analyst can always trace a finding
//! back to the drive that vouches for it. Merging is a
//! view, not a copy: no cross-shard object ever holds security state,
//! so compromising one shard (or the array frontend itself) cannot
//! rewrite another shard's history.

use s4_core::{AuditRecord, ObjectId, RequestContext, S4Drive, S4Error};
use s4_detect::{assemble_traces, object_timeline, read_alerts, Alert, TimelineEvent, TraceTree};
use s4_simdisk::BlockDev;

use crate::array::S4Array;
use crate::shard::{first_difference, MemberState};

/// A record tagged with the shard whose log it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sharded<T> {
    /// Shard index the record was read from.
    pub shard: usize,
    /// The record itself.
    pub record: T,
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// One record stream per shard (read from its first live member by
    /// `read`), merged into one and sorted by `key` — ties keep shard
    /// order, the merge is stable.
    fn merged<T, K: Ord>(
        &self,
        read: impl Fn(&S4Drive<D>) -> Result<Vec<T>, S4Error>,
        key: impl Fn(&T) -> K,
    ) -> Result<Vec<Sharded<T>>, S4Error> {
        let mut all = Vec::new();
        for shard in 0..self.shard_count() {
            let records = read(&self.shard_drive(shard))?;
            all.extend(records.into_iter().map(|record| Sharded { shard, record }));
        }
        all.sort_by_key(|r| key(&r.record));
        Ok(all)
    }

    /// Every shard's audit log merged into one stream, sorted by
    /// record time.
    pub fn read_audit_merged(
        &self,
        admin: &RequestContext,
    ) -> Result<Vec<Sharded<AuditRecord>>, S4Error> {
        self.merged(|d| d.read_audit_records(admin), |r| r.time)
    }

    /// Every shard's alerts merged, rendered, and sorted by raise time.
    pub fn read_alerts_merged(
        &self,
        admin: &RequestContext,
    ) -> Result<Vec<Sharded<Alert>>, S4Error> {
        self.merged(|d| read_alerts(d, admin), |a| a.time)
    }

    /// Do the mirrors agree? Compares the in-sync members of every
    /// shard — live-object set, [`S4Drive::object_digest`] per object,
    /// and the identity of the audit records of mutations — and names
    /// the first difference with the fields that differ. Reads, layer
    /// times and alerts are each member's own: a read is served, audited
    /// and watched by one member only, and each member times its work.
    pub fn check_mirrors(&self, admin: &RequestContext) -> Result<(), String> {
        for (s, states) in self.member_states().iter().enumerate() {
            let in_sync: Vec<usize> = (0..states.len())
                .filter(|&k| states[k] == MemberState::InSync)
                .collect();
            // Agreement is transitive: neighbours suffice.
            for pair in in_sync.windows(2) {
                let (a, b) = (self.member_drive(s, pair[0]), self.member_drive(s, pair[1]));
                let diff = first_difference(&a, &b, admin, false)
                    .map(|d| d.map(|(_, diff)| diff))
                    .unwrap_or_else(|e| Some(e.to_string()));
                if let Some(diff) = diff {
                    return Err(format!(
                        "shard {s} members {} and {}: {diff}",
                        pair[0], pair[1]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every *member* drive's whole audit log, labeled `(shard, member,
    /// records)` — the input to cross-shard trace assembly, where
    /// provenance is which stream vouches for a span, so mirrors are
    /// read individually rather than collapsed to the shard's first
    /// live member. Dead members are skipped (their logs are
    /// unreachable); a member whose stream fails to decode fails the
    /// whole read.
    fn member_traces(
        &self,
        admin: &RequestContext,
    ) -> Result<Vec<(usize, usize, Vec<AuditRecord>)>, S4Error> {
        let mut all = Vec::new();
        for (s, shard_states) in self.member_states().iter().enumerate() {
            for (k, state) in shard_states.iter().enumerate() {
                if *state == MemberState::Dead {
                    continue;
                }
                all.push((s, k, self.member_drive(s, k).read_log_from(admin, &mut 0)?));
            }
        }
        Ok(all)
    }

    /// Assembles every causal trace recorded anywhere in the array:
    /// reads all member audit logs and joins them on trace id (DESIGN
    /// §6j). Entirely computed from the crash-surviving per-drive
    /// logs, so it works identically on a freshly mounted array.
    pub fn assemble_all_traces(&self, admin: &RequestContext) -> Result<Vec<TraceTree>, S4Error> {
        Ok(assemble_traces(&self.member_traces(admin)?))
    }

    /// Forensic timeline of one object, served by its home shard
    /// (object history never crosses shards).
    pub fn object_timeline(
        &self,
        admin: &RequestContext,
        oid: ObjectId,
    ) -> Result<Vec<TimelineEvent>, S4Error> {
        let s = self.shard_index_of(oid);
        object_timeline(&self.shard_drive(s), admin, oid)
    }
}

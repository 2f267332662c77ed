//! Forensic analysis: damage reports, per-object tamper timelines,
//! namespace tree diffs, audit-coverage accounting, and cross-shard
//! trace assembly.
//!
//! Everything here runs against the drive interface with the admin
//! context — the administrator's console inside the security perimeter
//! (§3.5–§3.6), after detection has placed an intrusion at time `T`.

use std::collections::{BTreeMap, BTreeSet};

use s4_clock::{SimDuration, SimTime};
use s4_core::{
    AuditRecord, ClientId, ObjectId, RequestContext, S4Drive, S4Error, UserId, VersionRecord,
};
use s4_simdisk::BlockDev;

use crate::dirblob::{self, EntryKind};

// ---------------------------------------------------------------------
// Damage report (§3.6). It lives here, not beside `s4-fs`'s
// time-enhanced tools: diagnosis is drive-level work and must not
// require a file-server mount.
// ---------------------------------------------------------------------

/// The outcome of an audit-log damage analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DamageReport {
    /// Objects the suspect modified (write/append/truncate/setattr/
    /// setacl/delete) in the interval.
    pub modified: BTreeSet<u64>,
    /// Objects the suspect read in the interval.
    pub read: BTreeSet<u64>,
    /// Objects written by *anyone* shortly after the suspect read another
    /// object — possible propagation of tainted data ("diagnosis tools
    /// may be able to establish a link between objects based on the fact
    /// that one was read just before another was written", §3.6).
    pub possibly_tainted: BTreeSet<u64>,
    /// Total suspect requests in the interval.
    pub request_count: u64,
}

/// Builds a [`DamageReport`] for `suspect` over `[from, to]` from the
/// drive's audit log (requires the admin context).
pub fn damage_report<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
    suspect: ClientId,
    from: SimTime,
    to: SimTime,
    taint_window: SimDuration,
) -> Result<DamageReport, S4Error> {
    let records = drive.read_audit_records(admin)?;
    let mut report = DamageReport::default();
    let mut last_suspect_read: Option<SimTime> = None;
    for r in &records {
        if r.time < from || r.time > to {
            continue;
        }
        let is_suspect = r.client == suspect;
        if is_suspect {
            report.request_count += 1;
        }
        let modifies = r.op.creates_version();
        if is_suspect && r.ok {
            if modifies && r.object != ObjectId(0) {
                report.modified.insert(r.object.0);
            }
            if r.op.reads_object() && r.object != ObjectId(0) {
                report.read.insert(r.object.0);
                last_suspect_read = Some(r.time);
            }
        }
        // Crude propagation: any write soon after a suspect read may
        // carry tainted bytes.
        if modifies && r.ok && r.object != ObjectId(0) {
            if let Some(t) = last_suspect_read {
                if r.time.saturating_since(t) <= taint_window {
                    report.possibly_tainted.insert(r.object.0);
                }
            }
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Audit coverage.
// ---------------------------------------------------------------------

/// Accounting of audit-log completeness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverageReport {
    /// Records the drive has ever appended (its monotonic counter).
    pub appended: u64,
    /// Records currently decodable from the log (blocks + tail).
    pub decodable: u64,
}

impl CoverageReport {
    /// Records appended but no longer decodable — typically the
    /// volatile tail lost in a crash. Nonzero means the record stream
    /// has a gap and conclusions drawn from it are lower bounds.
    pub fn missing(&self) -> u64 {
        self.appended.saturating_sub(self.decodable)
    }
}

/// Compares the drive's append counter against the decodable record
/// count, protocol steps included (admin only).
pub fn audit_coverage<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
) -> Result<CoverageReport, S4Error> {
    let appended = drive.audit_total_records(admin)?;
    let decodable = drive.read_traces(admin)?.len() as u64;
    Ok(CoverageReport {
        appended,
        decodable,
    })
}

// ---------------------------------------------------------------------
// Per-object tamper timeline.
// ---------------------------------------------------------------------

/// Where a timeline event was reconstructed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimelineSource {
    /// The object's retained journal history (what the version became).
    Journal,
    /// The audit log (who asked for what, and whether it was allowed).
    Audit {
        /// Requesting user.
        user: UserId,
        /// Originating client.
        client: ClientId,
        /// Whether the drive executed the request.
        ok: bool,
    },
}

/// One event in an object's merged tamper timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineEvent {
    /// When it happened (drive clock).
    pub time: SimTime,
    /// Journal or audit provenance.
    pub source: TimelineSource,
    /// Human-readable description.
    pub description: String,
}

/// Merges the object's journal version history with every audit record
/// that targeted it, sorted by time — the complete who/what/when view
/// of one object (admin only).
pub fn object_timeline<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
    oid: ObjectId,
) -> Result<Vec<TimelineEvent>, S4Error> {
    let mut events = Vec::new();
    let history: Vec<VersionRecord> = drive.version_history(admin, oid)?;
    for v in &history {
        let size = match v.size_after {
            Some(s) => format!(" -> {s} bytes"),
            None => String::new(),
        };
        events.push(TimelineEvent {
            time: v.stamp.time,
            source: TimelineSource::Journal,
            description: format!("version {:?}{size}", v.kind),
        });
    }
    for r in drive.read_audit_records(admin)? {
        if r.object != oid {
            continue;
        }
        events.push(TimelineEvent {
            time: r.time,
            source: TimelineSource::Audit {
                user: r.user,
                client: r.client,
                ok: r.ok,
            },
            description: format!(
                "{:?}({}, {}) by user {} from client {}{}",
                r.op,
                r.arg1,
                r.arg2,
                r.user.0,
                r.client.0,
                if r.ok { "" } else { " DENIED" }
            ),
        });
    }
    events.sort_by_key(|e| e.time);
    Ok(events)
}

// ---------------------------------------------------------------------
// Namespace tree walks and diffs.
// ---------------------------------------------------------------------

/// One entry in a reconstructed namespace tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// Target object.
    pub oid: ObjectId,
    /// File/dir/symlink, per the directory entry.
    pub kind: EntryKind,
    /// Object size (0 if unreadable).
    pub size: u64,
    /// Last-modified time of the object (ZERO if unreadable).
    pub modified: SimTime,
}

/// Walks the namespace under directory object `root` as of `time`
/// (`None` = now), returning `path -> node` with `/`-joined relative
/// paths. Entries whose target object cannot be read are still listed
/// (with zero size); unreadable subdirectories are not descended into.
pub(crate) fn tree_at<D: BlockDev>(
    drive: &S4Drive<D>,
    ctx: &RequestContext,
    root: ObjectId,
    time: Option<SimTime>,
) -> Result<BTreeMap<String, TreeNode>, S4Error> {
    let mut out = BTreeMap::new();
    let mut visited = BTreeSet::new();
    let mut stack = vec![(String::new(), root)];
    while let Some((prefix, dir)) = stack.pop() {
        if !visited.insert(dir.0) {
            continue; // cycle guard
        }
        let entries = match read_dir_object(drive, ctx, dir, time) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for (name, handle, kind) in entries {
            let path = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}/{name}")
            };
            let oid = ObjectId(handle);
            let (size, modified) = match drive.op_getattr(ctx, oid, time) {
                Ok(a) => (a.size, a.modified),
                Err(_) => (0, SimTime::ZERO),
            };
            if kind == EntryKind::Dir {
                stack.push((path.clone(), oid));
            }
            out.insert(
                path,
                TreeNode {
                    oid,
                    kind,
                    size,
                    modified,
                },
            );
        }
    }
    Ok(out)
}

/// Reads and decodes one directory object, optionally at a time.
fn read_dir_object<D: BlockDev>(
    drive: &S4Drive<D>,
    ctx: &RequestContext,
    dir: ObjectId,
    time: Option<SimTime>,
) -> Result<Vec<dirblob::DirEntry>, S4Error> {
    let attrs = drive.op_getattr(ctx, dir, time)?;
    let data = if attrs.size == 0 {
        Vec::new()
    } else {
        drive.op_read(ctx, dir, 0, attrs.size, time)?
    };
    dirblob::decode(&data)
}

/// A namespace diff between two instants.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeDiff {
    /// Paths present now but not then.
    pub added: Vec<(String, TreeNode)>,
    /// Paths present then but not now.
    pub removed: Vec<(String, TreeNode)>,
    /// Paths present in both whose object was modified (or replaced by
    /// a different object) in between.
    pub modified: Vec<(String, TreeNode)>,
}

/// Diffs the namespace under `root` between `then` and `now_time`
/// (`None` = now) — "what did the intruder change" at a glance.
pub fn tree_diff<D: BlockDev>(
    drive: &S4Drive<D>,
    ctx: &RequestContext,
    root: ObjectId,
    then: SimTime,
    now_time: Option<SimTime>,
) -> Result<TreeDiff, S4Error> {
    let before = tree_at(drive, ctx, root, Some(then))?;
    let after = tree_at(drive, ctx, root, now_time)?;
    let mut diff = TreeDiff::default();
    for (path, node) in &after {
        match before.get(path) {
            None => diff.added.push((path.clone(), node.clone())),
            Some(old) => {
                if old.oid != node.oid || old.modified != node.modified || old.size != node.size {
                    diff.modified.push((path.clone(), node.clone()));
                }
            }
        }
    }
    for (path, node) in &before {
        if !after.contains_key(path) {
            diff.removed.push((path.clone(), node.clone()));
        }
    }
    Ok(diff)
}

// ---------------------------------------------------------------------
// Cross-shard trace assembly (DESIGN §6j). Each member drive's audit
// records carry the request's causal trace id; joining every member's
// log on that id reconstructs the whole distributed request — which
// shards it touched, which mirror members executed it, and how long
// each layer took on each of them — from evidence no single compromised
// host could have forged or scrubbed.
// ---------------------------------------------------------------------

/// One span of an assembled trace: an audit record read back from a
/// specific member drive's log ([`S4Drive::read_traces`]). The
/// (shard, member) provenance comes from *which stream vouches for it*,
/// not from the record bytes — a drive can only write its own stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Dense shard index whose member stream held the record.
    pub shard: usize,
    /// Mirror member index within the shard.
    pub member: usize,
    /// The record's position in that member's log.
    pub seq: u64,
    /// The record itself.
    pub record: AuditRecord,
}

/// One distributed request, re-joined from every member stream that
/// recorded a span of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTree {
    /// The causal trace id the spans joined on.
    pub trace_id: u64,
    /// Entry shard annotation carried by the spans.
    pub origin: u8,
    /// Every span, ordered causally: by phase (client, apply, prepare,
    /// note, decide, catchup), then shard, then member, then stream
    /// position.
    pub spans: Vec<TraceSpan>,
}

impl TraceTree {
    /// Earliest span completion time (drive clock).
    pub(crate) fn start(&self) -> SimTime {
        let first = self.spans.iter().map(|s| s.record.time).min();
        first.unwrap_or(SimTime::ZERO)
    }

    /// Slowest single span's end-to-end latency — the trace's critical
    /// path lower bound (spans on distinct shards overlap).
    pub fn max_rpc_us(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| u64::from(s.record.rpc_us))
            .max()
            .unwrap_or(0)
    }

    /// Distinct dense shard indices the trace touched.
    pub fn shards(&self) -> BTreeSet<usize> {
        self.spans.iter().map(|s| s.shard).collect()
    }

    /// Distinct `(shard, member)` pairs that vouch for a span.
    pub fn members(&self) -> BTreeSet<(usize, usize)> {
        self.spans.iter().map(|s| (s.shard, s.member)).collect()
    }
}

/// Causal rank of a phase byte: the order spans are listed within a
/// tree. Unknown phases sort last, after every known one.
fn phase_rank(phase: u8) -> u8 {
    use s4_core::{
        PHASE_APPLY, PHASE_CATCHUP, PHASE_CLIENT, PHASE_DECIDE, PHASE_NOTE, PHASE_PREPARE,
    };
    match phase {
        PHASE_CLIENT => 0,
        PHASE_APPLY => 1,
        PHASE_PREPARE => 2,
        PHASE_NOTE => 3,
        PHASE_DECIDE => 4,
        PHASE_CATCHUP => 5,
        _ => u8::MAX,
    }
}

/// Joins per-member audit logs on trace id: `streams` pairs each
/// `(shard, member)` with that member drive's whole log
/// ([`S4Drive::read_traces`]). Untraced records and alerts (which carry
/// their trigger's id) are skipped. Returns one [`TraceTree`] per
/// distinct id, ordered by first span time.
pub fn assemble_traces(streams: &[(usize, usize, Vec<AuditRecord>)]) -> Vec<TraceTree> {
    let mut by_id: BTreeMap<u64, Vec<TraceSpan>> = BTreeMap::new();
    for (shard, member, records) in streams {
        for (seq, &record) in (0u64..).zip(records) {
            if record.trace.trace_id == 0 || record.trace.is_alert() {
                continue;
            }
            by_id
                .entry(record.trace.trace_id)
                .or_default()
                .push(TraceSpan {
                    shard: *shard,
                    member: *member,
                    seq,
                    record,
                });
        }
    }
    let mut trees: Vec<TraceTree> = by_id
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| (phase_rank(s.record.trace.phase), s.shard, s.member, s.seq));
            let origin = spans[0].record.trace.origin;
            TraceTree {
                trace_id,
                origin,
                spans,
            }
        })
        .collect();
    trees.sort_by_key(|t| (t.start(), t.trace_id));
    trees
}

/// The `k` slowest assembled traces by [`TraceTree::max_rpc_us`],
/// slowest first — the cold-mount answer to "which requests hurt",
/// computed entirely from the crash-surviving streams.
pub fn slowest_traces(trees: &[TraceTree], k: usize) -> Vec<&TraceTree> {
    let mut refs: Vec<&TraceTree> = trees.iter().collect();
    refs.sort_by_key(|t| (std::cmp::Reverse(t.max_rpc_us()), t.trace_id));
    refs.truncate(k);
    refs
}

/// Renders one assembled trace as a causal tree, one span per line,
/// grouped by phase and indented under per-shard headers:
///
/// ```text
/// trace 0x5f3a... origin shard 1: 3 shards, 6 members, max rpc 412us
///   phase apply
///     shard 1
///       member 0: Write obj:9 ok rpc=412us journal=80us lfs=64us disk=200us
/// ```
pub fn render_trace_tree(tree: &TraceTree) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {:#018x} origin shard {}: {} shard(s), {} member stream(s), max rpc {}us",
        tree.trace_id,
        tree.origin,
        tree.shards().len(),
        tree.members().len(),
        tree.max_rpc_us(),
    );
    let mut last_phase: Option<u8> = None;
    let mut last_shard: Option<usize> = None;
    for s in &tree.spans {
        let r = &s.record;
        if last_phase != Some(r.trace.phase) {
            let _ = writeln!(
                out,
                "  phase {}",
                s4_core::TraceCtx::phase_name(r.trace.phase)
            );
            last_phase = Some(r.trace.phase);
            last_shard = None;
        }
        if last_shard != Some(s.shard) {
            let _ = writeln!(out, "    shard {}", s.shard);
            last_shard = Some(s.shard);
        }
        let _ = writeln!(
            out,
            "      member {}: {:?} {} {} rpc={}us journal={}us lfs={}us disk={}us @{}us",
            s.member,
            r.op,
            r.object,
            if r.ok { "ok" } else { "FAILED" },
            r.rpc_us,
            r.journal_us,
            r.lfs_us,
            r.disk_us,
            r.time.as_micros(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::{SimClock, SimDuration};
    use s4_core::{DriveConfig, OpKind, Request, Response};
    use s4_simdisk::MemDisk;

    fn drive() -> (S4Drive<MemDisk>, RequestContext, RequestContext) {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let d = S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap();
        let admin = RequestContext::admin(ClientId(9), d.config().admin_token);
        let user = RequestContext::user(UserId(1), ClientId(1));
        (d, admin, user)
    }

    fn create(d: &S4Drive<MemDisk>, ctx: &RequestContext) -> ObjectId {
        match d.dispatch(ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn tick(d: &S4Drive<MemDisk>) {
        d.clock().advance(SimDuration::from_millis(50));
    }

    #[test]
    fn object_timeline_merges_journal_and_audit() {
        let (d, admin, user) = drive();
        let oid = create(&d, &user);
        tick(&d);
        d.dispatch(
            &user,
            &Request::Write {
                oid,
                offset: 0,
                data: b"hello".to_vec(),
            },
        )
        .unwrap();
        tick(&d);
        let events = object_timeline(&d, &admin, oid).unwrap();
        assert!(events
            .iter()
            .any(|e| e.source == TimelineSource::Journal && e.description.contains("Create")));
        assert!(events.iter().any(|e| matches!(
            e.source,
            TimelineSource::Audit {
                user: UserId(1),
                ..
            }
        ) && e.description.contains("Write")));
        // Sorted by time.
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn tree_walk_and_diff_see_the_change() {
        let (d, admin, user) = drive();
        // Hand-build a namespace: root -> { etc -> { passwd } }.
        let root = create(&d, &user);
        let etc = create(&d, &user);
        let passwd = create(&d, &user);
        d.op_write(&user, passwd, 0, b"root:x:0:0\n").unwrap();
        let etc_blob = dirblob::encode(&[("passwd".into(), passwd.0, EntryKind::File)]);
        d.op_write(&user, etc, 0, &etc_blob).unwrap();
        let root_blob = dirblob::encode(&[("etc".into(), etc.0, EntryKind::Dir)]);
        d.op_write(&user, root, 0, &root_blob).unwrap();

        tick(&d);
        let t0 = d.now();
        tick(&d);

        // Change passwd and plant a new file.
        d.op_append(&user, passwd, b"evil:x:0:0\n").unwrap();
        let planted = create(&d, &user);
        d.op_write(&user, planted, 0, b"#!/bin/sh").unwrap();
        let etc_blob2 = dirblob::encode(&[
            ("passwd".into(), passwd.0, EntryKind::File),
            ("backdoor.sh".into(), planted.0, EntryKind::File),
        ]);
        d.op_write(&user, etc, 0, &etc_blob2).unwrap();

        let tree_now = tree_at(&d, &admin, root, None).unwrap();
        assert_eq!(tree_now["etc/passwd"].oid, passwd);
        assert!(tree_now.contains_key("etc/backdoor.sh"));

        let diff = tree_diff(&d, &admin, root, t0, None).unwrap();
        let added: Vec<&str> = diff.added.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(added, vec!["etc/backdoor.sh"]);
        assert!(diff
            .modified
            .iter()
            .any(|(p, _)| p == "etc/passwd" || p == "etc"));
        assert!(diff.removed.is_empty());
    }

    #[test]
    fn coverage_counts_records() {
        let (d, admin, user) = drive();
        let oid = create(&d, &user);
        d.dispatch(
            &user,
            &Request::Write {
                oid,
                offset: 0,
                data: b"x".to_vec(),
            },
        )
        .unwrap();
        let cov = audit_coverage(&d, &admin).unwrap();
        assert_eq!(cov.appended, cov.decodable);
        assert_eq!(cov.missing(), 0);
        assert!(cov.appended >= 2);
    }

    #[test]
    fn read_traces_mirrors_the_request_stream() {
        let (d, admin, user) = drive();
        let oid = create(&d, &user);
        tick(&d);
        d.dispatch(
            &user,
            &Request::Write {
                oid,
                offset: 0,
                data: b"hello".to_vec(),
            },
        )
        .unwrap();
        tick(&d);
        // A denied request is traced too, with ok = false.
        let mallory = RequestContext::user(UserId(7), ClientId(7));
        assert!(d
            .dispatch(
                &mallory,
                &Request::Write {
                    oid,
                    offset: 0,
                    data: b"tamper".to_vec(),
                },
            )
            .is_err());

        let log = d.read_traces(&admin).unwrap();
        assert_eq!(log, d.read_audit_records(&admin).unwrap(), "no steps");
        assert!(log.len() >= 3);
        let write = log
            .iter()
            .find(|e| e.op == OpKind::Write && e.user == UserId(1))
            .unwrap();
        assert!(write.ok);
        assert_eq!(write.object, oid);
        let denied = log
            .iter()
            .find(|e| e.user == UserId(7))
            .expect("denied request must still be recorded");
        assert!(!denied.ok);
        assert_eq!(denied.op, OpKind::Write);

        // Non-admin principals cannot read the audit log.
        assert!(matches!(d.read_traces(&user), Err(S4Error::AccessDenied)));
    }

    #[test]
    fn trace_assembly_joins_member_streams_on_id() {
        use s4_core::{TraceCtx, PHASE_APPLY, PHASE_DECIDE, PHASE_PREPARE};
        // Record `seq` of a member's log.
        let entry = |seq: u64, id: u64, phase: u8, rpc: u32| AuditRecord {
            time: SimTime::from_micros(1_000 + seq),
            user: UserId(1),
            client: ClientId(1),
            op: OpKind::Write,
            ok: true,
            object: ObjectId(9),
            arg1: 0,
            arg2: 0,
            trace: TraceCtx {
                trace_id: id,
                origin: 1,
                phase,
            },
            rpc_us: rpc,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        };
        // Two shards, two members each; trace 0x42 touches both shards
        // (prepare + decide), trace 0x43 only shard 0; untraced records
        // are ignored.
        let streams = vec![
            (
                0usize,
                0usize,
                vec![
                    entry(0, 0, PHASE_APPLY, 5),
                    entry(1, 0x42, PHASE_PREPARE, 40),
                    entry(2, 0x42, PHASE_DECIDE, 7),
                    entry(3, 0x43, PHASE_APPLY, 90),
                ],
            ),
            (
                0,
                1,
                vec![
                    entry(1, 0x42, PHASE_PREPARE, 40),
                    entry(2, 0x42, PHASE_DECIDE, 7),
                    entry(3, 0x43, PHASE_APPLY, 90),
                ],
            ),
            (
                1,
                0,
                vec![
                    entry(0, 0x42, PHASE_PREPARE, 55),
                    entry(1, 0x42, PHASE_DECIDE, 6),
                ],
            ),
            (
                1,
                1,
                vec![
                    entry(0, 0x42, PHASE_PREPARE, 55),
                    entry(1, 0x42, PHASE_DECIDE, 6),
                ],
            ),
        ];
        let trees = assemble_traces(&streams);
        assert_eq!(trees.len(), 2);
        let t42 = trees.iter().find(|t| t.trace_id == 0x42).unwrap();
        assert_eq!(t42.shards().len(), 2);
        assert_eq!(t42.members().len(), 4);
        assert_eq!(t42.max_rpc_us(), 55);
        assert_eq!(t42.origin, 1);
        // Causal order: every prepare span precedes every decide span.
        let last_prepare = t42
            .spans
            .iter()
            .rposition(|s| s.record.trace.phase == PHASE_PREPARE);
        let first_decide = t42
            .spans
            .iter()
            .position(|s| s.record.trace.phase == PHASE_DECIDE);
        assert!(last_prepare.unwrap() < first_decide.unwrap());

        let slow = slowest_traces(&trees, 1);
        assert_eq!(slow[0].trace_id, 0x43);
        let text = render_trace_tree(t42);
        assert!(text.contains("phase prepare"), "{text}");
        assert!(text.contains("phase decide"), "{text}");
        assert!(text.contains("shard 1"), "{text}");
        assert!(text.contains("member 1"), "{text}");
        assert!(text.contains("member 0: Write obj:9 ok rpc=55us"), "{text}");
    }
}

//! Recovery planning and execution.
//!
//! The §2 end-game: once forensics has placed the intrusion at time `T`
//! and named the suspect principals, build a *reviewable* plan of
//! restorative actions and execute it through the same versioned
//! interface everything else uses. Recovery never rewrites history —
//! restores are copy-forward writes (§3.3), planted objects are
//! landmark-pinned before removal so the evidence outlives the
//! detection window, and the whole procedure is itself versioned and
//! auditable.

use std::collections::{BTreeMap, BTreeSet};

use s4_clock::SimTime;
use s4_core::ObjectAttrs;
use s4_core::LAST_CREATED;
use s4_core::{
    AclEntry, AuditRecord, ClientId, ObjectId, OpKind, Request, RequestContext, Response, S4Drive,
    S4Error,
};
use s4_simdisk::BlockDev;

use crate::dirblob::{self, EntryKind};
use crate::forensics::tree_at;

/// Which principals are considered compromised.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Suspects {
    /// Compromised client machines.
    pub clients: BTreeSet<u32>,
    /// Compromised (stolen) user identities.
    pub users: BTreeSet<u32>,
}

impl Suspects {
    /// Suspect a single client machine (the common §2 case: damage is
    /// bounded to requests from the compromised host).
    pub fn client(c: ClientId) -> Self {
        Suspects {
            clients: BTreeSet::from([c.0]),
            users: BTreeSet::new(),
        }
    }

    /// Whether a record was issued by a suspect principal.
    pub(crate) fn matches(&self, rec: &AuditRecord) -> bool {
        self.clients.contains(&rec.client.0) || self.users.contains(&rec.user.0)
    }
}

/// One restorative step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Copy the object's pre-intrusion version forward (contents,
    /// length, and attributes as of `to`).
    RestoreContent {
        /// Object to restore.
        object: ObjectId,
        /// Version instant to restore to.
        to: SimTime,
    },
    /// Recreate a deleted object from its version at `to` as a fresh
    /// object, relinking it under `parent` when the old path is known.
    Undelete {
        /// The deleted object.
        object: ObjectId,
        /// Version instant to resurrect.
        to: SimTime,
        /// `(directory object, entry name)` to relink under, if known.
        parent: Option<(ObjectId, String)>,
        /// Directory-entry kind for the relinked entry.
        kind: EntryKind,
    },
    /// Remove an object the intruder planted: landmark-pin the current
    /// version as evidence, unlink it from `parent`, then delete it.
    RemovePlanted {
        /// The planted object.
        object: ObjectId,
        /// `(directory object, entry name)` to unlink from, if known.
        parent: Option<(ObjectId, String)>,
    },
    /// Landmark-pin the version at `at` so already-deleted evidence
    /// (e.g. an exploit tool the intruder removed) survives the
    /// detection window.
    Quarantine {
        /// The deleted object holding the evidence.
        object: ObjectId,
        /// Instant of the version to pin.
        at: SimTime,
    },
}

impl core::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryAction::RestoreContent { object, to } => {
                write!(f, "restore {object} to its version at {to}")
            }
            RecoveryAction::Undelete {
                object, to, parent, ..
            } => match parent {
                Some((dir, name)) => write!(
                    f,
                    "undelete {object} from its version at {to}, relinked as '{name}' in {dir}"
                ),
                None => write!(
                    f,
                    "undelete {object} from its version at {to} (path unknown)"
                ),
            },
            RecoveryAction::RemovePlanted { object, .. } => {
                write!(
                    f,
                    "remove planted {object} (landmark-pinned as evidence first)"
                )
            }
            RecoveryAction::Quarantine { object, at } => {
                write!(
                    f,
                    "quarantine {object}: pin its version at {at} as evidence"
                )
            }
        }
    }
}

/// An action plus the forensic justification for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedAction {
    /// What to do.
    pub action: RecoveryAction,
    /// Why (paths and op counts from the audit log).
    pub reason: String,
}

/// A reviewable recovery plan. Nothing here has touched the drive yet;
/// an administrator inspects it (e.g. via the CLI) and then runs
/// [`execute_plan_on`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The intrusion time `T` the plan restores to.
    pub intrusion_time: SimTime,
    /// When the plan was computed.
    pub planned_at: SimTime,
    /// Restorative steps, in execution order (directories first, so
    /// undeletes and unlinks operate on already-restored namespaces).
    pub actions: Vec<PlannedAction>,
}

/// What [`execute_plan_on`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Actions applied successfully.
    pub applied: usize,
    /// `(action index, error)` for actions that failed; execution
    /// continues past failures.
    pub failed: Vec<(usize, String)>,
    /// `(old, new)` object ids for undeleted objects.
    pub undeleted: Vec<(ObjectId, ObjectId)>,
}

/// Builds a recovery plan: every object mutated after `t` by a suspect
/// principal is classified against its state at `t` (admin only).
///
/// * existed at `t`, still live — [`RecoveryAction::RestoreContent`]
/// * existed at `t`, now deleted — [`RecoveryAction::Undelete`]
/// * created after `t`, still live — [`RecoveryAction::RemovePlanted`]
/// * created after `t`, already deleted — [`RecoveryAction::Quarantine`]
pub fn plan_recovery<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
    suspects: &Suspects,
    t: SimTime,
) -> Result<RecoveryPlan, S4Error> {
    let records = drive.read_audit_records(admin)?;

    // Objects a suspect mutated after T, with op counts for the reason
    // string and the time of the last content-bearing mutation (the
    // quarantine instant for already-deleted evidence).
    let mut touched: BTreeMap<u64, BTreeMap<OpKind, u32>> = BTreeMap::new();
    let mut last_content_at: BTreeMap<u64, SimTime> = BTreeMap::new();
    for r in &records {
        if r.time <= t || !r.ok || !suspects.matches(r) {
            continue;
        }
        if !r.op.creates_version() || r.object.is_reserved() {
            continue;
        }
        *touched
            .entry(r.object.0)
            .or_default()
            .entry(r.op)
            .or_insert(0) += 1;
        if r.op != OpKind::Delete {
            last_content_at.insert(r.object.0, r.time);
        }
    }

    // Namespace context: oid -> (path, parent dir, name, kind) at T and
    // now, across every partition.
    let names_then = namespace_index(drive, admin, Some(t))?;
    let names_now = namespace_index(drive, admin, None)?;

    let mut restores_dirs = Vec::new();
    let mut restores_files = Vec::new();
    // (is_dir, path depth, action): undeletes run directories first,
    // shallowest first, so children relink into already-resurrected
    // parents; removals run files first and directories deepest-first,
    // so nothing is unlinked from an already-deleted parent.
    let mut undeletes: Vec<(bool, usize, PlannedAction)> = Vec::new();
    let mut removals: Vec<(bool, usize, PlannedAction)> = Vec::new();
    let mut quarantines = Vec::new();

    for (&oid_raw, ops) in &touched {
        let oid = ObjectId(oid_raw);
        let existed_then = matches!(
            drive.op_getattr(admin, oid, Some(t)),
            Ok(a) if a.deleted.is_none()
        );
        let live_now = drive.op_getattr(admin, oid, None).is_ok();
        let ops_desc = ops
            .iter()
            .map(|(k, n)| format!("{k:?}x{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let path_of = |idx: &BTreeMap<u64, NameInfo>| {
            idx.get(&oid_raw)
                .map(|i| i.path.clone())
                .unwrap_or_else(|| format!("{oid}"))
        };
        match (existed_then, live_now) {
            (true, true) => {
                let info = names_then.get(&oid_raw);
                let is_dir = info.map(|i| i.kind == EntryKind::Dir).unwrap_or(false);
                let planned = PlannedAction {
                    action: RecoveryAction::RestoreContent { object: oid, to: t },
                    reason: format!(
                        "{} tampered after T by suspect ({ops_desc}); restore to pre-intrusion \
                         version",
                        path_of(&names_then)
                    ),
                };
                if is_dir {
                    restores_dirs.push(planned);
                } else {
                    restores_files.push(planned);
                }
            }
            (true, false) => {
                let info = names_then.get(&oid_raw);
                let is_dir = info.map(|i| i.kind == EntryKind::Dir).unwrap_or(false);
                let depth = info.map(|i| i.path.matches('/').count()).unwrap_or(0);
                undeletes.push((
                    is_dir,
                    depth,
                    PlannedAction {
                        action: RecoveryAction::Undelete {
                            object: oid,
                            to: t,
                            parent: info.map(|i| (i.parent, i.name.clone())),
                            kind: info.map(|i| i.kind).unwrap_or(EntryKind::File),
                        },
                        reason: format!(
                            "{} destroyed after T by suspect ({ops_desc}); recreate from the \
                             history pool",
                            path_of(&names_then)
                        ),
                    },
                ));
            }
            (false, true) => {
                let info = names_now.get(&oid_raw);
                let is_dir = info.map(|i| i.kind == EntryKind::Dir).unwrap_or(false);
                let depth = info.map(|i| i.path.matches('/').count()).unwrap_or(0);
                removals.push((
                    is_dir,
                    depth,
                    PlannedAction {
                        action: RecoveryAction::RemovePlanted {
                            object: oid,
                            parent: info.map(|i| (i.parent, i.name.clone())),
                        },
                        reason: format!(
                            "{} planted after T by suspect ({ops_desc}); pin as evidence and \
                             remove",
                            path_of(&names_now)
                        ),
                    },
                ));
            }
            (false, false) => {
                if let Some(&at) = last_content_at.get(&oid_raw) {
                    quarantines.push(PlannedAction {
                        action: RecoveryAction::Quarantine { object: oid, at },
                        reason: format!(
                            "{oid} planted and already deleted by suspect ({ops_desc}); pin the \
                             last version as evidence"
                        ),
                    });
                }
            }
        }
    }

    // Dirs first (shallowest first), then files: children relink into
    // directories that are back already.
    undeletes.sort_by_key(|(is_dir, depth, _)| (!*is_dir, *depth));
    // Files first, then dirs deepest-first: nothing unlinks from a
    // parent that was already removed.
    removals.sort_by_key(|(is_dir, depth, _)| (*is_dir, usize::MAX - *depth));

    let mut actions = restores_dirs;
    actions.extend(restores_files);
    actions.extend(undeletes.into_iter().map(|(_, _, a)| a));
    actions.extend(removals.into_iter().map(|(_, _, a)| a));
    actions.extend(quarantines);
    Ok(RecoveryPlan {
        intrusion_time: t,
        planned_at: drive.now(),
        actions,
    })
}

/// Mutation sink for `execute_plan`: dispatches one request
/// (reads included, so a single closure adapts a drive, an array, or a
/// remote transport).
pub(crate) type Dispatch<'a> = &'a mut dyn FnMut(&Request) -> Result<Response, S4Error>;

/// Landmark sink for `execute_plan`. Landmark pinning has no
/// RPC request variant, so it travels beside the dispatch closure;
/// `at = None` pins the version current *now*.
pub(crate) type Landmark<'a> = &'a mut dyn FnMut(ObjectId, Option<SimTime>) -> Result<(), S4Error>;

/// Executes a plan through `dispatch`, like any other client: every
/// read and mutation is verified, audited under the caller's (admin)
/// principal and seen by the detectors. Each action's mutations go out
/// as a single [`Request::Batch`].
///
/// Routed at an `S4Array`, a multi-shard action (e.g. unlink in one
/// shard's directory + delete in another) rides the cross-shard
/// two-phase commit and lands all-or-nothing; on a lone drive the
/// batch still collapses the action into one dispatch with the
/// drive's abort-at-first-failure contract. Execution continues past
/// individual action failures and each is reported.
pub(crate) fn execute_plan(
    dispatch: Dispatch<'_>,
    mark_landmark: Landmark<'_>,
    plan: &RecoveryPlan,
) -> Result<RecoveryReport, S4Error> {
    let mut report = RecoveryReport::default();
    // Undeleting gives an object a fresh id; later undeletes whose
    // parent directory was itself resurrected must relink into the new
    // directory object, not the dead one.
    let mut remap: BTreeMap<u64, ObjectId> = BTreeMap::new();
    for (idx, pa) in plan.actions.iter().enumerate() {
        let r = match &pa.action {
            RecoveryAction::RestoreContent { object, to } => {
                restore_content(&mut *dispatch, *object, *to)
            }
            RecoveryAction::Undelete {
                object,
                to,
                parent,
                kind,
            } => {
                let parent = parent
                    .as_ref()
                    .map(|(dir, name)| (remap.get(&dir.0).copied().unwrap_or(*dir), name.clone()));
                undelete(&mut *dispatch, *object, *to, parent.as_ref(), *kind).map(|new_oid| {
                    remap.insert(object.0, new_oid);
                    report.undeleted.push((*object, new_oid));
                })
            }
            RecoveryAction::RemovePlanted { object, parent } => remove_planted(
                &mut *dispatch,
                &mut *mark_landmark,
                *object,
                parent.as_ref(),
            ),
            RecoveryAction::Quarantine { object, at } => mark_landmark(*object, Some(*at)),
        };
        match r {
            Ok(()) => report.applied += 1,
            Err(e) => report.failed.push((idx, e.to_string())),
        }
    }
    Ok(report)
}

/// `execute_plan` adapted to a single drive's dispatch path.
pub fn execute_plan_on<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
    plan: &RecoveryPlan,
) -> Result<RecoveryReport, S4Error> {
    execute_plan(
        &mut |req| drive.dispatch(admin, req),
        &mut |oid, at| drive.op_mark_landmark(admin, oid, at.unwrap_or_else(|| drive.now())),
        plan,
    )
}

/// Reads one version (attributes + full contents) through the
/// dispatch closure.
fn read_version(
    dispatch: Dispatch<'_>,
    oid: ObjectId,
    time: Option<SimTime>,
) -> Result<(ObjectAttrs, Vec<u8>), S4Error> {
    let attrs = match dispatch(&Request::GetAttr { oid, time })? {
        Response::Attrs(a) => a,
        _ => return Err(S4Error::BadRequest("expected Attrs response")),
    };
    let data = if attrs.size > 0 {
        match dispatch(&Request::Read {
            oid,
            offset: 0,
            len: attrs.size,
            time,
        })? {
            Response::Data(d) => d,
            _ => return Err(S4Error::BadRequest("expected Data response")),
        }
    } else {
        Vec::new()
    };
    Ok((attrs, data))
}

fn restore_content(dispatch: Dispatch<'_>, oid: ObjectId, to: SimTime) -> Result<(), S4Error> {
    let (attrs, data) = read_version(&mut *dispatch, oid, Some(to))?;
    let mut batch = Vec::new();
    if !data.is_empty() {
        batch.push(Request::Write {
            oid,
            offset: 0,
            data,
        });
    }
    batch.push(Request::Truncate {
        oid,
        len: attrs.size,
    });
    batch.push(Request::SetAttr {
        oid,
        attrs: attrs.opaque,
    });
    dispatch(&Request::Batch(batch)).map(|_| ())
}

/// The ACL entries of `oid`'s version at `to`, via the indexed lookup.
fn acl_entries_at(
    dispatch: Dispatch<'_>,
    oid: ObjectId,
    to: SimTime,
) -> Result<Vec<AclEntry>, S4Error> {
    let mut entries = Vec::new();
    for index in 0.. {
        match dispatch(&Request::GetAclByIndex {
            oid,
            index,
            time: Some(to),
        })? {
            Response::Acl(Some(entry)) => entries.push(entry),
            Response::Acl(None) => break,
            _ => return Err(S4Error::BadRequest("expected Acl response")),
        }
    }
    Ok(entries)
}

fn undelete(
    dispatch: Dispatch<'_>,
    oid: ObjectId,
    to: SimTime,
    parent: Option<&(ObjectId, String)>,
    kind: EntryKind,
) -> Result<ObjectId, S4Error> {
    let (attrs, data) = read_version(&mut *dispatch, oid, Some(to))?;
    let entries = acl_entries_at(&mut *dispatch, oid, to)?;
    // One resurrection batch under the LAST_CREATED placeholder, so
    // the fresh id never escapes half-initialised. The RPC surface has
    // no create-with-ACL, so the recorded entries are upserted over
    // the creation default.
    let mut batch = vec![Request::Create];
    if !data.is_empty() {
        batch.push(Request::Write {
            oid: LAST_CREATED,
            offset: 0,
            data,
        });
    }
    batch.push(Request::SetAttr {
        oid: LAST_CREATED,
        attrs: attrs.opaque,
    });
    for entry in entries {
        batch.push(Request::SetAcl {
            oid: LAST_CREATED,
            entry,
        });
    }
    let new_oid = match dispatch(&Request::Batch(batch))? {
        Response::Batch(rs) => match rs.first() {
            Some(Response::Created(o)) => *o,
            _ => return Err(S4Error::BadRequest("batch Create returned no id")),
        },
        _ => return Err(S4Error::BadRequest("expected Batch response")),
    };
    if let Some((dir, name)) = parent {
        relink(
            &mut *dispatch,
            *dir,
            name,
            Some((new_oid, kind)),
            Vec::new(),
        )?;
    }
    Ok(new_oid)
}

fn remove_planted(
    dispatch: Dispatch<'_>,
    mark_landmark: Landmark<'_>,
    oid: ObjectId,
    parent: Option<&(ObjectId, String)>,
) -> Result<(), S4Error> {
    // Evidence first: pin the version being removed past the window.
    mark_landmark(oid, None)?;
    if let Some((dir, name)) = parent {
        // Unlink and delete ride one batch — a failure between the two
        // can no longer leave a dangling directory entry.
        match relink(
            &mut *dispatch,
            *dir,
            name,
            None,
            vec![Request::Delete { oid }],
        ) {
            Ok(()) => return Ok(()),
            // The parent directory may itself be a removed plant.
            Err(S4Error::NoSuchObject) => {}
            Err(e) => return Err(e),
        }
    }
    dispatch(&Request::Batch(vec![Request::Delete { oid }])).map(|_| ())
}

/// Rewrites one directory entry (`target = Some` upserts, `None`
/// removes) and appends `tail` so callers can make follow-on
/// mutations part of the same atomic batch.
fn relink(
    dispatch: Dispatch<'_>,
    dir: ObjectId,
    name: &str,
    target: Option<(ObjectId, EntryKind)>,
    tail: Vec<Request>,
) -> Result<(), S4Error> {
    let (_, data) = read_version(&mut *dispatch, dir, None)?;
    let mut entries = dirblob::decode(&data)?;
    entries.retain(|(n, _, _)| n != name);
    if let Some((oid, kind)) = target {
        entries.push((name.to_string(), oid.0, kind));
    }
    let mut batch = dirblob::update_requests(dir, &data, &entries);
    batch.extend(tail);
    dispatch(&Request::Batch(batch)).map(|_| ())
}

struct NameInfo {
    path: String,
    parent: ObjectId,
    name: String,
    kind: EntryKind,
}

/// Walks every partition's tree, mapping oid -> location. The first
/// path wins if an object is linked more than once.
fn namespace_index<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
    time: Option<SimTime>,
) -> Result<BTreeMap<u64, NameInfo>, S4Error> {
    let mut idx = BTreeMap::new();
    for (pname, root) in drive.op_plist(admin, time)? {
        let tree = tree_at(drive, admin, root, time)?;
        for (path, node) in &tree {
            let (dir_part, name) = path.rsplit_once('/').unwrap_or(("", path));
            let parent = if dir_part.is_empty() {
                root
            } else {
                tree.get(dir_part).map(|n| n.oid).unwrap_or(root)
            };
            idx.entry(node.oid.0).or_insert(NameInfo {
                path: format!("{pname}:/{path}"),
                parent,
                name: name.to_string(),
                kind: node.kind,
            });
        }
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::{SimClock, SimDuration};
    use s4_core::{DriveConfig, Request, Response, UserId};
    use s4_simdisk::MemDisk;

    fn setup() -> (
        S4Drive<MemDisk>,
        RequestContext,
        RequestContext,
        RequestContext,
    ) {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let d = S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap();
        let admin = RequestContext::admin(ClientId(9), d.config().admin_token);
        let user = RequestContext::user(UserId(1), ClientId(1));
        let intruder = RequestContext::user(UserId(1), ClientId(66));
        (d, admin, user, intruder)
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
    fn plan_classifies_and_executor_restores_all_four_shapes_via_batches() {
        let (d, admin, user, intruder) = setup();
        // Pre-intrusion state, created through the audited path.
        let tampered = create(&d, &user);
        d.dispatch(
            &user,
            &Request::Write {
                oid: tampered,
                offset: 0,
                data: b"good".to_vec(),
            },
        )
        .unwrap();
        let destroyed = create(&d, &user);
        d.dispatch(
            &user,
            &Request::Write {
                oid: destroyed,
                offset: 0,
                data: b"keep me".to_vec(),
            },
        )
        .unwrap();
        tick(&d);
        let t = d.now();
        tick(&d);

        // The intrusion: tamper, destroy, plant, plant-and-delete.
        d.dispatch(
            &intruder,
            &Request::Write {
                oid: tampered,
                offset: 0,
                data: b"EVIL".to_vec(),
            },
        )
        .unwrap();
        d.dispatch(&intruder, &Request::Delete { oid: destroyed })
            .unwrap();
        let planted = create(&d, &intruder);
        d.dispatch(
            &intruder,
            &Request::Write {
                oid: planted,
                offset: 0,
                data: b"backdoor".to_vec(),
            },
        )
        .unwrap();
        let tool = create(&d, &intruder);
        d.dispatch(
            &intruder,
            &Request::Write {
                oid: tool,
                offset: 0,
                data: b"exploit".to_vec(),
            },
        )
        .unwrap();
        tick(&d);
        d.dispatch(&intruder, &Request::Delete { oid: tool })
            .unwrap();

        let plan = plan_recovery(&d, &admin, &Suspects::client(ClientId(66)), t).unwrap();
        let find = |o: ObjectId| {
            plan.actions
                .iter()
                .find(|pa| match &pa.action {
                    RecoveryAction::RestoreContent { object, .. }
                    | RecoveryAction::Undelete { object, .. }
                    | RecoveryAction::RemovePlanted { object, .. }
                    | RecoveryAction::Quarantine { object, .. } => *object == o,
                })
                .unwrap_or_else(|| panic!("no action for {o}"))
        };
        assert!(matches!(
            find(tampered).action,
            RecoveryAction::RestoreContent { .. }
        ));
        assert!(matches!(
            find(destroyed).action,
            RecoveryAction::Undelete { .. }
        ));
        assert!(matches!(
            find(planted).action,
            RecoveryAction::RemovePlanted { .. }
        ));
        assert!(matches!(
            find(tool).action,
            RecoveryAction::Quarantine { .. }
        ));

        // Execute, counting batch dispatches: every action's mutations
        // must arrive as a single Request::Batch, never as loose writes.
        let mut batches = 0usize;
        let report = execute_plan(
            &mut |req| {
                if matches!(req, Request::Batch(_)) {
                    batches += 1;
                } else {
                    assert!(!req.mutates(), "executor issued a loose mutation: {req:?}");
                }
                d.dispatch(&admin, req)
            },
            &mut |oid, at| d.op_mark_landmark(&admin, oid, at.unwrap_or_else(|| d.now())),
            &plan,
        )
        .unwrap();
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert_eq!(report.applied, plan.actions.len());
        assert!(batches >= 3, "restore/undelete/remove each batch once");
        // The drive state.
        assert_eq!(d.op_read(&user, tampered, 0, 4, None).unwrap(), b"good");
        assert!(
            d.op_getattr(&user, planted, None).is_err(),
            "planted object removed"
        );
        let (_, new_oid) = report.undeleted[0];
        assert_eq!(d.op_read(&user, new_oid, 0, 7, None).unwrap(), b"keep me");
        // The quarantined tool's last version is pinned as a landmark.
        let pins = d.landmarks(&admin, tool).unwrap();
        assert_eq!(pins.len(), 1);
        // And the removed planted object is pinned too (evidence).
        assert_eq!(d.landmarks(&admin, planted).unwrap().len(), 1);
    }

    /// Unlinking a plant from a directory spanning three blocks rewrites
    /// block 0 (the count) and the blocks from the removed entry onward,
    /// not the whole blob: the blocks before the entry keep their
    /// versions, as they do when the file server edits the directory.
    #[test]
    fn relink_writes_only_the_directory_blocks_that_change() {
        let (d, admin, user, intruder) = setup();
        let dir = create(&d, &user);
        let planted = create(&d, &intruder);
        // 22 bytes an entry: 400 entries span 8 804 bytes, three blocks.
        let mut entries: Vec<_> = (0..400)
            .map(|i| (format!("file-{i:06}"), 1_000 + i, EntryKind::File))
            .collect();
        entries[380].1 = planted.0;
        let blob = dirblob::encode(&entries);
        assert_eq!(blob.len().div_ceil(4096), 3);
        d.dispatch(
            &user,
            &Request::Write {
                oid: dir,
                offset: 0,
                data: blob,
            },
        )
        .unwrap();
        let audited = d.read_audit_records(&admin).unwrap().len();

        let plan = RecoveryPlan {
            actions: vec![PlannedAction {
                action: RecoveryAction::RemovePlanted {
                    object: planted,
                    parent: Some((dir, entries[380].0.clone())),
                },
                reason: String::new(),
            }],
            ..RecoveryPlan::default()
        };
        let report = execute_plan_on(&d, &admin, &plan).unwrap();
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);

        let new_len = 4 + 399 * 22;
        let writes: Vec<(u64, u64)> = d.read_audit_records(&admin).unwrap()[audited..]
            .iter()
            .filter(|r| r.op == OpKind::Write && r.object == dir)
            .map(|r| (r.arg1, r.arg2))
            .collect();
        // Entry 380 starts at byte 4 + 380 * 22 = 8 364, in block 2.
        assert_eq!(writes, vec![(0, 4096), (8192, new_len - 8192)]);
        entries.remove(380);
        assert_eq!(
            d.op_read(&user, dir, 0, 1 << 20, None).unwrap(),
            dirblob::encode(&entries)
        );
    }

    /// Bytes an intruder appended after a directory's last entry are
    /// invisible to `decode`, but a relink still cuts them off, also
    /// when the new entry makes the decoded blob longer.
    #[test]
    fn relink_cuts_bytes_after_the_last_entry() {
        let (d, admin, user, intruder) = setup();
        let dir = create(&d, &user);
        let victim = create(&d, &user);
        d.dispatch(
            &user,
            &Request::Write {
                oid: victim,
                offset: 0,
                data: b"keep me".to_vec(),
            },
        )
        .unwrap();
        let kept = ("kept".to_string(), 1_000, EntryKind::File);
        let mut blob = dirblob::encode(std::slice::from_ref(&kept));
        blob.extend_from_slice(&[0xEE; 64]);
        d.dispatch(
            &user,
            &Request::Write {
                oid: dir,
                offset: 0,
                data: blob,
            },
        )
        .unwrap();
        tick(&d);
        let t = d.now();
        tick(&d);
        d.dispatch(&intruder, &Request::Delete { oid: victim })
            .unwrap();

        let plan = RecoveryPlan {
            actions: vec![PlannedAction {
                action: RecoveryAction::Undelete {
                    object: victim,
                    to: t,
                    parent: Some((dir, "restored".to_string())),
                    kind: EntryKind::File,
                },
                reason: String::new(),
            }],
            ..RecoveryPlan::default()
        };
        let report = execute_plan_on(&d, &admin, &plan).unwrap();
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        let (_, new_oid) = report.undeleted[0];
        let restored = ("restored".to_string(), new_oid.0, EntryKind::File);
        assert_eq!(
            d.op_read(&user, dir, 0, 1 << 20, None).unwrap(),
            dirblob::encode(&[kept, restored])
        );
    }

    #[test]
    fn innocent_activity_is_not_planned_against() {
        let (d, admin, user, _) = setup();
        let mine = create(&d, &user);
        tick(&d);
        let t = d.now();
        tick(&d);
        // Post-T activity by the honest client only.
        d.dispatch(
            &user,
            &Request::Write {
                oid: mine,
                offset: 0,
                data: b"work".to_vec(),
            },
        )
        .unwrap();
        let plan = plan_recovery(&d, &admin, &Suspects::client(ClientId(66)), t).unwrap();
        assert!(plan.actions.is_empty());
    }
}

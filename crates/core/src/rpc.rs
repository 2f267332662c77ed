//! The S4 RPC interface (Table 1 of the paper) and its wire codec.
//!
//! Every operation in the paper's Table 1 is represented: the read-type
//! operations (`Read`, `GetAttr`, `GetACLByUser`, `GetACLByIndex`,
//! `PList`, `PMount`) carry an optional `time` parameter selecting "the
//! version of the object that was most current at the time specified",
//! and all modifications create new versions without affecting previous
//! ones. [`S4Drive::dispatch`] authenticates, executes, and audits a
//! request; the binary codec lets transports (loopback or TCP) ship
//! requests without caring about their contents.

use s4_clock::{SimDuration, SimTime};
use s4_simdisk::BlockDev;

use crate::acl::AclEntry;
use crate::audit::{AuditRecord, OpKind};
use crate::codec::{push_bytes, push_time_opt, Reader};
use crate::drive::{ObjectAttrs, S4Drive};
use crate::ids::{ObjectId, RequestContext, UserId};
use crate::{Result, S4Error};

/// A request to the drive (Table 1).
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Request {
    /// Create an object.
    Create,
    /// Delete an object (versions remain in the history pool).
    Delete { oid: ObjectId },
    /// Read data; `time` selects a historical version.
    Read {
        oid: ObjectId,
        offset: u64,
        len: u64,
        time: Option<SimTime>,
    },
    /// Write data at an offset.
    Write {
        oid: ObjectId,
        offset: u64,
        data: Vec<u8>,
    },
    /// Append data at the end of the object.
    Append { oid: ObjectId, data: Vec<u8> },
    /// Truncate the object to a length.
    Truncate { oid: ObjectId, len: u64 },
    /// Get attributes (S4-specific and opaque); supports time-based access.
    GetAttr {
        oid: ObjectId,
        time: Option<SimTime>,
    },
    /// Set the opaque attributes.
    SetAttr { oid: ObjectId, attrs: Vec<u8> },
    /// Get an ACL entry by user; supports time-based access.
    GetAclByUser {
        oid: ObjectId,
        user: UserId,
        time: Option<SimTime>,
    },
    /// Get an ACL entry by index; supports time-based access.
    GetAclByIndex {
        oid: ObjectId,
        index: u32,
        time: Option<SimTime>,
    },
    /// Set an ACL entry.
    SetAcl { oid: ObjectId, entry: AclEntry },
    /// Create a partition (name → ObjectID association).
    PCreate { name: String, oid: ObjectId },
    /// Delete a partition association.
    PDelete { name: String },
    /// List partitions; supports time-based access.
    PList { time: Option<SimTime> },
    /// Resolve a partition name; supports time-based access.
    PMount { name: String, time: Option<SimTime> },
    /// Sync the entire cache to disk.
    Sync,
    /// Admin: remove all versions of all objects between two times.
    Flush { from: SimTime, to: SimTime },
    /// Admin: remove versions of one object between two times.
    FlushO {
        oid: ObjectId,
        from: SimTime,
        to: SimTime,
    },
    /// Admin: adjust the guaranteed detection window.
    SetWindow { window: SimDuration },
    /// Several operations in one round trip (§4.1.2: "the drive also
    /// supports batching of setattr, getattr, and sync operations with
    /// create, read, write, and append operations"). Sub-requests run in
    /// order; each is audited individually; the first failure aborts the
    /// rest (earlier effects remain, as with separate RPCs). Within a
    /// batch, [`LAST_CREATED`] as an ObjectID refers to the object made
    /// by the batch's most recent `Create`.
    Batch(Vec<Request>),
}

/// Placeholder ObjectID usable inside a [`Request::Batch`]: "the object
/// created by the most recent Create in this batch".
pub const LAST_CREATED: ObjectId = ObjectId(u64::MAX);

/// A successful response.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Response {
    /// New object's identifier.
    Created(ObjectId),
    /// Generic success.
    Ok,
    /// Read data.
    Data(Vec<u8>),
    /// New object size after an append.
    NewSize(u64),
    /// Attributes.
    Attrs(ObjectAttrs),
    /// ACL lookup result (None = no entry).
    Acl(Option<AclEntry>),
    /// Partition listing.
    Partitions(Vec<(String, ObjectId)>),
    /// Resolved partition object.
    Mounted(ObjectId),
    /// Responses of a batch's sub-requests, in order.
    Batch(Vec<Response>),
}

impl Request {
    /// The audit classification of this request.
    pub fn op_kind(&self) -> OpKind {
        match self {
            Request::Create => OpKind::Create,
            Request::Delete { .. } => OpKind::Delete,
            Request::Read { .. } => OpKind::Read,
            Request::Write { .. } => OpKind::Write,
            Request::Append { .. } => OpKind::Append,
            Request::Truncate { .. } => OpKind::Truncate,
            Request::GetAttr { .. } => OpKind::GetAttr,
            Request::SetAttr { .. } => OpKind::SetAttr,
            Request::GetAclByUser { .. } => OpKind::GetAclByUser,
            Request::GetAclByIndex { .. } => OpKind::GetAclByIndex,
            Request::SetAcl { .. } => OpKind::SetAcl,
            Request::PCreate { .. } => OpKind::PCreate,
            Request::PDelete { .. } => OpKind::PDelete,
            Request::PList { .. } => OpKind::PList,
            Request::PMount { .. } => OpKind::PMount,
            Request::Sync => OpKind::Sync,
            Request::Flush { .. } => OpKind::Flush,
            Request::FlushO { .. } => OpKind::FlushO,
            Request::SetWindow { .. } => OpKind::SetWindow,
            // Batches are audited per sub-request, not as a whole.
            Request::Batch(_) => OpKind::Sync,
        }
    }

    /// Target object, for auditing (0 when not object-directed). The one
    /// list of object-directed requests: routing, transaction locks and
    /// [`LAST_CREATED`] resolution all read it.
    pub fn target(&self) -> ObjectId {
        match self {
            Request::Delete { oid }
            | Request::Read { oid, .. }
            | Request::Write { oid, .. }
            | Request::Append { oid, .. }
            | Request::Truncate { oid, .. }
            | Request::GetAttr { oid, .. }
            | Request::SetAttr { oid, .. }
            | Request::GetAclByUser { oid, .. }
            | Request::GetAclByIndex { oid, .. }
            | Request::SetAcl { oid, .. }
            | Request::PCreate { oid, .. }
            | Request::FlushO { oid, .. } => *oid,
            _ => ObjectId(0),
        }
    }

    /// Audit arguments `(arg1, arg2)` for this request.
    pub fn audit_args(&self) -> (u64, u64) {
        match self {
            Request::Read { offset, len, .. } => (*offset, *len),
            Request::Write { offset, data, .. } => (*offset, data.len() as u64),
            Request::Append { data, .. } => (data.len() as u64, 0),
            Request::Truncate { len, .. } => (*len, 0),
            Request::SetAttr { attrs, .. } => (attrs.len() as u64, 0),
            Request::Flush { from, to } | Request::FlushO { from, to, .. } => {
                (from.as_micros(), to.as_micros())
            }
            Request::SetWindow { window } => (window.as_micros(), 0),
            _ => (0, 0),
        }
    }

    /// True if this request can change drive state. Redundancy layers
    /// use this to decide which requests must reach every replica
    /// (mutations) versus any one live replica (pure reads). `Batch` is
    /// conservatively a mutation — its sub-requests usually include one
    /// (and its [`OpKind`] stands in as `Sync`, which is one).
    pub fn mutates(&self) -> bool {
        self.op_kind().mutates()
    }

    /// The partition name a namespace request carries.
    pub fn partition_name(&self) -> Option<&str> {
        match self {
            Request::PCreate { name, .. }
            | Request::PDelete { name }
            | Request::PMount { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Approximate request size on the wire, for network cost models.
    pub fn wire_size(&self) -> usize {
        let body = match self {
            Request::Write { data, .. } | Request::Append { data, .. } => data.len(),
            Request::SetAttr { attrs, .. } => attrs.len(),
            Request::Batch(reqs) => reqs.iter().map(|r| r.wire_size()).sum(),
            _ => self.partition_name().map_or(0, str::len),
        };
        48 + body
    }
}

impl Response {
    /// Approximate response size on the wire, for network cost models.
    pub fn wire_size(&self) -> usize {
        let body = match self {
            Response::Data(d) => d.len(),
            Response::Attrs(a) => 48 + a.opaque.len(),
            Response::Partitions(p) => p.iter().map(|(n, _)| n.len() + 10).sum(),
            Response::Batch(rs) => rs.iter().map(|r| r.wire_size()).sum(),
            _ => 0,
        };
        16 + body
    }
}

impl<D: BlockDev> S4Drive<D> {
    /// Verifies, executes, audits, and charges CPU time for one request.
    ///
    /// This is the drive's security perimeter (§3.2): *every* command —
    /// read, write, or administrative, successful or denied — is recorded
    /// in the audit log before the response leaves the drive.
    pub fn dispatch(&self, ctx: &RequestContext, req: &Request) -> Result<Response> {
        if let Request::Batch(reqs) = req {
            // Batches are not instrumented as a unit: each sub-request
            // passes the audited perimeter and gets its own span and
            // record.
            return self.dispatch_batch(ctx, reqs);
        }
        let target = req.target();
        self.audited(ctx, req, target, |drive| drive.execute(ctx, req, target))
    }

    /// The perimeter around one request on object `target` (its own,
    /// or the object a batch's [`LAST_CREATED`] stands for): charge it,
    /// refuse it if that object is pinned by a transaction, otherwise
    /// `run` it, then record the outcome. `run` is
    /// [`Self::execute`] for every request but one (see
    /// [`Self::txn_prepare_at`]).
    fn audited(
        &self,
        ctx: &RequestContext,
        req: &Request,
        target: ObjectId,
        run: impl FnOnce(&Self) -> Result<Response>,
    ) -> Result<Response> {
        self.stats().requests(1);
        s4_obs::span::begin();
        let t_start = self.clock().now().as_micros();
        let touched = match req {
            Request::Write { data, .. } | Request::Append { data, .. } => data.len(),
            Request::Read { len, .. } => *len as usize,
            _ => 0,
        };
        self.clock().advance(self.config().cpu.op_cost(touched));

        // Objects pinned by an in-flight cross-shard transaction reject
        // outside mutations (abort compensation must be able to restore
        // the pre-transaction version without racing anyone). Reads stay
        // allowed. The refusal still flows through the audit path below.
        let locked = target.0 != 0 && req.mutates() && self.txn_lock_holder(target).is_some();
        let result = if locked {
            Err(S4Error::BadRequest(
                "object locked by an in-flight transaction",
            ))
        } else {
            run(self)
        };

        let (arg1, arg2) = req.audit_args();
        // A Create names its object only in the response; audit the
        // drive-assigned id so analysis can follow the object from birth.
        let object = match &result {
            Ok(Response::Created(oid)) => *oid,
            _ => target,
        };
        if result.is_err() {
            self.stats().denied(1);
        }
        // Close the span and record the request once: identity, trace
        // context and layer times (all simulated time, so the record is
        // deterministic and replayable), its times into the latency
        // histograms as well.
        let span = s4_obs::span::take();
        let us = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let rec = AuditRecord {
            time: self.now(),
            user: ctx.user,
            client: ctx.client,
            op: req.op_kind(),
            ok: result.is_ok(),
            object,
            arg1,
            arg2,
            trace: ctx.trace.of_request(),
            rpc_us: us(self.clock().now().as_micros() - t_start),
            journal_us: us(span[s4_obs::Layer::Journal as usize]),
            lfs_us: us(span[s4_obs::Layer::Lfs as usize]),
            disk_us: us(span[s4_obs::Layer::Disk as usize]),
        };
        self.record_latency(&rec);
        self.audit_append(&rec);
        result
    }

    /// Executes a batch: each sub-request is dispatched (and audited)
    /// individually; the first failure aborts the remainder and is
    /// reported as [`S4Error::BatchFailed`], naming the failing index so
    /// callers know exactly which prefix of the batch took effect.
    fn dispatch_batch(&self, ctx: &RequestContext, reqs: &[Request]) -> Result<Response> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut last_created: Option<ObjectId> = None;
        for (i, sub) in reqs.iter().enumerate() {
            let fail = |error: S4Error| S4Error::BatchFailed {
                completed: i as u32,
                failed_at: i as u32,
                error: Box::new(error),
            };
            if matches!(sub, Request::Batch(_)) {
                return Err(fail(S4Error::BadRequest("nested batch")));
            }
            let target = resolved_target(sub, last_created).map_err(fail)?;
            let resp = self
                .audited(ctx, sub, target, |drive| drive.execute(ctx, sub, target))
                .map_err(fail)?;
            if let Response::Created(oid) = &resp {
                last_created = Some(*oid);
            }
            out.push(resp);
        }
        Ok(Response::Batch(out))
    }

    /// Runs `req` against `oid`, which stands for the request's own
    /// object field ([`Request::target`], resolved).
    fn execute(&self, ctx: &RequestContext, req: &Request, oid: ObjectId) -> Result<Response> {
        match req {
            Request::Create => self.op_create(ctx, None).map(Response::Created),
            Request::Delete { .. } => self.op_delete(ctx, oid).map(|()| Response::Ok),
            Request::Read {
                offset, len, time, ..
            } => self
                .op_read(ctx, oid, *offset, *len, *time)
                .map(Response::Data),
            Request::Write { offset, data, .. } => self
                .op_write(ctx, oid, *offset, data)
                .map(|()| Response::Ok),
            Request::Append { data, .. } => self.op_append(ctx, oid, data).map(Response::NewSize),
            Request::Truncate { len, .. } => {
                self.op_truncate(ctx, oid, *len).map(|()| Response::Ok)
            }
            Request::GetAttr { time, .. } => self.op_getattr(ctx, oid, *time).map(Response::Attrs),
            Request::SetAttr { attrs, .. } => self
                .op_setattr(ctx, oid, attrs.clone())
                .map(|()| Response::Ok),
            Request::GetAclByUser { user, time, .. } => self
                .op_get_acl_by_user(ctx, oid, *user, *time)
                .map(Response::Acl),
            Request::GetAclByIndex { index, time, .. } => self
                .op_get_acl_by_index(ctx, oid, *index, *time)
                .map(Response::Acl),
            Request::SetAcl { entry, .. } => {
                self.op_set_acl(ctx, oid, *entry).map(|()| Response::Ok)
            }
            Request::PCreate { name, .. } => self.op_pcreate(ctx, name, oid).map(|()| Response::Ok),
            Request::PDelete { name } => self.op_pdelete(ctx, name).map(|()| Response::Ok),
            Request::PList { time } => self.op_plist(ctx, *time).map(Response::Partitions),
            Request::PMount { name, time } => {
                self.op_pmount(ctx, name, *time).map(Response::Mounted)
            }
            Request::Sync => self.op_sync(ctx).map(|()| Response::Ok),
            Request::Flush { from, to } => self.op_flush(ctx, *from, *to).map(|()| Response::Ok),
            Request::FlushO { from, to, .. } => {
                self.op_flusho(ctx, oid, *from, *to).map(|()| Response::Ok)
            }
            Request::SetWindow { window } => {
                self.op_set_window(ctx, *window).map(|()| Response::Ok)
            }
            Request::Batch(_) => Err(S4Error::BadRequest("batch inside execute")),
        }
    }

    /// Phase 1 of two-phase commit, participant side: opens transaction
    /// `txid`, executes `reqs` (each dispatched and audited exactly like
    /// a batch sub-request), and — on success — flushes the yes-vote
    /// with the precise touch scope. On any failure the partial effects
    /// are rolled back locally (scoped compensation) before the error
    /// propagates, so a refused prepare leaves no trace beyond audit
    /// records.
    ///
    /// A `Sync` among `reqs` is satisfied by the vote: its answer leaves
    /// the drive only with the prepare's, which follows the vote's
    /// flush of everything written so far, so it is audited and traced
    /// like any request but issues no log flush of its own.
    pub fn txn_prepare(
        &self,
        ctx: &RequestContext,
        txid: u64,
        reqs: &[Request],
    ) -> Result<Vec<Response>> {
        let t0 = self.clock().now();
        self.clock().advance(SimDuration::from_micros(1));
        self.txn_prepare_at(ctx, txid, t0, reqs)
    }

    /// [`txn_prepare`](Self::txn_prepare) with a caller-chosen restore
    /// point. Array workers pass the same `t0` to every mirror member
    /// (after advancing the shared clock past it exactly once) and hold
    /// each member [`at`](Self::at) `t0 + 1 µs` meanwhile, so the
    /// members re-execute the sub-batch with identical version stamps.
    pub fn txn_prepare_at(
        &self,
        ctx: &RequestContext,
        txid: u64,
        t0: SimTime,
        reqs: &[Request],
    ) -> Result<Vec<Response>> {
        self.txn_begin_at(txid, t0)?;
        let mut touched_oids: Vec<u64> = Vec::new();
        let mut touched_names: Vec<String> = Vec::new();
        let mut last_created: Option<ObjectId> = None;
        let result = (|| {
            let mut out = Vec::with_capacity(reqs.len());
            for sub in reqs {
                match sub {
                    Request::Batch(_) => {
                        return Err(S4Error::BadRequest("nested batch in transaction"))
                    }
                    // Compensation can re-add objects but cannot restore
                    // a name some *other* client removed concurrently,
                    // and admin retention ops are not undoable at all.
                    Request::PDelete { .. } => {
                        return Err(S4Error::BadRequest("pdelete inside a transaction"))
                    }
                    _ if sub.op_kind().is_admin() => {
                        return Err(S4Error::BadRequest("admin op inside a transaction"))
                    }
                    _ => {}
                }
                let target = resolved_target(sub, last_created)?;
                let resp = self.audited(ctx, sub, target, |drive| match sub {
                    Request::Sync => Ok(Response::Ok),
                    _ => drive.execute(ctx, sub, target),
                })?;
                if let Response::Created(oid) = &resp {
                    last_created = Some(*oid);
                    touched_oids.push(oid.0);
                } else if sub.mutates() {
                    match sub {
                        Request::PCreate { name, .. } => touched_names.push(name.clone()),
                        _ if target.0 != 0 => touched_oids.push(target.0),
                        _ => {}
                    }
                }
                out.push(resp);
            }
            Ok(out)
        })();
        touched_oids.sort_unstable();
        touched_oids.dedup();
        match result {
            Ok(out) => {
                self.txn_vote(txid, touched_oids, touched_names)?;
                Ok(out)
            }
            Err(e) => {
                // Record the partial scope, then abort it locally — the
                // coordinator will see the error and abort everywhere.
                self.txn_vote(txid, touched_oids, touched_names)?;
                self.txn_decide(txid, false)?;
                Err(e)
            }
        }
    }
}

/// The object a batch's sub-request `req` acts on: its target, with
/// [`LAST_CREATED`] standing for `last`.
fn resolved_target(req: &Request, last: Option<ObjectId>) -> Result<ObjectId> {
    match req.target() {
        LAST_CREATED => last.ok_or(S4Error::BadRequest("LAST_CREATED before any Create")),
        target => Ok(target),
    }
}

// ----------------------------------------------------------------------
// Wire codec (hand-rolled: the wire format should be byte-stable).
// ----------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The wire tag of a [`Request::Batch`]. Every other request is tagged
/// with its [`OpKind`] code, the byte its audit record carries.
const BATCH_TAG: u8 = 0x80;

impl Request {
    /// Serializes the request for a transport: its tag, then its fields.
    pub fn encode(&self) -> Vec<u8> {
        let tag = match self {
            Request::Batch(_) => BATCH_TAG,
            _ => self.op_kind() as u8,
        };
        let mut out = vec![tag];
        match self {
            Request::Create | Request::Sync => {}
            Request::Delete { oid } => put_u64(&mut out, oid.0),
            Request::Read {
                oid,
                offset,
                len,
                time,
            } => {
                put_u64(&mut out, oid.0);
                put_u64(&mut out, *offset);
                put_u64(&mut out, *len);
                push_time_opt(&mut out, *time);
            }
            Request::Write { oid, offset, data } => {
                put_u64(&mut out, oid.0);
                put_u64(&mut out, *offset);
                push_bytes(&mut out, data);
            }
            Request::Append { oid, data } => {
                put_u64(&mut out, oid.0);
                push_bytes(&mut out, data);
            }
            Request::Truncate { oid, len } => {
                put_u64(&mut out, oid.0);
                put_u64(&mut out, *len);
            }
            Request::GetAttr { oid, time } => {
                put_u64(&mut out, oid.0);
                push_time_opt(&mut out, *time);
            }
            Request::SetAttr { oid, attrs } => {
                put_u64(&mut out, oid.0);
                push_bytes(&mut out, attrs);
            }
            Request::GetAclByUser { oid, user, time } => {
                put_u64(&mut out, oid.0);
                put_u32(&mut out, user.0);
                push_time_opt(&mut out, *time);
            }
            Request::GetAclByIndex { oid, index, time } => {
                put_u64(&mut out, oid.0);
                put_u32(&mut out, *index);
                push_time_opt(&mut out, *time);
            }
            Request::SetAcl { oid, entry } => {
                put_u64(&mut out, oid.0);
                entry.encode_into(&mut out);
            }
            Request::PCreate { name, oid } => {
                push_bytes(&mut out, name.as_bytes());
                put_u64(&mut out, oid.0);
            }
            Request::PDelete { name } => push_bytes(&mut out, name.as_bytes()),
            Request::PList { time } => push_time_opt(&mut out, *time),
            Request::PMount { name, time } => {
                push_bytes(&mut out, name.as_bytes());
                push_time_opt(&mut out, *time);
            }
            Request::Flush { from, to } => {
                put_u64(&mut out, from.as_micros());
                put_u64(&mut out, to.as_micros());
            }
            Request::FlushO { oid, from, to } => {
                put_u64(&mut out, oid.0);
                put_u64(&mut out, from.as_micros());
                put_u64(&mut out, to.as_micros());
            }
            Request::SetWindow { window } => put_u64(&mut out, window.as_micros()),
            Request::Batch(reqs) => {
                put_u32(&mut out, reqs.len() as u32);
                for r in reqs {
                    push_bytes(&mut out, &r.encode());
                }
            }
        }
        out
    }

    /// Deserializes a request from a transport.
    pub fn decode(buf: &[u8]) -> Result<Request> {
        let mut r = Reader::new(buf, "wire truncated");
        let tag = r.u8()?;
        if tag == BATCH_TAG {
            let n = r.count(5)?; // a sub-request is at least its length and tag
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                let decoded = Request::decode(r.bytes()?)?;
                if matches!(decoded, Request::Batch(_)) {
                    return Err(S4Error::BadRequest("nested batch"));
                }
                reqs.push(decoded);
            }
            return Ok(Request::Batch(reqs));
        }
        let kind = OpKind::from_u8(tag).map_err(|_| S4Error::BadRequest("unknown request tag"))?;
        Ok(match kind {
            OpKind::Create => Request::Create,
            OpKind::Delete => Request::Delete {
                oid: ObjectId(r.u64()?),
            },
            OpKind::Read => Request::Read {
                oid: ObjectId(r.u64()?),
                offset: r.u64()?,
                len: r.u64()?,
                time: r.time_opt()?,
            },
            OpKind::Write => Request::Write {
                oid: ObjectId(r.u64()?),
                offset: r.u64()?,
                data: r.bytes()?.to_vec(),
            },
            OpKind::Append => Request::Append {
                oid: ObjectId(r.u64()?),
                data: r.bytes()?.to_vec(),
            },
            OpKind::Truncate => Request::Truncate {
                oid: ObjectId(r.u64()?),
                len: r.u64()?,
            },
            OpKind::GetAttr => Request::GetAttr {
                oid: ObjectId(r.u64()?),
                time: r.time_opt()?,
            },
            OpKind::SetAttr => Request::SetAttr {
                oid: ObjectId(r.u64()?),
                attrs: r.bytes()?.to_vec(),
            },
            OpKind::GetAclByUser => Request::GetAclByUser {
                oid: ObjectId(r.u64()?),
                user: UserId(r.u32()?),
                time: r.time_opt()?,
            },
            OpKind::GetAclByIndex => Request::GetAclByIndex {
                oid: ObjectId(r.u64()?),
                index: r.u32()?,
                time: r.time_opt()?,
            },
            OpKind::SetAcl => Request::SetAcl {
                oid: ObjectId(r.u64()?),
                entry: AclEntry::decode(&mut r)?,
            },
            OpKind::PCreate => Request::PCreate {
                name: r.string()?,
                oid: ObjectId(r.u64()?),
            },
            OpKind::PDelete => Request::PDelete { name: r.string()? },
            OpKind::PList => Request::PList {
                time: r.time_opt()?,
            },
            OpKind::PMount => Request::PMount {
                name: r.string()?,
                time: r.time_opt()?,
            },
            OpKind::Sync => Request::Sync,
            OpKind::Flush => Request::Flush {
                from: SimTime::from_micros(r.u64()?),
                to: SimTime::from_micros(r.u64()?),
            },
            OpKind::FlushO => Request::FlushO {
                oid: ObjectId(r.u64()?),
                from: SimTime::from_micros(r.u64()?),
                to: SimTime::from_micros(r.u64()?),
            },
            OpKind::SetWindow => Request::SetWindow {
                window: SimDuration::from_micros(r.u64()?),
            },
        })
    }
}

impl Response {
    /// Serializes the response for a transport.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Created(oid) => {
                out.push(1);
                put_u64(&mut out, oid.0);
            }
            Response::Ok => out.push(2),
            Response::Data(d) => {
                out.push(3);
                push_bytes(&mut out, d);
            }
            Response::NewSize(s) => {
                out.push(4);
                put_u64(&mut out, *s);
            }
            Response::Attrs(a) => {
                out.push(5);
                put_u64(&mut out, a.size);
                put_u64(&mut out, a.created.as_micros());
                put_u64(&mut out, a.modified.as_micros());
                push_time_opt(&mut out, a.deleted);
                push_bytes(&mut out, &a.opaque);
            }
            Response::Acl(e) => {
                out.push(6);
                match e {
                    Some(e) => {
                        out.push(1);
                        e.encode_into(&mut out);
                    }
                    None => out.push(0),
                }
            }
            Response::Partitions(p) => {
                out.push(7);
                put_u32(&mut out, p.len() as u32);
                for (name, oid) in p {
                    push_bytes(&mut out, name.as_bytes());
                    put_u64(&mut out, oid.0);
                }
            }
            Response::Mounted(oid) => {
                out.push(8);
                put_u64(&mut out, oid.0);
            }
            Response::Batch(rs) => {
                out.push(9);
                put_u32(&mut out, rs.len() as u32);
                for r in rs {
                    push_bytes(&mut out, &r.encode());
                }
            }
        }
        out
    }

    /// Deserializes a response from a transport.
    pub fn decode(buf: &[u8]) -> Result<Response> {
        let mut r = Reader::new(buf, "wire truncated");
        Ok(match r.u8()? {
            1 => Response::Created(ObjectId(r.u64()?)),
            2 => Response::Ok,
            3 => Response::Data(r.bytes()?.to_vec()),
            4 => Response::NewSize(r.u64()?),
            5 => {
                let size = r.u64()?;
                let created = SimTime::from_micros(r.u64()?);
                let modified = SimTime::from_micros(r.u64()?);
                let deleted = r.time_opt()?;
                let opaque = r.bytes()?.to_vec();
                Response::Attrs(ObjectAttrs {
                    size,
                    created,
                    modified,
                    deleted,
                    opaque,
                })
            }
            6 => Response::Acl(match r.u8()? {
                0 => None,
                _ => Some(AclEntry::decode(&mut r)?),
            }),
            7 => {
                let n = r.count(12)?; // an entry is at least a name length and an oid
                let mut p = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.string()?;
                    p.push((name, ObjectId(r.u64()?)));
                }
                Response::Partitions(p)
            }
            8 => Response::Mounted(ObjectId(r.u64()?)),
            9 => {
                let n = r.count(5)?;
                let mut rs = Vec::with_capacity(n);
                for _ in 0..n {
                    rs.push(Response::decode(r.bytes()?)?);
                }
                Response::Batch(rs)
            }
            _ => return Err(S4Error::BadRequest("unknown response tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Perm;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Create,
            Request::Delete { oid: ObjectId(3) },
            Request::Read {
                oid: ObjectId(3),
                offset: 100,
                len: 200,
                time: Some(SimTime::from_secs(9)),
            },
            Request::Write {
                oid: ObjectId(3),
                offset: 0,
                data: vec![1, 2, 3],
            },
            Request::Append {
                oid: ObjectId(3),
                data: vec![4, 5],
            },
            Request::Truncate {
                oid: ObjectId(3),
                len: 1,
            },
            Request::GetAttr {
                oid: ObjectId(3),
                time: None,
            },
            Request::SetAttr {
                oid: ObjectId(3),
                attrs: vec![9],
            },
            Request::GetAclByUser {
                oid: ObjectId(3),
                user: UserId(5),
                time: None,
            },
            Request::GetAclByIndex {
                oid: ObjectId(3),
                index: 1,
                time: Some(SimTime::from_secs(1)),
            },
            Request::SetAcl {
                oid: ObjectId(3),
                entry: AclEntry {
                    user: UserId(5),
                    perm: Perm::READ,
                },
            },
            Request::PCreate {
                name: "root".into(),
                oid: ObjectId(3),
            },
            Request::PDelete {
                name: "root".into(),
            },
            Request::PList { time: None },
            Request::PMount {
                name: "root".into(),
                time: Some(SimTime::from_secs(2)),
            },
            Request::Sync,
            Request::Flush {
                from: SimTime::from_secs(1),
                to: SimTime::from_secs(2),
            },
            Request::FlushO {
                oid: ObjectId(3),
                from: SimTime::from_secs(1),
                to: SimTime::from_secs(2),
            },
            Request::SetWindow {
                window: SimDuration::from_days(7),
            },
        ]
    }

    #[test]
    fn request_codec_round_trips_every_variant() {
        for req in all_requests() {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_codec_round_trips_every_variant() {
        let responses = vec![
            Response::Created(ObjectId(7)),
            Response::Ok,
            Response::Data(vec![1, 2, 3]),
            Response::NewSize(4096),
            Response::Attrs(ObjectAttrs {
                size: 10,
                created: SimTime::from_secs(1),
                modified: SimTime::from_secs(2),
                deleted: Some(SimTime::from_secs(3)),
                opaque: vec![5, 6],
            }),
            Response::Acl(Some(AclEntry {
                user: UserId(9),
                perm: Perm::ALL,
            })),
            Response::Acl(None),
            Response::Partitions(vec![("root".into(), ObjectId(3))]),
            Response::Mounted(ObjectId(3)),
        ];
        for resp in responses {
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0]).is_err());
        assert!(Request::decode(&[22]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[0]).is_err());
        // Truncated payloads error instead of panicking.
        for req in all_requests() {
            let enc = req.encode();
            for cut in 0..enc.len() {
                let _ = Request::decode(&enc[..cut]);
            }
        }
    }

    #[test]
    fn table1_coverage() {
        // The 19 operations of Table 1, one request each, each tagged
        // on the wire with its kind's code.
        let requests = all_requests();
        assert_eq!(requests.len(), OpKind::ALL.len());
        for kind in OpKind::ALL {
            let req = requests.iter().find(|r| r.op_kind() == kind).unwrap();
            let wire = req.encode();
            assert_eq!(wire[0], kind as u8, "{kind:?}");
            assert_eq!(Request::decode(&wire).unwrap().op_kind(), kind);
        }
    }

    #[test]
    fn wire_tags_are_pinned() {
        // Renumbering a request is a deliberate edit of these bytes: a
        // client and a server built on either side of it cannot talk.
        let window = Request::SetWindow {
            window: SimDuration::from_micros(1),
        };
        assert_eq!(window.encode(), [19, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert!(Request::decode(&[20]).is_err(), "20 is no request");
        let batch = Request::Batch(vec![Request::Sync]);
        // Tag, one sub-request, its length, its tag (Sync = 16).
        assert_eq!(batch.encode(), [0x80, 1, 0, 0, 0, 1, 0, 0, 0, 16]);
        assert_eq!(Request::decode(&batch.encode()).unwrap(), batch);
    }
}

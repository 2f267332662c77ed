//! Cross-shard atomic batches (two-phase commit, DESIGN §6i): live
//! commit across shards and mirrors, live abort rollback on a
//! participant failure, outcome metrics, and the in-doubt reporting
//! contract when a shard worker panics mid-batch and the extent of its
//! progress is lost.

use s4_array::{ArrayConfig, BatchOutcome, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::LAST_CREATED;
use s4_core::{
    AuditObserver, AuditRecord, ClientId, DriveConfig, ObjectId, OpKind, Request, RequestContext,
    Response, S4Error, UserId,
};
use s4_simdisk::MemDisk;

fn user() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

fn admin() -> RequestContext {
    RequestContext::admin(ClientId(0), 42)
}

fn array(shards: usize, mirrors: usize) -> (S4Array<MemDisk>, SimClock) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..shards * mirrors)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        ArrayConfig {
            mirrors,
            ..ArrayConfig::default()
        },
        clock.clone(),
    )
    .unwrap();
    (a, clock)
}

fn create(a: &S4Array<MemDisk>, ctx: &RequestContext) -> ObjectId {
    match a.dispatch(ctx, &Request::Create).unwrap() {
        Response::Created(oid) => oid,
        other => panic!("unexpected response {other:?}"),
    }
}

/// Creates until one object lands in each residue class of a 2-shard
/// array.
fn one_per_shard(a: &S4Array<MemDisk>, ctx: &RequestContext) -> (ObjectId, ObjectId) {
    let (mut even, mut odd) = (None, None);
    while even.is_none() || odd.is_none() {
        let oid = create(a, ctx);
        if oid.0.is_multiple_of(2) {
            even.get_or_insert(oid);
        } else {
            odd.get_or_insert(oid);
        }
    }
    (even.unwrap(), odd.unwrap())
}

fn read(a: &S4Array<MemDisk>, ctx: &RequestContext, oid: ObjectId, len: u64) -> Vec<u8> {
    match a
        .dispatch(
            ctx,
            &Request::Read {
                oid,
                offset: 0,
                len,
                time: None,
            },
        )
        .unwrap()
    {
        Response::Data(d) => d,
        other => panic!("unexpected response {other:?}"),
    }
}

fn write_req(oid: ObjectId, data: &[u8]) -> Request {
    Request::Write {
        oid,
        offset: 0,
        data: data.to_vec(),
    }
}

/// Every in-sync mirror pair must agree (objects and the replicated
/// streams); the message names the first difference.
fn assert_mirrors_converged(a: &S4Array<MemDisk>) {
    a.check_mirrors(&admin()).unwrap();
}

#[test]
fn cross_shard_commit_lands_every_sub_request_and_mirrors_agree() {
    let (a, _clock) = array(2, 2);
    let ctx = user();
    let (even, odd) = one_per_shard(&a, &ctx);

    // Spans both shards and exercises the LAST_CREATED placeholder
    // inside a transactional sub-batch.
    let reqs = vec![
        write_req(even, b"left"),
        write_req(odd, b"right"),
        Request::Create,
        Request::Write {
            oid: LAST_CREATED,
            offset: 0,
            data: b"fresh".to_vec(),
        },
        Request::Sync,
    ];
    let resp = a.dispatch(&ctx, &Request::Batch(reqs)).unwrap();
    let rs = match resp {
        Response::Batch(rs) => rs,
        other => panic!("unexpected response {other:?}"),
    };
    assert_eq!(rs.len(), 5, "every slot answered");
    let fresh = match &rs[2] {
        Response::Created(oid) => *oid,
        other => panic!("unexpected response {other:?}"),
    };

    // Before any read-path traffic (reads audit only on the first
    // member): the transactional mutations left every mirror
    // byte-identical, audit records included — one pinned t0 per shard.
    assert_mirrors_converged(&a);

    assert_eq!(read(&a, &ctx, even, 4), b"left");
    assert_eq!(read(&a, &ctx, odd, 5), b"right");
    assert_eq!(read(&a, &ctx, fresh, 5), b"fresh");
    assert!(
        a.txn_status_text().starts_with("committed=1 aborted=0"),
        "status: {}",
        a.txn_status_text()
    );
    // The decision note was retired after the full fan-out: the
    // reserved transaction namespace is empty again.
    let notes = match a
        .dispatch(&admin(), &Request::PList { time: None })
        .unwrap()
    {
        Response::Partitions(ps) => ps
            .into_iter()
            .filter(|(n, _)| n.starts_with("__s4/txn/"))
            .count(),
        other => panic!("unexpected response {other:?}"),
    };
    assert_eq!(notes, 0, "retired decision notes");
}

/// Two-phase commit is for batches that *write* two shards. A batched
/// `Sync` reaches every shard, but syncing a shard nothing was written
/// to needs no vote: the NFS translator ends every op's batch with one
/// (§4.1.2), and an op whose file and directory share a shard must cost
/// one log flush, not a transaction.
#[test]
fn a_batch_that_writes_one_shard_and_syncs_is_not_a_transaction() {
    let (a, _clock) = array(2, 2);
    let ctx = user();
    let (dir, odd) = one_per_shard(&a, &ctx);
    let fresh = |class: u64| loop {
        let oid = create(&a, &ctx);
        if oid.0 % 2 == class {
            break oid;
        }
    };
    let (near, near2, far2) = (fresh(0), fresh(0), fresh(1));

    // The translator's shapes for a file `x` in directory `dir`:
    // setattr-after-create and remove.
    let set_attr = |x| {
        let attrs = vec![7; 8];
        vec![
            Request::SetAttr { oid: x, attrs },
            write_req(dir, b"entry"),
            Request::Sync,
        ]
    };
    let remove = |x| {
        vec![
            Request::Delete { oid: x },
            write_req(dir, b"gone"),
            Request::Truncate { oid: dir, len: 2 },
            Request::Sync,
        ]
    };
    let run = |reqs: Vec<Request>, committed: u32| {
        let what = format!("{reqs:?}");
        let resp = a.dispatch(&ctx, &Request::Batch(reqs.clone())).unwrap();
        let Response::Batch(rs) = resp else {
            panic!("{what}: unexpected response {resp:?}");
        };
        assert_eq!(rs.len(), reqs.len(), "{what}: every slot answered once");
        assert_eq!(rs.last(), Some(&Response::Ok), "{what}: the Sync slot");
        let status = a.txn_status_text();
        assert!(
            status.starts_with(&format!("committed={committed} aborted=0 ")),
            "{what}: {status}"
        );
        assert_mirrors_converged(&a);
    };

    // One writer: the plain path, whatever the Sync fans out to.
    run(vec![write_req(dir, b"plain"), Request::Sync], 0);
    run(set_attr(near), 0);
    run(remove(near2), 0);
    // Two writers: exactly one transaction each.
    run(set_attr(odd), 1);
    run(remove(far2), 2);
    assert_eq!(read(&a, &ctx, dir, 8), b"go");
}

/// The participants of a transaction are its writers. A shard the
/// batch only reads or syncs casts no vote: it runs its sub-batch once
/// the transaction has committed — the client's `Sync` is still audited
/// on every shard it reached — and not at all after an abort.
#[test]
fn only_writers_vote_and_the_other_shards_follow_the_decision() {
    let (a, _clock) = array(3, 2);
    let ctx = user();
    let mut oids = [None; 3];
    while oids.iter().any(Option::is_none) {
        let oid = create(&a, &ctx);
        oids[a.shard_index_of(oid)].get_or_insert(oid);
    }
    let [x, y, z] = oids.map(Option::unwrap);
    let syncs_on = |shard: usize| {
        let audit = a.member_drive(shard, 1).read_audit_records(&admin());
        let by_client = |r: &&AuditRecord| r.op == OpKind::Sync && r.client == ctx.client;
        audit.unwrap().iter().filter(by_client).count()
    };
    let batch = |first: &[u8], second: ObjectId| {
        let peek = Request::GetAttr { oid: z, time: None };
        let reqs = vec![
            write_req(x, first),
            write_req(second, b"two"),
            peek,
            Request::Sync,
        ];
        a.dispatch(&ctx, &Request::Batch(reqs))
    };

    let Response::Batch(rs) = batch(b"one", y).unwrap() else {
        panic!("a batch answers with a batch");
    };
    assert!(
        matches!(rs[2], Response::Attrs(_)),
        "the bystander's read: {:?}",
        rs[2]
    );
    assert_eq!(rs[3], Response::Ok, "one answer for the Sync slot");
    assert!(a.txn_status_text().starts_with("committed=1 aborted=0 "));
    assert_eq!(
        [0, 1, 2].map(syncs_on),
        [1, 1, 1],
        "audited where it reached"
    );
    assert_mirrors_converged(&a);

    // The same with a write that shard 1 refuses: rolled back on shard
    // 0, and shard 2 never hears of the batch.
    let missing = ObjectId(y.0 + 3000);
    let Err(S4Error::BatchFailed { completed, .. }) = batch(b"ONE", missing) else {
        panic!("a refused prepare fails the batch");
    };
    assert_eq!(completed, 0, "the rollback undid every shard");
    assert!(a.txn_status_text().starts_with("committed=1 aborted=1 "));
    assert_eq!(read(&a, &ctx, x, 3), b"one");
    assert_eq!(syncs_on(2), 1, "nothing ran on the bystander");
    assert_mirrors_converged(&a);
}

/// An audit observer that panics on every record — stands in for a
/// buggy detection rule wedging one member's dispatch path.
struct PanickingObserver;

impl AuditObserver for PanickingObserver {
    fn on_record(&mut self, _rec: &AuditRecord) -> Vec<AuditRecord> {
        panic!("detector bug");
    }
}

#[test]
fn participant_panic_mid_prepare_aborts_and_rolls_back_the_other_shard() {
    let (a, _clock) = array(2, 1);
    let ctx = user();
    let (even, odd) = one_per_shard(&a, &ctx);

    // Shard 1's only member wedges on its next audited mutation, i.e.
    // during its prepare.
    a.member_drive(1, 0)
        .register_audit_observer(Box::new(PanickingObserver));

    let reqs = vec![write_req(even, b"left"), write_req(odd, b"right")];
    let (slots, outcomes) = a.dispatch_batch_outcomes(&ctx, &reqs).unwrap();
    assert!(slots.iter().all(Option::is_none), "no partial responses");
    assert_eq!(outcomes.len(), 1);
    let o = &outcomes[0];
    assert_eq!(o.shard, 1);
    assert_eq!(o.completed, 0);
    assert!(
        !o.in_doubt,
        "a refused prepare was rolled back everywhere, not in doubt"
    );

    // Shard 0 prepared first and was compensated on abort.
    assert_eq!(read(&a, &ctx, even, 4), b"", "shard 0 write rolled back");
    assert!(
        a.txn_status_text().starts_with("committed=0 aborted=1"),
        "status: {}",
        a.txn_status_text()
    );
    // Nothing left in doubt on the survivor.
    assert!(a.member_drive(0, 0).txn_in_doubt().is_empty());
}

#[test]
fn worker_panic_mid_single_shard_batch_reports_in_doubt() {
    let (a, _clock) = array(2, 1);
    let ctx = user();
    let (even, _odd) = one_per_shard(&a, &ctx);
    let even2 = loop {
        let oid = create(&a, &ctx);
        if oid.0.is_multiple_of(2) {
            break oid;
        }
    };

    a.member_drive(0, 0)
        .register_audit_observer(Box::new(PanickingObserver));

    // Single-shard mutating batch: no two-phase commit, the worker
    // panics mid-sub-batch and its progress extent dies with it.
    let reqs = vec![write_req(even, b"one"), write_req(even2, b"two")];
    let (slots, outcomes) = a.dispatch_batch_outcomes(&ctx, &reqs).unwrap();
    assert!(slots.iter().all(Option::is_none));
    assert_eq!(
        outcomes,
        vec![BatchOutcome {
            shard: 0,
            completed: 0,
            failed_at: 0,
            error: S4Error::BadRequest("array member panicked during dispatch"),
            in_doubt: true,
        }]
    );
}

#[test]
fn ordinary_batch_failure_is_not_in_doubt() {
    let (a, _clock) = array(2, 1);
    let ctx = user();
    let (even, _odd) = one_per_shard(&a, &ctx);
    // A missing even id: same shard as `even`, fails mid-sub-batch with
    // full partial-progress information from the drive.
    let missing = ObjectId(even.0 + 1000);
    let reqs = vec![write_req(even, b"ok"), write_req(missing, b"ghost")];
    let (_slots, outcomes) = a.dispatch_batch_outcomes(&ctx, &reqs).unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].error, S4Error::NoSuchObject);
    assert!(
        !outcomes[0].in_doubt,
        "a drive-reported batch failure carries exact progress"
    );
}

//! Batched RPC semantics (§4.1.2): ordering, the LAST_CREATED
//! placeholder, per-sub-request auditing, and failure behavior.

use s4_clock::{SimClock, SimDuration};
use s4_core::LAST_CREATED;
use s4_core::{
    ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive, S4Error, UserId,
};
use s4_simdisk::MemDisk;

fn drive() -> S4Drive<MemDisk> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock,
    )
    .unwrap()
}

#[test]
fn create_setattr_write_sync_in_one_round_trip() {
    let d = drive();
    let ctx = RequestContext::user(UserId(1), ClientId(1));
    let resp = d
        .dispatch(
            &ctx,
            &Request::Batch(vec![
                Request::Create,
                Request::SetAttr {
                    oid: LAST_CREATED,
                    attrs: vec![1, 2, 3],
                },
                Request::Write {
                    oid: LAST_CREATED,
                    offset: 0,
                    data: b"batched payload".to_vec(),
                },
                Request::Sync,
            ]),
        )
        .unwrap();
    let Response::Batch(rs) = resp else {
        panic!("expected batch response");
    };
    assert_eq!(rs.len(), 4);
    let Response::Created(oid) = rs[0] else {
        panic!("first sub-response must be Created");
    };
    // Effects landed.
    let attrs = d.op_getattr(&ctx, oid, None).unwrap();
    assert_eq!(attrs.opaque, vec![1, 2, 3]);
    assert_eq!(
        d.op_read(&ctx, oid, 0, 64, None).unwrap(),
        b"batched payload"
    );
    // Each sub-request was audited individually.
    let admin = RequestContext::admin(ClientId(0), 42);
    let records = d.read_audit_records(&admin).unwrap();
    assert!(records.len() >= 4);
}

#[test]
fn failure_aborts_the_rest_but_keeps_earlier_effects() {
    let d = drive();
    let ctx = RequestContext::user(UserId(1), ClientId(1));
    let oid = d.op_create(&ctx, None).unwrap();
    let err = d
        .dispatch(
            &ctx,
            &Request::Batch(vec![
                Request::Write {
                    oid,
                    offset: 0,
                    data: b"applied".to_vec(),
                },
                Request::Read {
                    oid: ObjectId(999_999),
                    offset: 0,
                    len: 1,
                    time: None,
                }, // fails
                Request::Truncate { oid, len: 0 }, // must not run
            ]),
        )
        .unwrap_err();
    // The error names the failing index and how much of the batch ran.
    assert_eq!(
        err,
        S4Error::BatchFailed {
            completed: 1,
            failed_at: 1,
            error: Box::new(S4Error::NoSuchObject),
        }
    );
    // The first write stuck; the truncate never ran.
    assert_eq!(d.op_read(&ctx, oid, 0, 16, None).unwrap(), b"applied");
}

#[test]
fn placeholder_without_create_and_nesting_are_rejected() {
    let d = drive();
    let ctx = RequestContext::user(UserId(1), ClientId(1));
    assert!(matches!(
        d.dispatch(
            &ctx,
            &Request::Batch(vec![Request::GetAttr {
                oid: LAST_CREATED,
                time: None
            }])
        ),
        Err(S4Error::BatchFailed { failed_at: 0, error, .. })
            if matches!(*error, S4Error::BadRequest(_))
    ));
    assert!(matches!(
        d.dispatch(
            &ctx,
            &Request::Batch(vec![Request::Batch(vec![Request::Sync])])
        ),
        Err(S4Error::BatchFailed { failed_at: 0, error, .. })
            if matches!(*error, S4Error::BadRequest(_))
    ));
}

#[test]
fn batch_wire_codec_round_trips() {
    let req = Request::Batch(vec![
        Request::Create,
        Request::Write {
            oid: LAST_CREATED,
            offset: 8,
            data: vec![9; 100],
        },
        Request::Sync,
    ]);
    assert_eq!(Request::decode(&req.encode()).unwrap(), req);

    let resp = Response::Batch(vec![
        Response::Created(ObjectId(5)),
        Response::Ok,
        Response::Ok,
    ]);
    assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

    // Nested batches rejected at decode time too.
    let nested = Request::Batch(vec![Request::Batch(vec![Request::Sync])]);
    assert!(Request::decode(&nested.encode()).is_err());
}

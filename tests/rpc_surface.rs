//! Table 1 surface test: every RPC of the paper's interface is
//! dispatchable, audited, and behaves per its row (including which
//! operations accept time-based access).

use std::sync::Arc;

use s4_array::{ArrayConfig, ArrayTransport, S4Array};
use s4_clock::{NetworkModel, SimClock, SimDuration, SimTime};
use s4_core::{
    AclEntry, ClientId, DriveConfig, ObjectId, OpKind, Perm, Request, RequestContext, Response,
    S4Drive, UserId,
};
use s4_fs::server::FsError;
use s4_fs::{LoopbackTransport, TcpServerHandle, TcpTransport, Transport};
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
fn every_table1_rpc_dispatches() {
    let d = drive();
    let user = RequestContext::user(UserId(1), ClientId(1));
    let admin = RequestContext::admin(ClientId(0), 42);

    // Create
    let oid = match d.dispatch(&user, &Request::Create).unwrap() {
        Response::Created(oid) => oid,
        r => panic!("{r:?}"),
    };
    // Write / Append / Truncate
    d.dispatch(
        &user,
        &Request::Write {
            oid,
            offset: 0,
            data: b"0123456789".to_vec(),
        },
    )
    .unwrap();
    let t1 = d.now();
    d.clock().advance(SimDuration::from_millis(10));
    match d
        .dispatch(
            &user,
            &Request::Append {
                oid,
                data: b"ABC".to_vec(),
            },
        )
        .unwrap()
    {
        Response::NewSize(13) => {}
        r => panic!("{r:?}"),
    }
    d.dispatch(&user, &Request::Truncate { oid, len: 5 })
        .unwrap();
    // Sync
    d.dispatch(&user, &Request::Sync).unwrap();

    // Read with and without time.
    match d
        .dispatch(
            &user,
            &Request::Read {
                oid,
                offset: 0,
                len: 100,
                time: None,
            },
        )
        .unwrap()
    {
        Response::Data(data) => assert_eq!(data, b"01234"),
        r => panic!("{r:?}"),
    }
    match d
        .dispatch(
            &user,
            &Request::Read {
                oid,
                offset: 0,
                len: 100,
                time: Some(t1),
            },
        )
        .unwrap()
    {
        Response::Data(data) => assert_eq!(data, b"0123456789"),
        r => panic!("{r:?}"),
    }

    // GetAttr / SetAttr
    d.dispatch(
        &user,
        &Request::SetAttr {
            oid,
            attrs: vec![7, 7],
        },
    )
    .unwrap();
    match d
        .dispatch(&user, &Request::GetAttr { oid, time: None })
        .unwrap()
    {
        Response::Attrs(a) => {
            assert_eq!(a.size, 5);
            assert_eq!(a.opaque, vec![7, 7]);
        }
        r => panic!("{r:?}"),
    }
    match d
        .dispatch(
            &user,
            &Request::GetAttr {
                oid,
                time: Some(t1),
            },
        )
        .unwrap()
    {
        Response::Attrs(a) => assert_eq!(a.size, 10),
        r => panic!("{r:?}"),
    }

    // ACL family.
    d.dispatch(
        &user,
        &Request::SetAcl {
            oid,
            entry: AclEntry {
                user: UserId(2),
                perm: Perm::READ,
            },
        },
    )
    .unwrap();
    match d
        .dispatch(
            &user,
            &Request::GetAclByUser {
                oid,
                user: UserId(2),
                time: None,
            },
        )
        .unwrap()
    {
        Response::Acl(Some(e)) => assert!(e.perm.includes(Perm::READ)),
        r => panic!("{r:?}"),
    }
    match d
        .dispatch(
            &user,
            &Request::GetAclByIndex {
                oid,
                index: 0,
                time: None,
            },
        )
        .unwrap()
    {
        Response::Acl(Some(e)) => assert_eq!(e.user, UserId(1)),
        r => panic!("{r:?}"),
    }

    // Partition family (with time-based PList/PMount).
    d.dispatch(
        &user,
        &Request::PCreate {
            name: "data".into(),
            oid,
        },
    )
    .unwrap();
    let t2 = d.now();
    d.clock().advance(SimDuration::from_millis(10));
    d.dispatch(
        &user,
        &Request::PDelete {
            name: "data".into(),
        },
    )
    .unwrap();
    match d.dispatch(&user, &Request::PList { time: None }).unwrap() {
        Response::Partitions(p) => assert!(p.is_empty()),
        r => panic!("{r:?}"),
    }
    match d
        .dispatch(&user, &Request::PList { time: Some(t2) })
        .unwrap()
    {
        Response::Partitions(p) => assert_eq!(p.len(), 1),
        r => panic!("{r:?}"),
    }
    match d
        .dispatch(
            &user,
            &Request::PMount {
                name: "data".into(),
                time: Some(t2),
            },
        )
        .unwrap()
    {
        Response::Mounted(m) => assert_eq!(m, oid),
        r => panic!("{r:?}"),
    }

    // Administrative trio: denied for users, allowed with the token.
    for req in [
        Request::SetWindow {
            window: SimDuration::from_days(3),
        },
        Request::Flush {
            from: SimTime::ZERO,
            to: SimTime::from_micros(1),
        },
        Request::FlushO {
            oid,
            from: SimTime::ZERO,
            to: SimTime::from_micros(1),
        },
    ] {
        assert!(
            d.dispatch(&user, &req).is_err(),
            "{req:?} must be admin-only"
        );
        d.dispatch(&admin, &req).unwrap();
    }
    // Delete last.
    d.dispatch(&user, &Request::Delete { oid }).unwrap();

    // Everything above is in the audit log, including the denied admin
    // attempts.
    let records = d.read_audit_records(&admin).unwrap();
    assert!(records.len() >= 20);
    let denied = records.iter().filter(|r| !r.ok).count();
    assert!(denied >= 3, "denied admin attempts audited");
    // All 19 op kinds appear.
    let mut kinds: Vec<u8> = records.iter().map(|r| r.op as u8).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 19, "all Table 1 operations audited");
    let _ = OpKind::Create; // type reachable from the umbrella test
    let _ = ObjectId(0);
}

/// One object owned by user 1, then one failing request per error
/// kind; returns what the transport made of each.
fn failures<T: Transport>(t: &T) -> Vec<FsError> {
    let owner = RequestContext::user(UserId(1), ClientId(1));
    let stranger = RequestContext::user(UserId(2), ClientId(2));
    let oid = match t.call(&owner, &Request::Create).unwrap() {
        Response::Created(oid) => oid,
        r => panic!("{r:?}"),
    };
    let write = Request::Write {
        oid,
        offset: 0,
        data: b"mine".to_vec(),
    };
    t.call(&owner, &write).unwrap();
    [
        // The translator's shape: a mutation batched with its Sync.
        (&stranger, Request::Batch(vec![write, Request::Sync])),
        (
            &owner,
            Request::Batch(vec![Request::GetAttr {
                oid: ObjectId(oid.0 + 1000),
                time: None,
            }]),
        ),
        (
            &owner,
            Request::PMount {
                name: "nowhere".into(),
                time: None,
            },
        ),
        (
            &owner,
            Request::PCreate {
                name: String::new(),
                oid,
            },
        ),
    ]
    .into_iter()
    .map(|(ctx, req)| t.call(ctx, &req).unwrap_err())
    .collect()
}

/// A failing request is the same `FsError` whichever transport carried
/// it: in process over a drive, in process over an array, or over TCP.
#[test]
fn a_failure_is_the_same_fs_error_on_every_transport() {
    let expected = vec![
        FsError::Denied,
        FsError::NotFound,
        FsError::NotFound,
        FsError::Storage("bad request: partition name length".into()),
    ];

    let loopback = LoopbackTransport::new(Arc::new(drive()), NetworkModel::free());
    assert_eq!(failures(&loopback), expected, "LoopbackTransport");

    let array = S4Array::from_drives(vec![drive()], ArrayConfig::default()).unwrap();
    let over_array = ArrayTransport::new(Arc::new(array), NetworkModel::free());
    assert_eq!(failures(&over_array), expected, "ArrayTransport");

    let server = TcpServerHandle::serve(Arc::new(drive()), "127.0.0.1:0").unwrap();
    let tcp = TcpTransport::connect(server.addr()).unwrap();
    assert_eq!(failures(&tcp), expected, "TcpTransport");
}

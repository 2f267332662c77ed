//! End-to-end behavior of the sharded array: routing, residue-class
//! allocation, scatter-gather, batch splitting, the distributed
//! partition table, aggregated metrics, merged forensics, and the
//! array-backed file system.

use std::sync::Arc;

use s4_array::{shard_of, ArrayConfig, ArrayTransport, S4Array};
use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::LAST_CREATED;
use s4_core::{
    AclEntry, ClientId, DriveConfig, ObjectId, OpKind, Perm, Request, RequestContext, Response,
    S4Error, UserId, PARTITION_OBJECT,
};
use s4_fs::{FileServer, FsError, S4FileServer, S4FsConfig};
use s4_simdisk::MemDisk;

fn disks(n: usize) -> Vec<MemDisk> {
    (0..n)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect()
}

fn array(n: usize) -> S4Array<MemDisk> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    S4Array::format(
        disks(n),
        DriveConfig::small_test(),
        ArrayConfig::default(),
        clock,
    )
    .unwrap()
}

fn user() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

fn admin() -> RequestContext {
    RequestContext::admin(ClientId(0), 42)
}

fn create(a: &S4Array<MemDisk>, ctx: &RequestContext) -> ObjectId {
    match a.dispatch(ctx, &Request::Create).unwrap() {
        Response::Created(oid) => oid,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn creates_allocate_in_residue_classes_and_route_home() {
    let a = array(4);
    let ctx = user();
    let mut oids = Vec::new();
    for _ in 0..12 {
        oids.push(create(&a, &ctx));
    }
    // Each drive-assigned id lives in its allocating shard's class, so
    // `oid % 4` routes home; round-robin spreads creates evenly.
    let mut per_shard = [0u32; 4];
    for oid in &oids {
        per_shard[shard_of(*oid, 4)] += 1;
    }
    assert_eq!(per_shard, [3, 3, 3, 3]);

    // Writes and reads land on the owning shard and round-trip.
    for (i, oid) in oids.iter().enumerate() {
        let data = vec![i as u8; 100];
        a.dispatch(
            &ctx,
            &Request::Write {
                oid: *oid,
                offset: 0,
                data: data.clone(),
            },
        )
        .unwrap();
        match a
            .dispatch(
                &ctx,
                &Request::Read {
                    oid: *oid,
                    offset: 0,
                    len: 100,
                    time: None,
                },
            )
            .unwrap()
        {
            Response::Data(d) => assert_eq!(d, data),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Only the home shard audited the object's operations.
    for oid in &oids {
        let home = shard_of(*oid, 4);
        for s in 0..4 {
            let touched = a
                .shard_drive(s)
                .read_audit_records(&admin())
                .unwrap()
                .iter()
                .any(|r| r.object == *oid);
            assert_eq!(touched, s == home, "oid {oid} on shard {s}");
        }
    }
}

#[test]
fn broadcast_ops_scatter_and_merge() {
    let a = array(3);
    let ctx = user();
    let adm = admin();
    for _ in 0..6 {
        create(&a, &ctx);
    }
    // Sync fans out to every shard and collapses to one Ok.
    assert_eq!(a.dispatch(&ctx, &Request::Sync).unwrap(), Response::Ok);
    for s in 0..3 {
        assert!(a
            .shard_drive(s)
            .read_audit_records(&adm)
            .unwrap()
            .iter()
            .any(|r| r.op == OpKind::Sync));
    }

    // SetWindow applies everywhere; the denied broadcast is denied
    // (and audited) on every shard.
    let w = Request::SetWindow {
        window: SimDuration::from_secs(1800),
    };
    assert!(a.dispatch(&ctx, &w).is_err());
    assert_eq!(a.dispatch(&adm, &w).unwrap(), Response::Ok);
}

#[test]
fn partition_table_is_distributed_across_home_shards() {
    let a = array(4);
    let ctx = user();
    // Roots on different shards, each named on its home shard.
    let roots: Vec<ObjectId> = (0..4).map(|_| create(&a, &ctx)).collect();
    for (i, oid) in roots.iter().enumerate() {
        a.dispatch(
            &ctx,
            &Request::PCreate {
                name: format!("vol{i}"),
                oid: *oid,
            },
        )
        .unwrap();
    }
    // PMount scatters and finds each name wherever it lives.
    for (i, oid) in roots.iter().enumerate() {
        match a
            .dispatch(
                &ctx,
                &Request::PMount {
                    name: format!("vol{i}"),
                    time: None,
                },
            )
            .unwrap()
        {
            Response::Mounted(m) => assert_eq!(m, *oid),
            other => panic!("unexpected response {other:?}"),
        }
    }
    // PList merges every shard's associations, name-sorted.
    match a.dispatch(&ctx, &Request::PList { time: None }).unwrap() {
        Response::Partitions(p) => {
            let names: Vec<&str> = p.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["vol0", "vol1", "vol2", "vol3"]);
        }
        other => panic!("unexpected response {other:?}"),
    }
    // PDelete succeeds via whichever shard holds the name, and an
    // unknown name is NoSuchPartition from every shard.
    assert_eq!(
        a.dispatch(
            &ctx,
            &Request::PDelete {
                name: "vol2".into()
            }
        )
        .unwrap(),
        Response::Ok
    );
    assert!(matches!(
        a.dispatch(
            &ctx,
            &Request::PDelete {
                name: "vol2".into()
            }
        ),
        Err(S4Error::NoSuchPartition)
    ));
    assert!(matches!(
        a.dispatch(
            &ctx,
            &Request::PMount {
                name: "vol2".into(),
                time: None
            }
        ),
        Err(S4Error::NoSuchPartition)
    ));
}

#[test]
fn batches_split_per_shard_and_follow_last_created() {
    let a = array(2);
    let ctx = user();
    let existing = create(&a, &ctx); // lands on shard 0 (rr)
    let batch = Request::Batch(vec![
        Request::Create, // rr → shard 1
        Request::SetAttr {
            oid: LAST_CREATED,
            attrs: vec![9, 9],
        },
        Request::Write {
            oid: existing,
            offset: 0,
            data: b"cross-shard".to_vec(),
        },
        Request::Append {
            oid: LAST_CREATED,
            data: b"tail".to_vec(),
        },
        Request::Sync,
    ]);
    let rs = match a.dispatch(&ctx, &batch).unwrap() {
        Response::Batch(rs) => rs,
        other => panic!("unexpected response {other:?}"),
    };
    assert_eq!(rs.len(), 5);
    let new_oid = match rs[0] {
        Response::Created(oid) => oid,
        ref other => panic!("unexpected response {other:?}"),
    };
    assert_ne!(
        shard_of(new_oid, 2),
        shard_of(existing, 2),
        "batch spanned both shards"
    );
    assert_eq!(rs[1], Response::Ok);
    assert_eq!(rs[2], Response::Ok);
    assert_eq!(rs[3], Response::NewSize(4));
    assert_eq!(rs[4], Response::Ok, "sync collapses to one response");

    // The batch's effects are visible on both shards.
    match a
        .dispatch(
            &ctx,
            &Request::Read {
                oid: new_oid,
                offset: 0,
                len: 4,
                time: None,
            },
        )
        .unwrap()
    {
        Response::Data(d) => assert_eq!(d, b"tail"),
        other => panic!("unexpected response {other:?}"),
    }

    // Broadcast admin ops are not batchable in an array.
    let window = Request::SetWindow {
        window: SimDuration::from_secs(1800),
    };
    assert!(a.dispatch(&ctx, &Request::Batch(vec![window])).is_err());
}

#[test]
fn metrics_aggregate_across_shards() {
    let a = array(2);
    let ctx = user();
    let oids: Vec<ObjectId> = (0..4).map(|_| create(&a, &ctx)).collect();
    for oid in &oids {
        a.dispatch(
            &ctx,
            &Request::Write {
                oid: *oid,
                offset: 0,
                data: vec![1; 64],
            },
        )
        .unwrap();
    }
    let per_shard: u64 = (0..2)
        .map(|s| {
            a.shard_drive(s)
                .registry()
                .counter_values()
                .iter()
                .find(|(n, _)| n == "s4_requests_total")
                .map(|(_, v)| *v)
                .unwrap_or(0)
        })
        .sum();
    assert!(per_shard >= 8, "both shards served requests: {per_shard}");

    let text = a.metrics_text();
    assert!(text.contains("s4_array_shards 2"));
    assert!(text.contains("s4_requests_total{shard=\"0\"}"));
    assert!(text.contains("s4_requests_total{shard=\"1\"}"));
    assert!(text.contains(&format!("\ns4_requests_total {per_shard}\n")));
}

/// A gauge is a per-drive level, not a magnitude that adds up: two
/// shards that each keep the configured window do not make an array
/// with twice that window. Counters get an unlabeled array total;
/// gauges are shard-labeled only.
#[test]
fn array_totals_counters_and_leaves_gauges_per_shard() {
    let a = array(2);
    let ctx = user();
    for _ in 0..4 {
        create(&a, &ctx);
    }
    let lone = a.shard_drive(0).metrics_text();
    let window = lone
        .lines()
        .find_map(|l| l.strip_prefix("s4_detection_window_days "))
        .expect("a lone drive exposes its window")
        .to_string();
    let text = a.metrics_text();
    for s in 0..2 {
        let line = format!("\ns4_detection_window_days{{shard=\"{s}\"}} {window}\n");
        assert!(text.contains(&line), "{line} missing:\n{text}");
    }
    let unlabeled = |name: &str| text.lines().any(|l| l.split(' ').next() == Some(name));
    for gauge in ["s4_detection_window_days", "s4_history_pool_occupancy"] {
        assert!(
            !unlabeled(gauge),
            "gauge {gauge} summed across shards:\n{text}"
        );
    }
    assert!(
        unlabeled("s4_requests_total"),
        "counter total missing:\n{text}"
    );
}

/// The series contract (DESIGN §6e): a family is one set of series
/// names, on a lone drive and — plus the `shard` label — on an array.
#[test]
fn a_histogram_is_the_same_series_on_a_lone_drive_and_on_an_array() {
    const FAMILY: &str = "s4_rpc_latency_us";
    let a = array(1);
    let ctx = user();
    let oid = create(&a, &ctx);
    let write = Request::Write {
        oid,
        offset: 0,
        data: vec![7; 64],
    };
    a.dispatch(&ctx, &write).unwrap();
    a.dispatch(&ctx, &Request::Sync).unwrap();
    let drive = a.shard_drive(0);

    let family = |text: &str| -> Vec<String> {
        let lines = text.lines().filter(|l| l.contains(FAMILY));
        lines.map(String::from).collect()
    };
    let with_shard = |line: &String| -> String {
        if line.starts_with('#') {
            return line.clone();
        }
        let (series, value) = line.rsplit_once(' ').unwrap();
        match series.split_once('{') {
            Some((name, labels)) => format!("{name}{{shard=\"0\",{labels} {value}"),
            None => format!("{series}{{shard=\"0\"}} {value}"),
        }
    };
    let lone = family(&drive.metrics_text());
    let names: Vec<&str> = lone.iter().map(|l| l.split(' ').next().unwrap()).collect();
    for series in ["{quantile=\"0.5\"}", "{quantile=\"1\"}", "_sum", "_count"] {
        assert!(
            names.contains(&format!("{FAMILY}{series}").as_str()),
            "{names:?}"
        );
    }
    let labeled: Vec<String> = lone.iter().map(with_shard).collect();
    assert_eq!(family(&a.metrics_text()), labeled);
}

#[test]
fn merged_audit_is_time_sorted_and_shard_tagged() {
    let a = array(2);
    let ctx = user();
    let adm = admin();
    let oids: Vec<ObjectId> = (0..4).map(|_| create(&a, &ctx)).collect();
    for oid in &oids {
        a.dispatch(
            &ctx,
            &Request::Write {
                oid: *oid,
                offset: 0,
                data: vec![2; 16],
            },
        )
        .unwrap();
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();

    let merged = a.read_audit_merged(&adm).unwrap();
    assert!(merged.iter().any(|r| r.shard == 0));
    assert!(merged.iter().any(|r| r.shard == 1));
    for w in merged.windows(2) {
        assert!(w[0].record.time <= w[1].record.time, "merge is time-sorted");
    }
    // The merged stream contains exactly the per-shard streams.
    for s in 0..2 {
        let own: Vec<_> = merged
            .iter()
            .filter(|r| r.shard == s)
            .map(|r| r.record)
            .collect();
        assert_eq!(own, a.shard_drive(s).read_audit_records(&adm).unwrap());
    }
    // Object timelines resolve on the object's home shard.
    let events = a.object_timeline(&adm, oids[0]).unwrap();
    assert!(!events.is_empty());
}

#[test]
fn array_survives_unmount_and_remount() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let a = S4Array::format(
        disks(3),
        DriveConfig::small_test(),
        ArrayConfig::default(),
        clock.clone(),
    )
    .unwrap();
    let ctx = user();
    let mut written = Vec::new();
    for i in 0..9u8 {
        let oid = create(&a, &ctx);
        a.dispatch(
            &ctx,
            &Request::Write {
                oid,
                offset: 0,
                data: vec![i; 32],
            },
        )
        .unwrap();
        written.push((oid, vec![i; 32]));
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();
    let devices = a.unmount().unwrap();

    let (a2, reports) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        ArrayConfig::default(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(reports.len(), 3, "recovery is per shard");
    for (oid, data) in &written {
        match a2
            .dispatch(
                &ctx,
                &Request::Read {
                    oid: *oid,
                    offset: 0,
                    len: 32,
                    time: None,
                },
            )
            .unwrap()
        {
            Response::Data(d) => assert_eq!(&d, data),
            other => panic!("unexpected response {other:?}"),
        }
    }
}

/// Directories spread across the shards, and every file is born on its
/// directory's shard (its `Create` rides with a `GetAttr` of the
/// directory), so the batches that link and unlink it write one shard.
#[test]
fn file_system_runs_array_backed() {
    let a = Arc::new(array(4));
    let transport = ArrayTransport::new(a.clone(), NetworkModel::lan_100mbit());
    let fs = S4FileServer::mount(transport, user(), "vol", S4FsConfig::default()).unwrap();
    let root = fs.root();
    let mut files = Vec::new();
    for d in 0..4 {
        let dir = fs.mkdir(root, &format!("docs{d}")).unwrap();
        for i in 0..2 {
            let name = format!("file{i}");
            let f = fs.create(dir, &name).unwrap();
            fs.write(f, 0, format!("payload {d}.{i}").as_bytes())
                .unwrap();
            files.push((dir, name, f, format!("payload {d}.{i}")));
        }
    }
    let home = |h: u64| shard_of(ObjectId(h), 4);
    let dirs: std::collections::BTreeSet<usize> = files.iter().map(|f| home(f.0)).collect();
    assert!(
        dirs.len() >= 2,
        "directories spread across shards: {dirs:?}"
    );
    for (dir, name, f, payload) in &files {
        assert_eq!(home(*f), home(*dir), "{name} sits on its directory's shard");
        assert_eq!(fs.read(*f, 0, 100).unwrap(), payload.as_bytes());
        assert_eq!(fs.lookup(*dir, name).unwrap(), *f);
    }
    for (dir, ..) in files.iter().step_by(2) {
        assert_eq!(fs.readdir(*dir).unwrap().len(), 2);
    }
}

/// Two directories on two shards: a rename is one two-phase commit, so a
/// source-directory update the drive refuses takes the target's update
/// (already prepared on the other shard) back with it.
#[test]
fn refused_rename_across_shards_is_all_or_nothing() {
    let a = Arc::new(array(4));
    let mount = || {
        let transport = ArrayTransport::new(a.clone(), NetworkModel::free());
        S4FileServer::mount(transport, user(), "vol", S4FsConfig::default()).unwrap()
    };
    let fs = mount();
    let src = fs.mkdir(fs.root(), "src").unwrap();
    let dst = fs.mkdir(fs.root(), "dst").unwrap();
    assert_ne!(shard_of(ObjectId(src), 4), shard_of(ObjectId(dst), 4));
    let f = fs.create(src, "f").unwrap();
    let no_write = AclEntry {
        user: UserId(1),
        perm: Perm::ALL.without(Perm::WRITE),
    };
    let oid = ObjectId(src);
    a.dispatch(
        &user(),
        &Request::SetAcl {
            oid,
            entry: no_write,
        },
    )
    .unwrap();
    assert_eq!(fs.rename(src, "f", dst, "g"), Err(FsError::Denied));

    let fresh = mount();
    assert_eq!(fresh.resolve_path("src/f"), Ok(f));
    assert_eq!(fresh.resolve_path("dst/g"), Err(FsError::NotFound));
    assert!(
        a.txn_status_text().contains("aborted=1"),
        "{}",
        a.txn_status_text()
    );
}

#[test]
fn config_validation_rejects_degenerate_shapes() {
    let clock = SimClock::new();
    let zero_mirrors = ArrayConfig {
        mirrors: 0,
        ..ArrayConfig::default()
    };
    assert!(matches!(
        S4Array::format(disks(4), DriveConfig::small_test(), zero_mirrors, clock.clone()),
        Err(S4Error::BadRequest(m)) if m.contains("mirrors")
    ));
    assert!(matches!(
        S4Array::mount(disks(4), DriveConfig::small_test(), zero_mirrors, clock.clone()),
        Err(S4Error::BadRequest(m)) if m.contains("mirrors")
    ));
    // The epoch bitmap tracks at most 64 source slots per generation,
    // so shard counts beyond 64 are rejected up front instead of
    // becoming unsplittable arrays (or worker panics).
    assert!(matches!(
        S4Array::format(disks(65), DriveConfig::small_test(), ArrayConfig::default(), clock),
        Err(S4Error::BadRequest(m)) if m.contains("64 shards")
    ));
}

#[test]
fn reserved_partition_namespace_is_invisible_to_clients() {
    let a = array(2);
    let ctx = user();
    let oid = create(&a, &ctx);
    // Clients cannot create, delete, or resolve `__s4/…` names…
    assert!(matches!(
        a.dispatch(
            &ctx,
            &Request::PCreate {
                name: "__s4/x".into(),
                oid
            }
        ),
        Err(S4Error::BadRequest(_))
    ));
    assert!(matches!(
        a.dispatch(
            &ctx,
            &Request::PDelete {
                name: "__s4/x".into()
            }
        ),
        Err(S4Error::BadRequest(_))
    ));
    assert!(matches!(
        a.dispatch(
            &admin(),
            &Request::PMount {
                name: "__s4/epoch/1/2/0".into(),
                time: None
            }
        ),
        Err(S4Error::NoSuchPartition)
    ));
    // …and the epoch note the array persists for itself never shows up
    // in a merged listing, while real partitions do.
    a.dispatch(
        &ctx,
        &Request::PCreate {
            name: "vol".into(),
            oid,
        },
    )
    .unwrap();
    match a.dispatch(&ctx, &Request::PList { time: None }).unwrap() {
        Response::Partitions(list) => {
            assert_eq!(
                list.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
                vec!["vol"]
            );
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Batched or not: a forged epoch note inside a batch — beside a
    // `Sync`, or beside a write to shard 1 so that the batch takes the
    // two-phase commit — is refused before any of it runs, and the array
    // still mounts at its own epoch. So is the same batch handed to the
    // public per-shard-outcome entry point, which `dispatch` itself uses.
    let forged = || Request::PCreate {
        name: "__s4/epoch/99/2/1".into(),
        oid: PARTITION_OBJECT,
    };
    for (two_writers, outcomes) in [(false, false), (true, false), (false, true)] {
        let case = format!("two writers {two_writers}, outcomes {outcomes}");
        let a = array(2);
        let mut batch = vec![forged()];
        if two_writers {
            let on_shard_1 = (0..2)
                .map(|_| create(&a, &ctx))
                .find(|o| shard_of(*o, 2) == 1);
            let write = Request::Write {
                oid: on_shard_1.unwrap(),
                offset: 0,
                data: vec![7; 16],
            };
            batch.push(write);
        }
        batch.push(Request::Sync);
        let reply = if outcomes {
            a.dispatch_batch_outcomes(&ctx, &batch)
                .map(|r| format!("{r:?}"))
        } else {
            a.dispatch(&ctx, &Request::Batch(batch))
                .map(|r| format!("{r:?}"))
        };
        assert!(
            matches!(reply, Err(S4Error::BadRequest(_))),
            "{case}: {reply:?}"
        );
        let names: Vec<String> = a
            .shard_drive(0)
            .op_plist(&admin(), None)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["__s4/epoch/1/2/0"], "{case}");
        let devices = a.unmount().unwrap();
        let mounted = S4Array::mount(
            devices,
            DriveConfig::small_test(),
            ArrayConfig::default(),
            SimClock::new(),
        );
        let (a, _) = mounted.unwrap_or_else(|e| panic!("{case}: mount: {e:?}"));
        assert_eq!(a.epoch().seq, 1, "{case}");
    }
}

//! Mirrored-shard fault tolerance: member death mid-workload with zero
//! client-visible errors, degraded-mode surfacing (gauge + alert),
//! online resync of a replacement member, the read-only fallback for
//! unmirrored shards, transient-fault retry, worker panic containment,
//! and per-shard partial batch outcomes (DESIGN §6f/§6g).

use s4_array::{ArrayConfig, BatchOutcome, MemberState, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    AuditObserver, AuditRecord, ClientId, DriveConfig, ObjectId, Request, RequestContext, Response,
    S4Error, UserId,
};
use s4_simdisk::{
    BlockDev, DiskModelParams, FaultPlan, FaultyDisk, MemDisk, RequestClassMask, TimedDisk,
};

type Disk = FaultyDisk<MemDisk>;

fn clean_disk() -> Disk {
    FaultyDisk::new(MemDisk::with_capacity_bytes(64 << 20), FaultPlan::none())
}

fn user() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

fn admin() -> RequestContext {
    RequestContext::admin(ClientId(0), 42)
}

fn mirrored(mirrors: usize) -> ArrayConfig {
    ArrayConfig {
        mirrors,
        ..ArrayConfig::default()
    }
}

fn create(a: &S4Array<Disk>, ctx: &RequestContext) -> ObjectId {
    match a.dispatch(ctx, &Request::Create).unwrap() {
        Response::Created(oid) => oid,
        other => panic!("unexpected response {other:?}"),
    }
}

fn write(a: &S4Array<Disk>, ctx: &RequestContext, oid: ObjectId, data: &[u8]) {
    a.dispatch(
        ctx,
        &Request::Write {
            oid,
            offset: 0,
            data: data.to_vec(),
        },
    )
    .unwrap();
}

fn read(a: &S4Array<Disk>, ctx: &RequestContext, oid: ObjectId, len: u64) -> Vec<u8> {
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

/// True if any shard holds an alert of the given rule.
fn has_alert(a: &S4Array<Disk>, rule: &str) -> bool {
    a.read_alerts_merged(&admin())
        .unwrap()
        .iter()
        .any(|s| s.record.rule == rule)
}

/// Formats a mirrored array on clean devices, then remounts it with
/// `plans[i]` armed on device `i` — faults must not fire during format,
/// and `FaultyDisk` counters restart at zero on the remount wrapper, so
/// the plans' thresholds count post-mount disk requests only.
fn array_with_plans(
    shards: usize,
    mirrors: usize,
    clock: &SimClock,
    plans: Vec<FaultPlan>,
) -> S4Array<Disk> {
    assert_eq!(plans.len(), shards * mirrors);
    let devices = (0..shards * mirrors).map(|_| clean_disk()).collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        mirrored(mirrors),
        clock.clone(),
    )
    .unwrap();
    let devices = a.unmount().unwrap();
    let devices = devices
        .into_iter()
        .zip(plans)
        .map(|(d, plan)| FaultyDisk::new(d.into_inner(), plan))
        .collect();
    let (a, _) = S4Array::mount(
        devices,
        DriveConfig::small_test(),
        mirrored(mirrors),
        clock.clone(),
    )
    .unwrap();
    a
}

/// Every in-sync mirror pair must agree (objects and the replicated
/// streams); the message names the first difference.
fn assert_mirrors_converged<D: BlockDev + 'static>(a: &S4Array<D>) {
    a.check_mirrors(&admin()).unwrap();
}

/// Create+Write+Sync rounds in the member-death workloads. Each round
/// commits once — one device write — on the shard that owns the new
/// object, and `Create` alternates between the two shards, so every
/// member sees `ROUNDS / 2` writes.
const ROUNDS: u8 = 8;
/// A member that is to die mid-workload dies at the write after this one:
/// half-way through its share of the commits.
const WRITES_BEFORE_DEATH: u64 = ROUNDS as u64 / 2 / 2;

#[test]
fn member_death_mid_workload_is_invisible_to_clients() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    // Shard 0, member 0 dies half-way through its post-mount commits;
    // everyone else stays healthy.
    let mut plans = vec![FaultPlan::none(); 4];
    plans[0] =
        FaultPlan::member_death_after_requests(WRITES_BEFORE_DEATH, RequestClassMask::WRITES);
    let a = array_with_plans(2, 2, &clock, plans);
    let ctx = user();

    // Mixed workload: every operation must succeed from the client's
    // point of view even as the member dies mid-stream.
    let mut oids = Vec::new();
    for i in 0..ROUNDS {
        let oid = create(&a, &ctx);
        write(&a, &ctx, oid, &[i; 64]);
        oids.push(oid);
        a.dispatch(&ctx, &Request::Sync).unwrap();
    }
    for (i, &oid) in oids.iter().enumerate() {
        assert_eq!(read(&a, &ctx, oid, 64), vec![i as u8; 64]);
    }

    // The victim is dead, the shard degraded, and the survivor serves.
    assert_eq!(a.member_states()[0][0], MemberState::Dead);
    assert_eq!(a.member_states()[0][1], MemberState::InSync);
    assert!(a.shard_degraded(0));
    assert!(!a.shard_degraded(1));

    // Degraded mode is surfaced: gauge in the metrics exposition and an
    // alert on the survivor's tamper-evident stream.
    let metrics = a.metrics_text();
    assert!(
        metrics.contains("s4_array_degraded{shard=\"0\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("s4_array_degraded{shard=\"1\"} 0"),
        "{metrics}"
    );
    assert!(metrics.contains("s4_array_mirrors 2"), "{metrics}");
    assert!(has_alert(&a, "array-degraded"));
}

#[test]
fn resync_restores_redundancy_and_mirrors_reconverge() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let mut plans = vec![FaultPlan::none(); 4];
    plans[2] =
        FaultPlan::member_death_after_requests(WRITES_BEFORE_DEATH, RequestClassMask::WRITES);
    let a = array_with_plans(2, 2, &clock, plans);
    let ctx = user();

    let mut oids = Vec::new();
    for i in 0..ROUNDS {
        let oid = create(&a, &ctx);
        write(&a, &ctx, oid, &[i; 32]);
        oids.push(oid);
        a.dispatch(&ctx, &Request::Sync).unwrap();
    }
    assert_eq!(a.member_states()[1][0], MemberState::Dead);

    // Replace the dead member with a fresh device; resync verifies the
    // replica object-by-object before promoting it.
    a.resync_member(1, 0, clean_disk()).unwrap();
    assert_eq!(
        a.member_states(),
        vec![
            vec![MemberState::InSync, MemberState::InSync],
            vec![MemberState::InSync, MemberState::InSync],
        ]
    );
    assert!(!a.shard_degraded(1));
    assert!(a
        .metrics_text()
        .contains("s4_array_degraded{shard=\"1\"} 0"));
    assert!(has_alert(&a, "array-resync"));
    assert_mirrors_converged(&a);

    // The rebuilt member tracks new mutations like any other mirror.
    for &oid in &oids {
        write(&a, &ctx, oid, b"post-resync contents");
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();
    assert_mirrors_converged(&a);
    for &oid in &oids {
        assert_eq!(read(&a, &ctx, oid, 20), b"post-resync contents");
    }
}

/// A committed cross-shard batch leaves its resolution queued on every
/// participant member until that member's next commit. A resync in that
/// window copies the survivor's transaction log, so the copy must carry
/// the resolution: otherwise the replica rebuilds a transaction its
/// source has already resolved.
#[test]
fn resync_while_a_resolution_is_queued_leaves_nothing_in_doubt() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    // Shard 0's second member dies at its first post-mount write.
    let mut plans = vec![FaultPlan::none(); 4];
    plans[1] = FaultPlan::member_death_after_requests(0, RequestClassMask::WRITES);
    let a = array_with_plans(2, 2, &clock, plans);
    let ctx = user();
    let (even, odd) = (create(&a, &ctx), create(&a, &ctx));
    assert_eq!((even.0 % 2, odd.0 % 2), (0, 1), "one object per shard");
    a.dispatch(&ctx, &Request::Sync).unwrap();
    assert_eq!(a.member_states()[0][1], MemberState::Dead);

    let put = |oid: ObjectId, data: &[u8]| Request::Write {
        oid,
        offset: 0,
        data: data.to_vec(),
    };
    let batch = vec![put(even, b"both"), put(odd, b"both"), Request::Sync];
    a.dispatch(&ctx, &Request::Batch(batch)).unwrap();
    assert!(a.txn_status_text().starts_with("committed=1 aborted=0 "));

    a.resync_member(0, 1, clean_disk()).unwrap();
    for k in 0..2 {
        assert!(
            a.member_drive(0, k).txn_in_doubt().is_empty(),
            "shard 0 member {k} left in doubt"
        );
    }
    assert_mirrors_converged(&a);

    // The survivor's next commit makes its copy of the resolution
    // durable; the pair still agrees, and a remount finds nothing open.
    a.dispatch(&ctx, &put(even, b"next")).unwrap();
    a.dispatch(&ctx, &Request::Sync).unwrap();
    assert_mirrors_converged(&a);
    let devices = a.unmount().unwrap();
    let (a, _) = S4Array::mount(devices, DriveConfig::small_test(), mirrored(2), clock).unwrap();
    let status = a.txn_status_text();
    assert!(
        status.contains(" recovered_commit=0 recovered_abort=0 "),
        "{status}"
    );
    assert_mirrors_converged(&a);
}

#[test]
fn lone_member_falls_back_to_read_only_and_resyncs_in_place() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    // Unmirrored shard whose every post-mount disk write fails: the
    // worker exhausts its retries and the sole member degrades to
    // read-only instead of dying.
    let plans = vec![FaultPlan::intermittent_io(0, 1, RequestClassMask::WRITES)];
    let a = array_with_plans(1, 1, &clock, plans);
    let ctx = user();

    // Mutations buffer in memory; forcing them to disk exhausts the
    // retries and trips the fallback.
    let err = match a.dispatch(&ctx, &Request::Create) {
        Ok(_) => a
            .dispatch(&ctx, &Request::Sync)
            .expect_err("sync cannot persist"),
        Err(e) => e,
    };
    assert!(err.disk_fault().is_some(), "unexpected error {err:?}");
    assert_eq!(a.member_states()[0][0], MemberState::ReadOnly);
    assert!(a.shard_degraded(0));
    assert!(has_alert(&a, "array-degraded"));

    // Further mutations are refused up front; reads still succeed.
    assert_eq!(
        a.dispatch(&ctx, &Request::Create),
        Err(S4Error::BadRequest("array shard is read-only (degraded)"))
    );
    assert_eq!(
        a.dispatch(&ctx, &Request::PList { time: None }).unwrap(),
        Response::Partitions(vec![])
    );

    // In-place replacement: the read-only member is its own resync
    // source; the rebuilt drive lands on a healthy device and the shard
    // becomes writable again.
    a.resync_member(0, 0, clean_disk()).unwrap();
    assert_eq!(a.member_states()[0][0], MemberState::InSync);
    assert!(!a.shard_degraded(0));
    let oid = create(&a, &ctx);
    write(&a, &ctx, oid, b"healthy again");
    assert_eq!(read(&a, &ctx, oid, 13), b"healthy again");
}

#[test]
fn transient_faults_are_retried_without_client_errors() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    // One early transient I/O error (period far beyond the workload's
    // write count, so it fires exactly once per long stretch): bounded
    // retry absorbs it and the member stays in sync.
    let plans = vec![FaultPlan::intermittent_io(
        0,
        100_000,
        RequestClassMask::WRITES,
    )];
    let a = array_with_plans(1, 1, &clock, plans);
    let ctx = user();

    let before = clock.now();
    let oid = create(&a, &ctx);
    write(&a, &ctx, oid, b"retried write");
    a.dispatch(&ctx, &Request::Sync).unwrap();
    assert_eq!(read(&a, &ctx, oid, 13), b"retried write");
    assert_eq!(a.member_states()[0][0], MemberState::InSync);
    assert!(!a.shard_degraded(0));
    // The retry charged its backoff to the simulated clock.
    assert!(clock.now() > before);
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
fn member_panic_is_contained_and_marked_dead() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let a = array_with_plans(1, 2, &clock, vec![FaultPlan::none(); 2]);
    let ctx = user();

    a.member_drive(0, 0)
        .register_audit_observer(Box::new(PanickingObserver));

    // The panic is contained to the faulty member: the client's request
    // succeeds via the healthy mirror and nothing deadlocks.
    let oid = create(&a, &ctx);
    write(&a, &ctx, oid, b"after panic");
    assert_eq!(read(&a, &ctx, oid, 11), b"after panic");
    assert_eq!(a.member_states()[0][0], MemberState::Dead);
    assert_eq!(a.member_states()[0][1], MemberState::InSync);
    assert!(a.shard_degraded(0));
    assert!(has_alert(&a, "array-degraded"));

    // A fresh replacement brings the shard back to full redundancy.
    a.resync_member(0, 0, clean_disk()).unwrap();
    assert_eq!(a.member_states()[0][0], MemberState::InSync);
    assert_mirrors_converged(&a);
}

#[test]
fn batch_outcomes_map_failures_to_original_indices() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let a = array_with_plans(2, 1, &clock, vec![FaultPlan::none(); 2]);
    let ctx = user();

    // One object per shard so the batch genuinely splits.
    let (mut even, mut odd) = (None, None);
    while even.is_none() || odd.is_none() {
        let oid = create(&a, &ctx);
        if oid.0.is_multiple_of(2) {
            even.get_or_insert(oid);
        } else {
            odd.get_or_insert(oid);
        }
    }
    let (even, odd) = (even.unwrap(), odd.unwrap());
    // An odd id that was never allocated: routes to shard 1, fails there.
    let missing = ObjectId(odd.0 + 1000);

    let reqs = vec![
        Request::Write {
            oid: even,
            offset: 0,
            data: b"even".to_vec(),
        },
        Request::Write {
            oid: missing,
            offset: 0,
            data: b"ghost".to_vec(),
        },
        Request::Write {
            oid: odd,
            offset: 0,
            data: b"odd".to_vec(),
        },
    ];

    // The fine-grained surface: a multi-shard mutating batch runs as
    // one two-phase-commit transaction, so the failure on shard 1
    // rolls shard 0 back too — every slot empty, one outcome in the
    // original batch's coordinates, nothing in doubt.
    let (slots, outcomes) = a.dispatch_batch_outcomes(&ctx, &reqs).unwrap();
    assert_eq!(slots.len(), 3);
    assert!(
        slots.iter().all(Option::is_none),
        "aborted batch leaves no responses"
    );
    assert_eq!(
        outcomes,
        vec![BatchOutcome {
            shard: 1,
            completed: 0,
            failed_at: 1,
            error: S4Error::NoSuchObject,
            in_doubt: false,
        }]
    );

    // The coarse surface aggregates the same information into one
    // BatchFailed error with the earliest failing original index.
    match a.dispatch(&ctx, &Request::Batch(reqs)).unwrap_err() {
        S4Error::BatchFailed {
            completed,
            failed_at,
            error,
        } => {
            assert_eq!(failed_at, 1);
            assert_eq!(*error, S4Error::NoSuchObject);
            assert_eq!(completed, 0, "the rollback undid every shard");
        }
        other => panic!("unexpected error {other:?}"),
    }

    // All-or-nothing: the even write was rolled back with the batch.
    assert_eq!(read(&a, &ctx, even, 4), b"");
    assert_mirrors_converged(&a);
}

/// A drive whose CPU model charges the shared clock for every request:
/// the clock moves between member 0's execution of a job and member
/// 1's — which is exactly what another shard's coordinator does to it
/// under load, forced here without a thread.
fn charging_cpu() -> DriveConfig {
    DriveConfig {
        cpu: DriveConfig::default().cpu,
        ..DriveConfig::small_test()
    }
}

#[test]
fn mirrors_agree_when_the_clock_moves_between_members() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let a = S4Array::format(
        vec![clean_disk(), clean_disk()],
        charging_cpu(),
        mirrored(2),
        clock,
    )
    .unwrap();
    let ctx = user();
    let oid = create(&a, &ctx);
    write(&a, &ctx, oid, b"one instant per job");
    a.dispatch(&ctx, &Request::Sync).unwrap();
    assert_mirrors_converged(&a);
}

/// The configuration every `fig_*` bench runs: timed disks charging the
/// shared clock, so every device write moves it — between the members
/// of one job, between sub-requests of one batch, between the formats
/// of two siblings. Every user of the mirror fan-out is driven once.
#[test]
fn mirrors_agree_on_timed_disks_through_every_fan_out_user() {
    type Timed = TimedDisk<MemDisk>;
    let cfg = charging_cpu();
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices: Vec<Timed> = (0..4)
        .map(|_| {
            TimedDisk::new(
                MemDisk::with_capacity_bytes(64 << 20),
                DiskModelParams::cheetah_9gb_10k(),
                clock.clone(),
            )
        })
        .collect();
    // Format installs the epoch note on shard 0's members.
    let a = S4Array::format(devices, cfg, mirrored(2), clock.clone()).unwrap();
    let ctx = user();
    let put = |oid: ObjectId, data: &[u8]| Request::Write {
        oid,
        offset: 0,
        data: data.to_vec(),
    };
    let created = |resp| match resp {
        Response::Created(oid) => oid,
        other => panic!("unexpected response {other:?}"),
    };
    let even = created(a.dispatch(&ctx, &Request::Create).unwrap());
    let odd = created(a.dispatch(&ctx, &Request::Create).unwrap());
    assert_eq!((even.0 % 2, odd.0 % 2), (0, 1), "one object per shard");

    // Plain mutations.
    a.dispatch(&ctx, &put(even, b"plain even")).unwrap();
    a.dispatch(&ctx, &put(odd, b"plain odd")).unwrap();
    a.dispatch(&ctx, &Request::Sync).unwrap();
    // One shard's batch on the plain path: the CPU charge moves the
    // clock between its sub-requests.
    a.dispatch(
        &ctx,
        &Request::Batch(vec![put(even, b"first"), put(even, b"second")]),
    )
    .unwrap();
    // The same with a flush in the middle — a device write. `Sync`
    // inside a batch goes to every shard, but only shard 0 is written:
    // still the plain path, `[Write, Sync, Write]` there, `[Sync]` on
    // shard 1.
    let flushed = vec![put(even, b"third"), Request::Sync, put(even, b"fourth")];
    a.dispatch(&ctx, &Request::Batch(flushed)).unwrap();
    // Two writers with the `Sync` between them: a two-phase commit
    // whose prepares execute `[Write, Sync]` and `[Sync, Write]` — the
    // `Sync` inside a prepare is audited at the job's instant and
    // satisfied by the vote's flush.
    let voted = vec![put(even, b"fifth"), Request::Sync, put(odd, b"sixth")];
    a.dispatch(&ctx, &Request::Batch(voted)).unwrap();
    // A cross-shard batch that commits: prepare, decision note on shard
    // 0, decide, note retired.
    a.dispatch(
        &ctx,
        &Request::Batch(vec![put(even, b"both"), put(odd, b"both")]),
    )
    .unwrap();
    // One that aborts on shard 1: shard 0 is compensated.
    let missing = ObjectId(odd.0 + 1000);
    a.dispatch(
        &ctx,
        &Request::Batch(vec![put(even, b"undone"), put(missing, b"ghost")]),
    )
    .unwrap_err();
    assert!(
        a.txn_status_text().starts_with("committed=2 aborted=1"),
        "status: {}",
        a.txn_status_text()
    );
    assert_mirrors_converged(&a);

    // The same answer from the devices alone.
    let devices = a.unmount().unwrap();
    let (a, _) = S4Array::mount(devices, cfg, mirrored(2), clock).unwrap();
    assert_mirrors_converged(&a);
}

/// A read is served, so audited and watched, by one member only: the
/// detectors of two healthy mirrors see different streams, and an alert
/// one of them raises is no divergence.
#[test]
fn an_alert_one_member_raises_is_no_divergence() {
    let clock = SimClock::new();
    let a = array_with_plans(1, 2, &clock, vec![FaultPlan::none(); 2]);
    for m in 0..2 {
        s4_detect::install_standard_monitor(&a.member_drive(0, m));
    }
    let missing = Request::Read {
        oid: ObjectId(999),
        offset: 0,
        len: 16,
        time: None,
    };
    for _ in 0..6 {
        assert!(a.dispatch(&user(), &missing).is_err());
    }
    assert!(has_alert(&a, "acl-tamper-burst"));
    assert_mirrors_converged(&a);
}

//! Participant-side two-phase-commit behavior of a single drive: the
//! prepare/vote/decide hooks, forward-compensation abort, object locks,
//! and in-doubt recovery across a crash.

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::LAST_CREATED;
use s4_core::{
    ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive, S4Error, UserId,
    VersionKind,
};
use s4_simdisk::{
    BlockDev, FaultPlan, FaultyDisk, MemDisk, RequestClassMask, TraceClass, TraceDisk,
};

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

fn ctx() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

#[test]
fn commit_keeps_effects_and_clears_pending_state() {
    let d = drive();
    let c = ctx();
    let oid = d.op_create(&c, None).unwrap();

    let resps = d
        .txn_prepare(
            &c,
            71,
            &[
                Request::Write {
                    oid,
                    offset: 0,
                    data: b"committed".to_vec(),
                },
                Request::Create,
                Request::Write {
                    oid: LAST_CREATED,
                    offset: 0,
                    data: b"second".to_vec(),
                },
            ],
        )
        .unwrap();
    assert_eq!(resps.len(), 3);
    let Response::Created(new_oid) = resps[1] else {
        panic!("expected Created");
    };
    assert_eq!(d.txn_in_doubt(), vec![(71, d.txn_in_doubt()[0].1)]);

    d.txn_decide(71, true).unwrap();
    assert!(d.txn_in_doubt().is_empty());
    assert_eq!(d.op_read(&c, oid, 0, 64, None).unwrap(), b"committed");
    assert_eq!(d.op_read(&c, new_oid, 0, 64, None).unwrap(), b"second");
    // Deciding again is an idempotent no-op (retried fan-out).
    d.txn_decide(71, true).unwrap();
    d.txn_decide(71, false).unwrap();
    assert_eq!(d.op_read(&c, oid, 0, 64, None).unwrap(), b"committed");
}

#[test]
fn abort_restores_every_kind_of_effect() {
    let d = drive();
    let c = ctx();
    // Pre-transaction state: two objects and a partition name.
    let a = d.op_create(&c, None).unwrap();
    d.op_write(&c, a, 0, b"alpha original content").unwrap();
    d.op_setattr(&c, a, vec![1, 2, 3]).unwrap();
    let victim = d.op_create(&c, None).unwrap();
    d.op_write(&c, victim, 0, b"victim").unwrap();
    d.op_pcreate(&c, "keep", a).unwrap();
    d.op_sync(&c).unwrap();
    let pre_a = d.op_read(&c, a, 0, 1024, None).unwrap();
    let pre_attrs = d.op_getattr(&c, a, None).unwrap().opaque;

    let resps = d
        .txn_prepare(
            &c,
            72,
            &[
                Request::Write {
                    oid: a,
                    offset: 0,
                    data: b"CLOBBERED".to_vec(),
                },
                Request::Truncate { oid: a, len: 9 },
                Request::SetAttr {
                    oid: a,
                    attrs: vec![9, 9],
                },
                Request::Delete { oid: victim },
                Request::Create,
                Request::Write {
                    oid: LAST_CREATED,
                    offset: 0,
                    data: b"ephemeral".to_vec(),
                },
                Request::PCreate {
                    name: "txn-name".into(),
                    oid: a,
                },
            ],
        )
        .unwrap();
    let Response::Created(ephemeral) = resps[4] else {
        panic!("expected Created");
    };
    // Mid-transaction the effects are visible (read-uncommitted).
    assert_eq!(d.op_read(&c, a, 0, 64, None).unwrap(), b"CLOBBERED");
    assert!(matches!(
        d.op_read(&c, victim, 0, 8, None),
        Err(S4Error::NoSuchObject)
    ));

    d.txn_decide(72, false).unwrap();
    assert!(d.txn_in_doubt().is_empty());
    // Content, size, and attrs restored.
    assert_eq!(d.op_read(&c, a, 0, 1024, None).unwrap(), pre_a);
    assert_eq!(d.op_getattr(&c, a, None).unwrap().opaque, pre_attrs);
    // The deleted object is live again with its content.
    assert_eq!(d.op_read(&c, victim, 0, 64, None).unwrap(), b"victim");
    // The created object is dead again.
    assert!(matches!(
        d.op_read(&c, ephemeral, 0, 8, None),
        Err(S4Error::NoSuchObject)
    ));
    // The transaction's name is gone; the pre-existing one remains.
    let parts = d.op_plist(&c, None).unwrap();
    assert!(parts.iter().any(|(n, _)| n == "keep"));
    assert!(!parts.iter().any(|(n, _)| n == "txn-name"));
}

#[test]
fn locks_reject_outside_mutations_until_resolved() {
    let d = drive();
    let c = ctx();
    let a = d.op_create(&c, None).unwrap();
    d.op_write(&c, a, 0, b"before").unwrap();

    d.txn_prepare(
        &c,
        73,
        &[Request::Write {
            oid: a,
            offset: 0,
            data: b"pinned".to_vec(),
        }],
    )
    .unwrap();
    assert_eq!(d.txn_lock_holder(a), Some(73));
    // Outside mutation refused; read still allowed.
    assert!(matches!(
        d.dispatch(
            &c,
            &Request::Write {
                oid: a,
                offset: 0,
                data: b"intruder".to_vec()
            }
        ),
        Err(S4Error::BadRequest(_))
    ));
    assert_eq!(
        d.dispatch(
            &c,
            &Request::Read {
                oid: a,
                offset: 0,
                len: 16,
                time: None
            }
        )
        .unwrap(),
        Response::Data(b"pinned".to_vec())
    );
    // A second transaction touching the same object votes no (errors).
    assert!(d
        .txn_prepare(
            &c,
            74,
            &[Request::Write {
                oid: a,
                offset: 0,
                data: b"overlap".to_vec(),
            }],
        )
        .is_err());
    assert_eq!(d.txn_in_doubt(), vec![(73, d.txn_in_doubt()[0].1)]);

    d.txn_decide(73, true).unwrap();
    assert_eq!(d.txn_lock_holder(a), None);
    d.op_write(&c, a, 0, b"after ").unwrap();
    assert_eq!(d.op_read(&c, a, 0, 6, None).unwrap(), b"after ");
}

#[test]
fn in_doubt_survives_a_crash_and_mount_abort_converges() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let c = ctx();
    let a = d.op_create(&c, None).unwrap();
    d.op_write(&c, a, 0, b"stable state").unwrap();
    d.op_sync(&c).unwrap();
    let pre = d.op_read(&c, a, 0, 64, None).unwrap();

    d.txn_prepare(
        &c,
        75,
        &[Request::Write {
            oid: a,
            offset: 0,
            data: b"doomed write".to_vec(),
        }],
    )
    .unwrap();
    // Crash after the vote, before any decision.
    let dev = d.crash();
    let d = S4Drive::mount(dev, DriveConfig::small_test(), clock.clone()).unwrap();
    let open = d.txn_in_doubt();
    assert_eq!(open.len(), 1);
    assert_eq!(open[0].0, 75);
    // Locks are rebuilt from the recovered log: the dispatcher still
    // refuses outside mutations of the pinned object.
    assert_eq!(d.txn_lock_holder(a), Some(75));
    assert!(matches!(
        d.dispatch(
            &c,
            &Request::Write {
                oid: a,
                offset: 0,
                data: b"intruder".to_vec()
            }
        ),
        Err(S4Error::BadRequest(_))
    ));

    // Presumed abort: no decision note means roll back.
    d.txn_decide(75, false).unwrap();
    assert_eq!(d.op_read(&c, a, 0, 64, None).unwrap(), pre);
    assert!(d.txn_resolution_pending(75), "the resolution is queued");

    // The compensation and the resolution ride the next commit. A crash
    // before it finds the transaction in doubt again, the doomed write
    // still in place, and aborting again converges.
    let dev = d.crash();
    let d = S4Drive::mount(dev, DriveConfig::small_test(), clock.clone()).unwrap();
    let open = d.txn_in_doubt();
    assert_eq!(open.len(), 1);
    assert_eq!(open[0].0, 75);
    assert_eq!(d.op_read(&c, a, 0, 64, None).unwrap(), b"doomed write");
    d.txn_decide(75, false).unwrap();
    assert_eq!(d.op_read(&c, a, 0, 64, None).unwrap(), pre);
    d.op_sync(&c).unwrap();
    assert!(!d.txn_resolution_pending(75), "the sync carried it");
    let attrs_after_abort = d.op_getattr(&c, a, None).unwrap();

    // A crash/mount after that commit finds nothing in doubt, and
    // re-deciding is a no-op — recovery is idempotent.
    let dev = d.crash();
    let d = S4Drive::mount(dev, DriveConfig::small_test(), clock).unwrap();
    assert!(d.txn_in_doubt().is_empty());
    assert_eq!(d.txn_lock_holder(a), None);
    d.txn_decide(75, false).unwrap();
    assert_eq!(d.op_read(&c, a, 0, 64, None).unwrap(), pre);
    assert_eq!(d.op_getattr(&c, a, None).unwrap(), attrs_after_abort);
}

/// An abort's compensation and a later client write to the same object
/// become durable together through whatever packs them first — here an
/// anchor, or a `FlushO` — and the resolution queued by the abort must
/// ride along. Otherwise the `Sync` that follows finds nothing left to
/// pack, acknowledges, and a crash leaves the transaction in doubt with
/// no note: aborting it again restores the object to `t0` and loses the
/// acknowledged write.
#[test]
fn whatever_packs_another_objects_entries_carries_the_queued_resolution() {
    let admin = RequestContext::admin(ClientId(0), DriveConfig::small_test().admin_token);
    type Packer<'a> = &'a dyn Fn(&S4Drive<MemDisk>, ObjectId, (SimTime, SimTime));
    let packers: [(&str, Packer); 2] = [
        ("anchor", &|d, _, _| d.force_anchor().unwrap()),
        ("FlushO", &|d, a, (from, to)| {
            d.op_flusho(&admin, a, from, to).unwrap()
        }),
    ];
    for (what, pack) in packers {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let d = S4Drive::format(
            MemDisk::with_capacity_bytes(64 << 20),
            DriveConfig::small_test(),
            clock.clone(),
        )
        .unwrap();
        let c = ctx();
        let a = d.op_create(&c, None).unwrap();
        d.op_write(&c, a, 0, b"stable state").unwrap();
        d.op_sync(&c).unwrap();

        clock.advance(SimDuration::from_secs(1));
        let from = d.now();
        d.txn_prepare(
            &c,
            78,
            &[Request::Write {
                oid: a,
                offset: 0,
                data: b"doomed write".to_vec(),
            }],
        )
        .unwrap();
        // The doomed version, and nothing after it, is what FlushO drops.
        let doomed = (from, d.now());
        clock.advance(SimDuration::from_secs(1));
        d.txn_decide(78, false).unwrap();
        clock.advance(SimDuration::from_secs(1));
        d.op_write(&c, a, 0, b"acknowledged").unwrap();
        pack(&d, a, doomed);
        d.op_sync(&c).unwrap();
        let carried = !d.txn_resolution_pending(78);

        let dev = d.crash();
        let d = S4Drive::mount(dev, DriveConfig::small_test(), clock).unwrap();
        assert_eq!(d.txn_in_doubt(), Vec::new(), "{what}: nothing in doubt");
        // Presumed abort, as an array mount without a note would run it.
        for (txid, _) in d.txn_in_doubt() {
            d.txn_decide(txid, false).unwrap();
        }
        assert_eq!(
            d.op_read(&c, a, 0, 64, None).unwrap(),
            b"acknowledged",
            "{what}: the acknowledged write survives"
        );
        assert!(carried, "{what}: the commit carried the resolution");
    }
}

/// Opening a transaction writes nothing the device keeps: `Prepared`
/// becomes durable with the first commit that carries the prepare's
/// effects (the vote, or any sync before it), never alone. A crash
/// before that commit leaves no trace of the transaction at all.
#[test]
fn a_prepare_that_never_synced_leaves_nothing_in_doubt() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let c = ctx();
    let a = d.op_create(&c, None).unwrap();
    d.op_write(&c, a, 0, b"pre-txn").unwrap();
    d.op_sync(&c).unwrap();

    d.txn_begin(77).unwrap();
    d.op_write(&c, a, 0, b"unsynced effect").unwrap();
    let dev = d.crash();
    let d = S4Drive::mount(dev, DriveConfig::small_test(), clock).unwrap();
    assert_eq!(
        d.txn_in_doubt(),
        Vec::new(),
        "nothing of the prepare was durable"
    );
    assert_eq!(d.txn_lock_holder(a), None);
    assert_eq!(d.op_read(&c, a, 0, 64, None).unwrap(), b"pre-txn");
}

#[test]
fn blanket_compensation_after_a_mid_prepare_crash() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        DriveConfig::small_test(),
        clock.clone(),
    )
    .unwrap();
    let c = ctx();
    let a = d.op_create(&c, None).unwrap();
    d.op_write(&c, a, 0, b"pre-txn").unwrap();
    d.op_sync(&c).unwrap();
    let pre = d.op_read(&c, a, 0, 64, None).unwrap();

    // Simulate a crash in the middle of prepare: the Prepared record is
    // durable, some effects executed, but the vote never flushed.
    d.txn_begin(76).unwrap();
    d.op_write(&c, a, 0, b"torn effect").unwrap();
    let fresh = d.op_create(&c, None).unwrap();
    d.op_sync(&c).unwrap();

    let dev = d.crash();
    let d = S4Drive::mount(dev, DriveConfig::small_test(), clock).unwrap();
    let open = d.txn_in_doubt();
    assert_eq!(open.len(), 1, "prepared-without-vote is in doubt");

    // A vote that never flushed can never have produced a commit
    // decision, so recovery aborts: everything after t0 is restored.
    d.txn_decide(76, false).unwrap();
    assert_eq!(d.op_read(&c, a, 0, 64, None).unwrap(), pre);
    assert!(matches!(
        d.op_read(&c, fresh, 0, 8, None),
        Err(S4Error::NoSuchObject)
    ));
    assert!(d.txn_in_doubt().is_empty());
}

/// A drive with three objects whose attributes are synced, `pad`
/// metadata-only commits (one log block each) on a fourth, and then a
/// prepare whose sub-batch rewrites the three attributes with values
/// big enough that their journal sectors need two containers. Returns
/// the drive, the prepare's answer and the three objects.
fn split_vote_run<D: BlockDev>(
    dev: D,
    pad: u32,
) -> (S4Drive<D>, s4_core::Result<Vec<Response>>, Vec<ObjectId>) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(dev, DriveConfig::small_test(), clock).unwrap();
    let c = ctx();
    let oids: Vec<ObjectId> = (0..3).map(|_| d.op_create(&c, None).unwrap()).collect();
    for (k, &oid) in oids.iter().enumerate() {
        d.op_setattr(&c, oid, vec![k as u8; 8]).unwrap();
    }
    let filler = d.op_create(&c, None).unwrap();
    d.op_sync(&c).unwrap();
    for i in 0..pad {
        d.op_setattr(&c, filler, vec![i as u8; 8]).unwrap();
        d.op_sync(&c).unwrap();
    }
    let mut sub: Vec<Request> = oids
        .iter()
        .map(|&oid| Request::SetAttr {
            oid,
            attrs: vec![0xEE; 1500],
        })
        .collect();
    sub.push(Request::Sync);
    let answer = d.txn_prepare(&c, 78, &sub);
    (d, answer, oids)
}

/// The vote's commit cut at a segment end: the log commits a batch that
/// has reached the end of its segment the moment the next block needs a
/// slot, so one sync can reach the device as two transfers, and power can
/// fail between them. Here the first transfer carries the first journal
/// container and the second the rest. Whatever the first holds of the
/// prepare's effects must come with the `Prepared` record that scopes
/// their undo: on mount the transaction is in doubt, presumed abort
/// rolls it back, and every object reads as of `t0`.
#[test]
fn a_vote_cut_at_a_segment_end_stays_atomic() {
    // Find the padding that puts the cut between the two containers.
    // The prepare's last transfer is then one summary block carrying the
    // second container alone: its data blocks and first container are
    // appended before it, and a batch holding them is longer.
    let cut = (0..16).find_map(|pad| {
        let dev = TraceDisk::new(MemDisk::with_capacity_bytes(64 << 20));
        let trace = dev.handle();
        let (_, answer, _) = split_vote_run(dev, pad);
        answer.unwrap();
        let writes = trace
            .records()
            .into_iter()
            .filter(|r| r.class == TraceClass::Write);
        let lens: Vec<usize> = writes.map(|r| r.len).collect();
        (lens.last() == Some(&4096)).then_some((pad, lens.len() as u64 - 1))
    });
    let (pad, last_write) = cut.expect("some padding cuts the vote between its containers");

    // The same run with the power failing on the second transfer.
    let dev = FaultyDisk::new(
        MemDisk::with_capacity_bytes(64 << 20),
        FaultPlan::power_loss_after_requests(last_write, RequestClassMask::WRITES),
    );
    let (d, answer, oids) = split_vote_run(dev, pad);
    assert!(answer.is_err(), "the prepare lost its device");
    let dev = d.crash();
    dev.revive();
    let d = S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap();
    let open = d.txn_in_doubt();
    assert_eq!(
        open.iter().map(|t| t.0).collect::<Vec<_>>(),
        [78],
        "pad {pad}: the durable half of the vote is in doubt"
    );
    d.txn_decide(78, false).unwrap();
    assert!(d.txn_in_doubt().is_empty());
    let c = ctx();
    for (k, &oid) in oids.iter().enumerate() {
        assert_eq!(
            d.op_getattr(&c, oid, None).unwrap().opaque,
            vec![k as u8; 8],
            "pad {pad}: object {k} reads as of t0"
        );
    }
}

/// Two attribute blobs each one journal sector holds can sum past one:
/// an abort's compensation converges from the transaction's blob back
/// to the first, which `op_setattr` would refuse as one entry. It is
/// journaled as two entries at one instant, through the empty blob, and
/// the restored attributes survive a sync and a crash.
#[test]
fn an_abort_restoring_a_large_blob_over_another_journals_two_entries() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let config = DriveConfig::small_test();
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(64 << 20),
        config,
        clock.clone(),
    )
    .unwrap();
    let c = ctx();
    let a = d.op_create(&c, None).unwrap();
    d.op_setattr(&c, a, vec![0x11; 4000]).unwrap();
    d.op_sync(&c).unwrap();
    let set = |attrs: Vec<u8>| Request::SetAttr { oid: a, attrs };
    d.txn_prepare(&c, 76, &[set(Vec::new()), set(vec![0x22; 4000])])
        .unwrap();
    assert_eq!(d.op_getattr(&c, a, None).unwrap().opaque, [0x22; 4000]);
    let admin = RequestContext::admin(ClientId(9), config.admin_token);
    let before = d.version_history(&admin, a).unwrap().len();
    d.txn_decide(76, false).unwrap();
    assert_eq!(d.op_getattr(&c, a, None).unwrap().opaque, [0x11; 4000]);
    d.op_sync(&c).unwrap();
    let d = S4Drive::mount(d.crash(), config, clock).unwrap();
    assert_eq!(d.op_getattr(&c, a, None).unwrap().opaque, [0x11; 4000]);
    assert_eq!(d.check_image(), Ok((vec![], vec![], 0)));
    let versions = d.version_history(&admin, a).unwrap();
    assert_eq!(versions.len(), before + 2, "two entries");
    let (cleared, restored) = (&versions[before], &versions[before + 1]);
    assert_eq!(cleared.stamp.time, restored.stamp.time, "at one instant");
    let kinds = (cleared.kind, restored.kind);
    assert_eq!(kinds, (VersionKind::SetAttr, VersionKind::SetAttr));
}

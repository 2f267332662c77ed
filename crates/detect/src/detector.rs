//! The detector pipeline: the standard rule set, offline scans, and the
//! online monitor that runs inside the drive.

use s4_core::{AuditObserver, AuditRecord, RequestContext, S4Drive, S4Error};
use s4_simdisk::BlockDev;

use crate::{rules, Alert};

/// The standard rule set, fed as one unit at its default thresholds.
///
/// Every record goes to the rules in field order, so the alerts one
/// record raises come out as append-only, foreign-client, ransom-storm,
/// write-rate-spike, acl-tamper-burst, audit-gap. The rules carry their
/// own state, so one set analyses one stream (offline scan or online
/// drive feed, not both).
pub struct DetectorSet {
    append_only: rules::AppendOnlyViolation,
    foreign_client: rules::ForeignClient,
    ransom_storm: rules::RansomStorm,
    write_rate: rules::WriteRateSpike,
    acl_tamper: rules::AclTamperBurst,
    audit_gap: rules::AuditGapCheck,
}

impl DetectorSet {
    /// The built-in rules at their default thresholds.
    pub fn standard() -> Self {
        DetectorSet {
            append_only: Default::default(),
            foreign_client: Default::default(),
            ransom_storm: Default::default(),
            write_rate: Default::default(),
            acl_tamper: Default::default(),
            audit_gap: Default::default(),
        }
    }

    /// Feeds one record to every rule, collecting the alerts' records.
    fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<AuditRecord>) {
        self.append_only.observe(rec, sink);
        self.foreign_client.observe(rec, sink);
        self.ransom_storm.observe(rec, sink);
        self.write_rate.observe(rec, sink);
        self.acl_tamper.observe(rec, sink);
        self.audit_gap.observe(rec, sink);
    }

    /// Runs the whole set over a record slice, returning every alert.
    pub fn scan(&mut self, records: &[AuditRecord]) -> Vec<Alert> {
        let mut sink = Vec::new();
        for r in records {
            self.observe(r, &mut sink);
        }
        sink.iter().filter_map(Alert::render).collect()
    }
}

/// The set on the drive's [`AuditObserver`] hook: every audited request
/// is analysed as it happens, and the drive files the alerts' records
/// in its tamper-proof audit log right after the request's.
impl AuditObserver for DetectorSet {
    fn on_record(&mut self, rec: &AuditRecord) -> Vec<AuditRecord> {
        let mut sink = Vec::new();
        self.observe(rec, &mut sink);
        sink
    }
}

/// Registers the standard rule set as an online monitor on `drive`.
/// From this point every audited request is analysed inside the
/// security perimeter and alerts land in the drive's audit log.
pub fn install_standard_monitor<D: BlockDev>(drive: &S4Drive<D>) {
    drive.register_audit_observer(Box::new(DetectorSet::standard()));
}

/// Offline sweep: decodes the full audit log (admin only) and runs the
/// standard rules over it. This is the "analyse the log after the fact"
/// path; it sees the same records the online monitor would have.
pub fn scan_audit<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
) -> Result<Vec<Alert>, S4Error> {
    let records = drive.read_audit_records(admin)?;
    Ok(DetectorSet::standard().scan(&records))
}

/// Every alert the drive has filed in its audit log (admin only),
/// rendered, oldest first.
pub fn read_alerts<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
) -> Result<Vec<Alert>, S4Error> {
    let records = drive.read_alerts(admin)?;
    Ok(records.iter().filter_map(Alert::render).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::{SimClock, SimDuration, SimTime};
    use s4_core::{ClientId, DriveConfig, ObjectId, OpKind, Request, StreamCursor, UserId};
    use s4_simdisk::MemDisk;

    /// Incremental alert reader. Where [`read_alerts`] rescans the whole
    /// audit log on each call, a poller carries a `StreamCursor` so each
    /// [`poll`](AlertPoller::poll) decodes only the records appended since
    /// the previous one — the natural shape for a monitoring loop that
    /// watches a long-lived drive.
    #[derive(Clone, Copy, Debug, Default)]
    struct AlertPoller {
        cursor: StreamCursor,
    }

    impl AlertPoller {
        /// A poller positioned at the start of the audit log.
        fn new() -> Self {
            AlertPoller::default()
        }

        /// Decodes the alerts appended since the previous poll (admin only),
        /// oldest first, and advances the cursor.
        fn poll<D: BlockDev>(
            &mut self,
            drive: &S4Drive<D>,
            admin: &RequestContext,
        ) -> Result<Vec<Alert>, S4Error> {
            let records = drive.read_alerts_from(admin, &mut self.cursor)?;
            Ok(records.iter().filter_map(Alert::render).collect())
        }
    }

    fn drive() -> S4Drive<MemDisk> {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap()
    }

    #[allow(clippy::too_many_arguments)]
    fn rec(
        secs: u64,
        user: u32,
        client: u32,
        op: OpKind,
        ok: bool,
        object: u64,
        arg1: u64,
        arg2: u64,
    ) -> AuditRecord {
        AuditRecord {
            time: SimTime::from_secs(secs),
            user: UserId(user),
            client: ClientId(client),
            op,
            ok,
            object: ObjectId(object),
            arg1,
            arg2,
            trace: Default::default(),
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        }
    }

    /// One record can trip several rules; its alerts come out in the
    /// set's feed order. Two records between them trip all six rules, and
    /// each trips four or more, which pins the whole order.
    #[test]
    fn alerts_from_one_record_come_out_in_rule_order() {
        use OpKind::*;
        const MIB: u64 = 1 << 20;
        let mut s = vec![
            // User 1's home is client 1. Client 66 writes a byte before
            // the home is established: no alert, but it opens a
            // write-rate window for (user 1, client 66).
            rec(1, 1, 1, Create, true, 100, 0, 0),
            rec(1, 1, 66, Write, true, 200, 0, 1),
            rec(1, 1, 1, Create, true, 101, 0, 0),
            // Object 100 turns append-only.
            rec(2, 1, 1, Write, true, 100, 0, 10),
            rec(3, 1, 1, Append, true, 100, 10, 0),
        ];
        // Eight home requests in all.
        s.extend((0..4).map(|_| rec(4, 1, 1, Read, true, 100, 0, 10)));
        // User 3 shrinks 23 objects at t = 30: one short of a storm.
        for o in 1..=23 {
            s.push(rec(30, 3, 3, Write, true, o, 0, 10));
            s.push(rec(30, 3, 3, Truncate, true, o, 0, 0));
        }
        // R1, back at t = 20: client 66 overwrites 16 MiB of the log.
        s.push(rec(20, 1, 66, Write, true, 100, 0, 16 * MIB));
        // Five denials for client 66, then a later record.
        s.extend((100..105).map(|t| rec(t, 1, 66, Read, false, 101, 0, 0)));
        s.push(rec(200, 3, 3, Read, true, 1, 0, 0));
        // R2, back at t = 150: a 64 MiB attribute rewrite of an
        // established object from client 66.
        s.push(rec(150, 1, 66, SetAttr, true, 101, 64 * MIB, 0));

        let alerts = DetectorSet::standard().scan(&s);
        let got: Vec<(u64, &str)> = alerts
            .iter()
            .map(|a| (a.time.as_micros() / 1_000_000, a.rule.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                (20, "append-only-violation"),
                (20, "foreign-client"),
                (20, "ransom-storm"),
                (20, "write-rate-spike"),
                (20, "audit-gap"),
                (150, "foreign-client"),
                (150, "write-rate-spike"),
                (150, "acl-tamper-burst"),
                (150, "audit-gap"),
            ]
        );
    }

    #[test]
    fn online_monitor_persists_alerts_in_the_drive() {
        let drive = drive();
        install_standard_monitor(&drive);
        let admin = RequestContext::admin(ClientId(9), drive.config().admin_token);
        let user = RequestContext::user(UserId(1), ClientId(1));

        // Build an append-only object through the audited dispatch path,
        // then scrub it.
        let oid = match drive.dispatch(&user, &Request::Create).unwrap() {
            s4_core::Response::Created(oid) => oid,
            other => panic!("unexpected {other:?}"),
        };
        for _ in 0..3 {
            drive
                .dispatch(
                    &user,
                    &Request::Append {
                        oid,
                        data: b"10:02 login ok\n".to_vec(),
                    },
                )
                .unwrap();
        }
        assert!(read_alerts(&drive, &admin).unwrap().is_empty());
        drive
            .dispatch(&user, &Request::Truncate { oid, len: 0 })
            .unwrap();

        let alerts = read_alerts(&drive, &admin).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "append-only-violation");
        assert_eq!(alerts[0].object, oid);
        assert_eq!(
            alerts[0].message,
            "Truncate destroyed data in an object with 3 strictly-appending \
             mutations (log-scrub shape)"
        );
        // The alert is one record of the log, filed right after its
        // trigger's, which the request readers skip.
        let whole = drive.read_traces(&admin).unwrap();
        assert_eq!(whole.len(), 6);
        assert_eq!(Alert::render(&whole[5]).as_ref(), Some(&alerts[0]));
        assert_eq!(
            whole[5].identity(),
            AuditRecord {
                arg1: 3,
                arg2: 0,
                ..whole[5]
            }
        );
        assert_eq!(drive.read_audit_records(&admin).unwrap(), whole[..5]);
        // And the offline scan over the same audit log agrees, field for
        // field.
        assert_eq!(scan_audit(&drive, &admin).unwrap(), alerts);
    }

    /// Every rule, online and offline: the alerts a drive's monitor files
    /// render to exactly what the set computes over the drive's requests
    /// afterwards. The records are fed in as requests that trip each rule
    /// once (rule order pinned by the test above).
    #[test]
    fn every_rule_renders_online_as_offline() {
        let drive = drive();
        install_standard_monitor(&drive);
        let admin = RequestContext::admin(ClientId(9), drive.config().admin_token);
        let home = RequestContext::user(UserId(1), ClientId(1));
        let foreign = RequestContext::user(UserId(1), ClientId(66));
        let create = |ctx: &RequestContext| match drive.dispatch(ctx, &Request::Create).unwrap() {
            s4_core::Response::Created(oid) => oid,
            other => panic!("unexpected {other:?}"),
        };
        let write = |ctx: &RequestContext, oid, offset, len: usize| {
            let data = vec![7u8; len];
            let req = Request::Write { oid, offset, data };
            let _ = drive.dispatch(ctx, &req);
        };
        // A home of eight requests, then a log-shaped object.
        let log = create(&home);
        for i in 0..7 {
            write(&home, log, i * 10, 10);
        }
        // Twenty-four fresh objects shrunk within a minute: a storm. The
        // last also trips the write-rate baseline.
        for _ in 0..24 {
            let oid = create(&home);
            write(&home, oid, 0, 100);
            let _ = drive.dispatch(&home, &Request::Truncate { oid, len: 0 });
        }
        drive.clock().advance(SimDuration::from_secs(11));
        write(&home, log, 0, 9 << 20); // scrub the log; spike the rate
        write(&foreign, log, 0, 1); // stolen credentials
        for _ in 0..6 {
            let read = Request::Read {
                oid: ObjectId(999_999),
                offset: 0,
                len: 1,
                time: None,
            };
            let _ = drive.dispatch(&foreign, &read); // six denials
        }
        let online = read_alerts(&drive, &admin).unwrap();
        let rules: Vec<&str> = online.iter().map(|a| a.rule.as_str()).collect();
        for rule in [
            "append-only-violation",
            "foreign-client",
            "ransom-storm",
            "write-rate-spike",
            "acl-tamper-burst",
        ] {
            assert!(rules.contains(&rule), "{rule} missing from {rules:?}");
        }
        assert_eq!(scan_audit(&drive, &admin).unwrap(), online);
        // The audit-gap rule needs time to run backwards, which the drive
        // never records; offline, over a spliced stream, it renders the
        // same way.
        let mut records = drive.read_audit_records(&admin).unwrap();
        let last = records.pop().unwrap();
        records.insert(1, last);
        let gaps = DetectorSet::standard().scan(&records);
        let gap = gaps.iter().find(|a| a.rule == "audit-gap").unwrap();
        assert_eq!(
            gap.message,
            format!(
                "audit time went backwards ({} then {})",
                last.time, records[2].time
            )
        );
    }

    #[test]
    fn alert_poller_is_incremental() {
        let drive = drive();
        install_standard_monitor(&drive);
        let admin = RequestContext::admin(ClientId(9), drive.config().admin_token);
        let user = RequestContext::user(UserId(1), ClientId(1));
        let mut poller = AlertPoller::new();
        assert!(poller.poll(&drive, &admin).unwrap().is_empty());

        // Raise one alert: truncate an object that looked append-only.
        let oid = match drive.dispatch(&user, &Request::Create).unwrap() {
            s4_core::Response::Created(oid) => oid,
            other => panic!("unexpected {other:?}"),
        };
        for _ in 0..3 {
            drive
                .dispatch(
                    &user,
                    &Request::Append {
                        oid,
                        data: b"10:02 login ok\n".to_vec(),
                    },
                )
                .unwrap();
        }
        drive
            .dispatch(&user, &Request::Truncate { oid, len: 0 })
            .unwrap();

        let first = poller.poll(&drive, &admin).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rule, "append-only-violation");
        // Nothing new: the next poll is empty instead of rereading.
        assert!(poller.poll(&drive, &admin).unwrap().is_empty());

        // A second violation (fresh object: the rule alerts once per
        // object) yields exactly the delta.
        let oid2 = match drive.dispatch(&user, &Request::Create).unwrap() {
            s4_core::Response::Created(oid) => oid,
            other => panic!("unexpected {other:?}"),
        };
        for _ in 0..3 {
            drive
                .dispatch(
                    &user,
                    &Request::Append {
                        oid: oid2,
                        data: b"x".to_vec(),
                    },
                )
                .unwrap();
        }
        drive
            .dispatch(&user, &Request::Truncate { oid: oid2, len: 0 })
            .unwrap();
        let second = poller.poll(&drive, &admin).unwrap();
        assert_eq!(second.len(), 1);

        // Cumulative polls match the full rescan.
        let full = read_alerts(&drive, &admin).unwrap();
        assert_eq!(full.len(), first.len() + second.len());
    }

    #[test]
    fn alert_poller_survives_spill_to_block() {
        // Force the pending tail to spill into flushed blocks and check
        // the cursor's skip-count hand-off: nothing is dropped, nothing
        // is repeated.
        let drive = drive();
        install_standard_monitor(&drive);
        let admin = RequestContext::admin(ClientId(9), drive.config().admin_token);
        let user = RequestContext::user(UserId(1), ClientId(1));
        let mut poller = AlertPoller::new();
        let mut seen = 0usize;
        for round in 0..40 {
            // Fresh object each round: the append-only rule alerts once
            // per object.
            let oid = match drive.dispatch(&user, &Request::Create).unwrap() {
                s4_core::Response::Created(oid) => oid,
                other => panic!("unexpected {other:?}"),
            };
            for _ in 0..3 {
                drive
                    .dispatch(
                        &user,
                        &Request::Append {
                            oid,
                            data: vec![b'a'; 64],
                        },
                    )
                    .unwrap();
            }
            drive
                .dispatch(&user, &Request::Truncate { oid, len: 0 })
                .unwrap();
            seen += poller.poll(&drive, &admin).unwrap().len();
            if round == 20 {
                // Mid-stream sync exercises the anchor-persist path too.
                drive.op_sync(&user).unwrap();
            }
        }
        let full = read_alerts(&drive, &admin).unwrap();
        assert!(!full.is_empty());
        assert_eq!(seen, full.len(), "incremental polls must equal rescan");
    }

    #[test]
    fn alerts_are_read_with_the_admin_token_only() {
        let drive = drive();
        let user = RequestContext::user(UserId(1), ClientId(1));
        assert_eq!(drive.read_alerts(&user), Err(S4Error::AccessDenied));
    }
}

//! The detector pipeline: pluggable rules, offline scans, and the
//! online monitor that runs inside the drive.

use s4_core::{Alert, AuditObserver, AuditRecord, RequestContext, S4Drive, S4Error};
use s4_simdisk::BlockDev;

use crate::rules;

/// A streaming intrusion-detection rule over the audit record stream.
///
/// Detectors are fed records in append order and push any findings into
/// the `sink`; they carry their own state, so one instance analyses one
/// stream (offline scan or online drive feed, not both).
pub trait Detector: Send {
    /// Stable rule name (also stamped on raised alerts).
    fn name(&self) -> &'static str;
    /// Consumes one record, pushing zero or more alerts.
    fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<Alert>);
}

/// An ordered collection of detectors fed as one unit.
pub struct DetectorSet {
    detectors: Vec<Box<dyn Detector>>,
}

impl DetectorSet {
    /// An empty set; add rules with [`push`](Self::push).
    pub fn empty() -> Self {
        DetectorSet {
            detectors: Vec::new(),
        }
    }

    /// The built-in rules at their default thresholds.
    pub fn standard() -> Self {
        let mut set = DetectorSet::empty();
        set.push(Box::new(rules::AppendOnlyViolation::default()));
        set.push(Box::new(rules::ForeignClient::default()));
        set.push(Box::new(rules::RansomStorm::default()));
        set.push(Box::new(rules::WriteRateSpike::default()));
        set.push(Box::new(rules::AclTamperBurst::default()));
        set.push(Box::new(rules::AuditGapCheck::default()));
        set
    }

    /// Adds a rule to the set.
    pub fn push(&mut self, d: Box<dyn Detector>) {
        self.detectors.push(d);
    }

    /// Names of the registered rules, in feed order.
    pub fn names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Feeds one record to every rule.
    pub fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<Alert>) {
        for d in &mut self.detectors {
            d.observe(rec, sink);
        }
    }

    /// Runs the whole set over a record slice, returning every alert.
    pub fn scan(&mut self, records: &[AuditRecord]) -> Vec<Alert> {
        let mut sink = Vec::new();
        for r in records {
            self.observe(r, &mut sink);
        }
        sink
    }
}

/// Adapts a [`DetectorSet`] to the drive's [`AuditObserver`] hook:
/// every audited request is analysed as it happens and any alerts are
/// returned encoded, which the drive persists to the tamper-proof
/// alert object.
pub(crate) struct OnlineMonitor {
    set: DetectorSet,
}

impl OnlineMonitor {
    /// Monitor running the standard rules.
    pub fn standard() -> Self {
        OnlineMonitor {
            set: DetectorSet::standard(),
        }
    }
}

impl AuditObserver for OnlineMonitor {
    fn on_record(&mut self, rec: &AuditRecord) -> Vec<Vec<u8>> {
        let mut sink = Vec::new();
        self.set.observe(rec, &mut sink);
        sink.iter().map(Alert::encode).collect()
    }
}

/// Registers the standard rule set as an online monitor on `drive`.
/// From this point every audited request is analysed inside the
/// security perimeter and alerts land in the drive's alert object.
pub fn install_standard_monitor<D: BlockDev>(drive: &S4Drive<D>) {
    drive.register_audit_observer(Box::new(OnlineMonitor::standard()));
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

/// Decodes every alert the drive has persisted (admin only), oldest
/// first. Blobs that fail to decode are skipped rather than failing the
/// whole read — the alert object must stay readable even if a future
/// version wrote records this build does not understand.
pub fn read_alerts<D: BlockDev>(
    drive: &S4Drive<D>,
    admin: &RequestContext,
) -> Result<Vec<Alert>, S4Error> {
    let blobs = drive.read_alerts(admin)?;
    Ok(blobs.iter().filter_map(|b| Alert::decode(b).ok()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::{SimClock, SimDuration};
    use s4_core::{ClientId, DriveConfig, StreamCursor, UserId};
    use s4_simdisk::MemDisk;

    /// Incremental alert reader. Where [`read_alerts`] rescans every alert
    /// block on each call, a poller carries a `StreamCursor` so each
    /// [`poll`](AlertPoller::poll) decodes only the blobs appended since the
    /// previous one — the natural shape for a monitoring loop that watches a
    /// long-lived drive. Undecodable blobs are skipped, as in
    /// [`read_alerts`].
    #[derive(Clone, Copy, Debug, Default)]
    struct AlertPoller {
        cursor: StreamCursor,
    }

    impl AlertPoller {
        /// A poller positioned at the start of the alert object.
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
            let blobs = drive.read_alerts_from(admin, &mut self.cursor)?;
            Ok(blobs.iter().filter_map(|b| Alert::decode(b).ok()).collect())
        }
    }

    fn drive() -> S4Drive<MemDisk> {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap()
    }

    #[test]
    fn standard_set_lists_all_rules() {
        let names = DetectorSet::standard().names();
        for n in [
            "append-only-violation",
            "foreign-client",
            "ransom-storm",
            "write-rate-spike",
            "acl-tamper-burst",
            "audit-gap",
        ] {
            assert!(names.contains(&n), "missing rule {n}");
        }
    }

    #[test]
    fn online_monitor_persists_alerts_in_the_drive() {
        use s4_core::Request;
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
        // And the offline scan over the same audit log agrees.
        let offline = scan_audit(&drive, &admin).unwrap();
        assert_eq!(offline.len(), 1);
        assert_eq!(offline[0].rule, alerts[0].rule);
        assert_eq!(offline[0].object, alerts[0].object);
    }

    #[test]
    fn alert_poller_is_incremental() {
        use s4_core::Request;
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
        use s4_core::Request;
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
    fn alert_object_is_not_client_writable() {
        let drive = drive();
        let user = RequestContext::user(UserId(1), ClientId(1));
        let err = drive
            .op_write(&user, s4_core::ALERT_OBJECT, 0, b"forged")
            .unwrap_err();
        assert_eq!(err, S4Error::AccessDenied);
        // Reading alerts requires the admin token.
        assert!(drive.read_alerts(&user).is_err());
    }
}

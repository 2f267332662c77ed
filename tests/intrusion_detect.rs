//! End-to-end test of the `s4-detect` subsystem on the paper's §2
//! intrusion scenario: the online detectors must flag the log scrub and
//! the stolen-credential mutations with the right object ids and
//! timestamps, and an executed recovery plan must put the pre-intrusion
//! contents back.

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock, SimDuration, SimTime};
use s4_core::{ClientId, DriveConfig, ObjectId, RequestContext, S4Drive, UserId};
use s4_detect::{
    execute_plan_on, install_standard_monitor, plan_recovery, read_alerts, scan_audit, tree_diff,
    RecoveryAction, Severity, Suspects,
};
use s4_fs::read_file_at;
use s4_fs::{FileServer, LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::MemDisk;

const PASSWD0: &[u8] = b"root:x:0:0\nalice:x:1000:1000\n";
const LOG0: &[u8] = b"09:01 sshd accepted key for alice\n";

#[test]
fn section2_intrusion_is_detected_and_recovered() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = Arc::new(
        S4Drive::format(
            MemDisk::with_capacity_bytes(64 << 20),
            DriveConfig::default(),
            clock.clone(),
        )
        .unwrap(),
    );
    install_standard_monitor(&drive);
    let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);

    // Clean system: client 1 builds /etc/passwd and /var/log/auth.log.
    let system = RequestContext::user(UserId(1), ClientId(1));
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        system,
        "rootfs",
        S4FsConfig::default(),
    )
    .unwrap();
    let root = fs.root();
    fs.mkdir(root, "etc").unwrap();
    fs.mkdir(root, "var").unwrap();
    fs.mkdir(fs.resolve_path("var").unwrap(), "log").unwrap();
    let passwd = fs
        .create(fs.resolve_path("etc").unwrap(), "passwd")
        .unwrap();
    fs.write(passwd, 0, PASSWD0).unwrap();
    let log = fs
        .create(fs.resolve_path("var/log").unwrap(), "auth.log")
        .unwrap();
    fs.write(log, 0, LOG0).unwrap();
    clock.advance(SimDuration::from_secs(3600));
    // The intruder's login is appended by the honest logging path.
    fs.write(log, LOG0.len() as u64, b"10:13 key for root from 6.6.6.6\n")
        .unwrap();
    let pre_scrub = fs.now();
    assert!(read_alerts(&drive, &admin).unwrap().is_empty());

    // The intrusion, from client 66 with stolen credentials.
    clock.advance(SimDuration::from_secs(5));
    let evil = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(66)),
        "rootfs",
        S4FsConfig::default(),
    )
    .unwrap();
    let scrub_start = drive.now();
    evil.truncate(log, 0).unwrap(); // scrub the log...
    evil.write(log, 0, LOG0).unwrap(); // ...and re-write it sanitized
    let scrub_end = drive.now();
    evil.write(passwd, PASSWD0.len() as u64, b"evil:x:0:0\n")
        .unwrap();
    let tmp = evil.mkdir(evil.root(), "tmp").unwrap();
    let tool = evil.create(tmp, ".scan").unwrap();
    evil.write(tool, 0, b"nc -l 31337 &\n").unwrap();
    clock.advance(SimDuration::from_secs(30));
    evil.remove(tmp, ".scan").unwrap();
    let post_intrusion = drive.now();

    // ---- Detection: the persisted alerts name the scrubbed log, the
    // scrub instant, and the intruding client.
    let alerts = read_alerts(&drive, &admin).unwrap();
    let scrub = alerts
        .iter()
        .find(|a| a.rule == "append-only-violation")
        .expect("log scrub not flagged");
    assert_eq!(scrub.object, ObjectId(log));
    assert_eq!(scrub.client, ClientId(66));
    assert_eq!(scrub.severity, Severity::Critical);
    assert!(scrub.time >= scrub_start && scrub.time <= scrub_end);
    let plant = alerts
        .iter()
        .find(|a| a.rule == "foreign-client" && a.object == ObjectId(passwd))
        .expect("backdoor plant not flagged");
    assert!(plant.time >= scrub_end && plant.time <= post_intrusion);
    assert!(
        alerts.iter().all(|a| a.client == ClientId(66)),
        "honest activity flagged: {alerts:?}"
    );
    // The offline audit sweep agrees with the online monitor, field for
    // field: the alerts the drive filed render to what the rules compute
    // over the same requests, message included.
    let offline = scan_audit(&drive, &admin).unwrap();
    assert_eq!(offline, alerts);
    assert_eq!(
        offline
            .iter()
            .filter(|a| a.rule == "append-only-violation")
            .count(),
        1
    );

    // ---- Recovery: plan against the instant before the first alert.
    let first = alerts.iter().map(|a| a.time).min().unwrap();
    let t = SimTime::from_micros(first.as_micros() - 1);
    assert!(t >= pre_scrub);
    let plan = plan_recovery(&drive, &admin, &Suspects::client(ClientId(66)), t).unwrap();
    assert!(!plan.actions.is_empty());
    let audited_before = drive.read_audit_records(&admin).unwrap().len();
    let outcome = execute_plan_on(&drive, &admin, &plan).unwrap();
    assert!(outcome.failed.is_empty(), "failed: {:?}", outcome.failed);

    // Recovery is a request like any other: every mutation it made is
    // in the audit log under the admin principal (a quarantine only
    // pins a landmark, which has no RPC), and whatever the detectors
    // make of it names the admin, never the suspect.
    let records = drive.read_audit_records(&admin).unwrap();
    let during_recovery = &records[audited_before..];
    let mutating_actions = plan
        .actions
        .iter()
        .filter(|pa| !matches!(pa.action, RecoveryAction::Quarantine { .. }))
        .count();
    let mutations = during_recovery
        .iter()
        .filter(|r| r.op.creates_version())
        .count();
    assert!(
        mutating_actions > 0 && mutations >= mutating_actions,
        "{mutations} audited mutations for {mutating_actions} mutating actions"
    );
    assert!(
        during_recovery
            .iter()
            .all(|r| r.user == admin.user && r.client == admin.client),
        "recovery audited under another principal: {during_recovery:?}"
    );
    let after = read_alerts(&drive, &admin).unwrap();
    assert!(
        after[alerts.len()..]
            .iter()
            .all(|a| a.user == admin.user && a.client == admin.client),
        "recovery alert blames the wrong principal: {after:?}"
    );

    // Pre-intrusion contents are back (checked via a fresh mount so no
    // client cache can mask drive state).
    let check = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        system,
        "rootfs",
        S4FsConfig::default(),
    )
    .unwrap();
    let now = check.now();
    assert_eq!(read_file_at(&check, "etc/passwd", now).unwrap(), PASSWD0);
    let log_now = read_file_at(&check, "var/log/auth.log", now).unwrap();
    assert!(log_now.starts_with(LOG0));
    assert!(String::from_utf8_lossy(&log_now).contains("6.6.6.6"));
    assert!(check.resolve_path("tmp").is_err());
    // The wiped tool is quarantined: landmark-pinned in the history pool.
    assert!(!drive.landmarks(&admin, ObjectId(tool)).unwrap().is_empty());
    // And the namespace now matches the pre-intrusion tree.
    let rootfs = drive.op_pmount(&admin, "rootfs", None).unwrap();
    let diff = tree_diff(&drive, &admin, rootfs, t, None).unwrap();
    assert!(diff.added.is_empty() && diff.removed.is_empty(), "{diff:?}");
}

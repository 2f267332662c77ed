//! The paper's motivating scenario, end to end (§2, §3.1) — with the
//! `s4-detect` subsystem watching from inside the drive's perimeter.
//!
//! An intruder compromises a client, scrubs the system log, plants a
//! backdoor, briefly stores an exploit tool, and deletes it. The drive
//! cannot refuse the requests (they carry valid credentials), but its
//! online detectors analyse every audited request and file alerts in the
//! audit log, which only the drive itself can write. The administrator reads
//! the alerts, reconstructs the damage with the forensic tools, and
//! executes a reviewable recovery plan — all without a backup and
//! without trusting the compromised host.
//!
//! Run with: `cargo run --release --example intrusion_recovery`

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock, SimDuration, SimTime};
use s4_core::{ClientId, DriveConfig, ObjectId, RequestContext, S4Drive, UserId};
use s4_detect::{
    damage_report, execute_plan_on, install_standard_monitor, object_timeline, plan_recovery,
    read_alerts, scan_audit, tree_diff, Severity, Suspects,
};
use s4_fs::{ls_at, read_file_at};
use s4_fs::{FileServer, LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};

fn main() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = TimedDisk::new(
        MemDisk::with_capacity_bytes(256 << 20),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    );
    let drive = Arc::new(S4Drive::format(disk, DriveConfig::default(), clock.clone()).unwrap());
    let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);

    // The detectors live behind the security perimeter from day one:
    // every audited request is analysed as it arrives, and alerts land
    // in the audit log, which no client credential can modify.
    install_standard_monitor(&drive);

    // The legitimate system: a root user on client 1 sets up /etc and
    // /var/log.
    let system = RequestContext::user(UserId(1), ClientId(1));
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::lan_100mbit()),
        system,
        "rootfs",
        S4FsConfig::default(),
    )
    .unwrap();
    let root = fs.root();
    fs.mkdir(root, "etc").unwrap();
    fs.mkdir(root, "var").unwrap();
    let var = fs.lookup(root, "var").unwrap();
    fs.mkdir(var, "log").unwrap();
    let passwd = fs
        .create(fs.lookup(root, "etc").unwrap(), "passwd")
        .unwrap();
    fs.write(passwd, 0, b"root:x:0:0\nalice:x:1000:1000\n")
        .unwrap();
    let log = fs
        .create(fs.resolve_path("var/log").unwrap(), "auth.log")
        .unwrap();
    fs.write(log, 0, b"09:01 sshd accepted key for alice\n")
        .unwrap();

    clock.advance(SimDuration::from_secs(3600));
    let pre_intrusion = fs.now();
    println!("T0  clean system at {pre_intrusion}");

    // ---- The intrusion: client 66 has stolen root's credentials. The
    // drive cannot stop these writes (they carry valid credentials), but
    // it versions, audits, and now *analyses* every one of them.
    clock.advance(SimDuration::from_secs(600));
    // The intruder's login is logged automatically by the still-honest
    // logging path on client 1 (an append to auth.log)...
    fs.write(log, 34, b"10:13 sshd accepted key for root from 6.6.6.6\n")
        .unwrap();
    let login_logged = fs.now();
    clock.advance(SimDuration::from_secs(5));
    let intruder_fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::lan_100mbit()),
        RequestContext::user(UserId(1), ClientId(66)), // stolen identity!
        "rootfs",
        S4FsConfig::default(),
    )
    .unwrap();
    let iroot = intruder_fs.root();
    let ilog = intruder_fs.resolve_path("var/log/auth.log").unwrap();
    // 1. ...so scrubbing the log is the classic first move (§2.1). The
    //    log object has only ever been appended to; the truncate breaks
    //    that pattern and fires the append-only-violation detector.
    intruder_fs.truncate(ilog, 0).unwrap();
    intruder_fs
        .write(ilog, 0, b"09:01 sshd accepted key for alice\n")
        .unwrap(); // re-written without the intruder's own entries
                   // 2. Plant a backdoor account (an append, so the log-scrub rule
                   //    stays quiet — the foreign-client rule catches it instead).
    let ipasswd = intruder_fs.resolve_path("etc/passwd").unwrap();
    intruder_fs.write(ipasswd, 29, b"evil:x:0:0\n").unwrap();
    // 3. Stage an exploit tool and delete it after use.
    let tmp = intruder_fs.mkdir(iroot, "tmp").unwrap();
    let tool = intruder_fs.create(tmp, ".scan").unwrap();
    intruder_fs
        .write(tool, 0, b"#!/bin/sh\n# rootkit dropper v3\nnc -l 31337 &\n")
        .unwrap();
    clock.advance(SimDuration::from_secs(30));
    intruder_fs.remove(tmp, ".scan").unwrap();
    let post_intrusion = fs.now();
    println!(
        "T1  intrusion complete at {post_intrusion} (log scrubbed, backdoor planted, tool wiped)"
    );

    // ---- Detection (hours later): the alerts were persisted *during*
    // the intrusion by the drive itself.
    clock.advance(SimDuration::from_secs(7200));
    let alerts = read_alerts(&drive, &admin).unwrap();
    println!(
        "T2  {} alerts waiting in the drive's audit log:",
        alerts.len()
    );
    for a in &alerts {
        println!("      {a}");
    }
    let scrub = alerts
        .iter()
        .find(|a| a.rule == "append-only-violation")
        .expect("the log scrub must be flagged");
    assert_eq!(scrub.object, ObjectId(ilog));
    assert_eq!(scrub.severity, Severity::Critical);
    assert_eq!(scrub.client, ClientId(66));
    assert!(
        alerts
            .iter()
            .any(|a| a.rule == "foreign-client" && a.object == ObjectId(ipasswd)),
        "the backdoor plant must be flagged"
    );
    // An offline sweep over the full audit log reaches the same verdict.
    let offline = scan_audit(&drive, &admin).unwrap();
    assert!(offline.iter().any(|a| a.rule == "append-only-violation"));

    // The alerts bound the intrusion: everything from the first alert
    // onward is suspect. Plan against the instant just before it.
    let first_alert = alerts.iter().map(|a| a.time).min().unwrap();
    let t = SimTime::from_micros(first_alert.as_micros() - 1);
    assert!(t >= pre_intrusion);

    // ---- Diagnosis: what exactly did client 66 do?
    let report = damage_report(
        &drive,
        &admin,
        ClientId(66),
        t,
        post_intrusion,
        SimDuration::from_secs(300),
    )
    .unwrap();
    println!(
        "T3  audit analysis: client 66 issued {} requests, modified {} objects",
        report.request_count,
        report.modified.len()
    );
    let rootfs = drive.op_pmount(&admin, "rootfs", None).unwrap();
    let diff = tree_diff(&drive, &admin, rootfs, t, None).unwrap();
    println!(
        "    namespace diff since T: added {:?}, modified {} entries",
        diff.added
            .iter()
            .map(|(p, _)| p.as_str())
            .collect::<Vec<_>>(),
        diff.modified.len()
    );
    println!("    tamper timeline of var/log/auth.log:");
    let log_timeline = object_timeline(&drive, &admin, ObjectId(ilog)).unwrap();
    for e in log_timeline.iter().rev().take(4).rev() {
        println!("      {} {}", e.time, e.description);
    }

    // The scrubbed entry is still in the history pool...
    let log_mid = read_file_at(&fs, "var/log/auth.log", login_logged).unwrap();
    assert!(String::from_utf8_lossy(&log_mid).contains("6.6.6.6"));
    println!(
        "    scrubbed log line recovered from history: {:?}",
        String::from_utf8_lossy(&log_mid[34..]).trim_end()
    );
    // ...and so is the deleted exploit tool.
    let during = post_intrusion.saturating_sub(SimDuration::from_secs(10));
    println!(
        "    /tmp during the intrusion: {:?}",
        ls_at(&fs, "tmp", during).unwrap()
    );

    // ---- Recovery: a reviewable plan, then execution (§3.3 —
    // restoration creates new versions; history is never rewritten).
    let plan = plan_recovery(&drive, &admin, &Suspects::client(ClientId(66)), t).unwrap();
    println!("T4  recovery plan ({} actions):", plan.actions.len());
    for pa in &plan.actions {
        println!("      {}", pa.action);
    }
    let outcome = execute_plan_on(&drive, &admin, &plan).unwrap();
    assert!(
        outcome.failed.is_empty(),
        "recovery failed: {:?}",
        outcome.failed
    );

    // Verify through a fresh mount (no stale client caches).
    let check = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::lan_100mbit()),
        system,
        "rootfs",
        S4FsConfig::default(),
    )
    .unwrap();
    let now = check.now();
    let passwd_now = read_file_at(&check, "etc/passwd", now).unwrap();
    assert!(!String::from_utf8_lossy(&passwd_now).contains("evil"));
    // Restoring to just before the first alert keeps the honest login
    // append — the intruder's own log entry is back in the live file.
    let log_now = read_file_at(&check, "var/log/auth.log", now).unwrap();
    assert_eq!(log_now, log_mid);
    assert!(String::from_utf8_lossy(&log_now).contains("6.6.6.6"));
    assert!(
        check.resolve_path("tmp").is_err(),
        "planted /tmp not removed"
    );
    // The wiped exploit tool survives as landmark-pinned evidence.
    assert!(!drive.landmarks(&admin, ObjectId(tool)).unwrap().is_empty());
    println!("T5  restored: backdoor gone, log intact, planted files removed");
    println!("    (the intruder's versions stay in the pool, pinned, as evidence)");
}

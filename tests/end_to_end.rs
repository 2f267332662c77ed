//! Workspace-level integration tests: the full stack (workload → NFS
//! translator → RPC transport → drive → journal → log → simulated disk)
//! exercised end to end.

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive, UserId};
use s4_detect::damage_report;
use s4_fs::server::FsError;
use s4_fs::{ls_at, read_file_at, restore_file};
use s4_fs::{FileServer, LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};
use s4_workloads::postmark::{self, PostmarkConfig};
use s4_workloads::{replay, replay_with_clock};
use s4_workloads::{sshbuild_phases, SshBuildConfig};

type Fs = S4FileServer<LoopbackTransport<TimedDisk<MemDisk>>>;

fn setup(disk_mb: u64) -> (Fs, Arc<S4Drive<TimedDisk<MemDisk>>>, SimClock) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = TimedDisk::new(
        MemDisk::with_capacity_bytes(disk_mb << 20),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    );
    let drive = Arc::new(S4Drive::format(disk, DriveConfig::default(), clock.clone()).unwrap());
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::lan_100mbit()),
        RequestContext::user(UserId(1), ClientId(1)),
        "itest",
        S4FsConfig::default(),
    )
    .unwrap();
    (fs, drive, clock)
}

#[test]
fn postmark_runs_clean_through_the_full_stack() {
    let (fs, drive, _clock) = setup(256);
    let pm = postmark::generate(&PostmarkConfig {
        nfiles: 200,
        transactions: 600,
        ..PostmarkConfig::default()
    });
    let create = replay(&fs, &pm.create);
    let txn = replay(&fs, &pm.transactions);
    let cleanup = replay(&fs, &pm.cleanup);
    assert_eq!(create.errors + txn.errors + cleanup.errors, 0);
    assert!(txn.bytes_written > 0 && txn.bytes_read > 0);
    // Every mutation left a version behind.
    let snap = drive.stats().snapshot();
    assert!(snap.versions_created > 1_000);
    assert!(snap.syncs > 1_000, "NFSv2 sync per mutating op");
}

#[test]
fn sshbuild_runs_clean_and_think_time_advances_the_clock() {
    let (fs, _drive, clock) = setup(128);
    let phases = sshbuild_phases(&SshBuildConfig::tiny());
    let unpack = replay_with_clock(&fs, &phases.unpack, &clock);
    let configure = replay_with_clock(&fs, &phases.configure, &clock);
    let build = replay_with_clock(&fs, &phases.build, &clock);
    assert_eq!(unpack.errors + configure.errors + build.errors, 0);
    // 8 sources x 10ms + 2 links x 3s of compile think time.
    assert!(build.elapsed > SimDuration::from_secs(6));
}

#[test]
fn crash_mid_workload_recovers_all_synced_state() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = TimedDisk::new(
        MemDisk::with_capacity_bytes(128 << 20),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    );
    let drive = Arc::new(S4Drive::format(disk, DriveConfig::default(), clock.clone()).unwrap());
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        "crash",
        S4FsConfig::default(),
    )
    .unwrap();

    // Run a slice of PostMark (every op is synced by the translator),
    // remember the expected state.
    let pm = postmark::generate(&PostmarkConfig {
        nfiles: 80,
        transactions: 200,
        ..PostmarkConfig::default()
    });
    assert_eq!(replay(&fs, &pm.create).errors, 0);
    assert_eq!(replay(&fs, &pm.transactions).errors, 0);
    let root = fs.root();
    let mut expected: Vec<(String, Vec<u8>)> = Vec::new();
    for (name, h, kind) in fs.readdir(root).unwrap() {
        if kind == s4_fs::FileKind::Dir {
            for (fname, fh, _) in fs.readdir(h).unwrap() {
                let size = fs.getattr(fh).unwrap().size;
                let data = fs.read(fh, 0, size).unwrap();
                expected.push((format!("{name}/{fname}"), data));
            }
        }
    }
    assert!(!expected.is_empty());
    drop(fs);

    // Power loss. All drive memory vanishes; remount from the raw device.
    let dev = Arc::into_inner(drive).unwrap().crash();
    let clock2 = SimClock::new();
    let drive2 = Arc::new(S4Drive::mount(dev, DriveConfig::default(), clock2).unwrap());
    let fs2 = S4FileServer::mount(
        LoopbackTransport::new(drive2, NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        "crash",
        S4FsConfig::default(),
    )
    .unwrap();
    for (path, want) in &expected {
        let h = fs2
            .resolve_path(path)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        let size = fs2.getattr(h).unwrap().size;
        assert_eq!(&fs2.read(h, 0, size).unwrap(), want, "{path}");
    }
}

#[test]
fn intrusion_scenario_detect_diagnose_recover() {
    let (fs, drive, clock) = setup(128);
    let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);
    let root = fs.root();

    // Legitimate state.
    let secrets = fs.create(root, "secrets.txt").unwrap();
    fs.write(secrets, 0, b"launch codes: 0000").unwrap();
    let syslog = fs.create(root, "syslog").unwrap();
    fs.write(syslog, 0, b"boot ok\nlogin alice\n").unwrap();
    clock.advance(SimDuration::from_secs(100));
    let clean_point = fs.now();
    clock.advance(SimDuration::from_secs(100));

    // Intruder (client 66, stolen user credentials) scrubs and tampers.
    let evil = S4FileServer::mount(
        LoopbackTransport::new(Arc::clone(fs.transport().drive()), NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(66)),
        "itest",
        S4FsConfig::default(),
    )
    .unwrap();
    let esyslog = evil.resolve_path("syslog").unwrap();
    evil.truncate(esyslog, 0).unwrap();
    evil.write(esyslog, 0, b"boot ok\n").unwrap(); // scrubbed
    let esecrets = evil.resolve_path("secrets.txt").unwrap();
    evil.write(esecrets, 0, b"launch codes: HAHA").unwrap();
    let attack_end = fs.now();
    clock.advance(SimDuration::from_secs(500));

    // Diagnosis: the audit log names the client and the objects.
    let report = damage_report(
        &drive,
        &admin,
        ClientId(66),
        clean_point,
        attack_end,
        SimDuration::from_secs(60),
    )
    .unwrap();
    assert!(report.modified.contains(&esyslog));
    assert!(report.modified.contains(&esecrets));

    // The scrubbed log lines are still visible at the clean point.
    assert_eq!(
        read_file_at(&fs, "syslog", clean_point).unwrap(),
        b"boot ok\nlogin alice\n"
    );
    // ls at the clean point shows pre-attack sizes.
    let listing = ls_at(&fs, "", clean_point).unwrap();
    let syslog_row = listing.iter().find(|(n, _, _)| n == "syslog").unwrap();
    assert_eq!(syslog_row.2, 20);

    // Recovery: restore both files from the history pool.
    restore_file(&fs, "secrets.txt", clean_point).unwrap();
    restore_file(&fs, "syslog", clean_point).unwrap();
    assert_eq!(
        read_file_at(&fs, "secrets.txt", fs.now()).unwrap(),
        b"launch codes: 0000"
    );
    // The intruder's version is *still there* for forensics.
    let mid_attack = read_file_at(&fs, "secrets.txt", attack_end).unwrap();
    assert_eq!(mid_attack, b"launch codes: HAHA");
}

#[test]
fn detection_window_expiry_through_the_full_stack() {
    let (fs, drive, clock) = setup(128);
    let root = fs.root();
    let f = fs.create(root, "aging.txt").unwrap();
    fs.write(f, 0, b"version-a").unwrap();
    let t_a = fs.now();
    clock.advance(SimDuration::from_secs(3600));
    fs.write(f, 0, b"version-b").unwrap();
    let t_b = fs.now();

    // Shrink the window to one hour and age past version-a's deprecation.
    let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);
    drive
        .op_set_window(&admin, SimDuration::from_secs(3600))
        .unwrap();
    clock.advance(SimDuration::from_secs(2 * 3600));
    drive.op_sync(&admin).unwrap();
    drive.expire_versions().unwrap();

    // version-a (deprecated 3h ago) is gone; version-b (current) remains.
    assert!(matches!(
        fs.read_at(f, 0, 16, t_a),
        Err(FsError::Storage(_)) | Err(FsError::NotFound)
    ));
    assert_eq!(fs.read_at(f, 0, 16, t_b).unwrap(), b"version-b");
    assert_eq!(fs.read(f, 0, 16).unwrap(), b"version-b");
}

#[test]
fn history_pool_grows_and_cleaner_reclaims_under_pressure() {
    let (fs, drive, clock) = setup(96);
    let root = fs.root();
    let f = fs.create(root, "churn.bin").unwrap();
    // Heavy overwrite churn.
    for round in 0..200u32 {
        fs.write(f, 0, &vec![round as u8; 16 * 1024]).unwrap();
    }
    let util_with_history = drive.utilization();
    // Age everything out and reclaim.
    let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);
    drive.op_set_window(&admin, SimDuration::ZERO).unwrap();
    clock.advance(SimDuration::from_secs(10));
    drive.op_sync(&admin).unwrap();
    drive.expire_versions().unwrap();
    drive.clean().unwrap();
    drive.log().free_dead_segments();
    drive.force_anchor().unwrap();
    assert!(
        drive.utilization() < util_with_history / 4.0,
        "history reclaimed: {} -> {}",
        util_with_history,
        drive.utilization()
    );
    // Data intact after cleaning.
    let data = fs.read(f, 0, 16 * 1024).unwrap();
    assert!(data.iter().all(|&b| b == 199));
}

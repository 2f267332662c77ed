//! False-positive guard for the online detectors: the paper's full
//! PostMark configuration (5,000 files / 20,000 transactions, §5.1.1)
//! is a heavy but entirely honest workload — creates, appends, reads,
//! and deletes from a single client. Running it through the standard
//! detector set must raise **zero** alerts; anything else would make
//! its alerts useless noise in production.

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive, UserId};
use s4_detect::{install_standard_monitor, read_alerts, scan_audit};
use s4_fs::{LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::MemDisk;
use s4_workloads::postmark::{generate, PostmarkConfig};
use s4_workloads::replay;

#[test]
fn clean_postmark_run_raises_no_alerts() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = Arc::new(
        S4Drive::format(
            MemDisk::with_capacity_bytes(2 << 30),
            DriveConfig::default(),
            clock.clone(),
        )
        .unwrap(),
    );
    install_standard_monitor(&drive);
    let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        "pm",
        S4FsConfig::default(),
    )
    .unwrap();

    let phases = generate(&PostmarkConfig::default());
    for trace in [&phases.create, &phases.transactions, &phases.cleanup] {
        let stats = replay(&fs, trace);
        assert_eq!(stats.errors, 0, "trace must replay cleanly");
    }

    let online = read_alerts(&drive, &admin).unwrap();
    assert!(
        online.is_empty(),
        "clean PostMark raised alerts: {online:#?}"
    );
    // The offline sweep over the same audit log must agree.
    let offline = scan_audit(&drive, &admin).unwrap();
    assert!(
        offline.is_empty(),
        "offline scan raised alerts: {offline:#?}"
    );
}

//! Figure 4: SSH-build (unpack / configure / build) for the four systems.
//!
//! Paper result: "Performance is similar across the S4 and BSD
//! configurations. The superior performance of the Linux NFS server in
//! the configure stage is due to a much lower number of write I/Os ...
//! apparently due to a flaw in the synchronous mount option."
//!
//! `scripts/verify.sh` pins the record's phase times (simulated µs) and
//! disk writes in `BENCH_fig4.json` (the workload does not scale).

use s4_bench::{banner, run_phases, secs, Record, SystemKind};
use s4_workloads::{sshbuild_phases, SshBuildConfig};

fn main() {
    let config = SshBuildConfig::default();
    banner(
        "Figure 4: SSH-build benchmark",
        &format!(
            "{} sources, {} headers, {} configure probes",
            config.sources, config.headers, config.probes
        ),
    );
    let phases = sshbuild_phases(&config);

    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>10}",
        "system", "unpack", "configure", "(cfg wIO)", "build"
    );
    let mut record = Record::new("fig4_sshbuild");
    let cfg_writes = SystemKind::ALL.map(|kind| {
        let [(unpack, _), (configure, cfg_wio), (build, _)] = run_phases(
            kind,
            [
                ("unpack", &phases.unpack[..]),
                ("configure", &phases.configure),
                ("build", &phases.build),
            ],
            &mut record,
        );
        println!(
            "{:<24} {:>10} {:>10} {:>12} {:>10}",
            kind.label(),
            secs(unpack),
            secs(configure),
            cfg_wio,
            secs(build),
        );
        cfg_wio
    });

    // Paper-shape check: the Linux sync-mount "flaw" shows up as fewer
    // configure-phase write I/Os than BSD.
    let [_, _, bsd, linux] = cfg_writes;
    println!();
    println!("configure-phase write I/Os: BSD {bsd} vs Linux {linux} (paper: Linux much lower)");
    record.emit();
}

//! Shared harness for the figure-regeneration benchmarks.
//!
//! Builds the paper's four experimental systems (§5.1.1) over the same
//! simulated substrate:
//!
//! 1. **S4 drive** (Figure 1a) — the S4 client on the workstation talks
//!    S4 RPC over the network to a network-attached object store: every
//!    S4 RPC pays the LAN cost.
//! 2. **S4-enhanced NFS server** (Figure 1b) — the NFS-to-S4 translation
//!    lives in the server: only NFS operations cross the network; S4 RPCs
//!    are server-internal.
//! 3. **FreeBSD NFS (FFS)** — update-in-place, fully synchronous
//!    metadata.
//! 4. **Linux NFS (ext2, sync)** — update-in-place with the paper's
//!    observed batched-inode "sync-mount flaw".
//!
//! The last two are one update-in-place server, the crate-private
//! `baseline` module, which only this harness builds. All four expose
//! [`s4_fs::FileServer`], are driven by identical traces, and are
//! measured on the same simulated clock.
//!
//! Every bench reports through one [`Record`]; the scale-out benches
//! share one workload, [`scaleout`]. Figure 7's capacity model is
//! [`capacity`], and Figure 2's conventional baseline is
//! [`conventional_blocks`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive, UserId};
use s4_fs::{
    FileAttr, FileKind, FileServer, FsResult, Handle, LoopbackTransport, S4FileServer, S4FsConfig,
};
use s4_lfs::BLOCK_SIZE;
use s4_simdisk::{DiskModelParams, MemDisk, StatsHandle, TimedDisk};
use s4_workloads::{replay_with_clock, FsOp, ReplayStats};

use baseline::UipServer;

mod baseline;
pub mod capacity;
mod record;
pub mod scaleout;

pub use record::{Field, Record};

/// Default simulated disk size for experiments (bytes). The paper used a
/// 9 GB drive; experiments here default to a smaller disk with the same
/// relative behavior so they run in seconds (override per-bench).
pub const DEFAULT_DISK_BYTES: u64 = 1 << 30;

/// The four benchmarked configurations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// Figure 1a: network-attached S4 drive.
    S4Drive,
    /// Figure 1b: S4-enhanced NFS server.
    S4Nfs,
    /// FreeBSD FFS NFS baseline.
    FreeBsdNfs,
    /// Linux ext2 sync NFS baseline.
    LinuxNfs,
}

impl SystemKind {
    /// All four systems in the paper's presentation order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::S4Drive,
        SystemKind::S4Nfs,
        SystemKind::FreeBsdNfs,
        SystemKind::LinuxNfs,
    ];

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::S4Drive => "S4 drive",
            SystemKind::S4Nfs => "S4-NFS server",
            SystemKind::FreeBsdNfs => "BSD-NFS (FFS)",
            SystemKind::LinuxNfs => "Linux-NFS (ext2 sync)",
        }
    }
}

/// A [`FileServer`] wrapper that charges the NFS network cost per
/// operation (used for the three server-side configurations, where only
/// NFS crosses the wire).
pub struct RemoteFs<S: FileServer> {
    inner: S,
    net: NetworkModel,
    clock: SimClock,
}

impl<S: FileServer> RemoteFs<S> {
    /// Wraps `inner`, charging `net` per operation on `clock`.
    pub fn new(inner: S, net: NetworkModel, clock: SimClock) -> Self {
        RemoteFs { inner, net, clock }
    }

    fn charge(&self, req_bytes: usize, resp_bytes: usize) {
        self.clock
            .advance(self.net.rpc_cost(64 + req_bytes, 32 + resp_bytes));
    }
}

impl<S: FileServer> FileServer for RemoteFs<S> {
    fn root(&self) -> Handle {
        self.inner.root()
    }
    fn lookup(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.charge(name.len(), 8);
        self.inner.lookup(dir, name)
    }
    fn create(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.charge(name.len(), 8);
        self.inner.create(dir, name)
    }
    fn mkdir(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.charge(name.len(), 8);
        self.inner.mkdir(dir, name)
    }
    fn symlink(&self, dir: Handle, name: &str, target: &str) -> FsResult<Handle> {
        self.charge(name.len() + target.len(), 8);
        self.inner.symlink(dir, name, target)
    }
    fn readlink(&self, file: Handle) -> FsResult<String> {
        self.charge(8, 64);
        self.inner.readlink(file)
    }
    fn read(&self, file: Handle, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        let r = self.inner.read(file, offset, len);
        if let Ok(d) = &r {
            self.charge(16, d.len());
        }
        r
    }
    fn write(&self, file: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        self.charge(data.len(), 0);
        self.inner.write(file, offset, data)
    }
    fn getattr(&self, file: Handle) -> FsResult<FileAttr> {
        self.charge(8, 64);
        self.inner.getattr(file)
    }
    fn truncate(&self, file: Handle, size: u64) -> FsResult<()> {
        self.charge(16, 0);
        self.inner.truncate(file, size)
    }
    fn remove(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.charge(name.len(), 0);
        self.inner.remove(dir, name)
    }
    fn rmdir(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.charge(name.len(), 0);
        self.inner.rmdir(dir, name)
    }
    fn rename(&self, fd: Handle, fname: &str, td: Handle, tname: &str) -> FsResult<()> {
        self.charge(fname.len() + tname.len(), 0);
        self.inner.rename(fd, fname, td, tname)
    }
    fn readdir(&self, dir: Handle) -> FsResult<Vec<(String, Handle, FileKind)>> {
        let r = self.inner.readdir(dir);
        if let Ok(es) = &r {
            self.charge(8, es.len() * 24);
        }
        r
    }
    fn now(&self) -> s4_clock::SimTime {
        self.inner.now()
    }
}

/// A fully assembled system under test.
pub(crate) struct System {
    /// The file server to drive.
    pub fs: Box<dyn FileServer>,
    /// The shared simulated clock.
    pub clock: SimClock,
    /// Disk counters.
    pub disk_stats: StatsHandle,
}

/// The benchmark client context.
pub fn bench_ctx() -> RequestContext {
    RequestContext::user(UserId(100), ClientId(1))
}

/// A simulated Cheetah (the paper's 9 GB, 10k RPM disk) of `bytes`,
/// charging its service times to `clock`.
pub fn timed_disk(bytes: u64, clock: &SimClock) -> TimedDisk<MemDisk> {
    TimedDisk::new(
        MemDisk::with_capacity_bytes(bytes),
        DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    )
}

/// An S4 drive formatted with `config` on a [`timed_disk`] of `bytes`,
/// on its own clock started at one second.
pub fn timed_drive(bytes: u64, config: DriveConfig) -> Arc<S4Drive<TimedDisk<MemDisk>>> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = timed_disk(bytes, &clock);
    Arc::new(S4Drive::format(disk, config, clock).expect("format S4 drive"))
}

/// Figure 1a over `drive`: the NFS translator on the client, every S4
/// RPC across the LAN. `name` names the file system.
pub fn lan_fs(
    drive: Arc<S4Drive<TimedDisk<MemDisk>>>,
    name: &str,
) -> S4FileServer<LoopbackTransport<TimedDisk<MemDisk>>> {
    let transport = LoopbackTransport::new(drive, NetworkModel::lan_100mbit());
    S4FileServer::mount(transport, bench_ctx(), name, S4FsConfig::default()).expect("mount S4 fs")
}

/// Builds one of the four systems on a [`timed_disk`] of
/// [`DEFAULT_DISK_BYTES`].
pub(crate) fn build_system(kind: SystemKind) -> System {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let disk = timed_disk(DEFAULT_DISK_BYTES, &clock);
    let disk_stats = disk.stats_handle();
    let lan = NetworkModel::lan_100mbit();
    let fs: Box<dyn FileServer> = match kind {
        SystemKind::S4Drive | SystemKind::S4Nfs => {
            let drive = S4Drive::format(disk, DriveConfig::default(), clock.clone())
                .expect("format S4 drive");
            // Figure 1a: S4 RPCs cross the LAN. Figure 1b: S4 RPCs are
            // server-internal; NFS ops cross the LAN instead.
            let (rpc_net, nfs_net) = match kind {
                SystemKind::S4Drive => (lan, None),
                _ => (NetworkModel::free(), Some(lan)),
            };
            let transport = LoopbackTransport::new(Arc::new(drive), rpc_net);
            let s4fs = S4FileServer::mount(transport, bench_ctx(), "bench", S4FsConfig::default())
                .expect("mount S4 fs");
            match nfs_net {
                None => Box::new(s4fs),
                Some(net) => Box::new(RemoteFs::new(s4fs, net, clock.clone())),
            }
        }
        SystemKind::FreeBsdNfs | SystemKind::LinuxNfs => {
            // FFS writes every inode update; ext2-sync batches them.
            let sync_inodes = kind == SystemKind::FreeBsdNfs;
            let uip = UipServer::format(disk, sync_inodes, clock.clone()).expect("format baseline");
            Box::new(RemoteFs::new(uip, lan, clock.clone()))
        }
    };
    System {
        fs,
        clock,
        disk_stats,
    }
}

/// Replays a trace and returns its stats (think time honored).
pub(crate) fn run_phase(system: &System, trace: &[FsOp]) -> ReplayStats {
    replay_with_clock(system.fs.as_ref(), trace, &system.clock)
}

/// Replays named `phases` in order on a fresh `kind` system: each one's
/// simulated time and disk write requests, also recorded as, e.g.,
/// `freebsdnfs_create_us` and `freebsdnfs_create_writes`.
pub fn run_phases<const N: usize>(
    kind: SystemKind,
    phases: [(&str, &[FsOp]); N],
    record: &mut Record,
) -> [(SimDuration, u64); N] {
    let sys = build_system(kind);
    phases.map(|(phase, trace)| {
        let before = sys.disk_stats.snapshot();
        let stats = run_phase(&sys, trace);
        assert_eq!(stats.errors, 0, "{kind:?} {phase} had errors");
        let writes = sys.disk_stats.snapshot().since(&before).writes;
        let key = format!("{kind:?}").to_lowercase();
        record
            .sim(format!("{key}_{phase}_us"), stats.elapsed)
            .sim(format!("{key}_{phase}_writes"), writes);
        (stats.elapsed, writes)
    })
}

/// Pretty seconds.
pub fn secs(d: SimDuration) -> String {
    format!("{:8.2}s", d.as_secs_f64())
}

/// The `S4_BENCH_SCALE` workload multiplier every bench sizes itself by
/// (e.g. `0.1` for smoke runs): 1.0 when unset or unparsable.
pub fn scale() -> f64 {
    std::env::var("S4_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// A full-scale count `full` times [`scale`], but at least the bench's
/// own `floor`.
pub fn scaled(full: usize, floor: usize) -> usize {
    ((full as f64 * scale()) as usize).max(floor)
}

/// Deterministic 64-bit LCG (same constants as MMIX): the benches' one
/// random stream.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next value (the state's high 48 bits).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Direct block pointers in a conventional (FFS-style) inode.
pub const N_DIRECT: u64 = 12;

/// Block pointers per indirect block: 4 KiB of 8-byte pointers.
pub const PTRS_PER_BLOCK: u64 = (BLOCK_SIZE / 8) as u64;

/// Metadata blocks a conventional versioning system writes to update
/// logical block `lbn` of a file (§4.2.2, Figure 2's left side). No
/// version may share metadata with the next, so the update writes a new
/// copy of every indirect block on the path to `lbn`, and a new inode:
/// one block per indirect level plus one, from 1 for a direct block to 4
/// for a triple-indirect one.
///
/// # Panics
///
/// If `lbn` lies past the triple-indirect range.
pub fn conventional_blocks(lbn: u64) -> u64 {
    // `end` is the first lbn past the pointers reached at `depth`.
    let (mut end, mut span) = (N_DIRECT, 1);
    for depth in 0..=3 {
        if lbn < end {
            return depth + 1;
        }
        span *= PTRS_PER_BLOCK;
        end += span;
    }
    panic!("lbn {lbn} beyond triple-indirect range");
}

/// Prints a standard figure header; an empty `subtitle` is left out.
pub fn banner(title: &str, subtitle: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    if !subtitle.is_empty() {
        println!("{subtitle}");
    }
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_workloads::{micro_benchmark, MicroConfig};

    const SINGLE: u64 = PTRS_PER_BLOCK;
    const DOUBLE: u64 = SINGLE * PTRS_PER_BLOCK;
    const TRIPLE: u64 = DOUBLE * PTRS_PER_BLOCK;

    #[test]
    fn conventional_blocks_change_at_every_depth_boundary() {
        assert_eq!((N_DIRECT, PTRS_PER_BLOCK), (12, 512));
        for (lbn, blocks) in [
            (0, 1),
            (11, 1),
            (12, 2),
            (523, 2),
            (524, 3),
            (N_DIRECT + SINGLE + DOUBLE - 1, 3),
            (N_DIRECT + SINGLE + DOUBLE, 4),
            (N_DIRECT + SINGLE + DOUBLE + TRIPLE - 1, 4),
        ] {
            assert_eq!(conventional_blocks(lbn), blocks, "lbn {lbn}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond triple-indirect range")]
    fn conventional_blocks_panics_past_triple_indirect() {
        conventional_blocks(N_DIRECT + SINGLE + DOUBLE + TRIPLE);
    }

    #[test]
    fn all_four_systems_run_the_same_trace() {
        let m = micro_benchmark(&MicroConfig {
            files: 30,
            dirs: 3,
            ..MicroConfig::default()
        });
        for kind in SystemKind::ALL {
            let sys = build_system(kind);
            let create = run_phase(&sys, &m.create);
            assert_eq!(create.errors, 0, "{kind:?} create errors");
            let read = run_phase(&sys, &m.read);
            assert_eq!(read.errors, 0, "{kind:?} read errors");
            assert_eq!(read.bytes_read, 30 * 1024, "{kind:?}");
            let delete = run_phase(&sys, &m.delete);
            assert_eq!(delete.errors, 0, "{kind:?} delete errors");
            assert!(create.elapsed > SimDuration::ZERO, "{kind:?} costs time");
        }
    }

    #[test]
    fn s4_drive_pays_more_network_than_s4_nfs() {
        // Config (a) sends several S4 RPCs per NFS op across the LAN;
        // config (b) sends one NFS op. With identical storage, (a) should
        // be slower on a metadata-heavy trace.
        let m = micro_benchmark(&MicroConfig {
            files: 60,
            dirs: 2,
            ..MicroConfig::default()
        });
        let create = |kind| run_phase(&build_system(kind), &m.create).elapsed;
        let (ta, tb) = (create(SystemKind::S4Drive), create(SystemKind::S4Nfs));
        assert!(ta > tb, "S4-drive {ta:?} vs S4-NFS {tb:?}");
    }
}

//! What the four workloads share: the run plan, disk images and their
//! wrappers, the closed-loop phase clock, measurement-window snapshots,
//! and the per-repetition result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use s4_clock::SimClock;
use s4_core::{S4Drive, StatsSnapshot};
use s4_simdisk::{DiskModelParams, FileDisk, StatsHandle, TimedDisk, SECTOR_SIZE};

use crate::procfs;
use crate::trace::Span;
use crate::wrap::{CountDisk, DiskCounters, DiskCounts, DynDisk, SpanDisk};

/// The drive type every workload builds.
pub type Drive = S4Drive<DynDisk>;

/// How one repetition is to be run.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Warm-up before the timed phase, seconds.
    pub warm_s: f64,
    /// Length of the timed phase, seconds (an op cap may end it sooner).
    pub timed_s: f64,
    /// Reduced preload and op caps, for `--smoke`.
    pub smoke: bool,
    /// Directory for disk images; created and removed by the run.
    pub scratch: PathBuf,
}

impl Plan {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// The result of one repetition.
#[derive(Default)]
pub struct RepOut {
    /// Per-repetition metric values, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Latency samples in nanoseconds, by sample class (`op`, `read`,
    /// `write`, `sync`, `batch`, `histread`, `clean`, `anchor_sync`).
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// Client ops attempted in the timed phase, plus verification reads.
    pub attempted: u64,
    /// Of those, the ones that failed, were refused, or did not verify.
    pub failed: u64,
    /// What ended the timed phase: `time` or `ops`.
    pub ended_by: &'static str,
    /// Spans of a traced repetition.
    pub spans: Vec<Span>,
    /// First few failure descriptions, for the operator.
    pub notes: Vec<String>,
    /// The timed phase on the span recorder's clock.
    pub windows_ns: Vec<(u64, u64)>,
    /// Layer table of a traced repetition, µs per op (see `layers`).
    pub table: Vec<(&'static str, f64)>,
}

impl RepOut {
    pub fn set(&mut self, name: &'static str, v: f64) {
        if v.is_finite() {
            self.values.insert(name, v);
        }
    }

    pub fn set_opt(&mut self, name: &'static str, v: Option<f64>) {
        if let Some(v) = v {
            self.set(name, v);
        }
    }

    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Records a failed check outside the timed loop.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }
}

/// Sparse `FileDisk` images named `*.s4`, removed on drop.
pub struct Images {
    dir: PathBuf,
    paths: Vec<PathBuf>,
}

impl Images {
    pub fn new(dir: &Path) -> std::io::Result<Images> {
        std::fs::create_dir_all(dir)?;
        Ok(Images {
            dir: dir.to_path_buf(),
            paths: Vec::new(),
        })
    }

    /// Creates image number `n` of `bytes` bytes.
    pub fn create(&mut self, n: usize, bytes: u64) -> Result<FileDisk, String> {
        let path = self.dir.join(format!("disk{n}.s4"));
        let disk = FileDisk::create(&path, bytes / SECTOR_SIZE as u64)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        if !self.paths.contains(&path) {
            self.paths.push(path);
        }
        Ok(disk)
    }
}

impl Drop for Images {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A wrapped device and the handles that outlive its move into a drive.
pub struct Wrapped {
    pub disk: DynDisk,
    pub counters: DiskCounters,
    /// Present when the Cheetah model is stacked on top (`sim.*`).
    pub sim: Option<StatsHandle>,
}

/// Stacks the pass's wrappers on a file-backed device: `CountDisk`
/// untraced, `SpanDisk` traced, and — for the traced lone-drive pass —
/// the Cheetah `TimedDisk` on top, charging `sim_clock`.
pub fn wrap_disk(file: FileDisk, traced: bool, dev: u32, sim_clock: Option<&SimClock>) -> Wrapped {
    if !traced {
        let d = CountDisk::new(file);
        let counters = d.counters();
        return Wrapped {
            disk: DynDisk::new(d),
            counters,
            sim: None,
        };
    }
    let d = SpanDisk::new(file, dev);
    let counters = d.counters();
    match sim_clock {
        None => Wrapped {
            disk: DynDisk::new(d),
            counters,
            sim: None,
        },
        Some(clock) => {
            let timed = TimedDisk::new(d, DiskModelParams::cheetah_9gb_10k(), clock.clone());
            let sim = timed.stats_handle();
            Wrapped {
                disk: DynDisk::new(timed),
                counters,
                sim: Some(sim),
            }
        }
    }
}

/// The drive counters the per-layer metrics are built from, summed over
/// the member drives of the system under test.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCounts {
    pub requests: u64,
    pub syncs: u64,
    pub versions: u64,
    pub checkpoints: u64,
    pub audit_blocks: u64,
    pub anchors: u64,
    pub journal_sectors: u64,
    pub relocations: u64,
    pub segments: u64,
}

impl CoreCounts {
    fn zip(&self, o: &CoreCounts, f: impl Fn(u64, u64) -> u64) -> CoreCounts {
        CoreCounts {
            requests: f(self.requests, o.requests),
            syncs: f(self.syncs, o.syncs),
            versions: f(self.versions, o.versions),
            checkpoints: f(self.checkpoints, o.checkpoints),
            audit_blocks: f(self.audit_blocks, o.audit_blocks),
            anchors: f(self.anchors, o.anchors),
            journal_sectors: f(self.journal_sectors, o.journal_sectors),
            relocations: f(self.relocations, o.relocations),
            segments: f(self.segments, o.segments),
        }
    }

    pub fn of(drives: &[Arc<Drive>]) -> CoreCounts {
        let mut c = CoreCounts::default();
        for d in drives {
            let s: StatsSnapshot = d.stats().snapshot();
            c.requests += s.requests;
            c.syncs += s.syncs;
            c.versions += s.versions_created;
            c.checkpoints += s.checkpoints;
            c.audit_blocks += s.audit_blocks;
            c.anchors += s.anchors;
            c.journal_sectors += s.journal_sectors;
            c.relocations += s.cleaner_relocations;
            c.segments += s.cleaner_segments;
        }
        c
    }
}

/// Everything sampled at the two edges of the timed phase.
pub struct Snap {
    pub at: Instant,
    /// The same instant on the span recorder's clock.
    pub trace_ns: u64,
    pub cpu_us: Option<u64>,
    pub ctx_switches: Option<u64>,
    /// `(stolen, total)` machine-wide CPU ticks.
    pub machine: Option<(u64, u64)>,
    pub disk: DiskCounts,
    pub core: CoreCounts,
}

impl Snap {
    pub fn take(counters: &[DiskCounters], drives: &[Arc<Drive>]) -> Snap {
        Snap {
            at: Instant::now(),
            trace_ns: crate::trace::now_ns(),
            cpu_us: procfs::cpu_us(),
            ctx_switches: procfs::voluntary_ctx_switches(),
            machine: procfs::machine_ticks(),
            disk: counters
                .iter()
                .fold(DiskCounts::default(), |acc, c| acc.plus(&c.snapshot())),
            core: CoreCounts::of(drives),
        }
    }
}

/// What happened between the two edges of the timed phase.
pub struct Window {
    pub seconds: f64,
    /// `None` where an edge could not read `/proc`.
    pub cpu_us: Option<u64>,
    pub ctx_switches: Option<u64>,
    /// Machine-wide CPU ticks stolen by the hypervisor, and all ticks.
    pub stolen: Option<u64>,
    pub machine_ticks: Option<u64>,
    pub disk: DiskCounts,
    pub core: CoreCounts,
    /// The phase on the span recorder's clock.
    pub span_ns: (u64, u64),
}

impl Window {
    pub fn between(before: &Snap, after: &Snap) -> Window {
        let delta = |a: Option<u64>, b: Option<u64>| Some(a?.saturating_sub(b?));
        Window {
            seconds: (after.at - before.at).as_secs_f64(),
            cpu_us: delta(after.cpu_us, before.cpu_us),
            ctx_switches: delta(after.ctx_switches, before.ctx_switches),
            stolen: delta(after.machine.map(|m| m.0), before.machine.map(|m| m.0)),
            machine_ticks: delta(after.machine.map(|m| m.1), before.machine.map(|m| m.1)),
            disk: after.disk.since(&before.disk),
            core: after.core.zip(&before.core, |a, b| a - b),
            span_ns: (before.trace_ns, after.trace_ns),
        }
    }
}

/// What the clients did in the timed phase, summed over clients.
#[derive(Default)]
pub struct ClientTotals {
    /// Ops completed and verified.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Payload bytes of acknowledged writes.
    pub user_bytes: u64,
    /// RPCs the clients sent to the layer below them.
    pub rpcs: u64,
    /// Of those, `Sync` RPCs.
    pub sync_rpcs: u64,
    /// Request bytes handed to the transport (TCP workload only).
    pub req_bytes: u64,
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    pub notes: Vec<String>,
}

/// One client's record of the timed phase.
#[derive(Default)]
pub struct ClientLog {
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub user_bytes: u64,
    pub rpcs: u64,
    pub sync_rpcs: u64,
    /// Request bytes handed to the transport (TCP workload only).
    pub req_bytes: u64,
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    pub notes: Vec<String>,
}

impl ClientLog {
    pub fn sample(&mut self, class: &'static str, d: Duration) {
        self.samples
            .entry(class)
            .or_insert_with(|| Vec::with_capacity(1 << 16))
            .push(d.as_nanos() as u64);
    }

    /// Records one timed client op that ran from `start` to `end`.
    /// `err` is `None` for an op that completed and verified.
    pub fn op(&mut self, start: Instant, end: Instant, err: Option<String>) {
        self.attempted += 1;
        match err {
            None => {
                self.ops += 1;
                self.sample("op", end - start);
            }
            Some(e) => {
                self.failed += 1;
                if self.notes.len() < 4 {
                    self.notes.push(e);
                }
            }
        }
    }
}

impl ClientTotals {
    /// Sums the logs of every client.
    pub fn of(logs: Vec<ClientLog>) -> ClientTotals {
        let mut t = ClientTotals::default();
        for l in logs {
            t.ops += l.ops;
            t.attempted += l.attempted;
            t.failed += l.failed;
            t.user_bytes += l.user_bytes;
            t.rpcs += l.rpcs;
            t.sync_rpcs += l.sync_rpcs;
            t.req_bytes += l.req_bytes;
            for (class, mut v) in l.samples {
                t.samples.entry(class).or_default().append(&mut v);
            }
            t.notes.extend(l.notes);
        }
        t
    }
}

/// The warm-up and timed phase of a multi-client repetition: runs
/// `body` once per client on its own thread while the coordinator
/// conducts the phase clock. Returns what the clients did, what the
/// counters saw between the edges of the timed phase, and what ended it.
pub fn run_clients<C: Send>(
    plan: &Plan,
    cap: u64,
    clients: &mut [C],
    snap: &(dyn Fn() -> Snap + Sync),
    body: &(dyn Fn(usize, &mut C, &Phase, &mut ClientLog) + Sync),
) -> (ClientTotals, Window, &'static str) {
    let phase = Phase::new(cap);
    let (logs, (before, after, ended_by)) = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let phase = &phase;
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    body(i, client, phase, &mut log);
                    log
                })
            })
            .collect();
        let conducted = phase.conduct(plan.warm_s, plan.timed_s, snap);
        let logs: Vec<ClientLog> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        (logs, conducted)
    });
    (
        ClientTotals::of(logs),
        Window::between(&before, &after),
        ended_by,
    )
}

const WARM: u8 = 0;
const TIMED: u8 = 1;
const STOP: u8 = 2;

/// The phase clock the client threads watch: warm-up, timed, stop. The
/// timed phase ends at the coordinator's deadline or when the clients
/// have completed `cap` timed ops, whichever comes first.
pub struct Phase {
    state: AtomicU8,
    done: AtomicU64,
    cap: u64,
}

impl Phase {
    pub fn new(cap: u64) -> Phase {
        Phase {
            state: AtomicU8::new(WARM),
            done: AtomicU64::new(0),
            cap,
        }
    }

    pub fn stopped(&self) -> bool {
        self.state.load(Ordering::Acquire) == STOP
    }

    pub fn timed(&self) -> bool {
        self.state.load(Ordering::Acquire) == TIMED
    }

    /// A client completed one timed op; stops the phase at the cap.
    pub fn completed(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 >= self.cap {
            self.state.store(STOP, Ordering::Release);
        }
    }

    /// Coordinator side: sleeps through warm-up, opens the timed phase,
    /// closes it at the deadline or the cap. `snap` is called at both
    /// edges. Returns the two snapshots and what ended the phase.
    pub fn conduct(
        &self,
        warm_s: f64,
        timed_s: f64,
        snap: &dyn Fn() -> Snap,
    ) -> (Snap, Snap, &'static str) {
        std::thread::sleep(Duration::from_secs_f64(warm_s));
        let before = snap();
        self.state.store(TIMED, Ordering::Release);
        let deadline = before.at + Duration::from_secs_f64(timed_s);
        let mut ended_by = "time";
        loop {
            let now = Instant::now();
            if self.stopped() {
                ended_by = "ops";
                break;
            }
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(2)));
        }
        self.state.store(STOP, Ordering::Release);
        (before, snap(), ended_by)
    }
}

/// Fills the metrics every workload derives the same way from the
/// timed window and the client totals.
pub fn common_values(out: &mut RepOut, w: &Window, t: &ClientTotals) {
    let ops = t.ops.max(1) as f64;
    let (disk, core) = (&w.disk, &w.core);
    out.windows_ns = vec![w.span_ns];
    out.set("ops_per_s", t.ops as f64 / w.seconds);
    out.set("disk_bytes", disk.write_bytes as f64);
    out.set("disk_ios", (disk.reads + disk.writes + disk.syncs) as f64);
    out.set("failed_frac", t.failed as f64 / t.attempted.max(1) as f64);
    out.set("ops", t.ops as f64);
    out.set_opt("cpu_us", w.cpu_us.map(|c| c as f64));
    out.set_opt(
        "proc.vol_ctx_switches_per_op",
        w.ctx_switches.map(|c| c as f64 / ops),
    );
    if let (Some(stolen), Some(all)) = (w.stolen, w.machine_ticks) {
        out.set("proc.steal_frac", stolen as f64 / all.max(1) as f64);
    }
    if t.user_bytes > 0 {
        out.set("write_amp", disk.write_bytes as f64 / t.user_bytes as f64);
    }
    if t.rpcs > 0 {
        out.set(
            "array.member_rpcs_per_client_rpc",
            core.requests as f64 / t.rpcs as f64,
        );
    }
    out.set("core.log_flushes_per_op", core.syncs as f64 / ops);
    out.set("core.versions_per_op", core.versions as f64 / ops);
    out.set("core.checkpoints_per_op", core.checkpoints as f64 / ops);
    out.set(
        "core.audit_blocks_per_kop",
        core.audit_blocks as f64 * 1000.0 / ops,
    );
    out.set("core.anchors_per_kop", core.anchors as f64 * 1000.0 / ops);
    out.set("journal.sectors_per_op", core.journal_sectors as f64 / ops);
    out.set("simdisk.writes_per_op", disk.writes as f64 / ops);
    out.set("simdisk.write_bytes_per_op", disk.write_bytes as f64 / ops);
    out.set("simdisk.reads_per_op", disk.reads as f64 / ops);
    out.set("simdisk.read_bytes_per_op", disk.read_bytes as f64 / ops);
    if t.sync_rpcs > 0 {
        out.set(
            "simdisk.dev_syncs_per_sync_rpc",
            disk.syncs as f64 / t.sync_rpcs as f64,
        );
    }
}

/// A response in a few words: payloads are not worth a log line.
pub fn brief(r: &s4_core::Result<s4_core::Response>) -> String {
    match r {
        Ok(s4_core::Response::Data(d)) => format!("{} bytes that do not match the oracle", d.len()),
        Ok(other) => format!("unexpected response {other:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Moves the client totals into the repetition result.
pub fn absorb(out: &mut RepOut, t: ClientTotals) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    for (class, mut v) in t.samples {
        out.samples.entry(class).or_default().append(&mut v);
    }
    for n in t.notes {
        out.note(n);
    }
}

//! `drive_churn_recover`: one thread against a lone `S4Drive` — no
//! array, no TCP — with a working set four times both caches, a short
//! detection window so versions expire and the cleaner works in the
//! foreground, then the administrator's recovery path: historical reads
//! of every object, an audit-log scan, and a crash → remount → read-back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{
    AuditState, ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive,
    UserId, AUDIT_OBJECT,
};
use s4_simdisk::MemDisk;

use crate::gen::{stream_seed, ChurnGen};
use crate::harness::{
    absorb, brief, common_values, wrap_disk, ClientLog, ClientTotals, Drive, Images, Plan, RepOut,
    Snap, Window,
};
use crate::oracle::{BlockVersions, BLOCK};
use crate::trace;

pub const IMAGE_BYTES: u64 = 256 << 20;
pub const OBJECTS: usize = 4000;
pub const OBJECT_BLOCKS: usize = 2;
pub const WINDOW_S: u64 = 5;
/// The cleaner runs in the foreground every this many ops.
pub const CLEAN_EVERY: u64 = 500;
/// Simulated time the bench advances between ops.
const STEP_US: u64 = 1_000;
const AUDIT_CHUNK: u64 = 1 << 20;
/// Warm-up is counted in ops, not seconds, so the timed phase always
/// starts from the same drive state: the log has wrapped (the cleaner
/// is copying, not just expiring) and the detection window is full.
const WARM_OPS: usize = 12_000;
/// Timed ops of a traced repetition (see `run_rep`).
const TRACED_OPS: usize = 5_000;
/// Acknowledged write+sync pairs between the last anchor and the crash:
/// what the mount has to replay.
const TAIL_OPS: usize = 500;

/// Segments the foreground cleaner keeps free or pending-free: an
/// eighth of the image, several times what `CLEAN_EVERY` ops consume.
pub const FREE_TARGET: u32 = 64;

/// The workload's drive: for `OBJECTS` objects an 8 MiB block cache and
/// 1 024 object-cache entries, a quarter of the live data each; both
/// shrink with the object count under `--smoke`.
pub fn drive_config(objects: usize) -> DriveConfig {
    let scaled = |full: usize| full * objects / OBJECTS;
    let mut cfg = DriveConfig::default();
    cfg.log.cache_blocks = scaled(2048);
    cfg.object_cache_entries = scaled(1024);
    cfg.detection_window = SimDuration::from_secs(WINDOW_S);
    cfg.cleaner.min_free_target = FREE_TARGET;
    cfg
}

/// One round of foreground maintenance, the discipline of the Figure 5
/// bench: expire, then clean until the free-segment target holds.
/// Cleaning yields *pending-free* segments, which only an anchor turns
/// into allocatable ones, so an anchor is forced whenever the
/// allocatable count runs low — before copying (which consumes them) and
/// before handing the drive back to the foreground. Returns the longest
/// anchor it forced (these are the workload's only anchors: they come
/// more often than the drive's own every-2 048-syncs one would).
fn maintain(drive: &Drive) -> s4_core::Result<Duration> {
    let mut longest = Duration::ZERO;
    let mut anchor = || -> s4_core::Result<()> {
        let t0 = Instant::now();
        drive.force_anchor()?;
        longest = longest.max(t0.elapsed());
        Ok(())
    };
    drive.expire_versions()?;
    loop {
        let usage = drive.log().usage_snapshot();
        if usage.free_segments() + usage.pending_free_segments() >= FREE_TARGET {
            break;
        }
        if drive.free_segments() < 8 {
            anchor()?;
        }
        let o = drive.clean()?;
        if o.dead_freed + o.copied_segments == 0 {
            break;
        }
    }
    if drive.free_segments() < FREE_TARGET / 2 {
        anchor()?;
    }
    Ok(longest)
}

/// The lone drive and the bench's count of requests sent to it.
struct Client {
    drive: Arc<Drive>,
    sent: u64,
}

impl Client {
    fn call(&mut self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        self.sent += 1;
        trace::span("dispatch", 0, None, || self.drive.dispatch(ctx, req))
    }
}

fn expect_ok(r: s4_core::Result<Response>, what: &str) -> Result<(), String> {
    match r {
        Ok(Response::Ok) => Ok(()),
        other => Err(format!("{what}: {other:?}")),
    }
}

pub fn run_rep(plan: &Plan, rep: usize, traced: bool) -> Result<RepOut, String> {
    let objects = plan.size(OBJECTS, 400);
    let warm_ops = plan.size(WARM_OPS, 500) as u64;
    // Untraced: the clock ends the phase, the cap is a backstop. Traced:
    // a fixed op count ends it, so the simulated-disk counts repeat
    // exactly; the clock is the backstop.
    let (cap, timed_s) = if traced {
        (plan.size(TRACED_OPS, 1000) as u64, plan.timed_s * 4.0)
    } else {
        (plan.size(400_000, 400_000) as u64, plan.timed_s)
    };
    let cfg = drive_config(objects);
    let mut out = RepOut::default();

    // ---- set-up: format and preload ---------------------------------
    let t_setup = Instant::now();
    let mut images = Images::new(&plan.scratch).map_err(|e| e.to_string())?;
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let file = images.create(0, IMAGE_BYTES)?;
    let w = wrap_disk(file, traced, 0, traced.then_some(&clock));
    let drive = Arc::new(S4Drive::format(w.disk, cfg, clock.clone()).map_err(|e| e.to_string())?);
    let user = RequestContext::user(UserId(1), ClientId(1));
    let admin = RequestContext::admin(ClientId(9), cfg.admin_token);
    let mut client = Client { drive, sent: 0 };
    let mut oracle = BlockVersions::new(objects, OBJECT_BLOCKS);
    let mut oids = Vec::with_capacity(objects);
    for obj in 0..objects {
        let oid = match client.call(&user, &Request::Create) {
            Ok(Response::Created(oid)) => oid,
            other => return Err(format!("preload create: {other:?}")),
        };
        let data = oracle.object_bytes(obj);
        expect_ok(
            client.call(
                &user,
                &Request::Write {
                    oid,
                    offset: 0,
                    data,
                },
            ),
            "preload write",
        )?;
        if obj % 64 == 63 {
            expect_ok(client.call(&user, &Request::Sync), "preload sync")?;
        }
        oids.push(oid);
    }
    expect_ok(client.call(&user, &Request::Sync), "preload sync")?;
    out.set("setup_s", t_setup.elapsed().as_secs_f64());

    // ---- churn -------------------------------------------------------
    // `history[i]` is the block op i overwrote; `boundary[i]` the
    // simulated time after i ops — together they give the oracle's
    // state at any op boundary without keeping snapshots.
    let mut gen = ChurnGen::new(stream_seed(plan.seed, rep, 0), objects, OBJECT_BLOCKS);
    let mut history: Vec<(u32, u8)> = Vec::new();
    let mut boundary: Vec<u64> = vec![clock.now().as_micros()];
    clock.advance(SimDuration::from_micros(STEP_US));

    let counters = [w.counters.clone()];
    let drives = [client.drive.clone()];
    let snap = || Snap::take(&counters, &drives);
    let mut log = ClientLog::default();
    let mut before: Option<Snap> = None;
    let mut sim_before = None;
    let mut clean_time = Duration::ZERO;
    let mut free_min = u32::MAX;
    let mut anchor_max = Duration::ZERO;
    let mut deadline = Instant::now();
    let mut ended_by = "ops";
    let mut n: u64 = 0;
    loop {
        if before.is_none() && n == warm_ops {
            let s = snap();
            deadline = s.at + Duration::from_secs_f64(timed_s);
            sim_before = w.sim.as_ref().map(|h| (h.snapshot(), clock.now()));
            before = Some(s);
        }
        let timed = before.is_some();
        if timed && log.attempted >= cap {
            break;
        }
        if timed && Instant::now() >= deadline {
            ended_by = "time";
            break;
        }
        let (obj, block) = gen.next().expect("endless stream");
        let data = oracle.next_payload(obj, block);
        let write = Request::Write {
            oid: oids[obj],
            offset: (block * BLOCK) as u64,
            data,
        };
        let t0 = Instant::now();
        let (r_write, t_mid, r_sync) = trace::span("op", 0, None, || {
            let r_write = client.call(&user, &write);
            let t_mid = Instant::now();
            (r_write, t_mid, client.call(&user, &Request::Sync))
        });
        let t1 = Instant::now();
        let err = expect_ok(r_write, "write")
            .and_then(|()| expect_ok(r_sync, "sync"))
            .err();
        if err.is_some() {
            oracle.undo(obj, block);
        } else {
            history.push((obj as u32, block as u8));
            boundary.push(clock.now().as_micros());
        }
        if timed {
            if err.is_none() {
                log.user_bytes += BLOCK as u64;
                log.sample("write", t_mid - t0);
                log.sample("sync", t1 - t_mid);
            }
            log.rpcs += 2;
            log.sync_rpcs += 1;
            log.op(t0, t1, err);
        }
        clock.advance(SimDuration::from_micros(STEP_US));
        n += 1;

        if n.is_multiple_of(CLEAN_EVERY) {
            free_min = free_min.min(client.drive.free_segments());
            let c0 = Instant::now();
            let cleaned = trace::span("clean", 0, None, || maintain(&client.drive));
            let took = c0.elapsed();
            if timed {
                clean_time += took;
                log.sample("clean", took);
            }
            match cleaned {
                Ok(anchor) if timed => anchor_max = anchor_max.max(anchor),
                Ok(_) => {}
                Err(e) => out.check(false, || format!("cleaner: {e}")),
            }
        }
    }
    let before = before.expect("timed phase opened");
    let after = snap();
    out.ended_by = ended_by;
    let totals = ClientTotals::of(vec![log]);
    let window = Window::between(&before, &after);
    common_values(&mut out, &window, &totals);
    let kops = totals.ops.max(1) as f64 / 1000.0;
    out.set(
        "lfs.cleaner_time_frac",
        clean_time.as_secs_f64() / window.seconds,
    );
    out.set(
        "lfs.relocated_blocks_per_kop",
        window.core.relocations as f64 / kops,
    );
    out.set(
        "lfs.segments_reclaimed_per_kop",
        window.core.segments as f64 / kops,
    );
    if free_min != u32::MAX {
        out.set("lfs.free_segments_min", f64::from(free_min));
    }
    out.set("lfs.utilization_end", client.drive.utilization());
    if anchor_max > Duration::ZERO {
        out.set("core.anchor_max_ms", anchor_max.as_secs_f64() * 1e3);
    }
    if let (Some(handle), Some((sim0, t0))) = (&w.sim, sim_before) {
        let sim = handle.snapshot().since(&sim0);
        let sim_s = clock.now().saturating_since(t0).as_secs_f64();
        out.set(
            "sim.disk_busy_us_per_op",
            sim.busy_us as f64 / totals.ops.max(1) as f64,
        );
        out.set("sim.ops_per_sim_s", totals.ops as f64 / sim_s);
    }
    absorb(&mut out, totals);

    // ---- recover: every object as of t*, half a window ago ------------
    let half_window = WINDOW_S * 1_000_000 / 2;
    let target = clock.now().as_micros().saturating_sub(half_window);
    let k = boundary
        .partition_point(|&b| b + STEP_US / 2 <= target)
        .max(1)
        - 1;
    let t_star = SimTime::from_micros(boundary[k] + STEP_US / 2);
    let mut then = BlockVersions::new(objects, OBJECT_BLOCKS);
    for &(obj, block) in &history[..k] {
        then.bump(obj as usize, block as usize);
    }
    let mut hist = Vec::with_capacity(objects);
    let t_recover = Instant::now();
    let verified = read_all(
        &mut out,
        &then,
        &oids,
        ("historical read", "core.histread_bad_blocks"),
        Some(t_star),
        |req| {
            let h0 = Instant::now();
            let r = trace::span("histread", 0, None, || client.call(&admin, req));
            hist.push(h0.elapsed().as_nanos() as u64);
            r
        },
    );
    out.set(
        "recover_objs_per_s",
        verified as f64 / t_recover.elapsed().as_secs_f64(),
    );
    out.samples.insert("histread", hist);

    // ---- audit scan: every request the bench ever sent is on record ---
    let t_audit = Instant::now();
    let (mut offset, mut records) = (0u64, 0u64);
    let mut expected;
    let mut carry: Vec<u8> = Vec::new();
    loop {
        expected = client.sent;
        let req = Request::Read {
            oid: AUDIT_OBJECT,
            offset,
            len: AUDIT_CHUNK,
            time: None,
        };
        let data = match client.call(&admin, &req) {
            Ok(Response::Data(d)) => d,
            other => {
                out.check(false, || format!("audit scan at {offset}: {other:?}"));
                break;
            }
        };
        offset += data.len() as u64;
        let short = (data.len() as u64) < AUDIT_CHUNK;
        carry.extend_from_slice(&data);
        // Whole blocks decode as blocks; what is left after the last
        // read is the drive's unflushed tail of bare records.
        let whole = carry.len() / BLOCK * BLOCK;
        let keep = if short { carry.len() } else { whole };
        for chunk in carry[..keep].chunks(BLOCK) {
            records += AuditState::decode_block(chunk).map_or(0, |r| r.len() as u64);
        }
        carry.drain(..keep);
        if short {
            break;
        }
    }
    out.set(
        "client.audit_scan_recs_per_s",
        records as f64 / t_audit.elapsed().as_secs_f64(),
    );
    out.check(records == expected, || {
        format!("audit log holds {records} records, bench sent {expected} requests")
    });

    // ---- power loss TAIL_OPS acknowledged ops after an anchor ----------
    if let Err(e) = checkpoint_and_anchor(&mut client, &user, &oids, cfg.object_cache_entries) {
        out.check(false, || format!("checkpoint pass before the crash: {e}"));
    }
    for _ in 0..plan.size(TAIL_OPS, 100) {
        let (obj, block) = gen.next().expect("endless stream");
        let write = Request::Write {
            oid: oids[obj],
            offset: (block * BLOCK) as u64,
            data: oracle.next_payload(obj, block),
        };
        let r = client
            .call(&user, &write)
            .and_then(|_| client.call(&user, &Request::Sync));
        if r.is_err() {
            oracle.undo(obj, block);
        }
        out.check(r.is_ok(), || format!("write+sync before the crash: {r:?}"));
        clock.advance(SimDuration::from_micros(STEP_US));
    }

    // ---- crash, remount, read everything back -------------------------
    let Client { drive, .. } = client;
    drop(drives);
    let drive = Arc::try_unwrap(drive).map_err(|_| "drive still shared at crash")?;
    let t_mount = Instant::now();
    let dev = drive.crash();
    let mounted = trace::span("mount", 0, None, || {
        S4Drive::mount_with_report(dev, cfg, clock.clone())
    });
    let (drive, report) = mounted.map_err(|e| format!("remount: {e}"))?;
    out.set("remount_s", t_mount.elapsed().as_secs_f64());
    out.set("lfs.mount_replayed_batches", report.replayed_batches as f64);
    read_all(
        &mut out,
        &oracle,
        &oids,
        ("read-back after remount", "core.remount_bad_blocks"),
        None,
        |req| drive.dispatch(&user, req),
    );
    drop(drive);
    out.spans = trace::drain();
    Ok(out)
}

/// Touches every object so that each one the drive holds in its object
/// cache is evicted — which writes its metadata checkpoint — at least
/// once, then forces an anchor. At the seed this is what makes the
/// drive's state survive the crash that follows: `expire_versions`
/// trims the journal of an object that stays cached without rewriting
/// its checkpoint, and a mount rebuilds such an object stale (README,
/// seed observations). Eviction happens in `Sync`, least recently used
/// first, so one pass over all objects plus one over the first
/// cache-full leaves nothing cached that the first pass did not evict.
fn checkpoint_and_anchor(
    client: &mut Client,
    ctx: &RequestContext,
    oids: &[ObjectId],
    cache_entries: usize,
) -> Result<(), String> {
    let again = &oids[..cache_entries.min(oids.len())];
    for (i, &oid) in oids.iter().chain(again).enumerate() {
        client
            .call(ctx, &Request::GetAttr { oid, time: None })
            .map_err(|e| format!("getattr: {e}"))?;
        if i % 256 == 255 {
            expect_ok(client.call(ctx, &Request::Sync), "sync")?;
        }
    }
    expect_ok(client.call(ctx, &Request::Sync), "sync")?;
    client
        .drive
        .force_anchor()
        .map_err(|e| format!("anchor: {e}"))
}

/// Wrong blocks, per check and repetition, that are put down to the
/// seed's known defects (README, seed observations) and reported under
/// `core.*_bad_blocks` instead of failing the run: 0.1 % of the blocks
/// checked, at least twice the most the seed has shown with the checkpoint
/// pass in place. One block more and every one of them is a failed op.
const KNOWN_DEFECT_BLOCKS: u64 = 8;

/// Reads every object whole (as of `time`) through `read` and checks
/// every block against `versions`. A read that fails or comes back short
/// is a failed op; so is every object holding a wrong block, unless the
/// wrong blocks number `KNOWN_DEFECT_BLOCKS` or fewer, in which case
/// they are only counted under `metric`. Returns the objects verified:
/// an object with a wrong block is never one of them.
fn read_all(
    out: &mut RepOut,
    versions: &BlockVersions,
    oids: &[ObjectId],
    (what, metric): (&str, &'static str),
    time: Option<SimTime>,
    mut read: impl FnMut(&Request) -> s4_core::Result<Response>,
) -> u64 {
    let len = OBJECT_BLOCKS * BLOCK;
    let mut verified = 0;
    let mut wrong: Vec<(usize, u64)> = Vec::new();
    for (obj, &oid) in oids.iter().enumerate() {
        let r = read(&Request::Read {
            oid,
            offset: 0,
            len: len as u64,
            time,
        });
        match &r {
            Ok(Response::Data(d)) if d.len() == len => {
                let bad = (0..OBJECT_BLOCKS)
                    .filter(|&b| !versions.verify(obj, b, &d[b * BLOCK..(b + 1) * BLOCK], BLOCK))
                    .count() as u64;
                if bad == 0 {
                    verified += 1;
                    out.attempted += 1;
                } else {
                    wrong.push((obj, bad));
                }
            }
            _ => out.check(false, || format!("{what} of object {obj}: {}", brief(&r))),
        }
    }
    let blocks: u64 = wrong.iter().map(|w| w.1).sum();
    out.set(metric, blocks as f64);
    let tolerated = blocks <= KNOWN_DEFECT_BLOCKS;
    for (obj, bad) in wrong {
        let msg = format!("{what} of object {obj}: {bad} blocks do not match the oracle");
        if tolerated {
            out.attempted += 1;
            out.note(format!("{msg} (known seed defect, counted in {metric})"));
        } else {
            out.check(false, || msg);
        }
    }
    verified
}

/// `core.expire_mount_lost_versions`: the seed's `expire_versions` →
/// mount data loss as a number, on the smallest case that shows it (an
/// in-memory device, one object, a 1 s window). Four acknowledged
/// versions of one block, two `expire_versions` calls, then an orderly
/// `unmount` and `mount`; the value is 4 minus the version read back,
/// 0 on a drive that keeps what it acknowledged.
pub fn expire_mount_probe(out: &mut RepOut) -> Result<(), String> {
    let mut cfg = DriveConfig::small_test();
    cfg.detection_window = SimDuration::from_secs(1);
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let err = |e: s4_core::S4Error| format!("expire/mount probe: {e}");
    let drive =
        S4Drive::format(MemDisk::with_capacity_bytes(16 << 20), cfg, clock.clone()).map_err(err)?;
    let ctx = RequestContext::user(UserId(1), ClientId(1));
    let oid = drive.op_create(&ctx, None).map_err(err)?;
    let mut versions = BlockVersions::new(1, 1);
    for v in 1..=4 {
        let data = versions.next_payload(0, 0);
        drive.op_write(&ctx, oid, 0, &data).map_err(err)?;
        drive.op_sync(&ctx).map_err(err)?;
        clock.advance(SimDuration::from_secs(2));
        if v % 2 == 0 {
            drive.expire_versions().map_err(err)?;
        }
    }
    let dev = drive.unmount().map_err(err)?;
    let drive = S4Drive::mount(dev, cfg, clock).map_err(err)?;
    let data = drive
        .op_read(&ctx, oid, 0, BLOCK as u64, None)
        .map_err(err)?;
    let read_back = (0..=4u32)
        .rev()
        .find(|&v| crate::oracle::matches(&data, crate::oracle::block_key(0, 0), u64::from(v), 0));
    match read_back {
        Some(v) => out.set("core.expire_mount_lost_versions", f64::from(4 - v)),
        None => out.check(false, || {
            "expire/mount probe: the block read back matches no version ever written".into()
        }),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_matches_the_workload_definition() {
        let cfg = drive_config(OBJECTS);
        assert_eq!(cfg.log.cache_blocks * BLOCK, 8 << 20);
        assert_eq!(cfg.object_cache_entries, 1024);
        assert_eq!(cfg.detection_window, SimDuration::from_secs(WINDOW_S));
        assert_eq!(cfg.cleaner.min_free_target, FREE_TARGET);
        // Live data is (just under) four times each cache.
        let live_blocks = OBJECTS * OBJECT_BLOCKS;
        assert!((3.9..=4.0).contains(&(live_blocks as f64 / cfg.log.cache_blocks as f64)));
        assert!((3.9..=4.0).contains(&(OBJECTS as f64 / cfg.object_cache_entries as f64)));
        // The audit scan relies on zero padding decoding to no records.
        assert!(AuditState::decode_block(&[0u8; BLOCK]).unwrap().is_empty());
    }

    /// Reads 20 objects of which the first `stale` come back one
    /// version behind in both blocks.
    fn read_with_stale(stale: usize) -> (RepOut, u64) {
        let mut versions = BlockVersions::new(20, OBJECT_BLOCKS);
        let old = versions.clone();
        for obj in 0..20 {
            for b in 0..OBJECT_BLOCKS {
                versions.bump(obj, b);
            }
        }
        let oids: Vec<ObjectId> = (0..20).map(ObjectId).collect();
        let mut out = RepOut::default();
        let verified = read_all(
            &mut out,
            &versions,
            &oids,
            ("test read", "core.remount_bad_blocks"),
            None,
            |req| {
                let Request::Read { oid, .. } = req else {
                    unreachable!()
                };
                let obj = oid.0 as usize;
                let source = if obj < stale { &old } else { &versions };
                Ok(Response::Data(source.object_bytes(obj)))
            },
        );
        (out, verified)
    }

    #[test]
    fn wrong_blocks_are_never_verified_and_fail_beyond_the_allowance() {
        let (out, verified) = read_with_stale(0);
        assert_eq!((verified, out.attempted, out.failed), (20, 20, 0));
        assert_eq!(out.values["core.remount_bad_blocks"], 0.0);

        // 8 wrong blocks: counted, noted, kept out of the verified reads.
        let (out, verified) = read_with_stale(4);
        assert_eq!((verified, out.attempted, out.failed), (16, 20, 0));
        assert_eq!(out.values["core.remount_bad_blocks"], 8.0);
        assert_eq!(out.notes.len(), 4);

        // 10 wrong blocks: every object holding one is a failed op.
        let (out, verified) = read_with_stale(5);
        assert_eq!((verified, out.attempted, out.failed), (15, 20, 5));
        assert_eq!(out.values["core.remount_bad_blocks"], 10.0);
    }

    #[test]
    fn expire_mount_probe_reports_versions_lost() {
        let mut out = RepOut::default();
        expire_mount_probe(&mut out).expect("probe runs");
        assert_eq!(out.failed, 0);
        let lost = out.values["core.expire_mount_lost_versions"];
        assert!((0.0..=4.0).contains(&lost), "{lost}");
    }
}

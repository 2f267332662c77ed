//! Same requests ⇒ same bytes, on the paths the torture golden run does
//! not reach: object-cache eviction, detection-window expiry, cleaner
//! relocation, history compaction, administrative flushes, landmarks,
//! periodic anchors and a crash → mount in the middle. The drive keeps
//! every table it walks in key order, so the device image and
//! [`S4Drive::state_digest`] are pure functions of the request stream;
//! this pins both for one fixed stream. A change that moves either
//! constant changed what the drive writes (or made it depend on
//! something other than the requests) and must say so.
//!
//! The same mix, over eight seeds, is also where the drive's space
//! accounting is audited: [`S4Drive::check_image`] must find the running
//! ledger equal to its recount, and every segment's live count equal to
//! the ledger's addresses in it, before every unmount or crash and after
//! every mount.

use std::ops::RangeInclusive;

use s4_clock::{SimClock, SimDuration};
use s4_core::{AclEntry, ClientId, DriveConfig, ObjectId, Perm, RequestContext, S4Drive, UserId};
use s4_simdisk::{BlockDev, MemDisk};

const ADMIN_TOKEN: u64 = 42;

/// The object-cache sizes every sweep below runs: 6 evicts one victim
/// at a time to exactly its limit, 16 writes back in batches (the 17th
/// entry takes the cache down to 14).
const CACHES: [usize; 2] = [6, 16];

fn config(cache: usize) -> DriveConfig {
    let mut cfg = DriveConfig::small_test();
    cfg.object_cache_entries = cache;
    cfg.detection_window = SimDuration::from_secs(10);
    cfg.anchor_interval_syncs = 16;
    cfg.log.cache_blocks = 32;
    cfg
}

/// xorshift64*: the whole workload is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The maintenance arms of the mix: everything but these is client
/// traffic, syncs and remounts.
const EXPIRE: RangeInclusive<u64> = 85..=87;
const CLEAN: RangeInclusive<u64> = 88..=90;
const COMPACT: RangeInclusive<u64> = 91..=92;
const FLUSHO: RangeInclusive<u64> = 93..=94;
const LANDMARKS: RangeInclusive<u64> = 95..=97;
const MAINTENANCE: RangeInclusive<u64> = 85..=97;

/// The seeds every sweep below runs.
const SEEDS: [u64; 8] = [0x5E_ED0F_5E1F, 1, 2, 3, 4, 5, 6, 7];

/// Requires the running ledger to equal its recount, and the segment
/// usage table the ledger.
fn audit(d: &S4Drive<MemDisk>) -> Result<(), String> {
    let (found, segments, refused) = d
        .check_image()
        .map_err(|e| format!("the recount failed: {e:?}"))?;
    match (found.first(), segments.first()) {
        (None, None) => Ok(()),
        (Some(first), _) => Err(format!(
            "{} discrepancies, {refused} releases refused, first {first:?}",
            found.len()
        )),
        (None, Some(first)) => Err(format!(
            "{} segment counts off, {refused} releases refused, first {first:?}",
            segments.len()
        )),
    }
}

/// Drives the stream of `seed` on a drive caching `cache` objects and
/// returns `(image hash, state digest, outcome hash)`; the outcome hash folds every result's success bit so
/// a behavioural change cannot hide behind an unchanged image. A
/// maintenance arm outside `enabled` runs as a `Sync`. With `audited`,
/// [`audit`] runs before every unmount or crash and after every mount.
fn run(
    seed: u64,
    cache: usize,
    enabled: &[RangeInclusive<u64>],
    audited: bool,
) -> Result<(u64, u64, u64), String> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let user = RequestContext::user(UserId(7), ClientId(1));
    let admin = RequestContext::admin(ClientId(9), ADMIN_TOKEN);
    let mut d = S4Drive::format(
        MemDisk::with_capacity_bytes(24 << 20),
        config(cache),
        clock.clone(),
    )
    .expect("format");
    let mut rng = Rng(seed);
    let mut oids: Vec<ObjectId> = Vec::new();
    let mut marked: Vec<ObjectId> = Vec::new();
    let mut outcome = 0u64;
    let mut note = |ok: bool| outcome = outcome.wrapping_mul(31).wrapping_add(ok as u64 + 1);
    let check = |d: &S4Drive<MemDisk>| if audited { audit(d) } else { Ok(()) };

    for step in 0..1_500u32 {
        let at =
            |what: &str, e: String| format!("seed {seed:#x} cache {cache} step {step} {what}: {e}");
        clock.advance(SimDuration::from_millis(20 + rng.below(60)));
        if oids.len() < 4 || rng.below(100) < 6 {
            let oid = d.op_create(&user, None).expect("create");
            oids.push(oid);
            note(d.op_pcreate(&user, &format!("p{}", oid.0), oid).is_ok());
            continue;
        }
        let oid = oids[rng.below(oids.len() as u64) as usize];
        let mut op = rng.below(100);
        if MAINTENANCE.contains(&op) && !enabled.iter().any(|r| r.contains(&op)) {
            op = 65; // Sync
        }
        match op {
            0..=39 => {
                // Text-like payloads so the differencing pass finds deltas.
                let len = 200 + rng.below(9_000) as usize;
                let mut data = b"fn handler(conn: &mut Conn) -> io::Result<()> { conn.flush() }\n"
                    .repeat(len / 64 + 1);
                data.resize(len, b' ');
                let at = rng.below(len as u64 - 8) as usize;
                data[at..at + 8].copy_from_slice(format!("REV{step:05}").as_bytes());
                note(d.op_write(&user, oid, rng.below(3) * 4096, &data).is_ok());
            }
            40..=47 => note(d.op_append(&user, oid, &[step as u8; 300]).is_ok()),
            48..=53 => note(d.op_truncate(&user, oid, rng.below(6_000)).is_ok()),
            54..=59 => note(
                d.op_setattr(&user, oid, vec![step as u8; 1 + (step % 40) as usize])
                    .is_ok(),
            ),
            60..=62 => {
                let acl = AclEntry {
                    user: UserId(20 + step % 3),
                    perm: Perm::READ,
                };
                note(d.op_set_acl(&user, oid, acl).is_ok());
            }
            63..=64 => {
                note(d.op_delete(&user, oid).is_ok());
                note(d.op_pdelete(&user, &format!("p{}", oid.0)).is_ok());
            }
            65..=84 => note(d.op_sync(&user).is_ok()),
            85..=87 => note(d.expire_versions().is_ok()),
            88..=90 => {
                note(d.clean().is_ok());
                note(d.force_anchor().is_ok());
            }
            91..=92 => note(d.compact_history().is_ok()),
            93..=94 => {
                let now = d.now();
                let from = now.saturating_sub(SimDuration::from_secs(4));
                note(
                    d.op_flusho(
                        &admin,
                        oid,
                        from,
                        now.saturating_sub(SimDuration::from_secs(1)),
                    )
                    .is_ok(),
                );
            }
            95..=96 => {
                let t = d.now().saturating_sub(SimDuration::from_secs(rng.below(5)));
                if d.op_mark_landmark(&user, oid, t).is_ok() {
                    marked.push(oid);
                }
            }
            97 => {
                if let Some(oid) = marked.pop() {
                    if let Ok(list) = d.landmarks(&user, oid) {
                        for (modified, _) in list {
                            note(d.op_unmark_landmark(&user, oid, modified).is_ok());
                        }
                    }
                }
            }
            98 => {
                note(d.op_sync(&user).is_ok());
                check(&d).map_err(|e| at("before the crash", e))?;
                d = S4Drive::mount(d.crash(), config(cache), clock.clone())
                    .map_err(|e| at("mount after crash", format!("{e:?}")))?;
                check(&d).map_err(|e| at("after mount", e))?;
            }
            _ => {
                check(&d).map_err(|e| at("before unmount", e))?;
                let dev = d.unmount().expect("unmount");
                d = S4Drive::mount(dev, config(cache), clock.clone())
                    .map_err(|e| at("mount", format!("{e:?}")))?;
                check(&d).map_err(|e| at("after mount", e))?;
            }
        }
    }
    let digest = d.state_digest();
    let dev = d.unmount().expect("final unmount");
    let mut image = vec![0u8; dev.capacity_bytes() as usize];
    dev.read(0, &mut image).expect("image read");
    Ok((s4_lfs::crc::xxh64(&image), digest, outcome))
}

/// Restated at format revision 6, where an alert is an audit record and
/// no alert stream is kept beside the audit log.
#[test]
fn churn_image_is_one_value_across_runs() {
    /// Revision 6 in the superblock, and the anchor payload without the
    /// alert stream's 20-byte section.
    const IMAGE_HASH: u64 = 0xeb38_c637_374c_a1c7;
    /// The digest hashes the audit log's block list and tail, without
    /// the alert stream's (and its retention base).
    const STATE_DIGEST: u64 = 0x01fa_d1c8_4626_d299;
    /// Unchanged: every request in the stream succeeds or fails as before.
    const OUTCOMES: u64 = 0x7a1d_7af5_6777_6fb7;
    let run = || run(SEEDS[0], 6, &[MAINTENANCE], false).expect("the pinned stream completes");
    let (a, b) = (run(), run());
    assert_eq!(a, b, "two runs of one request stream diverged");
    assert_eq!(
        a,
        (IMAGE_HASH, STATE_DIGEST, OUTCOMES),
        "churn image changed: ({:#018x}, {:#018x}, {:#018x})",
        a.0,
        a.1,
        a.2
    );
}

/// Runs every seed on every cache size with `enabled` maintenance,
/// audited at each remount; the first failure is the message.
fn sweep(enabled: &[RangeInclusive<u64>]) {
    for cache in CACHES {
        for seed in SEEDS {
            run(seed, cache, enabled, true).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Client traffic, syncs, evictions, periodic anchors, crashes and clean
/// remounts keep the ledger equal to its recount: what mount installs is
/// what the drive was already running on.
#[test]
fn the_ledger_matches_its_recount_at_every_remount() {
    sweep(&[]);
}

#[test]
fn expiry_and_cleaning_keep_the_ledger_equal_to_its_recount() {
    sweep(&[EXPIRE, CLEAN]);
}

/// Every seed's full mix runs to its end: no mount refuses an image the
/// drive itself wrote, with or without an anchor since the last
/// maintenance pass.
#[test]
fn every_mount_of_the_full_mix_succeeds() {
    for cache in CACHES {
        // Seed 0 on the one-victim cache is the pinned run above.
        for seed in &SEEDS[(cache == CACHES[0]) as usize..] {
            run(*seed, cache, &[MAINTENANCE], false).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

// One sibling per maintenance operation that still breaks the equality
// once expiry moves the history floor under it (ROADMAP item 2); CI's
// named `--ignored` step prints the list, and each fix un-ignores its own.

#[test]
#[ignore = "ROADMAP item 2: seed 0x5eed0f5e1f cache 6 step 1139 before the crash: block 327 held by 1 reference, reachable from nothing"]
fn compact_history_keeps_the_ledger_equal_to_its_recount() {
    sweep(&[EXPIRE, CLEAN, COMPACT]);
}

#[test]
#[ignore = "ROADMAP item 2: seed 0x6 cache 6 step 246 before the crash: block 8 released, still reachable by 1 reference"]
fn flusho_keeps_the_ledger_equal_to_its_recount() {
    sweep(&[EXPIRE, CLEAN, FLUSHO]);
}

#[test]
#[ignore = "ROADMAP item 2: seed 0x5eed0f5e1f cache 6 step 1115 before unmount: 2 discrepancies, the first block 60 released, still reachable by 1 reference (op_unmark_landmark tests the landmark's own stamp against the floor)"]
fn landmarks_keep_the_ledger_equal_to_its_recount() {
    sweep(&[EXPIRE, CLEAN, LANDMARKS]);
}

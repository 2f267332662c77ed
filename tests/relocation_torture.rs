//! Power cuts through a cleaner pass that moves data.
//!
//! The setup leaves a drive whose `clean()` relocates data blocks — among
//! them a delta base and a landmark's pinned block — and the journal
//! containers whose sectors name them, so the pass ends by rewriting
//! history. The campaign cuts power after every countable write of that
//! `clean()` and of the `force_anchor()` that commits it, and after each
//! cut requires of the remounted drive:
//!
//! * every version inside the window reads back exactly, and so does the
//!   landmark once the window has passed it;
//! * `check_image` finds nothing, with no release refused;
//! * a second mount of the same image has the same `state_digest`;
//! * no journal entry appears twice in any object's history — a history
//!   rewrite is committed by the anchor, never replayed by roll-forward.
//!
//! The bounded campaign samples the cut points under one tear; the
//! exhaustive one (`--ignored`) takes every point under three.

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{ClientId, DriveConfig, ObjectId, RequestContext, S4Drive, UserId};
use s4_simdisk::{FaultPlan, FaultyDisk, MemDisk, RequestClassMask, TornPattern};

/// `DriveConfig::small_test`'s admin token.
const ADMIN_TOKEN: u64 = 42;

/// A cleaner that copies every segment it can gain from, 64 per pass.
fn config() -> DriveConfig {
    let mut c = DriveConfig::small_test();
    c.cleaner.min_free_target = 10_000;
    c.cleaner.max_segments_per_pass = 64;
    c
}

fn admin() -> RequestContext {
    RequestContext::admin(ClientId(9), ADMIN_TOKEN)
}

/// One block of text that differs between versions only in its first
/// line, so that history delta-encodes.
fn text(oid: ObjectId, round: u32) -> Vec<u8> {
    let line = "fn handler(conn: &mut Conn) -> io::Result<()> { conn.flush() }\n";
    let mut v = line.repeat(60).into_bytes();
    v[..16].copy_from_slice(format!("obj {:04} rev {:03}", oid.0, round).as_bytes());
    v
}

/// What the setup wrote: every version with the instant it was current.
struct Setup {
    image: MemDisk,
    versions: Vec<(ObjectId, SimTime, Vec<u8>)>,
    landmark: (ObjectId, SimTime, Vec<u8>),
}

/// Six objects written in rounds, two to a 16-block segment. The first is
/// pinned as a landmark at its first version; the second stops after
/// round 2, so its current block — the base its history delta-encodes
/// against — lies in an early segment. Compaction then releases nearly
/// every other history block there, which makes those segments the
/// cleaner's victims, and their live blocks the pass's relocations.
fn setup() -> Setup {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(4 << 20),
        config(),
        clock.clone(),
    )
    .unwrap();
    let user = RequestContext::user(UserId(1), ClientId(1));
    let oids: Vec<ObjectId> = (0..6).map(|_| d.op_create(&user, None).unwrap()).collect();
    let mut versions = Vec::new();
    for round in 0..8 {
        for (i, &oid) in oids.iter().enumerate() {
            if i == 1 && round > 2 {
                continue;
            }
            d.op_write(&user, oid, 0, &text(oid, round)).unwrap();
            versions.push((oid, d.now(), text(oid, round)));
        }
        d.op_sync(&user).unwrap();
        if round == 0 {
            d.op_mark_landmark(&user, oids[0], d.now()).unwrap();
        }
        clock.advance(SimDuration::from_millis(500));
    }
    let (encoded, _) = d.compact_history().unwrap();
    assert!(encoded >= 30, "history must delta-encode: {encoded}");
    let landmark = versions[0].clone();
    Setup {
        image: d.unmount().unwrap(),
        versions,
        landmark,
    }
}

/// Mounts `image` with power failing after `cut` counted writes
/// (`u64::MAX`: never), runs the pass and the anchor that commits it,
/// and returns the device as the power left it, whether it died, and the
/// blocks the pass relocated.
fn cut_pass(image: &MemDisk, cut: u64, torn: TornPattern) -> (MemDisk, bool, u32) {
    let plan = FaultPlan::power_loss_with_pattern(cut, torn, RequestClassMask::WRITES);
    let dev = FaultyDisk::new(image.clone(), plan);
    let d = S4Drive::mount(dev, config(), SimClock::new()).unwrap();
    let relocated = d.clean().map_or(0, |o| o.blocks_relocated);
    let _ = d.force_anchor();
    let dev = d.crash();
    let died = dev.is_dead();
    dev.revive();
    (dev.into_inner(), died, relocated)
}

/// Writes `clean()` and `force_anchor()` issue on the setup's image.
fn domain(image: &MemDisk) -> u64 {
    let dev = FaultyDisk::new(
        image.clone(),
        FaultPlan::count_only(RequestClassMask::WRITES),
    );
    let d = S4Drive::mount(dev, config(), SimClock::new()).unwrap();
    let outcome = d.clean().unwrap();
    assert!(
        outcome.blocks_relocated >= 8,
        "the pass must move data: {outcome:?}"
    );
    d.force_anchor().unwrap();
    d.crash().requests_seen()
}

/// The four checks, on the image a cut left.
fn check(s: &Setup, image: MemDisk, what: &str) {
    let d = S4Drive::mount(image, config(), SimClock::new())
        .unwrap_or_else(|e| panic!("{what}: mount failed: {e:?}"));
    for (oid, t, want) in &s.versions {
        let got = d.op_read(&admin(), *oid, 0, 8192, Some(*t)).unwrap();
        assert!(got == *want, "{what}: {oid:?} at {t:?} read back wrong");
    }
    assert_eq!(d.check_image(), Ok((vec![], vec![], 0)), "{what}");
    let ids = d
        .live_object_ids(&admin())
        .unwrap()
        .into_iter()
        .map(ObjectId);
    for oid in ids.filter(|oid| !oid.is_reserved()) {
        let history = d.version_history(&admin(), oid).unwrap();
        let stamps: Vec<_> = history.iter().map(|v| v.stamp).collect();
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "{what}: {oid:?}'s history repeats an entry"
        );
    }
    let digest = d.state_digest();
    let d = S4Drive::mount(d.crash(), config(), SimClock::new()).unwrap();
    assert_eq!(d.state_digest(), digest, "{what}: a second mount differs");
    // Past the window, only the landmark's own block map reaches it.
    let (oid, t, want) = &s.landmark;
    d.clock().advance(SimDuration::from_secs(7200));
    d.expire_versions().unwrap();
    let got = d.op_read(&admin(), *oid, 0, 8192, Some(*t)).unwrap();
    assert!(got == *want, "{what}: the landmark read back wrong");
}

/// Cuts the pass at each of `points` under each of `tears`, then once
/// more with no cut at all.
fn campaign(points: impl Iterator<Item = u64>, tears: &[TornPattern]) -> usize {
    let s = setup();
    let mut died = 0;
    for cut in points {
        for &torn in tears {
            let (image, dead, _) = cut_pass(&s.image, cut, torn);
            assert!(dead, "cut {cut} never fired");
            check(&s, image, &format!("cut {cut} {torn:?}"));
            died += 1;
        }
    }
    let (image, dead, relocated) = cut_pass(&s.image, u64::MAX, TornPattern::Prefix(0));
    assert!(
        !dead && relocated >= 8,
        "the uncut pass relocates: {relocated}"
    );
    check(&s, image, "no cut");
    died
}

#[test]
fn bounded_cuts_through_a_relocating_pass_hold_invariants() {
    let n = domain(&setup().image);
    assert!(n >= 4, "the pass and its anchor write: {n}");
    let step = n.div_ceil(8);
    let died = campaign((0..n).step_by(step as usize), &[TornPattern::Prefix(0)]);
    assert!(died >= 4);
}

#[test]
#[ignore = "exhaustive: every countable write under three tears"]
fn every_cut_through_a_relocating_pass_holds_invariants() {
    let n = domain(&setup().image);
    let tears = [
        TornPattern::Prefix(0),
        TornPattern::Prefix(8), // the summary block, none of its data
        TornPattern::Interleaved { phase: 1 },
    ];
    let died = campaign(0..n, &tears);
    assert_eq!(died as u64, n * tears.len() as u64);
}

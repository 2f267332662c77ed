//! Power cuts through the maintenance that rewrites history: a cleaner
//! pass that moves data, and expiry followed by compaction.
//!
//! The history both scenarios start from leaves a drive whose `clean()`
//! relocates data blocks — among them a delta base and a landmark's
//! pinned block — and the journal containers whose sectors name them, so
//! the pass ends by rewriting history. One scenario cuts power at every
//! countable request of that `clean()` and of the `force_anchor()` that
//! commits it; the other moves the clock so the oldest rounds lie past
//! the detection window, and cuts `expire_versions()`,
//! `compact_history()` and the `force_anchor()` after them. After each
//! cut the remounted drive must show:
//!
//! * every version inside the window reads back exactly, and so does the
//!   landmark once the window has passed it;
//! * the audit log is exactly the one before the pass — the history's
//!   requests go through `dispatch`, so the log fills a block, and the
//!   uncut pass must copy that block forward;
//! * `check_image` finds nothing, with no release refused;
//! * a second mount of the same image has the same `state_digest`;
//! * no journal entry appears twice in any object's history — a history
//!   rewrite is committed by the anchor, never replayed by roll-forward.
//!
//! The bounded campaigns sample the cut points under one rotating tear;
//! the exhaustive ones (`--ignored`) cut every point under every tear.

use std::collections::BTreeMap;

use s4_clock::{SimClock, SimDuration, SimTime};
use s4_core::{
    AuditRecord, ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive,
    UserId,
};
use s4_lfs::{BlockAddr, BlockKind};
use s4_simdisk::{BlockDev, MemDisk};
use s4_torture::{enumerate, Campaign, Disk, Rail, Scenario};

/// `DriveConfig::small_test`'s admin token.
const ADMIN_TOKEN: u64 = 42;

/// At most eight crash points, one tear at each.
const BOUNDED: Campaign = Campaign::new(Some(1), Some(8));

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

/// What the history wrote: every version with the instant it became
/// current, in write order, and the audit log it left.
struct History {
    image: MemDisk,
    versions: Vec<(ObjectId, SimTime, Vec<u8>)>,
    landmark: (ObjectId, SimTime, Vec<u8>),
    log: Vec<AuditRecord>,
}

/// Every block at a plain address of `d`'s log that its summary tags as
/// an audit-log block, with its position in the stream. (A partial tail
/// carried in a summary block has no plain address.)
fn audit_blocks<D: BlockDev>(d: &S4Drive<D>) -> BTreeMap<BlockAddr, u64> {
    let geo = d.log().geometry();
    let blocks = u64::from(geo.num_segments) * u64::from(geo.blocks_per_segment);
    let tags =
        (0..blocks).filter_map(|a| Some((BlockAddr(a), d.log().tag_of(BlockAddr(a)).ok()??)));
    tags.filter(|(_, t)| t.kind == BlockKind::Audit)
        .map(|(a, t)| (a, t.aux))
        .collect()
}

/// Six objects written in rounds, two to a 16-block segment. The first is
/// pinned as a landmark at its first version; the second stops after
/// round 2, so its current block — the base its history delta-encodes
/// against — lies in an early segment. Compaction then releases nearly
/// every other history block there, which makes those segments the
/// cleaner's victims, and their live blocks the pass's relocations.
fn history() -> History {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let d = S4Drive::format(
        MemDisk::with_capacity_bytes(4 << 20),
        config(),
        clock.clone(),
    )
    .unwrap();
    let user = RequestContext::user(UserId(1), ClientId(1));
    let request = |req: Request| d.dispatch(&user, &req).unwrap();
    let create = |_| match request(Request::Create) {
        Response::Created(oid) => oid,
        other => panic!("unexpected response {other:?}"),
    };
    let oids: Vec<ObjectId> = (0..6).map(create).collect();
    let mut versions = Vec::new();
    for round in 0..8 {
        for (i, &oid) in oids.iter().enumerate() {
            if i == 1 && round > 2 {
                continue;
            }
            let data = text(oid, round);
            request(Request::Write {
                oid,
                offset: 0,
                data: data.clone(),
            });
            versions.push((oid, d.now(), data));
            request(Request::Read {
                oid,
                offset: 0,
                len: 16,
                time: None,
            });
        }
        request(Request::Sync);
        if round == 0 {
            d.op_mark_landmark(&user, oids[0], d.now()).unwrap();
        }
        clock.advance(SimDuration::from_millis(500));
    }
    let (encoded, _) = d.compact_history().unwrap();
    assert!(encoded >= 30, "history must delta-encode: {encoded}");
    let landmark = versions[0].clone();
    let image = d.unmount().unwrap();
    let d = S4Drive::mount(image.clone(), config(), SimClock::new()).unwrap();
    History {
        image,
        versions,
        landmark,
        log: d.read_traces(&admin()).unwrap(),
    }
}

impl History {
    /// Mounts the history's image on the rail.
    fn mount(&self, rail: &Rail) -> S4Drive<Disk> {
        S4Drive::mount(rail.plug(self.image.clone()), config(), SimClock::new()).unwrap()
    }

    /// The four checks, on the image a cut left, for a window that starts
    /// at `floor`: every version current at some instant since then reads
    /// back, at that instant. Returns the versions read.
    fn check(&self, images: Vec<MemDisk>, floor: SimTime, what: &str) -> usize {
        let image = images.into_iter().next().expect("one device");
        let d = S4Drive::mount(image, config(), SimClock::new())
            .unwrap_or_else(|e| panic!("{what}: mount failed: {e:?}"));
        let log = d.read_traces(&admin()).unwrap();
        assert!(
            log == self.log,
            "{what}: the audit log is not the one before the pass: {} records, {} before",
            log.len(),
            self.log.len()
        );
        let mut read = 0;
        for (i, (oid, t, want)) in self.versions.iter().enumerate() {
            let superseded = self.versions[i + 1..].iter().find(|v| v.0 == *oid);
            if superseded.is_some_and(|v| v.1 <= floor) {
                continue;
            }
            let at = (*t).max(floor);
            let got = d.op_read(&admin(), *oid, 0, 8192, Some(at)).unwrap();
            assert!(got == *want, "{what}: {oid:?} at {at:?} read back wrong");
            read += 1;
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
        let (oid, t, want) = &self.landmark;
        d.clock().advance(SimDuration::from_secs(7200));
        d.expire_versions().unwrap();
        let got = d.op_read(&admin(), *oid, 0, 8192, Some(*t)).unwrap();
        assert!(got == *want, "{what}: the landmark read back wrong");
        read
    }
}

/// A cleaner pass that relocates data, and the anchor that commits it.
struct Relocation(History);

impl Scenario for Relocation {
    type Rig = S4Drive<Disk>;
    /// Blocks the pass relocated.
    type Run = u32;
    /// Versions read back.
    type Tally = usize;

    fn devices(&self) -> usize {
        1
    }

    fn setup(&self, rail: &Rail) -> S4Drive<Disk> {
        self.0.mount(rail)
    }

    fn run(&self, d: &S4Drive<Disk>) -> u32 {
        let relocated = d.clean().map_or(0, |o| o.blocks_relocated);
        let _ = d.force_anchor();
        relocated
    }

    fn check(&self, images: Vec<MemDisk>, &relocated: &u32, died: bool, what: &str) -> usize {
        assert!(
            died || relocated >= 8,
            "{what}: the pass must move data: {relocated}"
        );
        if !died {
            let mount = |image: &MemDisk| S4Drive::mount(image.clone(), config(), SimClock::new());
            let before = audit_blocks(&mount(&self.0.image).unwrap());
            let after = audit_blocks(&mount(&images[0]).unwrap());
            let moved = after
                .iter()
                .filter(|&(a, p)| !before.contains_key(a) && before.values().any(|q| q == p));
            assert!(
                moved.count() >= 1,
                "{what}: the pass must move an audit block: {before:?} became {after:?}"
            );
        }
        self.0.check(images, SimTime::ZERO, what)
    }
}

#[test]
fn bounded_cuts_through_a_relocating_pass_hold_invariants() {
    let summary = enumerate(&Relocation(history()), BOUNDED);
    assert!(
        summary.domain >= 4,
        "the pass and its anchor write: {summary:?}"
    );
    assert!(summary.replays >= 4, "{summary:?}");
    assert_eq!(summary.died, summary.replays, "{summary:?}");
}

#[test]
#[ignore = "exhaustive: every countable request under every tear"]
fn every_cut_through_a_relocating_pass_holds_invariants() {
    let summary = enumerate(&Relocation(history()), Campaign::EVERY);
    assert_eq!(summary.crash_points as u64, summary.domain, "{summary:?}");
    assert_eq!(summary.died, summary.replays, "{summary:?}");
}

/// Expiry, compaction and the anchor that commits them, with the clock
/// moved so that the window starts at `floor`, between rounds 3 and 4:
/// rounds 0–2 lie past it, but for the landmark and the second object's
/// current version, and round 3 is what was current at its start.
struct Expiry {
    history: History,
    floor: SimTime,
}

impl Expiry {
    fn new() -> Expiry {
        let history = history();
        // A round's writes share an instant, 500 ms after the last
        // round's; round 3 begins after three rounds of six writes.
        let floor = history.versions[3 * 6].1 + SimDuration::from_millis(250);
        Expiry { history, floor }
    }
}

impl Scenario for Expiry {
    type Rig = S4Drive<Disk>;
    /// Whether all three returned.
    type Run = bool;
    /// Versions read back.
    type Tally = usize;

    fn devices(&self) -> usize {
        1
    }

    fn setup(&self, rail: &Rail) -> S4Drive<Disk> {
        let d = self.history.mount(rail);
        d.clock().advance_to(self.floor + config().detection_window);
        d
    }

    fn run(&self, d: &S4Drive<Disk>) -> bool {
        let expired = d.expire_versions().is_ok_and(|released| released > 0);
        let compacted = d.compact_history().is_ok();
        expired && compacted && d.force_anchor().is_ok()
    }

    fn check(&self, images: Vec<MemDisk>, &returned: &bool, died: bool, what: &str) -> usize {
        assert!(
            died || returned,
            "{what}: the uncut pass failed or expired nothing"
        );
        self.history.check(images, self.floor, what)
    }
}

#[test]
fn bounded_cuts_through_expiry_and_compaction_hold_invariants() {
    let summary = enumerate(&Expiry::new(), BOUNDED);
    assert!(summary.replays >= 4, "{summary:?}");
    assert_eq!(summary.died, summary.replays, "{summary:?}");
}

#[test]
#[ignore = "exhaustive: every countable request under every tear"]
fn every_cut_through_expiry_and_compaction_holds_invariants() {
    let summary = enumerate(&Expiry::new(), Campaign::EVERY);
    assert_eq!(summary.crash_points as u64, summary.domain, "{summary:?}");
    assert_eq!(summary.died, summary.replays, "{summary:?}");
}

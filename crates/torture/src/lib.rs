//! Crash-consistency torture harness for the S4 drive and array.
//!
//! The paper's core guarantee is that every version inside the detection
//! window survives anything a client — or a power cut — does. This crate
//! checks the power-cut half in the CrashMonkey style, and every campaign
//! is a [`Scenario`] run by one loop, [`enumerate`]. A scenario names its
//! device count, a `setup` that is never cut (a format, or a seeded image
//! and its mount), the `run` that is, and the `check` that runs after
//! the power comes back. Its devices sit on one [`Rail`] of
//! [`FaultyDisk`]s — a one-drive scenario is a rail of one. `enumerate`
//! counts an uncut run's `CRASH_MASK` requests: a device's *window* is
//! its count after `setup` up to its count after `run`, and the crash
//! points are the windows device by device. It cuts every point, or a
//! `div_ceil` stride of them, each under its rotating slice of the
//! standard torn patterns: the device's request `k` tears, the whole rail
//! goes dark, and `check` runs on the revived images. Last it checks the
//! uncut run, the control run, which no count in the [`Summary`]
//! includes.
//!
//! The scenarios here are the write path ([`workload::WritePath`],
//! [`workload::CleanerBetween`]) and cross-shard two-phase commit
//! ([`txn::Stretch`]); `tests/relocation_torture.rs` adds a relocating
//! cleaner pass and expiry with compaction.
//! [`workload::torture_crash_during_recovery`] stays a probe: its second
//! cut falls inside `mount`, which only reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod txn;
pub mod workload;

use std::cell::RefCell;
use std::fmt::Debug;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use s4_array::S4Array;
use s4_core::{ClientId, RequestContext, S4Drive, UserId};
use s4_lfs::BLOCK_SIZE;
use s4_simdisk::{FaultPlan, FaultyDisk, MemDisk, RequestClassMask, TornPattern};

/// Request classes that count as crash points: the write path plus the
/// superblock barrier (`BlockDev::sync`, issued when an anchor commits).
/// Reads are excluded — they cannot affect durability, and counting them
/// would make the domain depend on cache behaviour.
pub(crate) const CRASH_MASK: RequestClassMask =
    RequestClassMask::WRITES.union(RequestClassMask::SYNCS);

/// Every device a scenario runs on.
pub type Disk = FaultyDisk<MemDisk>;

/// The standard torn-pattern mix: whole-write loss, a persisted prefix,
/// alternating sectors of either parity, a mid-write hole — and, since
/// a log commit is one `[summary | data]` write, the two tears only the
/// summary's data checksum can catch: the whole summary block persists
/// and all of the data, or just its first sector, does not.
pub(crate) fn standard_patterns() -> Vec<TornPattern> {
    const SUMMARY_SECTORS: u64 = (BLOCK_SIZE / s4_simdisk::SECTOR_SIZE) as u64;
    vec![
        TornPattern::Prefix(0),
        TornPattern::Prefix(4),
        TornPattern::Interleaved { phase: 0 },
        TornPattern::Holed { start: 1, len: 2 },
        TornPattern::Interleaved { phase: 1 },
        TornPattern::Prefix(SUMMARY_SECTORS),
        TornPattern::Holed {
            start: SUMMARY_SECTORS,
            len: 1,
        },
    ]
}

/// The torn patterns cut at the `j`-th sampled crash point: a rotating
/// window over [`standard_patterns`], `per_point` wide (`None`: every
/// pattern at every point).
pub(crate) fn patterns_at(per_point: Option<usize>, j: usize) -> Vec<TornPattern> {
    let patterns = standard_patterns();
    let n = patterns.len();
    let m = per_point.map_or(n, |m| m.min(n));
    (0..m).map(|i| patterns[(j * m + i) % n]).collect()
}

/// The indices `0..n`, or an even stride of them when `cap` is below `n`:
/// every `n.div_ceil(cap)`-th, from the first.
pub(crate) fn sample(n: u64, cap: Option<usize>) -> impl Iterator<Item = u64> {
    let stride = match cap {
        Some(cap) if n > cap as u64 => n.div_ceil(cap as u64),
        _ => 1,
    };
    (0..n).step_by(stride as usize)
}

/// How much of a scenario's domain a campaign cuts.
#[derive(Clone, Copy, Debug)]
pub struct Campaign {
    /// Torn patterns per crash point, rotating through the standard mix
    /// across points; `None` cuts every pattern at every point.
    pub per_point: Option<usize>,
    /// Cap on crash points, sampled by an even stride; `None` takes
    /// every countable request.
    pub cap: Option<usize>,
}

impl Campaign {
    /// Every pattern at every crash point.
    pub const EVERY: Campaign = Campaign::new(None, None);

    /// `per_point` patterns at each of at most `cap` crash points.
    pub const fn new(per_point: Option<usize>, cap: Option<usize>) -> Campaign {
        Campaign { per_point, cap }
    }

    /// Replays performed per crash point.
    pub fn replays_per_point(&self) -> usize {
        patterns_at(self.per_point, 0).len()
    }
}

/// The devices of one run, on one power rail: the instant any device's
/// plan fires, every device on the rail refuses requests.
pub struct Rail {
    plans: RefCell<std::vec::IntoIter<FaultPlan>>,
    power: Arc<AtomicBool>,
}

impl Rail {
    /// A rail whose `i`-th plugged device runs `plans[i]`.
    pub(crate) fn new(plans: Vec<FaultPlan>) -> Rail {
        Rail {
            plans: RefCell::new(plans.into_iter()),
            power: Arc::default(),
        }
    }

    /// Puts `dev` on the rail as the next device, under its plan.
    pub fn plug(&self, dev: MemDisk) -> Disk {
        let plan = self.plans.borrow_mut().next();
        let plan = plan.expect("more devices plugged than the scenario declares");
        FaultyDisk::on_rail(dev, plan, Arc::clone(&self.power))
    }

    fn dark(&self) -> bool {
        self.power.load(Ordering::SeqCst)
    }
}

/// What a scenario's `setup` leaves on the rail: a drive or an array.
pub trait Rig {
    /// Counted requests each device has seen, in plug order.
    fn requests_seen(&self) -> Vec<u64>;
    /// Power loss: drops every volatile state and returns the devices in
    /// plug order.
    fn crash(self) -> Vec<Disk>;
}

impl Rig for S4Drive<Disk> {
    fn requests_seen(&self) -> Vec<u64> {
        vec![self.log().device().requests_seen()]
    }

    fn crash(self) -> Vec<Disk> {
        vec![S4Drive::crash(self)]
    }
}

impl Rig for S4Array<Disk> {
    fn requests_seen(&self) -> Vec<u64> {
        let members = |s| (0..self.mirror_count()).map(move |m| (s, m));
        let all = (0..self.shard_count()).flat_map(members);
        all.map(|(s, m)| self.member_drive(s, m).log().device().requests_seen())
            .collect()
    }

    fn crash(self) -> Vec<Disk> {
        S4Array::crash(self).expect("an array crashes")
    }
}

/// A rig, with what its setup learned on the side.
impl<R: Rig, T> Rig for (R, T) {
    fn requests_seen(&self) -> Vec<u64> {
        self.0.requests_seen()
    }

    fn crash(self) -> Vec<Disk> {
        self.0.crash()
    }
}

/// A stretch of work whose every device request the power may be cut
/// at, and what must hold after.
pub trait Scenario {
    /// What `setup` builds.
    type Rig: Rig;
    /// What `run` reports to `check`.
    type Run;
    /// What one `check` counts; a campaign sums them.
    type Tally: Default + Debug + AddAssign;

    /// Devices the scenario plugs into the rail.
    fn devices(&self) -> usize;
    /// Builds the system on devices from `rail`; no cut falls inside it.
    fn setup(&self, rail: &Rail) -> Self::Rig;
    /// The crash window: runs until it ends or the power goes.
    fn run(&self, rig: &Self::Rig) -> Self::Run;
    /// Runs after the power comes back, on the images the cut left, in
    /// plug order; `died` says whether the power went during `run`.
    /// Panics, labelled with `what`, on any violation.
    fn check(&self, images: Vec<MemDisk>, run: &Self::Run, died: bool, what: &str) -> Self::Tally;
}

/// Runs `s` with power loss armed at request `k` of `device`, tearing
/// per `torn` (`None`: uncut), then cuts the power and revives the rail.
/// Returns each device's counted requests after `setup` and after `run`,
/// the images the cut left, what `run` reported and whether the rail
/// went dark.
#[allow(clippy::type_complexity)]
pub(crate) fn power_cut<S: Scenario>(
    s: &S,
    fault: Option<(usize, u64, TornPattern)>,
) -> (Vec<(u64, u64)>, Vec<MemDisk>, S::Run, bool) {
    let mut plans = vec![FaultPlan::count_only(CRASH_MASK); s.devices()];
    if let Some((device, k, torn)) = fault {
        plans[device] = FaultPlan::power_loss_with_pattern(k, torn, CRASH_MASK);
    }
    let rail = Rail::new(plans);
    let rig = s.setup(&rail);
    let start = rig.requests_seen();
    let run = s.run(&rig);
    let windows = start.into_iter().zip(rig.requests_seen()).collect();
    let devices = rig.crash();
    let died = rail.dark();
    devices.iter().for_each(FaultyDisk::revive);
    let images = devices.into_iter().map(FaultyDisk::into_inner).collect();
    (windows, images, run, died)
}

/// Each device's window `[start, end)` of countable requests, from an
/// uncut run.
pub fn windows<S: Scenario>(s: &S) -> Vec<(u64, u64)> {
    power_cut(s, None).0
}

/// Outcome of one cut (panics on invariant violation).
pub struct Outcome<S: Scenario> {
    /// Whether the power went during `run`.
    pub died: bool,
    /// What `run` reported.
    pub run: S::Run,
    /// What `check` counted.
    pub tally: S::Tally,
}

/// Cuts the power at request `k` of `device` under `torn`, and checks.
pub fn replay<S: Scenario>(s: &S, device: usize, k: u64, torn: TornPattern) -> Outcome<S> {
    let (_, images, run, died) = power_cut(s, Some((device, k, torn)));
    let what = format!("device {device} cut {k} {torn:?}");
    let tally = s.check(images, &run, died, &what);
    Outcome { died, run, tally }
}

/// Outcome of a whole campaign.
#[derive(Clone, Debug, Default)]
pub struct Summary<T> {
    /// Each device's window `[start, end)` of countable requests.
    pub windows: Vec<(u64, u64)>,
    /// Crash points in all the windows.
    pub domain: u64,
    /// Distinct crash points cut.
    pub crash_points: usize,
    /// Total replays (crash points × patterns per point).
    pub replays: usize,
    /// Replays in which the power went.
    pub died: usize,
    /// The scenario's checks, summed over the replays.
    pub tally: T,
}

/// Cuts `s` at the crash points and patterns `c` picks, then checks the
/// uncut control run. Panics on the first invariant violation.
pub fn enumerate<S: Scenario>(s: &S, c: Campaign) -> Summary<S::Tally> {
    let (windows, images, run, died) = power_cut(s, None);
    let points: Vec<(usize, u64)> = (windows.iter().enumerate())
        .flat_map(|(device, &(start, end))| (start..end).map(move |k| (device, k)))
        .collect();
    assert!(!points.is_empty(), "the run issued no countable requests");
    let mut summary = Summary {
        domain: points.len() as u64,
        windows,
        ..Summary::default()
    };
    for (j, i) in sample(summary.domain, c.cap).enumerate() {
        let (device, k) = points[i as usize];
        summary.crash_points += 1;
        for torn in patterns_at(c.per_point, j) {
            let o = replay(s, device, k, torn);
            summary.replays += 1;
            summary.died += usize::from(o.died);
            summary.tally += o.tally;
        }
    }
    assert!(!died, "the uncut run lost power");
    s.check(images, &run, false, "uncut");
    summary
}

pub(crate) fn user_ctx() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

pub(crate) fn admin_ctx() -> RequestContext {
    // small_test()'s admin token.
    RequestContext::admin(ClientId(0), 42)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_rotation_covers_the_whole_set() {
        let per_point = Some(2);
        assert_eq!(Campaign::new(per_point, None).replays_per_point(), 2);
        let all = standard_patterns();
        let mut seen = std::collections::HashSet::new();
        for j in 0..all.len() {
            for p in patterns_at(per_point, j) {
                seen.insert(format!("{p:?}"));
            }
        }
        assert_eq!(
            seen.len(),
            all.len(),
            "rotation must exercise every pattern across the campaign"
        );
    }

    #[test]
    fn the_sampler_strides_from_the_first_point() {
        assert_eq!(sample(5, None).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(sample(5, Some(8)).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(
            sample(20, Some(8)).collect::<Vec<_>>(),
            [0, 3, 6, 9, 12, 15, 18]
        );
    }
}

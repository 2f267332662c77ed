//! The versioning oracle: an in-memory model of what a drive must hold.
//!
//! Every mutation the harness (or a test) gets acknowledged is recorded
//! here as a full object state stamped with the drive's time; a read at
//! time `t` must return the last state at or before `t`. The crash
//! campaigns, the golden run and `tests/version_oracle_hermetic.rs` all
//! record into and verify through this one model.
//!
//! Retirement is modelled too: after [`Oracle::retire`] a read before
//! the expiry cutoff may find its version gone, but never a wrong one —
//! it returns the version current then, the newest landmark pinned at or
//! before it ([`Oracle::mark`]), or `VersionUnavailable`.

use std::collections::HashMap;

use s4_clock::SimTime;
use s4_core::{ObjectId, S4Drive, S4Error};
use s4_simdisk::BlockDev;

use crate::admin_ctx;

/// One object state: what every read at or after `t` (and before the
/// next version) must return.
#[derive(Clone, Debug)]
pub struct Version {
    /// Drive time of the mutation that produced this state.
    pub t: SimTime,
    /// Object contents.
    pub data: Vec<u8>,
    /// Opaque attribute blob (empty until the first `SetAttr`).
    pub attrs: Vec<u8>,
    /// False once the object is deleted.
    pub alive: bool,
}

/// The model of one drive.
#[derive(Default)]
pub struct Oracle {
    /// Each object's versions, oldest first.
    objects: HashMap<u64, Vec<Version>>,
    /// Creation order of object ids (deterministic iteration).
    order: Vec<u64>,
    /// Each object's landmark versions, oldest first.
    landmarks: HashMap<u64, Vec<Version>>,
    /// The newest expiry cutoff: every read at or after it is exact.
    retired: SimTime,
    /// Instants the cross-product check reads every object at; callers
    /// push the drive's time after each step.
    pub checkpoints: Vec<SimTime>,
}

impl Oracle {
    /// Objects ever created.
    pub(crate) fn objects(&self) -> usize {
        self.order.len()
    }

    /// The newest state of `oid` (`None` if it was never created).
    pub fn current(&self, oid: ObjectId) -> Option<&Version> {
        self.objects.get(&oid.0)?.last()
    }

    /// Records that `oid` was created, empty, at `now`.
    pub fn create(&mut self, oid: ObjectId, now: SimTime) {
        self.order.push(oid.0);
        self.objects.entry(oid.0).or_default().push(Version {
            t: now,
            data: Vec::new(),
            attrs: Vec::new(),
            alive: true,
        });
    }

    /// Pushes a copy of `oid`'s newest state, stamped `now` and edited.
    fn edit(&mut self, oid: ObjectId, now: SimTime, edit: impl FnOnce(&mut Version)) {
        let history = self
            .objects
            .get_mut(&oid.0)
            .expect("oracle: unknown object");
        let mut next = history.last().expect("oracle: empty history").clone();
        next.t = now;
        edit(&mut next);
        history.push(next);
    }

    /// Records a write of `data` at `offset` (zero-filling any gap).
    pub fn write(&mut self, oid: ObjectId, now: SimTime, offset: u64, data: &[u8]) {
        self.edit(oid, now, |v| {
            let end = offset as usize + data.len();
            if v.data.len() < end {
                v.data.resize(end, 0);
            }
            v.data[offset as usize..end].copy_from_slice(data);
        });
    }

    /// Records a truncate (or zero-extension) to `len` bytes.
    pub fn truncate(&mut self, oid: ObjectId, now: SimTime, len: u64) {
        self.edit(oid, now, |v| v.data.resize(len as usize, 0));
    }

    /// Records a delete: reads at or after `now` must fail.
    pub fn delete(&mut self, oid: ObjectId, now: SimTime) {
        self.edit(oid, now, |v| v.alive = false);
    }

    /// Records a `SetAttr` of the whole opaque blob.
    pub fn set_attr(&mut self, oid: ObjectId, now: SimTime, attrs: &[u8]) {
        self.edit(oid, now, |v| v.attrs = attrs.to_vec());
    }

    /// The state of `oid` at `t`: its last version at or before `t`.
    pub fn version_at(&self, oid: ObjectId, t: SimTime) -> Option<&Version> {
        self.objects.get(&oid.0)?.iter().rev().find(|v| v.t <= t)
    }

    /// Records an expiry pass whose cutoff was `before` (the drive's time
    /// less its detection window): a version superseded before it may be
    /// gone from the history.
    pub fn retire(&mut self, before: SimTime) {
        self.retired = self.retired.max(before);
    }

    /// The newest expiry cutoff [`Oracle::retire`] recorded.
    pub fn retired(&self) -> SimTime {
        self.retired
    }

    /// Records a landmark pinned on `oid` at `t`, an instant at or after
    /// the expiry cutoff (below it the oracle cannot name the version).
    pub fn mark(&mut self, oid: ObjectId, t: SimTime) {
        assert!(
            t >= self.retired,
            "oracle: landmark at {t} below the cutoff"
        );
        let v = self
            .version_at(oid, t)
            .expect("oracle: landmark before creation")
            .clone();
        let pinned = self.landmarks.entry(oid.0).or_default();
        pinned.push(v);
        pinned.sort_by_key(|v| v.t);
    }

    /// Checks a read of `oid` at `t`: exact at or after the expiry
    /// cutoff ([`Oracle::check`]); before it, the read may also find the
    /// newest landmark pinned at or before `t`, or `VersionUnavailable`.
    fn check_at<D: BlockDev>(&self, drive: &S4Drive<D>, oid: ObjectId, t: SimTime, what: &str) {
        let exact = self.version_at(oid, t);
        if t >= self.retired {
            match exact {
                Some(want) => Self::check(drive, oid, t, want, what),
                None => assert!(
                    drive.op_getattr(&admin_ctx(), oid, Some(t)).is_err(),
                    "{what}: {oid} should not exist at {t}"
                ),
            }
            return;
        }
        let landmarks = self.landmarks.get(&oid.0).map_or(&[][..], |l| l);
        let pinned = landmarks.iter().rev().find(|v| v.t <= t);
        let gone = |v: Option<&Version>| v.is_none_or(|v| !v.alive);
        match drive.op_read(&admin_ctx(), oid, 0, 1 << 16, Some(t)) {
            Ok(got) => assert!(
                [exact, pinned]
                    .into_iter()
                    .flatten()
                    .any(|v| v.alive && v.data == got),
                "{what}: {oid} at {t}, below the cutoff {}, read back {} bytes that are \
                 neither its version ({:?}) nor its landmark's ({:?})",
                self.retired,
                got.len(),
                exact.map(|v| (v.t, v.data.len())),
                pinned.map(|v| (v.t, v.data.len())),
            ),
            Err(S4Error::VersionUnavailable) => {}
            // Refused as missing: the version or the landmark it would
            // serve is a deletion, or expiry retired the object whole.
            Err(err) => assert!(
                gone(exact) || gone(self.current(oid)) || (pinned.is_some() && gone(pinned)),
                "{what}: {oid} at {t}, below the cutoff: {err:?}"
            ),
        }
    }

    /// Asserts that `drive` returns exactly `want` (or refuses, if the
    /// object is not alive) for a read of `oid` at time `t`.
    fn check<D: BlockDev>(
        drive: &S4Drive<D>,
        oid: ObjectId,
        t: SimTime,
        want: &Version,
        what: &str,
    ) {
        let admin = admin_ctx();
        let read = drive.op_read(&admin, oid, 0, 1 << 16, Some(t));
        if !want.alive {
            assert!(read.is_err(), "{what}: {oid} deleted at {t} but readable");
            return;
        }
        let got = read.unwrap_or_else(|err| {
            panic!("{what}: version lost — {oid} at {t} unreadable: {err:?}")
        });
        assert_eq!(
            got,
            want.data,
            "{what}: {oid} content diverged at {t} ({} vs {} bytes)",
            got.len(),
            want.data.len()
        );
        let attrs = drive
            .op_getattr(&admin, oid, Some(t))
            .unwrap_or_else(|err| panic!("{what}: {oid} attrs at {t} lost: {err:?}"));
        assert_eq!(
            attrs.size,
            want.data.len() as u64,
            "{what}: {oid} size at {t}"
        );
        assert_eq!(attrs.opaque, want.attrs, "{what}: {oid} attrs at {t}");
    }

    /// The durable-prefix check (invariant a): every version stamped at
    /// or before `boundary` must read back at its own time, exactly when
    /// it is not older than the expiry cutoff.
    /// Returns the number of version checks performed; `what` labels
    /// failures.
    pub(crate) fn verify_durable<D: BlockDev>(
        &self,
        drive: &S4Drive<D>,
        boundary: SimTime,
        what: &str,
    ) -> usize {
        let mut checked = 0;
        for &raw in &self.order {
            for e in self.objects[&raw].iter().filter(|e| e.t <= boundary) {
                checked += 1;
                self.check_at(drive, ObjectId(raw), e.t, what);
            }
        }
        checked
    }

    /// The cross-product check: every object at every checkpoint instant
    /// — the strongest validation; crashed replays use the cheaper
    /// per-version `verify_durable`.
    pub fn verify_full<D: BlockDev>(&self, drive: &S4Drive<D>, what: &str) -> usize {
        let mut checked = 0;
        for &raw in &self.order {
            let oid = ObjectId(raw);
            for &t in &self.checkpoints {
                checked += 1;
                self.check_at(drive, oid, t, what);
            }
        }
        checked
    }
}

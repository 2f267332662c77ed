//! Built-in detection rules.
//!
//! Each rule is a streaming detector over the audit stream, fed by
//! [`DetectorSet`](crate::DetectorSet) in a fixed order. It raises an
//! alert as the triggering record marked with the rule and carrying the
//! rule's numbers ([`AuditRecord::alert`]), which the crate's `Alert`
//! view puts in words. Each is tuned
//! so a heavy-but-honest workload (the PostMark harness: thousands of
//! create/append/delete transactions from one client) raises **zero**
//! alerts, while the §2 intrusion shapes fire reliably:
//!
//! | rule | intrusion shape |
//! |------|-----------------|
//! | [`AppendOnlyViolation`] | scrubbing a log file (truncate/overwrite below the high-water mark) |
//! | [`ForeignClient`] | stolen credentials used from a different client machine |
//! | [`RansomStorm`] | mass overwrite/shrink across many objects in a short window |
//! | [`WriteRateSpike`] | write throughput far above the principal's learned baseline |
//! | [`AclTamperBurst`] | bursts of ACL changes, denials, and attr tampering |
//! | [`AuditGapCheck`] | non-monotonic audit stream (records missing or reordered) |

use std::collections::{HashMap, HashSet, VecDeque};

use s4_clock::{SimDuration, SimTime};
use s4_core::{AlertRule, AuditRecord, OpKind};

use crate::timeline::{ObjectProfile, ProfileEvent};

// ---------------------------------------------------------------------
// Append-only violation (log scrubbing).
// ---------------------------------------------------------------------

/// Flags destruction of data in objects that have behaved append-only —
/// the classic "intruders scrub the system log" move of §2.1. An object
/// qualifies after `MIN_APPENDS` (2) strictly-appending mutations with
/// no prior overwrite; directory blobs disqualify themselves immediately
/// (their entry count at offset 0 is rewritten on every update), and
/// deletes are deliberately *not* violations — a deleted log is
/// trivially recovered from the history pool, while a scrubbed-in-place
/// one is what the audit log exists to catch.
#[derive(Default)]
pub(crate) struct AppendOnlyViolation {
    profiles: HashMap<u64, ObjectProfile>,
}

/// Appending mutations required before an object qualifies.
const MIN_APPENDS: u32 = 2;

impl AppendOnlyViolation {
    pub(crate) fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<AuditRecord>) {
        if !rec.ok || rec.object.0 == 0 {
            return;
        }
        match rec.op {
            OpKind::Create => {
                self.profiles.insert(rec.object.0, ObjectProfile::default());
            }
            OpKind::Delete => {
                self.profiles.remove(&rec.object.0);
            }
            op if op.creates_version() => {
                let p = self.profiles.entry(rec.object.0).or_default();
                if let ProfileEvent::Destructive { first: true } = p.observe(rec, MIN_APPENDS) {
                    let appends = p.appends.into();
                    sink.push(AuditRecord::alert(
                        rec,
                        AlertRule::AppendOnlyViolation,
                        appends,
                        0,
                    ));
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Foreign client (stolen credentials).
// ---------------------------------------------------------------------

/// Flags a user mutating objects from a client machine other than the
/// one their history established — §3.2's point that audit records name
/// the *client machine*, bounding damage from a single compromised
/// host. The home client is learned from the user's first
/// `MIN_HOME_OPS` (8) requests; mutations from anywhere else then raise
/// one warning per `(client, object)` pair.
#[derive(Default)]
pub(crate) struct ForeignClient {
    homes: HashMap<u32, (u32, u64)>,
    reported: HashSet<(u32, u32, u64)>,
}

/// Requests from the home client required before alerting.
const MIN_HOME_OPS: u64 = 8;

impl ForeignClient {
    pub(crate) fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<AuditRecord>) {
        let (home, ops) = self.homes.entry(rec.user.0).or_insert((rec.client.0, 0));
        if *home == rec.client.0 {
            *ops += 1;
            return;
        }
        if *ops < MIN_HOME_OPS || !rec.ok || !rec.op.creates_version() {
            return;
        }
        let home = (*home).into();
        if self
            .reported
            .insert((rec.user.0, rec.client.0, rec.object.0))
        {
            sink.push(AuditRecord::alert(rec, AlertRule::ForeignClient, home, 0));
        }
    }
}

// ---------------------------------------------------------------------
// Ransomware-shaped overwrite storm.
// ---------------------------------------------------------------------

/// Flags many *distinct* objects being overwritten or shrunk inside a
/// short window — the encrypt-in-place ransomware shape. Pure mass
/// deletion deliberately does not alarm: deleted objects remain fully
/// recoverable inside the detection window (§3.1), whereas overwrites
/// consume history-pool space and signal data replacement.
#[derive(Default)]
pub(crate) struct RansomStorm {
    profiles: HashMap<u64, ObjectProfile>,
    events: VecDeque<(SimTime, u64)>,
    // Multiplicity of each object in `events`, kept incrementally so
    // the distinct count is O(1) per record (the window can span the
    // whole run when simulated time moves slowly).
    in_window: HashMap<u64, u32>,
}

/// Sliding window of [`RansomStorm`].
pub(crate) const STORM_WINDOW: SimDuration = SimDuration::from_secs(60);
/// Distinct destructively-modified objects that trip the alarm.
const STORM_THRESHOLD: usize = 24;

impl RansomStorm {
    pub(crate) fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<AuditRecord>) {
        if !rec.ok || rec.object.0 == 0 {
            return;
        }
        match rec.op {
            OpKind::Create => {
                self.profiles.insert(rec.object.0, ObjectProfile::default());
                return;
            }
            OpKind::Delete => {
                self.profiles.remove(&rec.object.0);
                return;
            }
            op if op.creates_version() => {}
            _ => return,
        }
        let p = self.profiles.entry(rec.object.0).or_default();
        if !matches!(p.observe(rec, u32::MAX), ProfileEvent::Destructive { .. }) {
            return;
        }
        self.events.push_back((rec.time, rec.object.0));
        *self.in_window.entry(rec.object.0).or_insert(0) += 1;
        while let Some(&(t, o)) = self.events.front() {
            if rec.time.saturating_since(t) > STORM_WINDOW {
                self.events.pop_front();
                if let Some(n) = self.in_window.get_mut(&o) {
                    *n -= 1;
                    if *n == 0 {
                        self.in_window.remove(&o);
                    }
                }
            } else {
                break;
            }
        }
        if self.in_window.len() >= STORM_THRESHOLD {
            let objects = self.in_window.len() as u64;
            sink.push(AuditRecord::alert(rec, AlertRule::RansomStorm, objects, 0));
            // Rearm rather than alert per record.
            self.events.clear();
            self.in_window.clear();
        }
    }
}

// ---------------------------------------------------------------------
// Write-rate spike.
// ---------------------------------------------------------------------

struct RateState {
    window_start: SimTime,
    bytes: u64,
    baseline: Option<f64>,
    alerted: bool,
}

/// Flags a principal writing far above their own learned baseline —
/// the same per-principal byte accounting the §3.3 throttle uses, but
/// as a detector instead of a brake. The first active window only
/// trains the baseline; subsequent windows alarm when they exceed
/// 8 × the exponential moving average (with an 8 MiB floor so modest
/// workloads never alarm).
#[derive(Default)]
pub(crate) struct WriteRateSpike {
    state: HashMap<(u32, u32), RateState>,
}

/// Accounting window of [`WriteRateSpike`].
pub(crate) const SPIKE_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Multiple of the baseline that trips the alarm.
const SPIKE_FACTOR: u64 = 8;
/// Bytes below which a window never alarms, whatever the baseline.
const SPIKE_MIN_BYTES: u64 = 8 << 20;

impl WriteRateSpike {
    pub(crate) fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<AuditRecord>) {
        if !rec.ok {
            return;
        }
        let b = rec.bytes_written();
        if b == 0 {
            return;
        }
        let st = self
            .state
            .entry((rec.user.0, rec.client.0))
            .or_insert(RateState {
                window_start: rec.time,
                bytes: 0,
                baseline: None,
                alerted: false,
            });
        if rec.time.saturating_since(st.window_start) >= SPIKE_WINDOW {
            // Fold the completed window into the baseline. Idle windows
            // are skipped so a quiet hour does not erode it.
            let done = st.bytes as f64;
            st.baseline = Some(match st.baseline {
                None => done,
                Some(ema) => 0.75 * ema + 0.25 * done,
            });
            st.window_start = rec.time;
            st.bytes = 0;
            st.alerted = false;
        }
        st.bytes += b;
        if st.alerted {
            return;
        }
        if let Some(ema) = st.baseline {
            let threshold = (SPIKE_FACTOR as f64 * ema).max(SPIKE_MIN_BYTES as f64);
            if st.bytes as f64 > threshold {
                st.alerted = true;
                let baseline = ema.to_bits();
                sink.push(AuditRecord::alert(
                    rec,
                    AlertRule::WriteRateSpike,
                    st.bytes,
                    baseline,
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// ACL / attribute tampering burst.
// ---------------------------------------------------------------------

/// Flags bursts of permission fiddling: successful ACL changes, denied
/// requests of any kind, and attribute rewrites on long-established
/// objects. Attribute writes right after creation are the file server
/// initializing metadata and are ignored.
#[derive(Default)]
pub(crate) struct AclTamperBurst {
    created_at: HashMap<u64, SimTime>,
    events: HashMap<(u32, u32), VecDeque<SimTime>>,
}

/// Sliding window of [`AclTamperBurst`].
pub(crate) const TAMPER_WINDOW: SimDuration = SimDuration::from_secs(60);
/// Tamper-shaped events in the window that trip the alarm.
pub(crate) const TAMPER_THRESHOLD: usize = 6;
/// Object age below which `SetAttr` is considered initialization.
const TAMPER_GRACE: SimDuration = SimDuration::from_secs(60);

impl AclTamperBurst {
    fn is_tamper(&self, rec: &AuditRecord) -> bool {
        if !rec.ok {
            return true; // any denial counts
        }
        match rec.op {
            OpKind::SetAcl => true,
            OpKind::SetAttr => match self.created_at.get(&rec.object.0) {
                // Unknown creation time = predates monitoring = established.
                None => true,
                Some(&t) => rec.time.saturating_since(t) > TAMPER_GRACE,
            },
            _ => false,
        }
    }
}

impl AclTamperBurst {
    pub(crate) fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<AuditRecord>) {
        if rec.ok && rec.op == OpKind::Create {
            self.created_at.insert(rec.object.0, rec.time);
            return;
        }
        if !self.is_tamper(rec) {
            return;
        }
        let q = self.events.entry((rec.user.0, rec.client.0)).or_default();
        q.push_back(rec.time);
        while let Some(&t) = q.front() {
            if rec.time.saturating_since(t) > TAMPER_WINDOW {
                q.pop_front();
            } else {
                break;
            }
        }
        if q.len() >= TAMPER_THRESHOLD {
            q.clear(); // rearm
            sink.push(AuditRecord::alert(rec, AlertRule::AclTamperBurst, 0, 0));
        }
    }
}

// ---------------------------------------------------------------------
// Audit coverage gap.
// ---------------------------------------------------------------------

/// Flags a non-monotonic audit stream. The drive appends records in
/// dispatch order under a single clock, so time ever moving backwards
/// means records were lost, reordered, or spliced — a coverage gap.
/// (Whole-tail loss across a crash is caught offline by
/// [`audit_coverage`](crate::forensics::audit_coverage), which compares
/// the decodable record count against the drive's append counter.)
#[derive(Default)]
pub(crate) struct AuditGapCheck {
    last: Option<SimTime>,
}

impl AuditGapCheck {
    pub(crate) fn observe(&mut self, rec: &AuditRecord, sink: &mut Vec<AuditRecord>) {
        if let Some(last) = self.last {
            if rec.time < last {
                let last = last.as_micros();
                sink.push(AuditRecord::alert(rec, AlertRule::AuditGap, last, 0));
            }
        }
        self.last = Some(self.last.unwrap_or(rec.time).max(rec.time));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alert, Severity};
    use s4_core::{ClientId, ObjectId, UserId};

    fn render(rec: &AuditRecord) -> Alert {
        Alert::render(rec).expect("a rule raises alerts")
    }

    #[allow(clippy::too_many_arguments)]
    fn rec_at(
        secs: u64,
        user: u32,
        client: u32,
        op: OpKind,
        ok: bool,
        object: u64,
        arg1: u64,
        arg2: u64,
    ) -> AuditRecord {
        AuditRecord {
            time: SimTime::from_secs(secs),
            user: UserId(user),
            client: ClientId(client),
            op,
            ok,
            object: ObjectId(object),
            arg1,
            arg2,
            trace: Default::default(),
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        }
    }

    #[test]
    fn append_only_rule_fires_on_log_scrub() {
        let mut d = AppendOnlyViolation::default();
        let mut sink = Vec::new();
        d.observe(&rec_at(1, 1, 1, OpKind::Create, true, 9, 0, 0), &mut sink);
        d.observe(&rec_at(2, 1, 1, OpKind::Write, true, 9, 0, 40), &mut sink);
        d.observe(&rec_at(3, 1, 1, OpKind::Append, true, 9, 30, 0), &mut sink);
        assert!(sink.is_empty());
        d.observe(
            &rec_at(4, 1, 66, OpKind::Truncate, true, 9, 0, 0),
            &mut sink,
        );
        assert_eq!(sink.len(), 1);
        assert_eq!(render(&sink[0]).rule, "append-only-violation");
        assert_eq!(render(&sink[0]).object, ObjectId(9));
        assert_eq!(render(&sink[0]).severity, Severity::Critical);
    }

    #[test]
    fn append_only_rule_ignores_scratch_files() {
        let mut d = AppendOnlyViolation::default();
        let mut sink = Vec::new();
        // Overwritten from the start: never qualifies.
        d.observe(&rec_at(1, 1, 1, OpKind::Create, true, 3, 0, 0), &mut sink);
        d.observe(&rec_at(2, 1, 1, OpKind::Write, true, 3, 0, 40), &mut sink);
        d.observe(&rec_at(3, 1, 1, OpKind::Write, true, 3, 0, 40), &mut sink);
        d.observe(&rec_at(4, 1, 1, OpKind::Truncate, true, 3, 0, 0), &mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn foreign_client_needs_a_learned_home() {
        let mut d = ForeignClient::default();
        let mut sink = Vec::new();
        // Only 3 home ops: a foreign mutation stays silent.
        for s in 0..3 {
            d.observe(&rec_at(s, 7, 1, OpKind::Read, true, 2, 0, 0), &mut sink);
        }
        d.observe(&rec_at(5, 7, 9, OpKind::Write, true, 2, 0, 10), &mut sink);
        assert!(sink.is_empty());
        // Establish the home properly, then mutate from elsewhere.
        for s in 0..8 {
            d.observe(
                &rec_at(10 + s, 7, 1, OpKind::Read, true, 2, 0, 0),
                &mut sink,
            );
        }
        d.observe(&rec_at(30, 7, 9, OpKind::Write, true, 2, 0, 10), &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(render(&sink[0]).rule, "foreign-client");
        // Same (client, object) pair does not repeat-alert.
        d.observe(&rec_at(31, 7, 9, OpKind::Write, true, 2, 0, 10), &mut sink);
        assert_eq!(sink.len(), 1);
        // A different object does.
        d.observe(&rec_at(32, 7, 9, OpKind::Delete, true, 4, 0, 0), &mut sink);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn ransom_storm_fires_on_mass_overwrite_not_mass_delete() {
        let mut d = RansomStorm::default();
        let mut sink = Vec::new();
        // Mass delete: silent (recoverable in the window).
        for o in 100..200 {
            d.observe(&rec_at(1, 1, 1, OpKind::Delete, true, o, 0, 0), &mut sink);
        }
        assert!(sink.is_empty());
        // Mass in-place overwrite: encrypt-in-place shape. Each object is
        // written, then overwritten; 23 distinct overwrites in the window
        // stay quiet and the 24th fires.
        let mut overwrite = |o: u64, sink: &mut Vec<AuditRecord>| {
            d.observe(&rec_at(2, 1, 1, OpKind::Write, true, o, 0, 100), sink);
            d.observe(&rec_at(2, 1, 1, OpKind::Write, true, o, 0, 100), sink);
        };
        for o in 200..223 {
            overwrite(o, &mut sink);
        }
        assert!(sink.is_empty(), "23 distinct overwrites stay quiet");
        overwrite(223, &mut sink);
        assert_eq!(sink.len(), 1, "the 24th distinct overwrite fires");
        assert_eq!(render(&sink[0]).rule, "ransom-storm");
        assert_eq!(
            render(&sink[0]).message,
            "24 distinct objects overwritten or shrunk within 60s"
        );
    }

    #[test]
    fn write_rate_spike_learns_then_alerts() {
        const MIB: u64 = 1 << 20;
        let mut d = WriteRateSpike::default();
        let mut sink = Vec::new();
        // Window 1 (learning): 4 MiB.
        for s in 0..4 {
            d.observe(&rec_at(s, 1, 1, OpKind::Write, true, 5, 0, MIB), &mut sink);
        }
        // Window 2: similar volume — quiet.
        for s in 10..14 {
            d.observe(&rec_at(s, 1, 1, OpKind::Write, true, 5, 0, MIB), &mut sink);
        }
        assert!(sink.is_empty());
        // Window 3: 60 MiB, past 8x the baseline and the 8 MiB floor.
        for s in 20..26 {
            d.observe(
                &rec_at(s, 1, 1, OpKind::Write, true, 5, 0, 10 * MIB),
                &mut sink,
            );
        }
        assert_eq!(sink.len(), 1, "alerts once, not per record");
        assert_eq!(render(&sink[0]).rule, "write-rate-spike");
        assert_eq!(
            render(&sink[0]).message,
            "41943040 bytes written in the current 10s window vs baseline 4194304"
        );

        // Another principal: a 256 KiB baseline, then a 7 MiB window —
        // 28x the baseline, but under the floor, so quiet.
        sink.clear();
        for s in 0..4 {
            d.observe(
                &rec_at(s, 2, 2, OpKind::Write, true, 6, 0, MIB / 16),
                &mut sink,
            );
        }
        for s in 10..17 {
            d.observe(&rec_at(s, 2, 2, OpKind::Write, true, 6, 0, MIB), &mut sink);
        }
        assert!(sink.is_empty(), "a window under 8 MiB never alarms");
    }

    #[test]
    fn acl_burst_ignores_initialization_setattr() {
        let mut d = AclTamperBurst::default();
        let mut sink = Vec::new();
        // create+setattr pairs, the file-server shape: quiet.
        for o in 0..20 {
            d.observe(
                &rec_at(o, 1, 1, OpKind::Create, true, 50 + o, 0, 0),
                &mut sink,
            );
            d.observe(
                &rec_at(o, 1, 1, OpKind::SetAttr, true, 50 + o, 3, 0),
                &mut sink,
            );
        }
        assert!(sink.is_empty());
        // A burst of denials trips it.
        for s in 100..106 {
            d.observe(&rec_at(s, 6, 6, OpKind::Read, false, 50, 0, 0), &mut sink);
        }
        assert_eq!(sink.len(), 1);
        assert_eq!(render(&sink[0]).rule, "acl-tamper-burst");
    }

    #[test]
    fn audit_gap_flags_time_reversal() {
        let mut d = AuditGapCheck::default();
        let mut sink = Vec::new();
        d.observe(&rec_at(10, 1, 1, OpKind::Sync, true, 0, 0, 0), &mut sink);
        d.observe(&rec_at(11, 1, 1, OpKind::Sync, true, 0, 0, 0), &mut sink);
        assert!(sink.is_empty());
        d.observe(&rec_at(5, 1, 1, OpKind::Sync, true, 0, 0, 0), &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(render(&sink[0]).rule, "audit-gap");
    }
}

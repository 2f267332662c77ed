//! The alert, rendered: what an alert's audit record says, in words.
//!
//! The drive files an alert as one [`AuditRecord`] in its audit log: the
//! triggering record with the rule in its origin byte and the rule's
//! numbers in its arguments ([`AlertRule`] states which). Everything else
//! an operator reads — the rule's name, its severity, the diagnosis —
//! follows from the rule and those numbers, and `Alert::render` is where
//! it does: the online monitor's stored alerts and an offline scan over
//! the same records render to equal alerts, message included.

use s4_clock::{SimDuration, SimTime};
use s4_core::{AlertRule, AuditRecord, ClientId, ObjectId, S4Error, UserId};

use crate::rules;

/// How bad an [`Alert`] is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious; warrants a look at the forensic timeline.
    Warning,
    /// Strong intrusion signal; start the §2 recovery procedure.
    Critical,
}

/// One alert as an operator reads it: which rule fired, on whose
/// request, against which object, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alert {
    /// Time of the triggering request (drive clock).
    pub time: SimTime,
    /// Escalation level.
    pub severity: Severity,
    /// Name of the rule that fired (e.g. `append-only-violation`).
    pub rule: String,
    /// User of the triggering request.
    pub user: UserId,
    /// Client machine of the triggering request.
    pub client: ClientId,
    /// Object concerned (0 when the alert is not object-specific).
    pub object: ObjectId,
    /// Free-form diagnosis.
    pub message: String,
}

/// Each rule's name and severity, in [`AlertRule`] code order.
const RULES: [(&str, Severity); 8] = [
    ("append-only-violation", Severity::Critical),
    ("foreign-client", Severity::Warning),
    ("ransom-storm", Severity::Critical),
    ("write-rate-spike", Severity::Warning),
    ("acl-tamper-burst", Severity::Warning),
    ("audit-gap", Severity::Critical),
    ("array-degraded", Severity::Warning),
    ("array-resync", Severity::Warning),
];

impl Alert {
    /// The alert an alert's audit record says; `None` for any other
    /// record.
    pub(crate) fn render(rec: &AuditRecord) -> Option<Alert> {
        use AlertRule::*;
        let rule = rec.alert_rule()?;
        let (a1, a2, op) = (rec.arg1, rec.arg2, rec.op);
        let secs = |d: SimDuration| d.as_secs_f64();
        // An array alert's member, from its `shard << 32 | member`.
        let member = || format!("member {} of shard {}", a1 as u32, a1 >> 32);
        let message = match rule {
            AppendOnlyViolation => format!(
                "{op:?} destroyed data in an object with {a1} strictly-appending \
                 mutations (log-scrub shape)"
            ),
            ForeignClient => format!(
                "user {} (home client {a1}) issued {op:?} from client {} — stolen credentials?",
                rec.user.0, rec.client.0
            ),
            RansomStorm => format!(
                "{a1} distinct objects overwritten or shrunk within {:.0}s",
                secs(rules::STORM_WINDOW)
            ),
            WriteRateSpike => format!(
                "{a1} bytes written in the current {:.0}s window vs baseline {:.0}",
                secs(rules::SPIKE_WINDOW),
                f64::from_bits(a2)
            ),
            AclTamperBurst => format!(
                "{} ACL changes / denials / attr rewrites within {:.0}s",
                rules::TAMPER_THRESHOLD,
                secs(rules::TAMPER_WINDOW)
            ),
            AuditGap => format!(
                "audit time went backwards ({} then {})",
                SimTime::from_micros(a1),
                rec.time
            ),
            ArrayDegraded => {
                let what = ["dead", "read-only"][usize::from(a2 >> 8 & 1 == 1)];
                let kinds = S4Error::KINDS.get(usize::from(a2 as u8));
                let fault = kinds.unwrap_or(&"unknown error");
                format!("{} marked {what}: {fault}", member())
            }
            ArrayResync if rec.ok => format!("{} resynced and back in sync", member()),
            ArrayResync => format!("{} not resynced: differs first in {}", member(), rec.object),
        };
        let (name, severity) = RULES[rule as usize - 1];
        Some(Alert {
            time: rec.time,
            severity,
            rule: name.to_string(),
            user: rec.user,
            client: rec.client,
            object: rec.object,
            message,
        })
    }
}

impl std::fmt::Display for Alert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}] {} at {}: ", self.severity, self.rule, self.time)?;
        let (user, client, message) = (self.user.0, self.client.0, &self.message);
        write!(f, "user={user} client={client} {} — {message}", self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_core::{OpKind, TraceCtx};

    fn trigger() -> AuditRecord {
        AuditRecord {
            time: SimTime::from_micros(123_456),
            user: UserId(1),
            client: ClientId(66),
            op: OpKind::Truncate,
            ok: true,
            object: ObjectId(42),
            arg1: 0,
            arg2: 0,
            trace: TraceCtx::default(),
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        }
    }

    #[test]
    fn only_an_alert_record_renders() {
        assert_eq!(Alert::render(&trigger()), None);
        let rec = AuditRecord::alert(&trigger(), AlertRule::AppendOnlyViolation, 3, 0);
        let alert = Alert::render(&rec).unwrap();
        assert_eq!(
            (alert.time, alert.user, alert.client, alert.object),
            (rec.time, UserId(1), ClientId(66), ObjectId(42))
        );
        let s = alert.to_string();
        assert!(s.contains("append-only-violation"), "{s}");
        assert!(s.contains("client=66"), "{s}");
        assert!(s.contains("with 3 strictly-appending"), "{s}");
    }

    /// The array's alerts keep codes, and render them as the text the
    /// array used to file.
    #[test]
    fn array_alerts_render_from_their_codes() {
        let at = |rule, ok, object, arg1, arg2| {
            let rec = AuditRecord {
                ok,
                object: ObjectId(object),
                ..trigger()
            };
            Alert::render(&AuditRecord::alert(&rec, rule, arg1, arg2)).unwrap()
        };
        let full = S4Error::PoolFull.kind();
        let dead = at(AlertRule::ArrayDegraded, false, 0, 3 << 32 | 1, full.into());
        assert_eq!(dead.rule, "array-degraded");
        assert_eq!(dead.severity, Severity::Warning);
        assert_eq!(
            dead.message,
            "member 1 of shard 3 marked dead: history pool full"
        );
        let read_only = at(AlertRule::ArrayDegraded, false, 0, 0, 1 << 8 | 5);
        assert_eq!(
            read_only.message,
            "member 0 of shard 0 marked read-only: bad request"
        );
        let back = at(AlertRule::ArrayResync, true, 0, 2 << 32, 0);
        assert_eq!(
            back.message,
            "member 0 of shard 2 resynced and back in sync"
        );
        let refused = at(AlertRule::ArrayResync, false, 9, 1, 0);
        assert_eq!(
            refused.message,
            "member 1 of shard 0 not resynced: differs first in obj:9"
        );
    }
}

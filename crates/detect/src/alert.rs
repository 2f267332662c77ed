//! Structured alerts and their wire encoding.
//!
//! Detectors raise [`Alert`]s; when running online inside the drive the
//! encoded form is persisted to the reserved alert object (see
//! `s4_core::reserved`), so the format must round-trip byte-exactly.

use s4_clock::SimTime;
use s4_core::codec::Reader;
use s4_core::{ClientId, ObjectId, S4Error, UserId};

/// How bad it is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum Severity {
    /// Noteworthy but expected to be benign on its own.
    Info = 1,
    /// Suspicious; warrants a look at the forensic timeline.
    Warning = 2,
    /// Strong intrusion signal; start the §2 recovery procedure.
    Critical = 3,
}

impl Severity {
    fn from_u8(v: u8) -> Result<Severity, S4Error> {
        match v {
            1 => Ok(Severity::Info),
            2 => Ok(Severity::Warning),
            3 => Ok(Severity::Critical),
            _ => Err(S4Error::BadRequest("alert severity")),
        }
    }
}

/// One detector finding: which rule fired, on whose request, against
/// which object, and a human-readable explanation.
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

impl Alert {
    /// Binary encoding: fixed header, then length-prefixed rule and
    /// message strings.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(29 + self.rule.len() + self.message.len());
        out.push(self.severity as u8);
        out.extend_from_slice(&self.time.as_micros().to_le_bytes());
        out.extend_from_slice(&self.user.0.to_le_bytes());
        out.extend_from_slice(&self.client.0.to_le_bytes());
        out.extend_from_slice(&self.object.0.to_le_bytes());
        out.extend_from_slice(&(self.rule.len() as u16).to_le_bytes());
        out.extend_from_slice(self.rule.as_bytes());
        out.extend_from_slice(&(self.message.len() as u16).to_le_bytes());
        out.extend_from_slice(self.message.as_bytes());
        out
    }

    /// Decodes one alert blob (as stored in the alert object).
    pub fn decode(buf: &[u8]) -> Result<Alert, S4Error> {
        let mut r = Reader::new(buf, "alert blob truncated");
        let severity = Severity::from_u8(r.u8()?)?;
        let time = SimTime::from_micros(r.u64()?);
        let (user, client, object) = (UserId(r.u32()?), ClientId(r.u32()?), ObjectId(r.u64()?));
        let mut string = || -> Result<String, S4Error> {
            let n = r.u16()? as usize;
            String::from_utf8(r.take(n)?.to_vec())
                .map_err(|_| S4Error::BadRequest("alert string utf8"))
        };
        let (rule, message) = (string()?, string()?);
        Ok(Alert {
            time,
            severity,
            rule,
            user,
            client,
            object,
            message,
        })
    }
}

impl core::fmt::Display for Alert {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{:?}] {} at {}: user={} client={} {} — {}",
            self.severity, self.rule, self.time, self.user.0, self.client.0, self.object,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Alert {
        Alert {
            time: SimTime::from_micros(123_456),
            severity: Severity::Critical,
            rule: "append-only-violation".into(),
            user: UserId(1),
            client: ClientId(66),
            object: ObjectId(42),
            message: "auth.log truncated below its watermark".into(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let a = sample();
        assert_eq!(Alert::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Alert::decode(&[]).is_err());
        assert!(Alert::decode(&[9u8; 27]).is_err()); // bad severity
        let mut enc = sample().encode();
        enc.truncate(enc.len() - 1); // cut the message short
        assert!(Alert::decode(&enc).is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = sample().to_string();
        assert!(s.contains("append-only-violation"));
        assert!(s.contains("client=66"));
    }
}

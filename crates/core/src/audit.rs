//! The audit log (§4.2.3).
//!
//! "S4 maintains an append-only audit log of all requests. This log is
//! implemented as a reserved object within the drive that cannot be
//! modified except by the drive itself. ... Since the audit log may only
//! be written by the drive front end, it need not be versioned."
//!
//! This module is the record codec; buffering, block spill and recovery
//! are the reserved-stream mechanism in `reserved`. An alert is
//! a record of this stream too ([`AuditRecord::alert`]).

use s4_clock::SimTime;
use s4_lfs::BLOCK_SIZE;

use crate::codec::Reader;
use crate::ids::{ClientId, ObjectId, TraceCtx, UserId, PHASE_ALERT};
use crate::{Result, S4Error};

/// Operation classification recorded in audit records (mirrors Table 1).
/// The code is also a request's tag on the wire ([`crate::Request::encode`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum OpKind {
    Create = 1,
    Delete = 2,
    Read = 3,
    Write = 4,
    Append = 5,
    Truncate = 6,
    GetAttr = 7,
    SetAttr = 8,
    GetAclByUser = 9,
    GetAclByIndex = 10,
    SetAcl = 11,
    PCreate = 12,
    PDelete = 13,
    PList = 14,
    PMount = 15,
    Sync = 16,
    Flush = 17,
    FlushO = 18,
    SetWindow = 19,
}

impl OpKind {
    /// Every kind, in code order: `ALL[k as usize - 1] == k`.
    pub(crate) const ALL: [OpKind; 19] = {
        use OpKind::*;
        [
            Create,
            Delete,
            Read,
            Write,
            Append,
            Truncate,
            GetAttr,
            SetAttr,
            GetAclByUser,
            GetAclByIndex,
            SetAcl,
            PCreate,
            PDelete,
            PList,
            PMount,
            Sync,
            Flush,
            FlushO,
            SetWindow,
        ]
    };

    /// True if an operation of this kind can change drive state — what
    /// [`crate::Request::mutates`] answers for a request, answerable
    /// from an audit record too: the records two mirror members share
    /// are exactly those of mutations.
    pub fn mutates(self) -> bool {
        use OpKind::*;
        !matches!(
            self,
            Read | GetAttr | GetAclByUser | GetAclByIndex | PList | PMount
        )
    }

    /// True if an operation of this kind creates a new version of its
    /// target object (creation and deletion included): what forensics,
    /// recovery planning and a reshard's catch-up follow an object by.
    pub fn creates_version(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            Create | Delete | Write | Append | Truncate | SetAttr | SetAcl
        )
    }

    /// True if an operation of this kind reads its object's data or
    /// attributes.
    pub fn reads_object(self) -> bool {
        matches!(self, OpKind::Read | OpKind::GetAttr)
    }

    /// True for the administrative operations (§3.5): they require the
    /// admin token and cannot be undone, so no transaction may hold one.
    pub(crate) fn is_admin(self) -> bool {
        use OpKind::*;
        matches!(self, Flush | FlushO | SetWindow)
    }

    /// Parses the on-disk representation.
    pub(crate) fn from_u8(v: u8) -> Result<OpKind> {
        v.checked_sub(1)
            .and_then(|i| OpKind::ALL.get(usize::from(i)).copied())
            .ok_or(S4Error::BadRequest("audit op kind"))
    }
}

/// The rule an alert record names, in its origin byte (an alert's
/// phase is [`crate::PHASE_ALERT`]): the six detector rules of the
/// `s4-detect` crate, then the array's two. A detector's alert is the
/// triggering record with the rule's numbers in `arg1` and `arg2`, as
/// each variant states; `s4-detect` renders the alert's text from them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum AlertRule {
    /// `arg1`: the object's strictly-appending mutations.
    AppendOnlyViolation = 1,
    /// `arg1`: the user's home client.
    ForeignClient = 2,
    /// `arg1`: the distinct objects overwritten or shrunk in the window.
    RansomStorm = 3,
    /// `arg1`: the bytes written in the current window; `arg2`: the
    /// baseline, as `f64` bits.
    WriteRateSpike = 4,
    /// No numbers: the rule's threshold and window are constants.
    AclTamperBurst = 5,
    /// `arg1`: the latest time recorded before the trigger, µs.
    AuditGap = 6,
    /// A member left service (a drive-controller alert,
    /// [`crate::S4Drive::system_alert`]). `arg1`: `shard << 32 |
    /// member`; `arg2`: the fault's [`crate::S4Error::kind`], plus
    /// `1 << 8` when the member went read-only rather than dead.
    ArrayDegraded = 7,
    /// A resync ended. `ok`: whether the replica was promoted; `object`:
    /// the first object or stream the replica differed in (0 on
    /// success); `arg1`: `shard << 32 | member`.
    ArrayResync = 8,
}

impl AlertRule {
    /// Every rule, in code order: `ALL[r as usize - 1] == r`.
    pub const ALL: [AlertRule; 8] = {
        use AlertRule::*;
        [
            AppendOnlyViolation,
            ForeignClient,
            RansomStorm,
            WriteRateSpike,
            AclTamperBurst,
            AuditGap,
            ArrayDegraded,
            ArrayResync,
        ]
    };

    fn from_u8(v: u8) -> Result<AlertRule> {
        v.checked_sub(1)
            .and_then(|i| AlertRule::ALL.get(usize::from(i)).copied())
            .ok_or(S4Error::BadRequest("alert rule"))
    }
}

/// One record of the audit log: who did what to which object, when,
/// and whether it succeeded, with the request's causal trace context and
/// the simulated time each layer spent on it. One per request, in
/// dispatch order; a distributed-protocol step that is no request (a 2PC
/// decision, a note install, a reshard catch-up) is one record too,
/// marked by its phase (decide, note or catchup), and so is an alert
/// (phase alert, [`AuditRecord::alert`]). A record's sequence number is
/// its position in the stream. Fixed [`RECORD_BYTES`]-byte encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuditRecord {
    /// When the request was processed (the drive's persisted instant,
    /// [`crate::S4Drive::now`], so mirror members agree on it).
    pub time: SimTime,
    /// Requesting user.
    pub user: UserId,
    /// Originating client machine.
    pub client: ClientId,
    /// Operation performed.
    pub op: OpKind,
    /// Whether the drive executed it (false = denied/failed).
    pub ok: bool,
    /// Target object (0 when not object-directed).
    pub object: ObjectId,
    /// First argument (offset / length / window, op-specific).
    pub arg1: u64,
    /// Second argument (length / time bound, op-specific).
    pub arg2: u64,
    /// Causal trace context (all zero when untraced).
    pub trace: TraceCtx,
    /// Whole-dispatch latency, simulated µs (saturating).
    pub rpc_us: u32,
    /// Simulated µs spent packing journal entries.
    pub journal_us: u32,
    /// Device µs incurred inside LFS segment flushes.
    pub lfs_us: u32,
    /// Total simulated disk service µs.
    pub disk_us: u32,
}

/// Encoded size of one record (8 time + 4 user + 4 client + 1 op + 1 ok +
/// 1 origin + 1 phase + 8 object + 8 arg1 + 8 arg2 + 8 trace id + 4 × 4
/// layer times).
pub const RECORD_BYTES: usize = 68;

/// Bytes of a block usable for whole records.
pub(crate) const RECORD_BLOCK_BYTES: usize = (BLOCK_SIZE / RECORD_BYTES) * RECORD_BYTES;

impl AuditRecord {
    /// Bytes of new data the request carried, read back from its audit
    /// arguments ([`crate::Request::audit_args`]: `Write(offset, len)`,
    /// `Append(len, _)`, `SetAttr(len, _)`).
    pub fn bytes_written(&self) -> u64 {
        match self.op {
            OpKind::Write => self.arg2,
            OpKind::Append | OpKind::SetAttr => self.arg1,
            _ => 0,
        }
    }

    /// The record without its layer times: what two members of a mirror
    /// group, which time their work separately, record alike.
    pub fn identity(&self) -> AuditRecord {
        AuditRecord {
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
            ..*self
        }
    }

    /// The alert `rule` raised on `trigger`: the trigger's time, user,
    /// client, op, outcome, object and trace id, the rule in the origin
    /// byte, the rule's two numbers in place of the arguments, and no
    /// layer times.
    pub fn alert(trigger: &AuditRecord, rule: AlertRule, arg1: u64, arg2: u64) -> AuditRecord {
        AuditRecord {
            arg1,
            arg2,
            trace: TraceCtx {
                trace_id: trigger.trace.trace_id,
                origin: rule as u8,
                phase: PHASE_ALERT,
            },
            ..trigger.identity()
        }
    }

    /// The rule an alert's record names; `None` for any other record.
    pub fn alert_rule(&self) -> Option<AlertRule> {
        self.trace
            .is_alert()
            .then(|| AlertRule::from_u8(self.trace.origin).ok())
            .flatten()
    }

    /// Appends the binary encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.time.as_micros().to_le_bytes());
        out.extend_from_slice(&self.user.0.to_le_bytes());
        out.extend_from_slice(&self.client.0.to_le_bytes());
        out.extend_from_slice(&[
            self.op as u8,
            self.ok as u8,
            self.trace.origin,
            self.trace.phase,
        ]);
        for v in [self.object.0, self.arg1, self.arg2, self.trace.trace_id] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [self.rpc_us, self.journal_us, self.lfs_us, self.disk_us] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decodes one record. The drive writes `ok` as 0 or 1, an alert's
    /// origin as a known [`AlertRule`], and any other untraced record's
    /// origin and phase as 0, so any other byte there is a torn or forged
    /// record, refused like an unknown op.
    pub fn decode(buf: &[u8]) -> Result<AuditRecord> {
        let mut r = Reader::new(buf, "audit record truncated");
        let time = SimTime::from_micros(r.u64()?);
        let user = UserId(r.u32()?);
        let client = ClientId(r.u32()?);
        let op = OpKind::from_u8(r.u8()?)?;
        let ok = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(S4Error::BadRequest("audit ok flag")),
        };
        let (origin, phase) = (r.u8()?, r.u8()?);
        let (object, arg1, arg2) = (ObjectId(r.u64()?), r.u64()?, r.u64()?);
        let trace = TraceCtx {
            trace_id: r.u64()?,
            origin,
            phase,
        };
        if trace.is_alert() {
            AlertRule::from_u8(origin)?;
        } else if trace.trace_id == 0 && trace != TraceCtx::default() {
            return Err(S4Error::BadRequest("audit trace context"));
        }
        Ok(AuditRecord {
            time,
            user,
            client,
            op,
            ok,
            object,
            arg1,
            arg2,
            trace,
            rpc_us: r.u32()?,
            journal_us: r.u32()?,
            lfs_us: r.u32()?,
            disk_us: r.u32()?,
        })
    }
}

/// Codec for audit block payloads. (The stream's block list and tail
/// buffer are the `reserved` stream.)
pub struct AuditState;

impl AuditState {
    /// Decodes every record in an audit block payload. Blocks flushed at
    /// anchor time may be partially filled; zero padding (op byte 0 —
    /// never a valid [`OpKind`]) terminates the scan.
    pub fn decode_block(payload: &[u8]) -> Result<Vec<AuditRecord>> {
        let mut out = Vec::new();
        let usable = RECORD_BLOCK_BYTES.min(payload.len());
        let mut off = 0;
        while off + RECORD_BYTES <= usable {
            if payload[off + 16] == 0 {
                break; // padding
            }
            out.push(AuditRecord::decode(&payload[off..off + RECORD_BYTES])?);
            off += RECORD_BYTES;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> AuditRecord {
        AuditRecord {
            time: SimTime::from_micros(i),
            user: UserId(i as u32),
            client: ClientId(7),
            op: OpKind::Write,
            ok: i.is_multiple_of(2),
            object: ObjectId(100 + i),
            arg1: i * 4096,
            arg2: 4096,
            trace: TraceCtx {
                trace_id: i * 3,
                origin: (i % 4) as u8 * u8::from(i > 0),
                phase: (i % 6) as u8 * u8::from(i > 0),
            },
            rpc_us: 40 + i as u32,
            journal_us: 3,
            lfs_us: 2,
            disk_us: 30,
        }
    }

    #[test]
    fn record_round_trip() {
        for i in [0, 5] {
            let mut buf = Vec::new();
            rec(i).encode_into(&mut buf);
            assert_eq!(buf.len(), RECORD_BYTES);
            assert_eq!(AuditRecord::decode(&buf).unwrap(), rec(i));
        }
        assert_eq!(rec(5).identity().rpc_us, 0);
        assert_eq!(rec(5).identity().trace, rec(5).trace);
    }

    /// `ok` is 0 or 1, and an untraced record carries no origin or
    /// phase: the drive writes nothing else, so a record that does was
    /// torn or forged.
    #[test]
    fn decode_refuses_bytes_the_drive_never_writes() {
        let mut good = Vec::new();
        rec(0).encode_into(&mut good);
        for (at, byte, why) in [
            (17, 2, "audit ok flag"),
            (18, 1, "audit trace context"),
            (19, 4, "audit trace context"),
        ] {
            let mut bad = good.clone();
            bad[at] = byte;
            assert_eq!(AuditRecord::decode(&bad), Err(S4Error::BadRequest(why)));
        }
        // A traced record may carry any phase byte: a newer phase reads
        // as an unknown one, not as corruption.
        let mut traced = Vec::new();
        AuditRecord {
            trace: TraceCtx {
                trace_id: 9,
                origin: 200,
                phase: 0xEE,
            },
            ..rec(0)
        }
        .encode_into(&mut traced);
        assert_eq!(AuditRecord::decode(&traced).unwrap().trace.phase, 0xEE);
    }

    /// An alert's origin byte names its rule, traced trigger or not; a
    /// code no rule has is refused, and an untraced record of any other
    /// phase still carries origin and phase 0.
    #[test]
    fn an_alert_names_a_known_rule() {
        for (trace_id, rule) in [(0, AlertRule::AuditGap), (9, AlertRule::ArrayResync)] {
            let trigger = AuditRecord {
                trace: TraceCtx {
                    trace_id,
                    ..TraceCtx::default()
                },
                ..rec(0)
            };
            let alert = AuditRecord::alert(&trigger, rule, 3, 4);
            let mut good = Vec::new();
            alert.encode_into(&mut good);
            let back = AuditRecord::decode(&good).unwrap();
            assert_eq!((back, back.alert_rule()), (alert, Some(rule)));
            for code in [0, 9, 0xFF] {
                let mut bad = good.clone();
                bad[18] = code;
                assert_eq!(
                    AuditRecord::decode(&bad),
                    Err(S4Error::BadRequest("alert rule"))
                );
            }
        }
        let mut untraced = Vec::new();
        rec(0).encode_into(&mut untraced);
        for phase in (0..=u8::MAX).filter(|&p| p != PHASE_ALERT) {
            for (origin, phase) in [(1, phase), (0, phase)] {
                let mut bad = untraced.clone();
                (bad[18], bad[19]) = (origin, phase);
                let refused = AuditRecord::decode(&bad).is_err();
                assert_eq!(refused, (origin, phase) != (0, 0), "{origin} {phase}");
            }
        }
        assert_eq!(rec(1).alert_rule(), None);
    }

    /// One alert record, byte for byte: the append-only rule fired on a
    /// `Truncate` of object 42 by user 1 from client 66 at t = 1 s, the
    /// object having had 3 appends.
    #[test]
    fn an_alert_record_is_pinned_byte_for_byte() {
        const HEX: &str = "40420f0000000000\
                           0100000042000000\
                           06010106\
                           2a00000000000000\
                           0300000000000000\
                           0000000000000000\
                           0000000000000000\
                           00000000000000000000000000000000";
        let trigger = AuditRecord {
            time: SimTime::from_micros(1_000_000),
            user: UserId(1),
            client: ClientId(66),
            op: OpKind::Truncate,
            ok: true,
            object: ObjectId(42),
            arg1: 0,
            arg2: 0,
            trace: TraceCtx::default(),
            rpc_us: 7,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 5,
        };
        let alert = AuditRecord::alert(&trigger, AlertRule::AppendOnlyViolation, 3, 0);
        let mut enc = Vec::new();
        alert.encode_into(&mut enc);
        let hex: String = enc.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, HEX);
        assert_eq!(AuditRecord::decode(&enc), Ok(alert));
    }

    #[test]
    fn decode_block_rejects_corruption_without_panicking() {
        let mut payload = Vec::new();
        for i in 0..3 {
            rec(i).encode_into(&mut payload);
        }

        // Corrupt the op byte of the middle record: clean error, no panic.
        let mut bad = payload.clone();
        bad[RECORD_BYTES + 16] = 250;
        assert_eq!(
            AuditState::decode_block(&bad),
            Err(S4Error::BadRequest("audit op kind"))
        );

        // An op byte of zero is padding: the scan stops, keeping only the
        // records before it.
        let mut padded = payload.clone();
        padded[2 * RECORD_BYTES + 16] = 0;
        assert_eq!(AuditState::decode_block(&padded).unwrap().len(), 2);

        // Truncated payloads (a torn write) and arbitrary garbage decode
        // to whatever whole valid records they contain, never panicking.
        for cut in 0..payload.len() {
            let _ = AuditState::decode_block(&payload[..cut]);
        }
        let garbage: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i * 37 + 11) as u8).collect();
        let _ = AuditState::decode_block(&garbage);
        // Oversized payloads are clamped to the usable region.
        let big = vec![0u8; BLOCK_SIZE * 3];
        assert_eq!(AuditState::decode_block(&big).unwrap().len(), 0);
    }

    #[test]
    fn op_kind_and_alert_rule_round_trip() {
        for (i, &rule) in AlertRule::ALL.iter().enumerate() {
            assert_eq!(rule as usize, i + 1);
            assert_eq!(AlertRule::from_u8(rule as u8), Ok(rule));
        }
        for (i, &kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, i + 1);
            assert_eq!(OpKind::from_u8(kind as u8), Ok(kind));
        }
        assert!(OpKind::from_u8(0).is_err());
        assert!(OpKind::from_u8(20).is_err());
        assert!(OpKind::from_u8(u8::MAX).is_err());
    }

    #[test]
    fn roughly_60_records_fit_per_block() {
        // Sanity check the §5.1.4 shape: audit costs one block write per
        // tens-of-operations, not per operation.
        let per_block = RECORD_BLOCK_BYTES / RECORD_BYTES;
        assert!((55..=65).contains(&per_block), "per_block = {per_block}");
    }
}

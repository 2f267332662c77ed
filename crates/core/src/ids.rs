//! Identifiers and the per-request security context.

use core::fmt;

/// A drive-assigned object identifier (§4.1: "objects exist in a flat
/// namespace managed by the drive ... given a unique identifier by the
/// drive"). Identifiers are never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

/// A user principal, as authenticated by the transport.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub u32);

/// A client machine, as authenticated by the transport (§3.2: tracking
/// accesses to a single client machine bounds the scope of direct damage
/// from that machine's compromise).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u32);

/// The drive administrator principal. Administrative commands
/// additionally require the drive's admin token (modeling the paper's
/// "physical access or well-protected cryptographic keys", §3.5).
pub(crate) const ADMIN_USER: UserId = UserId(0);

/// Causal trace context propagated with a request through every layer
/// it touches: client entry → array router → shard worker → mirror
/// members → 2PC prepare/decide and reshard catch-up. Each member drive
/// a traced request reaches keeps these fields in the request's audit
/// record, so the whole distributed request can be re-joined on
/// `trace_id` from the per-drive crash-surviving audit logs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Causal trace id; 0 means untraced (origin and phase then 0 too).
    pub trace_id: u64,
    /// Dense shard index the request entered the array at.
    pub origin: u8,
    /// Dispatch phase (one of the `PHASE_*` constants).
    pub phase: u8,
}

/// Phase of a record written at the request's entry point (a lone drive
/// dispatch, or the array frontend before any worker stamped it).
pub const PHASE_CLIENT: u8 = 0;
/// Ordinary shard-worker execution on a mirror member.
pub const PHASE_APPLY: u8 = 1;
/// 2PC phase 1: the sub-batch executed under `txn_prepare_at`.
pub const PHASE_PREPARE: u8 = 2;
/// 2PC phase 2: the commit/abort applied by `txn_decide`.
pub const PHASE_DECIDE: u8 = 3;
/// Coordinator decision-note install on a shard-0 member.
pub const PHASE_NOTE: u8 = 4;
/// Reshard snapshot/catch-up write replayed onto a split target.
pub const PHASE_CATCHUP: u8 = 5;
/// An alert: a record the drive files after the record that triggered
/// it, naming the rule that fired in its origin byte
/// ([`crate::AlertRule`]).
pub const PHASE_ALERT: u8 = 6;

impl TraceCtx {
    /// Human name of a phase byte (unknown bytes print as `phase-N`
    /// via the fallback — callers format those themselves).
    pub fn phase_name(phase: u8) -> &'static str {
        match phase {
            PHASE_CLIENT => "client",
            PHASE_APPLY => "apply",
            PHASE_PREPARE => "prepare",
            PHASE_DECIDE => "decide",
            PHASE_NOTE => "note",
            PHASE_CATCHUP => "catchup",
            PHASE_ALERT => "alert",
            _ => "unknown",
        }
    }

    /// True for the phase of a protocol step — a 2PC decision, a note
    /// install, a reshard catch-up — which the drive records itself and
    /// no request carries.
    pub(crate) fn is_step(&self) -> bool {
        matches!(self.phase, PHASE_DECIDE | PHASE_NOTE | PHASE_CATCHUP)
    }

    /// True for an alert's record ([`PHASE_ALERT`]).
    pub fn is_alert(&self) -> bool {
        self.phase == PHASE_ALERT
    }

    /// True for a record of a request: neither a protocol step nor an
    /// alert, the two kinds the drive writes on its own account.
    pub(crate) fn is_request(&self) -> bool {
        !self.is_step() && !self.is_alert()
    }

    /// The context a dispatched request's record carries: all zero when
    /// untraced, and a step's or an alert's phase, which a client could
    /// send to hide its request from the detectors or to pass it off as
    /// an alert, read as the entry point's.
    pub(crate) fn of_request(self) -> TraceCtx {
        match self {
            t if t.trace_id == 0 => TraceCtx::default(),
            t if !t.is_request() => TraceCtx {
                phase: PHASE_CLIENT,
                ..t
            },
            t => t,
        }
    }
}

/// Mints nonzero trace ids: the caller's clock supplies the high bits
/// (ids stay roughly time-ordered and survive restarts without
/// coordination — the persisted streams they join against outlive any
/// process) and a local counter disambiguates ids minted in the same
/// microsecond.
#[derive(Debug, Default)]
pub struct TraceIdGen {
    counter: core::sync::atomic::AtomicU64,
}

impl TraceIdGen {
    /// A fresh generator.
    pub fn new() -> Self {
        TraceIdGen::default()
    }

    /// The next trace id for a request entering at `now_micros`.
    /// Never returns 0 (0 means untraced).
    pub fn next(&self, now_micros: u64) -> u64 {
        let c = self
            .counter
            .fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        ((now_micros << 16) | (c & 0xFFFF)).max(1)
    }

    /// `ctx`, with a trace id minted at `clock`'s now if it carries none:
    /// how every entry point (client transports, array) adopts a request.
    pub fn stamp(&self, ctx: &RequestContext, clock: &s4_clock::SimClock) -> RequestContext {
        let mut ctx = *ctx;
        if ctx.trace.trace_id == 0 {
            ctx.trace.trace_id = self.next(clock.now().as_micros());
        }
        ctx
    }
}

/// Security context attached to every request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestContext {
    /// Requesting user.
    pub user: UserId,
    /// Originating client machine.
    pub client: ClientId,
    /// Present on administrative requests; must match the drive's token.
    pub admin_token: Option<u64>,
    /// Causal trace context (default: untraced).
    pub trace: TraceCtx,
}

impl RequestContext {
    /// Context for an ordinary user request.
    pub fn user(user: UserId, client: ClientId) -> Self {
        RequestContext {
            user,
            client,
            admin_token: None,
            trace: TraceCtx::default(),
        }
    }

    /// Context for an administrative request carrying the admin token.
    pub fn admin(client: ClientId, token: u64) -> Self {
        RequestContext {
            user: ADMIN_USER,
            client,
            admin_token: Some(token),
            trace: TraceCtx::default(),
        }
    }

    /// The same context with `trace` attached (builder-style; contexts
    /// are `Copy`).
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let u = RequestContext::user(UserId(5), ClientId(2));
        assert_eq!(u.user, UserId(5));
        assert!(u.admin_token.is_none());
        assert_eq!(u.trace, TraceCtx::default());
        let a = RequestContext::admin(ClientId(1), 0xDEAD);
        assert_eq!(a.user, ADMIN_USER);
        assert_eq!(a.admin_token, Some(0xDEAD));
        let t = TraceCtx {
            trace_id: 7,
            origin: 2,
            phase: PHASE_PREPARE,
        };
        assert_eq!(u.with_trace(t).trace, t);
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let g = TraceIdGen::new();
        assert_ne!(g.next(0), 0, "id 0 means untraced");
        let a = g.next(1_000_000);
        let b = g.next(1_000_000);
        assert_ne!(a, b, "same-microsecond ids must differ");
        assert!(b < g.next(2_000_000), "later micros dominate the counter");

        // `stamp` mints for an untraced context and leaves a traced one.
        let clock = s4_clock::SimClock::new();
        let stamped = g.stamp(&RequestContext::user(UserId(1), ClientId(1)), &clock);
        assert_ne!(stamped.trace.trace_id, 0);
        assert_eq!(g.stamp(&stamped, &clock), stamped);
    }

    #[test]
    fn phase_names() {
        assert_eq!(TraceCtx::phase_name(PHASE_CLIENT), "client");
        assert_eq!(TraceCtx::phase_name(PHASE_CATCHUP), "catchup");
        assert_eq!(TraceCtx::phase_name(PHASE_ALERT), "alert");
        assert_eq!(TraceCtx::phase_name(99), "unknown");
    }

    #[test]
    fn display() {
        assert_eq!(ObjectId(7).to_string(), "obj:7");
    }
}

//! Reserved drive-written streams (§4.2.3), implemented once.
//!
//! "S4 maintains an append-only audit log of all requests. This log is
//! implemented as a reserved object within the drive that cannot be
//! modified except by the drive itself." The drive keeps two such
//! objects — the audit log, one record per request with its trace
//! context and layer times, and the alert object that in-perimeter
//! detectors write (see the `s4-detect` crate) — and `ReservedLog` is
//! the one mechanism behind both: records accumulate in a volatile tail,
//! whole 4 KiB blocks are appended to the log beside the data (which is
//! what produces the Figure 6 effect), every anchor writes the partial
//! tail out and persists the block list, and roll-forward re-attaches
//! the blocks flushed after the anchor. An intruder with full client
//! privileges can neither suppress nor rewrite any of it.
//!
//! What differs between the streams is **framing**, and the two framings
//! decide *when* a block reaches the log, so they stay two functions:
//! audit blocks hold fixed 68-byte records and spill the instant a block
//! fills (`ReservedLog::push_record`); alert blocks hold
//! `u16`-length-prefixed opaque blobs and spill before the push that
//! would overflow (`ReservedLog::push_blob`). A zero op byte / zero
//! length is padding and ends a block.
//!
//! The on-disk contract — pinned byte for byte by the tests below — is
//! the block payloads, the tag `BlockTag::new(BlockKind::Audit, stream
//! oid, index in the block list)`, and the anchor-payload layout (audit:
//! `total u64, n u32, n × addr u64`; alerts: `total u64,
//! flushed_blocks u64, n u32, n × addr u64`).
//!
//! Per-record checksums and a prev-hash chain (Kimberlite's
//! length/CRC/prev-hash record) belong here: the push functions are where
//! a record gains its trailer, `ReservedLog::replay_block` and the
//! reader are where it is verified.

use s4_clock::SimTime;
use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::audit::{AuditRecord, AuditState, RECORD_BLOCK_BYTES};
use crate::codec::Reader;
use crate::drive::{S4Drive, ALERT_OBJECT};
use crate::ids::{ClientId, ObjectId, RequestContext, UserId};
use crate::ledger::Ledger;
use crate::{Result, S4Error};

/// Largest alert blob that fits in one block after the length prefix.
pub(crate) const MAX_ALERT_BYTES: usize = BLOCK_SIZE - 2;

/// Resume point for incremental stream reads ([`S4Drive::read_alerts_from`],
/// [`S4Drive::read_audit_from`]). Start from `StreamCursor::default()`
/// (or [`S4Drive::audit_cursor`] for "from now on"); the drive advances
/// it on every poll.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCursor {
    /// Flushed blocks fully consumed, counted from the start of the
    /// stream (absolute — stable across retention truncation).
    pub blocks: usize,
    /// Records of the in-memory pending tail already consumed (they
    /// become the prefix of the next flushed block when the tail spills).
    pub tail_records: usize,
}

/// One reserved stream as exported by [`S4Drive::resync_image`]: flushed
/// block payloads plus the buffered tail, with the counters recovery
/// re-derives seq from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResyncStream {
    /// Flushed block payloads, oldest first.
    pub blocks: Vec<Vec<u8>>,
    /// The in-memory pending tail.
    pub pending: Vec<u8>,
    /// Total records ever appended (survives retention truncation).
    pub total: u64,
    /// Blocks dropped from the front by retention flushes.
    pub flushed_blocks: u64,
}

/// How a stream's blocks are framed (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Framing {
    /// Fixed-size [`AuditRecord`]s; no retention, so the anchor payload
    /// carries no `flushed_blocks`.
    Records,
    /// `u16`-length-prefixed opaque blobs.
    Blobs,
}

/// Drive-internal state of one reserved stream: the addresses of its
/// flushed blocks plus the in-memory tail buffer.
#[derive(Clone, Debug)]
pub(crate) struct ReservedLog {
    oid: u64,
    framing: Framing,
    /// Addresses of the flushed blocks, in append order.
    blocks: Vec<BlockAddr>,
    /// Records buffered toward the next block. Volatile by design (§5.1.4
    /// models one audit block write per ~hundred operations, not per
    /// operation) until an anchor spills it.
    pending: Vec<u8>,
    /// Total records ever appended.
    total: u64,
    /// Blocks truncated from the front by admin retention flushes — the
    /// absolute stream index of `blocks[0]`, so cursors that count
    /// blocks stay stable across truncation.
    flushed_blocks: u64,
}

impl ReservedLog {
    pub(crate) fn new(oid: ObjectId, framing: Framing) -> ReservedLog {
        ReservedLog {
            oid: oid.0,
            framing,
            blocks: Vec::new(),
            pending: Vec::new(),
            total: 0,
            flushed_blocks: 0,
        }
    }

    /// The reserved object this stream is stored as.
    pub(crate) fn oid(&self) -> u64 {
        self.oid
    }

    /// Total records ever appended.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Addresses of the flushed blocks, in append order.
    pub(crate) fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }

    // --- Framing: the two spill rules. ---

    /// Buffers one audit record; returns the block payload to append when
    /// this record filled the block.
    pub(crate) fn push_record(&mut self, rec: &AuditRecord) -> Option<Vec<u8>> {
        debug_assert_eq!(self.framing, Framing::Records);
        rec.encode_into(&mut self.pending);
        self.total += 1;
        (self.pending.len() >= RECORD_BLOCK_BYTES).then(|| std::mem::take(&mut self.pending))
    }

    /// Buffers one blob; returns the block payload to append when the
    /// blob would have overflowed the buffered block. Empty blobs and
    /// blobs above [`MAX_ALERT_BYTES`] are rejected.
    pub(crate) fn push_blob(&mut self, blob: &[u8]) -> Result<Option<Vec<u8>>> {
        debug_assert_eq!(self.framing, Framing::Blobs);
        if blob.is_empty() || blob.len() > MAX_ALERT_BYTES {
            return Err(S4Error::BadRequest("alert blob size"));
        }
        let spilled = (self.pending.len() + 2 + blob.len() > BLOCK_SIZE)
            .then(|| std::mem::take(&mut self.pending));
        self.pending
            .extend_from_slice(&(blob.len() as u16).to_le_bytes());
        self.pending.extend_from_slice(blob);
        self.total += 1;
        Ok(spilled)
    }

    fn records_in(&self, payload: &[u8]) -> Result<usize> {
        Ok(match self.framing {
            Framing::Records => AuditState::decode_block(payload)?.len(),
            Framing::Blobs => decode_blobs(payload)?.len(),
        })
    }

    // --- The mechanism. ---

    /// Appends one block payload to the log as the stream's next block
    /// and registers it reachable. The only place a reserved-stream
    /// block is written.
    pub(crate) fn append_block<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        ledger: &mut Ledger,
        payload: &[u8],
    ) -> Result<()> {
        let tag = BlockTag::new(BlockKind::Audit, self.oid, self.blocks.len() as u64);
        self.blocks.push(ledger.append(log, tag, payload, 1)?);
        Ok(())
    }

    /// Buffers one blob and appends the block it spills, if any. An
    /// oversized blob, or a block the log cannot take, is dropped rather
    /// than poisoning the stream or failing the request behind it.
    pub(crate) fn append_blob<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        ledger: &mut Ledger,
        blob: &[u8],
    ) {
        if let Ok(Some(block)) = self.push_blob(blob) {
            let _ = self.append_block(log, ledger, &block);
        }
    }

    /// Anchor-time spill: writes the buffered (partial) tail out as a
    /// block so the records survive restarts. Returns whether there was
    /// one.
    pub(crate) fn spill_tail<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        ledger: &mut Ledger,
    ) -> Result<bool> {
        if self.pending.is_empty() {
            return Ok(false);
        }
        let tail = std::mem::take(&mut self.pending);
        self.append_block(log, ledger, &tail)?;
        Ok(true)
    }

    /// Mount replay of one block flushed after the anchor. The anchored
    /// total only covers anchored blocks (the volatile tail died with the
    /// crash), so the block's records are counted back in: `total` stays
    /// the number of records the stream has ever durably held.
    pub(crate) fn replay_block(&mut self, addr: BlockAddr, payload: &[u8]) -> Result<()> {
        self.total += self.records_in(payload)? as u64;
        self.blocks.push(addr);
        Ok(())
    }

    /// Cleaner relocation: re-points the block at `old` to `new`.
    pub(crate) fn relocate(&mut self, old: BlockAddr, new: BlockAddr) {
        if let Some(slot) = self.blocks.iter_mut().find(|a| **a == old) {
            *slot = new;
        }
    }

    /// Feeds the stream's logical state to [`S4Drive::state_digest`].
    pub(crate) fn digest(&self, mut eat: impl FnMut(&[u8])) {
        eat(&(self.blocks.len() as u64).to_le_bytes());
        for a in &self.blocks {
            eat(&a.0.to_le_bytes());
        }
        eat(&self.pending);
        eat(&self.total.to_le_bytes());
        eat(&self.flushed_blocks.to_le_bytes());
    }

    /// Serializes the durable part (block list + counters) into the
    /// anchor payload; the tail has just been spilled.
    pub(crate) fn encode_anchor(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.total.to_le_bytes());
        if self.framing == Framing::Blobs {
            out.extend_from_slice(&self.flushed_blocks.to_le_bytes());
        }
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            out.extend_from_slice(&b.0.to_le_bytes());
        }
    }

    /// Restores the durable part from the anchor payload, advancing
    /// the reader. A payload that ends early is corruption.
    pub(crate) fn decode_anchor(&mut self, r: &mut Reader) -> Result<()> {
        self.total = r.u64()?;
        if self.framing == Framing::Blobs {
            self.flushed_blocks = r.u64()?;
        }
        let n = r.count(8)?;
        self.blocks = (0..n)
            .map(|_| Ok(BlockAddr(r.u64()?)))
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// Exports the stream for mirror resync.
    pub(crate) fn export<D: BlockDev>(&self, log: &Log<D>) -> Result<ResyncStream> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for &addr in &self.blocks {
            blocks.push(log.read_block(addr)?.to_vec());
        }
        Ok(ResyncStream {
            blocks,
            pending: self.pending.clone(),
            total: self.total,
            flushed_blocks: self.flushed_blocks,
        })
    }

    /// Re-appends an exported stream, byte for byte, onto a freshly
    /// formatted log.
    pub(crate) fn restore<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        ledger: &mut Ledger,
        image: &ResyncStream,
    ) -> Result<()> {
        for payload in &image.blocks {
            self.append_block(log, ledger, payload)?;
        }
        self.pending = image.pending.clone();
        self.total = image.total;
        self.flushed_blocks = image.flushed_blocks;
        Ok(())
    }

    /// Removes the first `n` flushed blocks (admin retention), returning
    /// their addresses so the caller can release them, and advances the
    /// `flushed_blocks` base so the stream keeps absolute numbering.
    pub(crate) fn truncate_front(&mut self, n: usize) -> Vec<BlockAddr> {
        let n = n.min(self.blocks.len());
        self.flushed_blocks += n as u64;
        self.blocks.drain(..n).collect()
    }

    /// A cursor positioned at the current end of the stream.
    pub(crate) fn end_cursor(&self) -> Result<StreamCursor> {
        Ok(StreamCursor {
            blocks: self.flushed_blocks as usize + self.blocks.len(),
            tail_records: self.records_in(&self.pending)?,
        })
    }

    /// Reads what was appended since `cursor`, oldest first — flushed
    /// blocks, then the pending tail — and advances the cursor.
    ///
    /// The cursor exploits the spill discipline: when the pending tail
    /// spills (full, or partial at an anchor), the previously buffered
    /// records form the *prefix* of the newly flushed block, so
    /// `tail_records` carries over as a skip count into the first unread
    /// block. Blocks may therefore be partial and are never assumed
    /// full. A cursor that is ahead of the drive (reused across a crash
    /// that lost un-anchored blocks) rereads everything that survives.
    pub(crate) fn read_from<D: BlockDev, T>(
        &self,
        log: &Log<D>,
        cursor: &mut StreamCursor,
        decode: impl Fn(&[u8]) -> Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        let flushed = self.flushed_blocks as usize;
        let total = flushed + self.blocks.len();
        // Ahead of the stream, or the resume block (and the records
        // consumed from it) truncated by retention: resume at the
        // surviving front without a partial-block skip.
        if cursor.blocks > total || cursor.blocks < flushed {
            (cursor.blocks, cursor.tail_records) = (flushed, 0);
        }
        let mut skip = cursor.tail_records;
        let mut out = Vec::new();
        for &addr in &self.blocks[cursor.blocks - flushed..] {
            let mut recs = decode(&log.read_block(addr)?)?;
            out.extend(recs.drain(skip.min(recs.len())..));
            skip = 0;
        }
        let mut tail = decode(&self.pending)?;
        (cursor.blocks, cursor.tail_records) = (total, tail.len());
        out.extend(tail.drain(skip.min(tail.len())..));
        Ok(out)
    }
}

/// Decodes every blob in an alert block payload.
pub(crate) fn decode_blobs(payload: &[u8]) -> Result<Vec<Vec<u8>>> {
    let mut r = Reader::new(payload, "alert blob truncated");
    let mut out = Vec::new();
    // A zero length is padding, and so is a last odd byte.
    while let Ok(len) = r.u16() {
        if len == 0 {
            break;
        }
        out.push(r.take(len as usize)?.to_vec());
    }
    Ok(out)
}

/// Timestamp (µs) of one alert blob — every alert the drive or the
/// `s4-detect` crate writes carries its time at bytes `[1..9]` (after
/// the severity byte; see [`Alert::encode`]). Undated blobs read
/// as time 0 (oldest), so retention treats them as expired.
fn alert_blob_time(blob: &[u8]) -> u64 {
    Reader::at(blob, 1, "undated alert").u64().unwrap_or(0)
}

/// How bad an [`Alert`] is.
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

/// One alert blob of the alert stream: which rule fired, on whose
/// request, against which object, and why. The `s4-detect` detectors and
/// the drive's own self-alerts write this one format.
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
    /// Binary encoding: severity, time, user, client, object, then
    /// `u16`-length-prefixed rule and message strings.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(29 + self.rule.len() + self.message.len());
        out.push(self.severity as u8);
        out.extend_from_slice(&self.time.as_micros().to_le_bytes());
        out.extend_from_slice(&self.user.0.to_le_bytes());
        out.extend_from_slice(&self.client.0.to_le_bytes());
        out.extend_from_slice(&self.object.0.to_le_bytes());
        for s in [&self.rule, &self.message] {
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out
    }

    /// Decodes one alert blob (as stored in the alert object).
    pub fn decode(buf: &[u8]) -> Result<Alert> {
        let mut r = Reader::new(buf, "alert blob truncated");
        let severity = match r.u8()? {
            1 => Severity::Info,
            2 => Severity::Warning,
            3 => Severity::Critical,
            _ => return Err(S4Error::BadRequest("alert severity")),
        };
        let time = SimTime::from_micros(r.u64()?);
        let (user, client, object) = (UserId(r.u32()?), ClientId(r.u32()?), ObjectId(r.u64()?));
        let mut string = || -> Result<String> {
            let n = r.u16()? as usize;
            String::from_utf8(r.take(n)?.to_vec())
                .map_err(|_| S4Error::BadRequest("alert string utf8"))
        };
        Ok(Alert {
            rule: string()?,
            message: string()?,
            time,
            severity,
            user,
            client,
            object,
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

/// A drive-raised alert: a warning from the drive itself (user and
/// client 0), filed against its alert object.
pub(crate) fn encode_system_alert(rule: &str, time: SimTime, message: String) -> Vec<u8> {
    Alert {
        time,
        severity: Severity::Warning,
        rule: rule.into(),
        user: UserId(0),
        client: ClientId(0),
        object: ALERT_OBJECT,
        message,
    }
    .encode()
}

// ----------------------------------------------------------------------
// The stream-facing drive surface.
// ----------------------------------------------------------------------

impl<D: BlockDev> S4Drive<D> {
    /// Appends one record to the audit log under one lock, then feeds a
    /// request's record (not a protocol step's) to any registered online
    /// detectors and persists the alerts they raise. With the audit log
    /// off nothing is recorded.
    pub(crate) fn audit_append(&self, rec: &AuditRecord) {
        if !self.config.audit_enabled {
            return;
        }
        {
            let inner = &mut *self.inner.lock();
            self.stats.audit_records(1);
            if let Some(block) = inner.audit.push_record(rec) {
                // A block the log cannot take is dropped rather than
                // failing the request it audits.
                if inner
                    .audit
                    .append_block(&self.log, &mut inner.ledger, &block)
                    .is_ok()
                {
                    self.stats.audit_blocks(1);
                }
            }
        }
        if rec.trace.is_step() {
            return;
        }
        // Online detection: run outside the inner lock so persisting
        // alerts can re-enter the drive.
        let mut raised: Vec<Vec<u8>> = Vec::new();
        {
            let mut observers = self.observers.lock();
            for obs in observers.iter_mut() {
                raised.extend(obs.on_record(rec));
            }
        }
        for blob in raised {
            self.alert_append(&blob);
        }
    }

    /// Raises a drive-originated alert (severity 2, no user/client)
    /// through the tamper-evident alert object — the channel redundancy
    /// layers use to surface member death and degraded mode, so the
    /// operator's existing alert poll sees infrastructure faults too.
    pub fn system_alert(&self, rule: &str, message: &str) {
        self.alert_append(&encode_system_alert(rule, self.now(), message.into()));
    }

    /// Appends one alert blob to the reserved alert object (drive
    /// front-end only — there is no client RPC that reaches this).
    pub(crate) fn alert_append(&self, blob: &[u8]) {
        let inner = &mut *self.inner.lock();
        inner.alerts.append_blob(&self.log, &mut inner.ledger, blob);
        // Alert-object growth warning (ROADMAP retention item): the
        // object is append-only, so a chatty detector can grow it
        // without bound. When it reaches the configured block
        // threshold, persist one self-alert — through the same
        // tamper-evident channel the operator already polls — so the
        // pressure is visible before the pool fills. Fires once per
        // mount.
        let warn = self.config.alert_warn_blocks;
        let blocks = inner.alerts.blocks().len() as u64;
        if warn > 0 && !inner.alert_growth_warned && blocks >= warn {
            inner.alert_growth_warned = true;
            let msg =
                format!("alert object reached {blocks} flushed blocks (warn threshold {warn})");
            let self_alert = encode_system_alert("alert-object-growth", self.now(), msg);
            inner
                .alerts
                .append_blob(&self.log, &mut inner.ledger, &self_alert);
        }
    }

    /// Decodes every request's record currently in the audit log (admin
    /// only), protocol steps left out.
    pub fn read_audit_records(&self, ctx: &RequestContext) -> Result<Vec<AuditRecord>> {
        self.read_audit_from(ctx, &mut StreamCursor::default())
    }

    /// A cursor at the current end of the audit log (admin only): a
    /// later [`S4Drive::read_audit_from`] returns exactly the records
    /// appended after this call.
    pub fn audit_cursor(&self, ctx: &RequestContext) -> Result<StreamCursor> {
        self.require_admin(ctx)?;
        self.inner.lock().audit.end_cursor()
    }

    /// Decodes only the requests' records appended since `cursor` (admin
    /// only), oldest first, and advances the cursor. Blocks below the
    /// cursor are skipped without a device read.
    pub fn read_audit_from(
        &self,
        ctx: &RequestContext,
        cursor: &mut StreamCursor,
    ) -> Result<Vec<AuditRecord>> {
        self.require_admin(ctx)?;
        let inner = self.inner.lock();
        let mut records = inner
            .audit
            .read_from(&self.log, cursor, AuditState::decode_block)?;
        records.retain(|r| !r.trace.is_step());
        Ok(records)
    }

    /// The whole audit log (admin only), oldest first, protocol steps
    /// included: record `i` is the stream's `i`-th, so its position is
    /// its sequence number. What trace assembly joins on.
    pub fn read_traces(&self, ctx: &RequestContext) -> Result<Vec<AuditRecord>> {
        self.require_admin(ctx)?;
        let inner = self.inner.lock();
        let whole = &mut StreamCursor::default();
        inner
            .audit
            .read_from(&self.log, whole, AuditState::decode_block)
    }

    /// The audit log as the raw byte stream a `Read` of the reserved
    /// audit object returns: whole blocks, then the buffered tail.
    pub(crate) fn read_audit_raw(
        &self,
        ctx: &RequestContext,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        self.require_admin(ctx)?;
        let inner = self.inner.lock();
        let whole = &mut StreamCursor::default();
        let stream = inner
            .audit
            .read_from(&self.log, whole, |b| Ok(b.to_vec()))?;
        let off = (offset as usize).min(stream.len());
        let end = (off + len as usize).min(stream.len());
        Ok(stream[off..end].to_vec())
    }

    /// Total records ever appended to the audit log (admin only). A
    /// mismatch against the decodable record count exposes an audit
    /// coverage gap (a spilled block the log refused).
    pub fn audit_total_records(&self, ctx: &RequestContext) -> Result<u64> {
        self.require_admin(ctx)?;
        Ok(self.inner.lock().audit.total())
    }

    /// Reads every persisted alert blob (admin only), oldest first.
    pub fn read_alerts(&self, ctx: &RequestContext) -> Result<Vec<Vec<u8>>> {
        self.read_alerts_from(ctx, &mut StreamCursor::default())
    }

    /// Reads only the alert blobs appended since `cursor` (admin only),
    /// oldest first, and advances the cursor — repeated polls are
    /// incremental instead of rescanning every alert block.
    pub fn read_alerts_from(
        &self,
        ctx: &RequestContext,
        cursor: &mut StreamCursor,
    ) -> Result<Vec<Vec<u8>>> {
        self.require_admin(ctx)?;
        let inner = self.inner.lock();
        inner.alerts.read_from(&self.log, cursor, decode_blobs)
    }

    /// Administrative retention for the append-only alert object:
    /// releases flushed alert blocks whose *newest* blob is strictly
    /// older than the detection window. In-window alerts and the
    /// buffered tail are untouched, and the stream keeps absolute block
    /// numbering so outstanding [`StreamCursor`]s remain valid. Returns
    /// the number of blocks released back to the free pool.
    pub fn op_flush_alerts(&self, ctx: &RequestContext) -> Result<u64> {
        self.require_admin(ctx)?;
        let inner = &mut *self.inner.lock();
        let now = self.now().as_micros();
        let cutoff = now.saturating_sub(inner.window.as_micros());
        // Alert times are monotone across the stream, so the first block
        // whose newest alert is in-window ends the prefix to release.
        let mut k = 0;
        for &addr in inner.alerts.blocks() {
            let blobs = decode_blobs(&self.log.read_block(addr)?)?;
            if blobs.iter().map(|b| alert_blob_time(b)).max().unwrap_or(0) >= cutoff {
                break;
            }
            k += 1;
        }
        let freed = inner.alerts.truncate_front(k);
        let release = |a: &BlockAddr| inner.ledger.release(&self.log, *a, BlockKind::Audit);
        Ok(freed.iter().map(release).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{OpKind, RECORD_BYTES};
    use crate::drive::AUDIT_OBJECT;
    use s4_lfs::LogConfig;
    use s4_simdisk::MemDisk;

    const PER_BLOCK: usize = RECORD_BLOCK_BYTES / RECORD_BYTES;

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
            trace: Default::default(),
            rpc_us: i as u32,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        }
    }

    fn audit() -> ReservedLog {
        ReservedLog::new(AUDIT_OBJECT, Framing::Records)
    }

    fn alerts() -> ReservedLog {
        ReservedLog::new(ALERT_OBJECT, Framing::Blobs)
    }

    fn log() -> Log<MemDisk> {
        let config = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        Log::format(MemDisk::with_capacity_bytes(4 << 20), config).unwrap()
    }

    #[test]
    fn records_spill_the_instant_a_block_fills() {
        let mut st = audit();
        let mut emitted = Vec::new();
        for i in 0..PER_BLOCK as u64 - 1 {
            assert!(
                st.push_record(&rec(i)).is_none(),
                "record {i} spilled early"
            );
        }
        // The boundary record: the push that fills the block emits it
        // and leaves the tail empty.
        emitted.extend(st.push_record(&rec(PER_BLOCK as u64 - 1)));
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].len(), RECORD_BLOCK_BYTES);
        assert!(st.pending.is_empty());
        for i in PER_BLOCK as u64..PER_BLOCK as u64 * 2 + 3 {
            emitted.extend(st.push_record(&rec(i)));
        }
        assert_eq!(emitted.len(), 2);
        assert_eq!(st.total(), PER_BLOCK as u64 * 2 + 3);
        assert_eq!(st.pending.len(), 3 * RECORD_BYTES);
        // Emitted blocks plus the tail reassemble the stream: nothing
        // lost, reordered or altered at the seams.
        emitted.push(st.pending.clone());
        let decoded: Vec<AuditRecord> = emitted
            .iter()
            .flat_map(|b| AuditState::decode_block(b).unwrap())
            .collect();
        assert_eq!(decoded.len() as u64, st.total());
        for (i, d) in decoded.iter().enumerate() {
            assert_eq!(*d, rec(i as u64), "record {i} damaged crossing blocks");
        }
    }

    #[test]
    fn blobs_spill_before_the_push_that_would_overflow() {
        let mut st = alerts();
        assert!(st.push_blob(b"first alert").unwrap().is_none());
        assert!(st.push_blob(b"second").unwrap().is_none());
        assert_eq!(st.total(), 2);
        assert_eq!(
            decode_blobs(&st.pending).unwrap(),
            vec![b"first alert".to_vec(), b"second".to_vec()]
        );
        // Fill the block to the last byte: a blob that fits exactly does
        // not spill...
        let exact = vec![9u8; BLOCK_SIZE - st.pending.len() - 2];
        assert!(st.push_blob(&exact).unwrap().is_none());
        assert_eq!(st.pending.len(), BLOCK_SIZE);
        // ...and the next push, however small, spills the three first.
        let spilled = st.push_blob(b"x").unwrap().expect("full block spills");
        assert_eq!(decode_blobs(&spilled).unwrap().len(), 3);
        assert_eq!(decode_blobs(&st.pending).unwrap(), vec![b"x".to_vec()]);

        let mut st = alerts();
        let spilled: Vec<_> = (0..9)
            .filter_map(|_| st.push_blob(&[7u8; 1000]).unwrap())
            .collect();
        assert_eq!(spilled.len(), 2, "4 blobs of 1002 bytes per block");
        for b in &spilled {
            assert_eq!(decode_blobs(b).unwrap().len(), 4);
        }
    }

    #[test]
    fn rejects_oversized_empty_and_truncated_blobs() {
        let mut st = alerts();
        assert!(st.push_blob(&[]).is_err());
        assert!(st.push_blob(&vec![0u8; MAX_ALERT_BYTES + 1]).is_err());
        assert!(st.push_blob(&vec![1u8; MAX_ALERT_BYTES]).is_ok());
        let mut payload = vec![0u8; 16];
        payload[0..2].copy_from_slice(&100u16.to_le_bytes());
        assert!(decode_blobs(&payload).is_err());
        let mut b = alerts();
        b.push_blob(b"one").unwrap();
        b.push_blob(&[7; 40]).unwrap();
        for bad in crate::hostile(&b.pending) {
            let _ = decode_blobs(&bad);
        }
    }

    /// The anchor-payload layouts are an on-disk contract: an image
    /// written by any revision-2 build must keep mounting.
    #[test]
    fn anchor_layouts_are_pinned_byte_for_byte() {
        let mut a = audit();
        a.blocks = vec![BlockAddr(5), BlockAddr(0x0102)];
        a.pending = vec![1, 2, 3];
        a.total = 42;
        let mut enc = Vec::new();
        a.encode_anchor(&mut enc);
        #[rustfmt::skip]
        assert_eq!(enc, [
            42, 0, 0, 0, 0, 0, 0, 0, // total
            2, 0, 0, 0,              // n
            5, 0, 0, 0, 0, 0, 0, 0,  // addr
            2, 1, 0, 0, 0, 0, 0, 0,  // addr
        ]);

        let mut b = alerts();
        b.blocks = vec![BlockAddr(11)];
        b.pending = vec![1, 2];
        b.total = 7;
        b.flushed_blocks = 3;
        let mut enc = Vec::new();
        b.encode_anchor(&mut enc);
        #[rustfmt::skip]
        assert_eq!(enc, [
            7, 0, 0, 0, 0, 0, 0, 0,  // total
            3, 0, 0, 0, 0, 0, 0, 0,  // flushed_blocks
            1, 0, 0, 0,              // n
            11, 0, 0, 0, 0, 0, 0, 0, // addr
        ]);
    }

    #[test]
    fn anchor_round_trips_and_refuses_truncation() {
        for mut st in [audit(), alerts()] {
            st.blocks = vec![BlockAddr(11), BlockAddr(42)];
            st.pending = vec![1, 2];
            st.total = 7;
            if st.framing == Framing::Blobs {
                st.flushed_blocks = 3;
            }
            let mut enc = vec![0xEE]; // the stream state is mid-payload
            st.encode_anchor(&mut enc);
            let mut d = ReservedLog::new(ObjectId(st.oid), st.framing);
            let mut r = Reader::new(&enc[1..], "truncated");
            d.decode_anchor(&mut r).unwrap();
            assert!(r.take(1).is_err(), "the whole trailer is consumed");
            assert_eq!(d.blocks, st.blocks);
            assert_eq!((d.total, d.flushed_blocks), (st.total, st.flushed_blocks));
            assert!(d.pending.is_empty(), "the pending tail is volatile");
            // A trailer that ends early is corruption, never a silently
            // shorter (or empty) stream.
            for cut in 1..enc.len() {
                let mut d = ReservedLog::new(ObjectId(st.oid), st.framing);
                assert!(
                    d.decode_anchor(&mut Reader::new(&enc[1..cut], "truncated"))
                        .is_err(),
                    "{:?} decoded from {cut} of {} bytes",
                    st.framing,
                    enc.len()
                );
            }
        }
    }

    #[test]
    fn relocation_repoints_exactly_the_matching_address() {
        let mut st = alerts();
        st.blocks = vec![BlockAddr(11), BlockAddr(42), BlockAddr(77)];
        st.relocate(BlockAddr(42), BlockAddr(900));
        assert_eq!(st.blocks, [BlockAddr(11), BlockAddr(900), BlockAddr(77)]);
        st.relocate(BlockAddr(5), BlockAddr(901)); // not ours: no-op
        assert_eq!(st.blocks, [BlockAddr(11), BlockAddr(900), BlockAddr(77)]);
    }

    #[test]
    fn replay_counts_the_blocks_records_back_in() {
        let (mut a, mut b) = (audit(), alerts());
        let mut block = Vec::new();
        for i in 0..5 {
            rec(i).encode_into(&mut block);
        }
        block.resize(BLOCK_SIZE, 0); // as read back from the log
        a.replay_block(BlockAddr(9), &block).unwrap();
        assert_eq!((a.total(), a.blocks()), (5, &[BlockAddr(9)][..]));
        b.push_blob(b"one").unwrap();
        b.push_blob(b"two").unwrap();
        let mut block = std::mem::take(&mut b.pending);
        block.resize(BLOCK_SIZE, 0);
        let mut b = alerts();
        b.replay_block(BlockAddr(10), &block).unwrap();
        assert_eq!((b.total(), b.blocks()), (2, &[BlockAddr(10)][..]));
    }

    /// Appends `n` numbered blobs, anchoring (spilling the partial tail)
    /// after each index in `anchor_after`.
    fn fill(st: &mut ReservedLog, log: &Log<MemDisk>, from: u32, n: u32, anchor_after: &[u32]) {
        let mut ledger = Ledger::default();
        for i in from..from + n {
            let mut blob = i.to_le_bytes().to_vec();
            blob.resize(1000, 0);
            st.append_blob(log, &mut ledger, &blob);
            if anchor_after.contains(&i) {
                st.spill_tail(log, &mut ledger).unwrap();
            }
        }
    }

    fn ids(blobs: Vec<Vec<u8>>) -> Vec<u32> {
        blobs
            .iter()
            .map(|b| u32::from_le_bytes(b[..4].try_into().unwrap()))
            .collect()
    }

    #[test]
    fn cursor_survives_partial_anchor_spilled_blocks() {
        let log = log();
        let mut st = alerts();
        let mut cursor = StreamCursor::default();
        // Two records, then an anchor spills them as a *partial* block.
        fill(&mut st, &log, 0, 2, &[1]);
        assert_eq!(st.blocks().len(), 1);
        assert_eq!(
            ids(st.read_from(&log, &mut cursor, decode_blobs).unwrap()),
            [0, 1]
        );
        // A cursor taken mid-tail: the consumed records become the
        // prefix of the block the tail later spills into.
        fill(&mut st, &log, 2, 3, &[]);
        assert_eq!(
            ids(st.read_from(&log, &mut cursor, decode_blobs).unwrap()),
            [2, 3, 4]
        );
        assert_eq!(cursor, st.end_cursor().unwrap());
        assert_eq!(
            cursor,
            StreamCursor {
                blocks: 1,
                tail_records: 3
            }
        );
        fill(&mut st, &log, 5, 6, &[6]);
        assert_eq!(
            ids(st.read_from(&log, &mut cursor, decode_blobs).unwrap()),
            [5, 6, 7, 8, 9, 10]
        );
        assert!(st
            .read_from(&log, &mut cursor, decode_blobs)
            .unwrap()
            .is_empty());
        // The whole stream, from a fresh cursor.
        let whole = &mut StreamCursor::default();
        let all = st.read_from(&log, whole, decode_blobs).unwrap();
        assert_eq!(ids(all), (0..11).collect::<Vec<_>>());
        // A cursor ahead of the stream (blocks lost in a crash) resets.
        let mut ahead = StreamCursor {
            blocks: 99,
            tail_records: 1,
        };
        assert_eq!(
            st.read_from(&log, &mut ahead, decode_blobs).unwrap().len(),
            11
        );
    }

    #[test]
    fn truncate_front_keeps_absolute_numbering_and_old_cursors() {
        let log = log();
        let mut st = alerts();
        fill(&mut st, &log, 0, 14, &[]); // blocks of 4: [0-3] [4-7] [8-11], tail 12 13
        assert_eq!(st.blocks().len(), 3);
        let mut before = StreamCursor::default();
        st.read_from(&log, &mut before, decode_blobs).unwrap();
        let mut early = StreamCursor {
            blocks: 1,
            tail_records: 0,
        };

        let addrs = st.blocks().to_vec();
        assert_eq!(st.truncate_front(2), addrs[..2]);
        assert_eq!(st.blocks(), &addrs[2..]);
        assert_eq!(st.flushed_blocks, 2);
        assert_eq!(st.end_cursor().unwrap().blocks, 3, "numbering is absolute");

        // A cursor taken before the truncation resumes exactly.
        fill(&mut st, &log, 14, 1, &[]);
        assert_eq!(
            ids(st.read_from(&log, &mut before, decode_blobs).unwrap()),
            [14]
        );
        // One pointing into the truncated prefix resumes at the
        // surviving front.
        assert_eq!(
            ids(st.read_from(&log, &mut early, decode_blobs).unwrap()),
            (8..15).collect::<Vec<_>>()
        );
        // Over-long truncation clamps.
        assert_eq!(st.truncate_front(5).len(), 1);
        assert_eq!(st.flushed_blocks, 3);
        assert!(st.blocks().is_empty());
    }

    #[test]
    fn export_restore_copies_the_stream_byte_for_byte() {
        let (src_log, dst_log) = (log(), log());
        let mut src = alerts();
        fill(&mut src, &src_log, 0, 10, &[5]);
        src.truncate_front(1);
        let image = src.export(&src_log).unwrap();
        let mut dst = alerts();
        let mut ledger = Ledger::default();
        dst.restore(&dst_log, &mut ledger, &image).unwrap();
        assert_eq!(dst.export(&dst_log).unwrap(), image);
        assert_eq!(ledger.addrs().count(), dst.blocks().len());
        assert_eq!(dst.end_cursor().unwrap(), src.end_cursor().unwrap());
    }

    fn sample_alert() -> Alert {
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
    fn alert_encode_decode_round_trip() {
        let a = sample_alert();
        assert_eq!(Alert::decode(&a.encode()).unwrap(), a);
        assert_eq!(alert_blob_time(&a.encode()), 123_456);
    }

    #[test]
    fn alert_decode_rejects_garbage() {
        assert!(Alert::decode(&[]).is_err());
        assert!(Alert::decode(&[9u8; 27]).is_err()); // bad severity
        let mut enc = sample_alert().encode();
        enc.truncate(enc.len() - 1); // cut the message short
        assert!(Alert::decode(&enc).is_err());
    }

    #[test]
    fn alert_display_is_informative() {
        let s = sample_alert().to_string();
        assert!(s.contains("append-only-violation"));
        assert!(s.contains("client=66"));
    }
}

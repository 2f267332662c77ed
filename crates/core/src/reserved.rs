//! The reserved, drive-written audit stream (§4.2.3).
//!
//! "S4 maintains an append-only audit log of all requests. This log is
//! implemented as a reserved object within the drive that cannot be
//! modified except by the drive itself." The drive keeps one such
//! object, the audit log: one fixed 68-byte [`AuditRecord`] per request
//! (with its trace context and layer times), per distributed-protocol
//! step, and per alert the in-perimeter detectors raise (see the
//! `s4-detect` crate). `ReservedLog` is its mechanism: records accumulate
//! in a volatile tail, a tail that fills a block spills it to the log
//! beside the data (which is what produces the Figure 6 effect), every
//! anchor writes the partial tail out and persists the block list, and
//! roll-forward re-attaches the blocks flushed after the anchor. An
//! intruder with full client privileges can neither suppress nor rewrite
//! any of it.
//!
//! One framing: 60 records to a 4 KiB block, a zero op byte as padding
//! that ends a block.
//!
//! The on-disk contract — pinned byte for byte by the tests below — is
//! the block payloads, the tag `BlockTag::new(BlockKind::Audit,
//! AUDIT_OBJECT, position in the stream)`, and the anchor-payload layout
//! `total u64, n u32, n × addr u64`. A block's tag names its position:
//! the cleaner copies a block forward under its old tag, and roll-forward
//! replays a block only at the stream's next position, so a copy is never
//! counted in twice.
//!
//! Per-record checksums and a prev-hash chain (Kimberlite's
//! length/CRC/prev-hash record) belong here: the push function is where
//! a record gains its trailer, `ReservedLog::replay_block` and the
//! reader are where it is verified.

use s4_lfs::{BlockAddr, BlockKind, BlockTag, Log, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::audit::{AlertRule, AuditRecord, AuditState, OpKind, RECORD_BLOCK_BYTES};
use crate::codec::Reader;
use crate::drive::{S4Drive, AUDIT_OBJECT};
use crate::ids::{ClientId, ObjectId, RequestContext, TraceCtx, UserId};
use crate::ledger::Ledger;
use crate::Result;

/// Resume point for incremental reads of the audit log
/// ([`S4Drive::read_audit_from`], [`S4Drive::read_alerts_from`]). Start
/// from `StreamCursor::default()` (or [`S4Drive::audit_cursor`] for
/// "from now on"); the drive advances it on every poll.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCursor {
    /// Flushed blocks fully consumed, counted from the start of the
    /// stream.
    pub blocks: usize,
    /// Records of the in-memory pending tail already consumed (they
    /// become the prefix of the next flushed block when the tail spills).
    pub tail_records: usize,
}

/// The audit stream as exported by [`S4Drive::resync_image`]: flushed
/// block payloads plus the buffered tail, with the counter recovery
/// re-derives seq from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResyncStream {
    /// Flushed block payloads, oldest first.
    pub blocks: Vec<Vec<u8>>,
    /// The in-memory pending tail.
    pub pending: Vec<u8>,
    /// Total records ever appended.
    pub total: u64,
}

/// Drive-internal state of the audit stream: the addresses of its
/// flushed blocks plus the in-memory tail buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReservedLog {
    /// Addresses of the flushed blocks, in append order.
    blocks: Vec<BlockAddr>,
    /// Records buffered toward the next block. Volatile by design (§5.1.4
    /// models one audit block write per ~hundred operations, not per
    /// operation) until an anchor spills it.
    pending: Vec<u8>,
    /// Total records ever appended.
    total: u64,
}

impl ReservedLog {
    /// Total records ever appended.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Addresses of the flushed blocks, in append order.
    pub(crate) fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }

    /// Buffers one record; returns the block payload to append when this
    /// record filled the block.
    pub(crate) fn push_record(&mut self, rec: &AuditRecord) -> Option<Vec<u8>> {
        rec.encode_into(&mut self.pending);
        self.total += 1;
        (self.pending.len() >= RECORD_BLOCK_BYTES).then(|| std::mem::take(&mut self.pending))
    }

    /// The tag of the stream's block at `position`.
    fn tag(position: usize) -> BlockTag {
        BlockTag::new(BlockKind::Audit, AUDIT_OBJECT.0, position as u64)
    }

    /// Appends one block payload to the log as the stream's next block
    /// and registers it reachable. The only place a stream block is
    /// written.
    pub(crate) fn append_block<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        ledger: &mut Ledger,
        payload: &[u8],
    ) -> Result<()> {
        let tag = Self::tag(self.blocks.len());
        self.blocks.push(ledger.append(log, tag, payload, 1)?);
        Ok(())
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

    /// Mount replay of one block flushed after the anchor, tagged `tag`.
    /// Only the stream's next position is taken: a block tagged with an
    /// earlier one is a cleaner's copy of a block the stream already
    /// lists, and is skipped. The anchored total only covers anchored
    /// blocks (the volatile tail died with the crash), so a replayed
    /// block's records are counted back in: `total` stays the number of
    /// records the stream has ever durably held.
    pub(crate) fn replay_block(
        &mut self,
        addr: BlockAddr,
        tag: BlockTag,
        payload: &[u8],
    ) -> Result<()> {
        if tag != Self::tag(self.blocks.len()) {
            return Ok(());
        }
        self.total += AuditState::decode_block(payload)?.len() as u64;
        self.blocks.push(addr);
        Ok(())
    }

    /// Whether the log tags every listed block with the stream's kind,
    /// object and the block's position: 0, 1, …, n−1.
    pub(crate) fn tagged_in_order<D: BlockDev>(&self, log: &Log<D>) -> Result<bool> {
        for (i, &addr) in self.blocks.iter().enumerate() {
            if log.tag_of(addr)? != Some(Self::tag(i)) {
                return Ok(false);
            }
        }
        Ok(true)
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
    }

    /// Serializes the durable part (block list + counter) into the
    /// anchor payload; the tail has just been spilled.
    pub(crate) fn encode_anchor(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            out.extend_from_slice(&b.0.to_le_bytes());
        }
    }

    /// Restores the durable part from the anchor payload, advancing
    /// the reader. A payload that ends early is corruption.
    pub(crate) fn decode_anchor(&mut self, r: &mut Reader) -> Result<()> {
        self.total = r.u64()?;
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
        Ok(())
    }

    /// A cursor positioned at the current end of the stream.
    pub(crate) fn end_cursor(&self) -> Result<StreamCursor> {
        Ok(StreamCursor {
            blocks: self.blocks.len(),
            tail_records: AuditState::decode_block(&self.pending)?.len(),
        })
    }

    /// Decodes the records appended since `cursor`, oldest first —
    /// flushed blocks, then the pending tail — and advances the cursor.
    ///
    /// The cursor exploits the spill discipline: when the pending tail
    /// spills (full, or partial at an anchor), the previously buffered
    /// records form the *prefix* of the newly flushed block, so
    /// `tail_records` carries over as a skip count into the first unread
    /// block. Blocks may therefore be partial and are never assumed
    /// full. A cursor that is ahead of the drive (reused across a crash
    /// that lost un-anchored blocks) rereads everything that survives.
    pub(crate) fn read_from<D: BlockDev>(
        &self,
        log: &Log<D>,
        cursor: &mut StreamCursor,
    ) -> Result<Vec<AuditRecord>> {
        if cursor.blocks > self.blocks.len() {
            *cursor = StreamCursor::default();
        }
        let mut skip = cursor.tail_records;
        let mut out = Vec::new();
        for &addr in &self.blocks[cursor.blocks..] {
            let mut recs = AuditState::decode_block(&log.read_block(addr)?)?;
            out.extend(recs.drain(skip.min(recs.len())..));
            skip = 0;
        }
        let mut tail = AuditState::decode_block(&self.pending)?;
        (cursor.blocks, cursor.tail_records) = (self.blocks.len(), tail.len());
        out.extend(tail.drain(skip.min(tail.len())..));
        Ok(out)
    }

    /// Bytes `[offset, offset + len)` of the stream as a `Read` of the
    /// audit object returns it — block `i` (zero-padded to
    /// [`BLOCK_SIZE`]) at byte `i × BLOCK_SIZE`, then the buffered tail —
    /// reading only the blocks the range covers.
    pub(crate) fn read_raw<D: BlockDev>(
        &self,
        log: &Log<D>,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        let flushed = self.blocks.len() * BLOCK_SIZE;
        let size = flushed + self.pending.len();
        let start = usize::try_from(offset).unwrap_or(usize::MAX).min(size);
        let end = start
            .saturating_add(usize::try_from(len).unwrap_or(usize::MAX))
            .min(size);
        let mut out = Vec::with_capacity(end - start);
        let mut at = start;
        while at < end.min(flushed) {
            let (block, from) = (at / BLOCK_SIZE, at % BLOCK_SIZE);
            let to = BLOCK_SIZE.min(from + end - at);
            out.extend_from_slice(&log.read_block(self.blocks[block])?[from..to]);
            at += to - from;
        }
        if at < end {
            out.extend_from_slice(&self.pending[at - flushed..end - flushed]);
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// The stream-facing drive surface.
// ----------------------------------------------------------------------

impl<D: BlockDev> S4Drive<D> {
    /// Appends one record to the audit log under one lock, then feeds a
    /// request's record (not a protocol step's or an alert's) to any
    /// registered online detectors and appends the alerts they raise
    /// after it. With the audit log off nothing is recorded.
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
        if !rec.trace.is_request() {
            return;
        }
        // Online detection: run outside the inner lock so appending the
        // alerts can re-enter the drive.
        let mut raised: Vec<AuditRecord> = Vec::new();
        {
            let mut observers = self.observers.lock();
            for obs in observers.iter_mut() {
                raised.extend(obs.on_record(rec));
            }
        }
        for alert in raised.iter().filter(|a| a.alert_rule().is_some()) {
            self.audit_append(alert);
        }
    }

    /// Files an alert the drive's controller raises on its own account —
    /// the channel redundancy layers use to surface member death and
    /// resync, so the operator's existing alert poll sees infrastructure
    /// faults too. The record carries the drive's instant, user and
    /// client 0 and op `Sync`, with `ok`, `object` and the two numbers
    /// the rule defines.
    pub fn system_alert(&self, rule: AlertRule, ok: bool, object: ObjectId, arg1: u64, arg2: u64) {
        let controller = AuditRecord {
            time: self.now(),
            user: UserId(0),
            client: ClientId(0),
            op: OpKind::Sync,
            ok,
            object,
            arg1: 0,
            arg2: 0,
            trace: TraceCtx::default(),
            rpc_us: 0,
            journal_us: 0,
            lfs_us: 0,
            disk_us: 0,
        };
        self.audit_append(&AuditRecord::alert(&controller, rule, arg1, arg2));
    }

    /// Decodes every request's record currently in the audit log (admin
    /// only), protocol steps and alerts left out.
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
        let mut records = self.read_stream_from(ctx, cursor)?;
        records.retain(|r| r.trace.is_request());
        Ok(records)
    }

    /// Every record appended since `cursor` (admin only), oldest first.
    fn read_stream_from(
        &self,
        ctx: &RequestContext,
        cursor: &mut StreamCursor,
    ) -> Result<Vec<AuditRecord>> {
        self.require_admin(ctx)?;
        self.inner.lock().audit.read_from(&self.log, cursor)
    }

    /// The whole audit log (admin only), oldest first, protocol steps and
    /// alerts included: record `i` is the stream's `i`-th, so its
    /// position is its sequence number. What trace assembly joins on.
    pub fn read_traces(&self, ctx: &RequestContext) -> Result<Vec<AuditRecord>> {
        self.read_stream_from(ctx, &mut StreamCursor::default())
    }

    /// The audit log as the raw byte stream a `Read` of the reserved
    /// audit object returns (see [`ReservedLog::read_raw`]).
    pub(crate) fn read_audit_raw(
        &self,
        ctx: &RequestContext,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        self.require_admin(ctx)?;
        self.inner.lock().audit.read_raw(&self.log, offset, len)
    }

    /// Total records ever appended to the audit log (admin only). A
    /// mismatch against the decodable record count exposes an audit
    /// coverage gap (a spilled block the log refused).
    pub fn audit_total_records(&self, ctx: &RequestContext) -> Result<u64> {
        self.require_admin(ctx)?;
        Ok(self.inner.lock().audit.total())
    }

    /// Every alert's record in the audit log (admin only), oldest first.
    pub fn read_alerts(&self, ctx: &RequestContext) -> Result<Vec<AuditRecord>> {
        self.read_alerts_from(ctx, &mut StreamCursor::default())
    }

    /// The alerts' records appended since `cursor` (admin only), oldest
    /// first, advancing the cursor: repeated polls are incremental
    /// instead of rescanning the log.
    pub fn read_alerts_from(
        &self,
        ctx: &RequestContext,
        cursor: &mut StreamCursor,
    ) -> Result<Vec<AuditRecord>> {
        let mut records = self.read_stream_from(ctx, cursor)?;
        records.retain(|r| r.trace.is_alert());
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::RECORD_BYTES;
    use s4_clock::SimTime;
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
        let mut st = ReservedLog::default();
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

    /// The anchor-payload layout is an on-disk contract.
    #[test]
    fn anchor_layout_is_pinned_byte_for_byte() {
        let a = ReservedLog {
            blocks: vec![BlockAddr(5), BlockAddr(0x0102)],
            pending: vec![1, 2, 3],
            total: 42,
        };
        let mut enc = Vec::new();
        a.encode_anchor(&mut enc);
        #[rustfmt::skip]
        assert_eq!(enc, [
            42, 0, 0, 0, 0, 0, 0, 0, // total
            2, 0, 0, 0,              // n
            5, 0, 0, 0, 0, 0, 0, 0,  // addr
            2, 1, 0, 0, 0, 0, 0, 0,  // addr
        ]);
    }

    #[test]
    fn anchor_round_trips_and_refuses_truncation() {
        let st = ReservedLog {
            blocks: vec![BlockAddr(11), BlockAddr(42)],
            pending: vec![1, 2],
            total: 7,
        };
        let mut enc = vec![0xEE]; // the stream state is mid-payload
        st.encode_anchor(&mut enc);
        let mut d = ReservedLog::default();
        let mut r = Reader::new(&enc[1..], "truncated");
        d.decode_anchor(&mut r).unwrap();
        assert!(r.take(1).is_err(), "the whole trailer is consumed");
        assert_eq!((&d.blocks, d.total), (&st.blocks, st.total));
        assert!(d.pending.is_empty(), "the pending tail is volatile");
        // A trailer that ends early is corruption, never a silently
        // shorter (or empty) stream.
        for cut in 1..enc.len() {
            let mut d = ReservedLog::default();
            assert!(
                d.decode_anchor(&mut Reader::new(&enc[1..cut], "truncated"))
                    .is_err(),
                "decoded from {cut} of {} bytes",
                enc.len()
            );
        }
    }

    #[test]
    fn relocation_repoints_exactly_the_matching_address() {
        let mut st = ReservedLog {
            blocks: vec![BlockAddr(11), BlockAddr(42), BlockAddr(77)],
            ..ReservedLog::default()
        };
        st.relocate(BlockAddr(42), BlockAddr(900));
        assert_eq!(st.blocks, [BlockAddr(11), BlockAddr(900), BlockAddr(77)]);
        st.relocate(BlockAddr(5), BlockAddr(901)); // not ours: no-op
        assert_eq!(st.blocks, [BlockAddr(11), BlockAddr(900), BlockAddr(77)]);
    }

    /// Replay counts a block's records back in at the stream's next
    /// position only: a block tagged with a position the stream already
    /// holds is a cleaner's copy.
    #[test]
    fn replay_takes_only_the_next_position() {
        let mut st = ReservedLog::default();
        let mut block = Vec::new();
        for i in 0..5 {
            rec(i).encode_into(&mut block);
        }
        block.resize(BLOCK_SIZE, 0); // as read back from the log
        st.replay_block(BlockAddr(9), ReservedLog::tag(0), &block)
            .unwrap();
        assert_eq!((st.total(), st.blocks()), (5, &[BlockAddr(9)][..]));
        for stale in [ReservedLog::tag(0), ReservedLog::tag(2)] {
            st.replay_block(BlockAddr(10), stale, &block).unwrap();
        }
        st.replay_block(BlockAddr(11), ReservedLog::tag(1), &block)
            .unwrap();
        let listed = [BlockAddr(9), BlockAddr(11)];
        assert_eq!((st.total(), st.blocks()), (10, &listed[..]));
    }

    /// Appends records `from..from + n`, anchoring (spilling the partial
    /// tail) after each index in `anchor_after`.
    fn fill(st: &mut ReservedLog, log: &Log<MemDisk>, from: u64, n: u64, anchor_after: &[u64]) {
        let mut ledger = Ledger::default();
        for i in from..from + n {
            if let Some(block) = st.push_record(&rec(i)) {
                st.append_block(log, &mut ledger, &block).unwrap();
            }
            if anchor_after.contains(&i) {
                st.spill_tail(log, &mut ledger).unwrap();
            }
        }
    }

    fn ids(records: Vec<AuditRecord>) -> Vec<u64> {
        records.iter().map(|r| r.time.as_micros()).collect()
    }

    #[test]
    fn cursor_survives_partial_anchor_spilled_blocks() {
        let log = log();
        let mut st = ReservedLog::default();
        let mut cursor = StreamCursor::default();
        // Two records, then an anchor spills them as a *partial* block.
        fill(&mut st, &log, 0, 2, &[1]);
        assert_eq!(st.blocks().len(), 1);
        assert_eq!(ids(st.read_from(&log, &mut cursor).unwrap()), [0, 1]);
        // A cursor taken mid-tail: the consumed records become the
        // prefix of the block the tail later spills into.
        fill(&mut st, &log, 2, 3, &[]);
        assert_eq!(ids(st.read_from(&log, &mut cursor).unwrap()), [2, 3, 4]);
        assert_eq!(cursor, st.end_cursor().unwrap());
        assert_eq!(
            cursor,
            StreamCursor {
                blocks: 1,
                tail_records: 3
            }
        );
        let n = PER_BLOCK as u64 + 6;
        fill(&mut st, &log, 5, n, &[]);
        assert_eq!(st.blocks().len(), 2, "the tail spilled one full block");
        assert_eq!(
            ids(st.read_from(&log, &mut cursor).unwrap()),
            (5..5 + n).collect::<Vec<_>>()
        );
        assert!(st.read_from(&log, &mut cursor).unwrap().is_empty());
        // The whole stream, from a fresh cursor.
        let whole = &mut StreamCursor::default();
        let all = (0..5 + n).collect::<Vec<_>>();
        assert_eq!(ids(st.read_from(&log, whole).unwrap()), all);
        // A cursor ahead of the stream (blocks lost in a crash) resets.
        let mut ahead = StreamCursor {
            blocks: 99,
            tail_records: 1,
        };
        assert_eq!(ids(st.read_from(&log, &mut ahead).unwrap()), all);
    }

    /// A `Read` of the audit object: block `i` at `i × BLOCK_SIZE`, then
    /// the tail, however the range is cut.
    #[test]
    fn raw_reads_cut_the_positional_stream_anywhere() {
        let log = log();
        let mut st = ReservedLog::default();
        fill(&mut st, &log, 0, 2 * PER_BLOCK as u64 + 7, &[3]);
        let mut whole = Vec::new();
        for &addr in st.blocks() {
            whole.extend_from_slice(&log.read_block(addr).unwrap());
        }
        whole.extend_from_slice(&st.pending);
        assert_eq!(whole.len(), 3 * BLOCK_SIZE + st.pending.len());
        let size = whole.len() as u64;
        for (offset, len) in [
            (0, size),
            (0, 1),
            (4095, 2),
            (4096, 4096),
            (5000, 9000),
            (size - 3, 100),
            (size, 10),
            (size + 9, 10),
            (1, u64::MAX),
            (u64::MAX, u64::MAX),
        ] {
            let start = offset.min(size) as usize;
            let end = offset.saturating_add(len).min(size) as usize;
            let got = st.read_raw(&log, offset, len).unwrap();
            assert_eq!(got, whole[start..end], "offset {offset} len {len}");
        }
    }

    #[test]
    fn export_restore_copies_the_stream_byte_for_byte() {
        let (src_log, dst_log) = (log(), log());
        let mut src = ReservedLog::default();
        fill(&mut src, &src_log, 0, PER_BLOCK as u64 + 10, &[5]);
        let image = src.export(&src_log).unwrap();
        let mut dst = ReservedLog::default();
        let mut ledger = Ledger::default();
        dst.restore(&dst_log, &mut ledger, &image).unwrap();
        assert_eq!(dst.export(&dst_log).unwrap(), image);
        assert_eq!(ledger.addrs().count(), dst.blocks().len());
        assert_eq!(dst.end_cursor().unwrap(), src.end_cursor().unwrap());
        assert!(dst.tagged_in_order(&dst_log).unwrap());
        dst.blocks.swap(0, 1);
        assert!(!dst.tagged_in_order(&dst_log).unwrap());
    }
}

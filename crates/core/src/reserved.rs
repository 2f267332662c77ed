//! The reserved, drive-written audit stream (§4.2.3).
//!
//! "S4 maintains an append-only audit log of all requests. This log is
//! implemented as a reserved object within the drive that cannot be
//! modified except by the drive itself." The drive keeps one such
//! object, the audit log: one fixed 68-byte [`AuditRecord`] per request
//! (with its trace context and layer times), per distributed-protocol
//! step, and per alert the in-perimeter detectors raise (see the
//! `s4-detect` crate). `ReservedLog` is its mechanism: records accumulate
//! in a volatile tail, a tail that fills a block is appended to the log
//! beside the data (which is what produces the Figure 6 effect), every
//! anchor carries the block list and the tail's bytes, and roll-forward
//! re-attaches the blocks flushed after the anchor. An intruder with
//! full client privileges can neither suppress nor rewrite any of it.
//!
//! A record's position is its address: every flushed block holds
//! exactly [`PER_BLOCK`] (60) records, so position `p` is record
//! `p % 60` of block `p / 60`, or of the tail once `p / 60` is the
//! number of blocks. Kimberlite's log maps a position to its segment the
//! same way.
//!
//! The on-disk contract — pinned byte for byte by the tests below — is
//! the block payloads (60 records, then zero padding), the tag
//! `BlockTag::new(BlockKind::Audit, AUDIT_OBJECT, block index)`, and the
//! anchor-payload layout `dropped u64, n u32, n × addr u64, tail bytes
//! (u32 length, then at most 4 080 bytes)`. A block's tag names its
//! index: the cleaner copies a block forward under its old tag, and
//! roll-forward replays a block only at the stream's next index, so a
//! copy is never counted in twice.
//!
//! Per-record checksums and a prev-hash chain (Kimberlite's
//! length/CRC/prev-hash record) belong here: a block covers a fixed range
//! of positions, `ReservedLog::push` is where a block is sealed, and
//! `ReservedLog::check` and the reader are where it is verified.

use s4_lfs::{BlockAddr, BlockKind, BlockTag, LfsError, Log, BLOCK_SIZE};
use s4_simdisk::BlockDev;

use crate::audit::{AlertRule, AuditRecord, AuditState, OpKind, RECORD_BLOCK_BYTES, RECORD_BYTES};
use crate::codec::{push_bytes, Reader};
use crate::drive::{S4Drive, AUDIT_OBJECT};
use crate::ids::{ClientId, ObjectId, RequestContext, TraceCtx, UserId};
use crate::ledger::Ledger;
use crate::{Result, S4Error};

/// Records in every flushed audit block.
pub(crate) const PER_BLOCK: usize = RECORD_BLOCK_BYTES / RECORD_BYTES;

/// The audit stream as exported by [`S4Drive::resync_image`]: flushed
/// block payloads plus the buffered tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResyncStream {
    /// Flushed block payloads, oldest first.
    pub blocks: Vec<Vec<u8>>,
    /// The in-memory pending tail.
    pub pending: Vec<u8>,
    /// Records in blocks the source's log refused.
    pub dropped: u64,
}

/// Drive-internal state of the audit stream: the addresses of its
/// flushed blocks plus the in-memory tail buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReservedLog {
    /// Addresses of the flushed blocks, in append order; each holds
    /// [`PER_BLOCK`] records.
    blocks: Vec<BlockAddr>,
    /// Records buffered toward the next block, fewer than
    /// [`PER_BLOCK`]. Volatile between anchors by design (§5.1.4 models
    /// one audit block write per ~hundred operations, not per operation);
    /// an anchor carries it.
    pending: Vec<u8>,
    /// Records in blocks the log refused: appended, never decodable.
    dropped: u64,
}

impl ReservedLog {
    /// The position one past the last record.
    pub(crate) fn len(&self) -> u64 {
        (self.blocks.len() * PER_BLOCK + self.pending.len() / RECORD_BYTES) as u64
    }

    /// Addresses of the flushed blocks, in append order.
    pub(crate) fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }

    /// The tag of the stream's block at `index`.
    fn tag(index: usize) -> BlockTag {
        BlockTag::new(BlockKind::Audit, AUDIT_OBJECT.0, index as u64)
    }

    /// Buffers one record; a record that fills the tail appends it as
    /// the stream's next block. A block the log refuses is dropped, its
    /// records counted in `dropped`, rather than failing the request the
    /// record audits. Returns whether a block was written.
    pub(crate) fn push<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        ledger: &mut Ledger,
        rec: &AuditRecord,
    ) -> bool {
        rec.encode_into(&mut self.pending);
        if self.pending.len() < RECORD_BLOCK_BYTES {
            return false;
        }
        let block = std::mem::take(&mut self.pending);
        let written = self.append_block(log, ledger, &block).is_ok();
        if !written {
            self.dropped += PER_BLOCK as u64;
        }
        written
    }

    /// Appends one full block payload to the log as the stream's next
    /// block and registers it reachable. The only place a stream block
    /// is written.
    fn append_block<D: BlockDev>(
        &mut self,
        log: &Log<D>,
        ledger: &mut Ledger,
        payload: &[u8],
    ) -> Result<()> {
        let tag = Self::tag(self.blocks.len());
        self.blocks.push(ledger.append(log, tag, payload, 1)?);
        Ok(())
    }

    /// Mount replay of one block flushed after the anchor, tagged `tag`.
    /// Only the stream's next index is taken: a block tagged with an
    /// earlier one is a cleaner's copy of a block the stream already
    /// lists, and is skipped. A block taken begins with the anchored
    /// tail's records, so it replaces the tail.
    pub(crate) fn replay_block(&mut self, addr: BlockAddr, tag: BlockTag) {
        if tag == Self::tag(self.blocks.len()) {
            self.blocks.push(addr);
            self.pending.clear();
        }
    }

    /// Refuses a stream whose listed blocks the log does not tag with
    /// the stream's kind, object and index (0, 1, …, n−1), or that do
    /// not hold [`PER_BLOCK`] records each.
    pub(crate) fn check<D: BlockDev>(&self, log: &Log<D>) -> Result<()> {
        for (i, &addr) in self.blocks.iter().enumerate() {
            if log.tag_of(addr)? != Some(Self::tag(i)) {
                return Err(LfsError::Corrupt("audit block tagged out of its position").into());
            }
            if AuditState::decode_block(&log.read_block(addr)?)?.len() != PER_BLOCK {
                return Err(LfsError::Corrupt("audit block short of its records").into());
            }
        }
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
        eat(&self.dropped.to_le_bytes());
    }

    /// Serializes the stream into the anchor payload: the dropped count,
    /// the block list and the tail.
    pub(crate) fn encode_anchor(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            out.extend_from_slice(&b.0.to_le_bytes());
        }
        push_bytes(out, &self.pending);
    }

    /// Restores the stream from the anchor payload, advancing the
    /// reader. A payload that ends early, or a tail that is not whole
    /// records short of a block, is corruption.
    pub(crate) fn decode_anchor(&mut self, r: &mut Reader) -> Result<()> {
        self.dropped = r.u64()?;
        let n = r.count(8)?;
        self.blocks = (0..n)
            .map(|_| Ok(BlockAddr(r.u64()?)))
            .collect::<Result<_>>()?;
        let tail = r.bytes()?;
        if tail.len() % RECORD_BYTES != 0 || tail.len() >= RECORD_BLOCK_BYTES {
            return Err(S4Error::BadRequest("anchored audit tail"));
        }
        self.pending = tail.to_vec();
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
            dropped: self.dropped,
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
        self.dropped = image.dropped;
        Ok(())
    }

    /// Decodes every record from position `*from` on, oldest first —
    /// flushed blocks, then the pending tail — and advances `*from` to
    /// [`ReservedLog::len`]. Blocks below the position are not read. A
    /// position past the end (kept across a crash that lost un-anchored
    /// records) rereads the stream from 0.
    pub(crate) fn read_from<D: BlockDev>(
        &self,
        log: &Log<D>,
        from: &mut u64,
    ) -> Result<Vec<AuditRecord>> {
        if *from > self.len() {
            *from = 0;
        }
        let start = usize::try_from(*from).unwrap_or(usize::MAX);
        let (first, mut skip) = (start / PER_BLOCK, start % PER_BLOCK);
        let mut out = Vec::new();
        for &addr in &self.blocks[first..] {
            let recs = AuditState::decode_block(&log.read_block(addr)?)?;
            out.extend(recs.into_iter().skip(skip));
            skip = 0;
        }
        let tail = AuditState::decode_block(&self.pending)?;
        out.extend(tail.into_iter().skip(skip));
        *from = self.len();
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
            if inner.audit.push(&self.log, &mut inner.ledger, rec) {
                self.stats.audit_blocks(1);
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
        let mut records = self.read_log_from(ctx, &mut 0)?;
        records.retain(|r| r.trace.is_request());
        Ok(records)
    }

    /// Every record of the audit log from position `*from` on (admin
    /// only), oldest first, protocol steps and alerts included, and
    /// advances `*from` past them: a record's position is its sequence
    /// number, so a poller that keeps `*from` reads each record once. A
    /// position past the end (kept across a crash) rereads from 0.
    pub fn read_log_from(&self, ctx: &RequestContext, from: &mut u64) -> Result<Vec<AuditRecord>> {
        self.require_admin(ctx)?;
        self.inner.lock().audit.read_from(&self.log, from)
    }

    /// The position one past the audit log's last record (admin only):
    /// a later [`S4Drive::read_log_from`] at it returns exactly the
    /// records appended after this call.
    pub fn audit_len(&self, ctx: &RequestContext) -> Result<u64> {
        self.require_admin(ctx)?;
        Ok(self.inner.lock().audit.len())
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

    /// Records ever appended to the audit log (admin only): its length
    /// plus the records in blocks the log refused. More than
    /// [`S4Drive::audit_len`] exposes an audit coverage gap.
    pub fn audit_total_records(&self, ctx: &RequestContext) -> Result<u64> {
        self.require_admin(ctx)?;
        let inner = self.inner.lock();
        Ok(inner.audit.len() + inner.audit.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::SimTime;
    use s4_lfs::LogConfig;
    use s4_simdisk::MemDisk;

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

    /// Appends records `from..from + n`.
    fn fill(st: &mut ReservedLog, log: &Log<MemDisk>, from: u64, n: u64) {
        let mut ledger = Ledger::default();
        for i in from..from + n {
            st.push(log, &mut ledger, &rec(i));
        }
    }

    fn ids(records: Vec<AuditRecord>) -> Vec<u64> {
        records.iter().map(|r| r.time.as_micros()).collect()
    }

    #[test]
    fn records_spill_the_instant_a_block_fills() {
        assert_eq!(PER_BLOCK, 60);
        let log = log();
        let mut ledger = Ledger::default();
        let mut st = ReservedLog::default();
        for i in 0..PER_BLOCK as u64 - 1 {
            assert!(
                !st.push(&log, &mut ledger, &rec(i)),
                "record {i} wrote a block"
            );
        }
        // The boundary record: the push that fills the block writes it
        // and leaves the tail empty.
        assert!(st.push(&log, &mut ledger, &rec(PER_BLOCK as u64 - 1)));
        assert_eq!((st.blocks().len(), st.pending.len()), (1, 0));
        fill(&mut st, &log, PER_BLOCK as u64, PER_BLOCK as u64 + 3);
        assert_eq!(st.blocks().len(), 2);
        assert_eq!(st.len(), PER_BLOCK as u64 * 2 + 3);
        assert_eq!(st.pending.len(), 3 * RECORD_BYTES);
        // Blocks plus the tail reassemble the stream: nothing lost,
        // reordered or altered at the seams.
        let mut decoded = Vec::new();
        for &addr in st.blocks() {
            decoded.extend(AuditState::decode_block(&log.read_block(addr).unwrap()).unwrap());
        }
        decoded.extend(AuditState::decode_block(&st.pending).unwrap());
        assert_eq!(ids(decoded), (0..st.len()).collect::<Vec<_>>());
    }

    /// The anchor-payload layout (format revision 7) is an on-disk
    /// contract.
    #[test]
    fn anchor_layout_is_pinned_byte_for_byte() {
        let mut tail = Vec::new();
        rec(3).encode_into(&mut tail);
        let a = ReservedLog {
            blocks: vec![BlockAddr(5), BlockAddr(0x0102)],
            pending: tail.clone(),
            dropped: 42,
        };
        let mut enc = Vec::new();
        a.encode_anchor(&mut enc);
        #[rustfmt::skip]
        assert_eq!(enc[..32], [
            42, 0, 0, 0, 0, 0, 0, 0, // dropped
            2, 0, 0, 0,              // n
            5, 0, 0, 0, 0, 0, 0, 0,  // addr
            2, 1, 0, 0, 0, 0, 0, 0,  // addr
            68, 0, 0, 0,             // tail bytes
        ]);
        assert_eq!(enc[32..], tail[..], "the tail's records, as encoded");
    }

    #[test]
    fn anchor_round_trips_and_refuses_truncation() {
        let mut pending = Vec::new();
        rec(1).encode_into(&mut pending);
        rec(2).encode_into(&mut pending);
        let st = ReservedLog {
            blocks: vec![BlockAddr(11), BlockAddr(42)],
            pending,
            dropped: 7,
        };
        let mut enc = vec![0xEE]; // the stream state is mid-payload
        st.encode_anchor(&mut enc);
        let mut d = ReservedLog::default();
        let mut r = Reader::new(&enc[1..], "truncated");
        d.decode_anchor(&mut r).unwrap();
        assert!(r.take(1).is_err(), "the whole trailer is consumed");
        assert_eq!(
            (&d.blocks, &d.pending, d.dropped),
            (&st.blocks, &st.pending, 7)
        );
        assert_eq!(d.len(), 2 * PER_BLOCK as u64 + 2);
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
        // So is a tail that is not whole records, or a whole block.
        for bad in [RECORD_BYTES - 1, RECORD_BLOCK_BYTES] {
            let st = ReservedLog {
                pending: vec![1; bad],
                ..ReservedLog::default()
            };
            let mut enc = Vec::new();
            st.encode_anchor(&mut enc);
            let mut d = ReservedLog::default();
            assert!(
                d.decode_anchor(&mut Reader::new(&enc, "truncated"))
                    .is_err(),
                "{bad}"
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

    /// Replay takes a block at the stream's next index only, and the
    /// block replaces the anchored tail it begins with: a block tagged
    /// with an index the stream already holds is a cleaner's copy.
    #[test]
    fn replay_takes_only_the_next_position() {
        let mut st = ReservedLog::default();
        rec(0).encode_into(&mut st.pending);
        st.replay_block(BlockAddr(9), ReservedLog::tag(0));
        assert_eq!((st.len(), st.blocks()), (60, &[BlockAddr(9)][..]));
        for stale in [ReservedLog::tag(0), ReservedLog::tag(2)] {
            st.replay_block(BlockAddr(10), stale);
        }
        st.replay_block(BlockAddr(11), ReservedLog::tag(1));
        let listed = [BlockAddr(9), BlockAddr(11)];
        assert_eq!((st.len(), st.blocks()), (120, &listed[..]));
    }

    #[test]
    fn a_position_names_its_block_and_a_read_resumes_there() {
        let log = log();
        let mut st = ReservedLog::default();
        let mut at = 0;
        fill(&mut st, &log, 0, 2);
        assert_eq!(ids(st.read_from(&log, &mut at).unwrap()), [0, 1]);
        assert_eq!(at, 2);
        // The consumed tail records become the prefix of the block the
        // tail fills into.
        let n = PER_BLOCK as u64 + 6;
        fill(&mut st, &log, 2, n);
        assert_eq!(st.blocks().len(), 1);
        assert_eq!(
            ids(st.read_from(&log, &mut at).unwrap()),
            (2..2 + n).collect::<Vec<_>>()
        );
        assert!(st.read_from(&log, &mut at).unwrap().is_empty());
        assert_eq!(at, st.len());
        // Any position, mid-block or mid-tail, reads from there on.
        let all = (0..2 + n).collect::<Vec<_>>();
        for from in [0, 1, 59, 60, 61, 2 + n] {
            let mut p = from;
            let got = ids(st.read_from(&log, &mut p).unwrap());
            assert_eq!(got, all[from as usize..], "from {from}");
        }
        // A position ahead of the stream (records lost in a crash) rereads
        // from 0.
        let mut ahead = st.len() + 1;
        assert_eq!(ids(st.read_from(&log, &mut ahead).unwrap()), all);
    }

    /// A `Read` of the audit object: block `i` at `i × BLOCK_SIZE`, then
    /// the tail, however the range is cut.
    #[test]
    fn raw_reads_cut_the_positional_stream_anywhere() {
        let log = log();
        let mut st = ReservedLog::default();
        fill(&mut st, &log, 0, 2 * PER_BLOCK as u64 + 7);
        let mut whole = Vec::new();
        for &addr in st.blocks() {
            whole.extend_from_slice(&log.read_block(addr).unwrap());
        }
        whole.extend_from_slice(&st.pending);
        assert_eq!(whole.len(), 2 * BLOCK_SIZE + 7 * RECORD_BYTES);
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
        fill(&mut src, &src_log, 0, 2 * PER_BLOCK as u64 + 10);
        src.dropped = 3;
        let image = src.export(&src_log).unwrap();
        let mut dst = ReservedLog::default();
        let mut ledger = Ledger::default();
        dst.restore(&dst_log, &mut ledger, &image).unwrap();
        assert_eq!(dst.export(&dst_log).unwrap(), image);
        assert_eq!(ledger.addrs().count(), dst.blocks().len());
        assert_eq!((dst.len(), dst.dropped), (src.len(), 3));
        dst.check(&dst_log).unwrap();
        dst.blocks.swap(0, 1);
        assert!(dst.check(&dst_log).is_err(), "blocks out of position");
    }

    /// Every listed block holds sixty records: a short one is corruption.
    #[test]
    fn check_refuses_a_short_block() {
        let log = log();
        let mut ledger = Ledger::default();
        let mut st = ReservedLog::default();
        fill(&mut st, &log, 0, PER_BLOCK as u64);
        st.check(&log).unwrap();
        let mut short = Vec::new();
        for i in 0..PER_BLOCK as u64 - 1 {
            rec(i).encode_into(&mut short);
        }
        st.append_block(&log, &mut ledger, &short).unwrap();
        let err = st.check(&log).unwrap_err();
        assert!(err.to_string().contains("short"), "{err}");
    }
}

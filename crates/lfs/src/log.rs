//! The log: buffered append, batch flush, anchoring, and crash recovery.
//!
//! Writes are buffered into a *batch*; [`Log::flush`] lays the batch out as
//! one summary block followed by the data blocks and commits it with a
//! single sequential device transfer. This is the LFS write path that
//! makes comprehensive versioning nearly free (§4.2.1): many small object
//! updates coalesce into large sequential writes, and old versions are
//! never moved because nothing is ever overwritten. The batch's first
//! payload short enough (`carried_limit`) takes no block slot: the
//! summary block carries it, so a `Write` + `Sync` commit is summary and
//! data, its journal container riding in the summary.
//!
//! Durability protocol: the summary carries a checksum of the batch's data
//! blocks, and `[summary | data]` is one device write. A torn commit —
//! whichever of its sectors reached the platter — leaves either a summary
//! that fails its own CRC or data that fails the summary's checksum, and
//! roll-forward stops at the previous batch either way. The *anchor*
//! (superblock + system-state batches) is written periodically, not
//! per-sync; recovery rolls forward from the anchored cursor,
//! re-discovering every batch flushed after it. Segments reclaimed since
//! the last anchor are only *pending* free — they become allocatable once
//! the next anchor makes the reclamation durable, so a crash can never
//! observe a reused segment whose old contents the anchored object map
//! still references.

use std::collections::HashMap;

use crate::bytes::Bytes;
use s4_clock::sync::Mutex;

use s4_simdisk::BlockDev;

use crate::cache::BlockCache;
use crate::codec::{push_bytes, Reader};
use crate::crc::xxh64;
use crate::layout::{BlockAddr, BlockKind, BlockTag, Geometry, SegmentId, BLOCK_SIZE};
use crate::summary::{carried_limit, Carried, Summary, SummaryEntry, MAX_ENTRIES, NO_NEXT_SEGMENT};
use crate::superblock::{Superblock, NO_STATE};
use crate::usage::SegmentUsageTable;
use crate::{LfsError, Result};

/// Configuration for formatting a log.
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Blocks per segment; the paper-style default is 128 (512 KiB
    /// segments).
    pub blocks_per_segment: u32,
    /// Block-cache capacity in blocks; the paper's S4 drive used a 128 MB
    /// buffer cache.
    pub cache_blocks: usize,
    /// On a cache miss, fetch this many aligned blocks in one transfer
    /// (segment-granular readahead; 0 or 1 disables). Reading
    /// neighborhoods at once is what makes the density of a segment
    /// matter — e.g. Figure 6's audit blocks diluting data locality.
    pub readahead_blocks: u32,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            blocks_per_segment: 128,
            cache_blocks: 32 * 1024, // 128 MB
            readahead_blocks: 32,    // 128 KB
        }
    }
}

/// Statistics returned by [`Log::flush`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Blocks written, including the summary block.
    pub blocks_written: u32,
    /// True if this flush sealed the segment and moved to a new one.
    pub sealed: bool,
}

/// Everything [`Log::mount`] recovers.
pub struct Mounted<D: BlockDev> {
    /// The log, positioned after the last complete batch. Every
    /// segment's live count is zero until the upper layer installs its
    /// recount ([`Log::rebuild_live_counts`]).
    pub log: Log<D>,
    /// The upper layer's opaque anchor payload (empty if the log was
    /// never anchored).
    pub payload: Vec<u8>,
    /// The batches flushed *after* the anchor state, for the upper layer
    /// to re-apply. Their blocks are left in the block cache.
    pub batches: Vec<RecoveredBatch>,
    /// The recovered superblock.
    pub superblock: Superblock,
    /// Trailing batches dropped because their data did not match the
    /// summary's checksum — a torn commit whose summary sectors all
    /// persisted. Roll-forward stops at the first, so this is 0 or 1; a
    /// missing or invalid summary ends the log without counting here.
    pub torn_batches: usize,
}

/// One batch re-discovered by crash-recovery roll-forward, delivered to
/// the upper layer so it can re-apply journal entries.
#[derive(Clone, Debug)]
pub struct RecoveredBatch {
    /// The batch's summary epoch.
    pub epoch: u64,
    /// `(address, tag)` for every block in the batch — the record its
    /// summary carries included — in append order.
    pub blocks: Vec<(BlockAddr, BlockTag)>,
}

/// One segment whose live count in the usage table differs from a
/// recount ([`Log::check_live_counts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMismatch {
    /// The segment.
    pub segment: SegmentId,
    /// Live blocks the usage table counts.
    pub counted: u32,
    /// Live blocks the reachable addresses account for.
    pub derived: u32,
}

struct PendingBlock {
    addr: BlockAddr,
    tag: BlockTag,
    data: Bytes,
}

/// A payload on its way into the open batch's summary block.
struct PendingRecord {
    /// Padded like any block, for readers.
    block: PendingBlock,
    /// The payload's own length.
    len: usize,
    /// Blocks pending when it was appended: its place in append order.
    pos: u16,
}

struct WriterState {
    /// Active segment.
    seg: SegmentId,
    /// Next block offset to assign within the active segment.
    cursor: u32,
    /// Offset of the open batch's reserved summary slot, if a batch is
    /// open.
    batch_start: Option<u32>,
    /// Epoch the next flush will stamp into its summary.
    next_epoch: u64,
    pending: Vec<PendingBlock>,
    pending_map: HashMap<BlockAddr, usize>,
    /// The record the open batch's summary will carry.
    carried: Option<PendingRecord>,
    /// Superblock epoch last written.
    sb_epoch: u64,
    /// Addresses of the current anchor's system-state blocks (protected
    /// from cleaning; released when the next anchor supersedes them).
    state_addrs: Vec<BlockAddr>,
}

/// The log-structured store.
pub struct Log<D: BlockDev> {
    dev: D,
    geo: Geometry,
    cache: BlockCache,
    readahead: u32,
    state: Mutex<WriterState>,
    usage: Mutex<SegmentUsageTable>,
}

impl<D: BlockDev> Log<D> {
    /// Formats `dev` with a fresh, empty log and writes the initial
    /// superblock.
    pub fn format(dev: D, config: LogConfig) -> Result<Log<D>> {
        let geo = Geometry::compute(dev.num_sectors(), config.blocks_per_segment)?;
        let mut usage = SegmentUsageTable::new(&geo);
        let seg = usage.allocate()?;
        let sb = Superblock {
            epoch: 0,
            blocks_per_segment: geo.blocks_per_segment,
            num_segments: geo.num_segments,
            cursor_segment: seg,
            cursor_block: 0,
            next_summary_epoch: 1,
            state_epoch_first: NO_STATE,
            state_epoch_last: NO_STATE,
            next_stamp_seq: 1,
            anchor_time_us: 0,
        };
        sb.write_to(&dev)?;
        Ok(Log {
            dev,
            geo,
            cache: BlockCache::new(config.cache_blocks),
            readahead: config.readahead_blocks,
            state: Mutex::new(WriterState {
                seg,
                cursor: 0,
                batch_start: None,
                next_epoch: 1,
                pending: Vec::new(),
                pending_map: HashMap::new(),
                carried: None,
                sb_epoch: 0,
                state_addrs: Vec::new(),
            }),
            usage: Mutex::new(usage),
        })
    }

    /// Mounts an existing log: reads the latest superblock, rolls the log
    /// forward to the last complete batch, and loads the anchored system
    /// state. `config` sizes the cache and the readahead; the segment
    /// size is the one the log was formatted with.
    pub fn mount(dev: D, config: LogConfig) -> Result<Mounted<D>> {
        let sb = Superblock::read_latest(&dev)?;
        let geo = sb.geometry();
        let cache = BlockCache::new(config.cache_blocks);
        let anchored = |epoch: u64| !sb.has_no_state() && epoch <= sb.state_epoch_last;

        // Phase 1: scan forward from the anchored cursor, collecting every
        // complete batch in epoch order. Each segment's tail is one device
        // read, summaries and data together; a batch counts only if its
        // data matches the summary's checksum. The anchor's state batches
        // come first (the anchored cursor is where they start) and are
        // gathered into `blob`; the verified blocks of every later batch go
        // to the cache, where the upper layer's replay finds them.
        let mut seg = sb.cursor_segment;
        let mut cursor = sb.cursor_block;
        let mut epoch = sb.next_summary_epoch;
        let mut scanned: Vec<(RecoveredBatch, SegmentId, u32, Option<SegmentId>)> = Vec::new();
        let mut state_addrs = Vec::new();
        let mut blob = Vec::new();
        let mut torn_batches = 0;
        let mut tail = Vec::new();
        'segments: while cursor < geo.blocks_per_segment {
            let base = cursor;
            tail.resize((geo.blocks_per_segment - base) as usize * BLOCK_SIZE, 0);
            // A device error fails the mount: treating it as the end of
            // the log would let the next append overwrite a valid tail.
            dev.read(geo.sector_of(geo.addr_of(seg, base)), &mut tail)?;
            while cursor < geo.blocks_per_segment {
                let at = (cursor - base) as usize * BLOCK_SIZE;
                let Ok(summary) = Summary::decode(&tail[at..at + BLOCK_SIZE]) else {
                    break 'segments;
                };
                if summary.epoch != epoch || summary.segment != seg || summary.offset != cursor {
                    break 'segments;
                }
                let n = summary.entries.len();
                let Some(data) = tail.get(at + BLOCK_SIZE..at + (1 + n) * BLOCK_SIZE) else {
                    break 'segments;
                };
                if xxh64(data) != summary.data_checksum {
                    // The superblock naming the state batches was written
                    // after them, so a mismatch there is damage, not a
                    // torn commit: fail rather than truncate.
                    if anchored(epoch) {
                        return Err(LfsError::Corrupt("anchor state checksum"));
                    }
                    torn_batches += 1;
                    break 'segments;
                }
                let contents = summary.blocks(&geo, data);
                if anchored(epoch) {
                    if contents
                        .iter()
                        .any(|(_, t, _)| t.kind != BlockKind::SystemState)
                    {
                        return Err(LfsError::Corrupt("non-state block in state batch"));
                    }
                    for &(addr, _, bytes) in &contents {
                        // Whole blocks, as the anchor cut them.
                        blob.extend_from_slice(bytes);
                        blob.resize(blob.len().next_multiple_of(BLOCK_SIZE), 0);
                        state_addrs.push(addr);
                    }
                } else {
                    for &(addr, _, bytes) in &contents {
                        cache.insert(addr, padded(bytes));
                    }
                }
                let blocks = contents.iter().map(|&(a, t, _)| (a, t)).collect();
                let seal = summary.seals_segment().then_some(summary.next_segment);
                scanned.push((RecoveredBatch { epoch, blocks }, seg, n as u32, seal));
                epoch += 1;
                match seal {
                    Some(next) => {
                        seg = next;
                        cursor = 0;
                        continue 'segments;
                    }
                    None => cursor += 1 + n as u32,
                }
            }
        }

        // Phase 2: split the anchored system state into the upper layer's
        // payload and the usage table.
        if anchored(epoch) {
            return Err(LfsError::Corrupt("anchor state batches missing"));
        }
        let (payload, mut usage) = if blob.is_empty() {
            (Vec::new(), SegmentUsageTable::new(&geo))
        } else {
            let mut r = Reader::new(&blob, "anchor state truncated");
            let payload = r.bytes()?.to_vec();
            (payload, SegmentUsageTable::decode(r.rest())?)
        };

        // Phase 3: replay the written counts of every scanned batch on top
        // of the anchored table; every live count stays zero until the
        // upper layer recounts them (`rebuild_live_counts`). The anchor
        // is durable, so segments the previous incarnation had reclaimed
        // become allocatable.
        usage.promote_pending_free();
        if sb.has_no_state() {
            usage.force_allocate(sb.cursor_segment);
        }
        for (_, bseg, entries, seal) in &scanned {
            usage.note_append(*bseg, entries + 1);
            if let Some(next) = seal {
                usage.force_allocate(*next);
            }
        }

        // Phase 4: hand post-state batches to the upper layer.
        let upper_batches: Vec<RecoveredBatch> = scanned
            .into_iter()
            .map(|(b, ..)| b)
            .filter(|b| !anchored(b.epoch))
            .collect();

        let log = Log {
            dev,
            geo,
            cache,
            readahead: config.readahead_blocks,
            state: Mutex::new(WriterState {
                seg,
                cursor,
                batch_start: None,
                next_epoch: epoch,
                pending: Vec::new(),
                pending_map: HashMap::new(),
                carried: None,
                sb_epoch: sb.epoch,
                state_addrs,
            }),
            usage: Mutex::new(usage),
        };
        Ok(Mounted {
            log,
            payload,
            batches: upper_batches,
            superblock: sb,
            torn_batches,
        })
    }

    /// Device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The block cache (exposed for cold-cache experiments).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Consumes the log, returning the underlying device (used by crash
    /// tests to remount).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Appends one block (at most [`BLOCK_SIZE`] bytes; shorter payloads
    /// are zero-padded) and returns its assigned address. The block is
    /// buffered until the next [`Log::flush`] but is immediately readable
    /// through [`Log::read_block`]. The first payload of a batch within
    /// `carried_limit` is carried by the batch's summary block instead
    /// of taking a slot, and its address says so
    /// ([`BlockAddr::is_carried`]); it reads back zero-padded all the same.
    pub fn append(&self, tag: BlockTag, data: &[u8]) -> Result<BlockAddr> {
        let mut st = self.state.lock();
        self.append_locked(&mut st, tag, data)
    }

    fn append_locked(&self, st: &mut WriterState, tag: BlockTag, data: &[u8]) -> Result<BlockAddr> {
        if data.len() > BLOCK_SIZE {
            return Err(LfsError::Oversize(data.len()));
        }
        // A payload the open batch's summary can carry needs no slot.
        // Anything else does: flush implicitly if the open batch hit the
        // summary-entry limit or the end of the segment.
        let carriable = carried_limit(self.geo.blocks_per_segment).is_some_and(|l| data.len() <= l);
        if st.batch_start.is_some()
            && !(carriable && st.carried.is_none())
            && (st.pending.len() >= MAX_ENTRIES || st.cursor >= self.geo.blocks_per_segment)
        {
            self.flush_locked(st)?;
        }
        let batch_start = *st.batch_start.get_or_insert_with(|| {
            // The post-flush invariant guarantees room for summary + one
            // block in the active segment.
            debug_assert!(st.cursor + 2 <= self.geo.blocks_per_segment);
            st.cursor += 1;
            st.cursor - 1
        });
        let idx = st.pending.len();
        let carry = carriable && st.carried.is_none();
        let addr = if carry {
            BlockAddr::carried_by(self.geo.addr_of(st.seg, batch_start))
        } else {
            st.cursor += 1;
            self.geo.addr_of(st.seg, st.cursor - 1)
        };
        let block = PendingBlock {
            addr,
            tag,
            data: padded(data),
        };
        if carry {
            st.carried = Some(PendingRecord {
                block,
                len: data.len(),
                pos: idx as u16,
            });
        } else {
            st.pending.push(block);
            st.pending_map.insert(addr, idx);
        }
        // Counted live from now, not from the flush: a release may come
        // first, and must find the count it takes back. (A carried
        // record's count is its summary block's.)
        self.usage.lock().add_live(st.seg, 1);
        Ok(addr)
    }

    /// Flushes the open batch: one sequential write of the summary block
    /// followed by the data blocks. Seals the segment (allocating the next
    /// one) if fewer than two blocks would remain.
    pub fn flush(&self) -> Result<FlushStats> {
        let mut st = self.state.lock();
        self.flush_locked(&mut st)
    }

    fn flush_locked(&self, st: &mut WriterState) -> Result<FlushStats> {
        let Some(batch_start) = st.batch_start else {
            return Ok(FlushStats::default());
        };
        let n = st.pending.len() as u32;
        debug_assert!(
            n > 0 || st.carried.is_some(),
            "an open batch holds something"
        );
        let seg = st.seg;

        // Seal if the remainder cannot host summary + one block.
        let after = batch_start + 1 + n;
        let remaining = self.geo.blocks_per_segment - after;
        let (next_segment, sealed) = if remaining < 2 {
            let next = self.usage.lock().allocate()?;
            (next, true)
        } else {
            (NO_NEXT_SEGMENT, false)
        };

        // Lay the batch out as `[summary | data]` and commit it with one
        // transfer; the summary's checksum of the data is what lets
        // recovery tell a complete commit from a torn one (the record the
        // summary carries is under the summary's own CRC). Device time
        // spent inside the flush is also charged to the Lfs span layer,
        // so per-request latency decomposes segment-write cost out of
        // total disk cost.
        let mut buf = Vec::with_capacity((1 + st.pending.len()) * BLOCK_SIZE);
        buf.resize(BLOCK_SIZE, 0);
        for p in &st.pending {
            buf.extend_from_slice(&p.data);
        }
        let summary = Summary {
            epoch: st.next_epoch,
            segment: seg,
            offset: batch_start,
            next_segment,
            data_checksum: xxh64(&buf[BLOCK_SIZE..]),
            entries: st
                .pending
                .iter()
                .map(|p| SummaryEntry { tag: p.tag })
                .collect(),
            carried: st.carried.as_ref().map(|r| Carried {
                tag: r.block.tag,
                pos: r.pos,
                data: r.block.data[..r.len].to_vec(),
            }),
        };
        buf[..BLOCK_SIZE].copy_from_slice(&summary.encode());
        let disk_before = s4_obs::span::charged(s4_obs::span::Layer::Disk);
        let sum_addr = self.geo.addr_of(seg, batch_start);
        self.dev.write(self.geo.sector_of(sum_addr), &buf)?;
        s4_obs::span::charge(
            s4_obs::span::Layer::Lfs,
            s4_obs::span::charged(s4_obs::span::Layer::Disk) - disk_before,
        );

        // Account (every block was counted live as it was appended) and
        // cache.
        self.usage.lock().note_append(seg, n + 1);
        let carried = st.carried.take().map(|r| r.block);
        for p in st.pending.drain(..).chain(carried) {
            self.cache.insert(p.addr, p.data);
        }
        st.pending_map.clear();
        st.batch_start = None;
        st.next_epoch += 1;
        if sealed {
            st.seg = next_segment;
            st.cursor = 0;
        } else {
            st.cursor = after;
        }
        Ok(FlushStats {
            blocks_written: n + 1,
            sealed,
        })
    }

    /// Reads one block, consulting the open batch, then the cache, then
    /// the device.
    pub fn read_block(&self, addr: BlockAddr) -> Result<Bytes> {
        self.geo.check(addr)?;
        let frontier = {
            let st = self.state.lock();
            if let Some(&idx) = st.pending_map.get(&addr) {
                return Ok(st.pending[idx].data.clone());
            }
            if let Some(r) = st.carried.as_ref().filter(|r| r.block.addr == addr) {
                return Ok(r.block.data.clone());
            }
            // The first slot not on the device: the open batch's summary
            // slot, or the cursor.
            self.geo
                .addr_of(st.seg, st.batch_start.unwrap_or(st.cursor))
        };
        if let Some(hit) = self.cache.get(addr) {
            return Ok(hit);
        }
        // Readahead: fetch an aligned run (clamped to the segment and to
        // the write frontier) in one transfer and cache every block of
        // it. A summary block in the run is cached as the record it
        // carries, under that record's address — nothing the log handed
        // out names a summary's slot. Past the frontier a slot holds
        // what the segment's previous life left there: only a stale
        // pointer names one, and it reads the slot alone, uncached.
        let (head, n) = self.geo.readahead_run(addr, self.readahead, frontier);
        let cache = n > 0;
        let (head, n) = if cache { (head, n) } else { (addr.slot(), 1) };
        let mut buf = vec![0u8; n as usize * BLOCK_SIZE];
        self.dev.read(self.geo.sector_of(head), &mut buf)?;
        let mut wanted = None;
        for (i, chunk) in buf.chunks_exact(BLOCK_SIZE).enumerate() {
            let slot = self.geo.nth_after(head, i as u32);
            let filed = match Summary::passing(&self.geo, slot, chunk) {
                None => Some((slot, Bytes::from(chunk))),
                Some(s) => s
                    .carried
                    .map(|c| (BlockAddr::carried_by(slot), padded(&c.data))),
            };
            if let Some((a, data)) = filed {
                if a == addr {
                    wanted = Some(data.clone());
                }
                if cache {
                    self.cache.insert(a, data);
                }
            }
            if slot == addr && wanted.is_none() {
                // A stale pointer at what is now a summary's slot reads
                // the slot, as a stale pointer always has.
                wanted = Some(Bytes::from(chunk));
            }
        }
        // A carried address finds nothing if its slot holds no record to
        // carry, or no summary at all.
        wanted.ok_or(LfsError::Corrupt("no carried record at address"))
    }

    /// The tag the block at `addr` was appended with — the open batch's,
    /// or what the summary of the flushed batch holding it records — or
    /// `None` when no batch of its segment's current life names it. A
    /// diagnostic: it walks the segment's summaries, a device read each.
    pub fn tag_of(&self, addr: BlockAddr) -> Result<Option<BlockTag>> {
        let seg = self.geo.segment_of(self.geo.check(addr)?);
        let frontier = {
            let st = self.state.lock();
            let carried = st.carried.as_ref().map(|r| &r.block);
            if let Some(p) = st.pending.iter().chain(carried).find(|p| p.addr == addr) {
                return Ok(Some(p.tag));
            }
            let open = (seg == st.seg).then(|| st.batch_start.unwrap_or(st.cursor));
            open.unwrap_or(self.geo.blocks_per_segment)
        };
        let (mut block, mut p) = (vec![0u8; BLOCK_SIZE], 0);
        while p < frontier {
            let at = self.geo.addr_of(seg, p);
            self.dev.read(self.geo.sector_of(at), &mut block)?;
            let Some(s) = Summary::passing(&self.geo, at, &block) else {
                break;
            };
            let zeros = vec![0; s.entries.len() * BLOCK_SIZE];
            if let Some(&(_, tag, _)) = s.blocks(&self.geo, &zeros).iter().find(|b| b.0 == addr) {
                return Ok(Some(tag));
            }
            p += 1 + s.entries.len() as u32;
        }
        Ok(None)
    }

    /// Reads `n` contiguous blocks starting at `head` in one device
    /// transfer, bypassing the cache (used by the cleaner, whose large
    /// sequential reads the paper's Figure 5 cost model depends on).
    pub(crate) fn read_blocks_raw(&self, head: BlockAddr, n: u32) -> Result<Vec<u8>> {
        self.flush()?;
        self.geo.check_run(head, n)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut buf = vec![0u8; n as usize * BLOCK_SIZE];
        self.dev.read(self.geo.sector_of(head), &mut buf)?;
        Ok(buf)
    }

    /// Writes a new anchor: flushes, appends `payload` plus the usage
    /// table as system-state blocks, and commits a new superblock whose
    /// roll-forward cursor covers the state batches themselves. Once the
    /// superblock is durable, segments reclaimed since the previous anchor
    /// become allocatable.
    pub fn write_anchor(
        &self,
        payload: &[u8],
        next_stamp_seq: u64,
        anchor_time_us: u64,
    ) -> Result<()> {
        let mut st = self.state.lock();
        self.flush_locked(&mut st)?;

        // Capture the pre-state cursor: recovery replays the state batches.
        let cursor_segment = st.seg;
        let cursor_block = st.cursor;
        let next_summary_epoch = st.next_epoch;
        let state_epoch_first = st.next_epoch;

        // Serialize payload + usage table (as of this instant; the state
        // batches themselves are replayed into the table at mount).
        let mut blob = Vec::with_capacity(4 + payload.len());
        push_bytes(&mut blob, payload);
        blob.extend_from_slice(&self.usage.lock().encode());

        let n_blocks = blob.len().div_ceil(BLOCK_SIZE).max(1) as u32;
        let mut new_state_addrs = Vec::with_capacity(n_blocks as usize);
        for i in 0..n_blocks {
            let lo = i as usize * BLOCK_SIZE;
            let hi = (lo + BLOCK_SIZE).min(blob.len());
            let addr = self.append_locked(
                &mut st,
                BlockTag::new(BlockKind::SystemState, 0, i as u64),
                &blob[lo..hi],
            )?;
            new_state_addrs.push(addr);
        }
        self.flush_locked(&mut st)?;
        let state_epoch_last = st.next_epoch - 1;

        // Release the previous anchor's state blocks and install the new.
        let old_state = std::mem::replace(&mut st.state_addrs, new_state_addrs);
        {
            let mut usage = self.usage.lock();
            for a in old_state {
                usage.release_blocks(self.geo.segment_of(a), 1);
            }
        }

        st.sb_epoch += 1;
        let sb = Superblock {
            epoch: st.sb_epoch,
            blocks_per_segment: self.geo.blocks_per_segment,
            num_segments: self.geo.num_segments,
            cursor_segment,
            cursor_block,
            next_summary_epoch,
            state_epoch_first,
            state_epoch_last,
            next_stamp_seq,
            anchor_time_us,
        };
        sb.write_to(&self.dev)?;

        // Anchor durable: reclaimed segments may now be reused.
        self.usage.lock().promote_pending_free();
        Ok(())
    }

    /// Decrements the live count of the segment holding each address
    /// (called when versions age out of the detection window or are
    /// administratively flushed).
    pub fn release_blocks<I: IntoIterator<Item = BlockAddr>>(&self, addrs: I) {
        let mut usage = self.usage.lock();
        for a in addrs {
            usage.release_blocks(self.geo.segment_of(a), 1);
        }
    }

    /// Moves every fully-dead segment (zero live blocks) to pending-free
    /// without copying; returns how many were reclaimed.
    pub fn free_dead_segments(&self) -> u32 {
        let exclude = self.protected_segments();
        let mut usage = self.usage.lock();
        let dead = usage.dead_segments(&exclude);
        for &seg in &dead {
            usage.free_segment(seg);
            self.cache.invalidate_segment(&self.geo, seg);
        }
        dead.len() as u32
    }

    /// Segments that must never be reclaimed: the active segment and the
    /// segments holding the current anchor state.
    pub(crate) fn protected_segments(&self) -> Vec<SegmentId> {
        let st = self.state.lock();
        let mut out = vec![st.seg];
        for a in &st.state_addrs {
            let seg = self.geo.segment_of(*a);
            if !out.contains(&seg) {
                out.push(seg);
            }
        }
        out
    }

    /// Snapshot of the usage table (for the cleaner and for utilization
    /// reporting).
    pub fn usage_snapshot(&self) -> SegmentUsageTable {
        self.usage.lock().clone()
    }

    /// Marks `seg` pending-free after the cleaner has relocated its live
    /// blocks.
    pub(crate) fn reclaim_segment(&self, seg: SegmentId) {
        let mut usage = self.usage.lock();
        // The cleaner has relocated everything; zero any residual count.
        let residual = usage.get(seg).live_blocks;
        if residual > 0 {
            usage.release_blocks(seg, residual);
        }
        usage.free_segment(seg);
        self.cache.invalidate_segment(&self.geo, seg);
    }

    /// Replaces every segment's live count with counts recomputed from an
    /// authoritative set of reachable block addresses. No live count is
    /// persisted, so after [`Log::mount`] this is their only source; the
    /// batches replayed from the log may include blocks — e.g. cleaner
    /// relocations or orphaned checkpoints — that the recovered object
    /// state no longer references. The current anchor's own state blocks
    /// stay counted: the next anchor releases them.
    pub fn rebuild_live_counts<I: IntoIterator<Item = BlockAddr>>(&self, live: I) {
        let st = self.state.lock();
        let mut usage = self.usage.lock();
        usage.zero_live();
        for a in live.into_iter().chain(st.state_addrs.iter().copied()) {
            usage.add_live(self.geo.segment_of(a), 1);
        }
    }

    /// Audits the usage table against the same recount
    /// [`Log::rebuild_live_counts`] would install — `live`, the upper
    /// layer's reachable addresses, plus the current anchor's state
    /// blocks — and returns every segment whose live count differs. A
    /// block is counted from its append, so the open batch needs no
    /// flush to be compared. Read-only.
    pub fn check_live_counts<I: IntoIterator<Item = BlockAddr>>(
        &self,
        live: I,
    ) -> Vec<SegmentMismatch> {
        let st = self.state.lock();
        let usage = self.usage.lock();
        let mut counts: Vec<(u32, u32)> = (0..usage.num_segments())
            .map(|seg| (usage.get(seg).live_blocks, 0))
            .collect();
        for a in live.into_iter().chain(st.state_addrs.iter().copied()) {
            counts[self.geo.segment_of(a) as usize].1 += 1;
        }
        let differing = counts.iter().enumerate().filter(|(_, (c, d))| c != d);
        differing
            .map(|(seg, &(counted, derived))| SegmentMismatch {
                segment: seg as SegmentId,
                counted,
                derived,
            })
            .collect()
    }

    /// Free segments remaining (excludes pending-free).
    pub fn free_segments(&self) -> u32 {
        self.usage.lock().free_segments()
    }

    /// Fraction of data-area blocks currently referenced.
    pub fn utilization(&self) -> f64 {
        self.usage.lock().utilization()
    }
}

/// `bytes` as a whole zero-padded block: what a reader of any address
/// gets, carried or not.
fn padded(bytes: &[u8]) -> Bytes {
    if bytes.len() == BLOCK_SIZE {
        return Bytes::from(bytes);
    }
    let mut block = vec![0u8; BLOCK_SIZE];
    block[..bytes.len()].copy_from_slice(bytes);
    Bytes::from(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_simdisk::{MemDisk, TraceDisk};

    const SMALL: LogConfig = LogConfig {
        blocks_per_segment: 16,
        cache_blocks: 64,
        readahead_blocks: 1,
    };

    fn small_log() -> Log<MemDisk> {
        Log::format(MemDisk::new(200_000), SMALL).unwrap()
    }

    fn tag(obj: u64, aux: u64) -> BlockTag {
        BlockTag::new(BlockKind::Data, obj, aux)
    }

    #[test]
    fn append_read_before_and_after_flush() {
        let log = small_log();
        let a = log.append(tag(1, 0), b"hello").unwrap();
        // Readable from the open batch.
        assert_eq!(&log.read_block(a).unwrap()[..5], b"hello");
        log.flush().unwrap();
        assert_eq!(&log.read_block(a).unwrap()[..5], b"hello");
        // And from a cold cache.
        log.cache().clear();
        assert_eq!(&log.read_block(a).unwrap()[..5], b"hello");
    }

    #[test]
    fn addresses_are_contiguous_within_a_batch() {
        let log = small_log();
        let a = log.append(tag(1, 0), &solid(1)).unwrap();
        let b = log.append(tag(1, 1), b"b").unwrap();
        let c = log.append(tag(1, 2), b"c").unwrap();
        // Address 0 of the first segment is the reserved summary slot,
        // which carries the batch's first short payload; the second takes
        // the next block.
        assert_eq!((a, c), (BlockAddr(1), BlockAddr(2)));
        assert_eq!(b, BlockAddr::carried_by(BlockAddr(0)));
    }

    #[test]
    fn segment_seals_and_log_continues() {
        let log = small_log();
        let mut last = BlockAddr(0);
        for i in 0..100u64 {
            last = log.append(tag(1, i), &i.to_le_bytes()).unwrap();
            if i % 3 == 0 {
                log.flush().unwrap();
            }
        }
        log.flush().unwrap();
        assert!(log.geometry().segment_of(last) >= 2);
        log.cache().clear();
        assert_eq!(&log.read_block(last).unwrap()[..8], &99u64.to_le_bytes());
    }

    #[test]
    fn flush_empty_is_noop() {
        let log = small_log();
        assert_eq!(log.flush().unwrap(), FlushStats::default());
    }

    #[test]
    fn mount_recovers_unanchored_batches() {
        let cfg = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        let log = Log::format(MemDisk::new(200_000), cfg).unwrap();
        let mut addrs = Vec::new();
        for i in 0..20u64 {
            addrs.push(log.append(tag(7, i), &i.to_le_bytes()).unwrap());
        }
        log.flush().unwrap();
        // No anchor written: recovery must roll forward from format.
        let dev = log.into_device();
        let Mounted {
            log: log2,
            payload,
            batches,
            ..
        } = Log::mount(dev, SMALL).unwrap();
        assert!(payload.is_empty());
        let recovered: Vec<(BlockAddr, BlockTag)> =
            batches.iter().flat_map(|b| b.blocks.clone()).collect();
        assert_eq!(recovered.len(), 20);
        assert_eq!(recovered[7].0, addrs[7]);
        assert_eq!(recovered[7].1, tag(7, 7));
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(
                &log2.read_block(*a).unwrap()[..8],
                &(i as u64).to_le_bytes()
            );
        }
    }

    #[test]
    fn anchor_then_mount_restores_payload_and_skips_prior_batches() {
        let cfg = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        let log = Log::format(MemDisk::new(200_000), cfg).unwrap();
        for i in 0..10u64 {
            log.append(tag(1, i), &i.to_le_bytes()).unwrap();
        }
        log.flush().unwrap();
        log.write_anchor(b"OBJECT-MAP-STATE", 555, 42).unwrap();
        // Post-anchor writes.
        let post = log.append(tag(2, 99), b"post").unwrap();
        log.flush().unwrap();

        let dev = log.into_device();
        let Mounted {
            log: log2,
            payload,
            batches,
            superblock: sb,
            ..
        } = Log::mount(dev, SMALL).unwrap();
        assert_eq!(payload, b"OBJECT-MAP-STATE");
        assert_eq!(sb.next_stamp_seq, 555);
        assert_eq!(sb.anchor_time_us, 42);
        // Only the post-anchor data batch is delivered to the upper layer.
        let objs: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.blocks.iter().map(|(_, t)| t.object))
            .collect();
        assert_eq!(objs, vec![2]);
        assert_eq!(&log2.read_block(post).unwrap()[..4], b"post");
    }

    #[test]
    fn large_anchor_payload_spans_batches() {
        let cfg = LogConfig {
            blocks_per_segment: 8, // tiny segments force multi-batch state
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        let log = Log::format(MemDisk::new(400_000), cfg).unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        log.write_anchor(&payload, 9, 9).unwrap();
        let dev = log.into_device();
        let Mounted {
            payload: restored,
            batches,
            ..
        } = Log::mount(dev, SMALL).unwrap();
        assert_eq!(restored, payload);
        assert!(batches.is_empty());
    }

    /// The `aux` tag of every recovered block, in log order.
    fn recovered_aux<D: BlockDev>(m: &Mounted<D>) -> Vec<u64> {
        m.batches
            .iter()
            .flat_map(|b| b.blocks.iter().map(|(_, t)| t.aux))
            .collect()
    }

    /// A block whose every sector differs from a formatted disk's zeros,
    /// so no torn sector can pass for a written one.
    fn solid(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    #[test]
    fn torn_commit_recovers_to_previous_batch_under_every_pattern() {
        use s4_simdisk::{FaultPlan, FaultyDisk, RequestClassMask, TornPattern};
        const SUMMARY_SECTORS: u64 = (BLOCK_SIZE / s4_simdisk::SECTOR_SIZE) as u64;
        // The torn commit is `[summary + carried record | 3 data blocks]`:
        // 32 sectors, each of which is also lost alone.
        let each_sector =
            (0..4 * SUMMARY_SECTORS).map(|start| TornPattern::Holed { start, len: 1 });
        let patterns = [
            TornPattern::Prefix(0),
            TornPattern::Prefix(4),
            TornPattern::Interleaved { phase: 0 },
            TornPattern::Interleaved { phase: 1 },
            TornPattern::Holed { start: 1, len: 2 },
            // The whole summary persists; data is missing.
            TornPattern::Prefix(SUMMARY_SECTORS),
            TornPattern::Prefix(SUMMARY_SECTORS + 1),
            TornPattern::Prefix(4 * SUMMARY_SECTORS - 1),
            TornPattern::Holed {
                start: SUMMARY_SECTORS,
                len: 1,
            },
            TornPattern::Holed {
                start: 2 * SUMMARY_SECTORS + 3,
                len: 1,
            },
            TornPattern::Holed {
                start: 4 * SUMMARY_SECTORS - 1,
                len: 1,
            },
        ];
        let cfg = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        for torn in patterns.into_iter().chain(each_sector) {
            let log = Log::format(MemDisk::new(200_000), cfg).unwrap();
            let a = log.append(tag(1, 0), &solid(0xD0)).unwrap();
            log.flush().unwrap();
            // Stale bytes where the commit will land (a reused segment),
            // so that every sector it loses differs from what it meant to
            // write — a summary is mostly zeros past its entries.
            let geo = *log.geometry();
            let dev = log.into_device();
            dev.write(
                geo.sector_of(BlockAddr(a.0 + 1)),
                &vec![0xEE; 4 * BLOCK_SIZE],
            )
            .unwrap();
            let plan = FaultPlan::power_loss_with_pattern(0, torn, RequestClassMask::WRITES);
            let dev = FaultyDisk::new(dev, plan);
            let log = Log::mount(dev, SMALL).unwrap().log;
            // The record fills the summary block, so no sector of it is
            // left as the zeros a summary is mostly made of.
            let record = vec![0xCA; carried_limit(16).unwrap()];
            let carried = log.append(tag(1, 4), &record).unwrap();
            assert!(carried.is_carried());
            for i in 1..=3u64 {
                log.append(tag(1, i), &solid(i as u8)).unwrap();
            }
            assert!(log.flush().is_err(), "{torn:?}: the commit tears");
            let dev = log.into_device();
            dev.revive();

            // Mount stops at the previous batch; a data mismatch is
            // reported only when the summary itself survived.
            let summary_survived = (0..SUMMARY_SECTORS).all(|i| torn.keeps(i));
            let first = Log::mount(dev, SMALL).unwrap();
            assert_eq!(recovered_aux(&first), vec![0], "{torn:?}");
            assert_eq!(first.torn_batches, summary_survived as usize, "{torn:?}");
            assert_eq!(&first.log.read_block(a).unwrap()[..], &solid(0xD0)[..]);
            // Nothing recovered points at the torn commit's record; its
            // address reads like any address past the log's end — what
            // the device holds there.
            if summary_survived {
                reads_as(&first.log, carried, &record);
            }

            // A second mount of the untouched image is identical.
            let second = Log::mount(first.log.into_device(), SMALL).unwrap();
            assert_eq!(recovered_aux(&second), vec![0], "{torn:?}");
            assert_eq!(second.torn_batches, first.torn_batches, "{torn:?}");

            // The log takes new appends at the recovered cursor, over the
            // torn commit's remains.
            let log = second.log;
            let b = log.append(tag(1, 9), &solid(9)).unwrap();
            assert_eq!(b.0, a.0 + 2, "{torn:?}: cursor sits after batch one");
            log.flush().unwrap();
            let third = Log::mount(log.into_device(), SMALL).unwrap();
            assert_eq!(recovered_aux(&third), vec![0, 9], "{torn:?}");
            assert_eq!(third.torn_batches, 0, "{torn:?}");
            assert_eq!(&third.log.read_block(b).unwrap()[..], &solid(9)[..]);
        }
    }

    /// A short payload: whatever a summary of [`SMALL`]'s geometry carries.
    fn short(fill: u8) -> Vec<u8> {
        vec![fill; 300]
    }

    fn reads_as(log: &Log<impl BlockDev>, addr: BlockAddr, payload: &[u8]) {
        let block = log.read_block(addr).unwrap();
        assert_eq!(block.len(), BLOCK_SIZE, "readers get whole blocks");
        assert_eq!(&block[..payload.len()], payload);
        assert!(
            block[payload.len()..].iter().all(|&b| b == 0),
            "zero-padded"
        );
    }

    #[test]
    fn a_carried_record_reads_back_open_cached_and_cold() {
        for readahead_blocks in [1, 32] {
            let cfg = LogConfig {
                readahead_blocks,
                ..SMALL
            };
            let dev = TraceDisk::new(MemDisk::new(200_000));
            let trace = dev.handle();
            let log = Log::format(dev, cfg).unwrap();
            // Two neighbouring commits, `[summary + record | data]` each.
            let commit = |fill: u8| {
                let data = log.append(tag(1, fill as u64), &solid(fill)).unwrap();
                let record = log.append(tag(2, fill as u64), &short(fill)).unwrap();
                assert!(record.is_carried() && !data.is_carried());
                reads_as(&log, record, &short(fill)); // from the open batch
                let stats = log.flush().unwrap();
                assert_eq!(stats.blocks_written, 2, "summary and data");
                (data, record)
            };
            let (d1, r1) = commit(0x11);
            let (d2, r2) = commit(0x22);
            assert_eq!(r1.slot(), BlockAddr(0));
            assert_eq!(
                (d1, r2.slot(), d2),
                (BlockAddr(1), BlockAddr(2), BlockAddr(3))
            );
            trace.clear();
            reads_as(&log, r1, &short(0x11)); // from the cache
            reads_as(&log, r2, &short(0x22));
            assert_eq!(trace.reads(), 0);

            log.cache().clear();
            reads_as(&log, r1, &short(0x11));
            reads_as(&log, r2, &short(0x22));
            reads_as(&log, d2, &solid(0x22));
            let read: Vec<usize> = trace.records().iter().map(|r| r.len).collect();
            if readahead_blocks == 1 {
                assert_eq!(read, [BLOCK_SIZE; 3], "a block each");
            } else {
                // One run — the segment up to the write frontier, the
                // two commits' four slots — serves both records and
                // their neighbour.
                assert_eq!(read, [4 * BLOCK_SIZE]);
            }
            reads_as(&log, r1, &short(0x11)); // filed by the cold read
            assert_eq!(trace.reads(), read.len() as u64);
            // A stale pointer at the summary's own slot reads the slot.
            let raw = log.read_block(r2.slot()).unwrap();
            assert_eq!(Summary::decode(&raw).unwrap().offset, 2);

            // And from a mount, which files what it replays.
            let m = Log::mount(log.into_device(), cfg).unwrap();
            trace.clear();
            reads_as(&m.log, r2, &short(0x22));
            assert_eq!(trace.reads(), 0);
        }
    }

    #[test]
    fn two_short_blocks_of_one_batch_mount_in_append_order() {
        let log = small_log();
        let journal = |n| BlockTag::new(BlockKind::JournalSector, n, 1);
        let appended = [
            (log.append(tag(1, 0), &solid(1)).unwrap(), tag(1, 0)),
            (log.append(journal(7), &short(7)).unwrap(), journal(7)),
            (log.append(journal(8), &short(8)).unwrap(), journal(8)),
            (log.append(tag(1, 1), &solid(2)).unwrap(), tag(1, 1)),
        ];
        assert!(appended[1].0.is_carried(), "the first short block rides");
        assert!(!appended[2].0.is_carried(), "the second takes a block");
        assert_eq!(log.flush().unwrap().blocks_written, 4);
        let m = Log::mount(log.into_device(), SMALL).unwrap();
        assert_eq!(m.batches.len(), 1);
        assert_eq!(m.batches[0].blocks, appended);
        reads_as(&m.log, appended[1].0, &short(7));
        reads_as(&m.log, appended[2].0, &short(8));
        assert_eq!(m.log.usage_snapshot().get(0).written_blocks, 4);
        // The recount counts both: three blocks and the summary that
        // carries one.
        assert_eq!(m.log.usage_snapshot().get(0).live_blocks, 0);
        m.log.rebuild_live_counts(appended.map(|(a, _)| a));
        assert_eq!(m.log.usage_snapshot().get(0).live_blocks, 4);
    }

    #[test]
    fn a_batch_of_one_carried_record_commits_seals_and_mounts() {
        let log = small_log();
        // Fifteen one-block commits fill a 16-block segment: the last
        // leaves no room for a summary and a block, and seals it.
        let addrs: Vec<BlockAddr> = (0..40u64)
            .map(|i| {
                let a = log.append(tag(5, i), &short(i as u8 + 1)).unwrap();
                assert!(a.is_carried());
                let stats = log.flush().unwrap();
                assert_eq!(stats.blocks_written, 1, "the summary alone");
                assert_eq!(stats.sealed, i % 15 == 14, "commit {i}");
                a
            })
            .collect();
        assert_eq!(log.geometry().segment_of(addrs[39]), 2);
        assert_eq!(log.usage_snapshot().get(0).live_blocks, 15);
        let m = Log::mount(log.into_device(), SMALL).unwrap();
        assert_eq!(m.batches.len(), 40);
        assert_eq!(recovered_aux(&m), (0..40).collect::<Vec<u64>>());
        m.log.rebuild_live_counts(addrs.iter().copied());
        assert_eq!(m.log.usage_snapshot().get(0).live_blocks, 15);
        m.log.cache().clear();
        for (i, a) in addrs.iter().enumerate() {
            reads_as(&m.log, *a, &short(i as u8 + 1));
        }
        // Released, the summary blocks are dead and so is the segment.
        m.log.release_blocks(addrs[..15].iter().copied());
        assert_eq!(m.log.free_dead_segments(), 1);
    }

    /// A batch that has reached the end of its segment is cut there when
    /// the next payload needs a slot — not when its summary can carry it:
    /// `[Write 4 KiB, Sync]` is one device write wherever it falls.
    #[test]
    fn a_record_the_summary_can_carry_never_cuts_a_batch_at_the_segment_end() {
        let dev = TraceDisk::new(MemDisk::new(200_000));
        let trace = dev.handle();
        let log = Log::format(dev, SMALL).unwrap();
        // Seven two-block commits leave exactly two blocks of segment 0.
        for i in 0..7u64 {
            log.append(tag(1, i), &solid(i as u8 + 1)).unwrap();
            log.append(tag(2, i), &short(i as u8 + 1)).unwrap();
            assert!(!log.flush().unwrap().sealed);
        }
        trace.clear();
        let data = log.append(tag(1, 7), &solid(8)).unwrap();
        assert_eq!(data, BlockAddr(15), "the segment's last block");
        let record = log.append(tag(2, 7), &short(8)).unwrap();
        assert_eq!(record, BlockAddr::carried_by(BlockAddr(14)));
        assert_eq!(trace.writes(), 0, "nothing cut the batch");
        assert!(log.flush().unwrap().sealed);
        assert_eq!(trace.writes(), 1);
        // A second short payload needs a slot, and there the cut stays.
        for i in 8..15u64 {
            log.append(tag(1, i), &solid(i as u8 + 1)).unwrap();
            log.append(tag(2, i), &short(i as u8 + 1)).unwrap();
            log.flush().unwrap();
        }
        trace.clear();
        log.append(tag(1, 15), &solid(16)).unwrap();
        log.append(tag(2, 15), &short(16)).unwrap();
        let third = log.append(tag(2, 16), &short(17)).unwrap();
        assert_eq!(trace.writes(), 1, "the full batch went out first");
        assert_eq!(third, BlockAddr::carried_by(BlockAddr(32)));
        let m = Log::mount(log.into_device(), SMALL).unwrap();
        assert_eq!(m.batches.len(), 16, "the open batch was never flushed");
        reads_as(&m.log, record, &short(8));
    }

    #[test]
    fn a_payload_one_byte_over_the_limit_takes_a_block() {
        for (bps, limit) in [(16, 3763), (128, 1859)] {
            let cfg = LogConfig {
                blocks_per_segment: bps,
                ..SMALL
            };
            let log = Log::format(MemDisk::new(400_000), cfg).unwrap();
            let over = log.append(tag(1, 0), &vec![1; limit + 1]).unwrap();
            let at = log.append(tag(1, 1), &vec![2; limit]).unwrap();
            let under = log.append(tag(1, 2), &vec![3; limit - 1]).unwrap();
            assert_eq!(over, BlockAddr(1), "{bps}: too long to carry");
            assert_eq!(at, BlockAddr::carried_by(BlockAddr(0)), "{bps}");
            assert_eq!(under, BlockAddr(2), "{bps}: one record a summary");
            // The summary holds the longest record beside the tags of as
            // many entries as the segment has room for.
            for i in 3..bps as u64 {
                log.append(tag(1, i), &solid(i as u8)).unwrap();
            }
            assert!(log.flush().unwrap().sealed);
            log.cache().clear();
            reads_as(&log, at, &vec![2; limit]);
            reads_as(&log, over, &vec![1; limit + 1]);
        }
        // Where a full segment's tags leave no room, nothing is carried.
        let cfg = LogConfig {
            blocks_per_segment: 238,
            ..SMALL
        };
        let log = Log::format(MemDisk::new(400_000), cfg).unwrap();
        assert_eq!(log.append(tag(1, 0), b"").unwrap(), BlockAddr(1));
    }

    /// Flips one bit of the block at `addr`, behind the log's back.
    fn flip_bit(dev: &MemDisk, geo: &Geometry, addr: BlockAddr) {
        let mut block = vec![0u8; BLOCK_SIZE];
        dev.read(geo.sector_of(addr), &mut block).unwrap();
        block[BLOCK_SIZE / 2] ^= 0x04;
        dev.write(geo.sector_of(addr), &block).unwrap();
    }

    #[test]
    fn bit_flip_in_last_batch_data_is_rejected() {
        let log = small_log();
        log.append(tag(1, 0), &solid(1)).unwrap();
        log.flush().unwrap();
        log.append(tag(1, 1), &solid(2)).unwrap();
        let last = log.append(tag(1, 2), &solid(3)).unwrap();
        log.flush().unwrap();
        let geo = *log.geometry();
        let dev = log.into_device();
        flip_bit(&dev, &geo, last);
        let m = Log::mount(dev, SMALL).unwrap();
        assert_eq!(
            recovered_aux(&m),
            vec![0],
            "the damaged batch is dropped whole"
        );
        assert_eq!(m.torn_batches, 1);
    }

    #[test]
    fn bit_flip_in_anchored_state_batch_is_an_error() {
        let log = small_log();
        log.append(tag(1, 0), b"x").unwrap();
        log.write_anchor(b"OBJECT-MAP-STATE", 1, 1).unwrap();
        let state = log.state.lock().state_addrs[0];
        let geo = *log.geometry();
        let dev = log.into_device();
        flip_bit(&dev, &geo, state);
        assert_eq!(
            Log::mount(dev, SMALL).err(),
            Some(LfsError::Corrupt("anchor state checksum")),
            "an anchored batch is never silently truncated"
        );
    }

    /// The anchor's own state blocks are live until the next anchor
    /// releases them, so mount's recount must go on counting them: a
    /// count that leaves them out sinks one lower at every remount, until
    /// the cleaner frees a segment that still holds a referenced block.
    #[test]
    fn a_recount_at_mount_keeps_the_anchor_state_blocks_counted() {
        let log = small_log();
        let a = log.append(tag(1, 0), b"x").unwrap();
        log.write_anchor(b"OBJECT-MAP-STATE", 1, 1).unwrap();
        let log = Log::mount(log.into_device(), SMALL).unwrap().log;
        log.rebuild_live_counts([a]);
        log.write_anchor(b"OBJECT-MAP-STATE", 2, 2).unwrap();
        let usage = log.usage_snapshot();
        let counted: u32 = (0..usage.num_segments())
            .map(|s| usage.get(s).live_blocks)
            .sum();
        let state = log.state.lock().state_addrs.len() as u32;
        assert_eq!(counted, 1 + state, "`a` and the current anchor's state");
    }

    #[test]
    fn device_error_during_mount_fails_it() {
        use s4_simdisk::{FaultPlan, FaultyDisk, RequestClassMask};
        let log = small_log();
        log.append(tag(1, 0), b"x").unwrap();
        log.write_anchor(b"S", 1, 1).unwrap();
        let image = log.into_device();
        // Both superblock copies and the one segment tail, failed in turn:
        // none may pass for a torn copy or the end of the log.
        for r in 0..3 {
            let plan = FaultPlan::power_loss_after_requests(r, RequestClassMask::READS);
            let dev = FaultyDisk::new(image.clone(), plan);
            assert!(
                matches!(Log::mount(dev, SMALL).err(), Some(LfsError::Disk(_))),
                "read {r}"
            );
        }
    }

    #[test]
    fn roll_forward_reads_each_segment_tail_once_and_warms_the_cache() {
        use s4_simdisk::TraceDisk;
        let cfg = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        let dev = TraceDisk::new(MemDisk::new(200_000));
        let trace = dev.handle();
        let log = Log::format(dev, cfg).unwrap();
        // Twenty single-block batches: two sealed segments and a partial.
        let addrs: Vec<BlockAddr> = (0..20u64)
            .map(|i| {
                let a = log.append(tag(7, i), &solid(i as u8 + 1)).unwrap();
                log.flush().unwrap();
                a
            })
            .collect();
        let segments = log.geometry().segment_of(*addrs.last().unwrap()) + 1;
        trace.clear();
        let m = Log::mount(log.into_device(), SMALL).unwrap();
        assert_eq!(m.batches.len(), 20);
        // Two superblock copies plus one transfer per segment.
        assert_eq!(trace.reads(), 2 + segments as u64);
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(m.log.read_block(*a).unwrap()[0], i as u8 + 1);
        }
        assert_eq!(
            trace.reads(),
            2 + segments as u64,
            "replay reads hit the cache"
        );
        assert_eq!(trace.writes(), 0, "mount is write-free");
    }

    /// Readahead in the open segment stops at the log's write frontier:
    /// the slots past it hold whatever the segment's previous life left
    /// there, and a cached copy of one would be served for the block the
    /// log writes there next, unless that flush happened to overwrite the
    /// entry. The frontier is the cursor with no batch open, and the open
    /// batch's summary slot with one.
    #[test]
    fn readahead_in_the_open_segment_stops_at_the_write_frontier() {
        let cfg = LogConfig {
            readahead_blocks: 16,
            ..SMALL
        };
        let log = Log::format(MemDisk::new(200_000), cfg).unwrap();
        let geo = *log.geometry();
        // `[summary | a]` at slots 0 and 1: the cursor is at slot 2.
        let a = log.append(tag(1, 0), &solid(1)).unwrap();
        log.flush().unwrap();
        let seg = geo.segment_of(a);
        let stale = |off: u32| geo.addr_of(seg, off);
        for off in 2..16 {
            log.device()
                .write(geo.sector_of(stale(off)), &solid(0xEE))
                .unwrap();
        }
        for open in [false, true] {
            if open {
                // Summary slot 2, the block at slot 3, both unwritten.
                log.append(tag(1, 1), &solid(2)).unwrap();
            }
            log.cache().clear();
            assert_eq!(log.read_block(a).unwrap()[0], 1);
            for off in 2..16 {
                assert!(
                    log.cache().get(stale(off)).is_none(),
                    "slot {off} cached past the frontier (batch open: {open})"
                );
            }
        }
    }

    #[test]
    fn usage_tracks_appends_and_releases() {
        let log = small_log();
        let a = log.append(tag(1, 0), b"x").unwrap();
        let _b = log.append(tag(1, 1), b"y").unwrap();
        log.flush().unwrap();
        let seg = log.geometry().segment_of(a);
        let u = log.usage_snapshot();
        assert_eq!(u.get(seg).live_blocks, 2);
        // `y` and the summary, which is live for carrying `x`.
        assert_eq!(u.get(seg).written_blocks, 2);
        assert!(a.is_carried());
        log.release_blocks([a]);
        assert_eq!(log.usage_snapshot().get(seg).live_blocks, 1);
    }

    /// A block can be released before the flush that writes it (a
    /// checkpoint superseded within one expiry pass). Counted only at the
    /// flush, its release found nothing to take back in a fresh segment —
    /// the count saturates at zero — and the flush then counted it live
    /// for good: `check_live_counts` found segment 36 one over on
    /// `image_determinism`'s seed 4 at step 398.
    #[test]
    fn a_block_released_before_its_flush_is_not_counted_by_it() {
        let log = small_log();
        let a = log.append(tag(1, 0), &solid(1)).unwrap();
        let b = log.append(tag(1, 1), &solid(2)).unwrap();
        assert_eq!(log.check_live_counts([a, b]), []);
        log.release_blocks([a]);
        assert_eq!(log.check_live_counts([b]), []);
        log.flush().unwrap();
        assert_eq!(log.usage_snapshot().get(0).live_blocks, 1);
        assert_eq!(log.check_live_counts([b]), []);
        let off = log.check_live_counts([a, b]);
        assert_eq!(off.len(), 1);
        assert_eq!((off[0].segment, off[0].counted, off[0].derived), (0, 1, 2));
    }

    #[test]
    fn dead_segments_become_reusable_after_anchor() {
        let cfg = LogConfig {
            blocks_per_segment: 8,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        let log = Log::format(MemDisk::new(200_000), cfg).unwrap();
        let mut addrs = Vec::new();
        for i in 0..30u64 {
            addrs.push(log.append(tag(1, i), &i.to_le_bytes()).unwrap());
            log.flush().unwrap();
        }
        let before = log.free_segments();
        log.release_blocks(addrs.iter().copied());
        let freed = log.free_dead_segments();
        assert!(freed > 0);
        // Not yet allocatable: pending until the next anchor.
        assert_eq!(log.free_segments(), before);
        log.write_anchor(b"", 1, 1).unwrap();
        assert!(log.free_segments() > before);
    }

    #[test]
    fn oversize_append_rejected() {
        let log = small_log();
        assert!(matches!(
            log.append(tag(1, 0), &vec![0u8; BLOCK_SIZE + 1]),
            Err(LfsError::Oversize(_))
        ));
    }

    #[test]
    fn large_batch_autoflushes_and_survives() {
        let log = Log::format(
            MemDisk::new(2_000_000),
            LogConfig {
                blocks_per_segment: 128,
                cache_blocks: 16,
                readahead_blocks: 1,
            },
        )
        .unwrap();
        let addrs: Vec<BlockAddr> = (0..500u64)
            .map(|i| log.append(tag(3, i), &i.to_le_bytes()).unwrap())
            .collect();
        log.flush().unwrap();
        log.cache().clear();
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(&log.read_block(*a).unwrap()[..8], &(i as u64).to_le_bytes());
        }
    }

    /// A mounted log reads ahead what its configuration says: one cold
    /// block of a log mounted with readahead 1 is one block off the
    /// device (it was a 16-block run when mount hard-coded 32).
    #[test]
    fn mount_keeps_the_configured_readahead() {
        let log = small_log();
        let addrs: Vec<BlockAddr> = (0..8u64)
            .map(|i| log.append(tag(1, i), &i.to_le_bytes()).unwrap())
            .collect();
        log.flush().unwrap();
        let dev = TraceDisk::new(log.into_device());
        let trace = dev.handle();
        let log = Log::mount(dev, SMALL).unwrap().log;
        // Mount leaves the batches it replayed in the cache.
        log.cache().clear();
        trace.clear();
        assert_eq!(&log.read_block(addrs[3]).unwrap()[..8], &3u64.to_le_bytes());
        let read: Vec<usize> = trace.records().iter().map(|r| r.len).collect();
        assert_eq!(read, [BLOCK_SIZE]);
    }

    #[test]
    fn second_anchor_releases_first_anchor_state() {
        let log = small_log();
        log.append(tag(1, 0), b"x").unwrap();
        log.write_anchor(b"A1", 1, 1).unwrap();
        log.write_anchor(b"A2-bigger-payload", 2, 2).unwrap();
        let dev = log.into_device();
        let payload = Log::mount(dev, SMALL).unwrap().payload;
        assert_eq!(payload, b"A2-bigger-payload");
    }

    #[test]
    fn repeated_crashless_remounts_are_stable() {
        let cfg = LogConfig {
            blocks_per_segment: 16,
            cache_blocks: 64,
            readahead_blocks: 1,
        };
        let mut dev = MemDisk::new(200_000);
        {
            let log = Log::format(dev, cfg).unwrap();
            log.append(tag(1, 1), b"v1").unwrap();
            log.write_anchor(b"S", 10, 10).unwrap();
            dev = log.into_device();
        }
        for round in 0..3u64 {
            let Mounted { log, payload, .. } = Log::mount(dev, SMALL).unwrap();
            assert_eq!(payload, b"S");
            log.append(tag(2, round), b"more").unwrap();
            log.flush().unwrap();
            dev = log.into_device();
        }
        let batches = Log::mount(dev, SMALL).unwrap().batches;
        // Three post-anchor data batches survive.
        let n: usize = batches
            .iter()
            .flat_map(|b| b.blocks.iter())
            .filter(|(_, t)| t.object == 2)
            .count();
        assert_eq!(n, 3);
    }
}

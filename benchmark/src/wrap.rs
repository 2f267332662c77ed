//! Bench-owned wrappers that observe each layer from outside, through
//! the same public traits the program composes itself with:
//! [`CountDisk`] / [`SpanDisk`] under the log (`BlockDev`),
//! [`SpanHandler`] between the TCP server and the array (`RpcHandler`),
//! [`SpanTransport`] between the NFS translator and the wire
//! (`Transport`). Counters always run; spans are recorded only while
//! [`crate::trace`] is enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use s4_clock::SimClock;
use s4_core::{Request, RequestContext, Response};
use s4_fs::server::FsResult;
use s4_fs::{RpcHandler, Transport};
use s4_simdisk::{BlockDev, DiskError};

use crate::trace;

/// Device-call counters shared between a wrapped disk (which the drive
/// consumes by value) and the benchmark.
#[derive(Clone, Default)]
pub struct DiskCounters(Arc<Cells>);

#[derive(Default)]
struct Cells {
    reads: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
}

/// A point-in-time copy of [`DiskCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCounts {
    pub reads: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub syncs: u64,
}

impl DiskCounters {
    pub fn snapshot(&self) -> DiskCounts {
        let c = &*self.0;
        DiskCounts {
            reads: c.reads.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
        }
    }
}

impl DiskCounts {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &DiskCounts) -> DiskCounts {
        DiskCounts {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
        }
    }

    /// Field-wise sum (devices of one array).
    pub fn plus(&self, other: &DiskCounts) -> DiskCounts {
        DiskCounts {
            reads: self.reads + other.reads,
            read_bytes: self.read_bytes + other.read_bytes,
            writes: self.writes + other.writes,
            write_bytes: self.write_bytes + other.write_bytes,
            syncs: self.syncs + other.syncs,
        }
    }
}

/// Counts successful device requests and the bytes they move. `peek`
/// is the simulator's cache hook, not device traffic, and is not
/// counted (as in `TraceDisk` and `TimedDisk`).
pub struct CountDisk<D: BlockDev> {
    inner: D,
    counters: DiskCounters,
}

impl<D: BlockDev> CountDisk<D> {
    pub fn new(inner: D) -> Self {
        CountDisk {
            inner,
            counters: DiskCounters::default(),
        }
    }

    /// Handle onto the counters; stays live after the disk moves into a
    /// drive.
    pub fn counters(&self) -> DiskCounters {
        self.counters.clone()
    }
}

impl<D: BlockDev> BlockDev for CountDisk<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.inner.read(sector, buf)?;
        self.counters.0.reads.fetch_add(1, Ordering::Relaxed);
        self.counters
            .0
            .read_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        self.inner.write(sector, buf)?;
        self.counters.0.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .0
            .write_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()?;
        self.counters.0.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn peek(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.inner.peek(sector, buf)
    }
}

/// A [`CountDisk`] that also records one span per device call, tagged
/// with device number `dev`. Calls made on a shard-worker thread cannot
/// be tied to a client request from outside the program; the device
/// number lets the summary apportion them in aggregate.
pub struct SpanDisk<D: BlockDev> {
    inner: CountDisk<D>,
    dev: u32,
}

impl<D: BlockDev> SpanDisk<D> {
    pub fn new(inner: D, dev: u32) -> Self {
        SpanDisk {
            inner: CountDisk::new(inner),
            dev,
        }
    }

    pub fn counters(&self) -> DiskCounters {
        self.inner.counters()
    }
}

impl<D: BlockDev> BlockDev for SpanDisk<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        trace::span("disk.read", 0, Some(self.dev), || {
            self.inner.read(sector, buf)
        })
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        trace::span("disk.write", 0, Some(self.dev), || {
            self.inner.write(sector, buf)
        })
    }

    fn sync(&self) -> Result<(), DiskError> {
        trace::span("disk.sync", 0, Some(self.dev), || self.inner.sync())
    }

    fn peek(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.inner.peek(sector, buf)
    }
}

/// Type-erased device, so every workload builds one drive type
/// whichever wrappers a pass stacks under it.
pub struct DynDisk(Box<dyn BlockDev>);

impl DynDisk {
    pub fn new(dev: impl BlockDev + 'static) -> Self {
        DynDisk(Box::new(dev))
    }
}

impl BlockDev for DynDisk {
    fn num_sectors(&self) -> u64 {
        self.0.num_sectors()
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.0.read(sector, buf)
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        self.0.write(sector, buf)
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.0.sync()
    }

    fn peek(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.0.peek(sector, buf)
    }
}

/// What the TCP server is given in place of the array: records a
/// `handle` span around each RPC that arrives, carrying the trace id the
/// client stamped.
pub struct SpanHandler<H: RpcHandler> {
    inner: Arc<H>,
}

impl<H: RpcHandler> SpanHandler<H> {
    pub fn new(inner: Arc<H>) -> Self {
        SpanHandler { inner }
    }
}

impl<H: RpcHandler> RpcHandler for SpanHandler<H> {
    fn handle(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        trace::span("handle", ctx.trace.trace_id, None, || {
            self.inner.handle(ctx, req)
        })
    }

    fn stats_text(&self) -> String {
        self.inner.stats_text()
    }

    fn reshard_text(&self) -> String {
        self.inner.reshard_text()
    }

    fn txn_text(&self) -> String {
        self.inner.txn_text()
    }
}

/// What the NFS translator is given in place of the bare transport:
/// counts RPCs and request bytes, and records an `rpc` span around each
/// call. While tracing, it stamps a fresh trace id on requests that
/// carry none, so the `handle` span at the far end can be joined to it.
pub struct SpanTransport<T: Transport> {
    inner: T,
    rpcs: AtomicU64,
    req_bytes: AtomicU64,
}

impl<T: Transport> SpanTransport<T> {
    pub fn new(inner: T) -> Self {
        SpanTransport {
            inner,
            rpcs: AtomicU64::new(0),
            req_bytes: AtomicU64::new(0),
        }
    }

    /// `(rpcs, request bytes)` sent so far. Bytes are the program's own
    /// `Request::wire_size()` estimate, which costs no encoding pass.
    pub fn sent(&self) -> (u64, u64) {
        (
            self.rpcs.load(Ordering::Relaxed),
            self.req_bytes.load(Ordering::Relaxed),
        )
    }
}

impl<T: Transport> Transport for SpanTransport<T> {
    fn call(&self, ctx: &RequestContext, req: &Request) -> FsResult<Response> {
        self.rpcs.fetch_add(1, Ordering::Relaxed);
        self.req_bytes
            .fetch_add(req.wire_size() as u64, Ordering::Relaxed);
        if !trace::enabled() {
            return self.inner.call(ctx, req);
        }
        let mut ctx = *ctx;
        if ctx.trace.trace_id == 0 {
            ctx.trace.trace_id = trace::fresh_trace_id();
        }
        trace::span("rpc", ctx.trace.trace_id, None, || {
            self.inner.call(&ctx, req)
        })
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_simdisk::{MemDisk, TraceClass, TraceDisk, SECTOR_SIZE};

    /// `CountDisk` over `TraceDisk`: both see the same request stream,
    /// so counts and bytes must agree with the trace record by record.
    #[test]
    fn count_disk_accounting_matches_trace_disk() {
        let traced = TraceDisk::new(MemDisk::new(4096));
        let trace = traced.handle();
        let counted = CountDisk::new(traced);
        let c = counted.counters();
        let before = c.snapshot();
        counted.write(0, &[1u8; SECTOR_SIZE * 8]).unwrap();
        counted.write(100, &[2u8; SECTOR_SIZE]).unwrap();
        counted.sync().unwrap();
        let mut buf = vec![0u8; SECTOR_SIZE * 3];
        counted.read(0, &mut buf).unwrap();
        let d = c.snapshot().since(&before);

        let recs = trace.records();
        let bytes_of = |class: TraceClass| -> u64 {
            recs.iter()
                .filter(|r| r.class == class)
                .map(|r| r.len as u64)
                .sum()
        };
        assert_eq!(d.writes, trace.writes());
        assert_eq!(d.reads, trace.reads());
        assert_eq!(d.syncs, trace.syncs());
        assert_eq!(d.write_bytes, bytes_of(TraceClass::Write));
        assert_eq!(d.read_bytes, bytes_of(TraceClass::Read));
        assert_eq!(
            d,
            DiskCounts {
                reads: 1,
                read_bytes: 3 * SECTOR_SIZE as u64,
                writes: 2,
                write_bytes: 9 * SECTOR_SIZE as u64,
                syncs: 1,
            }
        );
        assert_eq!(d.plus(&d).write_bytes, 18 * SECTOR_SIZE as u64);

        // Refused requests moved no bytes and are not counted; nor is the
        // simulator's cache hook.
        counted.peek(0, &mut buf).unwrap();
        assert!(counted.write(4095, &[0u8; SECTOR_SIZE * 2]).is_err());
        assert!(counted.read(0, &mut [0u8; 100]).is_err());
        assert_eq!(c.snapshot().since(&before), d);
    }

    /// The erased, span-recording stack passes requests through
    /// unchanged and keeps counting.
    #[test]
    fn span_disk_passes_through_and_counts() {
        let inner = SpanDisk::new(MemDisk::new(64), 2);
        let c = inner.counters();
        let disk = DynDisk::new(inner);
        disk.write(8, &[7u8; SECTOR_SIZE]).unwrap();
        let mut one = [0u8; SECTOR_SIZE];
        disk.read(8, &mut one).unwrap();
        disk.sync().unwrap();
        assert_eq!(one, [7u8; SECTOR_SIZE]);
        assert_eq!(disk.num_sectors(), 64);
        let d = c.snapshot();
        assert_eq!((d.writes, d.reads, d.syncs), (1, 1, 1));
    }
}

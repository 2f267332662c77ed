//! A real framed-TCP transport and server for the S4 RPC protocol.
//!
//! The paper's S4 drive is network-attached; benchmarks in this
//! reproduction use the in-process loopback transport (so time stays
//! simulated and deterministic), but the protocol also runs over real
//! sockets for deployments and the `nfs_server` example.
//!
//! Frame format, both directions: `u32-le length || payload`.
//! Request payload: `user:u32 || client:u32 || has_token:u8 (0 or 1) ||
//! token:u64 || trace_id:u64 || origin:u8 || phase:u8 ||
//! Request::encode()`, whose first byte is the request's tag: its
//! `OpKind` code, the byte its audit record carries (1–19), or
//! the batch tag 0x80 for a batch, whose sub-requests are
//! length-prefixed encodings of their own. Response payload:
//! `status:u8 || body` — status 0
//! and `Response::encode()` on success; on failure the status is the
//! kind of [`FsError`] the server's `S4Error` maps to (1 `Storage`,
//! 2 `NotFound`, 3 `Denied`; the pair of functions next to
//! `impl From<S4Error> for FsError` in [`crate::server`]) and the body
//! its utf8 text, so the client rebuilds the very error an in-process
//! transport would have returned and never parses the text. The trace
//! triple propagates the client's causal [`s4_core::TraceCtx`]; the
//! client transport mints a fresh trace id when the caller left it 0,
//! so every request entering over the wire is traceable end to end.
//!
//! Out-of-band frames: a request payload equal to one of the
//! `*_FRAME_MARKER`s (too short to be a valid RPC frame, so it cannot
//! collide) returns `0u8 || <text>` — `STATS_FRAME_MARKER` the
//! Prometheus text exposition, the others a one-line status. They are
//! unauthenticated by design: the texts carry aggregate operational
//! metrics only — no object contents, names, or per-principal data —
//! mirroring how real fleets scrape `/metrics`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use s4_clock::sync::Mutex;

use s4_clock::SimClock;
use s4_core::codec::Reader;
use s4_core::{Request, RequestContext, Response, S4Drive};
use s4_simdisk::BlockDev;

use crate::server::{FsError, FsResult};
use crate::transport::Transport;

/// Request payload that asks the server for its metrics exposition
/// instead of dispatching an RPC (9 bytes, shorter than the 27-byte
/// minimum RPC frame).
pub(crate) const STATS_FRAME_MARKER: &[u8] = b"__stats__";

/// Request payload that asks the server for its reshard status line
/// (progress of any live split) instead of dispatching an RPC. Like
/// the stats frame: too short to be a valid RPC frame, and carries no
/// object contents or per-principal data.
pub(crate) const RESHARD_FRAME_MARKER: &[u8] = b"__reshard__";

/// Request payload that asks the server for its cross-shard transaction
/// status line (commit/abort/recovery counters) instead of dispatching
/// an RPC. Same discipline as the other markers: shorter than any valid
/// RPC frame, no object contents or per-principal data.
pub(crate) const TXN_FRAME_MARKER: &[u8] = b"__txn__";

/// Anything that can sit behind the TCP server and execute S4 RPCs: a
/// single [`S4Drive`] or a sharded drive array (`s4-array`). The server
/// is generic over this trait so both deployments share the framing,
/// connection handling, and out-of-band stats plumbing.
pub trait RpcHandler: Send + Sync {
    /// Verifies, executes, and audits one request.
    fn handle(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response>;

    /// Prometheus text exposition served on the out-of-band stats frame.
    fn stats_text(&self) -> String;

    /// One-line reshard status served on the out-of-band reshard frame.
    /// Meaningful only for handlers that can split (the array); a lone
    /// drive reports that it has no shards to split.
    fn reshard_text(&self) -> String {
        "reshard unsupported".to_string()
    }

    /// One-line cross-shard transaction status served on the
    /// out-of-band txn frame. Meaningful only for handlers that
    /// coordinate multi-shard batches (the array); a lone drive has no
    /// shards to coordinate across.
    fn txn_text(&self) -> String {
        "txn unsupported".to_string()
    }
}

impl<D: BlockDev> RpcHandler for S4Drive<D> {
    fn handle(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        self.dispatch(ctx, req)
    }

    fn stats_text(&self) -> String {
        self.metrics_text()
    }
}

/// One out-of-band frame: the marker payload and the handler text it
/// is answered with.
type OobFrame<H> = (&'static [u8], fn(&H) -> String);

/// A response payload: `status || body`.
fn reply_frame(status: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(status);
    out.extend_from_slice(body);
    out
}

/// The response payload of a request that failed with `e`.
fn failure_frame(e: FsError) -> Vec<u8> {
    let (status, text) = e.to_wire();
    reply_frame(status, text.as_bytes())
}

fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > 64 << 20 {
        return Err(std::io::Error::other("oversized frame"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn encode_request_frame(ctx: &RequestContext, req: &Request) -> Vec<u8> {
    let body = req.encode();
    let mut out = Vec::with_capacity(27 + body.len());
    out.extend_from_slice(&ctx.user.0.to_le_bytes());
    out.extend_from_slice(&ctx.client.0.to_le_bytes());
    match ctx.admin_token {
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&t.to_le_bytes());
        }
        None => {
            out.push(0);
            out.extend_from_slice(&[0u8; 8]);
        }
    }
    out.extend_from_slice(&ctx.trace.trace_id.to_le_bytes());
    out.push(ctx.trace.origin);
    out.push(ctx.trace.phase);
    out.extend_from_slice(&body);
    out
}

/// What a payload that is neither a marker nor a request is answered with.
const MALFORMED: &str = "malformed request frame";

fn decode_request_frame(buf: &[u8]) -> s4_core::Result<(RequestContext, Request)> {
    let mut r = Reader::new(buf, MALFORMED);
    let user = s4_core::UserId(r.u32()?);
    let client = s4_core::ClientId(r.u32()?);
    let admin_token = match (r.u8()?, r.u64()?) {
        (0, _) => None,
        (1, token) => Some(token),
        _ => return Err(s4_core::S4Error::BadRequest(MALFORMED)),
    };
    let trace = s4_core::TraceCtx {
        trace_id: r.u64()?,
        origin: r.u8()?,
        phase: r.u8()?,
    };
    let ctx = RequestContext {
        user,
        client,
        admin_token,
        trace,
    };
    Ok((ctx, Request::decode(r.rest())?))
}

/// A running TCP server exporting one S4 drive (or drive array).
pub struct TcpServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServerHandle {
    /// Starts serving `handler` — an [`S4Drive`] or any other
    /// [`RpcHandler`] — on `bind` (use port 0 for an ephemeral port).
    /// Each connection is handled on its own thread.
    pub fn serve<H: RpcHandler + 'static>(
        handler: Arc<H>,
        bind: &str,
    ) -> std::io::Result<TcpServerHandle> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                let handler = handler.clone();
                let stop3 = stop2.clone();
                let oob: [OobFrame<H>; 3] = [
                    (STATS_FRAME_MARKER, H::stats_text),
                    (RESHARD_FRAME_MARKER, H::reshard_text),
                    (TXN_FRAME_MARKER, H::txn_text),
                ];
                std::thread::spawn(move || {
                    while !stop3.load(Ordering::SeqCst) {
                        let Ok(frame) = read_frame(&mut stream) else {
                            break;
                        };
                        let reply = match oob.iter().find(|(m, _)| frame == *m) {
                            Some((_, text)) => reply_frame(0, text(&handler).as_bytes()),
                            None => match decode_request_frame(&frame) {
                                Ok((ctx, req)) => match handler.handle(&ctx, &req) {
                                    Ok(resp) => reply_frame(0, &resp.encode()),
                                    Err(e) => failure_frame(e.into()),
                                },
                                Err(_) => failure_frame(FsError::Storage(MALFORMED.into())),
                            },
                        };
                        if write_frame(&mut stream, &reply).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        Ok(TcpServerHandle {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (for clients to connect to).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread (what
    /// dropping the handle does).
    pub fn shutdown(self) {}
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// A client-side TCP transport: one connection, one in-flight request at
/// a time (callers serialize through an internal lock, matching NFSv2's
/// synchronous client behavior).
pub struct TcpTransport {
    stream: Mutex<TcpStream>,
    /// Wall-clock deployments have no shared simulated clock; this one is
    /// local and only advanced by explicit callers.
    clock: SimClock,
    /// Mints trace ids for requests the caller left untraced, so every
    /// RPC that crosses the wire carries a joinable causal trace id.
    trace_ids: s4_core::TraceIdGen,
}

impl TcpTransport {
    /// Connects to a [`TcpServerHandle`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream: Mutex::new(stream),
            clock: SimClock::new(),
            trace_ids: s4_core::TraceIdGen::new(),
        })
    }
}

impl TcpTransport {
    /// Fetches the server's Prometheus text exposition over this
    /// connection (the out-of-band stats frame).
    pub fn fetch_stats(&self) -> FsResult<String> {
        self.fetch_oob(STATS_FRAME_MARKER, "stats")
    }

    /// Fetches the server's one-line reshard status over this
    /// connection (the out-of-band reshard frame).
    pub fn fetch_reshard_status(&self) -> FsResult<String> {
        self.fetch_oob(RESHARD_FRAME_MARKER, "reshard")
    }

    /// Fetches the server's one-line cross-shard transaction status
    /// over this connection (the out-of-band txn frame).
    pub fn fetch_txn_status(&self) -> FsResult<String> {
        self.fetch_oob(TXN_FRAME_MARKER, "txn")
    }

    /// One request/response exchange on the connection.
    fn exchange(&self, payload: &[u8]) -> FsResult<Vec<u8>> {
        let mut stream = self.stream.lock();
        write_frame(&mut *stream, payload)
            .map_err(|e| FsError::Storage(format!("tcp write: {e}")))?;
        read_frame(&mut *stream).map_err(|e| FsError::Storage(format!("tcp read: {e}")))
    }

    fn fetch_oob(&self, marker: &[u8], what: &str) -> FsResult<String> {
        let reply = self.exchange(marker)?;
        match reply.first() {
            Some(0) => String::from_utf8(reply[1..].to_vec())
                .map_err(|_| FsError::Storage(format!("non-utf8 {what} text"))),
            _ => Err(FsError::Storage(format!("{what} frame rejected"))),
        }
    }
}

impl Transport for TcpTransport {
    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn call(&self, ctx: &RequestContext, req: &Request) -> FsResult<Response> {
        let ctx = self.trace_ids.stamp(ctx, &self.clock);
        let reply = self.exchange(&encode_request_frame(&ctx, req))?;
        match reply.split_first() {
            None => Err(FsError::Storage("empty reply frame".into())),
            Some((0, body)) => {
                Response::decode(body).map_err(|e| FsError::Storage(format!("bad response: {e}")))
            }
            Some((&status, text)) => Err(FsError::from_wire(status, text)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_core::{ClientId, DriveConfig, UserId};
    use s4_simdisk::MemDisk;

    #[test]
    fn frame_codec_round_trip() {
        let ctx = RequestContext::admin(ClientId(3), 99);
        let req = Request::Write {
            oid: s4_core::ObjectId(5),
            offset: 16,
            data: vec![1, 2, 3],
        };
        let frame = encode_request_frame(&ctx, &req);
        let (dctx, dreq) = decode_request_frame(&frame).unwrap();
        assert_eq!(dctx, ctx);
        assert_eq!(dreq, req);
        assert!(decode_request_frame(&frame[..10]).is_err());
        assert!(decode_request_frame(&frame[..26]).is_err());
        // `has_token` is 0 or 1; anything else is no frame of ours.
        let mut bad_flag = frame.clone();
        bad_flag[8] = 2;
        assert!(decode_request_frame(&bad_flag).is_err());

        // The trace triple crosses the wire intact.
        let traced = RequestContext::user(UserId(4), ClientId(8)).with_trace(s4_core::TraceCtx {
            trace_id: 0xFEED_BEEF_u64,
            origin: 3,
            phase: s4_core::PHASE_PREPARE,
        });
        let frame = encode_request_frame(&traced, &req);
        let (dctx, dreq) = decode_request_frame(&frame).unwrap();
        assert_eq!(dctx, traced);
        assert_eq!(dctx.trace.trace_id, 0xFEED_BEEF);
        assert_eq!(dreq, req);
    }

    #[test]
    fn end_to_end_over_real_sockets() {
        let clock = SimClock::new();
        let drive = Arc::new(
            S4Drive::format(MemDisk::new(200_000), DriveConfig::small_test(), clock).unwrap(),
        );
        let server = TcpServerHandle::serve(drive, "127.0.0.1:0").unwrap();
        let t = TcpTransport::connect(server.addr()).unwrap();
        let ctx = RequestContext::user(UserId(7), ClientId(1));

        let oid = match t.call(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("{other:?}"),
        };
        t.call(
            &ctx,
            &Request::Write {
                oid,
                offset: 0,
                data: b"over the wire".to_vec(),
            },
        )
        .unwrap();
        match t
            .call(
                &ctx,
                &Request::Read {
                    oid,
                    offset: 5,
                    len: 100,
                    time: None,
                },
            )
            .unwrap()
        {
            Response::Data(d) => assert_eq!(d, b"the wire"),
            other => panic!("{other:?}"),
        }
        // Errors travel too.
        let err = t
            .call(
                &RequestContext::user(UserId(99), ClientId(2)),
                &Request::Read {
                    oid,
                    offset: 0,
                    len: 1,
                    time: None,
                },
            )
            .unwrap_err();
        assert_eq!(err, FsError::Denied);

        // Batched RPCs cross the wire as one exchange.
        use s4_core::LAST_CREATED;
        match t
            .call(
                &ctx,
                &Request::Batch(vec![
                    Request::Create,
                    Request::Write {
                        oid: LAST_CREATED,
                        offset: 0,
                        data: b"batched over tcp".to_vec(),
                    },
                    Request::Read {
                        oid: LAST_CREATED,
                        offset: 0,
                        len: 64,
                        time: None,
                    },
                ]),
            )
            .unwrap()
        {
            Response::Batch(rs) => {
                assert_eq!(rs.len(), 3);
                assert!(matches!(rs[2], Response::Data(ref d) if d == b"batched over tcp"));
            }
            other => panic!("{other:?}"),
        }

        // The out-of-band stats frame returns the Prometheus
        // exposition, and RPC dispatch keeps working afterwards.
        let text = t.fetch_stats().unwrap();
        assert!(text.contains("s4_requests_total"), "{text}");
        assert!(text.contains("s4_rpc_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("s4_history_pool_occupancy"));
        assert!(text.contains("s4_detection_window_headroom_days"));
        assert!(matches!(
            t.call(
                &ctx,
                &Request::Read {
                    oid,
                    offset: 0,
                    len: 4,
                    time: None,
                },
            ),
            Ok(Response::Data(_))
        ));
        server.shutdown();
    }

    #[test]
    fn out_of_band_frames_and_malformed_payloads() {
        struct Texts;
        impl RpcHandler for Texts {
            fn handle(&self, _: &RequestContext, _: &Request) -> s4_core::Result<Response> {
                Ok(Response::Ok)
            }
            fn stats_text(&self) -> String {
                "the stats".into()
            }
            fn reshard_text(&self) -> String {
                "the reshard line".into()
            }
            fn txn_text(&self) -> String {
                "the txn line".into()
            }
        }
        let server = TcpServerHandle::serve(Arc::new(Texts), "127.0.0.1:0").unwrap();
        let t = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(t.fetch_stats().unwrap(), "the stats");
        assert_eq!(t.fetch_reshard_status().unwrap(), "the reshard line");
        assert_eq!(t.fetch_txn_status().unwrap(), "the txn line");

        // A 9-byte payload that is no marker is too short to be an RPC
        // frame: refused, and the connection stays usable.
        assert_eq!(
            t.exchange(b"__stat5__").unwrap(),
            [&[1u8][..], b"malformed request frame"].concat()
        );
        let ctx = RequestContext::user(UserId(7), ClientId(1));
        assert_eq!(t.call(&ctx, &Request::Sync), Ok(Response::Ok));
        assert_eq!(t.fetch_txn_status().unwrap(), "the txn line");
        server.shutdown();
    }
}

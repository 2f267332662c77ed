//! Transports carrying S4 RPCs from the client translator to the drive.

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock};
use s4_core::{Request, RequestContext, Response, S4Drive};
use s4_simdisk::BlockDev;

use crate::server::FsResult;
use crate::tcp::RpcHandler;

/// A channel able to deliver one S4 RPC and return its response.
pub trait Transport: Send + Sync {
    /// Performs one request/response exchange.
    fn call(&self, ctx: &RequestContext, req: &Request) -> FsResult<Response>;

    /// The simulated clock measurements should be taken on.
    fn clock(&self) -> &SimClock;
}

/// One in-process exchange, the body of every transport without a
/// socket ([`LoopbackTransport`], `s4_array::ArrayTransport`): dispatch
/// through `handler`, charge the network cost model for the request
/// out and the response (or a small error) back, map the error.
pub fn call_in_process<H: RpcHandler>(
    handler: &H,
    net: &NetworkModel,
    clock: &SimClock,
    ctx: &RequestContext,
    req: &Request,
) -> FsResult<Response> {
    let resp = handler.handle(ctx, req);
    let resp_size = resp.as_ref().map(|r| r.wire_size()).unwrap_or(16);
    clock.advance(net.rpc_cost(req.wire_size(), resp_size));
    Ok(resp?)
}

/// In-process transport: invokes the drive directly, charging the network
/// cost model to the shared simulated clock. This models the paper's
/// switched 100 Mb Ethernet between client and server without real
/// sockets, keeping benchmarks deterministic.
pub struct LoopbackTransport<D: BlockDev> {
    drive: Arc<S4Drive<D>>,
    net: NetworkModel,
    clock: SimClock,
    /// Mints trace ids for requests the caller left untraced, so
    /// in-process clients get the same causal traceability as wire
    /// clients.
    trace_ids: s4_core::TraceIdGen,
}

impl<D: BlockDev> LoopbackTransport<D> {
    /// Creates a loopback transport over `drive` with the given network
    /// model.
    pub fn new(drive: Arc<S4Drive<D>>, net: NetworkModel) -> Self {
        let clock = drive.clock().clone();
        LoopbackTransport {
            drive,
            net,
            clock,
            trace_ids: s4_core::TraceIdGen::new(),
        }
    }

    /// The wrapped drive.
    pub fn drive(&self) -> &Arc<S4Drive<D>> {
        &self.drive
    }

    /// Consumes the transport, returning the drive handle.
    pub fn into_drive(self) -> Arc<S4Drive<D>> {
        self.drive
    }
}

impl<D: BlockDev> Transport for LoopbackTransport<D> {
    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn call(&self, ctx: &RequestContext, req: &Request) -> FsResult<Response> {
        let ctx = self.trace_ids.stamp(ctx, &self.clock);
        call_in_process(&*self.drive, &self.net, &self.clock, &ctx, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::SimDuration;
    use s4_core::{ClientId, DriveConfig, UserId};
    use s4_simdisk::MemDisk;

    #[test]
    fn loopback_charges_network_time() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let drive = Arc::new(
            S4Drive::format(
                MemDisk::new(200_000),
                DriveConfig::small_test(),
                clock.clone(),
            )
            .unwrap(),
        );
        let t = LoopbackTransport::new(drive, NetworkModel::lan_100mbit());
        let ctx = RequestContext::user(UserId(1), ClientId(1));
        let before = clock.now();
        let resp = t.call(&ctx, &Request::Create).unwrap();
        assert!(matches!(resp, Response::Created(_)));
        assert!(clock.now() > before, "RPC must cost simulated time");
    }

    #[test]
    fn loopback_maps_errors() {
        let clock = SimClock::new();
        let drive = Arc::new(
            S4Drive::format(MemDisk::new(200_000), DriveConfig::small_test(), clock).unwrap(),
        );
        let t = LoopbackTransport::new(drive, NetworkModel::free());
        let ctx = RequestContext::user(UserId(1), ClientId(1));
        let err = t
            .call(
                &ctx,
                &Request::Read {
                    oid: s4_core::ObjectId(999),
                    offset: 0,
                    len: 1,
                    time: None,
                },
            )
            .unwrap_err();
        assert_eq!(err, crate::server::FsError::NotFound);
    }
}

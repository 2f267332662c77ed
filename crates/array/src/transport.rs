//! In-process [`Transport`] over an array, so [`s4_fs::S4FileServer`]
//! runs array-backed without code changes: directory operations resolve
//! on the root object's home shard, file payload operations route
//! independently to each file's own shard.

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock};
use s4_core::{Request, RequestContext, Response};
use s4_fs::call_in_process;
use s4_fs::server::FsResult;
use s4_fs::Transport;
use s4_simdisk::BlockDev;

use crate::array::S4Array;

/// Loopback transport over a sharded array, charging the network cost
/// model to the array clock (mirrors [`s4_fs::LoopbackTransport`]).
pub struct ArrayTransport<D: BlockDev> {
    array: Arc<S4Array<D>>,
    net: NetworkModel,
    clock: SimClock,
}

impl<D: BlockDev + 'static> ArrayTransport<D> {
    /// Creates a transport over `array` with the given network model.
    pub fn new(array: Arc<S4Array<D>>, net: NetworkModel) -> Self {
        let clock = array.clock().clone();
        ArrayTransport { array, net, clock }
    }
}

impl<D: BlockDev + 'static> Transport for ArrayTransport<D> {
    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn call(&self, ctx: &RequestContext, req: &Request) -> FsResult<Response> {
        // No trace id is minted here: the array stamps its own requests
        // when its `trace` setting is on (`S4Array::traced`).
        call_in_process(&*self.array, &self.net, &self.clock, ctx, req)
    }
}

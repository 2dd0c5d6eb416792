//! The transport-agnostic specialized client.
//!
//! The specialized path replaces header + argument marshaling with
//! compiled residual stubs but keeps the protocol machinery (xid
//! allocation, retransmission, reply matching) — specialization removes
//! interpretation, not the protocol. [`SpecClient`] is generic over any
//! [`Transport`] (UDP with retransmission, record-marked TCP), and every
//! dynamic guard failure falls back to the generic layered path,
//! preserving the original semantics (§6.2).

use crate::generic::decode_shape_generic;
use crate::pipeline::CompiledProc;
use specrpc_rpc::error::RpcError;
use specrpc_rpc::msg::ReplyHeader;
use specrpc_rpc::transport::Transport;
use specrpc_rpcgen::sunlib::reply_fields;
use specrpc_tempo::compile::{run_decode, run_encode_with_xid, Outcome, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{OpCounts, WireBuf, XdrStream};
use std::sync::Arc;

/// Which path served a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathUsed {
    /// The compiled specialized stubs.
    Fast,
    /// The generic micro-layer path (guard fallback).
    GenericFallback,
}

/// A specialized RPC client for one procedure: compiled stubs over the
/// shared transaction layer of any [`Transport`], with a generic decoder
/// fallback.
///
/// The request lane is zero-copy and allocation-free in steady state: the
/// compiled stub stamps header and arguments in **one pass** directly into
/// a [`WireBuf`] that is preallocated once at the stub's exact wire length
/// and rewound per call, the transport borrows those bytes (copying only
/// into the pooled datagram it actually transmits), and consumed reply
/// buffers are recycled back to the transport's pool. A warm call
/// allocates nothing, which `tests/cost_vector.rs` pins per workload.
pub struct SpecClient<T: Transport> {
    transport: T,
    proc_: Arc<CompiledProc>,
    /// Reusable request image (exact wire length, rewound per call).
    req: WireBuf,
    /// Per-slot request images for batched calls: slot `i` holds batch
    /// position `i`'s wire image, preallocated on first use and rewound
    /// every batch (one `WireBuf` scratch per slot).
    batch_req: Vec<WireBuf>,
    /// Reused xid scratch for batched calls.
    batch_xids: Vec<u32>,
    /// Stub-op and byte counts from specialized marshaling (generic
    /// fallback decoding accumulates here too).
    pub counts: OpCounts,
    /// Calls served by the fast path.
    pub fast_calls: u64,
    /// Calls that fell back to the generic decoder.
    pub fallback_calls: u64,
    /// Calls performed (for per-call reporting).
    pub calls: u64,
    /// One-way calls issued through [`SpecClient::call_oneway`].
    pub oneway_calls: u64,
}

impl<T: Transport> SpecClient<T> {
    /// Wrap a transport with already-compiled stubs.
    pub fn from_parts(transport: T, proc_: Arc<CompiledProc>) -> Self {
        SpecClient {
            transport,
            proc_,
            req: WireBuf::new(),
            batch_req: Vec::new(),
            batch_xids: Vec::new(),
            counts: OpCounts::new(),
            fast_calls: 0,
            fallback_calls: 0,
            calls: 0,
            oneway_calls: 0,
        }
    }

    /// The compiled stub set this client runs.
    pub fn compiled(&self) -> &Arc<CompiledProc> {
        &self.proc_
    }

    /// Access the underlying transport (timeout tuning).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Perform the call: `args` carries the user argument slots (scalars
    /// *after* the xid slot 0, arrays from 0) — build it with
    /// [`SpecClient::args`]. Returns the result slots and which path
    /// decoded the reply.
    ///
    /// Allocates fresh result slots per call; steady-state callers that
    /// want the allocation-free lane use [`SpecClient::call_into`].
    pub fn call(&mut self, args: &StubArgs) -> Result<(StubArgs, PathUsed), RpcError> {
        let mut out = StubArgs::default();
        let path = self.call_into(args, &mut out)?;
        Ok((out, path))
    }

    /// [`SpecClient::call`] decoding into caller-provided result slots,
    /// reusing their capacity: with a warm `out` and a warm transport
    /// pool, a round trip allocates nothing.
    pub fn call_into(&mut self, args: &StubArgs, out: &mut StubArgs) -> Result<PathUsed, RpcError> {
        self.calls += 1;
        let xid = self.transport.next_xid();
        encode_into(&self.proc_, &mut self.req, args, xid, &mut self.counts)?;
        let reply = self.transport.call(self.req.bytes(), xid)?;
        let result = self.decode_reply(&reply, out);
        // The consumed reply buffer feeds the transport's pool.
        self.transport.recycle(reply);
        result
    }

    /// Sun-style **one-way** call: encode through the compiled stub and
    /// hand the request to [`Transport::call_oneway`] — no reply is
    /// awaited, decoded, or returned. Over a coalescing UDP transport
    /// (`ClntUdp::with_coalescing`) the call is *queued* into an
    /// MTU-sized envelope and flushed by MTU fill, the linger bound, or
    /// the next synchronous call, whose reply acknowledges the whole
    /// pipeline; other transports degrade to a blocking call with the
    /// reply discarded. The one-way trade is the classic batch-mode one:
    /// at-most-once execution, with loss only detected by the next
    /// synchronous call in the stream.
    ///
    /// ```
    /// use specrpc::{ProcPipeline, SpecClient, SpecService};
    /// use specrpc_netsim::net::{Network, NetworkConfig};
    /// use specrpc_netsim::SimTime;
    /// use specrpc_rpc::{ClntUdp, CoalescePolicy};
    /// use specrpc_tempo::compile::StubArgs;
    /// use std::sync::Arc;
    ///
    /// const IDL: &str = r#"
    ///     program INCPROG {
    ///         version INCVERS { int INC(int) = 1; } = 1;
    ///     } = 0x20000779;
    /// "#;
    ///
    /// // One stub set, shared by the service and the client.
    /// let proc_ = Arc::new(ProcPipeline::new(0).build_from_idl(IDL, None, 1).unwrap());
    ///
    /// let net = Network::new(NetworkConfig::lan(), 1);
    /// SpecService::new()
    ///     .proc(proc_.clone(), |args: &StubArgs| {
    ///         let v = *args.scalars.last().unwrap();
    ///         StubArgs::new(vec![v + 1], vec![])
    ///     })
    ///     .serve_udp(&net, 901);
    ///
    /// // Coalescing on: one-way INCs pack into MTU-sized envelopes and
    /// // ride with the next synchronous call, whose reply acknowledges
    /// // the whole pipeline in one round trip.
    /// let transport = ClntUdp::create(&net, 5002, 901, 0x2000_0779, 1)
    ///     .with_coalescing(CoalescePolicy::new(1400, SimTime::from_micros(100)));
    /// let mut client = SpecClient::from_parts(transport, proc_);
    ///
    /// for i in 0..8 {
    ///     client.call_oneway(&client.args(vec![i], vec![])).unwrap();
    /// }
    /// // Nothing has hit the wire yet; the sync call seals and flushes.
    /// let (out, _) = client.call(&client.args(vec![100], vec![])).unwrap();
    /// assert_eq!(*out.scalars.last().unwrap(), 101);
    /// assert_eq!(client.oneway_calls, 8);
    /// ```
    pub fn call_oneway(&mut self, args: &StubArgs) -> Result<(), RpcError> {
        self.calls += 1;
        self.oneway_calls += 1;
        let xid = self.transport.next_xid();
        encode_into(&self.proc_, &mut self.req, args, xid, &mut self.counts)?;
        self.transport.call_oneway(self.req.bytes(), xid)
    }

    /// Push queued one-way calls to the wire without waiting for a
    /// synchronous call (see [`Transport::flush_oneways`]).
    pub fn flush_oneways(&mut self) -> Result<(), RpcError> {
        self.transport.flush_oneways()
    }

    /// Specialized decode with generic fallback, into reused slots.
    fn decode_reply(&mut self, reply: &[u8], out: &mut StubArgs) -> Result<PathUsed, RpcError> {
        if decode_reply_fast(&self.proc_, reply, out, &mut self.counts)? {
            self.fast_calls += 1;
            Ok(PathUsed::Fast)
        } else {
            self.fallback_calls += 1;
            self.decode_generic(reply, out)
                .map(|()| PathUsed::GenericFallback)
        }
    }

    /// Perform `batch.len()` calls as **one pipelined batch**: every
    /// request is encoded (into its own reused per-slot [`WireBuf`]) and
    /// handed to [`Transport::call_batch`], which keeps all of them in
    /// flight at once and matches replies by xid; results come back in
    /// submission order. The fixed per-call round-trip overhead — wire
    /// latency, server dispatch hand-off — is paid once per batch, the
    /// same way the compiled stubs amortize per-element marshaling
    /// overhead ([`crate::echo::BatchEchoBench`] drives this lane).
    ///
    /// Allocates fresh result slots; steady-state callers use
    /// [`SpecClient::call_batch_into`].
    pub fn call_batch(
        &mut self,
        batch: &[StubArgs],
    ) -> Result<Vec<(StubArgs, PathUsed)>, RpcError> {
        let mut outs: Vec<StubArgs> = batch.iter().map(|_| StubArgs::default()).collect();
        let paths = self.call_batch_into(batch, &mut outs)?;
        Ok(outs.into_iter().zip(paths).collect())
    }

    /// [`SpecClient::call_batch`] decoding into caller-provided result
    /// slots, reusing their capacity: with warm slots and a warm
    /// transport pool no take misses the pool, and a batch allocates
    /// three times, for its bookkeeping `Vec`s (the `batch4` row of
    /// `tests/cost_vector.rs`). Any transport or decode failure fails the
    /// batch.
    ///
    /// # Panics
    /// Panics if `batch` and `outs` have different lengths.
    pub fn call_batch_into(
        &mut self,
        batch: &[StubArgs],
        outs: &mut [StubArgs],
    ) -> Result<Vec<PathUsed>, RpcError> {
        assert_eq!(batch.len(), outs.len(), "one result slot per call");
        self.calls += batch.len() as u64;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        // One WireBuf scratch per slot, grown once and rewound per batch.
        while self.batch_req.len() < batch.len() {
            self.batch_req.push(WireBuf::new());
        }
        self.batch_xids.clear();
        for (args, req) in batch.iter().zip(self.batch_req.iter_mut()) {
            let xid = self.transport.next_xid();
            encode_into(&self.proc_, req, args, xid, &mut self.counts)?;
            self.batch_xids.push(xid);
        }
        let requests: Vec<&[u8]> = self.batch_req[..batch.len()]
            .iter()
            .map(WireBuf::bytes)
            .collect();
        let replies = self.transport.call_batch(&requests, &self.batch_xids)?;
        if replies.len() != batch.len() {
            // A transport violating the one-reply-per-request contract
            // must surface as an error, not as silently truncated
            // results.
            return Err(RpcError::Transport(format!(
                "transport returned {} replies for a batch of {}",
                replies.len(),
                batch.len()
            )));
        }
        let mut paths = Vec::with_capacity(batch.len());
        let mut first_err = None;
        for (reply, out) in replies.into_iter().zip(outs.iter_mut()) {
            // Even when one call's decode fails, every reply buffer must
            // still feed the transport's pool — dropped buffers come
            // back as allocating misses on the next batch.
            if first_err.is_none() {
                match self.decode_reply(&reply, out) {
                    Ok(path) => paths.push(path),
                    Err(e) => first_err = Some(e),
                }
            }
            self.transport.recycle(reply);
        }
        match first_err {
            None => Ok(paths),
            Some(e) => Err(e),
        }
    }

    /// Build the argument [`StubArgs`] with the xid slot reserved.
    pub fn args(&self, scalars: Vec<i32>, arrays: Vec<Vec<i32>>) -> StubArgs {
        let mut all = Vec::with_capacity(scalars.len() + 1);
        all.push(0); // xid slot
        all.extend(scalars);
        StubArgs::new(all, arrays)
    }

    /// The generic reply path (§6.2 `else` branch): full header
    /// validation and layered decoding.
    fn decode_generic(&mut self, reply: &[u8], out: &mut StubArgs) -> Result<(), RpcError> {
        let mut dec = XdrMem::decoder(reply);
        let hdr = ReplyHeader::decode(&mut dec)?;
        if let Some(err) = hdr.to_error() {
            return Err(err);
        }
        let decp = &self.proc_.client_decode;
        out.prepare(
            decp.layout.scalar_count as usize,
            decp.layout.array_count as usize,
        );
        decode_shape_generic(
            &mut dec,
            &self.proc_.res_shape,
            reply_fields::COUNT as u16,
            out,
        )?;
        self.counts += *dec.counts();
        Ok(())
    }
}

/// Single-copy encode: `proc_`'s compiled client stub emits header +
/// arguments in one pass straight into the rewound exact-size wire
/// buffer (xid stamped via the slot-0 override, not an args clone). The
/// buffer is not cleared in between: a compiled encode stores every byte
/// of its image. [`SpecClient`] and the NFS-like
/// scenario's client both encode through it.
// `always`, as for `decode_reply_fast`: with a plain `#[inline]` neither
// was inlined into `SpecClient`'s call lane any more, and `echo250_lossy`
// read ≈4% slower (4 of 17 alternating pairs won, 2-core Xeon VM).
#[inline(always)]
pub(crate) fn encode_into(
    proc_: &CompiledProc,
    req: &mut WireBuf,
    args: &StubArgs,
    xid: u32,
    counts: &mut OpCounts,
) -> Result<(), RpcError> {
    let enc = &proc_.client_encode;
    req.rewind(enc.wire_len);
    run_encode_with_xid(&enc.program, req.bytes_mut(), args, xid as i32, counts)
        .map(|_| ())
        .map_err(|e| RpcError::Transport(e.to_string()))
}

/// The fast half of a reply decode: `out` is shaped for `proc_`'s
/// compiled client decode stub, which decodes `reply` into it. `Ok(false)`
/// when a dynamic guard failed and the reply belongs to the generic path
/// (§6.2), which decodes it into `out` afresh.
#[inline(always)]
pub(crate) fn decode_reply_fast(
    proc_: &CompiledProc,
    reply: &[u8],
    out: &mut StubArgs,
    counts: &mut OpCounts,
) -> Result<bool, RpcError> {
    let dec = &proc_.client_decode;
    out.prepare(
        dec.layout.scalar_count as usize,
        dec.layout.array_count as usize,
    );
    match run_decode(&dec.program, reply, out, reply.len(), counts) {
        Ok(Outcome::Done { ret: 1, .. }) => Ok(true),
        Ok(Outcome::Done { .. }) | Ok(Outcome::Fallback) => Ok(false),
        Err(e) => Err(RpcError::Transport(e.to_string())),
    }
}

//! The transport abstraction the specialized facade is generic over.
//!
//! Specialization replaces *marshaling*, not the protocol machinery: a
//! compiled stub produces the complete request image (xid first), and the
//! transport's job is to deliver it and return the matching reply bytes.
//! Both the datagram client ([`crate::ClntUdp`], retransmitting) and the
//! stream client ([`crate::ClntTcp`], record-marked) provide exactly that
//! service, so every facade path — specialized, generic, and the §6.2
//! guard fallback — works unchanged over either.

use crate::error::RpcError;

/// A client-side RPC transport: raw pre-marshaled exchanges and the
/// transaction ids that key them.
///
/// `request` must be a complete RPC call message whose first word is
/// `xid`; the implementation returns the first complete reply message
/// whose leading word matches `xid` (stale replies are skipped, and UDP
/// retransmits on per-try timeout).
///
/// The request is **borrowed**, not owned: the caller keeps its encode
/// buffer and rewinds it for the next call, and a retransmitting transport
/// re-reads the same bytes instead of cloning the message per try. Pooled
/// transports additionally accept consumed reply buffers back through
/// [`Transport::recycle`], closing the allocation loop — see
/// [`crate::BufPool`].
pub trait Transport {
    /// Allocate the next transaction id.
    fn next_xid(&mut self) -> u32;

    /// Perform one raw exchange: send `request`, return the reply whose
    /// xid matches.
    fn call(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError>;

    /// Perform `requests.len()` exchanges as one batch, returning the
    /// reply for `requests[i]`/`xids[i]` at position `i` (submission
    /// order), regardless of the order replies arrived in.
    ///
    /// Pipelining transports ([`crate::ClntUdp`], [`crate::ClntTcp`])
    /// transmit every request before awaiting any reply, so the fixed
    /// per-call round-trip overhead — wire latency, server dispatch,
    /// cross-thread hand-off — is paid once per *batch* instead of once
    /// per call, the same way specialized stubs amortize marshaling
    /// overhead. The default implementation degrades to sequential
    /// blocking [`Transport::call`]s, which every transport supports.
    ///
    /// A batch is synchronous: it returns when every reply is in, and it
    /// carries queued one-way calls ([`Transport::call_oneway`]) the way a
    /// single call does — a batching transport sends them ahead of the
    /// batch, and the batch's completion acknowledges them.
    ///
    /// # Panics
    /// Panics if `requests` and `xids` have different lengths.
    fn call_batch(&mut self, requests: &[&[u8]], xids: &[u32]) -> Result<Vec<Vec<u8>>, RpcError> {
        assert_eq!(requests.len(), xids.len(), "one xid per request");
        requests
            .iter()
            .zip(xids)
            .map(|(r, &xid)| self.call(r, xid))
            .collect()
    }

    /// Sun-style **one-way** (batched) call: the caller needs no reply
    /// and gives up the at-least-once guarantee for this transaction.
    ///
    /// A batching transport ([`crate::ClntUdp`] with coalescing enabled,
    /// see `ClntUdp::with_coalescing`) queues the request and returns
    /// immediately; queued calls ride to the server packed into MTU-sized
    /// envelopes, and the next **synchronous** call or batch
    /// ([`Transport::call`], [`Transport::call_batch`]) flushes them — its
    /// replies acknowledge the whole pipeline. A transport without a
    /// batching surface (the default, and [`crate::ClntTcp`]) degrades to
    /// a blocking [`Transport::call`] whose reply is discarded, which
    /// keeps the stronger delivery guarantee.
    fn call_oneway(&mut self, request: &[u8], xid: u32) -> Result<(), RpcError> {
        let reply = self.call(request, xid)?;
        self.recycle(reply);
        Ok(())
    }

    /// Push any queued one-way calls to the wire without waiting for a
    /// synchronous call to do it (no-op for non-batching transports).
    /// Flushed calls are still only *acknowledged* by the next
    /// synchronous reply.
    fn flush_oneways(&mut self) -> Result<(), RpcError> {
        Ok(())
    }

    /// Hand a consumed reply buffer back for reuse (no-op by default;
    /// pooled transports park it for the next transmission).
    fn recycle(&mut self, reply: Vec<u8>) {
        let _ = reply;
    }
}

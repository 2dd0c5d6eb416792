//! Server-side dispatch (`svc.c`): program/version/procedure registry,
//! request decoding, reply construction, and the raw fast-path hook the
//! specialized server plugs into.
//!
//! # Threading model
//!
//! A [`SvcRegistry`] is built, then shared. Every procedure is registered
//! through `&mut self` before the registry goes behind an `Arc` — Sun's
//! servers likewise register before `svc_run` — so dispatch through
//! `&self` reads one plain table: no lock and no reference count per
//! call, and the handler is called by reference. Handlers are
//! `Box<dyn Fn … + Send + Sync>` and the dispatch counters are atomics,
//! so independent requests may dispatch from any number of threads at
//! once.

use crate::bufpool::BufPool;
use crate::error::RpcError;
use crate::msg::{AcceptStat, CallHeader, RejectStat, ReplyHeader, RPC_VERS};
use specrpc_netsim::inthash::IntMap;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{XdrError, XdrStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A generic procedure handler: given the decoded call header (Sun's
/// `svc_req`), decode arguments from the first stream (positioned after
/// the header), encode results into the second (positioned after the
/// reply header). Called by reference from any dispatching thread;
/// handlers needing mutable state capture it behind a `Mutex`/atomic.
///
/// An error reading the arguments answers `GARBAGE_ARGS`; a result the
/// handler cannot encode should be returned as [`RpcError::SystemErr`].
pub type ProcHandler = Box<
    dyn Fn(&CallHeader, &mut dyn XdrStream, &mut dyn XdrStream) -> Result<(), RpcError>
        + Send
        + Sync,
>;

/// A specialized (raw) handler: takes the whole request datagram, the
/// buffer the caller offers for the reply image and the caller's
/// wire-buffer pool for when the offer does not do — [`take_offer`] chooses
/// between them and states the contract; returns the whole reply datagram,
/// or `None` to fall back to the generic path (dynamic-guard failure, §6.2).
pub type RawHandler =
    Box<dyn Fn(&[u8], &mut Option<Vec<u8>>, &BufPool) -> Option<Vec<u8>> + Send + Sync>;

/// The most capacity, in reply lengths, an offered buffer may have and
/// still carry that reply. The reply's buffer travels on — to the client
/// and back as its next request, or into a mailbox until someone reads it
/// — so without a bound a 60-byte reply keeps a 16 KB buffer alive for as
/// long as a fitting one would have lived; twice the length admits every
/// request/reply pair whose sizes differ by headers only.
const OFFER_MAX_REPLY_LENS: usize = 2;

/// Whether a buffer of `capacity` bytes may carry a reply image of
/// `wire_len`: no smaller than the image, and at most
/// [`OFFER_MAX_REPLY_LENS`] times it.
pub(crate) fn offer_fits(capacity: usize, wire_len: usize) -> bool {
    (wire_len..=OFFER_MAX_REPLY_LENS * wire_len).contains(&capacity)
}

/// Take `offer` for a reply image of `wire_len` bytes if its capacity is
/// at least `wire_len` and at most twice that; a [`RawHandler`] draws from
/// the pool it was given otherwise, so the reply is emitted straight into a
/// buffer that is already there (single-copy encode). The buffer comes as
/// it was offered, old bytes and length included: the taker sets the length
/// and must write every byte of the image. An offer left in place stays
/// the caller's.
pub fn take_offer(offer: &mut Option<Vec<u8>>, wire_len: usize) -> Option<Vec<u8>> {
    offer.take_if(|b| offer_fits(b.capacity(), wire_len))
}

/// Default reply buffer size (UDP max payload in the original: 8800).
pub const REPLY_BUF_SIZE: usize = 66_000;

/// The two ways one procedure can be served: a specialized raw handler,
/// tried first, and the generic handler it falls back to.
#[derive(Default)]
struct Procedure {
    raw: Option<RawHandler>,
    generic: Option<ProcHandler>,
}

/// The service registry and dispatcher.
#[derive(Default)]
pub struct SvcRegistry {
    /// Looked up once per request by the (prog, vers, proc) words of the
    /// call; the keys *in* the table are the ones the program registered,
    /// so the integer hasher has no crafted collisions to fear.
    procs: IntMap<(u32, u32, u32), Procedure>,
    /// Wire-buffer pool shared by every reply path of this registry (raw
    /// handlers, generic replies, and the transport adapters' caches).
    pool: Arc<BufPool>,
    generic_dispatches: AtomicU64,
    raw_dispatches: AtomicU64,
    raw_fallbacks: AtomicU64,
    record_drops: AtomicU64,
}

impl SvcRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SvcRegistry::default()
    }

    /// An empty registry sharing (or sizing) its wire-buffer pool — e.g.
    /// `BufPool::with_max_slots(2 * batch + 16)` for a deployment that
    /// keeps `batch` pipelined calls in flight (the default
    /// [`crate::bufpool::POOL_MAX_SLOTS`]-slot cap overflows under large
    /// batches, visible as `PoolStats::overflow_drops`).
    pub fn with_pool(pool: Arc<BufPool>) -> Self {
        SvcRegistry {
            pool,
            ..SvcRegistry::default()
        }
    }

    /// `svc_register`: install a generic handler.
    pub fn register(
        &mut self,
        prog: u32,
        vers: u32,
        proc_: u32,
        handler: impl Fn(&CallHeader, &mut dyn XdrStream, &mut dyn XdrStream) -> Result<(), RpcError>
            + Send
            + Sync
            + 'static,
    ) {
        self.procs.entry((prog, vers, proc_)).or_default().generic = Some(Box::new(handler));
    }

    /// The registry's shared wire-buffer pool.
    pub fn pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// Install a specialized raw handler for one procedure.
    pub fn register_raw(
        &mut self,
        prog: u32,
        vers: u32,
        proc_: u32,
        handler: impl Fn(&[u8], &mut Option<Vec<u8>>, &BufPool) -> Option<Vec<u8>>
            + Send
            + Sync
            + 'static,
    ) {
        self.procs.entry((prog, vers, proc_)).or_default().raw = Some(Box::new(handler));
    }

    /// Number of generic dispatches performed.
    pub fn generic_dispatches(&self) -> u64 {
        self.generic_dispatches.load(Ordering::Relaxed)
    }

    /// Number of requests served by raw (specialized) handlers.
    pub fn raw_dispatches(&self) -> u64 {
        self.raw_dispatches.load(Ordering::Relaxed)
    }

    /// Number of raw-handler fallbacks to the generic path.
    pub fn raw_fallbacks(&self) -> u64 {
        self.raw_fallbacks.load(Ordering::Relaxed)
    }

    /// Stream records a transport adapter refused before dispatch: their
    /// record mark claimed more than `specrpc_xdr::rec::MAX_RECORD_BYTES`
    /// (the connection is reset; see [`crate::svc_tcp`]).
    pub fn record_drops(&self) -> u64 {
        self.record_drops.load(Ordering::Relaxed)
    }

    pub(crate) fn note_record_drop(&self) {
        self.record_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Dispatch one request datagram to a reply datagram.
    ///
    /// Tries the specialized raw handler first when one matches the
    /// request's (prog, vers, proc) words; a `None` from it (guard failure)
    /// falls back to the generic path, preserving semantics. Dispatch
    /// takes no registry lock, so concurrent dispatches from different
    /// threads proceed in parallel.
    pub fn dispatch(&self, request: &[u8]) -> Vec<u8> {
        self.dispatch_offered(request, &mut None, &self.pool)
    }

    /// [`SvcRegistry::dispatch`] with a buffer offered for the reply image
    /// (see [`RawHandler`]; only a raw handler can take it) and the pool
    /// a raw handler draws from when it leaves the offer: the one the
    /// caller recycles its buffers into, which in a multi-shard
    /// deployment is the shard's and not the registry's.
    pub fn dispatch_offered(
        &self,
        request: &[u8],
        offer: &mut Option<Vec<u8>>,
        pool: &BufPool,
    ) -> Vec<u8> {
        let procedure = peek_call_target(request).and_then(|key| self.procs.get(&key));
        if let Some(raw) = procedure.and_then(|p| p.raw.as_ref()) {
            if let Some(reply) = raw(request, offer, pool) {
                self.raw_dispatches.fetch_add(1, Ordering::Relaxed);
                return reply;
            }
            self.raw_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.generic_dispatches.fetch_add(1, Ordering::Relaxed);
        self.dispatch_generic(request, procedure)
    }

    /// The generic path, with the procedure the request's target words
    /// found.
    fn dispatch_generic(&self, request: &[u8], procedure: Option<&Procedure>) -> Vec<u8> {
        let mut args = XdrMem::decoder(request);
        let mut msg = CallHeader::new(0, 0, 0, 0);
        if CallHeader::xdr(&mut args, &mut msg).is_err() {
            // Undecodable header: best-effort garbage-args reply echoing
            // whatever xid prefix we can read.
            let xid = request
                .get(..4)
                .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
                .unwrap_or(0);
            return encode_failure(xid, AcceptStat::GarbageArgs, None);
        }

        if msg.rpcvers != RPC_VERS {
            let mut enc = XdrMem::encoder(64);
            ReplyHeader::encode_denied(
                &mut enc,
                msg.xid,
                RejectStat::RpcMismatch,
                Some((RPC_VERS, RPC_VERS)),
            )
            .expect("deny fits");
            return enc.into_bytes();
        }

        // A header that decodes carries the words the target was peeked
        // from, unless its direction word is not CALL: the peek refuses
        // that, the decode lets it through.
        let procedure = procedure.or_else(|| self.procs.get(&(msg.prog, msg.vers, msg.proc_)));
        let Some(handler) = procedure.and_then(|p| p.generic.as_ref()) else {
            return self.unavailable(&msg);
        };

        // Reply image in a pooled backing buffer: in steady state this is
        // a rewind, not an allocation.
        let mut results = XdrMem::encoder_over(self.pool.take(REPLY_BUF_SIZE), REPLY_BUF_SIZE);
        ReplyHeader::encode_success(&mut results, msg.xid).expect("header fits");
        match handler(&msg, &mut args, &mut results) {
            Ok(()) => results.into_bytes(),
            Err(RpcError::Xdr(XdrError::Underflow { .. }))
            | Err(RpcError::Xdr(XdrError::SizeLimit { .. }))
            | Err(RpcError::Xdr(XdrError::BadBool(_)))
            | Err(RpcError::Xdr(XdrError::BadEnumValue(_)))
            | Err(RpcError::Xdr(XdrError::BadString)) => {
                encode_failure(msg.xid, AcceptStat::GarbageArgs, None)
            }
            Err(_) => encode_failure(msg.xid, AcceptStat::SystemErr, None),
        }
    }

    /// The reply to a call no generic handler serves: `PROC_UNAVAIL` when
    /// its program version has other procedures, `PROG_MISMATCH` with the
    /// lowest and highest registered versions when its program has other
    /// versions, `PROG_UNAVAIL` otherwise. Only the generic registrations
    /// count: a raw handler serves a procedure only in front of one.
    fn unavailable(&self, msg: &CallHeader) -> Vec<u8> {
        let versions = self
            .procs
            .iter()
            .filter(|((prog, _, _), p)| *prog == msg.prog && p.generic.is_some())
            .map(|(&(_, vers, _), _)| vers);
        let (mut low, mut high, mut served) = (u32::MAX, 0, false);
        for vers in versions {
            (low, high) = (low.min(vers), high.max(vers));
            served |= vers == msg.vers;
        }
        if served {
            encode_failure(msg.xid, AcceptStat::ProcUnavail, None)
        } else if low <= high {
            encode_failure(msg.xid, AcceptStat::ProgMismatch, Some((low, high)))
        } else {
            encode_failure(msg.xid, AcceptStat::ProgUnavail, None)
        }
    }
}

/// Extract (prog, vers, proc) from a call datagram without full decoding
/// (words 3..6 of the header).
pub fn peek_call_target(request: &[u8]) -> Option<(u32, u32, u32)> {
    if request.len() < 24 {
        return None;
    }
    let word = |i: usize| {
        u32::from_be_bytes([
            request[i * 4],
            request[i * 4 + 1],
            request[i * 4 + 2],
            request[i * 4 + 3],
        ])
    };
    // word 1 must be CALL.
    if word(1) != 0 {
        return None;
    }
    Some((word(3), word(4), word(5)))
}

fn encode_failure(xid: u32, stat: AcceptStat, mismatch: Option<(u32, u32)>) -> Vec<u8> {
    let mut enc = XdrMem::encoder(64);
    ReplyHeader::encode_accept_failure(&mut enc, xid, stat, mismatch).expect("failure fits");
    enc.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ReplyBody;
    use specrpc_xdr::primitives::xdr_int;

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SvcRegistry>();
    }

    fn echo_registry() -> SvcRegistry {
        let mut reg = SvcRegistry::new();
        reg.register(100_007, 1, 3, |_, args, results| {
            let mut v = 0i32;
            xdr_int(args, &mut v)?;
            let mut doubled = v * 2;
            xdr_int(results, &mut doubled)?;
            Ok(())
        });
        reg
    }

    fn make_call(prog: u32, vers: u32, proc_: u32, arg: i32) -> Vec<u8> {
        let mut enc = XdrMem::encoder(256);
        let mut msg = CallHeader::new(0x1111, prog, vers, proc_);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut a = arg;
        xdr_int(&mut enc, &mut a).unwrap();
        enc.into_bytes()
    }

    fn parse_reply(reply: &[u8]) -> (ReplyHeader, XdrMem) {
        let mut dec = XdrMem::decoder(reply);
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        (hdr, dec)
    }

    #[test]
    fn success_dispatch_doubles() {
        let reg = echo_registry();
        let reply = reg.dispatch(&make_call(100_007, 1, 3, 21));
        let (hdr, mut dec) = parse_reply(&reply);
        assert_eq!(hdr.xid, 0x1111);
        assert!(hdr.to_error().is_none());
        let mut out = 0i32;
        xdr_int(&mut dec, &mut out).unwrap();
        assert_eq!(out, 42);
        assert_eq!(reg.generic_dispatches(), 1);
    }

    #[test]
    fn unknown_program() {
        let reg = echo_registry();
        let reply = reg.dispatch(&make_call(555, 1, 3, 0));
        let (hdr, _) = parse_reply(&reply);
        assert_eq!(hdr.to_error(), Some(RpcError::ProgUnavail));
    }

    #[test]
    fn version_mismatch_reports_range() {
        let mut reg = echo_registry();
        let reply = reg.dispatch(&make_call(100_007, 9, 3, 0));
        let (hdr, _) = parse_reply(&reply);
        assert_eq!(
            hdr.to_error(),
            Some(RpcError::ProgMismatch { low: 1, high: 1 })
        );
        // Versions 1 and 3 registered, 2 called: the range spans both.
        reg.register(100_007, 3, 3, |_, _, _| Ok(()));
        let reply = reg.dispatch(&make_call(100_007, 2, 3, 0));
        let (hdr, _) = parse_reply(&reply);
        assert_eq!(
            hdr.to_error(),
            Some(RpcError::ProgMismatch { low: 1, high: 3 })
        );
    }

    #[test]
    fn unknown_procedure() {
        let reg = echo_registry();
        let reply = reg.dispatch(&make_call(100_007, 1, 99, 0));
        let (hdr, _) = parse_reply(&reply);
        assert_eq!(hdr.to_error(), Some(RpcError::ProcUnavail));
    }

    #[test]
    fn rpc_version_denied() {
        let mut enc = XdrMem::encoder(256);
        let mut msg = CallHeader::new(5, 100_007, 1, 3);
        msg.rpcvers = 3;
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let reg = echo_registry();
        let reply = reg.dispatch(&enc.into_bytes());
        let (hdr, _) = parse_reply(&reply);
        assert!(matches!(hdr.body, ReplyBody::Denied { .. }));
    }

    #[test]
    fn truncated_args_yield_garbage_args() {
        let reg = echo_registry();
        let mut call = make_call(100_007, 1, 3, 21);
        call.truncate(call.len() - 4); // drop the argument
        let reply = reg.dispatch(&call);
        let (hdr, _) = parse_reply(&reply);
        assert_eq!(hdr.to_error(), Some(RpcError::GarbageArgs));
    }

    #[test]
    fn garbage_header_still_produces_reply() {
        let reg = echo_registry();
        let reply = reg.dispatch(&[1, 2, 3]);
        assert!(!reply.is_empty());
    }

    #[test]
    fn raw_handler_takes_precedence_and_falls_back() {
        let mut reg = echo_registry();
        reg.register_raw(100_007, 1, 3, |req: &[u8], _offer, _pool: &BufPool| {
            // "Specialized" echo: only handles arg == 1 (guard), else
            // falls back.
            let arg = i32::from_be_bytes(req[40..44].try_into().unwrap());
            if arg != 1 {
                return None;
            }
            let mut enc = XdrMem::encoder(64);
            let xid = u32::from_be_bytes(req[..4].try_into().unwrap());
            ReplyHeader::encode_success(&mut enc, xid).unwrap();
            let mut v = 2i32;
            xdr_int(&mut enc, &mut v).unwrap();
            Some(enc.into_bytes())
        });
        // Guard passes: raw path.
        let reply = reg.dispatch(&make_call(100_007, 1, 3, 1));
        let (_, mut dec) = parse_reply(&reply);
        let mut out = 0i32;
        xdr_int(&mut dec, &mut out).unwrap();
        assert_eq!(out, 2);
        assert_eq!(reg.raw_dispatches(), 1);
        // Guard fails: generic fallback still answers correctly.
        let reply = reg.dispatch(&make_call(100_007, 1, 3, 30));
        let (_, mut dec) = parse_reply(&reply);
        xdr_int(&mut dec, &mut out).unwrap();
        assert_eq!(out, 60);
        assert_eq!(reg.raw_fallbacks(), 1);
        assert_eq!(reg.generic_dispatches(), 1);
    }

    #[test]
    fn an_offer_is_taken_between_one_and_two_reply_lengths() {
        for (capacity, taken) in [(59, false), (60, true), (120, true), (121, false)] {
            let mut offer = Some(Vec::with_capacity(capacity));
            let capacity = offer.as_ref().map(Vec::capacity).unwrap();
            assert_eq!(take_offer(&mut offer, 60).is_some(), taken, "{capacity}");
            assert_eq!(offer.is_none(), taken, "a refused offer stays");
        }
        assert_eq!(take_offer(&mut None, 60), None);
    }

    #[test]
    fn peek_call_target_parses_words() {
        let call = make_call(77, 8, 9, 0);
        assert_eq!(peek_call_target(&call), Some((77, 8, 9)));
        assert_eq!(peek_call_target(&[0; 8]), None);
    }

    #[test]
    fn concurrent_dispatches_share_one_registry() {
        // `&self` dispatch + atomic counters: N threads hammer one
        // registry; every reply is correct and the counters add up.
        let reg = Arc::new(echo_registry());
        let mut handles = Vec::new();
        for t in 0..4i32 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let arg = t * 100 + i;
                    let reply = reg.dispatch(&make_call(100_007, 1, 3, arg));
                    let (hdr, mut dec) = parse_reply(&reply);
                    assert!(hdr.to_error().is_none());
                    let mut out = 0i32;
                    xdr_int(&mut dec, &mut out).unwrap();
                    assert_eq!(out, arg * 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.generic_dispatches(), 200);
    }
}

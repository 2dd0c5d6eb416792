//! The compiled stubs' guards, reached from the wire. A stub is one loop
//! over a whole array, so its only defence against a message that is not
//! the one it was specialized for is what runs before the loop: the `inlen`
//! guard and the checked length word (§6.2). For echo at 1 / 20 / 250 /
//! 2000 elements, every truncation of a valid request sent through `serve`
//! and of a valid reply handed to `SpecClient`, and an array-length word of
//! n − 1, n + 1 and `u32::MAX`, must end in an `RpcError` or in the generic
//! path *counted* as a fallback — never a panic, never a wedged server,
//! never an allocation sized by the hostile word. The same holds for a
//! coalescing envelope whose count word lies, sent to the server and to a
//! coalescing client, and for a reply envelope whose sub-reply answers no
//! call or is too short to carry an xid.
//!
//! One test function: the allocation watermark is process-wide.

use specrpc::echo::{workload, ECHO_IDL, ECHO_PROC, ECHO_PROG, ECHO_VERS};
use specrpc::{CompiledProc, PathUsed, ProcPipeline, SpecClient, SpecService};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::udp::SimUdpSocket;
use specrpc_netsim::SimTime;
use specrpc_rpc::msg::ReplyHeader;
use specrpc_rpc::{serve, ClntUdp, CoalescePolicy, RpcError, ServeConfig, Transport};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::coalesce::{self, COALESCE_MAGIC};
use specrpc_xdr::mem::XdrMem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, remembering the largest block asked of it.
struct Watermark;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic maximum.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Watermark = Watermark;

const PORT: u32 = 930;

/// Records the last real exchange; with `canned` set, answers every call
/// with those bytes (the caller's xid stamped in, as a matching reply has
/// it) instead of making one.
struct Tap {
    inner: ClntUdp,
    request: Vec<u8>,
    reply: Vec<u8>,
    canned: Option<Vec<u8>>,
}

impl Transport for Tap {
    fn next_xid(&mut self) -> u32 {
        self.inner.next_xid()
    }

    fn call(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        if let Some(canned) = &self.canned {
            let mut reply = canned.clone();
            let stamp = reply.len().min(4);
            reply[..stamp].copy_from_slice(&xid.to_be_bytes()[..stamp]);
            return Ok(reply);
        }
        let reply = Transport::call(&mut self.inner, request, xid)?;
        self.request = request.to_vec();
        self.reply = reply.clone();
        Ok(reply)
    }
}

/// `image` cut to each length short of its own, then whole with its array
/// length word (at `len_word`) rewritten to `n − 1`, `n + 1` and `u32::MAX`.
fn hostile(image: &[u8], len_word: usize, n: usize) -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = (0..image.len()).map(|len| image[..len].to_vec()).collect();
    for claimed in [n as u32 - 1, n as u32 + 1, u32::MAX] {
        let mut lying = image.to_vec();
        lying[len_word..len_word + 4].copy_from_slice(&claimed.to_be_bytes());
        all.push(lying);
    }
    all
}

fn sweep(n: usize) {
    let proc_: Arc<CompiledProc> = Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(ECHO_IDL, None, ECHO_PROC)
            .unwrap(),
    );
    let net = Network::new(NetworkConfig::lan(), 90 + n as u64);
    let reg = SpecService::new()
        .proc(proc_.clone(), |args: &StubArgs| {
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        })
        .into_registry();
    serve(&net, reg.clone(), ServeConfig::new(&[PORT])).detach();
    let mut inner = ClntUdp::create(&net, 5900, PORT, ECHO_PROG, ECHO_VERS);
    // A request the server drops is one try, not ten.
    inner.retry_timeout = SimTime::from_millis(20);
    inner.total_timeout = SimTime::from_millis(20);
    let tap = Tap {
        inner,
        request: Vec::new(),
        reply: Vec::new(),
        canned: None,
    };
    let mut client = SpecClient::from_parts(tap, proc_.clone());
    let data = workload(n);
    let args = client.args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();

    // Valid exchanges: the images to mutilate, and what a call allocates
    // at most when nothing is wrong.
    for _ in 0..3 {
        assert_eq!(client.call_into(&args, &mut out).unwrap(), PathUsed::Fast);
    }
    assert_eq!(out.arrays[0], data);
    let (request, reply) = {
        let tap = client.transport_mut();
        (tap.request.clone(), tap.reply.clone())
    };
    assert_eq!(request.len(), proc_.client_encode.wire_len);
    assert_eq!(reply.len(), proc_.client_decode.wire_len);
    LARGEST.store(0, Ordering::Relaxed);
    client.call_into(&args, &mut StubArgs::default()).unwrap();
    // No block larger than a valid call's largest, than a few datagrams (a
    // receive buffer, a `Vec` doubling) or than what the server's own
    // bookkeeping takes on its own schedule (a 64 KiB segment of the reply
    // log, a table doubling) — a block sized by a hostile length word
    // would be gigabytes.
    let ceiling = LARGEST.load(Ordering::Relaxed).max(4 * request.len());
    let ceiling = ceiling.max(128 * 1024);

    // Requests through `serve`: an error reply, a timeout (the server
    // counted a drop and sent nothing), or an answer from the generic
    // path with the fallback counted.
    let requests = hostile(&request, request.len() - 4 * n - 4, n);
    let raw = &mut client.transport_mut().inner;
    // Too short to carry an xid: no client call sends that, a socket can.
    let bare = SimUdpSocket::connect(&net, 5901, PORT);
    let mut answered = 0;
    for (case, mut bytes) in requests.into_iter().enumerate() {
        let xid = raw.next_xid();
        let fallbacks = reg.raw_fallbacks();
        LARGEST.store(0, Ordering::Relaxed);
        let answer = if bytes.len() < 4 {
            bare.send(bytes);
            bare.recv(SimTime::from_millis(20))
                .ok_or(RpcError::TimedOut)
        } else {
            bytes[..4].copy_from_slice(&xid.to_be_bytes());
            Transport::call(raw, &bytes, xid)
        };
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest <= ceiling, "n={n} request {case}: {largest} B");
        let Ok(answer) = answer else { continue };
        let header = ReplyHeader::decode(&mut XdrMem::decoder(&answer));
        let accepted = header.is_ok_and(|h| h.to_error().is_none());
        if accepted {
            assert_eq!(reg.raw_fallbacks(), fallbacks + 1, "n={n} request {case}");
            answered += 1;
        }
    }
    assert_eq!(
        answered, 1,
        "n={n}: the request claiming n − 1 elements is one"
    );

    // Envelopes whose count word lies — one empty sub-message behind a
    // count of 2, 2²⁰, 2³¹ − 1 and `u32::MAX` — and well-formed reply
    // envelopes whose one sub-reply answers an xid no call waits for, or
    // is 3 bytes long: each sent to the server, and to a coalescing client
    // ahead of the reply it waits for, on either API: the client still
    // gets its own reply, from a server that still answers.
    let mut coalescing = ClntUdp::create(&net, 5902, PORT, ECHO_PROG, ECHO_VERS)
        .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(10)));
    let to_client = SimUdpSocket::connect(&net, 5903, 5902);
    let mut alien = reply.clone();
    alien[..4].copy_from_slice(&coalescing.next_xid().to_be_bytes());
    let mut envelopes: Vec<(String, Vec<u8>)> = [2, 1 << 20, (1 << 31) - 1, u32::MAX]
        .map(|claimed| {
            let lying = [COALESCE_MAGIC, claimed, 0].map(u32::to_be_bytes).concat();
            (format!("count {claimed}"), lying)
        })
        .into();
    envelopes.push(("an alien xid".into(), coalesce::pack([(&alien[..], false)])));
    envelopes.push((
        "a 3-byte part".into(),
        coalesce::pack([(&[1, 2, 3][..], false)]),
    ));
    for (case, envelope) in envelopes {
        LARGEST.store(0, Ordering::Relaxed);
        bare.send(envelope.clone());
        bare.recv(SimTime::from_millis(20));
        for batch in [false, true] {
            let xid = coalescing.next_xid();
            let mut call = request.clone();
            call[..4].copy_from_slice(&xid.to_be_bytes());
            to_client.send(envelope.clone());
            let answer = if batch {
                coalescing
                    .exchange_batch(&[&call], &[xid])
                    .map(|mut replies| replies.remove(0))
            } else {
                Transport::call(&mut coalescing, &call, xid)
            };
            let answer = answer.unwrap_or_else(|e| panic!("n={n} {case}: {e:?}"));
            assert_eq!(answer[..4], xid.to_be_bytes(), "n={n} {case}");
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest <= ceiling, "n={n} {case}: {largest} B");
    }

    // The server is still there, and still on its fast path.
    let fallbacks = reg.raw_fallbacks();
    assert_eq!(client.call_into(&args, &mut out).unwrap(), PathUsed::Fast);
    assert_eq!(
        (out.arrays[0] == data, reg.raw_fallbacks()),
        (true, fallbacks)
    );

    // Replies into `SpecClient`: every one is counted on exactly one
    // path, and only the generic one can have produced an answer.
    let replies = hostile(&reply, reply.len() - 4 * n - 4, n);
    let mut answered = 0;
    for (case, bytes) in replies.into_iter().enumerate() {
        client.transport_mut().canned = Some(bytes);
        let (fast, fell_back) = (client.fast_calls, client.fallback_calls);
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = client.call_into(&args, &mut out);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest <= ceiling, "n={n} reply {case}: {largest} B");
        assert_eq!(
            (client.fast_calls, client.fallback_calls),
            (fast, fell_back + 1),
            "n={n} reply {case}: {outcome:?}"
        );
        assert!(
            matches!(outcome, Err(_) | Ok(PathUsed::GenericFallback)),
            "n={n} reply {case}: {outcome:?}"
        );
        answered += outcome.is_ok() as usize;
    }
    assert_eq!(
        answered, 1,
        "n={n}: the reply claiming n − 1 elements is one"
    );
    client.transport_mut().canned = Some(reply);
    assert_eq!(client.call_into(&args, &mut out).unwrap(), PathUsed::Fast);
    assert_eq!(out.arrays[0], data);
}

#[test]
fn truncated_and_lying_messages_end_in_an_error_or_a_counted_fallback() {
    for n in [1, 20, 250, 2000] {
        sweep(n);
    }
}

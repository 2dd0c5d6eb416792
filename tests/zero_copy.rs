//! The zero-copy wire path, end to end: (1) the fused zero-copy decode
//! lane is value-identical to the generic layered lane for arbitrary
//! shapes, and (2) a pooled specialized round trip, once warm, takes from
//! the allocator only what the service routine asks for — the paper's §3
//! copy elimination carried to its logical end (no copies that can be
//! borrowed away, no allocations that can be recycled away). The exact
//! per-call counts of the same deployments are rows of
//! `tests/cost_vector.rs`.

use proptest::prelude::*;
use specrpc::echo::{workload, ECHO_IDL, ECHO_PROC, ECHO_PROG, ECHO_VERS};
use specrpc::generic::xdr_shape;
use specrpc::{PathUsed, ProcPipeline, SpecClient, SpecService};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_rpc::msg::ReplyHeader;
use specrpc_rpc::{serve, ClntUdp, ServeConfig};
use specrpc_rpcgen::sunlib::reply_fields;
use specrpc_tempo::compile::{run_decode, run_encode, Outcome, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{OpCounts, XdrStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting what each thread asks of it. The tests
/// of this binary run side by side, so a process-wide count would mix
/// them; with no reactor worker the service runs on the calling thread,
/// so a thread's count covers client, simulator, dup cache and service.
struct PerThread;

thread_local! {
    /// `(allocations, frees)` of this thread.
    static HEAP: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(allocs: u64, frees: u64) {
    // A thread being torn down has no counter left; its last frees go
    // uncounted.
    let _ = HEAP.try_with(|h| {
        let (a, f) = h.get();
        h.set((a + allocs, f + frees));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local count.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, 0);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 1);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is an allocation a reused slot should not make.
        note(1, 0);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PerThread = PerThread;

/// `(allocations, frees)` this thread has made so far.
fn heap() -> (u64, u64) {
    HEAP.with(Cell::get)
}

/// `(allocations, frees)` since `before`.
fn heap_since(before: (u64, u64)) -> (u64, u64) {
    let now = heap();
    (now.0 - before.0, now.1 - before.1)
}

/// What the returning echo routine costs a call: the cloned array and
/// the result set's `Vec` of arrays, and the two they displace.
const ROUTINE: u64 = 2;

/// The echo procedure compiled for `n` elements.
fn echo_proc(n: usize) -> Arc<specrpc::CompiledProc> {
    let proc_ = ProcPipeline::new(n).build_from_idl(ECHO_IDL, None, ECHO_PROC);
    Arc::new(proc_.unwrap())
}

/// An echo whose routine returns a fresh result set.
fn returning(proc_: Arc<specrpc::CompiledProc>) -> SpecService {
    SpecService::new().proc(proc_, |args: &StubArgs| {
        StubArgs::new(vec![], vec![args.arrays[0].clone()])
    })
}

/// Deploy the returning echo and a pool-sharing specialized client; the
/// small duplicate-request cache keeps the warm-up window short.
fn pooled_echo(n: usize, seed: u64) -> (Network, SpecClient<ClntUdp>) {
    let proc_ = echo_proc(n);
    let net = Network::new(NetworkConfig::lan(), seed);
    let reg = returning(proc_.clone()).into_registry();
    let cfg = ServeConfig {
        cache_entries: 4,
        ..ServeConfig::new(&[910])
    };
    serve(&net, reg.clone(), cfg).detach();
    let clnt = ClntUdp::create_pooled(&net, 5600, 910, ECHO_PROG, ECHO_VERS, reg.pool().clone());
    (net, SpecClient::from_parts(clnt, proc_))
}

#[test]
fn pooled_specialized_round_trip_allocates_zero_after_warmup() {
    let n = 200;
    let (_net, mut client) = pooled_echo(n, 17);
    let data = workload(n);
    let args = client.args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();

    // Warm-up: first calls fill the wire-buffer pool, the client's
    // request buffer, the result slots, and the duplicate-request cache
    // (whose evictions start feeding buffers back once it is full).
    let cold = heap();
    for _ in 0..10 {
        let path = client.call_into(&args, &mut out).unwrap();
        assert_eq!(path, PathUsed::Fast);
        assert_eq!(out.arrays[0], data);
    }
    assert!(
        heap_since(cold).0 > 10 * ROUTINE,
        "warm-up performs the one-time allocations"
    );

    // Steady state: every buffer is recycled, every slot reused — the
    // wire path is allocation-free, which is the acceptance bar for the
    // pooled zero-copy lane; what remains is the routine's result set.
    let before = heap();
    for round in 0..25 {
        let path = client.call_into(&args, &mut out).unwrap();
        assert_eq!(path, PathUsed::Fast, "round {round}");
        assert_eq!(out.arrays[0], data, "round {round}");
    }
    assert_eq!(
        heap_since(before),
        (25 * ROUTINE, 25 * ROUTINE),
        "a warm call allocates only the routine's result set"
    );

    // The shared pool's cap held every returned buffer: an overflow
    // drop would resurface later as an allocating miss.
    let pool_stats = client.transport_mut().pool().stats();
    assert_eq!(pool_stats.overflow_drops, 0, "{pool_stats:?}");
}

#[test]
fn event_reactor_keeps_the_wire_path_allocation_free() {
    // A reactor worker racing the driver (`workers_per_shard: 1`): which
    // thread runs the service varies, so this case holds the pool flat
    // and leaves the allocator alone. It stays until the reactor workers
    // go (ROADMAP item 8).
    reactor_is_allocation_free(1);
}

#[test]
fn zero_worker_reactor_keeps_the_wire_path_allocation_free() {
    // … and held by its handle with no worker at all
    // (`workers_per_shard: 0`), where the calling thread runs everything
    // and its allocations are counted exactly.
    reactor_is_allocation_free(0);
}

/// Once warm a specialized round trip never misses the pool, batched or
/// one at a time; one at a time it does not even visit it — each side
/// sends in the buffer it last consumed. With no worker, the calling
/// thread allocates only what the routine and the batch's own `Vec`s
/// ask for.
fn reactor_is_allocation_free(workers: usize) {
    let n = 200;
    let proc_ = echo_proc(n);
    let net = Network::new(NetworkConfig::lan(), 23);
    let reg = returning(proc_.clone()).into_registry();
    let cfg = ServeConfig {
        workers_per_shard: workers,
        cache_entries: 4,
        ..ServeConfig::new(&[912])
    };
    let reactor = serve(&net, reg.clone(), cfg);
    let clnt = ClntUdp::create_pooled(&net, 5602, 912, ECHO_PROG, ECHO_VERS, reg.pool().clone());
    let mut client = SpecClient::from_parts(clnt, proc_);

    let data = workload(n);
    let args = client.args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();
    // Warm-up: pool, request buffer, result slots, dup cache.
    for _ in 0..10 {
        let path = client.call_into(&args, &mut out).unwrap();
        assert_eq!(path, PathUsed::Fast);
        assert_eq!(out.arrays[0], data);
    }
    let before = heap();
    let pool_before = reg.pool().stats();
    for round in 0..25 {
        let path = client.call_into(&args, &mut out).unwrap();
        assert_eq!(path, PathUsed::Fast, "round {round}");
        assert_eq!(out.arrays[0], data, "round {round}");
    }
    if workers == 0 {
        assert_eq!(
            heap_since(before),
            (25 * ROUTINE, 25 * ROUTINE),
            "the reactor must preserve the allocation-free steady state"
        );
    }
    // No hit, miss, return or drop: 25 calls made no pool round trip.
    assert_eq!(reg.pool().stats(), pool_before, "{workers} workers");

    // Batched steady state too: warm batch slots, and the dup cache's
    // reply log past its first 64 KiB segment (79 replies of 828 bytes,
    // filled in the 12th batch), then no pool miss.
    let batch: Vec<StubArgs> = (0..4)
        .map(|_| client.args(vec![], vec![data.clone()]))
        .collect();
    let mut outs: Vec<StubArgs> = (0..4).map(|_| StubArgs::default()).collect();
    for _ in 0..20 {
        client.call_batch_into(&batch, &mut outs).unwrap();
    }
    let before = heap();
    let misses_before = reg.pool().stats().misses;
    for _ in 0..10 {
        let paths = client.call_batch_into(&batch, &mut outs).unwrap();
        assert!(paths.iter().all(|p| *p == PathUsed::Fast));
        assert!(outs.iter().all(|o| o.arrays[0] == data));
    }
    if workers == 0 {
        // Per batch: four routine result sets, and the request, reply and
        // path `Vec`s of `call_batch_into`.
        let per_batch = 4 * ROUTINE + 3;
        assert_eq!(
            heap_since(before),
            (10 * per_batch, 10 * per_batch),
            "a warm pipelined batch must allocate nothing on the wire path"
        );
    }
    assert_eq!(
        reg.pool().stats().misses,
        misses_before,
        "{workers} workers"
    );
    assert!(reactor.total_events() >= 35);
}

#[test]
fn pooled_specialized_tcp_round_trip_allocates_zero_after_warmup() {
    // The stream lane held to the datagram lane's bar: the server answers
    // a whole record in place and returns the dispatched reply to the
    // shared pool, the client reads into a pooled buffer the facade
    // recycles, and the simulator reuses spent chunks — so a warm call
    // takes from the allocator only the routine's result set and never
    // misses the pool.
    use specrpc_rpc::svc_tcp::serve_tcp;
    use specrpc_rpc::ClntTcp;
    let n = 200;
    let proc_ = echo_proc(n);
    let net = Network::new(NetworkConfig::lan(), 29);
    let reg = returning(proc_.clone()).into_registry();
    serve_tcp(&net, 913, reg.clone());
    let clnt = ClntTcp::create_pooled(&net, 913, ECHO_PROG, ECHO_VERS, reg.pool().clone())
        .expect("connect");
    let mut client = SpecClient::from_parts(clnt, proc_);

    let data = workload(n);
    let args = client.args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();
    let cold = heap();
    for _ in 0..10 {
        let path = client.call_into(&args, &mut out).unwrap();
        assert_eq!(path, PathUsed::Fast);
        assert_eq!(out.arrays[0], data);
    }
    assert!(heap_since(cold).0 > 10 * ROUTINE, "warm-up allocates once");

    let before = heap();
    let pool_before = reg.pool().stats();
    for round in 0..25 {
        let path = client.call_into(&args, &mut out).unwrap();
        assert_eq!(path, PathUsed::Fast, "round {round}");
        assert_eq!(out.arrays[0], data, "round {round}");
    }
    assert_eq!(heap_since(before), (25 * ROUTINE, 25 * ROUTINE));
    let pool = reg.pool().stats();
    assert_eq!(pool.misses, pool_before.misses, "no take missed the pool");
    // Per call: the server's reply image and the client's receive buffer.
    assert_eq!(pool.hits - pool_before.hits, 2 * 25);
    assert_eq!(pool.recycled - pool_before.recycled, 2 * 25);
    assert_eq!(pool.overflow_drops, 0);
    assert_eq!(reg.raw_dispatches(), 35);
}

#[test]
fn retransmission_reuses_the_request_image_without_rebuilding() {
    // A per-try timeout shorter than the ≈400 µs round trip forces a
    // retransmission on every call (the dup cache replays the duplicate,
    // so semantics stay exactly-once).
    // Retries re-send the rewound pooled request image instead of cloning
    // it — with no packet loss every buffer stays in the recycle loop, so
    // even a permanently-retransmitting client allocates nothing once
    // warm. (Under real loss, dropped datagrams do leak buffers out of
    // the cycle — those allocations are honest NIC-refill costs.)
    use specrpc_netsim::SimTime;
    let n = 50;
    let proc_ = echo_proc(n);
    let net = Network::new(NetworkConfig::lan(), 4242);
    let reg = returning(proc_.clone()).into_registry();
    let cfg = ServeConfig {
        cache_entries: 8,
        ..ServeConfig::new(&[911])
    };
    serve(&net, reg.clone(), cfg).detach();
    let mut clnt =
        ClntUdp::create_pooled(&net, 5601, 911, ECHO_PROG, ECHO_VERS, reg.pool().clone());
    clnt.retry_timeout = SimTime::from_micros(250);
    clnt.total_timeout = SimTime::from_millis(2_000);
    let mut client = SpecClient::from_parts(clnt, proc_);

    let data = workload(n);
    let args = client.args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();
    for _ in 0..15 {
        client.call_into(&args, &mut out).unwrap();
        assert_eq!(out.arrays[0], data);
    }
    let retransmits_warm = client.transport_mut().retransmits;
    assert!(
        retransmits_warm > 0,
        "the short timeout must have forced retries"
    );

    // Steady state: retransmissions keep happening; allocations beyond
    // the routine's (which the dup cache's replay does not rerun) do not.
    let before = heap();
    for _ in 0..20 {
        client.call_into(&args, &mut out).unwrap();
        assert_eq!(out.arrays[0], data);
    }
    assert!(
        client.transport_mut().retransmits > retransmits_warm,
        "still retransmitting in the measured window"
    );
    assert_eq!(
        heap_since(before),
        (20 * ROUTINE, 20 * ROUTINE),
        "retransmissions must not allocate once the pool is warm"
    );
}

#[test]
fn a_refused_offer_is_served_by_the_pool_the_shard_refills() {
    // Two shards, no workers, raw endpoints that drop their replies (what
    // `run_scale` drives): nothing ever recycles into the registry's own
    // pool. Calls alternate an 8- and a 256-element procedure on one
    // address, so each reply is offered the other shape's request buffer
    // and refuses it; what it draws instead must come from the shard's
    // pool, where the displaced request buffers go.
    use specrpc::echo::{echo_handler, generic_encode_request};
    const IDL: &str = r#"
        const MAXARR = 100000;
        struct int_arr { int arr<MAXARR>; };
        program ARRAYPROG {
            version ARRAYVERS {
                int_arr ECHO(int_arr) = 1;
                int_arr ECHO_LARGE(int_arr) = 2;
            } = 1;
        } = 0x20000101;
    "#;
    let net = Network::new(NetworkConfig::lan(), 31);
    let mut service = SpecService::new();
    for (proc_num, n) in [(1, 8), (2, 256)] {
        let proc_ = ProcPipeline::new(n).build_from_idl(IDL, None, proc_num);
        service = service.proc_in_place(Arc::new(proc_.unwrap()), echo_handler);
    }
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::new(&[920, 921])
    };
    let served = serve(&net, service.into_registry(), cfg);
    let ep = net.bind_udp(6000);
    let mut enc = XdrMem::encoder(2048);
    let mut call = |xid: u32| {
        let (proc_num, n) = [(1, 8), (2, 256)][xid as usize % 2];
        let len = generic_encode_request(&mut enc, xid, &mut workload(n)).unwrap();
        let mut request = enc.bytes()[..len].to_vec();
        request[20..24].copy_from_slice(&u32::to_be_bytes(proc_num));
        ep.send_to(920, request);
        let reply = ep.recv_timeout(specrpc_netsim::SimTime::from_millis(50));
        assert_eq!(reply.expect("answered").payload.len(), 28 + 4 * n);
    };
    (0..16).for_each(&mut call);
    let warm = served.registry().pool().stats();
    (16..80).for_each(&mut call);
    assert_eq!(served.registry().pool().stats().misses, warm.misses);
    assert_eq!(served.registry().raw_dispatches(), 80);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The zero-copy decode lane (fused bulk plan over the received
    /// bytes) produces results structurally identical to the generic
    /// `XdrStream` lane for arbitrary payloads and sizes.
    #[test]
    fn zero_copy_decode_lane_matches_generic_lane(
        data in prop::collection::vec(any::<i32>(), 1..300),
        xid in any::<u32>(),
    ) {
        let n = data.len();
        let proc_ = ProcPipeline::new(n).build_from_idl(ECHO_IDL, None, ECHO_PROC).unwrap();

        // A reply wire image, produced by the server-side encode stub.
        let enc = &proc_.server_encode;
        let mut reply = vec![0u8; enc.wire_len];
        let mut counts = OpCounts::new();
        let mut full = StubArgs::new(vec![xid as i32], vec![data.clone()]);
        full.scalars.truncate(1);
        let r = run_encode(&enc.program, &mut reply, &full, &mut counts).unwrap();
        prop_assert!(matches!(r, Outcome::Done { ret: 1, .. }));

        // Lane 1: zero-copy fused decode.
        let dec = &proc_.client_decode;
        let mut fast = StubArgs::new(
            vec![0; dec.layout.scalar_count as usize],
            vec![Vec::new(); dec.layout.array_count as usize],
        );
        let r = run_decode(&dec.program, &reply, &mut fast, reply.len(), &mut counts).unwrap();
        prop_assert!(matches!(r, Outcome::Done { ret: 1, .. }));

        // Lane 2: the layered generic decoder over the same bytes.
        let mut gx = XdrMem::decoder(&reply);
        let hdr = ReplyHeader::decode(&mut gx).unwrap();
        prop_assert_eq!(hdr.xid, xid);
        let mut slow = StubArgs::new(
            vec![0; dec.layout.scalar_count as usize],
            vec![Vec::new(); dec.layout.array_count as usize],
        );
        xdr_shape(
            &mut gx,
            &proc_.res_shape,
            reply_fields::COUNT as u16,
            &mut slow,
        ).unwrap();

        // Structurally identical results: same arrays, same user scalars.
        prop_assert_eq!(&fast.arrays, &slow.arrays);
        prop_assert_eq!(
            &fast.scalars[reply_fields::COUNT..],
            &slow.scalars[reply_fields::COUNT..]
        );
        prop_assert_eq!(&fast.arrays[0], &data);
        // And the generic stream really did pay the interpretation the
        // fused lane skipped.
        prop_assert!(gx.counts().dispatches > 0);
    }
}

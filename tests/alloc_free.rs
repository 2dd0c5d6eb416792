//! A warm specialized round trip touches the heap not at all — not the
//! wire path alone (`tests/zero_copy.rs` counts pool misses) but the
//! whole process: client stub, transport, simulator, dup cache, dispatch,
//! the service routine, and back, over UDP and over the record-marked
//! stream. The echo routine works in place ([`specrpc::SpecHandler`]);
//! the same loop against the returning convenience form,
//! [`SpecService::proc`], reads exactly the two allocations that form
//! costs. The NFS-like scenario, whose clients run compiled stubs too,
//! allocates as much, give or take a few, for a whole run at twice the
//! draws per client: none of its ops allocates.
//!
//! One test function: the counters are process-wide.

use specrpc::echo::{echo_service, workload, ECHO_IDL, ECHO_PROC, ECHO_PROG, ECHO_VERS};
use specrpc::scenario::{NFS_COMMIT, NFS_PORT, NFS_PROG, NFS_VERS, NFS_WRITE};
use specrpc::{
    deploy_nfs_service, run_nfs, NfsConfig, PathUsed, ProcPipeline, SpecClient, SpecService,
};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_rpc::msg::CallHeader;
use specrpc_rpc::{ClntTcp, ClntUdp, CoalescePolicy, SvcRegistry, Transport};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting what is asked of it.
struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is an allocation a reused slot should not make.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const WARM_UP: u64 = 4_096;
const CALLS: u64 = 1_000;

/// The echo procedure compiled for `n` elements.
fn echo_proc(n: usize) -> Arc<specrpc::CompiledProc> {
    let proc_ = ProcPipeline::new(n).build_from_idl(ECHO_IDL, None, ECHO_PROC);
    Arc::new(proc_.unwrap())
}

/// `(allocations, frees)` of [`CALLS`] warm echo round trips at `n`
/// elements against `service` deployed through `serve_udp`.
fn steady_state(
    n: usize,
    service: impl FnOnce(Arc<specrpc::CompiledProc>) -> SpecService,
) -> (u64, u64) {
    let proc_ = echo_proc(n);
    let port = 940;
    let net = Network::new(NetworkConfig::lan(), 29);
    let registry = service(proc_.clone()).serve_udp(&net, port);
    let pool = registry.pool().clone();
    let clnt = ClntUdp::create_pooled(&net, 5700, port, ECHO_PROG, ECHO_VERS, pool);
    round_trips(n, &registry, SpecClient::from_parts(clnt, proc_))
}

/// [`steady_state`] of the in-place echo over the record-marked stream:
/// `serve_tcp` and a pooled `ClntTcp`.
fn tcp_steady_state(n: usize) -> (u64, u64) {
    let proc_ = echo_proc(n);
    let port = 941;
    let net = Network::new(NetworkConfig::lan(), 29);
    let registry = echo_service(proc_.clone()).serve_tcp(&net, port);
    let pool = registry.pool().clone();
    let clnt = ClntTcp::create_pooled(&net, port, ECHO_PROG, ECHO_VERS, pool).unwrap();
    round_trips(n, &registry, SpecClient::from_parts(clnt, proc_))
}

/// `(allocations, frees)` of [`CALLS`] echo round trips at `n` elements
/// through `client`, after [`WARM_UP`] of them.
fn round_trips<T: Transport>(
    n: usize,
    registry: &SvcRegistry,
    mut client: SpecClient<T>,
) -> (u64, u64) {
    let data = workload(n);
    let args = client.args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();
    let mut round_trip = || {
        assert_eq!(client.call_into(&args, &mut out), Ok(PathUsed::Fast));
        assert!(out.arrays[0] == data);
    };
    // Warm-up: both sides' slots and buffers, and the dup cache — its
    // 256-entry window fills first, then its reply log settles on the
    // segments it recycles (a 64 KiB segment holds 600 replies at n = 20,
    // and the last allocation falls near call 3 000).
    (0..WARM_UP).for_each(|_| round_trip());
    let counted = || {
        (
            ALLOCS.load(Ordering::Relaxed),
            FREES.load(Ordering::Relaxed),
        )
    };
    let before = counted();
    (0..CALLS).for_each(|_| round_trip());
    let after = counted();
    assert_eq!(registry.raw_dispatches(), WARM_UP + CALLS);
    (after.0 - before.0, after.1 - before.1)
}

const ENVELOPES: u64 = 500;

/// `(allocations, frees)` of [`ENVELOPES`] warm envelope round trips — 8
/// one-way WRITEs sealed by a sync COMMIT, `nfs_mix`'s burst — through a
/// coalescing client against the NFS-like service.
fn coalesced_steady_state() -> (u64, u64) {
    let net = Network::new(NetworkConfig::lan(), 31);
    let registry = deploy_nfs_service(32).unwrap().serve_udp(&net, NFS_PORT);
    let pool = registry.pool().clone();
    let clnt = ClntUdp::create_pooled(&net, 5800, NFS_PORT, NFS_PROG, NFS_VERS, pool);
    let mut clnt = clnt.with_coalescing(CoalescePolicy::ethernet());
    // Encoded once; each call stamps its xid in.
    let encode = |proc_num, args: &[i32]| {
        let mut enc = XdrMem::encoder(64);
        let mut header = CallHeader::new(0, NFS_PROG, NFS_VERS, proc_num);
        CallHeader::xdr(&mut enc, &mut header).unwrap();
        for &arg in args {
            xdr_int(&mut enc, &mut { arg }).unwrap();
        }
        enc.into_bytes()
    };
    let mut writes: Vec<_> = (0..8)
        .map(|b| encode(NFS_WRITE, &[1, 64 * b, 64]))
        .collect();
    let mut commit = encode(NFS_COMMIT, &[1]);
    let mut round_trip = || {
        for write in &mut writes {
            let xid = clnt.next_xid();
            write[..4].copy_from_slice(&xid.to_be_bytes());
            clnt.call_oneway(write, xid).unwrap();
        }
        let xid = clnt.next_xid();
        commit[..4].copy_from_slice(&xid.to_be_bytes());
        let reply = Transport::call(&mut clnt, &commit, xid).unwrap();
        assert_eq!(
            reply[reply.len() - 4..],
            8i32.to_be_bytes(),
            "eight writes committed"
        );
        clnt.recycle(reply);
    };
    // Warm-up as for echo: nine records an envelope settle the dup cache
    // in the same number of calls.
    (0..WARM_UP / 9 + 1).for_each(|_| round_trip());
    let counted = || {
        (
            ALLOCS.load(Ordering::Relaxed),
            FREES.load(Ordering::Relaxed),
        )
    };
    let before = counted();
    (0..ENVELOPES).for_each(|_| round_trip());
    let after = counted();
    assert_eq!(registry.raw_dispatches(), 9 * (WARM_UP / 9 + 1 + ENVELOPES));
    assert_eq!(
        clnt.coalesce_stats().unwrap().flushes_sync,
        WARM_UP / 9 + 1 + ENVELOPES,
        "each COMMIT sealed its WRITEs into one datagram"
    );
    (after.0 - before.0, after.1 - before.1)
}

/// Allocations of one whole `run_nfs` pass — compiling, deploying, every
/// client and the report — at `nfs_mix`'s shape: 8 clients of `draws` op
/// draws each, seed 7.
fn nfs_run_allocations(draws: usize) -> u64 {
    let cfg = NfsConfig {
        clients: 8,
        ops_per_client: draws,
        seed: 7,
        ..NfsConfig::smoke()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = run_nfs(&cfg).unwrap();
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.sync_calls, 8 * draws as u64);
    allocations
}

#[test]
fn a_warm_round_trip_neither_allocates_nor_frees() {
    assert_eq!(coalesced_steady_state(), (0, 0), "coalesced envelope");
    // The NFS mix as the scenario drives it: twice the draws, the same
    // allocations give or take a few, so no op allocates.
    let (short, long) = (nfs_run_allocations(2_000), nfs_run_allocations(4_000));
    assert!(
        long.abs_diff(short) <= 16,
        "run_nfs: {short} allocations at 2 000 draws a client, {long} at 4 000"
    );
    for n in [20, 2000] {
        assert_eq!(steady_state(n, echo_service), (0, 0), "in place, n = {n}");
        assert_eq!(tcp_steady_state(n), (0, 0), "over TCP, n = {n}");
        // What the convenience form costs: the cloned array and the
        // result set's `Vec` of arrays, and the two they displace.
        let returning = |proc_| {
            SpecService::new().proc(proc_, |a: &StubArgs| {
                StubArgs::new(vec![], vec![a.arrays[0].clone()])
            })
        };
        let per_call = (2 * CALLS, 2 * CALLS);
        assert_eq!(steady_state(n, returning), per_call, "returning, n = {n}");
    }
}

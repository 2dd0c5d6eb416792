//! The per-call cost vector: one table of exact counts, the noise-free
//! referee beside `benchmark/`'s wall clock.
//!
//! One row per `BENCHMARK.json` workload, built as the benchmark builds
//! it (seed 7, smoke-sized), then one row per configuration whose counts
//! an earlier test pinned on its own. Each cell is an exact integer over
//! the row's warm window (`window` calls, envelopes or batches, after
//! [`WARM`] of them); `nfs_mix` and `scale_open` run as one monolithic
//! pass each, so their rows are the difference between two run lengths
//! and `window` is the difference in ops.
//!
//! Columns:
//! - `allocs`, `frees`, `bytes`: what the whole process asked of the
//!   allocator (a counting `#[global_allocator]`; a `realloc` counts as an
//!   allocation of its new size);
//! - `takes`, `misses`, `puts`: `BufPool::take` calls, the takes that
//!   allocated, and `BufPool::put` calls (kept or dropped), summed over
//!   the pools the row's deployment uses;
//! - `datagrams`, `fragments`: the link's counters; `retransmits`: the
//!   UDP client's;
//! - `stub_ops`, `mem_moves`: the client's `OpCounts`;
//! - `dispatches`: what one call of the procedure runs its four stubs as:
//!   one kernel call for a stub its kernel runs whole, one dispatch per
//!   plan step for a stub the executor runs (not a window count).
//!
//! `_` marks a counter the row's deployment does not expose: `run_nfs`
//! and `run_scale` own their clients and pools, a stream client never
//! retransmits, and a row that runs several procedures has no one stub set.
//!
//! A change that moves a count updates its row below, in the same diff,
//! with the reason. A mismatch prints the whole computed table in the
//! table's own syntax.
//!
//! One test function: the allocator's counters are process-wide.

use specrpc::echo::{
    build_echo_proc, workload, EchoBench, Mode, TcpEchoBench, ECHO_PORT, ECHO_PROG, ECHO_VERS,
};
use specrpc::scenario::{NFS_COMMIT, NFS_PORT, NFS_PROG, NFS_VERS, NFS_WRITE};
use specrpc::{
    deploy_nfs_service, run_nfs, run_scale, CompiledProc, NfsConfig, PathUsed, ScaleConfig,
    SpecClient, SpecService,
};
use specrpc_netsim::net::{LinkStats, Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::msg::CallHeader;
use specrpc_rpc::{
    serve, BufPool, ClntTcp, ClntUdp, CoalescePolicy, PoolStats, ServeConfig, Transport,
};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::OpCounts;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting what is asked of it.
struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is relaxed atomic counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The benchmark's seed for the workload rows.
const SEED: u64 = 7;
/// Calls before a row's window: the benchmark's echo warm-up. It fills
/// both sides' slots and buffers and the dup cache, whose reply log
/// settles on the segments it recycles near call 3 000 at n = 20.
const WARM: u64 = 5_000;
/// Calls in an echo row's window.
const CALLS: u64 = 1_000;
/// The datagram mishaps `echo250_lossy` runs under.
const LOSSY: FaultConfig = FaultConfig {
    loss: 0.03,
    duplicate: 0.05,
    reorder: 0.05,
};

const COLUMNS: [&str; 12] = [
    "allocs",
    "frees",
    "bytes",
    "takes",
    "misses",
    "puts",
    "datagrams",
    "fragments",
    "retransmits",
    "stub_ops",
    "mem_moves",
    "dispatches",
];

#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    name: &'static str,
    window: u64,
    cells: [Option<i64>; 12],
}

macro_rules! cell {
    (_) => {
        None
    };
    ($v:literal) => {
        Some($v)
    };
    (($v:literal)) => {
        Some($v)
    };
}

macro_rules! row {
    ($name:literal, $window:literal: $($c:tt)*) => {
        Row { name: $name, window: $window, cells: [$(cell!($c)),*] }
    };
}

/// The pinned table. Reasons beside the rows that are not all zeros:
/// - the returning form (`proc_returning_*`, the `returning`/`tcp200`
///   rows, `batch4`, `echo250_lossy`) allocates its result set, 2 a call;
/// - `echo2000_generic`: the layered client's argument copy and decoded
///   array, 2 a call (its encoder buffer is the client's, made once, and
///   the reply's buffer carries the next request, so the pool is not
///   touched);
/// - `echo250_lossy`: lost and duplicated datagrams take buffers out of
///   the cycle, and the dup cache replays;
/// - `nfs_mix`: a longer run allocates 6 fewer times, so no op allocates;
/// - `scale_open`: the per-request template clone and the endpoint, about
///   2.1 a client;
/// - the stream rows take and put a receive buffer and a reply image a
///   call;
/// - `batch4`: the request, reply and path `Vec`s of each batch, 3 more;
/// - `retransmit_250us`: every call resends once; the resent image is
///   the one the client encoded;
/// - `nfs_envelope`: the COMMIT's reply and the envelope's request
///   buffer, one take and one put each an envelope (the eight WRITEs'
///   unsent replies reuse one spare buffer);
/// - `dispatches`: every generated stub runs as one kernel call, 4 a call.
#[rustfmt::skip]
fn pinned() -> Vec<Row> {
    vec![
        //   name, window:                 allocs frees      bytes takes misses puts dgrams frags retx  stub_ops   mem_moves runs
        row!("echo20_udp", 1_000:              0     0          0     0     0     0 2_000 2_000     0    66_000    232_000  4),
        row!("echo2000_udp", 1_000:            0     0          0     0     0     0 2_000 2_000     0 4_026_000 16_072_000  4),
        row!("echo2000_generic", 1_000:    2_000 2_000 16_000_000     0     0     0 2_000 2_000     0         0 16_072_000  4),
        row!("echo2000_tcp", 1_000:            0     0          0 2_000     0 2_000     0     0     _ 4_026_000 16_072_000  4),
        row!("echo250_lossy", 1_000:       2_146 2_104  1_175_704   273     0   306 2_273 2_273   127   526_000  2_072_000  4),
        row!("nfs_mix", 12_336:             (-6)     0     (-384)     _     _     _ 8_000 8_000     _         _          _  _),
        row!("scale_open", 2_000:          4_215 3_922  7_204_292     _     _     _ 4_000 4_000     _         _          _  _),
        row!("proc_returning_20", 1_000:   2_000 2_000    104_000     0     0     0 2_000 2_000     0    66_000    232_000  4),
        row!("proc_returning_2000", 1_000: 2_000 2_000  8_024_000     0     0     0 2_000 2_000     0 4_026_000 16_072_000  4),
        row!("echo20_tcp", 1_000:              0     0          0 2_000     0 2_000     0     0     _    66_000    232_000  4),
        row!("tcp200_returning", 1_000:    2_000 2_000    824_000 2_000     0 2_000     0     0     _   426_000  1_672_000  4),
        row!("returning200_cache4", 1_000: 2_000 2_000    824_000     0     0     0 2_000 2_000     0   426_000  1_672_000  4),
        row!("batch4", 250:                2_750 2_750    865_000   750     0   750 2_000 2_000     0   426_000  1_672_000  4),
        row!("retransmit_250us", 1_000:    2_000 2_000    224_000 2_000     0 2_000 4_000 4_000 1_000   126_000    472_000  4),
        row!("nfs_envelope", 500:              0     0          0 1_000     0 1_000 1_000 1_000     0         _          _  _),
    ]
}

/// Every counter a row reads, at one instant.
#[derive(Clone, Copy)]
struct Snapshot {
    heap: [u64; 3],
    pool: Option<PoolStats>,
    link: LinkStats,
    retransmits: Option<u64>,
    counts: Option<OpCounts>,
}

impl Snapshot {
    fn new(
        pools: &[&Arc<BufPool>],
        net: &Network,
        retransmits: Option<u64>,
        counts: Option<OpCounts>,
    ) -> Snapshot {
        let pool = pools.iter().fold(PoolStats::default(), |sum, p| {
            let s = p.stats();
            PoolStats {
                hits: sum.hits + s.hits,
                misses: sum.misses + s.misses,
                recycled: sum.recycled + s.recycled,
                overflow_drops: sum.overflow_drops + s.overflow_drops,
            }
        });
        Snapshot {
            heap: heap(),
            pool: Some(pool),
            link: net.link_stats(),
            retransmits,
            counts,
        }
    }

    /// The allocator's and the link's counters alone (a scenario that
    /// owns everything else).
    fn scenario(link: LinkStats) -> Snapshot {
        Snapshot {
            heap: heap(),
            pool: None,
            link,
            retransmits: None,
            counts: None,
        }
    }

    /// Every window column, in [`COLUMNS`] order.
    fn cells(&self) -> [Option<u64>; 11] {
        let [allocs, frees, bytes] = self.heap.map(Some);
        let pool = |f: fn(&PoolStats) -> u64| self.pool.as_ref().map(f);
        let counts = |f: fn(&OpCounts) -> u64| self.counts.as_ref().map(f);
        [
            allocs,
            frees,
            bytes,
            pool(|p| p.hits + p.misses),
            pool(|p| p.misses),
            pool(|p| p.recycled + p.overflow_drops),
            Some(self.link.datagrams),
            Some(self.link.fragments),
            self.retransmits,
            counts(|c| c.stub_ops),
            counts(|c| c.mem_moves),
        ]
    }

    /// The row of the window from `before` to `self`.
    fn since(&self, before: &Snapshot, name: &'static str, window: u64, runs: Option<u64>) -> Row {
        let (after, before) = (self.cells(), before.cells());
        let mut cells = [None; 12];
        for (cell, (a, b)) in cells.iter_mut().zip(after.into_iter().zip(before)) {
            *cell = a.zip(b).map(|(a, b)| a as i64 - b as i64);
        }
        cells[11] = runs.map(|r| r as i64);
        Row {
            name,
            window,
            cells,
        }
    }
}

fn heap() -> [u64; 3] {
    [&ALLOCS, &FREES, &BYTES].map(|c| c.load(Ordering::Relaxed))
}

/// What a call of `proc_` runs its four stubs as: a kernel call each, or
/// a dispatch per plan step for a stub without a kernel.
fn dispatches(proc_: &CompiledProc) -> Option<u64> {
    let stubs = [
        &proc_.client_encode,
        &proc_.client_decode,
        &proc_.server_decode,
        &proc_.server_encode,
    ];
    let runs = stubs.map(|s| match s.program.has_kernel() {
        true => 1,
        false => s.program.plan.len() as u64,
    });
    Some(runs.iter().sum())
}

fn echo_proc(n: usize) -> Arc<CompiledProc> {
    Arc::new(build_echo_proc(n, None).expect("specialize echo"))
}

/// What a UDP client has resent so far.
fn udp_retransmits(clnt: &mut ClntUdp) -> Option<u64> {
    Some(clnt.retransmits)
}

/// A stream client never resends.
fn no_retransmits(_: &mut ClntTcp) -> Option<u64> {
    None
}

/// The row of [`CALLS`] checked echo round trips through `client`,
/// after [`WARM`] of them.
fn echo_row<T: Transport>(
    name: &'static str,
    n: usize,
    client: &mut SpecClient<T>,
    net: &Network,
    pools: &[&Arc<BufPool>],
    retransmits: fn(&mut T) -> Option<u64>,
) -> Row {
    let data = workload(n);
    let args = client.args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();
    let mut call = |client: &mut SpecClient<T>| {
        assert_eq!(
            client.call_into(&args, &mut out),
            Ok(PathUsed::Fast),
            "{name}"
        );
        assert!(out.arrays[0] == data, "{name}: echoed wrong data");
    };
    (0..WARM).for_each(|_| call(client));
    let read = |client: &mut SpecClient<T>| {
        let retx = retransmits(client.transport_mut());
        Snapshot::new(pools, net, retx, Some(client.counts))
    };
    let before = read(client);
    (0..CALLS).for_each(|_| call(client));
    read(client).since(&before, name, CALLS, dispatches(client.compiled()))
}

/// `echo20_udp` and `echo2000_udp`: `EchoBench`'s in-place echo over
/// UDP, its client sharing the registry's pool.
fn echo_udp(name: &'static str, n: usize) -> Row {
    let mut bench = EchoBench::new(n, None, SEED).expect("deploy echo over UDP");
    let pool = bench.registry.pool().clone();
    echo_row(
        name,
        n,
        &mut bench.spec,
        &bench.net,
        &[&pool],
        udp_retransmits,
    )
}

/// `echo2000_generic`: the layered client of the same deployment, which
/// draws on a pool of its own.
fn echo2000_generic() -> Row {
    let mut bench = EchoBench::new(2000, None, SEED).expect("deploy echo over UDP");
    let data = workload(2000);
    let call = |bench: &mut EchoBench| {
        let reply = bench.round_trip(Mode::Generic, &data);
        assert!(reply.is_ok_and(|r| r == data), "echo2000_generic");
    };
    (0..WARM).for_each(|_| call(&mut bench));
    let pools = [bench.registry.pool().clone(), bench.generic.pool().clone()];
    let read = |bench: &EchoBench| {
        let pools = [&pools[0], &pools[1]];
        let (retx, counts) = (bench.generic.retransmits, bench.generic.counts);
        Snapshot::new(&pools, &bench.net, Some(retx), Some(counts))
    };
    let before = read(&bench);
    (0..CALLS).for_each(|_| call(&mut bench));
    let runs = dispatches(bench.spec.compiled());
    read(&bench).since(&before, "echo2000_generic", CALLS, runs)
}

/// `echo2000_tcp` (and `echo20_tcp`): `TcpEchoBench`'s in-place echo
/// over the record-marked stream.
fn echo_tcp(name: &'static str, n: usize) -> Row {
    let mut bench = TcpEchoBench::new(n, None, SEED).expect("deploy echo over TCP");
    let pool = bench.registry.pool().clone();
    echo_row(
        name,
        n,
        &mut bench.spec,
        &bench.net,
        &[&pool],
        no_retransmits,
    )
}

/// The returning echo at `n` over UDP on `net`, its client sharing the
/// registry's pool: `echo250_lossy` (the benchmark's own deployment, over
/// a link that loses, duplicates and reorders) and `proc_returning_*`
/// (the in-place echo of `echo{20,2000}_udp` swapped for the returning
/// `SpecService::proc` form).
fn returning_udp(name: &'static str, n: usize, net: Network) -> Row {
    let proc_ = echo_proc(n);
    let registry = returning(proc_.clone()).serve_udp(&net, ECHO_PORT);
    let pool = registry.pool().clone();
    let clnt = ClntUdp::create_pooled(&net, 5002, ECHO_PORT, ECHO_PROG, ECHO_VERS, pool.clone());
    let mut client = SpecClient::from_parts(clnt, proc_);
    echo_row(name, n, &mut client, &net, &[&pool], udp_retransmits)
}

/// `nfs_mix`: the difference between `run_nfs` at the benchmark's shape
/// with twice the draws per client and with `draws`.
fn nfs_mix(draws: usize) -> Row {
    let run = |draws| {
        let cfg = NfsConfig {
            clients: 8,
            ops_per_client: draws,
            seed: SEED,
            ..NfsConfig::smoke()
        };
        let before = Snapshot::scenario(LinkStats::default());
        let report = run_nfs(&cfg).expect("nfs deployment");
        let row = Snapshot::scenario(report.link).since(&before, "nfs_mix", report.ops, None);
        assert_eq!(report.sync_calls, 8 * draws as u64);
        row
    };
    // Set-up as the benchmark's: one smoke-sized pass faults in every
    // code path.
    run_nfs(&NfsConfig {
        seed: SEED,
        ..NfsConfig::smoke()
    })
    .expect("nfs smoke pass");
    difference(run(draws), run(2 * draws))
}

/// `scale_open`: the difference between `run_scale` at the benchmark's
/// shape with twice the endpoints and with `clients`.
fn scale_open(clients: usize) -> Row {
    let run = |clients| {
        let cfg = ScaleConfig {
            seed: SEED,
            ..ScaleConfig::million().scaled_to(clients)
        };
        let before = Snapshot::scenario(LinkStats::default());
        let report = run_scale(&cfg).expect("scale deployment");
        assert_eq!(report.replies, clients as u64, "every endpoint answered");
        let ops = report.clients as u64;
        Snapshot::scenario(report.link).since(&before, "scale_open", ops, None)
    };
    // Set-up as the benchmark's: one smoke-sized pass.
    run_scale(&ScaleConfig {
        seed: SEED,
        ..ScaleConfig::smoke()
    })
    .expect("scale smoke pass");
    difference(run(clients), run(2 * clients))
}

/// `long` less `short`, cell by cell.
fn difference(short: Row, long: Row) -> Row {
    let mut cells = long.cells;
    for (cell, s) in cells.iter_mut().zip(short.cells) {
        *cell = cell.zip(s).map(|(l, s)| l - s);
    }
    Row {
        cells,
        window: long.window - short.window,
        ..long
    }
}

/// An echo whose routine returns a fresh result set.
fn returning(proc_: Arc<CompiledProc>) -> SpecService {
    SpecService::new().proc(proc_, |args: &StubArgs| {
        StubArgs::new(vec![], vec![args.arrays[0].clone()])
    })
}

/// The returning echo at `n` through `serve` behind a dup cache of
/// `cache_entries`, its client sharing the registry's pool.
fn returning_served(
    n: usize,
    cache_entries: usize,
) -> (Network, Arc<BufPool>, SpecClient<ClntUdp>) {
    let proc_ = echo_proc(n);
    let net = Network::new(NetworkConfig::lan(), SEED);
    let registry = returning(proc_.clone()).into_registry();
    let cfg = ServeConfig {
        cache_entries,
        ..ServeConfig::new(&[ECHO_PORT])
    };
    serve(&net, registry.clone(), cfg).detach();
    let pool = registry.pool().clone();
    let clnt = ClntUdp::create_pooled(&net, 5002, ECHO_PORT, ECHO_PROG, ECHO_VERS, pool.clone());
    (net, pool, SpecClient::from_parts(clnt, proc_))
}

/// `returning200_cache4` and `batch4`: the returning echo at n = 200
/// behind a 4-entry dup cache, first one call at a time, then in
/// pipelined batches of 4 (`window` batches).
fn returning200_and_batch4() -> [Row; 2] {
    let (net, pool, mut client) = returning_served(200, 4);
    let single = echo_row(
        "returning200_cache4",
        200,
        &mut client,
        &net,
        &[&pool],
        udp_retransmits,
    );

    let data = workload(200);
    let batch: Vec<StubArgs> = (0..4)
        .map(|_| client.args(vec![], vec![data.clone()]))
        .collect();
    let mut outs: Vec<StubArgs> = (0..4).map(|_| StubArgs::default()).collect();
    let mut call = |client: &mut SpecClient<ClntUdp>| {
        let paths = client.call_batch_into(&batch, &mut outs).unwrap();
        assert_eq!(paths, [PathUsed::Fast; 4], "batch4");
        assert!(outs.iter().all(|o| o.arrays[0] == data), "batch4");
    };
    let batches = CALLS / 4;
    (0..WARM / 4).for_each(|_| call(&mut client));
    let read = |client: &mut SpecClient<ClntUdp>| {
        let retx = client.transport_mut().retransmits;
        Snapshot::new(&[&pool], &net, Some(retx), Some(client.counts))
    };
    let before = read(&mut client);
    (0..batches).for_each(|_| call(&mut client));
    let runs = dispatches(client.compiled());
    [
        single,
        read(&mut client).since(&before, "batch4", batches, runs),
    ]
}

/// `retransmit_250us`: a per-try ceiling of 250 µs, under the ≈400 µs
/// round trip at n = 50, so calls resend and the dup cache replays.
fn retransmit_250us() -> Row {
    let (net, pool, mut client) = returning_served(50, 8);
    let clnt = client.transport_mut();
    clnt.retry_timeout = SimTime::from_micros(250);
    clnt.total_timeout = SimTime::from_millis(2_000);
    echo_row(
        "retransmit_250us",
        50,
        &mut client,
        &net,
        &[&pool],
        udp_retransmits,
    )
}

/// `tcp200_returning`: the returning echo at n = 200 over the stream.
fn tcp200_returning() -> Row {
    let proc_ = echo_proc(200);
    let net = Network::new(NetworkConfig::lan(), SEED);
    let registry = returning(proc_.clone()).serve_tcp(&net, ECHO_PORT);
    let pool = registry.pool().clone();
    let clnt = ClntTcp::create_pooled(&net, ECHO_PORT, ECHO_PROG, ECHO_VERS, pool.clone())
        .expect("connect");
    let mut client = SpecClient::from_parts(clnt, proc_);
    echo_row(
        "tcp200_returning",
        200,
        &mut client,
        &net,
        &[&pool],
        no_retransmits,
    )
}

/// `nfs_envelope`: `nfs_mix`'s burst alone — 8 one-way WRITEs sealed by
/// a sync COMMIT — through a coalescing client against the NFS-like
/// service (`window` envelopes).
fn nfs_envelope() -> Row {
    const ENVELOPES: u64 = 500;
    let net = Network::new(NetworkConfig::lan(), SEED);
    let registry = deploy_nfs_service(32)
        .expect("nfs deployment")
        .serve_udp(&net, NFS_PORT);
    let pool = registry.pool().clone();
    let clnt = ClntUdp::create_pooled(&net, 5800, NFS_PORT, NFS_PROG, NFS_VERS, pool.clone());
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
    let mut envelope = |clnt: &mut ClntUdp| {
        for write in &mut writes {
            let xid = clnt.next_xid();
            write[..4].copy_from_slice(&xid.to_be_bytes());
            clnt.call_oneway(write, xid).unwrap();
        }
        let xid = clnt.next_xid();
        commit[..4].copy_from_slice(&xid.to_be_bytes());
        let reply = Transport::call(clnt, &commit, xid).unwrap();
        assert_eq!(reply[reply.len() - 4..], 8i32.to_be_bytes(), "eight writes");
        clnt.recycle(reply);
    };
    // Nine records an envelope settle the dup cache in as many calls.
    let warm = WARM / 9 + 1;
    (0..warm).for_each(|_| envelope(&mut clnt));
    let read = |clnt: &ClntUdp| Snapshot::new(&[&pool], &net, Some(clnt.retransmits), None);
    let before = read(&clnt);
    (0..ENVELOPES).for_each(|_| envelope(&mut clnt));
    let row = read(&clnt).since(&before, "nfs_envelope", ENVELOPES, None);
    let flushes = clnt.coalesce_stats().unwrap().flushes_sync;
    assert_eq!(flushes, warm + ENVELOPES, "each COMMIT sealed its WRITEs");
    row
}

/// The table in [`pinned`]'s syntax, one column width per column.
fn render(rows: &[Row]) -> String {
    let text: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let head = [format!("{:?}, {}:", r.name, group(r.window as i64))];
            head.into_iter().chain(r.cells.map(show)).collect()
        })
        .collect();
    let width = |i: usize| text.iter().map(|t| t[i].len()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..text[0].len()).map(width).collect();
    let mut out = String::new();
    for t in &text {
        let _ = write!(out, "        row!({:<w$}", t[0], w = widths[0]);
        for (cell, w) in t.iter().zip(&widths).skip(1) {
            let _ = write!(out, " {cell:>w$}");
        }
        out.push_str("),\n");
    }
    out
}

/// A cell as [`pinned`] spells it.
fn show(cell: Option<i64>) -> String {
    match cell {
        None => "_".into(),
        Some(v) if v < 0 => format!("({})", group(v)),
        Some(v) => group(v),
    }
}

/// `v` with its digits grouped in threes: `16_072_000`.
fn group(v: i64) -> String {
    let digits = v.unsigned_abs().to_string();
    let mut out = String::from(if v < 0 { "-" } else { "" });
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(d);
    }
    out
}

#[test]
fn every_row_costs_what_its_pin_says() {
    let (lan, lossy) = (NetworkConfig::lan, NetworkConfig::lan().with_faults(LOSSY));
    let mut computed = vec![
        echo_udp("echo20_udp", 20),
        echo_udp("echo2000_udp", 2000),
        echo2000_generic(),
        echo_tcp("echo2000_tcp", 2000),
        returning_udp("echo250_lossy", 250, Network::new(lossy, SEED)),
        nfs_mix(500),
        scale_open(2_000),
        returning_udp("proc_returning_20", 20, Network::new(lan(), SEED)),
        returning_udp("proc_returning_2000", 2000, Network::new(lan(), SEED)),
        echo_tcp("echo20_tcp", 20),
        tcp200_returning(),
    ];
    computed.extend(returning200_and_batch4());
    computed.push(retransmit_250us());
    computed.push(nfs_envelope());

    let pinned = pinned();
    let mut wrong = Vec::new();
    for (got, want) in computed.iter().zip(&pinned) {
        assert_eq!(got.name, want.name, "rows in pinned order");
        if got.window != want.window {
            wrong.push(format!(
                "{}: window {} (pinned {})",
                got.name, got.window, want.window
            ));
        }
        for (i, (g, w)) in got.cells.iter().zip(want.cells).enumerate() {
            if *g != w {
                let (g, w) = (show(*g), show(w));
                wrong.push(format!("{}: {} {g} (pinned {w})", got.name, COLUMNS[i]));
            }
        }
    }
    if computed.len() != pinned.len() {
        wrong.push(format!(
            "{} rows computed, {} pinned",
            computed.len(),
            pinned.len()
        ));
    }
    assert!(
        wrong.is_empty(),
        "cost vector moved:\n  {}\ncomputed table:\n{}",
        wrong.join("\n  "),
        render(&computed)
    );
}

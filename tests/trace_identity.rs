//! The datagram lane's referee: virtual-time traces pinned to constants.
//!
//! Every number below was captured on the commit *before* the simulator's
//! delivery path was fused into single lock acquisitions, so a refactor of
//! `specrpc-netsim` / `specrpc-rpc` that moves a modeled nanosecond, a
//! fault-stream draw or a counter fails here — in tier-1, not only in the
//! outside-in benchmark. The workload is the benchmark's `echo250_lossy`
//! (3% loss, 5% duplication, 5% reordering) through every config of
//! the one serving core; below it, one exact row per scenario config —
//! the virtual-time numbers the retry, failover, batching and
//! coalescing code must keep producing.

use specrpc::echo::{
    build_echo_proc, echo_service, workload, BatchEchoBench, EchoBench, Mode, ECHO_PROG, ECHO_VERS,
};
use specrpc::{
    run_chaos_matrix, run_congestion_matrix, run_nfs, run_scale, ChaosConfig, CompiledProc,
    CongestionConfig, Invariants, NfsConfig, ScaleConfig, SpecClient, SpecService, StubCache,
};
use specrpc_netsim::net::{Addr, LinkStats, Network, NetworkConfig};
use specrpc_netsim::{ChaosSchedule, FaultConfig, Platform, SimTime};
use specrpc_rpc::{serve, ClntUdp, ServeConfig};
use specrpc_tempo::compile::StubArgs;
use std::sync::Arc;

const N: usize = 250;
const CALLS: usize = 20_000;
const SEED: u64 = 42;
const FAULTS: FaultConfig = FaultConfig {
    loss: 0.03,
    duplicate: 0.05,
    reorder: 0.05,
};
const PORTS: [Addr; 8] = [700, 701, 702, 703, 704, 705, 706, 707];

/// Everything a run leaves behind that the simulator or the RPC layer
/// computed (no wall-clock field).
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    now_ns: u64,
    bytes_sent: u64,
    datagrams_sent: u64,
    link: LinkStats,
    retransmits: u64,
}

fn lossy_net() -> Network {
    Network::new(NetworkConfig::lan().with_faults(FAULTS), SEED)
}

fn echo_proc() -> Arc<CompiledProc> {
    Arc::new(build_echo_proc(N, None).expect("specialize echo"))
}

/// The echo service, its executions reported to a fresh observer on
/// `net`.
fn observed_service(net: &Network, proc_: &Arc<CompiledProc>) -> (SpecService, Arc<Invariants>) {
    let invariants = Invariants::new(net);
    let service = echo_service(proc_.clone()).observed(&invariants, PORTS[0]);
    (service, invariants)
}

/// `CALLS` checked echo calls rotating over one client per port, each
/// executed once — or again only where a restart excuses it.
fn drive(
    net: &Network,
    ports: &[Addr],
    proc_: &Arc<CompiledProc>,
    invariants: &Invariants,
) -> Trace {
    let mut clients: Vec<SpecClient<ClntUdp>> = ports
        .iter()
        .enumerate()
        .map(|(i, &port)| {
            let clnt = ClntUdp::create(net, 5000 + i as Addr, port, ECHO_PROG, ECHO_VERS);
            SpecClient::from_parts(clnt, proc_.clone())
        })
        .collect();
    let data: Vec<i32> = (0..N as i32).map(|k| k * 7 - 3).collect();
    let args = clients[0].args(vec![], vec![data.clone()]);
    let mut out = StubArgs::default();
    for i in 0..CALLS {
        let clnt = &mut clients[i % ports.len()];
        clnt.call_into(&args, &mut out)
            .unwrap_or_else(|e| panic!("call {i}: {e}"));
        assert_eq!(out.arrays[0], data, "call {i} echoed wrong data");
    }
    let repeats = invariants.repeats();
    assert!(repeats.iter().all(|r| r.across_restart()), "{repeats:?}");
    assert_eq!(invariants.runs(), (CALLS + repeats.len()) as u64);
    Trace {
        now_ns: net.now().as_nanos(),
        bytes_sent: net.bytes_sent(),
        datagrams_sent: net.datagrams_sent(),
        link: net.link_stats(),
        retransmits: clients
            .iter_mut()
            .map(|c| c.transport_mut().retransmits)
            .sum(),
    }
}

/// What 20 000 sequential calls leave behind on seed 42. Calls never
/// overlap and every request has the same size, so the fault stream, the
/// clock and the counters are the same whatever shards and workers
/// serve. How many ports the calls rotate over matters: each port has its
/// own client, and each client times its retries from its own round-trip
/// estimate, so `ports` clients learn it `ports` times over. A lost
/// datagram costs about two round trips, and a reply that the reorder
/// delay holds back past the estimate is resent.
const fn pinned(ports: usize) -> Trace {
    let (now_ns, bytes_sent, datagrams, queue_depth_high_water, retransmits) = match ports {
        1 => (14_596_824_115, 47_054_268, 45_423, 1, 2_464),
        _ => (14_610_367_509, 47_018_980, 45_389, 3, 2_443),
    };
    Trace {
        now_ns,
        bytes_sent,
        datagrams_sent: datagrams,
        link: LinkStats {
            queue_drops: 0,
            queue_depth_high_water,
            datagrams,
            fragments: datagrams,
        },
        retransmits,
    }
}

#[test]
fn blocking_slot_trace_is_pinned() {
    let (net, proc_) = (lossy_net(), echo_proc());
    let (service, invariants) = observed_service(&net, &proc_);
    service.serve_udp(&net, PORTS[0]);
    assert_eq!(drive(&net, &PORTS[..1], &proc_, &invariants), pinned(1));
}

#[test]
fn zero_worker_reactor_is_the_blocking_slot() {
    // `SpecService::serve_udp` above, the rpc entry at one shard and no
    // workers held by its handle, and the one-port case of the sharded
    // pin below are one deployment: the trace `serve_udp` has always
    // left, every delivery on the driving thread.
    let (net, proc_) = (lossy_net(), echo_proc());
    let (service, invariants) = observed_service(&net, &proc_);
    let served = serve(&net, service.into_registry(), ServeConfig::new(&PORTS[..1]));
    assert_eq!(drive(&net, &PORTS[..1], &proc_, &invariants), pinned(1));
    assert_eq!(served.driver_inline_events(), served.total_events());
}

#[test]
fn restartable_reactor_trace_is_pinned() {
    // A crash window early in the run, riding the same fault stream, and
    // every served address comes back from a restart. The call in flight
    // at the crash resends on a doubling timer, so eight datagrams die at
    // the dead address and the call rides the window out. No call is
    // executed twice: a retry timed from the round trip leaves no
    // answered-but-lost call waiting out the crash for its reply. A
    // restart's amnesia stays pinned by `chaos/failover/lossy` below and
    // by `restart_amnesia_duplicate_execution_count_is_exact` in
    // `tests/faults.rs`.
    let (net, proc_) = (lossy_net(), echo_proc());
    let (service, invariants) = observed_service(&net, &proc_);
    let _served = serve(&net, service.into_registry(), ServeConfig::new(&PORTS[..1]));
    net.apply_chaos(&ChaosSchedule::new().crash_window(
        PORTS[0],
        SimTime::from_millis(2_234),
        SimTime::from_millis(250),
    ));
    let trace = drive(&net, &PORTS[..1], &proc_, &invariants);
    let stats = net.chaos_stats();
    assert_eq!((stats.crashes, stats.restarts, stats.drops_down), (1, 1, 8));
    assert_eq!(
        trace,
        Trace {
            now_ns: 15_079_896_207,
            bytes_sent: 47_060_548,
            datagrams_sent: 45_429,
            link: LinkStats {
                queue_drops: 0,
                queue_depth_high_water: 1,
                datagrams: 45_429,
                fragments: 45_429,
            },
            retransmits: 2_471,
        }
    );
    let amnesia = invariants.repeats();
    assert!(amnesia.is_empty(), "no call re-run: {amnesia:?}");
}

#[test]
fn event_loop_trace_is_pinned() {
    let proc_ = echo_proc();
    for workers in [1, 2] {
        let net = lossy_net();
        let (service, invariants) = observed_service(&net, &proc_);
        let cfg = ServeConfig {
            workers_per_shard: workers,
            ..ServeConfig::new(&PORTS[..1])
        };
        let service = serve(&net, service.into_registry(), cfg);
        let trace = drive(&net, &PORTS[..1], &proc_, &invariants);
        drop(service);
        assert_eq!(trace, pinned(1), "{workers} workers");
    }
}

#[test]
fn sharded_loop_trace_is_pinned() {
    let proc_ = echo_proc();
    for shards in [1, 2, 8] {
        let net = lossy_net();
        let (service, invariants) = observed_service(&net, &proc_);
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::new(&PORTS)
        };
        let service = serve(&net, service.into_registry(), cfg);
        let trace = drive(&net, &PORTS, &proc_, &invariants);
        drop(service);
        assert_eq!(trace, pinned(PORTS.len()), "{shards} shards");
    }
}

// ---------------------------------------------------------------------
// The scenario rows (`batched/*`, `scale/p99/8`, `cold/*`,
// `congestion/*`, `chaos/*`, `nfs/*`, the names CHANGES.md and the
// README use): virtual time cannot vary, so each is an equality. The
// first field of every tuple is the row's number, the rest are exact
// fields of the same report — a `LatencyHistogram` p99 is a ≈6%-wide
// bucket and never stands alone. A PR that moves modeled behaviour on
// purpose edits the constant and says why in the same diff.
// ---------------------------------------------------------------------

const FAULT_COLUMNS: [(&str, FaultConfig); 2] =
    [("clean", FaultConfig::NONE), ("lossy", FaultConfig::LOSSY)];

/// `nfs/{coalesced,per-call}/smoke`.
#[test]
fn nfs_smoke_trace_is_pinned() {
    let link = |datagrams| LinkStats {
        queue_drops: 0,
        queue_depth_high_water: 1,
        datagrams,
        fragments: datagrams,
    };
    for (mode, cfg, elapsed_ns, datagrams, p99_ns) in [
        ("coalesced", NfsConfig::smoke(), 217_238_400, 640, 999_424),
        (
            "per-call",
            NfsConfig::smoke().per_call(),
            251_208_640,
            1_304,
            1_409_024,
        ),
    ] {
        let report = run_nfs(&cfg).expect("nfs deployment");
        assert_eq!(
            (
                report.elapsed.as_nanos(),
                report.link,
                (report.ops, report.sync_calls, report.oneway_writes),
                (report.latency.p99().as_nanos(), report.latency.count()),
            ),
            (elapsed_ns, link(datagrams), (984, 320, 664), (p99_ns, 320)),
            "nfs/{mode}/smoke"
        );
    }
}

/// `batched/{1,4,16,64}/2000`: amortized virtual time per call of one
/// pipelined batch, the same on every batch and — the single-driver
/// identity — whether a reactor worker or the calling thread delivers.
#[test]
fn batched_rows_are_pinned() {
    for (batch, per_call_ns) in [(1, 1_957_200), (4, 971_940), (16, 725_625), (64, 664_046)] {
        for workers in [1, 0] {
            let mut bench = BatchEchoBench::new(2000, batch, workers, SEED).expect("deploy");
            for round in 0..3 {
                let start = bench.net.now();
                let calls = bench.round_trips().expect("batch") as u64;
                let elapsed = bench.net.now() - start;
                assert_eq!(
                    (calls, elapsed.as_nanos() / calls),
                    (batch as u64, per_call_ns),
                    "batched/{batch}/2000, {workers} worker(s), batch {round}"
                );
            }
            assert_eq!(
                (bench.spec.fast_calls, bench.service.total_events()),
                (3 * batch as u64, 3 * batch as u64),
                "batched/{batch}/2000, {workers} worker(s)"
            );
        }
    }
}

/// `scale/p99/8`: the open loop at 200 endpoints over eight shards.
#[test]
fn scale_p99_row_is_pinned() {
    let mut cfg = ScaleConfig::smoke().scaled_to(200);
    cfg.shards = 8;
    cfg.ports_per_shard = 1;
    let report = run_scale(&cfg).expect("scale run");
    assert_eq!(
        (
            report.latency.p99().as_nanos(),
            report.elapsed.as_nanos(),
            (report.replies, report.timeouts, report.unbound_drops),
            report.link,
        ),
        (
            562_000,
            40_086_522,
            (200, 0, 0),
            LinkStats {
                queue_drops: 0,
                queue_depth_high_water: 1,
                datagrams: 400,
                fragments: 400,
            },
        )
    );
}

/// `cold/{n}`: what a shape nobody has compiled costs its first caller —
/// one Tempo run (`modeled_compile_ns`, charged by the `StubCache` miss)
/// plus one specialized round trip — beside one generic round trip of the
/// same shape, under the IPX/SunOS/ATM CPU costs. A first call stays
/// under 2× the generic call at every size, and from n ≈ 90 up compiling
/// *and* calling specialized costs less than one generic call: the
/// numbers compile-on-first-use rests on.
#[test]
fn cold_first_calls_are_pinned() {
    // (n, compile + specialized round trip, generic round trip)
    for (n, cold_ns, generic_ns) in [
        (1, 642_520, 394_860),
        (8, 656_240, 427_900),
        (16, 671_920, 465_660),
        (24, 687_600, 503_420),
        (32, 703_280, 541_180),
        (40, 718_960, 578_940),
        (48, 734_640, 616_700),
        (56, 750_320, 654_460),
        (64, 766_000, 692_220),
        (72, 781_680, 729_980),
        (80, 797_360, 767_740),
        (88, 813_040, 805_500),
        (96, 828_720, 843_260),
        (104, 844_400, 881_020),
        (112, 860_080, 918_780),
        (120, 875_760, 956_540),
        (250, 1_130_560, 1_570_140),
        (2000, 4_560_560, 9_830_140),
    ] {
        let cache = StubCache::new();
        let mut bench = EchoBench::new_cached(n, None, SEED, &cache).expect("deploy");
        bench.model_cpu(Platform::IpxSunosAtm);
        let data = workload(n);
        let specialized = bench.timed_round_trips(Mode::Specialized, &data, 1);
        let generic = bench.timed_round_trips(Mode::Generic, &data, 1);
        assert_eq!(
            (
                cache.stats().compile_ns_total + specialized.expect("call").as_nanos(),
                generic.expect("call").as_nanos(),
            ),
            (cold_ns, generic_ns),
            "cold/{n}"
        );
        assert!(cold_ns <= 2 * generic_ns, "cold/{n}");
    }
}

/// `congestion/{fixed,expbackoff,paced}/{clean,lossy}`: virtual time
/// until the overloaded burst settles.
#[test]
fn congestion_rows_are_pinned() {
    // (settle, completed, failed, retransmits, queue drops, p99)
    let want = [
        (7_504_581, 48, 0, 119, 86, 6_422_528),
        (7_764_581, 48, 0, 67, 57, 6_684_672),
        (5_904_845, 48, 0, 24, 23, 4_849_664),
        (9_388_816, 46, 2, 136, 81, 8_406_715),
        (39_164_581, 48, 0, 76, 49, 38_182_480),
        (9_736_587, 48, 0, 35, 14, 8_650_752),
    ];
    let mut want = want.into_iter();
    for (faults, fault_cfg) in FAULT_COLUMNS {
        let cfg = CongestionConfig::smoke().with_faults(fault_cfg);
        for report in run_congestion_matrix(&cfg).expect("congestion matrix") {
            assert_eq!(
                Some((
                    report.elapsed.as_nanos(),
                    report.completed,
                    report.failed,
                    report.retransmits,
                    report.link.queue_drops,
                    report.latency.p99().as_nanos(),
                )),
                want.next(),
                "congestion/{}/{faults}",
                report.policy_label()
            );
        }
    }
    assert_eq!(want.next(), None, "three strategies x two fault columns");
}

/// `chaos/{failover,no-failover}/{clean,lossy}`: virtual time until the
/// run and its crash schedule have played out.
#[test]
fn chaos_rows_are_pinned() {
    // (elapsed, availability bp, completed, failed, crash → recovery,
    // failovers, breaker trips, extra executions, p99). Extra executions
    // are the calls the observer saw run more than once; `lossy`
    // without failover was 1 while they were runs − completed, which
    // counts a call that ran once and then failed: its 189 runs are 189
    // distinct xids.
    //
    // A lone call's retries are timed from its procedure's smoothed round
    // trip, with `retry_timeout` (2 ms here) as the ceiling: a lost
    // datagram is resent after about two round trips, and the doubled
    // wait carries to the procedure's next call until one is answered
    // on its first try. The lossy runs end sooner. The classic client's
    // resends fall at other instants around the restart than a fixed
    // 2 ms timer's, which sets its recovery. A failover client spends its
    // budget of two resends sooner than three fixed 2 ms tries, so under
    // loss more calls give up and fail over, and a call that fails over
    // after running is run twice.
    let want = [
        (99_365_000, 10_000, 192, 0, 5_550_000, 5, 5, 0, 5_373_952),
        (101_040_000, 9_843, 189, 3, 31_550_000, 0, 0, 0, 368_640),
        (367_806_327, 9_895, 192, 0, 11_903_906, 10, 10, 6, 8_650_752),
        (355_307_109, 9_791, 188, 4, 32_163_676, 0, 0, 0, 6_422_528),
    ];
    let mut want = want.into_iter();
    for (faults, fault_cfg) in FAULT_COLUMNS {
        let cfg = ChaosConfig::smoke().with_faults(fault_cfg);
        for report in run_chaos_matrix(&cfg).expect("chaos matrix") {
            let recovery = report.recovery.expect("a call completes after the crash");
            assert_eq!(
                Some((
                    report.elapsed.as_nanos(),
                    report.availability_bp(),
                    report.completed,
                    report.failed,
                    recovery.as_nanos(),
                    report.failovers,
                    report.breaker_trips,
                    report.extra_executions,
                    report.latency.p99().as_nanos(),
                )),
                want.next(),
                "chaos/{}/{faults}",
                report.mode_label()
            );
        }
    }
    assert_eq!(want.next(), None, "two client modes x two fault columns");
}

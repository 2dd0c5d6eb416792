//! The datagram lane's referee: virtual-time traces pinned to constants.
//!
//! Every number below was captured on the commit *before* the simulator's
//! delivery path was fused into single lock acquisitions, so a refactor of
//! `specrpc-netsim` / `specrpc-rpc` that moves a modeled nanosecond, a
//! fault-stream draw or a counter fails here — in tier-1, not only in the
//! outside-in benchmark. The workload is the benchmark's `echo250_lossy`
//! (3% loss, 5% duplication, 5% reordering) through every spelling of
//! the one serving core, plus the NFS mix.

use specrpc::echo::{build_echo_proc, ECHO_PROG, ECHO_VERS};
use specrpc::{run_nfs, CompiledProc, NfsConfig, SpecClient, SpecService};
use specrpc_netsim::net::{Addr, LinkStats, Network, NetworkConfig};
use specrpc_netsim::{ChaosSchedule, FaultConfig, SimTime};
use specrpc_rpc::{serve, ClntUdp, ServeConfig};
use specrpc_tempo::compile::StubArgs;
use std::sync::atomic::{AtomicU64, Ordering};
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
    handler_runs: u64,
}

fn lossy_net() -> Network {
    Network::new(NetworkConfig::lan().with_faults(FAULTS), SEED)
}

fn echo_proc() -> Arc<CompiledProc> {
    Arc::new(build_echo_proc(N, None).expect("specialize echo"))
}

fn counting_service(proc_: &Arc<CompiledProc>, runs: &Arc<AtomicU64>) -> SpecService {
    let counter = runs.clone();
    SpecService::new().proc(proc_.clone(), move |args: &StubArgs| {
        counter.fetch_add(1, Ordering::Relaxed);
        StubArgs::new(vec![], vec![args.arrays[0].clone()])
    })
}

/// `CALLS` checked echo calls rotating over one client per port.
fn drive(net: &Network, ports: &[Addr], proc_: &Arc<CompiledProc>, runs: &AtomicU64) -> Trace {
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
    Trace {
        now_ns: net.now().as_nanos(),
        bytes_sent: net.bytes_sent(),
        datagrams_sent: net.datagrams_sent(),
        link: net.link_stats(),
        retransmits: clients
            .iter_mut()
            .map(|c| c.transport_mut().retransmits)
            .sum(),
        handler_runs: runs.load(Ordering::Relaxed),
    }
}

/// What 20 000 sequential calls leave behind on seed 42. Calls never
/// overlap and every request has the same size, so the fault stream, the
/// clock and the counters are the same whatever shards and workers
/// serve and however many ports the calls rotate over; only the deepest
/// receive queue differs.
const fn pinned(queue_depth_high_water: u64) -> Trace {
    Trace {
        now_ns: 247_070_437_362,
        bytes_sent: 44_338_132,
        datagrams_sent: 42_801,
        link: LinkStats {
            queue_drops: 0,
            queue_depth_high_water,
            datagrams: 42_801,
            fragments: 42_801,
        },
        retransmits: 1_169,
        handler_runs: 20_000,
    }
}

#[test]
fn blocking_slot_trace_is_pinned() {
    let (net, proc_) = (lossy_net(), echo_proc());
    let runs = Arc::new(AtomicU64::new(0));
    counting_service(&proc_, &runs).serve_udp(&net, PORTS[0]);
    assert_eq!(drive(&net, &PORTS[..1], &proc_, &runs), pinned(1));
}

#[test]
fn zero_worker_reactor_is_the_blocking_slot() {
    // `SpecService::serve_udp` above, the rpc entry at one shard and no
    // workers held by its handle, and the one-port case of the sharded
    // pin below are one deployment: the trace `serve_udp` has always
    // left, every delivery on the driving thread.
    let (net, proc_) = (lossy_net(), echo_proc());
    let runs = Arc::new(AtomicU64::new(0));
    let registry = counting_service(&proc_, &runs).into_registry();
    let served = serve(&net, registry, ServeConfig::new(&PORTS[..1]));
    assert_eq!(drive(&net, &PORTS[..1], &proc_, &runs), pinned(1));
    assert_eq!(served.driver_inline_events(), served.total_events());
}

#[test]
fn restartable_reactor_trace_is_pinned() {
    // A crash window early in the run, riding the same fault stream.
    // The constants are what the commit before the serving front-ends
    // were folded into one produced through its `serve_udp_restartable`
    // handler slot: two datagrams die at the dead address, the calls
    // ride it out on retransmission, and one of them is executed twice
    // because the restarted server has forgotten it.
    let (net, proc_) = (lossy_net(), echo_proc());
    let runs = Arc::new(AtomicU64::new(0));
    let registry = counting_service(&proc_, &runs).into_registry();
    let cfg = ServeConfig {
        restartable: true,
        ..ServeConfig::new(&PORTS[..1])
    };
    let _served = serve(&net, registry, cfg);
    net.apply_chaos(&ChaosSchedule::new().crash_window(
        PORTS[0],
        SimTime::from_millis(2_234),
        SimTime::from_millis(250),
    ));
    let trace = drive(&net, &PORTS[..1], &proc_, &runs);
    let stats = net.chaos_stats();
    assert_eq!((stats.crashes, stats.restarts, stats.drops_down), (1, 1, 2));
    assert_eq!(
        trace,
        Trace {
            now_ns: 247_470_523_802,
            bytes_sent: 44_340_220,
            datagrams_sent: 42_803,
            link: LinkStats {
                queue_drops: 0,
                queue_depth_high_water: 1,
                datagrams: 42_803,
                fragments: 42_803,
            },
            retransmits: 1_171,
            handler_runs: 20_001,
        }
    );
}

#[test]
fn event_loop_trace_is_pinned() {
    let proc_ = echo_proc();
    for workers in [1, 2] {
        let net = lossy_net();
        let runs = Arc::new(AtomicU64::new(0));
        let service = counting_service(&proc_, &runs).serve_event(&net, PORTS[0], workers);
        let trace = drive(&net, &PORTS[..1], &proc_, &runs);
        drop(service);
        assert_eq!(trace, pinned(1), "{workers} workers");
    }
}

#[test]
fn sharded_loop_trace_is_pinned() {
    let proc_ = echo_proc();
    for shards in [1, 2, 8] {
        let net = lossy_net();
        let runs = Arc::new(AtomicU64::new(0));
        let service = counting_service(&proc_, &runs).serve_sharded(&net, &PORTS, shards, 0);
        let trace = drive(&net, &PORTS, &proc_, &runs);
        drop(service);
        assert_eq!(trace, pinned(2), "{shards} shards");
    }
}

#[test]
fn nfs_smoke_trace_is_pinned() {
    let report = run_nfs(&NfsConfig::smoke()).expect("nfs deployment");
    assert_eq!(
        (
            report.elapsed.as_nanos(),
            report.link,
            (report.ops, report.sync_calls, report.oneway_writes),
            (report.latency.p99().as_nanos(), report.latency.count()),
        ),
        (
            217_238_400,
            LinkStats {
                queue_drops: 0,
                queue_depth_high_water: 1,
                datagrams: 640,
                fragments: 640,
            },
            (984, 320, 664),
            (999_424, 320),
        )
    );
}

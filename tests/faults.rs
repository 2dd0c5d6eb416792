//! Fault-injection conformance matrix: seeded loss / duplication /
//! reordering, over both transports, with at least 3 seeds per
//! configuration.
//!
//! What must hold (the retransmission cost the paper's tables model, made
//! into conformance properties):
//!
//! - **UDP**: every call completes under faults; loss forces
//!   retransmissions (observable via `ClntUdp::retransmits`); the reply
//!   *bytes* are identical to a fault-free run of the same call sequence
//!   (same xids, same data); and the user handler executes **exactly
//!   once per transaction** even when the network duplicates request
//!   datagrams — the server's duplicate-request cache replays, it never
//!   re-dispatches.
//! - **TCP**: the stream is modeled as a reliable pipe below the fault
//!   layer, so the *same seed* produces byte- and time-identical TCP
//!   traces with faults on or off, and TCP traffic never consumes the
//!   seeded UDP fault stream (regression for `FaultState::judge`
//!   duplicate verdicts being a UDP-only concept).

use specrpc::echo::{generic_encode_request, ECHO_IDL, ECHO_PROG, ECHO_VERS};
use specrpc::{ProcPipeline, SpecService};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{ChaosSchedule, FaultConfig, SimTime};
use specrpc_rpc::{ClntTcp, ClntUdp, ServeConfig, SvcRegistry, Transport};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::mem::XdrMem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 24;
const CALLS: usize = 12;
const SEEDS: [u64; 3] = [11, 22, 33];

fn configs() -> Vec<(&'static str, FaultConfig)> {
    vec![
        (
            "loss",
            FaultConfig {
                loss: 0.25,
                duplicate: 0.0,
                reorder: 0.0,
            },
        ),
        (
            "duplicate",
            FaultConfig {
                loss: 0.0,
                duplicate: 0.3,
                reorder: 0.0,
            },
        ),
        (
            "reorder",
            FaultConfig {
                loss: 0.0,
                duplicate: 0.0,
                reorder: 0.3,
            },
        ),
        ("mixed", FaultConfig::LOSSY),
    ]
}

struct RunResult {
    replies: Vec<Vec<u8>>,
    retransmits: u64,
    handler_runs: u64,
    end_time: SimTime,
}

/// Deploy the counting echo service on `net` over both transports.
fn deploy(net: &Network, udp_port: u32, tcp_port: u32) -> Arc<AtomicU64> {
    deploy_pinned(net, N, udp_port, tcp_port).0
}

/// [`deploy`] with the stubs compiled for `pinned`-element arrays. The
/// clients below send [`N`] elements, so any other `pinned` fails the
/// compiled decoder's length guard on every request and the generic
/// handler serves it (§6.2).
fn deploy_pinned(
    net: &Network,
    pinned: usize,
    udp_port: u32,
    tcp_port: u32,
) -> (Arc<AtomicU64>, Arc<SvcRegistry>) {
    let runs = Arc::new(AtomicU64::new(0));
    let r = runs.clone();
    let proc_ = Arc::new(
        ProcPipeline::new(pinned)
            .build_from_idl(ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let service = SpecService::new().proc(proc_, move |args: &StubArgs| {
        r.fetch_add(1, Ordering::Relaxed);
        StubArgs::new(vec![], vec![args.arrays[0].clone()])
    });
    let reg = service.into_registry();
    specrpc_rpc::serve(net, reg.clone(), ServeConfig::new(&[udp_port])).detach();
    specrpc_rpc::svc_tcp::serve_tcp(net, tcp_port, reg.clone());
    (runs, reg)
}

fn call_data(i: usize) -> Vec<i32> {
    (0..N).map(|k| (i * 1000 + k) as i32).collect()
}

fn run_udp(cfg: FaultConfig, seed: u64) -> RunResult {
    run_udp_pinned(cfg, seed, N).0
}

/// [`run_udp`] against stubs compiled for `pinned` elements; also
/// returns how many requests the generic handler served.
fn run_udp_pinned(cfg: FaultConfig, seed: u64, pinned: usize) -> (RunResult, u64) {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let (runs, reg) = deploy_pinned(&net, pinned, 700, 701);
    (drive_udp(&net, runs), reg.generic_dispatches())
}

/// Like [`run_udp`] but with a reactor worker (`serve_event`, one of
/// them) racing the driving thread for every delivery.
fn run_udp_event(cfg: FaultConfig, seed: u64) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let runs = Arc::new(AtomicU64::new(0));
    let r = runs.clone();
    let proc_ = Arc::new(
        ProcPipeline::new(N)
            .build_from_idl(ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let service = SpecService::new()
        .proc(proc_, move |args: &StubArgs| {
            r.fetch_add(1, Ordering::Relaxed);
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        })
        .serve_event(&net, 700, 1);
    let result = drive_udp(&net, runs);
    drop(service);
    result
}

/// `addr` served by one restartable, worker-less shard.
fn restartable(addr: u32) -> ServeConfig {
    ServeConfig {
        restartable: true,
        ..ServeConfig::new(&[addr])
    }
}

/// The shared client driver: CALLS sequential exchanges against the UDP
/// service at port 700.
fn drive_udp(net: &Network, runs: Arc<AtomicU64>) -> RunResult {
    let mut clnt = ClntUdp::create(net, 5000, 700, ECHO_PROG, ECHO_VERS);
    clnt.retry_timeout = SimTime::from_millis(20);
    clnt.total_timeout = SimTime::from_millis(60_000);
    let mut replies = Vec::new();
    for i in 0..CALLS {
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(1 << 16);
        let mut data = call_data(i);
        generic_encode_request(&mut enc, xid, &mut data).expect("encode");
        let reply = clnt
            .exchange(&enc.into_bytes(), xid)
            .unwrap_or_else(|e| panic!("call {i} under faults: {e}"));
        replies.push(reply);
    }
    RunResult {
        replies,
        retransmits: clnt.retransmits,
        handler_runs: runs.load(Ordering::Relaxed),
        end_time: net.now(),
    }
}

/// Like [`run_udp`] but serving **restartably** with a crash/restart
/// window armed mid-sequence: the server loses its mailbox and its
/// duplicate-request cache at `crash_at` and comes back `downtime`
/// later with a fresh (amnesiac) cache.
fn run_udp_chaos(cfg: FaultConfig, seed: u64, crash_at: SimTime, downtime: SimTime) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let runs = Arc::new(AtomicU64::new(0));
    let r = runs.clone();
    let proc_ = Arc::new(
        ProcPipeline::new(N)
            .build_from_idl(ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let reg = SpecService::new()
        .proc(proc_, move |args: &StubArgs| {
            r.fetch_add(1, Ordering::Relaxed);
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        })
        .into_registry();
    specrpc_rpc::serve(&net, reg, restartable(700)).detach();
    net.apply_chaos(&ChaosSchedule::new().crash_window(700, crash_at, downtime));
    drive_udp(&net, runs)
}

fn run_tcp(cfg: FaultConfig, seed: u64) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let runs = deploy(&net, 700, 701);
    let mut clnt = ClntTcp::create(&net, 701, ECHO_PROG, ECHO_VERS).expect("connect");
    let mut replies = Vec::new();
    for i in 0..CALLS {
        let xid = Transport::next_xid(&mut clnt);
        let mut enc = XdrMem::encoder(1 << 16);
        let mut data = call_data(i);
        generic_encode_request(&mut enc, xid, &mut data).expect("encode");
        let reply =
            Transport::call(&mut clnt, &enc.into_bytes(), xid).unwrap_or_else(|e| panic!("{e}"));
        replies.push(reply);
    }
    RunResult {
        replies,
        retransmits: 0,
        handler_runs: runs.load(Ordering::Relaxed),
        end_time: net.now(),
    }
}

#[test]
fn udp_fault_matrix_is_exactly_once_and_byte_identical() {
    for (name, cfg) in configs() {
        for seed in SEEDS {
            let clean = run_udp(FaultConfig::NONE, seed);
            let faulty = run_udp(cfg, seed);
            assert_eq!(
                clean.retransmits, 0,
                "{name}/{seed}: fault-free run must not retransmit"
            );
            assert_eq!(
                faulty.replies, clean.replies,
                "{name}/{seed}: reply bytes must match the fault-free run"
            );
            assert_eq!(
                faulty.handler_runs, CALLS as u64,
                "{name}/{seed}: handler must run exactly once per transaction"
            );
            assert_eq!(clean.handler_runs, CALLS as u64);
            if name == "loss" || name == "mixed" {
                assert!(
                    faulty.retransmits > 0,
                    "{name}/{seed}: loss must force retransmissions"
                );
                assert!(
                    faulty.end_time > clean.end_time,
                    "{name}/{seed}: retransmission must cost virtual time"
                );
            }
        }
    }
}

#[test]
fn compiled_and_generic_replies_are_identical_across_the_fault_matrix() {
    // The same raw client and requests against stubs pinned at N (every
    // request on the compiled path) and at N + 1 (every request fails the
    // guard and the generic handler serves it): which path marshals a
    // reply is invisible on the wire, clean or under faults.
    let clean = std::iter::once(("clean", FaultConfig::NONE));
    for (name, cfg) in clean.chain(configs()) {
        for seed in SEEDS {
            let (compiled, compiled_fallbacks) = run_udp_pinned(cfg, seed, N);
            let (generic, generic_fallbacks) = run_udp_pinned(cfg, seed, N + 1);
            assert_eq!(compiled_fallbacks, 0, "{name}/{seed}: N is the fast path");
            assert_eq!(
                generic_fallbacks, CALLS as u64,
                "{name}/{seed}: N + 1 fails every guard, once per transaction"
            );
            assert_eq!(
                compiled.replies, generic.replies,
                "{name}/{seed}: compiled and generic reply datagrams must match"
            );
            assert_eq!(compiled.handler_runs, CALLS as u64, "{name}/{seed}");
            assert_eq!(generic.handler_runs, CALLS as u64, "{name}/{seed}");
        }
    }
}

#[test]
fn udp_duplicated_datagrams_execute_handlers_exactly_once() {
    // Every datagram duplicated: the duplicate-request cache must absorb
    // the second delivery of each request — one handler run per call.
    let every_dup = FaultConfig {
        loss: 0.0,
        duplicate: 1.0,
        reorder: 0.0,
    };
    for seed in SEEDS {
        let r = run_udp(every_dup, seed);
        assert_eq!(
            r.handler_runs, CALLS as u64,
            "seed {seed}: duplicates must replay, not re-dispatch"
        );
        let clean = run_udp(FaultConfig::NONE, seed);
        assert_eq!(r.replies, clean.replies, "seed {seed}");
    }
}

#[test]
fn udp_event_reactor_fault_matrix_matches_the_blocking_path() {
    // The whole matrix again through `serve_event`: every conformance
    // property of the blocking path must survive the reactor — and the
    // traces must be IDENTICAL between the two serving modes (bytes,
    // handler runs, retransmits, and the virtual clock), because with a
    // single driver the event core is just a re-staging of the same
    // dispatch at the same virtual instants.
    for (name, cfg) in configs() {
        for seed in SEEDS {
            let blocking = run_udp(cfg, seed);
            let event = run_udp_event(cfg, seed);
            assert_eq!(
                event.replies, blocking.replies,
                "{name}/{seed}: reply bytes must match the blocking path"
            );
            assert_eq!(
                event.end_time, blocking.end_time,
                "{name}/{seed}: virtual time must match the blocking path"
            );
            assert_eq!(event.retransmits, blocking.retransmits, "{name}/{seed}");
            assert_eq!(
                event.handler_runs, CALLS as u64,
                "{name}/{seed}: handler must run exactly once per transaction"
            );
        }
    }
}

#[test]
fn udp_event_reactor_duplicates_execute_handlers_exactly_once() {
    let every_dup = FaultConfig {
        loss: 0.0,
        duplicate: 1.0,
        reorder: 0.0,
    };
    for seed in SEEDS {
        let r = run_udp_event(every_dup, seed);
        assert_eq!(
            r.handler_runs, CALLS as u64,
            "seed {seed}: duplicates must replay, not re-dispatch"
        );
        let clean = run_udp_event(FaultConfig::NONE, seed);
        assert_eq!(r.replies, clean.replies, "seed {seed}");
    }
}

#[test]
fn crash_restart_matrix_completed_calls_stay_byte_identical() {
    // The whole fault matrix again, now with the server crashing
    // mid-sequence and restarting 50 ms later. A patient client
    // (total timeout ≫ downtime) must ride out the outage: every call
    // completes, and the completed replies are byte-identical to a
    // fault-free, chaos-free run of the same call sequence — the crash
    // may cost time and duplicate executions, never data.
    let crash_at = SimTime::from_micros(500);
    let downtime = SimTime::from_millis(50);
    for (name, cfg) in configs() {
        for seed in SEEDS {
            let clean = run_udp(FaultConfig::NONE, seed);
            let chaotic = run_udp_chaos(cfg, seed, crash_at, downtime);
            assert_eq!(
                chaotic.replies, clean.replies,
                "{name}/{seed}: completed calls must match the fault-free run"
            );
            assert!(
                chaotic.retransmits > 0,
                "{name}/{seed}: the outage must force retransmissions"
            );
            assert!(
                chaotic.end_time > clean.end_time,
                "{name}/{seed}: the downtime must cost virtual time"
            );
            // Exactly-once degrades to at-least-once across the wipe:
            // never fewer runs than calls, and the surplus is bounded by
            // the requests the crash could have caught executed-but-
            // unreplied (the in-flight call, plus a stray duplicate).
            assert!(
                chaotic.handler_runs >= CALLS as u64,
                "{name}/{seed}: at-least-once must hold: {} runs",
                chaotic.handler_runs
            );
            assert!(
                chaotic.handler_runs <= CALLS as u64 + 4,
                "{name}/{seed}: amnesia duplicates stay bounded: {} runs",
                chaotic.handler_runs
            );
        }
    }
}

#[test]
fn restart_amnesia_duplicate_execution_count_is_exact() {
    // The duplicate-execution mechanism, pinned deterministically: a
    // completed call replayed across a crash/restart re-executes
    // exactly once (the restarted cache is empty), returns the same
    // bytes, and the rebuilt cache absorbs further replays.
    let net = Network::new(NetworkConfig::lan(), 5);
    let runs = Arc::new(AtomicU64::new(0));
    let r = runs.clone();
    let proc_ = Arc::new(
        ProcPipeline::new(N)
            .build_from_idl(ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let reg = SpecService::new()
        .proc(proc_, move |args: &StubArgs| {
            r.fetch_add(1, Ordering::Relaxed);
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        })
        .into_registry();
    specrpc_rpc::serve(&net, reg, restartable(700)).detach();

    let mut clnt = ClntUdp::create(&net, 5000, 700, ECHO_PROG, ECHO_VERS);
    clnt.retry_timeout = SimTime::from_millis(20);
    clnt.total_timeout = SimTime::from_millis(60_000);
    let xid = clnt.next_xid();
    let mut enc = XdrMem::encoder(1 << 16);
    let mut data = call_data(0);
    generic_encode_request(&mut enc, xid, &mut data).expect("encode");
    let request = enc.into_bytes();

    let first = clnt.exchange(&request, xid).expect("first call");
    assert_eq!(runs.load(Ordering::Relaxed), 1);

    net.crash(700);
    net.restart(700);
    let second = clnt.exchange(&request, xid).expect("replay across restart");
    assert_eq!(
        runs.load(Ordering::Relaxed),
        2,
        "the wiped cache must re-execute the replayed request"
    );
    assert_eq!(second, first, "re-execution must produce identical bytes");

    let third = clnt
        .exchange(&request, xid)
        .expect("same-incarnation replay");
    assert_eq!(
        runs.load(Ordering::Relaxed),
        2,
        "the rebuilt cache must absorb the replay without re-executing"
    );
    assert_eq!(third, first);
}

/// Like [`drive_udp`] but through a coalescing client: every sync call
/// is preceded by three one-way calls, so each round normally rides the
/// wire as ONE sealed envelope (3 one-way + 1 reply-expected message)
/// whose sync reply acknowledges the pipeline.
fn drive_coalesced(
    net: &Network,
    runs: Arc<AtomicU64>,
    policy: specrpc_rpc::CoalescePolicy,
) -> RunResult {
    let mut clnt = ClntUdp::create(net, 5000, 700, ECHO_PROG, ECHO_VERS).with_coalescing(policy);
    clnt.retry_timeout = SimTime::from_millis(20);
    clnt.total_timeout = SimTime::from_millis(60_000);
    let mut replies = Vec::new();
    for i in 0..CALLS {
        for j in 0..3 {
            let xid = clnt.next_xid();
            let mut enc = XdrMem::encoder(1 << 16);
            let mut data = call_data(i * 10 + j + 100);
            generic_encode_request(&mut enc, xid, &mut data).expect("encode");
            clnt.call_oneway(&enc.into_bytes(), xid)
                .unwrap_or_else(|e| panic!("one-way {i}/{j} under faults: {e}"));
        }
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(1 << 16);
        let mut data = call_data(i);
        generic_encode_request(&mut enc, xid, &mut data).expect("encode");
        let reply = clnt
            .exchange(&enc.into_bytes(), xid)
            .unwrap_or_else(|e| panic!("sync call {i} under faults: {e}"));
        replies.push(reply);
    }
    RunResult {
        replies,
        retransmits: clnt.retransmits,
        handler_runs: runs.load(Ordering::Relaxed),
        end_time: net.now(),
    }
}

fn run_coalesced(cfg: FaultConfig, seed: u64, policy: specrpc_rpc::CoalescePolicy) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let runs = deploy(&net, 700, 701);
    drive_coalesced(&net, runs, policy)
}

#[test]
fn coalesced_fault_matrix_replies_match_the_uncoalesced_path() {
    // The coalesced path under the whole fault matrix: sync replies are
    // byte-identical to (a) a fault-free coalesced run and (b) the
    // one-datagram-per-call baseline with the same xid stream — packing
    // sub-messages into envelopes changes wire economics, never bytes.
    // And every message (one-way or sync) still executes exactly once:
    // a retransmitting sync call replays its unacknowledged envelopes,
    // and the server's dup cache absorbs every inner xid.
    let messages = (CALLS * 4) as u64;
    for (name, cfg) in configs() {
        for seed in SEEDS {
            let clean = run_coalesced(
                FaultConfig::NONE,
                seed,
                specrpc_rpc::CoalescePolicy::ethernet(),
            );
            let per_call = run_coalesced(
                FaultConfig::NONE,
                seed,
                specrpc_rpc::CoalescePolicy::per_call(),
            );
            let faulty = run_coalesced(cfg, seed, specrpc_rpc::CoalescePolicy::ethernet());
            assert_eq!(clean.retransmits, 0, "{name}/{seed}");
            assert_eq!(
                faulty.replies, clean.replies,
                "{name}/{seed}: coalesced replies must match the fault-free run"
            );
            assert_eq!(
                per_call.replies, clean.replies,
                "{name}/{seed}: packing must not change reply bytes"
            );
            assert_eq!(
                faulty.handler_runs, messages,
                "{name}/{seed}: every sub-message exactly once"
            );
            assert_eq!(clean.handler_runs, messages, "{name}/{seed}");
            assert_eq!(per_call.handler_runs, messages, "{name}/{seed}");
            if name == "loss" || name == "mixed" {
                assert!(
                    faulty.retransmits > 0,
                    "{name}/{seed}: loss must force envelope replays"
                );
            }
        }
    }
}

#[test]
fn coalesced_envelopes_duplicated_execute_handlers_exactly_once() {
    // Satellite regression: a retransmitted/duplicated *coalesced*
    // datagram replays every inner xid through the duplicate-request
    // cache — the handlers never re-execute. With every datagram
    // duplicated, each envelope's second delivery unpacks to all-hit
    // cache replays (one-way replays are re-cached, not re-sent).
    let every_dup = FaultConfig {
        loss: 0.0,
        duplicate: 1.0,
        reorder: 0.0,
    };
    let messages = (CALLS * 4) as u64;
    for seed in SEEDS {
        let r = run_coalesced(every_dup, seed, specrpc_rpc::CoalescePolicy::ethernet());
        assert_eq!(
            r.handler_runs, messages,
            "seed {seed}: duplicated envelopes must replay, not re-dispatch"
        );
        let clean = run_coalesced(
            FaultConfig::NONE,
            seed,
            specrpc_rpc::CoalescePolicy::ethernet(),
        );
        assert_eq!(r.replies, clean.replies, "seed {seed}");
    }
}

#[test]
fn tcp_trace_is_byte_and_time_identical_under_faults() {
    // Satellite regression: `FaultState::judge()` verdicts (including
    // Duplicate) apply to UDP datagrams only. The TCP model is a reliable
    // ordered pipe *below* the fault layer, so the whole matrix — loss,
    // duplication, reordering — must leave the TCP byte stream AND its
    // virtual-time trace untouched: same replies, same clock, exactly one
    // handler run per record.
    for (name, cfg) in configs() {
        for seed in SEEDS {
            let clean = run_tcp(FaultConfig::NONE, seed);
            let faulty = run_tcp(cfg, seed);
            assert_eq!(
                faulty.replies, clean.replies,
                "{name}/{seed}: TCP replies must be byte-identical"
            );
            assert_eq!(
                faulty.end_time, clean.end_time,
                "{name}/{seed}: TCP timing must be unaffected by the fault model"
            );
            assert_eq!(faulty.handler_runs, CALLS as u64, "{name}/{seed}");
        }
    }
}

#[test]
fn tcp_traffic_does_not_consume_the_udp_fault_stream() {
    // The seeded verdict stream is a per-network resource; if TCP sends
    // consumed verdicts, UDP loss patterns would shift whenever TCP
    // traffic interleaves. Pin: the UDP survivor pattern is the same
    // whether or not TCP traffic ran first on the same seed.
    let cfg = FaultConfig {
        loss: 0.5,
        duplicate: 0.0,
        reorder: 0.0,
    };
    let survivor_pattern = |with_tcp: bool| -> Vec<bool> {
        let net = Network::new(NetworkConfig::lan().with_faults(cfg), 77);
        deploy(&net, 700, 701);
        if with_tcp {
            let mut clnt = ClntTcp::create(&net, 701, ECHO_PROG, ECHO_VERS).expect("connect");
            for i in 0..5 {
                let xid = Transport::next_xid(&mut clnt);
                let mut enc = XdrMem::encoder(1 << 16);
                let mut data = call_data(i);
                generic_encode_request(&mut enc, xid, &mut data).expect("encode");
                Transport::call(&mut clnt, &enc.into_bytes(), xid).expect("tcp call");
            }
        }
        let a = net.bind_udp(6000);
        let b = net.bind_udp(6001);
        (0..40u8)
            .map(|i| {
                a.send_to(6001, vec![i]);
                b.recv_timeout(SimTime::from_millis(5)).is_some()
            })
            .collect()
    };
    let without = survivor_pattern(false);
    let with = survivor_pattern(true);
    assert!(
        without.iter().any(|d| *d) && without.iter().any(|d| !*d),
        "pattern must mix losses and deliveries: {without:?}"
    );
    assert_eq!(
        with, without,
        "TCP traffic must not perturb the UDP fault stream"
    );
}

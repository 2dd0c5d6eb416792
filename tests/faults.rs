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
//!   re-dispatches. The [`Invariants`] observer referees it: it names
//!   every xid that ran twice, and which restart excused it.
//! - **TCP**: the stream is modeled as a reliable pipe below the fault
//!   layer, so the *same seed* produces byte- and time-identical TCP
//!   traces with faults on or off, and TCP traffic never consumes the
//!   seeded UDP fault stream (regression for `FaultState::judge`
//!   duplicate verdicts being a UDP-only concept).

use specrpc::echo::{echo_service, generic_encode_request, ECHO_IDL, ECHO_PROG, ECHO_VERS};
use specrpc::{Invariants, ProcPipeline, Repeat, SpecService};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{ChaosSchedule, FaultConfig, SimTime};
use specrpc_rpc::{ClntTcp, ClntUdp, ServeConfig, SvcRegistry, Transport};
use specrpc_xdr::mem::XdrMem;
use std::sync::Arc;

const N: usize = 24;
const CALLS: usize = 12;
const SEEDS: [u64; 3] = [11, 22, 33];

/// Every datagram delivered twice.
const EVERY_DUP: FaultConfig = faults(0.0, 1.0, 0.0);

/// A link with only these fault rates.
const fn faults(loss: f64, duplicate: f64, reorder: f64) -> FaultConfig {
    FaultConfig {
        loss,
        duplicate,
        reorder,
    }
}

fn configs() -> [(&'static str, FaultConfig); 4] {
    [
        ("loss", faults(0.25, 0.0, 0.0)),
        ("duplicate", faults(0.0, 0.3, 0.0)),
        ("reorder", faults(0.0, 0.0, 0.3)),
        ("mixed", FaultConfig::LOSSY),
    ]
}

struct RunResult {
    replies: Vec<Vec<u8>>,
    retransmits: u64,
    end_time: SimTime,
    invariants: Arc<Invariants>,
}

impl RunResult {
    /// Every one of `calls` calls ran, and ran again only on an
    /// incarnation that had lost its reply to a restart: without one,
    /// exactly once.
    fn assert_ran_once_per_incarnation(&self, calls: usize, what: &str) {
        let repeats = self.invariants.repeats();
        let twice: Vec<&Repeat> = repeats.iter().filter(|r| !r.across_restart()).collect();
        assert!(twice.is_empty(), "{what}: calls ran twice: {twice:?}");
        assert_eq!(
            self.invariants.runs(),
            (calls + repeats.len()) as u64,
            "{what}: a call never ran; amnesia re-runs {repeats:?}"
        );
    }
}

/// The echo service at `pinned` elements, reporting to a fresh observer
/// on `net` as port 700's. The clients below send [`N`] elements, so any
/// other `pinned` fails the compiled decoder's length guard on every
/// request and the generic handler serves it (§6.2).
fn observed_echo(net: &Network, pinned: usize) -> (SpecService, Arc<Invariants>) {
    let invariants = Invariants::new(net);
    let proc_ = ProcPipeline::new(pinned).build_from_idl(ECHO_IDL, None, 1);
    let service = echo_service(Arc::new(proc_.expect("pipeline")));
    (service.observed(&invariants, 700), invariants)
}

/// [`observed_echo`] over UDP as `cfg` says and over TCP at `tcp_port`.
fn deploy_with(
    net: &Network,
    pinned: usize,
    cfg: ServeConfig,
    tcp_port: u32,
) -> (Arc<Invariants>, Arc<SvcRegistry>) {
    let (service, invariants) = observed_echo(net, pinned);
    let reg = service.into_registry();
    specrpc_rpc::serve(net, reg.clone(), cfg).detach();
    specrpc_rpc::svc_tcp::serve_tcp(net, tcp_port, reg.clone());
    (invariants, reg)
}

/// The echo service pinned at [`N`] over both transports.
fn deploy(net: &Network, udp_port: u32, tcp_port: u32) -> Arc<Invariants> {
    deploy_with(net, N, ServeConfig::new(&[udp_port]), tcp_port).0
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
    let (invariants, reg) = deploy_with(&net, pinned, ServeConfig::new(&[700]), 701);
    (drive_udp(&net, invariants), reg.generic_dispatches())
}

/// Like [`run_udp`] but with a reactor worker (`workers_per_shard: 1`)
/// racing the driving thread for every delivery.
fn run_udp_event(cfg: FaultConfig, seed: u64) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let (service, invariants) = observed_echo(&net, N);
    let cfg = ServeConfig {
        workers_per_shard: 1,
        ..ServeConfig::new(&[700])
    };
    let service = specrpc_rpc::serve(&net, service.into_registry(), cfg);
    let result = drive_udp(&net, invariants);
    drop(service);
    result
}

/// The shared client driver: CALLS sequential exchanges against the UDP
/// service at port 700.
fn drive_udp(net: &Network, invariants: Arc<Invariants>) -> RunResult {
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
        end_time: net.now(),
        invariants,
    }
}

/// Like [`run_udp`] but with a crash/restart window armed
/// mid-sequence: the server loses its mailbox and its
/// duplicate-request cache at `crash_at` and comes back `downtime`
/// later with a fresh (amnesiac) cache.
fn run_udp_chaos(cfg: FaultConfig, seed: u64, crash_at: SimTime, downtime: SimTime) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let invariants = deploy(&net, 700, 701);
    net.apply_chaos(&ChaosSchedule::new().crash_window(700, crash_at, downtime));
    drive_udp(&net, invariants)
}

fn run_tcp(cfg: FaultConfig, seed: u64) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let invariants = deploy(&net, 700, 701);
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
        end_time: net.now(),
        invariants,
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
            faulty.assert_ran_once_per_incarnation(CALLS, &format!("{name}/{seed}"));
            clean.assert_ran_once_per_incarnation(CALLS, &format!("clean/{seed}"));
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
            compiled.assert_ran_once_per_incarnation(CALLS, &format!("{name}/{seed}, compiled"));
            generic.assert_ran_once_per_incarnation(CALLS, &format!("{name}/{seed}, generic"));
        }
    }
}

#[test]
fn udp_duplicated_datagrams_execute_handlers_exactly_once() {
    // Every datagram duplicated: the duplicate-request cache must absorb
    // the second delivery of each request — one handler run per call.
    for seed in SEEDS {
        let r = run_udp(EVERY_DUP, seed);
        r.assert_ran_once_per_incarnation(CALLS, &format!("seed {seed}: duplicates must replay"));
        let clean = run_udp(FaultConfig::NONE, seed);
        assert_eq!(r.replies, clean.replies, "seed {seed}");
    }
}

#[test]
fn udp_event_reactor_fault_matrix_matches_the_blocking_path() {
    // The whole matrix again with a reactor worker: every conformance
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
            event.assert_ran_once_per_incarnation(CALLS, &format!("{name}/{seed}"));
        }
    }
}

#[test]
fn udp_event_reactor_duplicates_execute_handlers_exactly_once() {
    for seed in SEEDS {
        let r = run_udp_event(EVERY_DUP, seed);
        r.assert_ran_once_per_incarnation(CALLS, &format!("seed {seed}: duplicates must replay"));
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
            // Exactly-once degrades to at-least-once across the wipe, and
            // only there: every call ran, and every run beyond one per
            // call is a re-run the restart excuses.
            chaotic.assert_ran_once_per_incarnation(CALLS, &format!("{name}/{seed}"));
        }
    }
}

#[test]
fn exactly_once_survives_a_seed_sweep_over_faults_and_crash_windows() {
    // The crash matrix above, swept: many seeds × the fault matrix ×
    // crash windows from the first call to mid-sequence, every run
    // refereed by the observer. CI runs it in release; a failure names
    // the seed, the config and the window, and the repeats by xid.
    let windows = [(200, 50_000), (1_100, 5_000), (2_900, 50_000)];
    let seeds = if cfg!(debug_assertions) { 0..4 } else { 0..256 };
    for seed in seeds {
        let clean = run_udp(FaultConfig::NONE, seed);
        for (name, cfg) in configs() {
            for (at_us, down_us) in windows {
                let (at, down) = (SimTime::from_micros(at_us), SimTime::from_micros(down_us));
                let what = format!("seed {seed}, {name}, crash at {at} for {down}");
                let chaotic = run_udp_chaos(cfg, seed, at, down);
                assert_eq!(chaotic.replies, clean.replies, "{what}");
                chaotic.assert_ran_once_per_incarnation(CALLS, &what);
            }
        }
    }
}

#[test]
fn a_cacheless_server_is_caught_running_duplicates() {
    // The referee refereed: with `cache_entries: 0` a duplicated request
    // re-dispatches, and the observer must name every xid that ran twice
    // in one incarnation — the same seeds with the cache name none.
    let dup = configs()[1].1;
    for seed in SEEDS {
        let net = Network::new(NetworkConfig::lan().with_faults(dup), seed);
        let cacheless = ServeConfig {
            cache_entries: 0,
            ..ServeConfig::new(&[700])
        };
        let (invariants, _) = deploy_with(&net, N, cacheless, 701);
        let r = drive_udp(&net, invariants);
        let violations = r.invariants.violations();
        assert!(
            !violations.is_empty(),
            "seed {seed}: duplicates went unseen"
        );
        assert_eq!(
            r.invariants.runs(),
            (CALLS + violations.len()) as u64,
            "seed {seed}: every run past one per call is named"
        );
        let called: Vec<&[u8]> = r.replies.iter().map(|reply| &reply[..4]).collect();
        for v in &violations {
            let xid = v.again.xid.to_be_bytes();
            assert!(called.contains(&&xid[..]), "seed {seed}: {v:?}");
        }
        run_udp(dup, seed).assert_ran_once_per_incarnation(CALLS, &format!("seed {seed}, cached"));
    }
}

#[test]
fn restart_amnesia_duplicate_execution_count_is_exact() {
    // The duplicate-execution mechanism, pinned deterministically: a
    // completed call replayed across a crash/restart re-executes
    // exactly once (the restarted cache is empty), returns the same
    // bytes, and the rebuilt cache absorbs further replays.
    let net = Network::new(NetworkConfig::lan(), 5);
    let invariants = deploy(&net, 700, 701);

    let mut clnt = ClntUdp::create(&net, 5000, 700, ECHO_PROG, ECHO_VERS);
    clnt.retry_timeout = SimTime::from_millis(20);
    clnt.total_timeout = SimTime::from_millis(60_000);
    let xid = clnt.next_xid();
    let mut enc = XdrMem::encoder(1 << 16);
    let mut data = call_data(0);
    generic_encode_request(&mut enc, xid, &mut data).expect("encode");
    let request = enc.into_bytes();

    let first = clnt.exchange(&request, xid).expect("first call");
    assert_eq!(invariants.runs(), 1);

    net.crash(700);
    net.restart(700);
    let second = clnt.exchange(&request, xid).expect("replay across restart");
    let repeats = invariants.repeats();
    assert_eq!(
        repeats
            .iter()
            .map(|r| (r.again.xid, r.earlier.restarts, r.again.restarts))
            .collect::<Vec<_>>(),
        [(xid, 0, 1)],
        "the wiped cache must re-execute the replayed request, once"
    );
    assert!(repeats[0].across_restart());
    assert_eq!(second, first, "re-execution must produce identical bytes");

    let third = clnt
        .exchange(&request, xid)
        .expect("same-incarnation replay");
    assert_eq!(
        invariants.runs(),
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
    invariants: Arc<Invariants>,
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
        end_time: net.now(),
        invariants,
    }
}

fn run_coalesced(cfg: FaultConfig, seed: u64, policy: specrpc_rpc::CoalescePolicy) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let invariants = deploy(&net, 700, 701);
    drive_coalesced(&net, invariants, policy)
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
    let messages = CALLS * 4;
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
            faulty.assert_ran_once_per_incarnation(messages, &format!("{name}/{seed}"));
            clean.assert_ran_once_per_incarnation(messages, &format!("clean/{seed}"));
            per_call.assert_ran_once_per_incarnation(messages, &format!("per-call/{seed}"));
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
    for seed in SEEDS {
        let r = run_coalesced(EVERY_DUP, seed, specrpc_rpc::CoalescePolicy::ethernet());
        r.assert_ran_once_per_incarnation(
            CALLS * 4,
            &format!("seed {seed}: envelopes must replay"),
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
            faulty.assert_ran_once_per_incarnation(CALLS, &format!("{name}/{seed}"));
        }
    }
}

#[test]
fn tcp_traffic_does_not_consume_the_udp_fault_stream() {
    // The seeded verdict stream is a per-network resource; if TCP sends
    // consumed verdicts, UDP loss patterns would shift whenever TCP
    // traffic interleaves. Pin: the UDP survivor pattern is the same
    // whether or not TCP traffic ran first on the same seed.
    let cfg = faults(0.5, 0.0, 0.0);
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

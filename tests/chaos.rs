//! Availability conformance for the chaos layer: the mid-run primary
//! crash of `run_chaos`, checked end to end.
//!
//! What must hold (the acceptance properties of the availability
//! study):
//!
//! - **availability** — with the resilience layer (deadlines, retry
//!   budgets, circuit breakers, replica failover) the deployment stays
//!   ≥ 99% available through a mid-run primary crash on a clean link,
//!   while the classic client population measurably degrades;
//! - **recovery** — failover reaches its first post-crash completion
//!   faster than waiting out the restart;
//! - **determinism** — a fixed `ChaosConfig` (schedule + seed) replays
//!   byte-identically: same report text, same histogram, same chaos
//!   accounting, run after run;
//! - **exactly-once per incarnation** — the `Invariants` observer sees
//!   no call run twice by one incarnation of one server.

use specrpc::echo::{echo_service, generic_encode_request, ECHO_IDL, ECHO_PROG, ECHO_VERS};
use specrpc::{run_chaos, run_chaos_matrix, ChaosConfig, Invariants, ProcPipeline};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{ChaosSchedule, FaultConfig, SimTime};
use specrpc_rpc::{ClntUdp, ServeConfig};
use specrpc_xdr::mem::XdrMem;
use std::sync::Arc;

#[test]
fn failover_availability_holds_while_the_classic_client_degrades() {
    let reports = run_chaos_matrix(&ChaosConfig::smoke()).expect("chaos matrix");
    let (with, without) = (&reports[0], &reports[1]);
    assert!(with.failover && !without.failover);
    for r in &reports {
        assert_eq!(r.completed + r.failed, r.calls, "every call must settle");
    }
    assert!(
        with.availability_bp() >= 9_900,
        "failover availability must stay ≥ 99% through the crash: {} bp",
        with.availability_bp()
    );
    assert!(
        without.availability_bp() < with.availability_bp(),
        "the classic client must measurably degrade: {} vs {} bp",
        without.availability_bp(),
        with.availability_bp()
    );
    assert!(with.failovers > 0, "the crash must force failovers");
    assert!(with.breaker_trips > 0, "give-ups must trip breakers");
    assert_eq!(without.failovers, 0, "classic clients cannot fail over");
}

#[test]
fn failover_recovers_before_the_restart_does() {
    let reports = run_chaos_matrix(&ChaosConfig::smoke()).expect("chaos matrix");
    let with = reports[0].recovery.expect("failover run recovers");
    let without = reports[1]
        .recovery
        .expect("the restart eventually recovers");
    assert!(
        with < without,
        "failover recovery {with} must beat waiting out the restart {without}"
    );
}

#[test]
fn chaos_replay_is_byte_identical_across_runs() {
    for faults in [FaultConfig::NONE, FaultConfig::LOSSY] {
        for failover in [true, false] {
            let cfg = ChaosConfig::smoke()
                .with_faults(faults)
                .with_failover(failover);
            let a = run_chaos(&cfg).expect("chaos run");
            let b = run_chaos(&cfg).expect("chaos run");
            assert_eq!(
                a.render(),
                b.render(),
                "failover={failover}: reports must replay byte-identically"
            );
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.chaos, b.chaos);
        }
    }
}

#[test]
fn seeded_schedule_sweep_survives_random_outage_patterns() {
    // ROADMAP item 6 (seeded chaos sweep slice): `ChaosSchedule::seeded`
    // generates its crash/restart windows from its own RNG, so each seed
    // exercises a different outage pattern against the restartable
    // serving path. Across ≥ 4 seeds: every call completes, completed
    // replies are byte-identical to an undisturbed run, and every
    // duplicate execution is one a restart excuses (at-least-once,
    // never at-will).
    const CALLS: usize = 16;
    const N: usize = 16;
    let horizon = SimTime::from_millis(40);
    let run = |seed: u64, schedule: Option<ChaosSchedule>| {
        let net = Network::new(NetworkConfig::lan(), seed);
        let invariants = Invariants::new(&net);
        let proc_ = Arc::new(
            ProcPipeline::new(N)
                .build_from_idl(ECHO_IDL, None, 1)
                .expect("pipeline"),
        );
        let reg = echo_service(proc_)
            .observed(&invariants, 700)
            .into_registry();
        specrpc_rpc::serve(&net, reg, ServeConfig::new(&[700])).detach();
        if let Some(s) = &schedule {
            net.apply_chaos(s);
        }
        let mut clnt = ClntUdp::create(&net, 5000, 700, ECHO_PROG, ECHO_VERS);
        clnt.retry_timeout = SimTime::from_millis(2);
        clnt.total_timeout = SimTime::from_millis(60_000);
        let mut replies = Vec::new();
        for i in 0..CALLS {
            let xid = clnt.next_xid();
            let mut enc = XdrMem::encoder(1 << 16);
            let mut data: Vec<i32> = (0..N).map(|k| (i * 100 + k) as i32).collect();
            generic_encode_request(&mut enc, xid, &mut data).expect("encode");
            let reply = clnt
                .exchange(&enc.into_bytes(), xid)
                .unwrap_or_else(|e| panic!("seed {seed} call {i}: {e}"));
            replies.push(reply);
            // Pace the sequence across the horizon so the seeded crash
            // windows land between calls, not only at the start.
            net.advance(SimTime::from_nanos(horizon.as_nanos() / CALLS as u64));
        }
        (replies, invariants, net.now())
    };
    for seed in [101u64, 202, 303, 404, 505] {
        let schedule = ChaosSchedule::seeded(seed, &[700], horizon, 3);
        let (clean, clean_runs, clean_end) = run(seed, None);
        let (chaotic, chaotic_runs, chaotic_end) = run(seed, Some(schedule));
        assert_eq!(
            (clean_runs.runs(), clean_runs.repeats()),
            (CALLS as u64, vec![]),
            "seed {seed}"
        );
        assert_eq!(
            chaotic, clean,
            "seed {seed}: completed replies must match the undisturbed run"
        );
        let amnesia = chaotic_runs.repeats();
        assert!(
            amnesia.iter().all(|r| r.across_restart()),
            "seed {seed}: a call ran twice in one incarnation: {amnesia:?}"
        );
        assert_eq!(
            chaotic_runs.runs(),
            (CALLS + amnesia.len()) as u64,
            "seed {seed}: at-least-once, re-runs {amnesia:?}"
        );
        assert!(
            chaotic_end >= clean_end,
            "seed {seed}: outages can only cost virtual time"
        );
    }
}

#[test]
fn every_mode_observes_the_scheduled_crash_and_restart() {
    for r in run_chaos_matrix(&ChaosConfig::smoke()).expect("chaos matrix") {
        assert_eq!(r.chaos.crashes, 1, "{:?}", r.chaos);
        assert_eq!(r.chaos.restarts, 1, "{:?}", r.chaos);
        assert!(
            r.chaos.downtime >= ChaosConfig::smoke().crash_downtime,
            "downtime {} must cover the scheduled window",
            r.chaos.downtime
        );
        assert!(
            r.chaos.drops_down > 0,
            "retries into the outage must be dropped at the down host"
        );
    }
}

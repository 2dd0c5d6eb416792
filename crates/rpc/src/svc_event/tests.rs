//! The reactor at one shard — what `serve_event` spells.

use crate::svc::SvcRegistry;
use crate::svc_shard::tests::{assert_reply, call, deploy, echo_registry};
use crate::svc_shard::{serve, ServeConfig};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::SimTime;
use specrpc_xdr::primitives::xdr_int;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn event_loop_answers_over_the_network() {
    let net = Network::new(NetworkConfig::lan(), 8);
    let el = deploy(&net, &[650], echo_registry(), 1, 2);
    let ep = net.bind_udp(4000);
    for i in 0..6 {
        ep.send_to(650, call(100 + i, 10 + i as i32));
        let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        assert_reply(&dg, 650, 100 + i, 10 + i as i32);
    }
    assert_eq!(el.total_events(), 6);
    assert_eq!(el.per_worker_events().len(), 2);
    assert_eq!(el.registry().generic_dispatches(), 6);
}

#[test]
fn event_loop_duplicates_hit_the_reply_cache() {
    let net = Network::new(NetworkConfig::lan(), 8);
    let reg = echo_registry();
    let el = deploy(&net, &[650], reg.clone(), 1, 1);
    let ep = net.bind_udp(4000);
    let c = call(7, 1);
    ep.send_to(650, c.clone());
    let first = ep.recv_timeout(SimTime::from_millis(50)).expect("first");
    ep.send_to(650, c);
    let second = ep.recv_timeout(SimTime::from_millis(50)).expect("replay");
    assert_eq!(first.payload, second.payload, "replayed reply identical");
    assert_eq!(reg.generic_dispatches(), 1, "handler ran exactly once");
    assert_eq!(
        el.total_events(),
        2,
        "both deliveries went through the loop"
    );
}

#[test]
fn one_reactor_sweeps_multiple_sockets_round_robin() {
    let net = Network::new(NetworkConfig::lan(), 9);
    let el = deploy(&net, &[650, 651], echo_registry(), 1, 1);
    let ep = net.bind_udp(4000);
    for (i, port) in [(0u32, 650u32), (1, 651), (2, 650), (3, 651)] {
        ep.send_to(port, call(i, i as i32));
        let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        assert_eq!(dg.from, port);
    }
    assert_eq!(el.total_events(), 4);
}

#[test]
fn event_loop_matches_blocking_path_bytes_and_time() {
    // The same call sequence with every delivery on the driving thread
    // (a detached zero-worker deployment) and with a reactor worker
    // racing it: byte- and virtual-time-identical.
    let run = |workers: usize| {
        let net = Network::new(NetworkConfig::lan(), 5);
        let reg = echo_registry();
        let el = if workers > 0 {
            Some(deploy(&net, &[650], reg, 1, workers))
        } else {
            serve(&net, reg, ServeConfig::new(&[650])).detach();
            None
        };
        let ep = net.bind_udp(4000);
        let mut replies = Vec::new();
        for i in 0..8 {
            ep.send_to(650, call(i, i as i32));
            replies.push(
                ep.recv_timeout(SimTime::from_millis(50))
                    .expect("reply")
                    .payload,
            );
        }
        drop(el);
        (replies, net.now())
    };
    assert_eq!(run(0), run(1));
}

#[test]
fn drop_joins_workers_and_releases_the_address() {
    let net = Network::new(NetworkConfig::lan(), 8);
    let el = deploy(&net, &[650], echo_registry(), 1, 4);
    let ep = net.bind_udp(4000);
    ep.send_to(650, call(1, 1));
    ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
    drop(el); // must not hang
    assert_eq!(net.ready_udp(650), 0);
    // The address no longer answers (and must not stall the clock).
    ep.send_to(650, call(2, 2));
    assert!(ep.recv_timeout(SimTime::from_millis(5)).is_none());
}

#[test]
fn concurrent_duplicates_execute_the_handler_exactly_once() {
    // Force the in-progress race: a slow handler, 4 workers, and the
    // same datagram delivered many times while the first dispatch is
    // still running. The duplicates must be suppressed or replayed —
    // never re-dispatched.
    let runs = Arc::new(AtomicU64::new(0));
    let reg = SvcRegistry::new();
    let r = runs.clone();
    reg.register(300, 1, 1, move |_args, results| {
        r.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(5));
        let mut out = 9i32;
        xdr_int(results, &mut out)?;
        Ok(())
    });
    let net = Network::new(NetworkConfig::lan(), 8);
    let _el = deploy(&net, &[650], Arc::new(reg), 1, 4);
    let ep = net.bind_udp(4000);
    let c = call(42, 0);
    for _ in 0..6 {
        ep.send_to(650, c.clone());
    }
    // At least one reply arrives; the handler ran exactly once.
    assert!(ep.recv_timeout(SimTime::from_millis(200)).is_some());
    // Drain whatever replays the cache produced.
    while ep.recv_timeout(SimTime::from_millis(20)).is_some() {}
    assert_eq!(runs.load(Ordering::Relaxed), 1, "exactly-once");
}

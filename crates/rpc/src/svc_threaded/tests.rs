//! The reactor with worker threads behind several shards — the
//! cross-thread dispatch a separate pool used to provide.

use crate::svc::SvcRegistry;
use crate::svc_shard::tests::{assert_reply, call, deploy, echo_registry};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::SimTime;
use specrpc_xdr::primitives::xdr_int;
use std::sync::{mpsc, Arc, Mutex};

#[test]
fn threaded_udp_service_answers_over_the_network() {
    let net = Network::new(NetworkConfig::lan(), 8);
    let served = deploy(&net, &[650, 651], echo_registry(), 2, 2);
    let ep = net.bind_udp(4000);
    for i in 0..4 {
        let port = 650 + i % 2;
        ep.send_to(port, call(100 + i, 10 + i as i32));
        let dg = ep.recv_timeout(SimTime::from_millis(20)).expect("reply");
        assert_reply(&dg, port, 100 + i, 10 + i as i32);
    }
    assert_eq!(served.per_shard_events(), vec![2, 2]);
    let by_workers: u64 = served.per_worker_events().iter().sum();
    assert_eq!(served.per_worker_events().len(), 4);
    assert_eq!(by_workers + served.driver_inline_events(), 4);
    assert!(served.cross_shard_steals() <= by_workers);
}

#[test]
fn threaded_udp_duplicates_hit_the_reply_cache() {
    let net = Network::new(NetworkConfig::lan(), 8);
    let reg = echo_registry();
    let served = deploy(&net, &[650], reg.clone(), 1, 2);
    let ep = net.bind_udp(4000);
    let c = call(7, 1);
    ep.send_to(650, c.clone());
    ep.recv_timeout(SimTime::from_millis(20)).expect("first");
    ep.send_to(650, c);
    ep.recv_timeout(SimTime::from_millis(20)).expect("replay");
    assert_eq!(reg.generic_dispatches(), 1, "duplicate served from cache");
    assert_eq!(served.total_events(), 2);
}

#[test]
fn pool_drop_joins_workers() {
    // Dropped while a worker is mid-dispatch: the drop waits for it, the
    // reply it owed still goes out, and only then is the address gone.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let reg = SvcRegistry::new();
    reg.register(300, 1, 1, move |_args, results| {
        entered_tx.send(()).expect("test thread");
        release_rx
            .lock()
            .expect("release")
            .recv()
            .expect("test thread");
        let mut out = 5i32;
        xdr_int(results, &mut out)?;
        Ok(())
    });
    let net = Network::new(NetworkConfig::lan(), 8);
    let served = deploy(&net, &[650], Arc::new(reg), 1, 4);
    let ep = net.bind_udp(4000);
    ep.send_to(650, call(1, 1));
    // Deliver it and stop driving, so that a worker — not this thread —
    // picks it up.
    let deadline = net.now() + SimTime::from_millis(5);
    while net.pending_events() == 0 {
        assert!(net.step(deadline), "delivery must land before deadline");
    }
    entered_rx.recv().expect("a worker took the delivery");
    let (dropping_tx, dropping_rx) = mpsc::channel::<()>();
    let dropper = std::thread::spawn(move || {
        dropping_tx.send(()).expect("test thread");
        drop(served); // joins the worker stuck in the handler
    });
    dropping_rx.recv().expect("dropper thread");
    release_tx.send(()).expect("handler");
    dropper.join().expect("dropper thread");
    assert_eq!(net.pending_events(), 0);
    let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
    assert_reply(&dg, 650, 1, 4);
    ep.send_to(650, call(2, 2));
    assert!(ep.recv_timeout(SimTime::from_millis(5)).is_none());
}

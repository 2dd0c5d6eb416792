//! Honest-wire integration: the shared-serialization link model, bounded
//! drop-tail receive queues, and the retransmission-strategy study, all
//! end to end through the RPC stack.
//!
//! The acceptance pin: a pipelined `call_batch` of N size-S datagrams
//! from one endpoint can complete **no earlier than `N·S·ns_per_byte`**
//! of cumulative wire time — back-to-back sends occupy the sender's link
//! one after another, exactly like the TCP model always did.

use proptest::prelude::*;
use specrpc::congestion::policy_label;
use specrpc::echo::{
    echo_service, generic_encode_request, ECHO_IDL, ECHO_PROC, ECHO_PROG, ECHO_VERS,
};
use specrpc::{
    run_congestion, run_congestion_matrix, CongestionConfig, Invariants, PathUsed, ProcPipeline,
    SpecClient,
};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::{serve, ClntUdp, ServeConfig, Served, Transport};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::mem::XdrMem;
use std::sync::Arc;

const PORT: u32 = 830;

/// Deploy the echo service (one reactor worker) and a specialized client
/// over a network with the given receive-queue cap, observed so
/// exactly-once stays checkable under faults.
fn deploy(
    n: usize,
    seed: u64,
    faults: FaultConfig,
    rx_queue_cap: usize,
) -> (Network, SpecClient<ClntUdp>, Served, Arc<Invariants>) {
    let proc_ = Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(ECHO_IDL, None, ECHO_PROC)
            .unwrap(),
    );
    let net = Network::new(
        NetworkConfig::lan()
            .with_faults(faults)
            .with_rx_queue_cap(rx_queue_cap),
        seed,
    );
    let invariants = Invariants::new(&net);
    let registry = echo_service(proc_.clone())
        .observed(&invariants, PORT)
        .into_registry();
    let cfg = ServeConfig {
        workers_per_shard: 1,
        ..ServeConfig::new(&[PORT])
    };
    let service = serve(&net, registry, cfg);
    let mut clnt = ClntUdp::create(&net, 5900, PORT, ECHO_PROG, ECHO_VERS);
    clnt.retry_timeout = SimTime::from_millis(20);
    clnt.total_timeout = SimTime::from_millis(60_000);
    (
        net,
        SpecClient::from_parts(clnt, proc_),
        service,
        invariants,
    )
}

#[test]
fn pipelined_batch_pays_cumulative_wire_serialization() {
    // The acceptance bound. N requests of S bytes each leave one client
    // endpoint; the link serializes them at `ns_per_byte` (80 ns/B on
    // the LAN config), so the batch cannot complete in less than
    // N·S·ns_per_byte of virtual time no matter how deeply it pipelines.
    let n = 600;
    let batch = 8;
    let (net, mut client, _svc, _served) = deploy(n, 5, FaultConfig::NONE, usize::MAX);

    // S: the wire length of one request image (xid-independent).
    let mut enc = XdrMem::encoder(1 << 16);
    let mut probe: Vec<i32> = (0..n as i32).collect();
    let s = generic_encode_request(&mut enc, 1, &mut probe).unwrap();

    let data: Vec<Vec<i32>> = (0..batch)
        .map(|k| (0..n).map(|i| (k * 1009 + i) as i32).collect())
        .collect();
    let args: Vec<StubArgs> = data
        .iter()
        .map(|d| client.args(vec![], vec![d.clone()]))
        .collect();
    let t0 = net.now();
    let results = client.call_batch(&args).unwrap();
    let elapsed = net.now().saturating_sub(t0);

    for (k, (out, path)) in results.iter().enumerate() {
        assert_eq!(*path, PathUsed::Fast, "call {k}");
        assert_eq!(out.arrays[0], data[k], "call {k}");
    }
    let floor = SimTime::from_nanos((batch * s) as u64 * 80);
    assert!(
        elapsed >= floor,
        "a pipelined batch of {batch}×{s}B must pay ≥ {floor} of wire \
         serialization, completed in {elapsed}"
    );
}

#[test]
fn single_call_round_trip_time_is_unchanged_by_occupancy() {
    // For a solitary datagram the occupancy charge commutes with the
    // propagation delay (`now + tx + latency == now + latency + tx`), so
    // an unpipelined round trip costs exactly what it did before the
    // shared-wire fix: request tx + latency + reply tx + latency.
    let n = 250;
    let (net, mut client, _svc, _served) = deploy(n, 9, FaultConfig::NONE, usize::MAX);
    let mut enc = XdrMem::encoder(1 << 16);
    let mut probe: Vec<i32> = (0..n as i32).collect();
    let req_len = generic_encode_request(&mut enc, 1, &mut probe).unwrap();

    let data: Vec<i32> = (0..n as i32).collect();
    let args = client.args(vec![], vec![data.clone()]);
    let t0 = net.now();
    let (out, _path) = client.call(&args).unwrap();
    let elapsed = net.now().saturating_sub(t0);
    assert_eq!(out.arrays[0], data);

    // Reply image: header (3 words smaller than a call header) + the
    // same array — bound it loosely from below by the array bytes.
    let reply_floor = 4 * n as u64;
    let floor =
        SimTime::from_nanos((req_len as u64 + reply_floor) * 80) + SimTime::from_micros(300); // two one-way latencies
    assert!(
        elapsed >= floor,
        "round trip {elapsed} below its wire floor {floor}"
    );
    // And no queueing inflation: a solitary call is within a small
    // multiple of the floor (service is instant in this deployment).
    assert!(
        elapsed <= floor + SimTime::from_millis(1),
        "solitary round trip must not queue: {elapsed} vs floor {floor}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bounded receive queues that never overflow are timing-transparent:
    /// the raw reply bytes of a pipelined exchange are identical with the
    /// cap at `usize::MAX` and at a generous finite value, with and
    /// without faults. (Only overflowing queues may change behavior —
    /// and then only by dropping, which the counters surface.)
    #[test]
    fn unoverflowed_bounded_queues_are_byte_transparent(
        n in 1usize..80,
        batch in 1usize..8,
        seed in 0u64..500,
        lossy in any::<bool>(),
    ) {
        let faults = if lossy { FaultConfig::LOSSY } else { FaultConfig::NONE };
        let run = |cap: usize| {
            let (net, mut client, _svc, invariants) = deploy(n, seed, faults, cap);
            let clnt = client.transport_mut();
            let mut requests = Vec::new();
            let mut xids = Vec::new();
            for k in 0..batch {
                let xid = Transport::next_xid(clnt);
                let mut enc = XdrMem::encoder(1 << 16);
                let mut data: Vec<i32> = (0..n).map(|i| (k * 7919 + i) as i32).collect();
                generic_encode_request(&mut enc, xid, &mut data).unwrap();
                requests.push(enc.into_bytes());
                xids.push(xid);
            }
            let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
            let replies = clnt.exchange_batch(&refs, &xids).unwrap();
            let executed = (invariants.runs(), invariants.repeats().len());
            (replies, executed, net.link_stats().queue_drops)
        };
        let (unbounded, executed_a, drops_a) = run(usize::MAX);
        let (bounded, executed_b, drops_b) = run(64);
        prop_assert_eq!(unbounded, bounded, "reply bytes must not depend on the cap");
        prop_assert_eq!(drops_a, 0u64);
        prop_assert_eq!(drops_b, 0u64, "a cap of 64 must not overflow here");
        // Exactly-once execution: the dup-request cache suppresses
        // retransmitted work, bounded queue or not.
        prop_assert_eq!(executed_a, (batch as u64, 0));
        prop_assert_eq!(executed_b, (batch as u64, 0));
    }
}

#[test]
fn retransmission_study_settles_every_call_across_the_fault_matrix() {
    // The strategy comparison over the fault matrix: every call settles,
    // retransmission recovers the (drop-tailed, faulted) majority, and
    // the whole matrix renders deterministically.
    for faults in [FaultConfig::NONE, FaultConfig::LOSSY] {
        let cfg = CongestionConfig::smoke().with_faults(faults);
        let reports = run_congestion_matrix(&cfg).unwrap();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            let label = policy_label(report.policy);
            assert_eq!(
                report.completed + report.failed,
                cfg.clients as u64,
                "{label}: every call settles"
            );
            assert!(
                report.completed >= cfg.clients as u64 / 2,
                "{label}: retransmission must recover the majority \
                 (completed {})",
                report.completed
            );
            assert!(
                report.link.queue_drops > 0,
                "{label}: the overloaded burst must overflow the bounded queue"
            );
        }
        // Determinism: a second identical matrix renders byte-identical.
        let again = run_congestion_matrix(&cfg).unwrap();
        for (a, b) in reports.iter().zip(&again) {
            assert_eq!(a.render(), b.render());
        }
    }
}

#[test]
fn backoff_wins_the_overloaded_burst_on_retransmission_load() {
    // The study's headline: under pure overload (no random loss),
    // exponential backoff sends the fewest spurious retransmissions,
    // and pacing sheds queue drops relative to fixed re-blasting.
    let cfg = CongestionConfig::smoke();
    let reports = run_congestion_matrix(&cfg).unwrap();
    let by_label = |l: &str| {
        reports
            .iter()
            .find(|r| policy_label(r.policy) == l)
            .unwrap()
    };
    let (fixed, backoff, paced) = (by_label("fixed"), by_label("expbackoff"), by_label("paced"));
    assert!(
        backoff.retransmits < fixed.retransmits,
        "backoff {} vs fixed {}",
        backoff.retransmits,
        fixed.retransmits
    );
    assert!(
        paced.link.queue_drops < fixed.link.queue_drops,
        "paced {} vs fixed {} drops",
        paced.link.queue_drops,
        fixed.link.queue_drops
    );
}

#[test]
fn congestion_report_surfaces_link_counters_through_summary() {
    let mut cfg = CongestionConfig::smoke();
    cfg.clients = 16;
    let report = run_congestion(&cfg).unwrap();
    // Every request and every reply crossed the link.
    assert!(report.link.datagrams >= report.transmissions + report.completed);
    assert!(report.link.queue_depth_high_water > 0, "{:?}", report.link);
    assert_eq!(report.latency.count(), report.completed);
    let text = report.render();
    let queues = format!(
        "link queues:                    {} drop(s), depth high-water {}",
        report.link.queue_drops, report.link.queue_depth_high_water
    );
    assert!(text.contains(&queues), "{text}");
    assert!(text.contains("latency (virtual time):"), "{text}");
}

//! Batched-call conformance: a [`SpecClient::call_batch`] of N calls is
//! equivalent — byte for byte at the transport level, value for value at
//! the facade level — to N sequential calls, across shapes, transports,
//! batch sizes, and fault configurations.
//!
//! Equivalence holds because batching changes *when* requests are in
//! flight, never *what* is exchanged: the same xid stream is consumed in
//! the same order, each request is the same wire image, and replies are
//! matched back to submission order by xid.

use proptest::prelude::*;
use specrpc::echo::{generic_encode_request, ECHO_IDL, ECHO_PROC, ECHO_PROG, ECHO_VERS};
use specrpc::{PathUsed, ProcPipeline, SpecClient, SpecService};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::{serve, ClntUdp, ServeConfig, Served, Transport};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::mem::XdrMem;
use std::sync::Arc;

const PORT: u32 = 820;

/// Deploy the echo service (one reactor worker) and a specialized
/// client. The returned `Served` keeps the reactor alive for the test's
/// duration (dropping it joins the workers).
fn deploy(n: usize, seed: u64, faults: FaultConfig) -> (Network, SpecClient<ClntUdp>, Served) {
    let proc_ = Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(ECHO_IDL, None, ECHO_PROC)
            .unwrap(),
    );
    let net = Network::new(NetworkConfig::lan().with_faults(faults), seed);
    let registry = SpecService::new()
        .proc(proc_.clone(), |args: &StubArgs| {
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        })
        .into_registry();
    let cfg = ServeConfig {
        workers_per_shard: 1,
        ..ServeConfig::new(&[PORT])
    };
    let service = serve(&net, registry, cfg);
    let mut clnt = ClntUdp::create(&net, 5800, PORT, ECHO_PROG, ECHO_VERS);
    clnt.retry_timeout = SimTime::from_millis(20);
    clnt.total_timeout = SimTime::from_millis(60_000);
    (net, SpecClient::from_parts(clnt, proc_), service)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Facade-level equivalence over arbitrary array shapes and batch
    /// sizes: `call_batch` of N returns exactly what N sequential
    /// `call`s return, in submission order, all on the fast path.
    #[test]
    fn call_batch_equals_sequential_calls(
        n in 1usize..120,
        batch in 1usize..12,
        seed in 0u64..1000,
    ) {
        // Sequential reference deployment.
        let (_net_a, mut seq, _svc_a) = deploy(n, seed, FaultConfig::NONE);
        let data: Vec<Vec<i32>> = (0..batch)
            .map(|k| (0..n).map(|i| (seed as i32) ^ ((k * 1000 + i) as i32)).collect())
            .collect();
        let mut seq_out = Vec::new();
        for d in &data {
            let args = seq.args(vec![], vec![d.clone()]);
            let (out, path) = seq.call(&args).unwrap();
            prop_assert_eq!(path, PathUsed::Fast);
            seq_out.push(out);
        }

        // Batched deployment: same seed, same local port -> same xid
        // stream, same network trace.
        let (_net_b, mut batched, _svc_b) = deploy(n, seed, FaultConfig::NONE);
        let batch_args: Vec<StubArgs> = data
            .iter()
            .map(|d| batched.args(vec![], vec![d.clone()]))
            .collect();
        let results = batched.call_batch(&batch_args).unwrap();
        prop_assert_eq!(results.len(), seq_out.len());
        for ((out, path), want) in results.iter().zip(&seq_out) {
            prop_assert_eq!(*path, PathUsed::Fast);
            prop_assert_eq!(&out.arrays, &want.arrays);
            prop_assert_eq!(&out.scalars, &want.scalars);
        }
        prop_assert_eq!(batched.fast_calls, batch as u64);
        prop_assert_eq!(batched.calls, batch as u64);
    }

    /// Transport-level byte identity: the raw replies of an
    /// `exchange_batch` are byte-identical to the raw replies of the
    /// same requests exchanged one at a time (same deployment seed, same
    /// client port -> identical deterministic traces).
    #[test]
    fn exchange_batch_replies_are_byte_identical_to_sequential(
        n in 1usize..80,
        batch in 1usize..10,
        seed in 0u64..1000,
    ) {
        let build = |clnt: &mut ClntUdp, count: usize| {
            let mut requests = Vec::new();
            let mut xids = Vec::new();
            for k in 0..count {
                let xid = Transport::next_xid(clnt);
                let mut enc = XdrMem::encoder(1 << 16);
                let mut data: Vec<i32> =
                    (0..n).map(|i| (k * 7919 + i) as i32).collect();
                generic_encode_request(&mut enc, xid, &mut data).unwrap();
                requests.push(enc.into_bytes());
                xids.push(xid);
            }
            (requests, xids)
        };

        let (_net_a, mut seq_client, _svc_a) = deploy(n, seed, FaultConfig::NONE);
        let seq_clnt = seq_client.transport_mut();
        let (requests, xids) = build(seq_clnt, batch);
        let sequential: Vec<Vec<u8>> = requests
            .iter()
            .zip(&xids)
            .map(|(r, &x)| seq_clnt.exchange(r, x).unwrap())
            .collect();

        let (_net_b, mut batch_client, _svc_b) = deploy(n, seed, FaultConfig::NONE);
        let batch_clnt = batch_client.transport_mut();
        let (requests2, xids2) = build(batch_clnt, batch);
        prop_assert_eq!(&requests, &requests2, "same xid stream, same bytes");
        let refs: Vec<&[u8]> = requests2.iter().map(Vec::as_slice).collect();
        let batched = batch_clnt.exchange_batch(&refs, &xids2).unwrap();
        prop_assert_eq!(batched, sequential);
    }
}

#[test]
fn batch_survives_loss_duplication_and_reordering() {
    // The pipelined path keeps its retransmission semantics: under a
    // faulty link every batched call still completes, results stay in
    // submission order, and the handler still runs exactly once per
    // transaction (the dup cache answers a retransmission of one already
    // run; a served address runs one request at a time, so none overlaps).
    let n = 24;
    for seed in [11u64, 22, 33] {
        let (_clean_net, mut clean, _svc_c) = deploy(n, seed, FaultConfig::NONE);
        let (_faulty_net, mut faulty, _svc_f) = deploy(n, seed, FaultConfig::LOSSY);
        let data: Vec<Vec<i32>> = (0..8)
            .map(|k| (0..n).map(|i| (k * 100 + i) as i32).collect())
            .collect();
        let clean_args: Vec<StubArgs> = data
            .iter()
            .map(|d| clean.args(vec![], vec![d.clone()]))
            .collect();
        let faulty_args: Vec<StubArgs> = data
            .iter()
            .map(|d| faulty.args(vec![], vec![d.clone()]))
            .collect();
        let clean_out = clean.call_batch(&clean_args).unwrap();
        let faulty_out = faulty.call_batch(&faulty_args).unwrap();
        for (k, ((co, cp), (fo, fp))) in clean_out.iter().zip(&faulty_out).enumerate() {
            assert_eq!(cp, fp, "seed {seed} call {k}");
            assert_eq!(co.arrays, fo.arrays, "seed {seed} call {k}");
            assert_eq!(co.arrays[0], data[k], "seed {seed} call {k}");
        }
    }
}

#[test]
fn empty_batch_is_a_no_op_through_the_facade() {
    let (_net, mut client, _svc) = deploy(8, 1, FaultConfig::NONE);
    let results = client.call_batch(&[]).unwrap();
    assert!(results.is_empty());
    assert_eq!(client.calls, 0);
}

/// A service with one tiny fixed-shape procedure (`int INC(int)` — a
/// 44-byte call message) for the coalescing economics pins.
const INC_IDL: &str = r#"
    program INCPROG {
        version INCVERS { int INC(int) = 1; } = 1;
    } = 0x20000808;
"#;

/// Deploy `INC` behind the cache-fronted UDP dispatch on a link charging
/// an honest per-packet cost, and return a specialized client whose
/// transport uses `policy` (or none).
fn deploy_inc(
    config: NetworkConfig,
    policy: Option<specrpc_rpc::CoalescePolicy>,
) -> (Network, SpecClient<ClntUdp>) {
    let proc_ = Arc::new(
        ProcPipeline::new(0)
            .build_from_idl(INC_IDL, None, 1)
            .unwrap(),
    );
    let net = Network::new(config, 7);
    SpecService::new()
        .proc(proc_.clone(), |args: &StubArgs| {
            StubArgs::new(vec![args.scalars.last().unwrap() + 1], vec![])
        })
        .serve_udp(&net, 830);
    let mut clnt = ClntUdp::create(&net, 5830, 830, 0x2000_0808, 1);
    if let Some(p) = policy {
        clnt = clnt.with_coalescing(p);
    }
    (net.clone(), SpecClient::from_parts(clnt, proc_))
}

/// The per-packet cost model the coalescing pins run under: 28 header
/// bytes and a 100 µs fixed cost per wire fragment.
fn packet_taxed_lan() -> NetworkConfig {
    NetworkConfig::lan()
        .with_datagram_cost(specrpc_netsim::UDP_IP_HEADER_BYTES, 100_000)
        .with_mtu(1500)
}

/// Issue 64 one-way `INC` calls followed by the sync call that seals,
/// flushes, and acknowledges them; return virtual time for the whole
/// burst and the datagrams the run put on the wire.
fn run_burst(policy: specrpc_rpc::CoalescePolicy) -> (SimTime, u64) {
    let (net, mut client) = deploy_inc(packet_taxed_lan(), Some(policy));
    let t0 = net.now();
    for i in 0..64 {
        client.call_oneway(&client.args(vec![i], vec![])).unwrap();
    }
    let (out, path) = client.call(&client.args(vec![1000], vec![])).unwrap();
    assert_eq!(path, PathUsed::Fast);
    assert_eq!(*out.scalars.last().unwrap(), 1001);
    assert_eq!(client.oneway_calls, 64);
    (net.now().saturating_sub(t0), net.datagrams_sent())
}

/// The PR's deterministic acceptance pin: a burst of 64 small (≤ 64 B)
/// calls through coalesced one-way batching improves amortized per-call
/// latency by at least 40% over the one-datagram-per-call baseline —
/// same framing, same one-way semantics, only the packing differs.
#[test]
fn coalesced_oneway_burst_amortizes_per_call_latency_by_40_percent() {
    let (coalesced, coalesced_dg) = run_burst(specrpc_rpc::CoalescePolicy::ethernet());
    let (per_call, per_call_dg) = run_burst(specrpc_rpc::CoalescePolicy::per_call());
    // 65 calls: 64 one-way + the sealing sync call. The envelope path
    // needs a handful of datagrams; the baseline pays one per call.
    assert!(
        coalesced_dg + 32 < per_call_dg,
        "coalesced {coalesced_dg} vs per-call {per_call_dg} datagrams"
    );
    let amortized_coalesced = coalesced.as_nanos() / 65;
    let amortized_per_call = per_call.as_nanos() / 65;
    assert!(
        amortized_coalesced * 10 <= amortized_per_call * 6,
        "amortized {amortized_coalesced} ns/call coalesced vs \
         {amortized_per_call} ns/call per-datagram (need >= 40% win)"
    );
}

/// Defaults preserve existing behavior: a solitary large call's RTT and
/// reply bytes are identical whether the client carries a (quiescent)
/// coalescer or none at all — coalescing off the call path changes
/// nothing, byte- or time-wise.
#[test]
fn solitary_large_call_rtt_unchanged_when_coalescing_off() {
    let big = 2000;
    let run = |policy: Option<specrpc_rpc::CoalescePolicy>| {
        let proc_ = Arc::new(
            ProcPipeline::new(big)
                .build_from_idl(ECHO_IDL, None, ECHO_PROC)
                .unwrap(),
        );
        let net = Network::new(NetworkConfig::lan(), 13);
        SpecService::new()
            .proc(proc_.clone(), |args: &StubArgs| {
                StubArgs::new(vec![], vec![args.arrays[0].clone()])
            })
            .serve_udp(&net, 831);
        let mut clnt = ClntUdp::create(&net, 5831, 831, ECHO_PROG, ECHO_VERS);
        if let Some(p) = policy {
            clnt = clnt.with_coalescing(p);
        }
        let xid = Transport::next_xid(&mut clnt);
        let mut enc = XdrMem::encoder(1 << 16);
        let mut data: Vec<i32> = (0..big as i32).collect();
        generic_encode_request(&mut enc, xid, &mut data).unwrap();
        let req = enc.into_bytes();
        let t0 = net.now();
        let reply = Transport::call(&mut clnt, &req, xid).unwrap();
        (net.now().saturating_sub(t0), reply)
    };
    let (rtt_plain, reply_plain) = run(None);
    let (rtt_quiet, reply_quiet) = run(Some(specrpc_rpc::CoalescePolicy::ethernet()));
    assert_eq!(rtt_plain, rtt_quiet, "time-identical");
    assert_eq!(reply_plain, reply_quiet, "byte-identical");
}

#[test]
fn batch_through_tcp_transport_matches_sequential() {
    // The record-marked stream pipelines batches too (default trait path
    // exercised through the facade): equivalence again.
    use specrpc_rpc::ClntTcp;
    let n = 16;
    let proc_ = Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(ECHO_IDL, None, ECHO_PROC)
            .unwrap(),
    );
    let deploy_tcp = |seed: u64| {
        let net = Network::new(NetworkConfig::lan(), seed);
        SpecService::new()
            .proc(proc_.clone(), |args: &StubArgs| {
                StubArgs::new(vec![], vec![args.arrays[0].clone()])
            })
            .serve_tcp(&net, PORT + 1);
        let clnt = ClntTcp::create(&net, PORT + 1, ECHO_PROG, ECHO_VERS).unwrap();
        SpecClient::from_parts(clnt, proc_.clone())
    };
    let data: Vec<Vec<i32>> = (0..5)
        .map(|k| (0..n).map(|i| (k * 31 + i) as i32).collect())
        .collect();

    let mut seq = deploy_tcp(9);
    let mut seq_out = Vec::new();
    for d in &data {
        let args = seq.args(vec![], vec![d.clone()]);
        seq_out.push(seq.call(&args).unwrap());
    }

    let mut batched = deploy_tcp(9);
    let args: Vec<StubArgs> = data
        .iter()
        .map(|d| batched.args(vec![], vec![d.clone()]))
        .collect();
    let results = batched.call_batch(&args).unwrap();
    for ((out, path), (want, want_path)) in results.iter().zip(&seq_out) {
        assert_eq!(path, want_path);
        assert_eq!(&out.arrays, &want.arrays);
    }
}

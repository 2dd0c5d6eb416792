//! Cross-crate integration tests: the full system — IDL → Tempo pipeline
//! → RPC over the simulated network — under normal and faulty conditions,
//! through the transport-agnostic `SpecClient`/`SpecService` facade.

use specrpc::echo::{echo_service, workload, EchoBench, Mode, ECHO_IDL, ECHO_PROC};
use specrpc::{PathUsed, ProcPipeline, SpecClient, StubCache};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::ClntUdp;
use specrpc_tempo::compile::StubArgs;
use std::sync::{Arc, Mutex};

#[test]
fn echo_round_trips_match_across_modes_and_sizes() {
    for n in [1usize, 20, 250, 1000] {
        let mut bench = EchoBench::new(n, None, n as u64).expect("deploy");
        let data = workload(n);
        let g = bench.round_trip(Mode::Generic, &data).expect("generic");
        let s = bench
            .round_trip(Mode::Specialized, &data)
            .expect("specialized");
        assert_eq!(g, data, "n={n}");
        assert_eq!(s, data, "n={n}");
        assert_eq!(bench.spec.fast_calls, 1, "n={n}: fast path used");
    }
}

#[test]
fn specialized_client_survives_lossy_network() {
    // The fast path replaces marshaling, not transaction management:
    // retransmission must still recover from loss/duplication/reordering.
    let n = 64;
    let proc_ = Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(specrpc::echo::ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let net = Network::new(
        NetworkConfig::lan().with_faults(FaultConfig {
            loss: 0.3,
            duplicate: 0.15,
            reorder: 0.2,
        }),
        20_260_612,
    );
    echo_service(proc_.clone()).serve_udp(&net, 700);

    let mut clnt = ClntUdp::create(&net, 5005, 700, 0x2000_0101, 1);
    clnt.retry_timeout = SimTime::from_millis(15);
    clnt.total_timeout = SimTime::from_millis(10_000);
    let mut spec = SpecClient::from_parts(clnt, proc_);

    let data = workload(n);
    for round in 0..25 {
        let args = spec.args(vec![], vec![data.clone()]);
        let (out, _) = spec
            .call(&args)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(out.arrays[0], data, "round {round}");
    }
    assert!(
        spec.transport_mut().retransmits > 0,
        "loss must have forced retransmissions"
    );
}

#[test]
fn garbled_reply_falls_back_not_crashes() {
    // A server that corrupts one reply word: the specialized decoder's
    // dynamic guard must reject it and the generic decoder must report a
    // proper protocol error (never a panic, never silent corruption).
    let n = 8;
    let proc_ = Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(specrpc::echo::ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let net = Network::new(NetworkConfig::lan(), 5);
    // Handler that echoes a VALID specialized reply but flips the
    // accept_stat word to SYSTEM_ERR.
    let p2 = proc_.clone();
    net.serve_udp(
        700,
        Box::new(move |req, _from| {
            use specrpc_tempo::compile::{run_decode, run_encode};
            use specrpc_xdr::OpCounts;
            let mut counts = OpCounts::new();
            let sd = &p2.server_decode;
            let mut args = StubArgs::new(
                vec![0; sd.layout.scalar_count as usize],
                vec![Vec::new(); sd.layout.array_count as usize],
            );
            run_decode(&sd.program, req, &mut args, req.len(), &mut counts).ok()?;
            let xid = args.scalars[0];
            let reply_args = StubArgs::new(vec![xid], vec![args.arrays[0].clone()]);
            let mut reply = vec![0u8; p2.server_encode.wire_len];
            run_encode(
                &p2.server_encode.program,
                &mut reply,
                &reply_args,
                &mut counts,
            )
            .ok()?;
            reply[23] = 5; // accept_stat = SYSTEM_ERR
            Some((reply, SimTime::from_micros(20)))
        }),
    );
    let clnt = ClntUdp::create(&net, 5006, 700, 0x2000_0101, 1);
    let mut spec = SpecClient::from_parts(clnt, proc_);
    let args = spec.args(vec![], vec![workload(n)]);
    let err = spec.call(&args).unwrap_err();
    assert_eq!(err, specrpc_rpc::RpcError::SystemErr);
    assert_eq!(spec.fallback_calls, 1);
}

#[test]
fn mixed_fleet_interoperates() {
    // One server specialized for 100; clients specialized for 100 (fast),
    // generic clients with 100 (fast path on the server), and generic
    // clients with other sizes (generic fallback) all get correct answers.
    let mut bench = EchoBench::new(100, None, 77).expect("deploy");
    let exact = workload(100);

    let fast_out = bench.round_trip(Mode::Specialized, &exact).expect("fast");
    assert_eq!(fast_out, exact);

    let gen_out = bench
        .round_trip(Mode::Generic, &exact)
        .expect("generic same size");
    assert_eq!(gen_out, exact);

    for other in [1usize, 99, 101, 500] {
        let data = workload(other);
        let out = bench
            .round_trip(Mode::Generic, &data)
            .expect("generic other size");
        assert_eq!(out, data, "size {other}");
    }
    let reg = &bench.registry;
    assert!(reg.raw_fallbacks() >= 4, "mismatched sizes fell back");
    assert!(
        reg.raw_dispatches() >= 2,
        "matching sizes took the fast path"
    );
}

#[test]
fn stub_cache_reuses_one_compile_across_clients() {
    // The scale scenario the cache exists for: many clients of the same
    // (program, version, procedure, shape) context. The second client
    // must be a cache hit — same Arc, no second Tempo run.
    let n = 120;
    let cache = Arc::new(StubCache::new());
    let net = Network::new(NetworkConfig::lan(), 3);

    let first = SpecClient::from_parts(
        ClntUdp::create(&net, 5007, 700, 0x2000_0101, 1),
        cache
            .get_or_compile_idl(&ProcPipeline::new(n), ECHO_IDL, None, ECHO_PROC)
            .expect("first client"),
    );
    echo_service(first.compiled().clone()).serve_udp(&net, 700);

    let mut second = SpecClient::from_parts(
        ClntUdp::create(&net, 5008, 700, 0x2000_0101, 1),
        cache
            .get_or_compile_idl(&ProcPipeline::new(n), ECHO_IDL, None, ECHO_PROC)
            .expect("second client"),
    );

    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "exactly one Tempo run");
    assert!(stats.hits > 0, "second client hit the cache");
    assert!(
        Arc::ptr_eq(first.compiled(), second.compiled()),
        "both clients share the same compiled stubs"
    );

    // And the shared stubs actually work on the wire.
    let data = workload(n);
    let args = second.args(vec![], vec![data.clone()]);
    let (out, path) = second.call(&args).expect("call");
    assert_eq!(path, PathUsed::Fast);
    assert_eq!(out.arrays[0], data);

    // A different shape context is a miss, not a collision.
    let third = SpecClient::from_parts(
        ClntUdp::create(&net, 5009, 700, 0x2000_0101, 1),
        cache
            .get_or_compile_idl(&ProcPipeline::new(n + 1), ECHO_IDL, None, ECHO_PROC)
            .expect("third client"),
    );
    assert!(!Arc::ptr_eq(first.compiled(), third.compiled()));
    assert_eq!(cache.stats().misses, 2);
}

#[test]
fn specialized_and_generic_produce_identical_requests_on_the_wire() {
    // Capture actual datagrams: a mirror server records request bytes.
    let n = 33;
    let proc_ = Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(specrpc::echo::ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let net = Network::new(NetworkConfig::lan(), 5);
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen.clone();
    net.serve_udp(
        700,
        Box::new(move |req, _from| {
            s2.lock().unwrap().push(req.to_vec());
            None // never reply; we only inspect requests
        }),
    );

    // Specialized client request.
    let clnt = ClntUdp::create(&net, 5007, 700, 0x2000_0101, 1);
    let mut spec = SpecClient::from_parts(clnt, proc_);
    spec.transport_mut().retry_timeout = SimTime::from_millis(5);
    spec.transport_mut().total_timeout = SimTime::from_millis(5);
    let args = spec.args(vec![], vec![workload(n)]);
    let _ = spec.call(&args); // times out; the request was captured

    // Generic client request.
    let mut generic = ClntUdp::create(&net, 5008, 700, 0x2000_0101, 1);
    generic.retry_timeout = SimTime::from_millis(5);
    generic.total_timeout = SimTime::from_millis(5);
    let mut input = workload(n);
    let _ = generic.call(
        1,
        &mut |x| {
            specrpc_xdr::composite::xdr_array(
                x,
                &mut input,
                100_000,
                specrpc_xdr::primitives::xdr_int,
            )
        },
        &mut |_| Ok(()),
    );

    let seen = seen.lock().unwrap();
    assert!(seen.len() >= 2);
    let a = &seen[0];
    let b = &seen[seen.len() - 1];
    // Requests differ only in the xid word (different clients).
    assert_eq!(a.len(), b.len());
    assert_eq!(&a[4..], &b[4..], "bytes after the xid must be identical");
}

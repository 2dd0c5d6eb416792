//! Transport-agnosticism of the facade: the same `SpecClient`/
//! `SpecService` pair, the same compiled stubs, and — crucially — the
//! same §6.2 guard-fallback semantics must hold over retransmitting UDP
//! datagrams and record-marked TCP streams alike.

use specrpc::echo::{workload, ECHO_IDL};
use specrpc::{Invariants, PathUsed, ProcPipeline, SpecClient, SpecService};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::SimTime;
use specrpc_rpc::svc::SvcRegistry;
use specrpc_rpc::svc_udp::default_proc_time;
use specrpc_rpc::{ClntTcp, ClntUdp, Transport};
use specrpc_tempo::compile::StubArgs;
use std::sync::Arc;

const PROG: u32 = 0x2000_0101;
const PORT: u32 = 760;

fn compile(n: usize) -> Arc<specrpc::CompiledProc> {
    Arc::new(
        ProcPipeline::new(n)
            .build_from_idl(ECHO_IDL, None, 1)
            .expect("pipeline"),
    )
}

/// Deploy an echoing service specialized for `server_n` over both
/// transports of one network, with a handler that truncates results to
/// `truncate_to` elements when set. Returns the registry and the
/// observer of its handler executions (§6.2 fallback must not re-run
/// user code).
fn deploy(
    net: &Network,
    server_n: usize,
    truncate_to: Option<usize>,
) -> (Arc<SvcRegistry>, Arc<Invariants>) {
    serve_both(
        net,
        SpecService::new().proc(compile(server_n), move |args: &StubArgs| {
            let data = match truncate_to {
                Some(k) => args.arrays[0][..k.min(args.arrays[0].len())].to_vec(),
                None => args.arrays[0].clone(),
            };
            StubArgs::new(vec![], vec![data])
        }),
    )
}

/// `service`, observed, at [`PORT`] over UDP and the next port over TCP.
fn serve_both(net: &Network, service: SpecService) -> (Arc<SvcRegistry>, Arc<Invariants>) {
    let invariants = Invariants::new(net);
    let reg = service.observed(&invariants, PORT).into_registry();
    specrpc_rpc::serve(net, reg.clone(), specrpc_rpc::ServeConfig::new(&[PORT])).detach();
    specrpc_rpc::svc_tcp::serve_tcp(net, PORT + 1, reg.clone());
    (reg, invariants)
}

/// The one call made so far ran exactly once.
fn ran_once(invariants: &Invariants) {
    assert_eq!(
        (invariants.runs(), invariants.repeats()),
        (1, vec![]),
        "handler must run exactly once"
    );
}

fn udp_client(net: &Network, n: usize) -> SpecClient<ClntUdp> {
    SpecClient::from_parts(ClntUdp::create(net, 5400, PORT, PROG, 1), compile(n))
}

fn tcp_client(net: &Network, n: usize) -> SpecClient<ClntTcp> {
    SpecClient::from_parts(
        ClntTcp::create(net, PORT + 1, PROG, 1).expect("connect"),
        compile(n),
    )
}

/// A client whose specialization context disagrees with the server's
/// (7 vs 10 elements): the server's inlen guard rejects the request, the
/// generic dispatch answers, and the data still round-trips — with the
/// user handler running exactly once.
fn server_guard_fallback_on<T: Transport>(
    mut client: SpecClient<T>,
    reg: &Arc<SvcRegistry>,
    invariants: &Invariants,
) {
    let data = workload(7);
    let args = client.args(vec![], vec![data.clone()]);
    let (out, _path) = client.call(&args).expect("mismatched call");
    assert_eq!(out.arrays[0], data, "fallback must preserve semantics");
    assert_eq!(reg.raw_fallbacks(), 1, "server guard must fail");
    assert_eq!(reg.generic_dispatches(), 1);
    ran_once(invariants);
}

#[test]
fn server_guard_fallback_over_udp() {
    let net = Network::new(NetworkConfig::lan(), 41);
    let (reg, invariants) = deploy(&net, 10, None);
    server_guard_fallback_on(udp_client(&net, 7), &reg, &invariants);
}

#[test]
fn server_guard_fallback_over_tcp() {
    let net = Network::new(NetworkConfig::lan(), 42);
    let (reg, invariants) = deploy(&net, 10, None);
    server_guard_fallback_on(tcp_client(&net, 7), &reg, &invariants);
}

/// A handler that returns fewer elements than the reply stub is pinned
/// for: the server's raw encode guard fails, so the reply degrades to
/// the generic encoding (without re-running the handler), and the
/// client's reply guard fails too (generic decode runs). Both §6.2
/// fallbacks fire, the answer is still correct, and the user handler
/// ran exactly once.
fn reply_shape_mismatch_on<T: Transport>(
    mut client: SpecClient<T>,
    reg: &Arc<SvcRegistry>,
    invariants: &Invariants,
) {
    let data = workload(10);
    let args = client.args(vec![], vec![data.clone()]);
    let (out, path) = client.call(&args).expect("truncated call");
    assert_eq!(path, PathUsed::GenericFallback, "client guard must fail");
    assert_eq!(out.arrays[0], &data[..5], "fallback result must be right");
    assert_eq!(client.fallback_calls, 1);
    ran_once(invariants);
    // The raw handler answered (with a generically-encoded reply); no
    // second dispatch happened.
    assert_eq!(reg.raw_dispatches(), 1);
    assert_eq!(reg.generic_dispatches(), 0);
}

#[test]
fn reply_shape_mismatch_falls_back_over_udp() {
    let net = Network::new(NetworkConfig::lan(), 43);
    let (reg, invariants) = deploy(&net, 10, Some(5));
    reply_shape_mismatch_on(udp_client(&net, 10), &reg, &invariants);
}

#[test]
fn reply_shape_mismatch_falls_back_over_tcp() {
    let net = Network::new(NetworkConfig::lan(), 44);
    let (reg, invariants) = deploy(&net, 10, Some(5));
    reply_shape_mismatch_on(tcp_client(&net, 10), &reg, &invariants);
}

#[test]
fn same_stubs_same_bytes_on_both_transports() {
    // Transport-agnosticism at the byte level: the specialized request
    // image is identical whether it rides a datagram or a record — only
    // the framing differs. Compare the request bytes each server saw.
    let n = 12;
    let net = Network::new(NetworkConfig::lan(), 45);
    let (reg, _) = deploy(&net, n, None);
    let data = workload(n);

    let mut udp = udp_client(&net, n);
    let args = udp.args(vec![], vec![data.clone()]);
    let (out, path) = udp.call(&args).expect("udp call");
    assert_eq!(
        (out.arrays[0].clone(), path),
        (data.clone(), PathUsed::Fast)
    );

    let mut tcp = tcp_client(&net, n);
    let args = tcp.args(vec![], vec![data.clone()]);
    let (out, path) = tcp.call(&args).expect("tcp call");
    assert_eq!(
        (out.arrays[0].clone(), path),
        (data.clone(), PathUsed::Fast)
    );

    // Both went down the raw fast path on the shared registry.
    assert_eq!(reg.raw_dispatches(), 2);
    assert_eq!(reg.raw_fallbacks(), 0);
}

/// A complete generic-encoded echo call message (xid first) and its length
/// pair is all the link model needs.
fn raw_echo_call(xid: u32, data: &[i32]) -> Vec<u8> {
    use specrpc_rpc::msg::CallHeader;
    use specrpc_xdr::composite::xdr_array;
    use specrpc_xdr::mem::XdrMem;
    use specrpc_xdr::primitives::xdr_int;
    let mut enc = XdrMem::encoder(64 + 4 * data.len());
    let mut msg = CallHeader::new(xid, PROG, 1, 1);
    CallHeader::xdr(&mut enc, &mut msg).unwrap();
    let mut v = data.to_vec();
    xdr_array(&mut enc, &mut v, 100_000, xdr_int).unwrap();
    enc.into_bytes()
}

/// One raw call on a fresh connection; returns (request bytes, reply
/// bytes, virtual time it took).
fn solitary_tcp_call(n: usize) -> (usize, usize, SimTime) {
    let net = Network::new(NetworkConfig::lan(), 46);
    deploy(&net, n, None);
    let mut clnt = ClntTcp::create(&net, PORT + 1, PROG, 1).expect("connect");
    let xid = Transport::next_xid(&mut clnt);
    let request = raw_echo_call(xid, &workload(n));
    let t0 = net.now();
    let reply = Transport::call(&mut clnt, &request, xid).expect("raw call");
    (request.len(), reply.len(), net.now() - t0)
}

#[test]
fn solitary_tcp_call_takes_exactly_what_the_link_model_says() {
    // Two flights, both records (payload + 4-byte mark each) serialized
    // at the link rate, plus the modeled server time — to the nanosecond,
    // not rounded up to a polling grid.
    let cfg = NetworkConfig::lan();
    for n in [20, 250, 2000] {
        let (req, rep, took) = solitary_tcp_call(n);
        let wire = SimTime::from_nanos((req + rep + 8) as u64 * cfg.ns_per_byte);
        let want = cfg.latency + cfg.latency + wire + default_proc_time(req, rep);
        assert_eq!(took, want, "n={n}");
    }
}

#[test]
fn timed_out_tcp_read_leaves_the_clock_exactly_at_its_deadline() {
    use specrpc_netsim::net::TcpHandler;
    // A peer that swallows everything: the call waits out the 5 s read
    // timeout, reconnects once, waits it out again — two deadlines, no
    // overshoot.
    struct DeadConn;
    impl TcpHandler for DeadConn {
        fn on_bytes(&mut self, _bytes: &[u8]) -> (Vec<u8>, SimTime) {
            (Vec::new(), SimTime::ZERO)
        }
    }
    let net = Network::new(NetworkConfig::lan(), 47);
    net.serve_tcp(PORT + 1, Box::new(|| Box::new(DeadConn)));
    let mut clnt = ClntTcp::create(&net, PORT + 1, PROG, 1).expect("connect");
    let xid = Transport::next_xid(&mut clnt);
    let request = raw_echo_call(xid, &workload(20));
    let t0 = net.now();
    assert!(Transport::call(&mut clnt, &request, xid).is_err());
    assert_eq!(clnt.reconnects, 1);
    assert_eq!(
        net.now() - t0,
        SimTime::from_millis(5_000) + SimTime::from_millis(5_000)
    );
}

#[test]
fn pipelined_tcp_batch_still_overlaps_its_round_trips() {
    let n = 250;
    let (_, _, solitary) = solitary_tcp_call(n);
    let net = Network::new(NetworkConfig::lan(), 46);
    deploy(&net, n, None);
    let mut clnt = ClntTcp::create(&net, PORT + 1, PROG, 1).expect("connect");
    let xids: Vec<u32> = (0..8).map(|_| Transport::next_xid(&mut clnt)).collect();
    let requests: Vec<Vec<u8>> = xids
        .iter()
        .map(|&x| raw_echo_call(x, &workload(n)))
        .collect();
    let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
    let t0 = net.now();
    let replies = clnt.call_batch(&refs, &xids).expect("batch");
    let took = net.now() - t0;
    assert_eq!(replies.len(), 8);
    for (reply, xid) in replies.iter().zip(&xids) {
        assert_eq!(&reply[..4], &xid.to_be_bytes());
    }
    assert!(
        took.as_nanos() < 8 * solitary.as_nanos(),
        "batch {took} vs 8 x {solitary}"
    );
    // Latency is paid once, not eight times: at least seven flights' worth
    // is saved.
    let cfg = NetworkConfig::lan();
    assert!(took.as_nanos() + 7 * 2 * cfg.latency.as_nanos() <= 8 * solitary.as_nanos());
}

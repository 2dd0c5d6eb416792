//! Protocol-substrate integration tests: TCP record marking end to end,
//! the portmapper, and record streams over the simulated network.

use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_rpc::clnt_tcp::ClntTcp;
use specrpc_rpc::pmap::{self, Mapping, IPPROTO_TCP};
use specrpc_rpc::svc::SvcRegistry;
use specrpc_rpc::svc_tcp::serve_tcp;
use specrpc_rpc::ClntUdp;
use specrpc_rpc::{serve, ServeConfig};
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::primitives::xdr_int;
use std::sync::Arc;

const PROG: u32 = 600_000;
const IPPROTO_UDP: u32 = 17;

fn sum_registry() -> Arc<SvcRegistry> {
    let mut reg = SvcRegistry::new();
    reg.register(PROG, 1, 1, |_, args, results| {
        let mut v: Vec<i32> = Vec::new();
        xdr_array(args, &mut v, 1 << 20, xdr_int)?;
        let mut sum: i32 = v.iter().copied().fold(0i32, i32::wrapping_add);
        xdr_int(results, &mut sum)?;
        Ok(())
    });
    Arc::new(reg)
}

#[test]
fn service_discovery_then_call_over_udp_and_tcp() {
    let net = Network::new(NetworkConfig::lan(), 31);
    pmap::start_portmapper(&net);
    let reg = sum_registry();
    serve(&net, reg.clone(), ServeConfig::new(&[901])).detach();
    serve_tcp(&net, 902, reg);
    pmap::pmap_set(
        &net,
        6000,
        Mapping {
            prog: PROG,
            vers: 1,
            prot: IPPROTO_UDP,
            port: 901,
        },
    )
    .expect("set udp");
    pmap::pmap_set(
        &net,
        6000,
        Mapping {
            prog: PROG,
            vers: 1,
            prot: IPPROTO_TCP,
            port: 902,
        },
    )
    .expect("set tcp");

    // UDP client via discovered port.
    let port = pmap::pmap_getport(&net, 6001, PROG, 1, IPPROTO_UDP).expect("getport udp");
    let mut uclnt = ClntUdp::create(&net, 6002, port, PROG, 1);
    let mut sum = 0i32;
    uclnt
        .call(
            1,
            &mut |x| {
                let mut v = vec![10, 20, 30];
                xdr_array(x, &mut v, 100, xdr_int)
            },
            &mut |x| xdr_int(x, &mut sum),
        )
        .expect("udp call");
    assert_eq!(sum, 60);

    // TCP client via discovered port.
    let port = pmap::pmap_getport(&net, 6003, PROG, 1, IPPROTO_TCP).expect("getport tcp");
    let mut tclnt = ClntTcp::create(&net, port, PROG, 1).expect("connect");
    let mut sum = 0i32;
    tclnt
        .call(
            1,
            &mut |x| {
                let mut v: Vec<i32> = (1..=100).collect();
                xdr_array(x, &mut v, 1000, xdr_int)
            },
            &mut |x| xdr_int(x, &mut sum),
        )
        .expect("tcp call");
    assert_eq!(sum, 5050);
}

#[test]
fn tcp_large_arrays_cross_fragment_boundaries() {
    let net = Network::new(NetworkConfig::lan(), 32);
    let reg = sum_registry();
    serve_tcp(&net, 902, reg);
    let mut clnt = ClntTcp::create(&net, 902, PROG, 1).expect("connect");
    // 12000 ints = 48 KB >> the 8 KB fragment bound: multi-fragment
    // records in both directions.
    let data: Vec<i32> = (0..12_000).collect();
    let want: i32 = data.iter().copied().fold(0, i32::wrapping_add);
    let mut sum = 0i32;
    clnt.call(
        1,
        &mut |x| {
            let mut v = data.clone();
            xdr_array(x, &mut v, 1 << 20, xdr_int)
        },
        &mut |x| xdr_int(x, &mut sum),
    )
    .expect("large tcp call");
    assert_eq!(sum, want);
}

#[test]
fn record_stream_roundtrip_over_sim_tcp_with_odd_fragment_sizes() {
    use specrpc_netsim::net::TcpHandler;
    use specrpc_netsim::SimTime;
    use specrpc_xdr::rec::XdrRec;
    use specrpc_xdr::{XdrOp, XdrStream};

    struct Echo;
    impl TcpHandler for Echo {
        fn on_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, SimTime) {
            (bytes.to_vec(), SimTime::from_micros(5))
        }
    }
    let net = Network::new(NetworkConfig::lan(), 33);
    net.serve_tcp(555, Box::new(|| Box::new(Echo)));
    let mut conn = net.connect_tcp(555).expect("connect");
    let mut enc = XdrRec::with_fragment_size(&mut conn, XdrOp::Encode, 12);
    for i in 0..50 {
        enc.putlong(i * 3).unwrap();
    }
    enc.end_of_record().unwrap();
    let mut dec = XdrRec::with_fragment_size(&mut conn, XdrOp::Decode, 12);
    for i in 0..50 {
        assert_eq!(dec.getlong().unwrap(), i * 3);
    }
}

#[test]
fn pmap_full_lifecycle() {
    let net = Network::new(NetworkConfig::lan(), 34);
    pmap::start_portmapper(&net);
    assert!(pmap::pmap_set(
        &net,
        6100,
        Mapping {
            prog: PROG,
            vers: 1,
            prot: IPPROTO_UDP,
            port: 901
        }
    )
    .unwrap());
    assert_eq!(
        pmap::pmap_getport(&net, 6101, PROG, 1, IPPROTO_UDP).unwrap(),
        901
    );
    let mut clnt = ClntUdp::create(
        &net,
        6102,
        pmap::PMAP_PORT,
        pmap::PMAP_PROG,
        pmap::PMAP_VERS,
    );
    let mut m = Mapping {
        prog: PROG,
        vers: 1,
        prot: 0,
        port: 0,
    };
    let mut removed = false;
    clnt.call(
        pmap::PMAPPROC_UNSET,
        &mut |x| Mapping::xdr(x, &mut m),
        &mut |x| specrpc_xdr::primitives::xdr_bool(x, &mut removed),
    )
    .unwrap();
    assert!(removed);
    assert!(matches!(
        pmap::pmap_getport(&net, 6103, PROG, 1, IPPROTO_UDP),
        Err(specrpc_rpc::RpcError::ProgNotRegistered)
    ));
}

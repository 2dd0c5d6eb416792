//! Property tests of the reproduction's central invariant:
//! **specialization preserves semantics** — for all inputs, the
//! specialized stubs produce exactly the bytes/values the generic layered
//! code produces (`spec(p, s)(d) == p(s, d)`), and decode inverts encode.

use proptest::prelude::*;
use specrpc::echo::{
    build_echo_proc, echo_handler, generic_decode_reply, generic_encode_request, ECHO_IDL,
};
use specrpc::{Invariants, ProcPipeline, SpecService, StubCache};
use specrpc_netsim::net::{Endpoint, Network, NetworkConfig};
use specrpc_netsim::SimTime;
use specrpc_rpc::{serve, ServeConfig, Served};
use specrpc_rpcgen::desc::{xdr_value, TypeDesc, XdrValue};
use specrpc_tempo::compile::{run_decode, run_encode, Outcome, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{OpCounts, XdrStream};
use std::sync::Arc;

/// The length the twins' echo procedure is pinned at: a request of
/// exactly this many elements takes the raw lane, any other fails the
/// decode guard and is served generically.
const PINNED: usize = 64;

/// One compiled echo procedure behind two deployments on one network —
/// a service routine working in place and its returning twin through
/// [`SpecService::proc`] — and one raw endpoint that asks both. Each
/// deployment has a reactor worker racing the driver for every delivery,
/// which is why CI's second interleaving pass runs this file too.
struct Twins {
    ep: Endpoint,
    served: [Served; 2],
    invariants: [Arc<Invariants>; 2],
}

const TWIN_PORTS: [u32; 2] = [950, 951];

impl Twins {
    fn deploy(
        in_place: impl Fn(&mut StubArgs, &mut StubArgs) + Send + Sync + 'static,
        returning: impl Fn(&StubArgs) -> StubArgs + Send + Sync + 'static,
    ) -> Twins {
        let proc_ = Arc::new(build_echo_proc(PINNED, None).unwrap());
        let net = Network::new(NetworkConfig::lan(), 41);
        let invariants = [Invariants::new(&net), Invariants::new(&net)];
        let a = SpecService::new().proc_in_place(proc_.clone(), in_place);
        let b = SpecService::new().proc(proc_, returning);
        let with_a_worker = |service: SpecService, port| {
            let cfg = ServeConfig {
                workers_per_shard: 1,
                ..ServeConfig::new(&[port])
            };
            serve(&net, service.into_registry(), cfg)
        };
        let served = [
            with_a_worker(a.observed(&invariants[0], TWIN_PORTS[0]), TWIN_PORTS[0]),
            with_a_worker(b.observed(&invariants[1], TWIN_PORTS[1]), TWIN_PORTS[1]),
        ];
        let ep = net.bind_udp(6100);
        Twins {
            ep,
            served,
            invariants,
        }
    }

    /// Send every array of `burst` to one twin, then to the other (xids
    /// counting up from `xid`); asserts the reply datagrams of the two are
    /// byte-identical call by call and returns the arrays they carry.
    fn ask(&self, xid: u32, burst: &[Vec<i32>]) -> Vec<Vec<i32>> {
        let mut enc = XdrMem::encoder(1 << 16);
        let replies = TWIN_PORTS.map(|port| {
            for (i, data) in burst.iter().enumerate() {
                let mut data = data.clone();
                let len = generic_encode_request(&mut enc, xid + i as u32, &mut data).unwrap();
                self.ep.send_to(port, enc.bytes()[..len].to_vec());
            }
            let mut replies: Vec<Vec<u8>> = burst
                .iter()
                .map(|_| self.ep.recv_timeout(SimTime::from_millis(100)))
                .map(|reply| reply.expect("answered").payload)
                .collect();
            replies.sort_by_key(|r| u32::from_be_bytes(r[..4].try_into().unwrap()));
            replies
        });
        assert_eq!(replies[0], replies[1], "burst at xid {xid}");
        let decoded = |reply: &Vec<u8>| {
            let mut out = Vec::new();
            generic_decode_reply(reply, &mut out).unwrap();
            out
        };
        replies[0].iter().map(decoded).collect()
    }

    /// Both twins' `(handler runs, raw dispatches, raw fallbacks, generic
    /// dispatches)`, asserted equal, with no call run twice.
    fn counters(&self) -> (u64, u64, u64, u64) {
        let of = |i: usize| {
            let reg = self.served[i].registry();
            assert_eq!(self.invariants[i].repeats(), [], "twin {i}");
            (
                self.invariants[i].runs(),
                reg.raw_dispatches(),
                reg.raw_fallbacks(),
                reg.generic_dispatches(),
            )
        };
        assert_eq!(of(0), of(1));
        of(0)
    }
}

fn returning_echo(args: &StubArgs) -> StubArgs {
    StubArgs::new(vec![], vec![args.arrays[0].clone()])
}

#[test]
fn in_place_and_returning_handlers_answer_byte_for_byte() {
    let twins = Twins::deploy(echo_handler, returning_echo);
    // SplitMix64: pinned-length requests (raw lane) mixed with longer and
    // shorter ones (generic lane), in bursts of one to four.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (mut xid, mut asked) = (1u32, 0u64);
    for _ in 0..60 {
        let burst: Vec<Vec<i32>> = (0..1 + next() % 4)
            .map(|_| {
                let len = match next() % 3 {
                    0 => 1 + next() as usize % 300,
                    _ => PINNED,
                };
                (0..len).map(|_| next() as i32).collect()
            })
            .collect();
        assert_eq!(twins.ask(xid, &burst), burst, "every call echoes its own");
        xid += burst.len() as u32;
        asked += burst.len() as u64;
    }
    // No slot hands a call what the previous one left in it.
    let long_then_short = [(0..200).collect::<Vec<i32>>(), vec![7, 8, 9]];
    for data in long_then_short.chunks(1) {
        assert_eq!(twins.ask(xid, data), data);
        xid += 1;
    }
    let (runs, raw, fallbacks, generic) = twins.counters();
    assert_eq!(runs, asked + 2, "one handler run per call");
    assert_eq!((raw + generic, fallbacks), (runs, generic));
    assert!(
        raw > 50 && generic > 20,
        "both lanes: {raw} raw, {generic} generic"
    );
}

#[test]
fn a_reply_outside_the_pinned_shape_is_the_same_from_either_form() {
    // Both routines drop the last element when the first is negative: the
    // request passes the decode guard, the reply fails the reply stub's,
    // and the results go through the generic encoder as the handler left
    // them — after one run, not two.
    let twins = Twins::deploy(
        |args, results| {
            echo_handler(args, results);
            if results.arrays[0][0] < 0 {
                results.arrays[0].pop();
            }
        },
        |args| {
            let mut results = returning_echo(args);
            if results.arrays[0][0] < 0 {
                results.arrays[0].pop();
            }
            results
        },
    );
    let whole: Vec<i32> = (1..=PINNED as i32).collect();
    let mut short = whole.clone();
    short[0] = -1;
    let burst = [whole.clone(), short.clone(), whole.clone()];
    short.pop();
    assert_eq!(twins.ask(1, &burst), [whole.clone(), short, whole]);
    // Raw dispatches all three: the generic *encoder* ran, not the
    // generic dispatch.
    assert_eq!(twins.counters(), (3, 3, 0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generic and specialized request images are byte-identical for
    /// arbitrary data and sizes.
    #[test]
    fn specialized_request_equals_generic(
        data in prop::collection::vec(any::<i32>(), 1..300),
        xid in any::<u32>(),
    ) {
        let n = data.len();
        let proc_ = build_echo_proc(n, None).expect("pipeline");

        let mut enc = XdrMem::encoder(1 << 16);
        let mut d = data.clone();
        let len = generic_encode_request(&mut enc, xid, &mut d).unwrap();

        let args = StubArgs::new(vec![xid as i32], vec![data.clone()]);
        let mut buf = vec![0u8; proc_.client_encode.wire_len];
        let mut counts = OpCounts::new();
        run_encode(&proc_.client_encode.program, &mut buf, &args, &mut counts).unwrap();

        prop_assert_eq!(len, buf.len());
        prop_assert_eq!(&enc.bytes()[..len], buf.as_slice());
    }

    /// Chunked (Table 4) compilation is byte-equivalent to full unrolling.
    #[test]
    fn chunked_equals_full(
        data in prop::collection::vec(any::<i32>(), 30..400),
        chunk in 1usize..64,
    ) {
        let n = data.len();
        let full = build_echo_proc(n, None).expect("full");
        let chunked = build_echo_proc(n, Some(chunk)).expect("chunked");
        let args = StubArgs::new(vec![7], vec![data]);
        let mut b1 = vec![0u8; full.client_encode.wire_len];
        let mut b2 = vec![0u8; chunked.client_encode.wire_len];
        let mut counts = OpCounts::new();
        run_encode(&full.client_encode.program, &mut b1, &args, &mut counts).unwrap();
        run_encode(&chunked.client_encode.program, &mut b2, &args, &mut counts).unwrap();
        prop_assert_eq!(b1, b2);
    }

    /// A `StubCache` hit is byte-equivalent to a fresh Tempo compile of
    /// the same shape: memoization must not change the wire image.
    #[test]
    fn stub_cache_hit_is_byte_identical_to_fresh_compile(
        data in prop::collection::vec(any::<i32>(), 1..150),
        xid in any::<u32>(),
    ) {
        let n = data.len();
        let cache = StubCache::new();
        let p = ProcPipeline::new(n);
        let first = cache.get_or_compile_idl(&p, ECHO_IDL, None, 1).unwrap();
        let cached = cache.get_or_compile_idl(&p, ECHO_IDL, None, 1).unwrap();
        prop_assert!(Arc::ptr_eq(&first, &cached), "second lookup must hit");
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cache.stats().misses, 1);

        let fresh = build_echo_proc(n, None).unwrap();
        let args = StubArgs::new(vec![xid as i32], vec![data.clone()]);
        let mut counts = OpCounts::new();
        let mut from_cache = vec![0u8; cached.client_encode.wire_len];
        run_encode(&cached.client_encode.program, &mut from_cache, &args, &mut counts)
            .unwrap();
        let mut from_fresh = vec![0u8; fresh.client_encode.wire_len];
        run_encode(&fresh.client_encode.program, &mut from_fresh, &args, &mut counts)
            .unwrap();
        prop_assert_eq!(from_cache, from_fresh);
    }

    /// Cache invariants over arbitrary access traces: the entry count
    /// never exceeds the capacity, and the books always balance — every
    /// lookup is exactly one hit or miss, every miss created an entry,
    /// and every entry is either live or evicted, never both.
    #[test]
    fn cache_accounting_invariants_hold(
        ops in prop::collection::vec(1usize..6, 1..18),
        cap in 1usize..4,
    ) {
        let cache = StubCache::with_capacity(cap);
        for (step, &n) in ops.iter().enumerate() {
            cache
                .get_or_compile_idl(&ProcPipeline::new(n), ECHO_IDL, None, 1)
                .unwrap();
            let s = cache.stats();
            prop_assert!(s.entries <= cap, "step {}: {} > cap {}", step, s.entries, cap);
            prop_assert_eq!(
                s.hits + s.misses,
                step as u64 + 1,
                "every lookup is exactly one hit or miss"
            );
            prop_assert_eq!(
                s.entries as u64,
                s.misses - s.evictions,
                "live entries = misses - evictions (no double-count)"
            );
        }
    }

    /// Server decode stub inverts client encode stub for all data.
    #[test]
    fn stub_decode_inverts_encode(
        data in prop::collection::vec(any::<i32>(), 1..200),
        xid in any::<u32>(),
    ) {
        let n = data.len();
        let proc_ = build_echo_proc(n, None).expect("pipeline");
        let args = StubArgs::new(vec![xid as i32], vec![data.clone()]);
        let mut wire = vec![0u8; proc_.client_encode.wire_len];
        let mut counts = OpCounts::new();
        run_encode(&proc_.client_encode.program, &mut wire, &args, &mut counts).unwrap();

        let sd = &proc_.server_decode;
        let mut out = StubArgs::new(
            vec![0; sd.layout.scalar_count as usize],
            vec![Vec::new(); sd.layout.array_count as usize],
        );
        let r = run_decode(&sd.program, &wire, &mut out, wire.len(), &mut counts).unwrap();
        let ok = matches!(r, Outcome::Done { ret: 1, .. });
        prop_assert!(ok);
        prop_assert_eq!(&out.arrays[0], &data);
        prop_assert_eq!(out.scalars[0] as u32, xid);
    }

    /// Any single corrupted byte in the header region either still decodes
    /// to the same values or falls back — never panics, never silently
    /// accepts wrong protocol words it checks.
    #[test]
    fn corrupted_headers_fallback_or_reject(
        data in prop::collection::vec(any::<i32>(), 1..50),
        // Words 1..6 (mtype, rpcvers, prog, vers, proc) are all checked;
        // auth flavors (words 6 and 8) are deliberately accepted.
        corrupt_at in 4usize..24,
        delta in 1u8..255,
    ) {
        let n = data.len();
        let proc_ = build_echo_proc(n, None).expect("pipeline");
        let args = StubArgs::new(vec![1], vec![data]);
        let mut wire = vec![0u8; proc_.client_encode.wire_len];
        let mut counts = OpCounts::new();
        run_encode(&proc_.client_encode.program, &mut wire, &args, &mut counts).unwrap();
        wire[corrupt_at] ^= delta;

        let sd = &proc_.server_decode;
        let mut out = StubArgs::new(
            vec![0; sd.layout.scalar_count as usize],
            vec![Vec::new(); sd.layout.array_count as usize],
        );
        // Must not error or panic; Fallback is the expected outcome for
        // corruption of any checked protocol word.
        let r = run_decode(&sd.program, &wire, &mut out, wire.len(), &mut counts).unwrap();
        prop_assert_eq!(r, Outcome::Fallback);
    }

    /// The table-driven marshaler round-trips arbitrary nested values.
    #[test]
    fn descriptor_marshaler_roundtrips(
        ints in prop::collection::vec(any::<i32>(), 0..20),
        s in "[a-zA-Z0-9 ]{0,24}",
        flag in any::<bool>(),
        opt in prop::option::of(any::<i32>()),
    ) {
        let desc = TypeDesc::Struct(vec![
            ("xs".into(), TypeDesc::VarArray(Box::new(TypeDesc::Int), 64)),
            ("name".into(), TypeDesc::String(64)),
            ("flag".into(), TypeDesc::Bool),
            ("opt".into(), TypeDesc::Optional(Box::new(TypeDesc::Int))),
        ]);
        let val = XdrValue::Struct(vec![
            XdrValue::Array(ints.into_iter().map(XdrValue::Int).collect()),
            XdrValue::Str(s),
            XdrValue::Bool(flag),
            XdrValue::Optional(opt.map(|v| Box::new(XdrValue::Int(v)))),
        ]);
        let mut enc = XdrMem::encoder(4096);
        let mut v = val.clone();
        xdr_value(&mut enc, &desc, &mut v).unwrap();
        prop_assert_eq!(enc.getpos(), val.wire_size(&desc));
        let mut dec = XdrMem::decoder(enc.bytes());
        let mut out = XdrValue::default_of(&desc);
        xdr_value(&mut dec, &desc, &mut out).unwrap();
        prop_assert_eq!(out, val);
    }

    /// XDR primitive roundtrip through the generic micro-layers.
    #[test]
    fn xdr_scalar_roundtrips(v in any::<i32>(), h in any::<i64>(), d in any::<f64>()) {
        use specrpc_xdr::primitives::{xdr_double, xdr_hyper, xdr_int};
        let mut enc = XdrMem::encoder(32);
        let (mut a, mut b, mut c) = (v, h, d);
        xdr_int(&mut enc, &mut a).unwrap();
        xdr_hyper(&mut enc, &mut b).unwrap();
        xdr_double(&mut enc, &mut c).unwrap();
        let mut dec = XdrMem::decoder(enc.bytes());
        let (mut x, mut y, mut z) = (0, 0, 0.0);
        xdr_int(&mut dec, &mut x).unwrap();
        xdr_hyper(&mut dec, &mut y).unwrap();
        xdr_double(&mut dec, &mut z).unwrap();
        prop_assert_eq!(x, v);
        prop_assert_eq!(y, h);
        prop_assert!(z == d || (z.is_nan() && d.is_nan()));
    }
}

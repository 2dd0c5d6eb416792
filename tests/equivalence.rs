//! Property tests of the reproduction's central invariant:
//! **specialization preserves semantics** — for all inputs, the
//! specialized stubs produce exactly the bytes/values the generic layered
//! code produces (`spec(p, s)(d) == p(s, d)`), and decode inverts encode.

use proptest::prelude::*;
use specrpc::echo::{build_echo_proc, generic_encode_request, ECHO_IDL};
use specrpc::{ProcPipeline, StubCache};
use specrpc_rpcgen::desc::{xdr_value, TypeDesc, XdrValue};
use specrpc_tempo::compile::{run_decode, run_encode, Outcome, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{OpCounts, XdrStream};
use std::sync::Arc;

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

//! Compiler + kernel tests: hand-built residual IR in, wire bytes out,
//! held to the ops run one by one.

#[path = "../../tests/reference/mod.rs"]
mod reference;

use super::*;
use crate::ir::builder::*;
use crate::ir::{FieldDef, Function, Program, StructDef, Type};
use specrpc_xdr::OpCounts;

type StubResult = Result<Outcome, StubError>;

/// `stub`'s ops run one by one as an encode, slot 0 from `slots`.
fn walk_encode(
    stub: &StubProgram,
    buf: &mut [u8],
    args: &StubArgs,
    slots: reference::Slots,
    counts: &mut OpCounts,
) -> StubResult {
    reference::encode(&stub.ops, stub.wire_len, buf, args, slots, counts)
}

/// `stub`'s ops run one by one as a decode.
fn walk_decode(
    stub: &StubProgram,
    buf: &[u8],
    args: &mut StubArgs,
    inlen: usize,
    counts: &mut OpCounts,
) -> StubResult {
    reference::decode(&stub.ops, stub.wire_len, buf, args, inlen, counts)
}

/// The program of hand-built `ops`, bound to its kernel, or its refusal.
fn program(ops: Vec<StubOp>, elems: &[(u16, usize)]) -> Result<StubProgram, CompileError> {
    StubProgram::bind(ops, elems, "hand".into())
}

/// An argument struct `ARGS { len; arr[4]; }` and conventions mapping it
/// to scalar slot 0 / array slot 0.
fn args_prog() -> (Program, usize) {
    let mut p = Program::new();
    let sid = p.add_struct(StructDef {
        name: "ARGS".into(),
        fields: vec![
            FieldDef {
                name: "len".into(),
                ty: Type::Long,
            },
            FieldDef {
                name: "arr".into(),
                ty: Type::Array(Box::new(Type::Long), 4),
            },
        ],
    });
    (p, sid)
}

fn conventions() -> StubConventions {
    StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(vec![
                FieldBinding {
                    slot_start: 0,
                    slot_len: 1,
                    target: FieldTarget::ArrayLen(0),
                },
                FieldBinding {
                    slot_start: 1,
                    slot_len: 4,
                    target: FieldTarget::Array(0),
                },
            ]),
            ParamBinding::InLen,
        ],
    }
}

/// Residual encode function:
/// ```c
/// void enc(char* buf, ARGS* argsp, long inlen) {
///     *(long*)(buf) = 0x04000000;            // htonl(4), prefolded
///     *(long*)(buf+4) = htonl(argsp->arr[0]);
///     ...
///     *(long*)(buf+16) = htonl(argsp->arr[3]);
/// }
/// ```
fn encode_residual(p: &Program, sid: usize) -> Function {
    let mut fb = FunctionBuilder::new("enc");
    let buf = fb.param("buf", Type::BufPtr);
    let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
    let _inlen = fb.param("inlen", Type::Long);
    let mut body = vec![assign(buf32(lv(var(buf))), c((4u32).swap_bytes() as i64))];
    for i in 0..4 {
        body.push(assign(
            buf32(add(lv(var(buf)), c(4 + 4 * i))),
            htonl(lv(index(field(deref_var(argsp), 1), c(i)))),
        ));
    }
    let f = fb.body(body);
    let _ = p; // layout only
    f
}

#[test]
fn compile_encode_shapes() {
    let (p, sid) = args_prog();
    let f = encode_residual(&p, sid);
    let stub = compile(&p, &f, &conventions(), CompileOptions::default()).unwrap();
    // The four unrolled stores are one loop of four trips.
    assert_eq!(
        stub.ops,
        vec![
            StubOp::PutImm {
                off: 0,
                word: (4u32).swap_bytes()
            },
            StubOp::Loop {
                times: 4,
                body: 2,
                unroll: 0
            },
            StubOp::Step { off: 4, idx: 1 },
            StubOp::PutElem {
                off: 4,
                arr: 0,
                idx: 0
            },
            StubOp::EndLoop,
            StubOp::Ret { val: 1 },
        ]
    );
    assert_eq!(stub.len(), 6, "one modeled op per store");
    assert_eq!(stub.wire_len, 20);
}

#[test]
fn encode_produces_wire_bytes() {
    let (p, sid) = args_prog();
    let f = encode_residual(&p, sid);
    let stub = compile(&p, &f, &conventions(), CompileOptions::default()).unwrap();
    let args = StubArgs::new(vec![], vec![vec![0x01020304, 2, 3, -1]]);
    let mut buf = vec![0u8; 32];
    let mut counts = OpCounts::new();
    let out = run_encode(&stub, &mut buf, &args, &mut counts).unwrap();
    assert_eq!(
        out,
        Outcome::Done {
            ret: 1,
            wire_len: 20
        }
    );
    assert_eq!(&buf[0..4], &[0, 0, 0, 4], "length word");
    assert_eq!(&buf[4..8], &[1, 2, 3, 4], "big-endian element");
    assert_eq!(&buf[16..20], &[0xff, 0xff, 0xff, 0xff]);
    assert_eq!(counts.stub_ops, 6);
    assert_eq!(counts.mem_moves, 20);
}

/// Residual decode with guards:
/// ```c
/// long dec(char* buf, ARGS* argsp, long inlen) {
///     if (inlen == 20) {
///         if (ntohl(*(long*)(buf)) != 4) return 0;
///         argsp->len = 4;                    // SetArrLen via conventions
///         argsp->arr[i] = ntohl(*(long*)(buf+4+4i));
///         return 1;
///     } else return 0;
/// }
/// ```
fn decode_residual(sid: usize) -> Function {
    let mut fb = FunctionBuilder::new("dec");
    let buf = fb.param("buf", Type::BufPtr);
    let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
    let inlen = fb.param("inlen", Type::Long);
    fb.returns(Type::Long);
    let mut fast = vec![
        if_then(
            ne(ntohl(lv(buf32(lv(var(buf))))), c(4)),
            vec![ret(Some(c(0)))],
        ),
        assign(field(deref_var(argsp), 0), c(4)),
    ];
    for i in 0..4 {
        fast.push(assign(
            index(field(deref_var(argsp), 1), c(i)),
            ntohl(lv(buf32(add(lv(var(buf)), c(4 + 4 * i))))),
        ));
    }
    fast.push(ret(Some(c(1))));
    fb.body(vec![if_else(
        eq(lv(var(inlen)), c(20)),
        fast,
        vec![ret(Some(c(0)))],
    )])
}

#[test]
fn compile_decode_with_guards() {
    let (p, sid) = args_prog();
    let f = decode_residual(sid);
    let stub = compile(&p, &f, &conventions(), CompileOptions::default()).unwrap();
    assert_eq!(stub.ops[0], StubOp::LenGuard { expected: 20 });
    assert_eq!(stub.ops[1], StubOp::CheckWord { off: 0, want: 4 });
    assert_eq!(stub.ops[2], StubOp::SetArrLen { arr: 0, len: 4 });
    assert!(matches!(stub.ops[3], StubOp::Loop { times: 4, .. }));
    assert!(matches!(
        stub.ops[5],
        StubOp::GetElem {
            off: 4,
            arr: 0,
            idx: 0
        }
    ));
}

#[test]
fn decode_roundtrips_encode() {
    let (p, sid) = args_prog();
    let enc = encode_residual(&p, sid);
    let enc_stub = compile(&p, &enc, &conventions(), CompileOptions::default()).unwrap();
    let dec = decode_residual(sid);
    let dec_stub = compile(&p, &dec, &conventions(), CompileOptions::default()).unwrap();

    let args = StubArgs::new(vec![], vec![vec![10, -20, 30, -40]]);
    let mut buf = vec![0u8; 20];
    let mut counts = OpCounts::new();
    run_encode(&enc_stub, &mut buf, &args, &mut counts).unwrap();

    let mut out = StubArgs::new(vec![], vec![vec![]]);
    let r = run_decode(&dec_stub, &buf, &mut out, 20, &mut counts).unwrap();
    assert_eq!(
        r,
        Outcome::Done {
            ret: 1,
            wire_len: 20
        }
    );
    assert_eq!(out.arrays[0], vec![10, -20, 30, -40]);
}

#[test]
fn len_guard_mismatch_falls_back() {
    let (p, sid) = args_prog();
    let dec = decode_residual(sid);
    let stub = compile(&p, &dec, &conventions(), CompileOptions::default()).unwrap();
    let mut out = StubArgs::new(vec![], vec![vec![]]);
    let mut counts = OpCounts::new();
    let buf = vec![0u8; 20];
    let r = run_decode(&stub, &buf, &mut out, 16, &mut counts).unwrap();
    assert_eq!(r, Outcome::Fallback);
    assert!(out.arrays[0].is_empty(), "fallback must not mutate");
}

#[test]
fn check_word_mismatch_falls_back() {
    let (p, sid) = args_prog();
    let dec = decode_residual(sid);
    let stub = compile(&p, &dec, &conventions(), CompileOptions::default()).unwrap();
    let mut out = StubArgs::new(vec![], vec![vec![]]);
    let mut counts = OpCounts::new();
    let mut buf = vec![0u8; 20];
    buf[3] = 9; // claims 9 elements, stub expects 4
    let r = run_decode(&stub, &buf, &mut out, 20, &mut counts).unwrap();
    assert_eq!(r, Outcome::Fallback);
}

fn big_encode_residual(sid: usize, n: usize) -> Function {
    let mut fb = FunctionBuilder::new("enc_big");
    let buf = fb.param("buf", Type::BufPtr);
    let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
    let mut body = Vec::new();
    for i in 0..n {
        body.push(assign(
            buf32(add(lv(var(buf)), c(4 * i as i64))),
            htonl(lv(index(field(deref_var(argsp), 1), c(i as i64)))),
        ));
    }
    fb.body(body)
}

fn big_prog(n: usize) -> (Program, usize) {
    let mut p = Program::new();
    let sid = p.add_struct(StructDef {
        name: "BIG".into(),
        fields: vec![
            FieldDef {
                name: "len".into(),
                ty: Type::Long,
            },
            FieldDef {
                name: "arr".into(),
                ty: Type::Array(Box::new(Type::Long), n),
            },
        ],
    });
    (p, sid)
}

fn big_conv(n: usize) -> StubConventions {
    StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(vec![
                FieldBinding {
                    slot_start: 0,
                    slot_len: 1,
                    target: FieldTarget::ArrayLen(0),
                },
                FieldBinding {
                    slot_start: 1,
                    slot_len: n,
                    target: FieldTarget::Array(0),
                },
            ]),
        ],
    }
}

#[test]
fn chunk_bounds_the_modeled_unrolling_not_the_program() {
    let n = 1000usize;
    let (p, sid) = big_prog(n);
    let f = big_encode_residual(sid, n);
    let full = compile(&p, &f, &big_conv(n), CompileOptions::default()).unwrap();
    assert_eq!(full.len(), n + 1);

    let chunked = compile(&p, &f, &big_conv(n), CompileOptions { chunk: Some(250) }).unwrap();
    // Models Loop(4×250) + 250 body + EndLoop + Ret.
    assert_eq!(chunked.len(), 250 + 3);
    assert_eq!(chunked.code_size_bytes(), 340 + 40 * 253);
    // Either way the program is the loop, its header and one template.
    assert_eq!(full.ops.len(), 5);
    assert_eq!(
        chunked.ops[0],
        StubOp::Loop {
            times: 1000,
            body: 2,
            unroll: 250
        }
    );
    assert_eq!(chunked.ops[1..], full.ops[1..]);
    assert_eq!(chunked.wire_len, full.wire_len);
}

#[test]
fn chunked_and_full_produce_identical_bytes() {
    let n = 1003usize; // non-multiple: exercises the remainder path
    let (p, sid) = big_prog(n);
    let f = big_encode_residual(sid, n);
    let full = compile(&p, &f, &big_conv(n), CompileOptions::default()).unwrap();
    let chunked = compile(&p, &f, &big_conv(n), CompileOptions { chunk: Some(250) }).unwrap();

    let data: Vec<i32> = (0..n as i32).map(|i| i * 7 - 3).collect();
    let args = StubArgs::new(vec![], vec![data]);
    let mut b1 = vec![0u8; 4 * n];
    let mut b2 = vec![0u8; 4 * n];
    let mut counts = OpCounts::new();
    run_encode(&full, &mut b1, &args, &mut counts).unwrap();
    run_encode(&chunked, &mut b2, &args, &mut counts).unwrap();
    assert_eq!(b1, b2);
}

#[test]
fn an_encode_refuses_an_array_longer_than_it_carries() {
    // The element count is the stub's, folded into its image: one
    // element more is refused like one fewer, in every lane, never cut to
    // fit.
    let n = 1003usize;
    let (p, sid) = big_prog(n);
    let f = big_encode_residual(sid, n);
    for chunk in [None, Some(250)] {
        let stub = compile(&p, &f, &big_conv(n), CompileOptions { chunk }).unwrap();
        let mut buf = vec![0u8; 4 * n];
        let mut counts = OpCounts::new();
        for len in [n - 1, n + 1] {
            let args = StubArgs::new(vec![], vec![vec![1; len]]);
            let err = run_encode(&stub, &mut buf, &args, &mut counts).unwrap_err();
            assert!(
                matches!(err, StubError::BadElem { arr: 0, .. }),
                "{len}: {err}"
            );
            let xid = run_encode_with_xid(&stub, &mut buf, &args, 1, &mut counts);
            assert_eq!(xid.unwrap_err(), err, "{len}");
        }
    }
}

#[test]
fn chunk_one_keeps_a_plain_loop() {
    let n = 64usize;
    let (p, sid) = big_prog(n);
    let f = big_encode_residual(sid, n);
    let s = compile(&p, &f, &big_conv(n), CompileOptions { chunk: Some(1) }).unwrap();
    // Loop(64×1) + 1 body op + EndLoop + Ret.
    assert_eq!(s.len(), 4);
}

#[test]
fn buffer_too_small_is_detected() {
    let (p, sid) = args_prog();
    let f = encode_residual(&p, sid);
    let stub = compile(&p, &f, &conventions(), CompileOptions::default()).unwrap();
    let args = StubArgs::new(vec![], vec![vec![1, 2, 3, 4]]);
    let mut buf = vec![0u8; 8];
    let mut counts = OpCounts::new();
    let err = run_encode(&stub, &mut buf, &args, &mut counts).unwrap_err();
    assert!(matches!(err, StubError::BufTooSmall { .. }));
}

#[test]
fn non_affine_offset_rejected() {
    let (p, sid) = args_prog();
    let mut fb = FunctionBuilder::new("bad");
    let buf = fb.param("buf", Type::BufPtr);
    let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
    let f = fb.body(vec![assign(
        buf32(add(lv(var(buf)), lv(field(deref_var(argsp), 0)))),
        c(0),
    )]);
    let err = compile(&p, &f, &conventions(), CompileOptions::default()).unwrap_err();
    assert!(matches!(err, CompileError::NonAffineOffset(_)));
}

#[test]
fn unbound_path_rejected() {
    let (p, sid) = args_prog();
    let mut fb = FunctionBuilder::new("bad");
    let buf = fb.param("buf", Type::BufPtr);
    let _argsp = fb.param("argsp", ptr(Type::Struct(sid)));
    let other = fb.param("other", ptr(Type::Struct(sid)));
    let f = fb.body(vec![assign(
        buf32(lv(var(buf))),
        htonl(lv(field(deref_var(other), 0))),
    )]);
    // `other` has no binding in the conventions (only 3 params bound).
    let conv = StubConventions {
        params: vec![ParamBinding::Buffer, ParamBinding::InLen],
    };
    let err = compile(&p, &f, &conv, CompileOptions::default()).unwrap_err();
    assert!(matches!(err, CompileError::UnboundPath(_)));
}

#[test]
fn code_size_grows_linearly_with_ops() {
    let (p, sid) = big_prog(100);
    let f = big_encode_residual(sid, 100);
    let s100 = compile(&p, &f, &big_conv(100), CompileOptions::default()).unwrap();
    let (p2, sid2) = big_prog(200);
    let f2 = big_encode_residual(sid2, 200);
    let s200 = compile(&p2, &f2, &big_conv(200), CompileOptions::default()).unwrap();
    let d = s200.code_size_bytes() - s100.code_size_bytes();
    assert_eq!(d, 100 * 40, "40 modeled bytes per additional element");
}

// ---------------------------------------------------------------------
// Kernels against the ops of the same program run one by one.
// ---------------------------------------------------------------------

/// `MSG { a; b; c; len; arr[n]; }`: two dynamic scalars, a third that the
/// encoder writes as a constant, and a counted array.
fn msg_prog(n: usize) -> (Program, usize) {
    let long = |name: &str| FieldDef {
        name: name.into(),
        ty: Type::Long,
    };
    let mut p = Program::new();
    let sid = p.add_struct(StructDef {
        name: "MSG".into(),
        fields: vec![
            long("a"),
            long("b"),
            long("c"),
            long("len"),
            FieldDef {
                name: "arr".into(),
                ty: Type::Array(Box::new(Type::Long), n),
            },
        ],
    });
    (p, sid)
}

fn msg_conv(n: usize) -> StubConventions {
    let scalar = |slot: u16| FieldBinding {
        slot_start: slot as usize,
        slot_len: 1,
        target: FieldTarget::Scalar(slot),
    };
    StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(vec![
                scalar(0),
                scalar(1),
                scalar(2),
                FieldBinding {
                    slot_start: 3,
                    slot_len: 1,
                    target: FieldTarget::ArrayLen(0),
                },
                FieldBinding {
                    slot_start: 4,
                    slot_len: n,
                    target: FieldTarget::Array(0),
                },
            ]),
            ParamBinding::InLen,
        ],
    }
}

const MSG_HEADER: usize = 16;

/// `a`, `b`, the constant 7, the length word, then the elements.
fn msg_encode(sid: usize, n: usize) -> Function {
    let mut fb = FunctionBuilder::new("msg_enc");
    let buf = fb.param("buf", Type::BufPtr);
    let m = fb.param("m", ptr(Type::Struct(sid)));
    let _inlen = fb.param("inlen", Type::Long);
    let at = |off: usize| buf32(add(lv(var(buf)), c(off as i64)));
    let mut body = vec![
        assign(at(0), htonl(lv(field(deref_var(m), 0)))),
        assign(at(4), htonl(lv(field(deref_var(m), 1)))),
        assign(at(8), c(7u32.swap_bytes() as i64)),
        assign(at(12), c((n as u32).swap_bytes() as i64)),
    ];
    for i in 0..n {
        body.push(assign(
            at(MSG_HEADER + 4 * i),
            htonl(lv(index(field(deref_var(m), 4), c(i as i64)))),
        ));
    }
    fb.body(body)
}

/// The guarded mirror of [`msg_encode`].
fn msg_decode(sid: usize, n: usize) -> Function {
    let mut fb = FunctionBuilder::new("msg_dec");
    let buf = fb.param("buf", Type::BufPtr);
    let m = fb.param("m", ptr(Type::Struct(sid)));
    let inlen = fb.param("inlen", Type::Long);
    fb.returns(Type::Long);
    let word = |off: usize| ntohl(lv(buf32(add(lv(var(buf)), c(off as i64)))));
    let mut fast = vec![
        assign(field(deref_var(m), 0), word(0)),
        assign(field(deref_var(m), 1), word(4)),
        assign(field(deref_var(m), 2), word(8)),
        if_then(ne(word(12), c(n as i64)), vec![ret(Some(c(0)))]),
        assign(field(deref_var(m), 3), c(n as i64)),
    ];
    for i in 0..n {
        fast.push(assign(
            index(field(deref_var(m), 4), c(i as i64)),
            word(MSG_HEADER + 4 * i),
        ));
    }
    fast.push(ret(Some(c(1))));
    fb.body(vec![if_else(
        eq(lv(var(inlen)), c((MSG_HEADER + 4 * n) as i64)),
        fast,
        vec![ret(Some(c(0)))],
    )])
}

fn tally(c: &OpCounts) -> (u64, u64) {
    (c.stub_ops, c.mem_moves)
}

#[test]
fn fused_plan_equals_op_by_op_walk() {
    for n in [1usize, 7, 20, 250, 2000] {
        let (p, sid) = msg_prog(n);
        let (enc_f, dec_f) = (msg_encode(sid, n), msg_decode(sid, n));
        let conv = msg_conv(n);
        let data: Vec<i32> = (0..n as i32)
            .map(|i| i.wrapping_mul(0x0101_0307) - 5)
            .collect();
        let args = StubArgs::new(vec![-3, 0x0102_0304, 0], vec![data.clone()]);
        for chunk in [None, Some(8), Some(64)] {
            let opts = CompileOptions { chunk };
            let enc = compile(&p, &enc_f, &conv, opts).unwrap();
            let dec = compile(&p, &dec_f, &conv, opts).unwrap();
            let what = format!("n={n} chunk={chunk:?}");

            // The image is the stub's alone: no byte of the 0xEE survives.
            let (mut fused, mut walked) = (vec![0xEEu8; enc.wire_len], vec![0xEEu8; enc.wire_len]);
            let (mut cf, mut cw) = (OpCounts::new(), OpCounts::new());
            let done = run_encode(&enc, &mut fused, &args, &mut cf).unwrap();
            assert_eq!(
                walk_encode(&enc, &mut walked, &args, (None, 0), &mut cw).unwrap(),
                done
            );
            assert_eq!(fused, walked, "{what}");
            assert_eq!(tally(&cf), tally(&cw), "{what}");
            assert_eq!(&fused[8..12], &[0, 0, 0, 7]);

            // Cold slots first, then warm.
            let (mut of, mut ow) = (StubArgs::default(), StubArgs::default());
            for round in 0..2 {
                let (mut cf, mut cw) = (OpCounts::new(), OpCounts::new());
                of.prepare(3, 1);
                ow.prepare(3, 1);
                let done = run_decode(&dec, &fused, &mut of, fused.len(), &mut cf).unwrap();
                assert_eq!(
                    walk_decode(&dec, &fused, &mut ow, fused.len(), &mut cw).unwrap(),
                    done
                );
                assert_eq!(of, ow, "{what}");
                assert_eq!(tally(&cf), tally(&cw), "{what} round {round}");
                assert_eq!(of.scalars, vec![-3, 0x0102_0304, 7]);
                assert_eq!(of.arrays[0], data);
            }
        }
    }
}

#[test]
fn chunked_plan_merges_loop_and_remainder_into_one_step() {
    let n = 20;
    let (p, sid) = msg_prog(n);
    let conv = msg_conv(n);
    let opts = CompileOptions { chunk: Some(8) };
    let enc = compile(&p, &msg_encode(sid, n), &conv, opts).unwrap();
    // Models Loop(2×8) + 4 left-over elements: header + 16 + 4 stub ops.
    assert!(enc.plan.contains(&PlanOp::BulkPut {
        off: 16,
        arr: 0,
        idx: 0,
        n: 20,
        ops: 21
    }));
    let dec = compile(&p, &msg_decode(sid, n), &conv, opts).unwrap();
    assert_eq!(
        dec.plan[..],
        [
            // LenGuard, three GetScalars and the CheckWord after them.
            PlanOp::GetImage { off: 0, at: 0 },
            // SetArrLen + loop header + 20 elements.
            PlanOp::BulkFill {
                off: 16,
                arr: 0,
                n: 20,
                ops: 22
            },
            PlanOp::Ret { val: 1 },
        ]
    );
}

#[test]
fn decode_into_longer_slots_leaves_exactly_the_new_length() {
    let decode = |n: usize, out: &mut StubArgs| {
        let (p, sid) = msg_prog(n);
        let conv = msg_conv(n);
        let enc = compile(&p, &msg_encode(sid, n), &conv, CompileOptions::default()).unwrap();
        let dec = compile(&p, &msg_decode(sid, n), &conv, CompileOptions::default()).unwrap();
        let data: Vec<i32> = (1..=n as i32).collect();
        let mut wire = vec![0u8; enc.wire_len];
        let mut counts = OpCounts::new();
        let args = StubArgs::new(vec![1, 2, 3], vec![data.clone()]);
        run_encode(&enc, &mut wire, &args, &mut counts).unwrap();
        out.prepare(3, 1);
        run_decode(&dec, &wire, out, wire.len(), &mut counts).unwrap();
        assert_eq!(out.arrays[0], data);
    };
    let mut out = StubArgs::default();
    decode(2000, &mut out);
    decode(8, &mut out);
    assert_eq!(out.arrays[0].len(), 8);
    assert!(out.arrays[0].capacity() >= 2000, "the allocation is reused");
}

/// Whether `result` is the refusal of a program no kernel runs.
fn refused(result: Result<StubProgram, CompileError>) -> bool {
    matches!(result, Err(CompileError::Unsupported(_)))
}

#[test]
fn a_decode_of_part_of_an_array_is_refused() {
    // Six elements sized, four decoded; four sized, the last three
    // decoded: neither load is a fill of the whole array, which is the
    // one way a kernel decodes one.
    for (len, first) in [(6, 0), (4, 1)] {
        let ops = vec![
            StubOp::SetArrLen { arr: 0, len },
            StubOp::Loop {
                times: len.min(4) - first,
                body: 2,
                unroll: 0,
            },
            StubOp::Step { off: 4, idx: 1 },
            StubOp::GetElem {
                off: 0,
                arr: 0,
                idx: first,
            },
            StubOp::EndLoop,
            StubOp::Ret { val: 1 },
        ];
        assert!(refused(program(ops, &[])), "{len} sized from {first}");
    }
    // Sized to nothing, it is a fill of nothing.
    let ops = vec![
        StubOp::GetScalar { off: 0, slot: 0 },
        StubOp::SetArrLen { arr: 0, len: 0 },
        StubOp::Ret { val: 1 },
    ];
    let stub = program(ops, &[]).unwrap();
    let fill = PlanOp::BulkFill {
        off: 4,
        arr: 0,
        n: 0,
        ops: 1,
    };
    assert_eq!(stub.plan[1], fill);
    let mut out = StubArgs::new(vec![0], vec![vec![9; 3]]);
    let done = run_decode(&stub, &[0, 0, 0, 5], &mut out, 4, &mut OpCounts::new());
    assert_eq!(out, StubArgs::new(vec![5], vec![vec![]]), "{done:?}");
}

#[test]
fn an_encode_that_leaves_a_byte_unstored_is_refused() {
    // Words 0, 1 and 3 are stored; word 2 is nobody's, so a buffer that
    // held another message would still hold its bytes there.
    let holed = vec![
        StubOp::PutImm {
            off: 0,
            word: 5u32.swap_bytes(),
        },
        StubOp::PutElem {
            off: 4,
            arr: 0,
            idx: 0,
        },
        StubOp::PutScalar { off: 12, slot: 0 },
        StubOp::Ret { val: 1 },
    ];
    assert!(refused(program(holed, &[])));
    // Stores inside a loop that is no element run: a strided gap.
    let strided = vec![
        StubOp::PutImm { off: 0, word: 1 },
        StubOp::Loop {
            times: 2,
            body: 2,
            unroll: 0,
        },
        StubOp::Step { off: 8, idx: 1 },
        StubOp::PutElem {
            off: 4,
            arr: 0,
            idx: 0,
        },
        StubOp::EndLoop,
        StubOp::Ret { val: 1 },
    ];
    assert!(refused(program(strided, &[])));
}

#[test]
fn short_buffers_fail_with_the_same_error_and_offset() {
    let (p, sid) = args_prog();
    let enc = compile(
        &p,
        &encode_residual(&p, sid),
        &conventions(),
        CompileOptions::default(),
    )
    .unwrap();
    let dec = compile(
        &p,
        &decode_residual(sid),
        &conventions(),
        CompileOptions::default(),
    )
    .unwrap();
    let args = StubArgs::new(vec![], vec![vec![1, 2, 3, 4]]);
    let mut counts = OpCounts::new();
    let mut wire = vec![0u8; 20];
    run_encode(&enc, &mut wire, &args, &mut counts).unwrap();

    // The element run starts at byte 4; the second element is the first
    // the buffer ends before, as the ops one by one find.
    let err = run_encode(&enc, &mut [0u8; 8], &args, &mut counts).unwrap_err();
    assert_eq!(err, StubError::BufTooSmall { off: 8, len: 8 });
    let walked = walk_encode(&enc, &mut [0u8; 8], &args, (None, 0), &mut counts);
    assert_eq!(walked, Err(err));
    let mut out = StubArgs::new(vec![], vec![vec![]]);
    let err = run_decode(&dec, &wire[..12], &mut out, 20, &mut counts).unwrap_err();
    assert_eq!(err, StubError::BufTooSmall { off: 12, len: 12 });
    assert_eq!(out.arrays[0], [], "nothing is loaded");
    let walked = walk_decode(&dec, &wire[..12], &mut out, 20, &mut counts);
    assert_eq!(walked, Err(err));
    // Too few argument elements is the caller's error, as before.
    let short = StubArgs::new(vec![], vec![vec![1, 2, 3]]);
    let err = run_encode(&enc, &mut wire, &short, &mut counts).unwrap_err();
    assert_eq!(
        err,
        StubError::BadElem {
            arr: 0,
            idx: 3,
            len: 3
        }
    );
    let walked = walk_encode(&enc, &mut wire, &short, (None, 0), &mut counts);
    assert_eq!(walked, Err(err));
}

#[test]
fn scalar_run_reports_the_first_missing_slot() {
    let mut ops: Vec<StubOp> = (0..4)
        .map(|k| StubOp::GetScalar {
            off: 4 * k,
            slot: k as u16,
        })
        .collect();
    ops.push(StubOp::Ret { val: 1 });
    let stub = program(ops, &[]).unwrap();
    let ret = PlanOp::Ret { val: 1 };
    assert_eq!(stub.plan[..], [PlanOp::GetImage { off: 0, at: 0 }, ret]);
    let wire = [0u8; 16];
    let mut out = StubArgs::new(vec![0; 2], vec![]);
    let err = run_decode(&stub, &wire, &mut out, 16, &mut OpCounts::new());
    assert_eq!(err, Err(StubError::BadScalarSlot(2)));
    let walked = walk_decode(&stub, &wire, &mut out, 16, &mut OpCounts::new());
    assert_eq!(walked, err);
    let mut out = StubArgs::new(vec![0; 4], vec![]);
    let err = run_decode(&stub, &wire[..8], &mut out, 16, &mut OpCounts::new());
    assert_eq!(err, Err(StubError::BufTooSmall { off: 8, len: 8 }));
    let walked = walk_decode(&stub, &wire[..8], &mut out, 16, &mut OpCounts::new());
    assert_eq!(walked, err);
}

#[test]
fn a_put_run_inside_a_verbatim_loop_stays_unfused() {
    // Two words a trip, eight bytes apart: no element run, so no bulk
    // step, and no kernel runs the loop trip by trip — the program is
    // refused, from its ops as from its residual.
    let pair = |off: u32, slot: u16| {
        [
            StubOp::PutImm {
                off,
                word: 0x0403_0201,
            },
            StubOp::PutScalar { off: off + 4, slot },
        ]
    };
    let mut ops = vec![StubOp::Loop {
        times: 3,
        body: 4,
        unroll: 0,
    }];
    for op in pair(0, 0) {
        ops.extend([StubOp::Step { off: 8, idx: 0 }, op]);
    }
    ops.push(StubOp::EndLoop);
    ops.extend(pair(24, 1));
    ops.push(StubOp::Ret { val: 1 });
    assert!(refused(program(ops, &[])));
    // The same pair after a header is one image.
    let mut ops = pair(0, 0).to_vec();
    ops.extend(pair(8, 1));
    ops.push(StubOp::Ret { val: 1 });
    let stub = program(ops, &[]).unwrap();
    let ret = PlanOp::Ret { val: 1 };
    assert_eq!(stub.plan[..], [PlanOp::PutImage { off: 0, at: 0 }, ret]);
}

#[test]
fn a_guard_prefix_ends_at_a_check_the_image_cannot_hold() {
    // Word 0 is checked against 1 and then against 2: the image holds
    // the first check, and ends before the second, which would check a
    // word behind the image — so no kernel runs the program.
    let ops = vec![
        StubOp::LenGuard { expected: 12 },
        StubOp::GetScalar { off: 0, slot: 0 },
        StubOp::GetScalar { off: 4, slot: 1 },
        StubOp::CheckScalar { slot: 0, want: 1 },
        StubOp::CheckWord { off: 8, want: 3 },
        StubOp::CheckWord { off: 0, want: 2 },
        StubOp::Ret { val: 1 },
    ];
    let (off, taken, image) = Image::get(&ops).unwrap();
    assert_eq!((off, taken, image.bytes.len()), (0, 5, 12));
    assert!(refused(program(ops, &[])));
}

#[test]
fn encode_after_xid_reads_result_scalars_one_slot_down() {
    let mut ops: Vec<StubOp> = (0..3)
        .map(|k| StubOp::PutScalar {
            off: 4 * k,
            slot: k as u16,
        })
        .collect();
    ops.push(StubOp::Ret { val: 1 });
    let stub = program(ops, &[]).unwrap();
    let results = StubArgs::new(vec![10, 20], vec![]);
    let mut wire = [0u8; 12];
    run_encode_after_xid(
        &stub,
        &mut wire,
        &results,
        0x0A0B_0C0D,
        &mut OpCounts::new(),
    )
    .unwrap();
    assert_eq!(wire, [0x0A, 0x0B, 0x0C, 0x0D, 0, 0, 0, 10, 0, 0, 0, 20]);
    // Same image as the shifted slots the server used to build.
    let shifted = StubArgs::new(vec![0x0A0B_0C0D, 10, 20], vec![]);
    let mut plain = [0u8; 12];
    run_encode(&stub, &mut plain, &shifted, &mut OpCounts::new()).unwrap();
    assert_eq!(wire, plain);
    let too_few = StubArgs::new(vec![10], vec![]);
    let err =
        run_encode_after_xid(&stub, &mut wire, &too_few, 1, &mut OpCounts::new()).unwrap_err();
    assert_eq!(err, StubError::BadScalarSlot(2));
    let walked = walk_encode(
        &stub,
        &mut wire,
        &too_few,
        (Some(1), 1),
        &mut OpCounts::new(),
    );
    assert_eq!(walked, Err(err));
}

// ---------------------------------------------------------------------
// Malformed programs: refused when bound, so no kernel ever runs one.
// ---------------------------------------------------------------------

#[test]
fn a_malformed_loop_is_refused() {
    for body in [2, 7, u32::MAX] {
        for times in [0, 3] {
            for inner in [
                StubOp::PutImm { off: 0, word: 1 },
                StubOp::GetScalar { off: 0, slot: 0 },
            ] {
                let header = StubOp::Loop {
                    times,
                    body,
                    unroll: 0,
                };
                let looped = program(vec![header, inner, StubOp::Ret { val: 1 }], &[]);
                assert!(refused(looped), "body={body} times={times}");
            }
        }
    }
    // An empty body is a loop of nothing, refused rather than a planner
    // panic.
    let header = StubOp::Loop {
        times: 3,
        body: 0,
        unroll: 0,
    };
    let empty = vec![header, StubOp::EndLoop, StubOp::Ret { val: 1 }];
    assert!(refused(program(empty, &[])));
}

#[test]
fn strides_no_buffer_could_hold_are_errors_not_wrapped_writes() {
    let looped = |off: i32, idx: i32, inner: StubOp| {
        let header = StubOp::Loop {
            times: 3,
            body: 2,
            unroll: 0,
        };
        let step = StubOp::Step { off, idx };
        program(
            vec![header, step, inner, StubOp::EndLoop, StubOp::Ret { val: 1 }],
            &[],
        )
    };
    // The widest step there is, and a store walking down past the start
    // of the buffer: no element run, refused before anything runs.
    assert!(refused(looped(
        i32::MAX,
        0,
        StubOp::PutImm { off: 4, word: !0 }
    )));
    assert!(refused(looped(-8, 0, StubOp::PutImm { off: 4, word: !0 })));
    let elem = StubOp::PutElem {
        off: 0,
        arr: 0,
        idx: 2,
    };
    assert!(refused(looped(0, i32::MAX, elem)));
    assert!(refused(looped(
        i32::MAX,
        0,
        StubOp::GetScalar { off: 4, slot: 0 }
    )));
    let elem = StubOp::GetElem {
        off: 0,
        arr: 0,
        idx: 2,
    };
    assert!(refused(looped(0, i32::MIN, elem)));

    // Offsets at the top of the 32-bit range neither overflow the planner
    // nor get fused with what does not follow them.
    let top = |off: u32| StubOp::PutElem {
        off,
        arr: 0,
        idx: u32::MAX,
    };
    let ops = vec![top(u32::MAX - 3), top(0), StubOp::Ret { val: 1 }];
    assert!(refused(program(ops, &[])));
}

// ---- residual loops and checked conversions -------------------------------

/// `for (i = lo; i < hi; i++) *(buf + off(i)) = htonl(argsp->arr[idx(i)])`
/// over [`big_prog`]'s struct.
fn loop_residual(
    sid: usize,
    (lo, hi): (i64, i64),
    off: impl Fn(Expr) -> Expr,
    idx: impl Fn(Expr) -> Expr,
) -> Function {
    let mut fb = FunctionBuilder::new("enc_big");
    let buf = fb.param("buf", Type::BufPtr);
    let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
    let i = fb.local("i", Type::Long);
    fb.body(vec![for_loop(
        i,
        c(lo),
        c(hi),
        vec![assign(
            buf32(add(lv(var(buf)), off(lv(var(i))))),
            htonl(lv(index(field(deref_var(argsp), 1), idx(lv(var(i)))))),
        )],
    )])
}

#[test]
fn residual_loop_compiles_to_the_unrolled_ops() {
    let n = 1000usize;
    let (p, sid) = big_prog(n);
    let unrolled = big_encode_residual(sid, n);
    let rolled = loop_residual(sid, (0, n as i64), |i| mul(c(4), i), |i| i);
    for chunk in [None, Some(1), Some(32), Some(250), Some(n), Some(2 * n)] {
        let opts = CompileOptions { chunk };
        let want = compile(&p, &unrolled, &big_conv(n), opts).unwrap();
        let got = compile(&p, &rolled, &big_conv(n), opts).unwrap();
        assert_eq!(got.ops, want.ops, "chunk {chunk:?}");
        assert_eq!(got.plan, want.plan, "chunk {chunk:?}");
        assert_eq!(got.wire_len, want.wire_len);
    }
}

#[test]
fn residual_loop_offsets_are_affine_in_any_spelling() {
    let (p, sid) = big_prog(16);
    let ops = |f: &Function| lower(&p, f, &big_conv(16), CompileOptions::default());
    // buf + (44 + 4·(i − 2)), element i − 2 + 1, from i = 2.
    let f = loop_residual(
        sid,
        (2, 6),
        |i| add(c(44), mul(sub(i, c(2)), c(4))),
        |i| add(sub(i, c(2)), c(1)),
    );
    let header = StubOp::Loop {
        times: 4,
        body: 2,
        unroll: 0,
    };
    let first = StubOp::PutElem {
        off: 44,
        arr: 0,
        idx: 1,
    };
    let step = StubOp::Step { off: 4, idx: 1 };
    let looped = vec![header, step, first, StubOp::EndLoop, StubOp::Ret { val: 1 }];
    assert_eq!(ops(&f).unwrap().0, looped);
    // Descending, it is no element run: refused, not iterated.
    let f = loop_residual(sid, (0, 3), |i| sub(c(8), mul(i, c(4))), |i| sub(c(5), i));
    assert!(matches!(ops(&f), Err(CompileError::Unsupported(_))));
    // A zero-trip loop compiles to nothing.
    let f = loop_residual(sid, (5, 5), |i| mul(i, c(4)), |i| i);
    assert_eq!(ops(&f).unwrap().0, vec![StubOp::Ret { val: 1 }]);
}

#[test]
fn residual_loop_rejects_what_is_not_affine_or_not_a_store() {
    let (p, sid) = big_prog(16);
    let compile_err =
        |f: &Function| compile(&p, f, &big_conv(16), CompileOptions::default()).unwrap_err();
    let f = loop_residual(sid, (0, 4), |i| mul(i.clone(), i), |i| i);
    assert!(matches!(compile_err(&f), CompileError::NonAffineOffset(_)));
    let f = loop_residual(sid, (0, 4), |i| mul(i, c(4)), |i| mul(i.clone(), i));
    assert!(matches!(compile_err(&f), CompileError::UnboundPath(_)));
    // The index runs off the array's binding in the last iteration only.
    let f = loop_residual(sid, (10, 17), |i| mul(i, c(4)), |i| i);
    assert!(matches!(compile_err(&f), CompileError::UnboundPath(_)));
    // …or below it in the first.
    let f = loop_residual(sid, (0, 4), |i| mul(i, c(4)), |i| sub(i, c(1)));
    assert!(matches!(compile_err(&f), CompileError::UnboundPath(_)));
    // The last iteration's offset leaves u32; the first one's is negative.
    let f = loop_residual(sid, (0, 3), |i| mul(i, c(1 << 31)), |i| i);
    assert!(matches!(compile_err(&f), CompileError::NonAffineOffset(_)));
    let f = loop_residual(sid, (0, 3), |i| sub(mul(i, c(4)), c(4)), |i| i);
    assert!(matches!(compile_err(&f), CompileError::NonAffineOffset(_)));
    // Arithmetic that overflows while folding.
    let f = loop_residual(sid, (0, 3), |i| mul(mul(i, c(1 << 62)), c(4)), |i| i);
    assert!(matches!(compile_err(&f), CompileError::NonAffineOffset(_)));
    // Dynamic bounds, and anything but a store in the body.
    let mut fb = FunctionBuilder::new("bad");
    let buf = fb.param("buf", Type::BufPtr);
    let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
    let i = fb.local("i", Type::Long);
    let store = assign(buf32(lv(var(buf))), c(0));
    let f = fb.body(vec![for_loop(
        i,
        c(0),
        lv(field(deref_var(argsp), 0)),
        vec![store.clone()],
    )]);
    assert!(matches!(compile_err(&f), CompileError::Unsupported(_)));
    // More trips than any program has ops: an error, not an allocation.
    let mut fb = FunctionBuilder::new("bad");
    let buf = fb.param("buf", Type::BufPtr);
    let i = fb.local("i", Type::Long);
    let store = assign(buf32(lv(var(buf))), c(0));
    let f = fb.body(vec![for_loop(i, c(0), c(i64::MAX), vec![store; 2])]);
    assert!(matches!(compile_err(&f), CompileError::Unsupported(_)));
    let mut fb = FunctionBuilder::new("bad");
    let _buf = fb.param("buf", Type::BufPtr);
    let i = fb.local("i", Type::Long);
    let f = fb.body(vec![for_loop(i, c(0), c(4), vec![ret(Some(c(0)))])]);
    assert!(matches!(compile_err(&f), CompileError::Unsupported(_)));
}

#[test]
fn conversions_are_checked_not_wrapped() {
    let (p, sid) = args_prog();
    let build = |body: fn(VarId, VarId) -> Vec<Stmt>| {
        let mut fb = FunctionBuilder::new("bad");
        let buf = fb.param("buf", Type::BufPtr);
        let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
        let _inlen = fb.param("inlen", Type::Long);
        let f = fb.body(body(buf, argsp));
        lower(&p, &f, &conventions(), CompileOptions::default()).map(|(ops, _)| ops)
    };
    // A negative offset, and one past u32, used to wrap to a plausible one.
    let err = build(|buf, _| vec![assign(buf32(add(lv(var(buf)), c(-4))), c(0))]).unwrap_err();
    assert!(matches!(err, CompileError::NonAffineOffset(_)), "{err:?}");
    let err = build(|buf, _| vec![assign(buf32(add(lv(var(buf)), c(1 << 32))), c(0))]).unwrap_err();
    assert!(matches!(err, CompileError::NonAffineOffset(_)), "{err:?}");
    let ok = build(|buf, _| vec![assign(buf32(add(c(8), add(lv(var(buf)), c(4)))), c(0))]);
    assert_eq!(ok.unwrap()[0], StubOp::PutImm { off: 12, word: 0 });
    // A negative constant index used to panic (debug) or wrap (release).
    let err = build(|buf, argsp| {
        vec![assign(
            buf32(lv(var(buf))),
            htonl(lv(index(field(deref_var(argsp), 1), c(-1)))),
        )]
    })
    .unwrap_err();
    assert!(matches!(err, CompileError::UnboundPath(_)), "{err:?}");
    // Lengths that do not fit u32 used to truncate.
    let err = build(|_, argsp| vec![assign(field(deref_var(argsp), 0), c(-1))]).unwrap_err();
    assert!(matches!(err, CompileError::Unsupported(_)), "{err:?}");
    let err = build(|_, _| {
        vec![if_else(
            eq(lv(var(2)), c(1 << 32)),
            vec![ret(Some(c(1)))],
            vec![ret(Some(c(0)))],
        )]
    })
    .unwrap_err();
    assert!(matches!(err, CompileError::Unsupported(_)), "{err:?}");
}

// ---------------------------------------------------------------------
// Whole-stub kernels: bound by `compile` to every program it accepts, and
// exactly the outcome, bytes, slots and counts of the ops one by one.
// ---------------------------------------------------------------------

#[test]
fn compile_binds_a_kernel_to_every_program_it_accepts() {
    let n = 20;
    let (p, sid) = msg_prog(n);
    let opts = CompileOptions::default();
    let enc = compile(&p, &msg_encode(sid, n), &msg_conv(n), opts).unwrap();
    let dec = compile(&p, &msg_decode(sid, n), &msg_conv(n), opts).unwrap();
    // The same ops bound by hand are the same plan.
    let hand = program(enc.ops.clone(), &[(0, n)]).unwrap();
    assert_eq!(hand.plan, enc.plan);
    assert_eq!(program(dec.ops.clone(), &[]).unwrap().plan, dec.plan);

    // However it runs, the message is the same.
    let args = StubArgs::new(vec![5, -6, 0], vec![(0..n as i32).collect()]);
    let mut want = vec![0u8; enc.wire_len];
    let mut counts = OpCounts::new();
    walk_encode(&enc, &mut want, &args, (None, 0), &mut counts).unwrap();
    for other in [enc.clone(), hand] {
        let (mut wire, mut c) = (vec![0xEEu8; enc.wire_len], OpCounts::new());
        run_encode(&other, &mut wire, &args, &mut c).unwrap();
        assert_eq!((wire, tally(&c)), (want.clone(), tally(&counts)));
    }
    // A stub run in the other direction is refused.
    let err = run_decode(&enc, &want, &mut StubArgs::default(), 0, &mut counts);
    assert!(matches!(err, Err(StubError::WrongDirection(_))));
    let err = run_encode(&dec, &mut want, &args, &mut counts);
    assert!(matches!(err, Err(StubError::WrongDirection(_))));
}

#[test]
fn a_lone_element_plans_as_a_bulk_step_of_one() {
    let (p, sid) = msg_prog(1);
    let (conv, opts) = (msg_conv(1), CompileOptions::default());
    let enc = compile(&p, &msg_encode(sid, 1), &conv, opts).unwrap();
    let ret = PlanOp::Ret { val: 1 };
    let put = PlanOp::BulkPut {
        off: 16,
        arr: 0,
        idx: 0,
        n: 1,
        ops: 1,
    };
    assert_eq!(enc.plan[..], [PlanOp::PutImage { off: 0, at: 0 }, put, ret]);
    let dec = compile(&p, &msg_decode(sid, 1), &conv, opts).unwrap();
    // `SetArrLen` and the element's load: two ops.
    let fill = PlanOp::BulkFill {
        off: 16,
        arr: 0,
        n: 1,
        ops: 2,
    };
    assert_eq!(
        dec.plan[..],
        [PlanOp::GetImage { off: 0, at: 0 }, fill, ret]
    );
}

/// A decode by the kernel against the same ops one by one, from `slots`
/// zeroed scalar slots and one empty array: the same outcome or error,
/// and the same counts; on `Done` the same slots, on a `Fallback` the
/// kernel's untouched. The kernel's run.
fn decode_as_walked(
    stub: &StubProgram,
    wire: &[u8],
    inlen: usize,
    slots: usize,
    what: &str,
) -> (StubResult, StubArgs, (u64, u64)) {
    let run = |walk: bool| {
        let mut out = StubArgs::new(vec![0; slots], vec![vec![]]);
        let mut counts = OpCounts::new();
        let done = match walk {
            false => run_decode(stub, wire, &mut out, inlen, &mut counts),
            true => walk_decode(stub, wire, &mut out, inlen, &mut counts),
        };
        (done, out, tally(&counts))
    };
    let (got, walked) = (run(false), run(true));
    assert_eq!(got.0, walked.0, "{what}");
    match got.0 {
        Ok(Outcome::Done { .. }) => assert_eq!(got, walked, "{what}"),
        Ok(Outcome::Fallback) => {
            assert_eq!(got.2, walked.2, "{what}: counts at the failing guard");
            let untouched = StubArgs::new(vec![0; slots], vec![vec![]]);
            assert_eq!(got.1, untouched, "{what}: a fallback loads nothing");
        }
        Err(_) => {}
    }
    got
}

#[test]
fn a_decode_header_loads_the_words_after_its_guards() {
    // An NFS-style request: the guarded header, then the arguments.
    let ops = vec![
        StubOp::LenGuard { expected: 20 },
        StubOp::GetScalar { off: 0, slot: 0 },
        StubOp::GetScalar { off: 4, slot: 1 },
        StubOp::CheckScalar { slot: 1, want: 3 },
        StubOp::GetScalar { off: 8, slot: 2 },
        StubOp::GetScalar { off: 12, slot: 3 },
        StubOp::GetScalar { off: 16, slot: 4 },
        StubOp::Ret { val: 1 },
    ];
    let stub = program(ops, &[]).unwrap();
    let ret = PlanOp::Ret { val: 1 };
    assert_eq!(stub.plan[..], [PlanOp::GetImage { off: 0, at: 0 }, ret]);
    let wire: Vec<u8> = [9, 3, -1, 7, 1 << 20]
        .iter()
        .flat_map(|w: &i32| w.to_be_bytes())
        .collect();
    let mut bad = wire.clone();
    bad[7] ^= 1;
    for (wire, inlen, slots, want) in [
        (&wire, 20, 5, "done"),
        (&bad, 20, 5, "fallback"),
        (&wire, 16, 5, "fallback"),
        (&wire, 20, 4, "error"),
    ] {
        let what = format!("inlen {inlen}, {slots} slots");
        let (done, ..) = decode_as_walked(&stub, wire, inlen, slots, &what);
        let kind = match done {
            Ok(Outcome::Done { .. }) => "done",
            Ok(Outcome::Fallback) => "fallback",
            Err(_) => "error",
        };
        assert_eq!(kind, want, "{what}");
    }
}

/// A kernel against the ops one by one over headers of every width class:
/// an encode of `w` words (scalars, with every third word static) and a
/// decode of `w` words (one scalar run, every third word checked), each
/// with an element step when `w` is odd — on a good run, every lane, a
/// guard that fails, a short `inlen`, every truncation and missing slots.
/// A header of 256 bytes or more runs on the checked path.
#[test]
fn kernels_of_every_header_width_run_as_the_executor_does() {
    type Lane = fn(&StubProgram, &mut [u8], &StubArgs, &mut OpCounts) -> StubResult;
    let lanes: [(Lane, reference::Slots); 3] = [
        (run_encode, (None, 0)),
        (
            |p, b, a, c| run_encode_with_xid(p, b, a, -77, c),
            (Some(-77), 0),
        ),
        (
            |p, b, a, c| run_encode_after_xid(p, b, a, 0x0102_0304, c),
            (Some(0x0102_0304), 1),
        ),
    ];
    for w in 1..=66u32 {
        let elements = w % 2 == 1;
        let looped = |elem: StubOp| {
            let header = StubOp::Loop {
                times: 3,
                body: 2,
                unroll: 0,
            };
            [
                header,
                StubOp::Step { off: 4, idx: 1 },
                elem,
                StubOp::EndLoop,
            ]
        };
        let mut ops: Vec<StubOp> = (0..w)
            .map(|k| match k % 3 {
                1 => StubOp::PutImm {
                    off: 4 * k,
                    word: k.wrapping_mul(0x0103_0507),
                },
                _ => StubOp::PutScalar {
                    off: 4 * k,
                    slot: k as u16,
                },
            })
            .collect();
        if elements {
            ops.extend(looped(StubOp::PutElem {
                off: 4 * w,
                arr: 0,
                idx: 1,
            }));
        }
        ops.push(StubOp::Ret { val: 1 });
        let elems: &[(u16, usize)] = if elements { &[(0, 4)] } else { &[] };
        let enc = program(ops, elems).unwrap();
        let scalars: Vec<i32> = (0..w as i32).map(|k| k * 1000 - 3).collect();
        let arrays = vec![vec![10, 11, 12, 13]];
        let args = StubArgs::new(scalars.clone(), arrays.clone());
        let short = StubArgs::new(scalars[..w as usize - 1].to_vec(), arrays.clone());
        for (lane, (run, slots)) in lanes.iter().enumerate() {
            let go = |len: usize, args: &StubArgs| {
                let (mut wire, mut counts) = (vec![0xEEu8; len], OpCounts::new());
                (
                    run(&enc, &mut wire, args, &mut counts),
                    wire,
                    tally(&counts),
                )
            };
            let walk = |len: usize, args: &StubArgs| {
                let (mut wire, mut counts) = (vec![0xEEu8; len], OpCounts::new());
                let done = walk_encode(&enc, &mut wire, args, *slots, &mut counts);
                (done, wire, tally(&counts))
            };
            let what = format!("encode of {w} words, lane {lane}");
            let fused = go(enc.wire_len, &args);
            assert!(matches!(fused.0, Ok(Outcome::Done { .. })), "{what}");
            assert_eq!(fused, walk(enc.wire_len, &args), "{what}");
            for len in 0..enc.wire_len {
                assert_eq!(go(len, &args).0, walk(len, &args).0, "{what}, {len} B");
            }
            assert_eq!(go(enc.wire_len, &short).0, walk(enc.wire_len, &short).0);
            if elements {
                let long = StubArgs::new(scalars.clone(), vec![vec![0; 5]]);
                let err = StubError::BadElem {
                    arr: 0,
                    idx: 4,
                    len: 5,
                };
                assert_eq!(go(enc.wire_len, &long).0, Err(err), "{what}");
            }
        }
        let wire = go_encode(&enc, &args);

        let mut ops = vec![StubOp::LenGuard {
            expected: wire.len() as u32,
        }];
        ops.extend((0..w).map(|k| StubOp::GetScalar {
            off: 4 * k,
            slot: k as u16,
        }));
        ops.extend((0..w).step_by(3).map(|k| StubOp::CheckScalar {
            slot: k as u16,
            want: scalars[k as usize],
        }));
        if elements {
            ops.push(StubOp::SetArrLen { arr: 0, len: 3 });
            ops.extend(looped(StubOp::GetElem {
                off: 4 * w,
                arr: 0,
                idx: 0,
            }));
        }
        ops.push(StubOp::Ret { val: 1 });
        let dec = program(ops, &[]).unwrap();
        let what = format!("decode of {w} words");
        let (len, slots) = (wire.len(), w as usize);
        let done = decode_as_walked(&dec, &wire, len, slots, &what).0;
        assert!(matches!(done, Ok(Outcome::Done { .. })), "{what}");
        let mut cases = vec![
            (wire.clone(), len - 4, slots),
            (wire.clone(), len, slots - 1),
        ];
        for k in (0..w as usize).step_by(3) {
            let mut flipped = wire.clone();
            flipped[4 * k + 3] ^= 0x80;
            cases.push((flipped, len, slots));
        }
        cases.extend((0..len).map(|cut| (wire[..cut].to_vec(), len, slots)));
        for (wire, inlen, slots) in cases {
            let _ = decode_as_walked(&dec, &wire, inlen, slots, &what);
        }
    }
}

/// The message `enc` writes from `args`.
fn go_encode(enc: &StubProgram, args: &StubArgs) -> Vec<u8> {
    let mut wire = vec![0u8; enc.wire_len];
    run_encode(enc, &mut wire, args, &mut OpCounts::new()).unwrap();
    wire
}

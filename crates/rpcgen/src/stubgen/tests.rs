//! End-to-end stub-generation tests: generic IR execution vs specialized
//! compiled stubs must produce byte-identical wire images.

use super::*;
use crate::sunlib::{XDR_ENCODE, XDR_MEM};
use specrpc_tempo::compile::{run_decode, run_encode, Outcome, StubArgs};
use specrpc_tempo::eval::Evaluator;
use specrpc_tempo::ir::pretty;
use specrpc_xdr::OpCounts;

const PROG: u32 = 0x2000_0101;
const VERS: u32 = 1;
const PROC: u32 = 1;

fn pair_shape() -> MsgShape {
    MsgShape {
        fields: vec![
            FieldShape::Scalar {
                name: "int1".into(),
            },
            FieldShape::Scalar {
                name: "int2".into(),
            },
        ],
    }
}

fn int_shape() -> MsgShape {
    MsgShape {
        fields: vec![FieldShape::Scalar {
            name: "value".into(),
        }],
    }
}

fn arr_shape(n: usize) -> MsgShape {
    MsgShape {
        fields: vec![FieldShape::VarIntArray {
            name: "arr".into(),
            pinned_len: n,
            max: 100_000,
        }],
    }
}

/// Run the *generic* IR client encoder in the interpreter and return the
/// wire bytes — the oracle the specialized stub must match.
fn generic_encode_request(gs: &GeneratedStubs, xid: u32, args: &StubArgs) -> Vec<u8> {
    let mut ev = Evaluator::new(&gs.program);
    let buf = ev.heap.alloc_bytes(1 << 16);
    let xdr = ev.heap.alloc_struct(&gs.program, gs.ids.xdr_sid);
    use crate::sunlib::xdr_fields::*;
    ev.heap
        .write_slot(
            Place {
                obj: xdr,
                slot: X_OP,
            },
            Value::Long(XDR_ENCODE),
        )
        .unwrap();
    ev.heap
        .write_slot(
            Place {
                obj: xdr,
                slot: X_KIND,
            },
            Value::Long(XDR_MEM),
        )
        .unwrap();
    ev.heap
        .write_slot(
            Place {
                obj: xdr,
                slot: X_HANDY,
            },
            Value::Long(1 << 16),
        )
        .unwrap();
    ev.heap
        .write_slot(
            Place {
                obj: xdr,
                slot: X_PRIVATE,
            },
            Value::BufPtr(buf, 0),
        )
        .unwrap();

    let cmsg = ev.heap.alloc_struct(&gs.program, gs.ids.call_sid);
    let (p, v, pr) = gs.target;
    for (fid, val) in [
        (call_fields::XID, xid as i64),
        (call_fields::MTYPE, 0),
        (call_fields::RPCVERS, 2),
        (call_fields::PROG, p as i64),
        (call_fields::VERS, v as i64),
        (call_fields::PROC, pr as i64),
    ] {
        ev.heap
            .write_slot(
                Place {
                    obj: cmsg,
                    slot: fid,
                },
                Value::Long(val),
            )
            .unwrap();
    }

    let argsp = ev.heap.alloc_struct(&gs.program, gs.arg_sid);
    fill_msg_object(&mut ev, argsp, &gs.arg_shape, args, 1);

    let r = ev
        .call(
            &gs.client_encode.entry,
            vec![
                Value::Ref(Place { obj: xdr, slot: 0 }),
                Value::Ref(Place { obj: cmsg, slot: 0 }),
                Value::Ref(Place {
                    obj: argsp,
                    slot: 0,
                }),
            ],
        )
        .unwrap();
    assert_eq!(r, Value::Long(1), "generic encode succeeds");
    ev.heap.bytes(buf).unwrap()[..gs.client_encode.wire_len].to_vec()
}

/// Populate an IR message object from StubArgs (scalars start at
/// `scalar_base` in the StubArgs numbering).
fn fill_msg_object(
    ev: &mut Evaluator<'_>,
    obj: usize,
    shape: &MsgShape,
    args: &StubArgs,
    scalar_base: usize,
) {
    let mut slot = 0usize;
    let mut s = scalar_base;
    let mut a = 0usize;
    for f in &shape.fields {
        match f {
            FieldShape::Scalar { .. } => {
                ev.heap
                    .write_slot(Place { obj, slot }, Value::Long(args.scalars[s] as i64))
                    .unwrap();
                s += 1;
                slot += 1;
            }
            FieldShape::VarIntArray { pinned_len, .. } => {
                ev.heap
                    .write_slot(Place { obj, slot }, Value::Long(*pinned_len as i64))
                    .unwrap();
                slot += 1;
                for (k, val) in args.arrays[a].iter().enumerate() {
                    ev.heap
                        .write_slot(
                            Place {
                                obj,
                                slot: slot + k,
                            },
                            Value::Long(*val as i64),
                        )
                        .unwrap();
                }
                slot += (*pinned_len).max(1);
                a += 1;
            }
            FieldShape::FixedIntArray { len, .. } => {
                for (k, val) in args.arrays[a].iter().enumerate() {
                    ev.heap
                        .write_slot(
                            Place {
                                obj,
                                slot: slot + k,
                            },
                            Value::Long(*val as i64),
                        )
                        .unwrap();
                }
                slot += (*len).max(1);
                a += 1;
            }
        }
    }
}

#[test]
fn client_encode_residual_is_straight_line() {
    let gs = generate_from_shapes(PROG, VERS, PROC, pair_shape(), int_shape());
    let (residual, _, _) = specialize_with_report(&gs, StubKind::ClientEncode).unwrap();
    let text = pretty::function_str(&gs.program, &residual);
    assert!(!text.contains("if"), "no dispatch/checks survive:\n{text}");
    assert!(!text.contains("for"), "no loops survive:\n{text}");
    assert!(text.contains("htonl(msg->xid)"), "{text}");
    assert!(text.contains("htonl(argsp->int1)"), "{text}");

    // Figure 5 for an array: the reference specializer unrolls every
    // element into its own store.
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(6), int_shape());
    let (residual, _, _) = specialize_unrolled(&gs, StubKind::ClientEncode).unwrap();
    let text = pretty::function_str(&gs.program, &residual);
    assert!(!text.contains("if"), "no dispatch/checks survive:\n{text}");
    assert!(!text.contains("for"), "no loops survive:\n{text}");
    assert!(
        text.contains("*(long*)((buf + 64)) = htonl(argsp->arr[5]);"),
        "{text}"
    );
}

#[test]
fn client_encode_residual_of_an_array_is_one_loop() {
    // The twin of the Figure 5 shape: the same marshaling loop, proved
    // affine and specialized once — still no dispatch, no overflow check,
    // no status test, at any array length.
    let stmts = |n: usize| {
        let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), int_shape());
        let (residual, _, _) = specialize_with_report(&gs, StubKind::ClientEncode).unwrap();
        let text = pretty::function_str(&gs.program, &residual);
        assert!(!text.contains("if"), "no dispatch/checks survive:\n{text}");
        assert_eq!(text.matches("for (").count(), 1, "{text}");
        assert!(
            text.contains("*(long*)((buf + (44 + (4 * i_0)))) = htonl(argsp->arr[i_0]);"),
            "{text}"
        );
        residual.stmt_count()
    };
    assert_eq!(stmts(6), stmts(4096));
}

#[test]
fn client_encode_stub_matches_generic_bytes() {
    let gs = generate_from_shapes(PROG, VERS, PROC, pair_shape(), int_shape());
    let stub = specialize_stub(&gs, StubKind::ClientEncode, None).unwrap();
    assert_eq!(stub.wire_len, 48);

    let args = StubArgs::new(vec![0x1234_5678u32 as i32, 21, 42], vec![]);
    let mut buf = vec![0u8; stub.wire_len];
    let mut counts = OpCounts::new();
    let out = run_encode(&stub.program, &mut buf, &args, &mut counts).unwrap();
    assert!(matches!(out, Outcome::Done { ret: 1, .. }));

    let oracle = generic_encode_request(&gs, 0x1234_5678, &args);
    assert_eq!(buf, oracle, "specialized and generic wire images differ");
    // Sanity: header fields visible on the wire.
    assert_eq!(&buf[..4], &0x1234_5678u32.to_be_bytes());
    assert_eq!(&buf[12..16], &PROG.to_be_bytes());
    assert_eq!(&buf[40..44], &21u32.to_be_bytes());
}

#[test]
fn array_encode_matches_generic_and_unrolls() {
    let n = 100usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), arr_shape(n));
    let stub = specialize_stub(&gs, StubKind::ClientEncode, None).unwrap();
    assert_eq!(stub.wire_len, 40 + 4 + 4 * n);
    // One modeled op per element plus header ops: full unrolling.
    assert!(stub.program.len() >= n, "ops: {}", stub.program.len());

    let data: Vec<i32> = (0..n as i32).map(|i| i * 3 - 50).collect();
    let args = StubArgs::new(vec![77], vec![data]);
    let mut buf = vec![0u8; stub.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&stub.program, &mut buf, &args, &mut counts).unwrap();
    let oracle = generic_encode_request(&gs, 77, &args);
    assert_eq!(buf, oracle);
}

#[test]
fn chunked_compile_shrinks_code() {
    let n = 1000usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), int_shape());
    let full = specialize_stub(&gs, StubKind::ClientEncode, None).unwrap();
    let chunked = specialize_stub(&gs, StubKind::ClientEncode, Some(250)).unwrap();
    assert!(chunked.program.len() < full.program.len() / 3);

    let data: Vec<i32> = (0..n as i32).collect();
    let args = StubArgs::new(vec![1], vec![data]);
    let mut b1 = vec![0u8; full.wire_len];
    let mut b2 = vec![0u8; chunked.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&full.program, &mut b1, &args, &mut counts).unwrap();
    run_encode(&chunked.program, &mut b2, &args, &mut counts).unwrap();
    assert_eq!(b1, b2);
}

#[test]
fn server_decode_roundtrips_client_encode() {
    let n = 16usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), int_shape());
    let enc = specialize_stub(&gs, StubKind::ClientEncode, None).unwrap();
    let dec = specialize_stub(&gs, StubKind::ServerDecode, None).unwrap();

    let data: Vec<i32> = (0..n as i32).map(|i| 1000 - i).collect();
    let args = StubArgs::new(vec![0x0abc_0001u32 as i32], vec![data.clone()]);
    let mut wire = vec![0u8; enc.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&enc.program, &mut wire, &args, &mut counts).unwrap();

    // Server side: scratch scalars for the ten header words + arg arrays.
    let mut out = StubArgs::new(vec![0; call_fields::COUNT], vec![vec![]]);
    let r = run_decode(&dec.program, &wire, &mut out, wire.len(), &mut counts).unwrap();
    assert!(matches!(r, Outcome::Done { ret: 1, .. }), "{r:?}");
    assert_eq!(out.arrays[0], data);
    // The xid scratch slot holds the transaction id.
    assert_eq!(out.scalars[call_fields::XID] as u32, 0x0abc_0001);
}

#[test]
fn server_decode_falls_back_on_wrong_target() {
    let gs = generate_from_shapes(PROG, VERS, PROC, int_shape(), int_shape());
    let enc = specialize_stub(&gs, StubKind::ClientEncode, None).unwrap();
    let dec = specialize_stub(&gs, StubKind::ServerDecode, None).unwrap();
    let args = StubArgs::new(vec![5, 9], vec![]);
    let mut wire = vec![0u8; enc.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&enc.program, &mut wire, &args, &mut counts).unwrap();

    // Corrupt the procedure word: the guard must fall back, not crash.
    wire[23] = 0xEE;
    let mut out = StubArgs::new(vec![0; call_fields::COUNT], vec![]);
    let r = run_decode(&dec.program, &wire, &mut out, wire.len(), &mut counts).unwrap();
    assert_eq!(r, Outcome::Fallback);

    // Wrong length: inlen guard.
    let mut out = StubArgs::new(vec![0; call_fields::COUNT], vec![]);
    let r = run_decode(&dec.program, &wire, &mut out, wire.len() - 4, &mut counts).unwrap();
    assert_eq!(r, Outcome::Fallback);
}

#[test]
fn reply_roundtrip_server_encode_to_client_decode() {
    let n = 8usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, int_shape(), arr_shape(n));
    let enc = specialize_stub(&gs, StubKind::ServerEncode, None).unwrap();
    let dec = specialize_stub(&gs, StubKind::ClientDecode, None).unwrap();
    assert_eq!(enc.wire_len, 24 + 4 + 4 * n);

    let results: Vec<i32> = (0..n as i32).map(|i| -i * 7).collect();
    let args = StubArgs::new(vec![0x77u32 as i32], vec![results.clone()]);
    let mut wire = vec![0u8; enc.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&enc.program, &mut wire, &args, &mut counts).unwrap();
    // Accepted-success header on the wire.
    assert_eq!(&wire[4..8], &1u32.to_be_bytes(), "mtype REPLY");
    assert_eq!(&wire[20..24], &0u32.to_be_bytes(), "accept SUCCESS");

    let mut out = StubArgs::new(vec![0; reply_fields::COUNT], vec![vec![]]);
    let r = run_decode(&dec.program, &wire, &mut out, wire.len(), &mut counts).unwrap();
    assert!(matches!(r, Outcome::Done { ret: 1, .. }), "{r:?}");
    assert_eq!(out.arrays[0], results);
}

#[test]
fn client_decode_falls_back_on_error_reply() {
    let gs = generate_from_shapes(PROG, VERS, PROC, int_shape(), int_shape());
    let enc = specialize_stub(&gs, StubKind::ServerEncode, None).unwrap();
    let dec = specialize_stub(&gs, StubKind::ClientDecode, None).unwrap();
    let args = StubArgs::new(vec![1, 2], vec![]);
    let mut wire = vec![0u8; enc.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&enc.program, &mut wire, &args, &mut counts).unwrap();

    // accept_stat = SYSTEM_ERR (5): specialized path must fall back so the
    // generic decoder can produce the proper error.
    wire[23] = 5;
    let mut out = StubArgs::new(vec![0; reply_fields::COUNT], vec![]);
    let r = run_decode(&dec.program, &wire, &mut out, wire.len(), &mut counts).unwrap();
    assert_eq!(r, Outcome::Fallback);
}

#[test]
fn array_length_mismatch_falls_back() {
    let n = 4usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, int_shape(), arr_shape(n));
    let enc = specialize_stub(&gs, StubKind::ServerEncode, None).unwrap();
    let dec = specialize_stub(&gs, StubKind::ClientDecode, None).unwrap();
    let args = StubArgs::new(vec![1], vec![vec![1, 2, 3, 4]]);
    let mut wire = vec![0u8; enc.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&enc.program, &mut wire, &args, &mut counts).unwrap();

    // Claim 3 elements instead of 4: length guard must fire (inlen still
    // matches, so this exercises the decoded-length CheckWord).
    wire[27] = 3;
    let mut out = StubArgs::new(vec![0; reply_fields::COUNT], vec![vec![]]);
    let r = run_decode(&dec.program, &wire, &mut out, wire.len(), &mut counts).unwrap();
    assert_eq!(r, Outcome::Fallback);
}

#[test]
fn generate_from_idl_file() {
    let file = crate::parser::parse(
        r#"
        const MAXARR = 2000;
        struct int_arr { int arr<MAXARR>; };
        program ARRAYPROG {
            version ARRAYVERS { int_arr ECHO(int_arr) = 1; } = 1;
        } = 0x20000101;
        "#,
    )
    .unwrap();
    let prog = &file.programs()[0];
    let proc_ = &prog.versions[0].procs[0];
    let arg = MsgShape::from_idl(&file, &proc_.arg, 250).unwrap();
    let res = MsgShape::from_idl(&file, &proc_.result, 250).unwrap();
    let gs = generate_from_shapes(prog.number, prog.versions[0].number, proc_.number, arg, res);
    assert_eq!(gs.target, (0x2000_0101, 1, 1));
    assert_eq!(gs.arg_shape.wire_size(), 4 + 4 * 250);
    // All four stubs specialize and compile.
    for kind in KINDS {
        specialize_stub(&gs, kind, None).unwrap();
    }
}

#[test]
fn unsupported_shapes_are_rejected() {
    let file = crate::parser::parse(
        r#"
        struct named { string name<32>; };
        program P { version V { named GET(named) = 1; } = 1; } = 9;
        "#,
    )
    .unwrap();
    let prog = &file.programs()[0];
    let proc_ = &prog.versions[0].procs[0];
    assert!(MsgShape::from_idl(&file, &proc_.arg, 10).is_none());
}

#[test]
fn specialization_report_shows_eliminations() {
    let n = 50usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), int_shape());
    // Use the lower-level API to keep the report; the Figure 5 shape is the
    // reference specializer's.
    let mut spec_count_probe = 0u64;
    let (residual, _, _) = specialize_unrolled(&gs, StubKind::ClientEncode).unwrap();
    // The residual has roughly one statement per wire word.
    let words = (gs.client_encode.wire_len / 4) as i64;
    let stmts = residual.stmt_count() as i64;
    assert!(
        (stmts - words - 1).abs() <= 2,
        "residual stmts {stmts} vs wire words {words}"
    );
    spec_count_probe += stmts as u64;
    assert!(spec_count_probe > 0);
}

#[test]
fn summarized_report_shows_the_same_eliminations() {
    // The twin: one residual loop, accounted as the n iterations it stands
    // for — every elimination the unrolled run reports, and a residual
    // whose size no longer depends on n.
    let n = 50usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), int_shape());
    let (residual, _, report) = specialize_with_report(&gs, StubKind::ClientEncode).unwrap();
    let (_, _, mut reference) = specialize_unrolled(&gs, StubKind::ClientEncode).unwrap();
    assert_eq!(report.loop_iters_unrolled, n as u64);
    assert_eq!(report.folds_in("xdrmem_putlong"), 11 + n as u64);
    // Header words and the length word, one loop, its store, the return.
    assert_eq!(residual.stmt_count(), 11 + 2 + 1);
    assert_eq!(report.residual_stmts, residual.stmt_count());
    reference.residual_stmts = report.residual_stmts;
    assert_eq!(report, reference);
}

const KINDS: [StubKind; 4] = [
    StubKind::ClientEncode,
    StubKind::ClientDecode,
    StubKind::ServerDecode,
    StubKind::ServerEncode,
];

#[test]
fn specialization_cost_is_the_shapes_not_the_lengths() {
    // The four echo stubs burn the same specializer steps at any array
    // length (200 000 elements took about a second per stub when every
    // iteration was specialized), and leave residuals of the same size.
    let cost = |n: usize| {
        let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), arr_shape(n));
        KINDS.map(|kind| {
            let steps = specialization_steps(&gs, kind).unwrap();
            let (residual, _, _) = specialize_with_report(&gs, kind).unwrap();
            (steps, residual.stmt_count())
        })
    };
    let small = cost(64);
    assert_eq!(small, cost(4096));
    assert_eq!(small, cost(200_000));
    // Fixed arrays, and a loop per array in one message.
    let fixed = |n: usize| MsgShape {
        fields: vec![
            FieldShape::FixedIntArray {
                name: "a".into(),
                len: n,
            },
            FieldShape::Scalar { name: "s".into() },
            FieldShape::VarIntArray {
                name: "b".into(),
                pinned_len: 2 * n,
                max: 100_000,
            },
        ],
    };
    let cost = |n: usize| {
        let gs = generate_from_shapes(PROG, VERS, PROC, fixed(n), fixed(n));
        KINDS.map(|kind| specialization_steps(&gs, kind).unwrap())
    };
    assert_eq!(cost(8), cost(3000));
}

#[test]
fn decode_loop_inside_the_length_guard_is_summarized() {
    // §6.2: the loop sits in the `len == N` branch that re-statizes the
    // decoded length; it is summarized there like anywhere else.
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(300), arr_shape(300));
    for kind in [StubKind::ClientDecode, StubKind::ServerDecode] {
        let (residual, _, _) = specialize_with_report(&gs, kind).unwrap();
        let text = pretty::function_str(&gs.program, &residual);
        let guard = text.find("arr_len == 300").expect("length guard");
        let the_loop = text
            .find("for (i_0 = 0; i_0 < 300; i_0++)")
            .expect("one loop");
        assert!(guard < the_loop, "{text}");
        // Header words, the length word, and one element load for all 300.
        let header = match kind {
            StubKind::ClientDecode => reply_fields::COUNT,
            _ => call_fields::COUNT,
        };
        assert_eq!(text.matches("ntohl").count(), header + 2, "{text}");
    }
}

#[test]
fn handle_running_out_of_space_unrolls_as_before() {
    // Reachable from the IDL: the handle's 1 MiB `x_handy` runs out inside
    // a 262 145-element array, so `x_handy < 0` is not decided the same
    // way in every iteration and the loop must take the unrolled path —
    // stores up to the last word that fits, then the static `return FALSE`.
    let n = 262_145usize;
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(n), int_shape());
    let (got, _, report) = specialize_with_report(&gs, StubKind::ClientEncode).unwrap();
    let (want, _, reference) = specialize_unrolled(&gs, StubKind::ClientEncode).unwrap();
    assert_eq!(got.body, want.body);
    assert_eq!(report, reference);
    let fits = (1 << 20) / 4;
    assert_eq!(got.body.len(), fits + 1);
    assert_eq!(
        got.body.last(),
        Some(&specrpc_tempo::ir::Stmt::Return(Some(c(0))))
    );
    // One element fewer and the handle never overflows: one loop.
    let gs = generate_from_shapes(PROG, VERS, PROC, arr_shape(fits - 11), int_shape());
    let (residual, _, _) = specialize_with_report(&gs, StubKind::ClientEncode).unwrap();
    assert_eq!(residual.stmt_count(), 14);
}

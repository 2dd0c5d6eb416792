//! Specializer tests built around a miniature of the paper's Figures 2–5:
//! a two-integer `xdr_pair` marshaler over the layered
//! `xdr_long → xdrmem_putlong → htonl` chain.

use super::*;
use crate::eval::Evaluator;
use crate::ir::builder::*;
use crate::ir::{pretty, FieldDef, Program, Stmt, StructDef, Type};

/// A struct definition from `(name, type)` field pairs.
fn test_struct(name: &str, fields: &[(&str, Type)]) -> StructDef {
    StructDef {
        name: name.to_string(),
        fields: fields
            .iter()
            .map(|(n, t)| FieldDef {
                name: n.to_string(),
                ty: t.clone(),
            })
            .collect(),
    }
}

const OP_ENCODE: i64 = 0;
const OP_DECODE: i64 = 1;

// Field ids in struct XDR.
const X_OP: usize = 0;
const X_HANDY: usize = 1;
const X_PRIVATE: usize = 2;
// Field ids in struct PAIR.
const INT1: usize = 0;
const INT2: usize = 1;

/// Build the miniature marshaling program (Figures 2–4 of the paper,
/// transliterated).
fn mini_rpc_program() -> Program {
    let mut p = Program::new();
    let xdr_sid = p.add_struct(test_struct(
        "XDR",
        &[
            ("x_op", Type::Long),
            ("x_handy", Type::Long),
            ("x_private", Type::BufPtr),
        ],
    ));
    let pair_sid = p.add_struct(test_struct(
        "PAIR",
        &[("int1", Type::Long), ("int2", Type::Long)],
    ));

    // xdrmem_putlong (Figure 3).
    let mut fb = FunctionBuilder::new("xdrmem_putlong");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let putlong = fb.body(vec![
        assign(
            field(deref_var(xdrs), X_HANDY),
            sub(lv(field(deref_var(xdrs), X_HANDY)), c(4)),
        ),
        if_then(
            lt(lv(field(deref_var(xdrs), X_HANDY)), c(0)),
            vec![ret(Some(c(0)))],
        ),
        assign(
            buf32(lv(field(deref_var(xdrs), X_PRIVATE))),
            htonl(lv(deref_var(lp))),
        ),
        assign(
            field(deref_var(xdrs), X_PRIVATE),
            add(lv(field(deref_var(xdrs), X_PRIVATE)), c(4)),
        ),
        ret(Some(c(1))),
    ]);
    p.add_func(putlong);

    // xdrmem_getlong.
    let mut fb = FunctionBuilder::new("xdrmem_getlong");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let getlong = fb.body(vec![
        assign(
            field(deref_var(xdrs), X_HANDY),
            sub(lv(field(deref_var(xdrs), X_HANDY)), c(4)),
        ),
        if_then(
            lt(lv(field(deref_var(xdrs), X_HANDY)), c(0)),
            vec![ret(Some(c(0)))],
        ),
        assign(
            deref_var(lp),
            ntohl(lv(buf32(lv(field(deref_var(xdrs), X_PRIVATE))))),
        ),
        assign(
            field(deref_var(xdrs), X_PRIVATE),
            add(lv(field(deref_var(xdrs), X_PRIVATE)), c(4)),
        ),
        ret(Some(c(1))),
    ]);
    p.add_func(getlong);

    // xdr_long (Figure 2): three-way dispatch on x_op.
    let mut fb = FunctionBuilder::new("xdr_long");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let xdr_long = fb.body(vec![
        if_then(
            eq(lv(field(deref_var(xdrs), X_OP)), c(OP_ENCODE)),
            vec![ret(Some(call(
                "xdrmem_putlong",
                vec![lv(var(xdrs)), lv(var(lp))],
            )))],
        ),
        if_then(
            eq(lv(field(deref_var(xdrs), X_OP)), c(OP_DECODE)),
            vec![ret(Some(call(
                "xdrmem_getlong",
                vec![lv(var(xdrs)), lv(var(lp))],
            )))],
        ),
        if_then(
            eq(lv(field(deref_var(xdrs), X_OP)), c(2)),
            vec![ret(Some(c(1)))],
        ),
        ret(Some(c(0))),
    ]);
    p.add_func(xdr_long);

    // xdr_pair (Figure 4).
    let mut fb = FunctionBuilder::new("xdr_pair");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let objp = fb.param("objp", ptr(Type::Struct(pair_sid)));
    fb.returns(Type::Long);
    let xdr_pair = fb.body(vec![
        if_then(
            not(call(
                "xdr_long",
                vec![lv(var(xdrs)), addr_of(field(deref_var(objp), INT1))],
            )),
            vec![ret(Some(c(0)))],
        ),
        if_then(
            not(call(
                "xdr_long",
                vec![lv(var(xdrs)), addr_of(field(deref_var(objp), INT2))],
            )),
            vec![ret(Some(c(0)))],
        ),
        ret(Some(c(1))),
    ]);
    p.add_func(xdr_pair);
    p.validate().unwrap();
    p
}

struct PairSetup<'p> {
    spec: Specializer<'p>,
    xdr_obj: ObjId,
    pair_obj: ObjId,
}

fn setup_pair(prog: &Program, op: i64, handy: i64) -> PairSetup<'_> {
    let xdr_sid = prog.struct_named("XDR").unwrap();
    let pair_sid = prog.struct_named("PAIR").unwrap();
    let mut spec = Specializer::new(prog);
    let buf = spec.alloc_buffer("buf");
    let pair_obj = spec.alloc_dynamic_struct(pair_sid, "objp");
    let xdr_obj = spec.alloc_static_struct(xdr_sid);
    spec.set_slot_static(
        Place {
            obj: xdr_obj,
            slot: X_OP,
        },
        Value::Long(op),
    );
    spec.set_slot_static(
        Place {
            obj: xdr_obj,
            slot: X_HANDY,
        },
        Value::Long(handy),
    );
    spec.set_slot_static(
        Place {
            obj: xdr_obj,
            slot: X_PRIVATE,
        },
        Value::BufPtr(buf, 0),
    );
    PairSetup {
        spec,
        xdr_obj,
        pair_obj,
    }
}

fn specialize_pair(prog: &Program, op: i64, handy: i64) -> (Function, SpecReport) {
    let mut s = setup_pair(prog, op, handy);
    let args = vec![
        SVal::S(Value::Ref(Place {
            obj: s.xdr_obj,
            slot: 0,
        })),
        SVal::S(Value::Ref(Place {
            obj: s.pair_obj,
            slot: 0,
        })),
    ];
    let f = s
        .spec
        .specialize("xdr_pair", args, "xdr_pair_spec")
        .unwrap();
    (f, s.spec.report().clone())
}

#[test]
fn encode_residual_is_straight_line_figure5() {
    let prog = mini_rpc_program();
    let (f, report) = specialize_pair(&prog, OP_ENCODE, 64);
    let printed = pretty::function_str(&prog, &f);

    // No dispatch, no overflow check, no status test survives (Figure 5).
    assert!(
        !printed.contains("if"),
        "residual has a conditional:\n{printed}"
    );
    assert!(printed.contains("htonl(objp->int1)"), "{printed}");
    assert!(printed.contains("htonl(objp->int2)"), "{printed}");
    // Two buffer stores at offsets 0 and 4, then the static return.
    assert!(printed.contains("*(long*)(buf)"), "{printed}");
    assert!(printed.contains("*(long*)((buf + 4))"), "{printed}");
    assert!(printed.contains("return 1;"), "{printed}");

    // The three If folds per xdr_long chain plus xdr_pair's status tests.
    assert!(report.static_ifs_folded >= 6, "{report:?}");
    assert_eq!(
        report.folds_in("xdrmem_putlong"),
        2,
        "overflow checks folded"
    );
    assert!(report.folds_in("xdr_pair") >= 2, "status tests folded");
    assert_eq!(report.calls_unfolded, 4, "two xdr_long + two putlong");
    assert_eq!(report.dynamic_ifs_residualized, 0);
}

#[test]
fn encode_residual_equivalent_to_generic() {
    let prog = mini_rpc_program();
    let (residual, _) = specialize_pair(&prog, OP_ENCODE, 64);

    // Generic run.
    let xdr_sid = prog.struct_named("XDR").unwrap();
    let pair_sid = prog.struct_named("PAIR").unwrap();
    let mut ev = Evaluator::new(&prog);
    let buf = ev.heap.alloc_bytes(64);
    let xdr = ev.heap.alloc_struct(&prog, xdr_sid);
    let pair = ev.heap.alloc_struct(&prog, pair_sid);
    ev.heap
        .write_slot(
            Place {
                obj: xdr,
                slot: X_OP,
            },
            Value::Long(OP_ENCODE),
        )
        .unwrap();
    ev.heap
        .write_slot(
            Place {
                obj: xdr,
                slot: X_HANDY,
            },
            Value::Long(64),
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
    ev.heap
        .write_slot(
            Place {
                obj: pair,
                slot: INT1,
            },
            Value::Long(0x0102_0304),
        )
        .unwrap();
    ev.heap
        .write_slot(
            Place {
                obj: pair,
                slot: INT2,
            },
            Value::Long(-7),
        )
        .unwrap();
    let r = ev
        .call(
            "xdr_pair",
            vec![
                Value::Ref(Place { obj: xdr, slot: 0 }),
                Value::Ref(Place { obj: pair, slot: 0 }),
            ],
        )
        .unwrap();
    assert_eq!(r, Value::Long(1));
    let generic_bytes = ev.heap.bytes(buf).unwrap().to_vec();

    // Residual run (the residual is itself IR: interpret it).
    let mut prog2 = prog.clone();
    prog2.add_func(residual);
    prog2.validate().unwrap();
    let mut ev2 = Evaluator::new(&prog2);
    let buf2 = ev2.heap.alloc_bytes(64);
    let pair2 = ev2.heap.alloc_struct(&prog2, pair_sid);
    ev2.heap
        .write_slot(
            Place {
                obj: pair2,
                slot: INT1,
            },
            Value::Long(0x0102_0304),
        )
        .unwrap();
    ev2.heap
        .write_slot(
            Place {
                obj: pair2,
                slot: INT2,
            },
            Value::Long(-7),
        )
        .unwrap();
    let r2 = ev2
        .call(
            "xdr_pair_spec",
            vec![
                Value::BufPtr(buf2, 0),
                Value::Ref(Place {
                    obj: pair2,
                    slot: 0,
                }),
            ],
        )
        .unwrap();
    assert_eq!(r2, Value::Long(1));
    assert_eq!(ev2.heap.bytes(buf2).unwrap(), generic_bytes.as_slice());
    assert_eq!(&generic_bytes[..4], &[1, 2, 3, 4], "big-endian on the wire");
}

#[test]
fn decode_residual_reads_buffer() {
    let prog = mini_rpc_program();
    let (f, _) = specialize_pair(&prog, OP_DECODE, 64);
    let printed = pretty::function_str(&prog, &f);
    assert!(
        printed.contains("objp->int1 = ntohl(*(long*)(buf));"),
        "{printed}"
    );
    assert!(
        printed.contains("objp->int2 = ntohl(*(long*)((buf + 4)));"),
        "{printed}"
    );
    assert!(!printed.contains("if"), "{printed}");
}

#[test]
fn statically_detected_overflow_folds_to_failure() {
    let prog = mini_rpc_program();
    // Only 4 bytes of space: the second putlong statically overflows, so
    // the whole stub folds to `return 0` (failure), computed entirely at
    // specialization time.
    let (f, _) = specialize_pair(&prog, OP_ENCODE, 4);
    let last = f.body.last().unwrap();
    assert_eq!(last, &Stmt::Return(Some(Expr::Const(0))));
}

#[test]
fn free_mode_folds_to_trivial_success() {
    let prog = mini_rpc_program();
    let (f, _) = specialize_pair(&prog, 2, 64);
    // XDR_FREE on scalars is a no-op: the residual is just `return 1`.
    let printed = pretty::function_str(&prog, &f);
    assert!(!printed.contains("*(long*)"), "{printed}");
    assert!(printed.contains("return 1;"), "{printed}");
}

#[test]
fn static_return_with_dynamic_side_effects() {
    // g writes dynamic data to the buffer but returns a static 1;
    // f's test on g's return value must fold (§3.3 / static returns).
    let mut p = Program::new();
    let mut fb = FunctionBuilder::new("g");
    let bp = fb.param("bp", Type::BufPtr);
    let v = fb.param("v", Type::Long);
    fb.returns(Type::Long);
    let g = fb.body(vec![
        assign(buf32(lv(var(bp))), htonl(lv(var(v)))),
        ret(Some(c(1))),
    ]);
    p.add_func(g);
    let mut fb = FunctionBuilder::new("f");
    let bp = fb.param("bp", Type::BufPtr);
    let v = fb.param("v", Type::Long);
    fb.returns(Type::Long);
    let f = fb.body(vec![
        if_then(
            not(call("g", vec![lv(var(bp)), lv(var(v))])),
            vec![ret(Some(c(0)))],
        ),
        ret(Some(c(1))),
    ]);
    p.add_func(f);
    p.validate().unwrap();

    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let val = spec.dynamic_scalar_param("v", Type::Long);
    let residual = spec
        .specialize("f", vec![SVal::S(Value::BufPtr(buf, 0)), val], "f_spec")
        .unwrap();
    let printed = pretty::function_str(&p, &residual);
    assert!(!printed.contains("if"), "status test must fold:\n{printed}");
    assert!(printed.contains("htonl(v)"), "{printed}");
    assert_eq!(spec.report().static_ifs_folded, 1);
}

#[test]
fn inlen_guard_restatizes_in_then_branch() {
    // The §6.2 rewrite: inside `if (inlen == 8)`, assigning the constant
    // makes inlen static again, so downstream uses fold; the else branch
    // keeps the general (dynamic) path.
    let mut p = Program::new();
    let mut fb = FunctionBuilder::new("decode");
    let bp = fb.param("bp", Type::BufPtr);
    let inlen = fb.param("inlen", Type::Long);
    fb.returns(Type::Long);
    let f = fb.body(vec![if_else(
        eq(lv(var(inlen)), c(8)),
        vec![
            assign(var(inlen), c(8)),
            // A store whose offset depends on inlen: static in the
            // guarded branch.
            assign(buf32(add(lv(var(bp)), sub(lv(var(inlen)), c(8)))), c(5)),
            ret(Some(c(1))),
        ],
        vec![ret(Some(c(0)))],
    )]);
    p.add_func(f);
    p.validate().unwrap();

    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let inlen_arg = spec.dynamic_scalar_param("inlen", Type::Long);
    let residual = spec
        .specialize(
            "decode",
            vec![SVal::S(Value::BufPtr(buf, 0)), inlen_arg],
            "decode_spec",
        )
        .unwrap();
    let printed = pretty::function_str(&p, &residual);
    // The guard itself stays dynamic…
    assert!(printed.contains("if ((inlen == 8))"), "{printed}");
    // …but the offset computation folded to the buffer base.
    assert!(printed.contains("*(long*)(buf) = 5;"), "{printed}");
    assert!(!printed.contains("(inlen - 8)"), "{printed}");
    assert_eq!(spec.report().dynamic_ifs_residualized, 1);
}

#[test]
fn diverging_branch_values_are_merged_via_residual_local() {
    // if (d) x = 1; else x = 2; return x;  — x must be dynamized.
    let mut p = Program::new();
    let mut fb = FunctionBuilder::new("pick");
    let d = fb.param("d", Type::Long);
    let x = fb.local("x", Type::Long);
    fb.returns(Type::Long);
    let f = fb.body(vec![
        if_else(
            ne(lv(var(d)), c(0)),
            vec![assign(var(x), c(1))],
            vec![assign(var(x), c(2))],
        ),
        ret(Some(lv(var(x)))),
    ]);
    p.add_func(f);

    let mut spec = Specializer::new(&p);
    let d_arg = spec.dynamic_scalar_param("d", Type::Long);
    let residual = spec.specialize("pick", vec![d_arg], "pick_spec").unwrap();

    // Execute the residual for both branch outcomes and compare with the
    // generic semantics.
    let mut p2 = p.clone();
    p2.add_func(residual);
    p2.validate().unwrap();
    for dv in [0i64, 5] {
        let mut ev = Evaluator::new(&p2);
        let want = ev.call("pick", vec![Value::Long(dv)]).unwrap();
        let mut ev2 = Evaluator::new(&p2);
        let got = ev2.call("pick_spec", vec![Value::Long(dv)]).unwrap();
        assert_eq!(got, want, "d = {dv}");
    }
}

#[test]
fn loop_with_static_bounds_unrolls_fully() {
    // for (i = 0; i < 3; i++) *(bp + 4*i) = htonl(v);  — three stores.
    let mut p = Program::new();
    let mut fb = FunctionBuilder::new("fill");
    let bp = fb.param("bp", Type::BufPtr);
    let v = fb.param("v", Type::Long);
    let i = fb.local("i", Type::Long);
    let f = fb.body(vec![for_loop(
        i,
        c(0),
        c(3),
        vec![assign(
            buf32(add(lv(var(bp)), mul(lv(var(i)), c(4)))),
            htonl(lv(var(v))),
        )],
    )]);
    p.add_func(f);

    // The reference specializer: Figure 5's straight-line shape.
    let mut spec = Specializer::unrolling(&p);
    let buf = spec.alloc_buffer("buf");
    let v_arg = spec.dynamic_scalar_param("v", Type::Long);
    let residual = spec
        .specialize(
            "fill",
            vec![SVal::S(Value::BufPtr(buf, 0)), v_arg],
            "fill_spec",
        )
        .unwrap();
    assert_eq!(residual.stmt_count(), 3, "fully unrolled");
    assert_eq!(spec.report().loop_iters_unrolled, 3);
    let printed = pretty::function_str(&p, &residual);
    assert!(printed.contains("*(long*)((buf + 8))"), "{printed}");

    // The same loop as derived: proved affine, specialized once, and
    // accounted as the three iterations it stands for.
    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let v_arg = spec.dynamic_scalar_param("v", Type::Long);
    let residual = spec
        .specialize(
            "fill",
            vec![SVal::S(Value::BufPtr(buf, 0)), v_arg],
            "fill_spec",
        )
        .unwrap();
    assert_eq!(residual.stmt_count(), 2, "one loop, one store");
    assert_eq!(spec.report().loop_iters_unrolled, 3);
    let printed = pretty::function_str(&p, &residual);
    assert!(
        printed.contains("for (i_0 = 0; i_0 < 3; i_0++)"),
        "{printed}"
    );
}

#[test]
fn dynamic_bound_loop_residualizes() {
    let mut p = Program::new();
    let mut fb = FunctionBuilder::new("fill");
    let bp = fb.param("bp", Type::BufPtr);
    let n = fb.param("n", Type::Long);
    let i = fb.local("i", Type::Long);
    let f = fb.body(vec![for_loop(
        i,
        c(0),
        lv(var(n)),
        vec![assign(buf32(add(lv(var(bp)), mul(lv(var(i)), c(4)))), c(9))],
    )]);
    p.add_func(f);

    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let n_arg = spec.dynamic_scalar_param("n", Type::Long);
    let residual = spec
        .specialize(
            "fill",
            vec![SVal::S(Value::BufPtr(buf, 0)), n_arg],
            "fill_spec",
        )
        .unwrap();
    assert!(matches!(residual.body[0], Stmt::For { .. }));
    assert_eq!(spec.report().dynamic_loops_residualized, 1);
}

#[test]
fn unnamed_dynamic_access_is_an_error() {
    let mut p = Program::new();
    let sid = p.add_struct(test_struct("S", &[("a", Type::Long)]));
    let mut fb = FunctionBuilder::new("f");
    let sp = fb.param("sp", ptr(Type::Struct(sid)));
    fb.returns(Type::Long);
    let f = fb.body(vec![ret(Some(lv(field(deref_var(sp), 0))))]);
    p.add_func(f);

    let mut spec = Specializer::new(&p);
    // Allocate WITHOUT a residual name, then mark the slot dynamic.
    let obj = spec.alloc_static_struct(sid);
    spec.set_slot_dynamic(Place { obj, slot: 0 });
    let err = spec
        .specialize(
            "f",
            vec![SVal::S(Value::Ref(Place { obj, slot: 0 }))],
            "f_spec",
        )
        .unwrap_err();
    assert_eq!(err, SpecError::UnnamedObject(obj));
}

#[test]
fn dynamic_while_is_rejected() {
    let mut p = Program::new();
    let mut fb = FunctionBuilder::new("f");
    let d = fb.param("d", Type::Long);
    let f = fb.body(vec![Stmt::While(ne(lv(var(d)), c(0)), vec![])]);
    p.add_func(f);
    let mut spec = Specializer::new(&p);
    let d_arg = spec.dynamic_scalar_param("d", Type::Long);
    assert_eq!(
        spec.specialize("f", vec![d_arg], "f_spec").unwrap_err(),
        SpecError::DynamicWhile
    );
}

#[test]
fn static_while_executes() {
    let mut p = Program::new();
    let mut fb = FunctionBuilder::new("f");
    let bp = fb.param("bp", Type::BufPtr);
    let k = fb.local("k", Type::Long);
    fb.returns(Type::Long);
    let f = fb.body(vec![
        assign(var(k), c(0)),
        Stmt::While(
            lt(lv(var(k)), c(2)),
            vec![
                assign(buf32(add(lv(var(bp)), mul(lv(var(k)), c(4)))), c(3)),
                assign(var(k), add(lv(var(k)), c(1))),
            ],
        ),
        ret(Some(lv(var(k)))),
    ]);
    p.add_func(f);
    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let residual = spec
        .specialize("f", vec![SVal::S(Value::BufPtr(buf, 0))], "f_spec")
        .unwrap();
    // Two stores plus the materialized static return.
    assert_eq!(residual.stmt_count(), 3);
    assert!(matches!(
        residual.body.last().unwrap(),
        Stmt::Return(Some(Expr::Const(2)))
    ));
}

#[test]
fn partially_static_struct_mixes_binding_times() {
    // One struct: field `n` static (array length), field `val` dynamic.
    let mut p = Program::new();
    let sid = p.add_struct(test_struct("S", &[("n", Type::Long), ("val", Type::Long)]));
    let mut fb = FunctionBuilder::new("f");
    let sp = fb.param("sp", ptr(Type::Struct(sid)));
    let bp = fb.param("bp", Type::BufPtr);
    let i = fb.local("i", Type::Long);
    let f = fb.body(vec![for_loop(
        i,
        c(0),
        lv(field(deref_var(sp), 0)),
        vec![assign(
            buf32(add(lv(var(bp)), mul(lv(var(i)), c(4)))),
            htonl(lv(field(deref_var(sp), 1))),
        )],
    )]);
    p.add_func(f);

    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let obj = spec.alloc_dynamic_struct(sid, "sp");
    spec.set_slot_static(Place { obj, slot: 0 }, Value::Long(4));
    let residual = spec
        .specialize(
            "f",
            vec![
                SVal::S(Value::Ref(Place { obj, slot: 0 })),
                SVal::S(Value::BufPtr(buf, 0)),
            ],
            "f_spec",
        )
        .unwrap();
    // Static length ⇒ the loop runs at specialization time: 4 stores of
    // the dynamic field, as one proved loop.
    assert_eq!(spec.report().loop_iters_unrolled, 4);
    assert!(
        matches!(&residual.body[..], [Stmt::For { hi: Expr::Const(4), body, .. }] if body.len() == 1),
        "{residual:?}"
    );
    let printed = pretty::function_str(&p, &residual);
    assert!(printed.contains("htonl(sp->val)"), "{printed}");
}

#[test]
fn context_sensitivity_static_and_dynamic_call_sites() {
    // h(bp, lp) writes *lp; called once with a static pointer-to-static
    // (the procedure id) and once with dynamic data: the first call's
    // store becomes a constant, the second stays dynamic.
    let mut p = Program::new();
    let sid = p.add_struct(test_struct(
        "CTX",
        &[("proc_id", Type::Long), ("arg", Type::Long)],
    ));
    let mut fb = FunctionBuilder::new("h");
    let bp = fb.param("bp", Type::BufPtr);
    let lp = fb.param("lp", ptr(Type::Long));
    let h = fb.body(vec![assign(buf32(lv(var(bp))), htonl(lv(deref_var(lp))))]);
    p.add_func(h);
    let mut fb = FunctionBuilder::new("f");
    let cp = fb.param("cp", ptr(Type::Struct(sid)));
    let bp = fb.param("bp", Type::BufPtr);
    let f = fb.body(vec![
        expr_stmt(call(
            "h",
            vec![lv(var(bp)), addr_of(field(deref_var(cp), 0))],
        )),
        expr_stmt(call(
            "h",
            vec![add(lv(var(bp)), c(4)), addr_of(field(deref_var(cp), 1))],
        )),
    ]);
    p.add_func(f);

    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let obj = spec.alloc_dynamic_struct(sid, "cp");
    spec.set_slot_static(Place { obj, slot: 0 }, Value::Long(0x2A)); // proc id 42
    let residual = spec
        .specialize(
            "f",
            vec![
                SVal::S(Value::Ref(Place { obj, slot: 0 })),
                SVal::S(Value::BufPtr(buf, 0)),
            ],
            "f_spec",
        )
        .unwrap();
    let printed = pretty::function_str(&p, &residual);
    // First store folded to the byte-swapped constant, second residual.
    let swapped = (0x2Au32).swap_bytes() as i64;
    assert!(
        printed.contains(&format!("*(long*)(buf) = {swapped};")),
        "{printed}"
    );
    assert!(printed.contains("htonl(cp->arg)"), "{printed}");
}

// ---- loop summarization: when in doubt, unroll ---------------------------

/// Variables of the hand-built loop function
/// `f(char* bp, struct S* sp, struct T* tp, long v)`.
struct LoopVars {
    bp: VarId,
    sp: VarId,
    tp: VarId,
    v: VarId,
    i: VarId,
}

// Field ids in struct S (dynamic, named `sp`) and struct T (static).
const S_FLAG: usize = 0;
const S_ARR: usize = 1;
const T_TAB: usize = 0;

/// A program whose one function `f` has the body `body_of` builds, over a
/// dynamic struct `S { flag; arr[16] }` and a static table `T { t[8] }`.
fn loop_program(body_of: impl FnOnce(&LoopVars) -> Vec<Stmt>) -> Program {
    let mut p = Program::new();
    let s_sid = p.add_struct(test_struct(
        "S",
        &[
            ("flag", Type::Long),
            ("arr", Type::Array(Box::new(Type::Long), 16)),
        ],
    ));
    let t_sid = p.add_struct(test_struct(
        "T",
        &[("t", Type::Array(Box::new(Type::Long), 8))],
    ));
    let mut fb = FunctionBuilder::new("f");
    let vars = LoopVars {
        bp: fb.param("bp", Type::BufPtr),
        sp: fb.param("sp", ptr(Type::Struct(s_sid))),
        tp: fb.param("tp", ptr(Type::Struct(t_sid))),
        v: fb.param("v", Type::Long),
        i: fb.local("i", Type::Long),
    };
    fb.returns(Type::Long);
    p.add_func(fb.body(body_of(&vars)));
    p.validate().unwrap();
    p
}

/// Specialize `f` with the summarizing or the reference specializer.
fn specialize_loop(p: &Program, reference: bool) -> (Function, SpecReport) {
    let mut spec = if reference {
        Specializer::unrolling(p)
    } else {
        Specializer::new(p)
    };
    let buf = spec.alloc_buffer("buf");
    let sp = spec.alloc_dynamic_struct(p.struct_named("S").unwrap(), "sp");
    let tp = spec.alloc_static_struct(p.struct_named("T").unwrap());
    let v = spec.dynamic_scalar_param("v", Type::Long);
    let args = vec![
        SVal::S(Value::BufPtr(buf, 0)),
        SVal::S(Value::Ref(Place { obj: sp, slot: 0 })),
        SVal::S(Value::Ref(Place { obj: tp, slot: 0 })),
        v,
    ];
    let f = spec.specialize("f", args, "f_spec").unwrap();
    (f, spec.report().clone())
}

fn contains_loop(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::For { .. } => true,
        Stmt::If(_, t, e) => contains_loop(t) || contains_loop(e),
        _ => false,
    })
}

/// The loop must be refused: residual, residual locals and report are
/// exactly the unrolling specializer's.
fn assert_falls_back(p: &Program) {
    let (got, got_report) = specialize_loop(p, false);
    let (want, want_report) = specialize_loop(p, true);
    assert_eq!(got.body, want.body, "{}", pretty::function_str(p, &got));
    assert_eq!(got.locals, want.locals);
    assert_eq!(got_report, want_report);
}

/// Run a residual `f_spec(buf, sp, v)` and return what it left behind.
fn run_loop_residual(p: &Program, residual: &Function) -> (Value, Vec<u8>, Vec<Value>) {
    let mut p2 = p.clone();
    p2.add_func(residual.clone());
    p2.validate().unwrap();
    let mut ev = Evaluator::new(&p2);
    let buf = ev.heap.alloc_bytes(256);
    let sp = ev.heap.alloc_struct(&p2, p2.struct_named("S").unwrap());
    for slot in 0..17 {
        ev.heap
            .write_slot(Place { obj: sp, slot }, Value::Long(1000 + 7 * slot as i64))
            .unwrap();
    }
    let args = vec![
        Value::BufPtr(buf, 0),
        Value::Ref(Place { obj: sp, slot: 0 }),
        Value::Long(0x0102_0304),
    ];
    let ret = ev.call("f_spec", args).unwrap();
    let slots = (0..17)
        .map(|slot| ev.heap.read_slot(Place { obj: sp, slot }).unwrap())
        .collect();
    (ret, ev.heap.bytes(buf).unwrap().to_vec(), slots)
}

/// The loop must be summarized, stand for the same iterations, and compute
/// what the unrolled residual computes.
fn assert_summarizes(p: &Program) {
    let (got, got_report) = specialize_loop(p, false);
    let (want, mut want_report) = specialize_loop(p, true);
    assert!(
        contains_loop(&got.body),
        "{}",
        pretty::function_str(p, &got)
    );
    assert!(!contains_loop(&want.body));
    want_report.residual_stmts = got_report.residual_stmts;
    assert_eq!(got_report, want_report);
    assert_eq!(run_loop_residual(p, &got), run_loop_residual(p, &want));
}

/// `*(bp + off) = htonl(sp->arr[idx])`.
fn store_elem(x: &LoopVars, off: Expr, idx: Expr) -> Stmt {
    assign(
        buf32(add(lv(var(x.bp)), off)),
        htonl(lv(index(field(deref_var(x.sp), S_ARR), idx))),
    )
}

#[test]
fn affine_loops_are_summarized() {
    // The plain marshaling loop, from 0 and from a non-zero lower bound.
    for (lo, hi) in [(0, 16), (2, 10), (13, 16)] {
        assert_summarizes(&loop_program(|x| {
            let i = || lv(var(x.i));
            vec![
                for_loop(x.i, c(lo), c(hi), vec![store_elem(x, mul(i(), c(4)), i())]),
                ret(Some(lv(var(x.i)))),
            ]
        }));
    }
    // Descending offsets, a constant store, a decode, and comparisons that
    // hold over the whole range.
    assert_summarizes(&loop_program(|x| {
        let i = || lv(var(x.i));
        vec![for_loop(
            x.i,
            c(0),
            c(8),
            vec![
                store_elem(x, sub(c(100), mul(i(), c(4))), add(i(), c(3))),
                assign(buf32(add(lv(var(x.bp)), add(c(128), mul(c(8), i())))), c(9)),
                assign(
                    index(field(deref_var(x.sp), S_ARR), i()),
                    ntohl(lv(buf32(add(lv(var(x.bp)), mul(i(), c(4)))))),
                ),
                if_then(lt(i(), c(0)), vec![ret(Some(c(0)))]),
                if_then(eq(mul(i(), c(2)), c(17)), vec![ret(Some(c(0)))]),
                if_then(eq(i(), c(8)), vec![ret(Some(c(0)))]),
            ],
        )]
    }));
    // Two consecutive loops sharing a static cursor held in the table.
    assert_summarizes(&loop_program(|x| {
        let cursor = || index(field(deref_var(x.tp), T_TAB), c(0));
        let walk = |lo, hi| {
            for_loop(
                x.i,
                c(lo),
                c(hi),
                vec![
                    store_elem(x, lv(cursor()), lv(var(x.i))),
                    assign(cursor(), add(lv(cursor()), c(4))),
                ],
            )
        };
        vec![
            assign(cursor(), c(8)),
            walk(0, 5),
            walk(5, 11),
            assign(buf32(add(lv(var(x.bp)), lv(cursor()))), c(1)),
        ]
    }));
}

#[test]
fn short_loops_are_not_summarized() {
    for trips in 0..3 {
        let p = loop_program(|x| {
            let i = || lv(var(x.i));
            vec![for_loop(
                x.i,
                c(4),
                c(4 + trips),
                vec![store_elem(x, mul(i(), c(4)), i())],
            )]
        });
        assert_falls_back(&p);
        assert!(!contains_loop(&specialize_loop(&p, false).0.body));
    }
}

#[test]
fn one_iteration_that_differs_unrolls() {
    // Probes at lo, lo + 1 and hi − 1 would all agree; the proof must not.
    assert_falls_back(&loop_program(|x| {
        let i = || lv(var(x.i));
        vec![for_loop(
            x.i,
            c(0),
            c(8),
            vec![
                store_elem(x, mul(i(), c(4)), i()),
                if_then(
                    eq(i(), c(5)),
                    vec![assign(buf32(add(lv(var(x.bp)), c(100))), c(1))],
                ),
            ],
        )]
    }));
    // The last iteration only.
    assert_falls_back(&loop_program(|x| {
        let i = || lv(var(x.i));
        vec![for_loop(
            x.i,
            c(0),
            c(8),
            vec![
                store_elem(x, mul(i(), c(4)), i()),
                if_then(ge(i(), c(7)), vec![ret(Some(c(0)))]),
            ],
        )]
    }));
}

#[test]
fn non_affine_offsets_unroll() {
    let rem = |a, b| Expr::Bin(BinOp::Mod, Box::new(a), Box::new(b));
    let div = |a, b| Expr::Bin(BinOp::Div, Box::new(a), Box::new(b));
    for which in 0..4 {
        assert_falls_back(&loop_program(|x| {
            let i = || lv(var(x.i));
            let off = match which {
                0 => mul(i(), i()),
                1 => mul(rem(i(), c(3)), c(4)),
                2 => mul(div(i(), c(2)), c(4)),
                // Stride 2⁶²: the third iteration leaves i64.
                _ => mul(i(), c(1 << 62)),
            };
            vec![for_loop(x.i, c(0), c(6), vec![store_elem(x, off, i())])]
        }));
    }
    // A varying scalar stored into the residual, and one byte-swapped.
    assert_falls_back(&loop_program(|x| {
        let i = || lv(var(x.i));
        vec![for_loop(
            x.i,
            c(0),
            c(4),
            vec![
                assign(buf32(add(lv(var(x.bp)), mul(i(), c(4)))), i()),
                assign(buf32(add(lv(var(x.bp)), mul(i(), c(4)))), htonl(i())),
            ],
        )]
    }));
    // An index that leaves the array in the last iteration is the unrolled
    // path's error to report, after the stores that precede it.
    let p = loop_program(|x| {
        let i = || lv(var(x.i));
        vec![for_loop(
            x.i,
            c(10),
            c(17),
            vec![store_elem(x, mul(i(), c(4)), i())],
        )]
    });
    let mut spec = Specializer::new(&p);
    let buf = spec.alloc_buffer("buf");
    let sp = spec.alloc_dynamic_struct(p.struct_named("S").unwrap(), "sp");
    let v = spec.dynamic_scalar_param("v", Type::Long);
    let args = vec![
        SVal::S(Value::BufPtr(buf, 0)),
        SVal::S(Value::Ref(Place { obj: sp, slot: 0 })),
        SVal::S(Value::Long(0)),
        v,
    ];
    assert_eq!(
        spec.specialize("f", args, "f_spec").unwrap_err(),
        SpecError::Eval(EvalError::OutOfBounds { index: 16, len: 16 })
    );
}

#[test]
fn binding_time_changes_unroll() {
    // A static slot made dynamic by the first iteration only.
    let p = loop_program(|x| {
        vec![
            assign(field(deref_var(x.sp), S_FLAG), c(3)),
            for_loop(
                x.i,
                c(0),
                c(4),
                vec![assign(field(deref_var(x.sp), S_FLAG), lv(var(x.v)))],
            ),
        ]
    });
    assert_falls_back(&p);
    assert!(!contains_loop(&specialize_loop(&p, false).0.body));
    // A dynamic slot made static by every iteration.
    assert_falls_back(&loop_program(|x| {
        vec![for_loop(
            x.i,
            c(0),
            c(4),
            vec![assign(
                index(field(deref_var(x.sp), S_ARR), lv(var(x.i))),
                c(5),
            )],
        )]
    }));
    // A dynamic `if` in the body; a variable dynamized in the body.
    assert_falls_back(&loop_program(|x| {
        let i = || lv(var(x.i));
        vec![for_loop(
            x.i,
            c(0),
            c(4),
            vec![if_then(
                ne(lv(var(x.v)), c(0)),
                vec![store_elem(x, mul(i(), c(4)), i())],
            )],
        )]
    }));
    assert_falls_back(&loop_program(|x| {
        vec![
            for_loop(
                x.i,
                c(0),
                c(4),
                vec![assign(
                    var(x.v),
                    lv(index(field(deref_var(x.sp), S_ARR), lv(var(x.i)))),
                )],
            ),
            ret(Some(lv(var(x.v)))),
        ]
    }));
}

#[test]
fn static_table_written_in_the_loop_unrolls() {
    // t[i] = 2i + 1 per iteration; a later statement reads t[7]: the table
    // has no affine summary, so the loop runs statement by statement and
    // the read sees 15.
    let p = loop_program(|x| {
        let i = || lv(var(x.i));
        let t = |idx| index(field(deref_var(x.tp), T_TAB), idx);
        vec![
            for_loop(
                x.i,
                c(0),
                c(8),
                vec![assign(t(i()), add(mul(i(), c(2)), c(1)))],
            ),
            assign(buf32(lv(var(x.bp))), lv(t(c(7)))),
            // …and a loop that reads the table it cannot summarize either.
            for_loop(
                x.i,
                c(0),
                c(8),
                vec![assign(
                    buf32(add(lv(var(x.bp)), mul(i(), c(4)))),
                    lv(t(i())),
                )],
            ),
        ]
    });
    assert_falls_back(&p);
    let (f, _) = specialize_loop(&p, false);
    assert_eq!(
        f.body[0],
        Stmt::Assign(LValue::Buf32(Box::new(lv(var(0)))), Expr::Const(15))
    );
}

/// `xdr_arr(xdrs, objp)`: the marshaling loop over the Figure 2–3 chain.
fn array_rpc_program(n: usize) -> Program {
    let mut p = mini_rpc_program();
    let xdr_sid = p.struct_named("XDR").unwrap();
    let arr_sid = p.add_struct(test_struct(
        "ARR",
        &[("arr", Type::Array(Box::new(Type::Long), n))],
    ));
    let mut fb = FunctionBuilder::new("xdr_arr");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let objp = fb.param("objp", ptr(Type::Struct(arr_sid)));
    let i = fb.local("i", Type::Long);
    fb.returns(Type::Long);
    let f = fb.body(vec![
        for_loop(
            i,
            c(0),
            c(n as i64),
            vec![if_then(
                not(call(
                    "xdr_long",
                    vec![
                        lv(var(xdrs)),
                        addr_of(index(field(deref_var(objp), 0), lv(var(i)))),
                    ],
                )),
                vec![ret(Some(c(0)))],
            )],
        ),
        ret(Some(c(1))),
    ]);
    p.add_func(f);
    p.validate().unwrap();
    p
}

/// Residual, report and specializer steps of `xdr_arr` over a handle with
/// `handy` bytes left.
fn specialize_array(
    p: &Program,
    op: i64,
    handy: i64,
    reference: bool,
) -> (Function, SpecReport, u64) {
    let mut spec = if reference {
        Specializer::unrolling(p)
    } else {
        Specializer::new(p)
    };
    let buf = spec.alloc_buffer("buf");
    let arr = spec.alloc_dynamic_struct(p.struct_named("ARR").unwrap(), "objp");
    let xdr = spec.alloc_static_struct(p.struct_named("XDR").unwrap());
    for (slot, v) in [
        (X_OP, Value::Long(op)),
        (X_HANDY, Value::Long(handy)),
        (X_PRIVATE, Value::BufPtr(buf, 0)),
    ] {
        spec.set_slot_static(Place { obj: xdr, slot }, v);
    }
    let args = vec![
        SVal::S(Value::Ref(Place { obj: xdr, slot: 0 })),
        SVal::S(Value::Ref(Place { obj: arr, slot: 0 })),
    ];
    let f = spec.specialize("xdr_arr", args, "xdr_arr_spec").unwrap();
    (f, spec.report().clone(), spec.steps_used())
}

#[test]
fn marshaling_loop_is_specialized_once() {
    let p = array_rpc_program(8);
    for op in [OP_ENCODE, OP_DECODE] {
        let (got, report, _) = specialize_array(&p, op, 64, false);
        let (_, mut reference, _) = specialize_array(&p, op, 64, true);
        assert!(
            matches!(&got.body[..], [Stmt::For { body, .. }, Stmt::Return(Some(Expr::Const(1)))] if body.len() == 1),
            "{}",
            pretty::function_str(&p, &got)
        );
        assert_eq!(report.loop_iters_unrolled, 8);
        assert_eq!(report.calls_unfolded, 16);
        reference.residual_stmts = report.residual_stmts;
        assert_eq!(report, reference);
    }
    // Specializer effort is the body's, not the trip count's.
    let steps = |n: usize| specialize_array(&array_rpc_program(n), OP_ENCODE, 1 << 40, false).2;
    assert_eq!(steps(8), steps(5000));
}

#[test]
fn buffer_running_out_mid_loop_unrolls() {
    // Space for five of eight longs: x_handy crosses zero in iteration 5.
    // Today's residual — five stores, then the static `return FALSE` — and
    // nothing else.
    let p = array_rpc_program(8);
    for op in [OP_ENCODE, OP_DECODE] {
        let (got, report, _) = specialize_array(&p, op, 20, false);
        let (want, reference, _) = specialize_array(&p, op, 20, true);
        assert_eq!(got.body, want.body);
        assert_eq!(report, reference);
        assert_eq!(got.body.len(), 6);
        assert_eq!(got.body[5], Stmt::Return(Some(Expr::Const(0))));
        assert_eq!(report.loop_iters_unrolled, 6);
    }
    // Exactly enough space: x_handy reaches zero and never goes below.
    let (got, ..) = specialize_array(&p, OP_ENCODE, 32, false);
    assert!(contains_loop(&got.body));
}

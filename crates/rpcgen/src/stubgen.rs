//! Per-procedure stub generation and the specialization driver.
//!
//! For one remote procedure, four IR entry stubs are generated on top of
//! the [`crate::sunlib`] micro-layers, each with the Figure 4 shape
//! (layered calls, status checks):
//!
//! * **client encode** — call header (`xdr_callmsg`) + arguments;
//! * **client decode** — the §6.2 `inlen` guard wrapping reply-header
//!   validation and result decoding (with the automated
//!   `len == N ⇒ len = N` re-statization for counted arrays);
//! * **server decode** — `inlen` guard + call-header validation
//!   (program/version/procedure checks) + argument decoding;
//! * **server encode** — reply header + results.
//!
//! [`specialize_stub`] then runs the Tempo pipeline on a stub: set up the
//! partially-static heap (the XDR handle and header structs are static
//! except the transaction id; argument contents are dynamic; counted-array
//! lengths are pinned to the specialization context), specialize, clean
//! up, and compile to a [`StubProgram`].

use crate::ast::{DeclKind, IdlFile, IdlType};
use crate::sunlib::{self, call_fields, reply_fields, xdr_fields, SunIds};
use specrpc_tempo::compile::{
    self, CompileError, CompileOptions, FieldBinding, FieldTarget, ParamBinding, StubConventions,
    StubProgram,
};
use specrpc_tempo::eval::{Place, Value};
use specrpc_tempo::ir::builder::*;
use specrpc_tempo::ir::{FieldDef, Function, Program, StructDef, Type};
use specrpc_tempo::post;
use specrpc_tempo::spec::{SVal, SpecError, SpecReport, Specializer};
use std::fmt;

/// Message-type `CALL`.
const MSG_CALL: i64 = 0;
/// Message-type `REPLY`.
const MSG_REPLY: i64 = 1;

/// Field shapes the specialized fast path supports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldShape {
    /// One 32-bit integer.
    Scalar {
        /// Field name.
        name: String,
    },
    /// A counted integer array whose length is pinned by the
    /// specialization context (the paper specializes per array size).
    VarIntArray {
        /// Field name.
        name: String,
        /// Pinned element count.
        pinned_len: usize,
        /// Declared maximum.
        max: usize,
    },
    /// A fixed-size integer array.
    FixedIntArray {
        /// Field name.
        name: String,
        /// Element count.
        len: usize,
    },
}

impl FieldShape {
    fn wire_size(&self) -> usize {
        match self {
            FieldShape::Scalar { .. } => 4,
            FieldShape::VarIntArray { pinned_len, .. } => 4 + 4 * pinned_len,
            FieldShape::FixedIntArray { len, .. } => 4 * len,
        }
    }
}

/// The shape of one message (argument or result struct).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct MsgShape {
    /// Fields in wire order.
    pub fields: Vec<FieldShape>,
}

impl MsgShape {
    /// Wire size in bytes of a message of this shape.
    pub fn wire_size(&self) -> usize {
        self.fields.iter().map(FieldShape::wire_size).sum()
    }

    /// Resolve an IDL type into a supported shape, pinning counted arrays
    /// to `pinned_len`. Returns `None` for shapes outside the fast path
    /// (strings, unions, nested structs…), which then go generic-only.
    pub fn from_idl(file: &IdlFile, ty: &IdlType, pinned_len: usize) -> Option<MsgShape> {
        match ty {
            IdlType::Void => Some(MsgShape::default()),
            IdlType::Int | IdlType::UInt => Some(MsgShape {
                fields: vec![FieldShape::Scalar {
                    name: "value".into(),
                }],
            }),
            IdlType::Named(n) => {
                let decls = file.struct_def(n)?;
                let mut fields = Vec::new();
                for d in decls {
                    let shape = match (&d.ty, &d.kind) {
                        (IdlType::Int | IdlType::UInt, DeclKind::Scalar) => FieldShape::Scalar {
                            name: d.name.clone(),
                        },
                        (IdlType::Int | IdlType::UInt, DeclKind::VarArray(max)) => {
                            FieldShape::VarIntArray {
                                name: d.name.clone(),
                                pinned_len,
                                max: if *max == 0 { usize::MAX } else { *max },
                            }
                        }
                        (IdlType::Int | IdlType::UInt, DeclKind::FixedArray(n)) => {
                            FieldShape::FixedIntArray {
                                name: d.name.clone(),
                                len: *n,
                            }
                        }
                        _ => return None,
                    };
                    fields.push(shape);
                }
                Some(MsgShape { fields })
            }
            _ => None,
        }
    }
}

/// Where each user-visible field of a message lives in the
/// [`compile::StubArgs`] calling convention.
#[derive(Debug, Clone, Default)]
pub struct ShapeLayout {
    /// `(field name, scalar slot)`.
    pub scalars: Vec<(String, u16)>,
    /// `(field name, array slot)`.
    pub arrays: Vec<(String, u16)>,
    /// Total scalar slots used (including protocol scratch).
    pub scalar_count: u16,
    /// Total array slots used.
    pub array_count: u16,
}

/// One generated stub: IR entry name plus compile conventions and layout.
#[derive(Debug, Clone)]
pub struct StubPlan {
    /// IR entry function name.
    pub entry: String,
    /// Residual-compiler conventions.
    pub conventions: StubConventions,
    /// User-visible slot layout.
    pub layout: ShapeLayout,
    /// Expected wire length (request or reply) in bytes.
    pub wire_len: usize,
}

/// The four stubs of one procedure in one specialization context.
#[derive(Debug)]
pub struct GeneratedStubs {
    /// The whole IR program (sunlib + message structs + entries).
    pub program: Program,
    /// sunlib struct ids.
    pub ids: SunIds,
    /// Program / version / procedure numbers.
    pub target: (u32, u32, u32),
    /// Argument shape.
    pub arg_shape: MsgShape,
    /// Result shape.
    pub res_shape: MsgShape,
    /// IR struct id of the argument message.
    pub arg_sid: usize,
    /// IR struct id of the result message.
    pub res_sid: usize,
    /// Client-side request encoder.
    pub client_encode: StubPlan,
    /// Client-side reply decoder.
    pub client_decode: StubPlan,
    /// Server-side request decoder.
    pub server_decode: StubPlan,
    /// Server-side reply encoder.
    pub server_encode: StubPlan,
}

/// Which of the four stubs to specialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StubKind {
    /// Client request encoder.
    ClientEncode,
    /// Client reply decoder.
    ClientDecode,
    /// Server request decoder.
    ServerDecode,
    /// Server reply encoder.
    ServerEncode,
}

/// Errors from generation or specialization.
#[derive(Debug)]
pub enum StubGenError {
    /// Specialization failed.
    Spec(SpecError),
    /// Residual compilation failed.
    Compile(CompileError),
}

impl fmt::Display for StubGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StubGenError::Spec(e) => write!(f, "specialization failed: {e}"),
            StubGenError::Compile(e) => write!(f, "residual compilation failed: {e}"),
        }
    }
}

impl std::error::Error for StubGenError {}

impl From<SpecError> for StubGenError {
    fn from(e: SpecError) -> Self {
        StubGenError::Spec(e)
    }
}

impl From<CompileError> for StubGenError {
    fn from(e: CompileError) -> Self {
        StubGenError::Compile(e)
    }
}

/// RPC call header bytes with AUTH_NONE.
pub const CALL_HEADER_BYTES: usize = 40;
/// Accepted-success reply header bytes with AUTH_NONE verifier.
pub const REPLY_HEADER_BYTES: usize = 24;

/// Generate stubs directly from message shapes.
pub fn generate_from_shapes(
    prog_num: u32,
    vers_num: u32,
    proc_num: u32,
    arg_shape: MsgShape,
    res_shape: MsgShape,
) -> GeneratedStubs {
    let (mut program, ids) = sunlib::build();
    let arg_sid = add_msg_struct(&mut program, "args_msg", &arg_shape);
    let res_sid = add_msg_struct(&mut program, "res_msg", &res_shape);

    let suffix = format!("{prog_num}_{vers_num}_{proc_num}");
    let request_len = CALL_HEADER_BYTES + arg_shape.wire_size();
    let reply_len = REPLY_HEADER_BYTES + res_shape.wire_size();

    let client_encode =
        gen_client_encode(&mut program, ids, arg_sid, &arg_shape, &suffix, request_len);
    let client_decode =
        gen_client_decode(&mut program, ids, res_sid, &res_shape, &suffix, reply_len);
    let server_decode = gen_server_decode(
        &mut program,
        ids,
        arg_sid,
        &arg_shape,
        &suffix,
        request_len,
        (prog_num, vers_num, proc_num),
    );
    let server_encode =
        gen_server_encode(&mut program, ids, res_sid, &res_shape, &suffix, reply_len);

    program.validate().expect("generated stubs are well-formed");
    GeneratedStubs {
        program,
        ids,
        target: (prog_num, vers_num, proc_num),
        arg_shape,
        res_shape,
        arg_sid,
        res_sid,
        client_encode,
        client_decode,
        server_decode,
        server_encode,
    }
}

/// IR struct for a message shape: scalars are `long` fields; counted
/// arrays contribute a length field plus an inline array; fixed arrays
/// just the array.
fn add_msg_struct(program: &mut Program, base: &str, shape: &MsgShape) -> usize {
    let mut fields = Vec::new();
    for f in &shape.fields {
        match f {
            FieldShape::Scalar { name } => {
                fields.push(FieldDef {
                    name: name.clone(),
                    ty: Type::Long,
                });
            }
            FieldShape::VarIntArray {
                name, pinned_len, ..
            } => {
                fields.push(FieldDef {
                    name: format!("{name}_len"),
                    ty: Type::Long,
                });
                fields.push(FieldDef {
                    name: name.clone(),
                    ty: Type::Array(Box::new(Type::Long), (*pinned_len).max(1)),
                });
            }
            FieldShape::FixedIntArray { name, len } => {
                fields.push(FieldDef {
                    name: name.clone(),
                    ty: Type::Array(Box::new(Type::Long), (*len).max(1)),
                });
            }
        }
    }
    // Unique struct name per generation (sizes differ across contexts).
    let name = format!("{base}_{}", program.structs.len());
    program.add_struct(StructDef { name, fields })
}

/// Field/slot bookkeeping while generating one message's marshaling code.
struct MsgBinding {
    bindings: Vec<FieldBinding>,
    layout: ShapeLayout,
}

/// Assign calling-convention slots for a message struct, starting at the
/// given scalar/array slot bases. An array's binding covers the elements
/// its context carries — none for one pinned at 0, so its encode refuses
/// any — while its IR array keeps at least one flat slot.
fn bind_msg(shape: &MsgShape, scalar_base: u16, array_base: u16) -> MsgBinding {
    let mut bindings = Vec::new();
    let mut layout = ShapeLayout::default();
    let mut slot = 0usize;
    let mut s = scalar_base;
    let mut a = array_base;
    for f in &shape.fields {
        match f {
            FieldShape::Scalar { name } => {
                bindings.push(FieldBinding {
                    slot_start: slot,
                    slot_len: 1,
                    target: FieldTarget::Scalar(s),
                });
                layout.scalars.push((name.clone(), s));
                s += 1;
                slot += 1;
            }
            FieldShape::VarIntArray {
                name, pinned_len, ..
            } => {
                bindings.push(FieldBinding {
                    slot_start: slot,
                    slot_len: 1,
                    target: FieldTarget::ArrayLen(a),
                });
                slot += 1;
                bindings.push(FieldBinding {
                    slot_start: slot,
                    slot_len: *pinned_len,
                    target: FieldTarget::Array(a),
                });
                layout.arrays.push((name.clone(), a));
                a += 1;
                slot += (*pinned_len).max(1);
            }
            FieldShape::FixedIntArray { name, len } => {
                bindings.push(FieldBinding {
                    slot_start: slot,
                    slot_len: *len,
                    target: FieldTarget::Array(a),
                });
                layout.arrays.push((name.clone(), a));
                a += 1;
                slot += (*len).max(1);
            }
        }
    }
    layout.scalar_count = s;
    layout.array_count = a;
    MsgBinding { bindings, layout }
}

/// IR field index of the i-th shape field's value (and length) within the
/// generated message struct.
fn msg_field_ids(shape: &MsgShape) -> Vec<(Option<usize>, usize)> {
    let mut out = Vec::new();
    let mut fid = 0usize;
    for f in &shape.fields {
        match f {
            FieldShape::Scalar { .. } => {
                out.push((None, fid));
                fid += 1;
            }
            FieldShape::VarIntArray { .. } => {
                out.push((Some(fid), fid + 1));
                fid += 2;
            }
            FieldShape::FixedIntArray { .. } => {
                out.push((None, fid));
                fid += 1;
            }
        }
    }
    out
}

/// Figure-4-style status-checked call.
fn checked_call(name: &str, args: Vec<specrpc_tempo::ir::Expr>) -> specrpc_tempo::ir::Stmt {
    if_then(not(call(name, args)), vec![ret(Some(c(0)))])
}

/// Generate the statements that marshal one message's fields in the given
/// direction (`encode` / `decode` differ only in the counted-array length
/// handling).
fn gen_fields(
    body: &mut Vec<specrpc_tempo::ir::Stmt>,
    shape: &MsgShape,
    msg_var: usize,
    loop_var: usize,
    xdrs_var: usize,
    decode: bool,
) {
    let ids = msg_field_ids(shape);
    for (f, (len_fid, val_fid)) in shape.fields.iter().zip(ids) {
        match f {
            FieldShape::Scalar { .. } => {
                body.push(checked_call(
                    "xdr_int",
                    vec![
                        lv(var(xdrs_var)),
                        addr_of(field(deref_var(msg_var), val_fid)),
                    ],
                ));
            }
            FieldShape::VarIntArray { pinned_len, .. } => {
                let len_fid = len_fid.expect("var arrays carry a length field");
                // Length word through the generic chain.
                body.push(checked_call(
                    "xdr_u_int",
                    vec![
                        lv(var(xdrs_var)),
                        addr_of(field(deref_var(msg_var), len_fid)),
                    ],
                ));
                let elems = for_loop(
                    loop_var,
                    c(0),
                    lv(field(deref_var(msg_var), len_fid)),
                    vec![checked_call(
                        "xdr_int",
                        vec![
                            lv(var(xdrs_var)),
                            addr_of(index(field(deref_var(msg_var), val_fid), lv(var(loop_var)))),
                        ],
                    )],
                );
                if decode {
                    // §6.2 automated rewrite: re-statize the decoded length
                    // inside the guarded branch so the loop unrolls; the
                    // else branch preserves the general case by falling
                    // back.
                    body.push(if_else(
                        eq(
                            lv(field(deref_var(msg_var), len_fid)),
                            c(*pinned_len as i64),
                        ),
                        vec![
                            assign(field(deref_var(msg_var), len_fid), c(*pinned_len as i64)),
                            elems,
                        ],
                        vec![ret(Some(c(0)))],
                    ));
                } else {
                    // Encode side: the length field is static in the
                    // specialization context; the loop unrolls directly.
                    body.push(elems);
                }
            }
            FieldShape::FixedIntArray { len, .. } => {
                body.push(for_loop(
                    loop_var,
                    c(0),
                    c(*len as i64),
                    vec![checked_call(
                        "xdr_int",
                        vec![
                            lv(var(xdrs_var)),
                            addr_of(index(field(deref_var(msg_var), val_fid), lv(var(loop_var)))),
                        ],
                    )],
                ));
            }
        }
    }
}

fn gen_client_encode(
    program: &mut Program,
    ids: SunIds,
    arg_sid: usize,
    shape: &MsgShape,
    suffix: &str,
    request_len: usize,
) -> StubPlan {
    let name = format!("client_encode_{suffix}");
    let mut fb = FunctionBuilder::new(&name);
    let xdrs = fb.param("xdrs", ptr(Type::Struct(ids.xdr_sid)));
    let cmsg = fb.param("cmsg", ptr(Type::Struct(ids.call_sid)));
    let argsp = fb.param("argsp", ptr(Type::Struct(arg_sid)));
    let i = fb.local("i", Type::Long);
    fb.returns(Type::Long);
    let mut body = vec![checked_call(
        "xdr_callmsg",
        vec![lv(var(xdrs)), lv(var(cmsg))],
    )];
    gen_fields(&mut body, shape, argsp, i, xdrs, false);
    body.push(ret(Some(c(1))));
    program.add_func(fb.body(body));

    let mb = bind_msg(shape, 1, 0); // scalar slot 0 = xid
    let conventions = StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(vec![FieldBinding {
                slot_start: call_fields::XID,
                slot_len: 1,
                target: FieldTarget::Scalar(0),
            }]),
            ParamBinding::Struct(mb.bindings),
        ],
    };
    StubPlan {
        entry: name,
        conventions,
        layout: mb.layout,
        wire_len: request_len,
    }
}

fn gen_client_decode(
    program: &mut Program,
    ids: SunIds,
    res_sid: usize,
    shape: &MsgShape,
    suffix: &str,
    reply_len: usize,
) -> StubPlan {
    let name = format!("client_decode_{suffix}");
    let mut fb = FunctionBuilder::new(&name);
    let xdrs = fb.param("xdrs", ptr(Type::Struct(ids.xdr_sid)));
    let rmsg = fb.param("rmsg", ptr(Type::Struct(ids.reply_sid)));
    let resp = fb.param("resp", ptr(Type::Struct(res_sid)));
    let inlen = fb.param("inlen", Type::Long);
    let i = fb.local("i", Type::Long);
    fb.returns(Type::Long);

    let mut fast = vec![
        assign(var(inlen), c(reply_len as i64)),
        checked_call("xdr_replymsg_words", vec![lv(var(xdrs)), lv(var(rmsg))]),
        // Validation stays dynamic (§3.4): soundness of the reply.
        if_then(
            ne(
                lv(field(deref_var(rmsg), reply_fields::MTYPE)),
                c(MSG_REPLY),
            ),
            vec![ret(Some(c(0)))],
        ),
        if_then(
            ne(lv(field(deref_var(rmsg), reply_fields::STAT)), c(0)),
            vec![ret(Some(c(0)))],
        ),
        if_then(
            ne(lv(field(deref_var(rmsg), reply_fields::VERF_LEN)), c(0)),
            vec![ret(Some(c(0)))],
        ),
        if_then(
            ne(lv(field(deref_var(rmsg), reply_fields::ASTAT)), c(0)),
            vec![ret(Some(c(0)))],
        ),
    ];
    gen_fields(&mut fast, shape, resp, i, xdrs, true);
    fast.push(ret(Some(c(1))));

    let body = vec![if_else(
        eq(lv(var(inlen)), c(reply_len as i64)),
        fast,
        vec![ret(Some(c(0)))],
    )];
    program.add_func(fb.body(body));

    // Reply header words occupy scalar slots 0..5; results follow.
    let mb = bind_msg(shape, reply_fields::COUNT as u16, 0);
    let conventions = StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(
                (0..reply_fields::COUNT)
                    .map(|fid| FieldBinding {
                        slot_start: fid,
                        slot_len: 1,
                        target: FieldTarget::Scalar(fid as u16),
                    })
                    .collect(),
            ),
            ParamBinding::Struct(mb.bindings),
            ParamBinding::InLen,
        ],
    };
    StubPlan {
        entry: name,
        conventions,
        layout: mb.layout,
        wire_len: reply_len,
    }
}

fn gen_server_decode(
    program: &mut Program,
    ids: SunIds,
    arg_sid: usize,
    shape: &MsgShape,
    suffix: &str,
    request_len: usize,
    target: (u32, u32, u32),
) -> StubPlan {
    let name = format!("server_decode_{suffix}");
    let mut fb = FunctionBuilder::new(&name);
    let xdrs = fb.param("xdrs", ptr(Type::Struct(ids.xdr_sid)));
    let cmsg = fb.param("cmsg", ptr(Type::Struct(ids.call_sid)));
    let argsp = fb.param("argsp", ptr(Type::Struct(arg_sid)));
    let inlen = fb.param("inlen", Type::Long);
    let i = fb.local("i", Type::Long);
    fb.returns(Type::Long);

    let check = |fid: usize, want: i64| {
        if_then(
            ne(lv(field(deref_var(cmsg), fid)), c(want)),
            vec![ret(Some(c(0)))],
        )
    };
    let mut fast = vec![
        assign(var(inlen), c(request_len as i64)),
        checked_call("xdr_callmsg", vec![lv(var(xdrs)), lv(var(cmsg))]),
        check(call_fields::MTYPE, MSG_CALL),
        check(call_fields::RPCVERS, 2),
        check(call_fields::PROG, target.0 as i64),
        check(call_fields::VERS, target.1 as i64),
        check(call_fields::PROC, target.2 as i64),
        check(call_fields::CRED_LEN, 0),
        check(call_fields::VERF_LEN, 0),
    ];
    gen_fields(&mut fast, shape, argsp, i, xdrs, true);
    fast.push(ret(Some(c(1))));

    let body = vec![if_else(
        eq(lv(var(inlen)), c(request_len as i64)),
        fast,
        vec![ret(Some(c(0)))],
    )];
    program.add_func(fb.body(body));

    let mb = bind_msg(shape, call_fields::COUNT as u16, 0);
    let conventions = StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(
                (0..call_fields::COUNT)
                    .map(|fid| FieldBinding {
                        slot_start: fid,
                        slot_len: 1,
                        target: FieldTarget::Scalar(fid as u16),
                    })
                    .collect(),
            ),
            ParamBinding::Struct(mb.bindings),
            ParamBinding::InLen,
        ],
    };
    StubPlan {
        entry: name,
        conventions,
        layout: mb.layout,
        wire_len: request_len,
    }
}

fn gen_server_encode(
    program: &mut Program,
    ids: SunIds,
    res_sid: usize,
    shape: &MsgShape,
    suffix: &str,
    reply_len: usize,
) -> StubPlan {
    let name = format!("server_encode_{suffix}");
    let mut fb = FunctionBuilder::new(&name);
    let xdrs = fb.param("xdrs", ptr(Type::Struct(ids.xdr_sid)));
    let rmsg = fb.param("rmsg", ptr(Type::Struct(ids.reply_sid)));
    let resp = fb.param("resp", ptr(Type::Struct(res_sid)));
    let i = fb.local("i", Type::Long);
    fb.returns(Type::Long);
    let mut body = vec![checked_call(
        "xdr_replymsg_words",
        vec![lv(var(xdrs)), lv(var(rmsg))],
    )];
    gen_fields(&mut body, shape, resp, i, xdrs, false);
    body.push(ret(Some(c(1))));
    program.add_func(fb.body(body));

    let mb = bind_msg(shape, 1, 0); // scalar 0 = xid
    let conventions = StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(vec![FieldBinding {
                slot_start: reply_fields::XID,
                slot_len: 1,
                target: FieldTarget::Scalar(0),
            }]),
            ParamBinding::Struct(mb.bindings),
        ],
    };
    StubPlan {
        entry: name,
        conventions,
        layout: mb.layout,
        wire_len: reply_len,
    }
}

/// A specialized, compiled stub with its provenance.
#[derive(Debug)]
pub struct CompiledStub {
    /// Executable micro-op program.
    pub program: StubProgram,
    /// Specialization statistics.
    pub report: SpecReport,
    /// Expected wire length.
    pub wire_len: usize,
    /// User-visible slot layout.
    pub layout: ShapeLayout,
}

/// Run the Tempo pipeline (specialize → post-passes → compile) on one of
/// the four stubs.
pub fn specialize_stub(
    gs: &GeneratedStubs,
    kind: StubKind,
    chunk: Option<usize>,
) -> Result<CompiledStub, StubGenError> {
    let (residual, plan, report) = specialize_with_report(gs, kind)?;
    let stub = compile::compile(
        &gs.program,
        &residual,
        &plan.conventions,
        CompileOptions { chunk },
    )?;
    Ok(CompiledStub {
        program: stub,
        report,
        wire_len: plan.wire_len,
        layout: plan.layout.clone(),
    })
}

/// Specialize one stub, also returning the specializer's report.
pub fn specialize_with_report(
    gs: &GeneratedStubs,
    kind: StubKind,
) -> Result<(Function, &StubPlan, SpecReport), StubGenError> {
    let (residual, plan, report, _) = run_specializer(gs, kind, Specializer::new(&gs.program))?;
    Ok((residual, plan, report))
}

/// [`specialize_with_report`] with every marshaling loop fully unrolled
/// ([`Specializer::unrolling`]): the paper's Figure 5 residual, and the
/// reference the loop-summarizing specializer is tested against. Compiles
/// to the same [`StubProgram`] — the compiler folds the stores back into
/// the loop they unroll — but costs O(array length) to produce.
pub fn specialize_unrolled(
    gs: &GeneratedStubs,
    kind: StubKind,
) -> Result<(Function, &StubPlan, SpecReport), StubGenError> {
    let spec = Specializer::unrolling(&gs.program);
    let (residual, plan, report, _) = run_specializer(gs, kind, spec)?;
    Ok((residual, plan, report))
}

/// Specializer steps one stub burns ([`Specializer::steps_used`]) — the
/// deterministic measure of specialization effort: it depends on the
/// shape of the messages, not on their array lengths.
pub fn specialization_steps(gs: &GeneratedStubs, kind: StubKind) -> Result<u64, StubGenError> {
    Ok(run_specializer(gs, kind, Specializer::new(&gs.program))?.3)
}

/// Set up the partially-static heap of `kind` in `spec`, specialize and
/// clean up: residual, plan, report and specializer steps burned.
fn run_specializer<'g>(
    gs: &'g GeneratedStubs,
    kind: StubKind,
    mut spec: Specializer<'g>,
) -> Result<(Function, &'g StubPlan, SpecReport, u64), StubGenError> {
    use sunlib::{XDR_DECODE, XDR_ENCODE};
    let buf = spec.alloc_buffer("buf");
    let (prog_num, vers_num, proc_num) = gs.target;

    let (plan, entry_args) = match kind {
        StubKind::ClientEncode => {
            let cmsg = spec.alloc_dynamic_struct(gs.ids.call_sid, "msg");
            for (fid, v) in [
                (call_fields::MTYPE, MSG_CALL),
                (call_fields::RPCVERS, 2),
                (call_fields::PROG, prog_num as i64),
                (call_fields::VERS, vers_num as i64),
                (call_fields::PROC, proc_num as i64),
                (call_fields::CRED_FLAVOR, 0),
                (call_fields::CRED_LEN, 0),
                (call_fields::VERF_FLAVOR, 0),
                (call_fields::VERF_LEN, 0),
            ] {
                spec.set_slot_static(
                    Place {
                        obj: cmsg,
                        slot: fid,
                    },
                    Value::Long(v),
                );
            }
            let argsp = spec.alloc_dynamic_struct(gs.arg_sid, "argsp");
            pin_lengths(&mut spec, argsp, &gs.arg_shape);
            let xdr = alloc_xdr(&mut spec, gs.ids.xdr_sid, XDR_ENCODE, buf);
            (
                &gs.client_encode,
                vec![
                    SVal::S(Value::Ref(Place { obj: xdr, slot: 0 })),
                    SVal::S(Value::Ref(Place { obj: cmsg, slot: 0 })),
                    SVal::S(Value::Ref(Place {
                        obj: argsp,
                        slot: 0,
                    })),
                ],
            )
        }
        StubKind::ClientDecode => {
            let rmsg = spec.alloc_dynamic_struct(gs.ids.reply_sid, "rmsg");
            let resp = spec.alloc_dynamic_struct(gs.res_sid, "resp");
            let inlen = spec.dynamic_scalar_param("inlen", Type::Long);
            let xdr = alloc_xdr(&mut spec, gs.ids.xdr_sid, XDR_DECODE, buf);
            (
                &gs.client_decode,
                vec![
                    SVal::S(Value::Ref(Place { obj: xdr, slot: 0 })),
                    SVal::S(Value::Ref(Place { obj: rmsg, slot: 0 })),
                    SVal::S(Value::Ref(Place { obj: resp, slot: 0 })),
                    inlen,
                ],
            )
        }
        StubKind::ServerDecode => {
            let cmsg = spec.alloc_dynamic_struct(gs.ids.call_sid, "cmsg");
            let argsp = spec.alloc_dynamic_struct(gs.arg_sid, "argsp");
            let inlen = spec.dynamic_scalar_param("inlen", Type::Long);
            let xdr = alloc_xdr(&mut spec, gs.ids.xdr_sid, XDR_DECODE, buf);
            (
                &gs.server_decode,
                vec![
                    SVal::S(Value::Ref(Place { obj: xdr, slot: 0 })),
                    SVal::S(Value::Ref(Place { obj: cmsg, slot: 0 })),
                    SVal::S(Value::Ref(Place {
                        obj: argsp,
                        slot: 0,
                    })),
                    inlen,
                ],
            )
        }
        StubKind::ServerEncode => {
            let rmsg = spec.alloc_dynamic_struct(gs.ids.reply_sid, "rmsg");
            for (fid, v) in [
                (reply_fields::MTYPE, MSG_REPLY),
                (reply_fields::STAT, 0),
                (reply_fields::VERF_FLAVOR, 0),
                (reply_fields::VERF_LEN, 0),
                (reply_fields::ASTAT, 0),
            ] {
                spec.set_slot_static(
                    Place {
                        obj: rmsg,
                        slot: fid,
                    },
                    Value::Long(v),
                );
            }
            let resp = spec.alloc_dynamic_struct(gs.res_sid, "resp");
            pin_lengths(&mut spec, resp, &gs.res_shape);
            let xdr = alloc_xdr(&mut spec, gs.ids.xdr_sid, XDR_ENCODE, buf);
            (
                &gs.server_encode,
                vec![
                    SVal::S(Value::Ref(Place { obj: xdr, slot: 0 })),
                    SVal::S(Value::Ref(Place { obj: rmsg, slot: 0 })),
                    SVal::S(Value::Ref(Place { obj: resp, slot: 0 })),
                ],
            )
        }
    };

    let mut residual = spec.specialize(&plan.entry, entry_args, &format!("{}_spec", plan.entry))?;
    post::optimize(&mut residual);
    let report = spec.report().clone();
    Ok((residual, plan, report, spec.steps_used()))
}

fn alloc_xdr(
    spec: &mut Specializer<'_>,
    xdr_sid: usize,
    op: i64,
    buf: specrpc_tempo::eval::ObjId,
) -> specrpc_tempo::eval::ObjId {
    use xdr_fields::*;
    let xdr = spec.alloc_static_struct(xdr_sid);
    spec.set_slot_static(
        Place {
            obj: xdr,
            slot: X_OP,
        },
        Value::Long(op),
    );
    spec.set_slot_static(
        Place {
            obj: xdr,
            slot: X_KIND,
        },
        Value::Long(sunlib::XDR_MEM),
    );
    spec.set_slot_static(
        Place {
            obj: xdr,
            slot: X_HANDY,
        },
        Value::Long(1 << 20),
    );
    spec.set_slot_static(
        Place {
            obj: xdr,
            slot: X_BASE,
        },
        Value::BufPtr(buf, 0),
    );
    spec.set_slot_static(
        Place {
            obj: xdr,
            slot: X_PRIVATE,
        },
        Value::BufPtr(buf, 0),
    );
    xdr
}

/// On the encode side, counted-array length fields are static (the
/// specialization context pins them, §4: partially-static structures).
fn pin_lengths(spec: &mut Specializer<'_>, obj: specrpc_tempo::eval::ObjId, shape: &MsgShape) {
    let ids = msg_field_ids(shape);
    // Field ids are also flat slot offsets here: all fields are longs or
    // long arrays laid out in order.
    let mut slot = 0usize;
    for (f, _) in shape.fields.iter().zip(ids) {
        match f {
            FieldShape::Scalar { .. } => slot += 1,
            FieldShape::VarIntArray { pinned_len, .. } => {
                spec.set_slot_static(Place { obj, slot }, Value::Long(*pinned_len as i64));
                slot += 1 + (*pinned_len).max(1);
            }
            FieldShape::FixedIntArray { len, .. } => slot += (*len).max(1),
        }
    }
}

#[cfg(test)]
mod tests;

//! The Sun RPC marshaling micro-layers, transliterated into the
//! `specrpc-tempo` IR — the "existing, commercial code" that gets
//! specialized.
//!
//! Figure-by-figure correspondence with the paper:
//!
//! * `xdrmem_putlong` / `xdrmem_getlong` — Figure 3: the
//!   `x_handy` buffer-overflow accounting and the `htonl` store;
//! * `xdr_long` — Figure 2: the three-way `x_op` dispatch;
//! * `XDR_PUTLONG`/`XDR_GETLONG` — the stream-kind dispatch the C macro
//!   hides behind the `x_ops` vtable;
//! * `xdr_int` — the machine-dependent forwarding layer from the Figure 1
//!   trace;
//! * `xdr_callmsg` — the call-header marshaler (xid, message type,
//!   RPC version, program, version, procedure, credentials, verifier);
//! * `xdr_replymsg_words` — the reply-header reader; unlike the C
//!   original, the *checks* on the decoded words live in the generated
//!   entry stubs (`stubgen`), because dynamic early returns cannot be
//!   unfolded out of callees — the checks are dynamic and stay in the
//!   residual either way (§3.4).

use specrpc_tempo::ir::builder::*;
use specrpc_tempo::ir::{FieldDef, Program, StructDef, Type};

/// `x_op` value for encoding.
pub const XDR_ENCODE: i64 = 0;
/// `x_op` value for decoding.
pub const XDR_DECODE: i64 = 1;
/// `x_op` value for freeing.
pub const XDR_FREE: i64 = 2;
/// `x_kind` value for memory streams.
pub const XDR_MEM: i64 = 0;

/// Field ids of `struct XDR`.
pub mod xdr_fields {
    /// Operation tag.
    pub const X_OP: usize = 0;
    /// Stream kind (memory/record) — the vtable selector.
    pub const X_KIND: usize = 1;
    /// Space remaining in the buffer.
    pub const X_HANDY: usize = 2;
    /// Buffer base pointer.
    pub const X_BASE: usize = 3;
    /// Current cursor.
    pub const X_PRIVATE: usize = 4;
}

/// Field ids of `struct call_msg` (AUTH_NONE layout: empty auth bodies).
pub mod call_fields {
    /// Transaction id.
    pub const XID: usize = 0;
    /// Message type (CALL).
    pub const MTYPE: usize = 1;
    /// RPC version (2).
    pub const RPCVERS: usize = 2;
    /// Program number.
    pub const PROG: usize = 3;
    /// Program version.
    pub const VERS: usize = 4;
    /// Procedure number.
    pub const PROC: usize = 5;
    /// Credential flavor.
    pub const CRED_FLAVOR: usize = 6;
    /// Credential body length (0 for AUTH_NONE).
    pub const CRED_LEN: usize = 7;
    /// Verifier flavor.
    pub const VERF_FLAVOR: usize = 8;
    /// Verifier body length.
    pub const VERF_LEN: usize = 9;
    /// Number of fields.
    pub const COUNT: usize = 10;
}

/// Field ids of `struct reply_msg` (header words of an accepted reply).
pub mod reply_fields {
    /// Transaction id.
    pub const XID: usize = 0;
    /// Message type (REPLY = 1).
    pub const MTYPE: usize = 1;
    /// Reply status (MSG_ACCEPTED = 0).
    pub const STAT: usize = 2;
    /// Verifier flavor.
    pub const VERF_FLAVOR: usize = 3;
    /// Verifier length.
    pub const VERF_LEN: usize = 4;
    /// Accept status (SUCCESS = 0).
    pub const ASTAT: usize = 5;
    /// Number of fields.
    pub const COUNT: usize = 6;
}

/// Struct ids of the library program.
#[derive(Debug, Clone, Copy)]
pub struct SunIds {
    /// `struct XDR`.
    pub xdr_sid: usize,
    /// `struct call_msg`.
    pub call_sid: usize,
    /// `struct reply_msg`.
    pub reply_sid: usize,
}

/// Build the library program (structs + micro-layer functions). Generated
/// stubs are added on top by `stubgen`.
pub fn build() -> (Program, SunIds) {
    let mut p = Program::new();
    let xdr_sid = p.add_struct(StructDef {
        name: "XDR".into(),
        fields: vec![
            FieldDef {
                name: "x_op".into(),
                ty: Type::Long,
            },
            FieldDef {
                name: "x_kind".into(),
                ty: Type::Long,
            },
            FieldDef {
                name: "x_handy".into(),
                ty: Type::Long,
            },
            FieldDef {
                name: "x_base".into(),
                ty: Type::BufPtr,
            },
            FieldDef {
                name: "x_private".into(),
                ty: Type::BufPtr,
            },
        ],
    });
    let call_sid = p.add_struct(StructDef {
        name: "call_msg".into(),
        fields: [
            "xid",
            "mtype",
            "rpcvers",
            "prog",
            "vers",
            "proc_num",
            "cred_flavor",
            "cred_len",
            "verf_flavor",
            "verf_len",
        ]
        .iter()
        .map(|n| FieldDef {
            name: (*n).into(),
            ty: Type::Long,
        })
        .collect(),
    });
    let reply_sid = p.add_struct(StructDef {
        name: "reply_msg".into(),
        fields: [
            "xid",
            "mtype",
            "reply_stat",
            "verf_flavor",
            "verf_len",
            "accept_stat",
        ]
        .iter()
        .map(|n| FieldDef {
            name: (*n).into(),
            ty: Type::Long,
        })
        .collect(),
    });

    add_xdrmem_putlong(&mut p, xdr_sid);
    add_xdrmem_getlong(&mut p, xdr_sid);
    add_xdr_putlong_dispatch(&mut p, xdr_sid);
    add_xdr_getlong_dispatch(&mut p, xdr_sid);
    add_xdr_long(&mut p, xdr_sid);
    add_xdr_int(&mut p, xdr_sid);
    add_xdr_u_long(&mut p, xdr_sid);
    add_xdr_u_int(&mut p, xdr_sid);
    add_xdr_callmsg(&mut p, xdr_sid, call_sid);
    add_xdr_replymsg_words(&mut p, xdr_sid, reply_sid);

    p.validate().expect("sunlib is well-formed");
    (
        p,
        SunIds {
            xdr_sid,
            call_sid,
            reply_sid,
        },
    )
}

/// Figure 3: `xdrmem_putlong`.
fn add_xdrmem_putlong(p: &mut Program, xdr_sid: usize) {
    use xdr_fields::*;
    let mut fb = FunctionBuilder::new("xdrmem_putlong");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let f = fb.body(vec![
        // if ((xdrs->x_handy -= sizeof(long)) < 0) return FALSE;
        assign(
            field(deref_var(xdrs), X_HANDY),
            sub(lv(field(deref_var(xdrs), X_HANDY)), c(4)),
        ),
        if_then(
            lt(lv(field(deref_var(xdrs), X_HANDY)), c(0)),
            vec![ret(Some(c(0)))],
        ),
        // *(xdrs->x_private) = htonl(*lp);
        assign(
            buf32(lv(field(deref_var(xdrs), X_PRIVATE))),
            htonl(lv(deref_var(lp))),
        ),
        // xdrs->x_private += sizeof(long);
        assign(
            field(deref_var(xdrs), X_PRIVATE),
            add(lv(field(deref_var(xdrs), X_PRIVATE)), c(4)),
        ),
        ret(Some(c(1))),
    ]);
    p.add_func(f);
}

/// Decode-side mirror of Figure 3.
fn add_xdrmem_getlong(p: &mut Program, xdr_sid: usize) {
    use xdr_fields::*;
    let mut fb = FunctionBuilder::new("xdrmem_getlong");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let f = fb.body(vec![
        assign(
            field(deref_var(xdrs), X_HANDY),
            sub(lv(field(deref_var(xdrs), X_HANDY)), c(4)),
        ),
        if_then(
            lt(lv(field(deref_var(xdrs), X_HANDY)), c(0)),
            vec![ret(Some(c(0)))],
        ),
        // *lp = ntohl(*(xdrs->x_private));
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
    p.add_func(f);
}

/// The `XDR_PUTLONG` macro: dispatch through the stream vtable
/// (`(*xdrs->x_ops->x_putlong)(xdrs, lp)`), modeled as a kind switch.
fn add_xdr_putlong_dispatch(p: &mut Program, xdr_sid: usize) {
    use xdr_fields::*;
    let mut fb = FunctionBuilder::new("XDR_PUTLONG");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let f = fb.body(vec![
        if_then(
            eq(lv(field(deref_var(xdrs), X_KIND)), c(XDR_MEM)),
            vec![ret(Some(call(
                "xdrmem_putlong",
                vec![lv(var(xdrs)), lv(var(lp))],
            )))],
        ),
        ret(Some(c(0))),
    ]);
    p.add_func(f);
}

/// The `XDR_GETLONG` macro.
fn add_xdr_getlong_dispatch(p: &mut Program, xdr_sid: usize) {
    use xdr_fields::*;
    let mut fb = FunctionBuilder::new("XDR_GETLONG");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let f = fb.body(vec![
        if_then(
            eq(lv(field(deref_var(xdrs), X_KIND)), c(XDR_MEM)),
            vec![ret(Some(call(
                "xdrmem_getlong",
                vec![lv(var(xdrs)), lv(var(lp))],
            )))],
        ),
        ret(Some(c(0))),
    ]);
    p.add_func(f);
}

/// Figure 2: `xdr_long`.
fn add_xdr_long(p: &mut Program, xdr_sid: usize) {
    use xdr_fields::*;
    let mut fb = FunctionBuilder::new("xdr_long");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let f = fb.body(vec![
        if_then(
            eq(lv(field(deref_var(xdrs), X_OP)), c(XDR_ENCODE)),
            vec![ret(Some(call(
                "XDR_PUTLONG",
                vec![lv(var(xdrs)), lv(var(lp))],
            )))],
        ),
        if_then(
            eq(lv(field(deref_var(xdrs), X_OP)), c(XDR_DECODE)),
            vec![ret(Some(call(
                "XDR_GETLONG",
                vec![lv(var(xdrs)), lv(var(lp))],
            )))],
        ),
        if_then(
            eq(lv(field(deref_var(xdrs), X_OP)), c(XDR_FREE)),
            vec![ret(Some(c(1)))],
        ),
        ret(Some(c(0))),
    ]);
    p.add_func(f);
}

/// Forwarding wrapper by name (the Figure 1 "machine dependent switch on
/// integer size" layer collapses to a direct call on ILP32 targets).
fn add_forwarder(p: &mut Program, name: &str, target: &str, xdr_sid: usize) {
    let mut fb = FunctionBuilder::new(name);
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let lp = fb.param("lp", ptr(Type::Long));
    fb.returns(Type::Long);
    let f = fb.body(vec![ret(Some(call(
        target,
        vec![lv(var(xdrs)), lv(var(lp))],
    )))]);
    p.add_func(f);
}

fn add_xdr_int(p: &mut Program, xdr_sid: usize) {
    add_forwarder(p, "xdr_int", "xdr_long", xdr_sid);
}

fn add_xdr_u_long(p: &mut Program, xdr_sid: usize) {
    add_forwarder(p, "xdr_u_long", "xdr_long", xdr_sid);
}

fn add_xdr_u_int(p: &mut Program, xdr_sid: usize) {
    add_forwarder(p, "xdr_u_int", "xdr_u_long", xdr_sid);
}

/// `xdr_callmsg` for AUTH_NONE credentials: ten header words, each through
/// the full generic chain, status-checked in the Figure 4 style.
fn add_xdr_callmsg(p: &mut Program, xdr_sid: usize, call_sid: usize) {
    let mut fb = FunctionBuilder::new("xdr_callmsg");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let cmsg = fb.param("cmsg", ptr(Type::Struct(call_sid)));
    fb.returns(Type::Long);
    let mut body = Vec::new();
    for fid in 0..call_fields::COUNT {
        body.push(if_then(
            not(call(
                "xdr_u_long",
                vec![lv(var(xdrs)), addr_of(field(deref_var(cmsg), fid))],
            )),
            vec![ret(Some(c(0)))],
        ));
    }
    body.push(ret(Some(c(1))));
    p.add_func(fb.body(body));
}

/// Reads the six header words of an accepted reply into `rmsg`; validation
/// is performed by the caller (the generated stub), where the dynamic
/// tests belong.
fn add_xdr_replymsg_words(p: &mut Program, xdr_sid: usize, reply_sid: usize) {
    let mut fb = FunctionBuilder::new("xdr_replymsg_words");
    let xdrs = fb.param("xdrs", ptr(Type::Struct(xdr_sid)));
    let rmsg = fb.param("rmsg", ptr(Type::Struct(reply_sid)));
    fb.returns(Type::Long);
    let mut body = Vec::new();
    for fid in 0..reply_fields::COUNT {
        body.push(if_then(
            not(call(
                "xdr_u_long",
                vec![lv(var(xdrs)), addr_of(field(deref_var(rmsg), fid))],
            )),
            vec![ret(Some(c(0)))],
        ));
    }
    body.push(ret(Some(c(1))));
    p.add_func(fb.body(body));
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_tempo::eval::{Evaluator, Place, Value};

    fn setup_xdr(
        ev: &mut Evaluator<'_>,
        prog: &Program,
        ids: SunIds,
        op: i64,
        bufsize: usize,
    ) -> (usize, usize) {
        let buf = ev.heap.alloc_bytes(bufsize);
        let xdr = ev.heap.alloc_struct(prog, ids.xdr_sid);
        use xdr_fields::*;
        ev.heap
            .write_slot(
                Place {
                    obj: xdr,
                    slot: X_OP,
                },
                Value::Long(op),
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
                Value::Long(bufsize as i64),
            )
            .unwrap();
        ev.heap
            .write_slot(
                Place {
                    obj: xdr,
                    slot: X_BASE,
                },
                Value::BufPtr(buf, 0),
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
        (xdr, buf)
    }

    #[test]
    fn ir_xdr_long_matches_real_xdr_bytes() {
        let (prog, ids) = build();
        let mut ev = Evaluator::new(&prog);
        let (xdr, buf) = setup_xdr(&mut ev, &prog, ids, XDR_ENCODE, 16);
        // A heap cell holding the value to encode.
        let cell = ev.heap.alloc_array(&prog, specrpc_tempo::ir::Type::Long, 1);
        ev.heap
            .write_slot(Place { obj: cell, slot: 0 }, Value::Long(0x0102_0304))
            .unwrap();
        let r = ev
            .call(
                "xdr_long",
                vec![
                    Value::Ref(Place { obj: xdr, slot: 0 }),
                    Value::Ref(Place { obj: cell, slot: 0 }),
                ],
            )
            .unwrap();
        assert_eq!(r, Value::Long(1));

        // Reference bytes from the real Rust micro-layers.
        let mut real = specrpc_xdr::mem::XdrMem::encoder(16);
        let mut v = 0x0102_0304i32;
        specrpc_xdr::primitives::xdr_long(&mut real, &mut v).unwrap();
        assert_eq!(&ev.heap.bytes(buf).unwrap()[..4], real.bytes());
    }

    #[test]
    fn ir_decode_roundtrip() {
        let (prog, ids) = build();
        let mut ev = Evaluator::new(&prog);
        let (xdr, buf) = setup_xdr(&mut ev, &prog, ids, XDR_ENCODE, 16);
        let cell = ev.heap.alloc_array(&prog, specrpc_tempo::ir::Type::Long, 1);
        ev.heap
            .write_slot(Place { obj: cell, slot: 0 }, Value::Long(-77))
            .unwrap();
        ev.call(
            "xdr_long",
            vec![
                Value::Ref(Place { obj: xdr, slot: 0 }),
                Value::Ref(Place { obj: cell, slot: 0 }),
            ],
        )
        .unwrap();
        let wire = ev.heap.bytes(buf).unwrap().to_vec();

        // Fresh evaluator decodes it back.
        let mut ev2 = Evaluator::new(&prog);
        let buf2 = ev2.heap.alloc_bytes_from(wire);
        let xdr2 = ev2.heap.alloc_struct(&prog, ids.xdr_sid);
        use xdr_fields::*;
        ev2.heap
            .write_slot(
                Place {
                    obj: xdr2,
                    slot: X_OP,
                },
                Value::Long(XDR_DECODE),
            )
            .unwrap();
        ev2.heap
            .write_slot(
                Place {
                    obj: xdr2,
                    slot: X_KIND,
                },
                Value::Long(XDR_MEM),
            )
            .unwrap();
        ev2.heap
            .write_slot(
                Place {
                    obj: xdr2,
                    slot: X_HANDY,
                },
                Value::Long(16),
            )
            .unwrap();
        ev2.heap
            .write_slot(
                Place {
                    obj: xdr2,
                    slot: X_PRIVATE,
                },
                Value::BufPtr(buf2, 0),
            )
            .unwrap();
        let cell2 = ev2
            .heap
            .alloc_array(&prog, specrpc_tempo::ir::Type::Long, 1);
        let r = ev2
            .call(
                "xdr_long",
                vec![
                    Value::Ref(Place { obj: xdr2, slot: 0 }),
                    Value::Ref(Place {
                        obj: cell2,
                        slot: 0,
                    }),
                ],
            )
            .unwrap();
        assert_eq!(r, Value::Long(1));
        // Decoded value is sign-extended 32-bit; compare low 32 bits.
        let got = ev2
            .heap
            .read_slot(Place {
                obj: cell2,
                slot: 0,
            })
            .unwrap();
        match got {
            Value::Long(x) => assert_eq!(x as u32, (-77i32) as u32),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overflow_returns_false_in_ir() {
        let (prog, ids) = build();
        let mut ev = Evaluator::new(&prog);
        let (xdr, _) = setup_xdr(&mut ev, &prog, ids, XDR_ENCODE, 0);
        let cell = ev.heap.alloc_array(&prog, specrpc_tempo::ir::Type::Long, 1);
        let r = ev
            .call(
                "xdr_long",
                vec![
                    Value::Ref(Place { obj: xdr, slot: 0 }),
                    Value::Ref(Place { obj: cell, slot: 0 }),
                ],
            )
            .unwrap();
        assert_eq!(r, Value::Long(0), "overflow propagates FALSE");
    }

    #[test]
    fn free_mode_returns_true() {
        let (prog, ids) = build();
        let mut ev = Evaluator::new(&prog);
        let (xdr, _) = setup_xdr(&mut ev, &prog, ids, XDR_FREE, 4);
        let cell = ev.heap.alloc_array(&prog, specrpc_tempo::ir::Type::Long, 1);
        let r = ev
            .call(
                "xdr_long",
                vec![
                    Value::Ref(Place { obj: xdr, slot: 0 }),
                    Value::Ref(Place { obj: cell, slot: 0 }),
                ],
            )
            .unwrap();
        assert_eq!(r, Value::Long(1));
    }

    #[test]
    fn callmsg_encodes_ten_words() {
        let (prog, ids) = build();
        let mut ev = Evaluator::new(&prog);
        let (xdr, buf) = setup_xdr(&mut ev, &prog, ids, XDR_ENCODE, 64);
        let cmsg = ev.heap.alloc_struct(&prog, ids.call_sid);
        for (fid, val) in [
            (call_fields::XID, 0x42),
            (call_fields::RPCVERS, 2),
            (call_fields::PROG, 99),
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
        let r = ev
            .call(
                "xdr_callmsg",
                vec![
                    Value::Ref(Place { obj: xdr, slot: 0 }),
                    Value::Ref(Place { obj: cmsg, slot: 0 }),
                ],
            )
            .unwrap();
        assert_eq!(r, Value::Long(1));
        let bytes = ev.heap.bytes(buf).unwrap();
        assert_eq!(&bytes[..4], &[0, 0, 0, 0x42]);
        assert_eq!(&bytes[8..12], &[0, 0, 0, 2]);
        // All ten words written; cursor at 40.
        use xdr_fields::*;
        let cursor = ev
            .heap
            .read_slot(Place {
                obj: xdr,
                slot: X_PRIVATE,
            })
            .unwrap();
        assert_eq!(cursor, Value::BufPtr(buf, 40));
    }

    #[test]
    fn library_validates_and_prints() {
        let (prog, _) = build();
        let text: String = prog
            .funcs
            .iter()
            .map(|f| specrpc_tempo::ir::pretty::function_str(&prog, f))
            .collect();
        assert!(
            text.contains("long xdr_long(struct XDR* xdrs, long* lp)"),
            "{text}"
        );
        assert!(text.contains("xdrs->x_handy"), "{text}");
    }
}

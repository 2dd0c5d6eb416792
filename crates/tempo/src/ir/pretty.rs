//! C-like pretty-printer for the IR.
//!
//! Tempo's user interface displays analyzed programs so the user can
//! "follow the propagation of the inputs declared as known" (§6.1 of the
//! paper). The plain printer here renders IR as C-ish source; the
//! binding-time–colored variant lives in the `bta` module, which has the
//! annotations.

use super::{Expr, Function, LValue, Program, Stmt, Type};
use std::fmt::Write;

/// Render a type.
pub fn type_str(prog: &Program, t: &Type) -> String {
    match t {
        Type::Long => "long".into(),
        Type::Ptr(inner) => format!("{}*", type_str(prog, inner)),
        Type::Struct(sid) => format!("struct {}", prog.structs[*sid].name),
        Type::Array(inner, n) => format!("{}[{}]", type_str(prog, inner), n),
        Type::BufPtr => "char*".into(),
        Type::Void => "void".into(),
    }
}

/// Render an expression.
pub fn expr_str(prog: &Program, f: &Function, e: &Expr) -> String {
    match e {
        Expr::Const(v) => v.to_string(),
        Expr::Lv(lv) => lvalue_str(prog, f, lv),
        Expr::AddrOf(lv) => format!("&{}", lvalue_str(prog, f, lv)),
        Expr::Un(op, inner) => match op {
            super::UnOp::Htonl | super::UnOp::Ntohl => {
                format!("{}({})", op.symbol(), expr_str(prog, f, inner))
            }
            _ => format!("{}({})", op.symbol(), expr_str(prog, f, inner)),
        },
        Expr::Bin(op, a, b) => format!(
            "({} {} {})",
            expr_str(prog, f, a),
            op.symbol(),
            expr_str(prog, f, b)
        ),
        Expr::Call(name, args) => {
            let args: Vec<String> = args.iter().map(|a| expr_str(prog, f, a)).collect();
            format!("{}({})", name, args.join(", "))
        }
    }
}

/// Render an lvalue, folding `(*p).f` to `p->f` like a C programmer would.
pub fn lvalue_str(prog: &Program, f: &Function, lv: &LValue) -> String {
    match lv {
        LValue::Var(v) => f.var_name(*v).to_string(),
        LValue::Deref(e) => format!("*{}", expr_str(prog, f, e)),
        LValue::Field(inner, fid) => {
            let fname = field_name(prog, f, inner, *fid);
            match inner.as_ref() {
                LValue::Deref(e) => format!("{}->{}", expr_str(prog, f, e), fname),
                _ => format!("{}.{}", lvalue_str(prog, f, inner), fname),
            }
        }
        LValue::Index(inner, i) => {
            format!("{}[{}]", lvalue_str(prog, f, inner), expr_str(prog, f, i))
        }
        LValue::Buf32(e) => format!("*(long*)({})", expr_str(prog, f, e)),
    }
}

/// Best-effort resolution of a field name for display (falls back to the
/// numeric id when the base type cannot be inferred).
fn field_name(prog: &Program, f: &Function, base: &LValue, fid: usize) -> String {
    fn lvalue_type<'a>(prog: &'a Program, f: &'a Function, lv: &LValue) -> Option<Type> {
        match lv {
            LValue::Var(v) => Some(f.var_type(*v).clone()),
            LValue::Deref(e) => match expr_type(prog, f, e)? {
                Type::Ptr(inner) => Some(*inner),
                _ => None,
            },
            LValue::Field(inner, fid) => match lvalue_type(prog, f, inner)? {
                Type::Struct(sid) => Some(prog.structs[sid].fields.get(*fid)?.ty.clone()),
                _ => None,
            },
            LValue::Index(inner, _) => match lvalue_type(prog, f, inner)? {
                Type::Array(t, _) => Some(*t),
                _ => None,
            },
            LValue::Buf32(_) => Some(Type::Long),
        }
    }
    fn expr_type(prog: &Program, f: &Function, e: &Expr) -> Option<Type> {
        match e {
            Expr::Lv(lv) => lvalue_type(prog, f, lv),
            Expr::AddrOf(lv) => Some(Type::Ptr(Box::new(lvalue_type(prog, f, lv)?))),
            Expr::Bin(_, a, _) => expr_type(prog, f, a),
            _ => None,
        }
    }
    match lvalue_type(prog, f, base) {
        Some(Type::Struct(sid)) => prog.structs[sid]
            .fields
            .get(fid)
            .map(|fd| fd.name.clone())
            .unwrap_or_else(|| format!("f{fid}")),
        _ => format!("f{fid}"),
    }
}

fn stmt_into(prog: &Program, f: &Function, s: &Stmt, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Assign(lv, e) => {
            let _ = writeln!(
                out,
                "{pad}{} = {};",
                lvalue_str(prog, f, lv),
                expr_str(prog, f, e)
            );
        }
        Stmt::If(c, t, e) => {
            let _ = writeln!(out, "{pad}if ({}) {{", expr_str(prog, f, c));
            for s in t {
                stmt_into(prog, f, s, indent + 1, out);
            }
            if e.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in e {
                    stmt_into(prog, f, s, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::While(c, b) => {
            let _ = writeln!(out, "{pad}while ({}) {{", expr_str(prog, f, c));
            for s in b {
                stmt_into(prog, f, s, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::For { var, lo, hi, body } => {
            let v = f.var_name(*var);
            let _ = writeln!(
                out,
                "{pad}for ({v} = {}; {v} < {}; {v}++) {{",
                expr_str(prog, f, lo),
                expr_str(prog, f, hi)
            );
            for s in body {
                stmt_into(prog, f, s, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{pad}{};", expr_str(prog, f, e));
        }
        Stmt::Return(None) => {
            let _ = writeln!(out, "{pad}return;");
        }
        Stmt::Return(Some(e)) => {
            let _ = writeln!(out, "{pad}return {};", expr_str(prog, f, e));
        }
    }
}

/// Render a whole function as C-ish source.
pub fn function_str(prog: &Program, f: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(n, t)| format!("{} {}", type_str(prog, t), n))
        .collect();
    let _ = writeln!(
        out,
        "{} {}({}) {{",
        type_str(prog, &f.ret),
        f.name,
        params.join(", ")
    );
    for (n, t) in &f.locals {
        let _ = writeln!(out, "    {} {};", type_str(prog, t), n);
    }
    for s in &f.body {
        stmt_into(prog, f, s, 1, &mut out);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::super::builder::*;
    use super::super::{FieldDef, Function, Program, StructDef, Type};
    use super::*;

    fn prog_with_xdr() -> (Program, Function) {
        let mut p = Program::new();
        let sid = p.add_struct(StructDef {
            name: "XDR".into(),
            fields: vec![
                FieldDef {
                    name: "x_op".into(),
                    ty: Type::Long,
                },
                FieldDef {
                    name: "x_handy".into(),
                    ty: Type::Long,
                },
            ],
        });
        let mut fb = FunctionBuilder::new("probe");
        let xdrs = fb.param("xdrs", ptr(Type::Struct(sid)));
        fb.returns(Type::Long);
        let f = fb.body(vec![
            if_then(
                eq(lv(field(deref_var(xdrs), 0)), c(0)),
                vec![ret(Some(c(1)))],
            ),
            ret(Some(c(0))),
        ]);
        (p, f)
    }

    #[test]
    fn prints_arrow_for_pointer_field() {
        let (p, f) = prog_with_xdr();
        let s = function_str(&p, &f);
        assert!(s.contains("xdrs->x_op"), "{s}");
        assert!(s.contains("if ((xdrs->x_op == 0))"), "{s}");
    }

    #[test]
    fn prints_signature_and_return() {
        let (p, f) = prog_with_xdr();
        let s = function_str(&p, &f);
        assert!(s.starts_with("long probe(struct XDR* xdrs) {"), "{s}");
        assert!(s.contains("return 1;"));
    }

    #[test]
    fn prints_for_loop() {
        let mut fb = FunctionBuilder::new("loop");
        let i = fb.local("i", Type::Long);
        let f = fb.body(vec![for_loop(i, c(0), c(10), vec![])]);
        let p = Program::new();
        let s = function_str(&p, &f);
        assert!(s.contains("for (i = 0; i < 10; i++) {"), "{s}");
    }

    #[test]
    fn prints_buffer_store_and_htonl() {
        let mut fb = FunctionBuilder::new("w");
        let bp = fb.param("bp", Type::BufPtr);
        let v = fb.param("v", Type::Long);
        let f = fb.body(vec![assign(buf32(lv(var(bp))), htonl(lv(var(v))))]);
        let p = Program::new();
        let s = function_str(&p, &f);
        assert!(s.contains("*(long*)(bp) = htonl(v);"), "{s}");
    }
}

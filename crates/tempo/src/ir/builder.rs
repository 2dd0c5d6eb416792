//! Ergonomic constructors for building IR by hand.
//!
//! The Sun RPC micro-layer transliterations in `specrpc-rpcgen` are written
//! with these helpers; they keep the IR construction readable enough to be
//! checked side-by-side against the C originals in the paper's figures.

use super::{BinOp, Expr, FieldId, Function, LValue, Stmt, Type, UnOp, VarId};

/// Integer constant expression.
pub fn c(v: i64) -> Expr {
    Expr::Const(v)
}

/// Variable lvalue.
pub fn var(v: VarId) -> LValue {
    LValue::Var(v)
}

/// `*v` where `v` is a pointer-typed variable — the ubiquitous
/// `xdrs->…`/`*lp` base case.
pub fn deref_var(v: VarId) -> LValue {
    LValue::Deref(Box::new(Expr::Lv(Box::new(LValue::Var(v)))))
}

/// `lv.f`.
pub fn field(lv: LValue, f: FieldId) -> LValue {
    LValue::Field(Box::new(lv), f)
}

/// `lv[i]`.
pub fn index(lv: LValue, i: Expr) -> LValue {
    LValue::Index(Box::new(lv), Box::new(i))
}

/// `*(u32*)e` — 32-bit buffer access.
pub fn buf32(e: Expr) -> LValue {
    LValue::Buf32(Box::new(e))
}

/// Read an lvalue.
pub fn lv(l: LValue) -> Expr {
    Expr::Lv(Box::new(l))
}

/// `&lv`.
pub fn addr_of(l: LValue) -> Expr {
    Expr::AddrOf(Box::new(l))
}

/// Function call expression.
pub fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call(name.to_string(), args)
}

/// `a + b`.
pub fn add(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
}

/// `a - b`.
pub fn sub(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
}

/// `a * b`.
#[cfg(test)]
pub(crate) fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
}

/// `a == b`.
pub fn eq(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Eq, Box::new(a), Box::new(b))
}

/// `a != b`.
pub fn ne(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Ne, Box::new(a), Box::new(b))
}

/// `a < b`.
pub fn lt(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Lt, Box::new(a), Box::new(b))
}

/// `a >= b`.
#[cfg(test)]
pub(crate) fn ge(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Ge, Box::new(a), Box::new(b))
}

/// `!a`.
pub fn not(a: Expr) -> Expr {
    Expr::Un(UnOp::Not, Box::new(a))
}

/// `htonl(a)`.
pub fn htonl(a: Expr) -> Expr {
    Expr::Un(UnOp::Htonl, Box::new(a))
}

/// `ntohl(a)`.
pub fn ntohl(a: Expr) -> Expr {
    Expr::Un(UnOp::Ntohl, Box::new(a))
}

/// `lv = e;`
pub fn assign(l: LValue, e: Expr) -> Stmt {
    Stmt::Assign(l, e)
}

/// `if (cond) { then }`.
pub fn if_then(cond: Expr, then: Vec<Stmt>) -> Stmt {
    Stmt::If(cond, then, Vec::new())
}

/// `if (cond) { then } else { els }`.
pub fn if_else(cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>) -> Stmt {
    Stmt::If(cond, then, els)
}

/// Counted loop `for (var = lo; var < hi; var++)`.
pub fn for_loop(var: VarId, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For { var, lo, hi, body }
}

/// `return;` / `return e;`
pub fn ret(e: Option<Expr>) -> Stmt {
    Stmt::Return(e)
}

/// Call-for-effect statement.
#[cfg(test)]
pub(crate) fn expr_stmt(e: Expr) -> Stmt {
    Stmt::Expr(e)
}

/// Shorthand for a pointer type.
pub fn ptr(t: Type) -> Type {
    Type::Ptr(Box::new(t))
}

/// A small builder for [`Function`] that allocates variable ids and keeps
/// names readable.
#[derive(Debug, Default)]
pub struct FunctionBuilder {
    name: String,
    params: Vec<(String, Type)>,
    locals: Vec<(String, Type)>,
    ret: Option<Type>,
}

impl FunctionBuilder {
    /// Start a function named `name`.
    pub fn new(name: &str) -> Self {
        FunctionBuilder {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Declare a parameter; returns its [`VarId`].
    pub fn param(&mut self, name: &str, ty: Type) -> VarId {
        assert!(self.locals.is_empty(), "declare params before locals");
        self.params.push((name.to_string(), ty));
        self.params.len() - 1
    }

    /// Declare a local; returns its [`VarId`].
    pub fn local(&mut self, name: &str, ty: Type) -> VarId {
        self.locals.push((name.to_string(), ty));
        self.params.len() + self.locals.len() - 1
    }

    /// Set the return type (defaults to `Void`).
    pub fn returns(&mut self, ty: Type) -> &mut Self {
        self.ret = Some(ty);
        self
    }

    /// Finish with the given body.
    pub fn body(self, body: Vec<Stmt>) -> Function {
        Function {
            name: self.name,
            params: self.params,
            locals: self.locals,
            ret: self.ret.unwrap_or(Type::Void),
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_sequential_ids() {
        let mut fb = FunctionBuilder::new("f");
        let a = fb.param("a", Type::Long);
        let b = fb.param("b", Type::Long);
        let t = fb.local("t", Type::Long);
        assert_eq!((a, b, t), (0, 1, 2));
        let f = fb.body(vec![ret(Some(lv(var(t))))]);
        assert_eq!(f.var_name(2), "t");
        assert_eq!(f.ret, Type::Void);
    }

    #[test]
    fn builder_return_type() {
        let mut fb = FunctionBuilder::new("g");
        fb.returns(Type::Long);
        let f = fb.body(vec![]);
        assert_eq!(f.ret, Type::Long);
    }

    #[test]
    #[should_panic(expected = "params before locals")]
    fn params_after_locals_panics() {
        let mut fb = FunctionBuilder::new("h");
        fb.local("x", Type::Long);
        fb.param("p", Type::Long);
    }

    #[test]
    fn helper_shapes() {
        // xdrs->x_handy -= 4  ==  xdrs->x_handy = xdrs->x_handy - 4
        let s = assign(
            field(deref_var(0), 1),
            sub(lv(field(deref_var(0), 1)), c(4)),
        );
        match s {
            Stmt::Assign(LValue::Field(_, 1), Expr::Bin(BinOp::Sub, _, _)) => {}
            other => panic!("unexpected shape {other:?}"),
        }
    }
}

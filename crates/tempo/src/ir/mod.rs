//! The C-like intermediate representation the specializer works on.
//!
//! Tempo specializes C source; our analog specializes this IR, which is
//! expressive enough to write the Sun RPC micro-layers in their original
//! shape (see `specrpc-rpcgen`'s `sunlib` module for the faithful
//! transliteration of Figures 2–4 of the paper): structs with scalar,
//! pointer and inline-array fields; pointers to slots and into byte
//! buffers; three-way dispatch on operation tags; per-item buffer-overflow
//! accounting; counted loops; and boolean status propagation in the C style
//! (`TRUE`/`FALSE` as integers).

pub mod builder;
pub mod pretty;

use std::collections::HashMap;
use std::fmt;

/// Index of a struct definition within a [`Program`].
pub type StructId = usize;
/// Index of a variable within a [`Function`] frame
/// (parameters first, then locals).
pub type VarId = usize;
/// Index of a field within a struct definition.
pub type FieldId = usize;

/// Types of IR values and slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// The universal scalar (C `long`; also used for ints, bools, enums).
    Long,
    /// Pointer to a value of the inner type.
    Ptr(Box<Type>),
    /// A struct by id.
    Struct(StructId),
    /// Inline fixed-size array.
    Array(Box<Type>, usize),
    /// Pointer into a byte buffer (the `x_private` cursor).
    BufPtr,
    /// No value.
    Void,
}

impl Type {
    /// Number of flat slots this type occupies inside an object.
    pub fn flat_size(&self, prog: &Program) -> usize {
        match self {
            Type::Long | Type::Ptr(_) | Type::BufPtr => 1,
            Type::Array(t, n) => t.flat_size(prog) * n,
            Type::Struct(sid) => prog.structs[*sid].flat_size(prog),
            Type::Void => 0,
        }
    }
}

/// One field of a struct definition.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name (for pretty-printing and layout debugging).
    pub name: String,
    /// Field type.
    pub ty: Type,
}

/// A struct definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<FieldDef>,
}

impl StructDef {
    /// Total number of flat slots.
    pub fn flat_size(&self, prog: &Program) -> usize {
        self.fields.iter().map(|f| f.ty.flat_size(prog)).sum()
    }

    /// Flat slot offset of field `fid`.
    pub fn field_offset(&self, prog: &Program, fid: FieldId) -> usize {
        self.fields[..fid]
            .iter()
            .map(|f| f.ty.flat_size(prog))
            .sum()
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    BitAnd,
    BitOr,
    Shl,
    Shr,
}

impl BinOp {
    /// C-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// Unary operators. `Htonl`/`Ntohl` are the byte-order micro-layer of
/// Figure 1, kept as explicit IR operators so they survive specialization
/// (the data they transform is dynamic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (C `!`).
    Not,
    /// Host-to-network 32-bit byte order conversion.
    Htonl,
    /// Network-to-host 32-bit byte order conversion.
    Ntohl,
}

impl UnOp {
    /// C-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::Htonl => "htonl",
            UnOp::Ntohl => "ntohl",
        }
    }
}

/// Assignable locations.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A local variable or parameter.
    Var(VarId),
    /// `*e` where `e` evaluates to a pointer.
    Deref(Box<Expr>),
    /// `lv.f` — field of a struct lvalue.
    Field(Box<LValue>, FieldId),
    /// `lv[e]` — element of an inline array lvalue.
    Index(Box<LValue>, Box<Expr>),
    /// `*(u32*)e` — a 32-bit access into a byte buffer, where `e`
    /// evaluates to a [buffer pointer](Type::BufPtr). Stores write the raw
    /// 32-bit value in host order (byte-order conversion is explicit via
    /// [`UnOp::Htonl`], as in the original C).
    Buf32(Box<Expr>),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Read an lvalue.
    Lv(Box<LValue>),
    /// `&lv`.
    AddrOf(Box<LValue>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation (short-circuit for `&&`/`||`).
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Call a function by name.
    Call(String, Vec<Expr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lv = e;`
    Assign(LValue, Expr),
    /// `if (e) { .. } else { .. }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (e) { .. }`
    While(Expr, Vec<Stmt>),
    /// `for (v = lo; v < hi; v++) { .. }` — the canonical counted loop the
    /// specializer knows how to unroll.
    For {
        /// Loop variable (must be a declared local).
        var: VarId,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Evaluate an expression for effect (a call).
    Expr(Expr),
    /// `return;` / `return e;`
    Return(Option<Expr>),
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name (unique within a program).
    pub name: String,
    /// Parameters: `(name, type)`. Parameter `i` is variable id `i`.
    pub params: Vec<(String, Type)>,
    /// Locals: `(name, type)`. Local `j` is variable id `params.len() + j`.
    pub locals: Vec<(String, Type)>,
    /// Return type.
    pub ret: Type,
    /// Body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// Total number of variables (parameters + locals).
    pub fn var_count(&self) -> usize {
        self.params.len() + self.locals.len()
    }

    /// Name of variable `v`.
    pub fn var_name(&self, v: VarId) -> &str {
        if v < self.params.len() {
            &self.params[v].0
        } else {
            &self.locals[v - self.params.len()].0
        }
    }

    /// Type of variable `v`.
    pub fn var_type(&self, v: VarId) -> &Type {
        if v < self.params.len() {
            &self.params[v].1
        } else {
            &self.locals[v - self.params.len()].1
        }
    }

    /// Count of statements, recursively (used by the code-size model).
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If(_, t, e) => 1 + count(t) + count(e),
                    Stmt::While(_, b) => 1 + count(b),
                    Stmt::For { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

/// A whole IR program: struct definitions plus functions.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Struct definitions; [`Type::Struct`] indexes into this.
    pub structs: Vec<StructDef>,
    /// Function definitions.
    pub funcs: Vec<Function>,
    name_index: HashMap<String, usize>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Add a struct definition, returning its id.
    pub fn add_struct(&mut self, def: StructDef) -> StructId {
        self.structs.push(def);
        self.structs.len() - 1
    }

    /// Add a function, returning its index. Panics on duplicate names.
    pub fn add_func(&mut self, f: Function) -> usize {
        assert!(
            !self.name_index.contains_key(&f.name),
            "duplicate function {}",
            f.name
        );
        self.name_index.insert(f.name.clone(), self.funcs.len());
        self.funcs.push(f);
        self.funcs.len() - 1
    }

    /// Look up a function by name.
    pub fn func(&self, name: &str) -> Option<&Function> {
        self.name_index.get(name).map(|&i| &self.funcs[i])
    }

    /// Look up a struct by name.
    #[cfg(test)]
    pub(crate) fn struct_named(&self, name: &str) -> Option<StructId> {
        self.structs.iter().position(|s| s.name == name)
    }

    /// Total statement count across all functions.
    pub fn stmt_count(&self) -> usize {
        self.funcs.iter().map(Function::stmt_count).sum()
    }
}

/// Validation errors reported by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A call names a function the program does not define.
    UnknownFunction(String),
    /// A variable id exceeds the function frame.
    BadVar {
        /// Offending function.
        func: String,
        /// Offending variable id.
        var: VarId,
    },
    /// A struct id exceeds the definitions table.
    BadStruct(StructId),
    /// A call passes the wrong number of arguments.
    BadArity {
        /// Called function.
        func: String,
        /// Arguments supplied.
        got: usize,
        /// Parameters declared.
        want: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownFunction(n) => write!(f, "call to unknown function `{n}`"),
            IrError::BadVar { func, var } => {
                write!(f, "function `{func}` uses undeclared var {var}")
            }
            IrError::BadStruct(s) => write!(f, "reference to unknown struct id {s}"),
            IrError::BadArity { func, got, want } => {
                write!(f, "call to `{func}` with {got} args, expected {want}")
            }
        }
    }
}

impl std::error::Error for IrError {}

impl Program {
    /// Check structural well-formedness: every call resolves with the right
    /// arity, every variable and struct reference is in range.
    pub fn validate(&self) -> Result<(), IrError> {
        for st in &self.structs {
            for fd in &st.fields {
                self.validate_type(&fd.ty)?;
            }
        }
        for f in &self.funcs {
            for (_, t) in f.params.iter().chain(f.locals.iter()) {
                self.validate_type(t)?;
            }
            self.validate_block(f, &f.body)?;
        }
        Ok(())
    }

    fn validate_type(&self, t: &Type) -> Result<(), IrError> {
        match t {
            Type::Struct(sid) => {
                if *sid >= self.structs.len() {
                    return Err(IrError::BadStruct(*sid));
                }
                Ok(())
            }
            Type::Ptr(inner) | Type::Array(inner, _) => self.validate_type(inner),
            _ => Ok(()),
        }
    }

    fn validate_block(&self, f: &Function, stmts: &[Stmt]) -> Result<(), IrError> {
        for s in stmts {
            match s {
                Stmt::Assign(lv, e) => {
                    self.validate_lvalue(f, lv)?;
                    self.validate_expr(f, e)?;
                }
                Stmt::If(c, t, e) => {
                    self.validate_expr(f, c)?;
                    self.validate_block(f, t)?;
                    self.validate_block(f, e)?;
                }
                Stmt::While(c, b) => {
                    self.validate_expr(f, c)?;
                    self.validate_block(f, b)?;
                }
                Stmt::For { var, lo, hi, body } => {
                    self.validate_var(f, *var)?;
                    self.validate_expr(f, lo)?;
                    self.validate_expr(f, hi)?;
                    self.validate_block(f, body)?;
                }
                Stmt::Expr(e) => self.validate_expr(f, e)?,
                Stmt::Return(e) => {
                    if let Some(e) = e {
                        self.validate_expr(f, e)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_var(&self, f: &Function, v: VarId) -> Result<(), IrError> {
        if v >= f.var_count() {
            return Err(IrError::BadVar {
                func: f.name.clone(),
                var: v,
            });
        }
        Ok(())
    }

    fn validate_lvalue(&self, f: &Function, lv: &LValue) -> Result<(), IrError> {
        match lv {
            LValue::Var(v) => self.validate_var(f, *v),
            LValue::Deref(e) | LValue::Buf32(e) => self.validate_expr(f, e),
            LValue::Field(inner, _) => self.validate_lvalue(f, inner),
            LValue::Index(inner, e) => {
                self.validate_lvalue(f, inner)?;
                self.validate_expr(f, e)
            }
        }
    }

    fn validate_expr(&self, f: &Function, e: &Expr) -> Result<(), IrError> {
        match e {
            Expr::Const(_) => Ok(()),
            Expr::Lv(lv) | Expr::AddrOf(lv) => self.validate_lvalue(f, lv),
            Expr::Un(_, e) => self.validate_expr(f, e),
            Expr::Bin(_, a, b) => {
                self.validate_expr(f, a)?;
                self.validate_expr(f, b)
            }
            Expr::Call(name, args) => {
                let callee = self
                    .func(name)
                    .ok_or_else(|| IrError::UnknownFunction(name.clone()))?;
                if callee.params.len() != args.len() {
                    return Err(IrError::BadArity {
                        func: name.clone(),
                        got: args.len(),
                        want: callee.params.len(),
                    });
                }
                for a in args {
                    self.validate_expr(f, a)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::builder::*;
    use super::*;

    fn tiny_program() -> Program {
        let mut p = Program::new();
        let sid = p.add_struct(StructDef {
            name: "pair".into(),
            fields: vec![
                FieldDef {
                    name: "a".into(),
                    ty: Type::Long,
                },
                FieldDef {
                    name: "b".into(),
                    ty: Type::Long,
                },
                FieldDef {
                    name: "arr".into(),
                    ty: Type::Array(Box::new(Type::Long), 4),
                },
            ],
        });
        let f = Function {
            name: "sum".into(),
            params: vec![("p".into(), Type::Ptr(Box::new(Type::Struct(sid))))],
            locals: vec![("acc".into(), Type::Long), ("i".into(), Type::Long)],
            ret: Type::Long,
            body: vec![
                assign(var(1), c(0)),
                for_loop(
                    2,
                    c(0),
                    c(4),
                    vec![assign(
                        var(1),
                        add(lv(var(1)), lv(index(field(deref_var(0), 2), lv(var(2))))),
                    )],
                ),
                ret(Some(add(
                    lv(var(1)),
                    add(lv(field(deref_var(0), 0)), lv(field(deref_var(0), 1))),
                ))),
            ],
        };
        p.add_func(f);
        p
    }

    #[test]
    fn layout_flat_sizes() {
        let p = tiny_program();
        assert_eq!(p.structs[0].flat_size(&p), 6);
        assert_eq!(p.structs[0].field_offset(&p, 0), 0);
        assert_eq!(p.structs[0].field_offset(&p, 1), 1);
        assert_eq!(p.structs[0].field_offset(&p, 2), 2);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let p = tiny_program();
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_unknown_function() {
        let mut p = tiny_program();
        let f = Function {
            name: "bad".into(),
            params: vec![],
            locals: vec![],
            ret: Type::Void,
            body: vec![Stmt::Expr(call("nosuch", vec![]))],
        };
        p.add_func(f);
        assert_eq!(
            p.validate().unwrap_err(),
            IrError::UnknownFunction("nosuch".into())
        );
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut p = tiny_program();
        let f = Function {
            name: "bad".into(),
            params: vec![],
            locals: vec![],
            ret: Type::Void,
            body: vec![Stmt::Expr(call("sum", vec![]))],
        };
        p.add_func(f);
        assert!(matches!(
            p.validate().unwrap_err(),
            IrError::BadArity {
                got: 0,
                want: 1,
                ..
            }
        ));
    }

    #[test]
    fn validate_rejects_undeclared_var() {
        let mut p = tiny_program();
        let f = Function {
            name: "bad".into(),
            params: vec![],
            locals: vec![],
            ret: Type::Void,
            body: vec![assign(var(3), c(1))],
        };
        p.add_func(f);
        assert!(matches!(
            p.validate().unwrap_err(),
            IrError::BadVar { var: 3, .. }
        ));
    }

    #[test]
    fn stmt_count_is_recursive() {
        let p = tiny_program();
        // assign + for + inner assign + return = 4
        assert_eq!(p.func("sum").unwrap().stmt_count(), 4);
    }

    #[test]
    fn var_names_and_types() {
        let p = tiny_program();
        let f = p.func("sum").unwrap();
        assert_eq!(f.var_name(0), "p");
        assert_eq!(f.var_name(1), "acc");
        assert_eq!(f.var_type(2), &Type::Long);
        assert_eq!(f.var_count(), 3);
    }
}

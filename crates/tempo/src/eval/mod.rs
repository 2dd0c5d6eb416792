//! Concrete interpreter for the IR.
//!
//! The reproduction's **correctness oracle**: the specializer must satisfy
//! `run(specialize(p, static_inputs), dynamic_inputs) == run(p, all_inputs)`;
//! integration tests check this by comparing heap/buffer states.

use crate::ir::{BinOp, Expr, Function, LValue, Program, Stmt, Type, UnOp, VarId};
use std::fmt;

/// Identifier of a heap object.
pub type ObjId = usize;

/// A location inside a heap object: `slot` indexes the flattened aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Place {
    /// The object.
    pub obj: ObjId,
    /// Flat slot index within the object.
    pub slot: usize,
}

/// Run-time values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// The universal scalar.
    Long(i64),
    /// Pointer to an object slot.
    Ref(Place),
    /// Pointer into a byte-buffer object.
    BufPtr(ObjId, usize),
    /// Absence of a value (`void` returns).
    Unit,
}

impl Value {
    /// Extract a scalar, or fail.
    pub fn as_long(&self) -> Result<i64, EvalError> {
        match self {
            Value::Long(v) => Ok(*v),
            other => Err(EvalError::TypeMismatch {
                wanted: "long",
                got: other.kind(),
            }),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Long(_) => "long",
            Value::Ref(_) => "pointer",
            Value::BufPtr(..) => "buffer pointer",
            Value::Unit => "void",
        }
    }

    /// C truthiness: any nonzero scalar is true; pointers are true.
    pub fn truthy(&self) -> Result<bool, EvalError> {
        match self {
            Value::Long(v) => Ok(*v != 0),
            Value::Ref(_) | Value::BufPtr(..) => Ok(true),
            Value::Unit => Err(EvalError::TypeMismatch {
                wanted: "scalar",
                got: "void",
            }),
        }
    }
}

/// Payload of a heap object.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectData {
    /// A flattened aggregate (struct or array) of value slots.
    Slots(Vec<Value>),
    /// A raw byte buffer (the XDR wire buffer).
    Bytes(Vec<u8>),
}

/// A heap object with its IR type (needed to navigate field offsets).
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// The object's aggregate type (`Struct`, `Array`, or `Void` for
    /// byte buffers).
    pub ty: Type,
    /// The payload.
    pub data: ObjectData,
}

/// The interpreter heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Heap {
    objects: Vec<Object>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Allocate a zeroed struct object.
    pub fn alloc_struct(&mut self, prog: &Program, sid: usize) -> ObjId {
        let size = prog.structs[sid].flat_size(prog);
        self.objects.push(Object {
            ty: Type::Struct(sid),
            data: ObjectData::Slots(vec![Value::Long(0); size]),
        });
        self.objects.len() - 1
    }

    /// Allocate a zeroed array object of `n` elements of type `elem`.
    pub fn alloc_array(&mut self, prog: &Program, elem: Type, n: usize) -> ObjId {
        let size = elem.flat_size(prog) * n;
        self.objects.push(Object {
            ty: Type::Array(Box::new(elem), n),
            data: ObjectData::Slots(vec![Value::Long(0); size]),
        });
        self.objects.len() - 1
    }

    /// Allocate a byte buffer of `len` zero bytes.
    pub fn alloc_bytes(&mut self, len: usize) -> ObjId {
        self.objects.push(Object {
            ty: Type::Void,
            data: ObjectData::Bytes(vec![0u8; len]),
        });
        self.objects.len() - 1
    }

    /// Allocate a byte buffer with the given contents.
    pub fn alloc_bytes_from(&mut self, data: Vec<u8>) -> ObjId {
        self.objects.push(Object {
            ty: Type::Void,
            data: ObjectData::Bytes(data),
        });
        self.objects.len() - 1
    }

    /// Access an object.
    pub fn object(&self, id: ObjId) -> &Object {
        &self.objects[id]
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Read a value slot.
    pub fn read_slot(&self, p: Place) -> Result<Value, EvalError> {
        match &self.objects.get(p.obj).ok_or(EvalError::DanglingRef)?.data {
            ObjectData::Slots(slots) => slots.get(p.slot).copied().ok_or(EvalError::OutOfBounds {
                index: p.slot,
                len: slots.len(),
            }),
            ObjectData::Bytes(_) => Err(EvalError::TypeMismatch {
                wanted: "slots",
                got: "bytes",
            }),
        }
    }

    /// Write a value slot.
    pub fn write_slot(&mut self, p: Place, v: Value) -> Result<(), EvalError> {
        match &mut self
            .objects
            .get_mut(p.obj)
            .ok_or(EvalError::DanglingRef)?
            .data
        {
            ObjectData::Slots(slots) => {
                let len = slots.len();
                *slots
                    .get_mut(p.slot)
                    .ok_or(EvalError::OutOfBounds { index: p.slot, len })? = v;
                Ok(())
            }
            ObjectData::Bytes(_) => Err(EvalError::TypeMismatch {
                wanted: "slots",
                got: "bytes",
            }),
        }
    }

    /// Read a 32-bit little-endian word from a byte buffer (host order on
    /// the modeled little-endian machine; see [`UnOp::Htonl`] handling).
    pub fn buf_load32(&self, obj: ObjId, off: usize) -> Result<u32, EvalError> {
        match &self.objects.get(obj).ok_or(EvalError::DanglingRef)?.data {
            ObjectData::Bytes(b) => {
                if off + 4 > b.len() {
                    return Err(EvalError::OutOfBounds {
                        index: off + 4,
                        len: b.len(),
                    });
                }
                let mut w = [0u8; 4];
                w.copy_from_slice(&b[off..off + 4]);
                Ok(u32::from_le_bytes(w))
            }
            ObjectData::Slots(_) => Err(EvalError::TypeMismatch {
                wanted: "bytes",
                got: "slots",
            }),
        }
    }

    /// Write a 32-bit little-endian word into a byte buffer.
    pub fn buf_store32(&mut self, obj: ObjId, off: usize, v: u32) -> Result<(), EvalError> {
        match &mut self
            .objects
            .get_mut(obj)
            .ok_or(EvalError::DanglingRef)?
            .data
        {
            ObjectData::Bytes(b) => {
                if off + 4 > b.len() {
                    return Err(EvalError::OutOfBounds {
                        index: off + 4,
                        len: b.len(),
                    });
                }
                b[off..off + 4].copy_from_slice(&v.to_le_bytes());
                Ok(())
            }
            ObjectData::Slots(_) => Err(EvalError::TypeMismatch {
                wanted: "bytes",
                got: "slots",
            }),
        }
    }

    /// Borrow a byte buffer's contents.
    pub fn bytes(&self, obj: ObjId) -> Result<&[u8], EvalError> {
        match &self.objects.get(obj).ok_or(EvalError::DanglingRef)?.data {
            ObjectData::Bytes(b) => Ok(b),
            ObjectData::Slots(_) => Err(EvalError::TypeMismatch {
                wanted: "bytes",
                got: "slots",
            }),
        }
    }
}

/// Interpreter failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Call to a function the program does not define.
    UnknownFunction(String),
    /// A value had the wrong shape for the operation.
    TypeMismatch {
        /// What the operation needed.
        wanted: &'static str,
        /// What it got.
        got: &'static str,
    },
    /// Array or buffer access out of range.
    OutOfBounds {
        /// Requested index/offset.
        index: usize,
        /// Available length.
        len: usize,
    },
    /// Reference to a nonexistent object.
    DanglingRef,
    /// Integer division by zero.
    DivByZero,
    /// The step budget was exhausted (runaway loop or recursion).
    OutOfFuel,
    /// A `void` function's value was used.
    NoValue,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EvalError::TypeMismatch { wanted, got } => {
                write!(f, "type mismatch: wanted {wanted}, got {got}")
            }
            EvalError::OutOfBounds { index, len } => {
                write!(f, "access at {index} out of bounds (len {len})")
            }
            EvalError::DanglingRef => write!(f, "dangling object reference"),
            EvalError::DivByZero => write!(f, "division by zero"),
            EvalError::OutOfFuel => write!(f, "evaluation fuel exhausted"),
            EvalError::NoValue => write!(f, "void value used"),
        }
    }
}

impl std::error::Error for EvalError {}

enum Flow {
    Normal,
    Return(Value),
}

/// The interpreter.
pub struct Evaluator<'p> {
    prog: &'p Program,
    /// The heap; public so harnesses can set up inputs and inspect results.
    pub heap: Heap,
    fuel: u64,
    steps: u64,
}

impl<'p> Evaluator<'p> {
    /// Interpreter over `prog` with a fresh heap and default fuel.
    pub fn new(prog: &'p Program) -> Self {
        Evaluator {
            prog,
            heap: Heap::new(),
            fuel: 100_000_000,
            steps: 0,
        }
    }

    /// Lower the step budget (tests for non-termination).
    #[cfg(test)]
    pub(crate) fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Statements + expression nodes evaluated so far — the "interpretive
    /// work" metric for the table-driven baseline.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    fn burn(&mut self) -> Result<(), EvalError> {
        self.steps += 1;
        if self.steps > self.fuel {
            return Err(EvalError::OutOfFuel);
        }
        Ok(())
    }

    /// Call function `name` with the given argument values.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let func = self
            .prog
            .func(name)
            .ok_or_else(|| EvalError::UnknownFunction(name.to_string()))?;
        assert_eq!(
            args.len(),
            func.params.len(),
            "arity mismatch calling {name}"
        );
        let mut frame = vec![Value::Long(0); func.var_count()];
        frame[..args.len()].copy_from_slice(&args);
        match self.exec_block(func, &mut frame, &func.body)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Unit),
        }
    }

    fn exec_block(
        &mut self,
        func: &Function,
        frame: &mut Vec<Value>,
        stmts: &[Stmt],
    ) -> Result<Flow, EvalError> {
        for s in stmts {
            if let Flow::Return(v) = self.exec_stmt(func, frame, s)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        func: &Function,
        frame: &mut Vec<Value>,
        s: &Stmt,
    ) -> Result<Flow, EvalError> {
        self.burn()?;
        match s {
            Stmt::Assign(lv, e) => {
                let v = self.eval_expr(func, frame, e)?;
                self.write_lvalue(func, frame, lv, v)?;
                Ok(Flow::Normal)
            }
            Stmt::If(c, t, e) => {
                let cond = self.eval_expr(func, frame, c)?.truthy()?;
                if cond {
                    self.exec_block(func, frame, t)
                } else {
                    self.exec_block(func, frame, e)
                }
            }
            Stmt::While(c, b) => {
                while self.eval_expr(func, frame, c)?.truthy()? {
                    self.burn()?;
                    if let Flow::Return(v) = self.exec_block(func, frame, b)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.eval_expr(func, frame, lo)?.as_long()?;
                let hi = self.eval_expr(func, frame, hi)?.as_long()?;
                frame[*var] = Value::Long(lo);
                loop {
                    let i = frame[*var].as_long()?;
                    if i >= hi {
                        break;
                    }
                    self.burn()?;
                    if let Flow::Return(v) = self.exec_block(func, frame, body)? {
                        return Ok(Flow::Return(v));
                    }
                    let i = frame[*var].as_long()?;
                    frame[*var] = Value::Long(i + 1);
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval_expr(func, frame, e)?;
                Ok(Flow::Normal)
            }
            Stmt::Return(None) => Ok(Flow::Return(Value::Unit)),
            Stmt::Return(Some(e)) => {
                let v = self.eval_expr(func, frame, e)?;
                Ok(Flow::Return(v))
            }
        }
    }

    /// Resolve an lvalue to a typed location.
    fn resolve_lvalue(
        &mut self,
        func: &Function,
        frame: &mut Vec<Value>,
        lv: &LValue,
    ) -> Result<(Loc, Type), EvalError> {
        match lv {
            LValue::Var(v) => Ok((Loc::Var(*v), func.var_type(*v).clone())),
            LValue::Deref(e) => {
                let p = self.eval_expr(func, frame, e)?;
                let ty = self.static_expr_type(func, e);
                match p {
                    Value::Ref(place) => {
                        let inner = match ty {
                            Some(Type::Ptr(inner)) => *inner,
                            _ => Type::Long,
                        };
                        Ok((Loc::Slot(place), inner))
                    }
                    other => Err(EvalError::TypeMismatch {
                        wanted: "pointer",
                        got: other.kind(),
                    }),
                }
            }
            LValue::Field(inner, fid) => {
                let (loc, ty) = self.resolve_lvalue(func, frame, inner)?;
                let sid = match ty {
                    Type::Struct(sid) => sid,
                    _ => {
                        return Err(EvalError::TypeMismatch {
                            wanted: "struct",
                            got: "other",
                        })
                    }
                };
                let off = self.prog.structs[sid].field_offset(self.prog, *fid);
                let fty = self.prog.structs[sid].fields[*fid].ty.clone();
                match loc {
                    Loc::Slot(p) => Ok((
                        Loc::Slot(Place {
                            obj: p.obj,
                            slot: p.slot + off,
                        }),
                        fty,
                    )),
                    _ => Err(EvalError::TypeMismatch {
                        wanted: "aggregate location",
                        got: "scalar",
                    }),
                }
            }
            LValue::Index(inner, idx) => {
                let (loc, ty) = self.resolve_lvalue(func, frame, inner)?;
                let (elem, n) = match ty {
                    Type::Array(elem, n) => (*elem, n),
                    _ => {
                        return Err(EvalError::TypeMismatch {
                            wanted: "array",
                            got: "other",
                        })
                    }
                };
                let i = self.eval_expr(func, frame, idx)?.as_long()?;
                if i < 0 || i as usize >= n {
                    return Err(EvalError::OutOfBounds {
                        index: i.max(0) as usize,
                        len: n,
                    });
                }
                let esz = elem.flat_size(self.prog);
                match loc {
                    Loc::Slot(p) => Ok((
                        Loc::Slot(Place {
                            obj: p.obj,
                            slot: p.slot + i as usize * esz,
                        }),
                        elem,
                    )),
                    _ => Err(EvalError::TypeMismatch {
                        wanted: "aggregate location",
                        got: "scalar",
                    }),
                }
            }
            LValue::Buf32(e) => {
                let p = self.eval_expr(func, frame, e)?;
                match p {
                    Value::BufPtr(obj, off) => Ok((Loc::Buf(obj, off), Type::Long)),
                    other => Err(EvalError::TypeMismatch {
                        wanted: "buffer pointer",
                        got: other.kind(),
                    }),
                }
            }
        }
    }

    /// Best-effort static type of an expression (used only to type `Deref`).
    fn static_expr_type(&self, func: &Function, e: &Expr) -> Option<Type> {
        match e {
            Expr::Lv(lv) => self.static_lvalue_type(func, lv),
            Expr::AddrOf(lv) => Some(Type::Ptr(Box::new(self.static_lvalue_type(func, lv)?))),
            Expr::Bin(BinOp::Add | BinOp::Sub, a, _) => self.static_expr_type(func, a),
            _ => None,
        }
    }

    fn static_lvalue_type(&self, func: &Function, lv: &LValue) -> Option<Type> {
        match lv {
            LValue::Var(v) => Some(func.var_type(*v).clone()),
            LValue::Deref(e) => match self.static_expr_type(func, e)? {
                Type::Ptr(inner) => Some(*inner),
                _ => None,
            },
            LValue::Field(inner, fid) => match self.static_lvalue_type(func, inner)? {
                Type::Struct(sid) => Some(self.prog.structs[sid].fields.get(*fid)?.ty.clone()),
                _ => None,
            },
            LValue::Index(inner, _) => match self.static_lvalue_type(func, inner)? {
                Type::Array(t, _) => Some(*t),
                _ => None,
            },
            LValue::Buf32(_) => Some(Type::Long),
        }
    }

    fn read_lvalue(
        &mut self,
        func: &Function,
        frame: &mut Vec<Value>,
        lv: &LValue,
    ) -> Result<Value, EvalError> {
        let (loc, _) = self.resolve_lvalue(func, frame, lv)?;
        match loc {
            Loc::Var(v) => Ok(frame[v]),
            Loc::Slot(p) => self.heap.read_slot(p),
            Loc::Buf(obj, off) => Ok(Value::Long(self.heap.buf_load32(obj, off)? as i64)),
        }
    }

    fn write_lvalue(
        &mut self,
        func: &Function,
        frame: &mut Vec<Value>,
        lv: &LValue,
        v: Value,
    ) -> Result<(), EvalError> {
        let (loc, _) = self.resolve_lvalue(func, frame, lv)?;
        match loc {
            Loc::Var(slot) => {
                frame[slot] = v;
                Ok(())
            }
            Loc::Slot(p) => self.heap.write_slot(p, v),
            Loc::Buf(obj, off) => self.heap.buf_store32(obj, off, v.as_long()? as u32),
        }
    }

    fn eval_expr(
        &mut self,
        func: &Function,
        frame: &mut Vec<Value>,
        e: &Expr,
    ) -> Result<Value, EvalError> {
        self.burn()?;
        match e {
            Expr::Const(v) => Ok(Value::Long(*v)),
            Expr::Lv(lv) => self.read_lvalue(func, frame, lv),
            Expr::AddrOf(lv) => {
                let (loc, _) = self.resolve_lvalue(func, frame, lv)?;
                match loc {
                    Loc::Slot(p) => Ok(Value::Ref(p)),
                    Loc::Buf(obj, off) => Ok(Value::BufPtr(obj, off)),
                    Loc::Var(_) => Err(EvalError::TypeMismatch {
                        wanted: "heap lvalue (locals are not addressable)",
                        got: "local variable",
                    }),
                }
            }
            Expr::Un(op, inner) => {
                let v = self.eval_expr(func, frame, inner)?;
                self.eval_unop(*op, v)
            }
            Expr::Bin(BinOp::And, a, b) => {
                if !self.eval_expr(func, frame, a)?.truthy()? {
                    return Ok(Value::Long(0));
                }
                Ok(Value::Long(self.eval_expr(func, frame, b)?.truthy()? as i64))
            }
            Expr::Bin(BinOp::Or, a, b) => {
                if self.eval_expr(func, frame, a)?.truthy()? {
                    return Ok(Value::Long(1));
                }
                Ok(Value::Long(self.eval_expr(func, frame, b)?.truthy()? as i64))
            }
            Expr::Bin(op, a, b) => {
                let va = self.eval_expr(func, frame, a)?;
                let vb = self.eval_expr(func, frame, b)?;
                eval_binop(*op, va, vb)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_expr(func, frame, a)?);
                }
                self.call(name, vals)
            }
        }
    }

    fn eval_unop(&self, op: UnOp, v: Value) -> Result<Value, EvalError> {
        let x = v.as_long()?;
        Ok(Value::Long(match op {
            UnOp::Neg => -x,
            UnOp::Not => (x == 0) as i64,
            // The modeled machine is little-endian, so htonl/ntohl swap.
            UnOp::Htonl | UnOp::Ntohl => (x as u32).swap_bytes() as i64,
        }))
    }
}

/// Evaluate a pure binary operation (shared with the specializer's
/// constant folder).
pub fn eval_binop(op: BinOp, va: Value, vb: Value) -> Result<Value, EvalError> {
    // Buffer-pointer arithmetic: ptr ± integer.
    if let (Value::BufPtr(obj, off), Value::Long(d)) = (va, vb) {
        return match op {
            BinOp::Add => Ok(Value::BufPtr(obj, (off as i64 + d) as usize)),
            BinOp::Sub => Ok(Value::BufPtr(obj, (off as i64 - d) as usize)),
            _ => Err(EvalError::TypeMismatch {
                wanted: "arith on buffer pointer",
                got: "other op",
            }),
        };
    }
    let a = va.as_long()?;
    let b = vb.as_long()?;
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(EvalError::DivByZero);
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0 {
                return Err(EvalError::DivByZero);
            }
            a % b
        }
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
    };
    Ok(Value::Long(v))
}

enum Loc {
    Var(VarId),
    Slot(Place),
    Buf(ObjId, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::*;
    use crate::ir::{FieldDef, Program, StructDef, Type};

    fn arith_prog() -> Program {
        let mut p = Program::new();
        let mut fb = FunctionBuilder::new("fact");
        let n = fb.param("n", Type::Long);
        let acc = fb.local("acc", Type::Long);
        let i = fb.local("i", Type::Long);
        fb.returns(Type::Long);
        let f = fb.body(vec![
            assign(var(acc), c(1)),
            for_loop(
                i,
                c(1),
                add(lv(var(n)), c(1)),
                vec![assign(var(acc), mul(lv(var(acc)), lv(var(i))))],
            ),
            ret(Some(lv(var(acc)))),
        ]);
        p.add_func(f);
        p
    }

    #[test]
    fn factorial_via_for_loop() {
        let p = arith_prog();
        let mut ev = Evaluator::new(&p);
        let r = ev.call("fact", vec![Value::Long(6)]).unwrap();
        assert_eq!(r, Value::Long(720));
    }

    #[test]
    fn struct_field_access_through_pointer() {
        let mut p = Program::new();
        let sid = p.add_struct(StructDef {
            name: "S".into(),
            fields: vec![
                FieldDef {
                    name: "a".into(),
                    ty: Type::Long,
                },
                FieldDef {
                    name: "b".into(),
                    ty: Type::Long,
                },
            ],
        });
        let mut fb = FunctionBuilder::new("swap_sum");
        let sp = fb.param("sp", ptr(Type::Struct(sid)));
        fb.returns(Type::Long);
        let f = fb.body(vec![
            // tmp-free swap via arithmetic, then return a+b
            assign(
                field(deref_var(sp), 0),
                add(lv(field(deref_var(sp), 0)), lv(field(deref_var(sp), 1))),
            ),
            ret(Some(lv(field(deref_var(sp), 0)))),
        ]);
        p.add_func(f);

        let mut ev = Evaluator::new(&p);
        let obj = ev.heap.alloc_struct(&p, sid);
        ev.heap
            .write_slot(Place { obj, slot: 0 }, Value::Long(3))
            .unwrap();
        ev.heap
            .write_slot(Place { obj, slot: 1 }, Value::Long(4))
            .unwrap();
        let r = ev
            .call("swap_sum", vec![Value::Ref(Place { obj, slot: 0 })])
            .unwrap();
        assert_eq!(r, Value::Long(7));
        assert_eq!(
            ev.heap.read_slot(Place { obj, slot: 0 }).unwrap(),
            Value::Long(7)
        );
    }

    #[test]
    fn buffer_store_with_htonl_is_big_endian() {
        let mut p = Program::new();
        let mut fb = FunctionBuilder::new("put");
        let bp = fb.param("bp", Type::BufPtr);
        let v = fb.param("v", Type::Long);
        let f = fb.body(vec![assign(buf32(lv(var(bp))), htonl(lv(var(v))))]);
        p.add_func(f);

        let mut ev = Evaluator::new(&p);
        let buf = ev.heap.alloc_bytes(8);
        ev.call("put", vec![Value::BufPtr(buf, 0), Value::Long(0x0102_0304)])
            .unwrap();
        assert_eq!(&ev.heap.bytes(buf).unwrap()[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn bufptr_arithmetic_advances_offset() {
        let a = eval_binop(BinOp::Add, Value::BufPtr(0, 4), Value::Long(4)).unwrap();
        assert_eq!(a, Value::BufPtr(0, 8));
        let s = eval_binop(BinOp::Sub, Value::BufPtr(0, 4), Value::Long(4)).unwrap();
        assert_eq!(s, Value::BufPtr(0, 0));
    }

    #[test]
    fn addr_of_array_element() {
        let mut p = Program::new();
        let sid = p.add_struct(StructDef {
            name: "A".into(),
            fields: vec![FieldDef {
                name: "arr".into(),
                ty: Type::Array(Box::new(Type::Long), 3),
            }],
        });
        // bump(long* x) { *x = *x + 1; }
        let mut fb = FunctionBuilder::new("bump");
        let x = fb.param("x", ptr(Type::Long));
        let bump = fb.body(vec![assign(deref_var(x), add(lv(deref_var(x)), c(1)))]);
        p.add_func(bump);
        // f(A* a) { bump(&a->arr[1]); }
        let mut fb = FunctionBuilder::new("f");
        let a = fb.param("a", ptr(Type::Struct(sid)));
        let f = fb.body(vec![expr_stmt(call(
            "bump",
            vec![addr_of(index(field(deref_var(a), 0), c(1)))],
        ))]);
        p.add_func(f);

        let mut ev = Evaluator::new(&p);
        let obj = ev.heap.alloc_struct(&p, sid);
        ev.heap
            .write_slot(Place { obj, slot: 1 }, Value::Long(10))
            .unwrap();
        ev.call("f", vec![Value::Ref(Place { obj, slot: 0 })])
            .unwrap();
        assert_eq!(
            ev.heap.read_slot(Place { obj, slot: 1 }).unwrap(),
            Value::Long(11)
        );
    }

    #[test]
    fn array_index_out_of_bounds_detected() {
        let mut p = Program::new();
        let sid = p.add_struct(StructDef {
            name: "A".into(),
            fields: vec![FieldDef {
                name: "arr".into(),
                ty: Type::Array(Box::new(Type::Long), 2),
            }],
        });
        let mut fb = FunctionBuilder::new("f");
        let a = fb.param("a", ptr(Type::Struct(sid)));
        let f = fb.body(vec![assign(index(field(deref_var(a), 0), c(5)), c(1))]);
        p.add_func(f);
        let mut ev = Evaluator::new(&p);
        let obj = ev.heap.alloc_struct(&p, sid);
        let err = ev
            .call("f", vec![Value::Ref(Place { obj, slot: 0 })])
            .unwrap_err();
        assert!(matches!(err, EvalError::OutOfBounds { index: 5, len: 2 }));
    }

    #[test]
    fn short_circuit_and_or() {
        let mut p = Program::new();
        // f(x) { if (x != 0 && 10 / x > 1) return 1; return 0; }
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", Type::Long);
        fb.returns(Type::Long);
        let f = fb.body(vec![
            if_then(
                Expr::Bin(
                    BinOp::And,
                    Box::new(ne(lv(var(x)), c(0))),
                    Box::new(Expr::Bin(
                        BinOp::Gt,
                        Box::new(Expr::Bin(BinOp::Div, Box::new(c(10)), Box::new(lv(var(x))))),
                        Box::new(c(1)),
                    )),
                ),
                vec![ret(Some(c(1)))],
            ),
            ret(Some(c(0))),
        ]);
        p.add_func(f);
        let mut ev = Evaluator::new(&p);
        // x = 0 must not divide by zero thanks to short-circuit.
        assert_eq!(ev.call("f", vec![Value::Long(0)]).unwrap(), Value::Long(0));
        assert_eq!(ev.call("f", vec![Value::Long(2)]).unwrap(), Value::Long(1));
    }

    #[test]
    fn while_loop_and_fuel() {
        let mut p = Program::new();
        let mut fb = FunctionBuilder::new("spin");
        let _x = fb.param("x", Type::Long);
        let f = fb.body(vec![Stmt::While(c(1), vec![])]);
        p.add_func(f);
        let mut ev = Evaluator::new(&p);
        ev.set_fuel(1000);
        assert_eq!(
            ev.call("spin", vec![Value::Long(0)]).unwrap_err(),
            EvalError::OutOfFuel
        );
    }

    #[test]
    fn div_by_zero_detected() {
        assert_eq!(
            eval_binop(BinOp::Div, Value::Long(1), Value::Long(0)).unwrap_err(),
            EvalError::DivByZero
        );
    }

    #[test]
    fn ntohl_inverts_htonl_in_ir() {
        let p = Program::new();
        let ev = Evaluator::new(&p);
        let v = Value::Long(0x1234_5678);
        let swapped = ev.eval_unop(UnOp::Htonl, v).unwrap();
        let back = ev.eval_unop(UnOp::Ntohl, swapped).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn steps_counted() {
        let p = arith_prog();
        let mut ev = Evaluator::new(&p);
        ev.call("fact", vec![Value::Long(5)]).unwrap();
        assert!(ev.steps() > 10);
    }
}

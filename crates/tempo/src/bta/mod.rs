//! Binding-time analysis (BTA).
//!
//! Tempo is an *offline* specializer: before any concrete values are
//! supplied, a binding-time analysis divides the program into static
//! (specialization-time) and dynamic (run-time) parts, and the user
//! inspects the division — "different colors are used to display the
//! static and dynamic parts of a program" (§6.1). This module reproduces
//! that analysis with the paper's four refinements (§4):
//!
//! * **partially-static structures** — binding times are tracked per
//!   struct field, so `xdrs->x_op` can be static while the buffer contents
//!   are dynamic;
//! * **flow sensitivity** — binding times are a property of a program
//!   point, not a variable: the abstract environment flows through
//!   statements and joins at merges;
//! * **context sensitivity** — every call is analyzed in its caller's
//!   binding-time context, producing per-context *instances* of the callee
//!   (`xdr_long` encoding the static procedure id is a different instance
//!   from `xdr_long` encoding a dynamic argument);
//! * **static returns** — a call's result can be static even when the
//!   callee performs dynamic side effects.
//!
//! The output is an [`Analysis`]: annotated instances whose every
//! statement and expression carries a [`Bt`] tag, plus a terminal
//! pretty-printer ([`Analysis::render`]) that shows dynamic code in bold,
//! like Tempo's UI (the paper prints dynamic fragments in bold face).
//!
//! The specializer itself (`crate::spec`) is *online* — it decides
//! staticness from actual values — so the BTA here serves the paper's
//! analysis/visualization role; tests assert the two agree on the Sun RPC
//! code (what BTA marks static, the specializer folds).

use crate::ir::{BinOp, Expr, Function, LValue, Program, Stmt, Type, UnOp, VarId};
use std::collections::BTreeSet;
use std::fmt;

mod render;
pub use render::render_instance;

#[cfg(test)]
mod tests;

/// A binding time: static (specialization-time) or dynamic (run-time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bt {
    /// Known at specialization time.
    S,
    /// Known only at run time.
    D,
}

impl Bt {
    /// Least upper bound.
    pub fn join(self, other: Bt) -> Bt {
        if self == Bt::D || other == Bt::D {
            Bt::D
        } else {
            Bt::S
        }
    }
}

/// Abstract object id.
pub type AbsObj = usize;

/// Abstract value: the BTA lattice element for one IR value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AVal {
    /// Static scalar.
    Stat,
    /// Dynamic scalar.
    Dyn,
    /// Static pointer with its points-to set.
    Ptr(BTreeSet<AbsObj>),
    /// Static pointer into a wire buffer (contents dynamic).
    BufPtr,
}

impl AVal {
    /// The binding time of the value itself (pointers are static values
    /// even when their pointees are dynamic).
    pub fn bt(&self) -> Bt {
        match self {
            AVal::Dyn => Bt::D,
            _ => Bt::S,
        }
    }

    fn join(&self, other: &AVal) -> AVal {
        match (self, other) {
            (AVal::Stat, AVal::Stat) => AVal::Stat,
            (AVal::BufPtr, AVal::BufPtr) => AVal::BufPtr,
            (AVal::Ptr(a), AVal::Ptr(b)) => AVal::Ptr(a.union(b).copied().collect()),
            (AVal::Stat, AVal::Ptr(p)) | (AVal::Ptr(p), AVal::Stat) => {
                // Stat is the uninitialized scalar 0 joining a pointer
                // (C's NULL); keep the pointer shape.
                AVal::Ptr(p.clone())
            }
            (AVal::Stat, AVal::BufPtr) | (AVal::BufPtr, AVal::Stat) => AVal::BufPtr,
            _ => AVal::Dyn,
        }
    }
}

/// BTA errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtaError {
    /// Unknown function.
    UnknownFunction(String),
    /// Recursion deeper than the analysis bound (the RPC code is not
    /// recursive; this guards against cycles).
    TooDeep(String),
    /// A shape the abstract domain cannot express.
    Unsupported(String),
}

impl fmt::Display for BtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtaError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            BtaError::TooDeep(n) => write!(f, "analysis recursion bound hit in `{n}`"),
            BtaError::Unsupported(s) => write!(f, "unsupported shape: {s}"),
        }
    }
}

impl std::error::Error for BtaError {}

// ---- annotated mirror AST -------------------------------------------------

/// An annotated expression: the source expression plus its binding time.
#[derive(Debug, Clone)]
pub struct AExpr {
    /// Binding time of the value this expression produces.
    pub bt: Bt,
    /// The underlying source expression (by clone; the annotated tree is a
    /// presentation artifact).
    pub expr: Expr,
    /// Annotated children, in source order.
    pub children: Vec<AExpr>,
}

/// An annotated statement.
#[derive(Debug, Clone)]
pub struct AStmt {
    /// `S` — the statement is consumed at specialization time;
    /// `D` — it residualizes.
    pub bt: Bt,
    /// The underlying statement (head only; bodies are in `blocks`).
    pub stmt: Stmt,
    /// Annotated sub-expressions (condition / rhs / bounds).
    pub exprs: Vec<AExpr>,
    /// Annotated nested blocks (then/else, loop body).
    pub blocks: Vec<Vec<AStmt>>,
}

/// One analyzed binding-time instance of a function: a function analyzed
/// under one calling context.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Function name.
    pub func: String,
    /// The calling context (abstract argument values).
    pub ctx: Vec<AVal>,
    /// Binding time of the return value (static returns, §4).
    pub ret: AVal,
    /// Annotated body.
    pub body: Vec<AStmt>,
}

impl Instance {
    /// Count statements by binding time: `(static, dynamic)`.
    #[cfg(test)]
    pub(crate) fn stmt_counts(&self) -> (usize, usize) {
        fn walk(stmts: &[AStmt], s: &mut usize, d: &mut usize) {
            for st in stmts {
                match st.bt {
                    Bt::S => *s += 1,
                    Bt::D => *d += 1,
                }
                for b in &st.blocks {
                    walk(b, s, d);
                }
            }
        }
        let (mut s, mut d) = (0, 0);
        walk(&self.body, &mut s, &mut d);
        (s, d)
    }
}

/// The result of a whole-program binding-time analysis from one entry.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Analyzed instances; index 0 is the entry. Multiple instances of the
    /// same function with different contexts demonstrate context
    /// sensitivity.
    pub instances: Vec<Instance>,
}

impl Analysis {
    /// The entry instance.
    pub fn entry(&self) -> &Instance {
        &self.instances[0]
    }

    /// All instances of the named function.
    #[cfg(test)]
    pub(crate) fn instances_of(&self, func: &str) -> Vec<&Instance> {
        self.instances.iter().filter(|i| i.func == func).collect()
    }

    /// Render every instance with binding-time colors (dynamic in bold).
    pub fn render(&self, prog: &Program, color: bool) -> String {
        let mut out = String::new();
        for inst in &self.instances {
            out.push_str(&render_instance(prog, inst, color));
            out.push('\n');
        }
        out
    }
}

// ---- the analyzer ----------------------------------------------------------

/// Abstract layout: arrays collapse to their element (indices are
/// value-unknown at analysis time), structs flatten per field.
fn aflat_size(prog: &Program, ty: &Type) -> usize {
    match ty {
        Type::Long | Type::Ptr(_) | Type::BufPtr => 1,
        Type::Array(t, _) => aflat_size(prog, t),
        Type::Struct(sid) => prog.structs[*sid]
            .fields
            .iter()
            .map(|f| aflat_size(prog, &f.ty))
            .sum(),
        Type::Void => 0,
    }
}

fn afield_offset(prog: &Program, sid: usize, fid: usize) -> usize {
    prog.structs[sid].fields[..fid]
        .iter()
        .map(|f| aflat_size(prog, &f.ty))
        .sum()
}

/// The binding-time analyzer. Register abstract objects mirroring the
/// specialization-time heap, then call [`Bta::analyze`].
pub struct Bta<'p> {
    prog: &'p Program,
    /// Abstract heap: per object, per collapsed slot, an abstract value.
    heap: Vec<Vec<AVal>>,
    obj_tys: Vec<Type>,
}

impl<'p> Bta<'p> {
    /// A fresh analyzer.
    pub fn new(prog: &'p Program) -> Self {
        Bta {
            prog,
            heap: Vec::new(),
            obj_tys: Vec::new(),
        }
    }

    /// Register an abstract struct object with every slot static.
    pub fn add_static_struct(&mut self, sid: usize) -> AbsObj {
        let n = aflat_size(self.prog, &Type::Struct(sid));
        self.heap.push(vec![AVal::Stat; n]);
        self.obj_tys.push(Type::Struct(sid));
        self.heap.len() - 1
    }

    /// Register an abstract struct object with every slot dynamic.
    pub fn add_dynamic_struct(&mut self, sid: usize) -> AbsObj {
        let n = aflat_size(self.prog, &Type::Struct(sid));
        self.heap.push(vec![AVal::Dyn; n]);
        self.obj_tys.push(Type::Struct(sid));
        self.heap.len() - 1
    }

    /// Set one collapsed slot's abstract value (e.g. a static length field
    /// in an otherwise dynamic argument struct, or a `BufPtr` cursor field
    /// in the XDR handle).
    pub fn set_slot(&mut self, obj: AbsObj, slot: usize, v: AVal) {
        self.heap[obj][slot] = v;
    }

    /// Analyze `entry` under the given abstract arguments.
    pub fn analyze(&mut self, entry: &str, args: Vec<AVal>) -> Result<Analysis, BtaError> {
        // Iterate to a global-heap fixpoint: calls may promote heap slots
        // to dynamic, which can change earlier judgements.
        let mut instances = Vec::new();
        for _round in 0..(8 + self.heap.iter().map(Vec::len).sum::<usize>()) {
            let before = self.heap.clone();
            instances = Vec::new();
            self.analyze_into(entry, args.clone(), &mut instances, 0)?;
            if self.heap == before {
                break;
            }
        }
        Ok(Analysis { instances })
    }

    fn analyze_into(
        &mut self,
        name: &str,
        args: Vec<AVal>,
        instances: &mut Vec<Instance>,
        depth: usize,
    ) -> Result<AVal, BtaError> {
        if depth > 64 {
            return Err(BtaError::TooDeep(name.to_string()));
        }
        let func = self
            .prog
            .func(name)
            .ok_or_else(|| BtaError::UnknownFunction(name.to_string()))?;
        let mut frame = vec![AVal::Stat; func.var_count()];
        frame[..args.len()].clone_from_slice(&args);
        let slot = instances.len();
        instances.push(Instance {
            func: name.to_string(),
            ctx: args,
            ret: AVal::Stat,
            body: Vec::new(),
        });
        let mut ret = None::<AVal>;
        let body = self.abs_block(func, &mut frame, &func.body, &mut ret, instances, depth)?;
        let inst = &mut instances[slot];
        inst.body = body;
        inst.ret = ret.unwrap_or(AVal::Stat);
        Ok(instances[slot].ret.clone())
    }

    fn abs_block(
        &mut self,
        func: &Function,
        frame: &mut Vec<AVal>,
        stmts: &[Stmt],
        ret: &mut Option<AVal>,
        instances: &mut Vec<Instance>,
        depth: usize,
    ) -> Result<Vec<AStmt>, BtaError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.abs_stmt(func, frame, s, ret, instances, depth)?);
        }
        Ok(out)
    }

    fn abs_stmt(
        &mut self,
        func: &Function,
        frame: &mut Vec<AVal>,
        s: &Stmt,
        ret: &mut Option<AVal>,
        instances: &mut Vec<Instance>,
        depth: usize,
    ) -> Result<AStmt, BtaError> {
        match s {
            Stmt::Assign(lv, e) => {
                let (av, ae) = self.abs_expr(func, frame, e, instances, depth)?;
                let loc = self.abs_lvalue(func, frame, lv, instances, depth)?;
                let bt = self.abs_write(func, frame, &loc, av)?;
                Ok(AStmt {
                    bt,
                    stmt: s.clone(),
                    exprs: vec![ae],
                    blocks: vec![],
                })
            }
            Stmt::If(c, t, e) => {
                let (cv, ce) = self.abs_expr(func, frame, c, instances, depth)?;
                // Analyze both branches from the same in-state
                // (value-agnostic), then join (flow sensitivity).
                let mut frame_t = frame.clone();
                let heap_in = self.heap.clone();
                let tb = self.abs_block(func, &mut frame_t, t, ret, instances, depth)?;
                let heap_t = std::mem::replace(&mut self.heap, heap_in);
                let mut frame_e = frame.clone();
                let eb = self.abs_block(func, &mut frame_e, e, ret, instances, depth)?;
                join_heaps(&mut self.heap, &heap_t);
                for v in 0..frame.len() {
                    frame[v] = frame_t[v].join(&frame_e[v]);
                }
                Ok(AStmt {
                    bt: cv.bt(),
                    stmt: s.clone(),
                    exprs: vec![ce],
                    blocks: vec![tb, eb],
                })
            }
            Stmt::While(c, b) => {
                // Iterate body to a local fixpoint.
                let (mut cv, mut ce) = self.abs_expr(func, frame, c, instances, depth)?;
                let mut body_ann = Vec::new();
                for _ in 0..64 {
                    let frame_in = frame.clone();
                    let heap_in = self.heap.clone();
                    body_ann = self.abs_block(func, frame, b, ret, instances, depth)?;
                    for v in 0..frame.len() {
                        frame[v] = frame[v].join(&frame_in[v]);
                    }
                    join_heaps(&mut self.heap, &heap_in);
                    let (cv2, ce2) = self.abs_expr(func, frame, c, instances, depth)?;
                    let stable = *frame == frame_in && self.heap == heap_in;
                    cv = cv2;
                    ce = ce2;
                    if stable {
                        break;
                    }
                }
                Ok(AStmt {
                    bt: cv.bt(),
                    stmt: s.clone(),
                    exprs: vec![ce],
                    blocks: vec![body_ann],
                })
            }
            Stmt::For { var, lo, hi, body } => {
                let (lv_, le) = self.abs_expr(func, frame, lo, instances, depth)?;
                let (hv, he) = self.abs_expr(func, frame, hi, instances, depth)?;
                let bound_bt = lv_.bt().join(hv.bt());
                frame[*var] = if bound_bt == Bt::S {
                    AVal::Stat
                } else {
                    AVal::Dyn
                };
                let mut body_ann = Vec::new();
                for _ in 0..64 {
                    let frame_in = frame.clone();
                    let heap_in = self.heap.clone();
                    body_ann = self.abs_block(func, frame, body, ret, instances, depth)?;
                    for v in 0..frame.len() {
                        frame[v] = frame[v].join(&frame_in[v]);
                    }
                    join_heaps(&mut self.heap, &heap_in);
                    if *frame == frame_in && self.heap == heap_in {
                        break;
                    }
                }
                Ok(AStmt {
                    bt: bound_bt,
                    stmt: s.clone(),
                    exprs: vec![le, he],
                    blocks: vec![body_ann],
                })
            }
            Stmt::Expr(e) => {
                let (av, ae) = self.abs_expr(func, frame, e, instances, depth)?;
                Ok(AStmt {
                    bt: av.bt(),
                    stmt: s.clone(),
                    exprs: vec![ae],
                    blocks: vec![],
                })
            }
            Stmt::Return(None) => {
                *ret = Some(match ret.take() {
                    Some(r) => r.join(&AVal::Stat),
                    None => AVal::Stat,
                });
                Ok(AStmt {
                    bt: Bt::S,
                    stmt: s.clone(),
                    exprs: vec![],
                    blocks: vec![],
                })
            }
            Stmt::Return(Some(e)) => {
                let (av, ae) = self.abs_expr(func, frame, e, instances, depth)?;
                let bt = av.bt();
                *ret = Some(match ret.take() {
                    Some(r) => r.join(&av),
                    None => av,
                });
                Ok(AStmt {
                    bt,
                    stmt: s.clone(),
                    exprs: vec![ae],
                    blocks: vec![],
                })
            }
        }
    }

    fn abs_expr(
        &mut self,
        func: &Function,
        frame: &mut Vec<AVal>,
        e: &Expr,
        instances: &mut Vec<Instance>,
        depth: usize,
    ) -> Result<(AVal, AExpr), BtaError> {
        let (av, children) = match e {
            Expr::Const(_) => (AVal::Stat, vec![]),
            Expr::Lv(lv) => {
                let loc = self.abs_lvalue(func, frame, lv, instances, depth)?;
                (self.abs_read(frame, &loc), vec![])
            }
            Expr::AddrOf(lv) => {
                let loc = self.abs_lvalue(func, frame, lv, instances, depth)?;
                let v = match loc {
                    ALoc::Slots(objs, _) => AVal::Ptr(objs),
                    ALoc::Buf => AVal::BufPtr,
                    ALoc::Var(_) => return Err(BtaError::Unsupported("address of local".into())),
                    ALoc::Dynamic => AVal::Dyn,
                };
                (v, vec![])
            }
            Expr::Un(op, inner) => {
                let (iv, ie) = self.abs_expr(func, frame, inner, instances, depth)?;
                let v = match op {
                    UnOp::Neg | UnOp::Not | UnOp::Htonl | UnOp::Ntohl => {
                        if iv.bt() == Bt::S {
                            AVal::Stat
                        } else {
                            AVal::Dyn
                        }
                    }
                };
                (v, vec![ie])
            }
            Expr::Bin(op, a, b) => {
                let (va, ea) = self.abs_expr(func, frame, a, instances, depth)?;
                let (vb, eb) = self.abs_expr(func, frame, b, instances, depth)?;
                let v = match (op, &va, &vb) {
                    // Buffer-pointer arithmetic keeps the pointer shape.
                    (BinOp::Add | BinOp::Sub, AVal::BufPtr, x) if x.bt() == Bt::S => AVal::BufPtr,
                    _ => {
                        if va.bt() == Bt::S && vb.bt() == Bt::S {
                            AVal::Stat
                        } else {
                            AVal::Dyn
                        }
                    }
                };
                (v, vec![ea, eb])
            }
            Expr::Call(name, args) => {
                let mut avals = Vec::with_capacity(args.len());
                let mut aes = Vec::with_capacity(args.len());
                for a in args {
                    let (v, ae) = self.abs_expr(func, frame, a, instances, depth)?;
                    avals.push(v);
                    aes.push(ae);
                }
                let ret = self.analyze_into(name, avals, instances, depth + 1)?;
                (ret, aes)
            }
        };
        Ok((
            av.clone(),
            AExpr {
                bt: av.bt(),
                expr: e.clone(),
                children,
            },
        ))
    }

    fn abs_lvalue(
        &mut self,
        func: &Function,
        frame: &mut Vec<AVal>,
        lv: &LValue,
        instances: &mut Vec<Instance>,
        depth: usize,
    ) -> Result<ALoc, BtaError> {
        match lv {
            LValue::Var(v) => Ok(ALoc::Var(*v)),
            LValue::Deref(e) => {
                let (pv, _) = self.abs_expr(func, frame, e, instances, depth)?;
                match pv {
                    AVal::Ptr(objs) => Ok(ALoc::Slots(objs, 0)),
                    AVal::BufPtr => Ok(ALoc::Buf),
                    AVal::Dyn => Ok(ALoc::Dynamic),
                    AVal::Stat => Err(BtaError::Unsupported("deref of scalar".into())),
                }
            }
            LValue::Field(inner, fid) => {
                let loc = self.abs_lvalue(func, frame, inner, instances, depth)?;
                match loc {
                    ALoc::Slots(objs, base) => {
                        // All pointed-to objects must share a struct type for
                        // field offsets to be meaningful; take the first.
                        let sid = objs
                            .iter()
                            .find_map(|o| match &self.obj_tys[*o] {
                                Type::Struct(sid) => Some(*sid),
                                _ => None,
                            })
                            .ok_or_else(|| {
                                BtaError::Unsupported("field of non-struct object".into())
                            })?;
                        Ok(ALoc::Slots(
                            objs,
                            base + afield_offset(self.prog, sid, *fid),
                        ))
                    }
                    other => Ok(other),
                }
            }
            LValue::Index(inner, idx) => {
                // Arrays collapse to one abstract slot; the index's binding
                // time does not move the location.
                let _ = self.abs_expr(func, frame, idx, instances, depth)?;
                self.abs_lvalue(func, frame, inner, instances, depth)
            }
            LValue::Buf32(e) => {
                let (pv, _) = self.abs_expr(func, frame, e, instances, depth)?;
                match pv {
                    AVal::BufPtr => Ok(ALoc::Buf),
                    AVal::Dyn => Ok(ALoc::Dynamic),
                    _ => Err(BtaError::Unsupported(
                        "buf access through non-bufptr".into(),
                    )),
                }
            }
        }
    }

    fn abs_read(&self, frame: &[AVal], loc: &ALoc) -> AVal {
        match loc {
            ALoc::Var(v) => frame[*v].clone(),
            ALoc::Slots(objs, slot) => {
                let mut v: Option<AVal> = None;
                for o in objs {
                    let sv = self.heap[*o].get(*slot).cloned().unwrap_or(AVal::Dyn);
                    v = Some(match v {
                        None => sv,
                        Some(prev) => prev.join(&sv),
                    });
                }
                v.unwrap_or(AVal::Dyn)
            }
            ALoc::Buf => AVal::Dyn, // buffer contents are dynamic
            ALoc::Dynamic => AVal::Dyn,
        }
    }

    /// Write an abstract value through a location; returns the statement's
    /// binding time (S = consumed at spec time, D = residualized).
    fn abs_write(
        &mut self,
        _func: &Function,
        frame: &mut [AVal],
        loc: &ALoc,
        v: AVal,
    ) -> Result<Bt, BtaError> {
        match loc {
            ALoc::Var(var) => {
                let bt = v.bt();
                frame[*var] = v;
                Ok(bt)
            }
            ALoc::Slots(objs, slot) => {
                let strong = objs.len() == 1;
                let mut bt = v.bt();
                for o in objs {
                    if *slot >= self.heap[*o].len() {
                        continue;
                    }
                    let cur = self.heap[*o][*slot].clone();
                    let nv = if strong { v.clone() } else { cur.join(&v) };
                    bt = bt.join(nv.bt());
                    self.heap[*o][*slot] = nv;
                }
                Ok(bt)
            }
            // Stores into the wire buffer always residualize.
            ALoc::Buf => Ok(Bt::D),
            ALoc::Dynamic => Ok(Bt::D),
        }
    }
}

fn join_heaps(into: &mut [Vec<AVal>], other: &[Vec<AVal>]) {
    for (a, b) in into.iter_mut().zip(other.iter()) {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x = x.join(y);
        }
    }
}

enum ALoc {
    Var(VarId),
    Slots(BTreeSet<AbsObj>, usize),
    Buf,
    Dynamic,
}

//! The specializer: online partial evaluation of IR programs.
//!
//! Given an entry function, concrete values for its *static* inputs, and
//! names for its *dynamic* roots, the specializer produces a residual
//! [`Function`] in which (mirroring §3 of the paper):
//!
//! * run-time dispatch on statically known tags is folded
//!   (`xdrs->x_op` switches — §3.1),
//! * buffer-overflow accounting is executed at specialization time
//!   (`x_handy` arithmetic — §3.2),
//! * statically known return values are propagated to callers even when
//!   the callee has dynamic side effects (*static returns* — §3.3 / §4),
//! * calls are unfolded (inlined) and loops with static bounds are
//!   executed at specialization time — *summarized* when the specializer
//!   can prove them affine, unrolled statement by statement otherwise
//!   (the straight-line residual code of Figure 5),
//! * partially-static structures are handled per-slot (§4): one struct may
//!   mix specialization-time fields (`x_op`, `x_handy`) and run-time fields
//!   (argument values),
//! * binding times are flow-sensitive (§4): the §6.2 `inlen` guard makes a
//!   dynamic variable *locally* static inside the guarded branch.
//!
//! Context sensitivity (§4) is obtained by construction: every call is
//! unfolded in its own calling context, so two calls to `xdr_long` — one
//! with a static integer (the procedure identifier), one with dynamic
//! arguments — specialize independently.
//!
//! # Loop summarization
//!
//! Unrolling a 2000-element marshaling loop specializes one body 2000
//! times to learn one fact: every iteration does the same thing four bytes
//! further on. A `for` with static bounds and at least three trips is
//! therefore first *summarized*. One concrete pass at `i = lo` proposes
//! the per-iteration delta δ of the static state (`x_handy` −4,
//! `x_private` +4, …) and is thrown away: it proves nothing. The body is
//! then specialized **once more with every varying static value carried
//! as (value, stride)** ([`SVal::A`]): the induction variable is `(lo, 1)`,
//! whatever moved is seeded with δ. That pass *is* the induction step,
//! accepted only if the post-state is pre-state + δ with the same strides,
//! binding times are unchanged, the body fell through, and every decision
//! on a strided value held in **every** iteration: `+`, `-`, `*` by an
//! invariant stay affine (range-checked, so the unrolled path's wrapping
//! arithmetic never wraps); `<`, `<=`, `>`, `>=` need both endpoints to
//! agree; `==`/`!=` need equal strides or a root outside the range; an
//! index is bounds-checked at both ends; a strided slot range must be
//! uniformly dynamic to be read or written.
//!
//! Anything else — `/`, `%`, `htonl` of a varying value, a varying scalar
//! in the residual, a dynamic `if`, a nested loop or a fresh residual
//! local in the body, a `return`, overflow, any [`SpecError`] — abandons
//! the attempt: state, report and residual locals are restored and the
//! loop is **unrolled**. Unrolling is the general case and the reference,
//! so every check it makes per iteration (`x_handy`, array bounds) is
//! either decided for the whole range or still made per iteration. On
//! success one residual `for (i' = lo; i' < hi; i'++)` is emitted, with
//! offsets `buf + (c + s·(i' − lo))` and element paths
//! `arr[c + (i' − lo)]`; the static state advances by `trips·δ` and the
//! [`SpecReport`] counters of the accepted pass count `trips` times (only
//! `residual_stmts` can tell). [`Specializer::unrolling`] is the reference.

use crate::eval::{eval_binop, EvalError, Heap, ObjId, ObjectData, Place, Value};
use crate::ir::{BinOp, Expr, Function, LValue, Program, Stmt, Type, UnOp, VarId};
use std::collections::HashMap;
use std::fmt;

mod report;
pub use report::SpecReport;

/// Specialization failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The entry function does not exist.
    UnknownFunction(String),
    /// The static evaluator failed (the program would fail at run time on
    /// its static part — e.g. a statically detected buffer overflow).
    Eval(EvalError),
    /// Residual code needed to name an object that has no residual root.
    UnnamedObject(ObjId),
    /// A `return` under dynamic control inside an unfolded (inlined) call;
    /// the residual would need non-local exit.
    DynamicReturnInUnfold(String),
    /// A loop whose condition/bounds are dynamic mutates static state.
    DynamicLoopMutatesStatic,
    /// `while` with a dynamic condition is outside the supported subset.
    DynamicWhile,
    /// Specialization step budget exhausted.
    OutOfFuel,
    /// Static control flow merged incompatibly (internal limitation).
    MergeConflict(String),
    /// A loop-summarization attempt met a value it cannot prove affine
    /// in the induction variable. Internal: the attempt is abandoned and
    /// the loop unrolled, so [`Specializer::specialize`] never returns it.
    NotAffine,
    /// An argument count mismatch at the entry.
    BadArity {
        /// Arguments supplied.
        got: usize,
        /// Parameters expected.
        want: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            SpecError::Eval(e) => write!(f, "static evaluation failed: {e}"),
            SpecError::UnnamedObject(o) => {
                write!(
                    f,
                    "residual code refers to object #{o} which has no residual name"
                )
            }
            SpecError::DynamicReturnInUnfold(func) => {
                write!(f, "dynamic return inside unfolded call to `{func}`")
            }
            SpecError::DynamicLoopMutatesStatic => {
                write!(f, "dynamic-bound loop mutates static state")
            }
            SpecError::DynamicWhile => write!(f, "dynamic while condition unsupported"),
            SpecError::OutOfFuel => write!(f, "specialization fuel exhausted"),
            SpecError::MergeConflict(what) => write!(f, "branch merge conflict on {what}"),
            SpecError::NotAffine => write!(f, "loop body is not affine in its induction variable"),
            SpecError::BadArity { got, want } => {
                write!(f, "entry called with {got} args, expected {want}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<EvalError> for SpecError {
    fn from(e: EvalError) -> Self {
        SpecError::Eval(e)
    }
}

/// A specialization-time value: either known (static) or a residual
/// expression (dynamic).
#[derive(Debug, Clone, PartialEq)]
pub enum SVal {
    /// Known at specialization time.
    S(Value),
    /// Unknown; the residual expression computing it at run time.
    D(Expr),
    /// Known, and advancing by a non-zero stride per iteration of the loop
    /// being summarized: `value + k·stride` in the k-th (added to the
    /// scalar, buffer offset or slot). Lives only inside an attempt.
    A(Value, i64),
}

impl SVal {
    /// `(value, stride)` of a static value; `None` for a dynamic one.
    fn affine(&self) -> Option<(Value, i64)> {
        match self {
            SVal::S(v) => Some((*v, 0)),
            SVal::A(v, stride) => Some((*v, *stride)),
            SVal::D(_) => None,
        }
    }
}

/// The static value `v` with per-iteration stride `s`, normalized so an
/// invariant is always [`SVal::S`].
fn aff(v: Value, s: i64) -> SVal {
    if s == 0 {
        SVal::S(v)
    } else {
        SVal::A(v, s)
    }
}

/// `v` moved by `by`: scalar add, or offset/slot add under a pointer.
/// `None` on overflow, a negative offset, or a moved `Unit`.
fn advance(v: Value, by: i64) -> Option<Value> {
    let moved = |x: usize| usize::try_from(i64::try_from(x).ok()?.checked_add(by)?).ok();
    Some(match v {
        Value::Long(x) => Value::Long(x.checked_add(by)?),
        Value::BufPtr(obj, off) => Value::BufPtr(obj, moved(off)?),
        Value::Ref(p) => Value::Ref(Place {
            obj: p.obj,
            slot: moved(p.slot)?,
        }),
        Value::Unit => return (by == 0).then_some(v),
    })
}

/// The `by` for which `advance(a, by) == b`, if the two are of one kind
/// (and, for pointers, into one object).
fn delta(a: Value, b: Value) -> Option<i64> {
    let diff = |x: usize, y: usize| i64::try_from(y).ok()?.checked_sub(i64::try_from(x).ok()?);
    match (a, b) {
        (Value::Long(x), Value::Long(y)) => y.checked_sub(x),
        (Value::BufPtr(o, x), Value::BufPtr(p, y)) if o == p => diff(x, y),
        (Value::Ref(p), Value::Ref(q)) if p.obj == q.obj => diff(p.slot, q.slot),
        (Value::Unit, Value::Unit) => Some(0),
        _ => None,
    }
}

/// The loop a summarization attempt is carrying strided values for: its
/// residual induction variable, first index, trip count (≥ 3), and the
/// per-iteration advance of each static heap slot that moves.
struct Summarizing {
    rv: VarId,
    lo: i64,
    trips: i64,
    strides: HashMap<Place, i64>,
}

/// Per-object dynamic mask: which flat slots hold run-time data.
#[derive(Debug, Clone, PartialEq)]
struct DynMask {
    slots: Vec<bool>,
}

#[derive(Debug, Clone)]
struct State {
    heap: Heap,
    masks: Vec<DynMask>,
    frame: Vec<SVal>,
}

/// The specializer. Drive it by registering the static heap (objects with
/// per-slot binding times and residual names), then calling
/// [`Specializer::specialize`].
pub struct Specializer<'p> {
    prog: &'p Program,
    heap: Heap,
    masks: Vec<DynMask>,
    /// Residual root name (parameter id) per object.
    names: HashMap<ObjId, VarId>,
    residual_params: Vec<(String, Type)>,
    residual_locals: Vec<(String, Type)>,
    /// Source-var → residual-local binding cache per unfold depth is not
    /// needed; residual locals are allocated per dynamization event.
    fuel: u64,
    steps: u64,
    report: SpecReport,
    /// Set while the strided pass of a loop summarization runs.
    sum: Option<Summarizing>,
    /// Never summarize: every static-bound loop is unrolled.
    unroll_only: bool,
}

enum Term {
    Fell,
    Returned(SVal),
    /// All paths emitted residual returns (entry only).
    ResidualReturned,
}

impl<'p> Specializer<'p> {
    /// A specializer over `prog` with an empty static heap.
    pub fn new(prog: &'p Program) -> Self {
        Specializer {
            prog,
            heap: Heap::new(),
            masks: Vec::new(),
            names: HashMap::new(),
            residual_params: Vec::new(),
            residual_locals: Vec::new(),
            fuel: 50_000_000,
            steps: 0,
            report: SpecReport::default(),
            sum: None,
            unroll_only: false,
        }
    }

    /// A specializer that unrolls every static-bound loop and never
    /// summarizes one: the paper's Figure 5 residual shape, and the
    /// reference the summarizing specializer is tested against. Not
    /// reachable from any pipeline configuration.
    pub fn unrolling(prog: &'p Program) -> Self {
        Specializer {
            unroll_only: true,
            ..Specializer::new(prog)
        }
    }

    /// Specialization steps (statements + expression nodes visited) burned
    /// so far — what the fuel budget is charged in.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// Allocate a struct whose slots are all **static** (e.g. the `XDR`
    /// handle: `x_op`, `x_handy`, the buffer cursor…).
    pub fn alloc_static_struct(&mut self, sid: usize) -> ObjId {
        let obj = self.heap.alloc_struct(self.prog, sid);
        let n = self.prog.structs[sid].flat_size(self.prog);
        self.masks.push(DynMask {
            slots: vec![false; n],
        });
        obj
    }

    /// Allocate a struct whose slots are all **dynamic**, reachable in the
    /// residual program through a fresh pointer parameter `name` (e.g. the
    /// RPC argument struct `argsp`).
    pub fn alloc_dynamic_struct(&mut self, sid: usize, name: &str) -> ObjId {
        let obj = self.heap.alloc_struct(self.prog, sid);
        let n = self.prog.structs[sid].flat_size(self.prog);
        self.masks.push(DynMask {
            slots: vec![true; n],
        });
        let pid = self.add_residual_param(name, Type::Ptr(Box::new(Type::Struct(sid))));
        self.names.insert(obj, pid);
        obj
    }

    /// Allocate a byte buffer reachable in the residual program through a
    /// fresh buffer-pointer parameter `name` (the XDR wire buffer). The
    /// buffer's *contents* are dynamic; pointers into it are static.
    pub fn alloc_buffer(&mut self, name: &str) -> ObjId {
        let obj = self.heap.alloc_bytes(0);
        self.masks.push(DynMask { slots: Vec::new() });
        let pid = self.add_residual_param(name, Type::BufPtr);
        self.names.insert(obj, pid);
        obj
    }

    /// Mark one slot of a registered object static and give it a value
    /// (partially-static structures, §4: e.g. the array-length field of an
    /// otherwise dynamic argument struct).
    pub fn set_slot_static(&mut self, place: Place, v: Value) {
        self.heap.write_slot(place, v).expect("slot in range");
        self.masks[place.obj].slots[place.slot] = false;
    }

    /// Mark one slot of a registered object dynamic.
    #[cfg(test)]
    pub(crate) fn set_slot_dynamic(&mut self, place: Place) {
        self.masks[place.obj].slots[place.slot] = true;
    }

    fn add_residual_param(&mut self, name: &str, ty: Type) -> VarId {
        assert!(
            self.residual_locals.is_empty(),
            "register all dynamic roots before specializing"
        );
        self.residual_params.push((name.to_string(), ty));
        self.residual_params.len() - 1
    }

    /// Register a dynamic scalar residual parameter (e.g. `xid`) and return
    /// a dynamic value reading it, to pass as an entry argument.
    pub fn dynamic_scalar_param(&mut self, name: &str, ty: Type) -> SVal {
        let pid = self.add_residual_param(name, ty);
        SVal::D(Expr::Lv(Box::new(LValue::Var(pid))))
    }

    /// The accumulated report (valid after [`Specializer::specialize`]).
    pub fn report(&self) -> &SpecReport {
        &self.report
    }

    /// Specialize `entry` with the given arguments, producing a residual
    /// function named `residual_name` whose parameters are the registered
    /// dynamic roots (in registration order).
    pub fn specialize(
        &mut self,
        entry: &str,
        args: Vec<SVal>,
        residual_name: &str,
    ) -> Result<Function, SpecError> {
        let func = self
            .prog
            .func(entry)
            .ok_or_else(|| SpecError::UnknownFunction(entry.to_string()))?;
        if args.len() != func.params.len() {
            return Err(SpecError::BadArity {
                got: args.len(),
                want: func.params.len(),
            });
        }
        let mut frame = vec![SVal::S(Value::Long(0)); func.var_count()];
        frame[..args.len()].clone_from_slice(&args);
        let mut body = Vec::new();
        let term = self.spec_block(func, &mut frame, &func.body, &mut body, 0)?;
        // The entry's return value (static or residual) is materialized so
        // callers of the residual observe the same value the generic code
        // computes.
        if let Term::Returned(v) = term {
            if func.ret != Type::Void {
                body.push(Stmt::Return(Some(self.to_resid(v)?)));
            }
        }
        let residual = Function {
            name: residual_name.to_string(),
            params: self.residual_params.clone(),
            locals: self.residual_locals.clone(),
            ret: func.ret.clone(),
            body,
        };
        self.report.residual_stmts = residual.stmt_count();
        Ok(residual)
    }

    fn burn(&mut self) -> Result<(), SpecError> {
        self.steps += 1;
        if self.steps > self.fuel {
            return Err(SpecError::OutOfFuel);
        }
        Ok(())
    }

    // ---- residual local allocation -------------------------------------

    fn fresh_local(&mut self, hint: &str, ty: Type) -> VarId {
        let name = format!("{}_{}", hint, self.residual_locals.len());
        self.residual_locals.push((name, ty));
        self.residual_params.len() + self.residual_locals.len() - 1
    }

    // ---- lifting --------------------------------------------------------

    /// Turn a static value into a residual expression.
    fn lift(&self, v: &Value) -> Result<Expr, SpecError> {
        self.lift_strided(v, 0)
    }

    /// Residual expression of a static value advancing by `stride` per
    /// iteration. Only pointers may move: a varying scalar in the
    /// residual is not a shape the unrolled path ever emits.
    fn lift_strided(&self, v: &Value, stride: i64) -> Result<Expr, SpecError> {
        match v {
            Value::Long(x) if stride == 0 => Ok(Expr::Const(*x)),
            Value::Long(_) => Err(SpecError::NotAffine),
            Value::BufPtr(obj, off) => {
                let pid = *self.names.get(obj).ok_or(SpecError::UnnamedObject(*obj))?;
                let base = Expr::Lv(Box::new(LValue::Var(pid)));
                if stride == 0 && *off == 0 {
                    return Ok(base);
                }
                let off = self.affine_expr(*off as i64, stride)?;
                Ok(Expr::Bin(BinOp::Add, Box::new(base), Box::new(off)))
            }
            Value::Ref(place) => Ok(Expr::AddrOf(Box::new(self.residual_lv(*place, stride)?))),
            Value::Unit => Ok(Expr::Const(0)),
        }
    }

    /// `c + s·(i' − lo)` over the residual induction variable of the loop
    /// being summarized; plain `c` for an invariant.
    fn affine_expr(&self, c: i64, s: i64) -> Result<Expr, SpecError> {
        if s == 0 {
            return Ok(Expr::Const(c));
        }
        let sum = self.sum.as_ref().ok_or(SpecError::NotAffine)?;
        let k = Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Lv(Box::new(LValue::Var(sum.rv)))),
            Box::new(Expr::Const(sum.lo)),
        );
        let step = Expr::Bin(BinOp::Mul, Box::new(Expr::Const(s)), Box::new(k));
        Ok(Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Const(c)),
            Box::new(step),
        ))
    }

    /// `base + stride·(trips − 1)`: where a strided quantity stands in the
    /// last iteration of the loop being summarized (`base` itself outside
    /// one). `None` on overflow.
    fn at_last(&self, base: i64, stride: i64) -> Option<i64> {
        let span = self.sum.as_ref().map_or(0, |s| s.trips - 1);
        base.checked_add(stride.checked_mul(span)?)
    }

    /// [`Specializer::at_last`] for a slot or byte offset, which must not
    /// go negative.
    fn last_index(&self, base: usize, stride: i64) -> Result<usize, SpecError> {
        self.at_last(base as i64, stride)
            .and_then(|l| usize::try_from(l).ok())
            .ok_or(SpecError::NotAffine)
    }

    /// Residual lvalue naming a heap slot — or, with a non-zero `stride`,
    /// the slot each iteration of the summarized loop reaches —
    /// reconstructed from the object's residual root and type layout.
    fn residual_lv(&self, place: Place, stride: i64) -> Result<LValue, SpecError> {
        let pid = *self
            .names
            .get(&place.obj)
            .ok_or(SpecError::UnnamedObject(place.obj))?;
        let root = LValue::Deref(Box::new(Expr::Lv(Box::new(LValue::Var(pid)))));
        let ty = self.heap.object(place.obj).ty.clone();
        self.path_into(root, &ty, place.slot, stride)
    }

    fn path_into(
        &self,
        base: LValue,
        ty: &Type,
        slot: usize,
        stride: i64,
    ) -> Result<LValue, SpecError> {
        // The last slot a strided path reaches must stay inside whatever
        // aggregate the first one is in, at every level.
        let last = self.last_index(slot, stride)?;
        match ty {
            Type::Long | Type::Ptr(_) | Type::BufPtr if stride != 0 => Err(SpecError::NotAffine),
            Type::Long | Type::Ptr(_) | Type::BufPtr => Ok(base),
            Type::Struct(sid) => {
                let st = &self.prog.structs[*sid];
                let mut off = 0;
                for (fid, fd) in st.fields.iter().enumerate() {
                    let sz = fd.ty.flat_size(self.prog);
                    if slot < off + sz {
                        if !(off..off + sz).contains(&last) {
                            return Err(SpecError::NotAffine);
                        }
                        return self.path_into(
                            LValue::Field(Box::new(base), fid),
                            &fd.ty,
                            slot - off,
                            stride,
                        );
                    }
                    off += sz;
                }
                Err(SpecError::MergeConflict(format!(
                    "slot {slot} outside struct {}",
                    st.name
                )))
            }
            Type::Array(elem, n) => {
                let esz = elem.flat_size(self.prog);
                // A moving path moves by whole elements, all in the array.
                if stride != 0 && (stride % esz as i64 != 0 || last / esz >= *n) {
                    return Err(SpecError::NotAffine);
                }
                let idx = self.affine_expr((slot / esz) as i64, stride / esz as i64)?;
                self.path_into(
                    LValue::Index(Box::new(base), Box::new(idx)),
                    elem,
                    slot % esz,
                    0,
                )
            }
            Type::Void => Err(SpecError::MergeConflict("slot in void object".into())),
        }
    }

    /// Per-iteration advance of a static heap slot (0 outside a
    /// summarization attempt and for slots that do not move).
    fn stride_of(&self, p: Place) -> i64 {
        self.sum
            .as_ref()
            .and_then(|s| s.strides.get(&p))
            .copied()
            .unwrap_or(0)
    }

    /// Whether every slot `p.slot + k·stride` the summarized loop reaches
    /// exists and holds run-time data.
    fn range_dynamic(&self, p: Place, stride: i64) -> bool {
        let Ok(last) = self.last_index(p.slot, stride) else {
            return false;
        };
        let (first, last) = (p.slot.min(last), p.slot.max(last));
        self.masks[p.obj].slots.get(first..=last).is_some_and(|r| {
            r.iter()
                .step_by(stride.unsigned_abs().max(1) as usize)
                .all(|dynamic| *dynamic)
        })
    }

    // ---- lvalue resolution ----------------------------------------------

    /// Where an lvalue lives at specialization time.
    fn resolve_lvalue(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        lv: &LValue,
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<(SLoc, Type), SpecError> {
        match lv {
            LValue::Var(v) => Ok((SLoc::Var(*v), func.var_type(*v).clone())),
            LValue::Deref(e) => {
                let ty = self.static_expr_type(func, e);
                let inner = match ty {
                    Some(Type::Ptr(inner)) => *inner,
                    _ => Type::Long,
                };
                match self.spec_expr(func, frame, e, out, depth)? {
                    SVal::S(Value::Ref(place)) => Ok((SLoc::Slot(place, 0), inner)),
                    SVal::A(Value::Ref(place), stride) => Ok((SLoc::Slot(place, stride), inner)),
                    SVal::A(..) => Err(SpecError::NotAffine),
                    SVal::S(other) => Err(SpecError::Eval(EvalError::TypeMismatch {
                        wanted: "pointer",
                        got: match other {
                            Value::Long(_) => "long",
                            _ => "other",
                        },
                    })),
                    SVal::D(re) => Ok((SLoc::DynL(LValue::Deref(Box::new(re))), inner)),
                }
            }
            LValue::Field(inner, fid) => {
                let (loc, ty) = self.resolve_lvalue(func, frame, inner, out, depth)?;
                let sid = match ty {
                    Type::Struct(sid) => sid,
                    _ => {
                        return Err(SpecError::Eval(EvalError::TypeMismatch {
                            wanted: "struct",
                            got: "other",
                        }))
                    }
                };
                let off = self.prog.structs[sid].field_offset(self.prog, *fid);
                let fty = self.prog.structs[sid].fields[*fid].ty.clone();
                match loc {
                    SLoc::Slot(p, stride) => Ok((
                        SLoc::Slot(
                            Place {
                                obj: p.obj,
                                slot: p.slot + off,
                            },
                            stride,
                        ),
                        fty,
                    )),
                    SLoc::DynL(dl) => Ok((SLoc::DynL(LValue::Field(Box::new(dl), *fid)), fty)),
                    SLoc::Var(_) | SLoc::Buf(..) => Err(SpecError::Eval(EvalError::TypeMismatch {
                        wanted: "aggregate",
                        got: "scalar location",
                    })),
                }
            }
            LValue::Index(inner, idx) => {
                let (loc, ty) = self.resolve_lvalue(func, frame, inner, out, depth)?;
                let (elem, n) = match ty {
                    Type::Array(elem, n) => (*elem, n),
                    _ => {
                        return Err(SpecError::Eval(EvalError::TypeMismatch {
                            wanted: "array",
                            got: "other",
                        }))
                    }
                };
                let esz = elem.flat_size(self.prog);
                let iv = self.spec_expr(func, frame, idx, out, depth)?;
                match (loc, iv) {
                    (SLoc::Slot(p, stride), SVal::S(i)) => {
                        Ok((self.index_slot((p, stride), (i, 0), (n, esz))?, elem))
                    }
                    (SLoc::Slot(p, stride), SVal::A(i, step)) => {
                        Ok((self.index_slot((p, stride), (i, step), (n, esz))?, elem))
                    }
                    (SLoc::Slot(p, stride), SVal::D(ie)) => {
                        // Static base, dynamic index: residual indexing of
                        // the named object (a residual loop body).
                        let base_lv = self.residual_lv(p, stride)?;
                        // p.slot must be the array start for the path to be
                        // meaningful; residual_lv reconstructs it.
                        let arr_lv = match base_lv {
                            // residual_lv on the first element returns
                            // `arr[0]`; strip the index to get the array.
                            LValue::Index(arr, _) => *arr,
                            other => other,
                        };
                        Ok((
                            SLoc::DynL(LValue::Index(Box::new(arr_lv), Box::new(ie))),
                            elem,
                        ))
                    }
                    (SLoc::DynL(dl), SVal::S(i)) => Ok((
                        SLoc::DynL(LValue::Index(
                            Box::new(dl),
                            Box::new(Expr::Const(i.as_long()?)),
                        )),
                        elem,
                    )),
                    (SLoc::DynL(dl), SVal::D(ie)) => {
                        Ok((SLoc::DynL(LValue::Index(Box::new(dl), Box::new(ie))), elem))
                    }
                    (SLoc::DynL(_), SVal::A(..)) => Err(SpecError::NotAffine),
                    (SLoc::Var(_) | SLoc::Buf(..), _) => {
                        Err(SpecError::Eval(EvalError::TypeMismatch {
                            wanted: "aggregate",
                            got: "scalar location",
                        }))
                    }
                }
            }
            LValue::Buf32(e) => match self.spec_expr(func, frame, e, out, depth)? {
                SVal::S(Value::BufPtr(obj, off)) => Ok((SLoc::Buf(obj, off, 0), Type::Long)),
                SVal::A(Value::BufPtr(obj, off), stride) => {
                    Ok((SLoc::Buf(obj, off, stride), Type::Long))
                }
                SVal::A(..) => Err(SpecError::NotAffine),
                SVal::S(_) => Err(SpecError::Eval(EvalError::TypeMismatch {
                    wanted: "buffer pointer",
                    got: "other",
                })),
                SVal::D(re) => Ok((SLoc::DynL(LValue::Buf32(Box::new(re))), Type::Long)),
            },
        }
    }

    /// Element `i` (moving by `step` per iteration of a summarized loop)
    /// of the `n`-element array at `p`, bounds-checked at both ends.
    fn index_slot(
        &self,
        (p, stride): (Place, i64),
        (i, step): (Value, i64),
        (n, esz): (usize, usize),
    ) -> Result<SLoc, SpecError> {
        let i = i.as_long()?;
        let last = self.at_last(i, step).ok_or(SpecError::NotAffine)?;
        if let Some(at) = [i, last].into_iter().find(|&at| at < 0 || at as usize >= n) {
            return Err(SpecError::Eval(EvalError::OutOfBounds {
                index: at.max(0) as usize,
                len: n,
            }));
        }
        let stride = (step.checked_mul(esz as i64))
            .and_then(|s| s.checked_add(stride))
            .ok_or(SpecError::NotAffine)?;
        let slot = p.slot + i as usize * esz;
        Ok(SLoc::Slot(Place { obj: p.obj, slot }, stride))
    }

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

    // ---- expression specialization ---------------------------------------

    fn spec_expr(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        e: &Expr,
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<SVal, SpecError> {
        self.burn()?;
        match e {
            Expr::Const(v) => Ok(SVal::S(Value::Long(*v))),
            Expr::Lv(lv) => {
                let (loc, _) = self.resolve_lvalue(func, frame, lv, out, depth)?;
                match loc {
                    SLoc::Var(v) => Ok(frame[v].clone()),
                    SLoc::Slot(p, 0) => {
                        if self.masks[p.obj].slots[p.slot] {
                            Ok(SVal::D(Expr::Lv(Box::new(self.residual_lv(p, 0)?))))
                        } else {
                            Ok(aff(self.heap.read_slot(p)?, self.stride_of(p)))
                        }
                    }
                    // A moving slot is readable only as run-time data: a
                    // static table `t[i]` has no affine value.
                    SLoc::Slot(p, stride) => {
                        if !self.range_dynamic(p, stride) {
                            return Err(SpecError::NotAffine);
                        }
                        Ok(SVal::D(Expr::Lv(Box::new(self.residual_lv(p, stride)?))))
                    }
                    SLoc::Buf(obj, off, stride) => {
                        // Buffer contents are dynamic.
                        let ptr = self.lift_strided(&Value::BufPtr(obj, off), stride)?;
                        Ok(SVal::D(Expr::Lv(Box::new(LValue::Buf32(Box::new(ptr))))))
                    }
                    SLoc::DynL(dl) => Ok(SVal::D(Expr::Lv(Box::new(dl)))),
                }
            }
            Expr::AddrOf(lv) => {
                let (loc, _) = self.resolve_lvalue(func, frame, lv, out, depth)?;
                match loc {
                    // Pointers to dynamic data are themselves static —
                    // Tempo's pointer/pointee binding-time split.
                    SLoc::Slot(p, stride) => Ok(aff(Value::Ref(p), stride)),
                    SLoc::Buf(obj, off, stride) => Ok(aff(Value::BufPtr(obj, off), stride)),
                    SLoc::DynL(dl) => Ok(SVal::D(Expr::AddrOf(Box::new(dl)))),
                    SLoc::Var(_) => Err(SpecError::Eval(EvalError::TypeMismatch {
                        wanted: "heap lvalue",
                        got: "local variable",
                    })),
                }
            }
            Expr::Un(op, inner) => {
                let v = self.spec_expr(func, frame, inner, out, depth)?;
                match v {
                    SVal::S(v) => {
                        let x = v.as_long()?;
                        let r = match op {
                            UnOp::Neg => -x,
                            UnOp::Not => (x == 0) as i64,
                            UnOp::Htonl | UnOp::Ntohl => (x as u32).swap_bytes() as i64,
                        };
                        Ok(SVal::S(Value::Long(r)))
                    }
                    SVal::A(..) => Err(SpecError::NotAffine),
                    SVal::D(re) => Ok(SVal::D(Expr::Un(*op, Box::new(re)))),
                }
            }
            Expr::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                let va = self.spec_expr(func, frame, a, out, depth)?;
                match va {
                    SVal::S(v) => {
                        let t = v.truthy()?;
                        let short = matches!(op, BinOp::And) && !t || matches!(op, BinOp::Or) && t;
                        if short {
                            return Ok(SVal::S(Value::Long(t as i64)));
                        }
                        // Result is the truthiness of b.
                        match self.spec_expr(func, frame, b, out, depth)? {
                            SVal::S(vb) => Ok(SVal::S(Value::Long(vb.truthy()? as i64))),
                            SVal::A(..) => Err(SpecError::NotAffine),
                            SVal::D(rb) => Ok(SVal::D(rb)),
                        }
                    }
                    SVal::A(..) => Err(SpecError::NotAffine),
                    SVal::D(ra) => {
                        let rb = self.spec_expr(func, frame, b, out, depth)?;
                        let rb = self.to_resid(rb)?;
                        Ok(SVal::D(Expr::Bin(*op, Box::new(ra), Box::new(rb))))
                    }
                }
            }
            Expr::Bin(op, a, b) => {
                let va = self.spec_expr(func, frame, a, out, depth)?;
                let vb = self.spec_expr(func, frame, b, out, depth)?;
                match (va, vb) {
                    (SVal::S(x), SVal::S(y)) => Ok(SVal::S(eval_binop(*op, x, y)?)),
                    (x, y) => {
                        if let (Some(x), Some(y)) = (x.affine(), y.affine()) {
                            return self.affine_binop(*op, x, y).ok_or(SpecError::NotAffine);
                        }
                        let rx = self.to_resid(x)?;
                        let ry = self.to_resid(y)?;
                        Ok(SVal::D(Expr::Bin(*op, Box::new(rx), Box::new(ry))))
                    }
                }
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.spec_expr(func, frame, a, out, depth)?);
                }
                self.unfold_call(name, vals, out, depth)
            }
        }
    }

    fn to_resid(&self, v: SVal) -> Result<Expr, SpecError> {
        match v {
            SVal::S(v) => self.lift(&v),
            SVal::A(v, stride) => self.lift_strided(&v, stride),
            SVal::D(e) => Ok(e),
        }
    }

    /// `x op y` where at least one side moves with the summarized loop:
    /// again a (value, stride), or a truth value that holds in every
    /// iteration — otherwise `None`. Sums and products are checked over
    /// the whole range, so the unrolled path's wrapping arithmetic would
    /// not have wrapped either.
    fn affine_binop(
        &self,
        op: BinOp,
        (x, sx): (Value, i64),
        (y, sy): (Value, i64),
    ) -> Option<SVal> {
        let moved = |base: Value, stride: i64| {
            advance(base, self.at_last(0, stride)?)?; // the last iteration's value exists
            Some(aff(base, stride))
        };
        let (a, b) = match (x, y) {
            (Value::Long(a), Value::Long(b)) => (a, b),
            (Value::BufPtr(..), Value::Long(d)) => {
                return match op {
                    BinOp::Add => moved(advance(x, d)?, sx.checked_add(sy)?),
                    BinOp::Sub => moved(advance(x, d.checked_neg()?)?, sx.checked_sub(sy)?),
                    _ => None,
                }
            }
            _ => return None,
        };
        match op {
            BinOp::Add => moved(Value::Long(a.checked_add(b)?), sx.checked_add(sy)?),
            BinOp::Sub => moved(Value::Long(a.checked_sub(b)?), sx.checked_sub(sy)?),
            BinOp::Mul if sx == 0 => moved(Value::Long(a.checked_mul(b)?), a.checked_mul(sy)?),
            BinOp::Mul if sy == 0 => moved(Value::Long(a.checked_mul(b)?), b.checked_mul(sx)?),
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                // x − y is d0 in the first iteration, d1 in the last, and
                // linear in between: the endpoints bound it.
                let (d0, ds) = (a.checked_sub(b)?, sx.checked_sub(sy)?);
                let d1 = self.at_last(d0, ds)?;
                let truth = |d: i64| match op {
                    BinOp::Lt => d < 0,
                    BinOp::Le => d <= 0,
                    BinOp::Gt => d > 0,
                    _ => d >= 0,
                };
                let holds = match op {
                    BinOp::Eq | BinOp::Ne if ds == 0 => (d0 == 0) == (op == BinOp::Eq),
                    // The root lies outside the range: never equal.
                    BinOp::Eq | BinOp::Ne if d0.signum() * d1.signum() > 0 => op == BinOp::Ne,
                    BinOp::Eq | BinOp::Ne => return None,
                    _ if truth(d0) == truth(d1) => truth(d0),
                    _ => return None,
                };
                Some(SVal::S(Value::Long(holds as i64)))
            }
            _ => None,
        }
    }

    /// Unfold (inline-specialize) a call. Context sensitivity is by
    /// construction: each call site specializes the callee against its own
    /// static context. The callee's return value may be static even when
    /// its emitted residual statements are not (*static returns*, §4).
    fn unfold_call(
        &mut self,
        name: &str,
        args: Vec<SVal>,
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<SVal, SpecError> {
        let callee = self
            .prog
            .func(name)
            .ok_or_else(|| SpecError::UnknownFunction(name.to_string()))?;
        if args.len() != callee.params.len() {
            return Err(SpecError::BadArity {
                got: args.len(),
                want: callee.params.len(),
            });
        }
        self.report.calls_unfolded += 1;
        let mut frame = vec![SVal::S(Value::Long(0)); callee.var_count()];
        frame[..args.len()].clone_from_slice(&args);
        match self.spec_block(callee, &mut frame, &callee.body, out, depth + 1)? {
            Term::Returned(v) => Ok(v),
            Term::Fell => Ok(SVal::S(Value::Unit)),
            Term::ResidualReturned => Err(SpecError::DynamicReturnInUnfold(name.to_string())),
        }
    }

    // ---- statement specialization ----------------------------------------

    fn spec_block(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        stmts: &[Stmt],
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<Term, SpecError> {
        for s in stmts {
            match self.spec_stmt(func, frame, s, out, depth)? {
                Term::Fell => {}
                t => return Ok(t),
            }
        }
        Ok(Term::Fell)
    }

    fn spec_stmt(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        s: &Stmt,
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<Term, SpecError> {
        self.burn()?;
        match s {
            Stmt::Assign(lv, e) => {
                let sval = self.spec_expr(func, frame, e, out, depth)?;
                self.spec_assign(func, frame, lv, sval, out, depth)?;
                Ok(Term::Fell)
            }
            Stmt::If(c, t, els) => {
                let cond = self.spec_expr(func, frame, c, out, depth)?;
                match cond {
                    SVal::S(v) => {
                        self.report.static_ifs_folded += 1;
                        match self.report.folded_ifs_by_func.get_mut(&func.name) {
                            Some(folds) => *folds += 1,
                            None => {
                                self.report.folded_ifs_by_func.insert(func.name.clone(), 1);
                            }
                        }
                        if v.truthy()? {
                            self.spec_block(func, frame, t, out, depth)
                        } else {
                            self.spec_block(func, frame, els, out, depth)
                        }
                    }
                    SVal::A(..) => Err(SpecError::NotAffine),
                    SVal::D(rc) => self.spec_dynamic_if(func, frame, rc, t, els, out, depth),
                }
            }
            Stmt::While(c, b) => {
                if self.sum.is_some() {
                    return Err(SpecError::NotAffine);
                }
                // Execute statically as long as the condition stays static.
                let mut iters = 0u64;
                loop {
                    self.burn()?;
                    let cond = self.spec_expr(func, frame, c, out, depth)?;
                    match cond {
                        SVal::S(v) => {
                            if !v.truthy()? {
                                return Ok(Term::Fell);
                            }
                            iters += 1;
                            self.report.loop_iters_unrolled += 1;
                            if iters > 10_000_000 {
                                return Err(SpecError::OutOfFuel);
                            }
                            match self.spec_block(func, frame, b, out, depth)? {
                                Term::Fell => {}
                                t => return Ok(t),
                            }
                        }
                        SVal::A(..) => return Err(SpecError::NotAffine),
                        SVal::D(_) => return Err(SpecError::DynamicWhile),
                    }
                }
            }
            Stmt::For { var, lo, hi, body } => {
                let lo_v = self.spec_expr(func, frame, lo, out, depth)?;
                let hi_v = self.spec_expr(func, frame, hi, out, depth)?;
                match (lo_v, hi_v) {
                    (SVal::S(lo_v), SVal::S(hi_v)) => {
                        let lo = lo_v.as_long()?;
                        let hi = hi_v.as_long()?;
                        if self.summarize_for(func, frame, *var, (lo, hi), body, out, depth)? {
                            return Ok(Term::Fell);
                        }
                        // Full unrolling: the general case, and the paper's
                        // default residual code shape (Figure 5).
                        for i in lo..hi {
                            frame[*var] = SVal::S(Value::Long(i));
                            self.report.loop_iters_unrolled += 1;
                            match self.spec_block(func, frame, body, out, depth)? {
                                Term::Fell => {}
                                t => return Ok(t),
                            }
                        }
                        Ok(Term::Fell)
                    }
                    (lo_v, hi_v) => {
                        self.spec_dynamic_for(func, frame, *var, lo_v, hi_v, body, out, depth)
                    }
                }
            }
            Stmt::Expr(e) => {
                let v = self.spec_expr(func, frame, e, out, depth)?;
                // A dynamic non-call expression at statement position would
                // be dead; calls have already emitted their residuals.
                drop(v);
                Ok(Term::Fell)
            }
            Stmt::Return(None) => Ok(Term::Returned(SVal::S(Value::Unit))),
            Stmt::Return(Some(e)) => {
                let v = self.spec_expr(func, frame, e, out, depth)?;
                Ok(Term::Returned(v))
            }
        }
    }

    fn spec_assign(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        lv: &LValue,
        sval: SVal,
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<(), SpecError> {
        let (loc, _) = self.resolve_lvalue(func, frame, lv, out, depth)?;
        match loc {
            SLoc::Var(v) => {
                match &sval {
                    SVal::S(_) | SVal::A(..) => frame[v] = sval,
                    // A residual local born inside a summarized body would
                    // be one local where the unrolled path has one per trip.
                    SVal::D(_) if self.sum.is_some() => return Err(SpecError::NotAffine),
                    SVal::D(re) => {
                        // Dynamize the variable: allocate a residual local
                        // holding the run-time value.
                        let rv = self.fresh_local(func.var_name(v), func.var_type(v).clone());
                        out.push(Stmt::Assign(LValue::Var(rv), re.clone()));
                        frame[v] = SVal::D(Expr::Lv(Box::new(LValue::Var(rv))));
                    }
                }
                Ok(())
            }
            SLoc::Slot(p, 0) => match sval {
                SVal::S(v) => {
                    if self.masks[p.obj].slots[p.slot] {
                        // Writing a static value to a dynamic slot: the
                        // run-time state must be updated too (flow
                        // sensitivity: the slot becomes locally static).
                        let rlv = self.residual_lv(p, 0)?;
                        out.push(Stmt::Assign(rlv, self.lift(&v)?));
                        self.heap.write_slot(p, v)?;
                        self.masks[p.obj].slots[p.slot] = false;
                    } else {
                        self.heap.write_slot(p, v)?;
                        self.report.static_assigns += 1;
                    }
                    if let Some(sum) = &mut self.sum {
                        sum.strides.remove(&p);
                    }
                    Ok(())
                }
                SVal::A(v, stride) => {
                    let Some(sum) = &mut self.sum else {
                        return Err(SpecError::NotAffine);
                    };
                    if self.masks[p.obj].slots[p.slot] {
                        return Err(SpecError::NotAffine);
                    }
                    self.heap.write_slot(p, v)?;
                    sum.strides.insert(p, stride);
                    self.report.static_assigns += 1;
                    Ok(())
                }
                SVal::D(re) => {
                    let rlv = self.residual_lv(p, 0)?;
                    out.push(Stmt::Assign(rlv, re));
                    self.masks[p.obj].slots[p.slot] = true;
                    Ok(())
                }
            },
            // A moving slot takes run-time data only, and only where every
            // slot it reaches already holds run-time data: anything else
            // changes binding times one iteration at a time.
            SLoc::Slot(p, stride) => match sval {
                SVal::D(re) if self.range_dynamic(p, stride) => {
                    out.push(Stmt::Assign(self.residual_lv(p, stride)?, re));
                    Ok(())
                }
                _ => Err(SpecError::NotAffine),
            },
            SLoc::Buf(obj, off, stride) => {
                let ptr = self.lift_strided(&Value::BufPtr(obj, off), stride)?;
                let rhs = self.to_resid(sval)?;
                out.push(Stmt::Assign(LValue::Buf32(Box::new(ptr)), rhs));
                Ok(())
            }
            SLoc::DynL(dl) => {
                let rhs = self.to_resid(sval)?;
                out.push(Stmt::Assign(dl, rhs));
                Ok(())
            }
        }
    }

    fn snapshot(&self, frame: &[SVal]) -> State {
        State {
            heap: self.heap.clone(),
            masks: self.masks.clone(),
            frame: frame.to_vec(),
        }
    }

    fn restore(&mut self, st: State, frame: &mut Vec<SVal>) {
        self.heap = st.heap;
        self.masks = st.masks;
        *frame = st.frame;
    }

    /// Exchange the live state with `st`.
    fn swap_state(&mut self, st: &mut State, frame: &mut Vec<SVal>) {
        std::mem::swap(&mut self.heap, &mut st.heap);
        std::mem::swap(&mut self.masks, &mut st.masks);
        std::mem::swap(frame, &mut st.frame);
    }

    #[allow(clippy::too_many_arguments)]
    fn spec_dynamic_if(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        cond: Expr,
        t: &[Stmt],
        els: &[Stmt],
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<Term, SpecError> {
        if self.sum.is_some() {
            return Err(SpecError::NotAffine);
        }
        self.report.dynamic_ifs_residualized += 1;
        // One copy of the state serves both branches: `other` is whichever
        // state is not live — the pre-state while THEN runs, the THEN
        // state while ELSE runs on the pre-state.
        let mut other = self.snapshot(frame);
        let mut then_block = Vec::new();
        let then_term = self.spec_branch(func, frame, t, &mut then_block, depth)?;
        self.swap_state(&mut other, frame);
        let mut else_block = Vec::new();
        let else_term = self.spec_branch(func, frame, els, &mut else_block, depth)?;

        // Merge fall-through states.
        let then_falls = matches!(then_term, Term::Fell);
        let else_falls = matches!(else_term, Term::Fell);
        match (then_falls, else_falls) {
            (true, true) => {
                self.swap_state(&mut other, frame);
                self.merge_states(func, frame, &other, &mut then_block, &mut else_block)?;
            }
            (true, false) => self.restore(other, frame),
            // The ELSE state is live; if both returned, the state after is
            // unreachable.
            (false, _) => {}
        }

        out.push(Stmt::If(cond, then_block, else_block));
        if !then_falls && !else_falls {
            Ok(Term::ResidualReturned)
        } else {
            Ok(Term::Fell)
        }
    }

    /// Specialize a branch body, converting terminations into residual
    /// returns (entry level) or failing (inside unfolds).
    fn spec_branch(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        stmts: &[Stmt],
        block: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<Term, SpecError> {
        match self.spec_block(func, frame, stmts, block, depth)? {
            Term::Fell => Ok(Term::Fell),
            Term::Returned(v) => {
                if depth == 0 {
                    let re = match v {
                        SVal::S(Value::Unit) => None,
                        v => Some(self.to_resid(v)?),
                    };
                    block.push(Stmt::Return(re));
                    Ok(Term::ResidualReturned)
                } else {
                    Err(SpecError::DynamicReturnInUnfold(func.name.clone()))
                }
            }
            Term::ResidualReturned => Ok(Term::ResidualReturned),
        }
    }

    /// Merge the live state (branch `a`, whose residual is `a_block`) with
    /// the fall-through state `b` of the other branch, in place.
    fn merge_states(
        &mut self,
        func: &Function,
        frame: &mut [SVal],
        b: &State,
        a_block: &mut Vec<Stmt>,
        b_block: &mut Vec<Stmt>,
    ) -> Result<(), SpecError> {
        // Frame variables.
        for (v, (fv, vb)) in frame.iter_mut().zip(&b.frame).enumerate() {
            if fv == vb {
                continue;
            }
            // Diverged: dynamize through a fresh residual local assigned in
            // both branches.
            let rv = self.fresh_local(func.var_name(v), func.var_type(v).clone());
            a_block.push(Stmt::Assign(LValue::Var(rv), self.to_resid(fv.clone())?));
            b_block.push(Stmt::Assign(LValue::Var(rv), self.to_resid(vb.clone())?));
            *fv = SVal::D(Expr::Lv(Box::new(LValue::Var(rv))));
        }
        // Heap slots.
        for obj in 0..self.masks.len() {
            if self.masks[obj] == b.masks[obj]
                && self.heap.object(obj).data == b.heap.object(obj).data
            {
                continue; // the branches agree on the whole object
            }
            let nslots = self.masks[obj].slots.len();
            for slot in 0..nslots {
                let da = self.masks[obj].slots[slot];
                let db = b.masks[obj].slots[slot];
                let p = Place { obj, slot };
                if !da && !db {
                    let xa = self.heap.read_slot(p)?;
                    let xb = b.heap.read_slot(p)?;
                    if xa == xb {
                        continue;
                    }
                    // Static in both branches with different values: lift
                    // both sides into the residual and mark dynamic.
                    let rlv = self.residual_lv(p, 0)?;
                    a_block.push(Stmt::Assign(rlv.clone(), self.lift(&xa)?));
                    b_block.push(Stmt::Assign(rlv, self.lift(&xb)?));
                    self.masks[obj].slots[slot] = true;
                } else if da != db {
                    // Dynamic on one side only: the dynamic side has already
                    // written the residual location; the static side must
                    // materialize its value.
                    let (xv, static_block) = if da {
                        (b.heap.read_slot(p)?, &mut *b_block)
                    } else {
                        (self.heap.read_slot(p)?, &mut *a_block)
                    };
                    let rlv = self.residual_lv(p, 0)?;
                    static_block.push(Stmt::Assign(rlv, self.lift(&xv)?));
                    self.masks[obj].slots[slot] = true;
                }
                // Dynamic in both: already dynamic, nothing to do.
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn spec_dynamic_for(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        var: VarId,
        lo: SVal,
        hi: SVal,
        body: &[Stmt],
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<Term, SpecError> {
        if self.sum.is_some() {
            return Err(SpecError::NotAffine);
        }
        self.report.dynamic_loops_residualized += 1;
        // Residual loop: the induction variable becomes a residual local;
        // the body must not mutate static state (checked by snapshot
        // comparison) since it runs an unknown number of times.
        let rv = self.fresh_local(func.var_name(var), Type::Long);
        frame[var] = SVal::D(Expr::Lv(Box::new(LValue::Var(rv))));
        let lo_e = self.to_resid(lo)?;
        let hi_e = self.to_resid(hi)?;

        let pre = self.snapshot(frame);
        let mut body_block = Vec::new();
        let term = self.spec_block(func, frame, body, &mut body_block, depth)?;
        if !matches!(term, Term::Fell) {
            return Err(SpecError::DynamicLoopMutatesStatic);
        }
        let post = self.snapshot(frame);
        if pre.masks != post.masks || !heaps_static_equal(&pre, &post)? || pre.frame != post.frame {
            return Err(SpecError::DynamicLoopMutatesStatic);
        }
        out.push(Stmt::For {
            var: rv,
            lo: lo_e,
            hi: hi_e,
            body: body_block,
        });
        Ok(Term::Fell)
    }

    /// Try to specialize `for (var = lo; var < hi; var++) body` once for
    /// all iterations (module docs, "Loop summarization"). `Ok(true)`: one
    /// residual loop was emitted and the static state stands where the
    /// last iteration leaves it. `Ok(false)`: state, report and residual
    /// locals are as on entry, and the caller unrolls.
    #[allow(clippy::too_many_arguments)]
    fn summarize_for(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        var: VarId,
        (lo, hi): (i64, i64),
        body: &[Stmt],
        out: &mut Vec<Stmt>,
        depth: usize,
    ) -> Result<bool, SpecError> {
        if self.sum.is_some() {
            return Err(SpecError::NotAffine); // no loop nest inside a strided pass
        }
        if self.unroll_only || hi.checked_sub(lo).is_none_or(|trips| trips < 3) {
            return Ok(false);
        }
        let pre = self.snapshot(frame);
        let (report, nlocals) = (self.report.clone(), self.residual_locals.len());
        let proved = self.prove_loop(
            func,
            frame,
            var,
            (lo, hi),
            body,
            out,
            depth,
            (&pre, &report),
        );
        self.sum = None;
        if proved.is_err() {
            // Whatever went wrong, the unrolled path is the one to say so.
            self.restore(pre, frame);
            self.report = report;
            self.residual_locals.truncate(nlocals);
        }
        Ok(proved.is_ok())
    }

    /// The two passes of a summarization attempt; on `Ok` the loop has
    /// been emitted and accounted for, on `Err` the live state is garbage.
    #[allow(clippy::too_many_arguments)]
    fn prove_loop(
        &mut self,
        func: &Function,
        frame: &mut Vec<SVal>,
        var: VarId,
        (lo, hi): (i64, i64),
        body: &[Stmt],
        out: &mut Vec<Stmt>,
        depth: usize,
        (pre, report): (&State, &SpecReport),
    ) -> Result<(), SpecError> {
        let trips = hi - lo;
        let nlocals = self.residual_locals.len();
        let first = SVal::S(Value::Long(lo));
        let moved = |x: Value, by: i64, times: i64| {
            let by = by.checked_mul(times).ok_or(SpecError::NotAffine)?;
            advance(x, by).ok_or(SpecError::NotAffine)
        };

        // Pass 1 — a probe, not an argument: one concrete iteration proposes
        // the delta of everything static that moved.
        frame[var] = first.clone();
        let term = self.spec_block(func, frame, body, &mut Vec::new(), depth)?;
        let fell = matches!(term, Term::Fell) && self.residual_locals.len() == nlocals;
        if !fell || self.masks != pre.masks || frame[var] != first {
            return Err(SpecError::NotAffine);
        }
        let mut strides = HashMap::new();
        for obj in 0..self.heap.len() {
            let (before, after) = (&pre.heap.object(obj).data, &self.heap.object(obj).data);
            if let (ObjectData::Slots(before), ObjectData::Slots(after)) = (before, after) {
                for (slot, (x, y)) in before.iter().zip(after).enumerate() {
                    if x != y {
                        let by = delta(*x, *y).ok_or(SpecError::NotAffine)?;
                        strides.insert(Place { obj, slot }, by);
                    }
                }
            }
        }
        let mut seeded = pre.frame.clone();
        for (v, (x, y)) in pre.frame.iter().zip(frame.iter()).enumerate() {
            match (x, y) {
                _ if v == var || x == y => {}
                (SVal::S(x), SVal::S(y)) => {
                    seeded[v] = SVal::A(*x, delta(*x, *y).ok_or(SpecError::NotAffine)?)
                }
                _ => return Err(SpecError::NotAffine),
            }
        }
        seeded[var] = SVal::A(Value::Long(lo), 1);

        // Pass 2 — the induction step: the same body over state that moves.
        self.heap = pre.heap.clone();
        self.report = report.clone();
        self.report.loop_iters_unrolled += 1;
        let rv = self.fresh_local(func.var_name(var), Type::Long);
        self.sum = Some(Summarizing {
            rv,
            lo,
            trips,
            strides: strides.clone(),
        });
        frame.clone_from(&seeded);
        let mut residual_body = Vec::new();
        let term = self.spec_block(func, frame, body, &mut residual_body, depth)?;
        let sum = self.sum.take().expect("set above");

        // Accept only pre + δ with the same strides.
        let mut expected = pre.heap.clone();
        for (p, by) in &strides {
            expected.write_slot(*p, moved(pre.heap.read_slot(*p)?, *by, 1)?)?;
        }
        for x in seeded.iter_mut() {
            if let SVal::A(x, by) = x {
                *x = moved(*x, *by, 1)?;
            }
        }
        seeded[var] = SVal::A(Value::Long(lo), 1); // reassigned each trip, not advanced
        let fell = matches!(term, Term::Fell) && self.residual_locals.len() == nlocals + 1;
        let same_binding_times = self.masks == pre.masks && sum.strides == strides;
        if !fell || !same_binding_times || self.heap != expected || *frame != seeded {
            return Err(SpecError::NotAffine);
        }

        // The state after the last iteration: pre + trips·δ, the induction
        // variable as the last iteration saw it, one pass counted `trips`
        // times.
        for (p, by) in &strides {
            let v = moved(pre.heap.read_slot(*p)?, *by, trips)?;
            self.heap.write_slot(*p, v)?;
        }
        for (v, x) in seeded.iter().enumerate() {
            if let SVal::A(x, by) = x {
                frame[v] = SVal::S(moved(*x, *by, trips - 1)?);
            }
        }
        self.report.repeat_since(report, trips as u64);
        out.push(Stmt::For {
            var: rv,
            lo: Expr::Const(lo),
            hi: Expr::Const(hi),
            body: residual_body,
        });
        Ok(())
    }
}

fn heaps_static_equal(a: &State, b: &State) -> Result<bool, SpecError> {
    for obj in 0..a.masks.len() {
        for slot in 0..a.masks[obj].slots.len() {
            if !a.masks[obj].slots[slot] {
                let p = Place { obj, slot };
                if a.heap.read_slot(p)? != b.heap.read_slot(p)? {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// Where an lvalue lives at specialization time. Heap slots and buffer
/// offsets carry the stride they move by per iteration of the loop being
/// summarized (0 everywhere else).
enum SLoc {
    Var(VarId),
    Slot(Place, i64),
    Buf(ObjId, usize, i64),
    DynL(LValue),
}

#[cfg(test)]
mod tests;

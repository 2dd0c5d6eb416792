//! Execution of compiled stub programs against real buffers.
//!
//! [`run_encode`] and [`run_decode`] are the tight loops the benchmarks
//! measure. The executor runs the program's fused [`PlanOp`] form: scalar
//! and guard ops execute one at a time, while contiguous element runs
//! execute as **bulk block copies** — one bounds check and one
//! byte-swapping pass per array instead of one dispatch, one slot lookup,
//! and one bounds check per element. This is the runtime analog of the
//! paper compiling the residual with `gcc -O2`: the interpretation is
//! gone, only the work the data requires (byte order + memory movement)
//! remains. Trip-by-trip interpretation survives only for a loop that is
//! not one contiguous element run (no generated stub has one) — wire bytes
//! and [`OpCounts`] are identical either way, which the equivalence tests
//! pin.
//!
//! The block copy itself lives in the `kernel` module. On the baseline
//! x86-64 target the workspace is built for, the swap of each 32-bit word
//! compiles to SSE2 unpack / `pshuflw` / `pshufhw` / pack (≈13 B/ns); the
//! kernel holds a second instantiation of the same safe loop compiled with
//! AVX2 enabled (one `vpshufb` per 32 bytes, 4–6× faster) and picks it at
//! run time when the CPU has it. Everything a stub can get wrong is checked
//! here, before the kernel is called: slot and element ranges, the wire
//! slice, the dynamic guards; the kernel module — the workspace's only
//! `unsafe`, three calls of a safe `#[target_feature]` function — receives
//! slices of the right length and cannot fail. Offsets are displaced in
//! saturating `i64`, so a step no buffer could hold ends in
//! [`StubError::BufTooSmall`] / [`StubError::BadElem`] in every profile.
//!
//! Two zero-fills the data never needed are gone: a decode's `SetArrLen`
//! followed by the bulk get of the whole array is one
//! [`PlanOp::BulkFill`] (clear + extend, each element written once), and an
//! encode zeroes exactly the program's [`StubProgram::holes`] — none for
//! generated stubs — so callers need not clear the buffer between messages.
//!
//! The message header is one step as well: its static words are folded
//! constants, as in the paper's residual C. An encode's header is a
//! [`PlanOp::PutImage`], a copy of the header image encoded when the
//! program was built with the dynamic words patched in (the xid override,
//! argument or result slots); a decode's is a [`PlanOp::GetImage`], the
//! `inlen` test, every checked word compared at once (`wire & mask ==
//! image`) and the load of every word a scalar takes. So every generated
//! stub plans to one of four shapes: `PutImage` or `GetImage`, at most
//! one element step (a bulk put, or a decode's fill of the whole array),
//! then `Ret`.
//!
//! Those four shapes do not run as plans. [`super::compile`] binds each to
//! a **kernel** ([`Kernel`]) — the run-time template of the residual
//! function, one monomorphic function per shape and header width class,
//! compiled ahead of time like Tempo's pre-compiled templates: one bounds
//! check for the stub's whole reach, the header copied or compared as two
//! fixed-width blocks, the patches or the load of the header's scalar run,
//! the element step through the block kernels, and every op's counts at
//! once. No step loop, no `Result` per step, no scan of holes or array
//! bounds, no planning check. The executor stays the reference, the
//! runner of hand-assembled programs and of any plan that was changed
//! (a change drops the kernel, [`super::Plan`]), and the fallback: a
//! kernel that cannot finish — a guard fails, the buffer is too short, a
//! slot is missing — has stored nothing and hands the whole call to it.
//!
//! The accounting rule is op-by-op's. A kernel counts what all its ops
//! would; the executor runs an image step's ops one by one, so a
//! `Fallback` carries the counts of the ops up to the failing guard, and
//! an error its variant, offset and partial writes.

use super::{build_plan, count_op, kernel, rolled, Image, Plan, PlanOp, StubOp, StubProgram};
use specrpc_xdr::OpCounts;
use std::fmt;

/// The specialized calling convention: scalar arguments and integer arrays
/// by slot. `rpcgen` assigns the slots when it generates conventions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StubArgs {
    /// Scalar slots.
    pub scalars: Vec<i32>,
    /// Array slots.
    pub arrays: Vec<Vec<i32>>,
}

impl StubArgs {
    /// Convenience constructor.
    pub fn new(scalars: Vec<i32>, arrays: Vec<Vec<i32>>) -> Self {
        StubArgs { scalars, arrays }
    }

    /// Shape the slots for a decode: `scalars` zeroed scalar slots,
    /// `arrays` cleared array slots — reusing every existing allocation
    /// (the zero-allocation reset both facade sides use between calls).
    pub fn prepare(&mut self, scalars: usize, arrays: usize) {
        self.scalars.clear();
        self.scalars.resize(scalars, 0);
        if self.arrays.len() > arrays {
            self.arrays.truncate(arrays);
        } else {
            self.arrays.resize_with(arrays, Vec::new);
        }
        for a in &mut self.arrays {
            a.clear();
        }
    }
}

/// Result of running a stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The stub completed; `ret` is the residual return value and
    /// `wire_len` the bytes read/written.
    Done {
        /// Residual return value (C `TRUE`/`FALSE`).
        ret: i32,
        /// Bytes of wire data processed.
        wire_len: usize,
    },
    /// A dynamic guard failed (`inlen` mismatch, reply-word mismatch):
    /// the caller must run the generic path instead — the §6.2 `else`
    /// branch that "preserves the semantics".
    Fallback,
}

/// Hard execution failures (these indicate harness bugs, not wire
/// conditions — wire conditions produce [`Outcome::Fallback`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StubError {
    /// Buffer shorter than an op's reach.
    BufTooSmall {
        /// Byte offset of the access.
        off: usize,
        /// Buffer length.
        len: usize,
    },
    /// Scalar slot out of range.
    BadScalarSlot(u16),
    /// Array slot out of range.
    BadArraySlot(u16),
    /// Array element out of range: one the stub reads is missing or, with
    /// `idx` the elements the stub carries, the array holds more.
    BadElem {
        /// Array slot.
        arr: u16,
        /// Element index.
        idx: usize,
        /// Array length.
        len: usize,
    },
    /// Malformed loop structure, or a plan step whose image the program
    /// lacks.
    BadLoop,
    /// Decode op encountered while encoding or vice versa.
    WrongDirection(&'static str),
}

impl fmt::Display for StubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StubError::BufTooSmall { off, len } => {
                write!(f, "buffer too small: access at {off}, length {len}")
            }
            StubError::BadScalarSlot(s) => write!(f, "scalar slot {s} out of range"),
            StubError::BadArraySlot(a) => write!(f, "array slot {a} out of range"),
            StubError::BadElem { arr, idx, len } => {
                write!(f, "array {arr} element {idx} out of range (len {len})")
            }
            StubError::BadLoop => write!(f, "malformed loop structure"),
            StubError::WrongDirection(op) => write!(f, "op {op} illegal in this direction"),
        }
    }
}

impl std::error::Error for StubError {}

/// An op's static offset (or element index) displaced by `by`, what the
/// enclosing loop's trips so far have moved it. A sum below zero or past
/// `i64` comes out above `i64::MAX`, which fails the bounds check that
/// follows instead of wrapping back into range.
#[inline(always)]
fn displaced(base: u32, by: i64) -> usize {
    usize::try_from((base as i64).wrapping_add(by) as u64).unwrap_or(usize::MAX)
}

/// Run the loop at `plan[pc]` trip by trip: every body op through `run`
/// as a plan of its own, displaced by the [`StubOp::Step`] before it times
/// the trips made so far. Returns the step after the loop, and the outcome
/// if an op finished the run. A generated stub's loops are all bulk steps,
/// so this is off the hot path — which therefore keeps no loop state.
fn iterate(
    plan: &[PlanOp],
    pc: usize,
    times: u32,
    mut run: impl FnMut(&[PlanOp], (i64, i64)) -> Result<Option<Outcome>, StubError>,
) -> Result<(usize, Option<Outcome>), StubError> {
    let past = skip_loop(plan, pc)?;
    let body = &plan[pc + 1..past - 1];
    for trip in 0..times as i64 {
        let mut by = (0, 0);
        for (i, step) in body.iter().enumerate() {
            if let PlanOp::Op(StubOp::Step { off, idx }) = *step {
                by = (off as i64 * trip, idx as i64 * trip);
            } else if let done @ Some(_) = run(&body[i..=i], std::mem::take(&mut by))? {
                return Ok((past, done));
            }
        }
    }
    Ok((past, None))
}

/// Whether `prog`'s plan was emptied, so that it must be planned on the
/// fly ([`planned`]) before it runs.
#[inline(always)]
fn unplanned(prog: &StubProgram) -> bool {
    prog.plan.is_empty() && !prog.ops.is_empty()
}

/// `prog` with the plan of its ops. Off the hot path: a program only
/// lacks one if its plan was emptied.
#[cold]
#[inline(never)]
fn planned(prog: &StubProgram) -> StubProgram {
    StubProgram {
        plan: build_plan(&prog.ops),
        ..prog.clone()
    }
}

/// The image a step indexes.
#[inline(always)]
fn image(prog: &StubProgram, at: u32) -> Result<&Image, StubError> {
    prog.plan.images.get(at as usize).ok_or(StubError::BadLoop)
}

/// What encoding scalar slot `slot` writes: `xid`, when given, for slot 0,
/// otherwise `args.scalars[slot - first_slot]`.
#[inline(always)]
fn scalar(args: &StubArgs, (xid, first_slot): (Option<i32>, usize), slot: u16) -> Option<i32> {
    match xid {
        Some(x) if slot == 0 => Some(x),
        _ => (slot as usize)
            .checked_sub(first_slot)
            .and_then(|s| args.scalars.get(s))
            .copied(),
    }
}

/// Run an encode stub: reads `args`, writes `buf`.
pub fn run_encode(
    prog: &StubProgram,
    buf: &mut [u8],
    args: &StubArgs,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    encode_inner(prog, buf, args, None, 0, counts)
}

/// Run an encode stub with scalar slot 0 (the xid slot of the RPC calling
/// convention) overridden by `xid` — the zero-copy lane's way of stamping
/// a fresh transaction id without cloning the caller's argument slots.
pub fn run_encode_with_xid(
    prog: &StubProgram,
    buf: &mut [u8],
    args: &StubArgs,
    xid: i32,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    encode_inner(prog, buf, args, Some(xid), 0, counts)
}

/// Run an encode stub whose scalar slot 0 is `xid` and whose scalar slots
/// `1..` are `results.scalars[0..]` — the server's way of stamping the
/// transaction id in front of a handler's result slots without shifting
/// them (an `insert(0, xid)` into the handler's fresh `Vec` allocates).
pub fn run_encode_after_xid(
    prog: &StubProgram,
    buf: &mut [u8],
    results: &StubArgs,
    xid: i32,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    encode_inner(prog, buf, results, Some(xid), 1, counts)
}

/// `xid`, when given, is what scalar slot 0 encodes; every other scalar
/// slot `s` reads `args.scalars[s - first_slot]`. The program's kernel
/// runs it whole when it can, the plan executor otherwise.
#[inline(always)]
fn encode_inner(
    prog: &StubProgram,
    buf: &mut [u8],
    args: &StubArgs,
    xid: Option<i32>,
    first_slot: usize,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    if let Some(k) = &prog.plan.kernel {
        if prog.holes.is_empty() && k.encode(buf, args, (xid, first_slot)) {
            return Ok(k.done(prog, counts));
        }
    }
    execute_encode(prog, buf, args, xid, first_slot, counts)
}

/// [`encode_inner`] step by step, through the plan.
#[inline(never)]
fn execute_encode(
    prog: &StubProgram,
    buf: &mut [u8],
    args: &StubArgs,
    xid: Option<i32>,
    first_slot: usize,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    if unplanned(prog) {
        return execute_encode(&planned(prog), buf, args, xid, first_slot, counts);
    }
    // The bytes no op stores are the stub's to clear. A buffer too short
    // for a hole is reported by the op that falls outside it, as before.
    for hole in &prog.holes {
        let end = hole.end.min(buf.len());
        if let Some(gap) = buf.get_mut(hole.start..end) {
            gap.fill(0);
        }
    }
    // An array fills at most the slots its conventions cover — for a
    // generated stub, the length its header image carries: a longer one
    // is refused like a shorter one, never cut to fit.
    for &(arr, n) in &prog.elems {
        if let Some(a) = args.arrays.get(arr as usize).filter(|a| a.len() > n) {
            let len = a.len();
            return Err(StubError::BadElem { arr, idx: n, len });
        }
    }
    let slots = (xid, first_slot);
    let done = encode_steps(&prog.plan, (0, 0), buf, args, slots, prog, counts)?;
    let wire_len = prog.wire_len;
    Ok(done.unwrap_or(Outcome::Done { ret: 1, wire_len }))
}

/// [`iterate`] for an encode: kept out of line, so that the run of a plan
/// without a loop — every generated stub's — pays nothing for it.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn encode_loop(
    plan: &[PlanOp],
    pc: usize,
    times: u32,
    buf: &mut [u8],
    args: &StubArgs,
    slots: (Option<i32>, usize),
    prog: &StubProgram,
    counts: &mut OpCounts,
) -> Result<(usize, Option<Outcome>), StubError> {
    iterate(plan, pc, times, |op, by| {
        encode_steps(op, by, buf, args, slots, prog, counts)
    })
}

/// Run `plan`, every op displaced by `by` (nothing, unless `plan` is one
/// op of a loop body in a later trip): the outcome of the op that finished
/// the run, `None` if it ran off the end.
fn encode_steps(
    plan: &[PlanOp],
    (off_by, idx_by): (i64, i64),
    buf: &mut [u8],
    args: &StubArgs,
    slots: (Option<i32>, usize),
    prog: &StubProgram,
    counts: &mut OpCounts,
) -> Result<Option<Outcome>, StubError> {
    let mut pc = 0usize;
    while pc < plan.len() {
        match plan[pc] {
            // A kernel's header; the executor stores its ops one by one.
            PlanOp::PutImage { at, .. } => {
                let ops = &image(prog, at)?.replay;
                let done = encode_steps(ops, (off_by, idx_by), buf, args, slots, prog, counts)?;
                if done.is_some() {
                    return Ok(done);
                }
            }
            PlanOp::BulkPut {
                off,
                arr,
                idx,
                n,
                ops,
            } => {
                let a = args
                    .arrays
                    .get(arr as usize)
                    .ok_or(StubError::BadArraySlot(arr))?;
                let i0 = displaced(idx, idx_by);
                let missing = run_outside(arr, i0, a.len());
                let src = span(i0, n as usize).and_then(|r| a.get(r)).ok_or(missing)?;
                kernel::put(wire_mut(buf, displaced(off, off_by), 4 * src.len())?, src);
                counts.stub_ops += ops as u64;
                counts.mem_moves += 4 * n as u64;
            }
            PlanOp::BulkGet { .. } | PlanOp::GetImage { .. } => {
                return Err(StubError::WrongDirection("get in encode"));
            }
            PlanOp::BulkFill { .. } => {
                return Err(StubError::WrongDirection("decode-only op in encode"));
            }
            PlanOp::Op(op) => match op {
                StubOp::PutImm { off, word } => {
                    put4(buf, displaced(off, off_by), word.to_le_bytes())?;
                    count_op(counts, 4);
                }
                StubOp::PutScalar { off, slot } => {
                    let v = scalar(args, slots, slot).ok_or(StubError::BadScalarSlot(slot))?;
                    put4(buf, displaced(off, off_by), v.to_be_bytes())?;
                    count_op(counts, 4);
                }
                StubOp::PutElem { off, arr, idx } => {
                    let a = args
                        .arrays
                        .get(arr as usize)
                        .ok_or(StubError::BadArraySlot(arr))?;
                    let i = displaced(idx, idx_by);
                    let v = *a.get(i).ok_or(StubError::BadElem {
                        arr,
                        idx: i,
                        len: a.len(),
                    })?;
                    put4(buf, displaced(off, off_by), v.to_be_bytes())?;
                    count_op(counts, 4);
                }
                StubOp::Loop { times, unroll, .. } => {
                    // The header is an op of the modeled code only where
                    // that code keeps a loop; unrolled, nothing to count.
                    counts.stub_ops += rolled(times, unroll) as u64;
                    let (past, done) =
                        encode_loop(plan, pc, times, buf, args, slots, prog, counts)?;
                    if done.is_some() {
                        return Ok(done);
                    }
                    pc = past;
                    continue;
                }
                // Moves the op after it inside a loop; nothing on its own.
                StubOp::Step { .. } => {}
                StubOp::EndLoop => return Err(StubError::BadLoop),
                StubOp::Ret { val } => {
                    count_op(counts, 0);
                    let wire_len = prog.wire_len;
                    return Ok(Some(Outcome::Done { ret: val, wire_len }));
                }
                StubOp::SetScalarImm { .. } | StubOp::SetArrLen { .. } => {
                    return Err(StubError::WrongDirection("decode-only op in encode"))
                }
                StubOp::GetScalar { .. } | StubOp::GetElem { .. } => {
                    return Err(StubError::WrongDirection("get in encode"))
                }
                StubOp::CheckWord { .. } | StubOp::CheckScalar { .. } | StubOp::LenGuard { .. } => {
                    return Err(StubError::WrongDirection("guard in encode"))
                }
            },
        }
        pc += 1;
    }
    Ok(None)
}

/// Run a decode stub: reads `buf` (of `inlen` valid bytes), writes `args`.
/// The program's kernel runs it whole when it can, the plan executor
/// otherwise.
pub fn run_decode(
    prog: &StubProgram,
    buf: &[u8],
    args: &mut StubArgs,
    inlen: usize,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    if let Some(k) = &prog.plan.kernel {
        if k.decode(buf, args, inlen) {
            return Ok(k.done(prog, counts));
        }
    }
    execute_decode(prog, buf, args, inlen, counts)
}

/// [`run_decode`] step by step, through the plan.
#[inline(never)]
fn execute_decode(
    prog: &StubProgram,
    buf: &[u8],
    args: &mut StubArgs,
    inlen: usize,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    if unplanned(prog) {
        return execute_decode(&planned(prog), buf, args, inlen, counts);
    }
    let done = decode_steps(&prog.plan, (0, 0), buf, args, inlen, prog, counts)?;
    let wire_len = prog.wire_len;
    Ok(done.unwrap_or(Outcome::Done { ret: 1, wire_len }))
}

/// The decode-side mirror of [`encode_loop`].
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn decode_loop(
    plan: &[PlanOp],
    pc: usize,
    times: u32,
    buf: &[u8],
    args: &mut StubArgs,
    inlen: usize,
    prog: &StubProgram,
    counts: &mut OpCounts,
) -> Result<(usize, Option<Outcome>), StubError> {
    iterate(plan, pc, times, |op, by| {
        decode_steps(op, by, buf, args, inlen, prog, counts)
    })
}

/// The decode-side mirror of [`encode_steps`].
fn decode_steps(
    plan: &[PlanOp],
    (off_by, idx_by): (i64, i64),
    buf: &[u8],
    args: &mut StubArgs,
    inlen: usize,
    prog: &StubProgram,
    counts: &mut OpCounts,
) -> Result<Option<Outcome>, StubError> {
    let mut pc = 0usize;
    while pc < plan.len() {
        match plan[pc] {
            // A kernel's header; the executor runs its ops one by one.
            PlanOp::GetImage { at, .. } => {
                let ops = &image(prog, at)?.replay;
                let done = decode_steps(ops, (off_by, idx_by), buf, args, inlen, prog, counts)?;
                if done.is_some() {
                    return Ok(done);
                }
            }
            PlanOp::BulkGet {
                off,
                arr,
                idx,
                n,
                ops,
            } => {
                let a = args
                    .arrays
                    .get_mut(arr as usize)
                    .ok_or(StubError::BadArraySlot(arr))?;
                let i0 = displaced(idx, idx_by);
                let missing = run_outside(arr, i0, a.len());
                let dst = span(i0, n as usize)
                    .and_then(|r| a.get_mut(r))
                    .ok_or(missing)?;
                kernel::get(dst, wire(buf, displaced(off, off_by), 4 * n as usize)?);
                counts.stub_ops += ops as u64;
                counts.mem_moves += 4 * n as u64;
            }
            PlanOp::BulkFill { off, arr, n, ops } => {
                let a = args
                    .arrays
                    .get_mut(arr as usize)
                    .ok_or(StubError::BadArraySlot(arr))?;
                let src = wire(buf, displaced(off, off_by), 4 * n as usize)?;
                kernel::fill(a, src);
                counts.stub_ops += ops as u64;
                counts.mem_moves += 4 * n as u64;
            }
            PlanOp::BulkPut { .. } | PlanOp::PutImage { .. } => {
                return Err(StubError::WrongDirection("put in decode"));
            }
            PlanOp::Op(op) => match op {
                StubOp::LenGuard { expected } => {
                    count_op(counts, 0);
                    if inlen != expected as usize {
                        return Ok(Some(Outcome::Fallback));
                    }
                }
                StubOp::CheckWord { off, want } => {
                    let v = get4(buf, displaced(off, off_by))?;
                    count_op(counts, 4);
                    if i32::from_be_bytes(v) != want {
                        return Ok(Some(Outcome::Fallback));
                    }
                }
                StubOp::CheckScalar { slot, want } => {
                    let v = *args
                        .scalars
                        .get(slot as usize)
                        .ok_or(StubError::BadScalarSlot(slot))?;
                    count_op(counts, 0);
                    if v != want {
                        return Ok(Some(Outcome::Fallback));
                    }
                }
                StubOp::GetScalar { off, slot } => {
                    let v = i32::from_be_bytes(get4(buf, displaced(off, off_by))?);
                    let s = args
                        .scalars
                        .get_mut(slot as usize)
                        .ok_or(StubError::BadScalarSlot(slot))?;
                    *s = v;
                    count_op(counts, 4);
                }
                StubOp::GetElem { off, arr, idx } => {
                    let v = i32::from_be_bytes(get4(buf, displaced(off, off_by))?);
                    let a = args
                        .arrays
                        .get_mut(arr as usize)
                        .ok_or(StubError::BadArraySlot(arr))?;
                    let i = displaced(idx, idx_by);
                    let len = a.len();
                    *a.get_mut(i)
                        .ok_or(StubError::BadElem { arr, idx: i, len })? = v;
                    count_op(counts, 4);
                }
                StubOp::SetScalarImm { slot, val } => {
                    let s = args
                        .scalars
                        .get_mut(slot as usize)
                        .ok_or(StubError::BadScalarSlot(slot))?;
                    *s = val;
                    count_op(counts, 0);
                }
                StubOp::SetArrLen { arr, len } => {
                    let a = args
                        .arrays
                        .get_mut(arr as usize)
                        .ok_or(StubError::BadArraySlot(arr))?;
                    a.resize(len as usize, 0);
                    count_op(counts, 0);
                }
                StubOp::Loop { times, unroll, .. } => {
                    counts.stub_ops += rolled(times, unroll) as u64;
                    let (past, done) =
                        decode_loop(plan, pc, times, buf, args, inlen, prog, counts)?;
                    if done.is_some() {
                        return Ok(done);
                    }
                    pc = past;
                    continue;
                }
                // Moves the op after it inside a loop; nothing on its own.
                StubOp::Step { .. } => {}
                StubOp::EndLoop => return Err(StubError::BadLoop),
                StubOp::Ret { val } => {
                    count_op(counts, 0);
                    let wire_len = prog.wire_len;
                    return Ok(Some(Outcome::Done { ret: val, wire_len }));
                }
                StubOp::PutImm { .. } | StubOp::PutScalar { .. } | StubOp::PutElem { .. } => {
                    return Err(StubError::WrongDirection("put in decode"))
                }
            },
        }
        pc += 1;
    }
    Ok(None)
}

/// What a bulk step reports when its element run, starting at `i0`, does
/// not lie inside an array of `len` elements: the first missing element.
#[inline(always)]
fn run_outside(arr: u16, i0: usize, len: usize) -> StubError {
    StubError::BadElem {
        arr,
        idx: len.max(i0),
        len,
    }
}

/// `start..start + len`, unless that overflows.
#[inline(always)]
fn span(start: usize, len: usize) -> Option<std::ops::Range<usize>> {
    Some(start..start.checked_add(len)?)
}

/// The one bounds check of a wire read: `nbytes` of `buf` at `off`.
#[inline(always)]
fn wire(buf: &[u8], off: usize, nbytes: usize) -> Result<&[u8], StubError> {
    buf.get(off..)
        .and_then(|tail| tail.get(..nbytes))
        .ok_or(StubError::BufTooSmall {
            off,
            len: buf.len(),
        })
}

/// The one bounds check of a wire write: `nbytes` of `buf` at `off`.
#[inline(always)]
fn wire_mut(buf: &mut [u8], off: usize, nbytes: usize) -> Result<&mut [u8], StubError> {
    let len = buf.len();
    buf.get_mut(off..)
        .and_then(|tail| tail.get_mut(..nbytes))
        .ok_or(StubError::BufTooSmall { off, len })
}

#[inline(always)]
fn put4(buf: &mut [u8], off: usize, bytes: [u8; 4]) -> Result<(), StubError> {
    wire_mut(buf, off, 4)?.copy_from_slice(&bytes);
    Ok(())
}

#[inline(always)]
fn get4(buf: &[u8], off: usize) -> Result<[u8; 4], StubError> {
    let mut b = [0u8; 4];
    b.copy_from_slice(wire(buf, off, 4)?);
    Ok(b)
}

/// The step after the loop at `plan[pc]`; `BadLoop` unless its body ends,
/// inside the plan, in an `EndLoop`.
fn skip_loop(plan: &[PlanOp], pc: usize) -> Result<usize, StubError> {
    match plan.get(pc) {
        Some(PlanOp::Op(StubOp::Loop { body, .. })) => {
            let end = span(pc + 1, *body as usize).ok_or(StubError::BadLoop)?.end;
            match plan.get(end) {
                Some(PlanOp::Op(StubOp::EndLoop)) => Ok(end + 1),
                _ => Err(StubError::BadLoop),
            }
        }
        _ => Err(StubError::BadLoop),
    }
}

/// The scalars an encode writes: the xid that stands for slot 0, if
/// given, and the slot `args.scalars[0]` holds.
type Slots = (Option<i32>, usize);

/// A kernel's monomorphic function, by direction.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Encode(fn(&Kernel, &mut [u8], &StubArgs, Slots) -> bool),
    Decode(fn(&Kernel, &[u8], &mut StubArgs, usize) -> bool),
}

/// The element step a kernel runs after its header: a bulk put of
/// elements `idx..idx + n` of array `arr` at byte `off` (encode), or the
/// fill of the whole array from there (decode, `idx` 0).
#[derive(Debug, Clone, Copy)]
struct Elem {
    off: usize,
    arr: usize,
    idx: usize,
    n: usize,
    /// Encode: the most elements the array may hold (the conventions'
    /// bound), `usize::MAX` if they set none.
    limit: usize,
}

/// A generated stub's whole run as one call: the run-time template of
/// the residual function, its holes filled per message.
///
/// Bound by [`super::compile`] to the plan's shape: a header image step,
/// at most one element step, then `Ret` — which is every generated stub's
/// plan. The kernel is one monomorphic function per shape and
/// header width class ([`Kernel::bind`]): one bounds check for its whole
/// reach, a copy or masked compare of the header in two fixed-width
/// blocks, the patches or the load of the header's scalar run, the
/// element step through the block kernels, and the counts and `Outcome`
/// of all its ops at once.
///
/// It checks everything before it stores anything: a guard that fails, a
/// buffer too short or a slot or element missing returns `false` having
/// written nothing, and the caller hands the whole call to the plan
/// executor, so every outcome, error, partial write and partial count is
/// the executor's, which are op-by-op's.
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    entry: Entry,
    /// The header's byte offset.
    at: usize,
    /// The header image and, decoding, its guard mask (empty when nothing
    /// is checked).
    bytes: Box<[u8]>,
    mask: Box<[u8]>,
    /// Encode: each dynamic word's offset in the header and its slot.
    patches: Box<[(usize, u16)]>,
    /// Encode: the lowest and highest slot a patch reads, of all patches
    /// and of those but slot 0's (which an xid serves when given).
    slots: Option<(usize, usize)>,
    slots_but_xid: Option<(usize, usize)>,
    /// Decode: the header's scalar run — byte offset in the header, first
    /// slot, word count.
    loads: (usize, usize, usize),
    /// Decode: the `inlen` the header's guard wants, if it has one.
    inlen: Option<usize>,
    elem: Option<Elem>,
    /// The end of the furthest byte the stub reaches.
    end: usize,
    /// What `Ret` returns, and the ops and bytes all the steps count.
    ret: i32,
    ops: u64,
    moves: u64,
}

impl Kernel {
    /// The kernel of `plan`, if it has the shape of a generated stub's: a
    /// header image of 4 to 255 bytes, then a bulk put (an encode's, of the
    /// one array `elems` bounds, if it bounds any) or a fill (a decode's)
    /// or nothing, then `Ret`; a decode's header loads one scalar run.
    /// `None` otherwise, and the executor runs the plan.
    pub(crate) fn bind(plan: &Plan, elems: &[(u16, usize)]) -> Option<Kernel> {
        let (head, elem, ret) = match plan.steps[..] {
            [head, PlanOp::Op(StubOp::Ret { val })] => (head, None, val),
            [head, elem, PlanOp::Op(StubOp::Ret { val })] => (head, Some(elem), val),
            _ => return None,
        };
        let (at, image, encode) = match head {
            PlanOp::PutImage { off, at } => (off, plan.images.get(at as usize)?, true),
            PlanOp::GetImage { off, at } => (off, plan.images.get(at as usize)?, false),
            _ => return None,
        };
        let elem = match (elem, encode) {
            (None, _) => None,
            (
                Some(PlanOp::BulkPut {
                    off,
                    arr,
                    idx,
                    n,
                    ops,
                }),
                true,
            ) => Some((off, arr, idx, n, ops)),
            (Some(PlanOp::BulkFill { off, arr, n, ops }), false) => Some((off, arr, 0, n, ops)),
            _ => return None,
        };
        // An encode refuses an array longer than its conventions' bound:
        // the kernel holds that bound for its own array, and no other.
        let mut limit = usize::MAX;
        for &(arr, n) in elems.iter().filter(|_| encode) {
            match elem {
                Some((_, a, ..)) if a == arr => limit = limit.min(n),
                _ => return None,
            }
        }
        let (at, len) = (at as usize, image.bytes.len());
        let mut end = at.checked_add(len)?;
        let (mut ops, mut moves) = (image.ops + 1, image.moves);
        let elem = match elem {
            Some((off, arr, idx, n, o)) => {
                let (off, idx, n) = (off as usize, idx as usize, n as usize);
                idx.checked_add(n)?;
                end = end.max(off.checked_add(n.checked_mul(4)?)?);
                (ops, moves) = (ops + o as u64, moves + 4 * n as u64);
                let arr = arr as usize;
                Some(Elem {
                    off,
                    arr,
                    idx,
                    n,
                    limit,
                })
            }
            None => None,
        };
        let patched = |but_xid: bool| {
            let slots = image.patches.iter().map(|&(_, s)| s as usize);
            let slots = slots.filter(move |&s| !(but_xid && s == 0));
            slots.clone().min().zip(slots.max())
        };
        // A decode's loads are one run: word k of it into slot `first + k`.
        let loads = match image.patches[..] {
            [(from, first), ..] if !encode => {
                let run = (image.patches.iter().enumerate())
                    .all(|(k, &(o, s))| o == from + 4 * k && s as usize == first as usize + k);
                if !run {
                    return None;
                }
                (from, first as usize, image.patches.len())
            }
            _ => (0, 0, 0),
        };
        // The header's width class: `B <= len < 2B`.
        macro_rules! by_width {
            ($run:ident) => {
                match len.checked_ilog2()? {
                    2 => $run::<4>,
                    3 => $run::<8>,
                    4 => $run::<16>,
                    5 => $run::<32>,
                    6 => $run::<64>,
                    7 => $run::<128>,
                    _ => return None,
                }
            };
        }
        let entry = if encode {
            Entry::Encode(by_width!(encode_with))
        } else {
            Entry::Decode(by_width!(decode_with))
        };
        Some(Kernel {
            entry,
            at,
            bytes: image.bytes.clone().into(),
            mask: image.mask.clone().into(),
            patches: image.patches.clone().into(),
            slots: patched(false),
            slots_but_xid: patched(true),
            loads,
            inlen: image.inlen,
            elem,
            end,
            ret,
            ops,
            moves,
        })
    }

    /// Run as an encode: `false`, having written nothing, unless it ran.
    #[inline(always)]
    fn encode(&self, buf: &mut [u8], args: &StubArgs, slots: Slots) -> bool {
        match self.entry {
            Entry::Encode(run) => run(self, buf, args, slots),
            Entry::Decode(_) => false,
        }
    }

    /// Run as a decode: `false`, having loaded nothing, unless it ran.
    #[inline(always)]
    fn decode(&self, buf: &[u8], args: &mut StubArgs, inlen: usize) -> bool {
        match self.entry {
            Entry::Decode(run) => run(self, buf, args, inlen),
            Entry::Encode(_) => false,
        }
    }

    /// Count what a run did, and its outcome.
    #[inline(always)]
    fn done(&self, prog: &StubProgram, counts: &mut OpCounts) -> Outcome {
        counts.stub_ops += self.ops;
        counts.mem_moves += self.moves;
        let wire_len = prog.wire_len;
        Outcome::Done {
            ret: self.ret,
            wire_len,
        }
    }
}

/// The encode kernel of a header of `B..2B` bytes.
fn encode_with<const B: usize>(
    k: &Kernel,
    buf: &mut [u8],
    args: &StubArgs,
    (xid, first): Slots,
) -> bool {
    let Some(wire) = buf.get_mut(..k.end) else {
        return false;
    };
    let slots = if xid.is_some() {
        k.slots_but_xid
    } else {
        k.slots
    };
    if slots.is_some_and(|(lo, hi)| lo < first || hi - first >= args.scalars.len()) {
        return false;
    }
    let elements = match k.elem {
        None => None,
        Some(e) => match args.arrays.get(e.arr) {
            Some(a) if a.len() <= e.limit => match a.get(e.idx..e.idx + e.n) {
                Some(src) => Some((e, src)),
                None => return false,
            },
            _ => return false,
        },
    };
    let head = &mut wire[k.at..k.at + k.bytes.len()];
    kernel::put_header::<B>(head, &k.bytes);
    for &(off, slot) in k.patches.iter() {
        let v = match xid {
            Some(x) if slot == 0 => x,
            _ => args.scalars[slot as usize - first],
        };
        head[off..off + 4].copy_from_slice(&v.to_be_bytes());
    }
    if let Some((e, src)) = elements {
        kernel::put(&mut wire[e.off..e.off + 4 * e.n], src);
    }
    true
}

/// The decode kernel of a header of `B..2B` bytes.
fn decode_with<const B: usize>(k: &Kernel, buf: &[u8], args: &mut StubArgs, inlen: usize) -> bool {
    if k.inlen.is_some_and(|want| want != inlen) {
        return false;
    }
    let Some(wire) = buf.get(..k.end) else {
        return false;
    };
    let head = &wire[k.at..k.at + k.bytes.len()];
    if !k.mask.is_empty() && kernel::differs::<B>(head, &k.bytes, &k.mask) {
        return false;
    }
    let (from, first, n) = k.loads;
    let Some(dst) = args.scalars.get_mut(first..first + n) else {
        return false;
    };
    let fill = match k.elem {
        None => None,
        Some(e) => match args.arrays.get_mut(e.arr) {
            Some(a) => Some((a, &wire[e.off..e.off + 4 * e.n])),
            None => return false,
        },
    };
    kernel::get(dst, &head[from..from + 4 * n]);
    if let Some((a, src)) = fill {
        kernel::fill(a, src);
    }
    true
}

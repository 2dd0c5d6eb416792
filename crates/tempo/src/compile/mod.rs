//! Compilation of residual IR into stub programs.
//!
//! The paper compiles Tempo's residual C with `gcc -O2` and links it in
//! place of the generic routines. Our analog compiles the residual IR into
//! a [`StubProgram`]: the micro-ops the residual stands for, and the
//! kernel that runs them against real buffers and argument memory. This
//! is the code that the benchmarks race against the generic micro-layer
//! implementation in `specrpc-xdr`.
//!
//! A stub's size belongs to the shape of its message, not to the length of
//! its arrays. The specializer proves a marshaling loop affine and hands
//! over one residual `for` with constant bounds; the compiler folds each
//! offset and element index in its body to `constant + step · i` and emits
//! **one** [`StubOp::Loop`] over that element store — the trip count, and
//! a [`StubOp::Step`] before the template. Nothing is written out per
//! element: a residual that arrives already unrolled (short arrays, the
//! reference specializer, a loop the specializer could not prove) is
//! folded back as it is compiled, each store that continues the element
//! run the program ends in extending that run's loop by one trip, so both
//! spellings of a message compile to the same program. A decode into an
//! array sizes it first: a counted array's residual assigns its pinned
//! length, and the compiler sizes a fixed array to its binding's length.
//!
//! What the loop *stands for* is the code of the paper's Tables 3 and 4:
//! full unrolling writes one op per trip, and the **bounded unrolling** of
//! Table 4 ([`CompileOptions::chunk`], 250 in the paper, re-rolled there by
//! hand) keeps `chunk` copies of an element store inside a loop and the
//! left-over trips after it. That bound is a parameter of the op
//! (`unroll`), and [`StubProgram::len`] / [`StubProgram::code_size_bytes`]
//! are arithmetic over (templates, trips, bound).
//!
//! What *runs* is the kernel of the program's [`Plan`]: the message as a
//! header image, then a fixed list of segments in wire order — an array's
//! elements as one block copy, or a run of words as another image — then
//! the return ([`PlanOp`]). [`compile`] binds every program to its kernel
//! or refuses it with a [`CompileError`]: a residual loop that is not one
//! element run, a byte of an encoded message that no op stores, an array
//! decoded only in part. So a stub that compiles runs as one kernel call
//! ([`run_encode`], [`run_decode`]).

use crate::ir::{BinOp, Expr, Function, LValue, Program, Stmt, Type, UnOp, VarId};
use std::fmt;

mod exec;
#[allow(unsafe_code)]
mod kernel;
#[cfg(test)]
mod tests;

use exec::Kernel;
pub use exec::{
    run_decode, run_encode, run_encode_after_xid, run_encode_with_xid, Outcome, StubArgs, StubError,
};

/// Where a struct field lands in the [`StubArgs`] calling convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldTarget {
    /// A scalar slot.
    Scalar(u16),
    /// An element of array `arr` (element index = flat slot − `slot_start`).
    Array(u16),
    /// The length word controlling array `arr` (decode resizes it).
    ArrayLen(u16),
}

/// Binding of one flat-slot range of a residual pointer parameter.
#[derive(Debug, Clone)]
pub struct FieldBinding {
    /// First flat slot covered.
    pub slot_start: usize,
    /// Number of flat slots covered.
    pub slot_len: usize,
    /// Where those slots live in [`StubArgs`].
    pub target: FieldTarget,
}

/// What a residual parameter is, for the compiler.
#[derive(Debug, Clone)]
pub enum ParamBinding {
    /// The wire-buffer base pointer.
    Buffer,
    /// A dynamic scalar (e.g. `xid`) in the given scalar slot.
    Scalar(u16),
    /// A pointer to argument memory with per-slot-range bindings.
    Struct(Vec<FieldBinding>),
    /// The received-message length (`inlen`, §6.2).
    InLen,
}

/// The calling convention mapping residual parameters to [`StubArgs`].
#[derive(Debug, Clone, Default)]
pub struct StubConventions {
    /// One binding per residual parameter, in parameter order.
    pub params: Vec<ParamBinding>,
}

impl StubConventions {
    fn buffer_param(&self) -> Option<VarId> {
        self.params
            .iter()
            .position(|p| matches!(p, ParamBinding::Buffer))
    }

    fn inlen_param(&self) -> Option<VarId> {
        self.params
            .iter()
            .position(|p| matches!(p, ParamBinding::InLen))
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    /// Table 4's bounded unrolling: an element run of at least `2 × chunk`
    /// trips is modeled as a loop with a `chunk`-op body; `None` unrolls
    /// every loop in full.
    pub chunk: Option<usize>,
}

impl CompileOptions {
    /// The bound as [`StubOp::Loop`] carries it (0 = none).
    fn unroll(self) -> u32 {
        self.chunk
            .map_or(0, |c| u32::try_from(c.max(1)).unwrap_or(u32::MAX))
    }
}

/// One stub micro-op. Offsets and indices are those of a loop's first trip;
/// a [`StubOp::Step`] in front of an op moves them in later ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StubOp {
    /// Store a pre-byteswapped constant word (the procedure id, static
    /// header fields, credentials).
    PutImm {
        /// Buffer byte offset.
        off: u32,
        /// Word to store, already in wire order (stored little-endian, as
        /// the specializer pre-applied `htonl` on the little-endian model).
        word: u32,
    },
    /// Encode a scalar argument.
    PutScalar {
        /// Buffer byte offset.
        off: u32,
        /// Scalar slot.
        slot: u16,
    },
    /// Encode one array element.
    PutElem {
        /// Buffer byte offset.
        off: u32,
        /// Array slot.
        arr: u16,
        /// Element index.
        idx: u32,
    },
    /// Decode a scalar argument.
    GetScalar {
        /// Buffer byte offset.
        off: u32,
        /// Scalar slot.
        slot: u16,
    },
    /// Decode one array element.
    GetElem {
        /// Buffer byte offset.
        off: u32,
        /// Array slot.
        arr: u16,
        /// Element index.
        idx: u32,
    },
    /// Set a scalar to a statically known value (decode side).
    SetScalarImm {
        /// Scalar slot.
        slot: u16,
        /// Value.
        val: i32,
    },
    /// Resize an array to its statically known length (decode side).
    SetArrLen {
        /// Array slot.
        arr: u16,
        /// Element count.
        len: u32,
    },
    /// Verify a wire word equals a constant; mismatch falls back to the
    /// generic path (reply-status validation stays dynamic, §3.4).
    CheckWord {
        /// Buffer byte offset.
        off: u32,
        /// Expected host-order value (compared after byte-swap).
        want: i32,
    },
    /// Verify a previously decoded scalar slot equals a constant;
    /// mismatch falls back to the generic path (reply-status and header
    /// validation, §3.4).
    CheckScalar {
        /// Scalar slot to test.
        slot: u16,
        /// Expected value.
        want: i32,
    },
    /// §6.2 `inlen` guard: if the received length differs from the
    /// statically expected one, fall back to the generic decoder.
    LenGuard {
        /// Expected message length in bytes.
        expected: u32,
    },
    /// Run the `body` ops up to the matching [`StubOp::EndLoop`] `times`
    /// times — the stub *is* this loop, however the code it models is
    /// laid out (see [`StubProgram::len`]).
    Loop {
        /// Trip count.
        times: u32,
        /// Number of body ops following this op ([`StubOp::Step`]s
        /// included).
        body: u32,
        /// Table 4's bound on the modeled unrolling (0 = unrolled in
        /// full): the compiler sets it on element runs only.
        unroll: u32,
    },
    /// The next op's buffer offset and element index advance by this much
    /// per trip of the enclosing loop.
    Step {
        /// Bytes per trip.
        off: i32,
        /// Elements per trip.
        idx: i32,
    },
    /// Loop body terminator.
    EndLoop,
    /// Finish with the given (statically computed) return value.
    Ret {
        /// Stub return value (C `TRUE`/`FALSE` of the original).
        val: i32,
    },
}

/// Whether Table 4's bound re-rolls a loop of `times` trips: `unroll`
/// copies of the body between a loop header and its terminator, the
/// `times % unroll` left-over trips straight-line after them. Fewer than
/// two chunks, or no bound, and the loop is written out in full.
fn rolled(times: u32, unroll: u32) -> bool {
    unroll != 0 && times as u64 >= 2 * unroll as u64
}

/// One step of a stub's plan: what its kernel runs, in wire order.
///
/// A loop whose one template is a contiguous element store is one block
/// copy of the array — one bounds check and one byte-swapping pass, as the
/// paper's `gcc -O2` turns the residual's stores into straight-line code —
/// and a decode's `SetArrLen` together with the load of the whole array
/// is one [`PlanOp::BulkFill`] that writes each element once. A run of
/// consecutive words is one image step, the way Tempo's run-time templates
/// are a pre-compiled image whose holes are filled at run time: a run of
/// `PutImm` / `PutScalar` is a [`PlanOp::PutImage`] (copy the words encoded
/// at build time, patch the dynamic ones), and a decode's guard prefix —
/// `LenGuard`, a `GetScalar` run, the `CheckScalar`s and `CheckWord`s on
/// those words, then the `GetScalar`s of the words after them — is a
/// [`PlanOp::GetImage`] (the static words compared at once, then every
/// loaded word loaded). The images live beside the steps in the [`Plan`],
/// so a step stays small and `Copy`.
///
/// Fusion is purely a representation change: wire bytes, decoded slots,
/// [`Outcome`] and [`OpCounts`](specrpc_xdr::OpCounts) accounting are those of executing the
/// underlying ops one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Encode of `n` consecutive elements of array `arr` starting at
    /// element `idx`, wire offset `off`. `ops` is the number of stub ops
    /// this step accounts for (`n`, plus one for the header of a re-rolled
    /// loop).
    BulkPut {
        /// Buffer byte offset of the first element.
        off: u32,
        /// Array slot.
        arr: u16,
        /// First element index.
        idx: u32,
        /// Element count.
        n: u32,
        /// Stub ops accounted (for [`OpCounts`](specrpc_xdr::OpCounts) parity).
        ops: u32,
    },
    /// `SetArrLen { arr, len: n }` and the load of that array's elements
    /// `0..n` in one step: the array is cleared and extended from the
    /// checked wire slice, so no element is zero-filled only to be
    /// overwritten. An array sized to 0 is a fill of nothing.
    BulkFill {
        /// Buffer byte offset of the first element.
        off: u32,
        /// Array slot.
        arr: u16,
        /// Element count — the array's whole new length.
        n: u32,
        /// Stub ops accounted: the element loads' plus one for the
        /// `SetArrLen`.
        ops: u32,
    },
    /// `PutImm` / `PutScalar` ops over consecutive words from `off`: one
    /// copy of the pre-encoded image (static words in wire order, zeros
    /// where a scalar goes), then each dynamic word patched in.
    PutImage {
        /// Buffer byte offset of the first word.
        off: u32,
        /// The image's index in the program's image table.
        at: u32,
    },
    /// An optional `LenGuard`, a `GetScalar` run over consecutive words
    /// from `off` and slots, `CheckScalar`s / `CheckWord`s on words of that
    /// span, then `GetScalar`s of words of the span (a `CheckWord` or a
    /// later `GetScalar` may extend it by the word after it): the static
    /// words compared against the image under a mask, then each loaded word
    /// loaded into its slot.
    GetImage {
        /// Buffer byte offset of the first word.
        off: u32,
        /// The image's index in the program's image table.
        at: u32,
    },
    /// Finish with the given (statically computed) return value.
    Ret {
        /// Stub return value (C `TRUE`/`FALSE` of the original).
        val: i32,
    },
}

/// What a [`PlanOp::PutImage`] or [`PlanOp::GetImage`] step works from,
/// built with the plan and kept beside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Image {
    /// The span as a step that succeeds leaves it (encode) or finds it
    /// (decode): every static word in wire order, zeros elsewhere.
    bytes: Vec<u8>,
    /// Decode: `0xFF` over each word a guard checks, zero elsewhere, so
    /// the guards pass exactly when `wire & mask == bytes`. Empty when
    /// nothing is checked.
    mask: Vec<u8>,
    /// Each dynamic word's byte offset in the span and its scalar slot,
    /// in op order: the slot an encode writes there, or the slot a decode
    /// loads it into.
    patches: Vec<(usize, u16)>,
    /// Decode: the `inlen` the step's `LenGuard` wants, if it has one.
    inlen: Option<usize>,
    /// Decode: each `CheckScalar` / `CheckWord` in op order — the byte
    /// offset in the span of the word it checks, the value it wants, and
    /// the ops and bytes the step has counted when it fails.
    guards: Vec<(usize, i32, u64, u64)>,
    /// The stub ops the step stands for.
    ops: u64,
    /// The bytes those ops move.
    moves: u64,
}

impl Image {
    /// The image of the `PutImm` / `PutScalar` run at the start of `ops`,
    /// and how many ops it covers; `None` if `ops` starts with neither.
    fn put(ops: &[StubOp]) -> Option<(u32, usize, Image)> {
        let word_at = |op: &StubOp| match *op {
            StubOp::PutImm { off, .. } | StubOp::PutScalar { off, .. } => Some(off),
            _ => None,
        };
        let off = word_at(ops.first()?)?;
        let n = ops
            .iter()
            .enumerate()
            .take_while(|&(k, op)| word_at(op).map(u64::from) == Some(off as u64 + 4 * k as u64))
            .count();
        let mut image = Image::of(n, vec![0; 4 * n]);
        for (k, op) in ops[..n].iter().enumerate() {
            match *op {
                StubOp::PutImm { word, .. } => {
                    image.bytes[4 * k..4 * k + 4].copy_from_slice(&word.to_le_bytes())
                }
                StubOp::PutScalar { slot, .. } => image.patches.push((4 * k, slot)),
                _ => unreachable!("the run holds puts only"),
            }
        }
        image.moves = 4 * n as u64;
        Some((off, n, image))
    }

    /// The image of the guard prefix at the start of `ops` — an optional
    /// `LenGuard`, a `GetScalar` run, `CheckScalar`s of slots that run
    /// loaded and `CheckWord`s on its words or the word after them, then
    /// `GetScalar`s of words it spans or of the word after them — and how
    /// many ops it covers; `None` unless it spans a word. A second check
    /// of one word against another value ends the prefix, and so does a
    /// check after a load of the tail.
    fn get(ops: &[StubOp]) -> Option<(u32, usize, Image)> {
        let inlen = match ops.first() {
            Some(&StubOp::LenGuard { expected }) => Some(expected as usize),
            _ => None,
        };
        let mut i = inlen.is_some() as usize;
        let loaded = scalar_run_len(&ops[i..]);
        let (mut off, first) = match ops.get(i) {
            Some(&StubOp::GetScalar { off, slot }) => (Some(off), slot as usize),
            _ => (None, 0),
        };
        i += loaded;
        let (mut wants, mut moves) = (vec![None; loaded], 4 * loaded as u64);
        let mut guards = Vec::new();
        // The word `at` falls on: one the span holds, or the one after it.
        let word_at = |at: u32, off: u32, held: usize| {
            let word = at.checked_sub(off).filter(|r| r % 4 == 0)? as usize / 4;
            (word <= held).then_some(word)
        };
        loop {
            let (word, want, moved) = match ops.get(i) {
                Some(&StubOp::CheckScalar { slot, want })
                    if (first..first + loaded).contains(&(slot as usize)) =>
                {
                    (slot as usize - first, want, 0)
                }
                Some(&StubOp::CheckWord { off: at, want }) => {
                    match word_at(at, *off.get_or_insert(at), wants.len()) {
                        Some(word) => (word, want, 4),
                        None => break,
                    }
                }
                _ => break,
            };
            if word == wants.len() {
                wants.push(None);
            }
            match wants[word] {
                Some(held) if held != want => break,
                _ => wants[word] = Some(want),
            }
            moves += moved;
            i += 1;
            guards.push((4 * word, want, i as u64, moves));
        }
        let mut patches: Vec<(usize, u16)> =
            (0..loaded).map(|k| (4 * k, (first + k) as u16)).collect();
        while let (Some(&StubOp::GetScalar { off: at, slot }), Some(off)) = (ops.get(i), off) {
            let Some(word) = word_at(at, off, wants.len()) else {
                break;
            };
            if word == wants.len() {
                wants.push(None);
            }
            patches.push((4 * word, slot));
            moves += 4;
            i += 1;
        }
        let bytes = wants.iter().flat_map(|w| w.unwrap_or(0).to_be_bytes());
        let mut image = Image::of(i, bytes.collect());
        if wants.iter().any(Option::is_some) {
            image.mask = wants
                .iter()
                .flat_map(|w| [if w.is_some() { 0xFF } else { 0 }; 4])
                .collect();
        }
        (image.patches, image.inlen, image.guards, image.moves) = (patches, inlen, guards, moves);
        Some((off?, i, image))
    }

    /// An image of `bytes` standing for `ops` ops, with nothing else
    /// filled in yet.
    fn of(ops: usize, bytes: Vec<u8>) -> Image {
        Image {
            bytes,
            mask: Vec::new(),
            patches: Vec::new(),
            inlen: None,
            guards: Vec::new(),
            ops: ops as u64,
            moves: 0,
        }
    }
}

/// A program's plan: the [`PlanOp`] steps, the images its image steps
/// index, and the kernel bound to both by [`compile`]. It is built once
/// and reads as the slice of its steps.
#[derive(Clone)]
pub struct Plan {
    steps: Vec<PlanOp>,
    images: Vec<Image>,
    kernel: Kernel,
}

impl std::ops::Deref for Plan {
    type Target = [PlanOp];

    fn deref(&self) -> &[PlanOp] {
        &self.steps
    }
}

/// Two plans are equal when their steps and images are: the kernel is
/// derived from them.
impl PartialEq for Plan {
    fn eq(&self, other: &Plan) -> bool {
        (&self.steps, &self.images) == (&other.steps, &other.images)
    }
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.steps).finish()
    }
}

/// A compiled stub: the runtime form of the residual function.
#[derive(Debug, Clone)]
pub struct StubProgram {
    /// The micro-op sequence: one op per scalar, guard and loop, so its
    /// length follows the message's shape. The code of Tables 3 and 4 is
    /// what it models ([`StubProgram::len`]), not how long it is.
    pub ops: Vec<StubOp>,
    /// The plan of `ops` and the kernel that runs it.
    pub plan: Plan,
    /// Total wire bytes the stub reads/writes: its message, which an
    /// encode stores every byte of.
    pub wire_len: usize,
    /// Name (inherited from the residual function).
    pub name: String,
}

impl StubProgram {
    /// The program of `ops`, bound to its kernel; `elems` are the array
    /// slots its conventions bind and the elements they cover, which an
    /// encode refuses an array longer than.
    fn bind(
        ops: Vec<StubOp>,
        elems: &[(u16, usize)],
        name: String,
    ) -> Result<StubProgram, CompileError> {
        let (steps, images) = build_plan(&ops)?;
        let kernel = Kernel::bind(&steps, &images, elems)?;
        Ok(StubProgram {
            ops,
            wire_len: kernel.wire_len(),
            plan: Plan {
                steps,
                images,
                kernel,
            },
            name,
        })
    }

    /// Number of ops in the residual code the stub models (the Table 3/4
    /// "code size" proxy): one per op outside a loop; a loop counts every
    /// template once per trip, or — re-rolled under its `unroll` bound —
    /// header, `unroll` copies of the body, terminator and the left-over
    /// trips.
    pub fn len(&self) -> usize {
        let (mut len, mut copies) = (0usize, 1usize);
        for op in &self.ops {
            match *op {
                StubOp::Loop { times, unroll, .. } if rolled(times, unroll) => {
                    len += 2;
                    copies = (unroll + times % unroll) as usize;
                }
                StubOp::Loop { times, .. } => copies = times as usize,
                StubOp::EndLoop => copies = 1,
                StubOp::Step { .. } => {}
                _ => len = len.saturating_add(copies),
            }
        }
        len
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Modeled binary size in bytes: a fixed per-stub prologue plus a
    /// per-op footprint, calibrated so the *shape* of the paper's Table 3
    /// (linear growth with unroll count) is reproduced.
    pub fn code_size_bytes(&self) -> usize {
        const PROLOGUE: usize = 340;
        const PER_OP: usize = 40;
        PROLOGUE + PER_OP * self.len()
    }
}

/// Compilation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A statement shape outside the supported residual subset.
    Unsupported(String),
    /// A buffer offset expression did not fold to `buf + constant`.
    NonAffineOffset(String),
    /// An lvalue path did not resolve through the conventions.
    UnboundPath(String),
    /// The conventions are missing a required parameter role.
    MissingParam(&'static str),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsupported(s) => write!(f, "unsupported residual statement: {s}"),
            CompileError::NonAffineOffset(s) => write!(f, "non-affine buffer offset: {s}"),
            CompileError::UnboundPath(s) => write!(f, "lvalue path not bound by conventions: {s}"),
            CompileError::MissingParam(p) => write!(f, "conventions missing a {p} parameter"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile a residual function into a stub program bound to its kernel,
/// or refuse it: a residual outside the supported subset, or a program no
/// kernel runs.
pub fn compile(
    prog: &Program,
    f: &Function,
    conv: &StubConventions,
    opts: CompileOptions,
) -> Result<StubProgram, CompileError> {
    let (ops, elems) = lower(prog, f, conv, opts)?;
    StubProgram::bind(ops, &elems, f.name.clone())
}

/// Each array slot a stub's conventions bind, and the elements they cover.
type Bounds = Vec<(u16, usize)>;

/// The ops of a residual function, and the array bounds of its
/// conventions.
fn lower(
    prog: &Program,
    f: &Function,
    conv: &StubConventions,
    opts: CompileOptions,
) -> Result<(Vec<StubOp>, Bounds), CompileError> {
    let elems = conv.params.iter().flat_map(|param| match param {
        ParamBinding::Struct(fields) => fields.as_slice(),
        _ => &[],
    });
    let elems = elems.filter_map(|field| match field.target {
        FieldTarget::Array(arr) => Some((arr, field.slot_len)),
        _ => None,
    });
    let mut c = Compiler {
        prog,
        f,
        conv,
        buf_param: conv.buffer_param(),
        inlen_param: conv.inlen_param(),
        pending_len: std::collections::HashMap::new(),
        in_loop: None,
        ops: Vec::new(),
        run: None,
        unroll: opts.unroll(),
        elems: elems.collect(),
        sized: Vec::new(),
    };
    c.compile_block(&f.body)?;
    if !matches!(c.ops.last(), Some(StubOp::Ret { .. })) {
        c.push(StubOp::Ret { val: 1 });
    }
    Ok((c.ops, c.elems))
}

struct Compiler<'a> {
    prog: &'a Program,
    f: &'a Function,
    conv: &'a StubConventions,
    buf_param: Option<VarId>,
    inlen_param: Option<VarId>,
    /// Array-length words decoded from the wire, awaiting their equality
    /// guard (`argsp->len = ntohl(*(buf+off))` followed by
    /// `if (argsp->len == N)`), keyed by array slot.
    pending_len: std::collections::HashMap<u16, u32>,
    /// The residual `for` whose body is being compiled, if any.
    in_loop: Option<LoopCtx>,
    /// The program so far.
    ops: Vec<StubOp>,
    /// The element run `ops` ends in, if it ends in one, and where in
    /// `ops` it starts.
    run: Option<(usize, Run)>,
    /// The `unroll` bound element runs are given.
    unroll: u32,
    /// The conventions' array bounds.
    elems: Bounds,
    /// The arrays a `SetArrLen` has sized so far.
    sized: Vec<u16>,
}

/// A residual counted loop with constant bounds, while its body is being
/// compiled into one [`StubOp::Step`] and one template op per statement.
struct LoopCtx {
    /// Induction variable.
    var: VarId,
    /// Its first and last value (the loop runs at least once).
    first: i64,
    last: i64,
    body: Vec<StubOp>,
}

/// `c + s·i` over the induction variable of the enclosing residual loop.
#[derive(Clone, Copy)]
struct Affine {
    c: i64,
    s: i64,
}

impl Affine {
    const ZERO: Affine = Affine { c: 0, s: 0 };

    fn at(self, i: i64) -> Option<i64> {
        self.c.checked_add(self.s.checked_mul(i)?)
    }

    fn plus(self, o: Affine) -> Option<Affine> {
        Some(Affine {
            c: self.c.checked_add(o.c)?,
            s: self.s.checked_add(o.s)?,
        })
    }

    fn times(self, k: i64) -> Option<Affine> {
        Some(Affine {
            c: self.c.checked_mul(k)?,
            s: self.s.checked_mul(k)?,
        })
    }
}

impl<'a> Compiler<'a> {
    fn compile_block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.compile_stmt(s)?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Assign(LValue::Buf32(ptr), rhs) => {
                let (off, off_step) = self.buf_offset(ptr)?;
                match rhs {
                    Expr::Const(c) => {
                        let word = *c as u32;
                        self.emit(StubOp::PutImm { off, word }, (off_step, 0));
                    }
                    Expr::Un(UnOp::Htonl, inner) => match inner.as_ref() {
                        Expr::Lv(lv) => {
                            let (target, idx_step) = self.resolve_path(lv)?;
                            let op = match target {
                                PathRef::Scalar(slot) => StubOp::PutScalar { off, slot },
                                PathRef::Elem(arr, idx) => StubOp::PutElem { off, arr, idx },
                                PathRef::ArrayLen(_) => {
                                    return Err(CompileError::Unsupported(
                                        "encoding a length target directly".into(),
                                    ))
                                }
                            };
                            self.emit(op, (off_step, idx_step));
                        }
                        other => {
                            return Err(CompileError::Unsupported(format!(
                                "htonl of non-lvalue {other:?}"
                            )))
                        }
                    },
                    other => {
                        return Err(CompileError::Unsupported(format!(
                            "buffer store of {other:?}"
                        )))
                    }
                }
                Ok(())
            }
            Stmt::Assign(lv, rhs) => {
                let (target, idx_step) = self.resolve_path(lv)?;
                match (target, rhs) {
                    (PathRef::Scalar(slot), Expr::Const(c)) => {
                        let val = *c as i32;
                        self.emit(StubOp::SetScalarImm { slot, val }, (0, 0));
                        Ok(())
                    }
                    (PathRef::ArrayLen(arr), Expr::Const(c)) => {
                        let len = u32::try_from(*c)
                            .map_err(|_| CompileError::Unsupported(format!("array length {c}")))?;
                        self.emit(StubOp::SetArrLen { arr, len }, (0, 0));
                        self.sized.push(arr);
                        Ok(())
                    }
                    (target, Expr::Un(UnOp::Ntohl, inner)) => match inner.as_ref() {
                        Expr::Lv(boxed) => match boxed.as_ref() {
                            LValue::Buf32(ptr) => {
                                let (off, off_step) = self.buf_offset(ptr)?;
                                let op = match target {
                                    PathRef::Scalar(slot) => StubOp::GetScalar { off, slot },
                                    PathRef::Elem(arr, idx) => StubOp::GetElem { off, arr, idx },
                                    PathRef::ArrayLen(_) if self.in_loop.is_some() => {
                                        return Err(CompileError::Unsupported(
                                            "array length decoded inside a loop".into(),
                                        ))
                                    }
                                    PathRef::ArrayLen(arr) => {
                                        // Defer: the stub shape guarantees an
                                        // equality guard follows; it becomes a
                                        // CheckWord at this offset.
                                        self.pending_len.insert(arr, off);
                                        return Ok(());
                                    }
                                };
                                self.emit(op, (off_step, idx_step));
                                Ok(())
                            }
                            other => Err(CompileError::Unsupported(format!(
                                "ntohl of non-buffer {other:?}"
                            ))),
                        },
                        other => Err(CompileError::Unsupported(format!(
                            "ntohl of non-lvalue {other:?}"
                        ))),
                    },
                    (_, other) => Err(CompileError::Unsupported(format!(
                        "assignment of {other:?}"
                    ))),
                }
            }
            // Inside a residual loop only stores are compiled: each is one
            // template op with a per-iteration step.
            other if self.in_loop.is_some() => Err(CompileError::Unsupported(format!(
                "in a loop body: {other:?}"
            ))),
            Stmt::For { var, lo, hi, body } => match (lo, hi) {
                (Expr::Const(lo), Expr::Const(hi)) => self.compile_loop(*var, *lo, *hi, body),
                _ => Err(CompileError::Unsupported(format!(
                    "loop with bounds {lo:?}..{hi:?}"
                ))),
            },
            Stmt::If(cond, then, els) => self.compile_if(cond, then, els),
            Stmt::Return(None) => {
                self.push(StubOp::Ret { val: 0 });
                Ok(())
            }
            Stmt::Return(Some(Expr::Const(c))) => {
                self.push(StubOp::Ret { val: *c as i32 });
                Ok(())
            }
            other => Err(CompileError::Unsupported(format!("{other:?}"))),
        }
    }

    fn compile_if(&mut self, cond: &Expr, then: &[Stmt], els: &[Stmt]) -> Result<(), CompileError> {
        // Pattern 1: the §6.2 inlen guard —
        //   if (inlen == EXPECTED) { fast path } else { return 0 }
        if let Expr::Bin(BinOp::Eq, a, b) = cond {
            if let (Expr::Lv(lv), Expr::Const(expected)) = (a.as_ref(), b.as_ref()) {
                if let LValue::Var(v) = lv.as_ref() {
                    if Some(*v) == self.inlen_param && is_fail_block(els) {
                        let expected = u32::try_from(*expected).map_err(|_| {
                            CompileError::Unsupported(format!("message length {expected}"))
                        })?;
                        self.push(StubOp::LenGuard { expected });
                        return self.compile_block(then);
                    }
                }
            }
        }
        // Pattern 2: reply-word validation —
        //   if (ntohl(*(long*)(buf+off)) != WANT) return 0;
        if let Expr::Bin(BinOp::Ne, a, b) = cond {
            if let (Expr::Un(UnOp::Ntohl, inner), Expr::Const(want)) = (a.as_ref(), b.as_ref()) {
                if let Expr::Lv(boxed) = inner.as_ref() {
                    if let LValue::Buf32(ptr) = boxed.as_ref() {
                        if is_fail_block(then) && els.is_empty() {
                            let (off, _) = self.buf_offset(ptr)?;
                            self.push(StubOp::CheckWord {
                                off,
                                want: *want as i32,
                            });
                            return Ok(());
                        }
                    }
                }
            }
        }
        // Pattern 3: validation of a decoded word —
        //   if (x == WANT) { fast path } else { return 0 }   or
        //   if (x != WANT) return 0;
        // where x is a scalar slot or a pending array-length word.
        let (path_lv, want, then_is_fast) = match cond {
            Expr::Bin(BinOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Lv(lv), Expr::Const(w)) if is_fail_block(els) => {
                    (Some(lv.as_ref()), *w, true)
                }
                _ => (None, 0, false),
            },
            Expr::Bin(BinOp::Ne, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Lv(lv), Expr::Const(w)) if is_fail_block(then) && els.is_empty() => {
                    (Some(lv.as_ref()), *w, false)
                }
                _ => (None, 0, false),
            },
            _ => (None, 0, false),
        };
        if let Some(lv) = path_lv {
            match self.resolve_path(lv)?.0 {
                PathRef::Scalar(slot) => self.push(StubOp::CheckScalar {
                    slot,
                    want: want as i32,
                }),
                PathRef::ArrayLen(arr) => {
                    let off = self.pending_len.remove(&arr).ok_or_else(|| {
                        CompileError::Unsupported("length guard without decoded length".into())
                    })?;
                    self.push(StubOp::CheckWord {
                        off,
                        want: want as i32,
                    });
                }
                PathRef::Elem(..) => {
                    return Err(CompileError::Unsupported("guard on array element".into()))
                }
            }
            if then_is_fast {
                return self.compile_block(then);
            }
            return Ok(());
        }
        Err(CompileError::Unsupported(format!(
            "conditional with condition {cond:?}"
        )))
    }

    /// Append `op`: to the body of the residual loop being compiled, as a
    /// template that each trip moves by `steps` (buffer offset, element
    /// index), or to the program.
    fn emit(&mut self, op: StubOp, (off, idx): (i32, i32)) {
        match &mut self.in_loop {
            Some(l) => l.body.extend([StubOp::Step { off, idx }, op]),
            None => self.push(op),
        }
    }

    /// Append `op` to the program; an element store is a run of one.
    fn push(&mut self, op: StubOp) {
        match Run::of_elem(&op) {
            Some(run) => self.push_run(run),
            None => {
                self.run = None;
                self.ops.push(op);
            }
        }
    }

    /// Append an element run. One that starts where the run the program
    /// ends in stops is that run going on, however the residual spelled
    /// the two — so the program has one loop per array whether the
    /// specializer handed over a `for`, its unrolling, or some of each. A
    /// decode into an array nothing has sized — a fixed array — sizes it
    /// to its binding's length first, as a counted array's pinned length
    /// does.
    fn push_run(&mut self, run: Run) {
        if !run.put && !self.sized.contains(&run.arr) {
            let bound = self.elems.iter().find(|&&(arr, _)| arr == run.arr);
            if let Some(len) = bound.and_then(|&(_, n)| u32::try_from(n).ok()) {
                self.ops.push(StubOp::SetArrLen { arr: run.arr, len });
                self.sized.push(run.arr);
                self.run = None;
            }
        }
        let joined = self
            .run
            .and_then(|(at, open)| Some((at, open.joined(run)?)));
        let (at, run) = joined.unwrap_or((self.ops.len(), run));
        self.ops.truncate(at);
        if run.n == 1 {
            self.ops.push(run.first());
        } else {
            let (times, unroll) = (run.n, self.unroll);
            let header = StubOp::Loop {
                times,
                body: 2,
                unroll,
            };
            self.ops
                .extend([header, Run::STEP, run.first(), StubOp::EndLoop]);
        }
        self.run = Some((at, run));
    }

    /// Compile `for (var = lo; var < hi; var++) body` into one loop op:
    /// its one store becomes a template behind the step a trip moves it
    /// by, whatever the trip count. Every offset and index is checked at
    /// both ends of the range (they are linear in between) as its template
    /// is compiled. A loop whose body is not one element store moving to
    /// the next element each trip is no element run, and no kernel runs it.
    fn compile_loop(
        &mut self,
        var: VarId,
        lo: i64,
        hi: i64,
        body: &[Stmt],
    ) -> Result<(), CompileError> {
        if lo >= hi {
            return Ok(());
        }
        let unsupported = || CompileError::Unsupported(format!("loop {lo}..{hi}"));
        let trips = hi.checked_sub(lo).and_then(|t| u32::try_from(t).ok());
        let times = trips.ok_or_else(unsupported)?;
        self.in_loop = Some(LoopCtx {
            var,
            first: lo,
            last: hi - 1,
            body: Vec::new(),
        });
        let compiled = self.compile_block(body);
        let LoopCtx { body, .. } = self.in_loop.take().expect("set above");
        compiled?;
        let run = match body[..] {
            [Run::STEP, elem] => Run::of_elem(&elem),
            _ => None,
        };
        if times == 1 {
            // One trip is the body itself.
            let stores = body.iter().filter(|op| !matches!(op, StubOp::Step { .. }));
            stores.for_each(|op| self.push(*op));
        } else if let Some(run) = run {
            self.push_run(Run { n: times, ..run });
        } else if !body.is_empty() {
            return Err(CompileError::Unsupported(format!(
                "loop {lo}..{hi} over {body:?}, not one element run"
            )));
        }
        Ok(())
    }

    /// Fold an integer expression to `c + s·i` over the enclosing loop's
    /// induction variable (`s` = 0 outside a loop). `None`: not affine, or
    /// the folding itself overflowed.
    fn fold_affine(&self, e: &Expr) -> Option<Affine> {
        match e {
            Expr::Const(c) => Some(Affine { c: *c, s: 0 }),
            Expr::Lv(lv) => match (lv.as_ref(), &self.in_loop) {
                (LValue::Var(v), Some(l)) if *v == l.var => Some(Affine { c: 0, s: 1 }),
                _ => None,
            },
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.fold_affine(a)?, self.fold_affine(b)?);
                match op {
                    BinOp::Add => a.plus(b),
                    BinOp::Sub => a.plus(b.times(-1)?),
                    BinOp::Mul if b.s == 0 => a.times(b.c),
                    BinOp::Mul if a.s == 0 => b.times(a.c),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The value of `a` in the first iteration of the enclosing loop (or
    /// simply its value outside one) converted with `conv`, and its
    /// per-iteration step; `None` if either end of the range overflows or
    /// fails to convert, or the step between them is no [`StubOp::Step`].
    fn over_range<T>(&self, a: Affine, conv: impl Fn(i64) -> Option<T>) -> Option<(T, i32)> {
        let (first, last) = self.in_loop.as_ref().map_or((0, 0), |l| (l.first, l.last));
        conv(a.at(last)?)?;
        let step = if first == last { 0 } else { a.s };
        Some((conv(a.at(first)?)?, i32::try_from(step).ok()?))
    }

    /// Fold a buffer-pointer expression to `buf + constant` — inside a
    /// residual loop, to the offset in its first iteration plus a
    /// per-iteration step — refusing anything that leaves `u32` anywhere
    /// in the range.
    fn buf_offset(&self, e: &Expr) -> Result<(u32, i32), CompileError> {
        let buf = self.buf_param.ok_or(CompileError::MissingParam("buffer"))?;
        self.fold_ptr(e, buf)
            .and_then(|a| self.over_range(a, |o| u32::try_from(o).ok()))
            .ok_or_else(|| CompileError::NonAffineOffset(format!("{e:?}")))
    }

    /// Byte offset of a pointer expression from `buf`: `buf` itself, or a
    /// sum with `buf` (or such a sum) on exactly one side.
    fn fold_ptr(&self, e: &Expr, buf: VarId) -> Option<Affine> {
        match e {
            Expr::Lv(lv) => {
                matches!(lv.as_ref(), LValue::Var(v) if *v == buf).then_some(Affine::ZERO)
            }
            Expr::Bin(BinOp::Add, a, b) => match self.fold_ptr(a, buf) {
                Some(ptr) => ptr.plus(self.fold_affine(b)?),
                None => self.fold_ptr(b, buf)?.plus(self.fold_affine(a)?),
            },
            _ => None,
        }
    }

    /// Resolve an argument lvalue path to its [`StubArgs`] target, plus
    /// the per-iteration step of an element index inside a residual loop.
    fn resolve_path(&self, lv: &LValue) -> Result<(PathRef, i32), CompileError> {
        // Scalar residual params (e.g. xid): Lv(Var p).
        if let LValue::Var(v) = lv {
            return match self.conv.params.get(*v) {
                Some(ParamBinding::Scalar(slot)) => Ok((PathRef::Scalar(*slot), 0)),
                _ => Err(CompileError::UnboundPath(format!("var {v}"))),
            };
        }
        let (param, slot) = self.flat_slot(lv)?;
        let bindings = match self.conv.params.get(param) {
            Some(ParamBinding::Struct(b)) => b,
            _ => return Err(CompileError::UnboundPath(format!("param {param}"))),
        };
        let unbound = || CompileError::UnboundPath(format!("param {param} slot {lv:?}"));
        for fb in bindings {
            // The whole range the path sweeps must sit in one binding.
            let inside = |slot: i64| {
                let rel = usize::try_from(slot).ok()?.checked_sub(fb.slot_start)?;
                (rel < fb.slot_len).then_some(rel)
            };
            let Some((rel, step)) = self.over_range(slot, inside) else {
                continue;
            };
            return Ok(match fb.target {
                FieldTarget::Array(a) => (
                    PathRef::Elem(a, u32::try_from(rel).map_err(|_| unbound())?),
                    step,
                ),
                _ if step != 0 => return Err(unbound()),
                FieldTarget::Scalar(s) => (PathRef::Scalar(s), 0),
                FieldTarget::ArrayLen(a) => (PathRef::ArrayLen(a), 0),
            });
        }
        Err(unbound())
    }

    /// Compute `(root param, flat slot)` for a path like
    /// `argsp->field[i]`, the index affine in the enclosing loop's
    /// induction variable (a constant outside one).
    fn flat_slot(&self, lv: &LValue) -> Result<(VarId, Affine), CompileError> {
        let overflow = || CompileError::UnboundPath(format!("slot overflow in {lv:?}"));
        match lv {
            LValue::Deref(e) => match e.as_ref() {
                Expr::Lv(boxed) => match boxed.as_ref() {
                    LValue::Var(v) => Ok((*v, Affine::ZERO)),
                    other => Err(CompileError::UnboundPath(format!("{other:?}"))),
                },
                other => Err(CompileError::UnboundPath(format!("{other:?}"))),
            },
            LValue::Field(inner, fid) => {
                let (param, base) = self.flat_slot(inner)?;
                let sid = self.pointee_struct(inner)?;
                let off = self.prog.structs[sid].field_offset(self.prog, *fid);
                let off = i64::try_from(off).ok().map(|c| Affine { c, s: 0 });
                Ok((
                    param,
                    off.and_then(|off| base.plus(off)).ok_or_else(overflow)?,
                ))
            }
            LValue::Index(inner, idx) => {
                let (param, base) = self.flat_slot(inner)?;
                let i = self
                    .fold_affine(idx)
                    .ok_or_else(|| CompileError::UnboundPath(format!("dynamic index {idx:?}")))?;
                // The index stays inside its array over the whole range.
                let len = match lvalue_type(self.prog, self.f, inner) {
                    Some(Type::Array(_, n)) => n,
                    _ => return Err(CompileError::UnboundPath("cannot type path".into())),
                };
                let inside = |i: i64| usize::try_from(i).ok().filter(|i| *i < len);
                self.over_range(i, inside).ok_or_else(|| {
                    CompileError::UnboundPath(format!("index {idx:?} outside [0, {len})"))
                })?;
                // Stub-visible arrays are arrays of longs (flat size 1).
                Ok((param, base.plus(i).ok_or_else(overflow)?))
            }
            other => Err(CompileError::UnboundPath(format!("{other:?}"))),
        }
    }

    /// Struct id of the aggregate an lvalue denotes.
    fn pointee_struct(&self, inner: &LValue) -> Result<usize, CompileError> {
        match lvalue_type(self.prog, self.f, inner) {
            Some(Type::Struct(sid)) => Ok(sid),
            _ => Err(CompileError::UnboundPath("cannot type path".into())),
        }
    }
}

/// Type of the aggregate or scalar an argument lvalue path denotes.
fn lvalue_type(prog: &Program, f: &Function, lv: &LValue) -> Option<Type> {
    match lv {
        LValue::Var(v) => Some(f.var_type(*v).clone()),
        LValue::Deref(e) => match e.as_ref() {
            Expr::Lv(boxed) => match lvalue_type(prog, f, boxed)? {
                Type::Ptr(inner) => Some(*inner),
                _ => None,
            },
            _ => None,
        },
        LValue::Field(base, fid) => match lvalue_type(prog, f, base)? {
            Type::Struct(sid) => Some(prog.structs[sid].fields.get(*fid)?.ty.clone()),
            _ => None,
        },
        LValue::Index(base, _) => match lvalue_type(prog, f, base)? {
            Type::Array(t, _) => Some(*t),
            _ => None,
        },
        LValue::Buf32(_) => Some(Type::Long),
    }
}

enum PathRef {
    Scalar(u16),
    Elem(u16, u32),
    ArrayLen(u16),
}

fn is_fail_block(stmts: &[Stmt]) -> bool {
    matches!(
        stmts,
        [Stmt::Return(None)] | [Stmt::Return(Some(Expr::Const(0)))]
    )
}

/// A contiguous element run: direction, first wire offset, array, first
/// element, element count — stride-4 offsets, stride-1 indices.
#[derive(Clone, Copy)]
struct Run {
    put: bool,
    off: u32,
    arr: u16,
    idx: u32,
    n: u32,
}

impl Run {
    /// What moves an element store from one element to the next.
    const STEP: StubOp = StubOp::Step { off: 4, idx: 1 };

    /// The run of one that element op `op` is.
    fn of_elem(op: &StubOp) -> Option<Run> {
        let (put, off, arr, idx) = match *op {
            StubOp::PutElem { off, arr, idx } => (true, off, arr, idx),
            StubOp::GetElem { off, arr, idx } => (false, off, arr, idx),
            _ => return None,
        };
        Some(Run {
            put,
            off,
            arr,
            idx,
            n: 1,
        })
    }

    /// The element run `ops` starts with — a loop whose one template is
    /// an element store that each trip moves to the next element, or a
    /// lone element store — with the ops it takes up and the stub ops
    /// running it counts (one per trip, plus the header where the modeled
    /// code keeps a loop).
    fn at(ops: &[StubOp]) -> Option<(Run, usize, u32)> {
        match *ops {
            [StubOp::Loop {
                times,
                body: 2,
                unroll,
            }, Run::STEP, elem, StubOp::EndLoop, ..]
                if times > 0 =>
            {
                let run = Run {
                    n: times,
                    ..Run::of_elem(&elem)?
                };
                Some((run, 4, times.checked_add(rolled(times, unroll) as u32)?))
            }
            [ref elem, ..] => Some((Run::of_elem(elem)?, 1, 1)),
            [] => None,
        }
    }

    /// The store of the run's first element.
    fn first(self) -> StubOp {
        let Run { off, arr, idx, .. } = self;
        if self.put {
            StubOp::PutElem { off, arr, idx }
        } else {
            StubOp::GetElem { off, arr, idx }
        }
    }

    /// This run and `next` as one, when `next` — same direction, same
    /// array — starts, in wire offset and in element index, exactly where
    /// this one ends.
    fn joined(self, next: Run) -> Option<Run> {
        let adjoins = (self.put, self.arr) == (next.put, next.arr)
            && self.off as u64 + 4 * self.n as u64 == next.off as u64
            && self.idx as u64 + self.n as u64 == next.idx as u64;
        let n = self.n.checked_add(next.n).filter(|_| adjoins)?;
        Some(Run { n, ..self })
    }
}

/// Length of the maximal run of `GetScalar` ops starting at `ops[0]` with
/// stride-4 offsets and stride-1 slots.
fn scalar_run_len(ops: &[StubOp]) -> usize {
    let Some(&StubOp::GetScalar { off, slot }) = ops.first() else {
        return 0;
    };
    let follows = |n: usize| {
        matches!(ops.get(n), Some(&StubOp::GetScalar { off: o, slot: s })
            if o as u64 == off as u64 + 4 * n as u64 && s as usize == slot as usize + n)
    };
    (1..)
        .find(|&n| !follows(n))
        .expect("a run ends where the ops do")
}

/// The plan of a program, step by step: a run of header puts or a guard
/// prefix is an image step, its image pushed on the table; an encode's
/// element run is a bulk put; a decode's `SetArrLen` with the run of that
/// whole array after it is a fill, and one to 0 a fill of nothing; the
/// last op is the return. Anything else — a loop that is no element run, a
/// decode of part of an array, a guard no image holds, an op after the
/// return — has no step, and the program is refused.
fn build_plan(ops: &[StubOp]) -> Result<(Vec<PlanOp>, Vec<Image>), CompileError> {
    let (mut steps, mut images) = (Vec::new(), Vec::new());
    // Where the steps so far end on the wire: a fill of nothing lies there.
    let mut reach = 0u32;
    let mut i = 0;
    while i < ops.len() {
        let at = images.len() as u32;
        let image =
            Image::put(&ops[i..]).map(|(off, n, image)| (PlanOp::PutImage { off, at }, n, image));
        let image = image.or_else(|| {
            Image::get(&ops[i..]).map(|(off, n, image)| (PlanOp::GetImage { off, at }, n, image))
        });
        let (step, taken) = match (image, ops[i]) {
            (Some((step, n, image)), _) => {
                images.push(image);
                (step, n)
            }
            (None, StubOp::Ret { val }) if i + 1 == ops.len() => (PlanOp::Ret { val }, 1),
            (None, StubOp::SetArrLen { arr, len }) => {
                let whole = Run::at(&ops[i + 1..])
                    .filter(|(run, ..)| (run.put, run.arr, run.idx, run.n) == (false, arr, 0, len));
                match whole {
                    Some((run, taken, cost)) => {
                        let (off, n, ops) = (run.off, run.n, cost.saturating_add(1));
                        (PlanOp::BulkFill { off, arr, n, ops }, 1 + taken)
                    }
                    None if len == 0 => {
                        let (off, n, ops) = (reach, 0, 1);
                        (PlanOp::BulkFill { off, arr, n, ops }, 1)
                    }
                    None => return Err(unplanned(&ops[i..])),
                }
            }
            (None, _) => match Run::at(&ops[i..]) {
                Some((run, taken, ops)) if run.put => {
                    let Run {
                        off, arr, idx, n, ..
                    } = run;
                    let step = PlanOp::BulkPut {
                        off,
                        arr,
                        idx,
                        n,
                        ops,
                    };
                    (step, taken)
                }
                _ => return Err(unplanned(&ops[i..])),
            },
        };
        reach = match step {
            PlanOp::PutImage { off, .. } | PlanOp::GetImage { off, .. } => {
                let words = images.last().map_or(0, |image: &Image| image.bytes.len());
                off.saturating_add(words as u32)
            }
            PlanOp::BulkPut { off, n, .. } | PlanOp::BulkFill { off, n, .. } => {
                off.saturating_add(n.saturating_mul(4))
            }
            PlanOp::Ret { .. } => reach,
        };
        steps.push(step);
        i += taken;
    }
    Ok((steps, images))
}

/// The refusal of a program whose ops from `rest` on no plan step runs.
fn unplanned(rest: &[StubOp]) -> CompileError {
    let shown = &rest[..rest.len().min(4)];
    CompileError::Unsupported(format!("no kernel runs the ops {shown:?}"))
}

//! Running a compiled stub against real buffers.
//!
//! [`run_encode`] and [`run_decode`] are what the benchmarks measure: one
//! call of the stub's [`Kernel`], the run-time template of the residual
//! function, compiled ahead of time like Tempo's pre-compiled templates
//! and bound to the program by [`super::compile`].
//!
//! A stub whose plan has one of four shapes — a header image (`PutImage`
//! or `GetImage`), at most one element step (a bulk put, or a decode's
//! fill of the whole array), then `Ret` — and a header of 4 to 255 bytes,
//! as every stub the benchmark runs has, runs as one monomorphic function
//! per shape and header width class: one bounds check for its whole
//! reach, the header copied or compared as two fixed-width blocks, the
//! patches or the load of the header's scalar run, the element step
//! through the block kernels, and every op's counts at once. No loop over
//! steps, no `Result` per step.
//!
//! Every other stub — words after an array, two arrays, an array pinned at
//! 0, a header of 256 bytes or more — runs its segments in wire order on
//! the checked path, which is also where a fixed-width entry that cannot
//! finish hands the call. It checks everything before it stores anything:
//! a decode, in this order, the `inlen` guard, the buffer against each
//! segment's reach, every other guard in op order, then the slots each
//! segment loads; an encode, each array against its conventions' bound,
//! then each word and element in wire order for its slot and its place in
//! the buffer. So whatever fails, nothing was stored: a `Fallback` carries
//! the counts that running the ops one by one has at the failing guard
//! (summed when the kernel was bound) and leaves the slots as they were,
//! and an error names the first word, slot or element the ops one by one
//! would fail on, when only one thing is wrong.
//!
//! The block copy of an element run lives in the `kernel` module. On the
//! baseline x86-64 target the workspace is built for, the swap of each
//! 32-bit word compiles to SSE2 unpack / `pshuflw` / `pshufhw` / pack
//! (≈13 B/ns); the kernel holds a second instantiation of the same safe
//! loop compiled with AVX2 enabled (one `vpshufb` per 32 bytes, 4–6×
//! faster) and picks it at run time when the CPU has it. Everything a stub
//! can get wrong is checked here, before the block kernels are called; the
//! `kernel` module — the workspace's only `unsafe`, three calls of a safe
//! `#[target_feature]` function — receives slices of the right length and
//! cannot fail.

use super::{kernel, CompileError, Image, PlanOp, StubProgram};
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
/// conditions — wire conditions produce [`Outcome::Fallback`]). Each is
/// what running the stub's ops one by one fails with first, when only one
/// thing is wrong.
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
    /// A decode stub run as an encode, or an encode stub as a decode.
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
            StubError::WrongDirection(op) => write!(f, "op {op} illegal in this direction"),
        }
    }
}

impl std::error::Error for StubError {}

/// What encoding scalar slot `slot` writes: `xid`, when given, for slot 0,
/// otherwise `args.scalars[slot - first_slot]`.
#[inline(always)]
fn scalar(args: &StubArgs, (xid, first_slot): Slots, slot: u16) -> Option<i32> {
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
    encode_inner(prog, buf, args, (None, 0), counts)
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
    encode_inner(prog, buf, args, (Some(xid), 0), counts)
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
    encode_inner(prog, buf, results, (Some(xid), 1), counts)
}

/// The program's kernel: its fixed-width entry when it has one and can
/// finish, the checked path otherwise.
#[inline(always)]
fn encode_inner(
    prog: &StubProgram,
    buf: &mut [u8],
    args: &StubArgs,
    slots: Slots,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    let k = &prog.plan.kernel;
    if k.encode(buf, args, slots) {
        return Ok(k.done(counts));
    }
    k.encode_checked(buf, args, slots, counts)
}

/// Run a decode stub: reads `buf` (of `inlen` valid bytes), writes `args`.
pub fn run_decode(
    prog: &StubProgram,
    buf: &[u8],
    args: &mut StubArgs,
    inlen: usize,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    let k = &prog.plan.kernel;
    if k.decode(buf, args, inlen) {
        return Ok(k.done(counts));
    }
    k.decode_checked(buf, args, inlen, counts)
}

/// The scalars an encode writes: the xid that stands for slot 0, if
/// given, and the slot `args.scalars[0]` holds.
type Slots = (Option<i32>, usize);

type EncodeFn = fn(&Kernel, &mut [u8], &StubArgs, Slots) -> bool;
type DecodeFn = fn(&Kernel, &[u8], &mut StubArgs, usize) -> bool;

/// A kernel's direction, and its fixed-width entry if it has one.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Encode(Option<EncodeFn>),
    Decode(Option<DecodeFn>),
}

/// The fixed-width entries by header width class (`B <= len < 2B`, for
/// `B` = 4, 8, …, 128).
const ENCODERS: [EncodeFn; 6] = [
    encode_with::<4>,
    encode_with::<8>,
    encode_with::<16>,
    encode_with::<32>,
    encode_with::<64>,
    encode_with::<128>,
];
const DECODERS: [DecodeFn; 6] = [
    decode_with::<4>,
    decode_with::<8>,
    decode_with::<16>,
    decode_with::<32>,
    decode_with::<64>,
    decode_with::<128>,
];

/// An element step: a bulk put of elements `idx..idx + n` of array `arr`
/// at byte `off` (encode), or the fill of the whole array from there
/// (decode, `idx` 0).
#[derive(Debug, Clone, Copy)]
struct Elem {
    off: usize,
    arr: u16,
    idx: usize,
    n: usize,
    /// Encode: the most elements the array may hold (the conventions'
    /// bound), `usize::MAX` if they set none.
    limit: usize,
}

/// One segment of a stub, as the checked path runs it.
#[derive(Debug, Clone)]
enum Segment {
    /// Words from byte `at`: an encode stores `bytes` there and patches
    /// each dynamic word in; a decode loads each patched word into its
    /// slot (its checks are the kernel's guards).
    Words {
        at: usize,
        bytes: Box<[u8]>,
        patches: Box<[(usize, u16)]>,
    },
    /// An element step.
    Elems(Elem),
}

/// A decode's check of one wire word: its offset, the bytes it wants, and
/// the ops and bytes counted when it fails.
#[derive(Debug, Clone, Copy)]
struct Guard {
    at: usize,
    want: [u8; 4],
    spent: (u64, u64),
}

/// A stub as the checked path runs it.
#[derive(Debug, Clone)]
struct Checked {
    /// Every segment in wire order, the header first.
    segments: Vec<Segment>,
    /// Encode: each array slot the conventions bind and its bound.
    limits: Vec<(u16, usize)>,
    /// Decode: every guard but the `inlen` one, in op order.
    guards: Vec<Guard>,
}

/// A compiled stub's whole run: the run-time template of the residual
/// function, its holes filled per message.
///
/// The header and element step of a stub of the four shapes are held as
/// its fixed-width entry reads them; every stub is also held as its
/// segments, guards and array bounds ([`Checked`]), which the checked
/// path runs. Both check everything before they store anything.
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    entry: Entry,
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
    elem: Option<Elem>,
    /// Decode: the `inlen` the header's guard wants, if it has one.
    inlen: Option<usize>,
    /// The whole stub, off the fixed-width entries' cache lines.
    checked: Box<Checked>,
    /// The message length: the segments tile `0..end`.
    end: usize,
    /// What `Ret` returns, and the ops and bytes all the steps count.
    ret: i32,
    ops: u64,
    moves: u64,
}

impl Kernel {
    /// The kernel of a plan: its steps, the images they index and the
    /// array bounds `elems` of its conventions. It refuses a plan that
    /// does not end in its return, both encodes and decodes, checks
    /// `inlen` after its first step, or does not cover its message
    /// `0..end` in order (an encode must store every byte of it).
    pub(crate) fn bind(
        steps: &[PlanOp],
        images: &[Image],
        elems: &[(u16, usize)],
    ) -> Result<Kernel, CompileError> {
        let refuse = |why: &str| {
            let why = format!("no kernel runs a stub that {why}: {steps:?}");
            CompileError::Unsupported(why)
        };
        let [body @ .., PlanOp::Ret { val: ret }] = steps else {
            return Err(refuse("does not end in its return"));
        };
        let encode = !matches!(
            body.first(),
            Some(PlanOp::GetImage { .. } | PlanOp::BulkFill { .. })
        );
        let limit = |arr: u16| {
            let bounds = elems.iter().filter(|&&(a, _)| a == arr && encode);
            bounds.map(|&(_, n)| n).min().unwrap_or(usize::MAX)
        };
        let (mut segments, mut guards) = (Vec::new(), Vec::new());
        let (mut ops, mut moves, mut end) = (0u64, 0u64, 0usize);
        for (k, step) in body.iter().enumerate() {
            let (segment, o, m) = match *step {
                PlanOp::PutImage { off, at } | PlanOp::GetImage { off, at } => {
                    let image = &images[at as usize];
                    if matches!(step, PlanOp::PutImage { .. }) != encode {
                        return Err(refuse("both encodes and decodes"));
                    }
                    if k > 0 && image.inlen.is_some() {
                        return Err(refuse("checks its length after its header"));
                    }
                    for &(word, want, o, m) in &image.guards {
                        guards.push(Guard {
                            at: off as usize + word,
                            want: want.to_be_bytes(),
                            spent: (ops + o, moves + m),
                        });
                    }
                    let words = Segment::Words {
                        at: off as usize,
                        bytes: image.bytes.clone().into(),
                        patches: image.patches.clone().into(),
                    };
                    (words, image.ops, image.moves)
                }
                PlanOp::BulkPut {
                    off,
                    arr,
                    idx,
                    n,
                    ops,
                } if encode => (
                    Segment::elems(off, arr, idx, n, limit(arr)),
                    ops as u64,
                    4 * n as u64,
                ),
                PlanOp::BulkFill { off, arr, n, ops } if !encode => (
                    Segment::elems(off, arr, 0, n, usize::MAX),
                    ops as u64,
                    4 * n as u64,
                ),
                _ => return Err(refuse("both encodes and decodes")),
            };
            let (start, len) = segment.span();
            if len > 0 {
                if start != end {
                    return Err(refuse("does not cover its message in order"));
                }
                end = start
                    .checked_add(len)
                    .ok_or_else(|| refuse("reaches past memory"))?;
            }
            ops += o;
            moves += m;
            segments.push(segment);
        }
        let head = match body.first() {
            Some(PlanOp::PutImage { at, .. } | PlanOp::GetImage { at, .. }) => {
                Some(&images[*at as usize])
            }
            _ => None,
        };
        let mut kernel = Kernel {
            entry: if encode {
                Entry::Encode(None)
            } else {
                Entry::Decode(None)
            },
            bytes: Box::default(),
            mask: Box::default(),
            patches: Box::default(),
            slots: None,
            slots_but_xid: None,
            loads: (0, 0, 0),
            elem: None,
            inlen: head.and_then(|image| image.inlen),
            checked: Box::new(Checked {
                segments,
                limits: elems.iter().copied().filter(|_| encode).collect(),
                guards,
            }),
            end,
            ret: *ret,
            ops: ops + 1,
            moves,
        };
        if let Some(image) = head {
            kernel.bind_entry(image, encode);
        }
        Ok(kernel)
    }

    /// Give the kernel the fixed-width entry of its shape, if it has one
    /// of the four: a header of `image`, 4 to 255 bytes, then at most one
    /// element step — an encode's of the one array the conventions bound,
    /// if they bound any — and a decode's header loads one scalar run.
    fn bind_entry(&mut self, image: &Image, encode: bool) {
        let elem = match self.checked.segments[1..] {
            [] => None,
            [Segment::Elems(e)] => Some(e),
            _ => return,
        };
        if (self.checked.limits.iter()).any(|&(arr, _)| elem.is_none_or(|e| e.arr != arr)) {
            return;
        }
        let len = image.bytes.len();
        let Some(class) = (4..256).contains(&len).then(|| len.ilog2() as usize - 2) else {
            return;
        };
        // A decode's loads are one run: word k of it into slot `first + k`.
        let loads = match image.patches[..] {
            [(from, first), ..] if !encode => {
                let run = (image.patches.iter().enumerate())
                    .all(|(k, &(o, s))| o == from + 4 * k && s as usize == first as usize + k);
                if !run {
                    return;
                }
                (from, first as usize, image.patches.len())
            }
            _ => (0, 0, 0),
        };
        let patched = |but_xid: bool| {
            let slots = image.patches.iter().map(|&(_, s)| s as usize);
            let slots = slots.filter(move |&s| !(but_xid && s == 0));
            slots.clone().min().zip(slots.max())
        };
        self.entry = if encode {
            Entry::Encode(Some(ENCODERS[class]))
        } else {
            Entry::Decode(Some(DECODERS[class]))
        };
        self.bytes = image.bytes.clone().into();
        self.mask = image.mask.clone().into();
        self.patches = image.patches.clone().into();
        (self.slots, self.slots_but_xid) = (patched(false), patched(true));
        self.loads = loads;
        self.elem = elem;
    }

    /// The message length.
    pub(crate) fn wire_len(&self) -> usize {
        self.end
    }

    /// Run the fixed-width entry as an encode: `false`, having written
    /// nothing, unless it ran.
    #[inline(always)]
    fn encode(&self, buf: &mut [u8], args: &StubArgs, slots: Slots) -> bool {
        match self.entry {
            Entry::Encode(Some(run)) => run(self, buf, args, slots),
            _ => false,
        }
    }

    /// Run the fixed-width entry as a decode: `false`, having loaded
    /// nothing, unless it ran.
    #[inline(always)]
    fn decode(&self, buf: &[u8], args: &mut StubArgs, inlen: usize) -> bool {
        match self.entry {
            Entry::Decode(Some(run)) => run(self, buf, args, inlen),
            _ => false,
        }
    }

    /// Count what a run did, and its outcome.
    #[inline(always)]
    fn done(&self, counts: &mut OpCounts) -> Outcome {
        counts.stub_ops += self.ops;
        counts.mem_moves += self.moves;
        Outcome::Done {
            ret: self.ret,
            wire_len: self.end,
        }
    }

    /// The checked path of an encode: every segment checked, then stored.
    #[cold]
    #[inline(never)]
    fn encode_checked(
        &self,
        buf: &mut [u8],
        args: &StubArgs,
        slots: Slots,
        counts: &mut OpCounts,
    ) -> Result<Outcome, StubError> {
        if let Entry::Decode(_) = self.entry {
            return Err(StubError::WrongDirection("a decode stub run as an encode"));
        }
        // An array fills at most the slots its conventions cover — for a
        // generated stub, the length its header image carries: a longer
        // one is refused like a shorter one, never cut to fit.
        for &(arr, n) in &self.checked.limits {
            if let Some(a) = args.arrays.get(arr as usize).filter(|a| a.len() > n) {
                let len = a.len();
                return Err(StubError::BadElem { arr, idx: n, len });
            }
        }
        for segment in &self.checked.segments {
            segment.check_put(buf.len(), args, slots)?;
        }
        for segment in &self.checked.segments {
            segment.put(buf, args, slots);
        }
        Ok(self.done(counts))
    }

    /// The checked path of a decode: the `inlen` guard, every segment's
    /// reach, every other guard, every segment's slots, then the loads.
    #[cold]
    #[inline(never)]
    fn decode_checked(
        &self,
        buf: &[u8],
        args: &mut StubArgs,
        inlen: usize,
        counts: &mut OpCounts,
    ) -> Result<Outcome, StubError> {
        if let Entry::Encode(_) = self.entry {
            return Err(StubError::WrongDirection("an encode stub run as a decode"));
        }
        let spent = if self.inlen.is_some_and(|want| want != inlen) {
            Some((1, 0))
        } else {
            for segment in &self.checked.segments {
                segment.check_reach(buf.len())?;
            }
            let mut guards = self.checked.guards.iter();
            let failed = guards.find(|g| buf[g.at..g.at + 4] != g.want);
            failed.map(|g| g.spent)
        };
        if let Some((ops, moves)) = spent {
            counts.stub_ops += ops;
            counts.mem_moves += moves;
            return Ok(Outcome::Fallback);
        }
        for segment in &self.checked.segments {
            segment.check_slots(args)?;
        }
        for segment in &self.checked.segments {
            segment.get(buf, args);
        }
        Ok(self.done(counts))
    }
}

/// The whole words of a buffer of `len` bytes from byte `at` on.
fn fitting(at: usize, len: usize) -> usize {
    len.saturating_sub(at) / 4
}

impl Segment {
    /// The element step of `n` elements of array `arr` from element `idx`,
    /// at byte `off`.
    fn elems(off: u32, arr: u16, idx: u32, n: u32, limit: usize) -> Segment {
        let (off, idx, n) = (off as usize, idx as usize, n as usize);
        Segment::Elems(Elem {
            off,
            arr,
            idx,
            n,
            limit,
        })
    }

    /// Its first byte and its length.
    fn span(&self) -> (usize, usize) {
        match self {
            Segment::Words { at, bytes, .. } => (*at, bytes.len()),
            Segment::Elems(e) => (e.off, 4 * e.n),
        }
    }

    /// What storing it into a buffer of `len` bytes from `args` fails on
    /// first, as its ops one by one would: a word the buffer ends before,
    /// a scalar slot a patch lacks, an array or element a put lacks.
    fn check_put(&self, len: usize, args: &StubArgs, slots: Slots) -> Result<(), StubError> {
        match self {
            Segment::Words { at, bytes, patches } => {
                let fit = fitting(*at, len);
                let missing = patches
                    .iter()
                    .find(|&&(_, s)| scalar(args, slots, s).is_none());
                match missing {
                    Some(&(off, slot)) if off / 4 <= fit => Err(StubError::BadScalarSlot(slot)),
                    _ if fit < bytes.len() / 4 => Err(StubError::BufTooSmall {
                        off: at + 4 * fit,
                        len,
                    }),
                    _ => Ok(()),
                }
            }
            Segment::Elems(e) => {
                let a = (args.arrays.get(e.arr as usize)).ok_or(StubError::BadArraySlot(e.arr))?;
                let (have, fit) = (a.len().saturating_sub(e.idx), fitting(e.off, len));
                match have.min(fit) < e.n {
                    false => Ok(()),
                    true if have <= fit => Err(StubError::BadElem {
                        arr: e.arr,
                        idx: e.idx + have,
                        len: a.len(),
                    }),
                    true => Err(StubError::BufTooSmall {
                        off: e.off + 4 * fit,
                        len,
                    }),
                }
            }
        }
    }

    /// Store it, once [`Segment::check_put`] passed.
    fn put(&self, buf: &mut [u8], args: &StubArgs, slots: Slots) {
        match self {
            Segment::Words { at, bytes, patches } => {
                let words = &mut buf[*at..*at + bytes.len()];
                words.copy_from_slice(bytes);
                patch(words, patches, args, slots);
            }
            Segment::Elems(e) => {
                let src = &args.arrays[e.arr as usize][e.idx..e.idx + e.n];
                kernel::put(&mut buf[e.off..e.off + 4 * e.n], src);
            }
        }
    }

    /// The error of a buffer of `len` bytes that ends before it: the
    /// first word the buffer does not hold.
    fn check_reach(&self, len: usize) -> Result<(), StubError> {
        let (at, span) = self.span();
        let fit = fitting(at, len);
        match 4 * fit < span {
            true => Err(StubError::BufTooSmall {
                off: at + 4 * fit,
                len,
            }),
            false => Ok(()),
        }
    }

    /// The error of `args` lacking a slot it loads.
    fn check_slots(&self, args: &StubArgs) -> Result<(), StubError> {
        match self {
            Segment::Words { patches, .. } => {
                let scalars = args.scalars.len();
                match patches.iter().find(|&&(_, s)| s as usize >= scalars) {
                    Some(&(_, slot)) => Err(StubError::BadScalarSlot(slot)),
                    None => Ok(()),
                }
            }
            Segment::Elems(e) if e.arr as usize >= args.arrays.len() => {
                Err(StubError::BadArraySlot(e.arr))
            }
            Segment::Elems(_) => Ok(()),
        }
    }

    /// Load it, once its reach and slots are checked.
    fn get(&self, buf: &[u8], args: &mut StubArgs) {
        match self {
            Segment::Words { at, patches, .. } => {
                for &(off, slot) in patches.iter() {
                    let w = &buf[at + off..at + off + 4];
                    args.scalars[slot as usize] = i32::from_be_bytes([w[0], w[1], w[2], w[3]]);
                }
            }
            Segment::Elems(e) => {
                kernel::fill(
                    &mut args.arrays[e.arr as usize],
                    &buf[e.off..e.off + 4 * e.n],
                );
            }
        }
    }
}

/// Store each dynamic word of `words`: the slot its patch names, or the
/// xid that stands for slot 0.
#[inline(always)]
fn patch(words: &mut [u8], patches: &[(usize, u16)], args: &StubArgs, (xid, first): Slots) {
    for &(off, slot) in patches {
        let v = match xid {
            Some(x) if slot == 0 => x,
            _ => args.scalars[slot as usize - first],
        };
        words[off..off + 4].copy_from_slice(&v.to_be_bytes());
    }
}

/// The encode entry of a header of `B..2B` bytes.
fn encode_with<const B: usize>(
    k: &Kernel,
    buf: &mut [u8],
    args: &StubArgs,
    slots @ (xid, first): Slots,
) -> bool {
    let Some(wire) = buf.get_mut(..k.end) else {
        return false;
    };
    let patched = if xid.is_some() {
        k.slots_but_xid
    } else {
        k.slots
    };
    if patched.is_some_and(|(lo, hi)| lo < first || hi - first >= args.scalars.len()) {
        return false;
    }
    let elements = match k.elem {
        None => None,
        Some(e) => match args.arrays.get(e.arr as usize) {
            Some(a) if a.len() <= e.limit => match a.get(e.idx..e.idx + e.n) {
                Some(src) => Some((e, src)),
                None => return false,
            },
            _ => return false,
        },
    };
    let head = &mut wire[..k.bytes.len()];
    kernel::put_header::<B>(head, &k.bytes);
    patch(head, &k.patches, args, slots);
    if let Some((e, src)) = elements {
        kernel::put(&mut wire[e.off..e.off + 4 * e.n], src);
    }
    true
}

/// The decode entry of a header of `B..2B` bytes.
fn decode_with<const B: usize>(k: &Kernel, buf: &[u8], args: &mut StubArgs, inlen: usize) -> bool {
    if k.inlen.is_some_and(|want| want != inlen) {
        return false;
    }
    let Some(wire) = buf.get(..k.end) else {
        return false;
    };
    let head = &wire[..k.bytes.len()];
    if !k.mask.is_empty() && kernel::differs::<B>(head, &k.bytes, &k.mask) {
        return false;
    }
    let (from, first, n) = k.loads;
    let Some(dst) = args.scalars.get_mut(first..first + n) else {
        return false;
    };
    let fill = match k.elem {
        None => None,
        Some(e) => match args.arrays.get_mut(e.arr as usize) {
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

//! Running a compiled stub against real buffers.
//!
//! [`run_encode`] and [`run_decode`] are what the benchmarks measure: one
//! call of the stub's [`Kernel`], the run-time template of the residual
//! function, compiled ahead of time like Tempo's pre-compiled templates
//! and bound to the program by [`super::compile`].
//!
//! A stub of one of four shapes — a header image (an encode's words
//! stored and patched, or a decode's guards compared and words loaded),
//! then at most one element segment (a bulk put, or a decode's fill of the
//! whole array) — with a header of 4 to 255 bytes, as every stub the
//! benchmark runs has, runs as one monomorphic function per shape and
//! header width class ([`StubProgram::fixed_width`]): one bounds check for
//! its whole reach, the header copied or compared as two fixed-width
//! blocks, the patches or the load of the header's scalar run, the element
//! segment through the block kernels, and every op's counts at once. No
//! loop over segments, no `Result` per segment.
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

use super::{kernel, CompileError, Run, StubOp, StubProgram};
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
    let k = &prog.kernel;
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
    let k = &prog.kernel;
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

/// An element segment: a bulk put of elements `idx..idx + n` of array `arr`
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
    /// An element segment.
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
/// The header and element segment of a stub of the four shapes are held as
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
    /// What `Ret` returns, and the ops and bytes all the segments count.
    ret: i32,
    ops: u64,
    moves: u64,
}

impl Kernel {
    /// The kernel of `ops`, given the array bounds `elems` of its
    /// conventions, bound in one walk over the wire: a run of header
    /// puts or a guard prefix is a words segment ([`Image`]), an encode's
    /// element run a bulk put, a decode's `SetArrLen` with the load of that
    /// whole array after it a fill (one to 0 a fill of nothing, where the
    /// segments so far end), and the last op the return. It refuses ops no
    /// segment runs — a loop that is no element run, a decode of part of
    /// an array, a guard no image holds, an op after the return — and a
    /// stub that both encodes and decodes, checks `inlen` after its first
    /// segment, or does not cover its message `0..end` in order (an
    /// encode must store every byte of it).
    pub(crate) fn bind(ops: &[StubOp], elems: &[(u16, usize)]) -> Result<Kernel, CompileError> {
        let refuse = |why: &str, rest: &[StubOp]| {
            let shown = &rest[..rest.len().min(4)];
            CompileError::Unsupported(format!("no kernel runs a stub that {why}: {shown:?}"))
        };
        let (mut segments, mut guards) = (Vec::new(), Vec::new());
        let (mut spent, mut end, mut inlen) = ((0u64, 0u64), 0usize, None);
        let (mut encode, mut rest) = (None, ops);
        let ret = loop {
            let image = Image::put(rest).or_else(|| Image::get(rest, spent));
            let (segment, taken, put, (o, m)) = match (image, rest) {
                (Some(image), _) => {
                    if image.inlen.is_some() && !segments.is_empty() {
                        return Err(refuse("checks its length after its header", rest));
                    }
                    inlen = inlen.or(image.inlen);
                    guards.extend(image.guards);
                    (image.words, image.taken, image.put, image.spent)
                }
                (None, &[StubOp::Ret { val }]) => break val,
                (None, []) => return Err(refuse("does not end in its return", ops)),
                (None, &[StubOp::SetArrLen { arr, len }, ref run @ ..]) => {
                    let whole = Run::at(run).filter(|(run, ..)| {
                        (run.put, run.arr, run.idx, run.n) == (false, arr, 0, len)
                    });
                    let (off, taken, cost) = match whole {
                        Some((run, taken, cost)) => (run.off as usize, 1 + taken, 1 + cost as u64),
                        None if len == 0 => (end, 1, 1),
                        None => return Err(refuse("decodes part of an array", rest)),
                    };
                    let fill = Segment::elems(off, arr, 0, len, usize::MAX);
                    (fill, taken, false, (cost, 4 * len as u64))
                }
                (None, _) => match Run::at(rest) {
                    Some((run, taken, cost)) if run.put => {
                        let bounds = elems.iter().filter(|&&(a, _)| a == run.arr);
                        let limit = bounds.map(|&(_, n)| n).min().unwrap_or(usize::MAX);
                        let Run {
                            off, arr, idx, n, ..
                        } = run;
                        let bulk = Segment::elems(off as usize, arr, idx, n, limit);
                        (bulk, taken, true, (cost as u64, 4 * n as u64))
                    }
                    _ => return Err(refuse("has no segment for its ops", rest)),
                },
            };
            if *encode.get_or_insert(put) != put {
                return Err(refuse("both encodes and decodes", rest));
            }
            let (start, len) = segment.span();
            if len > 0 {
                if start != end {
                    return Err(refuse("does not cover its message in order", rest));
                }
                end = start
                    .checked_add(len)
                    .ok_or_else(|| refuse("reaches past memory", rest))?;
            }
            spent = (spent.0 + o, spent.1 + m);
            segments.push(segment);
            rest = &rest[taken..];
        };
        let encode = encode.unwrap_or(true);
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
            inlen,
            checked: Box::new(Checked {
                segments,
                limits: elems.iter().copied().filter(|_| encode).collect(),
                guards,
            }),
            end,
            ret,
            ops: spent.0 + 1,
            moves: spent.1,
        };
        kernel.bind_entry(encode);
        Ok(kernel)
    }

    /// Give the kernel the fixed-width entry of its shape, if it has one
    /// of the four: a header of 4 to 255 bytes, then at most one element
    /// segment — an encode's of the one array the conventions bound, if
    /// they bound any — and a decode's header loads one scalar run. Its
    /// guard mask covers every word a guard checks.
    fn bind_entry(&mut self, encode: bool) {
        let (bytes, patches, elem) = match &self.checked.segments[..] {
            [Segment::Words { bytes, patches, .. }] => (bytes, patches, None),
            [Segment::Words { bytes, patches, .. }, Segment::Elems(e)] => {
                (bytes, patches, Some(*e))
            }
            _ => return,
        };
        if (self.checked.limits.iter()).any(|&(arr, _)| elem.is_none_or(|e| e.arr != arr)) {
            return;
        }
        let len = bytes.len();
        let Some(class) = (4..256).contains(&len).then(|| len.ilog2() as usize - 2) else {
            return;
        };
        // A decode's loads are one run: word k of it into slot `first + k`.
        let loads = match patches[..] {
            [(from, first), ..] if !encode => {
                let run = (patches.iter().enumerate())
                    .all(|(k, &(o, s))| o == from + 4 * k && s as usize == first as usize + k);
                if !run {
                    return;
                }
                (from, first as usize, patches.len())
            }
            _ => (0, 0, 0),
        };
        let patched = |but_xid: bool| {
            let slots = patches.iter().map(|&(_, s)| s as usize);
            let slots = slots.filter(move |&s| !(but_xid && s == 0));
            slots.clone().min().zip(slots.max())
        };
        (self.slots, self.slots_but_xid) = (patched(false), patched(true));
        let mut mask = vec![0; len];
        for g in &self.checked.guards {
            mask[g.at..g.at + 4].fill(0xFF);
        }
        if self.checked.guards.is_empty() {
            mask.clear();
        }
        (self.bytes, self.patches, self.mask) = (bytes.clone(), patches.clone(), mask.into());
        self.entry = if encode {
            Entry::Encode(Some(ENCODERS[class]))
        } else {
            Entry::Decode(Some(DECODERS[class]))
        };
        self.loads = loads;
        self.elem = elem;
    }

    /// Whether it has a fixed-width entry.
    pub(crate) fn fixed_width(&self) -> bool {
        matches!(self.entry, Entry::Encode(Some(_)) | Entry::Decode(Some(_)))
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

/// A run of consecutive words as its ops spell it, walked into the words
/// segment it is — the way Tempo's run-time templates are a pre-compiled
/// image whose holes are filled at run time.
struct Image {
    /// The span as an encode leaves it or a decode finds it: every static
    /// word in wire order, zeros elsewhere; each dynamic word's offset in
    /// the span and its scalar slot, in op order.
    words: Segment,
    /// The ops it takes up.
    taken: usize,
    /// Whether it encodes.
    put: bool,
    /// Decode: the `inlen` its `LenGuard` wants, if it has one.
    inlen: Option<usize>,
    /// Decode: each `CheckScalar` / `CheckWord` in op order.
    guards: Vec<Guard>,
    /// The stub ops it stands for and the bytes they move.
    spent: (u64, u64),
}

impl Image {
    /// The image of the `PutImm` / `PutScalar` run over consecutive words
    /// at the start of `ops`; `None` if `ops` starts with neither.
    fn put(ops: &[StubOp]) -> Option<Image> {
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
        let (mut bytes, mut patches) = (vec![0; 4 * n], Vec::new());
        for (k, op) in ops[..n].iter().enumerate() {
            match *op {
                StubOp::PutImm { word, .. } => {
                    bytes[4 * k..4 * k + 4].copy_from_slice(&word.to_le_bytes())
                }
                StubOp::PutScalar { slot, .. } => patches.push((4 * k, slot)),
                _ => unreachable!("the run holds puts only"),
            }
        }
        Some(Image {
            words: Segment::Words {
                at: off as usize,
                bytes: bytes.into(),
                patches: patches.into(),
            },
            taken: n,
            put: true,
            inlen: None,
            guards: Vec::new(),
            spent: (n as u64, 4 * n as u64),
        })
    }

    /// The image of the guard prefix at the start of `ops` — an optional
    /// `LenGuard`, a `GetScalar` run, `CheckScalar`s of slots that run
    /// loaded and `CheckWord`s on its words or the word after them, then
    /// `GetScalar`s of words it spans or of the word after them — with
    /// each guard counting `spent`, the ops and bytes before it, on top of
    /// its own; `None` unless it spans a word. A second check of one word
    /// against another value ends the prefix, and so does a check after a
    /// load of the tail.
    fn get(ops: &[StubOp], spent: (u64, u64)) -> Option<Image> {
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
            guards.push(Guard {
                at: off? as usize + 4 * word,
                want: want.to_be_bytes(),
                spent: (spent.0 + i as u64, spent.1 + moves),
            });
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
        Some(Image {
            words: Segment::Words {
                at: off? as usize,
                bytes: bytes.collect(),
                patches: patches.into(),
            },
            taken: i,
            put: false,
            inlen,
            guards,
            spent: (i as u64, moves),
        })
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

#[cfg(test)]
impl Kernel {
    /// Each segment in wire order: its first byte, its length, and for an
    /// element segment its array.
    pub(super) fn layout(&self) -> Vec<(usize, usize, Option<u16>)> {
        let segments = self.checked.segments.iter();
        let arr = |s: &Segment| match s {
            Segment::Elems(e) => Some(e.arr),
            Segment::Words { .. } => None,
        };
        segments.map(|s| (s.span().0, s.span().1, arr(s))).collect()
    }
}

/// The whole words of a buffer of `len` bytes from byte `at` on.
fn fitting(at: usize, len: usize) -> usize {
    len.saturating_sub(at) / 4
}

impl Segment {
    /// The element segment of `n` elements of array `arr` from element `idx`,
    /// at byte `off`.
    fn elems(off: usize, arr: u16, idx: u32, n: u32, limit: usize) -> Segment {
        let (idx, n) = (idx as usize, n as usize);
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

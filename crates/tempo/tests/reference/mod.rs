//! The op-by-op reference a compiled stub's kernel is held to: every
//! [`StubOp`] run one at a time, a loop trip by trip with each template
//! moved by the step before it, each op making its own bounds, slot and
//! guard checks. Nothing here is on a compile or call path; the tests of
//! `specrpc-tempo`, `specrpc-rpcgen` and `specrpc-core` share it.
//!
//! It runs the ops alone, so it does not hold an encode to the array
//! bounds of its conventions (the kernel refuses an array longer than its
//! binding; `compile`'s own tests check that), and a `Fallback` leaves the
//! slots the ops before the failing guard loaded.

#![allow(dead_code)]

use specrpc_tempo::compile::{Outcome, StubArgs, StubError, StubOp};
use specrpc_xdr::OpCounts;

/// What an encode's scalar slots read: the xid that stands for slot 0, if
/// given, and the slot `args.scalars[0]` holds (0 plain, 1 after an xid).
pub type Slots = (Option<i32>, usize);

/// Run `ops` as an encode of a `wire_len`-byte message into `buf`.
pub fn encode(
    ops: &[StubOp],
    wire_len: usize,
    buf: &mut [u8],
    args: &StubArgs,
    (xid, first): Slots,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    let scalar = |slot: u16| match xid {
        Some(x) if slot == 0 => Some(x),
        _ => (slot as usize)
            .checked_sub(first)
            .and_then(|s| args.scalars.get(s))
            .copied(),
    };
    walk(
        ops,
        wire_len,
        counts,
        &mut |op, (off_by, idx_by), counts| {
            let word = match op {
                StubOp::PutImm { off, word } => (off, word.to_le_bytes()),
                StubOp::PutScalar { off, slot } => {
                    let v = scalar(slot).ok_or(StubError::BadScalarSlot(slot))?;
                    (off, v.to_be_bytes())
                }
                StubOp::PutElem { off, arr, idx } => {
                    let a = args.arrays.get(arr as usize);
                    let a = a.ok_or(StubError::BadArraySlot(arr))?;
                    let (i, len) = (moved(idx, idx_by), a.len());
                    let v = a.get(i).ok_or(StubError::BadElem { arr, idx: i, len })?;
                    (off, v.to_be_bytes())
                }
                _ => return Err(StubError::WrongDirection("a decode op in an encode")),
            };
            let off = moved(word.0, off_by);
            let len = buf.len();
            let dst = buf.get_mut(off..off.saturating_add(4));
            dst.ok_or(StubError::BufTooSmall { off, len })?
                .copy_from_slice(&word.1);
            count(counts, 4);
            Ok(None)
        },
    )
}

/// Run `ops` as a decode of `buf` (of `inlen` valid bytes) into `args`.
pub fn decode(
    ops: &[StubOp],
    wire_len: usize,
    buf: &[u8],
    args: &mut StubArgs,
    inlen: usize,
    counts: &mut OpCounts,
) -> Result<Outcome, StubError> {
    let get = |off: u32, by: i64| {
        let off = moved(off, by);
        match buf.get(off..off.saturating_add(4)) {
            Some(w) => Ok(i32::from_be_bytes([w[0], w[1], w[2], w[3]])),
            None => Err(StubError::BufTooSmall {
                off,
                len: buf.len(),
            }),
        }
    };
    walk(
        ops,
        wire_len,
        counts,
        &mut |op, (off_by, idx_by), counts| {
            let (moves, pass) = match op {
                StubOp::LenGuard { expected } => (0, inlen == expected as usize),
                StubOp::CheckWord { off, want } => (4, get(off, off_by)? == want),
                StubOp::CheckScalar { slot, want } => {
                    let v = args.scalars.get(slot as usize);
                    (0, *v.ok_or(StubError::BadScalarSlot(slot))? == want)
                }
                StubOp::GetScalar { off, slot } => {
                    let v = get(off, off_by)?;
                    let s = args.scalars.get_mut(slot as usize);
                    *s.ok_or(StubError::BadScalarSlot(slot))? = v;
                    (4, true)
                }
                StubOp::GetElem { off, arr, idx } => {
                    let v = get(off, off_by)?;
                    let a = args.arrays.get_mut(arr as usize);
                    let a = a.ok_or(StubError::BadArraySlot(arr))?;
                    let (i, len) = (moved(idx, idx_by), a.len());
                    *a.get_mut(i)
                        .ok_or(StubError::BadElem { arr, idx: i, len })? = v;
                    (4, true)
                }
                StubOp::SetScalarImm { slot, val } => {
                    let s = args.scalars.get_mut(slot as usize);
                    *s.ok_or(StubError::BadScalarSlot(slot))? = val;
                    (0, true)
                }
                StubOp::SetArrLen { arr, len } => {
                    let a = args.arrays.get_mut(arr as usize);
                    a.ok_or(StubError::BadArraySlot(arr))?
                        .resize(len as usize, 0);
                    (0, true)
                }
                _ => return Err(StubError::WrongDirection("an encode op in a decode")),
            };
            count(counts, moves);
            Ok((!pass).then_some(Outcome::Fallback))
        },
    )
}

/// What one op does, moved by `(bytes, elements)`: the outcome if it ends
/// the run.
type Op<'a> =
    dyn FnMut(StubOp, (i64, i64), &mut OpCounts) -> Result<Option<Outcome>, StubError> + 'a;

/// Run `ops` through `op` one at a time; a `Ret` (or the end) finishes
/// the run with `wire_len` bytes.
fn walk(
    ops: &[StubOp],
    wire_len: usize,
    counts: &mut OpCounts,
    op: &mut Op<'_>,
) -> Result<Outcome, StubError> {
    let mut pc = 0;
    while pc < ops.len() {
        let done = match ops[pc] {
            StubOp::Loop {
                times,
                body,
                unroll,
            } => {
                let body = &ops[pc + 1..pc + 1 + body as usize];
                assert_eq!(ops.get(pc + 1 + body.len()), Some(&StubOp::EndLoop));
                // The header is an op of the modeled code only where that
                // code keeps a loop.
                counts.stub_ops += (unroll != 0 && times as u64 >= 2 * unroll as u64) as u64;
                pc += body.len() + 1;
                trips(body, times, counts, op)?
            }
            StubOp::Ret { val } => {
                count(counts, 0);
                Some(Outcome::Done { ret: val, wire_len })
            }
            other => op(other, (0, 0), counts)?,
        };
        if let Some(done) = done {
            return Ok(done);
        }
        pc += 1;
    }
    Ok(Outcome::Done { ret: 1, wire_len })
}

/// `times` trips of a loop `body`, each template moved by the step before
/// it times the trips made so far.
fn trips(
    body: &[StubOp],
    times: u32,
    counts: &mut OpCounts,
    op: &mut Op<'_>,
) -> Result<Option<Outcome>, StubError> {
    for trip in 0..times as i64 {
        let mut by = (0, 0);
        for &template in body {
            if let StubOp::Step { off, idx } = template {
                by = (off as i64 * trip, idx as i64 * trip);
            } else if let done @ Some(_) = op(template, std::mem::take(&mut by), counts)? {
                return Ok(done);
            }
        }
    }
    Ok(None)
}

/// An offset or index moved `by`; one below zero is past any buffer.
fn moved(base: u32, by: i64) -> usize {
    usize::try_from(base as i64 + by).unwrap_or(usize::MAX)
}

fn count(counts: &mut OpCounts, moved: u64) {
    counts.stub_ops += 1;
    counts.mem_moves += moved;
}

//! The flat form of a stub, for referees only: the op-per-element list
//! that compiling an unrolled residual used to produce, Table 4's
//! re-chunking as the scan over that list it used to be, and the same two
//! read off a loop-form [`StubProgram`]. Nothing here is on a compile or
//! call path; tests of `specrpc-tempo` and `specrpc-rpcgen` share it.

use specrpc_tempo::compile::{StubOp, StubProgram};

/// One op of the residual *code* a stub models (Tables 3 and 4): a stub op
/// at an absolute offset, or the header / terminator of a re-rolled loop
/// whose body ops the header's strides move per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flat {
    Op(StubOp),
    Loop {
        times: u32,
        body: u32,
        off_stride: u32,
        idx_stride: u32,
    },
    EndLoop,
}

/// `op` moved `by_off` bytes along the buffer and `by_idx` elements along
/// its array (whichever of the two it has).
fn advanced(mut op: StubOp, by_off: i64, by_idx: i64) -> StubOp {
    use StubOp::*;
    if let PutElem { idx, .. } | GetElem { idx, .. } = &mut op {
        *idx = u32::try_from(*idx as i64 + by_idx).expect("index in range");
    }
    if let PutImm { off, .. }
    | PutScalar { off, .. }
    | PutElem { off, .. }
    | GetScalar { off, .. }
    | GetElem { off, .. }
    | CheckWord { off, .. } = &mut op
    {
        *off = u32::try_from(*off as i64 + by_off).expect("offset in range");
    }
    op
}

/// The template ops of the loop body `body`, each with its per-trip step.
fn templates(body: &[StubOp]) -> Vec<(StubOp, (i64, i64))> {
    let mut step = (0, 0);
    let mut out = Vec::new();
    for op in body {
        match *op {
            StubOp::Step { off, idx } => step = (off as i64, idx as i64),
            op => out.push((op, std::mem::take(&mut step))),
        }
    }
    out
}

/// Trips `trips` of a loop over `templates`, written out.
fn written_out(
    templates: &[(StubOp, (i64, i64))],
    trips: std::ops::Range<u32>,
) -> impl Iterator<Item = StubOp> + '_ {
    trips.flat_map(move |k| {
        let at = move |&(op, (off, idx))| advanced(op, k as i64 * off, k as i64 * idx);
        templates.iter().map(at)
    })
}

/// `(header, body)` of the loop at `ops[i]`.
fn loop_at(ops: &[StubOp], i: usize) -> Option<((u32, u32), &[StubOp])> {
    let StubOp::Loop {
        times,
        body,
        unroll,
    } = ops[i]
    else {
        return None;
    };
    let end = i + 1 + body as usize;
    assert_eq!(ops[end], StubOp::EndLoop, "compiled loops are well-formed");
    Some(((times, unroll), &ops[i + 1..end]))
}

/// The program with every loop written out trip by trip and no unroll
/// bound: the flat compile of its unrolled residual.
pub fn unrolled(stub: &StubProgram) -> Vec<StubOp> {
    let (ops, mut out, mut i) = (&stub.ops, Vec::new(), 0);
    while i < ops.len() {
        match loop_at(ops, i) {
            Some(((times, _), body)) => {
                out.extend(written_out(&templates(body), 0..times));
                i += body.len() + 2;
            }
            None => {
                out.push(ops[i]);
                i += 1;
            }
        }
    }
    out
}

/// The code the program models, op by op: a loop its `unroll` bound
/// re-rolls is a header over `unroll` written-out trips, a terminator and
/// the left-over trips; every other loop is written out in full.
pub fn modeled(stub: &StubProgram) -> Vec<Flat> {
    let (ops, mut out, mut i) = (&stub.ops, Vec::new(), 0);
    while i < ops.len() {
        let Some(((times, unroll), body)) = loop_at(ops, i) else {
            out.push(Flat::Op(ops[i]));
            i += 1;
            continue;
        };
        let templates = templates(body);
        let mut straight = 0..times;
        if unroll != 0 && times as u64 >= 2 * unroll as u64 {
            let [(_, (off, idx))] = templates[..] else {
                panic!("only single-store loops carry a bound: {body:?}");
            };
            let stride = |step: i64| u32::try_from(step * unroll as i64).expect("stride");
            out.push(Flat::Loop {
                times: times / unroll,
                body: unroll,
                off_stride: stride(off),
                idx_stride: stride(idx),
            });
            out.extend(written_out(&templates, 0..unroll).map(Flat::Op));
            out.push(Flat::EndLoop);
            straight = times - times % unroll..times;
        }
        out.extend(written_out(&templates, straight).map(Flat::Op));
        i += body.len() + 2;
    }
    out
}

/// Length of the maximal run of `PutElem`/`GetElem` ops starting at
/// `ops[0]` with stride-4 offsets, stride-1 indices, same array and kind.
fn elem_run_len(ops: &[StubOp]) -> usize {
    fn key(op: &StubOp) -> Option<(bool, u16, u32, u32)> {
        match op {
            StubOp::PutElem { off, arr, idx } => Some((true, *arr, *off, *idx)),
            StubOp::GetElem { off, arr, idx } => Some((false, *arr, *off, *idx)),
            _ => None,
        }
    }
    let Some((kind, arr, off0, idx0)) = ops.first().and_then(key) else {
        return 0;
    };
    let follows = |n: usize| {
        let next = (off0 as u64 + 4 * n as u64, idx0 as u64 + n as u64);
        matches!(ops.get(n).and_then(key), Some((k, a, o, ix))
            if (k, a, (o as u64, ix as u64)) == (kind, arr, next))
    };
    (1..)
        .find(|&n| !follows(n))
        .expect("a run ends where the ops do")
}

/// Table 4's bounded unrolling as the compiler used to perform it: a scan
/// of the flat op list that re-rolls every element run of at least
/// `2 × chunk` ops into a loop with a `chunk`-op body. Kept as the oracle
/// the arithmetic of `StubProgram::len` is checked against.
pub fn rechunk(ops: &[StubOp], chunk: Option<usize>) -> Vec<Flat> {
    let Some(chunk) = chunk.map(|c| c.max(1)) else {
        return ops.iter().copied().map(Flat::Op).collect();
    };
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let run = elem_run_len(&ops[i..]);
        if run >= 2 * chunk {
            let times = run / chunk;
            out.push(Flat::Loop {
                times: times as u32,
                body: chunk as u32,
                off_stride: 4 * chunk as u32,
                idx_stride: chunk as u32,
            });
            out.extend(ops[i..i + chunk].iter().copied().map(Flat::Op));
            out.push(Flat::EndLoop);
            // Left-over elements stay straight-line at their own offsets.
            out.extend(
                ops[i + times * chunk..i + run]
                    .iter()
                    .copied()
                    .map(Flat::Op),
            );
            i += run;
        } else {
            out.push(Flat::Op(ops[i]));
            i += 1;
        }
    }
    out
}

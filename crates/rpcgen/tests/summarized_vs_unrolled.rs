//! Loop summarization against its reference: for random message shapes the
//! summarizing specializer and the fully unrolling one must compile to the
//! same stub programs, report the same eliminations, and leave residual
//! functions that compute the same thing; and each compiled stub's kernel
//! must write and read what its ops do one by one.

#[path = "../../tempo/tests/flat/mod.rs"]
mod flat;
#[path = "../../tempo/tests/reference/mod.rs"]
mod reference;

use proptest::prelude::*;
use specrpc_rpcgen::stubgen::{
    self, CompiledStub, FieldShape, GeneratedStubs, MsgShape, StubKind, CALL_HEADER_BYTES,
};
use specrpc_tempo::compile::{
    self, run_decode, run_encode, CompileOptions, FieldTarget, ParamBinding, StubArgs, StubOp,
    StubProgram,
};
use specrpc_tempo::eval::{Evaluator, ObjectData, Place, Value};
use specrpc_tempo::ir::{Function, Type};
use specrpc_xdr::OpCounts;

/// The array lengths the issue pins, then anything up to 5000.
const PINNED: [usize; 11] = [0, 1, 2, 3, 4, 31, 32, 33, 250, 2000, 4096];

const KINDS: [StubKind; 4] = [
    StubKind::ClientEncode,
    StubKind::ServerDecode,
    StubKind::ServerEncode,
    StubKind::ClientDecode,
];

/// SplitMix64 over a drawn seed: the proptest shim draws the seed, this
/// turns it into a message shape and argument memory.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn len(&mut self) -> usize {
        match self.below(4) {
            0 => self.below(5001) as usize,
            _ => PINNED[self.below(PINNED.len() as u64) as usize],
        }
    }

    /// 1–4 fields: scalars, counted arrays, fixed arrays, several arrays
    /// per message.
    fn shape(&mut self) -> MsgShape {
        let fields = (0..1 + self.below(4))
            .map(|i| {
                let name = format!("f{i}");
                match self.below(3) {
                    0 => FieldShape::Scalar { name },
                    1 => FieldShape::VarIntArray {
                        name,
                        pinned_len: self.len(),
                        max: 100_000,
                    },
                    _ => FieldShape::FixedIntArray {
                        name,
                        len: self.len(),
                    },
                }
            })
            .collect();
        MsgShape { fields }
    }
}

fn longest_array(shape: &MsgShape) -> usize {
    let len = |f: &FieldShape| match f {
        FieldShape::Scalar { .. } => 0,
        FieldShape::VarIntArray { pinned_len, .. } => *pinned_len,
        FieldShape::FixedIntArray { len, .. } => *len,
    };
    shape.fields.iter().map(len).max().unwrap_or(0).max(1)
}

/// Run `residual` in the interpreter: `wire` is the buffer's initial
/// content, struct parameters are filled from `seed`. Returns the return
/// value and every object's final contents.
fn interpret(
    gs: &GeneratedStubs,
    residual: &Function,
    wire: &[u8],
    seed: u64,
) -> (Value, Vec<ObjectData>) {
    let mut prog = gs.program.clone();
    prog.add_func(residual.clone());
    prog.validate().expect("residual is well-formed IR");
    let mut ev = Evaluator::new(&prog);
    let mut rng = Rng(seed);
    let mut args = Vec::new();
    for (_, ty) in &residual.params {
        args.push(match ty {
            Type::BufPtr => Value::BufPtr(ev.heap.alloc_bytes_from(wire.to_vec()), 0),
            Type::Long => Value::Long(wire.len() as i64), // inlen
            Type::Ptr(inner) => {
                let Type::Struct(sid) = **inner else {
                    panic!("residual parameter {ty:?}");
                };
                let obj = ev.heap.alloc_struct(&prog, sid);
                let ObjectData::Slots(slots) = &ev.heap.object(obj).data else {
                    unreachable!("structs are slot objects");
                };
                for slot in 0..slots.len() {
                    let v = Value::Long(rng.next() as i32 as i64);
                    ev.heap.write_slot(Place { obj, slot }, v).unwrap();
                }
                Value::Ref(Place { obj, slot: 0 })
            }
            other => panic!("residual parameter {other:?}"),
        });
    }
    let ret = ev.call(&residual.name, args).expect("residual runs");
    let objects = (0..ev.heap.len())
        .map(|o| ev.heap.object(o).data.clone())
        .collect();
    (ret, objects)
}

fn wire_of(objects: &[ObjectData]) -> Vec<u8> {
    objects
        .iter()
        .find_map(|o| match o {
            ObjectData::Bytes(b) => Some(b.clone()),
            ObjectData::Slots(_) => None,
        })
        .expect("a stub has a buffer")
}

/// `got`, compiled under `chunk`, stands for exactly the code the flat
/// pipeline gave: `reference` — the unrolled residual compiled without a
/// bound — written out op by op and re-chunked by the scan. Its size is
/// that list's length, and it expands to that list.
fn assert_models_the_flat_code(got: &StubProgram, reference: &StubProgram, chunk: Option<usize>) {
    let want = flat::rechunk(&flat::unrolled(reference), chunk);
    let what = format!("{} chunk {chunk:?}", got.name);
    assert_eq!(got.len(), want.len(), "{what}");
    assert_eq!(got.code_size_bytes(), 340 + 40 * want.len(), "{what}");
    assert!(flat::modeled(got) == want, "{what}: expansion differs");
}

/// `stub`'s kernel against its ops run one by one. An encode fills every
/// scalar slot and each array to the length its binding pins from `rng`,
/// writes over a dirty buffer and leaves its bytes in `message`; a decode
/// reads `message`, and `message` with each word a guard checks flipped.
/// Either way: the same outcome, bytes or slots, counts.
fn run_as_the_reference(stub: &CompiledStub, encode: bool, message: &mut Vec<u8>, rng: &mut Rng) {
    let prog = &stub.program;
    let what = &prog.name;
    let (scalars, arrays) = (stub.layout.scalar_count, stub.layout.array_count);
    if encode {
        let (mut counts, mut walked_counts) = (OpCounts::new(), OpCounts::new());
        let mut lens = vec![0; arrays as usize];
        for param in &stub.conventions.params {
            let ParamBinding::Struct(fields) = param else {
                continue;
            };
            for field in fields {
                if let FieldTarget::Array(a) = field.target {
                    lens[a as usize] = field.slot_len;
                }
            }
        }
        let mut word = || rng.next() as i32;
        let scalars = (0..scalars).map(|_| word()).collect();
        let arrays = lens.iter().map(|&n| (0..n).map(|_| word()).collect());
        let args = StubArgs::new(scalars, arrays.collect());
        let (mut wire, mut walked) = (vec![0xEEu8; prog.wire_len], vec![0xEEu8; prog.wire_len]);
        let done = run_encode(prog, &mut wire, &args, &mut counts);
        let walk = reference::encode(
            &prog.ops,
            prog.wire_len,
            &mut walked,
            &args,
            (None, 0),
            &mut walked_counts,
        );
        assert!(
            matches!(done, Ok(compile::Outcome::Done { .. })),
            "{what}: {done:?}"
        );
        assert_eq!((done, &wire), (walk, &walked), "{what}");
        let tally = |c: &OpCounts| (c.stub_ops, c.mem_moves);
        assert_eq!(tally(&counts), tally(&walked_counts), "{what}");
        *message = wire;
    } else {
        let prepared = || {
            let mut out = StubArgs::default();
            out.prepare(scalars as usize, arrays as usize);
            out
        };
        let decode = |wire: &[u8], walk: bool| {
            let (mut out, mut counts) = (prepared(), OpCounts::new());
            let done = match walk {
                false => run_decode(prog, wire, &mut out, wire.len(), &mut counts),
                true => {
                    let ops = &prog.ops;
                    reference::decode(ops, prog.wire_len, wire, &mut out, wire.len(), &mut counts)
                }
            };
            (done, out, (counts.stub_ops, counts.mem_moves))
        };
        let done = decode(message, false);
        assert!(
            matches!(done.0, Ok(compile::Outcome::Done { .. })),
            "{what}: {:?}",
            done.0
        );
        assert_eq!(done, decode(message, true), "{what}");
        // Each word a guard checks, flipped: a fallback after the same
        // counts, nothing loaded.
        let mut loaded = std::collections::HashMap::new();
        for op in &prog.ops {
            if let StubOp::GetScalar { off, slot } = *op {
                loaded.insert(slot, off);
            }
        }
        let checked = prog.ops.iter().filter_map(|op| match *op {
            StubOp::CheckWord { off, .. } => Some(off),
            StubOp::CheckScalar { slot, .. } => loaded.get(&slot).copied(),
            _ => None,
        });
        for off in checked {
            let mut flipped = message.clone();
            flipped[off as usize] ^= 0x80;
            let (got, walked) = (decode(&flipped, false), decode(&flipped, true));
            let what = format!("{what}: word at {off} flipped");
            assert_eq!(got.0, Ok(compile::Outcome::Fallback), "{what}");
            assert_eq!((got.0, got.2), (walked.0, walked.2), "{what}");
            assert_eq!(got.1, prepared(), "{what}: nothing loaded");
        }
    }
}

fn check_context(seed: u64) {
    let mut rng = Rng(seed);
    let (arg, res) = (rng.shape(), rng.shape());
    let gs = stubgen::generate_from_shapes(0x2000_0101, 1, 1, arg, res);
    // Encoders run on a zeroed buffer; each decoder on what its encoder
    // wrote (so its guards pass and its loops run), and on garbage. The
    // compiled stubs likewise: each decoder on its encoder's message.
    let (mut wire, mut message) = (Vec::new(), Vec::new());
    for kind in KINDS {
        let (summarized, plan, report) = stubgen::specialize_with_report(&gs, kind).unwrap();
        let (unrolled, _, mut reference) = stubgen::specialize_unrolled(&gs, kind).unwrap();
        reference.residual_stmts = report.residual_stmts;
        assert_eq!(report, reference, "{kind:?} of {gs:?}");

        let shape = match kind {
            StubKind::ClientEncode | StubKind::ServerDecode => &gs.arg_shape,
            StubKind::ServerEncode | StubKind::ClientDecode => &gs.res_shape,
        };
        let n = longest_array(shape);
        let encode = matches!(kind, StubKind::ClientEncode | StubKind::ServerEncode);
        let unbounded = CompileOptions::default();
        let reference =
            compile::compile(&gs.program, &unrolled, &plan.conventions, unbounded).unwrap();
        for chunk in [None, Some(1), Some(32), Some(250), Some(n), Some(2 * n)] {
            let opts = CompileOptions { chunk };
            let want = compile::compile(&gs.program, &unrolled, &plan.conventions, opts).unwrap();
            let stub = stubgen::specialize_stub(&gs, kind, chunk).unwrap();
            let got = &stub.program;
            assert_models_the_flat_code(got, &reference, chunk);
            assert_eq!(got.ops, want.ops, "{kind:?} chunk {chunk:?}");
            assert_eq!(got.plan, want.plan, "{kind:?} chunk {chunk:?}");
            run_as_the_reference(&stub, encode, &mut message, &mut rng);
            assert_eq!(got.wire_len, want.wire_len);
            assert_eq!(got.name, want.name);
            assert_eq!(stub.wire_len, plan.wire_len);
            assert_eq!(stub.layout.scalars, plan.layout.scalars);
            assert_eq!(stub.layout.arrays, plan.layout.arrays);
            assert_eq!(stub.layout.scalar_count, plan.layout.scalar_count);
            assert_eq!(stub.layout.array_count, plan.layout.array_count);
            assert_eq!(stub.report, report);
        }

        if encode {
            wire = vec![0u8; plan.wire_len];
        }
        let memory = rng.next();
        let got = interpret(&gs, &summarized, &wire, memory);
        assert_eq!(got, interpret(&gs, &unrolled, &wire, memory), "{kind:?}");
        assert_eq!(got.0, Value::Long(1), "{kind:?} takes its fast path");
        if encode {
            wire = wire_of(&got.1);
            assert!(wire.len() >= CALL_HEADER_BYTES.min(plan.wire_len));
        } else {
            let garbage: Vec<u8> = (0..plan.wire_len).map(|_| rng.next() as u8).collect();
            assert_eq!(
                interpret(&gs, &summarized, &garbage, memory),
                interpret(&gs, &unrolled, &garbage, memory),
                "{kind:?} on garbage"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn summarized_equals_unrolled_on_random_shapes(seed in any::<u64>()) {
        check_context(seed);
    }
}

/// Every array length the issue names, as the echo procedure (one counted
/// array each way) and as a fixed array.
#[test]
fn summarized_equals_unrolled_at_the_pinned_lengths() {
    for n in PINNED {
        for fixed in [false, true] {
            let name = "arr".to_string();
            let field = if fixed {
                FieldShape::FixedIntArray { name, len: n }
            } else {
                FieldShape::VarIntArray {
                    name,
                    pinned_len: n,
                    max: 100_000,
                }
            };
            let shape = MsgShape {
                fields: vec![field],
            };
            let gs = stubgen::generate_from_shapes(0x2000_0101, 1, 1, shape.clone(), shape);
            for kind in KINDS {
                let (_, plan, report) = stubgen::specialize_with_report(&gs, kind).unwrap();
                let (unrolled, _, mut reference) = stubgen::specialize_unrolled(&gs, kind).unwrap();
                reference.residual_stmts = report.residual_stmts;
                assert_eq!(report, reference, "{kind:?} n={n}");
                let unbounded = CompileOptions::default();
                let reference =
                    compile::compile(&gs.program, &unrolled, &plan.conventions, unbounded).unwrap();
                for chunk in [None, Some(32)] {
                    let opts = CompileOptions { chunk };
                    let want =
                        compile::compile(&gs.program, &unrolled, &plan.conventions, opts).unwrap();
                    let got = stubgen::specialize_stub(&gs, kind, chunk).unwrap().program;
                    assert_models_the_flat_code(&got, &reference, chunk);
                    assert_eq!(got.ops, want.ops, "{kind:?} n={n} chunk {chunk:?}");
                    assert_eq!(got.plan, want.plan, "{kind:?} n={n} chunk {chunk:?}");
                }
            }
        }
    }
}

/// The size model's referee: for every echo length up to 300 and the
/// paper's large ones, under every unroll bound, the four stubs' `len()` /
/// `code_size_bytes()` — arithmetic over (templates, trips, bound) — are
/// those of the flat op list put through the re-chunking scan, and the
/// loop form expands to that list op for op. The program itself stays the
/// shape's: no longer at 4096 elements than at 8.
#[test]
fn loop_form_sizes_are_the_flat_pipelines() {
    let echo = |n: usize| {
        let shape = MsgShape {
            fields: vec![FieldShape::VarIntArray {
                name: "arr".to_string(),
                pinned_len: n,
                max: 100_000,
            }],
        };
        stubgen::generate_from_shapes(0x2000_0101, 1, 1, shape.clone(), shape)
    };
    let mut op_counts = std::collections::BTreeMap::new();
    for n in (0..=300).chain([1000, 2000, 4096]) {
        let gs = echo(n);
        for kind in KINDS {
            let (summarized, plan, _) = stubgen::specialize_with_report(&gs, kind).unwrap();
            let (unrolled, _, _) = stubgen::specialize_unrolled(&gs, kind).unwrap();
            let compile = |residual: &Function, chunk| {
                let opts = CompileOptions { chunk };
                compile::compile(&gs.program, residual, &plan.conventions, opts).unwrap()
            };
            let reference = compile(&unrolled, None);
            for chunk in [None, Some(1), Some(8), Some(32), Some(250), Some(4096)] {
                let got = compile(&summarized, chunk);
                assert_models_the_flat_code(&got, &reference, chunk);
                if matches!(chunk, None | Some(250)) {
                    op_counts.insert((n, kind as usize, chunk), got.ops.len());
                }
            }
        }
    }
    for kind in KINDS {
        for chunk in [None, Some(250)] {
            let ops = |n| op_counts[&(n, kind as usize, chunk)];
            assert_eq!(ops(8), ops(4096), "{kind:?} {chunk:?}");
        }
    }
}

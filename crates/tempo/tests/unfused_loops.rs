//! Loops the planner must *not* turn into a bulk copy — two stores per
//! trip, an offset stride that is not one word, an index stride that is not
//! one element, a single trip, a bound that does not divide the trip count
//! — run trip by trip in the executor. Whatever the shape, a residual `for`
//! must behave exactly as its unrolling does when that is compiled, written
//! out flat and executed one op at a time: the same bytes, the same decoded
//! slots, the same [`OpCounts`], the same error on a buffer too short.

mod flat;

use flat::Flat;
use proptest::prelude::*;
use specrpc_tempo::compile::{
    compile, run_decode, run_encode, CompileOptions, FieldBinding, FieldTarget, ParamBinding,
    PlanOp, StubArgs, StubConventions, StubProgram,
};
use specrpc_tempo::ir::builder::*;
use specrpc_tempo::ir::{BinOp, Expr, FieldDef, Function, Program, Stmt, StructDef, Type};
use specrpc_xdr::OpCounts;

/// Elements in each of the two arrays.
const N: usize = 256;

/// `ARGS { a[N]; b[N]; }` bound to array slots 0 and 1.
fn args_prog() -> (Program, usize, StubConventions) {
    let array = |name: &str| FieldDef {
        name: name.into(),
        ty: Type::Array(Box::new(Type::Long), N),
    };
    let mut p = Program::new();
    let sid = p.add_struct(StructDef {
        name: "ARGS".into(),
        fields: vec![array("a"), array("b")],
    });
    let bind = |arr: u16| FieldBinding {
        slot_start: arr as usize * N,
        slot_len: N,
        target: FieldTarget::Array(arr),
    };
    let conv = StubConventions {
        params: vec![
            ParamBinding::Buffer,
            ParamBinding::Struct(vec![bind(0), bind(1)]),
        ],
    };
    (p, sid, conv)
}

/// One store of the loop body: `buf + off.0 + off.1·i` ↔ `arr[idx.0 + idx.1·i]`.
#[derive(Debug, Clone, Copy)]
struct Store {
    arr: usize,
    off: (i64, i64),
    idx: (i64, i64),
}

#[derive(Debug)]
struct Case {
    decode: bool,
    trips: i64,
    stores: Vec<Store>,
    /// A straight-line store of the element just before the loop's first.
    lead: bool,
    chunk: Option<usize>,
}

/// SplitMix64 over the drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

impl Case {
    fn draw(rng: &mut Rng) -> Case {
        let trips = rng.pick(&[1, 2, 3, 5, 8, 17, 40]);
        // An affine value that stays at or above `floor` over the trips.
        let affine = |floor: i64, step: i64| (floor + (-step * (trips - 1)).max(0), step);
        let off_step = rng.pick(&[4, 4, 8, 12, -4, -8, 0]);
        let idx_step = rng.pick(&[1, 1, 2, -1, -2, 0]);
        let first = Store {
            arr: rng.pick(&[0, 1]),
            // Room below for the element a `lead` store puts in front.
            off: affine(16 + 4 * (rng.next() % 3) as i64, off_step),
            idx: affine(2 + (rng.next() % 4) as i64, idx_step),
        };
        let mut stores = vec![first];
        if rng.pick(&[false, true]) {
            // The other array at its own stride, or the same one fifty
            // elements on; in the word after the first store's, or in a
            // region of its own.
            let same = rng.pick(&[false, true]);
            let interleaved = rng.pick(&[false, true]);
            stores.push(Store {
                arr: if same { first.arr } else { 1 - first.arr },
                off: if interleaved {
                    (first.off.0 + 4, first.off.1)
                } else {
                    affine(600, rng.pick(&[4, 8, -4]))
                },
                idx: if same {
                    (first.idx.0 + 50, first.idx.1)
                } else {
                    affine((rng.next() % 4) as i64, rng.pick(&[1, 2, -1, 0]))
                },
            });
        }
        let t = trips as usize;
        let bounds = [0, 1, 2, t / 2, t / 2 + 1, t.saturating_sub(1), t, 250];
        Case {
            decode: rng.pick(&[false, true]),
            trips,
            // In front of a single-store loop only: the flat list would
            // also see a run where such a store meets the first trip of a
            // two-store body, which no generated stub has and the loop
            // form, by design, does not look for.
            lead: stores.len() == 1 && rng.pick(&[false, true]),
            stores,
            chunk: Some(rng.pick(&bounds)).filter(|&c| c > 0),
        }
    }

    /// The residual function: the loop as a `for`, or unrolled.
    fn residual(&self, sid: usize, rolled: bool) -> Function {
        let mut fb = FunctionBuilder::new("stub");
        let buf = fb.param("buf", Type::BufPtr);
        let argsp = fb.param("argsp", ptr(Type::Struct(sid)));
        let i = fb.local("i", Type::Long);
        let affine = |(base, step): (i64, i64), i: Expr| {
            add(
                c(base),
                Expr::Bin(BinOp::Mul, Box::new(c(step)), Box::new(i)),
            )
        };
        let store = |s: &Store, i: Expr| -> Stmt {
            let word = buf32(add(lv(var(buf)), affine(s.off, i.clone())));
            let elem = index(field(deref_var(argsp), s.arr), affine(s.idx, i));
            if self.decode {
                assign(elem, ntohl(lv(word)))
            } else {
                assign(word, htonl(lv(elem)))
            }
        };
        let trip = |i: Expr| self.stores.iter().map(move |s| store(s, i.clone()));
        let mut body = Vec::new();
        if !self.decode {
            body.push(assign(buf32(lv(var(buf))), c(0x0403_0201)));
        }
        if self.lead {
            body.push(store(&self.stores[0], c(-1)));
        }
        if rolled {
            let stores = trip(lv(var(i))).collect();
            body.push(for_loop(i, c(0), c(self.trips), stores));
        } else {
            body.extend((0..self.trips).flat_map(|k| trip(c(k))));
        }
        fb.body(body)
    }
}

fn fused(stub: &StubProgram) -> bool {
    let bulk = |step: &PlanOp| !matches!(step, PlanOp::Op(_));
    stub.plan.iter().any(bulk)
}

fn check(seed: u64) {
    let mut rng = Rng(seed);
    let case = Case::draw(&mut rng);
    let (p, sid, conv) = args_prog();
    let opts = CompileOptions { chunk: case.chunk };
    let got = compile(&p, &case.residual(sid, true), &conv, opts).expect("loop compiles");
    let unrolled = case.residual(sid, false);
    let reference = compile(&p, &unrolled, &conv, CompileOptions::default()).unwrap();

    // The code it models is the flat pipeline's.
    let flat_ops = flat::unrolled(&reference);
    let code = flat::rechunk(&flat_ops, case.chunk);
    assert_eq!(got.len(), code.len(), "{case:?}");
    assert!(flat::modeled(&got) == code, "{case:?}");
    // The flat list runs one op at a time; a re-rolled loop's header is the
    // one op more its code executes.
    let headers = code.iter().filter(|op| matches!(op, Flat::Loop { .. }));
    let headers = headers.count() as u64;
    // Run one op at a time: the planner would make a bulk step of each
    // lone element store.
    let mut flat = StubProgram::from_ops(flat_ops, "flat".into());
    flat.plan = flat.ops.iter().copied().map(PlanOp::Op).collect();
    assert_eq!(got.wire_len, flat.wire_len, "{case:?}");

    let tally = |c: &OpCounts, extra: u64| (c.stub_ops + extra, c.mem_moves);
    let array = |rng: &mut Rng| (0..N).map(|_| rng.next() as i32).collect::<Vec<_>>();
    let cuts = [0, 4, got.wire_len / 2, got.wire_len.saturating_sub(1)];
    if case.decode {
        let wire: Vec<u8> = (0..got.wire_len).map(|_| rng.next() as u8).collect();
        let slots = StubArgs::new(vec![], vec![array(&mut rng), array(&mut rng)]);
        for len in cuts.into_iter().chain([wire.len()]) {
            let (mut a, mut b) = (slots.clone(), slots.clone());
            let (mut ca, mut cb) = (OpCounts::new(), OpCounts::new());
            let ra = run_decode(&got, &wire[..len], &mut a, len, &mut ca);
            let rb = run_decode(&flat, &wire[..len], &mut b, len, &mut cb);
            if ra.is_ok() || !fused(&got) {
                assert_eq!(ra, rb, "{case:?} inlen {len}");
            }
            assert_eq!(ra.is_ok(), rb.is_ok(), "{case:?} inlen {len}");
            if ra.is_ok() {
                assert_eq!(a, b, "{case:?}");
                assert_eq!(tally(&ca, 0), tally(&cb, headers), "{case:?}");
            }
        }
    } else {
        let args = StubArgs::new(vec![], vec![array(&mut rng), array(&mut rng)]);
        for len in cuts.into_iter().chain([got.wire_len, got.wire_len + 8]) {
            let (mut a, mut b) = (vec![0xEEu8; len], vec![0xEEu8; len]);
            let (mut ca, mut cb) = (OpCounts::new(), OpCounts::new());
            let ra = run_encode(&got, &mut a, &args, &mut ca);
            let rb = run_encode(&flat, &mut b, &args, &mut cb);
            if ra.is_ok() || !fused(&got) {
                assert_eq!(ra, rb, "{case:?} buffer of {len}");
            }
            assert_eq!(ra.is_ok(), rb.is_ok(), "{case:?} buffer of {len}");
            if ra.is_ok() {
                assert_eq!(a, b, "{case:?}");
                assert_eq!(tally(&ca, 0), tally(&cb, headers), "{case:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn residual_loops_behave_as_their_flat_unrolling(seed in any::<u64>()) {
        check(seed);
    }
}

/// The shapes the issue names, each drawn at least once above; pinned here
/// so that a change of the generator cannot silently drop one.
#[test]
fn the_generator_reaches_every_named_shape() {
    let mut rng = Rng(7);
    let cases: Vec<Case> = (0..2000).map(|_| Case::draw(&mut rng)).collect();
    let any = |what: &str, p: &dyn Fn(&Case) -> bool| {
        assert!(cases.iter().any(p), "no case with {what}");
    };
    any("two stores per trip", &|c| c.stores.len() == 2);
    any("offset stride ≠ 4", &|c| c.stores[0].off.1 != 4);
    any("index stride ≠ 1", &|c| c.stores[0].idx.1 != 1);
    any("one trip", &|c| c.trips == 1);
    let bounded = |c: &Case| Some((c.trips as usize, c.chunk?));
    any("trips not a multiple of chunk", &|c| {
        bounded(c).is_some_and(|(trips, chunk)| !trips.is_multiple_of(chunk) && trips >= 2 * chunk)
    });
    any("chunk ≥ trips / 2", &|c| {
        bounded(c).is_some_and(|(trips, chunk)| 2 * chunk >= trips && chunk <= trips)
    });
    any("chunk 1", &|c| c.chunk == Some(1) && c.trips > 1);
}

//! The Tempo experience (§6.1): binding-time visualization and residual
//! code inspection. Prints
//!
//! 1. the BTA-annotated micro-layers (static plain, dynamic marked —
//!    the paper prints dynamic code in bold),
//! 2. the residual client encoder for a 4-element array, twice: fully
//!    unrolled (the Figure 5 analog — the reference specializer) and as
//!    the one loop the specializer derives by proving the body affine,
//! 3. the compiled micro-op program — the loop is one op, whatever its
//!    trip count,
//! 4. the specialization report mapped to the paper's §3 categories,
//!    then the stub cache's counters when the same context is requested
//!    repeatedly,
//! 5. the decode-side residual with its dynamic guards,
//! 6. an unroll-bound sweep (powers of two 8..4096) with the knee of the
//!    modeled time curve auto-detected per platform — the measurement the
//!    paper's Table 4 samples at only {25, 250, full},
//! 7. what a specialization context costs to produce, 8…4096 elements:
//!    specializer steps (deterministic), wall time beside the model that
//!    stands for it in virtual time (`modeled_compile_ns`), stub ops, and
//!    how many of the four stubs run on a fixed-width entry. Exits
//!    non-zero if the 4096-element context burns more steps or compiles
//!    to more ops than the 8-element one — specialization cost and stub
//!    size belong to the shape, not to the array length — or if a stub of
//!    any context runs off the fixed-width entries.
//!
//! ```text
//! cargo run --example specialization_report
//! ```

use specrpc::echo::{build_echo_proc, unroll_bounds, workload};
use specrpc::summary::Summary;
use specrpc::{ProcPipeline, StubCache};
use specrpc_netsim::platform::Platform;
use specrpc_netsim::SimTime;
use specrpc_rpcgen::stubgen::{self, FieldShape, MsgShape, StubKind};
use specrpc_rpcgen::sunlib::{self, xdr_fields};
use specrpc_tempo::bta::{AVal, Bta};
use specrpc_tempo::compile::{run_encode, StubArgs, StubOp};
use specrpc_tempo::ir::pretty;
use specrpc_xdr::OpCounts;

/// Modeled marshal time of the echo encode stub for `n` integers under
/// the given unroll bound: counts from really executing the stub, cost
/// weights from the platform table (including the icache penalty that
/// makes over-unrolling lose).
fn modeled_marshal_ns(platform: Platform, n: usize, chunk: Option<usize>) -> f64 {
    let cp = build_echo_proc(n, chunk).expect("pipeline");
    let args = StubArgs::new(vec![1], vec![workload(n)]);
    let mut buf = vec![0u8; cp.client_encode.wire_len];
    let mut counts = OpCounts::new();
    run_encode(&cp.client_encode.program, &mut buf, &args, &mut counts).expect("encode");
    platform
        .costs()
        .marshal_ns(&counts, cp.client_encode.program.code_size_bytes())
}

/// Sweep the unroll bound for one size and report `(bound, modeled ns)`
/// per candidate plus the knee: the smallest bound whose modeled time is
/// within 2% of the sweep's best (beyond it, more unrolling buys nothing
/// but code size).
fn unroll_knee(platform: Platform, n: usize) -> (Vec<(usize, f64)>, usize) {
    let mut curve: Vec<(usize, f64)> = unroll_bounds(n)
        .map(|c| (c, modeled_marshal_ns(platform, n, Some(c))))
        .collect();
    curve.push((n, modeled_marshal_ns(platform, n, None))); // full unroll
    let best = curve.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    let knee = curve
        .iter()
        .filter(|&&(_, t)| t <= best * 1.02)
        .map(|&(c, _)| c)
        .min()
        .expect("nonempty sweep");
    (curve, knee)
}

fn main() {
    println!("== Tempo-style specialization report ==");

    // ---- 1. Binding-time analysis of the micro-layers ----
    let (lib, ids) = sunlib::build();
    let mut bta = Bta::new(&lib);
    let xdr_obj = bta.add_static_struct(ids.xdr_sid);
    bta.set_slot(xdr_obj, xdr_fields::X_BASE, AVal::BufPtr);
    bta.set_slot(xdr_obj, xdr_fields::X_PRIVATE, AVal::BufPtr);
    let args_obj = bta.add_dynamic_struct(ids.call_sid); // stand-in dynamic data
    let analysis = bta
        .analyze(
            "xdr_long",
            vec![
                AVal::Ptr([xdr_obj].into_iter().collect()),
                AVal::Ptr([args_obj].into_iter().collect()),
            ],
        )
        .expect("bta");
    println!("\n-- binding-time division (dynamic code in «marks») --\n");
    print!("{}", analysis.render(&lib, false));

    // ---- 2. Residual code for a small array encode ----
    let shape = MsgShape {
        fields: vec![FieldShape::VarIntArray {
            name: "arr".into(),
            pinned_len: 4,
            max: 2000,
        }],
    };
    let gs = stubgen::generate_from_shapes(0x2000_0101, 1, 1, shape.clone(), MsgShape::default());
    let (unrolled, _, _) =
        stubgen::specialize_unrolled(&gs, StubKind::ClientEncode).expect("specialize (reference)");
    println!("\n-- residual client encoder (the Figure 5 analog, 4-element array) --\n");
    print!("{}", pretty::function_str(&gs.program, &unrolled));
    let (residual, _, report) =
        stubgen::specialize_with_report(&gs, StubKind::ClientEncode).expect("specialize");
    println!("\n-- the same encoder as derived: the loop proved affine, specialized once --\n");
    print!("{}", pretty::function_str(&gs.program, &residual));

    // ---- 3. Compiled stub ----
    let compiled = stubgen::specialize_stub(&gs, StubKind::ClientEncode, None).expect("compile");
    println!(
        "\n-- compiled stub ({} ops standing for {} of residual code, wire {} bytes) --\n",
        compiled.program.ops.len(),
        compiled.program.len(),
        compiled.wire_len
    );
    // A loop on one line: header, then its body up to the terminator.
    let mut ops = compiled.program.ops.iter().enumerate();
    while let Some((i, op)) = ops.next() {
        print!("  {i:>3}: {op:?}");
        if let StubOp::Loop { body, .. } = op {
            let body = ops.by_ref().take(*body as usize + 1);
            let body: Vec<_> = body.map(|(_, op)| format!("{op:?}")).collect();
            print!(" [ {} ]", body.join("; "));
        }
        println!();
    }

    // ---- 4. Report in the paper's vocabulary, with cache counters ----
    // Three clients asking for the same context: one Tempo run, two
    // cache hits.
    let cache = StubCache::new();
    let pipeline = ProcPipeline::new(4);
    for _ in 0..3 {
        cache
            .get_or_compile(&pipeline, 0x2000_0101, 1, 1, &shape, &MsgShape::default())
            .expect("cached compile");
    }
    println!("\n-- specialization report (paper §3 categories) --\n");
    println!("{}", Summary::from_report(&report).render());
    let c = cache.stats();
    println!(
        "  stub cache:                     {} hit(s), {} miss(es), {} entr{}, {} compile (modeled)",
        c.hits,
        c.misses,
        c.entries,
        if c.entries == 1 { "y" } else { "ies" },
        SimTime::from_nanos(c.compile_ns_total),
    );

    // ---- 5. The decode side keeps its dynamic guards ----
    let (dec_res, _, dec_report) =
        stubgen::specialize_with_report(&gs, StubKind::ServerDecode).expect("specialize decode");
    println!("\n-- residual server decoder (guards stay dynamic, §3.4/§6.2) --\n");
    print!("{}", pretty::function_str(&gs.program, &dec_res));
    println!("\n{}", Summary::from_report(&dec_report).render());

    // ---- 6. Unroll-bound sweep with auto-detected knee (Table 4) ----
    println!("\n-- unroll-bound sweep: modeled marshal time, knee per size --");
    println!(
        "   (at runtime the kernel runs every bound as one block copy,\n\
         \u{20}   so the knee tracks the modeled 1997 icache curve: the smallest\n\
         \u{20}   bound — smallest residual code — already achieves best time)\n"
    );
    for platform in Platform::all() {
        println!("  [{}]", platform.costs().name);
        for n in [500usize, 1000, 2000] {
            let (curve, knee) = unroll_knee(platform, n);
            let points: Vec<String> = curve
                .iter()
                .map(|&(c, t)| {
                    let label = if c == n {
                        "full".to_string()
                    } else {
                        c.to_string()
                    };
                    format!("{label}:{:.0}µs", t / 1e3)
                })
                .collect();
            let knee_label = if knee == n {
                "full unrolling".to_string()
            } else {
                format!("bound {knee}")
            };
            println!("    n={n:<5} {}", points.join("  "));
            println!("    n={n:<5} knee = {knee_label} (within 2% of best)\n");
        }
    }

    // ---- 7. What a context costs: the shape's, not the array length's ----
    println!("-- specialization cost per context (four stubs; steps are deterministic) --\n");
    let kinds = [
        StubKind::ClientEncode,
        StubKind::ClientDecode,
        StubKind::ServerDecode,
        StubKind::ServerEncode,
    ];
    let mut steps_at = Vec::new();
    for n in unroll_bounds(2 * 4096) {
        let arr = MsgShape {
            fields: vec![FieldShape::VarIntArray {
                name: "arr".into(),
                pinned_len: n,
                max: 4096,
            }],
        };
        let gs = stubgen::generate_from_shapes(0x2000_0101, 1, 1, arr.clone(), arr);
        let steps: u64 = kinds
            .iter()
            .map(|&k| stubgen::specialization_steps(&gs, k).expect("specialize"))
            .sum();
        let start = std::time::Instant::now();
        let cp = specrpc::echo::echo_pipeline(n, None)
            .build_from_idl(specrpc::echo::ECHO_IDL, None, specrpc::echo::ECHO_PROC)
            .expect("pipeline");
        let wall = start.elapsed();
        let stubs = [
            &cp.client_encode,
            &cp.client_decode,
            &cp.server_decode,
            &cp.server_encode,
        ];
        let ops: usize = stubs.iter().map(|s| s.program.ops.len()).sum();
        let fixed = stubs.iter().filter(|s| s.program.fixed_width()).count();
        println!(
            "    n={n:<5} steps {steps:>6}   parse + specialize + compile {:>6} µs (modeled {:>6} µs)   {ops} ops for {} of residual code, {fixed}/4 fixed-width",
            wall.as_micros(),
            specrpc::cache::modeled_compile_ns(&cp) / 1_000,
            stubs.iter().map(|s| s.program.len()).sum::<usize>()
        );
        if fixed < stubs.len() {
            eprintln!("a stub runs off the fixed-width entries: n={n}, {fixed}/4 on them");
            std::process::exit(1);
        }
        steps_at.push((n, steps, ops));
    }
    let (&(small, few, short), &(large, many, long)) =
        (steps_at.first().unwrap(), steps_at.last().unwrap());
    if many > few {
        eprintln!(
            "per-element specialization is back: n={large} burns {many} steps, n={small} {few}"
        );
        std::process::exit(1);
    }
    if long > short {
        eprintln!(
            "per-element stubs are back: n={large} compiles to {long} ops, n={small} {short}"
        );
        std::process::exit(1);
    }
}

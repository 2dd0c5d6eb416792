//! The paper's result is a ratio, so it is checked as one: specialized
//! vs generic client marshaling (Table 1) and UDP round trip (Table 2)
//! at n = 20 / 250 / 2000, the two sides' batches alternating in one
//! process so host drift hits both, best batch per side. Each speed-up
//! must reach the paper's own at that size (the larger of its two
//! platforms). Each measured side prints as one row, its best batch's
//! time per call: `marshal/{generic,specialized}/{n}` and
//! `roundtrip/{generic,specialized}/{n}`. Absolute nanoseconds belong to
//! `benchmark/`'s paired runs; a debug build measures nothing, so the test
//! is ignored there:
//!
//! ```text
//! cargo test --release -p specrpc-bench --test paper_ratio -- --nocapture
//! ```

use specrpc::echo::{
    build_echo_proc, generic_encode_request, workload, EchoBench, Mode, PAPER_SIZES,
};
use specrpc_bench::{paper_table1, paper_table2};
use specrpc_netsim::platform::Platform;
use specrpc_tempo::compile::{run_encode, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::OpCounts;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 15;

/// Nanoseconds per call, generic then specialized, of the best of
/// [`ROUNDS`] alternating batches of `iters` calls per side (the first
/// pair doubles as warm-up).
fn per_call_ns(iters: usize, mut call: impl FnMut(Mode)) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        for (side, mode) in [Mode::Generic, Mode::Specialized].into_iter().enumerate() {
            let begun = Instant::now();
            for _ in 0..iters {
                call(mode);
            }
            best[side] = best[side].min(begun.elapsed().as_secs_f64());
        }
    }
    best.map(|secs| secs * 1e9 / iters as f64)
}

/// The paper's speed-up at size `n`: the larger of its two platforms.
fn paper_speedup(table: fn(Platform) -> [(f64, f64); 6], n: usize) -> f64 {
    let row = PAPER_SIZES.iter().position(|&size| size == n).unwrap();
    Platform::all()
        .into_iter()
        .map(|platform| table(platform)[row])
        .map(|(orig, spec)| orig / spec)
        .fold(0.0, f64::max)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio: release builds only")]
fn specialization_reaches_the_papers_speedups() {
    let mut short = Vec::new();
    for n in [20usize, 250, 2000] {
        let proc_ = build_echo_proc(n, None).expect("pipeline");
        let mut data = workload(n);
        let args = StubArgs::new(vec![0x42], vec![data.clone()]);
        let mut enc = XdrMem::encoder(1 << 20);
        let mut buf = vec![0u8; proc_.client_encode.wire_len];
        let mut counts = OpCounts::new();
        let marshal = per_call_ns(2_000, |mode| match mode {
            Mode::Generic => {
                black_box(generic_encode_request(&mut enc, 0x42, &mut data).unwrap());
            }
            Mode::Specialized => {
                let program = &proc_.client_encode.program;
                black_box(run_encode(program, &mut buf, &args, &mut counts).unwrap());
            }
        });

        let mut bench = EchoBench::new(n, None, 42).expect("deploy");
        let round_trip = per_call_ns(500, |mode| {
            black_box(bench.round_trip(mode, &data).unwrap());
        });

        for (row, ns) in [
            (format!("marshal/generic/{n}"), marshal[0]),
            (format!("marshal/specialized/{n}"), marshal[1]),
            (format!("roundtrip/generic/{n}"), round_trip[0]),
            (format!("roundtrip/specialized/{n}"), round_trip[1]),
        ] {
            println!("{row:<26} {ns:>10.1} ns");
        }
        for (what, [generic, specialized], floor) in [
            ("marshal", marshal, paper_speedup(paper_table1, n)),
            ("round trip", round_trip, paper_speedup(paper_table2, n)),
        ] {
            let measured = generic / specialized;
            println!("{what:>10} n={n:<4} {measured:>6.1}x  (paper {floor:.2}x)");
            if measured < floor {
                short.push(format!("{what} n={n}: {measured:.2}x < {floor:.2}x"));
            }
        }
    }
    assert!(short.is_empty(), "below the paper's speed-up: {short:?}");
}

//! The paper's result is a ratio, so it is checked as one: specialized
//! vs generic client marshaling (Table 1) and UDP round trip (Table 2)
//! at n = 20 / 250 / 2000, the two sides' batches alternating in one
//! process so host drift hits both, best batch per side. Each speed-up
//! must reach the paper's own at that size (the larger of its two
//! platforms). Each measured side prints as one row, its best batch's
//! time per call: `marshal/{generic,residual,specialized}/{n}` and
//! `roundtrip/{generic,specialized}/{n}`. The residual is Figure 5's
//! straight-line marshaling written as plain safe Rust for the crate's
//! baseline target, so the marshal speed-up splits in two factors:
//! generic ÷ residual, what specialization buys, and residual ÷
//! specialized, what the compiled stub's block kernels add on top.
//! Absolute nanoseconds belong to
//! `benchmark/`'s paired runs; a debug build measures nothing, so the test
//! is ignored there:
//!
//! ```text
//! cargo test --release -p specrpc-bench --test paper_ratio -- --nocapture
//! ```

use specrpc::echo::{
    build_echo_proc, generic_encode_request, workload, EchoBench, Mode, ECHO_PROC, ECHO_PROG,
    ECHO_VERS, PAPER_SIZES,
};
use specrpc_bench::{paper_table1, paper_table2};
use specrpc_netsim::platform::Platform;
use specrpc_rpc::msg::{MsgType, RPC_VERS};
use specrpc_tempo::compile::{run_encode, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::OpCounts;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 15;

/// Nanoseconds per call of each of `S` sides, of the best of [`ROUNDS`]
/// alternating batches of `iters` calls per side (the first round doubles
/// as warm-up).
fn per_call_ns<const S: usize>(iters: usize, mut call: impl FnMut(usize)) -> [f64; S] {
    let mut best = [f64::INFINITY; S];
    for _ in 0..ROUNDS {
        for (side, best) in best.iter_mut().enumerate() {
            let begun = Instant::now();
            for _ in 0..iters {
                call(side);
            }
            *best = best.min(begun.elapsed().as_secs_f64());
        }
    }
    best.map(|secs| secs * 1e9 / iters as f64)
}

/// Figure 5's residual for the echo call, as plain safe Rust with no
/// `target_feature`: the call header's words (an `AUTH_NONE` credential
/// and verifier), the length word, then one `to_be_bytes` store per
/// element. Returns the bytes written.
#[inline(never)]
fn residual_encode(buf: &mut [u8], xid: u32, data: &[i32]) -> usize {
    let header = [
        xid,
        MsgType::Call as u32,
        RPC_VERS,
        ECHO_PROG,
        ECHO_VERS,
        ECHO_PROC,
        0,
        0,
        0,
        0,
        data.len() as u32,
    ];
    let (head, body) = buf.split_at_mut(4 * header.len());
    for (out, word) in head.chunks_exact_mut(4).zip(header) {
        out.copy_from_slice(&word.to_be_bytes());
    }
    for (out, v) in body.chunks_exact_mut(4).zip(data) {
        out.copy_from_slice(&v.to_be_bytes());
    }
    4 * (header.len() + data.len())
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
        let program = &proc_.client_encode.program;
        let mut buf = vec![0u8; proc_.client_encode.wire_len];
        let mut residual = vec![0u8; proc_.client_encode.wire_len];
        let mut counts = OpCounts::new();
        run_encode(program, &mut buf, &args, &mut counts).unwrap();
        assert_eq!(residual_encode(&mut residual, 0x42, &data), buf.len());
        assert_eq!(residual, buf, "the residual writes the kernel's bytes");

        let [generic, residual_ns, specialized] = per_call_ns(2_000, |side| match side {
            0 => {
                black_box(generic_encode_request(&mut enc, 0x42, &mut data).unwrap());
            }
            1 => {
                black_box(residual_encode(&mut residual, black_box(0x42), &data));
            }
            _ => {
                black_box(run_encode(program, &mut buf, &args, &mut counts).unwrap());
            }
        });
        let marshal = [generic, specialized];

        let mut bench = EchoBench::new(n, None, 42).expect("deploy");
        let sides = [Mode::Generic, Mode::Specialized];
        let round_trip = per_call_ns(500, |side| {
            black_box(bench.round_trip(sides[side], &data).unwrap());
        });

        for (row, ns) in [
            (format!("marshal/generic/{n}"), generic),
            (format!("marshal/residual/{n}"), residual_ns),
            (format!("marshal/specialized/{n}"), specialized),
            (format!("roundtrip/generic/{n}"), round_trip[0]),
            (format!("roundtrip/specialized/{n}"), round_trip[1]),
        ] {
            println!("{row:<26} {ns:>10.1} ns");
        }
        println!(
            "{:>10} n={n:<4} {:>6.1}x specialization x {:.2}x block kernels",
            "split",
            generic / residual_ns,
            residual_ns / specialized
        );
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

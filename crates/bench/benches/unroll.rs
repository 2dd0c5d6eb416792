//! Table 4 — full unrolling vs bounded unrolling of the specialized
//! marshaling stubs, swept over power-of-two bounds 8..4096 where the
//! paper probes only {25, 250, full}. Prints host wall-clock per encode;
//! nothing gates on it. The compiled stubs move each run of elements in
//! one swap-kernel call, so the rows of one array size do not order by
//! bound: they sit within run-to-run noise of each other (about 80, 120
//! and 185 ns at 500 / 1000 / 2000 elements on the development host).
//! Expect a flat line, not a knee; the instruction-cache knee of the
//! paper's Table 4 is in the modeled numbers of `paper_tables` and
//! `examples/specialization_report`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specrpc::echo::{build_echo_proc, unroll_bounds, workload};
use specrpc_tempo::compile::{run_encode, StubArgs};
use specrpc_xdr::OpCounts;
use std::hint::black_box;
use std::time::Duration;

fn bench_unroll(c: &mut Criterion) {
    let mut group = c.benchmark_group("unroll");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for n in [500usize, 1000, 2000] {
        let mut variants: Vec<(String, Option<usize>)> = vec![("full".into(), None)];
        variants.extend(unroll_bounds(n).map(|chunk| (format!("chunk{chunk}"), Some(chunk))));
        for (label, chunk) in variants {
            let proc_ = build_echo_proc(n, chunk).expect("pipeline");
            let args = StubArgs::new(vec![1], vec![workload(n)]);
            let mut buf = vec![0u8; proc_.client_encode.wire_len];
            let mut counts = OpCounts::new();
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        run_encode(&proc_.client_encode.program, &mut buf, &args, &mut counts)
                            .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_unroll);
criterion_main!(benches);

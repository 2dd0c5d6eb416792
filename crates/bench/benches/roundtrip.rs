//! Table 2 / Figure 6-3/4/6 — full RPC round trips over the simulated
//! network, generic vs specialized, over both transports: UDP datagrams
//! and record-marked TCP. Prints host wall-clock per round trip of the
//! deterministic simulation; nothing gates on it: `tests/paper_ratio.rs`
//! checks the paper's ratio, `benchmark/`'s paired runs absolute time,
//! the workspace's `tests/trace_identity.rs` virtual time (`batched/*`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specrpc::echo::{EchoBench, Mode, TcpEchoBench};
use std::hint::black_box;
use std::time::Duration;

fn bench_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for n in [20usize, 250, 2000] {
        let data = specrpc::echo::workload(n);
        let mut bench = EchoBench::new(n, None, 42).expect("deploy");
        group.bench_with_input(BenchmarkId::new("generic", n), &n, |b, _| {
            b.iter(|| black_box(bench.round_trip(Mode::Generic, &data).unwrap()))
        });
        let mut bench = EchoBench::new(n, None, 42).expect("deploy");
        group.bench_with_input(BenchmarkId::new("specialized", n), &n, |b, _| {
            b.iter(|| black_box(bench.round_trip(Mode::Specialized, &data).unwrap()))
        });
    }
    group.finish();
}

fn bench_roundtrip_tcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip_tcp");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for n in [20usize, 250, 2000] {
        let data = specrpc::echo::workload(n);
        let mut bench = TcpEchoBench::new(n, None, 42).expect("deploy");
        group.bench_with_input(BenchmarkId::new("generic", n), &n, |b, _| {
            b.iter(|| black_box(bench.round_trip(Mode::Generic, &data).unwrap()))
        });
        let mut bench = TcpEchoBench::new(n, None, 42).expect("deploy");
        group.bench_with_input(BenchmarkId::new("specialized", n), &n, |b, _| {
            b.iter(|| black_box(bench.round_trip(Mode::Specialized, &data).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_roundtrip, bench_roundtrip_tcp);
criterion_main!(benches);

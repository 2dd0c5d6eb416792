//! What a simulated endpoint costs the machine: `scale/run_ns_per_call/50k`
//! is host wall-clock for a whole `run_scale` pass of the million-client
//! config at 50 000 endpoints (single driver, service deployment
//! included), divided by the endpoint count. Printed, not gated:
//! `benchmark/`'s `scale_open` workload owns the absolute number, and
//! what the model says a reply costs the client (`scale/p99/8`, virtual
//! time) is an exact pin in the workspace's `tests/trace_identity.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use specrpc::{run_scale, ScaleConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let cfg = ScaleConfig::million().scaled_to(50_000);
    group.bench_function("run_ns_per_call/50k", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let begun = Instant::now();
                let report = black_box(run_scale(&cfg).unwrap());
                let wall = begun.elapsed();
                assert_eq!(
                    report.replies, cfg.clients as u64,
                    "every endpoint answered"
                );
                total += wall / cfg.clients as u32;
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);

//! The open-loop scale scenario as a bench: p99 **virtual-time**
//! latency of the zipf-skewed client population through the serving
//! core, eight sockets over eight shards.
//!
//! Like `batched/*`, the recorded quantity is virtual time — wire
//! latency + serialization + modeled server time — so the median is
//! deterministic and machine-independent: the baseline flags ANY real
//! behavior change in the reactor, the dup cache, or the open-loop
//! driver, regardless of runner noise. One shard width is the number;
//! that every other width reports the same one (shard count moves
//! ownership, never delivery order) is an identity, and
//! `tests/sharding.rs` and `tests/trace_identity.rs` hold it.
//!
//! Beside it, one row that *can* move: `scale/run_ns_per_call/50k` is
//! host wall-clock — a whole `run_scale` pass of the million-client
//! config at 50 000 endpoints (single driver, service deployment
//! included), divided by the endpoint count. It is what a simulated
//! endpoint costs the machine, where the p99 rows are what the model
//! says a reply costs the client.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specrpc::{run_scale, ScaleConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let (clients, shards) = (200usize, 8usize);
    let mut cfg = ScaleConfig::smoke().scaled_to(clients);
    cfg.shards = shards;
    cfg.ports_per_shard = 1;
    group.bench_with_input(BenchmarkId::new("p99", shards), &shards, |b, _| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let report = black_box(run_scale(&cfg).unwrap());
                assert_eq!(report.replies, clients as u64, "every endpoint answered");
                total += Duration::from_nanos(report.latency.p99().as_nanos());
            }
            total
        })
    });

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

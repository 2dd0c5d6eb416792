//! Adaptive specialization conformance: the tiered runtime must be
//! **invisible on the wire**. Whatever tier marshals a call — the
//! generic micro-layer path, a compile-ahead specialized stub, or a
//! stub hot-swapped in mid-stream — request and reply images are
//! byte-identical, under a clean network and under the full seeded
//! loss/duplication/reordering fault matrix. On top of the wire
//! properties, the promotion and eviction policies hold their
//! invariants: the cache never exceeds its capacity, accounting never
//! double-counts an entry as both live and evicted, and promotion fires
//! after exactly `K` Tier-0 lookups.

use proptest::prelude::*;
use specrpc::echo::{generic_encode_request, ECHO_IDL, ECHO_PROG, ECHO_VERS};
use specrpc::{
    run_adaptive, AdaptiveClient, AdaptiveConfig, AdaptiveProc, AdaptiveRuntime,
    AdaptiveScenarioConfig, ProcPipeline, PublishMode, SpecService, StubCache, Tier, TierUsed,
};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::ClntUdp;
use specrpc_tempo::compile::{run_encode_with_xid, Outcome, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::OpCounts;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 24;
const CALLS: usize = 10;
const SEEDS: [u64; 3] = [11, 22, 33];

fn configs() -> Vec<(&'static str, FaultConfig)> {
    vec![
        (
            "loss",
            FaultConfig {
                loss: 0.25,
                duplicate: 0.0,
                reorder: 0.0,
            },
        ),
        (
            "duplicate",
            FaultConfig {
                loss: 0.0,
                duplicate: 0.3,
                reorder: 0.0,
            },
        ),
        (
            "reorder",
            FaultConfig {
                loss: 0.0,
                duplicate: 0.0,
                reorder: 0.3,
            },
        ),
        ("mixed", FaultConfig::LOSSY),
    ]
}

/// How the server's adaptive runtime is configured for one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Promotion disabled: every reply marshaled by the generic path.
    Generic,
    /// Cache pre-seeded at registration: every reply specialized.
    CompileAhead,
    /// Promote on first sight, publish at fixed drain points: replies
    /// switch from generic to specialized mid-sequence.
    HotSwap,
}

fn runtime_for(mode: Mode) -> Arc<AdaptiveRuntime> {
    let cfg = match mode {
        Mode::Generic => AdaptiveConfig::default().promote_after(u32::MAX),
        Mode::CompileAhead => AdaptiveConfig::default().compile_ahead(true),
        Mode::HotSwap => AdaptiveConfig::default()
            .promote_after(1)
            .publish(PublishMode::OnDrain),
    };
    AdaptiveRuntime::new(cfg)
}

fn echo_proc() -> AdaptiveProc {
    AdaptiveProc::resolve(ProcPipeline::new(N), ECHO_IDL, None, 1).expect("resolve")
}

struct RunResult {
    replies: Vec<Vec<u8>>,
    handler_runs: u64,
    stats: specrpc::AdaptiveStats,
}

fn call_data(i: usize) -> Vec<i32> {
    (0..N).map(|k| (i * 1000 + k) as i32).collect()
}

/// One deployment: an adaptive echo service in `mode`, driven by a raw
/// generic client (fixed request bytes, so the reply image is the only
/// variable across modes). Returns the raw reply datagrams.
fn run_deployment(mode: Mode, faults: FaultConfig, seed: u64) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(faults), seed);
    let runtime = runtime_for(mode);
    let runs = Arc::new(AtomicU64::new(0));
    let r = runs.clone();
    let service =
        SpecService::new().proc_adaptive(runtime.clone(), echo_proc(), move |args: &StubArgs| {
            r.fetch_add(1, Ordering::Relaxed);
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        });
    service.serve_udp(&net, 700);

    let mut clnt = ClntUdp::create(&net, 5000, 700, ECHO_PROG, ECHO_VERS);
    clnt.retry_timeout = SimTime::from_millis(20);
    clnt.total_timeout = SimTime::from_millis(60_000);
    let mut replies = Vec::new();
    for i in 0..CALLS {
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(1 << 16);
        let mut data = call_data(i);
        generic_encode_request(&mut enc, xid, &mut data).expect("encode");
        let reply = clnt
            .exchange(&enc.into_bytes(), xid)
            .unwrap_or_else(|e| panic!("{mode:?} call {i} under faults: {e}"));
        replies.push(reply);
        // Fixed hot-swap points: background compiles become visible
        // after calls 4 and 8, deterministically.
        if mode == Mode::HotSwap && (i + 1) % 4 == 0 {
            runtime.drain();
        }
    }
    RunResult {
        replies,
        handler_runs: runs.load(Ordering::Relaxed),
        stats: runtime.stats(),
    }
}

#[test]
fn reply_bytes_are_identical_across_tiers_and_the_fault_matrix() {
    for seed in SEEDS {
        // Clean-network runs of all three deployments: the generic,
        // compile-ahead, and mid-stream-hot-swap servers must emit the
        // SAME reply datagrams — the tentpole wire property.
        let generic = run_deployment(Mode::Generic, FaultConfig::NONE, seed);
        let ahead = run_deployment(Mode::CompileAhead, FaultConfig::NONE, seed);
        let swap = run_deployment(Mode::HotSwap, FaultConfig::NONE, seed);
        assert_eq!(
            ahead.replies, generic.replies,
            "seed {seed}: compile-ahead replies must match the generic tier"
        );
        assert_eq!(
            swap.replies, generic.replies,
            "seed {seed}: hot-swapped replies must match the generic tier"
        );
        // The modes really exercised different tiers.
        assert_eq!(generic.stats.tier1_calls, 0, "seed {seed}");
        assert_eq!(ahead.stats.tier0_calls, 0, "seed {seed}");
        assert!(
            swap.stats.tier0_calls > 0 && swap.stats.tier1_calls > 0,
            "seed {seed}: hot-swap run must serve both tiers: {:?}",
            swap.stats
        );
        assert_eq!(swap.stats.hot_swaps, 1, "seed {seed}: one promotion");

        // The full fault matrix per mode: faults never change the reply
        // bytes, and the handler runs exactly once per transaction.
        for (name, cfg) in configs() {
            for mode in [Mode::Generic, Mode::CompileAhead, Mode::HotSwap] {
                let faulty = run_deployment(mode, cfg, seed);
                assert_eq!(
                    faulty.replies, generic.replies,
                    "{name}/{seed}/{mode:?}: faults must not change reply bytes"
                );
                assert_eq!(
                    faulty.handler_runs, CALLS as u64,
                    "{name}/{seed}/{mode:?}: handler must run exactly once per call"
                );
            }
        }
    }
}

#[test]
fn mid_stream_hot_swap_is_seamless_for_a_live_client() {
    // Client and server share one runtime: a client that started cold
    // keeps calling while the background compile publishes, and simply
    // finds itself on Tier-1 — same results, no error, no reconnect.
    let net = Network::new(NetworkConfig::lan(), 9);
    let runtime = runtime_for(Mode::HotSwap);
    let service =
        SpecService::new().proc_adaptive(runtime.clone(), echo_proc(), |args: &StubArgs| {
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        });
    service.serve_udp(&net, 700);
    let clnt = ClntUdp::create(&net, 5000, 700, ECHO_PROG, ECHO_VERS);
    let mut ac = AdaptiveClient::new(clnt, runtime.clone(), echo_proc());

    let mut tiers = Vec::new();
    for i in 0..8 {
        let data = call_data(i);
        let args = ac.args(vec![], vec![data.clone()]);
        let (out, tier) = ac.call(&args).expect("call");
        assert_eq!(out.arrays[0], data, "call {i}: echo integrity");
        tiers.push(tier);
        if i == 3 {
            runtime.drain();
        }
    }
    assert!(
        tiers[..4].iter().all(|t| *t == TierUsed::Generic),
        "pre-drain calls are cold: {tiers:?}"
    );
    assert!(
        tiers[4..].iter().all(|t| *t == TierUsed::Specialized),
        "post-drain calls hot-swapped: {tiers:?}"
    );
    let stats = runtime.stats();
    assert_eq!(stats.hot_swaps, 1, "{stats:?}");
    assert_eq!(ac.tier0_calls, 4);
    assert_eq!(ac.tier1_calls, 4);
    assert_eq!(ac.fallback_calls, 0, "no decode guard failures");
}

#[test]
fn promotion_fires_after_exactly_k_lookups() {
    let runtime = AdaptiveRuntime::new(
        AdaptiveConfig::default()
            .promote_after(3)
            .publish(PublishMode::OnDrain),
    );
    let ap = echo_proc();
    for i in 1..=2 {
        assert!(matches!(runtime.lookup(&ap), Tier::Generic));
        assert_eq!(
            runtime.stats().compiles_queued,
            0,
            "lookup {i} of 3 must not queue yet"
        );
    }
    assert!(matches!(runtime.lookup(&ap), Tier::Generic));
    assert_eq!(runtime.stats().compiles_queued, 1, "the K-th lookup queues");
    runtime.drain();
    assert!(
        matches!(runtime.lookup(&ap), Tier::Specialized(_)),
        "published compile serves Tier-1"
    );
    // The promotion is idempotent: more lookups never re-queue.
    for _ in 0..5 {
        assert!(matches!(runtime.lookup(&ap), Tier::Specialized(_)));
    }
    let stats = runtime.stats();
    assert_eq!(stats.compiles_queued, 1, "{stats:?}");
    assert_eq!(stats.compiles_completed, 1, "{stats:?}");
    assert_eq!(stats.hot_swaps, 1, "{stats:?}");
    assert_eq!(stats.tier0_calls, 3, "{stats:?}");
    assert_eq!(stats.tier1_calls, 6, "{stats:?}");
}

#[test]
fn churn_scenario_meets_the_acceptance_bars() {
    let cfg = AdaptiveScenarioConfig::smoke();
    let report = run_adaptive(&cfg).expect("adaptive run");
    let baseline = run_adaptive(&cfg.clone().generic_baseline()).expect("baseline run");

    // ≥90% of steady-state calls ride the specialized tier even though
    // the popular shape keeps rotating.
    let rate = report.steady_hit_rate();
    assert!(rate >= 0.9, "steady-state hit rate {rate:.3} under churn");

    // A cold call through Tier-0 costs at most 2× the generic round
    // trip — the promotion machinery adds bookkeeping, not a stall.
    let cold = report.cold_latency.p99();
    let generic = baseline.latency.p99();
    assert!(
        cold.as_nanos() <= 2 * generic.as_nanos(),
        "cold p99 {cold} exceeds 2x the generic p99 {generic}"
    );

    // The run exercised the subsystem end to end: promotions hot-swapped
    // and the undersized cache evicted by cost class.
    assert!(report.stats.hot_swaps > 0, "{:?}", report.stats);
    assert!(report.cache.evictions > 0, "{:?}", report.cache);
    assert_eq!(
        report.stats.evictions_by_class.iter().sum::<u64>(),
        report.cache.evictions,
        "every eviction lands in exactly one cost class"
    );

    // Deterministic: same config, byte-identical report.
    let again = run_adaptive(&cfg).expect("re-run");
    assert_eq!(report.render(), again.render());

    // The inline-compile baseline put through the same two bars: every
    // call rides the specialized stubs, and the worst of them — a first
    // call that waits for its own Tempo run (`modeled_compile_ns`, fitted
    // to the measured compile) — costs no more than the Tier-0 generic
    // call the background pool would have served instead.
    let inline = run_adaptive(&cfg.clone().inline_compile()).expect("inline run");
    assert!(inline.steady_hit_rate() >= 0.9);
    assert!(
        inline.latency.max().as_nanos() >= 270_000,
        "an inline compile is charged to its caller: max {}",
        inline.latency.max()
    );
    assert!(
        inline.latency.max().as_nanos() <= 2 * generic.as_nanos(),
        "inline worst call {} exceeds 2x the generic p99 {generic}",
        inline.latency.max()
    );
    // ROADMAP item 6's decision rule: end to end, compiling on first use
    // is within 1% of the background tier.
    let (inline_ns, tiered_ns) = (inline.elapsed.as_nanos(), report.elapsed.as_nanos());
    assert!(
        inline_ns.abs_diff(tiered_ns) * 100 <= tiered_ns,
        "inline {} vs tiered {}",
        inline.elapsed,
        report.elapsed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tier-0's request image is byte-identical to the compiled encode
    /// stub's for the same `(args, xid)` — arbitrary payload values.
    #[test]
    fn tier0_request_image_matches_the_compiled_stub(
        data in prop::collection::vec(any::<i32>(), 1..60),
        xid in any::<u32>(),
    ) {
        let n = data.len();
        let proc_ = ProcPipeline::new(n).build_from_idl(ECHO_IDL, None, 1).unwrap();
        let ap = AdaptiveProc::resolve(ProcPipeline::new(n), ECHO_IDL, None, 1).unwrap();

        // Generic image via the public Tier-0 encoder.
        let net = Network::new(NetworkConfig::lan(), 1);
        let clnt = ClntUdp::create(&net, 5100, 700, ECHO_PROG, ECHO_VERS);
        let runtime = AdaptiveRuntime::new(AdaptiveConfig::default().promote_after(u32::MAX));
        let mut ac = AdaptiveClient::new(clnt, runtime, ap);
        let args = ac.args(vec![], vec![data.clone()]);
        let generic = ac.encode_request_generic(&args, xid).unwrap();

        // Specialized image via the fused encode stub.
        let enc = &proc_.client_encode;
        let mut buf = vec![0u8; enc.wire_len];
        let mut counts = OpCounts::new();
        let r = run_encode_with_xid(&enc.program, &mut buf, &args, xid as i32, &mut counts)
            .unwrap();
        let Outcome::Done { ret: 1, wire_len } = r else {
            panic!("encode stub failed: {r:?}");
        };
        prop_assert_eq!(&buf[..wire_len], &generic[..]);
    }

    /// Cache policy invariants over arbitrary access traces: the entry
    /// count never exceeds the capacity, and the books always balance —
    /// every lookup is exactly one hit or miss, every miss created an
    /// entry, and every entry is either live or evicted, never both.
    #[test]
    fn cache_accounting_invariants_hold(
        ops in prop::collection::vec(1usize..6, 1..18),
        cap in 1usize..4,
    ) {
        let cache = StubCache::with_capacity(cap);
        for (step, &n) in ops.iter().enumerate() {
            cache
                .get_or_compile_idl(&ProcPipeline::new(n), ECHO_IDL, None, 1)
                .unwrap();
            let s = cache.stats();
            prop_assert!(s.entries <= cap, "step {}: {} > cap {}", step, s.entries, cap);
            prop_assert_eq!(
                s.hits + s.misses,
                step as u64 + 1,
                "every lookup is exactly one hit or miss"
            );
            prop_assert_eq!(
                s.entries as u64,
                s.misses - s.evictions,
                "live entries = misses - evictions (no double-count)"
            );
            prop_assert_eq!(
                s.evictions_by_class.iter().sum::<u64>(),
                s.evictions,
                "every eviction lands in exactly one cost class"
            );
        }
    }
}

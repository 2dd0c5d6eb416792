//! Concurrency stress. The whole serving stack is `Send + Sync`
//! (compile-time asserted below), one `SpecService` served by a reactor
//! with four workers handles N client threads hammering it over one
//! shared network, every thread resolves its stubs through one shared
//! `StubCache`, and afterwards every counter adds up: no lost or
//! duplicated replies, `hits + misses == cache lookups`, and the events
//! the workers and the stealing drivers executed sum to the number of
//! unique transactions.

use specrpc::echo::{ECHO_IDL, ECHO_PROG, ECHO_VERS};
use specrpc::{ProcPipeline, SpecClient, SpecService, StubCache};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::SimTime;
use specrpc_rpc::svc_udp::default_proc_time;
use specrpc_rpc::{serve, ClntUdp, ServeConfig, Served, SvcRegistry};
use specrpc_tempo::compile::StubArgs;
use std::sync::Arc;

const N: usize = 32;
const THREADS: usize = 8;
const CALLS: usize = 12;
const PORT: u32 = 780;

/// Compile-time assertion (static_assertions-style): the serving stack
/// crosses threads. A reintroduced `Rc`/`RefCell` anywhere inside these
/// types fails this test at *compile* time.
#[test]
fn serving_stack_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Network>();
    assert_send_sync::<SvcRegistry>();
    assert_send_sync::<SpecService>();
    assert_send_sync::<StubCache>();
    assert_send_sync::<Served>();
}

fn thread_data(t: usize, i: usize) -> Vec<i32> {
    (0..N)
        .map(|k| (t * 1_000_000 + i * 1_000 + k) as i32)
        .collect()
}

#[test]
fn n_threads_hammer_one_threaded_service_through_one_cache() {
    let cache = Arc::new(StubCache::new());
    let net = Network::new(NetworkConfig::lan(), 4242);

    // The server compiles through the shared cache: lookup #1, the miss.
    let proc_ = cache
        .get_or_compile_idl(&ProcPipeline::new(N), ECHO_IDL, None, 1)
        .expect("server stubs");
    let registry = SpecService::new()
        .proc(proc_, |args: &StubArgs| {
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        })
        .into_registry();
    let cfg = ServeConfig {
        workers_per_shard: 4,
        ..ServeConfig::new(&[PORT])
    };
    let served = serve(&net, registry, cfg);

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let net = net.clone();
        let cache = cache.clone();
        handles.push(std::thread::spawn(move || {
            let mut clnt = ClntUdp::create(&net, 6000 + t as u32, PORT, ECHO_PROG, ECHO_VERS);
            // Other threads may fast-forward the shared clock while we
            // wait; keep per-try short and the total budget huge.
            clnt.retry_timeout = SimTime::from_millis(50);
            clnt.total_timeout = SimTime::from_millis(600_000);
            // Lookups #2..=#THREADS+1: hits on the shared cache.
            let stubs = cache
                .get_or_compile_idl(&ProcPipeline::new(N), ECHO_IDL, None, 1)
                .expect("client stubs");
            let mut client = SpecClient::from_parts(clnt, stubs);
            let mut replies = 0u64;
            for i in 0..CALLS {
                let data = thread_data(t, i);
                let args = client.args(vec![], vec![data.clone()]);
                let (out, _path) = client
                    .call(&args)
                    .unwrap_or_else(|e| panic!("thread {t} call {i}: {e}"));
                // A lost reply would time out above; a duplicated or
                // cross-matched reply would fail here.
                assert_eq!(out.arrays[0], data, "thread {t} call {i}");
                replies += 1;
            }
            (replies, client.fast_calls + client.fallback_calls)
        }));
    }

    let mut total_replies = 0u64;
    for h in handles {
        let (replies, calls) = h.join().expect("client thread");
        assert_eq!(replies, CALLS as u64, "every call got exactly one reply");
        assert_eq!(calls, CALLS as u64);
        total_replies += replies;
    }
    assert_eq!(total_replies, (THREADS * CALLS) as u64);

    // Cache accounting: hits + misses == lookups (1 server + THREADS
    // clients), with exactly one Tempo run for the shared context.
    let stats = cache.stats();
    let lookups = (THREADS + 1) as u64;
    assert_eq!(stats.hits + stats.misses, lookups, "{stats:?}");
    assert_eq!(stats.misses, 1, "one compile for everyone: {stats:?}");
    assert_eq!(stats.entries, 1);

    // Reactor accounting: each unique transaction dispatched exactly
    // once (under a clean network with huge timeouts nothing is
    // retransmitted), by a worker or by a client thread that got to its
    // own delivery first.
    let per_thread = served.per_worker_events();
    assert_eq!(per_thread.len(), 4);
    assert_eq!(
        per_thread.iter().sum::<u64>() + served.driver_inline_events(),
        (THREADS * CALLS) as u64,
        "unique dispatches: {per_thread:?}"
    );
    assert_eq!(
        served.registry().raw_dispatches(),
        (THREADS * CALLS) as u64,
        "all calls took the specialized fast path"
    );
    assert_eq!(served.registry().raw_fallbacks(), 0);
    assert_eq!(
        served.per_shard_events(),
        vec![(THREADS * CALLS) as u64],
        "one shard owns the address"
    );
}

#[test]
fn n_threads_hammer_one_event_served_service_with_batches() {
    // The event-driven front end under real cross-thread pressure:
    // THREADS client threads drive one shared network, each issuing
    // pipelined batches against a 4-worker reactor (drivers steal when
    // the reactor is busy). Every batch completes in submission order,
    // no reply is lost or cross-matched, and the event accounting
    // (workers + steals) covers every unique transaction.
    const BATCH: usize = 4;
    const BATCHES: usize = 3;
    let cache = Arc::new(StubCache::new());
    let net = Network::new(NetworkConfig::lan(), 99);
    let proc_ = cache
        .get_or_compile_idl(&ProcPipeline::new(N), ECHO_IDL, None, 1)
        .expect("server stubs");
    let registry = SpecService::new()
        .proc(proc_, |args: &StubArgs| {
            StubArgs::new(vec![], vec![args.arrays[0].clone()])
        })
        .into_registry();
    let cfg = ServeConfig {
        workers_per_shard: 4,
        ..ServeConfig::new(&[PORT + 20])
    };
    let served = serve(&net, registry, cfg);

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let net = net.clone();
        let cache = cache.clone();
        handles.push(std::thread::spawn(move || {
            let mut clnt = ClntUdp::create(&net, 6100 + t as u32, PORT + 20, ECHO_PROG, ECHO_VERS);
            clnt.retry_timeout = SimTime::from_millis(50);
            clnt.total_timeout = SimTime::from_millis(600_000);
            let stubs = cache
                .get_or_compile_idl(&ProcPipeline::new(N), ECHO_IDL, None, 1)
                .expect("client stubs");
            let mut client = SpecClient::from_parts(clnt, stubs);
            for b in 0..BATCHES {
                let batch: Vec<StubArgs> = (0..BATCH)
                    .map(|k| {
                        let data = thread_data(t, b * BATCH + k);
                        client.args(vec![], vec![data])
                    })
                    .collect();
                let results = client
                    .call_batch(&batch)
                    .unwrap_or_else(|e| panic!("thread {t} batch {b}: {e}"));
                for (k, (out, _path)) in results.iter().enumerate() {
                    let want = thread_data(t, b * BATCH + k);
                    assert_eq!(out.arrays[0], want, "thread {t} batch {b} call {k}");
                }
            }
            client.fast_calls + client.fallback_calls
        }));
    }
    let mut total = 0u64;
    for h in handles {
        total += h.join().expect("client thread");
    }
    assert_eq!(total, (THREADS * BATCH * BATCHES) as u64);
    // Workers + steals cover every unique transaction (duplicates are
    // replayed from the cache, not re-dispatched; under a clean network
    // with huge timeouts there are none).
    assert_eq!(served.total_events(), (THREADS * BATCH * BATCHES) as u64);
    assert_eq!(served.per_worker_events().len(), 4, "one count per worker");
}

#[test]
fn lock_free_clock_readers_see_only_instants_of_the_drivers_trace() {
    // `Network::now()` takes no lock. While ONE thread drives 10 000
    // calls, four others spin on it: whatever they read must be an
    // instant the clock really was at — a request's arrival, the end of
    // its processing, its reply's arrival — never a torn or invented
    // value, and never one that runs backwards. And being watched must
    // not change the run: the driver's trace equals the reader-free one.
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};
    const DRIVEN: usize = 10_000;
    const READERS: usize = 4;

    /// Returns the clock's every value in order, and what each reader saw
    /// (consecutive repeats folded).
    fn run(readers: usize) -> (Vec<SimTime>, Vec<Vec<SimTime>>) {
        let net = Network::new(NetworkConfig::lan(), 5);
        let proc_ = Arc::new(
            ProcPipeline::new(N)
                .build_from_idl(ECHO_IDL, None, 1)
                .expect("pipeline"),
        );
        // The handler runs at the arrival instant; the processing-time
        // model charges the request and reply images from there.
        let trace = Arc::new(Mutex::new(vec![SimTime::ZERO]));
        let (n2, t2) = (net.clone(), trace.clone());
        let wire = (proc_.client_encode.wire_len, proc_.server_encode.wire_len);
        let proc_time = default_proc_time(wire.0, wire.1);
        let registry = SpecService::new()
            .proc(proc_.clone(), move |args: &StubArgs| {
                let arrived = n2.now();
                t2.lock()
                    .expect("trace")
                    .extend([arrived, arrived + proc_time]);
                StubArgs::new(vec![], vec![args.arrays[0].clone()])
            })
            .into_registry();
        let cfg = specrpc_rpc::ServeConfig::new(&[PORT + 30]);
        specrpc_rpc::serve(&net, registry, cfg).detach();
        let clnt = ClntUdp::create(&net, 6200, PORT + 30, ECHO_PROG, ECHO_VERS);
        let mut client = SpecClient::from_parts(clnt, proc_);

        let stop = AtomicBool::new(false);
        let start = Barrier::new(readers + 1);
        let seen = std::thread::scope(|s| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = vec![net.now()];
                        start.wait();
                        while !stop.load(Ordering::Acquire) {
                            let now = net.now();
                            if seen.last() != Some(&now) {
                                seen.push(now);
                            }
                        }
                        seen
                    })
                })
                .collect();
            // Readers are spinning before the first call goes out.
            start.wait();
            let data = thread_data(0, 0);
            let args = client.args(vec![], vec![data.clone()]);
            let mut out = StubArgs::default();
            for i in 0..DRIVEN {
                client
                    .call_into(&args, &mut out)
                    .unwrap_or_else(|e| panic!("call {i}: {e}"));
                assert_eq!(out.arrays[0], data, "call {i}");
                trace.lock().expect("trace").push(net.now());
            }
            stop.store(true, Ordering::Release);
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect::<Vec<_>>()
        });
        let trace = trace.lock().expect("trace").clone();
        (trace, seen)
    }

    let (alone, _) = run(0);
    assert_eq!(alone.len(), 1 + 3 * DRIVEN);
    assert!(alone.windows(2).all(|w| w[0] < w[1]), "the trace ascends");
    let (watched, seen) = run(READERS);
    assert_eq!(watched, alone, "readers must not perturb the driver");
    let instants: HashSet<SimTime> = alone.iter().copied().collect();
    assert!(
        seen.iter().any(|s| s.len() > 1),
        "no reader ever saw the clock move: the check would be vacuous"
    );
    for (r, seen) in seen.iter().enumerate() {
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "reader {r} saw the clock run backwards"
        );
        if let Some(alien) = seen.iter().find(|t| !instants.contains(t)) {
            panic!("reader {r} read {alien}, an instant the run never had");
        }
    }
}

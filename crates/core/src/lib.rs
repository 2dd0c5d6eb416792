//! `specrpc` — the end-to-end facade of the reproduction.
//!
//! Everything the paper's experiment does, behind one API:
//!
//! 1. parse an RPC interface definition (`specrpc-rpcgen`),
//! 2. generate the generic marshaling stubs in the Sun micro-layer style,
//! 3. run the Tempo pipeline (`specrpc-tempo`): binding-time division,
//!    specialization against the statically known call context, residual
//!    clean-up, compilation to loop-form stub programs,
//! 4. wire the result into the RPC runtime (`specrpc-rpc`) over the
//!    simulated network (`specrpc-netsim`), with automatic fallback to the
//!    generic path when a dynamic guard fails (§6.2 of the paper).
//!
//! # The facade
//!
//! Three pieces cover deployment:
//!
//! - [`SpecClient`] — a specialized client over any
//!   [`Transport`](specrpc_rpc::Transport) (retransmitting UDP or
//!   record-marked TCP), built from a transport and a compiled stub set:
//!   `SpecClient::from_parts(transport, proc_)`. The stubs come from
//!   [`ProcPipeline`] (`ProcPipeline::new(n)` is the per-size context;
//!   its `chunk` field is Table 4's unroll bound), shared through
//!   [`StubCache`].
//! - [`SpecService`] — a server hosting *multiple* procedures, each
//!   installed with a compiled fast path and a generic guard fallback,
//!   dispatched by procedure number.
//! - [`StubCache`] — memoizes Tempo output per
//!   `(program, version, procedure,` [`ShapeKey`]`)`, so one
//!   specialization context compiles once no matter how many clients and
//!   services use it.
//!
//! # Quickstart
//!
//! A doubling service and a specialized client, end to end:
//!
//! ```
//! use specrpc::{ProcPipeline, SpecClient, SpecService, StubCache};
//! use specrpc_netsim::net::{Network, NetworkConfig};
//! use specrpc_rpc::ClntUdp;
//! use specrpc_tempo::compile::StubArgs;
//! use std::sync::Arc;
//!
//! const IDL: &str = r#"
//!     program DBLPROG {
//!         version DBLVERS { int DOUBLE(int) = 1; } = 1;
//!     } = 0x20000777;
//! "#;
//!
//! // One Tempo run, shared by server and client through the cache.
//! let cache = Arc::new(StubCache::new());
//! let pipeline = ProcPipeline::new(0);
//! let proc_ = cache.get_or_compile_idl(&pipeline, IDL, None, 1).unwrap();
//!
//! let net = Network::new(NetworkConfig::lan(), 1);
//! SpecService::new()
//!     .proc(proc_.clone(), |args: &StubArgs| {
//!         let v = *args.scalars.last().unwrap();
//!         StubArgs::new(vec![v * 2], vec![])
//!     })
//!     .serve_udp(&net, 900);
//!
//! let transport = ClntUdp::create(&net, 5001, 900, 0x2000_0777, 1);
//! let stubs = cache.get_or_compile_idl(&pipeline, IDL, None, 1).unwrap();
//! let mut client = SpecClient::from_parts(transport, stubs);
//!
//! let (out, path) = client.call(&client.args(vec![21], vec![])).unwrap();
//! assert_eq!(*out.scalars.last().unwrap(), 42);
//! assert_eq!(path, specrpc::PathUsed::Fast);
//! // The client's stubs came from the cache: one miss (the compile),
//! // one hit (the client reusing it).
//! assert_eq!(cache.stats().misses, 1);
//! assert_eq!(cache.stats().hits, 1);
//! ```
//!
//! # Threading model
//!
//! The entire serving stack is `Send + Sync` and shares through `Arc`:
//!
//! - [`Network`](specrpc_netsim::Network) keeps all simulator state —
//!   including the virtual clock — behind one lock, so any number of
//!   threads may drive it; with a single driving thread the trace is
//!   fully deterministic (seeded faults, tie-broken event order), while
//!   multiple driving threads stay data-race-free but interleave
//!   scheduling-dependently (see `specrpc_netsim::net` for the precise
//!   guarantee).
//! - [`SvcRegistry`](specrpc_rpc::SvcRegistry) is one table of
//!   `Box<dyn Fn … + Send + Sync>` handlers, filled before it is shared;
//!   dispatch through `&self` reads it with no lock, so independent
//!   requests dispatch concurrently.
//! - [`StubCache`] is `Arc`/`Mutex`-based: equal contexts compile exactly
//!   once no matter how many threads race on the lookup.
//! - Every UDP deployment is one reactor ([`specrpc_rpc::serve`]); its
//!   workers, when it has any, dispatch requests that are in flight
//!   together on their own threads through the one shared registry (see
//!   "Scaling the server" below).
//!
//! # The wire path
//!
//! Marshaling runs on one of two lanes, pinned byte-identical by the
//! equivalence tests:
//!
//! - the **generic counted lane** — the 1984 interpretive structure kept
//!   on purpose: every primitive dispatches on the stream's `x_op`
//!   through `&mut dyn XdrStream`, every 4-byte item pays an `x_handy`
//!   overflow check, every layer propagates status. This is the measured
//!   baseline and the §6.2 guard-fallback path.
//! - the **zero-copy lane** — what specialization leaves behind: compiled
//!   stubs run as one kernel each (contiguous element runs execute as single
//!   bulk block copies, no per-element dispatch), the client emits the
//!   header and arguments in one pass into a
//!   [`WireBuf`](specrpc_xdr::WireBuf) preallocated once at the stub's
//!   exact wire length and rewound per call, transports borrow the
//!   request (retransmissions rewind and re-send the same image instead
//!   of cloning it), and every buffer cycles through a shared
//!   [`BufPool`](specrpc_rpc::BufPool). In steady state a specialized
//!   round trip allocates **nothing, process-wide**: `tests/cost_vector.rs`
//!   pins it per workload (its `echo20_udp` row among others), and a
//!   client's `OpCounts::mem_moves` counts the bytes it copied.
//!
//! `cargo test --release -p specrpc-bench --test paper_ratio -- --nocapture`
//! measures this lane against the generic one at n = 20 / 250 / 2000.
//!
//! The allocation-free loop, end to end:
//!
//! ```
//! use specrpc::echo::{workload, ECHO_IDL, ECHO_PROC, ECHO_PROG, ECHO_VERS};
//! use specrpc::{PathUsed, ProcPipeline, SpecClient, SpecService};
//! use specrpc_netsim::net::{Network, NetworkConfig};
//! use specrpc_rpc::ClntUdp;
//! use specrpc_tempo::compile::StubArgs;
//! use std::sync::Arc;
//!
//! let n = 64;
//! let proc_ = Arc::new(
//!     ProcPipeline::new(n).build_from_idl(ECHO_IDL, None, ECHO_PROC).unwrap(),
//! );
//! let net = Network::new(NetworkConfig::lan(), 5);
//! let reg = SpecService::new()
//!     .proc(proc_.clone(), |args: &StubArgs| {
//!         StubArgs::new(vec![], vec![args.arrays[0].clone()])
//!     })
//!     .into_registry();
//! // A small duplicate-request cache keeps the warm-up window short.
//! let cfg = specrpc_rpc::ServeConfig {
//!     cache_entries: 4,
//!     ..specrpc_rpc::ServeConfig::new(&[902])
//! };
//! specrpc_rpc::serve(&net, reg.clone(), cfg).detach();
//!
//! // The client shares the registry's wire-buffer pool, so what either
//! // side takes from it on an irregular call the other puts back.
//! let transport =
//!     ClntUdp::create_pooled(&net, 5003, 902, ECHO_PROG, ECHO_VERS, reg.pool().clone());
//! let mut client = SpecClient::from_parts(transport, proc_);
//!
//! let data = workload(n);
//! let args = client.args(vec![], vec![data.clone()]);
//! let mut out = StubArgs::default(); // reused result slots
//! for _ in 0..8 {
//!     let path = client.call_into(&args, &mut out).unwrap();
//!     assert_eq!(path, PathUsed::Fast);
//!     assert_eq!(out.arrays[0], data);
//! }
//! // Warm-up done: from here each side sends in the buffer it last
//! // consumed, and no call takes from or returns to the pool.
//! let warm = reg.pool().stats();
//! for _ in 0..5 {
//!     client.call_into(&args, &mut out).unwrap();
//! }
//! assert_eq!(reg.pool().stats(), warm);
//! ```
//!
//! # Scaling the server
//!
//! There is one serving core and one way to deploy it:
//! [`specrpc_rpc::serve`] registers each address of a
//! [`specrpc_rpc::ServeConfig`] on the simulator's delivery lane with a
//! cache-fronted dispatch body (registry, dup cache, buffer pool,
//! zero-copy encode). [`SpecService::serve_udp`] is that call for one
//! address with the defaults; two numbers of the config shape anything
//! bigger:
//!
//! - **`shards`**: a shard owns a slice of the served addresses
//!   (`addr % shards`) together with that slice's duplicate-request
//!   caches and buffer pool. A one-shard deployment draws on the
//!   registry's own pool, so a pooled client and its server allocate
//!   nothing per call; a steady call does not visit the pool at all (see
//!   `specrpc_rpc::bufpool`).
//! - **`workers_per_shard`**: a worker is a reactor thread of one shard.
//!   It drains its shard's sockets round-robin, steals one datagram at a
//!   time from peer shards when its own are dry, and sleeps when the map
//!   is. The simulator holds one delivery at a time, so a worker races
//!   the driving thread for it: it adds a cross-thread hand-off, not
//!   parallelism. With **zero** (the default) nothing is spawned: the
//!   thread driving the network executes each delivery in place. That is
//!   the deterministic mode — byte- and virtual-time-identical for any
//!   shard count, since shard assignment moves ownership, never delivery
//!   order — and, with no hand-off between threads, the fast one on a
//!   host with few cores.
//!
//! Batching pays on the wire instead: [`SpecClient::call_batch`] keeps N
//! pipelined requests outstanding (one reused `WireBuf` scratch per slot,
//! xid-matched completion, results in submission order), so the
//! propagation latency and the server's turnaround overlap across the
//! batch. With one driving thread the virtual-time trace is the same
//! whatever the shard and worker counts. Event counts are read from the
//! returned [`specrpc_rpc::Served`].
//!
//! Two shards with a worker each, a batch against one of them:
//!
//! ```
//! use specrpc::echo::{build_echo_proc, echo_service, ECHO_PROG, ECHO_VERS};
//! use specrpc::SpecClient;
//! use specrpc_netsim::net::{Network, NetworkConfig};
//! use specrpc_rpc::{serve, ClntUdp, ServeConfig};
//! use specrpc_tempo::compile::StubArgs;
//! use std::sync::Arc;
//!
//! let net = Network::new(NetworkConfig::lan(), 5);
//! let proc_ = Arc::new(build_echo_proc(8, None).unwrap());
//! let cfg = ServeConfig {
//!     shards: 2,
//!     workers_per_shard: 1,
//!     ..ServeConfig::new(&[910, 911])
//! };
//! let served = serve(&net, echo_service(proc_.clone()).into_registry(), cfg);
//!
//! // Eight calls in flight at once; replies return in submission order.
//! let transport = ClntUdp::create(&net, 5200, 910, ECHO_PROG, ECHO_VERS);
//! let mut client = SpecClient::from_parts(transport, proc_.clone());
//! let batch: Vec<StubArgs> = (0..8)
//!     .map(|i| client.args(vec![], vec![vec![i; 8]]))
//!     .collect();
//! let results = client.call_batch(&batch).unwrap();
//! for (i, (out, _path)) in results.iter().enumerate() {
//!     assert_eq!(out.arrays[0], vec![i as i32; 8]);
//! }
//! // One plain call to the other shard's port.
//! let transport = ClntUdp::create(&net, 5201, 911, ECHO_PROG, ECHO_VERS);
//! let mut other = SpecClient::from_parts(transport, proc_);
//! let args = other.args(vec![], vec![vec![7; 8]]);
//! assert_eq!(other.call(&args).unwrap().0.arrays[0], vec![7; 8]);
//!
//! // Events are credited to the shard that owns the address, whoever
//! // executed them — a worker, a stealing peer, or the driving thread.
//! assert_eq!(served.per_shard_events(), vec![8, 1]);
//! // One count per worker; what the workers did not execute, the driving
//! // thread did in place.
//! let per_worker = served.per_worker_events();
//! assert_eq!(per_worker.len(), 2);
//! assert_eq!(per_worker.iter().sum::<u64>() + served.driver_inline_events(), 9);
//! ```
//!
//! The open-loop **million-client scenario** (one pre-encoded request
//! per endpoint, zipf-skewed shape mix, latency quantiles and per-shard
//! throughput in its [`ScaleReport`]) lives in [`scenario`]; run it via
//! `cargo run --release --example million_clients`.
//!
//! The [`echo`] module packages the paper's benchmark workload (a remote
//! procedure exchanging integer arrays, §5 "The test program"); [`client`]
//! and [`service`] hold the transport-agnostic facade; [`cache`] the
//! shape-keyed specialization cache (a cold shape is compiled by its
//! first caller); [`pipeline`] the IDL-to-stub driver; [`summary`] maps
//! specializer statistics onto the paper's §3 categories (plus the
//! log-bucket latency histogram); [`scenario`] the open-loop scale
//! scenarios.

#![deny(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod congestion;
pub mod echo;
pub mod generic;
pub mod invariants;
pub mod pipeline;
pub mod scenario;
pub mod service;
pub mod summary;

pub use cache::{CacheStats, ShapeKey, StubCache, DEFAULT_STUB_CACHE_ENTRIES};
pub use chaos::{run_chaos, run_chaos_matrix, ChaosConfig, ChaosReport};
pub use client::{PathUsed, SpecClient};
pub use congestion::{run_congestion, run_congestion_matrix, CongestionConfig, CongestionReport};
pub use invariants::{Execution, Invariants, Repeat};
pub use pipeline::{CompiledProc, PipelineError, ProcPipeline};
pub use scenario::{
    deploy_nfs_service, run_nfs, run_scale, run_scale_single_shard, NfsConfig, NfsReport,
    ScaleConfig, ScaleReport,
};
pub use service::{SpecHandler, SpecService};
/// A running datagram deployment, by the name the benchmark's API
/// contract gives it.
pub use specrpc_rpc::Served as EventService;
pub use summary::{LatencyHistogram, Summary};

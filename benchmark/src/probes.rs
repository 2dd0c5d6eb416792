//! The traced run: a ladder of probes, each timing calls into one layer's
//! public functions at the workload's own shape.
//!
//! Each rung contains the ones below it —
//!
//! ```text
//! core.call ─┬─ bench.verify (the benchmark's own reply check)
//!            ├─ xdr.wirebuf_reset (the request image's rewind)
//!            ├─ tempo.client_encode / xdr.generic_encode
//!            ├─ tempo.client_decode / xdr.generic_decode
//!            └─ rpc.transport_call ─┬─ netsim.datagram_rt | netsim.stream_rt
//!                                   └─ rpc.dispatch ─┬─ tempo.server_decode
//!                                                    └─ tempo.server_encode
//! ```
//!
//! — so a rung's self time is its own time minus its children's. Because
//! self times are differences, the rungs are timed *interleaved*: one
//! short batch of each in turn, round after round, so that a disturbed
//! stretch of the host slows every rung's sample alike and not one rung's
//! whole measurement.
//!
//! The probes live entirely in the benchmark (spans inside the crates are
//! a later change), record one span per timed batch in memory, and are
//! written out when the run ends. End-to-end metrics never come from
//! here: the traced run times the untraced loop as one more rung only to
//! state its own overhead.

use crate::alloc::counted;
use crate::json::Json;
use crate::metrics::Report;
use crate::stats::{percentile, shortest};
use crate::workloads::{
    nfs_config, nfs_slice, push_link_counts, scale_config, scale_slice, seeded_array, EchoRig,
    Lane, Slice, Workload, MIN_SLICES, SAMPLE_EVERY,
};
use specrpc::echo::{
    generic_decode_reply, generic_encode_request, BatchEchoBench, ECHO_IDL, ECHO_PROC,
};
use specrpc::scenario::{
    deploy_scale_service, NFS_COMMIT, NFS_GETATTR, NFS_PROG, NFS_VERS, NFS_WRITE, SCALE_PROG,
    SCALE_VERS,
};
use specrpc::{deploy_nfs_service, NfsConfig, ProcPipeline};
use specrpc_netsim::net::{Network, NetworkConfig, TcpHandler};
use specrpc_netsim::SimTime;
use specrpc_rpc::msg::CallHeader;
use specrpc_rpc::{ClntUdp, CoalescePolicy, PoolStats, SvcRegistry, Transport};
use specrpc_tempo::compile::{run_decode, run_encode, StubArgs};
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::rec::{read_record_into, write_record};
use specrpc_xdr::{OpCounts, WireBuf};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed batch of one rung.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The rung this one is nested in (`None` for a top rung).
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub iterations: u64,
}

pub fn spans_json(w: Workload, spans: &[Span]) -> Json {
    let span = |s: &Span| {
        Json::Obj(vec![
            ("name".into(), Json::Str(s.name.into())),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Str(p.into())),
            ),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ("iterations".into(), Json::Num(s.iterations as f64)),
        ])
    };
    Json::Obj(vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("spans".into(), Json::Arr(spans.iter().map(span).collect())),
    ])
}

/// A batch is sized to take about this long: short enough that a round of
/// all rungs fits inside one disturbed (or undisturbed) stretch of the
/// host, long enough that the clock reads cost nothing.
const BATCH_TARGET: Duration = Duration::from_millis(10);
/// Iterations of the separate, short pass that counts allocations (the
/// counts are deterministic; timing passes run with counting off).
const COUNT_ITERS: u64 = 1_000;
/// The span name of the untraced loop timed as a rung.
const UNTRACED: &str = "untraced";

/// One rung of a ladder: its span name, the rung it is nested in, and its
/// work — `batch(k)` runs `k` iterations.
struct Rung<'a> {
    name: &'static str,
    parent: Option<&'static str>,
    batch: Box<dyn FnMut(u64) + 'a>,
}

impl<'a> Rung<'a> {
    fn new(
        name: &'static str,
        parent: Option<&'static str>,
        batch: impl FnMut(u64) + 'a,
    ) -> Rung<'a> {
        Rung {
            name,
            parent,
            batch: Box::new(batch),
        }
    }
}

/// What a climb measured: per rung, the nanoseconds per iteration of its
/// best batch (the statistic the untraced throughput is read with).
struct Timings(Vec<(&'static str, f64)>);

impl Timings {
    fn get(&self, rung: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == rung).map(|(_, ns)| *ns)
    }

    /// # Panics
    /// Panics if `rung` was not on the ladder (a bug in the caller).
    fn ns(&self, rung: &str) -> f64 {
        self.get(rung)
            .unwrap_or_else(|| panic!("rung `{rung}` was not climbed"))
    }
}

/// Time every rung for about `seconds` in all: size each rung's batch
/// from a first look at it (which also warms it), then run one batch of
/// each in turn, round after round. One span per batch.
fn climb(seconds: f64, rungs: &mut [Rung<'_>]) -> (Timings, Vec<Span>) {
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;

    let iterations: Vec<u64> = rungs
        .iter_mut()
        .map(|rung| {
            let look = Instant::now();
            (rung.batch)(1);
            let mut once = look.elapsed();
            if once < BATCH_TARGET / 100 {
                let look = Instant::now();
                (rung.batch)(64);
                once = look.elapsed() / 64;
            }
            (BATCH_TARGET.as_nanos() / once.as_nanos().max(1)).clamp(1, 1 << 20) as u64
        })
        .collect();

    let mut per_iter: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut spans = Vec::new();
    while per_iter[0].len() < MIN_SLICES || origin.elapsed().as_secs_f64() < seconds {
        for (k, rung) in rungs.iter_mut().enumerate() {
            let start_ns = now_ns();
            (rung.batch)(iterations[k]);
            let end_ns = now_ns();
            per_iter[k].push((end_ns - start_ns) as f64 / iterations[k] as f64);
            spans.push(Span {
                name: rung.name,
                parent: rung.parent,
                start_ns,
                end_ns,
                iterations: iterations[k],
            });
        }
    }
    let timings = rungs
        .iter()
        .zip(&per_iter)
        .map(|(rung, times)| (rung.name, shortest(times)))
        .collect();
    (Timings(timings), spans)
}

/// Allocations and bytes per iteration of `rung`, process-wide.
///
/// # Panics
/// Panics if `rung` is not among `rungs`.
fn allocs_per_iter(rungs: &mut [Rung<'_>], rung: &str, iterations: u64) -> (f64, f64) {
    let rung = rungs
        .iter_mut()
        .find(|r| r.name == rung)
        .unwrap_or_else(|| panic!("rung `{rung}` is not on the ladder"));
    let ((), allocs, bytes) = counted(|| (rung.batch)(iterations));
    (
        allocs as f64 / iterations as f64,
        bytes as f64 / iterations as f64,
    )
}

/// A traced report seeded with the link counters of `exact` — the span an
/// untraced round takes them over, so the counters are the same.
fn new_report(w: Workload, seed: u64, exact: &Slice) -> Report {
    let mut report = Report {
        workload: w.name().to_string(),
        seed,
        traced: true,
        attempted: exact.ops,
        failed: exact.failed,
        metrics: Vec::new(),
        rounds: Vec::new(),
    };
    push_link_counts(&mut report, exact);
    report
}

fn patch_xid(request: &mut [u8], xid: u32) {
    request[..4].copy_from_slice(&xid.to_be_bytes());
}

/// `rpc.transport_call`'s work: raw exchanges of a pre-encoded request,
/// xid patched per call, reply recycled — the client transport, the wire,
/// the serving adapter with its dup cache, and dispatch; no client stubs.
fn exchange<T: Transport>(transport: &mut T, request: &mut [u8], iterations: u64) {
    for _ in 0..iterations {
        let xid = transport.next_xid();
        patch_xid(request, xid);
        let reply = transport.call(request, xid).expect("transport exchange");
        transport.recycle(black_box(reply));
    }
}

/// `netsim.datagram_rt`: a datagram of `len` bytes to a handler that
/// sends it straight back with zero processing time — the simulator's
/// event queue, locks and mailbox and nothing else.
struct DatagramRt {
    net: Network,
    ep: specrpc_netsim::Endpoint,
    /// The datagram that comes back is the next one sent, so the probe
    /// itself allocates nothing.
    payload: Vec<u8>,
}

impl DatagramRt {
    const SERVER: u32 = 9;

    fn new(cfg: NetworkConfig, len: usize) -> DatagramRt {
        let net = Network::new(cfg, 1);
        net.serve_udp(
            Self::SERVER,
            Box::new(|payload, _from| Some((std::mem::take(payload), SimTime::ZERO))),
        );
        let ep = net.bind_udp(10);
        DatagramRt {
            net,
            ep,
            payload: vec![0x5a; len],
        }
    }

    fn rung(&mut self) -> Rung<'_> {
        Rung::new(
            "netsim.datagram_rt",
            Some("rpc.transport_call"),
            |iterations| {
                for _ in 0..iterations {
                    self.ep
                        .send_to(Self::SERVER, std::mem::take(&mut self.payload));
                    self.payload = self
                        .ep
                        .recv_timeout(SimTime::from_millis(1_000))
                        .expect("echoed datagram")
                        .payload;
                }
            },
        )
    }

    /// Virtual microseconds per round trip over everything sent so far.
    fn virt_us_per_rt(net: &Network) -> f64 {
        let round_trips = net.link_stats().datagrams / 2;
        net.now().as_nanos() as f64 / 1e3 / round_trips as f64
    }
}

/// `netsim.stream_rt`: a record of `len` bytes over a connection whose
/// server side writes back whatever arrives.
fn stream_rt_rung<'a>(len: usize) -> Rung<'a> {
    struct EchoBytes;
    impl TcpHandler for EchoBytes {
        fn on_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, SimTime) {
            (bytes.to_vec(), SimTime::ZERO)
        }
    }
    const SERVER: u32 = 9;
    let net = Network::new(NetworkConfig::lan(), 1);
    net.serve_tcp(SERVER, Box::new(|| Box::new(EchoBytes)));
    let mut conn = net.connect_tcp(SERVER).expect("listener installed");
    let payload = vec![0x5au8; len];
    let mut back = Vec::with_capacity(len);
    Rung::new(
        "netsim.stream_rt",
        Some("rpc.transport_call"),
        move |iterations| {
            for _ in 0..iterations {
                write_record(&mut conn, &payload).expect("stream write");
                read_record_into(&mut conn, &mut back).expect("stream read");
                black_box(back.len());
            }
        },
    )
}

/// `rpc.dispatch`: the registry alone — no network, no dup cache. The
/// reply goes back to the registry's pool, as the serving adapters return
/// it, so the probe stays on the pooled lane.
fn dispatch_rung<'a>(registry: &'a SvcRegistry, request: &'a [u8]) -> Rung<'a> {
    Rung::new(
        "rpc.dispatch",
        Some("rpc.transport_call"),
        move |iterations| {
            for _ in 0..iterations {
                let reply = registry.dispatch(black_box(request));
                registry.pool().put(black_box(reply));
            }
        },
    )
}

/// `rpc.dispatch_ns` and its companions, from a climbed dispatch rung.
fn push_dispatch(
    report: &mut Report,
    ns: &Timings,
    rungs: &mut [Rung<'_>],
    registry: &SvcRegistry,
    dispatches_before: (u64, u64),
) {
    let raw = (registry.raw_dispatches() - dispatches_before.0) as f64;
    let generic = (registry.generic_dispatches() - dispatches_before.1) as f64;
    report.push("rpc.dispatch_ns", ns.ns("rpc.dispatch"));
    report.push("rpc.raw_dispatch_share", raw / (raw + generic));
    report.push(
        "rpc.allocs_per_dispatch",
        allocs_per_iter(rungs, "rpc.dispatch", COUNT_ITERS).0,
    );
}

fn push_datagram_rt(report: &mut Report, ns: &Timings, rungs: &mut [Rung<'_>], net: &Network) {
    report.push("netsim.datagram_rt_ns", ns.ns("netsim.datagram_rt"));
    report.push(
        "netsim.virt_datagram_rt_us",
        DatagramRt::virt_us_per_rt(net),
    );
    report.push(
        "netsim.allocs_per_datagram_rt",
        allocs_per_iter(rungs, "netsim.datagram_rt", COUNT_ITERS).0,
    );
}

/// What the `core.call` rung's batches added up to, read off the rig
/// around each batch (other rungs drive the same server and pool, so a
/// before/after of the whole climb would count their work too).
#[derive(Default)]
struct CallTally {
    calls: u64,
    failed: u64,
    /// Wall-clock nanoseconds of every [`SAMPLE_EVERY`]-th call.
    samples: Vec<u64>,
    handler_runs: u64,
    retransmits: u64,
    fast_calls: u64,
    pool: PoolStats,
}

/// The rig's running counters.
struct RigCounters {
    handler_runs: u64,
    retransmits: u64,
    fast_calls: u64,
    pool: PoolStats,
}

impl EchoRig {
    fn counters(&mut self) -> RigCounters {
        RigCounters {
            handler_runs: self.handler_runs(),
            // A stream never retransmits.
            retransmits: match &mut self.lane {
                Lane::Udp(c) => c.transport_mut().retransmits,
                Lane::Generic(b) => b.generic.retransmits,
                Lane::Tcp(_) => 0,
            },
            fast_calls: match &self.lane {
                Lane::Udp(c) => c.fast_calls,
                Lane::Tcp(c) => c.fast_calls,
                Lane::Generic(_) => 0,
            },
            pool: self.registry.pool().stats(),
        }
    }
}

impl CallTally {
    fn add(&mut self, before: &RigCounters, after: &RigCounters) {
        self.handler_runs += after.handler_runs - before.handler_runs;
        self.retransmits += after.retransmits - before.retransmits;
        self.fast_calls += after.fast_calls - before.fast_calls;
        self.pool.hits += after.pool.hits - before.pool.hits;
        self.pool.misses += after.pool.misses - before.pool.misses;
        self.pool.overflow_drops += after.pool.overflow_drops - before.pool.overflow_drops;
    }
}

/// The traced run of an echo workload.
fn trace_echo(w: Workload, seed: u64, seconds: f64) -> (Report, Vec<Span>) {
    let n = w.echo_len().expect("an echo workload");
    let mut rig = EchoRig::deploy(w, seed);
    rig.warm_up();
    let exact = rig.slice(w.exact_ops());
    let mut report = new_report(w, seed, &exact);
    // Every call so far went through `rig.call`; the lower rungs drive
    // the server behind its back, so exactly-once is settled here (and
    // again, batch by batch, on the `core.call` rung).
    report.failed += rig.exactly_once_violations();

    // The request and reply images every lower rung replays. The generic
    // lane's request is byte-identical to the specialized one; encode it
    // the way that lane does.
    let generic_lane = matches!(rig.lane, Lane::Generic(_));
    let request = if generic_lane {
        let mut enc = XdrMem::encoder(64 + 4 * n);
        generic_encode_request(&mut enc, 1, &mut rig.data.clone()).expect("generic encode");
        enc.bytes().to_vec()
    } else {
        let enc = &rig.proc_.client_encode;
        let mut buf = vec![0u8; enc.wire_len];
        let args = StubArgs::new(vec![1], vec![rig.data.clone()]);
        run_encode(&enc.program, &mut buf, &args, &mut OpCounts::new()).expect("encode");
        buf
    };
    let reply = rig.registry.dispatch(&request);
    let (proc_, registry, data) = (rig.proc_.clone(), rig.registry.clone(), rig.data.clone());
    let p = &*proc_;
    let stream = matches!(rig.lane, Lane::Tcp(_));
    let mut datagram_rt = DatagramRt::new(NetworkConfig::lan(), request.len());
    let wire_net = datagram_rt.net.clone();

    // Buffers the stub rungs work in. The reply stub's scalar slot 0 and
    // the request stub's are the xid.
    let counts = RefCell::new(OpCounts::new());
    let mut server_args = StubArgs::default();
    let results = StubArgs::new(vec![1], vec![data.clone()]);
    let mut reply_image = vec![0u8; p.server_encode.wire_len];
    let args = StubArgs::new(vec![1], vec![data.clone()]);
    let mut request_image = vec![0u8; p.client_encode.wire_len];
    let mut out = StubArgs::default();
    let mut rewound = WireBuf::new();
    let mut enc = XdrMem::encoder(64 + 4 * n);
    let mut generic_in = data.clone();
    let mut generic_out: Vec<i32> = Vec::new();

    let rig = RefCell::new(rig);
    let tally = RefCell::new(CallTally::default());
    let untraced_failed = RefCell::new(0u64);
    let mut exchanged = request.clone();
    let echoed = data.clone();

    let mut rungs = vec![
        // The untraced loop, exactly as an untraced round runs it.
        Rung::new(UNTRACED, None, |iterations| {
            *untraced_failed.borrow_mut() += rig.borrow_mut().slice(iterations).failed;
        }),
        // The workload's own verified call, every 16th one also timed on
        // its own for the wall-clock quantiles.
        Rung::new("core.call", None, |iterations| {
            let (mut rig, mut tally) = (rig.borrow_mut(), tally.borrow_mut());
            let before = rig.counters();
            for i in 0..iterations {
                let ok = if i.is_multiple_of(SAMPLE_EVERY) {
                    let t0 = Instant::now();
                    let ok = rig.call();
                    tally.samples.push(t0.elapsed().as_nanos() as u64);
                    ok
                } else {
                    rig.call()
                };
                tally.failed += u64::from(!ok);
            }
            tally.calls += iterations;
            let after = rig.counters();
            tally.add(&before, &after);
        }),
        // The benchmark's own share of the call: comparing the reply with
        // what was sent.
        Rung::new("bench.verify", Some("core.call"), |iterations| {
            for _ in 0..iterations {
                black_box(black_box(&echoed) == black_box(&data));
            }
        }),
        Rung::new(
            "rpc.transport_call",
            Some("core.call"),
            |iterations| match &mut rig.borrow_mut().lane {
                Lane::Udp(c) => exchange(c.transport_mut(), &mut exchanged, iterations),
                Lane::Tcp(c) => exchange(c.transport_mut(), &mut exchanged, iterations),
                Lane::Generic(b) => exchange(&mut b.generic, &mut exchanged, iterations),
            },
        ),
        if stream {
            stream_rt_rung(request.len())
        } else {
            datagram_rt.rung()
        },
        dispatch_rung(&registry, &request),
    ];
    let dispatches_before = (registry.raw_dispatches(), registry.generic_dispatches());

    // The compiled stubs, each run alone on a valid wire image.
    let layout = &p.server_decode.layout;
    rungs.push(Rung::new(
        "tempo.server_decode",
        Some("rpc.dispatch"),
        |iterations| {
            let mut counts = counts.borrow_mut();
            for _ in 0..iterations {
                server_args.prepare(layout.scalar_count as usize, layout.array_count as usize);
                black_box(run_decode(
                    &p.server_decode.program,
                    &request,
                    &mut server_args,
                    request.len(),
                    &mut counts,
                ))
                .expect("server decode");
            }
        },
    ));
    rungs.push(Rung::new(
        "tempo.server_encode",
        Some("rpc.dispatch"),
        |iterations| {
            let mut counts = counts.borrow_mut();
            for _ in 0..iterations {
                black_box(run_encode(
                    &p.server_encode.program,
                    &mut reply_image,
                    &results,
                    &mut counts,
                ))
                .expect("server encode");
            }
        },
    ));

    // The client's marshaling: compiled stubs plus the rewind of the
    // request image they write into, or the layered micro-routines.
    let (encode_rung, decode_rung) = if generic_lane {
        rungs.push(Rung::new(
            "xdr.generic_encode",
            Some("core.call"),
            |iterations| {
                for _ in 0..iterations {
                    black_box(generic_encode_request(&mut enc, 1, &mut generic_in))
                        .expect("generic encode");
                }
            },
        ));
        rungs.push(Rung::new(
            "xdr.generic_decode",
            Some("core.call"),
            |iterations| {
                for _ in 0..iterations {
                    black_box(generic_decode_reply(&reply, &mut generic_out))
                        .expect("generic decode");
                }
            },
        ));
        ("xdr.generic_encode", "xdr.generic_decode")
    } else {
        rungs.push(Rung::new(
            "tempo.client_encode",
            Some("core.call"),
            |iterations| {
                let mut counts = counts.borrow_mut();
                for _ in 0..iterations {
                    black_box(run_encode(
                        &p.client_encode.program,
                        &mut request_image,
                        &args,
                        &mut counts,
                    ))
                    .expect("client encode");
                }
            },
        ));
        let layout = &p.client_decode.layout;
        rungs.push(Rung::new(
            "tempo.client_decode",
            Some("core.call"),
            |iterations| {
                let mut counts = counts.borrow_mut();
                for _ in 0..iterations {
                    out.prepare(layout.scalar_count as usize, layout.array_count as usize);
                    black_box(run_decode(
                        &p.client_decode.program,
                        &reply,
                        &mut out,
                        reply.len(),
                        &mut counts,
                    ))
                    .expect("client decode");
                }
            },
        ));
        // `SpecClient` rewinds (and zero-fills) its request image to the
        // stub's wire length before every encode.
        rungs.push(Rung::new(
            "xdr.wirebuf_reset",
            Some("core.call"),
            |iterations| {
                for _ in 0..iterations {
                    rewound.reset(p.client_encode.wire_len);
                    black_box(rewound.bytes_mut());
                }
            },
        ));
        ("tempo.client_encode", "tempo.client_decode")
    };

    // Set-up rungs: what `setup_s` is made of.
    rungs.push(Rung::new("tempo.specialize", None, |iterations| {
        for _ in 0..iterations {
            black_box(ProcPipeline::new(n).build_from_idl(ECHO_IDL, None, ECHO_PROC))
                .expect("specialize");
        }
    }));
    rungs.push(Rung::new(
        "rpcgen.parse",
        Some("tempo.specialize"),
        |iterations| {
            for _ in 0..iterations {
                black_box(specrpc_rpcgen::parse(ECHO_IDL)).expect("parse");
            }
        },
    ));

    let (ns, spans) = climb(seconds, &mut rungs);

    for rung in [
        "tempo.client_encode",
        "tempo.client_decode",
        "tempo.server_decode",
        "tempo.server_encode",
        "xdr.generic_encode",
        "xdr.generic_decode",
        "xdr.wirebuf_reset",
        "bench.verify",
        "rpc.transport_call",
        "core.call",
    ] {
        if let Some(t) = ns.get(rung) {
            report.push(&format!("{rung}_ns"), t);
        }
    }
    report.push("tempo.specialize_ms", ns.ns("tempo.specialize") / 1e6);
    report.push("rpcgen.parse_us", ns.ns("rpcgen.parse") / 1e3);
    push_dispatch(&mut report, &ns, &mut rungs, &registry, dispatches_before);
    if stream {
        report.push("netsim.stream_rt_ns", ns.ns("netsim.stream_rt"));
    } else {
        push_datagram_rt(&mut report, &ns, &mut rungs, &wire_net);
    }
    report.push(
        "rpc.allocs_per_transport_call",
        allocs_per_iter(&mut rungs, "rpc.transport_call", COUNT_ITERS).0,
    );
    let (allocs, bytes) = allocs_per_iter(&mut rungs, "core.call", COUNT_ITERS);
    report.push("core.allocs_per_call", allocs);
    report.push("core.alloc_bytes_per_call", bytes);
    drop(rungs);

    let mut tally = tally.into_inner();
    let calls = tally.calls as f64;
    report.attempted += tally.calls;
    // A handler run more or fewer than one per call is a failed call.
    report.failed +=
        tally.failed + *untraced_failed.borrow() + tally.handler_runs.abs_diff(tally.calls);
    report.push(
        "core.call_p50_ns",
        percentile(&mut tally.samples, 0.50) as f64,
    );
    report.push(
        "core.call_p99_ns",
        percentile(&mut tally.samples, 0.99) as f64,
    );
    report.push("core.call_samples", tally.samples.len() as f64);
    if !generic_lane {
        report.push("core.fast_path_share", tally.fast_calls as f64 / calls);
    }
    report.push(
        "rpc.handler_runs_per_call",
        tally.handler_runs as f64 / calls,
    );
    report.push("rpc.retransmits_per_call", tally.retransmits as f64 / calls);
    let takes = (tally.pool.hits + tally.pool.misses).max(1) as f64;
    report.push("rpc.pool_miss_share", tally.pool.misses as f64 / takes);
    report.push("rpc.pool_overflow_drops", tally.pool.overflow_drops as f64);

    // Self times: a rung minus its children.
    let (call_ns, transport_ns) = (ns.ns("core.call"), ns.ns("rpc.transport_call"));
    let wire_ns = ns
        .get("netsim.stream_rt")
        .unwrap_or_else(|| ns.ns("netsim.datagram_rt"));
    let client_self = call_ns - transport_ns - ns.ns("bench.verify");
    report.push("core.client_stub_self_ns", client_self);
    report.push(
        "rpc.transport_self_ns",
        transport_ns - wire_ns - ns.ns("rpc.dispatch"),
    );
    report.push(
        "rpc.dispatch_self_ns",
        ns.ns("rpc.dispatch") - ns.ns("tempo.server_decode") - ns.ns("tempo.server_encode"),
    );
    let untraced_ns = ns.ns(UNTRACED);
    report.push(
        "trace.overhead_share",
        (call_ns - untraced_ns).abs() / untraced_ns,
    );
    let marshaling =
        ns.ns(encode_rung) + ns.ns(decode_rung) + ns.get("xdr.wirebuf_reset").unwrap_or(0.0);
    report.push(
        "trace.ladder_gap_share",
        (client_self - marshaling) / call_ns,
    );
    report.push("core.failed_share", report.failed_share());
    (report, spans)
}

/// A complete call message: header for `proc_num` of `prog`, then `body`.
fn encode_call(prog: u32, vers: u32, proc_num: u32, body: impl FnOnce(&mut XdrMem)) -> Vec<u8> {
    let mut enc = XdrMem::encoder(1 << 16);
    let mut hdr = CallHeader::new(1, prog, vers, proc_num);
    CallHeader::xdr(&mut enc, &mut hdr).expect("header encode");
    body(&mut enc);
    enc.into_bytes()
}

fn encode_nfs_call(proc_num: u32, scalars: &[i32]) -> Vec<u8> {
    encode_call(NFS_PROG, NFS_VERS, proc_num, |enc| {
        for &v in scalars {
            let mut v = v;
            xdr_int(enc, &mut v).expect("argument encode");
        }
    })
}

/// The two whole-scenario rungs `nfs_mix` and `scale_open` start their
/// ladders with: the pass as the untraced round runs it, and the same
/// pass as `core.call` (one iteration = one pass).
fn scenario_rungs<'a>(
    pass: &'a (impl Fn() -> Slice + 'a),
    tally: &'a RefCell<(u64, u64)>,
) -> Vec<Rung<'a>> {
    let run = move |iterations| {
        for _ in 0..iterations {
            let s = pass();
            let mut tally = tally.borrow_mut();
            tally.0 += s.ops;
            tally.1 += s.failed;
        }
    };
    vec![
        Rung::new(UNTRACED, None, run),
        Rung::new("core.call", None, run),
    ]
}

/// `core.*` and `trace.overhead_share` of a scenario ladder, per op.
fn push_scenario(
    report: &mut Report,
    ns: &Timings,
    rungs: &mut [Rung<'_>],
    ops_per_pass: u64,
    tally: &RefCell<(u64, u64)>,
) {
    let per_pass = ops_per_pass as f64;
    let (call_ns, untraced_ns) = (ns.ns("core.call") / per_pass, ns.ns(UNTRACED) / per_pass);
    report.push("core.call_ns", call_ns);
    let (allocs, bytes) = allocs_per_iter(rungs, "core.call", 1);
    report.push("core.allocs_per_call", allocs / per_pass);
    report.push("core.alloc_bytes_per_call", bytes / per_pass);
    report.push(
        "trace.overhead_share",
        (call_ns - untraced_ns).abs() / untraced_ns,
    );
    let (ops, failed) = *tally.borrow();
    report.attempted += ops;
    report.failed += failed;
}

/// The traced run of `nfs_mix`.
fn trace_nfs(w: Workload, seed: u64, seconds: f64) -> (Report, Vec<Span>) {
    let cfg = nfs_config(seed, w.slice_ops() as usize);
    let (first, scenario) = nfs_slice(&cfg);
    let mut report = new_report(w, seed, &first);

    let coalesce = scenario.coalesce;
    let flushes = coalesce.flushes_mtu
        + coalesce.flushes_linger
        + coalesce.flushes_sync
        + coalesce.flushes_explicit;
    report.push(
        "rpc.oneways_per_envelope",
        coalesce.oneways_queued as f64 / flushes.max(1) as f64,
    );
    report.push(
        "rpc.flush_sync_share",
        coalesce.flushes_sync as f64 / flushes.max(1) as f64,
    );

    // The scenario's two lanes, alone: a small synchronous call, and a
    // one-way WRITE burst sealed by its COMMIT, on the scenario's own
    // link and coalescing policy.
    const PORT: u32 = 46_000;
    let link = NetworkConfig::lan()
        .with_datagram_cost(cfg.header_bytes, cfg.per_datagram_ns)
        .with_mtu(cfg.wire_mtu);
    let net = Network::new(link, seed);
    let registry = deploy_nfs_service(cfg.files)
        .expect("nfs deployment")
        .serve_udp(&net, PORT);
    let clnt = RefCell::new(
        ClntUdp::create(&net, 47_000, PORT, NFS_PROG, NFS_VERS)
            .with_coalescing(CoalescePolicy::ethernet()),
    );
    let getattr = encode_nfs_call(NFS_GETATTR, &[1]);
    let mut sync_request = getattr.clone();
    let mut commit = encode_nfs_call(NFS_COMMIT, &[1]);
    let mut writes: Vec<Vec<u8>> = (0..cfg.write_burst as i32)
        .map(|b| encode_nfs_call(NFS_WRITE, &[1, 64 * b, 64]))
        .collect();
    let mut datagram_rt = DatagramRt::new(link, getattr.len());
    let wire_net = datagram_rt.net.clone();

    let pass = || nfs_slice(&cfg).0;
    let tally = RefCell::new((0, 0));
    let mut rungs = scenario_rungs(&pass, &tally);
    rungs.push(Rung::new(
        "rpc.sync_small_call",
        Some("core.call"),
        |iterations| exchange(&mut *clnt.borrow_mut(), &mut sync_request, iterations),
    ));
    rungs.push(Rung::new(
        "rpc.oneway_burst",
        Some("core.call"),
        |iterations| {
            let mut clnt = clnt.borrow_mut();
            for _ in 0..iterations {
                for write in &mut writes {
                    let xid = clnt.next_xid();
                    patch_xid(write, xid);
                    clnt.call_oneway(write, xid).expect("one-way queue");
                }
                exchange(&mut *clnt, &mut commit, 1);
            }
        },
    ));
    rungs.push(datagram_rt.rung());
    rungs.push(dispatch_rung(&registry, &getattr));
    rungs.push(Rung::new("tempo.specialize", None, |iterations| {
        for _ in 0..iterations {
            black_box(deploy_nfs_service(NfsConfig::smoke().files)).expect("nfs deployment");
        }
    }));
    let dispatches_before = (registry.raw_dispatches(), registry.generic_dispatches());

    let (ns, spans) = climb(seconds, &mut rungs);
    push_scenario(&mut report, &ns, &mut rungs, first.ops, &tally);
    report.push("rpc.sync_small_call_ns", ns.ns("rpc.sync_small_call"));
    report.push(
        "rpc.oneway_burst_ns_per_op",
        ns.ns("rpc.oneway_burst") / (cfg.write_burst + 1) as f64,
    );
    push_datagram_rt(&mut report, &ns, &mut rungs, &wire_net);
    push_dispatch(&mut report, &ns, &mut rungs, &registry, dispatches_before);
    // Five tiny procedures: dispatch is all registry and handler.
    report.push("rpc.dispatch_self_ns", ns.ns("rpc.dispatch"));
    report.push("tempo.specialize_ms", ns.ns("tempo.specialize") / 1e6);
    report.push("core.failed_share", report.failed_share());
    (report, spans)
}

/// The traced run of `scale_open`.
fn trace_scale(w: Workload, seed: u64, seconds: f64) -> (Report, Vec<Span>) {
    let cfg = scale_config(seed, w.slice_ops() as usize);
    let (first, scenario) = scale_slice(&cfg);
    let mut report = new_report(w, seed, &first);

    let mean = scenario.per_shard.iter().sum::<u64>() as f64 / scenario.per_shard.len() as f64;
    let max = scenario.per_shard.iter().copied().max().unwrap_or(0) as f64;
    report.push("rpc.shard_imbalance", max / mean);
    report.push("rpc.cross_shard_steals", scenario.steals as f64);

    // The most popular shape's request, replayed on the lower rungs.
    let request = encode_call(SCALE_PROG, SCALE_VERS, 1, |enc| {
        let mut data = seeded_array(cfg.shapes[0], seed);
        xdr_array(enc, &mut data, 100_000, xdr_int).expect("array encode");
    });
    let registry = deploy_scale_service(&cfg)
        .expect("scale deployment")
        .into_registry();
    let mut datagram_rt = DatagramRt::new(NetworkConfig::lan(), request.len());
    let wire_net = datagram_rt.net.clone();
    // Diagnostic: what a real reactor worker thread does on this host.
    // Two threads on shared cores spread ~20% run to run; never gated.
    let batched = RefCell::new(BatchEchoBench::new(250, 16, 1, seed).expect("batched echo"));

    let pass = || scale_slice(&cfg).0;
    let tally = RefCell::new((0, 0));
    let mut rungs = scenario_rungs(&pass, &tally);
    // One fresh endpoint per call is this workload's own cost: bind as
    // many on a fresh network as one pass does (endpoints are never
    // unbound, so the mailbox map grows exactly as it does there).
    rungs.push(Rung::new("netsim.bind", Some("core.call"), |iterations| {
        for _ in 0..iterations {
            let net = Network::new(NetworkConfig::lan(), seed);
            for i in 0..cfg.clients as u32 {
                black_box(net.bind_udp(1_000_000 + i));
            }
        }
    }));
    rungs.push(datagram_rt.rung());
    rungs.push(dispatch_rung(&registry, &request));
    rungs.push(Rung::new(
        "tempo.specialize",
        Some("core.call"),
        |iterations| {
            for _ in 0..iterations {
                black_box(deploy_scale_service(&cfg)).expect("scale deployment");
            }
        },
    ));
    rungs.push(Rung::new("rpc.reactor_threaded", None, |iterations| {
        let mut batched = batched.borrow_mut();
        for _ in 0..iterations {
            black_box(batched.round_trips()).expect("batched round trips");
        }
    }));
    let dispatches_before = (registry.raw_dispatches(), registry.generic_dispatches());

    let (ns, spans) = climb(seconds, &mut rungs);
    push_scenario(&mut report, &ns, &mut rungs, first.ops, &tally);
    report.push("netsim.bind_ns", ns.ns("netsim.bind") / cfg.clients as f64);
    push_datagram_rt(&mut report, &ns, &mut rungs, &wire_net);
    push_dispatch(&mut report, &ns, &mut rungs, &registry, dispatches_before);
    report.push("tempo.specialize_ms", ns.ns("tempo.specialize") / 1e6);
    drop(rungs);
    let batched = batched.into_inner();
    report.push(
        "rpc.reactor_threaded_calls_per_s",
        batched.batch as f64 * 1e9 / ns.ns("rpc.reactor_threaded"),
    );
    let by_workers: u64 = batched.service.per_worker_events().iter().sum();
    report.push(
        "rpc.reactor_worker_share",
        by_workers as f64 / batched.service.total_events().max(1) as f64,
    );
    report.push("core.failed_share", report.failed_share());
    (report, spans)
}

/// The traced run of `w`: every per-layer metric that applies to it, and
/// the spans they were computed from.
pub fn run_traced(w: Workload, seed: u64, seconds: f64) -> (Report, Vec<Span>) {
    match w {
        Workload::NfsMix => trace_nfs(w, seed, seconds),
        Workload::ScaleOpen => trace_scale(w, seed, seconds),
        _ => trace_echo(w, seed, seconds),
    }
}

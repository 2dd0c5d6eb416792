//! Open-loop scale scenarios: a zipf-skewed client population driving a
//! sharded serving core, reporting virtual-time latency quantiles and
//! per-shard throughput.
//!
//! The acceptance scenario behind this module is the **million-client
//! run**: ≥10⁶ simulated client endpoints, each issuing one echo call at
//! a random instant inside an arrival window, against a service hosting
//! one procedure per array shape with a zipf-ranked shape mix (small
//! requests dominate, heavy tails exist). The server side is a
//! [`specrpc_rpc::serve`] shard map; the client side is raw pre-encoded
//! datagrams — one wire template per shape with only the xid patched per
//! request — so the open loop costs O(1) client state per endpoint and
//! the run scales to a million senders in one process.
//!
//! Everything is deterministic: arrivals, shapes, and target ports come
//! from one seeded [`StdRng`]; the shard map runs with no reactor thread
//! and executes all serving inline on the driving thread, so a fixed
//! [`ScaleConfig`] produces a byte-identical [`ScaleReport::render`]
//! every run.

use crate::client::{decode_reply_fast, encode_into};
use crate::pipeline::{CompiledProc, PipelineError, ProcPipeline};
use crate::service::SpecService;
use crate::summary::{latency_line, link_lines, LatencyHistogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specrpc_netsim::net::{Addr, Datagram, Endpoint, LinkStats, Network, NetworkConfig};
use specrpc_netsim::SimTime;
use specrpc_rpc::msg::CallHeader;
use specrpc_rpc::{serve, ClntUdp, CoalescePolicy, CoalesceStats, ServeConfig, Transport};
use specrpc_rpcgen::sunlib::reply_fields;
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::{OpCounts, WireBuf, XdrStream};
use std::collections::VecDeque;
use std::sync::Arc;

/// Program number of the scale service.
pub const SCALE_PROG: u32 = 0x2000_0303;
/// Version number.
pub const SCALE_VERS: u32 = 1;
/// First server port; the shard map's sockets are sequential from here.
pub const SCALE_PORT_BASE: Addr = 40_000;
/// First client endpoint address (client `i` binds `base + i`).
pub const SCALE_CLIENT_BASE: Addr = 1_000_000;
/// Array bound in the generated IDL (matches the echo service).
const SCALE_MAX_ARR: usize = 100_000;

/// Configuration of one open-loop scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Simulated client endpoints; each issues exactly one call.
    pub clients: usize,
    /// Shards in the serving map.
    pub shards: usize,
    /// Server sockets per shard (the map serves
    /// `shards × ports_per_shard` sequential ports).
    pub ports_per_shard: usize,
    /// Array shapes, zipf rank order: `shapes[0]` is the most popular.
    /// One procedure (and one compiled stub set) per shape.
    pub shapes: Vec<usize>,
    /// Zipf skew exponent `s` (rank `r` weighted `1/r^s`).
    pub zipf_s: f64,
    /// Arrival window: every request's send instant is uniform in
    /// `[0, span)` virtual time.
    pub span: SimTime,
    /// Seed for arrivals, shape mix, and port targeting.
    pub seed: u64,
    /// Max unanswered requests before the run blocks on the oldest —
    /// bounds client-side memory without closing the loop (the window is
    /// sized far above the steady-state in-flight population). An
    /// answered request leaves at the next send, whatever the window.
    pub window: usize,
    /// Unroll bound for the per-shape compiled stubs (keeps big-shape
    /// stub programs compact).
    pub chunk: Option<usize>,
}

impl ScaleConfig {
    /// A test-sized run: hundreds of clients, seconds to execute in
    /// debug builds, same code path as the full scenario.
    pub fn smoke() -> ScaleConfig {
        ScaleConfig {
            clients: 400,
            shards: 2,
            ports_per_shard: 1,
            shapes: vec![8, 64, 256],
            zipf_s: 1.2,
            span: SimTime::from_millis(80),
            seed: 42,
            window: 128,
            chunk: Some(32),
        }
    }

    /// The acceptance scenario: 10⁶ client endpoints, 8 shards × 2
    /// sockets, six zipf-ranked shapes. The 120s virtual arrival window
    /// keeps the (globally serialized) server demand near 50%
    /// utilization so tail latencies reflect queueing, not collapse.
    /// Run in release builds; scale `clients` down for smoke jobs.
    pub fn million() -> ScaleConfig {
        ScaleConfig {
            clients: 1_000_000,
            shards: 8,
            ports_per_shard: 2,
            shapes: vec![8, 16, 64, 256, 1024, 4096],
            zipf_s: 1.1,
            span: SimTime::from_millis(120_000),
            seed: 7,
            window: 4096,
            chunk: Some(32),
        }
    }

    /// This config's `clients` scaled to `n`, arrival window scaled
    /// proportionally (keeps offered load identical) — how the CI smoke
    /// job shrinks the million-client scenario.
    pub fn scaled_to(mut self, n: usize) -> ScaleConfig {
        assert!(self.clients > 0);
        let ratio = n as f64 / self.clients as f64;
        self.span = SimTime::from_nanos((self.span.as_nanos() as f64 * ratio).max(1.0) as u64);
        self.clients = n;
        self
    }

    /// The server socket addresses of this config.
    pub fn ports(&self) -> Vec<Addr> {
        (0..(self.shards * self.ports_per_shard) as u32)
            .map(|i| SCALE_PORT_BASE + i)
            .collect()
    }
}

/// Outcome of one [`run_scale`] execution.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Clients that issued a request.
    pub clients: usize,
    /// Replies received (and measured) within the reap timeout.
    pub replies: u64,
    /// Requests whose reply never arrived within the reap timeout.
    pub timeouts: u64,
    /// Virtual time at the end of the run.
    pub elapsed: SimTime,
    /// Reply latency distribution (send instant → reply arrival).
    pub latency: LatencyHistogram,
    /// Events processed per shard.
    pub per_shard: Vec<u64>,
    /// Cross-shard steals observed: 0, since the map runs no reactor
    /// thread to steal.
    pub steals: u64,
    /// Link receive-queue accounting at the end of the run: drop-tail
    /// discards plus the deepest queue observed
    /// ([`Network::link_stats`]).
    pub link: LinkStats,
    /// Datagrams that reached an address nobody was bound to any more
    /// ([`Network::unbound_drops`]): a reply to an endpoint already
    /// reaped. 0 unless a request outlived its reap timeout.
    pub unbound_drops: u64,
}

impl ScaleReport {
    /// Per-shard throughput in events per virtual second.
    pub fn per_shard_rate(&self) -> Vec<f64> {
        let secs = self.elapsed.as_nanos() as f64 / 1e9;
        self.per_shard
            .iter()
            .map(|&e| if secs > 0.0 { e as f64 / secs } else { 0.0 })
            .collect()
    }

    /// Human-readable report: shard map, latency and the open-loop
    /// accounting. Byte-identical across runs of the same config.
    pub fn render(&self) -> String {
        let per: Vec<String> = self.per_shard.iter().map(u64::to_string).collect();
        let mut out = format!(
            "  shard map:                      {} event(s) across {} shard(s) [{}]\n{}",
            self.per_shard.iter().sum::<u64>(),
            self.per_shard.len(),
            per.join(", "),
            latency_line(&self.latency),
        );
        out.push_str(&format!(
            "\n\u{20} open loop:                      {} client(s), {} replie(s), {} timeout(s) over {} virtual",
            self.clients, self.replies, self.timeouts, self.elapsed
        ));
        let rates: Vec<String> = self
            .per_shard_rate()
            .iter()
            .map(|r| format!("{r:.0}/s"))
            .collect();
        out.push_str(&format!(
            "\n\u{20} shard throughput:               [{}]",
            rates.join(", ")
        ));
        out.push_str(&format!(
            "\n\u{20} link queues:                    {} drop(s), depth high-water {}",
            self.link.queue_drops, self.link.queue_depth_high_water
        ));
        if self.unbound_drops > 0 {
            out.push_str(&format!(
                ", {} datagram(s) for endpoints already gone",
                self.unbound_drops
            ));
        }
        out
    }
}

/// The generated interface: one `int_arr ECHO<k>(int_arr)` procedure per
/// shape, numbered `1..=shapes.len()`.
fn scale_idl(shapes: usize) -> String {
    let mut procs = String::new();
    for k in 1..=shapes {
        procs.push_str(&format!("            int_arr ECHO{k}(int_arr) = {k};\n"));
    }
    format!(
        "const MAXARR = {SCALE_MAX_ARR};\n\n\
         struct int_arr {{\n    int arr<MAXARR>;\n}};\n\n\
         program SCALEPROG {{\n    version SCALEVERS {{\n{procs}    }} = {SCALE_VERS};\n\
         }} = {SCALE_PROG};\n"
    )
}

/// One pre-encoded request image for a shape: the per-request xid is
/// patched into the first four bytes (the call header leads with it).
fn encode_template(shape: usize, proc_num: u32) -> Vec<u8> {
    let mut enc = XdrMem::encoder(64 + 4 * shape);
    let mut hdr = CallHeader::new(0, SCALE_PROG, SCALE_VERS, proc_num);
    CallHeader::xdr(&mut enc, &mut hdr).expect("header encode");
    let mut data: Vec<i32> = (0..shape as i32).collect();
    xdr_array(&mut enc, &mut data, SCALE_MAX_ARR, xdr_int).expect("array encode");
    let len = enc.getpos();
    enc.bytes()[..len].to_vec()
}

/// The zipf CDF over ranks `1..=n` with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// One queued request awaiting its reply.
struct InFlight {
    ep: Endpoint,
    xid: u32,
    sent: SimTime,
}

impl InFlight {
    /// Whether `dg` is this request's reply (a stale or foreign
    /// datagram is not).
    fn answered_by(&self, dg: &Datagram) -> bool {
        dg.payload.len() >= 4 && dg.payload[0..4] == self.xid.to_be_bytes()
    }
}

/// How long the reaper waits on a straggler before declaring it lost.
const REAP_TIMEOUT: SimTime = SimTime::from_millis(2_000);

/// The open loop's client side: the requests still unanswered, oldest
/// first, and what the answered ones measured. Dropping a request's
/// [`InFlight`] unbinds its endpoint, so the simulator holds only the
/// endpoints in this queue.
#[derive(Default)]
struct OpenLoop {
    inflight: VecDeque<InFlight>,
    latency: LatencyHistogram,
    replies: u64,
    timeouts: u64,
    /// The swap buffer [`Endpoint::drain_ready`] reads a mailbox into.
    mailbox: VecDeque<Datagram>,
}

impl OpenLoop {
    fn answered(&mut self, sent: SimTime, reply: &Datagram) {
        self.latency.record(reply.at.saturating_sub(sent));
        self.replies += 1;
    }

    /// Retire every request at the head whose reply has already landed,
    /// stopping at the first unanswered one. Mailboxes are read with
    /// [`Endpoint::drain_ready`], which runs no simulation: `try_recv`
    /// would step the events due at `now`, and a server completion can
    /// leave deliveries overdue, so sweeping with it would move the
    /// virtual-time trace.
    fn sweep(&mut self) {
        while let Some(f) = self.inflight.front() {
            f.ep.drain_ready(&mut self.mailbox);
            let Some(reply) = self.mailbox.drain(..).find(|dg| f.answered_by(dg)) else {
                break;
            };
            let sent = f.sent;
            self.inflight.pop_front();
            self.answered(sent, &reply);
        }
    }

    /// Block on the oldest request's reply, driving the simulation up to
    /// [`REAP_TIMEOUT`] for it, and retire it answered or timed out.
    fn reap(&mut self) {
        let Some(f) = self.inflight.pop_front() else {
            return;
        };
        loop {
            match f.ep.recv_timeout(REAP_TIMEOUT) {
                Some(dg) if f.answered_by(&dg) => return self.answered(f.sent, &dg),
                // Stale or foreign datagram: keep draining this mailbox.
                Some(_) => continue,
                None => {
                    self.timeouts += 1;
                    return;
                }
            }
        }
    }
}

/// Execute one open-loop scale run: deploy the sharded service, fire
/// every arrival at its instant, measure reply latency (send instant →
/// reply [`specrpc_netsim::net::Datagram::at`] arrival stamp), and
/// collect per-shard throughput. After every send the answered requests
/// at the head of the queue are retired, so the run holds only the
/// unanswered ones; it blocks on the oldest only when
/// [`ScaleConfig::window`] of them are outstanding, and at the end.
pub fn run_scale(cfg: &ScaleConfig) -> Result<ScaleReport, PipelineError> {
    assert!(!cfg.shapes.is_empty(), "at least one shape");
    assert!(cfg.window > 0, "window must be positive");
    let net = Network::new(NetworkConfig::lan(), cfg.seed);
    let service = deploy_scale_service(cfg)?;
    let ports = cfg.ports();
    let shard_map = ServeConfig {
        shards: cfg.shards,
        ..ServeConfig::new(&ports)
    };
    let sharded = serve(&net, service.into_registry(), shard_map);

    let templates: Vec<Vec<u8>> = cfg
        .shapes
        .iter()
        .enumerate()
        .map(|(i, &shape)| encode_template(shape, i as u32 + 1))
        .collect();

    // Arrivals: instant, shape, and target port all from one seeded
    // stream; sorted by instant (stable, so ties keep draw order).
    let cdf = zipf_cdf(cfg.shapes.len(), cfg.zipf_s);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let span_ns = cfg.span.as_nanos() as f64;
    let mut arrivals: Vec<(SimTime, u32, Addr)> = (0..cfg.clients)
        .map(|_| {
            let at = SimTime::from_nanos((rng.random::<f64>() * span_ns) as u64);
            let u = rng.random::<f64>();
            // A `u32`, so an arrival is 16 bytes: every endpoint's is
            // held for the whole run.
            let shape = cdf.partition_point(|&c| c < u).min(cfg.shapes.len() - 1) as u32;
            let port = ports[rng.random_range(0..ports.len())];
            (at, shape, port)
        })
        .collect();
    arrivals.sort_by_key(|a| a.0);

    let mut open = OpenLoop::default();
    for (i, &(at, shape, port)) in arrivals.iter().enumerate() {
        net.run_until(at, || false);
        let ep = net.bind_udp(SCALE_CLIENT_BASE + i as u32);
        let xid = i as u32 + 1;
        let mut req = templates[shape as usize].clone();
        req[0..4].copy_from_slice(&xid.to_be_bytes());
        let sent = net.now();
        ep.send_to(port, req);
        open.inflight.push_back(InFlight { ep, xid, sent });
        open.sweep();
        if open.inflight.len() >= cfg.window {
            open.reap();
        }
    }
    while !open.inflight.is_empty() {
        open.reap();
    }

    Ok(ScaleReport {
        clients: cfg.clients,
        replies: open.replies,
        timeouts: open.timeouts,
        elapsed: net.now(),
        latency: open.latency,
        per_shard: sharded.per_shard_events(),
        steals: sharded.cross_shard_steals(),
        link: net.link_stats(),
        unbound_drops: net.unbound_drops(),
    })
}

/// Build the scale [`SpecService`]: one echo procedure per shape, each
/// compiled specialized to that shape.
pub fn deploy_scale_service(cfg: &ScaleConfig) -> Result<SpecService, PipelineError> {
    let idl = scale_idl(cfg.shapes.len());
    let mut service = SpecService::new();
    for (i, &shape) in cfg.shapes.iter().enumerate() {
        let mut pipeline = ProcPipeline::new(shape);
        pipeline.chunk = cfg.chunk;
        let proc_ = Arc::new(pipeline.build_from_idl(&idl, None, i as u32 + 1)?);
        service = service.proc_in_place(proc_, crate::echo::echo_handler);
    }
    Ok(service)
}

// ---------------------------------------------------------------------
// NFS-like mixed-procedure scenario (coalescing & one-way batching).
//
// Both sides are specialized: the service and every client share one
// compiled stub set per procedure, the clients' stubs marshal each call
// into a reused wire image, and each sync reply is decoded by its stub
// and checked. The layered encoder lives in the tests, as the reference.
// ---------------------------------------------------------------------

/// Program number of the NFS-like service.
pub const NFS_PROG: u32 = 0x2000_0404;
/// Version number.
pub const NFS_VERS: u32 = 1;
/// Server socket of the NFS-like service.
pub const NFS_PORT: Addr = 46_000;
/// First client endpoint address (client `i` binds `base + i`).
pub const NFS_CLIENT_BASE: Addr = 47_000;

/// Procedure numbers of the NFS-like program.
pub const NFS_GETATTR: u32 = 1;
/// `LOOKUP(dir, name) -> fh`.
pub const NFS_LOOKUP: u32 = 2;
/// `READ(fh, offset, count) -> (len, check)`.
pub const NFS_READ: u32 = 3;
/// `WRITE(fh, offset, len) -> size` — issued **one-way** in bursts.
pub const NFS_WRITE: u32 = 4;
/// `COMMIT(fh) -> committed` — the synchronous call that flushes and
/// acknowledges a preceding one-way WRITE burst.
pub const NFS_COMMIT: u32 = 5;

/// The NFS-like interface: five fixed-shape (scalar-only) procedures, so
/// every call message stays small — the regime where per-datagram cost
/// dominates and coalescing pays.
const NFS_IDL: &str = r#"
    struct getattr_arg { int fh; };
    struct getattr_res { int size; int mtime; int mode; };
    struct lookup_arg { int dir; int name; };
    struct lookup_res { int fh; };
    struct read_arg { int fh; int offset; int count; };
    struct read_res { int len; int check; };
    struct write_arg { int fh; int offset; int len; };
    struct write_res { int size; };
    struct commit_arg { int fh; };
    struct commit_res { int committed; };
    program NFSPROG {
        version NFSVERS {
            getattr_res GETATTR(getattr_arg) = 1;
            lookup_res LOOKUP(lookup_arg) = 2;
            read_res READ(read_arg) = 3;
            write_res WRITE(write_arg) = 4;
            commit_res COMMIT(commit_arg) = 5;
        } = 1;
    } = 0x20000404;
"#;

/// Configuration of one NFS-like run: a zipf-popular file-handle
/// population under a mixed GETATTR/LOOKUP/READ workload, with WRITE
/// issued as **one-way bursts** each closed by a synchronous COMMIT
/// (Sun batch mode: the COMMIT reply acknowledges the burst). The
/// network charges an honest per-packet cost, so the report's datagram
/// counts and amortized latency expose what coalescing saves.
#[derive(Debug, Clone)]
pub struct NfsConfig {
    /// Client endpoints; each runs `ops_per_client` op draws in turn.
    pub clients: usize,
    /// File handles (`1..=files`), zipf-ranked: handle 1 most popular.
    pub files: usize,
    /// Op draws per client (a WRITE-burst draw issues
    /// `write_burst + 1` calls).
    pub ops_per_client: usize,
    /// One-way WRITEs per burst, before the sync COMMIT that seals,
    /// flushes, and acknowledges them.
    pub write_burst: usize,
    /// Zipf skew exponent over file-handle ranks.
    pub zipf_s: f64,
    /// Seed for handle draws and the op mix.
    pub seed: u64,
    /// Client coalescing policy ([`CoalescePolicy::per_call`] is the
    /// honest one-datagram-per-call A/B baseline).
    pub policy: CoalescePolicy,
    /// Per-fragment header bytes charged by the link
    /// ([`NetworkConfig::with_datagram_cost`]).
    pub header_bytes: usize,
    /// Fixed per-fragment cost in virtual ns.
    pub per_datagram_ns: u64,
    /// Link MTU: payloads fragment at this size
    /// ([`NetworkConfig::with_mtu`]).
    pub wire_mtu: usize,
}

impl NfsConfig {
    /// A test-sized run: seconds in debug builds, same code path as any
    /// larger configuration. Ethernet-flavored coalescing over a link
    /// that charges 28 header bytes + 100 µs per wire fragment (the
    /// per-packet protocol-stack traversal the paper's era paid on
    /// every UDP send — the fixed cost batching amortizes).
    pub fn smoke() -> NfsConfig {
        NfsConfig {
            clients: 8,
            files: 32,
            ops_per_client: 40,
            write_burst: 8,
            zipf_s: 1.1,
            seed: 42,
            policy: CoalescePolicy::ethernet(),
            header_bytes: specrpc_netsim::UDP_IP_HEADER_BYTES,
            per_datagram_ns: 100_000,
            wire_mtu: 1500,
        }
    }

    /// This config with coalescing degraded to one datagram per call —
    /// identical framing and one-way semantics, no amortization. The
    /// baseline every coalescing win is measured against.
    pub fn per_call(mut self) -> NfsConfig {
        self.policy = CoalescePolicy::per_call();
        self
    }
}

/// Outcome of one [`run_nfs`] execution.
#[derive(Debug, Clone)]
pub struct NfsReport {
    /// Client endpoints that ran.
    pub clients: usize,
    /// Calls issued (sync + one-way).
    pub ops: u64,
    /// Synchronous calls (GETATTR/LOOKUP/READ/COMMIT).
    pub sync_calls: u64,
    /// One-way WRITE calls.
    pub oneway_writes: u64,
    /// COMMIT calls (one per WRITE burst).
    pub commits: u64,
    /// Latency distribution of the synchronous calls.
    pub latency: LatencyHistogram,
    /// Virtual time at the end of the run.
    pub elapsed: SimTime,
    /// Link accounting at the end of the run, including datagram and
    /// wire-fragment counts under the per-packet cost model.
    pub link: LinkStats,
    /// Client coalescer counters, summed across all clients.
    pub coalesce: CoalesceStats,
}

impl NfsReport {
    /// Datagrams the whole run put on the wire, per issued call — the
    /// number coalescing drives below 2.0 (request + reply) and one-way
    /// batching drives toward `1/burst`.
    pub fn datagrams_per_op(&self) -> f64 {
        self.link.datagrams as f64 / self.ops.max(1) as f64
    }

    /// Amortized virtual time per issued call over the full run.
    pub fn amortized_per_op(&self) -> SimTime {
        SimTime::from_nanos(self.elapsed.as_nanos() / self.ops.max(1))
    }

    /// Human-readable report; byte-identical across runs of the same
    /// config (sequential clients, one seeded stream, virtual clock).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}\n{}",
            latency_line(&self.latency),
            link_lines(&self.link)
        );
        out.push_str(&format!(
            "\n\u{20} nfs mix:                        {} op(s) from {} client(s): {} sync, {} one-way write(s), {} commit(s)",
            self.ops, self.clients, self.sync_calls, self.oneway_writes, self.commits
        ));
        out.push_str(&format!(
            "\n\u{20} coalescing:                     {} queued, flushes mtu {} / linger {} / sync {} / explicit {}",
            self.coalesce.oneways_queued,
            self.coalesce.flushes_mtu,
            self.coalesce.flushes_linger,
            self.coalesce.flushes_sync,
            self.coalesce.flushes_explicit,
        ));
        if self.coalesce.window_evictions > 0 {
            out.push_str(&format!(
                "\n\u{20} replay window:                  {} unacknowledged envelope(s) evicted (their one-ways can no longer be replayed)",
                self.coalesce.window_evictions
            ));
        }
        out.push_str(&format!(
            "\n\u{20} wire economy:                   {:.2} datagram(s)/op, {} amortized/op",
            self.datagrams_per_op(),
            self.amortized_per_op(),
        ));
        out
    }

    /// The compact study table: `title`, a header, then one line per
    /// `(packing policy, report)`. Virtual-time results only, so the
    /// text is byte-identical across runs of the same configs.
    pub fn render_table(title: &str, rows: &[(&str, NfsReport)]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:>10} | {:>5} {:>5} {:>7} | {:>6} {:>6} {:>7} | {:>5} {:>5} | {:>8} {:>8} {:>9}",
            "mode",
            "ops",
            "sync",
            "one-way",
            "dgrams",
            "frags",
            "dg/op",
            "f-mtu",
            "f-syn",
            "p99(ms)",
            "amrt(us)",
            "settle(ms)"
        );
        let _ = writeln!(out, "{}", "-".repeat(96));
        for (mode, r) in rows {
            let _ = writeln!(
                out,
                "{:>10} | {:>5} {:>5} {:>7} | {:>6} {:>6} {:>7.2} | {:>5} {:>5} | {:>8.3} {:>8.1} {:>9.3}",
                mode,
                r.ops,
                r.sync_calls,
                r.oneway_writes,
                r.link.datagrams,
                r.link.fragments,
                r.datagrams_per_op(),
                r.coalesce.flushes_mtu,
                r.coalesce.flushes_sync,
                r.latency.p99().as_millis_f64(),
                r.amortized_per_op().as_nanos() as f64 / 1e3,
                r.elapsed.as_millis_f64(),
            );
        }
        out
    }
}

/// Build the NFS-like [`SpecService`]: five compiled fixed-shape
/// procedures over one shared in-memory file table. WRITE sizes and
/// COMMIT counters are real state, so replies (and the equivalence
/// tests over them) observe every handler execution.
pub fn deploy_nfs_service(files: usize) -> Result<SpecService, PipelineError> {
    Ok(nfs_service(files, &compile_nfs_procs()?))
}

/// The five NFS-like procedures compiled once, in procedure-number order
/// (`GETATTR` first): what [`run_nfs`]'s service and clients share.
fn compile_nfs_procs() -> Result<Vec<Arc<CompiledProc>>, PipelineError> {
    (NFS_GETATTR..=NFS_COMMIT)
        .map(|p| {
            ProcPipeline::new(0)
                .build_from_idl(NFS_IDL, None, p)
                .map(Arc::new)
        })
        .collect()
}

/// The [`deploy_nfs_service`] service over already-compiled procedures.
fn nfs_service(files: usize, compiled: &[Arc<CompiledProc>]) -> SpecService {
    #[derive(Default)]
    struct NfsState {
        sizes: Vec<i32>,
        uncommitted: Vec<i32>,
    }
    let state = Arc::new(std::sync::Mutex::new(NfsState {
        sizes: (0..files).map(|i| 512 * (i as i32 % 7 + 1)).collect(),
        uncommitted: vec![0; files],
    }));
    // Wrapping arithmetic throughout: a routine answers any argument words
    // a client sends, `i32::MIN` and `i32::MAX` included.
    let fh_index = move |fh: i32| fh.wrapping_sub(1).rem_euclid(files as i32) as usize;

    let mut service = SpecService::new();
    let s = state.clone();
    service = service.proc_in_place(compiled[0].clone(), move |args, results| {
        let fh = *args.scalars.last().expect("getattr arg");
        let size = s.lock().unwrap().sizes[fh_index(fh)];
        results
            .scalars
            .extend([size, fh.wrapping_mul(31).wrapping_add(size), 420]);
    });
    service = service.proc_in_place(compiled[1].clone(), move |args, results| {
        let n = args.scalars.len();
        let (dir, name) = (args.scalars[n - 2], args.scalars[n - 1]);
        results
            .scalars
            .push(dir.wrapping_add(name).rem_euclid(files as i32) + 1);
    });
    let s = state.clone();
    service = service.proc_in_place(compiled[2].clone(), move |args, results| {
        let n = args.scalars.len();
        let (fh, offset, count) = (
            args.scalars[n - 3],
            args.scalars[n - 2],
            args.scalars[n - 1],
        );
        let size = s.lock().unwrap().sizes[fh_index(fh)];
        let len = count.min(size.wrapping_sub(offset).max(0));
        results.scalars.extend([len, fh ^ offset]);
    });
    let s = state.clone();
    service = service.proc_in_place(compiled[3].clone(), move |args, results| {
        let n = args.scalars.len();
        let (fh, offset, len) = (
            args.scalars[n - 3],
            args.scalars[n - 2],
            args.scalars[n - 1],
        );
        let mut st = s.lock().unwrap();
        let i = fh_index(fh);
        st.sizes[i] = st.sizes[i].max(offset.wrapping_add(len));
        st.uncommitted[i] += 1;
        results.scalars.push(st.sizes[i]);
    });
    let s = state.clone();
    service = service.proc_in_place(compiled[4].clone(), move |args, results| {
        let fh = *args.scalars.last().expect("commit arg");
        let mut st = s.lock().unwrap();
        let i = fh_index(fh);
        results.scalars.push(st.uncommitted[i]);
        st.uncommitted[i] = 0;
    });
    service
}

/// One [`run_nfs`] client: the five procedures' compiled stubs marshal
/// every call into one reused wire image and decode every synchronous
/// reply into result slots shaped once, so a warm op allocates nothing.
struct NfsClient {
    clnt: ClntUdp,
    req: WireBuf,
    /// Per procedure, in procedure-number order: its stubs, its argument
    /// slots (xid slot first) and its result slots.
    stubs: Vec<(Arc<CompiledProc>, StubArgs, StubArgs)>,
    counts: OpCounts,
}

impl NfsClient {
    fn new(clnt: ClntUdp, procs: &[Arc<CompiledProc>]) -> NfsClient {
        let stubs = procs
            .iter()
            .map(|p| {
                let slots = p.client_encode.layout.scalar_count as usize;
                (
                    p.clone(),
                    StubArgs::new(vec![0; slots], vec![]),
                    StubArgs::default(),
                )
            })
            .collect();
        NfsClient {
            clnt,
            req: WireBuf::new(),
            stubs,
            counts: OpCounts::new(),
        }
    }

    /// Encode `proc_num(args)` under a fresh xid into the wire image.
    fn encode(&mut self, proc_num: u32, args: &[i32]) -> u32 {
        let xid = self.clnt.next_xid();
        let (proc_, slots, _) = &mut self.stubs[proc_num as usize - 1];
        slots.scalars[1..].copy_from_slice(args);
        encode_into(proc_, &mut self.req, slots, xid, &mut self.counts)
            .expect("a compiled stub encodes its own argument slots");
        xid
    }

    /// Queue `proc_num(args)` one-way.
    fn oneway(&mut self, proc_num: u32, args: &[i32]) {
        let xid = self.encode(proc_num, args);
        self.clnt
            .call_oneway(self.req.bytes(), xid)
            .expect("one-way queue");
    }

    /// Call `proc_num(args)`, record its virtual-time latency, and return
    /// the result scalars the compiled stub decoded from its reply.
    ///
    /// # Panics
    /// If no reply comes (the link is lossless) or the reply misses the
    /// fast path; both name the procedure and the xid.
    fn call(
        &mut self,
        net: &Network,
        latency: &mut LatencyHistogram,
        proc_num: u32,
        args: &[i32],
    ) -> &[i32] {
        let xid = self.encode(proc_num, args);
        let t0 = net.now();
        let reply = Transport::call(&mut self.clnt, self.req.bytes(), xid).unwrap_or_else(|e| {
            panic!("procedure {proc_num}, xid {xid:#x}: a lossless link answers, got {e}")
        });
        latency.record(net.now().saturating_sub(t0));
        let (proc_, _, out) = &mut self.stubs[proc_num as usize - 1];
        let fast = decode_reply_fast(proc_, &reply, out, &mut self.counts);
        self.clnt.recycle(reply);
        assert_eq!(
            fast,
            Ok(true),
            "procedure {proc_num}, xid {xid:#x}: reply missed the fast path"
        );
        &out.scalars[reply_fields::COUNT..]
    }
}

/// Execute one NFS-like run: deploy the five-procedure service behind
/// the shared cache-fronted dispatch, then drive each client through a
/// zipf-skewed mix of synchronous GETATTR/LOOKUP/READ calls and one-way
/// WRITE bursts sealed by sync COMMITs, over a link that charges every
/// wire fragment its header bytes plus a fixed per-packet cost.
///
/// The five procedures are compiled once and shared by the service and
/// the clients. Each client is specialized: a procedure's compiled client
/// stub encodes every call into one reused wire image (the same bytes the
/// layered xdr routines produce), and its compiled decode stub reads
/// every sync reply into result slots shaped once, so a warm op
/// allocates nothing.
///
/// Clients run sequentially on the virtual clock, so a fixed config
/// produces a byte-identical [`NfsReport::render`] every run.
///
/// # Panics
/// On a sync call that gets no reply (the link is lossless), a reply
/// that misses the compiled fast path, or a COMMIT whose count is not
/// [`NfsConfig::write_burst`], i.e. a one-way WRITE of its burst that
/// did not run exactly once before the seal. Each message names the
/// procedure and the xid or file.
pub fn run_nfs(cfg: &NfsConfig) -> Result<NfsReport, PipelineError> {
    assert!(cfg.clients > 0 && cfg.files > 0, "non-empty run");
    let net = Network::new(
        NetworkConfig::lan()
            .with_datagram_cost(cfg.header_bytes, cfg.per_datagram_ns)
            .with_mtu(cfg.wire_mtu),
        cfg.seed,
    );
    let procs = compile_nfs_procs()?;
    nfs_service(cfg.files, &procs).serve_udp(&net, NFS_PORT);

    let cdf = zipf_cdf(cfg.files, cfg.zipf_s);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut latency = LatencyHistogram::new();
    let (mut ops, mut sync_calls, mut oneway_writes, mut commits) = (0u64, 0u64, 0u64, 0u64);
    let mut coalesce = CoalesceStats::default();

    for c in 0..cfg.clients {
        let clnt = ClntUdp::create(
            &net,
            NFS_CLIENT_BASE + c as Addr,
            NFS_PORT,
            NFS_PROG,
            NFS_VERS,
        )
        .with_coalescing(cfg.policy);
        let mut client = NfsClient::new(clnt, &procs);
        for _ in 0..cfg.ops_per_client {
            let u = rng.random::<f64>();
            let rank = cdf.partition_point(|&c| c < u).min(cfg.files - 1);
            let fh = rank as i32 + 1;
            match rng.random_range(0..4u32) {
                0 => {
                    // One-way WRITE burst, sealed by a sync COMMIT whose
                    // reply acknowledges the whole pipeline.
                    for b in 0..cfg.write_burst {
                        client.oneway(NFS_WRITE, &[fh, 64 * b as i32, 64]);
                        oneway_writes += 1;
                        ops += 1;
                    }
                    commits += 1;
                    let committed = client.call(&net, &mut latency, NFS_COMMIT, &[fh])[0];
                    assert_eq!(
                        committed, cfg.write_burst as i32,
                        "COMMIT of file {fh}: each one-way WRITE of its burst runs once"
                    );
                }
                1 => {
                    client.call(&net, &mut latency, NFS_GETATTR, &[fh]);
                }
                2 => {
                    let name = rng.random_range(0..64);
                    client.call(&net, &mut latency, NFS_LOOKUP, &[fh, name]);
                }
                _ => {
                    let offset = rng.random_range(0..4) * 64;
                    client.call(&net, &mut latency, NFS_READ, &[fh, offset, 64]);
                }
            }
            sync_calls += 1;
            ops += 1;
        }
        if let Some(s) = client.clnt.coalesce_stats() {
            coalesce.oneways_queued += s.oneways_queued;
            coalesce.flushes_mtu += s.flushes_mtu;
            coalesce.flushes_linger += s.flushes_linger;
            coalesce.flushes_sync += s.flushes_sync;
            coalesce.flushes_explicit += s.flushes_explicit;
            coalesce.pending_submessages += s.pending_submessages;
            coalesce.unacked_envelopes += s.unacked_envelopes;
            coalesce.window_evictions += s.window_evictions;
        }
    }

    Ok(NfsReport {
        clients: cfg.clients,
        ops,
        sync_calls,
        oneway_writes,
        commits,
        latency,
        elapsed: net.now(),
        link: net.link_stats(),
        coalesce,
    })
}

/// [`run_scale`] with the full sharded map replaced by a single shard —
/// the determinism baseline the sharding tests compare against.
pub fn run_scale_single_shard(cfg: &ScaleConfig) -> Result<ScaleReport, PipelineError> {
    let mut one = cfg.clone();
    // Same socket count, one shard: shard assignment is the only change.
    one.ports_per_shard = cfg.shards * cfg.ports_per_shard;
    one.shards = 1;
    run_scale(&one)
}

#[cfg(test)]
#[path = "../../tempo/tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference;
    use super::*;
    use specrpc_rpcgen::stubgen::CompiledStub;
    use specrpc_tempo::compile::{
        run_decode, FieldTarget, Outcome, ParamBinding, PlanOp, StubError, StubOp, StubProgram,
    };
    use std::collections::HashMap;

    /// Encode one NFS-like call message through the layered xdr
    /// micro-routines: header for `proc_num` under `xid`, then the
    /// argument scalars in field order. The reference the compiled client
    /// stubs are checked against; no scenario marshals with it.
    fn encode_nfs_call(xid: u32, proc_num: u32, scalars: &[i32]) -> Vec<u8> {
        let mut enc = XdrMem::encoder(64 + 4 * scalars.len());
        let mut hdr = CallHeader::new(xid, NFS_PROG, NFS_VERS, proc_num);
        CallHeader::xdr(&mut enc, &mut hdr).expect("header encode");
        for &v in scalars {
            let mut v = v;
            xdr_int(&mut enc, &mut v).expect("arg encode");
        }
        let len = enc.getpos();
        enc.bytes()[..len].to_vec()
    }

    /// `run_nfs`'s client marshals as the layered micro-routines do, for
    /// all five procedures, over argument words 0, ±1, `i32::MIN`,
    /// `i32::MAX` and 64 in every position and xids across the `u32`
    /// range: the compiled request is `encode_nfs_call`'s byte for byte,
    /// and the compiled decode of the service's real reply yields the
    /// result slots the layered decode (reply header, then
    /// `decode_shape_generic`) does.
    #[test]
    fn nfs_stubs_marshal_as_the_layered_routines_do() {
        use crate::generic::decode_shape_generic;
        use specrpc_rpc::msg::ReplyHeader;
        let procs = compile_nfs_procs().unwrap();
        let registry = nfs_service(4, &procs).into_registry();
        let words = [0, 1, -1, i32::MIN, i32::MAX, 64];
        let mut req = WireBuf::new();
        let mut counts = OpCounts::new();
        let (mut fast, mut layered) = (StubArgs::default(), StubArgs::default());
        let mut checked = 0;
        for (proc_, proc_num) in procs.iter().zip(NFS_GETATTR..=NFS_COMMIT) {
            let arity = proc_.client_encode.layout.scalar_count as usize - 1;
            let mut slots = StubArgs::new(vec![0; arity + 1], vec![]);
            for k in 0..words.len() {
                let args: Vec<i32> = (0..arity).map(|i| words[(k + i) % words.len()]).collect();
                for xid in [1, 0x5151, 0x8000_0000, u32::MAX] {
                    let what = format!("procedure {proc_num}{args:?} under xid {xid:#x}");
                    slots.scalars[1..].copy_from_slice(&args);
                    encode_into(proc_, &mut req, &slots, xid, &mut counts).unwrap();
                    let request = encode_nfs_call(xid, proc_num, &args);
                    assert_eq!(req.bytes(), request, "{what}");

                    let reply = registry.dispatch(&request);
                    let decoded = decode_reply_fast(proc_, &reply, &mut fast, &mut counts);
                    assert_eq!(decoded, Ok(true), "{what}");
                    let mut dec = XdrMem::decoder(&reply);
                    let header = ReplyHeader::decode(&mut dec).unwrap();
                    assert_eq!((header.xid, header.to_error()), (xid, None), "{what}");
                    let dec_layout = &proc_.client_decode.layout;
                    layered.prepare(
                        dec_layout.scalar_count as usize,
                        dec_layout.array_count as usize,
                    );
                    let base = reply_fields::COUNT as u16;
                    decode_shape_generic(&mut dec, &proc_.res_shape, base, &mut layered).unwrap();
                    assert_eq!(dec.getpos(), reply.len(), "{what}: reply read to its end");
                    // Result slots only: the layered path decodes the
                    // header into a `ReplyHeader`, not into slots.
                    let (fast_results, layered_results) = (
                        &fast.scalars[reply_fields::COUNT..],
                        &layered.scalars[reply_fields::COUNT..],
                    );
                    assert_eq!(fast_results, layered_results, "{what}");
                    assert_eq!(fast.arrays, layered.arrays, "{what}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 5 * words.len() * 4);
        assert_eq!(registry.generic_dispatches(), 0);
    }

    /// Every specialization context `BENCHMARK.json`'s workloads compile —
    /// echo at 20 / 250 / 2000, the scale shapes (and the smoke config's)
    /// at their chunk, the five NFS procedures — yields the stub programs
    /// the fully unrolling reference specializer yields.
    #[test]
    fn benchmark_contexts_compile_to_the_reference_programs() {
        use specrpc_rpcgen::stubgen::{self, StubKind};
        use specrpc_tempo::compile::{compile, CompileOptions};
        let same_as_reference = |cp: &crate::pipeline::CompiledProc| {
            for (kind, stub) in [
                (StubKind::ClientEncode, &cp.client_encode),
                (StubKind::ClientDecode, &cp.client_decode),
                (StubKind::ServerDecode, &cp.server_decode),
                (StubKind::ServerEncode, &cp.server_encode),
            ] {
                let (unrolled, plan, _) =
                    stubgen::specialize_unrolled(&cp.generated, kind).unwrap();
                let opts = CompileOptions {
                    chunk: cp.unroll_bound,
                };
                let want =
                    compile(&cp.generated.program, &unrolled, &plan.conventions, opts).unwrap();
                let got = &stub.program;
                assert_eq!(got.ops, want.ops, "{kind:?} of {:?}", cp.arg_shape);
                assert_eq!(got.plan, want.plan, "{kind:?} of {:?}", cp.arg_shape);
                assert_eq!((got.wire_len, &got.name), (want.wire_len, &want.name));
            }
        };
        for n in [20, 250, 2000] {
            same_as_reference(&crate::echo::build_echo_proc(n, None).unwrap());
        }
        for cfg in [ScaleConfig::smoke(), ScaleConfig::million()] {
            let idl = scale_idl(cfg.shapes.len());
            for (i, &shape) in cfg.shapes.iter().enumerate() {
                let mut pipeline = ProcPipeline::new(shape);
                pipeline.chunk = cfg.chunk;
                same_as_reference(&pipeline.build_from_idl(&idl, None, i as u32 + 1).unwrap());
            }
        }
        for p in NFS_GETATTR..=NFS_COMMIT {
            same_as_reference(
                &ProcPipeline::new(0)
                    .build_from_idl(NFS_IDL, None, p)
                    .unwrap(),
            );
        }
    }

    /// The stub sets the benchmark's workloads run, named: echo at 1 / 20
    /// / 250 / 2000 elements, unrolled in full and under each
    /// `UNROLL_SWEEP` bound; the six scale shapes at their chunk; the
    /// five NFS procedures.
    fn benchmark_procs() -> Vec<(String, CompiledProc)> {
        let mut procs = Vec::new();
        for n in [1, 20, 250, 2000] {
            let bounds = crate::echo::UNROLL_SWEEP.map(Some);
            for chunk in std::iter::once(None).chain(bounds) {
                let cp = crate::echo::build_echo_proc(n, chunk).unwrap();
                procs.push((format!("echo n={n} chunk {chunk:?}"), cp));
            }
        }
        let cfg = ScaleConfig::million();
        let idl = scale_idl(cfg.shapes.len());
        for (i, &shape) in cfg.shapes.iter().enumerate() {
            let mut pipeline = ProcPipeline::new(shape);
            pipeline.chunk = cfg.chunk;
            let cp = pipeline.build_from_idl(&idl, None, i as u32 + 1).unwrap();
            procs.push((format!("scale shape {shape}"), cp));
        }
        for p in NFS_GETATTR..=NFS_COMMIT {
            let cp = ProcPipeline::new(0).build_from_idl(NFS_IDL, None, p);
            procs.push((format!("nfs proc {p}"), cp.unwrap()));
        }
        procs
    }

    /// Every stub set the pipeline generates, named: the benchmark's, and
    /// the shapes outside its four plans — two arrays, a scalar after an
    /// array and one before it (arrays pinned at 4, and at 0), a fixed
    /// array, 70 scalars (a header of 256 bytes or more).
    fn generated_procs() -> Vec<(String, CompiledProc)> {
        let scalars: String = (0..70).map(|k| format!("int s{k}; ")).collect();
        let idl = format!(
            "struct pair {{ int a<8>; int b<8>; }};\n\
             struct after {{ int a<8>; int x; }};\n\
             struct before {{ int x; int a<8>; }};\n\
             struct fixed {{ int a[4]; }};\n\
             struct wide {{ {scalars}}};\n\
             program SHAPEPROG {{ version SHAPEVERS {{\n\
                 pair PAIR(pair) = 1; after AFTER(after) = 2;\n\
                 before BEFORE(before) = 3; fixed FIXED(fixed) = 4;\n\
                 wide WIDE(wide) = 5;\n\
             }} = 1; }} = 0x20000105;\n"
        );
        let mut procs = benchmark_procs();
        let names = ["pair", "after", "before", "fixed", "wide"];
        for (p, name) in (1..).zip(names) {
            for pinned in [4, 0].into_iter().take(if p <= 3 { 2 } else { 1 }) {
                let cp = ProcPipeline::new(pinned).build_from_idl(&idl, None, p);
                procs.push((format!("{name} pinned at {pinned}"), cp.unwrap()));
            }
        }
        procs
    }

    /// Buffer lengths short of a whole message: every one through the
    /// header, then half and all but one byte.
    fn cuts(wire_len: usize) -> impl Iterator<Item = usize> {
        (0..wire_len.min(72)).chain([wire_len / 2, wire_len - 1])
    }

    /// An encode stub's kernel against its ops run one by one, in all
    /// three lanes (plain, xid override, result slots after the xid): the
    /// same outcome, bytes over a dirty buffer and `OpCounts`; the same
    /// error on every truncated buffer and with no scalar slots. Returns
    /// the message the xid lane wrote.
    fn check_encode(what: &str, stub: &CompiledStub) -> Vec<u8> {
        use specrpc_tempo::compile::{run_encode, run_encode_after_xid, run_encode_with_xid};
        type Lane = fn(&StubProgram, &mut [u8], &StubArgs, &mut OpCounts) -> StubResult;
        let lanes: [(&str, Lane, reference::Slots); 3] = [
            ("plain", run_encode, (None, 0)),
            (
                "after xid",
                |p, b, a, c| run_encode_after_xid(p, b, a, 0x0A0B_0C0D, c),
                (Some(0x0A0B_0C0D), 1),
            ),
            (
                "xid",
                |p, b, a, c| run_encode_with_xid(p, b, a, 0x0102_0304, c),
                (Some(0x0102_0304), 0),
            ),
        ];
        let prog = &stub.program;
        let walk = |buf: &mut [u8], args: &StubArgs, slots, counts: &mut OpCounts| {
            reference::encode(&prog.ops, prog.wire_len, buf, args, slots, counts)
        };
        let layout = &stub.layout;
        // Each array as long as the context pins it: the stub carries that
        // many elements and refuses more.
        let mut lens = vec![0; layout.array_count as usize];
        for param in &stub.conventions.params {
            let ParamBinding::Struct(fields) = param else {
                continue;
            };
            for field in fields {
                if let FieldTarget::Array(a) = field.target {
                    lens[a as usize] = field.slot_len as i32;
                }
            }
        }
        let scalars = (0..layout.scalar_count as i32).map(|k| k.wrapping_mul(0x0103_0507) - 9);
        let arrays = lens
            .iter()
            .zip(0..)
            .map(|(&n, a)| (0..n).map(|i| i * 31 - a).collect());
        let args = StubArgs::new(scalars.collect(), arrays.collect());
        let mut wire = vec![0xEEu8; prog.wire_len];
        for (lane, run, slots) in lanes {
            let what = format!("{what}, {lane} lane");
            let mut walked = vec![0xEEu8; prog.wire_len];
            let (mut cf, mut cw) = (OpCounts::new(), OpCounts::new());
            let done = run(prog, &mut wire, &args, &mut cf);
            assert!(matches!(done, Ok(Outcome::Done { .. })), "{what}: {done:?}");
            assert_eq!(done, walk(&mut walked, &args, slots, &mut cw), "{what}");
            assert_eq!((&wire, cf), (&walked, cw), "{what}");
            for cut in cuts(prog.wire_len) {
                let mut buf = vec![0xEEu8; cut];
                let fused = run(prog, &mut buf, &args, &mut OpCounts::new());
                let walked = walk(&mut buf, &args, slots, &mut OpCounts::new());
                assert_same_error(&fused, &walked, &format!("{what}, {cut} B"));
            }
        }
        let bare = StubArgs::new(vec![], args.arrays.clone());
        let fused = run_encode(prog, &mut wire.clone(), &bare, &mut OpCounts::new());
        let walked = walk(&mut wire.clone(), &bare, (None, 0), &mut OpCounts::new());
        assert_same_error(&fused, &walked, &format!("{what}, no scalar slots"));
        wire
    }

    type StubResult = Result<Outcome, StubError>;

    fn assert_same_error(fused: &StubResult, walked: &StubResult, what: &str) {
        assert!(fused.is_err(), "{what}: {fused:?}");
        assert_eq!(fused, walked, "{what}");
    }

    /// A decode stub's kernel against its ops run one by one: the same
    /// outcome, decoded slots and `OpCounts` on `wire`; on a wrong `inlen`
    /// and with each word a guard checks flipped, a `Fallback` after the
    /// same counts, the slots left as they were; the same error on every
    /// truncated buffer.
    fn check_decode(what: &str, stub: &CompiledStub, wire: &[u8]) {
        let prog = &stub.program;
        let (scalars, arrays) = (stub.layout.scalar_count, stub.layout.array_count);
        let prepared = || {
            let mut out = StubArgs::default();
            out.prepare(scalars as usize, arrays as usize);
            out
        };
        let decode = |walk: bool, wire: &[u8], inlen: usize| {
            let (mut out, mut counts) = (prepared(), OpCounts::new());
            let done = match walk {
                false => run_decode(prog, wire, &mut out, inlen, &mut counts),
                true => {
                    reference::decode(&prog.ops, prog.wire_len, wire, &mut out, inlen, &mut counts)
                }
            };
            (done, out, counts)
        };
        let done = decode(false, wire, wire.len());
        assert!(
            matches!(done.0, Ok(Outcome::Done { .. })),
            "{what}: {:?}",
            done.0
        );
        assert_eq!(done, decode(true, wire, wire.len()), "{what}: the message");
        let fallback = |wire: &[u8], inlen: usize, note: &str| {
            let (fused, walked) = (decode(false, wire, inlen), decode(true, wire, inlen));
            assert_eq!(fused.0, Ok(Outcome::Fallback), "{what}: {note}");
            assert_eq!((fused.0, fused.2), (walked.0, walked.2), "{what}: {note}");
            assert_eq!(fused.1, prepared(), "{what}: {note} loads nothing");
        };
        fallback(wire, wire.len() - 4, "short inlen");
        let loaded: HashMap<u16, u32> = (prog.ops.iter())
            .filter_map(|op| match *op {
                StubOp::GetScalar { off, slot } => Some((slot, off)),
                _ => None,
            })
            .collect();
        let checked: Vec<u32> = (prog.ops.iter())
            .filter_map(|op| match *op {
                StubOp::CheckWord { off, .. } => Some(off),
                StubOp::CheckScalar { slot, .. } => loaded.get(&slot).copied(),
                _ => None,
            })
            .collect();
        assert!(!checked.is_empty(), "{what}");
        for off in checked {
            let mut flipped = wire.to_vec();
            let word = off as usize..off as usize + 4;
            flipped[word].iter_mut().for_each(|b| *b ^= 0xFF);
            fallback(&flipped, wire.len(), &format!("word at {off} flipped"));
        }
        for cut in cuts(wire.len()) {
            let (fused, walked) = (
                decode(false, &wire[..cut], wire.len()),
                decode(true, &wire[..cut], wire.len()),
            );
            assert_same_error(&fused.0, &walked.0, &format!("{what}, {cut} B"));
        }
    }

    /// The kernel is exact: every generated stub, run by its kernel and
    /// op by op, writes the same bytes, decodes the same slots, ends in
    /// the same outcome or error and counts the same `OpCounts`, on good
    /// messages, guards that fail and buffers cut short.
    #[test]
    fn generated_stubs_run_fused_as_their_ops_do_one_by_one() {
        for (what, cp) in generated_procs() {
            let request = check_encode(&format!("{what}: client encode"), &cp.client_encode);
            let reply = check_encode(&format!("{what}: server encode"), &cp.server_encode);
            check_decode(
                &format!("{what}: server decode"),
                &cp.server_decode,
                &request,
            );
            check_decode(&format!("{what}: client decode"), &cp.client_decode, &reply);
        }
    }

    /// A benchmark stub's header is one plan step, and the plan has one of
    /// four shapes: the header image (`PutImage` or `GetImage`), at most
    /// one element step (a bulk put, or a decode's fill of the whole
    /// array), then `Ret` — the shapes the kernel's fixed-width entries
    /// run. Echo at 20 elements runs 12 steps for its four stubs (43 when
    /// the header ran a step per word).
    #[test]
    fn a_generated_stub_plans_its_header_as_one_step() {
        for (what, cp) in benchmark_procs() {
            let stubs = [
                (&cp.client_encode, true),
                (&cp.server_encode, true),
                (&cp.server_decode, false),
                (&cp.client_decode, false),
            ];
            for (stub, encode) in stubs {
                let plan = &stub.program.plan;
                let header = |s: &PlanOp| match s {
                    PlanOp::PutImage { .. } => encode,
                    PlanOp::GetImage { .. } => !encode,
                    _ => false,
                };
                let element = |s: &PlanOp| match s {
                    PlanOp::BulkPut { .. } => encode,
                    PlanOp::BulkFill { .. } => !encode,
                    _ => false,
                };
                let ok = match plan[..] {
                    [ref h, PlanOp::Ret { .. }] => header(h),
                    [ref h, ref e, PlanOp::Ret { .. }] => header(h) && element(e),
                    _ => false,
                };
                assert!(ok, "{what}: {plan:?}");
            }
        }
        let cp = crate::echo::build_echo_proc(20, None).unwrap();
        let stubs = [
            &cp.client_encode,
            &cp.server_decode,
            &cp.server_encode,
            &cp.client_decode,
        ];
        let steps: usize = stubs.iter().map(|s| s.program.plan.len()).sum();
        assert_eq!(steps, 12);
    }

    /// A reply image encoded into an offered buffer is rewound, not
    /// cleared (`service::raw_dispatch`), which holds only while the reply
    /// stub stores or zeroes every byte of its image: echo at 20 and 2000
    /// and the five NFS procedures, each into offers full of `0xAA` as
    /// long as, longer than and shorter than the reply.
    #[test]
    fn a_reply_in_an_offered_buffer_is_the_reply_in_a_fresh_one() {
        use specrpc_rpc::svc::SvcRegistry;
        let mut cases: Vec<(Arc<SvcRegistry>, Vec<u8>)> = Vec::new();
        for n in [20, 2000] {
            let proc_ = Arc::new(crate::echo::build_echo_proc(n, None).unwrap());
            let reg = crate::echo::echo_service(proc_).into_registry();
            let mut enc = XdrMem::encoder(64 + 4 * n);
            let mut data = crate::echo::workload(n);
            let len = crate::echo::generic_encode_request(&mut enc, 0x5151, &mut data).unwrap();
            cases.push((reg, enc.bytes()[..len].to_vec()));
        }
        let nfs = deploy_nfs_service(4).unwrap().into_registry();
        for (proc_num, scalars) in [
            (NFS_GETATTR, vec![2]),
            (NFS_LOOKUP, vec![2, 9]),
            (NFS_READ, vec![2, 64, 64]),
            (NFS_WRITE, vec![2, 64, 64]),
            (NFS_COMMIT, vec![2]),
        ] {
            cases.push((nfs.clone(), encode_nfs_call(0x5151, proc_num, &scalars)));
        }
        for (reg, request) in &cases {
            // Once for the handler's state (COMMIT reports what it
            // commits), once for the reference, in a zero-filled buffer.
            reg.dispatch(request);
            let fresh = reg.dispatch(request);
            let len = fresh.len();
            let dirty = |capacity: usize, len: usize| {
                let mut buf = vec![0xAA; capacity];
                buf.truncate(len);
                buf
            };
            for offered_len in [len, len + len / 2, len / 2] {
                let buf = dirty(len + len / 2, offered_len);
                let at = buf.as_ptr();
                let mut offer = Some(buf);
                let reply = reg.dispatch_offered(request, &mut offer, reg.pool());
                assert!(offer.is_none(), "a fitting offer is taken");
                assert_eq!(reply.as_ptr(), at);
                assert_eq!(
                    reply, fresh,
                    "{len}-byte reply over {offered_len} stale bytes"
                );
            }
            // Too small and too large (`svc::take_offer` pins the bounds).
            for capacity in [len - 1, 3 * len] {
                let mut offer = Some(dirty(capacity, capacity));
                assert_eq!(reg.dispatch_offered(request, &mut offer, reg.pool()), fresh);
                assert_eq!(offer, Some(dirty(capacity, capacity)), "left as it was");
            }
        }
        let echoes: u64 = cases[..2].iter().map(|(reg, _)| reg.raw_dispatches()).sum();
        assert_eq!((echoes, nfs.raw_dispatches()), (2 * 7, 5 * 7));
        assert_eq!(nfs.generic_dispatches(), 0);
    }

    #[test]
    fn the_sweep_retires_answered_heads_and_runs_no_simulation() {
        const SERVER: Addr = 7;
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(
            SERVER,
            Box::new(|req: &mut Vec<u8>, _| Some((req.to_vec(), SimTime::from_millis(1)))),
        );
        let mut open = OpenLoop::default();
        let send = |open: &mut OpenLoop, xid: u32| {
            let ep = net.bind_udp(SCALE_CLIENT_BASE + xid);
            ep.send_to(SERVER, xid.to_be_bytes().to_vec());
            let sent = net.now();
            open.inflight.push_back(InFlight { ep, xid, sent });
        };
        send(&mut open, 1);
        send(&mut open, 2);
        net.run_until(SimTime::from_millis(10), || false);
        send(&mut open, 3);
        send(&mut open, 4);
        // Request 3 reaches the server and is answered 1 ms later; the
        // delivery of request 4, due before that instant, is overdue.
        let far = SimTime::from_millis(100);
        assert!(net.step(far) && net.step(far));
        let (now, link) = (net.now(), net.link_stats());

        open.sweep();
        let left: Vec<u32> = open.inflight.iter().map(|f| f.xid).collect();
        assert_eq!(left, [3, 4], "the first unanswered request stops the sweep");
        assert_eq!(
            (open.replies, open.latency.count(), open.timeouts),
            (2, 2, 0)
        );
        assert_eq!(net.unbound_drops(), 0);
        assert_eq!((net.now(), net.link_stats()), (now, link), "no event ran");
        assert!(net.step(now), "the overdue delivery is still queued");
    }

    #[test]
    fn smoke_run_answers_every_client() {
        let cfg = ScaleConfig::smoke();
        let report = run_scale(&cfg).unwrap();
        assert_eq!(report.replies, cfg.clients as u64);
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.latency.count(), cfg.clients as u64);
        assert_eq!(
            report.per_shard.iter().sum::<u64>(),
            cfg.clients as u64,
            "every request processed exactly once"
        );
        assert_eq!(report.per_shard.len(), cfg.shards);
        assert!(report.elapsed >= cfg.span.saturating_sub(SimTime::from_millis(1)));
    }

    #[test]
    fn report_surfaces_link_queue_counters() {
        // The smoke run is single-driver (queue depth never exceeds 1),
        // so the bounded-queue counters must read clean — and render.
        let report = run_scale(&ScaleConfig::smoke()).unwrap();
        assert_eq!(report.link.queue_drops, 0);
        let text = report.render();
        assert!(text.contains("link queues:"), "{text}");
        assert!(text.contains("0 drop(s)"), "{text}");
        // Every endpoint was reaped after its reply: nothing arrived for
        // an address already unbound, and the line reads as it always
        // did. A late reply would show up on it.
        assert_eq!(report.unbound_drops, 0);
        assert!(text.ends_with("depth high-water 1"), "{text}");
        let late = ScaleReport {
            unbound_drops: 2,
            ..report
        };
        assert!(
            late.render()
                .ends_with("depth high-water 1, 2 datagram(s) for endpoints already gone"),
            "{}",
            late.render()
        );
    }

    #[test]
    fn fixed_seed_renders_byte_identical_reports() {
        let cfg = ScaleConfig::smoke();
        let a = run_scale(&cfg).unwrap();
        let b = run_scale(&cfg).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.per_shard, b.per_shard);
    }

    #[test]
    fn zipf_mix_skews_toward_the_first_shape() {
        let cdf = zipf_cdf(4, 1.2);
        assert!(cdf[0] > 0.4, "rank 1 dominates: {cdf:?}");
        assert!((cdf[3] - 1.0).abs() < 1e-12, "cdf normalized");
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let u = rng.random::<f64>();
            counts[cdf.partition_point(|&c| c < u).min(3)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
    }

    #[test]
    fn report_renders_quantiles_and_throughput() {
        let mut cfg = ScaleConfig::smoke();
        cfg.clients = 150;
        let report = run_scale(&cfg).unwrap();
        let text = report.render();
        assert!(text.contains("shard map:"), "{text}");
        assert!(text.contains("latency (virtual time):"), "{text}");
        assert!(text.contains("p999"), "{text}");
        assert!(
            text.contains("150 client(s), 150 replie(s), 0 timeout(s)"),
            "{text}"
        );
        assert!(text.contains("shard throughput:"), "{text}");
    }

    #[test]
    fn report_renders_the_shard_map_and_latency_lines() {
        let mut latency = LatencyHistogram::new();
        latency.record(SimTime::from_micros(120));
        let report = ScaleReport {
            clients: 26,
            replies: 26,
            timeouts: 0,
            elapsed: SimTime::from_millis(1),
            latency,
            per_shard: vec![5, 6, 7, 8],
            steals: 0,
            link: LinkStats::default(),
            unbound_drops: 0,
        };
        let text = report.render();
        assert!(
            text.starts_with(
                "  shard map:                      26 event(s) across 4 shard(s) [5, 6, 7, 8]\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("\n  latency (virtual time):         p50 120.0us, p99 120.0us, p999 120.0us, max 120.0us over 1 sample(s)\n"),
            "{text}"
        );
    }

    #[test]
    fn scaled_to_preserves_offered_load() {
        let cfg = ScaleConfig::million().scaled_to(1_000);
        assert_eq!(cfg.clients, 1_000);
        assert_eq!(cfg.span, SimTime::from_millis(120));
    }

    #[test]
    fn nfs_smoke_runs_the_full_mix() {
        // `run_nfs` itself checks every reply: decoded on the fast path,
        // and each COMMIT counting its whole burst.
        for cfg in [NfsConfig::smoke(), NfsConfig::smoke().per_call()] {
            let report = run_nfs(&cfg).unwrap();
            assert!(report.oneway_writes > 0, "bursts drawn: {report:?}");
            assert!(report.commits > 0);
            assert_eq!(
                report.oneway_writes,
                report.commits * cfg.write_burst as u64
            );
            assert_eq!(
                report.ops,
                report.sync_calls + report.oneway_writes,
                "every op is sync or one-way"
            );
            assert_eq!(report.latency.count(), report.sync_calls);
            assert_eq!(report.coalesce.oneways_queued, report.oneway_writes);
            assert_eq!(report.coalesce.pending_submessages, 0, "all bursts sealed");
            assert_eq!(report.coalesce.unacked_envelopes, 0, "all bursts acked");
            assert_eq!(report.coalesce.window_evictions, 0, "nothing fell off");
            assert_eq!(report.link.queue_drops, 0);
        }
    }

    #[test]
    fn nfs_fixed_seed_renders_byte_identical_reports() {
        let cfg = NfsConfig::smoke();
        let a = run_nfs(&cfg).unwrap();
        let b = run_nfs(&cfg).unwrap();
        assert_eq!(a.render(), b.render());
        let text = a.render();
        assert!(text.contains("nfs mix:"), "{text}");
        assert!(text.contains("coalescing:"), "{text}");
        assert!(text.contains("datagram(s)/op"), "{text}");
        assert!(text.contains("link packets:"), "{text}");
        // The eviction row appears only when something was evicted, so
        // the report of a run that lost nothing reads as it always did.
        assert!(!text.contains("replay window:"), "{text}");
        let mut lossy = a;
        lossy.coalesce.window_evictions = 3;
        assert!(
            lossy
                .render()
                .contains("replay window:                  3 unacknowledged envelope(s) evicted"),
            "{}",
            lossy.render()
        );
    }

    #[test]
    fn nfs_coalescing_beats_the_per_call_baseline() {
        let coalesced = run_nfs(&NfsConfig::smoke()).unwrap();
        let plain = run_nfs(&NfsConfig::smoke().per_call()).unwrap();
        // Same seed, same op sequence, same handler state transitions.
        assert_eq!(plain.ops, coalesced.ops);
        assert_eq!(plain.oneway_writes, coalesced.oneway_writes);
        // Coalescing packs each WRITE burst + COMMIT into one envelope,
        // so nearly every one-way write rides free; the baseline pays
        // one datagram per call.
        let saved = plain.link.datagrams - coalesced.link.datagrams;
        assert!(
            saved * 10 >= coalesced.oneway_writes * 9,
            "saved {} datagrams over {} one-way writes (coalesced {} vs per-call {})",
            saved,
            coalesced.oneway_writes,
            coalesced.link.datagrams,
            plain.link.datagrams
        );
        // Fewer packet taxes: less virtual time for the same work.
        assert!(
            coalesced.elapsed < plain.elapsed,
            "coalesced {} vs per-call {}",
            coalesced.elapsed,
            plain.elapsed
        );
        assert!(coalesced.coalesce.flushes_sync > 0);
        assert_eq!(plain.coalesce.flushes_mtu, plain.oneway_writes);
    }

    #[test]
    fn single_shard_baseline_matches_reply_counts() {
        let mut cfg = ScaleConfig::smoke();
        cfg.clients = 200;
        let many = run_scale(&cfg).unwrap();
        let one = run_scale_single_shard(&cfg).unwrap();
        assert_eq!(one.per_shard.len(), 1);
        assert_eq!(one.replies, many.replies);
        // Shard assignment never changes delivery order in single-driver
        // mode: the measured latencies are identical, not just similar.
        assert_eq!(one.latency, many.latency);
        assert_eq!(one.elapsed, many.elapsed);
    }
}

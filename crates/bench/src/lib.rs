//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! Method (see DESIGN.md): the operation counts come from **really
//! executing** our generic and specialized marshaling code on the
//! workload; the per-platform cost weights ([`Platform::costs`]) convert
//! those counts into modeled 1997 milliseconds. Absolute values are
//! modeled; the shape (who wins, by what factor, where curves bend) comes
//! from the executed code. `cargo bench` additionally measures real
//! wall-clock time on the host for the same code paths.

#![deny(unsafe_code)]

use specrpc::echo::{
    build_echo_proc, generic_decode_reply, generic_encode_request, workload, PAPER_SIZES,
};
use specrpc::pipeline::CompiledProc;
use specrpc_netsim::platform::{Platform, PlatformCosts, RoundTripSample};
use specrpc_rpc::msg::{CallHeader, ReplyHeader};
use specrpc_tempo::compile::{run_decode, run_encode, StubArgs};
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::{OpCounts, XdrStream};

/// Size of the generic client code in the paper's Table 3 (bytes).
pub const GENERIC_CLIENT_BYTES: usize = 20_004;
/// Modeled fixed size of the specialized client besides the stubs
/// (the "unspecialized generic functions because of error handling",
/// Table 3 discussion).
pub const SPEC_BASE_BYTES: usize = 23_540;

/// One row of Table 1/2: original vs specialized times.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Array size in 4-byte integers.
    pub n: usize,
    /// Original (generic) time in ms.
    pub orig_ms: f64,
    /// Specialized time in ms.
    pub spec_ms: f64,
}

impl Row {
    /// Speedup ratio.
    pub fn speedup(&self) -> f64 {
        self.orig_ms / self.spec_ms
    }
}

/// Counts from really executing the four marshal/unmarshal steps of one
/// echo round trip, per mode.
#[derive(Debug, Clone)]
pub struct MeasuredCounts {
    /// Client request encode.
    pub client_enc: OpCounts,
    /// Server request decode.
    pub server_dec: OpCounts,
    /// Server reply encode.
    pub server_enc: OpCounts,
    /// Client reply decode.
    pub client_dec: OpCounts,
    /// Client argument marshaling only (no call header) — what the
    /// paper's Table 1 micro-benchmark times ("the client marshaling
    /// process", i.e. the stub body).
    pub args_enc: OpCounts,
    /// Request bytes.
    pub request_len: usize,
    /// Reply bytes.
    pub reply_len: usize,
    /// Stub code size (specialized) or generic code size.
    pub code_bytes: usize,
}

/// Execute the generic paths once for size `n` and collect counts.
pub fn measure_generic(n: usize) -> MeasuredCounts {
    let mut data = workload(n);

    // Client encode.
    let mut enc = XdrMem::encoder(1 << 20);
    let request_len = generic_encode_request(&mut enc, 0x1111, &mut data).unwrap();
    let client_enc = *enc.counts();
    let request = enc.bytes().to_vec();

    // Server decode (header + args through the layered path).
    let mut dec = XdrMem::decoder(&request);
    let mut hdr = CallHeader::new(0, 0, 0, 0);
    CallHeader::xdr(&mut dec, &mut hdr).unwrap();
    let mut args: Vec<i32> = Vec::new();
    xdr_array(&mut dec, &mut args, 1 << 20, xdr_int).unwrap();
    let server_dec = *dec.counts();

    // Server encode (reply header + results).
    let mut renc = XdrMem::encoder(1 << 20);
    ReplyHeader::encode_success(&mut renc, 0x1111).unwrap();
    xdr_array(&mut renc, &mut args, 1 << 20, xdr_int).unwrap();
    let server_enc = *renc.counts();
    let reply = renc.bytes().to_vec();

    // Client decode.
    let mut out: Vec<i32> = Vec::new();
    let client_dec = generic_decode_reply(&reply, &mut out).unwrap();
    assert_eq!(out, data);

    // Argument marshaling alone (Table 1's micro-benchmark scope).
    let mut aenc = XdrMem::encoder(1 << 20);
    xdr_array(&mut aenc, &mut data, 1 << 20, xdr_int).unwrap();
    let args_enc = *aenc.counts();

    MeasuredCounts {
        client_enc,
        server_dec,
        server_enc,
        client_dec,
        args_enc,
        request_len,
        reply_len: reply.len(),
        code_bytes: GENERIC_CLIENT_BYTES,
    }
}

/// Execute the specialized paths once for size `n` (optionally chunked)
/// and collect counts.
pub fn measure_specialized(proc_: &CompiledProc, n: usize) -> MeasuredCounts {
    let data = workload(n);

    let args = StubArgs::new(vec![0x1111], vec![data.clone()]);
    let mut request = vec![0u8; proc_.client_encode.wire_len];
    let mut client_enc = OpCounts::new();
    run_encode(
        &proc_.client_encode.program,
        &mut request,
        &args,
        &mut client_enc,
    )
    .unwrap();

    let sd = &proc_.server_decode;
    let mut sargs = StubArgs::new(
        vec![0; sd.layout.scalar_count as usize],
        vec![Vec::new(); sd.layout.array_count as usize],
    );
    let mut server_dec = OpCounts::new();
    let out = run_decode(
        &sd.program,
        &request,
        &mut sargs,
        request.len(),
        &mut server_dec,
    )
    .unwrap();
    assert!(matches!(
        out,
        specrpc_tempo::compile::Outcome::Done { ret: 1, .. }
    ));

    let se = &proc_.server_encode;
    let reply_args = StubArgs::new(vec![0x1111], vec![sargs.arrays[0].clone()]);
    let mut reply = vec![0u8; se.wire_len];
    let mut server_enc = OpCounts::new();
    run_encode(&se.program, &mut reply, &reply_args, &mut server_enc).unwrap();

    let cd = &proc_.client_decode;
    let mut cargs = StubArgs::new(
        vec![0; cd.layout.scalar_count as usize],
        vec![Vec::new(); cd.layout.array_count as usize],
    );
    let mut client_dec = OpCounts::new();
    let out = run_decode(
        &cd.program,
        &reply,
        &mut cargs,
        reply.len(),
        &mut client_dec,
    )
    .unwrap();
    assert!(matches!(
        out,
        specrpc_tempo::compile::Outcome::Done { ret: 1, .. }
    ));
    assert_eq!(cargs.arrays[0], data);

    // Argument marshaling alone: the full stub minus the ten header
    // words (one PutScalar for the xid, nine PutImm) it writes.
    let mut args_enc = client_enc;
    args_enc.stub_ops = args_enc.stub_ops.saturating_sub(10);
    args_enc.mem_moves = args_enc.mem_moves.saturating_sub(40);

    MeasuredCounts {
        client_enc,
        server_dec,
        server_enc,
        client_dec,
        args_enc,
        request_len: request.len(),
        reply_len: reply.len(),
        code_bytes: SPEC_BASE_BYTES - GENERIC_CLIENT_BYTES
            + proc_
                .client_encode
                .program
                .code_size_bytes()
                .max(proc_.client_decode.program.code_size_bytes()),
    }
}

/// Table 1: client marshaling time per platform.
pub fn table1(platform: Platform) -> Vec<Row> {
    let costs = platform.costs();
    PAPER_SIZES
        .iter()
        .map(|&n| {
            let g = measure_generic(n);
            let proc_ = build_echo_proc(n, None).expect("pipeline");
            let s = measure_specialized(&proc_, n);
            Row {
                n,
                orig_ms: costs.marshal_ns(&g.args_enc, g.code_bytes) / 1e6,
                spec_ms: costs.marshal_ns(&s.args_enc, s.code_bytes) / 1e6,
            }
        })
        .collect()
}

/// Table 2: round-trip time per platform.
pub fn table2(platform: Platform) -> Vec<Row> {
    let costs = platform.costs();
    PAPER_SIZES
        .iter()
        .map(|&n| {
            let g = measure_generic(n);
            let proc_ = build_echo_proc(n, None).expect("pipeline");
            let s = measure_specialized(&proc_, n);
            let sample = |m: &MeasuredCounts, specialized: bool| RoundTripSample {
                marshals: vec![
                    (m.client_enc, m.code_bytes),
                    (m.server_dec, m.code_bytes),
                    (m.server_enc, m.code_bytes),
                    (m.client_dec, m.code_bytes),
                ],
                wire_bytes: m.request_len + m.reply_len,
                specialized,
            };
            Row {
                n,
                orig_ms: costs.round_trip_ns(&sample(&g, false)) / 1e6,
                spec_ms: costs.round_trip_ns(&sample(&s, true)) / 1e6,
            }
        })
        .collect()
}

/// Table 3: client code sizes (bytes), generic vs specialized per size.
pub fn table3() -> Vec<(usize, usize, usize)> {
    PAPER_SIZES
        .iter()
        .map(|&n| {
            let proc_ = build_echo_proc(n, None).expect("pipeline");
            let spec = SPEC_BASE_BYTES
                + proc_.client_encode.program.code_size_bytes()
                + proc_.client_decode.program.code_size_bytes();
            (n, GENERIC_CLIENT_BYTES, spec)
        })
        .collect()
}

/// Table 4: full vs 250-bounded unrolling on PC/Linux marshaling.
pub fn table4() -> Vec<(usize, f64, f64, f64)> {
    let costs = Platform::PcLinuxFastEthernet.costs();
    [500usize, 1000, 2000]
        .iter()
        .map(|&n| {
            let g = measure_generic(n);
            let full_proc = build_echo_proc(n, None).expect("pipeline");
            let full = measure_specialized(&full_proc, n);
            let chunk_proc = build_echo_proc(n, Some(250)).expect("pipeline");
            let chunked = measure_specialized(&chunk_proc, n);
            let chunk_code = SPEC_BASE_BYTES - GENERIC_CLIENT_BYTES
                + chunk_proc.client_encode.program.code_size_bytes();
            let orig = costs.marshal_ns(&g.args_enc, g.code_bytes) / 1e6;
            let f = costs.marshal_ns(&full.args_enc, full.code_bytes) / 1e6;
            let c = costs.marshal_ns(&chunked.args_enc, chunk_code) / 1e6;
            (n, orig, f, c)
        })
        .collect()
}

/// Record-mark fragment size of the TCP clients (the `XdrRec` default
/// the transports use — aliased so the modeled record-marking overhead
/// can never drift from what the real stream does).
pub const TCP_FRAGMENT_BYTES: usize = specrpc_xdr::rec::DEFAULT_FRAGMENT_SIZE;

/// Loss probability of the modeled lossy-UDP rows (each direction).
pub const MODELED_LOSS: f64 = 0.05;

/// Retransmission timer of the modeled lossy-UDP rows, as a multiple of
/// the clean round-trip time (an adaptive, RTT-derived RTO à la
/// Jacobson, not the fixed multi-second default of `clntudp_create` —
/// a fixed timer would swamp the table with idle waiting).
pub const MODELED_RTO_RTT_MULTIPLE: f64 = 4.0;

/// Modeled round-trip time over record-marked TCP: the UDP cost plus
/// what the stream framing adds — 4 record-mark bytes per fragment on
/// the wire, one reassembly pass copying each message out of its
/// fragments, and a per-fragment processing event.
pub fn modeled_tcp_round_trip_ns(
    costs: &PlatformCosts,
    sample: &RoundTripSample,
    request_len: usize,
    reply_len: usize,
) -> f64 {
    let frags = |len: usize| len.div_ceil(TCP_FRAGMENT_BYTES).max(1);
    let fragments = frags(request_len) + frags(reply_len);
    let mark_bytes = 4 * fragments;
    let mut marked = sample.clone();
    marked.wire_bytes += mark_bytes;
    costs.round_trip_ns(&marked)
        + (request_len + reply_len) as f64 * costs.mem_byte_ns
        + fragments as f64 * costs.interp_event_ns
}

/// Modeled round-trip time over UDP with per-direction loss probability
/// `loss` and retransmission timer `retry_ns`: the clean cost plus the
/// expected retransmission stalls. A transaction survives when both the
/// request and the reply get through (probability `(1-loss)²`); each
/// failed try costs one full timer before the retry.
pub fn modeled_lossy_udp_round_trip_ns(
    costs: &PlatformCosts,
    sample: &RoundTripSample,
    loss: f64,
    retry_ns: f64,
) -> f64 {
    assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
    let q = (1.0 - loss) * (1.0 - loss);
    costs.round_trip_ns(sample) + (1.0 - q) / q * retry_ns
}

/// One row of the modeled transport-comparison table: round-trip times
/// (ms) for generic and specialized marshaling over clean UDP,
/// record-marked TCP, and lossy UDP with retransmission.
#[derive(Debug, Clone, Copy)]
pub struct TransportRow {
    /// Array size in 4-byte integers.
    pub n: usize,
    /// Clean UDP, generic / specialized (the Table 2 columns).
    pub udp: (f64, f64),
    /// Record-marked TCP, generic / specialized.
    pub tcp: (f64, f64),
    /// Lossy UDP ([`MODELED_LOSS`] per direction,
    /// [`MODELED_RTO_RTT_MULTIPLE`]×RTT timer), generic / specialized.
    pub lossy: (f64, f64),
}

/// The modeled transport table (the ROADMAP's "TCP and lossy-UDP rows"):
/// §5's round trip re-modeled over both transports plus a faulty link,
/// from the same measured op counts as Table 2.
pub fn transport_table(platform: Platform) -> Vec<TransportRow> {
    let costs = platform.costs();
    PAPER_SIZES
        .iter()
        .map(|&n| {
            let g = measure_generic(n);
            let proc_ = build_echo_proc(n, None).expect("pipeline");
            let s = measure_specialized(&proc_, n);
            let sample = |m: &MeasuredCounts, specialized: bool| RoundTripSample {
                marshals: vec![
                    (m.client_enc, m.code_bytes),
                    (m.server_dec, m.code_bytes),
                    (m.server_enc, m.code_bytes),
                    (m.client_dec, m.code_bytes),
                ],
                wire_bytes: m.request_len + m.reply_len,
                specialized,
            };
            let per_mode = |m: &MeasuredCounts, specialized: bool| {
                let sm = sample(m, specialized);
                let udp = costs.round_trip_ns(&sm);
                let tcp = modeled_tcp_round_trip_ns(&costs, &sm, m.request_len, m.reply_len);
                let lossy = modeled_lossy_udp_round_trip_ns(
                    &costs,
                    &sm,
                    MODELED_LOSS,
                    MODELED_RTO_RTT_MULTIPLE * udp,
                );
                (udp / 1e6, tcp / 1e6, lossy / 1e6)
            };
            let (gu, gt, gl) = per_mode(&g, false);
            let (su, st, sl) = per_mode(&s, true);
            TransportRow {
                n,
                udp: (gu, su),
                tcp: (gt, st),
                lossy: (gl, sl),
            }
        })
        .collect()
}

/// Render the modeled transport table.
pub fn render_transport_rows(title: &str, rows: &[TransportRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "n", "udp-orig", "udp-spec", "tcp-orig", "tcp-spec", "loss-orig", "loss-spec"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3}",
            r.n, r.udp.0, r.udp.1, r.tcp.0, r.tcp.1, r.lossy.0, r.lossy.1
        );
    }
    out
}

/// One row of the retransmission-strategy study: one policy from
/// [`specrpc::CongestionConfig::strategies`] driven through the
/// overloaded burst of [`specrpc::run_congestion`] under one fault
/// configuration. All
/// quantities are deterministic virtual-time results, not models — the
/// burst really runs through the honest link.
#[derive(Debug, Clone)]
pub struct CongestionRow {
    /// Fault-matrix column ("clean" or "lossy").
    pub faults: &'static str,
    /// Strategy label ("fixed", "expbackoff", "paced").
    pub strategy: &'static str,
    /// Calls that completed / were abandoned at the retry cap.
    pub completed: u64,
    /// Abandoned calls.
    pub failed: u64,
    /// Spurious + recovery retransmissions per settled call.
    pub retransmits_per_call: f64,
    /// Datagrams dropped tail-first at the bounded receive queues.
    pub queue_drops: u64,
    /// Deepest bounded queue observed.
    pub depth_high_water: u64,
    /// 99th-percentile call latency (ms, virtual).
    pub p99_ms: f64,
    /// Virtual time until the whole burst settled (ms).
    pub settle_ms: f64,
}

/// Run the retransmission-strategy study: the smoke-sized overloaded
/// burst, three strategies × {clean, lossy}. Deterministic — the same
/// rows every run.
pub fn congestion_study() -> Vec<CongestionRow> {
    use specrpc::{run_congestion_matrix, CongestionConfig};
    use specrpc_netsim::FaultConfig;

    let mut rows = Vec::new();
    for (faults_label, faults) in [("clean", FaultConfig::NONE), ("lossy", FaultConfig::LOSSY)] {
        let cfg = CongestionConfig::smoke().with_faults(faults);
        for report in run_congestion_matrix(&cfg).expect("congestion matrix") {
            rows.push(CongestionRow {
                faults: faults_label,
                strategy: report.policy_label(),
                completed: report.completed,
                failed: report.failed,
                retransmits_per_call: report.retransmits_per_call(),
                queue_drops: report.link.queue_drops,
                depth_high_water: report.link.queue_depth_high_water,
                p99_ms: report.latency.p99().as_nanos() as f64 / 1e6,
                settle_ms: report.elapsed.as_nanos() as f64 / 1e6,
            });
        }
    }
    rows
}

/// Render the retransmission-strategy study table.
pub fn render_congestion_rows(title: &str, rows: &[CongestionRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6} {:>11} | {:>5} {:>6} {:>8} | {:>6} {:>6} | {:>8} {:>9}",
        "faults",
        "strategy",
        "done",
        "failed",
        "rtx/call",
        "drops",
        "depth",
        "p99(ms)",
        "settle(ms)"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>11} | {:>5} {:>6} {:>8.2} | {:>6} {:>6} | {:>8.3} {:>9.3}",
            r.faults,
            r.strategy,
            r.completed,
            r.failed,
            r.retransmits_per_call,
            r.queue_drops,
            r.depth_high_water,
            r.p99_ms,
            r.settle_ms,
        );
    }
    out
}

/// One row of the availability study: one client mode (resilience
/// layer on/off) driven through the mid-run primary crash of
/// [`specrpc::run_chaos`] under one fault configuration. All
/// quantities are deterministic virtual-time results — the crash,
/// restart, and failovers really happen on the simulated wire.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Fault-matrix column ("clean" or "lossy").
    pub faults: &'static str,
    /// Client mode ("failover" or "no-failover").
    pub mode: &'static str,
    /// Availability in basis points (9_967 = 99.67%).
    pub availability_bp: u32,
    /// Calls that completed within the scenario deadline / issued.
    pub within_deadline: u64,
    /// Calls issued.
    pub calls: u64,
    /// Calls that errored outright.
    pub failed: u64,
    /// Crash → first completed post-crash call (ms, virtual).
    pub recovery_ms: f64,
    /// Client retargetings to a backup replica.
    pub failovers: u64,
    /// Circuit-breaker open transitions.
    pub breaker_trips: u64,
    /// Handler executions beyond one per completed call.
    pub extra_executions: u64,
    /// 99th-percentile call latency (ms, virtual).
    pub p99_ms: f64,
}

/// Run the availability study: the smoke-sized crash schedule, two
/// client modes × {clean, lossy}. Deterministic — the same rows every
/// run.
pub fn chaos_study() -> Vec<ChaosRow> {
    use specrpc::{run_chaos_matrix, ChaosConfig};
    use specrpc_netsim::FaultConfig;

    let mut rows = Vec::new();
    for (faults_label, faults) in [("clean", FaultConfig::NONE), ("lossy", FaultConfig::LOSSY)] {
        let cfg = ChaosConfig::smoke().with_faults(faults);
        for report in run_chaos_matrix(&cfg).expect("chaos matrix") {
            rows.push(ChaosRow {
                faults: faults_label,
                mode: report.mode_label(),
                availability_bp: report.availability_bp(),
                within_deadline: report.within_deadline,
                calls: report.calls,
                failed: report.failed,
                recovery_ms: report
                    .recovery
                    .map_or(f64::NAN, |r| r.as_nanos() as f64 / 1e6),
                failovers: report.failovers,
                breaker_trips: report.breaker_trips,
                extra_executions: report.extra_executions,
                p99_ms: report.latency.p99().as_nanos() as f64 / 1e6,
            });
        }
    }
    rows
}

/// Render the availability study table.
pub fn render_chaos_rows(title: &str, rows: &[ChaosRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6} {:>12} | {:>8} {:>9} {:>6} | {:>8} | {:>5} {:>5} {:>5} | {:>8}",
        "faults",
        "mode",
        "avail",
        "in-ddl",
        "failed",
        "rcvr(ms)",
        "f/o",
        "trips",
        "dups",
        "p99(ms)"
    );
    let _ = writeln!(out, "{}", "-".repeat(86));
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>12} | {:>5}.{:02}% {:>5}/{:<3} {:>6} | {:>8.3} | {:>5} {:>5} {:>5} | {:>8.3}",
            r.faults,
            r.mode,
            r.availability_bp / 100,
            r.availability_bp % 100,
            r.within_deadline,
            r.calls,
            r.failed,
            r.recovery_ms,
            r.failovers,
            r.breaker_trips,
            r.extra_executions,
            r.p99_ms,
        );
    }
    out
}

/// One row of the coalescing study: the NFS-like mixed workload of
/// [`specrpc::run_nfs`] driven under one packing policy over the
/// honest per-packet link. All quantities are deterministic
/// virtual-time results — the envelopes, flushes, and acks really
/// cross the simulated wire.
#[derive(Debug, Clone)]
pub struct NfsRow {
    /// Packing policy ("coalesced" or "per-call").
    pub mode: &'static str,
    /// Total operations issued (sync calls + one-way writes).
    pub ops: u64,
    /// Synchronous round trips.
    pub sync_calls: u64,
    /// One-way WRITEs batched behind them.
    pub oneway_writes: u64,
    /// Datagrams that hit the wire.
    pub datagrams: u64,
    /// MTU fragments those datagrams paid for.
    pub fragments: u64,
    /// Datagrams per operation.
    pub datagrams_per_op: f64,
    /// Envelope flushes forced by MTU pressure.
    pub flushes_mtu: u64,
    /// Envelope flushes sealed by a sync call.
    pub flushes_sync: u64,
    /// 99th-percentile sync-call latency (ms, virtual).
    pub p99_ms: f64,
    /// Amortized virtual time per operation (µs).
    pub amortized_us: f64,
    /// Virtual time until the whole workload settled (ms).
    pub settle_ms: f64,
}

/// Run the coalescing study: the smoke-sized NFS-like mix, coalesced
/// vs one-datagram-per-call. Deterministic — the same rows every run.
pub fn nfs_study() -> Vec<NfsRow> {
    use specrpc::{run_nfs, NfsConfig};

    let mut rows = Vec::new();
    for (mode, cfg) in [
        ("coalesced", NfsConfig::smoke()),
        ("per-call", NfsConfig::smoke().per_call()),
    ] {
        let report = run_nfs(&cfg).expect("nfs run");
        rows.push(NfsRow {
            mode,
            ops: report.ops,
            sync_calls: report.sync_calls,
            oneway_writes: report.oneway_writes,
            datagrams: report.link.datagrams,
            fragments: report.link.fragments,
            datagrams_per_op: report.datagrams_per_op(),
            flushes_mtu: report.coalesce.flushes_mtu,
            flushes_sync: report.coalesce.flushes_sync,
            p99_ms: report.latency.p99().as_nanos() as f64 / 1e6,
            amortized_us: report.amortized_per_op().as_nanos() as f64 / 1e3,
            settle_ms: report.elapsed.as_nanos() as f64 / 1e6,
        });
    }
    rows
}

/// Render the coalescing study table.
pub fn render_nfs_rows(title: &str, rows: &[NfsRow]) -> String {
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
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10} | {:>5} {:>5} {:>7} | {:>6} {:>6} {:>7.2} | {:>5} {:>5} | {:>8.3} {:>8.1} {:>9.3}",
            r.mode,
            r.ops,
            r.sync_calls,
            r.oneway_writes,
            r.datagrams,
            r.fragments,
            r.datagrams_per_op,
            r.flushes_mtu,
            r.flushes_sync,
            r.p99_ms,
            r.amortized_us,
            r.settle_ms,
        );
    }
    out
}

/// Render a Table-1/2-style table with paper reference values.
pub fn render_rows(title: &str, rows: &[Row], paper: &[(f64, f64)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8}",
        "n", "orig(ms)", "spec(ms)", "speedup", "paper-orig", "paper-spec", "paper-x"
    );
    let _ = writeln!(out, "{}", "-".repeat(76));
    for (r, (po, ps)) in rows.iter().zip(paper.iter()) {
        let _ = writeln!(
            out,
            "{:>6} | {:>10.3} {:>10.3} {:>8.2} | {:>10.2} {:>10.2} {:>8.2}",
            r.n,
            r.orig_ms,
            r.spec_ms,
            r.speedup(),
            po,
            ps,
            po / ps
        );
    }
    out
}

/// The paper's Table 1 values `(orig, spec)` in ms.
pub fn paper_table1(platform: Platform) -> [(f64, f64); 6] {
    match platform {
        Platform::IpxSunosAtm => [
            (0.047, 0.017),
            (0.20, 0.057),
            (0.49, 0.13),
            (0.99, 0.30),
            (1.96, 0.62),
            (3.93, 1.38),
        ],
        Platform::PcLinuxFastEthernet => [
            (0.071, 0.063),
            (0.11, 0.069),
            (0.17, 0.08),
            (0.29, 0.11),
            (0.51, 0.17),
            (0.97, 0.29),
        ],
    }
}

/// The paper's Table 2 values `(orig, spec)` in ms.
pub fn paper_table2(platform: Platform) -> [(f64, f64); 6] {
    match platform {
        Platform::IpxSunosAtm => [
            (2.32, 2.13),
            (3.32, 2.74),
            (5.02, 3.60),
            (7.86, 5.23),
            (13.58, 8.82),
            (25.24, 16.35),
        ],
        Platform::PcLinuxFastEthernet => [
            (0.69, 0.66),
            (0.99, 0.87),
            (1.58, 1.25),
            (2.62, 2.01),
            (4.26, 3.17),
            (7.61, 5.68),
        ],
    }
}

/// The paper's Table 3 specialized sizes (bytes).
pub const PAPER_TABLE3_SPEC: [usize; 6] = [24_340, 27_540, 33_540, 43_540, 63_540, 111_348];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_hold_on_both_platforms() {
        // IPX: speedup peaks mid-size and declines at 2000 (Fig 6-5).
        let ipx = table1(Platform::IpxSunosAtm);
        let peak = ipx.iter().map(|r| r.speedup()).fold(0.0, f64::max);
        assert!(peak > 3.0 && peak < 4.5, "peak {peak}");
        assert!(ipx[5].speedup() < peak, "decline at 2000");
        assert!(ipx[0].speedup() < peak, "rise from 20");

        // PC: monotone rise, final ~3-4 (Table 1 column).
        let pc = table1(Platform::PcLinuxFastEthernet);
        for w in pc.windows(2) {
            assert!(w[1].speedup() >= w[0].speedup() * 0.98, "{pc:?}");
        }
        assert!(pc[5].speedup() > 2.8 && pc[5].speedup() < 4.2);
    }

    #[test]
    fn table1_magnitudes_near_paper() {
        for platform in Platform::all() {
            let rows = table1(platform);
            let paper = paper_table1(platform);
            for (r, (po, ps)) in rows.iter().zip(paper.iter()) {
                let eo = (r.orig_ms - po).abs() / po;
                let es = (r.spec_ms - ps).abs() / ps;
                assert!(
                    eo < 0.35,
                    "{platform:?} n={} orig {} vs {po}",
                    r.n,
                    r.orig_ms
                );
                assert!(
                    es < 0.35,
                    "{platform:?} n={} spec {} vs {ps}",
                    r.n,
                    r.spec_ms
                );
            }
        }
    }

    #[test]
    fn table2_speedups_rise_to_plateau() {
        for (platform, lo, hi) in [
            (Platform::IpxSunosAtm, 1.25, 1.85),
            (Platform::PcLinuxFastEthernet, 1.15, 1.75),
        ] {
            let rows = table2(platform);
            assert!(
                rows[0].speedup() > 1.0 && rows[0].speedup() < 1.3,
                "{rows:?}"
            );
            assert!(rows[5].speedup() > rows[0].speedup());
            assert!(
                rows[5].speedup() > lo && rows[5].speedup() < hi,
                "{platform:?} plateau {}",
                rows[5].speedup()
            );
        }
    }

    #[test]
    fn table3_specialized_always_larger_and_linear() {
        let t = table3();
        for (n, g, s) in &t {
            assert!(s > g, "n={n}: specialized {s} must exceed generic {g}");
        }
        // Linear growth: slope between consecutive sizes roughly constant.
        let slope1 = (t[1].2 - t[0].2) as f64 / (t[1].0 - t[0].0) as f64;
        let slope5 = (t[5].2 - t[4].2) as f64 / (t[5].0 - t[4].0) as f64;
        assert!(
            (slope1 - slope5).abs() / slope1 < 0.2,
            "{slope1} vs {slope5}"
        );
    }

    #[test]
    fn table4_chunked_beats_full_at_large_sizes() {
        let t = table4();
        for (n, orig, full, chunked) in &t {
            assert!(full < orig, "n={n}");
            if *n >= 1000 {
                assert!(chunked < full, "n={n}: chunked {chunked} < full {full}");
            }
        }
    }

    #[test]
    fn transport_table_orders_and_shapes_hold() {
        for platform in Platform::all() {
            let rows = transport_table(platform);
            assert_eq!(rows.len(), PAPER_SIZES.len());
            for r in &rows {
                for (udp, tcp, lossy) in
                    [(r.udp.0, r.tcp.0, r.lossy.0), (r.udp.1, r.tcp.1, r.lossy.1)]
                {
                    assert!(
                        tcp > udp,
                        "n={}: record marking must cost ({platform:?})",
                        r.n
                    );
                    assert!(lossy > udp, "n={}: loss must cost ({platform:?})", r.n);
                }
                // Specialization still wins on every transport.
                assert!(r.udp.1 < r.udp.0, "n={}", r.n);
                assert!(r.tcp.1 < r.tcp.0, "n={}", r.n);
                assert!(r.lossy.1 < r.lossy.0, "n={}", r.n);
                // The TCP premium is framing + one reassembly copy — an
                // overhead, not a new order of magnitude.
                assert!(r.tcp.0 < r.udp.0 * 2.0, "n={}: {:?}", r.n, r.tcp);
            }
            // Lossy-UDP rows stay proportional: ~10.8% expected extra
            // tries at 5% loss with a 4×RTT timer → ~1.43× clean UDP.
            let want = 1.0
                + MODELED_RTO_RTT_MULTIPLE * (1.0 - (1.0 - MODELED_LOSS).powi(2))
                    / (1.0 - MODELED_LOSS).powi(2);
            for r in &rows {
                let ratio = r.lossy.0 / r.udp.0;
                assert!(
                    (ratio - want).abs() < 1e-6,
                    "n={}: lossy/udp ratio {ratio} vs {want}",
                    r.n
                );
            }
        }
    }

    #[test]
    fn lossy_model_degenerates_to_clean_at_zero_loss() {
        let costs = Platform::PcLinuxFastEthernet.costs();
        let g = measure_generic(100);
        let sample = RoundTripSample {
            marshals: vec![(g.client_enc, g.code_bytes); 4],
            wire_bytes: g.request_len + g.reply_len,
            specialized: false,
        };
        let clean = costs.round_trip_ns(&sample);
        assert_eq!(
            modeled_lossy_udp_round_trip_ns(&costs, &sample, 0.0, 4.0 * clean),
            clean
        );
    }

    #[test]
    fn render_transport_rows_includes_all_columns() {
        let rows = vec![TransportRow {
            n: 20,
            udp: (1.0, 0.5),
            tcp: (1.2, 0.6),
            lossy: (1.4, 0.7),
        }];
        let text = render_transport_rows("T", &rows);
        for col in ["udp-orig", "tcp-spec", "loss-orig"] {
            assert!(text.contains(col), "{text}");
        }
    }

    #[test]
    fn congestion_study_covers_the_matrix_and_backoff_wins() {
        let rows = congestion_study();
        assert_eq!(rows.len(), 6, "3 strategies x 2 fault columns");
        let find = |f: &str, s: &str| {
            rows.iter()
                .find(|r| r.faults == f && r.strategy == s)
                .unwrap()
        };
        for f in ["clean", "lossy"] {
            let fixed = find(f, "fixed");
            let backoff = find(f, "expbackoff");
            assert!(
                backoff.retransmits_per_call < fixed.retransmits_per_call,
                "{f}: backoff {} vs fixed {}",
                backoff.retransmits_per_call,
                fixed.retransmits_per_call
            );
            for s in ["fixed", "expbackoff", "paced"] {
                let r = find(f, s);
                assert_eq!(r.completed + r.failed, 48, "{f}/{s}: every call settles");
                assert!(r.queue_drops > 0, "{f}/{s}: the burst must overflow");
            }
        }
        let text = render_congestion_rows("T", &rows);
        for col in ["rtx/call", "drops", "settle(ms)", "expbackoff"] {
            assert!(text.contains(col), "{text}");
        }
    }

    #[test]
    fn chaos_study_shows_failover_holding_availability() {
        let rows = chaos_study();
        assert_eq!(rows.len(), 4, "2 modes x 2 fault columns");
        let find = |f: &str, m: &str| rows.iter().find(|r| r.faults == f && r.mode == m).unwrap();
        for f in ["clean", "lossy"] {
            let with = find(f, "failover");
            let without = find(f, "no-failover");
            // The ≥99% availability bound is the crash-only claim; the
            // lossy column stacks random datagram loss on top, where a
            // deadline miss or two is the loss model's doing.
            let floor = if f == "clean" { 9_900 } else { 9_700 };
            assert!(
                with.availability_bp >= floor,
                "{f}: failover availability {} bp under floor {floor}",
                with.availability_bp
            );
            assert!(
                without.availability_bp < with.availability_bp,
                "{f}: classic client must degrade: {} vs {}",
                without.availability_bp,
                with.availability_bp
            );
            assert!(
                with.recovery_ms < without.recovery_ms,
                "{f}: failover recovery {} must beat {}",
                with.recovery_ms,
                without.recovery_ms
            );
            assert_eq!(without.failovers, 0, "{f}: classic clients cannot move");
        }
        let text = render_chaos_rows("T", &rows);
        for col in ["avail", "rcvr(ms)", "trips", "no-failover"] {
            assert!(text.contains(col), "{text}");
        }
    }

    #[test]
    fn nfs_study_shows_coalescing_saving_datagrams_and_time() {
        let rows = nfs_study();
        assert_eq!(rows.len(), 2, "coalesced + per-call");
        let find = |m: &str| rows.iter().find(|r| r.mode == m).unwrap();
        let coalesced = find("coalesced");
        let per_call = find("per-call");
        assert_eq!(
            coalesced.ops, per_call.ops,
            "both policies drive the identical workload"
        );
        assert!(
            coalesced.datagrams + coalesced.oneway_writes / 2 < per_call.datagrams,
            "packing must save most one-way datagrams: {} vs {}",
            coalesced.datagrams,
            per_call.datagrams
        );
        assert!(
            coalesced.settle_ms < per_call.settle_ms,
            "coalescing must win elapsed virtual time: {} vs {} ms",
            coalesced.settle_ms,
            per_call.settle_ms
        );
        let text = render_nfs_rows("T", &rows);
        for col in ["dg/op", "f-mtu", "amrt(us)", "per-call"] {
            assert!(text.contains(col), "{text}");
        }
    }

    #[test]
    fn measured_specialized_moves_same_bytes() {
        let n = 250;
        let g = measure_generic(n);
        let p = build_echo_proc(n, None).unwrap();
        let s = measure_specialized(&p, n);
        assert_eq!(g.request_len, s.request_len);
        assert_eq!(g.reply_len, s.reply_len);
        assert_eq!(g.client_enc.mem_moves, s.client_enc.mem_moves);
        assert_eq!(g.args_enc.mem_moves, s.args_enc.mem_moves);
    }
}

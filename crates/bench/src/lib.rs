//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! Method (see DESIGN.md): the operation counts come from **really
//! executing** our generic and specialized marshaling code on the
//! workload; the per-platform cost weights ([`Platform::costs`]) convert
//! those counts into modeled 1997 milliseconds. Absolute values are
//! modeled; the shape (who wins, by what factor, where curves bend) comes
//! from the executed code. Real wall-clock time on the host for the same
//! code paths is `benchmark/`'s to measure (and `tests/paper_ratio.rs`'s
//! for the specialized ÷ generic ratio).

#![deny(unsafe_code)]

use specrpc::echo::{
    build_echo_proc, generic_decode_reply, generic_encode_request, workload, PAPER_SIZES,
};
use specrpc::pipeline::CompiledProc;
use specrpc::{
    run_chaos_matrix, run_congestion_matrix, run_nfs, ChaosConfig, ChaosReport, CongestionConfig,
    CongestionReport, NfsConfig, NfsReport,
};
use specrpc_netsim::platform::{Platform, PlatformCosts, RoundTripSample};
use specrpc_netsim::FaultConfig;
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

/// Both paths' counts for size `n` with full unrolling.
fn measure_both(n: usize) -> (MeasuredCounts, MeasuredCounts) {
    let proc_ = build_echo_proc(n, None).expect("pipeline");
    (measure_generic(n), measure_specialized(&proc_, n))
}

impl MeasuredCounts {
    /// The four marshaling steps and the wire bytes of one round trip,
    /// as the platform cost model takes them.
    fn round_trip_sample(&self, specialized: bool) -> RoundTripSample {
        let steps = [
            self.client_enc,
            self.server_dec,
            self.server_enc,
            self.client_dec,
        ];
        RoundTripSample {
            marshals: steps.map(|counts| (counts, self.code_bytes)).to_vec(),
            wire_bytes: self.request_len + self.reply_len,
            specialized,
        }
    }
}

/// Table 1: client marshaling time per platform.
pub fn table1(platform: Platform) -> Vec<Row> {
    let costs = platform.costs();
    PAPER_SIZES
        .iter()
        .map(|&n| {
            let (g, s) = measure_both(n);
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
            let (g, s) = measure_both(n);
            Row {
                n,
                orig_ms: costs.round_trip_ns(&g.round_trip_sample(false)) / 1e6,
                spec_ms: costs.round_trip_ns(&s.round_trip_sample(true)) / 1e6,
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
            let (g, s) = measure_both(n);
            let per_mode = |m: &MeasuredCounts, specialized: bool| {
                let sm = m.round_trip_sample(specialized);
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

/// Everything `paper_tables` prints: Tables 1–4 beside the paper's
/// values, the modeled transports, the three smoke-sized virtual-time
/// studies (they really run, on the simulated wire) and the Figure 6
/// series. All of it is modeled or virtual time, so the text is the
/// same on every host and `tests/paper_tables.rs` compares it byte for
/// byte with `tests/paper_tables.golden`.
pub fn render_all() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Reproduction of Muller et al., \"Fast, Optimized Sun RPC Using\n   \
         Automatic Program Specialization\" — Tables 1-4 and Figure 6 ==\n\n\
         Op counts are measured from real executions of the generic and\n\
         specialized marshaling code; platform cost models supply the 1997\n\
         per-event weights (see DESIGN.md, substitution table).\n"
    );

    let mut fig6: Vec<(String, Vec<(usize, f64)>)> = Vec::new();
    type PaperRows = fn(Platform) -> [(f64, f64); 6];
    let mut section =
        |title: &str, table: fn(Platform) -> Vec<Row>, paper: PaperRows, fig: [&str; 2]| {
            for platform in Platform::all() {
                let rows = table(platform);
                let title = format!("{title}, {}", platform.costs().name);
                let _ = writeln!(out, "{}\n", render_rows(&title, &rows, &paper(platform)));
                let absolute = rows.iter().map(|r| (r.n, r.orig_ms)).collect();
                let speedup = rows.iter().map(|r| (r.n, r.speedup())).collect();
                fig6.push((format!("{} {}", fig[0], platform.label()), absolute));
                fig6.push((format!("{} {}", fig[1], platform.label()), speedup));
            }
        };
    section(
        "Table 1 — Client marshaling",
        table1,
        paper_table1,
        ["Fig 6-1/2 marshal", "Fig 6-5 marshal speedup"],
    );
    section(
        "Table 2 — RPC round trip",
        table2,
        paper_table2,
        ["Fig 6-3/4 round trip", "Fig 6-6 round-trip speedup"],
    );

    let _ = writeln!(out, "Table 3 — Size of the client binaries (bytes)");
    let _ = writeln!(
        out,
        "{:>6} | {:>10} {:>12} | {:>12}",
        "n", "generic", "specialized", "paper-spec"
    );
    let _ = writeln!(out, "{}", "-".repeat(50));
    for ((n, g, s), paper) in table3().iter().zip(PAPER_TABLE3_SPEC.iter()) {
        let _ = writeln!(out, "{n:>6} | {g:>10} {s:>12} | {paper:>12}");
    }
    let _ = writeln!(out, "(paper generic client code: 20004 bytes)\n");

    let _ = writeln!(
        out,
        "Table 4 — Bounded (250) vs full unrolling, PC/Linux marshaling (ms)"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>10} {:>10} {:>12} | {:>9} {:>9}",
        "n", "orig", "full", "250-chunked", "x(full)", "x(chunk)"
    );
    let _ = writeln!(out, "{}", "-".repeat(66));
    for (n, orig, full, chunked) in table4() {
        let _ = writeln!(
            out,
            "{n:>6} | {orig:>10.3} {full:>10.3} {chunked:>12.3} | {:>9.2} {:>9.2}",
            orig / full,
            orig / chunked
        );
    }
    let _ = writeln!(
        out,
        "(paper: 500: 0.29/0.11/0.108; 1000: 0.51/0.17/0.15; 2000: 0.97/0.29/0.25)\n"
    );

    for platform in Platform::all() {
        let title = format!(
            "Modeled transports — round trip (ms), {}\n\
             (UDP vs record-marked TCP vs lossy UDP: {:.0}% loss/direction,\n\
             \u{20}RTO = {:.0}x clean RTT)",
            platform.costs().name,
            MODELED_LOSS * 100.0,
            MODELED_RTO_RTT_MULTIPLE,
        );
        let _ = writeln!(
            out,
            "{}",
            render_transport_rows(&title, &transport_table(platform))
        );
    }

    let mut congestion = Vec::new();
    let mut chaos = Vec::new();
    for (label, faults) in [("clean", FaultConfig::NONE), ("lossy", FaultConfig::LOSSY)] {
        let cfg = CongestionConfig::smoke().with_faults(faults);
        let reports = run_congestion_matrix(&cfg).expect("congestion matrix");
        congestion.extend(reports.into_iter().map(|r| (label, r)));
        let cfg = ChaosConfig::smoke().with_faults(faults);
        let reports = run_chaos_matrix(&cfg).expect("chaos matrix");
        chaos.extend(reports.into_iter().map(|r| (label, r)));
    }
    let nfs = [
        ("coalesced", NfsConfig::smoke()),
        ("per-call", NfsConfig::smoke().per_call()),
    ]
    .map(|(mode, cfg)| (mode, run_nfs(&cfg).expect("nfs run")));
    let _ = writeln!(
        out,
        "{}",
        CongestionReport::render_table(
            "Retransmission-strategy study — overloaded burst on the honest\n\
             link (48 clients, drop-tail queue cap 12, rate-limited server;\n\
             deterministic virtual time, see `run_congestion`)",
            &congestion,
        )
    );
    let _ = writeln!(
        out,
        "{}",
        NfsReport::render_table(
            "Coalescing study — NFS-like mixed workload over the honest\n\
             per-packet link (8 clients, zipf handles, one-way WRITE bursts\n\
             \u{20}sealed by sync COMMITs; deterministic virtual time, see\n\
             \u{20}`run_nfs`)",
            &nfs,
        )
    );
    let _ = writeln!(
        out,
        "{}",
        ChaosReport::render_table(
            "Availability study — mid-run primary crash with one backup\n\
             (8 clients, 24 calls each; deadline 8 ms, 30 ms downtime;\n\
             \u{20}deterministic virtual time, see `run_chaos`)",
            &chaos,
        )
    );

    let _ = writeln!(out, "Figure 6 — series (x = array size)");
    for (name, series) in fig6 {
        let points: Vec<String> = series
            .iter()
            .map(|(n, v)| format!("({n}, {v:.3})"))
            .collect();
        let _ = writeln!(out, "  {name}: {}", points.join(" "));
    }
    out
}

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

//! The seven workloads and the untraced, timed round every end-to-end
//! metric comes from.
//!
//! A round is one process: set-up → fixed warm-up → timed slices of a
//! fixed op count, repeated until the round's time budget is spent. All
//! loops are closed (one outstanding synchronous call) except
//! `scale_open`, which is open-loop in virtual time. Everything runs on
//! the one driving thread.

use crate::metrics::Report;
use crate::stats::{fastest, percentile};
use specrpc::echo::{
    build_echo_proc, EchoBench, Mode, TcpEchoBench, ECHO_PORT, ECHO_PROG, ECHO_VERS,
};
use specrpc::scenario::deploy_scale_service;
use specrpc::{
    deploy_nfs_service, run_nfs, run_scale, CompiledProc, NfsConfig, ScaleConfig, SpecClient,
    SpecService,
};
use specrpc_netsim::net::{LinkStats, Network, NetworkConfig};
use specrpc_netsim::FaultConfig;
use specrpc_rpc::{ClntTcp, ClntUdp, SvcRegistry};
use specrpc_tempo::compile::StubArgs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Echo20Udp,
    Echo2000Udp,
    Echo2000Generic,
    Echo2000Tcp,
    Echo250Lossy,
    NfsMix,
    ScaleOpen,
}

pub const ALL: [Workload; 7] = [
    Workload::Echo20Udp,
    Workload::Echo2000Udp,
    Workload::Echo2000Generic,
    Workload::Echo2000Tcp,
    Workload::Echo250Lossy,
    Workload::NfsMix,
    Workload::ScaleOpen,
];

/// Calls before the first timed one on the echo workloads: fills the
/// buffer pools, the dup cache and the result slots.
pub const ECHO_WARMUP_CALLS: u64 = 5_000;

/// Every this-many-th echo call has its virtual latency sampled.
pub const SAMPLE_EVERY: u64 = 16;

/// A round measures at least this many slices however short its budget.
pub const MIN_SLICES: usize = 3;

/// The datagram mishaps `echo250_lossy` runs under.
pub const LOSSY_FAULTS: FaultConfig = FaultConfig {
    loss: 0.03,
    duplicate: 0.05,
    reorder: 0.05,
};

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo20Udp => "echo20_udp",
            Workload::Echo2000Udp => "echo2000_udp",
            Workload::Echo2000Generic => "echo2000_generic",
            Workload::Echo2000Tcp => "echo2000_tcp",
            Workload::Echo250Lossy => "echo250_lossy",
            Workload::NfsMix => "nfs_mix",
            Workload::ScaleOpen => "scale_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per timed slice. Sized for about a tenth of a second here on
    /// the echo workloads: the shorter a slice, the likelier that one of
    /// a round's slices falls wholly inside a quiet moment of the host.
    pub fn slice_ops(self) -> u64 {
        match self {
            Workload::Echo20Udp => 100_000,
            Workload::Echo2000Udp => 20_000,
            Workload::Echo2000Generic => 2_500,
            Workload::Echo2000Tcp => 7_500,
            Workload::Echo250Lossy => 75_000,
            // Op *draws* per client; a WRITE-burst draw issues nine calls.
            Workload::NfsMix => 10_000,
            // Client endpoints, one call each.
            Workload::ScaleOpen => 200_000,
        }
    }

    /// Ops of a round's first slice, the span the exact metrics are taken
    /// over: the same work for a given seed on any machine, however many
    /// more slices fit. Longer than a timed slice only where a metric is
    /// a statistic of a seeded fault stream (6% of `echo250_lossy` calls
    /// retransmit; over 600 k calls the virtual time per call repeats
    /// within 1% from seed to seed).
    pub fn exact_ops(self) -> u64 {
        match self {
            Workload::Echo250Lossy => 600_000,
            _ => self.slice_ops(),
        }
    }

    /// Array length of the echo workloads.
    pub fn echo_len(self) -> Option<usize> {
        match self {
            Workload::Echo20Udp => Some(20),
            Workload::Echo250Lossy => Some(250),
            Workload::Echo2000Udp | Workload::Echo2000Generic | Workload::Echo2000Tcp => Some(2000),
            Workload::NfsMix | Workload::ScaleOpen => None,
        }
    }
}

/// What one timed slice did. Everything but `wall_s` is a pure function
/// of (code, seed, slice index).
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub ops: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Virtual time that passed over the slice.
    pub virt_ns: u64,
    pub virt_p99_ns: u64,
    pub virt_samples: u64,
    pub link: LinkStats,
    /// Payload bytes that crossed the link (`None` where the scenario
    /// owns its network and reports no byte count).
    pub wire_bytes: Option<u64>,
}

impl Slice {
    /// The slice with its one wall-clock field blanked: what must repeat.
    fn exact(&self) -> Slice {
        Slice {
            wall_s: 0.0,
            ..self.clone()
        }
    }
}

fn link_delta(after: LinkStats, before: LinkStats) -> LinkStats {
    LinkStats {
        queue_drops: after.queue_drops - before.queue_drops,
        // A high-water mark has no delta: report the mark itself.
        queue_depth_high_water: after.queue_depth_high_water,
        datagrams: after.datagrams - before.datagrams,
        fragments: after.fragments - before.fragments,
    }
}

/// SplitMix64: the benchmark's own generator, so the echoed arrays are a
/// function of `--seed` and of nothing in the crates under test.
pub fn seeded_array(n: usize, seed: u64) -> Vec<i32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as i32
        })
        .collect()
}

/// How an echo rig's client reaches the server.
pub enum Lane {
    /// Compiled stubs over retransmitting UDP.
    Udp(Box<SpecClient<ClntUdp>>),
    /// The original layered Sun path (`round_trip(Mode::Generic)`).
    Generic(Box<EchoBench>),
    /// Compiled stubs over record-marked TCP.
    Tcp(Box<SpecClient<ClntTcp>>),
}

/// One echo deployment, ready to call: the parts the timed loop drives
/// and the parts the probe ladder reaches into.
pub struct EchoRig {
    pub net: Network,
    pub registry: Arc<SvcRegistry>,
    pub proc_: Arc<CompiledProc>,
    pub data: Vec<i32>,
    pub lane: Lane,
    args: StubArgs,
    out: StubArgs,
    /// Runs of the benchmark's own counting handler (`echo250_lossy`).
    handler_runs: Option<Arc<AtomicU64>>,
    /// Calls issued through [`EchoRig::call`] so far.
    pub calls: u64,
}

impl EchoRig {
    /// Deploy the echo workload `w` with inputs generated from `seed`.
    ///
    /// # Panics
    /// Panics if `w` is not an echo workload or deployment fails (both
    /// are bugs in the benchmark or the stack, not measured outcomes).
    pub fn deploy(w: Workload, seed: u64) -> EchoRig {
        let n = w.echo_len().expect("an echo workload");
        let data = seeded_array(n, seed);
        let (net, registry, proc_, lane, handler_runs) = match w {
            Workload::Echo20Udp | Workload::Echo2000Udp => {
                let EchoBench {
                    net,
                    spec,
                    registry,
                    ..
                } = EchoBench::new(n, None, seed).expect("deploy echo over UDP");
                let proc_ = spec.compiled().clone();
                (net, registry, proc_, Lane::Udp(Box::new(spec)), None)
            }
            Workload::Echo2000Generic => {
                let bench = EchoBench::new(n, None, seed).expect("deploy echo over UDP");
                (
                    bench.net.clone(),
                    bench.registry.clone(),
                    bench.spec.compiled().clone(),
                    Lane::Generic(Box::new(bench)),
                    None,
                )
            }
            Workload::Echo2000Tcp => {
                let TcpEchoBench {
                    net,
                    spec,
                    registry,
                    ..
                } = TcpEchoBench::new(n, None, seed).expect("deploy echo over TCP");
                let proc_ = spec.compiled().clone();
                (net, registry, proc_, Lane::Tcp(Box::new(spec)), None)
            }
            Workload::Echo250Lossy => {
                // Own deployment: the same pieces `EchoBench` assembles,
                // over a faulty link and with a handler that counts its
                // runs, so exactly-once is checked and not assumed.
                let proc_ = Arc::new(build_echo_proc(n, None).expect("specialize echo"));
                let net = Network::new(NetworkConfig::lan().with_faults(LOSSY_FAULTS), seed);
                let runs = Arc::new(AtomicU64::new(0));
                let counter = runs.clone();
                let registry = SpecService::new()
                    .proc(proc_.clone(), move |args: &StubArgs| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        StubArgs::new(vec![], vec![args.arrays[0].clone()])
                    })
                    .serve_udp(&net, ECHO_PORT);
                let clnt = ClntUdp::create_pooled(
                    &net,
                    5002,
                    ECHO_PORT,
                    ECHO_PROG,
                    ECHO_VERS,
                    registry.pool().clone(),
                );
                let spec = SpecClient::from_parts(clnt, proc_.clone());
                (net, registry, proc_, Lane::Udp(Box::new(spec)), Some(runs))
            }
            Workload::NfsMix | Workload::ScaleOpen => unreachable!("checked by echo_len"),
        };
        let args = match &lane {
            Lane::Udp(c) => c.args(vec![], vec![data.clone()]),
            Lane::Tcp(c) => c.args(vec![], vec![data.clone()]),
            Lane::Generic(_) => StubArgs::default(),
        };
        EchoRig {
            net,
            registry,
            proc_,
            data,
            lane,
            args,
            out: StubArgs::default(),
            handler_runs,
            calls: 0,
        }
    }

    /// One round trip, checked: `true` iff the call returned `Ok` and the
    /// reply is the array that was sent.
    #[inline]
    pub fn call(&mut self) -> bool {
        self.calls += 1;
        match &mut self.lane {
            Lane::Udp(c) => {
                c.call_into(&self.args, &mut self.out).is_ok()
                    && self.out.arrays.first() == Some(&self.data)
            }
            Lane::Tcp(c) => {
                c.call_into(&self.args, &mut self.out).is_ok()
                    && self.out.arrays.first() == Some(&self.data)
            }
            Lane::Generic(b) => b
                .round_trip(Mode::Generic, &self.data)
                .is_ok_and(|reply| reply == self.data),
        }
    }

    pub fn warm_up(&mut self) {
        for _ in 0..ECHO_WARMUP_CALLS {
            assert!(self.call(), "warm-up call failed");
        }
    }

    /// One timed slice of `ops` closed-loop calls.
    pub fn slice(&mut self, ops: u64) -> Slice {
        let mut samples = Vec::with_capacity((ops / SAMPLE_EVERY + 1) as usize);
        let mut failed = 0u64;
        let link0 = self.net.link_stats();
        let bytes0 = self.net.bytes_sent();
        let virt0 = self.net.now();
        let wall0 = Instant::now();
        for i in 0..ops {
            if i.is_multiple_of(SAMPLE_EVERY) {
                let before = self.net.now();
                failed += u64::from(!self.call());
                samples.push((self.net.now() - before).as_nanos());
            } else {
                failed += u64::from(!self.call());
            }
        }
        let wall_s = wall0.elapsed().as_secs_f64();
        Slice {
            ops,
            failed,
            wall_s,
            virt_ns: (self.net.now() - virt0).as_nanos(),
            virt_p99_ns: percentile(&mut samples, 0.99),
            virt_samples: samples.len() as u64,
            link: link_delta(self.net.link_stats(), link0),
            wire_bytes: Some(self.net.bytes_sent() - bytes0),
        }
    }

    /// Handler executions so far: the benchmark's own counter where it
    /// installed one, else the registry's dispatch counters (every
    /// dispatch runs the handler exactly once).
    pub fn handler_runs(&self) -> u64 {
        match &self.handler_runs {
            Some(runs) => runs.load(Ordering::Relaxed),
            None => self.registry.raw_dispatches() + self.registry.generic_dispatches(),
        }
    }

    /// Handler runs beyond (or short of) one per call issued: non-zero
    /// means the dup cache replayed wrongly or a call never executed.
    /// Only meaningful while every request went through [`EchoRig::call`].
    pub fn exactly_once_violations(&self) -> u64 {
        self.handler_runs().abs_diff(self.calls)
    }
}

pub fn nfs_config(seed: u64, ops_per_client: usize) -> NfsConfig {
    NfsConfig {
        clients: 8,
        ops_per_client,
        seed,
        ..NfsConfig::smoke()
    }
}

pub fn scale_config(seed: u64, clients: usize) -> ScaleConfig {
    ScaleConfig {
        seed,
        ..ScaleConfig::million().scaled_to(clients)
    }
}

/// One `run_nfs` pass as a slice. The scenario asserts internally that
/// every synchronous call is answered; what it leaves checkable from
/// outside is that every op settled.
pub fn nfs_slice(cfg: &NfsConfig) -> (Slice, specrpc::NfsReport) {
    let wall0 = Instant::now();
    let report = run_nfs(cfg).expect("nfs deployment");
    let wall_s = wall0.elapsed().as_secs_f64();
    let unsettled = report
        .ops
        .abs_diff(report.sync_calls + report.oneway_writes)
        + u64::from(report.coalesce.pending_submessages)
        + report.coalesce.unacked_envelopes as u64;
    let slice = Slice {
        ops: report.ops,
        failed: unsettled,
        wall_s,
        virt_ns: report.elapsed.as_nanos(),
        virt_p99_ns: report.latency.p99().as_nanos(),
        virt_samples: report.latency.count(),
        link: report.link,
        wire_bytes: None,
    };
    (slice, report)
}

/// One `run_scale` pass as a slice: a request that never got its reply
/// within the reap timeout is a failed op.
pub fn scale_slice(cfg: &ScaleConfig) -> (Slice, specrpc::ScaleReport) {
    let wall0 = Instant::now();
    let report = run_scale(cfg).expect("scale deployment");
    let wall_s = wall0.elapsed().as_secs_f64();
    let unaccounted = (report.replies + report.timeouts).abs_diff(report.clients as u64);
    let slice = Slice {
        ops: report.clients as u64,
        failed: report.timeouts + unaccounted,
        wall_s,
        virt_ns: report.elapsed.as_nanos(),
        virt_p99_ns: report.latency.p99().as_nanos(),
        virt_samples: report.latency.count(),
        link: report.link,
        wire_bytes: None,
    };
    (slice, report)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// A round's slices: the exact span first, then timed slices until
/// `seconds` have passed (and at least [`MIN_SLICES`] in all). `slice(k)`
/// runs one slice of `k` ops.
fn timed_slices(w: Workload, seconds: f64, mut slice: impl FnMut(u64) -> Slice) -> Vec<Slice> {
    let begun = Instant::now();
    let mut slices = vec![slice(w.exact_ops())];
    while slices.len() < MIN_SLICES || begun.elapsed().as_secs_f64() < seconds {
        slices.push(slice(w.slice_ops()));
    }
    slices
}

/// One untraced round of `w`: the process this runs in was started at
/// `started` and exists only for this round, so `setup_s` and
/// `peak_rss_mb` are the round's own.
pub fn run_round(w: Workload, seed: u64, seconds: f64, started: Instant) -> Report {
    let (setup_s, slices, extra_failed) = match w {
        Workload::NfsMix => {
            // Set-up users pay: compiling the five procedures, plus one
            // smoke-sized pass that faults in every code path.
            let smoke = NfsConfig::smoke();
            deploy_nfs_service(smoke.files).expect("nfs deployment");
            run_nfs(&NfsConfig { seed, ..smoke }).expect("nfs smoke pass");
            let setup_s = started.elapsed().as_secs_f64();
            let cfg = nfs_config(seed, w.slice_ops() as usize);
            (setup_s, timed_slices(w, seconds, |_| nfs_slice(&cfg).0), 0)
        }
        Workload::ScaleOpen => {
            let smoke = ScaleConfig {
                seed,
                ..ScaleConfig::smoke()
            };
            let cfg = scale_config(seed, w.slice_ops() as usize);
            // The six-shape compile is deliberately *also* inside every
            // slice (run_scale deploys per run); here it is set-up.
            deploy_scale_service(&cfg).expect("scale deployment");
            run_scale(&smoke).expect("scale smoke pass");
            let setup_s = started.elapsed().as_secs_f64();
            (
                setup_s,
                timed_slices(w, seconds, |_| scale_slice(&cfg).0),
                0,
            )
        }
        _ => {
            let mut rig = EchoRig::deploy(w, seed);
            rig.warm_up();
            let setup_s = started.elapsed().as_secs_f64();
            let slices = timed_slices(w, seconds, |ops| rig.slice(ops));
            (setup_s, slices, rig.exactly_once_violations())
        }
    };

    // nfs_mix and scale_open slices are fresh runs of one config: any
    // difference between them is nondeterminism in the stack.
    let repeats = matches!(w, Workload::NfsMix | Workload::ScaleOpen);
    let diverged = repeats && slices.iter().any(|s| s.exact() != slices[0].exact());

    let mut report = Report {
        workload: w.name().to_string(),
        seed,
        traced: false,
        attempted: slices.iter().map(|s| s.ops).sum(),
        failed: slices.iter().map(|s| s.failed).sum::<u64>() + extra_failed + u64::from(diverged),
        metrics: Vec::new(),
        rounds: Vec::new(),
    };
    // Verified-complete ops per second of wall time, slice by slice.
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| (s.ops - s.failed) as f64 / s.wall_s)
        .collect();
    report.push("calls_per_s", fastest(&rates));
    push_virtual_time(&mut report, &slices[0]);
    push_link_counts(&mut report, &slices[0]);
    report.push("setup_s", setup_s);
    report.push("peak_rss_mb", peak_rss_mb());
    report
}

/// The end-to-end metrics that are pure functions of (code, seed), taken
/// over a round's first slice ([`Workload::exact_ops`]): later slices of
/// the echo workloads continue one fault stream, and how many of them fit
/// in a round depends on the machine.
pub fn push_virtual_time(report: &mut Report, first: &Slice) {
    let ops = first.ops as f64;
    report.push("virt_us_per_call", first.virt_ns as f64 / 1e3 / ops);
    report.push("virt_p99_us", first.virt_p99_ns as f64 / 1e3);
}

/// The same slice's link counters: free to read, so untraced rounds
/// report them too and the parent checks that they repeat.
pub fn push_link_counts(report: &mut Report, first: &Slice) {
    let ops = first.ops as f64;
    report.push("core.virt_p99_samples", first.virt_samples as f64);
    report.push(
        "netsim.datagrams_per_call",
        first.link.datagrams as f64 / ops,
    );
    report.push(
        "netsim.fragments_per_call",
        first.link.fragments as f64 / ops,
    );
    if let Some(bytes) = first.wire_bytes {
        report.push("netsim.wire_bytes_per_call", bytes as f64 / ops);
    }
    report.push("netsim.queue_drops", first.link.queue_drops as f64);
    report.push(
        "netsim.queue_depth_high_water",
        first.link.queue_depth_high_water as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("echo20"), None);
    }

    #[test]
    fn seeded_arrays_depend_on_the_seed_only() {
        assert_eq!(seeded_array(64, 42), seeded_array(64, 42));
        assert_ne!(seeded_array(64, 42), seeded_array(64, 7));
        assert_eq!(seeded_array(20, 1).len(), 20);
    }

    #[test]
    fn every_echo_rig_answers_with_the_sent_array() {
        for w in ALL.into_iter().filter(|w| w.echo_len().is_some()) {
            let mut rig = EchoRig::deploy(w, 7);
            let s = rig.slice(64);
            assert_eq!((s.ops, s.failed), (64, 0), "{}", w.name());
            assert_eq!(s.virt_samples, 4);
            assert!(s.virt_ns > 0 && s.wire_bytes.unwrap() > 0);
            assert_eq!(rig.exactly_once_violations(), 0, "{}", w.name());
        }
    }

    #[test]
    fn a_wrong_reply_counts_as_failed() {
        let mut rig = EchoRig::deploy(Workload::Echo20Udp, 7);
        rig.data[3] ^= 1; // what comes back no longer matches
        assert_eq!(rig.slice(5).failed, 5);
    }
}

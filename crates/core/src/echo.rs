//! The paper's benchmark workload (§5 "The test program"): a remote
//! procedure exchanging integer arrays, "representative of applications
//! that use a network of workstations as large scale multiprocessors".
//!
//! This module packages everything the benchmarks and examples need:
//! the IDL, per-size specialized stub sets (the paper builds one
//! specialized binary per array size — Table 3), generic and specialized
//! marshal-only entry points (Table 1 / Figure 6-1/2/5), and full
//! round-trip drivers over the simulated network (Table 2 /
//! Figure 6-3/4/6) for both transports (UDP datagrams and record-marked
//! TCP).

use crate::cache::StubCache;
use crate::client::SpecClient;
use crate::pipeline::{CompiledProc, PipelineError, ProcPipeline};
use crate::service::SpecService;
use specrpc_netsim::net::{Addr, Network, NetworkConfig};
use specrpc_netsim::platform::{Platform, PlatformCosts};
use specrpc_netsim::SimTime;
use specrpc_rpc::error::RpcError;
use specrpc_rpc::msg::CallHeader;
use specrpc_rpc::svc::SvcRegistry;
use specrpc_rpc::{ClntTcp, ClntUdp};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::{OpCounts, XdrResult, XdrStream};
use std::sync::Arc;

/// Program number of the echo service.
pub const ECHO_PROG: u32 = 0x2000_0101;
/// Version number.
pub const ECHO_VERS: u32 = 1;
/// Procedure number of `ECHO`.
pub const ECHO_PROC: u32 = 1;
/// Server port in simulations (UDP).
pub const ECHO_PORT: Addr = 2060;
/// Server port for the TCP deployment.
pub const ECHO_TCP_PORT: Addr = 2061;
/// Maximum array size (the paper's largest measured point).
pub const MAX_ARR: usize = 100_000;

/// The interface definition (what the paper feeds `rpcgen`).
pub const ECHO_IDL: &str = r#"
    const MAXARR = 100000;

    struct int_arr {
        int arr<MAXARR>;
    };

    program ARRAYPROG {
        version ARRAYVERS {
            int_arr ECHO(int_arr) = 1;
        } = 1;
    } = 0x20000101;
"#;

/// The array sizes of the paper's tables.
pub const PAPER_SIZES: [usize; 6] = [20, 100, 250, 500, 1000, 2000];

/// Power-of-two unroll bounds swept by the knee detector in
/// `examples/specialization_report.rs` and by the generated-stub tests.
pub const UNROLL_SWEEP: [usize; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// The sweep bounds applicable to arrays of `n` integers: a bound only
/// re-rolls element runs of at least `2 × bound` ops, so bounds above
/// `n / 2` compile to the full unroll and are excluded.
pub fn unroll_bounds(n: usize) -> impl Iterator<Item = usize> {
    UNROLL_SWEEP.into_iter().filter(move |&c| 2 * c <= n)
}

/// The echo specialization pipeline for arrays of `n` integers
/// (optionally with Table 4's bounded unrolling).
pub fn echo_pipeline(n: usize, chunk: Option<usize>) -> ProcPipeline {
    let mut p = ProcPipeline::new(n);
    p.chunk = chunk;
    p
}

/// Build the specialized stub set for arrays of `n` integers.
pub fn build_echo_proc(n: usize, chunk: Option<usize>) -> Result<CompiledProc, PipelineError> {
    echo_pipeline(n, chunk).build_from_idl(ECHO_IDL, None, ECHO_PROC)
}

/// Generic client-side request marshaling (the original Sun path):
/// call header + counted array, all through the layered micro-routines.
/// Returns the number of bytes produced; counts accumulate in the stream.
pub fn generic_encode_request(enc: &mut XdrMem, xid: u32, data: &mut Vec<i32>) -> XdrResult<usize> {
    enc.reset_encode();
    let mut msg = CallHeader::new(xid, ECHO_PROG, ECHO_VERS, ECHO_PROC);
    CallHeader::xdr(enc, &mut msg)?;
    xdr_array(enc, data, MAX_ARR, xdr_int)?;
    Ok(enc.getpos())
}

/// Generic client-side reply unmarshaling.
pub fn generic_decode_reply(reply: &[u8], out: &mut Vec<i32>) -> Result<OpCounts, RpcError> {
    let mut dec = XdrMem::decoder(reply);
    let hdr = specrpc_rpc::msg::ReplyHeader::decode(&mut dec)?;
    if let Some(e) = hdr.to_error() {
        return Err(e);
    }
    xdr_array(&mut dec, out, MAX_ARR, xdr_int)?;
    Ok(*dec.counts())
}

/// Marshaling mode under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The original layered Sun path.
    Generic,
    /// Tempo-specialized compiled stubs.
    Specialized,
}

/// The echo service routine, which like the paper's C one returns its
/// argument: the decoded array changes places with the (empty) result
/// slot, so nothing is copied and both keep their capacity.
pub fn echo_handler(args: &mut StubArgs, results: &mut StubArgs) {
    std::mem::swap(&mut args.arrays[0], &mut results.arrays[0]);
}

/// The echo [`SpecService`] (one procedure; fast + generic paths).
pub fn echo_service(proc_: Arc<CompiledProc>) -> SpecService {
    SpecService::new().proc_in_place(proc_, echo_handler)
}

/// Install the echo service on a network over UDP.
pub fn serve_echo(net: &Network, proc_: Arc<CompiledProc>) -> Arc<SvcRegistry> {
    echo_service(proc_).serve_udp(net, ECHO_PORT)
}

/// A ready-to-measure echo deployment on the simulated network (UDP).
pub struct EchoBench {
    /// The network (virtual time observable via `net.now()`).
    pub net: Network,
    /// Specialized client.
    pub spec: SpecClient<ClntUdp>,
    /// Generic client.
    pub generic: ClntUdp,
    /// The shared service registry (path counters).
    pub registry: Arc<SvcRegistry>,
    /// Array size this deployment is specialized for.
    pub n: usize,
    /// Optional CPU cost model: when set, client marshaling work advances
    /// virtual time according to the platform weights (otherwise only
    /// wire and server time are simulated).
    costs: Option<PlatformCosts>,
}

impl EchoBench {
    /// Deploy client + server for arrays of `n` integers.
    pub fn new(n: usize, chunk: Option<usize>, seed: u64) -> Result<EchoBench, PipelineError> {
        Self::deploy(Arc::new(build_echo_proc(n, chunk)?), n, seed)
    }

    /// Deploy like [`EchoBench::new`], resolving stubs through a shared
    /// [`StubCache`] (a second deployment for the same `(n, chunk)` skips
    /// the Tempo run).
    pub fn new_cached(
        n: usize,
        chunk: Option<usize>,
        seed: u64,
        cache: &StubCache,
    ) -> Result<EchoBench, PipelineError> {
        let proc_ =
            cache.get_or_compile_idl(&echo_pipeline(n, chunk), ECHO_IDL, None, ECHO_PROC)?;
        Self::deploy(proc_, n, seed)
    }

    fn deploy(proc_: Arc<CompiledProc>, n: usize, seed: u64) -> Result<EchoBench, PipelineError> {
        let net = Network::new(NetworkConfig::lan(), seed);
        let registry = serve_echo(&net, proc_.clone());
        let generic = ClntUdp::create(&net, 5001, ECHO_PORT, ECHO_PROG, ECHO_VERS);
        // The specialized client shares the registry's wire-buffer pool,
        // so what an irregular call takes from it on one side the other
        // side puts back (the cycle is described in `specrpc_rpc::bufpool`).
        let clnt = ClntUdp::create_pooled(
            &net,
            5002,
            ECHO_PORT,
            ECHO_PROG,
            ECHO_VERS,
            registry.pool().clone(),
        );
        let spec = SpecClient::from_parts(clnt, proc_);
        Ok(EchoBench {
            net,
            spec,
            generic,
            registry,
            n,
            costs: None,
        })
    }

    /// Model client CPU time on the given 1997 platform: marshaling op
    /// counts advance the virtual clock.
    pub fn model_cpu(&mut self, platform: Platform) {
        self.costs = Some(platform.costs());
    }

    fn advance_for(&self, before: OpCounts, after: OpCounts) {
        let Some(c) = self.costs else { return };
        let d = after.since(before);
        let ns = c.marshal_ns(&d, 0) - c.marshal_fixed_ns;
        self.net.advance(SimTime::from_nanos(ns.max(0.0) as u64));
    }

    /// One round trip in the given mode; returns the echoed data.
    pub fn round_trip(&mut self, mode: Mode, data: &[i32]) -> Result<Vec<i32>, RpcError> {
        match mode {
            Mode::Specialized => {
                let before = self.spec.counts;
                let args = self.spec.args(vec![], vec![data.to_vec()]);
                let (out, _) = self.spec.call(&args)?;
                let after = self.spec.counts;
                self.advance_for(before, after);
                Ok(out.arrays.into_iter().next().unwrap_or_default())
            }
            Mode::Generic => {
                let before = self.generic.counts;
                let mut out: Vec<i32> = Vec::new();
                let mut input = data.to_vec();
                self.generic.call(
                    ECHO_PROC,
                    &mut |x| xdr_array(x, &mut input, MAX_ARR, xdr_int),
                    &mut |x| xdr_array(x, &mut out, MAX_ARR, xdr_int),
                )?;
                let after = self.generic.counts;
                self.advance_for(before, after);
                Ok(out)
            }
        }
    }

    /// Mean virtual-time per round trip over `iters` calls.
    pub fn timed_round_trips(
        &mut self,
        mode: Mode,
        data: &[i32],
        iters: usize,
    ) -> Result<SimTime, RpcError> {
        let start = self.net.now();
        for _ in 0..iters {
            let out = self.round_trip(mode, data)?;
            debug_assert_eq!(out.len(), data.len());
        }
        let total = self.net.now() - start;
        Ok(SimTime::from_nanos(total.as_nanos() / iters as u64))
    }
}

/// The echo deployment over record-marked TCP: same service registry,
/// same stubs, stream transport (the ROADMAP's TCP scenario).
pub struct TcpEchoBench {
    /// The network.
    pub net: Network,
    /// Specialized client over the stream transport.
    pub spec: SpecClient<ClntTcp>,
    /// Generic client.
    pub generic: ClntTcp,
    /// The shared service registry (path counters).
    pub registry: Arc<SvcRegistry>,
    /// Array size this deployment is specialized for.
    pub n: usize,
}

impl TcpEchoBench {
    /// Deploy client + server for arrays of `n` integers over TCP.
    pub fn new(n: usize, chunk: Option<usize>, seed: u64) -> Result<TcpEchoBench, PipelineError> {
        let proc_ = Arc::new(build_echo_proc(n, chunk)?);
        let net = Network::new(NetworkConfig::lan(), seed);
        let registry = echo_service(proc_.clone()).serve_tcp(&net, ECHO_TCP_PORT);
        let generic = ClntTcp::create(&net, ECHO_TCP_PORT, ECHO_PROG, ECHO_VERS)
            .map_err(|e| PipelineError::Deploy(e.to_string()))?;
        let clnt = ClntTcp::create_pooled(
            &net,
            ECHO_TCP_PORT,
            ECHO_PROG,
            ECHO_VERS,
            registry.pool().clone(),
        )
        .map_err(|e| PipelineError::Deploy(e.to_string()))?;
        let spec = SpecClient::from_parts(clnt, proc_);
        Ok(TcpEchoBench {
            net,
            spec,
            generic,
            registry,
            n,
        })
    }

    /// One round trip in the given mode; returns the echoed data.
    pub fn round_trip(&mut self, mode: Mode, data: &[i32]) -> Result<Vec<i32>, RpcError> {
        match mode {
            Mode::Specialized => {
                let args = self.spec.args(vec![], vec![data.to_vec()]);
                let (out, _) = self.spec.call(&args)?;
                Ok(out.arrays.into_iter().next().unwrap_or_default())
            }
            Mode::Generic => {
                let mut out: Vec<i32> = Vec::new();
                let mut input = data.to_vec();
                self.generic.call(
                    ECHO_PROC,
                    &mut |x| xdr_array(x, &mut input, MAX_ARR, xdr_int),
                    &mut |x| xdr_array(x, &mut out, MAX_ARR, xdr_int),
                )?;
                Ok(out)
            }
        }
    }
}

/// The echo deployment on the event-driven serving core, driven through
/// batched pipelined calls — what `benchmark/`'s `rpc.reactor_threaded`
/// probe measures. The reactor worker(s) race the driving thread for each
/// delivery, and the simulator holds one at a time, so what a worker adds
/// is a cross-thread hand-off, not parallelism; argument and result slots
/// are prebuilt and reused, keeping the steady-state batch on the
/// allocation-free lane.
pub struct BatchEchoBench {
    /// The network.
    pub net: Network,
    /// Specialized client (pool shared with the serving side).
    pub spec: SpecClient<ClntUdp>,
    /// The deployment: its registry and its reactor's counters.
    pub service: specrpc_rpc::Served,
    /// Array size this deployment is specialized for.
    pub n: usize,
    /// Calls per batch.
    pub batch: usize,
    args: Vec<StubArgs>,
    outs: Vec<StubArgs>,
    expect: Vec<i32>,
}

impl BatchEchoBench {
    /// Deploy client + event-served echo for arrays of `n` integers,
    /// issuing `batch` pipelined calls per [`BatchEchoBench::round_trips`]
    /// on a reactor of `workers` threads.
    pub fn new(
        n: usize,
        batch: usize,
        workers: usize,
        seed: u64,
    ) -> Result<BatchEchoBench, PipelineError> {
        let proc_ = Arc::new(build_echo_proc(n, None)?);
        let net = Network::new(NetworkConfig::lan(), seed);
        // Size the shared pool to the batch: `batch` request datagrams,
        // their replies, and the dup-cache's stored images are all in
        // flight at once — the default cap would overflow (dropping
        // buffers that come back later as allocating misses).
        let pool = Arc::new(specrpc_rpc::BufPool::with_max_slots(3 * batch + 16));
        let mut registry = specrpc_rpc::SvcRegistry::with_pool(pool);
        echo_service(proc_.clone()).install(&mut registry);
        let registry = Arc::new(registry);
        let cfg = specrpc_rpc::ServeConfig {
            workers_per_shard: workers,
            ..specrpc_rpc::ServeConfig::new(&[ECHO_PORT])
        };
        let service = specrpc_rpc::serve(&net, registry, cfg);
        let clnt = ClntUdp::create_pooled(
            &net,
            5002,
            ECHO_PORT,
            ECHO_PROG,
            ECHO_VERS,
            service.registry().pool().clone(),
        );
        let spec = SpecClient::from_parts(clnt, proc_);
        let expect = workload(n);
        let args = (0..batch)
            .map(|_| spec.args(vec![], vec![expect.clone()]))
            .collect();
        let outs = (0..batch).map(|_| StubArgs::default()).collect();
        Ok(BatchEchoBench {
            net,
            spec,
            service,
            n,
            batch,
            args,
            outs,
            expect,
        })
    }

    /// One batch of pipelined round trips (the prebuilt arguments, the
    /// reused result slots). Returns the batch size so callers can
    /// amortize measured time per call.
    pub fn round_trips(&mut self) -> Result<usize, RpcError> {
        let paths = self.spec.call_batch_into(&self.args, &mut self.outs)?;
        debug_assert!(paths.iter().all(|p| *p == crate::client::PathUsed::Fast));
        debug_assert!(self.outs.iter().all(|o| o.arrays[0] == self.expect));
        Ok(self.batch)
    }
}

/// Deterministic workload data for size `n` (the paper's arrays of
/// 4-byte integers).
pub fn workload(n: usize) -> Vec<i32> {
    (0..n)
        .map(|i| (i as i32).wrapping_mul(2_654_435_761u32 as i32) ^ 0x5a5a)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_tempo::compile::run_encode;

    #[test]
    fn generic_and_specialized_wire_images_match() {
        let n = 64;
        let proc_ = build_echo_proc(n, None).unwrap();
        let mut data = workload(n);

        let mut enc = XdrMem::encoder(1 << 16);
        let len = generic_encode_request(&mut enc, 0xfeed_beef, &mut data).unwrap();

        let args = StubArgs::new(vec![0xfeed_beefu32 as i32], vec![data.clone()]);
        let mut buf = vec![0u8; proc_.client_encode.wire_len];
        let mut counts = OpCounts::new();
        run_encode(&proc_.client_encode.program, &mut buf, &args, &mut counts).unwrap();

        assert_eq!(len, buf.len());
        assert_eq!(&enc.bytes()[..len], buf.as_slice());
    }

    #[test]
    fn round_trip_both_modes() {
        let mut bench = EchoBench::new(50, None, 3).unwrap();
        let data = workload(50);
        let g = bench.round_trip(Mode::Generic, &data).unwrap();
        assert_eq!(g, data);
        let s = bench.round_trip(Mode::Specialized, &data).unwrap();
        assert_eq!(s, data);
        assert_eq!(bench.spec.fast_calls, 1);
        // Both requests hit the server's raw fast path: the generic
        // client's wire image matches the specialized context too, so
        // server-side specialization also benefits generic clients.
        assert_eq!(bench.registry.raw_dispatches(), 2);
    }

    #[test]
    fn tcp_round_trip_both_modes() {
        let mut bench = TcpEchoBench::new(50, None, 3).unwrap();
        let data = workload(50);
        let g = bench.round_trip(Mode::Generic, &data).unwrap();
        assert_eq!(g, data);
        let s = bench.round_trip(Mode::Specialized, &data).unwrap();
        assert_eq!(s, data);
        assert_eq!(bench.spec.fast_calls, 1);
        assert_eq!(bench.registry.raw_dispatches(), 2);
    }

    #[test]
    fn cached_deployments_share_one_compile() {
        let cache = StubCache::new();
        let _a = EchoBench::new_cached(30, None, 1, &cache).unwrap();
        let _b = EchoBench::new_cached(30, None, 2, &cache).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn specialized_marshal_does_less_interpretive_work() {
        let n = 500;
        let proc_ = build_echo_proc(n, None).unwrap();
        let mut data = workload(n);

        let mut enc = XdrMem::encoder(1 << 16);
        generic_encode_request(&mut enc, 1, &mut data).unwrap();
        let g = *enc.counts();

        let args = StubArgs::new(vec![1], vec![data.clone()]);
        let mut buf = vec![0u8; proc_.client_encode.wire_len];
        let mut s = OpCounts::new();
        run_encode(&proc_.client_encode.program, &mut buf, &args, &mut s).unwrap();

        // Same bytes moved...
        assert_eq!(
            g.mem_moves, s.mem_moves,
            "g={} s={}",
            g.mem_moves, s.mem_moves
        );
        // ...but the interpretive events are gone.
        assert_eq!(s.dispatches, 0);
        assert_eq!(s.overflow_checks, 0);
        assert!(g.dispatches >= n as u64);
        assert!(g.overflow_checks >= n as u64);
        // The residual executes about one op per wire word.
        let words = (proc_.client_encode.wire_len / 4) as u64;
        assert!(
            s.stub_ops <= words + 2,
            "stub_ops={} words={words}",
            s.stub_ops
        );
    }

    #[test]
    fn virtual_time_round_trip_faster_specialized() {
        let mut bench = EchoBench::new(200, None, 11).unwrap();
        let data = workload(200);
        let tg = bench.timed_round_trips(Mode::Generic, &data, 5).unwrap();
        let ts = bench
            .timed_round_trips(Mode::Specialized, &data, 5)
            .unwrap();
        // With the default (cost-agnostic) server time model the two are
        // close; specialized must at least not be slower in virtual time.
        assert!(ts <= tg, "spec {ts} vs generic {tg}");
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(10), workload(10));
        assert_eq!(workload(3).len(), 3);
    }

    #[test]
    fn batch_bench_round_trips_and_counts() {
        let mut bench = BatchEchoBench::new(16, 4, 1, 3).unwrap();
        for _ in 0..3 {
            assert_eq!(bench.round_trips().unwrap(), 4);
        }
        assert_eq!(bench.service.total_events(), 12);
        assert_eq!(bench.spec.fast_calls, 12);
        assert_eq!(bench.spec.calls, 12);
    }
}

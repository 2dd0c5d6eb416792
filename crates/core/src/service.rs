//! The specialized server facade: a service hosting many procedures.
//!
//! [`SpecService`] collects `(compiled stubs, handler)` pairs and installs
//! each as *both* a raw fast-path handler (compiled decode → user function
//! → compiled encode) and a generic handler on one [`SvcRegistry`], so
//! dispatch happens by procedure number and every procedure keeps the
//! §6.2 guard fallback. The same registry serves over UDP or TCP — the
//! transport adapters are below the dispatch layer.
//!
//! # Threading model
//!
//! The whole serving stack is `Send + Sync`: the registry is filled
//! before it is shared and then read without a lock, each procedure's
//! reused scratch slots sit behind a `Mutex` of their own (a dispatch
//! that finds them taken works on fresh ones), and the network is
//! shareable across threads, so one installed service can be driven (and
//! dispatched) from any number of threads.
//!
//! # Deploying
//!
//! [`SpecService::serve_udp`] and [`SpecService::serve_tcp`] serve one
//! address with the defaults. Any other datagram deployment — several
//! addresses, shards, reactor workers, another cache size — is a
//! [`ServeConfig`] value given to the one serving core:
//! `specrpc_rpc::serve(&net, service.into_registry(), cfg)`, whose
//! [`Served`](specrpc_rpc::Served) handle holds the registry and the
//! per-shard and per-worker event counts.

use crate::generic::xdr_shape;
use crate::invariants::Invariants;
use crate::pipeline::CompiledProc;
use specrpc_netsim::net::{Addr, Network};
use specrpc_rpc::bufpool::BufPool;
use specrpc_rpc::error::RpcError;
use specrpc_rpc::msg::{AcceptStat, ReplyHeader};
use specrpc_rpc::svc::{take_offer, SvcRegistry, REPLY_BUF_SIZE};
use specrpc_rpc::{serve, serve_tcp, ServeConfig};
use specrpc_rpcgen::sunlib::call_fields;
use specrpc_tempo::compile::{run_decode, run_encode_after_xid, Outcome, StubArgs};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::OpCounts;
use std::sync::{Arc, Mutex, TryLockError};

/// A user service function, working in place: `handler(args, results)`.
/// `Arc` with `Send + Sync` because one handler backs both the fast and
/// the generic path and may run on any dispatch thread.
///
/// * `args` holds the decoded arguments behind the call header's
///   scalars, so a procedure's own scalars are the *last* ones; the xid
///   is in slot [`call_fields::XID`] on either lane. The handler may take
///   from it — swap an array out, drain it: the slots are
///   re-[`StubArgs::prepare`]d before the next decode.
/// * `results` arrives shaped for the reply stub: no scalars, and one
///   empty array per array slot of the reply. The handler pushes its
///   scalars and fills (or swaps in) its arrays; the dispatch stamps
///   the xid.
/// * Both are one per-procedure pair reused from call to call, so the
///   arrays keep their capacity and a steady dispatch allocates nothing.
///   A dispatch that finds the pair in use (another thread mid-dispatch
///   on the same procedure) works on a fresh pair, so a handler must not
///   count on finding anything in either.
///
/// [`SpecService::proc`] wraps a returning closure in this form.
pub type SpecHandler = Arc<dyn Fn(&mut StubArgs, &mut StubArgs) + Send + Sync>;

/// A specialized RPC service: multiple procedures, each dispatched by
/// `(program, version, procedure)` number with a compiled fast path and a
/// generic fallback.
#[derive(Default)]
pub struct SpecService {
    procs: Vec<(Arc<CompiledProc>, SpecHandler)>,
    /// Where [`SpecService::observed`] reports executions, and as whom.
    observer: Option<(Arc<Invariants>, Addr)>,
}

impl SpecService {
    /// An empty service.
    pub fn new() -> Self {
        SpecService::default()
    }

    /// Fluently add a procedure: `proc_`'s target numbers route to
    /// `handler`, which works in place on the dispatch's reused slots
    /// (the contract is [`SpecHandler`]'s).
    pub fn proc_in_place(
        mut self,
        proc_: Arc<CompiledProc>,
        handler: impl Fn(&mut StubArgs, &mut StubArgs) + Send + Sync + 'static,
    ) -> Self {
        self.procs.push((proc_, Arc::new(handler)));
        self
    }

    /// [`SpecService::proc_in_place`] for a handler that returns its
    /// results: the convenience form. It costs what building that
    /// `StubArgs` costs — two allocations per call for an echo that
    /// clones its argument, plus dropping the slots it replaces — which
    /// the `proc_returning` rows of `tests/cost_vector.rs` pin.
    pub fn proc(
        self,
        proc_: Arc<CompiledProc>,
        handler: impl Fn(&StubArgs) -> StubArgs + Send + Sync + 'static,
    ) -> Self {
        self.proc_in_place(proc_, move |args, results| *results = handler(args))
    }

    /// Report every handler execution of this service to `invariants`
    /// as `server`'s (by convention the address it serves): each handler
    /// is wrapped when the service is installed. A service that is not
    /// observed installs its handlers as they are.
    pub fn observed(mut self, invariants: &Arc<Invariants>, server: Addr) -> Self {
        self.observer = Some((invariants.clone(), server));
        self
    }

    /// Number of procedures hosted.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the service hosts no procedures.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Install every procedure on `registry`, fast path + generic
    /// fallback each, before the registry is shared.
    pub fn install(self, registry: &mut SvcRegistry) {
        for (proc_, handler) in self.procs {
            let handler = match &self.observer {
                Some((invariants, server)) => invariants.watch(*server, proc_.target.2, handler),
                None => handler,
            };
            install_one(registry, proc_, handler);
        }
    }

    /// Install into a fresh shared registry.
    pub fn into_registry(self) -> Arc<SvcRegistry> {
        let mut reg = SvcRegistry::new();
        self.install(&mut reg);
        Arc::new(reg)
    }

    /// Install into a fresh registry and serve it over UDP at `addr`,
    /// every delivery dispatched in place by the thread driving the
    /// network. The deployment stays with the network.
    pub fn serve_udp(self, net: &Network, addr: Addr) -> Arc<SvcRegistry> {
        serve(net, self.into_registry(), ServeConfig::new(&[addr])).detach()
    }

    /// Install into a fresh registry and serve it over TCP at `addr`.
    pub fn serve_tcp(self, net: &Network, addr: Addr) -> Arc<SvcRegistry> {
        let reg = self.into_registry();
        serve_tcp(net, addr, reg.clone());
        reg
    }
}

/// One dispatch's slots: the decoded arguments and the results.
type Slots = (StubArgs, StubArgs);

/// Shape the result slots as [`SpecHandler`] promises and run the handler.
fn run_handler(p: &CompiledProc, h: &SpecHandler, args: &mut StubArgs, results: &mut StubArgs) {
    results.prepare(0, p.server_encode.layout.array_count as usize);
    h(args, results);
}

/// The compiled fast-path dispatch body: compiled decode into reused
/// scratch slots → user handler → compiled encode in one pass straight
/// into the offered buffer, or a pooled one when the offer does not fit
/// the reply (single-copy encode). `None` sends the request to the
/// generic dispatch (§6.2 guard fallback), so it is only returned before
/// the handler runs.
fn raw_dispatch(
    p: &CompiledProc,
    scratch: &Mutex<Slots>,
    h: &SpecHandler,
    request: &[u8],
    offer: &mut Option<Vec<u8>>,
    pool: &BufPool,
) -> Option<Vec<u8>> {
    let dec = &p.server_decode;
    let mut counts = OpCounts::new();
    // Per-procedure scratch when uncontended (the steady, allocation-free
    // state); a fresh pair when another worker is mid-dispatch on the
    // same procedure. A handler that panicked holding the scratch left
    // nothing in it that matters: both slots are re-prepared before use.
    let mut fresh = Slots::default();
    let mut guard = match scratch.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    };
    let (args, results) = guard.as_deref_mut().unwrap_or(&mut fresh);
    args.prepare(
        dec.layout.scalar_count as usize,
        dec.layout.array_count as usize,
    );
    match run_decode(&dec.program, request, args, request.len(), &mut counts) {
        Ok(Outcome::Done { ret: 1, .. }) => {}
        _ => return None, // guard failed → generic path
    }
    let xid = args.scalars[call_fields::XID];
    run_handler(p, h, args, results);
    let enc = &p.server_encode;
    // An offered buffer is rewound, not cleared: a compiled encode stores
    // every byte of its image, so only bytes the buffer did not hold
    // before are zero-filled.
    let mut reply = take_offer(offer, enc.wire_len).unwrap_or_else(|| pool.take(enc.wire_len));
    reply.resize(enc.wire_len, 0);
    // Reply stub scalar slot 0 is the xid; the handler's result scalars
    // are read one slot down, where it left them.
    match run_encode_after_xid(&enc.program, &mut reply, results, xid, &mut counts) {
        Ok(Outcome::Done { ret: 1, .. }) => Some(reply),
        _ => {
            // Reply-shape guard failed: the handler produced
            // results outside the pinned context. Degrade to the
            // generic encoder with the results we already have —
            // returning None would re-dispatch generically and
            // run the (possibly side-effecting) handler twice.
            pool.put(reply);
            let mut gx = XdrMem::encoder_over(pool.take(REPLY_BUF_SIZE), REPLY_BUF_SIZE);
            ReplyHeader::encode_success(&mut gx, xid as u32).expect("a reply header fits");
            if xdr_shape(&mut gx, &p.res_shape, 0, results).is_err() {
                // Nor can the generic encoder carry them (an array past
                // its IDL bound): the generic lane's answer, SYSTEM_ERR.
                gx = XdrMem::encoder_over(gx.into_bytes(), REPLY_BUF_SIZE);
                ReplyHeader::encode_accept_failure(
                    &mut gx,
                    xid as u32,
                    AcceptStat::SystemErr,
                    None,
                )
                .expect("a failure reply fits");
            }
            Some(gx.into_bytes())
        }
    }
}

/// Install one procedure's fast and generic handlers on the registry.
fn install_one(registry: &mut SvcRegistry, proc_: Arc<CompiledProc>, handler: SpecHandler) {
    let (prog, vers, pnum) = proc_.target;

    let p = proc_.clone();
    let h = handler.clone();
    let scratch: Mutex<Slots> = Mutex::default();
    registry.register_raw(prog, vers, pnum, move |request, offer, pool| {
        raw_dispatch(&p, &scratch, &h, request, offer, pool)
    });

    // Generic path (also serves guard fallbacks).
    let p = proc_;
    let h = handler;
    registry.register(prog, vers, pnum, move |call, args_x, results_x| {
        let dec = &p.server_decode;
        let (mut args, mut results) = Slots::default();
        args.prepare(
            dec.layout.scalar_count as usize,
            dec.layout.array_count as usize,
        );
        xdr_shape(args_x, &p.arg_shape, call_fields::COUNT as u16, &mut args)
            .map_err(RpcError::from)?;
        args.scalars[call_fields::XID] = call.xid as i32;
        run_handler(&p, &h, &mut args, &mut results);
        // Generic results have no xid scratch; encode from slot 0. Results
        // no encoder carries are the server's failure, not the caller's.
        xdr_shape(results_x, &p.res_shape, 0, &mut results).map_err(|_| RpcError::SystemErr)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{PathUsed, SpecClient};
    use crate::echo::echo_service;
    use crate::pipeline::ProcPipeline;
    use crate::Invariants;
    use specrpc_netsim::net::NetworkConfig;
    use specrpc_rpc::{ClntUdp, Served};

    const IDL: &str = r#"
        const MAXARR = 2000;
        struct int_arr { int arr<MAXARR>; };
        program ARRAYPROG {
            version ARRAYVERS {
                int_arr ECHO(int_arr) = 1;
                int SUM(int_arr) = 2;
            } = 1;
        } = 0x20000101;
    "#;

    #[test]
    fn serving_stack_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpecService>();
        assert_send_sync::<SvcRegistry>();
        assert_send_sync::<Network>();
        assert_send_sync::<Served>();
    }

    fn setup(n: usize) -> (Network, SpecClient<ClntUdp>, Arc<SvcRegistry>) {
        let cp = Arc::new(ProcPipeline::new(n).build_from_idl(IDL, None, 1).unwrap());
        let net = Network::new(NetworkConfig::lan(), 7);
        let reg = SpecService::new()
            .proc(cp.clone(), |args: &StubArgs| {
                // Echo with doubling so we can see the server ran.
                let doubled: Vec<i32> = args.arrays[0].iter().map(|v| v * 2).collect();
                StubArgs::new(vec![], vec![doubled])
            })
            .serve_udp(&net, 800);
        let clnt = ClntUdp::create(&net, 5100, 800, 0x2000_0101, 1);
        (net, SpecClient::from_parts(clnt, cp), reg)
    }

    #[test]
    fn fast_call_round_trips() {
        let (_net, mut client, reg) = setup(10);
        let data: Vec<i32> = (0..10).collect();
        let args = client.args(vec![], vec![data.clone()]);
        let (out, path) = client.call(&args).unwrap();
        assert_eq!(path, PathUsed::Fast);
        let want: Vec<i32> = data.iter().map(|v| v * 2).collect();
        assert_eq!(out.arrays[0], want);
        assert_eq!(reg.raw_dispatches(), 1);
        assert_eq!(reg.generic_dispatches(), 0);
        assert!(client.counts.stub_ops > 0);
    }

    #[test]
    fn a_fixed_array_round_trips_on_the_fast_lane() {
        // A fixed array is decoded into a slot the caller has just
        // cleared: the stub sizes it as it fills it, on both sides.
        const FIXED: &str = r#"
            struct f4 { int a[4]; };
            program FIXEDPROG {
                version FIXEDVERS { f4 ECHO(f4) = 1; } = 1;
            } = 0x20000104;
        "#;
        let cp = Arc::new(ProcPipeline::new(4).build_from_idl(FIXED, None, 1).unwrap());
        let net = Network::new(NetworkConfig::lan(), 7);
        let reg = SpecService::new()
            .proc(cp.clone(), |args: &StubArgs| {
                let doubled: Vec<i32> = args.arrays[0].iter().map(|v| v * 2).collect();
                StubArgs::new(vec![], vec![doubled])
            })
            .serve_udp(&net, 812);
        let clnt = ClntUdp::create(&net, 5120, 812, 0x2000_0104, 1);
        let mut client = SpecClient::from_parts(clnt, cp);
        let args = client.args(vec![], vec![vec![7, -1, 1 << 20, 0]]);
        let (out, path) = client.call(&args).unwrap();
        assert_eq!(path, PathUsed::Fast);
        assert_eq!(out.arrays[0], [14, -2, 1 << 21, 0]);
        assert_eq!((reg.raw_dispatches(), reg.generic_dispatches()), (1, 0));
    }

    #[test]
    fn service_hosts_multiple_procedures() {
        // One service, two procedures with different shapes, dispatched
        // by procedure number — both on the fast path.
        let n = 6;
        let pipeline = ProcPipeline::new(n);
        let echo = Arc::new(pipeline.build_from_idl(IDL, None, 1).unwrap());
        let sum = Arc::new(pipeline.build_from_idl(IDL, None, 2).unwrap());
        let net = Network::new(NetworkConfig::lan(), 9);
        let reg = SpecService::new()
            .proc(echo.clone(), |args: &StubArgs| {
                StubArgs::new(vec![], vec![args.arrays[0].clone()])
            })
            .proc(sum.clone(), |args: &StubArgs| {
                StubArgs::new(vec![args.arrays[0].iter().sum()], vec![])
            })
            .serve_udp(&net, 801);

        let data: Vec<i32> = (1..=n as i32).collect();
        let mut echo_client =
            SpecClient::from_parts(ClntUdp::create(&net, 5200, 801, 0x2000_0101, 1), echo);
        let args = echo_client.args(vec![], vec![data.clone()]);
        let (out, path) = echo_client.call(&args).unwrap();
        assert_eq!(path, PathUsed::Fast);
        assert_eq!(out.arrays[0], data);

        let mut sum_client =
            SpecClient::from_parts(ClntUdp::create(&net, 5201, 801, 0x2000_0101, 1), sum);
        let args = sum_client.args(vec![], vec![data.clone()]);
        let (out, path) = sum_client.call(&args).unwrap();
        assert_eq!(path, PathUsed::Fast);
        assert_eq!(*out.scalars.last().unwrap(), 21);
        assert_eq!(reg.raw_dispatches(), 2);
    }

    #[test]
    fn reply_outside_the_pinned_context_is_encoded_generically_once() {
        // The handler answers with 7 elements where the reply stub is
        // pinned to 10, then with 12: the compiled encode refuses both
        // (the longer one is not cut to 10), the generic encoder takes
        // the results as the handler left them (scalars from slot 0 —
        // the xid is stamped, never inserted), and the handler is not
        // run a second time.
        const TAGGED: &str = r#"
            const MAXARR = 2000;
            struct int_arr { int arr<MAXARR>; };
            struct tagged { int tag; int arr<MAXARR>; };
            program TAGPROG {
                version TAGVERS { tagged TAG(int_arr) = 1; } = 1;
            } = 0x20000102;
        "#;
        let cp = Arc::new(
            ProcPipeline::new(10)
                .build_from_idl(TAGGED, None, 1)
                .unwrap(),
        );
        let net = Network::new(NetworkConfig::lan(), 7);
        let invariants = Invariants::new(&net);
        let reg = SpecService::new()
            .proc(cp.clone(), move |args: &StubArgs| {
                let n = args.arrays[0][0] as usize;
                let arr = args.arrays[0].iter().copied().cycle().take(n).collect();
                StubArgs::new(vec![77], vec![arr])
            })
            .observed(&invariants, 810)
            .serve_udp(&net, 810);
        let clnt = ClntUdp::create(&net, 5110, 810, 0x2000_0102, 1);
        let mut client = SpecClient::from_parts(clnt, cp);

        let mut data: Vec<i32> = (0..10).collect();
        let shapes = [(10, PathUsed::Fast), (7, PathUsed::GenericFallback)];
        for (n, path) in shapes.into_iter().chain([(12, PathUsed::GenericFallback)]) {
            data[0] = n;
            let args = client.args(vec![], vec![data.clone()]);
            let (out, used) = client.call(&args).unwrap();
            assert_eq!(used, path);
            assert_eq!(*out.scalars.last().unwrap(), 77);
            let want: Vec<i32> = data.iter().copied().cycle().take(n as usize).collect();
            assert_eq!(out.arrays[0], want);
        }
        assert_eq!((invariants.runs(), invariants.repeats()), (3, vec![]));
        assert_eq!(reg.raw_dispatches(), 3);
        assert_eq!(reg.generic_dispatches(), 0);
    }

    #[test]
    fn results_no_encoder_carries_answer_system_err_after_one_run() {
        // Both arrays are bounded at 8 and pinned at 4; the handler
        // answers 2 and 9 elements. The compiled encode refuses the 2,
        // the generic encoder the 9: the call is answered SYSTEM_ERR on
        // the raw lane (a pinned request) and the generic lane (a
        // 5-element one) alike, and each runs its handler once. The raw
        // lane must not hand a call it has run to the generic lane, which
        // would run it again and answer GARBAGE_ARGS.
        const PAIR: &str = r#"
            struct pair { int a<8>; int b<8>; };
            program PAIRPROG {
                version PAIRVERS { pair SPLIT(pair) = 1; } = 1;
            } = 0x20000103;
        "#;
        let pinned = |n| Arc::new(ProcPipeline::new(n).build_from_idl(PAIR, None, 1).unwrap());
        let net = Network::new(NetworkConfig::lan(), 7);
        let invariants = Invariants::new(&net);
        let reg = SpecService::new()
            .proc(pinned(4), |_: &StubArgs| {
                StubArgs::new(vec![], vec![vec![1, 2], (0..9).collect()])
            })
            .observed(&invariants, 811)
            .serve_udp(&net, 811);
        for n in [4, 5] {
            let clnt = ClntUdp::create(&net, 5110 + n as u32, 811, 0x2000_0103, 1);
            let mut client = SpecClient::from_parts(clnt, pinned(n));
            let args = client.args(vec![], vec![vec![7; n], vec![8; n]]);
            assert_eq!(client.call(&args).unwrap_err(), RpcError::SystemErr, "{n}");
        }
        assert_eq!((invariants.runs(), invariants.repeats()), (2, vec![]));
        assert_eq!((reg.raw_dispatches(), reg.generic_dispatches()), (1, 1));
    }

    /// An ECHO request image for the `n`-element context `cp`, its first
    /// element replaced by `first`.
    fn echo_request(cp: &CompiledProc, n: usize, first: i32) -> Vec<u8> {
        let mut data: Vec<i32> = (0..n as i32).collect();
        data[0] = first;
        let args = StubArgs::new(vec![7], vec![data]);
        let mut buf = vec![0u8; cp.client_encode.wire_len];
        let mut counts = OpCounts::new();
        specrpc_tempo::compile::run_encode(&cp.client_encode.program, &mut buf, &args, &mut counts)
            .unwrap();
        buf
    }

    #[test]
    fn a_handler_panic_does_not_cost_the_procedure_its_scratch() {
        // The first call panics inside the handler, holding the scratch
        // pair. The calls after it must find that same pair again: the
        // decoded array at one address, and in the result slot the
        // capacity the previous call gave it (a fresh pair has none).
        let n = 10;
        let cp = Arc::new(ProcPipeline::new(n).build_from_idl(IDL, None, 1).unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let reg = SpecService::new()
            .proc_in_place(cp.clone(), move |args, results| {
                let at = args.arrays[0].as_ptr() as usize;
                log.lock().unwrap().push((at, results.arrays[0].capacity()));
                assert!(args.arrays[0][0] != -1, "the handler's own bug");
                results.arrays[0].extend_from_slice(&args.arrays[0]);
            })
            .into_registry();
        let poisoned = echo_request(&cp, n, -1);
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.dispatch(&poisoned)));
        assert!(panicked.is_err());
        for first in [1, 2] {
            let reply = reg.dispatch(&echo_request(&cp, n, first));
            assert_eq!(reply.len(), cp.server_encode.wire_len);
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[1].0, seen[2].0, "decoded in place, call after call");
        assert!(seen[2].1 >= n, "the result slot kept call 2's capacity");
        assert_eq!(reg.raw_dispatches(), 2);
    }

    #[test]
    fn a_dispatch_that_finds_the_scratch_in_use_works_on_a_fresh_pair() {
        // One dispatch is held inside the handler, on the scratch pair;
        // a second one of the same procedure, from this thread, must not
        // wait for it and must answer what it would have answered alone.
        use crate::echo::echo_handler;
        use std::sync::mpsc::channel;
        let n = 10;
        let cp = Arc::new(ProcPipeline::new(n).build_from_idl(IDL, None, 1).unwrap());
        let (entered_tx, entered) = channel();
        let (release, released) = channel::<()>();
        let released = Mutex::new(released);
        let reg = SpecService::new()
            .proc_in_place(cp.clone(), move |args, results| {
                if args.arrays[0][0] == -1 {
                    entered_tx.send(()).unwrap();
                    released.lock().unwrap().recv().unwrap();
                }
                echo_handler(args, results);
            })
            .into_registry();
        let (held, other) = (echo_request(&cp, n, -1), echo_request(&cp, n, 5));
        let alone = echo_service(cp.clone()).into_registry();
        std::thread::scope(|s| {
            let worker = s.spawn(|| reg.dispatch(&held));
            entered.recv().unwrap();
            assert_eq!(reg.dispatch(&other), alone.dispatch(&other));
            release.send(()).unwrap();
            assert_eq!(worker.join().unwrap(), alone.dispatch(&held));
        });
        assert_eq!(reg.raw_dispatches(), 2);
    }

    #[test]
    fn generic_client_triggers_server_guard_fallback() {
        // The server is specialized for 10 elements. A *generic* client
        // sends 7: the server's inlen guard fails, the generic dispatch
        // answers, and semantics are preserved (§6.2 else branch).
        let (net, _spec_client, reg) = setup(10);
        let mut generic = ClntUdp::create(&net, 5200, 800, 0x2000_0101, 1);
        let mut out: Vec<i32> = Vec::new();
        generic
            .call(
                1,
                &mut |x| {
                    let mut v: Vec<i32> = (0..7).collect();
                    specrpc_xdr::composite::xdr_array(
                        x,
                        &mut v,
                        2000,
                        specrpc_xdr::primitives::xdr_int,
                    )
                },
                &mut |x| {
                    specrpc_xdr::composite::xdr_array(
                        x,
                        &mut out,
                        2000,
                        specrpc_xdr::primitives::xdr_int,
                    )
                },
            )
            .unwrap();
        let want: Vec<i32> = (0..7).map(|v| v * 2).collect();
        assert_eq!(out, want);
        assert_eq!(reg.raw_fallbacks(), 1);
        assert_eq!(reg.generic_dispatches(), 1);
    }

    #[test]
    fn error_reply_reaches_client_through_fallback() {
        // Call a procedure number the server does not implement via the
        // specialized client: the ProcUnavail reply fails the reply
        // guard, the generic decoder runs and surfaces the proper error.
        let cp10 = Arc::new(ProcPipeline::new(1).build_from_idl(IDL, None, 1).unwrap());
        let net = Network::new(NetworkConfig::lan(), 9);
        let mut reg = SvcRegistry::new();
        // Program registered with no procedures beyond NULL.
        reg.register(0x2000_0101, 1, 0, |_, _, _| Ok(()));
        serve(&net, Arc::new(reg), ServeConfig::new(&[802])).detach();
        let clnt = ClntUdp::create(&net, 5300, 802, 0x2000_0101, 1);
        let mut client = SpecClient::from_parts(clnt, cp10);
        let args = client.args(vec![], vec![vec![42]]);
        let err = client.call(&args).unwrap_err();
        assert_eq!(err, RpcError::ProcUnavail);
        assert_eq!(client.fallback_calls, 1);
    }

    #[test]
    fn wrong_wire_size_from_client_side() {
        // Encode stub wire length is fixed per context; sending a
        // different count than the pinned length is a caller error the
        // stub detects as BadElem, too few or too many (the header image
        // carries the pinned length: more would be cut to it) — the API
        // requires matching the context, mirroring per-size specialized
        // binaries (Table 3). Nothing is sent.
        let (_net, mut client, reg) = setup(10);
        for n in [3, 12] {
            let args = client.args(vec![], vec![(0..n).collect()]);
            assert!(client.call(&args).is_err(), "{n} elements");
        }
        assert_eq!(reg.raw_dispatches() + reg.generic_dispatches(), 0);
    }

    #[test]
    fn batched_calls_through_the_event_service() {
        let n = 8;
        let cp = Arc::new(ProcPipeline::new(n).build_from_idl(IDL, None, 1).unwrap());
        let net = Network::new(NetworkConfig::lan(), 13);
        let registry = SpecService::new()
            .proc(cp.clone(), |args: &StubArgs| {
                StubArgs::new(vec![], vec![args.arrays[0].clone()])
            })
            .into_registry();
        let cfg = ServeConfig {
            workers_per_shard: 1,
            ..ServeConfig::new(&[805])
        };
        let served = serve(&net, registry, cfg);

        let clnt = ClntUdp::create(&net, 5501, 805, 0x2000_0101, 1);
        let mut client = SpecClient::from_parts(clnt, cp);
        let batch: Vec<StubArgs> = (0..5)
            .map(|k| {
                let data: Vec<i32> = (k..k + n as i32).collect();
                client.args(vec![], vec![data])
            })
            .collect();
        let results = client.call_batch(&batch).unwrap();
        assert_eq!(results.len(), 5);
        for (k, (out, path)) in results.iter().enumerate() {
            let want: Vec<i32> = (k as i32..k as i32 + n as i32).collect();
            assert_eq!(*path, PathUsed::Fast);
            assert_eq!(out.arrays[0], want, "submission order preserved");
        }
        assert_eq!(served.total_events(), 5);
        assert_eq!(client.fast_calls, 5);
        assert_eq!(client.calls, 5);
    }
}

//! Future/waker adapter over the simulator's nonblocking readiness
//! surface (`Network::poll_udp` / `wait_ready` / `try_recv`).
//!
//! The serving and client layers below this crate are callback- and
//! poll-shaped: `SpecClient::call_begin`/`call_poll` transmit and check
//! for a reply without blocking, and `Served::poll_once`
//! sweeps server sockets one pass at a time. This crate wraps that
//! surface in ordinary `std::future::Future`s plus a tiny single-thread
//! executor, [`block_on`], that interleaves polling the future with
//! stepping the discrete-event simulator — so async-style call sites
//! compose with the existing deterministic virtual-time machinery
//! without touching the core wire path.
//!
//! Nothing here spawns threads or reaches for an external runtime: the
//! "reactor" is the simulator itself. When a future returns `Pending`,
//! [`block_on`] executes one unit of simulated work ([`Network::step`]);
//! when the simulator is fully idle it advances virtual time by a small
//! slice so timeout-driven futures (retransmission, total deadline)
//! still make progress.
//!
//! # Example: an echo round trip through the async lane
//!
//! ```
//! use specrpc::echo::EchoBench;
//! use specrpc_async::{block_on, call};
//!
//! let mut bench = EchoBench::new(4, None, 7).unwrap();
//! let net = bench.net.clone();
//! let args = bench.spec.args(vec![], vec![vec![1, 2, 3, 4]]);
//! let (out, _path) = block_on(&net, call(&mut bench.spec, &net, &args)).unwrap();
//! assert_eq!(out.arrays[0], vec![1, 2, 3, 4]);
//! ```

#![deny(unsafe_code)]

use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use specrpc::{PathUsed, SpecClient};
use specrpc_netsim::net::Addr;
use specrpc_netsim::{Network, SimTime};
use specrpc_rpc::error::RpcError;
use specrpc_rpc::transport::Transport;
use specrpc_rpc::Served;
use specrpc_tempo::compile::StubArgs;

/// Default per-try retransmission timeout (virtual time), matching the
/// blocking UDP transport.
pub const DEFAULT_RETRY: SimTime = SimTime::from_millis(200);
/// Default total call deadline (virtual time), matching the blocking
/// UDP transport.
pub const DEFAULT_TOTAL: SimTime = SimTime::from_millis(2_000);

/// Virtual time [`block_on`] advances per iteration when the simulator
/// has no scheduled work at all — lets timeout-driven futures progress
/// while every request in flight has been lost.
const IDLE_SLICE: SimTime = SimTime::from_millis(1);

/// All scheduled events are eligible: `block_on` never defers simulated
/// work past a wall-clock-like horizon.
const FAR_DEADLINE: SimTime = SimTime::from_nanos(u64::MAX);

/// Flag waker: `wake` records that the future asked to be re-polled.
/// [`block_on`] re-polls every iteration regardless (the simulator step
/// is the real progress source), so the flag only satisfies the waker
/// contract for futures that are polled under a foreign executor too.
struct FlagWaker(AtomicBool);

impl std::task::Wake for FlagWaker {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }
}

/// Drive `fut` to completion by alternating `poll` with simulator
/// progress: each `Pending` executes one unit of network work
/// ([`Network::step`]); when the simulator is completely idle, virtual
/// time advances by a small slice instead so deadline-based futures
/// still fire. Deterministic: the interleaving is a pure function of
/// the future and the (seeded) network state.
pub fn block_on<F: Future>(net: &Network, fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let waker = Waker::from(Arc::new(FlagWaker(AtomicBool::new(false))));
    let mut cx = Context::from_waker(&waker);
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        if !net.step(FAR_DEADLINE) {
            net.advance(IDLE_SLICE);
        }
    }
}

/// Future resolving once any of `addrs` has a readiness event queued —
/// the async face of [`Network::ready_any`]. Like `ready_any`, this
/// observes **served** addresses (registered via
/// `Network::serve_udp_events[_with]`); plain mailbox endpoints never
/// report ready here.
pub fn ready(net: &Network, addrs: Vec<Addr>) -> ReadyFuture {
    ReadyFuture {
        net: net.clone(),
        addrs,
    }
}

/// See [`ready`].
pub struct ReadyFuture {
    net: Network,
    addrs: Vec<Addr>,
}

impl Future for ReadyFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.net.ready_any(&self.addrs) {
            Poll::Ready(())
        } else {
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// One RPC through the nonblocking client lane as a future: encode +
/// transmit on first poll, then poll for the reply with virtual-time
/// retransmission (`retry`) and a total deadline (`total`). On a
/// transport without a nonblocking surface the first poll falls back to
/// the blocking call and resolves immediately — every transport gets an
/// async-capable entry point, only nonblocking ones overlap with other
/// work.
pub fn call<'a, T: Transport>(
    client: &'a mut SpecClient<T>,
    net: &Network,
    args: &StubArgs,
) -> CallFuture<'a, T> {
    CallFuture {
        client,
        net: net.clone(),
        state: CallState::Begin(args.clone()),
        retry: DEFAULT_RETRY,
        total: DEFAULT_TOTAL,
    }
}

enum CallState {
    Begin(StubArgs),
    Flight {
        xid: u32,
        started: SimTime,
        sent_at: SimTime,
    },
    Done,
}

/// See [`call`].
pub struct CallFuture<'a, T: Transport> {
    client: &'a mut SpecClient<T>,
    net: Network,
    state: CallState,
    retry: SimTime,
    total: SimTime,
}

impl<T: Transport> CallFuture<'_, T> {
    /// Override the per-try retransmission and total timeouts (virtual
    /// time). Defaults match the blocking UDP transport: 200ms / 2s.
    pub fn with_timeouts(mut self, retry: SimTime, total: SimTime) -> Self {
        self.retry = retry;
        self.total = total;
        self
    }
}

impl<T: Transport> Future for CallFuture<'_, T> {
    type Output = Result<(StubArgs, PathUsed), RpcError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let CallState::Begin(args) = &this.state {
            if !this.client.nonblocking() {
                // Blocking transport: resolve inline on first poll.
                let result = this.client.call(args);
                this.state = CallState::Done;
                return Poll::Ready(result);
            }
            let now = this.net.now();
            match this.client.call_begin(args) {
                Ok(xid) => {
                    this.state = CallState::Flight {
                        xid,
                        started: now,
                        sent_at: now,
                    };
                }
                Err(e) => {
                    this.state = CallState::Done;
                    return Poll::Ready(Err(e));
                }
            }
        }
        let CallState::Flight {
            xid,
            started,
            sent_at,
        } = &mut this.state
        else {
            panic!("CallFuture polled after completion");
        };
        match this.client.call_poll(*xid) {
            Ok(Some(reply)) => {
                let mut out = StubArgs::default();
                let result = this
                    .client
                    .call_finish(reply, &mut out)
                    .map(|path| (out, path));
                this.state = CallState::Done;
                Poll::Ready(result)
            }
            Ok(None) => {
                let now = this.net.now();
                if now - *started >= this.total {
                    this.state = CallState::Done;
                    return Poll::Ready(Err(RpcError::TimedOut));
                }
                if now - *sent_at >= this.retry {
                    if let Err(e) = this.client.call_resend(*xid) {
                        this.state = CallState::Done;
                        return Poll::Ready(Err(e));
                    }
                    *sent_at = now;
                }
                cx.waker().wake_by_ref();
                Poll::Pending
            }
            Err(e) => {
                this.state = CallState::Done;
                Poll::Ready(Err(e))
            }
        }
    }
}

/// A pipelined batch through the nonblocking lane as a future: every
/// request transmits on first poll and stays in flight at once; replies
/// are matched by xid in any order and resolve in submission order.
/// Stragglers retransmit as a group on the per-try timeout. Falls back
/// to the blocking [`SpecClient::call_batch`] on a transport without a
/// nonblocking surface.
pub fn call_batch<'a, T: Transport>(
    client: &'a mut SpecClient<T>,
    net: &Network,
    batch: &[StubArgs],
) -> BatchFuture<'a, T> {
    BatchFuture {
        client,
        net: net.clone(),
        state: BatchState::Begin(batch.to_vec()),
        retry: DEFAULT_RETRY,
        total: DEFAULT_TOTAL,
    }
}

enum BatchState {
    Begin(Vec<StubArgs>),
    Flight {
        xids: Vec<u32>,
        /// Submission slots still awaiting a reply.
        outstanding: Vec<usize>,
        outs: Vec<StubArgs>,
        paths: Vec<Option<PathUsed>>,
        started: SimTime,
        last_send: SimTime,
    },
    Done,
}

/// See [`call_batch`].
pub struct BatchFuture<'a, T: Transport> {
    client: &'a mut SpecClient<T>,
    net: Network,
    state: BatchState,
    retry: SimTime,
    total: SimTime,
}

impl<T: Transport> BatchFuture<'_, T> {
    /// Override the per-try retransmission and total timeouts (virtual
    /// time). Defaults match the blocking UDP transport: 200ms / 2s.
    pub fn with_timeouts(mut self, retry: SimTime, total: SimTime) -> Self {
        self.retry = retry;
        self.total = total;
        self
    }
}

impl<T: Transport> Future for BatchFuture<'_, T> {
    type Output = Result<Vec<(StubArgs, PathUsed)>, RpcError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let BatchState::Begin(batch) = &this.state {
            if batch.is_empty() {
                this.state = BatchState::Done;
                return Poll::Ready(Ok(Vec::new()));
            }
            if !this.client.nonblocking() {
                let result = this.client.call_batch(batch);
                this.state = BatchState::Done;
                return Poll::Ready(result);
            }
            let now = this.net.now();
            let n = batch.len();
            match this.client.batch_begin(batch) {
                Ok(xids) => {
                    this.state = BatchState::Flight {
                        xids,
                        outstanding: (0..n).collect(),
                        outs: (0..n).map(|_| StubArgs::default()).collect(),
                        paths: vec![None; n],
                        started: now,
                        last_send: now,
                    };
                }
                Err(e) => {
                    this.state = BatchState::Done;
                    return Poll::Ready(Err(e));
                }
            }
        }
        let BatchState::Flight {
            xids,
            outstanding,
            outs,
            paths,
            started,
            last_send,
        } = &mut this.state
        else {
            panic!("BatchFuture polled after completion");
        };
        // Drain every reply already queued before yielding back.
        loop {
            let waiting: Vec<u32> = outstanding.iter().map(|&s| xids[s]).collect();
            match this.client.batch_poll_any(&waiting) {
                Ok(Some((pos, reply))) => {
                    let slot = outstanding[pos];
                    match this.client.call_finish(reply, &mut outs[slot]) {
                        Ok(path) => paths[slot] = Some(path),
                        Err(e) => {
                            this.state = BatchState::Done;
                            return Poll::Ready(Err(e));
                        }
                    }
                    outstanding.remove(pos);
                    if outstanding.is_empty() {
                        let results = std::mem::take(outs)
                            .into_iter()
                            .zip(paths.iter().map(|p| p.expect("every slot resolved")))
                            .collect();
                        this.state = BatchState::Done;
                        return Poll::Ready(Ok(results));
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    this.state = BatchState::Done;
                    return Poll::Ready(Err(e));
                }
            }
        }
        let now = this.net.now();
        if now - *started >= this.total {
            this.state = BatchState::Done;
            return Poll::Ready(Err(RpcError::TimedOut));
        }
        if now - *last_send >= this.retry {
            for &slot in outstanding.iter() {
                if let Err(e) = this.client.batch_resend(slot) {
                    this.state = BatchState::Done;
                    return Poll::Ready(Err(e));
                }
            }
            *last_send = now;
        }
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Never-resolving future that sweeps a sharded reactor's sockets once
/// per poll (see [`Served::poll_once`]) — the serving side's
/// async-capable entry point, meant to ride behind a foreground future
/// via [`with_background`].
pub fn serve(reactor: &Served) -> Serve<'_> {
    Serve { reactor }
}

/// See [`serve`].
pub struct Serve<'a> {
    reactor: &'a Served,
}

impl Future for Serve<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.reactor.poll_once();
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Generic never-resolving pump: calls `f` once per poll. Adapts any
/// poll-shaped serving surface (an event loop sweep, a drain hook) into
/// a background future for [`with_background`].
pub fn drive<F: FnMut() -> usize>(f: F) -> Drive<F> {
    Drive { f }
}

/// See [`drive`].
pub struct Drive<F> {
    f: F,
}

impl<F: FnMut() -> usize + Unpin> Future for Drive<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        (self.get_mut().f)();
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Run `main` to completion while polling `background` once after each
/// `main` poll — e.g. a [`call`] future with a [`serve`] sweep riding
/// behind it. `background`'s output is discarded; it is typically a
/// never-resolving server future.
pub fn with_background<A, B>(main: A, background: B) -> WithBackground<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    WithBackground { main, background }
}

/// See [`with_background`].
pub struct WithBackground<A, B> {
    main: A,
    background: B,
}

impl<A, B> Future for WithBackground<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    type Output = A::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<A::Output> {
        let this = self.get_mut();
        if let Poll::Ready(v) = Pin::new(&mut this.main).poll(cx) {
            return Poll::Ready(v);
        }
        let _ = Pin::new(&mut this.background).poll(cx);
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc::echo::{echo_service, EchoBench, ECHO_PORT, ECHO_PROG, ECHO_VERS};
    use specrpc::SpecClient;
    use specrpc_netsim::{Network, NetworkConfig};
    use specrpc_rpc::ClntUdp;

    #[test]
    fn block_on_resolves_an_immediately_ready_future() {
        let net = Network::new(NetworkConfig::lan(), 1);
        assert_eq!(block_on(&net, std::future::ready(42)), 42);
    }

    #[test]
    fn ready_future_waits_for_a_datagram() {
        let net = Network::new(NetworkConfig::lan(), 3);
        net.serve_udp_events(900);
        let tx = net.bind_udp(901);
        tx.send_to(900, b"ping".to_vec());
        // The datagram is scheduled but not yet delivered: the future
        // must step the net (via block_on) until it lands.
        block_on(&net, ready(&net, vec![900]));
        assert_eq!(net.ready_udp(900), 1);
        let mut got = Vec::new();
        assert!(net.poll_udp(900, |payload, _from| {
            got = std::mem::take(payload);
            None
        }));
        assert_eq!(got, b"ping");
        net.unserve_udp_events(900);
    }

    #[test]
    fn call_future_round_trips_the_echo_service() {
        let mut b = EchoBench::new(8, None, 11).unwrap();
        let net = b.net.clone();
        let data: Vec<i32> = (0..8).collect();
        let args = b.spec.args(vec![], vec![data.clone()]);
        let (out, path) = block_on(&net, call(&mut b.spec, &net, &args)).unwrap();
        assert_eq!(out.arrays[0], data);
        assert_eq!(path, PathUsed::Fast);
        assert!(net.now() > SimTime::ZERO, "virtual time advanced");
    }

    #[test]
    fn batch_future_matches_the_blocking_batch_lane() {
        let mut b = EchoBench::new(4, None, 13).unwrap();
        let net = b.net.clone();
        let batch: Vec<StubArgs> = (0..5)
            .map(|i| b.spec.args(vec![], vec![vec![i, i + 1, i + 2, i + 3]]))
            .collect();
        let results = block_on(&net, call_batch(&mut b.spec, &net, &batch)).unwrap();
        assert_eq!(results.len(), 5);
        for (i, (out, path)) in results.iter().enumerate() {
            let i = i as i32;
            assert_eq!(out.arrays[0], vec![i, i + 1, i + 2, i + 3]);
            assert_eq!(*path, PathUsed::Fast);
        }
    }

    #[test]
    fn empty_batch_resolves_without_touching_the_wire() {
        let mut b = EchoBench::new(4, None, 13).unwrap();
        let net = b.net.clone();
        let results = block_on(&net, call_batch(&mut b.spec, &net, &[])).unwrap();
        assert!(results.is_empty());
        assert_eq!(net.now(), SimTime::ZERO);
    }

    #[test]
    fn call_future_times_out_against_a_dead_port() {
        // No server behind port 999: the future must retransmit, then
        // give up at the total deadline with virtual time advanced.
        let b = EchoBench::new(4, None, 17).unwrap();
        let net = b.net.clone();
        let clnt = ClntUdp::create(&net, 7001, 999, ECHO_PROG, ECHO_VERS);
        let mut dead = SpecClient::from_parts(clnt, b.spec.compiled().clone());
        let args = dead.args(vec![], vec![vec![1, 2, 3, 4]]);
        let fut = call(&mut dead, &net, &args)
            .with_timeouts(SimTime::from_millis(10), SimTime::from_millis(40));
        let err = block_on(&net, fut).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert!(net.now() >= SimTime::from_millis(40), "deadline elapsed");
    }

    #[test]
    fn serve_future_backs_a_call_through_a_sharded_reactor() {
        let net = Network::new(NetworkConfig::lan(), 19);
        let proc_ = std::sync::Arc::new(specrpc::echo::build_echo_proc(4, None).unwrap());
        let sharded =
            echo_service(proc_.clone()).serve_sharded(&net, &[ECHO_PORT, ECHO_PORT + 1], 2, 0);
        let clnt = ClntUdp::create(&net, 7002, ECHO_PORT, ECHO_PROG, ECHO_VERS);
        let mut spec = SpecClient::from_parts(clnt, proc_);
        let args = spec.args(vec![], vec![vec![9, 8, 7, 6]]);
        let fut = with_background(call(&mut spec, &net, &args), serve(&sharded.reactor));
        let (out, _) = block_on(&net, fut).unwrap();
        assert_eq!(out.arrays[0], vec![9, 8, 7, 6]);
        assert_eq!(sharded.total_events(), 1);
    }

    #[test]
    fn drive_adapts_a_closure_into_a_background_pump() {
        let net = Network::new(NetworkConfig::lan(), 23);
        net.serve_udp_events(555);
        let polls = std::cell::Cell::new(0usize);
        let fut = with_background(
            ready(&net, vec![555]),
            drive(|| {
                polls.set(polls.get() + 1);
                0
            }),
        );
        let tx = net.bind_udp(556);
        tx.send_to(555, b"x".to_vec());
        block_on(&net, fut);
        assert!(polls.get() > 0, "background pump was polled");
        net.unserve_udp_events(555);
    }
}

//! The UDP RPC client (`clntudp_create`/`clntudp_call`): transaction ids,
//! per-try timeout with retransmission, reply matching, and the generic
//! marshaling path through the layered XDR routines.
//!
//! A lone call's per-try timeout comes from its procedure's smoothed
//! round-trip time, not from Sun's fixed `cu_wait`: a lost datagram costs
//! about two round trips, and a call on a clean link never times out.
//! `retry_timeout` is the wait before a procedure's first sample and the
//! ceiling on every wait, backed-off ones included.
//!
//! Every transaction runs through one loop over N outstanding requests:
//! put them on the wire, route each arriving reply — or each sub-reply of
//! a coalesced reply envelope — to the slot of the xid it answers, and on
//! a per-try timeout replay the unacknowledged one-way window and resend
//! whatever is still outstanding, until every slot is filled, the total
//! timeout passes or the retry budget runs out. A lone call
//! ([`ClntUdp::exchange`]) is an attempt of one inside the replica
//! failover ring; a batch ([`ClntUdp::exchange_batch`]) is an attempt of N
//! against the replica the socket targets. The two differ only in how the
//! first transmission looks and what a retransmission resends: a lone call
//! seals the queued one-ways into its own datagram and resends that image
//! whole; a batch flushes them ahead, packs its requests into envelopes of
//! at most the MTU and resends its stragglers plain.

use crate::breaker::CircuitBreaker;
use crate::bufpool::BufPool;
use crate::coalesce::{CallCoalescer, CoalescePolicy, CoalesceStats, FlushReason};
use crate::error::RpcError;
use crate::msg::{CallHeader, ReplyHeader};
use crate::transport::Transport;
use crate::xid::XidGen;
use specrpc_netsim::net::{Addr, Datagram, Network};
use specrpc_netsim::udp::SimUdpSocket;
use specrpc_netsim::SimTime;
use specrpc_xdr::coalesce;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{OpCounts, XdrResult, XdrStream};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maximum UDP payload the original transport allows (`UDPMSGSIZE` is
/// 8800; we allow larger so the paper's 2000-integer workload fits in one
/// datagram, as its ATM/Fast-Ethernet setup effectively did).
pub const UDP_BUF_SIZE: usize = 66_000;

/// The reply slots of one transaction attempt: `replies[i]` awaits the
/// reply whose leading word is `xids[i]`.
struct Slots<'a> {
    xids: &'a [u32],
    replies: &'a mut [Option<Vec<u8>>],
    outstanding: usize,
}

impl Slots<'_> {
    /// Route one received datagram: with `unpack` (a coalescing client,
    /// the only kind a server answers with envelopes) a reply envelope
    /// sub-reply by sub-reply, anything else as one reply. A reply fills
    /// the empty slot of its xid, first arrival winning, and a sub-reply
    /// is copied into a pooled buffer to do so. What fills no slot — a
    /// duplicate, a late reply to an earlier call, a message too short to
    /// carry an xid — is stale, and its buffer feeds the pool.
    fn route(&mut self, pool: &BufPool, unpack: bool, dg: Vec<u8>) {
        if unpack {
            if let Some(parts) = coalesce::split(&dg) {
                for (part, _oneway) in parts {
                    if let Some(i) = self.open(part) {
                        let mut reply = pool.take(part.len());
                        reply.extend_from_slice(part);
                        self.fill(i, reply);
                    }
                }
                pool.put(dg);
                return;
            }
        }
        match self.open(&dg) {
            Some(i) => self.fill(i, dg),
            None => pool.put(dg),
        }
    }

    /// The empty slot awaiting `reply`, by its leading xid.
    fn open(&self, reply: &[u8]) -> Option<usize> {
        let xid = u32::from_be_bytes(reply.get(..4)?.try_into().ok()?);
        let i = self.xids.iter().position(|&x| x == xid)?;
        self.replies[i].is_none().then_some(i)
    }

    fn fill(&mut self, i: usize, reply: Vec<u8>) {
        self.replies[i] = Some(reply);
        self.outstanding -= 1;
    }
}

/// The smoothed round-trip time of one procedure, in virtual ns: Jacobson's
/// estimator ("Congestion Avoidance and Control", SIGCOMM 1988) with the
/// gains and first-sample rule of RFC 6298 §2. Only a lone call answered
/// without a retransmission is a sample (Karn & Partridge, "Improving
/// Round-Trip Time Estimates in Reliable Transport Protocols", SIGCOMM
/// 1987): a reply after a resend may answer either transmission.
///
/// `rto` is the timeout the procedure's next call waits first. A call
/// that resends leaves it at its last try's doubled wait (RFC 6298 §5.5),
/// and only the next sample recomputes it: Karn's rule keeps the backed-off
/// timeout until a call is answered without a resend, so a round trip that
/// grows for good is relearned instead of resent on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rtt {
    srtt: u64,
    rttvar: u64,
    rto: u64,
}

impl Rtt {
    /// RFC 6298 §2.2: the first measurement R sets SRTT = R, RTTVAR = R/2.
    fn first(r: u64) -> Self {
        let mut rtt = Rtt {
            srtt: r,
            rttvar: r / 2,
            rto: 0,
        };
        rtt.rto = rtt.estimate();
        rtt
    }

    /// RFC 6298 §2.3, α = 1/8 and β = 1/4: RTTVAR ← ¾·RTTVAR + ¼·|SRTT − R|
    /// against the old SRTT, then SRTT ← ⅞·SRTT + ⅛·R. The timeout is
    /// recomputed, which drops any backoff.
    fn sample(&mut self, r: u64) {
        self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(r)) / 4;
        self.srtt = (7 * self.srtt + r) / 8;
        self.rto = self.estimate();
    }

    /// SRTT + max(SRTT, 4·RTTVAR): Jacobson's bound with RFC 793's
    /// 2·SRTT as its floor, so a constant round trip (RTTVAR → 0) never
    /// fires.
    fn estimate(&self) -> u64 {
        // Never zero: a try that waits nothing never polls for its reply.
        (self.srtt + self.srtt.max(4 * self.rttvar)).max(1)
    }

    /// The next call's first wait: the estimate, or its backed-off value.
    fn timeout(self) -> SimTime {
        SimTime::from_nanos(self.rto)
    }
}

/// The procedure word of a call header (request bytes 20–24), which keys
/// the round-trip estimates: a COMMIT that queues behind its WRITEs must
/// not time out against a GETATTR's round trip.
fn proc_word(request: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes(request.get(20..24)?.try_into().ok()?))
}

/// `image` as a datagram to send: in `kept` (see [`ClntUdp::kept`]) when
/// there is one, else in a pooled buffer. A kept buffer too small for the
/// image grows to exactly its length: the buffer will come back carrying
/// a reply, so `Vec`'s doubling would ratchet both circulating buffers
/// past what either image needs.
fn datagram_in(kept: Option<Vec<u8>>, pool: &BufPool, image: &[u8]) -> Vec<u8> {
    let mut dg = match kept {
        Some(mut buf) => {
            buf.clear();
            buf.reserve_exact(image.len());
            buf
        }
        None => pool.take(image.len()),
    };
    dg.extend_from_slice(image);
    dg
}

/// A UDP RPC client handle (the `CLIENT` of the original API).
pub struct ClntUdp {
    sock: SimUdpSocket,
    prog: u32,
    vers: u32,
    xids: XidGen,
    /// Sun's per-try timeout (`cu_wait`), now the ceiling on every wait:
    /// a lone call's first try waits its procedure's timeout, estimated
    /// from the smoothed round trip, and each retransmission doubles the
    /// wait up to this (the doubled wait carries to the procedure's next
    /// call until one is answered on its first try); a call whose
    /// procedure has no sample yet, and every try of a batch, waits this
    /// long.
    pub retry_timeout: SimTime,
    /// Total timeout for one transaction (`cu_total`) — a lone call's
    /// budget on one replica, before failover moves it on, or a whole
    /// batch's.
    pub total_timeout: SimTime,
    /// Retry *budget*: maximum retransmissions per replica attempt,
    /// independent of the time-based `total_timeout`. Exhausting it
    /// surfaces [`RpcError::GaveUp`] (and trips failover) instead of
    /// waiting out the clock. `None` means time-limited only.
    pub retry_budget: Option<u32>,
    /// Failovers performed (replica moves, observability for chaos runs).
    pub failovers: u64,
    /// Ordered replica set (`[primary, backup, ...]`); empty = classic
    /// single-host client with no failover machinery in the call path.
    replicas: Vec<Addr>,
    /// One circuit breaker per replica (parallel to `replicas`).
    breakers: Vec<CircuitBreaker>,
    /// Index into `replicas` the socket currently targets (sticky: a
    /// successful failover stays on the new replica).
    active: usize,
    /// Micro-layer counts accumulated by generic marshaling.
    pub counts: OpCounts,
    /// Retransmissions performed (observability for fault tests).
    pub retransmits: u64,
    /// Wire-buffer pool: where datagram buffers come from and consumed
    /// replies go when `kept` cannot serve. Shareable across clients and
    /// with the serving side.
    pool: Arc<BufPool>,
    /// The reply buffer last handed to [`Transport::recycle`]: the next
    /// datagram is built in it, so a call that follows a call makes no
    /// pool round trip. One deep, because a call consumes one reply
    /// before it sends again; a batch's other replies go to the pool.
    kept: Option<Vec<u8>>,
    /// Reusable swap buffer for draining already-delivered replies in bulk.
    drain_buf: VecDeque<Datagram>,
    /// MTU-aware one-way coalescing state (`None` = classic one datagram
    /// per call, byte- and time-identical to the pre-coalescing client).
    coalescer: Option<CallCoalescer>,
    /// Round-trip estimates by procedure word, in first-sample order.
    rtts: Vec<(u32, Rtt)>,
    /// The generic lane's encoder (`cu_outbuf`): made by the first
    /// [`ClntUdp::call`] and rewound by every later one.
    outbuf: Option<XdrMem>,
}

impl ClntUdp {
    /// `clntudp_create`: bind `local`, aim at `server` for `prog`/`vers`.
    pub fn create(net: &Network, local: Addr, server: Addr, prog: u32, vers: u32) -> Self {
        Self::create_pooled(net, local, server, prog, vers, Arc::new(BufPool::new()))
    }

    /// [`ClntUdp::create`] sharing an existing wire-buffer pool (e.g. one
    /// pool across many clients, or client + server in one process).
    pub fn create_pooled(
        net: &Network,
        local: Addr,
        server: Addr,
        prog: u32,
        vers: u32,
        pool: Arc<BufPool>,
    ) -> Self {
        ClntUdp {
            sock: SimUdpSocket::connect(net, local, server),
            prog,
            vers,
            xids: XidGen::new(local),
            retry_timeout: SimTime::from_millis(200),
            total_timeout: SimTime::from_millis(2_000),
            retry_budget: None,
            failovers: 0,
            replicas: Vec::new(),
            breakers: Vec::new(),
            active: 0,
            counts: OpCounts::new(),
            retransmits: 0,
            pool,
            kept: None,
            drain_buf: VecDeque::new(),
            coalescer: None,
            rtts: Vec::new(),
            outbuf: None,
        }
    }

    /// Enable MTU-aware coalescing and Sun-style one-way batching (see
    /// [`crate::CoalescePolicy`] and [`Transport::call_oneway`]): queued
    /// one-way calls pack into envelopes up to `policy.mtu`, flushed by
    /// MTU fill, the linger bound, or the next synchronous call or batch —
    /// whose replies acknowledge the pipeline.
    pub fn with_coalescing(mut self, policy: CoalescePolicy) -> Self {
        self.coalescer = Some(CallCoalescer::new(policy));
        self
    }

    /// Coalescing counters, when coalescing is enabled.
    pub fn coalesce_stats(&self) -> Option<CoalesceStats> {
        self.coalescer.as_ref().map(|c| c.stats())
    }

    /// The wire-buffer pool this client cycles datagrams through.
    pub fn pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// Allocate the next transaction id.
    pub fn next_xid(&mut self) -> u32 {
        self.xids.next_xid()
    }

    /// Enable replica failover: the full ordered replica set becomes
    /// `[server, backups...]` (the address given at create time stays the
    /// primary), each guarded by its own [`CircuitBreaker`]. When the
    /// active replica's breaker is open, or an attempt on it ends in
    /// [`RpcError::TimedOut`] / [`RpcError::GaveUp`], the call moves to
    /// the next replica (sticky: later calls start from the survivor).
    /// With every breaker open the call fails fast with
    /// [`RpcError::HostDown`] — no datagram is sent.
    pub fn with_replicas(mut self, backups: &[Addr]) -> Self {
        let primary = self.sock.peer_addr();
        self.replicas = std::iter::once(primary)
            .chain(backups.iter().copied())
            .collect();
        self.breakers = vec![CircuitBreaker::default(); self.replicas.len()];
        self.active = 0;
        self
    }

    /// Replace every replica's circuit breaker with fresh clones of
    /// `template` (call after [`ClntUdp::with_replicas`]).
    pub fn with_breaker(mut self, template: CircuitBreaker) -> Self {
        self.breakers = vec![template; self.replicas.len()];
        self
    }

    /// Set the retransmission budget (see [`ClntUdp::retry_budget`]).
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Total circuit-breaker trips across all replicas.
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.trips).sum()
    }

    /// Queue a one-way call into the coalescing envelope, flushing first
    /// when the linger bound has passed or the sub-message would not fit
    /// under the MTU. Requires coalescing to be enabled.
    fn queue_oneway(&mut self, request: &[u8], xid: u32) {
        debug_assert_eq!(
            request.get(..4),
            Some(&xid.to_be_bytes()[..]),
            "request must start with its xid"
        );
        let now = self.sock.now();
        let (linger_due, mtu_over) = {
            let c = self.coalescer.as_ref().expect("coalescing enabled");
            let linger_due = c
                .first_queued_at
                .is_some_and(|t0| now >= t0 + c.policy.linger);
            let mtu_over = coalesce::count(&c.pending) > 0
                && c.pending.len() + coalesce::pushed_len(request.len()) > c.policy.mtu;
            (linger_due, mtu_over)
        };
        if linger_due {
            self.flush_pending_oneways(FlushReason::Linger);
        } else if mtu_over {
            self.flush_pending_oneways(FlushReason::Mtu);
        }
        let c = self.coalescer.as_mut().expect("coalescing enabled");
        if c.pending.is_empty() {
            let mut env = self
                .pool
                .take(coalesce::ENVELOPE_HEADER_BYTES + coalesce::pushed_len(request.len()));
            coalesce::begin(&mut env);
            c.pending = env;
        }
        coalesce::push(&mut c.pending, request, true);
        c.note_queued();
        if c.first_queued_at.is_none() {
            c.first_queued_at = Some(now);
        }
        if c.pending.len() >= c.policy.mtu {
            self.flush_pending_oneways(FlushReason::Mtu);
        }
    }

    /// Transmit the envelope under construction (if non-empty) and park
    /// its image in the unacknowledged-envelope window, which every
    /// retransmission replays until a transaction completes.
    fn flush_pending_oneways(&mut self, reason: FlushReason) {
        let Some(c) = self.coalescer.as_mut() else {
            return;
        };
        if coalesce::count(&c.pending) == 0 {
            return;
        }
        let img = std::mem::take(&mut c.pending);
        c.first_queued_at = None;
        c.note_flush(reason);
        self.sock
            .send(datagram_in(self.kept.take(), &self.pool, &img));
        // Past the cap the oldest unacknowledged one-ways fall off:
        // at-most-once, the classic Sun batch-mode trade — counted.
        if let Some(old) = c.park(img) {
            self.pool.put(old);
        }
    }

    /// Seal pending one-ways together with a synchronous `request` when
    /// everything fits one envelope (returning the sealed wire image the
    /// attempt should transmit instead of the plain request); otherwise
    /// flush the one-ways on their own and let the request go plain.
    fn seal_with_pending(&mut self, request: &[u8]) -> Option<Vec<u8>> {
        let fits = {
            let c = self.coalescer.as_ref()?;
            if coalesce::count(&c.pending) == 0 {
                return None;
            }
            c.pending.len() + coalesce::pushed_len(request.len()) <= c.policy.mtu
        };
        if fits {
            let c = self.coalescer.as_mut().expect("checked above");
            coalesce::push(&mut c.pending, request, false);
            c.first_queued_at = None;
            c.note_flush(FlushReason::Sync);
            Some(std::mem::take(&mut c.pending))
        } else {
            self.flush_pending_oneways(FlushReason::Sync);
            None
        }
    }

    /// Raw transaction: send `request` (whose first word must be `xid`),
    /// retransmit on per-try timeout, and return the first reply datagram
    /// whose xid matches. This is the path shared by the generic and
    /// specialized clients — specialization replaces marshaling, not
    /// transaction management.
    ///
    /// The request stays in the caller's (rewindable) buffer: each
    /// transmission copies it into a buffer that is already there rather
    /// than cloning a fresh `Vec` — the first try into the reply buffer
    /// the previous call recycled, retransmissions into pooled ones — and
    /// stale replies are recycled straight back into the pool, so a
    /// retransmitting call performs no steady-state allocation.
    ///
    /// With replicas configured ([`ClntUdp::with_replicas`]) the call
    /// walks the replica ring from the sticky active index, one attempt
    /// per replica whose breaker admits it.
    pub fn exchange(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        if self.replicas.is_empty() {
            return self.attempt_one(request, xid);
        }
        // An attempt that ends in TimedOut/GaveUp feeds its breaker and
        // moves on; any reply (even a server-side error decoded upstream)
        // is liveness and closes the breaker.
        let n = self.replicas.len();
        let mut last_err = None;
        for k in 0..n {
            let idx = (self.active + k) % n;
            let now = self.sock.now();
            if !self.breakers[idx].allow(now) {
                continue;
            }
            if idx != self.active {
                self.sock.retarget(self.replicas[idx]);
                self.active = idx;
                self.failovers += 1;
            }
            match self.attempt_one(request, xid) {
                Ok(reply) => {
                    self.breakers[idx].on_success();
                    return Ok(reply);
                }
                Err(e @ (RpcError::TimedOut | RpcError::GaveUp { .. })) => {
                    let now = self.sock.now();
                    self.breakers[idx].on_failure(now);
                    last_err = Some(e);
                }
                Err(other) => return Err(other),
            }
        }
        // Every admitted replica failed this round, or every breaker was
        // open and nothing was even sent.
        match last_err {
            Some(e) => Err(e),
            None => Err(RpcError::HostDown(format!(
                "all {n} replicas refused by open circuit breakers"
            ))),
        }
    }

    /// An attempt of one against the current replica, its reply slot on
    /// the stack.
    fn attempt_one(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        let mut reply = [None];
        self.attempt(&[request], &[xid], &mut reply, true)?;
        let [reply] = reply;
        Ok(reply.expect("a completed attempt fills every slot"))
    }

    /// Pipelined batch of [`ClntUdp::exchange`]s: transmit **every**
    /// request before awaiting any reply, match replies to requests by
    /// xid as they arrive (in any order), and return them in submission
    /// order. On a per-try timeout every still-outstanding request is
    /// retransmitted (each counted in `retransmits`); the total timeout
    /// bounds the whole batch, and there is no failover.
    ///
    /// The N-1 overlapped round trips are where batching wins: wire
    /// latency and server dispatch for calls `1..N` overlap call `0`'s
    /// wait, so the fixed per-call overhead amortizes across the batch.
    /// Like [`ClntUdp::exchange`], every transmission copies the
    /// caller's request image into a pooled datagram and consumed stale
    /// replies recycle straight back, so a warm batch allocates nothing
    /// on the wire path. Queued one-way calls are flushed ahead of the
    /// batch, and its completion acknowledges them.
    ///
    /// # Panics
    /// Panics if `requests` and `xids` have different lengths.
    pub fn exchange_batch(
        &mut self,
        requests: &[&[u8]],
        xids: &[u32],
    ) -> Result<Vec<Vec<u8>>, RpcError> {
        assert_eq!(requests.len(), xids.len(), "one xid per request");
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let mut replies: Vec<Option<Vec<u8>>> = (0..requests.len()).map(|_| None).collect();
        self.attempt(requests, xids, &mut replies, false)?;
        Ok(replies
            .into_iter()
            .map(|r| r.expect("a completed attempt fills every slot"))
            .collect())
    }

    /// The transaction loop, against the replica the socket targets: put
    /// `requests` on the wire, fill `replies[i]` with the reply to
    /// `xids[i]`, and at each per-try timeout replay the unacknowledged
    /// one-way window and resend what is still outstanding. It ends when
    /// every slot is filled, which acknowledges the window; when the total
    /// timeout passes (`TimedOut`; the per-try deadline is clamped to it,
    /// so the last try cannot overshoot); or when the retry budget is spent
    /// (`GaveUp`). Both deadlines are virtual time, so a stale reply is
    /// charged the time it actually took, not a token decrement. On
    /// failure the replies that did arrive go back to the pool.
    ///
    /// A lone call's first try waits its procedure's timeout ([`Rtt`]),
    /// or `retry_timeout` before the procedure's first sample; a batch's
    /// first try waits `retry_timeout`. Each retransmission doubles the
    /// wait, capped at `retry_timeout`. A lone call answered on its first
    /// try folds its round trip into its procedure's estimate; any other
    /// lone call leaves its last wait as the procedure's next timeout.
    ///
    /// A `lone` call seals the queued one-ways into one envelope with its
    /// request when they fit, and resends that image whole; one-ways that
    /// do not fit, and a batch's, are flushed ahead into the window. A
    /// batch packs its requests into envelopes of at most the MTU and
    /// resends its stragglers plain: a lost envelope must not resend
    /// sub-messages that were already answered.
    fn attempt(
        &mut self,
        requests: &[&[u8]],
        xids: &[u32],
        replies: &mut [Option<Vec<u8>>],
        lone: bool,
    ) -> Result<(), RpcError> {
        for (r, &xid) in requests.iter().zip(xids) {
            debug_assert_eq!(
                r.get(..4),
                Some(&xid.to_be_bytes()[..]),
                "each request must start with its xid"
            );
        }
        let start = self.sock.now();
        let deadline = start + self.total_timeout;
        // A lone call's first try waits its procedure's estimate. A batch
        // waits `retry_timeout`: its replies queue behind their siblings,
        // so a lone round trip says nothing about when its last one lands.
        let proc_ = if lone { proc_word(requests[0]) } else { None };
        let mut wait = proc_
            .and_then(|p| self.rtt(p))
            .map_or(self.retry_timeout, |rtt| {
                rtt.timeout().min(self.retry_timeout)
            });
        let sealed = if lone {
            let sealed = self.seal_with_pending(requests[0]);
            let image = sealed.as_deref().unwrap_or(requests[0]);
            self.sock
                .send(datagram_in(self.kept.take(), &self.pool, image));
            sealed
        } else {
            self.flush_pending_oneways(FlushReason::Sync);
            self.send_packed(requests);
            None
        };
        let unpack = self.coalescer.is_some();
        let mut slots = Slots {
            xids,
            replies,
            outstanding: requests.len(),
        };
        let mut resent = 0u32;
        let result = loop {
            let try_deadline = (self.sock.now() + wait).min(deadline);
            while slots.outstanding > 0 {
                let now = self.sock.now();
                if now >= try_deadline {
                    break;
                }
                let Some(dg) = self.sock.recv(try_deadline - now) else {
                    break; // per-try timeout: retransmit
                };
                slots.route(&self.pool, unpack, dg);
                if slots.outstanding > 0 {
                    // What else has already been delivered, under one
                    // mailbox lock instead of a receive round per reply.
                    let mut buf = std::mem::take(&mut self.drain_buf);
                    self.sock
                        .drain_ready(&mut buf, |dg| slots.route(&self.pool, unpack, dg));
                    self.drain_buf = buf;
                }
            }
            if slots.outstanding == 0 {
                break Ok(());
            }
            if self.sock.now() >= deadline {
                break Err(RpcError::TimedOut);
            }
            if self.retry_budget.is_some_and(|budget| resent >= budget) {
                break Err(RpcError::GaveUp { tries: resent + 1 });
            }
            resent += 1;
            wait = (wait + wait).min(self.retry_timeout);
            // Unacknowledged one-way envelopes go ahead of the resend: a
            // lost one reaches the server after all, and a delivered one
            // is absorbed sub-message by sub-message in the
            // duplicate-request cache.
            if let Some(c) = &self.coalescer {
                for env in &c.window {
                    self.sock
                        .send(datagram_in(self.kept.take(), &self.pool, env));
                }
                self.retransmits += c.window.len() as u64;
            }
            for (r, reply) in requests.iter().zip(slots.replies.iter()) {
                if reply.is_none() {
                    // A lone call's sealed image goes whole.
                    let image = sealed.as_deref().unwrap_or(r);
                    self.sock
                        .send(datagram_in(self.kept.take(), &self.pool, image));
                    self.retransmits += 1;
                }
            }
        };
        match result {
            // The pipeline is acknowledged: the replies prove the server
            // saw everything sent ahead of them.
            Ok(()) => {
                if let Some(c) = self.coalescer.as_mut() {
                    while let Some(env) = c.window.pop() {
                        self.pool.put(env);
                    }
                }
            }
            Err(_) => {
                for reply in slots.replies.iter_mut().filter_map(Option::take) {
                    self.pool.put(reply);
                }
            }
        }
        if let Some(p) = proc_ {
            // Karn: a reply after a resend may answer either transmission,
            // so only a first try's is a sample.
            let sample = (result.is_ok() && resent == 0).then(|| self.sock.now() - start);
            self.settle_rtt(p, sample, wait);
        }
        if let Some(image) = sealed {
            self.pool.put(image);
        }
        result
    }

    /// The round-trip estimate of procedure `proc_`, once it has a sample.
    fn rtt(&self, proc_: u32) -> Option<Rtt> {
        self.rtts
            .iter()
            .find(|(p, _)| *p == proc_)
            .map(|&(_, rtt)| rtt)
    }

    /// Settle a lone call of procedure `proc_`: its first try's round trip
    /// `sample` folds into the estimate; without one, the procedure's next
    /// call first waits `wait`, this call's last (backed-off) wait.
    fn settle_rtt(&mut self, proc_: u32, sample: Option<SimTime>, wait: SimTime) {
        let rtt = self.rtts.iter_mut().find(|(p, _)| *p == proc_);
        match (rtt, sample) {
            (Some((_, rtt)), Some(r)) => rtt.sample(r.as_nanos()),
            (None, Some(r)) => self.rtts.push((proc_, Rtt::first(r.as_nanos()))),
            (Some((_, rtt)), None) => rtt.rto = wait.as_nanos(),
            // No sample yet: every try already waits `retry_timeout`.
            (None, None) => {}
        }
    }

    /// A batch's first transmission: its requests, in order, packed into
    /// envelopes of at most the coalescing MTU (every sub-message
    /// reply-expected, so the server coalesces the sub-replies on the way
    /// back); plain when the client does not coalesce, and for a request
    /// too large for any envelope.
    fn send_packed(&mut self, requests: &[&[u8]]) {
        let mtu = self.coalescer.as_ref().map_or(0, |c| c.policy.mtu);
        let mut env: Option<Vec<u8>> = None;
        for r in requests {
            let pushed = coalesce::pushed_len(r.len());
            if coalesce::ENVELOPE_HEADER_BYTES + pushed > mtu {
                self.sock.send(datagram_in(self.kept.take(), &self.pool, r));
                continue;
            }
            if env.as_ref().is_some_and(|e| e.len() + pushed > mtu) {
                self.sock.send(env.take().expect("checked above"));
            }
            let e = env.get_or_insert_with(|| {
                let mut e = self.pool.take(coalesce::ENVELOPE_HEADER_BYTES);
                coalesce::begin(&mut e);
                e
            });
            coalesce::push(e, r, false);
        }
        if let Some(e) = env {
            self.sock.send(e);
        }
    }

    /// `clnt_call`: the generic path. Marshals the call header and the
    /// arguments through the layered XDR routines into the client's one
    /// encoder buffer, performs the exchange, validates the reply header,
    /// and unmarshals results; the reply's buffer carries the next
    /// datagram ([`Transport::recycle`]).
    pub fn call(
        &mut self,
        proc_: u32,
        encode_args: &mut dyn FnMut(&mut dyn XdrStream) -> XdrResult,
        decode_results: &mut dyn FnMut(&mut dyn XdrStream) -> XdrResult,
    ) -> Result<(), RpcError> {
        let xid = self.next_xid();
        let mut enc = self
            .outbuf
            .take()
            .unwrap_or_else(|| XdrMem::encoder(UDP_BUF_SIZE));
        enc.reset_encode();
        let reply = self.call_over(&mut enc, xid, proc_, encode_args);
        self.outbuf = Some(enc);
        let mut dec = XdrMem::decoder_owned(reply?);
        let decoded = ReplyHeader::decode(&mut dec).map(|hdr| match hdr.to_error() {
            Some(err) => Err(err),
            None => decode_results(&mut dec).map_err(RpcError::from),
        });
        if decoded.is_ok() {
            self.counts += *dec.counts();
        }
        self.recycle(dec.into_bytes());
        decoded?
    }

    /// The encode and exchange of [`ClntUdp::call`], over `enc`.
    fn call_over(
        &mut self,
        enc: &mut XdrMem,
        xid: u32,
        proc_: u32,
        encode_args: &mut dyn FnMut(&mut dyn XdrStream) -> XdrResult,
    ) -> Result<Vec<u8>, RpcError> {
        let start = *enc.counts();
        let mut msg = CallHeader::new(xid, self.prog, self.vers, proc_);
        CallHeader::xdr(enc, &mut msg)?;
        encode_args(enc)?;
        self.counts += enc.counts().since(start);
        self.exchange(enc.bytes(), xid)
    }
}

impl Transport for ClntUdp {
    fn next_xid(&mut self) -> u32 {
        self.xids.next_xid()
    }

    fn call(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        self.exchange(request, xid)
    }

    fn call_batch(&mut self, requests: &[&[u8]], xids: &[u32]) -> Result<Vec<Vec<u8>>, RpcError> {
        self.exchange_batch(requests, xids)
    }

    fn call_oneway(&mut self, request: &[u8], xid: u32) -> Result<(), RpcError> {
        if self.coalescer.is_some() {
            self.queue_oneway(request, xid);
            Ok(())
        } else {
            // No batching surface configured: degrade to a blocking call
            // (keeps at-least-once) and discard the reply.
            let reply = self.exchange(request, xid)?;
            self.recycle(reply);
            Ok(())
        }
    }

    fn flush_oneways(&mut self) -> Result<(), RpcError> {
        self.flush_pending_oneways(FlushReason::Explicit);
        Ok(())
    }

    fn recycle(&mut self, reply: Vec<u8>) {
        if let Some(second) = self.kept.replace(reply) {
            self.pool.put(second);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svc::SvcRegistry;
    use specrpc_netsim::net::NetworkConfig;
    use specrpc_netsim::FaultConfig;
    use specrpc_xdr::composite::xdr_array;
    use specrpc_xdr::primitives::xdr_int;
    use std::sync::Arc;

    const PROG: u32 = 200_001;

    fn serve_udp(net: &Network, addr: Addr, registry: SvcRegistry) {
        crate::serve(net, Arc::new(registry), crate::ServeConfig::new(&[addr])).detach();
    }

    fn sum_service() -> SvcRegistry {
        let mut reg = SvcRegistry::new();
        reg.register(PROG, 1, 1, |_, args, results| {
            let mut v: Vec<i32> = Vec::new();
            xdr_array(args, &mut v, 100_000, xdr_int)?;
            let mut sum: i32 = v.iter().sum();
            xdr_int(results, &mut sum)?;
            Ok(())
        });
        reg
    }

    fn start(net: &Network, faults: bool) -> ClntUdp {
        let _ = faults;
        serve_udp(net, 111 + 900, sum_service());
        ClntUdp::create(net, 5000, 111 + 900, PROG, 1)
    }

    #[test]
    fn generic_call_round_trips() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        let mut out = 0i32;
        clnt.call(
            1,
            &mut |x| {
                let mut v = vec![1i32, 2, 3, 4];
                xdr_array(x, &mut v, 100, xdr_int)
            },
            &mut |x| xdr_int(x, &mut out),
        )
        .unwrap();
        assert_eq!(out, 10);
        assert!(clnt.counts.dispatches > 0, "generic path pays dispatches");
    }

    #[test]
    fn timeout_when_no_server() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(50);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
    }

    #[test]
    fn stale_replies_do_not_extend_total_timeout() {
        // A server that always answers with the wrong xid: every reply is
        // stale, so the call must still time out at ~total_timeout of
        // virtual time rather than being extended per stale datagram.
        let net = Network::new(NetworkConfig::lan(), 4);
        net.serve_udp(
            700,
            Box::new(|req, _| {
                let mut bogus = req.to_vec();
                bogus[0] ^= 0x80; // corrupt the xid word
                Some((bogus, SimTime::ZERO))
            }),
        );
        let mut clnt = ClntUdp::create(&net, 5000, 700, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(50);
        let start = net.now();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        let took = net.now() - start;
        assert!(
            took >= SimTime::from_millis(50) && took <= SimTime::from_millis(80),
            "timed out after {took:?}, expected ~50-80ms of virtual time"
        );
    }

    #[test]
    fn retransmission_survives_heavy_loss() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.4,
                duplicate: 0.1,
                reorder: 0.1,
            }),
            12345,
        );
        let mut clnt = start(&net, true);
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(5_000);
        let mut total_retransmits = 0;
        for round in 0..20 {
            let mut out = 0i32;
            clnt.call(
                1,
                &mut |x| {
                    let mut v = vec![round; 8];
                    xdr_array(x, &mut v, 100, xdr_int)
                },
                &mut |x| xdr_int(x, &mut out),
            )
            .unwrap();
            assert_eq!(out, round * 8);
            total_retransmits = clnt.retransmits;
        }
        assert!(total_retransmits > 0, "loss must have forced retries");
    }

    #[test]
    fn duplicate_replies_are_ignored_by_xid() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.0,
                duplicate: 0.5,
                reorder: 0.0,
            }),
            7,
        );
        let mut clnt = start(&net, true);
        for i in 0..10 {
            let mut out = 0i32;
            clnt.call(
                1,
                &mut |x| {
                    let mut v = vec![i, i];
                    xdr_array(x, &mut v, 100, xdr_int)
                },
                &mut |x| xdr_int(x, &mut out),
            )
            .unwrap();
            assert_eq!(out, 2 * i);
        }
    }

    #[test]
    fn batch_replies_come_back_in_submission_order() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        let mut requests = Vec::new();
        let mut xids = Vec::new();
        for i in 0..5i32 {
            let xid = clnt.next_xid();
            let mut enc = XdrMem::encoder(256);
            let mut msg = CallHeader::new(xid, PROG, 1, 1);
            CallHeader::xdr(&mut enc, &mut msg).unwrap();
            let mut v = vec![i; 3];
            xdr_array(&mut enc, &mut v, 100, xdr_int).unwrap();
            requests.push(enc.into_bytes());
            xids.push(xid);
        }
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let replies = clnt.exchange_batch(&refs, &xids).unwrap();
        assert_eq!(replies.len(), 5);
        for (i, reply) in replies.iter().enumerate() {
            let mut dec = XdrMem::decoder(reply);
            let hdr = ReplyHeader::decode(&mut dec).unwrap();
            assert_eq!(hdr.xid, xids[i], "submission order preserved");
            let mut sum = 0i32;
            xdr_int(&mut dec, &mut sum).unwrap();
            assert_eq!(sum, i as i32 * 3);
        }
        assert_eq!(clnt.retransmits, 0);
    }

    #[test]
    fn batch_retransmits_only_the_outstanding_requests() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.4,
                duplicate: 0.0,
                reorder: 0.2,
            }),
            99,
        );
        let mut clnt = start(&net, true);
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(10_000);
        let mut requests = Vec::new();
        let mut xids = Vec::new();
        for i in 0..8i32 {
            let xid = clnt.next_xid();
            let mut enc = XdrMem::encoder(256);
            let mut msg = CallHeader::new(xid, PROG, 1, 1);
            CallHeader::xdr(&mut enc, &mut msg).unwrap();
            let mut v = vec![i, i];
            xdr_array(&mut enc, &mut v, 100, xdr_int).unwrap();
            requests.push(enc.into_bytes());
            xids.push(xid);
        }
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let replies = clnt.exchange_batch(&refs, &xids).unwrap();
        for (i, reply) in replies.iter().enumerate() {
            let mut dec = XdrMem::decoder(reply);
            let hdr = ReplyHeader::decode(&mut dec).unwrap();
            assert_eq!(hdr.xid, xids[i]);
        }
        assert!(clnt.retransmits > 0, "loss must have forced retries");
        assert!(
            clnt.retransmits < 8 * 10,
            "only stragglers retransmit, not the whole batch forever"
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        assert_eq!(
            clnt.exchange_batch(&[], &[]).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    #[test]
    fn server_error_propagates() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        // Unknown procedure.
        let err = clnt.call(42, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::ProcUnavail);
    }

    #[test]
    fn total_timeout_is_a_hard_bound() {
        // retry_timeout 30ms with total_timeout 50ms: the second try's
        // deadline must clamp to the 50ms bound instead of overshooting
        // to 60ms (the pre-fix behavior).
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(30);
        clnt.total_timeout = SimTime::from_millis(50);
        let start = net.now();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        let took = net.now() - start;
        assert_eq!(
            took,
            SimTime::from_millis(50),
            "per-try deadline must clamp to the total bound, took {took}"
        );
    }

    #[test]
    fn batch_total_timeout_is_a_hard_bound() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(30);
        clnt.total_timeout = SimTime::from_millis(50);
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(64);
        let mut msg = CallHeader::new(xid, PROG, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let request = enc.into_bytes();
        let start = net.now();
        let err = clnt
            .exchange_batch(&[request.as_slice()], &[xid])
            .unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert_eq!(net.now() - start, SimTime::from_millis(50));
    }

    #[test]
    fn retry_budget_gives_up_before_the_clock() {
        // Budget of 2 retransmissions: first try + 2 retries = 3 sends,
        // then GaveUp — well before the 10s total timeout.
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1).with_retry_budget(2);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(10_000);
        let start = net.now();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::GaveUp { tries: 3 });
        assert_eq!(clnt.retransmits, 2);
        assert!(
            net.now() - start < SimTime::from_millis(50),
            "gave up on the budget, not the clock"
        );
    }

    #[test]
    fn failover_moves_to_a_live_backup_and_sticks() {
        // Primary 999 is dead; backup serves. The first call fails over
        // (one failover), later calls start on the survivor directly.
        let net = Network::new(NetworkConfig::lan(), 3);
        let backup = 111 + 900;
        serve_udp(&net, backup, sum_service());
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1).with_replicas(&[backup]);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(30);
        for round in 0..3i32 {
            let mut out = 0i32;
            clnt.call(
                1,
                &mut |x| {
                    let mut v = vec![round; 4];
                    xdr_array(x, &mut v, 100, xdr_int)
                },
                &mut |x| xdr_int(x, &mut out),
            )
            .unwrap();
            assert_eq!(out, round * 4);
        }
        assert_eq!(clnt.failovers, 1, "sticky: only the first call moves");
        assert_eq!(clnt.sock.peer_addr(), backup);
    }

    #[test]
    fn open_breakers_fail_fast_with_host_down() {
        use crate::breaker::CircuitBreaker;
        // Both replicas dead, breakers tripping on the first failure:
        // call 1 burns real (virtual) time on both hosts, call 2 is
        // refused instantly without a single datagram.
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1)
            .with_replicas(&[998])
            .with_breaker(CircuitBreaker::new(1, SimTime::from_millis(500)));
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(20);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert_eq!(clnt.breaker_trips(), 2, "both hosts tripped");
        let before = net.now();
        let sends_before = clnt.retransmits;
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, RpcError::HostDown(_)), "got {err:?}");
        assert_eq!(net.now(), before, "fail-fast: no virtual time burned");
        assert_eq!(clnt.retransmits, sends_before, "nothing was sent");
    }

    #[test]
    fn half_open_probe_recovers_after_cooldown() {
        use crate::breaker::CircuitBreaker;
        // Single host, breaker trips, the host comes back during the
        // cooldown: the half-open probe after the cooldown succeeds and
        // the breaker closes again.
        let net = Network::new(NetworkConfig::lan(), 3);
        let addr = 111 + 900;
        let mut clnt = ClntUdp::create(&net, 5000, addr, PROG, 1)
            .with_replicas(&[])
            .with_breaker(CircuitBreaker::new(1, SimTime::from_millis(50)));
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(20);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert!(matches!(
            clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err(),
            RpcError::HostDown(_)
        ));
        // The server appears; once the cooldown elapses the probe lands.
        serve_udp(&net, addr, sum_service());
        net.advance(SimTime::from_millis(60));
        let mut out = 0i32;
        clnt.call(
            1,
            &mut |x| {
                let mut v = vec![2i32, 3];
                xdr_array(x, &mut v, 100, xdr_int)
            },
            &mut |x| xdr_int(x, &mut out),
        )
        .unwrap();
        assert_eq!(out, 5);
        assert_eq!(clnt.breaker_trips(), 1);
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_service(runs: Arc<AtomicU64>) -> SvcRegistry {
        let mut reg = SvcRegistry::new();
        reg.register(PROG, 1, 1, move |_, args, results| {
            runs.fetch_add(1, Ordering::Relaxed);
            let mut v: Vec<i32> = Vec::new();
            xdr_array(args, &mut v, 100_000, xdr_int)?;
            let mut sum: i32 = v.iter().sum();
            xdr_int(results, &mut sum)?;
            Ok(())
        });
        reg
    }

    fn encode_sum(clnt: &mut ClntUdp, vals: &[i32]) -> (Vec<u8>, u32) {
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(256);
        let mut msg = CallHeader::new(xid, PROG, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut v = vals.to_vec();
        xdr_array(&mut enc, &mut v, 100, xdr_int).unwrap();
        (enc.into_bytes(), xid)
    }

    /// `calls` fresh sum requests through one lone exchange (`batch`
    /// unset, `calls` 1) or one batch: each reply checked, the xids
    /// returned.
    fn exchange_sums(clnt: &mut ClntUdp, batch: bool, calls: i32) -> Vec<u32> {
        let (requests, xids): (Vec<_>, Vec<_>) =
            (0..calls).map(|k| encode_sum(clnt, &[10, 20 + k])).unzip();
        let replies = if batch {
            let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
            clnt.exchange_batch(&refs, &xids).unwrap()
        } else {
            assert_eq!(calls, 1, "a lone call");
            vec![clnt.exchange(&requests[0], xids[0]).unwrap()]
        };
        for (k, reply) in replies.iter().enumerate() {
            let mut dec = XdrMem::decoder(reply);
            let hdr = ReplyHeader::decode(&mut dec).unwrap();
            assert_eq!(hdr.xid, xids[k], "batch {batch}");
            let mut sum = 0i32;
            xdr_int(&mut dec, &mut sum).unwrap();
            assert_eq!(sum, 30 + k as i32, "batch {batch}");
        }
        xids
    }

    #[test]
    fn oneway_batch_seals_into_one_datagram_with_the_sync_call() {
        // Three queued one-ways, then a lone call or a batch of two: either
        // carries them, and its completion acknowledges them. The lone call
        // seals them into its own datagram; the batch flushes them ahead in
        // one envelope and packs its calls into another.
        use crate::coalesce::CoalescePolicy;
        for batch in [false, true] {
            let net = Network::new(NetworkConfig::lan(), 3);
            let runs = Arc::new(AtomicU64::new(0));
            serve_udp(&net, 1011, counting_service(runs.clone()));
            let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
                .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(10)));
            let before = net.link_stats().datagrams;
            for i in 0..3i32 {
                let (req, xid) = encode_sum(&mut clnt, &[i, i]);
                clnt.call_oneway(&req, xid).unwrap();
            }
            assert_eq!(runs.load(Ordering::Relaxed), 0, "queued, not sent");
            let calls = if batch { 2 } else { 1 };
            exchange_sums(&mut clnt, batch, calls);
            assert_eq!(
                runs.load(Ordering::Relaxed),
                3 + calls as u64,
                "every handler ran once, batch {batch}"
            );
            // Lone: one sealed request envelope, one plain reply. Batch:
            // the one-ways' envelope, the calls' envelope, one reply
            // envelope.
            assert_eq!(
                net.link_stats().datagrams - before,
                if batch { 3 } else { 2 },
                "batch {batch}"
            );
            let stats = clnt.coalesce_stats().expect("coalescing on");
            assert_eq!(stats.oneways_queued, 3);
            assert_eq!(stats.flushes_sync, 1, "batch {batch}");
            assert_eq!(stats.pending_submessages, 0, "batch {batch}");
            assert_eq!(stats.unacked_envelopes, 0, "acked, batch {batch}");
        }
    }

    #[test]
    fn a_retransmission_replays_the_unacked_window() {
        // Three one-ways flushed into a cut link are lost, and so is the
        // first try of the lone call or batch behind them. The link heals
        // before the per-try timeout, and the retransmission replays their
        // envelope ahead of the resend: every handler runs once.
        use crate::coalesce::CoalescePolicy;
        use specrpc_netsim::{ChaosEvent, ChaosSchedule};
        for batch in [false, true] {
            let net = Network::new(NetworkConfig::lan(), 3);
            let runs = Arc::new(AtomicU64::new(0));
            serve_udp(&net, 1011, counting_service(runs.clone()));
            let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
                .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(10)));
            clnt.retry_timeout = SimTime::from_millis(20);
            net.partition(5000, 1011);
            let heal = net.now() + SimTime::from_millis(5);
            net.apply_chaos(&ChaosSchedule::new().at(heal, ChaosEvent::Heal(5000, 1011)));
            for i in 0..3i32 {
                let (req, xid) = encode_sum(&mut clnt, &[i]);
                clnt.call_oneway(&req, xid).unwrap();
            }
            clnt.flush_oneways().unwrap();
            let calls = if batch { 2 } else { 1 };
            exchange_sums(&mut clnt, batch, calls);
            assert_eq!(
                runs.load(Ordering::Relaxed),
                3 + calls as u64,
                "every handler ran once, batch {batch}"
            );
            assert_eq!(
                clnt.retransmits,
                1 + calls as u64,
                "the window's envelope, then each call, batch {batch}"
            );
            let stats = clnt.coalesce_stats().expect("coalescing on");
            assert_eq!(stats.unacked_envelopes, 0, "acked, batch {batch}");
        }
    }

    #[test]
    fn per_call_policy_sends_one_datagram_per_oneway() {
        use crate::coalesce::CoalescePolicy;
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, counting_service(runs.clone()));
        let mut clnt =
            ClntUdp::create(&net, 5000, 1011, PROG, 1).with_coalescing(CoalescePolicy::per_call());
        let before = net.link_stats().datagrams;
        for i in 0..3i32 {
            let (req, xid) = encode_sum(&mut clnt, &[i]);
            clnt.call_oneway(&req, xid).unwrap();
        }
        let (req, xid) = encode_sum(&mut clnt, &[7]);
        let reply = clnt.exchange(&req, xid).unwrap();
        assert_eq!(u32::from_be_bytes(reply[0..4].try_into().unwrap()), xid);
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        // 3 solo one-way envelopes (replies suppressed) + sync + its
        // reply: the per-call baseline pays one datagram per call.
        assert_eq!(net.link_stats().datagrams - before, 5);
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.flushes_mtu, 3, "MTU 0 flushes every push");
        assert_eq!(stats.unacked_envelopes, 0);
    }

    #[test]
    fn coalesced_retransmits_execute_each_handler_exactly_once() {
        use crate::coalesce::CoalescePolicy;
        // Loss-faulted link: a lost sealed envelope is retransmitted
        // whole, a lost reply forces a duplicate envelope delivery — in
        // both cases the duplicate-request cache must keep every inner
        // xid at exactly one handler execution.
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.3,
                duplicate: 0.1,
                reorder: 0.1,
            }),
            97,
        );
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, counting_service(runs.clone()));
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(50)));
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(5_000);
        const ROUNDS: u64 = 20;
        for round in 0..ROUNDS {
            for i in 0..3i32 {
                let (req, xid) = encode_sum(&mut clnt, &[round as i32, i]);
                clnt.call_oneway(&req, xid).unwrap();
            }
            let (req, xid) = encode_sum(&mut clnt, &[1, 2, 3]);
            let reply = clnt.exchange(&req, xid).unwrap();
            assert_eq!(u32::from_be_bytes(reply[0..4].try_into().unwrap()), xid);
        }
        assert!(clnt.retransmits > 0, "loss must have forced retries");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            ROUNDS * 4,
            "exactly-once execution for every coalesced sub-message"
        );
    }

    #[test]
    fn linger_bound_flushes_aged_oneways() {
        use crate::coalesce::CoalescePolicy;
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, counting_service(runs.clone()));
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_micros(100)));
        let (req, xid) = encode_sum(&mut clnt, &[1]);
        clnt.call_oneway(&req, xid).unwrap();
        net.advance(SimTime::from_millis(1));
        // The next queue notices the aged batch and flushes it first.
        let (req, xid) = encode_sum(&mut clnt, &[2]);
        clnt.call_oneway(&req, xid).unwrap();
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.flushes_linger, 1);
        assert_eq!(stats.pending_submessages, 1, "second call still queued");
        clnt.flush_oneways().unwrap();
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.flushes_explicit, 1);
        assert_eq!(stats.pending_submessages, 0);
        // Both one-ways execute once time runs; the sync call acks.
        let (req, xid) = encode_sum(&mut clnt, &[3]);
        clnt.exchange(&req, xid).unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(
            clnt.coalesce_stats().unwrap().unacked_envelopes,
            0,
            "sync reply acknowledged the flushed envelopes"
        );
    }

    #[test]
    fn envelopes_falling_off_the_replay_window_are_counted() {
        use crate::coalesce::{CoalescePolicy, WINDOW_CAP};
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, counting_service(runs.clone()));
        // A 64-byte MTU: every one-way fills its envelope and flushes.
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(64, SimTime::from_millis(1_000)));
        const FLUSHED: u64 = 40;
        for i in 0..FLUSHED as i32 {
            let (req, xid) = encode_sum(&mut clnt, &[i, i, i]);
            clnt.call_oneway(&req, xid).unwrap();
        }
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.flushes_mtu, FLUSHED, "one full envelope per call");
        assert_eq!(stats.unacked_envelopes, WINDOW_CAP);
        assert_eq!(
            stats.window_evictions,
            FLUSHED - WINDOW_CAP as u64,
            "no sync call acknowledged anything: the oldest eight fell off"
        );
        // They were transmitted once all the same (a clean link here).
        let (req, xid) = encode_sum(&mut clnt, &[1]);
        clnt.exchange(&req, xid).unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), FLUSHED + 1);
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.unacked_envelopes, 0);
        assert_eq!(stats.window_evictions, 8, "an ack does not un-count them");
    }

    #[test]
    fn oneway_without_coalescing_degrades_to_a_blocking_call() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, counting_service(runs.clone()));
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1);
        assert!(clnt.coalesce_stats().is_none());
        let (req, xid) = encode_sum(&mut clnt, &[5]);
        clnt.call_oneway(&req, xid).unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 1, "ran synchronously");
    }

    #[test]
    fn coalesced_batch_packs_requests_and_unpacks_coalesced_replies() {
        use crate::coalesce::CoalescePolicy;
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, counting_service(runs.clone()));
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(10)));
        let before = net.link_stats().datagrams;
        let mut requests = Vec::new();
        let mut xids = Vec::new();
        for i in 0..5i32 {
            let (req, xid) = encode_sum(&mut clnt, &[i; 3]);
            requests.push(req);
            xids.push(xid);
        }
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let replies = clnt.exchange_batch(&refs, &xids).unwrap();
        for (i, reply) in replies.iter().enumerate() {
            let mut dec = XdrMem::decoder(reply);
            let hdr = ReplyHeader::decode(&mut dec).unwrap();
            assert_eq!(hdr.xid, xids[i], "submission order preserved");
            let mut sum = 0i32;
            xdr_int(&mut dec, &mut sum).unwrap();
            assert_eq!(sum, i as i32 * 3);
        }
        assert_eq!(runs.load(Ordering::Relaxed), 5);
        assert_eq!(
            net.link_stats().datagrams - before,
            2,
            "five calls in one request envelope, five replies in one"
        );
        assert_eq!(clnt.retransmits, 0);
    }

    #[test]
    fn exchange_matches_only_own_xid() {
        let net = Network::new(NetworkConfig::lan(), 3);
        // Server echoes with a WRONG xid: client must keep waiting and
        // eventually time out.
        let reg_addr = 777;
        net.serve_udp(
            reg_addr,
            Box::new(|req, _| {
                let mut reply = req.to_vec();
                reply[0] ^= 0xff;
                Some((reply, SimTime::from_micros(10)))
            }),
        );
        let mut clnt = ClntUdp::create(&net, 5001, reg_addr, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(5);
        clnt.total_timeout = SimTime::from_millis(20);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
    }

    #[test]
    fn the_next_datagram_is_built_in_the_recycled_reply() {
        use crate::bufpool::PoolStats;
        let net = Network::new(NetworkConfig::lan(), 3);
        let server = net.bind_udp(700);
        let pool = Arc::new(BufPool::new());
        // Nobody answers: each exchange sends its one try and gives up.
        let mut clnt =
            ClntUdp::create_pooled(&net, 5000, 700, PROG, 1, pool.clone()).with_retry_budget(0);
        let send = |clnt: &mut ClntUdp, request: &[u8]| {
            let err = clnt.exchange(request, 7).unwrap_err();
            assert_eq!(err, RpcError::GaveUp { tries: 1 });
            let dg = server.recv_timeout(SimTime::from_millis(5)).expect("sent");
            assert_eq!(dg.payload, request);
            dg.payload
        };
        let (small, large) = (
            [0, 0, 0, 7, 1, 2, 3, 4],
            [&[0, 0, 0, 7][..], &[9; 96]].concat(),
        );

        // A consumed reply too small for the next request grows to exactly
        // that request, without a pool round trip.
        clnt.recycle(Vec::with_capacity(small.len()));
        let sent = send(&mut clnt, &large);
        assert_eq!(sent.capacity(), large.len(), "grown exactly, not doubled");
        assert_eq!(pool.stats(), PoolStats::default(), "no pool round trip");

        // One that fits is used as it is, whichever image is larger.
        let sent_at = sent.as_ptr();
        clnt.recycle(sent);
        let sent = send(&mut clnt, &small);
        assert_eq!((sent.as_ptr(), sent.capacity()), (sent_at, large.len()));
        assert_eq!(pool.stats(), PoolStats::default(), "no pool round trip");

        // The slot is one deep: of two recycled replies one goes to the
        // pool, and with the slot empty a datagram comes from there.
        clnt.recycle(sent);
        clnt.recycle(Vec::with_capacity(16));
        assert_eq!(pool.parked(), 1);
        send(&mut clnt, &small);
        assert_eq!(pool.stats().hits, 0, "the kept buffer first");
        send(&mut clnt, &small);
        assert_eq!((pool.stats().hits, pool.parked()), (1, 0));
    }

    // The per-procedure round-trip estimator, against a mirror server
    // whose round trip is exact: every datagram it answers costs the link
    // two traversals plus the procedure's fixed processing time.

    use std::sync::Mutex;

    const MIRROR: Addr = 700;
    const FAST: SimTime = SimTime::from_micros(50);

    /// A server at [`MIRROR`] that answers each request with its own bytes
    /// after `reply(p, k)`, `p` the request's procedure word and `k` the
    /// datagram's count from 0, or loses it where that is `None`. Returns
    /// the virtual instant each datagram arrived at.
    fn mirror(
        net: &Network,
        reply: impl Fn(u32, usize) -> Option<SimTime> + Send + 'static,
    ) -> Arc<Mutex<Vec<SimTime>>> {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let (seen, clock) = (arrivals.clone(), net.clone());
        net.serve_udp(
            MIRROR,
            Box::new(move |req, _| {
                let mut seen = seen.lock().unwrap();
                seen.push(clock.now());
                let p = proc_word(req).expect("a call header");
                reply(p, seen.len() - 1).map(|t| (req.to_vec(), t))
            }),
        );
        arrivals
    }

    /// One bare call of procedure `proc_` (its header is the whole
    /// request), answered or not.
    fn bare_call(clnt: &mut ClntUdp, proc_: u32) -> Result<(), RpcError> {
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(64);
        let mut msg = CallHeader::new(xid, PROG, 1, proc_);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let reply = clnt.exchange(&enc.into_bytes(), xid)?;
        clnt.recycle(reply);
        Ok(())
    }

    /// A client of a fresh [`mirror`] that has made `warm` clean calls of
    /// procedure 1, and its network and arrivals.
    fn warmed(
        warm: usize,
        lose: impl Fn(usize) -> bool + Send + 'static,
    ) -> (Network, ClntUdp, Arc<Mutex<Vec<SimTime>>>) {
        let net = Network::new(NetworkConfig::lan(), 3);
        let arrivals = mirror(&net, move |_, k| (!lose(k)).then_some(FAST));
        let mut clnt = ClntUdp::create(&net, 5000, MIRROR, PROG, 1);
        for _ in 0..warm {
            bare_call(&mut clnt, 1).unwrap();
        }
        (net, clnt, arrivals)
    }

    fn times(t: SimTime, k: u64) -> SimTime {
        SimTime::from_nanos(t.as_nanos() * k)
    }

    #[test]
    fn a_constant_round_trip_never_fires_and_settles_at_two_round_trips() {
        let (net, mut clnt, _) = warmed(0, |_| false);
        let mut rtt = SimTime::ZERO;
        for _ in 0..1_000 {
            let start = net.now();
            bare_call(&mut clnt, 1).unwrap();
            rtt = net.now() - start;
        }
        assert_eq!(clnt.retransmits, 0);
        let est = clnt.rtt(1).expect("sampled");
        assert_eq!((est.srtt, est.rttvar), (rtt.as_nanos(), 0));
        assert_eq!(est.timeout(), rtt + rtt);
        assert!(
            est.timeout() < clnt.retry_timeout,
            "{} against {}",
            est.timeout(),
            clnt.retry_timeout
        );
    }

    #[test]
    fn a_lost_request_is_resent_after_the_estimate_not_cu_wait() {
        let (_net, mut clnt, arrivals) = warmed(20, |k| k == 20);
        let rto = clnt.rtt(1).expect("sampled").timeout();
        assert!(times(rto, 100) < clnt.retry_timeout, "{rto}");
        bare_call(&mut clnt, 1).unwrap();
        assert_eq!(clnt.retransmits, 1);
        let arrivals = arrivals.lock().unwrap();
        assert_eq!(arrivals.len(), 22, "20 warm, the lost try, the resend");
        assert_eq!(arrivals[21] - arrivals[20], rto);
    }

    #[test]
    fn a_call_answered_after_a_resend_leaves_the_estimate_alone() {
        // Karn: the reply may answer either transmission, so the
        // resent call's round trip — the timeout plus one round trip,
        // far from the estimate — is no sample. Its doubled wait is the
        // procedure's next timeout until a clean call samples again.
        let (net, mut clnt, arrivals) = warmed(20, |k| k == 20);
        let before = clnt.rtt(1).expect("sampled");
        let start = net.now();
        bare_call(&mut clnt, 1).unwrap();
        assert_eq!(clnt.retransmits, 1);
        assert!(net.now() - start > before.timeout());
        let after = clnt.rtt(1).expect("sampled");
        assert_eq!((after.srtt, after.rttvar), (before.srtt, before.rttvar));
        assert_eq!(after.timeout(), times(before.timeout(), 2));
        // The next call is answered inside its backed-off wait, and its
        // sample recomputes the timeout.
        bare_call(&mut clnt, 1).unwrap();
        assert_eq!((clnt.retransmits, arrivals.lock().unwrap().len()), (1, 23));
        let resampled = clnt.rtt(1).expect("sampled");
        assert_ne!(resampled, after);
        assert_eq!(resampled.rto, resampled.estimate());
    }

    #[test]
    fn waits_double_up_to_cu_wait_and_the_total_timeout_still_ends_the_call() {
        // Everything after the warm calls is lost. With `retry_timeout`
        // at 8 estimates the tries wait 1, 2, 4, 8, 8, … estimates, and
        // the total timeout cuts the sixth try's wait to 4.
        let (net, mut clnt, arrivals) = warmed(20, |k| k >= 20);
        let rto = clnt.rtt(1).expect("sampled").timeout();
        clnt.retry_timeout = times(rto, 8);
        clnt.total_timeout = times(rto, 27);
        let start = net.now();
        assert_eq!(bare_call(&mut clnt, 1), Err(RpcError::TimedOut));
        assert_eq!(net.now() - start, clnt.total_timeout);
        assert_eq!(clnt.retransmits, 5);
        let arrivals = arrivals.lock().unwrap();
        let waits: Vec<SimTime> = arrivals[20..].windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(waits, [1, 2, 4, 8, 8].map(|k| times(rto, k)));
        // The procedure's next call starts from the backed-off wait.
        assert_eq!(clnt.rtt(1).expect("sampled").timeout(), clnt.retry_timeout);
    }

    #[test]
    fn a_slow_procedure_does_not_move_a_fast_ones_timeout() {
        // Procedure 2's round trip is ten times procedure 1's. Mixed on
        // one client, neither times out and procedure 1's estimate is
        // exactly what a client calling only procedure 1 holds.
        fn proc_time(p: u32) -> SimTime {
            if p == 2 {
                SimTime::from_micros(3_300)
            } else {
                FAST
            }
        }
        fn rtt_of(clnt: &mut ClntUdp, net: &Network, p: u32) -> SimTime {
            let start = net.now();
            bare_call(clnt, p).unwrap();
            net.now() - start
        }
        let (mixed_net, only_net) = (
            Network::new(NetworkConfig::lan(), 3),
            Network::new(NetworkConfig::lan(), 3),
        );
        mirror(&mixed_net, |p, _| Some(proc_time(p)));
        mirror(&only_net, |p, _| Some(proc_time(p)));
        let mut mixed = ClntUdp::create(&mixed_net, 5000, MIRROR, PROG, 1);
        let mut only = ClntUdp::create(&only_net, 5000, MIRROR, PROG, 1);
        let (mut fast, mut slow) = (SimTime::ZERO, SimTime::ZERO);
        for _ in 0..50 {
            fast = rtt_of(&mut mixed, &mixed_net, 1);
            slow = rtt_of(&mut mixed, &mixed_net, 2);
            rtt_of(&mut only, &only_net, 1);
        }
        assert!(
            times(fast, 10) <= slow && slow < times(fast, 11),
            "{fast} {slow}"
        );
        assert_eq!(mixed.retransmits, 0);
        assert_eq!(mixed.rtt(1), only.rtt(1));
        assert_eq!(mixed.rtt(2).expect("sampled").srtt, slow.as_nanos());
    }

    #[test]
    fn a_round_trip_that_grows_for_good_is_relearned_not_resent_every_call() {
        // After 50 calls the server's processing time rises from 50 µs to
        // 1.5 ms and stays there. The backed-off wait carries from call to
        // call until one is answered without a resend, so a handful of
        // calls resend and the estimate settles on the new round trip.
        const SLOW: SimTime = SimTime::from_micros(1_500);
        let net = Network::new(NetworkConfig::lan(), 3);
        // The first 50 datagrams are the first 50 calls: none resends.
        mirror(&net, |_, k| Some(if k < 50 { FAST } else { SLOW }));
        let mut clnt = ClntUdp::create(&net, 5000, MIRROR, PROG, 1);
        let mut rtt = SimTime::ZERO;
        for _ in 0..150 {
            let start = net.now();
            bare_call(&mut clnt, 1).unwrap();
            rtt = net.now() - start;
        }
        assert!(clnt.retransmits <= 4, "{} resends", clnt.retransmits);
        let est = clnt.rtt(1).expect("sampled");
        assert!(
            est.srtt.abs_diff(rtt.as_nanos()) <= rtt.as_nanos() / 100,
            "SRTT {} ns against a {rtt} round trip",
            est.srtt
        );
        assert!(est.timeout() > rtt, "{} {rtt}", est.timeout());
    }
}

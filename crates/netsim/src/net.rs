//! The event-driven virtual-time network core.
//!
//! A [`Network`] is a discrete-event simulator: a send first *occupies the
//! sender's link* (serialization at `ns_per_byte`, queued behind the
//! sender's previous transmissions), then schedules the delivery event at
//! `tx_done + latency`; the run loop pops events in time order, advancing
//! the virtual clock. Servers are *processors* — callbacks run on the
//! datagrams queued at their address — while the test driver plays the
//! client, blocking in [`Network::run_until`]-style waits that advance the
//! clock.
//!
//! Determinism: all randomness (fault injection) is seeded, event ties are
//! broken by sequence number, and no wall-clock time is consulted; two runs
//! with the same seed produce byte- and time-identical traces.
//!
//! # Link model
//!
//! Both transports charge wire time the same way — the link is a shared
//! serial resource, not an infinitely parallel one:
//!
//! * **TCP** serializes per connection *direction* through
//!   `ConnState::busy_until`: each record starts transmitting when the
//!   previous one in that direction has finished
//!   (`start = max(now, busy_until)`, `tx_done = start + bytes·ns_per_byte`,
//!   delivery at `tx_done + latency`).
//! * **UDP** serializes per sending *endpoint* through the same formula
//!   (`NetInner::udp_busy`): back-to-back datagrams from one address queue
//!   behind each other cumulatively, so a pipelined batch of N size-S
//!   datagrams occupies the wire for at least `N·S·ns_per_byte` — exactly
//!   like the TCP path, and unlike the pre-PR-8 model that charged every
//!   datagram independently (letting a 64-deep batch transmit in zero
//!   cumulative wire time).
//!
//! For a *solitary* datagram the two orderings commute
//! (`now + tx + latency == now + latency + tx`), so single-call round-trip
//! timings are unchanged by the occupancy model; only overlapping traffic
//! from one endpoint shifts.
//!
//! **Per-packet cost** (opt-in): with
//! [`NetworkConfig::with_datagram_cost`] / [`NetworkConfig::with_mtu`]
//! every UDP send charges `(payload + header_bytes)·ns_per_byte +
//! per_datagram_ns` *per MTU-sized fragment* — so 64 tiny calls sent
//! one-per-packet pay 64 packet taxes, while the same calls coalesced
//! into a few MTU-filling datagrams pay only a few. The defaults (no
//! header, no fixed cost, unbounded MTU) keep every pre-existing trace
//! byte- and time-identical.
//!
//! Fault verdicts compose **on top of** occupancy: every judged datagram
//! (including dropped ones — the sender did transmit it) charges exactly
//! one serialization interval; a [`Verdict::Duplicate`] delivers twice but
//! occupies the wire once, and [`Verdict::Delay`] jitter is added after
//! `tx_done + latency` — a delayed datagram can never arrive earlier than
//! a busy link allows.
//!
//! Receive side: a delivery to a bound endpoint lands in its mailbox, a
//! bounded drop-tail queue. When the mailbox already holds
//! [`NetworkConfig::rx_queue_cap`] datagrams the delivery is silently
//! dropped — like a kernel socket buffer overflowing — and counted in
//! [`Network::link_stats`] (`queue_drops`, plus the high-water depth
//! `queue_depth_high_water`). A delivery to a served address takes the
//! lane's one slot (see "The delivery lane" below), which a cap of 0
//! refuses the same way. The default cap is effectively unbounded;
//! congestion studies opt in via [`NetworkConfig::with_rx_queue_cap`].
//!
//! # Threading model
//!
//! [`Network`] is `Send + Sync`: every piece of simulator state lives
//! behind one `Arc<Mutex<NetInner>>`, so the virtual clock, the event
//! queue, and the traffic counters advance under a single lock and can be
//! shared freely across threads (handlers must be `Send`, not `Sync`:
//! server code is lent, never shared). The lock discipline of the
//! datagram path:
//!
//! * **The clock is read without the lock.** It is *written* only under
//!   the lock, through one setter that also publishes it to an atomic
//!   (Release); [`Network::now`] is an Acquire load. A handler in the
//!   middle of its invocation, or a thread that drives nothing, reads it
//!   freely and always sees an instant the simulation really was at.
//! * **One acquisition per routed delivery.** The acquisition that pops
//!   a datagram off the event queue also routes it — lifecycle-fault
//!   verdict, the lane's slot or a mailbox push, drop-tail accounting — so
//!   no other thread ever sees a popped-but-unrouted datagram. A blocked
//!   receive ([`Endpoint::recv_timeout`]) computes its deadline, looks at
//!   its mailbox and steps the simulation under one acquisition, which it
//!   gives up only to run user code.
//! * **Server code runs outside the lock**, so it may itself send traffic
//!   (re-entering the simulator). The datagram it works on counts as
//!   *pending* meanwhile (see "The delivery lane" below) and idle
//!   fast-forward on other threads waits for it. TCP deliveries and
//!   lifecycle faults also leave the lock, counted as `in_flight`.
//! * **Server code is lent, never shared.** The acquisition that takes a
//!   delivery out of the lane's slot also takes its address's processor
//!   out of the registration, and hands both to the thread that runs
//!   them; no other thread can reach that processor until it is back, so
//!   it runs with `&mut` access and no lock or reference count of its
//!   own.
//! * **A completion is one acquisition**: charging the processing time to
//!   the clock, putting the reply on the uplink from that instant, giving
//!   the processor back and retiring the pending count all mutate
//!   simulator state and none runs user code, so nothing is gained by
//!   releasing the lock between them. The driving thread keeps that
//!   acquisition for its next step. An unwinding processor is given back
//!   and its count retired through a guard instead.
//!
//! One mailbox ↔ server round trip therefore takes three acquisitions:
//! the send, the receive's acquisition (which pops the request, puts it
//! in the slot and takes it straight back out with the processor), and
//! the completion under which the reply is sent, delivered and received
//! (a unit test below pins the count).
//!
//! Determinism guarantees under threads: with a **single** driving thread
//! the trace is byte- and time-identical run to run (the seeded fault
//! stream, tie-breaking sequence numbers, and the single clock are all
//! funneled through the one lock). With **multiple** threads driving
//! `run_until` concurrently the simulation stays data-race-free and every
//! event is still delivered exactly once in virtual-time order, but which
//! thread pops which event — and therefore how idle-time clock advances
//! interleave — depends on OS scheduling; cross-thread traces are
//! reproducible only in their per-address payload contents, not in their
//! global timing.
//!
//! # Endpoint lifetime
//!
//! A mailbox exists while an [`Endpoint`] on its address does. Dropping
//! the last one unbinds the address: the mailbox goes, with whatever was
//! still in it, and so does the address's transmit-occupancy record
//! unless its uplink is still busy at that instant (then the record
//! stays, and a later bind of the address queues behind it). The tables
//! a delivery looks up therefore hold the endpoints that are alive, not
//! every endpoint there has ever been — a run that binds a million
//! one-call endpoints a few thousand at a time costs what a few thousand
//! cost. A datagram for an address with no registration and no live
//! endpoint is discarded and counted ([`Network::unbound_drops`]).
//!
//! "Busy" is judged against the clock at the drop. A server's
//! processing charge can run that clock ahead of events still queued,
//! so an address bound again inside such a stretch sends as a fresh
//! endpoint would, not behind its previous owner's last transmission.
//!
//! **Dropping user code.** That drop takes the simulator lock, and a
//! handler, factory or processor closure may own an `Endpoint`. So the
//! simulator never drops such a closure while it holds the lock:
//! whatever replaces or removes a registration ([`Network::serve_udp`]
//! over an existing one, [`Network::crash`],
//! [`Network::unserve_udp_events`], …) takes the old value out under the
//! lock and lets go of it after, and a lent processor whose registration
//! went while it was out is let go of the same way when it comes back.
//! New code in this module must keep to that.
//!
//! # The delivery lane
//!
//! There is one way a datagram reaches server code. Every served address
//! has a processor ([`Network::serve_udp_events_with`];
//! [`Network::serve_udp`] registers a stateful handler as one), and the
//! lane holds **one** datagram: a delivery to a served address is put in
//! the simulator's single slot under the lock, and taken out again,
//! together with its address's processor, by whoever processes it — a
//! driving thread in place, or a reactor thread that wins the race for it
//! with the nonblocking [`Network::poll_udp`] (sleeping in
//! [`Network::wait_ready`] in between).
//!
//! A delivery in the slot or checked out of it is *pending*, and while
//! one is, no driving thread pops another event: it takes the slot, or
//! waits for the completion. So at most one delivery is pending,
//! network-wide — Sun's `svc_run`, which takes one datagram, dispatches
//! it and answers before it takes the next. The processing time is
//! therefore charged, and the reply scheduled, from the exact virtual
//! instant the delivery happened, whichever thread does the work: a
//! reactor that wins the race produces the driver's trace, to the byte
//! and the nanosecond. It adds a hand-off, not parallelism.
//!
//! Waking costs a system call whether or not anyone is asleep, so the
//! lane asks first: threads parked in [`Network::wait_ready`] or in the
//! fast-forward guard count themselves under the lock, and a delivery or
//! a completion notifies only when the matching count is non-zero. A
//! single driver with no reactor threads never enters the kernel; a
//! reactor that is asleep is woken, on any host.

use crate::chaos::{ChaosEvent, ChaosSchedule, ChaosState, ChaosStats};
use crate::fault::{FaultConfig, FaultState, Verdict};
use crate::inthash::IntMap;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A network address (think UDP/TCP port; hosts are implicit — the paper's
/// testbed is two machines on one link). Wide enough for the scale
/// scenarios' ≥10⁶ simulated client endpoints (a 16-bit port space would
/// cap a "millions of users" run at 65 536 addresses).
pub type Addr = u32;

/// Identifier of a bound client endpoint.
pub type EndpointId = usize;

/// Identifier of a TCP connection.
pub type ConnId = usize;

/// Link parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// One-way propagation + stack traversal latency.
    pub latency: SimTime,
    /// Serialization cost per payload byte.
    pub ns_per_byte: u64,
    /// Datagram fault model (UDP only — see [`FaultConfig`]; the TCP
    /// model is a reliable byte pipe and never consults the fault
    /// stream).
    pub faults: FaultConfig,
    /// Bounded receive-queue depth (datagrams) per mailbox. A delivery
    /// to a full mailbox is dropped (drop-tail) and counted in
    /// [`Network::link_stats`]. A served address takes one delivery
    /// whatever the cap — the lane holds one datagram — and drops and
    /// counts at a cap of 0. `usize::MAX` (the default) is effectively
    /// unbounded.
    pub rx_queue_cap: usize,
    /// Protocol header bytes charged per UDP wire fragment on top of the
    /// payload (UDP/IP is 28; Ethernet framing would add more). `0` (the
    /// default) keeps the pre-existing payload-only cost model —
    /// existing traces stay byte- and time-identical.
    pub header_bytes: usize,
    /// Fixed per-fragment cost in nanoseconds (interrupt/stack traversal
    /// per packet) charged on top of serialization. `0` (the default)
    /// disables it.
    pub per_datagram_ns: u64,
    /// Maximum payload bytes per wire fragment: a UDP send larger than
    /// this is charged as `ceil(len/mtu)` fragments, each paying
    /// `header_bytes` and `per_datagram_ns` (IP fragmentation — the
    /// datagram still arrives whole, reassembly is free). `usize::MAX`
    /// (the default) never fragments.
    pub mtu: usize,
}

impl NetworkConfig {
    /// A clean fast LAN (defaults suitable for tests).
    pub fn lan() -> Self {
        NetworkConfig {
            latency: SimTime::from_micros(150),
            ns_per_byte: 80, // ≈ 100 Mbit/s
            faults: FaultConfig::NONE,
            rx_queue_cap: usize::MAX,
            header_bytes: 0,
            per_datagram_ns: 0,
            mtu: usize::MAX,
        }
    }

    /// Same link with the given fault model.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Same link with bounded drop-tail receive queues of `cap`
    /// datagrams (see [`NetworkConfig::rx_queue_cap`]).
    pub fn with_rx_queue_cap(mut self, cap: usize) -> Self {
        self.rx_queue_cap = cap;
        self
    }

    /// Same link with an honest per-packet cost: every UDP wire fragment
    /// charges `header_bytes` extra serialized bytes plus a fixed
    /// `per_datagram_ns` (see [`NetworkConfig::header_bytes`] /
    /// [`NetworkConfig::per_datagram_ns`]).
    pub fn with_datagram_cost(mut self, header_bytes: usize, per_datagram_ns: u64) -> Self {
        self.header_bytes = header_bytes;
        self.per_datagram_ns = per_datagram_ns;
        self
    }

    /// Same link with UDP payloads fragmented at `mtu` bytes per wire
    /// fragment (see [`NetworkConfig::mtu`]).
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }
}

/// UDP + IPv4 header bytes — the conventional value for
/// [`NetworkConfig::header_bytes`] when modeling a real IP link.
pub const UDP_IP_HEADER_BYTES: usize = 28;

/// Receive-queue accounting under the drop-tail link model: how many
/// deliveries were discarded because their destination queue was at
/// [`NetworkConfig::rx_queue_cap`], and the deepest any receive queue
/// ever got. Snapshot via [`Network::link_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Deliveries discarded at a full mailbox (or a served address
    /// under a cap of 0).
    pub queue_drops: u64,
    /// Maximum depth any receive queue reached (after a push).
    pub queue_depth_high_water: u64,
    /// Logical UDP sends (one per [`Network::send_udp`], regardless of
    /// fragmentation).
    pub datagrams: u64,
    /// UDP wire fragments charged: `ceil(len/mtu)` per send (equals
    /// `datagrams` when [`NetworkConfig::mtu`] is unbounded). Each
    /// fragment paid `header_bytes` and `per_datagram_ns`.
    pub fragments: u64,
}

/// A datagram in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender address.
    pub from: Addr,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Virtual delivery time: when the datagram reached (or will reach)
    /// its destination. Receivers use it to measure per-request latency
    /// without bookkeeping outside the simulator — drain a mailbox after
    /// a run and `at - send_time` is the virtual-time latency even though
    /// the drain happens later.
    pub at: SimTime,
}

enum Event {
    UdpDeliver {
        to: Addr,
        dg: Datagram,
    },
    TcpDeliver {
        conn: ConnId,
        to_server: bool,
        bytes: Vec<u8>,
    },
    /// A scheduled lifecycle fault (see [`crate::chaos`]). Routed through
    /// the ordinary event queue so a [`ChaosSchedule`] interleaves with
    /// traffic at exact virtual instants, replaying byte-identically.
    Chaos(ChaosEvent),
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A stateful UDP service handler: gets a request datagram, optionally
/// returns a reply plus the simulated processing time spent producing it.
/// [`Network::serve_udp`] registers it as its address's
/// [`EventProcessor`] as it is.
///
/// The payload is passed by mutable reference so a handler may *consume*
/// it (`std::mem::take`) — e.g. to recycle the buffer into a wire-buffer
/// pool. The simulator drops whatever remains after the call.
///
/// Returning `Some((vec![], proc_time))` charges `proc_time` to the
/// virtual clock but sends **no** reply datagram — how a server
/// acknowledges work on one-way (batched) calls that expect no reply.
pub type UdpHandler = Box<dyn FnMut(&mut Vec<u8>, Addr) -> Option<(Vec<u8>, SimTime)> + Send>;

/// Per-connection TCP service handler: gets newly arrived bytes, returns
/// bytes to send back plus processing time (empty response is fine — the
/// handler may be mid-record).
pub trait TcpHandler: Send {
    /// Consume newly arrived bytes, produce output bytes and the simulated
    /// processing time.
    fn on_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, SimTime);

    /// [`TcpHandler::on_bytes`] writing its output into `out` — an
    /// **empty** buffer recycled from the connection's earlier traffic —
    /// which is what the simulator calls: a handler that overrides this
    /// and fills `out` in place sends its replies without allocating. The
    /// default adopts whatever `on_bytes` returned.
    fn on_bytes_into(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> SimTime {
        let (produced, proc_time) = self.on_bytes(bytes);
        if !produced.is_empty() {
            *out = produced;
        }
        proc_time
    }
}

/// Factory producing one [`TcpHandler`] per accepted connection.
pub type TcpHandlerFactory = Box<dyn FnMut() -> Box<dyn TcpHandler> + Send>;

/// User code checked out of the simulator for invocation: its own lock,
/// never held together with the simulator lock, so it can re-enter the
/// network.
type Slot<T> = Arc<Mutex<T>>;

/// The server code of an address: a [`UdpHandler`], registered with
/// [`Network::serve_udp_events_with`]. It is never shared. The
/// acquisition that takes the address's delivery out of the lane's slot
/// also takes the processor out of the registration and *lends* it to
/// the thread that runs it — a driving thread in place, or a reactor
/// through [`Network::poll_udp`] — and the completion's acquisition gives
/// it back. The lane holds one delivery, so a processor never waits for
/// itself; it needs `Send`, not `Sync`, and keeps its state without a
/// lock of its own.
pub type EventProcessor = UdpHandler;

/// Factory producing the [`EventProcessor`] of a restartable address:
/// invoked at registration and again on every [`Network::restart`], so
/// whatever state the processor keeps can start over (see
/// [`Network::serve_udp_events_restartable`]).
pub type EventProcessorFactory = Box<dyn FnMut() -> EventProcessor + Send>;

/// The receive queue of one bound address, alive as long as an
/// [`Endpoint`] on that address is.
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<Datagram>,
    /// Live [`Endpoint`]s on this address. Binding an address twice
    /// shares one queue (as two handles to one socket would); the entry
    /// leaves the table when the last of them is dropped.
    binds: usize,
}

/// Spent chunk buffers a connection keeps for its next writes; anything
/// beyond this is freed (the list bounds memory, not correctness).
const CONN_SPARE_CHUNKS: usize = 8;

struct ConnState {
    /// Bytes delivered to the client and not yet read: whole chunks in
    /// arrival order (delivery moves the sender's buffer in), the front
    /// one already consumed up to `rx_head`.
    client_rx: VecDeque<Vec<u8>>,
    rx_head: usize,
    /// Unread bytes across `client_rx`.
    rx_len: usize,
    /// Chunk buffers whose bytes have been handled (server side) or read
    /// (client side), kept for the connection's next writes so a steady
    /// exchange allocates nothing here.
    spare: Vec<Vec<u8>>,
    server_handler: Slot<Box<dyn TcpHandler>>,
    /// Transmit-complete times per direction (to_server, to_client):
    /// TCP is FIFO with cumulative serialization, so each send starts
    /// after the previous one finished.
    busy_until: [SimTime; 2],
}

struct NetInner {
    /// The virtual clock. Written only through [`NetShared::set_now`],
    /// which also publishes it for lock-free readers.
    now: SimTime,
    seq: u64,
    /// Events popped from the queue whose dispatch left the simulator
    /// lock and has not finished yet: a TCP delivery, a lifecycle fault.
    /// The dispatching thread may be about
    /// to schedule follow-up events (e.g. a server reply), so idle
    /// fast-forward must wait for it — otherwise a concurrent waiter
    /// would see a transiently empty queue and jump the clock past its
    /// own deadline. A datagram routed into a mailbox or the lane's slot
    /// never counts: its routing completes under the acquisition that
    /// popped it.
    in_flight: usize,
    /// Deliveries routed to a served address and not yet answered: the
    /// one in `ready`, or the one a thread has taken out of it — never
    /// more than one. While it is non-zero a driving thread pops no
    /// scheduled event, so whoever processes the delivery charges its
    /// processing time from the instant it happened.
    pending_events: usize,
    cfg: NetworkConfig,
    faults: FaultState,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Mailboxes of the endpoints that are bound *now* (an [`Endpoint`]
    /// unbinds when dropped). This table and `udp_busy` are looked up on
    /// every datagram and keyed by addresses the program bound itself,
    /// so they hash with [`IntMap`]'s multiply-shift instead of SipHash.
    /// Neither is ever iterated, so no trace depends on their internal
    /// order.
    mailboxes: IntMap<Addr, Mailbox>,
    /// Processor factories of restartable services: [`Network::restart`]
    /// re-registers what the factory builds (crash/restart amnesia — see
    /// [`crate::chaos`]).
    udp_factories: HashMap<Addr, Slot<EventProcessorFactory>>,
    /// The processor of every served address — `None` while it is lent
    /// to the thread running the address's delivery. Looked up, never
    /// iterated.
    served: IntMap<Addr, Option<EventProcessor>>,
    /// The lane's one slot: a delivery routed to a served address, until
    /// a driver or a reactor takes it out to process.
    ready: Option<(Addr, Datagram)>,
    tcp_listeners: HashMap<Addr, Slot<TcpHandlerFactory>>,
    conns: Vec<ConnState>,
    /// Total payload bytes that crossed the link (for reports).
    bytes_sent: u64,
    datagrams_sent: u64,
    /// UDP wire fragments charged (`ceil(len/mtu)` per send).
    fragments_sent: u64,
    /// Per-endpoint UDP transmit occupancy: when each sending address's
    /// link becomes free. The UDP counterpart of
    /// `ConnState::busy_until` — back-to-back sends from one endpoint
    /// serialize cumulatively (see the module-level "Link model" docs).
    /// A dropped [`Endpoint`] takes its record along unless the link is
    /// still busy at that instant.
    udp_busy: IntMap<Addr, SimTime>,
    /// Drop-tail accounting (see [`LinkStats`]).
    queue_drops: u64,
    queue_high_water: u64,
    /// Deliveries to an address with no processor and no mailbox (see
    /// [`Network::unbound_drops`]).
    unbound_drops: u64,
    /// Threads parked on `ready_cv` / `retired_cv` right now. A waiter
    /// counts itself in under the lock before it sleeps and out after it
    /// wakes, so whoever changes what it waits for — under the lock —
    /// knows whether a notify can reach anyone.
    ready_sleepers: usize,
    retired_sleepers: usize,
    /// Endpoint lifecycle faults: who is crashed / paused / partitioned,
    /// plus downtime accounting (see [`crate::chaos`]).
    chaos: ChaosState,
}

struct NetShared {
    state: Mutex<NetInner>,
    /// The virtual clock in nanoseconds, published by
    /// [`NetShared::set_now`] under the simulator lock (Release) and read
    /// by [`Network::now`] without it (Acquire).
    clock: AtomicU64,
    /// Simulator-lock acquisitions so far (the lane's regression meter).
    #[cfg(test)]
    lock_acquisitions: AtomicU64,
    /// Condvar notifies issued so far: each one is a system call whether
    /// or not anybody is waiting, which is why the event lane issues one
    /// only when its sleeper count says somebody is.
    #[cfg(test)]
    notifies: AtomicU64,
    /// Signaled when a delivery fills the slot — what
    /// [`Network::wait_ready`] reactors sleep on.
    ready_cv: Condvar,
    /// Signaled when pending work retires — what *driving* threads
    /// blocked in [`Network::run_until`]'s fast-forward guard sleep on.
    /// Separate from `ready_cv` so an event completion does not wake
    /// idle reactors.
    retired_cv: Condvar,
}

impl NetShared {
    /// The one place the virtual clock is written: under the simulator
    /// lock (`inner` proves it), and published for [`Network::now`].
    fn set_now(&self, inner: &mut NetInner, t: SimTime) {
        inner.now = t;
        self.clock.store(t.as_nanos(), Ordering::Release);
    }

    fn wake_ready(&self) {
        #[cfg(test)]
        self.notifies.fetch_add(1, Ordering::Relaxed);
        self.ready_cv.notify_all();
    }

    fn wake_retired(&self) {
        #[cfg(test)]
        self.notifies.fetch_add(1, Ordering::Relaxed);
        self.retired_cv.notify_all();
    }
}

/// Cloneable, thread-shareable handle to a simulated network.
#[derive(Clone)]
pub struct Network {
    shared: Arc<NetShared>,
}

impl Network {
    /// A network with the given link parameters and fault seed.
    pub fn new(cfg: NetworkConfig, seed: u64) -> Self {
        Network {
            shared: Arc::new(NetShared {
                state: Mutex::new(NetInner {
                    now: SimTime::ZERO,
                    seq: 0,
                    in_flight: 0,
                    pending_events: 0,
                    faults: FaultState::new(cfg.faults, seed),
                    cfg,
                    queue: BinaryHeap::new(),
                    mailboxes: IntMap::default(),
                    udp_factories: HashMap::new(),
                    served: IntMap::default(),
                    ready: None,
                    tcp_listeners: HashMap::new(),
                    conns: Vec::new(),
                    bytes_sent: 0,
                    datagrams_sent: 0,
                    fragments_sent: 0,
                    udp_busy: IntMap::default(),
                    queue_drops: 0,
                    queue_high_water: 0,
                    unbound_drops: 0,
                    ready_sleepers: 0,
                    retired_sleepers: 0,
                    chaos: ChaosState::new(),
                }),
                clock: AtomicU64::new(0),
                #[cfg(test)]
                lock_acquisitions: AtomicU64::new(0),
                #[cfg(test)]
                notifies: AtomicU64::new(0),
                ready_cv: Condvar::new(),
                retired_cv: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, NetInner> {
        self.lock_or_poisoned().expect("network lock poisoned")
    }

    /// [`Network::lock`] for a caller that must not panic (a `Drop`).
    fn lock_or_poisoned(&self) -> LockResult<MutexGuard<'_, NetInner>> {
        #[cfg(test)]
        self.shared
            .lock_acquisitions
            .fetch_add(1, Ordering::Relaxed);
        self.shared.state.lock()
    }

    /// Current virtual time. Lock-free: the clock is written only under
    /// the simulator lock but published through an atomic, so any thread
    /// — a handler mid-invocation included — may read it at any moment
    /// and sees an instant the simulation really was at.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.shared.clock.load(Ordering::Acquire))
    }

    /// Total payload bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.lock().bytes_sent
    }

    /// Total datagrams sent so far.
    pub fn datagrams_sent(&self) -> u64 {
        self.lock().datagrams_sent
    }

    /// Total UDP wire fragments charged so far (see
    /// [`LinkStats::fragments`]).
    pub fn fragments_sent(&self) -> u64 {
        self.lock().fragments_sent
    }

    /// Link accounting snapshot: drop-tail receive-queue counters plus
    /// datagram/fragment totals (see [`LinkStats`]).
    pub fn link_stats(&self) -> LinkStats {
        let inner = self.lock();
        LinkStats {
            queue_drops: inner.queue_drops,
            queue_depth_high_water: inner.queue_high_water,
            datagrams: inner.datagrams_sent,
            fragments: inner.fragments_sent,
        }
    }

    /// Datagrams that arrived at an address nobody was bound to — no
    /// registration, no live [`Endpoint`] — and were discarded: typically a late or duplicated reply to an
    /// endpoint that has been dropped.
    pub fn unbound_drops(&self) -> u64 {
        self.lock().unbound_drops
    }

    /// Bind a client UDP endpoint at `addr` (mailbox semantics). The
    /// address stays bound until the returned [`Endpoint`] is dropped;
    /// binding an address that is already bound yields a second handle
    /// to the same mailbox.
    pub fn bind_udp(&self, addr: Addr) -> Endpoint {
        self.lock().mailboxes.entry(addr).or_default().binds += 1;
        Endpoint {
            net: self.clone(),
            addr,
        }
    }

    /// Install a UDP service at `addr`, replacing any registration
    /// already there: `handler` becomes the address's processor
    /// ([`Network::serve_udp_events_with`]), lent to whichever thread
    /// runs the delivery.
    pub fn serve_udp(&self, addr: Addr, handler: UdpHandler) {
        self.serve_udp_events_with(addr, handler);
    }

    /// [`Network::serve_udp_events_with`] for an address that survives a
    /// crash: the factory builds the processor registered now, and
    /// [`Network::restart`] registers what it builds then — the hook a
    /// reactor uses to come back with an empty duplicate-request cache.
    pub fn serve_udp_events_restartable(&self, addr: Addr, mut factory: EventProcessorFactory) {
        self.serve_udp_events_with(addr, factory());
        let replaced = self
            .lock()
            .udp_factories
            .insert(addr, Arc::new(Mutex::new(factory)));
        // Outside the lock: see "Dropping user code" in the module docs.
        drop(replaced);
    }

    /// Crash `addr` now (see [`ChaosEvent::Crash`]): its mailbox and a
    /// delivery waiting for it in the slot are dropped (the latter
    /// un-counted from `pending_events`), its registration is removed,
    /// and deliveries arriving while it is down vanish.
    pub fn crash(&self, addr: Addr) {
        self.apply_chaos_event(ChaosEvent::Crash(addr));
    }

    /// Restart a crashed `addr` now (see [`ChaosEvent::Restart`]): closes
    /// its downtime span and — if the address was registered as
    /// restartable — registers a freshly built processor (empty dup
    /// cache and all).
    pub fn restart(&self, addr: Addr) {
        self.apply_chaos_event(ChaosEvent::Restart(addr));
    }

    /// Cut the link between `a` and `b` (both directions) until
    /// [`Network::heal`]: sends between the pair are dropped at the
    /// sender (which still pays its wire occupancy).
    pub fn partition(&self, a: Addr, b: Addr) {
        self.apply_chaos_event(ChaosEvent::Partition(a, b));
    }

    /// Restore a pair cut by [`Network::partition`].
    pub fn heal(&self, a: Addr, b: Addr) {
        self.apply_chaos_event(ChaosEvent::Heal(a, b));
    }

    /// Stall `addr` (a GC-style pause): deliveries are deferred, not
    /// lost, and re-delivered in arrival order on [`Network::resume`].
    pub fn pause(&self, addr: Addr) {
        self.apply_chaos_event(ChaosEvent::Pause(addr));
    }

    /// End a [`Network::pause`], re-delivering everything deferred.
    pub fn resume(&self, addr: Addr) {
        self.apply_chaos_event(ChaosEvent::Resume(addr));
    }

    /// Whether `addr` is currently crashed.
    pub fn is_down(&self, addr: Addr) -> bool {
        self.lock().chaos.is_down(addr)
    }

    /// Schedule every event of a [`ChaosSchedule`] into the simulator's
    /// event queue (events dated before the current instant fire
    /// immediately — the clock never rewinds). The schedule interleaves
    /// with traffic at exact virtual times, so a fixed schedule + seed
    /// replays byte-identically.
    pub fn apply_chaos(&self, schedule: &ChaosSchedule) {
        let mut inner = self.lock();
        for (at, ev) in schedule.events() {
            let at = at.max(inner.now);
            inner.schedule(at, Event::Chaos(ev));
        }
    }

    /// Lifecycle-fault accounting snapshot (crashes, partitions, drops,
    /// total downtime — see [`ChaosStats`]).
    pub fn chaos_stats(&self) -> ChaosStats {
        let inner = self.lock();
        inner.chaos.snapshot(inner.now)
    }

    /// Dead + stalled virtual time accumulated by `addr` (an open span
    /// counts up to the current instant).
    pub fn downtime(&self, addr: Addr) -> SimTime {
        let inner = self.lock();
        inner.chaos.downtime(addr, inner.now)
    }

    /// Apply one lifecycle fault at the current instant — the shared body
    /// of the direct `crash`/`restart`/… methods and of scheduled
    /// [`Event::Chaos`] dispatches.
    fn apply_chaos_event(&self, ev: ChaosEvent) {
        let (reinstall, crashed) = self.lock().apply_chaos_locked(ev);
        // What a crash removed is user code: dropped outside the lock.
        drop(crashed);
        // A restart re-builds the processor from its factory OUTSIDE the
        // simulator lock (the factory is user code and may touch the
        // network itself).
        if let Some(addr) = reinstall {
            let factory = self.lock().udp_factories.get(&addr).cloned();
            if let Some(factory) = factory {
                let processor = (factory.lock().expect("udp factory lock"))();
                self.serve_udp_events_with(addr, processor);
            }
        }
        // Crash may have dropped the pending delivery; wake both sleeper
        // kinds so reactors and fast-forward waiters re-check.
        self.notify_ready();
    }

    /// Register `processor` as the server code of `addr`, replacing any
    /// registration already there. A *driving* thread that finds the
    /// address's delivery in the lane's slot runs `processor` in place,
    /// so with no reactor the driver does every delivery itself; a
    /// reactor may race it for the slot through [`Network::poll_udp`].
    /// Replacing a processor that is lent out stands: the lent one is
    /// dropped when it comes back.
    pub fn serve_udp_events_with(&self, addr: Addr, processor: EventProcessor) {
        let mut inner = self.lock();
        let replaced = inner.served.insert(addr, Some(processor));
        // A delivery waiting for the old processor goes with it —
        // un-counted, or the pending count would pin the clock forever
        // on a datagram nobody can reach anymore.
        inner.forget_ready(addr);
        drop(inner);
        drop(replaced);
    }

    /// Remove a registration (and the factory of a restartable one),
    /// dropping (and un-counting) a delivery waiting for it in the slot,
    /// and wake every [`Network::wait_ready`] sleeper.
    pub fn unserve_udp_events(&self, addr: Addr) {
        let mut inner = self.lock();
        let removed = (
            inner.served.remove(&addr),
            inner.udp_factories.remove(&addr),
        );
        inner.forget_ready(addr);
        drop(inner);
        drop(removed);
        self.notify_ready();
    }

    /// Nonblocking poll of one served address: if the slot holds its
    /// delivery, take it and borrow the address's processor, run `before`
    /// and then the processor on the payload **outside every simulator
    /// lock**, charge the returned processing time to the virtual clock,
    /// send the reply (if any), give the processor back and return
    /// `true`. Returns `false` immediately when the slot holds nothing
    /// for `addr`.
    ///
    /// A reactor polling races the driving thread, which runs the same
    /// processor on the same delivery if it gets there first; nothing
    /// else is pending meanwhile, so the winner adds a hand-off, not
    /// parallelism. `before` is the reactor's own bookkeeping (counting
    /// who ran the delivery, ahead of the reply that makes it visible).
    pub fn poll_udp(&self, addr: Addr, before: impl FnOnce()) -> bool {
        let mut inner = self.lock();
        let Some(dg) = inner.take_ready(addr) else {
            return false;
        };
        let processor = inner.lend(addr);
        drop(inner);
        drop(self.complete_event(addr, dg, processor, before));
        true
    }

    /// Run the delivery just taken out of the slot with the processor
    /// lent for it: `before` and the processor outside every simulator
    /// lock, then clock charge + reply send + processor return + pending
    /// retire under a single lock acquisition, then a wake for the
    /// fast-forward waiters, if there are any. Returns that acquisition
    /// still held, so a driving thread carries on under it. If the
    /// processor unwinds, a guard gives it back and retires the pending
    /// count instead. A processor whose address was re-registered,
    /// unserved or crashed while it was out is dropped outside the lock.
    fn complete_event(
        &self,
        addr: Addr,
        mut dg: Datagram,
        processor: EventProcessor,
        before: impl FnOnce(),
    ) -> MutexGuard<'_, NetInner> {
        struct Lent<'a>(&'a Network, Addr, Option<EventProcessor>);
        impl Drop for Lent<'_> {
            fn drop(&mut self) {
                if let Some(processor) = self.2.take() {
                    let mut inner = self.0.lock();
                    let stale = inner.retire(self.1, processor);
                    let waiting = inner.retired_sleepers > 0;
                    drop(inner);
                    drop(stale);
                    if waiting {
                        self.0.shared.wake_retired();
                    }
                }
            }
        }
        let mut lent = Lent(self, addr, Some(processor));
        before();
        let reply = (lent.2.as_mut().expect("lent"))(&mut dg.payload, dg.from);
        let mut inner = self.lock();
        // Empty reply: charge the time, send nothing (one-way calls).
        self.finish_reply(&mut inner, addr, dg.from, reply);
        let stale = inner.retire(addr, lent.2.take().expect("lent"));
        if inner.retired_sleepers > 0 {
            self.shared.wake_retired();
        }
        if stale.is_some() {
            // See "Dropping user code" in the module docs.
            drop(inner);
            drop(stale);
            inner = self.lock();
        }
        inner
    }

    /// What a server's answer does to the simulation, under the lock:
    /// charge its processing time to the clock and put the reply (unless
    /// empty) on the server's uplink from that instant.
    fn finish_reply(
        &self,
        inner: &mut NetInner,
        server: Addr,
        client: Addr,
        reply: Option<(Vec<u8>, SimTime)>,
    ) {
        if let Some((bytes, proc_time)) = reply {
            let done = inner.now + proc_time;
            self.shared.set_now(inner, done);
            if !bytes.is_empty() {
                inner.send_udp_locked(server, client, bytes);
            }
        }
    }

    /// Deliveries waiting in the slot for `addr`: 1 or 0 (a nonblocking
    /// readiness probe).
    pub fn ready_udp(&self, addr: Addr) -> usize {
        usize::from(self.lock().ready_for(&[addr]))
    }

    /// Deliveries routed to a served address and not yet answered — in
    /// the slot or checked out of it, so 0 or 1 network-wide — which the
    /// idle fast-forward refuses to jump.
    pub fn pending_events(&self) -> usize {
        self.lock().pending_events
    }

    /// Block (in real time, up to `timeout`) until the slot holds a
    /// delivery for one of `addrs`, returning whether it does.
    /// Wakes spuriously on [`Network::notify_ready`] /
    /// [`Network::unserve_udp_events`] so reactors can observe shutdown
    /// flags promptly.
    pub fn wait_ready(&self, addrs: &[Addr], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.ready_for(addrs) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            inner.ready_sleepers += 1;
            let (guard, _res) = self
                .shared
                .ready_cv
                .wait_timeout(inner, deadline - now)
                .expect("network lock poisoned");
            inner = guard;
            inner.ready_sleepers -= 1;
        }
    }

    /// Wake every [`Network::wait_ready`] sleeper and every blocked
    /// driving thread (e.g. so reactor workers re-check a shutdown
    /// flag). Unconditional: the caller changed something the simulator
    /// cannot see.
    pub fn notify_ready(&self) {
        self.shared.wake_ready();
        self.shared.wake_retired();
    }

    /// Install a TCP service (one handler per accepted connection).
    pub fn serve_tcp(&self, addr: Addr, factory: TcpHandlerFactory) {
        let replaced = self
            .lock()
            .tcp_listeners
            .insert(addr, Arc::new(Mutex::new(factory)));
        drop(replaced);
    }

    /// Open a TCP connection to a listening address.
    pub fn connect_tcp(&self, addr: Addr) -> Option<crate::tcp::SimTcpStream> {
        let factory = self.lock().tcp_listeners.get(&addr)?.clone();
        // Run the factory outside the simulator lock (it may be shared
        // with a concurrently-accepting thread).
        let handler = (factory.lock().expect("listener lock"))();
        let conn = {
            let mut inner = self.lock();
            inner.conns.push(ConnState {
                client_rx: VecDeque::new(),
                rx_head: 0,
                rx_len: 0,
                spare: Vec::new(),
                server_handler: Arc::new(Mutex::new(handler)),
                busy_until: [SimTime::ZERO; 2],
            });
            inner.conns.len() - 1
        };
        Some(crate::tcp::SimTcpStream::new(self.clone(), conn))
    }

    /// Send a datagram from `from` to `to` (applies the fault model).
    pub fn send_udp(&self, from: Addr, to: Addr, payload: Vec<u8>) {
        self.lock().send_udp_locked(from, to, payload);
    }

    /// Stream bytes over a TCP connection. Deliberately **not** subject to
    /// the fault model: TCP is modeled as the reliable, ordered pipe the
    /// RPC layer assumes (loss/duplication/reordering are handled below
    /// the record-marking abstraction by real TCP), so the seeded fault
    /// stream is consulted for UDP datagrams only — TCP traffic must not
    /// perturb it (tests pin this).
    pub(crate) fn send_tcp(&self, conn: ConnId, to_server: bool, bytes: Vec<u8>) {
        self.lock().send_tcp_locked(conn, to_server, bytes);
    }

    /// An empty buffer for the next write on `conn`: a spent chunk when
    /// the connection has one, a fresh `Vec` otherwise.
    pub(crate) fn conn_spare(&self, conn: ConnId) -> Vec<u8> {
        self.lock().conns[conn].spare.pop().unwrap_or_default()
    }

    /// Copy the next `buf.len()` received bytes of `conn` into `buf` if
    /// that many have arrived; otherwise consume nothing and return
    /// `false`. Chunks read to their end go to the spare list.
    pub(crate) fn conn_read(&self, conn: ConnId, buf: &mut [u8]) -> bool {
        let mut inner = self.lock();
        let c = &mut inner.conns[conn];
        if c.rx_len < buf.len() {
            return false;
        }
        let mut filled = 0;
        while filled < buf.len() {
            let chunk = c.client_rx.front().expect("rx_len counts queued bytes");
            let take = (chunk.len() - c.rx_head).min(buf.len() - filled);
            buf[filled..filled + take].copy_from_slice(&chunk[c.rx_head..c.rx_head + take]);
            filled += take;
            c.rx_head += take;
            if c.rx_head == chunk.len() {
                let spent = c.client_rx.pop_front().expect("front checked");
                c.rx_head = 0;
                c.recycle(spent);
            }
        }
        c.rx_len -= buf.len();
        true
    }

    /// Process events until `pred` holds or virtual time passes `deadline`.
    /// Returns whether the predicate was satisfied.
    ///
    /// Ordering: a delivery in the lane's slot is **overdue** work — it
    /// happened at the current instant — so the driving thread processes
    /// it *before* popping another event. This is what makes a pipelined
    /// batch overlap server processing with reply flight in virtual time
    /// (and, with no reactor thread, what removes every cross-thread
    /// hand-off: the driver does the work in place).
    pub fn run_until(&self, deadline: SimTime, mut pred: impl FnMut() -> bool) -> bool {
        loop {
            if pred() {
                return true;
            }
            let (mut inner, progressed) = self.step_locked(self.lock(), deadline);
            if !progressed {
                self.expire(&mut inner, deadline);
                drop(inner);
                return pred();
            }
        }
    }

    /// Nothing is left before `deadline`: advance the clock to it.
    fn expire(&self, inner: &mut NetInner, deadline: SimTime) {
        if inner.now < deadline {
            self.shared.set_now(inner, deadline);
        }
    }

    /// Process **one** unit of due work: take the delivery in the lane's
    /// slot and run its address's processor, or pop-and-dispatch one
    /// scheduled event at or before `deadline`, advancing the clock to
    /// exactly that event's instant. Returns `false` — without touching
    /// the clock — when nothing is due, so a caller interleaving
    /// simulation progress with its own checks observes the same
    /// virtual-time trace as a blocking [`Network::run_until`] drive.
    pub fn step(&self, deadline: SimTime) -> bool {
        self.step_locked(self.lock(), deadline).1
    }

    /// [`Network::step`] entered with the simulator lock held and
    /// returning with it held, so a caller's own check (is my mailbox
    /// non-empty? is the deadline past?) shares an acquisition with the
    /// step before it. A datagram bound for a mailbox or the lane's slot
    /// is routed under the acquisition that popped it; only work that
    /// runs user code (an event processor, a TCP handler, a lifecycle
    /// fault) leaves the lock, and comes back holding the acquisition its
    /// completion needed anyway.
    fn step_locked<'a>(
        &'a self,
        mut inner: MutexGuard<'a, NetInner>,
        deadline: SimTime,
    ) -> (MutexGuard<'a, NetInner>, bool) {
        loop {
            if let Some((addr, dg)) = inner.ready.take() {
                let processor = inner.lend(addr);
                drop(inner);
                return (self.complete_event(addr, dg, processor, || ()), true);
            }
            if inner.pending_events > 0 {
                // The delivery is checked out by a peer — a reactor
                // worker or another driver. Popping an event now would
                // advance (or rewind) the clock the peer's completion is
                // about to charge from, diverging from the driver-only
                // trace; hold the clock until the work retires
                // (completion notifies `retired_cv`).
                inner = self.wait_retired(inner);
                continue;
            }
            match inner.queue.peek() {
                Some(Reverse(s)) if s.at <= deadline => {
                    let Reverse(s) = inner.queue.pop().expect("peeked");
                    self.shared.set_now(&mut inner, s.at);
                    return (self.deliver(inner, s.ev), true);
                }
                _ if inner.in_flight > 0 => {
                    // Another thread is mid-dispatch and may still
                    // schedule events; don't fast-forward past them.
                    drop(inner);
                    std::thread::yield_now();
                    inner = self.lock();
                }
                _ => return (inner, false),
            }
        }
    }

    /// Sleep (releasing the lock) until pending work retires or a short
    /// real-time slice passes.
    fn wait_retired<'a>(&'a self, mut inner: MutexGuard<'a, NetInner>) -> MutexGuard<'a, NetInner> {
        inner.retired_sleepers += 1;
        let mut inner = self
            .shared
            .retired_cv
            .wait_timeout(inner, Duration::from_micros(100))
            .expect("network lock poisoned")
            .0;
        inner.retired_sleepers -= 1;
        inner
    }

    /// Advance the clock unconditionally (models client-side work between
    /// protocol steps).
    pub fn advance(&self, dt: SimTime) {
        let deadline = self.now() + dt;
        self.run_until(deadline, || false);
    }

    /// Deliver one event just popped at the current instant. A datagram
    /// is routed where it is bound (see [`NetInner::route_udp`]) without
    /// leaving the lock; TCP deliveries and lifecycle faults always run
    /// outside it.
    fn deliver<'a>(
        &'a self,
        mut inner: MutexGuard<'a, NetInner>,
        ev: Event,
    ) -> MutexGuard<'a, NetInner> {
        match ev {
            Event::UdpDeliver { to, dg } => {
                // A reactor that parks after this read finds the delivery
                // first: it looks at the slot under the lock before it
                // sleeps.
                if inner.route_udp(to, dg) && inner.ready_sleepers > 0 {
                    // Wake them only once they can take the lock.
                    drop(inner);
                    self.shared.wake_ready();
                    inner = self.lock();
                }
                inner
            }
            Event::TcpDeliver {
                conn,
                to_server,
                bytes,
            } => {
                self.outside(inner, || self.deliver_tcp(conn, to_server, bytes))
                    .0
            }
            Event::Chaos(ev) => self.outside(inner, || self.apply_chaos_event(ev)).0,
        }
    }

    /// Run `work` — user code, or simulator code that takes the lock
    /// itself — outside the simulator lock and come back holding it.
    /// The popped event counts as `in_flight` meanwhile; if `work`
    /// unwinds the count is still retired, so a panicking TCP handler
    /// cannot livelock every other driving thread.
    fn outside<'a, R>(
        &'a self,
        mut inner: MutexGuard<'a, NetInner>,
        work: impl FnOnce() -> R,
    ) -> (MutexGuard<'a, NetInner>, R) {
        struct Unwinding<'a>(&'a Network);
        impl Drop for Unwinding<'_> {
            fn drop(&mut self) {
                self.0.lock().in_flight -= 1;
            }
        }
        inner.in_flight += 1;
        drop(inner);
        let unwinding = Unwinding(self);
        let result = work();
        std::mem::forget(unwinding);
        let mut inner = self.lock();
        inner.in_flight -= 1;
        (inner, result)
    }

    /// A chunk arriving on a TCP connection: the server's handler consumes
    /// it (and its answer, if any, goes back after the processing time);
    /// the client's side queues it for `conn_read`.
    fn deliver_tcp(&self, conn: ConnId, to_server: bool, bytes: Vec<u8>) {
        if to_server {
            let (slot, mut out) = {
                let mut inner = self.lock();
                let c = &mut inner.conns[conn];
                (c.server_handler.clone(), c.spare.pop().unwrap_or_default())
            };
            let proc_time = {
                let mut h = slot.lock().expect("tcp handler lock");
                h.on_bytes_into(&bytes, &mut out)
            };
            let mut inner = self.lock();
            inner.conns[conn].recycle(bytes);
            if out.is_empty() {
                inner.conns[conn].recycle(out);
            } else {
                let done = inner.now + proc_time;
                self.shared.set_now(&mut inner, done);
                inner.send_tcp_locked(conn, false, out);
            }
        } else {
            let mut inner = self.lock();
            let c = &mut inner.conns[conn];
            c.rx_len += bytes.len();
            c.client_rx.push_back(bytes);
        }
    }

    /// Receive the next datagram in `addr`'s mailbox, running the
    /// simulation for up to `timeout` of virtual time from now. The
    /// deadline, every look at the mailbox and every step share
    /// acquisitions: one per stretch the simulation runs without calling
    /// user code. When the timeout expires the clock ends exactly at the
    /// deadline.
    pub(crate) fn recv_mailbox(&self, addr: Addr, timeout: SimTime) -> Option<Datagram> {
        let mut inner = self.lock();
        let deadline = inner.now + timeout;
        loop {
            if let Some(dg) = inner.mailbox_pop(addr) {
                return Some(dg);
            }
            let progressed;
            (inner, progressed) = self.step_locked(inner, deadline);
            if !progressed {
                self.expire(&mut inner, deadline);
                return inner.mailbox_pop(addr);
            }
        }
    }

    /// Swap the whole mailbox of `addr` with `buf` (which must be
    /// empty): a bulk receive under **one** lock acquisition. The caller
    /// processes the datagrams outside the lock and reuses `buf` (its
    /// capacity becomes the next mailbox), so draining a pipelined batch
    /// of replies costs one lock instead of one per datagram.
    pub(crate) fn mailbox_swap(&self, addr: Addr, buf: &mut VecDeque<Datagram>) {
        debug_assert!(buf.is_empty(), "swap buffer must be empty");
        if let Some(mb) = self.lock().mailboxes.get_mut(&addr) {
            std::mem::swap(&mut mb.queue, buf);
        }
    }
}

impl ConnState {
    /// Keep a spent chunk buffer for a later write (bounded; see
    /// [`CONN_SPARE_CHUNKS`]).
    fn recycle(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() > 0 && self.spare.len() < CONN_SPARE_CHUNKS {
            buf.clear();
            self.spare.push(buf);
        }
    }
}

impl NetInner {
    /// Route a datagram arriving at `to` at the current instant, under
    /// the simulator lock: a served address gets it in the lane's slot
    /// (counted as pending so the clock cannot run past it) and `true`
    /// is returned; else a bound mailbox receives it; else it is dropped
    /// and counted as unbound (ICMP-unreachable behaviour is not
    /// modeled). Full queues drop the tail, counted.
    fn route_udp(&mut self, to: Addr, dg: Datagram) -> bool {
        // Nothing is popped, and so nothing routed, while a delivery is
        // pending: the slot is always free here.
        debug_assert!(
            self.ready.is_none() && self.pending_events == 0,
            "the lane holds one datagram"
        );
        if self.chaos.armed() {
            if self.chaos.is_down(to) {
                // The destination process is dead: the delivery vanishes
                // (there is no ICMP).
                self.chaos.stats.drops_down += 1;
                return false;
            }
            if self.chaos.is_paused(to) {
                // A stalled process: the kernel keeps buffering — defer
                // until resume.
                self.chaos.defer(to, dg);
                return false;
            }
        }
        let cap = self.cfg.rx_queue_cap;
        if self.served.contains_key(&to) {
            if cap == 0 {
                // Drop-tail: never counted as pending — nobody will
                // process it.
                self.queue_drops += 1;
                return false;
            }
            self.ready = Some((to, dg));
            self.queue_high_water = self.queue_high_water.max(1);
            self.pending_events += 1;
            return true;
        }
        match self.mailboxes.get_mut(&to) {
            Some(mb) if mb.queue.len() >= cap => self.queue_drops += 1,
            Some(mb) => {
                mb.queue.push_back(dg);
                self.queue_high_water = self.queue_high_water.max(mb.queue.len() as u64);
            }
            None => self.unbound_drops += 1,
        }
        false
    }

    fn mailbox_pop(&mut self, addr: Addr) -> Option<Datagram> {
        self.mailboxes.get_mut(&addr)?.queue.pop_front()
    }

    /// The delivery waiting in the slot for `addr`, taken out; it stays
    /// counted as pending until its completion retires it.
    fn take_ready(&mut self, addr: Addr) -> Option<Datagram> {
        self.ready.take_if(|(to, _)| *to == addr).map(|(_, dg)| dg)
    }

    /// Whether the slot holds a delivery for one of `addrs`.
    fn ready_for(&self, addrs: &[Addr]) -> bool {
        self.ready
            .as_ref()
            .is_some_and(|(to, _)| addrs.contains(to))
    }

    /// Take `addr`'s processor out of its registration for the delivery
    /// just taken out of the slot. It is there: the slot only ever holds
    /// a delivery to a served address, and no other delivery is pending
    /// that could have it out.
    fn lend(&mut self, addr: Addr) -> EventProcessor {
        self.served
            .get_mut(&addr)
            .and_then(Option::take)
            .expect("a delivery in the slot finds its processor at home")
    }

    /// Retire `addr`'s pending delivery and return the processor lent
    /// for it to the registration — unless the address was re-registered,
    /// unserved or crashed while it was out: then what stands stands, and
    /// the processor comes back to the caller to be dropped outside the
    /// lock.
    fn retire(&mut self, addr: Addr, processor: EventProcessor) -> Option<EventProcessor> {
        self.pending_events -= 1;
        match self.served.get_mut(&addr) {
            Some(home @ None) => {
                *home = Some(processor);
                None
            }
            _ => Some(processor),
        }
    }

    /// Drop and un-count the delivery waiting in the slot for `addr`,
    /// whose processor has just gone: nobody can process it anymore.
    fn forget_ready(&mut self, addr: Addr) {
        if self.take_ready(addr).is_some() {
            self.pending_events -= 1;
        }
    }

    /// [`Network::send_tcp`] body, callable with the simulator lock held.
    fn send_tcp_locked(&mut self, conn: ConnId, to_server: bool, bytes: Vec<u8>) {
        self.bytes_sent += bytes.len() as u64;
        let dir = usize::from(to_server);
        let start = self.now.max(self.conns[conn].busy_until[dir]);
        let tx_done = start + SimTime::from_nanos(bytes.len() as u64 * self.cfg.ns_per_byte);
        self.conns[conn].busy_until[dir] = tx_done;
        let at = tx_done + self.cfg.latency;
        self.schedule(
            at,
            Event::TcpDeliver {
                conn,
                to_server,
                bytes,
            },
        );
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, ev }));
    }

    /// Apply one lifecycle fault under the simulator lock. Two things
    /// are left to the caller, because both are user code and belong
    /// outside this lock: `Some(addr)` when a processor must be
    /// re-registered from the address's factory (restart of a
    /// restartable service), and the registration a crash removed, to be
    /// dropped.
    fn apply_chaos_locked(&mut self, ev: ChaosEvent) -> (Option<Addr>, Option<EventProcessor>) {
        let now = self.now;
        let mut crashed = None;
        let reinstall = match ev {
            ChaosEvent::Crash(addr) => {
                if self.chaos.crash(addr, now) {
                    // Everything the process held in memory dies with it:
                    // mailbox contents, a delivery waiting in the slot
                    // (un-counted exactly like `unserve_udp_events`, or
                    // the clock would pin forever on a datagram nobody
                    // can process), and the processor itself (a lent one
                    // when it comes back). The factory survives — that is
                    // what restart rebuilds from.
                    if let Some(mb) = self.mailboxes.get_mut(&addr) {
                        mb.queue.clear();
                    }
                    crashed = self.served.remove(&addr).flatten();
                    self.forget_ready(addr);
                }
                None
            }
            ChaosEvent::Restart(addr) => self.chaos.restart(addr, now).then_some(addr),
            ChaosEvent::Partition(a, b) => {
                self.chaos.partition(a, b);
                None
            }
            ChaosEvent::Heal(a, b) => {
                self.chaos.heal(a, b);
                None
            }
            ChaosEvent::Pause(addr) => {
                self.chaos.pause(addr, now);
                None
            }
            ChaosEvent::Resume(addr) => {
                // Deferred deliveries re-enter the event queue at the
                // resume instant, preserving arrival order via seq.
                for mut dg in self.chaos.resume(addr, now) {
                    dg.at = now;
                    self.schedule(now, Event::UdpDeliver { to: addr, dg });
                }
                None
            }
        };
        (reinstall, crashed)
    }

    /// [`Network::send_udp`] body, callable while the simulator lock is
    /// already held (the reactor completes clock charge + reply send +
    /// pending retire under one acquisition).
    fn send_udp_locked(&mut self, from: Addr, to: Addr, payload: Vec<u8>) {
        self.bytes_sent += payload.len() as u64;
        self.datagrams_sent += 1;
        // Per-packet honesty: a send larger than the MTU transmits as
        // `ceil(len/mtu)` wire fragments, and EVERY fragment pays the
        // protocol header's serialization plus the fixed per-packet cost
        // (an empty payload is still one packet). With the default
        // config (header 0, per-packet 0, unbounded MTU) this reduces to
        // exactly `len·ns_per_byte` — pre-existing traces unchanged.
        let mtu = self.cfg.mtu.max(1);
        let frags = payload.len().div_ceil(mtu).max(1) as u64;
        self.fragments_sent += frags;
        let wire_bytes = payload.len() as u64 + frags * self.cfg.header_bytes as u64;
        let tx_ns = wire_bytes * self.cfg.ns_per_byte + frags * self.cfg.per_datagram_ns;
        // Link occupancy: the sender's endpoint is a serial resource.
        // This send starts when the wire is free (which may be in the
        // past relative to a rewound clock — `busy` is monotone) and
        // finishes after its serialization interval; the next send from
        // this endpoint queues behind it. Mirrors the TCP per-direction
        // `busy_until` in `send_tcp`.
        let busy = self.udp_busy.entry(from).or_insert(SimTime::ZERO);
        let start = self.now.max(*busy);
        let tx_done = start + SimTime::from_nanos(tx_ns);
        *busy = tx_done;
        let arrival = tx_done + self.cfg.latency;
        // Lifecycle faults gate the send after the occupancy charge (the
        // sender did transmit) and before the datagram fault stream is
        // consulted — a partitioned or dead-sender datagram was never
        // judged, it just died in the cut. Destination-side crash/pause
        // is checked at *arrival* time in `dispatch` instead, so a
        // datagram in flight across a restart still lands.
        if self.chaos.armed() {
            if self.chaos.partitioned(from, to) {
                self.chaos.stats.drops_partitioned += 1;
                return;
            }
            if self.chaos.is_down(from) {
                self.chaos.stats.drops_down += 1;
                return;
            }
        }
        // Faults compose on top of occupancy: every verdict — including
        // Drop, the sender still transmitted — charges exactly one
        // serialization interval, and jitter applies after `tx_done`.
        let verdict = self.faults.judge();
        // The arrival stamp equals the event's scheduled time: the run
        // loop sets `now` to exactly that instant before dispatching.
        let dg = Datagram {
            from,
            payload,
            at: arrival,
        };
        match verdict {
            Verdict::Drop => {}
            Verdict::Deliver => self.schedule(arrival, Event::UdpDeliver { to, dg }),
            Verdict::Duplicate => {
                // One wire charge, two deliveries: the duplicate is
                // minted in the network, not retransmitted by the sender.
                self.schedule(arrival, Event::UdpDeliver { to, dg: dg.clone() });
                let jitter = SimTime::from_nanos(self.faults.delay_ns());
                let mut dg = dg;
                dg.at = arrival + jitter;
                self.schedule(arrival + jitter, Event::UdpDeliver { to, dg });
            }
            Verdict::Delay => {
                let jitter = SimTime::from_nanos(self.faults.delay_ns());
                let mut dg = dg;
                dg.at = arrival + jitter;
                self.schedule(arrival + jitter, Event::UdpDeliver { to, dg });
            }
        }
    }
}

/// A bound client UDP endpoint.
///
/// The binding lasts as long as the value: dropping the last `Endpoint`
/// on an address removes its mailbox (undelivered datagrams included)
/// and, once its uplink is idle, its transmit-occupancy record, so the
/// simulator holds state for the endpoints that are alive and nothing
/// for those that are gone. A datagram that arrives afterwards is
/// counted in [`Network::unbound_drops`]; binding the address again
/// starts from an empty mailbox. The drop takes the simulator lock —
/// see "Dropping user code" in the [module docs](self) for what that
/// asks of a closure that owns an `Endpoint`.
pub struct Endpoint {
    net: Network,
    addr: Addr,
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // A poisoned simulator is beyond unbinding from, and a panic
        // here could abort a thread that is already unwinding.
        let Ok(mut inner) = self.net.lock_or_poisoned() else {
            return;
        };
        let Entry::Occupied(mut mb) = inner.mailboxes.entry(self.addr) else {
            return;
        };
        mb.get_mut().binds -= 1;
        if mb.get().binds > 0 {
            return;
        }
        let mailbox = mb.remove();
        // A link still transmitting keeps its record, so whoever binds
        // this address next queues behind what was already on the wire.
        let now = inner.now;
        if let Entry::Occupied(busy) = inner.udp_busy.entry(self.addr) {
            if *busy.get() <= now {
                busy.remove();
            }
        }
        drop(inner);
        drop(mailbox);
    }
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Current virtual time at this endpoint's network.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Send a datagram.
    pub fn send_to(&self, to: Addr, payload: Vec<u8>) {
        self.net.send_udp(self.addr, to, payload);
    }

    /// Receive the next datagram, running the network up to `timeout` of
    /// virtual time from now.
    pub fn recv_timeout(&self, timeout: SimTime) -> Option<Datagram> {
        self.net.recv_mailbox(self.addr, timeout)
    }

    /// Nonblocking receive: process whatever is already due at the
    /// current virtual instant (including waiting out reactors still
    /// finishing deliveries that happened *now*) without advancing the
    /// clock, then pop the mailbox. The readiness half of the poll
    /// surface — pair with [`Endpoint::recv_timeout`] when the caller is
    /// the thread that drives virtual time forward.
    pub fn try_recv(&self) -> Option<Datagram> {
        self.net.recv_mailbox(self.addr, SimTime::ZERO)
    }

    /// Bulk receive of everything **already delivered**: swap the
    /// mailbox out under one lock into the (empty, capacity-reusing)
    /// `buf`, without running the simulation. Pipelined clients drain a
    /// batch of replies this way — one lock per burst instead of one
    /// per datagram.
    pub fn drain_ready(&self, buf: &mut VecDeque<Datagram>) {
        self.net.mailbox_swap(self.addr, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A processor echoing each request after `proc_time`.
    fn echo(proc_time: SimTime) -> EventProcessor {
        Box::new(move |req: &mut Vec<u8>, _| Some((req.to_vec(), proc_time)))
    }

    #[test]
    fn network_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Network>();
        assert_send_sync::<Endpoint>();
    }

    #[test]
    fn udp_echo_handler_round_trip() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(
            2000,
            Box::new(|req, _from| Some((req.to_vec(), SimTime::from_micros(50)))),
        );
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![1, 2, 3]);
        let dg = ep.recv_timeout(SimTime::from_millis(10)).expect("reply");
        assert_eq!(dg.payload, vec![1, 2, 3]);
        assert_eq!(dg.from, 2000);
        // Two traversals + processing: at least 2×latency.
        assert!(net.now() >= SimTime::from_micros(350), "{}", net.now());
    }

    #[test]
    fn virtual_time_includes_serialization() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(2000, Box::new(|_, _| Some((vec![0], SimTime::ZERO))));
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![0u8; 10_000]);
        ep.recv_timeout(SimTime::from_millis(100)).expect("reply");
        // 10 KB at 80 ns/B = 0.8 ms one way.
        assert!(net.now() >= SimTime::from_nanos(800_000), "{}", net.now());
    }

    #[test]
    fn udp_back_to_back_sends_serialize_cumulatively() {
        // The UDP analogue of `virtual_time_includes_serialization`:
        // N size-S datagrams blasted from ONE endpoint share its wire,
        // so the last cannot arrive before N·S·ns_per_byte of
        // cumulative serialization (plus latency) has elapsed.
        let net = Network::new(NetworkConfig::lan(), 1);
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        for _ in 0..8 {
            a.send_to(5002, vec![0u8; 10_000]);
        }
        let mut last = SimTime::ZERO;
        for _ in 0..8 {
            let dg = b.recv_timeout(SimTime::from_millis(100)).expect("delivery");
            last = last.max(dg.at);
        }
        // 8 × 10 KB at 80 ns/B = 6.4 ms of wire time, then one latency.
        let floor = SimTime::from_nanos(8 * 10_000 * 80) + SimTime::from_micros(150);
        assert!(last >= floor, "last arrival {last} beat the wire ({floor})");
        // Independent endpoints do NOT share a wire: a fresh sender's
        // datagram is not queued behind the first endpoint's backlog.
        let c = net.bind_udp(5003);
        let t0 = net.now();
        c.send_to(5002, vec![0u8; 100]);
        let dg = b.recv_timeout(SimTime::from_millis(100)).expect("delivery");
        assert_eq!(
            dg.at,
            t0 + SimTime::from_nanos(100 * 80) + SimTime::from_micros(150)
        );
    }

    #[test]
    fn duplicate_charges_one_serialization_interval() {
        // A duplicated datagram occupies the wire once: the copy is
        // minted in the network, so the NEXT send from the same endpoint
        // queues behind one tx interval, not two.
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.0,
                duplicate: 1.0,
                reorder: 0.0,
            }),
            1,
        );
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        a.send_to(5002, vec![1u8; 10_000]);
        a.send_to(5002, vec![2u8; 10_000]);
        let mut arrivals: Vec<(u8, SimTime)> = Vec::new();
        for _ in 0..4 {
            let dg = b.recv_timeout(SimTime::from_millis(100)).expect("copy");
            arrivals.push((dg.payload[0], dg.at));
        }
        let first_of = |tag: u8| {
            arrivals
                .iter()
                .filter(|&&(t, _)| t == tag)
                .map(|&(_, at)| at)
                .min()
                .expect("both copies delivered")
        };
        // Datagram 1 transmits over 0..0.8 ms; its first copy lands at
        // tx_done + latency. Datagram 2 queues behind exactly ONE tx
        // interval: 0.8..1.6 ms, first copy at 1.75 ms.
        assert_eq!(first_of(1), SimTime::from_nanos(10_000 * 80 + 150_000));
        assert_eq!(
            first_of(2),
            SimTime::from_nanos(2 * 10_000 * 80 + 150_000),
            "duplicate of datagram 1 must not charge a second tx interval"
        );
    }

    #[test]
    fn delayed_datagram_cannot_race_ahead_of_a_busy_link() {
        // Delay jitter applies AFTER the send's own tx_done behind a
        // busy wire. The first datagram occupies the wire for 4 ms —
        // more than the maximum 2 ms jitter — so under the old model
        // (jitter from the bare send instant) the small datagram would
        // arrive well before this floor.
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.0,
                duplicate: 0.0,
                reorder: 1.0,
            }),
            7,
        );
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        a.send_to(5002, vec![0u8; 50_000]); // tx = 4 ms
        a.send_to(5002, vec![9u8; 100]); // queues behind the big one
        let floor = SimTime::from_nanos(50_000 * 80 + 100 * 80 + 150_000);
        let mut small_seen = false;
        for _ in 0..2 {
            let dg = b.recv_timeout(SimTime::from_millis(100)).expect("delivery");
            if dg.payload[0] == 9 {
                assert!(
                    dg.at >= floor,
                    "delayed arrival {} raced ahead of the busy link (floor {floor})",
                    dg.at
                );
                small_seen = true;
            }
        }
        assert!(small_seen);
    }

    #[test]
    fn bounded_mailbox_drops_tail_and_counts() {
        let net = Network::new(NetworkConfig::lan().with_rx_queue_cap(2), 1);
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        for i in 0..5u8 {
            a.send_to(5002, vec![i]);
        }
        net.advance(SimTime::from_millis(10));
        assert_eq!(
            net.link_stats(),
            LinkStats {
                queue_drops: 3,
                queue_depth_high_water: 2,
                datagrams: 5,
                fragments: 5,
            }
        );
        // Drop-tail: the two OLDEST datagrams survive.
        assert_eq!(b.try_recv().expect("kept").payload, vec![0]);
        assert_eq!(b.try_recv().expect("kept").payload, vec![1]);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn recv_timeout_expires_and_advances_clock() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let ep = net.bind_udp(5001);
        let before = net.now();
        assert!(ep.recv_timeout(SimTime::from_millis(5)).is_none());
        assert_eq!(net.now(), before + SimTime::from_millis(5));
    }

    #[test]
    fn datagram_to_unbound_address_is_dropped() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let ep = net.bind_udp(5001);
        ep.send_to(999, vec![1]);
        assert!(ep.recv_timeout(SimTime::from_millis(2)).is_none());
        assert_eq!(net.unbound_drops(), 1, "dropped, and counted");
    }

    #[test]
    fn lossy_network_drops_some() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 1.0,
                duplicate: 0.0,
                reorder: 0.0,
            }),
            1,
        );
        net.serve_udp(2000, Box::new(|r, _| Some((r.to_vec(), SimTime::ZERO))));
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![1]);
        assert!(ep.recv_timeout(SimTime::from_millis(5)).is_none());
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.0,
                duplicate: 1.0,
                reorder: 0.0,
            }),
            1,
        );
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        a.send_to(5002, vec![7]);
        assert!(b.recv_timeout(SimTime::from_millis(10)).is_some());
        assert!(b.recv_timeout(SimTime::from_millis(10)).is_some());
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let net = Network::new(NetworkConfig::lan().with_faults(FaultConfig::LOSSY), seed);
            net.serve_udp(
                2000,
                Box::new(|r, _| Some((r.to_vec(), SimTime::from_micros(10)))),
            );
            let ep = net.bind_udp(5001);
            let mut delivered = 0;
            for i in 0..50u8 {
                ep.send_to(2000, vec![i]);
                if ep.recv_timeout(SimTime::from_millis(3)).is_some() {
                    delivered += 1;
                }
            }
            (delivered, net.now())
        };
        assert_eq!(run(42), run(42));
        // Different seeds give different fault patterns (almost surely).
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn counters_track_traffic() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let a = net.bind_udp(1);
        let _b = net.bind_udp(2);
        a.send_to(2, vec![0; 100]);
        assert_eq!(net.bytes_sent(), 100);
        assert_eq!(net.datagrams_sent(), 1);
        assert_eq!(net.fragments_sent(), 1);
    }

    #[test]
    fn default_config_charges_payload_bytes_only() {
        // The trace-preservation contract: with header/per-packet cost
        // off (the defaults), a send's arrival instant is exactly the
        // pre-PR-10 `len·ns_per_byte + latency` — no hidden packet tax.
        let net = Network::new(NetworkConfig::lan(), 1);
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        a.send_to(5002, vec![0u8; 100]);
        let dg = b.recv_timeout(SimTime::from_millis(10)).expect("delivery");
        assert_eq!(dg.at, SimTime::from_nanos(100 * 80 + 150_000));
    }

    #[test]
    fn per_datagram_cost_charges_headers_and_fixed_ns() {
        let net = Network::new(
            NetworkConfig::lan().with_datagram_cost(UDP_IP_HEADER_BYTES, 20_000),
            1,
        );
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        a.send_to(5002, vec![0u8; 100]);
        // An empty payload is still one packet; queued back to back it
        // serializes behind the first send's occupancy (`busy_until`).
        a.send_to(5002, vec![]);
        let dg = b.recv_timeout(SimTime::from_millis(10)).expect("delivery");
        // (100 payload + 28 header) · 80 ns/B + 20 µs packet + latency.
        assert_eq!(
            dg.at,
            SimTime::from_nanos((100 + 28) * 80 + 20_000 + 150_000)
        );
        let t0 = SimTime::from_nanos((100 + 28) * 80 + 20_000);
        let dg = b.recv_timeout(SimTime::from_millis(10)).expect("delivery");
        assert_eq!(dg.at, t0 + SimTime::from_nanos(28 * 80 + 20_000 + 150_000));
        assert_eq!(net.fragments_sent(), 2);
    }

    #[test]
    fn mtu_fragments_charge_per_fragment() {
        let net = Network::new(
            NetworkConfig::lan()
                .with_datagram_cost(UDP_IP_HEADER_BYTES, 20_000)
                .with_mtu(1000),
            1,
        );
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        a.send_to(5002, vec![0u8; 2500]);
        let dg = b.recv_timeout(SimTime::from_millis(10)).expect("delivery");
        // ceil(2500/1000) = 3 fragments: each pays its header bytes and
        // the fixed packet cost; the payload still arrives whole.
        let tx = (2500 + 3 * 28) * 80 + 3 * 20_000;
        assert_eq!(dg.at, SimTime::from_nanos(tx + 150_000));
        assert_eq!(dg.payload.len(), 2500);
        assert_eq!(net.datagrams_sent(), 1);
        assert_eq!(net.fragments_sent(), 3);
        let stats = net.link_stats();
        assert_eq!(stats.datagrams, 1);
        assert_eq!(stats.fragments, 3);
    }

    #[test]
    fn empty_reply_charges_time_but_sends_nothing() {
        // The one-way convention: Some((vec![], t)) advances the clock
        // by t and emits no reply datagram.
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(
            2000,
            Box::new(|_, _| Some((vec![], SimTime::from_millis(3)))),
        );
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![1]);
        assert!(ep.recv_timeout(SimTime::from_millis(50)).is_none());
        assert!(net.now() >= SimTime::from_millis(3));
        assert_eq!(net.datagrams_sent(), 1, "only the request crossed the wire");
    }

    #[test]
    fn handler_processing_time_advances_clock() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(
            2000,
            Box::new(|r, _| Some((r.to_vec(), SimTime::from_millis(3)))),
        );
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![1]);
        ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        assert!(net.now() >= SimTime::from_millis(3));
    }

    #[test]
    fn panicking_handler_does_not_livelock_other_threads() {
        // The pending count must be released on unwind: after a
        // handler panic, other threads' idle fast-forward still works
        // instead of waiting forever on a stuck pending event.
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(2000, Box::new(|_, _| panic!("handler bug")));
        net.serve_udp(2001, Box::new(|r, _| Some((r.to_vec(), SimTime::ZERO))));
        let n2 = net.clone();
        let h = std::thread::spawn(move || {
            let ep = n2.bind_udp(5001);
            ep.send_to(2000, vec![1]);
            let _ = ep.recv_timeout(SimTime::from_millis(5));
        });
        assert!(h.join().is_err(), "handler panic must propagate");
        // The simulator stays usable from other threads/addresses: an
        // idle wait still fast-forwards the clock to its deadline …
        let ep = net.bind_udp(5002);
        let before = net.now();
        assert!(ep.recv_timeout(SimTime::from_millis(2)).is_none());
        assert_eq!(net.now(), before + SimTime::from_millis(2));
        // … and a healthy address still gets service.
        ep.send_to(2001, vec![7]);
        let dg = ep.recv_timeout(SimTime::from_millis(2)).expect("reply");
        assert_eq!((dg.from, dg.payload), (2001, vec![7]));
    }

    #[test]
    fn panicking_handler_answers_the_next_datagram() {
        // A lent handler that panics is given back: the driving thread
        // sees the panic, the unwind guard returns the handler to its
        // registration and retires the pending count, and the next
        // delivery to the address — a retransmission, typically — reaches
        // the same handler again.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let net = Network::new(NetworkConfig::lan(), 1);
        let mut seen = 0u8;
        net.serve_udp(
            2000,
            Box::new(move |req, _| {
                seen += 1;
                assert!(seen > 1, "handler bug on the first datagram");
                Some((vec![seen, req[0]], SimTime::ZERO))
            }),
        );
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![7]);
        let first = catch_unwind(AssertUnwindSafe(|| {
            ep.recv_timeout(SimTime::from_millis(5))
        }));
        assert!(first.is_err(), "the handler's panic reaches the driver");
        assert_eq!((net.pending_events(), net.lock().in_flight), (0, 0));
        assert!(net.lock().served[&2000].is_some(), "given back");
        ep.send_to(2000, vec![8]);
        let dg = ep.recv_timeout(SimTime::from_millis(5)).expect("reply");
        assert_eq!(dg.payload, vec![2, 8], "same handler, state kept");
        assert_eq!((net.pending_events(), net.lock().in_flight), (0, 0));
    }

    #[test]
    fn echo_round_trip_takes_three_simulator_lock_acquisitions() {
        // The datagram lane's regression meter, read through
        // `serve_udp`. One mailbox ↔ handler round trip is: the
        // send; the receive's acquisition, which pops the request,
        // queues it and takes it back out for the handler; and the
        // handler's completion, under which the reply is sent, popped,
        // routed into the mailbox and received. (It was 18 before
        // deliveries were routed under the acquisition that popped
        // them.)
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(
            2000,
            Box::new(|req, _| Some((req.to_vec(), SimTime::from_micros(50)))),
        );
        let ep = net.bind_udp(5001);
        let round_trip = || {
            ep.send_to(2000, vec![1, 2, 3]);
            ep.recv_timeout(SimTime::from_millis(10)).expect("reply");
        };
        round_trip();
        let before = net.shared.lock_acquisitions.load(Ordering::Relaxed);
        round_trip();
        let took = net.shared.lock_acquisitions.load(Ordering::Relaxed) - before;
        assert_eq!(took, 3, "simulator-lock acquisitions per round trip");
    }

    #[test]
    fn one_call_endpoint_on_the_event_lane_takes_five_lock_acquisitions() {
        // The open-loop shape of the scale scenario: an endpoint is
        // bound, sends one request to an event-mode address with an
        // inline processor, receives its reply and is dropped. The
        // bind; the send; the receive's acquisition, which pops the
        // request, puts it in the slot and takes it back out; the
        // processor's completion,
        // under which the reply is sent, delivered and received; the
        // unbind.
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_with(
            2000,
            Box::new(|req: &mut Vec<u8>, _| Some((req.to_vec(), SimTime::from_micros(50)))),
        );
        let call = |addr: Addr| {
            let ep = net.bind_udp(addr);
            ep.send_to(2000, vec![1, 2, 3]);
            ep.recv_timeout(SimTime::from_millis(10)).expect("reply");
        };
        call(5001);
        let before = net.shared.lock_acquisitions.load(Ordering::Relaxed);
        call(5002);
        let took = net.shared.lock_acquisitions.load(Ordering::Relaxed) - before;
        assert_eq!(took, 5, "simulator-lock acquisitions per one-call endpoint");
        net.unserve_udp_events(2000);
    }

    #[test]
    fn event_round_trips_wake_nobody_when_nobody_sleeps() {
        // A condvar notify is a system call even with no waiter. With an
        // inline processor and no parked thread the driver does all the
        // work itself, so N round trips must issue none (it was two per
        // round trip on a multi-core host, one on a single core).
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_with(
            2000,
            Box::new(|req: &mut Vec<u8>, _| Some((req.to_vec(), SimTime::from_micros(50)))),
        );
        let ep = net.bind_udp(5001);
        for i in 0..100u8 {
            ep.send_to(2000, vec![i]);
            let dg = ep.recv_timeout(SimTime::from_millis(10)).expect("reply");
            assert_eq!(dg.payload, vec![i]);
        }
        assert_eq!(net.shared.notifies.load(Ordering::Relaxed), 0);
        net.unserve_udp_events(2000);
    }

    #[test]
    fn parked_reactor_gets_one_wake_per_enqueue_and_none_is_lost() {
        // One reactor asleep in `wait_ready` with a timeout far beyond
        // the test's patience: each delivery, made by this thread, must
        // issue exactly one notify, and that notify — not the timeout —
        // must bring the reactor back.
        use std::sync::mpsc;
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_with(2000, Box::new(|_, _| None));
        let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let reactor = {
            let net = net.clone();
            std::thread::spawn(move || {
                while go_rx.recv().is_ok() {
                    assert!(net.wait_ready(&[2000], Duration::from_secs(120)));
                    woke_tx.send(Instant::now()).expect("test thread");
                    assert!(net.poll_udp(2000, || ()));
                }
            })
        };
        let ep = net.bind_udp(5001);
        for round in 0..5u8 {
            go_tx.send(()).expect("reactor thread");
            // Counted in under the lock, and the wait gives the lock up
            // atomically: once this reads 1 the reactor is parked.
            while net.lock().ready_sleepers == 0 {
                std::thread::yield_now();
            }
            ep.send_to(2000, vec![round]);
            let before = net.shared.notifies.load(Ordering::Relaxed);
            assert!(net.step(SimTime::from_millis(1_000)), "the delivery");
            let delivered = Instant::now();
            assert_eq!(net.shared.notifies.load(Ordering::Relaxed) - before, 1);
            let woke = woke_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a parked reactor must be woken by the enqueue");
            let lag = woke.saturating_duration_since(delivered);
            assert!(lag < Duration::from_millis(100), "woken {lag:?} late");
            // Its completion found no driver asleep: no second notify.
            while net.pending_events() > 0 {
                std::thread::yield_now();
            }
            assert_eq!(net.shared.notifies.load(Ordering::Relaxed) - before, 1);
        }
        drop(go_tx);
        reactor.join().expect("reactor thread");
        net.unserve_udp_events(2000);
    }

    #[test]
    fn second_bind_shares_the_mailbox_until_the_last_endpoint_goes() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let sender = net.bind_udp(5001);
        let first = net.bind_udp(6000);
        let second = net.bind_udp(6000);
        sender.send_to(6000, vec![1]);
        sender.send_to(6000, vec![2]);
        net.advance(SimTime::from_millis(1));
        // One socket, two handles: either may read what arrived.
        assert_eq!(second.try_recv().expect("shared").payload, vec![1]);
        // The first to go does not unbind the survivor …
        drop(first);
        assert_eq!(second.try_recv().expect("still bound").payload, vec![2]);
        sender.send_to(6000, vec![3]);
        net.advance(SimTime::from_millis(1));
        assert_eq!(net.unbound_drops(), 0);
        // … the last one does, taking the undelivered datagram along.
        drop(second);
        assert!(!net.lock().mailboxes.contains_key(&6000));
        let again = net.bind_udp(6000);
        assert!(again.try_recv().is_none(), "a rebind starts empty");
    }

    #[test]
    fn dropped_endpoints_leave_no_state_behind() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(2000, Box::new(|req, _| Some((req.to_vec(), SimTime::ZERO))));
        for i in 0..10_000u32 {
            let ep = net.bind_udp(100_000 + i);
            ep.send_to(2000, i.to_be_bytes().to_vec());
            let dg = ep.recv_timeout(SimTime::from_millis(10)).expect("reply");
            assert_eq!(dg.payload, i.to_be_bytes());
        }
        let inner = net.lock();
        assert!(inner.mailboxes.is_empty(), "{}", inner.mailboxes.len());
        assert_eq!(
            inner.udp_busy.keys().copied().collect::<Vec<_>>(),
            vec![2000],
            "only the server's uplink is still on record"
        );
        assert_eq!(inner.unbound_drops, 0);
    }

    #[test]
    fn busy_uplink_outlives_its_endpoint() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let rx = net.bind_udp(5002);
        let a = net.bind_udp(5001);
        a.send_to(5002, vec![1u8; 10_000]); // on the wire for 0.8 ms
        drop(a);
        assert!(net.lock().udp_busy.contains_key(&5001));
        // Whoever binds the address next queues behind that transmission.
        let again = net.bind_udp(5001);
        again.send_to(5002, vec![2u8; 100]);
        let big = rx.recv_timeout(SimTime::from_millis(10)).expect("first");
        let small = rx.recv_timeout(SimTime::from_millis(10)).expect("second");
        assert_eq!((big.payload[0], small.payload[0]), (1, 2));
        assert_eq!(
            small.at,
            SimTime::from_nanos((10_000 + 100) * 80 + 150_000),
            "the rebound endpoint transmitted before the wire was free"
        );
        // Idle by now: this time the record goes with the endpoint.
        drop(again);
        assert!(!net.lock().udp_busy.contains_key(&5001));
    }

    #[test]
    fn reply_to_a_dropped_endpoint_is_counted_and_a_rebind_starts_empty() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(
            2000,
            Box::new(|req, _| Some((req.to_vec(), SimTime::from_micros(50)))),
        );
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![7]);
        drop(ep); // gone before its reply comes back
        net.advance(SimTime::from_millis(5));
        assert_eq!(net.unbound_drops(), 1);
        let again = net.bind_udp(5001);
        assert!(
            again.try_recv().is_none(),
            "the previous owner's reply must not be waiting here"
        );
        again.send_to(2000, vec![8]);
        let dg = again.recv_timeout(SimTime::from_millis(5)).expect("reply");
        assert_eq!(dg.payload, vec![8]);
        assert_eq!(net.unbound_drops(), 1);
    }

    #[test]
    fn closures_owning_an_endpoint_are_dropped_outside_the_lock() {
        // An `Endpoint`'s drop takes the simulator lock, so every place
        // that removes a registration must let go of it after releasing
        // that lock. Run on a side thread: the failure mode is deadlock.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let side = std::thread::spawn(move || {
            let net = Network::new(NetworkConfig::lan(), 1);
            let owning_handler = |addr: Addr| -> UdpHandler {
                let ep = net.bind_udp(addr);
                Box::new(move |req, _| Some((req.to_vec(), ep.now())))
            };
            let owning_processor = |addr: Addr| -> EventProcessor {
                let ep = net.bind_udp(addr);
                Box::new(move |req: &mut Vec<u8>, _| Some((req.to_vec(), ep.now())))
            };
            // Handler replaced, then crashed.
            net.serve_udp(2000, owning_handler(7000));
            net.serve_udp(2000, owning_handler(7001));
            net.crash(2000);
            // Restartable: the crash drops the handler, the re-registration
            // the factory.
            for addr in [7002, 7003] {
                let (n, ep) = (net.clone(), net.bind_udp(addr));
                net.serve_udp_events_restartable(
                    2001,
                    Box::new(move || {
                        let ep = n.bind_udp(ep.addr() + 100);
                        Box::new(move |req: &mut Vec<u8>, _| Some((req.to_vec(), ep.now())))
                    }),
                );
            }
            net.crash(2001);
            // Event mode: re-registered, unregistered, crashed.
            net.serve_udp_events_with(2002, owning_processor(7004));
            net.serve_udp_events_with(2002, owning_processor(7005));
            net.unserve_udp_events(2002);
            net.serve_udp_events_with(2003, owning_processor(7006));
            net.crash(2003);
            // The factory of 2001 is still registered and owns 7003.
            let bound: Vec<Addr> = net.lock().mailboxes.keys().copied().collect();
            done_tx.send(bound).expect("test thread");
        });
        let bound = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a registration was dropped under the simulator lock");
        side.join().expect("side thread");
        assert_eq!(bound, vec![7003], "every other owner was dropped");
    }

    #[test]
    fn a_processor_that_moves_its_own_registration_is_dropped_when_it_returns() {
        // A processor re-registers, unserves or crashes its own address
        // mid-run. What it did stands, and the lent processor — which
        // owns an `Endpoint` — is dropped when it comes back, outside the
        // lock: under it, this side thread would deadlock.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let side = std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for what in ["re-register", "unserve", "crash"] {
                let net = Network::new(NetworkConfig::lan(), 1);
                let (n, owned) = (net.clone(), net.bind_udp(7000));
                net.serve_udp(
                    2000,
                    Box::new(move |req, _| {
                        let _ = &owned;
                        match what {
                            "re-register" => n.serve_udp(
                                2000,
                                Box::new(|req, _| Some((vec![2, req[0]], SimTime::ZERO))),
                            ),
                            "unserve" => n.unserve_udp_events(2000),
                            _ => n.crash(2000),
                        }
                        Some((vec![1, req[0]], SimTime::ZERO))
                    }),
                );
                let ep = net.bind_udp(5001);
                let mut replies = Vec::new();
                for i in [7, 8] {
                    ep.send_to(2000, vec![i]);
                    let reply = ep.recv_timeout(SimTime::from_millis(5));
                    replies.push(reply.map(|dg| dg.payload));
                }
                let owner_bound = net.lock().mailboxes.contains_key(&7000);
                outcomes.push((replies, net.pending_events(), owner_bound));
            }
            done_tx.send(outcomes).expect("test thread");
        });
        let outcomes = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a lent processor was dropped under the simulator lock");
        side.join().expect("side thread");
        assert_eq!(
            outcomes,
            vec![
                // The new registration answers the next call.
                (vec![Some(vec![1, 7]), Some(vec![2, 8])], 0, false),
                // Nobody answers the next call.
                (vec![Some(vec![1, 7]), None], 0, false),
                // A crashed sender's reply dies on the wire, too.
                (vec![None, None], 0, false),
            ]
        );
    }

    #[test]
    fn a_processor_need_not_be_sync() {
        // A compile-time pin as much as a run-time one: a processor is
        // lent, never shared, so state in a `Cell` needs no lock.
        let net = Network::new(NetworkConfig::lan(), 1);
        let calls = std::cell::Cell::new(0u8);
        net.serve_udp_events_with(
            2000,
            Box::new(move |_, _| {
                calls.set(calls.get() + 1);
                Some((vec![calls.get()], SimTime::ZERO))
            }),
        );
        let ep = net.bind_udp(5001);
        for want in 1..=3u8 {
            ep.send_to(2000, vec![0]);
            let dg = ep.recv_timeout(SimTime::from_millis(5)).expect("reply");
            assert_eq!(dg.payload, vec![want]);
        }
    }

    #[test]
    fn handler_may_read_the_clock_and_send_from_inside_its_invocation() {
        // Handlers run outside the simulator lock: one that reads the
        // clock and sends a datagram of its own neither deadlocks nor
        // sees a stale instant — `now()` inside the invocation is the
        // delivery instant, and the extra send leaves from it.
        let net = Network::new(NetworkConfig::lan(), 1);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (n2, s2) = (net.clone(), seen.clone());
        net.serve_udp(
            2000,
            Box::new(move |req, _| {
                s2.lock().expect("seen").push(n2.now());
                n2.send_udp(2000, 5002, vec![9]);
                Some((req.to_vec(), SimTime::from_micros(50)))
            }),
        );
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        a.send_to(2000, vec![1, 2, 3]);
        let reply = a.recv_timeout(SimTime::from_millis(10)).expect("reply");
        let delivered = SimTime::from_nanos(3 * 80 + 150_000);
        assert_eq!(*seen.lock().expect("seen"), vec![delivered]);
        // The reply leaves after the 50 µs of processing; the handler's
        // own datagram left at the delivery instant, ahead of it.
        assert_eq!(
            reply.at,
            delivered + SimTime::from_nanos(50_000 + 3 * 80 + 150_000)
        );
        let side = b.recv_timeout(SimTime::from_millis(10)).expect("side");
        assert_eq!(side.payload, vec![9]);
        assert_eq!(side.at, delivered + SimTime::from_nanos(80 + 150_000));
    }

    /// Serve an echo on `addr` and spawn a reactor thread racing the
    /// driver for its deliveries, charging what the processor charges;
    /// returns a shutdown closure that must be called before the test
    /// ends.
    fn spawn_echo_reactor(net: &Network, addr: Addr, proc_time: SimTime) -> impl FnOnce() + use<> {
        use std::sync::atomic::{AtomicBool, Ordering};
        net.serve_udp_events_with(addr, echo(proc_time));
        let stop = Arc::new(AtomicBool::new(false));
        let (n, s) = (net.clone(), stop.clone());
        let h = std::thread::spawn(move || {
            while !s.load(Ordering::Acquire) {
                if !n.poll_udp(addr, || ()) {
                    n.wait_ready(&[addr], Duration::from_millis(1));
                }
            }
        });
        let net = net.clone();
        move || {
            stop.store(true, std::sync::atomic::Ordering::Release);
            net.notify_ready();
            h.join().expect("reactor thread");
            net.unserve_udp_events(addr);
        }
    }

    #[test]
    fn event_mode_round_trip_matches_blocking_handler_timing() {
        // The lane's determinism property: the same workload produces
        // the SAME bytes at the SAME virtual times whether a stateful
        // handler is run in place by the driver (`serve_udp`) or a
        // reactor thread races the driver for the slot (`poll_udp`).
        let proc_time = SimTime::from_micros(50);
        let run_blocking = || {
            let net = Network::new(NetworkConfig::lan(), 3);
            net.serve_udp(
                2000,
                Box::new(move |req, _| Some((req.to_vec(), proc_time))),
            );
            let ep = net.bind_udp(5001);
            let mut replies = Vec::new();
            for i in 0..10u8 {
                ep.send_to(2000, vec![i, i + 1]);
                replies.push(ep.recv_timeout(SimTime::from_millis(10)).expect("reply"));
            }
            (replies, net.now())
        };
        let run_event = || {
            let net = Network::new(NetworkConfig::lan(), 3);
            let shutdown = spawn_echo_reactor(&net, 2000, proc_time);
            let ep = net.bind_udp(5001);
            let mut replies = Vec::new();
            for i in 0..10u8 {
                ep.send_to(2000, vec![i, i + 1]);
                replies.push(ep.recv_timeout(SimTime::from_millis(10)).expect("reply"));
            }
            let out = (replies, net.now());
            shutdown();
            out
        };
        let (b_replies, b_now) = run_blocking();
        let (e_replies, e_now) = run_event();
        assert_eq!(e_replies, b_replies, "byte-identical traces");
        assert_eq!(e_now, b_now, "time-identical traces");
    }

    #[test]
    fn driver_steals_inline_processor_work_with_no_reactor_at_all() {
        // An address registered with a processor needs no reactor
        // thread: the thread driving the simulation takes each delivery
        // out of the slot and runs the processor in place.
        let net = Network::new(NetworkConfig::lan(), 3);
        let driver = std::thread::current().id();
        net.serve_udp_events_with(
            2000,
            Box::new(move |req: &mut Vec<u8>, _| {
                assert_eq!(std::thread::current().id(), driver, "run in place");
                Some((req.to_vec(), SimTime::from_micros(50)))
            }),
        );
        let ep = net.bind_udp(5001);
        for i in 0..10u8 {
            ep.send_to(2000, vec![i, i + 1]);
            let dg = ep.recv_timeout(SimTime::from_millis(10)).expect("reply");
            assert_eq!(dg.payload, vec![i, i + 1]);
        }
        net.unserve_udp_events(2000);
    }

    #[test]
    fn poll_udp_returns_false_when_nothing_is_ready() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_with(2000, echo(SimTime::ZERO));
        assert!(!net.poll_udp(2000, || panic!("nothing to run")));
        assert!(
            !net.poll_udp(999, || panic!("nothing to run")),
            "unregistered address"
        );
        assert_eq!(net.ready_udp(2000), 0);
        net.unserve_udp_events(2000);
    }

    #[test]
    fn the_lane_holds_one_delivery_at_a_time() {
        // Four requests landing at one instant, two at each of two
        // served addresses: stepped one unit of work at a time, the
        // driver routes one into the slot, processes it, and only then
        // routes the next — at most one delivery is pending after any
        // step, network-wide. So every request is answered whatever the
        // receive-queue cap, except at a cap of 0, which drops and
        // counts all four.
        for cap in [usize::MAX, 1, 0] {
            let net = Network::new(NetworkConfig::lan().with_rx_queue_cap(cap), 1);
            for addr in [2000, 2001] {
                net.serve_udp_events_with(addr, echo(SimTime::from_micros(50)));
            }
            let eps: Vec<Endpoint> = (0..4).map(|i| net.bind_udp(5001 + i)).collect();
            for (i, ep) in eps.iter().enumerate() {
                ep.send_to(2000 + i as Addr % 2, vec![i as u8]);
            }
            let mut most = 0;
            while net.step(SimTime::from_millis(10)) {
                let pending = net.pending_events();
                assert!(pending <= 1, "{pending} deliveries pending");
                most = most.max(pending);
            }
            let served = cap > 0;
            assert_eq!(most, usize::from(served), "cap {cap}");
            for (i, ep) in eps.iter().enumerate() {
                let want = (2000 + i as Addr % 2, vec![i as u8]);
                let reply = ep.try_recv().map(|dg| (dg.from, dg.payload));
                assert_eq!(reply, served.then_some(want), "cap {cap}");
            }
            let stats = net.link_stats();
            let (drops, depth) = if served { (0, 1) } else { (4, 0) };
            assert_eq!(
                (stats.queue_drops, stats.queue_depth_high_water),
                (drops, depth),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn unserve_releases_pending_events_for_fast_forward() {
        // A delivery left in the slot pins the clock (pending); once the
        // address is unregistered the driver can fast-forward again.
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_with(2000, echo(SimTime::ZERO));
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![7]);
        // Run just far enough to deliver the datagram into the slot.
        net.run_until(SimTime::from_millis(1), || net.ready_udp(2000) > 0);
        assert_eq!(net.ready_udp(2000), 1);
        net.unserve_udp_events(2000);
        assert_eq!(net.ready_udp(2000), 0);
        let before = net.now();
        assert!(ep.recv_timeout(SimTime::from_millis(2)).is_none());
        assert_eq!(net.now(), before + SimTime::from_millis(2));
    }

    #[test]
    fn try_recv_is_nonblocking_in_virtual_time() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        assert!(b.try_recv().is_none(), "nothing sent yet");
        a.send_to(5002, vec![9]);
        assert!(
            b.try_recv().is_none(),
            "delivery is still in flight; try_recv must not advance time"
        );
        let before = net.now();
        assert!(b.recv_timeout(SimTime::from_millis(5)).is_some());
        assert!(net.now() > before);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn crash_drops_deliveries_and_restart_restores_service() {
        use crate::chaos::ChaosStats;
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_restartable(
            2000,
            Box::new(|| Box::new(|req: &mut Vec<u8>, _| Some((req.to_vec(), SimTime::ZERO)))),
        );
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![1]);
        assert!(ep.recv_timeout(SimTime::from_millis(5)).is_some());
        net.crash(2000);
        assert!(net.is_down(2000));
        ep.send_to(2000, vec![2]);
        assert!(
            ep.recv_timeout(SimTime::from_millis(5)).is_none(),
            "dead server must not answer"
        );
        net.restart(2000);
        assert!(!net.is_down(2000));
        ep.send_to(2000, vec![3]);
        assert_eq!(
            ep.recv_timeout(SimTime::from_millis(5))
                .expect("back up")
                .payload,
            vec![3]
        );
        let stats = net.chaos_stats();
        assert_eq!(
            stats,
            ChaosStats {
                crashes: 1,
                restarts: 1,
                drops_down: 1,
                downtime: stats.downtime,
                ..ChaosStats::default()
            }
        );
        assert_eq!(net.downtime(2000), stats.downtime);
        assert!(
            stats.downtime >= SimTime::from_millis(5),
            "the failed recv waited out 5ms of downtime"
        );
    }

    #[test]
    fn restart_installs_fresh_handler_state() {
        // The amnesia property: a restartable handler's captured state is
        // rebuilt by the factory, so a restarted endpoint forgets what it
        // saw — the netsim half of dup-cache amnesia.
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_restartable(
            2000,
            Box::new(|| {
                let mut seen = 0u8;
                Box::new(move |_req: &mut Vec<u8>, _| {
                    seen += 1;
                    Some((vec![seen], SimTime::ZERO))
                })
            }),
        );
        let ep = net.bind_udp(5001);
        for want in 1..=2u8 {
            ep.send_to(2000, vec![0]);
            assert_eq!(
                ep.recv_timeout(SimTime::from_millis(5))
                    .expect("reply")
                    .payload,
                vec![want]
            );
        }
        net.crash(2000);
        net.restart(2000);
        ep.send_to(2000, vec![0]);
        assert_eq!(
            ep.recv_timeout(SimTime::from_millis(5))
                .expect("reply")
                .payload,
            vec![1],
            "fresh state counts from one again"
        );
    }

    #[test]
    fn partition_drops_sends_both_ways_until_heal() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let a = net.bind_udp(5001);
        let b = net.bind_udp(5002);
        net.partition(5001, 5002);
        a.send_to(5002, vec![1]);
        b.send_to(5001, vec![2]);
        assert!(a.recv_timeout(SimTime::from_millis(3)).is_none());
        assert!(b.recv_timeout(SimTime::from_millis(3)).is_none());
        // A third party still reaches both sides: the cut is pairwise.
        let c = net.bind_udp(5003);
        c.send_to(5002, vec![3]);
        assert!(b.recv_timeout(SimTime::from_millis(3)).is_some());
        net.heal(5001, 5002);
        a.send_to(5002, vec![4]);
        assert_eq!(
            b.recv_timeout(SimTime::from_millis(3))
                .expect("healed")
                .payload,
            vec![4]
        );
        assert_eq!(net.chaos_stats().drops_partitioned, 2);
    }

    #[test]
    fn pause_defers_deliveries_until_resume() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(2000, Box::new(|req, _| Some((req.to_vec(), SimTime::ZERO))));
        let ep = net.bind_udp(5001);
        net.pause(2000);
        ep.send_to(2000, vec![1]);
        ep.send_to(2000, vec![2]);
        assert!(
            ep.recv_timeout(SimTime::from_millis(5)).is_none(),
            "stalled server answers nothing"
        );
        net.resume(2000);
        let r1 = ep
            .recv_timeout(SimTime::from_millis(5))
            .expect("deferred 1");
        let r2 = ep
            .recv_timeout(SimTime::from_millis(5))
            .expect("deferred 2");
        assert_eq!(r1.payload, vec![1], "arrival order preserved");
        assert_eq!(r2.payload, vec![2]);
        let stats = net.chaos_stats();
        assert_eq!(stats.deferred, 2);
        assert_eq!(stats.pauses, 1);
        assert!(stats.downtime >= SimTime::from_millis(5));
    }

    #[test]
    fn crash_releases_queued_readiness_events() {
        // A crash must un-count the delivery in the slot exactly like
        // unserve_udp_events, or the idle fast-forward would pin forever.
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp_events_with(2000, echo(SimTime::ZERO));
        let ep = net.bind_udp(5001);
        ep.send_to(2000, vec![7]);
        net.run_until(SimTime::from_millis(1), || net.ready_udp(2000) > 0);
        assert_eq!(net.pending_events(), 1);
        net.crash(2000);
        assert_eq!(net.pending_events(), 0);
        let before = net.now();
        assert!(ep.recv_timeout(SimTime::from_millis(2)).is_none());
        assert_eq!(net.now(), before + SimTime::from_millis(2));
    }

    #[test]
    fn chaos_schedule_replays_byte_identically() {
        use crate::chaos::ChaosSchedule;
        let run = || {
            let net = Network::new(NetworkConfig::lan(), 11);
            net.serve_udp_events_restartable(
                2000,
                Box::new(|| {
                    Box::new(|req: &mut Vec<u8>, _| Some((req.to_vec(), SimTime::from_micros(20))))
                }),
            );
            net.apply_chaos(&ChaosSchedule::new().crash_window(
                2000,
                SimTime::from_millis(3),
                SimTime::from_millis(2),
            ));
            let ep = net.bind_udp(5001);
            let mut replies = Vec::new();
            for i in 0..12u8 {
                ep.send_to(2000, vec![i]);
                replies.push(
                    ep.recv_timeout(SimTime::from_millis(1))
                        .map(|d| (d.payload, d.at)),
                );
            }
            (replies, net.now(), net.chaos_stats())
        };
        assert_eq!(run(), run(), "fixed schedule + seed replays identically");
        let (replies, _, stats) = run();
        assert!(
            replies.iter().any(Option::is_none),
            "crash window lost calls"
        );
        assert!(replies.iter().any(Option::is_some), "service recovered");
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
    }

    #[test]
    fn shared_network_works_across_threads() {
        // The tentpole property at the lowest layer: one simulated
        // network, a server handler, and two client threads doing
        // round trips concurrently — every request gets its reply.
        let net = Network::new(NetworkConfig::lan(), 9);
        net.serve_udp(
            2000,
            Box::new(|req, _| Some((req.to_vec(), SimTime::from_micros(10)))),
        );
        let mut handles = Vec::new();
        for t in 0..2u8 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let ep = net.bind_udp(6000 + t as Addr);
                let mut got = 0;
                for i in 0..20u8 {
                    ep.send_to(2000, vec![t, i]);
                    // Generous timeout: the peer thread may advance the
                    // shared clock while we wait.
                    if let Some(dg) = ep.recv_timeout(SimTime::from_millis(500)) {
                        assert_eq!(dg.payload, vec![t, i]);
                        got += 1;
                    }
                }
                got
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("thread"), 20, "no lost replies");
        }
    }
}

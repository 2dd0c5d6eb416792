//! The serving core: one reactor, however a datagram service is deployed.
//!
//! [`serve`] registers every address of a [`ServeConfig`] on the
//! simulator's delivery lane ([`Network::serve_udp_events_with`]) with a
//! processor that owns the address's cache-fronted dispatch body, and
//! returns the [`Served`] handle that owns the deployment. The simulator
//! lends that processor to whichever thread runs the address's delivery,
//! one at a time, so the body — its duplicate-request cache, the log its
//! replies are copied into and the one request buffer it parks for the
//! next reply — takes no lock. Two numbers shape the deployment:
//!
//! - **`shards`** partitions the served addresses (`addr % shards`). A
//!   shard *owns* its addresses' dispatch bodies and one wire-buffer
//!   pool, which consumes the shard's other request datagrams and feeds
//!   its replay, sub-message and reply-envelope buffers. A one-shard
//!   deployment draws on the registry's own pool — the one reply images
//!   that were offered no fitting buffer come from and a pooled client
//!   recycles into — so a call allocates nothing. (`tests/zero_copy.rs`
//!   holds with a private pool there too; the envelope path is what needs
//!   the shared one: a sub-message buffer rarely fits its reply, and on
//!   `nfs_mix` a registry pool that nothing refills cost 8% of
//!   `calls_per_s`.)
//! - **`workers_per_shard`** is how many reactor threads each shard runs.
//!   A worker sweeps its own shard's sockets round-robin, running the
//!   registered processor on one datagram per socket per visit
//!   ([`Network::poll_udp`]); when those are dry it walks the peer shards
//!   in `(shard + d) % shards` order and *steals*, and when the whole map
//!   is dry it sleeps in [`Network::wait_ready`].
//!
//! With **zero workers** no thread is spawned at all: every delivery is
//! executed in place by the thread driving the simulation, in the order a
//! single reactor would drain it. That mode is deterministic — byte- and
//! virtual-time-identical for any shard count, because the shard map only
//! changes who *owns* caches and pools, never the dispatch logic or the
//! delivery order — and, with no hand-off between threads, it is also the
//! fast one on a host with few cores. Workers keep every delivery
//! exactly-once and every virtual-time trace identical for a single
//! driver (a worker that wins the race for a datagram charges the same
//! clock the driver would have). They add a cross-thread hand-off, not
//! parallelism: the simulator's lane holds one datagram at a time, so a
//! worker only races the driving thread for it.

use crate::bufpool::BufPool;
use crate::svc::SvcRegistry;
use crate::svc_udp::{CachedDispatch, ProcTimeModel, DUP_CACHE_ENTRIES};
use specrpc_netsim::net::{Addr, EventProcessor, Network};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle worker sleeps in [`Network::wait_ready`] before
/// re-checking the shutdown flag (woken early on any delivery).
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// Everything that distinguishes one datagram deployment from another.
#[derive(Clone)]
pub struct ServeConfig {
    /// The addresses to serve (at least one).
    pub addrs: Vec<Addr>,
    /// Shards the addresses are spread over, `addr % shards`.
    pub shards: usize,
    /// Reactor threads per shard; `0` runs every delivery on the thread
    /// driving the simulation.
    pub workers_per_shard: usize,
    /// Server processing-time model; `None` is
    /// [`crate::svc_udp::default_proc_time`].
    pub proc_time: Option<ProcTimeModel>,
    /// Entries in each address's duplicate-request cache (`0` disables
    /// caching: every delivery re-dispatches, at-least-once).
    pub cache_entries: usize,
    /// Whether a [`Network::crash`] / [`Network::restart`] cycle on a
    /// served address brings it back — with an **empty**
    /// duplicate-request cache, the amnesiac-server failure mode Sun
    /// RPC's cache cannot protect against: a retransmission of a
    /// pre-crash call re-executes its handler. The registry (and its
    /// handlers' state) is shared across incarnations, like an NFS
    /// server whose disk survives the reboot that wipes its memory.
    pub restartable: bool,
}

impl ServeConfig {
    /// `addrs` on one shard with no workers, the default processing-time
    /// model, [`DUP_CACHE_ENTRIES`]-entry caches, not restartable.
    pub fn new(addrs: &[Addr]) -> ServeConfig {
        ServeConfig {
            addrs: addrs.to_vec(),
            shards: 1,
            workers_per_shard: 0,
            proc_time: None,
            cache_entries: DUP_CACHE_ENTRIES,
            restartable: false,
        }
    }
}

/// The shard owning `addr` in a map of `shards`.
fn shard_of(addr: Addr, shards: usize) -> usize {
    addr as usize % shards
}

/// Event counters of one deployment.
struct Counts {
    /// Per shard: events processed on the shard's sockets, by *any*
    /// executor (own workers, stealing peers, or a driving thread).
    processed: Vec<AtomicU64>,
    /// Per shard: events its workers took from *peer* shards' sockets.
    steals: Vec<AtomicU64>,
    /// Per worker (shard-major): events the worker executed.
    by_worker: Vec<AtomicU64>,
}

fn counters(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

fn loads(counters: &[AtomicU64]) -> Vec<u64> {
    counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// A running datagram deployment (see the [module docs](self)).
///
/// Dropping it shuts it down: workers are woken and joined, and the
/// addresses are unregistered (releasing any still-queued deliveries so
/// driving threads cannot stall on them).
#[must_use = "dropping the handle stops the service; `detach` leaves it with the network"]
pub struct Served {
    net: Network,
    addrs: Arc<Vec<Addr>>,
    registry: Arc<SvcRegistry>,
    shutdown: Arc<AtomicBool>,
    counts: Arc<Counts>,
    handles: Vec<JoinHandle<()>>,
}

/// Serve `registry` over UDP as `cfg` describes — the one way server
/// code is reached by a datagram.
///
/// # Panics
/// Panics if `cfg` names no address or no shard.
pub fn serve(net: &Network, registry: Arc<SvcRegistry>, cfg: ServeConfig) -> Served {
    let ServeConfig {
        addrs,
        shards,
        workers_per_shard,
        proc_time,
        cache_entries,
        restartable,
    } = cfg;
    assert!(
        !addrs.is_empty(),
        "a deployment serves at least one address"
    );
    assert!(shards > 0, "a deployment has at least one shard");
    let pools: Vec<Arc<BufPool>> = if shards == 1 {
        vec![registry.pool().clone()]
    } else {
        (0..shards).map(|_| Arc::new(BufPool::tight())).collect()
    };
    let counts = Arc::new(Counts {
        processed: counters(shards),
        steals: counters(shards),
        by_worker: counters(shards * workers_per_shard),
    });
    let addrs = Arc::new(addrs);
    for &addr in addrs.iter() {
        // The address's processor owns its cache-fronted dispatch body,
        // drawing on the owning shard's buffer pool; a restart builds a
        // fresh one. The count comes before the reply is sent, so a
        // client holding the reply always observes it.
        let shard = shard_of(addr, shards);
        let (registry, proc_time) = (registry.clone(), proc_time.clone());
        let (bufs, counts) = (pools[shard].clone(), counts.clone());
        let processor = move || -> EventProcessor {
            let mut cd = CachedDispatch::new(
                registry.clone(),
                proc_time.clone(),
                cache_entries,
                bufs.clone(),
            );
            let counts = counts.clone();
            Box::new(move |req, from| {
                counts.processed[shard].fetch_add(1, Ordering::Relaxed);
                Some(cd.handle(req, from))
            })
        };
        if restartable {
            net.serve_udp_events_restartable(addr, Box::new(processor));
        } else {
            net.serve_udp_events_with(addr, processor());
        }
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    // Address indices grouped by owning shard, so a worker walks shard by
    // shard without re-filtering.
    let by_shard: Arc<Vec<Vec<usize>>> = Arc::new({
        let mut groups = vec![Vec::new(); shards];
        for (i, &addr) in addrs.iter().enumerate() {
            groups[shard_of(addr, shards)].push(i);
        }
        groups
    });
    let mut handles = Vec::with_capacity(shards * workers_per_shard);
    for shard in 0..shards {
        for w in 0..workers_per_shard {
            let worker = Worker {
                net: net.clone(),
                addrs: addrs.clone(),
                by_shard: by_shard.clone(),
                counts: counts.clone(),
                shutdown: shutdown.clone(),
                shard,
                id: shard * workers_per_shard + w,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("specrpc-shard-{shard}-{w}"))
                    .spawn(move || worker.run(w))
                    .expect("spawn reactor worker"),
            );
        }
    }
    Served {
        net: net.clone(),
        addrs,
        registry,
        shutdown,
        counts,
        handles,
    }
}

/// One reactor thread of shard `shard`.
struct Worker {
    net: Network,
    addrs: Arc<Vec<Addr>>,
    by_shard: Arc<Vec<Vec<usize>>>,
    counts: Arc<Counts>,
    shutdown: Arc<AtomicBool>,
    shard: usize,
    id: usize,
}

impl Worker {
    /// Sweep until shut down. `offset` staggers the starting socket per
    /// worker and rotates every sweep: round-robin draining, one datagram
    /// per socket per visit.
    fn run(&self, mut offset: usize) {
        let shards = self.by_shard.len();
        while !self.shutdown.load(Ordering::Acquire) {
            // The own shard first (`d == 0`), then the peers in a fixed
            // order; the walk stops at the first shard that had work, so
            // a thief goes back to its own sockets before stealing more.
            let served = (0..shards).any(|d| self.sweep((self.shard + d) % shards, offset));
            offset = offset.wrapping_add(1);
            if !served {
                // Wake on traffic anywhere in the map: the next delivery
                // may be stealable.
                self.net.wait_ready(&self.addrs, IDLE_WAIT);
            }
        }
    }

    /// One visit to each socket of shard `owner`; whether any had a
    /// datagram. The counts come before the reply is sent (see [`serve`]).
    fn sweep(&self, owner: usize, offset: usize) -> bool {
        let group = &self.by_shard[owner];
        let mut served = false;
        for k in 0..group.len() {
            let addr = self.addrs[group[(offset + k) % group.len()]];
            served |= self.net.poll_udp(addr, || {
                self.counts.by_worker[self.id].fetch_add(1, Ordering::Relaxed);
                if owner != self.shard {
                    self.counts.steals[self.shard].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        served
    }
}

impl Served {
    /// Leave the deployment with the network for as long as the network
    /// lives, and hand back its registry — what a fire-and-forget
    /// `serve_udp` spelling wants.
    ///
    /// # Panics
    /// Panics if the deployment has workers: dropping the handle is what
    /// stops them.
    pub fn detach(mut self) -> Arc<SvcRegistry> {
        assert!(
            self.handles.is_empty(),
            "a deployment with workers cannot be detached"
        );
        self.addrs = Arc::default();
        self.registry.clone()
    }

    /// The shared registry every socket dispatches through.
    pub fn registry(&self) -> &Arc<SvcRegistry> {
        &self.registry
    }

    /// Events processed per shard (credited to the shard *owning* the
    /// socket, regardless of which worker or driver executed it).
    pub fn per_shard_events(&self) -> Vec<u64> {
        loads(&self.counts.processed)
    }

    /// Events executed per reactor worker, shard-major (worker `w` of
    /// shard `s` is entry `s * workers_per_shard + w`); empty with zero
    /// workers.
    pub fn per_worker_events(&self) -> Vec<u64> {
        loads(&self.counts.by_worker)
    }

    /// Events a shard's workers took from peer shards' sockets, summed
    /// over the stealing shards.
    pub fn cross_shard_steals(&self) -> u64 {
        loads(&self.counts.steals).iter().sum()
    }

    /// Total events processed across the map.
    pub fn total_events(&self) -> u64 {
        self.per_shard_events().iter().sum()
    }

    /// Deliveries executed in place by a driving thread rather than by a
    /// worker: all of the traffic with zero workers; otherwise whatever
    /// the drivers got to first (most of it on a single core). Every event
    /// is counted before its reply is sent, so at quiescence this is exact.
    pub fn driver_inline_events(&self) -> u64 {
        self.total_events()
            .saturating_sub(self.per_worker_events().iter().sum())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.net.notify_ready();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        for &addr in self.addrs.iter() {
            self.net.unserve_udp_events(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CallHeader, ReplyHeader};
    use specrpc_netsim::net::{Datagram, NetworkConfig};
    use specrpc_netsim::SimTime;
    use specrpc_xdr::mem::XdrMem;
    use specrpc_xdr::primitives::xdr_int;
    use std::sync::{mpsc, Mutex};

    fn echo_registry() -> Arc<SvcRegistry> {
        let reg = SvcRegistry::new();
        reg.register(300, 1, 1, |args, results| {
            let mut v = 0i32;
            xdr_int(args, &mut v)?;
            let mut out = v + 1;
            xdr_int(results, &mut out)?;
            Ok(())
        });
        Arc::new(reg)
    }

    fn call(xid: u32, arg: i32) -> Vec<u8> {
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(xid, 300, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut a = arg;
        xdr_int(&mut enc, &mut a).unwrap();
        enc.into_bytes()
    }

    /// The echo registry at `addrs` over `shards` × `workers` reactors.
    fn deploy(
        net: &Network,
        addrs: &[Addr],
        registry: Arc<SvcRegistry>,
        shards: usize,
        workers: usize,
    ) -> Served {
        let cfg = ServeConfig {
            shards,
            workers_per_shard: workers,
            ..ServeConfig::new(addrs)
        };
        serve(net, registry, cfg)
    }

    /// Check one reply: who sent it, whose it is, and that `arg` came
    /// back incremented.
    fn assert_reply(dg: &Datagram, from: Addr, xid: u32, arg: i32) {
        assert_eq!(dg.from, from);
        let mut dec = XdrMem::decoder(&dg.payload);
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(hdr.xid, xid);
        let mut out = 0i32;
        xdr_int(&mut dec, &mut out).unwrap();
        assert_eq!(out, arg + 1);
    }

    #[test]
    fn modulo_plan_spreads_addresses() {
        assert_eq!(shard_of(650, 4), 650 % 4);
        assert_eq!(shard_of(651, 4), 651 % 4);
        assert_eq!(shard_of(651, 1), 0);
    }

    #[test]
    fn sharded_map_answers_over_the_network() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let ports: Vec<Addr> = (650..658).collect();
        let sl = deploy(&net, &ports, echo_registry(), 4, 1);
        let ep = net.bind_udp(4000);
        for (i, &port) in ports.iter().enumerate() {
            ep.send_to(port, call(i as u32, i as i32));
            let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
            assert_reply(&dg, port, i as u32, i as i32);
        }
        // Counted before the reply was sent: nothing is still in flight.
        assert_eq!(sl.total_events(), 8);
        assert_eq!(sl.per_shard_events(), vec![2, 2, 2, 2]);
        assert_eq!(
            sl.per_worker_events().iter().sum::<u64>() + sl.driver_inline_events(),
            8,
            "every event ran on a worker or on the driver"
        );
    }

    #[test]
    fn workers_behind_one_address_answer_every_call() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let sl = deploy(&net, &[650], echo_registry(), 1, 2);
        let ep = net.bind_udp(4000);
        for i in 0..6 {
            ep.send_to(650, call(100 + i, 10 + i as i32));
            let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
            assert_reply(&dg, 650, 100 + i, 10 + i as i32);
        }
        assert_eq!(sl.total_events(), 6);
        assert_eq!(sl.per_worker_events().len(), 2);
        assert_eq!(sl.registry().generic_dispatches(), 6);
    }

    #[test]
    fn steals_are_worker_events_and_every_event_is_counted_once() {
        // Two shards of two workers behind two addresses: each shard
        // counts its own address's events, and the workers and the driver
        // between them ran each event exactly once.
        let net = Network::new(NetworkConfig::lan(), 8);
        let sl = deploy(&net, &[650, 651], echo_registry(), 2, 2);
        let ep = net.bind_udp(4000);
        for i in 0..4 {
            let port = 650 + i % 2;
            ep.send_to(port, call(100 + i, 10 + i as i32));
            let dg = ep.recv_timeout(SimTime::from_millis(20)).expect("reply");
            assert_reply(&dg, port, 100 + i, 10 + i as i32);
        }
        assert_eq!(sl.per_shard_events(), vec![2, 2]);
        let by_workers: u64 = sl.per_worker_events().iter().sum();
        assert_eq!(sl.per_worker_events().len(), 4);
        assert_eq!(by_workers + sl.driver_inline_events(), 4);
        assert!(sl.cross_shard_steals() <= by_workers);
    }

    #[test]
    fn one_shard_serves_every_address_it_owns() {
        let net = Network::new(NetworkConfig::lan(), 9);
        let sl = deploy(&net, &[650, 651], echo_registry(), 1, 1);
        let ep = net.bind_udp(4000);
        for (i, port) in [(0u32, 650u32), (1, 651), (2, 650), (3, 651)] {
            ep.send_to(port, call(i, i as i32));
            let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
            assert_eq!(dg.from, port);
        }
        assert_eq!(sl.total_events(), 4);
    }

    #[test]
    fn single_driver_mode_spawns_no_threads_and_counts_inline() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let ports: Vec<Addr> = vec![650, 651, 652];
        let sl = deploy(&net, &ports, echo_registry(), 3, 0);
        assert!(sl.per_worker_events().is_empty());
        let ep = net.bind_udp(4000);
        for i in 0..6u32 {
            ep.send_to(ports[i as usize % 3], call(i, i as i32));
            ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        }
        assert_eq!(sl.total_events(), 6);
        assert_eq!(sl.driver_inline_events(), 6, "all inline, no workers");
        assert_eq!(sl.cross_shard_steals(), 0);
        assert_eq!(sl.per_shard_events(), vec![2, 2, 2]);
    }

    #[test]
    fn shard_count_does_not_change_bytes_or_virtual_time() {
        // The same call sequence through 1 shard and through 4, both in
        // single-driver mode: byte- and virtual-time-identical.
        let run = |shards: usize| {
            let net = Network::new(NetworkConfig::lan(), 5);
            let ports: Vec<Addr> = (650..654).collect();
            let sl = deploy(&net, &ports, echo_registry(), shards, 0);
            let ep = net.bind_udp(4000);
            let mut replies = Vec::new();
            for i in 0..12u32 {
                ep.send_to(ports[i as usize % 4], call(i, i as i32));
                replies.push(
                    ep.recv_timeout(SimTime::from_millis(50))
                        .expect("reply")
                        .payload,
                );
            }
            drop(sl);
            (replies, net.now())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn a_worker_racing_the_driver_changes_no_byte_or_instant() {
        // The same call sequence with every delivery on the driving thread
        // (a detached zero-worker deployment) and with a reactor worker
        // racing it: byte- and virtual-time-identical.
        let run = |workers: usize| {
            let net = Network::new(NetworkConfig::lan(), 5);
            let reg = echo_registry();
            let sl = if workers > 0 {
                Some(deploy(&net, &[650], reg, 1, workers))
            } else {
                serve(&net, reg, ServeConfig::new(&[650])).detach();
                None
            };
            let ep = net.bind_udp(4000);
            let mut replies = Vec::new();
            for i in 0..8 {
                ep.send_to(650, call(i, i as i32));
                replies.push(
                    ep.recv_timeout(SimTime::from_millis(50))
                        .expect("reply")
                        .payload,
                );
            }
            drop(sl);
            (replies, net.now())
        };
        assert_eq!(run(0), run(1));
    }

    fn assert_drop_joins_and_releases(ports: &[Addr], shards: usize, workers: usize) {
        let net = Network::new(NetworkConfig::lan(), 8);
        let sl = deploy(&net, ports, echo_registry(), shards, workers);
        let ep = net.bind_udp(4000);
        ep.send_to(ports[0], call(1, 1));
        ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        drop(sl); // must not hang
        assert_eq!(net.ready_udp(ports[0]), 0);
        // The addresses no longer answer (and must not stall the clock).
        ep.send_to(ports[ports.len() - 1], call(2, 2));
        assert!(ep.recv_timeout(SimTime::from_millis(5)).is_none());
    }

    #[test]
    fn drop_joins_workers_and_releases_addresses() {
        assert_drop_joins_and_releases(&[650, 651], 2, 2);
    }

    #[test]
    fn drop_joins_every_worker_behind_one_address() {
        assert_drop_joins_and_releases(&[650], 1, 4);
    }

    #[test]
    fn drop_waits_for_the_dispatch_in_flight() {
        // Dropped while a worker is mid-dispatch: the drop waits for it, the
        // reply it owed still goes out, and only then is the address gone.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let reg = SvcRegistry::new();
        reg.register(300, 1, 1, move |_args, results| {
            entered_tx.send(()).expect("test thread");
            release_rx
                .lock()
                .expect("release")
                .recv()
                .expect("test thread");
            let mut out = 5i32;
            xdr_int(results, &mut out)?;
            Ok(())
        });
        let net = Network::new(NetworkConfig::lan(), 8);
        let sl = deploy(&net, &[650], Arc::new(reg), 1, 4);
        let ep = net.bind_udp(4000);
        ep.send_to(650, call(1, 1));
        // Deliver it and stop driving, so that a worker — not this thread —
        // picks it up.
        let deadline = net.now() + SimTime::from_millis(5);
        while net.pending_events() == 0 {
            assert!(net.step(deadline), "delivery must land before deadline");
        }
        entered_rx.recv().expect("a worker took the delivery");
        let (dropping_tx, dropping_rx) = mpsc::channel::<()>();
        let dropper = std::thread::spawn(move || {
            dropping_tx.send(()).expect("test thread");
            drop(sl); // joins the worker stuck in the handler
        });
        dropping_rx.recv().expect("dropper thread");
        release_tx.send(()).expect("handler");
        dropper.join().expect("dropper thread");
        assert_eq!(net.pending_events(), 0);
        let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        assert_reply(&dg, 650, 1, 4);
        ep.send_to(650, call(2, 2));
        assert!(ep.recv_timeout(SimTime::from_millis(5)).is_none());
    }

    fn assert_duplicates_replay(ports: &[Addr], shards: usize, workers: usize) {
        let net = Network::new(NetworkConfig::lan(), 8);
        let reg = echo_registry();
        let sl = deploy(&net, ports, reg.clone(), shards, workers);
        let ep = net.bind_udp(4000);
        let c = call(7, 1);
        ep.send_to(650, c.clone());
        let first = ep.recv_timeout(SimTime::from_millis(50)).expect("first");
        ep.send_to(650, c);
        let second = ep.recv_timeout(SimTime::from_millis(50)).expect("replay");
        assert_eq!(first.payload, second.payload, "replayed reply identical");
        assert_eq!(reg.generic_dispatches(), 1, "handler ran exactly once");
        assert_eq!(sl.total_events(), 2, "both deliveries went through");
    }

    #[test]
    fn duplicates_replay_from_the_owning_shards_cache() {
        assert_duplicates_replay(&[650, 651], 2, 0);
    }

    #[test]
    fn a_worker_replays_duplicates_from_its_shards_cache() {
        assert_duplicates_replay(&[650], 1, 1);
    }

    #[test]
    fn racing_workers_replay_duplicates_from_one_cache() {
        assert_duplicates_replay(&[650], 1, 2);
    }

    #[test]
    fn concurrent_duplicates_execute_the_handler_exactly_once() {
        // A slow handler, 4 workers, and the same datagram delivered many
        // times. The lane holds one delivery at a time, so every duplicate
        // reaches the address after its original's reply was recorded,
        // and is replayed — never re-dispatched.
        let runs = Arc::new(AtomicU64::new(0));
        let reg = SvcRegistry::new();
        let r = runs.clone();
        reg.register(300, 1, 1, move |_args, results| {
            r.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
            let mut out = 9i32;
            xdr_int(results, &mut out)?;
            Ok(())
        });
        let net = Network::new(NetworkConfig::lan(), 8);
        let _sl = deploy(&net, &[650], Arc::new(reg), 1, 4);
        let ep = net.bind_udp(4000);
        let c = call(42, 0);
        for _ in 0..6 {
            ep.send_to(650, c.clone());
        }
        // At least one reply arrives; the handler ran exactly once.
        assert!(ep.recv_timeout(SimTime::from_millis(200)).is_some());
        // Drain whatever replays the cache produced.
        while ep.recv_timeout(SimTime::from_millis(20)).is_some() {}
        assert_eq!(runs.load(Ordering::Relaxed), 1, "exactly-once");
    }

    #[test]
    fn one_address_never_runs_its_server_code_twice_at_once() {
        // Two driving threads and a reactor worker race for one
        // address's deliveries, and its handler flags re-entry: it never
        // sees two runs at once, and every call ran it exactly once.
        const THREADS: u32 = 2;
        const CALLS: u32 = 200;
        let (busy, overlaps) = (AtomicBool::new(false), Arc::new(AtomicU64::new(0)));
        let reg = SvcRegistry::new();
        let seen = overlaps.clone();
        reg.register(300, 1, 1, move |args, results| {
            if busy.swap(true, Ordering::AcqRel) {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            let mut v = 0i32;
            xdr_int(args, &mut v)?;
            std::thread::yield_now();
            let mut out = v + 1;
            xdr_int(results, &mut out)?;
            busy.store(false, Ordering::Release);
            Ok(())
        });
        let net = Network::new(NetworkConfig::lan(), 8);
        let sl = deploy(&net, &[650], Arc::new(reg), 1, 1);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let net = &net;
                s.spawn(move || {
                    let ep = net.bind_udp(4000 + t);
                    for i in 0..CALLS {
                        let xid = t * CALLS + i;
                        ep.send_to(650, call(xid, xid as i32));
                        // Generous: the peer thread may advance the shared
                        // clock while this one waits.
                        let dg = ep.recv_timeout(SimTime::from_millis(500)).expect("reply");
                        assert_reply(&dg, 650, xid, xid as i32);
                    }
                });
            }
        });
        assert_eq!(overlaps.load(Ordering::Relaxed), 0, "two runs at once");
        let calls = u64::from(THREADS * CALLS);
        assert_eq!(sl.registry().generic_dispatches(), calls);
        assert_eq!(sl.total_events(), calls);
    }

    #[test]
    fn handler_panic_does_not_wedge_its_address() {
        // A registry handler that panics once. The panic reaches the
        // thread driving the delivery and nothing else: the address gets
        // its processor back with nothing of the transaction recorded, so
        // the client's retransmission is executed, and a third copy of the
        // request is answered from the dup cache.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let reg = SvcRegistry::new();
        let first = AtomicBool::new(true);
        reg.register(300, 1, 1, move |_args, results| {
            assert!(!first.swap(false, Ordering::Relaxed), "handler bug");
            let mut out = 9i32;
            xdr_int(results, &mut out)?;
            Ok(())
        });
        let reg = Arc::new(reg);
        let net = Network::new(NetworkConfig::lan(), 8);
        let sl = deploy(&net, &[650], reg.clone(), 1, 0);
        let ep = net.bind_udp(4000);
        let c = call(0x77, 0);
        ep.send_to(650, c.clone());
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            ep.recv_timeout(SimTime::from_millis(5))
        }));
        assert!(crashed.is_err(), "the handler's panic reaches the driver");
        assert_eq!(net.pending_events(), 0);
        ep.send_to(650, c.clone());
        let retried = ep.recv_timeout(SimTime::from_millis(50)).expect("retry");
        assert_reply(&retried, 650, 0x77, 8);
        ep.send_to(650, c);
        let replayed = ep.recv_timeout(SimTime::from_millis(50)).expect("replay");
        assert_eq!(replayed.payload, retried.payload);
        assert_eq!(reg.generic_dispatches(), 2, "the panic and the retry");
        assert_eq!(sl.total_events(), 3);
    }
}

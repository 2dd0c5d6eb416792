//! Thread-pool server dispatch: independent requests processed on worker
//! threads that share one [`SvcRegistry`] (and, one level up, one
//! `StubCache`).
//!
//! The simulated network delivers events one at a time under the
//! simulator lock, so what the pool buys inside a single simulation is
//! *real cross-thread dispatch* — every request's decode → user handler →
//! encode runs on a worker OS thread, exercising the `Send + Sync` bounds
//! of the whole serving stack — plus per-worker accounting. Placement is
//! per-datagram for UDP (round-robin) and per-connection for TCP (each
//! accepted connection is pinned to one worker, preserving record order
//! within a connection).

use crate::svc::SvcRegistry;
use crate::svc_tcp::SvcTcpConn;
use crate::svc_udp::{default_proc_time, ProcTimeModel, DUP_CACHE_ENTRIES};
use specrpc_netsim::net::{Addr, Network, TcpHandler};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

struct Job {
    request: Vec<u8>,
    reply_tx: mpsc::SyncSender<Vec<u8>>,
}

/// A fixed pool of dispatcher threads over one shared registry.
///
/// Dropping the pool shuts the workers down (their queues close and the
/// threads are joined).
pub struct DispatchPool {
    /// One queue per worker (`mpsc::Sender` is `Sync`, so sends go
    /// straight through `&self`).
    queues: Vec<mpsc::Sender<Job>>,
    dispatched: Arc<Vec<AtomicU64>>,
    next: AtomicUsize,
    handles: Vec<JoinHandle<()>>,
    /// The shared registry (kept for access to its wire-buffer pool).
    registry: Arc<SvcRegistry>,
}

impl DispatchPool {
    /// Spawn `pool_size` workers dispatching through `registry`.
    ///
    /// # Panics
    /// Panics if `pool_size` is zero.
    pub fn new(registry: Arc<SvcRegistry>, pool_size: usize) -> Self {
        assert!(pool_size > 0, "dispatch pool needs at least one worker");
        let dispatched: Arc<Vec<AtomicU64>> =
            Arc::new((0..pool_size).map(|_| AtomicU64::new(0)).collect());
        let mut queues = Vec::with_capacity(pool_size);
        let mut handles = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            let (tx, rx) = mpsc::channel::<Job>();
            let reg = registry.clone();
            let counts = dispatched.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("specrpc-dispatch-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let reply = reg.dispatch(&job.request);
                            counts[i].fetch_add(1, Ordering::Relaxed);
                            // The requester may have given up (network
                            // torn down); a closed reply channel is fine.
                            let _ = job.reply_tx.send(reply);
                        }
                    })
                    .expect("spawn dispatch worker"),
            );
            queues.push(tx);
        }
        DispatchPool {
            queues,
            dispatched,
            next: AtomicUsize::new(0),
            handles,
            registry,
        }
    }

    /// The shared registry the workers dispatch through.
    pub fn registry(&self) -> &Arc<SvcRegistry> {
        &self.registry
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.queues.len()
    }

    /// Pick the next worker round-robin.
    pub fn assign(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len()
    }

    /// Dispatch one request on the round-robin-next worker, blocking
    /// until its reply is ready.
    pub fn dispatch(&self, request: &[u8]) -> Vec<u8> {
        self.dispatch_on(self.assign(), request)
    }

    /// Dispatch one request on a specific worker (per-connection
    /// stickiness), blocking until its reply is ready.
    pub fn dispatch_on(&self, worker: usize, request: &[u8]) -> Vec<u8> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.queues[worker]
            .send(Job {
                request: request.to_vec(),
                reply_tx,
            })
            .expect("dispatch worker hung up");
        reply_rx.recv().expect("dispatch worker died mid-request")
    }

    /// Requests dispatched per worker since the pool started — the
    /// per-thread counts `Summary` surfaces.
    pub fn per_thread_dispatches(&self) -> Vec<u64> {
        self.dispatched
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total requests dispatched across all workers.
    pub fn total_dispatches(&self) -> u64 {
        self.per_thread_dispatches().iter().sum()
    }
}

impl Drop for DispatchPool {
    fn drop(&mut self) {
        // Closing every queue ends each worker's recv loop.
        self.queues.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Install the registry as a UDP service at `addr`, dispatching each
/// datagram on a pool worker (round-robin), with the same
/// duplicate-request cache as [`crate::svc_udp::serve_udp`]. Returns the
/// pool for stats and lifetime management.
pub fn serve_udp_threaded(
    net: &Network,
    addr: Addr,
    registry: Arc<SvcRegistry>,
    pool_size: usize,
    proc_time: Option<ProcTimeModel>,
) -> Arc<DispatchPool> {
    let pool = Arc::new(DispatchPool::new(registry, pool_size));
    attach_udp(net, addr, pool.clone(), proc_time);
    pool
}

/// Attach an already-running pool as the UDP service at `addr` (same
/// duplicate-request cache and replay cost as the direct `serve_udp`).
pub fn attach_udp(
    net: &Network,
    addr: Addr,
    pool: Arc<DispatchPool>,
    proc_time: Option<ProcTimeModel>,
) {
    let bufs = pool.registry().pool().clone();
    crate::svc_udp::serve_dispatcher_udp(
        net,
        addr,
        Arc::new(move |request: &[u8]| pool.dispatch(request)),
        proc_time,
        DUP_CACHE_ENTRIES,
        bufs,
    );
}

/// Install the registry as a TCP service at `addr`, pinning each accepted
/// connection to one pool worker (records on a connection stay ordered;
/// different connections dispatch on different threads). Returns the pool.
pub fn serve_tcp_threaded(
    net: &Network,
    addr: Addr,
    registry: Arc<SvcRegistry>,
    pool_size: usize,
    proc_time: Option<ProcTimeModel>,
) -> Arc<DispatchPool> {
    let pool = Arc::new(DispatchPool::new(registry, pool_size));
    attach_tcp(net, addr, pool.clone(), proc_time);
    pool
}

/// Attach an already-running pool as the TCP service at `addr` (so UDP
/// and TCP can share one pool and one stats surface).
pub fn attach_tcp(
    net: &Network,
    addr: Addr,
    pool: Arc<DispatchPool>,
    proc_time: Option<ProcTimeModel>,
) {
    let model = proc_time.unwrap_or_else(default_proc_time);
    net.serve_tcp(
        addr,
        Box::new(move || {
            let worker = pool.assign();
            let p = pool.clone();
            Box::new(SvcTcpConn::with_dispatcher(
                Arc::new(move |req: &[u8]| p.dispatch_on(worker, req)),
                model.clone(),
                pool.registry().clone(),
            )) as Box<dyn TcpHandler>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CallHeader, ReplyHeader};
    use specrpc_netsim::net::NetworkConfig;
    use specrpc_netsim::SimTime;
    use specrpc_xdr::mem::XdrMem;
    use specrpc_xdr::primitives::xdr_int;

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

    #[test]
    fn pool_dispatches_on_worker_threads() {
        let pool = DispatchPool::new(echo_registry(), 3);
        for i in 0..9 {
            let reply = pool.dispatch(&call(i, i as i32));
            let mut dec = XdrMem::decoder(&reply);
            let hdr = ReplyHeader::decode(&mut dec).unwrap();
            assert_eq!(hdr.xid, i);
            let mut out = 0i32;
            xdr_int(&mut dec, &mut out).unwrap();
            assert_eq!(out, i as i32 + 1);
        }
        let per = pool.per_thread_dispatches();
        assert_eq!(per, vec![3, 3, 3], "round-robin spreads the work");
        assert_eq!(pool.total_dispatches(), 9);
    }

    #[test]
    fn threaded_udp_service_answers_over_the_network() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let pool = serve_udp_threaded(&net, 650, echo_registry(), 2, None);
        let ep = net.bind_udp(4000);
        for i in 0..4 {
            ep.send_to(650, call(100 + i, 10 + i as i32));
            let dg = ep.recv_timeout(SimTime::from_millis(20)).expect("reply");
            let mut dec = XdrMem::decoder(&dg.payload);
            let hdr = ReplyHeader::decode(&mut dec).unwrap();
            assert_eq!(hdr.xid, 100 + i);
        }
        assert_eq!(pool.total_dispatches(), 4);
        assert_eq!(pool.per_thread_dispatches(), vec![2, 2]);
    }

    #[test]
    fn threaded_udp_duplicates_hit_the_reply_cache() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let reg = echo_registry();
        let pool = serve_udp_threaded(&net, 650, reg.clone(), 2, None);
        let ep = net.bind_udp(4000);
        let c = call(7, 1);
        ep.send_to(650, c.clone());
        ep.recv_timeout(SimTime::from_millis(20)).expect("first");
        ep.send_to(650, c);
        ep.recv_timeout(SimTime::from_millis(20)).expect("replay");
        assert_eq!(pool.total_dispatches(), 1, "duplicate served from cache");
        assert_eq!(reg.generic_dispatches(), 1);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = DispatchPool::new(echo_registry(), 4);
        pool.dispatch(&call(1, 1));
        drop(pool); // must not hang
    }
}

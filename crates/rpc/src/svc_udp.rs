//! The datagram side of the server (`svcudp_create`): what one delivered
//! request becomes — a dispatch through the [`SvcRegistry`], fronted by
//! the classic Sun duplicate-request cache (`svcudp_enablecache`). The
//! reactor ([`crate::svc_shard::serve`]) registers one such body per
//! served address.

use crate::bufpool::BufPool;
use crate::svc::SvcRegistry;
use specrpc_netsim::inthash::{IntMap, IntSet};
use specrpc_netsim::net::Addr;
use specrpc_netsim::SimTime;
use specrpc_xdr::coalesce;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Server processing-time model: given (request bytes, reply bytes),
/// return the simulated service time. Shared by every transport adapter.
pub type ProcTimeModel = Arc<dyn Fn(usize, usize) -> SimTime + Send + Sync>;

/// The default processing-time model: a fixed 50 µs dispatch cost plus a
/// per-byte term (a small stand-in; the paper-table harness models server
/// time from real op counts instead).
pub fn default_proc_time() -> ProcTimeModel {
    Arc::new(|req, rep| SimTime::from_nanos(50_000 + 20 * (req + rep) as u64))
}

/// Entries held by the duplicate-request cache (`SPCACHESIZE`-ish; small,
/// FIFO-evicted — enough to absorb retransmission windows).
pub const DUP_CACHE_ENTRIES: usize = 256;

/// 64-bit FNV-1a over the request bytes — the reference fingerprint
/// (kept for its published test vectors and as documentation of the
/// verification idea). One `u64` per entry replaces the full
/// `request.to_vec()` copy the cache used to hold.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The production fingerprint: an FNV-style multiply-xor mix over
/// 8-byte chunks in four independent lanes. Byte-at-a-time FNV costs
/// ~1.2 ns/byte (a 10 µs tax on the paper's 8 KB workload — two thirds
/// of the whole round trip); the four-lane chunked mix breaks the
/// multiply dependency chain and runs more than an order of magnitude
/// faster with the same 2⁻⁶⁴-collision verification contract (pinned by
/// the same collision-honesty tests, which inject degenerate hashers).
pub(crate) fn fingerprint64(bytes: &[u8]) -> u64 {
    const SEEDS: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    const M: u64 = 0x0000_0100_0000_01b3; // FNV-1a's 64-bit prime
    let mut lanes = SEEDS;
    let mut chunks = bytes.chunks_exact(32);
    for block in chunks.by_ref() {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = (*lane ^ w).wrapping_mul(M);
        }
    }
    let mut h = lanes
        .iter()
        .fold(bytes.len() as u64, |acc, &l| (acc ^ l).wrapping_mul(M));
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(M);
    }
    // Final avalanche so short tails still flip high bits.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// How the cache verifies that an incoming datagram really is a replay of
/// the recorded request (xids alone are not enough: a fresh client reusing
/// a port replays the deterministic xid stream with *different* bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verify {
    /// Compare a 64-bit [`fingerprint64`] fingerprint (the production
    /// mode). A colliding non-identical request would be answered with
    /// the recorded reply — a 2⁻⁶⁴ event the `collision honesty` tests
    /// pin.
    Hash,
    /// Compare the full stored request bytes (collision-proof; costs a
    /// full copy per entry — kept as the honesty baseline for tests).
    #[cfg_attr(not(test), allow(dead_code))]
    FullBytes,
}

struct CacheEntry {
    req_hash: u64,
    /// Stored request image, [`Verify::FullBytes`] mode only.
    req_bytes: Option<Vec<u8>>,
    reply: Vec<u8>,
}

/// The duplicate-request (reply) cache of `svcudp_cache`: keyed by
/// `(xid, sender)` and verified against a fingerprint of the request
/// bytes, it replays the recorded reply for a retransmitted or
/// fault-duplicated request instead of re-dispatching it — giving
/// *exactly-once handler execution* per transaction even when the network
/// delivers the request datagram twice.
///
/// The key is two integers off the wire, hashed with [`IntMap`]'s
/// multiply-shift rather than SipHash. A sender can pick xids that share a
/// bucket, but never more than `cap` of them ([`DUP_CACHE_ENTRIES`] in
/// every deployment) are in the table at once — FIFO eviction bounds the
/// longest chain a lookup can walk.
pub(crate) struct DupCache {
    replies: IntMap<(u32, Addr), CacheEntry>,
    order: VecDeque<(u32, Addr)>,
    cap: usize,
    verify: Verify,
    /// Fingerprint function (swappable in tests to force collisions).
    hasher: fn(&[u8]) -> u64,
}

impl DupCache {
    pub(crate) fn new(cap: usize) -> Self {
        Self::with_verify(cap, Verify::Hash)
    }

    pub(crate) fn with_verify(cap: usize, verify: Verify) -> Self {
        DupCache {
            replies: IntMap::default(),
            order: VecDeque::new(),
            cap,
            verify,
            hasher: fingerprint64,
        }
    }

    #[cfg(test)]
    pub(crate) fn with_hasher(cap: usize, verify: Verify, hasher: fn(&[u8]) -> u64) -> Self {
        DupCache {
            replies: IntMap::default(),
            order: VecDeque::new(),
            cap,
            verify,
            hasher,
        }
    }

    pub(crate) fn get(&self, xid: u32, from: Addr, request: &[u8]) -> Option<&Vec<u8>> {
        let entry = self.replies.get(&(xid, from))?;
        if entry.req_hash != (self.hasher)(request) {
            return None;
        }
        if let Some(stored) = &entry.req_bytes {
            if stored.as_slice() != request {
                return None;
            }
        }
        Some(&entry.reply)
    }

    /// Record a copy of `reply` for `(xid, from, request)`. The copy goes
    /// into the reply buffer this insertion frees — the displaced entry's
    /// when the key is already recorded, the oldest entry's when the cache
    /// is full — so a full cache in steady state records without touching
    /// the pool; a freed buffer that is too small goes back to `bufs` and
    /// a fitting one is taken from there, as it is while the cache fills.
    pub(crate) fn record(
        &mut self,
        xid: u32,
        from: Addr,
        request: &[u8],
        reply: &[u8],
        bufs: &BufPool,
    ) {
        if self.cap == 0 {
            return;
        }
        let key = (xid, from);
        let freed = match self.replies.get_mut(&key) {
            Some(displaced) => Some(std::mem::take(&mut displaced.reply)),
            None => {
                self.order.push_back(key);
                if self.order.len() > self.cap {
                    let oldest = self.order.pop_front().expect("just pushed");
                    self.replies.remove(&oldest).map(|e| e.reply)
                } else {
                    None
                }
            }
        };
        let mut stored = match freed {
            Some(mut buf) if buf.capacity() >= reply.len() => {
                buf.clear();
                buf
            }
            undersized => {
                if let Some(buf) = undersized {
                    bufs.put(buf);
                }
                bufs.take(reply.len())
            }
        };
        stored.extend_from_slice(reply);
        let entry = CacheEntry {
            req_hash: (self.hasher)(request),
            req_bytes: match self.verify {
                Verify::Hash => None,
                Verify::FullBytes => Some(request.to_vec()),
            },
            reply: stored,
        };
        self.replies.insert(key, entry);
    }
}

pub(crate) fn xid_of(request: &[u8]) -> Option<u32> {
    request
        .get(..4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// Mutable duplicate-suppression state of one [`CachedDispatch`], held
/// behind a single short-lived lock (never across a dispatch).
struct DupState {
    cache: DupCache,
    /// Transactions currently being dispatched. With one driving thread
    /// and no workers this is a singleton at most; reactor workers
    /// process one address in parallel, and a duplicate arriving while
    /// its original is still in flight must be *dropped*, not
    /// re-dispatched — the original's reply is already on the way. Never
    /// larger than the number of threads dispatching at once, which is
    /// what bounds a collision chain under the integer hasher.
    in_progress: IntSet<(u32, Addr)>,
}

impl DupState {
    fn empty(cache_entries: usize) -> Self {
        DupState {
            cache: DupCache::new(cache_entries),
            in_progress: IntSet::default(),
        }
    }
}

/// The cache-fronted dispatch body of one served address. Dispatch runs
/// with **no** cache lock held, so the reactor's workers process one
/// address's requests in parallel; exactly-once execution is preserved
/// by the in-progress set.
///
/// The cache's stored replies live in wire-pool buffers: a filling cache
/// takes them from the pool, a full one records each reply into the
/// buffer its eviction just freed, so it sustains duplicate absorption
/// without per-request allocation — or pool traffic.
///
/// One fresh request takes the state lock twice: to look up the cache
/// and mark the transaction in progress, and to record the reply and
/// retire the mark together.
pub(crate) struct CachedDispatch {
    registry: Arc<SvcRegistry>,
    model: ProcTimeModel,
    bufs: Arc<BufPool>,
    state: Mutex<DupState>,
}

impl CachedDispatch {
    pub(crate) fn new(
        registry: Arc<SvcRegistry>,
        proc_time: Option<ProcTimeModel>,
        cache_entries: usize,
        bufs: Arc<BufPool>,
    ) -> Self {
        CachedDispatch {
            registry,
            model: proc_time.unwrap_or_else(default_proc_time),
            bufs,
            state: Mutex::new(DupState::empty(cache_entries)),
        }
    }

    /// Start over with an empty cache of the same size, as a restarted
    /// server process does.
    pub(crate) fn forget(&self) {
        let mut state = self.state.lock().expect("dup cache lock");
        *state = DupState::empty(state.cache.cap);
    }

    /// Handle one delivered request datagram: replay a cached duplicate,
    /// drop a duplicate whose original is still in flight, or dispatch
    /// and record the reply. The contract matches
    /// [`specrpc_netsim::net::EventProcessor`].
    ///
    /// A **coalesced** datagram ([`specrpc_xdr::coalesce`]) is unpacked
    /// here, so every sub-message's xid passes through the duplicate
    /// cache individually — a retransmitted envelope replays each inner
    /// transaction without re-executing its handler, exactly like plain
    /// retransmits. Sub-replies are re-coalesced on the return path when
    /// more than one sub-message expects a reply; one-way sub-messages
    /// execute (and cache) but send nothing, and an all-one-way envelope
    /// returns an empty reply image (processing time charged, no
    /// datagram emitted — see [`specrpc_netsim::net::UdpHandler`], whose
    /// contract processors share).
    pub(crate) fn handle(&self, request: &mut Vec<u8>, from: Addr) -> Option<(Vec<u8>, SimTime)> {
        let parts: Option<Vec<(Vec<u8>, bool)>> = coalesce::split(request).map(|parts| {
            parts
                .iter()
                .map(|(bytes, oneway)| {
                    let mut sub = self.bufs.take(bytes.len());
                    sub.extend_from_slice(bytes);
                    (sub, *oneway)
                })
                .collect()
        });
        let Some(parts) = parts else {
            return self.handle_single(request, from);
        };
        self.bufs.put(std::mem::take(request));
        let mut total = SimTime::ZERO;
        let mut sync_replies: Vec<Vec<u8>> = Vec::new();
        for (mut sub, oneway) in parts {
            let Some((reply, t)) = self.handle_single(&mut sub, from) else {
                continue; // suppressed duplicate: its original is in flight
            };
            total += t;
            if oneway {
                // The reply is cached for duplicate suppression but never
                // transmitted — the one-way contract.
                self.bufs.put(reply);
            } else {
                sync_replies.push(reply);
            }
        }
        let reply = match sync_replies.len() {
            0 => Vec::new(),
            1 => sync_replies.pop().expect("checked"),
            _ => {
                let body: usize = sync_replies
                    .iter()
                    .map(|r| coalesce::pushed_len(r.len()))
                    .sum();
                let mut env = self.bufs.take(coalesce::ENVELOPE_HEADER_BYTES + body);
                coalesce::begin(&mut env);
                for r in sync_replies {
                    coalesce::push(&mut env, &r, false);
                    self.bufs.put(r);
                }
                env
            }
        };
        Some((reply, total))
    }

    /// [`CachedDispatch::handle`] for one plain (non-coalesced) message.
    fn handle_single(&self, request: &mut Vec<u8>, from: Addr) -> Option<(Vec<u8>, SimTime)> {
        let xid = xid_of(request);
        if let Some(xid) = xid {
            let mut state = self.state.lock().expect("dup cache lock");
            if let Some(hit) = state.cache.get(xid, from, request) {
                // Replay from a pooled buffer, charging only the (cheap)
                // cache lookup as a fraction of the dispatch cost.
                let mut replay = self.bufs.take(hit.len());
                replay.extend_from_slice(hit);
                drop(state);
                self.bufs.put(std::mem::take(request));
                return Some((replay, SimTime::from_nanos(5_000)));
            }
            if !state.in_progress.insert((xid, from)) {
                // A peer worker is mid-dispatch on this very transaction:
                // suppress the duplicate (UDP may drop datagrams; the
                // original's reply is coming) to keep exactly-once.
                drop(state);
                self.bufs.put(std::mem::take(request));
                return None;
            }
        }
        // Remove the in-progress mark even if the dispatched handler
        // panics — a leaked mark would blackhole every retransmission of
        // this transaction. A dispatch that returns retires its mark
        // below, in the acquisition that records the reply.
        struct InProgressGuard<'a>(&'a CachedDispatch, Option<(u32, Addr)>);
        impl Drop for InProgressGuard<'_> {
            fn drop(&mut self) {
                if let Some(key) = self.1 {
                    self.0
                        .state
                        .lock()
                        .expect("dup cache lock")
                        .in_progress
                        .remove(&key);
                }
            }
        }
        let mut guard = InProgressGuard(self, xid.map(|x| (x, from)));
        let reply = self.registry.dispatch(request);
        let t = (self.model)(request.len(), reply.len());
        if let Some(xid) = xid {
            let mut state = self.state.lock().expect("dup cache lock");
            state.in_progress.remove(&(xid, from));
            state.cache.record(xid, from, request, &reply, &self.bufs);
            guard.1 = None;
        }
        // The delivered request datagram is consumed into the pool — in
        // steady state it comes back out as the next reply image.
        self.bufs.put(std::mem::take(request));
        Some((reply, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CallHeader, ReplyHeader};
    use crate::svc_shard::{serve, ServeConfig};
    use specrpc_netsim::net::{Network, NetworkConfig};
    use specrpc_xdr::mem::XdrMem;
    use specrpc_xdr::primitives::xdr_int;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn registry_answers_over_the_network() {
        let net = Network::new(NetworkConfig::lan(), 5);
        let reg = SvcRegistry::new();
        reg.register(300, 1, 0, |_, results| {
            let mut v = 99i32;
            xdr_int(results, &mut v)?;
            Ok(())
        });
        serve(&net, Arc::new(reg), ServeConfig::new(&[650])).detach();

        let ep = net.bind_udp(4000);
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(0xabc, 300, 1, 0);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        ep.send_to(650, enc.into_bytes());
        let dg = ep.recv_timeout(SimTime::from_millis(20)).expect("reply");
        let mut dec = XdrMem::decoder(&dg.payload);
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(hdr.xid, 0xabc);
        let mut out = 0i32;
        xdr_int(&mut dec, &mut out).unwrap();
        assert_eq!(out, 99);
    }

    #[test]
    fn custom_processing_time_advances_clock() {
        let net = Network::new(NetworkConfig::lan(), 5);
        let reg = SvcRegistry::new();
        reg.register(300, 1, 0, |_, _| Ok(()));
        let cfg = ServeConfig {
            proc_time: Some(Arc::new(|_, _| SimTime::from_millis(7))),
            ..ServeConfig::new(&[650])
        };
        serve(&net, Arc::new(reg), cfg).detach();
        let ep = net.bind_udp(4000);
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(1, 300, 1, 0);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        ep.send_to(650, enc.into_bytes());
        ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        assert!(net.now() >= SimTime::from_millis(7));
    }

    #[test]
    fn duplicate_request_cache_replays_instead_of_redispatching() {
        // The same call datagram delivered twice (a retransmission or a
        // network duplicate): the handler runs once, the second delivery
        // is answered from the reply cache, and both replies are
        // byte-identical.
        let net = Network::new(NetworkConfig::lan(), 5);
        let reg = Arc::new(SvcRegistry::new());
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        reg.register(300, 1, 0, move |_, results| {
            r.fetch_add(1, Ordering::Relaxed);
            let mut v = 5i32;
            xdr_int(results, &mut v)?;
            Ok(())
        });
        serve(&net, reg.clone(), ServeConfig::new(&[650])).detach();

        let ep = net.bind_udp(4000);
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(0x42, 300, 1, 0);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let call = enc.into_bytes();
        ep.send_to(650, call.clone());
        let first = ep.recv_timeout(SimTime::from_millis(20)).expect("reply 1");
        ep.send_to(650, call);
        let second = ep.recv_timeout(SimTime::from_millis(20)).expect("reply 2");
        assert_eq!(first.payload, second.payload, "replayed reply identical");
        assert_eq!(runs.load(Ordering::Relaxed), 1, "handler ran exactly once");
        assert_eq!(reg.generic_dispatches(), 1);
    }

    #[test]
    fn cache_distinguishes_senders_with_equal_xids() {
        // Two clients may collide on xid values; the cache key includes
        // the sender address, so each still gets its own dispatch.
        let net = Network::new(NetworkConfig::lan(), 5);
        let reg = Arc::new(SvcRegistry::new());
        reg.register(300, 1, 0, |_, results| {
            let mut v = 1i32;
            xdr_int(results, &mut v)?;
            Ok(())
        });
        serve(&net, reg.clone(), ServeConfig::new(&[650])).detach();
        let make = || {
            let mut enc = XdrMem::encoder(128);
            let mut msg = CallHeader::new(7, 300, 1, 0);
            CallHeader::xdr(&mut enc, &mut msg).unwrap();
            enc.into_bytes()
        };
        let a = net.bind_udp(4000);
        let b = net.bind_udp(4001);
        a.send_to(650, make());
        assert!(a.recv_timeout(SimTime::from_millis(20)).is_some());
        b.send_to(650, make());
        assert!(b.recv_timeout(SimTime::from_millis(20)).is_some());
        assert_eq!(reg.generic_dispatches(), 2, "distinct senders dispatch");
    }

    #[test]
    fn hash_verification_rejects_different_bytes_under_same_xid() {
        // A fresh client reusing a port replays the deterministic xid
        // stream with different argument bytes: the fingerprint differs,
        // so the cache must NOT replay the stale reply.
        let mut cache = DupCache::new(4);
        let (req_a, req_b) = (b"request-alpha".as_slice(), b"request-beta!".as_slice());
        cache.record(7, 4000, req_a, &[1, 2, 3], &BufPool::new());
        assert_eq!(cache.get(7, 4000, req_a), Some(&vec![1, 2, 3]));
        assert_eq!(cache.get(7, 4000, req_b), None, "hash mismatch");
        assert_eq!(cache.get(7, 4001, req_a), None, "different sender");
    }

    #[test]
    fn eviction_returns_the_reply_buffer_for_recycling() {
        let pool = BufPool::new();
        let takes = || pool.stats().hits + pool.stats().misses;
        let mut cache = DupCache::new(2);
        cache.record(1, 1, b"a", &[0xa], &pool);
        cache.record(2, 1, b"b", &[0xb], &pool);
        assert_eq!(takes(), 2, "a filling cache records into pooled buffers");
        let oldest = cache.get(1, 1, b"a").expect("recorded").as_ptr();
        // Full: the third record evicts the oldest entry (FIFO) and lives
        // in the buffer that entry gave up.
        cache.record(3, 1, b"c", &[0xc], &pool);
        assert_eq!(cache.get(1, 1, b"a"), None, "evicted");
        assert_eq!(cache.get(3, 1, b"c"), Some(&vec![0xc]));
        assert_eq!(cache.get(3, 1, b"c").expect("recorded").as_ptr(), oldest);
        // Re-recording an existing key reuses the displaced reply's.
        let displaced = cache.get(2, 1, b"b").expect("recorded").as_ptr();
        cache.record(2, 1, b"b", &[0xbb], &pool);
        assert_eq!(cache.get(2, 1, b"b"), Some(&vec![0xbb]));
        assert_eq!(cache.get(2, 1, b"b").expect("recorded").as_ptr(), displaced);
        assert_eq!(takes(), 2, "neither touched the pool");
        // A freed buffer too small for the new reply goes back to the
        // pool, and the record takes one that fits.
        let big = [7u8; 4096];
        cache.record(4, 1, b"d", &big, &pool);
        assert_eq!(cache.get(4, 1, b"d").map(Vec::as_slice), Some(&big[..]));
        assert_eq!((takes(), pool.stats().recycled), (3, 1));
    }

    #[test]
    fn collision_honesty_hash_mode_replays_on_fingerprint_collision() {
        // Honesty test for the 64-bit fingerprint: if two *different*
        // requests collide (forced here with a degenerate hasher; a
        // 2⁻⁶⁴ event with the real FNV-1a), hash mode WILL replay the
        // stale reply — the fingerprint is load-bearing, not decorative.
        let mut cache = DupCache::with_hasher(4, Verify::Hash, |_| 42);
        cache.record(7, 4000, b"original", &[9], &BufPool::new());
        assert_eq!(
            cache.get(7, 4000, b"differs!"),
            Some(&vec![9]),
            "colliding fingerprints are indistinguishable in hash mode"
        );
    }

    #[test]
    fn collision_honesty_full_bytes_mode_survives_collision() {
        // The full-bytes fallback baseline: identical fingerprints but
        // different bytes still re-dispatch, at the cost of storing and
        // comparing the whole request per entry.
        let mut cache = DupCache::with_hasher(4, Verify::FullBytes, |_| 42);
        cache.record(7, 4000, b"original", &[9], &BufPool::new());
        assert_eq!(
            cache.get(7, 4000, b"differs!"),
            None,
            "byte comparison catches what the forced collision hides"
        );
        assert_eq!(cache.get(7, 4000, b"original"), Some(&vec![9]));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint64_discriminates_and_is_stable() {
        // The chunked production fingerprint: deterministic, sensitive to
        // every byte position (including within and across 32-byte
        // blocks), and length-aware.
        let base: Vec<u8> = (0..200u8).collect();
        let h = fingerprint64(&base);
        assert_eq!(h, fingerprint64(&base), "deterministic");
        for i in [0usize, 7, 8, 31, 32, 63, 64, 150, 199] {
            let mut tweaked = base.clone();
            tweaked[i] ^= 1;
            assert_ne!(h, fingerprint64(&tweaked), "byte {i} must matter");
        }
        assert_ne!(h, fingerprint64(&base[..199]), "length must matter");
        assert_ne!(fingerprint64(b""), fingerprint64(&[0]));
    }

    #[test]
    fn restart_wipes_the_dup_cache() {
        // The amnesiac-server failure mode: a crash/restart cycle
        // rebuilds the service with an empty duplicate-request cache, so
        // a retransmission of a pre-crash call re-executes its handler —
        // exactly-once degrades to at-least-once, observably.
        let net = Network::new(NetworkConfig::lan(), 5);
        let reg = Arc::new(SvcRegistry::new());
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        reg.register(300, 1, 0, move |_, results| {
            r.fetch_add(1, Ordering::Relaxed);
            let mut v = 5i32;
            xdr_int(results, &mut v)?;
            Ok(())
        });
        let cfg = ServeConfig {
            restartable: true,
            ..ServeConfig::new(&[650])
        };
        serve(&net, reg, cfg).detach();

        let ep = net.bind_udp(4000);
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(0x42, 300, 1, 0);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let call = enc.into_bytes();
        ep.send_to(650, call.clone());
        let first = ep.recv_timeout(SimTime::from_millis(20)).expect("reply 1");
        // Same bytes again pre-crash: absorbed by the cache.
        ep.send_to(650, call.clone());
        assert!(ep.recv_timeout(SimTime::from_millis(20)).is_some());
        assert_eq!(runs.load(Ordering::Relaxed), 1, "cache absorbed the dup");

        net.crash(650);
        net.restart(650);
        ep.send_to(650, call);
        let replayed = ep.recv_timeout(SimTime::from_millis(20)).expect("reply 3");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "fresh cache re-executes the handler"
        );
        assert_eq!(
            first.payload, replayed.payload,
            "re-execution is byte-identical for a deterministic handler"
        );
    }

    #[test]
    fn panicking_dispatch_leaves_no_in_progress_mark_behind() {
        // A raw handler that panics on its first run: the unwind must
        // retire the transaction's in-progress mark, or the client's
        // retransmission of the same xid would be suppressed forever as a
        // "duplicate whose original is still in flight".
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        let reg = Arc::new(SvcRegistry::new());
        let first = AtomicBool::new(true);
        reg.register_raw(300, 1, 0, move |request, pool| {
            assert!(!first.swap(false, Ordering::Relaxed), "handler bug");
            let mut reply = pool.take(8);
            reply.extend_from_slice(&request[..4]);
            reply.extend_from_slice(b"done");
            Some(reply)
        });
        let cd = CachedDispatch::new(reg.clone(), None, DUP_CACHE_ENTRIES, reg.pool().clone());
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(0x77, 300, 1, 0);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let call = enc.into_bytes();

        let mut first_try = call.clone();
        let unwound = catch_unwind(AssertUnwindSafe(|| cd.handle(&mut first_try, 4000)));
        assert!(unwound.is_err(), "the handler's panic propagates");
        let marks = cd.state.lock().expect("not poisoned").in_progress.len();
        assert_eq!(marks, 0, "the unwind retired the mark");

        let mut retransmission = call.clone();
        let (reply, _) = cd
            .handle(&mut retransmission, 4000)
            .expect("dispatched and answered, not suppressed");
        assert_eq!(&reply[..4], &call[..4]);
        assert_eq!(&reply[4..], b"done");
        assert_eq!(reg.raw_dispatches(), 1, "the retry ran the handler");
    }

    #[test]
    fn zero_sized_cache_redispatches_every_delivery() {
        let net = Network::new(NetworkConfig::lan(), 5);
        let reg = Arc::new(SvcRegistry::new());
        reg.register(300, 1, 0, |_, _| Ok(()));
        let cfg = ServeConfig {
            cache_entries: 0,
            ..ServeConfig::new(&[650])
        };
        serve(&net, reg.clone(), cfg).detach();
        let ep = net.bind_udp(4000);
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(9, 300, 1, 0);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let call = enc.into_bytes();
        for _ in 0..3 {
            ep.send_to(650, call.clone());
            assert!(ep.recv_timeout(SimTime::from_millis(20)).is_some());
        }
        assert_eq!(reg.generic_dispatches(), 3);
    }
}

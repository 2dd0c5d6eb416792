//! The datagram side of the server (`svcudp_create`): what one delivered
//! request becomes — a dispatch through the [`SvcRegistry`], fronted by
//! the classic Sun duplicate-request cache (`svcudp_enablecache`). The
//! reactor ([`crate::svc_shard::serve`]) registers one such body per
//! served address.

use crate::bufpool::BufPool;
use crate::svc::{offer_fits, SvcRegistry};
use specrpc_netsim::inthash::IntMap;
use specrpc_netsim::net::Addr;
use specrpc_netsim::SimTime;
use specrpc_xdr::coalesce;
use std::collections::VecDeque;
use std::sync::Arc;

/// The server processing-time model every deployment charges, over
/// either transport: given (request bytes, reply bytes), a fixed 50 µs
/// dispatch cost plus a per-byte term (a small stand-in; the paper-table
/// harness models server time from real op counts instead).
pub fn default_proc_time(request_len: usize, reply_len: usize) -> SimTime {
    SimTime::from_nanos(50_000 + 20 * (request_len + reply_len) as u64)
}

/// Entries held by the duplicate-request cache (`SPCACHESIZE`-ish; small,
/// FIFO-evicted — enough to absorb retransmission windows).
pub const DUP_CACHE_ENTRIES: usize = 256;

/// The request fingerprint the cache keeps (one `u64` per entry instead
/// of a copy of the request): an FNV-1a-style multiply-xor mix over
/// 8-byte chunks in four independent lanes. Byte-at-a-time FNV-1a costs
/// ~1.2 ns/byte (a 10 µs tax on the paper's 8 KB workload — two thirds
/// of the whole round trip); the four-lane chunked mix breaks the
/// multiply dependency chain and runs more than an order of magnitude
/// faster with the same 2⁻⁶⁴-collision verification contract (pinned by
/// the same collision-honesty tests, which inject degenerate hashers).
/// The tail behind the last 32-byte block is folded a word at a time,
/// its last partial word zero-filled: the length, mixed in first, tells
/// those zeros from real ones.
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
    let mut words = chunks.remainder().chunks_exact(8);
    for w in words.by_ref() {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(M);
    }
    let last = words.remainder();
    if !last.is_empty() {
        let w = last.iter().rfold(0, |w, &b| (w << 8) | u64::from(b));
        h = (h ^ w).wrapping_mul(M);
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
    /// full copy per entry). Kept as the baseline the collision-honesty
    /// test compares hash mode against, and as the reference an
    /// "xid reuse with different bytes" check needs.
    #[cfg_attr(not(test), allow(dead_code))]
    FullBytes,
}

/// Capacity of one [`ReplyLog`] segment, which a cache of small replies
/// holds at least one of. A reply that does not fit behind the tail's
/// bytes seals it, so replies of 32–64 KiB take a segment each and the
/// log holds up to twice its live bytes; a larger reply gets storage of
/// its own, allocated when it is recorded and freed when it is evicted.
const SEGMENT_BYTES: usize = 64 * 1024;

/// One stretch of the reply log and the number of cache entries whose
/// bytes live in it.
#[derive(Default)]
struct Segment {
    bytes: Vec<u8>,
    live: usize,
}

/// Where the cache keeps reply bytes: appended back to back, at their
/// exact length, to the tail segment. A segment whose last entry is
/// released gives its storage to the next tail, so a full cache in steady
/// state allocates nothing and memory follows the live bytes. Segments
/// sit in a slab rather than a queue because a re-recorded key keeps its
/// place in the eviction order while its bytes move to the tail: behind
/// one old entry, a client that reuses an xid would grow a queue forever.
#[derive(Default)]
struct ReplyLog {
    segs: Vec<Segment>,
    /// Slot of the segment being appended to.
    tail: Option<usize>,
    /// Slots whose storage is gone, reused before `segs` grows.
    free: Vec<usize>,
    /// Storage of one emptied segment, kept for the next tail.
    spare: Option<Vec<u8>>,
}

impl ReplyLog {
    /// Append `reply`; returns its `(slot, offset)`. A reply larger than
    /// a segment gets one of its own size, which never becomes the tail.
    fn append(&mut self, reply: &[u8]) -> (usize, usize) {
        let slot = if reply.len() > SEGMENT_BYTES {
            self.open(Vec::with_capacity(reply.len()))
        } else {
            let fits = |slot: &usize| self.segs[*slot].bytes.len() + reply.len() <= SEGMENT_BYTES;
            self.tail.filter(fits).unwrap_or_else(|| {
                let storage = self.spare.take();
                let slot = self.open(storage.unwrap_or_else(|| Vec::with_capacity(SEGMENT_BYTES)));
                self.tail = Some(slot);
                slot
            })
        };
        let seg = &mut self.segs[slot];
        seg.live += 1;
        seg.bytes.extend_from_slice(reply);
        (slot, seg.bytes.len() - reply.len())
    }

    /// Put `bytes` into the slab as an empty segment; returns its slot.
    fn open(&mut self, bytes: Vec<u8>) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.segs.push(Segment::default());
            self.segs.len() - 1
        });
        self.segs[slot].bytes = bytes;
        slot
    }

    /// Give up one entry of segment `slot`. An emptied segment leaves the
    /// log, the tail included; the first one's storage, unless it was a
    /// large reply's own, waits in `spare`.
    fn release(&mut self, slot: usize) {
        let seg = &mut self.segs[slot];
        seg.live -= 1;
        if seg.live > 0 {
            return;
        }
        let mut storage = std::mem::take(&mut seg.bytes);
        if self.spare.is_none() && storage.len() <= SEGMENT_BYTES {
            storage.clear();
            self.spare = Some(storage);
        }
        if self.tail == Some(slot) {
            self.tail = None;
        }
        self.free.push(slot);
    }
}

struct CacheEntry {
    req_hash: u64,
    /// Stored request image, [`Verify::FullBytes`] mode only.
    req_bytes: Option<Vec<u8>>,
    /// The reply: `len` bytes at `offset` of the log's segment `slot`.
    slot: usize,
    offset: usize,
    len: usize,
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
    log: ReplyLog,
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
            log: ReplyLog::default(),
        }
    }

    #[cfg(test)]
    pub(crate) fn with_hasher(cap: usize, verify: Verify, hasher: fn(&[u8]) -> u64) -> Self {
        DupCache {
            hasher,
            ..Self::with_verify(cap, verify)
        }
    }

    pub(crate) fn get(&self, xid: u32, from: Addr, request: &[u8]) -> Option<&[u8]> {
        let entry = self.replies.get(&(xid, from))?;
        if entry.req_hash != (self.hasher)(request) {
            return None;
        }
        if let Some(stored) = &entry.req_bytes {
            if stored.as_slice() != request {
                return None;
            }
        }
        Some(&self.log.segs[entry.slot].bytes[entry.offset..][..entry.len])
    }

    /// Record a copy of `reply` for `(xid, from, request)`. The entry this
    /// insertion frees — the displaced one when the key is already
    /// recorded, the oldest when the cache is full — is released first, so
    /// the copy can land in the segment that entry was the last to hold.
    pub(crate) fn record(&mut self, xid: u32, from: Addr, request: &[u8], reply: &[u8]) {
        if self.cap == 0 {
            return;
        }
        let key = (xid, from);
        let freed = match self.replies.get(&key) {
            Some(displaced) => Some(displaced.slot),
            None => {
                self.order.push_back(key);
                if self.order.len() > self.cap {
                    let oldest = self.order.pop_front().expect("just pushed");
                    self.replies.remove(&oldest).map(|e| e.slot)
                } else {
                    None
                }
            }
        };
        if let Some(slot) = freed {
            self.log.release(slot);
        }
        let (slot, offset) = self.log.append(reply);
        let entry = CacheEntry {
            req_hash: (self.hasher)(request),
            req_bytes: match self.verify {
                Verify::Hash => None,
                Verify::FullBytes => Some(request.to_vec()),
            },
            slot,
            offset,
            len: reply.len(),
        };
        self.replies.insert(key, entry);
    }
}

pub(crate) fn xid_of(request: &[u8]) -> Option<u32> {
    request
        .get(..4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// The cache-fronted dispatch body of one served address, owned by the
/// processor the reactor registers for it. The simulator lends that
/// processor to one thread at a time, so the body runs with `&mut self`:
/// the cache and the parked buffer take no lock, and no duplicate can
/// arrive while its original is being dispatched.
///
/// The cache owns the log its recorded replies are copied into and never
/// touches the pool. A dispatched request's buffer is parked for the next
/// dispatch's reply image ([`CachedDispatch::parked`]); `bufs` takes the
/// request datagrams that are not, and gives the buffers of replays,
/// reply envelopes and the replies that refuse their offer. A coalesced
/// envelope's sub-messages are dispatched where they lie in its datagram:
/// none is copied out, a one-way one is offered the buffer its
/// predecessor's unsent reply left ([`CachedDispatch::spare`]), a sync
/// one draws its reply from the pool (it leaves with the envelope's), and
/// the envelope's own buffer is pooled once all have run.
pub(crate) struct CachedDispatch {
    registry: Arc<SvcRegistry>,
    bufs: Arc<BufPool>,
    cache: DupCache,
    /// A request datagram's buffer this address has consumed, offered to
    /// the next dispatch for its reply image: the buffers follow the
    /// datagrams, and a steady call never reaches the pool. A dispatch
    /// that takes the offer parks its own request in its place. One that
    /// leaves it (the reply does not fit it, or no raw handler ran) parks
    /// its request instead only if that buffer would have carried the
    /// reply just sent, so one odd-sized buffer does not sit here refusing
    /// a stream of like-sized calls; otherwise the offer stays and the
    /// request is pooled. One deep, because one is what a dispatch
    /// consumes and one is what the next needs. An envelope's
    /// sub-messages neither take nor fill it.
    parked: Option<Vec<u8>>,
    /// The last one-way sub-message's reply buffer: that reply is cached,
    /// never sent, so the buffer is free again at once and is offered to
    /// the next one-way sub-message. Of it and the reply that refuses it,
    /// whichever would carry that reply again stays ([`offer_fits`]), so
    /// a generic fallback's full-size reply buffer never sits here.
    spare: Option<Vec<u8>>,
}

/// Where a message's reply is built.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// A plain datagram's: in the parked buffer, if it fits.
    Plain,
    /// An envelope's sync sub-message's, which leaves with the envelope's
    /// reply: in a pooled buffer.
    Sync,
    /// A one-way sub-message's, which is cached and never sent: in the
    /// spare, if it fits; a replay has nothing to build.
    OneWay,
}

impl CachedDispatch {
    pub(crate) fn new(
        registry: Arc<SvcRegistry>,
        cache_entries: usize,
        bufs: Arc<BufPool>,
    ) -> Self {
        CachedDispatch {
            registry,
            bufs,
            cache: DupCache::new(cache_entries),
            parked: None,
            spare: None,
        }
    }

    /// Answer one delivered request datagram: replay a cached duplicate,
    /// or dispatch and record the reply. Returns the reply image and the
    /// processing time, which is what the address's
    /// [`specrpc_netsim::net::UdpHandler`] hands back to the lane.
    ///
    /// A **coalesced** datagram ([`specrpc_xdr::coalesce`]) is parsed once
    /// and each sub-message runs, in packed order and in place, through
    /// the same steps as a plain message ([`CachedDispatch::run`]), so
    /// every sub-message's xid passes through the duplicate
    /// cache individually — a retransmitted envelope replays each inner
    /// transaction without re-executing its handler, exactly like plain
    /// retransmits. Sub-replies are re-coalesced on the return path when
    /// more than one sub-message expects a reply; one-way sub-messages
    /// execute (and cache) but send nothing, and an all-one-way envelope
    /// returns an empty reply image (processing time charged, no
    /// datagram emitted — see [`specrpc_netsim::net::UdpHandler`], whose
    /// contract processors share).
    pub(crate) fn handle(&mut self, request: &mut Vec<u8>, from: Addr) -> (Vec<u8>, SimTime) {
        let Some(parts) = coalesce::split(request) else {
            return self.handle_single(request, from);
        };
        let mut total = SimTime::ZERO;
        // The one sync reply an envelope usually carries, and any after it.
        let (mut first, mut more) = (None, Vec::new());
        for (sub, oneway) in parts {
            if oneway {
                // The reply is cached for duplicate suppression but never
                // transmitted — the one-way contract.
                let mut offer = self.spare.take();
                let (reply, t, _) = self.run(sub, from, Lane::OneWay, &mut offer);
                total += t;
                self.keep_spare(reply, offer);
                continue;
            }
            let (reply, t, _) = self.run(sub, from, Lane::Sync, &mut None);
            total += t;
            if first.is_none() {
                first = Some(reply);
            } else {
                more.push(reply);
            }
        }
        self.bufs.put(std::mem::take(request));
        let reply = match first {
            None => Vec::new(),
            Some(only) if more.is_empty() => only,
            Some(first) => {
                let body: usize = std::iter::once(&first)
                    .chain(&more)
                    .map(|r| coalesce::pushed_len(r.len()))
                    .sum();
                let mut env = self.bufs.take(coalesce::ENVELOPE_HEADER_BYTES + body);
                coalesce::begin(&mut env);
                for r in std::iter::once(first).chain(more) {
                    coalesce::push(&mut env, &r, false);
                    self.bufs.put(r);
                }
                env
            }
        };
        (reply, total)
    }

    /// [`CachedDispatch::handle`] for one plain (non-coalesced) message:
    /// [`CachedDispatch::run`] with the parked buffer offered, then the
    /// request buffer parked or pooled.
    fn handle_single(&mut self, request: &mut Vec<u8>, from: Addr) -> (Vec<u8>, SimTime) {
        let mut offer = None;
        let (reply, t, recorded) = self.run(request, from, Lane::Plain, &mut offer);
        if recorded {
            // The request datagram just consumed is the next reply image,
            // unless the dispatch left its offer and this buffer would not
            // have carried the reply either: then the offer goes back where
            // it was. `offer` ends up with the one that is not parked.
            let mut next = std::mem::take(request);
            if let Some(left) = offer.as_mut() {
                if !offer_fits(next.capacity(), reply.len()) {
                    std::mem::swap(left, &mut next);
                }
            }
            self.parked = Some(next);
        }
        if let Some(spare) = offer {
            self.bufs.put(spare);
        }
        // Still here if it was replayed, or too short to carry an xid; an
        // empty buffer is dropped.
        self.bufs.put(std::mem::take(request));
        (reply, t)
    }

    /// Of a one-way sub-message's reply and what is left of the spare
    /// offered to it, keep as the next spare the first that would carry
    /// that reply again, and pool the rest; a replay built nothing and
    /// leaves the spare as it was.
    fn keep_spare(&mut self, reply: Vec<u8>, left: Option<Vec<u8>>) {
        if reply.capacity() == 0 {
            self.spare = left;
            return;
        }
        let len = reply.len();
        for buf in std::iter::once(reply).chain(left) {
            if self.spare.is_none() && offer_fits(buf.capacity(), len) {
                self.spare = Some(buf);
            } else {
                self.bufs.put(buf);
            }
        }
    }

    /// What every message goes through, whether it arrived alone or in an
    /// envelope: the cache lookup (a recorded reply is replayed, or for a
    /// one-way message dropped), the dispatch, and the record; the flag
    /// says whether a reply was dispatched and recorded. The dispatch is
    /// offered `offer`: on the plain lane, a message with an xid that is
    /// not a replay first takes the parked buffer into it. What the
    /// dispatch leaves of the offer stays in `offer`.
    fn run(
        &mut self,
        request: &[u8],
        from: Addr,
        lane: Lane,
        offer: &mut Option<Vec<u8>>,
    ) -> (Vec<u8>, SimTime, bool) {
        // A replay is charged only the (cheap) cache lookup, as a fraction
        // of the dispatch cost.
        let replayed = SimTime::from_nanos(5_000);
        let xid = xid_of(request);
        if let Some(xid) = xid {
            if let Some(hit) = self.cache.get(xid, from, request) {
                if lane == Lane::OneWay {
                    return (Vec::new(), replayed, false);
                }
                let mut replay = self.bufs.take(hit.len());
                replay.extend_from_slice(hit);
                return (replay, replayed, false);
            }
            if lane == Lane::Plain {
                *offer = self.parked.take();
            }
        }
        let reply = self.registry.dispatch_offered(request, offer, &self.bufs);
        let t = default_proc_time(request.len(), reply.len());
        if let Some(xid) = xid {
            self.cache.record(xid, from, request, &reply);
        }
        (reply, t, xid.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CallHeader, ReplyHeader};
    use crate::svc::take_offer;
    use crate::svc_shard::{serve, ServeConfig};
    use specrpc_netsim::net::{Network, NetworkConfig};
    use specrpc_xdr::mem::XdrMem;
    use specrpc_xdr::primitives::xdr_int;
    use std::sync::atomic::{AtomicU64, Ordering};

    impl DupCache {
        /// Bytes of reply storage the cache holds, live or not.
        fn held_bytes(&self) -> usize {
            let segs = self.log.segs.iter().map(|s| s.bytes.capacity());
            segs.chain(self.log.spare.iter().map(Vec::capacity)).sum()
        }
    }

    #[test]
    fn registry_answers_over_the_network() {
        let net = Network::new(NetworkConfig::lan(), 5);
        let mut reg = SvcRegistry::new();
        reg.register(300, 1, 0, |_, _, results| {
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
    fn duplicate_request_cache_replays_instead_of_redispatching() {
        // The same call datagram delivered twice (a retransmission or a
        // network duplicate): the handler runs once, the second delivery
        // is answered from the reply cache, and both replies are
        // byte-identical.
        let net = Network::new(NetworkConfig::lan(), 5);
        let mut reg = SvcRegistry::new();
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        reg.register(300, 1, 0, move |_, _, results| {
            r.fetch_add(1, Ordering::Relaxed);
            let mut v = 5i32;
            xdr_int(results, &mut v)?;
            Ok(())
        });
        let reg = Arc::new(reg);
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
        let mut reg = SvcRegistry::new();
        reg.register(300, 1, 0, |_, _, results| {
            let mut v = 1i32;
            xdr_int(results, &mut v)?;
            Ok(())
        });
        let reg = Arc::new(reg);
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
        cache.record(7, 4000, req_a, &[1, 2, 3]);
        assert_eq!(cache.get(7, 4000, req_a), Some(&[1, 2, 3][..]));
        assert_eq!(cache.get(7, 4000, req_b), None, "hash mismatch");
        assert_eq!(cache.get(7, 4001, req_a), None, "different sender");
    }

    #[test]
    fn eviction_returns_the_reply_buffer_for_recycling() {
        // Eviction recycles the segment: replies that fill one each, so
        // every eviction empties the oldest segment and the record that
        // caused it lands in that very storage.
        let fill = |b: u8| vec![b; SEGMENT_BYTES];
        let mut cache = DupCache::new(2);
        cache.record(1, 1, b"a", &fill(0xa));
        cache.record(2, 1, b"b", &fill(0xb));
        assert_eq!(cache.held_bytes(), 2 * SEGMENT_BYTES, "one segment each");
        let oldest = cache.get(1, 1, b"a").expect("recorded").as_ptr();
        // Full: the third record evicts the oldest entry (FIFO) and lives
        // in the segment that entry gave up.
        cache.record(3, 1, b"c", &fill(0xc));
        assert_eq!(cache.get(1, 1, b"a"), None, "evicted");
        assert_eq!(cache.get(3, 1, b"c"), Some(&fill(0xc)[..]));
        assert_eq!(cache.get(3, 1, b"c").expect("recorded").as_ptr(), oldest);
        // Re-recording an existing key reuses the displaced reply's.
        let displaced = cache.get(2, 1, b"b").expect("recorded").as_ptr();
        cache.record(2, 1, b"b", &fill(0xbb));
        assert_eq!(cache.get(2, 1, b"b"), Some(&fill(0xbb)[..]));
        assert_eq!(cache.get(2, 1, b"b").expect("recorded").as_ptr(), displaced);
        assert_eq!(cache.held_bytes(), 2 * SEGMENT_BYTES, "neither allocated");
        // A reply larger than a segment gets storage of its own size,
        // and the segment its eviction emptied waits for the next tail.
        let big = vec![7u8; SEGMENT_BYTES + 4096];
        cache.record(4, 1, b"d", &big);
        assert_eq!(cache.get(4, 1, b"d"), Some(&big[..]));
        assert_eq!(cache.held_bytes(), 2 * SEGMENT_BYTES + big.len());
        // One emptied segment is enough for the next tail.
        cache.record(5, 1, b"e", &[0xe]);
        assert_eq!(cache.held_bytes(), SEGMENT_BYTES + big.len());
        // Evicting the large reply frees its storage.
        cache.record(6, 1, b"f", &[0xf]);
        assert_eq!(cache.get(4, 1, b"d"), None, "evicted");
        assert_eq!(cache.held_bytes(), SEGMENT_BYTES);
    }

    #[test]
    fn held_memory_follows_live_bytes_not_the_largest_reply_per_entry() {
        // Every third reply is large, the rest 64 B. 3 does not divide
        // the entry count, so a cache whose entries each own a buffer (an
        // insertion inheriting its eviction's) sees a large reply in
        // every buffer within three generations and holds 256 of them,
        // three times the live bytes. (Strict alternation would not show
        // it: an entry is then always evicted by one of its own size.)
        // The log holds the live bytes, a tail, a spare and the slack of
        // each sealed segment: less than the large reply that did not
        // fit, so a quarter of the live bytes at 16 KiB, and — the worst
        // case, a segment per large reply — as much again at 40 KB.
        for (large, slack_per_live) in [(16 * 1024, 0.34), (40_000, 1.0)] {
            let (small, large) = ([1u8; 64], vec![2u8; large]);
            let mut cache = DupCache::new(DUP_CACHE_ENTRIES);
            for xid in 0..10_000u32 {
                let reply = if xid % 3 == 0 { &large[..] } else { &small[..] };
                cache.record(xid, 1, b"request", reply);
                let live: usize = cache.replies.values().map(|e| e.len).sum();
                let held = cache.held_bytes();
                assert!(
                    held <= live + (live as f64 * slack_per_live) as usize + 2 * SEGMENT_BYTES,
                    "{} B replies, after {xid}: {held} bytes held for {live} live",
                    large.len()
                );
            }
        }
    }

    #[test]
    fn a_reused_xid_behind_an_old_entry_does_not_grow_the_log() {
        // The old entry pins the first segment; the re-recorded key's
        // bytes move from tail to tail, emptying segments in between.
        let mut cache = DupCache::new(DUP_CACHE_ENTRIES);
        cache.record(1, 1, b"old", &[0; 64]);
        for call in 0..10_000u32 {
            cache.record(2, 1, &call.to_be_bytes(), &[call as u8; 1024]);
            assert!(cache.held_bytes() <= 3 * SEGMENT_BYTES, "call {call}");
            assert!(cache.log.segs.len() <= 3, "call {call}");
        }
        assert_eq!(cache.get(1, 1, b"old"), Some(&[0; 64][..]));
    }

    #[test]
    fn equal_sized_replies_cycle_through_a_fixed_set_of_segments() {
        let cap = 16;
        for len in [0, 1, 1000, 1024, 8192, 40_000, SEGMENT_BYTES] {
            let mut cache = DupCache::new(cap);
            let storage = |cache: &DupCache| -> std::collections::BTreeSet<usize> {
                let segs = cache.log.segs.iter().map(|s| &s.bytes);
                segs.chain(cache.log.spare.iter())
                    .filter(|b| b.capacity() > 0)
                    .map(|b| b.as_ptr() as usize)
                    .collect()
            };
            let reply = vec![0x5a; len];
            let warm_up = 2 * cap as u32 + 2 * (SEGMENT_BYTES / len.max(1)) as u32;
            for xid in 0..warm_up {
                cache.record(xid, 1, b"request", &reply);
            }
            let warm = storage(&cache);
            for xid in warm_up..3 * warm_up {
                cache.record(xid, 1, b"request", &reply);
                assert_eq!(storage(&cache), warm, "len {len}, record {xid}");
            }
        }
    }

    /// What the cache must be indistinguishable from: a map of whole
    /// replies and a FIFO of keys.
    struct NaiveCache {
        cap: usize,
        map: std::collections::HashMap<(u32, Addr), (Vec<u8>, Vec<u8>)>,
        order: VecDeque<(u32, Addr)>,
    }

    impl NaiveCache {
        fn get(&self, xid: u32, from: Addr, request: &[u8]) -> Option<&[u8]> {
            let (recorded, reply) = self.map.get(&(xid, from))?;
            (recorded == request).then_some(reply)
        }

        fn record(&mut self, xid: u32, from: Addr, request: &[u8], reply: &[u8]) {
            if self.cap == 0 {
                return;
            }
            if !self.map.contains_key(&(xid, from)) {
                self.order.push_back((xid, from));
                if self.order.len() > self.cap {
                    let oldest = self.order.pop_front().expect("just pushed");
                    self.map.remove(&oldest);
                }
            }
            self.map
                .insert((xid, from), (request.to_vec(), reply.to_vec()));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Random `record` / `get` sequences — empty, segment-filling and
        /// larger-than-segment replies, keys re-recorded under different
        /// request bytes — against [`NaiveCache`]: same hits, same bytes,
        /// same evictions, and a log that holds no segment without a
        /// live entry beyond one spare.
        #[test]
        fn the_log_backed_cache_is_a_fifo_map_of_replies(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..300),
        ) {
            for cap in [0, 1, 4, DUP_CACHE_ENTRIES] {
                let mut cache = DupCache::new(cap);
                let mut model = NaiveCache { cap, map: Default::default(), order: VecDeque::new() };
                // More keys than a small cache holds, few enough to recur.
                let keys = 3 * cap.clamp(2, 8) as u64;
                let request = |key: u64, variant: u64| format!("request {key}/{variant}").into_bytes();
                for (i, &op) in ops.iter().enumerate() {
                    let (key, variant) = (op % keys, (op >> 8) % 2);
                    let (xid, from) = ((key / 2) as u32, 4000 + (key % 2) as Addr);
                    let len = match (op >> 16) % 8 {
                        0 => 0,
                        1 => SEGMENT_BYTES,
                        2 => SEGMENT_BYTES + 1 + (op >> 32) as usize % 6000,
                        3 => (op >> 32) as usize % SEGMENT_BYTES,
                        _ => (op >> 32) as usize % 2048,
                    };
                    let mut reply = vec![i as u8; len];
                    reply.iter_mut().zip(i.to_le_bytes()).for_each(|(b, tag)| *b = tag);
                    let req = request(key, variant);
                    cache.record(xid, from, &req, &reply);
                    model.record(xid, from, &req, &reply);

                    for key in 0..keys {
                        let (xid, from) = ((key / 2) as u32, 4000 + (key % 2) as Addr);
                        for variant in 0..2 {
                            let req = request(key, variant);
                            proptest::prop_assert_eq!(cache.get(xid, from, &req), model.get(xid, from, &req));
                        }
                    }
                    proptest::prop_assert_eq!(cache.order.iter().collect::<Vec<_>>(), model.order.iter().collect::<Vec<_>>());
                    let log = &cache.log;
                    for (slot, seg) in log.segs.iter().enumerate() {
                        let live = cache.replies.values().filter(|e| e.slot == slot).count();
                        proptest::prop_assert_eq!(seg.live, live);
                        proptest::prop_assert!(live > 0 || seg.bytes.capacity() == 0, "an emptied segment leaves the log");
                    }
                    let held = log.segs.iter().filter(|s| s.bytes.capacity() > 0).count();
                    proptest::prop_assert!(held + usize::from(log.spare.is_some()) <= cache.replies.len() + 1);
                }
            }
        }
    }

    #[test]
    fn collision_honesty_hash_mode_replays_on_fingerprint_collision() {
        // Honesty test for the 64-bit fingerprint: if two *different*
        // requests collide (forced here with a degenerate hasher; a
        // 2⁻⁶⁴ event with the real fingerprint), hash mode WILL replay the
        // stale reply — the fingerprint is load-bearing, not decorative.
        let mut cache = DupCache::with_hasher(4, Verify::Hash, |_| 42);
        cache.record(7, 4000, b"original", &[9]);
        assert_eq!(
            cache.get(7, 4000, b"differs!"),
            Some(&[9][..]),
            "colliding fingerprints are indistinguishable in hash mode"
        );
    }

    #[test]
    fn collision_honesty_full_bytes_mode_survives_collision() {
        // The full-bytes fallback baseline: identical fingerprints but
        // different bytes still re-dispatch, at the cost of storing and
        // comparing the whole request per entry.
        let mut cache = DupCache::with_hasher(4, Verify::FullBytes, |_| 42);
        cache.record(7, 4000, b"original", &[9]);
        assert_eq!(
            cache.get(7, 4000, b"differs!"),
            None,
            "byte comparison catches what the forced collision hides"
        );
        assert_eq!(cache.get(7, 4000, b"original"), Some(&[9][..]));
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
        // Every length a tail can have, beside a block and without one:
        // each byte matters, and so does each trailing zero.
        let mut zeros = std::collections::HashSet::new();
        for len in 0..=40 {
            let h = fingerprint64(&base[..len]);
            for i in 0..len {
                let mut tweaked = base[..len].to_vec();
                tweaked[i] ^= 0x80;
                assert_ne!(
                    h,
                    fingerprint64(&tweaked),
                    "len {len}: byte {i} must matter"
                );
            }
            assert!(
                zeros.insert(fingerprint64(&vec![0; len])),
                "len {len} must matter"
            );
        }
    }

    #[test]
    fn restart_wipes_the_dup_cache() {
        // The amnesiac-server failure mode: a crash/restart cycle
        // rebuilds the service with an empty duplicate-request cache, so
        // a retransmission of a pre-crash call re-executes its handler —
        // exactly-once degrades to at-least-once, observably.
        let net = Network::new(NetworkConfig::lan(), 5);
        let mut reg = SvcRegistry::new();
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        reg.register(300, 1, 0, move |_, _, results| {
            r.fetch_add(1, Ordering::Relaxed);
            let mut v = 5i32;
            xdr_int(results, &mut v)?;
            Ok(())
        });
        let reg = Arc::new(reg);
        serve(&net, reg, ServeConfig::new(&[650])).detach();

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
        // leave nothing of the transaction behind, or the client's
        // retransmission of the same xid would be suppressed or answered
        // from a reply that was never made.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        let mut reg = SvcRegistry::new();
        let first = AtomicBool::new(true);
        reg.register_raw(300, 1, 0, move |request, _offer, pool| {
            assert!(!first.swap(false, Ordering::Relaxed), "handler bug");
            let mut reply = pool.take(8);
            reply.extend_from_slice(&request[..4]);
            reply.extend_from_slice(b"done");
            Some(reply)
        });
        let reg = Arc::new(reg);
        let mut cd = CachedDispatch::new(reg.clone(), DUP_CACHE_ENTRIES, reg.pool().clone());
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(0x77, 300, 1, 0);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let call = enc.into_bytes();

        let mut first_try = call.clone();
        let unwound = catch_unwind(AssertUnwindSafe(|| cd.handle(&mut first_try, 4000)));
        assert!(unwound.is_err(), "the handler's panic propagates");
        assert!(
            cd.cache.get(0x77, 4000, &call).is_none(),
            "the unwind recorded nothing"
        );

        let mut retransmission = call.clone();
        let (reply, _) = cd.handle(&mut retransmission, 4000);
        assert_eq!(
            &reply[..4],
            &call[..4],
            "dispatched and answered, not suppressed"
        );
        assert_eq!(&reply[4..], b"done");
        assert_eq!(reg.raw_dispatches(), 1, "the retry ran the handler");
    }

    /// Procedure 2 answers on the raw path with the request's payload
    /// behind its xid, in the offered buffer when [`take_offer`] allows —
    /// `None`, the guard fallback, when the payload starts with `0xFF`;
    /// procedure 1 has a generic handler only.
    fn offer_registry() -> Arc<SvcRegistry> {
        Arc::new(offer_procedures())
    }

    /// [`offer_registry`] before it is shared, for a test to add to.
    fn offer_procedures() -> SvcRegistry {
        let mut reg = SvcRegistry::new();
        for proc_ in [1, 2] {
            reg.register(300, 1, proc_, |_, _, results| {
                let mut v = 7i32;
                xdr_int(results, &mut v)?;
                Ok(())
            });
        }
        reg.register_raw(300, 1, 2, |request, offer, pool| {
            let payload = &request[40..];
            if payload.first() == Some(&0xFF) {
                return None;
            }
            let wire_len = 4 + payload.len();
            let mut reply = take_offer(offer, wire_len).unwrap_or_else(|| pool.take(wire_len));
            reply.clear();
            reply.extend_from_slice(&request[..4]);
            reply.extend_from_slice(payload);
            Some(reply)
        });
        reg
    }

    /// A call to `proc_` carrying `payload`, in a buffer of exactly its
    /// length.
    fn shaped_call(xid: u32, proc_: u32, payload: &[u8]) -> Vec<u8> {
        let mut enc = XdrMem::encoder(64);
        let mut msg = CallHeader::new(xid, 300, 1, proc_);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        [&enc.into_bytes()[..], payload].concat()
    }

    /// The dispatch body of one address with a buffer pool of its own, as
    /// a shard of a multi-shard deployment has.
    fn offer_dispatch(reg: &Arc<SvcRegistry>) -> CachedDispatch {
        let bufs = Arc::new(BufPool::tight());
        CachedDispatch::new(reg.clone(), DUP_CACHE_ENTRIES, bufs)
    }

    impl CachedDispatch {
        /// Where the parked buffer lives, if one is parked.
        fn parked_at(&self) -> Option<*const u8> {
            self.parked.as_ref().map(|b| b.as_ptr())
        }
    }

    #[test]
    fn the_request_buffer_is_the_next_reply_and_the_pools_stand_still() {
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        let mut first = shaped_call(1, 2, &[1; 32]);
        let first_at = first.as_ptr();
        cd.handle(&mut first, 4000);
        assert_eq!(cd.parked_at(), Some(first_at), "consumed, so parked");
        let pools_before = (reg.pool().stats(), cd.bufs.stats());
        assert_eq!(
            (pools_before.0.misses, pools_before.1.misses),
            (0, 1),
            "nothing was parked for the cold reply: this dispatch's own pool serves it"
        );

        let mut second = shaped_call(2, 2, &[2; 32]);
        let second_at = second.as_ptr();
        let (warm, _) = cd.handle(&mut second, 4000);
        assert_eq!(
            warm.as_ptr(),
            first_at,
            "the parked request carries the reply"
        );
        assert_eq!(warm, [&2u32.to_be_bytes()[..], &[2; 32]].concat());
        assert_eq!(cd.parked_at(), Some(second_at));
        assert_eq!((reg.pool().stats(), cd.bufs.stats()), pools_before);
    }

    #[test]
    fn an_unused_offer_returns_to_the_slot() {
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        let mut first = shaped_call(1, 2, &[1; 32]);
        let parked_at = first.as_ptr();
        cd.handle(&mut first, 4000);
        // A procedure with no raw handler, then a raw handler whose guard
        // fails: the generic path answers from the pool either way, with
        // 28 bytes the 72-byte request would not have carried either.
        for (xid, proc_, payload) in [(2, 1, [0u8; 32]), (3, 2, [0xFF; 32])] {
            let parked_before = cd.bufs.parked();
            let mut request = shaped_call(xid, proc_, &payload);
            let (reply, _) = cd.handle(&mut request, 4000);
            assert_ne!(reply.as_ptr(), parked_at);
            assert_eq!(cd.parked_at(), Some(parked_at), "xid {xid}");
            assert_eq!(cd.bufs.parked(), parked_before + 1, "the request is pooled");
        }
        assert_eq!((reg.generic_dispatches(), reg.raw_fallbacks()), (2, 1));
    }

    #[test]
    fn a_replay_neither_takes_nor_loses_the_parked_buffer() {
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        let call = shaped_call(1, 2, &[1; 32]);
        let mut first = call.clone();
        let parked_at = first.as_ptr();
        let (reply, _) = cd.handle(&mut first, 4000);
        let mut again = call.clone();
        let (replay, _) = cd.handle(&mut again, 4000);
        assert_eq!(replay, reply);
        assert_ne!(replay.as_ptr(), parked_at, "a replay is a pooled copy");
        assert_eq!(cd.parked_at(), Some(parked_at));
        assert_eq!(reg.raw_dispatches(), 1);
    }

    #[test]
    fn no_small_reply_leaves_in_a_large_requests_buffer() {
        // One address, shapes alternating 8 ↔ 4096 elements, each request
        // in a buffer of its own length and every reply dropped by its
        // reader — what a `scale_open` endpoint does. A reply of either
        // shape fits the other's parked request only one way round, and
        // that way is refused: a mailbox full of 60-byte replies would
        // otherwise hold 16 KB each. The first call of each run of three
        // is refused and parks its own request; the other two share.
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        let mut accepted = 0;
        for xid in 0..64u32 {
            let elements = if (xid / 3) % 2 == 0 { 8 } else { 4096 };
            let mut request = shaped_call(xid, 2, &vec![xid as u8; 4 * elements]);
            let parked_at = cd.parked_at();
            let (reply, _) = cd.handle(&mut request, 4000);
            assert!(
                reply.capacity() <= 2 * reply.len(),
                "xid {xid}: {} bytes in a buffer of {}",
                reply.len(),
                reply.capacity()
            );
            accepted += usize::from(Some(reply.as_ptr()) == parked_at);
        }
        assert_eq!(accepted, 2 * 21, "same-shape neighbours share");
    }

    #[test]
    fn a_shards_pool_gives_a_small_reply_no_large_buffer() {
        // A 4 KB request is parked and another 4 KB buffer sits in the
        // shard's pool. A 36-byte reply refuses the first and must not
        // leave in the second either: the pool allocates one of its size.
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        cd.handle(&mut shaped_call(0, 2, &[0; 4096]), 4000);
        cd.bufs.put(Vec::with_capacity(4096));
        let (reply, _) = cd.handle(&mut shaped_call(1, 2, &[1; 32]), 4000);
        assert!(reply.capacity() <= 2 * reply.len(), "{}", reply.capacity());
        assert_eq!(cd.bufs.parked(), 2, "both large buffers are pooled");
    }

    #[test]
    fn an_odd_first_buffer_does_not_stop_like_sized_calls_sharing() {
        // One large call parks 4 KB, then small calls only: the first is
        // refused the offer and, as its own buffer would have carried its
        // reply, takes the slot; the large buffer goes to the pool.
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        let mut large = shaped_call(0, 2, &[0; 4096]);
        cd.handle(&mut large, 4000);
        for xid in 1..=8u32 {
            let mut request = shaped_call(xid, 2, &[xid as u8; 32]);
            let (request_at, parked_at) = (request.as_ptr(), cd.parked_at());
            let (reply, _) = cd.handle(&mut request, 4000);
            assert_eq!(Some(reply.as_ptr()) == parked_at, xid > 1, "xid {xid}");
            assert_eq!(cd.parked_at(), Some(request_at));
        }
        assert_eq!(cd.bufs.parked(), 1, "the large one is pooled, not lost");
    }

    /// What `cd` sends back for an envelope of `msgs`, and the sync
    /// sub-replies in it.
    fn envelope_reply(cd: &mut CachedDispatch, msgs: &[(&[u8], bool)]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut envelope = coalesce::pack(msgs.iter().copied());
        let (reply, _) = cd.handle(&mut envelope, 4000);
        let parts = match coalesce::split(&reply) {
            Some(parts) => parts.map(|(part, _)| part.to_vec()).collect(),
            None if reply.is_empty() => Vec::new(),
            None => vec![reply.clone()],
        };
        (reply, parts)
    }

    #[test]
    fn an_xid_repeated_in_one_envelope_replays_only_with_the_same_bytes() {
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        let call = shaped_call(1, 2, &[1; 32]);
        let (_, replies) = envelope_reply(&mut cd, &[(&call, false), (&call, false)]);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0], replies[1], "the second is the first's replay");
        assert_eq!(reg.raw_dispatches(), 1, "the handler ran once");

        let (reused, differs) = (shaped_call(2, 2, &[2; 32]), shaped_call(2, 2, &[3; 32]));
        let (_, replies) = envelope_reply(&mut cd, &[(&reused, false), (&differs, false)]);
        let echo = |payload: &[u8]| [&2u32.to_be_bytes()[..], payload].concat();
        assert_eq!(replies, [echo(&[2; 32]), echo(&[3; 32])]);
        assert_eq!(reg.raw_dispatches(), 3, "different bytes are re-dispatched");
    }

    #[test]
    fn an_envelope_delivered_twice_replays_every_sync_sub_reply() {
        let reg = offer_registry();
        let mut cd = offer_dispatch(&reg);
        let calls = [
            shaped_call(1, 2, &[1; 8]),
            shaped_call(2, 1, &[]),
            shaped_call(3, 2, &[3; 16]),
            shaped_call(4, 2, &[4; 4]),
        ];
        let oneway = [true, false, true, false];
        let msgs: Vec<(&[u8], bool)> = calls.iter().map(Vec::as_slice).zip(oneway).collect();
        let (first, replies) = envelope_reply(&mut cd, &msgs);
        assert_eq!(replies.len(), 2, "one per sync sub-message");
        let dispatched = (reg.raw_dispatches(), reg.generic_dispatches());
        assert_eq!(dispatched, (3, 1));
        let (again, _) = envelope_reply(&mut cd, &msgs);
        assert_eq!(again, first, "byte-identical");
        let redispatched = (reg.raw_dispatches(), reg.generic_dispatches());
        assert_eq!(redispatched, dispatched, "no handler ran again");
    }

    #[test]
    fn a_panicking_sub_handler_retires_its_in_progress_mark() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        let mut reg = offer_procedures();
        let first = AtomicBool::new(true);
        reg.register_raw(300, 1, 3, move |request, _offer, pool| {
            assert!(!first.swap(false, Ordering::Relaxed), "handler bug");
            let mut reply = pool.take(4);
            reply.extend_from_slice(&request[..4]);
            Some(reply)
        });
        let reg = Arc::new(reg);
        let mut cd = offer_dispatch(&reg);
        let (ahead, panics) = (shaped_call(1, 2, &[1; 8]), shaped_call(2, 3, &[]));
        let msgs = [(&ahead[..], true), (&panics[..], false)];
        let unwound = catch_unwind(AssertUnwindSafe(|| envelope_reply(&mut cd, &msgs)));
        assert!(unwound.is_err(), "the handler's panic propagates");
        assert!(
            cd.cache.get(1, 4000, &ahead).is_some(),
            "the one ahead ran and was recorded"
        );
        assert!(
            cd.cache.get(2, 4000, &panics).is_none(),
            "the unwind recorded nothing"
        );

        let (reply, _) = envelope_reply(&mut cd, &msgs);
        assert_eq!(reply, 2u32.to_be_bytes(), "dispatched, not suppressed");
        assert_eq!(
            reg.raw_dispatches(),
            2,
            "the one ahead replayed, the retry ran"
        );
    }

    #[test]
    fn a_retransmission_after_a_panic_is_dispatched_and_answered() {
        // A handler that panics on its first run, reached alone and from
        // inside an envelope, through the reactor and the network: the
        // panic reaches the driving thread, and the client's
        // retransmission is dispatched and answered — nothing of the
        // transaction outlives the unwind.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        let mut reg = offer_procedures();
        for proc_ in [3, 4] {
            let first = AtomicBool::new(true);
            reg.register_raw(300, 1, proc_, move |request, _offer, pool| {
                assert!(!first.swap(false, Ordering::Relaxed), "handler bug");
                let mut reply = pool.take(4);
                reply.extend_from_slice(&request[..4]);
                Some(reply)
            });
        }
        let reg = Arc::new(reg);
        let net = Network::new(NetworkConfig::lan(), 5);
        serve(&net, reg.clone(), ServeConfig::new(&[650])).detach();
        let ep = net.bind_udp(4000);
        let (ahead, panics) = (shaped_call(2, 2, &[2; 8]), shaped_call(3, 4, &[]));
        let envelope = coalesce::pack([(&ahead[..], true), (&panics[..], false)]);
        for (request, xid) in [(shaped_call(1, 3, &[]), 1u32), (envelope, 3)] {
            ep.send_to(650, request.clone());
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                ep.recv_timeout(SimTime::from_millis(5))
            }));
            assert!(crashed.is_err(), "the handler's panic reaches the driver");
            assert_eq!(net.pending_events(), 0);
            ep.send_to(650, request);
            let retried = ep.recv_timeout(SimTime::from_millis(50)).expect("answered");
            assert_eq!(retried.payload, xid.to_be_bytes(), "xid {xid}");
        }
        // The two retries, and the sub-message ahead of the panic once:
        // the retransmitted envelope replayed it.
        assert_eq!(reg.raw_dispatches(), 3);
    }

    #[test]
    fn zero_sized_cache_redispatches_every_delivery() {
        let net = Network::new(NetworkConfig::lan(), 5);
        let mut reg = SvcRegistry::new();
        reg.register(300, 1, 0, |_, _, _| Ok(()));
        let reg = Arc::new(reg);
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

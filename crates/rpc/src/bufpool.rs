//! A shared pool of reusable wire buffers.
//!
//! Every layer of the original Sun stack allocates per message: the client
//! builds a fresh request buffer per call, the server a fresh reply, and
//! the transport copies between them. The paper's specialized stubs remove
//! the *copies*; what removes the *allocations* that remain is that a
//! buffer follows its datagram and each side sends in the buffer it last
//! consumed:
//!
//! * [`crate::ClntUdp`] builds a call's datagram in the reply buffer the
//!   previous call handed to [`crate::Transport::recycle`];
//! * each served address parks the request datagram it has just
//!   dispatched and offers it to the next dispatch, and a specialized raw
//!   handler encodes the reply image straight into it
//!   ([`crate::svc::take_offer`]).
//!
//! Two buffers alternate between request and reply, and a steady call
//! touches no lock and no counter for them. This pool is the reservoir
//! for everything less regular: the first calls of a deployment,
//! retransmissions (the request image is re-sent from the caller's buffer,
//! never rebuilt), replays from the duplicate-request cache (which copies
//! replies into a log it owns and never touches the pool), stale and
//! duplicated replies, the envelopes a coalescing client packs and the
//! sub-replies it unpacks, a server's reply envelope (a server dispatches
//! an envelope's sub-messages where they lie in its datagram and copies
//! none out), the generic fallback's reply, an offer of the wrong size,
//! and the stream lane. There too every `take` is served by a previously
//! recycled buffer once warm, so the wire path performs **zero heap
//! allocations per call** — the `misses` counter is the proof (a kept
//! buffer that had to grow is counted there as well,
//! [`BufPool::note_alloc`]), and the integration tests pin it.
//!
//! Who owns which pool: a [`crate::SvcRegistry`] owns one (generic
//! replies come from it; a raw handler that is not offered a fitting
//! buffer draws from the pool its caller names — the shard's on the
//! reactor, the registry's own under [`crate::SvcRegistry::dispatch`]),
//! a client built with `create_pooled` is handed one to share, and the
//! reactor ([`crate::serve`]) gives each *shard* the pool its addresses'
//! dispatch bodies draw on — the registry's own for a one-shard
//! deployment, so what the server consumes into the pool is what its
//! replies come out of; a private [`BufPool::tight`] one per shard
//! otherwise, so shards never contend on a free list. The pool is
//! `Send + Sync` (one `Mutex` around the free list), so reactor workers
//! and any number of clients can share one instance.

use crate::svc::offer_fits;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default maximum buffers parked in a pool (beyond this, returned
/// buffers are simply dropped — the pool bounds memory, not
/// correctness). Per-pool caps are configurable via
/// [`BufPool::with_max_slots`].
pub const POOL_MAX_SLOTS: usize = 64;

/// Observability counters for a [`BufPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served entirely from a recycled buffer.
    pub hits: u64,
    /// `take` calls that had to allocate (empty pool) or grow a recycled
    /// buffer (capacity too small). Each miss is one heap allocation.
    pub misses: u64,
    /// Buffers returned to the pool so far.
    pub recycled: u64,
    /// Buffers dropped on return because the pool was already full. A
    /// steadily climbing count means the cap is too small for the
    /// deployment (e.g. batch sizes larger than the pool) — every drop
    /// is a future `take` miss, i.e. an avoidable allocation.
    pub overflow_drops: u64,
}

/// A bounded, thread-safe free list of wire buffers.
#[derive(Debug)]
pub struct BufPool {
    slots: Mutex<Vec<Vec<u8>>>,
    max_slots: usize,
    /// Whether a parked buffer serves a `take` only while an offered one
    /// of its capacity would ([`BufPool::tight`]).
    tight: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    overflow_drops: AtomicU64,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::with_max_slots(POOL_MAX_SLOTS)
    }
}

impl BufPool {
    /// An empty pool with the default [`POOL_MAX_SLOTS`] cap.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// An empty pool parking at most `max_slots` buffers. Returns beyond
    /// the cap are dropped and counted in [`PoolStats::overflow_drops`];
    /// size the cap to the deployment's in-flight buffer count (e.g. at
    /// least `2 × batch size` for pipelined batched calls).
    pub fn with_max_slots(max_slots: usize) -> Self {
        BufPool {
            slots: Mutex::new(Vec::new()),
            max_slots,
            tight: false,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            overflow_drops: AtomicU64::new(0),
        }
    }

    /// An empty pool that hands out no buffer of more than twice the
    /// capacity asked for — the bound an offered buffer is held to
    /// ([`crate::svc::take_offer`]); a larger one stays parked and the take
    /// allocates. For a pool whose buffers leave for good: a shard's
    /// private pool is fed by request datagrams of every size and drained
    /// by replies that never come back (a client can share only the
    /// registry's pool), so without the bound small replies carry the
    /// large requests' buffers away and sit on them in mailboxes.
    pub fn tight() -> Self {
        BufPool {
            tight: true,
            ..BufPool::default()
        }
    }

    /// The maximum number of buffers this pool parks.
    pub fn max_slots(&self) -> usize {
        self.max_slots
    }

    /// Take a cleared buffer with at least `min_capacity` bytes of
    /// capacity. The most recently parked buffer that already fits (in a
    /// [`BufPool::tight`] pool: and is not too large) is preferred
    /// (request- and reply-sized buffers coexist in one pool, so a plain
    /// LIFO pop would keep growing undersized ones); only when no parked
    /// buffer fits does the take cost a heap allocation (counted in
    /// [`PoolStats::misses`]).
    pub fn take(&self, min_capacity: usize) -> Vec<u8> {
        let recycled = {
            let mut slots = self.slots.lock().expect("buffer pool lock");
            let fits = |b: &Vec<u8>| {
                b.capacity() >= min_capacity
                    && (!self.tight || offer_fits(b.capacity(), min_capacity))
            };
            let at = slots
                .iter()
                .rposition(fits)
                .or_else(|| slots.iter().rposition(|b| b.capacity() < min_capacity));
            at.map(|i| slots.swap_remove(i))
        };
        match recycled {
            Some(mut buf) if buf.capacity() >= min_capacity => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            Some(mut buf) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf.reserve(min_capacity);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(min_capacity)
            }
        }
    }

    /// Return a buffer to the pool for reuse. Zero-capacity buffers are
    /// silently dropped; returns beyond the pool's cap are dropped and
    /// counted in [`PoolStats::overflow_drops`].
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut slots = self.slots.lock().expect("buffer pool lock");
        if slots.len() < self.max_slots {
            slots.push(buf);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            overflow_drops: self.overflow_drops.load(Ordering::Relaxed),
        }
    }

    /// Heap allocations performed by this pool so far (the `misses`
    /// counter — what the wire path folds into `OpCounts::heap_allocs`).
    pub fn allocs(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Record a heap allocation that happened *outside* `take` on a
    /// buffer this pool handed out (e.g. a taken buffer grown by a
    /// record reassembler) so the allocs-per-call accounting stays
    /// honest.
    pub fn note_alloc(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.slots.lock().expect("buffer pool lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn take_from_empty_pool_allocates() {
        let pool = BufPool::new();
        let b = pool.take(128);
        assert!(b.capacity() >= 128);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn recycle_then_take_is_a_hit_with_no_allocation() {
        let pool = BufPool::new();
        let mut b = pool.take(64);
        b.extend_from_slice(&[1, 2, 3]);
        let cap = b.capacity();
        let ptr = b.as_ptr() as usize;
        pool.put(b);
        let b2 = pool.take(32);
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b2.capacity(), cap);
        assert_eq!(b2.as_ptr() as usize, ptr, "same allocation reused");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
    }

    #[test]
    fn undersized_recycled_buffer_counts_a_miss() {
        let pool = BufPool::new();
        pool.put(Vec::with_capacity(8));
        let b = pool.take(1024);
        assert!(b.capacity() >= 1024);
        assert_eq!(pool.stats().misses, 1, "growth is an allocation");
    }

    #[test]
    fn take_prefers_a_fitting_buffer_over_lifo_order() {
        let pool = BufPool::new();
        pool.put(Vec::with_capacity(1024));
        pool.put(Vec::with_capacity(8)); // most recent, too small
        let b = pool.take(512);
        assert!(b.capacity() >= 1024, "the fitting buffer is chosen");
        assert_eq!(pool.stats().misses, 0);
        assert_eq!(pool.parked(), 1, "the small buffer stays parked");
    }

    #[test]
    fn a_tight_pool_leaves_an_oversized_buffer_parked() {
        let pool = BufPool::tight();
        pool.put(Vec::with_capacity(100));
        pool.put(Vec::with_capacity(4096)); // most recent, too large
        assert_eq!(pool.take(60).capacity(), 100);
        assert_eq!(pool.take(60).capacity(), 60, "a fresh one");
        assert_eq!(pool.parked(), 1, "the large buffer stays parked");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(BufPool::new().take(0).is_empty());
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufPool::new();
        for _ in 0..POOL_MAX_SLOTS + 10 {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.parked(), POOL_MAX_SLOTS);
        assert_eq!(pool.stats().recycled, POOL_MAX_SLOTS as u64);
        assert_eq!(pool.stats().overflow_drops, 10, "drops beyond cap counted");
    }

    #[test]
    fn custom_cap_is_respected_and_overflow_is_visible() {
        let pool = BufPool::with_max_slots(2);
        assert_eq!(pool.max_slots(), 2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.parked(), 2);
        let s = pool.stats();
        assert_eq!((s.recycled, s.overflow_drops), (2, 3));
        // Zero-capacity returns are not pool pressure.
        pool.put(Vec::new());
        assert_eq!(pool.stats().overflow_drops, 3);
    }

    #[test]
    fn zero_capacity_returns_are_dropped() {
        let pool = BufPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = Arc::new(BufPool::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100usize {
                    let mut b = p.take(64);
                    b.extend_from_slice(&i.to_ne_bytes());
                    p.put(b);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.misses <= 4, "at most one cold buffer per thread");
    }
}

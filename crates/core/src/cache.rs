//! Memoization of the Tempo pipeline: one compiled stub set per
//! specialization context.
//!
//! The paper builds one specialized binary per `(procedure, array size)`
//! context (Table 3). At scale — many concurrent services, many clients —
//! the same contexts recur constantly, and re-running
//! binding-time analysis + specialization + compilation per call site
//! would dwarf the marshaling savings. [`StubCache`] keys compiled
//! [`CompiledProc`]s by `(program, version, procedure,` [`ShapeKey`]`)`
//! and hands out [`Arc`]s, so a context is specialized exactly once and
//! shared by every client/server that needs it, on any thread.
//!
//! A context nobody has asked for yet is compiled by the first caller
//! that does: one Tempo run ([`modeled_compile_ns`]) costs less than one
//! generic round trip of the same shape, so there is nothing to hide it
//! behind. Over capacity the least recently used context goes.

use crate::pipeline::{CompiledProc, PipelineError, ProcPipeline};
use specrpc_rpcgen::stubgen::MsgShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The specialization-context identity of a compiled stub set: everything
/// that changes the residual code. Two call sites with equal keys can
/// share one Tempo run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Pinned length for counted arrays (the per-size context).
    pub pinned_len: usize,
    /// Bounded-unroll chunk (Table 4); `None` = full unrolling.
    pub chunk: Option<usize>,
    /// Argument message shape.
    pub arg: MsgShape,
    /// Result message shape.
    pub res: MsgShape,
}

impl ShapeKey {
    /// The key for compiling `arg`/`res` under `pipeline`'s context.
    pub fn of(pipeline: &ProcPipeline, arg: &MsgShape, res: &MsgShape) -> ShapeKey {
        ShapeKey {
            pinned_len: pipeline.pinned_len,
            chunk: pipeline.chunk,
            arg: arg.clone(),
            res: res.clone(),
        }
    }
}

/// Deterministic model of one Tempo run's duration: the fixed pipeline
/// work (parse, binding-time analysis, one specialization per loop) plus
/// work proportional to the residual code the four stubs stand for.
/// The two constants are fitted to `ProcPipeline::build_from_idl` on the
/// echo shapes (release build, median of 15 runs):
///
/// | n | 1 | 8 | 120 | 256 | 1024 | 2000 | 4096 |
/// |---|---|---|---|---|---|---|---|
/// | measured, ms | 0.25 | 0.28 | 0.30 | 0.31 | 0.33 | 0.55 | 0.93 |
/// | modeled, ms | 0.27 | 0.27 | 0.29 | 0.31 | 0.44 | 0.59 | 0.93 |
///
/// One compile costs less than one generic round trip of the same shape
/// under the IPX/SunOS CPU costs: 0.27 ms against 0.39 ms at n = 1,
/// 0.59 ms against 9.8 ms at n = 2000 (the `cold/*` rows of
/// `tests/trace_identity.rs`).
pub fn modeled_compile_ns(proc_: &CompiledProc) -> u64 {
    const FIXED_NS: u64 = 270_000;
    const PER_RESIDUAL_BYTE_NS: u64 = 1;
    let bytes = proc_.client_encode.program.code_size_bytes()
        + proc_.client_decode.program.code_size_bytes()
        + proc_.server_decode.program.code_size_bytes()
        + proc_.server_encode.program.code_size_bytes();
    FIXED_NS + PER_RESIDUAL_BYTE_NS * bytes as u64
}

/// Cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (no Tempo run).
    pub hits: u64,
    /// Lookups that ran the full pipeline.
    pub misses: u64,
    /// Distinct compiled contexts currently held.
    pub entries: usize,
    /// Entries discarded to stay within the cache's capacity (each one a
    /// future re-compile if its context recurs).
    pub evictions: u64,
    /// Total [`modeled_compile_ns`] of every Tempo run the cache made
    /// (evicted entries included).
    pub compile_ns_total: u64,
}

/// Full cache key: `(program, version, procedure,` [`ShapeKey`]`)`.
pub type CacheKey = (u32, u32, u32, ShapeKey);

/// One context's compile: the lock serializes concurrent requests for the
/// *same* context (compile exactly once) while different contexts compile
/// in parallel; the result is readable without it.
#[derive(Default)]
struct Slot {
    compiling: Mutex<()>,
    compiled: OnceLock<Arc<CompiledProc>>,
}

/// Default entry capacity: generous next to the paper's Table 3 (one
/// context per procedure × array size) yet a hard bound, so a service
/// fed adversarially varied shapes cannot grow the cache without limit.
pub const DEFAULT_STUB_CACHE_ENTRIES: usize = 256;

struct Entry {
    slot: Arc<Slot>,
    last_used: u64,
}

/// A shape-keyed cache of compiled stub sets, bounded to a fixed number
/// of contexts, least recently used evicted first.
pub struct StubCache {
    /// Map + monotone access tick, under one lock.
    map: Mutex<(HashMap<CacheKey, Entry>, u64)>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compile_ns_total: AtomicU64,
}

impl Default for StubCache {
    fn default() -> Self {
        StubCache::new()
    }
}

impl StubCache {
    /// An empty cache holding at most [`DEFAULT_STUB_CACHE_ENTRIES`]
    /// contexts.
    pub fn new() -> Self {
        StubCache::with_capacity(DEFAULT_STUB_CACHE_ENTRIES)
    }

    /// An empty cache holding at most `cap` contexts.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "stub cache needs capacity for at least one entry");
        StubCache {
            map: Mutex::new((HashMap::new(), 0)),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compile_ns_total: AtomicU64::new(0),
        }
    }

    /// Entry capacity (the eviction bound).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Hit/miss/entry/eviction/compile-cost counters. Never waits for a
    /// compile in progress.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            // Count only filled slots (a failed compile leaves none).
            entries: self
                .map
                .lock()
                .expect("cache lock")
                .0
                .values()
                .filter(|e| e.slot.compiled.get().is_some())
                .count(),
            evictions: self.evictions.load(Ordering::Relaxed),
            compile_ns_total: self.compile_ns_total.load(Ordering::Relaxed),
        }
    }

    /// Return the compiled stub set for the context, running the Tempo
    /// pipeline only on a miss. The global map lock is held only to find
    /// or create the entry (evicting the least recently used one when a
    /// new context would exceed the capacity); the compile itself holds
    /// the per-entry lock, so one context is never specialized twice and
    /// unrelated contexts never wait on each other's compiles.
    pub fn get_or_compile(
        &self,
        pipeline: &ProcPipeline,
        prog: u32,
        vers: u32,
        proc_num: u32,
        arg: &MsgShape,
        res: &MsgShape,
    ) -> Result<Arc<CompiledProc>, PipelineError> {
        let key = (prog, vers, proc_num, ShapeKey::of(pipeline, arg, res));
        let slot = {
            let mut guard = self.map.lock().expect("cache lock");
            let (map, tick) = &mut *guard;
            *tick += 1;
            if !map.contains_key(&key) && map.len() >= self.cap {
                // `last_used` ticks are unique, so the victim does not
                // depend on map iteration order. An entry mid-compile
                // keeps its slot alive through the compiling thread's
                // clone; only the cache's reference is dropped.
                let lru = map.iter().min_by_key(|(_, e)| e.last_used);
                let victim = lru.map(|(k, _)| k.clone()).expect("cap > 0");
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            let entry = map.entry(key).or_insert_with(|| Entry {
                slot: Arc::default(),
                last_used: 0,
            });
            entry.last_used = *tick;
            entry.slot.clone()
        };
        let _compiling = slot.compiling.lock().expect("compile lock");
        if let Some(hit) = slot.compiled.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        let compiled =
            Arc::new(pipeline.build_from_shapes(prog, vers, proc_num, arg.clone(), res.clone())?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compile_ns_total
            .fetch_add(modeled_compile_ns(&compiled), Ordering::Relaxed);
        Ok(slot.compiled.get_or_init(|| compiled).clone())
    }

    /// [`StubCache::get_or_compile`] from IDL source: resolves the target
    /// and shapes (cheap — no Tempo run), then consults the cache.
    pub fn get_or_compile_idl(
        &self,
        pipeline: &ProcPipeline,
        idl: &str,
        program: Option<&str>,
        proc_num: u32,
    ) -> Result<Arc<CompiledProc>, PipelineError> {
        let ((prog, vers, proc_num), arg, res) = pipeline.resolve_shapes(idl, program, proc_num)?;
        self.get_or_compile(pipeline, prog, vers, proc_num, &arg, &res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDL: &str = r#"
        const MAXARR = 2000;
        struct int_arr { int arr<MAXARR>; };
        program ARRAYPROG {
            version ARRAYVERS { int_arr ECHO(int_arr) = 1; } = 1;
        } = 0x20000101;
    "#;

    #[test]
    fn same_context_compiles_once() {
        let cache = StubCache::new();
        let p = ProcPipeline::new(40);
        let a = cache.get_or_compile_idl(&p, IDL, None, 1).unwrap();
        let b = cache.get_or_compile_idl(&p, IDL, None, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same compile");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn different_contexts_get_distinct_entries() {
        let cache = StubCache::new();
        let a = cache
            .get_or_compile_idl(&ProcPipeline::new(40), IDL, None, 1)
            .unwrap();
        let b = cache
            .get_or_compile_idl(&ProcPipeline::new(41), IDL, None, 1)
            .unwrap();
        let chunked = ProcPipeline {
            chunk: Some(8),
            ..ProcPipeline::new(40)
        };
        let c = cache.get_or_compile_idl(&chunked, IDL, None, 1).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.client_encode.wire_len, b.client_encode.wire_len - 4);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        // The whole point of Arc + Mutex: concurrent clients resolve
        // through one cache; equal contexts still compile exactly once.
        let cache = Arc::new(StubCache::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                let p = ProcPipeline::new(25);
                cache.get_or_compile_idl(&p, IDL, None, 1).unwrap().target
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), (0x2000_0101, 1, 1));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one Tempo run for four threads");
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn capacity_bound_evicts_the_cold_cheap_entry() {
        let cache = StubCache::with_capacity(2);
        let a = cache
            .get_or_compile_idl(&ProcPipeline::new(10), IDL, None, 1)
            .unwrap();
        let _b = cache
            .get_or_compile_idl(&ProcPipeline::new(11), IDL, None, 1)
            .unwrap();
        // Touch `a` so `b` becomes the coldest entry…
        let a2 = cache
            .get_or_compile_idl(&ProcPipeline::new(10), IDL, None, 1)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        // …then a third context must evict `b`, not `a`.
        let _c = cache
            .get_or_compile_idl(&ProcPipeline::new(12), IDL, None, 1)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 2, "bounded at capacity");
        assert_eq!(s.evictions, 1);
        // `a` survives (hit); `b` was evicted and recompiles (miss).
        let hits_before = cache.stats().hits;
        cache
            .get_or_compile_idl(&ProcPipeline::new(10), IDL, None, 1)
            .unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1, "a still cached");
        let misses_before = cache.stats().misses;
        cache
            .get_or_compile_idl(&ProcPipeline::new(11), IDL, None, 1)
            .unwrap();
        assert_eq!(cache.stats().misses, misses_before + 1, "b recompiles");
    }

    #[test]
    fn compile_durations_accumulate_in_stats() {
        let cache = StubCache::new();
        cache
            .get_or_compile_idl(&ProcPipeline::new(8), IDL, None, 1)
            .unwrap();
        let after_one = cache.stats().compile_ns_total;
        assert!(after_one >= 270_000, "modeled floor: {after_one}");
        cache
            .get_or_compile_idl(&ProcPipeline::new(9), IDL, None, 1)
            .unwrap();
        assert!(cache.stats().compile_ns_total > after_one);
        // Hits add nothing.
        let t = cache.stats().compile_ns_total;
        cache
            .get_or_compile_idl(&ProcPipeline::new(8), IDL, None, 1)
            .unwrap();
        assert_eq!(cache.stats().compile_ns_total, t);
    }

    #[test]
    fn stats_does_not_wait_for_a_compile() {
        // A compile holds its entry's lock for the whole Tempo run. If
        // `stats()` waited for it while holding the map lock, one call
        // during a compile would park every other context's lookup
        // until that compile ended.
        let cache = Arc::new(StubCache::new());
        cache
            .get_or_compile_idl(&ProcPipeline::new(8), IDL, None, 1)
            .unwrap();
        let slot = {
            let guard = cache.map.lock().unwrap();
            guard.0.values().next().unwrap().slot.clone()
        };
        let compiling = slot.compiling.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let cache = cache.clone();
            std::thread::spawn(move || tx.send(cache.stats()).unwrap())
        };
        let stats = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("stats() must not wait on an entry's compile lock");
        assert_eq!(stats.entries, 1);
        drop(compiling);
        reader.join().unwrap();
    }

    #[test]
    fn default_capacity_is_bounded() {
        let cache = StubCache::new();
        assert_eq!(cache.capacity(), DEFAULT_STUB_CACHE_ENTRIES);
    }

    #[test]
    fn unsupported_shape_error_propagates() {
        let cache = StubCache::new();
        let idl = r#"
            struct s { string x<8>; };
            program P { version V { s F(s) = 1; } = 1; } = 7;
        "#;
        let err = cache
            .get_or_compile_idl(&ProcPipeline::new(10), idl, None, 1)
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnsupportedShape));
        assert_eq!(cache.stats().entries, 0);
    }
}

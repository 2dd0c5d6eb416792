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
//! shared by every client/server that needs it (the `Arc` + interior
//! `Mutex` make the cache shareable across threads once the dispatch
//! layer goes multi-threaded).
//!
//! The entry bound is enforced **cost-aware** by default: every insert
//! records the compile's duration (deterministic virtual-time model in
//! simulation, wall clock off it — see [`CompileClock`]), every access
//! bumps a recency-decayed hit score, and the evicted entry is the one
//! with the smallest `compile cost × decayed hit rate` weight — cheap to
//! recompile and rarely asked for. Plain LRU remains available through
//! [`EvictionPolicy::Lru`].

use crate::pipeline::{CompiledProc, PipelineError, ProcPipeline};
use specrpc_rpcgen::parser::parse;
use specrpc_rpcgen::stubgen::MsgShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The specialization-context identity of a compiled stub set: everything
/// that changes the residual code. Two call sites with equal keys can
/// share one Tempo run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Pinned length for counted arrays (the per-size context).
    pub pinned_len: usize,
    /// Bounded-unroll chunk (Table 4); `None` = full unrolling.
    pub chunk: Option<usize>,
    /// Target icache budget for the automatic unroll-bound picker —
    /// part of the identity because two pipelines with equal shapes but
    /// different budgets can compile different residuals.
    pub icache_budget: Option<usize>,
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
            icache_budget: pipeline.icache_budget,
            arg: arg.clone(),
            res: res.clone(),
        }
    }
}

/// How a compile's duration is measured when its entry is filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileClock {
    /// Deterministic virtual-time model (the default): a fixed pipeline
    /// overhead plus per-residual-byte compile work, via
    /// [`modeled_compile_ns`]. Simulated deployments need eviction
    /// decisions — and the reports built on them — to be reproducible.
    Modeled,
    /// Wall clock around the Tempo run, for deployments off the
    /// simulator where the real compile latency is the quantity of
    /// interest.
    Wall,
}

/// Which entry is discarded when the cache is over capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Cost-aware (the default): weight = recorded compile cost × the
    /// recency-decayed hit score; the lightest entry — cheap to
    /// recompile *and* rarely used — goes first. An expensive stub set
    /// survives a burst of one-shot cheap contexts that plain LRU would
    /// let flush it.
    CostAware,
    /// Plain least-recently-used (the original entry-cap behavior),
    /// kept for comparison and for deployments where compile costs are
    /// uniform.
    Lru,
}

/// Number of compile-cost classes eviction accounting distinguishes.
pub const COST_CLASSES: usize = 3;

/// Class boundaries in nanoseconds: below the first bound is "cheap",
/// below the second "moderate", anything above "expensive". The fixed
/// pipeline overhead of [`modeled_compile_ns`] puts every compile at
/// ≥270 µs, so the bounds sit at 2× and 8× that floor.
pub const COST_CLASS_BOUNDS_NS: [u64; COST_CLASSES - 1] = [540_000, 2_160_000];

/// The cost class (index into per-class eviction counters) of a compile
/// duration.
pub fn cost_class(compile_ns: u64) -> usize {
    COST_CLASS_BOUNDS_NS
        .iter()
        .position(|&b| compile_ns < b)
        .unwrap_or(COST_CLASSES - 1)
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
/// (≈0.7 ms in virtual time at n = 8 on the IPX/ATM platform).
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
    /// Lookups that ran the full pipeline (or had a compile published
    /// into them — one Tempo run either way).
    pub misses: u64,
    /// Distinct compiled contexts currently held.
    pub entries: usize,
    /// Entries discarded to stay within the cache's capacity (each one a
    /// future re-compile if its context recurs).
    pub evictions: u64,
    /// Evictions split by the victim's compile-cost class
    /// (`[cheap, moderate, expensive]` per [`COST_CLASS_BOUNDS_NS`]) —
    /// under cost-aware eviction the mass should sit in the cheap
    /// classes.
    pub evictions_by_class: [u64; COST_CLASSES],
    /// Total compile time recorded at insert across the cache's
    /// lifetime (evicted entries included) — the same per-entry
    /// measurement eviction weighs.
    pub compile_ns_total: u64,
}

/// Full cache key: `(program, version, procedure,` [`ShapeKey`]`)`.
pub type CacheKey = (u32, u32, u32, ShapeKey);

/// One cache entry: a per-context lock around the compile result, so
/// concurrent requests for the *same* context serialize on their entry
/// (compile exactly once) while different contexts compile in parallel.
type Slot = Arc<Mutex<Option<Arc<CompiledProc>>>>;

/// Default entry capacity: generous next to the paper's Table 3 (one
/// context per procedure × array size) yet a hard bound, so a service
/// fed adversarially varied shapes cannot grow the cache without limit.
pub const DEFAULT_STUB_CACHE_ENTRIES: usize = 256;

/// Per-tick decay of an entry's hit score: an entry untouched for ~100
/// lookups keeps ~13% of its score, so sustained popularity outweighs
/// ancient bursts.
const SCORE_DECAY_PER_TICK: f64 = 0.98;

/// The slot plus the access bookkeeping eviction weighs: last-used tick,
/// recency-decayed hit score, and the compile duration recorded when the
/// slot was filled.
struct Entry {
    slot: Slot,
    last_used: u64,
    score: f64,
    compile_ns: u64,
}

impl Entry {
    /// Fold an access at tick `now` into the decayed hit score.
    fn touch(&mut self, now: u64) {
        let dt = (now - self.last_used).min(4_000) as i32;
        self.score = self.score * SCORE_DECAY_PER_TICK.powi(dt) + 1.0;
        self.last_used = now;
    }

    /// Cost-aware eviction weight at tick `now`: compile cost × decayed
    /// hit score. Entries mid-compile (`compile_ns == 0`) weigh nearly
    /// nothing — discarding the cache's reference never aborts the
    /// compile itself, which holds its own slot clone.
    fn weight(&self, now: u64) -> f64 {
        let dt = (now - self.last_used).min(4_000) as i32;
        self.compile_ns.max(1) as f64 * self.score * SCORE_DECAY_PER_TICK.powi(dt)
    }
}

/// A shape-keyed cache of compiled stub sets, bounded to a fixed number
/// of contexts with cost-aware (or plain LRU) eviction.
pub struct StubCache {
    /// Map + monotone access tick, under one lock.
    map: Mutex<(HashMap<CacheKey, Entry>, u64)>,
    cap: usize,
    policy: EvictionPolicy,
    clock: CompileClock,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evictions_by_class: [AtomicU64; COST_CLASSES],
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

    /// An empty cache holding at most `cap` contexts, evicting
    /// cost-aware when an insertion would exceed the bound.
    pub fn with_capacity(cap: usize) -> Self {
        StubCache::with_policy(cap, EvictionPolicy::CostAware)
    }

    /// An empty cache with an explicit eviction policy.
    pub fn with_policy(cap: usize, policy: EvictionPolicy) -> Self {
        assert!(cap > 0, "stub cache needs capacity for at least one entry");
        StubCache {
            map: Mutex::new((HashMap::new(), 0)),
            cap,
            policy,
            clock: CompileClock::Modeled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evictions_by_class: Default::default(),
            compile_ns_total: AtomicU64::new(0),
        }
    }

    /// Switch how compile durations are measured (default:
    /// [`CompileClock::Modeled`]).
    pub fn with_compile_clock(mut self, clock: CompileClock) -> Self {
        self.clock = clock;
        self
    }

    /// Entry capacity (the eviction bound).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Hit/miss/entry/eviction/compile-cost counters.
    pub fn stats(&self) -> CacheStats {
        let mut by_class = [0u64; COST_CLASSES];
        for (dst, src) in by_class.iter_mut().zip(&self.evictions_by_class) {
            *dst = src.load(Ordering::Relaxed);
        }
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
                .filter(|e| e.slot.lock().expect("slot lock").is_some())
                .count(),
            evictions: self.evictions.load(Ordering::Relaxed),
            evictions_by_class: by_class,
            compile_ns_total: self.compile_ns_total.load(Ordering::Relaxed),
        }
    }

    /// Evict (at most) one entry when the map is over capacity, sparing
    /// the just-touched `keep` key. Under [`EvictionPolicy::CostAware`]
    /// the minimum-weight entry goes; under [`EvictionPolicy::Lru`] the
    /// least recently used. Ties cannot occur: `last_used` ticks are
    /// unique per entry, and the cost-aware comparison falls back to
    /// them, so the victim is deterministic regardless of map iteration
    /// order.
    fn evict_over_cap(&self, map: &mut HashMap<CacheKey, Entry>, now: u64, keep: &CacheKey) {
        if map.len() <= self.cap {
            return;
        }
        let victim = match self.policy {
            EvictionPolicy::Lru => map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone()),
            EvictionPolicy::CostAware => map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by(|a, b| {
                    a.1.weight(now)
                        .total_cmp(&b.1.weight(now))
                        .then_with(|| a.1.last_used.cmp(&b.1.last_used))
                })
                .map(|(k, _)| k.clone()),
        };
        if let Some(victim) = victim {
            let cost = map.remove(&victim).map(|e| e.compile_ns).unwrap_or(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evictions_by_class[cost_class(cost)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Probe the cache **without compiling**: the filled entry for the
    /// context, or `None` (no entry is created, no miss is charged — the
    /// tiered runtime's promotion policy decides whether a compile gets
    /// queued). A successful peek counts as a hit and refreshes the
    /// entry's recency/score.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CompiledProc>> {
        let mut guard = self.map.lock().expect("cache lock");
        let (map, tick) = &mut *guard;
        let entry = map.get_mut(key)?;
        let hit = entry.slot.lock().expect("slot lock").as_ref().cloned()?;
        *tick += 1;
        let now = *tick;
        entry.touch(now);
        drop(guard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Publish an externally compiled stub set for `key`, recording the
    /// compile duration the producer measured. This is the atomic
    /// hot-swap point of the adaptive runtime: the entry's slot flips
    /// from empty to filled under its lock, so a caller peeking
    /// mid-publication sees either the old tier (compile still absent)
    /// or the complete new one — never a partial stub set. Counts one
    /// miss (a Tempo run happened, just elsewhere).
    pub fn publish(&self, key: CacheKey, proc_: Arc<CompiledProc>, compile_ns: u64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compile_ns_total
            .fetch_add(compile_ns, Ordering::Relaxed);
        let mut guard = self.map.lock().expect("cache lock");
        let (map, tick) = &mut *guard;
        *tick += 1;
        let now = *tick;
        let entry = map.entry(key.clone()).or_insert_with(|| Entry {
            slot: Slot::default(),
            last_used: now,
            score: 0.0,
            compile_ns: 0,
        });
        entry.touch(now);
        entry.compile_ns = compile_ns;
        *entry.slot.lock().expect("slot lock") = Some(proc_);
        self.evict_over_cap(map, now, &key);
    }

    /// Return the compiled stub set for the context, running the Tempo
    /// pipeline only on a miss. The global map lock is held only to find
    /// or create the entry (and evict per policy when over capacity);
    /// the compile itself holds the per-entry lock, so one context is
    /// never specialized twice and unrelated contexts never wait on each
    /// other's compiles. The compile's duration (per the cache's
    /// [`CompileClock`]) is recorded on the entry — the measurement
    /// eviction and reporting share.
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
            let now = *tick;
            let slot = {
                let entry = map.entry(key.clone()).or_insert_with(|| Entry {
                    slot: Slot::default(),
                    last_used: now,
                    score: 0.0,
                    compile_ns: 0,
                });
                entry.touch(now);
                entry.slot.clone()
            };
            // Over the bound (the insertion above was a new context):
            // discard the policy's victim other than the entry just
            // touched. An entry mid-compile keeps its slot alive through
            // the compiling thread's clone; only the cache's reference
            // is dropped.
            self.evict_over_cap(map, now, &key);
            slot
        };
        let compiled = {
            let mut slot = slot.lock().expect("slot lock");
            if let Some(hit) = slot.as_ref() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit.clone());
            }
            let started = Instant::now();
            let compiled = Arc::new(pipeline.build_from_shapes(
                prog,
                vers,
                proc_num,
                arg.clone(),
                res.clone(),
            )?);
            let compile_ns = match self.clock {
                CompileClock::Wall => started.elapsed().as_nanos() as u64,
                CompileClock::Modeled => modeled_compile_ns(&compiled),
            };
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.compile_ns_total
                .fetch_add(compile_ns, Ordering::Relaxed);
            *slot = Some(compiled.clone());
            drop(slot);
            // Stamp the measured cost on the entry (slot lock released
            // first: the lock order is always map → slot). The entry may
            // have been evicted mid-compile; the lifetime total above
            // still counts the run.
            let mut guard = self.map.lock().expect("cache lock");
            if let Some(e) = guard.0.get_mut(&key) {
                e.compile_ns = compile_ns;
            }
            compiled
        };
        Ok(compiled)
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

    /// Compile-ahead mode: pre-seed the cache with **every** procedure
    /// of the (named or first) program in `idl` under `pipeline`'s
    /// context — what a service registration runs so the first client
    /// of each procedure already finds a specialized stub set. Returns
    /// how many procedures were seeded; shapes the specializer cannot
    /// pin ([`PipelineError::UnsupportedShape`]) are skipped — they stay
    /// generic-only, which the dispatch layer already handles.
    pub fn compile_ahead_idl(
        &self,
        pipeline: &ProcPipeline,
        idl: &str,
        program: Option<&str>,
    ) -> Result<usize, PipelineError> {
        let file = parse(idl)?;
        let prog = file
            .programs()
            .into_iter()
            .find(|p| program.map(|n| p.name == n).unwrap_or(true))
            .ok_or_else(|| PipelineError::NoSuchProc {
                program: program.unwrap_or("").to_string(),
                proc_num: 0,
            })?
            .clone();
        let mut seeded = 0;
        for vers in prog.versions.first().into_iter() {
            for p in &vers.procs {
                match self.get_or_compile_idl(pipeline, idl, program, p.number) {
                    Ok(_) => seeded += 1,
                    Err(PipelineError::UnsupportedShape) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(seeded)
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
        let c = cache
            .get_or_compile_idl(&ProcPipeline::new(40).with_chunk(8), IDL, None, 1)
            .unwrap();
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
        // Two near-equal compile costs: the score term decides, and the
        // twice-used entry outweighs the once-used one — same victim as
        // plain LRU here, pinned for both policies below.
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
        assert_eq!(s.evictions_by_class.iter().sum::<u64>(), 1);
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
    fn lru_policy_preserves_the_original_behavior() {
        let cache = StubCache::with_policy(2, EvictionPolicy::Lru);
        let a = cache
            .get_or_compile_idl(&ProcPipeline::new(10), IDL, None, 1)
            .unwrap();
        let _b = cache
            .get_or_compile_idl(&ProcPipeline::new(11), IDL, None, 1)
            .unwrap();
        let a2 = cache
            .get_or_compile_idl(&ProcPipeline::new(10), IDL, None, 1)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        cache
            .get_or_compile_idl(&ProcPipeline::new(12), IDL, None, 1)
            .unwrap();
        let hits_before = cache.stats().hits;
        cache
            .get_or_compile_idl(&ProcPipeline::new(10), IDL, None, 1)
            .unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1, "a survived LRU");
    }

    #[test]
    fn cost_aware_eviction_spares_the_expensive_entry() {
        // An old, once-used but expensive-to-compile context (a fully
        // unrolled 2000-element stub set) versus a fresher, twice-used
        // cheap one: LRU would evict the old expensive entry; the
        // cost-aware weight keeps it and discards the cheap one, because
        // recompiling it is what actually hurts.
        let cache = StubCache::with_capacity(2);
        let big = cache
            .get_or_compile_idl(&ProcPipeline::new(2000), IDL, None, 1)
            .unwrap();
        assert!(
            modeled_compile_ns(&big)
                > 2 * modeled_compile_ns(
                    &cache
                        .get_or_compile_idl(&ProcPipeline::new(4), IDL, None, 1)
                        .unwrap()
                ),
            "the test needs a real cost gap"
        );
        // Touch the cheap entry so it is strictly more recent and more
        // used than the big one.
        cache
            .get_or_compile_idl(&ProcPipeline::new(4), IDL, None, 1)
            .unwrap();
        // Inserting a third context evicts the cheap entry, not `big`.
        cache
            .get_or_compile_idl(&ProcPipeline::new(5), IDL, None, 1)
            .unwrap();
        let hits_before = cache.stats().hits;
        let big2 = cache
            .get_or_compile_idl(&ProcPipeline::new(2000), IDL, None, 1)
            .unwrap();
        assert!(Arc::ptr_eq(&big, &big2), "expensive entry survived");
        assert_eq!(cache.stats().hits, hits_before + 1);
        // The victim was the cheap context → cheap cost class.
        assert_eq!(cache.stats().evictions_by_class[0], 1);
    }

    #[test]
    fn peek_never_compiles_and_counts_hits_only_on_success() {
        let cache = StubCache::new();
        let p = ProcPipeline::new(16);
        let ((prog, vers, pnum), arg, res) = p.resolve_shapes(IDL, None, 1).unwrap();
        let key = (prog, vers, pnum, ShapeKey::of(&p, &arg, &res));
        assert!(cache.peek(&key).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0), "peek is free");
        let compiled = cache
            .get_or_compile(&p, prog, vers, pnum, &arg, &res)
            .unwrap();
        let peeked = cache.peek(&key).unwrap();
        assert!(Arc::ptr_eq(&compiled, &peeked));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn publish_fills_the_entry_and_records_cost() {
        let cache = StubCache::new();
        let p = ProcPipeline::new(16);
        let ((prog, vers, pnum), arg, res) = p.resolve_shapes(IDL, None, 1).unwrap();
        let key = (prog, vers, pnum, ShapeKey::of(&p, &arg, &res));
        let compiled = Arc::new(
            p.build_from_shapes(prog, vers, pnum, arg.clone(), res.clone())
                .unwrap(),
        );
        cache.publish(key.clone(), compiled.clone(), 7_000_000);
        let got = cache.peek(&key).unwrap();
        assert!(Arc::ptr_eq(&compiled, &got));
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (1, 1));
        assert_eq!(s.compile_ns_total, 7_000_000);
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
    fn wall_clock_records_positive_durations() {
        let cache = StubCache::new().with_compile_clock(CompileClock::Wall);
        cache
            .get_or_compile_idl(&ProcPipeline::new(64), IDL, None, 1)
            .unwrap();
        assert!(cache.stats().compile_ns_total > 0);
    }

    #[test]
    fn compile_ahead_seeds_every_supported_procedure() {
        let idl = r#"
            const MAXARR = 100;
            struct int_arr { int arr<MAXARR>; };
            program AHEADPROG {
                version AHEADVERS {
                    int_arr ECHO(int_arr) = 1;
                    int SUM(int_arr) = 2;
                    int PING(int) = 3;
                } = 1;
            } = 0x20000404;
        "#;
        let cache = StubCache::new();
        let seeded = cache
            .compile_ahead_idl(&ProcPipeline::new(10), idl, None)
            .unwrap();
        assert_eq!(seeded, 3);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (3, 3));
        // Every registered procedure now hits.
        for pnum in 1..=3 {
            cache
                .get_or_compile_idl(&ProcPipeline::new(10), idl, None, pnum)
                .unwrap();
        }
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn compile_ahead_skips_unsupported_shapes() {
        let idl = r#"
            const MAXARR = 100;
            struct int_arr { int arr<MAXARR>; };
            struct stringy { string x<8>; };
            program MIXEDPROG {
                version MIXEDVERS {
                    int_arr ECHO(int_arr) = 1;
                    stringy NAME(stringy) = 2;
                } = 1;
            } = 0x20000405;
        "#;
        let cache = StubCache::new();
        let seeded = cache
            .compile_ahead_idl(&ProcPipeline::new(10), idl, None)
            .unwrap();
        assert_eq!(seeded, 1, "the string shape stays generic-only");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn cost_classes_partition_the_axis() {
        assert_eq!(cost_class(0), 0);
        assert_eq!(cost_class(539_999), 0);
        assert_eq!(cost_class(540_000), 1);
        assert_eq!(cost_class(2_159_999), 1);
        assert_eq!(cost_class(2_160_000), 2);
        assert_eq!(cost_class(u64::MAX), 2);
    }

    #[test]
    fn default_capacity_is_bounded() {
        let cache = StubCache::new();
        assert_eq!(cache.capacity(), DEFAULT_STUB_CACHE_ENTRIES);
        assert_eq!(cache.policy(), EvictionPolicy::CostAware);
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

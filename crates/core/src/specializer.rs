//! The background compile pool of the adaptive runtime: Tempo runs taken
//! **off the calling path**.
//!
//! [`Specializer`] owns a small thread pool fed over a channel with
//! [`CompileJob`]s — `(program, version, procedure,` [`ShapeKey`]`)`
//! work items carrying everything a Tempo run needs. Workers compile and
//! publish the result into the shared [`StubCache`], where the next
//! tiered lookup hot-swaps onto it. Publication is atomic by
//! construction (the cache entry's slot flips under its lock), so
//! callers racing a publish see either the generic tier or the complete
//! specialized stub set — never half of one.
//!
//! Two publication modes:
//!
//! * **Immediate** (`staged = false`): a worker publishes as soon as its
//!   compile finishes — lowest time-to-tier-1, but *when* the swap lands
//!   depends on wall-clock thread scheduling.
//! * **Staged** (`staged = true`): finished compiles park in a staging
//!   buffer until [`Specializer::publish_staged`] flips them in. The
//!   deterministic simulation drives this from fixed call indices so
//!   hot-swap points — and every counter derived from them — are
//!   reproducible run to run.

use crate::cache::{modeled_compile_ns, CacheKey, CompileClock, ShapeKey, StubCache};
use crate::pipeline::{CompiledProc, ProcPipeline};
use specrpc_rpcgen::stubgen::MsgShape;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One unit of background specialization work: the pipeline context plus
/// the resolved target and shapes (resolution is cheap and already done
/// by the enqueuing tier — workers go straight to the Tempo run).
#[derive(Clone)]
pub struct CompileJob {
    /// Specialization context (pinned length, chunk, icache budget).
    pub pipeline: ProcPipeline,
    /// Program number.
    pub prog: u32,
    /// Version number.
    pub vers: u32,
    /// Procedure number.
    pub proc_num: u32,
    /// Argument shape.
    pub arg: MsgShape,
    /// Result shape.
    pub res: MsgShape,
}

impl CompileJob {
    /// The cache key this job's compile will publish under.
    pub fn key(&self) -> CacheKey {
        (
            self.prog,
            self.vers,
            self.proc_num,
            ShapeKey::of(&self.pipeline, &self.arg, &self.res),
        )
    }
}

/// Queue-progress counters (under one lock so "idle" is a single
/// condition: `done == queued`).
#[derive(Default)]
struct Progress {
    queued: u64,
    done: u64,
}

/// A finished compile parked for publication: key, stubs, compile cost.
type StagedCompile = (CacheKey, Arc<CompiledProc>, u64);

struct Shared {
    cache: Arc<StubCache>,
    /// `Some` in staged mode: finished compiles wait here for
    /// [`Specializer::publish_staged`].
    staged: Option<Mutex<Vec<StagedCompile>>>,
    progress: Mutex<Progress>,
    idle: Condvar,
    completed: AtomicU64,
    failed: AtomicU64,
    depth_high_water: AtomicU64,
    published: AtomicU64,
    clock: CompileClock,
}

impl Shared {
    /// Run one job to completion: compile, measure, publish or stage.
    fn run_job(&self, job: CompileJob) {
        let key = job.key();
        let started = Instant::now();
        match job
            .pipeline
            .build_from_shapes(job.prog, job.vers, job.proc_num, job.arg, job.res)
        {
            Ok(compiled) => {
                let compiled = Arc::new(compiled);
                let compile_ns = match self.clock {
                    CompileClock::Wall => started.elapsed().as_nanos() as u64,
                    CompileClock::Modeled => modeled_compile_ns(&compiled),
                };
                self.completed.fetch_add(1, Ordering::Relaxed);
                match &self.staged {
                    Some(staged) => staged
                        .lock()
                        .expect("staging lock")
                        .push((key, compiled, compile_ns)),
                    None => {
                        self.cache.publish(key, compiled, compile_ns);
                        self.published.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Unsupported shapes (and any other pipeline failure) leave
            // the tier generic; the dispatch layer already serves it.
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut progress = self.progress.lock().expect("progress lock");
        progress.done += 1;
        self.idle.notify_all();
    }
}

/// Snapshot of the compile queue's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecializerStats {
    /// Jobs ever enqueued.
    pub queued: u64,
    /// Jobs compiled successfully (published or staged).
    pub completed: u64,
    /// Jobs whose Tempo run failed (e.g. unsupported shape).
    pub failed: u64,
    /// Jobs currently queued or compiling.
    pub depth: u64,
    /// Deepest the queue ever got — the backlog a sizing decision cares
    /// about.
    pub depth_high_water: u64,
    /// Compiles actually made visible to callers (equals `completed` in
    /// immediate mode; lags it in staged mode until the next drain).
    pub published: u64,
}

/// A background compile thread pool publishing into a shared
/// [`StubCache`]. Dropping it drains the queue: the channel closes,
/// workers finish in-flight jobs, and the threads are joined.
pub struct Specializer {
    tx: Option<mpsc::Sender<CompileJob>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Specializer {
    /// Spawn `workers` compile threads (at least one) publishing into
    /// `cache`. `staged` selects the deterministic staged-publication
    /// mode; `clock` selects how compile durations are measured.
    pub fn new(cache: Arc<StubCache>, workers: usize, staged: bool, clock: CompileClock) -> Self {
        let shared = Arc::new(Shared {
            cache,
            staged: staged.then(|| Mutex::new(Vec::new())),
            progress: Mutex::new(Progress::default()),
            idle: Condvar::new(),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            depth_high_water: AtomicU64::new(0),
            published: AtomicU64::new(0),
            clock,
        });
        let (tx, rx) = mpsc::channel::<CompileJob>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let shared = shared.clone();
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only to dequeue, so compiles
                    // themselves run in parallel across workers.
                    let job = match rx.lock().expect("job queue lock").recv() {
                        Ok(job) => job,
                        Err(_) => return, // channel closed: pool shutting down
                    };
                    shared.run_job(job);
                })
            })
            .collect();
        Specializer {
            tx: Some(tx),
            workers,
            shared,
        }
    }

    /// Queue a compile. Returns immediately; the caller keeps serving
    /// Tier-0 until the result is published.
    pub fn enqueue(&self, job: CompileJob) {
        {
            let mut progress = self.shared.progress.lock().expect("progress lock");
            progress.queued += 1;
            let depth = progress.queued - progress.done;
            self.shared
                .depth_high_water
                .fetch_max(depth, Ordering::Relaxed);
        }
        self.tx
            .as_ref()
            .expect("specializer channel open while alive")
            .send(job)
            .expect("specializer workers alive while Specializer is");
    }

    /// Block until every enqueued job has finished compiling (staged
    /// results may still await [`Specializer::publish_staged`]).
    pub fn wait_idle(&self) {
        let mut progress = self.shared.progress.lock().expect("progress lock");
        while progress.done < progress.queued {
            progress = self
                .shared
                .idle
                .wait(progress)
                .expect("specializer idle wait");
        }
    }

    /// Staged mode: flip every parked compile into the cache (atomic per
    /// entry) and return how many went live. A no-op (0) in immediate
    /// mode.
    pub fn publish_staged(&self) -> usize {
        let Some(staged) = &self.shared.staged else {
            return 0;
        };
        let drained: Vec<_> = staged.lock().expect("staging lock").drain(..).collect();
        let n = drained.len();
        for (key, compiled, compile_ns) in drained {
            self.shared.cache.publish(key, compiled, compile_ns);
        }
        self.shared.published.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Lifetime queue counters.
    pub fn stats(&self) -> SpecializerStats {
        let (queued, done) = {
            let p = self.shared.progress.lock().expect("progress lock");
            (p.queued, p.done)
        };
        SpecializerStats {
            queued,
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            depth: queued - done,
            depth_high_water: self.shared.depth_high_water.load(Ordering::Relaxed),
            published: self.shared.published.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Specializer {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the channel: workers drain and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDL: &str = r#"
        const MAXARR = 500;
        struct int_arr { int arr<MAXARR>; };
        program SPECPROG {
            version SPECVERS {
                int_arr ECHO(int_arr) = 1;
                int SUM(int_arr) = 2;
            } = 1;
        } = 0x20000202;
    "#;

    fn job(pinned: usize, proc_num: u32) -> CompileJob {
        let pipeline = ProcPipeline::new(pinned);
        let ((prog, vers, proc_num), arg, res) =
            pipeline.resolve_shapes(IDL, None, proc_num).unwrap();
        CompileJob {
            pipeline,
            prog,
            vers,
            proc_num,
            arg,
            res,
        }
    }

    #[test]
    fn immediate_mode_publishes_into_the_cache() {
        let cache = Arc::new(StubCache::new());
        let spec = Specializer::new(cache.clone(), 2, false, CompileClock::Modeled);
        spec.enqueue(job(16, 1));
        spec.enqueue(job(32, 1));
        spec.wait_idle();
        let s = spec.stats();
        assert_eq!((s.queued, s.completed, s.failed, s.depth), (2, 2, 0, 0));
        assert_eq!(s.published, 2);
        assert!(s.depth_high_water >= 1);
        let cs = cache.stats();
        assert_eq!((cs.entries, cs.misses), (2, 2));
        assert!(cache.peek(&job(16, 1).key()).is_some());
        assert!(cache.peek(&job(32, 1).key()).is_some());
    }

    #[test]
    fn staged_mode_defers_visibility_until_drained() {
        let cache = Arc::new(StubCache::new());
        let spec = Specializer::new(cache.clone(), 1, true, CompileClock::Modeled);
        spec.enqueue(job(16, 1));
        spec.wait_idle();
        assert_eq!(spec.stats().completed, 1);
        assert_eq!(spec.stats().published, 0, "compiled but not yet visible");
        assert!(cache.peek(&job(16, 1).key()).is_none());
        assert_eq!(spec.publish_staged(), 1);
        assert_eq!(spec.stats().published, 1);
        assert!(cache.peek(&job(16, 1).key()).is_some());
        assert_eq!(spec.publish_staged(), 0, "drain is idempotent");
    }

    #[test]
    fn idle_pool_reports_zeroed_stats() {
        // Unsupported shapes fail at resolve time — before a job exists —
        // so a well-formed job cannot fail its compile; the `failed`
        // counter guards the pipeline's error path regardless. An empty
        // pool must be immediately idle with zeroed counters.
        let cache = Arc::new(StubCache::new());
        let spec = Specializer::new(cache, 1, false, CompileClock::Modeled);
        spec.wait_idle();
        assert_eq!(spec.stats(), SpecializerStats::default());
    }

    #[test]
    fn compiles_record_cost_in_the_shared_cache() {
        let cache = Arc::new(StubCache::new());
        let spec = Specializer::new(cache.clone(), 1, false, CompileClock::Modeled);
        spec.enqueue(job(64, 2));
        spec.wait_idle();
        assert!(cache.stats().compile_ns_total >= 270_000);
    }

    #[test]
    fn drop_joins_cleanly_with_work_in_flight() {
        let cache = Arc::new(StubCache::new());
        let spec = Specializer::new(cache.clone(), 2, false, CompileClock::Modeled);
        for i in 0..8 {
            spec.enqueue(job(8 + i, 1));
        }
        drop(spec); // must drain and join without panicking
        assert_eq!(cache.stats().entries, 8, "drop drains the queue");
    }
}

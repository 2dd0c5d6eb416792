//! Mapping specializer statistics onto the paper's §3 categories, plus
//! the latency/throughput tables of the scaled serving scenarios.

use crate::cache::CacheStats;
use specrpc_netsim::{LinkStats, SimTime};
use specrpc_rpc::bufpool::PoolStats;
use specrpc_tempo::spec::SpecReport;
use specrpc_xdr::OpCounts;

/// Minor buckets per power-of-two octave: latency values land in
/// logarithmic octaves subdivided 16 ways, bounding the relative
/// quantile error at ~6% while the whole histogram stays 8 KiB.
const SUB_BUCKETS: usize = 16;
const SUB_SHIFT: u32 = 4; // log2(SUB_BUCKETS)
const BUCKETS: usize = SUB_BUCKETS * 64;

/// A log-bucket histogram of virtual-time latencies: fixed memory for
/// any value range, deterministic, with percentile accessors. Built for
/// the open-loop scaling scenarios (a million recorded round trips cost
/// one array index each), replacing ad-hoc sort-the-samples percentile
/// math.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize; // exact below one full octave of minors
        }
        let octave = 63 - ns.leading_zeros(); // ns in [2^octave, 2^(octave+1))
        let minor = (ns >> (octave - SUB_SHIFT)) as usize & (SUB_BUCKETS - 1);
        (octave as usize) * SUB_BUCKETS + minor
    }

    /// The midpoint of a bucket's value range (what quantiles report).
    fn bucket_mid(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let octave = (index / SUB_BUCKETS) as u32;
        let minor = (index % SUB_BUCKETS) as u64;
        let step = 1u64 << (octave - SUB_SHIFT);
        let low = (1u64 << octave) + minor * step;
        low + step / 2
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        let ns = latency.as_nanos();
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> SimTime {
        SimTime::from_nanos(self.max)
    }

    /// The latency at quantile `q` in `[0, 1]` (bucket midpoint, ~6%
    /// relative resolution). Zero when empty.
    pub fn quantile(&self, q: f64) -> SimTime {
        if self.total == 0 {
            return SimTime::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimTime::from_nanos(Self::bucket_mid(i).min(self.max));
            }
        }
        SimTime::from_nanos(self.max)
    }

    /// Median latency.
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> SimTime {
        self.quantile(0.999)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

/// Wire-path allocation/copy profile of a measured client (from its
/// accumulated [`OpCounts`]): the paper's copy-elimination story in two
/// numbers — bytes that still move (the irreducible data) and heap
/// allocations (zero per call on the pooled zero-copy lane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes copied between argument memory and wire buffers.
    pub bytes_copied: u64,
    /// Wire-path heap allocations (pool misses + buffer/array growth).
    pub heap_allocs: u64,
    /// Calls the counters cover.
    pub calls: u64,
    /// Wire-buffer pool counters, when the deployment shares one
    /// [`specrpc_rpc::BufPool`]. Overflow drops are the misconfiguration
    /// signal: a cap smaller than the in-flight buffer count drops
    /// returns, and every drop resurfaces later as an allocating miss.
    pub pool: Option<PoolStats>,
    /// Link receive-queue accounting ([`Network::link_stats`]) under the
    /// bounded drop-tail model: deliveries the wire discarded at full
    /// queues, plus the deepest queue observed. Nonzero drops mean the
    /// offered load exceeded what the receive queues could absorb —
    /// every drop resurfaces as a client retransmission.
    ///
    /// [`Network::link_stats`]: specrpc_netsim::Network::link_stats
    pub link: Option<LinkStats>,
}

/// Availability profile of a chaos run: how the deployment behaved
/// while the fault schedule crashed, restarted, and partitioned its
/// endpoints. Availability is carried in basis points (1/100 of a
/// percent) so the summary stays `Eq` and renders byte-identically
/// across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Calls attempted over the run.
    pub calls: u64,
    /// Calls that completed within the scenario's deadline.
    pub within_deadline: u64,
    /// Calls that errored outright (timed out, gave up, or were refused
    /// fast by open circuit breakers).
    pub failed: u64,
    /// `within_deadline / calls` in basis points (9_967 = 99.67%).
    pub availability_bp: u32,
    /// Virtual time from the primary's crash to the next completed
    /// call, when one completed after the crash at all.
    pub recovery: Option<SimTime>,
    /// Handler executions beyond one per completed call — the
    /// exactly-once → at-least-once erosion a restart's duplicate-cache
    /// amnesia (and failover re-sends) cause.
    pub extra_executions: u64,
    /// Times clients retargeted to a backup replica.
    pub failovers: u64,
    /// Circuit-breaker open transitions across all clients.
    pub breaker_trips: u64,
    /// Total endpoint downtime the chaos schedule inflicted.
    pub downtime: SimTime,
}

/// What specialization eliminated, in the paper's vocabulary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// §3.1 — encode/decode dispatches eliminated (`x_op` switches in
    /// `xdr_long` and the `XDR_PUTLONG`/`XDR_GETLONG` vtable selections).
    pub dispatches_eliminated: u64,
    /// §3.2 — buffer-overflow checks eliminated (`x_handy` tests in
    /// `xdrmem_putlong`/`xdrmem_getlong`).
    pub overflow_checks_eliminated: u64,
    /// §3.3 — exit-status tests folded via static returns (the
    /// `if (!xdr_…) return FALSE` chains in stubs and header marshalers).
    pub status_tests_folded: u64,
    /// Micro-layer calls unfolded (inlined) into the residual.
    pub calls_unfolded: u64,
    /// Loop iterations unrolled.
    pub loop_iters_unrolled: u64,
    /// Dynamic guards kept in the residual (reply validation, §6.2
    /// `inlen`).
    pub dynamic_guards: u64,
    /// Residual statement count.
    pub residual_stmts: usize,
    /// Stub-cache effectiveness, when the stubs came through a
    /// [`crate::cache::StubCache`].
    pub cache: Option<CacheStats>,
    /// Events executed per reactor worker, when the deployment had
    /// workers ([`Summary::with_served`]).
    pub events: Option<Vec<u64>>,
    /// Events processed per shard of the reactor
    /// ([`Summary::with_served`]).
    pub shards: Option<Vec<u64>>,
    /// Virtual-time latency distribution, when the deployment recorded
    /// one (the open-loop scaling scenarios).
    pub latency: Option<LatencyHistogram>,
    /// Wire-path bytes-copied / allocs-per-call profile, when measured.
    pub wire: Option<WireStats>,
    /// Availability-under-faults profile, when the deployment ran under
    /// a chaos schedule ([`crate::run_chaos`]).
    pub chaos: Option<ChaosSummary>,
}

impl Summary {
    /// Classify a raw report.
    pub fn from_report(r: &SpecReport) -> Summary {
        let dispatches =
            r.folds_in("xdr_long") + r.folds_in("XDR_PUTLONG") + r.folds_in("XDR_GETLONG");
        let overflow = r.folds_in("xdrmem_putlong") + r.folds_in("xdrmem_getlong");
        let status = r.static_ifs_folded - dispatches - overflow;
        Summary {
            dispatches_eliminated: dispatches,
            overflow_checks_eliminated: overflow,
            status_tests_folded: status,
            calls_unfolded: r.calls_unfolded,
            loop_iters_unrolled: r.loop_iters_unrolled,
            dynamic_guards: r.dynamic_ifs_residualized,
            residual_stmts: r.residual_stmts,
            cache: None,
            events: None,
            shards: None,
            latency: None,
            wire: None,
            chaos: None,
        }
    }

    /// Attach stub-cache counters (how many Tempo runs the cache saved).
    pub fn with_cache(mut self, stats: CacheStats) -> Summary {
        self.cache = Some(stats);
        self
    }

    /// Attach a reactor deployment's event counts
    /// ([`crate::service::EventService::per_shard_events`] /
    /// [`crate::service::EventService::per_worker_events`]): the shard
    /// map line, and the event loop line when there were workers.
    pub fn with_served(mut self, per_shard: Vec<u64>, per_worker: Vec<u64>) -> Summary {
        self.shards = Some(per_shard);
        self.events = (!per_worker.is_empty()).then_some(per_worker);
        self
    }

    /// Attach a virtual-time latency distribution (p50/p99/p999 lines in
    /// the report).
    pub fn with_latency(mut self, hist: LatencyHistogram) -> Summary {
        self.latency = Some(hist);
        self
    }

    /// Attach a client's wire-path profile: `counts` accumulated over
    /// `calls` calls (e.g. `SpecClient::counts` / `SpecClient::calls`),
    /// plus — when the deployment shares a wire-buffer pool — that
    /// pool's counters so cap misconfiguration (overflow drops) is
    /// visible next to the allocs-per-call number it inflates, and —
    /// when the network ran with bounded drop-tail receive queues — the
    /// link's queue-drop / high-water accounting
    /// (`Network::link_stats`).
    pub fn with_wire(
        mut self,
        counts: OpCounts,
        calls: u64,
        pool: Option<PoolStats>,
        link: Option<LinkStats>,
    ) -> Summary {
        self.wire = Some(WireStats {
            bytes_copied: counts.mem_moves,
            heap_allocs: counts.heap_allocs,
            calls,
            pool,
            link,
        });
        self
    }

    /// Attach an availability-under-faults profile from a chaos run
    /// ([`crate::run_chaos`]): deadline-availability in basis points,
    /// crash-recovery time, duplicate handler executions, and the
    /// failover/breaker activity that kept the deployment serving.
    pub fn with_chaos(mut self, stats: ChaosSummary) -> Summary {
        self.chaos = Some(stats);
        self
    }

    /// Render as the report block examples print.
    pub fn render(&self) -> String {
        let mut text = format!(
            "  §3.1 dispatches eliminated:     {}\n\
             \u{20} §3.2 overflow checks removed:   {}\n\
             \u{20} §3.3 status tests folded:       {}\n\
             \u{20} calls unfolded (inlined):       {}\n\
             \u{20} loop iterations unrolled:       {}\n\
             \u{20} dynamic guards kept (§3.4):     {}\n\
             \u{20} residual statements:            {}",
            self.dispatches_eliminated,
            self.overflow_checks_eliminated,
            self.status_tests_folded,
            self.calls_unfolded,
            self.loop_iters_unrolled,
            self.dynamic_guards,
            self.residual_stmts,
        );
        if let Some(c) = self.cache {
            text.push_str(&format!(
                "\n\u{20} stub cache:                     {} hit(s), {} miss(es), {} entr{}",
                c.hits,
                c.misses,
                c.entries,
                if c.entries == 1 { "y" } else { "ies" },
            ));
            if c.evictions > 0 {
                text.push_str(&format!(", {} evicted", c.evictions));
            }
            if c.compile_ns_total > 0 {
                text.push_str(&format!(
                    "\n\u{20} compile cost:                   {} total (modeled)",
                    SimTime::from_nanos(c.compile_ns_total),
                ));
            }
        }
        for (label, unit, counts) in [
            ("event loop:", "worker", &self.events),
            ("shard map:", "shard", &self.shards),
        ] {
            if let Some(c) = counts {
                let per: Vec<String> = c.iter().map(u64::to_string).collect();
                text.push_str(&format!(
                    "\n\u{20} {label:<32}{} event(s) across {} {unit}(s) [{}]",
                    c.iter().sum::<u64>(),
                    c.len(),
                    per.join(", "),
                ));
            }
        }
        if let Some(l) = &self.latency {
            text.push_str(&format!(
                "\n\u{20} latency (virtual time):         p50 {}, p99 {}, p999 {}, max {} over {} sample(s)",
                l.p50(),
                l.p99(),
                l.p999(),
                l.max(),
                l.count(),
            ));
        }
        if let Some(w) = self.wire {
            let per_call = w.heap_allocs as f64 / w.calls.max(1) as f64;
            text.push_str(&format!(
                "\n\u{20} wire path:                      {} B copied, {} alloc(s) over {} call(s) ({per_call:.2} allocs/call)",
                w.bytes_copied, w.heap_allocs, w.calls,
            ));
            if let Some(p) = w.pool {
                text.push_str(&format!(
                    "\n\u{20} buffer pool:                    {} hit(s), {} miss(es), {} overflow drop(s)",
                    p.hits, p.misses, p.overflow_drops,
                ));
            }
            if let Some(l) = w.link {
                text.push_str(&format!(
                    "\n\u{20} link queues:                    {} drop(s), depth high-water {}",
                    l.queue_drops, l.queue_depth_high_water,
                ));
                text.push_str(&format!(
                    "\n\u{20} link packets:                   {} datagram(s) in {} wire fragment(s)",
                    l.datagrams, l.fragments,
                ));
            }
        }
        if let Some(c) = self.chaos {
            text.push_str(&format!(
                "\n\u{20} chaos availability:             {}.{:02}% ({}/{} within deadline, {} failed)",
                c.availability_bp / 100,
                c.availability_bp % 100,
                c.within_deadline,
                c.calls,
                c.failed,
            ));
            match c.recovery {
                Some(r) => text.push_str(&format!(
                    "\n\u{20} crash recovery:                 {r} after the crash, downtime {}",
                    c.downtime,
                )),
                None => text.push_str(&format!(
                    "\n\u{20} crash recovery:                 never recovered, downtime {}",
                    c.downtime,
                )),
            }
            text.push_str(&format!(
                "\n\u{20} at-least-once erosion:          {} duplicate execution(s), {} failover(s), {} breaker trip(s)",
                c.extra_executions, c.failovers, c.breaker_trips,
            ));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::build_echo_proc;

    #[test]
    fn echo_encode_summary_has_all_categories() {
        let n = 100;
        let proc_ = build_echo_proc(n, None).unwrap();
        let s = Summary::from_report(&proc_.client_encode.report);
        // One dispatch chain per element plus the ten header words.
        assert!(s.dispatches_eliminated >= (n as u64) * 2, "{s:?}");
        assert!(s.overflow_checks_eliminated >= n as u64 + 10, "{s:?}");
        assert!(s.status_tests_folded >= n as u64, "{s:?}");
        assert!(s.calls_unfolded >= (n as u64) * 4, "{s:?}");
        assert_eq!(s.loop_iters_unrolled, n as u64);
        assert_eq!(s.dynamic_guards, 0, "encode side has no dynamic guards");
    }

    #[test]
    fn echo_decode_summary_keeps_guards() {
        let proc_ = build_echo_proc(10, None).unwrap();
        let s = Summary::from_report(&proc_.client_decode.report);
        // inlen guard + mtype/stat/verf/astat checks + array length guard.
        assert!(s.dynamic_guards >= 5, "{s:?}");
    }

    #[test]
    fn render_mentions_sections() {
        let s = Summary {
            dispatches_eliminated: 7,
            ..Default::default()
        };
        let text = s.render();
        assert!(text.contains("§3.1"));
        assert!(text.contains('7'));
        assert!(!text.contains("stub cache"), "no cache line without stats");
    }

    #[test]
    fn render_includes_cache_stats_when_attached() {
        let s = Summary::default().with_cache(crate::cache::CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            evictions: 0,
            ..Default::default()
        });
        let text = s.render();
        assert!(text.contains("stub cache"));
        assert!(text.contains("3 hit(s), 1 miss(es), 1 entry"));
        assert!(!text.contains("event loop"), "no event line without stats");
    }

    #[test]
    fn render_includes_per_thread_dispatches_when_attached() {
        // Workers on several shards: both breakdowns of one deployment.
        let s = Summary::default().with_served(vec![9, 6], vec![4, 3, 5, 0]);
        let text = s.render();
        assert!(text.contains("12 event(s) across 4 worker(s) [4, 3, 5, 0]"));
        assert!(text.contains("15 event(s) across 2 shard(s) [9, 6]"));
        assert!(!text.contains("wire path"), "no wire line without stats");
    }

    #[test]
    fn render_includes_event_loop_throughput_when_attached() {
        let s = Summary::default().with_served(vec![20], vec![7, 9]);
        let text = s.render();
        assert!(text
            .contains("\n  event loop:                     16 event(s) across 2 worker(s) [7, 9]"));
        assert!(
            text.contains("\n  shard map:                      20 event(s) across 1 shard(s) [20]")
        );
    }

    #[test]
    fn render_includes_chaos_lines_when_attached() {
        let s = Summary::default().with_chaos(ChaosSummary {
            calls: 96,
            within_deadline: 95,
            failed: 0,
            availability_bp: 9_895,
            recovery: Some(SimTime::from_millis(6)),
            extra_executions: 1,
            failovers: 1,
            breaker_trips: 2,
            downtime: SimTime::from_millis(30),
        });
        let text = s.render();
        assert!(text.contains("chaos availability"));
        assert!(text.contains("98.95% (95/96 within deadline, 0 failed)"));
        assert!(text.contains("6.000ms after the crash"), "{text}");
        assert!(text.contains("1 duplicate execution(s), 1 failover(s), 2 breaker trip(s)"));

        let never = Summary::default().with_chaos(ChaosSummary::default());
        assert!(never.render().contains("never recovered"));
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_octaves() {
        let mut h = LatencyHistogram::new();
        // 10_000 samples at ~100µs, 90 at ~1ms, 10 at ~10ms: p50 and p99
        // land in the 100µs mass, p999 in the 1ms tail.
        for _ in 0..10_000 {
            h.record(SimTime::from_micros(100));
        }
        for _ in 0..90 {
            h.record(SimTime::from_millis(1));
        }
        for _ in 0..10 {
            h.record(SimTime::from_millis(10));
        }
        assert_eq!(h.count(), 10_100);
        let (p50, p99, p999) = (h.p50(), h.p99(), h.p999());
        // Log-bucket resolution: within ~6% of the true value.
        let near = |got: SimTime, want_ns: u64| {
            let g = got.as_nanos() as f64;
            let w = want_ns as f64;
            (g - w).abs() / w < 0.07
        };
        assert!(near(p50, 100_000), "p50 {p50}");
        assert!(near(p99, 100_000), "p99 {p99}");
        assert!(near(p999, 1_000_000), "p999 {p999}");
        assert_eq!(h.max(), SimTime::from_millis(10), "max is exact");
        assert_eq!(h.quantile(1.0), SimTime::from_millis(10));
    }

    #[test]
    fn histogram_is_deterministic_and_mergeable() {
        let build = || {
            let mut h = LatencyHistogram::new();
            for i in 0..10_000u64 {
                h.record(SimTime::from_nanos(50_000 + i * 37));
            }
            h
        };
        assert_eq!(build(), build(), "same samples, same histogram");
        let mut merged = build();
        merged.merge(&build());
        assert_eq!(merged.count(), 20_000);
        assert_eq!(
            merged.p50(),
            build().p50(),
            "merge of equals keeps quantiles"
        );
    }

    #[test]
    fn histogram_handles_empty_and_tiny_values() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), SimTime::ZERO);
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_nanos(3));
        assert_eq!(h.p50(), SimTime::from_nanos(3), "sub-octave values exact");
    }

    #[test]
    fn render_includes_shard_and_latency_lines_when_attached() {
        let mut hist = LatencyHistogram::new();
        hist.record(SimTime::from_micros(120));
        let text = Summary::default()
            .with_served(vec![5, 6, 7, 8], Vec::new())
            .with_latency(hist)
            .render();
        assert!(text.contains("shard map"));
        assert!(!text.contains("event loop"), "no workers, no worker line");
        assert!(text.contains("26 event(s) across 4 shard(s) [5, 6, 7, 8]"));
        assert!(text.contains("latency (virtual time)"));
        assert!(text.contains("p999"));
    }

    #[test]
    fn render_mentions_cache_evictions_only_when_nonzero() {
        let evicting = Summary::default().with_cache(crate::cache::CacheStats {
            hits: 1,
            misses: 4,
            entries: 2,
            evictions: 2,
            ..Default::default()
        });
        assert!(evicting.render().contains("2 evicted"));
    }

    #[test]
    fn render_prices_the_cache_compile_cost_when_measured() {
        let s = Summary::default().with_cache(crate::cache::CacheStats {
            hits: 2,
            misses: 2,
            entries: 2,
            evictions: 0,
            compile_ns_total: 8_000_000,
        });
        let text = s.render();
        assert!(text.contains("compile cost"), "{text}");
        assert!(text.contains("8.000ms"), "{text}");
    }

    #[test]
    fn render_includes_wire_profile_when_attached() {
        let mut counts = specrpc_xdr::OpCounts::new();
        counts.mem_moves = 32_000;
        counts.heap_allocs = 2;
        let s = Summary::default().with_wire(counts, 4, None, None);
        let text = s.render();
        assert!(text.contains("wire path"));
        assert!(text.contains("32000 B copied, 2 alloc(s) over 4 call(s) (0.50 allocs/call)"));
        assert!(!text.contains("buffer pool"), "no pool line without stats");
        assert!(!text.contains("link queues"), "no link line without stats");
    }

    #[test]
    fn render_surfaces_link_queue_drops() {
        let counts = specrpc_xdr::OpCounts::new();
        let link = LinkStats {
            queue_drops: 42,
            queue_depth_high_water: 9,
            datagrams: 120,
            fragments: 130,
        };
        let text = Summary::default()
            .with_wire(counts, 10, None, Some(link))
            .render();
        assert!(text.contains("link queues"));
        assert!(text.contains("42 drop(s), depth high-water 9"));
        assert!(text.contains("120 datagram(s) in 130 wire fragment(s)"));
    }

    #[test]
    fn render_surfaces_pool_overflow_drops() {
        let counts = specrpc_xdr::OpCounts::new();
        let pool = specrpc_rpc::PoolStats {
            hits: 100,
            misses: 3,
            recycled: 90,
            overflow_drops: 13,
        };
        let text = Summary::default()
            .with_wire(counts, 10, Some(pool), None)
            .render();
        assert!(text.contains("buffer pool"));
        assert!(text.contains("100 hit(s), 3 miss(es), 13 overflow drop(s)"));
    }
}

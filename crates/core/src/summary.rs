//! Mapping specializer statistics onto the paper's §3 categories, plus
//! the latency histogram the study reports record into and the line
//! formats their renders share.

use specrpc_netsim::{LinkStats, SimTime};
use specrpc_tempo::spec::SpecReport;

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
        }
    }

    /// Render as the report block examples print.
    pub fn render(&self) -> String {
        format!(
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
        )
    }
}

/// The latency line of a study report's render (no trailing newline).
pub(crate) fn latency_line(l: &LatencyHistogram) -> String {
    format!(
        "  latency (virtual time):         p50 {}, p99 {}, p999 {}, max {} over {} sample(s)",
        l.p50(),
        l.p99(),
        l.p999(),
        l.max(),
        l.count(),
    )
}

/// The two link lines of a study report's render: drop-tail queue
/// accounting, then datagrams against wire fragments.
pub(crate) fn link_lines(l: &LinkStats) -> String {
    format!(
        "  link queues:                    {} drop(s), depth high-water {}\n\
         \u{20} link packets:                   {} datagram(s) in {} wire fragment(s)",
        l.queue_drops, l.queue_depth_high_water, l.datagrams, l.fragments,
    )
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
        assert!(!text.contains("stub cache"), "no cache line");
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
    fn histogram_is_deterministic() {
        let build = || {
            let mut h = LatencyHistogram::new();
            for i in 0..10_000u64 {
                h.record(SimTime::from_nanos(50_000 + i * 37));
            }
            h
        };
        assert_eq!(build(), build(), "same samples, same histogram");
    }

    #[test]
    fn histogram_handles_empty_and_tiny_values() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), SimTime::ZERO);
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_nanos(3));
        assert_eq!(h.p50(), SimTime::from_nanos(3), "sub-octave values exact");
    }

    /// Each study report renders its own measurements and no `Summary`
    /// block: no §3 line (nothing was specialized in the run) and no
    /// wire-path line (nothing measured it).
    #[test]
    fn study_reports_render_only_what_they_measured() {
        use crate::{
            run_chaos, run_congestion, run_nfs, run_scale, ChaosConfig, CongestionConfig,
            NfsConfig, ScaleConfig,
        };
        let reports = [
            (
                "scale",
                run_scale(&ScaleConfig::smoke()).unwrap().render(),
                &["latency (virtual time):", "link queues:", "shard map:"][..],
            ),
            (
                "nfs",
                run_nfs(&NfsConfig::smoke()).unwrap().render(),
                &["latency (virtual time):", "link queues:", "link packets:"],
            ),
            (
                "congestion",
                run_congestion(&CongestionConfig::smoke()).unwrap().render(),
                &["latency (virtual time):", "link queues:", "link packets:"],
            ),
            (
                "chaos",
                run_chaos(&ChaosConfig::smoke()).unwrap().render(),
                &[
                    "latency (virtual time):",
                    "chaos availability:",
                    "crash recovery:",
                ],
            ),
        ];
        for (study, text, measured) in reports {
            for line in text.lines() {
                let line = line.trim_start();
                assert!(!line.starts_with("§3"), "{study}: {line}");
                assert!(!line.contains("wire path:"), "{study}: {line}");
            }
            assert!(!text.starts_with('\n'), "{study} opens with a blank line");
            for label in measured {
                let found = text.lines().any(|l| l.trim_start().starts_with(label));
                assert!(found, "{study} lacks {label}:\n{text}");
            }
        }
    }
}

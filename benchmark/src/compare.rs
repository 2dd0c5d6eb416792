//! `compare A.json B.json`: one row per workload × end-to-end metric,
//! judged by the bounds in [`crate::metrics::END_TO_END`].

use crate::metrics::{Better, EndToEnd, Report, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Within the bound, but the rounds of one side spread wider than the
    /// bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

impl Row {
    /// `new ÷ base`, the base being what the ratio is of.
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }
}

/// Whether one side's rounds spread (`max − min`) wider than the metric's
/// bound around their median — and wider than its absolute floor, below
/// which a difference does not count either way.
fn noisy(spec: &EndToEnd, rounds: &[f64]) -> bool {
    if rounds.len() < 2 {
        return false;
    }
    let max = rounds.iter().copied().fold(f64::MIN, f64::max);
    let min = rounds.iter().copied().fold(f64::MAX, f64::min);
    let width = max - min;
    width > spec.bound * crate::stats::median(rounds) && width > spec.abs_floor
}

fn rounds_of<'a>(report: &'a Report, metric: &str) -> &'a [f64] {
    report
        .rounds
        .iter()
        .find(|(n, _)| n == metric)
        .map_or(&[], |(_, v)| v.as_slice())
}

/// Judge one metric of one workload.
///
/// An exact metric (virtual time, counts) of two runs with one seed must
/// not be worse at all. Otherwise the metric regressed when it is worse
/// by more than its relative bound *and* by more than its absolute floor.
/// A wall-clock metric inside its bound is still only `unresolved` when
/// either side's rounds spread wider than the bound — unless every round
/// of `new` beats every round of `base`.
pub fn judge(spec: &EndToEnd, base: &Report, new: &Report) -> Option<Verdict> {
    let (b, n) = (base.get(spec.name)?, new.get(spec.name)?);
    let worse_by = match spec.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    if spec.exact && base.seed == new.seed {
        return Some(if worse_by > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        });
    }
    if worse_by > spec.bound * b.abs() && worse_by > spec.abs_floor {
        return Some(Verdict::Regressed);
    }
    let (b_rounds, n_rounds) = (rounds_of(base, spec.name), rounds_of(new, spec.name));
    let noisy = noisy(spec, b_rounds) || noisy(spec, n_rounds);
    let dominates = !b_rounds.is_empty()
        && !n_rounds.is_empty()
        && n_rounds.iter().all(|n| {
            b_rounds.iter().all(|b| match spec.better {
                Better::Lower => n < b,
                Better::Higher => n > b,
            })
        });
    Some(if noisy && !dominates {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    })
}

/// The outcome of comparing two result sets.
#[derive(Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose `failed_share` grew, or that one side lacks.
    pub problems: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<18}{:<18}{:>16}{:>16}{:>9}  {}\n",
            "workload", "metric", "base", "new", "new/base", "verdict"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18}{:<18}{:>16.4}{:>16.4}{:>9.4}  {} [{}]\n",
                r.workload,
                r.metric,
                r.base,
                r.new,
                r.ratio(),
                r.verdict.as_str(),
                r.unit,
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out
    }
}

/// Compare the untraced reports of two result sets, workload by workload.
pub fn compare(base: &[Report], new: &[Report]) -> Comparison {
    let mut out = Comparison::default();
    for b in base.iter().filter(|r| !r.traced) {
        let Some(n) = new.iter().find(|r| !r.traced && r.workload == b.workload) else {
            out.problems
                .push(format!("{}: missing from the new results", b.workload));
            continue;
        };
        if n.failed_share() > b.failed_share() {
            out.problems.push(format!(
                "{}: failed_share grew from {} to {}",
                b.workload,
                b.failed_share(),
                n.failed_share()
            ));
        }
        for spec in &END_TO_END {
            match judge(spec, b, n) {
                Some(verdict) => out.rows.push(Row {
                    workload: b.workload.clone(),
                    metric: spec.name,
                    unit: spec.unit,
                    base: b.get(spec.name).expect("judged"),
                    new: n.get(spec.name).expect("judged"),
                    verdict,
                }),
                None => out
                    .problems
                    .push(format!("{}: {} missing on one side", b.workload, spec.name)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn report(seed: u64, metric: &str, value: f64, rounds: &[f64]) -> Report {
        Report {
            workload: "echo20_udp".into(),
            seed,
            traced: false,
            attempted: 100,
            failed: 0,
            metrics: vec![(metric.into(), value)],
            rounds: vec![(metric.into(), rounds.to_vec())],
        }
    }

    #[test]
    fn throughput_regresses_only_past_its_bound() {
        let m = spec("calls_per_s");
        let base = report(1, m.name, 1000.0, &[990.0, 1000.0, 1010.0]);
        let slower = |v: f64| report(1, m.name, v, &[v - 5.0, v, v + 5.0]);
        let edge = 1000.0 * (1.0 - m.bound);
        assert_eq!(judge(m, &base, &slower(edge + 1.0)), Some(Verdict::Ok));
        assert_eq!(
            judge(m, &base, &slower(edge - 1.0)),
            Some(Verdict::Regressed)
        );
        // Higher is better: faster is never a regression.
        assert_eq!(judge(m, &base, &slower(2000.0)), Some(Verdict::Ok));
    }

    #[test]
    fn noisy_rounds_leave_a_metric_unresolved() {
        let m = spec("calls_per_s");
        // Rounds a bound either side of the median: twice the bound wide.
        let (low, high) = (1000.0 * (1.0 - m.bound), 1000.0 * (1.0 + m.bound));
        let base = report(1, m.name, 1000.0, &[low, 1000.0, high]);
        let same = report(1, m.name, 1000.0, &[995.0, 1000.0, 1005.0]);
        assert_eq!(judge(m, &base, &same), Some(Verdict::Unresolved));
        // … unless every new round beats every base round.
        let faster = report(1, m.name, high + 50.0, &[high + 10.0, high + 50.0]);
        assert_eq!(judge(m, &base, &faster), Some(Verdict::Ok));
    }

    #[test]
    fn exact_metrics_compare_exactly_on_one_seed() {
        let m = spec("virt_us_per_call");
        let base = report(42, m.name, 391.28, &[]);
        assert_eq!(
            judge(m, &base, &report(42, m.name, 391.28, &[])),
            Some(Verdict::Ok)
        );
        assert_eq!(
            judge(m, &base, &report(42, m.name, 391.29, &[])),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            judge(m, &base, &report(42, m.name, 380.0, &[])),
            Some(Verdict::Ok)
        );
        // Across seeds the inputs differ, so only the relative bound holds.
        assert_eq!(
            judge(m, &base, &report(7, m.name, 391.29, &[])),
            Some(Verdict::Ok)
        );
    }

    #[test]
    fn setup_needs_both_its_bounds_exceeded() {
        let m = spec("setup_s");
        // +50% but only 2 ms: under the absolute floor.
        let base = report(1, m.name, 0.004, &[0.004]);
        assert_eq!(
            judge(m, &base, &report(1, m.name, 0.006, &[0.006])),
            Some(Verdict::Ok)
        );
        // +30 ms but only 10%: under the relative bound.
        let base = report(1, m.name, 0.300, &[0.300]);
        assert_eq!(
            judge(m, &base, &report(1, m.name, 0.330, &[0.330])),
            Some(Verdict::Ok)
        );
        // +50% and +150 ms: both exceeded.
        assert_eq!(
            judge(m, &base, &report(1, m.name, 0.450, &[0.450])),
            Some(Verdict::Regressed)
        );
        // Rounds of a 5 ms set-up spread 40% but only 2 ms: not noise
        // that could hide a regression of 20 ms.
        let jittery = report(1, m.name, 0.005, &[0.004, 0.005, 0.006]);
        assert_eq!(judge(m, &jittery, &jittery), Some(Verdict::Ok));
    }

    #[test]
    fn a_grown_failed_share_or_a_missing_workload_fails_the_comparison() {
        let base = vec![report(1, "calls_per_s", 1000.0, &[1000.0])];
        let mut worse = base.clone();
        worse[0].failed = 1;
        let c = compare(&base, &worse);
        assert!(!c.passed());
        assert!(c.problems.iter().any(|p| p.contains("failed_share grew")));
        assert!(!compare(&base, &[]).passed());
        // Identical sets pass (metrics absent on both sides are problems,
        // so give the comparison every end-to-end metric).
        let mut full = base[0].clone();
        full.metrics = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 1.0))
            .collect();
        let c = compare(&[full.clone()], &[full]);
        assert!(c.passed(), "{}", c.render());
        assert_eq!(c.rows.len(), END_TO_END.len());
    }
}

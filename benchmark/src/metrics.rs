//! The named metrics — the one table `BENCHMARK.json`, the README and
//! every later performance or simplicity claim refer to — and the
//! [`Report`] a measured workload is written and read back as.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: measured untraced, reported for every workload,
/// gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may get worse before
    /// it counts as a regression.
    pub bound: f64,
    /// The metric must *also* get worse by more than this absolute amount
    /// (0 = no absolute floor). Only `setup_s` has one: a quarter of a
    /// 4 ms set-up is scheduler noise, not a regression.
    pub abs_floor: f64,
    /// A pure function of (code, seed): virtual time and counts. Two runs
    /// with one seed must agree to the last digit; the relative `bound`
    /// only covers comparisons across seeds.
    pub exact: bool,
}

/// A metric of one layer: measured in the traced run, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Virtual (simulated) microseconds. Deliberately not spelled `us`: the
/// value is a deterministic output of the simulator, not a wall-clock
/// reading, and reads the same on every run of one seed.
pub const VIRT_US: &str = "us_virt";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "calls_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
        exact: false,
    },
    EndToEnd {
        name: "virt_us_per_call",
        unit: VIRT_US,
        better: Better::Lower,
        bound: 0.05,
        abs_floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "virt_p99_us",
        unit: VIRT_US,
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.02,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        exact: false,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The probe ladder's metrics, grouped by layer (= crate name). README.md
/// states, for each, which end-to-end metric it should move on which
/// workload.
pub const PER_LAYER: [PerLayer; 51] = [
    layer("tempo.client_encode_ns", "ns", Lower),
    layer("tempo.client_decode_ns", "ns", Lower),
    layer("tempo.server_decode_ns", "ns", Lower),
    layer("tempo.server_encode_ns", "ns", Lower),
    layer("tempo.specialize_ms", "ms", Lower),
    layer("rpcgen.parse_us", "us", Lower),
    layer("xdr.generic_encode_ns", "ns", Lower),
    layer("xdr.generic_decode_ns", "ns", Lower),
    layer("xdr.wirebuf_reset_ns", "ns", Lower),
    layer("netsim.datagram_rt_ns", "ns", Lower),
    layer("netsim.allocs_per_datagram_rt", "count", Lower),
    layer("netsim.virt_datagram_rt_us", VIRT_US, Lower),
    layer("netsim.stream_rt_ns", "ns", Lower),
    layer("netsim.bind_ns", "ns", Lower),
    layer("netsim.datagrams_per_call", "count", Lower),
    layer("netsim.fragments_per_call", "count", Lower),
    layer("netsim.wire_bytes_per_call", "B", Lower),
    layer("netsim.queue_drops", "count", Lower),
    layer("netsim.queue_depth_high_water", "count", Lower),
    layer("rpc.dispatch_ns", "ns", Lower),
    layer("rpc.dispatch_self_ns", "ns", Lower),
    layer("rpc.allocs_per_dispatch", "count", Lower),
    layer("rpc.raw_dispatch_share", "ratio", Higher),
    layer("rpc.transport_call_ns", "ns", Lower),
    layer("rpc.transport_self_ns", "ns", Lower),
    layer("rpc.allocs_per_transport_call", "count", Lower),
    layer("rpc.retransmits_per_call", "count", Lower),
    layer("rpc.handler_runs_per_call", "count", Lower),
    layer("rpc.sync_small_call_ns", "ns", Lower),
    layer("rpc.oneway_burst_ns_per_op", "ns", Lower),
    layer("rpc.oneways_per_envelope", "count", Higher),
    layer("rpc.flush_sync_share", "ratio", Higher),
    layer("rpc.pool_miss_share", "ratio", Lower),
    layer("rpc.pool_overflow_drops", "count", Lower),
    layer("rpc.shard_imbalance", "ratio", Lower),
    layer("rpc.cross_shard_steals", "count", Lower),
    layer("rpc.reactor_threaded_calls_per_s", "ops/s", Higher),
    layer("rpc.reactor_worker_share", "ratio", Higher),
    layer("core.call_ns", "ns", Lower),
    layer("core.client_stub_self_ns", "ns", Lower),
    layer("core.fast_path_share", "ratio", Higher),
    layer("core.allocs_per_call", "count", Lower),
    layer("core.alloc_bytes_per_call", "B", Lower),
    layer("core.call_p50_ns", "ns", Lower),
    layer("core.call_p99_ns", "ns", Lower),
    layer("core.call_samples", "count", Higher),
    layer("core.failed_share", "ratio", Lower),
    layer("core.virt_p99_samples", "count", Higher),
    layer("bench.verify_ns", "ns", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.ladder_gap_share", "ratio", Lower),
];

/// The unit a metric name is reported in.
///
/// # Panics
/// Panics on a name that is in neither table: a probe inventing a metric
/// the tables (and therefore `BENCHMARK.json`) do not declare is a bug.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"))
}

/// One workload's measured numbers: what a child process hands its
/// parent, what `run` writes to the results file, and what `compare`
/// reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted in the timed slices.
    pub attempted: u64,
    /// Operations that returned `Err`, returned wrong bytes, timed out,
    /// or were left pending/unacknowledged.
    pub failed: u64,
    /// `(name, value)` in reporting order; units come from [`unit_of`].
    pub metrics: Vec<(String, f64)>,
    /// For each metric that is a median over rounds, the rounds' own
    /// values — what `compare` judges run-to-run spread from.
    pub rounds: Vec<(String, Vec<f64>)>,
}

impl Report {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn push(&mut self, name: &str, value: f64) {
        // Fail at the probe, not at the reader.
        unit_of(name);
        debug_assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        self.metrics.push((name.to_string(), value));
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `{"name": {"value": v, "unit": u}, …}` — the shape the driver
    /// contract fixes for the result line.
    fn metrics_json(metrics: impl Iterator<Item = (String, f64)>) -> Json {
        Json::Obj(
            metrics
                .map(|(name, value)| {
                    let unit = unit_of(&name);
                    (
                        name,
                        Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("traced".into(), Json::Bool(self.traced)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Self::metrics_json(self.metrics.iter().cloned()),
            ),
            (
                "rounds".into(),
                Json::Obj(
                    self.rounds
                        .iter()
                        .map(|(name, values)| {
                            let values = values.iter().map(|v| Json::Num(*v)).collect();
                            (name.clone(), Json::Arr(values))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Report, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("report lacks `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|value| (name.clone(), value))
                    .ok_or_else(|| format!("metric `{name}` has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        let rounds = field("rounds")?
            .as_obj()
            .ok_or("`rounds` is not an object")?
            .iter()
            .map(|(name, values)| {
                values
                    .as_arr()
                    .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
                    .map(|values| (name.clone(), values))
                    .ok_or_else(|| format!("rounds of `{name}` are not numbers"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Report {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: num("seed")? as u64,
            traced: field("traced")?
                .as_bool()
                .ok_or("`traced` is not a boolean")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            rounds,
        })
    }

    /// The driver contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, the metrics being every end-to-end metric of
    /// an untraced run or every per-layer metric of a traced one. A
    /// per-layer metric that does not apply to this workload has no
    /// measured value; the contract wants a number for every name, so it
    /// reads 0 here (the table above the line prints `n/a`).
    pub fn result_line(&self) -> Json {
        let names: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Self::metrics_json(
                    names
                        .into_iter()
                        .map(|n| (n.to_string(), self.get(n).unwrap_or(0.0))),
                ),
            ),
        ])
    }

    /// Human-readable table: every declared metric of this run's kind by
    /// name, value and unit (`n/a` where a layer metric does not apply).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {}): {} attempted, {} failed (failed_share {})\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed_share(),
        );
        let declared: Vec<(&str, &str, Better)> = if self.traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        };
        for (name, unit, better) in declared {
            let value = match self.get(name) {
                Some(v) => format!("{v:>18.4}"),
                None => format!("{:>18}", "n/a"),
            };
            out.push_str(&format!(
                "  {name:<36}{value} {unit:<8} ({} is better)\n",
                better.as_str()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sample(traced: bool) -> Report {
        let mut r = Report {
            workload: "echo20_udp".into(),
            seed: 42,
            traced,
            attempted: 1000,
            failed: 0,
            metrics: Vec::new(),
            rounds: Vec::new(),
        };
        if traced {
            r.push("core.call_ns", 1011.25);
        } else {
            r.push("calls_per_s", 987_654.321);
            r.push("setup_s", 0.004_321);
            r.rounds
                .push(("calls_per_s".into(), vec![9.8e5, 987_654.321, 9.9e5]));
        }
        r
    }

    #[test]
    fn report_survives_json() {
        for traced in [false, true] {
            let r = sample(traced);
            let back = Report::from_json(&Json::parse(&r.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample(false).result_line();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // A traced line names every per-layer metric, measured or not.
        let traced = sample(true).result_line();
        let metrics = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let call = traced
            .get("metrics")
            .and_then(|m| m.get("core.call_ns"))
            .unwrap();
        assert_eq!(call.get("value").and_then(Json::as_f64), Some(1011.25));
        assert_eq!(call.get("unit").and_then(Json::as_str), Some("ns"));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = sample(false);
        r.failed = 1;
        assert_eq!(
            r.result_line().get("correct").and_then(Json::as_bool),
            Some(false)
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// above from drifting apart.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let declared =
            |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let e2e = declared("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (spec, got) in END_TO_END.iter().zip(&e2e) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                got.get("better").and_then(Json::as_str),
                Some(spec.better.as_str())
            );
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = declared("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (spec, got) in PER_LAYER.iter().zip(&layers) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                got.get("better").and_then(Json::as_str),
                Some(spec.better.as_str())
            );
        }
        let workloads: Vec<String> = declared("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut seen = HashSet::new();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(unit_of(name).len() <= 16);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}

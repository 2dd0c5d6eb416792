//! The repo's one outside-in benchmark. See `README.md` for the metric
//! and workload tables; `../BENCHMARK.json` for the contract a driver
//! runs it under.
//!
//! ```text
//! specrpc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! specrpc-benchmark run [--seed N] [--seconds S] [--rounds K]
//!                       [--workload NAME] [--trace] [--out FILE]
//! specrpc-benchmark compare BASE.json NEW.json
//! ```
//!
//! The first form measures one workload and prints one JSON result object
//! as its last line. `run` measures every workload (untraced, and traced
//! with `--trace`) and writes a results file; `compare` judges two such
//! files by the bounds of the end-to-end metrics.

mod alloc;
mod compare;
mod json;
mod metrics;
mod probes;
mod stats;
mod workloads;

use json::Json;
use metrics::{Report, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fresh processes per untraced measurement: `setup_s` and `peak_rss_mb`
/// are per process, so they need several to have a median.
const DEFAULT_ROUNDS: usize = 5;
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 42;

/// Where traces and result files go: `benchmark/out/`, wherever the
/// checkout is.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    rounds: usize,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        rounds: DEFAULT_ROUNDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace 0|1` (driver form) or a bare `--trace`.
            opts.trace = match it.next_if(|v| *v == "0" || *v == "1") {
                Some(v) => v == "1",
                None => true,
            };
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
                opts.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join(", "))))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--rounds" => {
                opts.rounds = value
                    .parse()
                    .ok()
                    .filter(|r| *r > 0)
                    .ok_or_else(|| bad("a positive round count"))?
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(opts)
}

/// Run one round of `w` in a fresh process and read its report back.
fn spawn_round(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["round", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: spawning a round: {e}", w.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{}: a round exited with {}",
            w.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{}: a round printed nothing", w.name()))?;
    Json::parse(line)
        .and_then(|v| Report::from_json(&v))
        .map_err(|e| format!("{}: unreadable round report: {e}", w.name()))
}

/// Measure one workload: `rounds` fresh untraced processes sharing the
/// time budget, merged into one report — or one traced process.
///
/// Every number a round reports other than the wall-clock and memory
/// metrics is a pure function of (code, seed) and must be identical in
/// every round; a difference is nondeterminism in the stack and fails the
/// measurement, naming the workload and the metric.
fn measure(w: Workload, opts: &Opts) -> Result<Report, String> {
    if opts.trace {
        return spawn_round(w, opts.seed, opts.seconds, true);
    }
    let per_round = opts.seconds / opts.rounds as f64;
    let rounds: Vec<Report> = (0..opts.rounds)
        .map(|_| spawn_round(w, opts.seed, per_round, false))
        .collect::<Result<_, _>>()?;

    let mut merged = Report {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics: Vec::new(),
        rounds: Vec::new(),
        ..rounds[0].clone()
    };
    for (name, first) in &rounds[0].metrics {
        let values: Vec<f64> = rounds
            .iter()
            .map(|r| {
                r.get(name)
                    .ok_or(format!("{}: a round lacks {name}", w.name()))
            })
            .collect::<Result<_, _>>()?;
        let measured = END_TO_END.iter().any(|m| m.name == name && !m.exact);
        if measured {
            // Throughput is the best slice of the whole measurement,
            // whichever round it fell in (see `stats::fastest`); set-up
            // time and memory, which a process has one of, are medians
            // over the rounds.
            let value = match name.as_str() {
                "calls_per_s" => stats::fastest(&values),
                _ => stats::median(&values),
            };
            merged.push(name, value);
            merged.rounds.push((name.clone(), values));
        } else if values.iter().all(|v| v == first) {
            merged.push(name, *first);
        } else {
            return Err(format!(
                "{}: {name} differs between rounds of seed {}: {values:?}",
                w.name(),
                opts.seed
            ));
        }
    }
    Ok(merged)
}

/// The driver form: one workload, one JSON result object as the last line.
fn drive(opts: &Opts) -> Result<(), String> {
    let w = opts.workload.ok_or("--workload is required")?;
    let report = measure(w, opts)?;
    print!("{}", report.render());
    println!("{}", report.result_line());
    Ok(())
}

/// `run`: every workload (or the one named), untraced and — with
/// `--trace` — traced, printed and written to a results file.
fn run(opts: &Opts) -> Result<(), String> {
    let selected: Vec<Workload> = match opts.workload {
        Some(w) => vec![w],
        None => workloads::ALL.to_vec(),
    };
    let mut reports = Vec::new();
    for w in selected {
        let untraced = measure(
            w,
            &Opts {
                trace: false,
                ..opts.clone()
            },
        )?;
        print!("{}", untraced.render());
        reports.push(untraced);
        if opts.trace {
            let traced = measure(w, opts)?;
            print!("{}", traced.render());
            reports.push(traced);
        }
    }
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("results-seed{}.json", opts.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("rounds".into(), Json::Num(opts.rounds as f64)),
        (
            "reports".into(),
            Json::Arr(reports.iter().map(Report::to_json).collect()),
        ),
    ]);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} operation(s) failed"));
    }
    Ok(())
}

fn load_reports(path: &str) -> Result<Vec<Report>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("reports")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no `reports` array"))?
        .iter()
        .map(Report::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))
}

fn compare_files(args: &[String]) -> Result<(), String> {
    let [base, new] = args else {
        return Err("usage: compare BASE.json NEW.json".into());
    };
    let outcome = compare::compare(&load_reports(base)?, &load_reports(new)?);
    print!("{}", outcome.render());
    if outcome.passed() {
        Ok(())
    } else {
        Err("comparison failed".into())
    }
}

/// The child side of [`spawn_round`]: this process is the round.
fn round(opts: &Opts, started: Instant) -> Result<(), String> {
    let w = opts.workload.ok_or("--workload is required")?;
    let report = if opts.trace {
        let (report, spans) = probes::run_traced(w, opts.seed, opts.seconds);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", w.name()));
        std::fs::write(&path, format!("{}\n", probes::spans_json(w, &spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report
    } else {
        workloads::run_round(w, opts.seed, opts.seconds, started)
    };
    println!("{}", report.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_opts(&args[1..]).and_then(|o| run(&o)),
        Some("compare") => compare_files(&args[1..]),
        Some("round") => parse_opts(&args[1..]).and_then(|o| round(&o, started)),
        _ => parse_opts(&args).and_then(|o| drive(&o)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("specrpc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

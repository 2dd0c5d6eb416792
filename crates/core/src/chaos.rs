//! Availability study under injected faults: a replicated echo
//! deployment is driven through a [`ChaosSchedule`] that crashes the
//! primary mid-run, and the client population either rides it out with
//! the resilience layer (per-call deadlines, retry budgets, circuit
//! breakers, replica failover) or takes the outage on the chin like a
//! classic `clntudp_call` client.
//!
//! The measured quantities are the ones the paper's reliability story
//! turns on:
//!
//! - **availability** — the fraction of calls completing within the
//!   scenario deadline, in basis points so reports stay `Eq`;
//! - **recovery time** — virtual time from the crash instant to the
//!   first *subsequently issued* call that completed;
//! - **exactly-once erosion** — calls executed more than once, as the
//!   [`Invariants`] observer names them: a restarted server's
//!   duplicate-request cache comes back empty
//!   ([`specrpc_rpc::serve`]), so a retransmission of an
//!   already-executed request re-executes it, and a failover re-send
//!   executes on a second replica.
//!
//! Everything is seeded and single-driver: a fixed [`ChaosConfig`]
//! produces a byte-identical [`ChaosReport::render`] every run — the
//! fault schedule is part of the experiment, not noise.
//!
//! ```
//! use specrpc::{run_chaos_matrix, ChaosConfig};
//!
//! let reports = run_chaos_matrix(&ChaosConfig::smoke()).unwrap();
//! let (with, without) = (&reports[0], &reports[1]);
//! // The resilience layer rides out the mid-run primary crash…
//! assert!(with.availability_bp() >= 9_900);
//! // …while the classic client population measurably degrades.
//! assert!(without.availability_bp() < with.availability_bp());
//! ```
//!
//! [`Invariants`]: crate::Invariants

use crate::echo::{build_echo_proc, echo_handler, ECHO_PROG, ECHO_VERS, MAX_ARR};
use crate::invariants::Invariants;
use crate::pipeline::PipelineError;
use crate::service::SpecService;
use crate::summary::{latency_line, LatencyHistogram};
use specrpc_netsim::net::{Addr, Network, NetworkConfig};
use specrpc_netsim::{ChaosSchedule, ChaosStats, FaultConfig, SimTime};
use specrpc_rpc::{serve, CircuitBreaker, ClntUdp, ServeConfig};
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::primitives::xdr_int;
use std::sync::Arc;

/// Primary server port of the chaos scenario.
pub const CHAOS_PRIMARY: Addr = 49_000;
/// First backup replica port (`CHAOS_BACKUP_BASE + i`).
pub const CHAOS_BACKUP_BASE: Addr = 49_001;
/// First client endpoint address.
pub const CHAOS_CLIENT_BASE: Addr = 72_000;

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Client endpoints, driven round-robin (closed loop: each issues
    /// its next call when its previous one settles).
    pub clients: usize,
    /// Calls per client over the run.
    pub calls_per_client: usize,
    /// Echo array size (ints) — the datagram payload knob.
    pub payload: usize,
    /// Seed for the network fault stream.
    pub seed: u64,
    /// Backup replicas deployed beside the primary.
    pub backups: usize,
    /// Whether clients use the resilience layer (replica failover,
    /// retry budget, circuit breakers). `false` = classic client:
    /// same timeouts, primary only.
    pub failover: bool,
    /// Availability bound: a call completing later than this counts
    /// against availability even though it completed.
    pub deadline: SimTime,
    /// Per-try timeout before retransmission.
    pub retry_timeout: SimTime,
    /// Total per-call timeout (`cu_total`) — for a failover client,
    /// per replica attempt.
    pub call_timeout: SimTime,
    /// Retransmissions allowed per replica attempt before the client
    /// gives up and moves on (failover clients only).
    pub retry_budget: u32,
    /// Consecutive failures that trip a replica's circuit breaker.
    pub breaker_threshold: u32,
    /// Breaker cool-down before a half-open probe is admitted.
    pub breaker_cooldown: SimTime,
    /// Virtual instant the primary crashes.
    pub crash_at: SimTime,
    /// How long the primary stays down before its restart (which
    /// resurrects it with an **empty** duplicate-request cache).
    pub crash_downtime: SimTime,
    /// Fault model applied to every datagram on top of the schedule.
    pub faults: FaultConfig,
}

impl ChaosConfig {
    /// A mid-run primary crash with one backup: the outage spans
    /// several sequential calls, so a classic client burns a full
    /// `call_timeout` per affected call while a failover client gives
    /// up after its retry budget and completes on the backup within
    /// the deadline.
    pub fn smoke() -> ChaosConfig {
        ChaosConfig {
            clients: 8,
            calls_per_client: 24,
            payload: 16,
            seed: 7,
            backups: 1,
            failover: true,
            deadline: SimTime::from_millis(8),
            retry_timeout: SimTime::from_millis(2),
            call_timeout: SimTime::from_millis(8),
            retry_budget: 2,
            breaker_threshold: 1,
            breaker_cooldown: SimTime::from_millis(20),
            crash_at: SimTime::from_millis(4),
            crash_downtime: SimTime::from_millis(30),
            faults: FaultConfig::NONE,
        }
    }

    /// This config with the resilience layer on or off.
    pub fn with_failover(mut self, failover: bool) -> ChaosConfig {
        self.failover = failover;
        self
    }

    /// This config under the given fault model.
    pub fn with_faults(mut self, faults: FaultConfig) -> ChaosConfig {
        self.faults = faults;
        self
    }

    /// The fault schedule of this config: crash the primary at
    /// `crash_at`, restart it `crash_downtime` later.
    pub fn schedule(&self) -> ChaosSchedule {
        ChaosSchedule::new().crash_window(CHAOS_PRIMARY, self.crash_at, self.crash_downtime)
    }
}

/// Outcome of one [`run_chaos`] execution.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Whether the clients ran the resilience layer.
    pub failover: bool,
    /// Calls issued.
    pub calls: u64,
    /// Calls that completed (reply decoded), deadline or not.
    pub completed: u64,
    /// Completed calls that made the scenario deadline.
    pub within_deadline: u64,
    /// Calls that errored (timed out, gave up, or breaker-refused).
    pub failed: u64,
    /// Handler executions across every replica incarnation.
    pub handler_runs: u64,
    /// Executions of a call after its first ([`Invariants::repeats`]):
    /// amnesia re-runs on the restarted primary and replica re-runs on a
    /// backup — the exactly-once → at-least-once erosion.
    pub extra_executions: u64,
    /// Client retargetings to a backup replica.
    pub failovers: u64,
    /// Circuit-breaker open transitions across all clients.
    pub breaker_trips: u64,
    /// Retransmissions across all clients.
    pub retransmits: u64,
    /// Virtual time from the crash to the first completed call issued
    /// at or after it.
    pub recovery: Option<SimTime>,
    /// Network-level chaos accounting (crashes, restarts, datagrams
    /// dropped at down endpoints, total downtime).
    pub chaos: ChaosStats,
    /// Virtual time when the run (schedule included) finished.
    pub elapsed: SimTime,
    /// Completion latency distribution (issue → reply decoded).
    pub latency: LatencyHistogram,
}

impl ChaosReport {
    /// `within_deadline / calls` in basis points (9_967 = 99.67%).
    pub fn availability_bp(&self) -> u32 {
        (self.within_deadline * 10_000 / self.calls.max(1)) as u32
    }

    /// Short label of the client mode (table/bench row key).
    pub fn mode_label(&self) -> &'static str {
        if self.failover {
            "failover"
        } else {
            "no-failover"
        }
    }

    /// Human-readable report; byte-identical across runs of one config.
    pub fn render(&self) -> String {
        let bp = self.availability_bp();
        let recovery = match self.recovery {
            Some(r) => format!("{r} after the crash"),
            None => "never recovered".to_string(),
        };
        let mut out = format!(
            "{}\n\
             \u{20} chaos availability:             {}.{:02}% ({}/{} within deadline, {} failed)\n\
             \u{20} crash recovery:                 {recovery}, downtime {}\n\
             \u{20} at-least-once erosion:          {} duplicate execution(s), {} failover(s), {} breaker trip(s)",
            latency_line(&self.latency),
            bp / 100,
            bp % 100,
            self.within_deadline,
            self.calls,
            self.failed,
            self.chaos.downtime,
            self.extra_executions,
            self.failovers,
            self.breaker_trips,
        );
        out.push_str(&format!(
            "\n\u{20} chaos mode:                     {}",
            self.mode_label(),
        ));
        out.push_str(&format!(
            "\n\u{20} chaos schedule:                 {} crash(es), {} restart(s), {} datagram(s) dropped at down hosts",
            self.chaos.crashes, self.chaos.restarts, self.chaos.drops_down,
        ));
        out.push_str(&format!(
            "\n\u{20} client effort:                  {} retransmit(s), {} handler run(s) for {} completed call(s) over {} virtual",
            self.retransmits, self.handler_runs, self.completed, self.elapsed,
        ));
        out
    }

    /// The compact study table: `title`, a header, then one line per
    /// `(fault column, report)`. Virtual-time results only, so the
    /// text is byte-identical across runs of the same configs.
    pub fn render_table(title: &str, rows: &[(&str, ChaosReport)]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:>6} {:>12} | {:>8} {:>9} {:>6} | {:>8} | {:>5} {:>5} {:>5} | {:>8}",
            "faults",
            "mode",
            "avail",
            "in-ddl",
            "failed",
            "rcvr(ms)",
            "f/o",
            "trips",
            "dups",
            "p99(ms)"
        );
        let _ = writeln!(out, "{}", "-".repeat(86));
        for (faults, r) in rows {
            let _ = writeln!(
                out,
                "{:>6} {:>12} | {:>5}.{:02}% {:>5}/{:<3} {:>6} | {:>8.3} | {:>5} {:>5} {:>5} | {:>8.3}",
                faults,
                r.mode_label(),
                r.availability_bp() / 100,
                r.availability_bp() % 100,
                r.within_deadline,
                r.calls,
                r.failed,
                r.recovery.map_or(f64::NAN, SimTime::as_millis_f64),
                r.failovers,
                r.breaker_trips,
                r.extra_executions,
                r.latency.p99().as_millis_f64(),
            );
        }
        out
    }
}

/// Execute one chaos run: deploy the primary plus its
/// backups (observed by one [`Invariants`], the primary and the backups
/// under their own labels), arm the fault schedule, drive every client through
/// its closed-loop call sequence, then play the schedule out so the
/// restart and downtime accounting land even if the calls finished
/// early.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, PipelineError> {
    assert!(cfg.clients > 0 && cfg.calls_per_client > 0, "non-empty run");
    assert!(cfg.payload <= MAX_ARR, "payload within IDL bound");
    let net = Network::new(NetworkConfig::lan().with_faults(cfg.faults), cfg.seed);

    // One observer for the primary and every backup: it records real
    // executions wherever they happen (duplicate-cache hits do not
    // re-execute), and tells an amnesia re-run from a replica's.
    let invariants = Invariants::new(&net);
    let proc_ = Arc::new(build_echo_proc(cfg.payload, Some(32))?);
    let observed = |server| {
        SpecService::new()
            .proc_in_place(proc_.clone(), echo_handler)
            .observed(&invariants, server)
            .into_registry()
    };

    serve(
        &net,
        observed(CHAOS_PRIMARY),
        ServeConfig::new(&[CHAOS_PRIMARY]),
    )
    .detach();
    let backups: Vec<Addr> = (0..cfg.backups)
        .map(|b| CHAOS_BACKUP_BASE + b as u32)
        .collect();
    if !backups.is_empty() {
        serve(
            &net,
            observed(CHAOS_BACKUP_BASE),
            ServeConfig::new(&backups),
        )
        .detach();
    }
    net.apply_chaos(&cfg.schedule());

    let mut clients: Vec<ClntUdp> = (0..cfg.clients)
        .map(|i| {
            let mut c = ClntUdp::create(
                &net,
                CHAOS_CLIENT_BASE + i as u32,
                CHAOS_PRIMARY,
                ECHO_PROG,
                ECHO_VERS,
            );
            c.retry_timeout = cfg.retry_timeout;
            c.total_timeout = cfg.call_timeout;
            if cfg.failover {
                c = c
                    .with_replicas(&backups)
                    .with_breaker(CircuitBreaker::new(
                        cfg.breaker_threshold,
                        cfg.breaker_cooldown,
                    ))
                    .with_retry_budget(cfg.retry_budget);
            }
            c
        })
        .collect();

    let mut latency = LatencyHistogram::new();
    let (mut completed, mut within, mut failed) = (0u64, 0u64, 0u64);
    let mut recovery = None;
    for _round in 0..cfg.calls_per_client {
        for client in clients.iter_mut() {
            let issued = net.now();
            let mut data: Vec<i32> = (0..cfg.payload as i32).collect();
            let mut echoed: Vec<i32> = Vec::new();
            let res = client.call(
                1,
                &mut |x| xdr_array(x, &mut data, MAX_ARR, xdr_int),
                &mut |x| xdr_array(x, &mut echoed, MAX_ARR, xdr_int),
            );
            let now = net.now();
            match res {
                Ok(()) => {
                    let lat = now.saturating_sub(issued);
                    latency.record(lat);
                    completed += 1;
                    if lat <= cfg.deadline {
                        within += 1;
                    }
                    if recovery.is_none() && issued >= cfg.crash_at {
                        recovery = Some(now.saturating_sub(cfg.crash_at));
                    }
                }
                Err(_) => failed += 1,
            }
        }
    }

    // Let the schedule finish: a fast run must still observe the
    // restart so `ChaosStats::downtime` means the same thing in every
    // mode.
    let end = cfg.crash_at + cfg.crash_downtime + SimTime::from_millis(1);
    if net.now() < end {
        net.run_until(end, || false);
    }

    let calls = (cfg.clients * cfg.calls_per_client) as u64;
    Ok(ChaosReport {
        failover: cfg.failover,
        calls,
        completed,
        within_deadline: within,
        failed,
        handler_runs: invariants.runs(),
        extra_executions: invariants.repeats().len() as u64,
        failovers: clients.iter().map(|c| c.failovers).sum(),
        breaker_trips: clients.iter().map(|c| c.breaker_trips()).sum(),
        retransmits: clients.iter().map(|c| c.retransmits).sum(),
        recovery,
        chaos: net.chaos_stats(),
        elapsed: net.now(),
        latency,
    })
}

/// Run the availability comparison: the same config with the
/// resilience layer on, then off. Same deployment, same schedule, same
/// seed — only the client strategy differs.
pub fn run_chaos_matrix(cfg: &ChaosConfig) -> Result<Vec<ChaosReport>, PipelineError> {
    [true, false]
        .into_iter()
        .map(|failover| run_chaos(&cfg.clone().with_failover(failover)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_rides_out_the_crash_the_classic_client_eats() {
        let reports = run_chaos_matrix(&ChaosConfig::smoke()).unwrap();
        let (with, without) = (&reports[0], &reports[1]);
        assert!(with.failover && !without.failover);
        assert_eq!(with.completed + with.failed, with.calls);
        assert_eq!(without.completed + without.failed, without.calls);
        assert!(
            with.availability_bp() >= 9_900,
            "failover availability {} bp must stay ≥ 99%",
            with.availability_bp()
        );
        assert!(
            without.availability_bp() < with.availability_bp(),
            "the classic client must measurably degrade: {} vs {} bp",
            without.availability_bp(),
            with.availability_bp()
        );
        assert!(with.failovers > 0, "the crash must have forced failovers");
        assert!(
            with.breaker_trips > 0,
            "give-ups must have fed the breakers"
        );
        assert_eq!(without.failovers, 0, "classic clients cannot fail over");
    }

    #[test]
    fn both_modes_observe_the_full_schedule() {
        for r in run_chaos_matrix(&ChaosConfig::smoke()).unwrap() {
            assert_eq!(r.chaos.crashes, 1, "{:?}", r.chaos);
            assert_eq!(r.chaos.restarts, 1, "{:?}", r.chaos);
            assert!(
                r.chaos.downtime >= ChaosConfig::smoke().crash_downtime,
                "downtime {} must cover the schedule window",
                r.chaos.downtime
            );
            assert!(r.chaos.drops_down > 0, "retries into the outage must drop");
        }
    }

    #[test]
    fn recovery_is_faster_with_failover() {
        let reports = run_chaos_matrix(&ChaosConfig::smoke()).unwrap();
        let with = reports[0].recovery.expect("failover run recovers");
        let without = reports[1].recovery.expect("restart eventually recovers");
        assert!(
            with < without,
            "failover recovery {with} must beat waiting out the restart {without}"
        );
    }

    #[test]
    fn reports_are_byte_identical_across_runs() {
        let cfg = ChaosConfig::smoke().with_faults(FaultConfig::LOSSY);
        let a = run_chaos(&cfg).unwrap();
        let b = run_chaos(&cfg).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn render_includes_chaos_lines() {
        let report = ChaosReport {
            failover: true,
            calls: 96,
            completed: 96,
            within_deadline: 95,
            failed: 0,
            handler_runs: 97,
            extra_executions: 1,
            failovers: 1,
            breaker_trips: 2,
            retransmits: 3,
            recovery: Some(SimTime::from_millis(6)),
            chaos: ChaosStats {
                downtime: SimTime::from_millis(30),
                ..ChaosStats::default()
            },
            elapsed: SimTime::from_millis(100),
            latency: LatencyHistogram::new(),
        };
        let text = report.render();
        assert!(
            text.contains("98.95% (95/96 within deadline, 0 failed)"),
            "{text}"
        );
        assert!(
            text.contains("6.000ms after the crash, downtime 30.000ms"),
            "{text}"
        );
        assert!(text.contains("1 duplicate execution(s), 1 failover(s), 2 breaker trip(s)"));

        let never = ChaosReport {
            recovery: None,
            ..report
        };
        assert!(never
            .render()
            .contains("never recovered, downtime 30.000ms"));
    }
}

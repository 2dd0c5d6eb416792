//! Retransmission-strategy study over the honest link: a burst of echo
//! calls against a server with a **bounded service rate** and a
//! **bounded drop-tail receive queue**, comparing what the client's
//! retry policy does to completion time, retransmission load, and
//! queue drops.
//!
//! The congested resources are all modeled honestly by `specrpc-netsim`
//! after the occupancy fix:
//!
//! - the server's **receive queue** is a bounded mailbox
//!   ([`NetworkConfig::with_rx_queue_cap`]): a burst larger than the cap
//!   drop-tails, and every drop must be recovered by a client
//!   retransmission;
//! - the server's **CPU** serves one request per
//!   [`CongestionConfig::service_time`], so demand above `1/service_time`
//!   builds a standing queue;
//! - the server's **uplink** carries every reply through the shared
//!   per-endpoint wire occupancy, so replies to a burst serialize
//!   cumulatively instead of departing in parallel;
//! - the seeded **fault model** (loss / duplication / reordering)
//!   composes on top.
//!
//! Three strategies from [`RetryPolicy`] are compared:
//!
//! - **Fixed** — Sun's original `clntudp_call` timer: retransmit every
//!   `retry_timeout`. Under queueing delay above the timeout it
//!   retransmits *spuriously*, feeding the very queue it is waiting on.
//! - **ExpBackoff** — the per-try timeout doubles, so pressure on a
//!   congested queue decays instead of compounding, at the price of slow
//!   recovery for genuinely lost datagrams.
//! - **Paced** — per-try timeout stays at the base, but resends are
//!   released at most one per `gap` of virtual time across the whole
//!   client population (one pacer, as if the calls share a host): the
//!   retransmit *storm* is spread out so a bounded queue can absorb it.
//!
//! Everything is seeded and single-driver: a fixed [`CongestionConfig`]
//! produces a byte-identical [`CongestionReport::render`] every run.

use crate::echo::{build_echo_proc, echo_handler, ECHO_PROG, ECHO_VERS, MAX_ARR};
use crate::pipeline::PipelineError;
use crate::service::SpecService;
use crate::summary::{latency_line, link_lines, LatencyHistogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specrpc_netsim::net::{Addr, Endpoint, LinkStats, Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::msg::CallHeader;
use specrpc_rpc::SvcRegistry;
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::XdrStream;

/// Server port of the congestion scenario.
pub const CONGESTION_PORT: Addr = 48_000;
/// First client endpoint address.
pub const CONGESTION_CLIENT_BASE: Addr = 70_000;

/// Configuration of one congestion run.
#[derive(Debug, Clone)]
pub struct CongestionConfig {
    /// Client endpoints; each issues exactly one echo call.
    pub clients: usize,
    /// Echo array size (ints) — the datagram payload knob.
    pub payload: usize,
    /// Arrival window: send instants are uniform in `[0, span)`.
    pub span: SimTime,
    /// Seed for arrivals and the fault stream.
    pub seed: u64,
    /// Fault model applied to every datagram (requests and replies).
    pub faults: FaultConfig,
    /// Server receive-queue capacity (drop-tail beyond it).
    pub rx_queue_cap: usize,
    /// Server CPU time per served request — the service-rate bound.
    pub service_time: SimTime,
    /// Base per-try timeout (the policies derive their schedules from
    /// it via [`RetryPolicy::try_timeout`]).
    pub retry_timeout: SimTime,
    /// Pacing gap of the [`RetryPolicy::Paced`] strategy.
    pub pace_gap: SimTime,
    /// Transmissions allowed per call (first try included) before the
    /// call is declared failed.
    pub max_tries: u32,
    /// The retransmission strategy under study.
    pub policy: RetryPolicy,
}

impl CongestionConfig {
    /// A deliberately overloaded burst: offered demand
    /// (`clients × service_time`) is ~3× the arrival window, and the
    /// receive queue holds only a quarter of the burst, so drops and
    /// queueing delay above `retry_timeout` are guaranteed — the regime
    /// where the strategies actually differ.
    pub fn smoke() -> CongestionConfig {
        CongestionConfig {
            clients: 48,
            payload: 32,
            span: SimTime::from_millis(1),
            seed: 11,
            faults: FaultConfig::NONE,
            rx_queue_cap: 12,
            service_time: SimTime::from_micros(60),
            retry_timeout: SimTime::from_micros(800),
            pace_gap: SimTime::from_micros(120),
            max_tries: 10,
            policy: RetryPolicy::Fixed,
        }
    }

    /// This config under the given fault model.
    pub fn with_faults(mut self, faults: FaultConfig) -> CongestionConfig {
        self.faults = faults;
        self
    }

    /// This config under the given retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> CongestionConfig {
        self.policy = policy;
        self
    }

    /// The three strategies this config compares, parameterized from
    /// its own timing knobs.
    pub fn strategies(&self) -> [RetryPolicy; 3] {
        [
            RetryPolicy::Fixed,
            RetryPolicy::ExpBackoff {
                cap: SimTime::from_nanos(self.retry_timeout.as_nanos().saturating_mul(16)),
            },
            RetryPolicy::Paced { gap: self.pace_gap },
        ]
    }
}

/// Outcome of one [`run_congestion`] execution.
#[derive(Debug, Clone)]
pub struct CongestionReport {
    /// The strategy that produced this report.
    pub policy: RetryPolicy,
    /// Calls issued.
    pub calls: usize,
    /// Calls answered within `max_tries`.
    pub completed: u64,
    /// Calls that exhausted `max_tries` without a reply.
    pub failed: u64,
    /// Datagrams transmitted (first tries included).
    pub transmissions: u64,
    /// Retransmissions (`transmissions − calls` minus abandoned tries).
    pub retransmits: u64,
    /// Link queue accounting: drop-tail discards and depth high-water.
    pub link: LinkStats,
    /// Virtual time when the last call completed or failed.
    pub elapsed: SimTime,
    /// Completion latency distribution (first send → reply arrival).
    pub latency: LatencyHistogram,
}

impl CongestionReport {
    /// Retransmissions per issued call.
    pub fn retransmits_per_call(&self) -> f64 {
        self.retransmits as f64 / self.calls.max(1) as f64
    }

    /// Short label of the strategy (table/bench row key).
    pub fn policy_label(&self) -> &'static str {
        policy_label(self.policy)
    }

    /// Human-readable report; byte-identical across runs of one config.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}\n{}",
            latency_line(&self.latency),
            link_lines(&self.link)
        );
        out.push_str(&format!(
            "\n\u{20} retransmission strategy:        {}",
            self.policy_label()
        ));
        out.push_str(&format!(
            "\n\u{20} congestion outcome:             {}/{} completed, {} failed, {} retransmit(s) ({:.2}/call) over {} virtual",
            self.completed,
            self.calls,
            self.failed,
            self.retransmits,
            self.retransmits_per_call(),
            self.elapsed,
        ));
        out
    }

    /// The compact study table: `title`, a header, then one line per
    /// `(fault column, report)`. Virtual-time results only, so the
    /// text is byte-identical across runs of the same configs.
    pub fn render_table(title: &str, rows: &[(&str, CongestionReport)]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:>6} {:>11} | {:>5} {:>6} {:>8} | {:>6} {:>6} | {:>8} {:>9}",
            "faults",
            "strategy",
            "done",
            "failed",
            "rtx/call",
            "drops",
            "depth",
            "p99(ms)",
            "settle(ms)"
        );
        let _ = writeln!(out, "{}", "-".repeat(78));
        for (faults, r) in rows {
            let _ = writeln!(
                out,
                "{:>6} {:>11} | {:>5} {:>6} {:>8.2} | {:>6} {:>6} | {:>8.3} {:>9.3}",
                faults,
                r.policy_label(),
                r.completed,
                r.failed,
                r.retransmits_per_call(),
                r.link.queue_drops,
                r.link.queue_depth_high_water,
                r.latency.p99().as_millis_f64(),
                r.elapsed.as_millis_f64(),
            );
        }
        out
    }
}

/// A retransmission strategy of the study: how long each try waits, and
/// whether resends queue behind the population's shared pacer. Every
/// strategy starts from [`CongestionConfig::retry_timeout`] as the base
/// per-try wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Sun's original `clntudp_call` timer: every try waits the same
    /// fixed `retry_timeout` before retransmitting. `ClntUdp` itself no
    /// longer runs it (it times a lone call's tries from the procedure's
    /// smoothed round trip); the study keeps it as the baseline.
    Fixed,
    /// Exponential backoff: try `k` waits `retry_timeout · 2^k`, capped
    /// at `cap` — fewer, later retransmissions, easing pressure on a
    /// congested link at the price of slower loss recovery.
    ExpBackoff {
        /// Upper bound on the per-try timeout.
        cap: SimTime,
    },
    /// Fixed per-try timeout, but a due resend is released at most one
    /// per `gap` of virtual time across the whole client population — the
    /// study's shared pacer — so a bounded server queue can absorb the
    /// resend burst.
    Paced {
        /// Virtual-time spacing between consecutive resends.
        gap: SimTime,
    },
}

impl RetryPolicy {
    /// Per-try timeout for the 0-based retry round `attempt`.
    pub fn try_timeout(self, base: SimTime, attempt: u32) -> SimTime {
        match self {
            RetryPolicy::Fixed | RetryPolicy::Paced { .. } => base,
            RetryPolicy::ExpBackoff { cap } => {
                let mult = 1u64 << attempt.min(20);
                SimTime::from_nanos(base.as_nanos().saturating_mul(mult).min(cap.as_nanos()))
            }
        }
    }
}

/// Short label of a strategy (table/bench row key).
pub fn policy_label(policy: RetryPolicy) -> &'static str {
    match policy {
        RetryPolicy::Fixed => "fixed",
        RetryPolicy::ExpBackoff { .. } => "expbackoff",
        RetryPolicy::Paced { .. } => "paced",
    }
}

/// Per-call client state in the open-loop driver.
enum CallState {
    /// Next transmission scheduled at this instant.
    Send(SimTime),
    /// Waiting for a reply; retransmit (or fail) at this deadline.
    Wait(SimTime),
    Done,
    Failed,
}

struct Caller {
    ep: Endpoint,
    xid: u32,
    req: Vec<u8>,
    tries: u32,
    first_sent: SimTime,
    state: CallState,
}

/// Execute one congestion run: deploy the echo service behind a bounded
/// mailbox, fire the burst, drive every call through the configured
/// retry policy, and account for the casualties.
pub fn run_congestion(cfg: &CongestionConfig) -> Result<CongestionReport, PipelineError> {
    assert!(cfg.clients > 0 && cfg.max_tries > 0, "non-empty run");
    assert!(cfg.payload <= MAX_ARR, "payload within IDL bound");
    let net = Network::new(
        NetworkConfig::lan()
            .with_faults(cfg.faults)
            .with_rx_queue_cap(cfg.rx_queue_cap),
        cfg.seed,
    );
    let registry = deploy_congestion_service(cfg)?;
    // The server is a plain bounded mailbox — not a served address,
    // whose deliveries a driver executes at once — so deliveries queue
    // (and drop-tail) while its CPU is busy.
    let server = net.bind_udp(CONGESTION_PORT);

    let template = encode_echo_template(cfg.payload);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let span_ns = cfg.span.as_nanos() as f64;
    let mut callers: Vec<Caller> = (0..cfg.clients)
        .map(|i| {
            let at = SimTime::from_nanos((rng.random::<f64>() * span_ns) as u64);
            let xid = i as u32 + 1;
            let mut req = template.clone();
            req[0..4].copy_from_slice(&xid.to_be_bytes());
            Caller {
                ep: net.bind_udp(CONGESTION_CLIENT_BASE + i as u32),
                xid,
                req,
                tries: 0,
                first_sent: SimTime::ZERO,
                state: CallState::Send(at),
            }
        })
        .collect();

    /// Drain every live caller's mailbox (first xid match wins; stale
    /// duplicates are discarded); returns whether any call completed.
    fn collect(
        callers: &mut [Caller],
        latency: &mut LatencyHistogram,
        completed: &mut u64,
        last_settled: &mut SimTime,
    ) -> bool {
        let mut any = false;
        for c in callers {
            if matches!(c.state, CallState::Done | CallState::Failed) {
                continue;
            }
            while let Some(dg) = c.ep.try_recv() {
                if dg.payload.len() >= 4 && dg.payload[0..4] == c.xid.to_be_bytes() {
                    latency.record(dg.at.saturating_sub(c.first_sent));
                    *completed += 1;
                    *last_settled = (*last_settled).max(dg.at);
                    c.state = CallState::Done;
                    any = true;
                    break;
                }
            }
        }
        any
    }

    let mut latency = LatencyHistogram::new();
    let (mut completed, mut failed) = (0u64, 0u64);
    let (mut transmissions, mut retransmits) = (0u64, 0u64);
    let mut last_settled = SimTime::ZERO;
    // The shared pacer of `RetryPolicy::Paced`: at most one resend per
    // `gap`, population-wide.
    let mut pacer_free = SimTime::ZERO;
    // Hard backstop: the per-call schedules bound every run, but a
    // modeling mistake must surface as `failed`, not as a spin.
    let horizon = cfg.span
        + SimTime::from_nanos(
            cfg.retry_timeout
                .as_nanos()
                .saturating_mul(u64::from(cfg.max_tries) * 32),
        );

    loop {
        collect(
            &mut callers,
            &mut latency,
            &mut completed,
            &mut last_settled,
        );

        // Fire everything due: transmissions and expiries.
        let now = net.now();
        let past_horizon = now >= horizon;
        for c in &mut callers {
            match c.state {
                CallState::Send(at) if at <= now => {
                    if c.tries == 0 {
                        c.first_sent = now;
                    } else {
                        retransmits += 1;
                    }
                    c.ep.send_to(CONGESTION_PORT, c.req.clone());
                    transmissions += 1;
                    c.tries += 1;
                    let wait = cfg.policy.try_timeout(cfg.retry_timeout, c.tries - 1);
                    c.state = CallState::Wait(now + wait);
                }
                CallState::Wait(deadline) if deadline <= now || past_horizon => {
                    if c.tries >= cfg.max_tries || past_horizon {
                        failed += 1;
                        last_settled = last_settled.max(now);
                        c.state = CallState::Failed;
                    } else {
                        // A paced resend queues behind the shared pacer;
                        // the others go out immediately.
                        let at = match cfg.policy {
                            RetryPolicy::Paced { gap } => {
                                let at = now.max(pacer_free);
                                pacer_free = at + gap;
                                at
                            }
                            _ => now,
                        };
                        c.state = CallState::Send(at);
                    }
                }
                _ => {}
            }
        }

        // Next client instant; none left = run over.
        let next = callers
            .iter()
            .filter_map(|c| match c.state {
                CallState::Send(at) => Some(at),
                CallState::Wait(deadline) => Some(deadline),
                _ => None,
            })
            .min();
        let Some(next) = next else { break };
        if next <= net.now() {
            // Due work was produced by this pass (a resend released at
            // `now`); loop again without advancing the clock.
            continue;
        }

        // Advance toward it one service quantum at a time, letting the
        // server drain its queue at its bounded rate along the way.
        while net.now() < next {
            let slice = (net.now() + cfg.service_time).min(next);
            net.run_until(slice, || false);
            if let Some(dg) = server.try_recv() {
                // Serve one request: CPU charge first (arrivals keep
                // flooding the bounded mailbox meanwhile), then the
                // reply joins the server's uplink occupancy queue.
                net.advance(cfg.service_time);
                let reply = registry.dispatch(&dg.payload);
                server.send_to(dg.from, reply);
            }
            // A reply may have landed mid-advance; completing it now
            // cancels retransmits that would otherwise fire on schedule.
            if collect(
                &mut callers,
                &mut latency,
                &mut completed,
                &mut last_settled,
            ) {
                break;
            }
        }
    }

    Ok(CongestionReport {
        policy: cfg.policy,
        calls: cfg.clients,
        completed,
        failed,
        transmissions,
        retransmits,
        link: net.link_stats(),
        elapsed: last_settled,
        latency,
    })
}

/// Run the full strategy comparison: every policy from
/// [`CongestionConfig::strategies`] over the same config, in order.
pub fn run_congestion_matrix(
    cfg: &CongestionConfig,
) -> Result<Vec<CongestionReport>, PipelineError> {
    cfg.strategies()
        .into_iter()
        .map(|policy| run_congestion(&cfg.clone().with_policy(policy)))
        .collect()
}

/// Build the scenario's dispatch registry: the paper's echo procedure,
/// specialized to the configured payload shape.
pub fn deploy_congestion_service(
    cfg: &CongestionConfig,
) -> Result<std::sync::Arc<SvcRegistry>, PipelineError> {
    let proc_ = std::sync::Arc::new(build_echo_proc(cfg.payload, Some(32))?);
    Ok(SpecService::new()
        .proc_in_place(proc_, echo_handler)
        .into_registry())
}

/// One pre-encoded echo request; the per-call xid is patched into the
/// first four bytes.
fn encode_echo_template(payload: usize) -> Vec<u8> {
    let mut enc = XdrMem::encoder(64 + 4 * payload);
    let mut hdr = CallHeader::new(0, ECHO_PROG, ECHO_VERS, 1);
    CallHeader::xdr(&mut enc, &mut hdr).expect("header encode");
    let mut data: Vec<i32> = (0..payload as i32).collect();
    xdr_array(&mut enc, &mut data, MAX_ARR, xdr_int).expect("array encode");
    let len = enc.getpos();
    enc.bytes()[..len].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_burst_drops_and_recovers() {
        let report = run_congestion(&CongestionConfig::smoke()).unwrap();
        assert_eq!(report.calls, 48);
        assert!(
            report.link.queue_drops > 0,
            "a burst 4× the queue cap must drop-tail: {:?}",
            report.link
        );
        assert!(
            report.link.queue_depth_high_water >= 12,
            "the bounded queue must have filled: {:?}",
            report.link
        );
        assert!(report.retransmits > 0, "drops must force retransmissions");
        assert_eq!(
            report.completed + report.failed,
            48,
            "every call settles one way or the other"
        );
        assert!(
            report.completed >= 40,
            "retransmission recovers most of the burst: {}",
            report.completed
        );
    }

    #[test]
    fn reports_are_byte_identical_across_runs() {
        let cfg = CongestionConfig::smoke().with_faults(FaultConfig::LOSSY);
        let a = run_congestion(&cfg).unwrap();
        let b = run_congestion(&cfg).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.link, b.link);
    }

    #[test]
    fn backoff_retransmits_less_than_fixed_under_overload() {
        let cfg = CongestionConfig::smoke();
        let [_, backoff_policy, _] = cfg.strategies();
        let fixed = run_congestion(&cfg).unwrap();
        let backoff = run_congestion(&cfg.clone().with_policy(backoff_policy)).unwrap();
        assert!(
            backoff.retransmits < fixed.retransmits,
            "backoff {} must undercut fixed {}",
            backoff.retransmits,
            fixed.retransmits
        );
    }

    #[test]
    fn pacing_spreads_the_resend_storm() {
        let cfg = CongestionConfig::smoke();
        let [_, _, paced_policy] = cfg.strategies();
        let fixed = run_congestion(&cfg).unwrap();
        let paced = run_congestion(&cfg.clone().with_policy(paced_policy)).unwrap();
        // The paced schedule must actually have engaged the pacer (same
        // per-try timeout as fixed, different release times).
        assert!(paced.retransmits > 0);
        assert!(
            paced.link.queue_drops < fixed.link.queue_drops,
            "pacing must shed queue drops: paced {} vs fixed {}",
            paced.link.queue_drops,
            fixed.link.queue_drops
        );
    }

    #[test]
    fn matrix_runs_all_three_strategies() {
        let mut cfg = CongestionConfig::smoke();
        cfg.clients = 24;
        let reports = run_congestion_matrix(&cfg).unwrap();
        let labels: Vec<&str> = reports.iter().map(|r| r.policy_label()).collect();
        assert_eq!(labels, ["fixed", "expbackoff", "paced"]);
        for r in &reports {
            assert_eq!(r.completed + r.failed, 24, "{}", r.policy_label());
        }
    }

    #[test]
    fn render_carries_the_link_and_strategy_lines() {
        let mut cfg = CongestionConfig::smoke();
        cfg.clients = 16;
        let text = run_congestion(&cfg).unwrap().render();
        assert!(text.contains("link queues:"), "{text}");
        assert!(
            text.contains("retransmission strategy:        fixed"),
            "{text}"
        );
        assert!(text.contains("congestion outcome:"), "{text}");
    }

    #[test]
    fn render_surfaces_link_queue_drops() {
        let report = CongestionReport {
            policy: RetryPolicy::Fixed,
            calls: 10,
            completed: 10,
            failed: 0,
            transmissions: 12,
            retransmits: 2,
            link: LinkStats {
                queue_drops: 42,
                queue_depth_high_water: 9,
                datagrams: 120,
                fragments: 130,
            },
            elapsed: SimTime::from_millis(5),
            latency: LatencyHistogram::new(),
        };
        let text = report.render();
        assert!(
            text.contains("\n  link queues:                    42 drop(s), depth high-water 9\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "\n  link packets:                   120 datagram(s) in 130 wire fragment(s)\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn uncongested_run_is_drop_free_and_complete() {
        let mut cfg = CongestionConfig::smoke();
        // Stretch the window far past the demand: no standing queue.
        cfg.span = SimTime::from_millis(40);
        cfg.rx_queue_cap = usize::MAX;
        let report = run_congestion(&cfg).unwrap();
        assert_eq!(report.completed, 48);
        assert_eq!(report.failed, 0);
        assert_eq!(report.link.queue_drops, 0);
        assert_eq!(report.retransmits, 0, "no congestion, no retries");
    }
}

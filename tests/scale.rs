//! The million-client acceptance scenario at CI scale: the open-loop
//! run is executed twice at a reduced endpoint count and its rendered
//! report must be byte-identical (fixed seed ⇒ identical shard map,
//! latency and open-loop lines), with every client answered exactly
//! once.
//!
//! Two fixed-size runs pin the report's numbers, and a window of one
//! covers the path that blocks on a straggler.
//!
//! `SPECRPC_SCALE_CLIENTS` scales the endpoint count (default 2 000;
//! the smoke-scale CI job raises it in release builds). The arrival
//! window scales proportionally, so offered load — and therefore the
//! latency distribution's shape — is comparable across sizes.

use specrpc::{run_scale, run_scale_single_shard, ScaleConfig};
use specrpc_netsim::net::LinkStats;

fn clients() -> usize {
    std::env::var("SPECRPC_SCALE_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

fn ci_config() -> ScaleConfig {
    ScaleConfig::million().scaled_to(clients())
}

#[test]
fn scaled_million_client_scenario_is_deterministic() {
    let cfg = ci_config();
    let a = specrpc::scenario::run_scale(&cfg).unwrap();
    let b = specrpc::scenario::run_scale(&cfg).unwrap();
    assert_eq!(
        a.render(),
        b.render(),
        "fixed seed must render byte-identical reports"
    );
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.per_shard, b.per_shard);
    assert_eq!(a.elapsed, b.elapsed);
}

#[test]
fn scaled_million_client_scenario_answers_every_endpoint() {
    let cfg = ci_config();
    let report = specrpc::run_scale(&cfg).unwrap();
    assert_eq!(report.replies, cfg.clients as u64, "no lost replies");
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.latency.count(), cfg.clients as u64);
    assert_eq!(
        report.per_shard.iter().sum::<u64>(),
        cfg.clients as u64,
        "each request dispatched exactly once across the shard map"
    );
    assert_eq!(report.per_shard.len(), cfg.shards);
    assert!(
        report.per_shard.iter().all(|&e| e > 0),
        "zipf traffic must reach every shard: {:?}",
        report.per_shard
    );
    // The tail is measurable: p999 at least p50, max at least p999.
    let (p50, p999) = (report.latency.p50(), report.latency.p999());
    assert!(p999 >= p50);
    assert!(report.latency.max() >= p999);
}

#[test]
fn shard_map_width_does_not_change_the_measured_distribution() {
    // The full scenario through 1 shard vs the configured 8: identical
    // latency histograms and clocks — sharding moves ownership, never
    // delivery order, in single-driver mode.
    let mut cfg = ci_config();
    cfg.clients = cfg.clients.min(500);
    let many = run_scale(&cfg).unwrap();
    let one = run_scale_single_shard(&cfg).unwrap();
    assert_eq!(one.latency, many.latency);
    assert_eq!(one.elapsed, many.elapsed);
    assert_eq!(one.replies, many.replies);
}

/// One pinned run: endpoints, then the elapsed virtual time, latency
/// p50 / p99 / p999 / max (ns) and events per shard.
type Pin = (usize, u64, [u64; 4], [u64; 8]);

const PINS: [Pin; 2] = [
    (
        2_000,
        242_821_242,
        [368_640, 3_604_480, 3_866_624, 4_904_031],
        [272, 244, 263, 253, 206, 260, 264, 238],
    ),
    (
        5_000,
        603_773_145,
        [368_640, 3_604_480, 4_587_520, 4_943_323],
        [642, 589, 607, 607, 574, 672, 668, 641],
    ),
];

#[test]
fn fixed_scaled_runs_keep_their_pinned_reports() {
    // Retiring answered requests must not step the simulation. At 2 000
    // requests the 4 096-request window never fills, so only the final
    // drain blocks; at 5 000 a sweep that ran the events due at `now`
    // moves the tail and the clock.
    for (clients, elapsed, quantiles, per_shard) in PINS {
        let report = run_scale(&ScaleConfig::million().scaled_to(clients)).unwrap();
        let lat = &report.latency;
        assert_eq!(report.elapsed.as_nanos(), elapsed, "{clients}");
        assert_eq!(lat.count(), clients as u64);
        assert_eq!(
            [lat.p50(), lat.p99(), lat.p999(), lat.max()].map(|t| t.as_nanos()),
            quantiles,
            "{clients}"
        );
        assert_eq!(report.per_shard, per_shard);
        let datagrams = 2 * clients as u64;
        assert_eq!(
            report.link,
            LinkStats {
                queue_drops: 0,
                queue_depth_high_water: 1,
                datagrams,
                fragments: datagrams,
            }
        );
        assert_eq!(report.unbound_drops, 0);
    }
}

#[test]
fn a_window_of_one_blocks_every_request_on_its_own_reply() {
    // The straggler path: each request is still unanswered right after
    // its send, so the run blocks on it before the next arrival.
    let mut cfg = ScaleConfig::million().scaled_to(500);
    cfg.window = 1;
    let report = run_scale(&cfg).unwrap();
    assert_eq!(
        report.replies, cfg.clients as u64,
        "every endpoint answered"
    );
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.per_shard.iter().sum::<u64>(), cfg.clients as u64);
}

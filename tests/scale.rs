//! The million-client acceptance scenario at CI scale: the open-loop
//! run is executed twice at a reduced endpoint count and its rendered
//! report must be byte-identical (fixed seed ⇒ identical shard map,
//! latency and open-loop lines), with every client answered exactly
//! once.
//!
//! `SPECRPC_SCALE_CLIENTS` scales the endpoint count (default 2 000;
//! the smoke-scale CI job raises it in release builds). The arrival
//! window scales proportionally, so offered load — and therefore the
//! latency distribution's shape — is comparable across sizes.

use specrpc::{run_scale, run_scale_single_shard, ScaleConfig};

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

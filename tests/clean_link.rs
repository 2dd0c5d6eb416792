//! A clean link never retransmits.
//!
//! `ClntUdp` times a lone call's retries from its procedure's smoothed
//! round trip, and the timeout is never below twice that estimate. On a
//! link without faults every procedure's round trip is the same call after
//! call, so no try may time out: no datagram beyond the calls and their
//! replies. This is what keeps the fault-free workloads' virtual time
//! independent of the timer, on every seed. The ignored sweep widens the
//! seed range in release (`cargo test --release --test clean_link --
//! --ignored`).

use specrpc::echo::{workload, EchoBench, Mode};
use specrpc::{run_nfs, NfsConfig, StubCache};
use std::ops::RangeInclusive;

const SEEDS: RangeInclusive<u64> = 1..=16;

/// The release sweep's seeds, past [`SEEDS`].
const WIDE: RangeInclusive<u64> = 17..=256;

/// Calls per lane, seed and size: enough for every estimate to settle.
const CALLS: usize = 64;

#[test]
fn echo_never_retransmits_on_a_clean_link() {
    echo_clean(SEEDS);
}

#[test]
fn nfs_never_retransmits_on_a_clean_link() {
    nfs_clean(SEEDS);
}

#[test]
#[ignore = "wide seed sweep: release builds, run with --ignored"]
fn wide_seed_sweep_never_retransmits() {
    echo_clean(WIDE);
    nfs_clean(WIDE);
}

fn echo_clean(seeds: RangeInclusive<u64>) {
    for n in [20, 250, 2000] {
        let cache = StubCache::new();
        let data = workload(n);
        for seed in seeds.clone() {
            let mut bench = EchoBench::new_cached(n, None, seed, &cache).expect("deploy");
            for mode in [Mode::Specialized, Mode::Generic] {
                bench
                    .timed_round_trips(mode, &data, CALLS)
                    .unwrap_or_else(|e| panic!("echo/{n}, seed {seed}, {mode:?}: {e}"));
            }
            assert_eq!(
                (
                    bench.spec.transport_mut().retransmits,
                    bench.generic.retransmits
                ),
                (0, 0),
                "echo/{n}, seed {seed}"
            );
        }
    }
}

fn nfs_clean(seeds: RangeInclusive<u64>) {
    for seed in seeds {
        for (mode, cfg) in [
            ("coalesced", NfsConfig::smoke()),
            ("per-call", NfsConfig::smoke().per_call()),
        ] {
            let report = run_nfs(&NfsConfig { seed, ..cfg }).expect("nfs deployment");
            let c = report.coalesce;
            // A sync call is one request (sealing whatever one-ways are
            // queued) and one reply; an envelope flushed on its own is one
            // more datagram. A retransmission would add to either.
            assert_eq!(
                report.link.datagrams,
                2 * report.sync_calls + c.flushes_mtu + c.flushes_linger + c.flushes_explicit,
                "nfs/{mode}, seed {seed}"
            );
            if mode == "per-call" {
                assert_eq!(
                    report.link.datagrams,
                    2 * report.sync_calls + report.oneway_writes,
                    "nfs/{mode}, seed {seed}"
                );
            }
        }
    }
}

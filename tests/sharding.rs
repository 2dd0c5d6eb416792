//! Shard-count invariance: partitioning the serving sockets across N
//! reactors must not change anything a client can observe.
//!
//! In deterministic single-driver mode the shard map executes every
//! delivery inline on the driving thread in network order, so shard
//! assignment only moves *ownership* (which dup cache and buffer pool a
//! socket uses) — never delivery order. What must hold, across the whole
//! fault matrix of `tests/faults.rs`:
//!
//! - reply **bytes** identical between a 1-shard and an N-shard map;
//! - the virtual clock identical at the end of the run;
//! - the user handler executes **exactly once per transaction** even
//!   when the network duplicates request datagrams (each shard's
//!   duplicate-request cache replays for its own sockets);
//! - retransmission counts identical (loss patterns are seeded on the
//!   network, not the serving layer).

use specrpc::echo::{echo_service, generic_encode_request, ECHO_IDL, ECHO_PROG, ECHO_VERS};
use specrpc::{Invariants, ProcPipeline};
use specrpc_netsim::net::{Addr, Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::{serve, ClntUdp, ServeConfig};
use specrpc_xdr::mem::XdrMem;
use std::sync::Arc;

const N: usize = 24;
const CALLS: usize = 16;
const SEEDS: [u64; 3] = [11, 22, 33];
const PORTS: [Addr; 4] = [700, 701, 702, 703];

/// A link with only these fault rates.
const fn faults(loss: f64, duplicate: f64, reorder: f64) -> FaultConfig {
    FaultConfig {
        loss,
        duplicate,
        reorder,
    }
}

fn configs() -> [(&'static str, FaultConfig); 5] {
    [
        ("none", FaultConfig::NONE),
        ("loss", faults(0.25, 0.0, 0.0)),
        ("duplicate", faults(0.0, 0.3, 0.0)),
        ("reorder", faults(0.0, 0.0, 0.3)),
        ("mixed", FaultConfig::LOSSY),
    ]
}

struct RunResult {
    replies: Vec<Vec<u8>>,
    retransmits: u64,
    per_shard: Vec<u64>,
    end_time: SimTime,
    invariants: Arc<Invariants>,
}

impl RunResult {
    /// Every call executed, none of them twice.
    fn assert_exactly_once(&self, what: &str) {
        assert_eq!(self.invariants.repeats(), [], "{what}: calls ran twice");
        assert_eq!(
            self.invariants.runs(),
            CALLS as u64,
            "{what}: a call never ran"
        );
    }
}

fn call_data(i: usize) -> Vec<i32> {
    (0..N).map(|k| (i * 1000 + k) as i32).collect()
}

/// Serve the observed echo service over `PORTS` partitioned across
/// `shards` reactors (single-driver mode), then run `CALLS` sequential
/// exchanges rotating across the sockets — so every shard sees traffic
/// and the interleaving crosses shard boundaries on every call.
fn run_sharded(cfg: FaultConfig, seed: u64, shards: usize) -> RunResult {
    let net = Network::new(NetworkConfig::lan().with_faults(cfg), seed);
    let invariants = Invariants::new(&net);
    let proc_ = Arc::new(
        ProcPipeline::new(N)
            .build_from_idl(ECHO_IDL, None, 1)
            .expect("pipeline"),
    );
    let registry = echo_service(proc_)
        .observed(&invariants, PORTS[0])
        .into_registry();
    let cfg = ServeConfig {
        shards,
        ..ServeConfig::new(&PORTS)
    };
    let service = serve(&net, registry, cfg);

    let mut clients: Vec<ClntUdp> = PORTS
        .iter()
        .enumerate()
        .map(|(i, &port)| {
            let mut c = ClntUdp::create(&net, 5000 + i as Addr, port, ECHO_PROG, ECHO_VERS);
            c.retry_timeout = SimTime::from_millis(20);
            c.total_timeout = SimTime::from_millis(60_000);
            c
        })
        .collect();

    let mut replies = Vec::new();
    for i in 0..CALLS {
        let clnt = &mut clients[i % PORTS.len()];
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(1 << 16);
        let mut data = call_data(i);
        generic_encode_request(&mut enc, xid, &mut data).expect("encode");
        let reply = clnt
            .exchange(&enc.into_bytes(), xid)
            .unwrap_or_else(|e| panic!("call {i} with {shards} shard(s): {e}"));
        replies.push(reply);
    }
    RunResult {
        replies,
        retransmits: clients.iter().map(|c| c.retransmits).sum(),
        per_shard: service.per_shard_events(),
        end_time: net.now(),
        invariants,
    }
}

#[test]
fn shard_count_is_invisible_under_the_fault_matrix() {
    for (name, cfg) in configs() {
        for seed in SEEDS {
            let one = run_sharded(cfg, seed, 1);
            let four = run_sharded(cfg, seed, 4);
            assert_eq!(
                four.replies, one.replies,
                "{name}/{seed}: reply bytes must not depend on the shard count"
            );
            assert_eq!(
                four.end_time, one.end_time,
                "{name}/{seed}: the virtual clock must not depend on the shard count"
            );
            assert_eq!(
                four.retransmits, one.retransmits,
                "{name}/{seed}: loss patterns are seeded on the network"
            );
            four.assert_exactly_once(&format!("{name}/{seed}, 4 shards"));
            one.assert_exactly_once(&format!("{name}/{seed}, 1 shard"));
            assert_eq!(one.per_shard.len(), 1);
            assert_eq!(four.per_shard.len(), 4);
            assert_eq!(
                four.per_shard.iter().sum::<u64>(),
                one.per_shard.iter().sum::<u64>(),
                "{name}/{seed}: total events must match (only ownership moves)"
            );
        }
    }
}

#[test]
fn every_datagram_duplicated_replays_from_each_shards_cache() {
    // duplicate = 1.0: the second delivery of every request must be
    // absorbed by the duplicate-request cache of the shard owning the
    // target socket — exactly one handler run per call, and replies
    // identical to a fault-free run of the same call sequence.
    let every_dup = faults(0.0, 1.0, 0.0);
    for seed in SEEDS {
        for shards in [1, 2, 4] {
            let dup = run_sharded(every_dup, seed, shards);
            let clean = run_sharded(FaultConfig::NONE, seed, shards);
            dup.assert_exactly_once(&format!(
                "seed {seed}/{shards} shard(s): duplicates must replay"
            ));
            assert_eq!(dup.replies, clean.replies, "seed {seed}/{shards} shard(s)");
        }
    }
}

#[test]
fn traffic_spreads_across_shards() {
    let r = run_sharded(FaultConfig::NONE, 11, 4);
    assert_eq!(r.per_shard.len(), 4);
    assert!(
        r.per_shard.iter().all(|&e| e > 0),
        "rotating across the sockets must touch every shard: {:?}",
        r.per_shard
    );
}

//! The exactly-once referee: one record per user-handler execution,
//! judged by the rule the duplicate-request cache exists to keep.
//!
//! A deployment opts in with [`SpecService::observed`], which wraps every
//! handler it installs; one that does not runs unwrapped. Each execution
//! leaves an [`Execution`] — server, procedure, xid, virtual instant and
//! the restarts applied so far — and [`Invariants::repeats`] pairs every
//! `(procedure, xid)` that ran again with the run before it:
//!
//! - on the **same server across a restart**, the restarted incarnation
//!   re-ran a call its predecessor executed and then lost the reply of
//!   (the amnesia Juszczak's duplicate-request cache cannot survive) —
//!   [`Repeat::across_restart`];
//! - on a **different server**, a replica re-executed it after a
//!   failover — [`Repeat::on_replica`], counted and reported, not judged;
//! - on the **same server in the same incarnation**, the cache let a
//!   duplicate through: exactly-once is broken —
//!   [`Invariants::violations`].
//!
//! "Restarts" are the network's ([`ChaosStats::restarts`]): exact while
//! one served address is crashed and restarted per network, which holds
//! for every deployment in this workspace.
//!
//! ```
//! use specrpc::echo::{build_echo_proc, echo_handler};
//! use specrpc::{Invariants, SpecService};
//! use specrpc_netsim::net::{Network, NetworkConfig};
//!
//! let net = Network::new(NetworkConfig::lan(), 1);
//! let invariants = Invariants::new(&net);
//! let registry = SpecService::new()
//!     .proc_in_place(std::sync::Arc::new(build_echo_proc(4, None).unwrap()), echo_handler)
//!     .observed(&invariants, 700)
//!     .serve_udp(&net, 700);
//! # let _ = registry;
//! assert_eq!((invariants.runs(), invariants.violations()), (0, vec![]));
//! ```
//!
//! [`SpecService::observed`]: crate::SpecService::observed
//! [`ChaosStats::restarts`]: specrpc_netsim::ChaosStats::restarts

use crate::service::SpecHandler;
use specrpc_netsim::net::{Addr, Network};
use specrpc_netsim::SimTime;
use specrpc_rpcgen::sunlib::call_fields;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One user-handler execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// The label the deployment was observed under (its address).
    pub server: Addr,
    /// Procedure number.
    pub procedure: u32,
    /// Transaction id of the call it answered.
    pub xid: u32,
    /// Virtual instant the handler was entered.
    pub at: SimTime,
    /// Restarts applied by then: the incarnation that ran it.
    pub restarts: u64,
}

/// A `(procedure, xid)` that ran again: `again`, and `earlier`, the last
/// run before it on the same server or, if that server never ran it, on
/// any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeat {
    /// The run before.
    pub earlier: Execution,
    /// The run again.
    pub again: Execution,
}

impl Repeat {
    /// Ran on a different server than before: a replica re-execution.
    pub fn on_replica(&self) -> bool {
        self.earlier.server != self.again.server
    }

    /// Ran again on the same server after a restart: incarnation
    /// `earlier.restarts` executed the call and lost its reply.
    pub fn across_restart(&self) -> bool {
        !self.on_replica() && self.again.restarts > self.earlier.restarts
    }
}

/// The observer every observed deployment reports its handler executions
/// to (see the [module docs](self)).
pub struct Invariants {
    net: Network,
    runs: Mutex<Vec<Execution>>,
}

impl Invariants {
    /// An observer reading virtual time and restarts from `net`.
    pub fn new(net: &Network) -> Arc<Invariants> {
        Arc::new(Invariants {
            net: net.clone(),
            runs: Mutex::default(),
        })
    }

    /// `handler`, recording each of its executions as `server`'s run of
    /// `procedure` before it runs. The xid is in the call-header slot on
    /// both lanes.
    pub(crate) fn watch(
        self: &Arc<Self>,
        server: Addr,
        procedure: u32,
        handler: SpecHandler,
    ) -> SpecHandler {
        let observer = self.clone();
        Arc::new(move |args, results| {
            let xid = args.scalars[call_fields::XID] as u32;
            observer.record(server, procedure, xid);
            handler(args, results)
        })
    }

    fn record(&self, server: Addr, procedure: u32, xid: u32) {
        let run = Execution {
            server,
            procedure,
            xid,
            at: self.net.now(),
            restarts: self.net.chaos_stats().restarts,
        };
        self.executions_mut().push(run);
    }

    fn executions_mut(&self) -> MutexGuard<'_, Vec<Execution>> {
        // A handler that panicked after its record left the log whole.
        self.runs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Handler executions so far.
    pub fn runs(&self) -> u64 {
        self.executions_mut().len() as u64
    }

    /// Every run of a `(procedure, xid)` after its first, beside the run
    /// before it, in execution order. `runs() - repeats().len()` is the
    /// number of distinct calls executed.
    pub fn repeats(&self) -> Vec<Repeat> {
        // (procedure, xid) → the last run on each server, latest last.
        let mut last: HashMap<(u32, u32), Vec<Execution>> = HashMap::new();
        let mut repeats = Vec::new();
        for &again in self.executions_mut().iter() {
            let seen = last.entry((again.procedure, again.xid)).or_default();
            let earlier = match seen.iter().position(|e| e.server == again.server) {
                Some(i) => Some(seen.remove(i)),
                None => seen.last().copied(),
            };
            if let Some(earlier) = earlier {
                repeats.push(Repeat { earlier, again });
            }
            seen.push(again);
        }
        repeats
    }

    /// The repeats exactly-once forbids: same server, same incarnation.
    pub fn violations(&self) -> Vec<Repeat> {
        let mut repeats = self.repeats();
        repeats.retain(|r| !r.on_replica() && !r.across_restart());
        repeats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_netsim::net::NetworkConfig;
    use specrpc_tempo::compile::StubArgs;

    #[test]
    fn repeats_are_told_apart_by_server_and_incarnation() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let invariants = Invariants::new(&net);
        let handler: SpecHandler = Arc::new(|_, _| {});
        let (a, b) = (
            invariants.watch(700, 1, handler.clone()),
            invariants.watch(701, 1, handler),
        );
        let run = |h: &SpecHandler, xid: i32| {
            h(
                &mut StubArgs::new(vec![xid], vec![]),
                &mut StubArgs::default(),
            )
        };
        run(&a, 5);
        run(&a, 5); // the same incarnation again: a violation
        run(&b, 5); // another server: a replica re-run
        net.crash(700);
        net.restart(700);
        run(&a, 5); // the restarted incarnation: amnesia
        run(&a, 6);
        let kinds: Vec<_> = invariants
            .repeats()
            .iter()
            .map(|r| {
                (
                    r.again.server,
                    r.earlier.server,
                    r.on_replica(),
                    r.across_restart(),
                )
            })
            .collect();
        assert_eq!(
            kinds,
            [
                (700, 700, false, false),
                (701, 700, true, false),
                (700, 700, false, true)
            ]
        );
        let violations = invariants.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            (violations[0].again.xid, violations[0].again.restarts),
            (5, 0)
        );
        assert_eq!(invariants.runs(), 5);
    }
}

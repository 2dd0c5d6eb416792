//! Process-level chaos: endpoint lifecycle faults over the virtual-time
//! network.
//!
//! [`crate::fault`] perturbs individual datagrams; this module perturbs
//! *endpoints* — the failure modes Sun RPC's retransmission logic and
//! duplicate-request cache were actually designed around:
//!
//! * **crash** — the process dies: its mailbox and a delivery waiting
//!   for it are discarded, its address is unregistered, and deliveries
//!   arriving while it is down vanish (counted in
//!   [`ChaosStats::drops_down`]).
//! * **restart** — the process comes back with **fresh state**
//!   (re-registered from the factory given to
//!   [`crate::net::Network::serve_udp_events_restartable`]): in particular a
//!   restarted RPC server's duplicate-request cache is empty, so a
//!   retransmission of an already-executed call re-executes — the
//!   exactly-once → at-least-once degradation the availability study
//!   quantifies.
//! * **partition** — a pairwise link cut: datagrams sent between the two
//!   addresses are dropped at *send* time (the sender still pays its wire
//!   occupancy — it did transmit) until the pair heals.
//! * **pause / resume** — a GC-style stall: the endpoint stays bound and
//!   its traffic is *deferred* (the kernel keeps buffering), then
//!   re-delivered in arrival order at the resume instant.
//!
//! Lifecycle faults are driven by a [`ChaosSchedule`] of virtual-time
//! events — written explicitly or generated from a seed — and applied
//! through the simulator's ordinary scheduled-event queue, so a run with a
//! fixed schedule and seed replays byte- and time-identically (the same
//! guarantee the link and fault models already give). Per-endpoint
//! downtime is accounted [`crate::net::LinkStats`]-style and snapshot via
//! [`crate::net::Network::chaos_stats`].

use crate::net::{Addr, Datagram};
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One endpoint lifecycle fault (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Kill the endpoint: mailbox and waiting delivery dropped, address
    /// unregistered, subsequent deliveries discarded.
    Crash(Addr),
    /// Bring a crashed endpoint back with fresh state (registered from
    /// its factory, if any) — dup-cache amnesia included.
    Restart(Addr),
    /// Cut the link between two addresses (both directions).
    Partition(Addr, Addr),
    /// Heal a previously cut pair.
    Heal(Addr, Addr),
    /// Stall the endpoint: deliveries are deferred, not lost.
    Pause(Addr),
    /// End a stall, re-delivering everything deferred while paused.
    Resume(Addr),
}

/// A replayable script of lifecycle faults: `(virtual time, event)` pairs
/// applied through the simulator's scheduled-event queue by
/// [`crate::net::Network::apply_chaos`]. Build one explicitly with the
/// window helpers, or generate crash/restart windows from a seed with
/// [`ChaosSchedule::seeded`] — either way, the same schedule + network
/// seed replays byte-identically.
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    events: Vec<(SimTime, ChaosEvent)>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Add one event at `at`.
    pub fn at(mut self, at: SimTime, ev: ChaosEvent) -> Self {
        self.events.push((at, ev));
        self
    }

    /// Crash `addr` at `at` and restart it `downtime` later.
    pub fn crash_window(self, addr: Addr, at: SimTime, downtime: SimTime) -> Self {
        self.at(at, ChaosEvent::Crash(addr))
            .at(at + downtime, ChaosEvent::Restart(addr))
    }

    /// Partition the pair `(a, b)` at `at` and heal it `window` later.
    pub fn partition_window(self, a: Addr, b: Addr, at: SimTime, window: SimTime) -> Self {
        self.at(at, ChaosEvent::Partition(a, b))
            .at(at + window, ChaosEvent::Heal(a, b))
    }

    /// Pause `addr` at `at` and resume it `stall` later.
    pub fn pause_window(self, addr: Addr, at: SimTime, stall: SimTime) -> Self {
        self.at(at, ChaosEvent::Pause(addr))
            .at(at + stall, ChaosEvent::Resume(addr))
    }

    /// Generate `windows` crash/restart windows over `targets` within
    /// `horizon`, deterministically from `seed` (its own RNG — the
    /// network's datagram fault stream is never consulted). Each window
    /// crashes one target at a uniform instant in the first 80% of the
    /// horizon and restarts it after 5–20% of the horizon.
    pub fn seeded(seed: u64, targets: &[Addr], horizon: SimTime, windows: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = ChaosSchedule::new();
        if targets.is_empty() || horizon == SimTime::ZERO {
            return schedule;
        }
        let h = horizon.as_nanos();
        for _ in 0..windows {
            let target = targets[rng.random_range(0..targets.len())];
            let at = SimTime::from_nanos(rng.random_range(0..h * 4 / 5));
            let downtime = SimTime::from_nanos(rng.random_range(h / 20..h / 5));
            schedule = schedule.crash_window(target, at, downtime);
        }
        schedule
    }

    /// The events in application order (sorted by time, ties in insertion
    /// order).
    pub fn events(&self) -> Vec<(SimTime, ChaosEvent)> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|&(at, _)| at);
        evs
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Lifecycle-fault accounting, [`crate::net::LinkStats`]-style. Snapshot
/// via [`crate::net::Network::chaos_stats`]; `downtime` sums every
/// endpoint's crashed **and** paused spans (a currently-down endpoint's
/// open span is counted up to the snapshot instant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Crash events applied.
    pub crashes: u64,
    /// Restart events applied.
    pub restarts: u64,
    /// Partition events applied (pairs cut).
    pub partitions: u64,
    /// Heal events applied (pairs restored).
    pub heals: u64,
    /// Pause events applied.
    pub pauses: u64,
    /// Deliveries discarded because the destination was crashed, plus
    /// sends discarded because the *sender* was crashed.
    pub drops_down: u64,
    /// Sends discarded on a partitioned pair.
    pub drops_partitioned: u64,
    /// Deliveries deferred by a paused destination.
    pub deferred: u64,
    /// Accumulated per-endpoint dead/stalled time, summed over endpoints.
    pub downtime: SimTime,
}

/// Mutable chaos state inside the simulator (lives in `NetInner`, under
/// the single lock). The [`crate::net::Network`] methods orchestrate the
/// parts that touch mailboxes/handlers; this tracks who is down, paused,
/// or partitioned, plus the counters.
pub(crate) struct ChaosState {
    /// Crashed endpoints → crash instant.
    down: HashMap<Addr, SimTime>,
    /// Paused endpoints → pause instant.
    paused: HashMap<Addr, SimTime>,
    /// Deliveries held for paused endpoints, re-injected on resume.
    /// Looked up by address, never iterated.
    deferred: BTreeMap<Addr, Vec<Datagram>>,
    /// Currently cut pairs, normalized `(min, max)`.
    partitions: HashSet<(Addr, Addr)>,
    /// Completed dead/stalled spans per endpoint.
    done_downtime: HashMap<Addr, SimTime>,
    pub(crate) stats: ChaosStats,
}

fn norm(a: Addr, b: Addr) -> (Addr, Addr) {
    (a.min(b), a.max(b))
}

impl ChaosState {
    pub(crate) fn new() -> Self {
        ChaosState {
            down: HashMap::new(),
            paused: HashMap::new(),
            deferred: BTreeMap::new(),
            partitions: HashSet::new(),
            done_downtime: HashMap::new(),
            stats: ChaosStats::default(),
        }
    }

    /// Whether any lifecycle fault is live or ever happened — the fast
    /// path gate so chaos-free runs pay one branch, not five hash probes.
    pub(crate) fn armed(&self) -> bool {
        self.stats.crashes > 0 || self.stats.partitions > 0 || self.stats.pauses > 0
    }

    pub(crate) fn is_down(&self, addr: Addr) -> bool {
        self.down.contains_key(&addr)
    }

    pub(crate) fn is_paused(&self, addr: Addr) -> bool {
        self.paused.contains_key(&addr)
    }

    pub(crate) fn partitioned(&self, a: Addr, b: Addr) -> bool {
        !self.partitions.is_empty() && self.partitions.contains(&norm(a, b))
    }

    /// Mark `addr` crashed at `now`. Returns whether this is a state
    /// change (already-down endpoints crash idempotently).
    pub(crate) fn crash(&mut self, addr: Addr, now: SimTime) -> bool {
        if self.down.contains_key(&addr) {
            return false;
        }
        // A crash while paused ends the stall span (the process is dead,
        // not stalled) and drops whatever the stall had deferred.
        if let Some(since) = self.paused.remove(&addr) {
            *self.done_downtime.entry(addr).or_default() += now - since;
        }
        self.deferred.remove(&addr);
        self.down.insert(addr, now);
        self.stats.crashes += 1;
        true
    }

    /// Mark `addr` restarted at `now`, closing its downtime span.
    /// Returns whether it was down.
    pub(crate) fn restart(&mut self, addr: Addr, now: SimTime) -> bool {
        let Some(since) = self.down.remove(&addr) else {
            return false;
        };
        *self.done_downtime.entry(addr).or_default() += now - since;
        self.stats.restarts += 1;
        true
    }

    pub(crate) fn partition(&mut self, a: Addr, b: Addr) {
        if self.partitions.insert(norm(a, b)) {
            self.stats.partitions += 1;
        }
    }

    pub(crate) fn heal(&mut self, a: Addr, b: Addr) {
        if self.partitions.remove(&norm(a, b)) {
            self.stats.heals += 1;
        }
    }

    pub(crate) fn pause(&mut self, addr: Addr, now: SimTime) {
        if !self.down.contains_key(&addr) && !self.paused.contains_key(&addr) {
            self.paused.insert(addr, now);
            self.stats.pauses += 1;
        }
    }

    /// End a stall: closes the span and hands back the deferred
    /// deliveries (in arrival order) for the caller to re-inject.
    pub(crate) fn resume(&mut self, addr: Addr, now: SimTime) -> Vec<Datagram> {
        let Some(since) = self.paused.remove(&addr) else {
            return Vec::new();
        };
        *self.done_downtime.entry(addr).or_default() += now - since;
        self.deferred.remove(&addr).unwrap_or_default()
    }

    pub(crate) fn defer(&mut self, addr: Addr, dg: Datagram) {
        self.stats.deferred += 1;
        self.deferred.entry(addr).or_default().push(dg);
    }

    /// Dead + stalled time accumulated by `addr`, including a still-open
    /// span up to `now`.
    pub(crate) fn downtime(&self, addr: Addr, now: SimTime) -> SimTime {
        let mut total = self.done_downtime.get(&addr).copied().unwrap_or_default();
        if let Some(&since) = self.down.get(&addr) {
            total += now - since;
        }
        if let Some(&since) = self.paused.get(&addr) {
            total += now - since;
        }
        total
    }

    /// Counter snapshot with `downtime` summed over every endpoint.
    pub(crate) fn snapshot(&self, now: SimTime) -> ChaosStats {
        let mut stats = self.stats;
        let mut downtime = SimTime::ZERO;
        for &t in self.done_downtime.values() {
            downtime += t;
        }
        for &since in self.down.values() {
            downtime += now - since;
        }
        for &since in self.paused.values() {
            downtime += now - since;
        }
        stats.downtime = downtime;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_by_time_with_stable_ties() {
        let s = ChaosSchedule::new()
            .at(SimTime::from_millis(5), ChaosEvent::Crash(1))
            .at(SimTime::from_millis(1), ChaosEvent::Pause(2))
            .at(SimTime::from_millis(5), ChaosEvent::Restart(1));
        let evs = s.events();
        assert_eq!(evs[0], (SimTime::from_millis(1), ChaosEvent::Pause(2)));
        assert_eq!(evs[1], (SimTime::from_millis(5), ChaosEvent::Crash(1)));
        assert_eq!(evs[2], (SimTime::from_millis(5), ChaosEvent::Restart(1)));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn window_helpers_expand_to_event_pairs() {
        let s = ChaosSchedule::new()
            .crash_window(7, SimTime::from_millis(10), SimTime::from_millis(3))
            .partition_window(1, 2, SimTime::from_millis(1), SimTime::from_millis(2))
            .pause_window(9, SimTime::from_millis(4), SimTime::from_millis(1));
        let evs = s.events();
        assert!(evs.contains(&(SimTime::from_millis(10), ChaosEvent::Crash(7))));
        assert!(evs.contains(&(SimTime::from_millis(13), ChaosEvent::Restart(7))));
        assert!(evs.contains(&(SimTime::from_millis(1), ChaosEvent::Partition(1, 2))));
        assert!(evs.contains(&(SimTime::from_millis(3), ChaosEvent::Heal(1, 2))));
        assert!(evs.contains(&(SimTime::from_millis(4), ChaosEvent::Pause(9))));
        assert!(evs.contains(&(SimTime::from_millis(5), ChaosEvent::Resume(9))));
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_bounded() {
        let targets = [100, 200, 300];
        let horizon = SimTime::from_millis(100);
        let a = ChaosSchedule::seeded(42, &targets, horizon, 4);
        let b = ChaosSchedule::seeded(42, &targets, horizon, 4);
        assert_eq!(a.events(), b.events(), "same seed, same schedule");
        assert_eq!(a.len(), 8, "each window is a crash + a restart");
        for (at, ev) in a.events() {
            assert!(at <= horizon, "{at} past horizon");
            match ev {
                ChaosEvent::Crash(t) | ChaosEvent::Restart(t) => {
                    assert!(targets.contains(&t));
                }
                other => panic!("seeded schedule only crashes/restarts, got {other:?}"),
            }
        }
        let c = ChaosSchedule::seeded(43, &targets, horizon, 4);
        assert_ne!(a.events(), c.events(), "different seed, different script");
    }

    #[test]
    fn seeded_schedule_handles_degenerate_inputs() {
        assert!(ChaosSchedule::seeded(1, &[], SimTime::from_millis(1), 3).is_empty());
        assert!(ChaosSchedule::seeded(1, &[5], SimTime::ZERO, 3).is_empty());
    }

    #[test]
    fn state_tracks_downtime_spans() {
        let mut st = ChaosState::new();
        assert!(st.crash(5, SimTime::from_millis(10)));
        assert!(!st.crash(5, SimTime::from_millis(11)), "idempotent");
        assert!(st.is_down(5));
        assert_eq!(
            st.downtime(5, SimTime::from_millis(14)),
            SimTime::from_millis(4),
            "open span counts up to the probe instant"
        );
        assert!(st.restart(5, SimTime::from_millis(15)));
        assert!(!st.restart(5, SimTime::from_millis(16)), "already up");
        assert_eq!(
            st.downtime(5, SimTime::from_millis(99)),
            SimTime::from_millis(5)
        );
        let snap = st.snapshot(SimTime::from_millis(99));
        assert_eq!(snap.crashes, 1);
        assert_eq!(snap.restarts, 1);
        assert_eq!(snap.downtime, SimTime::from_millis(5));
    }

    #[test]
    fn pause_spans_count_as_downtime_and_crash_preempts_pause() {
        let mut st = ChaosState::new();
        st.pause(3, SimTime::from_millis(1));
        st.defer(
            3,
            Datagram {
                from: 9,
                payload: vec![1],
                at: SimTime::from_millis(2),
            },
        );
        // Crash mid-stall: the pause span closes, the deferred datagram
        // is lost with the process.
        assert!(st.crash(3, SimTime::from_millis(4)));
        assert!(st.restart(3, SimTime::from_millis(6)));
        assert!(st.resume(3, SimTime::from_millis(7)).is_empty());
        assert_eq!(
            st.downtime(3, SimTime::from_millis(10)),
            SimTime::from_millis(5),
            "3ms paused + 2ms dead"
        );
    }

    #[test]
    fn partitions_are_symmetric_and_healable() {
        let mut st = ChaosState::new();
        st.partition(8, 2);
        assert!(st.partitioned(2, 8));
        assert!(st.partitioned(8, 2));
        assert!(!st.partitioned(2, 9));
        st.heal(2, 8);
        assert!(!st.partitioned(2, 8));
        assert_eq!(st.stats.partitions, 1);
        assert_eq!(st.stats.heals, 1);
    }
}

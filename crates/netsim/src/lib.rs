//! Deterministic virtual-time network simulator and 1997 platform models.
//!
//! The paper measures two testbeds it is impossible to reassemble today:
//!
//! * two Sun IPX 4/50 workstations (SunOS 4.1.4) on a 100 Mbit/s ATM link
//!   (Fore ESA-200 adapters), and
//! * two 166 MHz Pentium PCs (Linux) on 100 Mbit/s Fast-Ethernet.
//!
//! This crate substitutes for them in two parts:
//!
//! 1. [`net`] / [`udp`] / [`tcp`] — an event-driven, virtual-time network
//!    whose links are *shared serial resources*: every send (UDP and TCP
//!    alike) occupies its sender's wire for `bytes·ns_per_byte` before the
//!    one-way latency, back-to-back sends queue cumulatively behind each
//!    other, receive queues are bounded drop-tail, and seeded fault
//!    injection (loss, duplication, reordering) composes on top — see the
//!    "Link model" section of [`net`]. Over this the `specrpc-rpc`
//!    protocol layer runs deterministically;
//! 2. [`platform`] — per-platform cost models that convert **operation
//!    counts measured from real executions** of the generic and specialized
//!    marshaling code ([`specrpc_xdr::OpCounts`]) into modeled milliseconds.
//!    The counts are real; only the per-event weights (CPU speed, memory
//!    bandwidth, wire speed) are modeled. DESIGN.md documents why this
//!    substitution preserves the paper's *shape* (who wins, by what factor,
//!    where the curves bend).

#![deny(unsafe_code)]

pub mod chaos;
pub mod fault;
pub mod inthash;
pub mod net;
pub mod platform;
pub mod tcp;
pub mod time;
pub mod udp;

pub use chaos::{ChaosEvent, ChaosSchedule, ChaosStats};
pub use fault::FaultConfig;
pub use net::{Endpoint, LinkStats, Network, NetworkConfig, UDP_IP_HEADER_BYTES};
pub use platform::{Platform, PlatformCosts};
pub use time::SimTime;

//! Operation counters for the platform cost model.
//!
//! The paper measures its two platforms (Sun IPX 4/50 + SunOS + ATM and
//! 166 MHz Pentium + Linux + Fast-Ethernet) on real 1997 hardware. We cannot,
//! so instead every micro-layer in this crate (and every compiled-stub
//! micro-op in `specrpc-tempo`) increments an [`OpCounts`] as it executes.
//! The `specrpc-netsim` platform profiles then weight those *measured*
//! counts with per-platform costs to regenerate the paper's tables. The
//! counts are real — produced by actually running the generic or specialized
//! code — only the per-operation weights are modeled.

use std::ops::{Add, AddAssign};

/// Counts of the architectural events the paper's analysis talks about.
///
/// * `dispatches` — run-time `x_op` switches (Figure 2) and similar
///   interpretive branches eliminated by specialization (§3.1);
/// * `overflow_checks` — `x_handy` decrement-and-test operations
///   (Figure 3) eliminated by specialization (§3.2);
/// * `status_checks` — success/failure tests on layer return values
///   (Figure 4) folded by static-return propagation (§3.3);
/// * `layer_calls` — crossings of micro-layer function boundaries
///   (the call chain of Figure 1) removed by inlining;
/// * `byteorder_ops` — `htonl`/`ntohl` conversions (these *survive*
///   specialization: the data is dynamic);
/// * `mem_moves` — bytes actually copied between argument memory and the
///   XDR buffer (these also survive; they are why speedup decays for large
///   arrays on the IPX, §5 "Marshaling");
/// * `stub_ops` — micro-ops executed by a compiled specialized stub
///   (the residual straight-line code of Figure 5).
///
/// Heap allocations are not an op count: `tests/cost_vector.rs` counts
/// them process-wide, with a counting global allocator, per workload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// Run-time encode/decode/free dispatches.
    pub dispatches: u64,
    /// Buffer overflow (`x_handy`) checks.
    pub overflow_checks: u64,
    /// Exit-status propagation tests.
    pub status_checks: u64,
    /// Micro-layer function-call boundary crossings.
    pub layer_calls: u64,
    /// Byte-order conversions performed.
    pub byteorder_ops: u64,
    /// Bytes moved between user memory and XDR buffers.
    pub mem_moves: u64,
    /// Residual micro-ops executed by specialized stubs.
    pub stub_ops: u64,
}

impl OpCounts {
    /// A zeroed counter.
    pub const fn new() -> Self {
        OpCounts {
            dispatches: 0,
            overflow_checks: 0,
            status_checks: 0,
            layer_calls: 0,
            byteorder_ops: 0,
            mem_moves: 0,
            stub_ops: 0,
        }
    }

    /// Field-wise difference against an earlier snapshot (all counters are
    /// monotone, so `later.since(earlier)` is the work done in between).
    pub fn since(&self, earlier: OpCounts) -> OpCounts {
        OpCounts {
            dispatches: self.dispatches - earlier.dispatches,
            overflow_checks: self.overflow_checks - earlier.overflow_checks,
            status_checks: self.status_checks - earlier.status_checks,
            layer_calls: self.layer_calls - earlier.layer_calls,
            byteorder_ops: self.byteorder_ops - earlier.byteorder_ops,
            mem_moves: self.mem_moves - earlier.mem_moves,
            stub_ops: self.stub_ops - earlier.stub_ops,
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = OpCounts::new();
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            dispatches: self.dispatches + rhs.dispatches,
            overflow_checks: self.overflow_checks + rhs.overflow_checks,
            status_checks: self.status_checks + rhs.status_checks,
            layer_calls: self.layer_calls + rhs.layer_calls,
            byteorder_ops: self.byteorder_ops + rhs.byteorder_ops,
            mem_moves: self.mem_moves + rhs.mem_moves,
            stub_ops: self.stub_ops + rhs.stub_ops,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        assert_eq!(OpCounts::new(), OpCounts::default());
    }

    #[test]
    fn add_sums_fieldwise() {
        let a = OpCounts {
            dispatches: 1,
            overflow_checks: 2,
            status_checks: 3,
            layer_calls: 4,
            byteorder_ops: 5,
            mem_moves: 6,
            stub_ops: 7,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.dispatches, 2);
        assert_eq!(c.mem_moves, 12);
        assert_eq!(
            (
                c.overflow_checks,
                c.status_checks,
                c.layer_calls,
                c.byteorder_ops,
                c.stub_ops
            ),
            (4, 6, 8, 10, 14)
        );
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let mut later = OpCounts::new();
        later.stub_ops = 10;
        later.mem_moves = 40;
        let mut earlier = OpCounts::new();
        earlier.stub_ops = 4;
        let d = later.since(earlier);
        assert_eq!(d.stub_ops, 6);
        assert_eq!(d.mem_moves, 40);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = OpCounts::new();
        a.dispatches = 10;
        let mut b = a;
        b += a;
        assert_eq!(b, a + a);
    }

    #[test]
    fn reset_zeroes() {
        let mut a = OpCounts::new();
        a.stub_ops = 99;
        a.reset();
        assert_eq!(a, OpCounts::new());
    }
}

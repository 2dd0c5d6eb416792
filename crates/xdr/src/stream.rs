//! The generic XDR stream interface.
//!
//! In the 1984 C code, an `XDR` handle carries an operation tag (`x_op`) and
//! a vtable of function pointers (`x_ops`) through which every primitive
//! indirects — `XDR_PUTLONG(xdrs, lp)` expands to
//! `(*xdrs->x_ops->x_putlong)(xdrs, lp)`. The honest Rust analog of that
//! indirection is a trait object: primitives take `&mut dyn XdrStream`, so
//! the virtual dispatch the paper's specializer removes is really present in
//! the generic baseline.

use crate::cost::OpCounts;
use crate::error::XdrResult;

/// Direction tag carried by every XDR stream (`x_op` in the C code).
///
/// The per-primitive run-time dispatch on this tag (Figure 2 of the paper)
/// is the first specialization opportunity (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XdrOp {
    /// Serialize host data into the stream (`XDR_ENCODE`).
    Encode,
    /// Deserialize stream data into host memory (`XDR_DECODE`).
    Decode,
    /// Release memory owned by a decoded value (`XDR_FREE`).
    ///
    /// In Rust, `Drop` makes this mode almost always a no-op, but it is kept
    /// so the three-way dispatch structure of the original is preserved.
    Free,
}

impl XdrOp {
    /// Human-readable name matching the C constant.
    pub fn as_str(self) -> &'static str {
        match self {
            XdrOp::Encode => "XDR_ENCODE",
            XdrOp::Decode => "XDR_DECODE",
            XdrOp::Free => "XDR_FREE",
        }
    }
}

/// The micro-layer vtable every concrete stream implements
/// (memory streams, record-marking streams, …).
///
/// Methods mirror the `xdr_ops` structure of the original: `putlong`,
/// `getlong`, `putbytes`, `getbytes`, `getpos`, `setpos`. Streams also own
/// an [`OpCounts`] so that executing generic code *measures* the
/// interpretive events the platform cost model weights.
///
/// Each count rides a call the layering already makes, so counting adds
/// no indirect call of its own: a filter routine's layer crossings and
/// its Figure-2 dispatch are counted by [`XdrStream::enter`], the read of
/// `x_op` that routine makes anyway; overflow checks, byte-order
/// conversions and bytes moved by the `putlong` / `getlong` / `putbytes` /
/// `getbytes` that do the work; and an element run's status checks once,
/// after the run (see [`crate::composite::xdr_array`]). Per element of an
/// `xdr_array(…, xdr_int)` that is two stream calls — the entry and the
/// word — for the same counts the original's layering incurs.
pub trait XdrStream {
    /// The stream's current direction tag (`xdrs->x_op`).
    fn op(&self) -> XdrOp;

    /// Enter a filter routine: count `layers` micro-layer crossings (the
    /// routine plus any forwarder above it, like `xdr_int` over
    /// `xdr_long`) and one Figure-2 dispatch, then return the direction
    /// tag to dispatch on — one indirect call where reading `x_op` alone
    /// would take one.
    fn enter(&mut self, layers: u64) -> XdrOp {
        let c = self.counts_mut();
        c.layer_calls += layers;
        c.dispatches += 1;
        self.op()
    }

    /// Write one 32-bit XDR "long" in network byte order
    /// (`x_putlong`; Figure 3's `xdrmem_putlong` is the memory-stream
    /// implementation).
    fn putlong(&mut self, v: i32) -> XdrResult;

    /// Read one 32-bit XDR "long" from network byte order (`x_getlong`).
    fn getlong(&mut self) -> XdrResult<i32>;

    /// Write raw bytes (`x_putbytes`). The caller is responsible for XDR
    /// unit padding (see [`crate::composite::xdr_opaque`]).
    fn putbytes(&mut self, bytes: &[u8]) -> XdrResult;

    /// Read exactly `out.len()` raw bytes (`x_getbytes`).
    fn getbytes(&mut self, out: &mut [u8]) -> XdrResult;

    /// Current stream position in bytes from the origin (`x_getpostn`).
    fn getpos(&self) -> usize;

    /// Reposition the stream (`x_setpostn`). Used by the RPC layer to
    /// back-patch record headers and to rewind for retransmission.
    fn setpos(&mut self, pos: usize) -> XdrResult;

    /// Mutable access to the stream's operation counters.
    fn counts_mut(&mut self) -> &mut OpCounts;

    /// Read access to the stream's operation counters.
    fn counts(&self) -> &OpCounts;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_match_c_constants() {
        assert_eq!(XdrOp::Encode.as_str(), "XDR_ENCODE");
        assert_eq!(XdrOp::Decode.as_str(), "XDR_DECODE");
        assert_eq!(XdrOp::Free.as_str(), "XDR_FREE");
    }

    #[test]
    fn op_is_copy_and_comparable() {
        let a = XdrOp::Encode;
        let b = a;
        assert_eq!(a, b);
        assert_ne!(XdrOp::Encode, XdrOp::Decode);
    }
}

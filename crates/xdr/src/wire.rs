//! The zero-copy wire lane: a monomorphic buffer writer.
//!
//! The generic lane ([`crate::mem::XdrMem`] behind `&mut dyn XdrStream`)
//! deliberately keeps the 1984 interpretive structure — virtual dispatch,
//! per-item overflow checks, per-layer status propagation — because that is
//! the baseline the paper measures against. This module is the other lane:
//! what the *specialized* runtime uses once Tempo has removed the
//! interpretation. It has
//!
//! * **no trait objects** — every method is a direct, inlinable call on a
//!   concrete type (the monomorphic fast lane);
//! * **exact-size preallocation** driven by the [`crate::sizes`] arithmetic
//!   (the paper's §3 statically-known-size exploitation): one buffer of
//!   exactly the wire length, acquired once and rewound per call.
//!
//! That a warm call then allocates nothing is counted outside the wire
//! path, process-wide: `tests/cost_vector.rs` pins it per workload.

/// An owned, reusable wire buffer for the zero-copy encode lane.
///
/// Unlike [`crate::mem::XdrMem`] this is not an [`crate::XdrStream`]: there
/// is no operation tag and no vtable; a compiled stub writes the image in
/// place through [`WireBuf::bytes_mut`]. The
/// buffer is acquired once at its exact wire length and *rewound* for every
/// subsequent message (`x_setpostn`-style reuse), so steady-state encoding
/// performs no heap allocation.
#[derive(Debug, Default)]
pub struct WireBuf {
    buf: Vec<u8>,
}

impl WireBuf {
    /// An empty buffer (first [`WireBuf::reset`] performs the one exact
    /// allocation).
    pub fn new() -> Self {
        WireBuf::default()
    }

    /// Rewind for a fresh message of exactly `wire_len` bytes: the buffer
    /// is zero-filled up to `wire_len` and truncated to it. Grows only
    /// when `wire_len` exceeds the current capacity — in steady state this
    /// is a pure rewind.
    pub fn reset(&mut self, wire_len: usize) {
        self.buf.clear();
        self.rewind(wire_len);
    }

    /// Rewind for a fresh message of exactly `wire_len` bytes **without**
    /// refilling it: for a writer that stores every byte of the image
    /// itself (a compiled stub does — it zeroes the ranges none of its ops
    /// write). The previous message's bytes stay until overwritten; only
    /// bytes beyond the previous length are zeroed. Grows as
    /// [`WireBuf::reset`] does.
    pub fn rewind(&mut self, wire_len: usize) {
        self.buf.resize(wire_len, 0);
    }

    /// The current wire image.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable access to the wire image (what a compiled stub writes into
    /// in one pass — header and arguments together, single-copy).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Current wire length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer currently holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity of the underlying allocation.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_prealloc_then_rewind_does_not_allocate() {
        let mut w = WireBuf::new();
        w.reset(64);
        assert_eq!(w.capacity(), 64, "one exact allocation");
        let at = w.bytes().as_ptr();
        for _ in 0..10 {
            w.reset(64);
            w.bytes_mut()[0] = 7;
        }
        assert_eq!(
            (w.bytes().as_ptr(), w.capacity()),
            (at, 64),
            "rewinds are free"
        );
        w.reset(128);
        assert!(w.capacity() >= 128, "growth");
    }

    #[test]
    fn rewind_keeps_bytes_and_counts_like_reset() {
        let mut w = WireBuf::new();
        w.rewind(8);
        assert_eq!(w.capacity(), 8, "one exact allocation");
        let at = w.bytes().as_ptr();
        assert_eq!(w.bytes(), &[0u8; 8]);
        w.bytes_mut()[4..].copy_from_slice(&[1, 2, 3, 4]);
        w.rewind(8);
        assert_eq!(w.bytes(), &[0, 0, 0, 0, 1, 2, 3, 4], "no refill");
        w.rewind(4);
        w.rewind(8);
        assert_eq!(w.bytes(), &[0u8; 8], "regrown bytes are zeroed");
        assert_eq!(
            (w.bytes().as_ptr(), w.capacity()),
            (at, 8),
            "rewinds are free"
        );
        w.rewind(64);
        assert!(w.capacity() >= 64, "growth");
    }
}

//! The zero-copy wire lane: monomorphic buffer writer/reader.
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
//!   exactly the wire length, acquired once and rewound per call;
//! * **borrowed-slice decode** — [`WireView`] hands out `&[u8]` views of
//!   opaque/array payloads straight from the received datagram; bytes are
//!   copied only at the API boundary where the caller needs ownership
//!   (the paper's §3 copy elimination);
//! * **allocation/copy accounting** — every buffer acquisition and byte
//!   move is folded into an [`OpCounts`] (`heap_allocs` / `mem_moves`), so
//!   the cost model can price them, a client's counters give bytes-copied
//!   and allocs-per-call, and tests can pin "zero allocations in steady
//!   state".

use crate::cost::OpCounts;
use crate::error::{XdrError, XdrResult};
use crate::sizes::BYTES_PER_XDR_UNIT;

/// An owned, reusable wire buffer for the zero-copy encode lane.
///
/// Unlike [`crate::mem::XdrMem`] this is not an [`crate::XdrStream`]: there
/// is no operation tag and no vtable, only direct monomorphic writes. The
/// buffer is acquired once at its exact wire length and *rewound* for every
/// subsequent message (`x_setpostn`-style reuse), so steady-state encoding
/// performs no heap allocation.
#[derive(Debug, Default)]
pub struct WireBuf {
    buf: Vec<u8>,
    counts: OpCounts,
}

impl WireBuf {
    /// An empty buffer (first [`WireBuf::reset`] performs the one exact
    /// allocation).
    pub fn new() -> Self {
        WireBuf::default()
    }

    /// A buffer preallocated to exactly `wire_len` bytes, zero-filled.
    pub fn with_exact(wire_len: usize) -> Self {
        let mut w = WireBuf::new();
        w.reset(wire_len);
        w
    }

    /// Rewind for a fresh message of exactly `wire_len` bytes: the buffer
    /// is zero-filled up to `wire_len` and truncated to it. Grows (and
    /// counts a heap allocation) only when `wire_len` exceeds the current
    /// capacity — in steady state this is a pure rewind.
    pub fn reset(&mut self, wire_len: usize) {
        self.buf.clear();
        self.rewind(wire_len);
    }

    /// Rewind for a fresh message of exactly `wire_len` bytes **without**
    /// refilling it: for a writer that stores every byte of the image
    /// itself (a compiled stub does — it zeroes the ranges none of its ops
    /// write). The previous message's bytes stay until overwritten; only
    /// bytes beyond the previous length are zeroed. Allocation accounting
    /// as in [`WireBuf::reset`].
    pub fn rewind(&mut self, wire_len: usize) {
        if self.buf.capacity() < wire_len {
            self.counts.heap_allocs += 1;
        }
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

    /// Write one 32-bit word in network byte order at byte offset `off`.
    #[inline]
    pub fn put_u32(&mut self, off: usize, v: u32) -> XdrResult {
        match self.buf.get_mut(off..off + BYTES_PER_XDR_UNIT) {
            Some(dst) => {
                dst.copy_from_slice(&v.to_be_bytes());
                self.counts.mem_moves += BYTES_PER_XDR_UNIT as u64;
                Ok(())
            }
            None => Err(XdrError::Overflow {
                needed: BYTES_PER_XDR_UNIT,
                remaining: self.buf.len().saturating_sub(off),
            }),
        }
    }

    /// Write one signed 32-bit word in network byte order.
    #[inline]
    pub fn put_i32(&mut self, off: usize, v: i32) -> XdrResult {
        self.put_u32(off, v as u32)
    }

    /// Write raw bytes at `off` (caller is responsible for XDR padding).
    #[inline]
    pub fn put_bytes(&mut self, off: usize, src: &[u8]) -> XdrResult {
        match self.buf.get_mut(off..off + src.len()) {
            Some(dst) => {
                dst.copy_from_slice(src);
                self.counts.mem_moves += src.len() as u64;
                Ok(())
            }
            None => Err(XdrError::Overflow {
                needed: src.len(),
                remaining: self.buf.len().saturating_sub(off),
            }),
        }
    }

    /// Bulk-encode a slice of 32-bit integers in network byte order
    /// starting at `off` — the single-copy array lane (one pass, no
    /// per-element dispatch or overflow check).
    #[inline]
    pub fn put_i32_slice(&mut self, off: usize, src: &[i32]) -> XdrResult {
        let nbytes = src.len() * BYTES_PER_XDR_UNIT;
        let Some(dst) = self.buf.get_mut(off..off + nbytes) else {
            return Err(XdrError::Overflow {
                needed: nbytes,
                remaining: self.buf.len().saturating_sub(off),
            });
        };
        for (chunk, v) in dst.chunks_exact_mut(BYTES_PER_XDR_UNIT).zip(src) {
            chunk.copy_from_slice(&v.to_be_bytes());
        }
        self.counts.mem_moves += nbytes as u64;
        Ok(())
    }

    /// A borrowed zero-copy reader over the current wire image.
    pub fn view(&self) -> WireView<'_> {
        WireView::new(&self.buf)
    }

    /// Allocation/copy counters accumulated by this buffer.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Mutable access to the counters (for folding into a caller's total).
    pub fn counts_mut(&mut self) -> &mut OpCounts {
        &mut self.counts
    }
}

/// A borrowed, zero-copy reader over received wire bytes.
///
/// Reads are monomorphic and positionally explicit; array/opaque payloads
/// come back as `&'a [u8]` **views into the original buffer** — nothing is
/// copied until the caller asks for ownership (e.g.
/// [`WireView::read_i32s_into`], which is the single API-boundary copy).
#[derive(Debug, Clone, Copy)]
pub struct WireView<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireView<'a> {
    /// A view over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireView { buf, pos: 0 }
    }

    /// Total length of the viewed message.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the viewed message is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reposition the cursor.
    pub fn set_pos(&mut self, pos: usize) -> XdrResult {
        if pos > self.buf.len() {
            return Err(XdrError::BadPosition(pos));
        }
        self.pos = pos;
        Ok(())
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one 32-bit word in network byte order, advancing the cursor.
    #[inline]
    pub fn get_u32(&mut self) -> XdrResult<u32> {
        match self.buf.get(self.pos..self.pos + BYTES_PER_XDR_UNIT) {
            Some(src) => {
                let v = u32::from_be_bytes([src[0], src[1], src[2], src[3]]);
                self.pos += BYTES_PER_XDR_UNIT;
                Ok(v)
            }
            None => Err(XdrError::Underflow {
                needed: BYTES_PER_XDR_UNIT,
                remaining: self.remaining(),
            }),
        }
    }

    /// Read one signed 32-bit word in network byte order.
    #[inline]
    pub fn get_i32(&mut self) -> XdrResult<i32> {
        self.get_u32().map(|v| v as i32)
    }

    /// Borrow `len` raw bytes from the message without copying, advancing
    /// the cursor — the zero-copy opaque/array payload view.
    #[inline]
    pub fn bytes(&mut self, len: usize) -> XdrResult<&'a [u8]> {
        match self.buf.get(self.pos..self.pos + len) {
            Some(src) => {
                self.pos += len;
                Ok(src)
            }
            None => Err(XdrError::Underflow {
                needed: len,
                remaining: self.remaining(),
            }),
        }
    }

    /// Decode `out.len()` big-endian 32-bit integers into `out` in one
    /// bulk pass — the single copy at the API boundary where the caller
    /// needs ownership. `counts` records the bytes moved.
    #[inline]
    pub fn read_i32s_into(&mut self, out: &mut [i32], counts: &mut OpCounts) -> XdrResult {
        let nbytes = out.len() * BYTES_PER_XDR_UNIT;
        let src = self.bytes(nbytes)?;
        for (v, chunk) in out.iter_mut().zip(src.chunks_exact(BYTES_PER_XDR_UNIT)) {
            *v = i32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        counts.mem_moves += nbytes as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::XdrMem;
    use crate::primitives::xdr_int;

    #[test]
    fn exact_prealloc_then_rewind_does_not_allocate() {
        let mut w = WireBuf::with_exact(64);
        assert_eq!(w.counts().heap_allocs, 1, "one exact allocation");
        for _ in 0..10 {
            w.reset(64);
            w.put_u32(0, 7).unwrap();
        }
        assert_eq!(w.counts().heap_allocs, 1, "rewinds are free");
        w.reset(128);
        assert_eq!(w.counts().heap_allocs, 2, "growth counts");
    }

    #[test]
    fn rewind_keeps_bytes_and_counts_like_reset() {
        let mut w = WireBuf::new();
        w.rewind(8);
        assert_eq!(w.counts().heap_allocs, 1, "one exact allocation");
        assert_eq!(w.bytes(), &[0u8; 8]);
        w.put_u32(4, 0x0102_0304).unwrap();
        w.rewind(8);
        assert_eq!(w.bytes(), &[0, 0, 0, 0, 1, 2, 3, 4], "no refill");
        w.rewind(4);
        w.rewind(8);
        assert_eq!(w.bytes(), &[0u8; 8], "regrown bytes are zeroed");
        assert_eq!(w.counts().heap_allocs, 1, "rewinds are free");
        w.rewind(64);
        assert_eq!(w.counts().heap_allocs, 2, "growth counts");
    }

    #[test]
    fn put_matches_generic_lane_bytes() {
        // The monomorphic writer must produce byte-identical XDR to the
        // interpretive stream for the same values.
        let vals = [0i32, -1, 0x0102_0304, i32::MIN, i32::MAX];
        let mut gen = XdrMem::encoder(vals.len() * 4);
        for v in vals {
            let mut x = v;
            xdr_int(&mut gen, &mut x).unwrap();
        }
        let mut fast = WireBuf::with_exact(vals.len() * 4);
        fast.put_i32_slice(0, &vals).unwrap();
        assert_eq!(gen.bytes(), fast.bytes());
    }

    #[test]
    fn put_out_of_range_is_detected() {
        let mut w = WireBuf::with_exact(4);
        assert!(w.put_u32(4, 1).is_err());
        assert!(w.put_i32_slice(0, &[1, 2]).is_err());
        assert!(w.put_bytes(3, b"ab").is_err());
    }

    #[test]
    fn view_reads_back_scalars_and_slices() {
        let mut w = WireBuf::with_exact(12);
        w.put_i32(0, -5).unwrap();
        w.put_i32_slice(4, &[6, 7]).unwrap();
        let mut v = w.view();
        assert_eq!(v.get_i32().unwrap(), -5);
        let mut out = [0i32; 2];
        let mut c = OpCounts::new();
        v.read_i32s_into(&mut out, &mut c).unwrap();
        assert_eq!(out, [6, 7]);
        assert_eq!(c.mem_moves, 8);
        assert_eq!(v.remaining(), 0);
    }

    #[test]
    fn view_bytes_are_borrowed_not_copied() {
        let wire = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut v = WireView::new(&wire);
        let payload = v.bytes(8).unwrap();
        // Same address range: a view into the original buffer.
        assert!(std::ptr::eq(payload.as_ptr(), wire.as_ptr()));
        assert!(v.bytes(1).is_err(), "past the end");
    }

    #[test]
    fn view_underflow_and_positioning() {
        let wire = [0u8; 6];
        let mut v = WireView::new(&wire);
        assert!(v.get_u32().is_ok());
        assert!(matches!(
            v.get_u32().unwrap_err(),
            XdrError::Underflow { needed: 4, .. }
        ));
        v.set_pos(0).unwrap();
        assert_eq!(v.remaining(), 6);
        assert!(v.set_pos(7).is_err());
    }

    #[test]
    fn view_decodes_generic_lane_output() {
        // Cross-lane: bytes produced by the layered generic encoder decode
        // identically through the zero-copy view.
        let mut gen = XdrMem::encoder(64);
        for v in [3i32, -9, 1 << 20] {
            let mut x = v;
            xdr_int(&mut gen, &mut x).unwrap();
        }
        let mut view = WireView::new(gen.bytes());
        assert_eq!(view.get_i32().unwrap(), 3);
        assert_eq!(view.get_i32().unwrap(), -9);
        assert_eq!(view.get_i32().unwrap(), 1 << 20);
    }
}

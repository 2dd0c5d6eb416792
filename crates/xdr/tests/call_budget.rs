//! The generic lane's per-element call budget, refereed by a probe stream.
//!
//! Sun's layered path makes two indirect calls per `xdr_array(…, xdr_int)`
//! element: the `x_op` read of Figure 2 and `XDR_PUTLONG` / `XDR_GETLONG`.
//! The [`Probe`] wraps an [`XdrMem`] and counts every trait-method call it
//! receives — an overridden [`XdrStream::enter`] is one call, whatever the
//! inner stream does under it — so a count taken in a stream call of its
//! own shows here as a third call per element. The same runs pin the
//! [`OpCounts`] the platform model weights, per element and for the
//! length word, so folding counts into fewer calls cannot change them.

use specrpc_xdr::composite::{xdr_array, xdr_string};
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::{OpCounts, XdrError, XdrOp, XdrResult, XdrStream};
use std::cell::Cell;

/// An [`XdrMem`] that counts the stream calls made on it.
struct Probe {
    inner: XdrMem,
    calls: Cell<u64>,
}

impl Probe {
    fn new(inner: XdrMem) -> Self {
        Probe {
            inner,
            calls: Cell::new(0),
        }
    }

    fn call(&self) {
        self.calls.set(self.calls.get() + 1);
    }

    fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl XdrStream for Probe {
    fn op(&self) -> XdrOp {
        self.call();
        self.inner.op()
    }
    fn enter(&mut self, layers: u64) -> XdrOp {
        self.call();
        self.inner.enter(layers)
    }
    fn putlong(&mut self, v: i32) -> XdrResult {
        self.call();
        self.inner.putlong(v)
    }
    fn getlong(&mut self) -> XdrResult<i32> {
        self.call();
        self.inner.getlong()
    }
    fn putbytes(&mut self, bytes: &[u8]) -> XdrResult {
        self.call();
        self.inner.putbytes(bytes)
    }
    fn getbytes(&mut self, out: &mut [u8]) -> XdrResult {
        self.call();
        self.inner.getbytes(out)
    }
    fn getpos(&self) -> usize {
        self.call();
        self.inner.getpos()
    }
    fn setpos(&mut self, pos: usize) -> XdrResult {
        self.call();
        self.inner.setpos(pos)
    }
    fn counts_mut(&mut self) -> &mut OpCounts {
        self.call();
        self.inner.counts_mut()
    }
    fn counts(&self) -> &OpCounts {
        self.call();
        self.inner.counts()
    }
}

const N: u64 = 100;

/// One `xdr_int` element: `xdr_int` and `xdr_long`'s crossings, one
/// dispatch, the array's status check and one word's check, swap and copy.
const PER_ELEMENT: OpCounts = OpCounts {
    layer_calls: 2,
    dispatches: 1,
    status_checks: 1,
    overflow_checks: 1,
    byteorder_ops: 1,
    mem_moves: 4,
    stub_ops: 0,
};

/// The array's own entry plus its length word through `xdr_u_int`.
const LENGTH_WORD: OpCounts = OpCounts {
    layer_calls: 3,
    dispatches: 2,
    status_checks: 0,
    overflow_checks: 1,
    byteorder_ops: 1,
    mem_moves: 4,
    stub_ops: 0,
};

/// Stream calls outside the elements: the array's entry, the length
/// word's entry and word, and the run's one status-check count.
const CONSTANT_CALLS: u64 = 4;

fn times(c: OpCounts, k: u64) -> OpCounts {
    OpCounts {
        layer_calls: c.layer_calls * k,
        dispatches: c.dispatches * k,
        status_checks: c.status_checks * k,
        overflow_checks: c.overflow_checks * k,
        byteorder_ops: c.byteorder_ops * k,
        mem_moves: c.mem_moves * k,
        stub_ops: c.stub_ops * k,
    }
}

#[test]
fn an_int_element_costs_two_stream_calls_and_the_layered_counts() {
    let data: Vec<i32> = (0..N as i32).map(|i| i * 7 - 300).collect();
    let expected = LENGTH_WORD + times(PER_ELEMENT, N);

    let mut enc = Probe::new(XdrMem::encoder(4 + 4 * N as usize));
    let mut v = data.clone();
    xdr_array(&mut enc, &mut v, 1000, xdr_int).unwrap();
    assert_eq!(enc.calls(), 2 * N + CONSTANT_CALLS, "encode stream calls");
    assert_eq!(*enc.inner.counts(), expected, "encode counts");

    let mut dec = Probe::new(XdrMem::decoder(enc.inner.bytes()));
    let mut out: Vec<i32> = Vec::new();
    xdr_array(&mut dec, &mut out, 1000, xdr_int).unwrap();
    assert_eq!(out, data);
    assert_eq!(dec.calls(), 2 * N + CONSTANT_CALLS, "decode stream calls");
    assert_eq!(*dec.inner.counts(), expected, "decode counts");
}

#[test]
fn an_overflow_at_element_k_counts_every_element_tried() {
    for k in [0u64, 1, 37, N - 1] {
        // Room for the length word and `k` elements: element `k` fails.
        let mut enc = Probe::new(XdrMem::encoder(4 + 4 * k as usize));
        let mut v = vec![5i32; N as usize];
        let err = xdr_array(&mut enc, &mut v, 1000, xdr_int).unwrap_err();
        assert!(matches!(err, XdrError::Overflow { .. }), "{err:?}");
        let failed = OpCounts {
            layer_calls: 2,
            dispatches: 1,
            status_checks: 1,
            overflow_checks: 1,
            ..OpCounts::new()
        };
        let expected = LENGTH_WORD + times(PER_ELEMENT, k) + failed;
        assert_eq!(*enc.inner.counts(), expected, "overflow at element {k}");
        assert_eq!(enc.inner.counts().status_checks, k + 1);
        assert_eq!(enc.calls(), 2 * (k + 1) + CONSTANT_CALLS, "k = {k}");
    }
}

#[test]
fn a_string_encodes_its_bytes_and_pad_with_the_layered_counts() {
    // 17 bytes: a length word, the bytes, then a 3-byte zero pad.
    let mut enc = Probe::new(XdrMem::encoder(32));
    let mut s = String::from("remote procedure!");
    xdr_string(&mut enc, &mut s, 64).unwrap();
    assert_eq!(s, "remote procedure!");
    let mut wire = vec![0, 0, 0, 17];
    wire.extend_from_slice(b"remote procedure!");
    wire.extend_from_slice(&[0, 0, 0]);
    assert_eq!(enc.inner.bytes(), &wire[..]);
    let expected = OpCounts {
        // xdr_string, xdr_u_int over xdr_u_long, xdr_opaque.
        layer_calls: 4,
        dispatches: 3,
        status_checks: 0,
        // The length word, the bytes, the pad.
        overflow_checks: 3,
        byteorder_ops: 1,
        mem_moves: 4 + 17 + 3,
        stub_ops: 0,
    };
    assert_eq!(*enc.inner.counts(), expected);
    // Three entries, the length word, the bytes and the pad.
    assert_eq!(enc.calls(), 6);
}

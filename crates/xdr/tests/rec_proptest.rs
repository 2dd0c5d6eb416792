//! Property tests of the record-marking stream (`rec.rs`): round trips
//! over arbitrary fragment splits and message sizes.
//!
//! Motivation: with threaded TCP dispatch, fragment *writes* from
//! different records interleave on different connections, and the
//! reassembly side must be completely agnostic to how a record was cut
//! into fragments — any encoder fragment bound, any payload size, any
//! number of records, and the flat-record helpers (`write_record` /
//! `read_record_into`) must all agree byte for byte.
//!
//! Records are read the way the server's reassembler reads them: through
//! `read_record_into` into one buffer that every case reuses, so each
//! read also checks that the previous case's bytes were cleared first and
//! the buffer's capacity was reused.

use proptest::prelude::*;
use specrpc_xdr::rec::{read_record_into, write_record, RecordIo, XdrRec};
use specrpc_xdr::{XdrError, XdrOp, XdrResult, XdrStream};
use std::cell::RefCell;

/// An in-memory loopback transport: everything written is available for
/// reading.
#[derive(Default)]
struct Pipe {
    data: Vec<u8>,
    read_pos: usize,
}

impl Pipe {
    /// Bytes written but not yet read.
    fn pending(&self) -> usize {
        self.data.len() - self.read_pos
    }
}

impl RecordIo for Pipe {
    fn write_all(&mut self, buf: &[u8]) -> XdrResult {
        self.data.extend_from_slice(buf);
        Ok(())
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> XdrResult {
        let src = self
            .data
            .get(self.read_pos..self.read_pos + buf.len())
            .ok_or_else(|| XdrError::Io("pipe underrun".into()))?;
        buf.copy_from_slice(src);
        self.read_pos += buf.len();
        Ok(())
    }
}

thread_local! {
    /// The one receive buffer: each read finds the previous read's record
    /// still in it.
    static RECORD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Reads one record from `pipe` into the shared buffer and returns a copy,
/// checking that the buffer was cleared first (the result holds no bytes
/// of the previous record) and that a record that fits reuses its
/// allocation.
fn read_reusing(pipe: &mut Pipe) -> Vec<u8> {
    RECORD.with_borrow_mut(|record| {
        let (ptr, capacity) = (record.as_ptr(), record.capacity());
        read_record_into(pipe, record).unwrap();
        if record.len() <= capacity {
            assert_eq!(record.as_ptr(), ptr, "the buffer's capacity is reused");
        }
        record.clone()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One record, arbitrary payload, arbitrary (and different) fragment
    /// bounds on the two sides: bytes survive unchanged.
    #[test]
    fn record_roundtrip_over_arbitrary_fragment_splits(
        payload in prop::collection::vec(any::<u8>(), 0..3000),
        enc_frag in 4usize..512,
        dec_frag in 4usize..512,
    ) {
        let mut pipe = Pipe::default();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, enc_frag);
        enc.putbytes(&payload).unwrap();
        enc.end_of_record().unwrap();
        let mut dec = XdrRec::with_fragment_size(&mut pipe, XdrOp::Decode, dec_frag);
        let mut out = vec![0u8; payload.len()];
        dec.getbytes(&mut out).unwrap();
        prop_assert_eq!(out, payload);
    }

    /// Multiple records of arbitrary lengths on one stream: each record's
    /// longs decode in order, record boundaries hold (`skip_record`
    /// positions at the next record, and reading past a record's end is
    /// an error, never a silent bleed into the next record).
    #[test]
    fn multi_record_stream_with_arbitrary_boundaries(
        lens in prop::collection::vec(1usize..40, 1..6),
        frag in 4usize..64,
    ) {
        let mut pipe = Pipe::default();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, frag);
        for (r, len) in lens.iter().enumerate() {
            for j in 0..*len {
                enc.putlong((r * 1000 + j) as i32).unwrap();
            }
            enc.end_of_record().unwrap();
        }
        let mut dec = XdrRec::with_fragment_size(&mut pipe, XdrOp::Decode, frag);
        for (r, len) in lens.iter().enumerate() {
            for j in 0..*len {
                prop_assert_eq!(dec.getlong().unwrap(), (r * 1000 + j) as i32);
            }
            // The record is exhausted: the next read must fail rather
            // than bleed into the following record...
            prop_assert!(dec.getlong().is_err());
            // ...and skip_record moves cleanly to the next one.
            if r + 1 < lens.len() {
                dec.skip_record().unwrap();
            }
        }
    }

    /// The flat-record helpers used by the specialized (pre-marshaled)
    /// path: arbitrary payload sequences round-trip.
    #[test]
    fn flat_record_helpers_roundtrip(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..2000),
            1..5,
        ),
    ) {
        let mut pipe = Pipe::default();
        for p in &payloads {
            write_record(&mut pipe, p).unwrap();
        }
        for p in &payloads {
            prop_assert_eq!(&read_reusing(&mut pipe), p);
        }
        prop_assert_eq!(pipe.pending(), 0);
    }

    /// Interop: a record cut into an arbitrary fragment chain by the
    /// buffered encoder reassembles identically through the flat
    /// `read_record_into` the server-side reassembler uses.
    #[test]
    fn fragment_chains_reassemble_through_read_record(
        payload in prop::collection::vec(any::<u8>(), 1..2500),
        frag in 4usize..256,
    ) {
        let mut pipe = Pipe::default();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, frag);
        enc.putbytes(&payload).unwrap();
        enc.end_of_record().unwrap();
        prop_assert_eq!(read_reusing(&mut pipe), payload);
        prop_assert_eq!(pipe.pending(), 0);
    }
}

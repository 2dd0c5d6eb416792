//! The record-marking XDR stream (`xdrrec`) used by RPC over TCP.
//!
//! RPC messages on a byte stream are delimited by the record-marking
//! standard (RFC 1057 §10): a record is a sequence of fragments, each
//! preceded by a 4-byte header whose low 31 bits give the fragment length
//! and whose high bit marks the final fragment of the record.
//!
//! Like `xdrrec_create` in the C code, [`XdrRec`] buffers output into
//! fragments and transparently walks fragment chains on input.

use crate::cost::OpCounts;
use crate::error::{XdrError, XdrResult};
use crate::sizes::BYTES_PER_XDR_UNIT;
use crate::stream::{XdrOp, XdrStream};
use crate::{htonl, ntohl};

/// Byte transport underneath a record stream (a TCP connection in the real
/// system, a simulated stream or an in-memory pipe here).
pub trait RecordIo {
    /// Write all of `buf` to the transport.
    fn write_all(&mut self, buf: &[u8]) -> XdrResult;
    /// Read exactly `buf.len()` bytes from the transport.
    fn read_exact(&mut self, buf: &mut [u8]) -> XdrResult;
    /// Write `head` then `body` — a fragment header and its payload.
    /// Equivalent to two [`RecordIo::write_all`] calls (the default); a
    /// transport that pays per write overrides it to send both as one.
    fn write_parts(&mut self, head: &[u8], body: &[u8]) -> XdrResult {
        self.write_all(head)?;
        self.write_all(body)
    }
}

impl<T: RecordIo + ?Sized> RecordIo for &mut T {
    fn write_all(&mut self, buf: &[u8]) -> XdrResult {
        (**self).write_all(buf)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> XdrResult {
        (**self).read_exact(buf)
    }

    fn write_parts(&mut self, head: &[u8], body: &[u8]) -> XdrResult {
        (**self).write_parts(head, body)
    }
}

/// Default upper bound on fragment payload size (matches the C default
/// send buffer).
pub const DEFAULT_FRAGMENT_SIZE: usize = 8192;

/// Record-marking header flag: marks the final fragment of a record.
pub const LAST_FRAG_FLAG: u32 = 0x8000_0000;
/// Mask selecting the fragment-length bits of a record-marking header.
pub const FRAG_LEN_MASK: u32 = 0x7fff_ffff;

/// Largest record (sum of its fragments' payloads) a receiver will
/// buffer. A fragment header is attacker-controlled — its 31 length bits
/// can claim 2 GiB before a single payload byte has arrived — so every
/// reassembler checks a claimed length against this bound *before*
/// allocating for it: [`read_record_into`] and [`XdrRec`] fail with
/// [`XdrError::BadRecordMark`], and the server's per-connection
/// reassembler drops the connection. Far above any message this stack
/// produces (the UDP reply buffer is 66 000 bytes).
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// Split a fragment header, as read off the wire, into (payload length,
/// last-fragment flag).
pub fn parse_mark(raw: [u8; 4]) -> (usize, bool) {
    let header = ntohl(u32::from_ne_bytes(raw));
    (
        (header & FRAG_LEN_MASK) as usize,
        header & LAST_FRAG_FLAG != 0,
    )
}

/// Write `payload` to `io` as one complete record (a single final
/// fragment) — the raw-exchange counterpart of [`XdrRec`]'s buffered
/// encoding, used by pre-marshaled (specialized) messages.
pub fn write_record<T: RecordIo>(io: &mut T, payload: &[u8]) -> XdrResult {
    let header = htonl(payload.len() as u32 | LAST_FRAG_FLAG);
    io.write_parts(&header.to_ne_bytes(), payload)
}

/// Read one complete record from `io` into `record` (cleared first),
/// reusing its existing capacity — the zero-allocation receive path for
/// callers cycling buffers through a pool. A fragment chain claiming
/// more than [`MAX_RECORD_BYTES`] in total is [`XdrError::BadRecordMark`],
/// raised before anything is allocated for the offending fragment.
pub fn read_record_into<T: RecordIo>(io: &mut T, record: &mut Vec<u8>) -> XdrResult {
    record.clear();
    loop {
        let mut raw = [0u8; 4];
        io.read_exact(&mut raw)?;
        let (len, last) = parse_mark(raw);
        let start = record.len();
        if len > MAX_RECORD_BYTES - start {
            return Err(XdrError::BadRecordMark);
        }
        record.resize(start + len, 0);
        io.read_exact(&mut record[start..])?;
        if last {
            return Ok(());
        }
    }
}

/// A record-marking XDR stream over a byte transport.
pub struct XdrRec<T: RecordIo> {
    op: XdrOp,
    io: T,
    max_frag: usize,
    /// Output fragment under construction.
    out: Vec<u8>,
    /// Total bytes of payload written (across flushed fragments).
    out_total: usize,
    /// Payload of the current input fragment, read from the transport in
    /// one piece when its header is (as `fill_input_buf` does in the C
    /// code); `getlong`/`getbytes` are served from it.
    in_buf: Vec<u8>,
    /// Read position in `in_buf`.
    in_pos: usize,
    /// Whether the current input fragment is the record's last.
    in_last_frag: bool,
    /// Whether we are positioned inside a record (a fragment header has
    /// been consumed and the record has not ended).
    in_record: bool,
    in_total: usize,
    counts: OpCounts,
}

impl<T: RecordIo> XdrRec<T> {
    /// Create an encoding record stream (`xdrrec_create` + `XDR_ENCODE`).
    pub fn encoder(io: T) -> Self {
        Self::with_fragment_size(io, XdrOp::Encode, DEFAULT_FRAGMENT_SIZE)
    }

    /// Create a decoding record stream.
    pub fn decoder(io: T) -> Self {
        Self::with_fragment_size(io, XdrOp::Decode, DEFAULT_FRAGMENT_SIZE)
    }

    /// Create a stream with an explicit fragment size bound.
    pub fn with_fragment_size(io: T, op: XdrOp, max_frag: usize) -> Self {
        assert!(max_frag >= BYTES_PER_XDR_UNIT, "fragment size too small");
        XdrRec {
            op,
            io,
            max_frag,
            // An encoder fills whole fragments: size the buffer once.
            out: Vec::with_capacity(match op {
                XdrOp::Encode => max_frag.min(DEFAULT_FRAGMENT_SIZE),
                _ => 0,
            }),
            out_total: 0,
            in_buf: Vec::new(),
            in_pos: 0,
            in_last_frag: false,
            in_record: false,
            in_total: 0,
            counts: OpCounts::new(),
        }
    }

    fn emit_fragment(&mut self, last: bool) -> XdrResult {
        let len = self.out.len() as u32;
        let header = htonl(len | if last { LAST_FRAG_FLAG } else { 0 });
        self.io.write_parts(&header.to_ne_bytes(), &self.out)?;
        self.counts.mem_moves += self.out.len() as u64 + 4;
        self.out.clear();
        Ok(())
    }

    /// `xdrrec_endofrecord`: flush buffered output as the record's final
    /// fragment.
    pub fn end_of_record(&mut self) -> XdrResult {
        self.emit_fragment(true)
    }

    fn buffer_out(&mut self, bytes: &[u8]) -> XdrResult {
        let mut rest = bytes;
        while !rest.is_empty() {
            let room = self.max_frag - self.out.len();
            if room == 0 {
                self.emit_fragment(false)?;
                continue;
            }
            let take = room.min(rest.len());
            self.out.extend_from_slice(&rest[..take]);
            self.out_total += take;
            rest = &rest[take..];
        }
        Ok(())
    }

    /// Bytes of the current input fragment not yet consumed.
    fn in_frag_remaining(&self) -> usize {
        self.in_buf.len() - self.in_pos
    }

    /// Read the next fragment — header and whole payload — from the
    /// transport.
    fn read_fragment(&mut self) -> XdrResult {
        let mut raw = [0u8; 4];
        self.io.read_exact(&mut raw)?;
        let (len, last) = parse_mark(raw);
        if len > MAX_RECORD_BYTES {
            return Err(XdrError::BadRecordMark);
        }
        self.in_last_frag = last;
        self.in_record = true;
        self.in_pos = 0;
        self.in_buf.clear();
        self.in_buf.resize(len, 0);
        self.io.read_exact(&mut self.in_buf)
    }

    fn fill_in(&mut self, out: &mut [u8]) -> XdrResult {
        let mut filled = 0;
        while filled < out.len() {
            if self.in_frag_remaining() == 0 {
                if self.in_record && self.in_last_frag {
                    // Record exhausted mid-item.
                    return Err(XdrError::Underflow {
                        needed: out.len() - filled,
                        remaining: 0,
                    });
                }
                self.read_fragment()?;
                // A zero-length non-final fragment is legal but suspicious;
                // a zero-length final fragment ends the record.
                if self.in_frag_remaining() == 0 && self.in_last_frag {
                    return Err(XdrError::Underflow {
                        needed: out.len() - filled,
                        remaining: 0,
                    });
                }
                continue;
            }
            let take = self.in_frag_remaining().min(out.len() - filled);
            out[filled..filled + take]
                .copy_from_slice(&self.in_buf[self.in_pos..self.in_pos + take]);
            self.in_pos += take;
            filled += take;
            self.in_total += take;
            self.counts.mem_moves += take as u64;
        }
        Ok(())
    }

    /// `xdrrec_skiprecord`: discard the rest of the current record and
    /// position at the start of the next one.
    pub fn skip_record(&mut self) -> XdrResult {
        loop {
            self.in_pos = self.in_buf.len();
            if self.in_record && self.in_last_frag {
                self.in_record = false;
                return Ok(());
            }
            self.read_fragment()?;
        }
    }
}

impl<T: RecordIo> XdrStream for XdrRec<T> {
    fn op(&self) -> XdrOp {
        self.op
    }

    #[inline(never)]
    fn putlong(&mut self, v: i32) -> XdrResult {
        self.counts.overflow_checks += 1;
        self.counts.byteorder_ops += 1;
        let net = htonl(v as u32).to_ne_bytes();
        // The inline case of `xdrrec_putlong`: room in the fragment.
        if self.max_frag - self.out.len() >= net.len() {
            self.out.extend_from_slice(&net);
            self.out_total += net.len();
            return Ok(());
        }
        self.buffer_out(&net)
    }

    #[inline(never)]
    fn getlong(&mut self) -> XdrResult<i32> {
        self.counts.overflow_checks += 1;
        let mut raw = [0u8; 4];
        // The inline case of `xdrrec_getlong`: the word is in the buffer.
        if let Some(word) = self.in_buf.get(self.in_pos..self.in_pos + raw.len()) {
            raw.copy_from_slice(word);
            self.in_pos += raw.len();
            self.in_total += raw.len();
            self.counts.mem_moves += raw.len() as u64;
        } else {
            self.fill_in(&mut raw)?;
        }
        self.counts.byteorder_ops += 1;
        Ok(ntohl(u32::from_ne_bytes(raw)) as i32)
    }

    #[inline(never)]
    fn putbytes(&mut self, bytes: &[u8]) -> XdrResult {
        self.counts.overflow_checks += 1;
        self.counts.mem_moves += bytes.len() as u64;
        self.buffer_out(bytes)
    }

    #[inline(never)]
    fn getbytes(&mut self, out: &mut [u8]) -> XdrResult {
        self.counts.overflow_checks += 1;
        self.fill_in(out)
    }

    fn getpos(&self) -> usize {
        match self.op {
            XdrOp::Encode => self.out_total,
            _ => self.in_total,
        }
    }

    fn setpos(&mut self, pos: usize) -> XdrResult {
        // Only repositioning within the unflushed output fragment is
        // supported, mirroring the C implementation's limitation.
        if self.op == XdrOp::Encode {
            let frag_start = self.out_total - self.out.len();
            if pos >= frag_start && pos <= self.out_total {
                self.out.truncate(pos - frag_start);
                self.out_total = pos;
                return Ok(());
            }
        }
        Err(XdrError::BadPosition(pos))
    }

    fn counts_mut(&mut self) -> &mut OpCounts {
        &mut self.counts
    }

    fn counts(&self) -> &OpCounts {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory loopback transport: everything written is available for
    /// reading.
    #[derive(Debug, Default)]
    struct MemPipe {
        data: Vec<u8>,
        read_pos: usize,
    }

    impl MemPipe {
        /// An empty pipe.
        fn new() -> Self {
            MemPipe::default()
        }

        /// Bytes written but not yet read.
        fn pending(&self) -> usize {
            self.data.len() - self.read_pos
        }
    }

    impl RecordIo for MemPipe {
        fn write_all(&mut self, buf: &[u8]) -> XdrResult {
            self.data.extend_from_slice(buf);
            Ok(())
        }

        fn read_exact(&mut self, buf: &mut [u8]) -> XdrResult {
            if self.pending() < buf.len() {
                return Err(XdrError::Io(format!(
                    "pipe underrun: wanted {}, have {}",
                    buf.len(),
                    self.pending()
                )));
            }
            buf.copy_from_slice(&self.data[self.read_pos..self.read_pos + buf.len()]);
            self.read_pos += buf.len();
            Ok(())
        }
    }

    #[test]
    fn single_fragment_roundtrip() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::encoder(&mut pipe);
        enc.putlong(42).unwrap();
        enc.putlong(-1).unwrap();
        enc.end_of_record().unwrap();

        let mut dec = XdrRec::decoder(&mut pipe);
        assert_eq!(dec.getlong().unwrap(), 42);
        assert_eq!(dec.getlong().unwrap(), -1);
    }

    #[test]
    fn header_has_last_fragment_bit() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::encoder(&mut pipe);
        enc.putlong(7).unwrap();
        enc.end_of_record().unwrap();
        // First 4 bytes: header = 0x80000004.
        assert_eq!(&pipe.data[..4], &[0x80, 0, 0, 4]);
        assert_eq!(&pipe.data[4..8], &[0, 0, 0, 7]);
    }

    #[test]
    fn multi_fragment_records_are_transparent() {
        // Force 8-byte fragments so three longs span two fragments.
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, 8);
        for i in 0..5 {
            enc.putlong(i).unwrap();
        }
        enc.end_of_record().unwrap();

        let mut dec = XdrRec::decoder(&mut pipe);
        for i in 0..5 {
            assert_eq!(dec.getlong().unwrap(), i);
        }
    }

    #[test]
    fn reading_past_record_end_fails() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::encoder(&mut pipe);
        enc.putlong(1).unwrap();
        enc.end_of_record().unwrap();
        let mut dec = XdrRec::decoder(&mut pipe);
        assert_eq!(dec.getlong().unwrap(), 1);
        assert!(dec.getlong().is_err());
    }

    #[test]
    fn skip_record_positions_at_next_record() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, 8);
        for i in 0..4 {
            enc.putlong(i).unwrap();
        }
        enc.end_of_record().unwrap();
        enc.putlong(99).unwrap();
        enc.end_of_record().unwrap();

        let mut dec = XdrRec::decoder(&mut pipe);
        assert_eq!(dec.getlong().unwrap(), 0);
        dec.skip_record().unwrap();
        assert_eq!(dec.getlong().unwrap(), 99);
    }

    #[test]
    fn putbytes_spans_fragments() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, 8);
        let payload: Vec<u8> = (0..40u8).collect();
        enc.putbytes(&payload).unwrap();
        enc.end_of_record().unwrap();

        let mut dec = XdrRec::decoder(&mut pipe);
        let mut out = vec![0u8; 40];
        dec.getbytes(&mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn setpos_within_output_fragment() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::encoder(&mut pipe);
        enc.putlong(1).unwrap();
        enc.putlong(2).unwrap();
        enc.setpos(4).unwrap();
        enc.putlong(3).unwrap();
        enc.end_of_record().unwrap();
        let mut dec = XdrRec::decoder(&mut pipe);
        assert_eq!(dec.getlong().unwrap(), 1);
        assert_eq!(dec.getlong().unwrap(), 3);
        assert!(dec.getlong().is_err());
    }

    #[test]
    fn setpos_outside_fragment_is_rejected() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, 8);
        for i in 0..4 {
            enc.putlong(i).unwrap();
        }
        // First fragment (8 bytes) already flushed; cannot seek into it.
        assert!(enc.setpos(0).is_err());
    }

    #[test]
    fn empty_pipe_read_is_io_error() {
        let mut dec = XdrRec::decoder(MemPipe::new());
        assert!(matches!(dec.getlong().unwrap_err(), XdrError::Io(_)));
    }

    #[test]
    fn getpos_tracks_payload_not_headers() {
        let mut pipe = MemPipe::new();
        let mut enc = XdrRec::encoder(&mut pipe);
        enc.putlong(5).unwrap();
        assert_eq!(enc.getpos(), 4);
        enc.end_of_record().unwrap();
        let mut dec = XdrRec::decoder(&mut pipe);
        dec.getlong().unwrap();
        assert_eq!(dec.getpos(), 4);
    }

    /// A transport that counts calls, to pin how often the stream layer
    /// goes to it.
    #[derive(Default)]
    struct CountingPipe {
        pipe: MemPipe,
        reads: usize,
        writes: usize,
    }

    impl RecordIo for CountingPipe {
        fn write_all(&mut self, buf: &[u8]) -> XdrResult {
            self.writes += 1;
            self.pipe.write_all(buf)
        }

        fn read_exact(&mut self, buf: &mut [u8]) -> XdrResult {
            self.reads += 1;
            self.pipe.read_exact(buf)
        }
    }

    fn mark(len: usize, last: bool) -> [u8; 4] {
        (len as u32 | if last { LAST_FRAG_FLAG } else { 0 }).to_be_bytes()
    }

    #[test]
    fn write_parts_defaults_to_two_writes_with_identical_bytes() {
        let mut two = CountingPipe::default();
        write_record(&mut two, b"payload").unwrap();
        assert_eq!(two.writes, 2);
        let mut flat = MemPipe::new();
        flat.write_all(&mark(7, true)).unwrap();
        flat.write_all(b"payload").unwrap();
        assert_eq!(two.pipe.data, flat.data);
        // Through a `&mut` borrow the same method is reached.
        let mut borrowed = CountingPipe::default();
        write_record(&mut &mut borrowed, b"payload").unwrap();
        assert_eq!(borrowed.pipe.data, flat.data);
    }

    #[test]
    fn decoder_reads_each_fragment_from_the_transport_once() {
        let mut pipe = CountingPipe::default();
        let mut enc = XdrRec::with_fragment_size(&mut pipe, XdrOp::Encode, 400);
        for i in 0..250 {
            enc.putlong(i).unwrap();
        }
        enc.end_of_record().unwrap();
        pipe.reads = 0;
        let mut dec = XdrRec::decoder(&mut pipe);
        for i in 0..250 {
            assert_eq!(dec.getlong().unwrap(), i);
        }
        assert_eq!(dec.counts().mem_moves, 1000, "accounting is per item");
        assert_eq!(dec.getpos(), 1000);
        // 1000 payload bytes in 400-byte fragments: 3 fragments, each one
        // header read plus one payload read — not one read per long.
        assert_eq!(pipe.reads, 6);
    }

    #[test]
    fn lying_record_mark_is_refused_before_allocating() {
        // 2 GiB claimed, nothing behind it.
        let mut pipe = MemPipe::new();
        pipe.write_all(&mark(FRAG_LEN_MASK as usize, true)).unwrap();
        let mut record = Vec::new();
        assert_eq!(
            read_record_into(&mut pipe, &mut record),
            Err(XdrError::BadRecordMark)
        );
        assert_eq!(record.capacity(), 0, "nothing was allocated for the claim");

        let mut pipe = MemPipe::new();
        pipe.write_all(&mark(MAX_RECORD_BYTES + 1, true)).unwrap();
        let mut dec = XdrRec::decoder(&mut pipe);
        assert_eq!(dec.getlong(), Err(XdrError::BadRecordMark));
        assert_eq!(dec.in_buf.capacity(), 0);
    }

    #[test]
    fn fragment_chain_crossing_the_limit_is_refused() {
        // Each fragment is legal alone; their sum is not.
        let half = MAX_RECORD_BYTES / 2 + 1;
        let mut pipe = MemPipe::new();
        pipe.write_all(&mark(half, false)).unwrap();
        pipe.write_all(&vec![7u8; half]).unwrap();
        pipe.write_all(&mark(half, true)).unwrap();
        let mut record = Vec::new();
        assert_eq!(
            read_record_into(&mut pipe, &mut record),
            Err(XdrError::BadRecordMark)
        );
        assert!(record.capacity() <= MAX_RECORD_BYTES);
        // Exactly at the limit is fine.
        let mut pipe = MemPipe::new();
        write_record(&mut pipe, &vec![1u8; MAX_RECORD_BYTES]).unwrap();
        read_record_into(&mut pipe, &mut record).unwrap();
        assert_eq!(record.len(), MAX_RECORD_BYTES);
    }
}

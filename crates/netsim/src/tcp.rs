//! The reliable byte-stream (TCP) model.
//!
//! Sun RPC over TCP layers record marking (`xdrrec`) on a reliable,
//! ordered byte stream. The simulator models TCP as exactly that — an
//! in-order, lossless pipe with latency and serialization delay — which is
//! the property the RPC layer depends on (congestion control and
//! retransmission are below the abstraction the paper works at).
//!
//! Bytes travel as the chunks they were written in: a write is one
//! delivery event that *moves* its buffer to the other side, the server's
//! handler sees the chunk in place, and the client copies received bytes
//! out once, in [`RecordIo::read_exact`], which is event-driven rather
//! than polled. Spent chunk buffers stay with the connection and become
//! its next writes, so a steady request/reply exchange does not touch the
//! allocator here.

use crate::net::{ConnId, Network};
use crate::time::SimTime;
use specrpc_xdr::rec::RecordIo;
use specrpc_xdr::{XdrError, XdrResult};

/// Receive budget: how long a blocking read may run the network.
const READ_TIMEOUT: SimTime = SimTime::from_millis(5_000);

/// Client side of a simulated TCP connection, usable directly as the
/// byte transport under an XDR record stream.
pub struct SimTcpStream {
    net: Network,
    conn: ConnId,
}

impl SimTcpStream {
    pub(crate) fn new(net: Network, conn: ConnId) -> Self {
        SimTcpStream { net, conn }
    }
}

impl RecordIo for SimTcpStream {
    fn write_all(&mut self, buf: &[u8]) -> XdrResult {
        self.write_parts(buf, &[])
    }

    /// `head` and `body` leave as **one** chunk — one delivery event whose
    /// last byte arrives exactly when two back-to-back writes' would (the
    /// direction serializes cumulatively either way). The chunk buffer is
    /// a spent one of this connection when there is one, so a steady
    /// request/reply exchange allocates nothing in the simulator.
    fn write_parts(&mut self, head: &[u8], body: &[u8]) -> XdrResult {
        let mut chunk = self.net.conn_spare(self.conn);
        chunk.reserve(head.len() + body.len());
        chunk.extend_from_slice(head);
        chunk.extend_from_slice(body);
        self.net.send_tcp(self.conn, true, chunk);
        Ok(())
    }

    /// Block until `buf.len()` bytes have arrived, then copy them out of
    /// the connection's receive queue straight into `buf`.
    ///
    /// Event-driven: the simulator runs until the delivery that completes
    /// the read, so the read returns at that delivery's exact virtual
    /// instant (no polling grid, no overshoot) after one pass over the
    /// events in between. If the bytes do not arrive within the read
    /// timeout the clock ends exactly at the deadline, nothing is
    /// consumed, and the error is [`XdrError::Io`].
    fn read_exact(&mut self, buf: &mut [u8]) -> XdrResult {
        let (net, conn) = (&self.net, self.conn);
        // Already arrived (a record's payload right behind its mark): no
        // deadline to compute.
        if net.conn_read(conn, buf) {
            return Ok(());
        }
        let deadline = net.now() + READ_TIMEOUT;
        if net.run_until(deadline, || net.conn_read(conn, buf)) {
            Ok(())
        } else {
            Err(XdrError::Io(format!(
                "tcp read timeout: wanted {} bytes",
                buf.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetworkConfig, TcpHandler};
    use specrpc_xdr::rec::XdrRec;
    use specrpc_xdr::XdrStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Echo server: accumulates bytes; when at least one full length-
    /// prefixed blob arrived, echoes it back.
    struct Echo {
        buf: Vec<u8>,
    }

    impl TcpHandler for Echo {
        fn on_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, SimTime) {
            self.buf.extend_from_slice(bytes);
            (std::mem::take(&mut self.buf), SimTime::from_micros(30))
        }
    }

    #[test]
    fn connect_requires_listener() {
        let net = Network::new(NetworkConfig::lan(), 1);
        assert!(net.connect_tcp(99).is_none());
    }

    #[test]
    fn bytes_round_trip_through_echo() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_tcp(2049, Box::new(|| Box::new(Echo { buf: Vec::new() })));
        let mut conn = net.connect_tcp(2049).expect("connect");
        conn.write_all(b"hello tcp").unwrap();
        let mut out = [0u8; 9];
        conn.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"hello tcp");
    }

    #[test]
    fn read_timeout_fires() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_tcp(2049, Box::new(|| Box::new(Echo { buf: Vec::new() })));
        let mut conn = net.connect_tcp(2049).expect("connect");
        // Two bytes do come back; four never will.
        conn.write_all(b"ab").unwrap();
        let start = net.now();
        let mut out = [0u8; 4];
        assert!(matches!(conn.read_exact(&mut out), Err(XdrError::Io(_))));
        assert_eq!(net.now(), start + READ_TIMEOUT);
        // The failed read consumed nothing.
        let mut two = [0u8; 2];
        conn.read_exact(&mut two).unwrap();
        assert_eq!(&two, b"ab");
        assert_eq!(net.now(), start + READ_TIMEOUT);
    }

    #[test]
    fn read_returns_at_the_exact_arrival_instant() {
        // 150 us each way, 80 ns per byte, 30 us in the handler: no
        // polling grid rounds the result up.
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_tcp(2049, Box::new(|| Box::new(Echo { buf: Vec::new() })));
        let mut conn = net.connect_tcp(2049).expect("connect");
        conn.write_all(b"hello tcp").unwrap();
        let mut out = [0u8; 9];
        conn.read_exact(&mut out).unwrap();
        assert_eq!(
            net.now(),
            SimTime::from_nanos(2 * 150_000 + 2 * 9 * 80 + 30_000)
        );
    }

    /// Counts deliveries and notes whether the simulator handed it a
    /// recycled output buffer.
    struct CountingEcho {
        deliveries: Arc<AtomicUsize>,
        recycled_outs: Arc<AtomicUsize>,
    }

    impl TcpHandler for CountingEcho {
        fn on_bytes(&mut self, _bytes: &[u8]) -> (Vec<u8>, SimTime) {
            unreachable!("the simulator calls on_bytes_into")
        }

        fn on_bytes_into(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> SimTime {
            assert!(out.is_empty());
            self.deliveries.fetch_add(1, Ordering::Relaxed);
            if out.capacity() > 0 {
                self.recycled_outs.fetch_add(1, Ordering::Relaxed);
            }
            out.extend_from_slice(bytes);
            SimTime::ZERO
        }
    }

    #[test]
    fn a_record_is_one_delivery_and_buffers_are_recycled() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let deliveries = Arc::new(AtomicUsize::new(0));
        let recycled_outs = Arc::new(AtomicUsize::new(0));
        net.serve_tcp(2049, {
            let (d, r) = (deliveries.clone(), recycled_outs.clone());
            Box::new(move || {
                Box::new(CountingEcho {
                    deliveries: d.clone(),
                    recycled_outs: r.clone(),
                })
            })
        });
        let mut conn = net.connect_tcp(2049).expect("connect");
        let mut back = Vec::new();
        for round in 1..=4usize {
            let t0 = net.now();
            specrpc_xdr::rec::write_record(&mut conn, &[round as u8; 100]).unwrap();
            specrpc_xdr::rec::read_record_into(&mut conn, &mut back).unwrap();
            assert_eq!(back, [round as u8; 100]);
            // Mark and payload travel as one chunk whose last byte lands
            // when two back-to-back writes' would.
            assert_eq!(deliveries.load(Ordering::Relaxed), round);
            assert_eq!(
                net.now() - t0,
                SimTime::from_nanos(2 * (150_000 + 104 * 80))
            );
        }
        assert_eq!(net.bytes_sent(), 4 * 2 * 104);
        // From the second exchange on the handler writes into a spent chunk.
        assert_eq!(recycled_outs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn reads_split_and_span_delivered_chunks() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_tcp(2049, Box::new(|| Box::new(Echo { buf: Vec::new() })));
        let mut conn = net.connect_tcp(2049).expect("connect");
        conn.write_all(b"abcd").unwrap();
        conn.write_all(b"efgh").unwrap();
        let mut two = [0u8; 2];
        conn.read_exact(&mut two).unwrap();
        assert_eq!(&two, b"ab");
        // Spans the rest of the first chunk and all of the second.
        let mut six = [0u8; 6];
        conn.read_exact(&mut six).unwrap();
        assert_eq!(&six, b"cdefgh");
        conn.read_exact(&mut []).unwrap();
    }

    #[test]
    fn record_stream_over_sim_tcp() {
        let net = Network::new(NetworkConfig::lan(), 7);
        net.serve_tcp(111, Box::new(|| Box::new(Echo { buf: Vec::new() })));
        let mut conn = net.connect_tcp(111).expect("connect");

        let mut rec = XdrRec::with_fragment_size(&mut conn, specrpc_xdr::XdrOp::Encode, 8192);
        rec.putlong(0x0a0b0c0d).unwrap();
        rec.putlong(-99).unwrap();
        rec.end_of_record().unwrap();

        // Read the echoed record back through a decode-mode stream over
        // the same connection.
        let mut dec = XdrRec::with_fragment_size(&mut conn, specrpc_xdr::XdrOp::Decode, 8192);
        assert_eq!(dec.getlong().unwrap(), 0x0a0b0c0d);
        assert_eq!(dec.getlong().unwrap(), -99);
    }

    #[test]
    fn separate_connections_do_not_interleave() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_tcp(2049, Box::new(|| Box::new(Echo { buf: Vec::new() })));
        let mut c1 = net.connect_tcp(2049).unwrap();
        let mut c2 = net.connect_tcp(2049).unwrap();
        c1.write_all(b"abcd").unwrap();
        c2.write_all(b"wxyz").unwrap();
        let mut o2 = [0u8; 4];
        c2.read_exact(&mut o2).unwrap();
        assert_eq!(&o2, b"wxyz");
        let mut o1 = [0u8; 4];
        c1.read_exact(&mut o1).unwrap();
        assert_eq!(&o1, b"abcd");
    }
}

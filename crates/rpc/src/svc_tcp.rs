//! TCP transport adapter for the server (`svctcp_create`): a
//! record-marking reassembly state machine per connection, dispatching
//! complete records through the shared [`SvcRegistry`].
//!
//! No duplicate-request cache here: the stream transport is reliable and
//! ordered, the client never retransmits, and the simulator's fault model
//! deliberately does not apply to TCP (see `specrpc_netsim::fault`), so a
//! record arrives exactly once by construction.
//!
//! What is copied: a record that arrives whole — one final fragment inside
//! one delivery, which is how every client in this stack sends — is
//! dispatched straight from the delivered bytes, and its reply is framed
//! into the output buffer the simulator recycles for this connection; the
//! dispatched reply goes back to the registry's pool. Only a record split
//! across deliveries or fragments is copied, once, into the connection's
//! reassembly buffer.

use crate::svc::SvcRegistry;
use crate::svc_udp::default_proc_time;
use specrpc_netsim::net::{Addr, Network, TcpHandler};
use specrpc_netsim::SimTime;
use specrpc_xdr::rec::{parse_mark, LAST_FRAG_FLAG as LAST_FRAG, MAX_RECORD_BYTES};
use std::sync::Arc;

/// Record-marking reassembler + dispatcher for one connection.
pub struct SvcTcpConn {
    /// Complete records dispatch through it; its pool takes the replies
    /// back, its counter records dropped records.
    registry: Arc<SvcRegistry>,
    /// Payload of the record being reassembled (complete earlier
    /// fragments plus what has arrived of the current one).
    record: Vec<u8>,
    /// The next fragment header, which may itself arrive in pieces.
    mark: [u8; 4],
    mark_len: usize,
    /// Payload bytes the current fragment still owes, and whether it is
    /// the record's last.
    frag_remaining: usize,
    frag_last: bool,
    /// Set by a record mark claiming more than [`MAX_RECORD_BYTES`]: the
    /// stream cannot be resynchronized, so — like `svctcp` marking its
    /// transport dead — everything that follows is discarded.
    dead: bool,
}

impl SvcTcpConn {
    /// A fresh per-connection reassembler over the shared registry.
    pub fn new(registry: Arc<SvcRegistry>) -> Self {
        SvcTcpConn {
            registry,
            record: Vec::new(),
            mark: [0; 4],
            mark_len: 0,
            frag_remaining: 0,
            frag_last: false,
            dead: false,
        }
    }

    /// Dispatch one complete request and append its reply to `out` as a
    /// single-fragment record; returns the processing time
    /// [`default_proc_time`] charges.
    fn answer(&self, request: &[u8], out: &mut Vec<u8>) -> SimTime {
        let reply = self.registry.dispatch(request);
        out.reserve(4 + reply.len());
        out.extend_from_slice(&(reply.len() as u32 | LAST_FRAG).to_be_bytes());
        out.extend_from_slice(&reply);
        let proc_time = default_proc_time(request.len(), reply.len());
        self.registry.pool().put(reply);
        proc_time
    }
}

impl TcpHandler for SvcTcpConn {
    fn on_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, SimTime) {
        let mut out = Vec::new();
        let proc_time = self.on_bytes_into(bytes, &mut out);
        (out, proc_time)
    }

    fn on_bytes_into(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> SimTime {
        let mut time = SimTime::ZERO;
        let mut rest = bytes;
        while !rest.is_empty() && !self.dead {
            if self.frag_remaining == 0 {
                // Between fragments. The common case first: nothing
                // buffered and a whole final fragment in hand — dispatch
                // from the delivered bytes, no copy.
                if self.mark_len == 0 && self.record.is_empty() && rest.len() >= 4 {
                    let (len, last) = parse_mark([rest[0], rest[1], rest[2], rest[3]]);
                    if last && len <= MAX_RECORD_BYTES && rest.len() - 4 >= len {
                        time += self.answer(&rest[4..4 + len], out);
                        rest = &rest[4 + len..];
                        continue;
                    }
                }
                let take = (4 - self.mark_len).min(rest.len());
                self.mark[self.mark_len..self.mark_len + take].copy_from_slice(&rest[..take]);
                self.mark_len += take;
                rest = &rest[take..];
                if self.mark_len < 4 {
                    break;
                }
                self.mark_len = 0;
                let (len, last) = parse_mark(self.mark);
                if len > MAX_RECORD_BYTES - self.record.len() {
                    self.registry.note_record_drop();
                    self.record = Vec::new();
                    self.dead = true;
                    break;
                }
                self.frag_remaining = len;
                self.frag_last = last;
            }
            let take = self.frag_remaining.min(rest.len());
            self.record.extend_from_slice(&rest[..take]);
            self.frag_remaining -= take;
            rest = &rest[take..];
            if self.frag_remaining == 0 && self.frag_last {
                self.frag_last = false;
                let record = std::mem::take(&mut self.record);
                time += self.answer(&record, out);
                self.record = record;
                self.record.clear();
            }
        }
        time
    }
}

/// Install the registry as a TCP service at `addr`, each request priced
/// by [`default_proc_time`] as on the datagram lane.
pub fn serve_tcp(net: &Network, addr: Addr, registry: Arc<SvcRegistry>) {
    net.serve_tcp(
        addr,
        Box::new(move || Box::new(SvcTcpConn::new(registry.clone())) as Box<dyn TcpHandler>),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use specrpc_xdr::primitives::xdr_int;
    use specrpc_xdr::rec::FRAG_LEN_MASK as LEN_MASK;

    fn reg() -> Arc<SvcRegistry> {
        let mut r = SvcRegistry::new();
        r.register(1, 1, 1, |_, args, results| {
            let mut v = 0i32;
            xdr_int(args, &mut v)?;
            let mut neg = -v;
            xdr_int(results, &mut neg)?;
            Ok(())
        });
        Arc::new(r)
    }

    fn call_record(xid: u32, arg: i32) -> Vec<u8> {
        use crate::msg::CallHeader;
        use specrpc_xdr::mem::XdrMem;
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(xid, 1, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut a = arg;
        xdr_int(&mut enc, &mut a).unwrap();
        let payload = enc.into_bytes();
        let mut rec = ((payload.len() as u32) | LAST_FRAG).to_be_bytes().to_vec();
        rec.extend_from_slice(&payload);
        rec
    }

    #[test]
    fn complete_record_dispatches() {
        let mut conn = SvcTcpConn::new(reg());
        let (out, _) = conn.on_bytes(&call_record(7, 5));
        assert!(!out.is_empty());
        // Reply record header then xid.
        assert_eq!(&out[4..8], &7u32.to_be_bytes());
    }

    #[test]
    fn partial_bytes_accumulate() {
        let mut conn = SvcTcpConn::new(reg());
        let rec = call_record(9, 1);
        let (mid, _) = conn.on_bytes(&rec[..10]);
        assert!(mid.is_empty(), "incomplete record must not dispatch");
        let (out, _) = conn.on_bytes(&rec[10..]);
        assert!(!out.is_empty());
    }

    #[test]
    fn multi_fragment_record_reassembles() {
        let mut conn = SvcTcpConn::new(reg());
        let full = call_record(3, 2);
        let payload = &full[4..];
        // Split payload into two fragments: first without LAST bit.
        let (a, b) = payload.split_at(8);
        let mut wire = (a.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(a);
        wire.extend_from_slice(&((b.len() as u32) | LAST_FRAG).to_be_bytes());
        wire.extend_from_slice(b);
        let (out, _) = conn.on_bytes(&wire);
        assert_eq!(&out[4..8], &3u32.to_be_bytes());
    }

    #[test]
    fn two_records_in_one_burst() {
        let mut conn = SvcTcpConn::new(reg());
        let mut wire = call_record(1, 10);
        wire.extend_from_slice(&call_record(2, 20));
        let (out, _) = conn.on_bytes(&wire);
        // Two reply records present.
        assert_eq!(&out[4..8], &1u32.to_be_bytes());
        let first_len = (u32::from_be_bytes([out[0], out[1], out[2], out[3]]) & LEN_MASK) as usize;
        let second = &out[4 + first_len..];
        assert_eq!(&second[4..8], &2u32.to_be_bytes());
    }

    #[test]
    fn processing_time_sums_per_record() {
        let mut conn = SvcTcpConn::new(reg());
        let (first, second) = (call_record(1, 10), call_record(2, 20));
        let (out, t) = conn.on_bytes(&[first.as_slice(), &second].concat());
        // Two replies of one length, each behind its record mark.
        let reply = (u32::from_be_bytes([out[0], out[1], out[2], out[3]]) & LEN_MASK) as usize;
        assert_eq!(out.len(), 2 * (4 + reply));
        let charged = |record: &[u8]| default_proc_time(record.len() - 4, reply);
        assert_eq!(t, charged(&first) + charged(&second));
    }

    #[test]
    fn whole_record_is_dispatched_in_place_and_its_reply_recycled() {
        let registry = reg();
        let mut conn = SvcTcpConn::new(registry.clone());
        let mut out = Vec::new();
        conn.on_bytes_into(&call_record(7, 5), &mut out);
        assert_eq!(&out[4..8], &7u32.to_be_bytes());
        assert_eq!(conn.record.capacity(), 0, "no reassembly copy was made");
        assert_eq!(
            registry.pool().stats().recycled,
            1,
            "dispatched reply returned"
        );
    }

    #[test]
    fn lying_record_mark_is_a_counted_drop_and_resets_the_connection() {
        let registry = reg();
        let mut conn = SvcTcpConn::new(registry.clone());
        // 2 GiB claimed in a final fragment, a few bytes behind it.
        let mut wire = (LEN_MASK | LAST_FRAG).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 64]);
        let (out, t) = conn.on_bytes(&wire);
        assert!(out.is_empty());
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(registry.record_drops(), 1);
        assert_eq!(conn.record.capacity(), 0, "nothing allocated for the claim");
        // The stream is out of sync for good: later records are not served.
        let (out, _) = conn.on_bytes(&call_record(1, 1));
        assert!(out.is_empty());
        assert_eq!(registry.generic_dispatches(), 0);
        assert_eq!(registry.record_drops(), 1, "one reset, counted once");
    }

    #[test]
    fn fragment_chain_crossing_the_limit_is_dropped() {
        let registry = reg();
        let mut conn = SvcTcpConn::new(registry.clone());
        // Each fragment is legal alone; their sum is not.
        let half = MAX_RECORD_BYTES / 2 + 1;
        let mut wire = (half as u32).to_be_bytes().to_vec();
        wire.resize(4 + half, 9);
        let (out, _) = conn.on_bytes(&wire);
        assert!(out.is_empty());
        assert_eq!(registry.record_drops(), 0);
        let (out, _) = conn.on_bytes(&((half as u32) | LAST_FRAG).to_be_bytes());
        assert!(out.is_empty());
        assert_eq!(registry.record_drops(), 1);
        assert_eq!(conn.record.capacity(), 0, "the partial record was released");
        assert_eq!(registry.generic_dispatches(), 0);
    }

    /// Proc 1 is generic; proc 2 has a raw handler that declines requests
    /// whose length is not a multiple of 8 (so raw dispatches, fallbacks
    /// and generic dispatches all occur).
    fn mixed_registry() -> Arc<SvcRegistry> {
        use specrpc_xdr::composite::xdr_array;
        let mut r = SvcRegistry::new();
        for proc_ in [1, 2] {
            r.register(1, 1, proc_, |_, args, results| {
                let mut v: Vec<i32> = Vec::new();
                xdr_array(args, &mut v, 1024, xdr_int)?;
                v.reverse();
                xdr_array(results, &mut v, 1024, xdr_int)?;
                Ok(())
            });
        }
        r.register_raw(1, 1, 2, |request, _offer, pool| {
            (request.len() % 8 == 0).then(|| {
                let mut reply = pool.take(request.len());
                reply.extend_from_slice(&request[..4]);
                reply.extend_from_slice(&[0xee; 12]);
                reply
            })
        });
        Arc::new(r)
    }

    /// Cut `bytes` at `cuts` (each reduced into range), in order.
    fn split_at<'a>(bytes: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        points.push(bytes.len());
        points.sort_unstable();
        let mut from = 0;
        points
            .into_iter()
            .map(|to| {
                let piece = &bytes[from..to];
                from = to;
                piece
            })
            .collect()
    }

    /// Feed `deliveries` to a fresh connection over a fresh registry;
    /// returns everything observable.
    fn serve(deliveries: &[&[u8]]) -> (Vec<u8>, SimTime, [u64; 3]) {
        let registry = mixed_registry();
        let mut conn = SvcTcpConn::new(registry.clone());
        let mut replies = Vec::new();
        let mut total = SimTime::ZERO;
        for bytes in deliveries {
            let mut out = Vec::new();
            total += conn.on_bytes_into(bytes, &mut out);
            replies.extend_from_slice(&out);
        }
        let counters = [
            registry.generic_dispatches(),
            registry.raw_dispatches(),
            registry.raw_fallbacks(),
        ];
        (replies, total, counters)
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The in-place fast path and the reassembly path are the same
        /// function of the byte stream: however the stream is cut into
        /// deliveries, the reply bytes, the charged processing time and
        /// the registry's dispatch counters are identical.
        #[test]
        fn delivery_boundaries_do_not_change_what_is_served(
            records in vec(vec(any::<i32>(), 0..40), 1..5),
            raw_proc in vec(any::<bool>(), 4..5),
            fragment_cuts in vec(vec(any::<usize>(), 0..3), 4..5),
            delivery_cuts in vec(any::<usize>(), 1..7),
        ) {
            use crate::msg::CallHeader;
            use specrpc_xdr::composite::xdr_array;
            use specrpc_xdr::mem::XdrMem;
            // The stream: each record as 1-3 fragments.
            let mut stream = Vec::new();
            for (i, args) in records.iter().enumerate() {
                let mut enc = XdrMem::encoder(512);
                let mut msg = CallHeader::new(100 + i as u32, 1, 1, 1 + u32::from(raw_proc[i]));
                CallHeader::xdr(&mut enc, &mut msg).unwrap();
                let mut v = args.clone();
                xdr_array(&mut enc, &mut v, 1024, xdr_int).unwrap();
                let payload = enc.into_bytes();
                let fragments = split_at(&payload, &fragment_cuts[i]);
                for (k, fragment) in fragments.iter().enumerate() {
                    let last = if k + 1 == fragments.len() { LAST_FRAG } else { 0 };
                    stream.extend_from_slice(&(fragment.len() as u32 | last).to_be_bytes());
                    stream.extend_from_slice(fragment);
                }
            }

            let whole = serve(&[&stream]);
            // Every record was served once, by one lane or the other.
            prop_assert_eq!(whole.2[0] + whole.2[1], records.len() as u64);
            prop_assert_eq!(&serve(&split_at(&stream, &delivery_cuts)), &whole);
            let bytes: Vec<&[u8]> = stream.chunks(1).collect();
            prop_assert_eq!(&serve(&bytes), &whole);
        }
    }
}

//! The TCP RPC client (`clnttcp_create`/`clnttcp_call`): record-marked
//! calls over the reliable stream, no retransmission (the transport is
//! reliable), still xid-checked.

use crate::bufpool::BufPool;
use crate::error::RpcError;
use crate::msg::{CallHeader, ReplyHeader};
use crate::transport::Transport;
use crate::xid::XidGen;
use specrpc_netsim::net::{Addr, Network};
use specrpc_netsim::tcp::SimTcpStream;
use specrpc_xdr::rec::{self, XdrRec};
use specrpc_xdr::{OpCounts, XdrOp, XdrResult, XdrStream};
use std::sync::Arc;

/// A TCP RPC client handle.
pub struct ClntTcp {
    conn: SimTcpStream,
    net: Network,
    server: Addr,
    prog: u32,
    vers: u32,
    xids: XidGen,
    /// Micro-layer counts accumulated by generic marshaling.
    pub counts: OpCounts,
    /// Reconnections performed by the one-shot reconnect-and-retry path
    /// (a transport error no longer poisons the client permanently).
    pub reconnects: u64,
    /// Wire-buffer pool: raw-exchange replies are read into pooled
    /// buffers and recycled back by the facade.
    pool: Arc<BufPool>,
    /// Largest reply seen so far — the take-size hint for reply buffers
    /// (replies can exceed the request, e.g. read-style procedures).
    reply_hint: usize,
}

impl ClntTcp {
    /// `clnttcp_create`: connect to the server's TCP service.
    pub fn create(net: &Network, server: Addr, prog: u32, vers: u32) -> Result<Self, RpcError> {
        Self::create_pooled(net, server, prog, vers, Arc::new(BufPool::new()))
    }

    /// [`ClntTcp::create`] sharing an existing wire-buffer pool.
    pub fn create_pooled(
        net: &Network,
        server: Addr,
        prog: u32,
        vers: u32,
        pool: Arc<BufPool>,
    ) -> Result<Self, RpcError> {
        let conn = net
            .connect_tcp(server)
            .ok_or_else(|| RpcError::Transport(format!("connect to {server} refused")))?;
        Ok(ClntTcp {
            conn,
            net: net.clone(),
            server,
            prog,
            vers,
            xids: XidGen::new(server ^ 0x5555),
            counts: OpCounts::new(),
            reconnects: 0,
            pool,
            reply_hint: 0,
        })
    }

    /// The wire-buffer pool this client reads replies through.
    pub fn pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// Replace the poisoned connection with a fresh one to the same
    /// server (the one-shot recovery the raw transport paths use before
    /// surfacing a transport error).
    fn reconnect(&mut self) -> Result<(), RpcError> {
        self.conn = self
            .net
            .connect_tcp(self.server)
            .ok_or_else(|| RpcError::Transport(format!("reconnect to {} refused", self.server)))?;
        self.reconnects += 1;
        Ok(())
    }

    /// [`ClntTcp::attempt`] with the one-shot reconnect: a transport
    /// error (dead peer, read timeout) puts the replies that did arrive
    /// back in the pool, reconnects once and resends every request on
    /// the fresh connection before surfacing.
    fn exchange(
        &mut self,
        requests: &[&[u8]],
        xids: &[u32],
        replies: &mut [Option<Vec<u8>>],
    ) -> Result<(), RpcError> {
        match self.attempt(requests, xids, replies) {
            Err(RpcError::Transport(_)) => {
                for reply in replies.iter_mut().filter_map(Option::take) {
                    self.pool.put(reply);
                }
                self.reconnect()?;
                self.attempt(requests, xids, replies)
            }
            done => done,
        }
    }

    /// The transaction loop, on the current connection: write every
    /// request as one record, then read reply records until `replies[i]`
    /// holds the reply to `xids[i]`. A record that fills no empty slot —
    /// a stale reply, or one too short to carry an xid — is skipped, as
    /// in `clnttcp_call`'s receive loop, and its buffer feeds the pool.
    fn attempt(
        &mut self,
        requests: &[&[u8]],
        xids: &[u32],
        replies: &mut [Option<Vec<u8>>],
    ) -> Result<(), RpcError> {
        for (r, &xid) in requests.iter().zip(xids) {
            debug_assert_eq!(
                r.get(..4),
                Some(&xid.to_be_bytes()[..]),
                "each request must start with its xid"
            );
            rec::write_record(&mut self.conn, r).map_err(|e| RpcError::Transport(e.to_string()))?;
        }
        let mut outstanding = requests.len();
        let hint = requests.iter().map(|r| r.len()).max().unwrap_or(0);
        while outstanding > 0 {
            let mut reply = self.pool.take(hint.max(self.reply_hint));
            rec::read_record_into(&mut self.conn, &mut reply)
                .map_err(|e| RpcError::Transport(e.to_string()))?;
            self.reply_hint = self.reply_hint.max(reply.len());
            let slot = reply.get(..4).and_then(|word| {
                let i = xids.iter().position(|x| x.to_be_bytes() == word)?;
                replies[i].is_none().then_some(i)
            });
            match slot {
                Some(i) => {
                    replies[i] = Some(reply);
                    outstanding -= 1;
                }
                None => self.pool.put(reply),
            }
        }
        Ok(())
    }

    /// `clnt_call` over TCP: one record out, one record in.
    pub fn call(
        &mut self,
        proc_: u32,
        encode_args: &mut dyn FnMut(&mut dyn XdrStream) -> XdrResult,
        decode_results: &mut dyn FnMut(&mut dyn XdrStream) -> XdrResult,
    ) -> Result<(), RpcError> {
        let xid = self.xids.next_xid();
        // Encode the call as one record.
        {
            let mut enc = XdrRec::with_fragment_size(&mut self.conn, XdrOp::Encode, 8192);
            let mut msg = CallHeader::new(xid, self.prog, self.vers, proc_);
            CallHeader::xdr(&mut enc, &mut msg)?;
            encode_args(&mut enc)?;
            enc.end_of_record()?;
            self.counts += *enc.counts();
        }
        // Read reply records until the xid matches (stale replies are
        // skipped, mirroring clnttcp_call's loop).
        loop {
            let mut dec = XdrRec::with_fragment_size(&mut self.conn, XdrOp::Decode, 8192);
            let hdr = ReplyHeader::decode(&mut dec)?;
            if hdr.xid != xid {
                dec.skip_record().map_err(RpcError::from)?;
                continue;
            }
            if let Some(err) = hdr.to_error() {
                self.counts += *dec.counts();
                return Err(err);
            }
            let r = decode_results(&mut dec);
            self.counts += *dec.counts();
            return r.map_err(RpcError::from);
        }
    }
}

impl Transport for ClntTcp {
    fn next_xid(&mut self) -> u32 {
        self.xids.next_xid()
    }

    /// Raw record exchange: an exchange of one, its reply slot on the
    /// stack. The request goes out as one record; reply records are read
    /// until the xid matches. The stream is reliable, so there is no
    /// retransmission, only the one-shot reconnect.
    fn call(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        let mut reply = [None];
        self.exchange(&[request], &[xid], &mut reply)?;
        let [reply] = reply;
        Ok(reply.expect("a completed attempt fills every slot"))
    }

    /// Pipelined batch over the stream: every call record is written
    /// before any reply record is read, so the per-record round-trip
    /// latency overlaps across the batch (the server answers records in
    /// arrival order on one connection; matching is still by xid).
    fn call_batch(&mut self, requests: &[&[u8]], xids: &[u32]) -> Result<Vec<Vec<u8>>, RpcError> {
        assert_eq!(requests.len(), xids.len(), "one xid per request");
        let mut replies: Vec<Option<Vec<u8>>> = (0..requests.len()).map(|_| None).collect();
        self.exchange(requests, xids, &mut replies)?;
        Ok(replies
            .into_iter()
            .map(|r| r.expect("a completed attempt fills every slot"))
            .collect())
    }

    fn recycle(&mut self, reply: Vec<u8>) {
        self.pool.put(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svc::SvcRegistry;
    use crate::svc_tcp::serve_tcp;
    use specrpc_netsim::net::NetworkConfig;
    use specrpc_xdr::composite::{xdr_array, xdr_string};
    use specrpc_xdr::primitives::xdr_int;
    use std::sync::Arc;

    const PROG: u32 = 400_100;

    fn service() -> Arc<SvcRegistry> {
        let mut reg = SvcRegistry::new();
        reg.register(PROG, 1, 1, |_, args, results| {
            let mut v: Vec<i32> = Vec::new();
            xdr_array(args, &mut v, 100_000, xdr_int)?;
            v.reverse();
            xdr_array(results, &mut v, 100_000, xdr_int)?;
            Ok(())
        });
        reg.register(PROG, 1, 2, |_, args, results| {
            let mut s = String::new();
            xdr_string(args, &mut s, 1024)?;
            let mut up = s.to_uppercase();
            xdr_string(results, &mut up, 1024)?;
            Ok(())
        });
        Arc::new(reg)
    }

    #[test]
    fn tcp_call_round_trips() {
        let net = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net, 2049, service());
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        let mut out: Vec<i32> = Vec::new();
        clnt.call(
            1,
            &mut |x| {
                let mut v = vec![1, 2, 3];
                xdr_array(x, &mut v, 100, xdr_int)
            },
            &mut |x| xdr_array(x, &mut out, 100, xdr_int),
        )
        .unwrap();
        assert_eq!(out, vec![3, 2, 1]);
    }

    #[test]
    fn multiple_calls_on_one_connection() {
        let net = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net, 2049, service());
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        for i in 0..5 {
            let mut out: Vec<i32> = Vec::new();
            clnt.call(
                1,
                &mut |x| {
                    let mut v = vec![i, i + 1];
                    xdr_array(x, &mut v, 100, xdr_int)
                },
                &mut |x| xdr_array(x, &mut out, 100, xdr_int),
            )
            .unwrap();
            assert_eq!(out, vec![i + 1, i]);
        }
    }

    #[test]
    fn string_procedure() {
        let net = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net, 2049, service());
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        let mut out = String::new();
        clnt.call(
            2,
            &mut |x| {
                let mut s = String::from("remote procedure call");
                xdr_string(x, &mut s, 1024)
            },
            &mut |x| xdr_string(x, &mut out, 1024),
        )
        .unwrap();
        assert_eq!(out, "REMOTE PROCEDURE CALL");
    }

    #[test]
    fn large_payload_spans_fragments() {
        let net = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net, 2049, service());
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        let data: Vec<i32> = (0..5000).collect();
        let mut out: Vec<i32> = Vec::new();
        clnt.call(
            1,
            &mut |x| {
                let mut v = data.clone();
                xdr_array(x, &mut v, 100_000, xdr_int)
            },
            &mut |x| xdr_array(x, &mut out, 100_000, xdr_int),
        )
        .unwrap();
        let want: Vec<i32> = (0..5000).rev().collect();
        assert_eq!(out, want);
    }

    #[test]
    fn connect_refused_without_listener() {
        let net = Network::new(NetworkConfig::lan(), 11);
        assert!(matches!(
            ClntTcp::create(&net, 2049, PROG, 1),
            Err(RpcError::Transport(_))
        ));
    }

    #[test]
    fn raw_transport_exchange_round_trips() {
        // The Transport view of the TCP client: a pre-marshaled call
        // message goes out as one record and the matching reply comes
        // back as flat bytes.
        use crate::msg::{CallHeader, ReplyHeader};
        use specrpc_xdr::mem::XdrMem;
        let net = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net, 2049, service());
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        let xid = Transport::next_xid(&mut clnt);
        let mut enc = XdrMem::encoder(256);
        let mut msg = CallHeader::new(xid, PROG, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut v = vec![5i32, 6, 7];
        xdr_array(&mut enc, &mut v, 100, xdr_int).unwrap();
        let reply = Transport::call(&mut clnt, &enc.into_bytes(), xid).unwrap();
        let mut dec = XdrMem::decoder(&reply);
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(hdr.xid, xid);
        assert!(hdr.to_error().is_none());
        let mut out: Vec<i32> = Vec::new();
        xdr_array(&mut dec, &mut out, 100, xdr_int).unwrap();
        assert_eq!(out, vec![7, 6, 5]);
    }

    #[test]
    fn pipelined_batch_over_one_connection() {
        // All records written before any reply is read; replies return in
        // submission order and match a sequential run byte for byte.
        use specrpc_xdr::mem::XdrMem;
        let build = |clnt: &mut ClntTcp, count: usize| {
            let mut requests = Vec::new();
            let mut xids = Vec::new();
            for i in 0..count as i32 {
                let xid = Transport::next_xid(clnt);
                let mut enc = XdrMem::encoder(256);
                let mut msg = crate::msg::CallHeader::new(xid, PROG, 1, 1);
                crate::msg::CallHeader::xdr(&mut enc, &mut msg).unwrap();
                let mut v = vec![i, i + 1, i + 2];
                xdr_array(&mut enc, &mut v, 100, xdr_int).unwrap();
                requests.push(enc.into_bytes());
                xids.push(xid);
            }
            (requests, xids)
        };
        let net = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net, 2049, service());
        let mut batch_clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        let (requests, xids) = build(&mut batch_clnt, 6);
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let batched = batch_clnt.call_batch(&refs, &xids).unwrap();

        let net2 = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net2, 2049, service());
        let mut seq_clnt = ClntTcp::create(&net2, 2049, PROG, 1).unwrap();
        let (requests2, xids2) = build(&mut seq_clnt, 6);
        let sequential: Vec<Vec<u8>> = requests2
            .iter()
            .zip(&xids2)
            .map(|(r, &x)| Transport::call(&mut seq_clnt, r, x).unwrap())
            .collect();
        assert_eq!(batched, sequential, "pipelining must not change bytes");
    }

    #[test]
    fn one_shot_reconnect_recovers_from_a_dead_connection() {
        use crate::svc_tcp::SvcTcpConn;
        use specrpc_netsim::net::TcpHandler;
        use specrpc_netsim::SimTime;
        use specrpc_xdr::mem::XdrMem;
        use std::sync::atomic::{AtomicU64, Ordering};

        // A listener whose FIRST connection is dead (swallows every byte,
        // never answers); subsequent connections dispatch normally. The
        // client's first raw call hits the read timeout, reconnects once,
        // and completes on the fresh connection.
        struct DeadConn;
        impl TcpHandler for DeadConn {
            fn on_bytes(&mut self, _bytes: &[u8]) -> (Vec<u8>, SimTime) {
                (Vec::new(), SimTime::ZERO)
            }
        }
        let net = Network::new(NetworkConfig::lan(), 11);
        let registry = service();
        let conns = Arc::new(AtomicU64::new(0));
        net.serve_tcp(2049, {
            let conns = conns.clone();
            Box::new(move || {
                if conns.fetch_add(1, Ordering::Relaxed) == 0 {
                    Box::new(DeadConn) as Box<dyn TcpHandler>
                } else {
                    Box::new(SvcTcpConn::new(registry.clone()))
                }
            })
        });
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        let xid = Transport::next_xid(&mut clnt);
        let mut enc = XdrMem::encoder(256);
        let mut msg = CallHeader::new(xid, PROG, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut v = vec![4i32, 5];
        xdr_array(&mut enc, &mut v, 100, xdr_int).unwrap();
        let reply = Transport::call(&mut clnt, &enc.into_bytes(), xid).expect("recovered");
        let mut dec = XdrMem::decoder(&reply);
        let hdr = crate::msg::ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(hdr.xid, xid);
        assert_eq!(clnt.reconnects, 1, "exactly one reconnect");
        // Later calls ride the recovered connection without reconnecting.
        let mut out: Vec<i32> = Vec::new();
        clnt.call(
            1,
            &mut |x| {
                let mut v = vec![7, 8];
                xdr_array(x, &mut v, 100, xdr_int)
            },
            &mut |x| xdr_array(x, &mut out, 100, xdr_int),
        )
        .unwrap();
        assert_eq!(out, vec![8, 7]);
        assert_eq!(clnt.reconnects, 1);
    }

    #[test]
    fn reconnect_is_one_shot_not_a_loop() {
        use specrpc_netsim::net::TcpHandler;
        use specrpc_netsim::SimTime;
        use specrpc_xdr::mem::XdrMem;

        // Every connection is dead: the single retry also fails and the
        // transport error surfaces after exactly one reconnect.
        struct DeadConn;
        impl TcpHandler for DeadConn {
            fn on_bytes(&mut self, _bytes: &[u8]) -> (Vec<u8>, SimTime) {
                (Vec::new(), SimTime::ZERO)
            }
        }
        let net = Network::new(NetworkConfig::lan(), 11);
        net.serve_tcp(2049, Box::new(|| Box::new(DeadConn) as Box<dyn TcpHandler>));
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 1).unwrap();
        let xid = Transport::next_xid(&mut clnt);
        let mut enc = XdrMem::encoder(64);
        let mut msg = CallHeader::new(xid, PROG, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let err = Transport::call(&mut clnt, &enc.into_bytes(), xid).unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)));
        assert_eq!(clnt.reconnects, 1);
    }

    #[test]
    fn server_error_over_tcp() {
        let net = Network::new(NetworkConfig::lan(), 11);
        serve_tcp(&net, 2049, service());
        let mut clnt = ClntTcp::create(&net, 2049, PROG, 9).unwrap();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, RpcError::ProgMismatch { .. }));
    }
}

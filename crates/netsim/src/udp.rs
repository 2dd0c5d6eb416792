//! Connected-datagram convenience wrapper (BSD `connect`ed UDP socket
//! semantics), used by the RPC client transport.

use crate::net::{Addr, Datagram, Endpoint, Network};
use crate::time::SimTime;
use std::collections::VecDeque;

/// A UDP socket bound to a local address and "connected" to a peer:
/// `send` goes to the peer, `recv` filters datagrams from the peer
/// (mirrors what `clntudp_create` sets up).
pub struct SimUdpSocket {
    ep: Endpoint,
    peer: Addr,
}

impl SimUdpSocket {
    /// Bind `local` and connect to `peer`.
    pub fn connect(net: &Network, local: Addr, peer: Addr) -> Self {
        SimUdpSocket {
            ep: net.bind_udp(local),
            peer,
        }
    }

    /// Peer address.
    pub fn peer_addr(&self) -> Addr {
        self.peer
    }

    /// Re-aim the socket at a different peer (keeps the local binding and
    /// mailbox) — what replica failover uses to move a call to the next
    /// server. Datagrams already in flight from the old peer are filtered
    /// out by the connected-socket receive path.
    pub fn retarget(&mut self, peer: Addr) {
        self.peer = peer;
    }

    /// Send a datagram to the peer.
    pub fn send(&self, payload: Vec<u8>) {
        self.ep.send_to(self.peer, payload);
    }

    /// Receive the next datagram from the peer within `timeout` (datagrams
    /// from other sources are discarded, like a connected socket).
    pub fn recv(&self, timeout: SimTime) -> Option<Vec<u8>> {
        let deadline = self.ep.now() + timeout;
        let mut remaining = timeout;
        loop {
            let dg: Datagram = self.ep.recv_timeout(remaining)?;
            if dg.from == self.peer {
                return Some(dg.payload);
            }
            // Discard stranger traffic; charge the virtual time it
            // actually consumed against the deadline.
            let now = self.ep.now();
            if now >= deadline {
                return None;
            }
            remaining = deadline - now;
        }
    }

    /// Bulk receive: hand every already-delivered datagram from the peer
    /// to `f` in arrival order, under a single mailbox lock acquisition
    /// (stranger traffic is discarded). `buf` is the caller's reusable
    /// swap buffer — it must be passed in empty and comes back empty.
    pub fn drain_ready(&self, buf: &mut VecDeque<Datagram>, mut f: impl FnMut(Vec<u8>)) {
        self.ep.drain_ready(buf);
        for dg in buf.drain(..) {
            if dg.from == self.peer {
                f(dg.payload);
            }
        }
    }

    /// Current virtual time at this socket's network.
    pub fn now(&self) -> SimTime {
        self.ep.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;

    #[test]
    fn connected_socket_round_trip() {
        let net = Network::new(NetworkConfig::lan(), 1);
        net.serve_udp(
            900,
            Box::new(|req, _| Some((req.iter().rev().copied().collect(), SimTime::ZERO))),
        );
        let sock = SimUdpSocket::connect(&net, 5000, 900);
        sock.send(vec![1, 2, 3]);
        assert_eq!(sock.recv(SimTime::from_millis(10)), Some(vec![3, 2, 1]));
    }

    #[test]
    fn stranger_traffic_is_filtered() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let stranger = net.bind_udp(700);
        let sock = SimUdpSocket::connect(&net, 5000, 900);
        stranger.send_to(5000, vec![9]);
        assert_eq!(sock.recv(SimTime::from_millis(2)), None);
    }

    #[test]
    fn addresses_exposed() {
        let net = Network::new(NetworkConfig::lan(), 1);
        let sock = SimUdpSocket::connect(&net, 5000, 900);
        assert_eq!(sock.peer_addr(), 900);
    }
}

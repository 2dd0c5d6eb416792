//! The Sun RPC protocol layer (RFC 1057), built on the generic XDR
//! micro-layers of `specrpc-xdr` and the simulated network of
//! `specrpc-netsim`.
//!
//! This is the substrate the paper specializes: the client side
//! (`clntudp_call`-style transaction management with retransmission and
//! xid matching, record-marked TCP calls), the server side (program/
//! version/procedure dispatch and reply construction), authentication
//! flavors, and the portmapper. The *generic* call path here marshals
//! through the layered XDR routines exactly like the 1984 code; the
//! *specialized* path (assembled in the `specrpc` facade crate) replaces
//! header + argument marshaling with compiled residual stubs and falls
//! back to these generic routines when a dynamic guard fails (§6.2).

#![deny(unsafe_code)]

pub mod auth;
pub mod breaker;
pub mod bufpool;
pub mod clnt_tcp;
pub mod clnt_udp;
pub mod coalesce;
pub mod error;
pub mod msg;
pub mod pmap;
pub mod svc;
pub mod svc_shard;
pub mod svc_tcp;
pub mod svc_udp;
pub mod transport;
pub mod xid;

pub use auth::OpaqueAuth;
pub use breaker::{BreakerState, CircuitBreaker};
pub use bufpool::{BufPool, PoolStats};
pub use clnt_tcp::ClntTcp;
pub use clnt_udp::ClntUdp;
pub use coalesce::{CoalescePolicy, CoalesceStats};
pub use error::RpcError;
pub use msg::{AcceptStat, CallHeader, MsgType, RejectStat, ReplyHeader, ReplyStat, RPC_VERS};
pub use svc::SvcRegistry;
pub use svc_shard::{serve, ServeConfig, Served};
pub use svc_tcp::serve_tcp;
pub use transport::Transport;

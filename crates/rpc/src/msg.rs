//! RPC call and reply messages (RFC 1057 §8) and their XDR filters —
//! the analogs of `xdr_callmsg`/`xdr_replymsg`, written over the generic
//! micro-layers so the header path costs what the 1984 code costs.

use crate::auth::OpaqueAuth;
use crate::error::RpcError;
use specrpc_xdr::primitives::xdr_u_long;
use specrpc_xdr::{XdrResult, XdrStream};

/// The RPC protocol version this layer speaks.
pub const RPC_VERS: u32 = 2;

/// Message direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgType {
    /// A call (0).
    Call = 0,
    /// A reply (1).
    Reply = 1,
}

/// Reply disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStat {
    /// `MSG_ACCEPTED` (0).
    Accepted = 0,
    /// `MSG_DENIED` (1).
    Denied = 1,
}

/// Accepted-reply status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptStat {
    /// Results follow.
    Success = 0,
    /// Program not here.
    ProgUnavail = 1,
    /// Version range follows.
    ProgMismatch = 2,
    /// Procedure unknown.
    ProcUnavail = 3,
    /// Arguments undecodable.
    GarbageArgs = 4,
    /// Server failure.
    SystemErr = 5,
}

impl AcceptStat {
    /// Parse the wire value.
    pub fn from_u32(v: u32) -> Option<AcceptStat> {
        Some(match v {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            2 => AcceptStat::ProgMismatch,
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            5 => AcceptStat::SystemErr,
            _ => return None,
        })
    }
}

/// Denied-reply status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectStat {
    /// RPC version mismatch (range follows).
    RpcMismatch = 0,
    /// Authentication failure.
    AuthError = 1,
}

/// The call-message header (`struct rpc_msg` with `CALL` body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id.
    pub xid: u32,
    /// RPC protocol version (must be 2).
    pub rpcvers: u32,
    /// Remote program number.
    pub prog: u32,
    /// Remote program version.
    pub vers: u32,
    /// Procedure number.
    pub proc_: u32,
    /// Credentials.
    pub cred: OpaqueAuth,
    /// Verifier.
    pub verf: OpaqueAuth,
}

impl CallHeader {
    /// A header with null authentication.
    pub fn new(xid: u32, prog: u32, vers: u32, proc_: u32) -> Self {
        CallHeader {
            xid,
            rpcvers: RPC_VERS,
            prog,
            vers,
            proc_,
            cred: OpaqueAuth::none(),
            verf: OpaqueAuth::none(),
        }
    }

    /// `xdr_callmsg`: encode/decode the call header. On return the stream
    /// is positioned at the argument data.
    pub fn xdr(xdrs: &mut dyn XdrStream, msg: &mut CallHeader) -> XdrResult {
        let mut mtype = MsgType::Call as u32;
        xdr_u_long(xdrs, &mut msg.xid)?;
        xdr_u_long(xdrs, &mut mtype)?;
        xdr_u_long(xdrs, &mut msg.rpcvers)?;
        xdr_u_long(xdrs, &mut msg.prog)?;
        xdr_u_long(xdrs, &mut msg.vers)?;
        xdr_u_long(xdrs, &mut msg.proc_)?;
        OpaqueAuth::xdr(xdrs, &mut msg.cred)?;
        OpaqueAuth::xdr(xdrs, &mut msg.verf)
    }

    /// Wire size of this header in bytes.
    pub fn wire_size(&self) -> usize {
        6 * 4 + self.cred.wire_size() + self.verf.wire_size()
    }
}

/// Decoded reply header (`xdr_replymsg` result), up to the point where the
/// results (or mismatch info) begin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Transaction id echoed by the server.
    pub xid: u32,
    /// Disposition of the call.
    pub body: ReplyBody,
}

/// Reply body variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// Accepted with this verifier and status; on `Success` the results
    /// follow in the stream.
    Accepted {
        /// Server verifier.
        verf: OpaqueAuth,
        /// Acceptance status.
        stat: AcceptStat,
        /// For `ProgMismatch`: supported version range.
        mismatch: Option<(u32, u32)>,
    },
    /// Denied.
    Denied {
        /// Rejection status.
        stat: RejectStat,
        /// For `RpcMismatch`: supported RPC version range.
        mismatch: Option<(u32, u32)>,
    },
}

impl ReplyHeader {
    /// Encode an accepted-success reply header; the caller then encodes
    /// results into the same stream.
    pub fn encode_success(xdrs: &mut dyn XdrStream, xid: u32) -> XdrResult {
        let mut x = xid;
        xdr_u_long(xdrs, &mut x)?;
        let mut mtype = MsgType::Reply as u32;
        xdr_u_long(xdrs, &mut mtype)?;
        let mut rstat = ReplyStat::Accepted as u32;
        xdr_u_long(xdrs, &mut rstat)?;
        let mut verf = OpaqueAuth::none();
        OpaqueAuth::xdr(xdrs, &mut verf)?;
        let mut astat = AcceptStat::Success as u32;
        xdr_u_long(xdrs, &mut astat)
    }

    /// Encode an accepted-but-failed reply (prog/proc unavailable, garbage
    /// args, system error), with optional version range for mismatch.
    pub fn encode_accept_failure(
        xdrs: &mut dyn XdrStream,
        xid: u32,
        stat: AcceptStat,
        mismatch: Option<(u32, u32)>,
    ) -> XdrResult {
        let mut x = xid;
        xdr_u_long(xdrs, &mut x)?;
        let mut mtype = MsgType::Reply as u32;
        xdr_u_long(xdrs, &mut mtype)?;
        let mut rstat = ReplyStat::Accepted as u32;
        xdr_u_long(xdrs, &mut rstat)?;
        let mut verf = OpaqueAuth::none();
        OpaqueAuth::xdr(xdrs, &mut verf)?;
        let mut astat = stat as u32;
        xdr_u_long(xdrs, &mut astat)?;
        if let Some((mut lo, mut hi)) = mismatch {
            xdr_u_long(xdrs, &mut lo)?;
            xdr_u_long(xdrs, &mut hi)?;
        }
        Ok(())
    }

    /// Encode a denied reply.
    pub fn encode_denied(
        xdrs: &mut dyn XdrStream,
        xid: u32,
        stat: RejectStat,
        mismatch: Option<(u32, u32)>,
    ) -> XdrResult {
        let mut x = xid;
        xdr_u_long(xdrs, &mut x)?;
        let mut mtype = MsgType::Reply as u32;
        xdr_u_long(xdrs, &mut mtype)?;
        let mut rstat = ReplyStat::Denied as u32;
        xdr_u_long(xdrs, &mut rstat)?;
        let mut dstat = stat as u32;
        xdr_u_long(xdrs, &mut dstat)?;
        if let Some((mut lo, mut hi)) = mismatch {
            xdr_u_long(xdrs, &mut lo)?;
            xdr_u_long(xdrs, &mut hi)?;
        }
        Ok(())
    }

    /// `xdr_replymsg` (decode direction): parse a reply header, leaving
    /// the stream at the results on success.
    pub fn decode(xdrs: &mut dyn XdrStream) -> Result<ReplyHeader, RpcError> {
        let mut xid = 0u32;
        xdr_u_long(xdrs, &mut xid)?;
        let mut mtype = 0u32;
        xdr_u_long(xdrs, &mut mtype)?;
        if mtype != MsgType::Reply as u32 {
            return Err(RpcError::BadReply(format!("mtype {mtype}")));
        }
        let mut rstat = 0u32;
        xdr_u_long(xdrs, &mut rstat)?;
        match rstat {
            0 => {
                let mut verf = OpaqueAuth::default();
                OpaqueAuth::xdr(xdrs, &mut verf)?;
                let mut astat = 0u32;
                xdr_u_long(xdrs, &mut astat)?;
                let stat = AcceptStat::from_u32(astat)
                    .ok_or_else(|| RpcError::BadReply(format!("accept_stat {astat}")))?;
                let mismatch = if stat == AcceptStat::ProgMismatch {
                    let mut lo = 0u32;
                    let mut hi = 0u32;
                    xdr_u_long(xdrs, &mut lo)?;
                    xdr_u_long(xdrs, &mut hi)?;
                    Some((lo, hi))
                } else {
                    None
                };
                Ok(ReplyHeader {
                    xid,
                    body: ReplyBody::Accepted {
                        verf,
                        stat,
                        mismatch,
                    },
                })
            }
            1 => {
                let mut dstat = 0u32;
                xdr_u_long(xdrs, &mut dstat)?;
                match dstat {
                    0 => {
                        let mut lo = 0u32;
                        let mut hi = 0u32;
                        xdr_u_long(xdrs, &mut lo)?;
                        xdr_u_long(xdrs, &mut hi)?;
                        Ok(ReplyHeader {
                            xid,
                            body: ReplyBody::Denied {
                                stat: RejectStat::RpcMismatch,
                                mismatch: Some((lo, hi)),
                            },
                        })
                    }
                    1 => Ok(ReplyHeader {
                        xid,
                        body: ReplyBody::Denied {
                            stat: RejectStat::AuthError,
                            mismatch: None,
                        },
                    }),
                    other => Err(RpcError::BadReply(format!("reject_stat {other}"))),
                }
            }
            other => Err(RpcError::BadReply(format!("reply_stat {other}"))),
        }
    }

    /// Convert a non-success reply into the caller-visible error.
    pub fn to_error(&self) -> Option<RpcError> {
        match &self.body {
            ReplyBody::Accepted { stat, mismatch, .. } => match stat {
                AcceptStat::Success => None,
                AcceptStat::ProgUnavail => Some(RpcError::ProgUnavail),
                AcceptStat::ProgMismatch => {
                    let (low, high) = mismatch.unwrap_or((0, 0));
                    Some(RpcError::ProgMismatch { low, high })
                }
                AcceptStat::ProcUnavail => Some(RpcError::ProcUnavail),
                AcceptStat::GarbageArgs => Some(RpcError::GarbageArgs),
                AcceptStat::SystemErr => Some(RpcError::SystemErr),
            },
            ReplyBody::Denied { stat, mismatch } => match stat {
                RejectStat::RpcMismatch => {
                    let (low, high) = mismatch.unwrap_or((0, 0));
                    Some(RpcError::RpcVersMismatch { low, high })
                }
                RejectStat::AuthError => Some(RpcError::AuthError),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_xdr::mem::XdrMem;

    #[test]
    fn call_header_roundtrip() {
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(0xdead_beef, 100_003, 2, 7);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        // xid, mtype, rpcvers, prog, vers, proc, cred flavor+len, verf
        // flavor+len: ten words.
        assert_eq!(enc.getpos(), 40);
        assert_eq!(enc.getpos(), msg.wire_size());

        let mut dec = XdrMem::decoder(enc.bytes());
        let mut out = CallHeader::new(0, 0, 0, 0);
        CallHeader::xdr(&mut dec, &mut out).unwrap();
        assert_eq!(out, msg);
    }

    #[test]
    fn success_reply_roundtrip() {
        let mut enc = XdrMem::encoder(64);
        ReplyHeader::encode_success(&mut enc, 42).unwrap();
        // xid, mtype, reply_stat, verf flavor, verf len, accept_stat.
        assert_eq!(enc.getpos(), 24);
        let mut dec = XdrMem::decoder(enc.bytes());
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(hdr.xid, 42);
        assert!(hdr.to_error().is_none());
    }

    #[test]
    fn prog_mismatch_reply_carries_range() {
        let mut enc = XdrMem::encoder(64);
        ReplyHeader::encode_accept_failure(&mut enc, 1, AcceptStat::ProgMismatch, Some((2, 3)))
            .unwrap();
        let mut dec = XdrMem::decoder(enc.bytes());
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(
            hdr.to_error(),
            Some(RpcError::ProgMismatch { low: 2, high: 3 })
        );
    }

    #[test]
    fn denied_auth_error() {
        let mut enc = XdrMem::encoder(64);
        ReplyHeader::encode_denied(&mut enc, 9, RejectStat::AuthError, None).unwrap();
        let mut dec = XdrMem::decoder(enc.bytes());
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(hdr.to_error(), Some(RpcError::AuthError));
    }

    #[test]
    fn denied_rpc_mismatch() {
        let mut enc = XdrMem::encoder(64);
        ReplyHeader::encode_denied(&mut enc, 9, RejectStat::RpcMismatch, Some((2, 2))).unwrap();
        let mut dec = XdrMem::decoder(enc.bytes());
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(
            hdr.to_error(),
            Some(RpcError::RpcVersMismatch { low: 2, high: 2 })
        );
    }

    #[test]
    fn garbage_reply_rejected() {
        // mtype = CALL in a reply position.
        let mut enc = XdrMem::encoder(64);
        let mut msg = CallHeader::new(1, 2, 3, 4);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut dec = XdrMem::decoder(enc.bytes());
        assert!(matches!(
            ReplyHeader::decode(&mut dec).unwrap_err(),
            RpcError::BadReply(_)
        ));
    }

    #[test]
    fn truncated_reply_is_xdr_error() {
        let mut dec = XdrMem::decoder(&[0, 0, 0, 1]);
        assert!(matches!(
            ReplyHeader::decode(&mut dec).unwrap_err(),
            RpcError::Xdr(_)
        ));
    }
}

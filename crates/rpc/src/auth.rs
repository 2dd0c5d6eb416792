//! RPC authentication (RFC 1057 §9): the opaque authenticator every call
//! and reply header carries. Clients send `AUTH_NONE`; a server passes any
//! credential through as flavor plus opaque body.

use specrpc_xdr::composite::xdr_bytes;
use specrpc_xdr::primitives::xdr_u_int;
use specrpc_xdr::{XdrResult, XdrStream};

/// Maximum opaque auth body size (RFC 1057).
pub const MAX_AUTH_BYTES: usize = 400;

/// `AUTH_NONE` flavor number.
pub const AUTH_NONE: u32 = 0;

/// An opaque authenticator: flavor plus opaque body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpaqueAuth {
    /// Flavor discriminant.
    pub flavor: u32,
    /// Flavor-specific body (already XDR-encoded for structured flavors).
    pub body: Vec<u8>,
}

impl OpaqueAuth {
    /// The null authenticator.
    pub fn none() -> Self {
        OpaqueAuth {
            flavor: AUTH_NONE,
            body: Vec::new(),
        }
    }

    /// Generic XDR filter (flavor word + counted opaque).
    pub fn xdr(xdrs: &mut dyn XdrStream, auth: &mut OpaqueAuth) -> XdrResult {
        xdr_u_int(xdrs, &mut auth.flavor)?;
        xdr_bytes(xdrs, &mut auth.body, MAX_AUTH_BYTES)
    }

    /// Wire size in bytes when encoded.
    pub fn wire_size(&self) -> usize {
        8 + specrpc_xdr::sizes::rndup(self.body.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_xdr::mem::XdrMem;

    #[test]
    fn none_is_flavor_zero_empty() {
        let a = OpaqueAuth::none();
        assert_eq!(a.flavor, AUTH_NONE);
        assert!(a.body.is_empty());
        assert_eq!(a.wire_size(), 8);
    }

    #[test]
    fn opaque_auth_roundtrip() {
        let mut enc = XdrMem::encoder(64);
        let mut a = OpaqueAuth {
            flavor: 7,
            body: vec![1, 2, 3],
        };
        OpaqueAuth::xdr(&mut enc, &mut a).unwrap();
        let mut dec = XdrMem::decoder(enc.bytes());
        let mut out = OpaqueAuth::default();
        OpaqueAuth::xdr(&mut dec, &mut out).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn auth_body_size_limit_enforced() {
        let mut enc = XdrMem::encoder(1024);
        let mut a = OpaqueAuth {
            flavor: 1,
            body: vec![0; 401],
        };
        assert!(OpaqueAuth::xdr(&mut enc, &mut a).is_err());
    }
}

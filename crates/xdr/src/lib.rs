//! Faithful Rust port of the Sun XDR (eXternal Data Representation)
//! micro-layers from the 1984 Sun RPC code base.
//!
//! This crate is **deliberately written in the generic, interpretive style**
//! of the original C implementation, because that style is the optimization
//! target of the paper this repository reproduces (*Fast, Optimized Sun RPC
//! Using Automatic Program Specialization*, Muller et al., ICDCS 1998):
//!
//! * every primitive (`xdr_long`, `xdr_int`, …) dispatches at run time on
//!   the stream operation ([`XdrOp`]) exactly like Figure 2 of the paper;
//! * the memory stream ([`mem::XdrMem`]) maintains the remaining-space
//!   accumulator `x_handy` and performs a buffer-overflow check on **every**
//!   put/get exactly like Figure 3;
//! * the micro-layers are kept as separate, non-inlined functions so the
//!   layered call chain of Figure 1
//!   (`xdr_pair → xdr_int → xdr_long → XDR_PUTLONG → xdrmem_putlong → htonl`)
//!   survives into the compiled binary;
//! * success/failure is propagated through every layer (Figure 4).
//!
//! The paper's specializer (see the `specrpc-tempo` crate) eliminates all of
//! this interpretation for a given remote procedure; this crate is both the
//! baseline that is measured against and the runtime used for the parts of
//! the protocol that stay generic (message headers, error paths).
//!
//! The crate also hosts the other side of that comparison: the [`wire`]
//! module is the **zero-copy lane** the specialized runtime writes
//! through — a monomorphic [`WireBuf`] with exact-size preallocation and
//! no `dyn` dispatch anywhere.
//!
//! # Quick example
//!
//! ```
//! use specrpc_xdr::{mem::XdrMem, primitives::xdr_int, XdrOp};
//!
//! // Encode two integers the way a generated Sun RPC stub would.
//! let mut enc = XdrMem::encoder(64);
//! let mut a = 7i32;
//! let mut b = 42i32;
//! xdr_int(&mut enc, &mut a).unwrap();
//! xdr_int(&mut enc, &mut b).unwrap();
//! let wire = enc.into_bytes();
//! assert_eq!(wire.len(), 8);
//!
//! // Decode them back.
//! let mut dec = XdrMem::decoder(&wire);
//! let mut x = 0i32;
//! let mut y = 0i32;
//! xdr_int(&mut dec, &mut x).unwrap();
//! xdr_int(&mut dec, &mut y).unwrap();
//! assert_eq!((x, y), (7, 42));
//! ```

#![deny(unsafe_code)]

pub mod coalesce;
pub mod composite;
pub mod cost;
pub mod error;
pub mod mem;
pub mod primitives;
pub mod rec;
pub mod sizes;
pub mod stream;
pub mod wire;

pub use cost::OpCounts;
pub use error::{XdrError, XdrResult};
pub use stream::{XdrOp, XdrStream};
pub use wire::WireBuf;

/// Byte-order conversion micro-layer.
///
/// In the original Sun code `htonl` is a macro selecting between big- and
/// little-endian handling; it is one of the layers visible in the abstract
/// trace of Figure 1. We keep it as a separate, non-inlined function so it
/// remains an observable layer of the generic call chain (and so the cost
/// model can count it).
#[inline(never)]
pub fn htonl(host: u32) -> u32 {
    host.to_be()
}

/// Inverse of [`htonl`].
#[inline(never)]
pub fn ntohl(net: u32) -> u32 {
    u32::from_be(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn htonl_is_big_endian() {
        assert_eq!(htonl(0x0102_0304).to_ne_bytes(), [1, 2, 3, 4]);
    }

    #[test]
    fn ntohl_inverts_htonl() {
        for v in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(ntohl(htonl(v)), v);
        }
    }
}

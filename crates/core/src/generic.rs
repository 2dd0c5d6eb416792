//! Generic-path shape marshaling shared by the client and server guard
//! fallbacks (§6.2 `else` branch): the layered micro-routines driven by a
//! [`MsgShape`], reading/writing the same [`StubArgs`] slot convention the
//! compiled stubs use.

use specrpc_rpcgen::stubgen::{FieldShape, MsgShape};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::{XdrResult, XdrStream};

/// Decode a message shape through the generic micro-layers into StubArgs
/// slots (shared by client fallback and server fallback).
pub fn decode_shape_generic(
    xdrs: &mut dyn XdrStream,
    shape: &MsgShape,
    scalar_base: u16,
    out: &mut StubArgs,
) -> XdrResult {
    let mut s = scalar_base as usize;
    let mut a = 0usize;
    for f in &shape.fields {
        match f {
            FieldShape::Scalar { .. } => {
                specrpc_xdr::primitives::xdr_int(xdrs, &mut out.scalars[s])?;
                s += 1;
            }
            FieldShape::VarIntArray { max, .. } => {
                specrpc_xdr::composite::xdr_array(
                    xdrs,
                    &mut out.arrays[a],
                    (*max).min(u32::MAX as usize),
                    specrpc_xdr::primitives::xdr_int,
                )?;
                a += 1;
            }
            FieldShape::FixedIntArray { len, .. } => {
                out.arrays[a].clear();
                out.arrays[a].resize(*len, 0);
                let arr = &mut out.arrays[a];
                specrpc_xdr::composite::xdr_vector(
                    xdrs,
                    arr.as_mut_slice(),
                    specrpc_xdr::primitives::xdr_int,
                )?;
                a += 1;
            }
        }
    }
    Ok(())
}

/// Encode a message shape through the generic micro-layers from StubArgs
/// slots.
pub fn encode_shape_generic(
    xdrs: &mut dyn XdrStream,
    shape: &MsgShape,
    scalar_base: u16,
    args: &mut StubArgs,
) -> XdrResult {
    let mut s = scalar_base as usize;
    let mut a = 0usize;
    for f in &shape.fields {
        match f {
            FieldShape::Scalar { .. } => {
                specrpc_xdr::primitives::xdr_int(xdrs, &mut args.scalars[s])?;
                s += 1;
            }
            FieldShape::VarIntArray { max, .. } => {
                specrpc_xdr::composite::xdr_array(
                    xdrs,
                    &mut args.arrays[a],
                    (*max).min(u32::MAX as usize),
                    specrpc_xdr::primitives::xdr_int,
                )?;
                a += 1;
            }
            FieldShape::FixedIntArray { .. } => {
                specrpc_xdr::composite::xdr_vector(
                    xdrs,
                    args.arrays[a].as_mut_slice(),
                    specrpc_xdr::primitives::xdr_int,
                )?;
                a += 1;
            }
        }
    }
    Ok(())
}

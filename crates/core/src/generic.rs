//! Generic-path shape marshaling shared by the client and server guard
//! fallbacks (§6.2 `else` branch): the layered micro-routines driven by a
//! [`MsgShape`], reading/writing the same [`StubArgs`] slot convention the
//! compiled stubs use.

use specrpc_rpcgen::stubgen::{FieldShape, MsgShape};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::composite::{xdr_array, xdr_vector};
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::{XdrOp, XdrResult, XdrStream};

/// Marshal a message shape through the generic micro-layers, scalars from
/// slot `scalar_base` on: one routine for both directions, as Sun's
/// serve both through `x_op`. Decoding sizes each fixed array first.
pub fn xdr_shape(
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
                xdr_int(xdrs, &mut args.scalars[s])?;
                s += 1;
            }
            FieldShape::VarIntArray { max, .. } => {
                let max = (*max).min(u32::MAX as usize);
                xdr_array(xdrs, &mut args.arrays[a], max, xdr_int)?;
                a += 1;
            }
            FieldShape::FixedIntArray { len, .. } => {
                if xdrs.op() == XdrOp::Decode {
                    args.arrays[a].clear();
                    args.arrays[a].resize(*len, 0);
                }
                xdr_vector(xdrs, args.arrays[a].as_mut_slice(), xdr_int)?;
                a += 1;
            }
        }
    }
    Ok(())
}

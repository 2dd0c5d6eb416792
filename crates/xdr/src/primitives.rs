//! The primitive XDR filter routines (`xdr_long`, `xdr_int`, `xdr_bool`, …).
//!
//! Each routine follows the shape of Figure 2 of the paper: a single
//! function that can encode, decode, or free, selecting the operation at
//! run time from the stream's `x_op` tag. That dispatch — repeated for every
//! primitive of every argument of every call — is specialization
//! opportunity §3.1. Functions are `#[inline(never)]` so the layered call
//! chain of Figure 1 is preserved in the generic baseline binary.
//!
//! A routine's layer crossings and its dispatch are counted in the one
//! [`XdrStream::enter`] call that reads `x_op`; a forwarder (`xdr_int` over
//! `xdr_long`) passes its crossing down into that entry instead of making a
//! stream call of its own to count it. The stream's `putlong` / `getlong`
//! count the rest, so a 32-bit primitive is two stream calls.

use crate::error::{XdrError, XdrResult};
use crate::stream::{XdrOp, XdrStream};

/// A value that travels as one XDR unit: the `long` of Figure 2.
trait Unit: Copy {
    fn to_unit(self) -> i32;
    fn from_unit(v: i32) -> Self;
}

impl Unit for i32 {
    fn to_unit(self) -> i32 {
        self
    }
    fn from_unit(v: i32) -> Self {
        v
    }
}

impl Unit for u32 {
    fn to_unit(self) -> i32 {
        self as i32
    }
    fn from_unit(v: i32) -> Self {
        v as u32
    }
}

/// The body of Figure 2, entered with `layers` crossings counted: one for
/// `xdr_long` / `xdr_u_long`, two for `xdr_int` / `xdr_u_int`, which reach
/// it through this one call.
#[inline(never)]
fn unit_at<U: Unit>(xdrs: &mut dyn XdrStream, up: &mut U, layers: u64) -> XdrResult {
    match xdrs.enter(layers) {
        XdrOp::Encode => xdrs.putlong(up.to_unit()),
        XdrOp::Decode => {
            *up = U::from_unit(xdrs.getlong()?);
            Ok(())
        }
        XdrOp::Free => Ok(()),
    }
}

/// Encode or decode a 32-bit "long" integer — the exact analog of Figure 2.
#[inline(never)]
pub fn xdr_long(xdrs: &mut dyn XdrStream, lp: &mut i32) -> XdrResult {
    unit_at(xdrs, lp, 1)
}

/// Encode or decode an unsigned 32-bit "long".
#[inline(never)]
pub fn xdr_u_long(xdrs: &mut dyn XdrStream, ulp: &mut u32) -> XdrResult {
    unit_at(xdrs, ulp, 1)
}

/// Encode or decode an `int`.
///
/// The original contains a machine-dependent switch on integer size
/// (`sizeof(int)` vs `sizeof(long)`, see the Figure 1 trace); on every
/// platform we target the sizes agree, so — like the C code on those
/// platforms — this forwards to the body of [`xdr_long`] through one more
/// micro-layer, counted in that body's entry.
#[inline(never)]
pub fn xdr_int(xdrs: &mut dyn XdrStream, ip: &mut i32) -> XdrResult {
    unit_at(xdrs, ip, 2)
}

/// Encode or decode an `unsigned int` (forwards to the body of
/// [`xdr_u_long`], like [`xdr_int`]).
#[inline(never)]
pub fn xdr_u_int(xdrs: &mut dyn XdrStream, up: &mut u32) -> XdrResult {
    unit_at(xdrs, up, 2)
}

/// Encode or decode a boolean; on the wire TRUE is 1 and FALSE is 0, and a
/// decoder must reject anything else.
#[inline(never)]
pub fn xdr_bool(xdrs: &mut dyn XdrStream, bp: &mut bool) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => xdrs.putlong(if *bp { 1 } else { 0 }),
        XdrOp::Decode => {
            let v = xdrs.getlong()?;
            *bp = match v {
                0 => false,
                1 => true,
                other => return Err(XdrError::BadBool(other)),
            };
            Ok(())
        }
        XdrOp::Free => Ok(()),
    }
}

/// Encode or decode an enumeration, validating membership on decode.
///
/// `members` lists the declared enum values (rpcgen passes the list from
/// the IDL declaration).
#[inline(never)]
pub fn xdr_enum(xdrs: &mut dyn XdrStream, ep: &mut i32, members: &[i32]) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => xdrs.putlong(*ep),
        XdrOp::Decode => {
            let v = xdrs.getlong()?;
            if !members.contains(&v) {
                return Err(XdrError::BadEnumValue(v));
            }
            *ep = v;
            Ok(())
        }
        XdrOp::Free => Ok(()),
    }
}

/// Encode or decode a 64-bit "hyper" integer (two XDR units, most
/// significant first).
#[inline(never)]
pub fn xdr_hyper(xdrs: &mut dyn XdrStream, hp: &mut i64) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => {
            xdrs.putlong((*hp >> 32) as i32)?;
            xdrs.putlong(*hp as i32)
        }
        XdrOp::Decode => {
            let hi = xdrs.getlong()? as u32 as u64;
            let lo = xdrs.getlong()? as u32 as u64;
            *hp = ((hi << 32) | lo) as i64;
            Ok(())
        }
        XdrOp::Free => Ok(()),
    }
}

/// Encode or decode an unsigned 64-bit "hyper".
#[inline(never)]
pub fn xdr_u_hyper(xdrs: &mut dyn XdrStream, hp: &mut u64) -> XdrResult {
    let mut signed = *hp as i64;
    xdr_hyper(xdrs, &mut signed)?;
    *hp = signed as u64;
    Ok(())
}

/// Encode or decode an IEEE-754 single-precision float: one XDR unit,
/// the [`xdr_long`] its bits spell (Sun's `xdr_float` on IEEE hosts puts
/// `*(long *)fp` the same way).
#[inline(never)]
pub fn xdr_float(xdrs: &mut dyn XdrStream, fp: &mut f32) -> XdrResult {
    let mut bits = fp.to_bits() as i32;
    xdr_long(xdrs, &mut bits)?;
    *fp = f32::from_bits(bits as u32);
    Ok(())
}

/// Encode or decode an IEEE-754 double-precision float (two XDR units,
/// most significant word first).
#[inline(never)]
pub fn xdr_double(xdrs: &mut dyn XdrStream, dp: &mut f64) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => {
            let bits = dp.to_bits();
            xdrs.putlong((bits >> 32) as i32)?;
            xdrs.putlong(bits as i32)
        }
        XdrOp::Decode => {
            let hi = xdrs.getlong()? as u32 as u64;
            let lo = xdrs.getlong()? as u32 as u64;
            *dp = f64::from_bits((hi << 32) | lo);
            Ok(())
        }
        XdrOp::Free => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::XdrMem;

    fn roundtrip<T: Copy + PartialEq + std::fmt::Debug>(
        encode: impl Fn(&mut dyn XdrStream, &mut T) -> XdrResult,
        val: T,
        zero: T,
        wire_len: usize,
    ) {
        let mut e = XdrMem::encoder(64);
        let mut v = val;
        encode(&mut e, &mut v).unwrap();
        assert_eq!(e.getpos(), wire_len, "wire length");
        let mut d = XdrMem::decoder(e.bytes());
        let mut out = zero;
        encode(&mut d, &mut out).unwrap();
        assert_eq!(out, val);
    }

    #[test]
    fn long_roundtrip() {
        roundtrip(xdr_long, i32::MIN, 0, 4);
        roundtrip(xdr_long, i32::MAX, 0, 4);
        roundtrip(xdr_long, -1, 0, 4);
    }

    #[test]
    fn u_long_roundtrip() {
        roundtrip(xdr_u_long, u32::MAX, 0, 4);
    }

    #[test]
    fn int_forwards_to_long() {
        let mut e = XdrMem::encoder(8);
        let mut v = 99;
        xdr_int(&mut e, &mut v).unwrap();
        assert_eq!(e.bytes(), &[0, 0, 0, 99]);
        // Two layer calls: xdr_int plus xdr_long underneath.
        assert_eq!(e.counts().layer_calls, 2);
        assert_eq!(e.counts().dispatches, 1);
    }

    #[test]
    fn bool_roundtrip_and_validation() {
        roundtrip(xdr_bool, true, false, 4);
        roundtrip(xdr_bool, false, true, 4);
        let mut d = XdrMem::decoder(&[0, 0, 0, 2]);
        let mut b = false;
        assert_eq!(xdr_bool(&mut d, &mut b).unwrap_err(), XdrError::BadBool(2));
    }

    #[test]
    fn enum_validates_membership() {
        let members = [0, 1, 5];
        let mut e = XdrMem::encoder(4);
        let mut v = 5;
        xdr_enum(&mut e, &mut v, &members).unwrap();
        let mut d = XdrMem::decoder(e.bytes());
        let mut out = 0;
        xdr_enum(&mut d, &mut out, &members).unwrap();
        assert_eq!(out, 5);

        let mut bad = XdrMem::decoder(&[0, 0, 0, 3]);
        assert_eq!(
            xdr_enum(&mut bad, &mut out, &members).unwrap_err(),
            XdrError::BadEnumValue(3)
        );
    }

    #[test]
    fn hyper_roundtrip_msw_first() {
        let mut e = XdrMem::encoder(8);
        let mut v = 0x0102_0304_0506_0708i64;
        xdr_hyper(&mut e, &mut v).unwrap();
        assert_eq!(e.bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        roundtrip(xdr_hyper, i64::MIN, 0, 8);
        roundtrip(xdr_u_hyper, u64::MAX, 0, 8);
    }

    #[test]
    fn float_and_double_roundtrip() {
        roundtrip(xdr_float, std::f32::consts::PI, 0.0, 4);
        roundtrip(xdr_double, -std::f64::consts::E, 0.0, 8);
        roundtrip(xdr_double, f64::INFINITY, 0.0, 8);
    }

    #[test]
    fn free_mode_is_noop_for_scalars() {
        let mut f = XdrMem::freer();
        let mut v = 3;
        xdr_long(&mut f, &mut v).unwrap();
        assert_eq!(v, 3);
        assert_eq!(f.getpos(), 0);
    }

    #[test]
    fn dispatch_counted_per_primitive() {
        let mut e = XdrMem::encoder(64);
        let mut v = 1;
        for _ in 0..10 {
            xdr_long(&mut e, &mut v).unwrap();
        }
        assert_eq!(e.counts().dispatches, 10);
        assert_eq!(e.counts().overflow_checks, 10);
    }
}

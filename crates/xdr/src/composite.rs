//! Composite XDR filter routines: opaque data, counted bytes, strings,
//! arrays and vectors.
//!
//! Like the primitives, these mirror the generic Sun routines: each takes
//! the stream plus an element filter and interprets the stream's `x_op`
//! and the run-time length information. `xdr_array` is the routine the
//! paper's benchmark exercises (marshaling an integer array); the generic
//! version performs a dispatch, an overflow check, and two layer calls *per
//! element* — precisely the per-element interpretation the specializer
//! unrolls away (Figure 5).
//!
//! Each routine counts its own layer crossing and dispatch in the
//! [`XdrStream::enter`] that reads `x_op`, and an element run counts its
//! status checks once, after the run; an element's remaining counts are
//! taken by the element routine's own entry and stream calls. The counts
//! per element are those of the original's layering, made in two stream
//! calls per `xdr_int` element instead of five.

use crate::error::{XdrError, XdrResult};
use crate::primitives::xdr_u_int;
use crate::sizes::{pad_len, BYTES_PER_XDR_UNIT};
use crate::stream::{XdrOp, XdrStream};

/// Element filter signature used by the container routines
/// (the `xdrproc_t` of the C code).
pub type XdrProc<T> = fn(&mut dyn XdrStream, &mut T) -> XdrResult;

/// Fixed-length opaque data: the bytes travel raw, padded to a unit
/// boundary with zeroes (`xdr_opaque`).
#[inline(never)]
pub fn xdr_opaque(xdrs: &mut dyn XdrStream, data: &mut [u8]) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => put_opaque(xdrs, data),
        XdrOp::Decode => {
            xdrs.getbytes(data)?;
            let pad = pad_len(data.len());
            if pad > 0 {
                let mut sink = [0u8; BYTES_PER_XDR_UNIT];
                xdrs.getbytes(&mut sink[..pad])?;
            }
            Ok(())
        }
        XdrOp::Free => Ok(()),
    }
}

/// `xdr_opaque`'s encode arm, past its entry: the bytes, then the zero pad
/// to a unit boundary. Borrows what it writes, so a string encodes from
/// its own bytes.
fn put_opaque(xdrs: &mut dyn XdrStream, data: &[u8]) -> XdrResult {
    xdrs.putbytes(data)?;
    let pad = pad_len(data.len());
    if pad > 0 {
        xdrs.putbytes(&[0u8; BYTES_PER_XDR_UNIT][..pad])?;
    }
    Ok(())
}

/// Counted (variable-length) opaque data (`xdr_bytes`): a length word
/// followed by padded payload; `maxsize` bounds the length in both
/// directions.
#[inline(never)]
pub fn xdr_bytes(xdrs: &mut dyn XdrStream, data: &mut Vec<u8>, maxsize: usize) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => {
            if data.len() > maxsize {
                return Err(XdrError::SizeLimit {
                    len: data.len(),
                    max: maxsize,
                });
            }
            let mut len = data.len() as u32;
            xdr_u_int(xdrs, &mut len)?;
            xdr_opaque(xdrs, data.as_mut_slice())
        }
        XdrOp::Decode => {
            let mut len = 0u32;
            xdr_u_int(xdrs, &mut len)?;
            let len = len as usize;
            if len > maxsize {
                return Err(XdrError::SizeLimit { len, max: maxsize });
            }
            data.clear();
            data.resize(len, 0);
            xdr_opaque(xdrs, data.as_mut_slice())
        }
        XdrOp::Free => {
            data.clear();
            Ok(())
        }
    }
}

/// A counted ASCII/UTF-8 string (`xdr_string`): like [`xdr_bytes`] but the
/// payload must be valid UTF-8 without interior NUL.
#[inline(never)]
pub fn xdr_string(xdrs: &mut dyn XdrStream, s: &mut String, maxsize: usize) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => {
            if s.len() > maxsize {
                return Err(XdrError::SizeLimit {
                    len: s.len(),
                    max: maxsize,
                });
            }
            if s.bytes().any(|b| b == 0) {
                return Err(XdrError::BadString);
            }
            let mut len = s.len() as u32;
            xdr_u_int(xdrs, &mut len)?;
            // `xdr_opaque` over the string's own bytes: its entry, then its
            // encode arm.
            xdrs.enter(1);
            put_opaque(xdrs, s.as_bytes())
        }
        XdrOp::Decode => {
            let mut len = 0u32;
            xdr_u_int(xdrs, &mut len)?;
            let len = len as usize;
            if len > maxsize {
                return Err(XdrError::SizeLimit { len, max: maxsize });
            }
            let mut bytes = vec![0u8; len];
            xdr_opaque(xdrs, bytes.as_mut_slice())?;
            if bytes.contains(&0) {
                return Err(XdrError::BadString);
            }
            *s = String::from_utf8(bytes).map_err(|_| XdrError::BadString)?;
            Ok(())
        }
        XdrOp::Free => {
            s.clear();
            Ok(())
        }
    }
}

/// Counted (variable-length) array (`xdr_array`): a length word followed by
/// `len` elements, each run through `elem_proc`.
///
/// This is the workhorse of the paper's benchmark. Note the per-element
/// costs in the generic version: one indirect call to `elem_proc`, one
/// dispatch, one overflow check per element. The array's own crossing and
/// dispatch are counted in its entry, the element's in the element
/// routine's, and the run's status checks — one per element tried — in
/// one stream call after the run.
#[inline(never)]
pub fn xdr_array<T: Default>(
    xdrs: &mut dyn XdrStream,
    arr: &mut Vec<T>,
    maxsize: usize,
    elem_proc: XdrProc<T>,
) -> XdrResult {
    match xdrs.enter(1) {
        XdrOp::Encode => {
            if arr.len() > maxsize {
                return Err(XdrError::SizeLimit {
                    len: arr.len(),
                    max: maxsize,
                });
            }
            let mut len = arr.len() as u32;
            xdr_u_int(xdrs, &mut len)?;
            run(xdrs, arr, elem_proc)
        }
        XdrOp::Decode => {
            let mut len = 0u32;
            xdr_u_int(xdrs, &mut len)?;
            let len = len as usize;
            if len > maxsize {
                return Err(XdrError::SizeLimit { len, max: maxsize });
            }
            arr.clear();
            arr.resize_with(len, T::default);
            run(xdrs, arr, elem_proc)
        }
        XdrOp::Free => {
            for elem in arr.iter_mut() {
                elem_proc(xdrs, elem)?;
            }
            arr.clear();
            Ok(())
        }
    }
}

/// Fixed-length array (`xdr_vector`): `arr.len()` elements with no length
/// word.
#[inline(never)]
pub fn xdr_vector<T>(xdrs: &mut dyn XdrStream, arr: &mut [T], elem_proc: XdrProc<T>) -> XdrResult {
    xdrs.counts_mut().layer_calls += 1;
    run(xdrs, arr, elem_proc)
}

/// Run `elem_proc` over `elems` up to the first failure, then count the
/// run's status checks — each the `if (!xdr_...) return FALSE` of the
/// generated stubs (Figure 4), one per element tried, the failing one
/// included — in one stream call.
fn run<T>(xdrs: &mut dyn XdrStream, elems: &mut [T], elem_proc: XdrProc<T>) -> XdrResult {
    let mut tried = 0;
    let r = elems.iter_mut().try_for_each(|elem| {
        tried += 1;
        elem_proc(xdrs, elem)
    });
    xdrs.counts_mut().status_checks += tried;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::XdrMem;
    use crate::primitives::xdr_int;

    #[test]
    fn opaque_pads_to_unit() {
        let mut e = XdrMem::encoder(16);
        let mut data = *b"abcde";
        xdr_opaque(&mut e, &mut data).unwrap();
        assert_eq!(e.getpos(), 8);
        assert_eq!(&e.bytes()[..5], b"abcde");
        assert_eq!(&e.bytes()[5..], &[0, 0, 0]);

        let mut d = XdrMem::decoder(e.bytes());
        let mut out = [0u8; 5];
        xdr_opaque(&mut d, &mut out).unwrap();
        assert_eq!(&out, b"abcde");
        assert_eq!(d.getpos(), 8, "decoder must consume padding");
    }

    #[test]
    fn bytes_roundtrip_and_maxsize() {
        let mut e = XdrMem::encoder(32);
        let mut v = b"hello!".to_vec();
        xdr_bytes(&mut e, &mut v, 10).unwrap();
        assert_eq!(e.getpos(), 4 + 8);

        let mut d = XdrMem::decoder(e.bytes());
        let mut out = Vec::new();
        xdr_bytes(&mut d, &mut out, 10).unwrap();
        assert_eq!(out, b"hello!");

        // Decoding with a smaller bound must fail.
        let mut d2 = XdrMem::decoder(e.bytes());
        let mut out2 = Vec::new();
        assert_eq!(
            xdr_bytes(&mut d2, &mut out2, 3).unwrap_err(),
            XdrError::SizeLimit { len: 6, max: 3 }
        );

        // Encoding beyond the bound must fail too.
        let mut e2 = XdrMem::encoder(32);
        let mut big = vec![0u8; 11];
        assert!(matches!(
            xdr_bytes(&mut e2, &mut big, 10).unwrap_err(),
            XdrError::SizeLimit { len: 11, max: 10 }
        ));
    }

    #[test]
    fn string_roundtrip() {
        let mut e = XdrMem::encoder(32);
        let mut s = String::from("remote procedure");
        xdr_string(&mut e, &mut s, 64).unwrap();
        assert_eq!(s, "remote procedure", "encode must not consume the value");

        let mut d = XdrMem::decoder(e.bytes());
        let mut out = String::new();
        xdr_string(&mut d, &mut out, 64).unwrap();
        assert_eq!(out, "remote procedure");
    }

    #[test]
    fn string_rejects_interior_nul() {
        let mut e = XdrMem::encoder(16);
        let mut s = String::from("a\0b");
        assert_eq!(
            xdr_string(&mut e, &mut s, 16).unwrap_err(),
            XdrError::BadString
        );

        // And on decode: length 1, payload NUL.
        let wire = [0, 0, 0, 1, 0, 0, 0, 0];
        let mut d = XdrMem::decoder(&wire);
        let mut out = String::new();
        assert_eq!(
            xdr_string(&mut d, &mut out, 16).unwrap_err(),
            XdrError::BadString
        );
    }

    #[test]
    fn array_roundtrip() {
        let mut e = XdrMem::encoder(4 + 5 * 4);
        let mut v = vec![1i32, -2, 3, -4, 5];
        xdr_array(&mut e, &mut v, 100, xdr_int).unwrap();
        assert_eq!(e.getpos(), 24);

        let mut d = XdrMem::decoder(e.bytes());
        let mut out: Vec<i32> = Vec::new();
        xdr_array(&mut d, &mut out, 100, xdr_int).unwrap();
        assert_eq!(out, vec![1, -2, 3, -4, 5]);
    }

    #[test]
    fn array_decode_respects_maxsize() {
        // Hand-craft a wire image claiming 1000 elements.
        let mut e = XdrMem::encoder(8);
        let mut len = 1000u32;
        xdr_u_int(&mut e, &mut len).unwrap();
        let mut d = XdrMem::decoder(e.bytes());
        let mut out: Vec<i32> = Vec::new();
        assert_eq!(
            xdr_array(&mut d, &mut out, 10, xdr_int).unwrap_err(),
            XdrError::SizeLimit { len: 1000, max: 10 }
        );
    }

    #[test]
    fn array_generic_costs_scale_per_element() {
        let mut e = XdrMem::encoder(4 + 100 * 4);
        let mut v = vec![7i32; 100];
        xdr_array(&mut e, &mut v, 1000, xdr_int).unwrap();
        let c = *e.counts();
        // One dispatch per element via xdr_long, plus the array's own and
        // the length word's.
        assert!(c.dispatches >= 100, "dispatches = {}", c.dispatches);
        assert!(c.overflow_checks >= 101, "checks = {}", c.overflow_checks);
        assert!(c.status_checks >= 100);
        // xdr_int + xdr_long = 2 layer calls per element at minimum.
        assert!(c.layer_calls >= 200);
    }

    #[test]
    fn vector_has_no_length_word() {
        let mut e = XdrMem::encoder(12);
        let mut v = [9i32, 8, 7];
        xdr_vector(&mut e, &mut v, xdr_int).unwrap();
        assert_eq!(e.getpos(), 12);

        let mut d = XdrMem::decoder(e.bytes());
        let mut out = [0i32; 3];
        xdr_vector(&mut d, &mut out, xdr_int).unwrap();
        assert_eq!(out, [9, 8, 7]);
    }

    #[test]
    fn free_mode_clears_containers() {
        let mut f = XdrMem::freer();
        let mut v = vec![1i32, 2, 3];
        xdr_array(&mut f, &mut v, 10, xdr_int).unwrap();
        assert!(v.is_empty());
        let mut s = String::from("x");
        xdr_string(&mut f, &mut s, 10).unwrap();
        assert!(s.is_empty());
    }
}

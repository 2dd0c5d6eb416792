//! Property test of the zero-copy wire buffer ([`WireBuf`]) against the
//! interpretive generic lane ([`XdrMem`] behind `dyn XdrStream`): an
//! image written into a rewound buffer reads back through the generic
//! decoder.

use proptest::prelude::*;
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::primitives::xdr_int;
use specrpc_xdr::{WireBuf, XdrStream};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip through a rewound buffer, read back by the generic
    /// decoder.
    #[test]
    fn wirebuf_rewind_roundtrip(
        first in prop::collection::vec(any::<i32>(), 1..64),
        second in prop::collection::vec(any::<i32>(), 1..64),
    ) {
        let mut w = WireBuf::new();
        w.reset(4 + 64 * 4);
        for data in [&first, &second] {
            w.reset(4 + data.len() * 4);
            let image = w.bytes_mut();
            image[..4].copy_from_slice(&(data.len() as u32).to_be_bytes());
            for (word, v) in image[4..].chunks_exact_mut(4).zip(data.iter()) {
                word.copy_from_slice(&v.to_be_bytes());
            }
            let mut dec = XdrMem::decoder(w.bytes());
            let mut back: Vec<i32> = Vec::new();
            xdr_array(&mut dec, &mut back, 100_000, xdr_int).unwrap();
            prop_assert_eq!(&back, data);
            prop_assert_eq!(dec.getpos(), w.len());
        }
    }
}

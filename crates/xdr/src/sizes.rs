//! Wire-format size constants and padding arithmetic.
//!
//! XDR (RFC 1014) encodes everything in multiples of a four-byte unit;
//! opaque data is padded with zero bytes up to the next unit boundary.

/// The fundamental XDR unit: every item occupies a multiple of 4 bytes.
pub const BYTES_PER_XDR_UNIT: usize = 4;

/// Round `len` up to the next multiple of [`BYTES_PER_XDR_UNIT`].
///
/// This is the `RNDUP` macro of the original implementation. Unlike the C
/// macro, it saturates instead of wrapping for `len` within 3 of
/// `usize::MAX` — a hostile length word must never round *down* and defeat
/// a downstream bounds check.
pub const fn rndup(len: usize) -> usize {
    match len.checked_add(BYTES_PER_XDR_UNIT - 1) {
        Some(n) => n & !(BYTES_PER_XDR_UNIT - 1),
        None => usize::MAX,
    }
}

/// Number of zero padding bytes needed after `len` bytes of opaque data.
pub const fn pad_len(len: usize) -> usize {
    // Computed directly from the remainder (not `rndup(len) - len`) so it
    // stays correct even where `rndup` saturates.
    (BYTES_PER_XDR_UNIT - len % BYTES_PER_XDR_UNIT) % BYTES_PER_XDR_UNIT
}

/// Encoded size in bytes of a counted (variable-length) opaque/string of
/// `len` bytes: a 4-byte length word plus the padded payload.
pub const fn counted_opaque_size(len: usize) -> usize {
    rndup(len).saturating_add(BYTES_PER_XDR_UNIT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rndup_rounds_to_four() {
        assert_eq!(rndup(0), 0);
        assert_eq!(rndup(1), 4);
        assert_eq!(rndup(3), 4);
        assert_eq!(rndup(4), 4);
        assert_eq!(rndup(5), 8);
        assert_eq!(rndup(8), 8);
    }

    #[test]
    fn pad_complements_len() {
        for len in 0..64 {
            assert_eq!((len + pad_len(len)) % BYTES_PER_XDR_UNIT, 0);
            assert!(pad_len(len) < BYTES_PER_XDR_UNIT);
        }
    }

    #[test]
    fn counted_sizes() {
        assert_eq!(counted_opaque_size(0), 4);
        assert_eq!(counted_opaque_size(1), 8);
        assert_eq!(counted_opaque_size(4), 8);
    }

    #[test]
    fn hostile_lengths_saturate_instead_of_wrapping() {
        // A wire length word near usize::MAX must not round down to a
        // small value and slip past a buffer check.
        assert_eq!(rndup(usize::MAX), usize::MAX);
        assert_eq!(rndup(usize::MAX - 1), usize::MAX);
        assert_eq!(rndup(usize::MAX - 3), usize::MAX - 3);
        assert_eq!(pad_len(usize::MAX), 1);
        assert_eq!(pad_len(usize::MAX - 3), 0);
        assert_eq!(counted_opaque_size(usize::MAX), usize::MAX);
    }
}

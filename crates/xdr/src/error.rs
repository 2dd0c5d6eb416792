//! Error type shared by every XDR micro-layer.
//!
//! The original C code signals failure with a `bool_t` that each layer tests
//! and propagates (the paper's §3.3 shows how the specializer folds those
//! tests away when the outcome is statically known). In Rust the idiomatic
//! carrier is `Result`, which preserves the same propagate-on-every-layer
//! structure while also saying *why* a call failed.

use std::fmt;

/// Result alias used by every XDR routine.
pub type XdrResult<T = ()> = Result<T, XdrError>;

/// Failures an XDR micro-layer can produce.
///
/// `Overflow`/`Underflow` correspond to the `x_handy` checks of
/// `xdrmem_putlong`/`xdrmem_getlong` (Figure 3 of the paper); the others
/// cover the composite routines and record-marking stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// Writing past the end of the output buffer (`x_handy` went negative).
    Overflow {
        /// Bytes that were requested from the stream.
        needed: usize,
        /// Bytes that remained available.
        remaining: usize,
    },
    /// Reading past the end of the input buffer.
    Underflow {
        /// Bytes that were requested from the stream.
        needed: usize,
        /// Bytes that remained available.
        remaining: usize,
    },
    /// A variable-length item (array, string, bytes) exceeded its declared
    /// maximum size.
    SizeLimit {
        /// Length found on the wire or in the value.
        len: usize,
        /// Declared maximum.
        max: usize,
    },
    /// An enum value on the wire does not map to any declared member.
    BadEnumValue(i32),
    /// A string contained interior NUL or invalid UTF-8.
    BadString,
    /// A boolean on the wire was neither 0 nor 1.
    BadBool(i32),
    /// The stream does not support the requested operation (e.g. `setpos`
    /// beyond the underlying buffer).
    BadPosition(usize),
    /// A record-marking fragment header was malformed or truncated.
    BadRecordMark,
    /// The operation is meaningless for the stream's current [`crate::XdrOp`]
    /// (mirrors the final `return FALSE` of Figure 2).
    WrongOp,
    /// Underlying byte transport failed (record streams over sockets).
    Io(String),
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Overflow { needed, remaining } => write!(
                f,
                "XDR output buffer overflow: needed {needed} bytes, {remaining} remaining"
            ),
            XdrError::Underflow { needed, remaining } => write!(
                f,
                "XDR input buffer underflow: needed {needed} bytes, {remaining} remaining"
            ),
            XdrError::SizeLimit { len, max } => {
                write!(f, "XDR size limit exceeded: length {len} > maximum {max}")
            }
            XdrError::BadEnumValue(v) => write!(f, "XDR enum: {v} is not a declared member"),
            XdrError::BadString => write!(f, "XDR string: invalid contents"),
            XdrError::BadBool(v) => write!(f, "XDR bool: {v} is neither 0 nor 1"),
            XdrError::BadPosition(p) => write!(f, "XDR stream: position {p} is not addressable"),
            XdrError::BadRecordMark => write!(f, "XDR record stream: malformed fragment header"),
            XdrError::WrongOp => write!(f, "XDR: operation not supported in this mode"),
            XdrError::Io(msg) => write!(f, "XDR transport error: {msg}"),
        }
    }
}

impl std::error::Error for XdrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let e = XdrError::Overflow {
            needed: 4,
            remaining: 2,
        };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains('2'), "{s}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(XdrError::WrongOp, XdrError::WrongOp);
        assert_ne!(XdrError::WrongOp, XdrError::BadBool(2));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(XdrError::BadRecordMark);
        assert!(e.to_string().contains("fragment"));
    }
}

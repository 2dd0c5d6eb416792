//! Umbrella crate for the specrpc reproduction: hosts the runnable examples
//! under `examples/` and the cross-crate integration tests under `tests/`.
//!
//! All functionality lives in the workspace crates; see the README.

#![deny(unsafe_code)]

/// Workspace version, re-exported for examples that print banners.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

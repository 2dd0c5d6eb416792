//! The `rpcgen` analog: parse Sun's XDR/RPC interface definition language
//! (the `.x` files of the original tool) and generate everything the rest
//! of the system needs:
//!
//! * [`ast`], [`lexer`], [`parser`] — the IDL front end (`const`, `enum`,
//!   `struct`, `union`, `typedef`, `program` declarations);
//! * [`desc`] — runtime type descriptors and a table-driven marshaler over
//!   the generic micro-layers (the Hoschka–Huitema-style baseline of the
//!   paper's related work, kept as a test oracle);
//! * [`sunlib`] — the Sun RPC marshaling micro-layers transliterated into
//!   the `specrpc-tempo` IR, figure-by-figure faithful to the paper
//!   (`xdr_long` is Figure 2, `xdrmem_putlong` is Figure 3, generated
//!   stubs have the Figure 4 shape);
//! * [`stubgen`] — generation of per-procedure IR stubs (client call
//!   encode, client reply decode with the §6.2 `inlen` guard, server call
//!   decode, server reply encode) plus the calling-convention bindings the
//!   residual compiler needs.

#![deny(unsafe_code)]

pub mod ast;
pub mod desc;
pub mod lexer;
pub mod parser;
pub mod stubgen;
pub mod sunlib;

pub use ast::{Definition, IdlFile, ProgramDef};
pub use parser::parse;

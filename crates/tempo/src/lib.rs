//! The Tempo analog: an offline partial evaluator over a C-like IR.
//!
//! This crate is the reproduction of the paper's core contribution — the
//! program specializer that turns the generic, layered Sun RPC marshaling
//! code into the straight-line residual code of Figure 5.
//!
//! Pipeline (mirroring §4 of the paper):
//!
//! 1. [`ir`] — the C-like intermediate representation the Sun RPC
//!    micro-layers are written in (see `specrpc-rpcgen`).
//! 2. [`bta`] — binding-time analysis with Tempo's four refinements:
//!    partially-static structures, flow sensitivity, context sensitivity,
//!    and static returns.
//! 3. [`spec`] — the specializer proper: evaluates the static parts against
//!    concrete values, residualizes the dynamic parts, unfolds calls and
//!    unrolls static loops (with a configurable bound, §5 Table 4).
//! 4. [`post`] — residual clean-up passes and the code-size model.
//! 5. [`compile`] — compiles residual IR into flat [`compile::StubProgram`]
//!    micro-op sequences executed by a tight loop: the runtime payoff that
//!    replaces the layered generic code path.
//! 6. [`eval`] — a concrete interpreter used as correctness oracle.

#![deny(unsafe_code)]

pub mod bta;
pub mod compile;
pub mod eval;
pub mod ir;
pub mod post;
pub mod spec;

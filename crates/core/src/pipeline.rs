//! The IDL-to-specialized-stub driver: `rpcgen → Tempo → compiled stubs`
//! for every procedure/context a program wants specialized.

use specrpc_rpcgen::ast::ProcDef;
use specrpc_rpcgen::parser::{parse, ParseError};
use specrpc_rpcgen::stubgen::{
    self, CompiledStub, GeneratedStubs, MsgShape, StubGenError, StubKind,
};
use specrpc_tempo::compile::StubProgram;
use std::fmt;

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// IDL parsing failed.
    Parse(ParseError),
    /// The program/procedure was not found in the IDL.
    NoSuchProc {
        /// Program name searched for (empty = first program).
        program: String,
        /// Procedure number.
        proc_num: u32,
    },
    /// The procedure's shapes are outside the specializable subset
    /// (use the generic path).
    UnsupportedShape,
    /// Specialization or compilation failed.
    StubGen(StubGenError),
    /// A client builder was finished without naming a procedure.
    NoProcGiven,
    /// Deploying over a transport failed (e.g. TCP connect refused).
    Deploy(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "IDL parse error: {e}"),
            PipelineError::NoSuchProc { program, proc_num } => {
                write!(f, "no procedure {proc_num} in program `{program}`")
            }
            PipelineError::UnsupportedShape => {
                write!(f, "procedure shapes not specializable; generic path only")
            }
            PipelineError::StubGen(e) => write!(f, "{e}"),
            PipelineError::NoProcGiven => {
                write!(f, "SpecClient builder needs .proc(...) or .compiled(...)")
            }
            PipelineError::Deploy(e) => write!(f, "deploy failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<StubGenError> for PipelineError {
    fn from(e: StubGenError) -> Self {
        PipelineError::StubGen(e)
    }
}

/// Power-of-two unroll bounds considered by the automatic bound picker
/// ([`ProcPipeline::with_icache_budget`]) and swept by the unroll
/// benchmark / the knee detector in `examples/specialization_report.rs`
/// (one source, so the tuner and the measured curve always cover the
/// same candidates).
pub const UNROLL_CANDIDATES: [usize; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// All four compiled stubs of one procedure in one specialization context.
#[derive(Debug)]
pub struct CompiledProc {
    /// (program, version, procedure) numbers.
    pub target: (u32, u32, u32),
    /// The unroll bound the stubs were compiled with (`None` = full
    /// unrolling) — explicit via [`ProcPipeline::with_chunk`] or picked
    /// automatically by [`ProcPipeline::with_icache_budget`].
    pub unroll_bound: Option<usize>,
    /// Client request encoder.
    pub client_encode: CompiledStub,
    /// Client reply decoder.
    pub client_decode: CompiledStub,
    /// Server request decoder.
    pub server_decode: CompiledStub,
    /// Server reply encoder.
    pub server_encode: CompiledStub,
    /// Argument shape.
    pub arg_shape: MsgShape,
    /// Result shape.
    pub res_shape: MsgShape,
    /// The generated (unspecialized) stubs, kept for inspection and
    /// reports.
    pub generated: GeneratedStubs,
}

/// A resolved specialization target: `(program, version, procedure)`
/// numbers plus argument and result shapes.
pub type ResolvedTarget = ((u32, u32, u32), MsgShape, MsgShape);

/// Builder for [`CompiledProc`]s.
#[derive(Debug, Clone, Default)]
pub struct ProcPipeline {
    /// Pinned length for counted arrays (the paper's per-size contexts).
    pub pinned_len: usize,
    /// Bounded-unroll chunk (Table 4); `None` = full unrolling (unless
    /// an icache budget picks a bound automatically).
    pub chunk: Option<usize>,
    /// Target instruction-cache footprint for the residual stubs: when
    /// set (and no explicit chunk overrides it), the pipeline picks the
    /// unroll bound itself — the feedback loop the unroll-knee sweep of
    /// `examples/specialization_report.rs` motivates.
    pub icache_budget: Option<usize>,
}

impl ProcPipeline {
    /// A pipeline with the given specialization context.
    pub fn new(pinned_len: usize) -> Self {
        ProcPipeline {
            pinned_len,
            chunk: None,
            icache_budget: None,
        }
    }

    /// Use bounded unrolling with the given chunk.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Pick the unroll bound automatically from a target
    /// instruction-cache budget (bytes), e.g. a platform's
    /// `icache_capacity_bytes`: full unrolling when the whole residual
    /// encoder fits, otherwise the **largest** [`UNROLL_CANDIDATES`]
    /// bound under which the client-encode stub still fits (largest =
    /// fewest residual loop iterations for the allowed footprint; past
    /// the budget, every extra op pays the icache-miss penalty the
    /// Table 4 sweep measures). An explicit [`ProcPipeline::with_chunk`]
    /// always wins over the budget.
    pub fn with_icache_budget(mut self, budget_bytes: usize) -> Self {
        self.icache_budget = Some(budget_bytes);
        self
    }

    /// Resolve the `(program, version, procedure)` numbers and message
    /// shapes for `proc_num` of the first (or named) program — the
    /// specialization-context identity, without running Tempo. This is
    /// what [`crate::cache::StubCache`] keys on.
    pub fn resolve_shapes(
        &self,
        idl: &str,
        program: Option<&str>,
        proc_num: u32,
    ) -> Result<ResolvedTarget, PipelineError> {
        let file = parse(idl)?;
        let prog = file
            .programs()
            .into_iter()
            .find(|p| program.map(|n| p.name == n).unwrap_or(true))
            .ok_or_else(|| PipelineError::NoSuchProc {
                program: program.unwrap_or("").to_string(),
                proc_num,
            })?
            .clone();
        let vers = prog
            .versions
            .first()
            .ok_or_else(|| PipelineError::NoSuchProc {
                program: prog.name.clone(),
                proc_num,
            })?;
        let proc_: &ProcDef = vers
            .procs
            .iter()
            .find(|p| p.number == proc_num)
            .ok_or_else(|| PipelineError::NoSuchProc {
                program: prog.name.clone(),
                proc_num,
            })?;
        let arg = MsgShape::from_idl(&file, &proc_.arg, self.pinned_len)
            .ok_or(PipelineError::UnsupportedShape)?;
        let res = MsgShape::from_idl(&file, &proc_.result, self.pinned_len)
            .ok_or(PipelineError::UnsupportedShape)?;
        Ok(((prog.number, vers.number, proc_num), arg, res))
    }

    /// Run the full pipeline from IDL source for procedure `proc_num` of
    /// the first (or named) program.
    pub fn build_from_idl(
        &self,
        idl: &str,
        program: Option<&str>,
        proc_num: u32,
    ) -> Result<CompiledProc, PipelineError> {
        let ((prog_num, vers_num, proc_num), arg, res) =
            self.resolve_shapes(idl, program, proc_num)?;
        self.build_from_shapes(prog_num, vers_num, proc_num, arg, res)
    }

    /// Run the pipeline from explicit message shapes.
    pub fn build_from_shapes(
        &self,
        prog_num: u32,
        vers_num: u32,
        proc_num: u32,
        arg: MsgShape,
        res: MsgShape,
    ) -> Result<CompiledProc, PipelineError> {
        let gs = stubgen::generate_from_shapes(prog_num, vers_num, proc_num, arg, res);
        self.compile_all(gs)
    }

    fn compile_all(&self, gs: GeneratedStubs) -> Result<CompiledProc, PipelineError> {
        let mut client_encode = stubgen::specialize_stub(&gs, StubKind::ClientEncode, self.chunk)?;
        let chunk = self.effective_chunk(&client_encode.program);
        if chunk != self.chunk {
            client_encode.program = client_encode.program.with_chunk(chunk);
        }
        let client_decode = stubgen::specialize_stub(&gs, StubKind::ClientDecode, chunk)?;
        let server_decode = stubgen::specialize_stub(&gs, StubKind::ServerDecode, chunk)?;
        let server_encode = stubgen::specialize_stub(&gs, StubKind::ServerEncode, chunk)?;
        Ok(CompiledProc {
            target: gs.target,
            unroll_bound: chunk,
            client_encode,
            client_decode,
            server_decode,
            server_encode,
            arg_shape: gs.arg_shape.clone(),
            res_shape: gs.res_shape.clone(),
            generated: gs,
        })
    }

    /// Resolve the unroll bound this pipeline will compile with: the
    /// explicit chunk if set, otherwise the bound the icache budget
    /// picks, otherwise full unrolling. `encode` is the client-encode stub
    /// compiled under `self.chunk`; a stub's size under any bound is
    /// arithmetic over its loops, so no candidate is compiled to be
    /// weighed.
    fn effective_chunk(&self, encode: &StubProgram) -> Option<usize> {
        if self.chunk.is_some() {
            return self.chunk;
        }
        let budget = self.icache_budget?;
        let code_bytes = |chunk| encode.with_chunk(chunk).code_size_bytes();
        if code_bytes(None) <= budget {
            return None; // the full unroll already fits
        }
        let mut smallest_applicable = None;
        for &c in UNROLL_CANDIDATES.iter().rev() {
            // A bound only re-rolls element runs of at least 2×bound ops;
            // larger bounds are the full unroll we just rejected.
            if 2 * c > self.pinned_len {
                continue;
            }
            if code_bytes(Some(c)) <= budget {
                return Some(c);
            }
            smallest_applicable = Some(c);
        }
        // Nothing fits (or no candidate applies): the smallest applicable
        // bound is the best effort — the tightest residual we can emit.
        smallest_applicable
    }

    /// The unroll bound [`ProcPipeline::build_from_idl`] would compile
    /// `proc_num` with — exposed so reports can show what an icache
    /// budget picked without keeping the compile.
    pub fn auto_chunk_from_idl(
        &self,
        idl: &str,
        program: Option<&str>,
        proc_num: u32,
    ) -> Result<Option<usize>, PipelineError> {
        let ((prog_num, vers_num, proc_num), arg, res) =
            self.resolve_shapes(idl, program, proc_num)?;
        let gs = stubgen::generate_from_shapes(prog_num, vers_num, proc_num, arg, res);
        let encode = stubgen::specialize_stub(&gs, StubKind::ClientEncode, self.chunk)?;
        Ok(self.effective_chunk(&encode.program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDL: &str = r#"
        const MAXARR = 2000;
        struct int_arr { int arr<MAXARR>; };
        program ARRAYPROG {
            version ARRAYVERS { int_arr ECHO(int_arr) = 1; } = 1;
        } = 0x20000101;
    "#;

    #[test]
    fn builds_all_four_stubs_from_idl() {
        let cp = ProcPipeline::new(100).build_from_idl(IDL, None, 1).unwrap();
        assert_eq!(cp.target, (0x2000_0101, 1, 1));
        assert_eq!(cp.client_encode.wire_len, 40 + 4 + 400);
        assert_eq!(cp.client_decode.wire_len, 24 + 4 + 400);
        assert!(cp.client_encode.program.len() > 100);
    }

    #[test]
    fn chunked_pipeline_shrinks_stub() {
        let full = ProcPipeline::new(1000)
            .build_from_idl(IDL, None, 1)
            .unwrap();
        let chunked = ProcPipeline::new(1000)
            .with_chunk(250)
            .build_from_idl(IDL, None, 1)
            .unwrap();
        assert!(chunked.client_encode.program.len() < full.client_encode.program.len() / 3);
    }

    #[test]
    fn icache_budget_picks_full_unroll_when_it_fits() {
        let cp = ProcPipeline::new(100)
            .with_icache_budget(1 << 20)
            .build_from_idl(IDL, None, 1)
            .unwrap();
        assert_eq!(cp.unroll_bound, None, "a huge budget needs no bound");
    }

    #[test]
    fn icache_budget_picks_the_largest_bound_that_fits() {
        let n = 2000;
        let full = ProcPipeline::new(n).build_from_idl(IDL, None, 1).unwrap();
        let full_bytes = full.client_encode.program.code_size_bytes();
        // A budget at 1/4 of the full footprint forces a real bound.
        let budget = full_bytes / 4;
        let cp = ProcPipeline::new(n)
            .with_icache_budget(budget)
            .build_from_idl(IDL, None, 1)
            .unwrap();
        let bound = cp.unroll_bound.expect("budget must pick a bound");
        assert!(UNROLL_CANDIDATES.contains(&bound), "{bound}");
        assert!(
            cp.client_encode.program.code_size_bytes() <= budget,
            "picked stub must fit the budget"
        );
        // Maximality: the next larger applicable candidate must NOT fit.
        if let Some(&next) = UNROLL_CANDIDATES.iter().find(|&&c| c > bound) {
            if 2 * next <= n {
                let bigger = ProcPipeline::new(n)
                    .with_chunk(next)
                    .build_from_idl(IDL, None, 1)
                    .unwrap();
                assert!(
                    bigger.client_encode.program.code_size_bytes() > budget,
                    "a larger bound would have fit — picker not maximal"
                );
            }
        }
        // The auto-pick is observable without compiling all four stubs.
        assert_eq!(
            ProcPipeline::new(n)
                .with_icache_budget(budget)
                .auto_chunk_from_idl(IDL, None, 1)
                .unwrap(),
            Some(bound)
        );
    }

    #[test]
    fn icache_budget_costs_no_specializer_run() {
        // One run per stub, whatever the budget makes of the candidates;
        // the report alone needs the one stub it weighs.
        let runs = |build: &dyn Fn()| {
            let before = stubgen::specializer_runs();
            build();
            stubgen::specializer_runs() - before
        };
        let unbounded = ProcPipeline::new(2000);
        for budget in [1, 20_000, 1 << 20] {
            let tuned = unbounded.clone().with_icache_budget(budget);
            assert_eq!(
                runs(&|| drop(tuned.build_from_idl(IDL, None, 1).unwrap())),
                4
            );
            assert_eq!(runs(&|| drop(tuned.auto_chunk_from_idl(IDL, None, 1))), 1);
            // …and what it builds is what compiling under its pick builds.
            let cp = tuned.build_from_idl(IDL, None, 1).unwrap();
            let mut explicit = unbounded.clone();
            explicit.chunk = cp.unroll_bound;
            let want = explicit.build_from_idl(IDL, None, 1).unwrap();
            let (got, want) = (&cp.client_encode.program, &want.client_encode.program);
            assert_eq!((&got.ops, &got.plan), (&want.ops, &want.plan), "{budget}");
        }
        assert_eq!(
            runs(&|| drop(unbounded.build_from_idl(IDL, None, 1).unwrap())),
            4
        );
    }

    #[test]
    fn icache_budget_degrades_to_smallest_bound_when_nothing_fits() {
        let cp = ProcPipeline::new(2000)
            .with_icache_budget(1) // absurd: nothing fits
            .build_from_idl(IDL, None, 1)
            .unwrap();
        assert_eq!(cp.unroll_bound, Some(8), "tightest residual is best effort");
    }

    #[test]
    fn explicit_chunk_overrides_the_budget() {
        let cp = ProcPipeline::new(2000)
            .with_icache_budget(1)
            .with_chunk(250)
            .build_from_idl(IDL, None, 1)
            .unwrap();
        assert_eq!(cp.unroll_bound, Some(250));
    }

    #[test]
    fn missing_procedure_is_reported() {
        let err = ProcPipeline::new(10)
            .build_from_idl(IDL, None, 99)
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::NoSuchProc { proc_num: 99, .. }
        ));
    }

    #[test]
    fn unsupported_shape_is_reported() {
        let idl = r#"
            struct s { string x<8>; };
            program P { version V { s F(s) = 1; } = 1; } = 7;
        "#;
        let err = ProcPipeline::new(10)
            .build_from_idl(idl, None, 1)
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnsupportedShape));
    }

    #[test]
    fn parse_error_is_reported() {
        let err = ProcPipeline::new(10)
            .build_from_idl("struct {", None, 1)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
    }
}

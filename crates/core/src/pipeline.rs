//! The IDL-to-specialized-stub driver: `rpcgen → Tempo → compiled stubs`
//! for every procedure/context a program wants specialized.

use specrpc_rpcgen::ast::ProcDef;
use specrpc_rpcgen::parser::{parse, ParseError};
use specrpc_rpcgen::stubgen::{
    self, CompiledStub, GeneratedStubs, MsgShape, StubGenError, StubKind,
};
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

/// All four compiled stubs of one procedure in one specialization context.
#[derive(Debug)]
pub struct CompiledProc {
    /// (program, version, procedure) numbers.
    pub target: (u32, u32, u32),
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
}

/// A resolved specialization target: `(program, version, procedure)`
/// numbers plus argument and result shapes.
pub type ResolvedTarget = ((u32, u32, u32), MsgShape, MsgShape);

/// Builder for [`CompiledProc`]s.
#[derive(Debug, Clone, Default)]
pub struct ProcPipeline {
    /// Pinned length for counted arrays (the paper's per-size contexts).
    pub pinned_len: usize,
    /// Bounded-unroll chunk (Table 4); `None` = full unrolling.
    pub chunk: Option<usize>,
}

impl ProcPipeline {
    /// A pipeline with the given specialization context.
    pub fn new(pinned_len: usize) -> Self {
        ProcPipeline {
            pinned_len,
            chunk: None,
        }
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
        let chunk = self.chunk;
        let client_encode = stubgen::specialize_stub(&gs, StubKind::ClientEncode, chunk)?;
        let client_decode = stubgen::specialize_stub(&gs, StubKind::ClientDecode, chunk)?;
        let server_decode = stubgen::specialize_stub(&gs, StubKind::ServerDecode, chunk)?;
        let server_encode = stubgen::specialize_stub(&gs, StubKind::ServerEncode, chunk)?;
        Ok(CompiledProc {
            target: gs.target,
            client_encode,
            client_decode,
            server_decode,
            server_encode,
            arg_shape: gs.arg_shape,
            res_shape: gs.res_shape,
        })
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
        let chunked = ProcPipeline {
            chunk: Some(250),
            ..ProcPipeline::new(1000)
        }
        .build_from_idl(IDL, None, 1)
        .unwrap();
        assert!(chunked.client_encode.program.len() < full.client_encode.program.len() / 3);
    }

    /// An array pinned at 0 carries no element, counted or fixed: an
    /// encode of one is refused, not sent with the element dropped.
    #[test]
    fn an_array_pinned_at_0_refuses_an_element() {
        use crate::echo::{ECHO_IDL, ECHO_PROC};
        use specrpc_rpcgen::stubgen::FieldShape;
        use specrpc_tempo::compile::{run_encode, StubArgs, StubError};
        use specrpc_xdr::OpCounts;
        let echo = ProcPipeline::new(0).build_from_idl(ECHO_IDL, None, ECHO_PROC);
        let fixed = MsgShape {
            fields: vec![FieldShape::FixedIntArray {
                name: "a".into(),
                len: 0,
            }],
        };
        let fixed = ProcPipeline::new(0).build_from_shapes(7, 1, 1, fixed.clone(), fixed);
        for cp in [echo.unwrap(), fixed.unwrap()] {
            let enc = &cp.client_encode;
            let mut wire = vec![0xEEu8; enc.wire_len];
            let empty = StubArgs::new(vec![1], vec![vec![]]);
            assert!(run_encode(&enc.program, &mut wire, &empty, &mut OpCounts::new()).is_ok());
            for elems in [vec![7], vec![7, 8]] {
                let len = elems.len();
                let args = StubArgs::new(vec![1], vec![elems]);
                let mut buf = vec![0xEEu8; enc.wire_len];
                let err = run_encode(&enc.program, &mut buf, &args, &mut OpCounts::new());
                assert_eq!(
                    err,
                    Err(StubError::BadElem {
                        arr: 0,
                        idx: 0,
                        len
                    })
                );
                assert!(buf.iter().all(|&b| b == 0xEE), "nothing is stored");
            }
        }
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

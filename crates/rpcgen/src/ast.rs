//! Abstract syntax of the XDR/RPC interface definition language
//! (RFC 1014 §6 / RFC 1057 §11 — the language `rpcgen` consumes).

/// A type reference in a declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdlType {
    /// `int` / `long` (32-bit on the wire).
    Int,
    /// `unsigned int`.
    UInt,
    /// `hyper` (64-bit).
    Hyper,
    /// `unsigned hyper`.
    UHyper,
    /// `bool`.
    Bool,
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// `void` (only as a procedure argument/result).
    Void,
    /// A named type (struct/enum/typedef reference).
    Named(String),
}

/// A declaration: a type applied to an identifier with an optional
/// array/string/pointer decorator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// Declared name.
    pub name: String,
    /// Base type.
    pub ty: IdlType,
    /// Array/string/pointer shape.
    pub kind: DeclKind,
}

/// Shape of a declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeclKind {
    /// Plain scalar or named type.
    Scalar,
    /// Fixed-size array `t name[n]`.
    FixedArray(usize),
    /// Counted array `t name<max>` (`max` 0 means unbounded).
    VarArray(usize),
    /// `string name<max>`.
    String(usize),
    /// Fixed opaque `opaque name[n]`.
    FixedOpaque(usize),
    /// Counted opaque `opaque name<max>`.
    VarOpaque(usize),
    /// Optional (`t *name`).
    Pointer,
}

/// One arm of a discriminated union.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionArm {
    /// Case values selecting this arm.
    pub cases: Vec<i64>,
    /// Arm body (`void` arms carry a `Void` declaration).
    pub decl: Decl,
}

/// A top-level definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Definition {
    /// `const NAME = value;`
    Const {
        /// Constant name.
        name: String,
        /// Value.
        value: i64,
    },
    /// `enum name { A = 1, B = 2 };`
    Enum {
        /// Enum name.
        name: String,
        /// Members with explicit values.
        members: Vec<(String, i64)>,
    },
    /// `struct name { decls };`
    Struct {
        /// Struct name.
        name: String,
        /// Ordered fields.
        fields: Vec<Decl>,
    },
    /// `union name switch (int disc) { case …; default: …; };`
    Union {
        /// Union name.
        name: String,
        /// Discriminant declaration name.
        disc: String,
        /// Arms.
        arms: Vec<UnionArm>,
        /// Default arm, if declared.
        default: Option<Decl>,
    },
    /// `typedef decl;`
    Typedef(Decl),
    /// `program NAME { version … } = prognum;`
    Program(ProgramDef),
}

/// A program definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDef {
    /// Program name.
    pub name: String,
    /// Program number.
    pub number: u32,
    /// Versions.
    pub versions: Vec<VersionDef>,
}

/// A version within a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionDef {
    /// Version name.
    pub name: String,
    /// Version number.
    pub number: u32,
    /// Procedures.
    pub procs: Vec<ProcDef>,
}

/// A remote procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcDef {
    /// Procedure name.
    pub name: String,
    /// Procedure number.
    pub number: u32,
    /// Result type.
    pub result: IdlType,
    /// Argument type (single, as in classic rpcgen).
    pub arg: IdlType,
}

/// A parsed IDL file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdlFile {
    /// Top-level definitions in source order.
    pub defs: Vec<Definition>,
}

impl IdlFile {
    /// Find a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&[Decl]> {
        self.defs.iter().find_map(|d| match d {
            Definition::Struct { name: n, fields } if n == name => Some(fields.as_slice()),
            _ => None,
        })
    }

    /// Find an enum definition by name.
    #[cfg(test)]
    pub(crate) fn enum_def(&self, name: &str) -> Option<&[(String, i64)]> {
        self.defs.iter().find_map(|d| match d {
            Definition::Enum { name: n, members } if n == name => Some(members.as_slice()),
            _ => None,
        })
    }

    /// Find a constant's value.
    pub fn const_value(&self, name: &str) -> Option<i64> {
        self.defs.iter().find_map(|d| match d {
            Definition::Const { name: n, value } if n == name => Some(*value),
            _ => None,
        })
    }

    /// The programs declared in the file.
    pub fn programs(&self) -> Vec<&ProgramDef> {
        self.defs
            .iter()
            .filter_map(|d| match d {
                Definition::Program(p) => Some(p),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_work() {
        let f = IdlFile {
            defs: vec![
                Definition::Const {
                    name: "MAX".into(),
                    value: 100,
                },
                Definition::Struct {
                    name: "pair".into(),
                    fields: vec![Decl {
                        name: "a".into(),
                        ty: IdlType::Int,
                        kind: DeclKind::Scalar,
                    }],
                },
                Definition::Enum {
                    name: "color".into(),
                    members: vec![("RED".into(), 0)],
                },
            ],
        };
        assert_eq!(f.const_value("MAX"), Some(100));
        assert_eq!(f.struct_def("pair").unwrap().len(), 1);
        assert_eq!(f.enum_def("color").unwrap()[0].1, 0);
        assert!(f.programs().is_empty());
        assert_eq!(f.const_value("NOPE"), None);
    }
}

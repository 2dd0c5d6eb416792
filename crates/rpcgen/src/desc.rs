//! Runtime type descriptors and a table-driven marshaler.
//!
//! This is the *interpretive* way to marshal arbitrary IDL-defined data:
//! a generic walker drives the layered XDR routines from a type
//! description. The paper's related work (§7) discusses exactly this
//! implementation style (Hoschka & Huitema's table-driven marshalers).
//! Here it is an oracle: `tests/equivalence.rs` checks the specialized
//! stubs' bytes against it for hand-built descriptors.

use specrpc_xdr::composite::{xdr_bytes, xdr_opaque, xdr_string};
use specrpc_xdr::primitives::{
    xdr_bool, xdr_double, xdr_float, xdr_hyper, xdr_int, xdr_u_hyper, xdr_u_int,
};
use specrpc_xdr::{XdrError, XdrOp, XdrResult, XdrStream};

/// A runtime type descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDesc {
    /// 32-bit signed integer.
    Int,
    /// 32-bit unsigned integer.
    UInt,
    /// 64-bit signed integer.
    Hyper,
    /// 64-bit unsigned integer.
    UHyper,
    /// Boolean.
    Bool,
    /// IEEE single.
    Float,
    /// IEEE double.
    Double,
    /// No data.
    Void,
    /// Enum with declared members.
    Enum(Vec<i32>),
    /// UTF-8 string with max length (0 = unbounded).
    String(usize),
    /// Fixed-size opaque.
    FixedOpaque(usize),
    /// Counted opaque with max length (0 = unbounded).
    VarOpaque(usize),
    /// Fixed-size array.
    FixedArray(Box<TypeDesc>, usize),
    /// Counted array with max length (0 = unbounded).
    VarArray(Box<TypeDesc>, usize),
    /// Struct with named fields.
    Struct(Vec<(String, TypeDesc)>),
    /// Optional data.
    Optional(Box<TypeDesc>),
    /// Back-reference to the `k`-th enclosing struct descriptor (counting
    /// from the innermost): how recursive types (`node *next`) close their
    /// cycle without an infinite descriptor tree.
    Recurse(usize),
}

/// A dynamically typed XDR value matching a [`TypeDesc`].
#[derive(Debug, Clone, PartialEq)]
pub enum XdrValue {
    /// 32-bit signed.
    Int(i32),
    /// 32-bit unsigned.
    UInt(u32),
    /// 64-bit signed.
    Hyper(i64),
    /// 64-bit unsigned.
    UHyper(u64),
    /// Boolean.
    Bool(bool),
    /// Single float.
    Float(f32),
    /// Double float.
    Double(f64),
    /// No data.
    Void,
    /// Enum value.
    Enum(i32),
    /// String.
    Str(String),
    /// Opaque bytes (fixed or counted per the descriptor).
    Opaque(Vec<u8>),
    /// Array elements.
    Array(Vec<XdrValue>),
    /// Struct fields in declaration order.
    Struct(Vec<XdrValue>),
    /// Optional value.
    Optional(Option<Box<XdrValue>>),
}

impl XdrValue {
    /// A zero/default value of the given shape (decode targets).
    pub fn default_of(desc: &TypeDesc) -> XdrValue {
        match desc {
            TypeDesc::Int => XdrValue::Int(0),
            TypeDesc::UInt => XdrValue::UInt(0),
            TypeDesc::Hyper => XdrValue::Hyper(0),
            TypeDesc::UHyper => XdrValue::UHyper(0),
            TypeDesc::Bool => XdrValue::Bool(false),
            TypeDesc::Float => XdrValue::Float(0.0),
            TypeDesc::Double => XdrValue::Double(0.0),
            TypeDesc::Void => XdrValue::Void,
            TypeDesc::Enum(_) => XdrValue::Enum(0),
            TypeDesc::String(_) => XdrValue::Str(String::new()),
            TypeDesc::FixedOpaque(n) => XdrValue::Opaque(vec![0; *n]),
            TypeDesc::VarOpaque(_) => XdrValue::Opaque(Vec::new()),
            TypeDesc::FixedArray(elem, n) => {
                XdrValue::Array((0..*n).map(|_| XdrValue::default_of(elem)).collect())
            }
            TypeDesc::VarArray(..) => XdrValue::Array(Vec::new()),
            TypeDesc::Struct(fields) => XdrValue::Struct(
                fields
                    .iter()
                    .map(|(_, d)| XdrValue::default_of(d))
                    .collect(),
            ),
            TypeDesc::Optional(_) => XdrValue::Optional(None),
            TypeDesc::Recurse(_) => XdrValue::Optional(None),
        }
    }

    /// Wire size of this value under its descriptor, in bytes.
    pub fn wire_size(&self, desc: &TypeDesc) -> usize {
        let mut stack = Vec::new();
        self.wire_size_s(desc, &mut stack)
    }

    fn wire_size_s<'d>(&self, desc: &'d TypeDesc, stack: &mut Vec<&'d TypeDesc>) -> usize {
        match (self, desc) {
            (XdrValue::Hyper(_), _) | (XdrValue::UHyper(_), _) | (XdrValue::Double(_), _) => 8,
            (XdrValue::Void, _) => 0,
            (XdrValue::Str(s), _) => specrpc_xdr::sizes::counted_opaque_size(s.len()),
            (XdrValue::Opaque(b), TypeDesc::FixedOpaque(_)) => specrpc_xdr::sizes::rndup(b.len()),
            (XdrValue::Opaque(b), _) => specrpc_xdr::sizes::counted_opaque_size(b.len()),
            (XdrValue::Array(items), TypeDesc::FixedArray(elem, _)) => {
                items.iter().map(|i| i.wire_size_s(elem, stack)).sum()
            }
            (XdrValue::Array(items), TypeDesc::VarArray(elem, _)) => {
                4 + items
                    .iter()
                    .map(|i| i.wire_size_s(elem, stack))
                    .sum::<usize>()
            }
            (XdrValue::Struct(vals), TypeDesc::Struct(fields)) => {
                stack.push(desc);
                let n = vals
                    .iter()
                    .zip(fields.iter())
                    .map(|(v, (_, d))| v.wire_size_s(d, stack))
                    .sum();
                stack.pop();
                n
            }
            (XdrValue::Optional(opt), TypeDesc::Optional(inner)) => {
                4 + opt
                    .as_ref()
                    .map(|v| v.wire_size_s(inner, stack))
                    .unwrap_or(0)
            }
            (_, TypeDesc::Recurse(k)) => {
                let target = stack[stack.len() - 1 - k];
                // Careful: do not re-push; the target resolves within its
                // own position on the stack.
                let keep = stack.split_off(stack.len() - k);
                let n = self.wire_size_s(target, stack);
                stack.extend(keep);
                n
            }
            _ => 4,
        }
    }
}

const UNBOUNDED: usize = u32::MAX as usize;

fn limit(max: usize) -> usize {
    if max == 0 {
        UNBOUNDED
    } else {
        max
    }
}

/// The table-driven marshaler: walk the descriptor, driving the generic
/// micro-layers. Works in both encode and decode directions (the value is
/// replaced on decode).
pub fn xdr_value(xdrs: &mut dyn XdrStream, desc: &TypeDesc, val: &mut XdrValue) -> XdrResult {
    let mut stack = Vec::new();
    xdr_value_s(xdrs, desc, val, &mut stack)
}

fn xdr_value_s<'d>(
    xdrs: &mut dyn XdrStream,
    desc: &'d TypeDesc,
    val: &mut XdrValue,
    stack: &mut Vec<&'d TypeDesc>,
) -> XdrResult {
    // Resolve back-references against the enclosing-struct stack.
    if let TypeDesc::Recurse(k) = desc {
        if stack.len() <= *k {
            return Err(XdrError::WrongOp);
        }
        let target = stack[stack.len() - 1 - *k];
        // Marshal under the target's own stack position.
        let keep = stack.split_off(stack.len() - k);
        let r = xdr_value_s(xdrs, target, val, stack);
        stack.extend(keep);
        return r;
    }
    match (desc, val) {
        (TypeDesc::Int, XdrValue::Int(v)) => xdr_int(xdrs, v),
        (TypeDesc::UInt, XdrValue::UInt(v)) => xdr_u_int(xdrs, v),
        (TypeDesc::Hyper, XdrValue::Hyper(v)) => xdr_hyper(xdrs, v),
        (TypeDesc::UHyper, XdrValue::UHyper(v)) => xdr_u_hyper(xdrs, v),
        (TypeDesc::Bool, XdrValue::Bool(v)) => xdr_bool(xdrs, v),
        (TypeDesc::Float, XdrValue::Float(v)) => xdr_float(xdrs, v),
        (TypeDesc::Double, XdrValue::Double(v)) => xdr_double(xdrs, v),
        (TypeDesc::Void, XdrValue::Void) => Ok(()),
        (TypeDesc::Enum(members), XdrValue::Enum(v)) => {
            specrpc_xdr::primitives::xdr_enum(xdrs, v, members)
        }
        (TypeDesc::String(max), XdrValue::Str(s)) => xdr_string(xdrs, s, limit(*max)),
        (TypeDesc::FixedOpaque(n), XdrValue::Opaque(b)) => {
            if b.len() != *n {
                return Err(XdrError::SizeLimit {
                    len: b.len(),
                    max: *n,
                });
            }
            xdr_opaque(xdrs, b.as_mut_slice())
        }
        (TypeDesc::VarOpaque(max), XdrValue::Opaque(b)) => xdr_bytes(xdrs, b, limit(*max)),
        (TypeDesc::FixedArray(elem, n), XdrValue::Array(items)) => {
            match xdrs.op() {
                XdrOp::Decode => {
                    items.clear();
                    items.resize(*n, XdrValue::default_of(elem));
                }
                _ => {
                    if items.len() != *n {
                        return Err(XdrError::SizeLimit {
                            len: items.len(),
                            max: *n,
                        });
                    }
                }
            }
            for item in items.iter_mut() {
                xdr_value_s(xdrs, elem, item, stack)?;
            }
            Ok(())
        }
        (TypeDesc::VarArray(elem, max), XdrValue::Array(items)) => {
            let max = limit(*max);
            match xdrs.op() {
                XdrOp::Encode => {
                    if items.len() > max {
                        return Err(XdrError::SizeLimit {
                            len: items.len(),
                            max,
                        });
                    }
                    let mut len = items.len() as u32;
                    xdr_u_int(xdrs, &mut len)?;
                }
                XdrOp::Decode => {
                    let mut len = 0u32;
                    xdr_u_int(xdrs, &mut len)?;
                    if len as usize > max {
                        return Err(XdrError::SizeLimit {
                            len: len as usize,
                            max,
                        });
                    }
                    items.clear();
                    items.resize(len as usize, XdrValue::default_of(elem));
                }
                XdrOp::Free => {
                    items.clear();
                    return Ok(());
                }
            }
            for item in items.iter_mut() {
                xdr_value_s(xdrs, elem, item, stack)?;
            }
            Ok(())
        }
        (TypeDesc::Struct(fields), XdrValue::Struct(vals)) => {
            if xdrs.op() == XdrOp::Decode && vals.len() != fields.len() {
                vals.clear();
                vals.extend(fields.iter().map(|(_, d)| XdrValue::default_of(d)));
            }
            if vals.len() != fields.len() {
                return Err(XdrError::SizeLimit {
                    len: vals.len(),
                    max: fields.len(),
                });
            }
            stack.push(desc);
            for ((_, d), v) in fields.iter().zip(vals.iter_mut()) {
                if let Err(e) = xdr_value_s(xdrs, d, v, stack) {
                    stack.pop();
                    return Err(e);
                }
            }
            stack.pop();
            Ok(())
        }
        (TypeDesc::Optional(inner), XdrValue::Optional(opt)) => match xdrs.op() {
            XdrOp::Encode => {
                let mut more = opt.is_some();
                xdr_bool(xdrs, &mut more)?;
                if let Some(v) = opt.as_deref_mut() {
                    xdr_value_s(xdrs, inner, v, stack)?;
                }
                Ok(())
            }
            XdrOp::Decode => {
                let mut more = false;
                xdr_bool(xdrs, &mut more)?;
                if more {
                    // Resolve back-references before building the default.
                    let target: &TypeDesc = match inner.as_ref() {
                        TypeDesc::Recurse(k) if stack.len() > *k => stack[stack.len() - 1 - *k],
                        other => other,
                    };
                    let mut v = XdrValue::default_of(target);
                    xdr_value_s(xdrs, inner, &mut v, stack)?;
                    *opt = Some(Box::new(v));
                } else {
                    *opt = None;
                }
                Ok(())
            }
            XdrOp::Free => {
                *opt = None;
                Ok(())
            }
        },
        // Shape mismatch between value and descriptor.
        _ => Err(XdrError::WrongOp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_xdr::mem::XdrMem;

    fn roundtrip(desc: &TypeDesc, val: &XdrValue) -> XdrValue {
        let mut enc = XdrMem::encoder(1 << 16);
        let mut v = val.clone();
        xdr_value(&mut enc, desc, &mut v).unwrap();
        assert_eq!(enc.getpos(), val.wire_size(desc), "wire_size model");
        let mut dec = XdrMem::decoder(enc.bytes());
        let mut out = XdrValue::default_of(desc);
        xdr_value(&mut dec, desc, &mut out).unwrap();
        out
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(
            roundtrip(&TypeDesc::Int, &XdrValue::Int(-5)),
            XdrValue::Int(-5)
        );
        assert_eq!(
            roundtrip(&TypeDesc::UHyper, &XdrValue::UHyper(u64::MAX)),
            XdrValue::UHyper(u64::MAX)
        );
        assert_eq!(
            roundtrip(&TypeDesc::Double, &XdrValue::Double(2.5)),
            XdrValue::Double(2.5)
        );
        assert_eq!(
            roundtrip(&TypeDesc::Bool, &XdrValue::Bool(true)),
            XdrValue::Bool(true)
        );
    }

    #[test]
    fn string_and_opaque_roundtrip() {
        assert_eq!(
            roundtrip(&TypeDesc::String(64), &XdrValue::Str("xdr".into())),
            XdrValue::Str("xdr".into())
        );
        assert_eq!(
            roundtrip(&TypeDesc::VarOpaque(16), &XdrValue::Opaque(vec![1, 2, 3])),
            XdrValue::Opaque(vec![1, 2, 3])
        );
        assert_eq!(
            roundtrip(
                &TypeDesc::FixedOpaque(4),
                &XdrValue::Opaque(vec![9, 8, 7, 6])
            ),
            XdrValue::Opaque(vec![9, 8, 7, 6])
        );
    }

    #[test]
    fn nested_struct_roundtrip() {
        let desc = TypeDesc::Struct(vec![
            ("id".into(), TypeDesc::Int),
            (
                "tags".into(),
                TypeDesc::VarArray(Box::new(TypeDesc::String(16)), 8),
            ),
            ("next".into(), TypeDesc::Optional(Box::new(TypeDesc::Int))),
        ]);
        let val = XdrValue::Struct(vec![
            XdrValue::Int(7),
            XdrValue::Array(vec![XdrValue::Str("a".into()), XdrValue::Str("bb".into())]),
            XdrValue::Optional(Some(Box::new(XdrValue::Int(42)))),
        ]);
        assert_eq!(roundtrip(&desc, &val), val);
    }

    #[test]
    fn linked_list_roundtrip() {
        // struct node { int v; node *next; };
        let desc = TypeDesc::Struct(vec![
            ("v".into(), TypeDesc::Int),
            (
                "next".into(),
                TypeDesc::Optional(Box::new(TypeDesc::Recurse(0))),
            ),
        ]);
        let val = XdrValue::Struct(vec![
            XdrValue::Int(1),
            XdrValue::Optional(Some(Box::new(XdrValue::Struct(vec![
                XdrValue::Int(2),
                XdrValue::Optional(None),
            ])))),
        ]);
        assert_eq!(roundtrip(&desc, &val), val);
    }

    #[test]
    fn var_array_respects_bound() {
        let desc = TypeDesc::VarArray(Box::new(TypeDesc::Int), 2);
        let mut enc = XdrMem::encoder(64);
        let mut v = XdrValue::Array(vec![XdrValue::Int(1); 3]);
        assert!(xdr_value(&mut enc, &desc, &mut v).is_err());
    }

    #[test]
    fn shape_mismatch_is_error() {
        let mut enc = XdrMem::encoder(16);
        let mut v = XdrValue::Bool(true);
        assert!(xdr_value(&mut enc, &TypeDesc::Int, &mut v).is_err());
    }

    #[test]
    fn fixed_array_decodes_to_declared_length() {
        let desc = TypeDesc::FixedArray(Box::new(TypeDesc::Int), 3);
        let out = roundtrip(
            &desc,
            &XdrValue::Array(vec![XdrValue::Int(4), XdrValue::Int(5), XdrValue::Int(6)]),
        );
        assert_eq!(
            out,
            XdrValue::Array(vec![XdrValue::Int(4), XdrValue::Int(5), XdrValue::Int(6)])
        );
    }
}

//! Dynamic method invocation over reflection metadata.
//!
//! §5: "We are developing SIDL support for reflection and dynamic method
//! invocation ... Interface information for dynamically loaded components
//! is often unavailable at compile time; thus, components and the
//! associated composition tools and frameworks must discover, query, and
//! execute methods at run time."
//!
//! [`DynValue`] is the boxed any-SIDL-value type; [`DynObject`] is the
//! dynamic receiver; [`invoke_checked`] validates a call against a
//! [`MethodInfo`] before dispatching — the run-time half of the SIDL
//! compiler's reflection story (benchmarked against static stubs in E5).

use crate::ast::{Mode, Type};
use crate::error::SidlError;
use crate::reflect::MethodInfo;
use cca_data::{Complex32, Complex64, NdArray};
use std::fmt;
use std::sync::Arc;

/// A dynamically typed SIDL value.
#[derive(Clone)]
pub enum DynValue {
    /// `void` (returns only).
    Void,
    /// `bool`.
    Bool(bool),
    /// `char`.
    Char(char),
    /// `int`.
    Int(i32),
    /// `long`.
    Long(i64),
    /// `float`.
    Float(f32),
    /// `double`.
    Double(f64),
    /// `fcomplex`.
    Fcomplex(Complex32),
    /// `dcomplex`.
    Dcomplex(Complex64),
    /// `string`.
    Str(String),
    /// `opaque` handle.
    Opaque(u64),
    /// `array<double, R>`.
    DoubleArray(NdArray<f64>),
    /// `array<long, R>` (also used for `array<int, R>` at the boundary).
    LongArray(NdArray<i64>),
    /// `array<dcomplex, R>`.
    DcomplexArray(NdArray<Complex64>),
    /// An enum value: `(enum type name, variant value)`.
    Enum(String, i64),
    /// An object reference.
    Object(Arc<dyn DynObject>),
}

impl fmt::Debug for DynValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynValue::Void => write!(f, "Void"),
            DynValue::Bool(v) => write!(f, "Bool({v})"),
            DynValue::Char(v) => write!(f, "Char({v:?})"),
            DynValue::Int(v) => write!(f, "Int({v})"),
            DynValue::Long(v) => write!(f, "Long({v})"),
            DynValue::Float(v) => write!(f, "Float({v})"),
            DynValue::Double(v) => write!(f, "Double({v})"),
            DynValue::Fcomplex(v) => write!(f, "Fcomplex({v})"),
            DynValue::Dcomplex(v) => write!(f, "Dcomplex({v})"),
            DynValue::Str(v) => write!(f, "Str({v:?})"),
            DynValue::Opaque(v) => write!(f, "Opaque({v:#x})"),
            DynValue::DoubleArray(a) => write!(f, "DoubleArray(extents {:?})", a.extents()),
            DynValue::LongArray(a) => write!(f, "LongArray(extents {:?})", a.extents()),
            DynValue::DcomplexArray(a) => {
                write!(f, "DcomplexArray(extents {:?})", a.extents())
            }
            DynValue::Enum(t, v) => write!(f, "Enum({t}, {v})"),
            DynValue::Object(o) => write!(f, "Object({})", o.sidl_type()),
        }
    }
}

impl DynValue {
    /// The SIDL type-family name of this value (for diagnostics).
    fn kind_name(&self) -> &'static str {
        match self {
            DynValue::Void => "void",
            DynValue::Bool(_) => "bool",
            DynValue::Char(_) => "char",
            DynValue::Int(_) => "int",
            DynValue::Long(_) => "long",
            DynValue::Float(_) => "float",
            DynValue::Double(_) => "double",
            DynValue::Fcomplex(_) => "fcomplex",
            DynValue::Dcomplex(_) => "dcomplex",
            DynValue::Str(_) => "string",
            DynValue::Opaque(_) => "opaque",
            DynValue::DoubleArray(_) => "array<double>",
            DynValue::LongArray(_) => "array<long>",
            DynValue::DcomplexArray(_) => "array<dcomplex>",
            DynValue::Enum(_, _) => "enum",
            DynValue::Object(_) => "object",
        }
    }

    /// True if this value can be passed where `ty` is expected. Arrays
    /// match on element family; declared-rank arrays additionally require a
    /// matching runtime rank; named types accept enums and objects (the
    /// precise subtype check needs reflection and lives in the framework).
    fn conforms_to(&self, ty: &Type) -> bool {
        match (self, ty) {
            (DynValue::Bool(_), Type::Bool)
            | (DynValue::Char(_), Type::Char)
            | (DynValue::Int(_), Type::Int)
            | (DynValue::Long(_), Type::Long)
            | (DynValue::Float(_), Type::Float)
            | (DynValue::Double(_), Type::Double)
            | (DynValue::Fcomplex(_), Type::Fcomplex)
            | (DynValue::Dcomplex(_), Type::Dcomplex)
            | (DynValue::Str(_), Type::Str)
            | (DynValue::Opaque(_), Type::Opaque) => true,
            // Widening conversions the bindings perform implicitly.
            (DynValue::Int(_), Type::Long)
            | (DynValue::Int(_), Type::Double)
            | (DynValue::Long(_), Type::Double)
            | (DynValue::Float(_), Type::Double) => true,
            (DynValue::DoubleArray(a), Type::Array { elem, rank }) => {
                matches!(**elem, Type::Double) && (*rank == 0 || a.rank() == *rank as usize)
            }
            (DynValue::LongArray(a), Type::Array { elem, rank }) => {
                matches!(**elem, Type::Long | Type::Int)
                    && (*rank == 0 || a.rank() == *rank as usize)
            }
            (DynValue::DcomplexArray(a), Type::Array { elem, rank }) => {
                matches!(**elem, Type::Dcomplex) && (*rank == 0 || a.rank() == *rank as usize)
            }
            (DynValue::Enum(_, _), Type::Named(_)) => true,
            (DynValue::Object(_), Type::Named(_)) => true,
            _ => false,
        }
    }

    /// Extracts a `double`, accepting the widening `int`/`long`/`float`
    /// conversions SIDL bindings perform.
    pub fn as_double(&self) -> Result<f64, SidlError> {
        match self {
            DynValue::Double(v) => Ok(*v),
            DynValue::Float(v) => Ok(*v as f64),
            DynValue::Int(v) => Ok(*v as f64),
            DynValue::Long(v) => Ok(*v as f64),
            other => Err(SidlError::invoke(format!(
                "expected double, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extracts a `long` (accepting `int`).
    pub fn as_long(&self) -> Result<i64, SidlError> {
        match self {
            DynValue::Long(v) => Ok(*v),
            DynValue::Int(v) => Ok(*v as i64),
            other => Err(SidlError::invoke(format!(
                "expected long, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extracts a `bool`.
    pub fn as_bool(&self) -> Result<bool, SidlError> {
        match self {
            DynValue::Bool(v) => Ok(*v),
            other => Err(SidlError::invoke(format!(
                "expected bool, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str, SidlError> {
        match self {
            DynValue::Str(v) => Ok(v),
            other => Err(SidlError::invoke(format!(
                "expected string, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extracts a double array.
    pub fn as_double_array(&self) -> Result<&NdArray<f64>, SidlError> {
        match self {
            DynValue::DoubleArray(a) => Ok(a),
            other => Err(SidlError::invoke(format!(
                "expected array<double>, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extracts an object reference.
    pub fn as_object(&self) -> Result<&Arc<dyn DynObject>, SidlError> {
        match self {
            DynValue::Object(o) => Ok(o),
            other => Err(SidlError::invoke(format!(
                "expected object, got {}",
                other.kind_name()
            ))),
        }
    }
}

/// A dynamically invocable object — what a SIDL skeleton wraps a concrete
/// implementation in. Implementations are free to use interior mutability;
/// the CCA framework shares `DynObject`s across components.
pub trait DynObject: Send + Sync {
    /// The object's fully qualified SIDL type name.
    fn sidl_type(&self) -> &str;

    /// Invokes `method` with positional arguments.
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError>;
}

/// Validates an argument list against reflection metadata, then dispatches.
/// This is the "checked" dynamic-invocation path a composition tool uses
/// when it only knows the interface at run time.
pub fn invoke_checked(
    target: &dyn DynObject,
    info: &MethodInfo,
    args: Vec<DynValue>,
) -> Result<DynValue, SidlError> {
    if args.len() != info.args.len() {
        return Err(SidlError::invoke(format!(
            "{}.{} expects {} arguments, got {}",
            target.sidl_type(),
            info.name,
            info.args.len(),
            args.len()
        )));
    }
    for (i, (arg, (mode, ty, name))) in args.iter().zip(&info.args).enumerate() {
        // `out` arguments are produced by the callee; callers pass a
        // placeholder that we do not type-check.
        if *mode == Mode::Out {
            continue;
        }
        if !arg.conforms_to(ty) {
            return Err(SidlError::invoke(format!(
                "argument {i} ('{name}') of {}.{}: expected {ty:?}, got {}",
                target.sidl_type(),
                info.name,
                arg.kind_name()
            )));
        }
    }
    target.invoke(&info.name, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::reflect::Reflection;
    use parking_lot::Mutex;

    /// A hand-written skeleton for the `esi.Counter` class below — exactly
    /// what `codegen_rust` emits, but spelled out for the unit test.
    struct Counter {
        value: Mutex<i64>,
    }

    impl DynObject for Counter {
        fn sidl_type(&self) -> &str {
            "esi.Counter"
        }

        fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "add" => {
                    let delta = args[0].as_long()?;
                    let mut v = self.value.lock();
                    *v += delta;
                    Ok(DynValue::Long(*v))
                }
                "reset" => {
                    *self.value.lock() = 0;
                    Ok(DynValue::Void)
                }
                "fail" => Err(SidlError::user("esi.CounterError", "requested failure")),
                other => Err(SidlError::invoke(format!("unknown method '{other}'"))),
            }
        }
    }

    const SRC: &str = "
        package esi {
            class CounterError { string message(); }
            class Counter {
                long add(in long delta);
                void reset();
                void fail() throws esi.CounterError;
            }
        }
    ";

    fn counter_info(method: &str) -> crate::reflect::MethodInfo {
        let r = Reflection::from_model(&compile(SRC).unwrap());
        r.type_info("esi.Counter")
            .unwrap()
            .method(method)
            .unwrap()
            .clone()
    }

    #[test]
    fn checked_invocation_happy_path() {
        let c = Counter {
            value: Mutex::new(0),
        };
        let add = counter_info("add");
        let r = invoke_checked(&c, &add, vec![DynValue::Long(5)]).unwrap();
        assert!(matches!(r, DynValue::Long(5)));
        let r = invoke_checked(&c, &add, vec![DynValue::Long(2)]).unwrap();
        assert!(matches!(r, DynValue::Long(7)));
    }

    #[test]
    fn arity_checked() {
        let c = Counter {
            value: Mutex::new(0),
        };
        let add = counter_info("add");
        let e = invoke_checked(&c, &add, vec![]).unwrap_err();
        assert!(e.to_string().contains("expects 1 arguments"));
    }

    #[test]
    fn argument_types_checked() {
        let c = Counter {
            value: Mutex::new(0),
        };
        let add = counter_info("add");
        let e = invoke_checked(&c, &add, vec![DynValue::Str("nope".into())]).unwrap_err();
        assert!(e.to_string().contains("expected"));
        // int widens to long, as bindings allow.
        assert!(invoke_checked(&c, &add, vec![DynValue::Int(3)]).is_ok());
    }

    #[test]
    fn user_exceptions_propagate() {
        let c = Counter {
            value: Mutex::new(0),
        };
        let fail = counter_info("fail");
        let e = invoke_checked(&c, &fail, vec![]).unwrap_err();
        assert!(matches!(e, SidlError::UserException { .. }));
        assert!(e.to_string().contains("esi.CounterError"));
    }

    #[test]
    fn conformance_rules() {
        use crate::ast::QName;
        let d = DynValue::Double(1.0);
        assert!(d.conforms_to(&Type::Double));
        assert!(!d.conforms_to(&Type::Int));
        let arr = DynValue::DoubleArray(NdArray::zeros(&[2, 2]));
        assert!(arr.conforms_to(&Type::Array {
            elem: Box::new(Type::Double),
            rank: 2
        }));
        assert!(arr.conforms_to(&Type::Array {
            elem: Box::new(Type::Double),
            rank: 0
        }));
        assert!(!arr.conforms_to(&Type::Array {
            elem: Box::new(Type::Double),
            rank: 1
        }));
        assert!(!arr.conforms_to(&Type::Array {
            elem: Box::new(Type::Int),
            rank: 2
        }));
        let obj = DynValue::Object(Arc::new(Counter {
            value: Mutex::new(0),
        }));
        assert!(obj.conforms_to(&Type::Named(QName::parse("esi.Counter"))));
        assert!(DynValue::Enum("esi.Status".into(), 1)
            .conforms_to(&Type::Named(QName::parse("esi.Status"))));
    }

    #[test]
    fn accessors_and_widening() {
        assert_eq!(DynValue::Int(4).as_double().unwrap(), 4.0);
        assert_eq!(DynValue::Float(0.5).as_double().unwrap(), 0.5);
        assert_eq!(DynValue::Int(4).as_long().unwrap(), 4);
        assert!(DynValue::Bool(true).as_bool().unwrap());
        assert_eq!(DynValue::Str("x".into()).as_str().unwrap(), "x");
        assert!(DynValue::Void.as_double().is_err());
        assert!(DynValue::Double(1.0).as_str().is_err());
        assert!(DynValue::Double(1.0).as_object().is_err());
    }

    #[test]
    fn debug_rendering_is_total() {
        let values: Vec<DynValue> = vec![
            DynValue::Void,
            DynValue::Bool(true),
            DynValue::Char('x'),
            DynValue::Int(1),
            DynValue::Long(2),
            DynValue::Float(0.5),
            DynValue::Double(0.25),
            DynValue::Fcomplex(Complex32::new(1.0, 2.0)),
            DynValue::Dcomplex(Complex64::new(1.0, 2.0)),
            DynValue::Str("s".into()),
            DynValue::Opaque(0xdead),
            DynValue::DoubleArray(NdArray::zeros(&[2])),
            DynValue::LongArray(NdArray::zeros(&[2])),
            DynValue::DcomplexArray(NdArray::zeros(&[2])),
            DynValue::Enum("E".into(), 3),
            DynValue::Object(Arc::new(Counter {
                value: Mutex::new(0),
            })),
        ];
        for v in values {
            assert!(!format!("{v:?}").is_empty());
        }
    }
}

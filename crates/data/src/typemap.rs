//! The CCA `TypeMap`: a heterogeneous string-keyed property map.
//!
//! Every CCA port registration and component configuration in the paper's
//! Figure 2 carries a property bag — port properties, component parameters,
//! builder hints. The real CCA specification standardized this as the
//! `TypeMap` interface with typed getters that return a caller-supplied
//! default when the key is absent, and a strict variant that errors on a
//! type mismatch. We reproduce both access styles.

use crate::complex::Complex64;
use crate::error::DataError;
use std::collections::BTreeMap;

/// A value stored in a [`TypeMap`]. Covers the SIDL primitive types plus
/// homogeneous arrays of the three workhorse element types.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeMapValue {
    /// 32-bit integer (`int` in SIDL).
    Int(i32),
    /// 64-bit integer (`long`).
    Long(i64),
    /// Double-precision real (`double`).
    Double(f64),
    /// Double-precision complex (`dcomplex`).
    Dcomplex(Complex64),
    /// Boolean (`bool`).
    Bool(bool),
    /// UTF-8 string (`string`).
    Str(String),
    /// Array of longs.
    LongArray(Vec<i64>),
    /// Array of doubles.
    DoubleArray(Vec<f64>),
    /// Array of strings.
    StrArray(Vec<String>),
}

impl TypeMapValue {
    /// Human-readable name of the contained type (used in error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            TypeMapValue::Int(_) => "int",
            TypeMapValue::Long(_) => "long",
            TypeMapValue::Double(_) => "double",
            TypeMapValue::Dcomplex(_) => "dcomplex",
            TypeMapValue::Bool(_) => "bool",
            TypeMapValue::Str(_) => "string",
            TypeMapValue::LongArray(_) => "long[]",
            TypeMapValue::DoubleArray(_) => "double[]",
            TypeMapValue::StrArray(_) => "string[]",
        }
    }
}

macro_rules! typed_accessors {
    ($get:ident, $get_strict:ident, $put:ident, $variant:ident, $ty:ty, $name:expr) => {
        /// Returns the value for `key`, or `default` if the key is absent
        /// **or holds a different type** (the permissive CCA accessor).
        pub fn $get(&self, key: &str, default: $ty) -> $ty {
            match self.entries.get(key) {
                Some(TypeMapValue::$variant(v)) => v.clone(),
                _ => default,
            }
        }

        /// Returns the value for `key`, erroring if absent or mistyped.
        pub fn $get_strict(&self, key: &str) -> Result<$ty, DataError> {
            match self.entries.get(key) {
                Some(TypeMapValue::$variant(v)) => Ok(v.clone()),
                Some(other) => Err(DataError::TypeMismatch {
                    key: key.to_string(),
                    expected: $name,
                    found: other.type_name(),
                }),
                None => Err(DataError::KeyNotFound(key.to_string())),
            }
        }

        /// Inserts or replaces the value for `key`.
        pub fn $put(&mut self, key: impl Into<String>, value: $ty) {
            self.entries
                .insert(key.into(), TypeMapValue::$variant(value));
        }
    };
}

/// A heterogeneous property map with typed accessors.
///
/// ```
/// use cca_data::TypeMap;
/// let mut m = TypeMap::new();
/// m.put_double("tolerance", 1e-8);
/// m.put_string("method", "cg".into());
/// assert_eq!(m.get_double("tolerance", 0.0), 1e-8);
/// // Permissive accessor returns the default on absence or type mismatch:
/// assert_eq!(m.get_int("tolerance", -1), -1);
/// // The strict accessor distinguishes the two:
/// assert!(m.get_int_strict("tolerance").is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeMap {
    entries: BTreeMap<String, TypeMapValue>,
}

impl TypeMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    typed_accessors!(get_int, get_int_strict, put_int, Int, i32, "int");
    typed_accessors!(get_long, get_long_strict, put_long, Long, i64, "long");
    typed_accessors!(
        get_double,
        get_double_strict,
        put_double,
        Double,
        f64,
        "double"
    );
    typed_accessors!(
        get_dcomplex,
        get_dcomplex_strict,
        put_dcomplex,
        Dcomplex,
        Complex64,
        "dcomplex"
    );
    typed_accessors!(get_bool, get_bool_strict, put_bool, Bool, bool, "bool");
    typed_accessors!(
        get_string,
        get_string_strict,
        put_string,
        Str,
        String,
        "string"
    );
    typed_accessors!(
        get_long_array,
        get_long_array_strict,
        put_long_array,
        LongArray,
        Vec<i64>,
        "long[]"
    );
    typed_accessors!(
        get_double_array,
        get_double_array_strict,
        put_double_array,
        DoubleArray,
        Vec<f64>,
        "double[]"
    );
    typed_accessors!(
        get_string_array,
        get_string_array_strict,
        put_string_array,
        StrArray,
        Vec<String>,
        "string[]"
    );

    /// Raw access to the stored value.
    pub fn get(&self, key: &str) -> Option<&TypeMapValue> {
        self.entries.get(key)
    }

    /// Inserts a raw value.
    pub fn put(&mut self, key: impl Into<String>, value: TypeMapValue) {
        self.entries.insert(key.into(), value);
    }

    /// Removes a key, returning the previous value if present.
    pub fn remove(&mut self, key: &str) -> Option<TypeMapValue> {
        self.entries.remove(key)
    }

    /// All keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other` into `self`; `other`'s entries win on key collision.
    pub fn merge(&mut self, other: &TypeMap) {
        for (k, v) in &other.entries {
            self.entries.insert(k.clone(), v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip_all_types() {
        let mut m = TypeMap::new();
        m.put_int("i", 42);
        m.put_long("l", 1 << 40);
        m.put_double("d", 2.5);
        m.put_dcomplex("z", Complex64::new(1.0, -1.0));
        m.put_bool("b", true);
        m.put_string("s", "hello".to_string());
        m.put_long_array("la", vec![1, 2, 3]);
        m.put_double_array("da", vec![0.5, 1.5]);
        m.put_string_array("sa", vec!["a".into(), "b".into()]);

        assert_eq!(m.get_int("i", 0), 42);
        assert_eq!(m.get_long("l", 0), 1 << 40);
        assert_eq!(m.get_double("d", 0.0), 2.5);
        assert_eq!(
            m.get_dcomplex("z", Complex64::ZERO),
            Complex64::new(1.0, -1.0)
        );
        assert!(m.get_bool("b", false));
        assert_eq!(m.get_string("s", String::new()), "hello");
        assert_eq!(m.get_long_array("la", vec![]), vec![1, 2, 3]);
        assert_eq!(m.get_double_array("da", vec![]), vec![0.5, 1.5]);
        assert_eq!(m.get_string_array("sa", vec![]), vec!["a", "b"]);
        assert_eq!(m.len(), 9);
    }

    #[test]
    fn permissive_accessor_returns_default_on_missing_or_mistyped() {
        let mut m = TypeMap::new();
        m.put_int("i", 7);
        assert_eq!(m.get_int("absent", -1), -1);
        // Mistyped: "i" holds an int, asking for a double yields the default.
        assert_eq!(m.get_double("i", 3.25), 3.25);
    }

    #[test]
    fn strict_accessor_distinguishes_missing_from_mistyped() {
        let mut m = TypeMap::new();
        m.put_int("i", 7);
        assert_eq!(m.get_int_strict("i").unwrap(), 7);
        assert!(matches!(
            m.get_int_strict("absent"),
            Err(DataError::KeyNotFound(_))
        ));
        assert!(matches!(
            m.get_double_strict("i"),
            Err(DataError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn replace_and_remove() {
        let mut m = TypeMap::new();
        m.put_int("k", 1);
        m.put_int("k", 2);
        assert_eq!(m.get_int("k", 0), 2);
        // Replacing with a different type changes the stored type.
        m.put_string("k", "now a string".into());
        assert_eq!(m.get("k").map(TypeMapValue::type_name), Some("string"));
        assert!(m.remove("k").is_some());
        assert!(m.get("k").is_none());
        assert!(m.remove("k").is_none());
    }

    #[test]
    fn keys_are_sorted() {
        let mut m = TypeMap::new();
        m.put_int("zeta", 1);
        m.put_int("alpha", 2);
        m.put_int("mid", 3);
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = TypeMap::new();
        a.put_int("x", 1);
        a.put_int("only_a", 10);
        let mut b = TypeMap::new();
        b.put_int("x", 2);
        b.put_int("only_b", 20);
        a.merge(&b);
        assert_eq!(a.get_int("x", 0), 2);
        assert_eq!(a.get_int("only_a", 0), 10);
        assert_eq!(a.get_int("only_b", 0), 20);
    }

    #[test]
    fn empty_map_behaviour() {
        let m = TypeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get("anything"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = TypeMapValue> {
        prop_oneof![
            any::<i32>().prop_map(TypeMapValue::Int),
            any::<i64>().prop_map(TypeMapValue::Long),
            any::<f64>()
                .prop_filter("finite", |x| x.is_finite())
                .prop_map(TypeMapValue::Double),
            any::<bool>().prop_map(TypeMapValue::Bool),
            "[a-z]{0,8}".prop_map(TypeMapValue::Str),
            proptest::collection::vec(any::<i64>(), 0..4).prop_map(TypeMapValue::LongArray),
        ]
    }

    proptest! {
        #[test]
        fn put_then_get_returns_same_value(
            entries in proptest::collection::btree_map("[a-z]{1,6}", arb_value(), 0..16)
        ) {
            let mut m = TypeMap::new();
            for (k, v) in &entries {
                m.put(k.clone(), v.clone());
            }
            prop_assert_eq!(m.len(), entries.len());
            for (k, v) in &entries {
                prop_assert_eq!(m.get(k), Some(v));
                prop_assert_eq!(m.get(k).map(TypeMapValue::type_name), Some(v.type_name()));
            }
        }
    }
}

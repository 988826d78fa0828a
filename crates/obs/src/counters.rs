//! The one counter shape: a family of monotonic or gauge counters is a
//! single `counter_block!` declaration.
//!
//! A family lists its fields once, each with its doc comment, and the
//! declaration yields:
//!
//! * the block — one `AtomicU64` per field — with a `const fn new()`, so
//!   process-global blocks stay plain `static`s, plus `Default` and a
//!   `Debug` that prints every field;
//! * one `u64` getter per field, named after it;
//! * an adder for each field that names one: `retries => record_retry`
//!   adds one, `deposits => record_deposits(n)` adds `n` — each a single
//!   relaxed `fetch_add`, allocation-free;
//! * `snapshot()`, returning a `Copy + Eq + Default` snapshot struct whose
//!   public `u64` fields carry the same names and docs;
//! * the snapshot's `to_json()`: one object, keys in declaration order.
//!
//! Recording paths with more meaning than one add (a peak, a gauge whose
//! change counts events, two counters bumped together) are written by
//! hand beside the declaration; they see the block's private fields.

use std::fmt::Write;

macro_rules! counter_block {
    (@adder $field:ident $adder:ident) => {
        #[doc = concat!("Adds one to `", stringify!($field), "`.")]
        pub fn $adder(&self) {
            self.$field
                .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
        }
    };
    (@adder $field:ident $adder:ident $n:ident) => {
        #[doc = concat!("Adds `", stringify!($n), "` to `", stringify!($field), "`.")]
        pub fn $adder(&self, $n: u64) {
            self.$field
                .fetch_add($n, ::std::sync::atomic::Ordering::Relaxed);
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident => $snap:ident {
            $(
                $(#[$field_meta:meta])*
                $field:ident $(=> $adder:ident $(($n:ident))?)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($field: ::std::sync::atomic::AtomicU64,)+
        }

        impl $name {
            /// A zeroed block.
            pub const fn new() -> Self {
                $name {
                    $($field: ::std::sync::atomic::AtomicU64::new(0),)+
                }
            }

            $(
                $(#[$field_meta])*
                pub fn $field(&self) -> u64 {
                    self.$field.load(::std::sync::atomic::Ordering::Relaxed)
                }

                $($crate::counters::counter_block!(@adder $field $adder $($n)?);)?
            )+

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field(),)+
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.debug_struct(stringify!($name))
                    $(.field(stringify!($field), &self.$field()))+
                    .finish()
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snap {
            $(
                $(#[$field_meta])*
                pub $field: u64,
            )+
        }

        impl $snap {
            /// JSON object, keys in declaration order.
            pub fn to_json(&self) -> String {
                $crate::counters::json_object(&[$((stringify!($field), self.$field)),+])
            }
        }
    };
}

pub(crate) use counter_block;

/// Renders `{"key":value,…}` in the order given.
pub(crate) fn json_object(fields: &[(&str, u64)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":{value}");
    }
    out.push('}');
    out
}

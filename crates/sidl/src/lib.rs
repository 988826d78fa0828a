#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cca-sidl — the Scientific Interface Definition Language
//!
//! §5 of the paper: "The Scientific Interface Definition Language is a
//! high-level description language used to specify the calling interfaces
//! of software components and framework APIs in the component architecture."
//!
//! This crate is a complete SIDL toolchain:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — parse `.sidl` sources into an AST.
//!   The grammar follows the Babel-era language: packages, interfaces with
//!   **multiple interface inheritance**, classes with **single
//!   implementation inheritance**, enums, `in`/`out`/`inout` parameter
//!   modes, `throws` clauses, and the scientific primitive types the paper
//!   calls out — `fcomplex`/`dcomplex` and `array<T, R>` with runtime rank.
//! * [`sema`] — symbol resolution and the object-model rules of §5:
//!   inheritance cycles, method-collision detection across multiply
//!   inherited interfaces, override-signature checking, abstract-method
//!   accounting for classes.
//! * [`reflect`] — the reflection metadata the paper says "will be
//!   generated automatically by the SIDL compiler based on IDL
//!   descriptions": runtime-queryable type, method, and argument info.
//! * [`dynamic`] — dynamic method invocation over [`dynamic::DynValue`],
//!   modelled on `java.lang.reflect` as the paper prescribes.
//! * [`codegen_rust`] / [`codegen_c`] — proxy/stub generation ("these
//!   definitions can serve as input to a proxy generator that generates
//!   component stubs", §4). The Rust backend emits a trait per interface
//!   plus a Babel-style vtable stub whose call path costs the 2–3
//!   indirections the paper estimates; the C backend emits an IOR-style
//!   header of function-pointer tables, demonstrating the cross-language
//!   mapping.
//! * [`fmt`] — a canonical pretty-printer, giving parse/print round-trip
//!   guarantees (property-tested).

pub mod ast;
pub mod codegen_c;
pub mod codegen_f77;
pub mod codegen_rust;
pub mod dynamic;
pub mod error;
pub mod fmt;
pub mod lexer;
pub mod parser;
pub mod reflect;
pub mod sema;

pub use ast::{
    Argument, Class, Definition, EnumDef, Interface, Method, Mode, Package, QName, Type,
};
pub use dynamic::{invoke_checked, DynObject, DynValue};
pub use error::{SidlError, Span};
pub use parser::parse;
pub use reflect::{MethodInfo, Reflection, TypeInfo, TypeKind};
pub use sema::{check, CheckedModel};

/// Parses and semantically checks a SIDL source string in one step.
pub fn compile(source: &str) -> Result<CheckedModel, SidlError> {
    let packages = parse(source)?;
    check(&packages)
}

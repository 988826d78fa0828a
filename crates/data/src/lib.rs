#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops over multiple same-length buffers are the clearest
// idiom for stencil/linear-algebra kernels; the iterator rewrites clippy
// suggests obscure them.
#![allow(clippy::needless_range_loop)]
//! # cca-data — scientific data types for the Common Component Architecture
//!
//! This crate provides the data-model substrate that the paper's Scientific
//! Interface Definition Language (SIDL) requires but which mainstream IDLs of
//! the era (CORBA IDL, COM MIDL, Java) lacked:
//!
//! * [`Complex`] — complex numbers as an IDL *primitive* type (§5 of the
//!   paper: "IDL primitive data types for complex numbers").
//! * [`NdArray`] — dynamically dimensioned, Fortran-style (column-major)
//!   multidimensional arrays with arbitrary lower bounds and strided views
//!   (§5: "Fortran-style dynamic multidimensional arrays").
//! * [`dist`] — descriptors for block / cyclic / block-cyclic data
//!   distributions of such arrays over a set of SPMD processes.
//! * [`redist`] — M×N redistribution plans between two differently
//!   distributed parallel components, the data-movement core of the paper's
//!   *collective ports* (§6.3).
//! * [`TypeMap`] — the heterogeneous property map used throughout the CCA
//!   services for component metadata and port properties.
//! * [`le`] — primitive slices as little-endian slabs, the one bulk
//!   conversion both value codecs use for arrays.
//!
//! Everything in this crate is framework-agnostic: no threads, no ports, no
//! I/O — just data layout and the algebra of moving it around.

pub mod complex;
pub mod dist;
pub mod error;
pub mod le;
pub mod ndarray;
pub mod redist;
pub mod typemap;

pub use complex::{Complex, Complex32, Complex64};
pub use dist::{DimDist, DistArrayDesc, Distribution, ProcessGrid};
pub use error::DataError;
pub use ndarray::{NdArray, NdView, Order, Slice, ViewStorage};
pub use redist::{CompiledPlan, CompiledTransfer, RedistPlan, Transfer};
pub use typemap::{TypeMap, TypeMapValue};

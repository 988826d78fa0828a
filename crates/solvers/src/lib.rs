#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops over multiple same-length buffers are the clearest
// idiom for stencil/linear-algebra kernels; the iterator rewrites clippy
// suggests obscure them.
#![allow(clippy::needless_range_loop)]
//! # cca-solvers — ESI-style numerical components
//!
//! §2.2 of the paper: "One of the most computationally intensive phases
//! within the semi-implicit and implicit strategies under consideration
//! within CHAD is the solution of discretized linear systems ... The
//! Equation Solver Interface (ESI) Forum is defining collections of
//! abstract interfaces for solving such systems, with a goal of enabling
//! applications like CHAD to experiment more easily with multiple solution
//! strategies."
//!
//! This crate is that toolkit, built to be used *through CCA ports*:
//!
//! * [`vector`] — BLAS-1 kernels plus a [`vector::Reduction`] abstraction
//!   that makes every solver run identically in serial and SPMD contexts
//!   (global dots become `allreduce`).
//! * [`csr`] — compressed sparse row matrices with mat-vec (over the
//!   diagonals, one value or a dense array each, when the non-zeros lie
//!   on few of them), triplet assembly,
//!   and the 5-point Poisson generator the hydro app uses.
//! * [`precond`] — Identity / Jacobi / SSOR / ILU(0) preconditioners (the
//!   "new algorithms ... encapsulated within toolkits" the paper wants to
//!   be swappable).
//! * [`krylov`] — CG, BiCGStab, and restarted GMRES(m), written against
//!   the [`krylov::LinearOperator`] + [`precond::Preconditioner`] +
//!   [`vector::Reduction`] triple so one implementation serves serial,
//!   SPMD, and matrix-free callers.
//! * [`mesh`] — a block-decomposed 2-D structured mesh with halo exchange
//!   "encapsulat\[ing\] nonlocal communication in gather/scatter routines"
//!   as CHAD does.
//! * [`hydro`] — the CHAD-mini application: semi-implicit 2-D
//!   advection–diffusion, runnable monolithically (the baseline for E6) or
//!   assembled from the CCA components in [`esi`].
//! * [`esi`] — the SIDL description of the solver interfaces, the Rust
//!   port traits, and `cca_core::Component` wrappers so the whole suite is
//!   wireable by the reference framework.

pub mod csr;
pub mod esi;
pub mod hydro;
pub mod krylov;
pub mod mesh;
pub mod precond;
pub mod vector;

pub use csr::CsrMatrix;
pub use hydro::{HydroConfig, HydroSim};
pub use krylov::{bicgstab, cg, gmres, KrylovKind, LinearOperator, SolveStats};
pub use mesh::Mesh2d;
pub use precond::{Ilu0, Jacobi, Preconditioner, Ssor};
pub use vector::{CommReduce, Reduction, SerialReduce};

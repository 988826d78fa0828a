#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops over multiple same-length buffers are the clearest
// idiom for stencil/linear-algebra kernels; the iterator rewrites clippy
// suggests obscure them.
#![allow(clippy::needless_range_loop)]
//! # cca-parallel — SPMD substrate for parallel CCA components
//!
//! The paper's parallel components "use multiple processes or threads" and
//! communicate internally with MPI (Fig. 1: "component A (a mesh) uses MPI
//! to communicate among the four processes over which it is distributed").
//! We reproduce that substrate in-process: a *process group* is a set of
//! OS threads, one per rank, and a [`Comm`] gives each rank MPI-flavoured
//! point-to-point messaging and the collectives the components call:
//! barrier, bcast, gather, scatter, allgather, reduce and allreduce, plus
//! [`Comm::split`] for sub-communicators. The neighbour exchange of the
//! hydro mesh lives with the mesh, in `cca-solvers`.
//!
//! Running ranks as threads instead of processes preserves everything the
//! CCA collective-port model cares about — rank identity, message matching,
//! collective semantics, communicator splitting for component subgroups —
//! while remaining runnable on a laptop (see DESIGN.md §2, substitutions).
//!
//! ## SPMD discipline
//!
//! As with MPI, collective operations (including [`Comm::split`]) must be
//! called by *all* ranks of a communicator in the same order. Internal
//! sequence numbers keep concurrent collectives from interfering, but they
//! rely on that discipline.

pub mod comm;
pub mod error;
pub mod reduce;
pub mod wire;

pub use comm::{spmd, Comm, Tag};
pub use error::ParallelError;
pub use reduce::{FnOp, MaxOp, MinOp, ReduceOp, SumOp};
pub use wire::{WireLink, WireMsg};

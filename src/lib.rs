//! Umbrella crate for `cca-rs`. Re-exports the public API of every
//! subsystem crate; see README.md and DESIGN.md.

#![forbid(unsafe_code)]

pub mod generated;

pub use cca_core as core;
pub use cca_data as data;
pub use cca_framework as framework;
pub use cca_obs as obs;
pub use cca_parallel as parallel;
pub use cca_repository as repository;
pub use cca_rpc as rpc;
pub use cca_sidl as sidl;
pub use cca_solvers as solvers;
pub use cca_viz as viz;

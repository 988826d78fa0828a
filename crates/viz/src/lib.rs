#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cca-viz — visualization, monitoring, and computational steering
//!
//! Figure 1's lower half: "components for visualization, which can often be
//! more loosely coupled and differently distributed than the numerical
//! components". The paper's §2.2 scenario — "a researcher may wish to
//! visualize flow fields on a local workstation by dynamically attaching a
//! visualization tool to an ongoing simulation that is running on a remote
//! parallel machine" — is the CUMULVS use case, and this crate is our
//! CUMULVS stand-in (see DESIGN.md substitutions):
//!
//! * [`field`] — the `viz.FieldSource` port a simulation provides: named
//!   fields plus their distribution descriptors, so a differently
//!   distributed consumer can compute the M×N transfer itself.
//! * [`render`] — deterministic ASCII rendering and summary statistics of
//!   2-D fields (fidelity is irrelevant to the architecture; determinism
//!   makes it testable).
//! * [`steer`] — CUMULVS-style steerable parameters: the simulation
//!   registers bounded named parameters, a (possibly remote) tool adjusts
//!   them, the simulation reads them each timestep.
//! * [`monitor`] — a monitoring component that attaches to a field source
//!   through the framework, pulls frames, and keeps a statistics history.

pub mod field;
pub mod monitor;
pub mod render;
pub mod steer;

pub use field::{FieldSourcePort, InMemoryFieldSource, FIELD_SOURCE_PORT_TYPE};
pub use monitor::{FieldProviderComponent, Frame, MonitorComponent};
pub use render::{render_ascii, sparkline, FieldStats};
pub use steer::{SteeringPort, SteeringRegistry, STEERING_PORT_TYPE};

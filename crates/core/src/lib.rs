#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cca-core — the Common Component Architecture specification
//!
//! This crate is the Rust rendering of the CCA standard the paper defines
//! (§4 and §6): the things a *component* sees. It deliberately contains no
//! framework implementation — `cca-framework` provides that — mirroring the
//! paper's separation between "parts of the CCA standards necessary for
//! component-level interoperability" (white boxes of Figure 2) and
//! "specific implementations of a component architecture" (gray boxes).
//!
//! * [`port`] — the Port model of §6.1: provides ports as generalized
//!   listeners, uses ports holding a listener list, type-compatible
//!   connection, and the direct-connect representation of §6.2 where a
//!   retrieved port *is* the provider's object and a call on it is a plain
//!   (virtual) function call.
//! * [`services`] — the `CCAServices` handle of Figure 3: components add
//!   provides ports, register uses ports, and `getPort` their connections;
//!   "all interaction between the component and its containing framework
//!   will occur through the component's CCAServices object". Port tables
//!   are published as immutable snapshots guarded by a generation counter,
//!   and [`CachedPort`] memoizes the typed downcast so steady-state port
//!   access costs one atomic load plus the virtual call (§6.2).
//! * [`component`] — the `Component` trait (`setServices`) plus the
//!   conventional `GoPort` used to drive an assembled application.
//! * [`event`] — connection/configuration events, the vocabulary of the
//!   CCA Configuration API ("notifying components that they have been
//!   added to a scenario ..., redirecting interactions between components,
//!   or notifying a builder of a component failure").
//! * [`resilience`] — fault-tolerant invocation: per-uses-port
//!   [`CallPolicy`] (bounded retry with decorrelated-jitter backoff, call
//!   deadlines) and per-provider [`CircuitBreaker`] quarantine, all
//!   mock-clock drivable so fault scenarios are deterministic.
//! * [`error`] — the error vocabulary shared by all CCA layers.

pub mod component;
pub mod error;
pub mod event;
pub mod port;
pub mod resilience;
pub mod services;

pub use component::{Component, GoPort};
pub use error::CcaError;
pub use event::{ConfigEvent, ConfigListener};
pub use port::{PortHandle, PortRecord, UsesSlot};
pub use resilience::{
    BackoffSchedule, BreakerObserver, BreakerPolicy, BreakerState, CallPolicy, CircuitBreaker,
    Clock, MockClock, RetryPolicy, SplitMix64, SystemClock, DEADLINE_EXCEPTION_TYPE,
};
pub use services::{CachedPort, CcaServices};

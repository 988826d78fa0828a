#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cca-framework — a CCA-compliant reference framework
//!
//! The paper (§4): "A component framework is said to be CCA compliant if it
//! conforms to these standards — that is, provides the required CCA
//! services and implements the required CCA interfaces." This crate is the
//! reference implementation the paper says is "tracking the evolution of
//! the Common Component Architecture" — a Ccaffeine-style in-process
//! framework:
//!
//! * [`framework`] — the [`Framework`] itself: component instantiation
//!   from the repository, per-instance [`cca_core::CcaServices`], the
//!   Configuration/Builder API (add/remove/redirect/failure events), and
//!   `go`-port driving.
//! * [`connect`] — the connection machinery. The framework owns the
//!   direct-vs-proxy decision ("port connection is the responsibility of
//!   the framework; therefore, a particular component may find itself
//!   connected in a variety of different ways depending on its environment
//!   and mode of use", §6.1): [`ConnectionPolicy::Direct`] hands the
//!   provider's own object across; [`ConnectionPolicy::Proxied`] routes
//!   the same port through the `cca-rpc` ORB without either component
//!   knowing.
//! * [`collective`] — collective ports (§6.3): M×N data redistribution
//!   between differently-distributed parallel components, executed over
//!   `cca-parallel` communicators or in-memory for same-address-space
//!   connections.
//! * [`observability`] — the remote scrape plane: a reflective
//!   `ObservabilityPort` exposing the trace ring, flight-recorder
//!   inventory, and resilience counters over the same wire transports the
//!   components use.
//! * [`discovery`] — the remote discovery plane: the sharded repository's
//!   search API (exact lookup, trigram fuzzy search with paged results,
//!   catalog statistics) as a reflective `DiscoveryPort` other frameworks
//!   dial over the wire (PR 10).
//! * [`bulk`] — the bulk data plane's endpoints: [`BulkRedistSender`]
//!   streams a compiled M×N plan as raw slabs over any transport, and
//!   [`BulkLandingZone`] scatters them into destination storage with
//!   resume watermarks (experiment E15).
//! * [`fleet`] — the supervised multi-process worker fleet: ranks as
//!   child processes joined over `tcp+mux://`, crash detection via
//!   connection death, circuit-breaker quarantine with
//!   decorrelated-jitter restarts, and checkpoint-rollback rejoin so a
//!   `kill -9` mid-timestep converges instead of hanging (PR 9).
//!   A rank's steps run under [`fleet::run_worker`], which turns the
//!   typed interruption into a rollback.

pub mod bulk;
pub mod collective;
pub mod connect;
pub mod discovery;
pub mod event;
pub mod fleet;
pub mod framework;
pub mod monitor;
pub mod observability;
pub mod script;

pub use bulk::{BulkLandingZone, BulkRedistSender};
pub use collective::MxNPort;
pub use connect::{ConnectionInfo, ConnectionPolicy, RemoteTransportKind};
pub use discovery::{
    DiscoveryPort, DISCOVERY_EXPORT_KEY, DISCOVERY_INSTANCE, DISCOVERY_PORT_TYPE, DISCOVERY_SIDL,
};
pub use event::{EventListener, EventService, SubscriptionId};
pub use fleet::{
    fleet_rank_env, rank_backoff_seed, run_worker, ExecLauncher, FleetConfig, FleetEvent, FleetHub,
    FleetRankEnv, FleetSupervisor, HubLink, LaunchSpec, MockLauncher, MockProcess, ProcessHandle,
    RankLauncher, Worker,
};
pub use framework::Framework;
pub use monitor::{MonitorPort, MONITOR_INSTANCE, MONITOR_PORT_TYPE, MONITOR_SIDL};
pub use observability::{
    ObservabilityPort, OBSERVABILITY_EXPORT_KEY, OBSERVABILITY_INSTANCE, OBSERVABILITY_PORT_TYPE,
    OBSERVABILITY_SIDL,
};
pub use script::{parse_script, Command};

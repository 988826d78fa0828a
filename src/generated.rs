//! Bindings generated at build time by the cca-sidl proxy generator from
//! `sidl/demo.sidl`. See `build.rs`. The module demonstrates — and its use
//! in tests and the E2/E5 benchmarks verifies — every generator feature on
//! one package: one object-safe trait per interface/class (inheritance as
//! supertraits), a Babel-style `*Stub` per type (the 2-3-call binding
//! layer of §6.2), a `*Skel` adapter onto the dynamic-invocation protocol,
//! enums, object arguments and `dcomplex`. The solver and framework ports
//! are generated the same way by their own crates' build scripts.
include!(concat!(env!("OUT_DIR"), "/demo_generated.rs"));

/// Path to the generated C header (Babel-IOR style), for inspection.
pub const GENERATED_C_HEADER: &str = concat!(env!("OUT_DIR"), "/demo_generated.h");

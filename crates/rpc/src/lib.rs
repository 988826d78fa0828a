#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # cca-rpc — distributed substrate and the CORBA-like baseline
//!
//! The paper distinguishes two ways a connected port can behave: the
//! direct-connect fast path (§6.2 — a virtual call, provided by
//! `cca-core`), and *distributed* connections where "the provided
//! DirectConnectPort can be translated through a proxy ... without the
//! components on either end of the connection needing to know". This crate
//! supplies the proxy machinery:
//!
//! * [`wire`] — a CDR-flavoured binary marshaling of [`cca_sidl::DynValue`]
//!   request/reply messages (what a CORBA GIOP implementation does).
//! * [`transport`] — the synchronous request/response seam: the
//!   [`Transport`] and [`transport::Dispatcher`] traits and an in-process
//!   loopback.
//! * [`orb`] — a deliberately CORBA-shaped object request broker: objects
//!   registered under string keys, every invocation marshaled, dispatched
//!   by operation *name*, and demarshaled — even between objects in the
//!   same address space. This is the baseline for the paper's §3 claim
//!   that CORBA "is far too inefficient when a method call is made within
//!   the same address space" (experiment E3).
//! * [`proxy`] — a [`cca_sidl::DynObject`] that forwards through an ORB
//!   reference, so a framework can hand a component a remote port through
//!   the very same `PortHandle` mechanism as a local one.
//! * [`resilient`] — deadline enforcement ([`DeadlineTransport`]: a wedged
//!   round trip returns `cca.rpc.DeadlineExceeded` instead of hanging) and
//!   seed-deterministic fault injection ([`FaultTransport`], driving the
//!   CI fault matrix).
//! * [`frame`] — the boundary layer for real networks: length-prefixed,
//!   versioned frames over the [`wire`] encoding, with a payload cap and
//!   typed rejection of malformed input (proptested in
//!   `tests/frame_proptest.rs`).
//! * [`mux`] — the one socket transport: [`mux::MuxTransport`] pipelines
//!   thousands of concurrent calls over a handful of sockets by routing
//!   replies to waiters by frame request id, and [`mux::MuxServer`] serves
//!   them from one event loop that parks in `poll(2)` on its sockets
//!   (`readiness.rs`, the workspace's only `unsafe` block), with
//!   per-connection backpressure instead of a thread per peer. Both
//!   dispatch into the same [`transport::Dispatcher`] as the loopback, and
//!   connection failures surface as typed [`CONNECTION_EXCEPTION_TYPE`]
//!   errors that feed the circuit breaker unchanged (experiment E12 and
//!   the end-to-end benchmark's `rpc_unloaded` and `rpc_pipelined`).
//! * [`bulk`] — the data plane: `FrameKind::Bulk` slabs carrying M×N
//!   array-redistribution chunks as raw little-endian bytes (no
//!   per-element encoding), acknowledged with resume watermarks so a
//!   dropped connection costs one chunk, not the array (experiment E15).

pub mod bulk;
pub mod frame;
pub mod mux;
pub mod orb;
pub mod proxy;
mod readiness;
pub mod resilient;
pub mod transport;
pub mod wire;

pub use bulk::{
    BulkAck, BulkElem, BulkError, BulkSink, ElemTag, SlabHeader, BULK_ACK_LEN, BULK_EXCEPTION_TYPE,
    BULK_SLAB_HEADER_LEN,
};
pub use frame::{
    encode_frame, encode_frame_with, Frame, FrameDecoder, FrameError, FrameKind, FRAME_VERSION,
    TRACE_CONTEXT_LEN,
};
pub use mux::{
    BulkChannel, MuxServer, MuxServerConfig, MuxTransport, PendingReply, SessionSink,
    CONNECTION_EXCEPTION_TYPE, DEFAULT_MUX_CONNECTIONS,
};
pub use orb::{ObjRef, Orb, SERVANT_PANIC_TYPE};
pub use proxy::RemotePortProxy;
pub use resilient::{DeadlineTransport, FaultAction, FaultTransport, INJECTED_FAULT_TYPE};
pub use transport::{LoopbackTransport, Transport};
pub use wire::{decode_reply, decode_request, encode_reply, encode_request, Reply, Request};

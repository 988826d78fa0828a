//! E14 — wire-tracing overhead gate.
//!
//! PR 7 teaches the `CCAR` frame to carry a trace context. The claim to
//! defend: with tracing **off**, the new codec and the remote call path
//! cost what the PR-6 versions cost — the extension is zero bytes and the
//! only new work is one relaxed flag load. This bench pins that at two
//! layers:
//!
//! * `wire_pr6_encode_ns` — a verbatim transplant of the PR-6 v1
//!   `encode_frame` (20-byte header, no extension), rebuilt here so the
//!   baseline survives future refactors of the real codec;
//! * `wire_off_encode_ns` — the real v2 `encode_frame_with` fed by
//!   `current_context()` with tracing off, exactly what `MuxTransport`
//!   runs per call. Their ratio, `wire_off_over_pr6_ratio`, is recorded
//!   but not gated: two encodes nanoseconds apart read anywhere from
//!   0.45 to 1.25 on a shared 2-vCPU Xeon host with the code unchanged. The gate is a
//!   count instead — `wire_off_frame_bytes`, the bytes a tracing-off
//!   encode appends for a 64-byte payload, is exactly the 20-byte header
//!   plus the payload (no extension). The allocation half of the claim —
//!   zero onto a buffer with room, one for a fresh frame — is an exact
//!   count in `tests/alloc_free.rs`;
//! * `remote_call_off_ns` / `remote_call_on_ns` — a full mux round trip
//!   over a real socket with tracing off vs. on (on = three client spans,
//!   a 16-byte frame extension, and a parented server dispatch span).
//!   Acceptance: tracing on stays within 1.5× of off — causal tracing
//!   must be cheap enough to leave on while chasing a fault.
//!
//! Ratios run as alternating baseline/probe rounds; the gated one takes
//! the lower decile of the per-round ratio.

use cca_bench::fixtures::Echo;
use cca_bench::{Harness, Report};
use cca_rpc::frame::{
    encode_frame_onto, encode_frame_with, FrameKind, DEFAULT_MAX_PAYLOAD, FRAME_HEADER_LEN,
};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxTransport, ObjRef, Orb, Transport};
use cca_sidl::DynValue;
use std::hint::black_box;
use std::sync::Arc;

/// PR-6's `encode_frame`, transplanted verbatim: 20-byte header with two
/// reserved zero bytes where v2 now carries flags and extension length.
/// This is the pre-tracing baseline the wire gate measures against.
fn pr6_encode_frame(kind: u8, request_id: u64, payload: &[u8], max_payload: u32) -> Vec<u8> {
    const PR6_MAGIC: [u8; 4] = *b"CCAR";
    const PR6_VERSION: u8 = 1;
    const PR6_HEADER_LEN: usize = 20;
    assert!(payload.len() <= max_payload as usize);
    let mut out = Vec::with_capacity(PR6_HEADER_LEN + payload.len());
    out.extend_from_slice(&PR6_MAGIC);
    out.push(PR6_VERSION);
    out.push(kind);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e14_wire_trace", &h);
    cca_obs::drain();

    // --- codec layer: PR-6 replica vs v2 with tracing off ---------------
    // The probe is exactly the per-call encode work MuxTransport::submit
    // performs: read the current context (one relaxed load when tracing
    // is off), then encode.
    let payload: Vec<u8> = (0..64u8).collect();
    let v2_encode = || {
        encode_frame_with(
            FrameKind::Request,
            black_box(42),
            black_box(&payload),
            DEFAULT_MAX_PAYLOAD,
            cca_obs::trace::current_context(),
        )
        .unwrap()
    };
    let encode = h.ratio(
        || pr6_encode_frame(0, black_box(42), black_box(&payload), DEFAULT_MAX_PAYLOAD),
        v2_encode,
    );
    report.metric("wire_pr6_encode_ns", encode.baseline);
    report.metric("wire_off_encode_ns", encode.probe);
    report.metric("wire_off_over_pr6_ratio", encode.ratio);
    let mut frame = Vec::new();
    let ctx = cca_obs::trace::current_context();
    encode_frame_onto(
        &mut frame,
        FrameKind::Request,
        42,
        &payload,
        DEFAULT_MAX_PAYLOAD,
        ctx,
    )
    .unwrap();
    report
        .count("wire_off_frame_bytes", frame.len() as f64)
        .exactly(
            (FRAME_HEADER_LEN + payload.len()) as f64,
            "a tracing-off frame is the header and the payload, no extension",
        );
    // Informational: the same encode inside a live span (16-byte
    // extension on the wire). Not gated — tracing on is opt-in.
    cca_obs::set_tracing(true);
    let root = cca_obs::span("bench.e14.encode");
    report.metric("wire_on_encode_ns", h.time(v2_encode));
    drop(root);
    cca_obs::set_tracing(false);
    cca_obs::drain();

    // --- transport layer: a real mux round trip, off vs. on -------------
    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).expect("bind");
    let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
    let objref = ObjRef::new("echo", transport as Arc<dyn Transport>);
    for i in 0..200 {
        objref
            .invoke("echo", vec![DynValue::Double(i as f64)])
            .unwrap();
    }
    // Alternating rounds again, flipping the tracing gate around the
    // probe so each round compares off and on under the same conditions.
    let remote = h.ratio(
        || {
            cca_obs::set_tracing(false);
            objref.invoke("echo", vec![DynValue::Double(1.0)]).unwrap()
        },
        || {
            cca_obs::set_tracing(true);
            objref.invoke("echo", vec![DynValue::Double(1.0)]).unwrap()
        },
    );
    cca_obs::set_tracing(false);
    let traced_events = cca_obs::drain().len();
    server.shutdown();
    report.metric("remote_call_off_ns", remote.baseline);
    report.metric("remote_call_on_ns", remote.probe);
    report
        .metric("remote_on_over_off_ratio", remote.ratio)
        .at_most(
            1.5,
            "tracing-on mux round trips must stay within 1.5x of tracing-off",
        );
    report
        .count("traced_events", traced_events as f64)
        .at_least(1.0, "the tracing-on loop must actually record spans");
    report.finish();
}

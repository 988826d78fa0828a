//! E9 — the port-resolution cost ladder.
//!
//! §6.2 claims a direct-connected port call costs nothing beyond a virtual
//! function call. This bench quantifies the claim for the current
//! implementation:
//!
//! * `bare_virtual_call_ns` — calling through a plain `Arc<dyn Trait>`,
//!   the floor;
//! * `cached_port_ns` — calling through [`cca_core::CachedPort`]: one
//!   relaxed atomic generation check + the same virtual call. Acceptance:
//!   within 3× of the floor;
//! * `uncached_get_port_ns` — full `get_port_as` per call (snapshot read,
//!   BTreeMap lookup, downcast): the price the cache removes;
//! * `fanout8_ns` — one multicast over 8 connected listeners through the
//!   shared `Arc<[PortHandle]>` snapshot (zero allocations per call).
//!
//! The cached call and its floor run as an alternating pair, so the gated
//! ratio is formed within each round.

use cca_bench::fixtures::{wire_fanout, wire_single, WorkImpl, WorkPort};
use cca_bench::{Harness, Report};
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e9_port_resolution", &h);

    // --- port-resolution ladder ----------------------------------------
    let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
    let user = wire_single();
    let mut cached = user.cached_port::<dyn WorkPort>("in");
    cached.get().unwrap();
    let pair = h.ratio(
        || black_box(&obj).accumulate(black_box(1.0)),
        || cached.get().unwrap().accumulate(black_box(1.0)),
    );
    report.metric("bare_virtual_call_ns", pair.baseline);
    report.metric("cached_port_ns", pair.probe);
    report.metric("cached_over_bare_ratio", pair.ratio).at_most(
        3.0,
        "a cached port call must be within 3x of a bare virtual call",
    );

    report.metric(
        "uncached_get_port_ns",
        h.time(|| {
            let p: Arc<dyn WorkPort> = user.get_port_as("in").unwrap();
            p.accumulate(black_box(1.0))
        }),
    );

    // --- fan-out over the shared snapshot ------------------------------
    let emitter = wire_fanout(8);
    report.metric(
        "fanout8_ns",
        h.time(|| {
            let mut acc = 0.0;
            for handle in emitter.get_ports("events").unwrap().iter() {
                let l: Arc<dyn WorkPort> = handle.typed().unwrap();
                acc = l.accumulate(black_box(acc));
            }
            acc
        }),
    );

    report.finish();
}

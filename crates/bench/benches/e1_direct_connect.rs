//! E1 — §6.2's central claim: "the overhead for the privilege of becoming a
//! CCA component is nothing more than a direct function call to the
//! connected object. That is, there is no penalty for using the
//! provides/uses component connection mechanism."
//!
//! Measured ladder, ns/call:
//!   raw_fn            — a plain (non-inlined) function call, the floor;
//!   trait_object      — one virtual dispatch (what "direct function call
//!                       to the connected object" costs in Rust);
//!   port_cached       — a port retrieved once via getPort, then called —
//!                       the CCA direct-connect steady state. The claim
//!                       holds iff port_cached ≈ trait_object;
//!   cached_port_handle— a `CachedPort` revalidated on every call (one
//!                       relaxed atomic generation check + the virtual
//!                       call) — the safe steady state that still observes
//!                       connect/disconnect;
//!   port_get_each_call— pathological: getPort inside the loop, showing
//!                       why components cache their ports.
//!
//! The five rungs are timed in alternating rounds (100 calls per
//! iteration, reported per call). Gate — §6.2 verbatim:
//! `port_cached / trait_object ≤ 1.25` within each round.

use cca_bench::fixtures::{wire_single, WorkImpl, WorkPort};
use cca_bench::{batch, hundred, Harness, Report};
use std::hint::black_box;
use std::sync::Arc;

#[inline(never)]
fn raw_fn(bias: f64, x: f64) -> f64 {
    x * 1.0000001 + bias
}

fn main() {
    let h = Harness::from_env();
    let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
    let user = wire_single();
    let port: Arc<dyn WorkPort> = user.get_port_as("in").unwrap();
    let mut cached = user.cached_port::<dyn WorkPort>("in");

    let rounds = h.rounds(&mut [
        &mut batch(hundred(0.0, |acc| raw_fn(black_box(0.5), black_box(acc)))),
        &mut batch(hundred(0.0, |acc| {
            black_box(&obj).accumulate(black_box(acc))
        })),
        &mut batch(hundred(0.0, |acc| {
            black_box(&port).accumulate(black_box(acc))
        })),
        &mut batch(hundred(0.0, |acc| {
            cached.get().unwrap().accumulate(black_box(acc))
        })),
        &mut batch(hundred(0.0, |acc| {
            let p: Arc<dyn WorkPort> = user.get_port_as("in").unwrap();
            p.accumulate(black_box(acc))
        })),
    ]);

    let mut report = Report::new("e1_direct_connect", &h);
    for (i, key) in [
        "raw_fn_ns",
        "trait_object_ns",
        "port_cached_ns",
        "cached_port_handle_ns",
        "port_get_each_call_ns",
    ]
    .iter()
    .enumerate()
    {
        report.metric(key, rounds.stats(i).scaled(0.01));
    }
    report
        .metric(
            "port_cached_over_trait_object_ratio",
            rounds.derive(|s| s[2] / s[1]),
        )
        .at_most(
            1.25,
            "§6.2: a direct-connect port call costs a function call to the connected object",
        );
    report.finish();
}

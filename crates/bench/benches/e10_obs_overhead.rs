//! E10 — observability overhead gate.
//!
//! The whole point of `cca-obs` is that §6.2's "no penalty" claim keeps
//! holding with the instrumentation compiled in. This bench pins that:
//!
//! * `pr1_replica_ns` — a hand-written copy of the pre-observability
//!   CachedPort steady state (one relaxed generation load + compare +
//!   memoized `Arc` borrow). This is the PR-1 baseline the gates are
//!   measured against, rebuilt here so the comparison survives future
//!   refactors of the real type (`cca_bench::fixtures::Pr1Replica`);
//! * `cached_off_ns` — the real `CachedPort::get` with counters and
//!   tracing off. Acceptance: ≤1.1× the replica — turning observability
//!   *off* must cost at most the one extra flag load;
//! * `cached_counters_ns` — the same call with counters on (per-port call
//!   shard bump). Acceptance: ≤1.5× the replica;
//! * `span_on_ns` / `span_off_ns` — creating and dropping one tracer span
//!   with tracing on vs. off (the off case is the price every framework
//!   operation pays unconditionally);
//! * ORB byte accounting: round trips and payload bytes for a handful of
//!   proxied calls, proving the transport metrics see both directions.
//!
//! Each gated call runs as an alternating pair against the replica and
//! gates the lower decile of the per-round ratio: the quantities differ by
//! fractions of a nanosecond, so only the L1-hot floor says anything.

use cca_bench::fixtures::{wire_single, Pr1Replica, WorkImpl, WorkPort};
use cca_bench::{Harness, Report};
use cca_rpc::{ObjRef, Orb};
use cca_sidl::DynValue;
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e10_obs_overhead", &h);

    // --- bare floor ------------------------------------------------------
    let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
    report.metric(
        "bare_virtual_call_ns",
        h.time(|| black_box(&obj).accumulate(black_box(1.0))),
    );

    // --- PR-1 replica vs the real CachedPort, observability off ---------
    let user = wire_single();
    let mut replica = Pr1Replica::<dyn WorkPort>::new(Arc::clone(&user), "in");
    replica.get().unwrap();
    let mut cached = user.cached_port::<dyn WorkPort>("in");
    cached.get().unwrap();
    // The replica closure is written out at each use: handing `ratio` a
    // `&mut` to one shared closure puts a second pointer hop inside the
    // timed loop (~1.4 ns on a 2.9 ns call) and flatters every probe.
    let off = h.ratio(
        || {
            black_box(&mut replica)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
        || {
            black_box(&mut cached)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
    );
    report.metric("pr1_replica_ns", off.baseline);
    report.metric("cached_off_ns", off.probe);
    report.metric("off_over_pr1_ratio", off.ratio).at_most(
        1.1,
        "observability-off CachedPort::get must stay within 1.1x of the PR-1 fast path",
    );

    // --- counters on ----------------------------------------------------
    cca_obs::set_counters(true);
    cached.get().unwrap(); // re-prime under the new flag state
    let counters = h.ratio(
        || {
            black_box(&mut replica)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
        || {
            black_box(&mut cached)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
    );
    let counted = user.port_metrics("in").unwrap().calls();
    cca_obs::set_counters(false);
    report.metric("cached_counters_ns", counters.probe);
    report
        .metric("counters_over_pr1_ratio", counters.ratio)
        .at_most(
            1.5,
            "counters-on CachedPort::get must stay within 1.5x of the PR-1 fast path",
        );
    report
        .count("counted_calls", counted as f64)
        .at_least(1.0, "the counters-on run must actually be counted");

    // --- span cost, tracing off vs. on ----------------------------------
    report.metric(
        "span_off_ns",
        h.time(|| {
            let _span = cca_obs::span("bench.noop");
        }),
    );
    cca_obs::set_tracing(true);
    report.metric(
        "span_on_ns",
        h.time(|| {
            let _span = cca_obs::span("bench.noop");
        }),
    );
    cca_obs::set_tracing(false);
    report
        .count("traced_events", cca_obs::drain().len() as f64)
        .at_least(1.0, "tracing-on spans must reach the ring buffers");

    // --- ORB byte accounting --------------------------------------------
    let orb = Orb::new();
    orb.register("work", Arc::new(WorkImpl { bias: 0.5 }));
    let objref = ObjRef::loopback("work", Arc::clone(&orb));
    cca_obs::set_counters(true);
    for i in 0..64 {
        objref
            .invoke("accumulate", vec![DynValue::Double(i as f64)])
            .unwrap();
    }
    cca_obs::set_counters(false);
    let rpc = objref.metrics().snapshot();
    report
        .count("orb_round_trips", rpc.round_trips as f64)
        .exactly(64.0, "every proxied call is counted");
    report.count("orb_bytes_out", rpc.bytes_out as f64);
    report.count("orb_bytes_in", rpc.bytes_in as f64);
    assert_eq!(
        rpc.per_method,
        vec![("accumulate".to_string(), 64)],
        "per-method attribution"
    );
    report.finish();
}

//! E11 — resilience overhead gate.
//!
//! The tentpole claim: attaching a `CallPolicy` to a uses port must not
//! disturb §6.2's "no penalty" story while nothing is failing. While a
//! connection's circuit breaker stays **closed**, the policy check on the
//! `CachedPort` fast path is one relaxed load of the breaker's packed
//! state word — gated here at ≤1.1× the PR-1 cached call:
//!
//! * `pr1_replica_ns` — the same hand-written pre-observability CachedPort
//!   replica E10 gates against (generation load + compare + memo borrow);
//! * `cached_plain_ns` — today's `CachedPort::get` on a policy-less slot
//!   (the E10 `cached_off` quantity, re-measured in this process);
//! * `cached_breaker_closed_ns` — `CachedPort::get` on a slot whose
//!   connection carries a closed breaker. Acceptance: ≤1.1× the replica;
//! * `call_with_policy_ns` — the full `CachedPort::call` path (admission,
//!   success reporting, retry plumbing) on a healthy provider, reported
//!   for context, not gated;
//! * `breaker_admit_ns` — one `CircuitBreaker::admit` in the closed state,
//!   the isolated cost of the added load.
//!
//! The gated pair runs as alternating baseline/probe rounds (as in E14),
//! gating the lower decile of the per-round ratio: sub-nanosecond deltas
//! need the L1-hot floor.

use cca_bench::fixtures::{wire_guarded, wire_single, Pr1Replica, WorkPort};
use cca_bench::{Harness, Report};
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e11_resilience", &h);

    // --- the gated pair: PR-1 replica vs CachedPort behind a closed
    // breaker, in alternating rounds ------------------------------------
    let plain_user = wire_single();
    let mut replica = Pr1Replica::<dyn WorkPort>::new(Arc::clone(&plain_user), "in");
    replica.get().unwrap();
    let guarded_user = wire_guarded();
    let mut cached_guarded = guarded_user.cached_port::<dyn WorkPort>("in");
    cached_guarded.get().unwrap();
    assert!(
        cached_guarded.breaker().is_some(),
        "the guarded slot must actually carry a breaker"
    );
    // The replica closure is written out at each use: handing `ratio` a
    // `&mut` to one shared closure puts a second pointer hop inside the
    // timed loop (~1.4 ns on a 2.9 ns call) and flatters every probe.
    let guarded = h.ratio(
        || {
            black_box(&mut replica)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
        || {
            black_box(&mut cached_guarded)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
    );
    report.metric("pr1_replica_ns", guarded.baseline);
    report.metric("cached_breaker_closed_ns", guarded.probe);
    report
        .metric("breaker_closed_over_pr1_ratio", guarded.ratio)
        .at_most(
            1.1,
            "a closed breaker on the CachedPort fast path must stay within 1.1x of the PR-1 cached call",
        );

    // --- today's CachedPort, no policy (informational) ------------------
    let mut cached_plain = plain_user.cached_port::<dyn WorkPort>("in");
    cached_plain.get().unwrap();
    let plain = h.ratio(
        || {
            black_box(&mut replica)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
        || {
            black_box(&mut cached_plain)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
    );
    report.metric("cached_plain_ns", plain.probe);
    report.metric("plain_over_pr1_ratio", plain.ratio);

    // --- the full policy call path (healthy provider) -------------------
    report.metric(
        "call_with_policy_ns",
        h.time(|| {
            black_box(&mut cached_guarded)
                .call(|p| Ok(p.accumulate(black_box(1.0))))
                .unwrap()
        }),
    );

    // --- isolated closed-state admission --------------------------------
    let breaker = Arc::clone(cached_guarded.breaker().unwrap());
    report.metric("breaker_admit_ns", h.time(|| black_box(&breaker).admit()));
    report.finish();
}

//! E2 — §6.2: "The cost of the intervening SIDL binding for language
//! independence is estimated to be approximately 2-3 function calls per
//! interface method call."
//!
//! Uses the *actual generated bindings* (`cca::generated::demo::Counter`,
//! produced by build.rs from sidl/demo.sidl):
//!
//!   direct_impl — calling the concrete implementation;
//!   vtable      — calling through `Arc<dyn Counter>` (1 indirect call);
//!   sidl_stub   — the generated `CounterStub` path: stub (#[inline(never)])
//!                 → vtable → impl, the Babel binding structure. The paper
//!                 predicts ≈ 2–3 `raw_call`-units; compare against
//!                 `call_unit` to express the measured ratio.
//!
//! The impl's `add` is one relaxed load and an add, cheaper than the call
//! that reaches it, so the difference between the rungs is the binding's
//! calls and not the body (an atomic read-modify-write there costs several
//! call units and buries them). It never writes the counter, so the only
//! memory a rung's chain passes through is what the binding itself stores:
//! the `Result` the vtable and stub return. Each rung feeds its result
//! into the next call's argument, so every rung, the unit included, times
//! a chain's latency rather than overlapped throughput. The four rungs are
//! timed in alternating rounds (100 calls per iteration, reported per
//! call). Gate — §6.2 verbatim, from both sides: within each round
//! `0 ≤ (sidl_stub − direct_impl) ≤ 3 × call_unit`. The upper bound reads
//! the median: a burst on `direct_impl` lowers a round's difference, so
//! the lower decile is the round least able to show extra hops. The lower
//! bound reads the upper decile, as every `≥` bound does.

use cca::generated::demo;
use cca::sidl::SidlError;
use cca_bench::{batch, hundred, Harness, Report};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

struct CounterImpl {
    value: AtomicI64,
}

impl CounterImpl {
    #[inline(never)]
    fn add_concrete(&self, delta: i64) -> i64 {
        self.value.load(Ordering::Relaxed) + delta
    }
}

impl demo::Counter for CounterImpl {
    fn add(&self, delta: i64) -> Result<i64, SidlError> {
        Ok(self.add_concrete(delta))
    }
    fn current(&self) -> Result<i64, SidlError> {
        Ok(self.value.load(Ordering::Relaxed))
    }
    fn reset(&self) -> Result<(), SidlError> {
        self.value.store(0, Ordering::Relaxed);
        Ok(())
    }
    fn describe(&self, prefix: &str) -> Result<String, SidlError> {
        Ok(format!("{prefix}{}", self.value.load(Ordering::Relaxed)))
    }
}

/// One non-inlined call around a register add: the "function call" unit
/// the paper's 2-3× estimate is expressed in.
#[inline(never)]
fn unit_call(x: i64) -> i64 {
    x + 1
}

fn main() {
    let h = Harness::from_env();
    let counter = || CounterImpl {
        value: AtomicI64::new(0),
    };
    let concrete = counter();
    let dyn_counter: Arc<dyn demo::Counter> = Arc::new(counter());
    let stub = demo::CounterStub(Arc::new(counter()));

    let rounds = h.rounds(&mut [
        &mut batch(hundred(0i64, unit_call)),
        &mut batch(hundred(0i64, |acc| concrete.add_concrete(acc & 1))),
        &mut batch(hundred(0i64, |acc| {
            black_box(&dyn_counter).add(acc & 1).unwrap()
        })),
        &mut batch(hundred(0i64, |acc| black_box(&stub).add(acc & 1).unwrap())),
    ]);

    let mut report = Report::new("e2_sidl_binding", &h);
    for (i, key) in [
        "call_unit_ns",
        "direct_impl_ns",
        "vtable_ns",
        "sidl_stub_ns",
    ]
    .iter()
    .enumerate()
    {
        report.metric(key, rounds.stats(i).scaled(0.01));
    }
    report
        .metric(
            "binding_cost_in_call_units",
            rounds.derive(|s| (s[3] - s[1]) / s[0]),
        )
        .median_at_most(
            3.0,
            "§6.2: the SIDL binding costs approximately 2-3 function calls per method call",
        )
        .at_least(
            0.0,
            "the binding cannot be cheaper than calling the impl directly",
        );
    report.finish();
}

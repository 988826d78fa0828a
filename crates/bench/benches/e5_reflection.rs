//! E5 — §5's reflection and dynamic method invocation: "components and the
//! associated composition tools and frameworks must discover, query, and
//! execute methods at run time."
//!
//! Ladder, per call, on the *generated* bindings:
//!   static_stub      — the generated typed stub (E2's path);
//!   dynamic_invoke   — the generated skeleton's `invoke(name, args)`;
//!   dynamic_checked  — the same plus reflection-driven arity/type
//!                      validation (`invoke_checked`), what a composition
//!                      tool calling an unknown component pays;
//!   reflection_query — pure metadata lookup (type → method), the
//!                      discovery operation builders run while wiring.
//!
//! Measured shape: `static_stub` and `dynamic_invoke` are timed in
//! alternating rounds, and a dynamic call costs under 2× the typed one
//! (ratio median 1.7–1.9, p10 1.6–1.8 in fast mode on a 2-vCPU Xeon: one
//! argument vector boxed and freed and a method-name match around the
//! same typed call). Gate: `dynamic_over_static_ratio ≤ 2.3` (p10); one
//! extra clone of the argument vector in the skeleton reads 2.7–3.4.
//! Argument checking adds ~10 ns more, a reflection query costs less than
//! a typed call, and all of it is orders of magnitude below the ORB path
//! of E3.

use cca::generated::demo;
use cca::sidl::dynamic::invoke_checked;
use cca::sidl::{DynObject, DynValue, Reflection, SidlError};
use cca_bench::{Harness, Report};
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::Arc;

struct CounterImpl {
    value: Mutex<i64>,
}

impl demo::Counter for CounterImpl {
    fn add(&self, delta: i64) -> Result<i64, SidlError> {
        let mut v = self.value.lock();
        *v += delta;
        Ok(*v)
    }
    fn current(&self) -> Result<i64, SidlError> {
        Ok(*self.value.lock())
    }
    fn reset(&self) -> Result<(), SidlError> {
        *self.value.lock() = 0;
        Ok(())
    }
    fn describe(&self, prefix: &str) -> Result<String, SidlError> {
        Ok(format!("{prefix}{}", *self.value.lock()))
    }
}

/// Bound on `dynamic_over_static_ratio`, between the skeleton's reading
/// and that of a skeleton that clones its argument vector once more.
const DYNAMIC_OVER_STATIC: f64 = 2.3;

/// The package the generated `demo::Counter` comes from.
const DEMO_SIDL: &str = include_str!("../../../sidl/demo.sidl");

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e5_reflection", &h);

    let stub = demo::CounterStub(Arc::new(CounterImpl {
        value: Mutex::new(0),
    }));
    let skel = demo::CounterSkel(CounterImpl {
        value: Mutex::new(0),
    });
    let pair = h.ratio(
        || black_box(&stub).add(black_box(1)).unwrap(),
        || {
            black_box(&skel)
                .invoke("add", vec![DynValue::Long(black_box(1))])
                .unwrap()
        },
    );
    report.metric("static_stub_ns", pair.baseline);
    report.metric("dynamic_invoke_ns", pair.probe);
    report
        .metric("dynamic_over_static_ratio", pair.ratio)
        .at_most(
            DYNAMIC_OVER_STATIC,
            "§5: a dynamic call is the typed call plus one boxed argument vector and a name match",
        );

    let reflection = Reflection::from_model(&cca::sidl::compile(DEMO_SIDL).unwrap());
    let add_info = reflection
        .type_info("demo.Counter")
        .unwrap()
        .method("add")
        .unwrap()
        .clone();
    report.metric(
        "dynamic_checked_ns",
        h.time(|| {
            invoke_checked(
                black_box(&skel),
                &add_info,
                vec![DynValue::Long(black_box(1))],
            )
            .unwrap()
        }),
    );

    report.metric(
        "reflection_query_ns",
        h.time(|| {
            let info = reflection.type_info(black_box("demo.Counter")).unwrap();
            info.method(black_box("add")).unwrap().arity()
        }),
    );

    // The discovery path end-to-end: compile the solvers' `esi` package →
    // reflection. This is a per-deposit cost, not per-call; included so
    // EXPERIMENTS.md can set the scales side by side.
    let esi = cca::solvers::esi::ESI_SIDL;
    report.metric(
        "compile_and_reflect_esi_sidl_ns",
        h.time(|| Reflection::from_model(&cca::sidl::compile(black_box(esi)).unwrap())),
    );
    report.finish();
}

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
//! Expected shape: dynamic ≈ 5–50× static (boxing + name dispatch), both
//! orders of magnitude below the ORB path of E3.

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

/// The package the generated `demo::Counter` comes from.
const DEMO_SIDL: &str = include_str!("../../../sidl/demo.sidl");

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e5_reflection", &h);

    let stub = demo::CounterStub(Arc::new(CounterImpl {
        value: Mutex::new(0),
    }));
    report.metric(
        "static_stub_ns",
        h.time(|| black_box(&stub).add(black_box(1)).unwrap()),
    );

    let skel = demo::CounterSkel(CounterImpl {
        value: Mutex::new(0),
    });
    report.metric(
        "dynamic_invoke_ns",
        h.time(|| {
            black_box(&skel)
                .invoke("add", vec![DynValue::Long(black_box(1))])
                .unwrap()
        }),
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

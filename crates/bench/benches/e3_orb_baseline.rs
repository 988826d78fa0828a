//! E3 — §3's comparison with industry component standards: CORBA "is far
//! too inefficient when a method call is made within the same address
//! space."
//!
//! Ladder, per call:
//!   direct_port      — CCA direct-connect (one virtual call);
//!   dynamic_facade   — the reflective DynObject call (no marshaling);
//!   orb_loopback/*   — the CORBA-shaped path *within one address space*:
//!                      marshal → dispatch-by-name → demarshal, swept over
//!                      argument sizes (scalar, 1 KiB, 64 KiB arrays).
//!
//! Expected shape: orb_loopback ≳ 100× direct_port for scalar args; the
//! array sweep shows the per-byte marshal cost, which since arrays cross
//! as slabs is a few bulk copies, not a conversion per element (gated as
//! the 64 KiB ORB-over-direct ratio). E12 prices the same ORB
//! call over a real socket, the regime CORBA was designed for: there the
//! socket round trip dwarfs the marshaling, so CORBA's costs are tolerable
//! *between* hosts and intolerable *inside* one, which is the paper's
//! argument for direct-connect ports.

use cca_bench::{Harness, Report};
use cca_data::NdArray;
use cca_rpc::{ObjRef, Orb};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::hint::black_box;
use std::sync::Arc;

trait SumPort: Send + Sync {
    fn total(&self, x: f64) -> f64;
    fn array_total(&self, data: &NdArray<f64>) -> f64;
}

struct SumImpl;

impl SumPort for SumImpl {
    fn total(&self, x: f64) -> f64 {
        x + 1.0
    }
    fn array_total(&self, data: &NdArray<f64>) -> f64 {
        data.as_slice().iter().sum()
    }
}

impl DynObject for SumImpl {
    fn sidl_type(&self) -> &str {
        "bench.SumPort"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "total" => Ok(DynValue::Double(self.total(args[0].as_double()?))),
            "arrayTotal" => Ok(DynValue::Double(
                self.array_total(args[0].as_double_array()?),
            )),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e3_orb_baseline", &h);

    // Direct-connect reference.
    let port: Arc<dyn SumPort> = Arc::new(SumImpl);
    report.metric(
        "direct_port_ns",
        h.time(|| black_box(&port).total(black_box(1.0))),
    );

    // Dynamic facade (no marshaling, name dispatch only).
    let dyn_port: Arc<dyn DynObject> = Arc::new(SumImpl);
    report.metric(
        "dynamic_facade_ns",
        h.time(|| {
            black_box(&dyn_port)
                .invoke("total", vec![DynValue::Double(black_box(1.0))])
                .unwrap()
        }),
    );

    // The ORB in the same address space.
    let orb = Orb::new();
    orb.register("sum", Arc::new(SumImpl));
    let objref = ObjRef::loopback("sum", orb);
    report.metric(
        "orb_loopback_scalar_ns",
        h.time(|| {
            objref
                .invoke("total", vec![DynValue::Double(black_box(1.0))])
                .unwrap()
        }),
    );

    for n in [128usize, 8192] {
        // 1 KiB and 64 KiB of doubles, over the ORB and over the direct
        // port in alternating rounds: the cost CORBA adds is the
        // difference.
        let arr = NdArray::from_vec(&[n], vec![1.0f64; n]).unwrap();
        let pair = h.ratio(
            || black_box(&port).array_total(black_box(&arr)),
            || {
                objref
                    .invoke("arrayTotal", vec![DynValue::DoubleArray(arr.clone())])
                    .unwrap()
            },
        );
        report.metric(&format!("orb_loopback_array_doubles_{n}_ns"), pair.probe);
        report.metric(&format!("direct_port_array_doubles_{n}_ns"), pair.baseline);
        if n == 8192 {
            // In-process and host-independent: an array crossing the ORB
            // costs its slab copies, not a conversion per element. The
            // bound is 2x the highest full-mode p10 the slab codec read
            // (2.5-3.0 over four runs); the per-element codec read 12.4.
            report
                .metric("orb_over_direct_array_doubles_8192_ratio", pair.ratio)
                .at_most(
                    6.0,
                    "a 64 KiB array through the loopback ORB within 2x of its slab-codec cost",
                );
        }
    }

    report.finish();
}

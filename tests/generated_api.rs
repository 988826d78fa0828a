//! End-to-end test of the SIDL proxy generator: `build.rs` compiled
//! `sidl/demo.sidl` into `cca::generated`, and this test implements and
//! exercises the generated traits, stubs, and skeletons — the full
//! "SIDL → proxy generator → component stubs" pipeline of Figure 2.

use cca::generated::demo;
use cca::sidl::{DynObject, DynValue, SidlError};
use cca_data::{Complex64, NdArray};
use parking_lot::Mutex;
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
        Ok(format!("{prefix}{}", self.current()?))
    }
}

#[test]
fn generated_trait_and_stub_work() {
    let counter: Arc<dyn demo::Counter> = Arc::new(CounterImpl {
        value: Mutex::new(0),
    });
    // The stub is the Babel-style binding layer: caller -> stub ->
    // vtable -> impl.
    let stub = demo::CounterStub(counter);
    assert_eq!(stub.add(5).unwrap(), 5);
    assert_eq!(stub.add(2).unwrap(), 7);
    assert_eq!(stub.current().unwrap(), 7);
    assert_eq!(stub.describe("value=").unwrap(), "value=7");
    stub.reset().unwrap();
    assert_eq!(stub.current().unwrap(), 0);
}

#[test]
fn generated_skeleton_speaks_the_dynamic_protocol() {
    let skel = demo::CounterSkel(CounterImpl {
        value: Mutex::new(10),
    });
    assert_eq!(skel.sidl_type(), "demo.Counter");
    let r = skel.invoke("add", vec![DynValue::Long(32)]).unwrap();
    assert!(matches!(r, DynValue::Long(42)));
    let r = skel
        .invoke("describe", vec![DynValue::Str("n=".into())])
        .unwrap();
    assert!(matches!(r, DynValue::Str(s) if s == "n=42"));
    let r = skel.invoke("reset", vec![]).unwrap();
    assert!(matches!(r, DynValue::Void));
    // Arity and unknown-method errors come from the generated dispatcher.
    assert!(skel.invoke("add", vec![]).is_err());
    assert!(skel.invoke("nonsense", vec![]).is_err());
}

#[test]
fn generated_skeleton_composes_with_the_orb() {
    // Generated skeleton as an ORB servant: the CCA-over-CORBA story.
    let orb = cca::rpc::Orb::new();
    orb.register(
        "counter",
        Arc::new(demo::CounterSkel(CounterImpl {
            value: Mutex::new(0),
        })),
    );
    let objref = cca::rpc::ObjRef::loopback("counter", orb);
    let r = objref.invoke("add", vec![DynValue::Long(4)]).unwrap();
    assert!(matches!(r, DynValue::Long(4)));
}

// ---- inheritance, arrays, complex numbers ---------------

struct DenseVector {
    data: Mutex<Vec<f64>>,
}

impl demo::Object for DenseVector {
    fn typeName(&self) -> Result<String, SidlError> {
        Ok("demo.Vector/dense".into())
    }
}

impl demo::Vector for DenseVector {
    fn length(&self) -> Result<i32, SidlError> {
        Ok(self.data.lock().len() as i32)
    }

    fn dot(&self, other: &Arc<dyn DynObject>) -> Result<f64, SidlError> {
        // Cross-object argument: fetch the other vector's values through
        // its dynamic facade, as a generated binding would.
        let theirs = other.invoke("values", vec![])?;
        let theirs = theirs.as_double_array()?.clone();
        let mine = self.data.lock();
        Ok(mine.iter().zip(theirs.as_slice()).map(|(a, b)| a * b).sum())
    }

    fn scaleBy(&self, alpha: f64) -> Result<(), SidlError> {
        for v in self.data.lock().iter_mut() {
            *v *= alpha;
        }
        Ok(())
    }

    fn characteristic(&self) -> Result<Complex64, SidlError> {
        let d = self.data.lock();
        Ok(Complex64::new(
            d.first().copied().unwrap_or(0.0),
            d.len() as f64,
        ))
    }

    fn values(&self) -> Result<NdArray<f64>, SidlError> {
        let d = self.data.lock().clone();
        let n = d.len();
        Ok(NdArray::from_vec(&[n], d).expect("valid 1-d array"))
    }
}

#[test]
fn inheritance_supertraits_flow_through() {
    let v: Arc<dyn demo::Vector> = Arc::new(DenseVector {
        data: Mutex::new(vec![1.0, 2.0, 3.0]),
    });
    // demo.Vector extends demo.Object: the supertrait method is callable.
    fn object_name(o: &dyn demo::Object) -> String {
        o.typeName().unwrap()
    }
    assert_eq!(object_name(v.as_ref()), "demo.Vector/dense");
    let stub = demo::VectorStub(v);
    assert_eq!(stub.length().unwrap(), 3);
    stub.scaleBy(2.0).unwrap();
    let z = stub.characteristic().unwrap();
    assert_eq!(z, Complex64::new(2.0, 3.0));
}

#[test]
fn generated_dcomplex_and_arrays_cross_the_dynamic_boundary() {
    let skel = Arc::new(demo::VectorSkel(DenseVector {
        data: Mutex::new(vec![1.0, 2.0, 3.0]),
    }));
    // Array-returning method.
    let r = skel.invoke("values", vec![]).unwrap();
    let DynValue::DoubleArray(a) = r else {
        panic!("expected array")
    };
    assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
    // dcomplex-returning method.
    let r = skel.invoke("characteristic", vec![]).unwrap();
    assert!(matches!(r, DynValue::Dcomplex(z) if z == Complex64::new(1.0, 3.0)));
    // Object-argument method: dot of the vector with itself via the
    // dynamic protocol.
    let other: Arc<dyn DynObject> = skel.clone();
    let r = skel.invoke("dot", vec![DynValue::Object(other)]).unwrap();
    assert!(matches!(r, DynValue::Double(d) if d == 14.0));
    // Inherited method dispatches through the same skeleton.
    let r = skel.invoke("typeName", vec![]).unwrap();
    assert!(matches!(r, DynValue::Str(s) if s.contains("dense")));
}

#[test]
fn generated_enum_round_trips() {
    assert_eq!(demo::Status::Converged as i64, 0);
    assert_eq!(demo::Status::MaxIterations as i64, 10);
    assert_eq!(demo::Status::Breakdown as i64, 11);
    assert_eq!(
        demo::Status::from_value(10),
        Some(demo::Status::MaxIterations)
    );
    assert_eq!(demo::Status::from_value(99), None);
}

#[test]
fn generated_c_header_exists_and_is_ior_shaped() {
    let header = std::fs::read_to_string(cca::generated::GENERATED_C_HEADER).unwrap();
    assert!(header.contains("struct demo_Vector__epv"));
    assert!(header.contains("sidl_dcomplex"));
    assert!(header.contains("demo_Counter"));
}

//! A caught panic leaves evidence. With the flight recorder pointed at a
//! directory, one call whose servant panics — answered with a typed
//! `ServantPanic` exception, the server living on — leaves exactly one
//! flight incident of kind `ServantPanic`, carrying the panic's message
//! and the trace id of the frame that carried the call.
//!
//! The recorder is process-global, so this is the only test in its
//! binary: no other test's faults can land in the directory it counts.

use cca_rpc::{MuxServer, ObjRef, Orb, SERVANT_PANIC_TYPE};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::sync::Arc;

struct Bomb;

impl DynObject for Bomb {
    fn sidl_type(&self) -> &str {
        "demo.Bomb"
    }
    fn invoke(&self, _: &str, _: Vec<DynValue>) -> Result<DynValue, SidlError> {
        panic!("servant blew up");
    }
}

#[test]
fn a_panicking_servant_call_leaves_one_flight_incident() {
    let dir = std::env::temp_dir().join(format!("cca_panic_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cca_obs::flight::configure(Some(&dir), 16, 64);

    let orb = Orb::new();
    orb.register("bomb", Arc::new(Bomb));
    let server = MuxServer::bind("127.0.0.1:0", orb).unwrap();
    let objref = ObjRef::tcp("bomb", server.local_addr().to_string());
    cca_obs::set_tracing(true);
    let (outcome, trace_id) = {
        let _span = cca_obs::span("test.call");
        let trace_id = cca_obs::current_context().expect("traced").trace_id;
        (objref.invoke("go", vec![]), trace_id)
    };
    cca_obs::set_tracing(false);
    match outcome {
        Err(SidlError::UserException { exception_type, .. }) => {
            assert_eq!(exception_type, SERVANT_PANIC_TYPE)
        }
        other => panic!("{other:?}"),
    }
    // Disarm before shutdown, so that tearing down this test's sockets
    // cannot add incidents to the inventory.
    cca_obs::flight::configure(None, 16, 64);
    server.shutdown();

    let headers: Vec<String> = std::fs::read_dir(&dir)
        .expect("flight dir exists")
        .map(|entry| std::fs::read_to_string(entry.unwrap().path()).unwrap())
        .filter_map(|text| text.lines().next().map(str::to_string))
        .filter(|header| header.contains("\"kind\":\"ServantPanic\""))
        .collect();
    assert_eq!(headers.len(), 1, "{headers:?}");
    assert!(headers[0].contains("servant blew up"), "{}", headers[0]);
    assert!(
        headers[0].contains(&format!("trace {trace_id}: ")),
        "trace {trace_id} in {}",
        headers[0]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! A deliberately CORBA-shaped Object Request Broker.
//!
//! §3 of the paper: "Although CORBA enables robust and efficient
//! implementations for distributed applications, it is far too inefficient
//! when a method call is made within the same address space." This module
//! reproduces that cost structure faithfully so experiment E3 can measure
//! it: every invocation through an [`ObjRef`], even to an object in the
//! same process, pays
//!
//! 1. argument marshaling into a fresh buffer,
//! 2. transport traversal (loopback at minimum),
//! 3. object lookup by string key and dispatch by operation *name*,
//! 4. reply marshaling and demarshaling.
//!
//! Each of the four codec calls runs under its own `rpc.wire.encode` or
//! `rpc.wire.decode` span, so a trace tells codec time from transit.
//!
//! This is also the genuinely useful half of the paper's story: the same
//! `ObjRef` behind a [`MuxTransport`](crate::MuxTransport) is how the
//! framework implements *distributed* port connections ("CCA over CORBA
//! ... targeting distributed environments").

use crate::transport::{Dispatcher, LoopbackTransport, Transport};
use crate::wire::{decode_reply, decode_request, encode_reply, encode_request, Reply, Request};
use bytes::Bytes;
use cca_obs::TransportMetrics;
use cca_sidl::{DynObject, DynValue, SidlError};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Exception type of the reply to a call whose servant panicked; the
/// message is the panic's.
pub const SERVANT_PANIC_TYPE: &str = "cca.rpc.ServantPanic";

/// The message a panic was raised with, when it carries one.
fn panic_message(panic: &(dyn Any + Send)) -> String {
    match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "servant panicked".to_string(),
    }
}

/// The broker: a table of servant objects keyed by string.
#[derive(Default)]
pub struct Orb {
    objects: Mutex<BTreeMap<String, Arc<dyn DynObject>>>,
    metrics: TransportMetrics,
}

impl Orb {
    /// Creates an empty broker.
    pub fn new() -> Arc<Self> {
        Arc::new(Orb::default())
    }

    /// Registers a servant under `key`, replacing any previous registration.
    pub fn register(&self, key: impl Into<String>, object: Arc<dyn DynObject>) {
        self.objects.lock().insert(key.into(), object);
    }

    /// Removes a servant.
    pub fn unregister(&self, key: &str) -> Option<Arc<dyn DynObject>> {
        self.objects.lock().remove(key)
    }

    /// Number of registered servants.
    pub fn len(&self) -> usize {
        self.objects.lock().len()
    }

    /// True if no servants are registered.
    pub fn is_empty(&self) -> bool {
        self.objects.lock().is_empty()
    }

    /// Registered keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.objects.lock().keys().cloned().collect()
    }

    /// Server-side transport metrics: one round trip recorded per
    /// dispatched request (when counters are enabled), with request/reply
    /// payload sizes and dispatch latency.
    pub fn metrics(&self) -> &TransportMetrics {
        &self.metrics
    }
}

impl Dispatcher for Orb {
    fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let _span = cca_obs::span("rpc.dispatch");
        let counters = cca_obs::counters_enabled();
        let started = if counters { Some(Instant::now()) } else { None };
        let request_len = request.len() as u64;
        let req = {
            let _span = cca_obs::span("rpc.wire.decode");
            decode_request(request)?
        };
        let servant = self.objects.lock().get(&req.object_key).cloned();
        let result = match servant {
            // A panicking servant costs its caller one call: the panic
            // becomes a typed exception reply, and the thread that
            // dispatched it lives on.
            Some(obj) => match catch_unwind(AssertUnwindSafe(|| {
                obj.invoke(&req.operation, req.args)
            })) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(SidlError::UserException {
                    exception_type,
                    message,
                })) => Err((exception_type, message)),
                Ok(Err(other)) => Err(("cca.rpc.SystemException".to_string(), other.to_string())),
                Err(panic) => Err((SERVANT_PANIC_TYPE.to_string(), panic_message(&*panic))),
            },
            None => Err((
                "cca.rpc.ObjectNotFound".to_string(),
                format!("no servant registered under '{}'", req.object_key),
            )),
        };
        let reply = {
            let _span = cca_obs::span("rpc.wire.encode");
            encode_reply(&Reply {
                request_id: req.request_id,
                result,
            })?
        };
        if let Some(started) = started {
            // bytes_in = what arrived at the servant, bytes_out = the reply.
            self.metrics.record_round_trip(
                &req.operation,
                reply.len() as u64,
                request_len,
                started.elapsed().as_nanos() as u64,
            );
        }
        Ok(reply)
    }
}

/// A client-side object reference (CORBA's `Object`): invokes operations on
/// a remote (or loopback-local) servant through a transport.
pub struct ObjRef {
    key: String,
    transport: Arc<dyn Transport>,
    next_id: AtomicU64,
    metrics: TransportMetrics,
}

impl ObjRef {
    /// Creates a reference to the servant registered under `key`, reachable
    /// through `transport`.
    pub fn new(key: impl Into<String>, transport: Arc<dyn Transport>) -> Arc<Self> {
        Arc::new(ObjRef {
            key: key.into(),
            transport,
            next_id: AtomicU64::new(1),
            metrics: TransportMetrics::default(),
        })
    }

    /// Convenience: a loopback reference into a local ORB — the "CORBA in
    /// the same address space" configuration of §3.
    pub fn loopback(key: impl Into<String>, orb: Arc<Orb>) -> Arc<Self> {
        Self::new(key, LoopbackTransport::new(orb))
    }

    /// Convenience: a reference to a servant hosted by a
    /// [`MuxServer`](crate::MuxServer) at `addr` — the genuinely
    /// distributed configuration of §4, with the default connection count
    /// and no call budget (build a [`crate::MuxTransport`] directly for
    /// those).
    pub fn tcp(key: impl Into<String>, addr: impl Into<String>) -> Arc<Self> {
        Self::new(key, Arc::new(crate::mux::MuxTransport::new(addr)))
    }

    /// The servant key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Client-side transport metrics: marshaled bytes each way, round
    /// trips per operation, and full round-trip latency (marshal →
    /// transport → demarshal), recorded when counters are enabled.
    pub fn metrics(&self) -> &TransportMetrics {
        &self.metrics
    }

    /// Invokes `operation` with `args`: marshal → transport → demarshal.
    pub fn invoke(&self, operation: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        let _span = cca_obs::span("rpc.invoke");
        let counters = cca_obs::counters_enabled();
        let started = if counters { Some(Instant::now()) } else { None };
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes = {
            let _span = cca_obs::span("rpc.wire.encode");
            encode_request(&Request {
                request_id,
                object_key: self.key.clone(),
                operation: operation.to_string(),
                args,
            })?
        };
        let bytes_out = bytes.len() as u64;
        let reply_bytes = self.transport.call(bytes)?;
        let bytes_in = reply_bytes.len() as u64;
        if let Some(started) = started {
            self.metrics.record_round_trip(
                operation,
                bytes_out,
                bytes_in,
                started.elapsed().as_nanos() as u64,
            );
        }
        let reply = {
            let _span = cca_obs::span("rpc.wire.decode");
            decode_reply(reply_bytes)?
        };
        if reply.request_id != request_id {
            return Err(SidlError::invoke(format!(
                "reply correlation mismatch: sent {request_id}, got {}",
                reply.request_id
            )));
        }
        match reply.result {
            Ok(v) => Ok(v),
            Err((exception_type, message)) => Err(SidlError::UserException {
                exception_type,
                message,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A servant with a bit of state.
    struct Accumulator {
        total: Mutex<f64>,
    }

    impl DynObject for Accumulator {
        fn sidl_type(&self) -> &str {
            "demo.Accumulator"
        }

        fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "add" => {
                    let x = args[0].as_double()?;
                    let mut t = self.total.lock();
                    *t += x;
                    Ok(DynValue::Double(*t))
                }
                "total" => Ok(DynValue::Double(*self.total.lock())),
                "explode" => Err(SidlError::user("demo.Boom", "as requested")),
                other => Err(SidlError::invoke(format!("no method '{other}'"))),
            }
        }
    }

    fn setup() -> (Arc<Orb>, Arc<ObjRef>) {
        let orb = Orb::new();
        orb.register(
            "acc",
            Arc::new(Accumulator {
                total: Mutex::new(0.0),
            }),
        );
        let objref = ObjRef::loopback("acc", Arc::clone(&orb));
        (orb, objref)
    }

    #[test]
    fn invocation_through_the_orb() {
        let (_orb, acc) = setup();
        let r = acc.invoke("add", vec![DynValue::Double(2.5)]).unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 2.5));
        let r = acc.invoke("add", vec![DynValue::Double(1.5)]).unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 4.0));
        let r = acc.invoke("total", vec![]).unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 4.0));
    }

    #[test]
    fn user_exceptions_cross_the_wire() {
        let (_orb, acc) = setup();
        let e = acc.invoke("explode", vec![]).unwrap_err();
        match e {
            SidlError::UserException {
                exception_type,
                message,
            } => {
                assert_eq!(exception_type, "demo.Boom");
                assert_eq!(message, "as requested");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn system_errors_become_system_exceptions() {
        let (_orb, acc) = setup();
        let e = acc.invoke("missing", vec![]).unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, "cca.rpc.SystemException");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_object_key() {
        let (orb, _) = setup();
        let bogus = ObjRef::loopback("nope", orb);
        let e = bogus.invoke("total", vec![]).unwrap_err();
        assert!(e.to_string().contains("ObjectNotFound"));
    }

    #[test]
    fn registration_lifecycle() {
        let (orb, acc) = setup();
        assert_eq!(orb.len(), 1);
        assert_eq!(orb.keys(), vec!["acc".to_string()]);
        assert!(orb.unregister("acc").is_some());
        assert!(orb.is_empty());
        // Existing references now fail cleanly.
        assert!(acc.invoke("total", vec![]).is_err());
    }

    #[test]
    fn transport_metrics_count_round_trips_and_bytes() {
        let (orb, acc) = setup();
        assert_eq!(acc.metrics().round_trips(), 0);
        cca_obs::set_counters(true);
        acc.invoke("add", vec![DynValue::Double(1.0)]).unwrap();
        acc.invoke("add", vec![DynValue::Double(2.0)]).unwrap();
        acc.invoke("total", vec![]).unwrap();
        cca_obs::set_counters(false);
        // Counters off: the exchange happens but is not recorded.
        acc.invoke("total", vec![]).unwrap();
        let client = acc.metrics().snapshot();
        assert_eq!(client.round_trips, 3);
        assert!(client.bytes_out > 0 && client.bytes_in > 0);
        assert_eq!(
            client.per_method,
            vec![("add".to_string(), 2), ("total".to_string(), 1)]
        );
        // The loopback server saw the same payloads from the other side.
        let server = orb.metrics().snapshot();
        assert_eq!(server.round_trips, 3);
        assert_eq!(server.bytes_in, client.bytes_out);
        assert_eq!(server.bytes_out, client.bytes_in);
        assert!(server.latency.count >= 3);
    }

    #[test]
    fn arrays_cross_the_orb() {
        use cca_data::NdArray;
        struct Summer;
        impl DynObject for Summer {
            fn sidl_type(&self) -> &str {
                "demo.Summer"
            }
            fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
                match method {
                    "sum" => {
                        let a = args[0].as_double_array()?;
                        Ok(DynValue::Double(a.as_slice().iter().sum()))
                    }
                    other => Err(SidlError::invoke(format!("no method '{other}'"))),
                }
            }
        }
        let orb = Orb::new();
        orb.register("summer", Arc::new(Summer));
        let objref = ObjRef::loopback("summer", orb);
        let arr = NdArray::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let r = objref
            .invoke("sum", vec![DynValue::DoubleArray(arr)])
            .unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 10.0));
    }
}

//! Remote port proxies.
//!
//! §6.2: "Optionally, the provided DirectConnectPort can be translated
//! through a proxy by a separate UsesPort provided by the framework,
//! without the components on either end of the connection needing to
//! know." [`RemotePortProxy`] is that proxy: it implements
//! [`cca_sidl::DynObject`] by forwarding every invocation through an ORB
//! [`ObjRef`], so the framework can install it as the *dynamic facade* of a
//! [`cca_core::PortHandle`] and a component using reflective calls cannot
//! tell a remote provider from a local one.

use crate::orb::ObjRef;
use cca_sidl::{DynObject, DynValue, SidlError};
use std::sync::Arc;

/// A `DynObject` that lives here but executes over there.
pub struct RemotePortProxy {
    /// The port's SIDL interface type (reported locally, so type checks
    /// don't need a network round trip).
    port_type: String,
    /// The remote reference.
    objref: Arc<ObjRef>,
}

impl RemotePortProxy {
    /// Creates a proxy reporting `port_type` and forwarding to `objref`.
    pub fn new(port_type: impl Into<String>, objref: Arc<ObjRef>) -> Arc<Self> {
        Arc::new(RemotePortProxy {
            port_type: port_type.into(),
            objref,
        })
    }

    /// The remote object's registration key.
    pub fn remote_key(&self) -> &str {
        self.objref.key()
    }
}

impl DynObject for RemotePortProxy {
    fn sidl_type(&self) -> &str {
        &self.port_type
    }

    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        self.objref.invoke(method, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orb::Orb;
    use cca_core::PortHandle;

    struct Doubler;
    impl DynObject for Doubler {
        fn sidl_type(&self) -> &str {
            "demo.Doubler"
        }
        fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "double" => Ok(DynValue::Double(args[0].as_double()? * 2.0)),
                other => Err(SidlError::invoke(format!("no method '{other}'"))),
            }
        }
    }

    #[test]
    fn proxy_forwards_invocations() {
        let orb = Orb::new();
        orb.register("dbl", Arc::new(Doubler));
        let proxy = RemotePortProxy::new("demo.Doubler", ObjRef::loopback("dbl", orb));
        assert_eq!(proxy.sidl_type(), "demo.Doubler");
        assert_eq!(proxy.remote_key(), "dbl");
        let r = proxy
            .invoke("double", vec![DynValue::Double(21.0)])
            .unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 42.0));
    }

    #[test]
    fn proxy_as_port_handle_dynamic_facade() {
        // The framework-side pattern: a PortHandle whose dynamic facade is
        // remote. The consumer sees an ordinary handle.
        let orb = Orb::new();
        orb.register("dbl", Arc::new(Doubler));
        let proxy = RemotePortProxy::new("demo.Doubler", ObjRef::loopback("dbl", orb));
        let dyn_facade: Arc<dyn DynObject> = proxy;
        let handle = PortHandle::new("doubler", "demo.Doubler", Arc::clone(&dyn_facade))
            .with_dynamic(dyn_facade);
        let port = handle.dynamic().unwrap();
        let r = port.invoke("double", vec![DynValue::Double(4.0)]).unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 8.0));
    }

    #[test]
    fn proxy_surfaces_remote_user_exceptions_verbatim() {
        struct Thrower;
        impl DynObject for Thrower {
            fn sidl_type(&self) -> &str {
                "demo.Thrower"
            }
            fn invoke(&self, _m: &str, _a: Vec<DynValue>) -> Result<DynValue, SidlError> {
                Err(SidlError::user("demo.Boom", "remote detonation"))
            }
        }
        let orb = Orb::new();
        orb.register("boom", Arc::new(Thrower));
        let proxy = RemotePortProxy::new("demo.Thrower", ObjRef::loopback("boom", orb));
        let e = proxy.invoke("go", vec![]).unwrap_err();
        match e {
            SidlError::UserException {
                exception_type,
                message,
            } => {
                assert_eq!(exception_type, "demo.Boom");
                assert_eq!(message, "remote detonation");
            }
            other => panic!("user exception must cross the proxy intact, got {other:?}"),
        }
    }

    #[test]
    fn proxy_to_unregistered_key_reports_object_not_found() {
        // A stale reference (servant unregistered, or key never existed)
        // fails with the ORB's typed error, not a panic or a hang.
        let orb = Orb::new();
        orb.register("dbl", Arc::new(Doubler));
        let proxy = RemotePortProxy::new("demo.Doubler", ObjRef::loopback("gone", orb));
        let e = proxy
            .invoke("double", vec![DynValue::Double(1.0)])
            .unwrap_err();
        assert!(e.to_string().contains("ObjectNotFound"), "{e}");
    }

    #[test]
    fn proxy_over_dead_tcp_endpoint_is_a_typed_connection_error() {
        // Bind-then-drop guarantees a dead port: the proxy's first call
        // dials, fails, and surfaces the socket transport's typed error.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let proxy = RemotePortProxy::new("demo.Doubler", ObjRef::tcp("dbl", dead.to_string()));
        let e = proxy
            .invoke("double", vec![DynValue::Double(1.0)])
            .unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, crate::CONNECTION_EXCEPTION_TYPE);
            }
            other => panic!("dead endpoint must be a connection error, got {other:?}"),
        }
    }

    #[test]
    fn proxy_argument_type_errors_come_back_as_remote_faults() {
        // Passing a string where the servant demands a double: the failure
        // happens server-side and comes back marshaled, proving the error
        // path round-trips rather than short-circuiting locally.
        let orb = Orb::new();
        orb.register("dbl", Arc::new(Doubler));
        let proxy = RemotePortProxy::new("demo.Doubler", ObjRef::loopback("dbl", orb));
        let e = proxy
            .invoke("double", vec![DynValue::Str("not a number".into())])
            .unwrap_err();
        assert!(e.to_string().contains("SystemException"), "{e}");
    }
}

//! Request/response transports.
//!
//! A [`Transport`] carries marshaled request bytes to a server and returns
//! marshaled reply bytes; a [`Dispatcher`] is the server side that turns
//! one into the other. This module holds the in-process implementation:
//!
//! * [`LoopbackTransport`] — same-address-space dispatch, used by the ORB
//!   baseline to isolate pure marshaling/dispatch overhead (experiment E3).
//!
//! The socket transport is [`crate::mux::MuxTransport`]; the wrappers that
//! add deadlines and injected faults live in [`crate::resilient`].

use bytes::Bytes;
use cca_sidl::SidlError;
use std::sync::Arc;

/// A synchronous request/response byte transport.
pub trait Transport: Send + Sync {
    /// Sends a marshaled request, returning the marshaled reply.
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError>;
}

/// A server-side dispatcher: consumes a request, produces a reply.
pub trait Dispatcher: Send + Sync {
    /// Handles one marshaled request.
    fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError>;
}

/// Same-address-space transport: calls the dispatcher directly.
pub struct LoopbackTransport {
    server: Arc<dyn Dispatcher>,
}

impl LoopbackTransport {
    /// Wraps a dispatcher.
    pub fn new(server: Arc<dyn Dispatcher>) -> Arc<Self> {
        Arc::new(LoopbackTransport { server })
    }
}

impl Transport for LoopbackTransport {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        self.server.dispatch(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo dispatcher for transport tests, counting the requests it was
    /// handed.
    #[derive(Default)]
    struct CountingEcho(std::sync::atomic::AtomicU64);
    impl Dispatcher for CountingEcho {
        fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(request)
        }
    }

    #[test]
    fn loopback_round_trips_and_counts() {
        let server = Arc::new(CountingEcho::default());
        let seen = || server.0.load(std::sync::atomic::Ordering::Relaxed);
        let t = LoopbackTransport::new(server.clone());
        let reply = t.call(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&reply[..], b"ping");
        assert_eq!(seen(), 1);
        t.call(Bytes::from_static(b"again")).unwrap();
        assert_eq!(seen(), 2);
    }

    #[test]
    fn errors_propagate_through_wrappers() {
        use crate::resilient::DeadlineTransport;
        use cca_core::resilience::MockClock;

        struct Failing;
        impl Dispatcher for Failing {
            fn dispatch(&self, _: Bytes) -> Result<Bytes, SidlError> {
                Err(SidlError::invoke("server down"))
            }
        }
        // A generous budget: the inner error, not a deadline, comes back.
        let t = DeadlineTransport::new(
            LoopbackTransport::new(Arc::new(Failing)),
            1_000_000,
            MockClock::new(),
        );
        let e = t.call(Bytes::new()).unwrap_err();
        assert!(e.to_string().contains("server down"), "{e}");
        assert_eq!(t.deadline_hits(), 0);
    }
}

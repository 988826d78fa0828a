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
use std::sync::atomic::{AtomicU64, Ordering};
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
    calls: AtomicU64,
}

impl LoopbackTransport {
    /// Wraps a dispatcher.
    pub fn new(server: Arc<dyn Dispatcher>) -> Arc<Self> {
        Arc::new(LoopbackTransport {
            server,
            calls: AtomicU64::new(0),
        })
    }

    /// Number of calls carried so far.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Transport for LoopbackTransport {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.server.dispatch(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo dispatcher for transport tests.
    struct Echo;
    impl Dispatcher for Echo {
        fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
            Ok(request)
        }
    }

    #[test]
    fn loopback_round_trips_and_counts() {
        let t = LoopbackTransport::new(Arc::new(Echo));
        let reply = t.call(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&reply[..], b"ping");
        assert_eq!(t.call_count(), 1);
        t.call(Bytes::from_static(b"again")).unwrap();
        assert_eq!(t.call_count(), 2);
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

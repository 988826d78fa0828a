//! Error vocabulary shared by all CCA layers.

use cca_parallel::ParallelError;
use cca_sidl::SidlError;
use std::fmt;

/// Errors raised by the CCA services, framework, and ports.
#[derive(Debug, Clone, PartialEq)]
pub enum CcaError {
    /// No port registered under the given instance name.
    PortNotFound(String),
    /// A uses port exists but has no connection.
    PortNotConnected(String),
    /// A port instance name was registered twice.
    PortAlreadyExists(String),
    /// A connection was attempted between type-incompatible ports.
    IncompatiblePorts {
        /// The uses side's declared port type.
        uses_type: String,
        /// The provides side's declared port type.
        provides_type: String,
    },
    /// The retrieved port could not be downcast to the requested Rust type.
    WrongPortRust {
        /// The port instance name.
        port: String,
        /// The Rust type that was requested.
        requested: &'static str,
    },
    /// No component instance with the given name.
    ComponentNotFound(String),
    /// A component instance name was used twice.
    ComponentAlreadyExists(String),
    /// A component reported failure; carried to builder listeners.
    ComponentFailed {
        /// Component instance name.
        component: String,
        /// Failure description.
        reason: String,
    },
    /// A call (or its retry sequence) exceeded its policy deadline.
    DeadlineExceeded(String),
    /// A call was refused because the provider's circuit breaker is open.
    ProviderQuarantined(String),
    /// A problem inside the framework or its transport.
    Framework(String),
    /// An error crossing the SIDL binding.
    Sidl(SidlError),
    /// A communicator operation failed — including
    /// [`ParallelError::Interrupted`], the fleet's "the generation moved,
    /// roll back" notice, which a worker loop retries instead of failing.
    Parallel(ParallelError),
}

impl fmt::Display for CcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcaError::PortNotFound(name) => write!(f, "port '{name}' not found"),
            CcaError::PortNotConnected(name) => write!(f, "uses port '{name}' is not connected"),
            CcaError::PortAlreadyExists(name) => {
                write!(f, "port '{name}' is already registered")
            }
            CcaError::IncompatiblePorts {
                uses_type,
                provides_type,
            } => write!(
                f,
                "cannot connect: uses port expects '{uses_type}', provider offers \
                 '{provides_type}' (not a subtype)"
            ),
            CcaError::WrongPortRust { port, requested } => {
                write!(f, "port '{port}' cannot be viewed as Rust type {requested}")
            }
            CcaError::ComponentNotFound(name) => write!(f, "component '{name}' not found"),
            CcaError::ComponentAlreadyExists(name) => {
                write!(f, "component '{name}' already exists")
            }
            CcaError::ComponentFailed { component, reason } => {
                write!(f, "component '{component}' failed: {reason}")
            }
            CcaError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            CcaError::ProviderQuarantined(msg) => {
                write!(f, "provider quarantined (circuit breaker open): {msg}")
            }
            CcaError::Framework(msg) => write!(f, "framework error: {msg}"),
            CcaError::Sidl(e) => write!(f, "sidl error: {e}"),
            CcaError::Parallel(e) => write!(f, "parallel error: {e}"),
        }
    }
}

impl std::error::Error for CcaError {}

impl From<SidlError> for CcaError {
    fn from(e: SidlError) -> Self {
        // A deadline raised inside the RPC layer (DeadlineTransport wraps
        // it as a SIDL user exception to cross the wire format) keeps its
        // meaning on the port side of the boundary.
        if let SidlError::UserException {
            exception_type,
            message,
        } = &e
        {
            if exception_type == crate::resilience::DEADLINE_EXCEPTION_TYPE {
                return CcaError::DeadlineExceeded(message.clone());
            }
        }
        CcaError::Sidl(e)
    }
}

impl From<ParallelError> for CcaError {
    fn from(e: ParallelError) -> Self {
        CcaError::Parallel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(CcaError::PortNotFound("mesh".into())
            .to_string()
            .contains("mesh"));
        assert!(CcaError::IncompatiblePorts {
            uses_type: "esi.Vector".into(),
            provides_type: "esi.Matrix".into()
        }
        .to_string()
        .contains("subtype"));
        let sidl: CcaError = SidlError::invoke("boom").into();
        assert!(sidl.to_string().contains("boom"));
        let par: CcaError = ParallelError::Interrupted { generation: 7 }.into();
        assert!(par.to_string().contains("generation 7"));
    }

    #[test]
    fn deadline_user_exception_converts_to_deadline_exceeded() {
        let e: CcaError = SidlError::user(
            crate::resilience::DEADLINE_EXCEPTION_TYPE,
            "call budget spent",
        )
        .into();
        assert!(matches!(e, CcaError::DeadlineExceeded(ref m) if m == "call budget spent"));
        // Other user exceptions stay SIDL errors.
        let e: CcaError = SidlError::user("demo.Boom", "boom").into();
        assert!(matches!(e, CcaError::Sidl(_)));
    }
}

//! The remote scrape plane: one reflective port a collector dials over
//! the ORB wire to pull everything observable out of a live process.
//!
//! The monitor port ([`crate::monitor`]) answers a composition tool's
//! questions about *structure* — instances, wiring, metrics. The
//! observability port answers an operator's questions about *behaviour at
//! a distance*: the trace ring (non-consuming, so a scrape never steals
//! events from a local observer), the flight-recorder inventory, the
//! resilience, repository and fleet counters, and the tracing gate itself — togglable remotely,
//! so a collector can light up tracing on a misbehaving process, scrape a
//! window, and turn it back off. [`Framework::install_observability`]
//! both installs the component *and* exports its port under
//! [`OBSERVABILITY_EXPORT_KEY`], so a single `serve_tcp_mux` call
//! afterwards puts the scrape plane on the network over the very
//! transport the components themselves use.

use crate::framework::Framework;
use crate::monitor::MonitorPort;
use crate::ports::{self, MonitorPort as _, ObservabilityPortSkel};
use cca_core::CcaError;
use cca_obs::trace::escape_json;
use cca_sidl::SidlError;
use std::sync::Arc;

/// The SIDL type of the scrape port.
pub const OBSERVABILITY_PORT_TYPE: &str = "cca.ports.ObservabilityPort";

/// Default instance name [`Framework::install_observability`] registers
/// under.
pub const OBSERVABILITY_INSTANCE: &str = "cca-observability";

/// ORB key the scrape port is exported under —
/// `"{OBSERVABILITY_INSTANCE}/observability"`. A remote collector reaches
/// it with `ObjRef::new(OBSERVABILITY_EXPORT_KEY, transport)`.
pub const OBSERVABILITY_EXPORT_KEY: &str = "cca-observability/observability";

/// SIDL declaration of the scrape interface (`sidl/observability.sidl`;
/// the build script generates [`ports::ObservabilityPort`] from it),
/// deposited into the repository by [`Framework::install_observability`]
/// so reflective callers can `invoke_checked` against real metadata.
pub const OBSERVABILITY_SIDL: &str = include_str!("../sidl/observability.sidl");

/// The scrape port object. Structure queries delegate to an internal
/// [`MonitorPort`] (same weak-reference discipline: the port never keeps
/// its framework alive); behaviour queries read the process-global
/// tracer, flight recorder, and resilience counters directly.
pub struct ObservabilityPort {
    monitor: MonitorPort,
}

impl ObservabilityPort {
    /// Creates a scrape port watching `framework`.
    pub fn new(framework: &Arc<Framework>) -> Self {
        ObservabilityPort {
            monitor: MonitorPort::new(framework),
        }
    }
}

impl ports::ObservabilityPort for ObservabilityPort {
    /// One self-describing scrape: flag gates, flight inventory,
    /// per-instance port metrics, resilience counters, the repository's
    /// deposit/lookup/discovery counters, and the worker fleet's
    /// supervision counters (launches, deaths, restarts, generation bumps).
    fn snapshotJson(&self) -> Result<String, SidlError> {
        Ok(format!(
            "{{\"tracing\":{},\"counters\":{},\"flight\":{},\"metrics\":{},\"resilience\":{},\
             \"repo\":{},\"fleet\":{}}}",
            cca_obs::tracing_enabled(),
            cca_obs::counters_enabled(),
            self.flightJson()?,
            self.monitor.metricsJson()?,
            self.monitor.resilienceJson()?,
            cca_obs::repo().snapshot().to_json(),
            cca_obs::fleet().snapshot().to_json(),
        ))
    }

    /// The trace ring as JSON Lines, **without consuming it** — local
    /// drains (flight recorder, monitor) still see every event.
    fn traceJsonl(&self) -> Result<String, SidlError> {
        Ok(cca_obs::to_jsonl(&cca_obs::snapshot()))
    }

    /// Flight-recorder inventory: whether it is armed and which incident
    /// files this process currently retains.
    fn flightJson(&self) -> Result<String, SidlError> {
        let incidents: Vec<String> = cca_obs::flight::incidents()
            .iter()
            .map(|p| format!("\"{}\"", escape_json(&p.display().to_string())))
            .collect();
        Ok(format!(
            "{{\"enabled\":{},\"incidents\":[{}]}}",
            cca_obs::flight::enabled(),
            incidents.join(",")
        ))
    }

    fn resilienceJson(&self) -> Result<String, SidlError> {
        self.monitor.resilienceJson()
    }

    fn setTracing(&self, on: bool) -> Result<(), SidlError> {
        cca_obs::set_tracing(on);
        Ok(())
    }
}

impl Framework {
    /// Installs the scrape plane: deposits [`OBSERVABILITY_SIDL`] into the
    /// repository (idempotently), adds a `cca.ObservabilityComponent`
    /// instance named [`OBSERVABILITY_INSTANCE`], and exports its port
    /// under [`OBSERVABILITY_EXPORT_KEY`] so the next
    /// [`serve_tcp_mux`](Framework::serve_tcp_mux) call makes the process
    /// remotely scrapeable.
    ///
    /// Returns the installed skeleton for in-process callers (its `.0` is
    /// the typed [`ObservabilityPort`]).
    pub fn install_observability(
        self: &Arc<Self>,
    ) -> Result<Arc<ObservabilityPortSkel<ObservabilityPort>>, CcaError> {
        let port = Arc::new(ObservabilityPortSkel(ObservabilityPort::new(self)));
        self.install_reflective_port(
            OBSERVABILITY_INSTANCE,
            "cca.ObservabilityComponent",
            "observability",
            OBSERVABILITY_PORT_TYPE,
            OBSERVABILITY_SIDL,
            port.clone(),
        )?;
        let key = self.export_port(OBSERVABILITY_INSTANCE, "observability")?;
        debug_assert_eq!(key, OBSERVABILITY_EXPORT_KEY);
        Ok(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::ObservabilityPort as _;
    use cca_core::{CcaServices, Component, PortHandle};
    use cca_data::TypeMap;
    use cca_repository::Repository;
    use cca_sidl::{compile, invoke_checked, DynObject, DynValue, Reflection};

    // The scrape tests never call through the port; a marker trait is
    // enough to give the provider a typed provides slot.
    trait Echo: Send + Sync {}
    struct E;
    impl Echo for E {}
    struct Provider;
    impl Component for Provider {
        fn component_type(&self) -> &str {
            "t.Provider"
        }
        fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
            let port: Arc<dyn Echo> = Arc::new(E);
            s.add_provides_port(PortHandle::new("out", "t.Echo", port))
        }
    }
    struct User;
    impl Component for User {
        fn component_type(&self) -> &str {
            "t.User"
        }
        fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
            s.register_uses_port("in", "t.Echo", TypeMap::new())
        }
    }

    fn wired_framework() -> Arc<Framework> {
        let fw = Framework::new(Repository::new());
        fw.add_instance("p0", Arc::new(Provider)).unwrap();
        fw.add_instance("u0", Arc::new(User)).unwrap();
        fw.connect("u0", "in", "p0", "out").unwrap();
        fw
    }

    #[test]
    fn install_registers_exports_and_scrapes() {
        let fw = wired_framework();
        let obs = fw.install_observability().unwrap();
        // Installed and exported in one step.
        assert!(fw
            .orb()
            .keys()
            .contains(&OBSERVABILITY_EXPORT_KEY.to_string()));
        // Second install fails on the duplicate instance, not the SIDL.
        assert!(matches!(
            fw.install_observability(),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
        let snap = obs.0.snapshotJson().unwrap();
        assert!(snap.contains("\"tracing\":"), "{snap}");
        assert!(snap.contains("\"flight\":{\"enabled\":"), "{snap}");
        assert!(snap.contains("\"u0\""), "{snap}");
        assert!(snap.contains("\"resilience\":{"), "{snap}");
        assert!(snap.contains("\"repo\":{\"deposits\""), "{snap}");
        assert!(
            snap.contains("\"fleet\":{\"checkpoints_committed\""),
            "{snap}"
        );
    }

    #[test]
    fn scrape_is_reachable_through_deposited_reflection() {
        let fw = wired_framework();
        fw.install_observability().unwrap();
        let handle = fw
            .services(OBSERVABILITY_INSTANCE)
            .unwrap()
            .get_provides_port("observability")
            .unwrap();
        let target = handle.dynamic().unwrap();
        let reflection = Reflection::from_model(&compile(OBSERVABILITY_SIDL).unwrap());
        let info = reflection.type_info(OBSERVABILITY_PORT_TYPE).unwrap();

        let r = invoke_checked(&**target, info.method("snapshotJson").unwrap(), vec![]).unwrap();
        assert!(r.as_str().unwrap().contains("\"metrics\""));
        let r = invoke_checked(&**target, info.method("flightJson").unwrap(), vec![]).unwrap();
        assert!(r.as_str().unwrap().contains("\"incidents\""));
        // Arity checking comes from the deposited metadata.
        assert!(invoke_checked(&**target, info.method("setTracing").unwrap(), vec![]).is_err());
    }

    #[test]
    fn trace_scrape_does_not_consume_the_ring() {
        let fw = wired_framework();
        let obs = fw.install_observability().unwrap();
        obs.invoke("setTracing", vec![DynValue::Bool(true)])
            .unwrap();
        cca_obs::trace_instant("scrape-me");
        let first = obs.0.traceJsonl().unwrap();
        let second = obs.0.traceJsonl().unwrap();
        obs.invoke("setTracing", vec![DynValue::Bool(false)])
            .unwrap();
        cca_obs::drain();
        assert!(first.contains("\"scrape-me\""), "{first}");
        assert!(
            second.contains("\"scrape-me\""),
            "second scrape still sees it"
        );
    }

    #[test]
    fn unknown_method_and_bad_args_error() {
        let fw = wired_framework();
        let obs = fw.install_observability().unwrap();
        assert!(obs.invoke("selfDestruct", vec![]).is_err());
        assert!(obs.invoke("setTracing", vec![]).is_err());
        assert!(obs.invoke("setTracing", vec![DynValue::Long(1)]).is_err());
    }
}

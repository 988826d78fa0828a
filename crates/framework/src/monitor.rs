//! The reflective `MonitorPort` — Fig. 2's builder-style introspection as
//! an ordinary CCA port.
//!
//! §5 motivates SIDL reflection with exactly this use: "components and the
//! associated composition tools and frameworks must discover, query, and
//! execute methods at run time." The monitor is that story closed end to
//! end: the framework installs a component whose provides port is reachable
//! **only** through the dynamic-invocation machinery (`cca_sidl::DynObject`
//! plus [`MONITOR_SIDL`] reflection metadata), and through it any tool —
//! a GUI builder, a remote proxy via the ORB, a script — can ask the live
//! assembly for its instance list, connection graph, per-port metrics, and
//! trace buffers without compile-time knowledge of this crate.
//!
//! The same port is the remote scrape plane. It answers an operator's
//! questions about behaviour at a distance: the trace ring (non-consuming
//! through `traceJsonl`, so a scrape never steals events from a local
//! observer), the flight-recorder inventory, the resilience, repository
//! and fleet counters, and one self-describing `snapshotJson` of all of
//! them. [`Framework::install_monitor`] both installs the component and
//! exports its port under [`MONITOR_EXPORT_KEY`], so a single
//! `serve_tcp_mux` call afterwards puts the scrape plane on the network
//! over the very transport the components themselves use; a collector
//! can light up tracing on a misbehaving process, scrape a window, and
//! turn it back off.
//!
//! `examples/monitoring.rs` drives the whole surface via
//! `cca_sidl::invoke_checked` only, as a composition tool would.

use crate::framework::Framework;
use crate::ports::{self, MonitorPortSkel};
use cca_core::{CcaError, CcaServices, Component, PortHandle};
use cca_obs::trace::escape_json;
use cca_sidl::{DynObject, SidlError};
use std::sync::{Arc, Weak};

/// The SIDL type of the monitor's provides port.
pub const MONITOR_PORT_TYPE: &str = "cca.ports.MonitorPort";

/// Default instance name [`Framework::install_monitor`] registers under.
pub const MONITOR_INSTANCE: &str = "cca-monitor";

/// ORB key the monitor port is exported under —
/// `"{MONITOR_INSTANCE}/monitor"`. A remote collector reaches it with
/// `ObjRef::new(MONITOR_EXPORT_KEY, transport)`.
pub const MONITOR_EXPORT_KEY: &str = "cca-monitor/monitor";

/// SIDL declaration of the monitor interface (`sidl/monitor.sidl`; the
/// build script generates [`ports::MonitorPort`] from it). Deposited into
/// the repository by [`Framework::install_monitor`] so reflective callers
/// can `invoke_checked` against real metadata.
pub const MONITOR_SIDL: &str = include_str!("../sidl/monitor.sidl");

/// The monitor's port object: the [`ports::MonitorPort`] implementation
/// over a weak framework reference (weak, so the monitor never keeps its
/// own framework alive — the framework owns the monitor, not vice versa).
pub struct MonitorPort {
    framework: Weak<Framework>,
}

impl MonitorPort {
    /// Creates a monitor port watching `framework`.
    pub fn new(framework: &Arc<Framework>) -> Self {
        MonitorPort {
            framework: Arc::downgrade(framework),
        }
    }

    fn framework(&self) -> Result<Arc<Framework>, SidlError> {
        self.framework
            .upgrade()
            .ok_or_else(|| SidlError::invoke("monitored framework no longer exists"))
    }
}

impl ports::MonitorPort for MonitorPort {
    /// JSON array of `{"name", "class"}` for every live instance.
    fn instances(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let items: Vec<String> = fw
            .instance_names()
            .into_iter()
            .map(|name| {
                let class = fw.class_of(&name).unwrap_or_default();
                format!(
                    "{{\"name\":\"{}\",\"class\":\"{}\"}}",
                    escape_json(&name),
                    escape_json(&class)
                )
            })
            .collect();
        Ok(format!("[{}]", items.join(",")))
    }

    /// The live connection graph: instances as nodes, connections as edges.
    fn connectionGraph(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let edges: Vec<String> = fw
            .connections()
            .into_iter()
            .map(|c| {
                format!(
                    "{{\"user\":\"{}\",\"usesPort\":\"{}\",\"provider\":\"{}\",\
                     \"providesPort\":\"{}\",\"portType\":\"{}\",\"policy\":\"{:?}\"}}",
                    escape_json(&c.user),
                    escape_json(&c.uses_port),
                    escape_json(&c.provider),
                    escape_json(&c.provides_port),
                    escape_json(&c.port_type),
                    c.policy
                )
            })
            .collect();
        Ok(format!(
            "{{\"instances\":{},\"connections\":[{}]}}",
            self.instances()?,
            edges.join(",")
        ))
    }

    /// Per-port metrics of every instance, keyed by instance name.
    fn metricsJson(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let mut per_instance = Vec::new();
        for name in fw.instance_names() {
            let services = fw
                .services(&name)
                .map_err(|e| SidlError::invoke(e.to_string()))?;
            let ports: Vec<String> = services
                .metrics_snapshot()
                .into_iter()
                .map(|(port, kind, snap)| {
                    format!(
                        "{{\"port\":\"{}\",\"kind\":\"{kind}\",\"metrics\":{}}}",
                        escape_json(&port),
                        snap.to_json()
                    )
                })
                .collect();
            per_instance.push(format!("\"{}\":[{}]", escape_json(&name), ports.join(",")));
        }
        Ok(format!("{{{}}}", per_instance.join(",")))
    }

    /// Total observed invocations of `port` on `instance`.
    fn callCount(&self, instance: &str, port: &str) -> Result<i64, SidlError> {
        let fw = self.framework()?;
        let services = fw
            .services(instance)
            .map_err(|e| SidlError::invoke(e.to_string()))?;
        let metrics = services
            .port_metrics(port)
            .map_err(|e| SidlError::invoke(e.to_string()))?;
        Ok(metrics.calls() as i64)
    }

    fn eventSubscriptions(&self) -> Result<i64, SidlError> {
        Ok(self.framework()?.listener_count() as i64)
    }

    fn setCounters(&self, on: bool) -> Result<(), SidlError> {
        cca_obs::set_counters(on);
        Ok(())
    }

    fn setTracing(&self, on: bool) -> Result<(), SidlError> {
        cca_obs::set_tracing(on);
        Ok(())
    }

    /// Drains the tracer, consuming its events: `"chrome"` renders a
    /// Chrome `trace_event` document, anything else JSON Lines.
    fn drainTrace(&self, format: &str) -> Result<String, SidlError> {
        let events = cca_obs::drain();
        Ok(if format == "chrome" {
            cca_obs::to_chrome_trace(&events)
        } else {
            cca_obs::to_jsonl(&events)
        })
    }

    /// The trace ring as JSON Lines, **without consuming it** — local
    /// drains (flight recorder, `drainTrace`) still see every event.
    fn traceJsonl(&self) -> Result<String, SidlError> {
        Ok(cca_obs::to_jsonl(&cca_obs::snapshot()))
    }

    /// Global resilience counters plus the live breaker state of every
    /// connection (state `"none"` for connections without a call policy).
    fn resilienceJson(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let breakers: Vec<String> = fw
            .breaker_states()
            .into_iter()
            .map(|(c, state)| {
                let (state_str, failures) = match state {
                    Some((s, f)) => (s.as_str(), f),
                    None => ("none", 0),
                };
                format!(
                    "{{\"user\":\"{}\",\"usesPort\":\"{}\",\"provider\":\"{}\",\
                     \"state\":\"{state_str}\",\"consecutiveFailures\":{failures}}}",
                    escape_json(&c.user),
                    escape_json(&c.uses_port),
                    escape_json(&c.provider),
                )
            })
            .collect();
        Ok(format!(
            "{{\"counters\":{},\"breakers\":[{}]}}",
            cca_obs::resilience().snapshot().to_json(),
            breakers.join(",")
        ))
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
            self.metricsJson()?,
            self.resilienceJson()?,
            cca_obs::repo().snapshot().to_json(),
            cca_obs::fleet().snapshot().to_json(),
        ))
    }
}

/// The component behind each of the framework's reflective ports
/// (monitor, discovery): it provides one dynamic port and uses nothing.
struct ReflectivePortComponent {
    component_type: &'static str,
    port_name: &'static str,
    port_type: &'static str,
    port: Arc<dyn DynObject>,
}

impl Component for ReflectivePortComponent {
    fn component_type(&self) -> &str {
        self.component_type
    }

    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.add_provides_port(
            PortHandle::new(self.port_name, self.port_type, Arc::clone(&self.port))
                .with_dynamic(Arc::clone(&self.port)),
        )
    }
}

impl Framework {
    /// Installs one reflective port: deposits `sidl` into the repository
    /// unless `port_type` is already known there, then adds an instance
    /// `instance` whose `port_name` provides port is `port`, reachable
    /// through dynamic invocation.
    pub(crate) fn install_reflective_port(
        &self,
        instance: &str,
        component_type: &'static str,
        port_name: &'static str,
        port_type: &'static str,
        sidl: &str,
        port: Arc<dyn DynObject>,
    ) -> Result<(), CcaError> {
        let known = self
            .repository()
            .with_catalog(|c| c.reflection().type_info(port_type).is_some());
        if !known {
            self.repository()
                .deposit_sidl(sidl)
                .map_err(|e| CcaError::Framework(format!("{port_name} SIDL rejected: {e}")))?;
        }
        self.add_instance(
            instance,
            Arc::new(ReflectivePortComponent {
                component_type,
                port_name,
                port_type,
                port,
            }),
        )
    }

    /// Installs the monitoring component: deposits [`MONITOR_SIDL`] into
    /// the repository (idempotently), adds a `cca.MonitorComponent`
    /// instance named [`MONITOR_INSTANCE`] whose `"monitor"` provides port
    /// answers the [`MONITOR_PORT_TYPE`] interface via dynamic invocation,
    /// and exports that port under [`MONITOR_EXPORT_KEY`].
    ///
    /// Once the process calls [`serve_tcp_mux`](Framework::serve_tcp_mux),
    /// every method is remotely invocable, including the mutating ones:
    /// `setCounters` and `setTracing` flip process-global gates and
    /// `drainTrace` consumes the trace ring.
    ///
    /// Returns the installed skeleton for in-process callers (its `.0` is
    /// the typed [`MonitorPort`]); reflective tools reach the same object
    /// with
    /// `framework.services(MONITOR_INSTANCE)?.get_provides_port("monitor")`.
    pub fn install_monitor(
        self: &Arc<Self>,
    ) -> Result<Arc<MonitorPortSkel<MonitorPort>>, CcaError> {
        let port = Arc::new(MonitorPortSkel(MonitorPort::new(self)));
        self.install_reflective_port(
            MONITOR_INSTANCE,
            "cca.MonitorComponent",
            "monitor",
            MONITOR_PORT_TYPE,
            MONITOR_SIDL,
            port.clone(),
        )?;
        let key = self.export_port(MONITOR_INSTANCE, "monitor")?;
        debug_assert_eq!(key, MONITOR_EXPORT_KEY);
        Ok(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::MonitorPort as _;
    use cca_data::TypeMap;
    use cca_repository::Repository;
    use cca_sidl::{compile, invoke_checked, DynValue, Reflection};

    trait Echo: Send + Sync {
        fn ping(&self) -> i64;
    }
    struct E;
    impl Echo for E {
        fn ping(&self) -> i64 {
            1
        }
    }

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
    fn install_is_idempotent_in_sidl_but_not_instances() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        // Second install fails on the duplicate instance name, not on a
        // duplicate SIDL deposit.
        assert!(matches!(
            fw.install_monitor(),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
        assert!(monitor.0.instances().unwrap().contains("cca-monitor"));
    }

    #[test]
    fn monitor_reports_graph_and_metrics() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        let graph = monitor.0.connectionGraph().unwrap();
        assert!(graph.contains("\"user\":\"u0\""));
        assert!(graph.contains("\"provider\":\"p0\""));
        assert!(graph.contains("\"policy\":\"Direct\""));
        let metrics = monitor.0.metricsJson().unwrap();
        assert!(metrics.contains("\"u0\""));
        assert!(metrics.contains("\"kind\":\"uses\""));
        // Counter-gated call counting observed through the monitor.
        cca_obs::set_counters(true);
        let services = fw.services("u0").unwrap();
        let port: Arc<dyn Echo> = services.get_port_as("in").unwrap();
        assert_eq!(port.ping(), 1);
        cca_obs::set_counters(false);
        assert!(monitor.0.callCount("u0", "in").unwrap() >= 1);
        assert!(monitor.0.callCount("ghost", "in").is_err());
        assert!(monitor.0.callCount("u0", "ghost").is_err());
    }

    #[test]
    fn dynamic_invocation_against_deposited_reflection() {
        let fw = wired_framework();
        fw.install_monitor().unwrap();
        // Reach the port the way a composition tool does: reflection from
        // the SIDL text + checked dynamic invocation, no Rust types.
        let handle = fw
            .services(MONITOR_INSTANCE)
            .unwrap()
            .get_provides_port("monitor")
            .unwrap();
        let target = handle.dynamic().unwrap();
        let reflection = Reflection::from_model(&compile(MONITOR_SIDL).unwrap());
        let info = reflection.type_info(MONITOR_PORT_TYPE).unwrap();

        let r = invoke_checked(&**target, info.method("instances").unwrap(), vec![]).unwrap();
        assert!(r.as_str().unwrap().contains("\"u0\""));

        let r = invoke_checked(
            &**target,
            info.method("callCount").unwrap(),
            vec![DynValue::Str("u0".into()), DynValue::Str("in".into())],
        )
        .unwrap();
        assert!(r.as_long().unwrap() >= 0);

        // Arity/type checking comes from the deposited metadata.
        assert!(invoke_checked(&**target, info.method("callCount").unwrap(), vec![]).is_err());
        let r = invoke_checked(
            &**target,
            info.method("eventSubscriptions").unwrap(),
            vec![],
        );
        assert!(r.unwrap().as_long().unwrap() >= 0);
    }

    #[test]
    fn event_subscriptions_counts_config_listeners() {
        let fw = wired_framework();
        fw.install_monitor().unwrap();
        fw.add_listener(cca_core::event::RecordingListener::new());
        fw.add_listener(cca_core::event::RecordingListener::new());
        let target = fw
            .services(MONITOR_INSTANCE)
            .unwrap()
            .get_provides_port("monitor")
            .unwrap();
        let reflection = Reflection::from_model(&compile(MONITOR_SIDL).unwrap());
        let info = reflection.type_info(MONITOR_PORT_TYPE).unwrap();
        let r = invoke_checked(
            &**target.dynamic().unwrap(),
            info.method("eventSubscriptions").unwrap(),
            vec![],
        )
        .unwrap();
        assert!(matches!(r, DynValue::Long(2)), "{r:?}");
    }

    #[test]
    fn monitor_shows_live_breaker_state() {
        use cca_core::resilience::{BreakerPolicy, CallPolicy, MockClock};

        let fw = Framework::new(Repository::new());
        fw.add_instance("p0", Arc::new(Provider)).unwrap();
        fw.add_instance("u0", Arc::new(User)).unwrap();
        let clock = MockClock::new();
        let policy =
            CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(3, 1_000));
        fw.connect_with_call_policy("u0", "in", "p0", "out", policy)
            .unwrap();
        let monitor = fw.install_monitor().unwrap();

        let json = monitor.0.resilienceJson().unwrap();
        assert!(json.contains("\"state\":\"closed\""), "{json}");
        assert!(json.contains("\"breaker_opens\""), "{json}");

        // Trip the breaker; the monitor reflects it live.
        let breaker = fw
            .services("u0")
            .unwrap()
            .connection_breaker("in", 0)
            .unwrap()
            .unwrap();
        for _ in 0..3 {
            breaker.record_failure();
        }
        let json = monitor.0.resilienceJson().unwrap();
        assert!(json.contains("\"state\":\"open\""), "{json}");
        assert!(json.contains("\"consecutiveFailures\":3"), "{json}");

        // The reflective path reaches the same method via deposited SIDL.
        let handle = fw
            .services(MONITOR_INSTANCE)
            .unwrap()
            .get_provides_port("monitor")
            .unwrap();
        let target = handle.dynamic().unwrap();
        let reflection = Reflection::from_model(&compile(MONITOR_SIDL).unwrap());
        let info = reflection.type_info(MONITOR_PORT_TYPE).unwrap();
        let r = invoke_checked(&**target, info.method("resilienceJson").unwrap(), vec![]).unwrap();
        assert!(r.as_str().unwrap().contains("\"breakers\""));
    }

    #[test]
    fn install_exports_and_snapshots() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        // Installed and exported in one step.
        assert!(fw.orb().keys().contains(&MONITOR_EXPORT_KEY.to_string()));
        let snap = monitor.0.snapshotJson().unwrap();
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
    fn scrape_methods_reachable_through_reflection() {
        let fw = wired_framework();
        fw.install_monitor().unwrap();
        let handle = fw
            .services(MONITOR_INSTANCE)
            .unwrap()
            .get_provides_port("monitor")
            .unwrap();
        let target = handle.dynamic().unwrap();
        let reflection = Reflection::from_model(&compile(MONITOR_SIDL).unwrap());
        let info = reflection.type_info(MONITOR_PORT_TYPE).unwrap();

        let r = invoke_checked(&**target, info.method("snapshotJson").unwrap(), vec![]).unwrap();
        assert!(r.as_str().unwrap().contains("\"metrics\""));
        let r = invoke_checked(&**target, info.method("flightJson").unwrap(), vec![]).unwrap();
        assert!(r.as_str().unwrap().contains("\"incidents\""));
        let r = invoke_checked(&**target, info.method("traceJsonl").unwrap(), vec![]).unwrap();
        assert!(r.as_str().is_ok());
        // Arity checking comes from the deposited metadata.
        assert!(invoke_checked(
            &**target,
            info.method("traceJsonl").unwrap(),
            vec![DynValue::Bool(true)]
        )
        .is_err());
    }

    #[test]
    fn trace_scrape_does_not_consume_the_ring() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        monitor
            .invoke("setTracing", vec![DynValue::Bool(true)])
            .unwrap();
        cca_obs::trace_instant("scrape-me");
        let first = monitor.0.traceJsonl().unwrap();
        let second = monitor.0.traceJsonl().unwrap();
        monitor
            .invoke("setTracing", vec![DynValue::Bool(false)])
            .unwrap();
        cca_obs::drain();
        assert!(first.contains("\"scrape-me\""), "{first}");
        assert!(
            second.contains("\"scrape-me\""),
            "second scrape still sees it"
        );
    }

    #[test]
    fn monitor_does_not_keep_framework_alive() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        drop(fw);
        assert!(monitor.0.instances().is_err());
        assert!(monitor
            .0
            .framework()
            .err()
            .unwrap()
            .to_string()
            .contains("no longer exists"));
    }

    #[test]
    fn unknown_method_and_bad_args_error() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        assert!(monitor.invoke("selfDestruct", vec![]).is_err());
        assert!(monitor.invoke("setTracing", vec![]).is_err());
        assert!(monitor
            .invoke("setTracing", vec![DynValue::Long(1)])
            .is_err());
        assert!(monitor.invoke("drainTrace", vec![]).is_err());
    }

    #[test]
    fn scrape_methods_reject_bad_args() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        // The scrape methods take no arguments; the skeleton refuses any.
        for method in ["snapshotJson", "traceJsonl", "flightJson", "resilienceJson"] {
            assert!(monitor.invoke(method, vec![]).is_ok(), "{method}");
            assert!(
                monitor.invoke(method, vec![DynValue::Bool(true)]).is_err(),
                "{method} with an argument"
            );
        }
        assert!(monitor
            .invoke("drainTrace", vec![DynValue::Long(1)])
            .is_err());
        assert!(monitor
            .invoke(
                "setTracing",
                vec![DynValue::Bool(true), DynValue::Bool(true)]
            )
            .is_err());
    }
}

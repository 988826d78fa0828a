//! The reference framework: instances, services, builder API.

use crate::connect::{ConnectionInfo, ConnectionPolicy};
use cca_core::component::GO_PORT_TYPE;
use cca_core::event::SharedListener;
use cca_core::{CcaError, CcaServices, Component, ConfigEvent, GoPort};
use cca_repository::Repository;
use cca_rpc::Orb;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

/// One live component instance.
#[derive(Clone)]
pub(crate) struct Instance {
    pub(crate) class: String,
    pub(crate) component: Arc<dyn Component>,
    pub(crate) services: Arc<CcaServices>,
}

/// The CCA-compliant reference framework.
///
/// Holds the component instances of one "scenario" (application assembly),
/// their services handles, the connection table, the builder-event
/// listeners, and an embedded ORB used for proxied connections.
pub struct Framework {
    repository: Arc<Repository>,
    pub(crate) orb: Arc<Orb>,
    pub(crate) instances: RwLock<BTreeMap<String, Instance>>,
    pub(crate) connections: RwLock<Vec<ConnectionInfo>>,
    listeners: RwLock<Vec<SharedListener>>,
    pub(crate) default_policy: ConnectionPolicy,
    /// Compliance flavors this framework offers (§4: "the CCA standard
    /// will allow different flavors of compliance; each component will
    /// specify a minimum flavor of compliance required of a framework").
    flavors: Vec<String>,
    /// Self-reference so `&self` methods can hand long-lived callbacks
    /// (breaker observers) a way back to `emit` without keeping the
    /// framework alive.
    pub(crate) myself: Weak<Framework>,
}

impl Framework {
    /// Creates a framework over a repository with direct connections by
    /// default (the high-performance configuration).
    pub fn new(repository: Arc<Repository>) -> Arc<Self> {
        Self::with_policy(repository, ConnectionPolicy::Direct)
    }

    /// Creates a framework with an explicit default connection policy.
    pub fn with_policy(repository: Arc<Repository>, policy: ConnectionPolicy) -> Arc<Self> {
        // Honor CCA_TRACE / CCA_METRICS so observability can be switched on
        // for any framework-hosted run without code changes.
        cca_obs::init_from_env();
        Arc::new_cyclic(|myself| Framework {
            repository,
            orb: Orb::new(),
            instances: RwLock::new(BTreeMap::new()),
            connections: RwLock::new(Vec::new()),
            listeners: RwLock::new(Vec::new()),
            default_policy: policy,
            // The reference framework supports both interaction styles.
            flavors: vec!["in-process".to_string(), "distributed".to_string()],
            myself: Weak::clone(myself),
        })
    }

    /// The compliance flavors this framework provides.
    pub fn flavors(&self) -> &[String] {
        &self.flavors
    }

    /// The backing repository.
    pub fn repository(&self) -> &Arc<Repository> {
        &self.repository
    }

    /// The framework's embedded ORB (inspectable for tests/monitoring).
    pub fn orb(&self) -> &Arc<Orb> {
        &self.orb
    }

    /// Subscribes a builder/monitor to configuration events. Every event
    /// reaches the listeners synchronously, in the order they were added.
    pub fn add_listener(&self, listener: SharedListener) {
        self.listeners.write().push(listener);
    }

    /// Number of listeners added with [`Framework::add_listener`].
    pub(crate) fn listener_count(&self) -> usize {
        self.listeners.read().len()
    }

    pub(crate) fn emit(&self, event: ConfigEvent) {
        cca_obs::trace_instant(event.topic());
        // Listeners run on a copy of the list, outside its lock: one may
        // add a listener or cause an event of its own (DESIGN §4e).
        let listeners = self.listeners.read().clone();
        for l in &listeners {
            l.on_event(&event);
        }
    }

    /// Instantiates a component from the repository under an instance name
    /// and calls its `setServices` (the paper's component-creation
    /// service). If the repository entry declares a required compliance
    /// flavor (`properties["requiresFlavor"]`), the framework must offer
    /// it — §4's minimum-flavor check.
    pub fn create_instance(&self, name: impl Into<String>, class: &str) -> Result<(), CcaError> {
        let entry = self.repository.entry(class)?;
        let required = entry.properties.get_string("requiresFlavor", String::new());
        if !required.is_empty() && !self.flavors.iter().any(|f| f == &required) {
            return Err(CcaError::Framework(format!(
                "component '{class}' requires framework flavor '{required}', but this                  framework offers {:?}",
                self.flavors
            )));
        }
        let component = entry.factory.create();
        self.add_instance(name, component)
    }

    /// Adds an externally constructed component instance (components not
    /// registered in the repository, e.g. ad-hoc test drivers).
    pub fn add_instance(
        &self,
        name: impl Into<String>,
        component: Arc<dyn Component>,
    ) -> Result<(), CcaError> {
        let name = name.into();
        {
            let mut instances = self.instances.write();
            if instances.contains_key(&name) {
                return Err(CcaError::ComponentAlreadyExists(name));
            }
            let services = CcaServices::new(name.clone());
            component.set_services(Arc::clone(&services))?;
            instances.insert(
                name.clone(),
                Instance {
                    class: component.component_type().to_string(),
                    component,
                    services,
                },
            );
        }
        let class = self.instances.read()[&name].class.clone();
        self.emit(ConfigEvent::ComponentAdded {
            instance: name,
            component_type: class,
        });
        Ok(())
    }

    /// Removes an instance: breaks all its connections, calls `release`,
    /// and notifies listeners.
    pub fn destroy_instance(&self, name: &str) -> Result<(), CcaError> {
        // Break connections involving the instance first.
        let involving: Vec<ConnectionInfo> = self
            .connections
            .read()
            .iter()
            .filter(|c| c.user == name || c.provider == name)
            .cloned()
            .collect();
        for c in involving {
            self.disconnect(&c.user, &c.uses_port, &c.provider)?;
        }
        let instance = self
            .instances
            .write()
            .remove(name)
            .ok_or_else(|| CcaError::ComponentNotFound(name.to_string()))?;
        instance.component.release();
        self.emit(ConfigEvent::ComponentRemoved {
            instance: name.to_string(),
        });
        Ok(())
    }

    /// The services handle of an instance (framework/builder-side access).
    pub fn services(&self, name: &str) -> Result<Arc<CcaServices>, CcaError> {
        self.instances
            .read()
            .get(name)
            .map(|i| Arc::clone(&i.services))
            .ok_or_else(|| CcaError::ComponentNotFound(name.to_string()))
    }

    /// The component object of an instance.
    pub fn component(&self, name: &str) -> Result<Arc<dyn Component>, CcaError> {
        self.instances
            .read()
            .get(name)
            .map(|i| Arc::clone(&i.component))
            .ok_or_else(|| CcaError::ComponentNotFound(name.to_string()))
    }

    /// Instance names in sorted order.
    pub fn instance_names(&self) -> Vec<String> {
        self.instances.read().keys().cloned().collect()
    }

    /// The SIDL class of an instance.
    pub fn class_of(&self, name: &str) -> Result<String, CcaError> {
        self.instances
            .read()
            .get(name)
            .map(|i| i.class.clone())
            .ok_or_else(|| CcaError::ComponentNotFound(name.to_string()))
    }

    /// Reports a component failure to all listeners (the Configuration
    /// API's "notifying a builder of a component failure").
    fn report_failure(&self, instance: &str, reason: impl Into<String>) {
        self.emit(ConfigEvent::ComponentFailed {
            instance: instance.to_string(),
            reason: reason.into(),
        });
    }

    /// Finds the named instance's `GoPort` provides port and runs it —
    /// how a builder launches the assembled application.
    pub fn run_go(&self, instance: &str, port_name: &str) -> Result<(), CcaError> {
        let services = self.services(instance)?;
        let handle = services.get_provides_port(port_name)?;
        if handle.port_type() != GO_PORT_TYPE {
            return Err(CcaError::IncompatiblePorts {
                uses_type: GO_PORT_TYPE.to_string(),
                provides_type: handle.port_type().to_string(),
            });
        }
        let go: Arc<dyn GoPort> = handle.typed()?;
        match go.go() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.report_failure(instance, e.to_string());
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_core::event::RecordingListener;
    use cca_core::PortHandle;
    use cca_data::TypeMap;
    use cca_repository::{ComponentEntry, PortSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(crate) struct Echo {
        pub calls: AtomicUsize,
    }

    pub(crate) trait EchoPort: Send + Sync {
        fn ping(&self) -> usize;
    }

    impl EchoPort for Echo {
        fn ping(&self) -> usize {
            self.calls.fetch_add(1, Ordering::SeqCst) + 1
        }
    }

    #[test]
    fn echo_port_counts() {
        let e = Echo {
            calls: AtomicUsize::new(0),
        };
        assert_eq!(e.ping(), 1);
        assert_eq!(e.ping(), 2);
    }

    impl Component for Echo {
        fn component_type(&self) -> &str {
            "demo.Echo"
        }
        fn set_services(&self, _services: Arc<CcaServices>) -> Result<(), CcaError> {
            Ok(())
        }
    }

    fn repo_with_echo() -> Arc<Repository> {
        let repo = Repository::new();
        repo.register_component(ComponentEntry {
            class: "demo.Echo".into(),
            description: "echo".into(),
            provides: vec![PortSpec::new("echo", "demo.EchoPort")],
            uses: vec![],
            properties: TypeMap::new(),
            factory: Arc::new(|| {
                Arc::new(Echo {
                    calls: AtomicUsize::new(0),
                }) as Arc<dyn Component>
            }),
        })
        .unwrap();
        repo
    }

    #[test]
    fn create_and_destroy_emit_events() {
        let fw = Framework::new(repo_with_echo());
        let rec = RecordingListener::new();
        fw.add_listener(rec.clone());
        fw.create_instance("echo0", "demo.Echo").unwrap();
        assert_eq!(fw.instance_names(), vec!["echo0"]);
        assert_eq!(fw.class_of("echo0").unwrap(), "demo.Echo");
        fw.destroy_instance("echo0").unwrap();
        assert!(fw.instance_names().is_empty());
        let events = rec.events();
        assert!(matches!(events[0], ConfigEvent::ComponentAdded { .. }));
        assert!(matches!(events[1], ConfigEvent::ComponentRemoved { .. }));
    }

    #[test]
    fn duplicate_instance_names_rejected() {
        let fw = Framework::new(repo_with_echo());
        fw.create_instance("e", "demo.Echo").unwrap();
        assert!(matches!(
            fw.create_instance("e", "demo.Echo"),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
    }

    #[test]
    fn unknown_class_and_instance_errors() {
        let fw = Framework::new(repo_with_echo());
        assert!(fw.create_instance("x", "demo.Missing").is_err());
        assert!(fw.services("ghost").is_err());
        assert!(fw.destroy_instance("ghost").is_err());
        assert!(fw.class_of("ghost").is_err());
    }

    /// Subscribes a recorder to its framework the first time it hears an
    /// event.
    struct Subscriber {
        fw: Weak<Framework>,
        added: parking_lot::Mutex<Option<Arc<RecordingListener>>>,
    }

    impl cca_core::event::ConfigListener for Subscriber {
        fn on_event(&self, _: &ConfigEvent) {
            let mut added = self.added.lock();
            if added.is_none() {
                let rec = RecordingListener::new();
                if let Some(fw) = self.fw.upgrade() {
                    fw.add_listener(rec.clone());
                }
                *added = Some(rec);
            }
        }
    }

    /// Listeners run outside the framework's listener lock, so one may
    /// subscribe another; the new one hears the next event, not this one.
    #[test]
    fn a_listener_may_add_a_listener() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let fw = Framework::new(repo_with_echo());
            let sub = Arc::new(Subscriber {
                fw: Arc::downgrade(&fw),
                added: parking_lot::Mutex::new(None),
            });
            fw.add_listener(sub.clone());
            fw.report_failure("a", "first");
            fw.report_failure("b", "second");
            let rec = sub.added.lock().clone();
            let _ = tx.send(rec.map(|rec| rec.events().len()));
        });
        let heard = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("an event whose listener adds a listener did not return within 5 s");
        assert_eq!(heard, Some(1));
    }

    #[test]
    fn failure_reporting_reaches_listeners() {
        let fw = Framework::new(repo_with_echo());
        let rec = RecordingListener::new();
        fw.add_listener(rec.clone());
        fw.report_failure("mesh0", "out of memory");
        assert!(matches!(
            rec.events()[0],
            ConfigEvent::ComponentFailed { .. }
        ));
    }

    #[test]
    fn run_go_drives_a_go_port() {
        use cca_core::component::GO_PORT_TYPE;
        struct Driver {
            ran: AtomicUsize,
        }
        impl Component for Driver {
            fn component_type(&self) -> &str {
                "demo.Driver"
            }
            fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
                Ok(())
            }
        }
        impl GoPort for Driver {
            fn go(&self) -> Result<(), CcaError> {
                self.ran.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        let fw = Framework::new(Repository::new());
        let driver = Arc::new(Driver {
            ran: AtomicUsize::new(0),
        });
        fw.add_instance("driver0", driver.clone()).unwrap();
        let go: Arc<dyn GoPort> = driver.clone();
        fw.services("driver0")
            .unwrap()
            .add_provides_port(PortHandle::new("go", GO_PORT_TYPE, go))
            .unwrap();
        fw.run_go("driver0", "go").unwrap();
        assert_eq!(driver.ran.load(Ordering::SeqCst), 1);
        // Wrong port type is rejected.
        let echo: Arc<dyn EchoPort> = Arc::new(Echo {
            calls: AtomicUsize::new(0),
        });
        fw.services("driver0")
            .unwrap()
            .add_provides_port(PortHandle::new("not_go", "demo.EchoPort", echo))
            .unwrap();
        assert!(fw.run_go("driver0", "not_go").is_err());
    }

    #[test]
    fn failing_go_reports_failure() {
        use cca_core::component::GO_PORT_TYPE;
        struct Bad;
        impl Component for Bad {
            fn component_type(&self) -> &str {
                "demo.Bad"
            }
            fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
                Ok(())
            }
        }
        impl GoPort for Bad {
            fn go(&self) -> Result<(), CcaError> {
                Err(CcaError::Framework("simulated crash".into()))
            }
        }
        let fw = Framework::new(Repository::new());
        let rec = RecordingListener::new();
        fw.add_listener(rec.clone());
        let bad = Arc::new(Bad);
        fw.add_instance("bad0", bad.clone()).unwrap();
        let go: Arc<dyn GoPort> = bad;
        fw.services("bad0")
            .unwrap()
            .add_provides_port(PortHandle::new("go", GO_PORT_TYPE, go))
            .unwrap();
        assert!(fw.run_go("bad0", "go").is_err());
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, ConfigEvent::ComponentFailed { .. })));
    }
}

#[cfg(test)]
mod flavor_tests {
    use super::*;
    use cca_data::TypeMap;
    use cca_repository::ComponentEntry;

    struct Nop;
    impl Component for Nop {
        fn component_type(&self) -> &str {
            "t.Nop"
        }
        fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
            Ok(())
        }
    }

    fn entry(class: &str, flavor: Option<&str>) -> ComponentEntry {
        let mut properties = TypeMap::new();
        if let Some(f) = flavor {
            properties.put_string("requiresFlavor", f.into());
        }
        ComponentEntry {
            class: class.into(),
            description: String::new(),
            provides: vec![],
            uses: vec![],
            properties,
            factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
        }
    }

    #[test]
    fn satisfied_flavor_requirements_instantiate() {
        let repo = Repository::new();
        repo.register_component(entry("t.Any", None)).unwrap();
        repo.register_component(entry("t.Local", Some("in-process")))
            .unwrap();
        repo.register_component(entry("t.Remote", Some("distributed")))
            .unwrap();
        let fw = Framework::new(repo);
        assert_eq!(fw.flavors(), ["in-process", "distributed"]);
        fw.create_instance("a", "t.Any").unwrap();
        fw.create_instance("l", "t.Local").unwrap();
        fw.create_instance("r", "t.Remote").unwrap();
    }

    #[test]
    fn unsupported_flavor_is_refused() {
        let repo = Repository::new();
        repo.register_component(entry("t.Gpu", Some("gpu-offload")))
            .unwrap();
        let fw = Framework::new(repo);
        let err = fw.create_instance("g", "t.Gpu").unwrap_err();
        assert!(err.to_string().contains("gpu-offload"), "{err}");
        assert!(fw.instance_names().is_empty());
    }
}

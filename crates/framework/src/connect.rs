//! Connection machinery: type checking, direct vs proxied hand-off,
//! disconnection and redirection.
//!
//! Figure 3's step (2): "At the framework's option, either the interface or
//! a proxy for the interface can be given to Component 2 through its
//! CCAServices handle." The option is [`ConnectionPolicy`]; components on
//! both ends are oblivious to the choice.

use crate::framework::Framework;
use cca_core::resilience::{BreakerObserver, BreakerState, CallPolicy, Clock};
use cca_core::{CcaError, ConfigEvent, PortHandle};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{
    DeadlineTransport, LoopbackTransport, MuxServer, MuxTransport, ObjRef, RemotePortProxy,
    Transport,
};
use cca_sidl::DynObject;
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How the framework realizes a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnectionPolicy {
    /// Hand the provider's own object across (§6.2 direct connect): a call
    /// is one virtual dispatch, "no penalty for using the provides/uses
    /// component connection mechanism".
    #[default]
    Direct,
    /// Interpose the framework ORB: the uses side receives a proxy whose
    /// every call is marshaled through `cca-rpc`. This is what a real
    /// framework does when the two components live in different address
    /// spaces; here it also serves as the measurable baseline (E3).
    Proxied,
}

/// Which client a remote connection rides on. There is one socket
/// transport, so `Mux` is the only variant. This enum and
/// [`Framework::connect_remote_with`] remain only because the end-to-end
/// benchmark (`benchmark/src/workloads/hydro.rs`) names them; once it
/// calls [`Framework::connect_remote`], both can go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemoteTransportKind {
    /// The multiplexed transport (`cca_rpc::MuxTransport`): concurrent
    /// calls pipeline over a small fixed connection set, with replies
    /// routed by frame request id.
    #[default]
    Mux,
}

/// A record of one live connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionInfo {
    /// Using component instance.
    pub user: String,
    /// Uses port name on the user.
    pub uses_port: String,
    /// Providing component instance.
    pub provider: String,
    /// Provides port name on the provider.
    pub provides_port: String,
    /// The SIDL type carried.
    pub port_type: String,
    /// How the connection was realized.
    pub policy: ConnectionPolicy,
}

/// Watches one connection's circuit breaker and republishes its state
/// transitions as configuration events, so builders and monitors see
/// quarantine/recovery exactly like connect/disconnect.
struct QuarantineObserver {
    framework: Weak<Framework>,
    user: String,
    uses_port: String,
    provider: String,
}

impl BreakerObserver for QuarantineObserver {
    fn on_transition(&self, _from: BreakerState, to: BreakerState, consecutive_failures: u64) {
        let Some(fw) = self.framework.upgrade() else {
            return;
        };
        match to {
            BreakerState::Open => {
                // A quarantine is the incident the flight recorder exists
                // for: capture the trailing trace ring before anyone asks.
                if cca_obs::flight::enabled() {
                    cca_obs::flight::record_incident(
                        "ProviderQuarantined",
                        &format!(
                            "{}.{} -> {} after {consecutive_failures} consecutive failures",
                            self.user, self.uses_port, self.provider
                        ),
                    );
                }
                fw.emit(ConfigEvent::ProviderQuarantined {
                    user: self.user.clone(),
                    uses_port: self.uses_port.clone(),
                    provider: self.provider.clone(),
                    consecutive_failures,
                })
            }
            BreakerState::Closed => fw.emit(ConfigEvent::ProviderRecovered {
                user: self.user.clone(),
                uses_port: self.uses_port.clone(),
                provider: self.provider.clone(),
            }),
            // Half-open is an internal probing state, not a configuration
            // change; monitors read it live via `breaker_states`.
            BreakerState::HalfOpen => {}
        }
    }
}

impl Framework {
    /// Connects `user.uses_port` to `provider.provides_port` with the
    /// framework's default policy.
    pub fn connect(
        &self,
        user: &str,
        uses_port: &str,
        provider: &str,
        provides_port: &str,
    ) -> Result<(), CcaError> {
        self.connect_with(
            user,
            uses_port,
            provider,
            provides_port,
            self.default_policy,
        )
    }

    /// Connects with an explicit policy.
    pub fn connect_with(
        &self,
        user: &str,
        uses_port: &str,
        provider: &str,
        provides_port: &str,
        policy: ConnectionPolicy,
    ) -> Result<(), CcaError> {
        let _span = cca_obs::span("framework.connect");
        let user_services = self.services(user)?;
        let provider_services = self.services(provider)?;
        let uses_type = user_services.uses_port_type(uses_port)?;
        let handle = provider_services.get_provides_port(provides_port)?;
        let provides_type = handle.port_type().to_string();

        // Port compatibility = object-oriented type compatibility (§6).
        let compatible = if provides_type == uses_type {
            true
        } else {
            self.repository().is_subtype_of(&provides_type, &uses_type)
        };
        if !compatible {
            return Err(CcaError::IncompatiblePorts {
                uses_type,
                provides_type,
            });
        }

        let provider_metrics = Arc::clone(handle.metrics());
        // A call policy on the uses slot shapes how the connection is
        // delivered: deadlines wrap the proxy transport, and a breaker
        // policy attaches a per-connection circuit breaker whose state
        // transitions are published as configuration events.
        let slot_policy = user_services.call_policy(uses_port)?;
        let deadline = slot_policy
            .as_ref()
            .and_then(|p| p.deadline_ns().map(|d| (d, Arc::clone(p.clock()))));
        let mut delivered = match policy {
            ConnectionPolicy::Direct => handle,
            ConnectionPolicy::Proxied => {
                self.proxy_handle(provider, provides_port, &handle, deadline)?
            }
        };
        if let Some(breaker) = slot_policy.as_ref().and_then(|p| p.new_breaker()) {
            breaker.set_observer(Arc::new(QuarantineObserver {
                framework: Weak::clone(&self.myself),
                user: user.to_string(),
                uses_port: uses_port.to_string(),
                provider: provider.to_string(),
            }));
            delivered = delivered.with_breaker(Arc::new(breaker));
        }
        user_services.connect_uses(uses_port, delivered)?;
        let provider_fan_out = {
            let mut connections = self.connections.write();
            connections.push(ConnectionInfo {
                user: user.to_string(),
                uses_port: uses_port.to_string(),
                provider: provider.to_string(),
                provides_port: provides_port.to_string(),
                port_type: provides_type.clone(),
                policy,
            });
            connections
                .iter()
                .filter(|c| c.provider == provider && c.provides_port == provides_port)
                .count() as u64
        };
        // Provider-side view: how many uses slots this provides port now
        // feeds (the uses slot records its own side in `connect_uses`).
        provider_metrics.record_connect(provider_fan_out);
        self.emit(ConfigEvent::Connected {
            user: user.to_string(),
            uses_port: uses_port.to_string(),
            provider: provider.to_string(),
            provides_port: provides_port.to_string(),
            port_type: provides_type,
        });
        Ok(())
    }

    /// Builds the proxied version of a provides port: the provider's
    /// dynamic facade is registered with the framework ORB and the user
    /// receives a handle whose object *is* the proxy. When the uses slot's
    /// call policy carries a deadline, every ORB round trip is bounded by
    /// it — a wedged transport surfaces as `DeadlineExceeded`, not a hang.
    fn proxy_handle(
        &self,
        provider: &str,
        provides_port: &str,
        handle: &PortHandle,
        deadline: Option<(u64, Arc<dyn Clock>)>,
    ) -> Result<PortHandle, CcaError> {
        let servant = handle.dynamic().cloned().ok_or_else(|| {
            CcaError::Framework(format!(
                "provides port '{provides_port}' of '{provider}' has no dynamic facade; \
                 proxied connections need one (attach the SIDL skeleton with \
                 PortHandle::with_dynamic)"
            ))
        })?;
        let key = format!("{provider}/{provides_port}");
        self.orb.register(key.clone(), servant);
        let mut transport: Arc<dyn Transport> = LoopbackTransport::new(Arc::clone(&self.orb) as _);
        if let Some((deadline_ns, clock)) = deadline {
            transport = DeadlineTransport::new(transport, deadline_ns, clock);
        }
        let proxy = RemotePortProxy::new(handle.port_type(), ObjRef::new(key, transport));
        let dyn_proxy: Arc<dyn DynObject> = proxy;
        Ok(PortHandle::new(
            handle.port_name(),
            handle.port_type(),
            Arc::clone(&dyn_proxy),
        )
        .with_dynamic(dyn_proxy)
        .with_properties(handle.properties().clone()))
    }

    /// Breaks the connection between `user.uses_port` and `provider`.
    pub fn disconnect(&self, user: &str, uses_port: &str, provider: &str) -> Result<(), CcaError> {
        let _span = cca_obs::span("framework.disconnect");
        let mut connections = self.connections.write();
        // Position among this uses-port's connections = index in the slot.
        let mut slot_index = 0usize;
        let mut found = None;
        for (i, c) in connections.iter().enumerate() {
            if c.user == user && c.uses_port == uses_port {
                if c.provider == provider {
                    found = Some((i, slot_index));
                    break;
                }
                slot_index += 1;
            }
        }
        let (vec_index, slot_index) = found.ok_or_else(|| {
            CcaError::PortNotConnected(format!("{user}.{uses_port} -> {provider}"))
        })?;
        self.services(user)?
            .disconnect_uses(uses_port, slot_index)?;
        let removed = connections.remove(vec_index);
        let provider_fan_out = connections
            .iter()
            .filter(|c| c.provider == provider && c.provides_port == removed.provides_port)
            .count() as u64;
        drop(connections);
        // Best-effort provider-side bookkeeping: the provides port may have
        // been removed (or the whole instance destroyed) already.
        if let Ok(services) = self.services(provider) {
            if let Ok(handle) = services.get_provides_port(&removed.provides_port) {
                handle.metrics().record_disconnect(1, provider_fan_out);
            }
        }
        self.emit(ConfigEvent::Disconnected {
            user: user.to_string(),
            uses_port: uses_port.to_string(),
            provider: provider.to_string(),
        });
        Ok(())
    }

    /// Atomically swaps the provider behind a uses port — the Configuration
    /// API's "redirecting interactions between components". The new
    /// connection takes the old one's position, preserving fan-out order.
    pub fn redirect(
        &self,
        user: &str,
        uses_port: &str,
        old_provider: &str,
        new_provider: &str,
        new_provides_port: &str,
    ) -> Result<(), CcaError> {
        self.disconnect(user, uses_port, old_provider)?;
        self.connect(user, uses_port, new_provider, new_provides_port)?;
        self.emit(ConfigEvent::Redirected {
            user: user.to_string(),
            uses_port: uses_port.to_string(),
            old_provider: old_provider.to_string(),
            new_provider: new_provider.to_string(),
        });
        Ok(())
    }

    /// A snapshot of all live connections.
    pub fn connections(&self) -> Vec<ConnectionInfo> {
        self.connections.read().clone()
    }

    /// Installs `policy` on `user.uses_port` and then connects it to
    /// `provider.provides_port` — the one-call way to make a resilient
    /// connection. The policy governs this and every later connection of
    /// the slot (each gets its own breaker; retry/deadline are per-call).
    pub fn connect_with_call_policy(
        &self,
        user: &str,
        uses_port: &str,
        provider: &str,
        provides_port: &str,
        call_policy: CallPolicy,
    ) -> Result<(), CcaError> {
        self.services(user)?
            .set_call_policy(uses_port, Arc::new(call_policy))?;
        self.connect(user, uses_port, provider, provides_port)
    }

    /// Live breaker state per connection: `None` for connections without a
    /// call policy, otherwise `(state, consecutive_failures)`. The slot
    /// index of each connection is its position among that uses port's
    /// connections (the same ordering `disconnect` uses).
    pub fn breaker_states(&self) -> Vec<(ConnectionInfo, Option<(BreakerState, u64)>)> {
        let connections = self.connections.read().clone();
        let mut slot_counters: BTreeMap<(String, String), usize> = BTreeMap::new();
        connections
            .into_iter()
            .map(|c| {
                let slot_key = (c.user.clone(), c.uses_port.clone());
                let index = *slot_counters
                    .entry(slot_key)
                    .and_modify(|i| *i += 1)
                    .or_insert(0);
                let state = self
                    .services(&c.user)
                    .ok()
                    .and_then(|s| s.connection_breaker(&c.uses_port, index).ok().flatten())
                    .map(|b| (b.state(), b.consecutive_failures()));
                (c, state)
            })
            .collect()
    }

    // -- remote connections -------------------------------------------------

    /// Publishes a provides port for remote callers: registers the port's
    /// dynamic facade with the framework ORB under the key
    /// `"{provider}/{provides_port}"` and returns that key. Pair with
    /// [`serve_tcp_mux`](Self::serve_tcp_mux) to put the ORB on the
    /// network; a remote framework then reaches the port via
    /// [`connect_remote`](Self::connect_remote) with the returned key.
    pub fn export_port(&self, provider: &str, provides_port: &str) -> Result<String, CcaError> {
        let handle = self.services(provider)?.get_provides_port(provides_port)?;
        let servant = handle.dynamic().cloned().ok_or_else(|| {
            CcaError::Framework(format!(
                "provides port '{provides_port}' of '{provider}' has no dynamic facade; \
                 remote export needs one (attach the SIDL skeleton with \
                 PortHandle::with_dynamic)"
            ))
        })?;
        let key = format!("{provider}/{provides_port}");
        self.orb.register(key.clone(), servant);
        Ok(key)
    }

    /// Serves this framework's ORB over TCP: every port already exported
    /// (via [`export_port`](Self::export_port) or a proxied connection)
    /// becomes remotely invocable, dispatched from an event-driven
    /// [`MuxServer`] whose thread budget does not grow with the number of
    /// peers. Bind to `"127.0.0.1:0"` for an ephemeral port and read the
    /// real one off the returned server. A remote framework reaches it
    /// with [`connect_remote`](Self::connect_remote).
    pub fn serve_tcp_mux(&self, addr: &str) -> Result<Arc<MuxServer>, CcaError> {
        MuxServer::bind(addr, Arc::clone(&self.orb) as Arc<dyn Dispatcher>)
            .map_err(|e| CcaError::Framework(format!("serve tcp+mux://{addr}: {e}")))
    }

    /// Connects `user.uses_port` to a port exported by a *remote*
    /// framework: `addr` is the remote [`serve_tcp_mux`](Self::serve_tcp_mux)
    /// address and `remote_key` the key its `export_port` returned. The
    /// user receives an ordinary [`PortHandle`] whose dynamic facade
    /// marshals every call over a [`MuxTransport`] — the same shape as a
    /// local proxied connection, so the component cannot tell (§6.2). The
    /// slot's calls, from however many threads, pipeline over the
    /// transport's few sockets.
    ///
    /// The uses slot's [`CallPolicy`] applies unchanged: a deadline both
    /// bounds each round trip on the policy clock *and* becomes the
    /// transport's per-call wait budget, and a breaker policy attaches a
    /// circuit breaker that quarantines the remote provider on
    /// `cca.rpc.ConnectionFailure` exactly like a wedged local one. The
    /// connection record and its configuration events are labelled
    /// `tcp+mux://{addr}/{remote_key}`.
    ///
    /// Trust edge: the remote port's type cannot be checked against the
    /// local repository without a network round trip, so the uses slot's
    /// declared type is taken at face value — a mismatch surfaces at call
    /// time as a remote dispatch error, not at connect time.
    ///
    /// Incarnation audit: the `tcp+mux://{addr}/{remote_key}`
    /// label names an *address*, not a process. If the provider behind
    /// it is a supervised fleet child, the label outlives any one
    /// incarnation: a restarted rank gets the same address back, and a
    /// label recorded while incarnation *k* was alive must never satisfy
    /// a lookup after *k* died. This layer cannot tell incarnations
    /// apart (the socket reconnects transparently), so fleet-routed
    /// lookups go through
    /// [`FleetHub::resolve_provider`](crate::fleet::FleetHub::resolve_provider),
    /// which records `(rank, incarnation)` at every `Join` handshake and
    /// refuses entries whose registering incarnation is dead or
    /// superseded. Non-fleet remotes keep the existing behaviour: a dead
    /// peer trips the breaker to `Open` via `cca.rpc.ConnectionFailure`,
    /// so stale addresses quarantine rather than resolve.
    pub fn connect_remote(
        &self,
        user: &str,
        uses_port: &str,
        addr: &str,
        remote_key: &str,
    ) -> Result<(), CcaError> {
        let _span = cca_obs::span("framework.connect_remote");
        let user_services = self.services(user)?;
        let uses_type = user_services.uses_port_type(uses_port)?;
        let slot_policy = user_services.call_policy(uses_port)?;
        let deadline = slot_policy
            .as_ref()
            .and_then(|p| p.deadline_ns().map(|d| (d, Arc::clone(p.clock()))));

        let mut mux = MuxTransport::new(addr);
        if let Some((deadline_ns, _)) = &deadline {
            mux = mux.with_io_timeout(Duration::from_nanos(*deadline_ns));
        }
        let mut transport: Arc<dyn Transport> = Arc::new(mux);
        let provider_label = format!("tcp+mux://{addr}/{remote_key}");
        if let Some((deadline_ns, clock)) = deadline {
            transport = DeadlineTransport::new(transport, deadline_ns, clock);
        }
        let proxy = RemotePortProxy::new(&uses_type, ObjRef::new(remote_key, transport));
        let dyn_proxy: Arc<dyn DynObject> = proxy;
        let mut delivered = PortHandle::new(remote_key, uses_type.as_str(), Arc::clone(&dyn_proxy))
            .with_dynamic(dyn_proxy);
        if let Some(breaker) = slot_policy.as_ref().and_then(|p| p.new_breaker()) {
            breaker.set_observer(Arc::new(QuarantineObserver {
                framework: Weak::clone(&self.myself),
                user: user.to_string(),
                uses_port: uses_port.to_string(),
                provider: provider_label.clone(),
            }));
            delivered = delivered.with_breaker(Arc::new(breaker));
        }
        user_services.connect_uses(uses_port, delivered)?;
        self.connections.write().push(ConnectionInfo {
            user: user.to_string(),
            uses_port: uses_port.to_string(),
            provider: provider_label.clone(),
            provides_port: remote_key.to_string(),
            port_type: uses_type.clone(),
            policy: ConnectionPolicy::Proxied,
        });
        self.emit(ConfigEvent::Connected {
            user: user.to_string(),
            uses_port: uses_port.to_string(),
            provider: provider_label,
            provides_port: remote_key.to_string(),
            port_type: uses_type,
        });
        Ok(())
    }

    /// [`connect_remote`](Self::connect_remote), naming the transport.
    /// `Mux` is the only kind, so this forwards; see
    /// [`RemoteTransportKind`] for why it remains.
    pub fn connect_remote_with(
        &self,
        user: &str,
        uses_port: &str,
        addr: &str,
        remote_key: &str,
        _kind: RemoteTransportKind,
    ) -> Result<(), CcaError> {
        self.connect_remote(user, uses_port, addr, remote_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_core::event::RecordingListener;
    use cca_core::{CcaServices, Component};
    use cca_data::TypeMap;
    use cca_repository::Repository;
    use cca_sidl::{DynValue, SidlError};
    use std::sync::atomic::{AtomicUsize, Ordering};

    // A provider component exposing a typed port plus a dynamic facade.
    trait CounterPort: Send + Sync {
        fn bump(&self) -> usize;
    }

    struct Counter {
        count: AtomicUsize,
        label: String,
    }

    impl CounterPort for Counter {
        fn bump(&self) -> usize {
            self.count.fetch_add(1, Ordering::SeqCst) + 1
        }
    }

    impl DynObject for Counter {
        fn sidl_type(&self) -> &str {
            "demo.CounterPort"
        }
        fn invoke(&self, method: &str, _args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "bump" => Ok(DynValue::Long(self.bump() as i64)),
                "label" => Ok(DynValue::Str(self.label.clone())),
                other => Err(SidlError::invoke(format!("no method '{other}'"))),
            }
        }
    }

    struct Provider {
        counter: Arc<Counter>,
    }

    impl Component for Provider {
        fn component_type(&self) -> &str {
            "demo.Provider"
        }
        fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
            let typed: Arc<dyn CounterPort> = self.counter.clone();
            let dynamic: Arc<dyn DynObject> = self.counter.clone();
            services.add_provides_port(
                PortHandle::new("counter", "demo.CounterPort", typed).with_dynamic(dynamic),
            )
        }
    }

    struct User;
    impl Component for User {
        fn component_type(&self) -> &str {
            "demo.User"
        }
        fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
            services.register_uses_port("input", "demo.CounterPort", TypeMap::new())
        }
    }

    fn setup(policy: ConnectionPolicy) -> (Arc<Framework>, Arc<Counter>) {
        let fw = Framework::with_policy(Repository::new(), policy);
        let counter = Arc::new(Counter {
            count: AtomicUsize::new(0),
            label: "c0".into(),
        });
        fw.add_instance(
            "provider0",
            Arc::new(Provider {
                counter: counter.clone(),
            }),
        )
        .unwrap();
        fw.add_instance("user0", Arc::new(User)).unwrap();
        (fw, counter)
    }

    #[test]
    fn direct_connection_hands_over_the_object() {
        let (fw, counter) = setup(ConnectionPolicy::Direct);
        fw.connect("user0", "input", "provider0", "counter")
            .unwrap();
        let port: Arc<dyn CounterPort> =
            fw.services("user0").unwrap().get_port_as("input").unwrap();
        assert_eq!(port.bump(), 1);
        assert_eq!(counter.count.load(Ordering::SeqCst), 1);
        let info = &fw.connections()[0];
        assert_eq!(info.policy, ConnectionPolicy::Direct);
        assert_eq!(info.port_type, "demo.CounterPort");
    }

    #[test]
    fn proxied_connection_is_transparent_to_dynamic_callers() {
        let (fw, counter) = setup(ConnectionPolicy::Proxied);
        fw.connect("user0", "input", "provider0", "counter")
            .unwrap();
        let handle = fw.services("user0").unwrap().get_port("input").unwrap();
        // The typed fast path is unavailable through a proxy...
        assert!(handle.typed::<dyn CounterPort>().is_err());
        // ...but the dynamic port behaves identically to the local one.
        let port = handle.dynamic().unwrap();
        let r = port.invoke("bump", vec![]).unwrap();
        assert!(matches!(r, DynValue::Long(1)));
        assert_eq!(counter.count.load(Ordering::SeqCst), 1);
        // The ORB now holds the servant under provider0/counter.
        assert_eq!(fw.orb().keys(), vec!["provider0/counter".to_string()]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let fw = Framework::new(Repository::new());
        struct WrongUser;
        impl Component for WrongUser {
            fn component_type(&self) -> &str {
                "demo.WrongUser"
            }
            fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
                services.register_uses_port("input", "demo.OtherPort", TypeMap::new())
            }
        }
        let counter = Arc::new(Counter {
            count: AtomicUsize::new(0),
            label: "c".into(),
        });
        fw.add_instance("p", Arc::new(Provider { counter }))
            .unwrap();
        fw.add_instance("u", Arc::new(WrongUser)).unwrap();
        assert!(matches!(
            fw.connect("u", "input", "p", "counter"),
            Err(CcaError::IncompatiblePorts { .. })
        ));
    }

    #[test]
    fn subtype_connection_allowed_via_repository() {
        let repo = Repository::new();
        repo.deposit_sidl(
            "package demo {
                interface BasePort { void bump(); }
                class CounterPort implements-all BasePort { }
            }",
        )
        .unwrap();
        let fw = Framework::new(repo);
        struct BaseUser;
        impl Component for BaseUser {
            fn component_type(&self) -> &str {
                "demo.BaseUser"
            }
            fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
                services.register_uses_port("input", "demo.BasePort", TypeMap::new())
            }
        }
        let counter = Arc::new(Counter {
            count: AtomicUsize::new(0),
            label: "c".into(),
        });
        fw.add_instance("p", Arc::new(Provider { counter }))
            .unwrap();
        fw.add_instance("u", Arc::new(BaseUser)).unwrap();
        // demo.CounterPort is-a demo.BasePort per the deposited SIDL.
        fw.connect("u", "input", "p", "counter").unwrap();
    }

    #[test]
    fn disconnect_and_redirect() {
        let (fw, _c0) = setup(ConnectionPolicy::Direct);
        // Second provider with its own counter.
        let c1 = Arc::new(Counter {
            count: AtomicUsize::new(100),
            label: "c1".into(),
        });
        fw.add_instance(
            "provider1",
            Arc::new(Provider {
                counter: c1.clone(),
            }),
        )
        .unwrap();
        let rec = RecordingListener::new();
        fw.add_listener(rec.clone());

        fw.connect("user0", "input", "provider0", "counter")
            .unwrap();
        fw.redirect("user0", "input", "provider0", "provider1", "counter")
            .unwrap();
        let port: Arc<dyn CounterPort> =
            fw.services("user0").unwrap().get_port_as("input").unwrap();
        assert_eq!(port.bump(), 101); // c1's counter
        assert_eq!(fw.connections().len(), 1);
        assert_eq!(fw.connections()[0].provider, "provider1");
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, ConfigEvent::Redirected { .. })));

        fw.disconnect("user0", "input", "provider1").unwrap();
        assert!(fw.connections().is_empty());
        assert!(fw.services("user0").unwrap().get_port("input").is_err());
        // Disconnecting again errors.
        assert!(fw.disconnect("user0", "input", "provider1").is_err());
    }

    #[test]
    fn fan_out_connections_disconnect_by_provider() {
        let (fw, _c0) = setup(ConnectionPolicy::Direct);
        let c1 = Arc::new(Counter {
            count: AtomicUsize::new(0),
            label: "c1".into(),
        });
        fw.add_instance("provider1", Arc::new(Provider { counter: c1 }))
            .unwrap();
        fw.connect("user0", "input", "provider0", "counter")
            .unwrap();
        fw.connect("user0", "input", "provider1", "counter")
            .unwrap();
        assert_eq!(
            fw.services("user0")
                .unwrap()
                .get_ports("input")
                .unwrap()
                .len(),
            2
        );
        fw.disconnect("user0", "input", "provider0").unwrap();
        let remaining = fw.connections();
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].provider, "provider1");
    }

    #[test]
    fn destroying_instance_breaks_its_connections() {
        let (fw, _c) = setup(ConnectionPolicy::Direct);
        fw.connect("user0", "input", "provider0", "counter")
            .unwrap();
        fw.destroy_instance("provider0").unwrap();
        assert!(fw.connections().is_empty());
        assert!(fw.services("user0").unwrap().get_port("input").is_err());
    }

    #[test]
    fn quarantine_and_recovery_publish_config_events() {
        use cca_core::resilience::{BreakerPolicy, CallPolicy, MockClock};

        let (fw, _c0) = setup(ConnectionPolicy::Direct);
        let c1 = Arc::new(Counter {
            count: AtomicUsize::new(0),
            label: "c1".into(),
        });
        fw.add_instance("provider1", Arc::new(Provider { counter: c1 }))
            .unwrap();
        let rec = RecordingListener::new();
        fw.add_listener(rec.clone());

        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy {
            failure_threshold: 2,
            cooldown_ns: 1_000,
        });
        fw.connect_with_call_policy("user0", "input", "provider0", "counter", policy)
            .unwrap();
        fw.connect("user0", "input", "provider1", "counter")
            .unwrap();

        let services = fw.services("user0").unwrap();
        assert_eq!(services.get_ports("input").unwrap().len(), 2);

        // Trip provider0's breaker: two consecutive failures.
        let breaker = services.connection_breaker("input", 0).unwrap().unwrap();
        breaker.record_failure();
        breaker.record_failure();

        let quarantined = rec.events().iter().any(|e| {
            matches!(
                e,
                ConfigEvent::ProviderQuarantined { provider, consecutive_failures: 2, .. }
                    if provider == "provider0"
            )
        });
        assert!(quarantined, "breaker opening published a quarantine event");

        // Fan-out now transparently skips the quarantined provider (§6.1:
        // zero-or-more providers, so a thinner fan-out stays legal).
        assert_eq!(services.get_ports("input").unwrap().len(), 1);
        let states = fw.breaker_states();
        assert_eq!(states.len(), 2);
        assert_eq!(
            states[0].1.map(|(s, _)| s),
            Some(cca_core::resilience::BreakerState::Open)
        );

        // After the cooldown, the half-open probe succeeds and the
        // recovery is published.
        clock.advance_ns(2_000);
        assert!(breaker.admit(), "half-open grants one probe");
        breaker.record_success();
        assert!(rec.events().iter().any(|e| {
            matches!(e, ConfigEvent::ProviderRecovered { provider, .. } if provider == "provider0")
        }));
        assert_eq!(services.get_ports("input").unwrap().len(), 2);
    }

    #[test]
    fn proxied_deadline_turns_a_wedge_into_deadline_exceeded() {
        use cca_core::resilience::{CallPolicy, Clock, MockClock, DEADLINE_EXCEPTION_TYPE};

        // A servant that models a wedge by charging the simulated clock.
        struct WedgedServant {
            clock: Arc<MockClock>,
        }
        impl DynObject for WedgedServant {
            fn sidl_type(&self) -> &str {
                "demo.CounterPort"
            }
            fn invoke(&self, _m: &str, _a: Vec<DynValue>) -> Result<DynValue, SidlError> {
                self.clock.advance_ns(50_000);
                Ok(DynValue::Long(1))
            }
        }
        struct WedgedProvider {
            clock: Arc<MockClock>,
        }
        impl Component for WedgedProvider {
            fn component_type(&self) -> &str {
                "demo.WedgedProvider"
            }
            fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
                let servant = Arc::new(WedgedServant {
                    clock: self.clock.clone(),
                });
                let dynamic: Arc<dyn DynObject> = servant;
                services.add_provides_port(
                    PortHandle::new("counter", "demo.CounterPort", Arc::clone(&dynamic))
                        .with_dynamic(dynamic),
                )
            }
        }

        let fw = Framework::with_policy(Repository::new(), ConnectionPolicy::Proxied);
        let clock = MockClock::new();
        fw.add_instance(
            "wedged",
            Arc::new(WedgedProvider {
                clock: clock.clone(),
            }),
        )
        .unwrap();
        fw.add_instance("user0", Arc::new(User)).unwrap();

        let policy = CallPolicy::with_clock(clock.clone()).with_deadline_ns(1_000);
        fw.connect_with_call_policy("user0", "input", "wedged", "counter", policy)
            .unwrap();

        let handle = fw.services("user0").unwrap().get_port("input").unwrap();
        let err = handle
            .dynamic()
            .unwrap()
            .invoke("bump", vec![])
            .unwrap_err();
        match &err {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, DEADLINE_EXCEPTION_TYPE);
            }
            other => panic!("expected a deadline exception, got {other:?}"),
        }
        // The wedge charged simulated time; the caller got an error, not a
        // hang, and crossing into the port layer keeps the meaning.
        assert!(clock.now_ns() >= 50_000);
        let cca: CcaError = err.into();
        assert!(matches!(cca, CcaError::DeadlineExceeded(_)));
    }

    #[test]
    fn proxied_connection_requires_dynamic_facade() {
        let fw = Framework::with_policy(Repository::new(), ConnectionPolicy::Proxied);
        struct NoDynProvider;
        impl Component for NoDynProvider {
            fn component_type(&self) -> &str {
                "demo.NoDyn"
            }
            fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
                let typed: Arc<dyn CounterPort> = Arc::new(Counter {
                    count: AtomicUsize::new(0),
                    label: String::new(),
                });
                services.add_provides_port(PortHandle::new("counter", "demo.CounterPort", typed))
            }
        }
        fw.add_instance("p", Arc::new(NoDynProvider)).unwrap();
        fw.add_instance("u", Arc::new(User)).unwrap();
        let err = fw.connect("u", "input", "p", "counter").unwrap_err();
        assert!(err.to_string().contains("dynamic facade"));
    }
}

//! The CCA Ports model (§6.1–6.2).
//!
//! A **provides port** is an object a component exposes; a **uses port** is
//! a named slot holding connections to zero or more provides ports ("each
//! Uses port maintains a list of listeners ... one call may correspond to
//! zero or more invocations on provider components").
//!
//! [`PortHandle`] is the direct-connect representation of §6.2: it holds an
//! `Arc` to the provider's actual object, so once a component has retrieved
//! it via `getPort`, a method call "reacts as quickly as an inline
//! \[virtual\] function call" — there is no framework interposition on the
//! call path. A framework *may* instead hand out a proxy (the distributed
//! case); the component cannot tell, which is exactly the paper's design.
//!
//! Handles are deliberately cheap to copy: names, types, and properties are
//! interned behind `Arc`s, so `PortHandle::clone` is a handful of reference
//! count bumps with **zero heap allocation**. This is what lets the services
//! layer publish whole connection tables as immutable snapshots (see
//! `services`) without paying per-read allocation costs.

use crate::error::CcaError;
use crate::resilience::{CallPolicy, CircuitBreaker};
use cca_data::TypeMap;
use cca_obs::PortMetrics;
use cca_sidl::DynObject;
use std::any::Any;
use std::sync::Arc;

/// A type-erased, shareable reference to a provides-port object.
///
/// The provider registers its port as an `Arc<dyn SomePortTrait>`; the
/// handle stores that `Arc` behind `Any` so the consumer can recover
/// exactly the same trait object (`downcast::<dyn SomePortTrait>()`),
/// giving a direct virtual call into the provider — the §6.2 fast path.
/// A parallel `Arc<dyn DynObject>` facade can be attached so reflective
/// tools and remote proxies can reach the same port without compile-time
/// knowledge of the trait.
#[derive(Clone)]
pub struct PortHandle {
    port_name: Arc<str>,
    port_type: Arc<str>,
    object: Arc<dyn Any + Send + Sync>,
    dynamic: Option<Arc<dyn DynObject>>,
    properties: Arc<TypeMap>,
    /// Shared across every clone of this handle (and thus every table
    /// snapshot it appears in), so counters survive COW republication.
    metrics: Arc<PortMetrics>,
    /// Per-connection circuit breaker, attached at connect time when the
    /// uses slot carries a breaker-bearing [`CallPolicy`]. Shared by every
    /// clone, so breaker state survives COW table republication.
    breaker: Option<Arc<CircuitBreaker>>,
}

impl PortHandle {
    /// Wraps a trait-object port. `P` is typically `dyn SomePortTrait`.
    pub fn new<P: ?Sized + Send + Sync + 'static>(
        port_name: impl Into<Arc<str>>,
        port_type: impl Into<Arc<str>>,
        object: Arc<P>,
    ) -> Self {
        PortHandle {
            port_name: port_name.into(),
            port_type: port_type.into(),
            object: Arc::new(object),
            dynamic: None,
            properties: Arc::new(TypeMap::new()),
            metrics: PortMetrics::new(),
            breaker: None,
        }
    }

    /// Attaches a dynamic-invocation facade (usually the SIDL-generated
    /// skeleton wrapping the same implementation).
    pub fn with_dynamic(mut self, dynamic: Arc<dyn DynObject>) -> Self {
        self.dynamic = Some(dynamic);
        self
    }

    /// Attaches port properties.
    pub fn with_properties(mut self, properties: TypeMap) -> Self {
        self.properties = Arc::new(properties);
        self
    }

    /// Attaches a circuit breaker. The framework does this to the
    /// *delivered* handle at connect time, so the breaker guards this one
    /// connection — the provider's original handle (and its appearances in
    /// other slots) keeps its own state.
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// The port's instance name (unique within its component).
    pub fn port_name(&self) -> &str {
        &self.port_name
    }

    /// The interned instance name (shareable without copying).
    pub fn port_name_arc(&self) -> &Arc<str> {
        &self.port_name
    }

    /// The port's SIDL interface type.
    pub fn port_type(&self) -> &str {
        &self.port_type
    }

    /// Port properties.
    pub fn properties(&self) -> &TypeMap {
        &self.properties
    }

    /// Recovers the typed trait object — the direct-connect call path.
    /// `P` must be the exact `dyn Trait` (or concrete type) the provider
    /// registered. The returned `Arc` is a reference-count bump, not an
    /// allocation.
    pub fn typed<P: ?Sized + Send + Sync + 'static>(&self) -> Result<Arc<P>, CcaError> {
        self.object
            .downcast_ref::<Arc<P>>()
            .cloned()
            .ok_or_else(|| CcaError::WrongPortRust {
                port: self.port_name.to_string(),
                requested: std::any::type_name::<P>(),
            })
    }

    /// The dynamic facade, if the provider attached one.
    pub fn dynamic(&self) -> Option<&Arc<dyn DynObject>> {
        self.dynamic.as_ref()
    }

    /// This port's metrics block. Shared by every clone of the handle —
    /// whichever uses slot the handle lands in, calls observed through it
    /// accumulate here (the provider-side view of §6.1's listener lists).
    pub fn metrics(&self) -> &Arc<PortMetrics> {
        &self.metrics
    }

    /// This connection's circuit breaker, if policy attached one.
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// Whether a call through this handle may proceed right now: `true`
    /// when no breaker is attached or the breaker admits the call. One
    /// relaxed load when the breaker is closed. **At most one admission
    /// check per call attempt** — a half-open breaker hands out a single
    /// probe, and asking twice would claim it and then discard it.
    #[inline]
    pub fn admissible(&self) -> bool {
        match &self.breaker {
            None => true,
            Some(b) => b.admit(),
        }
    }

    /// Renames the handle (used by the framework when the provider's port
    /// name differs from the consumer's uses-slot name). When the name is
    /// unchanged this is a plain clone — no allocation.
    pub fn renamed(&self, port_name: impl Into<Arc<str>>) -> Self {
        let port_name = port_name.into();
        let mut h = self.clone();
        if *h.port_name != *port_name {
            h.port_name = port_name;
        }
        h
    }
}

impl std::fmt::Debug for PortHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortHandle")
            .field("port_name", &self.port_name)
            .field("port_type", &self.port_type)
            .field("dynamic", &self.dynamic.is_some())
            .finish()
    }
}

/// The registration record of a provides port (what `addProvidesPort`
/// stores) or of a uses port declaration.
#[derive(Debug, Clone)]
pub struct PortRecord {
    /// Instance name.
    pub name: String,
    /// SIDL interface type of the port.
    pub port_type: String,
    /// Registration properties.
    pub properties: TypeMap,
}

/// An empty, shared fan-out list — the zero-listener steady state costs no
/// allocation either.
fn empty_connections() -> Arc<[PortHandle]> {
    Arc::from(Vec::new())
}

/// A uses port: a declaration plus the current connection list.
///
/// §6.1: "Provides ports are generalized listeners in the sense that they
/// listen to Uses interfaces ... Each Uses port maintains a list of
/// listeners."
///
/// The connection list is stored as an immutable `Arc<[PortHandle]>`
/// snapshot: readers (`get_ports`, fan-out invocation) share the slice by
/// bumping one reference count; mutators build a fresh slice. Fan-out
/// invocation therefore performs **zero heap allocations per call**.
#[derive(Debug, Clone)]
pub struct UsesSlot {
    /// The declaration.
    pub record: PortRecord,
    connections: Arc<[PortHandle]>,
    /// Shared across snapshot clones of the slot (the `Arc` travels with
    /// every COW republication), so connection churn and call counts
    /// accumulate over the slot's whole lifetime, not one generation.
    metrics: Arc<PortMetrics>,
    /// The invocation policy for this uses port, if one was attached
    /// (retry/backoff, deadline, breaker configuration for new
    /// connections).
    policy: Option<Arc<CallPolicy>>,
}

impl UsesSlot {
    /// Creates an empty slot.
    pub fn new(record: PortRecord) -> Self {
        UsesSlot {
            record,
            connections: empty_connections(),
            metrics: PortMetrics::new(),
            policy: None,
        }
    }

    /// Attaches (or replaces) the slot's invocation policy. Affects
    /// connections made *afterwards*: each gets a fresh breaker when the
    /// policy configures one. Existing connections keep their breakers.
    pub fn set_policy(&mut self, policy: Arc<CallPolicy>) {
        self.policy = Some(policy);
    }

    /// The slot's invocation policy, if any.
    pub fn policy(&self) -> Option<&Arc<CallPolicy>> {
        self.policy.as_ref()
    }

    /// The shared fan-out list snapshot.
    pub fn connections(&self) -> &Arc<[PortHandle]> {
        &self.connections
    }

    /// This slot's metrics block (call counts, churn, fan-out width).
    pub fn metrics(&self) -> &Arc<PortMetrics> {
        &self.metrics
    }

    /// Appends a connection (copy-on-write: builds a new shared slice).
    ///
    /// Connection-shape metrics are recorded unconditionally: mutations
    /// are rare (they already rebuild the table snapshot) so they are not
    /// behind the per-call counter gate.
    pub fn push_connection(&mut self, handle: PortHandle) {
        // If the slot's policy wants per-provider breakers and the caller
        // (framework) didn't pre-attach an observer-wired one, give the
        // connection a plain breaker so quarantine works even for bare
        // `CcaServices` users with no framework in the loop.
        let handle = match (&self.policy, handle.breaker()) {
            (Some(policy), None) => match policy.new_breaker() {
                Some(b) => handle.with_breaker(Arc::new(b)),
                None => handle,
            },
            _ => handle,
        };
        let mut v: Vec<PortHandle> = self.connections.to_vec();
        v.push(handle);
        self.connections = Arc::from(v);
        self.metrics.record_connect(self.connections.len() as u64);
    }

    /// Removes the connection at `index` (copy-on-write), returning it.
    /// Returns `None` if the index is out of bounds.
    pub fn remove_connection(&mut self, index: usize) -> Option<PortHandle> {
        if index >= self.connections.len() {
            return None;
        }
        let mut v: Vec<PortHandle> = self.connections.to_vec();
        let removed = v.remove(index);
        self.connections = Arc::from(v);
        self.metrics
            .record_disconnect(1, self.connections.len() as u64);
        Some(removed)
    }

    /// Drops every connection.
    pub fn clear_connections(&mut self) {
        let dropped = self.connections.len();
        self.connections = empty_connections();
        if dropped > 0 {
            self.metrics.record_disconnect(dropped as u64, 0);
        }
    }

    /// The fan-out list with quarantined providers skipped.
    ///
    /// §6.1 makes "zero or more invocations" per uses-port call legal, so
    /// skipping an open-breaker connection is just a temporarily shorter
    /// listener list — callers cannot tell quarantine from disconnect.
    ///
    /// Fast path: when every connection is admissible (the common case —
    /// no breakers, or all closed, verified with one relaxed load each)
    /// the shared snapshot is returned as-is, zero allocation. Only a
    /// degraded slot pays for a filtered copy. Admission is checked
    /// exactly once per handle: a half-open breaker's single probe is
    /// *claimed* by the check, so the caller receiving the filtered list
    /// must actually attempt those providers.
    pub fn healthy_connections(&self) -> Arc<[PortHandle]> {
        let all_admissible = self.connections.iter().all(|h| h.breaker().is_none());
        if all_admissible {
            return Arc::clone(&self.connections);
        }
        // At least one breaker exists: single admission pass.
        let mut healthy: Vec<PortHandle> = Vec::with_capacity(self.connections.len());
        let mut skipped = false;
        for h in self.connections.iter() {
            if h.admissible() {
                healthy.push(h.clone());
            } else {
                skipped = true;
            }
        }
        if skipped {
            Arc::from(healthy)
        } else {
            Arc::clone(&self.connections)
        }
    }

    /// Number of connected providers.
    pub fn fan_out(&self) -> usize {
        self.connections.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    trait Greeter: Send + Sync {
        fn greet(&self) -> String;
    }

    struct English;
    impl Greeter for English {
        fn greet(&self) -> String {
            "hello".into()
        }
    }

    #[test]
    fn typed_round_trip_through_handle() {
        let provider: Arc<dyn Greeter> = Arc::new(English);
        let handle = PortHandle::new("greeter", "demo.Greeter", provider);
        let back: Arc<dyn Greeter> = handle.typed().unwrap();
        assert_eq!(back.greet(), "hello");
        assert_eq!(handle.port_type(), "demo.Greeter");
        assert_eq!(handle.port_name(), "greeter");
    }

    #[test]
    fn direct_connect_is_same_object() {
        let provider: Arc<dyn Greeter> = Arc::new(English);
        let handle = PortHandle::new("greeter", "demo.Greeter", Arc::clone(&provider));
        let back: Arc<dyn Greeter> = handle.typed().unwrap();
        // The §6.2 property: the consumer holds the provider's own object.
        assert!(Arc::ptr_eq(&provider, &back));
    }

    #[test]
    fn clone_and_same_name_rename_share_interned_strings() {
        let provider: Arc<dyn Greeter> = Arc::new(English);
        let handle = PortHandle::new("greeter", "demo.Greeter", provider);
        let copy = handle.clone();
        assert!(Arc::ptr_eq(handle.port_name_arc(), copy.port_name_arc()));
        assert!(Arc::ptr_eq(&handle.port_type, &copy.port_type));
        // Renaming to the identical name keeps the interned original.
        let same = handle.renamed("greeter");
        assert!(Arc::ptr_eq(handle.port_name_arc(), same.port_name_arc()));
    }

    #[test]
    fn wrong_rust_type_is_detected() {
        trait Other: Send + Sync {}
        let provider: Arc<dyn Greeter> = Arc::new(English);
        let handle = PortHandle::new("greeter", "demo.Greeter", provider);
        match handle.typed::<dyn Other>() {
            Err(CcaError::WrongPortRust { port, .. }) => assert_eq!(port, "greeter"),
            Ok(_) => panic!("downcast to the wrong trait must fail"),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn concrete_types_work_too() {
        let handle = PortHandle::new("n", "demo.Num", Arc::new(42i64));
        let v: Arc<i64> = handle.typed().unwrap();
        assert_eq!(*v, 42);
    }

    #[test]
    fn properties_and_rename() {
        let mut props = TypeMap::new();
        props.put_int("maxClients", 4);
        let handle = PortHandle::new("a", "t", Arc::new(0u8)).with_properties(props);
        assert_eq!(handle.properties().get_int("maxClients", 0), 4);
        let renamed = handle.renamed("b");
        assert_eq!(renamed.port_name(), "b");
        assert_eq!(handle.port_name(), "a");
        assert!(format!("{handle:?}").contains("\"a\""));
    }

    #[test]
    fn uses_slot_fan_out_counts() {
        let mut slot = UsesSlot::new(PortRecord {
            name: "solvers".into(),
            port_type: "esi.Solver".into(),
            properties: TypeMap::new(),
        });
        assert_eq!(slot.fan_out(), 0);
        slot.push_connection(PortHandle::new("s1", "esi.Solver", Arc::new(1u8)));
        slot.push_connection(PortHandle::new("s2", "esi.Solver", Arc::new(2u8)));
        assert_eq!(slot.fan_out(), 2);
        // Copy-on-write: an earlier snapshot is unaffected by mutation.
        let snapshot = Arc::clone(slot.connections());
        assert!(slot.remove_connection(0).is_some());
        assert!(slot.remove_connection(5).is_none());
        assert_eq!(slot.fan_out(), 1);
        assert_eq!(snapshot.len(), 2);
        slot.clear_connections();
        assert_eq!(slot.fan_out(), 0);
    }

    #[test]
    fn healthy_connections_shares_the_snapshot_when_no_breakers() {
        let mut slot = UsesSlot::new(PortRecord {
            name: "solvers".into(),
            port_type: "esi.Solver".into(),
            properties: TypeMap::new(),
        });
        slot.push_connection(PortHandle::new("s1", "esi.Solver", Arc::new(1u8)));
        let healthy = slot.healthy_connections();
        assert!(
            Arc::ptr_eq(&healthy, slot.connections()),
            "no breakers: the shared snapshot is returned unfiltered"
        );
    }

    #[test]
    fn policy_attaches_breakers_and_quarantine_filters_fan_out() {
        use crate::resilience::{BreakerPolicy, BreakerState, CallPolicy, MockClock};

        let clock = MockClock::new();
        let policy =
            CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(2, 1_000));
        let mut slot = UsesSlot::new(PortRecord {
            name: "solvers".into(),
            port_type: "esi.Solver".into(),
            properties: TypeMap::new(),
        });
        slot.set_policy(Arc::new(policy));
        slot.push_connection(PortHandle::new("s1", "esi.Solver", Arc::new(1u8)));
        slot.push_connection(PortHandle::new("s2", "esi.Solver", Arc::new(2u8)));
        let conns = Arc::clone(slot.connections());
        let b0 = conns[0].breaker().expect("policy attached a breaker");
        assert!(conns[1].breaker().is_some());

        // All closed: the full list, and the shared snapshot (breakers
        // attached but nothing skipped still avoids publishing a copy
        // when every provider admits).
        assert_eq!(slot.healthy_connections().len(), 2);

        // Trip s1's breaker: fan-out skips it.
        b0.record_failure();
        b0.record_failure();
        assert_eq!(b0.state(), BreakerState::Open);
        let healthy = slot.healthy_connections();
        assert_eq!(healthy.len(), 1);
        assert_eq!(healthy[0].port_name(), "s2");

        // After the cooldown the half-open probe rejoins the list once.
        clock.advance_ns(1_000);
        assert_eq!(slot.healthy_connections().len(), 2);
        assert_eq!(b0.state(), BreakerState::HalfOpen);
        // Probe outstanding: s1 is filtered again.
        assert_eq!(slot.healthy_connections().len(), 1);
        // Probe succeeds: fully recovered.
        b0.record_success();
        assert_eq!(slot.healthy_connections().len(), 2);
        assert_eq!(b0.state(), BreakerState::Closed);
    }
}

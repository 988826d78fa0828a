//! The `CCAServices` handle — Figure 3's connection mechanism.
//!
//! "The component creates and adds Provides ports to the CCAServices, and
//! registers and retrieves Uses ports from the CCAServices. The CCAServices
//! enables access to the list of Provides and Uses ports and to an
//! individual port by its instance name." (§6.1)
//!
//! One `CcaServices` instance belongs to one component instance; the
//! framework holds a reference too and performs connections by moving
//! [`PortHandle`]s from one component's provides table into another's uses
//! slots. Whether the handle is the provider's own object (direct connect)
//! or a proxy is entirely the framework's choice — step (2) of Figure 3:
//! "At the framework's option, either the interface or a proxy for the
//! interface can be given to Component 2 through its CCAServices handle."
//!
//! # Direct-connect fast path
//!
//! §6.2 claims a connected port call costs "nothing more than a direct
//! function call to the connected object". To keep the *resolution* side of
//! that bargain, the provides/uses tables are published as immutable
//! [`Arc`] **snapshots**: a reader clones one `Arc` (no map walk is ever
//! blocked by a writer mutating entries) and every mutation builds a fresh
//! snapshot off-line, swaps the pointer in O(1), and bumps a monotonic
//! **generation counter**. [`CachedPort`] pushes this to the floor: it
//! memoizes the typed downcast and revalidates with a single relaxed atomic
//! load, so the steady-state cost of `get()` + call is one atomic load plus
//! the virtual call — measured in `benches/e9_port_resolution.rs`.

use crate::error::CcaError;
use crate::port::{PortHandle, PortRecord, UsesSlot};
use crate::resilience::{CallPolicy, CircuitBreaker};
use cca_data::TypeMap;
use cca_obs::{CallShard, PortMetrics, PortMetricsSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The immutable snapshot of one component's port tables. Readers share it
/// by cloning the outer `Arc`; writers copy, modify, and republish.
#[derive(Default, Clone)]
struct Tables {
    provides: BTreeMap<Arc<str>, PortHandle>,
    uses: BTreeMap<Arc<str>, UsesSlot>,
}

/// Per-component services handle (Figure 3's `CCAServices`).
///
/// ```
/// use cca_core::{CcaServices, PortHandle};
/// use cca_data::TypeMap;
/// use std::sync::Arc;
///
/// trait Echo: Send + Sync { fn echo(&self) -> i32; }
/// struct E;
/// impl Echo for E { fn echo(&self) -> i32 { 42 } }
///
/// // Provider side (Figure 3 step 1):
/// let provider = CcaServices::new("provider0");
/// let port: Arc<dyn Echo> = Arc::new(E);
/// provider.add_provides_port(PortHandle::new("out", "demo.Echo", port))?;
///
/// // Framework hands the interface to the user (steps 2+3):
/// let user = CcaServices::new("user0");
/// user.register_uses_port("in", "demo.Echo", TypeMap::new())?;
/// user.connect_uses("in", provider.get_provides_port("out")?)?;
///
/// // User side (step 4):
/// let echo: Arc<dyn Echo> = user.get_port_as("in")?;
/// assert_eq!(echo.echo(), 42);
/// # Ok::<(), cca_core::CcaError>(())
/// ```
pub struct CcaServices {
    /// Immutable after construction — no lock needed to read it.
    component_name: Arc<str>,
    /// The current snapshot. Writers swap the `Arc` in O(1); readers clone
    /// it and walk the maps entirely outside any critical section.
    tables: RwLock<Arc<Tables>>,
    /// Bumped (release) after every published mutation; [`CachedPort`]
    /// revalidates against it with one relaxed load.
    generation: AtomicU64,
}

impl CcaServices {
    /// Creates a services handle for the named component instance.
    pub fn new(component_name: impl Into<Arc<str>>) -> Arc<Self> {
        Arc::new(CcaServices {
            component_name: component_name.into(),
            tables: RwLock::new(Arc::new(Tables::default())),
            generation: AtomicU64::new(0),
        })
    }

    /// The current table generation. Any `connect`/`disconnect`/
    /// `add`/`remove`/`register`/`release` bumps it; a [`CachedPort`] whose
    /// remembered generation still matches may keep using its memoized
    /// downcast without touching the tables.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Clones the current snapshot (one `Arc` refcount bump under a briefly
    /// held read lock — never blocked by table *construction*, only by the
    /// O(1) pointer swap itself).
    fn snapshot(&self) -> Arc<Tables> {
        Arc::clone(&self.tables.read())
    }

    /// Copy-on-write mutation: clones the tables, applies `f`, republishes
    /// the new snapshot, and bumps the generation. Errors leave the
    /// published snapshot (and generation) untouched.
    fn mutate<R>(&self, f: impl FnOnce(&mut Tables) -> Result<R, CcaError>) -> Result<R, CcaError> {
        let mut guard = self.tables.write();
        let mut next = Tables::clone(&guard);
        let result = f(&mut next)?;
        *guard = Arc::new(next);
        self.generation.fetch_add(1, Ordering::Release);
        Ok(result)
    }

    // ---- provider side -------------------------------------------------

    /// `addProvidesPort` — step (1) of Figure 3: the component makes an
    /// interface it implements known to its containing framework.
    pub fn add_provides_port(&self, handle: PortHandle) -> Result<(), CcaError> {
        self.mutate(|t| {
            let name = Arc::clone(handle.port_name_arc());
            if t.provides.contains_key(&name) || t.uses.contains_key(&name) {
                return Err(CcaError::PortAlreadyExists(name.to_string()));
            }
            t.provides.insert(name, handle);
            Ok(())
        })
    }

    /// Removes a provides port; existing connections made from it remain
    /// valid (reference counting keeps the object alive) but no new
    /// connections can be made.
    pub fn remove_provides_port(&self, name: &str) -> Result<PortHandle, CcaError> {
        self.mutate(|t| {
            t.provides
                .remove(name)
                .ok_or_else(|| CcaError::PortNotFound(name.to_string()))
        })
    }

    /// The provides port registered under `name` (framework-facing; this is
    /// what a builder connects *from*). The returned handle shares the
    /// stored one — cloning it does not allocate.
    pub fn get_provides_port(&self, name: &str) -> Result<PortHandle, CcaError> {
        let handle = self
            .snapshot()
            .provides
            .get(name)
            .cloned()
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
        if cca_obs::counters_enabled() {
            handle.metrics().record_resolution();
        }
        Ok(handle)
    }

    /// All provides-port registrations.
    pub fn provided_ports(&self) -> Vec<PortRecord> {
        self.snapshot()
            .provides
            .values()
            .map(|h| PortRecord {
                name: h.port_name().to_string(),
                port_type: h.port_type().to_string(),
                properties: h.properties().clone(),
            })
            .collect()
    }

    // ---- user side -----------------------------------------------------

    /// `registerUsesPort`: declares that this component will call through a
    /// port of the given SIDL type under the given instance name.
    pub fn register_uses_port(
        &self,
        name: impl Into<String>,
        port_type: impl Into<String>,
        properties: TypeMap,
    ) -> Result<(), CcaError> {
        let name = name.into();
        let port_type = port_type.into();
        self.mutate(|t| {
            let key: Arc<str> = Arc::from(name.as_str());
            if t.uses.contains_key(&key) || t.provides.contains_key(&key) {
                return Err(CcaError::PortAlreadyExists(name.clone()));
            }
            t.uses.insert(
                key,
                UsesSlot::new(PortRecord {
                    name: name.clone(),
                    port_type: port_type.clone(),
                    properties: properties.clone(),
                }),
            );
            Ok(())
        })
    }

    /// Unregisters a uses port, dropping its connections.
    pub fn unregister_uses_port(&self, name: &str) -> Result<UsesSlot, CcaError> {
        self.mutate(|t| {
            t.uses
                .remove(name)
                .ok_or_else(|| CcaError::PortNotFound(name.to_string()))
        })
    }

    /// `getPort` — step (4) of Figure 3: retrieves the connection for a
    /// registered uses port. Errors if the slot does not exist or nothing
    /// is connected. With fan-out > 1 the *first* connection is returned;
    /// use [`get_ports`](Self::get_ports) for the whole listener list.
    pub fn get_port(&self, name: &str) -> Result<PortHandle, CcaError> {
        let tables = self.snapshot();
        let slot = tables
            .uses
            .get(name)
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
        let handle = slot
            .connections()
            .first()
            .cloned()
            .ok_or_else(|| CcaError::PortNotConnected(name.to_string()))?;
        if cca_obs::counters_enabled() {
            slot.metrics().record_resolution();
            slot.metrics().record_direct_call();
        }
        Ok(handle)
    }

    /// All connections of a uses port (the fan-out list; may be empty —
    /// "one call may correspond to zero or more invocations"). Returns the
    /// **shared** snapshot: one refcount bump, no per-call `Vec` clone.
    /// The list is immutable; later connects/disconnects publish a new one.
    ///
    /// Quarantined providers (open circuit breaker, see
    /// [`crate::resilience`]) are transparently skipped — legal because
    /// §6.1 already allows zero providers. Slots without breakers (no
    /// policy attached) return the shared snapshot unfiltered, exactly as
    /// before.
    pub fn get_ports(&self, name: &str) -> Result<Arc<[PortHandle]>, CcaError> {
        let tables = self.snapshot();
        let slot = tables
            .uses
            .get(name)
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
        Ok(slot.healthy_connections())
    }

    /// Typed convenience: `getPort` plus downcast to the port trait. For
    /// repeated access prefer [`CachedPort`], which memoizes the downcast.
    pub fn get_port_as<P: ?Sized + Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Arc<P>, CcaError> {
        self.get_port(name)?.typed::<P>()
    }

    /// Creates a [`CachedPort`] for a uses slot: the memoizing handle that
    /// makes repeated `get()` cost one atomic load (§6.2 steady state).
    /// Resolution is lazy — the slot need not be connected yet.
    pub fn cached_port<P: ?Sized + Send + Sync + 'static>(
        self: &Arc<Self>,
        name: impl Into<Arc<str>>,
    ) -> CachedPort<P> {
        CachedPort::new(Arc::clone(self), name)
    }

    /// Multicast helper for the §6.1 fan-out semantics: invokes `f` on
    /// every connected provider of the uses port (zero or more), returning
    /// how many were called. Providers that fail the typed downcast are
    /// skipped (mixed typed/proxied fan-out). The shared snapshot makes
    /// this allocation-free per call.
    pub fn multicast<P, F>(&self, name: &str, mut f: F) -> Result<usize, CcaError>
    where
        P: ?Sized + Send + Sync + 'static,
        F: FnMut(&Arc<P>),
    {
        let tables = self.snapshot();
        let slot = tables
            .uses
            .get(name)
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
        let handles = slot.connections();
        let mut called = 0;
        if cca_obs::counters_enabled() {
            // Instrumented fan-out: per-listener latency into the slot's
            // log2 histogram. Still allocation-free — `Instant::now` and
            // relaxed atomics only.
            let metrics = slot.metrics();
            for h in handles.iter() {
                // One admission check per handle: quarantined providers
                // are skipped (§6.1's zero-or-more makes that legal), and
                // an admitted half-open probe is completed right here.
                if !h.admissible() {
                    continue;
                }
                if let Ok(p) = h.typed::<P>() {
                    let started = Instant::now();
                    f(&p);
                    metrics.record_latency_ns(started.elapsed().as_nanos() as u64);
                    metrics.record_direct_call();
                    called += 1;
                    if let Some(b) = h.breaker() {
                        // `f` returned: the listener serviced the call, so
                        // an in-flight probe closes the breaker.
                        b.record_success();
                    }
                }
            }
        } else {
            for h in handles.iter() {
                if !h.admissible() {
                    continue;
                }
                if let Ok(p) = h.typed::<P>() {
                    f(&p);
                    called += 1;
                    if let Some(b) = h.breaker() {
                        b.record_success();
                    }
                }
            }
        }
        Ok(called)
    }

    /// `releasePort`: declares the component is done with the current
    /// connection of `name` (the slot stays registered; connections drop).
    pub fn release_port(&self, name: &str) -> Result<(), CcaError> {
        self.mutate(|t| {
            let slot = t
                .uses
                .get_mut(name)
                .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
            slot.clear_connections();
            Ok(())
        })
    }

    /// All uses-port declarations.
    pub fn used_ports(&self) -> Vec<PortRecord> {
        self.snapshot()
            .uses
            .values()
            .map(|s| s.record.clone())
            .collect()
    }

    // ---- framework side ------------------------------------------------

    /// Framework-side: attaches a provider handle to a uses slot (step (3)
    /// of Figure 3). Type compatibility is the *framework's* job (it has
    /// the reflection data); this method only enforces slot existence.
    pub fn connect_uses(&self, uses_name: &str, provider: PortHandle) -> Result<(), CcaError> {
        self.mutate(|t| {
            let slot = t
                .uses
                .get_mut(uses_name)
                .ok_or_else(|| CcaError::PortNotFound(uses_name.to_string()))?;
            slot.push_connection(provider.renamed(uses_name));
            Ok(())
        })
    }

    /// Framework-side: detaches the provider registered under
    /// `provider_port_type` object identity is not tracked; disconnects by
    /// position. Returns the removed handle.
    pub fn disconnect_uses(&self, uses_name: &str, index: usize) -> Result<PortHandle, CcaError> {
        self.mutate(|t| {
            let slot = t
                .uses
                .get_mut(uses_name)
                .ok_or_else(|| CcaError::PortNotFound(uses_name.to_string()))?;
            slot.remove_connection(index)
                .ok_or_else(|| CcaError::PortNotConnected(uses_name.to_string()))
        })
    }

    /// Attaches (or replaces) a uses slot's invocation policy. Connections
    /// made *afterwards* get a fresh circuit breaker when the policy
    /// configures one; existing connections keep their breakers. The
    /// framework calls this during `connect_with_call_policy`; bare
    /// `CcaServices` users may call it directly.
    pub fn set_call_policy(&self, name: &str, policy: Arc<CallPolicy>) -> Result<(), CcaError> {
        self.mutate(|t| {
            let slot = t
                .uses
                .get_mut(name)
                .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
            slot.set_policy(Arc::clone(&policy));
            Ok(())
        })
    }

    /// The invocation policy attached to a uses slot, if any.
    pub fn call_policy(&self, name: &str) -> Result<Option<Arc<CallPolicy>>, CcaError> {
        self.snapshot()
            .uses
            .get(name)
            .map(|s| s.policy().cloned())
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))
    }

    /// The circuit breaker guarding connection `index` of a uses slot
    /// (`None` if that connection has no breaker). Monitors read breaker
    /// state through this.
    pub fn connection_breaker(
        &self,
        name: &str,
        index: usize,
    ) -> Result<Option<Arc<CircuitBreaker>>, CcaError> {
        let tables = self.snapshot();
        let slot = tables
            .uses
            .get(name)
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
        Ok(slot
            .connections()
            .get(index)
            .and_then(|h| h.breaker().cloned()))
    }

    /// The declared SIDL type of a uses slot.
    pub fn uses_port_type(&self, name: &str) -> Result<String, CcaError> {
        self.snapshot()
            .uses
            .get(name)
            .map(|s| s.record.port_type.clone())
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))
    }

    // ---- observability -------------------------------------------------

    /// The live metrics block of the named port (uses slots shadow
    /// provides ports, but names are unique across both tables). The
    /// returned `Arc` stays valid across reconnects — metrics follow the
    /// slot, not one table generation.
    pub fn port_metrics(&self, name: &str) -> Result<Arc<PortMetrics>, CcaError> {
        let tables = self.snapshot();
        if let Some(slot) = tables.uses.get(name) {
            return Ok(Arc::clone(slot.metrics()));
        }
        tables
            .provides
            .get(name)
            .map(|h| Arc::clone(h.metrics()))
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))
    }

    /// A point-in-time metrics snapshot of every port this component owns:
    /// `(port_name, "uses" | "provides", snapshot)`, sorted by name within
    /// each table. This is what the framework's `MonitorPort` aggregates.
    pub fn metrics_snapshot(&self) -> Vec<(String, &'static str, PortMetricsSnapshot)> {
        let tables = self.snapshot();
        let mut out = Vec::with_capacity(tables.provides.len() + tables.uses.len());
        for (name, handle) in &tables.provides {
            out.push((name.to_string(), "provides", handle.metrics().snapshot()));
        }
        for (name, slot) in &tables.uses {
            out.push((name.to_string(), "uses", slot.metrics().snapshot()));
        }
        out
    }

    /// Uncounted resolution for [`CachedPort::revalidate`]: the memoizing
    /// handle counts calls through its [`CallShard`], so routing it through
    /// the public (counting) `get_port_as` would double-count the call that
    /// triggered revalidation.
    ///
    /// Resolves to the **first admissible** connection: a quarantined
    /// first provider fails over to the next healthy one transparently
    /// (admission is checked once per candidate, so an admitted half-open
    /// probe is carried out by the caller). All providers quarantined is
    /// [`CcaError::ProviderQuarantined`]; no providers at all stays
    /// [`CcaError::PortNotConnected`].
    fn resolve_for_cache<P: ?Sized + Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<ResolvedUses<P>, CcaError> {
        let tables = self.snapshot();
        let slot = tables
            .uses
            .get(name)
            .ok_or_else(|| CcaError::PortNotFound(name.to_string()))?;
        let connections = slot.connections();
        if connections.is_empty() {
            return Err(CcaError::PortNotConnected(name.to_string()));
        }
        let handle = connections.iter().find(|h| h.admissible()).ok_or_else(|| {
            CcaError::ProviderQuarantined(format!(
                "all {} provider(s) of '{name}' are quarantined",
                connections.len()
            ))
        })?;
        Ok(ResolvedUses {
            port: handle.typed::<P>()?,
            metrics: Arc::clone(slot.metrics()),
            breaker: handle.breaker().cloned(),
            policy: slot.policy().cloned(),
        })
    }
}

/// What [`CcaServices::resolve_for_cache`] hands a revalidating
/// [`CachedPort`]: the typed provider plus the resilience context it was
/// resolved under.
struct ResolvedUses<P: ?Sized + Send + Sync + 'static> {
    port: Arc<P>,
    metrics: Arc<PortMetrics>,
    breaker: Option<Arc<CircuitBreaker>>,
    policy: Option<Arc<CallPolicy>>,
}

impl std::fmt::Debug for CcaServices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tables = self.snapshot();
        f.debug_struct("CcaServices")
            .field("component", &self.component_name)
            .field("provides", &tables.provides.keys().collect::<Vec<_>>())
            .field("uses", &tables.uses.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// A memoizing typed handle to one uses slot — the §6.2 steady state.
///
/// The first `get()` resolves the slot and downcasts once; every later
/// `get()` is **one relaxed atomic load** (the generation check) plus a
/// pointer return. Any mutation of the owning [`CcaServices`] — `connect`,
/// `disconnect`, `remove_provides_port`, `release_port`, … — bumps the
/// generation and transparently invalidates the memo, so a cached port can
/// never outlive its connection unobserved: after a disconnect the next
/// `get()` re-resolves and reports [`CcaError::PortNotConnected`].
///
/// `get` takes `&mut self` so the fast path needs no interior locking; a
/// component typically owns one `CachedPort` per uses slot (one per thread
/// for shared slots — they all share the same `CcaServices`).
///
/// ```
/// use cca_core::{CcaServices, PortHandle};
/// use cca_data::TypeMap;
/// use std::sync::Arc;
///
/// trait Echo: Send + Sync { fn echo(&self) -> i32; }
/// struct E;
/// impl Echo for E { fn echo(&self) -> i32 { 7 } }
///
/// let provider = CcaServices::new("p");
/// let obj: Arc<dyn Echo> = Arc::new(E);
/// provider.add_provides_port(PortHandle::new("out", "demo.Echo", obj))?;
/// let user = CcaServices::new("u");
/// user.register_uses_port("in", "demo.Echo", TypeMap::new())?;
/// user.connect_uses("in", provider.get_provides_port("out")?)?;
///
/// let mut port = user.cached_port::<dyn Echo>("in");
/// assert_eq!(port.get()?.echo(), 7); // resolves + memoizes
/// assert_eq!(port.get()?.echo(), 7); // one atomic load + virtual call
/// # Ok::<(), cca_core::CcaError>(())
/// ```
pub struct CachedPort<P: ?Sized + Send + Sync + 'static> {
    services: Arc<CcaServices>,
    name: Arc<str>,
    seen_generation: u64,
    port: Option<Arc<P>>,
    /// The slot's metrics block, captured at resolution time.
    metrics: Option<Arc<PortMetrics>>,
    /// Single-writer call counter: this handle is the only bumper (`get`
    /// takes `&mut self`), so counting costs one relaxed store — no RMW.
    shard: Option<Arc<CallShard>>,
    /// The resolved connection's circuit breaker, captured at resolution
    /// time. `None` for policy-less slots — the fast path then skips
    /// admission entirely, exactly as before this existed.
    breaker: Option<Arc<CircuitBreaker>>,
    /// The slot's invocation policy, captured at resolution time; drives
    /// [`call`](Self::call).
    policy: Option<Arc<CallPolicy>>,
}

impl<P: ?Sized + Send + Sync + 'static> CachedPort<P> {
    /// Creates a lazy cached handle (no resolution until first `get`).
    pub fn new(services: Arc<CcaServices>, name: impl Into<Arc<str>>) -> Self {
        CachedPort {
            services,
            name: name.into(),
            seen_generation: 0,
            port: None,
            metrics: None,
            shard: None,
            breaker: None,
            policy: None,
        }
    }

    /// The uses-slot name this handle resolves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The typed port. Fast path: one relaxed generation load, a compare,
    /// and a borrow of the memoized `Arc<P>` — no lock, no allocation, no
    /// refcount traffic. A connection guarded by a circuit breaker adds
    /// one relaxed load of the breaker's state word while it stays closed
    /// (gated ≤1.1× the unguarded call by `benches/e11_resilience.rs`);
    /// a quarantined connection triggers revalidation, which fails over
    /// to the first admissible provider or reports
    /// [`CcaError::ProviderQuarantined`].
    #[inline]
    pub fn get(&mut self) -> Result<&Arc<P>, CcaError> {
        let generation = self.services.generation.load(Ordering::Relaxed);
        let stale = self.port.is_none() || generation != self.seen_generation;
        // Exactly one admission check per pass: revalidate performs its
        // own (it resolves the first *admissible* provider), so the
        // short-circuit only consults the breaker on the memo-hit path.
        // Checking twice would claim a half-open breaker's single probe
        // and discard it.
        if stale || self.breaker.as_ref().is_some_and(|b| !b.admit()) {
            self.revalidate(generation)?;
        }
        // Counting adds one relaxed flag load + predicted branch when off,
        // and one single-writer shard bump (relaxed load + store) when on —
        // gated at ≤1.1× / ≤1.5× of the bare call by e10_obs_overhead.
        if cca_obs::counters_enabled() {
            if let Some(shard) = &self.shard {
                shard.bump();
            }
        }
        // The revalidate branch above guarantees `port` is Some.
        Ok(self.port.as_ref().unwrap())
    }

    /// Cloning convenience for callers that need an owned `Arc<P>`.
    #[inline]
    fn get_cloned(&mut self) -> Result<Arc<P>, CcaError> {
        self.get().map(Arc::clone)
    }

    /// The circuit breaker of the currently resolved connection, if any
    /// (diagnostic — reflects the last resolution).
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// Invokes `f` on the resolved provider under the slot's
    /// [`CallPolicy`]: breaker admission before each attempt, the outcome
    /// reported back to the breaker, bounded retry with backoff between
    /// failed attempts, and the policy deadline enforced across the whole
    /// sequence. Between attempts the memo is invalidated, so a retry
    /// re-resolves and can **fail over** to the next admissible provider
    /// of a fan-out slot. With no policy attached this is `get` + `f` +
    /// breaker reporting — one extra branch.
    pub fn call<R>(&mut self, mut f: impl FnMut(&P) -> Result<R, CcaError>) -> Result<R, CcaError> {
        // Resolve first so the slot's policy (captured at resolution) is
        // current for this call.
        self.get()?;
        let Some(policy) = self.policy.clone() else {
            let port = Arc::clone(self.port.as_ref().unwrap());
            let result = f(&port);
            if let Some(b) = &self.breaker {
                match &result {
                    Ok(_) => b.record_success(),
                    Err(_) => b.record_failure(),
                }
            }
            return result;
        };
        let max_attempts = policy.max_attempts();
        let mut backoff = policy.retry().map(|r| r.schedule());
        let started = policy.clock().now_ns();
        let mut attempt = 0u32;
        loop {
            // One admission check per attempt: the pre-loop `get` already
            // resolved attempt 0 (claiming a half-open breaker's single
            // probe if one was due) — re-checking admission here would
            // discard that probe and wrongly report the sole provider of
            // a fan-out-1 slot as quarantined. Later attempts re-resolve:
            // `get` checks breaker admission (or fails over inside
            // revalidate) — a quarantined-everywhere slot surfaces as
            // ProviderQuarantined here.
            let resolution = if attempt == 0 {
                Ok(Arc::clone(self.port.as_ref().unwrap()))
            } else {
                self.get_cloned()
            };
            let error = match resolution {
                Ok(port) => {
                    let result = f(&port);
                    if let Some(b) = &self.breaker {
                        match &result {
                            Ok(_) => b.record_success(),
                            Err(_) => b.record_failure(),
                        }
                    }
                    match result {
                        Ok(v) => return Ok(v),
                        Err(e) => {
                            // Force the next attempt to re-resolve: with
                            // fan-out > 1 and this provider now tripped,
                            // resolution fails over to a healthy one.
                            self.invalidate();
                            e
                        }
                    }
                }
                Err(e) => e,
            };
            attempt += 1;
            if attempt >= max_attempts {
                return Err(error);
            }
            let wait = backoff.as_mut().and_then(|s| s.next()).unwrap_or(0);
            if let Some(deadline) = policy.deadline_ns() {
                let spent = policy.clock().now_ns().saturating_sub(started);
                if spent.saturating_add(wait) > deadline {
                    cca_obs::resilience().record_deadline_hit();
                    return Err(CcaError::DeadlineExceeded(format!(
                        "'{}' exhausted its {deadline} ns budget after {attempt} attempt(s): \
                         {error}",
                        self.name
                    )));
                }
            }
            cca_obs::resilience().record_retry();
            policy.clock().sleep_ns(wait);
        }
    }

    /// Drops the memo, forcing the next `get` to re-resolve.
    fn invalidate(&mut self) {
        self.port = None;
    }

    #[cold]
    fn revalidate(&mut self, generation: u64) -> Result<(), CcaError> {
        // Drop the stale memo first: if resolution fails (slot was
        // disconnected or unregistered) the error must be sticky rather
        // than silently serving the dead provider.
        self.port = None;
        self.breaker = None;
        // `generation` was loaded *before* the snapshot read below, so a
        // concurrent mutation can only make us conservatively re-resolve
        // next time — never serve a stale memo as fresh.
        let resolved = self.services.resolve_for_cache::<P>(&self.name)?;
        if cca_obs::counters_enabled() {
            resolved.metrics.record_resolution();
        }
        // Keep the existing shard when the slot's metrics block is
        // unchanged (the common reconnect case) so counts accumulate;
        // register a fresh one if the slot was re-registered.
        let stale = match &self.metrics {
            Some(old) => !Arc::ptr_eq(old, &resolved.metrics),
            None => true,
        };
        if stale || self.shard.is_none() {
            self.shard = Some(resolved.metrics.call_shard());
            self.metrics = Some(resolved.metrics);
        }
        self.breaker = resolved.breaker;
        self.policy = resolved.policy;
        self.port = Some(resolved.port);
        self.seen_generation = generation;
        Ok(())
    }
}

impl<P: ?Sized + Send + Sync + 'static> std::fmt::Debug for CachedPort<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedPort")
            .field("name", &self.name)
            .field("resolved", &self.port.is_some())
            .field("seen_generation", &self.seen_generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    trait Adder: Send + Sync {
        fn add(&self, a: i64, b: i64) -> i64;
    }
    struct AdderImpl;
    impl Adder for AdderImpl {
        fn add(&self, a: i64, b: i64) -> i64 {
            a + b
        }
    }

    fn adder_handle(name: &str) -> PortHandle {
        let obj: Arc<dyn Adder> = Arc::new(AdderImpl);
        PortHandle::new(name, "demo.Adder", obj)
    }

    #[test]
    fn figure3_connection_mechanism() {
        // (1) Component 1 adds a provides port.
        let s1 = CcaServices::new("component1");
        s1.add_provides_port(adder_handle("adder")).unwrap();
        // (2)+(3) The framework takes the interface and gives it to
        // component 2's services.
        let s2 = CcaServices::new("component2");
        s2.register_uses_port("calc", "demo.Adder", TypeMap::new())
            .unwrap();
        let provided = s1.get_provides_port("adder").unwrap();
        s2.connect_uses("calc", provided).unwrap();
        // (4) Component 2 retrieves the interface with getPort.
        let port: Arc<dyn Adder> = s2.get_port_as("calc").unwrap();
        assert_eq!(port.add(20, 22), 42);
    }

    #[test]
    fn get_port_before_connection_errors() {
        let s = CcaServices::new("c");
        s.register_uses_port("calc", "demo.Adder", TypeMap::new())
            .unwrap();
        assert!(matches!(
            s.get_port("calc"),
            Err(CcaError::PortNotConnected(_))
        ));
        assert!(matches!(s.get_port("nope"), Err(CcaError::PortNotFound(_))));
    }

    #[test]
    fn duplicate_names_rejected_across_tables() {
        let s = CcaServices::new("c");
        s.add_provides_port(adder_handle("x")).unwrap();
        assert!(matches!(
            s.add_provides_port(adder_handle("x")),
            Err(CcaError::PortAlreadyExists(_))
        ));
        assert!(matches!(
            s.register_uses_port("x", "t", TypeMap::new()),
            Err(CcaError::PortAlreadyExists(_))
        ));
        s.register_uses_port("y", "t", TypeMap::new()).unwrap();
        assert!(matches!(
            s.add_provides_port(adder_handle("y")),
            Err(CcaError::PortAlreadyExists(_))
        ));
    }

    #[test]
    fn failed_mutations_do_not_bump_generation() {
        let s = CcaServices::new("c");
        s.add_provides_port(adder_handle("x")).unwrap();
        let g = s.generation();
        assert!(s.add_provides_port(adder_handle("x")).is_err());
        assert!(s.remove_provides_port("ghost").is_err());
        assert!(s.release_port("ghost").is_err());
        assert_eq!(s.generation(), g);
        s.remove_provides_port("x").unwrap();
        assert_eq!(s.generation(), g + 1);
    }

    #[test]
    fn fan_out_listener_list() {
        let s = CcaServices::new("caller");
        s.register_uses_port("out", "demo.Adder", TypeMap::new())
            .unwrap();
        s.connect_uses("out", adder_handle("a")).unwrap();
        s.connect_uses("out", adder_handle("b")).unwrap();
        let all = s.get_ports("out").unwrap();
        assert_eq!(all.len(), 2);
        // Every listener is invocable.
        for h in all.iter() {
            let p: Arc<dyn Adder> = h.typed().unwrap();
            assert_eq!(p.add(1, 1), 2);
        }
        // get_port returns the first.
        assert_eq!(s.get_port("out").unwrap().port_name(), "out");
        // The snapshot is shared, not copied: fetching twice without an
        // intervening mutation yields the same allocation.
        let again = s.get_ports("out").unwrap();
        assert!(Arc::ptr_eq(&all, &again));
        // A mutation publishes a fresh list; the old snapshot is unchanged.
        s.connect_uses("out", adder_handle("c")).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(s.get_ports("out").unwrap().len(), 3);
    }

    #[test]
    fn release_and_disconnect() {
        let s = CcaServices::new("c");
        s.register_uses_port("out", "demo.Adder", TypeMap::new())
            .unwrap();
        s.connect_uses("out", adder_handle("a")).unwrap();
        s.connect_uses("out", adder_handle("b")).unwrap();
        let removed = s.disconnect_uses("out", 0).unwrap();
        assert_eq!(removed.port_type(), "demo.Adder");
        assert_eq!(s.get_ports("out").unwrap().len(), 1);
        assert!(s.disconnect_uses("out", 5).is_err());
        s.release_port("out").unwrap();
        assert!(s.get_ports("out").unwrap().is_empty());
        assert!(matches!(
            s.get_port("out"),
            Err(CcaError::PortNotConnected(_))
        ));
    }

    #[test]
    fn listings_and_metadata() {
        let s = CcaServices::new("c");
        s.add_provides_port(adder_handle("p1")).unwrap();
        let mut props = TypeMap::new();
        props.put_string("flavor", "direct".into());
        s.register_uses_port("u1", "demo.Adder", props).unwrap();
        let provided = s.provided_ports();
        assert_eq!(provided.len(), 1);
        assert_eq!(provided[0].port_type, "demo.Adder");
        let used = s.used_ports();
        assert_eq!(used.len(), 1);
        assert_eq!(
            used[0].properties.get_string("flavor", String::new()),
            "direct"
        );
        assert_eq!(s.uses_port_type("u1").unwrap(), "demo.Adder");
        assert_eq!(&*s.component_name, "c");
        assert!(format!("{s:?}").contains("p1"));
    }

    #[test]
    fn remove_provides_keeps_existing_connections_alive() {
        let s1 = CcaServices::new("provider");
        s1.add_provides_port(adder_handle("adder")).unwrap();
        let s2 = CcaServices::new("user");
        s2.register_uses_port("calc", "demo.Adder", TypeMap::new())
            .unwrap();
        s2.connect_uses("calc", s1.get_provides_port("adder").unwrap())
            .unwrap();
        s1.remove_provides_port("adder").unwrap();
        assert!(s1.get_provides_port("adder").is_err());
        // The user still holds a live direct connection.
        let port: Arc<dyn Adder> = s2.get_port_as("calc").unwrap();
        assert_eq!(port.add(2, 3), 5);
    }

    #[test]
    fn unregister_uses_port() {
        let s = CcaServices::new("c");
        s.register_uses_port("u", "t", TypeMap::new()).unwrap();
        let slot = s.unregister_uses_port("u").unwrap();
        assert_eq!(slot.record.name, "u");
        assert!(s.unregister_uses_port("u").is_err());
    }
}

#[cfg(test)]
mod cached_port_tests {
    use super::*;

    trait Adder: Send + Sync {
        fn add(&self, a: i64, b: i64) -> i64;
    }
    struct Plus(i64);
    impl Adder for Plus {
        fn add(&self, a: i64, b: i64) -> i64 {
            a + b + self.0
        }
    }

    fn plus_handle(name: &str, bias: i64) -> PortHandle {
        let obj: Arc<dyn Adder> = Arc::new(Plus(bias));
        PortHandle::new(name, "demo.Adder", obj)
    }

    fn wired(bias: i64) -> (Arc<CcaServices>, Arc<CcaServices>) {
        let provider = CcaServices::new("p");
        provider
            .add_provides_port(plus_handle("out", bias))
            .unwrap();
        let user = CcaServices::new("u");
        user.register_uses_port("in", "demo.Adder", TypeMap::new())
            .unwrap();
        user.connect_uses("in", provider.get_provides_port("out").unwrap())
            .unwrap();
        (user, provider)
    }

    #[test]
    fn memoizes_until_generation_changes() {
        let (user, _p) = wired(0);
        let mut port = user.cached_port::<dyn Adder>("in");
        assert!(port.port.is_none());
        let first = Arc::as_ptr(port.get().unwrap());
        assert!(port.port.is_some());
        // No mutation — the memo survives and is the identical object.
        assert_eq!(Arc::as_ptr(port.get().unwrap()), first);
        assert_eq!(port.get().unwrap().add(1, 2), 3);
        assert!(format!("{port:?}").contains("\"in\""));
    }

    #[test]
    fn observes_disconnection() {
        let (user, _p) = wired(0);
        let mut port = user.cached_port::<dyn Adder>("in");
        assert_eq!(port.get().unwrap().add(2, 2), 4);
        user.disconnect_uses("in", 0).unwrap();
        // The stale memo must not be served after the disconnect.
        assert!(matches!(port.get(), Err(CcaError::PortNotConnected(_))));
        assert!(port.port.is_none());
        // Errors stay sticky until a reconnect...
        assert!(port.get().is_err());
        let provider2 = CcaServices::new("p2");
        provider2
            .add_provides_port(plus_handle("out", 100))
            .unwrap();
        user.connect_uses("in", provider2.get_provides_port("out").unwrap())
            .unwrap();
        // ...after which the new provider is resolved transparently.
        assert_eq!(port.get().unwrap().add(0, 0), 100);
    }

    #[test]
    fn observes_redirection_to_new_provider() {
        let (user, _p) = wired(0);
        let mut port = user.cached_port::<dyn Adder>("in");
        assert_eq!(port.get().unwrap().add(0, 0), 0);
        // Swap providers: disconnect old, connect biased one.
        user.disconnect_uses("in", 0).unwrap();
        let p2 = CcaServices::new("p2");
        p2.add_provides_port(plus_handle("out", 7)).unwrap();
        user.connect_uses("in", p2.get_provides_port("out").unwrap())
            .unwrap();
        assert_eq!(port.get().unwrap().add(0, 0), 7);
    }

    #[test]
    fn manual_invalidate_forces_reresolve() {
        let (user, _p) = wired(0);
        let mut port = user.cached_port::<dyn Adder>("in");
        port.get().unwrap();
        port.invalidate();
        assert!(port.port.is_none());
        assert_eq!(port.get().unwrap().add(5, 5), 10);
        assert_eq!(port.name(), "in");
    }

    #[test]
    fn wrong_type_error_propagates() {
        trait Other: Send + Sync {}
        let (user, _p) = wired(0);
        let mut port = user.cached_port::<dyn Other>("in");
        assert!(matches!(port.get(), Err(CcaError::WrongPortRust { .. })));
        let mut missing = user.cached_port::<dyn Adder>("ghost");
        assert!(matches!(missing.get(), Err(CcaError::PortNotFound(_))));
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::*;

    trait Adder: Send + Sync {
        fn add(&self, a: i64, b: i64) -> i64;
    }
    struct AdderImpl;
    impl Adder for AdderImpl {
        fn add(&self, a: i64, b: i64) -> i64 {
            a + b
        }
    }

    fn adder_handle(name: &str) -> PortHandle {
        let obj: Arc<dyn Adder> = Arc::new(AdderImpl);
        PortHandle::new(name, "demo.Adder", obj)
    }

    #[test]
    fn connection_shape_metrics_are_always_on() {
        // No counter gate involved: connects/disconnects/fan-out record
        // unconditionally because they ride the rare mutation path.
        let s = CcaServices::new("c");
        s.register_uses_port("out", "demo.Adder", TypeMap::new())
            .unwrap();
        s.connect_uses("out", adder_handle("a")).unwrap();
        let a: Arc<dyn Adder> = s.get_port_as("out").unwrap();
        assert_eq!(a.add(2, 3), 5);
        s.connect_uses("out", adder_handle("b")).unwrap();
        s.disconnect_uses("out", 0).unwrap();
        let snap = s.port_metrics("out").unwrap().snapshot();
        assert_eq!(snap.connects, 2);
        assert_eq!(snap.disconnects, 1);
        assert_eq!(snap.fan_out, 1);
        assert_eq!(snap.max_fan_out, 2);
        assert_eq!(snap.churn, 3);
        // release_port drops the remaining connection in one churn step.
        s.release_port("out").unwrap();
        let snap = s.port_metrics("out").unwrap().snapshot();
        assert_eq!(snap.disconnects, 2);
        assert_eq!(snap.fan_out, 0);
        assert!(s.port_metrics("ghost").is_err());
    }

    #[test]
    fn metrics_survive_copy_on_write_republication() {
        let s = CcaServices::new("c");
        s.register_uses_port("out", "demo.Adder", TypeMap::new())
            .unwrap();
        let before = s.port_metrics("out").unwrap();
        // Unrelated mutations rebuild the whole table snapshot…
        s.add_provides_port(adder_handle("p")).unwrap();
        s.connect_uses("out", adder_handle("a")).unwrap();
        // …but the slot keeps the identical metrics block.
        let after = s.port_metrics("out").unwrap();
        assert!(Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn snapshot_covers_both_tables() {
        let s = CcaServices::new("c");
        s.add_provides_port(adder_handle("give")).unwrap();
        s.register_uses_port("take", "demo.Adder", TypeMap::new())
            .unwrap();
        let all = s.metrics_snapshot();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].0.as_str(), all[0].1), ("give", "provides"));
        assert_eq!((all[1].0.as_str(), all[1].1), ("take", "uses"));
        assert!(s.port_metrics("give").is_ok());
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::resilience::{BreakerPolicy, BreakerState, Clock, MockClock, RetryPolicy};
    use std::sync::atomic::AtomicUsize;

    trait Flaky: Send + Sync {
        fn id(&self) -> &'static str;
        fn work(&self) -> Result<i64, CcaError>;
    }

    /// Fails its first `fail_first` calls, then succeeds forever.
    struct FlakyImpl {
        name: &'static str,
        fail_first: usize,
        calls: AtomicUsize,
    }
    impl Flaky for FlakyImpl {
        fn id(&self) -> &'static str {
            self.name
        }
        fn work(&self) -> Result<i64, CcaError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                Err(CcaError::Framework(format!("{} flaking ({n})", self.name)))
            } else {
                Ok(n as i64)
            }
        }
    }

    fn flaky_handle(name: &'static str, fail_first: usize) -> PortHandle {
        let obj: Arc<dyn Flaky> = Arc::new(FlakyImpl {
            name,
            fail_first,
            calls: AtomicUsize::new(0),
        });
        PortHandle::new(name, "demo.Flaky", obj)
    }

    fn wired_with_policy(
        policy: CallPolicy,
        providers: &[(&'static str, usize)],
    ) -> Arc<CcaServices> {
        let user = CcaServices::new("user");
        user.register_uses_port("work", "demo.Flaky", TypeMap::new())
            .unwrap();
        user.set_call_policy("work", Arc::new(policy)).unwrap();
        for (name, fail_first) in providers {
            user.connect_uses("work", flaky_handle(name, *fail_first))
                .unwrap();
        }
        user
    }

    #[test]
    fn cached_call_retries_deterministically() {
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_retry(RetryPolicy::new(5, 100, 1_000).with_jitter_seed(11));
        let user = wired_with_policy(policy, &[("p1", 2)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        let v = port.call(|p| p.work()).unwrap();
        assert_eq!(v, 2, "two failures were retried through");
        assert!(clock.now_ns() >= 200, "two backoff waits were charged");
    }

    #[test]
    fn quarantine_fails_over_to_the_next_provider() {
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_retry(RetryPolicy::new(4, 10, 50).with_jitter_seed(12))
            .with_breaker(BreakerPolicy::new(2, 1_000_000));
        // p1 always fails; p2 is healthy.
        let user = wired_with_policy(policy, &[("p1", usize::MAX), ("p2", 0)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        let v = port.call(|p| p.work()).unwrap();
        // Attempts 1+2 hit p1 (tripping its breaker at K=2); the breaker
        // opens, resolution fails over, and the call completes on p2.
        assert_eq!(v, 0);
        let b1 = user.connection_breaker("work", 0).unwrap().unwrap();
        assert_eq!(b1.state(), BreakerState::Open);
        // Steady state now serves p2 directly.
        let resolved = port.get().unwrap();
        assert_eq!(resolved.id(), "p2");
        // get_ports skips the quarantined provider; the raw list keeps it.
        assert_eq!(user.get_ports("work").unwrap().len(), 1);
        assert_eq!(user.snapshot().uses["work"].fan_out(), 2);
    }

    #[test]
    fn all_quarantined_is_provider_quarantined_not_a_hang() {
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_retry(RetryPolicy::new(3, 10, 50).with_jitter_seed(13))
            .with_breaker(BreakerPolicy::new(1, 1_000_000));
        let user = wired_with_policy(policy, &[("p1", usize::MAX)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        let e = port.call(|p| p.work()).unwrap_err();
        assert!(matches!(e, CcaError::ProviderQuarantined(_)), "got {e:?}");
        // Zero *healthy* providers is a legal §6.1 fan-out outcome.
        assert!(user.get_ports("work").unwrap().is_empty());
        // After the cooldown, the half-open probe lets a recovered
        // provider rejoin (the same object now succeeds: fail_first only
        // applied to its first calls... use a fresh success run).
        clock.advance_ns(1_000_000);
        assert_eq!(user.get_ports("work").unwrap().len(), 1);
    }

    #[test]
    fn deadline_bounds_the_retry_sequence() {
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_retry(RetryPolicy::new(1_000, 1_000, 1_000).with_jitter_seed(14))
            .with_deadline_ns(4_500);
        let user = wired_with_policy(policy, &[("p1", usize::MAX)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        let e = port.call(|p| p.work()).unwrap_err();
        assert!(matches!(e, CcaError::DeadlineExceeded(_)), "got {e:?}");
        assert!(clock.now_ns() <= 4_500, "no sleep past the deadline");
    }

    #[test]
    fn backoff_waits_stay_in_policy_bounds() {
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_retry(RetryPolicy::new(5, 1_000, 8_000).with_jitter_seed(3));
        let user = wired_with_policy(policy, &[("p1", 3)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        assert_eq!(
            port.call(|p| p.work()).unwrap(),
            3,
            "succeeded on the 4th attempt"
        );
        // Three backoff waits were charged to the mock clock, each within
        // [base, 8 * base].
        let elapsed = clock.now_ns();
        assert!((3_000..=24_000).contains(&elapsed), "elapsed {elapsed}");
    }

    #[test]
    fn deadline_counts_attempt_time_and_names_the_budget() {
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_retry(RetryPolicy::new(100, 1_000, 1_000).with_jitter_seed(5))
            .with_deadline_ns(3_500);
        let user = wired_with_policy(policy, &[("p1", usize::MAX)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        let e = port
            .call(|p| {
                clock.advance_ns(10); // each attempt costs simulated time
                p.work()
            })
            .unwrap_err();
        match e {
            CcaError::DeadlineExceeded(msg) => assert!(msg.contains("3500"), "{msg}"),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(clock.now_ns() <= 3_500, "never slept past the deadline");
    }

    #[test]
    fn exhausted_attempts_return_the_last_error() {
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_retry(RetryPolicy::new(3, 10, 100).with_jitter_seed(4));
        let user = wired_with_policy(policy, &[("p1", usize::MAX)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        let e = port.call(|p| p.work()).unwrap_err();
        // Calls 0, 1 and 2 were made; the error is the third one's.
        assert!(e.to_string().contains("p1 flaking (2)"), "got {e}");
    }

    #[test]
    fn breaker_refuses_then_recovers_after_cooldown() {
        let clock = MockClock::new();
        let policy =
            CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(1, 1_000));
        let user = wired_with_policy(policy, &[("p1", 1)]);
        let mut port = user.cached_port::<dyn Flaky>("work");
        assert!(port.call(|p| p.work()).is_err());
        let breaker = user.connection_breaker("work", 0).unwrap().unwrap();
        assert_eq!(breaker.state(), BreakerState::Open);
        // Refused without reaching the provider.
        let e = port
            .call(|_| -> Result<i64, CcaError> { panic!("must not be called") })
            .unwrap_err();
        assert!(matches!(e, CcaError::ProviderQuarantined(_)), "got {e:?}");
        // After the cooldown the probe goes through and closes the breaker;
        // the provider saw exactly one call before it.
        clock.advance_ns(1_000);
        assert_eq!(port.call(|p| p.work()).unwrap(), 1);
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn call_without_policy_is_a_plain_invocation() {
        let user = CcaServices::new("user");
        user.register_uses_port("work", "demo.Flaky", TypeMap::new())
            .unwrap();
        user.connect_uses("work", flaky_handle("p1", 1)).unwrap();
        let mut port = user.cached_port::<dyn Flaky>("work");
        // No retry: the first (failing) call surfaces directly.
        assert!(port.call(|p| p.work()).is_err());
        assert_eq!(port.call(|p| p.work()).unwrap(), 1);
        assert!(port.breaker().is_none());
    }
}

#[cfg(test)]
mod multicast_tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    trait Listener: Send + Sync {
        fn poke(&self);
    }
    struct L(AtomicUsize);
    impl Listener for L {
        fn poke(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn multicast_reaches_every_listener() {
        let user = CcaServices::new("emitter");
        user.register_uses_port("events", "t.Listener", TypeMap::new())
            .unwrap();
        let listeners: Vec<Arc<L>> = (0..3).map(|_| Arc::new(L(AtomicUsize::new(0)))).collect();
        for (i, l) in listeners.iter().enumerate() {
            let port: Arc<dyn Listener> = l.clone();
            user.connect_uses(
                "events",
                PortHandle::new(format!("l{i}"), "t.Listener", port),
            )
            .unwrap();
        }
        let called = user
            .multicast::<dyn Listener, _>("events", |l| l.poke())
            .unwrap();
        assert_eq!(called, 3);
        for l in &listeners {
            assert_eq!(l.0.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn multicast_with_zero_listeners_is_a_noop() {
        let user = CcaServices::new("emitter");
        user.register_uses_port("events", "t.Listener", TypeMap::new())
            .unwrap();
        let called = user
            .multicast::<dyn Listener, _>("events", |_| panic!("no listeners"))
            .unwrap();
        assert_eq!(called, 0);
        // Unknown slot still errors.
        assert!(user.multicast::<dyn Listener, _>("ghost", |_| ()).is_err());
    }
}

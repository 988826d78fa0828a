//! Configuration events — the vocabulary of the CCA Configuration API.
//!
//! §4: "The CCA Configuration API supports interaction between components
//! and various builders for functions such as notifying components that
//! they have been added to a scenario and deleted from it, redirecting
//! interactions between components, or notifying a builder of a component
//! failure." The reference framework (`cca-framework`) emits these events;
//! builders and monitoring tools subscribe with a [`ConfigListener`].

use std::sync::Arc;

/// One configuration event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigEvent {
    /// A component instance joined the scenario.
    ComponentAdded {
        /// Instance name.
        instance: String,
        /// SIDL class name.
        component_type: String,
    },
    /// A component instance was removed from the scenario.
    ComponentRemoved {
        /// Instance name.
        instance: String,
    },
    /// A connection was established.
    Connected {
        /// Using component instance.
        user: String,
        /// Uses port name.
        uses_port: String,
        /// Providing component instance.
        provider: String,
        /// Provides port name.
        provides_port: String,
        /// The port's SIDL interface type.
        port_type: String,
    },
    /// A connection was broken.
    Disconnected {
        /// Using component instance.
        user: String,
        /// Uses port name.
        uses_port: String,
        /// Providing component instance.
        provider: String,
    },
    /// A connection was redirected from one provider to another (the
    /// builder's "redirecting interactions between components").
    Redirected {
        /// Using component instance.
        user: String,
        /// Uses port name.
        uses_port: String,
        /// Old providing instance.
        old_provider: String,
        /// New providing instance.
        new_provider: String,
    },
    /// A component reported failure.
    ComponentFailed {
        /// Instance name.
        instance: String,
        /// Failure description.
        reason: String,
    },
    /// A provider's circuit breaker opened: the connection is quarantined
    /// and fan-out via `get_ports` skips it until recovery.
    ProviderQuarantined {
        /// Using component instance.
        user: String,
        /// Uses port name.
        uses_port: String,
        /// Providing component instance.
        provider: String,
        /// Consecutive-failure streak that tripped the breaker.
        consecutive_failures: u64,
    },
    /// A quarantined provider's half-open probe succeeded: the breaker
    /// closed and the connection rejoins fan-out.
    ProviderRecovered {
        /// Using component instance.
        user: String,
        /// Uses port name.
        uses_port: String,
        /// Providing component instance.
        provider: String,
    },
    /// A fleet rank's child process died (crash, `kill -9`, or connection
    /// death): the rank is quarantined and the group rolled forward to a
    /// new generation.
    RankDied {
        /// The rank that died.
        rank: u64,
        /// Incarnation of the process that died (1 = first launch).
        incarnation: u64,
        /// The generation the group moved to because of this death.
        generation: u64,
    },
    /// A restarted fleet rank rejoined the group: it replayed its rank id
    /// at the new generation and the collectives resumed.
    RankRejoined {
        /// The rank that rejoined.
        rank: u64,
        /// Incarnation of the replacement process.
        incarnation: u64,
        /// The generation it rejoined at.
        generation: u64,
    },
}

impl ConfigEvent {
    /// The name of the trace instant the framework records for this event
    /// (`cca.config.<kind>`).
    pub fn topic(&self) -> &'static str {
        match self {
            ConfigEvent::ComponentAdded { .. } => "cca.config.component_added",
            ConfigEvent::ComponentRemoved { .. } => "cca.config.component_removed",
            ConfigEvent::Connected { .. } => "cca.config.connected",
            ConfigEvent::Disconnected { .. } => "cca.config.disconnected",
            ConfigEvent::Redirected { .. } => "cca.config.redirected",
            ConfigEvent::ComponentFailed { .. } => "cca.config.component_failed",
            ConfigEvent::ProviderQuarantined { .. } => "cca.config.provider_quarantined",
            ConfigEvent::ProviderRecovered { .. } => "cca.config.provider_recovered",
            ConfigEvent::RankDied { .. } => "cca.config.rank_died",
            ConfigEvent::RankRejoined { .. } => "cca.config.rank_rejoined",
        }
    }
}

/// A subscriber to configuration events.
pub trait ConfigListener: Send + Sync {
    /// Delivers one event. Must not block for long; the framework calls
    /// listeners synchronously on the mutating thread.
    fn on_event(&self, event: &ConfigEvent);
}

/// A boxed listener registration.
pub type SharedListener = Arc<dyn ConfigListener>;

/// A simple recording listener, useful for tests and for builders that
/// replay scenario history.
#[derive(Default)]
pub struct RecordingListener {
    events: parking_lot::Mutex<Vec<ConfigEvent>>,
}

impl RecordingListener {
    /// Creates an empty recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A snapshot of all events seen so far.
    pub fn events(&self) -> Vec<ConfigEvent> {
        self.events.lock().clone()
    }

    /// Number of events seen.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if no events were seen.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl ConfigListener for RecordingListener {
    fn on_event(&self, event: &ConfigEvent) {
        self.events.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_listener_captures_in_order() {
        let rec = RecordingListener::new();
        assert!(rec.is_empty());
        rec.on_event(&ConfigEvent::ComponentAdded {
            instance: "mesh0".into(),
            component_type: "chad.Mesh".into(),
        });
        rec.on_event(&ConfigEvent::ComponentFailed {
            instance: "mesh0".into(),
            reason: "allocation".into(),
        });
        assert_eq!(rec.len(), 2);
        let events = rec.events();
        assert!(matches!(events[0], ConfigEvent::ComponentAdded { .. }));
        assert!(matches!(events[1], ConfigEvent::ComponentFailed { .. }));
    }

    #[test]
    fn topics_and_payloads_cover_every_variant() {
        let events = [
            ConfigEvent::ComponentAdded {
                instance: "m0".into(),
                component_type: "chad.Mesh".into(),
            },
            ConfigEvent::ComponentRemoved {
                instance: "m0".into(),
            },
            ConfigEvent::Connected {
                user: "u".into(),
                uses_port: "in".into(),
                provider: "p".into(),
                provides_port: "out".into(),
                port_type: "t".into(),
            },
            ConfigEvent::Disconnected {
                user: "u".into(),
                uses_port: "in".into(),
                provider: "p".into(),
            },
            ConfigEvent::Redirected {
                user: "u".into(),
                uses_port: "in".into(),
                old_provider: "p0".into(),
                new_provider: "p1".into(),
            },
            ConfigEvent::ComponentFailed {
                instance: "m0".into(),
                reason: "oom".into(),
            },
            ConfigEvent::ProviderQuarantined {
                user: "u".into(),
                uses_port: "in".into(),
                provider: "p".into(),
                consecutive_failures: 3,
            },
            ConfigEvent::ProviderRecovered {
                user: "u".into(),
                uses_port: "in".into(),
                provider: "p".into(),
            },
            ConfigEvent::RankDied {
                rank: 2,
                incarnation: 1,
                generation: 1,
            },
            ConfigEvent::RankRejoined {
                rank: 2,
                incarnation: 2,
                generation: 1,
            },
        ];
        for e in &events {
            assert!(e.topic().starts_with("cca.config."), "{}", e.topic());
        }
    }

    #[test]
    fn events_are_comparable() {
        let a = ConfigEvent::Disconnected {
            user: "u".into(),
            uses_port: "p".into(),
            provider: "x".into(),
        };
        assert_eq!(a.clone(), a);
    }
}

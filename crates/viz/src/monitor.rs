//! A monitoring component: attaches to a field source, pulls frames,
//! redistributes them to its own (serial) layout, and keeps statistics.
//!
//! This is the "dynamically attaching a visualization tool to an ongoing
//! simulation" component of §2.2 — and because it computes the transfer
//! from the two distribution descriptors, it works unchanged whether the
//! source is serial or decomposed over many ranks (§6.3's arbitrary M×N).

use crate::field::FieldSourcePort;
use crate::render::{render_ascii, FieldStats};
use cca_core::{CcaError, CcaServices, Component, PortHandle};
use cca_data::TypeMap;
use cca_data::{DistArrayDesc, Distribution, RedistPlan};
use cca_sidl::DynObject;
use parking_lot::Mutex;
use std::sync::Arc;

/// One captured frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Source frame counter at capture time.
    pub frame: u64,
    /// Statistics of the globally assembled field.
    pub stats: FieldStats,
    /// The assembled global field (serial layout).
    pub data: Vec<f64>,
}

/// The monitor: a CCA component using a `viz.FieldSource` port named
/// `"fields"` and providing nothing (a pure observer).
pub struct MonitorComponent {
    field: String,
    services: Mutex<Option<Arc<CcaServices>>>,
    history: Mutex<Vec<Frame>>,
}

impl MonitorComponent {
    /// Creates a monitor that watches the named field.
    pub fn new(field: impl Into<String>) -> Arc<Self> {
        Arc::new(MonitorComponent {
            field: field.into(),
            services: Mutex::new(None),
            history: Mutex::new(Vec::new()),
        })
    }

    /// Pulls one frame through the port: fetches every source rank's local
    /// buffer, builds and compiles the M→1 redistribution plan from the
    /// descriptors, and assembles the global field. The plan is rebuilt on
    /// every call, so it always follows the source's current layout; at
    /// a few microseconds it is small beside the capture's own copies
    /// (EXPERIMENTS.md, E7).
    pub fn capture(&self) -> Result<Frame, CcaError> {
        let services = self
            .services
            .lock()
            .clone()
            .ok_or_else(|| CcaError::Framework("setServices not called".into()))?;
        let src: Arc<dyn FieldSourcePort> = services.get_port_as("fields")?;
        let desc = src.field_desc(&self.field)?;
        let buffers: Vec<Vec<f64>> = (0..desc.nranks())
            .map(|r| src.local_field(&self.field, r))
            .collect::<Result<_, _>>()?;
        // Target: the monitor's own serial layout.
        let serial = DistArrayDesc::new(desc.global_extents(), Distribution::serial(desc.rank())?)?;
        let plan = RedistPlan::build(&desc, &serial)?.compile()?;
        let mut out = plan.apply(&buffers)?;
        let data = out.pop().unwrap_or_default();
        let frame = Frame {
            frame: src.frame(),
            stats: FieldStats::of(&data),
            data,
        };
        self.history.lock().push(frame.clone());
        Ok(frame)
    }

    /// Renders the latest captured frame as ASCII art (2-D fields only).
    pub fn render_latest(&self, width: usize, height: usize) -> Result<String, CcaError> {
        let services = self
            .services
            .lock()
            .clone()
            .ok_or_else(|| CcaError::Framework("setServices not called".into()))?;
        let src: Arc<dyn FieldSourcePort> = services.get_port_as("fields")?;
        let desc = src.field_desc(&self.field)?;
        let extents = desc.global_extents().to_vec();
        if extents.len() != 2 {
            return Err(CcaError::Framework(format!(
                "render needs a 2-D field, got rank {}",
                extents.len()
            )));
        }
        let latest = self
            .history
            .lock()
            .last()
            .cloned()
            .ok_or_else(|| CcaError::Framework("no frame captured yet".into()))?;
        Ok(render_ascii(
            &latest.data,
            extents[0],
            extents[1],
            width,
            height,
        ))
    }

    /// Captured history (oldest first).
    pub fn history(&self) -> Vec<Frame> {
        self.history.lock().clone()
    }
}

impl Component for MonitorComponent {
    fn component_type(&self) -> &str {
        "viz.Monitor"
    }

    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port(
            "fields",
            crate::field::FIELD_SOURCE_PORT_TYPE,
            TypeMap::new(),
        )?;
        *self.services.lock() = Some(services);
        Ok(())
    }
}

/// Wraps an [`InMemoryFieldSource`](crate::field::InMemoryFieldSource)
/// owner as a provider component exposing the `"fields"` provides port.
pub struct FieldProviderComponent {
    source: Arc<dyn FieldSourcePort>,
    dynamic: Option<Arc<dyn DynObject>>,
}

impl FieldProviderComponent {
    /// Wraps any field source.
    pub fn new(source: Arc<dyn FieldSourcePort>) -> Arc<Self> {
        Arc::new(FieldProviderComponent {
            source,
            dynamic: None,
        })
    }

    /// Attaches a dynamic facade for proxied connections.
    pub fn with_dynamic(
        source: Arc<dyn FieldSourcePort>,
        dynamic: Arc<dyn DynObject>,
    ) -> Arc<Self> {
        Arc::new(FieldProviderComponent {
            source,
            dynamic: Some(dynamic),
        })
    }
}

impl Component for FieldProviderComponent {
    fn component_type(&self) -> &str {
        "viz.FieldProvider"
    }

    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let mut handle = PortHandle::new(
            "fields",
            crate::field::FIELD_SOURCE_PORT_TYPE,
            Arc::clone(&self.source),
        );
        if let Some(d) = &self.dynamic {
            handle = handle.with_dynamic(Arc::clone(d));
        }
        services.add_provides_port(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::InMemoryFieldSource;
    use cca_data::{DimDist, ProcessGrid};
    use cca_framework::Framework;
    use cca_repository::Repository;

    fn wire_monitor(
        source: Arc<InMemoryFieldSource>,
        field: &str,
    ) -> (Arc<Framework>, Arc<MonitorComponent>) {
        let fw = Framework::new(Repository::new());
        let provider = FieldProviderComponent::new(source);
        let monitor = MonitorComponent::new(field);
        fw.add_instance("sim0", provider).unwrap();
        fw.add_instance("viz0", monitor.clone()).unwrap();
        fw.connect("viz0", "fields", "sim0", "fields").unwrap();
        (fw, monitor)
    }

    #[test]
    fn monitor_assembles_distributed_field() {
        // A 12-element field block-distributed over 3 "ranks".
        let desc =
            DistArrayDesc::new(&[12], cca_data::Distribution::block_1d(3, 1).unwrap()).unwrap();
        let buffers: Vec<Vec<f64>> = (0..3)
            .map(|r| (0..4).map(|k| (r * 4 + k) as f64).collect())
            .collect();
        let source = InMemoryFieldSource::new();
        source.publish("u", desc, buffers).unwrap();
        let (_fw, monitor) = wire_monitor(source, "u");
        let frame = monitor.capture().unwrap();
        assert_eq!(frame.data, (0..12).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(frame.stats.count, 12);
        assert_eq!(frame.frame, 1);
    }

    #[test]
    fn monitor_handles_cyclic_sources() {
        let dist = cca_data::Distribution::new(ProcessGrid::linear(2).unwrap(), &[DimDist::Cyclic])
            .unwrap();
        let desc = DistArrayDesc::new(&[6], dist).unwrap();
        // Rank 0 owns 0,2,4; rank 1 owns 1,3,5.
        let source = InMemoryFieldSource::new();
        source
            .publish("u", desc, vec![vec![0.0, 2.0, 4.0], vec![1.0, 3.0, 5.0]])
            .unwrap();
        let (_fw, monitor) = wire_monitor(source, "u");
        let frame = monitor.capture().unwrap();
        assert_eq!(frame.data, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn history_accumulates_frames() {
        let source = InMemoryFieldSource::new();
        let desc = DistArrayDesc::new(&[2], cca_data::Distribution::serial(1).unwrap()).unwrap();
        source
            .publish("u", desc.clone(), vec![vec![1.0, 1.0]])
            .unwrap();
        let (_fw, monitor) = wire_monitor(source.clone(), "u");
        monitor.capture().unwrap();
        source.publish("u", desc, vec![vec![2.0, 2.0]]).unwrap();
        monitor.capture().unwrap();
        let h = monitor.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].stats.mean, 1.0);
        assert_eq!(h[1].stats.mean, 2.0);
        assert!(h[1].frame > h[0].frame);
    }

    #[test]
    fn render_latest_2d() {
        let source = InMemoryFieldSource::new();
        let desc = DistArrayDesc::new(&[4, 4], cca_data::Distribution::serial(2).unwrap()).unwrap();
        let mut data = vec![0.0; 16];
        data[3] = 5.0;
        source.publish("u", desc, vec![data]).unwrap();
        let (_fw, monitor) = wire_monitor(source, "u");
        assert!(monitor.render_latest(4, 4).is_err()); // nothing captured yet
        monitor.capture().unwrap();
        let img = monitor.render_latest(4, 4).unwrap();
        assert_eq!(img.lines().count(), 4);
        assert!(img.contains('@'));
    }

    #[test]
    fn capture_without_connection_fails_cleanly() {
        let fw = Framework::new(Repository::new());
        let monitor = MonitorComponent::new("u");
        fw.add_instance("viz0", monitor.clone()).unwrap();
        assert!(monitor.capture().is_err());
    }
}

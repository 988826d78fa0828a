//! The `viz.FieldSource` port: how a simulation exposes its fields.

use cca_core::CcaError;
use cca_data::DistArrayDesc;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// SIDL type name of the field-source port.
pub const FIELD_SOURCE_PORT_TYPE: &str = "viz.FieldSource";

/// A provider of named, distributed fields.
///
/// The key design point from §6.3: the provider hands out its
/// *distribution descriptor*, and the consumer — which may be decomposed
/// entirely differently — derives the data movement itself. The provider
/// never learns who is watching.
pub trait FieldSourcePort: Send + Sync {
    /// Names of the available fields.
    fn field_names(&self) -> Vec<String>;

    /// The distribution descriptor of a field.
    fn field_desc(&self, name: &str) -> Result<DistArrayDesc, CcaError>;

    /// This rank's local portion of the field (column-major local layout,
    /// as `cca_data::DistArrayDesc::local_offset` prescribes). For serial
    /// sources `rank` is 0.
    fn local_field(&self, name: &str, rank: usize) -> Result<Vec<f64>, CcaError>;

    /// A monotonically increasing frame counter, so consumers can detect
    /// new timesteps.
    fn frame(&self) -> u64;
}

/// A simple shared-memory field source: the simulation pushes snapshots,
/// consumers pull them. Works for serial simulations and as the rank-0
/// aggregation point of parallel ones.
#[derive(Default)]
pub struct InMemoryFieldSource {
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    fields: BTreeMap<String, (DistArrayDesc, Vec<Vec<f64>>)>,
    frame: u64,
}

impl InMemoryFieldSource {
    /// Creates an empty source.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publishes (or replaces) a field: its descriptor plus one local
    /// buffer per rank of the descriptor. Bumps the frame counter.
    pub fn publish(
        &self,
        name: impl Into<String>,
        desc: DistArrayDesc,
        buffers: Vec<Vec<f64>>,
    ) -> Result<(), CcaError> {
        if buffers.len() != desc.nranks() {
            return Err(CcaError::Framework(format!(
                "field has {} buffers for {} ranks",
                buffers.len(),
                desc.nranks()
            )));
        }
        for (r, b) in buffers.iter().enumerate() {
            let want = desc.local_count(r)?;
            if b.len() != want {
                return Err(CcaError::Framework(format!(
                    "rank {r} buffer has {} elements, descriptor says {want}",
                    b.len()
                )));
            }
        }
        let mut inner = self.inner.write();
        inner.fields.insert(name.into(), (desc, buffers));
        inner.frame += 1;
        Ok(())
    }
}

impl FieldSourcePort for InMemoryFieldSource {
    fn field_names(&self) -> Vec<String> {
        self.inner.read().fields.keys().cloned().collect()
    }

    fn field_desc(&self, name: &str) -> Result<DistArrayDesc, CcaError> {
        self.inner
            .read()
            .fields
            .get(name)
            .map(|(d, _)| d.clone())
            .ok_or_else(|| CcaError::PortNotFound(format!("field '{name}'")))
    }

    fn local_field(&self, name: &str, rank: usize) -> Result<Vec<f64>, CcaError> {
        let inner = self.inner.read();
        let (desc, buffers) = inner
            .fields
            .get(name)
            .ok_or_else(|| CcaError::PortNotFound(format!("field '{name}'")))?;
        if rank >= desc.nranks() {
            return Err(CcaError::Framework(format!(
                "rank {rank} out of range for field '{name}'"
            )));
        }
        Ok(buffers[rank].clone())
    }

    fn frame(&self) -> u64 {
        self.inner.read().frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_data::Distribution;

    fn serial_desc(n: usize) -> DistArrayDesc {
        DistArrayDesc::new(&[n], Distribution::serial(1).unwrap()).unwrap()
    }

    #[test]
    fn publish_and_pull() {
        let src = InMemoryFieldSource::new();
        assert_eq!(src.frame(), 0);
        src.publish("pressure", serial_desc(4), vec![vec![1.0, 2.0, 3.0, 4.0]])
            .unwrap();
        assert_eq!(src.frame(), 1);
        assert_eq!(src.field_names(), vec!["pressure"]);
        assert_eq!(
            src.local_field("pressure", 0).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(src.field_desc("pressure").unwrap().global_extents(), &[4]);
    }

    #[test]
    fn republishing_bumps_frame() {
        let src = InMemoryFieldSource::new();
        src.publish("u", serial_desc(2), vec![vec![0.0, 0.0]])
            .unwrap();
        src.publish("u", serial_desc(2), vec![vec![1.0, 1.0]])
            .unwrap();
        assert_eq!(src.frame(), 2);
        assert_eq!(src.local_field("u", 0).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn parallel_descriptor_buffers() {
        let desc = DistArrayDesc::new(&[10], Distribution::block_1d(2, 1).unwrap()).unwrap();
        let src = InMemoryFieldSource::new();
        src.publish("u", desc, vec![vec![0.0; 5], vec![1.0; 5]])
            .unwrap();
        assert_eq!(src.local_field("u", 1).unwrap(), vec![1.0; 5]);
        assert!(src.local_field("u", 2).is_err());
    }

    #[test]
    fn validation() {
        let src = InMemoryFieldSource::new();
        // Wrong buffer count.
        assert!(src
            .publish("u", serial_desc(2), vec![vec![0.0; 2], vec![0.0; 2]])
            .is_err());
        // Wrong buffer length.
        assert!(src
            .publish("u", serial_desc(2), vec![vec![0.0; 3]])
            .is_err());
        // Missing field.
        assert!(src.field_desc("ghost").is_err());
        assert!(src.local_field("ghost", 0).is_err());
    }
}

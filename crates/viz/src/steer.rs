//! Computational steering: bounded, named parameters.
//!
//! CUMULVS (paper ref \[26\]) provided "fault tolerance, visualization and
//! steering of parallel applications"; the steering half is a registry of
//! parameters the simulation reads every timestep and a remote tool may
//! change between them. We reproduce it with explicit bounds checking and
//! a change counter so the simulation can cheaply detect "someone turned
//! a knob".

use cca_core::CcaError;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// SIDL type name of the steering port.
pub const STEERING_PORT_TYPE: &str = "viz.Steering";

/// The steering port: what a monitoring/UI component calls.
pub trait SteeringPort: Send + Sync {
    /// Registered parameter names.
    fn parameter_names(&self) -> Vec<String>;

    /// `(current, min, max)` of a parameter.
    fn get(&self, name: &str) -> Result<(f64, f64, f64), CcaError>;

    /// Sets a parameter, clamped semantics **not** applied: out-of-bounds
    /// values are rejected so a slipped finger cannot destabilize a
    /// simulation.
    fn set(&self, name: &str, value: f64) -> Result<(), CcaError>;

    /// Total number of successful sets (change detection).
    fn revision(&self) -> u64;
}

#[derive(Debug, Clone, Copy)]
struct Param {
    value: f64,
    min: f64,
    max: f64,
}

/// The registry a simulation owns and exposes as its steering port.
#[derive(Default)]
pub struct SteeringRegistry {
    inner: RwLock<(BTreeMap<String, Param>, u64)>,
}

impl SteeringRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a parameter with initial value and inclusive bounds.
    pub fn register(
        &self,
        name: impl Into<String>,
        value: f64,
        min: f64,
        max: f64,
    ) -> Result<(), CcaError> {
        let name = name.into();
        if !(min <= value && value <= max) {
            return Err(CcaError::Framework(format!(
                "parameter '{name}': initial {value} outside [{min}, {max}]"
            )));
        }
        let mut inner = self.inner.write();
        if inner.0.contains_key(&name) {
            return Err(CcaError::PortAlreadyExists(name));
        }
        inner.0.insert(name, Param { value, min, max });
        Ok(())
    }

    /// The simulation-side read (hot path; no error handling needed when
    /// the simulation registered the parameter itself).
    pub fn value(&self, name: &str) -> f64 {
        self.inner
            .read()
            .0
            .get(name)
            .map(|p| p.value)
            .unwrap_or(f64::NAN)
    }
}

impl SteeringPort for SteeringRegistry {
    fn parameter_names(&self) -> Vec<String> {
        self.inner.read().0.keys().cloned().collect()
    }

    fn get(&self, name: &str) -> Result<(f64, f64, f64), CcaError> {
        self.inner
            .read()
            .0
            .get(name)
            .map(|p| (p.value, p.min, p.max))
            .ok_or_else(|| CcaError::PortNotFound(format!("parameter '{name}'")))
    }

    fn set(&self, name: &str, value: f64) -> Result<(), CcaError> {
        let mut inner = self.inner.write();
        let (params, revision) = &mut *inner;
        let p = params
            .get_mut(name)
            .ok_or_else(|| CcaError::PortNotFound(format!("parameter '{name}'")))?;
        if !value.is_finite() || !(p.min..=p.max).contains(&value) {
            return Err(CcaError::Framework(format!(
                "parameter '{name}': {value} outside [{}, {}]",
                p.min, p.max
            )));
        }
        p.value = value;
        *revision += 1;
        Ok(())
    }

    fn revision(&self) -> u64 {
        self.inner.read().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_set_cycle() {
        let reg = SteeringRegistry::new();
        reg.register("dt", 1e-3, 1e-6, 1e-1).unwrap();
        reg.register("nu", 0.1, 0.0, 10.0).unwrap();
        assert_eq!(reg.parameter_names(), vec!["dt", "nu"]);
        assert_eq!(reg.get("dt").unwrap(), (1e-3, 1e-6, 1e-1));
        assert_eq!(reg.revision(), 0);
        reg.set("dt", 5e-3).unwrap();
        assert_eq!(reg.revision(), 1);
        assert_eq!(reg.value("dt"), 5e-3);
    }

    #[test]
    fn bounds_enforced() {
        let reg = SteeringRegistry::new();
        reg.register("omega", 1.0, 0.0, 2.0).unwrap();
        assert!(reg.set("omega", 2.5).is_err());
        assert!(reg.set("omega", -0.1).is_err());
        assert!(reg.set("omega", f64::NAN).is_err());
        assert_eq!(reg.value("omega"), 1.0);
        assert_eq!(reg.revision(), 0);
        // Boundary values are accepted (inclusive bounds).
        reg.set("omega", 2.0).unwrap();
        reg.set("omega", 0.0).unwrap();
        assert_eq!(reg.revision(), 2);
    }

    #[test]
    fn registration_validation() {
        let reg = SteeringRegistry::new();
        assert!(reg.register("bad", 5.0, 0.0, 1.0).is_err());
        reg.register("x", 0.5, 0.0, 1.0).unwrap();
        assert!(reg.register("x", 0.5, 0.0, 1.0).is_err());
    }

    #[test]
    fn unknown_parameters() {
        let reg = SteeringRegistry::new();
        assert!(reg.get("nope").is_err());
        assert!(reg.set("nope", 1.0).is_err());
        assert!(reg.value("nope").is_nan());
    }
}

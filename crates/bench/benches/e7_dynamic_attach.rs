//! E7 — §2.2's dynamic interactions, costed:
//!
//!   step_with_viz/{0,1}  — a simulation timestep with zero or one
//!                          attached visualization consumers (the attach
//!                          cost is per-frame field extraction +
//!                          redistribution, proportional to field bytes —
//!                          never a restructuring of the simulation);
//!   reconnect/redirect   — the builder operation that swaps a provider
//!                          behind a live uses port: O(bookkeeping), not
//!                          O(simulation state);
//!   attach_detach        — full component add + connect + disconnect +
//!                          remove cycle.

use cca::core::CcaServices;
use cca::framework::Framework;
use cca::repository::Repository;
use cca::solvers::precond::Identity;
use cca::solvers::{HydroConfig, HydroSim};
use cca::viz::monitor::FieldProviderComponent;
use cca::viz::{InMemoryFieldSource, MonitorComponent};
use cca_bench::{Harness, Report};
use cca_data::{DistArrayDesc, Distribution};
use std::sync::Arc;

fn cfg() -> HydroConfig {
    HydroConfig {
        nx: 32,
        ny: 32,
        ..Default::default()
    }
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e7_dynamic_attach", &h);

    // Timestep with 0 or 1 attached monitors.
    for viz_count in [0usize, 1] {
        let mut sim = HydroSim::new(cfg(), 1, 0);
        let source = InMemoryFieldSource::new();
        let desc =
            DistArrayDesc::new(&[cfg().nx, cfg().ny], Distribution::serial(2).unwrap()).unwrap();
        let fw = Framework::new(Repository::new());
        fw.add_instance("sim0", FieldProviderComponent::new(source.clone()))
            .unwrap();
        let monitors: Vec<Arc<MonitorComponent>> = (0..viz_count)
            .map(|i| {
                let m = MonitorComponent::new("u");
                fw.add_instance(format!("viz{i}"), m.clone()).unwrap();
                fw.connect(&format!("viz{i}"), "fields", "sim0", "fields")
                    .unwrap();
                m
            })
            .collect();
        report.metric(
            &format!("step_with_viz_{viz_count}_ns"),
            h.time(|| {
                sim.step(None, &Identity).unwrap();
                if !monitors.is_empty() {
                    source
                        .publish("u", desc.clone(), vec![sim.u.clone()])
                        .unwrap();
                    for m in &monitors {
                        m.capture().unwrap();
                    }
                }
            }),
        );
    }

    // Builder redirect cost (swap provider behind a live uses port).
    {
        use cca::core::{CcaError, Component, PortHandle};
        use cca_data::TypeMap;
        struct Prov;
        impl Component for Prov {
            fn component_type(&self) -> &str {
                "bench.P"
            }
            fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
                s.add_provides_port(PortHandle::new("out", "bench.T", Arc::new(0u8)))
            }
        }
        struct User;
        impl Component for User {
            fn component_type(&self) -> &str {
                "bench.U"
            }
            fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
                s.register_uses_port("in", "bench.T", TypeMap::new())
            }
        }
        let fw = Framework::new(Repository::new());
        fw.add_instance("a", Arc::new(Prov)).unwrap();
        fw.add_instance("b", Arc::new(Prov)).unwrap();
        fw.add_instance("u", Arc::new(User)).unwrap();
        fw.connect("u", "in", "a", "out").unwrap();
        let mut current = "a";
        report.metric(
            "redirect_provider_ns",
            h.time(|| {
                let next = if current == "a" { "b" } else { "a" };
                fw.redirect("u", "in", current, next, "out").unwrap();
                current = next;
            }),
        );
    }

    // Full attach/detach cycle of a monitor component.
    let source = InMemoryFieldSource::new();
    let fw = Framework::new(Repository::new());
    fw.add_instance("sim0", FieldProviderComponent::new(source))
        .unwrap();
    let mut k = 0u64;
    report.metric(
        "attach_detach_cycle_ns",
        h.time(|| {
            let name = format!("viz{k}");
            k += 1;
            let m = MonitorComponent::new("u");
            fw.add_instance(&name, m).unwrap();
            fw.connect(&name, "fields", "sim0", "fields").unwrap();
            fw.destroy_instance(&name).unwrap();
        }),
    );
    report.finish();
}

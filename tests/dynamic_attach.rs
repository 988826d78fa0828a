//! §2.2 — dynamic reconfiguration of a running application: "a researcher
//! may wish to visualize flow fields on a local workstation by dynamically
//! attaching a visualization tool to an ongoing simulation ... Upon
//! observing that the flow fields are not converging as expected, the
//! researcher may wish to introduce a new scheme."
//!
//! The test runs the hydro simulation for a few steps, attaches a monitor
//! mid-run, keeps stepping, detaches it, swaps the solver's preconditioner
//! by builder redirection, and confirms the simulation never noticed.

use cca::core::event::RecordingListener;
use cca::core::ConfigEvent;
use cca::framework::Framework;
use cca::repository::Repository;
use cca::solvers::esi::{
    expose_precond_ports, expose_solver_ports, LinearSolverPort, MatrixComponent, PrecondComponent,
    PrecondKind, SolverComponent, SolverConfig, ESI_SIDL,
};
use cca::solvers::precond::Identity;
use cca::solvers::{CsrMatrix, HydroConfig, HydroSim};
use cca::viz::monitor::FieldProviderComponent;
use cca::viz::{InMemoryFieldSource, MonitorComponent, SteeringPort, SteeringRegistry};
use cca_data::{DistArrayDesc, Distribution};
use std::sync::Arc;

fn serial_desc(sim: &HydroSim) -> DistArrayDesc {
    DistArrayDesc::new(
        &[sim.mesh.nx, sim.mesh.ny],
        Distribution::serial(2).unwrap(),
    )
    .unwrap()
}

#[test]
fn attach_monitor_mid_run_and_detach() {
    let cfg = HydroConfig {
        nx: 12,
        ny: 12,
        ..Default::default()
    };
    let mut sim = HydroSim::new(cfg, 1, 0);
    let source = InMemoryFieldSource::new();
    let publish = |sim: &HydroSim, src: &InMemoryFieldSource| {
        src.publish("u", serial_desc(sim), vec![sim.u.clone()])
            .unwrap();
    };

    let fw = Framework::new(Repository::new());
    fw.add_instance("sim0", FieldProviderComponent::new(source.clone()))
        .unwrap();
    let rec = RecordingListener::new();
    fw.add_listener(rec.clone());

    // Phase 1: run un-observed.
    for _ in 0..3 {
        sim.step(None, &Identity).unwrap();
        publish(&sim, &source);
    }

    // Phase 2: dynamically attach the visualizer to the ongoing run.
    let monitor = MonitorComponent::new("u");
    fw.add_instance("viz0", monitor.clone()).unwrap();
    fw.connect("viz0", "fields", "sim0", "fields").unwrap();
    for _ in 0..3 {
        sim.step(None, &Identity).unwrap();
        publish(&sim, &source);
        monitor.capture().unwrap();
    }
    assert_eq!(monitor.history().len(), 3);
    // Frames advance and the field is live.
    let h = monitor.history();
    assert!(h[2].frame > h[0].frame);
    assert!(h[0].stats.max > 0.0);
    let img = monitor.render_latest(16, 8).unwrap();
    assert_eq!(img.lines().count(), 8);

    // Phase 3: detach. The simulation keeps stepping unaffected.
    fw.destroy_instance("viz0").unwrap();
    for _ in 0..2 {
        sim.step(None, &Identity).unwrap();
        publish(&sim, &source);
    }
    assert!(sim.u.iter().all(|v| v.is_finite()));

    // The builder observed the whole story.
    let events = rec.events();
    assert!(events
        .iter()
        .any(|e| matches!(e, ConfigEvent::ComponentAdded { instance, .. } if instance == "viz0")));
    assert!(events
        .iter()
        .any(|e| matches!(e, ConfigEvent::Connected { user, .. } if user == "viz0")));
    assert!(events
        .iter()
        .any(|e| matches!(e, ConfigEvent::Disconnected { user, .. } if user == "viz0")));
    assert!(events
        .iter()
        .any(|e| matches!(e, ConfigEvent::ComponentRemoved { instance } if instance == "viz0")));
}

#[test]
fn swap_solver_components_mid_run_via_redirect() {
    // Assemble matrix + two preconditioners + solver; solve, redirect,
    // solve again. "Incremental shifts in parallel algorithms ... during
    // the lifetimes of scientific application codes" (§1).
    let a = CsrMatrix::laplacian_2d(10, 10);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();

    let repo = Repository::new();
    repo.deposit_sidl(ESI_SIDL).unwrap();
    let fw = Framework::new(repo);
    let rec = RecordingListener::new();
    fw.add_listener(rec.clone());

    fw.add_instance("matrix0", MatrixComponent::new(a)).unwrap();
    let weak = PrecondComponent::new(PrecondKind::Identity);
    let strong = PrecondComponent::new(PrecondKind::Ilu0);
    let solver = SolverComponent::new(SolverConfig::default());
    fw.add_instance("weak0", weak.clone()).unwrap();
    fw.add_instance("strong0", strong.clone()).unwrap();
    fw.add_instance("solver0", solver.clone()).unwrap();
    expose_precond_ports(&weak).unwrap();
    expose_precond_ports(&strong).unwrap();
    expose_solver_ports(&solver).unwrap();
    fw.connect("weak0", "A", "matrix0", "A").unwrap();
    fw.connect("strong0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "M", "weak0", "M").unwrap();

    let port: Arc<dyn LinearSolverPort> = fw
        .services("solver0")
        .unwrap()
        .get_provides_port("solver")
        .unwrap()
        .typed()
        .unwrap();
    let (x1, s1) = port.solve_system(&b).unwrap();

    // Mid-run component swap.
    fw.redirect("solver0", "M", "weak0", "strong0", "M")
        .unwrap();
    let (x2, s2) = port.solve_system(&b).unwrap();

    // Same answer, fewer iterations.
    for (a_, b_) in x1.iter().zip(&x2) {
        assert!((a_ - b_).abs() < 1e-5);
    }
    assert!(s2.iterations < s1.iterations, "{s2:?} vs {s1:?}");
    assert!(rec
        .events()
        .iter()
        .any(|e| matches!(e, ConfigEvent::Redirected { .. })));
}

#[test]
fn steering_changes_take_effect_between_steps() {
    // The CUMULVS-style knob: steer the viscosity mid-run and watch the
    // decay rate change.
    let registry = SteeringRegistry::new();
    registry.register("nu", 0.01, 0.0, 10.0).unwrap();

    let mut cfg = HydroConfig {
        nx: 12,
        ny: 12,
        vx: 0.0,
        vy: 0.0,
        ..Default::default()
    };
    cfg.nu = registry.value("nu");
    let mut sim = HydroSim::new(cfg, 1, 0);
    let m0 = sim.max_abs(None).unwrap();
    for _ in 0..3 {
        sim.step(None, &Identity).unwrap();
    }
    let m1 = sim.max_abs(None).unwrap();
    let slow_decay = m0 - m1;

    // Remote tool turns the knob way up. The simulation re-reads it and
    // rebuilds its operator (new HydroSim with same field).
    registry.set("nu", 5.0).unwrap();
    assert_eq!(registry.revision(), 1);
    let mut cfg2 = cfg;
    cfg2.nu = registry.value("nu");
    let mut sim2 = HydroSim::new(cfg2, 1, 0);
    sim2.u = sim.u.clone();
    let m2 = sim2.max_abs(None).unwrap();
    for _ in 0..3 {
        sim2.step(None, &Identity).unwrap();
    }
    let m3 = sim2.max_abs(None).unwrap();
    let fast_decay = m2 - m3;
    assert!(
        fast_decay > slow_decay * 2.0,
        "steering must accelerate decay: slow {slow_decay}, fast {fast_decay}"
    );
}

//! §2.2's dynamic-interaction scenario, executable:
//!
//! ```text
//! cargo run --example dynamic_steering
//! ```
//!
//! 1. A simulation runs with a weak solver configuration.
//! 2. A monitor attaches mid-run and reports that convergence is slow.
//! 3. The builder swaps in an ILU(0) preconditioner *without stopping the
//!    simulation* (framework `redirect`).
//! 4. A steering knob raises the viscosity, visibly changing the physics.

use cca::core::event::RecordingListener;
use cca::framework::Framework;
use cca::repository::Repository;
use cca::solvers::esi::{
    expose_precond_ports, expose_solver_ports, LinearSolverPort, MatrixComponent, PrecondComponent,
    PrecondKind, SolverComponent, SolverConfig, ESI_SIDL,
};
use cca::solvers::{HydroConfig, HydroSim, KrylovKind};
use cca::viz::monitor::FieldProviderComponent;
use cca::viz::{InMemoryFieldSource, MonitorComponent, SteeringPort, SteeringRegistry};
use cca_data::{DistArrayDesc, Distribution};
use std::sync::Arc;

fn main() {
    let registry = SteeringRegistry::new();
    registry.register("nu", 0.02, 0.0, 5.0).unwrap();

    let mut cfg = HydroConfig {
        nx: 24,
        ny: 24,
        dt: 4e-3,
        vx: 0.8,
        vy: 0.3,
        tol: 1e-9,
        max_iter: 2000,
        kind: KrylovKind::Cg,
        nu: 0.0, // set from the registry below
    };
    cfg.nu = registry.value("nu");

    // Assemble Figure 1's solver chain as CCA components.
    let mut sim = HydroSim::new(cfg, 1, 0);
    let repo = Repository::new();
    repo.deposit_sidl(ESI_SIDL).unwrap();
    let fw = Framework::new(repo);
    let rec = RecordingListener::new();
    fw.add_listener(rec.clone());

    fw.add_instance("matrix0", MatrixComponent::new(sim.local_matrix()))
        .unwrap();
    let weak = PrecondComponent::new(PrecondKind::Identity);
    let strong = PrecondComponent::new(PrecondKind::Ilu0);
    let solver = SolverComponent::new(SolverConfig {
        kind: cfg.kind,
        tol: cfg.tol,
        max_iter: cfg.max_iter,
    });
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
    let step = |sim: &mut HydroSim, port: &Arc<dyn LinearSolverPort>| {
        sim.step_with_solver(None, &|_op, b, x| {
            let (solution, stats) = port.solve_system(b)?;
            x.copy_from_slice(&solution);
            Ok(stats)
        })
        .unwrap()
    };

    // Field publication for the monitor.
    let source = InMemoryFieldSource::new();
    let desc = DistArrayDesc::new(&[cfg.nx, cfg.ny], Distribution::serial(2).unwrap()).unwrap();
    fw.add_instance("fields0", FieldProviderComponent::new(source.clone()))
        .unwrap();

    println!("phase 1: unobserved, unpreconditioned");
    for s in 0..3 {
        let stats = step(&mut sim, &port);
        source
            .publish("u", desc.clone(), vec![sim.u.clone()])
            .unwrap();
        println!("  step {s}: {} CG iterations", stats.iterations);
    }

    println!("phase 2: researcher attaches a monitor mid-run");
    let monitor = MonitorComponent::new("u");
    fw.add_instance("viz0", monitor.clone()).unwrap();
    fw.connect("viz0", "fields", "fields0", "fields").unwrap();
    let frame = monitor.capture().unwrap();
    println!(
        "  captured frame {}: max {:.4}, mean {:.5}",
        frame.frame, frame.stats.max, frame.stats.mean
    );
    println!("{}", monitor.render_latest(48, 16).unwrap());

    println!("phase 3: swap preconditioner components mid-run (redirect)");
    let before = step(&mut sim, &port).iterations;
    fw.redirect("solver0", "M", "weak0", "strong0", "M")
        .unwrap();
    let after = step(&mut sim, &port).iterations;
    println!("  CG iterations: {before} before swap, {after} after ILU(0)");
    assert!(after <= before);

    println!("phase 4: steer the viscosity knob");
    let peak_before = sim.max_abs(None).unwrap();
    registry.set("nu", 2.5).unwrap();
    // The simulation notices the revision change and rebuilds its operator.
    let mut cfg2 = cfg;
    cfg2.nu = registry.value("nu");
    let mut steered = HydroSim::new(cfg2, 1, 0);
    steered.u = sim.u.clone();
    // Rebuild the matrix component to match (a new instance, new wiring).
    fw.add_instance("matrix1", MatrixComponent::new(steered.local_matrix()))
        .unwrap();
    fw.redirect("solver0", "A", "matrix0", "matrix1", "A")
        .unwrap();
    fw.redirect("strong0", "A", "matrix0", "matrix1", "A")
        .unwrap();
    let stats = step(&mut steered, &port);
    println!(
        "  nu {} -> {}: peak {:.4} -> {:.4} in one step ({} iters)",
        cfg.nu,
        cfg2.nu,
        peak_before,
        steered.max_abs(None).unwrap(),
        stats.iterations
    );
    assert!(steered.max_abs(None).unwrap() < peak_before);

    println!(
        "builder event log: {} events ({} connections made)",
        rec.len(),
        rec.events()
            .iter()
            .filter(|e| matches!(e, cca::core::ConfigEvent::Connected { .. }))
            .count()
    );
}

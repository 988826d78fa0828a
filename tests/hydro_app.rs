//! F1 — the complete Figure 1 application, assembled two ways:
//!
//! * **monolithic** — `HydroSim::step` calling its own kernels directly
//!   (the pre-CCA CHAD style);
//! * **componentized** — the identical numerics with the implicit solve
//!   routed through CCA ports: matrix component, preconditioner component,
//!   Krylov solver component, wired by the reference framework.
//!
//! The claim under test is §6.2's "no penalty" in *semantics*: the two
//! assemblies must produce identical fields and identical Krylov
//! trajectories. (The cost side is experiment E6 in the bench suite.)

use cca::framework::Framework;
use cca::repository::Repository;
use cca::solvers::esi::{
    expose_precond_ports, expose_solver_ports, LinearSolverPort, MatrixComponent, PrecondComponent,
    PrecondKind, SolverComponent, SolverConfig, ESI_SIDL,
};
use cca::solvers::precond::Jacobi;
use cca::solvers::{HydroConfig, HydroSim, KrylovKind};
use std::sync::Arc;

mod common;

fn cfg() -> HydroConfig {
    HydroConfig {
        nx: 16,
        ny: 16,
        dt: 2e-3,
        nu: 0.2,
        vx: 0.7,
        vy: -0.4,
        tol: 1e-10,
        max_iter: 600,
        kind: KrylovKind::Cg,
    }
}

#[test]
fn componentized_assembly_reproduces_monolithic_run() {
    let steps = 4;

    // ---- monolithic reference -------------------------------------
    let mut mono = HydroSim::new(cfg(), 1, 0);
    let a_mono = mono.local_matrix();
    let jac = Jacobi::new(&a_mono);
    let mut mono_iters = Vec::new();
    for _ in 0..steps {
        mono_iters.push(mono.step(None, &jac).unwrap().iterations);
    }

    // ---- componentized assembly ------------------------------------
    let mut comp = HydroSim::new(cfg(), 1, 0);
    let a = comp.local_matrix();
    let repo = Repository::new();
    repo.deposit_sidl(ESI_SIDL).unwrap();
    let fw = Framework::new(repo);
    let matrix = MatrixComponent::new(a);
    let precond = PrecondComponent::new(PrecondKind::Jacobi);
    let solver = SolverComponent::new(SolverConfig {
        kind: cfg().kind,
        tol: cfg().tol,
        max_iter: cfg().max_iter,
    });
    fw.add_instance("matrix0", matrix).unwrap();
    fw.add_instance("precond0", precond.clone()).unwrap();
    fw.add_instance("solver0", solver.clone()).unwrap();
    expose_precond_ports(&precond).unwrap();
    expose_solver_ports(&solver).unwrap();
    fw.connect("precond0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "M", "precond0", "M").unwrap();

    let solver_port: Arc<dyn LinearSolverPort> = fw
        .services("solver0")
        .unwrap()
        .get_provides_port("solver")
        .unwrap()
        .typed()
        .unwrap();

    let mut comp_iters = Vec::new();
    for _ in 0..steps {
        let stats = comp
            .step_with_solver(None, &|_op, b, x| {
                // Route the implicit solve through the CCA port. The
                // operator the component sees is the explicit matrix,
                // which equals the matrix-free operator serially (see
                // `local_matrix_matches_matrix_free_operator_serially`).
                let (solution, stats) = solver_port.solve_system(b)?;
                x.copy_from_slice(&solution);
                Ok(stats)
            })
            .unwrap();
        comp_iters.push(stats.iterations);
    }

    // Nearly identical Krylov trajectories — the port path starts from a
    // zero initial guess while the monolithic path warm-starts from u*,
    // which is worth at most a couple of CG iterations...
    for (m, c) in mono_iters.iter().zip(&comp_iters) {
        assert!(
            (*m as i64 - *c as i64).abs() <= 2,
            "mono {mono_iters:?} vs comp {comp_iters:?}"
        );
    }
    // ...and identical fields. A warm-start difference exists (the
    // component starts from zero, the monolithic path from u*), so allow
    // solver-tolerance-level discrepancy only.
    for (m, c) in mono.u.iter().zip(&comp.u) {
        assert!((m - c).abs() < 1e-7, "{m} vs {c}");
    }
}

#[test]
fn solver_kind_is_swappable_behind_the_same_port() {
    // §2.2: "to experiment more easily with multiple solution strategies".
    // Same assembly, three Krylov kinds, same answer.
    let base_cfg = cfg();
    let mut reference: Option<Vec<f64>> = None;
    for kind in [
        KrylovKind::Cg,
        KrylovKind::BiCgStab,
        KrylovKind::Gmres { restart: 25 },
    ] {
        let mut sim = HydroSim::new(base_cfg, 1, 0);
        let a = sim.local_matrix();
        let repo = Repository::new();
        repo.deposit_sidl(ESI_SIDL).unwrap();
        let fw = Framework::new(repo);
        fw.add_instance("matrix0", MatrixComponent::new(a)).unwrap();
        let solver = SolverComponent::new(SolverConfig {
            kind,
            tol: 1e-11,
            max_iter: 2000,
        });
        fw.add_instance("solver0", solver.clone()).unwrap();
        expose_solver_ports(&solver).unwrap();
        fw.connect("solver0", "A", "matrix0", "A").unwrap();
        let port: Arc<dyn LinearSolverPort> = fw
            .services("solver0")
            .unwrap()
            .get_provides_port("solver")
            .unwrap()
            .typed()
            .unwrap();
        for _ in 0..2 {
            sim.step_with_solver(None, &|_op, b, x| {
                let (solution, stats) = port.solve_system(b)?;
                x.copy_from_slice(&solution);
                Ok(stats)
            })
            .unwrap();
        }
        match &reference {
            None => reference = Some(sim.u.clone()),
            Some(r) => {
                for (a_, b_) in r.iter().zip(&sim.u) {
                    assert!((a_ - b_).abs() < 1e-6, "{kind:?}: {a_} vs {b_}");
                }
            }
        }
    }
}

#[test]
fn parallel_figure1_pipeline_runs_under_spmd() {
    use cca::parallel::spmd;
    use cca::solvers::precond::Identity;
    // The tightly-coupled half of Figure 1 on 4 ranks: mesh +
    // discretization + solver all SPMD, collective dots inside CG.
    let cfg = HydroConfig {
        nx: 20,
        ny: 20,
        ..Default::default()
    };
    let masses = spmd(4, |c| {
        let mut sim = HydroSim::new(cfg, 4, c.rank());
        for _ in 0..3 {
            let stats = sim.step(Some(c), &Identity).unwrap();
            assert!(stats.converged);
        }
        sim.mass(Some(c)).unwrap()
    });
    // Every rank agrees on the global mass (allreduce semantics).
    for m in &masses {
        assert!((m - masses[0]).abs() < 1e-14);
    }
    // And it matches the serial run.
    let mut serial = HydroSim::new(cfg, 1, 0);
    for _ in 0..3 {
        serial.step(None, &Identity).unwrap();
    }
    assert!((serial.mass(None).unwrap() - masses[0]).abs() < 1e-10);
}

/// The configuration every pinned digest below is taken at, `n × n`.
fn pinned_cfg(n: usize) -> HydroConfig {
    HydroConfig {
        nx: n,
        ny: n,
        dt: 1e-3,
        nu: 0.1,
        vx: 1.0,
        vy: 0.5,
        tol: 1e-8,
        max_iter: 600,
        kind: KrylovKind::Cg,
    }
}

/// Ten steps at `n × n` with every implicit solve handed to `solve`;
/// returns the total iteration count and the final field's digest.
fn digest_through(n: usize, solve: &cca::solvers::hydro::SolveFn<'_>) -> (usize, u64) {
    let mut sim = HydroSim::new(pinned_cfg(n), 1, 0);
    let mut iterations = 0;
    for _ in 0..10 {
        let stats = sim.step_with_solver(None, solve).unwrap();
        assert!(stats.converged);
        iterations += stats.iterations;
    }
    (iterations, common::field_digest(&sim.u))
}

/// Runs ten monolithic steps at `n × n` (Jacobi-preconditioned CG from a
/// zero guess on the assembled matrix) and returns the total iteration
/// count and the final field's digest.
fn monolithic_digest(n: usize) -> (usize, u64) {
    use cca::solvers::{cg, SerialReduce};
    let a = HydroSim::new(pinned_cfg(n), 1, 0).local_matrix();
    let jacobi = Jacobi::new(&a);
    digest_through(n, &|_op, rhs, x| {
        x.fill(0.0);
        cg(&a, &jacobi, rhs, x, 1e-8, 600, &SerialReduce)
    })
}

#[test]
fn monolithic_fields_are_pinned_bit_for_bit() {
    // Any change to how the operator, the preconditioner or CG is stored
    // or summed must leave every bit of these trajectories where it is.
    assert_eq!(monolithic_digest(17), (60, 0xfab3f6f87ab0de30));
    assert_eq!(monolithic_digest(64), (91, 0x293e1d2850c6573a));
    assert_eq!(monolithic_digest(192), (288, 0xc790a49c58997b37));
}

/// The solver assembly ccabench's hydro workloads build at `n × n`:
/// matrix, Jacobi preconditioner and CG components, wired by direct
/// connection. Returns the framework and the solver component.
fn solver_assembly(n: usize) -> (Arc<Framework>, Arc<SolverComponent>) {
    let a = HydroSim::new(pinned_cfg(n), 1, 0).local_matrix();
    let repo = Repository::new();
    repo.deposit_sidl(ESI_SIDL).unwrap();
    let fw = Framework::new(repo);
    fw.add_instance("matrix0", MatrixComponent::new(a)).unwrap();
    let precond = PrecondComponent::new(PrecondKind::Jacobi);
    let solver = SolverComponent::new(SolverConfig {
        kind: KrylovKind::Cg,
        tol: 1e-8,
        max_iter: 600,
    });
    fw.add_instance("precond0", precond.clone()).unwrap();
    fw.add_instance("solver0", solver.clone()).unwrap();
    expose_precond_ports(&precond).unwrap();
    expose_solver_ports(&solver).unwrap();
    fw.connect("precond0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "M", "precond0", "M").unwrap();
    (fw, solver)
}

fn componentized_digest(n: usize) -> (usize, u64) {
    let (fw, _solver) = solver_assembly(n);
    let port: Arc<dyn LinearSolverPort> = fw
        .services("solver0")
        .unwrap()
        .get_provides_port("solver")
        .unwrap()
        .typed()
        .unwrap();
    digest_through(n, &|_op, rhs, x| {
        let (solution, stats) = port.solve_system(rhs)?;
        x.copy_from_slice(&solution);
        Ok(stats)
    })
}

/// The user side of a remote solve: one uses slot for the solver port.
struct Caller;
impl cca::core::Component for Caller {
    fn component_type(&self) -> &str {
        "test.HydroCaller"
    }
    fn set_services(
        &self,
        services: Arc<cca::core::CcaServices>,
    ) -> Result<(), cca::core::CcaError> {
        services.register_uses_port("solver", "esi.LinearSolver", cca::data::TypeMap::new())
    }
}

/// The solve exported over tcp+mux from an in-process server and called
/// through a second framework's proxy, as ccabench's `hydro_remote` does.
fn remote_digest(n: usize) -> (usize, u64) {
    use cca::framework::RemoteTransportKind;
    use cca::sidl::DynValue;
    let (fw, solver) = solver_assembly(n);
    let key = fw.export_port("solver0", "solver").unwrap();
    let server = fw.serve_tcp_mux("127.0.0.1:0").unwrap();
    let user_side = Framework::new(Repository::new());
    user_side.add_instance("caller0", Arc::new(Caller)).unwrap();
    user_side
        .connect_remote_with(
            "caller0",
            "solver",
            &server.local_addr().to_string(),
            &key,
            RemoteTransportKind::Mux,
        )
        .unwrap();
    let proxy = Arc::clone(
        user_side
            .services("caller0")
            .unwrap()
            .get_port("solver")
            .unwrap()
            .dynamic()
            .expect("a remote port is its own dynamic facade"),
    );
    let digest = digest_through(n, &|_op, rhs, x| {
        let arr = cca::data::NdArray::from_vec(&[rhs.len()], rhs.to_vec()).unwrap();
        let reply = proxy
            .invoke("solve", vec![DynValue::DoubleArray(arr)])
            .map_err(cca::core::CcaError::Sidl)?;
        let DynValue::DoubleArray(out) = reply else {
            panic!("solve returned {reply:?}, not an array");
        };
        x.copy_from_slice(out.as_slice());
        // Both frameworks live in this process: the servant's statistics
        // are one read away.
        Ok(solver.last_stats().expect("the servant just solved"))
    });
    server.shutdown();
    digest
}

#[test]
fn componentized_direct_connect_solve_reproduces_the_pinned_digests() {
    // Same operator, same preconditioner, zero start: the ports move no
    // arithmetic, so every bit matches the monolithic pins.
    assert_eq!(componentized_digest(17), (60, 0xfab3f6f87ab0de30));
    assert_eq!(componentized_digest(64), (91, 0x293e1d2850c6573a));
    assert_eq!(componentized_digest(192), (288, 0xc790a49c58997b37));
}

#[test]
fn tcp_mux_remote_solve_reproduces_the_pinned_digests() {
    // The value codec carries each f64's bits both ways, so the wire
    // moves no bit either.
    assert_eq!(remote_digest(17), (60, 0xfab3f6f87ab0de30));
    assert_eq!(remote_digest(64), (91, 0x293e1d2850c6573a));
}

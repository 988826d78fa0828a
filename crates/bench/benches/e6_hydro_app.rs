//! E6 — Figure 1 end-to-end: what does componentization cost a real
//! timestep loop?
//!
//! For each mesh size, one semi-implicit timestep (explicit advection +
//! implicit CG solve) is measured in assemblies with *identical numerics*
//! (same CSR operator, same Jacobi preconditioner, same zero initial
//! guess), differing only in how the solve is invoked:
//!   monolithic/*            — direct call into the solver kernels;
//!   componentized/*         — the same solve routed through CCA
//!                             direct-connect ports (matrix component →
//!                             preconditioner component → solver
//!                             component);
//!   componentized_proxied/* — the same solve marshaled through the ORB,
//!                             quantifying what misapplying the
//!                             distributed option to a tightly coupled
//!                             inner loop would cost.
//! A fourth series, monolithic_matrixfree/*, is the fused stencil +
//! warm-start implementation a hand-optimized code would use — context for
//! what implementation fusion (orthogonal to componentization) buys.
//!
//! The kernel rows (`matvec_ns`, `matvec_reference_csr_ns`, `dot_ns`,
//! `axpy_ns`, `jacobi_ns`) divide the solve: each kernel a CG iteration
//! runs, alone on the 192² operator ccabench's `hydro_direct` uses, beside
//! `copy_ns`, a `copy_from_slice` of one vector, as the roofline.
//! The shape gate is `matvec_over_by_diagonal_ratio`: the matvec against
//! the same operator with one diagonal made dense, which every row sums
//! one diagonal at a time, in alternating rounds. Writing each `y`
//! element once reads 0.45–0.63 of that loop (medians, fast mode, 2-vCPU
//! Xeon); a one-value matvec that makes a `y` pass per diagonal reads
//! 0.92–1.23 and is red. `matvec_over_copy_ratio` is recorded beside it
//! and not gated: on that host it read 3.7 to 6.9 for unchanged code, as
//! the load other tenants put on the box moved the matvec and not the copy.
//! `cg_reductions_per_iteration` (2) and `cg_matvecs_per_iteration` (1)
//! are exact counts from the `cca_obs::solvers()` counters, what a CG
//! iteration asks of the communicator and of the operator.
//! `operator_bands_64` is the structural gate behind them: if the hydro
//! operator stops being recognised as five diagonals, that count turns CI
//! red rather than a timing row reading 2× on a noisy box.
//! `operator_coefficient_bytes_192` gates the storage those diagonals are
//! read from: each holds one value, so a `matvec` reads 40 B of them plus
//! the 382 edge rows it sums again, not five dense arrays.
//!
//! Expected shape: componentized ≈ monolithic (the gap is a handful of
//! virtual calls per *solve*, not per matrix application); proxied adds a
//! marshaling constant that only amortizes as the mesh grows.

use cca::framework::Framework;
use cca::repository::Repository;
use cca::solvers::esi::{
    expose_precond_ports, expose_solver_ports, LinearSolverPort, MatrixComponent, PrecondComponent,
    PrecondKind, SolverComponent, SolverConfig, ESI_SIDL,
};
use cca::solvers::precond::{Jacobi, Preconditioner};
use cca::solvers::vector::{axpy, dot_local};
use cca::solvers::{CsrMatrix, HydroConfig, HydroSim, KrylovKind};
use cca_bench::{batch, Harness, Report};
use cca_data::NdArray;
use cca_sidl::DynValue;
use std::hint::black_box;
use std::sync::Arc;

/// Bound on `matvec_over_by_diagonal_ratio`, between the one-pass loop's
/// reading and that of a one-pass loop that makes one `y` pass per
/// diagonal.
const MATVEC_OVER_BY_DIAGONAL: f64 = 0.8;

fn cfg(n: usize) -> HydroConfig {
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

struct Assembly {
    _fw: Arc<Framework>,
    port: Arc<dyn LinearSolverPort>,
    dynamic: Arc<dyn cca_sidl::DynObject>,
}

fn assemble(sim: &HydroSim) -> Assembly {
    let repo = Repository::new();
    repo.deposit_sidl(ESI_SIDL).unwrap();
    let fw = Framework::new(repo);
    fw.add_instance("matrix0", MatrixComponent::new(sim.local_matrix()))
        .unwrap();
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
    let handle = fw
        .services("solver0")
        .unwrap()
        .get_provides_port("solver")
        .unwrap();
    Assembly {
        port: handle.typed().unwrap(),
        dynamic: handle.dynamic().unwrap().clone(),
        _fw: fw,
    }
}

/// The same operator rebuilt from its rows, with `edit` applied to the
/// column and value arrays before `CsrMatrix::new` sees them.
fn rebuilt(a: &CsrMatrix, edit: impl FnOnce(&mut [usize], &mut [f64])) -> CsrMatrix {
    let mut indptr = vec![0];
    let mut indices = Vec::with_capacity(a.nnz());
    let mut data = Vec::with_capacity(a.nnz());
    for r in 0..a.nrows() {
        for (c, v) in a.row(r) {
            indices.push(c);
            data.push(v);
        }
        indptr.push(indices.len());
    }
    edit(&mut indices, &mut data);
    CsrMatrix::new(a.nrows(), a.ncols(), indptr, indices, data).unwrap()
}

/// One row per kernel of a CG iteration, at 192².
fn kernel_rows(report: &mut Report, h: &Harness) {
    let a = HydroSim::new(cfg(192), 1, 0).local_matrix();
    report
        .count("operator_coefficient_bytes_192", a.coefficient_bytes() as f64)
        .exactly(
            6152.0,
            "five one-value diagonals (40 B) and 382 edge hole rows (16 B each); stored dense they read 1,471,472",
        );
    // Row 0's first two columns out of order: the CSR loop.
    let reference = rebuilt(&a, |indices, data| {
        indices.swap(0, 1);
        data.swap(0, 1);
    });
    assert_eq!(reference.band_count(), None);
    // Row 0's main-diagonal entry doubled: that diagonal is dense, so every
    // row goes one diagonal at a time, a `y` pass per diagonal per tile.
    let by_diagonal = rebuilt(&a, |_, data| data[0] *= 2.0);
    assert_eq!(
        by_diagonal.coefficient_bytes(),
        4 * 8 + a.nrows() * 8 + 382 * 16
    );
    let jac = Jacobi::new(&a);
    let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 7) as f64).collect();
    let (mut y, mut y_tiled, mut copied) = (
        vec![0.0; a.nrows()],
        vec![0.0; a.nrows()],
        vec![0.0; a.nrows()],
    );
    let rounds = h.rounds(&mut [
        &mut batch(|| black_box(&mut copied).copy_from_slice(black_box(&x))),
        &mut batch(|| a.matvec(black_box(&x), black_box(&mut y))),
        &mut batch(|| by_diagonal.matvec(black_box(&x), black_box(&mut y_tiled))),
    ]);
    report.metric("copy_ns", rounds.stats(0));
    report.metric("matvec_ns", rounds.stats(1));
    report.metric("matvec_by_diagonal_ns", rounds.stats(2));
    report.metric("matvec_over_copy_ratio", rounds.derive(|s| s[1] / s[0]));
    report
        .metric("matvec_over_by_diagonal_ratio", rounds.derive(|s| s[1] / s[2]))
        .median_at_most(
            MATVEC_OVER_BY_DIAGONAL,
            "a one-value-diagonal matvec writes each y element once; a y pass per diagonal reads ~1 or more",
        );
    let mut row = |name: &str, f: &mut dyn FnMut(&mut [f64])| {
        report.metric(&format!("{name}_ns"), h.time(|| f(&mut y)));
    };
    row("matvec_reference_csr", &mut |y| reference.matvec(&x, y));
    row("dot", &mut |y| y[0] = dot_local(&x, &x));
    row("axpy", &mut |y| axpy(1e-9, &x, y));
    row("jacobi", &mut |y| jac.apply(&x, y));
    cg_counts(report, &a, &jac, &x);
}

/// What one CG iteration asks of the communicator and the operator, from
/// the `cca_obs::solvers()` counters: the 192² system solved from zero to
/// two tolerances, each count differenced over the iterations the tighter
/// solve added, so the work a solve does once (its first residual and
/// norm) cancels.
fn cg_counts(report: &mut Report, a: &CsrMatrix, jac: &Jacobi, b: &[f64]) {
    let solve = |tol: f64| {
        let before = cca::obs::solvers().snapshot();
        let mut x = vec![0.0; b.len()];
        cca::solvers::cg(a, jac, b, &mut x, tol, 600, &cca::solvers::SerialReduce).unwrap();
        let after = cca::obs::solvers().snapshot();
        [
            after.cg_iterations - before.cg_iterations,
            after.reductions - before.reductions,
            after.matvecs - before.matvecs,
        ]
    };
    cca::obs::set_counters(true);
    let (loose, tight) = (solve(1e-4), solve(1e-8));
    cca::obs::set_counters(false);
    let per_iteration = |k: usize| (tight[k] - loose[k]) as f64 / (tight[0] - loose[0]) as f64;
    report
        .count("cg_reductions_per_iteration", per_iteration(1))
        .exactly(
            2.0,
            "CG reduces twice an iteration: p·Ap, then (r·z, r·r) paired",
        );
    report
        .count("cg_matvecs_per_iteration", per_iteration(2))
        .exactly(1.0, "CG applies the operator once an iteration");
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e6_hydro_app", &h);

    report
        .count(
            "operator_bands_64",
            HydroSim::new(cfg(64), 1, 0)
                .local_matrix()
                .band_count()
                .map_or(-1.0, |d| d as f64),
        )
        .exactly(
            5.0,
            "the 5-point operator is stored as five diagonals; -1 means matvec fell back to the CSR loop",
        );
    kernel_rows(&mut report, &h);

    for n in [16usize, 32, 64] {
        let pristine = HydroSim::new(cfg(n), 1, 0);
        let fresh = || HydroSim::new(cfg(n), 1, 0);

        // Monolithic: direct call, but numerically identical to the port
        // path (same CSR operator, same preconditioner, zero start). Each
        // sample steps a *fresh* simulation so the CG iteration count is
        // identical across variants and never decays to breakdown.
        let a = pristine.local_matrix();
        let jac = Jacobi::new(&a);
        report.metric(
            &format!("monolithic_{n}_ns"),
            h.time_with_setup(fresh, |sim| {
                sim.step_with_solver(None, &|_op, rhs, x| {
                    x.fill(0.0);
                    cca::solvers::cg(&a, &jac, rhs, x, 1e-8, 600, &cca::solvers::SerialReduce)
                })
                .unwrap()
            }),
        );

        // The fused, warm-started, matrix-free loop a hand-tuned code
        // would write — implementation fusion, orthogonal to CCA.
        report.metric(
            &format!("monolithic_matrixfree_{n}_ns"),
            h.time_with_setup(fresh, |sim| sim.step(None, &jac).unwrap()),
        );

        // Componentized, direct-connect ports.
        let assembly = assemble(&pristine);
        let port = Arc::clone(&assembly.port);
        report.metric(
            &format!("componentized_{n}_ns"),
            h.time_with_setup(fresh, |sim| {
                sim.step_with_solver(None, &|_op, rhs, x| {
                    let (solution, stats) = port.solve_system(rhs)?;
                    x.copy_from_slice(&solution);
                    Ok(stats)
                })
                .unwrap()
            }),
        );

        // Componentized with the solve marshaled through the ORB — the
        // wrong tool for a tightly coupled loop, quantified.
        let orb = cca::rpc::Orb::new();
        orb.register("solver", Arc::clone(&assembly.dynamic));
        let objref = cca::rpc::ObjRef::loopback("solver", orb);
        report.metric(
            &format!("componentized_proxied_{n}_ns"),
            h.time_with_setup(fresh, |sim| {
                sim.step_with_solver(None, &|_op, rhs, x| {
                    let arr = NdArray::from_vec(&[rhs.len()], rhs.to_vec()).unwrap();
                    let reply = objref
                        .invoke("solve", vec![DynValue::DoubleArray(arr)])
                        .map_err(cca::core::CcaError::Sidl)?;
                    let DynValue::DoubleArray(out) = reply else {
                        return Err(cca::core::CcaError::Framework("bad reply".into()));
                    };
                    x.copy_from_slice(out.as_slice());
                    Ok(cca::solvers::SolveStats {
                        iterations: 0,
                        residual: 0.0,
                        converged: true,
                    })
                })
                .unwrap()
            }),
        );
    }

    // SPMD scaling of the monolithic step (the tightly-coupled upper half
    // of Figure 1): one timestep on p ranks, measured end-to-end including
    // thread-group setup, so interpret as assembly cost + stepping.
    for p in [1usize, 2, 4] {
        report.metric(
            &format!("spmd_step_{p}_ranks_ns"),
            h.time(|| {
                cca::parallel::spmd(p, |c| {
                    let mut sim = HydroSim::new(cfg(48), p, c.rank());
                    sim.step(Some(c), &cca::solvers::precond::Identity).unwrap();
                })
            }),
        );
    }
    report.finish();
}

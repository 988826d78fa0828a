//! The ESI-style port layer: the `esi` SIDL package, Rust port traits, and
//! CCA components wrapping the numerical kernels.
//!
//! This is where the toolkit becomes *components*: a matrix provider, a
//! preconditioner, and a Krylov solver, each a [`cca_core::Component`]
//! with SIDL-described ports, wireable by the reference framework exactly
//! as Figure 1 draws them. Each provides port carries both the typed trait
//! object (direct-connect fast path) and a [`cca_sidl::DynObject`] facade
//! (reflective calls and proxied connections). The facade is the
//! skeleton the crate's build script generates from `sidl/esi.sidl`
//! ([`sidl`]); the components implement the generated traits and write
//! no dispatch code of their own.

use crate::csr::CsrMatrix;
use crate::krylov::{solve, KrylovKind, LinearOperator, SolveStats};
use crate::precond::{Identity, Ilu0, Jacobi, Preconditioner, Ssor};
use crate::vector::SerialReduce;
use cca_core::{CcaError, CcaServices, Component, PortHandle};
use cca_data::{NdArray, TypeMap};
use cca_sidl::{DynObject, SidlError};
use parking_lot::Mutex;
use std::sync::Arc;

/// The SIDL description of this package's ports — deposit into a
/// repository with `repo.deposit_sidl(ESI_SIDL)`.
pub const ESI_SIDL: &str = include_str!("../sidl/esi.sidl");

mod generated {
    include!(concat!(env!("OUT_DIR"), "/esi.rs"));
}

/// The `esi` package as the generator emits it from [`ESI_SIDL`]: one
/// trait, stub and skeleton per type.
pub use generated::esi as sidl;

// ---- typed port traits ---------------------------------------------------

/// The `esi.Operator` / `esi.MatrixOperator` port.
trait OperatorPort: Send + Sync {
    /// Local row count.
    fn rows(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// The CSR matrix behind the operator, when one exists (preconditioner
    /// setup needs it).
    fn csr(&self) -> Option<CsrMatrix> {
        None
    }
}

/// The `esi.Preconditioner` port.
trait PreconditionerPort: Send + Sync {
    /// `z = M⁻¹ r`.
    fn apply_inverse(&self, r: &[f64], z: &mut [f64]);
    /// Preconditioner name.
    fn precond_name(&self) -> String;
}

/// The `esi.LinearSolver` port.
pub trait LinearSolverPort: Send + Sync {
    /// Solves `A x = b`, returning the solution and statistics.
    fn solve_system(&self, b: &[f64]) -> Result<(Vec<f64>, SolveStats), CcaError>;
}

// ---- matrix component ------------------------------------------------------

/// A component providing a CSR matrix as an `esi.MatrixOperator` port
/// named `"A"`.
pub struct MatrixComponent {
    a: Arc<CsrMatrix>,
}

impl MatrixComponent {
    /// Wraps a matrix.
    pub fn new(a: CsrMatrix) -> Arc<Self> {
        Arc::new(MatrixComponent { a: Arc::new(a) })
    }
}

struct MatrixOperator {
    a: Arc<CsrMatrix>,
}

impl OperatorPort for MatrixOperator {
    fn rows(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.matvec(x, y);
    }
    fn csr(&self) -> Option<CsrMatrix> {
        Some((*self.a).clone())
    }
}

impl sidl::Operator for MatrixOperator {
    fn rows(&self) -> Result<i32, SidlError> {
        Ok(self.a.nrows() as i32)
    }
    fn apply(&self, x: &NdArray<f64>) -> Result<NdArray<f64>, SidlError> {
        let mut y = vec![0.0; self.a.nrows()];
        self.a.matvec(x.as_slice(), &mut y);
        Ok(NdArray::from_vec(&[y.len()], y).expect("length matches"))
    }
}

impl sidl::MatrixOperator for MatrixOperator {
    fn nnz(&self) -> Result<i32, SidlError> {
        Ok(self.a.nnz() as i32)
    }
}

impl Component for MatrixComponent {
    fn component_type(&self) -> &str {
        "esi.MatrixComponent"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let op = Arc::new(MatrixOperator {
            a: Arc::clone(&self.a),
        });
        let typed: Arc<dyn OperatorPort> = op.clone();
        let dynamic: Arc<dyn DynObject> = Arc::new(sidl::MatrixOperatorSkel(op));
        services.add_provides_port(
            PortHandle::new("A", "esi.MatrixOperator", typed).with_dynamic(dynamic),
        )
    }
}

// ---- preconditioner component ----------------------------------------------

/// Which preconditioner a [`PrecondComponent`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecondKind {
    /// `M = I`.
    Identity,
    /// Diagonal scaling.
    Jacobi,
    /// Symmetric SOR with ω = 1.
    Ssor,
    /// Zero-fill incomplete LU.
    Ilu0,
}

impl PrecondKind {
    fn build(self, a: Option<&CsrMatrix>) -> Result<Box<dyn Preconditioner>, CcaError> {
        match self {
            PrecondKind::Identity => Ok(Box::new(Identity)),
            kind => {
                let a = a.ok_or_else(|| {
                    CcaError::Framework(format!(
                        "{kind:?} preconditioner needs a matrix-backed operator"
                    ))
                })?;
                Ok(match kind {
                    PrecondKind::Jacobi => Box::new(Jacobi::new(a)),
                    PrecondKind::Ssor => Box::new(Ssor::new(a, 1.0)),
                    PrecondKind::Ilu0 => Box::new(Ilu0::new(a)),
                    PrecondKind::Identity => unreachable!(),
                })
            }
        }
    }
}

/// A component that *uses* an operator port `"A"` and *provides* an
/// `esi.Preconditioner` port `"M"`, building its factorization lazily on
/// first application (after the builder has wired it).
pub struct PrecondComponent {
    kind: PrecondKind,
    services: Mutex<Option<Arc<CcaServices>>>,
    built: Mutex<Option<Arc<dyn Preconditioner>>>,
}

impl PrecondComponent {
    /// Creates a component that will build the given preconditioner kind.
    pub fn new(kind: PrecondKind) -> Arc<Self> {
        Arc::new(PrecondComponent {
            kind,
            services: Mutex::new(None),
            built: Mutex::new(None),
        })
    }

    fn ensure_built(&self) -> Result<Arc<dyn Preconditioner>, CcaError> {
        if let Some(p) = self.built.lock().clone() {
            return Ok(p);
        }
        let services = self
            .services
            .lock()
            .clone()
            .ok_or_else(|| CcaError::Framework("setServices not called".into()))?;
        let op: Arc<dyn OperatorPort> = services.get_port_as("A")?;
        let pre: Arc<dyn Preconditioner> = self.kind.build(op.csr().as_ref())?.into();
        *self.built.lock() = Some(Arc::clone(&pre));
        Ok(pre)
    }
}

struct PrecondFacade {
    owner: Arc<PrecondComponent>,
}

impl PreconditionerPort for PrecondFacade {
    fn apply_inverse(&self, r: &[f64], z: &mut [f64]) {
        match self.owner.ensure_built() {
            Ok(p) => p.apply(r, z),
            Err(_) => z.copy_from_slice(r), // degrade to identity
        }
    }
    fn precond_name(&self) -> String {
        match self.owner.ensure_built() {
            Ok(p) => p.name().to_string(),
            Err(_) => "unbuilt".to_string(),
        }
    }
}

impl sidl::Preconditioner for PrecondFacade {
    fn applyInverse(&self, r: &NdArray<f64>) -> Result<NdArray<f64>, SidlError> {
        let mut z = vec![0.0; r.len()];
        self.apply_inverse(r.as_slice(), &mut z);
        Ok(NdArray::from_vec(&[z.len()], z).expect("length matches"))
    }
    fn name(&self) -> Result<String, SidlError> {
        Ok(self.precond_name())
    }
}

impl Component for PrecondComponent {
    fn component_type(&self) -> &str {
        "esi.PrecondComponent"
    }
    fn set_services(self: &PrecondComponent, services: Arc<CcaServices>) -> Result<(), CcaError> {
        // The facade needs an `Arc` back to this component, which `&self`
        // cannot supply, so this only stores the services; the ports are
        // registered by `expose_precond_ports`, whose caller holds the `Arc`.
        *self.services.lock() = Some(Arc::clone(&services));
        Ok(())
    }
}

/// Finishes wiring a [`PrecondComponent`]: registers its uses/provides
/// ports. Called by assembly helpers after `add_instance` (which consumed
/// `set_services`). Needing the `Arc` explains the two-phase setup.
pub fn expose_precond_ports(c: &Arc<PrecondComponent>) -> Result<(), CcaError> {
    let services = c
        .services
        .lock()
        .clone()
        .ok_or_else(|| CcaError::Framework("setServices not called".into()))?;
    services.register_uses_port("A", "esi.MatrixOperator", TypeMap::new())?;
    let facade = Arc::new(PrecondFacade {
        owner: Arc::clone(c),
    });
    let typed: Arc<dyn PreconditionerPort> = facade.clone();
    let dynamic: Arc<dyn DynObject> = Arc::new(sidl::PreconditionerSkel(facade));
    services
        .add_provides_port(PortHandle::new("M", "esi.Preconditioner", typed).with_dynamic(dynamic))
}

// ---- Krylov solver component -------------------------------------------------

/// Solver configuration for [`SolverComponent`].
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Krylov method.
    pub kind: KrylovKind,
    /// Relative tolerance.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            kind: KrylovKind::Cg,
            tol: 1e-8,
            max_iter: 1000,
        }
    }
}

/// A component that uses `"A"` (operator) and optionally `"M"`
/// (preconditioner) ports and provides an `esi.LinearSolver` port named
/// `"solver"`.
pub struct SolverComponent {
    cfg: SolverConfig,
    services: Mutex<Option<Arc<CcaServices>>>,
    last_stats: Mutex<Option<SolveStats>>,
}

impl SolverComponent {
    /// Creates a solver component.
    pub fn new(cfg: SolverConfig) -> Arc<Self> {
        Arc::new(SolverComponent {
            cfg,
            services: Mutex::new(None),
            last_stats: Mutex::new(None),
        })
    }

    /// Statistics of the most recent solve, if any.
    pub fn last_stats(&self) -> Option<SolveStats> {
        *self.last_stats.lock()
    }
}

/// Adapter: a uses-port operator as a [`LinearOperator`].
struct PortOperator {
    port: Arc<dyn OperatorPort>,
}

impl LinearOperator for PortOperator {
    fn rows(&self) -> usize {
        self.port.rows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CcaError> {
        self.port.apply(x, y);
        Ok(())
    }
}

/// Adapter: a uses-port preconditioner as a [`Preconditioner`].
struct PortPrecond {
    port: Arc<dyn PreconditionerPort>,
}

impl Preconditioner for PortPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.port.apply_inverse(r, z);
    }
    fn name(&self) -> &'static str {
        "port"
    }
}

struct SolverFacade {
    owner: Arc<SolverComponent>,
}

impl LinearSolverPort for SolverFacade {
    fn solve_system(&self, b: &[f64]) -> Result<(Vec<f64>, SolveStats), CcaError> {
        let services = self
            .owner
            .services
            .lock()
            .clone()
            .ok_or_else(|| CcaError::Framework("setServices not called".into()))?;
        let a: Arc<dyn OperatorPort> = services.get_port_as("A")?;
        let op = PortOperator { port: a };
        let pre: Box<dyn Preconditioner> = match services.get_port_as::<dyn PreconditionerPort>("M")
        {
            Ok(p) => Box::new(PortPrecond { port: p }),
            Err(_) => Box::new(Identity), // unconnected M: run unpreconditioned
        };
        let mut x = vec![0.0; b.len()];
        let stats = solve(
            self.owner.cfg.kind,
            &op,
            pre.as_ref(),
            b,
            &mut x,
            self.owner.cfg.tol,
            self.owner.cfg.max_iter,
            &SerialReduce,
        )?;
        *self.owner.last_stats.lock() = Some(stats);
        if !stats.converged {
            return Err(CcaError::Sidl(SidlError::user(
                "esi.SolveFailure",
                format!(
                    "did not converge: {} iterations, residual {:.3e}",
                    stats.iterations, stats.residual
                ),
            )));
        }
        Ok((x, stats))
    }
}

impl sidl::LinearSolver for SolverFacade {
    fn solve(&self, b: &NdArray<f64>) -> Result<NdArray<f64>, SidlError> {
        let (x, _stats) = self.solve_system(b.as_slice()).map_err(|e| match e {
            CcaError::Sidl(se) => se,
            other => SidlError::invoke(other.to_string()),
        })?;
        Ok(NdArray::from_vec(&[x.len()], x).expect("length matches"))
    }
    fn lastIterations(&self) -> Result<i32, SidlError> {
        Ok(self
            .owner
            .last_stats()
            .map(|s| s.iterations as i32)
            .unwrap_or(-1))
    }
}

impl Component for SolverComponent {
    fn component_type(&self) -> &str {
        "esi.SolverComponent"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        *self.services.lock() = Some(services);
        Ok(())
    }
}

/// Finishes wiring a [`SolverComponent`] (two-phase setup, as with
/// [`expose_precond_ports`]).
pub fn expose_solver_ports(c: &Arc<SolverComponent>) -> Result<(), CcaError> {
    let services = c
        .services
        .lock()
        .clone()
        .ok_or_else(|| CcaError::Framework("setServices not called".into()))?;
    services.register_uses_port("A", "esi.MatrixOperator", TypeMap::new())?;
    services.register_uses_port("M", "esi.Preconditioner", TypeMap::new())?;
    let facade = Arc::new(SolverFacade {
        owner: Arc::clone(c),
    });
    let typed: Arc<dyn LinearSolverPort> = facade.clone();
    let dynamic: Arc<dyn DynObject> = Arc::new(sidl::LinearSolverSkel(facade));
    services.add_provides_port(
        PortHandle::new("solver", "esi.LinearSolver", typed).with_dynamic(dynamic),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_framework::{ConnectionPolicy, Framework};
    use cca_repository::Repository;
    use cca_sidl::DynValue;

    /// Assembles matrix + preconditioner + solver in a framework and
    /// returns (framework, solver component).
    fn assemble(
        a: CsrMatrix,
        pkind: PrecondKind,
        policy: ConnectionPolicy,
    ) -> (Arc<Framework>, Arc<SolverComponent>) {
        let repo = Repository::new();
        repo.deposit_sidl(ESI_SIDL).unwrap();
        let fw = Framework::with_policy(repo, policy);
        let matrix = MatrixComponent::new(a);
        let precond = PrecondComponent::new(pkind);
        let solver = SolverComponent::new(SolverConfig::default());
        fw.add_instance("matrix0", matrix).unwrap();
        fw.add_instance("precond0", precond.clone()).unwrap();
        fw.add_instance("solver0", solver.clone()).unwrap();
        expose_precond_ports(&precond).unwrap();
        expose_solver_ports(&solver).unwrap();
        fw.connect("precond0", "A", "matrix0", "A").unwrap();
        fw.connect("solver0", "A", "matrix0", "A").unwrap();
        fw.connect("solver0", "M", "precond0", "M").unwrap();
        (fw, solver)
    }

    fn poisson_problem(nx: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = CsrMatrix::laplacian_2d(nx, nx);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b);
        (a, b, x_true)
    }

    #[test]
    fn figure1_assembly_solves_through_ports() {
        let (a, b, x_true) = poisson_problem(8);
        let (fw, solver) = assemble(a, PrecondKind::Jacobi, ConnectionPolicy::Direct);
        let port: Arc<dyn LinearSolverPort> = fw
            .services("solver0")
            .unwrap()
            .get_provides_port("solver")
            .unwrap()
            .typed()
            .unwrap();
        let (x, stats) = port.solve_system(&b).unwrap();
        assert!(stats.converged);
        assert_eq!(solver.last_stats().unwrap().iterations, stats.iterations);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-5);
        }
    }

    #[test]
    fn preconditioner_choice_changes_iteration_count() {
        let (a, b, _) = poisson_problem(12);
        let mut iters = Vec::new();
        for pkind in [
            PrecondKind::Identity,
            PrecondKind::Jacobi,
            PrecondKind::Ilu0,
        ] {
            let (fw, _solver) = assemble(a.clone(), pkind, ConnectionPolicy::Direct);
            let port: Arc<dyn LinearSolverPort> = fw
                .services("solver0")
                .unwrap()
                .get_provides_port("solver")
                .unwrap()
                .typed()
                .unwrap();
            let (_, stats) = port.solve_system(&b).unwrap();
            iters.push(stats.iterations);
        }
        // ILU(0) must beat unpreconditioned on the model problem.
        assert!(iters[2] < iters[0], "{iters:?}");
    }

    #[test]
    fn solve_through_proxied_connection_gives_same_answer() {
        let (a, b, _) = poisson_problem(6);
        // Direct reference.
        let (fw_d, _) = assemble(a.clone(), PrecondKind::Jacobi, ConnectionPolicy::Direct);
        let direct: Arc<dyn LinearSolverPort> = fw_d
            .services("solver0")
            .unwrap()
            .get_provides_port("solver")
            .unwrap()
            .typed()
            .unwrap();
        let (x_direct, _) = direct.solve_system(&b).unwrap();
        // Proxied assembly: the solver's dynamic facade is called through
        // the ORB by an external driver.
        let (fw_p, _) = assemble(a, PrecondKind::Jacobi, ConnectionPolicy::Direct);
        // Use the provides port's dynamic facade through an explicit ORB
        // proxy (simulates a remote driver).
        let handle = fw_p
            .services("solver0")
            .unwrap()
            .get_provides_port("solver")
            .unwrap();
        let servant = handle.dynamic().unwrap().clone();
        let orb = cca_rpc::Orb::new();
        orb.register("solver", servant);
        let objref = cca_rpc::ObjRef::loopback("solver", orb);
        let arr = NdArray::from_vec(&[b.len()], b.clone()).unwrap();
        let reply = objref
            .invoke("solve", vec![DynValue::DoubleArray(arr)])
            .unwrap();
        let DynValue::DoubleArray(x_remote) = reply else {
            panic!("expected array reply");
        };
        for (d, r) in x_direct.iter().zip(x_remote.as_slice()) {
            assert!((d - r).abs() < 1e-12);
        }
    }

    #[test]
    fn unconnected_preconditioner_degrades_to_identity() {
        let (a, b, _) = poisson_problem(6);
        let repo = Repository::new();
        repo.deposit_sidl(ESI_SIDL).unwrap();
        let fw = Framework::new(repo);
        let matrix = MatrixComponent::new(a);
        let solver = SolverComponent::new(SolverConfig::default());
        fw.add_instance("matrix0", matrix).unwrap();
        fw.add_instance("solver0", solver.clone()).unwrap();
        expose_solver_ports(&solver).unwrap();
        fw.connect("solver0", "A", "matrix0", "A").unwrap();
        // "M" left unconnected.
        let port: Arc<dyn LinearSolverPort> = fw
            .services("solver0")
            .unwrap()
            .get_provides_port("solver")
            .unwrap()
            .typed()
            .unwrap();
        let (_, stats) = port.solve_system(&b).unwrap();
        assert!(stats.converged);
    }

    #[test]
    fn non_convergence_raises_solve_failure() {
        let (a, b, _) = poisson_problem(10);
        let repo = Repository::new();
        repo.deposit_sidl(ESI_SIDL).unwrap();
        let fw = Framework::new(repo);
        let matrix = MatrixComponent::new(a);
        let solver = SolverComponent::new(SolverConfig {
            kind: KrylovKind::Cg,
            tol: 1e-14,
            max_iter: 2, // far too few
        });
        fw.add_instance("matrix0", matrix).unwrap();
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
        let err = port.solve_system(&b).unwrap_err();
        assert!(err.to_string().contains("SolveFailure"), "{err}");
    }

    #[test]
    fn sidl_description_compiles_and_matches_ports() {
        let model = cca_sidl::compile(ESI_SIDL).unwrap();
        let q = cca_sidl::QName::parse;
        assert!(model.interface(&q("esi.LinearSolver")).is_some());
        assert!(model.is_subtype_of(&q("esi.MatrixOperator"), &q("esi.Operator")));
        let reflection = cca_sidl::Reflection::from_model(&model);
        let solver_info = reflection.type_info("esi.LinearSolver").unwrap();
        assert!(solver_info.method("solve").is_some());
        assert_eq!(
            solver_info.method("solve").unwrap().throws,
            vec!["esi.SolveFailure".to_string()]
        );
    }

    #[test]
    fn swap_preconditioner_mid_run_via_redirect() {
        let (a, b, _) = poisson_problem(8);
        let (fw, _solver) = assemble(a, PrecondKind::Identity, ConnectionPolicy::Direct);
        let port: Arc<dyn LinearSolverPort> = fw
            .services("solver0")
            .unwrap()
            .get_provides_port("solver")
            .unwrap()
            .typed()
            .unwrap();
        let (_, stats_identity) = port.solve_system(&b).unwrap();
        // Drop in an ILU(0) preconditioner component and redirect (§2.2:
        // "introduce new components during the course of ongoing
        // simulations").
        let better = PrecondComponent::new(PrecondKind::Ilu0);
        fw.add_instance("precond1", better.clone()).unwrap();
        expose_precond_ports(&better).unwrap();
        fw.connect("precond1", "A", "matrix0", "A").unwrap();
        fw.redirect("solver0", "M", "precond0", "precond1", "M")
            .unwrap();
        let (_, stats_ilu) = port.solve_system(&b).unwrap();
        assert!(
            stats_ilu.iterations < stats_identity.iterations,
            "ilu {} vs identity {}",
            stats_ilu.iterations,
            stats_identity.iterations
        );
    }
}

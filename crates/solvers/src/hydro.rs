//! CHAD-mini: a semi-implicit 2-D advection–diffusion solver.
//!
//! The paper's motivating application (§2) solves compressible
//! Navier–Stokes with semi-implicit timestepping, whose "most
//! computationally intensive phase ... is the solution of discretized
//! linear systems". We reproduce the *structure* with an honest scalar
//! model problem: advect a scalar field explicitly (first-order upwind),
//! diffuse it implicitly (backward Euler), so every timestep assembles a
//! right-hand side and solves the SPD system `(I + ν·Δt/h² · L) u = u*`
//! with a Krylov method — exactly the mesh → discretization →
//! preconditioner ⇄ solver pipeline of Figure 1.
//!
//! The same code runs serial (`p = 1`, no communicator) and SPMD; E6
//! compares this *monolithic* implementation against the identical
//! numerics assembled from CCA components.

use crate::csr::CsrMatrix;
use crate::krylov::{solve, KrylovKind, LinearOperator, SolveStats};
use crate::mesh::Mesh2d;
use crate::precond::Preconditioner;
use crate::vector::{CommReduce, Reduction};
use cca_core::CcaError;
use cca_parallel::{Comm, MaxOp, ParallelError, Tag};

/// Message tag used by the hydro halo exchanges.
const HYDRO_TAG: Tag = 0x48; // 'H'

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HydroConfig {
    /// Global cells in x.
    pub nx: usize,
    /// Global cells in y.
    pub ny: usize,
    /// Timestep.
    pub dt: f64,
    /// Kinematic viscosity (diffusion coefficient).
    pub nu: f64,
    /// Advection velocity (x component).
    pub vx: f64,
    /// Advection velocity (y component).
    pub vy: f64,
    /// Relative tolerance of the implicit solve.
    pub tol: f64,
    /// Iteration budget of the implicit solve.
    pub max_iter: usize,
    /// Krylov method for the implicit solve.
    pub kind: KrylovKind,
}

impl Default for HydroConfig {
    fn default() -> Self {
        HydroConfig {
            nx: 32,
            ny: 32,
            dt: 5e-4,
            nu: 0.1,
            vx: 1.0,
            vy: 0.5,
            tol: 1e-8,
            max_iter: 500,
            kind: KrylovKind::Cg,
        }
    }
}

/// The pluggable implicit-solve hook: given the operator and right-hand
/// side, fill `x` with the solution (see
/// [`HydroSim::step_with_solver`]).
pub type SolveFn<'a> =
    dyn Fn(&DiffusionOp<'_>, &[f64], &mut [f64]) -> Result<SolveStats, CcaError> + 'a;

/// The implicit-diffusion operator `(I + c·L)` applied matrix-free with a
/// halo exchange per application — the parallel mat-vec of §2.1's
/// gather/scatter pattern.
pub struct DiffusionOp<'a> {
    /// Mesh geometry for this rank.
    pub mesh: &'a Mesh2d,
    /// Communicator (None for serial meshes).
    pub comm: Option<&'a Comm>,
    /// `ν·Δt / h²`.
    pub coef: f64,
}

impl LinearOperator for DiffusionOp<'_> {
    fn rows(&self) -> usize {
        self.mesh.local_len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CcaError> {
        let m = self.mesh;
        let nx = m.nx;
        let mut g = m.add_ghosts(x);
        m.halo_exchange(self.comm, &mut g, HYDRO_TAG)?;
        for j in 0..m.ny_local {
            for i in 0..nx {
                let c = g[m.gidx(i, j)];
                let w = if i > 0 { g[m.gidx(i - 1, j)] } else { 0.0 };
                let e = if i + 1 < nx { g[m.gidx(i + 1, j)] } else { 0.0 };
                let s = g[m.gidx(i, j) - nx]; // ghosted row below
                let n = g[m.gidx(i, j) + nx]; // ghosted row above
                y[m.idx(i, j)] = c + self.coef * (4.0 * c - w - e - s - n);
            }
        }
        Ok(())
    }
}

/// One rank's share of the simulation.
pub struct HydroSim {
    /// Parameters.
    pub cfg: HydroConfig,
    /// This rank's mesh block.
    pub mesh: Mesh2d,
    /// The scalar field on owned cells.
    pub u: Vec<f64>,
    h: f64,
    coef: f64,
}

impl HydroSim {
    /// Creates rank `rank` of `p` with a Gaussian blob initial condition
    /// centred at (0.3, 0.4) in the unit square.
    pub fn new(cfg: HydroConfig, p: usize, rank: usize) -> Self {
        let mesh = Mesh2d::decompose(cfg.nx, cfg.ny, p, rank);
        let h = 1.0 / (cfg.nx as f64 + 1.0);
        let coef = cfg.nu * cfg.dt / (h * h);
        let mut u = vec![0.0; mesh.local_len()];
        for j in 0..mesh.ny_local {
            for i in 0..mesh.nx {
                let x = (i as f64 + 1.0) * h;
                let y = (mesh.j0 as f64 + j as f64 + 1.0) / (cfg.ny as f64 + 1.0);
                let dx = x - 0.3;
                let dy = y - 0.4;
                u[mesh.idx(i, j)] = (-(dx * dx + dy * dy) / 0.01).exp();
            }
        }
        HydroSim {
            cfg,
            mesh,
            u,
            h,
            coef,
        }
    }

    /// Grid spacing.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Assembles this rank's *local* implicit matrix `(I + c·L_local)`,
    /// dropping cross-rank couplings — the block-Jacobi approximation
    /// preconditioners factor (ILU(0)/SSOR setup input).
    pub fn local_matrix(&self) -> CsrMatrix {
        let m = &self.mesh;
        let n = m.local_len();
        let mut triplets = Vec::with_capacity(5 * n);
        for j in 0..m.ny_local {
            for i in 0..m.nx {
                let idx = m.idx(i, j);
                triplets.push((idx, idx, 1.0 + 4.0 * self.coef));
                if i > 0 {
                    triplets.push((idx, idx - 1, -self.coef));
                }
                if i + 1 < m.nx {
                    triplets.push((idx, idx + 1, -self.coef));
                }
                if j > 0 {
                    triplets.push((idx, idx - m.nx, -self.coef));
                }
                if j + 1 < m.ny_local {
                    triplets.push((idx, idx + m.nx, -self.coef));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets).expect("stencil is valid")
    }

    /// Explicit first-order upwind advection producing `u*`.
    fn advect(&self, comm: Option<&Comm>) -> Result<Vec<f64>, ParallelError> {
        let m = &self.mesh;
        let nx = m.nx;
        let mut g = m.add_ghosts(&self.u);
        m.halo_exchange(comm, &mut g, HYDRO_TAG)?;
        let cx = self.cfg.vx * self.cfg.dt / self.h;
        let cy = self.cfg.vy * self.cfg.dt / self.h;
        let mut out = vec![0.0; m.local_len()];
        for j in 0..m.ny_local {
            for i in 0..nx {
                let c = g[m.gidx(i, j)];
                let w = if i > 0 { g[m.gidx(i - 1, j)] } else { 0.0 };
                let e = if i + 1 < nx { g[m.gidx(i + 1, j)] } else { 0.0 };
                let s = g[m.gidx(i, j) - nx];
                let n = g[m.gidx(i, j) + nx];
                let dudx = if self.cfg.vx >= 0.0 { c - w } else { e - c };
                let dudy = if self.cfg.vy >= 0.0 { c - s } else { n - c };
                out[m.idx(i, j)] = c - cx * dudx - cy * dudy;
            }
        }
        Ok(out)
    }

    /// One semi-implicit timestep with the given preconditioner: explicit
    /// advection, then implicit diffusion solve. The monolithic path
    /// benchmarked by E6.
    pub fn step(
        &mut self,
        comm: Option<&Comm>,
        pre: &dyn Preconditioner,
    ) -> Result<SolveStats, CcaError> {
        let (cfg, red) = (self.cfg, CommReduce(comm));
        self.step_with_solver(comm, &|op, rhs, x| {
            solve(cfg.kind, op, pre, rhs, x, cfg.tol, cfg.max_iter, &red)
        })
    }

    /// One timestep where the implicit solve is delegated to an external
    /// closure — the hook the componentized assembly uses to route the
    /// solve through CCA ports.
    pub fn step_with_solver(
        &mut self,
        comm: Option<&Comm>,
        solve_fn: &SolveFn<'_>,
    ) -> Result<SolveStats, CcaError> {
        let rhs = self.advect(comm)?;
        let op = DiffusionOp {
            mesh: &self.mesh,
            comm,
            coef: self.coef,
        };
        let mut x = rhs.clone(); // warm start from u*
        let stats = solve_fn(&op, &rhs, &mut x)?;
        self.u = x;
        Ok(stats)
    }

    /// Total mass `Σ u · h²` (global).
    pub fn mass(&self, comm: Option<&Comm>) -> Result<f64, ParallelError> {
        let local: f64 = self.u.iter().sum();
        Ok(CommReduce(comm).global_sum(local)? * self.h * self.h)
    }

    /// Global maximum of `|u|`.
    pub fn max_abs(&self, comm: Option<&Comm>) -> Result<f64, ParallelError> {
        let local = self.u.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        match comm {
            Some(c) if c.size() > 1 => c.allreduce(local, &MaxOp),
            _ => Ok(local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Identity, Jacobi};
    use crate::vector::SerialReduce;
    use cca_parallel::spmd;

    fn small_cfg() -> HydroConfig {
        HydroConfig {
            nx: 16,
            ny: 16,
            dt: 1e-3,
            nu: 0.05,
            vx: 1.0,
            vy: 0.5,
            tol: 1e-10,
            max_iter: 400,
            kind: KrylovKind::Cg,
        }
    }

    #[test]
    fn initial_condition_is_a_blob() {
        let sim = HydroSim::new(small_cfg(), 1, 0);
        let max = sim.max_abs(None).unwrap();
        assert!(max > 0.9 && max <= 1.0, "max {max}");
        assert!(sim.mass(None).unwrap() > 0.0);
    }

    #[test]
    fn diffusion_damps_the_peak() {
        let mut cfg = small_cfg();
        cfg.vx = 0.0;
        cfg.vy = 0.0;
        let mut sim = HydroSim::new(cfg, 1, 0);
        let m0 = sim.max_abs(None).unwrap();
        for _ in 0..5 {
            let stats = sim.step(None, &Identity).unwrap();
            assert!(stats.converged, "{stats:?}");
        }
        let m1 = sim.max_abs(None).unwrap();
        assert!(m1 < m0, "peak must decay: {m0} -> {m1}");
        // Nothing blew up.
        assert!(sim.u.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn advection_moves_the_blob() {
        let mut cfg = small_cfg();
        cfg.nu = 1e-6; // almost pure advection
        cfg.vx = 1.0;
        cfg.vy = 0.0;
        let mut sim = HydroSim::new(cfg, 1, 0);
        let centroid = |s: &HydroSim| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for j in 0..s.mesh.ny_local {
                for i in 0..s.mesh.nx {
                    let x = (i as f64 + 1.0) * s.h();
                    num += x * s.u[s.mesh.idx(i, j)];
                    den += s.u[s.mesh.idx(i, j)];
                }
            }
            num / den
        };
        let c0 = centroid(&sim);
        for _ in 0..20 {
            sim.step(None, &Identity).unwrap();
        }
        let c1 = centroid(&sim);
        assert!(c1 > c0 + 1e-3, "blob must move right: {c0} -> {c1}");
    }

    #[test]
    fn mass_is_approximately_conserved_short_term() {
        let mut sim = HydroSim::new(small_cfg(), 1, 0);
        let m0 = sim.mass(None).unwrap();
        for _ in 0..3 {
            sim.step(None, &Identity).unwrap();
        }
        let m1 = sim.mass(None).unwrap();
        // Dirichlet boundaries leak a little, but over 3 tiny steps the
        // change must be small.
        assert!((m1 - m0).abs() / m0 < 0.05, "mass {m0} -> {m1}");
    }

    #[test]
    fn parallel_run_matches_serial_bitwise_tolerance() {
        let cfg = small_cfg();
        let steps = 3;
        // Serial reference.
        let mut serial = HydroSim::new(cfg, 1, 0);
        let mut serial_stats = Vec::new();
        for _ in 0..steps {
            serial_stats.push(serial.step(None, &Identity).unwrap());
        }
        // 4-rank SPMD run.
        let results = spmd(4, |c| {
            let mut sim = HydroSim::new(cfg, 4, c.rank());
            let mut stats = Vec::new();
            for _ in 0..steps {
                stats.push(sim.step(Some(c), &Identity).unwrap());
            }
            (sim.mesh.clone(), sim.u.clone(), stats)
        });
        for (mesh, u_local, stats) in &results {
            // Same iteration counts (identical Krylov trajectory).
            for (s, ss) in stats.iter().zip(&serial_stats) {
                assert_eq!(s.iterations, ss.iterations);
            }
            // Field values agree with the serial block.
            for j in 0..mesh.ny_local {
                for i in 0..mesh.nx {
                    let serial_v = serial.u[serial.mesh.idx(i, mesh.j0 + j)];
                    let par_v = u_local[mesh.idx(i, j)];
                    assert!(
                        (serial_v - par_v).abs() < 1e-10,
                        "({i},{j}) {serial_v} vs {par_v}"
                    );
                }
            }
        }
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations() {
        let mut cfg = small_cfg();
        cfg.nu = 2.0; // stiff diffusion => ill-conditioned implicit system
        cfg.dt = 1e-2;
        let mut plain_sim = HydroSim::new(cfg, 1, 0);
        let plain = plain_sim.step(None, &Identity).unwrap();
        let mut pre_sim = HydroSim::new(cfg, 1, 0);
        let a = pre_sim.local_matrix();
        let pre = pre_sim.step(None, &Jacobi::new(&a)).unwrap();
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations <= plain.iterations,
            "jacobi {} vs identity {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn step_with_external_solver_hook() {
        let cfg = small_cfg();
        let mut sim = HydroSim::new(cfg, 1, 0);
        let mut reference = HydroSim::new(cfg, 1, 0);
        let ref_stats = reference.step(None, &Identity).unwrap();
        let stats = sim
            .step_with_solver(None, &|op, b, x| {
                crate::krylov::cg(op, &Identity, b, x, cfg.tol, cfg.max_iter, &SerialReduce)
            })
            .unwrap();
        assert_eq!(stats.iterations, ref_stats.iterations);
        for (a, b) in sim.u.iter().zip(&reference.u) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// A fleet link whose generation has just moved: every op is refused.
    struct Interrupted;

    impl cca_parallel::WireLink for Interrupted {
        fn send(&self, _: usize, _: u32, _: u64, _: Vec<u8>) -> Result<(), ParallelError> {
            Err(ParallelError::Interrupted { generation: 7 })
        }

        fn recv(&self) -> Result<cca_parallel::WireMsg, ParallelError> {
            Err(ParallelError::Interrupted { generation: 7 })
        }
    }

    #[test]
    fn step_surfaces_an_interrupted_wire_as_a_typed_error() {
        let link = std::sync::Arc::new(Interrupted);
        for rank in 0..2 {
            let comm = Comm::over_wire(link.clone(), rank, 2);
            let mut sim = HydroSim::new(small_cfg(), 2, rank);
            let before = sim.u.clone();
            let interrupted = CcaError::Parallel(ParallelError::Interrupted { generation: 7 });
            assert_eq!(sim.step(Some(&comm), &Identity), Err(interrupted));
            assert_eq!(sim.u, before, "an interrupted step leaves the field alone");
            assert_eq!(
                sim.mass(Some(&comm)),
                Err(ParallelError::Interrupted { generation: 7 })
            );
        }
    }

    #[test]
    fn local_matrix_matches_matrix_free_operator_serially() {
        let sim = HydroSim::new(small_cfg(), 1, 0);
        let a = sim.local_matrix();
        assert_eq!(a.band_count(), Some(5), "matvec must run over diagonals");
        let op = DiffusionOp {
            mesh: &sim.mesh,
            comm: None,
            coef: sim.coef,
        };
        let x: Vec<f64> = (0..sim.mesh.local_len())
            .map(|k| ((k * 31) % 17) as f64)
            .collect();
        let mut y1 = vec![0.0; x.len()];
        let mut y2 = vec![0.0; x.len()];
        a.matvec(&x, &mut y1);
        op.apply(&x, &mut y2).unwrap();
        for (v1, v2) in y1.iter().zip(&y2) {
            assert!((v1 - v2).abs() < 1e-12);
        }
    }
}

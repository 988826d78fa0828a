//! Krylov subspace solvers: CG, BiCGStab, restarted GMRES(m).
//!
//! Written against three abstractions so the same code runs serial, SPMD,
//! and matrix-free:
//!
//! * [`LinearOperator`] — `y = A x` over the caller's local rows (an SPMD
//!   caller performs its halo exchange inside `apply`);
//! * [`crate::precond::Preconditioner`] — local `z = M⁻¹ r`;
//! * [`crate::vector::Reduction`] — global sums (serial: identity; SPMD:
//!   `allreduce`).
//!
//! This is the shape the ESI Forum interfaces standardized, and what lets
//! Figure 1's Krylov-solver component call a preconditioner component
//! through a directly connected port in the inner loop without overhead.

use crate::csr::CsrMatrix;
use crate::precond::Preconditioner;
use crate::vector::{axpy, dot, dot_local, norm2, xpby, Reduction};
use cca_core::CcaError;
use cca_parallel::ParallelError;
use std::cell::Cell;

/// `y = A x` on the local rows.
pub trait LinearOperator {
    /// Number of local rows (= local vector length).
    fn rows(&self) -> usize;

    /// Applies the operator. Fallible because an SPMD operator
    /// communicates (its halo exchange can be interrupted).
    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CcaError>;
}

impl LinearOperator for CsrMatrix {
    fn rows(&self) -> usize {
        self.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CcaError> {
        self.matvec(x, y);
        Ok(())
    }
}

/// An operator and a reduction that count the calls they forward: what
/// one solve asked of the operator and of the communicator.
struct Tally<'a, R> {
    op: &'a dyn LinearOperator,
    red: &'a R,
    matvecs: Cell<u64>,
    reductions: Cell<u64>,
}

impl<R> LinearOperator for Tally<'_, R> {
    fn rows(&self) -> usize {
        self.op.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CcaError> {
        self.matvecs.set(self.matvecs.get() + 1);
        self.op.apply(x, y)
    }
}

impl<R: Reduction> Reduction for Tally<'_, R> {
    fn global_sum(&self, local: f64) -> Result<f64, ParallelError> {
        self.reductions.set(self.reductions.get() + 1);
        self.red.global_sum(local)
    }

    fn global_sum2(&self, a: f64, b: f64) -> Result<(f64, f64), ParallelError> {
        self.reductions.set(self.reductions.get() + 1);
        self.red.global_sum2(a, b)
    }
}

/// Convergence/iteration statistics returned by every solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed (matrix applications for CG/BiCGStab; inner
    /// steps summed over restarts for GMRES).
    pub iterations: usize,
    /// Final *relative* residual `‖b − Ax‖ / ‖b‖`.
    pub residual: f64,
    /// True if the tolerance was met within the iteration budget.
    pub converged: bool,
}

/// Which Krylov method to run (the swappable choice of §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KrylovKind {
    /// Conjugate gradients (SPD systems).
    Cg,
    /// Stabilized bi-conjugate gradients (general systems).
    BiCgStab,
    /// Restarted GMRES with the given restart length.
    Gmres {
        /// Restart length m.
        restart: usize,
    },
}

/// Dispatches to the chosen method.
#[allow(clippy::too_many_arguments)]
pub fn solve<R: Reduction>(
    kind: KrylovKind,
    op: &dyn LinearOperator,
    pre: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    red: &R,
) -> Result<SolveStats, CcaError> {
    match kind {
        KrylovKind::Cg => cg(op, pre, b, x, tol, max_iter, red),
        KrylovKind::BiCgStab => bicgstab(op, pre, b, x, tol, max_iter, red),
        KrylovKind::Gmres { restart } => gmres(op, pre, b, x, tol, max_iter, restart, red),
    }
}

fn check_shapes(op: &dyn LinearOperator, b: &[f64], x: &[f64]) -> Result<(), CcaError> {
    if b.len() != op.rows() || x.len() != op.rows() {
        return Err(CcaError::Framework(format!(
            "solver shape mismatch: operator has {} rows, b has {}, x has {}",
            op.rows(),
            b.len(),
            x.len()
        )));
    }
    Ok(())
}

/// Preconditioned conjugate gradients. With `cca_obs` counters on, each
/// solve records its iterations, reductions and operator applications in
/// `cca_obs::solvers()`.
pub fn cg<R: Reduction>(
    op: &dyn LinearOperator,
    pre: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    red: &R,
) -> Result<SolveStats, CcaError> {
    check_shapes(op, b, x)?;
    let tally = Tally {
        op,
        red,
        matvecs: Cell::new(0),
        reductions: Cell::new(0),
    };
    let (op, red): (&dyn LinearOperator, _) = (&tally, &tally);
    let n = b.len();
    let bnorm = norm2(red, b)?;
    let target = if bnorm == 0.0 { tol } else { tol * bnorm };

    let mut r = vec![0.0; n];
    op.apply(x, &mut r)?;
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z = vec![0.0; n];
    pre.apply(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];

    // One fused reduction for (r·z, r·r).
    let (mut rz, rr) = red.global_sum2(dot_local(&r, &z), dot_local(&r, &r))?;
    let mut rnorm = rr.sqrt();
    let mut iterations = 0;

    while rnorm > target && iterations < max_iter {
        op.apply(&p, &mut ap)?;
        let pap = dot(red, &p, &ap)?;
        if pap == 0.0 {
            break; // breakdown (or exact solution reached)
        }
        let alpha = rz / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        pre.apply(&r, &mut z);
        let (rz_new, rr_new) = red.global_sum2(dot_local(&r, &z), dot_local(&r, &r))?;
        rnorm = rr_new.sqrt();
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p);
        iterations += 1;
    }
    if cca_obs::counters_enabled() {
        cca_obs::solvers().record_cg_solve(
            iterations as u64,
            tally.reductions.get(),
            tally.matvecs.get(),
        );
    }
    Ok(SolveStats {
        iterations,
        residual: if bnorm == 0.0 { rnorm } else { rnorm / bnorm },
        converged: rnorm <= target,
    })
}

/// Preconditioned BiCGStab.
pub fn bicgstab<R: Reduction>(
    op: &dyn LinearOperator,
    pre: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    red: &R,
) -> Result<SolveStats, CcaError> {
    check_shapes(op, b, x)?;
    let n = b.len();
    let bnorm = norm2(red, b)?;
    let target = if bnorm == 0.0 { tol } else { tol * bnorm };

    let mut r = vec![0.0; n];
    op.apply(x, &mut r)?;
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let r0 = r.clone();
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut phat = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];
    let mut rnorm = norm2(red, &r)?;
    let mut iterations = 0;

    while rnorm > target && iterations < max_iter {
        let rho_new = dot(red, &r0, &r)?;
        if rho_new == 0.0 {
            break; // breakdown
        }
        if iterations == 0 {
            p.copy_from_slice(&r);
        } else {
            let beta = (rho_new / rho) * (alpha / omega);
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
        }
        rho = rho_new;
        pre.apply(&p, &mut phat);
        op.apply(&phat, &mut v)?;
        let r0v = dot(red, &r0, &v)?;
        if r0v == 0.0 {
            break;
        }
        alpha = rho / r0v;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        let snorm = norm2(red, &s)?;
        if snorm <= target {
            axpy(alpha, &phat, x);
            rnorm = snorm;
            iterations += 1;
            break;
        }
        pre.apply(&s, &mut shat);
        op.apply(&shat, &mut t)?;
        let (tt, ts) = red.global_sum2(dot_local(&t, &t), dot_local(&t, &s))?;
        if tt == 0.0 {
            break;
        }
        omega = ts / tt;
        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
            r[i] = s[i] - omega * t[i];
        }
        rnorm = norm2(red, &r)?;
        iterations += 1;
        if omega == 0.0 {
            break;
        }
    }
    Ok(SolveStats {
        iterations,
        residual: if bnorm == 0.0 { rnorm } else { rnorm / bnorm },
        converged: rnorm <= target,
    })
}

/// Restarted GMRES(m) with modified Gram–Schmidt and Givens rotations.
/// Right-preconditioned: solves `A M⁻¹ u = b`, `x = M⁻¹ u`.
#[allow(clippy::too_many_arguments)]
pub fn gmres<R: Reduction>(
    op: &dyn LinearOperator,
    pre: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    restart: usize,
    red: &R,
) -> Result<SolveStats, CcaError> {
    check_shapes(op, b, x)?;
    if restart == 0 {
        return Err(CcaError::Framework("GMRES restart must be >= 1".into()));
    }
    let n = b.len();
    let m = restart;
    let bnorm = norm2(red, b)?;
    let target = if bnorm == 0.0 { tol } else { tol * bnorm };

    let mut iterations = 0usize;
    let mut r = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut z = vec![0.0; n];

    loop {
        // r = b - A x
        op.apply(x, &mut r)?;
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let beta = norm2(red, &r)?;
        if beta <= target || iterations >= max_iter {
            return Ok(SolveStats {
                iterations,
                residual: if bnorm == 0.0 { beta } else { beta / bnorm },
                converged: beta <= target,
            });
        }
        // Arnoldi basis (m+1 vectors) and Hessenberg in factored form.
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        v.push(r.iter().map(|ri| ri / beta).collect());
        let mut h = vec![vec![0.0f64; m]; m + 1];
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;
        let mut k_used = 0;

        for k in 0..m {
            if iterations >= max_iter {
                break;
            }
            // w = A M⁻¹ v_k
            pre.apply(&v[k], &mut z);
            op.apply(&z, &mut w)?;
            // Modified Gram–Schmidt.
            for (j, vj) in v.iter().enumerate().take(k + 1) {
                let hjk = dot(red, &w, vj)?;
                h[j][k] = hjk;
                axpy(-hjk, vj, &mut w);
            }
            let hk1 = norm2(red, &w)?;
            h[k + 1][k] = hk1;
            iterations += 1;
            k_used = k + 1;
            // Apply existing Givens rotations to the new column.
            for j in 0..k {
                let t = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
                h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
                h[j][k] = t;
            }
            // New rotation to annihilate h[k+1][k].
            let denom = (h[k][k] * h[k][k] + hk1 * hk1).sqrt();
            if denom == 0.0 {
                break;
            }
            cs[k] = h[k][k] / denom;
            sn[k] = hk1 / denom;
            h[k][k] = denom;
            h[k + 1][k] = 0.0;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];
            let res = g[k + 1].abs();
            if res <= target {
                break;
            }
            if hk1 == 0.0 {
                break; // happy breakdown
            }
            v.push(w.iter().map(|wi| wi / hk1).collect());
        }

        // Solve the triangular system H y = g for the used columns.
        let k = k_used;
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut s = g[i];
            for j in i + 1..k {
                s -= h[i][j] * y[j];
            }
            y[i] = if h[i][i] == 0.0 { 0.0 } else { s / h[i][i] };
        }
        // x += M⁻¹ (V y)
        let mut update = vec![0.0f64; n];
        for (j, yj) in y.iter().enumerate() {
            axpy(*yj, &v[j], &mut update);
        }
        pre.apply(&update, &mut z);
        axpy(1.0, &z, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Identity, Ilu0, Jacobi};
    use crate::vector::{CommReduce, SerialReduce};
    use cca_parallel::spmd;

    fn residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.matvec(x, &mut r);
        let rr: f64 = r.iter().zip(b).map(|(ri, bi)| (bi - ri) * (bi - ri)).sum();
        let bb: f64 = b.iter().map(|v| v * v).sum();
        (rr / bb).sqrt()
    }

    fn poisson_system(nx: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = CsrMatrix::laplacian_2d(nx, nx);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b);
        (a, b, x_true)
    }

    #[test]
    fn cg_solves_poisson() {
        let (a, b, x_true) = poisson_system(10);
        let mut x = vec![0.0; b.len()];
        let stats = cg(&a, &Identity, &b, &mut x, 1e-10, 1000, &SerialReduce).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual(&a, &b, &x) < 1e-8);
        for i in 0..x.len() {
            assert!((x[i] - x_true[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn preconditioning_reduces_cg_iterations() {
        let (a, b, _) = poisson_system(16);
        let mut x0 = vec![0.0; b.len()];
        let plain = cg(&a, &Identity, &b, &mut x0, 1e-8, 2000, &SerialReduce).unwrap();
        let mut x1 = vec![0.0; b.len()];
        let ilu = Ilu0::new(&a);
        let pre = cg(&a, &ilu, &b, &mut x1, 1e-8, 2000, &SerialReduce).unwrap();
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "ILU {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn bicgstab_handles_nonsymmetric_systems() {
        // Convection-diffusion-like: Laplacian plus skew term.
        let base = CsrMatrix::laplacian_2d(8, 8);
        let n = base.nrows();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..n {
            for (c, v) in base.row(r) {
                // Upwind-bias the east/west couplings.
                let v = if c + 1 == r {
                    v - 0.3
                } else if c == r + 1 {
                    v + 0.3
                } else {
                    v
                };
                triplets.push((r, c, v));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = bicgstab(&a, &Jacobi::new(&a), &b, &mut x, 1e-10, 1000, &SerialReduce).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual(&a, &b, &x) < 1e-8);
    }

    #[test]
    fn gmres_with_restart_solves_poisson() {
        let (a, b, _) = poisson_system(10);
        let mut x = vec![0.0; b.len()];
        let stats = gmres(&a, &Identity, &b, &mut x, 1e-8, 2000, 20, &SerialReduce).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual(&a, &b, &x) < 1e-7);
    }

    #[test]
    fn gmres_preconditioned_converges_faster() {
        let (a, b, _) = poisson_system(16);
        let mut x0 = vec![0.0; b.len()];
        let plain = gmres(&a, &Identity, &b, &mut x0, 1e-8, 4000, 30, &SerialReduce).unwrap();
        let mut x1 = vec![0.0; b.len()];
        let ilu = Ilu0::new(&a);
        let pre = gmres(&a, &ilu, &b, &mut x1, 1e-8, 4000, 30, &SerialReduce).unwrap();
        assert!(plain.converged && pre.converged, "{plain:?} {pre:?}");
        assert!(pre.iterations < plain.iterations);
    }

    #[test]
    fn solver_kind_dispatch() {
        let (a, b, _) = poisson_system(6);
        for kind in [
            KrylovKind::Cg,
            KrylovKind::BiCgStab,
            KrylovKind::Gmres { restart: 15 },
        ] {
            let mut x = vec![0.0; b.len()];
            let stats = solve(kind, &a, &Identity, &b, &mut x, 1e-8, 1000, &SerialReduce).unwrap();
            assert!(stats.converged, "{kind:?}: {stats:?}");
            assert!(residual(&a, &b, &x) < 1e-6, "{kind:?}");
        }
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let (a, _, _) = poisson_system(4);
        let b = vec![0.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let stats = cg(&a, &Identity, &b, &mut x, 1e-12, 100, &SerialReduce).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (a, b, _) = poisson_system(4);
        let mut short = vec![0.0; 3];
        assert!(cg(&a, &Identity, &b, &mut short, 1e-8, 10, &SerialReduce).is_err());
        assert!(gmres(&a, &Identity, &b, &mut short, 1e-8, 10, 5, &SerialReduce).is_err());
        let mut x = vec![0.0; b.len()];
        assert!(gmres(&a, &Identity, &b, &mut x, 1e-8, 10, 0, &SerialReduce).is_err());
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let (a, b, _) = poisson_system(12);
        let mut x = vec![0.0; b.len()];
        let stats = cg(&a, &Identity, &b, &mut x, 1e-14, 3, &SerialReduce).unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 3);
        assert!(stats.residual > 0.0);
    }

    /// A block-row distributed Laplacian: each rank owns a contiguous band
    /// of rows and applies the operator against the full vector, which is
    /// allgathered before each apply (simple but correct halo strategy).
    struct DistLaplacian<'a> {
        full: CsrMatrix,
        row0: usize,
        rows: usize,
        comm: &'a cca_parallel::Comm,
        counts: Vec<usize>,
    }

    impl LinearOperator for DistLaplacian<'_> {
        fn rows(&self) -> usize {
            self.rows
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CcaError> {
            // Allgather local pieces into the global vector.
            let pieces = self.comm.allgather(x.to_vec())?;
            let mut global = Vec::with_capacity(self.counts.iter().sum());
            for p in pieces {
                global.extend(p);
            }
            for r in 0..self.rows {
                let mut acc = 0.0;
                for (c, v) in self.full.row(self.row0 + r) {
                    acc += v * global[c];
                }
                y[r] = acc;
            }
            Ok(())
        }
    }

    #[test]
    fn parallel_cg_matches_serial_cg() {
        let (a, b, _) = poisson_system(8);
        let n = a.nrows();
        // Serial reference.
        let mut x_ref = vec![0.0; n];
        let serial = cg(&a, &Identity, &b, &mut x_ref, 1e-10, 1000, &SerialReduce).unwrap();
        // 4-rank SPMD run over block rows.
        let p = 4;
        let rows_per = n / p;
        let results = spmd(p, |c| {
            let row0 = c.rank() * rows_per;
            let rows = if c.rank() == p - 1 {
                n - row0
            } else {
                rows_per
            };
            let op = DistLaplacian {
                full: a.clone(),
                row0,
                rows,
                comm: c,
                counts: vec![rows_per; p],
            };
            let b_local = b[row0..row0 + rows].to_vec();
            let mut x_local = vec![0.0; rows];
            let red = CommReduce(Some(c));
            let stats = cg(&op, &Identity, &b_local, &mut x_local, 1e-10, 1000, &red).unwrap();
            (stats, x_local)
        });
        for (rank, (stats, x_local)) in results.iter().enumerate() {
            assert!(stats.converged);
            assert_eq!(stats.iterations, serial.iterations, "rank {rank}");
            let row0 = rank * rows_per;
            for (i, v) in x_local.iter().enumerate() {
                assert!((v - x_ref[row0 + i]).abs() < 1e-7);
            }
        }
    }
}

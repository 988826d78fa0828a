//! Block-decomposed 2-D structured mesh with halo exchange.
//!
//! CHAD "was designed from its inception as parallel code using Fortran 90
//! and encapsulation of nonlocal communication in gather/scatter routines
//! using MPI" (§2.1). [`Mesh2d`] reproduces that pattern: the global
//! `nx × ny` cell grid is block-decomposed along `y`, each rank stores its
//! rows plus one ghost row per side, and [`Mesh2d::halo_exchange`] is the
//! single gather/scatter routine hiding all communication.
//!
//! The owned-cell layout (`idx = i + nx * j_local`, first index fastest)
//! is exactly the column-major `[nx, ny_local]` layout that
//! `cca_data::DistArrayDesc` prescribes for a `[1, p]`-grid block
//! distribution, so mesh fields feed straight into collective M×N ports
//! with no repacking.

use cca_data::{DimDist, DistArrayDesc, Distribution, ProcessGrid};
use cca_parallel::{Comm, ParallelError, Tag};

/// Geometry and decomposition of one rank's share of the global mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh2d {
    /// Global cells in x.
    pub nx: usize,
    /// Global cells in y.
    pub ny: usize,
    /// Number of ranks in the 1-D (y) decomposition.
    pub p: usize,
    /// This rank.
    pub rank: usize,
    /// First owned row (global j index).
    pub j0: usize,
    /// Number of owned rows.
    pub ny_local: usize,
}

impl Mesh2d {
    /// Decomposes the `nx × ny` grid over `p` ranks with ceil-sized blocks
    /// (matching [`cca_data::DimDist::Block`], so descriptors agree).
    pub fn decompose(nx: usize, ny: usize, p: usize, rank: usize) -> Self {
        assert!(nx > 0 && ny > 0 && p > 0 && rank < p);
        let b = ny.div_ceil(p);
        let j0 = (rank * b).min(ny);
        let ny_local = b.min(ny.saturating_sub(j0));
        Mesh2d {
            nx,
            ny,
            p,
            rank,
            j0,
            ny_local,
        }
    }

    /// Number of owned cells.
    pub fn local_len(&self) -> usize {
        self.nx * self.ny_local
    }

    /// Length of a field buffer including one ghost row below and above.
    pub fn ghosted_len(&self) -> usize {
        self.nx * (self.ny_local + 2)
    }

    /// Offset of owned cell `(i, j_local)` in a ghosted buffer
    /// (the ghost row below is stored first).
    #[inline]
    pub fn gidx(&self, i: usize, j_local: usize) -> usize {
        i + self.nx * (j_local + 1)
    }

    /// Offset of owned cell `(i, j_local)` in an unghosted buffer.
    #[inline]
    pub fn idx(&self, i: usize, j_local: usize) -> usize {
        i + self.nx * j_local
    }

    /// Copies an owned field into a fresh ghosted buffer (ghosts zeroed).
    pub fn add_ghosts(&self, field: &[f64]) -> Vec<f64> {
        assert_eq!(field.len(), self.local_len());
        let mut out = vec![0.0; self.ghosted_len()];
        out[self.nx..self.nx + field.len()].copy_from_slice(field);
        out
    }

    /// Strips ghost rows.
    pub fn drop_ghosts(&self, ghosted: &[f64]) -> Vec<f64> {
        assert_eq!(ghosted.len(), self.ghosted_len());
        ghosted[self.nx..self.nx + self.local_len()].to_vec()
    }

    /// The gather/scatter routine: fills the two ghost rows of `ghosted`
    /// from the neighbouring ranks. Physical-boundary ghosts are set to
    /// zero (homogeneous Dirichlet). Serial meshes (`p == 1`) need no
    /// communicator. A failed send or receive is returned, ghosts unfilled.
    pub fn halo_exchange(
        &self,
        comm: Option<&Comm>,
        ghosted: &mut [f64],
        tag: Tag,
    ) -> Result<(), ParallelError> {
        assert_eq!(ghosted.len(), self.ghosted_len());
        let nx = self.nx;
        let below = self.rank.checked_sub(1);
        let above = if self.rank + 1 < self.p {
            Some(self.rank + 1)
        } else {
            None
        };
        if self.p > 1 {
            let comm = comm.expect("parallel mesh requires a communicator");
            // Post sends of my edge rows first (channels never block).
            if let Some(b) = below {
                let first_row = ghosted[nx..2 * nx].to_vec();
                comm.send(b, tag, first_row)?;
            }
            if let Some(a) = above {
                let last_row = ghosted[nx * self.ny_local..nx * (self.ny_local + 1)].to_vec();
                comm.send(a, tag, last_row)?;
            }
            if let Some(b) = below {
                let row: Vec<f64> = comm.recv(b, tag)?;
                ghosted[0..nx].copy_from_slice(&row);
            }
            if let Some(a) = above {
                let row: Vec<f64> = comm.recv(a, tag)?;
                ghosted[nx * (self.ny_local + 1)..].copy_from_slice(&row);
            }
        }
        // Physical boundaries: zero ghosts.
        if below.is_none() {
            ghosted[0..nx].fill(0.0);
        }
        if above.is_none() {
            ghosted[nx * (self.ny_local + 1)..].fill(0.0);
        }
        Ok(())
    }

    /// The distributed-array descriptor for owned fields (global
    /// `[nx, ny]`, block rows over a `[1, p]` grid) — the datum a
    /// collective port needs to couple this mesh to anything else.
    pub fn desc(&self) -> DistArrayDesc {
        let grid = ProcessGrid::new(&[1, self.p]).expect("valid grid");
        let dist =
            Distribution::new(grid, &[DimDist::Block, DimDist::Block]).expect("valid distribution");
        DistArrayDesc::new(&[self.nx, self.ny], dist).expect("valid descriptor")
    }

    /// Gathers the full global field onto rank 0 (`None` elsewhere).
    pub fn gather_global(
        &self,
        comm: Option<&Comm>,
        field: &[f64],
    ) -> Result<Option<Vec<f64>>, ParallelError> {
        assert_eq!(field.len(), self.local_len());
        if self.p == 1 {
            return Ok(Some(field.to_vec()));
        }
        let comm = comm.expect("parallel mesh requires a communicator");
        let pieces = comm.gather(0, field.to_vec())?;
        Ok(pieces.map(|ps| ps.concat()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_parallel::spmd;

    #[test]
    fn decomposition_covers_grid_exactly() {
        for ny in [1, 7, 8, 9, 16] {
            for p in [1, 2, 3, 4, 5] {
                let mut total = 0;
                let mut next = 0;
                for r in 0..p {
                    let m = Mesh2d::decompose(4, ny, p, r);
                    assert_eq!(m.j0, next.min(ny));
                    total += m.ny_local;
                    next = m.j0 + m.ny_local;
                }
                assert_eq!(total, ny, "ny={ny} p={p}");
            }
        }
    }

    #[test]
    fn decomposition_matches_dist_array_desc() {
        for (ny, p) in [(10, 3), (8, 4), (7, 2)] {
            for r in 0..p {
                let m = Mesh2d::decompose(5, ny, p, r);
                let desc = m.desc();
                assert_eq!(
                    desc.local_count(r).unwrap(),
                    m.local_len(),
                    "ny={ny} p={p} r={r}"
                );
                if m.ny_local > 0 {
                    assert_eq!(desc.owner_of(&[0, m.j0]).unwrap(), r);
                    assert_eq!(desc.owner_of(&[0, m.j0 + m.ny_local - 1]).unwrap(), r);
                }
            }
        }
    }

    #[test]
    fn ghost_round_trip() {
        let m = Mesh2d::decompose(3, 4, 1, 0);
        let field: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let g = m.add_ghosts(&field);
        assert_eq!(g.len(), m.ghosted_len());
        assert_eq!(m.drop_ghosts(&g), field);
        assert_eq!(g[m.gidx(0, 0)], 0.0);
        assert_eq!(g[m.gidx(2, 3)], 11.0);
    }

    #[test]
    fn serial_halo_is_dirichlet() {
        let m = Mesh2d::decompose(3, 2, 1, 0);
        let mut g = m.add_ghosts(&[5.0; 6]);
        // Pollute ghosts; the exchange must zero them.
        g[0] = 99.0;
        let last = g.len() - 1;
        g[last] = 99.0;
        m.halo_exchange(None, &mut g, 7).unwrap();
        assert_eq!(g[0], 0.0);
        assert_eq!(g[last], 0.0);
        assert_eq!(g[m.gidx(1, 1)], 5.0);
    }

    #[test]
    fn parallel_halo_exchanges_edge_rows() {
        let nx = 4;
        let ny = 8;
        let p = 4;
        spmd(p, |c| {
            let m = Mesh2d::decompose(nx, ny, p, c.rank());
            // Field value = global row index.
            let field: Vec<f64> = (0..m.local_len()).map(|k| (m.j0 + k / nx) as f64).collect();
            let mut g = m.add_ghosts(&field);
            m.halo_exchange(Some(c), &mut g, 3).unwrap();
            // Ghost below holds j0-1, ghost above holds j0+ny_local.
            if m.j0 > 0 {
                assert_eq!(g[0], (m.j0 - 1) as f64);
            } else {
                assert_eq!(g[0], 0.0);
            }
            let top = m.gidx(0, m.ny_local);
            if m.j0 + m.ny_local < ny {
                assert_eq!(g[top], (m.j0 + m.ny_local) as f64);
            } else {
                assert_eq!(g[top], 0.0);
            }
        });
    }

    #[test]
    fn gather_global_reconstructs_field() {
        let nx = 3;
        let ny = 7;
        let p = 3;
        let results = spmd(p, |c| {
            let m = Mesh2d::decompose(nx, ny, p, c.rank());
            let field: Vec<f64> = (0..m.local_len()).map(|k| (k + m.j0 * nx) as f64).collect();
            m.gather_global(Some(c), &field).unwrap()
        });
        let global = results[0].as_ref().unwrap();
        assert_eq!(global.len(), nx * ny);
        for (k, v) in global.iter().enumerate() {
            assert_eq!(*v, k as f64);
        }
        assert!(results[1].is_none());
    }

    #[test]
    fn more_ranks_than_rows() {
        // 5 ranks, 3 rows: ranks 3,4 own nothing but stay consistent.
        for r in 0..5 {
            let m = Mesh2d::decompose(2, 3, 5, r);
            if r < 3 {
                assert_eq!(m.ny_local, 1);
            } else {
                assert_eq!(m.ny_local, 0);
            }
        }
    }
}

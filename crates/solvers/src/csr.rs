//! Compressed sparse row matrices.
//!
//! The storage format every 1999-era solver library (PETSc, ISIS++,
//! Aztec) used for the "very large ... sparse coefficient matrices" of
//! §2.2. Rows are local; in SPMD use each rank holds a block of rows and
//! column indices refer to a locally assembled (halo-extended) vector.
//!
//! A matrix whose non-zeros lie on few diagonals (any stencil operator)
//! additionally keeps those diagonals as dense arrays, and `matvec` runs
//! over them: zipped slices the compiler vectorises, with no index loads
//! and no bounds checks per non-zero. The CSR arrays stay the interface
//! (`row`, `diagonal`, `nnz`) and the path for everything else.

use cca_core::CcaError;
use std::sync::Arc;

/// A CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
    /// Derived from the arrays above by [`Bands::detect`]; shared so that
    /// cloning the matrix does not copy the diagonals.
    bands: Option<Arc<Bands>>,
}

/// Rows per tile of the banded `matvec`: the `y` tile every diagonal
/// accumulates into (4 KiB) and the slices streamed past it stay in L1.
const BAND_TILE: usize = 512;

/// The same entries as the CSR arrays, stored by diagonal.
#[derive(Debug, PartialEq)]
struct Bands {
    /// Distinct `col - row` offsets, ascending.
    offsets: Vec<isize>,
    /// Diagonal `d` is `values[d * nrows..][..nrows]`, indexed by row, with
    /// `0.0` where the row stores no entry at `offsets[d]`.
    values: Vec<f64>,
}

impl Bands {
    /// Builds the diagonals if every row's columns strictly increase (so
    /// the CSR summation order is the ascending-offset order) and the
    /// distinct offsets `D` satisfy `D * nrows <= 2 * nnz`, i.e. the
    /// diagonals take no more bytes than the `indices` + `data` they
    /// shadow. Gives up the moment either fails.
    fn detect(
        nrows: usize,
        ncols: usize,
        indptr: &[usize],
        indices: &[usize],
        data: &[f64],
    ) -> Option<Bands> {
        if ncols > isize::MAX as usize {
            return None; // offsets would not fit; no such x exists anyway
        }
        let budget = 2 * indices.len();
        let mut offsets: Vec<isize> = Vec::new();
        for r in 0..nrows {
            let cols = &indices[indptr[r]..indptr[r + 1]];
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            // Offsets ascend along a row, so one forward walk places them.
            let mut d = 0;
            for &c in cols {
                let off = c as isize - r as isize;
                while d < offsets.len() && offsets[d] < off {
                    d += 1;
                }
                if offsets.get(d) != Some(&off) {
                    offsets.insert(d, off);
                    if offsets.len() * nrows > budget {
                        return None;
                    }
                }
            }
        }
        let mut values = vec![0.0; offsets.len() * nrows];
        for r in 0..nrows {
            let mut d = 0;
            for k in indptr[r]..indptr[r + 1] {
                let off = indices[k] as isize - r as isize;
                while offsets[d] != off {
                    d += 1;
                }
                values[d * nrows + r] = data[k];
            }
        }
        Some(Bands { offsets, values })
    }

    /// `y = A x`, one row tile at a time: `y_tile = 0`, then
    /// `y_tile += diagonal * x` shifted by the offset, diagonals in
    /// ascending offset. Each row therefore adds its stored products in
    /// the CSR loop's order, and the `0.0 * x[j]` a hole contributes leaves
    /// a finite sum unchanged — the result is bit-identical to
    /// [`CsrMatrix::matvec_csr`] for finite `x`.
    fn matvec(&self, nrows: usize, ncols: usize, x: &[f64], y: &mut [f64]) {
        for r0 in (0..nrows).step_by(BAND_TILE) {
            let r1 = (r0 + BAND_TILE).min(nrows);
            y[r0..r1].fill(0.0);
            for (diag, &off) in self.values.chunks_exact(nrows).zip(&self.offsets) {
                // Rows of the tile whose column `r + off` exists.
                let lo = r0.max((-off).max(0) as usize);
                let hi = r1.min((ncols as isize).saturating_sub(off).max(0) as usize);
                if lo >= hi {
                    continue;
                }
                let xs = &x[(lo as isize + off) as usize..(hi as isize + off) as usize];
                for ((yi, di), xi) in y[lo..hi].iter_mut().zip(&diag[lo..hi]).zip(xs) {
                    *yi += di * xi;
                }
            }
        }
    }
}

impl CsrMatrix {
    /// Builds from raw CSR arrays, validating the invariants.
    pub fn new(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<Self, CcaError> {
        if indptr.len() != nrows + 1 {
            return Err(CcaError::Framework(format!(
                "indptr has length {}, expected {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 || *indptr.last().unwrap() != indices.len() {
            return Err(CcaError::Framework("indptr endpoints invalid".into()));
        }
        if indices.len() != data.len() {
            return Err(CcaError::Framework(
                "indices and data lengths differ".into(),
            ));
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(CcaError::Framework("indptr not monotone".into()));
        }
        if indices.iter().any(|&j| j >= ncols) {
            return Err(CcaError::Framework("column index out of range".into()));
        }
        let bands = Bands::detect(nrows, ncols, &indptr, &indices, &data).map(Arc::new);
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
            bands,
        })
    }

    /// Assembles from `(row, col, value)` triplets; duplicates accumulate.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, CcaError> {
        // Counting sort by row into one buffer: `indptr[r + 1]` counts row
        // `r`, the prefix sum turns counts into row starts.
        let mut indptr = vec![0usize; nrows + 1];
        for &(r, c, _) in triplets {
            if r >= nrows || c >= ncols {
                return Err(CcaError::Framework(format!(
                    "triplet ({r},{c}) out of {nrows}x{ncols}"
                )));
            }
            indptr[r + 1] += 1;
        }
        for r in 0..nrows {
            indptr[r + 1] += indptr[r];
        }
        let mut next = indptr[..nrows].to_vec();
        let mut entries = vec![(0usize, 0.0f64); triplets.len()];
        for &(r, c, v) in triplets {
            entries[next[r]] = (c, v);
            next[r] += 1;
        }
        // Sort each row's slice by column (stable, so duplicates sum in
        // input order) and merge duplicates while copying out.
        let mut indices = Vec::with_capacity(entries.len());
        let mut data = Vec::with_capacity(entries.len());
        let mut lo = 0;
        for r in 0..nrows {
            // `next[r]` ended on the row's last entry; `indptr` is rewritten
            // with the merged starts as the rows are copied out.
            let row = &mut entries[lo..next[r]];
            lo = next[r];
            row.sort_by_key(|&(c, _)| c);
            let start = indices.len();
            indptr[r] = start;
            for &(c, v) in row.iter() {
                if indices.len() > start && indices.last() == Some(&c) {
                    *data.last_mut().expect("data parallels indices") += v;
                } else {
                    indices.push(c);
                    data.push(v);
                }
            }
        }
        indptr[nrows] = indices.len();
        // The scratch goes before `new` allocates the diagonals.
        drop(entries);
        drop(next);
        CsrMatrix::new(nrows, ncols, indptr, indices, data)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Iterates the stored entries of one row as `(col, value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.data[lo..hi].iter().copied())
    }

    /// Number of dense diagonals `matvec` runs over, or `None` when the
    /// matrix is unstructured and `matvec` takes the CSR loop.
    pub fn band_count(&self) -> Option<usize> {
        self.bands.as_ref().map(|b| b.offsets.len())
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length != ncols");
        assert_eq!(y.len(), self.nrows, "y length != nrows");
        match &self.bands {
            Some(bands) => bands.matvec(self.nrows, self.ncols, x, y),
            None => self.matvec_csr(x, y),
        }
    }

    /// The row-by-row loop: the path for unstructured matrices and the
    /// oracle the banded form is tested against.
    fn matvec_csr(&self, x: &[f64], y: &mut [f64]) {
        for r in 0..self.nrows {
            let mut acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                acc += self.data[k] * x[self.indices[k]];
            }
            y[r] = acc;
        }
    }

    /// The main diagonal (zeros where no entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows.min(self.ncols)];
        for (r, item) in d.iter_mut().enumerate() {
            for (c, v) in self.row(r) {
                if c == r {
                    *item = v;
                }
            }
        }
        d
    }

    /// Dense reference (tests only — O(n²) memory).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.ncols]; self.nrows];
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                dense[r][c] += v;
            }
        }
        dense
    }

    /// The 5-point finite-difference Laplacian on an `nx × ny` grid with
    /// Dirichlet boundaries (row-major grid numbering: `idx = i + nx*j`).
    /// This is the "discretized linear system" of §2.2 in its simplest
    /// honest form.
    pub fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut triplets = Vec::with_capacity(5 * n);
        for j in 0..ny {
            for i in 0..nx {
                let idx = i + nx * j;
                triplets.push((idx, idx, 4.0));
                if i > 0 {
                    triplets.push((idx, idx - 1, -1.0));
                }
                if i + 1 < nx {
                    triplets.push((idx, idx + 1, -1.0));
                }
                if j > 0 {
                    triplets.push((idx, idx - nx, -1.0));
                }
                if j + 1 < ny {
                    triplets.push((idx, idx + nx, -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets).expect("stencil triplets are valid")
    }

    /// Shifted operator `alpha I + beta A` with the same sparsity.
    pub fn shift_scale(&self, alpha: f64, beta: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= beta;
        }
        // Add alpha on the diagonal (entry must exist; laplacian has it).
        for r in 0..out.nrows {
            let mut found = false;
            for k in out.indptr[r]..out.indptr[r + 1] {
                if out.indices[k] == r {
                    out.data[k] += alpha;
                    found = true;
                }
            }
            assert!(found, "shift_scale requires stored diagonal");
        }
        // The clone shares `self`'s diagonals; rebuild them from the new data.
        out.bands =
            Bands::detect(out.nrows, out.ncols, &out.indptr, &out.indices, &out.data).map(Arc::new);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn example() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.matvec(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn triplets_accumulate_duplicates() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)]).unwrap();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.diagonal(), vec![3.0, 5.0]);
    }

    #[test]
    fn validation_rejects_bad_structure() {
        assert!(CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        assert!(CsrMatrix::new(1, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        assert!(CsrMatrix::new(1, 1, vec![0, 1], vec![0], vec![]).is_err());
        assert!(CsrMatrix::from_triplets(1, 1, &[(3, 0, 1.0)]).is_err());
    }

    #[test]
    fn laplacian_structure() {
        let a = CsrMatrix::laplacian_2d(3, 3);
        assert_eq!(a.nrows(), 9);
        // Interior point (1,1) = idx 4 has 5 entries.
        assert_eq!(a.row(4).count(), 5);
        // Corner has 3.
        assert_eq!(a.row(0).count(), 3);
        // Row sums: zero in the interior, positive on the boundary
        // (Dirichlet), and the matrix is symmetric.
        let dense = a.to_dense();
        for r in 0..9 {
            for c in 0..9 {
                assert_eq!(dense[r][c], dense[c][r]);
            }
        }
        let interior_sum: f64 = dense[4].iter().sum();
        assert_eq!(interior_sum, 0.0);
        let corner_sum: f64 = dense[0].iter().sum();
        assert_eq!(corner_sum, 2.0);
    }

    #[test]
    fn shift_scale_builds_helmholtz_like_operator() {
        let a = CsrMatrix::laplacian_2d(3, 3);
        let shifted = a.shift_scale(1.0, 0.5); // I + 0.5 A
        let x = vec![1.0; 9];
        let mut ya = vec![0.0; 9];
        let mut ys = vec![0.0; 9];
        a.matvec(&x, &mut ya);
        shifted.matvec(&x, &mut ys);
        for i in 0..9 {
            assert!((ys[i] - (x[i] + 0.5 * ya[i])).abs() < 1e-14);
        }
    }

    #[test]
    fn shift_scale_keeps_bands_and_csr_in_agreement() {
        let a = CsrMatrix::laplacian_2d(7, 5);
        let shifted = a.shift_scale(1.0, 0.25);
        assert_eq!(shifted.band_count(), Some(5));
        let x: Vec<f64> = (0..35).map(|i| ((i * 13) % 11) as f64 - 4.5).collect();
        let mut banded = vec![0.0; 35];
        let mut csr = vec![0.0; 35];
        shifted.matvec(&x, &mut banded);
        shifted.matvec_csr(&x, &mut csr);
        assert_eq!(bits(&banded), bits(&csr));
        assert_eq!(shifted.diagonal(), vec![2.0; 35]);
    }

    #[test]
    fn stencils_are_banded_and_scattered_matrices_are_not() {
        assert_eq!(CsrMatrix::laplacian_2d(12, 12).band_count(), Some(5));
        assert_eq!(CsrMatrix::laplacian_2d(1, 1).band_count(), Some(1));
        // 1 % dense, columns scattered: 2 entries a row on ~200 offsets.
        let n = 200;
        let triplets: Vec<_> = (0..2 * n)
            .map(|k| (k % n, (k * 7919 + k / n * 31) % n, 1.0))
            .collect();
        let scattered = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        assert_eq!(scattered.band_count(), None);
        // One entry a row, every one on its own diagonal: D = n > 2.
        let anti: Vec<_> = (0..n).map(|r| (r, n - 1 - r, 1.0)).collect();
        assert_eq!(
            CsrMatrix::from_triplets(n, n, &anti).unwrap().band_count(),
            None
        );
    }

    #[test]
    fn clone_shares_the_diagonals() {
        let a = CsrMatrix::laplacian_2d(4, 4);
        let b = a.clone();
        assert!(Arc::ptr_eq(
            a.bands.as_ref().unwrap(),
            b.bands.as_ref().unwrap()
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn unsorted_or_duplicate_columns_take_the_csr_path() {
        // Row 0 lists its columns out of order; row 1 lists column 1 twice.
        let unsorted =
            CsrMatrix::new(2, 3, vec![0, 2, 3], vec![2, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let duplicate =
            CsrMatrix::new(2, 3, vec![0, 1, 3], vec![0, 1, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let x = [1.0, 10.0, 100.0];
        let mut y = [0.0; 2];
        assert_eq!(unsorted.band_count(), None);
        unsorted.matvec(&x, &mut y);
        assert_eq!(y, [102.0, 30.0]);
        assert_eq!(duplicate.band_count(), None);
        duplicate.matvec(&x, &mut y);
        assert_eq!(y, [1.0, 50.0]);
    }

    #[test]
    fn empty_rows_are_legal() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 2, 1.0)]).unwrap();
        assert_eq!(a.row(1).count(), 0);
        let mut y = vec![9.0; 3];
        a.matvec(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_triplets() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
        (1usize..8, 1usize..8).prop_flat_map(|(nr, nc)| {
            let t = proptest::collection::vec((0..nr, 0..nc, -5.0f64..5.0), 0..24);
            (Just(nr), Just(nc), t)
        })
    }

    /// Shape, band offsets, keep-probability of an entry, and a seed for
    /// the values: a matrix whose rows list ascending columns on a few
    /// diagonals, with holes and (at low keep) whole rows empty.
    fn arb_banded() -> impl Strategy<Value = (usize, usize, Vec<isize>, f64, u64)> {
        (1usize..200, 1usize..200).prop_flat_map(|(nr, nc)| {
            let near = proptest::collection::vec(-12isize..=12, 1..7);
            let far = -(nr as isize)..=nc as isize;
            (Just(nr), Just(nc), near, far, 0.45f64..1.0, any::<u64>()).prop_map(
                |(nr, nc, mut offsets, far, keep, seed)| {
                    if seed % 2 == 0 {
                        offsets.push(far);
                    }
                    offsets.sort_unstable();
                    offsets.dedup();
                    (nr, nc, offsets, keep, seed)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn banded_matvec_is_bit_identical_to_the_csr_loop(
            (nr, nc, offsets, keep, seed) in arb_banded()
        ) {
            let mut rng = seed | 1;
            let mut unit = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut indptr = vec![0];
            let mut indices = Vec::new();
            let mut data = Vec::new();
            for r in 0..nr {
                for &off in &offsets {
                    let c = r as isize + off;
                    if (0..nc as isize).contains(&c) && unit() < keep {
                        indices.push(c as usize);
                        data.push(unit() * 8.0 - 4.0);
                    }
                }
                indptr.push(indices.len());
            }
            let mut present: Vec<isize> = (0..nr)
                .flat_map(|r| {
                    indices[indptr[r]..indptr[r + 1]]
                        .iter()
                        .map(move |&c| c as isize - r as isize)
                })
                .collect();
            present.sort_unstable();
            present.dedup();
            let banded = present.len() * nr <= 2 * indices.len();
            let a = CsrMatrix::new(nr, nc, indptr, indices, data).unwrap();
            prop_assert_eq!(a.band_count(), banded.then_some(present.len()));

            // Signed, some exact zeros (so `0.0 * x` and `d * 0.0` both occur).
            let x: Vec<f64> = (0..nc)
                .map(|_| if unit() < 0.1 { 0.0 } else { unit() * 2e3 - 1e3 })
                .collect();
            let mut y = vec![f64::NAN; nr];
            let mut want = vec![f64::NAN; nr];
            a.matvec(&x, &mut y);
            a.matvec_csr(&x, &mut want);
            prop_assert_eq!(super::tests::bits(&y), super::tests::bits(&want));
        }
    }

    proptest! {
        #[test]
        fn csr_matvec_matches_dense_reference((nr, nc, triplets) in arb_triplets(),
                                              seed in 0u64..1000) {
            let a = CsrMatrix::from_triplets(nr, nc, &triplets).unwrap();
            // Deterministic pseudo-random x from the seed.
            let x: Vec<f64> = (0..nc)
                .map(|i| (((seed + i as u64) * 2654435761) % 1000) as f64 / 100.0)
                .collect();
            let mut y = vec![0.0; nr];
            a.matvec(&x, &mut y);
            let dense = a.to_dense();
            for r in 0..nr {
                let want: f64 = (0..nc).map(|c| dense[r][c] * x[c]).sum();
                prop_assert!((y[r] - want).abs() < 1e-9);
            }
        }
    }
}

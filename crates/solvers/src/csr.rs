//! Compressed sparse row matrices.
//!
//! The storage format every 1999-era solver library (PETSc, ISIS++,
//! Aztec) used for the "very large ... sparse coefficient matrices" of
//! §2.2. Rows are local; in SPMD use each rank holds a block of rows and
//! column indices refer to a locally assembled (halo-extended) vector.
//!
//! A matrix whose non-zeros lie on few diagonals (any stencil operator)
//! additionally keeps those diagonals — each as one value when all its
//! entries share it, as a dense array otherwise — and `matvec` runs over
//! them, with no index loads and no bounds checks per non-zero. When every
//! diagonal holds one value (every stencil the hydro app assembles), the
//! rows every diagonal reaches take one pass that reads each shifted `x`
//! slice once and writes each `y` element once, the row's sum held in a
//! register; the few edge rows, and matrices with a dense diagonal, go
//! through row tiles one diagonal at a time. Both add a row's products in
//! ascending offset from `+0.0`, the CSR loop's order, so every path gives
//! the CSR loop's bits. The CSR arrays stay the interface (`row`,
//! `diagonal`, `nnz`) and the path for everything else.

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

/// Rows per tile where the banded `matvec` goes one diagonal at a time
/// (edge rows, dense diagonals): the `y` tile every diagonal accumulates
/// into (4 KiB) and the slices streamed past it stay in L1. The one-pass
/// rows need no tile: each `y` element is written once.
const BAND_TILE: usize = 512;

/// The same entries as the CSR arrays, stored by diagonal.
#[derive(Debug, PartialEq)]
struct Bands {
    /// Distinct `col - row` offsets, ascending.
    offsets: Vec<isize>,
    /// Diagonal `d` holds the entries at `offsets[d]`.
    diags: Vec<Diag>,
    /// Rows, ascending, that store no entry on some one-value diagonal
    /// whose column `r + offset` exists, each with the bit set of the
    /// diagonals the row does store (bit `d` for `offsets[d]`).
    holes: Vec<(usize, u64)>,
}

/// One diagonal's storage.
#[derive(Debug, PartialEq)]
enum Diag {
    /// Every entry stored on the diagonal has these bits.
    One(f64),
    /// Indexed by row, with `0.0` where the row stores no entry.
    Dense(Vec<f64>),
}

impl Bands {
    /// Builds the diagonals if every row's columns strictly increase (so
    /// the CSR summation order is the ascending-offset order) and the
    /// distinct offsets `D` satisfy `D * nrows <= 2 * nnz`, i.e. dense
    /// diagonals would take no more bytes than the `indices` + `data` they
    /// shadow. Gives up the moment either fails.
    ///
    /// The first pass finds the offsets and, per offset, whether all its
    /// entries share one value and how many there are; the second fills
    /// only the diagonals that need a dense array and records the hole
    /// rows of the rest. A matrix with more than 64 diagonals (no room in
    /// a hole row's bit set) stores them all dense.
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
        // Per offset: the bits all its entries share (`None` once two
        // differ) and the number of entries.
        let mut shared: Vec<(Option<u64>, usize)> = Vec::new();
        for r in 0..nrows {
            let (cols, vals) = (
                &indices[indptr[r]..indptr[r + 1]],
                &data[indptr[r]..indptr[r + 1]],
            );
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            // Offsets ascend along a row, so one forward walk places them.
            let mut d = 0;
            for (&c, v) in cols.iter().zip(vals) {
                let off = c as isize - r as isize;
                while d < offsets.len() && offsets[d] < off {
                    d += 1;
                }
                if offsets.get(d) != Some(&off) {
                    offsets.insert(d, off);
                    shared.insert(d, (Some(v.to_bits()), 0));
                    if offsets.len() * nrows > budget {
                        return None;
                    }
                }
                let (bits, count) = &mut shared[d];
                if *bits != Some(v.to_bits()) {
                    *bits = None;
                }
                *count += 1;
            }
        }
        let one_value = offsets.len() <= u64::BITS as usize;
        let mut diags: Vec<Diag> = shared
            .iter()
            .map(|&(bits, _)| match bits {
                Some(bits) if one_value => Diag::One(f64::from_bits(bits)),
                _ => Diag::Dense(vec![0.0; nrows]),
            })
            .collect();
        // One-value diagonals with fewer entries than rows in range, as
        // `(bit, rows in range)`.
        let holey: Vec<(u64, std::ops::Range<usize>)> = offsets
            .iter()
            .zip(&diags)
            .zip(&shared)
            .enumerate()
            .filter_map(|(d, ((&off, diag), &(_, count)))| {
                let rows = band_rows(off, 0, nrows, ncols);
                (matches!(diag, Diag::One(_)) && count < rows.len()).then(|| (1 << d, rows))
            })
            .collect();
        let mut holes = Vec::new();
        for r in 0..nrows {
            let mut d = 0;
            let mut stored = 0u64;
            for k in indptr[r]..indptr[r + 1] {
                let off = indices[k] as isize - r as isize;
                while offsets[d] != off {
                    d += 1;
                }
                if let Diag::Dense(values) = &mut diags[d] {
                    values[r] = data[k];
                }
                if one_value {
                    stored |= 1 << d;
                }
            }
            if holey
                .iter()
                .any(|(bit, rows)| stored & bit == 0 && rows.contains(&r))
            {
                holes.push((r, stored));
            }
        }
        Some(Bands {
            offsets,
            diags,
            holes,
        })
    }

    /// `y = A x`. When every diagonal holds one value, the rows every
    /// diagonal reaches take one pass (`shifted_sum`); the edge rows on
    /// either side of them, and every row of a matrix with a dense
    /// diagonal, go through `by_diagonal`. Then each hole row is
    /// summed again over the diagonals it stores. Every row therefore adds
    /// its stored products in the CSR loop's order, starting from `+0.0`,
    /// and the result is bit-identical to [`CsrMatrix::matvec_csr`] for
    /// finite `x`.
    fn matvec(&self, nrows: usize, ncols: usize, x: &[f64], y: &mut [f64]) {
        let inner = self.inner_rows(nrows, ncols);
        if inner.is_empty() || !self.one_pass(inner.clone(), x, y) {
            self.by_diagonal(0..nrows, ncols, x, y);
            return;
        }
        self.resum_holes(inner.clone(), x, y);
        self.by_diagonal(0..inner.start, ncols, x, y);
        self.by_diagonal(inner.end..nrows, ncols, x, y);
    }

    /// The rows whose column `r + offset` exists on every diagonal (none
    /// when there is no diagonal).
    fn inner_rows(&self, nrows: usize, ncols: usize) -> std::ops::Range<usize> {
        let (Some(&first), Some(&last)) = (self.offsets.first(), self.offsets.last()) else {
            return 0..0;
        };
        let lo = band_rows(first, 0, nrows, ncols).start;
        let hi = band_rows(last, 0, nrows, ncols).end;
        lo..hi.max(lo)
    }

    /// `y[r] = ((+0.0 + c0·x[r+o0]) + c1·x[r+o1]) + …` over `rows`, each
    /// `y` element written once, when every diagonal holds one value and
    /// there are at most nine of them (every stencil up to the 9-point
    /// one). Returns `false`, touching nothing, otherwise.
    fn one_pass(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) -> bool {
        let mut coefs = [0.0; 9];
        for (c, diag) in coefs.iter_mut().zip(&self.diags) {
            let Diag::One(v) = diag else { return false };
            *c = *v;
        }
        let shifted = |d: usize| {
            let start = (rows.start as isize + self.offsets[d]) as usize;
            &x[start..start + rows.len()]
        };
        let ys = &mut y[rows.clone()];
        macro_rules! dispatch {
            ($($d:literal)+) => {
                match self.diags.len() {
                    $($d => shifted_sum::<$d>(&coefs, &std::array::from_fn(shifted), ys),)+
                    _ => return false,
                }
            };
        }
        dispatch!(1 2 3 4 5 6 7 8 9);
        true
    }

    /// `y = A x` on `rows`, one row tile at a time: `y_tile = 0`, then
    /// `y_tile += c * x` (one value) or `y_tile += diagonal * x` (dense),
    /// shifted by the offset, diagonals in ascending offset, and the
    /// tile's hole rows summed again. The `0.0 * x[j]` a dense diagonal's
    /// hole contributes leaves a finite sum unchanged.
    fn by_diagonal(&self, rows: std::ops::Range<usize>, ncols: usize, x: &[f64], y: &mut [f64]) {
        for r0 in rows.clone().step_by(BAND_TILE) {
            let r1 = (r0 + BAND_TILE).min(rows.end);
            y[r0..r1].fill(0.0);
            for (diag, &off) in self.diags.iter().zip(&self.offsets) {
                let rows = band_rows(off, r0, r1, ncols);
                if rows.is_empty() {
                    continue;
                }
                let xs =
                    &x[(rows.start as isize + off) as usize..(rows.end as isize + off) as usize];
                let ys = &mut y[rows.clone()];
                match diag {
                    Diag::One(c) => {
                        for (yi, xi) in ys.iter_mut().zip(xs) {
                            *yi += c * xi;
                        }
                    }
                    Diag::Dense(values) => {
                        for ((yi, di), xi) in ys.iter_mut().zip(&values[rows]).zip(xs) {
                            *yi += di * xi;
                        }
                    }
                }
            }
            self.resum_holes(r0..r1, x, y);
        }
    }

    /// Sums each hole row in `rows` again from `+0.0` over the diagonals
    /// it stores: a one-value diagonal added `c * x` to it too.
    fn resum_holes(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        let first = self.holes.partition_point(|&(r, _)| r < rows.start);
        for &(r, mut stored) in self.holes[first..]
            .iter()
            .take_while(|&&(r, _)| r < rows.end)
        {
            let mut acc = 0.0;
            while stored != 0 {
                let d = stored.trailing_zeros() as usize;
                stored &= stored - 1;
                let v = match &self.diags[d] {
                    Diag::One(c) => *c,
                    Diag::Dense(values) => values[r],
                };
                acc += v * x[(r as isize + self.offsets[d]) as usize];
            }
            y[r] = acc;
        }
    }

    /// Bytes of storage one `matvec` reads, each counted once: 8 per
    /// one-value diagonal, 8 per row in range of a dense one, 16 per hole
    /// row (its index and bit set).
    fn bytes(&self, nrows: usize, ncols: usize) -> usize {
        let values: usize = self
            .diags
            .iter()
            .zip(&self.offsets)
            .map(|(diag, &off)| match diag {
                Diag::One(_) => 1,
                Diag::Dense(_) => band_rows(off, 0, nrows, ncols).len(),
            })
            .sum();
        8 * values + 16 * self.holes.len()
    }
}

/// `ys[i] = ((+0.0 + coefs[0]·xs[0][i]) + coefs[1]·xs[1][i]) + …`: one read
/// of each shifted `x` slice and one write of `ys`, the sum kept in a
/// register across the `D` diagonals. Every slice is `ys.len()` long.
fn shifted_sum<const D: usize>(coefs: &[f64], xs: &[&[f64]; D], ys: &mut [f64]) {
    let coefs: [f64; D] = std::array::from_fn(|d| coefs[d]);
    let n = ys.len();
    let xs = xs.map(|x| &x[..n]);
    for (i, yi) in ys.iter_mut().enumerate() {
        let mut acc = 0.0;
        for d in 0..D {
            acc += coefs[d] * xs[d][i];
        }
        *yi = acc;
    }
}

/// The rows of `r0..r1` whose column `r + off` lies in `0..ncols`.
fn band_rows(off: isize, r0: usize, r1: usize, ncols: usize) -> std::ops::Range<usize> {
    let lo = r0.max((-off).max(0) as usize);
    let hi = r1.min((ncols as isize).saturating_sub(off).max(0) as usize);
    lo..hi.max(lo)
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
        if indptr[0] != 0 || indptr.last() != Some(&indices.len()) {
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

    /// Number of diagonals `matvec` runs over, or `None` when the matrix
    /// is unstructured and `matvec` takes the CSR loop.
    pub fn band_count(&self) -> Option<usize> {
        self.bands.as_ref().map(|b| b.offsets.len())
    }

    /// Bytes of matrix storage one `matvec` reads, each counted once. On
    /// the banded path: 8 per one-value diagonal, 8 per row in range of a
    /// dense diagonal, 16 per hole row. On the CSR loop: values, column
    /// indices and row pointers.
    pub fn coefficient_bytes(&self) -> usize {
        match &self.bands {
            Some(bands) => bands.bytes(self.nrows, self.ncols),
            None => 16 * self.nnz() + 8 * (self.nrows + 1),
        }
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

    /// Dense reference (O(n²) memory).
    #[cfg(test)]
    fn to_dense(&self) -> Vec<Vec<f64>> {
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
    fn stencil_diagonals_are_one_value_with_edge_holes() {
        let a = CsrMatrix::laplacian_2d(12, 10);
        let bands = a.bands.as_deref().unwrap();
        assert_eq!(bands.offsets, [-12, -1, 0, 1, 12]);
        assert!(bands.diags.iter().all(|d| matches!(d, Diag::One(_))));
        // `i = 0` rows lack the -1 entry, `i = 11` rows the +1 entry; the
        // first and last rows have no such column to miss.
        let rows: Vec<usize> = bands.holes.iter().map(|&(r, _)| r).collect();
        let want: Vec<usize> = (1..119).filter(|r| r % 12 == 0 || r % 12 == 11).collect();
        assert_eq!(rows, want);
        assert_eq!(bands.holes[0], (11, 0b10110)); // no -12 on the first grid row
        assert_eq!(bands.holes[1], (12, 0b11101));
        assert_eq!(a.coefficient_bytes(), 5 * 8 + 18 * 16);
    }

    #[test]
    fn a_diagonal_with_two_values_is_dense_and_the_rest_stay_one_value() {
        // [ 2 -1  0 ]
        // [-1  3 -1 ]
        // [ 0 -1  2 ]
        let mut t = vec![(0, 0, 2.0), (1, 1, 3.0), (2, 2, 2.0)];
        t.extend([(0, 1, -1.0), (1, 0, -1.0), (1, 2, -1.0), (2, 1, -1.0)]);
        let a = CsrMatrix::from_triplets(3, 3, &t).unwrap();
        let bands = a.bands.as_deref().unwrap();
        assert_eq!(
            bands.diags,
            [
                Diag::One(-1.0),
                Diag::Dense(vec![2.0, 3.0, 2.0]),
                Diag::One(-1.0)
            ]
        );
        assert!(bands.holes.is_empty());
        assert_eq!(a.coefficient_bytes(), 8 + 3 * 8 + 8);
        let mut y = [0.0; 3];
        a.matvec(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, [0.0, 2.0, 4.0]);
    }

    #[test]
    fn more_diagonals_than_mask_bits_are_stored_dense() {
        // Two rows, 130 shared offsets: banded (130 * 2 <= 2 * 260), but a
        // hole row's bit set could not name them, so every one is dense.
        let t: Vec<_> = (0..2)
            .flat_map(|r| (0..130).map(move |off| (r, r + off, 1.0)))
            .collect();
        let a = CsrMatrix::from_triplets(2, 200, &t).unwrap();
        assert_eq!(a.band_count(), Some(130));
        let bands = a.bands.as_deref().unwrap();
        assert!(bands.diags.iter().all(|d| matches!(d, Diag::Dense(_))));
        assert_eq!(a.coefficient_bytes(), 130 * 2 * 8);
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut y, mut want) = (vec![0.0; 2], vec![0.0; 2]);
        a.matvec(&x, &mut y);
        a.matvec_csr(&x, &mut want);
        assert_eq!(bits(&y), bits(&want));
    }

    #[test]
    fn unstructured_coefficient_bytes_count_the_csr_arrays() {
        let anti: Vec<_> = (0..50).map(|r| (r, 49 - r, 1.0)).collect();
        let a = CsrMatrix::from_triplets(50, 50, &anti).unwrap();
        assert_eq!(a.band_count(), None);
        assert_eq!(a.coefficient_bytes(), 50 * 16 + 51 * 8);
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

    /// Like `arb_banded`, plus a palette of one or two values the
    /// diagonals draw from: most diagonals take one palette value for
    /// every entry (one-value diagonals, with holes below keep 1), some
    /// mix both. Signed zeros are in the palette so that `0.0` and `-0.0`
    /// must not count as one value.
    fn arb_palette_banded() -> impl Strategy<Value = (usize, usize, Vec<isize>, f64, Vec<f64>, u64)>
    {
        let value = prop_oneof![Just(0.0), Just(-0.0), Just(1.0), -4.0f64..4.0];
        let keep = prop_oneof![Just(1.0), 0.3f64..1.0];
        (arb_banded(), keep, proptest::collection::vec(value, 1..3)).prop_map(
            |((nr, nc, offsets, _, seed), keep, palette)| (nr, nc, offsets, keep, palette, seed),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_value_diagonals_with_holes_match_the_csr_loop(
            (nr, nc, offsets, keep, palette, seed) in arb_palette_banded()
        ) {
            let mut rng = seed | 1;
            let mut unit = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng >> 11) as f64 / (1u64 << 53) as f64
            };
            // Per offset: a palette index, or `None` to mix.
            let modes: Vec<Option<usize>> = offsets
                .iter()
                .map(|_| {
                    let u = unit();
                    (u < 0.8).then(|| (u * 10.0) as usize % palette.len())
                })
                .collect();
            let mut indptr = vec![0];
            let mut indices = Vec::new();
            let mut data = Vec::new();
            for r in 0..nr {
                for (&off, mode) in offsets.iter().zip(&modes) {
                    let c = r as isize + off;
                    if (0..nc as isize).contains(&c) && unit() < keep {
                        indices.push(c as usize);
                        let pick = mode.unwrap_or((unit() * 2.0) as usize % palette.len());
                        data.push(palette[pick]);
                    }
                }
                indptr.push(indices.len());
            }
            let a = CsrMatrix::new(nr, nc, indptr, indices, data).unwrap();

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

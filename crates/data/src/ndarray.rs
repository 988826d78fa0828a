//! Dynamically dimensioned, Fortran-style multidimensional arrays.
//!
//! §5 of the paper requires the SIDL to support "dynamically dimensioned
//! multidimensional arrays" with Fortran semantics, because scientific
//! components written in Fortran 77/90 exchange such arrays across language
//! boundaries. [`NdArray`] reproduces the Babel-era array model:
//!
//! * rank is a *runtime* property (1 ..= `MAX_RANK`),
//! * storage is column-major ([`Order::ColumnMajor`]) by default, the layout
//!   Fortran mandates, with row-major available for C callers,
//! * each dimension has an arbitrary (possibly negative) *lower bound*, as
//!   in `REAL A(-3:10)`,
//! * explicit strides permit describing non-contiguous sections, which is
//!   what array-section arguments (`A(1:10:2, :)`) marshal to.

use crate::error::DataError;
use std::fmt;

/// Maximum supported array rank (the Babel/SIDL implementations capped
/// arrays at rank 7, matching Fortran 77's limit).
const MAX_RANK: usize = 7;

/// Storage order of an [`NdArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Order {
    /// Fortran order: the *first* index varies fastest. SIDL's default.
    #[default]
    ColumnMajor,
    /// C order: the *last* index varies fastest.
    RowMajor,
}

/// A slice specification for one dimension: `start ..= end` (inclusive, in
/// index space, honouring lower bounds) with a positive `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// First index taken (in the dimension's own index space).
    pub start: isize,
    /// Last index that may be taken (inclusive).
    pub end: isize,
    /// Step between taken indices; must be >= 1.
    pub step: usize,
}

impl Slice {
    /// A contiguous inclusive range with step 1.
    pub fn range(start: isize, end: isize) -> Self {
        Slice {
            start,
            end,
            step: 1,
        }
    }

    /// A strided inclusive range.
    pub fn strided(start: isize, end: isize, step: usize) -> Self {
        Slice { start, end, step }
    }

    /// Number of indices the slice selects (0 if the range is empty).
    pub fn len(&self) -> usize {
        if self.end < self.start || self.step == 0 {
            0
        } else {
            (self.end - self.start) as usize / self.step + 1
        }
    }

    /// True if the slice selects no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dynamically dimensioned multidimensional array.
///
/// The array owns its storage. Logical indices run from `lower[d]` to
/// `lower[d] + extents[d] - 1` in each dimension `d`.
#[derive(Clone, PartialEq)]
pub struct NdArray<T> {
    data: Vec<T>,
    lower: Vec<isize>,
    extents: Vec<usize>,
    strides: Vec<usize>,
    order: Order,
}

impl<T: Clone + Default> NdArray<T> {
    /// Creates an array of the given extents filled with `T::default()`,
    /// lower bounds all zero, column-major.
    pub fn zeros(extents: &[usize]) -> Self {
        Self::filled(extents, T::default())
    }
}

impl<T: Clone> NdArray<T> {
    /// Creates an array of the given extents filled with copies of `value`.
    pub fn filled(extents: &[usize], value: T) -> Self {
        let n: usize = extents.iter().product();
        Self::from_vec_ordered(extents, vec![value; n], Order::ColumnMajor)
            .expect("extents product matches data length by construction")
    }

    /// Creates a column-major array from a flat vector whose elements are
    /// already in column-major order. Lower bounds are zero.
    pub fn from_vec(extents: &[usize], data: Vec<T>) -> Result<Self, DataError> {
        Self::from_vec_ordered(extents, data, Order::ColumnMajor)
    }

    /// Creates an array from a flat vector in the given storage order.
    fn from_vec_ordered(extents: &[usize], data: Vec<T>, order: Order) -> Result<Self, DataError> {
        let lower = vec![0isize; extents.len()];
        Self::with_lower(&lower, extents, data, order)
    }

    /// Full-control constructor: explicit lower bounds, extents, storage
    /// order. `data.len()` must equal the product of `extents`.
    pub fn with_lower(
        lower: &[isize],
        extents: &[usize],
        data: Vec<T>,
        order: Order,
    ) -> Result<Self, DataError> {
        if extents.is_empty() || extents.len() > MAX_RANK {
            return Err(DataError::RankMismatch {
                expected: MAX_RANK,
                found: extents.len(),
            });
        }
        if lower.len() != extents.len() {
            return Err(DataError::RankMismatch {
                expected: extents.len(),
                found: lower.len(),
            });
        }
        let n: usize = extents.iter().product();
        if data.len() != n {
            return Err(DataError::ShapeMismatch {
                expected: extents.to_vec(),
                found: vec![data.len()],
            });
        }
        let strides = Self::contiguous_strides(extents, order);
        Ok(NdArray {
            data,
            lower: lower.to_vec(),
            extents: extents.to_vec(),
            strides,
            order,
        })
    }

    fn contiguous_strides(extents: &[usize], order: Order) -> Vec<usize> {
        let rank = extents.len();
        let mut strides = vec![1usize; rank];
        match order {
            Order::ColumnMajor => {
                for d in 1..rank {
                    strides[d] = strides[d - 1] * extents[d - 1];
                }
            }
            Order::RowMajor => {
                for d in (0..rank.saturating_sub(1)).rev() {
                    strides[d] = strides[d + 1] * extents[d + 1];
                }
            }
        }
        strides
    }

    /// Array rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Per-dimension lower bounds.
    pub fn lower(&self) -> &[isize] {
        &self.lower
    }

    /// Per-dimension upper bounds (inclusive).
    pub fn upper(&self) -> Vec<isize> {
        self.lower
            .iter()
            .zip(&self.extents)
            .map(|(&l, &e)| l + e as isize - 1)
            .collect()
    }

    /// Storage order.
    pub fn order(&self) -> Order {
        self.order
    }

    /// Flat storage offset of a logical multi-index.
    fn offset_of(&self, index: &[isize]) -> Result<usize, DataError> {
        if index.len() != self.rank() {
            return Err(DataError::RankMismatch {
                expected: self.rank(),
                found: index.len(),
            });
        }
        let mut off = 0usize;
        for d in 0..self.rank() {
            let rel = index[d] - self.lower[d];
            if rel < 0 || rel as usize >= self.extents[d] {
                return Err(DataError::IndexOutOfBounds {
                    index: index.to_vec(),
                    lower: self.lower.clone(),
                    extents: self.extents.clone(),
                });
            }
            off += rel as usize * self.strides[d];
        }
        Ok(off)
    }

    /// Logical multi-index of a flat storage offset (the inverse of
    /// [`offset_of`](Self::offset_of) for contiguous arrays).
    #[cfg(test)]
    fn multi_index_of(&self, offset: usize) -> Result<Vec<isize>, DataError> {
        if offset >= self.len() {
            return Err(DataError::IndexOutOfBounds {
                index: vec![offset as isize],
                lower: vec![0],
                extents: vec![self.len()],
            });
        }
        let mut index = vec![0isize; self.rank()];
        for d in 0..self.rank() {
            let rel = (offset / self.strides[d]) % self.extents[d];
            index[d] = self.lower[d] + rel as isize;
        }
        Ok(index)
    }

    /// Reference to the element at a logical multi-index.
    pub fn get(&self, index: &[isize]) -> Result<&T, DataError> {
        Ok(&self.data[self.offset_of(index)?])
    }

    /// Mutable reference to the element at a logical multi-index.
    pub fn get_mut(&mut self, index: &[isize]) -> Result<&mut T, DataError> {
        let off = self.offset_of(index)?;
        Ok(&mut self.data[off])
    }

    /// Sets the element at a logical multi-index.
    pub fn set(&mut self, index: &[isize], value: T) -> Result<(), DataError> {
        let off = self.offset_of(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Raw storage in layout order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Extracts a rectangular (possibly strided) section as a new owned
    /// array. The result keeps the source's storage order; its lower bounds
    /// are reset to zero (section semantics, as in Fortran dummy arguments).
    pub fn slice(&self, spec: &[Slice]) -> Result<NdArray<T>, DataError> {
        if spec.len() != self.rank() {
            return Err(DataError::RankMismatch {
                expected: self.rank(),
                found: spec.len(),
            });
        }
        let upper = self.upper();
        for (d, s) in spec.iter().enumerate() {
            if s.step == 0 {
                return Err(DataError::InvalidSlice(format!("dimension {d}: step 0")));
            }
            if !s.is_empty() && (s.start < self.lower[d] || s.end > upper[d]) {
                return Err(DataError::InvalidSlice(format!(
                    "dimension {d}: {}..={} outside {}..={}",
                    s.start, s.end, self.lower[d], upper[d]
                )));
            }
        }
        let extents: Vec<usize> = spec.iter().map(|s| s.len()).collect();
        let n: usize = extents.iter().product();
        let mut out = Vec::with_capacity(n);
        if n > 0 {
            // Walk the source in the result's storage order: an odometer
            // over the dimensions, fastest first, each step one stride.
            let base: usize = (0..self.rank())
                .map(|d| (spec[d].start - self.lower[d]) as usize * self.strides[d])
                .sum();
            let mut dims: Vec<usize> = (0..self.rank()).collect();
            if self.order == Order::RowMajor {
                dims.reverse();
            }
            let steps: Vec<usize> = (0..self.rank())
                .map(|d| self.strides[d] * spec[d].step)
                .collect();
            let mut counters = vec![0usize; self.rank()];
            let mut at = base;
            'walk: loop {
                out.push(self.data[at].clone());
                for &d in &dims {
                    counters[d] += 1;
                    if counters[d] < extents[d] {
                        at += steps[d];
                        continue 'walk;
                    }
                    counters[d] = 0;
                    at -= (extents[d] - 1) * steps[d];
                }
                break;
            }
        }
        NdArray::from_vec_ordered(&extents, out, self.order)
    }

    /// Elementwise map producing a new array with the same shape.
    pub fn map<U: Clone>(&self, f: impl Fn(&T) -> U) -> NdArray<U> {
        NdArray {
            data: self.data.iter().map(f).collect(),
            lower: self.lower.clone(),
            extents: self.extents.clone(),
            strides: self.strides.clone(),
            order: self.order,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for NdArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NdArray")
            .field("lower", &self.lower)
            .field("extents", &self.extents)
            .field("order", &self.order)
            .field("data", &self.data)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_offsets_match_fortran() {
        // A(0:2, 0:1): offset(i,j) = i + 3j, first index fastest.
        let a = NdArray::<i32>::from_vec(&[3, 2], (0..6).collect()).unwrap();
        assert_eq!(a.offset_of(&[0, 0]).unwrap(), 0);
        assert_eq!(a.offset_of(&[1, 0]).unwrap(), 1);
        assert_eq!(a.offset_of(&[2, 0]).unwrap(), 2);
        assert_eq!(a.offset_of(&[0, 1]).unwrap(), 3);
        assert_eq!(a.offset_of(&[2, 1]).unwrap(), 5);
    }

    #[test]
    fn row_major_offsets_match_c() {
        let a =
            NdArray::<i32>::from_vec_ordered(&[3, 2], (0..6).collect(), Order::RowMajor).unwrap();
        assert_eq!(a.offset_of(&[0, 0]).unwrap(), 0);
        assert_eq!(a.offset_of(&[0, 1]).unwrap(), 1);
        assert_eq!(a.offset_of(&[1, 0]).unwrap(), 2);
        assert_eq!(a.offset_of(&[2, 1]).unwrap(), 5);
    }

    #[test]
    fn fortran_lower_bounds() {
        // REAL A(-2:2) — five elements indexed -2..=2.
        let a =
            NdArray::with_lower(&[-2], &[5], vec![10, 11, 12, 13, 14], Order::ColumnMajor).unwrap();
        assert_eq!(*a.get(&[-2]).unwrap(), 10);
        assert_eq!(*a.get(&[0]).unwrap(), 12);
        assert_eq!(*a.get(&[2]).unwrap(), 14);
        assert_eq!(a.upper(), vec![2]);
        assert!(a.get(&[3]).is_err());
        assert!(a.get(&[-3]).is_err());
    }

    #[test]
    fn offset_index_round_trip() {
        let a = NdArray::<u8>::with_lower(&[-1, 2, 0], &[3, 4, 2], vec![0; 24], Order::ColumnMajor)
            .unwrap();
        for off in 0..a.len() {
            let idx = a.multi_index_of(off).unwrap();
            assert_eq!(a.offset_of(&idx).unwrap(), off, "index {idx:?}");
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut a = NdArray::<f64>::zeros(&[2, 2, 2]);
        a.set(&[1, 0, 1], 42.0).unwrap();
        assert_eq!(*a.get(&[1, 0, 1]).unwrap(), 42.0);
        *a.get_mut(&[0, 1, 0]).unwrap() = 7.0;
        assert_eq!(*a.get(&[0, 1, 0]).unwrap(), 7.0);
    }

    #[test]
    fn rank_limits_enforced() {
        assert!(NdArray::<u8>::from_vec(&[], vec![]).is_err());
        let extents = vec![1usize; MAX_RANK + 1];
        assert!(NdArray::<u8>::from_vec(&extents, vec![0]).is_err());
        let extents = vec![1usize; MAX_RANK];
        assert!(NdArray::<u8>::from_vec(&extents, vec![0]).is_ok());
    }

    #[test]
    fn data_length_checked() {
        assert!(NdArray::<u8>::from_vec(&[2, 2], vec![0; 3]).is_err());
    }

    #[test]
    fn slicing_contiguous() {
        let a = NdArray::<i32>::from_vec(&[4, 3], (0..12).collect()).unwrap();
        let s = a.slice(&[Slice::range(1, 2), Slice::range(0, 2)]).unwrap();
        assert_eq!(s.extents(), &[2, 3]);
        // s(i,j) = a(i+1, j)
        for j in 0..3isize {
            for i in 0..2isize {
                assert_eq!(s.get(&[i, j]).unwrap(), a.get(&[i + 1, j]).unwrap());
            }
        }
    }

    #[test]
    fn slicing_strided_matches_fortran_section() {
        // A(1:9:2) of A(0:9) -> elements 1,3,5,7,9
        let a = NdArray::<i32>::from_vec(&[10], (0..10).collect()).unwrap();
        let s = a.slice(&[Slice::strided(1, 9, 2)]).unwrap();
        assert_eq!(s.as_slice(), &[1, 3, 5, 7, 9]);
    }

    #[test]
    fn slice_validation() {
        let a = NdArray::<i32>::from_vec(&[4], (0..4).collect()).unwrap();
        assert!(a.slice(&[Slice::strided(0, 3, 0)]).is_err());
        assert!(a.slice(&[Slice::range(0, 4)]).is_err());
        assert!(a.slice(&[Slice::range(-1, 2)]).is_err());
        // empty slice is fine
        let e = a.slice(&[Slice::range(2, 1)]).unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn map_applies_elementwise() {
        let a = NdArray::<i32>::from_vec(&[2, 2], vec![1, 2, 3, 4]).unwrap();
        let b = a.map(|x| x * 10);
        assert_eq!(b.as_slice(), &[10, 20, 30, 40]);
        assert_eq!(b.extents(), a.extents());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// [`NdArray::slice`] as it was first written — a zeroed probe array
    /// of the result's shape, a multi-index per output element, a
    /// bounds-checked `get` per read — kept as the oracle the strided walk
    /// must match.
    fn slice_by_index<T: Clone>(a: &NdArray<T>, spec: &[Slice]) -> Result<NdArray<T>, DataError> {
        if spec.len() != a.rank() {
            return Err(DataError::RankMismatch {
                expected: a.rank(),
                found: spec.len(),
            });
        }
        let upper = a.upper();
        for (d, s) in spec.iter().enumerate() {
            if s.step == 0 {
                return Err(DataError::InvalidSlice(format!("dimension {d}: step 0")));
            }
            if !s.is_empty() && (s.start < a.lower[d] || s.end > upper[d]) {
                return Err(DataError::InvalidSlice(format!(
                    "dimension {d}: {}..={} outside {}..={}",
                    s.start, s.end, a.lower[d], upper[d]
                )));
            }
        }
        let new_extents: Vec<usize> = spec.iter().map(|s| s.len()).collect();
        let n: usize = new_extents.iter().product();
        let mut out = Vec::with_capacity(n);
        let result_shape_probe =
            NdArray::<u8>::from_vec_ordered(&new_extents, vec![0; n], a.order)?;
        let mut src_index = vec![0isize; a.rank()];
        for off in 0..n {
            let rel = result_shape_probe.multi_index_of(off)?;
            for d in 0..a.rank() {
                src_index[d] = spec[d].start + rel[d] * spec[d].step as isize;
            }
            out.push(a.get(&src_index)?.clone());
        }
        NdArray::from_vec_ordered(&new_extents, out, a.order)
    }

    fn arb_shape() -> impl Strategy<Value = (Vec<isize>, Vec<usize>)> {
        (1usize..=4)
            .prop_flat_map(|rank| {
                (
                    proptest::collection::vec(-5isize..5, rank),
                    proptest::collection::vec(1usize..5, rank),
                )
            })
            .prop_filter("bounded element count", |(_, e)| {
                e.iter().product::<usize>() <= 256
            })
    }

    proptest! {
        #[test]
        fn offset_index_bijection((lower, extents) in arb_shape(),
                                   row_major in any::<bool>()) {
            let order = if row_major { Order::RowMajor } else { Order::ColumnMajor };
            let n: usize = extents.iter().product();
            let a = NdArray::<u8>::with_lower(&lower, &extents, vec![0; n], order).unwrap();
            let mut seen = vec![false; n];
            for off in 0..n {
                let idx = a.multi_index_of(off).unwrap();
                let back = a.offset_of(&idx).unwrap();
                prop_assert_eq!(back, off);
                prop_assert!(!seen[off]);
                seen[off] = true;
                // Index is within bounds.
                for d in 0..a.rank() {
                    prop_assert!(idx[d] >= lower[d]);
                    prop_assert!(idx[d] < lower[d] + extents[d] as isize);
                }
            }
        }

        #[test]
        fn slice_full_range_is_identity((lower, extents) in arb_shape()) {
            let n: usize = extents.iter().product();
            let data: Vec<u32> = (0..n as u32).collect();
            let a = NdArray::with_lower(&lower, &extents, data, Order::ColumnMajor).unwrap();
            let spec: Vec<Slice> = (0..a.rank())
                .map(|d| Slice::range(lower[d], lower[d] + extents[d] as isize - 1))
                .collect();
            let s = a.slice(&spec).unwrap();
            prop_assert_eq!(s.as_slice(), a.as_slice());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The strided walk gives what the index-by-index oracle gives —
        /// elements, shape and order, or the same error — over ranks 1–3,
        /// both storage orders, negative lower bounds, steps past 1, step
        /// 0, empty ranges, ranges that start below the lower bound or
        /// run past the upper one, and now and then a rank mismatch.
        #[test]
        fn slice_matches_the_index_by_index_oracle(
            (lower, extents) in (1usize..=3).prop_flat_map(|rank| {
                (
                    proptest::collection::vec(-5isize..5, rank),
                    proptest::collection::vec(1usize..5, rank),
                )
            }),
            row_major in any::<bool>(),
            cuts in proptest::collection::vec((0usize..8, 0usize..8, 0usize..8), 4),
            rank_off in 0usize..8,
        ) {
            let order = if row_major { Order::RowMajor } else { Order::ColumnMajor };
            let n: usize = extents.iter().product();
            let data: Vec<u32> = (0..n as u32).collect();
            let a = NdArray::with_lower(&lower, &extents, data, order).unwrap();
            let rank = if rank_off == 0 { extents.len() + 1 } else { extents.len() };
            let spec: Vec<Slice> = (0..rank)
                .map(|d| {
                    let (from, len, step) = cuts[d];
                    let lo = lower.get(d).copied().unwrap_or(0);
                    let ext = extents.get(d).copied().unwrap_or(1) as isize;
                    // Mostly inside the bounds: `from` 7 starts one below
                    // them, `len` 0 is empty and `len` 7 runs one past.
                    let start = if from == 7 { lo - 1 } else { lo + from as isize % ext };
                    let room = (lo + ext - start).max(1);
                    let end = match len {
                        0 => start - 1,
                        7 => lo + ext,
                        _ => start + len as isize % room,
                    };
                    let step = if step == 0 { 0 } else { 1 + step % 3 };
                    Slice::strided(start, end, step)
                })
                .collect();
            prop_assert_eq!(a.slice(&spec), slice_by_index(&a, &spec));
        }
    }
}

/// A borrowed, possibly strided view of an [`NdArray`] — the zero-copy
/// form of a Fortran array section (`A(1:9:2, :)`), which is what SIDL
/// bindings pass when a caller hands a section to a component without
/// copying.
#[derive(Debug, Clone, Copy)]
pub struct NdView<'a, T> {
    data: &'a [T],
    offset: usize,
    extents: &'a [usize],
    strides: &'a [usize],
}

impl<T: Clone> NdArray<T> {
    /// A full view of the array (zero lower bounds).
    pub fn view(&self) -> NdView<'_, T> {
        NdView {
            data: &self.data,
            offset: 0,
            extents: &self.extents,
            strides: &self.strides,
        }
    }

    /// A zero-copy strided section. Unlike [`NdArray::slice`] this does
    /// not copy the elements; it records an offset plus scaled strides.
    /// The view's indices are zero-based over the section.
    pub fn section<'a>(
        &'a self,
        spec: &[Slice],
        storage: &'a mut ViewStorage,
    ) -> Result<NdView<'a, T>, DataError> {
        if spec.len() != self.rank() {
            return Err(DataError::RankMismatch {
                expected: self.rank(),
                found: spec.len(),
            });
        }
        let upper = self.upper();
        let mut offset = 0usize;
        storage.extents.clear();
        storage.strides.clear();
        for (d, s) in spec.iter().enumerate() {
            if s.step == 0 {
                return Err(DataError::InvalidSlice(format!("dimension {d}: step 0")));
            }
            if !s.is_empty() && (s.start < self.lower[d] || s.end > upper[d]) {
                return Err(DataError::InvalidSlice(format!(
                    "dimension {d}: {}..={} outside {}..={}",
                    s.start, s.end, self.lower[d], upper[d]
                )));
            }
            let rel0 = (s.start - self.lower[d]).max(0) as usize;
            offset += rel0 * self.strides[d];
            storage.extents.push(s.len());
            storage.strides.push(self.strides[d] * s.step);
        }
        Ok(NdView {
            data: &self.data,
            offset,
            extents: &storage.extents,
            strides: &storage.strides,
        })
    }
}

/// Scratch space holding a section view's shape (lets [`NdView`] borrow
/// rather than allocate per access).
#[derive(Debug, Default, Clone)]
pub struct ViewStorage {
    extents: Vec<usize>,
    strides: Vec<usize>,
}

impl<'a, T: Clone> NdView<'a, T> {
    /// View rank.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Per-dimension extents of the view.
    pub fn extents(&self) -> &[usize] {
        self.extents
    }

    /// Total elements the view selects.
    pub fn len(&self) -> usize {
        self.extents.iter().product()
    }

    /// True if the view selects nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element at a zero-based view index.
    pub fn get(&self, index: &[usize]) -> Result<&'a T, DataError> {
        if index.len() != self.rank() {
            return Err(DataError::RankMismatch {
                expected: self.rank(),
                found: index.len(),
            });
        }
        let mut off = self.offset;
        for d in 0..self.rank() {
            if index[d] >= self.extents[d] {
                return Err(DataError::IndexOutOfBounds {
                    index: index.iter().map(|&i| i as isize).collect(),
                    lower: vec![0; self.rank()],
                    extents: self.extents.to_vec(),
                });
            }
            off += index[d] * self.strides[d];
        }
        Ok(&self.data[off])
    }
}

#[cfg(test)]
mod view_tests {
    use super::*;

    /// The view's elements in column-major order (first index fastest).
    fn elements(v: &NdView<'_, i32>) -> Vec<i32> {
        let mut out = Vec::with_capacity(v.len());
        let mut idx = vec![0usize; v.rank()];
        for _ in 0..v.len() {
            out.push(*v.get(&idx).unwrap());
            for d in 0..v.rank() {
                idx[d] += 1;
                if idx[d] < v.extents()[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    #[test]
    fn full_view_reads_all_elements() {
        let a = NdArray::<i32>::from_vec(&[3, 2], (0..6).collect()).unwrap();
        let v = a.view();
        assert_eq!(v.rank(), 2);
        assert_eq!(v.len(), 6);
        for j in 0..2 {
            for i in 0..3 {
                assert_eq!(
                    v.get(&[i, j]).unwrap(),
                    a.get(&[i as isize, j as isize]).unwrap()
                );
            }
        }
    }

    #[test]
    fn strided_section_is_zero_copy_and_correct() {
        // A(1:9:2) of a 10-vector: view must see 1,3,5,7,9 without copying.
        let a = NdArray::<i32>::from_vec(&[10], (0..10).collect()).unwrap();
        let mut storage = ViewStorage::default();
        let v = a.section(&[Slice::strided(1, 9, 2)], &mut storage).unwrap();
        assert_eq!(v.extents(), &[5]);
        for k in 0..5 {
            assert_eq!(*v.get(&[k]).unwrap(), 1 + 2 * k as i32);
        }
        // Equivalent to the copying slice.
        assert_eq!(
            elements(&v),
            a.slice(&[Slice::strided(1, 9, 2)]).unwrap().as_slice()
        );
    }

    #[test]
    fn two_dimensional_section_matches_copying_slice() {
        let a = NdArray::<i32>::from_vec(&[4, 4], (0..16).collect()).unwrap();
        let spec = [Slice::strided(0, 3, 2), Slice::range(1, 2)];
        let mut storage = ViewStorage::default();
        let v = a.section(&spec, &mut storage).unwrap();
        let copied = a.slice(&spec).unwrap();
        assert_eq!(v.extents(), copied.extents());
        assert_eq!(elements(&v), copied.as_slice());
    }

    #[test]
    fn section_respects_lower_bounds() {
        let a =
            NdArray::with_lower(&[-2], &[5], vec![10, 11, 12, 13, 14], Order::ColumnMajor).unwrap();
        let mut storage = ViewStorage::default();
        let v = a.section(&[Slice::range(-1, 1)], &mut storage).unwrap();
        assert_eq!(v.extents(), &[3]);
        assert_eq!(*v.get(&[0]).unwrap(), 11);
        assert_eq!(*v.get(&[2]).unwrap(), 13);
    }

    #[test]
    fn view_bounds_checked() {
        let a = NdArray::<i32>::from_vec(&[2, 2], (0..4).collect()).unwrap();
        let v = a.view();
        assert!(v.get(&[2, 0]).is_err());
        assert!(v.get(&[0]).is_err());
        let mut storage = ViewStorage::default();
        assert!(a
            .section(&[Slice::range(0, 2), Slice::range(0, 1)], &mut storage)
            .is_err());
        assert!(a.section(&[Slice::range(0, 1)], &mut storage).is_err());
    }

    #[test]
    fn empty_section() {
        let a = NdArray::<i32>::from_vec(&[4], (0..4).collect()).unwrap();
        let mut storage = ViewStorage::default();
        let v = a.section(&[Slice::range(3, 1)], &mut storage).unwrap();
        assert!(v.is_empty());
        assert_eq!(elements(&v).len(), 0);
    }
}

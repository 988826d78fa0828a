//! Data-distribution descriptors for parallel components.
//!
//! §6.3 of the paper: "The creation of a collective port requires that the
//! programmer specify the mapping of data (or processes participating) in
//! the operations on this port." This module provides that mapping
//! vocabulary: a cartesian [`ProcessGrid`], per-dimension distributions
//! ([`DimDist`]: block, cyclic, block-cyclic — the HPF trio the CCA-era
//! systems PAWS/CUMULVS/PARDIS all spoke), and a [`DistArrayDesc`] that ties
//! a global array shape to a distribution and answers ownership and
//! index-translation queries.
//!
//! A *serial* component is simply a 1-rank grid, which is how the paper's
//! "serial component interacts with a parallel component" case (broadcast /
//! gather / scatter semantics) falls out of the general M×N machinery.

use crate::error::DataError;

/// A cartesian grid of SPMD processes. Ranks are numbered in column-major
/// order over the grid coordinates (first grid dimension varies fastest).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcessGrid {
    extents: Vec<usize>,
}

impl ProcessGrid {
    /// Creates a grid with the given per-dimension process counts.
    pub fn new(extents: &[usize]) -> Result<Self, DataError> {
        if extents.is_empty() || extents.contains(&0) {
            return Err(DataError::InvalidDistribution(format!(
                "process grid extents must be non-empty and positive, got {extents:?}"
            )));
        }
        Ok(ProcessGrid {
            extents: extents.to_vec(),
        })
    }

    /// A 1-D grid of `n` processes.
    pub fn linear(n: usize) -> Result<Self, DataError> {
        Self::new(&[n])
    }

    /// Grid rank (number of grid dimensions).
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Per-dimension process counts.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Total number of processes in the grid.
    pub fn size(&self) -> usize {
        self.extents.iter().product()
    }

    /// Converts grid coordinates to a linear rank.
    fn rank_of(&self, coords: &[usize]) -> Result<usize, DataError> {
        if coords.len() != self.rank() {
            return Err(DataError::RankMismatch {
                expected: self.rank(),
                found: coords.len(),
            });
        }
        let mut rank = 0usize;
        let mut stride = 1usize;
        for (d, &c) in coords.iter().enumerate() {
            if c >= self.extents[d] {
                return Err(DataError::InvalidDistribution(format!(
                    "grid coordinate {c} out of range for dimension {d} (extent {})",
                    self.extents[d]
                )));
            }
            rank += c * stride;
            stride *= self.extents[d];
        }
        Ok(rank)
    }

    /// Converts a linear rank to grid coordinates.
    pub fn coords_of(&self, mut rank: usize) -> Result<Vec<usize>, DataError> {
        if rank >= self.size() {
            return Err(DataError::InvalidDistribution(format!(
                "rank {rank} out of range for grid of size {}",
                self.size()
            )));
        }
        let mut coords = Vec::with_capacity(self.rank());
        for &e in &self.extents {
            coords.push(rank % e);
            rank /= e;
        }
        Ok(coords)
    }
}

/// How one array dimension is split over one process-grid dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimDist {
    /// Contiguous blocks of `ceil(n/p)` elements per process (HPF `BLOCK`).
    Block,
    /// Round-robin single elements (HPF `CYCLIC`).
    Cyclic,
    /// Round-robin blocks of the given size (HPF `CYCLIC(b)`).
    BlockCyclic {
        /// Block size; must be >= 1.
        block: usize,
    },
}

impl DimDist {
    /// The effective block size for a dimension of extent `n` over `p`
    /// processes.
    fn block_size(&self, n: usize, p: usize) -> Result<usize, DataError> {
        match *self {
            DimDist::Block => Ok(n.div_ceil(p).max(1)),
            DimDist::Cyclic => Ok(1),
            DimDist::BlockCyclic { block } => {
                if block == 0 {
                    Err(DataError::InvalidDistribution(
                        "block-cyclic block size must be >= 1".into(),
                    ))
                } else {
                    Ok(block)
                }
            }
        }
    }
}

/// A rectangular region of a global index space: `start[d] .. start[d] +
/// len[d]` in each dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Inclusive start of the region in each dimension.
    pub start: Vec<usize>,
    /// Extent of the region in each dimension.
    pub len: Vec<usize>,
}

impl Region {
    /// Number of elements covered.
    pub fn count(&self) -> usize {
        self.len.iter().product()
    }

    /// Intersection of two same-rank regions, or `None` if disjoint/empty.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        debug_assert_eq!(self.start.len(), other.start.len());
        let rank = self.start.len();
        let mut start = Vec::with_capacity(rank);
        let mut len = Vec::with_capacity(rank);
        for d in 0..rank {
            let s = self.start[d].max(other.start[d]);
            let e = (self.start[d] + self.len[d]).min(other.start[d] + other.len[d]);
            if e <= s {
                return None;
            }
            start.push(s);
            len.push(e - s);
        }
        Some(Region { start, len })
    }

    /// Iterates over every global multi-index in the region, first dimension
    /// fastest (column-major traversal).
    pub fn indices(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        let total = self.count();
        (0..total).map(move |mut k| {
            let mut idx = Vec::with_capacity(self.start.len());
            for d in 0..self.start.len() {
                idx.push(self.start[d] + k % self.len[d]);
                k /= self.len[d];
            }
            idx
        })
    }
}

/// A complete distribution: a process grid plus one [`DimDist`] per array
/// dimension. Array dimension `d` is distributed over grid dimension `d`;
/// the grid must therefore have the same rank as the array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Distribution {
    grid: ProcessGrid,
    dims: Vec<DimDist>,
}

impl Distribution {
    /// Creates a distribution; `dims.len()` must equal the grid rank.
    pub fn new(grid: ProcessGrid, dims: &[DimDist]) -> Result<Self, DataError> {
        if dims.len() != grid.rank() {
            return Err(DataError::InvalidDistribution(format!(
                "distribution has {} dim specs but grid rank is {}",
                dims.len(),
                grid.rank()
            )));
        }
        Ok(Distribution {
            grid,
            dims: dims.to_vec(),
        })
    }

    /// Block distribution of every dimension over a linear grid of `p`
    /// processes in the first dimension (remaining dims undistributed) —
    /// the common row-block layout for matrices and meshes.
    pub fn block_1d(p: usize, rank: usize) -> Result<Self, DataError> {
        let mut grid_extents = vec![1usize; rank];
        grid_extents[0] = p;
        let grid = ProcessGrid::new(&grid_extents)?;
        Self::new(grid, &vec![DimDist::Block; rank])
    }

    /// A serial (single-process) "distribution" of the given rank.
    pub fn serial(rank: usize) -> Result<Self, DataError> {
        let grid = ProcessGrid::new(&vec![1usize; rank])?;
        Self::new(grid, &vec![DimDist::Block; rank])
    }

    /// The underlying process grid.
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// Per-dimension distribution kinds.
    pub fn dims(&self) -> &[DimDist] {
        &self.dims
    }
}

/// A global array shape bound to a [`Distribution`]: the descriptor a
/// collective port exchanges so each side can compute the M×N transfer
/// pattern without any central coordinator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistArrayDesc {
    global_extents: Vec<usize>,
    dist: Distribution,
}

impl DistArrayDesc {
    /// Binds a global shape to a distribution (ranks must agree).
    pub fn new(global_extents: &[usize], dist: Distribution) -> Result<Self, DataError> {
        if global_extents.len() != dist.grid().rank() {
            return Err(DataError::InvalidDistribution(format!(
                "array rank {} != distribution rank {}",
                global_extents.len(),
                dist.grid().rank()
            )));
        }
        if global_extents.contains(&0) {
            return Err(DataError::InvalidDistribution(format!(
                "global extents must be positive, got {global_extents:?}"
            )));
        }
        // Validate block sizes eagerly.
        for (d, dd) in dist.dims().iter().enumerate() {
            dd.block_size(global_extents[d], dist.grid().extents()[d])?;
        }
        Ok(DistArrayDesc {
            global_extents: global_extents.to_vec(),
            dist,
        })
    }

    /// Global array extents.
    pub fn global_extents(&self) -> &[usize] {
        &self.global_extents
    }

    /// The distribution.
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// Array/grid rank.
    pub fn rank(&self) -> usize {
        self.global_extents.len()
    }

    /// Number of participating processes.
    pub fn nranks(&self) -> usize {
        self.dist.grid().size()
    }

    /// The grid coordinate along dimension `d` that owns global index `i`.
    fn dim_owner(&self, d: usize, i: usize) -> usize {
        let n = self.global_extents[d];
        let p = self.dist.grid().extents()[d];
        let b = self.dist.dims()[d].block_size(n, p).expect("validated");
        (i / b) % p
    }

    /// The local index along dimension `d` of global index `i` on its owner.
    fn dim_local(&self, d: usize, i: usize) -> usize {
        let n = self.global_extents[d];
        let p = self.dist.grid().extents()[d];
        let b = self.dist.dims()[d].block_size(n, p).expect("validated");
        (i / (p * b)) * b + i % b
    }

    /// Number of locally owned indices along dimension `d` on grid
    /// coordinate `coord`.
    fn dim_local_extent(&self, d: usize, coord: usize) -> usize {
        let n = self.global_extents[d];
        let p = self.dist.grid().extents()[d];
        let b = self.dist.dims()[d].block_size(n, p).expect("validated");
        let cycle = p * b;
        let full_cycles = n / cycle;
        let rem = n % cycle;
        let extra = rem.saturating_sub(coord * b).min(b);
        full_cycles * b + extra
    }

    /// The linear rank that owns a global multi-index.
    pub fn owner_of(&self, index: &[usize]) -> Result<usize, DataError> {
        self.check_global(index)?;
        let coords: Vec<usize> = (0..self.rank())
            .map(|d| self.dim_owner(d, index[d]))
            .collect();
        self.dist.grid().rank_of(&coords)
    }

    /// Local extents of the portion owned by `rank`.
    pub fn local_extents(&self, rank: usize) -> Result<Vec<usize>, DataError> {
        let coords = self.dist.grid().coords_of(rank)?;
        Ok((0..self.rank())
            .map(|d| self.dim_local_extent(d, coords[d]))
            .collect())
    }

    /// Number of elements owned by `rank`.
    pub fn local_count(&self, rank: usize) -> Result<usize, DataError> {
        Ok(self.local_extents(rank)?.iter().product())
    }

    /// Maps a global multi-index to `(owner_rank, local_index)`.
    pub fn global_to_local(&self, index: &[usize]) -> Result<(usize, Vec<usize>), DataError> {
        let rank = self.owner_of(index)?;
        let local: Vec<usize> = (0..self.rank())
            .map(|d| self.dim_local(d, index[d]))
            .collect();
        Ok((rank, local))
    }

    /// Flat column-major offset of a *global* index within `rank`'s local
    /// buffer; an error unless `rank` owns the index.
    pub fn local_offset(&self, rank: usize, global: &[usize]) -> Result<usize, DataError> {
        let (owner, local) = self.global_to_local(global)?;
        if owner != rank {
            return Err(DataError::InvalidDistribution(format!(
                "global index {global:?} owned by rank {owner}, not {rank}"
            )));
        }
        let extents = self.local_extents(rank)?;
        let mut off = 0usize;
        let mut stride = 1usize;
        for d in 0..extents.len() {
            off += local[d] * stride;
            stride *= extents[d];
        }
        Ok(off)
    }

    /// The contiguous global intervals owned along dimension `d` by grid
    /// coordinate `coord`, as `(start, len)` pairs in ascending order.
    pub fn dim_intervals(&self, d: usize, coord: usize) -> Vec<(usize, usize)> {
        let n = self.global_extents[d];
        let p = self.dist.grid().extents()[d];
        let b = self.dist.dims()[d].block_size(n, p).expect("validated");
        let mut out = Vec::new();
        let mut cycle = 0usize;
        loop {
            let start = (cycle * p + coord) * b;
            if start >= n {
                break;
            }
            out.push((start, b.min(n - start)));
            cycle += 1;
        }
        out
    }

    /// All rectangular global regions owned by `rank` (cartesian product of
    /// per-dimension intervals). For a pure block distribution this is a
    /// single region; cyclic distributions produce many small ones.
    pub fn owned_regions(&self, rank: usize) -> Result<Vec<Region>, DataError> {
        let coords = self.dist.grid().coords_of(rank)?;
        let per_dim: Vec<Vec<(usize, usize)>> = (0..self.rank())
            .map(|d| self.dim_intervals(d, coords[d]))
            .collect();
        let mut regions = vec![Region {
            start: vec![],
            len: vec![],
        }];
        for intervals in &per_dim {
            let mut next = Vec::with_capacity(regions.len() * intervals.len());
            for r in &regions {
                for &(s, l) in intervals {
                    let mut start = r.start.clone();
                    let mut len = r.len.clone();
                    start.push(s);
                    len.push(l);
                    next.push(Region { start, len });
                }
            }
            regions = next;
        }
        Ok(regions)
    }

    fn check_global(&self, index: &[usize]) -> Result<(), DataError> {
        if index.len() != self.rank() {
            return Err(DataError::RankMismatch {
                expected: self.rank(),
                found: index.len(),
            });
        }
        for d in 0..self.rank() {
            if index[d] >= self.global_extents[d] {
                return Err(DataError::IndexOutOfBounds {
                    index: index.iter().map(|&x| x as isize).collect(),
                    lower: vec![0; self.rank()],
                    extents: self.global_extents.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rank_coord_round_trip() {
        let g = ProcessGrid::new(&[3, 2]).unwrap();
        assert_eq!(g.size(), 6);
        for r in 0..6 {
            let c = g.coords_of(r).unwrap();
            assert_eq!(g.rank_of(&c).unwrap(), r);
        }
        assert_eq!(g.rank_of(&[1, 1]).unwrap(), 4); // column-major: 1 + 1*3
        assert!(g.rank_of(&[3, 0]).is_err());
        assert!(g.coords_of(6).is_err());
    }

    #[test]
    fn grid_validation() {
        assert!(ProcessGrid::new(&[]).is_err());
        assert!(ProcessGrid::new(&[0, 2]).is_err());
        assert!(ProcessGrid::linear(4).is_ok());
    }

    #[test]
    fn block_distribution_ownership() {
        // 10 elements over 4 procs, block => blocks of 3: [0..3)->0, [3..6)->1,
        // [6..9)->2, [9..10)->3.
        let d = DistArrayDesc::new(&[10], Distribution::block_1d(4, 1).unwrap()).unwrap();
        let owners: Vec<usize> = (0..10).map(|i| d.owner_of(&[i]).unwrap()).collect();
        assert_eq!(owners, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(d.local_count(0).unwrap(), 3);
        assert_eq!(d.local_count(3).unwrap(), 1);
    }

    #[test]
    fn cyclic_distribution_ownership() {
        let dist = Distribution::new(ProcessGrid::linear(3).unwrap(), &[DimDist::Cyclic]).unwrap();
        let d = DistArrayDesc::new(&[7], dist).unwrap();
        let owners: Vec<usize> = (0..7).map(|i| d.owner_of(&[i]).unwrap()).collect();
        assert_eq!(owners, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(d.local_count(0).unwrap(), 3);
        assert_eq!(d.local_count(1).unwrap(), 2);
        assert_eq!(d.local_count(2).unwrap(), 2);
    }

    #[test]
    fn block_cyclic_distribution_ownership() {
        let dist = Distribution::new(
            ProcessGrid::linear(2).unwrap(),
            &[DimDist::BlockCyclic { block: 2 }],
        )
        .unwrap();
        let d = DistArrayDesc::new(&[9], dist).unwrap();
        // blocks of 2: [0,1]->0 [2,3]->1 [4,5]->0 [6,7]->1 [8]->0
        let owners: Vec<usize> = (0..9).map(|i| d.owner_of(&[i]).unwrap()).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 0, 0, 1, 1, 0]);
    }

    #[test]
    fn global_local_round_trip_2d() {
        let dist = Distribution::new(
            ProcessGrid::new(&[2, 2]).unwrap(),
            &[DimDist::Block, DimDist::Cyclic],
        )
        .unwrap();
        let d = DistArrayDesc::new(&[5, 6], dist).unwrap();
        // Every global index lands on a distinct in-range local slot.
        let mut seen = std::collections::HashSet::new();
        for i in 0..5 {
            for j in 0..6 {
                let (rank, local) = d.global_to_local(&[i, j]).unwrap();
                let extents = d.local_extents(rank).unwrap();
                assert!(local.iter().zip(&extents).all(|(l, e)| l < e));
                assert!(seen.insert((rank, local)), "({i}, {j}) collides");
            }
        }
        let total: usize = (0..d.nranks()).map(|r| d.local_count(r).unwrap()).sum();
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn local_counts_partition_global_count() {
        let dist = Distribution::new(
            ProcessGrid::new(&[3, 2]).unwrap(),
            &[DimDist::BlockCyclic { block: 2 }, DimDist::Block],
        )
        .unwrap();
        let d = DistArrayDesc::new(&[11, 7], dist).unwrap();
        let total: usize = (0..d.nranks()).map(|r| d.local_count(r).unwrap()).sum();
        assert_eq!(total, 77);
    }

    #[test]
    fn owned_regions_cover_local_elements() {
        let dist = Distribution::new(ProcessGrid::linear(3).unwrap(), &[DimDist::Cyclic]).unwrap();
        let d = DistArrayDesc::new(&[8], dist).unwrap();
        for r in 0..3 {
            let regions = d.owned_regions(r).unwrap();
            let covered: usize = regions.iter().map(|g| g.count()).sum();
            assert_eq!(covered, d.local_count(r).unwrap());
            for g in &regions {
                for idx in g.indices() {
                    assert_eq!(d.owner_of(&idx).unwrap(), r);
                }
            }
        }
    }

    #[test]
    fn serial_distribution_owns_everything() {
        let d = DistArrayDesc::new(&[4, 4], Distribution::serial(2).unwrap()).unwrap();
        assert_eq!(d.nranks(), 1);
        assert_eq!(d.local_count(0).unwrap(), 16);
        assert_eq!(d.owner_of(&[3, 3]).unwrap(), 0);
        let regions = d.owned_regions(0).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].count(), 16);
    }

    #[test]
    fn region_intersection() {
        let a = Region {
            start: vec![0, 0],
            len: vec![4, 4],
        };
        let b = Region {
            start: vec![2, 3],
            len: vec![4, 4],
        };
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.start, vec![2, 3]);
        assert_eq!(i.len, vec![2, 1]);
        let c = Region {
            start: vec![4, 0],
            len: vec![1, 1],
        };
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn region_indices_column_major() {
        let r = Region {
            start: vec![1, 10],
            len: vec![2, 2],
        };
        let idx: Vec<Vec<usize>> = r.indices().collect();
        assert_eq!(
            idx,
            vec![vec![1, 10], vec![2, 10], vec![1, 11], vec![2, 11]]
        );
    }

    #[test]
    fn invalid_descriptors_rejected() {
        assert!(DistArrayDesc::new(&[4], Distribution::serial(2).unwrap()).is_err());
        assert!(DistArrayDesc::new(&[0], Distribution::serial(1).unwrap()).is_err());
        let bad = Distribution::new(
            ProcessGrid::linear(2).unwrap(),
            &[DimDist::BlockCyclic { block: 0 }],
        )
        .unwrap();
        assert!(DistArrayDesc::new(&[4], bad).is_err());
    }

    #[test]
    fn more_procs_than_elements() {
        let d = DistArrayDesc::new(&[2], Distribution::block_1d(5, 1).unwrap()).unwrap();
        assert_eq!(d.owner_of(&[0]).unwrap(), 0);
        assert_eq!(d.owner_of(&[1]).unwrap(), 1);
        assert_eq!(d.local_count(0).unwrap(), 1);
        assert_eq!(d.local_count(4).unwrap(), 0);
        assert!(d.owned_regions(4).unwrap().is_empty() || d.local_count(4).unwrap() == 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_dimdist() -> impl Strategy<Value = DimDist> {
        prop_oneof![
            Just(DimDist::Block),
            Just(DimDist::Cyclic),
            (1usize..4).prop_map(|b| DimDist::BlockCyclic { block: b }),
        ]
    }

    fn arb_desc() -> impl Strategy<Value = DistArrayDesc> {
        (1usize..=3)
            .prop_flat_map(|rank| {
                (
                    proptest::collection::vec(1usize..12, rank),
                    proptest::collection::vec(1usize..4, rank),
                    proptest::collection::vec(arb_dimdist(), rank),
                )
            })
            .prop_map(|(extents, grid, dims)| {
                let grid = ProcessGrid::new(&grid).unwrap();
                let dist = Distribution::new(grid, &dims).unwrap();
                DistArrayDesc::new(&extents, dist).unwrap()
            })
    }

    proptest! {
        #[test]
        fn every_global_index_has_exactly_one_owner(d in arb_desc()) {
            let full = Region {
                start: vec![0; d.rank()],
                len: d.global_extents().to_vec(),
            };
            let mut counts = vec![0usize; d.nranks()];
            for idx in full.indices() {
                let owner = d.owner_of(&idx).unwrap();
                counts[owner] += 1;
            }
            for r in 0..d.nranks() {
                prop_assert_eq!(counts[r], d.local_count(r).unwrap());
            }
            let total: usize = counts.iter().sum();
            prop_assert_eq!(total, full.count());
        }

        #[test]
        fn global_local_bijection(d in arb_desc()) {
            let full = Region {
                start: vec![0; d.rank()],
                len: d.global_extents().to_vec(),
            };
            // Injective into in-range local slots, whose counts sum to
            // the global count: a bijection.
            let mut seen = std::collections::HashSet::new();
            for idx in full.indices() {
                let (rank, local) = d.global_to_local(&idx).unwrap();
                let extents = d.local_extents(rank).unwrap();
                prop_assert!(local.iter().zip(&extents).all(|(l, e)| l < e));
                prop_assert!(seen.insert((rank, local)));
            }
            let total: usize = (0..d.nranks()).map(|r| d.local_count(r).unwrap()).sum();
            prop_assert_eq!(seen.len(), total);
        }

        #[test]
        fn owned_regions_partition_ownership(d in arb_desc()) {
            let mut owned_via_regions = vec![0usize; d.nranks()];
            for r in 0..d.nranks() {
                for g in d.owned_regions(r).unwrap() {
                    for idx in g.indices() {
                        prop_assert_eq!(d.owner_of(&idx).unwrap(), r);
                        owned_via_regions[r] += 1;
                    }
                }
            }
            for r in 0..d.nranks() {
                prop_assert_eq!(owned_via_regions[r], d.local_count(r).unwrap());
            }
        }
    }
}

//! M×N data redistribution between differently distributed components.
//!
//! §6.3: "Collective ports are defined generally enough to allow data to be
//! distributed arbitrarily in the connected components; ... this capability
//! is useful in connecting a parallel numerical simulation with differently
//! distributed visualization tools."
//!
//! A [`RedistPlan`] is the pure-data core of that capability: given a source
//! descriptor over M ranks and a target descriptor over N ranks for the same
//! global array, it computes the exact set of [`Transfer`]s (source rank →
//! destination rank, global region) needed so that every element arrives at
//! its new owner exactly once. The plan is deterministic and symmetric —
//! both sides can compute it independently from the two descriptors, which
//! is how the paper's collective ports avoid any central coordinator.
//!
//! Planning is separated from execution, and a plan executes in one form
//! only: [`RedistPlan::compile`] reduces every transfer to a strided
//! rectangle of local offsets, and the resulting [`CompiledPlan`] is what
//! moves data. `cca-framework`'s collective ports pack and unpack its
//! transfers between SPMD ranks, its bulk plane streams them in chunks,
//! and [`CompiledPlan::apply`] runs them in memory.

use crate::dist::{DistArrayDesc, Region};
use crate::error::DataError;

/// One message of a redistribution: move the elements of `region` (a global
/// index-space rectangle) from `src_rank`'s local buffer to `dst_rank`'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Rank in the *source* decomposition that owns the region now.
    pub src_rank: usize,
    /// Rank in the *target* decomposition that must own it afterwards.
    pub dst_rank: usize,
    /// The global region to move.
    pub region: Region,
}

impl Transfer {
    /// Number of elements this transfer moves.
    pub fn count(&self) -> usize {
        self.region.count()
    }
}

/// A complete, deterministic M×N redistribution plan: the transfers,
/// before [`compile`](Self::compile) reduces them to the form that runs.
///
/// ```
/// use cca_data::{DistArrayDesc, Distribution, RedistPlan};
/// // 12 elements: 3-way block source, serial target (a gather).
/// let src = DistArrayDesc::new(&[12], Distribution::block_1d(3, 1)?)?;
/// let dst = DistArrayDesc::new(&[12], Distribution::serial(1)?)?;
/// let plan = RedistPlan::build(&src, &dst)?.compile()?;
/// assert_eq!(plan.total_elements(), 12);
/// let out = plan.apply(&[vec![0.0; 4], vec![1.0; 4], vec![2.0; 4]])?;
/// assert_eq!(out[0][4], 1.0); // rank 1's block landed in the middle
/// # Ok::<(), cca_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RedistPlan {
    source: DistArrayDesc,
    target: DistArrayDesc,
    transfers: Vec<Transfer>,
}

impl RedistPlan {
    /// Builds the plan. Owned regions are cartesian products of
    /// per-dimension intervals, so a rank pair is intersected one dimension
    /// at a time (a two-pointer merge over the sorted
    /// [`DistArrayDesc::dim_intervals`] lists) and its transfers are the
    /// product of the overlaps: O(intervals + transfers) per rank pair.
    /// Transfers are ordered by source rank, target rank, target region,
    /// source region (regions as `owned_regions` lists them); a bulk slab
    /// names a transfer by its index in this order.
    pub fn build(source: &DistArrayDesc, target: &DistArrayDesc) -> Result<Self, DataError> {
        if source.global_extents() != target.global_extents() {
            return Err(DataError::GlobalShapeMismatch {
                source: source.global_extents().to_vec(),
                target: target.global_extents().to_vec(),
            });
        }
        let rank = source.rank();
        let intervals = |desc: &DistArrayDesc, r: usize| -> Result<Vec<_>, DataError> {
            let coords = desc.distribution().grid().coords_of(r)?;
            Ok((0..rank)
                .map(|d| desc.dim_intervals(d, coords[d]))
                .collect())
        };
        let dst_intervals = (0..target.nranks())
            .map(|r| intervals(target, r))
            .collect::<Result<Vec<_>, _>>()?;
        let mut transfers = Vec::new();
        for src_rank in 0..source.nranks() {
            let src_intervals = intervals(source, src_rank)?;
            for (dst_rank, dst_intervals) in dst_intervals.iter().enumerate() {
                let overlaps: Vec<_> = (0..rank)
                    .map(|d| overlaps(&src_intervals[d], &dst_intervals[d]))
                    .collect();
                // Per dimension, the overlaps grouped by target interval.
                let groups: Vec<Vec<&[Overlap]>> = overlaps
                    .iter()
                    .map(|o| {
                        o.chunk_by(|a, b| a.dst_interval == b.dst_interval)
                            .collect()
                    })
                    .collect();
                // One odometer, last digit fastest: digits `0..rank` pick a
                // group per dimension (a target region), digits `rank..`
                // an overlap within each picked group (the source regions
                // that meet it).
                let digits = |at: &[usize], p: usize| match p.checked_sub(rank) {
                    None => groups[p].len(),
                    Some(d) => groups[d][at[d]].len(),
                };
                let mut at = vec![0; 2 * rank];
                let mut more = groups.iter().all(|g| !g.is_empty());
                while more {
                    let pick = |d: usize| &groups[d][at[d]][at[rank + d]];
                    let region = Region {
                        start: (0..rank).map(|d| pick(d).start).collect(),
                        len: (0..rank).map(|d| pick(d).len).collect(),
                    };
                    transfers.push(Transfer {
                        src_rank,
                        dst_rank,
                        region,
                    });
                    more = advance(&mut at, digits);
                }
            }
        }
        Ok(RedistPlan {
            source: source.clone(),
            target: target.clone(),
            transfers,
        })
    }

    /// The individual transfers, ordered by (src, dst).
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Reduces every transfer to its rectangle: O(rank) arithmetic per
    /// transfer, straight from the two descriptors; no element is visited.
    pub fn compile(&self) -> Result<CompiledPlan, DataError> {
        let local_extents = |desc: &DistArrayDesc| {
            (0..desc.nranks())
                .map(|r| desc.local_extents(r))
                .collect::<Result<Vec<_>, _>>()
        };
        let src_extents = local_extents(&self.source)?;
        let dst_extents = local_extents(&self.target)?;
        let mut transfers = Vec::with_capacity(self.transfers.len());
        for t in &self.transfers {
            let (src_extents, dst_extents) = (&src_extents[t.src_rank], &dst_extents[t.dst_rank]);
            let (_, src_first) = self.source.global_to_local(&t.region.start)?;
            let (_, dst_first) = self.target.global_to_local(&t.region.start)?;
            let mut dims = Vec::with_capacity(t.region.len.len());
            let (mut src_base, mut dst_base) = (0, 0);
            let (mut src_stride, mut dst_stride) = (1, 1);
            for (d, &len) in t.region.len.iter().enumerate() {
                src_base += src_first[d] * src_stride;
                dst_base += dst_first[d] * dst_stride;
                match dims.last_mut() {
                    Some((inner, s, d))
                        if *inner * *s == src_stride && *inner * *d == dst_stride =>
                    {
                        *inner *= len
                    }
                    _ => dims.push((len, src_stride, dst_stride)),
                }
                src_stride *= src_extents[d];
                dst_stride *= dst_extents[d];
            }
            transfers.push(CompiledTransfer {
                src_rank: t.src_rank,
                dst_rank: t.dst_rank,
                count: t.count(),
                src_base,
                dst_base,
                dims: dims.into_boxed_slice(),
            });
        }
        let counts = |extents: &[Vec<usize>]| extents.iter().map(|e| e.iter().product()).collect();
        Ok(CompiledPlan {
            transfers,
            src_counts: counts(&src_extents),
            dst_counts: counts(&dst_extents),
        })
    }
}

/// Where one source interval meets one target interval along a dimension.
struct Overlap {
    /// Index of the target interval in its owner's list.
    dst_interval: usize,
    start: usize,
    len: usize,
}

/// Two-pointer merge over two ascending lists of disjoint `(start, len)`
/// intervals; the overlaps come out ascending too.
fn overlaps(src: &[(usize, usize)], dst: &[(usize, usize)]) -> Vec<Overlap> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < src.len() && j < dst.len() {
        let (src_end, dst_end) = (src[i].0 + src[i].1, dst[j].0 + dst[j].1);
        let start = src[i].0.max(dst[j].0);
        let end = src_end.min(dst_end);
        if start < end {
            out.push(Overlap {
                dst_interval: j,
                start,
                len: end - start,
            });
        }
        i += usize::from(src_end <= dst_end);
        j += usize::from(dst_end <= src_end);
    }
    out
}

/// Steps the odometer `at`, last digit fastest, digit `p` running over
/// `0..digits(at, p)`; `false` once it has wrapped around to all zeros.
fn advance(at: &mut [usize], digits: impl Fn(&[usize], usize) -> usize) -> bool {
    for p in (0..at.len()).rev() {
        at[p] += 1;
        if at[p] < digits(at, p) {
            return true;
        }
        at[p] = 0;
    }
    false
}

/// A [`RedistPlan`] with every transfer reduced to a strided rectangle —
/// the one form in which a redistribution executes.
///
/// A transfer's region lies inside one owned block per side per dimension,
/// where local indices advance in step with global ones, so its local
/// offsets on either side are a base plus one stride per dimension.
/// Compiling computes those O(rank) words once; executing is one slice
/// copy per contiguous run, with no per-element index translation.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    transfers: Vec<CompiledTransfer>,
    src_counts: Vec<usize>,
    dst_counts: Vec<usize>,
}

/// One transfer as the rectangle of local offsets it moves, in packed
/// (region column-major) order.
#[derive(Debug, Clone)]
pub struct CompiledTransfer {
    /// Source rank.
    pub src_rank: usize,
    /// Destination rank.
    pub dst_rank: usize,
    count: usize,
    /// Local offset of the first packed element on each side.
    src_base: usize,
    dst_base: usize,
    /// The rectangle as `(len, src_stride, dst_stride)` per dimension,
    /// innermost first. `dims[0]` has stride one on both sides — it is the
    /// contiguous run — and an adjacent pair is fused wherever the inner
    /// one spans the whole local extent on both.
    dims: Box<[(usize, usize, usize)]>,
}

impl CompiledTransfer {
    /// Elements moved by this transfer.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The contiguous runs covering elements `[first, first + count)` of
    /// the packed order, as `(src_offset, dst_offset, len)`: a partial
    /// first row, whole rows, a partial last row. Allocation-free; the row
    /// index is decomposed into the outer dimensions once per run. Panics
    /// if the range reaches past [`count`](Self::count) — callers validate
    /// wire input before here.
    pub fn runs(
        &self,
        first: usize,
        count: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let end = first.checked_add(count).filter(|&end| end <= self.count);
        let end = end.expect("packed range outside the transfer");
        let run = self.dims[0].0;
        let mut pos = first;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let (mut row, within) = (pos / run, pos % run);
            let (mut src, mut dst) = (self.src_base + within, self.dst_base + within);
            for &(len, src_stride, dst_stride) in &self.dims[1..] {
                src += row % len * src_stride;
                dst += row % len * dst_stride;
                row /= len;
            }
            let len = (run - within).min(end - pos);
            pos += len;
            Some((src, dst, len))
        })
    }

    /// Gathers this transfer's payload from the source local buffer, one
    /// slice copy per run, into one allocation of exactly
    /// [`count`](Self::count) elements.
    pub fn pack<T: Clone>(&self, src_local: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count);
        for (src, _, len) in self.runs(0, self.count) {
            out.extend_from_slice(&src_local[src..src + len]);
        }
        out
    }

    /// Scatters a whole payload into the destination local buffer, one
    /// slice copy per run. Panics unless the payload holds exactly
    /// [`count`](Self::count) elements.
    pub fn unpack<T: Clone>(&self, payload: &[T], dst_local: &mut [T]) {
        assert_eq!(payload.len(), self.count, "payload is not the transfer");
        let mut at = 0;
        for (_, dst, len) in self.runs(0, self.count) {
            dst_local[dst..dst + len].clone_from_slice(&payload[at..at + len]);
            at += len;
        }
    }
}

impl CompiledPlan {
    /// The compiled transfers in plan order; a bulk slab names a transfer
    /// by its index here.
    pub fn transfers(&self) -> &[CompiledTransfer] {
        &self.transfers
    }

    /// Transfers originating at `src_rank`.
    pub fn sends_from(&self, src_rank: usize) -> impl Iterator<Item = &CompiledTransfer> + '_ {
        self.transfers
            .iter()
            .filter(move |t| t.src_rank == src_rank)
    }

    /// Transfers terminating at `dst_rank`.
    pub fn receives_at(&self, dst_rank: usize) -> impl Iterator<Item = &CompiledTransfer> + '_ {
        self.transfers
            .iter()
            .filter(move |t| t.dst_rank == dst_rank)
    }

    /// Total number of elements moved (equals the global element count).
    pub fn total_elements(&self) -> usize {
        self.transfers.iter().map(CompiledTransfer::count).sum()
    }

    /// Number of elements whose source and destination rank coincide —
    /// with matched decompositions this is *all* of them, the paper's "data
    /// would not need redistribution" fast path.
    pub fn resident_elements(&self) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.src_rank == t.dst_rank)
            .map(CompiledTransfer::count)
            .sum()
    }

    /// Number of elements that must cross ranks.
    pub fn moved_elements(&self) -> usize {
        self.total_elements() - self.resident_elements()
    }

    /// True when the two decompositions are element-for-element identical,
    /// so the collective port may skip communication entirely.
    pub fn is_matched(&self) -> bool {
        self.moved_elements() == 0 && self.src_ranks() == self.dst_ranks()
    }

    /// In-memory execution: given every source rank's local buffer,
    /// produces every target rank's local buffer.
    pub fn apply<T: Clone + Default>(
        &self,
        src_buffers: &[Vec<T>],
    ) -> Result<Vec<Vec<T>>, DataError> {
        let mut dst: Vec<Vec<T>> = self
            .dst_counts
            .iter()
            .map(|&n| vec![T::default(); n])
            .collect();
        self.apply_into(src_buffers, &mut dst)?;
        Ok(dst)
    }

    /// Allocation-free execution into caller-owned destination buffers —
    /// the steady-state timestep path. Both buffer sets are validated
    /// against the plan's rank counts; the scatter itself performs zero
    /// heap allocations (pinned by `alloc_free.rs`).
    pub fn apply_into<T: Clone>(
        &self,
        src_buffers: &[Vec<T>],
        dst_buffers: &mut [Vec<T>],
    ) -> Result<(), DataError> {
        check_buffers(src_buffers, &self.src_counts)?;
        check_buffers(dst_buffers, &self.dst_counts)?;
        for t in &self.transfers {
            let src = &src_buffers[t.src_rank];
            let out = &mut dst_buffers[t.dst_rank];
            for (s, d, len) in t.runs(0, t.count) {
                out[d..d + len].clone_from_slice(&src[s..s + len]);
            }
        }
        Ok(())
    }

    /// Number of source ranks.
    pub fn src_ranks(&self) -> usize {
        self.src_counts.len()
    }

    /// Number of destination ranks.
    pub fn dst_ranks(&self) -> usize {
        self.dst_counts.len()
    }

    /// Local element count of source rank `r`.
    pub fn src_count(&self, r: usize) -> usize {
        self.src_counts[r]
    }

    /// Local element count of destination rank `r`.
    pub fn dst_count(&self, r: usize) -> usize {
        self.dst_counts[r]
    }
}

/// One buffer per rank, each of that rank's local count.
fn check_buffers<T>(buffers: &[Vec<T>], counts: &[usize]) -> Result<(), DataError> {
    let mismatch = |expected: usize, found: usize| DataError::ShapeMismatch {
        expected: vec![expected],
        found: vec![found],
    };
    if buffers.len() != counts.len() {
        return Err(mismatch(counts.len(), buffers.len()));
    }
    match buffers.iter().zip(counts).find(|(b, &n)| b.len() != n) {
        Some((b, &n)) => Err(mismatch(n, b.len())),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DimDist, Distribution, ProcessGrid};

    pub(super) fn block_desc(n: usize, p: usize) -> DistArrayDesc {
        DistArrayDesc::new(&[n], Distribution::block_1d(p, 1).unwrap()).unwrap()
    }

    pub(super) fn cyclic_desc(n: usize, p: usize) -> DistArrayDesc {
        let dist = Distribution::new(ProcessGrid::linear(p).unwrap(), &[DimDist::Cyclic]).unwrap();
        DistArrayDesc::new(&[n], dist).unwrap()
    }

    /// Fill each source rank's buffer with the global linear index of each
    /// element, so correctness after redistribution is directly checkable.
    pub(super) fn tagged_buffers(desc: &DistArrayDesc) -> Vec<Vec<u64>> {
        (0..desc.nranks())
            .map(|r| {
                let n = desc.local_count(r).unwrap();
                let mut buf = vec![0u64; n];
                for region in desc.owned_regions(r).unwrap() {
                    for idx in region.indices() {
                        let off = desc.local_offset(r, &idx).unwrap();
                        let gid: u64 = global_id(desc.global_extents(), &idx);
                        buf[off] = gid;
                    }
                }
                buf
            })
            .collect()
    }

    fn global_id(extents: &[usize], idx: &[usize]) -> u64 {
        let mut id = 0u64;
        let mut stride = 1u64;
        for d in 0..extents.len() {
            id += idx[d] as u64 * stride;
            stride *= extents[d] as u64;
        }
        id
    }

    pub(super) fn check_redistributed(desc: &DistArrayDesc, buffers: &[Vec<u64>]) {
        for r in 0..desc.nranks() {
            for region in desc.owned_regions(r).unwrap() {
                for idx in region.indices() {
                    let off = desc.local_offset(r, &idx).unwrap();
                    assert_eq!(
                        buffers[r][off],
                        global_id(desc.global_extents(), &idx),
                        "rank {r} index {idx:?}"
                    );
                }
            }
        }
    }

    /// The per-element executor the compiled plan replaced, kept as the
    /// oracle: it shares nothing with the rectangles but `build`'s transfer
    /// list, and translates every element's global index on both sides.
    pub(super) fn reference_apply<T: Clone + Default>(
        src: &DistArrayDesc,
        dst: &DistArrayDesc,
        bufs: &[Vec<T>],
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..dst.nranks())
            .map(|r| vec![T::default(); dst.local_count(r).unwrap()])
            .collect();
        for t in RedistPlan::build(src, dst).unwrap().transfers() {
            for idx in t.region.indices() {
                let s = src.local_offset(t.src_rank, &idx).unwrap();
                let d = dst.local_offset(t.dst_rank, &idx).unwrap();
                out[t.dst_rank][d] = bufs[t.src_rank][s].clone();
            }
        }
        out
    }

    /// Gathers elements `[first, first + n)` of `t`'s packed payload and
    /// scatters them again, run by run — a chunk as the bulk plane moves it.
    pub(super) fn move_range<T: Clone>(
        t: &CompiledTransfer,
        src: &[T],
        first: usize,
        n: usize,
        dst: &mut [T],
    ) {
        let mut chunk = Vec::with_capacity(n);
        for (s, _, len) in t.runs(first, n) {
            chunk.extend_from_slice(&src[s..s + len]);
        }
        assert_eq!(chunk.len(), n);
        let mut at = 0;
        for (_, d, len) in t.runs(first, n) {
            dst[d..d + len].clone_from_slice(&chunk[at..at + len]);
            at += len;
        }
    }

    fn compiled(src: &DistArrayDesc, dst: &DistArrayDesc) -> CompiledPlan {
        RedistPlan::build(src, dst).unwrap().compile().unwrap()
    }

    #[test]
    fn matched_decomposition_moves_nothing() {
        let plan = compiled(&block_desc(12, 4), &block_desc(12, 4));
        assert!(plan.is_matched());
        assert_eq!(plan.moved_elements(), 0);
        assert_eq!(plan.total_elements(), 12);
    }

    #[test]
    fn serial_to_parallel_is_scatter() {
        let src = block_desc(12, 1);
        let dst = block_desc(12, 4);
        let plan = compiled(&src, &dst);
        // Everything leaves rank 0 except the part rank 0 keeps.
        assert_eq!(plan.total_elements(), 12);
        assert_eq!(plan.resident_elements(), 3);
        assert_eq!(plan.sends_from(0).count(), 4);
        let out = plan.apply(&tagged_buffers(&src)).unwrap();
        check_redistributed(&dst, &out);
    }

    #[test]
    fn parallel_to_serial_is_gather() {
        let src = block_desc(10, 3);
        let dst = block_desc(10, 1);
        let plan = compiled(&src, &dst);
        assert_eq!(plan.receives_at(0).count(), 3);
        let out = plan.apply(&tagged_buffers(&src)).unwrap();
        assert_eq!(out.len(), 1);
        check_redistributed(&dst, &out);
    }

    #[test]
    fn block_to_cyclic_mxn() {
        let src = block_desc(16, 4);
        let dst = cyclic_desc(16, 3);
        let plan = compiled(&src, &dst);
        assert_eq!(plan.total_elements(), 16);
        let out = plan.apply(&tagged_buffers(&src)).unwrap();
        check_redistributed(&dst, &out);
    }

    #[test]
    fn shrinking_rank_count_4_to_2() {
        let src = block_desc(20, 4);
        let dst = block_desc(20, 2);
        let plan = compiled(&src, &dst);
        let out = plan.apply(&tagged_buffers(&src)).unwrap();
        check_redistributed(&dst, &out);
        // Only src rank 0's block lands on the same-numbered dst rank
        // (src 1 -> dst 0, src 2/3 -> dst 1).
        assert_eq!(plan.resident_elements(), 5);
        assert_eq!(plan.moved_elements(), 15);
    }

    #[test]
    fn two_dimensional_redistribution() {
        let src = DistArrayDesc::new(
            &[6, 6],
            Distribution::new(
                ProcessGrid::new(&[2, 1]).unwrap(),
                &[DimDist::Block, DimDist::Block],
            )
            .unwrap(),
        )
        .unwrap();
        let dst = DistArrayDesc::new(
            &[6, 6],
            Distribution::new(
                ProcessGrid::new(&[1, 3]).unwrap(),
                &[DimDist::Block, DimDist::Cyclic],
            )
            .unwrap(),
        )
        .unwrap();
        let plan = compiled(&src, &dst);
        assert_eq!(plan.total_elements(), 36);
        let out = plan.apply(&tagged_buffers(&src)).unwrap();
        check_redistributed(&dst, &out);
    }

    #[test]
    fn mismatched_global_shapes_rejected() {
        let src = block_desc(10, 2);
        let dst = block_desc(12, 2);
        assert!(matches!(
            RedistPlan::build(&src, &dst),
            Err(DataError::GlobalShapeMismatch { .. })
        ));
    }

    #[test]
    fn apply_validates_buffer_shapes() {
        let plan = compiled(&block_desc(8, 2), &block_desc(8, 2));
        let shape = |expected: usize, found: usize| DataError::ShapeMismatch {
            expected: vec![expected],
            found: vec![found],
        };
        // Wrong number of buffers, then a wrong buffer length.
        assert_eq!(plan.apply(&[vec![0u64; 4]]).unwrap_err(), shape(2, 1));
        assert_eq!(
            plan.apply(&[vec![0u64; 4], vec![0u64; 3]]).unwrap_err(),
            shape(4, 3)
        );
    }

    #[test]
    fn pack_unpack_round_trip_single_transfer() {
        let src = block_desc(8, 2);
        let dst = block_desc(8, 4);
        let plan = compiled(&src, &dst);
        let bufs = tagged_buffers(&src);
        let mut out: Vec<Vec<u64>> = (0..4)
            .map(|r| vec![0; dst.local_count(r).unwrap()])
            .collect();
        for t in plan.transfers() {
            let payload = t.pack(&bufs[t.src_rank]);
            t.unpack(&payload, &mut out[t.dst_rank]);
        }
        check_redistributed(&dst, &out);
    }

    #[test]
    fn unpack_rejects_wrong_payload_length() {
        let dst = block_desc(8, 4);
        let plan = compiled(&block_desc(8, 2), &dst);
        let t = &plan.transfers()[0];
        let mut out = vec![0u64; dst.local_count(t.dst_rank).unwrap()];
        let long = vec![1u64; t.count() + 1];
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.unpack(&long, &mut out)));
        assert!(refused.is_err());
        assert!(out.iter().all(|&v| v == 0), "nothing was scattered");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{check_redistributed, move_range, reference_apply, tagged_buffers};
    use super::*;
    use crate::dist::{DimDist, Distribution, ProcessGrid};
    use proptest::prelude::*;

    /// Grids up to 4 wide against extents from 1: some ranks own nothing.
    fn arb_dist(rank: usize) -> impl Strategy<Value = Distribution> {
        (
            proptest::collection::vec(1usize..=4, rank),
            proptest::collection::vec(
                prop_oneof![
                    Just(DimDist::Block),
                    Just(DimDist::Cyclic),
                    (1usize..=4).prop_map(|b| DimDist::BlockCyclic { block: b }),
                ],
                rank,
            ),
        )
            .prop_map(|(grid, dims)| {
                Distribution::new(ProcessGrid::new(&grid).unwrap(), &dims).unwrap()
            })
    }

    fn arb_pair() -> impl Strategy<Value = (DistArrayDesc, DistArrayDesc)> {
        (1usize..=3)
            .prop_flat_map(|rank| {
                (
                    proptest::collection::vec(1usize..=12, rank),
                    arb_dist(rank),
                    arb_dist(rank),
                )
            })
            .prop_map(|(extents, d1, d2)| {
                (
                    DistArrayDesc::new(&extents, d1).unwrap(),
                    DistArrayDesc::new(&extents, d2).unwrap(),
                )
            })
    }

    /// The plan as it was first built: every source region against every
    /// target region. Quadratic; kept as the order `build` must reproduce.
    fn build_by_region_pairs(source: &DistArrayDesc, target: &DistArrayDesc) -> Vec<Transfer> {
        let mut transfers = Vec::new();
        for src_rank in 0..source.nranks() {
            let src_regions = source.owned_regions(src_rank).unwrap();
            for dst_rank in 0..target.nranks() {
                for dst_region in target.owned_regions(dst_rank).unwrap() {
                    for src_region in &src_regions {
                        if let Some(overlap) = src_region.intersect(&dst_region) {
                            transfers.push(Transfer {
                                src_rank,
                                dst_rank,
                                region: overlap,
                            });
                        }
                    }
                }
            }
        }
        transfers
    }

    fn tagged_by_offset(desc: &DistArrayDesc) -> Vec<Vec<u64>> {
        (0..desc.nranks())
            .map(|r| {
                let n = desc.local_count(r).unwrap() as u64;
                (0..n).map(|k| k * 1000 + r as u64).collect()
            })
            .collect()
    }

    proptest! {
        // The cases are small (≤ 12³ elements); the default 32 leave the
        // rank-3 fusing and grouping corners thinly covered.
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn plan_moves_every_element_exactly_once((src, dst) in arb_pair()) {
            let plan = RedistPlan::build(&src, &dst).unwrap();
            let global: usize = src.global_extents().iter().product();
            prop_assert_eq!(plan.compile().unwrap().total_elements(), global);
            // No two transfers overlap: mark every (global index) once.
            let mut seen = vec![false; global];
            for t in plan.transfers() {
                for idx in t.region.indices() {
                    let mut id = 0usize;
                    let mut stride = 1usize;
                    for d in 0..idx.len() {
                        id += idx[d] * stride;
                        stride *= src.global_extents()[d];
                    }
                    prop_assert!(!seen[id], "element {:?} moved twice", idx);
                    seen[id] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        #[test]
        fn apply_delivers_correct_values((src, dst) in arb_pair()) {
            let plan = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
            check_redistributed(&dst, &plan.apply(&tagged_buffers(&src)).unwrap());
        }

        #[test]
        fn identical_descriptors_are_matched(desc in arb_pair().prop_map(|(s, _)| s)) {
            let plan = RedistPlan::build(&desc, &desc).unwrap().compile().unwrap();
            prop_assert!(plan.is_matched());
        }

        #[test]
        fn compiled_plan_equals_interpreted_plan((src, dst) in arb_pair()) {
            let compiled = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
            let bufs = tagged_by_offset(&src);
            prop_assert_eq!(reference_apply(&src, &dst, &bufs), compiled.apply(&bufs).unwrap());
        }

        #[test]
        fn build_emits_the_region_pair_transfers_in_their_order((src, dst) in arb_pair()) {
            let plan = RedistPlan::build(&src, &dst).unwrap();
            prop_assert_eq!(plan.transfers(), &build_by_region_pairs(&src, &dst)[..]);
        }

        #[test]
        fn packed_sub_ranges_compose_to_the_interpreted_plan(
            (src, dst) in arb_pair(),
            steps in proptest::collection::vec(1usize..40, 1..8),
        ) {
            let compiled = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
            let bufs = tagged_by_offset(&src);
            let mut landed: Vec<Vec<u64>> = (0..compiled.dst_ranks())
                .map(|r| vec![0; compiled.dst_count(r)])
                .collect();
            let mut step = steps.iter().cycle();
            for ct in compiled.transfers() {
                let mut first = 0;
                while first < ct.count() {
                    let n = (*step.next().unwrap()).min(ct.count() - first);
                    let covered: usize = ct.runs(first, n).map(|(_, _, len)| len).sum();
                    prop_assert_eq!(covered, n);
                    move_range(ct, &bufs[ct.src_rank], first, n, &mut landed[ct.dst_rank]);
                    first += n;
                }
            }
            prop_assert_eq!(landed, reference_apply(&src, &dst, &bufs));
        }
    }
}

#[cfg(test)]
mod compiled_tests {
    use super::tests::{block_desc, cyclic_desc, move_range, reference_apply, tagged_buffers};
    use super::*;
    use crate::dist::{DimDist, Distribution, ProcessGrid};

    #[test]
    fn compiled_apply_matches_interpreted_apply() {
        for (src, dst) in [
            (block_desc(24, 4), block_desc(24, 4)),
            (block_desc(24, 1), block_desc(24, 4)),
            (block_desc(24, 4), cyclic_desc(24, 3)),
            (cyclic_desc(17, 2), block_desc(17, 5)),
        ] {
            let compiled = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
            let bufs = tagged_buffers(&src);
            assert_eq!(
                reference_apply(&src, &dst, &bufs),
                compiled.apply(&bufs).unwrap(),
                "{src:?} -> {dst:?}"
            );
        }
    }

    #[test]
    fn compiled_pack_unpack_matches_interpreted() {
        let src = block_desc(16, 2);
        let dst = cyclic_desc(16, 3);
        let plan = RedistPlan::build(&src, &dst).unwrap();
        let compiled = plan.compile().unwrap();
        let bufs = tagged_buffers(&src);
        for (t, ct) in plan.transfers().iter().zip(compiled.transfers()) {
            assert_eq!(t.src_rank, ct.src_rank);
            assert_eq!(t.dst_rank, ct.dst_rank);
            assert_eq!(t.count(), ct.count());
            let slow: Vec<u64> = t
                .region
                .indices()
                .map(|idx| bufs[t.src_rank][src.local_offset(t.src_rank, &idx).unwrap()])
                .collect();
            assert_eq!(slow, ct.pack(&bufs[ct.src_rank]));
        }
    }

    fn block_2d(side: usize, grid: [usize; 2]) -> DistArrayDesc {
        let dist = Distribution::new(
            ProcessGrid::new(&grid).unwrap(),
            &[DimDist::Block, DimDist::Block],
        )
        .unwrap();
        DistArrayDesc::new(&[side, side], dist).unwrap()
    }

    #[test]
    fn whole_columns_fuse_into_one_run_and_cut_columns_into_one_run_each() {
        let src = block_2d(2048, [1, 4]);
        let whole = RedistPlan::build(&src, &block_2d(2048, [1, 3])).unwrap();
        for ct in whole.compile().unwrap().transfers() {
            assert_eq!(ct.runs(0, ct.count()).count(), 1);
        }
        let cut = RedistPlan::build(&src, &block_2d(2048, [3, 1])).unwrap();
        for ct in cut.compile().unwrap().transfers() {
            let runs: Vec<_> = ct.runs(0, ct.count()).collect();
            assert_eq!(runs.len(), 512, "one run per column of the source rank");
            assert!(runs.iter().all(|&(_, _, len)| len == 682 || len == 683));
        }
    }

    /// At this size a table of offsets would be 4 GB; the rectangles are a
    /// few words. Sampled elements must sit where the descriptors' index
    /// translation puts them, on both sides.
    #[test]
    fn a_16384_squared_plan_compiles_and_agrees_with_local_offset() {
        let (src, dst) = (block_2d(16_384, [1, 4]), block_2d(16_384, [3, 1]));
        let plan = RedistPlan::build(&src, &dst).unwrap();
        let compiled = plan.compile().unwrap();
        assert_eq!(compiled.total_elements(), 16_384 * 16_384);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for (t, ct) in plan.transfers().iter().zip(compiled.transfers()) {
            assert_eq!(t.count(), ct.count());
            for _ in 0..1000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let k = (state >> 33) as usize % ct.count();
                let global = [
                    t.region.start[0] + k % t.region.len[0],
                    t.region.start[1] + k / t.region.len[0],
                ];
                let (s, d, len) = ct.runs(k, 1).next().unwrap();
                assert_eq!(len, 1);
                assert_eq!(s, src.local_offset(t.src_rank, &global).unwrap());
                assert_eq!(d, dst.local_offset(t.dst_rank, &global).unwrap());
            }
        }
    }

    /// In release builds too: a short payload must not scatter a prefix.
    #[test]
    #[should_panic(expected = "payload is not the transfer")]
    fn compiled_unpack_refuses_a_short_payload() {
        let plan = RedistPlan::build(&block_desc(8, 2), &block_desc(8, 4)).unwrap();
        let compiled = plan.compile().unwrap();
        let ct = &compiled.transfers()[0];
        let mut out = vec![7u64; compiled.dst_count(ct.dst_rank)];
        ct.unpack(&vec![0u64; ct.count() - 1], &mut out);
    }

    #[test]
    #[should_panic(expected = "outside the transfer")]
    fn runs_past_the_transfer_are_refused_up_front() {
        let plan = RedistPlan::build(&block_desc(8, 2), &block_desc(8, 4)).unwrap();
        let compiled = plan.compile().unwrap();
        let ct = &compiled.transfers()[0];
        let _ = ct.runs(usize::MAX, 2);
    }

    #[test]
    fn compiled_apply_validates_buffers() {
        let plan = RedistPlan::build(&block_desc(8, 2), &block_desc(8, 2)).unwrap();
        let compiled = plan.compile().unwrap();
        assert!(compiled.apply(&[vec![0u8; 4]]).is_err());
        assert!(compiled.apply(&[vec![0u8; 4], vec![0u8; 3]]).is_err());
    }

    #[test]
    fn send_receive_views() {
        let plan = RedistPlan::build(&block_desc(12, 3), &block_desc(12, 2)).unwrap();
        let compiled = plan.compile().unwrap();
        let total_sends: usize = (0..3).map(|r| compiled.sends_from(r).count()).sum();
        let total_recvs: usize = (0..2).map(|r| compiled.receives_at(r).count()).sum();
        assert_eq!(total_sends, compiled.transfers().len());
        assert_eq!(total_recvs, compiled.transfers().len());
    }

    #[test]
    fn apply_into_matches_apply_and_validates_destinations() {
        let plan = RedistPlan::build(&block_desc(24, 4), &cyclic_desc(24, 3)).unwrap();
        let compiled = plan.compile().unwrap();
        let bufs = tagged_buffers(&block_desc(24, 4));
        let fresh = compiled.apply(&bufs).unwrap();
        let mut reused: Vec<Vec<u64>> = (0..compiled.dst_ranks())
            .map(|r| vec![0; compiled.dst_count(r)])
            .collect();
        compiled.apply_into(&bufs, &mut reused).unwrap();
        assert_eq!(fresh, reused);
        // Wrong destination rank count / buffer length are typed errors.
        assert!(compiled
            .apply_into(&bufs, &mut reused[..2].to_vec())
            .is_err());
        let mut short = reused.clone();
        short[0].pop();
        assert!(compiled.apply_into(&bufs, &mut short).is_err());
    }

    #[test]
    fn chunked_runs_compose_to_the_full_transfer() {
        let src = block_desc(40, 2);
        let dst = cyclic_desc(40, 3);
        let compiled = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
        let bufs = tagged_buffers(&src);
        let whole = compiled.apply(&bufs).unwrap();
        let mut chunked: Vec<Vec<u64>> = (0..compiled.dst_ranks())
            .map(|r| vec![0; compiled.dst_count(r)])
            .collect();
        for ct in compiled.transfers() {
            // 3 elements at a time.
            let mut first = 0;
            while first < ct.count() {
                let n = 3.min(ct.count() - first);
                move_range(ct, &bufs[ct.src_rank], first, n, &mut chunked[ct.dst_rank]);
                first += n;
            }
        }
        assert_eq!(whole, chunked);
    }
}

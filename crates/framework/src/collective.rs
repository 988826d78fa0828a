//! Collective ports: M×N coupling of parallel components (§6.3).
//!
//! "The creation of a collective port requires that the programmer specify
//! the mapping of data (or processes participating) in the operations on
//! this port." An [`MxNPort`] is exactly that: two [`DistArrayDesc`]s (one
//! per side) plus the world ranks each side's processes occupy. From the
//! two descriptors both sides independently derive and compile the same
//! [`RedistPlan`]; the port then executes the [`CompiledPlan`] with
//! point-to-point messages on the shared world communicator.
//!
//! The three cases the paper walks through all fall out of the same code:
//!
//! * **matched n→n** — every transfer is rank-local, no data crosses ranks;
//! * **serial ↔ parallel** — the plan degenerates to broadcast/scatter or
//!   gather ("the semantics of this interaction are very similar to
//!   broadcast, gather, and scatter semantics");
//! * **arbitrary M×N** — "data to be distributed arbitrarily in the
//!   connected components", e.g. a 4-way simulation feeding a 3-way
//!   visualization tool.

use cca_core::CcaError;
use cca_data::{CompiledPlan, DistArrayDesc, RedistPlan};
use cca_parallel::{Comm, Tag};

/// A collective port between a source parallel component (M ranks) and a
/// target parallel component (N ranks), all living on one world
/// communicator.
pub struct MxNPort {
    plan: CompiledPlan,
    /// World rank of each source-side rank, indexed by source rank.
    src_world: Vec<usize>,
    /// World rank of each target-side rank, indexed by target rank.
    dst_world: Vec<usize>,
    /// Base message tag for this port's traffic.
    tag: Tag,
}

impl MxNPort {
    /// Builds the port: computes and compiles the redistribution plan and
    /// records the rank mappings. Deterministic — every participating rank can build
    /// an identical port locally, no negotiation round needed.
    pub fn new(
        source: &DistArrayDesc,
        target: &DistArrayDesc,
        src_world: Vec<usize>,
        dst_world: Vec<usize>,
        tag: Tag,
    ) -> Result<Self, CcaError> {
        if src_world.len() != source.nranks() {
            return Err(CcaError::Framework(format!(
                "source mapping has {} ranks, descriptor has {}",
                src_world.len(),
                source.nranks()
            )));
        }
        if dst_world.len() != target.nranks() {
            return Err(CcaError::Framework(format!(
                "target mapping has {} ranks, descriptor has {}",
                dst_world.len(),
                target.nranks()
            )));
        }
        let plan = RedistPlan::build(source, target)
            .map_err(|e| CcaError::Framework(format!("redistribution plan: {e}")))?
            .compile()
            .map_err(|e| CcaError::Framework(format!("plan compilation: {e}")))?;
        Ok(MxNPort {
            plan,
            src_world,
            dst_world,
            tag,
        })
    }

    /// The compiled plan the port executes (for inspection, statistics,
    /// and same-address-space execution through
    /// [`CompiledPlan::apply`]/[`CompiledPlan::apply_into`]).
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// True when the two decompositions match element-for-element *and*
    /// live on the same world ranks, i.e. no data needs to move between
    /// ranks at all — the paper's "data would not need redistribution".
    pub fn is_fully_local(&self) -> bool {
        self.plan.is_matched() && self.src_world == self.dst_world
    }

    /// The source rank of the calling world rank, if it participates.
    pub fn my_src_rank(&self, comm: &Comm) -> Option<usize> {
        self.src_world.iter().position(|&w| w == comm.world_rank())
    }

    /// The target rank of the calling world rank, if it participates.
    pub fn my_dst_rank(&self, comm: &Comm) -> Option<usize> {
        self.dst_world.iter().position(|&w| w == comm.world_rank())
    }

    /// Source side: posts every message this rank owes. `data` is the
    /// rank's local buffer under the source descriptor (column-major).
    /// Non-participating ranks may call this; it is a no-op for them.
    ///
    /// Fully-local transfers (same world rank on both sides) are delivered
    /// through the same channel mechanism — a move, not a copy.
    pub fn send<T: Clone + Send + 'static>(&self, comm: &Comm, data: &[T]) -> Result<(), CcaError> {
        let Some(src_rank) = self.my_src_rank(comm) else {
            return Ok(());
        };
        let expected = self.plan.src_count(src_rank);
        if data.len() != expected {
            return Err(CcaError::Framework(format!(
                "source rank {src_rank} buffer has {} elements, descriptor says {expected}",
                data.len()
            )));
        }
        for t in self.plan.sends_from(src_rank) {
            let payload = t.pack(data);
            let dst_world = self.dst_world[t.dst_rank];
            comm.send(dst_world, self.tag, payload)
                .map_err(|e| CcaError::Framework(e.to_string()))?;
        }
        Ok(())
    }

    /// Target side: receives every message this rank is owed and unpacks
    /// into `out`, the rank's local buffer under the target descriptor.
    /// Non-participating ranks may call this; it is a no-op for them.
    pub fn recv<T: Clone + Send + 'static>(
        &self,
        comm: &Comm,
        out: &mut [T],
    ) -> Result<(), CcaError> {
        let Some(dst_rank) = self.my_dst_rank(comm) else {
            return Ok(());
        };
        let expected = self.plan.dst_count(dst_rank);
        if out.len() != expected {
            return Err(CcaError::Framework(format!(
                "target rank {dst_rank} buffer has {} elements, descriptor says {expected}",
                out.len()
            )));
        }
        for t in self.plan.receives_at(dst_rank) {
            let src_world = self.src_world[t.src_rank];
            let payload: Vec<T> = comm
                .recv(src_world, self.tag)
                .map_err(|e| CcaError::Framework(e.to_string()))?;
            if payload.len() != t.count() {
                return Err(CcaError::Framework(format!(
                    "transfer payload has {} elements, plan says {}",
                    payload.len(),
                    t.count()
                )));
            }
            t.unpack(&payload, out);
        }
        Ok(())
    }

    /// Convenience for ranks on both sides (tightly coupled components):
    /// send then receive, returning the freshly filled target buffer.
    pub fn exchange<T: Clone + Send + Default + 'static>(
        &self,
        comm: &Comm,
        data: &[T],
    ) -> Result<Vec<T>, CcaError> {
        self.send(comm, data)?;
        let n = self
            .my_dst_rank(comm)
            .map_or(0, |dst| self.plan.dst_count(dst));
        let mut out = vec![T::default(); n];
        self.recv(comm, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_data::{DimDist, Distribution, ProcessGrid};
    use cca_parallel::spmd;

    fn block_desc(n: usize, p: usize) -> DistArrayDesc {
        DistArrayDesc::new(&[n], Distribution::block_1d(p, 1).unwrap()).unwrap()
    }

    fn cyclic_desc(n: usize, p: usize) -> DistArrayDesc {
        let dist = Distribution::new(ProcessGrid::linear(p).unwrap(), &[DimDist::Cyclic]).unwrap();
        DistArrayDesc::new(&[n], dist).unwrap()
    }

    /// Fill a source rank's buffer with global ids.
    fn tagged(desc: &DistArrayDesc, rank: usize) -> Vec<f64> {
        let mut buf = vec![0.0; desc.local_count(rank).unwrap()];
        for region in desc.owned_regions(rank).unwrap() {
            for idx in region.indices() {
                let off = desc.local_offset(rank, &idx).unwrap();
                buf[off] = idx[0] as f64;
            }
        }
        buf
    }

    fn check(desc: &DistArrayDesc, rank: usize, buf: &[f64]) {
        for region in desc.owned_regions(rank).unwrap() {
            for idx in region.indices() {
                let off = desc.local_offset(rank, &idx).unwrap();
                assert_eq!(buf[off], idx[0] as f64, "rank {rank} idx {idx:?}");
            }
        }
    }

    #[test]
    fn matched_4_to_4_is_fully_local() {
        let src = block_desc(16, 4);
        let dst = block_desc(16, 4);
        let port = MxNPort::new(&src, &dst, vec![0, 1, 2, 3], vec![0, 1, 2, 3], 50).unwrap();
        assert!(port.is_fully_local());
        assert_eq!(port.plan().moved_elements(), 0);
        spmd(4, |c| {
            let data = tagged(&src, c.rank());
            let out = port.exchange(c, &data).unwrap();
            check(&dst, c.rank(), &out);
        });
    }

    #[test]
    fn parallel_to_serial_gather_semantics() {
        // 4-rank simulation feeding a serial visualizer on world rank 4.
        let src = block_desc(12, 4);
        let dst = block_desc(12, 1);
        let port = MxNPort::new(&src, &dst, vec![0, 1, 2, 3], vec![4], 51).unwrap();
        assert!(!port.is_fully_local());
        spmd(5, |c| {
            if c.rank() < 4 {
                let data = tagged(&src, c.rank());
                port.send(c, &data).unwrap();
            } else {
                let mut out = vec![0.0f64; 12];
                port.recv(c, &mut out).unwrap();
                check(&dst, 0, &out);
                // The serial side sees the full global array in order.
                assert_eq!(out, (0..12).map(|i| i as f64).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn serial_to_parallel_scatter_semantics() {
        let src = block_desc(10, 1);
        let dst = block_desc(10, 3);
        let port = MxNPort::new(&src, &dst, vec![0], vec![1, 2, 3], 52).unwrap();
        spmd(4, |c| {
            if c.rank() == 0 {
                let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
                port.send(c, &data).unwrap();
            } else {
                let dst_rank = c.rank() - 1;
                let mut out = vec![0.0f64; dst.local_count(dst_rank).unwrap()];
                port.recv(c, &mut out).unwrap();
                check(&dst, dst_rank, &out);
            }
        });
    }

    #[test]
    fn arbitrary_4_to_3_block_to_cyclic() {
        // The paper's "differently distributed visualization" case: 4-way
        // block simulation, 3-way cyclic consumer, overlapping world ranks.
        let src = block_desc(17, 4);
        let dst = cyclic_desc(17, 3);
        let port = MxNPort::new(&src, &dst, vec![0, 1, 2, 3], vec![1, 2, 3], 53).unwrap();
        spmd(4, |c| {
            let data = if port.my_src_rank(c).is_some() {
                tagged(&src, c.rank())
            } else {
                vec![]
            };
            let out = port.exchange(c, &data).unwrap();
            if let Some(dst_rank) = port.my_dst_rank(c) {
                check(&dst, dst_rank, &out);
            } else {
                assert!(out.is_empty());
            }
        });
    }

    #[test]
    fn repeated_timesteps_keep_matching() {
        // FIFO per (sender, tag) must keep successive timesteps separate.
        let src = block_desc(8, 2);
        let dst = block_desc(8, 2);
        // Swapped world ranks => everything moves.
        let port = MxNPort::new(&src, &dst, vec![0, 1], vec![1, 0], 54).unwrap();
        spmd(2, |c| {
            for step in 0..5 {
                let shift = step as f64 * 100.0;
                let data: Vec<f64> = tagged(&src, c.rank()).iter().map(|v| v + shift).collect();
                let out = port.exchange(c, &data).unwrap();
                let dst_rank = port.my_dst_rank(c).unwrap();
                for region in dst.owned_regions(dst_rank).unwrap() {
                    for idx in region.indices() {
                        let off = dst.local_offset(dst_rank, &idx).unwrap();
                        assert_eq!(out[off], idx[0] as f64 + shift, "step {step}");
                    }
                }
            }
        });
    }

    #[test]
    fn validation_errors() {
        let src = block_desc(8, 2);
        let dst = block_desc(8, 2);
        // Wrong mapping lengths.
        assert!(MxNPort::new(&src, &dst, vec![0], vec![0, 1], 1).is_err());
        assert!(MxNPort::new(&src, &dst, vec![0, 1], vec![0], 1).is_err());
        // Mismatched global shapes.
        let other = block_desc(9, 2);
        assert!(MxNPort::new(&src, &other, vec![0, 1], vec![0, 1], 1).is_err());
        // Wrong buffer length at send/recv time.
        let port = MxNPort::new(&src, &dst, vec![0, 1], vec![0, 1], 55).unwrap();
        spmd(2, |c| {
            let bad = vec![0.0f64; 1];
            assert!(port.send(c, &bad).is_err());
            let mut bad_out = vec![0.0f64; 1];
            assert!(port.recv(c, &mut bad_out).is_err());
            // Drain nothing; correct-size send/recv still fine afterwards.
            let good = tagged(&src, c.rank());
            port.send(c, &good).unwrap();
            let mut out = vec![0.0f64; 4];
            port.recv(c, &mut out).unwrap();
        });
    }

    #[test]
    fn in_memory_apply_matches_spmd_result() {
        let src = block_desc(10, 2);
        let dst = cyclic_desc(10, 2);
        let port = MxNPort::new(&src, &dst, vec![0, 1], vec![0, 1], 56).unwrap();
        let src_buffers: Vec<Vec<f64>> = (0..2).map(|r| tagged(&src, r)).collect();
        let local = port.plan().apply(&src_buffers).unwrap();
        let spmd_out = spmd(2, |c| {
            let data = tagged(&src, c.rank());
            port.exchange(c, &data).unwrap()
        });
        assert_eq!(local, spmd_out);
        // The buffer-reuse path lands the identical result in caller-owned
        // destination buffers.
        let mut dst_buffers: Vec<Vec<f64>> = local.iter().map(|b| vec![0.0; b.len()]).collect();
        port.plan()
            .apply_into(&src_buffers, &mut dst_buffers)
            .unwrap();
        assert_eq!(dst_buffers, local);
    }
}

//! Collective ports (§6.3) in all three regimes the paper describes:
//! matched n→n, serial↔parallel (broadcast/gather/scatter semantics), and
//! arbitrary M×N between different distributions.
//!
//! ```text
//! cargo run --example mxn_coupling
//! ```
//!
//! Prints, per configuration, the redistribution plan's shape: how many
//! point-to-point transfers it needs and how many elements stay put vs
//! cross ranks. This is the *data movement geometry* behind Figure 1's
//! arrows between the simulation and the differently distributed
//! visualization tools.

use cca::data::{DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};
use cca::framework::MxNPort;
use cca::parallel::spmd;

fn block(n: usize, p: usize) -> DistArrayDesc {
    DistArrayDesc::new(&[n], Distribution::block_1d(p, 1).unwrap()).unwrap()
}

fn cyclic(n: usize, p: usize) -> DistArrayDesc {
    let dist = Distribution::new(ProcessGrid::linear(p).unwrap(), &[DimDist::Cyclic]).unwrap();
    DistArrayDesc::new(&[n], dist).unwrap()
}

fn block_cyclic(n: usize, p: usize, b: usize) -> DistArrayDesc {
    let dist = Distribution::new(
        ProcessGrid::linear(p).unwrap(),
        &[DimDist::BlockCyclic { block: b }],
    )
    .unwrap();
    DistArrayDesc::new(&[n], dist).unwrap()
}

fn describe(label: &str, src: &DistArrayDesc, dst: &DistArrayDesc) {
    let plan = RedistPlan::build(src, dst).unwrap().compile().unwrap();
    println!(
        "{label:<34} M={} N={} transfers={:<4} resident={:<6} moved={:<6} matched={}",
        src.nranks(),
        dst.nranks(),
        plan.transfers().len(),
        plan.resident_elements(),
        plan.moved_elements(),
        plan.is_matched()
    );
}

fn main() {
    let n = 4096;
    println!("global array: {n} elements\n");

    println!("-- the paper's three collective-port cases ----------------");
    describe(
        "matched 4 -> 4 (no redistribution)",
        &block(n, 4),
        &block(n, 4),
    );
    describe(
        "serial -> 4 (scatter semantics)",
        &block(n, 1),
        &block(n, 4),
    );
    describe("4 -> serial (gather semantics)", &block(n, 4), &block(n, 1));
    describe(
        "4 block -> 3 cyclic (arbitrary MxN)",
        &block(n, 4),
        &cyclic(n, 3),
    );
    describe("8 block -> 2 block (shrink)", &block(n, 8), &block(n, 2));
    describe(
        "4 cyclic(64) -> 4 cyclic(16)",
        &block_cyclic(n, 4, 64),
        &block_cyclic(n, 4, 16),
    );

    // Execute one of them over real SPMD ranks and verify delivery.
    println!("\n-- executing 4 block -> 3 cyclic over 4 world ranks -------");
    let src = block(n, 4);
    let dst = cyclic(n, 3);
    let port = MxNPort::new(&src, &dst, vec![0, 1, 2, 3], vec![0, 1, 2], 9).unwrap();
    let checks = spmd(4, |c| {
        // Source buffer tagged with global indices.
        let src_rank = port.my_src_rank(c).unwrap();
        let mut data = vec![0.0f64; src.local_count(src_rank).unwrap()];
        for region in src.owned_regions(src_rank).unwrap() {
            for idx in region.indices() {
                let off = src.local_offset(src_rank, &idx).unwrap();
                data[off] = idx[0] as f64;
            }
        }
        let out = port.exchange(c, &data).unwrap();
        // Verify every received element is the one the target descriptor
        // says this rank owns.
        let mut checked = 0usize;
        if let Some(dst_rank) = port.my_dst_rank(c) {
            for region in dst.owned_regions(dst_rank).unwrap() {
                for idx in region.indices() {
                    let off = dst.local_offset(dst_rank, &idx).unwrap();
                    assert_eq!(out[off], idx[0] as f64);
                    checked += 1;
                }
            }
        }
        checked
    });
    let total: usize = checks.iter().sum();
    println!("verified {total} elements delivered to their new owners");
    assert_eq!(total, n);
    println!("ok.");
}

//! E4 — §6.3's collective ports: cost of M×N redistribution as a function
//! of mapping and size.
//!
//! Three questions the paper's design raises, answered by measurement:
//!
//! 1. **Mapping regimes** (`transfer/*`): matched n→n (no cross-rank
//!    movement) vs serial↔parallel (broadcast/gather/scatter semantics)
//!    vs arbitrary M×N (4 block → 3 cyclic). In-memory plan execution
//!    isolates pure data movement; cost must track `moved_elements`.
//! 2. **Size scaling** (`transfer_sweep/*`): the 4→3 M×N case over array
//!    sizes — expected linear in bytes moved.
//! 3. **Plan construction** (`plan_*_build_ns`, `plan_*_compile_ns` vs
//!    `transfer_*`): building and compiling a plan (the once-per-connection
//!    cost a collective port pays) vs executing it (the per-timestep
//!    cost). Build merges per-dimension interval lists and compile is
//!    O(rank) arithmetic per transfer, so neither visits an element:
//!    compiling the matched 4→4 plan is gated to cost no more than
//!    executing it once, and the build and compiled-transfer rows at 2×
//!    their committed values (DESIGN.md §5).

use cca_bench::{Harness, Report};
use cca_data::{DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};

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

fn buffers(desc: &DistArrayDesc) -> Vec<Vec<f64>> {
    (0..desc.nranks())
        .map(|r| vec![1.0; desc.local_count(r).unwrap()])
        .collect()
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e4_collective_ports", &h);
    let n = 65_536;

    // 1. Mapping regimes at fixed size (65,536 elements per transfer).
    let cases: Vec<(&str, DistArrayDesc, DistArrayDesc)> = vec![
        ("matched_4to4", block(n, 4), block(n, 4)),
        ("scatter_1to4", block(n, 1), block(n, 4)),
        ("gather_4to1", block(n, 4), block(n, 1)),
        (
            "mxn_4to3_block_to_blockcyclic",
            block(n, 4),
            block_cyclic(n, 3, 256),
        ),
        ("shrink_8to2", block(n, 8), block(n, 2)),
    ];
    for (name, src, dst) in &cases {
        let compiled = RedistPlan::build(src, dst).unwrap().compile().unwrap();
        let bufs = buffers(src);
        // The run-copy path collective ports execute, into buffers the
        // timestep loop reuses. (Allocating the outputs per call would time
        // the allocator: four 128 KiB vectors sit on glibc's mmap
        // threshold, and whether they are returned to the kernel on every
        // free depends on what the process freed before.)
        let mut out = buffers(dst);
        report
            .metric(
                &format!("transfer_{name}_compiled_ns"),
                h.time(|| compiled.apply_into(&bufs, &mut out).unwrap()),
            )
            .at_most_x_committed(2.0, "a compiled transfer is one slice copy per run");
    }

    // 2. Size sweep for the arbitrary M×N case.
    for size in [4_096usize, 16_384, 65_536, 262_144] {
        let src = block(size, 4);
        let dst = block_cyclic(size, 3, 256);
        let compiled = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
        let bufs = buffers(&src);
        let mut out = buffers(&dst);
        report.metric(
            &format!("transfer_sweep_mxn_4to3_{size}_ns"),
            h.time(|| compiled.apply_into(&bufs, &mut out).unwrap()),
        );
    }

    // 3. Plan construction.
    for (name, src, dst) in [
        ("block_4to4", block(n, 4), block(n, 4)),
        (
            "block_to_blockcyclic_4to3",
            block(n, 4),
            block_cyclic(n, 3, 256),
        ),
        (
            "cyclic_to_cyclic_4to3_small",
            cyclic(4_096, 4),
            cyclic(4_096, 3),
        ),
    ] {
        let build = report.metric(
            &format!("plan_{name}_build_ns"),
            h.time(|| RedistPlan::build(&src, &dst).unwrap()),
        );
        if name == "cyclic_to_cyclic_4to3_small" {
            build.at_most_x_committed(2.0, "build is linear in intervals plus transfers");
        }
        let plan = RedistPlan::build(&src, &dst).unwrap();
        report.metric(
            &format!("plan_{name}_compile_ns"),
            h.time(|| plan.compile().unwrap()),
        );
    }

    // The same two quantities as `plan_block_4to4_compile_ns` and
    // `transfer_matched_4to4_compiled_ns`, in alternating rounds so their
    // ratio is formed between neighbours in time.
    let (_, src, dst) = &cases[0];
    let plan = RedistPlan::build(src, dst).unwrap();
    let compiled = plan.compile().unwrap();
    let bufs = buffers(src);
    let mut out = buffers(dst);
    let pair = h.ratio(
        || compiled.apply_into(&bufs, &mut out).unwrap(),
        || plan.compile().unwrap(),
    );
    report
        .metric("plan_block_4to4_compile_over_transfer_ratio", pair.ratio)
        .at_most(
            1.0,
            "compiling a plan may not cost more than executing it once",
        );
    report.finish();
}

//! E4 — §6.3's collective ports: cost of M×N redistribution as a function
//! of mapping and size.
//!
//! Three questions the paper's design raises, answered by measurement:
//!
//! 1. **Mapping regimes** (`transfer/*`): matched n→n (no cross-rank
//!    movement) vs serial↔parallel (broadcast/gather/scatter semantics)
//!    vs arbitrary M×N (4 block → 3 cyclic). In-memory plan execution
//!    isolates pure data movement. Each transfer is timed in alternating
//!    rounds against a `copy_from_slice` of the same bytes, and that
//!    ratio is gated at twice its measured value: a compiled transfer is
//!    a slice copy per run, so it must stay within a small multiple of
//!    one flat copy on any host.
//! 2. **Size scaling** (`transfer_sweep/*`): the 4→3 M×N case over array
//!    sizes — expected linear in bytes moved. Beside it,
//!    `transfer_cyclic_runs_512sq_ns_per_element`: a 512² layout cyclic in
//!    dimension 0, whose every run is one element (recorded, not gated).
//! 3. **Plan construction** (`plan_*_build_ns`, `plan_*_compile_ns` vs
//!    `transfer_*`): building and compiling a plan (the once-per-connection
//!    cost a collective port pays) vs executing it (the per-timestep
//!    cost). Build merges per-dimension interval lists and compile is
//!    O(rank) arithmetic per transfer, so neither visits an element:
//!    compiling the matched 4→4 plan is gated to cost no more than
//!    executing it once, and building the small cyclic 4→3 plan (one
//!    transfer per element) to stay within twice its measured multiple
//!    of compiling it (DESIGN.md §5).
//! 4. **The bulk plane against the bare socket** (`bulk_*`, `raw_wire_*`):
//!    a 32 MiB 4→3 block redistribution streamed through
//!    `BulkRedistSender::send_pipelined` over loopback mux (window 8,
//!    1 MiB slabs), and the same bytes through a bare `write_all`/`read`
//!    socket, in alternating rounds. Their ratio is gated: both rates move
//!    with the host, their ratio far less (ROADMAP item 4 asks for 0.5).

use cca_bench::{batch, Harness, Report};
use cca_data::{DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};
use cca_framework::{BulkLandingZone, BulkRedistSender};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{BulkChannel, BulkSink, MuxServer, MuxTransport, Orb};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

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
    // Each carries its bound on the transfer over a flat copy of its
    // bytes: twice the larger p10 of two full-mode runs on a 2-vCPU Intel
    // Xeon guest (matched 0.90, scatter 0.99, gather 1.02, M×N 1.16,
    // shrink 0.99), so a transfer that doubles turns CI red.
    let cases: Vec<(&str, DistArrayDesc, DistArrayDesc, f64)> = vec![
        ("matched_4to4", block(n, 4), block(n, 4), 1.8),
        ("scatter_1to4", block(n, 1), block(n, 4), 2.0),
        ("gather_4to1", block(n, 4), block(n, 1), 2.1),
        (
            "mxn_4to3_block_to_blockcyclic",
            block(n, 4),
            block_cyclic(n, 3, 256),
            2.3,
        ),
        ("shrink_8to2", block(n, 8), block(n, 2), 2.0),
    ];
    let flat = vec![1.0; n];
    let mut flat_out = vec![0.0; n];
    for (name, src, dst, bound) in &cases {
        let compiled = RedistPlan::build(src, dst).unwrap().compile().unwrap();
        let bufs = buffers(src);
        // The run-copy path collective ports execute, into buffers the
        // timestep loop reuses. (Allocating the outputs per call would time
        // the allocator: four 128 KiB vectors sit on glibc's mmap
        // threshold, and whether they are returned to the kernel on every
        // free depends on what the process freed before.)
        let mut out = buffers(dst);
        let pair = h.ratio(
            || black_box(&mut flat_out).copy_from_slice(black_box(&flat)),
            || compiled.apply_into(&bufs, &mut out).unwrap(),
        );
        report.metric(&format!("transfer_{name}_compiled_ns"), pair.probe);
        report
            .metric(&format!("transfer_{name}_over_memcpy_ratio"), pair.ratio)
            .at_most(*bound, "a compiled transfer is one slice copy per run");
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

    // Runs of one element: dimension 0 cyclic on four ranks, so every run
    // the compiled plan copies is a single element. Recorded per element,
    // not gated: no workload has this layout.
    let grid_desc = |grid: [usize; 2], dims: [DimDist; 2]| {
        let dist = Distribution::new(ProcessGrid::new(&grid).unwrap(), &dims).unwrap();
        DistArrayDesc::new(&[512, 512], dist).unwrap()
    };
    let src = grid_desc([4, 1], [DimDist::Cyclic, DimDist::Block]);
    let dst = grid_desc([1, 3], [DimDist::Block, DimDist::Block]);
    let compiled = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
    let bufs = buffers(&src);
    let mut out = buffers(&dst);
    report.metric(
        "transfer_cyclic_runs_512sq_ns_per_element",
        h.time(|| compiled.apply_into(&bufs, &mut out).unwrap())
            .scaled(1.0 / (512.0 * 512.0)),
    );

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
        let plan = RedistPlan::build(&src, &dst).unwrap();
        let pair = h.ratio(
            || plan.compile().unwrap(),
            || RedistPlan::build(&src, &dst).unwrap(),
        );
        report.metric(&format!("plan_{name}_build_ns"), pair.probe);
        report.metric(&format!("plan_{name}_compile_ns"), pair.baseline);
        // One transfer per element: the bound is twice the larger p10 of
        // two full-mode runs on a 2-vCPU Intel Xeon guest (0.84, 0.93).
        if name == "cyclic_to_cyclic_4to3_small" {
            report
                .metric(&format!("plan_{name}_build_over_compile_ratio"), pair.ratio)
                .at_most(
                    1.9,
                    "build is linear in intervals plus transfers, as compile is in transfers",
                );
        }
    }

    // The same two quantities as `plan_block_4to4_compile_ns` and
    // `transfer_matched_4to4_compiled_ns`, in alternating rounds so their
    // ratio is formed between neighbours in time.
    let (_, src, dst, _) = &cases[0];
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

    bulk_against_raw_wire(&h, &mut report);
    report.finish();
}

/// Question 4: the bulk plane and the bare socket moving the same bytes,
/// in alternating rounds.
fn bulk_against_raw_wire(h: &Harness, report: &mut Report) {
    const ELEMENTS: usize = 4 << 20;
    const SLAB: usize = 1 << 20;
    const WINDOW: usize = 8;
    // Frames per sample: a sample long enough (~50 ms) that one scheduling
    // hiccup on a shared box cannot decide a round.
    const FRAMES: usize = 4;
    let bytes = (FRAMES * ELEMENTS * 8) as f64;

    let compiled = Arc::new(
        RedistPlan::build(&block(ELEMENTS, 4), &block(ELEMENTS, 3))
            .unwrap()
            .compile()
            .unwrap(),
    );
    let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 1, SLAB);
    let server = MuxServer::bind("127.0.0.1:0", Orb::new() as Arc<dyn Dispatcher>).unwrap();
    server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
    let transport = MuxTransport::new(server.local_addr().to_string()).with_connections(1);
    let channel = BulkChannel::new(Arc::new(transport));
    let src = buffers(&block(ELEMENTS, 4));
    let mut senders: Vec<_> = (0..compiled.src_ranks())
        .map(|r| BulkRedistSender::<f64>::new(Arc::clone(&compiled), 1, SLAB, r))
        .collect();
    let mut bulk = || {
        for _ in 0..FRAMES {
            zone.reset();
            for (rank, sender) in senders.iter_mut().enumerate() {
                sender.reset();
                sender.send_pipelined(&channel, &src[rank], WINDOW).unwrap();
            }
            assert!(zone.is_complete());
        }
    };

    // The bare socket: the reader drains one frame's bytes, answers with
    // one byte, and waits for the next.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut wire = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    wire.set_nodelay(true).unwrap();
    let (mut peer, _) = listener.accept().unwrap();
    let total = ELEMENTS * 8;
    let drain = std::thread::spawn(move || {
        let mut buf = vec![0u8; 256 << 10];
        'frames: loop {
            let mut left = total;
            while left > 0 {
                match peer.read(&mut buf[..left.min(256 << 10)]) {
                    Ok(0) | Err(_) => break 'frames,
                    Ok(n) => left -= n,
                }
            }
            if peer.write_all(&[1]).is_err() {
                break;
            }
        }
    });
    let payload = vec![7u8; SLAB];
    let mut raw = || {
        for _ in 0..FRAMES {
            let mut left = total;
            while left > 0 {
                let n = SLAB.min(left);
                wire.write_all(&payload[..n]).unwrap();
                left -= n;
            }
            wire.read_exact(&mut [0u8; 1]).unwrap();
        }
    };

    let rounds = h.rounds(&mut [&mut batch(&mut bulk), &mut batch(&mut raw)]);
    // ns per sample of `bytes` bytes: bytes per ns is GB/s.
    report.metric("bulk_contig_gb_per_s", rounds.derive(|s| bytes / s[0]));
    report.metric("raw_wire_gb_per_s", rounds.derive(|s| bytes / s[1]));
    report
        .metric("bulk_over_raw_wire_ratio", rounds.derive(|s| s[1] / s[0]))
        .median_at_least(
            0.35,
            "the bulk plane moves a redistribution at a third or more of the bare socket's rate",
        );
    drop(wire);
    drain.join().unwrap();
    server.shutdown();
}

//! Pins of the M×N data path, written only against the API that every
//! executor refactor keeps (`RedistPlan::build(..).compile()`, the compiled
//! transfers and their runs, `MxNPort`, the bulk sender and landing zone,
//! `MonitorComponent::capture`):
//!
//! * for a fixed list of layout pairs, the plan's transfers, its fused
//!   runs, the port's element statistics, and the values that in-memory
//!   `apply` and SPMD `exchange` deliver, checked against global ids;
//! * the bulk plane's exact chunk boundaries, slab totals and ack
//!   watermarks at four chunk sizes, and the chunks a resumed stream sends;
//! * the monitor's frames while its source changes layout and back.
//!
//! Digests are 64-bit FNV-1a over the listed integers, so a change to any
//! transfer, run, chunk or ack shows as a changed constant.

use bytes::Bytes;
use cca::data::{CompiledPlan, DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};
use cca::framework::{BulkLandingZone, BulkRedistSender, Framework, MxNPort};
use cca::parallel::spmd;
use cca::repository::Repository;
use cca::rpc::{BulkAck, BulkSink, SlabHeader, Transport};
use cca::sidl::SidlError;
use cca::viz::{FieldProviderComponent, InMemoryFieldSource, MonitorComponent};
use parking_lot::Mutex;
use std::sync::Arc;

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn desc(extents: &[usize], grid: &[usize], dims: &[DimDist]) -> DistArrayDesc {
    let dist = Distribution::new(ProcessGrid::new(grid).unwrap(), dims).unwrap();
    DistArrayDesc::new(extents, dist).unwrap()
}

/// The global index of column-major global id `gid`.
fn unflatten(extents: &[usize], mut gid: usize) -> Vec<usize> {
    extents
        .iter()
        .map(|&e| {
            let i = gid % e;
            gid /= e;
            i
        })
        .collect()
}

/// Owner rank and local column-major offset of global id `gid`, placed
/// with `global_to_local` alone.
fn place(desc: &DistArrayDesc, gid: usize) -> (usize, usize) {
    let (owner, local) = desc
        .global_to_local(&unflatten(desc.global_extents(), gid))
        .unwrap();
    let extents = desc.local_extents(owner).unwrap();
    let (mut off, mut stride) = (0, 1);
    for (l, e) in local.iter().zip(&extents) {
        off += l * stride;
        stride *= e;
    }
    (owner, off)
}

fn global_count(desc: &DistArrayDesc) -> usize {
    desc.global_extents().iter().product()
}

/// Every rank's local buffer, each element holding its global id.
fn tagged(desc: &DistArrayDesc) -> Vec<Vec<f64>> {
    let mut bufs: Vec<Vec<f64>> = (0..desc.nranks())
        .map(|r| vec![-1.0; desc.local_count(r).unwrap()])
        .collect();
    for gid in 0..global_count(desc) {
        let (owner, off) = place(desc, gid);
        bufs[owner][off] = gid as f64;
    }
    bufs
}

/// `buf` is rank `rank`'s local buffer under `desc`, holding global ids.
fn check_rank(desc: &DistArrayDesc, rank: usize, buf: &[f64], what: &str) {
    assert_eq!(
        buf.len(),
        desc.local_count(rank).unwrap(),
        "{what} rank {rank}"
    );
    for gid in 0..global_count(desc) {
        let (owner, off) = place(desc, gid);
        if owner == rank {
            assert_eq!(buf[off], gid as f64, "{what}: rank {rank} gid {gid}");
        }
    }
}

fn check(desc: &DistArrayDesc, bufs: &[Vec<f64>], what: &str) {
    assert_eq!(bufs.len(), desc.nranks(), "{what}");
    for (r, buf) in bufs.iter().enumerate() {
        check_rank(desc, r, buf, what);
    }
}

fn layouts() -> Vec<(&'static str, DistArrayDesc, DistArrayDesc)> {
    use DimDist::{Block, BlockCyclic, Cyclic};
    vec![
        (
            "1d_scatter_1to4",
            desc(&[30], &[1], &[Block]),
            desc(&[30], &[4], &[Block]),
        ),
        (
            "1d_gather_4to1",
            desc(&[30], &[4], &[Block]),
            desc(&[30], &[1], &[Block]),
        ),
        (
            "block4_to_cyclic3",
            desc(&[24], &[4], &[Block]),
            desc(&[24], &[3], &[Cyclic]),
        ),
        (
            "cyclic2_to_block5",
            desc(&[17], &[2], &[Cyclic]),
            desc(&[17], &[5], &[Block]),
        ),
        (
            "2d_64sq_1x4_to_3x1",
            desc(&[64, 64], &[1, 4], &[Block, Block]),
            desc(&[64, 64], &[3, 1], &[Block, Block]),
        ),
        (
            "2d_block_block_2x1_to_block_cyclic_1x3",
            desc(&[10, 9], &[2, 1], &[Block, Block]),
            desc(&[10, 9], &[1, 3], &[Block, Cyclic]),
        ),
        (
            "3d_block_cyclic",
            desc(
                &[7, 6, 5],
                &[2, 1, 2],
                &[BlockCyclic { block: 2 }, Block, BlockCyclic { block: 3 }],
            ),
            desc(
                &[7, 6, 5],
                &[1, 3, 2],
                &[Block, BlockCyclic { block: 1 }, BlockCyclic { block: 2 }],
            ),
        ),
        (
            "grid_wider_than_extent",
            desc(&[3, 4], &[5, 1], &[Block, Block]),
            desc(&[3, 4], &[2, 3], &[Cyclic, Block]),
        ),
    ]
}

/// `(name, transfers, fnv of (src, dst, count), fnv of runs, total,
/// resident, moved)`.
type LayoutPin = (&'static str, usize, u64, u64, usize, usize, usize);

const LAYOUT_PINS: [LayoutPin; 8] = [
    (
        "1d_scatter_1to4",
        4,
        604165250273843563,
        5842077086975952987,
        30,
        8,
        22,
    ),
    (
        "1d_gather_4to1",
        4,
        3528141483498051947,
        10461678978253016155,
        30,
        8,
        22,
    ),
    (
        "block4_to_cyclic3",
        24,
        4156664096353971429,
        12519741486964642533,
        24,
        6,
        18,
    ),
    (
        "cyclic2_to_block5",
        17,
        15549959130890926688,
        11289778197048496484,
        17,
        4,
        13,
    ),
    (
        "2d_64sq_1x4_to_3x1",
        12,
        4410046084619609513,
        11250505619324614917,
        4096,
        1024,
        3072,
    ),
    (
        "2d_block_block_2x1_to_block_cyclic_1x3",
        18,
        11914621735526497412,
        9294069270378904696,
        90,
        30,
        60,
    ),
    (
        "3d_block_cyclic",
        96,
        10809081435974351461,
        10029788184261673921,
        210,
        42,
        168,
    ),
    (
        "grid_wider_than_extent",
        6,
        7754202839532247207,
        9603475215552751927,
        12,
        6,
        6,
    ),
];

fn compiled(src: &DistArrayDesc, dst: &DistArrayDesc) -> CompiledPlan {
    RedistPlan::build(src, dst).unwrap().compile().unwrap()
}

#[test]
fn every_layout_pair_keeps_its_transfers_runs_statistics_and_values() {
    let layouts = layouts();
    assert_eq!(layouts.len(), LAYOUT_PINS.len());
    let mut seen = Vec::new();
    for ((name, src, dst), pin) in layouts.iter().zip(LAYOUT_PINS) {
        let plan = compiled(src, dst);
        let transfers = plan.transfers();
        let list = fnv(transfers
            .iter()
            .flat_map(|t| [t.src_rank as u64, t.dst_rank as u64, t.count() as u64]));
        let runs = fnv(transfers.iter().flat_map(|t| {
            t.runs(0, t.count())
                .flat_map(|(s, d, len)| [s as u64, d as u64, len as u64])
                .chain([u64::MAX])
                .collect::<Vec<_>>()
        }));
        let src_world: Vec<usize> = (0..src.nranks()).collect();
        let dst_world: Vec<usize> = (0..dst.nranks()).collect();
        let port = MxNPort::new(src, dst, src_world, dst_world, 40).unwrap();
        let stats = port.plan();
        assert_eq!(stats.transfers().len(), transfers.len(), "{name}");
        let got = (
            *name,
            transfers.len(),
            list,
            runs,
            stats.total_elements(),
            stats.resident_elements(),
            stats.moved_elements(),
        );
        seen.push(format!("{got:?}"));
        assert_eq!(got, pin, "{name}; all pins now:\n{}", seen.join(",\n"));
        assert_eq!(stats.total_elements(), global_count(src), "{name}");
        assert!(!port.is_fully_local(), "{name}");

        // In memory, against global ids.
        check(dst, &plan.apply(&tagged(src)).unwrap(), name);

        // Over SPMD ranks: source ranks 0..M, target ranks 0..N of one
        // world, each world rank exchanging as whichever sides it plays.
        let src_bufs = tagged(src);
        let outs = spmd(src.nranks().max(dst.nranks()), |c| {
            let data = match port.my_src_rank(c) {
                Some(r) => src_bufs[r].clone(),
                None => Vec::new(),
            };
            (port.my_dst_rank(c), port.exchange(c, &data).unwrap())
        });
        for (dst_rank, out) in outs {
            match dst_rank {
                Some(r) => check_rank(dst, r, &out, name),
                None => assert!(out.is_empty(), "{name}"),
            }
        }

        // A port onto its own layout moves nothing.
        let ranks: Vec<usize> = (0..src.nranks()).collect();
        let same = MxNPort::new(src, src, ranks.clone(), ranks, 41).unwrap();
        assert!(same.is_fully_local(), "{name}");
        assert_eq!(same.plan().moved_elements(), 0, "{name}");
    }
    let (_, wide, _) = &layouts[7];
    assert!(
        (0..wide.nranks()).any(|r| wide.local_count(r).unwrap() == 0),
        "some rank of the wide grid owns nothing"
    );
}

/// One recorded slab: `(transfer, chunk_offset, body length, total_bytes,
/// acked_through of the zone's reply)`.
type Slab = (u32, u64, usize, u64, u64);

/// Decodes every slab, records it, and hands it to the landing zone.
struct Recording {
    zone: Arc<BulkLandingZone<f64>>,
    slabs: Mutex<Vec<Slab>>,
    /// Slabs still allowed through; `None` is unlimited.
    budget: Mutex<Option<usize>>,
}

impl Transport for Recording {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        if let Some(left) = self.budget.lock().as_mut() {
            if *left == 0 {
                return Err(SidlError::user(
                    cca::rpc::CONNECTION_EXCEPTION_TYPE,
                    "dropped",
                ));
            }
            *left -= 1;
        }
        let (header, body) = SlabHeader::decode(&request).unwrap();
        let ack = self.zone.receive(request)?;
        let acked = BulkAck::decode(&ack).unwrap();
        assert_eq!(acked.transfer, header.transfer);
        self.slabs.lock().push((
            header.transfer,
            header.chunk_offset,
            body.len(),
            header.total_bytes,
            acked.acked_through,
        ));
        Ok(Bytes::from(ack))
    }
}

fn recording(zone: &Arc<BulkLandingZone<f64>>, budget: Option<usize>) -> Recording {
    Recording {
        zone: Arc::clone(zone),
        slabs: Mutex::new(Vec::new()),
        budget: Mutex::new(budget),
    }
}

fn bulk_plan() -> (DistArrayDesc, DistArrayDesc, Arc<CompiledPlan>) {
    let (_, src, dst) = layouts().swap_remove(4);
    let plan = Arc::new(compiled(&src, &dst));
    (src, dst, plan)
}

/// Each transfer of the 64² `[1,4]→[3,1]` plan, in plan order: 16 columns
/// of 22, 22 and 20 rows, 8 bytes each, per source rank.
const BULK_TOTALS: [u64; 12] = [
    2816, 2816, 2560, 2816, 2816, 2560, 2816, 2816, 2560, 2816, 2816, 2560,
];

/// `(chunk_bytes, slabs, fnv of every recorded slab in send order)`.
const CHUNK_PINS: [(usize, usize, u64); 4] = [
    (8, 4096, 12600716342690242853),
    (24, 1372, 1312552605904607945),
    (200, 172, 7123078156350219813),
    (1 << 20, 12, 17152735881216930805),
];

fn slab_digest(slabs: &[Slab]) -> u64 {
    fnv(slabs
        .iter()
        .flat_map(|&(t, off, len, total, acked)| [u64::from(t), off, len as u64, total, acked]))
}

#[test]
fn bulk_chunk_boundaries_totals_and_acks_are_pinned() {
    let (src, dst, plan) = bulk_plan();
    let totals: Vec<u64> = plan
        .transfers()
        .iter()
        .map(|t| t.count() as u64 * 8)
        .collect();
    assert_eq!(totals, BULK_TOTALS);
    let mut seen = Vec::new();
    for (chunk, slabs_pin, digest_pin) in CHUNK_PINS {
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&plan), 3, chunk);
        let channel = recording(&zone, None);
        for (rank, data) in tagged(&src).iter().enumerate() {
            let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&plan), 3, chunk, rank);
            sender.send(&channel, data).unwrap();
            assert!(sender.is_complete());
        }
        assert!(zone.is_complete());
        check(&dst, &zone.snapshot_buffers(), &format!("chunk {chunk}"));

        let slabs = channel.slabs.into_inner();
        for (t, &total) in BULK_TOTALS.iter().enumerate() {
            let got: Vec<(u64, usize)> = slabs
                .iter()
                .filter(|s| s.0 as usize == t)
                .map(|&(_, off, len, slab_total, _)| {
                    assert_eq!(slab_total, total, "chunk {chunk} transfer {t}");
                    (off, len)
                })
                .collect();
            let step = chunk as u64;
            let want: Vec<(u64, usize)> = (0..total.div_ceil(step))
                .map(|k| (k * step, step.min(total - k * step) as usize))
                .collect();
            assert_eq!(got, want, "chunk {chunk} transfer {t}");
            assert_eq!(zone.watermark(t), total);
        }
        let got = (chunk, slabs.len(), slab_digest(&slabs));
        seen.push(format!("{got:?}"));
        assert_eq!(
            got,
            (chunk, slabs_pin, digest_pin),
            "all pins now:\n{}",
            seen.join(",\n")
        );
    }
}

/// `(slabs before the drop, slabs after, fnv of the resumed slabs)` for
/// source rank 1 at 200-byte chunks, dropped after five slabs.
const RESUME_PIN: (usize, usize, u64) = (5, 38, 4109329885914460268);

#[test]
fn a_resumed_bulk_stream_sends_exactly_the_unacked_chunks() {
    let (src, _, plan) = bulk_plan();
    let zone = BulkLandingZone::<f64>::new(Arc::clone(&plan), 4, 200);
    let data = &tagged(&src)[1];
    let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&plan), 4, 200, 1);
    let flaky = recording(&zone, Some(5));
    assert!(sender.send(&flaky, data).is_err());
    assert!(!sender.is_complete());
    let healthy = recording(&zone, None);
    sender.send(&healthy, data).unwrap();
    assert!(sender.is_complete());
    let (before, after) = (flaky.slabs.into_inner(), healthy.slabs.into_inner());
    // The resumed stream starts at the first chunk the drop cost.
    assert_eq!(after[0].1, before.last().unwrap().4);
    let got = (before.len(), after.len(), slab_digest(&after));
    assert_eq!(got, RESUME_PIN);
}

#[test]
fn the_monitor_frames_follow_the_source_through_a_layout_change_and_back() {
    use DimDist::{Block, Cyclic};
    let cyclic = desc(&[5, 4], &[2, 1], &[Cyclic, Block]);
    let block = desc(&[5, 4], &[3, 1], &[Block, Block]);
    let source = InMemoryFieldSource::new();
    let publish = |layout: &DistArrayDesc, step: usize| {
        let bufs = tagged(layout)
            .into_iter()
            .map(|b| b.into_iter().map(|g| g + (100 * step) as f64).collect())
            .collect();
        source.publish("u", layout.clone(), bufs).unwrap();
    };
    publish(&cyclic, 0);
    let fw = Framework::new(Repository::new());
    let monitor = MonitorComponent::new("u");
    fw.add_instance("sim0", FieldProviderComponent::new(source.clone()))
        .unwrap();
    fw.add_instance("viz0", monitor.clone()).unwrap();
    fw.connect("viz0", "fields", "sim0", "fields").unwrap();

    for (step, layout) in [&cyclic, &block, &cyclic].into_iter().enumerate() {
        if step > 0 {
            publish(layout, step);
        }
        let frame = monitor.capture().unwrap();
        assert_eq!(frame.frame, step as u64 + 1);
        let want: Vec<f64> = (0..20).map(|g| (g + 100 * step) as f64).collect();
        assert_eq!(frame.data, want, "frame {step}");
    }
    assert_eq!(monitor.history().len(), 3);
}

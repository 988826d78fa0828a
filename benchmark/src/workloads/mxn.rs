//! `mxn_bulk`: simulation → visualisation field frames over the bulk data
//! plane. One 2-d `f64` field on a `[1,4]` block grid is redistributed,
//! frame after frame, alternately to a `[1,3]` grid (whole columns move:
//! contiguous slabs) and to a `[3,1]` grid (every column is cut in three:
//! strided runs). Storage is column-major, first index fastest.

use super::probes;
use crate::gen;
use crate::harness::{repeat_for, Ctx};
use crate::stats;
use crate::trace;
use cca::data::{CompiledPlan, DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};
use cca::framework::{BulkLandingZone, BulkRedistSender};
use cca::rpc::transport::Dispatcher;
use cca::rpc::{BulkChannel, BulkSink, MuxServer, MuxTransport, Orb, BULK_SLAB_HEADER_LEN};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GENERATION: u64 = 11;
const SLAB_BYTES: usize = 1 << 20;
/// Slabs in flight per transfer; sender memory is bounded by this, not
/// by the field.
const WINDOW: usize = 8;
const SRC_GRID: [usize; 2] = [1, 4];
/// Elements per source rank re-stamped before every frame, so a frame
/// that silently did not land cannot pass for the one before it.
const STAMPS: usize = 16;

/// One target layout with its plan, server and endpoints.
struct Variant {
    label: &'static str,
    compiled: Arc<CompiledPlan>,
    zone: Arc<BulkLandingZone<f64>>,
    server: Arc<MuxServer>,
    channel: Arc<BulkChannel>,
    senders: Vec<BulkRedistSender<f64>>,
}

impl Drop for Variant {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

struct Ready {
    /// Per source rank local buffers.
    src: Vec<Vec<f64>>,
    /// Wrapping sum of every source element's bits: what each landed
    /// frame's buffers must sum to, whatever the target layout.
    checksum: u64,
    variants: Vec<Variant>,
    frames_sent: u64,
}

fn block_desc(side: usize, grid: [usize; 2]) -> Result<DistArrayDesc, String> {
    let grid = ProcessGrid::new(&grid).map_err(|e| e.to_string())?;
    let dist =
        Distribution::new(grid, &[DimDist::Block, DimDist::Block]).map_err(|e| e.to_string())?;
    DistArrayDesc::new(&[side, side], dist).map_err(|e| e.to_string())
}

fn variant(side: usize, label: &'static str, dst_grid: [usize; 2]) -> Result<Variant, String> {
    let compiled = {
        let _s = trace::span("data.redist.compile");
        let plan = RedistPlan::build(&block_desc(side, SRC_GRID)?, &block_desc(side, dst_grid)?)
            .map_err(|e| e.to_string())?;
        Arc::new(plan.compile().map_err(|e| e.to_string())?)
    };
    let _s = trace::span("framework.bulk.open");
    let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), GENERATION, SLAB_BYTES);
    let server = MuxServer::bind("127.0.0.1:0", Orb::new() as Arc<dyn Dispatcher>)
        .map_err(|e| format!("bind bulk server: {e}"))?;
    server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
    // One client socket per variant: two in all.
    let transport =
        Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(1));
    let senders = (0..compiled.src_ranks())
        .map(|r| BulkRedistSender::new(Arc::clone(&compiled), GENERATION, SLAB_BYTES, r))
        .collect();
    Ok(Variant {
        label,
        compiled,
        zone,
        server,
        channel: BulkChannel::new(transport),
        senders,
    })
}

fn bits_sum<'a>(buffers: impl IntoIterator<Item = &'a Vec<f64>>) -> u64 {
    buffers
        .into_iter()
        .flatten()
        .fold(0u64, |sum, x| sum.wrapping_add(x.to_bits()))
}

impl Ready {
    fn build(seed: u64, side: usize) -> Result<Ready, String> {
        let variants = vec![
            variant(side, "contig", [1, 3])?,
            variant(side, "strided", [3, 1])?,
        ];
        let src: Vec<Vec<f64>> = {
            let _s = trace::span("bench.generate");
            let plan = &variants[0].compiled;
            (0..plan.src_ranks())
                .map(|r| gen::frame_values(seed, &format!("mxn.field.{r}"), plan.src_count(r)))
                .collect()
        };
        let checksum = bits_sum(&src);
        let mut ready = Ready {
            src,
            checksum,
            variants,
            frames_sent: 0,
        };
        // Warm-up: dial each variant's connection, fault in every buffer.
        for v in 0..ready.variants.len() {
            ready.send_frame(v)?;
        }
        Ok(ready)
    }

    /// Stamps the next frame number into a few elements of every source
    /// rank, keeping the checksum current.
    fn stamp(&mut self) {
        self.frames_sent += 1;
        for (rank, buf) in self.src.iter_mut().enumerate() {
            let stride = buf.len() / STAMPS;
            for k in 0..STAMPS {
                let cell = &mut buf[k * stride];
                let value = self.frames_sent as f64 + (rank * STAMPS + k) as f64 / 1024.0;
                self.checksum = self
                    .checksum
                    .wrapping_sub(cell.to_bits())
                    .wrapping_add(value.to_bits());
                *cell = value;
            }
        }
    }

    /// Streams one frame to variant `v`; returns the seconds it took.
    fn send_frame(&mut self, v: usize) -> Result<f64, String> {
        self.stamp();
        let variant = &mut self.variants[v];
        variant.zone.reset();
        for sender in &mut variant.senders {
            sender.reset();
        }
        let started = Instant::now();
        {
            let _s = trace::span(if v == 0 {
                "framework.bulk.frame_contig"
            } else {
                "framework.bulk.frame_strided"
            });
            for (rank, sender) in variant.senders.iter_mut().enumerate() {
                sender
                    .send_pipelined(&variant.channel, &self.src[rank], WINDOW)
                    .map_err(|e| format!("{} frame: {e}", variant.label))?;
            }
        }
        Ok(started.elapsed().as_secs_f64())
    }

    /// The per-frame oracle: complete, and the landed bits sum to the
    /// source's. `exact` adds the bit-for-bit comparison with
    /// `CompiledPlan::apply`.
    fn frame_failure(&self, v: usize, exact: bool) -> Option<String> {
        let variant = &self.variants[v];
        if !variant.zone.is_complete() {
            return Some(format!("{} frame did not land completely", variant.label));
        }
        let landed = variant.zone.with_buffers(|bufs| bits_sum(bufs));
        if landed != self.checksum {
            return Some(format!("{} frame checksum mismatch", variant.label));
        }
        if exact {
            let _s = trace::span("bench.oracle");
            let expected = match variant.compiled.apply(&self.src) {
                Ok(e) => e,
                Err(e) => return Some(format!("reference apply failed: {e}")),
            };
            if let Some(why) = variant
                .zone
                .with_buffers(|landed| landed_mismatch(landed, &expected))
            {
                return Some(format!("{} frame: {why}", variant.label));
            }
        }
        None
    }
}

/// Bit-for-bit comparison of landed buffers with the reference.
fn landed_mismatch(landed: &[Vec<f64>], expected: &[Vec<f64>]) -> Option<String> {
    if landed.len() != expected.len() {
        return Some("wrong number of destination ranks".into());
    }
    for (rank, (got, want)) in landed.iter().zip(expected).enumerate() {
        if got.len() != want.len() {
            return Some(format!("destination rank {rank} has the wrong length"));
        }
        if let Some(at) = got
            .iter()
            .zip(want)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Some(format!(
                "destination rank {rank} differs from CompiledPlan::apply at element {at}"
            ));
        }
    }
    None
}

struct Frames {
    /// Seconds per frame, by variant.
    times: [Vec<f64>; 2],
    wall_s: f64,
    failures: Vec<String>,
}

impl Frames {
    fn count(&self) -> usize {
        self.times[0].len() + self.times[1].len()
    }
    /// Seconds per pair of frames, one of each variant.
    fn pairs(&self) -> Vec<f64> {
        self.times[0]
            .iter()
            .zip(&self.times[1])
            .map(|(contig, strided)| contig + strided)
            .collect()
    }
    /// Frames per second in the run's quiet pairs.
    fn per_s(&self) -> f64 {
        2.0 / stats::low_decile(&self.pairs())
    }
    /// Frame time, µs, of each block of four pairs: the median over the
    /// block of a pair's mean frame time, so the two variants' different
    /// costs do not make the median jump between them.
    fn block_medians_us(&self) -> Vec<f64> {
        let per_frame: Vec<f64> = self.pairs().iter().map(|pair| pair * 1e6 / 2.0).collect();
        stats::block_medians(&per_frame, 4)
    }
}

/// Alternating frames until `budget` of *streaming* time is spent (the
/// per-frame oracle runs between frames, off the clock), at least two of
/// each variant. The first and the last frame of each variant are
/// compared bit for bit; the rest by checksum.
fn drive(ready: &mut Ready, budget: Duration) -> Frames {
    let mut frames = Frames {
        times: [Vec::new(), Vec::new()],
        wall_s: 0.0,
        failures: Vec::new(),
    };
    while frames.count() < 4 || frames.wall_s < budget.as_secs_f64() {
        let v = frames.count() % 2;
        match ready.send_frame(v) {
            Ok(seconds) => {
                frames.wall_s += seconds;
                let first = frames.times[v].is_empty();
                frames.times[v].push(seconds);
                frames.failures.extend(ready.frame_failure(v, first));
            }
            Err(why) => {
                frames.failures.push(why);
                break;
            }
        }
    }
    // The last frame of each variant, exactly: re-check the zone that
    // still holds it. Only the final frame overall still matches `src`
    // (the other variant's last frame predates the final stamp), so send
    // one closing frame per variant, off the clock.
    for v in 0..2 {
        match ready.send_frame(v) {
            Ok(_) => frames.failures.extend(ready.frame_failure(v, true)),
            Err(why) => frames.failures.push(why),
        }
    }
    frames
}

fn account(ctx: &mut Ctx, frames: &Frames) {
    // The two closing frames count as attempts too.
    ctx.attempt(frames.count() as u64 + 2);
    for why in &frames.failures {
        ctx.fail(|| why.clone());
    }
}

pub fn bulk(ctx: &mut Ctx) {
    let side = ctx.size(2048, 256);
    let seed = ctx.seed();
    ctx.run(
        3,
        || Ready::build(seed, side),
        |ctx, ready| stream(ctx, side, ready),
    );
}

fn stream(ctx: &mut Ctx, side: usize, mut ready: Ready) {
    let frame_bytes = (side * side * 8) as f64;

    if !ctx.traced() {
        let budget = ctx.budget(1.0);
        let frames = ctx.pass("bench.run", || drive(&mut ready, budget)).result;
        account(ctx, &frames);
        ctx.put_from("ops_per_s", frames.per_s(), &frames.pairs(), "1/s");
        ctx.put_quiet("op_p50_us", &frames.block_medians_us(), "us");
        check_window(ctx, &ready);
        return;
    }

    let budget = ctx.budget(0.35);
    // Tracing is off outside `ctx.pass`: this is the untraced baseline.
    let untraced = drive(&mut ready, budget);
    account(ctx, &untraced);
    let slabs_before = [0, 1].map(|v| slabs_sent(&ready.variants[v]));
    let traced = ctx.pass("bench.run", || drive(&mut ready, budget));
    account(ctx, &traced.result);
    ctx.put_layer_table(&traced.spans, "bench.run");
    ctx.put_trace_overhead(untraced.per_s(), traced.result.per_s());

    let gb_per_s =
        |seconds: &[f64]| -> Vec<f64> { seconds.iter().map(|s| frame_bytes / s / 1e9).collect() };
    ctx.put_samples(
        "framework.bulk.contig_gb_per_s",
        &gb_per_s(&traced.result.times[0]),
        "GB/s",
    );
    ctx.put_samples(
        "framework.bulk.strided_gb_per_s",
        &gb_per_s(&traced.result.times[1]),
        "GB/s",
    );
    // Exact: slabs per frame pair (one contiguous + one strided frame),
    // each variant's slabs over its own frames (timed + one closing).
    let per_pair: f64 = (0..2)
        .map(|v| {
            let frames = traced.result.times[v].len() + 1;
            (slabs_sent(&ready.variants[v]) - slabs_before[v]) as f64 / frames as f64
        })
        .sum();
    ctx.put("rpc.bulk.slabs", per_pair, "count");
    let resends: u64 = ready
        .variants
        .iter()
        .flat_map(|v| &v.senders)
        .map(|s| s.metrics().resumed_chunks())
        .sum();
    ctx.put("framework.bulk.resends", resends as f64, "count");
    ctx.check(resends == 0, || format!("{resends} slabs were re-sent"));
    check_window(ctx, &ready);
    ctx.put(
        "data.redist.compile_ms",
        ctx.recorded_ms("data.redist.compile"),
        "ms",
    );

    // In-process floors for the same plans and buffers, and the machine's
    // own copy rate beside them. The field is far larger than L2 and far
    // smaller than the shared L3, so all three are cache-inclusive rates.
    let budget = ctx.budget(0.05);
    for (v, name) in [
        (0, "data.redist.apply_contig_gb_per_s"),
        (1, "data.redist.apply_strided_gb_per_s"),
    ] {
        let plan = &ready.variants[v].compiled;
        let mut dst: Vec<Vec<f64>> = (0..plan.dst_ranks())
            .map(|r| vec![0.0; plan.dst_count(r)])
            .collect();
        let times = repeat_for(budget, 3, || {
            plan.apply_into(black_box(&ready.src), &mut dst)
                .expect("apply_into on matching buffers");
        });
        ctx.put_samples(name, &gb_per_s(&times), "GB/s");
    }
    let mut copy = vec![0.0f64; ready.src[0].len()];
    let times = repeat_for(budget, 3, || {
        for rank in &ready.src {
            copy.copy_from_slice(black_box(rank));
            black_box(&mut copy);
        }
    });
    ctx.put_samples("data.memcpy_gb_per_s", &gb_per_s(&times), "GB/s");
    probes::raw_wire(ctx, frame_bytes as usize, SLAB_BYTES, ctx.size(5, 2));
}

fn slabs_sent(variant: &Variant) -> u64 {
    variant
        .senders
        .iter()
        .map(|s| s.metrics().chunks_sent())
        .sum()
}

/// Sender memory must stay bounded by the window, whatever the field.
fn check_window(ctx: &mut Ctx, ready: &Ready) {
    let peak = ready
        .variants
        .iter()
        .flat_map(|v| &v.senders)
        .map(|s| s.peak_buffer_bytes())
        .max()
        .unwrap_or(0);
    let bound = WINDOW * (SLAB_BYTES + BULK_SLAB_HEADER_LEN);
    ctx.check(peak <= bound, || {
        format!("sender held {peak} bytes, window allows {bound}")
    });
    if ctx.traced() {
        ctx.put("framework.bulk.peak_buffer_bytes", peak as f64, "B");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landed_oracle_rejects_a_corrupted_frame() {
        let expected = vec![vec![1.0, 2.0, 3.0], vec![4.0]];
        assert_eq!(landed_mismatch(&expected.clone(), &expected), None);
        let mut flipped = expected.clone();
        flipped[0][1] = f64::from_bits(2.0f64.to_bits() ^ 1); // one bit
        assert!(landed_mismatch(&flipped, &expected)
            .unwrap()
            .contains("element 1"));
        let mut short = expected.clone();
        short[1].clear();
        assert!(landed_mismatch(&short, &expected).is_some());
        assert!(landed_mismatch(&expected[..1], &expected).is_some());
        // -0.0 == 0.0 numerically, but the oracle is bit for bit.
        assert!(landed_mismatch(&[vec![-0.0]], &[vec![0.0]]).is_some());
    }

    #[test]
    fn checksum_sees_a_frame_that_did_not_land() {
        // A stale buffer (previous frame's stamp) sums differently.
        let fresh = vec![vec![7.0, 0.25], vec![0.5]];
        let stale = vec![vec![6.0, 0.25], vec![0.5]];
        assert_ne!(bits_sum(&fresh), bits_sum(&stale));
        // And it is layout-independent: any permutation sums the same.
        let moved = vec![vec![0.5], vec![0.25, 7.0]];
        assert_eq!(bits_sum(&fresh), bits_sum(&moved));
    }

    #[test]
    fn a_small_frame_streams_and_passes_its_oracles() {
        let mut ready = Ready::build(7, 48).expect("set-up");
        let frames = drive(&mut ready, Duration::ZERO);
        assert_eq!(frames.failures, Vec::<String>::new());
        assert_eq!(frames.count(), 4);
        // Corrupt the source after the fact: the landed frame no longer
        // matches, and the oracle says so.
        ready.src[0][3] += 1.0;
        assert!(ready.frame_failure(1, true).is_some());
    }
}

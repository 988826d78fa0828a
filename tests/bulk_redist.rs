//! Hostile-network battery for the bulk data plane (experiment E15's
//! resilience half): M×N redistribution streamed as raw slabs over real
//! loopback mux TCP, under the same seeded fault matrix
//! (`CCA_FAULT_SEED`) as the control-plane suites.
//!
//! Contracts pinned here:
//!
//! * a healthy stream lands bit-identically to the in-process
//!   `CompiledPlan::apply`, with sender memory bounded by one chunk;
//! * seeded mid-stream connection drops surface as typed errors, and a
//!   retry resumes from the acked watermark — the sender never re-sends
//!   a chunk that was already acknowledged;
//! * composed with a circuit breaker, repeated drops quarantine the
//!   destination and a half-open probe (simulated time, no sleeps)
//!   recovers and finishes the stream;
//! * a garbage slab (or a frame of unknown kind) kills exactly the
//!   connection that sent it — concurrent healthy streams are untouched;
//! * every scenario is a pure function of the seed: two runs with the
//!   same seed produce identical attempt/chunk/failure counts.

use cca::core::resilience::{
    fault_seed_from_env, BreakerPolicy, BreakerState, CircuitBreaker, Clock, MockClock,
};
use cca::data::{CompiledPlan, DistArrayDesc, Distribution, RedistPlan};
use cca::framework::{BulkLandingZone, BulkRedistSender};
use cca::rpc::frame::DEFAULT_MAX_PAYLOAD;
use cca::rpc::transport::Dispatcher;
use cca::rpc::{
    encode_frame, BulkChannel, BulkSink, FrameKind, MuxServer, MuxServerConfig, MuxTransport, Orb,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const GENERATION: u64 = 11;
const CHUNK_BYTES: usize = 256;
const ELEMENTS: usize = 1200;

fn compiled_4_to_3() -> Arc<CompiledPlan> {
    let src = DistArrayDesc::new(&[ELEMENTS], Distribution::block_1d(4, 1).unwrap()).unwrap();
    let dst = DistArrayDesc::new(&[ELEMENTS], Distribution::block_1d(3, 1).unwrap()).unwrap();
    Arc::new(RedistPlan::build(&src, &dst).unwrap().compile().unwrap())
}

fn source_buffers(compiled: &CompiledPlan) -> Vec<Vec<f64>> {
    (0..compiled.src_ranks())
        .map(|r| {
            (0..compiled.src_count(r))
                .map(|i| (r * 10_000 + i) as f64)
                .collect()
        })
        .collect()
}

/// Every chunk of every transfer, counted once — the floor for any
/// correct stream, and (because resume is watermark-exact) also the
/// ceiling when drops happen before dispatch.
fn unique_chunks(compiled: &CompiledPlan) -> u64 {
    compiled
        .transfers()
        .iter()
        .map(|t| (t.count() * 8).div_ceil(CHUNK_BYTES) as u64)
        .sum()
}

struct Rig {
    server: Arc<MuxServer>,
    zone: Arc<BulkLandingZone<f64>>,
    channel: Arc<BulkChannel>,
}

fn rig(compiled: &Arc<CompiledPlan>) -> Rig {
    let zone = BulkLandingZone::<f64>::new(Arc::clone(compiled), GENERATION, CHUNK_BYTES);
    let orb = Orb::new();
    let server = MuxServer::bind_with(
        "127.0.0.1:0",
        orb as Arc<dyn Dispatcher>,
        MuxServerConfig::default(),
    )
    .unwrap();
    server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
    let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
    let channel = BulkChannel::new(transport);
    Rig {
        server,
        zone,
        channel,
    }
}

#[test]
fn healthy_stream_matches_in_process_apply_with_bounded_memory() {
    let compiled = compiled_4_to_3();
    let r = rig(&compiled);
    let src = source_buffers(&compiled);

    let mut peak = 0usize;
    for (rank, data) in src.iter().enumerate() {
        let mut sender =
            BulkRedistSender::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, rank);
        sender.send(r.channel.as_ref(), data).unwrap();
        assert!(sender.is_complete());
        peak = peak.max(sender.peak_buffer_bytes());
    }
    assert!(r.zone.is_complete());

    // Peak resident payload memory is one chunk plus the 32-byte slab
    // header — never a function of the array size.
    assert!(
        peak <= CHUNK_BYTES + cca::rpc::BULK_SLAB_HEADER_LEN,
        "sender held {peak} bytes, chunk bound is {}",
        CHUNK_BYTES + cca::rpc::BULK_SLAB_HEADER_LEN
    );

    let expected = compiled.apply(&src).unwrap();
    assert_eq!(r.zone.snapshot_buffers(), expected);
    assert_eq!(r.zone.metrics().chunks_landed(), unique_chunks(&compiled));
    r.server.shutdown();
}

#[test]
fn pipelined_stream_matches_apply_with_window_bounded_memory() {
    let compiled = compiled_4_to_3();
    let r = rig(&compiled);
    let src = source_buffers(&compiled);
    const WINDOW: usize = 4;

    let mut peak = 0usize;
    let mut chunks_sent = 0u64;
    for (rank, data) in src.iter().enumerate() {
        let mut sender =
            BulkRedistSender::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, rank);
        sender
            .send_pipelined(r.channel.as_ref(), data, WINDOW)
            .unwrap();
        assert!(sender.is_complete());
        peak = peak.max(sender.peak_buffer_bytes());
        chunks_sent += sender.metrics().chunks_sent();
    }
    assert!(r.zone.is_complete());

    // Peak resident payload memory is the window, not the array: at most
    // WINDOW slabs in flight at once.
    assert!(
        peak <= WINDOW * (CHUNK_BYTES + cca::rpc::BULK_SLAB_HEADER_LEN),
        "pipelined sender held {peak} bytes, window bound is {}",
        WINDOW * (CHUNK_BYTES + cca::rpc::BULK_SLAB_HEADER_LEN)
    );
    // A healthy pipelined stream still sends every chunk exactly once.
    assert_eq!(chunks_sent, unique_chunks(&compiled));
    assert_eq!(r.zone.snapshot_buffers(), compiled.apply(&src).unwrap());
    r.server.shutdown();
}

#[test]
fn pipelined_stream_survives_mid_stream_drops_by_resuming() {
    let seed = fault_seed_from_env();
    let compiled = compiled_4_to_3();
    let r = rig(&compiled);
    let src = source_buffers(&compiled);
    r.server.set_fault_plan(seed, 300);

    let (mut attempts, mut failures, mut resumed) = (0u64, 0u64, 0u64);
    for (rank, data) in src.iter().enumerate() {
        let mut sender =
            BulkRedistSender::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, rank);
        while !sender.is_complete() {
            attempts += 1;
            assert!(attempts < 500, "pipelined stream must converge");
            if let Err(e) = sender.send_pipelined(r.channel.as_ref(), data, 4) {
                failures += 1;
                assert!(!e.to_string().is_empty());
            }
        }
        resumed += sender.metrics().resumed_chunks();
    }
    assert!(failures > 0, "300\u{2030} drops must produce failures");
    assert!(resumed > 0, "failed pipelined streams must resume");
    // A drop can abandon in-flight acks (one ack's watermark may cover
    // several chunks, and replays of landed chunks are idempotent), so
    // the sender-side exactly-once count doesn't hold here — what must
    // hold is that every unique chunk scattered at least once and the
    // data is bit-correct.
    assert!(r.zone.metrics().chunks_landed() >= unique_chunks(&compiled));
    assert_eq!(r.zone.snapshot_buffers(), compiled.apply(&src).unwrap());
    r.server.shutdown();
}

/// One full hostile pass: stream all four source ranks through seeded
/// mid-stream connection drops, retrying (bounded) until complete.
/// Returns `(attempts, failures, chunks_sent, resumed_chunks)`.
fn run_hostile_scenario(seed: u64, drop_permille: u64) -> (u64, u64, u64, u64) {
    let compiled = compiled_4_to_3();
    let r = rig(&compiled);
    let src = source_buffers(&compiled);
    r.server.set_fault_plan(seed, drop_permille);

    let (mut attempts, mut failures, mut chunks_sent, mut resumed) = (0u64, 0u64, 0u64, 0u64);
    for (rank, data) in src.iter().enumerate() {
        let mut sender =
            BulkRedistSender::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, rank);
        while !sender.is_complete() {
            attempts += 1;
            assert!(
                attempts < 500,
                "stream must converge under {drop_permille}\u{2030} drops"
            );
            if let Err(e) = sender.send(r.channel.as_ref(), data) {
                failures += 1;
                // Always a typed SidlError, never a hang or a panic; the
                // breaker test below feeds these to a CircuitBreaker.
                let text = e.to_string();
                assert!(!text.is_empty());
            }
        }
        chunks_sent += sender.metrics().chunks_sent();
        resumed += sender.metrics().resumed_chunks();
    }

    let expected = compiled.apply(&src).unwrap();
    assert_eq!(
        r.zone.snapshot_buffers(),
        expected,
        "every element lands exactly once despite {failures} drops"
    );
    r.server.shutdown();
    (attempts, failures, chunks_sent, resumed)
}

#[test]
fn mid_stream_drops_resume_from_the_watermark_without_resending() {
    let seed = fault_seed_from_env();
    let compiled = compiled_4_to_3();
    let (attempts, failures, chunks_sent, resumed) = run_hostile_scenario(seed, 300);

    assert!(failures > 0, "30% drops must produce at least one failure");
    assert!(attempts > compiled.src_ranks() as u64);
    assert!(resumed > 0, "failed streams must resume, not restart");
    // The watermark makes resume exact: drops happen before dispatch, so
    // a failed chunk was never landed and every chunk is sent-and-acked
    // exactly once across all attempts.
    assert_eq!(
        chunks_sent,
        unique_chunks(&compiled),
        "resume must never re-send an acked chunk"
    );
}

#[test]
fn fault_scenarios_are_deterministic_per_seed() {
    let seed = fault_seed_from_env();
    let first = run_hostile_scenario(seed, 300);
    let second = run_hostile_scenario(seed, 300);
    assert_eq!(
        first, second,
        "the hostile stream must be a pure function of CCA_FAULT_SEED={seed}"
    );
}

#[test]
fn total_drop_trips_the_breaker_and_half_open_probe_finishes_the_stream() {
    let seed = fault_seed_from_env();
    let compiled = compiled_4_to_3();
    let r = rig(&compiled);
    let src = source_buffers(&compiled);

    // Hostile phase: every slab is dropped after decode, so every send
    // attempt is a typed failure and nothing lands.
    r.server.set_fault_plan(seed, 1000);
    let clock = MockClock::new();
    let breaker = CircuitBreaker::new(
        BreakerPolicy::new(2, 10_000),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let mut sender =
        BulkRedistSender::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, 0);

    let mut denied = 0u64;
    while breaker.state() != BreakerState::Open {
        assert!(breaker.admit());
        let err = sender.send(r.channel.as_ref(), &src[0]).unwrap_err();
        assert!(!err.to_string().is_empty());
        breaker.record_failure();
        denied += 1;
        assert!(denied < 10, "threshold 2 must open the breaker quickly");
    }
    assert!(
        !breaker.admit(),
        "open breaker fails fast without touching the network"
    );
    assert_eq!(sender.metrics().chunks_sent(), 0, "nothing was acked");

    // Heal the network, pass the cooldown in simulated time: the next
    // admit is the half-open probe, and the stream finishes from the
    // watermark (zero here — nothing was ever acked).
    r.server.set_fault_plan(seed, 0);
    clock.advance_ns(20_000);
    assert!(
        breaker.admit(),
        "cooldown elapsed: half-open probe admitted"
    );
    sender.send(r.channel.as_ref(), &src[0]).unwrap();
    breaker.record_success();
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert!(sender.is_complete());

    // Rank 0's transfers are fully landed and correct.
    let expected = compiled.apply(&src).unwrap();
    r.zone.with_buffers(|bufs| {
        for t in compiled.sends_from(0) {
            for (_, d, len) in t.runs(0, t.count()) {
                assert_eq!(
                    bufs[t.dst_rank][d..d + len],
                    expected[t.dst_rank][d..d + len]
                );
            }
        }
    });
    r.server.shutdown();
}

#[test]
fn garbage_slabs_and_unknown_kinds_kill_only_their_own_connection() {
    let compiled = compiled_4_to_3();
    let r = rig(&compiled);
    let src = source_buffers(&compiled);
    let addr = r.server.local_addr().to_string();

    // A hostile peer sends a truncated slab as a Bulk frame: the sink
    // rejects it (typed), and the server hangs up on that peer only.
    let mut hostile = TcpStream::connect(&addr).unwrap();
    let framed = encode_frame(FrameKind::Bulk, 1, &[0xee; 8], DEFAULT_MAX_PAYLOAD).unwrap();
    hostile.write_all(&framed).unwrap();
    let mut sink = Vec::new();
    let n = hostile.read_to_end(&mut sink).unwrap();
    assert_eq!(n, 0, "garbage slab costs the hostile peer its connection");

    // Another peer speaks an unknown frame kind entirely.
    let mut unknown = TcpStream::connect(&addr).unwrap();
    let mut bad = encode_frame(FrameKind::Bulk, 2, b"x", DEFAULT_MAX_PAYLOAD).unwrap();
    bad[5] = 0x7f; // kind byte: names no known frame kind
    unknown.write_all(&bad).unwrap();
    let mut sink = Vec::new();
    assert_eq!(unknown.read_to_end(&mut sink).unwrap(), 0);

    // The healthy stream on its own connections is completely unaffected.
    for (rank, data) in src.iter().enumerate() {
        let mut sender =
            BulkRedistSender::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, rank);
        sender.send(r.channel.as_ref(), data).unwrap();
    }
    assert!(r.zone.is_complete());
    assert_eq!(r.zone.snapshot_buffers(), compiled.apply(&src).unwrap());
    r.server.shutdown();
}

#[test]
fn bulk_frames_without_an_installed_sink_are_protocol_violations() {
    // A server that never installed a bulk sink treats a Bulk frame like
    // any other protocol violation: the connection dies, the caller gets
    // a typed error, the server keeps serving.
    let orb = Orb::new();
    let server = MuxServer::bind_with(
        "127.0.0.1:0",
        orb as Arc<dyn Dispatcher>,
        MuxServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut peer = TcpStream::connect(&addr).unwrap();
    let framed = encode_frame(FrameKind::Bulk, 9, &[0u8; 40], DEFAULT_MAX_PAYLOAD).unwrap();
    peer.write_all(&framed).unwrap();
    let mut sink = Vec::new();
    assert_eq!(
        peer.read_to_end(&mut sink).unwrap(),
        0,
        "no sink installed: the Bulk frame costs the peer its connection"
    );
    server.shutdown();
}

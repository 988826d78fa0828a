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
//!   same seed produce identical attempt/chunk/failure counts;
//! * a receiver that stops reading costs the sender a typed error within
//!   the transport's deadline, never a hung call;
//! * a hostile slab costs its own connection and nothing else while a
//!   stream and a run of control-plane calls share the server with it.

use bytes::Bytes;
use cca::core::resilience::{
    fault_seed_from_env, BreakerPolicy, BreakerState, CircuitBreaker, Clock, MockClock,
    DEADLINE_EXCEPTION_TYPE,
};
use cca::data::{CompiledPlan, DistArrayDesc, Distribution, RedistPlan};
use cca::framework::{BulkLandingZone, BulkRedistSender};
use cca::rpc::frame::DEFAULT_MAX_PAYLOAD;
use cca::rpc::transport::Dispatcher;
use cca::rpc::{
    encode_frame, BulkChannel, BulkSink, ElemTag, FrameKind, MuxServer, MuxServerConfig,
    MuxTransport, ObjRef, Orb, SlabHeader, Transport, BULK_SLAB_HEADER_LEN,
    CONNECTION_EXCEPTION_TYPE,
};
use cca::sidl::{DynObject, DynValue, SidlError};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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

#[test]
fn a_receiver_that_never_reads_costs_a_typed_error_not_a_hang() {
    // The peer accepts and then never reads: once the socket buffers are
    // full, nothing the sender writes can move.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (held_tx, _held) = mpsc::channel();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            let _ = held_tx.send(stream);
        }
    });
    let transport = Arc::new(
        MuxTransport::new(addr.to_string())
            .with_connections(1)
            .with_io_timeout(Duration::from_millis(200)),
    );
    let channel = BulkChannel::new(transport);
    // The call runs on its own thread, so a regression shows as a red
    // test rather than a hung suite.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(channel.call(Bytes::from(vec![0u8; 32 << 20])));
    });
    let outcome = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a bulk call to a peer that never reads must end within 5 s");
    match outcome {
        Err(SidlError::UserException { exception_type, .. }) => assert!(
            exception_type == DEADLINE_EXCEPTION_TYPE
                || exception_type == CONNECTION_EXCEPTION_TYPE,
            "untyped failure: {exception_type}"
        ),
        other => panic!("expected a deadline or connection error, got {other:?}"),
    }
}

/// A control-plane servant that answers with its argument.
struct EchoServant;

impl DynObject for EchoServant {
    fn sidl_type(&self) -> &str {
        "test.Echo"
    }
    fn invoke(&self, method: &str, mut args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "echo" if args.len() == 1 => Ok(args.remove(0)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

/// Spins until `flag` is up; fails the test after 10 s.
fn wait_for(flag: &AtomicBool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_hostile_slab_costs_only_its_connection_beside_a_stream_and_calls() {
    let compiled = compiled_4_to_3();
    let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES);
    let orb = Orb::new();
    orb.register("echo", Arc::new(EchoServant));
    let server = MuxServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>).unwrap();
    server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
    let addr = server.local_addr().to_string();

    // C's slab: `chunk_offset + body` wraps past u64::MAX.
    let mut hostile = vec![0u8; BULK_SLAB_HEADER_LEN + 8];
    SlabHeader {
        generation: GENERATION,
        transfer: 0,
        tag: ElemTag::F64,
        chunk_offset: u64::MAX - 7,
        total_bytes: (compiled.transfers()[0].count() * 8) as u64,
    }
    .encode_into(&mut hostile);

    let stream_transport = Arc::new(MuxTransport::new(addr.clone()).with_connections(1));
    let stream_channel = BulkChannel::new(Arc::clone(&stream_transport));
    let call_transport = Arc::new(MuxTransport::new(addr.clone()).with_connections(1));
    let (a_started, b_started, c_hung_up) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );

    let (src, rounds) = std::thread::scope(|s| {
        // C: one hostile slab, once A and B are both live.
        s.spawn(|| {
            wait_for(&a_started, "A streams");
            wait_for(&b_started, "B calls");
            let mut peer = TcpStream::connect(&addr).unwrap();
            peer.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let framed = encode_frame(FrameKind::Bulk, 1, &hostile, DEFAULT_MAX_PAYLOAD).unwrap();
            peer.write_all(&framed).unwrap();
            let mut rest = Vec::new();
            assert_eq!(
                peer.read_to_end(&mut rest).unwrap(),
                0,
                "the hostile peer is hung up on, unanswered"
            );
            c_hung_up.store(true, Ordering::SeqCst);
        });
        // B: 200 echo calls through the ORB, half of them after C's hang-up.
        s.spawn(|| {
            let objref = ObjRef::new("echo", Arc::clone(&call_transport) as Arc<dyn Transport>);
            for i in 0..200i64 {
                if i == 100 {
                    wait_for(&c_hung_up, "C is hung up on");
                }
                let reply = objref.invoke("echo", vec![DynValue::Long(i)]).unwrap();
                assert!(matches!(reply, DynValue::Long(v) if v == i), "call {i}");
                b_started.store(true, Ordering::SeqCst);
            }
        });
        // A: whole 4 -> 3 redistributions, a fresh stamp each round, until
        // C has been hung up on.
        let mut round = 0u64;
        loop {
            let src: Vec<Vec<f64>> = source_buffers(&compiled)
                .into_iter()
                .map(|rank| rank.into_iter().map(|x| x + round as f64 * 1e6).collect())
                .collect();
            zone.reset();
            for (rank, data) in src.iter().enumerate() {
                let mut sender = BulkRedistSender::<f64>::new(
                    Arc::clone(&compiled),
                    GENERATION,
                    CHUNK_BYTES,
                    rank,
                );
                sender
                    .send_pipelined(stream_channel.as_ref(), data, 4)
                    .unwrap();
                a_started.store(true, Ordering::SeqCst);
            }
            round += 1;
            assert!(round < 100_000, "C was never hung up on");
            if c_hung_up.load(Ordering::SeqCst) {
                break (src, round);
            }
        }
    });

    assert!(rounds >= 1);
    assert!(zone.is_complete());
    assert_eq!(zone.snapshot_buffers(), compiled.apply(&src).unwrap());
    for (who, transport) in [("A", &stream_transport), ("B", &call_transport)] {
        assert_eq!(transport.metrics().dials(), 1, "{who} never re-dialed");
        assert_eq!(
            transport.metrics().connection_drops(),
            0,
            "{who} kept its connection"
        );
        assert_eq!(transport.live_connections(), 1, "{who} is still live");
    }
    server.shutdown();
}

/// Both halves of the bulk plane are counted exactly: every slab of a
/// healthy stream is written by the thread that submitted it and landed on
/// the server's event loop, and the dispatch pool runs none of them.
#[test]
fn every_slab_is_written_by_its_sender_and_landed_on_the_loop() {
    let compiled = compiled_4_to_3();
    let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES);
    let server = MuxServer::bind("127.0.0.1:0", Orb::new() as Arc<dyn Dispatcher>).unwrap();
    server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
    let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
    let channel = BulkChannel::new(Arc::clone(&transport));
    let src = source_buffers(&compiled);

    for (rank, data) in src.iter().enumerate() {
        let mut sender =
            BulkRedistSender::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, rank);
        sender.send_pipelined(channel.as_ref(), data, 4).unwrap();
    }
    assert!(zone.is_complete());
    assert_eq!(zone.snapshot_buffers(), compiled.apply(&src).unwrap());

    let unique = unique_chunks(&compiled);
    assert_eq!(transport.mux_metrics().bulk_caller_writes(), unique);
    assert_eq!(server.metrics().bulk_loop_lands(), unique);
    assert_eq!(server.dispatched(), 0, "the dispatch pool ran no bulk job");
    server.shutdown();
}

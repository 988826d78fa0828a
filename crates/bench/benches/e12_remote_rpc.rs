//! E12 — remote invocation over real sockets.
//!
//! The socket transport makes a port remote without changing its shape,
//! and a loopback round trip stays interactive. A network path is measured
//! per call and summarised by block medians — typical latency, not the
//! L1-hot floor the in-process experiments use. Raw and mux blocks
//! alternate, so their ratio is formed between neighbours in time:
//!
//! * `raw_roundtrip_ns` — the floor under any socket transport: the echo
//!   call's request bytes written as one frame to a blocking socket on
//!   127.0.0.1 and read back from a std thread that answers each frame
//!   with the same bytes (frame → socket → frame, no ORB). Both ends
//!   decode with `FrameDecoder`, as the mux client and server do, so the
//!   ratio below prices the mux's hand-offs, not a second decoder;
//! * `mux_roundtrip_ns` — one `ObjRef::invoke` through a one-connection
//!   `MuxTransport` into a `MuxServer` (marshal → frame → socket →
//!   dispatch → frame → demarshal). Acceptance: ≤ 2× the committed
//!   artifact's, on the host that artifact names;
//! * `mux_over_raw_ratio` — what the mux stack's thread hand-offs and the
//!   ORB cost over the bare framed round trip. Acceptance: ratio ≤
//!   [`MUX_OVER_RAW_GATE`];
//! * `reply_reads_per_call` — socket reads of the reply stream per mux
//!   call ([`cca_obs::MuxMetrics::reply_reads`]): a reply decoded from
//!   one read costs one. Acceptance: ≤ 1.5;
//! * `loopback_orb_ns` — the E3 in-process ORB configuration re-measured
//!   in this process: the marshal/dispatch cost floor without sockets, so
//!   the delta to the round trip is the price of the real network stack;
//! * `frame_encode_ns` — `encode_frame` of a typical request payload, the
//!   codec's own contribution to the round trip.

use cca_bench::fixtures::Echo;
use cca_bench::{Harness, Report, Rounds, Stats};
use cca_rpc::frame::{encode_frame, Frame, FrameDecoder, FrameKind, DEFAULT_MAX_PAYLOAD};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{encode_request, MuxServer, MuxTransport, ObjRef, Orb, Request, Transport};
use cca_sidl::DynValue;
use std::hint::black_box;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Twice the p10 of `mux_over_raw_ratio` measured in full mode on a
/// 2-vCPU Intel Xeon guest (2.13–2.29 over three runs of 20,000 calls,
/// median 2.22; 1.95–2.24 in fast mode), so a mux call that doubles
/// against the bare framed socket turns CI red.
const MUX_OVER_RAW_GATE: f64 = 4.4;

/// Median latency of `calls` consecutive invocations of `call`, ns.
fn block_median(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let latencies: Vec<f64> = (0..calls)
        .map(|i| {
            let start = Instant::now();
            call(i);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    Stats::from_samples(&latencies).median
}

/// The next frame `dec` decodes from `stream`; `None` once the other end
/// hangs up or sends bytes that are not a frame.
fn recv_frame(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Option<Frame> {
    loop {
        if let Some(frame) = dec.next_frame().ok()? {
            return Some(frame);
        }
        // The mux client's read size.
        if dec.fill_from(stream, 4 << 10).ok()? == 0 {
            return None;
        }
    }
}

/// A std thread on 127.0.0.1 that answers each frame with a frame of the
/// same bytes, and a blocking client socket connected to it. The thread
/// exits when the client hangs up.
fn raw_echo_peer() -> (TcpStream, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept the one client");
        let _ = stream.set_nodelay(true);
        let mut dec = FrameDecoder::new();
        while let Some(frame) = recv_frame(&mut stream, &mut dec) {
            let id = frame.request_id;
            let echoed = encode_frame(FrameKind::Reply, id, &frame.payload, DEFAULT_MAX_PAYLOAD)
                .expect("an echo is no larger than its request");
            if stream.write_all(&echoed).is_err() {
                break;
            }
        }
    });
    let client = TcpStream::connect(addr).expect("dial the echo peer");
    client.set_nodelay(true).expect("disable Nagle");
    (client, peer)
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e12_remote_rpc", &h);
    let blocks = 20;
    let calls_per_block = h.pick(100, 1_000);

    // --- the bare framed socket and the mux stack -------------------------
    let (mut raw, raw_peer) = raw_echo_peer();
    let request = encode_request(&Request {
        request_id: 1,
        object_key: "echo".into(),
        operation: "echo".into(),
        args: vec![DynValue::Double(1.0)],
    })
    .expect("encode the echo request");
    let mut raw_replies = FrameDecoder::new();
    let mut raw_call = |i: usize| {
        let framed = encode_frame(FrameKind::Request, i as u64, &request, DEFAULT_MAX_PAYLOAD);
        raw.write_all(&framed.unwrap()).unwrap();
        black_box(recv_frame(&mut raw, &mut raw_replies).unwrap());
    };

    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let mux_server = MuxServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
        .expect("bind ephemeral port");
    let mux_transport =
        Arc::new(MuxTransport::new(mux_server.local_addr().to_string()).with_connections(1));
    let mux = ObjRef::new("echo", Arc::clone(&mux_transport) as Arc<dyn Transport>);
    let mut mux_call = |i: usize| {
        black_box(
            mux.invoke("echo", vec![DynValue::Double(i as f64)])
                .unwrap(),
        );
    };

    // Warm-up dials, fills caches and settles the scheduler.
    block_median(200, &mut raw_call);
    block_median(200, &mut mux_call);
    let reads_before = mux_transport.mux_metrics().reply_reads();
    let mut samples = vec![Vec::new(), Vec::new()];
    for _ in 0..blocks {
        samples[0].push(block_median(calls_per_block, &mut raw_call));
        samples[1].push(block_median(calls_per_block, &mut mux_call));
    }
    let reply_reads = mux_transport.mux_metrics().reply_reads() - reads_before;
    let rounds = Rounds(samples);
    mux_server.shutdown();
    raw.shutdown(Shutdown::Both).expect("hang up the echo peer");
    raw_peer.join().expect("echo peer exits on hangup");

    report.count("calls", (blocks * calls_per_block) as f64);
    report.metric("raw_roundtrip_ns", rounds.stats(0));
    report
        .metric("mux_roundtrip_ns", rounds.stats(1))
        .at_most_x_committed(
            2.0,
            "a loopback mux round trip that doubles against the committed one is a regression",
        );
    report
        .metric("mux_over_raw_ratio", rounds.derive(|s| s[1] / s[0]))
        .at_most(
            MUX_OVER_RAW_GATE,
            "an unloaded mux call must stay within twice its measured multiple of a bare framed round trip",
        );
    report
        .count(
            "reply_reads_per_call",
            reply_reads as f64 / (blocks * calls_per_block) as f64,
        )
        .at_most(
            1.5,
            "a reply the socket delivers whole is decoded from one read, not read piecewise",
        );

    // --- the in-process floor: same ORB, no sockets ----------------------
    let local = ObjRef::loopback("echo", orb);
    report.metric(
        "loopback_orb_ns",
        h.time(|| local.invoke("echo", vec![DynValue::Double(1.0)]).unwrap()),
    );

    // --- the codec's own contribution ------------------------------------
    let payload: Vec<u8> = (0..128u8).collect();
    report.metric(
        "frame_encode_ns",
        h.time(|| encode_frame(FrameKind::Request, 7, &payload, DEFAULT_MAX_PAYLOAD).unwrap()),
    );
    report.finish();
}

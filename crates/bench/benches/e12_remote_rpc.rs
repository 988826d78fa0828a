//! E12 — remote invocation over real sockets, recorded to `BENCH_rpc.json`.
//!
//! PR-5's tentpole claim: the TCP transport makes a port remote without
//! changing its shape, and a loopback round trip stays interactive. The
//! acceptance gate is on the **median** single-call latency — a network
//! path is gated on typical latency, not the L1-hot minimum the in-process
//! experiments use:
//!
//! * `roundtrip_median_ns` — one `ObjRef::invoke` through a pooled
//!   `TcpTransport` into a `TcpServer` on 127.0.0.1 (marshal → frame →
//!   socket → dispatch → frame → demarshal). Acceptance: < 100 µs;
//! * `roundtrip_p90_ns` / `roundtrip_min_ns` — spread of the same samples;
//! * `mux_roundtrip_median_ns` — the same call through a one-connection
//!   `MuxTransport` into a `MuxServer`, and `mux_over_pooled_ratio`, its
//!   ratio to `roundtrip_median_ns` from the same run: what the mux
//!   stack's thread hand-offs cost over a bare blocking round trip.
//!   Acceptance: ratio ≤ [`MUX_OVER_POOLED_GATE`];
//! * `loopback_orb_ns` — the E3 in-process ORB configuration re-measured
//!   in this process: the marshal/dispatch cost floor without sockets, so
//!   the delta to the median is the price of the real network stack;
//! * `frame_encode_ns` — `encode_frame` of a typical request payload, the
//!   codec's own contribution to the round trip.

use cca_rpc::frame::{encode_frame, FrameKind, DEFAULT_MAX_PAYLOAD};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxTransport, ObjRef, Orb, TcpServer, TcpTransport, Transport};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Twice the `mux_over_pooled_ratio` measured when `MuxServer`'s event
/// loop went readiness-driven (2-vCPU box: 2.6–2.7 over 20,000 calls,
/// 2.1 in fast mode; the timer-driven loop before it read 6.5), so a mux
/// call that doubles against the pooled one turns CI red.
const MUX_OVER_POOLED_GATE: f64 = 5.4;

struct Echo;

impl DynObject for Echo {
    fn sidl_type(&self) -> &str {
        "bench.Echo"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "echo" => Ok(args.into_iter().next().unwrap_or(DynValue::Double(0.0))),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

/// Minimum ns/iter over `samples` batches, each auto-calibrated to roughly
/// `target` wall-clock (the in-process quantities use the hot floor, as in
/// E10/E11).
fn measure_min<R>(samples: usize, target: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 28 {
            break;
        }
        iters = if elapsed.is_zero() {
            iters * 16
        } else {
            let scale = target.as_secs_f64() / elapsed.as_secs_f64();
            ((iters as f64 * scale.clamp(1.2, 16.0)) as u64).max(iters + 1)
        };
    }
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-call latencies of `calls` echo invocations, ascending, after a
/// warm-up that dials, fills caches and settles the scheduler.
fn sorted_roundtrips(remote: &ObjRef, calls: usize) -> Vec<u64> {
    for _ in 0..200 {
        remote.invoke("echo", vec![DynValue::Double(1.0)]).unwrap();
    }
    let mut roundtrips: Vec<u64> = (0..calls)
        .map(|i| {
            let start = Instant::now();
            black_box(
                remote
                    .invoke("echo", vec![DynValue::Double(i as f64)])
                    .unwrap(),
            );
            start.elapsed().as_nanos() as u64
        })
        .collect();
    roundtrips.sort_unstable();
    roundtrips
}

/// Atomic publication: write next to the target, then rename. A crashed or
/// ctrl-C'd bench run never leaves a truncated JSON for CI to trip over.
fn write_atomic(path: &str, contents: &str) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).unwrap_or_else(|e| panic!("write {tmp}: {e}"));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename {tmp} -> {path}: {e}"));
}

fn main() {
    let fast = std::env::var_os("CCA_BENCH_FAST").is_some();
    let calls = if fast { 2_000 } else { 20_000 };
    let samples = if fast { 7 } else { 15 };
    let target = Duration::from_millis(if fast { 2 } else { 8 });

    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);

    // --- the remote configuration: server + pooled client ---------------
    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
        .expect("bind ephemeral port");
    let transport = Arc::new(TcpTransport::new(server.local_addr().to_string()).with_pool_size(1));
    let remote = ObjRef::new("echo", Arc::clone(&transport) as Arc<dyn Transport>);

    let roundtrips = sorted_roundtrips(&remote, calls);
    let median = roundtrips[roundtrips.len() / 2] as f64;
    let p90 = roundtrips[roundtrips.len() * 9 / 10] as f64;
    let min = roundtrips[0] as f64;

    // --- the same call over the multiplexed stack ------------------------
    let mux_server = MuxServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
        .expect("bind ephemeral port");
    let mux_transport =
        Arc::new(MuxTransport::new(mux_server.local_addr().to_string()).with_connections(1));
    let mux_remote = ObjRef::new("echo", mux_transport as Arc<dyn Transport>);
    let mux_roundtrips = sorted_roundtrips(&mux_remote, calls);
    let mux_median = mux_roundtrips[mux_roundtrips.len() / 2] as f64;
    let mux_over_pooled = mux_median / median;
    mux_server.shutdown();

    // --- the in-process floor: same ORB, no sockets ----------------------
    let local = ObjRef::loopback("echo", orb);
    let loopback = measure_min(samples, target, || {
        local.invoke("echo", vec![DynValue::Double(1.0)]).unwrap()
    });

    // --- the codec's own contribution ------------------------------------
    let payload: Vec<u8> = (0..128u8).collect();
    let frame_encode = measure_min(samples, target, || {
        encode_frame(FrameKind::Request, 7, &payload, DEFAULT_MAX_PAYLOAD).unwrap()
    });

    server.shutdown();

    // --- report ----------------------------------------------------------
    println!("e12_remote_rpc/roundtrip_median   {median:>12.2} ns/call  ({calls} calls)");
    println!("e12_remote_rpc/roundtrip_p90      {p90:>12.2} ns/call");
    println!("e12_remote_rpc/roundtrip_min      {min:>12.2} ns/call");
    println!("e12_remote_rpc/mux_roundtrip_median {mux_median:>10.2} ns/call");
    println!("e12_remote_rpc/mux_over_pooled    {mux_over_pooled:>12.3} x");
    println!("e12_remote_rpc/loopback_orb       {loopback:>12.2} ns/iter");
    println!("e12_remote_rpc/frame_encode       {frame_encode:>12.2} ns/iter");

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"cca-bench/1\",\n",
            "  \"experiment\": \"e12_remote_rpc\",\n",
            "  \"calls\": {},\n",
            "  \"roundtrip_median_ns\": {:.3},\n",
            "  \"roundtrip_p90_ns\": {:.3},\n",
            "  \"roundtrip_min_ns\": {:.3},\n",
            "  \"mux_roundtrip_median_ns\": {:.3},\n",
            "  \"mux_over_pooled_ratio\": {:.3},\n",
            "  \"loopback_orb_ns\": {:.3},\n",
            "  \"frame_encode_ns\": {:.3}\n",
            "}}\n"
        ),
        calls, median, p90, min, mux_median, mux_over_pooled, loopback, frame_encode
    );
    let out = std::env::var("BENCH_RPC_OUT").unwrap_or_else(|_| "BENCH_rpc.json".to_string());
    write_atomic(&out, &json);
    println!("wrote {out}");

    // --- acceptance gate -------------------------------------------------
    assert!(
        median < 100_000.0,
        "acceptance: the loopback TCP round-trip median must stay under \
         100 us (measured {median:.0} ns)"
    );
    assert!(
        mux_over_pooled <= MUX_OVER_POOLED_GATE,
        "acceptance: an unloaded mux call must stay within \
         {MUX_OVER_POOLED_GATE}x the pooled one (measured {mux_median:.0} ns \
         vs {median:.0} ns = {mux_over_pooled:.2}x)"
    );
}

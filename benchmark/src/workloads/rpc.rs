//! `rpc_unloaded` and `rpc_pipelined`: an echo servant behind a
//! `MuxServer`, driven for latency (one call in flight, one connection)
//! and for throughput (waves of 256 in flight over two connections).

use super::probes::{self, TracedServant};
use crate::gen::{self, Rng};
use crate::harness::{probe_ns, Ctx};
use crate::stats;
use crate::trace;
use cca::data::NdArray;
use cca::rpc::transport::Dispatcher;
use cca::rpc::{
    encode_reply, encode_request, MuxServer, MuxTransport, ObjRef, Orb, Reply, Request, Transport,
};
use cca::sidl::{DynObject, DynValue, SidlError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Echo;

impl DynObject for Echo {
    fn sidl_type(&self) -> &str {
        "bench.Echo"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "echo" => Ok(args.into_iter().next().unwrap_or(DynValue::Void)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

const KEY: &str = "echo";
/// Think time before each unloaded call: uniform in 200–1700 µs. The span
/// is six to seven of the server's poll intervals (200 µs plus the timer's
/// wake-up), so arrivals spread evenly over the interval whatever its
/// exact length; a span of one or two intervals covers some phases twice
/// and others once, and the run median then moves with the interval.
const THINK_MIN: Duration = Duration::from_micros(200);
const THINK_SPAN: Duration = Duration::from_micros(1500);
/// Yield-loop threads beside the unloaded caller: one per vCPU of the
/// sizing box, whatever `nproc` says, like the rest of the load sizing.
const KEEP_AWAKE_THREADS: usize = 2;
/// Unloaded calls per block (the unit a quiet stretch is picked by).
const BLOCK: usize = 100;
/// Calls per pipelined wave: all submitted before any is waited for.
const WAVE: usize = 256;
/// Elements of the array payload a quarter of the pipelined calls carry.
const ARRAY_LEN: usize = 1024;

struct Served {
    orb: Arc<Orb>,
    server: Arc<MuxServer>,
    transport: Arc<MuxTransport>,
    objref: Arc<ObjRef>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

fn serve(connections: usize) -> Result<Served, String> {
    let orb = Orb::new();
    let servant: Arc<dyn DynObject> = Arc::new(Echo);
    orb.register(
        KEY,
        if trace::enabled() {
            TracedServant::wrap("bench.servant", servant)
        } else {
            servant
        },
    );
    let server = {
        let _s = trace::span("rpc.mux.bind");
        MuxServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
            .map_err(|e| format!("bind mux server: {e}"))?
    };
    let transport =
        Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(connections));
    let objref = ObjRef::new(KEY, Arc::clone(&transport) as Arc<dyn Transport>);
    Ok(Served {
        orb,
        server,
        transport,
        objref,
    })
}

/// Keeps the box's vCPUs out of `HLT` while `rpc_unloaded` runs.
///
/// A paced call is handed from thread to thread six times, each to a
/// thread asleep until its turn. On an idle virtual machine every such
/// wake-up starts with the host putting a halted vCPU back on a core, and
/// what that costs is the host's affair: its other tenants, its idle
/// states, KVM's halt-polling window (about as long as the server's
/// 200 µs park). With a caller that slept through its think time, ten
/// runs read a call p50 of 249–313 µs while ten runs with these threads,
/// alternating with them, read 191–209 µs; the acceptance check saw the
/// sleeping version's quartiles 22 % apart. These threads do nothing but
/// `sched_yield`, so a vCPU always has something runnable and a thread
/// the call wakes takes the core at the next yield: a hand-off costs a
/// guest context switch, which is the program's to win or lose. They
/// issue no call and touch no socket.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..KEEP_AWAKE_THREADS)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One echo call; `Err` carries why it failed its oracle.
fn echo_call(objref: &ObjRef, x: f64) -> Result<(), String> {
    let reply = {
        let _s = trace::span_adopting("rpc.mux.call");
        objref.invoke("echo", vec![DynValue::Double(x)])
    };
    check_echo(x, reply)
}

/// The `rpc_unloaded` oracle: the reply is the argument, bit for bit.
fn check_echo(sent: f64, reply: Result<DynValue, SidlError>) -> Result<(), String> {
    match reply {
        Ok(DynValue::Double(y)) if y.to_bits() == sent.to_bits() => Ok(()),
        Ok(other) => Err(format!("echo({sent}) returned {other:?}")),
        Err(e) => Err(format!("echo({sent}) failed: {e}")),
    }
}

#[derive(Default)]
struct Calls {
    /// Per-call times, µs: the open unit's, and every closed unit's when
    /// the pass keeps them.
    times_us: Vec<f64>,
    /// Seconds per unit of `unit_calls` calls: a block of [`BLOCK`] calls
    /// (time inside the calls, think time excluded) when unloaded, one
    /// wave when pipelined.
    unit_s: Vec<f64>,
    /// Median call time of each unit, µs.
    unit_p50_us: Vec<f64>,
    unit_calls: usize,
    failures: Vec<String>,
}

impl Calls {
    /// Calls per second in the run's quiet units.
    fn per_s(&self) -> f64 {
        self.unit_calls as f64 / stats::low_decile(&self.unit_s)
    }

    /// Closes the unit whose calls are `times_us[first..]` and which took
    /// `seconds`. Only the traced pipelined pass reads single calls
    /// afterwards; kept through an untraced one they are over a million
    /// samples in a Vec that doubles as it grows — nearly half of
    /// `peak_rss_mb`, and more of it the longer the run.
    fn close_unit(&mut self, first: usize, seconds: f64, keep_calls: bool) {
        self.unit_s.push(seconds);
        if first < self.times_us.len() {
            self.unit_p50_us
                .push(stats::median_of(&self.times_us[first..]));
        }
        if !keep_calls {
            self.times_us.truncate(first);
        }
    }
}

/// Every call of every unit was attempted (a failed call records no
/// latency, so `times_us` would undercount).
fn account(ctx: &mut Ctx, calls: &Calls) {
    ctx.attempt((calls.unit_s.len() * calls.unit_calls) as u64);
    for why in &calls.failures {
        ctx.fail(|| why.clone());
    }
}

pub fn unloaded(ctx: &mut Ctx) {
    let warmup = ctx.size(100, 20);
    let seed = ctx.seed();
    // Joined on the way out, before the run counts its leftover threads.
    let _awake = KeepAwake::start();
    let build = || {
        let served = serve(1)?;
        let _s = trace::span("rpc.mux.warmup");
        let mut rng = Rng::stream(seed, "rpc.unloaded_warmup");
        for _ in 0..warmup {
            paced_call(&served.objref, &mut rng).1?;
        }
        Ok::<_, String>(served)
    };
    ctx.run(15, build, |ctx, served| unloaded_calls(ctx, seed, served));
}

/// Thinks, then makes one echo call: `(seconds in the call, outcome)`.
/// Thinking yields instead of sleeping, for the reason [`KeepAwake`] gives.
fn paced_call(objref: &ObjRef, rng: &mut Rng) -> (f64, Result<(), String>) {
    let x = rng.unit();
    {
        let _s = trace::span("bench.think");
        let think = THINK_MIN + THINK_SPAN.mul_f64(rng.unit());
        let started = Instant::now();
        while started.elapsed() < think {
            std::thread::yield_now();
        }
    }
    let t = Instant::now();
    let outcome = echo_call(objref, x);
    (t.elapsed().as_secs_f64(), outcome)
}

fn unloaded_calls(ctx: &mut Ctx, seed: u64, served: Served) {
    // Seeded arguments: a reply routed to the wrong caller, or a stale
    // one, cannot equal the value just sent. Seeded think time between
    // calls: unloaded means the server has gone idle when a call arrives.
    // Back to back, a closed loop phase-locks with the server's 200 µs
    // poll timer and the median flips between ~30 µs (every call lands
    // mid-pass) and ~400 µs (every call waits out a park) from run to run.
    let drive = |budget: Duration| {
        let mut rng = Rng::stream(seed, "rpc.unloaded_args");
        let mut calls = Calls {
            unit_calls: BLOCK,
            ..Calls::default()
        };
        let started = Instant::now();
        while started.elapsed() < budget || calls.unit_s.is_empty() {
            let mut in_calls = 0.0;
            for _ in 0..BLOCK {
                let (took, outcome) = paced_call(&served.objref, &mut rng);
                calls.times_us.push(took * 1e6);
                in_calls += took;
                calls.failures.extend(outcome.err());
            }
            calls.close_unit(0, in_calls, false);
        }
        calls
    };

    if !ctx.traced() {
        let budget = ctx.budget(1.0);
        let calls = ctx.pass("bench.run", || drive(budget)).result;
        account(ctx, &calls);
        ctx.put_from("ops_per_s", calls.per_s(), &calls.unit_s, "1/s");
        ctx.put_quiet("op_p50_us", &calls.unit_p50_us, "us");
        return;
    }

    let budget = ctx.budget(0.4);
    // Tracing is off outside `ctx.pass`: this is the untraced baseline.
    let untraced = drive(budget);
    account(ctx, &untraced);
    let traced = ctx.pass("bench.run", || drive(budget));
    account(ctx, &traced.result);
    ctx.put_layer_table(&traced.spans, "bench.run");
    ctx.put_trace_overhead(untraced.per_s(), traced.result.per_s());

    let call_us: Vec<f64> = trace::durations(&traced.spans, "rpc.mux.call")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    ctx.put_samples("rpc.mux.call_p50_us", &call_us, "us");
    ctx.put_tail("rpc.mux.call_p99_us", &call_us, "us");
    let servant_us: Vec<f64> = trace::durations(&traced.spans, "bench.servant")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    ctx.put_samples("rpc.servant_us", &servant_us, "us");

    let codec_us = probes::wire_codec(
        ctx,
        &[probes::echo_messages(KEY, "echo", DynValue::Double(0.5))],
    );
    let transit = ctx.metric("rpc.mux.call_p50_us").unwrap_or(0.0)
        - ctx.metric("rpc.servant_us").unwrap_or(0.0)
        - codec_us;
    ctx.put("rpc.mux.transit_us", transit, "us");
    let (out_len, in_len) = counted_bytes(ctx, &served);
    probes::frame_encode(ctx, out_len);

    // Floors: the same call with no socket, and the socket with no call.
    let local = ObjRef::loopback(KEY, Arc::clone(&served.orb));
    let loopback = probe_ns(31, 200, || {
        local.invoke("echo", vec![DynValue::Double(0.5)])
    });
    ctx.put_samples("rpc.orb.loopback_ns", &loopback, "ns");
    probes::raw_socket_rtt(ctx, out_len, in_len, ctx.size(2000, 200));
    put_mux_counts(ctx, &served);
}

/// `rpc.bytes_{out,in}_per_call` as the program's own transport counters
/// report them, from a short counted pass (the counters are off for every
/// timed pass). Returns the two values.
fn counted_bytes(ctx: &mut Ctx, served: &Served) -> (usize, usize) {
    let counted = 100;
    let before = served.objref.metrics().snapshot();
    cca::obs::set_counters(true);
    for i in 0..counted {
        ctx.attempt(1);
        if let Err(why) = echo_call(&served.objref, i as f64) {
            ctx.fail(|| why);
        }
    }
    cca::obs::set_counters(false);
    let after = served.objref.metrics().snapshot();
    let trips = after.round_trips - before.round_trips;
    ctx.check(trips == counted, || {
        format!("transport counted {trips} round trips for {counted} calls")
    });
    let out = (after.bytes_out - before.bytes_out) as f64 / counted as f64;
    let inn = (after.bytes_in - before.bytes_in) as f64 / counted as f64;
    ctx.put("rpc.bytes_out_per_call", out, "B");
    ctx.put("rpc.bytes_in_per_call", inn, "B");
    (out as usize, inn as usize)
}

fn put_mux_counts(ctx: &mut Ctx, served: &Served) {
    ctx.put(
        "rpc.mux.dials",
        served.transport.metrics().dials() as f64,
        "count",
    );
    ctx.put(
        "rpc.mux.peak_in_flight",
        served.transport.mux_metrics().peak_in_flight() as f64,
        "count",
    );
}

pub fn pipelined(ctx: &mut Ctx) {
    let seed = ctx.seed();
    // The seeded wave: which slots carry the 8 KiB array, and every value.
    let mut rng = Rng::stream(seed, "rpc.pipelined_args");
    let args: Vec<DynValue> = gen::size_sequence(seed, WAVE)
        .into_iter()
        .map(|array| {
            if array {
                let values = (0..ARRAY_LEN).map(|_| rng.unit()).collect();
                DynValue::DoubleArray(NdArray::from_vec(&[ARRAY_LEN], values).expect("1-d shape"))
            } else {
                DynValue::Double(rng.unit())
            }
        })
        .collect();
    // Each request with the reply the echo must earn, byte for byte.
    let messages: Vec<(Request, Reply)> = args
        .iter()
        .enumerate()
        .map(|(i, arg)| {
            (
                Request {
                    request_id: i as u64,
                    object_key: KEY.to_string(),
                    operation: "echo".to_string(),
                    args: vec![arg.clone()],
                },
                Reply {
                    request_id: i as u64,
                    result: Ok(arg.clone()),
                },
            )
        })
        .collect();
    let encoded: Vec<_> = messages
        .iter()
        .map(|(request, reply)| {
            (
                encode_request(request).expect("wave request encodes"),
                encode_reply(reply).expect("wave reply encodes"),
            )
        })
        .collect();

    let wave = |transport: &MuxTransport, latencies_us: &mut Vec<f64>| -> Vec<String> {
        let mut failures = Vec::new();
        let pending: Vec<_> = {
            let _s = trace::span("rpc.mux.submit_wave");
            encoded
                .iter()
                .map(|(request, _)| transport.submit(request.clone()))
                .collect()
        };
        let _s = trace::span("rpc.mux.wait_wave");
        for (i, (p, (_, expected))) in pending.into_iter().zip(&encoded).enumerate() {
            match p.and_then(|p| p.wait_timed()) {
                Ok((reply, latency)) => {
                    latencies_us.push(latency.as_secs_f64() * 1e6);
                    if !reply_matches(&reply, expected) {
                        failures.push(format!("wave slot {i}: reply is not the argument"));
                    }
                }
                Err(e) => failures.push(format!("wave slot {i}: {e}")),
            }
        }
        failures
    };

    let warm_waves = ctx.size(2, 1);
    let build = || {
        let served = serve(2)?;
        let _s = trace::span("rpc.mux.warmup");
        for _ in 0..warm_waves {
            if let Some(why) = wave(&served.transport, &mut Vec::new()).into_iter().next() {
                return Err(why);
            }
        }
        Ok::<_, String>(served)
    };
    let mean_request = encoded.iter().map(|(r, _)| r.len()).sum::<usize>() / WAVE;
    ctx.run(15, build, |ctx, served| {
        pipelined_waves(ctx, &messages, mean_request, served, &wave)
    });
}

type Wave<'a> = &'a dyn Fn(&MuxTransport, &mut Vec<f64>) -> Vec<String>;

fn pipelined_waves(
    ctx: &mut Ctx,
    messages: &[(Request, Reply)],
    mean_request: usize,
    served: Served,
    wave: Wave<'_>,
) {
    let drive = |budget: Duration, keep_calls: bool| {
        let mut calls = Calls {
            unit_calls: WAVE,
            ..Calls::default()
        };
        let started = Instant::now();
        while started.elapsed() < budget {
            let t = Instant::now();
            let first = calls.times_us.len();
            let failures = wave(&served.transport, &mut calls.times_us);
            calls.close_unit(first, t.elapsed().as_secs_f64(), keep_calls);
            calls.failures.extend(failures);
        }
        calls
    };
    if !ctx.traced() {
        let budget = ctx.budget(1.0);
        let calls = ctx.pass("bench.run", || drive(budget, false)).result;
        account(ctx, &calls);
        ctx.put_from("ops_per_s", calls.per_s(), &calls.unit_s, "1/s");
        ctx.put_quiet("op_p50_us", &calls.unit_p50_us, "us");
        return;
    }

    let budget = ctx.budget(0.4);
    // Tracing is off outside `ctx.pass`: this is the untraced baseline.
    let untraced = drive(budget, false);
    account(ctx, &untraced);
    let traced = ctx.pass("bench.run", || drive(budget, true));
    account(ctx, &traced.result);
    ctx.put_layer_table(&traced.spans, "bench.run");
    ctx.put_trace_overhead(untraced.per_s(), traced.result.per_s());

    // Under load the per-call number is submit-to-completion latency as
    // the transport stamps it at delivery (`wait_timed`).
    ctx.put_samples("rpc.mux.call_p50_us", &traced.result.times_us, "us");
    ctx.put_tail("rpc.mux.call_p99_us", &traced.result.times_us, "us");
    probes::wire_codec(ctx, messages);
    probes::frame_encode(ctx, mean_request);
    put_mux_counts(ctx, &served);
}

/// The `rpc_pipelined` oracle: reply bytes equal the expected encoding.
fn reply_matches(reply: &[u8], expected: &[u8]) -> bool {
    reply == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_oracle_rejects_anything_but_the_argument() {
        assert_eq!(check_echo(0.5, Ok(DynValue::Double(0.5))), Ok(()));
        assert!(check_echo(0.5, Ok(DynValue::Double(0.5000000000000001))).is_err());
        assert!(check_echo(0.0, Ok(DynValue::Double(-0.0))).is_err());
        assert!(check_echo(0.5, Ok(DynValue::Long(0))).is_err());
        assert!(check_echo(0.5, Err(SidlError::invoke("boom"))).is_err());
    }

    #[test]
    fn pipelined_oracle_rejects_a_reply_with_one_byte_changed() {
        let reply = encode_reply(&Reply {
            request_id: 3,
            result: Ok(DynValue::Double(0.25)),
        })
        .unwrap();
        assert!(reply_matches(&reply, &reply));
        let mut corrupted = reply.to_vec();
        *corrupted.last_mut().unwrap() ^= 1;
        assert!(!reply_matches(&corrupted, &reply));
        assert!(!reply_matches(&reply[..reply.len() - 1], &reply));
        // Another call's reply (different id) is not this call's reply.
        let other = encode_reply(&Reply {
            request_id: 4,
            result: Ok(DynValue::Double(0.25)),
        })
        .unwrap();
        assert!(!reply_matches(&other, &reply));
    }

    #[test]
    fn a_served_echo_answers_over_the_wire() {
        let served = serve(1).expect("serve");
        assert_eq!(echo_call(&served.objref, 0.125), Ok(()));
        assert_eq!(served.transport.metrics().dials(), 1);
    }
}

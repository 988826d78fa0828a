//! Standalone layer probes shared by several workloads: each prices one
//! layer in isolation, in the same process and run as the workload whose
//! end-to-end number it bounds. Traced runs only.

use crate::harness::{probe_ns, Ctx};
use crate::stats;
use crate::trace;
use cca::rpc::frame::{encode_frame, FrameKind, DEFAULT_MAX_PAYLOAD, FRAME_HEADER_LEN};
use cca::rpc::{decode_reply, decode_request, encode_reply, encode_request, Reply, Request};
use cca::sidl::{DynObject, DynValue, SidlError};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// A `DynObject` decorator exported in a servant's place so the servant's
/// share of a remote call is a span of its own.
pub struct TracedServant {
    name: &'static str,
    inner: Arc<dyn DynObject>,
}

impl TracedServant {
    pub fn wrap(name: &'static str, inner: Arc<dyn DynObject>) -> Arc<dyn DynObject> {
        Arc::new(TracedServant { name, inner })
    }
}

impl DynObject for TracedServant {
    fn sidl_type(&self) -> &str {
        self.inner.sidl_type()
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        let _s = trace::span(self.name);
        self.inner.invoke(method, args)
    }
}

/// A request carrying `arg` and the reply that echoes it.
pub fn echo_messages(key: &str, operation: &str, arg: DynValue) -> (Request, Reply) {
    (
        Request {
            request_id: 1,
            object_key: key.to_string(),
            operation: operation.to_string(),
            args: vec![arg.clone()],
        },
        Reply {
            request_id: 1,
            result: Ok(arg),
        },
    )
}

/// `rpc.wire.{encode,decode}_ns_per_kb` over the workload's own messages
/// (one request/reply pair per call), `rpc.bytes_{out,in}_per_call` as
/// their encoded sizes, and the value-codec time (µs) one round trip
/// spends: both messages are encoded once and decoded once.
pub fn wire_codec(ctx: &mut Ctx, messages: &[(Request, Reply)]) -> f64 {
    let encoded: Vec<_> = messages
        .iter()
        .map(|(request, reply)| {
            (
                encode_request(request).expect("probe request encodes"),
                encode_reply(reply).expect("probe reply encodes"),
            )
        })
        .collect();
    let calls = messages.len() as f64;
    let bytes_out: usize = encoded.iter().map(|(r, _)| r.len()).sum();
    let bytes_in: usize = encoded.iter().map(|(_, r)| r.len()).sum();
    let kib = (bytes_out + bytes_in) as f64 / 1024.0;

    // Small message sets are repeated so each timed sample is well over 1 µs.
    let batch = (64 * 1024 / (bytes_out + bytes_in)).clamp(1, 256);
    let encode = probe_ns(31, batch, || {
        for (request, reply) in messages {
            black_box(encode_request(black_box(request)).is_ok());
            black_box(encode_reply(black_box(reply)).is_ok());
        }
    });
    let decode = probe_ns(31, batch, || {
        for (request, reply) in &encoded {
            black_box(decode_request(black_box(request.clone())).is_ok());
            black_box(decode_reply(black_box(reply.clone())).is_ok());
        }
    });
    let per_kib = |samples: &[f64]| samples.iter().map(|ns| ns / kib).collect::<Vec<_>>();
    ctx.put_samples("rpc.wire.encode_ns_per_kb", &per_kib(&encode), "ns/KiB");
    ctx.put_samples("rpc.wire.decode_ns_per_kb", &per_kib(&decode), "ns/KiB");
    ctx.put("rpc.bytes_out_per_call", bytes_out as f64 / calls, "B");
    ctx.put("rpc.bytes_in_per_call", bytes_in as f64 / calls, "B");
    (stats::median_of(&encode) + stats::median_of(&decode)) / calls / 1e3
}

/// `rpc.frame.encode_ns`: framing a payload of the workload's size.
pub fn frame_encode(ctx: &mut Ctx, payload_len: usize) {
    let payload = vec![7u8; payload_len];
    let batch = (64 * 1024 / payload_len.max(1)).clamp(1, 256);
    let samples = probe_ns(31, batch, || {
        encode_frame(
            FrameKind::Request,
            7,
            black_box(&payload),
            DEFAULT_MAX_PAYLOAD,
        )
    });
    ctx.put_samples("rpc.frame.encode_ns", &samples, "ns");
}

/// `rpc.raw_socket_rtt_us`: a bare `TcpStream` ping-pong of frames the
/// size the workload's call puts on the wire — the kernel's share of a
/// round trip, which no transport can go below.
pub fn raw_socket_rtt(ctx: &mut Ctx, request_len: usize, reply_len: usize, rounds: usize) {
    let (out_len, in_len) = (FRAME_HEADER_LEN + request_len, FRAME_HEADER_LEN + reply_len);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind raw probe");
    let addr = listener.local_addr().expect("raw probe address");
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut request = vec![0u8; out_len];
        let reply = vec![1u8; in_len];
        for _ in 0..rounds {
            conn.read_exact(&mut request)?;
            conn.write_all(&reply)?;
        }
        Ok(())
    });
    let mut conn = TcpStream::connect(addr).expect("connect raw probe");
    conn.set_nodelay(true).expect("nodelay on raw probe");
    let request = vec![0u8; out_len];
    let mut reply = vec![0u8; in_len];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        conn.write_all(&request).expect("raw probe write");
        conn.read_exact(&mut reply).expect("raw probe read");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    echo.join()
        .expect("raw probe echo thread panicked")
        .expect("raw probe echo side");
    ctx.put_samples("rpc.raw_socket_rtt_us", &samples, "us");
}

/// `rpc.raw_wire_gb_per_s`: a bare socket streaming `total_bytes` in
/// `chunk`-sized writes against a draining reader, one ack at the end —
/// the loopback stack's own ceiling for the bulk plane (E15's floor).
pub fn raw_wire(ctx: &mut Ctx, total_bytes: usize, chunk: usize, repeats: usize) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind raw wire probe");
    let addr = listener.local_addr().expect("raw wire probe address");
    let sink = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        let mut buf = vec![0u8; 256 << 10];
        for _ in 0..repeats {
            let mut left = total_bytes;
            while left > 0 {
                let want = buf.len().min(left);
                let n = conn.read(&mut buf[..want])?;
                if n == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                left -= n;
            }
            conn.write_all(&[1])?;
        }
        Ok(())
    });
    let mut conn = TcpStream::connect(addr).expect("connect raw wire probe");
    conn.set_nodelay(true).expect("nodelay on raw wire probe");
    let payload = vec![7u8; chunk];
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        let mut left = total_bytes;
        while left > 0 {
            let n = chunk.min(left);
            conn.write_all(&payload[..n]).expect("raw wire write");
            left -= n;
        }
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).expect("raw wire ack");
        samples.push(total_bytes as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    sink.join()
        .expect("raw wire sink thread panicked")
        .expect("raw wire sink side");
    ctx.put_samples("rpc.raw_wire_gb_per_s", &samples, "GB/s");
}

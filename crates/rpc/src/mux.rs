//! The socket transport: thousands of concurrent logical clients on a
//! handful of sockets, with replies routed by request id.
//!
//! Every frame header carries a `u64` request id, so a reply can be routed
//! to its caller without demarshaling. This module uses that on both sides
//! of the socket, std-only (vendor policy: no new runtime deps, no async
//! runtime).
//!
//! * [`MuxTransport`] — the client: many concurrent calls pipeline over a
//!   small fixed set of connections. Per connection, one writer thread
//!   drains a shared output buffer (submissions under load coalesce into
//!   single `write` syscalls) and one reader thread decodes the reply
//!   stream with the server's [`FrameDecoder`], reading the socket only
//!   when no complete reply is buffered, and routes each reply to its
//!   waiter by frame id. [`MuxTransport::submit`]
//!   returns a [`PendingReply`] without blocking on the reply, so one OS
//!   thread can keep hundreds of logical calls in flight. When a
//!   connection dies, every in-flight call on it fails with a typed
//!   [`CONNECTION_EXCEPTION_TYPE`] error — which feeds the circuit
//!   breaker exactly like a wedged local provider. A bulk slab skips the
//!   writer thread: [`MuxTransport::submit_bulk`] takes the socket's write
//!   side and writes the slab on the calling thread, so the sender's
//!   gather and the socket copy follow each other with no hand-off.
//! * [`MuxServer`] — the server: an event-driven readiness loop over
//!   nonblocking sockets instead of a thread per peer. One loop thread
//!   reads frames from every connection, a bounded worker pool dispatches
//!   into the same [`Dispatcher`] trait the in-process loopback uses (the
//!   Figure-2 pipeline and the hostile-network battery cannot tell), and
//!   replies are flushed back by the loop. A bulk slab never reaches the
//!   pool: the loop lands it in the installed sink in the pass that
//!   decoded it. Backpressure is per-connection:
//!   when a peer's replies aren't draining, the loop stops *reading* that
//!   connection until the write buffer empties, so one slow consumer can't
//!   balloon server memory.
//!
//! Protocol discipline: a reply bearing an unknown or already-completed
//! request id is a mux violation. It fails only its own connection — every
//! in-flight call on that connection gets a typed error, and no caller can
//! ever receive another caller's bytes (cross-delivery is structurally
//! impossible: the routing table hands each payload to exactly the waiter
//! that registered the id). A caller that abandons a call (deadline) leaves
//! a tombstone so the late reply is dropped silently rather than
//! misclassified as a violation.

use crate::frame::{
    encode_frame_header_onto, encode_frame_onto, Frame, FrameDecoder, FrameKind,
    DEFAULT_MAX_PAYLOAD, FRAME_HEADER_LEN, TRACE_CONTEXT_LEN,
};
use crate::readiness::{self, PollFd, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::transport::{Dispatcher, Transport};
use bytes::Bytes;
use cca_core::resilience::{SplitMix64, DEADLINE_EXCEPTION_TYPE};
use cca_obs::{MuxMetrics, TraceContext, TransportMetrics};
use cca_sidl::SidlError;
use std::collections::{HashMap, VecDeque};
use std::ffi::c_short;
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The SIDL exception type for transport-level connection failures: failed
/// dials, peers hanging up mid-call, and framing violations. Distinct from
/// dispatch errors (which arrive as marshaled replies) and from
/// [`DEADLINE_EXCEPTION_TYPE`] (an exceeded call budget), so a breaker
/// observer or a test can tell *how* the wire failed.
pub const CONNECTION_EXCEPTION_TYPE: &str = "cca.rpc.ConnectionFailure";

fn conn_err(message: impl Into<String>) -> SidlError {
    SidlError::user(CONNECTION_EXCEPTION_TYPE, message)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Default number of sockets a [`MuxTransport`] multiplexes over.
pub const DEFAULT_MUX_CONNECTIONS: usize = 4;

/// Bytes the client's reader offers each `read` of the reply stream. A
/// burst of small replies still arrives in one read. Small on purpose:
/// every connection's decoder keeps a buffer at least this large, and in
/// alternating benchmark pairs 64 KiB reads cost `hydro_remote` 2 % more
/// peak RSS than 4 KiB reads, for no resolved gain elsewhere.
const REPLY_READ_CHUNK: usize = 4 << 10;

/// What the completion router knows about one outstanding request id.
enum PendingEntry {
    /// A caller is waiting; deliver here.
    Live(Arc<WaitCell>),
    /// The caller gave up (deadline) — drop the late reply silently.
    Abandoned,
}

/// The per-connection routing table. `dead` doubles as the tombstone for
/// the whole connection: once set, no new ids register and the stored
/// error is what late submitters see.
struct PendingMap {
    waiters: HashMap<u64, PendingEntry>,
    dead: Option<SidlError>,
}

/// One caller's rendezvous with the reader thread.
struct WaitCell {
    /// `(outcome, completion instant)` — the instant is captured at
    /// delivery, not at wakeup, so pipelined benchmarks measure network
    /// latency rather than waiter-scheduling latency.
    slot: Mutex<Option<(Result<Bytes, SidlError>, Instant)>>,
    cond: Condvar,
}

impl WaitCell {
    fn new() -> Self {
        WaitCell {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    fn deliver(&self, outcome: Result<Bytes, SidlError>) {
        *self.slot.lock().unwrap() = Some((outcome, Instant::now()));
        self.cond.notify_one();
    }
}

/// A connection's write side: the control frames queued for the writer
/// thread, and who holds the socket right now.
struct OutQueue {
    /// Encoded control frames awaiting the writer thread, which swaps the
    /// whole buffer out and writes it in one go.
    buf: Vec<u8>,
    /// The socket's write side is taken: by the writer thread for one
    /// batch, or by one bulk submitter for its frame. Whoever holds it is
    /// the only thread writing, so frames never interleave on the wire.
    writing: bool,
    /// Bulk submitters parked on `side_cv` until the write side is free.
    side_waiters: usize,
    dead: bool,
}

/// One multiplexed connection: a writer thread serializing frames, a
/// reader thread routing completions, and the routing table between them.
struct MuxConn {
    addr: String,
    /// Original stream handle, kept so teardown can unblock the reader.
    stream: TcpStream,
    out: Mutex<OutQueue>,
    /// Wakes the writer thread: control bytes queued or write side freed.
    out_cv: Condvar,
    /// Wakes one bulk submitter waiting for the write side.
    side_cv: Condvar,
    pending: Mutex<PendingMap>,
    /// Fast liveness check for connection selection; authoritative state
    /// is `pending.dead`.
    alive: AtomicBool,
    metrics: Arc<MuxMetrics>,
    transport_metrics: Arc<TransportMetrics>,
}

// TcpStream, Mutex-guarded state, and atomics only: safe to share across
// the reader, writer, and any number of submitting threads.

impl MuxConn {
    /// Kills the connection: marks it dead, fails every live in-flight
    /// call with `cause`, unblocks both service threads. Idempotent — the
    /// first caller wins; later causes are dropped.
    fn teardown(&self, cause: SidlError) {
        let victims: Vec<Arc<WaitCell>> = {
            let mut pending = self.pending.lock().unwrap();
            if pending.dead.is_some() {
                return;
            }
            pending.dead = Some(cause.clone());
            pending
                .waiters
                .drain()
                .filter_map(|(_, entry)| match entry {
                    PendingEntry::Live(cell) => Some(cell),
                    PendingEntry::Abandoned => None,
                })
                .collect()
        };
        // The connection must be fully dead — liveness flag down, socket
        // shut, writer told to exit — *before* any waiter wakes. A caller
        // that retries the moment its error is delivered must observe
        // `alive == false` and re-dial; were the error delivered first,
        // the retry could land back on this corpse and fail without ever
        // reaching the server.
        self.alive.store(false, Ordering::SeqCst);
        self.transport_metrics.record_connection_drop();
        let _ = self.stream.shutdown(Shutdown::Both);
        {
            let mut out = self.out.lock().unwrap();
            out.dead = true;
            out.buf.clear();
        }
        self.out_cv.notify_all();
        self.side_cv.notify_all();
        // Black-box the death while the evidence is fresh: what the mux
        // counters saw and what the trace rings hold, before the waiters
        // wake and their retries overwrite both.
        if cca_obs::flight::enabled() {
            cca_obs::flight::record_incident_with_metrics(
                "ConnectionFailure",
                &format!("tcp+mux://{}: {cause}", self.addr),
                Some(&self.metrics.snapshot().to_json()),
            );
        }
        for cell in victims {
            self.metrics.record_end();
            cell.deliver(Err(cause.clone()));
        }
    }

    /// The writer loop: take the write side and swap the shared buffer out
    /// under the lock, write it without the lock. Submissions that arrive
    /// while a write syscall is in progress coalesce into the next swap —
    /// under load, many frames per syscall. After each batch the write
    /// side goes to a waiting bulk submitter first, which carries any
    /// queued control bytes out ahead of its slab.
    fn write_loop(&self, mut stream: TcpStream) {
        let mut batch = Vec::new();
        let mut held = false;
        loop {
            {
                let mut out = self.out.lock().unwrap();
                if held {
                    // Freed in the same critical section as the next take.
                    out.writing = false;
                    if out.side_waiters > 0 {
                        self.side_cv.notify_one();
                    }
                }
                loop {
                    if out.dead {
                        return;
                    }
                    if !out.writing && out.side_waiters == 0 && !out.buf.is_empty() {
                        std::mem::swap(&mut batch, &mut out.buf);
                        out.writing = true;
                        held = true;
                        break;
                    }
                    out = self.out_cv.wait(out).unwrap();
                }
            }
            if let Err(e) = stream.write_all(&batch) {
                self.teardown(self.write_err(e));
                return;
            }
            batch.clear();
        }
    }

    fn write_err(&self, e: std::io::Error) -> SidlError {
        conn_err(format!("socket write to tcp://{}: {e}", self.addr))
    }

    /// Writes one bulk frame on the calling thread: waits for the write
    /// side, takes it together with any queued control bytes (they were
    /// submitted first, so they go out first), writes those, `head` and
    /// `slab` with vectored writes, then frees the write side. A failed
    /// or timed-out write leaves the stream mid-frame, so it tears the
    /// connection down exactly as a failed write on the writer thread
    /// does; teardown delivers the error to every waiter, this frame's
    /// included.
    fn write_bulk(&self, head: &[u8], slab: &[u8]) {
        let mut queued = {
            let mut out = self.out.lock().unwrap();
            while out.writing && !out.dead {
                out.side_waiters += 1;
                out = self.side_cv.wait(out).unwrap();
                out.side_waiters -= 1;
            }
            if out.dead {
                return;
            }
            out.writing = true;
            std::mem::take(&mut out.buf)
        };
        let written = {
            let _span = cca_obs::span("rpc.bulk.write");
            let mut parts = [
                IoSlice::new(&queued),
                IoSlice::new(head),
                IoSlice::new(slab),
            ];
            write_all_vectored(&mut &self.stream, &mut parts)
        };
        if let Err(e) = written {
            self.teardown(self.write_err(e));
            return;
        }
        let control_queued = {
            let mut out = self.out.lock().unwrap();
            out.writing = false;
            // Hand the emptied buffer back so control frames queue into
            // storage that is already grown.
            if out.buf.is_empty() && out.buf.capacity() < queued.capacity() {
                queued.clear();
                out.buf = queued;
            }
            if out.side_waiters > 0 {
                self.side_cv.notify_one();
            }
            !out.buf.is_empty()
        };
        if control_queued {
            self.out_cv.notify_one();
        }
        self.metrics.record_bulk_caller_write();
    }

    /// The reader loop: pop every complete reply the decoder holds, route
    /// each to its waiter by frame id, and block on the socket for more
    /// only when none is left. Any violation — a request frame, an unknown
    /// or already-completed id, a framing error, a hang-up mid-frame —
    /// kills this connection and only this connection.
    fn read_loop(&self, mut stream: TcpStream) {
        let read_failed =
            |e: &dyn std::fmt::Display| format!("socket read from tcp://{}: {e}", self.addr);
        let mut decoder = FrameDecoder::new();
        let cause = loop {
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => match decoder.fill_from(&mut stream, REPLY_READ_CHUNK) {
                    Ok(0) => {
                        break match decoder.finish() {
                            Ok(()) => format!(
                                "tcp://{} closed the connection with calls in flight",
                                self.addr
                            ),
                            Err(e) => read_failed(&e),
                        }
                    }
                    Ok(_) => {
                        self.metrics.record_reply_read();
                        continue;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => break read_failed(&e),
                },
                Err(e) => break read_failed(&e),
            };
            if frame.kind != FrameKind::Reply {
                self.metrics.record_protocol_violation();
                break format!(
                    "tcp://{} sent a request frame on a client connection",
                    self.addr
                );
            }
            let entry = self
                .pending
                .lock()
                .unwrap()
                .waiters
                .remove(&frame.request_id);
            match entry {
                Some(PendingEntry::Live(cell)) => {
                    self.metrics.record_end();
                    cell.deliver(Ok(frame.payload));
                }
                // The caller abandoned this id (deadline); the late reply
                // is dropped without ceremony.
                Some(PendingEntry::Abandoned) => {}
                None => {
                    self.metrics.record_protocol_violation();
                    break format!(
                        "tcp://{} sent a reply for unknown or already-completed \
                         request id {}",
                        self.addr, frame.request_id
                    );
                }
            }
        };
        self.teardown(conn_err(cause));
    }
}

/// A connection slot: lazily dialed, replaced wholesale when its
/// connection dies (the dead `Arc<MuxConn>` lingers only as long as its
/// waiters do).
struct Slot {
    conn: Mutex<Option<Arc<MuxConn>>>,
}

/// The multiplexing client transport: pipelined concurrent calls over a
/// small fixed set of connections.
///
/// Shape: [`submit`](Self::submit) registers a waiter keyed by a fresh
/// frame id, appends the encoded frame to the connection's output buffer,
/// and returns a [`PendingReply`] immediately; the [`Transport::call`]
/// implementation is `submit` + [`PendingReply::wait`]. Connections are
/// selected round-robin and dialed lazily; a dead connection is replaced
/// on the next submission that lands on its slot — dialing fresh *is* the
/// circuit breaker's half-open probe.
pub struct MuxTransport {
    addr: String,
    io_timeout: Option<Duration>,
    slots: Vec<Slot>,
    rr: AtomicUsize,
    next_id: AtomicU64,
    metrics: Arc<TransportMetrics>,
    mux_metrics: Arc<MuxMetrics>,
}

fn make_slots(conns: usize) -> Vec<Slot> {
    (0..conns.max(1))
        .map(|_| Slot {
            conn: Mutex::new(None),
        })
        .collect()
}

impl MuxTransport {
    /// A transport multiplexing calls to `addr` over
    /// [`DEFAULT_MUX_CONNECTIONS`] lazily dialed connections.
    /// Construction never touches the network.
    pub fn new(addr: impl Into<String>) -> Self {
        MuxTransport {
            addr: addr.into(),
            io_timeout: None,
            slots: make_slots(DEFAULT_MUX_CONNECTIONS),
            rr: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            metrics: Arc::new(TransportMetrics::default()),
            mux_metrics: Arc::default(),
        }
    }

    /// Sets the fixed connection-set size (minimum 1).
    pub fn with_connections(mut self, conns: usize) -> Self {
        self.slots = make_slots(conns);
        self
    }

    /// Bounds every call's end-to-end wait. A call that exceeds the budget
    /// abandons its request id (the late reply is dropped, the connection
    /// survives) and surfaces as a [`DEADLINE_EXCEPTION_TYPE`] user
    /// exception — the same error every other deadline path raises. The
    /// same budget bounds each socket write: a write the peer leaves
    /// stalled that long tears the connection down, since the stream is
    /// no longer at a frame boundary, and its calls fail with
    /// [`CONNECTION_EXCEPTION_TYPE`].
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// The server address this transport dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The fixed connection-set size.
    pub fn connections(&self) -> usize {
        self.slots.len()
    }

    /// Client-side transport metrics (dials, drops, round trips).
    pub fn metrics(&self) -> &TransportMetrics {
        &self.metrics
    }

    /// Multiplexing depth metrics: in-flight calls, high-water marks,
    /// protocol violations.
    pub fn mux_metrics(&self) -> &MuxMetrics {
        &self.mux_metrics
    }

    /// Connections currently live.
    pub fn live_connections(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                s.conn
                    .lock()
                    .unwrap()
                    .as_ref()
                    .is_some_and(|c| c.alive.load(Ordering::SeqCst))
            })
            .count()
    }

    /// Round-robin slot pick; dials (or re-dials) the slot's connection if
    /// it is absent or dead.
    fn conn_for_call(&self) -> Result<Arc<MuxConn>, SidlError> {
        let index = self.rr.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let mut slot = self.slots[index].conn.lock().unwrap();
        if let Some(conn) = slot.as_ref() {
            if conn.alive.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = self.dial()?;
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn dial(&self) -> Result<Arc<MuxConn>, SidlError> {
        self.metrics.record_dial();
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| conn_err(format!("dial tcp://{}: {e}", self.addr)))?;
        // Nagle would park small pipelined frames behind the previous ACK.
        let _ = stream.set_nodelay(true);
        // A bulk submitter writes its own slab; were the peer to stop
        // reading, an unbounded write would outlive the call's deadline.
        // Bounded by it instead, a stalled write tears the connection down.
        if self.io_timeout.is_some() {
            stream
                .set_write_timeout(self.io_timeout)
                .map_err(|e| conn_err(format!("bound writes to tcp://{}: {e}", self.addr)))?;
        }
        let reader_half = stream
            .try_clone()
            .map_err(|e| conn_err(format!("clone socket for tcp://{}: {e}", self.addr)))?;
        let writer_half = stream
            .try_clone()
            .map_err(|e| conn_err(format!("clone socket for tcp://{}: {e}", self.addr)))?;
        let conn = Arc::new(MuxConn {
            addr: self.addr.clone(),
            stream,
            out: Mutex::new(OutQueue {
                buf: Vec::new(),
                writing: false,
                side_waiters: 0,
                dead: false,
            }),
            out_cv: Condvar::new(),
            side_cv: Condvar::new(),
            pending: Mutex::new(PendingMap {
                waiters: HashMap::new(),
                dead: None,
            }),
            alive: AtomicBool::new(true),
            metrics: Arc::clone(&self.mux_metrics),
            transport_metrics: Arc::clone(&self.metrics),
        });
        let for_reader = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("cca-mux-read-{}", self.addr))
            .spawn(move || for_reader.read_loop(reader_half))
            .map_err(|e| conn_err(format!("spawn mux reader: {e}")))?;
        let for_writer = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("cca-mux-write-{}", self.addr))
            .spawn(move || for_writer.write_loop(writer_half))
            .map_err(|e| conn_err(format!("spawn mux writer: {e}")))?;
        Ok(conn)
    }

    /// Starts one call without waiting for its reply: registers the
    /// request id with the completion router, hands the frame to the
    /// connection's writer, and returns immediately. Any number of calls
    /// from any number of threads may be in flight per connection.
    pub fn submit(&self, request: Bytes) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit");
        self.submit_frame(FrameKind::Request, &request)
    }

    /// Starts one bulk-slab transfer: the same sockets and the same
    /// id-routed completion as [`submit`](Self::submit), but the frame kind
    /// is `Bulk`, the payload is a raw slab (see [`crate::bulk`]), and the
    /// calling thread writes the frame itself once it holds the
    /// connection's write side — the slab is copied once, from `slab` into
    /// the socket. Returns when the frame is written, not when it is
    /// acknowledged. The reply's payload is the receiver's encoded
    /// [`crate::bulk::BulkAck`].
    pub fn submit_bulk(&self, slab: &[u8]) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_bulk");
        self.submit_frame(FrameKind::Bulk, slab)
    }

    /// Announces a fleet rank on this transport's connection: sends a
    /// `Join` frame whose payload the server's
    /// [`SessionSink`] interprets (rank id, incarnation, provider
    /// labels). The reply is the sink's join acknowledgement. A fleet
    /// member should build its transport with
    /// [`with_connections(1)`](Self::with_connections) so the joined
    /// connection's death is an unambiguous rank-death signal.
    pub fn submit_join(&self, hello: Bytes) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_join");
        self.submit_frame(FrameKind::Join, &hello)
    }

    /// Departs cleanly: sends a `Leave` frame so the server's
    /// [`SessionSink`] marks this rank as gone on purpose and the
    /// subsequent socket close is not treated as a crash.
    pub fn submit_leave(&self, goodbye: Bytes) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_leave");
        self.submit_frame(FrameKind::Leave, &goodbye)
    }

    /// The one submission path: registers a waiter under a fresh request
    /// id, then sends the frame. A control frame is appended, header and
    /// payload, to the connection's write queue under its lock; a bulk
    /// frame is written by the calling thread (`MuxConn::write_bulk`).
    fn submit_frame(&self, kind: FrameKind, payload: &[u8]) -> Result<PendingReply, SidlError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = self.conn_for_call()?;
        // The caller's span is current here, so the wire context parents
        // the server's dispatch span to this very call. Tracing off ⇒
        // `None` after one relaxed load, zero extension bytes.
        let context = cca_obs::trace::current_context();
        let cell = Arc::new(WaitCell::new());
        {
            let mut pending = conn.pending.lock().unwrap();
            if let Some(err) = &pending.dead {
                return Err(err.clone());
            }
            pending
                .waiters
                .insert(request_id, PendingEntry::Live(Arc::clone(&cell)));
        }
        self.mux_metrics.record_begin();
        let submitted = Instant::now();
        let sent = if kind == FrameKind::Bulk {
            let mut head = Vec::with_capacity(FRAME_HEADER_LEN + TRACE_CONTEXT_LEN);
            let (len, max) = (payload.len(), DEFAULT_MAX_PAYLOAD);
            encode_frame_header_onto(&mut head, kind, request_id, len, max, context)
                .map(|()| conn.write_bulk(&head, payload))
        } else {
            let queued = {
                let mut out = conn.out.lock().unwrap();
                // If the connection died between the two locks, teardown
                // has already delivered the error to our cell; skip the
                // enqueue and let `wait` surface it.
                if out.dead {
                    Ok(())
                } else {
                    let max = DEFAULT_MAX_PAYLOAD;
                    encode_frame_onto(&mut out.buf, kind, request_id, payload, max, context)
                }
            };
            queued.map(|()| conn.out_cv.notify_one())
        };
        if let Err(err) = sent {
            // Oversize payload: nothing was written, so unhook the waiter
            // instead of leaving a request id that can never complete.
            conn.pending.lock().unwrap().waiters.remove(&request_id);
            self.mux_metrics.record_end();
            return Err(err.into());
        }
        Ok(PendingReply {
            cell: Some(cell),
            conn,
            request_id,
            request_bytes: payload.len() as u64,
            submitted,
            timeout: self.io_timeout,
        })
    }
}

/// Writes every byte of `parts`, in order, in as few syscalls as the
/// socket accepts.
fn write_all_vectored(
    stream: &mut impl Write,
    mut parts: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match stream.write_vectored(parts) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Drop for MuxTransport {
    fn drop(&mut self) {
        for slot in &self.slots {
            let conn = slot.conn.lock().unwrap().clone();
            if let Some(conn) = conn {
                conn.teardown(conn_err("transport dropped"));
            }
        }
    }
}

impl Transport for MuxTransport {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let _span = cca_obs::span("rpc.mux.call");
        let counters = cca_obs::counters_enabled();
        let pending = self.submit(request)?;
        let request_bytes = pending.request_bytes;
        let (reply, latency) = pending.wait_timed()?;
        if counters {
            self.metrics.record_round_trip(
                "mux",
                request_bytes,
                reply.len() as u64,
                latency.as_nanos() as u64,
            );
        }
        Ok(reply)
    }
}

/// A [`Transport`]-shaped view of a [`MuxTransport`]'s bulk lane: `call`
/// submits the payload as a `Bulk` frame and waits for the ack reply.
/// Being a `Transport`, it composes unchanged with the resilience stack —
/// wrap it in a [`crate::DeadlineTransport`] and a stalled receiver
/// surfaces `cca.rpc.DeadlineExceeded` instead of wedging the caller, or
/// in a [`crate::FaultTransport`] for the CI fault matrix; connection
/// failures feed the circuit breaker exactly like control-plane calls.
pub struct BulkChannel {
    transport: Arc<MuxTransport>,
}

impl BulkChannel {
    /// A bulk lane over `transport`'s connection set.
    pub fn new(transport: Arc<MuxTransport>) -> Arc<Self> {
        Arc::new(BulkChannel { transport })
    }

    /// Writes one slab on the calling thread and returns without waiting
    /// for its ack — see [`MuxTransport::submit_bulk`]. The windowed sender
    /// keeps several of these in flight so its next gather overlaps the
    /// receiver's scatter instead of serializing on round trips;
    /// [`call`](Transport::call) is the stop-and-wait special case.
    pub fn submit(&self, slab: &[u8]) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.bulk.chunk");
        self.transport.submit_bulk(slab)
    }
}

impl Transport for BulkChannel {
    fn call(&self, slab: Bytes) -> Result<Bytes, SidlError> {
        Ok(self.submit(&slab)?.wait_timed()?.0)
    }
}

/// A handle to one in-flight multiplexed call. Consume it with
/// [`wait`](Self::wait); dropping it unwaited abandons the call (the reply,
/// if it ever arrives, is discarded without penalizing the connection).
pub struct PendingReply {
    cell: Option<Arc<WaitCell>>,
    conn: Arc<MuxConn>,
    request_id: u64,
    request_bytes: u64,
    submitted: Instant,
    timeout: Option<Duration>,
}

impl PendingReply {
    /// The frame-level request id routing this call.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Blocks until the reply arrives (bounded by the transport's
    /// io-timeout, if any) and returns its payload.
    pub fn wait(self) -> Result<Bytes, SidlError> {
        self.wait_timed().map(|(bytes, _)| bytes)
    }

    /// Like [`wait`](Self::wait), also returning the submit-to-completion
    /// latency measured at *delivery* time — unbiased by how long this
    /// thread took to get around to waiting.
    pub fn wait_timed(mut self) -> Result<(Bytes, Duration), SidlError> {
        let cell = self.cell.take().expect("wait consumes the cell");
        let deadline = self.timeout.map(|t| self.submitted + t);
        let mut slot = cell.slot.lock().unwrap();
        loop {
            if let Some((outcome, done_at)) = slot.take() {
                let latency = done_at.saturating_duration_since(self.submitted);
                return outcome.map(|bytes| (bytes, latency));
            }
            match deadline {
                None => slot = cell.cond.wait(slot).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        drop(slot);
                        if let Some((outcome, done_at)) = self.abandon(&cell) {
                            // Lost the race: the reply landed while we
                            // were deciding to give up. Take it.
                            let latency = done_at.saturating_duration_since(self.submitted);
                            return outcome.map(|bytes| (bytes, latency));
                        }
                        return Err(SidlError::user(
                            DEADLINE_EXCEPTION_TYPE,
                            format!(
                                "mux call {} to tcp://{} exceeded its {:?} budget",
                                self.request_id, self.conn.addr, self.timeout
                            ),
                        ));
                    }
                    slot = cell.cond.wait_timeout(slot, d - now).unwrap().0;
                }
            }
        }
    }

    /// Converts this call's routing entry to a tombstone. Returns the
    /// outcome instead if delivery won the race.
    fn abandon(&self, cell: &Arc<WaitCell>) -> Option<(Result<Bytes, SidlError>, Instant)> {
        let mut pending = self.conn.pending.lock().unwrap();
        match pending.waiters.get_mut(&self.request_id) {
            Some(entry @ PendingEntry::Live(_)) => {
                *entry = PendingEntry::Abandoned;
                self.conn.metrics.record_end();
                None
            }
            // Already delivered (or the connection died and delivered an
            // error): the cell holds the outcome.
            _ => cell.slot.lock().unwrap().take(),
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            let _ = self.abandon(&cell);
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`MuxServer`]. `Default` is sized for tests and
/// moderate service; the E13 bench overrides nothing.
#[derive(Debug, Clone)]
pub struct MuxServerConfig {
    /// Dispatch worker threads (completions may finish out of order up to
    /// this parallelism).
    pub dispatch_threads: usize,
    /// Per-connection cap on unanswered work: unflushed reply bytes plus
    /// the requests still with the dispatch pool. Beyond it the loop stops
    /// reading that connection until the backlog drains. Bulk slabs land
    /// in the pass that decodes them, so they charge nothing here; their
    /// acks, once framed, count as reply bytes. The cap also bounds what
    /// one visit of the loop reads from one connection.
    pub write_buffer_cap: usize,
    /// Live-connection bound: accepts beyond it are refused immediately
    /// (the bounded accept/handshake concurrency).
    pub max_connections: usize,
}

impl Default for MuxServerConfig {
    fn default() -> Self {
        MuxServerConfig {
            dispatch_threads: 4,
            write_buffer_cap: 1 << 20,
            max_connections: 1024,
        }
    }
}

/// Where fleet `Join`/`Leave` frames land, and how connection death is
/// reported for joined connections. The connection id doubles as the
/// rank's *session id*: it is unique for the server's lifetime, so a
/// restarted rank's new session is always distinguishable from its dead
/// predecessor's.
pub trait SessionSink: Send + Sync {
    /// A `Join` frame arrived on connection `session`. The returned bytes
    /// travel back as the `Reply` payload (the join acknowledgement);
    /// an error closes the connection.
    fn join(&self, session: u64, hello: Bytes) -> Result<Vec<u8>, SidlError>;

    /// A `Leave` frame arrived on connection `session` — the rank is
    /// departing on purpose; its imminent socket close is not a crash.
    fn leave(&self, session: u64, goodbye: Bytes) -> Result<Vec<u8>, SidlError>;

    /// Connection `session` died (EOF, reset, framing violation) after a
    /// successful `Join` frame was decoded on it. Called from the event
    /// loop's reap pass — implementations must not block.
    fn disconnected(&self, session: u64);
}

/// One unit of work for the dispatch pool.
struct Job {
    conn_id: u64,
    request_id: u64,
    /// `Request` goes to the [`Dispatcher`]; `Join`/`Leave` go to the
    /// installed [`SessionSink`]. (`Bulk` lands on the event loop and
    /// `Reply` is a violation; neither reaches the queue.)
    kind: FrameKind,
    payload: Bytes,
    /// The caller's trace identity from the frame, installed around the
    /// dispatch so the worker's spans join the caller's trace.
    context: Option<TraceContext>,
    /// Bytes this job charges against its connection's backlog until the
    /// reply lands in the write buffer (see [`ServerConn::pending_cost`]).
    cost: usize,
}

/// A finished dispatch on its way from a worker to the event loop.
struct Completion {
    conn_id: u64,
    request_id: u64,
    /// The job's charge against its connection's backlog.
    cost: usize,
    /// The reply payload; `None` is the close sentinel (undecodable
    /// payload, sink error): the connection hangs up.
    reply: Option<Bytes>,
}

struct JobQueue {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// A connection as the event loop sees it.
struct ServerConn {
    id: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded reply bytes awaiting the socket, with a cursor instead of
    /// repeated front-drains.
    out: Vec<u8>,
    out_pos: usize,
    /// Request bytes decoded but not yet answered into `out` (bulk slabs
    /// are answered in the pass that decodes them). Without this
    /// the read loop sees zero backlog for a whole pass (completions only
    /// reach `out` on a later pass) and a single pass can swallow an
    /// arbitrarily large burst into the job queue.
    pending_cost: usize,
    /// Reads paused by backpressure?
    paused: bool,
    closed: bool,
    /// A `Join` frame was decoded on this connection: its death must be
    /// reported to the [`SessionSink`] as a rank death.
    joined: bool,
    /// The pass after a park visits this connection: `poll` reported it,
    /// or a completed reply has been routed to it since.
    ready: bool,
}

impl ServerConn {
    /// Unanswered work held for this connection: unflushed reply bytes
    /// plus requests still in (or bound for) the dispatch pool.
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos + self.pending_cost
    }

    /// What a parked loop waits for on this connection: request bytes
    /// unless backpressure holds reads off, room to write while reply
    /// bytes are unflushed. Errors and hang-ups are reported regardless.
    fn poll_events(&self, write_buffer_cap: usize) -> c_short {
        let mut events = 0;
        if self.backlog() <= write_buffer_cap {
            events |= POLLIN;
        }
        if self.out_pos < self.out.len() {
            events |= POLLOUT;
        }
        events
    }
}

/// The event-driven multiplexing server: a readiness loop over nonblocking
/// sockets, dispatching into the same [`Dispatcher`] as the in-process
/// [`LoopbackTransport`](crate::LoopbackTransport) — a servant, a test
/// battery, or the Figure-2 pipeline cannot tell the two apart.
///
/// Thread budget is *fixed*, independent of peer count: one accept thread,
/// one event-loop thread, `dispatch_threads` workers. Ten thousand logical
/// clients over eight sockets cost the same threads as one.
///
/// Fault injection ([`set_fault_plan`](Self::set_fault_plan)) follows the
/// [`FaultTransport`](crate::FaultTransport) contract: the drop decision is
/// made on the event loop as each request frame is decoded, so a
/// serialized client observes a schedule that is a pure function of the
/// seed.
pub struct MuxServer {
    local_addr: SocketAddr,
    dispatcher: Arc<dyn Dispatcher>,
    config: MuxServerConfig,
    shutting_down: AtomicBool,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    event_thread: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Accepted sockets awaiting registration by the event loop.
    incoming: Mutex<Vec<TcpStream>>,
    /// Live + pending-registration connections, maintained for the accept
    /// bound.
    live_conns: AtomicUsize,
    jobs: Mutex<JobQueue>,
    jobs_cv: Condvar,
    /// Completed dispatches awaiting the event loop.
    completed: Mutex<Vec<Completion>>,
    /// True while the event loop is blocked in `poll` (or about to be):
    /// whoever swaps it back to false owes the loop one [`Waker::wake`].
    parked: AtomicBool,
    waker: Waker,
    accepted: AtomicU64,
    rejected_over_capacity: AtomicU64,
    dispatched: AtomicU64,
    dropped_mid_call: AtomicU64,
    drop_permille: AtomicU64,
    fault_draws: Mutex<SplitMix64>,
    metrics: Arc<MuxMetrics>,
    /// Where `Bulk` frames land. Installed by [`Self::set_bulk_sink`];
    /// a bulk frame arriving with no sink is a protocol violation.
    bulk_sink: Mutex<Option<Arc<dyn crate::bulk::BulkSink>>>,
    /// Where `Join`/`Leave` frames (and joined-connection deaths) land.
    /// Installed by [`Self::set_session_sink`]; a join frame arriving
    /// with no sink is a protocol violation.
    session_sink: Mutex<Option<Arc<dyn SessionSink>>>,
}

impl MuxServer {
    /// Binds `addr` (port 0 for ephemeral) with default tuning and starts
    /// the accept thread, event loop, and dispatch pool.
    pub fn bind(
        addr: impl ToSocketAddrs,
        dispatcher: Arc<dyn Dispatcher>,
    ) -> std::io::Result<Arc<Self>> {
        Self::bind_with(addr, dispatcher, MuxServerConfig::default())
    }

    /// Binds with explicit tuning.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        dispatcher: Arc<dyn Dispatcher>,
        config: MuxServerConfig,
    ) -> std::io::Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let dispatch_threads = config.dispatch_threads.max(1);
        let server = Arc::new(MuxServer {
            local_addr,
            dispatcher,
            config,
            shutting_down: AtomicBool::new(false),
            accept_thread: Mutex::new(None),
            event_thread: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            live_conns: AtomicUsize::new(0),
            jobs: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            jobs_cv: Condvar::new(),
            completed: Mutex::new(Vec::new()),
            parked: AtomicBool::new(false),
            waker: Waker::new()?,
            accepted: AtomicU64::new(0),
            rejected_over_capacity: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            dropped_mid_call: AtomicU64::new(0),
            drop_permille: AtomicU64::new(0),
            fault_draws: Mutex::new(SplitMix64::new(0)),
            metrics: Arc::default(),
            bulk_sink: Mutex::new(None),
            session_sink: Mutex::new(None),
        });
        let for_accept = Arc::clone(&server);
        *server.accept_thread.lock().unwrap() = Some(
            std::thread::Builder::new()
                .name(format!("cca-mux-accept-{local_addr}"))
                .spawn(move || for_accept.accept_loop(listener))?,
        );
        let for_events = Arc::clone(&server);
        *server.event_thread.lock().unwrap() = Some(
            std::thread::Builder::new()
                .name(format!("cca-mux-events-{local_addr}"))
                .spawn(move || for_events.event_loop())?,
        );
        let mut workers = server.workers.lock().unwrap();
        for i in 0..dispatch_threads {
            let me = Arc::clone(&server);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cca-mux-work-{i}"))
                    .spawn(move || me.worker_loop())?,
            );
        }
        drop(workers);
        Ok(server)
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused because the live-connection bound was reached.
    pub fn rejected_over_capacity(&self) -> u64 {
        self.rejected_over_capacity.load(Ordering::Relaxed)
    }

    /// Requests the dispatch pool answered, with their reply queued to the
    /// wire. Bulk slabs never reach the pool; the loop counts them in
    /// [`MuxMetrics::bulk_loop_lands`].
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Connections deliberately hung up mid-call by the fault plan.
    pub fn dropped_mid_call(&self) -> u64 {
        self.dropped_mid_call.load(Ordering::Relaxed)
    }

    /// Server-side depth metrics: queued reply bytes, paused connections,
    /// dispatch in-flight.
    pub fn metrics(&self) -> &MuxMetrics {
        &self.metrics
    }

    /// Installs the data-plane sink: every decoded `Bulk` frame is handed
    /// to `sink` on the event loop, in the pass that decoded it and under
    /// the frame's trace context, and its returned bytes travel back as
    /// the `Reply` payload (normally an encoded
    /// [`crate::bulk::BulkAck`]). The sink therefore must not block: it
    /// holds up every connection the loop serves. A sink error closes the
    /// producing connection — the same blast radius as a framing
    /// violation — and no other. Without a sink, bulk frames are protocol
    /// violations.
    pub fn set_bulk_sink(&self, sink: Arc<dyn crate::bulk::BulkSink>) {
        *self.bulk_sink.lock().unwrap() = Some(sink);
    }

    /// Installs the fleet session sink: decoded `Join`/`Leave` frames are
    /// handed to `sink` on a dispatch worker (its returned bytes are the
    /// reply), and the death of any connection that joined is reported
    /// via [`SessionSink::disconnected`] from the reap pass. Without a
    /// sink, join/leave frames are protocol violations.
    pub fn set_session_sink(&self, sink: Arc<dyn SessionSink>) {
        *self.session_sink.lock().unwrap() = Some(sink);
    }

    /// Arms (or disarms with `drop_permille == 0`) the hostile-network
    /// fault plan: out of every 1000 requests (statistically),
    /// `drop_permille` have their connection closed after the request is
    /// read and before any reply is written — the worst moment. The
    /// schedule is a pure function of `seed`, drawn once per request in
    /// the order the event loop decodes them, so the CI fault matrix
    /// replays identically per `CCA_FAULT_SEED`.
    pub fn set_fault_plan(&self, seed: u64, drop_permille: u64) {
        *self.fault_draws.lock().unwrap() = SplitMix64::new(seed);
        self.drop_permille.store(drop_permille, Ordering::SeqCst);
    }

    fn should_drop(&self) -> bool {
        let permille = self.drop_permille.load(Ordering::SeqCst);
        if permille == 0 {
            return false;
        }
        self.fault_draws.lock().unwrap().next_below(1000) < permille
    }

    /// Call *after* publishing work (`completed`, `incoming`,
    /// `shutting_down`). A loop that is not parked re-checks all three
    /// before it parks, so the loaded path pays one swap and no syscall.
    fn wake_event_loop(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if self.live_conns.load(Ordering::SeqCst) >= self.config.max_connections {
                // Bounded accept concurrency: refuse outright rather than
                // queueing unbounded peers. The socket drops; the peer
                // sees EOF/reset and may retry against the breaker.
                self.rejected_over_capacity.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.accepted.fetch_add(1, Ordering::Relaxed);
            self.live_conns.fetch_add(1, Ordering::SeqCst);
            self.incoming.lock().unwrap().push(stream);
            self.wake_event_loop();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut queue = self.jobs.lock().unwrap();
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if queue.shutting_down {
                        return;
                    }
                    queue = self.jobs_cv.wait(queue).unwrap();
                }
            };
            // Dispatch errors mean the payload was undecodable — the
            // dispatcher marshals servant errors into replies — which is a
            // protocol violation. The reply is simply not produced; the
            // event loop closed (or will close) hostile connections via
            // framing errors, and a client that sent garbage inside a
            // valid frame would observe its call never completing against
            // its deadline. So that it fails at once instead, we enqueue a
            // sentinel close: the connection hangs up. A panic out of the
            // dispatcher or a sink is answered the same way, and the
            // worker goes on to the next job.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Adopt the caller's wire identity for the dispatch: the
                // ORB's dispatch span parents to the client's call span.
                let _ctx = cca_obs::install_context(job.context);
                match job.kind {
                    FrameKind::Join | FrameKind::Leave => {
                        // Fleet session plane: the sink's ack bytes are
                        // the reply. The sink is checked at decode time, so
                        // absence here means it was uninstalled mid-flight;
                        // the close sentinel handles that.
                        let sink = self.session_sink.lock().unwrap().clone();
                        match sink {
                            Some(sink) if job.kind == FrameKind::Join => {
                                sink.join(job.conn_id, job.payload).map(Bytes::from)
                            }
                            Some(sink) => sink.leave(job.conn_id, job.payload).map(Bytes::from),
                            None => Err(SidlError::user(
                                "cca.rpc.FleetViolation",
                                "no session sink installed",
                            )),
                        }
                    }
                    _ => self.dispatcher.dispatch(job.payload),
                }
            }));
            if outcome.is_err() {
                self.metrics.record_servant_panic();
            }
            // The event loop frames the reply onto the connection's write
            // buffer itself: one copy of the reply, on the one thread that
            // owns that buffer.
            self.completed.lock().unwrap().push(Completion {
                conn_id: job.conn_id,
                request_id: job.request_id,
                cost: job.cost,
                reply: outcome.ok().and_then(Result::ok),
            });
            self.metrics.record_end();
            self.wake_event_loop();
        }
    }

    /// The readiness loop. A pass registers new connections, routes
    /// completed replies, then flushes and reads with nonblocking calls;
    /// under load passes follow one another and the loop never parks. A
    /// pass that moved nothing parks the loop in `poll(2)`, with no
    /// timeout, on the waker plus every open connection (see
    /// [`Self::park`]), and the pass after a park visits only the
    /// connections that `poll` reported or a reply was routed to. Idle, the
    /// loop makes no passes at all.
    fn event_loop(self: Arc<Self>) {
        let mut conns: Vec<ServerConn> = Vec::new();
        let mut next_conn_id: u64 = 0;
        let mut poll_set: Vec<PollFd> = Vec::new();
        // The previous pass ended in a park: visit `ready` connections only.
        let mut after_park = false;
        // Per-read ceiling, sized for the bulk plane: megabyte slabs
        // arrive in a handful of reads instead of sixteen, and the loop
        // visits each connection that much less often per byte moved.
        const READ_CHUNK: usize = 256 << 10;
        loop {
            self.metrics.record_loop_pass();
            let mut progressed = false;

            // New connections, registered nonblocking.
            {
                let mut incoming = self.incoming.lock().unwrap();
                for stream in incoming.drain(..) {
                    if stream.set_nonblocking(true).is_err() {
                        self.live_conns.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    next_conn_id += 1;
                    conns.push(ServerConn {
                        id: next_conn_id,
                        stream,
                        decoder: FrameDecoder::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        pending_cost: 0,
                        paused: false,
                        closed: false,
                        joined: false,
                        ready: true,
                    });
                    progressed = true;
                }
            }

            // Completed dispatches into per-connection write buffers.
            {
                let mut completed = self.completed.lock().unwrap();
                for done in completed.drain(..) {
                    progressed = true;
                    // `conns` is sorted by id: ids only grow, registration
                    // appends, and the reap's `retain` keeps order.
                    let Ok(at) = conns.binary_search_by_key(&done.conn_id, |c| c.id) else {
                        continue; // connection died mid-dispatch
                    };
                    let conn = &mut conns[at];
                    if conn.closed {
                        continue;
                    }
                    conn.ready = true;
                    conn.pending_cost = conn.pending_cost.saturating_sub(done.cost);
                    let framed = done.reply.map(|reply| {
                        encode_frame_onto(
                            &mut conn.out,
                            FrameKind::Reply,
                            done.request_id,
                            &reply,
                            DEFAULT_MAX_PAYLOAD,
                            None,
                        )
                    });
                    if let Some(Ok(())) = framed {
                        self.dispatched.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Close sentinel or oversized reply: hang up.
                        conn.closed = true;
                    }
                }
            }

            let shutting_down = self.shutting_down.load(Ordering::SeqCst);

            for conn in conns.iter_mut() {
                if conn.closed || (after_park && !conn.ready) {
                    continue;
                }
                // Flush pending replies (nonblocking).
                while conn.out_pos < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            conn.closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.out_pos += n;
                            progressed = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.closed = true;
                            break;
                        }
                    }
                }
                if conn.out_pos == conn.out.len() && conn.out_pos > 0 {
                    conn.out.clear();
                    conn.out_pos = 0;
                }
                if conn.closed || shutting_down {
                    continue;
                }

                // Backpressure: a connection whose replies aren't draining
                // gets no further reads until the backlog clears.
                conn.paused = conn.backlog() > self.config.write_buffer_cap;
                if conn.paused {
                    continue;
                }

                // Read whatever is ready, straight into the decoder's
                // buffer — no scratch hop, the payload bytes are copied
                // exactly once between socket and frame.
                let mut visit_bytes = 0;
                loop {
                    match conn.decoder.fill_from(&mut conn.stream, READ_CHUNK) {
                        Ok(0) => {
                            conn.closed = true;
                            break;
                        }
                        Ok(n) => {
                            progressed = true;
                            if !self.drain_frames(conn) {
                                break;
                            }
                            // Keep reading only while the backlog is sane;
                            // a huge burst re-checks backpressure next pass.
                            // Slabs land without charging the backlog, so a
                            // visit's reads are capped too: one streaming
                            // peer cannot hold the loop from the others.
                            visit_bytes += n;
                            if conn.backlog() > self.config.write_buffer_cap
                                || visit_bytes > self.config.write_buffer_cap
                            {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.closed = true;
                            break;
                        }
                    }
                }
            }

            after_park = false;

            // Reap closed connections. A joined connection's death IS the
            // rank-death signal: report it before the conn is forgotten.
            let before = conns.len();
            let session_sink = if conns.iter().any(|c| c.closed && c.joined) {
                self.session_sink.lock().unwrap().clone()
            } else {
                None
            };
            conns.retain(|c| {
                if c.closed {
                    let _ = c.stream.shutdown(Shutdown::Both);
                    if c.joined {
                        if let Some(sink) = &session_sink {
                            sink.disconnected(c.id);
                        }
                    }
                }
                !c.closed
            });
            if conns.len() != before {
                self.live_conns
                    .fetch_sub(before - conns.len(), Ordering::SeqCst);
                progressed = true;
            }

            // Publish depth metrics once per pass (cheap stores).
            self.metrics
                .set_queued_bytes(conns.iter().map(|c| c.backlog() as u64).sum());
            self.metrics
                .set_paused_connections(conns.iter().filter(|c| c.paused).count() as u64);

            if shutting_down {
                // The pass above was the one final flush of whatever
                // replies had completed; now hang up on everyone. Workers
                // were already told to stop.
                for conn in &conns {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                return;
            }

            if !progressed {
                after_park = self.park(&mut conns, &mut poll_set);
            }
        }
    }

    /// Blocks the event loop until a pass has something to do, and marks
    /// the connections that pass must visit. Returns `false` when there was
    /// work already and the loop should make a full pass instead.
    ///
    /// Why no timeout is safe: bytes arriving on a socket end the `poll`
    /// themselves (it is level-triggered), and every other source of work
    /// (`completed`, `incoming`, `shutting_down`) is published *before*
    /// its producer calls [`Self::wake_event_loop`], while this function
    /// sets `parked` *before* it re-checks those three. Both sides are
    /// `SeqCst`, so either the producer's swap sees `parked` and writes
    /// the waker byte, or the re-check here sees the work; a wake-up
    /// cannot be lost.
    fn park(&self, conns: &mut [ServerConn], poll_set: &mut Vec<PollFd>) -> bool {
        self.parked.store(true, Ordering::SeqCst);
        let work_pending = !self.completed.lock().unwrap().is_empty()
            || !self.incoming.lock().unwrap().is_empty()
            || self.shutting_down.load(Ordering::SeqCst);
        if work_pending {
            self.parked.store(false, Ordering::SeqCst);
            return false;
        }
        let cap = self.config.write_buffer_cap;
        poll_set.clear();
        poll_set.push(self.waker.poll_fd());
        poll_set.extend(
            conns
                .iter()
                .map(|c| PollFd::new(c.stream.as_raw_fd(), c.poll_events(cap))),
        );
        self.metrics.record_loop_park();
        let polled = readiness::wait(poll_set, None);
        self.parked.store(false, Ordering::SeqCst);
        if polled.is_err() {
            // The kernel refused the set (out of memory): fall back to a
            // full pass of nonblocking attempts.
            return false;
        }
        if poll_set[0].revents() != 0 {
            self.waker.drain();
        }
        for (conn, polled) in conns.iter_mut().zip(&poll_set[1..]) {
            conn.ready = polled.revents() != 0;
            // A dead socket is reported whatever was asked for. With
            // `POLLIN` alongside, the read below drains what the peer
            // sent and meets the EOF or error itself; without it (reads
            // paused) nothing would, and the loop would spin on the
            // hang-up, so close here.
            let dead = polled.revents() & (POLLERR | POLLHUP | POLLNVAL) != 0;
            if dead && polled.revents() & POLLIN == 0 {
                conn.closed = true;
            }
        }
        true
    }

    /// Decodes every complete frame buffered on `conn`; returns `false`
    /// when the connection must close (violation or armed fault).
    fn drain_frames(&self, conn: &mut ServerConn) -> bool {
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(Frame {
                    kind:
                        kind @ (FrameKind::Request
                        | FrameKind::Bulk
                        | FrameKind::Join
                        | FrameKind::Leave),
                    request_id,
                    context,
                    payload,
                })) => {
                    let bulk_sink = match kind {
                        FrameKind::Bulk => self.bulk_sink.lock().unwrap().clone(),
                        _ => None,
                    };
                    if kind == FrameKind::Bulk && bulk_sink.is_none() {
                        // Data-plane frame at a server with no data plane:
                        // protocol violation, same as a client reply.
                        self.metrics.record_protocol_violation();
                        conn.closed = true;
                        return false;
                    }
                    if matches!(kind, FrameKind::Join | FrameKind::Leave)
                        && self.session_sink.lock().unwrap().is_none()
                    {
                        // Fleet frame at a server with no fleet: protocol
                        // violation, same blast radius as above.
                        self.metrics.record_protocol_violation();
                        conn.closed = true;
                        return false;
                    }
                    if kind == FrameKind::Join {
                        // Marked at decode time, not dispatch time, so a
                        // death between the two is still reported.
                        conn.joined = true;
                    }
                    if self.should_drop() {
                        self.dropped_mid_call.fetch_add(1, Ordering::Relaxed);
                        cca_obs::trace_instant("rpc.mux.injected_drop");
                        conn.closed = true;
                        return false;
                    }
                    if let Some(sink) = bulk_sink {
                        // Landed here, after the fault draw, so a seed's
                        // drop schedule is the same whatever lands.
                        if !self.land(conn, &*sink, request_id, context, payload) {
                            return false;
                        }
                        continue;
                    }
                    self.metrics.record_begin();
                    // Charge at least the header so a flood of empty
                    // requests still accumulates backlog.
                    let cost = payload.len() + FRAME_HEADER_LEN;
                    conn.pending_cost += cost;
                    self.jobs.lock().unwrap().jobs.push_back(Job {
                        conn_id: conn.id,
                        request_id,
                        kind,
                        context,
                        payload,
                        cost,
                    });
                    self.jobs_cv.notify_one();
                }
                Ok(Some(_)) => {
                    // A reply frame from a client: mux violation — this
                    // connection dies, others are untouched.
                    self.metrics.record_protocol_violation();
                    conn.closed = true;
                    return false;
                }
                Ok(None) => return true,
                Err(_) => {
                    // Framing violation: no resync point, hang up.
                    conn.closed = true;
                    return false;
                }
            }
        }
    }

    /// Lands one `Bulk` frame on the event loop: the sink validates and
    /// scatters the slab under the frame's trace context, and its ack is
    /// framed onto the connection's write buffer. Safe on the loop because
    /// a sink never waits (see [`crate::bulk::BulkSink`]). Returns `false`,
    /// with the connection marked closed, when the sink refuses the slab
    /// or panics: a panicking sink costs its own connection, as a refused
    /// slab does, and the loop serves every other one on.
    fn land(
        &self,
        conn: &mut ServerConn,
        sink: &dyn crate::bulk::BulkSink,
        request_id: u64,
        context: Option<TraceContext>,
        payload: Bytes,
    ) -> bool {
        let landed = catch_unwind(AssertUnwindSafe(|| {
            let _ctx = cca_obs::install_context(context);
            sink.receive(payload)
        }));
        if landed.is_err() {
            self.metrics.record_servant_panic();
        }
        let framed = landed.ok().and_then(Result::ok).map(|ack| {
            encode_frame_onto(
                &mut conn.out,
                FrameKind::Reply,
                request_id,
                &ack,
                DEFAULT_MAX_PAYLOAD,
                None,
            )
        });
        if let Some(Ok(())) = framed {
            self.metrics.record_bulk_loop_land();
            true
        } else {
            // Refused slab, panicking sink or oversized ack: hang up on
            // this peer only.
            conn.closed = true;
            false
        }
    }

    /// Stops the server: closes the listener path, tells workers and the
    /// event loop to exit, closes every live connection, joins every
    /// thread. Returns the number of threads joined; idempotent — later
    /// calls return 0.
    pub fn shutdown(&self) -> usize {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return 0;
        }
        // Unblock the accept thread.
        let _ = TcpStream::connect(self.local_addr);
        // Tell the workers to finish the queue and exit.
        {
            let mut queue = self.jobs.lock().unwrap();
            queue.shutting_down = true;
        }
        self.jobs_cv.notify_all();
        self.wake_event_loop();
        let mut joined = 0;
        if let Some(h) = self.accept_thread.lock().unwrap().take() {
            let _ = h.join();
            joined += 1;
        }
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
            joined += 1;
        }
        if let Some(h) = self.event_thread.lock().unwrap().take() {
            let _ = h.join();
            joined += 1;
        }
        joined
    }
}

impl Drop for MuxServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::orb::{ObjRef, Orb};
    use cca_sidl::{DynObject, DynValue};

    struct Doubler;
    impl DynObject for Doubler {
        fn sidl_type(&self) -> &str {
            "demo.Doubler"
        }
        fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "double" => Ok(DynValue::Double(args[0].as_double()? * 2.0)),
                other => Err(SidlError::invoke(format!("no method '{other}'"))),
            }
        }
    }

    struct Echo;
    impl Dispatcher for Echo {
        fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
            Ok(request)
        }
    }

    fn serve() -> (Arc<MuxServer>, Arc<Orb>) {
        let orb = Orb::new();
        orb.register("doubler", Arc::new(Doubler));
        let server = MuxServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
            .expect("bind ephemeral port");
        (server, orb)
    }

    #[test]
    fn invocation_crosses_the_mux_stack() {
        let (server, _orb) = serve();
        let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        let r = objref
            .invoke("double", vec![DynValue::Double(21.0)])
            .unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 42.0));
        assert!(server.shutdown() >= 3);
        assert_eq!(server.dispatched(), 1);
    }

    #[test]
    fn user_exceptions_cross_the_socket() {
        let (server, _orb) = serve();
        let objref = ObjRef::tcp("doubler", server.local_addr().to_string());
        let e = objref.invoke("missing", vec![]).unwrap_err();
        assert!(e.to_string().contains("SystemException"), "{e}");
        server.shutdown();
    }

    #[test]
    fn many_pipelined_calls_share_one_socket() {
        let (server, _orb) = serve();
        let transport =
            Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(1));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        for i in 0..100 {
            let r = objref
                .invoke("double", vec![DynValue::Double(i as f64)])
                .unwrap();
            assert!(matches!(r, DynValue::Double(v) if v == 2.0 * i as f64));
        }
        assert_eq!(transport.metrics().dials(), 1, "one socket, 100 calls");
        assert_eq!(server.connections_accepted(), 1);
        server.shutdown();
        assert_eq!(server.dispatched(), 100);
    }

    #[test]
    fn dial_failure_is_a_typed_connection_error() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t = MuxTransport::new(dead.to_string());
        let e = t.call(Bytes::from_static(b"x")).unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.live_connections(), 0);
    }

    /// The next frame off a raw peer socket; `None` once the other end
    /// hangs up or sends bytes that are not a frame.
    fn recv_frame(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Option<Frame> {
        loop {
            if let Some(frame) = dec.next_frame().ok()? {
                return Some(frame);
            }
            if dec.fill_from(stream, 64 << 10).ok()? == 0 {
                return None;
            }
        }
    }

    /// Frames `payload` and writes it whole to a raw peer socket.
    fn send_frame(stream: &mut TcpStream, kind: FrameKind, id: u64, payload: &[u8]) {
        let framed = encode_frame(kind, id, payload, DEFAULT_MAX_PAYLOAD).unwrap();
        stream.write_all(&framed).unwrap();
    }

    /// A fake server that reads request frames and answers them however
    /// `reply_for` says — the tool for protocol-violation tests.
    fn hostile_server(
        reply_for: impl Fn(u64) -> Vec<(u64, Vec<u8>)> + Send + 'static,
    ) -> SocketAddr {
        fake_peer(move |_, mut stream| {
            let mut dec = FrameDecoder::new();
            while let Some(frame) = recv_frame(&mut stream, &mut dec) {
                for (id, payload) in reply_for(frame.request_id) {
                    let framed = encode_frame(FrameKind::Reply, id, &payload, DEFAULT_MAX_PAYLOAD);
                    if stream.write_all(&framed.unwrap()).is_err() {
                        return;
                    }
                }
            }
        })
    }

    #[test]
    fn unknown_request_id_kills_only_that_connection() {
        // Every reply bears a fabricated id the client never issued.
        let addr = hostile_server(|id| vec![(id + 1_000_000, b"boo".to_vec())]);
        let t = MuxTransport::new(addr.to_string()).with_connections(1);
        let e = t.call(Bytes::from_static(b"ping")).unwrap_err();
        match &e {
            SidlError::UserException {
                exception_type,
                message,
            } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
                assert!(
                    message.contains("unknown or already-completed"),
                    "{message}"
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.mux_metrics().protocol_violations(), 1);
        // The transport heals by re-dialing a fresh connection: the next
        // call fails the same way (server is still hostile) but on a new
        // socket, proving the poisoned connection was not reused.
        let _ = t.call(Bytes::from_static(b"ping")).unwrap_err();
        assert_eq!(t.metrics().dials(), 2);
    }

    #[test]
    fn duplicate_reply_id_is_a_violation_that_fails_in_flight_calls() {
        // Requests are answered correctly, then answered AGAIN: the second
        // delivery hits an already-completed id.
        let addr = hostile_server(|id| vec![(id, b"first".to_vec()), (id, b"second".to_vec())]);
        let t = Arc::new(MuxTransport::new(addr.to_string()).with_connections(1));
        // Two calls in flight on one connection. The first gets its reply;
        // the duplicate delivery then hits an already-completed id and
        // kills the connection, failing the second call with a typed
        // error — never cross-delivering "second" to it.
        let a = t.submit(Bytes::from_static(b"a")).unwrap();
        let b = t.submit(Bytes::from_static(b"b"));
        assert_eq!(a.wait().unwrap(), Bytes::from_static(b"first"));
        // Depending on scheduling, `b` failed at submit (connection
        // already torn down) or fails at wait; either way the error is
        // the typed connection failure.
        let e = match b {
            Ok(pending) => pending.wait().unwrap_err(),
            Err(e) => e,
        };
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        assert!(t.mux_metrics().protocol_violations() >= 1);
    }

    #[test]
    fn connection_death_fans_the_error_to_every_in_flight_call() {
        // A server that swallows exactly five requests without replying,
        // then slams the door — so the door slams only once all five
        // calls are in flight.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_requests(&mut stream, &mut FrameDecoder::new(), 5);
            let _ = stream.shutdown(Shutdown::Both);
        });
        let t = MuxTransport::new(addr.to_string()).with_connections(1);
        let pending: Vec<_> = (0..5)
            .map(|_| t.submit(Bytes::from_static(b"payload")).unwrap())
            .collect();
        for p in pending {
            let e = p.wait().unwrap_err();
            match e {
                SidlError::UserException { exception_type, .. } => {
                    assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            t.mux_metrics().peak_in_flight(),
            5,
            "all five were concurrently in flight"
        );
        assert_eq!(t.mux_metrics().in_flight(), 0, "fan-out drained the gauge");
    }

    /// A fake peer on its own thread: serves the `i`-th accepted
    /// connection (counting from 0) with `serve(i, stream)`.
    fn fake_peer(serve: impl Fn(usize, TcpStream) + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { break };
                serve(i, stream);
            }
        });
        addr
    }

    /// Reads request frames off a fake peer's socket until `n` arrived.
    fn read_requests(stream: &mut TcpStream, dec: &mut FrameDecoder, n: usize) -> Vec<Frame> {
        let mut frames = Vec::new();
        while frames.len() < n {
            match dec.next_frame().unwrap() {
                Some(frame) => frames.push(frame),
                None => assert!(dec.fill_from(stream, 64 << 10).unwrap() > 0, "client left"),
            }
        }
        frames
    }

    /// The reply frame echoing `request`'s payload under its id.
    fn echo_frame(request: &Frame) -> Vec<u8> {
        let id = request.request_id;
        encode_frame(FrameKind::Reply, id, &request.payload, DEFAULT_MAX_PAYLOAD).unwrap()
    }

    #[test]
    fn a_reply_written_one_byte_per_write_reaches_its_caller() {
        let addr = fake_peer(|_, mut stream| {
            stream.set_nodelay(true).unwrap();
            let request = &read_requests(&mut stream, &mut FrameDecoder::new(), 1)[0];
            for byte in echo_frame(request) {
                stream.write_all(&[byte]).unwrap();
            }
        });
        let t = MuxTransport::new(addr.to_string()).with_connections(1);
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let reply = t.call(Bytes::from(payload.clone())).unwrap();
        assert_eq!(reply.as_slice(), &payload[..]);
    }

    #[test]
    fn replies_written_in_one_burst_in_reverse_order_each_reach_their_caller() {
        const CALLS: usize = 256;
        let addr = fake_peer(|_, mut stream| {
            let requests = read_requests(&mut stream, &mut FrameDecoder::new(), CALLS);
            let burst: Vec<u8> = requests.iter().rev().flat_map(echo_frame).collect();
            stream.write_all(&burst).unwrap();
        });
        let t = MuxTransport::new(addr.to_string()).with_connections(1);
        // Every payload opens with its call's index; a quarter carry 8 KiB.
        let payloads: Vec<Vec<u8>> = (0..CALLS)
            .map(|i| {
                let mut p = (i as u32).to_le_bytes().to_vec();
                p.resize(if i % 4 == 0 { 8 << 10 } else { 16 }, i as u8);
                p
            })
            .collect();
        let pending: Vec<_> = payloads
            .iter()
            .map(|p| t.submit(Bytes::from(p.clone())).unwrap())
            .collect();
        for (p, payload) in pending.into_iter().zip(&payloads) {
            assert_eq!(p.wait().unwrap().as_slice(), &payload[..]);
        }
        assert_eq!(t.metrics().dials(), 1);
    }

    #[test]
    fn a_reply_cut_mid_payload_fails_every_call_in_flight_and_the_next_call_redials() {
        let addr = fake_peer(|conn, mut stream| {
            let mut dec = FrameDecoder::new();
            if conn > 0 {
                let request = &read_requests(&mut stream, &mut dec, 1)[0];
                stream.write_all(&echo_frame(request)).unwrap();
                return;
            }
            // Three calls in flight; the header of one reply and half its
            // payload arrive, then the peer hangs up.
            let requests = read_requests(&mut stream, &mut dec, 3);
            let whole = echo_frame(&requests[1]);
            let cut = FRAME_HEADER_LEN + (whole.len() - FRAME_HEADER_LEN) / 2;
            stream.write_all(&whole[..cut]).unwrap();
            stream.shutdown(Shutdown::Both).unwrap();
        });
        let t = MuxTransport::new(addr.to_string()).with_connections(1);
        let payload = Bytes::from(vec![9u8; 100]);
        let pending: Vec<_> = (0..3).map(|_| t.submit(payload.clone()).unwrap()).collect();
        for p in pending {
            match p.wait().unwrap_err() {
                SidlError::UserException { exception_type, .. } => {
                    assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(t.call(payload.clone()).unwrap(), payload);
        assert_eq!(t.metrics().dials(), 2, "the next call re-dialed");
    }

    #[test]
    fn deadline_abandons_the_call_without_killing_the_connection() {
        struct Sleepy;
        impl Dispatcher for Sleepy {
            fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
                std::thread::sleep(Duration::from_millis(80));
                Ok(request)
            }
        }
        let server = MuxServer::bind("127.0.0.1:0", Arc::new(Sleepy)).unwrap();
        let t = MuxTransport::new(server.local_addr().to_string())
            .with_connections(1)
            .with_io_timeout(Duration::from_millis(10));
        let e = t.call(Bytes::from_static(b"slow")).unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, DEADLINE_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        // The late reply lands on a tombstone: the connection survives and
        // the next (patient) call reuses it.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(t.live_connections(), 1, "tombstoned reply kept the socket");
        assert_eq!(
            t.mux_metrics().protocol_violations(),
            0,
            "a late reply to an abandoned call is not a violation"
        );
        server.shutdown();
    }

    /// Runs `f` on its own thread and waits at most a second for its
    /// result: a call that never completes fails the test instead of
    /// hanging it.
    fn within_a_second<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(1))
            .expect("no answer within a second")
    }

    #[test]
    fn a_panicking_servant_is_answered_with_a_typed_exception() {
        struct Bomb;
        impl DynObject for Bomb {
            fn sidl_type(&self) -> &str {
                "demo.Bomb"
            }
            fn invoke(&self, _: &str, _: Vec<DynValue>) -> Result<DynValue, SidlError> {
                panic!("servant blew up");
            }
        }
        let orb = Orb::new();
        orb.register("bomb", Arc::new(Bomb));
        let server = MuxServer::bind("127.0.0.1:0", orb).unwrap();
        // No io_timeout: only a reply ends this call.
        let objref = ObjRef::tcp("bomb", server.local_addr().to_string());
        match within_a_second(move || objref.invoke("go", vec![])).unwrap_err() {
            SidlError::UserException {
                exception_type,
                message,
            } => {
                assert_eq!(exception_type, crate::SERVANT_PANIC_TYPE);
                assert!(message.contains("servant blew up"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_panicking_dispatch_costs_one_connection_not_a_worker() {
        struct Fragile;
        impl Dispatcher for Fragile {
            fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
                assert!(&request[..] != b"boom", "dispatcher blew up");
                Ok(request)
            }
        }
        const WORKERS: usize = 2;
        let server = MuxServer::bind_with(
            "127.0.0.1:0",
            Arc::new(Fragile),
            MuxServerConfig {
                dispatch_threads: WORKERS,
                ..MuxServerConfig::default()
            },
        )
        .unwrap();
        let t = Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(1));
        for _ in 0..2 * WORKERS {
            let t = Arc::clone(&t);
            let e = within_a_second(move || t.call(Bytes::from_static(b"boom"))).unwrap_err();
            match e {
                SidlError::UserException { exception_type, .. } => {
                    assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
                }
                other => panic!("{other:?}"),
            }
        }
        let healthy = within_a_second(move || t.call(Bytes::from_static(b"fine")));
        assert_eq!(healthy.unwrap(), Bytes::from_static(b"fine"));
        server.shutdown();
    }

    #[test]
    fn backpressure_pauses_reading_a_connection_that_wont_drain() {
        // Echo large payloads through a tiny write buffer while the client
        // refuses to read: the server must stop reading (dispatch stalls)
        // instead of buffering without bound, then finish once the client
        // drains.
        let server = MuxServer::bind_with(
            "127.0.0.1:0",
            Arc::new(Echo),
            MuxServerConfig {
                write_buffer_cap: 64 << 10,
                ..MuxServerConfig::default()
            },
        )
        .unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Enough volume that loopback kernel buffers cannot absorb it all:
        // the server must either buffer it (what the cap forbids) or pause.
        // With autotuning, each direction can swallow up to wmem_max +
        // rmem_max (32 MiB rmem here), so the request and reply paths
        // together can hide ~70 MiB — 128 MiB keeps the stall observable.
        let payload = vec![7u8; 128 << 10];
        const SENT: u64 = 1024;
        // Write from a helper thread: once the server pauses reads and the
        // kernel buffers fill, these writes block — exactly the condition
        // under test — and unblock when the main thread starts draining.
        let mut write_half = stream.try_clone().unwrap();
        let body = payload.clone();
        let writer = std::thread::spawn(move || {
            for id in 0..SENT {
                send_frame(&mut write_half, FrameKind::Request, id, &body);
            }
        });
        // Give the server time to read as much as it will: with a 64 KiB
        // cap on 128 KiB echoes and a stubborn client, it cannot come
        // close to finishing all 1024.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().pause_events() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            server.metrics().pause_events() > 0,
            "a non-draining connection must pause reads"
        );
        assert!(
            server.dispatched() < SENT,
            "dispatch must stall behind backpressure, got {}",
            server.dispatched()
        );

        // Drain: read every reply; the server resumes and finishes them all.
        let mut got = 0u64;
        let mut dec = FrameDecoder::new();
        while got < SENT {
            let frame = recv_frame(&mut stream, &mut dec).expect("reply");
            assert_eq!(frame.payload.len(), payload.len());
            got += 1;
        }
        writer.join().unwrap();
        server.shutdown();
        assert_eq!(server.dispatched(), SENT);
    }

    /// `n` raw peers, each registered with the event loop (one echo
    /// answered proves it, where `connections_accepted` would only prove
    /// the accept thread saw it).
    fn registered_peers(server: &MuxServer, n: u64) -> Vec<TcpStream> {
        (0..n)
            .map(|id| {
                let mut peer = TcpStream::connect(server.local_addr()).unwrap();
                send_frame(&mut peer, FrameKind::Request, id, b"hi");
                let reply = recv_frame(&mut peer, &mut FrameDecoder::new()).unwrap();
                assert_eq!(reply.request_id, id);
                peer
            })
            .collect()
    }

    /// Waits for the event loop to stop making passes and returns the
    /// count it stopped at.
    fn settled_passes(server: &MuxServer) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let before = server.metrics().loop_passes();
            std::thread::sleep(Duration::from_millis(20));
            if server.metrics().loop_passes() == before {
                return before;
            }
            assert!(Instant::now() < deadline, "the event loop never went quiet");
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(1);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn an_idle_server_makes_no_passes() {
        let server = MuxServer::bind("127.0.0.1:0", Arc::new(Echo)).unwrap();
        let _peers = registered_peers(&server, 8);
        let before = settled_passes(&server);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            server.metrics().loop_passes(),
            before,
            "an idle loop sits in poll, it does not tick"
        );
        server.shutdown();
    }

    #[test]
    fn a_sequential_call_costs_a_few_passes_however_many_idle_peers_there_are() {
        const CALLS: u64 = 200;
        for idle in [0, 64] {
            let server = MuxServer::bind("127.0.0.1:0", Arc::new(Echo)).unwrap();
            let _peers = registered_peers(&server, idle);
            let t = MuxTransport::new(server.local_addr().to_string()).with_connections(1);
            t.call(Bytes::from_static(b"dial")).unwrap();
            let before = settled_passes(&server);
            for _ in 0..CALLS {
                t.call(Bytes::from_static(b"ping")).unwrap();
            }
            // Request in, a look that finds nothing, completion out,
            // another look; a stale waker byte can add one more of each.
            let passes = server.metrics().loop_passes() - before;
            assert!(
                passes <= 6 * CALLS,
                "{passes} passes for {CALLS} calls beside {idle} idle peers"
            );
            server.shutdown();
        }
    }

    #[test]
    fn a_paused_connection_whose_peer_hangs_up_is_reaped_without_spinning() {
        // Answers the first request at once and holds the rest in the
        // workers, so the connection ends up paused on unanswered requests
        // alone, with nothing to write and reads off: the one state where
        // only the hang-up `poll` reports unasked can tell the loop the
        // peer is gone.
        struct Gate {
            seen: AtomicU64,
            open: Mutex<bool>,
            opened: Condvar,
        }
        impl Dispatcher for Gate {
            fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
                if self.seen.fetch_add(1, Ordering::SeqCst) > 0 {
                    let mut open = self.open.lock().unwrap();
                    while !*open {
                        open = self.opened.wait(open).unwrap();
                    }
                }
                Ok(request)
            }
        }
        let gate = Arc::new(Gate {
            seen: AtomicU64::new(0),
            open: Mutex::new(false),
            opened: Condvar::new(),
        });
        let server = MuxServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&gate) as Arc<dyn Dispatcher>,
            MuxServerConfig {
                write_buffer_cap: 1 << 10,
                ..MuxServerConfig::default()
            },
        )
        .unwrap();

        let mut peer = TcpStream::connect(server.local_addr()).unwrap();
        send_frame(&mut peer, FrameKind::Request, 0, b"first");
        // Wait for the reply without consuming it: closing a socket with
        // unread bytes sends a reset, not a polite FIN.
        assert_eq!(peer.peek(&mut [0u8; 1]).unwrap(), 1);
        for id in 1..=4 {
            send_frame(&mut peer, FrameKind::Request, id, &[0u8; 1 << 10]);
        }
        wait_until("the connection is paused", || {
            server.metrics().paused_connections() == 1
        });
        let before = settled_passes(&server);

        drop(peer);
        wait_until("the dead connection is reaped", || {
            server.live_conns.load(Ordering::SeqCst) == 0
        });
        let passes = settled_passes(&server) - before;
        assert!(passes <= 4, "{passes} passes to reap one hung-up peer");

        *gate.open.lock().unwrap() = true;
        gate.opened.notify_all();
        server.shutdown();
    }

    #[test]
    fn accept_bound_refuses_excess_connections() {
        let server = MuxServer::bind_with(
            "127.0.0.1:0",
            Arc::new(Echo),
            MuxServerConfig {
                max_connections: 2,
                ..MuxServerConfig::default()
            },
        )
        .unwrap();
        let keep: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        // Wait until both are registered live.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connections_accepted() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Excess dials connect at the TCP level but are refused (closed)
        // without registration.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.rejected_over_capacity() == 0 && Instant::now() < deadline {
            let _ = TcpStream::connect(server.local_addr());
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(server.rejected_over_capacity() > 0);
        assert_eq!(server.connections_accepted(), 2);
        drop(keep);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_all_threads() {
        let (server, _orb) = serve();
        let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        objref
            .invoke("double", vec![DynValue::Double(1.0)])
            .unwrap();
        // accept + event loop + 4 default workers.
        assert_eq!(server.shutdown(), 6);
        assert_eq!(server.shutdown(), 0);
        assert!(objref
            .invoke("double", vec![DynValue::Double(1.0)])
            .is_err());
    }
}

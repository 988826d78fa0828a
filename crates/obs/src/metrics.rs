//! Per-port metrics: invocation counters, connection churn, fan-out width,
//! and log2 latency histograms.
//!
//! Everything on a record path is a relaxed atomic — **zero allocations
//! per call** (pinned by `crates/bench/tests/alloc_free.rs`). Structural
//! bookkeeping (creating a shard, snapshotting) may allocate; it happens
//! off the steady-state call path.
//!
//! Call counting comes in two flavors:
//!
//! * [`PortMetrics::record_direct_call`] — a relaxed `fetch_add`, used by
//!   the uncached `getPort` paths and fan-out multicast, which are already
//!   map-lookup-heavy;
//! * [`CallShard`] — a single-writer cell a `CachedPort` owns. The §6.2
//!   steady state then records with one relaxed **store** (no RMW bus
//!   lock), which is what keeps the counters-on call within 1.5× of the
//!   uninstrumented call (gated by `e10_obs_overhead`). Readers sum the
//!   shards; no increments are ever lost because each shard has exactly
//!   one writer (`CachedPort::get` takes `&mut self`).

use crate::counters::counter_block;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BUCKETS: usize = 32;

/// A fixed-bucket log2 latency histogram. Bucket `i` counts samples with
/// `floor(log2(ns)) == i`, saturating at the last bucket (≥ ~2.1 s).
/// Recording is one relaxed `fetch_add` per sample — allocation-free.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// The bucket index for a sample (0 for 0–1 ns, then `floor(log2)`).
    #[inline]
    fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one latency sample. Relaxed atomics, no allocation.
    #[inline]
    fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (buckets are read relaxed;
    /// concurrent recording may skew totals by in-flight samples).
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket sample counts (`buckets[i]` ⇔ `floor(log2(ns)) == i`).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
}

impl LatencySnapshot {
    /// Mean latency in nanoseconds (0.0 when empty).
    fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Compact JSON: only non-empty buckets, as `[bucket_index, count]`.
    pub fn to_json(&self) -> String {
        let mut pairs = String::new();
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                if !pairs.is_empty() {
                    pairs.push(',');
                }
                pairs.push_str(&format!("[{i},{b}]"));
            }
        }
        format!(
            "{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{:.1},\"log2_buckets\":[{pairs}]}}",
            self.count,
            self.sum_ns,
            self.mean_ns()
        )
    }
}

/// A single-writer call counter cell.
///
/// Exactly one `CachedPort` owns a shard and bumps it with a relaxed
/// load+store (no RMW); any reader may sum shards at any time. Shards
/// outlive their writer so counts survive reconnection churn.
pub struct CallShard {
    count: AtomicU64,
}

impl CallShard {
    /// Single-writer increment: one relaxed load + one relaxed store.
    /// Calling this from more than one thread loses increments — it is
    /// only handed out via [`PortMetrics::call_shard`] to `&mut self`
    /// owners.
    #[inline]
    pub fn bump(&self) {
        let n = self.count.load(Ordering::Relaxed);
        self.count.store(n + 1, Ordering::Relaxed);
    }

    /// The shard's current count.
    pub fn value(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Metrics of one port-table slot (a uses slot or a provides handle).
///
/// Lives behind an `Arc` inside the slot so copy-on-write snapshot
/// republication (PR 1's `Arc`-snapshot tables) shares one instance across
/// generations: counters survive reconnects, and readers never block
/// writers.
///
/// Connection-shape metrics (connects, disconnects, churn, fan-out) are
/// recorded **unconditionally** — they change only on rare table mutations.
/// Per-call metrics (calls, latency) are gated behind
/// [`crate::counters_enabled`] by the callers in `cca-core`.
pub struct PortMetrics {
    direct_calls: AtomicU64,
    connects: AtomicU64,
    disconnects: AtomicU64,
    churn: AtomicU64,
    fan_out: AtomicU64,
    max_fan_out: AtomicU64,
    resolutions: AtomicU64,
    latency: LatencyHistogram,
    shards: Mutex<Vec<Arc<CallShard>>>,
}

impl PortMetrics {
    /// Creates a zeroed metrics block.
    pub fn new() -> Arc<Self> {
        Arc::new(PortMetrics {
            direct_calls: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            churn: AtomicU64::new(0),
            fan_out: AtomicU64::new(0),
            max_fan_out: AtomicU64::new(0),
            resolutions: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            shards: Mutex::new(Vec::new()),
        })
    }

    /// Registers a new single-writer call shard (used by `CachedPort` at
    /// resolution time — off the per-call path).
    pub fn call_shard(&self) -> Arc<CallShard> {
        let shard = Arc::new(CallShard {
            count: AtomicU64::new(0),
        });
        self.shards.lock().push(Arc::clone(&shard));
        shard
    }

    /// Counts one invocation on the slow (uncached) path.
    #[inline]
    pub fn record_direct_call(&self) {
        self.direct_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one successful port resolution (`getPort`/downcast).
    #[inline]
    pub fn record_resolution(&self) {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one call latency sample into the log2 histogram.
    #[inline]
    pub fn record_latency_ns(&self, ns: u64) {
        self.latency.record_ns(ns);
    }

    /// Records a connection being attached; `fan_out` is the slot's new
    /// listener-list width.
    pub fn record_connect(&self, fan_out: u64) {
        self.connects.fetch_add(1, Ordering::Relaxed);
        self.churn.fetch_add(1, Ordering::Relaxed);
        self.fan_out.store(fan_out, Ordering::Relaxed);
        self.max_fan_out.fetch_max(fan_out, Ordering::Relaxed);
    }

    /// Records `dropped` connections being detached; `fan_out` is the new
    /// width.
    pub fn record_disconnect(&self, dropped: u64, fan_out: u64) {
        self.disconnects.fetch_add(dropped, Ordering::Relaxed);
        self.churn.fetch_add(1, Ordering::Relaxed);
        self.fan_out.store(fan_out, Ordering::Relaxed);
    }

    /// Total calls: the slow-path counter plus every shard.
    pub fn calls(&self) -> u64 {
        let sharded: u64 = self.shards.lock().iter().map(|s| s.value()).sum();
        self.direct_calls.load(Ordering::Relaxed) + sharded
    }

    /// The latency histogram (for direct recording by instrumented
    /// callers, e.g. the RPC transport or timed multicast).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> PortMetricsSnapshot {
        PortMetricsSnapshot {
            calls: self.calls(),
            connects: self.connects.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            churn: self.churn.load(Ordering::Relaxed),
            fan_out: self.fan_out.load(Ordering::Relaxed),
            max_fan_out: self.max_fan_out.load(Ordering::Relaxed),
            resolutions: self.resolutions.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

impl std::fmt::Debug for PortMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortMetrics")
            .field("calls", &self.calls())
            .field("fan_out", &self.fan_out.load(Ordering::Relaxed))
            .field("churn", &self.churn.load(Ordering::Relaxed))
            .finish()
    }
}

/// A point-in-time copy of one port's [`PortMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortMetricsSnapshot {
    /// Total invocations observed (cached shards + slow path).
    pub calls: u64,
    /// Connections attached over the slot's lifetime.
    pub connects: u64,
    /// Connections detached over the slot's lifetime.
    pub disconnects: u64,
    /// Table mutations that touched this slot (generation churn).
    pub churn: u64,
    /// Current listener-list width.
    pub fan_out: u64,
    /// High-water listener-list width.
    pub max_fan_out: u64,
    /// Successful resolutions (`getPort` + downcast, or provides hand-outs).
    pub resolutions: u64,
    /// Call latency histogram (populated only by timed paths).
    pub latency: LatencySnapshot,
}

impl PortMetricsSnapshot {
    /// JSON rendering (object; stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"calls\":{},\"connects\":{},\"disconnects\":{},\"churn\":{},\
             \"fan_out\":{},\"max_fan_out\":{},\"resolutions\":{},\"latency\":{}}}",
            self.calls,
            self.connects,
            self.disconnects,
            self.churn,
            self.fan_out,
            self.max_fan_out,
            self.resolutions,
            self.latency.to_json()
        )
    }
}

/// RPC transport metrics: payload bytes each way, round trips, per-method
/// round-trip counts, and a round-trip latency histogram. Lives on the ORB
/// (server side counts at dispatch) and on each `ObjRef` (client side), so
/// E3's ORB baseline and the direct-connect path report comparable numbers.
#[derive(Default)]
pub struct TransportMetrics {
    round_trips: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    dials: AtomicU64,
    connection_drops: AtomicU64,
    servant_panics: AtomicU64,
    latency: LatencyHistogram,
    per_method: Mutex<BTreeMap<String, u64>>,
}

impl TransportMetrics {
    /// Creates a zeroed block.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one request/reply exchange. The per-method map may allocate
    /// on first sight of a method name — acceptable on the RPC path, which
    /// marshals into fresh buffers anyway.
    pub fn record_round_trip(&self, method: &str, bytes_out: u64, bytes_in: u64, dur_ns: u64) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        self.latency.record_ns(dur_ns);
        let mut map = self.per_method.lock();
        match map.get_mut(method) {
            Some(n) => *n += 1,
            None => {
                map.insert(method.to_string(), 1);
            }
        }
    }

    /// Total exchanges.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Records one socket dial attempt (successful or not). Like connection
    /// churn in [`PortMetrics`], dials are rare structural events and are
    /// recorded unconditionally — not gated by [`crate::counters_enabled`].
    pub fn record_dial(&self) {
        self.dials.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection discarded after an error (the peer hung up,
    /// a frame was malformed, or a timeout fired). Unconditional, like
    /// [`record_dial`](Self::record_dial).
    pub fn record_connection_drop(&self) {
        self.connection_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one servant panic the ORB caught and answered with a typed
    /// exception. Unconditional, like [`record_dial`](Self::record_dial).
    pub fn record_servant_panic(&self) {
        self.servant_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Socket dial attempts so far.
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// Connections discarded after errors so far.
    pub fn connection_drops(&self) -> u64 {
        self.connection_drops.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            dials: self.dials.load(Ordering::Relaxed),
            connection_drops: self.connection_drops.load(Ordering::Relaxed),
            servant_panics: self.servant_panics.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            per_method: self
                .per_method
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }
}

impl std::fmt::Debug for TransportMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportMetrics")
            .field("round_trips", &self.round_trips())
            .finish()
    }
}

/// A point-in-time copy of [`TransportMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Request/reply exchanges.
    pub round_trips: u64,
    /// Marshaled request bytes sent.
    pub bytes_out: u64,
    /// Marshaled reply bytes received.
    pub bytes_in: u64,
    /// Socket dial attempts (0 for in-process transports).
    pub dials: u64,
    /// Connections discarded after errors.
    pub connection_drops: u64,
    /// Servant panics the ORB caught and answered with
    /// `cca.rpc.ServantPanic` (server side only).
    pub servant_panics: u64,
    /// Round-trip latency histogram.
    pub latency: LatencySnapshot,
    /// `(method, round_trips)` sorted by method name.
    pub per_method: Vec<(String, u64)>,
}

impl TransportSnapshot {
    /// JSON rendering.
    pub fn to_json(&self) -> String {
        let methods = self
            .per_method
            .iter()
            .map(|(m, n)| format!("\"{}\":{n}", crate::trace::escape_json(m)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"round_trips\":{},\"bytes_out\":{},\"bytes_in\":{},\
             \"dials\":{},\"connection_drops\":{},\
             \"per_method\":{{{methods}}},\"latency\":{},\"servant_panics\":{}}}",
            self.round_trips,
            self.bytes_out,
            self.bytes_in,
            self.dials,
            self.connection_drops,
            self.latency.to_json(),
            self.servant_panics
        )
    }
}

// ---------------------------------------------------------------------------
// Multiplexed-transport metrics
// ---------------------------------------------------------------------------

counter_block! {
    /// Depth and backpressure metrics for a multiplexed transport endpoint.
    ///
    /// A mux client shares a handful of sockets among many concurrent logical
    /// callers, and a mux server buffers replies per connection — so the
    /// interesting quantities are *depths*, not rates: how many calls are in
    /// flight right now (and the high-water mark), how many reply bytes are
    /// queued waiting for slow peers, and how often backpressure paused
    /// reading a connection. Every record path is a relaxed atomic,
    /// allocation-free, matching the [`PortMetrics`] contract.
    pub struct MuxMetrics => MuxSnapshot {
        /// Calls in flight (registered with the completion router, not yet
        /// answered).
        in_flight,
        /// High-water mark of concurrent in-flight calls.
        peak_in_flight,
        /// Reply bytes queued behind slow peers.
        queued_bytes,
        /// High-water mark of queued reply bytes.
        peak_queued_bytes,
        /// Connections paused by backpressure.
        paused_connections,
        /// Times a connection newly entered the paused state.
        pause_events,
        /// Mux protocol violations: a peer sent an unknown or
        /// already-completed request id or the wrong frame kind, and lost
        /// its connection for it.
        protocol_violations => record_protocol_violation,
        /// Server event-loop passes over its connections. An idle server
        /// makes none.
        loop_passes => record_loop_pass,
        /// Times the server event loop found nothing to do and blocked
        /// until a socket or a waker became ready.
        loop_parks => record_loop_park,
        /// Client side: bulk slabs written to the socket by the thread
        /// that submitted them.
        bulk_caller_writes => record_bulk_caller_write,
        /// Server side: bulk slabs landed in the sink on the event loop.
        bulk_loop_lands => record_bulk_loop_land,
        /// Client side: socket reads of the reply stream that returned
        /// bytes. Each may carry many replies, or part of one.
        reply_reads => record_reply_read,
        /// Server side: panics caught out of a dispatcher or session sink
        /// on a dispatch worker, or out of a bulk sink on the event loop.
        /// Each cost one connection; the thread lived on.
        servant_panics => record_servant_panic,
        /// Server side: dispatches run by a different worker than the
        /// dispatch before them. A lone sequential caller's stay near
        /// zero: each job wakes the most recently idle worker.
        worker_switches => record_worker_switch,
    }
}

/// Lock-free running maximum: raise `peak` to at least `value`.
fn raise_peak(peak: &AtomicU64, value: u64) {
    let mut seen = peak.load(Ordering::Relaxed);
    while value > seen {
        match peak.compare_exchange_weak(seen, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => seen = now,
        }
    }
}

impl MuxMetrics {
    /// A call entered the in-flight set (registered with the completion
    /// router, not yet answered).
    pub fn record_begin(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        raise_peak(&self.peak_in_flight, now);
    }

    /// A call left the in-flight set (completed, failed, or abandoned).
    pub fn record_end(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes the current total of queued (unflushed) reply bytes
    /// across all connections.
    pub fn set_queued_bytes(&self, bytes: u64) {
        self.queued_bytes.store(bytes, Ordering::Relaxed);
        raise_peak(&self.peak_queued_bytes, bytes);
    }

    /// Publishes how many connections currently have reads paused by
    /// backpressure, counting each newly paused connection as an event.
    pub fn set_paused_connections(&self, now_paused: u64) {
        let before = self.paused_connections.swap(now_paused, Ordering::Relaxed);
        if now_paused > before {
            self.pause_events
                .fetch_add(now_paused - before, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk data-plane metrics
// ---------------------------------------------------------------------------

counter_block! {
    /// Throughput and resume bookkeeping for the bulk data plane.
    ///
    /// Bulk redistribution streams raw array slabs, so the interesting
    /// quantities are *bytes and chunks*: how much payload went out and
    /// landed, how many chunks were retransmitted after a connection drop
    /// (each resume should cost at most one chunk per in-flight transfer),
    /// and the largest single gather buffer a sender ever held — the
    /// memory-boundedness claim of experiment E15 is "peak is one chunk,
    /// not the array". Every record path is a relaxed atomic,
    /// allocation-free, matching the [`PortMetrics`] contract.
    pub struct BulkMetrics => BulkSnapshot {
        /// Payload bytes sent (slab headers excluded).
        bytes_sent,
        /// Payload bytes landed into destination storage.
        bytes_landed,
        /// Slab chunks sent.
        chunks_sent,
        /// Slab chunks landed.
        chunks_landed,
        /// Chunks retransmitted after failure resumes: a sender that
        /// re-enters a transfer resends from the acked watermark.
        resumed_chunks => record_resume(chunks),
        /// Largest sender gather buffer observed (bytes).
        peak_chunk_bytes,
    }
}

impl BulkMetrics {
    /// A sender put one slab of `payload_bytes` element bytes on the wire
    /// (header excluded), holding a gather buffer of `buffer_bytes`.
    pub fn record_chunk_sent(&self, payload_bytes: u64, buffer_bytes: u64) {
        self.bytes_sent.fetch_add(payload_bytes, Ordering::Relaxed);
        self.chunks_sent.fetch_add(1, Ordering::Relaxed);
        raise_peak(&self.peak_chunk_bytes, buffer_bytes);
    }

    /// A receiver scattered one slab of `payload_bytes` element bytes into
    /// destination storage.
    pub fn record_chunk_landed(&self, payload_bytes: u64) {
        self.bytes_landed
            .fetch_add(payload_bytes, Ordering::Relaxed);
        self.chunks_landed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 1);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
        let h = LatencyHistogram::new();
        h.record_ns(3);
        h.record_ns(1000);
        h.record_ns(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.sum_ns, 2027);
        assert!((s.mean_ns() - 2027.0 / 3.0).abs() < 1e-9);
        assert!(s.to_json().contains("\"count\":3"));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.mean_ns(), 0.0);
        assert!(s.to_json().contains("\"log2_buckets\":[]"));
    }

    #[test]
    fn calls_sum_shards_and_direct() {
        let m = PortMetrics::new();
        m.record_direct_call();
        m.record_direct_call();
        let s1 = m.call_shard();
        let s2 = m.call_shard();
        for _ in 0..5 {
            s1.bump();
        }
        for _ in 0..3 {
            s2.bump();
        }
        assert_eq!(m.calls(), 10);
        let snap = m.snapshot();
        assert_eq!(snap.calls, 10);
        assert!(snap.to_json().contains("\"calls\":10"));
    }

    #[test]
    fn connection_churn_bookkeeping() {
        let m = PortMetrics::new();
        m.record_connect(1);
        m.record_connect(2);
        m.record_connect(3);
        m.record_disconnect(1, 2);
        m.record_disconnect(2, 0);
        let s = m.snapshot();
        assert_eq!(s.connects, 3);
        assert_eq!(s.disconnects, 3);
        assert_eq!(s.churn, 5);
        assert_eq!(s.fan_out, 0);
        assert_eq!(s.max_fan_out, 3);
        assert!(format!("{m:?}").contains("churn"));
    }

    #[test]
    fn transport_metrics_per_method() {
        let t = TransportMetrics::new();
        t.record_round_trip("solve", 100, 40, 1500);
        t.record_round_trip("solve", 100, 40, 1600);
        t.record_round_trip("bump", 10, 8, 900);
        let s = t.snapshot();
        assert_eq!(s.round_trips, 3);
        assert_eq!(s.bytes_out, 210);
        assert_eq!(s.bytes_in, 88);
        assert_eq!(
            s.per_method,
            vec![("bump".to_string(), 1), ("solve".to_string(), 2)]
        );
        assert_eq!(s.latency.count, 3);
        assert!(s.to_json().contains("\"solve\":2"));
        assert!(format!("{t:?}").contains("round_trips"));
    }

    #[test]
    fn transport_metrics_count_dials_and_drops() {
        let t = TransportMetrics::new();
        t.record_dial();
        t.record_dial();
        t.record_connection_drop();
        assert_eq!(t.dials(), 2);
        assert_eq!(t.connection_drops(), 1);
        let s = t.snapshot();
        assert_eq!(s.dials, 2);
        assert_eq!(s.connection_drops, 1);
        assert!(s.to_json().contains("\"dials\":2"));
        assert!(s.to_json().contains("\"connection_drops\":1"));
        // Servant panics are counted unconditionally too, last in the JSON.
        t.record_servant_panic();
        let s = t.snapshot();
        assert_eq!(s.servant_panics, 1);
        assert!(s.to_json().ends_with(",\"servant_panics\":1}"));
    }

    #[test]
    fn mux_metrics_track_depth_watermarks_and_backpressure() {
        let m = MuxMetrics::new();
        m.record_begin();
        m.record_begin();
        m.record_begin();
        assert_eq!(m.in_flight(), 3);
        m.record_end();
        assert_eq!(m.in_flight(), 2);
        assert_eq!(m.peak_in_flight(), 3, "watermark survives completion");

        m.set_queued_bytes(4096);
        m.set_queued_bytes(128);
        assert_eq!(m.queued_bytes(), 128);

        m.set_paused_connections(2);
        m.set_paused_connections(1);
        m.set_paused_connections(3);
        assert_eq!(m.paused_connections(), 3);
        // 0→2 (+2 events), 2→1 (none), 1→3 (+2 events).
        assert_eq!(m.pause_events(), 4);

        m.record_protocol_violation();
        m.record_loop_pass();
        m.record_loop_pass();
        m.record_loop_park();
        m.record_bulk_caller_write();
        m.record_bulk_loop_land();
        m.record_bulk_loop_land();
        m.record_reply_read();
        m.record_servant_panic();
        m.record_worker_switch();
        let s = m.snapshot();
        assert_eq!(s.peak_in_flight, 3);
        assert_eq!(s.peak_queued_bytes, 4096);
        assert_eq!(s.protocol_violations, 1);
        assert_eq!((s.loop_passes, s.loop_parks), (2, 1));
        assert_eq!((s.bulk_caller_writes, s.bulk_loop_lands), (1, 2));
        assert_eq!((s.reply_reads, s.servant_panics), (1, 1));
        assert_eq!(s.worker_switches, 1);
        assert_eq!(
            s.to_json(),
            "{\"in_flight\":2,\"peak_in_flight\":3,\"queued_bytes\":128,\
             \"peak_queued_bytes\":4096,\"paused_connections\":3,\
             \"pause_events\":4,\"protocol_violations\":1,\
             \"loop_passes\":2,\"loop_parks\":1,\
             \"bulk_caller_writes\":1,\"bulk_loop_lands\":2,\"reply_reads\":1,\
             \"servant_panics\":1,\"worker_switches\":1}"
        );
        assert!(format!("{m:?}").contains("in_flight"));
    }

    #[test]
    fn bulk_metrics_track_bytes_resumes_and_peak_buffer() {
        let b = BulkMetrics::new();
        b.record_chunk_sent(1 << 20, (1 << 20) + 32);
        b.record_chunk_sent(512, 512 + 32);
        b.record_chunk_landed(1 << 20);
        b.record_resume(3);
        assert_eq!(b.bytes_sent(), (1 << 20) + 512);
        assert_eq!(b.chunks_sent(), 2);
        assert_eq!(b.bytes_landed(), 1 << 20);
        assert_eq!(b.chunks_landed(), 1);
        assert_eq!(b.resumed_chunks(), 3);
        assert_eq!(
            b.peak_chunk_bytes(),
            (1 << 20) + 32,
            "peak keeps the largest buffer, not the last"
        );
        let s = b.snapshot();
        assert_eq!(s.chunks_sent, 2);
        assert_eq!(
            s.to_json(),
            "{\"bytes_sent\":1049088,\"bytes_landed\":1048576,\"chunks_sent\":2,\
             \"chunks_landed\":1,\"resumed_chunks\":3,\"peak_chunk_bytes\":1048608}"
        );
        assert!(format!("{b:?}").contains("bytes_sent"));
    }
}

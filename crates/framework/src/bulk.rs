//! The framework ends of the bulk data plane: streaming M×N
//! redistribution as raw slabs (experiment E15).
//!
//! `cca-rpc`'s [`bulk`](cca_rpc::bulk) module defines the wire artifacts —
//! the slab layout, the ack, the [`BulkSink`] a `MuxServer` dispatches
//! `Bulk` frames into. This module supplies the two endpoints that speak
//! that protocol *about a plan*:
//!
//! * [`BulkRedistSender`] — the source side. For every transfer a source
//!   rank owes under a [`CompiledPlan`], it walks the transfer's chunk
//!   boundaries, gathers each chunk straight from the rank's local array
//!   storage into one reused, header-prefixed slab buffer (no
//!   per-element tag/length framing, no intermediate typed buffer), and
//!   sends it through any [`Transport`] — normally a
//!   [`BulkChannel`] over the mux, whose submit writes the slab to the
//!   socket on the sending thread — optionally under a
//!   `DeadlineTransport` so a wedged receiver costs a typed
//!   `cca.rpc.DeadlineExceeded`, not a hung sender.
//! * [`BulkLandingZone`] — the destination side. Installed as the server's
//!   [`BulkSink`], it runs on the server's event loop: it validates each
//!   slab against the plan (generation, transfer index, element tag,
//!   declared total), scatters the body bytes directly into the
//!   destination rank's local slice, one contiguous run of the transfer's
//!   rectangle at a time, and answers with a [`BulkAck`] carrying the
//!   transfer's contiguous-landing watermark.
//!
//! Chunk boundaries are this module's wire policy, derived rather than
//! negotiated: both ends hold the same compiled plan and the same
//! element-aligned chunk size, a transfer's packed byte total is its
//! element count times the element size, and it is cut into chunks of that
//! size from byte zero (the last one short).
//!
//! The watermark is the resilience contract: the sender records
//! `acked_through` after every chunk, so when a connection dies
//! mid-stream (PR 3's typed connection errors, the breaker, quarantine)
//! the *next* `send` call resumes from the watermark instead of byte
//! zero. Replayed chunks are idempotent — scattering the same bytes to
//! the same offsets twice is a no-op — so at-least-once delivery is safe.
//!
//! Memory stays O(chunk) on both sides: the sender gathers into one slab
//! buffer it reuses chunk after chunk, and the receiver scatters out of
//! the frame's own buffer without staging. Each slab is copied once on
//! each side: gathered from the source array into the slab, and
//! scattered from the frame into the destination. [`BulkRedistSender::send`]
//! waits for each slab's ack before the next; the throughput path,
//! [`BulkRedistSender::send_pipelined`], keeps a fixed window of slabs
//! unacknowledged — O(window × chunk) bytes in transit, still independent
//! of the array size — so the sender's next gather and write overlap the
//! receiver's scatter instead of serializing on loopback round trips.

use bytes::Bytes;
use cca_data::{le, CompiledPlan, CompiledTransfer};
use cca_obs::span;
use cca_obs::BulkMetrics;
use cca_rpc::{
    BulkAck, BulkChannel, BulkElem, BulkError, BulkSink, PendingReply, SlabHeader, Transport,
    BULK_EXCEPTION_TYPE, BULK_SLAB_HEADER_LEN,
};
use cca_sidl::SidlError;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// The source-rank end of a bulk redistribution stream.
///
/// One sender serves one source rank of one compiled plan. It is
/// deliberately `&mut self` — a rank streams its transfers sequentially
/// (stop-and-wait per chunk keeps peak memory at one slab); different
/// ranks use different senders, possibly over different connections of
/// the same [`cca_rpc::MuxTransport`].
pub struct BulkRedistSender<T: BulkElem> {
    compiled: Arc<CompiledPlan>,
    /// Element-aligned bound on every slab body.
    chunk_bytes: usize,
    generation: u64,
    src_rank: usize,
    /// Global transfer indices originating at `src_rank`, in plan order.
    transfer_ids: Vec<u32>,
    /// Per-entry resume watermark (bytes contiguously acked), parallel to
    /// `transfer_ids`. Survives failed `send` calls — that is the point.
    acked: Vec<u64>,
    /// The one slab buffer every chunk is gathered into: header, then
    /// body. Reused, so a warmed sender allocates nothing per chunk.
    slab: Vec<u8>,
    peak_buffer_bytes: usize,
    metrics: Arc<BulkMetrics>,
    /// The element type is compile-time only: it fixes the wire tag and
    /// the gather width, no storage.
    _elem: std::marker::PhantomData<T>,
}

impl<T: BulkElem> BulkRedistSender<T> {
    /// Builds a sender for `src_rank` under `compiled`, streaming in
    /// element-aligned chunks of (at most) `chunk_bytes`, rounded down to
    /// whole elements (at least one). Both sides must be built from the
    /// same plan and chunk size — boundaries are never negotiated on the
    /// wire.
    pub fn new(
        compiled: Arc<CompiledPlan>,
        generation: u64,
        chunk_bytes: usize,
        src_rank: usize,
    ) -> Self {
        let transfer_ids: Vec<u32> = compiled
            .transfers()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.src_rank == src_rank)
            .map(|(i, _)| i as u32)
            .collect();
        let acked = vec![0u64; transfer_ids.len()];
        BulkRedistSender {
            compiled,
            chunk_bytes: aligned_chunk::<T>(chunk_bytes),
            generation,
            src_rank,
            transfer_ids,
            acked,
            slab: Vec::new(),
            peak_buffer_bytes: 0,
            metrics: Arc::default(),
            _elem: std::marker::PhantomData,
        }
    }

    /// Streams every not-yet-acked chunk of every transfer this rank owes.
    /// `data` is the rank's local buffer under the source descriptor. On
    /// error (connection drop, deadline, injected fault) the watermarks
    /// keep everything acked so far; calling `send` again resumes from
    /// the last acked chunk of the interrupted transfer.
    pub fn send(&mut self, channel: &dyn Transport, data: &[T]) -> Result<(), SidlError> {
        let _s = span("bulk.send");
        self.each_unacked(data, |me, local, t, total, from| {
            me.stream_transfer(channel, data, local, t, total, from)
        })
    }

    /// Streams like [`send`](Self::send) but keeps up to `window` slabs
    /// unacknowledged at once, so the chunk gather, the wire transfer, and
    /// the receiver's scatter overlap instead of paying one full round
    /// trip per chunk — the throughput path E15 measures. Bytes in transit
    /// are at most `window` slabs: larger than stop-and-wait's single
    /// slab, still independent of the array size.
    ///
    /// The resume contract is unchanged — every ack raises the
    /// contiguous-landing watermark and a failure leaves it positioned for
    /// the next call to continue. One caveat: a failure can lose acks that
    /// were still in flight, so a resumed stream may re-send a chunk the
    /// receiver already landed. Replays are idempotent by design;
    /// [`send`](Self::send) remains the path with the
    /// exactly-once-per-chunk guarantee.
    pub fn send_pipelined(
        &mut self,
        channel: &BulkChannel,
        data: &[T],
        window: usize,
    ) -> Result<(), SidlError> {
        let _s = span("bulk.send_pipelined");
        let window = window.max(1);
        self.each_unacked(data, |me, local, t, total, from| {
            me.stream_transfer_windowed(channel, data, local, t, total, from, window)
        })
    }

    /// Checks `data` against the plan, then runs `stream(self, local, t,
    /// total, resume_from)` for every transfer this rank owes that is not
    /// yet fully acked, in plan order, stopping at the first error.
    fn each_unacked(
        &mut self,
        data: &[T],
        mut stream: impl FnMut(&mut Self, usize, usize, u64, u64) -> Result<(), SidlError>,
    ) -> Result<(), SidlError> {
        let expected = self.compiled.src_count(self.src_rank);
        if data.len() != expected {
            return Err(SidlError::user(
                BULK_EXCEPTION_TYPE,
                format!(
                    "source rank {} buffer has {} elements, plan says {expected}",
                    self.src_rank,
                    data.len()
                ),
            ));
        }
        for local in 0..self.transfer_ids.len() {
            let t = self.transfer_ids[local] as usize;
            let total = transfer_bytes::<T>(&self.compiled, t);
            let resume_from = self.acked[local];
            if resume_from >= total {
                continue; // already fully acked
            }
            if resume_from > 0 {
                let remaining = chunk_count(total, self.chunk_bytes)
                    - (resume_from / self.chunk_bytes as u64) as usize;
                self.metrics.record_resume(remaining as u64);
            }
            stream(self, local, t, total, resume_from)?;
        }
        Ok(())
    }

    /// Streams one transfer from `resume_from` with a window of in-flight
    /// slabs. The watermark only ever advances on decoded acks, so the
    /// error path needs no special casing: outstanding slabs are abandoned
    /// (their acks, if any, are lost) and the next call resumes from
    /// whatever was contiguously acknowledged.
    #[allow(clippy::too_many_arguments)]
    fn stream_transfer_windowed(
        &mut self,
        channel: &BulkChannel,
        data: &[T],
        local: usize,
        t: usize,
        total: u64,
        resume_from: u64,
        window: usize,
    ) -> Result<(), SidlError> {
        let mut slab = std::mem::take(&mut self.slab);
        let mut wm = resume_from;
        let mut outcome: Result<(), SidlError> = Ok(());
        // Oldest-first `(payload_len, pending)` pairs; in transit is
        // everything submitted but not yet acknowledged.
        let mut in_flight: VecDeque<(usize, PendingReply)> = VecDeque::with_capacity(window);
        let mut in_transit = 0usize;
        let mut chunks = chunks_from(total, self.chunk_bytes, resume_from);
        loop {
            while outcome.is_ok() && in_flight.len() < window {
                let Some((offset, len)) = chunks.next() else {
                    break;
                };
                self.gather(&mut slab, data, t, offset, len);
                in_transit += slab.len();
                self.peak_buffer_bytes = self.peak_buffer_bytes.max(in_transit);
                match channel.submit(&slab) {
                    Ok(pending) => in_flight.push_back((len, pending)),
                    Err(e) => {
                        in_transit -= slab.len();
                        outcome = Err(e);
                    }
                }
            }
            let Some((len, pending)) = in_flight.pop_front() else {
                break;
            };
            in_transit -= BULK_SLAB_HEADER_LEN + len;
            let reply = match pending.wait_timed() {
                Ok((reply, _)) => reply,
                Err(e) => {
                    outcome = Err(e);
                    // Abandon the rest of the window: their acks are lost
                    // (the resume may replay those chunks — idempotent).
                    in_flight.clear();
                    break;
                }
            };
            self.metrics
                .record_chunk_sent(len as u64, (BULK_SLAB_HEADER_LEN + len) as u64);
            match self.check_ack(&reply, t) {
                Ok(through) => wm = wm.max(through),
                Err(e) => {
                    outcome = Err(e);
                    in_flight.clear();
                    break;
                }
            }
        }
        self.acked[local] = wm;
        self.slab = slab;
        outcome
    }

    /// Fills `slab` with the chunk of transfer `t` at byte `offset`: the
    /// 32-byte header, then the chunk's `len` element bytes gathered run
    /// by run straight from local storage. The buffer's storage is reused;
    /// only a first or larger chunk grows it.
    fn gather(&self, slab: &mut Vec<u8>, data: &[T], t: usize, offset: u64, len: usize) {
        let _s = span("bulk.gather");
        slab.resize(BULK_SLAB_HEADER_LEN + len, 0);
        SlabHeader {
            generation: self.generation,
            transfer: t as u32,
            tag: T::TAG,
            chunk_offset: offset,
            total_bytes: transfer_bytes::<T>(&self.compiled, t),
        }
        .encode_into(slab);
        let transfer = &self.compiled.transfers()[t];
        gather_le(transfer, data, offset, &mut slab[BULK_SLAB_HEADER_LEN..]);
    }

    /// Streams one transfer from `resume_from`, updating the watermark
    /// after every acked chunk (including on the error path).
    fn stream_transfer(
        &mut self,
        channel: &dyn Transport,
        data: &[T],
        local: usize,
        t: usize,
        total: u64,
        resume_from: u64,
    ) -> Result<(), SidlError> {
        let mut wm = resume_from;
        let mut outcome = Ok(());
        for (offset, len) in chunks_from(total, self.chunk_bytes, resume_from) {
            // A `Transport` takes its request by value, so this path gathers
            // into a fresh buffer and hands it over.
            let mut slab = Vec::new();
            self.gather(&mut slab, data, t, offset, len);
            self.peak_buffer_bytes = self.peak_buffer_bytes.max(slab.len());
            let buffer_bytes = slab.len() as u64;
            let reply = match channel.call(Bytes::from(slab)) {
                Ok(r) => r,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            };
            self.metrics.record_chunk_sent(len as u64, buffer_bytes);
            match self.check_ack(&reply, t) {
                Ok(through) => wm = wm.max(through),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.acked[local] = wm;
        outcome
    }

    /// The watermark an ack for transfer `t` carries; an ack that does not
    /// parse, or names another generation or transfer, is a typed error.
    fn check_ack(&self, reply: &[u8], t: usize) -> Result<u64, SidlError> {
        let ack = BulkAck::decode(reply)?;
        if ack.generation != self.generation {
            return Err(BulkError::GenerationMismatch {
                got: ack.generation,
                want: self.generation,
            }
            .into());
        }
        if ack.transfer as usize != t {
            return Err(BulkError::BadTransfer {
                got: ack.transfer,
                count: self.compiled.transfers().len(),
            }
            .into());
        }
        Ok(ack.acked_through)
    }

    /// True once every transfer this rank owes is fully acked.
    pub fn is_complete(&self) -> bool {
        self.transfer_ids
            .iter()
            .zip(self.acked.iter())
            .all(|(&t, &wm)| wm >= transfer_bytes::<T>(&self.compiled, t as usize))
    }

    /// Most slab bytes this sender ever had submitted and not yet acked —
    /// one slab (header + chunk) under [`send`](Self::send), up to
    /// `window` slabs under [`send_pipelined`](Self::send_pipelined). The
    /// E15 memory-boundedness assertion reads this; the gather buffer
    /// itself is one slab ([`BulkMetrics::peak_chunk_bytes`]).
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer_bytes
    }

    /// The resume watermark of local transfer `i` (bytes acked).
    pub fn acked_through(&self, i: usize) -> u64 {
        self.acked[i]
    }

    /// Zeroes every watermark so the same arrays can be streamed again
    /// (bench iterations, repeated timesteps).
    pub fn reset(&mut self) {
        for wm in &mut self.acked {
            *wm = 0;
        }
    }

    /// This sender's throughput/resume counters.
    pub fn metrics(&self) -> &Arc<BulkMetrics> {
        &self.metrics
    }
}

/// `chunk_bytes` rounded down to whole elements of `T`, at least one.
fn aligned_chunk<T: BulkElem>(chunk_bytes: usize) -> usize {
    (chunk_bytes / T::SIZE).max(1) * T::SIZE
}

/// The packed byte total of transfer `t` as elements of `T`.
fn transfer_bytes<T: BulkElem>(compiled: &CompiledPlan, t: usize) -> u64 {
    (compiled.transfers()[t].count() * T::SIZE) as u64
}

/// Number of chunks of `chunk` bytes a transfer of `total` bytes streams as.
fn chunk_count(total: u64, chunk: usize) -> usize {
    total.div_ceil(chunk as u64) as usize
}

/// The `(byte offset, byte length)` chunks of a transfer of `total` bytes,
/// starting at the chunk containing `from_byte` — the resume watermark
/// after a failure, or 0 for a fresh stream. Boundaries are a pure
/// function of `total` and `chunk`, so a resumed stream re-produces
/// exactly the chunks the first attempt would have sent. (A zero-element
/// transfer has no chunks and is complete by vacuity.)
fn chunks_from(total: u64, chunk: usize, from_byte: u64) -> impl Iterator<Item = (u64, usize)> {
    let chunk = chunk as u64;
    (from_byte / chunk..).map_while(move |i| {
        let offset = i * chunk;
        (offset < total).then(|| (offset, chunk.min(total - offset) as usize))
    })
}

/// Fills `body` with the bytes of `transfer`'s packed payload that start
/// at byte `offset`: one sequential little-endian copy per contiguous run
/// of the source rank's storage.
fn gather_le<T: BulkElem>(transfer: &CompiledTransfer, data: &[T], offset: u64, body: &mut [u8]) {
    let mut at = 0;
    for (src, _, len) in transfer.runs(offset as usize / T::SIZE, body.len() / T::SIZE) {
        let end = at + len * T::SIZE;
        le::write_slice(&data[src..src + len], &mut body[at..end]);
        at = end;
    }
}

/// The destination end: a [`BulkSink`] that lands slabs for *all*
/// destination ranks of one compiled plan into framework-owned buffers.
///
/// It lands on the server's event loop (see [`BulkSink`]) and never
/// waits there: validation takes no lock, and the scatter runs under one
/// mutex shared only with this zone's readers, a straight offset-indexed
/// copy. Replays (chunks re-sent after a lost ack) are idempotent.
pub struct BulkLandingZone<T: BulkElem> {
    compiled: Arc<CompiledPlan>,
    /// Element-aligned chunk size, the sender's.
    chunk_bytes: usize,
    generation: u64,
    metrics: Arc<BulkMetrics>,
    state: Mutex<LandingState<T>>,
}

struct LandingState<T> {
    /// One buffer per destination rank, sized by the plan.
    dst: Vec<Vec<T>>,
    /// Per-transfer contiguous-landing watermark in bytes.
    watermarks: Vec<u64>,
    /// Per-transfer chunk-landed flags. A sender whose transport spreads
    /// slabs over several connections, or several servers landing into
    /// one zone, can scatter a transfer's chunks out of order; the flags
    /// let the watermark absorb landed-ahead chunks the moment the gap
    /// before them fills.
    landed: Vec<Vec<bool>>,
}

impl<T: BulkElem> BulkLandingZone<T> {
    /// Builds a landing zone for `compiled` at `generation`, expecting
    /// chunks laid out with `chunk_bytes` (must match the sender's).
    pub fn new(compiled: Arc<CompiledPlan>, generation: u64, chunk_bytes: usize) -> Arc<Self> {
        let chunk_bytes = aligned_chunk::<T>(chunk_bytes);
        let dst = (0..compiled.dst_ranks())
            .map(|r| vec![T::default(); compiled.dst_count(r)])
            .collect();
        let transfers = compiled.transfers().len();
        let watermarks = vec![0u64; transfers];
        let landed = (0..transfers)
            .map(|t| vec![false; chunk_count(transfer_bytes::<T>(&compiled, t), chunk_bytes)])
            .collect();
        Arc::new(BulkLandingZone {
            compiled,
            chunk_bytes,
            generation,
            metrics: Arc::default(),
            state: Mutex::new(LandingState {
                dst,
                watermarks,
                landed,
            }),
        })
    }

    /// True once every transfer in the plan has landed contiguously.
    pub fn is_complete(&self) -> bool {
        let st = self.state.lock();
        st.watermarks
            .iter()
            .enumerate()
            .all(|(t, &wm)| wm >= transfer_bytes::<T>(&self.compiled, t))
    }

    /// The contiguous-landing watermark of transfer `t` (bytes).
    pub fn watermark(&self, t: usize) -> u64 {
        self.state.lock().watermarks[t]
    }

    /// Runs `f` over the destination buffers (one per destination rank)
    /// without copying them out.
    pub fn with_buffers<R>(&self, f: impl FnOnce(&[Vec<T>]) -> R) -> R {
        f(&self.state.lock().dst)
    }

    /// Clones the destination buffers out (tests; prefer
    /// [`with_buffers`](Self::with_buffers) for large arrays).
    pub fn snapshot_buffers(&self) -> Vec<Vec<T>> {
        self.state.lock().dst.clone()
    }

    /// Zeroes the watermarks (keeping the buffers) so the next stream
    /// starts fresh — bench iterations, repeated timesteps.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        for wm in &mut st.watermarks {
            *wm = 0;
        }
        for flags in &mut st.landed {
            flags.iter_mut().for_each(|f| *f = false);
        }
    }

    /// This landing zone's throughput counters.
    pub fn metrics(&self) -> &Arc<BulkMetrics> {
        &self.metrics
    }
}

impl<T: BulkElem> BulkSink for BulkLandingZone<T> {
    fn receive(&self, payload: Bytes) -> Result<Vec<u8>, SidlError> {
        let _s = span("bulk.land");
        let (header, body) = SlabHeader::decode(&payload)?;
        if header.generation != self.generation {
            return Err(BulkError::GenerationMismatch {
                got: header.generation,
                want: self.generation,
            }
            .into());
        }
        let t = header.transfer as usize;
        if t >= self.compiled.transfers().len() {
            return Err(BulkError::BadTransfer {
                got: header.transfer,
                count: self.compiled.transfers().len(),
            }
            .into());
        }
        if header.tag != T::TAG {
            return Err(BulkError::TagMismatch {
                got: header.tag,
                want: T::TAG,
            }
            .into());
        }
        let want_total = transfer_bytes::<T>(&self.compiled, t);
        if header.total_bytes != want_total {
            return Err(BulkError::TotalMismatch {
                got: header.total_bytes,
                want: want_total,
            }
            .into());
        }
        let transfer = &self.compiled.transfers()[t];
        let first = header.chunk_offset as usize / T::SIZE;
        let count = body.len() / T::SIZE;
        let end = header
            .chunk_offset
            .checked_add(body.len() as u64)
            .filter(|&end| end <= want_total)
            .ok_or(BulkError::OutOfRange {
                offset: header.chunk_offset,
                len: body.len() as u64,
                total: want_total,
            })?;
        let acked_through = {
            let mut st = self.state.lock();
            // Scatter straight from the frame's bytes into the destination
            // rank's local slice — the only copy on the receive path, one
            // sequential copy per contiguous run.
            let dst_local = &mut st.dst[transfer.dst_rank];
            let (raw, mut at) = (body.as_slice(), 0);
            for (_, dst, len) in transfer.runs(first, count) {
                let end = at + len * T::SIZE;
                le::read_into(&raw[at..end], &mut dst_local[dst..dst + len]);
                at = end;
            }
            // A slab that is exactly one chunk marks its flag;
            // anything else (hand-built slabs at odd offsets) can only
            // extend the watermark contiguously.
            let chunk_bytes = self.chunk_bytes as u64;
            let idx = (header.chunk_offset / chunk_bytes) as usize;
            if header.chunk_offset == idx as u64 * chunk_bytes
                && end == (header.chunk_offset + chunk_bytes).min(want_total)
            {
                st.landed[t][idx] = true;
            }
            let st = &mut *st;
            let wm = &mut st.watermarks[t];
            if header.chunk_offset <= *wm && end > *wm {
                *wm = end;
            }
            // Absorb chunks that landed ahead of the gap this slab just
            // filled (out-of-order scatter under a pipelined sender).
            let flags = &st.landed[t];
            let mut i = (*wm / chunk_bytes) as usize;
            while i < flags.len() && flags[i] {
                *wm = (chunk_bytes * (i as u64 + 1)).min(want_total);
                i += 1;
            }
            *wm
        };
        self.metrics.record_chunk_landed(body.len() as u64);
        Ok(BulkAck {
            generation: self.generation,
            transfer: header.transfer,
            acked_through,
        }
        .encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_core::resilience::{Clock, MockClock, DEADLINE_EXCEPTION_TYPE};
    use cca_data::{DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};
    use cca_rpc::DeadlineTransport;

    fn block_desc(n: usize, p: usize) -> DistArrayDesc {
        DistArrayDesc::new(&[n], Distribution::block_1d(p, 1).unwrap()).unwrap()
    }

    fn compiled_4_to_3(n: usize) -> Arc<CompiledPlan> {
        let src = block_desc(n, 4);
        let dst = block_desc(n, 3);
        let plan = RedistPlan::build(&src, &dst).unwrap();
        Arc::new(plan.compile().unwrap())
    }

    /// A loopback channel: every slab goes straight into the zone, like a
    /// mux round trip with zero network.
    struct ZoneChannel<T: BulkElem>(Arc<BulkLandingZone<T>>);

    impl<T: BulkElem> Transport for ZoneChannel<T> {
        fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
            self.0.receive(request).map(Bytes::from)
        }
    }

    fn source_buffers(compiled: &CompiledPlan) -> Vec<Vec<f64>> {
        // Tag each element with a value derived from (rank, offset) so
        // misplaced scatters are visible.
        (0..compiled.src_ranks())
            .map(|r| {
                (0..compiled.src_count(r))
                    .map(|i| (r * 1000 + i) as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streamed_redistribution_matches_in_process_apply() {
        let compiled = compiled_4_to_3(101);
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 7, 48);
        let channel = ZoneChannel(Arc::clone(&zone));
        let src = source_buffers(&compiled);
        for (rank, data) in src.iter().enumerate() {
            let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&compiled), 7, 48, rank);
            sender.send(&channel, data).unwrap();
            assert!(sender.is_complete());
            // One slab at a time: header + at most one 48-byte-aligned chunk.
            assert!(sender.peak_buffer_bytes() <= BULK_SLAB_HEADER_LEN + 48);
        }
        assert!(zone.is_complete());
        let expected = compiled.apply(&src).unwrap();
        assert_eq!(zone.snapshot_buffers(), expected);
        assert_eq!(
            zone.metrics().bytes_landed(),
            compiled
                .transfers()
                .iter()
                .map(|t| (t.count() * 8) as u64)
                .sum::<u64>()
        );
    }

    /// 2-d, every column cut in three, 5-element chunks over 8- and
    /// 7-element runs: slabs start and end mid-run. The oracle is each
    /// element's global id, placed by the descriptors' index translation,
    /// which shares nothing with the rectangles.
    #[test]
    fn chunks_that_straddle_strided_runs_land_at_their_global_ids() {
        let desc = |grid: [usize; 2]| {
            let dist = Distribution::new(
                ProcessGrid::new(&grid).unwrap(),
                &[DimDist::Block, DimDist::Block],
            )
            .unwrap();
            DistArrayDesc::new(&[23, 23], dist).unwrap()
        };
        let (src_desc, dst_desc) = (desc([1, 4]), desc([3, 1]));
        let plan = RedistPlan::build(&src_desc, &dst_desc).unwrap();
        let compiled = Arc::new(plan.compile().unwrap());
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 9, 40);
        let channel = ZoneChannel(Arc::clone(&zone));
        // Element (i, j) holds its global id i + 23 j; `place` finds its
        // owner and local offset under a descriptor.
        let elements = || (0..23).flat_map(|i| (0..23).map(move |j| (i, j)));
        let place = |desc: &DistArrayDesc, i: usize, j: usize| {
            let r = desc.owner_of(&[i, j]).unwrap();
            (r, desc.local_offset(r, &[i, j]).unwrap())
        };
        let mut src: Vec<Vec<f64>> = (0..compiled.src_ranks())
            .map(|r| vec![0.0; compiled.src_count(r)])
            .collect();
        for (i, j) in elements() {
            let (r, off) = place(&src_desc, i, j);
            src[r][off] = (i + 23 * j) as f64;
        }
        for (rank, data) in src.iter().enumerate() {
            let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&compiled), 9, 40, rank);
            sender.send(&channel, data).unwrap();
            assert!(sender.is_complete());
        }
        assert!(zone.is_complete());
        let landed = zone.snapshot_buffers();
        for (i, j) in elements() {
            let (r, off) = place(&dst_desc, i, j);
            assert_eq!(landed[r][off], (i + 23 * j) as f64, "element ({i}, {j})");
        }
    }

    #[test]
    fn wire_chunks_tile_each_transfer_exactly() {
        let cyclic = Distribution::new(ProcessGrid::linear(3).unwrap(), &[DimDist::Cyclic]);
        let dst = DistArrayDesc::new(&[100], cyclic.unwrap()).unwrap();
        let plan = RedistPlan::build(&block_desc(100, 2), &dst).unwrap();
        let compiled = plan.compile().unwrap();
        // 25-byte chunks over f64: rounds down to 3 elements per chunk.
        let chunk = aligned_chunk::<f64>(25);
        assert_eq!(chunk, 24);
        assert_eq!(aligned_chunk::<f64>(5), 8, "at least one element");
        for (t, ct) in compiled.transfers().iter().enumerate() {
            let total = transfer_bytes::<f64>(&compiled, t);
            assert_eq!(total, (ct.count() * 8) as u64);
            let chunks: Vec<(u64, usize)> = chunks_from(total, chunk, 0).collect();
            assert_eq!(chunks.len(), chunk_count(total, chunk));
            // Chunks tile [0, total) contiguously, each a multiple of the
            // element size, each bounded by the chunk size.
            let mut expect = 0u64;
            for (offset, len) in &chunks {
                assert_eq!(*offset, expect);
                assert!(*len > 0 && *len <= 24 && *len % 8 == 0);
                expect += *len as u64;
            }
            assert_eq!(expect, total);
            // Resuming from a mid-chunk watermark re-yields that chunk.
            if chunks.len() > 1 {
                let resumed: Vec<_> = chunks_from(total, chunk, chunks[1].0 + 1).collect();
                assert_eq!(resumed[0], chunks[1]);
            }
        }
    }

    #[test]
    fn replayed_chunks_are_idempotent_and_acks_carry_watermarks() {
        let compiled = compiled_4_to_3(40);
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 1, 16);
        let channel = ZoneChannel(Arc::clone(&zone));
        let src = source_buffers(&compiled);
        let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&compiled), 1, 16, 0);
        sender.send(&channel, &src[0]).unwrap();
        let landed = zone.snapshot_buffers();
        // Stream rank 0 again from scratch: same bytes, same offsets.
        sender.reset();
        sender.send(&channel, &src[0]).unwrap();
        assert_eq!(zone.snapshot_buffers(), landed);
        assert!(
            sender.metrics().resumed_chunks() == 0,
            "reset is not resume"
        );
    }

    /// The zone refused the slab with a `cca.rpc.BulkProtocol` error.
    fn expect_type(r: Result<Vec<u8>, SidlError>) {
        match r {
            Err(SidlError::UserException { exception_type, .. }) => {
                assert_eq!(exception_type, BULK_EXCEPTION_TYPE)
            }
            other => panic!("expected bulk protocol error, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_generation_tag_transfer_and_total_are_typed() {
        let compiled = compiled_4_to_3(24);
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 5, 64);
        let total = transfer_bytes::<f64>(&compiled, 0);
        let mk = |generation: u64, transfer: u32, tag, total_bytes| {
            let h = SlabHeader {
                generation,
                transfer,
                tag,
                chunk_offset: 0,
                total_bytes,
            };
            let mut raw = vec![0u8; BULK_SLAB_HEADER_LEN + 8];
            h.encode_into(&mut raw);
            Bytes::from(raw)
        };
        expect_type(zone.receive(mk(6, 0, cca_rpc::ElemTag::F64, total)));
        expect_type(zone.receive(mk(5, 999, cca_rpc::ElemTag::F64, total)));
        expect_type(zone.receive(mk(5, 0, cca_rpc::ElemTag::I64, total)));
        expect_type(zone.receive(mk(5, 0, cca_rpc::ElemTag::F64, total + 8)));
        // Nothing landed from any of those.
        assert_eq!(zone.metrics().chunks_landed(), 0);
        assert_eq!(zone.watermark(0), 0);
    }

    /// `chunk_offset + body` wraps to 0, so an unchecked range test passes
    /// it on to a scatter at element 2^61 − 1. It must cost a typed error
    /// and the peer's connection — not the server thread that lands it.
    #[test]
    fn a_wrapping_chunk_offset_is_typed_and_costs_only_its_connection() {
        use cca_rpc::frame::DEFAULT_MAX_PAYLOAD;
        use cca_rpc::transport::Dispatcher;
        use cca_rpc::{encode_frame, FrameKind, MuxServer, MuxServerConfig, MuxTransport, Orb};
        use std::io::{Read, Write};

        let compiled = compiled_4_to_3(96);
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 3, 64);
        let mut hostile = vec![0u8; BULK_SLAB_HEADER_LEN + 8];
        SlabHeader {
            generation: 3,
            transfer: 0,
            tag: cca_rpc::ElemTag::F64,
            chunk_offset: u64::MAX - 7,
            total_bytes: transfer_bytes::<f64>(&compiled, 0),
        }
        .encode_into(&mut hostile);

        expect_type(zone.receive(Bytes::from(hostile.clone())));

        // Slabs land on the event loop, the one thread that serves every
        // connection: were it lost to a panic, nothing could serve the
        // stream that follows.
        let server = MuxServer::bind_with(
            "127.0.0.1:0",
            Orb::new() as Arc<dyn Dispatcher>,
            MuxServerConfig {
                dispatch_threads: 1,
                ..MuxServerConfig::default()
            },
        )
        .unwrap();
        server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
        let mut peer = std::net::TcpStream::connect(server.local_addr()).unwrap();
        peer.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let framed = encode_frame(FrameKind::Bulk, 1, &hostile, DEFAULT_MAX_PAYLOAD).unwrap();
        peer.write_all(&framed).unwrap();
        let mut reply = Vec::new();
        assert_eq!(
            peer.read_to_end(&mut reply).unwrap(),
            0,
            "the hostile peer is hung up on, unanswered"
        );
        assert_eq!(zone.metrics().chunks_landed(), 0);

        let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
        let channel = BulkChannel::new(transport);
        let src = source_buffers(&compiled);
        for (rank, data) in src.iter().enumerate() {
            let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&compiled), 3, 64, rank);
            sender.send(channel.as_ref(), data).unwrap();
        }
        assert!(zone.is_complete());
        assert_eq!(zone.snapshot_buffers(), compiled.apply(&src).unwrap());
        server.shutdown();
    }

    /// `peak_chunk_bytes` is the gather buffer — one slab, header plus
    /// chunk — however many slabs a windowed send leaves unacknowledged.
    #[test]
    fn peak_chunk_bytes_is_one_slab_under_a_window() {
        use cca_rpc::transport::Dispatcher;
        use cca_rpc::{MuxServer, MuxTransport, Orb};

        // Rank 0 owes one 192-byte transfer: three 64-byte chunks.
        let compiled = compiled_4_to_3(96);
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 3, 64);
        let server = MuxServer::bind("127.0.0.1:0", Orb::new() as Arc<dyn Dispatcher>).unwrap();
        server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
        let transport = MuxTransport::new(server.local_addr().to_string());
        let channel = BulkChannel::new(Arc::new(transport));
        let src = source_buffers(&compiled);
        let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&compiled), 3, 64, 0);
        sender.send_pipelined(&channel, &src[0], 4).unwrap();

        let slab = (BULK_SLAB_HEADER_LEN + 64) as u64;
        assert_eq!(sender.metrics().chunks_sent(), 3);
        assert_eq!(sender.metrics().peak_chunk_bytes(), slab);
        assert_eq!(
            sender.peak_buffer_bytes() as u64,
            3 * slab,
            "the window held all three slabs unacknowledged"
        );
        server.shutdown();
    }

    /// A channel that charges the shared clock and never delivers — a
    /// wedged receiver. Under a deadline the sender must surface
    /// `cca.rpc.DeadlineExceeded` instead of hanging, and keep its
    /// watermark so a later retry resumes.
    struct WedgedChannel {
        clock: Arc<MockClock>,
        charge_ns: u64,
    }

    impl Transport for WedgedChannel {
        fn call(&self, _request: Bytes) -> Result<Bytes, SidlError> {
            self.clock.advance_ns(self.charge_ns);
            Err(SidlError::user(
                cca_rpc::CONNECTION_EXCEPTION_TYPE,
                "receiver wedged, connection reset",
            ))
        }
    }

    #[test]
    fn wedged_receiver_becomes_deadline_exceeded_not_a_hang() {
        let compiled = compiled_4_to_3(64);
        let clock = MockClock::new();
        let wedged = Arc::new(WedgedChannel {
            clock: Arc::clone(&clock),
            charge_ns: 5_000_000,
        });
        let deadline = DeadlineTransport::new(wedged, 1_000_000, clock as Arc<dyn Clock>);
        let src = source_buffers(&compiled);
        let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&compiled), 1, 32, 0);
        let err = sender.send(deadline.as_ref(), &src[0]).unwrap_err();
        match err {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, DEADLINE_EXCEPTION_TYPE)
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(deadline.deadline_hits(), 1, "exactly one chunk was charged");
        assert!(!sender.is_complete());
        assert_eq!(
            sender.acked_through(0),
            0,
            "nothing acked, resume from zero"
        );
    }

    #[test]
    fn interrupted_stream_resumes_from_the_watermark() {
        let compiled = compiled_4_to_3(80);
        let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), 2, 24);
        let src = source_buffers(&compiled);

        /// Fails every call after the first `allow`.
        struct Flaky<T: BulkElem> {
            inner: ZoneChannel<T>,
            allow: std::sync::atomic::AtomicU64,
        }
        impl<T: BulkElem> Transport for Flaky<T> {
            fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
                use std::sync::atomic::Ordering;
                let budget = self
                    .allow
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
                if budget.is_err() {
                    return Err(SidlError::user(
                        cca_rpc::CONNECTION_EXCEPTION_TYPE,
                        "mid-stream drop",
                    ));
                }
                self.inner.call(request)
            }
        }

        let mut sender = BulkRedistSender::<f64>::new(Arc::clone(&compiled), 2, 24, 1);
        let chunk_total: usize = (0..compiled.transfers().len())
            .filter(|&t| compiled.transfers()[t].src_rank == 1)
            .map(|t| chunk_count(transfer_bytes::<f64>(&compiled, t), 24))
            .sum();
        assert!(chunk_total >= 2, "topology must need several chunks");

        // First attempt: allow exactly one chunk through, then drop.
        let flaky = Flaky {
            inner: ZoneChannel(Arc::clone(&zone)),
            allow: std::sync::atomic::AtomicU64::new(1),
        };
        let err = sender.send(&flaky, &src[1]).unwrap_err();
        assert!(matches!(err, SidlError::UserException { .. }));
        assert!(!sender.is_complete());
        let after_first = sender.metrics().chunks_sent();
        assert_eq!(after_first, 1);

        // Retry over a healthy channel: resumes, never resends chunk 0.
        let healthy = ZoneChannel(Arc::clone(&zone));
        sender.send(&healthy, &src[1]).unwrap();
        assert!(sender.is_complete());
        assert_eq!(
            sender.metrics().chunks_sent() as usize,
            chunk_total,
            "resume sent exactly the missing chunks"
        );
        assert!(sender.metrics().resumed_chunks() > 0);

        // Landed data for rank 1's transfers matches the in-process path.
        let expected = compiled.apply(&src).unwrap();
        zone.with_buffers(|bufs| {
            for t in compiled.sends_from(1) {
                for (s, d, len) in t.runs(0, t.count()) {
                    assert_eq!(bufs[t.dst_rank][d..d + len], src[1][s..s + len]);
                    assert_eq!(
                        bufs[t.dst_rank][d..d + len],
                        expected[t.dst_rank][d..d + len]
                    );
                }
            }
        });
    }
}

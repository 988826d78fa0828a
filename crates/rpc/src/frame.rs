//! Length-prefixed, versioned framing for the TCP transport.
//!
//! The [`wire`](crate::wire) encoding is self-describing but *unbounded*:
//! a byte stream carrying back-to-back requests gives the reader no way to
//! know where one message ends and the next begins, and no way to refuse a
//! hostile peer before buffering its payload. This module adds the
//! boundary layer: every message travels as one frame,
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"CCAR"
//! 4       1     protocol version (currently 2)
//! 5       1     kind: 0 = request, 1 = reply, 2 = bulk slab,
//!               3 = rank join, 4 = rank leave
//! 6       1     extension flags: bit 0 = trace context present; all
//!               other bits must be zero
//! 7       1     extension length: 16 when bit 0 is set, else 0
//! 8       8     correlation id (u64 LE) — duplicated from the wire
//!               payload so a transport can route replies to callers
//!               without demarshaling them (out-of-order completion)
//! 16      4     payload length (u32 LE), capped
//! 20      0|16  trace context: trace id then caller span id, both
//!               u64 LE and both nonzero. Absent when tracing is off —
//!               a tracing-off v2 frame is byte-identical to v1 except
//!               the version byte, which is how E12/E13 stay untouched.
//! 20+ext  …     payload (the `wire` encoding of a Request or Reply)
//! ```
//!
//! Every malformed input — wrong magic, unknown version or kind, bad
//! extension bytes, a length over the cap, a stream that ends mid-frame —
//! is a typed [`FrameError`], never a panic and never an unbounded read.
//! [`FrameDecoder`] is incremental: bytes may arrive split at arbitrary
//! boundaries (as TCP delivers them) and frames pop out exactly when
//! complete. It is the one stream-to-frame decoder: the mux server's event
//! loop and the mux client's reply reader both use it. Decoding is linear
//! in the bytes read: a small frame pops by advancing a read cursor, and
//! the unread remainder moves to the front of the buffer once per fill.

use bytes::Bytes;
use cca_obs::TraceContext;
use cca_sidl::SidlError;
use std::fmt;

/// The four magic bytes opening every frame.
const FRAME_MAGIC: [u8; 4] = *b"CCAR";

/// The protocol version this build speaks.
pub const FRAME_VERSION: u8 = 2;

/// Fixed header size in bytes (the trace-context extension follows it).
pub const FRAME_HEADER_LEN: usize = 20;

/// Size of the trace-context extension when present: two `u64` LE ids.
pub const TRACE_CONTEXT_LEN: usize = 16;

/// Header flag bit 0: a trace-context extension follows the header.
const FLAG_TRACE_CONTEXT: u8 = 1;

/// Default payload cap: large enough for any marshaled `wire` array the
/// decoder itself accepts, small enough that a hostile length field cannot
/// make the reader balloon.
pub const DEFAULT_MAX_PAYLOAD: u32 = 64 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A marshaled [`crate::wire::Request`].
    Request,
    /// A marshaled [`crate::wire::Reply`].
    Reply,
    /// A raw data-plane slab (see [`crate::bulk`]): one bounded chunk of
    /// an M×N array redistribution, carried as little-endian bytes with
    /// no per-element encoding. Acknowledged with a `Reply` frame bearing
    /// the same correlation id, so bulk traffic multiplexes over the same
    /// sockets as control-plane calls.
    Bulk,
    /// A fleet rank announcing itself on this connection: rank id,
    /// incarnation, and provider labels (see `cca-framework::fleet`).
    /// Acknowledged with a `Reply` frame; after a successful join the
    /// connection *is* the rank's liveness signal — its death is the
    /// rank's death.
    Join,
    /// A fleet rank departing cleanly, so the subsequent socket close is
    /// not treated as a crash. Acknowledged with a `Reply` frame.
    Leave,
}

impl FrameKind {
    /// The wire encoding of this kind (header byte 5).
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Reply => 1,
            FrameKind::Bulk => 2,
            FrameKind::Join => 3,
            FrameKind::Leave => 4,
        }
    }

    /// Decodes header byte 5; any value other than the known kinds is a
    /// typed [`FrameError::BadKind`].
    pub fn from_byte(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Reply),
            2 => Ok(FrameKind::Bulk),
            3 => Ok(FrameKind::Join),
            4 => Ok(FrameKind::Leave),
            other => Err(FrameError::BadKind(other)),
        }
    }
}

/// One complete frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Request or reply.
    pub kind: FrameKind,
    /// Transport-level correlation id.
    pub request_id: u64,
    /// The caller's trace identity, when the peer sent one.
    pub context: Option<TraceContext>,
    /// The marshaled message.
    pub payload: Bytes,
}

/// Why a byte sequence is not a frame. Every variant is a protocol error a
/// peer produced (or an attacker forged); none of them panic the reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not `FRAME_MAGIC`.
    BadMagic([u8; 4]),
    /// The version byte names a protocol this build does not speak.
    BadVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
    /// The extension bytes are inconsistent: unknown flag bits, a length
    /// that disagrees with the flags, or a context with zeroed ids.
    BadContext(&'static str),
    /// The declared payload length exceeds the reader's cap.
    Oversized {
        /// Length the header declared.
        declared: u32,
        /// The reader's cap.
        cap: u32,
    },
    /// The stream ended inside a frame (header, extension, or payload).
    Truncated {
        /// Bytes buffered when the stream ended.
        have: usize,
        /// Bytes the complete frame needed.
        need: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(
                f,
                "unsupported frame version {v} (this build speaks {FRAME_VERSION})"
            ),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadContext(why) => write!(f, "bad trace-context extension: {why}"),
            FrameError::Oversized { declared, cap } => {
                write!(
                    f,
                    "frame payload of {declared} bytes exceeds the {cap}-byte cap"
                )
            }
            FrameError::Truncated { have, need } => {
                write!(f, "stream ended mid-frame ({have} of {need} bytes)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for SidlError {
    fn from(e: FrameError) -> Self {
        SidlError::user(crate::mux::CONNECTION_EXCEPTION_TYPE, e.to_string())
    }
}

/// Encodes one frame without a trace context. Fails (typed, no panic) if
/// the payload exceeds `max_payload`.
pub fn encode_frame(
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
    max_payload: u32,
) -> Result<Vec<u8>, FrameError> {
    encode_frame_with(kind, request_id, payload, max_payload, None)
}

/// Encodes one frame, carrying `context` as the 16-byte extension when
/// given. A context with a zeroed id is treated as absent (zero is the
/// wire's "no trace" sentinel, and the decoder rejects it as garbage).
pub fn encode_frame_with(
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
    max_payload: u32,
    context: Option<TraceContext>,
) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + TRACE_CONTEXT_LEN + payload.len());
    encode_frame_onto(&mut out, kind, request_id, payload, max_payload, context)?;
    Ok(out)
}

/// Appends one encoded frame to `out` — byte-identical to what
/// [`encode_frame_with`] returns, without the intermediate allocation.
/// The mux server frames each reply straight onto its connection's
/// outgoing buffer with this; on error `out` is untouched.
pub fn encode_frame_onto(
    out: &mut Vec<u8>,
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
    max_payload: u32,
    context: Option<TraceContext>,
) -> Result<(), FrameError> {
    encode_frame_header_onto(out, kind, request_id, payload.len(), max_payload, context)?;
    out.extend_from_slice(payload);
    Ok(())
}

/// Appends just the header (and trace extension) of a frame whose
/// `payload_len` payload bytes the caller writes next. The mux client's
/// bulk lane frames each slab this way: the header goes into a small
/// buffer written just ahead of the sender's own slab, so the slab is
/// never copied into a frame buffer. On error `out` is untouched.
pub fn encode_frame_header_onto(
    out: &mut Vec<u8>,
    kind: FrameKind,
    request_id: u64,
    payload_len: usize,
    max_payload: u32,
    context: Option<TraceContext>,
) -> Result<(), FrameError> {
    if payload_len > max_payload as usize {
        return Err(FrameError::Oversized {
            declared: payload_len.min(u32::MAX as usize) as u32,
            cap: max_payload,
        });
    }
    let context = context.filter(|c| c.trace_id != 0 && c.span_id != 0);
    let ctx_len = if context.is_some() {
        TRACE_CONTEXT_LEN
    } else {
        0
    };
    out.reserve(FRAME_HEADER_LEN + ctx_len + payload_len);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind.to_byte());
    out.push(if context.is_some() {
        FLAG_TRACE_CONTEXT
    } else {
        0
    });
    out.push(ctx_len as u8);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    if let Some(ctx) = context {
        out.extend_from_slice(&ctx.trace_id.to_le_bytes());
        out.extend_from_slice(&ctx.span_id.to_le_bytes());
    }
    Ok(())
}

/// Parsed header fields (internal).
struct Header {
    kind: FrameKind,
    request_id: u64,
    ctx_len: usize,
    payload_len: u32,
}

fn parse_header(raw: &[u8; FRAME_HEADER_LEN], max_payload: u32) -> Result<Header, FrameError> {
    if raw[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic([raw[0], raw[1], raw[2], raw[3]]));
    }
    if raw[4] != FRAME_VERSION {
        return Err(FrameError::BadVersion(raw[4]));
    }
    let kind = FrameKind::from_byte(raw[5])?;
    let flags = raw[6];
    if flags & !FLAG_TRACE_CONTEXT != 0 {
        return Err(FrameError::BadContext("unknown flag bits"));
    }
    let ctx_len = raw[7] as usize;
    let want = if flags & FLAG_TRACE_CONTEXT != 0 {
        TRACE_CONTEXT_LEN
    } else {
        0
    };
    if ctx_len != want {
        return Err(FrameError::BadContext("length disagrees with flags"));
    }
    let request_id = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    let payload_len = u32::from_le_bytes(raw[16..20].try_into().unwrap());
    if payload_len > max_payload {
        return Err(FrameError::Oversized {
            declared: payload_len,
            cap: max_payload,
        });
    }
    Ok(Header {
        kind,
        request_id,
        ctx_len,
        payload_len,
    })
}

/// Decodes the extension bytes following the header. Zeroed ids are the
/// in-memory "no trace" sentinel; a peer that puts them on the wire sent
/// garbage, and saying so catches bit-rot a silent `None` would mask.
fn decode_context(ext: &[u8]) -> Result<Option<TraceContext>, FrameError> {
    if ext.is_empty() {
        return Ok(None);
    }
    let trace_id = u64::from_le_bytes(ext[0..8].try_into().unwrap());
    let span_id = u64::from_le_bytes(ext[8..16].try_into().unwrap());
    if trace_id == 0 || span_id == 0 {
        return Err(FrameError::BadContext("zeroed trace ids"));
    }
    Ok(Some(TraceContext { trace_id, span_id }))
}

/// Incremental frame reassembly over a byte stream delivered in arbitrary
/// chunks. Feed bytes as they arrive; complete frames pop out in order.
/// The header is validated as soon as its 20 bytes are buffered, and the
/// trace-context extension as soon as *its* bytes are, so a bad magic, an
/// oversized length, or a garbage context is rejected *before* any
/// payload accumulates.
pub struct FrameDecoder {
    /// Shared storage handed over by an earlier zero-copy pop; logically
    /// *precedes* `buf` in the stream and is consumed first, frame by
    /// frame, without copying.
    view: Bytes,
    /// Unread stream bytes are `buf[start..filled]`: a small-frame pop
    /// advances `start`, and the next fill moves what is left (a partial
    /// frame) to the front once, so a burst of small frames costs one
    /// copy per byte, not one shift of the whole backlog per frame. What
    /// lies past `filled` is scratch that an earlier
    /// [`fill_from`](Self::fill_from) zeroed and offered to a `read`;
    /// keeping it inside `len` is what lets the next call offer it again
    /// without zeroing it again.
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    /// Full-range handles on storages given away by zero-copy pops. Once
    /// the consumers of a storage's payload views drop them, the handle
    /// here is the last one and the `Vec` is reclaimed as the next `buf`
    /// — a steady slab stream cycles through the same few megabyte
    /// buffers instead of mapping and faulting fresh pages per chunk.
    retired: Vec<Bytes>,
    max_payload: u32,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder with the default payload cap.
    pub fn new() -> Self {
        Self::with_max_payload(DEFAULT_MAX_PAYLOAD)
    }

    /// A decoder with an explicit payload cap.
    pub fn with_max_payload(max_payload: u32) -> Self {
        FrameDecoder {
            view: Bytes::new(),
            buf: Vec::new(),
            start: 0,
            filled: 0,
            retired: Vec::new(),
            max_payload,
        }
    }

    /// Moves the unread bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
    }

    /// Appends newly arrived bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.truncate(self.filled);
        self.buf.extend_from_slice(chunk);
        self.filled = self.buf.len();
    }

    /// Reads up to `max` bytes from `reader` directly into the buffer —
    /// [`feed`](Self::feed) without the intermediate scratch copy. Returns
    /// the byte count from the underlying `read` (0 meaning end of
    /// stream); the buffer is unchanged on error.
    pub fn fill_from(
        &mut self,
        reader: &mut impl std::io::Read,
        max: usize,
    ) -> std::io::Result<usize> {
        self.compact();
        let end = self.filled + max;
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        let n = reader.read(&mut self.buf[self.filled..end])?;
        self.filled += n;
        Ok(n)
    }

    /// Bytes buffered but not yet popped as a frame.
    pub fn buffered(&self) -> usize {
        self.view.len() + self.filled - self.start
    }

    /// Parses one frame from the front of `bytes`; `None` means incomplete.
    /// Returns the header, decoded context, payload start, and frame end.
    #[allow(clippy::type_complexity)]
    fn parse_prefix(
        bytes: &[u8],
        max_payload: u32,
    ) -> Result<Option<(Header, Option<TraceContext>, usize, usize)>, FrameError> {
        let Some(raw) = bytes.first_chunk::<FRAME_HEADER_LEN>() else {
            return Ok(None);
        };
        let header = parse_header(raw, max_payload)?;
        let body_at = FRAME_HEADER_LEN + header.ctx_len;
        if bytes.len() < body_at {
            return Ok(None);
        }
        let context = decode_context(&bytes[FRAME_HEADER_LEN..body_at])?;
        let total = body_at + header.payload_len as usize;
        if bytes.len() < total {
            return Ok(None);
        }
        Ok(Some((header, context, body_at, total)))
    }

    /// Pops the next complete frame, if one is buffered. `Ok(None)` means
    /// "keep feeding"; an error is fatal for the stream (framing has no
    /// resync point, so the caller must drop the connection).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        // Frames wholly inside the shared view pop as pure slices — this
        // is the steady state of a pipelined slab stream, where one
        // buffer-to-`Bytes` conversion serves every frame it contained.
        if !self.view.is_empty() {
            match Self::parse_prefix(self.view.as_slice(), self.max_payload)? {
                Some((header, context, body_at, total)) => {
                    let head = self.view.split_to(total);
                    return Ok(Some(Frame {
                        kind: header.kind,
                        request_id: header.request_id,
                        context,
                        payload: head.slice(body_at..),
                    }));
                }
                None => {
                    // The frame straddles the view/buf seam. Fold the
                    // (partial-frame-sized) remainder back in front of the
                    // accumulation buffer and continue contiguously.
                    let mut merged = self.view.to_vec();
                    merged.extend_from_slice(&self.buf[self.start..self.filled]);
                    self.start = 0;
                    self.filled = merged.len();
                    self.buf = merged;
                    self.view = Bytes::new();
                }
            }
        }
        let at = self.start;
        let Some((header, context, body_at, total)) =
            Self::parse_prefix(&self.buf[at..self.filled], self.max_payload)?
        else {
            return Ok(None);
        };
        // Large payloads (data-plane slabs) pop as zero-copy views: the
        // whole buffer becomes shared `Bytes` (a move, not a copy), the
        // payload is a slice of it, and the tail — often the next frames
        // of the same stream — becomes the view consumed above. Small
        // payloads aren't worth the buffer churn and copy out as before.
        const ZERO_COPY_POP_MIN: usize = 32 << 10;
        let payload = if header.payload_len as usize >= ZERO_COPY_POP_MIN {
            // The storage moves whole, zeroed scratch tail included, and
            // every view is cut at `filled`: reclaimed, it comes back with
            // that tail still initialised, so `fill_from` offers it to the
            // next read without zeroing it again.
            let filled = std::mem::take(&mut self.filled);
            self.start = 0;
            let whole = Bytes::from(std::mem::take(&mut self.buf));
            self.view = whole.slice(at + total..filled);
            let payload = whole.slice(at + body_at..at + total);
            self.retired.push(whole);
            // Reclaim any retired storage whose views are all gone; the
            // one with the most initialised bytes becomes the next
            // accumulation buffer.
            let mut i = 0;
            while i < self.retired.len() {
                if self.retired[i].is_unique() {
                    if let Ok(v) = self.retired.swap_remove(i).try_unwrap() {
                        if self.buf.len() < v.len() {
                            self.buf = v;
                        }
                    }
                } else {
                    i += 1;
                }
            }
            // A stalled consumer must not pin unbounded storage.
            if self.retired.len() > 16 {
                self.retired.remove(0);
            }
            payload
        } else {
            let payload = Bytes::from(self.buf[at + body_at..at + total].to_vec());
            self.start += total;
            if self.start == self.filled {
                self.start = 0;
                self.filled = 0;
            }
            payload
        };
        Ok(Some(Frame {
            kind: header.kind,
            request_id: header.request_id,
            context,
            payload,
        }))
    }

    /// Declares end-of-stream: errors if bytes of an incomplete frame
    /// remain buffered (the peer hung up mid-message).
    pub fn finish(&self) -> Result<(), FrameError> {
        let have = self.buffered();
        if have == 0 {
            return Ok(());
        }
        // The leftover may straddle the view/buf seam; assemble just the
        // header's worth of prefix to name how much was expected.
        let mut prefix = [0u8; FRAME_HEADER_LEN];
        let from_view = self.view.len().min(FRAME_HEADER_LEN);
        prefix[..from_view].copy_from_slice(&self.view.as_slice()[..from_view]);
        let unread = &self.buf[self.start..self.filled];
        let from_buf = unread.len().min(FRAME_HEADER_LEN - from_view);
        prefix[from_view..from_view + from_buf].copy_from_slice(&unread[..from_buf]);
        let need = if from_view + from_buf < FRAME_HEADER_LEN {
            FRAME_HEADER_LEN
        } else {
            match parse_header(&prefix, self.max_payload) {
                Ok(h) => FRAME_HEADER_LEN + h.ctx_len + h.payload_len as usize,
                Err(e) => return Err(e),
            }
        };
        Err(FrameError::Truncated { have, need })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace_id: u64, span_id: u64) -> TraceContext {
        TraceContext { trace_id, span_id }
    }

    #[test]
    fn frame_round_trips_through_the_decoder() {
        let framed = encode_frame(FrameKind::Request, 42, b"payload", DEFAULT_MAX_PAYLOAD).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.context, None);
        assert_eq!(&frame.payload[..], b"payload");
        assert!(dec.next_frame().unwrap().is_none());
        dec.finish().unwrap();
    }

    #[test]
    fn context_round_trips_through_the_decoder() {
        let framed = encode_frame_with(
            FrameKind::Request,
            42,
            b"payload",
            DEFAULT_MAX_PAYLOAD,
            Some(ctx(0xdead_beef, 0x1234)),
        )
        .unwrap();
        assert_eq!(framed.len(), FRAME_HEADER_LEN + TRACE_CONTEXT_LEN + 7);
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame.context, Some(ctx(0xdead_beef, 0x1234)));
        assert_eq!(&frame.payload[..], b"payload");
        dec.finish().unwrap();
    }

    #[test]
    fn contextless_frames_spend_zero_extension_bytes() {
        // The E12/E13 invariant: tracing off ⇒ the frame is exactly the
        // v1 layout except the version byte. No flags, no extension.
        let framed = encode_frame(FrameKind::Reply, 9, b"ok", DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(framed.len(), FRAME_HEADER_LEN + 2);
        assert_eq!(framed[6], 0);
        assert_eq!(framed[7], 0);
        // A zeroed context is normalized to "absent", not sent as garbage.
        let zeroed = encode_frame_with(
            FrameKind::Reply,
            9,
            b"ok",
            DEFAULT_MAX_PAYLOAD,
            Some(ctx(0, 7)),
        )
        .unwrap();
        assert_eq!(zeroed, framed);
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let framed = encode_frame_with(
            FrameKind::Reply,
            7,
            b"slow",
            DEFAULT_MAX_PAYLOAD,
            Some(ctx(1, 2)),
        )
        .unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = None;
        for b in &framed {
            dec.feed(std::slice::from_ref(b));
            if let Some(f) = dec.next_frame().unwrap() {
                got = Some(f);
            }
        }
        let frame = got.expect("frame completed with the last byte");
        assert_eq!(frame.request_id, 7);
        assert_eq!(frame.context, Some(ctx(1, 2)));
        assert_eq!(&frame.payload[..], b"slow");
    }

    #[test]
    fn bad_magic_is_rejected_before_any_payload() {
        let mut framed = encode_frame(FrameKind::Request, 1, b"x", DEFAULT_MAX_PAYLOAD).unwrap();
        framed[0] = b'X';
        let mut dec = FrameDecoder::new();
        // Feed only the header: rejection must not wait for the payload.
        dec.feed(&framed[..FRAME_HEADER_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadMagic(m)) if m[0] == b'X'
        ));
    }

    #[test]
    fn version_kind_and_extension_bytes_are_validated() {
        let good = encode_frame(FrameKind::Request, 1, b"", DEFAULT_MAX_PAYLOAD).unwrap();
        for (offset, value, want) in [
            (4usize, 9u8, "version"),
            (5, 7, "kind"),
            (6, 0xfe, "flags"),
            (7, 5, "ctx-len"),
        ] {
            let mut bad = good.clone();
            bad[offset] = value;
            let mut dec = FrameDecoder::new();
            dec.feed(&bad);
            let err = dec.next_frame().unwrap_err();
            let matched = matches!(
                (&err, want),
                (FrameError::BadVersion(9), "version")
                    | (FrameError::BadKind(7), "kind")
                    | (FrameError::BadContext("unknown flag bits"), "flags")
                    | (
                        FrameError::BadContext("length disagrees with flags"),
                        "ctx-len"
                    )
            );
            assert!(matched, "{want}: {err:?}");
        }
    }

    #[test]
    fn zeroed_wire_context_is_typed_garbage() {
        let mut framed = encode_frame_with(
            FrameKind::Request,
            1,
            b"x",
            DEFAULT_MAX_PAYLOAD,
            Some(ctx(3, 4)),
        )
        .unwrap();
        framed[FRAME_HEADER_LEN..FRAME_HEADER_LEN + 8].fill(0);
        let mut dec = FrameDecoder::new();
        // Header + extension alone must reject: no payload needed.
        dec.feed(&framed[..FRAME_HEADER_LEN + TRACE_CONTEXT_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadContext("zeroed trace ids"))
        ));
    }

    #[test]
    fn flags_and_length_must_agree_both_ways() {
        // flags=1 but length 0.
        let mut framed = encode_frame_with(
            FrameKind::Request,
            1,
            b"",
            DEFAULT_MAX_PAYLOAD,
            Some(ctx(3, 4)),
        )
        .unwrap();
        framed[7] = 0;
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadContext("length disagrees with flags"))
        ));
        // flags=0 but length 16.
        let mut framed = encode_frame(FrameKind::Request, 1, b"", DEFAULT_MAX_PAYLOAD).unwrap();
        framed[7] = TRACE_CONTEXT_LEN as u8;
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadContext("length disagrees with flags"))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone() {
        let mut framed = encode_frame(FrameKind::Request, 1, b"abc", 1024).unwrap();
        framed[16..20].copy_from_slice(&(2048u32).to_le_bytes());
        let mut dec = FrameDecoder::with_max_payload(1024);
        dec.feed(&framed[..FRAME_HEADER_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized {
                declared: 2048,
                cap: 1024
            })
        ));
        // Encoding over the cap is refused symmetrically.
        assert!(matches!(
            encode_frame(FrameKind::Request, 1, &[0u8; 2048], 1024),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_is_reported_at_end_of_stream() {
        let framed = encode_frame_with(
            FrameKind::Request,
            1,
            b"hello",
            DEFAULT_MAX_PAYLOAD,
            Some(ctx(1, 2)),
        )
        .unwrap();
        // Cut inside the payload, and separately inside the extension.
        for cut in [framed.len() - 1, FRAME_HEADER_LEN + 3] {
            let mut dec = FrameDecoder::new();
            dec.feed(&framed[..cut]);
            assert!(dec.next_frame().unwrap().is_none(), "frame is incomplete");
            let err = dec.finish().unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { have, need }
                    if have == cut && need == framed.len()),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn fill_from_distinguishes_clean_eof_from_mid_frame_eof() {
        // Reads a stream through `fill_from` in 7-byte reads, popping
        // frames as they complete, to the reader's end of stream.
        fn read_to_end(mut stream: &[u8]) -> (Vec<Frame>, Result<(), FrameError>) {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            while dec.fill_from(&mut stream, 7).unwrap() > 0 {
                while let Some(frame) = dec.next_frame().unwrap() {
                    frames.push(frame);
                }
            }
            (frames, dec.finish())
        }
        let framed = encode_frame_with(
            FrameKind::Reply,
            3,
            b"ok",
            DEFAULT_MAX_PAYLOAD,
            Some(ctx(5, 6)),
        )
        .unwrap();
        let (frames, end) = read_to_end(&framed);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].request_id, 3);
        assert_eq!(frames[0].context, Some(ctx(5, 6)));
        assert_eq!(end, Ok(()));
        // EOF inside the extension bytes is mid-frame, not clean.
        let (frames, end) = read_to_end(&framed[..FRAME_HEADER_LEN + 5]);
        assert!(frames.is_empty());
        assert_eq!(
            end,
            Err(FrameError::Truncated {
                have: FRAME_HEADER_LEN + 5,
                need: framed.len()
            })
        );
    }

    #[test]
    fn back_to_back_frames_pop_in_order() {
        let mut stream = Vec::new();
        for id in 0..5u64 {
            // Alternate context/no-context to prove the boundary logic
            // accounts for the variable extension.
            let context = (id % 2 == 0).then(|| ctx(id + 1, id + 100));
            stream.extend(
                encode_frame_with(
                    FrameKind::Request,
                    id,
                    format!("m{id}").as_bytes(),
                    DEFAULT_MAX_PAYLOAD,
                    context,
                )
                .unwrap(),
            );
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        for id in 0..5u64 {
            let f = dec.next_frame().unwrap().unwrap();
            assert_eq!(f.request_id, id);
            assert_eq!(f.context, (id % 2 == 0).then(|| ctx(id + 1, id + 100)));
            assert_eq!(f.payload.as_slice(), format!("m{id}").as_bytes());
        }
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn scratch_past_the_filled_mark_never_reads_as_stream_bytes() {
        // Small frames (copied out, scratch kept) and slab-sized ones
        // (zero-copy pop, buffer given away) alternate, delivered in
        // 7,001-byte reads against a 64 KiB offer with a `feed` thrown in,
        // so every pop leaves stale bytes past the mark and every seam
        // (view/buf straddle, recycled buffer) is crossed.
        let payloads: Vec<Vec<u8>> = (0..12u8)
            .map(|i| {
                vec![
                    i + 1;
                    if i % 3 == 2 {
                        40 << 10
                    } else {
                        100 + i as usize
                    }
                ]
            })
            .collect();
        let mut stream = Vec::new();
        for (id, payload) in payloads.iter().enumerate() {
            stream.extend(
                encode_frame(FrameKind::Bulk, id as u64, payload, DEFAULT_MAX_PAYLOAD).unwrap(),
            );
        }
        let mut dec = FrameDecoder::new();
        let mut popped = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let (mut piece, tail) = rest.split_at(rest.len().min(7_001));
            rest = tail;
            if popped.len() == 5 {
                dec.feed(piece);
            } else {
                let offered = piece.len();
                assert_eq!(dec.fill_from(&mut piece, 64 << 10).unwrap(), offered);
            }
            while let Some(frame) = dec.next_frame().unwrap() {
                popped.push(frame);
            }
        }
        dec.finish().unwrap();
        assert_eq!(dec.buffered(), 0);
        assert_eq!(popped.len(), payloads.len());
        for (id, (frame, payload)) in popped.iter().zip(&payloads).enumerate() {
            assert_eq!(frame.request_id, id as u64);
            assert_eq!(frame.payload.as_slice(), &payload[..]);
        }
    }

    #[test]
    fn popping_small_frames_costs_the_same_per_frame_however_many_are_buffered() {
        // One fill, then k pops of 64-byte frames. A decoder that moves
        // the unread bytes on every pop copies O(k²) bytes; one that
        // advances a cursor copies O(k). The bound is a ratio of two
        // readings from the same run, so it holds on any host.
        fn per_frame_ns(k: usize) -> f64 {
            let frame = encode_frame(FrameKind::Reply, 1, &[5u8; 64], DEFAULT_MAX_PAYLOAD).unwrap();
            let stream = frame.repeat(k);
            let mut dec = FrameDecoder::new();
            dec.fill_from(&mut &stream[..], stream.len()).unwrap();
            let start = std::time::Instant::now();
            for _ in 0..k {
                std::hint::black_box(dec.next_frame().unwrap().unwrap());
            }
            let ns = start.elapsed().as_nanos() as f64 / k as f64;
            assert_eq!(dec.buffered(), 0);
            ns
        }
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (mut few, mut many) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            few.push(per_frame_ns(1_024));
            many.push(per_frame_ns(16_384));
        }
        let ratio = median(many) / median(few);
        assert!(
            ratio <= 4.0,
            "a pop with 16,384 frames buffered costs {ratio:.2}x one with 1,024"
        );
    }

    #[test]
    fn reclaimed_storage_keeps_its_zeroed_scratch() {
        // One slab-sized frame per read, each payload dropped before the
        // next read — a server answering one large call at a time.
        const OFFER: usize = 256 << 10;
        let frame = |id| encode_frame(FrameKind::Request, id, &[7u8; 40 << 10], u32::MAX).unwrap();
        let mut dec = FrameDecoder::new();
        for id in 0..2 {
            dec.fill_from(&mut &frame(id)[..], OFFER).unwrap();
            drop(dec.next_frame().unwrap().unwrap());
        }
        // The second pop reclaimed the first storage whole: its tail past
        // the frame is still initialised, so the next offer of `OFFER`
        // bytes needs no resize — no allocation, no zero-fill.
        assert_eq!(dec.filled, 0);
        assert!(dec.buf.len() >= OFFER, "storage came back truncated");
        let storage = dec.buf.as_ptr();
        dec.fill_from(&mut &frame(2)[..], OFFER).unwrap();
        assert_eq!(dec.buf.as_ptr(), storage);
        let popped = dec.next_frame().unwrap().unwrap();
        assert_eq!(popped.request_id, 2);
        assert_eq!(popped.payload.as_slice(), &[7u8; 40 << 10][..]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn duplicate_request_ids_are_framing_legal_and_decode_intact() {
        // The framing layer is deliberately id-agnostic: two well-formed
        // frames bearing the same request id both decode, each with its
        // own payload. Detecting the duplicate — and killing the
        // connection that produced it — is the mux routing table's job
        // (`mux::MuxTransport`), not the codec's; a codec that dropped or
        // merged duplicates would mask the protocol violation the mux
        // layer must report.
        let mut stream = Vec::new();
        stream.extend(encode_frame(FrameKind::Reply, 9, b"first", DEFAULT_MAX_PAYLOAD).unwrap());
        stream.extend(encode_frame(FrameKind::Reply, 9, b"second", DEFAULT_MAX_PAYLOAD).unwrap());
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let a = dec.next_frame().unwrap().unwrap();
        let b = dec.next_frame().unwrap().unwrap();
        assert_eq!(
            (a.request_id, a.payload.as_slice()),
            (9, b"first".as_slice())
        );
        assert_eq!(
            (b.request_id, b.payload.as_slice()),
            (9, b"second".as_slice())
        );
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn kind_bytes_round_trip_and_reject_unknown_values() {
        assert_eq!(
            FrameKind::from_byte(FrameKind::Request.to_byte()).unwrap(),
            FrameKind::Request
        );
        assert_eq!(
            FrameKind::from_byte(FrameKind::Reply.to_byte()).unwrap(),
            FrameKind::Reply
        );
        assert_eq!(
            FrameKind::from_byte(FrameKind::Bulk.to_byte()).unwrap(),
            FrameKind::Bulk
        );
        assert_eq!(
            FrameKind::from_byte(FrameKind::Join.to_byte()).unwrap(),
            FrameKind::Join
        );
        assert_eq!(
            FrameKind::from_byte(FrameKind::Leave.to_byte()).unwrap(),
            FrameKind::Leave
        );
        for bad in [5u8, 6, 0x7f, 0xff] {
            assert!(matches!(FrameKind::from_byte(bad), Err(FrameError::BadKind(b)) if b == bad));
        }
    }

    #[test]
    fn join_and_leave_frames_round_trip() {
        for kind in [FrameKind::Join, FrameKind::Leave] {
            let framed = encode_frame(kind, 77, b"rank-hello", DEFAULT_MAX_PAYLOAD).unwrap();
            let mut dec = FrameDecoder::new();
            dec.feed(&framed);
            let frame = dec.next_frame().unwrap().unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.request_id, 77);
            assert_eq!(&frame.payload[..], b"rank-hello");
        }
    }
}

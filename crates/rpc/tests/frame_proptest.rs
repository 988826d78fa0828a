//! Property tests for the frame codec: the hostile-network boundary layer
//! must reassemble anything a well-behaved peer sends, split at any TCP
//! segment boundary, and must reject everything else with a typed
//! [`FrameError`] — never a panic and never an unbounded buffer.

use bytes::Bytes;
use cca_obs::TraceContext;
use cca_rpc::bulk::{BulkAck, BulkError, ElemTag, SlabHeader, BULK_ACK_LEN, BULK_SLAB_HEADER_LEN};
use cca_rpc::frame::{
    encode_frame, encode_frame_with, Frame, FrameDecoder, FrameError, FrameKind,
    DEFAULT_MAX_PAYLOAD, FRAME_HEADER_LEN, TRACE_CONTEXT_LEN,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Request),
        Just(FrameKind::Reply),
        Just(FrameKind::Bulk),
    ]
}

fn arb_tag() -> impl Strategy<Value = ElemTag> {
    prop_oneof![
        Just(ElemTag::F64),
        Just(ElemTag::F32),
        Just(ElemTag::I64),
        Just(ElemTag::I32),
        Just(ElemTag::U64),
        Just(ElemTag::U8),
    ]
}

/// An optional trace context with the nonzero ids a real tracer produces
/// (zero is the wire's "no trace" sentinel and is typed-invalid).
fn arb_ctx() -> impl Strategy<Value = Option<TraceContext>> {
    (any::<bool>(), any::<u64>(), any::<u64>()).prop_map(|(present, t, s)| {
        present.then(|| TraceContext {
            trace_id: t.max(1),
            span_id: s.max(1),
        })
    })
}

/// Feeds `stream` to a decoder in chunks cut at `cuts` (cycled), draining
/// every complete frame after each feed — the access pattern of a socket
/// read loop over arbitrary segmentation.
fn decode_in_chunks(stream: &[u8], cuts: &[usize]) -> Result<Vec<Frame>, FrameError> {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut offset = 0;
    let mut cut_index = 0;
    while offset < stream.len() {
        let step = if cuts.is_empty() {
            stream.len()
        } else {
            cuts[cut_index % cuts.len()].max(1)
        };
        cut_index += 1;
        let end = (offset + step).min(stream.len());
        dec.feed(&stream[offset..end]);
        while let Some(f) = dec.next_frame()? {
            frames.push(f);
        }
        offset = end;
    }
    dec.finish()?;
    Ok(frames)
}

/// Reads `stream` through `Read` in `step`-byte reads straight into the
/// decoder (`fill_from`), draining every complete frame after each read,
/// to the reader's end of stream — the access pattern of the mux
/// client's reply reader.
fn read_in_chunks(mut stream: &[u8], step: usize) -> Result<Vec<Frame>, FrameError> {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    while dec.fill_from(&mut stream, step).unwrap() > 0 {
        while let Some(f) = dec.next_frame()? {
            frames.push(f);
        }
    }
    dec.finish()?;
    Ok(frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of frames — trace context present or absent, mixed
    /// freely — survives encode → split-at-arbitrary-boundaries → decode,
    /// bit-for-bit and in order.
    #[test]
    fn frames_survive_arbitrary_segmentation(
        messages in proptest::collection::vec(
            (arb_kind(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256), arb_ctx()),
            1..6,
        ),
        cuts in proptest::collection::vec(1usize..64, 0..10),
    ) {
        let mut stream = Vec::new();
        for (kind, id, payload, ctx) in &messages {
            stream.extend(
                encode_frame_with(*kind, *id, payload, DEFAULT_MAX_PAYLOAD, *ctx).unwrap(),
            );
        }
        let frames = decode_in_chunks(&stream, &cuts).unwrap();
        prop_assert_eq!(frames.len(), messages.len());
        for (frame, (kind, id, payload, ctx)) in frames.iter().zip(&messages) {
            prop_assert_eq!(frame.kind, *kind);
            prop_assert_eq!(frame.request_id, *id);
            prop_assert_eq!(frame.context, *ctx);
            prop_assert_eq!(frame.payload.as_slice(), payload.as_slice());
        }
    }

    /// Cutting a valid frame anywhere strictly inside it yields no frame
    /// and a typed `Truncated` at end-of-stream — not a hang, not a panic.
    #[test]
    fn truncated_frames_are_rejected(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        ctx in arb_ctx(),
        cut_fraction in 0.0f64..1.0,
    ) {
        // With a context present the cut can land inside the extension
        // bytes too; truncation must be typed wherever it falls.
        let framed =
            encode_frame_with(FrameKind::Request, id, &payload, DEFAULT_MAX_PAYLOAD, ctx).unwrap();
        let cut = 1 + ((framed.len() - 2) as f64 * cut_fraction) as usize; // 1..len-1
        let mut dec = FrameDecoder::new();
        dec.feed(&framed[..cut]);
        prop_assert!(dec.next_frame().unwrap().is_none());
        prop_assert!(matches!(dec.finish(), Err(FrameError::Truncated { .. })));
        // Read from a stream that ends there, EOF inside a frame is the
        // same typed error.
        prop_assert!(matches!(
            read_in_chunks(&framed[..cut], 16),
            Err(FrameError::Truncated { .. })
        ));
    }

    /// Corrupting any header byte yields a typed error or (only for bytes
    /// of the id/length fields) a different-but-bounded frame — never a
    /// panic, and never a read past the declared cap.
    #[test]
    fn corrupted_headers_never_panic(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        ctx in arb_ctx(),
        corrupt_at in 0usize..FRAME_HEADER_LEN,
        xor in 1u8..=255,
    ) {
        let mut framed =
            encode_frame_with(FrameKind::Reply, id, &payload, DEFAULT_MAX_PAYLOAD, ctx).unwrap();
        framed[corrupt_at] ^= xor;
        let mut dec = FrameDecoder::with_max_payload(4096);
        dec.feed(&framed);
        match dec.next_frame() {
            Err(
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::BadKind(_)
                | FrameError::BadContext(_)
                | FrameError::Oversized { .. },
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            // A corrupted id still decodes (ids are opaque); a corrupted
            // length either truncates (no frame yet) or shortens the
            // payload (frame pops, possibly with trailing garbage burned
            // by finish()). All bounded, all panic-free.
            Ok(_) => {}
        }
    }

    /// Corrupting the trace-context extension bytes themselves yields
    /// either a frame with different (still nonzero) ids or a typed
    /// `BadContext` when the corruption zeroes an id — never a panic, and
    /// the payload is never misframed (the extension length is fixed by
    /// the header, so flipping context bits cannot shift the boundary).
    #[test]
    fn corrupted_context_bytes_never_panic_or_misframe(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        corrupt_at in 0usize..TRACE_CONTEXT_LEN,
        xor in 1u8..=255,
    ) {
        let ctx = TraceContext { trace_id: 0x1111, span_id: 0x2222 };
        let mut framed =
            encode_frame_with(FrameKind::Request, id, &payload, DEFAULT_MAX_PAYLOAD, Some(ctx))
                .unwrap();
        framed[FRAME_HEADER_LEN + corrupt_at] ^= xor;
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        match dec.next_frame() {
            Ok(Some(frame)) => {
                let got = frame.context.expect("flags still demand a context");
                prop_assert!(got.trace_id != 0 && got.span_id != 0);
                prop_assert_eq!(frame.payload.as_slice(), payload.as_slice());
            }
            Err(FrameError::BadContext(_)) => {}
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    /// Any declared extension length other than exactly {0 without flags,
    /// 16 with flags} is a typed `BadContext` from the header alone — an
    /// attacker cannot use the length byte to smuggle or swallow bytes.
    #[test]
    fn mismatched_context_length_is_rejected(
        id in any::<u64>(),
        with_ctx in any::<bool>(),
        bad_len in any::<u8>(),
    ) {
        let ctx = with_ctx.then_some(TraceContext { trace_id: 7, span_id: 9 });
        let mut framed =
            encode_frame_with(FrameKind::Request, id, b"p", DEFAULT_MAX_PAYLOAD, ctx).unwrap();
        let good_len = framed[7];
        if bad_len != good_len {
            framed[7] = bad_len;
            let mut dec = FrameDecoder::new();
            dec.feed(&framed);
            prop_assert!(matches!(
                dec.next_frame(),
                Err(FrameError::BadContext(_))
            ));
        }
    }

    /// A declared length over the cap is rejected from the header alone —
    /// the decoder never buffers toward an oversized payload.
    #[test]
    fn oversized_frames_are_rejected_from_the_header(
        id in any::<u64>(),
        declared in 1025u32..1_000_000,
    ) {
        let mut header = encode_frame(FrameKind::Request, id, b"", DEFAULT_MAX_PAYLOAD).unwrap();
        header[16..20].copy_from_slice(&declared.to_le_bytes());
        let mut dec = FrameDecoder::with_max_payload(1024);
        dec.feed(&header);
        prop_assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized { declared: d, cap: 1024 }) if d == declared
        ));
        prop_assert_eq!(dec.buffered(), FRAME_HEADER_LEN);
    }

    /// Arbitrary garbage fed to the decoder either errors (typed) or waits
    /// for more bytes; it never panics. Wire payloads from the orb layer
    /// are opaque here, so this is the full input space.
    #[test]
    fn random_bytes_never_panic_the_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(1usize..32, 0..6),
    ) {
        let _ = decode_in_chunks(&data, &cuts);
        let _ = read_in_chunks(&data, 13);
    }

    /// Bytes fed to the decoder and bytes it reads from a stream itself
    /// decode alike on every valid stream.
    #[test]
    fn decoder_and_reader_agree(
        messages in proptest::collection::vec(
            (arb_kind(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64), arb_ctx()),
            0..5,
        ),
    ) {
        let mut stream = Vec::new();
        for (kind, id, payload, ctx) in &messages {
            stream.extend(
                encode_frame_with(*kind, *id, payload, DEFAULT_MAX_PAYLOAD, *ctx).unwrap(),
            );
        }
        let fed = decode_in_chunks(&stream, &[7]).unwrap();
        let read = read_in_chunks(&stream, 5).unwrap();
        prop_assert_eq!(fed.len(), read.len());
        for (a, b) in fed.iter().zip(&read) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.request_id, b.request_id);
            prop_assert_eq!(a.context, b.context);
            prop_assert_eq!(a.payload.as_slice(), b.payload.as_slice());
        }
    }

    // -- bulk data-plane battery ------------------------------------------

    /// A bulk slab framed as `FrameKind::Bulk` survives encode →
    /// split-at-arbitrary-boundaries → decode → slab parse, bit-for-bit:
    /// header fields and body bytes all round trip.
    #[test]
    fn bulk_slabs_survive_framing_and_segmentation(
        id in any::<u64>(),
        generation in any::<u64>(),
        transfer in any::<u32>(),
        tag in arb_tag(),
        body_elems in 0usize..48,
        lead_elems in 0usize..16,
        trail_elems in 0usize..16,
        fill in any::<u8>(),
        cuts in proptest::collection::vec(1usize..48, 0..8),
    ) {
        let elem = tag.elem_size();
        let header = SlabHeader {
            generation,
            transfer,
            tag,
            chunk_offset: (lead_elems * elem) as u64,
            total_bytes: ((lead_elems + body_elems + trail_elems) * elem) as u64,
        };
        let body: Vec<u8> = (0..body_elems * elem).map(|i| fill.wrapping_add(i as u8)).collect();
        let mut payload = vec![0u8; BULK_SLAB_HEADER_LEN + body.len()];
        header.encode_into(&mut payload);
        payload[BULK_SLAB_HEADER_LEN..].copy_from_slice(&body);
        let stream = encode_frame(FrameKind::Bulk, id, &payload, DEFAULT_MAX_PAYLOAD).unwrap();
        let frames = decode_in_chunks(&stream, &cuts).unwrap();
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(frames[0].kind, FrameKind::Bulk);
        prop_assert_eq!(frames[0].request_id, id);
        let (got, view) = SlabHeader::decode(&frames[0].payload).unwrap();
        prop_assert_eq!(got, header);
        prop_assert_eq!(view.as_slice(), &body[..]);
    }

    /// Any payload shorter than the slab header is a typed `Truncated`,
    /// carrying the exact byte counts — never a panic, never a partial
    /// parse.
    #[test]
    fn truncated_slabs_are_typed(
        len in 0usize..BULK_SLAB_HEADER_LEN,
        fill in any::<u8>(),
    ) {
        let raw = vec![fill; len];
        prop_assert!(matches!(
            SlabHeader::decode(&Bytes::from(raw)),
            Err(BulkError::Truncated { have, need })
                if have == len && need == BULK_SLAB_HEADER_LEN
        ));
    }

    /// Every element-tag byte outside the known set is a typed `BadTag`;
    /// every known byte round trips through its `ElemTag`.
    #[test]
    fn element_tag_bytes_are_exhaustively_typed(b in any::<u8>()) {
        match ElemTag::from_byte(b) {
            Ok(tag) => prop_assert_eq!(tag as u8, b),
            Err(BulkError::BadTag(got)) => {
                prop_assert_eq!(got, b);
                prop_assert!(!(1..=6).contains(&b));
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Corrupting any byte of a valid slab header yields either a clean
    /// parse (fields are opaque integers) or a typed `BulkError` — never a
    /// panic, and a parsed chunk never escapes its declared total.
    #[test]
    fn corrupted_slab_headers_never_panic(
        corrupt_at in 0usize..BULK_SLAB_HEADER_LEN,
        xor in 1u8..=255,
        body_elems in 0usize..8,
    ) {
        let header = SlabHeader {
            generation: 3,
            transfer: 1,
            tag: ElemTag::F64,
            chunk_offset: 16,
            total_bytes: (16 + body_elems * 8 + 8) as u64,
        };
        let mut raw = vec![0u8; BULK_SLAB_HEADER_LEN + body_elems * 8];
        header.encode_into(&mut raw);
        raw[corrupt_at] ^= xor;
        match SlabHeader::decode(&Bytes::from(raw)) {
            Ok((h, view)) => {
                prop_assert!(h.chunk_offset + view.len() as u64 <= h.total_bytes);
            }
            Err(
                BulkError::BadTag(_)
                | BulkError::BadReserved
                | BulkError::Misaligned { .. }
                | BulkError::OutOfRange { .. },
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Acks round trip; short ack payloads are typed `Truncated`.
    #[test]
    fn bulk_acks_round_trip_and_reject_short_payloads(
        generation in any::<u64>(),
        transfer in any::<u32>(),
        acked_through in any::<u64>(),
        short in 0usize..BULK_ACK_LEN,
    ) {
        let ack = BulkAck { generation, transfer, acked_through };
        prop_assert_eq!(BulkAck::decode(&ack.encode()).unwrap(), ack);
        prop_assert!(matches!(
            BulkAck::decode(&ack.encode()[..short]),
            Err(BulkError::Truncated { .. })
        ));
    }

    /// Every kind byte outside the known set {request, reply, bulk} is a
    /// typed `BadKind` from the header alone — the mux kills exactly the
    /// connection that sent it (see `tests/bulk_redist.rs` for the
    /// blast-radius half of that contract).
    #[test]
    fn unknown_kind_bytes_are_typed(
        id in any::<u64>(),
        kind_byte in 5u8..=255,
    ) {
        let mut framed = encode_frame(FrameKind::Bulk, id, b"x", DEFAULT_MAX_PAYLOAD).unwrap();
        framed[5] = kind_byte;
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        prop_assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadKind(b)) if b == kind_byte
        ));
    }
}

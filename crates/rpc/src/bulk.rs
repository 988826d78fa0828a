//! The bulk data plane: raw little-endian slabs for M×N redistribution.
//!
//! The generic [`wire`](crate::wire) encoding marshals a `DoubleArray` as
//! a whole value — tag byte, shape header, then its elements as one slab —
//! into a fresh message, and decodes it into a fresh `NdArray` on the far
//! side. That is the right trade for control-plane calls (self-describing,
//! reflective), and the wrong one for streaming a gigabyte of
//! already-typed array data whose layout both sides derive from the same
//! compiled plan (`cca_data::CompiledPlan`): the whole array is encoded
//! before the first byte
//! moves, and a dropped connection loses all of it. This module is the
//! other half of the bargain: a [`FrameKind::Bulk`](crate::frame::FrameKind)
//! frame whose payload is a *chunk* of a transfer, written straight from
//! the source array and resumable from an ack watermark —
//!
//! ```text
//! offset  size  field
//! 0       8     plan generation (u64 LE) — both sides must agree which
//!               compiled plan the offsets refer to
//! 8       4     transfer index (u32 LE) into the compiled plan's
//!               transfers(); its chunk boundaries are the framework's
//!               (cca_framework::bulk), never sent
//! 12      1     element type tag (ElemTag)
//! 13      3     reserved, must be zero
//! 16      8     chunk offset in bytes (u64 LE) from the start of the
//!               transfer's packed representation
//! 24      8     transfer total bytes (u64 LE) — redundant, so a single
//!               slab is self-delimiting and a mismatch is detectable
//! 32      …     raw little-endian element bytes, no per-element framing
//! ```
//!
//! The receiver acknowledges each slab with an ordinary `Reply` frame
//! carrying a [`BulkAck`]: the generation, the transfer, and the highest
//! byte offset through which the transfer is now *contiguously* landed.
//! The watermark is what makes mid-stream failure cheap — a retry after a
//! dropped connection resumes from the last acked chunk instead of
//! resending the array (see `cca_framework::bulk`).
//!
//! Every malformed slab is a typed [`BulkError`], surfaced to transports
//! as a `SidlError` of type [`BULK_EXCEPTION_TYPE`]; like frame-level
//! garbage, it is fatal only for the connection that produced it.

use bytes::Bytes;
use cca_data::le::LeScalar;
use cca_sidl::SidlError;
use std::fmt;

/// Fixed slab header size in bytes (element bytes follow it).
pub const BULK_SLAB_HEADER_LEN: usize = 32;

/// Size of an encoded [`BulkAck`] payload.
pub const BULK_ACK_LEN: usize = 24;

/// The SIDL exception type raised for bulk-protocol violations: a slab
/// that is truncated, misaligned, mistagged, or aimed at a transfer /
/// generation the receiver does not recognize.
pub const BULK_EXCEPTION_TYPE: &str = "cca.rpc.BulkProtocol";

/// Element type carried by a slab, one byte on the wire. The tag exists
/// so a receiver scattering raw bytes into a typed slice can prove the
/// sender agrees about the type *before* touching any memory — a size
/// match alone would let an `i64` slab land in an `f64` array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ElemTag {
    /// 64-bit IEEE float.
    F64 = 1,
    /// 32-bit IEEE float.
    F32 = 2,
    /// 64-bit signed integer.
    I64 = 3,
    /// 32-bit signed integer.
    I32 = 4,
    /// 64-bit unsigned integer.
    U64 = 5,
    /// Raw byte.
    U8 = 6,
}

impl ElemTag {
    /// Size in bytes of one element of this type.
    pub fn elem_size(self) -> usize {
        match self {
            ElemTag::F64 | ElemTag::I64 | ElemTag::U64 => 8,
            ElemTag::F32 | ElemTag::I32 => 4,
            ElemTag::U8 => 1,
        }
    }

    /// Decodes the tag byte; unknown values are typed errors.
    pub fn from_byte(b: u8) -> Result<Self, BulkError> {
        match b {
            1 => Ok(ElemTag::F64),
            2 => Ok(ElemTag::F32),
            3 => Ok(ElemTag::I64),
            4 => Ok(ElemTag::I32),
            5 => Ok(ElemTag::U64),
            6 => Ok(ElemTag::U8),
            other => Err(BulkError::BadTag(other)),
        }
    }
}

/// A fixed-width element type that can ride a bulk slab: an
/// [`LeScalar`] (its little-endian form and `SIZE`) with a wire tag. The
/// gather side writes a run of elements with `cca_data::le::write_slice`
/// straight from the source array's local storage; the scatter side reads
/// a run with `cca_data::le::read_into` straight into the destination
/// slice — no intermediate typed buffer on either side.
pub trait BulkElem: LeScalar + Default + Send + Sync + 'static {
    /// The wire tag for this type.
    const TAG: ElemTag;
}

macro_rules! bulk_elem {
    ($($ty:ty => $tag:expr),+ $(,)?) => {
        $(impl BulkElem for $ty {
            const TAG: ElemTag = $tag;
        })+
    };
}

bulk_elem! {
    f64 => ElemTag::F64,
    f32 => ElemTag::F32,
    i64 => ElemTag::I64,
    i32 => ElemTag::I32,
    u64 => ElemTag::U64,
    u8  => ElemTag::U8,
}

/// Why a byte sequence is not a valid slab (or ack). Typed, never a
/// panic; the connection that produced one is killed, nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulkError {
    /// The payload ended inside the slab (or ack) header.
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the header needs.
        need: usize,
    },
    /// The element-type tag byte names no known type.
    BadTag(u8),
    /// The sender's element tag disagrees with the receiver's array type.
    TagMismatch {
        /// Tag the slab carried.
        got: ElemTag,
        /// Tag the receiving array requires.
        want: ElemTag,
    },
    /// Reserved header bytes were nonzero.
    BadReserved,
    /// Chunk offset or body length is not a multiple of the element size.
    Misaligned {
        /// The offending byte count.
        value: u64,
        /// The element size it must divide by.
        elem_size: usize,
    },
    /// The chunk reaches past the transfer's declared total.
    OutOfRange {
        /// Chunk offset in bytes.
        offset: u64,
        /// Chunk body length in bytes.
        len: u64,
        /// Declared transfer total in bytes.
        total: u64,
    },
    /// The slab's plan generation is not the one the receiver serves.
    GenerationMismatch {
        /// Generation the slab named.
        got: u64,
        /// Generation the receiver is landing.
        want: u64,
    },
    /// The transfer index is outside the compiled plan.
    BadTransfer {
        /// Index the slab named.
        got: u32,
        /// Number of transfers in the plan.
        count: usize,
    },
    /// The slab's declared transfer total disagrees with the plan's.
    TotalMismatch {
        /// Total the slab declared.
        got: u64,
        /// Total the plan computes.
        want: u64,
    },
}

impl fmt::Display for BulkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BulkError::Truncated { have, need } => {
                write!(f, "bulk payload truncated ({have} of {need} header bytes)")
            }
            BulkError::BadTag(b) => write!(f, "unknown bulk element tag {b}"),
            BulkError::TagMismatch { got, want } => {
                write!(
                    f,
                    "bulk element tag {got:?} does not match array type {want:?}"
                )
            }
            BulkError::BadReserved => write!(f, "nonzero reserved bytes in bulk header"),
            BulkError::Misaligned { value, elem_size } => {
                write!(
                    f,
                    "bulk byte count {value} not a multiple of element size {elem_size}"
                )
            }
            BulkError::OutOfRange { offset, len, total } => {
                write!(
                    f,
                    "bulk chunk of {len} bytes at offset {offset} exceeds transfer total {total}"
                )
            }
            BulkError::GenerationMismatch { got, want } => {
                write!(
                    f,
                    "bulk slab for plan generation {got}, receiver serves {want}"
                )
            }
            BulkError::BadTransfer { got, count } => {
                write!(
                    f,
                    "bulk transfer index {got} outside plan of {count} transfers"
                )
            }
            BulkError::TotalMismatch { got, want } => {
                write!(
                    f,
                    "bulk transfer total {got} disagrees with plan total {want}"
                )
            }
        }
    }
}

impl std::error::Error for BulkError {}

impl From<BulkError> for SidlError {
    fn from(e: BulkError) -> Self {
        SidlError::user(BULK_EXCEPTION_TYPE, e.to_string())
    }
}

/// The parsed header of one slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabHeader {
    /// Plan generation both sides agreed on out of band.
    pub generation: u64,
    /// Index into `CompiledPlan::transfers()`.
    pub transfer: u32,
    /// Element type of the body bytes.
    pub tag: ElemTag,
    /// Byte offset of this chunk within the transfer's packed bytes.
    pub chunk_offset: u64,
    /// Total packed bytes of the whole transfer.
    pub total_bytes: u64,
}

impl SlabHeader {
    /// Encodes the header into the first [`BULK_SLAB_HEADER_LEN`] bytes of
    /// `out` (which must be at least that long).
    pub fn encode_into(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.generation.to_le_bytes());
        out[8..12].copy_from_slice(&self.transfer.to_le_bytes());
        out[12] = self.tag as u8;
        out[13..16].fill(0);
        out[16..24].copy_from_slice(&self.chunk_offset.to_le_bytes());
        out[24..32].copy_from_slice(&self.total_bytes.to_le_bytes());
    }

    /// Parses and validates a slab payload, returning the header and the
    /// body (element bytes) as a zero-copy sub-view. Checks everything
    /// that does not require the plan: length, tag, reserved bytes,
    /// element alignment of both offset and body, and range against the
    /// declared total. Plan-dependent checks (generation, transfer index,
    /// total agreement) are the landing zone's job.
    pub fn decode(payload: &Bytes) -> Result<(SlabHeader, Bytes), BulkError> {
        let raw = payload.as_slice();
        if raw.len() < BULK_SLAB_HEADER_LEN {
            return Err(BulkError::Truncated {
                have: raw.len(),
                need: BULK_SLAB_HEADER_LEN,
            });
        }
        let tag = ElemTag::from_byte(raw[12])?;
        if raw[13..16] != [0, 0, 0] {
            return Err(BulkError::BadReserved);
        }
        let header = SlabHeader {
            generation: u64::from_le_bytes(raw[0..8].try_into().unwrap()),
            transfer: u32::from_le_bytes(raw[8..12].try_into().unwrap()),
            tag,
            chunk_offset: u64::from_le_bytes(raw[16..24].try_into().unwrap()),
            total_bytes: u64::from_le_bytes(raw[24..32].try_into().unwrap()),
        };
        let elem_size = tag.elem_size() as u64;
        let body_len = (raw.len() - BULK_SLAB_HEADER_LEN) as u64;
        if !header.chunk_offset.is_multiple_of(elem_size) {
            return Err(BulkError::Misaligned {
                value: header.chunk_offset,
                elem_size: tag.elem_size(),
            });
        }
        if !body_len.is_multiple_of(elem_size) {
            return Err(BulkError::Misaligned {
                value: body_len,
                elem_size: tag.elem_size(),
            });
        }
        // Checked: the offset is wire input, and a sum that wraps would
        // pass for in range.
        let end = header.chunk_offset.checked_add(body_len);
        if end.is_none_or(|end| end > header.total_bytes) {
            return Err(BulkError::OutOfRange {
                offset: header.chunk_offset,
                len: body_len,
                total: header.total_bytes,
            });
        }
        Ok((header, payload.slice(BULK_SLAB_HEADER_LEN..)))
    }
}

/// A receiver's acknowledgment of one slab, returned as the payload of
/// the `Reply` frame that answers a `Bulk` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkAck {
    /// Echo of the slab's plan generation.
    pub generation: u64,
    /// Echo of the slab's transfer index.
    pub transfer: u32,
    /// Bytes of the transfer now contiguously landed from offset 0 — the
    /// resume watermark: after a failure, the sender restarts at this
    /// offset, not at zero.
    pub acked_through: u64,
}

impl BulkAck {
    /// Encodes the ack as a [`BULK_ACK_LEN`]-byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; BULK_ACK_LEN];
        out[0..8].copy_from_slice(&self.generation.to_le_bytes());
        out[8..12].copy_from_slice(&self.transfer.to_le_bytes());
        // bytes 12..16 reserved, zero
        out[16..24].copy_from_slice(&self.acked_through.to_le_bytes());
        out
    }

    /// Decodes an ack payload; short or garbage bytes are typed errors.
    pub fn decode(raw: &[u8]) -> Result<Self, BulkError> {
        if raw.len() < BULK_ACK_LEN {
            return Err(BulkError::Truncated {
                have: raw.len(),
                need: BULK_ACK_LEN,
            });
        }
        if raw[12..16] != [0, 0, 0, 0] {
            return Err(BulkError::BadReserved);
        }
        Ok(BulkAck {
            generation: u64::from_le_bytes(raw[0..8].try_into().unwrap()),
            transfer: u32::from_le_bytes(raw[8..12].try_into().unwrap()),
            acked_through: u64::from_le_bytes(raw[16..24].try_into().unwrap()),
        })
    }
}

/// Where a server lands bulk slabs. `MuxServer::set_bulk_sink` installs
/// one; every decoded `Bulk` frame is handed to it on the server's event
/// loop, in the pass that decoded it, and the returned bytes travel back
/// as the `Reply` payload (normally an encoded [`BulkAck`]). An `Err`
/// kills the producing connection — same blast radius as a framing error
/// — and nothing else.
///
/// `receive` runs on the one thread that serves every connection of the
/// server, so it must not block: validate, scatter, answer. Waiting on a
/// lock another thread holds for long, on I/O, or on another peer would
/// stall them all.
pub trait BulkSink: Send + Sync {
    /// Lands one slab; returns the ack payload to send back.
    fn receive(&self, payload: Bytes) -> Result<Vec<u8>, SidlError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab(header: SlabHeader, body: &[u8]) -> Bytes {
        let mut raw = vec![0u8; BULK_SLAB_HEADER_LEN + body.len()];
        header.encode_into(&mut raw);
        raw[BULK_SLAB_HEADER_LEN..].copy_from_slice(body);
        Bytes::from(raw)
    }

    #[test]
    fn slab_header_round_trips() {
        let h = SlabHeader {
            generation: 7,
            transfer: 3,
            tag: ElemTag::F64,
            chunk_offset: 64,
            total_bytes: 128,
        };
        let body: Vec<u8> = (0..64).collect();
        let (got, view) = SlabHeader::decode(&slab(h, &body)).unwrap();
        assert_eq!(got, h);
        assert_eq!(view.as_slice(), &body[..]);
    }

    #[test]
    fn truncated_and_reserved_and_tag_bytes_are_typed() {
        assert!(matches!(
            SlabHeader::decode(&Bytes::from(vec![0u8; 31])),
            Err(BulkError::Truncated { have: 31, need: 32 })
        ));
        let h = SlabHeader {
            generation: 1,
            transfer: 0,
            tag: ElemTag::U8,
            chunk_offset: 0,
            total_bytes: 4,
        };
        let mut raw = slab(h, &[1, 2, 3, 4]).to_vec();
        raw[14] = 9;
        assert!(matches!(
            SlabHeader::decode(&Bytes::from(raw.clone())),
            Err(BulkError::BadReserved)
        ));
        raw[14] = 0;
        raw[12] = 0xee;
        assert!(matches!(
            SlabHeader::decode(&Bytes::from(raw)),
            Err(BulkError::BadTag(0xee))
        ));
    }

    #[test]
    fn misaligned_and_out_of_range_chunks_are_typed() {
        let h = SlabHeader {
            generation: 1,
            transfer: 0,
            tag: ElemTag::F64,
            chunk_offset: 8,
            total_bytes: 16,
        };
        // Body of 9 bytes: not a multiple of 8.
        assert!(matches!(
            SlabHeader::decode(&slab(h, &[0u8; 9])),
            Err(BulkError::Misaligned {
                value: 9,
                elem_size: 8
            })
        ));
        // Offset 4 with f64 elements.
        let h2 = SlabHeader {
            chunk_offset: 4,
            ..h
        };
        assert!(matches!(
            SlabHeader::decode(&slab(h2, &[0u8; 8])),
            Err(BulkError::Misaligned {
                value: 4,
                elem_size: 8
            })
        ));
        // Chunk reaching past the declared total.
        let h3 = SlabHeader {
            chunk_offset: 8,
            ..h
        };
        assert!(matches!(
            SlabHeader::decode(&slab(h3, &[0u8; 16])),
            Err(BulkError::OutOfRange {
                offset: 8,
                len: 16,
                total: 16
            })
        ));
    }

    #[test]
    fn a_chunk_offset_that_wraps_the_range_check_is_out_of_range() {
        // offset + 8 == 0 (mod 2^64): unchecked, the sum passes for in
        // range against any total (release) or panics (debug).
        let h = SlabHeader {
            generation: 1,
            transfer: 0,
            tag: ElemTag::F64,
            chunk_offset: u64::MAX - 7,
            total_bytes: 64,
        };
        let err = SlabHeader::decode(&slab(h, &[0u8; 8])).unwrap_err();
        assert_eq!(
            err,
            BulkError::OutOfRange {
                offset: u64::MAX - 7,
                len: 8,
                total: 64
            }
        );
        // Rendering the error must not wrap either.
        assert!(err.to_string().contains("18446744073709551608"));
    }

    #[test]
    fn ack_round_trips_and_rejects_garbage() {
        let ack = BulkAck {
            generation: 42,
            transfer: 5,
            acked_through: 1 << 30,
        };
        assert_eq!(BulkAck::decode(&ack.encode()).unwrap(), ack);
        assert!(matches!(
            BulkAck::decode(&[0u8; 12]),
            Err(BulkError::Truncated { have: 12, need: 24 })
        ));
        let mut raw = ack.encode();
        raw[13] = 1;
        assert!(matches!(BulkAck::decode(&raw), Err(BulkError::BadReserved)));
    }

    #[test]
    fn elem_round_trips_for_every_tag() {
        fn rt<T: BulkElem + PartialEq + std::fmt::Debug>(v: T) {
            let mut raw = [0u8; 8];
            v.write_le(&mut raw);
            assert_eq!(T::read_le(&raw), v);
            assert_eq!(T::TAG.elem_size(), T::SIZE);
            assert_eq!(ElemTag::from_byte(T::TAG as u8).unwrap(), T::TAG);
        }
        rt(1.5f64);
        rt(-2.25f32);
        rt(-7i64);
        rt(9i32);
        rt(u64::MAX - 3);
        rt(0xabu8);
    }

    #[test]
    fn bulk_errors_convert_to_typed_sidl_errors() {
        let e: SidlError = BulkError::BadTag(99).into();
        assert!(matches!(
            e,
            SidlError::UserException { ref exception_type, .. }
                if exception_type == BULK_EXCEPTION_TYPE
        ));
    }
}

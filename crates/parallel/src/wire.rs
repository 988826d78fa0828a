//! Wire form of communicator payloads, and the [`WireLink`] a [`Comm`](crate::Comm)
//! routes over when its peers live in other processes.
//!
//! The in-process fast path moves payloads as `Box<dyn Any + Send>` —
//! never serialized, exactly because all ranks share an address space.
//! A fleet of child-process ranks (see `cca-framework::fleet`) cannot:
//! every payload must cross a socket. This module is the boundary: a
//! small, closed set of concrete types — the scalars, pairs, and vectors
//! the collectives and the hydro pipeline actually exchange — each
//! encoded as one tag byte plus little-endian bytes, written and read
//! through [`cca_data::le`] (so every counted run is bounds-checked before
//! anything is allocated for it). A type outside the
//! set is a typed [`ParallelError::Unserializable`], never a silent
//! misroute: the send fails on the *sending* rank, where the fix is.
//!
//! The transport itself stays out of this crate. [`WireLink`] is the
//! four-method seam (`send`, `recv` and their metadata) that
//! `cca-framework` implements over `tcp+mux://`; `cca-parallel` knows
//! only that bytes go somewhere and come back with (source, context,
//! tag) routing intact.

use crate::error::ParallelError;
use cca_data::le::{self, LeScalar, Reader, Writer};
use std::any::Any;

/// One message delivered by a [`WireLink`]: the same routing triple an
/// in-process [`Envelope`](crate::comm) carries, with the payload in
/// wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMsg {
    /// World rank of the sender.
    pub src_world: usize,
    /// Communicator context id (sub-communicator isolation).
    pub context: u32,
    /// Full internal tag (user tag or collective-sequence tag).
    pub tag: u64,
    /// Encoded payload (see [`encode_any`]).
    pub bytes: Vec<u8>,
}

/// A byte transport between out-of-process ranks.
///
/// `send` must be non-blocking in the MPI "eager" sense (buffered by the
/// far side); `recv` blocks until *any* message for this rank arrives —
/// the communicator does its own (source, context, tag) matching and
/// buffering, exactly as over the in-process channels. Both surface fleet
/// interruptions ([`ParallelError::Interrupted`]) when the rank group's
/// generation changes under the caller, and [`ParallelError::Timeout`]
/// instead of hanging when the link's park deadline expires.
pub trait WireLink: Send + Sync {
    /// Delivers `bytes` to world rank `dst_world` under the routing triple.
    fn send(
        &self,
        dst_world: usize,
        context: u32,
        tag: u64,
        bytes: Vec<u8>,
    ) -> Result<(), ParallelError>;

    /// Blocks for the next message addressed to this rank.
    fn recv(&self) -> Result<WireMsg, ParallelError>;
}

// Tag bytes of the closed type set. Order is part of the wire contract.
const T_UNIT: u8 = 0;
const T_BOOL: u8 = 1;
const T_I32: u8 = 2;
const T_I64: u8 = 3;
const T_U32: u8 = 4;
const T_U64: u8 = 5;
const T_USIZE: u8 = 6;
const T_F32: u8 = 7;
const T_F64: u8 = 8;
const T_STRING: u8 = 9;
const T_VEC_F64: u8 = 10;
const T_VEC_U64: u8 = 11;
const T_VEC_I64: u8 = 12;
const T_VEC_USIZE: u8 = 13;
const T_VEC_U8: u8 = 14;
const T_VEC_U32: u8 = 15;
const T_PAIR_F64: u8 = 16;
const T_SPLIT_TRIPLE: u8 = 17;
const T_PAIR_USIZE: u8 = 18;
const T_VEC_SPLIT_TRIPLE: u8 = 19;

type SplitTriple = (Option<u32>, i64, usize);

/// Wire bytes of one [`SplitTriple`]: presence, color, key, world rank.
const SPLIT_TRIPLE_LEN: usize = 1 + 4 + 8 + 8;

fn write_split_triple(w: &mut Writer<'_>, &(color, key, world): &SplitTriple) {
    w.put(color.is_some() as u8);
    w.put(color.unwrap_or(0));
    w.put(key);
    w.put(world);
}

fn read_split_triple(r: &mut Reader<'_>) -> Result<SplitTriple, le::Error> {
    let present = r.get::<u8>()? != 0;
    let color = r.get::<u32>()?;
    Ok((present.then_some(color), r.get()?, r.get()?))
}

/// The tag byte, then `len` bytes from `write`, in one exact-size buffer.
fn tagged(tag: u8, len: usize, write: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    le::encode(1 + len, |w| {
        w.put(tag);
        write(w);
    })
}

/// Encodes a payload of one of the supported concrete types; `None` for
/// anything outside the set (the caller turns that into
/// [`ParallelError::Unserializable`] with the type's name).
pub fn encode_any(value: &dyn Any) -> Option<Vec<u8>> {
    // A scalar is its tag and its bytes; a vector its tag and a counted slab.
    macro_rules! scalars_and_slabs {
        ($($scalar:ty => $tag:expr),+; $($elem:ty => $vtag:expr),+) => {
            $(if let Some(&x) = value.downcast_ref::<$scalar>() {
                return Some(tagged($tag, <$scalar as LeScalar>::SIZE, |w| w.put(x)));
            })+
            $(if let Some(v) = value.downcast_ref::<Vec<$elem>>() {
                return Some(tagged($vtag, 4 + v.len() * <$elem as LeScalar>::SIZE, |w| w.slab(v)));
            })+
        };
    }
    scalars_and_slabs!(
        i32 => T_I32, i64 => T_I64, u32 => T_U32, u64 => T_U64,
        usize => T_USIZE, f32 => T_F32, f64 => T_F64;
        f64 => T_VEC_F64, u64 => T_VEC_U64, i64 => T_VEC_I64,
        usize => T_VEC_USIZE, u8 => T_VEC_U8, u32 => T_VEC_U32
    );
    if value.is::<()>() {
        return Some(vec![T_UNIT]);
    }
    if let Some(&b) = value.downcast_ref::<bool>() {
        return Some(vec![T_BOOL, b as u8]);
    }
    if let Some(s) = value.downcast_ref::<String>() {
        return Some(tagged(T_STRING, 4 + s.len(), |w| w.str32(s)));
    }
    if let Some(&(a, b)) = value.downcast_ref::<(f64, f64)>() {
        return Some(tagged(T_PAIR_F64, 16, |w| {
            w.put(a);
            w.put(b);
        }));
    }
    if let Some(&(a, b)) = value.downcast_ref::<(usize, usize)>() {
        return Some(tagged(T_PAIR_USIZE, 16, |w| {
            w.put(a);
            w.put(b);
        }));
    }
    // The `split` collective's allgathered (color, key, world_rank):
    // scalar on the gather leg, vector on the broadcast leg.
    if let Some(t) = value.downcast_ref::<SplitTriple>() {
        return Some(tagged(T_SPLIT_TRIPLE, SPLIT_TRIPLE_LEN, |w| {
            write_split_triple(w, t)
        }));
    }
    if let Some(v) = value.downcast_ref::<Vec<SplitTriple>>() {
        return Some(tagged(
            T_VEC_SPLIT_TRIPLE,
            4 + v.len() * SPLIT_TRIPLE_LEN,
            |w| {
                w.put(v.len() as u32);
                for t in v {
                    write_split_triple(w, t);
                }
            },
        ));
    }
    None
}

/// Decodes wire bytes back into a boxed value of the encoded concrete
/// type. The caller downcasts to its expected `T`; a mismatch surfaces
/// as the same [`ParallelError::TypeMismatch`] the in-process path
/// raises.
pub fn decode_to_box(bytes: &[u8]) -> Result<Box<dyn Any + Send>, ParallelError> {
    le::decode(bytes, read_any).map_err(|e| ParallelError::Codec(format!("wire value: {e}")))
}

fn read_any(r: &mut Reader<'_>) -> Result<Box<dyn Any + Send>, le::Error> {
    Ok(match r.get::<u8>()? {
        T_UNIT => Box::new(()),
        T_BOOL => Box::new(r.get::<u8>()? != 0),
        T_I32 => Box::new(r.get::<i32>()?),
        T_I64 => Box::new(r.get::<i64>()?),
        T_U32 => Box::new(r.get::<u32>()?),
        T_U64 => Box::new(r.get::<u64>()?),
        T_USIZE => Box::new(r.get::<usize>()?),
        T_F32 => Box::new(r.get::<f32>()?),
        T_F64 => Box::new(r.get::<f64>()?),
        T_STRING => Box::new(r.str32()?.to_string()),
        T_VEC_F64 => Box::new(r.slab::<f64>()?),
        T_VEC_U64 => Box::new(r.slab::<u64>()?),
        T_VEC_I64 => Box::new(r.slab::<i64>()?),
        T_VEC_USIZE => Box::new(r.slab::<usize>()?),
        T_VEC_U8 => Box::new(r.bytes32()?.to_vec()),
        T_VEC_U32 => Box::new(r.slab::<u32>()?),
        T_PAIR_F64 => Box::new((r.get::<f64>()?, r.get::<f64>()?)),
        T_PAIR_USIZE => Box::new((r.get::<usize>()?, r.get::<usize>()?)),
        T_SPLIT_TRIPLE => Box::new(read_split_triple(r)?),
        T_VEC_SPLIT_TRIPLE => {
            let n = r.count(SPLIT_TRIPLE_LEN)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(read_split_triple(r)?);
            }
            Box::new(v)
        }
        other => {
            return Err(le::Error::Invalid(format!(
                "unknown wire value tag {other}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: PartialEq + std::fmt::Debug + Clone + Send + 'static>(v: T) {
        let bytes = encode_any(&v).expect("type in the supported set");
        let back = decode_to_box(&bytes).unwrap();
        let back = back.downcast::<T>().expect("round trip preserves type");
        assert_eq!(*back, v);
    }

    #[test]
    fn supported_types_round_trip() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(-42i32);
        round_trip(-42i64);
        round_trip(42u32);
        round_trip(42u64);
        round_trip(42usize);
        round_trip(1.5f32);
        round_trip(std::f64::consts::PI);
        round_trip("héllo".to_string());
        round_trip(vec![1.0f64, -2.5, 3.25]);
        round_trip(vec![1u64, 2, 3]);
        round_trip(vec![-1i64, 2, -3]);
        round_trip(vec![0usize, usize::MAX]);
        round_trip(vec![1u8, 2, 3]);
        round_trip(vec![7u32, 8]);
        round_trip((1.25f64, -2.5f64));
        round_trip((3usize, 9usize));
        round_trip((Some(3u32), -7i64, 2usize));
        round_trip((None::<u32>, 0i64, 5usize));
        round_trip(vec![(Some(1u32), 2i64, 3usize), (None, -4, 5)]);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One value per tag, with the bytes the codec has always produced:
    /// a refactor of either side must reproduce them exactly.
    #[test]
    fn wire_format_is_pinned() {
        let pins: [(&dyn Any, &str); 22] = [
            (&(), "00"),
            (&true, "0101"),
            (&-42i32, "02d6ffffff"),
            (&-42i64, "03d6ffffffffffffff"),
            (&0x0102_0304u32, "0404030201"),
            (&0x0102_0304_0506_0708u64, "050807060504030201"),
            (&7usize, "060700000000000000"),
            (&1.5f32, "070000c03f"),
            (&-2.0f64, "0800000000000000c0"),
            (&"hé".to_string(), "090300000068c3a9"),
            (
                &vec![1.5f64, -0.0],
                "0a02000000000000000000f83f0000000000000080",
            ),
            (&vec![1u64], "0b010000000100000000000000"),
            (&vec![-1i64], "0c01000000ffffffffffffffff"),
            (
                &vec![2usize, 3],
                "0d02000000 0200000000000000 0300000000000000",
            ),
            (&vec![1u8, 2, 255], "0e03000000 0102ff"),
            (&vec![5u32, 6], "0f020000000500000006000000"),
            (&(1.0f64, -1.0f64), "10000000000000f03f000000000000f0bf"),
            (
                &(Some(3u32), -2i64, 9usize),
                "110103000000feffffffffffffff0900000000000000",
            ),
            (
                &(None::<u32>, 4i64, 1usize),
                "1100000000000400000000000000 0100000000000000",
            ),
            (&(6usize, 8usize), "1206000000000000000800000000000000"),
            (&Vec::<SplitTriple>::new(), "1300000000"),
            (
                &vec![(Some(1u32), 0i64, 2usize), (None, -1, 0)],
                concat!(
                    "1302000000",
                    "01 01000000 0000000000000000 0200000000000000",
                    "00 00000000 ffffffffffffffff 0000000000000000",
                ),
            ),
        ];
        for (value, want) in pins {
            let bytes = encode_any(value).expect("type in the supported set");
            assert_eq!(hex(&bytes), want.replace(' ', ""));
            let back = decode_to_box(&bytes).unwrap();
            assert_eq!(encode_any(&*back).unwrap(), bytes, "{want}");
        }
    }

    #[test]
    fn f64_bytes_are_bitwise_exact() {
        let v = 0.1f64 + 0.2; // a value with no short decimal form
        let bytes = encode_any(&v).unwrap();
        let back = decode_to_box(&bytes).unwrap().downcast::<f64>().unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn unsupported_type_is_refused() {
        struct Opaque;
        assert!(encode_any(&Opaque).is_none());
        assert!(encode_any(&vec![String::new()]).is_none());
    }

    #[test]
    fn truncated_and_trailing_inputs_are_typed_errors() {
        let mut bytes = encode_any(&vec![1.0f64, 2.0]).unwrap();
        bytes.pop();
        assert!(matches!(
            decode_to_box(&bytes),
            Err(ParallelError::Codec(_))
        ));
        let mut bytes = encode_any(&7u32).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_to_box(&bytes),
            Err(ParallelError::Codec(_))
        ));
        assert!(matches!(
            decode_to_box(&[255u8]),
            Err(ParallelError::Codec(_))
        ));
        assert!(matches!(decode_to_box(&[]), Err(ParallelError::Codec(_))));
    }

    #[test]
    fn counts_the_bytes_cannot_hold_are_typed_errors() {
        // Every counted tag declaring u32::MAX items in a 5-byte payload.
        for tag in [
            T_STRING,
            T_VEC_F64,
            T_VEC_U64,
            T_VEC_I64,
            T_VEC_USIZE,
            T_VEC_U8,
            T_VEC_U32,
            T_VEC_SPLIT_TRIPLE,
        ] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&[0xff; 4]);
            assert!(
                matches!(decode_to_box(&bytes), Err(ParallelError::Codec(_))),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn decoded_type_mismatch_surfaces_on_downcast() {
        let bytes = encode_any(&42i64).unwrap();
        let back = decode_to_box(&bytes).unwrap();
        assert!(back.downcast::<String>().is_err());
    }
}

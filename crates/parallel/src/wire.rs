//! Wire form of communicator payloads, and the [`WireLink`] a [`Comm`](crate::Comm)
//! routes over when its peers live in other processes.
//!
//! The in-process fast path moves payloads as `Box<dyn Any + Send>` —
//! never serialized, exactly because all ranks share an address space.
//! A fleet of child-process ranks (see `cca-framework::fleet`) cannot:
//! every payload must cross a socket. This module is the boundary: a
//! small, closed set of concrete types — the scalars, pairs, and vectors
//! the collectives and the hydro pipeline actually exchange — each
//! encoded as one tag byte plus little-endian bytes. A type outside the
//! set is a typed [`ParallelError::Unserializable`], never a silent
//! misroute: the send fails on the *sending* rank, where the fix is.
//!
//! The transport itself stays out of this crate. [`WireLink`] is the
//! four-method seam (`send`, `recv` and their metadata) that
//! `cca-framework` implements over `tcp+mux://`; `cca-parallel` knows
//! only that bytes go somewhere and come back with (source, context,
//! tag) routing intact.

use crate::error::ParallelError;
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
/// buffering, exactly as over crossbeam channels. Both surface fleet
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

fn put_split_triple(out: &mut Vec<u8>, (color, key, world): &SplitTriple) {
    match color {
        Some(c) => {
            out.push(1);
            put_u32(out, *c);
        }
        None => {
            out.push(0);
            put_u32(out, 0);
        }
    }
    out.extend_from_slice(&key.to_le_bytes());
    put_u64(out, *world as u64);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn bad(detail: &str) -> ParallelError {
    ParallelError::Codec(detail.to_string())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ParallelError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad("truncated wire value"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ParallelError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ParallelError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ParallelError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ParallelError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), ParallelError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after wire value"))
        }
    }
}

macro_rules! try_scalar {
    ($value:expr, $t:ty, $tag:expr, $enc:expr) => {
        if let Some(v) = $value.downcast_ref::<$t>() {
            let mut out = vec![$tag];
            #[allow(clippy::redundant_closure_call)]
            ($enc)(&mut out, v);
            return Some(out);
        }
    };
}

macro_rules! try_vec {
    ($value:expr, $t:ty, $tag:expr, $enc:expr) => {
        if let Some(v) = $value.downcast_ref::<Vec<$t>>() {
            let mut out = Vec::with_capacity(5 + v.len() * std::mem::size_of::<$t>());
            out.push($tag);
            put_u32(&mut out, v.len() as u32);
            for x in v {
                #[allow(clippy::redundant_closure_call)]
                ($enc)(&mut out, x);
            }
            return Some(out);
        }
    };
}

/// Encodes a payload of one of the supported concrete types; `None` for
/// anything outside the set (the caller turns that into
/// [`ParallelError::Unserializable`] with the type's name).
pub fn encode_any(value: &dyn Any) -> Option<Vec<u8>> {
    try_scalar!(value, (), T_UNIT, |_out: &mut Vec<u8>, _v: &()| {});
    try_scalar!(value, bool, T_BOOL, |out: &mut Vec<u8>, v: &bool| out
        .push(*v as u8));
    try_scalar!(value, i32, T_I32, |out: &mut Vec<u8>, v: &i32| out
        .extend_from_slice(&v.to_le_bytes()));
    try_scalar!(value, i64, T_I64, |out: &mut Vec<u8>, v: &i64| out
        .extend_from_slice(&v.to_le_bytes()));
    try_scalar!(value, u32, T_U32, |out: &mut Vec<u8>, v: &u32| put_u32(
        out, *v
    ));
    try_scalar!(value, u64, T_U64, |out: &mut Vec<u8>, v: &u64| put_u64(
        out, *v
    ));
    try_scalar!(value, usize, T_USIZE, |out: &mut Vec<u8>, v: &usize| {
        put_u64(out, *v as u64)
    });
    try_scalar!(value, f32, T_F32, |out: &mut Vec<u8>, v: &f32| out
        .extend_from_slice(&v.to_le_bytes()));
    try_scalar!(value, f64, T_F64, |out: &mut Vec<u8>, v: &f64| out
        .extend_from_slice(&v.to_le_bytes()));
    if let Some(v) = value.downcast_ref::<String>() {
        let mut out = Vec::with_capacity(5 + v.len());
        out.push(T_STRING);
        put_u32(&mut out, v.len() as u32);
        out.extend_from_slice(v.as_bytes());
        return Some(out);
    }
    try_vec!(value, f64, T_VEC_F64, |out: &mut Vec<u8>, v: &f64| out
        .extend_from_slice(&v.to_le_bytes()));
    try_vec!(value, u64, T_VEC_U64, |out: &mut Vec<u8>, v: &u64| put_u64(
        out, *v
    ));
    try_vec!(value, i64, T_VEC_I64, |out: &mut Vec<u8>, v: &i64| out
        .extend_from_slice(&v.to_le_bytes()));
    try_vec!(value, usize, T_VEC_USIZE, |out: &mut Vec<u8>, v: &usize| {
        put_u64(out, *v as u64)
    });
    if let Some(v) = value.downcast_ref::<Vec<u8>>() {
        let mut out = Vec::with_capacity(5 + v.len());
        out.push(T_VEC_U8);
        put_u32(&mut out, v.len() as u32);
        out.extend_from_slice(v);
        return Some(out);
    }
    try_vec!(value, u32, T_VEC_U32, |out: &mut Vec<u8>, v: &u32| put_u32(
        out, *v
    ));
    if let Some((a, b)) = value.downcast_ref::<(f64, f64)>() {
        let mut out = Vec::with_capacity(17);
        out.push(T_PAIR_F64);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        return Some(out);
    }
    if let Some((a, b)) = value.downcast_ref::<(usize, usize)>() {
        let mut out = Vec::with_capacity(17);
        out.push(T_PAIR_USIZE);
        put_u64(&mut out, *a as u64);
        put_u64(&mut out, *b as u64);
        return Some(out);
    }
    // The `split` collective's allgathered (color, key, world_rank):
    // scalar on the gather leg, vector on the broadcast leg.
    if let Some(t) = value.downcast_ref::<SplitTriple>() {
        let mut out = Vec::with_capacity(22);
        out.push(T_SPLIT_TRIPLE);
        put_split_triple(&mut out, t);
        return Some(out);
    }
    if let Some(v) = value.downcast_ref::<Vec<SplitTriple>>() {
        let mut out = Vec::with_capacity(5 + v.len() * 21);
        out.push(T_VEC_SPLIT_TRIPLE);
        put_u32(&mut out, v.len() as u32);
        for t in v {
            put_split_triple(&mut out, t);
        }
        return Some(out);
    }
    None
}

fn read_split_triple(r: &mut Reader<'_>) -> Result<SplitTriple, ParallelError> {
    let present = r.u8()? != 0;
    let c = r.u32()?;
    let color = if present { Some(c) } else { None };
    let key = i64::from_le_bytes(r.take(8)?.try_into().unwrap());
    let world = r.u64()? as usize;
    Ok((color, key, world))
}

/// Decodes wire bytes back into a boxed value of the encoded concrete
/// type. The caller downcasts to its expected `T`; a mismatch surfaces
/// as the same [`ParallelError::TypeMismatch`] the in-process path
/// raises.
pub fn decode_to_box(bytes: &[u8]) -> Result<Box<dyn Any + Send>, ParallelError> {
    let mut r = Reader { bytes, pos: 0 };
    let tag = r.u8()?;
    let boxed: Box<dyn Any + Send> = match tag {
        T_UNIT => Box::new(()),
        T_BOOL => Box::new(r.u8()? != 0),
        T_I32 => Box::new(i32::from_le_bytes(r.take(4)?.try_into().unwrap())),
        T_I64 => Box::new(i64::from_le_bytes(r.take(8)?.try_into().unwrap())),
        T_U32 => Box::new(r.u32()?),
        T_U64 => Box::new(r.u64()?),
        T_USIZE => Box::new(r.u64()? as usize),
        T_F32 => Box::new(f32::from_le_bytes(r.take(4)?.try_into().unwrap())),
        T_F64 => Box::new(r.f64()?),
        T_STRING => {
            let n = r.u32()? as usize;
            let s = std::str::from_utf8(r.take(n)?)
                .map_err(|_| bad("non-utf8 wire string"))?
                .to_string();
            Box::new(s)
        }
        T_VEC_F64 => {
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            Box::new(v)
        }
        T_VEC_U64 => {
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u64()?);
            }
            Box::new(v)
        }
        T_VEC_I64 => {
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(i64::from_le_bytes(r.take(8)?.try_into().unwrap()));
            }
            Box::new(v)
        }
        T_VEC_USIZE => {
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u64()? as usize);
            }
            Box::new(v)
        }
        T_VEC_U8 => {
            let n = r.u32()? as usize;
            Box::new(r.take(n)?.to_vec())
        }
        T_VEC_U32 => {
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u32()?);
            }
            Box::new(v)
        }
        T_PAIR_F64 => {
            let a = r.f64()?;
            let b = r.f64()?;
            Box::new((a, b))
        }
        T_PAIR_USIZE => {
            let a = r.u64()? as usize;
            let b = r.u64()? as usize;
            Box::new((a, b))
        }
        T_SPLIT_TRIPLE => Box::new(read_split_triple(&mut r)?),
        T_VEC_SPLIT_TRIPLE => {
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(read_split_triple(&mut r)?);
            }
            Box::new(v)
        }
        other => return Err(bad(&format!("unknown wire value tag {other}"))),
    };
    r.done()?;
    Ok(boxed)
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
    fn decoded_type_mismatch_surfaces_on_downcast() {
        let bytes = encode_any(&42i64).unwrap();
        let back = decode_to_box(&bytes).unwrap();
        assert!(back.downcast::<String>().is_err());
    }
}

//! CDR-flavoured binary marshaling of dynamic values and RPC messages.
//!
//! The encoding is little-endian, length-prefixed, and self-describing via
//! a one-byte tag per value — structurally what CORBA's CDR/GIOP does for a
//! `DII` (dynamic invocation interface) request. The point is not wire
//! compatibility with IIOP but *cost* fidelity: every argument of every
//! call through the ORB pays serialize + copy + deserialize, which is the
//! overhead source the paper's §3 names.
//!
//! What it does not pay is a walk per element. A primitive array is a
//! tag, its rank, a `(lower, extent)` pair per dimension and then its
//! elements as one little-endian slab ([`cca_data::le`]): one bulk pass
//! each way, into a message buffer sized exactly once
//! ([`encode_request`], [`encode_reply`]) and out into an exactly-sized
//! `Vec`. Every read goes through `le`'s one bounds-checked `Reader`, so a
//! declared shape or string length is checked against the bytes actually
//! present before anything is allocated for it: a hostile header is a
//! typed error, never an overflow or a giant allocation.

use bytes::{Bytes, BytesMut};
use cca_data::le::{self, LeScalar, Reader, Writer};
use cca_data::{Complex32, NdArray, Order};
use cca_sidl::{DynValue, SidlError};

/// Tag bytes for [`DynValue`] variants.
mod tag {
    pub(super) const VOID: u8 = 0;
    pub(super) const BOOL: u8 = 1;
    pub(super) const CHAR: u8 = 2;
    pub const INT: u8 = 3;
    pub(super) const LONG: u8 = 4;
    pub(super) const FLOAT: u8 = 5;
    pub const DOUBLE: u8 = 6;
    pub(super) const FCOMPLEX: u8 = 7;
    pub(super) const DCOMPLEX: u8 = 8;
    pub(super) const STR: u8 = 9;
    pub(super) const OPAQUE: u8 = 10;
    pub(super) const DOUBLE_ARRAY: u8 = 11;
    pub(super) const LONG_ARRAY: u8 = 12;
    pub(super) const DCOMPLEX_ARRAY: u8 = 13;
    pub(super) const ENUM: u8 = 14;
}

/// A marshaled request: "call `operation` on the object registered under
/// `object_key` with these arguments".
#[derive(Debug, Clone)]
pub struct Request {
    /// Correlation id chosen by the caller.
    pub request_id: u64,
    /// The target object's registration key.
    pub object_key: String,
    /// Operation (method) name — CORBA dispatches by name, so do we.
    pub operation: String,
    /// Positional arguments (no `PartialEq`: object references compare
    /// structurally via re-encoding in tests instead).
    pub args: Vec<DynValue>,
}

/// A marshaled reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Correlation id copied from the request.
    pub request_id: u64,
    /// The outcome: a value, or a (exception type, message) pair.
    pub result: Result<DynValue, (String, String)>,
}

/// Object references travel as registration keys, never by value.
fn refuse_objects(values: &[DynValue]) -> Result<(), SidlError> {
    if values.iter().any(|v| matches!(v, DynValue::Object(_))) {
        return Err(SidlError::invoke(
            "object references cannot be marshaled by value; register the object \
             with the ORB and pass its key"
                .to_string(),
        ));
    }
    Ok(())
}

/// Bytes [`write_value`] writes for `v`.
fn encoded_len(v: &DynValue) -> usize {
    1 + match v {
        DynValue::Void | DynValue::Object(_) => 0,
        DynValue::Bool(_) => 1,
        DynValue::Char(_) | DynValue::Int(_) | DynValue::Float(_) => 4,
        DynValue::Long(_) | DynValue::Double(_) | DynValue::Opaque(_) => 8,
        DynValue::Fcomplex(_) => 8,
        DynValue::Dcomplex(_) => 16,
        DynValue::Str(s) => 4 + s.len(),
        DynValue::Enum(ty, _) => 4 + ty.len() + 8,
        DynValue::DoubleArray(a) => array_len(a),
        DynValue::LongArray(a) => array_len(a),
        DynValue::DcomplexArray(a) => array_len(a),
    }
}

/// Writes a value whose bytes [`encoded_len`] reserved (objects refused).
fn write_value(w: &mut Writer<'_>, v: &DynValue) {
    fn tagged<T: LeScalar>(w: &mut Writer<'_>, tag: u8, x: T) {
        w.put(tag);
        w.put(x);
    }
    match v {
        DynValue::Void => w.put(tag::VOID),
        DynValue::Object(_) => unreachable!("refuse_objects runs before any value is written"),
        DynValue::Bool(b) => tagged(w, tag::BOOL, *b as u8),
        DynValue::Char(c) => tagged(w, tag::CHAR, *c as u32),
        DynValue::Int(x) => tagged(w, tag::INT, *x),
        DynValue::Long(x) => tagged(w, tag::LONG, *x),
        DynValue::Float(x) => tagged(w, tag::FLOAT, *x),
        DynValue::Double(x) => tagged(w, tag::DOUBLE, *x),
        DynValue::Fcomplex(z) => {
            tagged(w, tag::FCOMPLEX, z.re);
            w.put(z.im);
        }
        DynValue::Dcomplex(z) => tagged(w, tag::DCOMPLEX, *z),
        DynValue::Str(s) => {
            w.put(tag::STR);
            w.str32(s);
        }
        DynValue::Opaque(x) => tagged(w, tag::OPAQUE, *x),
        DynValue::DoubleArray(a) => write_array(w, tag::DOUBLE_ARRAY, a),
        DynValue::LongArray(a) => write_array(w, tag::LONG_ARRAY, a),
        DynValue::DcomplexArray(a) => write_array(w, tag::DCOMPLEX_ARRAY, a),
        DynValue::Enum(ty, value) => {
            w.put(tag::ENUM);
            w.str32(ty);
            w.put(*value);
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<DynValue, le::Error> {
    Ok(match r.get::<u8>()? {
        tag::VOID => DynValue::Void,
        tag::BOOL => DynValue::Bool(r.get::<u8>()? != 0),
        tag::CHAR => DynValue::Char(
            char::from_u32(r.get()?).ok_or_else(|| le::Error::Invalid("invalid char".into()))?,
        ),
        tag::INT => DynValue::Int(r.get()?),
        tag::LONG => DynValue::Long(r.get()?),
        tag::FLOAT => DynValue::Float(r.get()?),
        tag::DOUBLE => DynValue::Double(r.get()?),
        tag::FCOMPLEX => DynValue::Fcomplex(Complex32::new(r.get()?, r.get()?)),
        tag::DCOMPLEX => DynValue::Dcomplex(r.get()?),
        tag::STR => DynValue::Str(r.str32()?.to_string()),
        tag::OPAQUE => DynValue::Opaque(r.get()?),
        tag::DOUBLE_ARRAY => DynValue::DoubleArray(read_array(r)?),
        tag::LONG_ARRAY => DynValue::LongArray(read_array(r)?),
        tag::DCOMPLEX_ARRAY => DynValue::DcomplexArray(read_array(r)?),
        tag::ENUM => DynValue::Enum(r.str32()?.to_string(), r.get()?),
        other => return Err(le::Error::Invalid(format!("unknown value tag {other}"))),
    })
}

/// Marshals a request message into a buffer allocated once, at its final
/// size.
pub fn encode_request(req: &Request) -> Result<Bytes, SidlError> {
    refuse_objects(&req.args)?;
    let len = 8
        + 4
        + req.object_key.len()
        + 4
        + req.operation.len()
        + 4
        + req.args.iter().map(encoded_len).sum::<usize>();
    Ok(encode_message(len, |w| {
        w.put(req.request_id);
        w.str32(&req.object_key);
        w.str32(&req.operation);
        w.put(req.args.len() as u32);
        for a in &req.args {
            write_value(w, a);
        }
    }))
}

/// Unmarshals a request message.
pub fn decode_request(bytes: Bytes) -> Result<Request, SidlError> {
    le::decode(&bytes, |r| {
        let request_id = r.get()?;
        let object_key = r.str32()?.to_string();
        let operation = r.str32()?.to_string();
        // Every value is at least its tag byte: a count the bytes cannot
        // hold is refused before the argument list is sized by it.
        let n = r.count(1)?;
        let mut args = Vec::with_capacity(n);
        for _ in 0..n {
            args.push(read_value(r)?);
        }
        Ok(Request {
            request_id,
            object_key,
            operation,
            args,
        })
    })
    .map_err(bad)
}

/// Marshals a reply message into a buffer allocated once, at its final
/// size.
pub fn encode_reply(reply: &Reply) -> Result<Bytes, SidlError> {
    let len = 8
        + 1
        + match &reply.result {
            Ok(v) => {
                refuse_objects(std::slice::from_ref(v))?;
                encoded_len(v)
            }
            Err((ty, msg)) => 4 + ty.len() + 4 + msg.len(),
        };
    Ok(encode_message(len, |w| {
        w.put(reply.request_id);
        match &reply.result {
            Ok(v) => {
                w.put(0u8);
                write_value(w, v);
            }
            Err((ty, msg)) => {
                w.put(1u8);
                w.str32(ty);
                w.str32(msg);
            }
        }
    }))
}

/// One allocation of exactly `len` bytes, written front to back by
/// `write` through a single borrow of the buffer.
fn encode_message(len: usize, write: impl FnOnce(&mut Writer<'_>)) -> Bytes {
    let mut buf = BytesMut::zeroed(len);
    let mut w = Writer::new(&mut buf);
    write(&mut w);
    w.finish();
    buf.freeze()
}

/// Unmarshals a reply message.
pub fn decode_reply(bytes: Bytes) -> Result<Reply, SidlError> {
    le::decode(&bytes, |r| {
        let request_id = r.get()?;
        let result = if r.get::<u8>()? != 0 {
            Err((r.str32()?.to_string(), r.str32()?.to_string()))
        } else {
            Ok(read_value(r)?)
        };
        Ok(Reply { request_id, result })
    })
    .map_err(bad)
}

// ---- helpers -----------------------------------------------------------

fn bad(e: le::Error) -> SidlError {
    SidlError::invoke(format!("wire format error: {e}"))
}

/// Rank byte, a `(lower, extent)` pair per dimension, then the slab.
fn array_len<T: LeScalar>(a: &NdArray<T>) -> usize {
    1 + 16 * a.extents().len() + a.as_slice().len() * T::SIZE
}

/// The array's header, then its elements as one slab.
fn write_array<T: LeScalar>(w: &mut Writer<'_>, tag: u8, a: &NdArray<T>) {
    w.put(tag);
    w.put(a.extents().len() as u8);
    for (&l, &e) in a.lower().iter().zip(a.extents()) {
        w.put(l as i64);
        w.put(e as u64);
    }
    w.slice(a.as_slice());
}

/// Reads an array header and its slab. The element count is checked for
/// overflow, and its bytes against what remains, before the element
/// buffer is allocated.
fn read_array<T: LeScalar>(r: &mut Reader<'_>) -> Result<NdArray<T>, le::Error> {
    let rank = r.get::<u8>()? as usize;
    if rank == 0 || rank > 7 {
        return Err(le::Error::Invalid(format!("invalid array rank {rank}")));
    }
    let mut lower = [0isize; 7];
    let mut extents = [0usize; 7];
    for d in 0..rank {
        lower[d] = r.get::<i64>()? as isize;
        extents[d] = r.get::<u64>()? as usize;
    }
    let (lower, extents) = (&lower[..rank], &extents[..rank]);
    let n = extents
        .iter()
        .try_fold(1usize, |n, &e| n.checked_mul(e))
        .ok_or(le::Error::Overflow)?;
    let data = r.vec(n)?;
    NdArray::with_lower(lower, extents, data, Order::ColumnMajor)
        .map_err(|e| le::Error::Invalid(format!("array reconstruction failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_data::Complex64;

    /// A value out and back as a reply's result (`le::decode` refuses
    /// trailing bytes, so the whole encoding was consumed).
    fn round_trip(v: DynValue) -> DynValue {
        let reply = Reply {
            request_id: 0,
            result: Ok(v),
        };
        decode_reply(encode_reply(&reply).unwrap())
            .unwrap()
            .result
            .unwrap()
    }

    #[test]
    fn scalar_round_trips() {
        assert!(matches!(round_trip(DynValue::Void), DynValue::Void));
        assert!(matches!(
            round_trip(DynValue::Bool(true)),
            DynValue::Bool(true)
        ));
        assert!(matches!(
            round_trip(DynValue::Char('λ')),
            DynValue::Char('λ')
        ));
        assert!(matches!(round_trip(DynValue::Int(-5)), DynValue::Int(-5)));
        assert!(matches!(
            round_trip(DynValue::Long(1 << 60)),
            DynValue::Long(v) if v == 1 << 60
        ));
        assert!(matches!(round_trip(DynValue::Double(2.5)), DynValue::Double(v) if v == 2.5));
        assert!(matches!(round_trip(DynValue::Float(0.5)), DynValue::Float(v) if v == 0.5));
        assert!(matches!(
            round_trip(DynValue::Opaque(0xdeadbeef)),
            DynValue::Opaque(0xdeadbeef)
        ));
    }

    #[test]
    fn nan_survives_marshaling() {
        match round_trip(DynValue::Double(f64::NAN)) {
            DynValue::Double(v) => assert!(v.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn complex_and_enum_round_trip() {
        match round_trip(DynValue::Dcomplex(Complex64::new(1.5, -2.5))) {
            DynValue::Dcomplex(z) => assert_eq!(z, Complex64::new(1.5, -2.5)),
            other => panic!("{other:?}"),
        }
        match round_trip(DynValue::Enum("esi.Status".into(), 9)) {
            DynValue::Enum(t, v) => {
                assert_eq!(t, "esi.Status");
                assert_eq!(v, 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn string_round_trip_including_unicode() {
        match round_trip(DynValue::Str("héllo wörld".into())) {
            DynValue::Str(s) => assert_eq!(s, "héllo wörld"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn array_round_trip_preserves_shape_and_bounds() {
        let a = NdArray::with_lower(
            &[-1, 0],
            &[2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            Order::ColumnMajor,
        )
        .unwrap();
        match round_trip(DynValue::DoubleArray(a.clone())) {
            DynValue::DoubleArray(b) => {
                assert_eq!(b.lower(), a.lower());
                assert_eq!(b.extents(), a.extents());
                assert_eq!(b.as_slice(), a.as_slice());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn object_refs_are_rejected() {
        struct Dummy;
        impl cca_sidl::DynObject for Dummy {
            fn sidl_type(&self) -> &str {
                "x"
            }
            fn invoke(&self, _: &str, _: Vec<DynValue>) -> Result<DynValue, SidlError> {
                Ok(DynValue::Void)
            }
        }
        let v = DynValue::Object(std::sync::Arc::new(Dummy));
        let request = Request {
            request_id: 1,
            object_key: "k".into(),
            operation: "op".into(),
            args: vec![v.clone()],
        };
        assert!(encode_request(&request).is_err());
        let reply = Reply {
            request_id: 1,
            result: Ok(v),
        };
        assert!(encode_reply(&reply).is_err());
    }

    #[test]
    fn request_reply_round_trip() {
        let req = Request {
            request_id: 77,
            object_key: "mesh0/field".into(),
            operation: "getField".into(),
            args: vec![DynValue::Str("pressure".into()), DynValue::Int(3)],
        };
        let bytes = encode_request(&req).unwrap();
        let back = decode_request(bytes).unwrap();
        assert_eq!(back.request_id, 77);
        assert_eq!(back.object_key, "mesh0/field");
        assert_eq!(back.operation, "getField");
        assert_eq!(back.args.len(), 2);

        let ok = Reply {
            request_id: 77,
            result: Ok(DynValue::Double(3.25)),
        };
        let back = decode_reply(encode_reply(&ok).unwrap()).unwrap();
        assert!(matches!(back.result, Ok(DynValue::Double(v)) if v == 3.25));

        let err = Reply {
            request_id: 78,
            result: Err(("esi.SolveFailure".into(), "diverged".into())),
        };
        let back = decode_reply(encode_reply(&err).unwrap()).unwrap();
        assert_eq!(
            back.result.unwrap_err(),
            ("esi.SolveFailure".to_string(), "diverged".to_string())
        );
    }

    #[test]
    fn truncated_messages_error_cleanly() {
        let req = Request {
            request_id: 1,
            object_key: "k".into(),
            operation: "op".into(),
            args: vec![DynValue::Long(5)],
        };
        let bytes = encode_request(&req).unwrap();
        for cut in [0, 3, 8, bytes.len() - 1] {
            let partial = bytes.slice(0..cut);
            assert!(decode_request(partial).is_err(), "cut at {cut}");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A request and a reply carrying every array kind: a rank-2 `double`
    /// array with nonzero lower bounds, a `dcomplex` and a `long` array.
    fn pinned_messages() -> (Request, Reply) {
        let doubles = NdArray::with_lower(
            &[-1, 2],
            &[2, 3],
            vec![1.5, -2.0, 0.25, 1e300, -0.0, f64::MIN_POSITIVE],
            Order::ColumnMajor,
        )
        .unwrap();
        let complexes = NdArray::with_lower(
            &[3],
            &[2],
            vec![Complex64::new(1.0, -1.0), Complex64::new(0.5, 2.0)],
            Order::ColumnMajor,
        )
        .unwrap();
        let longs = NdArray::from_vec(&[3], vec![-1i64, 0, i64::MAX]).unwrap();
        let request = Request {
            request_id: 0x0102_0304_0506_0708,
            object_key: "k/x".into(),
            operation: "solve".into(),
            args: vec![
                DynValue::DoubleArray(doubles.clone()),
                DynValue::DcomplexArray(complexes),
                DynValue::LongArray(longs),
            ],
        };
        let reply = Reply {
            request_id: 9,
            result: Ok(DynValue::DoubleArray(doubles)),
        };
        (request, reply)
    }

    /// The bytes the per-element codec produced, captured before arrays
    /// became slabs: the slab passes must reproduce them exactly.
    #[test]
    fn wire_format_is_pinned() {
        let (request, reply) = pinned_messages();
        assert_eq!(
            hex(&encode_request(&request).unwrap()),
            concat!(
                "0807060504030201", // request id
                "03000000",
                "6b2f78", // object key "k/x"
                "05000000",
                "736f6c7665", // operation "solve"
                "03000000",   // three arguments
                "0b02",       // double array, rank 2
                "ffffffffffffffff",
                "0200000000000000", // lower -1, extent 2
                "0200000000000000",
                "0300000000000000", // lower 2, extent 3
                "000000000000f83f",
                "00000000000000c0",
                "000000000000d03f",
                "9c7500883ce4377e",
                "0000000000000080",
                "0000000000001000",
                "0d01", // dcomplex array, rank 1
                "0300000000000000",
                "0200000000000000", // lower 3, extent 2
                "000000000000f03f",
                "000000000000f0bf", // 1 - 1i
                "000000000000e03f",
                "0000000000000040", // 0.5 + 2i
                "0c01",             // long array, rank 1
                "0000000000000000",
                "0300000000000000", // lower 0, extent 3
                "ffffffffffffffff",
                "0000000000000000",
                "ffffffffffffff7f",
            )
        );
        assert_eq!(
            hex(&encode_reply(&reply).unwrap()),
            concat!(
                "0900000000000000", // request id
                "00",               // ok
                "0b02",
                "ffffffffffffffff",
                "0200000000000000",
                "0200000000000000",
                "0300000000000000",
                "000000000000f83f",
                "00000000000000c0",
                "000000000000d03f",
                "9c7500883ce4377e",
                "0000000000000080",
                "0000000000001000",
            )
        );
        // And back: the decoded messages re-encode to the same bytes.
        let again = decode_request(encode_request(&request).unwrap()).unwrap();
        assert_eq!(
            encode_request(&again).unwrap(),
            encode_request(&request).unwrap()
        );
        let again = decode_reply(encode_reply(&reply).unwrap()).unwrap();
        assert_eq!(encode_reply(&again).unwrap(), encode_reply(&reply).unwrap());
    }

    /// A request header: id 1, object key "k", operation "o".
    fn request_header(args: u32) -> Vec<u8> {
        let mut buf = 1u64.to_le_bytes().to_vec();
        for s in ["k", "o"] {
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        buf.extend_from_slice(&args.to_le_bytes());
        buf
    }

    /// Encoded value bytes as a request's one argument.
    pub(super) fn as_argument(value: &[u8]) -> Bytes {
        let mut buf = request_header(1);
        buf.extend_from_slice(value);
        Bytes::from(buf)
    }

    /// Encoded value bytes as a reply's result.
    pub(super) fn as_result(value: &[u8]) -> Bytes {
        let mut buf = 1u64.to_le_bytes().to_vec();
        buf.push(0);
        buf.extend_from_slice(value);
        Bytes::from(buf)
    }

    /// What each decoder makes of a hostile value: as an argument, then
    /// as a result. Both must refuse it.
    fn refused(value: &[u8]) -> [SidlError; 2] {
        [
            decode_request(as_argument(value)).unwrap_err(),
            decode_reply(as_result(value)).unwrap_err(),
        ]
    }

    /// A value header declaring an array: tag, rank, `(lower, extent)`s.
    fn array_header(tag: u8, extents: &[u64]) -> Vec<u8> {
        let mut buf = vec![tag, extents.len() as u8];
        for &e in extents {
            buf.extend_from_slice(&0i64.to_le_bytes());
            buf.extend_from_slice(&e.to_le_bytes());
        }
        buf
    }

    #[test]
    fn overflowing_array_shapes_are_typed_errors() {
        for tag in [tag::DOUBLE_ARRAY, tag::LONG_ARRAY, tag::DCOMPLEX_ARRAY] {
            // 2^33 · 2^33 elements wraps a 64-bit product.
            for err in refused(&array_header(tag, &[1 << 33, 1 << 33])) {
                assert!(err.to_string().contains("overflows"), "{err}");
            }
            // 2^61 elements fit a usize; their bytes do not.
            refused(&array_header(tag, &[1 << 61]));
        }
    }

    #[test]
    fn declared_elements_must_be_present() {
        // 2^30 dcomplexes (16 GiB) declared by a 40-byte request.
        let buf = as_argument(&array_header(tag::DCOMPLEX_ARRAY, &[1 << 30]));
        assert_eq!(buf.len(), 40);
        let err = decode_request(buf).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // One element short is just as truncated.
        let mut value = array_header(tag::DOUBLE_ARRAY, &[3]);
        value.extend_from_slice(&1.0f64.to_le_bytes());
        value.extend_from_slice(&2.0f64.to_le_bytes());
        refused(&value);
        // And an argument count the bytes cannot hold is refused up front.
        let buf = request_header(u32::MAX);
        assert!(decode_request(Bytes::from(buf)).is_err());
    }

    #[test]
    fn garbage_tags_rejected() {
        refused(&[200]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cca_data::Complex64;
    use proptest::prelude::*;

    fn arb_scalar() -> impl Strategy<Value = DynValue> {
        prop_oneof![
            Just(DynValue::Void),
            any::<bool>().prop_map(DynValue::Bool),
            any::<i32>().prop_map(DynValue::Int),
            any::<i64>().prop_map(DynValue::Long),
            any::<f64>().prop_map(DynValue::Double),
            any::<u64>().prop_map(DynValue::Opaque),
            "[ -~]{0,32}".prop_map(DynValue::Str),
            (any::<f64>(), any::<f64>())
                .prop_map(|(re, im)| DynValue::Dcomplex(Complex64::new(re, im))),
            ("[a-z.]{1,12}", any::<i64>()).prop_map(|(t, v)| DynValue::Enum(t, v)),
        ]
    }

    fn arb_array() -> impl Strategy<Value = DynValue> {
        (1usize..=3)
            .prop_flat_map(|rank| {
                (
                    proptest::collection::vec(-3isize..3, rank),
                    proptest::collection::vec(1usize..4, rank),
                )
            })
            .prop_flat_map(|(lower, extents)| {
                let n: usize = extents.iter().product();
                // One of the three slab kinds, from the same random bits.
                (0u8..3, proptest::collection::vec(any::<f64>(), n)).prop_map(
                    move |(kind, data)| {
                        fn shaped<T: Clone>(l: &[isize], e: &[usize], data: Vec<T>) -> NdArray<T> {
                            NdArray::with_lower(l, e, data, Order::ColumnMajor).unwrap()
                        }
                        match kind {
                            0 => DynValue::DoubleArray(shaped(&lower, &extents, data)),
                            1 => {
                                let longs = data.iter().map(|x| x.to_bits() as i64).collect();
                                DynValue::LongArray(shaped(&lower, &extents, longs))
                            }
                            _ => {
                                let zs = data.iter().map(|&x| Complex64::new(x, -x)).collect();
                                DynValue::DcomplexArray(shaped(&lower, &extents, zs))
                            }
                        }
                    },
                )
            })
    }

    /// A value as a reply's result.
    fn result(v: &DynValue) -> Reply {
        Reply {
            request_id: 0,
            result: Ok(v.clone()),
        }
    }

    fn values_equal(a: &DynValue, b: &DynValue) -> bool {
        // Structural equality via re-encoding (handles NaN bit patterns).
        encode_reply(&result(a)).unwrap() == encode_reply(&result(b)).unwrap()
    }

    proptest! {
        #[test]
        fn any_value_round_trips(v in prop_oneof![arb_scalar(), arb_array()]) {
            let back = decode_reply(encode_reply(&result(&v)).unwrap()).unwrap();
            prop_assert!(values_equal(&v, &back.result.unwrap()));
        }

        #[test]
        fn any_request_round_trips(
            id in any::<u64>(),
            key in "[a-z/]{1,16}",
            op in "[a-zA-Z]{1,12}",
            args in proptest::collection::vec(arb_scalar(), 0..5),
        ) {
            let req = Request { request_id: id, object_key: key, operation: op, args };
            let back = decode_request(encode_request(&req).unwrap()).unwrap();
            prop_assert_eq!(back.request_id, req.request_id);
            prop_assert_eq!(back.object_key, req.object_key);
            prop_assert_eq!(back.operation, req.operation);
            prop_assert_eq!(back.args.len(), req.args.len());
            for (a, b) in req.args.iter().zip(&back.args) {
                prop_assert!(values_equal(a, b));
            }
        }

        #[test]
        fn decoding_random_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_request(Bytes::from(data.clone()));
            let _ = decode_reply(Bytes::from(data.clone()));
            // The same bytes where each decoder reads a value.
            let _ = decode_request(tests::as_argument(&data));
            let _ = decode_reply(tests::as_result(&data));
        }
    }
}

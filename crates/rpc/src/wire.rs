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
//! `Vec`. A declared shape is checked against the bytes actually present
//! before anything is allocated for it, so a hostile header is a typed
//! error, never an overflow or a giant allocation.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cca_data::le::{self, LeScalar};
use cca_data::{Complex32, Complex64, NdArray, Order};
use cca_sidl::{DynValue, SidlError};

/// Tag bytes for [`DynValue`] variants.
mod tag {
    pub const VOID: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const CHAR: u8 = 2;
    pub const INT: u8 = 3;
    pub const LONG: u8 = 4;
    pub const FLOAT: u8 = 5;
    pub const DOUBLE: u8 = 6;
    pub const FCOMPLEX: u8 = 7;
    pub const DCOMPLEX: u8 = 8;
    pub const STR: u8 = 9;
    pub const OPAQUE: u8 = 10;
    pub const DOUBLE_ARRAY: u8 = 11;
    pub const LONG_ARRAY: u8 = 12;
    pub const DCOMPLEX_ARRAY: u8 = 13;
    pub const ENUM: u8 = 14;
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

/// Marshals one value, appending it to `buf`.
pub fn encode_value(buf: &mut BytesMut, v: &DynValue) -> Result<(), SidlError> {
    refuse_objects(std::slice::from_ref(v))?;
    let at = buf.len();
    buf.put_bytes(0, encoded_len(v));
    let mut w = Writer {
        out: &mut buf[at..],
        at: 0,
    };
    write_value(&mut w, v);
    Ok(())
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

/// Bytes [`encode_value`] appends for `v`.
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
    match v {
        DynValue::Void => w.u8(tag::VOID),
        DynValue::Object(_) => unreachable!("refuse_objects runs before any value is written"),
        DynValue::Bool(b) => {
            w.u8(tag::BOOL);
            w.u8(*b as u8);
        }
        DynValue::Char(c) => {
            w.u8(tag::CHAR);
            w.put(&(*c as u32).to_le_bytes());
        }
        DynValue::Int(x) => {
            w.u8(tag::INT);
            w.put(&x.to_le_bytes());
        }
        DynValue::Long(x) => {
            w.u8(tag::LONG);
            w.put(&x.to_le_bytes());
        }
        DynValue::Float(x) => {
            w.u8(tag::FLOAT);
            w.put(&x.to_le_bytes());
        }
        DynValue::Double(x) => {
            w.u8(tag::DOUBLE);
            w.put(&x.to_le_bytes());
        }
        DynValue::Fcomplex(z) => {
            w.u8(tag::FCOMPLEX);
            w.put(&z.re.to_le_bytes());
            w.put(&z.im.to_le_bytes());
        }
        DynValue::Dcomplex(z) => {
            w.u8(tag::DCOMPLEX);
            w.put(&z.re.to_le_bytes());
            w.put(&z.im.to_le_bytes());
        }
        DynValue::Str(s) => {
            w.u8(tag::STR);
            w.str(s);
        }
        DynValue::Opaque(x) => {
            w.u8(tag::OPAQUE);
            w.put(&x.to_le_bytes());
        }
        DynValue::DoubleArray(a) => w.array(tag::DOUBLE_ARRAY, a),
        DynValue::LongArray(a) => w.array(tag::LONG_ARRAY, a),
        DynValue::DcomplexArray(a) => w.array(tag::DCOMPLEX_ARRAY, a),
        DynValue::Enum(ty, value) => {
            w.u8(tag::ENUM);
            w.str(ty);
            w.put(&value.to_le_bytes());
        }
    }
}

/// Unmarshals one value.
pub fn decode_value(buf: &mut Bytes) -> Result<DynValue, SidlError> {
    let t = get_u8(buf)?;
    Ok(match t {
        tag::VOID => DynValue::Void,
        tag::BOOL => DynValue::Bool(get_u8(buf)? != 0),
        tag::CHAR => {
            let c = get_u32(buf)?;
            DynValue::Char(char::from_u32(c).ok_or_else(|| bad("invalid char"))?)
        }
        tag::INT => DynValue::Int(get_i32(buf)?),
        tag::LONG => DynValue::Long(get_i64(buf)?),
        tag::FLOAT => DynValue::Float(f32::from_bits(get_u32(buf)?)),
        tag::DOUBLE => DynValue::Double(f64::from_bits(get_u64(buf)?)),
        tag::FCOMPLEX => DynValue::Fcomplex(Complex32::new(
            f32::from_bits(get_u32(buf)?),
            f32::from_bits(get_u32(buf)?),
        )),
        tag::DCOMPLEX => DynValue::Dcomplex(Complex64::new(
            f64::from_bits(get_u64(buf)?),
            f64::from_bits(get_u64(buf)?),
        )),
        tag::STR => DynValue::Str(get_str(buf)?),
        tag::OPAQUE => DynValue::Opaque(get_u64(buf)?),
        tag::DOUBLE_ARRAY => DynValue::DoubleArray(get_array(buf)?),
        tag::LONG_ARRAY => DynValue::LongArray(get_array(buf)?),
        tag::DCOMPLEX_ARRAY => DynValue::DcomplexArray(get_array(buf)?),
        tag::ENUM => {
            let ty = get_str(buf)?;
            DynValue::Enum(ty, get_i64(buf)?)
        }
        other => return Err(bad(&format!("unknown value tag {other}"))),
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
        w.put(&req.request_id.to_le_bytes());
        w.str(&req.object_key);
        w.str(&req.operation);
        w.put(&(req.args.len() as u32).to_le_bytes());
        for a in &req.args {
            write_value(w, a);
        }
    }))
}

/// Unmarshals a request message.
pub fn decode_request(mut bytes: Bytes) -> Result<Request, SidlError> {
    let request_id = get_u64(&mut bytes)?;
    let object_key = get_str(&mut bytes)?;
    let operation = get_str(&mut bytes)?;
    let n = get_u32(&mut bytes)? as usize;
    // Every value is at least its tag byte: a count the bytes cannot hold
    // is refused before the argument list is sized by it.
    if n > bytes.remaining() {
        return Err(bad("truncated argument list"));
    }
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(decode_value(&mut bytes)?);
    }
    Ok(Request {
        request_id,
        object_key,
        operation,
        args,
    })
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
        w.put(&reply.request_id.to_le_bytes());
        match &reply.result {
            Ok(v) => {
                w.u8(0);
                write_value(w, v);
            }
            Err((ty, msg)) => {
                w.u8(1);
                w.str(ty);
                w.str(msg);
            }
        }
    }))
}

/// One allocation of exactly `len` bytes, written front to back by
/// `write` through a single borrow of the buffer.
fn encode_message(len: usize, write: impl FnOnce(&mut Writer<'_>)) -> Bytes {
    let mut buf = BytesMut::with_capacity(len);
    buf.put_bytes(0, len);
    let mut w = Writer {
        out: &mut buf,
        at: 0,
    };
    write(&mut w);
    debug_assert_eq!(w.at, len, "encoded_len disagrees with write_value");
    buf.freeze()
}

/// Unmarshals a reply message.
pub fn decode_reply(mut bytes: Bytes) -> Result<Reply, SidlError> {
    let request_id = get_u64(&mut bytes)?;
    let is_err = get_u8(&mut bytes)? != 0;
    let result = if is_err {
        Err((get_str(&mut bytes)?, get_str(&mut bytes)?))
    } else {
        Ok(decode_value(&mut bytes)?)
    };
    Ok(Reply { request_id, result })
}

// ---- helpers -----------------------------------------------------------

fn bad(msg: &str) -> SidlError {
    SidlError::invoke(format!("wire format error: {msg}"))
}

fn get_str(buf: &mut Bytes) -> Result<String, SidlError> {
    let n = get_u32(buf)? as usize;
    if buf.remaining() < n {
        return Err(bad("truncated string"));
    }
    let raw = buf.split_to(n);
    String::from_utf8(raw.to_vec()).map_err(|_| bad("invalid utf-8"))
}

/// Rank byte, a `(lower, extent)` pair per dimension, then the slab.
fn array_len<T: LeScalar>(a: &NdArray<T>) -> usize {
    1 + 16 * a.extents().len() + a.as_slice().len() * T::SIZE
}

/// A cursor over a buffer already sized for what it will hold.
struct Writer<'a> {
    out: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.out[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn str(&mut self, s: &str) {
        self.put(&(s.len() as u32).to_le_bytes());
        self.put(s.as_bytes());
    }

    /// The array's header, then its elements as one slab.
    fn array<T: LeScalar>(&mut self, tag: u8, a: &NdArray<T>) {
        self.u8(tag);
        self.u8(a.extents().len() as u8);
        for (&l, &e) in a.lower().iter().zip(a.extents()) {
            self.put(&(l as i64).to_le_bytes());
            self.put(&(e as u64).to_le_bytes());
        }
        let data = a.as_slice();
        let end = self.at + data.len() * T::SIZE;
        le::write_slice(data, &mut self.out[self.at..end]);
        self.at = end;
    }
}

/// Reads an array header and its slab. The element count is checked for
/// overflow, and its bytes against what remains, before the element
/// buffer is allocated.
fn get_array<T: LeScalar>(buf: &mut Bytes) -> Result<NdArray<T>, SidlError> {
    let rank = get_u8(buf)? as usize;
    if rank == 0 || rank > 7 {
        return Err(bad(&format!("invalid array rank {rank}")));
    }
    let mut lower = [0isize; 7];
    let mut extents = [0usize; 7];
    for d in 0..rank {
        lower[d] = get_i64(buf)? as isize;
        extents[d] = get_u64(buf)? as usize;
    }
    let (lower, extents) = (&lower[..rank], &extents[..rank]);
    let bytes = extents
        .iter()
        .try_fold(1usize, |n, &e| n.checked_mul(e))
        .and_then(le::byte_len::<T>)
        .ok_or_else(|| bad("array size overflows"))?;
    if bytes > buf.remaining() {
        return Err(bad("truncated array"));
    }
    let data = le::read_vec(&buf.chunk()[..bytes]);
    buf.advance(bytes);
    NdArray::with_lower(lower, extents, data, Order::ColumnMajor)
        .map_err(|e| bad(&format!("array reconstruction failed: {e}")))
}

macro_rules! getter {
    ($name:ident, $ty:ty, $get:ident, $n:expr) => {
        fn $name(buf: &mut Bytes) -> Result<$ty, SidlError> {
            if buf.remaining() < $n {
                return Err(bad(concat!("truncated ", stringify!($ty))));
            }
            Ok(buf.$get())
        }
    };
}
getter!(get_u8, u8, get_u8, 1);
getter!(get_u32, u32, get_u32_le, 4);
getter!(get_i32, i32, get_i32_le, 4);
getter!(get_u64, u64, get_u64_le, 8);
getter!(get_i64, i64, get_i64_le, 8);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: DynValue) -> DynValue {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &v).unwrap();
        let mut bytes = buf.freeze();
        let back = decode_value(&mut bytes).unwrap();
        assert!(!bytes.has_remaining(), "trailing bytes after decode");
        back
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
        let mut buf = BytesMut::new();
        let v = DynValue::Object(std::sync::Arc::new(Dummy));
        assert!(encode_value(&mut buf, &v).is_err());
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

    fn put_str(buf: &mut BytesMut, s: &str) {
        buf.put_u32_le(s.len() as u32);
        buf.put_slice(s.as_bytes());
    }

    /// A value header declaring an array: tag, rank, `(lower, extent)`s.
    fn array_header(tag: u8, extents: &[u64]) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u8(tag);
        buf.put_u8(extents.len() as u8);
        for &e in extents {
            buf.put_i64_le(0);
            buf.put_u64_le(e);
        }
        buf
    }

    #[test]
    fn overflowing_array_shapes_are_typed_errors() {
        for tag in [tag::DOUBLE_ARRAY, tag::LONG_ARRAY, tag::DCOMPLEX_ARRAY] {
            // 2^33 · 2^33 elements wraps a 64-bit product.
            let buf = array_header(tag, &[1 << 33, 1 << 33]);
            let err = decode_value(&mut buf.freeze()).unwrap_err();
            assert!(err.to_string().contains("overflows"), "{err}");
            // 2^61 elements fit a usize; their bytes do not.
            let buf = array_header(tag, &[1 << 61]);
            assert!(decode_value(&mut buf.freeze()).is_err());
        }
    }

    #[test]
    fn declared_elements_must_be_present() {
        // 2^30 dcomplexes (16 GiB) declared by a 40-byte request.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        put_str(&mut buf, "k");
        put_str(&mut buf, "o");
        buf.put_u32_le(1);
        buf.put_slice(&array_header(tag::DCOMPLEX_ARRAY, &[1 << 30]));
        assert_eq!(buf.len(), 40);
        let err = decode_request(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("truncated array"), "{err}");
        // One element short is just as truncated.
        let mut buf = array_header(tag::DOUBLE_ARRAY, &[3]);
        buf.put_f64_le(1.0);
        buf.put_f64_le(2.0);
        assert!(decode_value(&mut buf.freeze()).is_err());
        // And an argument count the bytes cannot hold is refused up front.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        put_str(&mut buf, "k");
        put_str(&mut buf, "op");
        buf.put_u32_le(u32::MAX);
        assert!(decode_request(buf.freeze()).is_err());
    }

    #[test]
    fn garbage_tags_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(200);
        assert!(decode_value(&mut buf.freeze()).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
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

    fn values_equal(a: &DynValue, b: &DynValue) -> bool {
        // Structural equality via re-encoding (handles NaN bit patterns).
        let mut ba = BytesMut::new();
        let mut bb = BytesMut::new();
        encode_value(&mut ba, a).unwrap();
        encode_value(&mut bb, b).unwrap();
        ba == bb
    }

    proptest! {
        #[test]
        fn any_value_round_trips(v in prop_oneof![arb_scalar(), arb_array()]) {
            let mut buf = BytesMut::new();
            encode_value(&mut buf, &v).unwrap();
            let back = decode_value(&mut buf.freeze()).unwrap();
            prop_assert!(values_equal(&v, &back));
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
            let _ = decode_value(&mut Bytes::from(data));
        }
    }
}

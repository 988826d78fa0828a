//! Little-endian wire layout: the one place the workspace's codecs (the
//! rpc value codec, the parallel payload codec, the fleet op codec, the
//! bulk plane's element runs) lay out and bounds-check their bytes.
//!
//! * [`LeScalar`]: a fixed-width scalar's little-endian form. `n` of them
//!   back to back, untagged, are a *slab*, converted in one `chunks_exact`
//!   pass ([`write_slice`], [`read_into`]) that compiles to a straight
//!   copy on a little-endian host.
//! * [`Writer`]: a cursor over a buffer sized once, up front ([`encode`]).
//! * [`Reader`]: the one decode cursor. Every `u32`-counted run — bytes,
//!   UTF-8, slab — checks its count, overflow-checked, against the bytes
//!   that remain *before* anything is allocated for it. [`decode`] reads a
//!   whole message and refuses trailing bytes. Its one [`Error`] is mapped
//!   into a codec's own error type once, where that decoder is entered.

use crate::complex::Complex64;
use std::fmt;

/// A fixed-width scalar with a little-endian wire form.
pub trait LeScalar: Copy {
    /// Bytes per value on the wire.
    const SIZE: usize;
    /// Writes `self` into the first `SIZE` bytes of `out`.
    fn write_le(self, out: &mut [u8]);
    /// Reads one value from the first `SIZE` bytes of `raw`.
    fn read_le(raw: &[u8]) -> Self;
}

macro_rules! le_scalar {
    ($($ty:ty),+) => {
        $(
            impl LeScalar for $ty {
                const SIZE: usize = std::mem::size_of::<$ty>();
                #[inline]
                fn write_le(self, out: &mut [u8]) {
                    out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn read_le(raw: &[u8]) -> Self {
                    <$ty>::from_le_bytes(raw[..Self::SIZE].try_into().expect("a SIZE-byte cell"))
                }
            }
        )+
    };
}

le_scalar!(u8, u16, u32, u64, i32, i64, f32, f64);

/// `usize` crosses as a `u64`, whatever the host's pointer width.
impl LeScalar for usize {
    const SIZE: usize = 8;
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        (self as u64).write_le(out);
    }
    #[inline]
    fn read_le(raw: &[u8]) -> Self {
        u64::read_le(raw) as usize
    }
}

/// Real part, then imaginary part.
impl LeScalar for Complex64 {
    const SIZE: usize = 16;
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        self.re.write_le(&mut out[..8]);
        self.im.write_le(&mut out[8..16]);
    }
    #[inline]
    fn read_le(raw: &[u8]) -> Self {
        Complex64::new(f64::read_le(&raw[..8]), f64::read_le(&raw[8..16]))
    }
}

/// Writes `src` into `dst`, which must be exactly `src.len() · SIZE`
/// bytes long.
pub fn write_slice<T: LeScalar>(src: &[T], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * T::SIZE, "slab length mismatch");
    for (x, cell) in src.iter().zip(dst.chunks_exact_mut(T::SIZE)) {
        x.write_le(cell);
    }
}

/// Reads the slab `raw` into `dst`, which must hold exactly
/// `raw.len() / SIZE` values.
pub fn read_into<T: LeScalar>(raw: &[u8], dst: &mut [T]) {
    assert_eq!(raw.len(), dst.len() * T::SIZE, "slab length mismatch");
    for (slot, cell) in dst.iter_mut().zip(raw.chunks_exact(T::SIZE)) {
        *slot = T::read_le(cell);
    }
}

/// Why bytes do not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A read needs more bytes than remain.
    Truncated {
        /// Bytes the read needs.
        need: usize,
        /// Bytes that remain.
        have: usize,
    },
    /// A declared count whose byte length overflows `usize`.
    Overflow,
    /// Bytes remain after the last field of a message.
    Trailing(usize),
    /// A counted string that is not UTF-8.
    Utf8,
    /// Well-formed bytes the codec refuses: an unknown tag, a bad rank.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { need, have } => write!(f, "truncated ({have} of {need} bytes)"),
            Error::Overflow => write!(f, "a declared length overflows"),
            Error::Trailing(n) => write!(f, "{n} trailing bytes"),
            Error::Utf8 => write!(f, "string is not utf-8"),
            Error::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {}

/// A bounds-checked cursor over received bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, left unread.
    fn peek(&self, n: usize) -> Result<&'a [u8], Error> {
        let have = self.buf.len();
        self.buf.get(..n).ok_or(Error::Truncated { need: n, have })
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let head = self.peek(n)?;
        self.buf = &self.buf[n..];
        Ok(head)
    }

    /// One fixed-width scalar.
    pub fn get<T: LeScalar>(&mut self) -> Result<T, Error> {
        Ok(T::read_le(self.bytes(T::SIZE)?))
    }

    /// A `u32` count of `size`-byte items, checked against the bytes that
    /// remain; the items themselves are left to read.
    pub fn count(&mut self, size: usize) -> Result<usize, Error> {
        let n = self.get::<u32>()? as usize;
        self.peek(n.checked_mul(size).ok_or(Error::Overflow)?)?;
        Ok(n)
    }

    /// A `u32`-counted byte string.
    pub fn bytes32(&mut self) -> Result<&'a [u8], Error> {
        let n = self.get::<u32>()? as usize;
        self.bytes(n)
    }

    /// A `u32`-counted UTF-8 string.
    pub fn str32(&mut self) -> Result<&'a str, Error> {
        std::str::from_utf8(self.bytes32()?).map_err(|_| Error::Utf8)
    }

    /// `n` values as one slab, into an exactly-sized `Vec`.
    pub fn vec<T: LeScalar>(&mut self, n: usize) -> Result<Vec<T>, Error> {
        let raw = self.bytes(n.checked_mul(T::SIZE).ok_or(Error::Overflow)?)?;
        Ok(raw.chunks_exact(T::SIZE).map(T::read_le).collect())
    }

    /// A `u32`-counted slab.
    pub fn slab<T: LeScalar>(&mut self) -> Result<Vec<T>, Error> {
        let n = self.get::<u32>()? as usize;
        self.vec(n)
    }

    /// Ends a message: refuses bytes left over.
    pub fn finish(self) -> Result<(), Error> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(Error::Trailing(n)),
        }
    }
}

/// Reads all of `bytes` with `read`: what `read` leaves over is
/// [`Error::Trailing`].
pub fn decode<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<T, Error> {
    let mut r = Reader::new(bytes);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// A cursor over a buffer already sized for what it will hold. Writing
/// past the end is a codec bug and panics.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut [u8],
    at: usize,
}

impl<'a> Writer<'a> {
    /// A writer at the start of `out`.
    pub fn new(out: &'a mut [u8]) -> Self {
        Writer { out, at: 0 }
    }

    /// Raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.out[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    /// One fixed-width scalar.
    pub fn put<T: LeScalar>(&mut self, v: T) {
        v.write_le(&mut self.out[self.at..]);
        self.at += T::SIZE;
    }

    /// A `u32`-counted byte string.
    pub fn bytes32(&mut self, bytes: &[u8]) {
        self.put(bytes.len() as u32);
        self.bytes(bytes);
    }

    /// A `u32`-counted UTF-8 string.
    pub fn str32(&mut self, s: &str) {
        self.bytes32(s.as_bytes());
    }

    /// `src` as one slab, uncounted.
    pub fn slice<T: LeScalar>(&mut self, src: &[T]) {
        let end = self.at + src.len() * T::SIZE;
        write_slice(src, &mut self.out[self.at..end]);
        self.at = end;
    }

    /// `src` as a `u32`-counted slab.
    pub fn slab<T: LeScalar>(&mut self, src: &[T]) {
        self.put(src.len() as u32);
        self.slice(src);
    }

    /// Ends the message; the buffer must be exactly full.
    pub fn finish(self) {
        assert_eq!(self.at, self.out.len(), "encode length mismatch");
    }
}

/// One allocation of exactly `len` bytes, written front to back by
/// `write`.
pub fn encode(len: usize, write: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = vec![0; len];
    let mut w = Writer::new(&mut out);
    write(&mut w);
    w.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slabs_match_per_value_little_endian_bytes() {
        let xs = [1.5f64, -0.0, f64::NAN, f64::MIN_POSITIVE];
        let mut slab = vec![0u8; 32];
        write_slice(&xs, &mut slab);
        let per_value: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(slab, per_value);
        let back: Vec<f64> = Reader::new(&slab).vec(4).unwrap();
        assert!(back
            .iter()
            .zip(&xs)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(back.capacity(), xs.len());
        let mut into = [0.0f64; 4];
        read_into(&slab, &mut into);
        assert!(into
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn every_scalar_round_trips() {
        fn round_trip<T: LeScalar + PartialEq + std::fmt::Debug>(xs: &[T]) {
            let out = encode(1 + 4 + xs.len() * T::SIZE, |w| {
                w.put(0xaau8);
                w.slab(xs);
            });
            let back = decode(&out, |r| {
                assert_eq!(r.get::<u8>()?, 0xaa);
                r.slab::<T>()
            });
            assert_eq!(back.unwrap(), xs);
        }
        round_trip(&[0u8, 255]);
        round_trip(&[1u16, u16::MAX]);
        round_trip(&[7u32, u32::MAX]);
        round_trip(&[1u64, u64::MAX]);
        round_trip(&[-1i32, i32::MIN]);
        round_trip(&[-1i64, i64::MIN]);
        round_trip(&[1.5f32, -0.0]);
        round_trip(&[0usize, usize::MAX]);
        round_trip(&[Complex64::new(1.0, -2.0), Complex64::new(0.5, 3.0)]);
        round_trip::<f64>(&[]);
    }

    #[test]
    fn counted_runs_and_strings_round_trip() {
        let out = encode(4 + 2 + 4 + 3 + 8, |w| {
            w.bytes32(b"ab");
            w.str32("hé");
            w.put(9u64);
        });
        let (b, s, n) = decode(&out, |r| Ok((r.bytes32()?, r.str32()?, r.get::<u64>()?))).unwrap();
        assert_eq!((b, s, n), (&b"ab"[..], "hé", 9));
    }

    #[test]
    fn declared_lengths_are_checked_before_allocation() {
        let huge = u32::MAX.to_le_bytes();
        for read in [
            |r: &mut Reader<'_>| r.bytes32().map(drop),
            |r: &mut Reader<'_>| r.str32().map(drop),
            |r: &mut Reader<'_>| r.slab::<Complex64>().map(drop),
            |r: &mut Reader<'_>| r.count(1).map(drop),
        ] {
            assert!(matches!(
                read(&mut Reader::new(&huge)),
                Err(Error::Truncated { have: 0, .. })
            ));
        }
        assert_eq!(
            Reader::new(&[]).vec::<Complex64>(usize::MAX / 8),
            Err(Error::Overflow)
        );
        assert_eq!(
            Reader::new(&[1, 2]).get::<u32>(),
            Err(Error::Truncated { need: 4, have: 2 })
        );
        assert_eq!(
            decode(&[0xff, 0xfe], |r| r.str32().map(drop)),
            Err(Error::Truncated { need: 4, have: 2 })
        );
        let bad_utf8 = [1, 0, 0, 0, 0xff];
        assert_eq!(Reader::new(&bad_utf8).str32(), Err(Error::Utf8));
    }

    #[test]
    fn decode_refuses_trailing_bytes() {
        assert_eq!(
            decode(&[1, 2, 3], |r| r.get::<u16>()),
            Err(Error::Trailing(1))
        );
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.bytes(3), Ok(&[1, 2, 3][..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "encode length mismatch")]
    fn an_underfilled_encode_panics() {
        encode(5, |w| w.put(1u32));
    }
}

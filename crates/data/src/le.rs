//! Little-endian slabs of fixed-width scalars: the one encode and decode
//! pass both value codecs (`cca-rpc`'s and `cca-parallel`'s) use for
//! their primitive arrays.
//!
//! A slice of `n` values is `n · SIZE` bytes, each value's little-endian
//! bytes back to back, with no per-element tag or length. Encoding is one
//! `chunks_exact_mut` pass over the destination, decoding one
//! `chunks_exact` pass into an exactly-sized `Vec` — safe code that the
//! compiler lowers to a straight copy on a little-endian host.

use crate::complex::Complex64;

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

le_scalar!(u32, u64, i64, f64);

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

/// Bytes that `n` values of `T` occupy; `None` when that overflows
/// `usize` — a length read off the wire is checked with this before
/// anything is allocated for it.
pub fn byte_len<T: LeScalar>(n: usize) -> Option<usize> {
    n.checked_mul(T::SIZE)
}

/// Writes `src` into `dst`, which must be exactly `src.len() · SIZE`
/// bytes long.
pub fn write_slice<T: LeScalar>(src: &[T], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * T::SIZE, "slab length mismatch");
    for (x, cell) in src.iter().zip(dst.chunks_exact_mut(T::SIZE)) {
        x.write_le(cell);
    }
}

/// Appends `src` to `out` as one slab.
pub fn extend_vec<T: LeScalar>(out: &mut Vec<u8>, src: &[T]) {
    let at = out.len();
    out.resize(at + src.len() * T::SIZE, 0);
    write_slice(src, &mut out[at..]);
}

/// Reads a slab back into an exactly-sized `Vec`; `raw` must be a whole
/// number of values long.
pub fn read_vec<T: LeScalar>(raw: &[u8]) -> Vec<T> {
    assert_eq!(raw.len() % T::SIZE, 0, "slab is not whole values");
    raw.chunks_exact(T::SIZE).map(T::read_le).collect()
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
        let back: Vec<f64> = read_vec(&slab);
        assert!(back
            .iter()
            .zip(&xs)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(back.capacity(), xs.len());
    }

    #[test]
    fn every_scalar_round_trips() {
        fn round_trip<T: LeScalar + PartialEq + std::fmt::Debug>(xs: &[T]) {
            let mut out = vec![0xaa];
            extend_vec(&mut out, xs);
            assert_eq!(out.len(), 1 + xs.len() * T::SIZE);
            assert_eq!(read_vec::<T>(&out[1..]), xs);
        }
        round_trip(&[7u32, u32::MAX]);
        round_trip(&[1u64, u64::MAX]);
        round_trip(&[-1i64, i64::MIN]);
        round_trip(&[0usize, usize::MAX]);
        round_trip(&[Complex64::new(1.0, -2.0), Complex64::new(0.5, 3.0)]);
        round_trip::<f64>(&[]);
    }

    #[test]
    fn byte_len_refuses_overflow() {
        assert_eq!(byte_len::<f64>(3), Some(24));
        assert_eq!(byte_len::<Complex64>(1 << 30), Some(16 << 30));
        assert_eq!(byte_len::<Complex64>(usize::MAX / 8), None);
    }
}

//! BLAS-1 kernels and the serial/parallel reduction abstraction.
//!
//! Krylov methods only touch the distribution of a vector in two places:
//! inner products and norms. [`Reduction`] abstracts that: a serial solver
//! sums locally; an SPMD solver hands partial sums to `allreduce`. All
//! other kernels (axpy, scale, copy) are embarrassingly local.

use cca_parallel::{Comm, ReduceOp, SumOp};

/// Where global sums come from.
pub trait Reduction {
    /// Reduces a local partial sum to the global sum (on every caller).
    fn global_sum(&self, local: f64) -> f64;

    /// Reduces two partial sums at once (one message in SPMD contexts —
    /// the classic latency optimization for CG's paired dots).
    fn global_sum2(&self, a: f64, b: f64) -> (f64, f64) {
        (self.global_sum(a), self.global_sum(b))
    }
}

/// Serial context: sums are already global.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialReduce;

impl Reduction for SerialReduce {
    fn global_sum(&self, local: f64) -> f64 {
        local
    }
}

/// SPMD context: partial sums go through `allreduce` on a communicator.
pub struct CommReduce<'a>(pub &'a Comm);

impl Reduction for CommReduce<'_> {
    fn global_sum(&self, local: f64) -> f64 {
        self.0
            .allreduce(local, &SumOp)
            .expect("allreduce on live communicator")
    }

    fn global_sum2(&self, a: f64, b: f64) -> (f64, f64) {
        struct PairSum;
        impl ReduceOp<(f64, f64)> for PairSum {
            fn combine(&self, x: (f64, f64), y: (f64, f64)) -> (f64, f64) {
                (x.0 + y.0, x.1 + y.1)
            }
        }
        self.0
            .allreduce((a, b), &PairSum)
            .expect("allreduce on live communicator")
    }
}

/// Independent partial sums in [`dot_local`]. A constant, so the result
/// does not depend on CPU features or on how many ranks share the vector.
const DOT_LANES: usize = 8;

/// Local dot product of two equal-length slices.
///
/// Element `i` of the whole chunks of eight goes to partial sum `i % 8`;
/// the eight are combined as
/// `((s0+s4) + (s2+s6)) + ((s1+s5) + (s3+s7))` and the `len % 8` trailing
/// products are added last, in order. A single running sum is a serial add
/// chain the compiler may not reassociate; eight chains it can keep in
/// vector registers.
#[inline]
pub fn dot_local(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_local: lengths differ");
    let xs = x.chunks_exact(DOT_LANES);
    let ys = y.chunks_exact(DOT_LANES);
    let (x_tail, y_tail) = (xs.remainder(), ys.remainder());
    let mut s = [0.0f64; DOT_LANES];
    for (a, b) in xs.zip(ys) {
        for ((sl, al), bl) in s.iter_mut().zip(a).zip(b) {
            *sl += al * bl;
        }
    }
    let mut sum = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
    for (a, b) in x_tail.iter().zip(y_tail) {
        sum += a * b;
    }
    sum
}

/// Global dot product under a reduction context.
#[inline]
pub fn dot<R: Reduction>(r: &R, x: &[f64], y: &[f64]) -> f64 {
    r.global_sum(dot_local(x, y))
}

/// Global 2-norm under a reduction context.
#[inline]
pub fn norm2<R: Reduction>(r: &R, x: &[f64]) -> f64 {
    r.global_sum(dot_local(x, x)).sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: lengths differ");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` (the CG direction update).
#[inline]
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: lengths differ");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Copies `x` into `y`.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_parallel::spmd;

    #[test]
    fn local_kernels() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![4.0, 5.0, 6.0];
        assert_eq!(dot_local(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, vec![4.0, 6.5, 9.0]);
        scale(2.0, &mut y);
        assert_eq!(y, vec![8.0, 13.0, 18.0]);
        let mut z = vec![0.0; 3];
        copy(&x, &mut z);
        assert_eq!(z, x);
    }

    /// Neumaier's compensated sum of the products: the reference a
    /// reordered sum is judged against.
    fn compensated_dot(x: &[f64], y: &[f64]) -> f64 {
        let (mut sum, mut comp) = (0.0f64, 0.0f64);
        for (a, b) in x.iter().zip(y) {
            let p = a * b;
            let t = sum + p;
            comp += if sum.abs() >= p.abs() {
                (sum - t) + p
            } else {
                (p - t) + sum
            };
            sum = t;
        }
        sum + comp
    }

    #[test]
    fn dot_local_is_accurate_and_repeatable_at_every_remainder() {
        for n in 0..=33usize {
            let x: Vec<f64> = (0..n).map(|i| 0.1 + ((i * 37) % 19) as f64 / 7.0).collect();
            let y: Vec<f64> = (0..n).map(|i| 1.3 + ((i * 11) % 23) as f64 / 3.0).collect();
            let got = dot_local(&x, &y);
            let want = compensated_dot(&x, &y);
            assert!(
                (got - want).abs() <= 1e-13 * want.abs(),
                "n={n}: {got} vs {want}"
            );
            assert_eq!(got.to_bits(), dot_local(&x, &y).to_bits(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "dot_local: lengths differ")]
    fn dot_local_rejects_unequal_lengths() {
        dot_local(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "axpy: lengths differ")]
    fn axpy_rejects_unequal_lengths() {
        axpy(2.0, &[1.0, 2.0, 3.0], &mut [1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "xpby: lengths differ")]
    fn xpby_rejects_unequal_lengths() {
        xpby(&[1.0, 2.0], 0.5, &mut [1.0, 2.0, 3.0]);
    }

    #[test]
    fn serial_reduction_is_identity() {
        let r = SerialReduce;
        assert_eq!(r.global_sum(5.5), 5.5);
        assert_eq!(r.global_sum2(1.0, 2.0), (1.0, 2.0));
        assert_eq!(norm2(&r, &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn comm_reduction_matches_serial() {
        // Global vector [0,1,2,...,11] split over 3 ranks.
        let global: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let serial_dot = dot_local(&global, &global);
        let results = spmd(3, |c| {
            let chunk = &global[c.rank() * 4..(c.rank() + 1) * 4];
            let r = CommReduce(c);
            let d = dot(&r, chunk, chunk);
            let (a, b) = r.global_sum2(chunk.iter().sum(), 1.0);
            (d, a, b)
        });
        for (d, a, b) in results {
            assert_eq!(d, serial_dot);
            assert_eq!(a, global.iter().sum::<f64>());
            assert_eq!(b, 3.0);
        }
    }
}

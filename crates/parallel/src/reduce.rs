//! Reduction operators for collective operations.
//!
//! MPI defines a fixed set of built-in reduction operators plus user-defined
//! ones; [`ReduceOp`] reproduces that shape as a trait so solver components
//! can reduce with dot-product-friendly semantics and applications can
//! define their own (e.g. the residual-norm pair used by `cca-solvers`).

/// A binary, associative combination of two values.
pub trait ReduceOp<T>: Sync {
    /// Combines two values. Must be associative; commutativity is assumed
    /// by tree-based implementations.
    fn combine(&self, a: T, b: T) -> T;
}

/// Elementwise sum (`MPI_SUM`).
pub struct SumOp;
/// Elementwise minimum (`MPI_MIN`).
pub struct MinOp;
/// Elementwise maximum (`MPI_MAX`).
pub struct MaxOp;

macro_rules! impl_numeric_ops {
    ($($t:ty),*) => {$(
        impl ReduceOp<$t> for SumOp {
            fn combine(&self, a: $t, b: $t) -> $t { a + b }
        }
        impl ReduceOp<$t> for MinOp {
            fn combine(&self, a: $t, b: $t) -> $t { if b < a { b } else { a } }
        }
        impl ReduceOp<$t> for MaxOp {
            fn combine(&self, a: $t, b: $t) -> $t { if b > a { b } else { a } }
        }
        // Vector (elementwise) variants, as MPI applies ops per element.
        impl ReduceOp<Vec<$t>> for SumOp {
            fn combine(&self, mut a: Vec<$t>, b: Vec<$t>) -> Vec<$t> {
                assert_eq!(a.len(), b.len(), "elementwise reduce length mismatch");
                for (x, y) in a.iter_mut().zip(b) { *x += y; }
                a
            }
        }
        impl ReduceOp<Vec<$t>> for MaxOp {
            fn combine(&self, mut a: Vec<$t>, b: Vec<$t>) -> Vec<$t> {
                assert_eq!(a.len(), b.len(), "elementwise reduce length mismatch");
                for (x, y) in a.iter_mut().zip(b) { if y > *x { *x = y; } }
                a
            }
        }
    )*};
}

impl_numeric_ops!(i32, i64, u32, u64, usize, f32, f64);

/// A closure-backed user-defined reduction (`MPI_Op_create` analogue).
pub struct FnOp<F>(pub F);

impl<T, F: Fn(T, T) -> T + Sync> ReduceOp<T> for FnOp<F> {
    fn combine(&self, a: T, b: T) -> T {
        (self.0)(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ops() {
        assert_eq!(SumOp.combine(2i64, 3), 5);
        assert_eq!(MinOp.combine(2u32, 3), 2);
        assert_eq!(MaxOp.combine(2usize, 3), 3);
    }

    #[test]
    fn elementwise_vector_ops() {
        assert_eq!(
            SumOp.combine(vec![1.0f64, 2.0], vec![10.0, 20.0]),
            vec![11.0, 22.0]
        );
        assert_eq!(MaxOp.combine(vec![1i64, 9], vec![5, 3]), vec![5, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vector_length_mismatch_panics() {
        SumOp.combine(vec![1.0f64], vec![1.0, 2.0]);
    }

    #[test]
    fn user_defined_op() {
        // "argmax" over (value, rank) pairs — MPI_MAXLOC.
        let maxloc = FnOp(|a: (f64, usize), b: (f64, usize)| if b.0 > a.0 { b } else { a });
        assert_eq!(maxloc.combine((1.0, 0), (3.0, 2)), (3.0, 2));
        assert_eq!(maxloc.combine((5.0, 1), (3.0, 2)), (5.0, 1));
    }
}

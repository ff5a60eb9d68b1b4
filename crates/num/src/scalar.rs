//! Precision-generic scalar abstraction.
//!
//! The reference GPT-2 implementation in `dfx-model` is generic over the
//! element type so the same code can run in `f32` (golden reference), `f64`
//! or [`F16`] (the precision the GPU baseline and the DFX datapath use).
//! Accuracy experiments (paper §VII-A) compare these instantiations.

use crate::f16::{round_op_widened, F16};
use crate::sfu;

/// A floating-point scalar usable by the reference model.
///
/// This trait is sealed: the simulator's numerics are only meaningful for
/// the three concrete precisions provided here.
pub trait Scalar:
    Copy + Clone + std::fmt::Debug + PartialOrd + Send + Sync + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Converts from `f64` (rounding as appropriate for the precision).
    fn from_f64(x: f64) -> Self;
    /// Converts to `f64` (exact for all three precisions).
    fn to_f64(self) -> f64;

    /// Addition.
    fn add(self, rhs: Self) -> Self;
    /// Subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Exponential.
    fn exp(self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
    /// Reciprocal square root.
    fn recip_sqrt(self) -> Self;
    /// GELU activation (exact tanh form for wide types; callers that model
    /// the DFX lookup table use [`crate::GeluLut`] instead).
    fn gelu(self) -> Self;

    /// `maxNum` comparison used by argmax.
    fn max_num(self, rhs: Self) -> Self;

    /// `y = y + x · W` for the row-major `w` of `x.len()` rows of
    /// `y.len()` columns: row by row in order, each `y[j] = y[j] + x[i]·w[i][j]`
    /// rounding after the multiply and after the add (no fused
    /// multiply-add), exactly as the loop of [`Scalar::mul`] and
    /// [`Scalar::add`] does.
    #[inline]
    fn vecmat_acc(x: &[Self], w: &[Self], y: &mut [Self]) {
        if y.is_empty() {
            return;
        }
        for (&xi, row) in x.iter().zip(w.chunks_exact(y.len())) {
            for (yj, &wj) in y.iter_mut().zip(row) {
                *yj = yj.add(xi.mul(wj));
            }
        }
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for super::F16 {}
}

macro_rules! impl_scalar_for_native {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                f64::from(self)
            }
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self + rhs
            }
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self - rhs
            }
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self * rhs
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn recip(self) -> Self {
                1.0 / self
            }
            #[inline]
            fn recip_sqrt(self) -> Self {
                1.0 / self.sqrt()
            }
            #[inline]
            fn gelu(self) -> Self {
                sfu::gelu_exact(f64::from(self)) as $t
            }
            #[inline]
            fn max_num(self, rhs: Self) -> Self {
                if self.is_nan() {
                    rhs
                } else if rhs.is_nan() {
                    self
                } else if self >= rhs {
                    self
                } else {
                    rhs
                }
            }
        }
    };
}

impl_scalar_for_native!(f32);
impl_scalar_for_native!(f64);

impl Scalar for F16 {
    const ZERO: Self = F16::ZERO;
    const ONE: Self = F16::ONE;

    #[inline]
    fn from_f64(x: f64) -> Self {
        F16::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        F16::to_f64(self)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn exp(self) -> Self {
        sfu::exp(self)
    }
    #[inline]
    fn recip(self) -> Self {
        sfu::recip(self)
    }
    #[inline]
    fn recip_sqrt(self) -> Self {
        sfu::recip_sqrt(self)
    }
    #[inline]
    fn gelu(self) -> Self {
        F16::from_f64(sfu::gelu_exact(self.to_f64()))
    }
    #[inline]
    fn max_num(self, rhs: Self) -> Self {
        self.max(rhs)
    }
    /// The accumulators stay widened across all rows and are narrowed
    /// once at the end; every product and sum is still rounded to half.
    fn vecmat_acc(x: &[Self], w: &[Self], y: &mut [Self]) {
        if y.is_empty() {
            return;
        }
        let mut acc: Vec<f32> = y.iter().map(|v| v.to_f32()).collect();
        for (&xi, row) in x.iter().zip(w.chunks_exact(y.len())) {
            let a = xi.to_f32();
            for (yj, &wj) in acc.iter_mut().zip(row) {
                let wj = wj.to_f32();
                let product = round_op_widened(a * wj, a, wj);
                *yj = round_op_widened(*yj + product, *yj, product);
            }
        }
        for (yj, aj) in y.iter_mut().zip(acc) {
            *yj = F16::from_f32(aj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_basic_ops<T: Scalar>() {
        let two = T::from_f64(2.0);
        let three = T::from_f64(3.0);
        assert_eq!(two.add(three).to_f64(), 5.0);
        assert_eq!(three.sub(two).to_f64(), 1.0);
        assert_eq!(two.mul(three).to_f64(), 6.0);
        assert_eq!(two.max_num(three).to_f64(), 3.0);
        assert!((T::from_f64(4.0).recip_sqrt().to_f64() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn scalar_ops_consistent_across_precisions() {
        check_basic_ops::<f32>();
        check_basic_ops::<f64>();
        check_basic_ops::<F16>();
    }

    #[test]
    fn f16_vecmat_acc_equals_the_loop_of_f16_operations() {
        // Operands over the whole range, NaNs, infinities and subnormals
        // included.
        let pool: Vec<F16> = (0..=u16::MAX).step_by(61).map(F16::from_bits).collect();
        let take = |start: usize, n: usize| -> Vec<F16> {
            pool.iter().cycle().skip(start).take(n).copied().collect()
        };
        let (rows, cols) = (13, 41);
        let w = take(5, rows * cols);
        for start in (0..pool.len()).step_by(97) {
            let x = take(start, rows);
            let mut fast = take(start + 500, cols);
            let mut slow = fast.clone();
            F16::vecmat_acc(&x, &w, &mut fast);
            for (i, &xi) in x.iter().enumerate() {
                for (y, &wv) in slow.iter_mut().zip(&w[i * cols..(i + 1) * cols]) {
                    *y += xi * wv;
                }
            }
            let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "x from {start}");
        }
    }

    #[test]
    fn f16_scalar_gelu_close_to_f64_gelu() {
        for x in [-3.0, -1.0, 0.0, 0.5, 2.0] {
            let wide = <f64 as Scalar>::gelu(x);
            let narrow = <F16 as Scalar>::gelu(F16::from_f64(x)).to_f64();
            assert!((wide - narrow).abs() < 2e-3, "x={x}: {wide} vs {narrow}");
        }
    }
}

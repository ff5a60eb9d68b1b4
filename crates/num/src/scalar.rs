//! Precision-generic scalar abstraction.
//!
//! The reference GPT-2 implementation in `dfx-model` is generic over the
//! element type so the same code can run in `f32` (golden reference), `f64`
//! or [`F16`] (the precision the GPU baseline and the DFX datapath use).
//! Accuracy experiments (paper §VII-A) compare these instantiations.

use crate::f16::{round_step, F16};
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
    ///
    /// This is the reference model's one vector-matrix kernel, with the
    /// columns of `y` as independent output lanes: the projections call
    /// it directly, and the logits, attention scores and P·V call it
    /// over tiles of 16 transposed rows, where each output is the
    /// sequential dot product of its row, folded from zero.
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
    /// The output columns are independent lanes, evaluated side by side
    /// without the per-op NaN rule; a call that leaves any accumulator
    /// non-finite, as one that met a NaN does, is evaluated again under
    /// the rule, so the result is the loop of [`F16`] operations', bit
    /// for bit.
    fn vecmat_acc(x: &[Self], w: &[Self], y: &mut [Self]) {
        if y.is_empty() {
            return;
        }
        let mut acc: Vec<f32> = y.iter().map(|v| v.to_f32()).collect();
        vecmat_pass::<false>(x, w, &mut acc);
        if acc.iter().any(|a| !a.is_finite()) {
            acc.clear();
            acc.extend(y.iter().map(|v| v.to_f32()));
            vecmat_pass::<true>(x, w, &mut acc);
        }
        for (yj, aj) in y.iter_mut().zip(acc) {
            *yj = F16::from_f32(aj);
        }
    }
}

/// One pass of `acc = acc + x · W` on widened halves, row by row, with
/// every product and sum rounded through [`round_step`].
fn vecmat_pass<const EXACT: bool>(x: &[F16], w: &[F16], acc: &mut [f32]) {
    for (&xi, row) in x.iter().zip(w.chunks_exact(acc.len())) {
        let a = xi.to_f32();
        for (yj, &wj) in acc.iter_mut().zip(row) {
            let wj = wj.to_f32();
            let product = round_step::<EXACT>(a * wj, a, wj);
            *yj = round_step::<EXACT>(*yj + product, *yj, product);
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
            vecmat_by_ops(&x, &w, &mut slow);
            let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "x from {start}");
        }
    }

    /// The loop of [`F16`] operations `vecmat_acc` stands for.
    fn vecmat_by_ops(x: &[F16], w: &[F16], y: &mut [F16]) {
        let cols = y.len();
        for (i, &xi) in x.iter().enumerate() {
            for (y, &wv) in y.iter_mut().zip(&w[i * cols..(i + 1) * cols]) {
                *y += xi * wv;
            }
        }
    }

    #[test]
    fn f16_vecmat_acc_reruns_a_call_whose_nan_appears_mid_matrix() {
        let (rows, cols) = (13, 41);
        let number = |i: usize| F16::from_f32(((i * 29) % 31) as f32 * 0.125 - 1.75);
        let x: Vec<F16> = (0..rows).map(number).collect();
        let w: Vec<F16> = (0..rows * cols).map(|i| number(i + 3)).collect();
        let y: Vec<F16> = (0..cols).map(|i| number(i + 11)).collect();
        let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
        let at = |row: usize, col: usize| row * cols + col;
        // A NaN weight with a payload, 0 · ∞, and ∞ − ∞ in an
        // accumulator, each first appearing at row 7 of column 3.
        // (what, weight edits, input edits), as (index, value) pairs.
        type Edits = Vec<(usize, F16)>;
        let cases: [(&str, Edits, Edits); 3] = [
            ("payload", vec![(at(7, 3), F16::from_bits(0x7d55))], vec![]),
            (
                "0 * inf",
                vec![(at(7, 3), F16::INFINITY)],
                vec![(7, F16::ZERO)],
            ),
            (
                "inf - inf",
                vec![(at(2, 3), F16::INFINITY), (at(7, 3), F16::NEG_INFINITY)],
                vec![],
            ),
        ];
        for (what, weights, inputs) in cases {
            let (mut x, mut w) = (x.clone(), w.clone());
            for (row, v) in inputs {
                x[row] = v;
            }
            let mut clean = y.clone();
            F16::vecmat_acc(&x, &w, &mut clean);
            for (k, v) in weights {
                w[k] = v;
            }
            let (mut fast, mut slow) = (y.clone(), y.clone());
            F16::vecmat_acc(&x, &w, &mut fast);
            vecmat_by_ops(&x, &w, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "{what}");
            assert!(fast[3].is_nan(), "{what}: column 3 must be NaN");
            for (j, (f, c)) in fast.iter().zip(&clean).enumerate() {
                if j != 3 {
                    assert_eq!(f.to_bits(), c.to_bits(), "{what}: column {j} moved");
                }
            }
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

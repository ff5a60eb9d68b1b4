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
    /// Converts from `f32` (rounding as appropriate for the precision):
    /// the value `from_f64` gives for the exactly widened `x`.
    fn from_f32(x: f32) -> Self;
    /// Converts to `f64` (exact for all three precisions).
    fn to_f64(self) -> f64;

    /// Converts to another precision, rounding as `U` does: through
    /// `f64`, or for an `f32` straight through [`Scalar::from_f32`],
    /// which gives the same value without the round trip.
    #[inline]
    fn cast<U: Scalar>(self) -> U {
        U::from_f64(self.to_f64())
    }

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

    /// `Y = Y + X · W`: [`Scalar::vecmat_acc`] of every row of `xs` into
    /// the same row of `ys`, bit for bit, where `ys` holds rows of `out`
    /// outputs and `xs` as many rows of `w.len() / out` inputs. This is
    /// the matrix–matrix form the summarization stage runs, one pass per
    /// weight matrix for all its rows.
    fn vecmat_rows_acc(xs: &[Self], w: &[Self], ys: &mut [Self], out: usize) {
        let inputs = w.len() / out.max(1);
        if out == 0 || inputs == 0 {
            return;
        }
        for (x, y) in xs.chunks_exact(inputs).zip(ys.chunks_exact_mut(out)) {
            Self::vecmat_acc(x, w, y);
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
    ($t:ty $(, $cast:item)?) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn from_f32(x: f32) -> Self {
                <$t>::from(x)
            }
            $($cast)?
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

impl_scalar_for_native!(
    f32,
    #[inline]
    fn cast<U: Scalar>(self) -> U {
        U::from_f32(self)
    }
);
impl_scalar_for_native!(f64);

impl Scalar for F16 {
    const ZERO: Self = F16::ZERO;
    const ONE: Self = F16::ONE;

    #[inline]
    fn from_f64(x: f64) -> Self {
        F16::from_f64(x)
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
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
    /// The one-row case of [`Scalar::vecmat_rows_acc`].
    fn vecmat_acc(x: &[Self], w: &[Self], y: &mut [Self]) {
        Self::vecmat_rows_acc(x, w, y, y.len());
    }

    /// Each weight row is widened once and applied to every row's
    /// accumulators, which stay widened across all weight rows and are
    /// narrowed once at the end; every product and sum is still rounded
    /// to half, in each row's own order. The outputs are independent
    /// lanes, evaluated side by side without the per-op NaN rule; a row
    /// whose accumulators end non-finite, as one that met a NaN does, is
    /// evaluated again alone under the rule, so every row is the loop of
    /// [`F16`] operations', bit for bit.
    fn vecmat_rows_acc(xs: &[Self], w: &[Self], ys: &mut [Self], out: usize) {
        let inputs = w.len() / out.max(1);
        if out == 0 || inputs == 0 {
            return;
        }
        let mut acc: Vec<f32> = ys.iter().map(|v| v.to_f32()).collect();
        rows_pass::<false>(xs, w, &mut acc, out);
        let rows = xs.chunks_exact(inputs).zip(ys.chunks_exact_mut(out));
        for ((x, y), acc) in rows.zip(acc.chunks_exact_mut(out)) {
            if acc.iter().any(|a| !a.is_finite()) {
                for (a, v) in acc.iter_mut().zip(y.iter()) {
                    *a = v.to_f32();
                }
                rows_pass::<true>(x, w, acc, out);
            }
            for (yj, &aj) in y.iter_mut().zip(acc.iter()) {
                *yj = F16::from_f32(aj);
            }
        }
    }
}

/// One pass of `acc = acc + X · W` for every row of `xs` and of the
/// widened accumulators `acc` (rows of `out` outputs), weight row by
/// weight row, each widened once for all rows; every product and sum is
/// rounded through [`round_step`].
fn rows_pass<const EXACT: bool>(xs: &[F16], w: &[F16], acc: &mut [f32], out: usize) {
    let inputs = w.len() / out;
    let mut wide_w = vec![0.0f32; out];
    for (i, w_row) in w.chunks_exact(out).enumerate() {
        for (wide, v) in wide_w.iter_mut().zip(w_row) {
            *wide = v.to_f32();
        }
        for (x, acc) in xs.chunks_exact(inputs).zip(acc.chunks_exact_mut(out)) {
            let xi = x[i].to_f32();
            for (a, &wj) in acc.iter_mut().zip(&wide_w) {
                let product = round_step::<EXACT>(xi * wj, xi, wj);
                *a = round_step::<EXACT>(*a + product, *a, product);
            }
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

    #[test]
    fn vecmat_rows_acc_equals_each_rows_loop() {
        let (rows, cols) = (13, 41);
        let number = |i: usize| F16::from_f32(((i * 29) % 31) as f32 * 0.125 - 1.75);
        let w: Vec<F16> = (0..rows * cols).map(|i| number(i + 3)).collect();
        let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
        // 17 rows of inputs, two of them with a NaN payload or an ∞ that
        // makes only their own row rerun under the NaN rule.
        let mut xs: Vec<F16> = (0..17 * rows).map(|i| number(i * 7 + 1)).collect();
        xs[4 * rows + 5] = F16::from_bits(0x7d55);
        xs[11 * rows] = F16::NEG_INFINITY;
        let ys: Vec<F16> = (0..17 * cols).map(|i| number(i + 11)).collect();
        let mut fast = ys.clone();
        F16::vecmat_rows_acc(&xs, &w, &mut fast, cols);
        for r in 0..17 {
            let mut slow = ys[r * cols..(r + 1) * cols].to_vec();
            vecmat_by_ops(&xs[r * rows..(r + 1) * rows], &w, &mut slow);
            assert_eq!(
                bits(&fast[r * cols..(r + 1) * cols]),
                bits(&slow),
                "row {r}"
            );
            assert_eq!(
                slow.iter().any(|v| v.is_nan()),
                r == 4 || r == 11,
                "row {r}"
            );
        }
        // The native default: each row through its own `vecmat_acc`.
        let xs: Vec<f32> = (0..3 * rows).map(|i| number(i).to_f32()).collect();
        let w: Vec<f32> = w.iter().map(|v| v.to_f32()).collect();
        let mut ys = vec![0.5f32; 3 * cols];
        f32::vecmat_rows_acc(&xs, &w, &mut ys, cols);
        for r in 0..3 {
            let mut y = vec![0.5f32; cols];
            f32::vecmat_acc(&xs[r * rows..(r + 1) * rows], &w, &mut y);
            assert_eq!(ys[r * cols..(r + 1) * cols], y[..], "f32 row {r}");
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

    /// The `f32` cast against the `f64` round trip it replaces, bit for
    /// bit, on a strided sample of every `f32` bit pattern: NaN payloads
    /// of both signs and kinds, subnormals, ±0 and ±∞ included.
    #[test]
    fn casting_from_f32_equals_the_round_trip_through_f64() {
        let specials = [
            0x7fc0_0000,
            0xff80_0001,
            0x7fbf_ffff,
            0x0000_0001,
            0x8000_0000,
        ];
        let sample = (0..=u32::MAX).step_by(65_521).chain(specials);
        for x in sample.map(f32::from_bits) {
            let want = F16::from_f64(f64::from(x));
            assert_eq!(x.cast::<F16>().to_bits(), want.to_bits(), "{x:e}");
            assert_eq!(x.cast::<f64>().to_bits(), f64::from(x).to_bits(), "{x:e}");
        }
        for x in [0.0f32, -0.0, 1.5, -65504.0, f32::INFINITY] {
            assert_eq!(x.cast::<f32>().to_bits(), x.to_bits());
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

//! Reduction arithmetic with DFX adder-tree semantics.
//!
//! The matrix function unit (paper §V-C) feeds `d`-element products into a
//! balanced binary adder tree of depth `log2(d)`; every adder is an
//! individually rounding FP16 operator. Summation order therefore matters:
//! a pairwise tree produces different (usually *more* accurate) results
//! than a sequential accumulator. The functional executor uses these
//! routines so simulated numerics match the hardware's dataflow.

use crate::f16::{round_op_widened, F16};

/// Sums a slice with a balanced pairwise adder tree, padding the last level
/// with `+0.0` exactly like unfilled tree inputs in hardware.
///
/// An empty slice sums to positive zero.
///
/// # Examples
///
/// ```
/// use dfx_num::{F16, reduce::tree_sum};
///
/// let v: Vec<F16> = (1..=4).map(|i| F16::from_f32(i as f32)).collect();
/// assert_eq!(tree_sum(&v).to_f32(), 10.0);
/// ```
pub fn tree_sum(values: &[F16]) -> F16 {
    match values.len() {
        0 => F16::ZERO,
        1 => values[0],
        n if n <= 64 => {
            // Hardware-width fast path: reduce in a stack buffer.
            let mut buf = [0.0f32; 64];
            for (b, v) in buf.iter_mut().zip(values) {
                *b = v.to_f32();
            }
            F16::from_f32(tree_reduce_in_place(&mut buf[..n]))
        }
        _ => {
            let mut level: Vec<f32> = values.iter().map(|v| v.to_f32()).collect();
            F16::from_f32(tree_reduce_in_place(&mut level))
        }
    }
}

/// Pairwise reduction performed in place; an odd element at any level
/// pairs with an implicit +0 input, as unfilled tree ports do in hardware.
///
/// The levels hold widened halves and every adder rounds to half
/// precision, so the result is the FP16 tree's, bit for bit, without
/// narrowing and widening each partial sum.
fn tree_reduce_in_place(level: &mut [f32]) -> f32 {
    let mut len = level.len();
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let (a, b) = (level[2 * i], level[2 * i + 1]);
            level[i] = round_op_widened(a + b, a, b);
        }
        if len % 2 == 1 {
            // Odd element pairs with an implicit +0 input.
            let a = level[len - 1];
            level[half] = round_op_widened(a + 0.0, a, 0.0);
            len = half + 1;
        } else {
            len = half;
        }
    }
    level.first().copied().unwrap_or(0.0)
}

/// The `d`-input multiply-accumulate tree: elementwise FP16 products, then
/// [`tree_sum`]. This is one lane of the MFU for one tile row.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mac_tree(inputs: &[F16], weights: &[F16]) -> F16 {
    if inputs.len() <= 64 {
        let mut buf = [0.0f32; 64];
        for (b, x) in buf.iter_mut().zip(inputs) {
            *b = x.to_f32();
        }
        mac_tree_widened(&buf[..inputs.len()], weights)
    } else {
        let wide: Vec<f32> = inputs.iter().map(|x| x.to_f32()).collect();
        mac_tree_widened(&wide, weights)
    }
}

/// [`mac_tree`] on inputs already widened with [`F16::to_f32`], for a
/// caller that streams one input vector against many weight columns and
/// widens it once. Inputs that are not widened halves give meaningless
/// sums.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mac_tree_widened(inputs: &[f32], weights: &[F16]) -> F16 {
    assert_eq!(
        inputs.len(),
        weights.len(),
        "MAC tree operands must have equal length"
    );
    let product = |(&x, w): (&f32, &F16)| {
        let w = w.to_f32();
        round_op_widened(x * w, x, w)
    };
    let n = inputs.len();
    if n <= 64 {
        // Hardware width: products land in a stack buffer.
        let mut buf = [0.0f32; 64];
        for (b, p) in buf.iter_mut().zip(inputs.iter().zip(weights).map(product)) {
            *b = p;
        }
        F16::from_f32(tree_reduce_in_place(&mut buf[..n]))
    } else {
        let mut products: Vec<f32> = inputs.iter().zip(weights).map(product).collect();
        F16::from_f32(tree_reduce_in_place(&mut products))
    }
}

/// Sequential accumulation (the VPU `accum` instruction): left-to-right
/// with a single FP16 accumulator register.
pub fn accum(values: &[F16]) -> F16 {
    values.iter().copied().sum()
}

/// Parallel comparator tree returning the maximum value and the index of
/// its first occurrence (the SFU_M reduce-max unit, used for LM-head
/// argmax). NaN inputs lose against any number, mirroring `maxNum`.
///
/// Returns `None` for an empty slice.
pub fn reduce_max(values: &[F16]) -> Option<(usize, F16)> {
    let mut best: Option<(usize, F16)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        best = match best {
            None => Some((i, v)),
            Some((_, b)) if v > b => Some((i, v)),
            other => other,
        };
    }
    best.or_else(|| values.first().map(|&v| (0, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halves(xs: &[f32]) -> Vec<F16> {
        xs.iter().map(|&x| F16::from_f32(x)).collect()
    }

    /// The tree of [`F16`] operations the widened kernels replace.
    fn f16_tree(mut level: Vec<F16>) -> F16 {
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|p| p[0] + *p.get(1).unwrap_or(&F16::ZERO))
                .collect();
        }
        level.first().copied().unwrap_or(F16::ZERO)
    }

    #[test]
    fn widened_kernels_match_the_f16_operation_tree() {
        // Operands over the whole range: subnormals, overflow to ∞,
        // cancellation, NaN payloads and signed zeros.
        let pool: Vec<F16> = (0..=u16::MAX).step_by(37).map(F16::from_bits).collect();
        for (k, start) in (0..pool.len()).step_by(61).enumerate() {
            let n = [1usize, 2, 3, 7, 33, 64, 65, 130][k % 8];
            let x: Vec<F16> = pool.iter().cycle().skip(start).take(n).copied().collect();
            let w: Vec<F16> = pool
                .iter()
                .rev()
                .cycle()
                .skip(start)
                .take(n)
                .copied()
                .collect();
            assert_eq!(
                tree_sum(&x).to_bits(),
                f16_tree(x.clone()).to_bits(),
                "tree_sum {start} {n}"
            );
            let products: Vec<F16> = x.iter().zip(&w).map(|(&a, &b)| a * b).collect();
            assert_eq!(
                mac_tree(&x, &w).to_bits(),
                f16_tree(products).to_bits(),
                "mac_tree {start} {n}"
            );
        }
    }

    #[test]
    fn tree_sum_empty_and_singleton() {
        assert_eq!(tree_sum(&[]), F16::ZERO);
        assert_eq!(tree_sum(&[F16::from_f32(3.0)]).to_f32(), 3.0);
    }

    #[test]
    fn tree_sum_matches_exact_for_small_integers() {
        let v = halves(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(tree_sum(&v).to_f32(), 28.0);
    }

    #[test]
    fn tree_sum_is_more_accurate_than_sequential_on_adversarial_input() {
        // 1024 copies of 1.0: sequential accumulation stalls at 2048
        // (1 < ULP once the accumulator reaches 2048); the tree is exact.
        let v = vec![F16::ONE; 1024];
        assert_eq!(tree_sum(&v).to_f32(), 1024.0);
        assert_eq!(accum(&v).to_f32(), 1024.0); // still exact at 1024
        let v2 = vec![F16::ONE; 4096];
        assert_eq!(tree_sum(&v2).to_f32(), 4096.0);
        assert_eq!(
            accum(&v2).to_f32(),
            2048.0,
            "sequential FP16 accumulation saturates at 2048"
        );
    }

    #[test]
    fn mac_tree_matches_dot_product() {
        let x = halves(&[1.0, 2.0, 3.0, 4.0]);
        let w = halves(&[0.5, 0.25, 1.0, -1.0]);
        assert_eq!(
            mac_tree(&x, &w).to_f32(),
            1.0 * 0.5 + 2.0 * 0.25 + 3.0 - 4.0
        );
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mac_tree_rejects_mismatched_lengths() {
        let _ = mac_tree(&[F16::ONE], &[F16::ONE, F16::ONE]);
    }

    #[test]
    fn tree_sum_64_wide_matches_hardware_tile_width() {
        // d = 64 inputs, the MFU tree width.
        let v: Vec<F16> = (0..64).map(|i| F16::from_f32(i as f32 * 0.125)).collect();
        let exact: f64 = (0..64).map(|i| f64::from(i) * 0.125).sum();
        let got = tree_sum(&v).to_f64();
        assert!((got - exact).abs() <= 0.25, "got {got}, exact {exact}");
    }

    #[test]
    fn reduce_max_returns_first_index_of_max() {
        let v = halves(&[1.0, 7.0, 3.0, 7.0]);
        assert_eq!(reduce_max(&v), Some((1, F16::from_f32(7.0))));
        assert_eq!(reduce_max(&[]), None);
    }

    #[test]
    fn reduce_max_ignores_nan_and_handles_all_nan() {
        let v = vec![F16::NAN, F16::from_f32(2.0), F16::NAN];
        assert_eq!(reduce_max(&v).unwrap().0, 1);
        let all_nan = vec![F16::NAN, F16::NAN];
        // All-NaN input degrades to index 0 rather than losing the row.
        assert_eq!(reduce_max(&all_nan).unwrap().0, 0);
    }

    #[test]
    fn reduce_max_with_masked_scores() {
        // Masked positions hold -inf (closest representable to -inf); the
        // comparator must never pick them over a real score.
        let v = vec![F16::NEG_INFINITY, F16::from_f32(-3.0), F16::NEG_INFINITY];
        assert_eq!(reduce_max(&v), Some((1, F16::from_f32(-3.0))));
    }
}

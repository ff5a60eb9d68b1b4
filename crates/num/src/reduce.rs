//! Reduction arithmetic with DFX adder-tree semantics.
//!
//! The matrix function unit (paper §V-C) feeds `d`-element products into a
//! balanced binary adder tree of depth `log2(d)`; every adder is an
//! individually rounding FP16 operator. Summation order therefore matters:
//! a pairwise tree produces different (usually *more* accurate) results
//! than a sequential accumulator. The functional executor uses these
//! routines so simulated numerics match the hardware's dataflow.

use crate::f16::{round_step, F16};

/// Output lanes the MAC-tree kernel evaluates side by side: the paper's
/// `l`, the number of `d`-input MAC trees in the MPU (§V-B).
pub const LANES: usize = 16;

/// The MAC-tree fan-in `d`. Trees up to this wide use a stack table.
const TREE_WIDTH: usize = 64;

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
        n if n <= TREE_WIDTH => sum_lane(values, &mut [[0.0; 1]; TREE_WIDTH][..n]),
        n => sum_lane(values, &mut vec![[0.0; 1]; n]),
    }
}

/// [`tree_sum`] through the one-lane tree, in `table` (one row per value).
fn sum_lane(values: &[F16], table: &mut [[f32; 1]]) -> F16 {
    let fill = |table: &mut [[f32; 1]]| {
        for (t, v) in table.iter_mut().zip(values) {
            *t = [v.to_f32()];
        }
    };
    fill(table);
    let mut sum = tree_lanes::<1, false>(table);
    if !sum[0].is_finite() {
        fill(table);
        sum = tree_lanes::<1, true>(table);
    }
    F16::from_f32(sum[0])
}

/// The pairwise adder tree, over `L` lanes side by side and in place:
/// level by level `table[i] = table[2i] + table[2i + 1]` in every lane,
/// an odd element paired with an implicit +0 input as unfilled tree
/// ports are in hardware (so a −0 there becomes +0). The rows hold
/// widened halves and every adder rounds to half through [`round_step`],
/// so each lane is the FP16 tree's sum, bit for bit, without narrowing
/// and widening each partial sum. An empty table sums to +0.
///
/// Each adder row goes four lanes at a time, a vector register's worth
/// of `f32`: the rounding's constants and one group of operands then fit
/// the registers, where a whole 16-lane row at once spills.
fn tree_lanes<const L: usize, const EXACT: bool>(table: &mut [[f32; L]]) -> [f32; L] {
    const GROUP: usize = 4;
    let mut len = table.len();
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            for g in (0..L).step_by(GROUP) {
                let lanes = g..(g + GROUP).min(L);
                let (mut a, mut b) = ([0.0; GROUP], [0.0; GROUP]);
                a[..lanes.len()].copy_from_slice(&table[2 * i][lanes.clone()]);
                b[..lanes.len()].copy_from_slice(&table[2 * i + 1][lanes.clone()]);
                for (s, (a, b)) in table[i][lanes].iter_mut().zip(a.into_iter().zip(b)) {
                    *s = round_step::<EXACT>(a + b, a, b);
                }
            }
        }
        if len % 2 == 1 {
            let a = table[len - 1];
            for (s, a) in table[half].iter_mut().zip(a) {
                *s = round_step::<EXACT>(a + 0.0, a, 0.0);
            }
            len = half + 1;
        } else {
            len = half;
        }
    }
    table.first().copied().unwrap_or([0.0; L])
}

/// One pass of up to `L` MAC trees: lane `l` of row `r` gets the product
/// `inputs[r] · tile[r][l]`, and [`tree_lanes`] reduces the rows to their
/// roots.
fn mac_pass<const L: usize, const EXACT: bool>(
    inputs: &[f32],
    tile: &[[f32; L]],
    table: &mut [[f32; L]],
) -> [f32; L] {
    for ((t, &x), w) in table.iter_mut().zip(inputs).zip(tile) {
        for (t, &w) in t.iter_mut().zip(w) {
            *t = round_step::<EXACT>(x * w, x, w);
        }
    }
    tree_lanes::<L, EXACT>(table)
}

/// The NaN-hoisted MAC trees of the first `lanes` lanes: a pass that only
/// rounds, run again under the per-op NaN rule if one of their roots came
/// out non-finite, which any NaN on the way makes it (see
/// [`round_step`]). The other lanes come out +0.
fn mac_lanes<const L: usize>(
    inputs: &[f32],
    tile: &[[f32; L]],
    lanes: usize,
    table: &mut [[f32; L]],
) -> [F16; L] {
    let mut sums = mac_pass::<L, false>(inputs, tile, table);
    if sums[..lanes].iter().any(|s| !s.is_finite()) {
        sums = mac_pass::<L, true>(inputs, tile, table);
    }
    let mut out = [F16::ZERO; L];
    for (o, &s) in out.iter_mut().zip(&sums[..lanes]) {
        *o = F16::from_f32(s);
    }
    out
}

/// The `d`-input multiply-accumulate tree: elementwise FP16 products, then
/// [`tree_sum`]. This is one lane of the MFU for one tile row, and the
/// one-lane case of [`mac_tile`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mac_tree(inputs: &[F16], weights: &[F16]) -> F16 {
    assert_eq!(
        inputs.len(),
        weights.len(),
        "MAC tree operands must have equal length"
    );
    fn widen(values: &[F16]) -> impl Iterator<Item = f32> + '_ {
        values.iter().map(|v| v.to_f32())
    }
    let n = inputs.len();
    let [sum] = if n <= TREE_WIDTH {
        let (mut x, mut w) = ([0.0; TREE_WIDTH], [[0.0; 1]; TREE_WIDTH]);
        x.iter_mut().zip(widen(inputs)).for_each(|(x, v)| *x = v);
        w.iter_mut().zip(widen(weights)).for_each(|(w, v)| *w = [v]);
        mac_lanes(&x[..n], &w[..n], 1, &mut [[0.0; 1]; TREE_WIDTH][..n])
    } else {
        let x: Vec<f32> = widen(inputs).collect();
        let w: Vec<[f32; 1]> = widen(weights).map(|v| [v]).collect();
        mac_lanes(&x, &w, 1, &mut vec![[0.0; 1]; n])
    };
    sum
}

/// The MPU's `l` = [`LANES`] MAC trees on one `d × l` weight tile: lane
/// `l` of the result is the MAC tree of `inputs` with the tile's lane `l`,
/// `mac_tree(inputs, column l)` bit for bit, for the first `lanes` lanes;
/// the lanes past them come out +0 whatever they hold. `inputs` and the
/// tile are halves widened with [`F16::to_f32`] (other values give
/// meaningless sums), one tile row per input.
///
/// The lanes round each product and sum to half without the per-op NaN
/// rule; if any of the `lanes` sums comes out non-finite, as one that met
/// a NaN does, the call is evaluated again under the rule, so NaN
/// payloads come out exactly as the FP16 operations give them. `table`
/// is the caller's scratch lane table, so a caller that keeps it
/// allocates nothing per call.
///
/// # Panics
///
/// Panics if `lanes` exceeds [`LANES`] or the tile's row count differs
/// from the inputs'.
pub fn mac_tile(
    inputs: &[f32],
    tile: &[[f32; LANES]],
    lanes: usize,
    table: &mut Vec<[f32; LANES]>,
) -> [F16; LANES] {
    assert!(lanes <= LANES, "{lanes} lanes for {LANES} MAC trees");
    assert_eq!(
        inputs.len(),
        tile.len(),
        "MAC tree operands must have equal length"
    );
    table.resize(inputs.len(), [0.0; LANES]);
    mac_lanes(inputs, tile, lanes, table)
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

    /// Operand pools of ordinary numbers with every fifth element one of
    /// a class of special values: NaNs with payloads and both signs, ±∞,
    /// subnormals, and −0.
    fn special_pools() -> Vec<(&'static str, Vec<F16>)> {
        let classes: [(&str, &[u16]); 4] = [
            ("NaN", &[0x7c01, 0xfd55, 0x7e00, 0xffff, 0x7d23]),
            ("inf", &[0x7c00, 0xfc00]),
            ("subnormal", &[0x0001, 0x83ff, 0x0200, 0x8010]),
            ("-0", &[0x8000]),
        ];
        classes
            .iter()
            .map(|&(name, specials)| {
                let pool = (0..211)
                    .map(|i| match i % 5 {
                        0 => F16::from_bits(specials[i / 5 % specials.len()]),
                        _ => F16::from_f32(((i * 37) % 29) as f32 * 0.37 - 5.0),
                    })
                    .collect();
                (name, pool)
            })
            .collect()
    }

    /// Each lane of the tile kernel against its own column's `mac_tree`
    /// and the tree of [`F16`] operations, and the unused lanes +0. The
    /// tile's lanes past the columns hold `pad`, which must reach no
    /// output.
    fn check_lanes(x: &[F16], columns: &[&[F16]], pad: f32, what: &str) -> [F16; LANES] {
        let wide: Vec<f32> = x.iter().map(|v| v.to_f32()).collect();
        let tile: Vec<[f32; LANES]> = (0..x.len())
            .map(|r| {
                let mut row = [pad; LANES];
                for (w, column) in row.iter_mut().zip(columns) {
                    *w = column[r].to_f32();
                }
                row
            })
            .collect();
        let got = mac_tile(&wide, &tile, columns.len(), &mut Vec::new());
        for (c, column) in columns.iter().enumerate() {
            let products = x.iter().zip(*column).map(|(&a, &b)| a * b).collect();
            let want = f16_tree(products).to_bits();
            assert_eq!(got[c].to_bits(), want, "{what}: lane {c} vs the F16 tree");
            assert_eq!(mac_tree(x, column).to_bits(), want, "{what}: mac_tree {c}");
        }
        assert!(
            got[columns.len()..].iter().all(|h| h.to_bits() == 0),
            "{what}: unused lanes must be +0"
        );
        got
    }

    #[test]
    fn lane_trees_match_per_column_trees_on_special_operands() {
        for (name, pool) in special_pools() {
            for n in [1usize, 2, 3, 33, 63, 64] {
                for lanes in [1usize, 5, 15, 16] {
                    let take = |start: usize| -> Vec<F16> {
                        pool.iter().cycle().skip(start).take(n).copied().collect()
                    };
                    let x = take(lanes * 3);
                    let columns: Vec<Vec<F16>> = (0..lanes).map(|c| take(7 * c + 1)).collect();
                    let columns: Vec<&[F16]> = columns.iter().map(Vec::as_slice).collect();
                    // A partial last lane group whose padding meets the
                    // pool's NaN and ∞ inputs, or holds a NaN or ∞ itself:
                    // the real lanes' bits must not move.
                    for pad in [0.0, f32::NAN, f32::NEG_INFINITY] {
                        check_lanes(
                            &x,
                            &columns,
                            pad,
                            &format!("{name} pool, {n} rows, {lanes} lanes, pad {pad}"),
                        );
                    }
                }
            }
        }
        // All-zero products of both signs: an odd element's carry with
        // +0 turns −0 into +0, so the sign of a zero sum depends on the
        // tree's shape.
        for n in [1usize, 2, 3, 33, 63, 64] {
            let x = vec![F16::NEG_ZERO; n];
            let plus = vec![F16::ONE; n];
            let minus = vec![F16::NEG_ONE; n];
            let got = check_lanes(&x, &[&plus, &minus], 0.0, &format!("zeros, {n} rows"));
            if n == 3 {
                assert_eq!(got[0].to_bits(), 0x0000, "−0 carried as +0");
            }
        }
    }

    #[test]
    fn a_nan_in_one_lane_leaves_the_other_lanes_unchanged() {
        let number = |i: usize| F16::from_f32(((i * 13) % 23) as f32 * 0.25 - 2.5);
        for n in [3usize, 33, 64] {
            let x: Vec<F16> = (0..n).map(number).collect();
            let columns: Vec<Vec<F16>> = (0..LANES)
                .map(|c| (0..n).map(|r| number(r + 5 * c + 1)).collect())
                .collect();
            let refs: Vec<&[F16]> = columns.iter().map(Vec::as_slice).collect();
            // A signalling NaN weight with a payload, and 0 · ∞, each in
            // one lane only.
            for (lane, row, weight, input, want) in [
                (7, n / 2, F16::from_bits(0xfd23), None, 0xff23),
                (12, n - 1, F16::INFINITY, Some(F16::ZERO), 0xfe00),
            ] {
                let mut x = x.clone();
                if let Some(input) = input {
                    x[row] = input;
                }
                let clean = check_lanes(&x, &refs, 0.0, &format!("{n} rows, no NaN"));
                let mut columns = columns.clone();
                columns[lane][row] = weight;
                let refs: Vec<&[F16]> = columns.iter().map(Vec::as_slice).collect();
                let got = check_lanes(&x, &refs, 0.0, &format!("{n} rows, NaN in lane {lane}"));
                assert_eq!(got[lane].to_bits(), want, "lane {lane}'s NaN");
                for (c, (g, w)) in got.iter().zip(clean).enumerate() {
                    if c != lane {
                        assert_eq!(g.to_bits(), w.to_bits(), "lane {c} moved");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lanes for 16 MAC trees")]
    fn mac_trees_reject_more_columns_than_lanes() {
        let _ = mac_tile(&[1.0], &[[1.0; LANES]], LANES + 1, &mut Vec::new());
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

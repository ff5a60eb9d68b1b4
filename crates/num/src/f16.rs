//! IEEE 754 binary16 ("half precision") implemented from scratch.
//!
//! The DFX hardware computes exclusively in FP16 (1 sign, 5 exponent,
//! 10 mantissa bits — the paper, §VII-A, uses the Xilinx Floating-Point
//! Operator IP, which is IEEE 754 with round-to-nearest-even). This module
//! provides a bit-exact software model of that datapath.
//!
//! The IEEE operations `+ − × ÷` and [`F16::sqrt`] widen their operands to
//! `f32`, perform one native `f32` operation and round the result once to
//! binary16 with round-to-nearest, ties-to-even. That is correctly
//! rounded, not an approximation: binary32 carries 24 ≥ 2·11 + 2
//! significand bits, and for these five operations rounding first to such
//! a format and then to binary16 gives the same result as rounding the
//! exact value directly (Figueroa, 1995). The same argument with `f64`'s
//! 53 bits makes [`F16::from_f64`] of an `f64` sum, product, quotient or
//! square root correctly rounded too.
//!
//! When an operand is NaN, the result is the first NaN operand, quieted
//! (its payload and sign kept, quiet bit set). An invalid operation on
//! non-NaN operands (∞ − ∞, 0 × ∞, 0 ÷ 0, ∞ ÷ ∞, √ of a negative) returns
//! the quiet NaN `0xfe00` (sign set, zero payload), the binary16 image of
//! the x86 default NaN. Both rules are implemented in software, so no
//! result depends on the host's NaN conventions.
//!
//! The transcendental helpers in [`crate::sfu`] (`exp`, GELU,
//! `recip_sqrt`) round an `f64` result that is not itself correctly
//! rounded, so they may differ from the exact function by one unit in the
//! last place; this matches the "negligible approximation difference" the
//! paper reports between its FPGA operators and the GPU (§VII-A).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// The in-memory representation is the raw bit pattern, so a `Vec<F16>`
/// has exactly the layout the DFX DMA streams to and from HBM.
///
/// # Examples
///
/// ```
/// use dfx_num::F16;
///
/// let a = F16::from_f32(1.5);
/// let b = F16::from_f32(2.25);
/// assert_eq!((a * b).to_f32(), 3.375);
/// assert_eq!(F16::from_f32(65504.0), F16::MAX);
/// ```
#[derive(Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
#[serde(transparent)]
pub struct F16(u16);

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7c00;
const MANT_MASK: u16 = 0x03ff;
/// The binary16 quiet bit (top mantissa bit).
const QUIET_BIT: u16 = 0x0200;
/// Result of an invalid operation on non-NaN operands, widened: the
/// `f32` image of the half `0xfe00`.
const DEFAULT_NAN_WIDE: u32 = 0xffc0_0000;
/// `f32` bits of 2⁻¹⁴, the smallest normal half.
const F32_MIN_NORMAL_HALF: u32 = 113 << 23;
/// `f32` bits of 2¹⁶, the first magnitude that rounds to the half infinity
/// whatever its low bits.
const F32_HALF_OVERFLOW: u32 = 143 << 23;
/// `f32` bits of 65520, the midpoint between [`F16::MAX`] and 2¹⁶: the
/// first magnitude that rounds to the half infinity.
const F32_HALF_ROUNDS_TO_INF: u32 = 0x477f_f000;
/// Difference of the `f32` and binary16 exponent biases, in `f32` exponent
/// field units.
const REBIAS: u32 = (127 - 15) << 23;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xbc00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity. The DFX masking unit uses the closest
    /// representable value to −∞ for future-token masking; after softmax
    /// these positions become exactly zero.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7e00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Most negative finite value, −65504.
    pub const MIN: F16 = F16(0xfbff);
    /// Smallest positive normal value, 2⁻¹⁴.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2⁻²⁴.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon (difference between 1.0 and the next larger value), 2⁻¹⁰.
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates a half from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to half precision with round-to-nearest-even.
    ///
    /// NaNs stay NaN: the result keeps the sign and the top nine payload
    /// bits and sets the quiet bit, exactly as [`F16::from_f64`] does for
    /// the widened value.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let abs = bits & 0x7fff_ffff;
        // Every reading is computed and one selected, so the narrowing
        // has no data-dependent branch and loops of it vectorize.
        //
        // Normal: rebias the exponent, then round the 13 dropped mantissa
        // bits to nearest-even. Adding 0xfff carries exactly when they
        // exceed half an ulp; adding the kept lsb as well carries on the
        // tie when that lsb is odd. A carry out of the mantissa bumps the
        // exponent, up to 0x7c00 (∞) at the top.
        let odd = (abs >> 13) & 1;
        let normal = abs.wrapping_sub(REBIAS).wrapping_add(0x0fff + odd) >> 13;
        // Half subnormal or zero: in [0.5, 1) the f32 grid spacing is
        // 2⁻²⁴, the half subnormal step, so the single f32 rounding of
        // `|x| + 0.5` is the half rounding. The mantissa bits above 0.5
        // are the half's bits; a carry to 2⁻¹⁴ gives 0x0400, the smallest
        // normal, as it should.
        let subnormal = (f32::from_bits(abs) + 0.5)
            .to_bits()
            .wrapping_sub(0.5f32.to_bits());
        // Infinity, NaN, or a finite value of at least 2¹⁶, which is past
        // the midpoint between MAX and 2¹⁶ and so rounds to ∞.
        let nan = u32::from(QUIET_BIT) | ((abs >> 13) & 0x1ff);
        let special = u32::from(EXP_MASK) | if abs > 0x7f80_0000 { nan } else { 0 };
        let mag = if abs >= F32_HALF_OVERFLOW {
            special
        } else if abs < F32_MIN_NORMAL_HALF {
            subnormal
        } else {
            normal
        };
        F16((bits >> 16) as u16 & SIGN_MASK | mag as u16)
    }

    /// Converts an `f64` to half precision with round-to-nearest-even.
    ///
    /// This is the rounding point of the helpers that compute in `f64`
    /// (`exp`, GELU, `recip_sqrt`, weight casts). NaNs keep their sign and
    /// top nine payload bits and are quieted.
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        let narrow = value as f32;
        if f64::from(narrow) == value {
            // Exactly an `f32` (every weight cast from `f32`): rounding
            // that is the same as rounding the `f64`.
            Self::from_f32(narrow)
        } else {
            Self::round_f64(value)
        }
    }

    /// Rounds any `f64` to half precision, bit by bit.
    fn round_f64(value: f64) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 48) & 0x8000) as u16;
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & 0x000f_ffff_ffff_ffff;

        if exp == 0x7ff {
            // Infinity or NaN; preserve NaN-ness with a quiet payload.
            return if frac == 0 {
                F16(sign | EXP_MASK)
            } else {
                F16(sign | 0x7e00 | ((frac >> 42) as u16 & 0x1ff))
            };
        }

        // Unbiased exponent of the f64 value (subnormal f64 inputs are far
        // below half's subnormal range and round to zero below).
        let unbiased = exp - 1023;
        if exp == 0 && frac == 0 {
            return F16(sign);
        }
        if unbiased >= 16 {
            // Overflows half range even before rounding (2^16 > 65504... but
            // values in [65504+16, 65536) would need unbiased 15 handling;
            // unbiased >= 16 is always infinity after RNE).
            return F16(sign | EXP_MASK);
        }
        if unbiased < -25 {
            // Below half of the smallest subnormal: rounds to zero.
            // (Exactly 2^-25 ties to even => zero, handled by general path
            // when unbiased == -25.)
            return F16(sign);
        }

        // Build a fixed-point magnitude: significand with implicit bit,
        // aligned so that bit 42 is the half ULP position for normals.
        // 53-bit significand of the f64 value:
        let sig64 = if exp == 0 { frac } else { frac | (1u64 << 52) };

        // Target: half normal numbers have form m * 2^(e-10) with
        // 1024 <= m <= 2047, e in [-14, 15]. Compute the real exponent and
        // shift the 53-bit significand so the integer part is the half
        // mantissa (with implicit bit) and the fraction is the round bits.
        let mut e_half = unbiased; // exponent of the leading bit
        let mut shift = 42i64; // sig64 >> shift leaves 11 integer bits (1 implicit + 10)
        if e_half < -14 {
            // Subnormal target: shift further right.
            shift += -14 - e_half;
            e_half = -14;
        }
        if shift >= 64 {
            return F16(sign);
        }

        let integer = sig64 >> shift;
        let remainder = sig64 & ((1u64 << shift) - 1);
        let half_point = 1u64 << (shift - 1);

        let mut mant = integer;
        // Round to nearest, ties to even.
        if remainder > half_point || (remainder == half_point && (mant & 1) == 1) {
            mant += 1;
        }

        // Renormalize after rounding.
        if mant >= 2048 {
            mant >>= 1;
            e_half += 1;
        }
        if mant >= 1024 {
            // Normal number.
            if e_half > 15 {
                return F16(sign | EXP_MASK);
            }
            let exp_field = ((e_half + 15) as u16) << 10;
            F16(sign | exp_field | (mant as u16 & MANT_MASK))
        } else {
            // Subnormal (or zero) result.
            F16(sign | mant as u16)
        }
    }

    /// Widens to `f32`. This conversion is exact; NaNs are quieted.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = u32::from(self.0);
        let exp = h & u32::from(EXP_MASK);
        // Exponent and mantissa moved to their f32 positions.
        let mag = (h & 0x7fff) << 13;
        // All three readings are computed and one is selected by mask, so
        // the widening has no data-dependent branch.
        // Normal: rebias the exponent.
        let normal = mag + REBIAS;
        // Zero or subnormal m·2⁻²⁴: read the mantissa as the normal
        // 2⁻¹⁴·(1 + m/1024) and subtract 2⁻¹⁴, which is exact.
        let min_normal = f32::from_bits(F32_MIN_NORMAL_HALF);
        let subnormal = (f32::from_bits(mag + F32_MIN_NORMAL_HALF) - min_normal).to_bits();
        // Infinity or NaN: saturate the exponent and quiet a NaN.
        let nan = u32::from(h & u32::from(MANT_MASK) != 0);
        let special = mag | 0x7f80_0000 | nan << 22;
        let is_special = u32::from(exp == u32::from(EXP_MASK)).wrapping_neg();
        let is_subnormal = u32::from(exp == 0).wrapping_neg();
        let bits = (normal & !(is_special | is_subnormal))
            | (subnormal & is_subnormal)
            | (special & is_special);
        f32::from_bits((h & 0x8000) << 16 | bits)
    }

    /// Widens to `f64`. This conversion is exact.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Rounds `result`, the `f32` value of an IEEE operation on the
    /// widened halves `a` and `b` (`b == a` for unary operations), to half
    /// precision under the module's NaN rule.
    #[inline]
    fn round_op(result: f32, a: f32, b: f32) -> Self {
        // A NaN operand widens to a quiet f32 NaN with the same payload,
        // which narrows back to the quieted half.
        Self::from_f32(nan_rule(result, a, b))
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MANT_MASK) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & !SIGN_MASK) == EXP_MASK
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Returns `true` for subnormal values.
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & MANT_MASK) != 0
    }

    /// Returns `true` if the sign bit is set (including −0 and NaN with sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Returns `true` if the value is zero (either sign).
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & !SIGN_MASK) == 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// Fused semantics are *not* provided by the DFX MAC tree: each
    /// multiplier and adder rounds individually. `mul_add` here therefore
    /// rounds twice, exactly like the hardware (multiply DSP then adder DSP).
    #[inline]
    pub fn mul_add(self, mul: F16, add: F16) -> Self {
        (self * mul) + add
    }

    /// IEEE 754 `maxNum`: returns the larger value, preferring a number
    /// over NaN. Used by the reduce-max comparator tree in SFU_M.
    pub fn max(self, other: F16) -> Self {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// IEEE 754 `minNum` analogue of [`F16::max`].
    pub fn min(self, other: F16) -> Self {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Square root, correctly rounded.
    #[inline]
    pub fn sqrt(self) -> Self {
        let x = self.to_f32();
        F16::round_op(x.sqrt(), x, x)
    }

    /// Total order on the bit patterns suitable for sorting test vectors:
    /// −NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN.
    pub fn total_cmp(self, other: F16) -> Ordering {
        // Map each bit pattern to a monotone integer key: negative patterns
        // order by descending magnitude, below all non-negative patterns.
        fn key(x: F16) -> i32 {
            if x.0 & SIGN_MASK != 0 {
                -(i32::from(x.0 & !SIGN_MASK)) - 1
            } else {
                i32::from(x.0)
            }
        }
        key(self).cmp(&key(other))
    }
}

/// The NaN rule on widened operands: `result` if it is not NaN, else the
/// first NaN operand, else the widened default NaN. Written as selects,
/// without a data-dependent branch.
#[inline]
fn nan_rule(result: f32, a: f32, b: f32) -> f32 {
    let nan = if a.is_nan() {
        a
    } else if b.is_nan() {
        b
    } else {
        f32::from_bits(DEFAULT_NAN_WIDE)
    };
    if result.is_nan() {
        nan
    } else {
        result
    }
}

/// `F16::round_op(result, a, b).to_f32()` without the trip through 16
/// bits, for kernels that chain operations on widened halves (`a` and `b`
/// must be widened halves). The result is again a widened half.
#[inline]
pub(crate) fn round_op_widened(result: f32, a: f32, b: f32) -> f32 {
    if result.is_nan() {
        nan_rule(result, a, b)
    } else {
        round_widened(result)
    }
}

/// Rounds `result` to the half grid and returns it widened, the same
/// value as `F16::from_f32(result).to_f32()` for every non-NaN `result`.
/// A NaN maps to ∞ of its sign: the NaN rule needs the operands, so
/// kernels leave it to [`round_step`].
#[inline]
pub(crate) fn round_widened(result: f32) -> f32 {
    let bits = result.to_bits();
    let abs = bits & 0x7fff_ffff;
    // Adding 2¹³ times the power of two that starts `abs`'s binade moves
    // the f32 lsb to the half's lsb there, so the f32 addition rounds
    // `abs` to the half grid, nearest-even, and taking it off again is
    // exact. Below 2⁻¹⁴ the half grid is the fixed subnormal step 2⁻²⁴,
    // the lsb next to 2⁻¹ = 2¹³ · 2⁻¹⁴. Written as a float max, so it is
    // one instruction per lane.
    let binade = f32::from_bits(abs & 0x7f80_0000);
    let min_normal = f32::from_bits(F32_MIN_NORMAL_HALF);
    let binade = if binade > min_normal {
        binade
    } else {
        min_normal
    };
    let magic = f32::from_bits(binade.to_bits() + (13 << 23));
    let rounded = ((f32::from_bits(abs) + magic) - magic).to_bits();
    // From the midpoint between MAX and 2¹⁶ up, ∞ included, the result
    // is ∞.
    let mag = if abs >= F32_HALF_ROUNDS_TO_INF {
        0x7f80_0000
    } else {
        rounded
    };
    f32::from_bits(bits & 0x8000_0000 | mag)
}

/// One rounding step of a NaN-hoisted kernel, whose body is written once
/// over `EXACT`. With `EXACT` this is [`round_op_widened`]. Without it,
/// the step only rounds, and a NaN becomes ∞ (see [`round_widened`]).
/// The two agree on every non-NaN result. The kernels chain only
/// products of their inputs and sums, and a sum keeps an infinite
/// operand infinite or makes a NaN, which rounds to ∞ again; so a pass
/// without `EXACT` in which any result was NaN ends with a non-finite
/// output. A kernel that sees one reruns the pass with `EXACT`. The
/// per-op NaN rule thus leaves the lane loops, which then vectorize.
#[inline(always)]
pub(crate) fn round_step<const EXACT: bool>(result: f32, a: f32, b: f32) -> f32 {
    if EXACT {
        round_op_widened(result, a, b)
    } else {
        round_widened(result)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    #[inline]
    fn from(x: F16) -> f64 {
        x.to_f64()
    }
}

impl Add for F16 {
    type Output = F16;
    #[inline]
    fn add(self, rhs: F16) -> F16 {
        let (x, y) = (self.to_f32(), rhs.to_f32());
        F16::round_op(x + y, x, y)
    }
}

impl Sub for F16 {
    type Output = F16;
    #[inline]
    fn sub(self, rhs: F16) -> F16 {
        let (x, y) = (self.to_f32(), rhs.to_f32());
        F16::round_op(x - y, x, y)
    }
}

impl Mul for F16 {
    type Output = F16;
    #[inline]
    fn mul(self, rhs: F16) -> F16 {
        let (x, y) = (self.to_f32(), rhs.to_f32());
        F16::round_op(x * y, x, y)
    }
}

impl Div for F16 {
    type Output = F16;
    #[inline]
    fn div(self, rhs: F16) -> F16 {
        let (x, y) = (self.to_f32(), rhs.to_f32());
        F16::round_op(x / y, x, y)
    }
}

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

impl AddAssign for F16 {
    #[inline]
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl SubAssign for F16 {
    #[inline]
    fn sub_assign(&mut self, rhs: F16) {
        *self = *self - rhs;
    }
}

impl MulAssign for F16 {
    #[inline]
    fn mul_assign(&mut self, rhs: F16) {
        *self = *self * rhs;
    }
}

impl DivAssign for F16 {
    #[inline]
    fn div_assign(&mut self, rhs: F16) {
        *self = *self / rhs;
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &F16) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            return None;
        }
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl std::iter::Sum for F16 {
    /// Sequential left-to-right summation. The DFX adder tree uses pairwise
    /// reduction instead — see [`crate::reduce::tree_sum`] — so this is only
    /// appropriate for scalar accumulator semantics (the VPU `accum` op).
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widening this module used before the `f32` fast path: a
    /// branch per class of input, kept as an independent oracle.
    fn oracle_to_f64(h: F16) -> f64 {
        let sign = u32::from(h.0 >> 15);
        let exp = u32::from((h.0 & EXP_MASK) >> 10);
        let mant = u32::from(h.0 & MANT_MASK);
        let bits = match (exp, mant) {
            (0, 0) => sign << 31,
            (0, m) => {
                let shift = m.leading_zeros() - 22 + 1;
                let normalized = (m << shift) & 0x3ff;
                (sign << 31) | ((113 - shift) << 23) | (normalized << 13)
            }
            (0x1f, 0) => (sign << 31) | 0x7f80_0000,
            (0x1f, m) => (sign << 31) | 0x7f80_0000 | 0x0040_0000 | (m << 13),
            (e, m) => (sign << 31) | ((e + 127 - 15) << 23) | (m << 13),
        };
        f64::from(f32::from_bits(bits))
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Add,
        Sub,
        Mul,
        Div,
    }

    const OPS: [Op; 4] = [Op::Add, Op::Sub, Op::Mul, Op::Div];

    impl Op {
        fn fast(self, a: F16, b: F16) -> F16 {
            match self {
                Op::Add => a + b,
                Op::Sub => a - b,
                Op::Mul => a * b,
                Op::Div => a / b,
            }
        }

        /// The exact `f64` operation rounded once by the bitwise `f64`
        /// rounding.
        fn oracle(self, a: F16, b: F16) -> F16 {
            let (x, y) = (oracle_to_f64(a), oracle_to_f64(b));
            F16::round_f64(match self {
                Op::Add => x + y,
                Op::Sub => x - y,
                Op::Mul => x * y,
                Op::Div => x / y,
            })
        }
    }

    /// The documented NaN rule, written out independently of the code.
    fn expected_nan(a: F16, b: F16) -> u16 {
        if a.is_nan() {
            a.to_bits() | 0x0200
        } else if b.is_nan() {
            b.to_bits() | 0x0200
        } else {
            0xfe00
        }
    }

    /// Checks one operation on one operand pair against the oracle; NaN
    /// results are checked against the NaN rule, since the oracle's NaN
    /// bits follow the host's conventions. The widened rounding the
    /// kernels chain must give the same half, widened.
    fn check_op(op: Op, a: F16, b: F16) {
        let got = op.fast(a, b).to_bits();
        let (x, y) = (a.to_f32(), b.to_f32());
        let exact = match op {
            Op::Add => x + y,
            Op::Sub => x - y,
            Op::Mul => x * y,
            Op::Div => x / y,
        };
        assert_eq!(
            round_op_widened(exact, x, y).to_bits(),
            F16::from_bits(got).to_f32().to_bits(),
            "widened {op:?}({:#06x}, {:#06x})",
            a.to_bits(),
            b.to_bits()
        );
        let want = op.oracle(a, b);
        let want = if want.is_nan() {
            expected_nan(a, b)
        } else {
            want.to_bits()
        };
        assert_eq!(
            got,
            want,
            "{op:?}({:#06x}, {:#06x}) gave {got:#06x}, want {want:#06x}",
            a.to_bits(),
            b.to_bits()
        );
    }

    /// `from_f32` against the bitwise `f64` rounding of the widened value
    /// (which is also what makes `from_f64`'s exact-`f32` shortcut
    /// exact); NaN inputs against the documented rule.
    fn check_from_f32(bits: u32) {
        let x = f32::from_bits(bits);
        let got = F16::from_f32(x).to_bits();
        let want = if x.is_nan() {
            (bits >> 16) as u16 & 0x8000 | 0x7e00 | ((bits >> 13) as u16 & 0x1ff)
        } else {
            F16::round_f64(f64::from(x)).to_bits()
        };
        assert_eq!(got, want, "from_f32({bits:#010x})");
        if !x.is_nan() {
            check_round_widened(x);
        }
    }

    /// The kernels' rounding of a non-NaN `f32` against the narrowing
    /// and widening it stands for.
    fn check_round_widened(x: f32) {
        assert_eq!(
            round_widened(x).to_bits(),
            F16::from_f32(x).to_f32().to_bits(),
            "round_widened({:#010x})",
            x.to_bits()
        );
    }

    /// Bit patterns every sample must include: zeros, the subnormal and
    /// normal boundaries, one, MAX, infinities and NaNs, each with both
    /// signs.
    fn edge_patterns() -> Vec<u16> {
        let positive = [
            0x0000, 0x0001, 0x0002, 0x03ff, 0x0400, 0x0401, 0x3bff, 0x3c00, 0x3c01, 0x7bfe, 0x7bff,
            0x7c00, 0x7c01, 0x7dff, 0x7e00, 0x7fff,
        ];
        positive.iter().flat_map(|&p| [p, p | 0x8000]).collect()
    }

    #[test]
    fn binary_ops_match_the_f64_oracle_on_a_strided_sample() {
        let mut operands: Vec<u16> = (0..=u16::MAX).step_by(97).collect();
        operands.extend(edge_patterns());
        for &a in &operands {
            for b in (a % 89..=u16::MAX).step_by(89).chain(edge_patterns()) {
                let (a, b) = (F16::from_bits(a), F16::from_bits(b));
                for op in OPS {
                    check_op(op, a, b);
                }
            }
        }
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let want = F16::round_f64(oracle_to_f64(h).sqrt());
            let want = if want.is_nan() {
                expected_nan(h, h)
            } else {
                want.to_bits()
            };
            assert_eq!(h.sqrt().to_bits(), want, "sqrt({bits:#06x})");
        }
    }

    #[test]
    fn from_f32_matches_the_f64_narrowing_on_a_strided_sample() {
        for bits in (0..=u32::MAX).step_by(1021) {
            check_from_f32(bits);
        }
        // Every half, its f32 neighbours and the midpoints around it, so
        // each rounding boundary and tie is hit.
        for h in 0..=u16::MAX {
            let f = F16::from_bits(h).to_f32().to_bits();
            for bits in [
                f.wrapping_sub(1),
                f,
                f + 1,
                f + 0x1000,
                f + 0x0fff,
                f + 0x1001,
            ] {
                check_from_f32(bits);
            }
        }
    }

    #[test]
    fn nan_operands_propagate_the_first_nan_quieted() {
        let nans: Vec<F16> = (0..=u16::MAX)
            .map(F16::from_bits)
            .filter(|h| h.is_nan())
            .collect();
        assert_eq!(nans.len(), 2 * 1023);
        let numbers: Vec<F16> = (0..=u16::MAX)
            .map(F16::from_bits)
            .filter(|h| !h.is_nan())
            .collect();
        for op in OPS {
            // Every NaN × NaN pair.
            for &a in &nans {
                for &b in &nans {
                    assert_eq!(op.fast(a, b).to_bits(), a.to_bits() | 0x0200, "{op:?}");
                }
            }
            // Every NaN against a strided set of numbers and every number
            // against a strided set of NaNs, in both operand positions.
            // All NaN × number pairs are in the exhaustive oracle test.
            let pairs = nans
                .iter()
                .flat_map(|&n| numbers.iter().step_by(509).map(move |&x| (n, x)))
                .chain(
                    nans.iter()
                        .step_by(511)
                        .flat_map(|&n| numbers.iter().map(move |&x| (n, x))),
                );
            for (n, x) in pairs {
                let quiet = n.to_bits() | 0x0200;
                assert_eq!(op.fast(n, x).to_bits(), quiet, "{op:?}");
                assert_eq!(op.fast(x, n).to_bits(), quiet, "{op:?}");
            }
        }
        for &n in &nans {
            assert_eq!(n.sqrt().to_bits(), n.to_bits() | 0x0200);
        }
        // Invalid operations on numbers give the default NaN.
        for (a, b, op) in [
            (F16::INFINITY, F16::INFINITY, Op::Sub),
            (F16::ZERO, F16::NEG_INFINITY, Op::Mul),
            (F16::ZERO, F16::NEG_ZERO, Op::Div),
            (F16::INFINITY, F16::NEG_INFINITY, Op::Add),
        ] {
            assert_eq!(op.fast(a, b).to_bits(), 0xfe00, "{op:?}");
        }
        assert_eq!(F16::NEG_ONE.sqrt().to_bits(), 0xfe00);
    }

    /// Every operand pair of every binary operation, every half's square
    /// root and every `f32` input to `from_f32`, against the `f64`
    /// oracle. Minutes in release; run with
    /// `cargo test --release -p dfx-num -- --ignored`.
    #[test]
    #[ignore]
    fn fast_path_matches_the_f64_oracle_exhaustively() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for a in (t..=usize::from(u16::MAX)).step_by(threads) {
                        let a = F16::from_bits(a as u16);
                        for b in 0..=u16::MAX {
                            let b = F16::from_bits(b);
                            for op in OPS {
                                check_op(op, a, b);
                            }
                        }
                    }
                    for hi in (t..=usize::from(u16::MAX)).step_by(threads) {
                        for lo in 0..=u32::from(u16::MAX) {
                            check_from_f32((hi as u32) << 16 | lo);
                        }
                    }
                });
            }
        });
    }

    /// `round_widened` against `from_f32` then `to_f32` for every
    /// non-NaN `f32`: the proof that a hoisted kernel pass with finite
    /// outputs rounded every step exactly. About 20 s in release on two
    /// cores; run with `cargo test --release -p dfx-num --lib --
    /// --ignored --exact
    /// f16::tests::round_widened_matches_the_half_narrowing_exhaustively`.
    #[test]
    #[ignore]
    fn round_widened_matches_the_half_narrowing_exhaustively() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for hi in (t..=usize::from(u16::MAX)).step_by(threads) {
                        for lo in 0..=u32::from(u16::MAX) {
                            let x = f32::from_bits((hi as u32) << 16 | lo);
                            if !x.is_nan() {
                                check_round_widened(x);
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn constants_match_ieee_bit_patterns() {
        assert_eq!(F16::ONE.to_bits(), 0x3c00);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert_eq!(F16::MIN_SUBNORMAL.to_f32(), 5.960_464_5e-8);
        assert_eq!(F16::EPSILON.to_f32(), 0.000_976_562_5);
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::INFINITY.is_nan());
    }

    #[test]
    fn roundtrip_is_identity_for_all_bit_patterns() {
        // Exhaustive: every f16 widens to f32 and narrows back to the same
        // bits (NaNs must stay NaN; payload need not be preserved exactly,
        // but our implementation preserves the top payload bits).
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x} lost NaN-ness");
            } else {
                assert_eq!(back.to_bits(), bits, "bits {bits:#06x} failed roundtrip");
            }
        }
    }

    #[test]
    fn widening_matches_reference_for_all_patterns() {
        // Cross-check our bit-level widening against an independent
        // computation via powers of two.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let sign = if bits & 0x8000 != 0 { -1.0f64 } else { 1.0 };
            let exp = (bits >> 10) & 0x1f;
            let mant = f64::from(bits & 0x3ff);
            let expected = match exp {
                0 => sign * mant * 2f64.powi(-24),
                0x1f => sign * f64::INFINITY,
                e => sign * (1.0 + mant / 1024.0) * 2f64.powi(i32::from(e) - 15),
            };
            assert_eq!(h.to_f64(), expected, "bits {bits:#06x}");
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + eps/2 is a tie: rounds to even (1.0).
        let tie = 1.0 + (F16::EPSILON.to_f64() / 2.0);
        assert_eq!(F16::from_f64(tie), F16::ONE);
        // 1 + 1.5*eps is a tie between 1+eps and 1+2eps: rounds to 1+2eps (even).
        let tie2 = 1.0 + 1.5 * F16::EPSILON.to_f64();
        assert_eq!(
            F16::from_f64(tie2).to_bits(),
            F16::ONE.to_bits() + 2,
            "tie must round to even mantissa"
        );
        // Just above the tie rounds up.
        assert_eq!(F16::from_f64(tie + 1e-9).to_bits(), F16::ONE.to_bits() + 1);
    }

    #[test]
    fn overflow_saturates_to_infinity_per_rne() {
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        // Values below the midpoint to 65536 round to MAX...
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
        // ...the midpoint and beyond round to infinity.
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(1e9), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e9), F16::NEG_INFINITY);
    }

    #[test]
    fn underflow_rounds_to_zero_or_subnormal() {
        let half_min_sub = F16::MIN_SUBNORMAL.to_f64() / 2.0;
        // Exactly half the smallest subnormal ties to even => zero.
        assert!(F16::from_f64(half_min_sub).is_zero());
        // Slightly above rounds up to the smallest subnormal.
        assert_eq!(F16::from_f64(half_min_sub * 1.0001), F16::MIN_SUBNORMAL);
        // Sign is preserved on underflow.
        assert!(F16::from_f64(-half_min_sub).is_sign_negative());
    }

    #[test]
    fn arithmetic_basics() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(0.25);
        assert_eq!((a + b).to_f32(), 1.75);
        assert_eq!((a - b).to_f32(), 1.25);
        assert_eq!((a * b).to_f32(), 0.375);
        assert_eq!((a / b).to_f32(), 6.0);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn addition_is_correctly_rounded_vs_f64() {
        // Catastrophic-looking case: 2048 + 1 is not representable
        // (ULP at 2048 is 2); RNE gives 2048.
        let big = F16::from_f32(2048.0);
        let one = F16::ONE;
        assert_eq!(big + one, big);
        // 2048 + 3 = 2051 is a tie between 2050 (odd mantissa) and 2052
        // (even mantissa); RNE picks 2052.
        let three = F16::from_f32(3.0);
        assert_eq!((big + three).to_f32(), 2052.0);
    }

    #[test]
    fn special_value_propagation() {
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::INFINITY - F16::INFINITY).is_nan());
        assert_eq!(F16::INFINITY + F16::ONE, F16::INFINITY);
        assert!((F16::ZERO / F16::ZERO).is_nan());
        assert_eq!(F16::ONE / F16::ZERO, F16::INFINITY);
        assert_eq!(F16::NEG_ONE / F16::ZERO, F16::NEG_INFINITY);
    }

    #[test]
    fn signed_zero_semantics() {
        assert_eq!(F16::ZERO, F16::NEG_ZERO);
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!((F16::NEG_ZERO + F16::ZERO).is_zero());
    }

    #[test]
    fn max_min_prefer_numbers_over_nan() {
        assert_eq!(F16::NAN.max(F16::ONE), F16::ONE);
        assert_eq!(F16::ONE.max(F16::NAN), F16::ONE);
        assert_eq!(F16::ONE.max(F16::NEG_ONE), F16::ONE);
        assert_eq!(F16::ONE.min(F16::NEG_ONE), F16::NEG_ONE);
        assert_eq!(
            F16::NEG_INFINITY.max(F16::MIN),
            F16::MIN,
            "masked -inf loses against any finite score"
        );
    }

    #[test]
    fn total_cmp_orders_negative_before_positive() {
        let mut v = [
            F16::ONE,
            F16::NEG_INFINITY,
            F16::ZERO,
            F16::NEG_ONE,
            F16::INFINITY,
            F16::NEG_ZERO,
        ];
        v.sort_by(|a, b| a.total_cmp(*b));
        let floats: Vec<f32> = v.iter().map(|x| x.to_f32()).collect();
        assert_eq!(
            floats,
            vec![f32::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, f32::INFINITY]
        );
    }

    #[test]
    fn narrowing_from_f32_matches_narrowing_via_f64_exhaustively() {
        // f32 -> f16 must equal f64 -> f16 for every f32 obtained by
        // widening a half and nudging by one f32 ULP (regression guard on
        // the shared rounding path).
        for bits in (0..=u16::MAX).step_by(7) {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let f = h.to_f32();
            for delta in [-1i32, 0, 1] {
                let nudged = f32::from_bits((f.to_bits() as i32 + delta) as u32);
                if nudged.is_nan() {
                    continue;
                }
                assert_eq!(
                    F16::from_f32(nudged).to_bits(),
                    F16::from_f64(f64::from(nudged)).to_bits(),
                    "f32 {nudged} (from half bits {bits:#06x} delta {delta})"
                );
            }
        }
    }
}

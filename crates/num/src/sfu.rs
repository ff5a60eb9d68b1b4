//! Special-function arithmetic mirroring the DFX SFUs (paper §V-C).
//!
//! The DFX core implements nonlinear functions with a mix of DSP operators,
//! combinational logic and lookup tables:
//!
//! - **GELU** (SFU_M): a 2048-entry lookup table over the input range
//!   [−8, 8] with linear interpolation between samples. The paper reports a
//!   mean-squared error of 0 at half precision over that range; outside the
//!   range the function saturates (GELU(x) ≈ 0 for x ≤ −8, GELU(x) ≈ x for
//!   x ≥ 8).
//! - **recip** (SFU_V): an IEEE division `1 ÷ x`, correctly rounded like
//!   every [`F16`] division.
//! - **exp** (VFU, 4-cycle DSP pipeline) and **recip_sqrt** (SFU_V): the
//!   `f64` value rounded once to binary16. Neither `f64` value is itself
//!   correctly rounded (`recip_sqrt` rounds twice in `f64`, at the square
//!   root and at the division), so in rare near-tie cases the result can
//!   differ from the correctly rounded one by one unit in the last place.
//!
//! [`SfuMath`] bundles all of them so the functional executor carries one
//! immutable description of the nonlinear datapath.

use crate::f16::F16;

/// Number of samples in the hardware GELU lookup table.
pub const GELU_LUT_SAMPLES: usize = 2048;
/// Lower bound of the GELU table's input range.
pub const GELU_LUT_LO: f64 = -8.0;
/// Upper bound of the GELU table's input range.
pub const GELU_LUT_HI: f64 = 8.0;

/// The exact GELU with the tanh approximation used by GPT-2 (and by the
/// paper's equation in §V-C):
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
pub fn gelu_exact(x: f64) -> f64 {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
}

/// The DFX GELU lookup table: 2048 uniformly spaced samples over [−8, 8]
/// with linear interpolation, evaluated at half precision.
///
/// # Examples
///
/// ```
/// use dfx_num::{F16, GeluLut};
///
/// let lut = GeluLut::new();
/// let y = lut.eval(F16::from_f32(1.0));
/// // GELU(1) ≈ 0.8412
/// assert!((y.to_f32() - 0.8412).abs() < 1e-3);
/// ```
#[derive(Clone)]
pub struct GeluLut {
    samples: Vec<f64>,
    step: f64,
}

impl GeluLut {
    /// Builds the table by sampling the exact tanh-form GELU, as the
    /// hardware's table is generated offline.
    pub fn new() -> Self {
        let step = (GELU_LUT_HI - GELU_LUT_LO) / (GELU_LUT_SAMPLES as f64 - 1.0);
        let samples = (0..GELU_LUT_SAMPLES)
            .map(|i| gelu_exact(GELU_LUT_LO + step * i as f64))
            .collect();
        GeluLut { samples, step }
    }

    /// Evaluates GELU on one half-precision input.
    ///
    /// Inputs outside [−8, 8] follow the saturation behaviour of the
    /// hardware: the slope of GELU converges to 0 on the left and 1 on the
    /// right at that range (paper §V-C), so the unit passes `0` and `x`
    /// through respectively. NaN propagates.
    pub fn eval(&self, x: F16) -> F16 {
        if x.is_nan() {
            return x;
        }
        let xf = x.to_f64();
        if xf <= GELU_LUT_LO {
            return F16::ZERO;
        }
        if xf >= GELU_LUT_HI {
            return x;
        }
        let pos = (xf - GELU_LUT_LO) / self.step;
        let idx = (pos.floor() as usize).min(GELU_LUT_SAMPLES - 2);
        let frac = pos - idx as f64;
        let y = self.samples[idx] * (1.0 - frac) + self.samples[idx + 1] * frac;
        F16::from_f64(y)
    }

    /// Mean-squared error of the table (including interpolation) against
    /// the exact GELU, measured at every representable half in [−8, 8] and
    /// quantised to half precision — the metric the paper reports as 0.
    pub fn mse_at_half_precision(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() || !h.is_finite() {
                continue;
            }
            let x = h.to_f64();
            if !(GELU_LUT_LO..=GELU_LUT_HI).contains(&x) {
                continue;
            }
            let approx = self.eval(h).to_f64();
            let exact = F16::from_f64(gelu_exact(x)).to_f64();
            let err = approx - exact;
            sum += err * err;
            n += 1;
        }
        sum / f64::from(n)
    }
}

impl Default for GeluLut {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for GeluLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeluLut")
            .field("samples", &self.samples.len())
            .field("range", &(GELU_LUT_LO, GELU_LUT_HI))
            .finish()
    }
}

/// Exponential, as computed by the VFU's DSP pipeline: the `f64`
/// exponential rounded to half precision (see the module docs for the
/// rare one-ulp near-tie difference).
#[inline]
pub fn exp(x: F16) -> F16 {
    F16::from_f64(x.to_f64().exp())
}

/// Reciprocal (`recip` vector instruction): used to replace division in
/// Softmax (paper §IV-C). Correctly rounded: this is the [`F16`] division
/// `1 ÷ x`.
#[inline]
pub fn recip(x: F16) -> F16 {
    F16::ONE / x
}

/// Reciprocal square root (`recip_sqrt`): used for 1/σ in LayerNorm,
/// computed as `1 / √x` in `f64` and rounded to half precision.
#[inline]
pub fn recip_sqrt(x: F16) -> F16 {
    F16::from_f64(1.0 / x.to_f64().sqrt())
}

/// The complete nonlinear datapath of one DFX core.
///
/// Owning this as a value (rather than using free functions for GELU)
/// mirrors the hardware, where the GELU table is a physical BRAM resource
/// of the core, and keeps the functional executor deterministic.
#[derive(Debug, Clone, Default)]
pub struct SfuMath {
    gelu: GeluLut,
}

impl SfuMath {
    /// Creates the datapath, building the GELU table.
    pub fn new() -> Self {
        Self::default()
    }

    /// GELU through the lookup table.
    #[inline]
    pub fn gelu(&self, x: F16) -> F16 {
        self.gelu.eval(x)
    }

    /// Exponential.
    #[inline]
    pub fn exp(&self, x: F16) -> F16 {
        exp(x)
    }

    /// Reciprocal.
    #[inline]
    pub fn recip(&self, x: F16) -> F16 {
        recip(x)
    }

    /// Reciprocal square root.
    #[inline]
    pub fn recip_sqrt(&self, x: F16) -> F16 {
        recip_sqrt(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_known_values() {
        let lut = GeluLut::new();
        let cases = [
            (0.0f32, 0.0f64),
            (1.0, 0.841_192),
            (-1.0, -0.158_808),
            (2.0, 1.954_597),
            (-2.0, -0.045_402),
        ];
        for (x, want) in cases {
            let got = lut.eval(F16::from_f32(x)).to_f64();
            assert!(
                (got - want).abs() < 2e-3,
                "gelu({x}) = {got}, want ≈ {want}"
            );
        }
    }

    #[test]
    fn gelu_saturates_outside_range() {
        let lut = GeluLut::new();
        assert_eq!(lut.eval(F16::from_f32(-9.0)), F16::ZERO);
        assert_eq!(lut.eval(F16::from_f32(-100.0)), F16::ZERO);
        let x = F16::from_f32(12.5);
        assert_eq!(lut.eval(x), x);
        assert_eq!(lut.eval(F16::INFINITY), F16::INFINITY);
        assert!(lut.eval(F16::NAN).is_nan());
    }

    #[test]
    fn gelu_lut_mse_is_zero_at_half_precision_scale() {
        // The paper: "We sample 2048 inputs that achieve a mean squared
        // error of 0 in half-precision floating-point". At f16 granularity
        // the MSE must be below the squared ULP around |y| <= 8.
        let lut = GeluLut::new();
        let mse = lut.mse_at_half_precision();
        assert!(mse < 1e-5, "GELU LUT MSE too high: {mse}");
    }

    #[test]
    fn gelu_is_monotone_on_sampled_grid() {
        // GELU is monotone above ~ -0.75; the LUT+interp must preserve
        // monotonicity there (hardware property used for argmax stability).
        let lut = GeluLut::new();
        let mut prev = lut.eval(F16::from_f32(-0.7));
        let mut x = -0.7f32;
        while x < 8.2 {
            let y = lut.eval(F16::from_f32(x));
            assert!(
                y >= prev || (y - prev).abs() <= F16::EPSILON,
                "non-monotone at {x}"
            );
            prev = y;
            x += 0.013;
        }
    }

    #[test]
    fn exp_recip_rsqrt_match_f64_rounded() {
        for x in [0.5f32, 1.0, 2.0, 3.5, 7.9, 0.0625] {
            // Compare against the f64 function of the *quantised* input —
            // the unit sees the half-precision operand, not the literal.
            let h = F16::from_f32(x);
            let hx = h.to_f64();
            assert_eq!(exp(h), F16::from_f64(hx.exp()));
            assert_eq!(recip(h), F16::from_f64(1.0 / hx));
            assert_eq!(recip_sqrt(h), F16::from_f64(1.0 / hx.sqrt()));
        }
    }

    #[test]
    fn exp_of_masked_neg_infinity_is_zero() {
        // The masking path relies on exp(-inf) == 0 so masked attention
        // scores vanish after softmax.
        assert_eq!(exp(F16::NEG_INFINITY), F16::ZERO);
        assert_eq!(exp(F16::MIN), F16::ZERO, "exp(-65504) underflows to zero");
    }

    #[test]
    fn recip_handles_edge_cases() {
        assert_eq!(recip(F16::ZERO), F16::INFINITY);
        assert_eq!(recip(F16::INFINITY), F16::ZERO);
        assert!(recip_sqrt(F16::from_f32(-1.0)).is_nan());
    }
}

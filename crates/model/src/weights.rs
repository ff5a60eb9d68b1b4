//! Synthetic deterministic GPT-2 weights.
//!
//! We do not have the pretrained OpenAI/Megatron checkpoints (and latency,
//! throughput, energy and cost are weight-value independent). Weights are
//! generated deterministically from the config seed with the GPT-2
//! initialisation scale (σ ≈ 0.02, output projections scaled by 1/√(2N)),
//! so the reference model, the partitioner and the DFX functional executor
//! all see bit-identical parameters.

use crate::config::GptConfig;
use crate::tensor::Matrix;
use dfx_num::Scalar;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weights of one decoder layer.
///
/// All projection matrices use the `Conv1D` convention: shape
/// `(in_dim, out_dim)`, applied as `y = x·W + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights<T> {
    /// Pre-attention LayerNorm scale (γ_l1).
    pub ln1_gamma: Vec<T>,
    /// Pre-attention LayerNorm shift (β_l1).
    pub ln1_beta: Vec<T>,
    /// Query projection, `(emb, emb)`.
    pub w_q: Matrix<T>,
    /// Query bias.
    pub b_q: Vec<T>,
    /// Key projection, `(emb, emb)`.
    pub w_k: Matrix<T>,
    /// Key bias.
    pub b_k: Vec<T>,
    /// Value projection, `(emb, emb)`.
    pub w_v: Matrix<T>,
    /// Value bias.
    pub b_v: Vec<T>,
    /// Attention output projection (`W_a`), `(emb, emb)`.
    pub w_attn_proj: Matrix<T>,
    /// Attention output bias.
    pub b_attn_proj: Vec<T>,
    /// Pre-FFN LayerNorm scale (γ_l2).
    pub ln2_gamma: Vec<T>,
    /// Pre-FFN LayerNorm shift (β_l2).
    pub ln2_beta: Vec<T>,
    /// FFN up projection (`W_f1`), `(emb, 4·emb)`.
    pub w_ffn1: Matrix<T>,
    /// FFN up bias.
    pub b_ffn1: Vec<T>,
    /// FFN down projection (`W_f2`), `(4·emb, emb)`.
    pub w_ffn2: Matrix<T>,
    /// FFN down bias.
    pub b_ffn2: Vec<T>,
}

impl<T: Scalar> LayerWeights<T> {
    /// Converts the layer to another precision with [`Scalar::cast`].
    pub fn cast<U: Scalar>(&self) -> LayerWeights<U> {
        fn cv<T: Scalar, U: Scalar>(v: &[T]) -> Vec<U> {
            v.iter().map(|&x| x.cast()).collect()
        }
        LayerWeights {
            ln1_gamma: cv(&self.ln1_gamma),
            ln1_beta: cv(&self.ln1_beta),
            w_q: self.w_q.cast(),
            b_q: cv(&self.b_q),
            w_k: self.w_k.cast(),
            b_k: cv(&self.b_k),
            w_v: self.w_v.cast(),
            b_v: cv(&self.b_v),
            w_attn_proj: self.w_attn_proj.cast(),
            b_attn_proj: cv(&self.b_attn_proj),
            ln2_gamma: cv(&self.ln2_gamma),
            ln2_beta: cv(&self.ln2_beta),
            w_ffn1: self.w_ffn1.cast(),
            b_ffn1: cv(&self.b_ffn1),
            w_ffn2: self.w_ffn2.cast(),
            b_ffn2: cv(&self.b_ffn2),
        }
    }
}

/// Complete GPT-2 parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct GptWeights<T> {
    /// The configuration these weights were generated for.
    pub config: GptConfig,
    /// Word token embedding, `(vocab, emb)`. Also used (transposed) by the
    /// LM head.
    pub wte: Matrix<T>,
    /// Word position embedding, `(max_seq, emb)`.
    pub wpe: Matrix<T>,
    /// Decoder layers.
    pub layers: Vec<LayerWeights<T>>,
    /// Final LayerNorm scale (GPT-2's `ln_f`; the paper's Fig 2 omits it
    /// but the released models include it).
    pub ln_f_gamma: Vec<T>,
    /// Final LayerNorm shift.
    pub ln_f_beta: Vec<T>,
}

impl GptWeights<f32> {
    /// Generates deterministic synthetic weights for `config`.
    ///
    /// Generation draws from a uniform distribution with the standard
    /// deviation of the GPT-2 initialiser (0.02; residual-output
    /// projections scaled by 1/√(2N)). LayerNorm scales start at 1, shifts
    /// at 0, biases at 0 — exactly the published initialisation, so
    /// activations stay in a realistic range for FP16.
    ///
    /// Intended for test-scale configs; a 1.5B-parameter call allocates
    /// ~6 GB of `f32` and is rejected.
    ///
    /// # Panics
    ///
    /// Panics if the config exceeds 100M parameters (use the timing engine
    /// for full-scale models; it does not need materialised weights).
    pub fn synthetic(config: &GptConfig) -> Self {
        assert!(
            config.num_parameters() <= 100_000_000,
            "synthetic weights are for test-scale configs; {} has {} parameters",
            config.name,
            config.num_parameters()
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let e = config.embedding_dim;
        let f = config.ffn_dim;
        let sigma = 0.02f32;
        // Residual-path output projections are scaled down as in GPT-2.
        let resid_sigma = sigma / (2.0 * config.num_layers as f32).sqrt();

        // Uniform with matching standard deviation: U(-a, a), a = σ√3.
        let uniform = |rng: &mut StdRng, sigma: f32| -> f32 {
            let a = sigma * 3f32.sqrt();
            rng.gen_range(-a..a)
        };

        let matrix = |rng: &mut StdRng, rows: usize, cols: usize, s: f32| {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    m[(r, c)] = uniform(rng, s);
                }
            }
            m
        };

        let wte = matrix(&mut rng, config.vocab_size, e, sigma);
        let wpe = matrix(&mut rng, config.max_seq_len, e, 0.01);

        let layers = (0..config.num_layers)
            .map(|_| LayerWeights {
                ln1_gamma: vec![1.0; e],
                ln1_beta: vec![0.0; e],
                w_q: matrix(&mut rng, e, e, sigma),
                b_q: vec![0.0; e],
                w_k: matrix(&mut rng, e, e, sigma),
                b_k: vec![0.0; e],
                w_v: matrix(&mut rng, e, e, sigma),
                b_v: vec![0.0; e],
                w_attn_proj: matrix(&mut rng, e, e, resid_sigma),
                b_attn_proj: vec![0.0; e],
                ln2_gamma: vec![1.0; e],
                ln2_beta: vec![0.0; e],
                w_ffn1: matrix(&mut rng, e, f, sigma),
                b_ffn1: vec![0.0; f],
                w_ffn2: matrix(&mut rng, f, e, resid_sigma),
                b_ffn2: vec![0.0; e],
            })
            .collect();

        GptWeights {
            config: config.clone(),
            wte,
            wpe,
            layers,
            ln_f_gamma: vec![1.0; e],
            ln_f_beta: vec![0.0; e],
        }
    }
}

impl<T: Scalar> GptWeights<T> {
    /// Converts all weights to another precision with [`Scalar::cast`].
    pub fn cast<U: Scalar>(&self) -> GptWeights<U> {
        fn cv<T: Scalar, U: Scalar>(v: &[T]) -> Vec<U> {
            v.iter().map(|&x| x.cast()).collect()
        }
        GptWeights {
            config: self.config.clone(),
            wte: self.wte.cast(),
            wpe: self.wpe.cast(),
            layers: self.layers.iter().map(LayerWeights::cast).collect(),
            ln_f_gamma: cv(&self.ln_f_gamma),
            ln_f_beta: cv(&self.ln_f_beta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_num::F16;

    #[test]
    fn synthetic_weights_are_deterministic() {
        let cfg = GptConfig::tiny();
        let a = GptWeights::synthetic(&cfg);
        let b = GptWeights::synthetic(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let cfg = GptConfig::tiny();
        let mut cfg2 = cfg.clone();
        cfg2.seed ^= 0xdead_beef;
        let a = GptWeights::synthetic(&cfg);
        let b = GptWeights::synthetic(&cfg2);
        assert_ne!(a.wte, b.wte);
    }

    #[test]
    fn shapes_match_config() {
        let cfg = GptConfig::small();
        let w = GptWeights::synthetic(&cfg);
        assert_eq!(w.wte.shape(), (cfg.vocab_size, cfg.embedding_dim));
        assert_eq!(w.wpe.shape(), (cfg.max_seq_len, cfg.embedding_dim));
        assert_eq!(w.layers.len(), cfg.num_layers);
        let l = &w.layers[0];
        assert_eq!(l.w_q.shape(), (cfg.embedding_dim, cfg.embedding_dim));
        assert_eq!(l.w_ffn1.shape(), (cfg.embedding_dim, cfg.ffn_dim));
        assert_eq!(l.w_ffn2.shape(), (cfg.ffn_dim, cfg.embedding_dim));
        assert_eq!(l.b_ffn1.len(), cfg.ffn_dim);
    }

    #[test]
    fn weight_scale_is_fp16_friendly() {
        let cfg = GptConfig::tiny();
        let w = GptWeights::synthetic(&cfg);
        let max = w.wte.as_slice().iter().fold(0f32, |m, &x| m.max(x.abs()));
        assert!(max < 0.05, "init scale too large: {max}");
        // Casting to F16 must not lose any value to zero or infinity.
        let h: GptWeights<F16> = w.cast();
        assert!(h.wte.as_slice().iter().all(|x| x.is_finite()));
    }

    /// Every parameter of `w`, in field order.
    fn all_values<T: Scalar>(w: &GptWeights<T>) -> Vec<T> {
        let mut all = [w.wte.as_slice(), w.wpe.as_slice()].concat();
        for l in &w.layers {
            for v in [
                &l.ln1_gamma[..],
                &l.ln1_beta,
                l.w_q.as_slice(),
                &l.b_q,
                l.w_k.as_slice(),
                &l.b_k,
                l.w_v.as_slice(),
                &l.b_v,
                l.w_attn_proj.as_slice(),
                &l.b_attn_proj,
                &l.ln2_gamma,
                &l.ln2_beta,
                l.w_ffn1.as_slice(),
                &l.b_ffn1,
                l.w_ffn2.as_slice(),
                &l.b_ffn2,
            ] {
                all.extend_from_slice(v);
            }
        }
        all.extend_from_slice(&w.ln_f_gamma);
        all.extend_from_slice(&w.ln_f_beta);
        all
    }

    #[test]
    fn casting_synthetic_weights_equals_the_round_trip_through_f64() {
        for cfg in [GptConfig::tiny(), GptConfig::small()] {
            let w = GptWeights::synthetic(&cfg);
            let want: Vec<u16> = all_values(&w)
                .into_iter()
                .map(|x| F16::from_f64(f64::from(x)).to_bits())
                .collect();
            let got: Vec<u16> = all_values(&w.cast::<F16>())
                .into_iter()
                .map(F16::to_bits)
                .collect();
            assert_eq!(got.len(), cfg.num_parameters() as usize, "{}", cfg.name);
            assert!(got == want, "{}: a cast weight moved", cfg.name);
        }
    }

    #[test]
    #[should_panic(expected = "test-scale")]
    fn full_scale_synthetic_is_rejected() {
        let _ = GptWeights::synthetic(&GptConfig::gpt2_345m());
    }
}

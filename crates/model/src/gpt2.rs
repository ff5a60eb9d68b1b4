//! Precision-generic reference implementation of GPT-2 inference.
//!
//! This is the golden model the DFX functional executor is validated
//! against. It follows the decoder structure of the paper's Figure 2 /
//! Algorithm 1: pre-LayerNorm, multi-head self-attention with a causal
//! mask and max-subtracted softmax, residual, pre-LayerNorm, FFN with
//! GELU, residual — plus GPT-2's final LayerNorm and the LM head (matmul
//! with WTEᵀ and argmax).
//!
//! The summarization stage takes the whole context at once, as the FP16
//! GPU baseline does: one matrix–matrix pass per weight matrix over all
//! context rows, each row attending over the KV cache up to its own
//! position. Every row keeps its own reduction order, so the result is
//! bit-identical to processing the context token by token. The
//! generation stage is the one-row case of the same layer function, the
//! matrix-vector dataflow DFX executes.

use crate::config::GptConfig;
use crate::tensor::{vec_add, Matrix};
use crate::weights::{GptWeights, LayerWeights};
use dfx_num::reduce::LANES;
use dfx_num::Scalar;

/// LayerNorm epsilon (GPT-2 uses 1e-5; the paper's formula omits it but
/// the hardware must avoid 1/σ overflow the same way).
pub const LAYER_NORM_EPS: f64 = 1e-5;

/// Per-layer key/value cache. Keys and values grow by one row per
/// processed token (paper §II-A: "the generation stage updates the Key and
/// Value matrices by appending a row").
#[derive(Debug, Clone)]
pub struct KvCache<T> {
    keys: Vec<Matrix<T>>,
    values: Vec<Matrix<T>>,
}

impl<T: Scalar> KvCache<T> {
    /// Creates an empty cache for `num_layers` layers.
    pub fn new(num_layers: usize) -> Self {
        KvCache {
            keys: (0..num_layers).map(|_| Matrix::zeros(0, 0)).collect(),
            values: (0..num_layers).map(|_| Matrix::zeros(0, 0)).collect(),
        }
    }

    /// Number of cached token positions (context length so far).
    pub fn len(&self) -> usize {
        self.keys.first().map_or(0, Matrix::rows)
    }

    /// `true` if no tokens have been processed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached keys for `layer`, shape `(t, emb)`.
    pub fn keys(&self, layer: usize) -> &Matrix<T> {
        &self.keys[layer]
    }

    /// Cached values for `layer`, shape `(t, emb)`.
    pub fn values(&self, layer: usize) -> &Matrix<T> {
        &self.values[layer]
    }

    /// Appends this token's key and value rows for `layer`.
    pub fn push(&mut self, layer: usize, key_row: &[T], value_row: &[T]) {
        self.keys[layer].push_row(key_row);
        self.values[layer].push_row(value_row);
    }
}

/// Layer normalisation: `y_i = γ_i · (x_i − µ)/σ + β_i`.
///
/// The mean is computed with a multiply-by-reciprocal-constant, as the
/// hardware replaces division by the (compile-time constant) embedding
/// size with a multiplication (paper §V-C).
///
/// # Panics
///
/// Panics if `gamma` or `beta` is shorter than `x`.
pub fn layer_norm<T: Scalar>(x: &[T], gamma: &[T], beta: &[T]) -> Vec<T> {
    let row = Matrix::from_vec(1, x.len(), x.to_vec());
    layer_norm_rows(&row, gamma, beta).as_slice().to_vec()
}

/// [`layer_norm`] of every row of `x`, bit for bit. The rows' mean and
/// variance folds run side by side, as lanes: each row is still its own
/// sequential fold from zero, but the folds of different rows are
/// independent, so their adds overlap instead of each waiting on the one
/// before it.
fn layer_norm_rows<T: Scalar>(x: &Matrix<T>, gamma: &[T], beta: &[T]) -> Matrix<T> {
    let width = x.cols();
    if width == 0 {
        return x.clone();
    }
    let rows = || x.as_slice().chunks_exact(width);
    let n = T::from_f64(1.0 / width as f64);
    let mut mean = vec![T::ZERO; x.rows()];
    for i in 0..width {
        for (m, row) in mean.iter_mut().zip(rows()) {
            *m = m.add(row[i]);
        }
    }
    mean.iter_mut().for_each(|m| *m = m.mul(n));
    let mut var = vec![T::ZERO; x.rows()];
    for i in 0..width {
        for ((v, &m), row) in var.iter_mut().zip(&mean).zip(rows()) {
            let d = row[i].sub(m);
            *v = v.add(d.mul(d));
        }
    }
    let eps = T::from_f64(LAYER_NORM_EPS);
    let mut out = Vec::with_capacity(x.as_slice().len());
    for ((row, &mean), var) in rows().zip(&mean).zip(var) {
        let rstd = var.mul(n).add(eps).recip_sqrt();
        out.extend(
            row.iter()
                .zip(gamma.iter().zip(beta))
                .map(|(&xi, (&g, &b))| xi.sub(mean).mul(rstd).mul(g).add(b)),
        );
    }
    Matrix::from_vec(x.rows(), width, out)
}

/// Numerically stable softmax: `exp(x_i − max)/Σ exp(x_j − max)`, with the
/// division realised as multiply-by-reciprocal (paper §IV-C).
pub fn softmax<T: Scalar>(x: &[T]) -> Vec<T> {
    let max = x
        .iter()
        .fold(T::from_f64(f64::NEG_INFINITY), |m, &v| m.max_num(v));
    let exps: Vec<T> = x.iter().map(|&v| v.sub(max).exp()).collect();
    let sum = exps.iter().fold(T::ZERO, |a, &b| a.add(b));
    let rsum = sum.recip();
    exps.into_iter().map(|e| e.mul(rsum)).collect()
}

/// Index of the maximum element (first occurrence). Mirrors the DFX
/// reduce-max comparator tree.
pub fn argmax<T: Scalar>(x: &[T]) -> usize {
    let mut best = 0;
    for (i, v) in x.iter().enumerate().skip(1) {
        if *v > x[best] {
            best = i;
        }
    }
    best
}

/// `out[r] = dot(x, row(r))` for every `r < out.len()`, through
/// [`Scalar::vecmat_acc`] over transposed tiles of [`LANES`] rows (the
/// MPU's `l`), so the rows are evaluated side by side as output lanes.
/// Every output is still its own sequential fold from zero, the
/// [`dot`](crate::tensor::dot) of its row, bit for bit. `tile` is
/// scratch.
///
/// # Panics
///
/// Panics if a row's length differs from `x`'s.
fn dot_rows<'r, T: Scalar + 'r>(
    x: &[T],
    row: impl Fn(usize) -> &'r [T],
    out: &mut [T],
    tile: &mut Vec<T>,
) {
    for (t, lanes) in out.chunks_mut(LANES).enumerate() {
        tile.clear();
        tile.resize(x.len() * lanes.len(), T::ZERO);
        for l in 0..lanes.len() {
            let row = row(t * LANES + l);
            assert_eq!(row.len(), x.len(), "vector lengths must match");
            for (slot, &v) in tile.iter_mut().skip(l).step_by(lanes.len()).zip(row) {
                *slot = v;
            }
        }
        lanes.fill(T::ZERO);
        T::vecmat_acc(x, tile, lanes);
    }
}

/// Elementwise `a + b` of two matrices of one shape.
fn mat_add<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    Matrix::from_vec(a.rows(), a.cols(), vec_add(a.as_slice(), b.as_slice()))
}

/// Result of a full text-generation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationOutput {
    /// The generated token ids (length = requested output length).
    pub tokens: Vec<u32>,
}

/// The reference GPT-2 model over any [`Scalar`] precision.
///
/// # Examples
///
/// ```
/// use dfx_model::{GptConfig, GptWeights, Gpt2Model};
///
/// let cfg = GptConfig::tiny();
/// let model = Gpt2Model::new(GptWeights::synthetic(&cfg));
/// let out = model.generate(&[1, 2, 3], 4);
/// assert_eq!(out.tokens.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Gpt2Model<T> {
    weights: GptWeights<T>,
}

impl<T: Scalar> Gpt2Model<T> {
    /// Wraps a weight set.
    pub fn new(weights: GptWeights<T>) -> Self {
        Gpt2Model { weights }
    }

    /// The model configuration.
    pub fn config(&self) -> &GptConfig {
        &self.weights.config
    }

    /// Borrows the weights (used by the partitioner).
    pub fn weights(&self) -> &GptWeights<T> {
        &self.weights
    }

    /// Token embedding: `WTE[token] + WPE[pos]` (paper §II-A).
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or `pos` exceeds the
    /// maximum sequence length.
    pub fn embed(&self, token: u32, pos: usize) -> Vec<T> {
        let wte_row = self.weights.wte.row(token as usize);
        let wpe_row = self.weights.wpe.row(pos);
        vec_add(wte_row, wpe_row)
    }

    /// Runs one decoder layer on the embeddings of consecutive positions,
    /// the rows of `x`, which follow the `layer`'s cached context.
    /// Follows Algorithm 1 of the paper: each weight matrix is one pass
    /// over all rows, every row's key and value are appended to the KV
    /// cache, and row `r` attends over the cache up to its own position.
    /// Each row's result is the one-row call's on that row alone, bit for
    /// bit.
    pub fn decoder_layer(&self, layer: usize, x: &Matrix<T>, cache: &mut KvCache<T>) -> Matrix<T> {
        let cfg = &self.weights.config;
        let lw: &LayerWeights<T> = &self.weights.layers[layer];
        let h = cfg.num_heads;
        let dh = cfg.head_dim();

        // LayerNorm 1.
        let lnorm1 = layer_norm_rows(x, &lw.ln1_gamma, &lw.ln1_beta);

        // Q, K, V projections (Conv1D). The hardware computes Value first
        // to hide its transpose; numerically the order is irrelevant here.
        let value = lw.w_v.matmul_bias(&lnorm1, &lw.b_v);
        let key = lw.w_k.matmul_bias(&lnorm1, &lw.b_k);
        let query = lw.w_q.matmul_bias(&lnorm1, &lw.b_q);

        // Concat K, V: append the rows to the cache.
        let cached = cache.keys(layer).rows();
        for r in 0..x.rows() {
            cache.push(layer, key.row(r), value.row(r));
        }

        // Multi-head attention. Row r is position cached + r; the causal
        // mask admits the cached positions up to it (MaskedMM masks only
        // *future* positions).
        let scale = T::from_f64(1.0 / (dh as f64).sqrt());
        let keys = cache.keys(layer);
        let values = cache.values(layer);
        let mut attn = Matrix::zeros(x.rows(), cfg.embedding_dim);
        let (mut scores, mut tile) = (Vec::new(), Vec::new());
        for r in 0..x.rows() {
            let t = cached + r + 1; // context length including this row
            scores.resize(t, T::ZERO);
            let (query, attn) = (query.row(r), attn.row_mut(r));
            for head in 0..h {
                let heads = head * dh..(head + 1) * dh;
                // Score row: q_h · K_h[j]ᵀ, scaled.
                dot_rows(
                    &query[heads.clone()],
                    |j| &keys.row(j)[heads.clone()],
                    &mut scores,
                    &mut tile,
                );
                for s in &mut scores {
                    *s = s.mul(scale);
                }
                let probs = softmax(&scores);
                // attn_h = probs · V_h (1×t times t×dh), V_h gathered into
                // consecutive rows.
                tile.clear();
                for j in 0..t {
                    tile.extend_from_slice(&values.row(j)[heads.clone()]);
                }
                T::vecmat_acc(&probs, &tile, &mut attn[heads]);
            }
        }

        // Attention output projection + residual.
        let c_attn = lw.w_attn_proj.matmul_bias(&attn, &lw.b_attn_proj);
        let c_attn = mat_add(&c_attn, x);

        // LayerNorm 2, FFN with GELU, residual.
        let lnorm2 = layer_norm_rows(&c_attn, &lw.ln2_gamma, &lw.ln2_beta);
        let mut ffn1 = lw.w_ffn1.matmul_bias(&lnorm2, &lw.b_ffn1);
        for r in 0..ffn1.rows() {
            ffn1.row_mut(r).iter_mut().for_each(|v| *v = v.gelu());
        }
        let ffn2 = lw.w_ffn2.matmul_bias(&ffn1, &lw.b_ffn2);
        mat_add(&ffn2, &c_attn)
    }

    /// Processes the tokens of consecutive positions from `pos` through
    /// the full decoder stack, one matrix pass per weight for all of them,
    /// and returns the last one's output hidden state after the final
    /// LayerNorm. The cache must hold the `pos` positions before them.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn forward_tokens(&self, tokens: &[u32], pos: usize, cache: &mut KvCache<T>) -> Vec<T> {
        assert!(!tokens.is_empty(), "at least one token to process");
        let emb = self.weights.config.embedding_dim;
        let mut x = Matrix::from_vec(
            tokens.len(),
            emb,
            (pos..)
                .zip(tokens)
                .flat_map(|(p, &tok)| self.embed(tok, p))
                .collect(),
        );
        for layer in 0..self.weights.config.num_layers {
            x = self.decoder_layer(layer, &x, cache);
        }
        let last = x.row(x.rows() - 1);
        layer_norm(last, &self.weights.ln_f_gamma, &self.weights.ln_f_beta)
    }

    /// Processes one token through the full decoder stack and the final
    /// LayerNorm, returning the output hidden state: the one-row call of
    /// [`Gpt2Model::forward_tokens`].
    pub fn forward_token(&self, token: u32, pos: usize, cache: &mut KvCache<T>) -> Vec<T> {
        self.forward_tokens(&[token], pos, cache)
    }

    /// LM head: logits = hidden · WTEᵀ (paper §II-A), each logit the
    /// sequential [`dot`](crate::tensor::dot) of `hidden` with its WTE row.
    pub fn logits(&self, hidden: &[T]) -> Vec<T> {
        let wte = &self.weights.wte;
        let mut logits = vec![T::ZERO; self.weights.config.vocab_size];
        dot_rows(hidden, |v| wte.row(v), &mut logits, &mut Vec::new());
        logits
    }

    /// Greedy next-token selection (argmax over logits; the paper selects
    /// "the token ID with the highest probability value", and softmax is
    /// monotone, so argmax over logits is identical).
    pub fn next_token(&self, hidden: &[T]) -> u32 {
        argmax(&self.logits(hidden)) as u32
    }

    /// End-to-end text generation: summarises `input_tokens` in one pass
    /// (building the KV cache), then generates `output_len` tokens
    /// greedily.
    ///
    /// # Panics
    ///
    /// Panics if `input_tokens` is empty or the total sequence exceeds the
    /// model's maximum length.
    pub fn generate(&self, input_tokens: &[u32], output_len: usize) -> GenerationOutput {
        assert!(
            !input_tokens.is_empty(),
            "context must contain at least one token"
        );
        let total = input_tokens.len() + output_len;
        assert!(
            total <= self.weights.config.max_seq_len,
            "sequence length {total} exceeds max {}",
            self.weights.config.max_seq_len
        );
        let mut cache = KvCache::new(self.weights.config.num_layers);

        // Summarization stage: all context rows at once; only the *last*
        // token's hidden state feeds the LM head (paper §II-A: "Only the
        // last row of the output matrix is processed in LM head").
        let mut hidden = self.forward_tokens(input_tokens, 0, &mut cache);

        let mut tokens = Vec::with_capacity(output_len);
        for pos in input_tokens.len()..input_tokens.len() + output_len {
            let next = self.next_token(&hidden);
            tokens.push(next);
            if tokens.len() == output_len {
                break;
            }
            hidden = self.forward_token(next, pos, &mut cache);
        }
        GenerationOutput { tokens }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::GptWeights;
    use dfx_num::F16;

    fn tiny_model() -> Gpt2Model<f32> {
        Gpt2Model::new(GptWeights::synthetic(&GptConfig::tiny()))
    }

    #[test]
    fn layer_norm_normalises() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let gamma = [1.0f32; 4];
        let beta = [0.0f32; 4];
        let y = layer_norm(&x, &gamma, &beta);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_applies_gamma_beta() {
        let x = [0.0f32, 2.0];
        let y = layer_norm(&x, &[2.0, 2.0], &[10.0, 10.0]);
        // normalised x = [-1, 1] (up to eps), so y ≈ [8, 12].
        assert!((y[0] - 8.0).abs() < 1e-2, "{y:?}");
        assert!((y[1] - 12.0).abs() < 1e-2, "{y:?}");
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable_for_large_inputs() {
        let x = [1000.0f32, 1001.0, 1002.0];
        let p = softmax(&x);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_of_masked_row_puts_zero_on_masked_positions() {
        let x = [0.5f32, f32::NEG_INFINITY, 0.5];
        let p = softmax(&x);
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let model = tiny_model();
        let a = model.generate(&[5, 10, 15], 6);
        let b = model.generate(&[5, 10, 15], 6);
        assert_eq!(a, b);
        assert_eq!(a.tokens.len(), 6);
        assert!(a
            .tokens
            .iter()
            .all(|&t| (t as usize) < model.config().vocab_size));
    }

    #[test]
    fn different_contexts_generally_diverge() {
        let model = tiny_model();
        let a = model.generate(&[1, 2, 3, 4], 4);
        let b = model.generate(&[100, 200, 300, 400], 4);
        // Random weights make collisions possible but vanishingly unlikely
        // across 4 greedy steps.
        assert_ne!(a.tokens, b.tokens);
    }

    #[test]
    fn kv_cache_grows_one_row_per_token() {
        let model = tiny_model();
        let mut cache = KvCache::new(model.config().num_layers);
        assert!(cache.is_empty());
        model.forward_token(1, 0, &mut cache);
        assert_eq!(cache.len(), 1);
        model.forward_token(2, 1, &mut cache);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.keys(0).shape(), (2, model.config().embedding_dim));
    }

    #[test]
    fn incremental_generation_matches_fresh_run_prefix() {
        // Greedy decoding is prefix-stable: generating 6 tokens and
        // generating 3 must agree on the first 3.
        let model = tiny_model();
        let six = model.generate(&[7, 8, 9], 6);
        let three = model.generate(&[7, 8, 9], 3);
        assert_eq!(&six.tokens[..3], &three.tokens[..]);
    }

    #[test]
    fn f16_model_agrees_with_f32_on_next_token() {
        // The FP16 instantiation (the GPU baseline's precision) should pick
        // the same greedy tokens as f32 on a well-conditioned tiny model.
        let cfg = GptConfig::tiny();
        let w32 = GptWeights::synthetic(&cfg);
        let m32 = Gpt2Model::new(w32.clone());
        let m16 = Gpt2Model::new(w32.cast::<F16>());
        let out32 = m32.generate(&[3, 1, 4, 1, 5], 4);
        let out16 = m16.generate(&[3, 1, 4, 1, 5], 4);
        // Agreement on at least the first token; full-sequence agreement is
        // typical but argmax near-ties may flip later tokens.
        assert_eq!(out32.tokens[0], out16.tokens[0]);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_context_is_rejected() {
        let model = tiny_model();
        let _ = model.generate(&[], 3);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn overlong_sequence_is_rejected() {
        let model = tiny_model();
        let ctx: Vec<u32> = (0..100).collect();
        let _ = model.generate(&ctx, 100);
    }

    /// Tiled dot products against [`dot`](crate::tensor::dot) row by row,
    /// bit for bit, on a row count that is not a multiple of the tile.
    fn check_dot_rows<T: Scalar>(bits: impl Fn(T) -> u64) {
        let value = |i: usize| T::from_f64(((i * 53) % 47) as f64 * 0.03 - 0.7);
        let x: Vec<T> = (0..70).map(value).collect();
        let rows: Vec<Vec<T>> = (0..37)
            .map(|r| (0..70).map(|i| value(i * 3 + r)).collect())
            .collect();
        let mut out = vec![T::ONE; 37];
        dot_rows(&x, |r| &rows[r], &mut out, &mut Vec::new());
        for (r, (got, row)) in out.iter().zip(&rows).enumerate() {
            assert_eq!(bits(*got), bits(crate::tensor::dot(&x, row)), "row {r}");
        }
    }

    #[test]
    fn tiled_dot_rows_equal_the_sequential_dot_in_every_precision() {
        check_dot_rows::<f32>(|v| u64::from(v.to_bits()));
        check_dot_rows::<f64>(f64::to_bits);
        check_dot_rows::<F16>(|v| u64::from(v.to_bits()));
    }

    /// The summarization stage's row-batched pass against successive
    /// one-row calls, bit for bit: the last hidden state, every cached
    /// K and V row of every layer, and the logits; each context also in
    /// two chunks, the second after a cached first.
    fn check_rows_match_tokens<T: Scalar>(
        weights: GptWeights<T>,
        contexts: &[Vec<u32>],
        bits: impl Fn(T) -> u64,
    ) {
        let model = Gpt2Model::new(weights);
        let layers = model.config().num_layers;
        let name = &model.config().name;
        let bits = |v: &[T]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
        for context in contexts {
            let what = format!("{name}, {} tokens", context.len());
            let mut by_token = KvCache::new(layers);
            let mut want = Vec::new();
            for (pos, &tok) in context.iter().enumerate() {
                want = model.forward_token(tok, pos, &mut by_token);
            }
            let split = context.len() / 2;
            let mut whole = KvCache::new(layers);
            let mut chunked = KvCache::new(layers);
            if split > 0 {
                model.forward_tokens(&context[..split], 0, &mut chunked);
            }
            for (got, cache) in [
                (model.forward_tokens(context, 0, &mut whole), &whole),
                (
                    model.forward_tokens(&context[split..], split, &mut chunked),
                    &chunked,
                ),
            ] {
                assert_eq!(bits(&got), bits(&want), "{what}: hidden");
                assert_eq!(
                    bits(&model.logits(&got)),
                    bits(&model.logits(&want)),
                    "{what}: logits"
                );
                for l in 0..layers {
                    for (m, w) in [
                        (cache.keys(l), by_token.keys(l)),
                        (cache.values(l), by_token.values(l)),
                    ] {
                        assert_eq!(m.shape(), w.shape(), "{what}: layer {l} K/V");
                        assert_eq!(bits(m.as_slice()), bits(w.as_slice()), "{what}: layer {l}");
                    }
                }
            }
        }
    }

    /// A context of `n` tokens below 500.
    fn context(n: u32) -> Vec<u32> {
        (0..n).map(|i| (i * 37 + 11) % 500).collect()
    }

    #[test]
    fn summarization_rows_equal_token_by_token_bit_for_bit() {
        // Lengths on both sides of the 16-wide tile edge; the small model,
        // slow in unoptimized test builds, takes the two next to it.
        for (cfg, lengths) in [
            (GptConfig::tiny(), &[1, 15, 16, 17, 33][..]),
            (GptConfig::small(), &[15, 17]),
        ] {
            let contexts: Vec<Vec<u32>> = lengths.iter().map(|&n| context(n)).collect();
            let w = GptWeights::synthetic(&cfg);
            check_rows_match_tokens(w.cast::<F16>(), &contexts, |v| u64::from(v.to_bits()));
            check_rows_match_tokens(w, &contexts, |v| u64::from(v.to_bits()));
        }
    }

    #[test]
    fn a_planted_nan_or_infinity_reruns_only_its_own_row() {
        // A NaN with a payload, or ∞, in the embedding of a token that
        // only the last of 17 rows holds: that row reruns under the NaN
        // rule and the 16 rows before it do not.
        let cfg = GptConfig::tiny();
        let mut planted = GptWeights::synthetic(&cfg);
        let (nan_token, inf_token) = (508, 509);
        planted.wte[(nan_token, 3)] = f32::from_bits(0x7fa0_0155);
        planted.wte[(inf_token, 5)] = f32::NEG_INFINITY;
        let contexts = [nan_token, inf_token].map(|special| {
            let mut c = context(17);
            c[16] = special as u32;
            c
        });
        let m16 = Gpt2Model::new(planted.cast::<F16>());
        for c in &contexts {
            let mut cache = KvCache::new(cfg.num_layers);
            let hidden = m16.forward_tokens(c, 0, &mut cache);
            assert!(
                hidden.iter().all(|v| v.is_nan()),
                "the planted value reached the output"
            );
            let keys = cache.keys(0).as_slice();
            assert!(
                keys[..16 * cfg.embedding_dim].iter().all(|v| v.is_finite()),
                "rows before the planted value stay finite"
            );
        }
        check_rows_match_tokens(planted.cast::<F16>(), &contexts, |v| u64::from(v.to_bits()));
        check_rows_match_tokens(planted, &contexts, |v| u64::from(v.to_bits()));
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[1.0f32, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0f32]), 0);
    }
}

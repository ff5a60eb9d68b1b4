//! GPT-2 model configurations (paper Table I) and workload descriptors.

use serde::{Deserialize, Serialize};

/// Hyperparameters of a GPT-2-family decoder-only model.
///
/// The three published presets mirror Table I of the paper; the 1.5B
/// configuration uses 24 attention heads (the paper adjusts OpenAI's 25 to
/// 24 so the model parallelises evenly across devices).
///
/// # Examples
///
/// ```
/// use dfx_model::GptConfig;
///
/// let cfg = GptConfig::gpt2_1_5b();
/// assert_eq!(cfg.embedding_dim, 1536);
/// assert_eq!(cfg.head_dim(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GptConfig {
    /// Human-readable name, e.g. `"gpt2-1.5b"`.
    pub name: String,
    /// Embedding dimension (`emb` in the paper).
    pub embedding_dim: usize,
    /// Number of attention heads (`H`).
    pub num_heads: usize,
    /// Number of decoder layers (`N`).
    pub num_layers: usize,
    /// Feed-forward hidden dimension (4 × `emb` for GPT-2).
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum sequence length supported by the position embedding.
    pub max_seq_len: usize,
    /// Seed for deterministic synthetic weight generation.
    pub seed: u64,
}

impl GptConfig {
    /// Builds a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if `embedding_dim` is not divisible by `num_heads`.
    pub fn new(
        name: impl Into<String>,
        embedding_dim: usize,
        num_heads: usize,
        num_layers: usize,
        vocab_size: usize,
        max_seq_len: usize,
    ) -> Self {
        assert!(
            num_heads > 0 && embedding_dim % num_heads == 0,
            "embedding_dim {embedding_dim} must be divisible by num_heads {num_heads}"
        );
        GptConfig {
            name: name.into(),
            embedding_dim,
            num_heads,
            num_layers,
            ffn_dim: embedding_dim * 4,
            vocab_size,
            max_seq_len,
            seed: 0xD0F5_0001,
        }
    }

    /// GPT-2 345M (Megatron-LM release): emb 1024, 16 heads, 24 layers.
    pub fn gpt2_345m() -> Self {
        GptConfig::new("gpt2-345m", 1024, 16, 24, 50257, 1024)
    }

    /// GPT-2 774M (OpenAI): emb 1280, 20 heads, 36 layers.
    pub fn gpt2_774m() -> Self {
        GptConfig::new("gpt2-774m", 1280, 20, 36, 50257, 1024)
    }

    /// GPT-2 1.5B (OpenAI, heads adjusted 25 → 24 as in the paper):
    /// emb 1536*, 24 heads, 48 layers.
    ///
    /// *The paper's Table I lists 1536 with head dimension 64; OpenAI's
    /// original 1.5B uses 1600/25 which does not split evenly across 4
    /// devices.
    pub fn gpt2_1_5b() -> Self {
        GptConfig::new("gpt2-1.5b", 1536, 24, 48, 50257, 1024)
    }

    /// GPT-3 6.7B (Brown et al.): emb 4096, 32 heads, 32 layers. The
    /// paper argues its GPT-2 acceleration strategies carry over to
    /// GPT-3 (§II-A); this preset supports that projection.
    pub fn gpt3_6_7b() -> Self {
        let mut cfg = GptConfig::new("gpt3-6.7b", 4096, 32, 32, 50257, 2048);
        cfg.seed = 0xD0F5_0003;
        cfg
    }

    /// GPT-3 13B (heads-aligned variant: emb 5120, 40 heads, 40 layers).
    pub fn gpt3_13b() -> Self {
        let mut cfg = GptConfig::new("gpt3-13b", 5120, 40, 40, 50257, 2048);
        cfg.seed = 0xD0F5_0004;
        cfg
    }

    /// A tiny configuration for functional tests: emb 64, 2 heads,
    /// 2 layers, 512-word vocabulary.
    pub fn tiny() -> Self {
        GptConfig::new("gpt2-tiny", 64, 2, 2, 512, 128)
    }

    /// A small configuration exercising multi-tile paths (emb 192 spans
    /// three 64-wide tiles): 3 heads, 3 layers.
    pub fn small() -> Self {
        GptConfig::new("gpt2-small-test", 192, 3, 3, 512, 128)
    }

    /// Dimension of one attention head.
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.embedding_dim / self.num_heads
    }

    /// Total parameter count (embeddings + decoder stack + final norm),
    /// matching the standard GPT-2 accounting.
    pub fn num_parameters(&self) -> u64 {
        let e = self.embedding_dim as u64;
        let f = self.ffn_dim as u64;
        let v = self.vocab_size as u64;
        let s = self.max_seq_len as u64;
        let per_layer = 3 * (e * e + e) // Q, K, V projections
            + (e * e + e)               // attention output projection
            + (e * f + f)               // FFN up
            + (f * e + e)               // FFN down
            + 4 * e; // two layer norms (gamma + beta)
        v * e + s * e + per_layer * self.num_layers as u64 + 2 * e
    }

    /// Bytes of FP16 weights streamed per generated token (the decoder
    /// stack only — embeddings live in DDR and are indexed, not streamed).
    pub fn decoder_weight_bytes(&self) -> u64 {
        let e = self.embedding_dim as u64;
        let f = self.ffn_dim as u64;
        let per_layer = 3 * e * e + e * e + e * f + f * e;
        2 * per_layer * self.num_layers as u64
    }
}

/// A text-generation workload: `input_len` context tokens summarised, then
/// `output_len` tokens generated (paper notation `[input:output]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Workload {
    /// Number of input (context) tokens.
    pub input_len: usize,
    /// Number of output (generated) tokens.
    pub output_len: usize,
}

impl Workload {
    /// Creates a workload.
    pub const fn new(input_len: usize, output_len: usize) -> Self {
        Workload {
            input_len,
            output_len,
        }
    }

    /// The sweep of Figure 3: growing inputs `[128:1]`…`[32:1]`, then
    /// growing outputs `[32:2]`…`[32:4]`.
    pub fn fig3_sweep() -> Vec<Workload> {
        vec![
            Workload::new(128, 1),
            Workload::new(96, 1),
            Workload::new(64, 1),
            Workload::new(32, 1),
            Workload::new(32, 2),
            Workload::new(32, 3),
            Workload::new(32, 4),
        ]
    }

    /// The chatbot-representative 64:64 point used by Table II and Fig 17/18.
    pub const fn chatbot() -> Self {
        Workload::new(64, 64)
    }

    /// Total decoder invocations (token steps) this workload performs.
    pub fn total_steps(&self) -> usize {
        self.input_len + self.output_len
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}:{}]", self.input_len, self.output_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_configurations() {
        // Paper Table I.
        let m345 = GptConfig::gpt2_345m();
        assert_eq!(
            (
                m345.embedding_dim,
                m345.num_heads,
                m345.head_dim(),
                m345.num_layers
            ),
            (1024, 16, 64, 24)
        );
        let m774 = GptConfig::gpt2_774m();
        assert_eq!(
            (
                m774.embedding_dim,
                m774.num_heads,
                m774.head_dim(),
                m774.num_layers
            ),
            (1280, 20, 64, 36)
        );
        let m15 = GptConfig::gpt2_1_5b();
        assert_eq!(
            (
                m15.embedding_dim,
                m15.num_heads,
                m15.head_dim(),
                m15.num_layers
            ),
            (1536, 24, 64, 48)
        );
    }

    #[test]
    fn parameter_counts_are_in_the_advertised_ballpark() {
        // Decoder-stack-dominated counts should land near the model names.
        let close = |got: u64, want: f64| {
            let got = got as f64;
            (got - want).abs() / want < 0.25
        };
        assert!(
            close(GptConfig::gpt2_345m().num_parameters(), 345e6),
            "345M count: {}",
            GptConfig::gpt2_345m().num_parameters()
        );
        assert!(
            close(GptConfig::gpt2_774m().num_parameters(), 774e6),
            "774M count: {}",
            GptConfig::gpt2_774m().num_parameters()
        );
        assert!(
            close(GptConfig::gpt2_1_5b().num_parameters(), 1.5e9),
            "1.5B count: {}",
            GptConfig::gpt2_1_5b().num_parameters()
        );
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn heads_must_divide_embedding() {
        let _ = GptConfig::new("bad", 100, 3, 1, 10, 10);
    }

    #[test]
    fn workload_displays_as_input_colon_output() {
        assert_eq!(Workload::new(64, 64).to_string(), "[64:64]");
    }

    #[test]
    fn decoder_weight_bytes_match_param_accounting() {
        let cfg = GptConfig::gpt2_1_5b();
        // 12 * emb^2 per layer (QKV 3, proj 1, FFN 8), FP16.
        let expected = 12 * 1536u64 * 1536 * 48 * 2;
        assert_eq!(cfg.decoder_weight_bytes(), expected);
    }
}

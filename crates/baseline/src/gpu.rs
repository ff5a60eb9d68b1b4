//! Analytic model of the paper's GPU appliance: NVIDIA V100s running
//! Megatron-LM (paper §VII).
//!
//! We cannot measure V100s, but the paper publishes enough GPU data to
//! fit a small mechanistic model — see `calib` for every constant and the
//! data point it is fitted against. The model's structure follows how
//! Megatron-LM actually executes a decoder layer at batch 1:
//!
//! - per-layer time in the generation stage is dominated by *fixed
//!   per-kernel overhead* (kernel launch + framework dispatch + small
//!   tensor ops), which is why the paper measures ~1.55 ms/layer for
//!   every model size (Fig 14) and why LayerNorm + Residual consume 22.8%
//!   of GPU time at 0.11% of the FLOPs (Fig 4);
//! - GEMV weight traffic adds `bytes / (HBM2 bandwidth × batch-1
//!   efficiency)`;
//! - tensor-parallel execution adds two NCCL all-reduces per layer;
//! - the summarization stage processes all context tokens in one pass:
//!   one per-pass overhead plus a compute term that grows at
//!   ~0.02 ms/token (Fig 3), plus a one-time multi-GPU warm-up.

use dfx_model::{flops, GptConfig, Workload};
use serde::{Deserialize, Serialize};

/// Calibration constants for the GPU model. Each is documented with the
/// paper anchor it reproduces.
pub mod calib {
    /// Fixed per-layer LayerNorm time, µs (two unfused norms ≈ 10
    /// kernels). Anchor: Fig 4's 9.9% latency share.
    pub const LN_US_PER_LAYER: f64 = 150.0;
    /// Fixed per-layer residual time, µs (adds, dropout, copies).
    /// Anchor: Fig 4's 12.9% share.
    pub const RESIDUAL_US_PER_LAYER: f64 = 195.0;
    /// Fixed per-layer self-attention overhead, µs (QKV/reshape/softmax/
    /// context/proj kernel chain at batch 1). Anchor: Fig 4's 56.5% share
    /// together with the GEMV term.
    pub const ATTN_BASE_US_PER_LAYER: f64 = 850.0;
    /// Fixed per-layer FFN overhead, µs. Anchor: Fig 4's 20.7% share
    /// together with the GEMV term.
    pub const FFN_BASE_US_PER_LAYER: f64 = 160.0;
    /// V100 HBM2 bandwidth, GB/s.
    pub const HBM_GBPS: f64 = 900.0;
    /// Fraction of HBM bandwidth a batch-1 FP16 GEMV sustains (cuBLAS).
    /// Anchor: the residual model-size dependence of Fig 14's per-token
    /// slopes (37.3 / 61.3 / 74.5 ms per token).
    pub const GEMV_BW_EFF: f64 = 0.15;
    /// One NCCL all-reduce of a batch-1 activation, µs. Anchor: the gap
    /// between single- and multi-GPU per-layer times.
    pub const ALLREDUCE_US: f64 = 40.0;
    /// One-time multi-GPU warm-up per generation request, ms per peer
    /// GPU. Anchor: Fig 14's `[32:1]` minus the per-token slope
    /// (≈ 0.1 / 4.5 / 11.5 ms for 1 / 2 / 4 GPUs).
    pub const WARMUP_MS_PER_PEER: f64 = 3.8;
    /// Effective FP16 tensor throughput during the batched summarization
    /// pass, TFLOPS per GPU. Anchor: Fig 3's ~0.02 ms per input token.
    pub const SUMMARIZATION_TFLOPS: f64 = 25.0;
    /// LM head + final norm + embedding per emitted token, µs.
    pub const HEAD_US: f64 = 250.0;
    /// Measured average board power per V100 during text generation, W
    /// (paper §VII-B, nvidia-smi).
    pub const GPU_POWER_W: f64 = 47.5;
}

/// Latency of one op class per decoder layer in the generation stage, µs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GpuLayerBreakdown {
    /// LayerNorm.
    pub layer_norm_us: f64,
    /// Self-attention (including its all-reduce).
    pub self_attention_us: f64,
    /// Residual.
    pub residual_us: f64,
    /// FFN (including its all-reduce).
    pub ffn_us: f64,
}

impl GpuLayerBreakdown {
    /// Total µs per layer.
    pub fn total_us(&self) -> f64 {
        self.layer_norm_us + self.self_attention_us + self.residual_us + self.ffn_us
    }

    /// Percentage shares in Fig 4 order (LN, SA, Residual, FFN).
    pub fn shares_percent(&self) -> [f64; 4] {
        let t = self.total_us();
        [
            100.0 * self.layer_norm_us / t,
            100.0 * self.self_attention_us / t,
            100.0 * self.residual_us / t,
            100.0 * self.ffn_us / t,
        ]
    }
}

/// The error [`GpuModel::run_batch`] returns for a batch with no
/// members: there is no padded shape to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyBatch;

impl std::fmt::Display for EmptyBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("empty batch")
    }
}

impl std::error::Error for EmptyBatch {}

/// Result of simulating a workload on the GPU appliance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuReport {
    /// Summarization-stage latency (first pass over the context), ms.
    pub summarization_ms: f64,
    /// Generation-stage latency (remaining output tokens), ms.
    pub generation_ms: f64,
    /// Average board power across the appliance, W.
    pub power_w: f64,
}

impl GpuReport {
    /// End-to-end latency, ms.
    pub fn total_ms(&self) -> f64 {
        self.summarization_ms + self.generation_ms
    }

    /// Output tokens per second for `workload`.
    pub fn tokens_per_second(&self, workload: Workload) -> f64 {
        workload.output_len as f64 / (self.total_ms() / 1e3)
    }

    /// Output tokens per joule.
    pub fn tokens_per_joule(&self, workload: Workload) -> f64 {
        self.tokens_per_second(workload) / self.power_w
    }
}

/// The V100/Megatron-LM appliance model.
///
/// # Examples
///
/// ```
/// use dfx_baseline::GpuModel;
/// use dfx_model::{GptConfig, Workload};
///
/// let gpu = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
/// let report = gpu.run(Workload::new(32, 256));
/// // The generation stage dominates: ~75 ms per output token.
/// assert!(report.total_ms() > 15_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct GpuModel {
    cfg: GptConfig,
    gpus: usize,
}

impl GpuModel {
    /// Creates a model of `gpus` V100s running `cfg` with Megatron-LM
    /// tensor parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn new(cfg: GptConfig, gpus: usize) -> Self {
        assert!(gpus > 0, "at least one GPU");
        GpuModel { cfg, gpus }
    }

    /// Number of GPUs.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// The model configuration.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// Weight bytes streamed per layer per GPU for a batch-1 step.
    fn layer_gemv_bytes(&self) -> (f64, f64) {
        let e = self.cfg.embedding_dim as f64;
        let f = self.cfg.ffn_dim as f64;
        let g = self.gpus as f64;
        let attn = 4.0 * e * e * 2.0 / g; // QKV + proj
        let ffn = 2.0 * e * f * 2.0 / g; // up + down
        (attn, ffn)
    }

    /// Per-layer breakdown of one generation-stage step at context
    /// length `t` (batch 1; see [`layer_breakdown_batched`]).
    ///
    /// [`layer_breakdown_batched`]: GpuModel::layer_breakdown_batched
    pub fn layer_breakdown(&self, t: usize) -> GpuLayerBreakdown {
        self.layer_breakdown_batched(t, 1)
    }

    /// Per-layer breakdown of one generation-stage step at context
    /// length `t` for a batch of `batch` requests.
    ///
    /// This is where the GPU wins throughput back (the trade-off §III-A
    /// argues about): the per-kernel fixed overheads — the batch-1
    /// bottleneck — are *constant* in the batch, and the weight matrices
    /// stream from HBM once, turning the GEMV into a GEMM whose time is
    /// `max(weight stream, batched compute)`. Only per-request traffic
    /// scales: KV-cache reads (each request has its own cache) and the
    /// batched compute term at the sustained tensor throughput. A batch
    /// of one reproduces [`layer_breakdown`] exactly.
    ///
    /// [`layer_breakdown`]: GpuModel::layer_breakdown
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn layer_breakdown_batched(&self, t: usize, batch: usize) -> GpuLayerBreakdown {
        assert!(batch > 0, "batch must be at least 1");
        let b = batch as f64;
        let (attn_bytes, ffn_bytes) = self.layer_gemv_bytes();
        let gemv_us = |bytes: f64| bytes / (calib::HBM_GBPS * calib::GEMV_BW_EFF * 1e9) * 1e6;
        // FP16 weights carry 2 bytes and 2 FLOPs per parameter, so the
        // per-member compute FLOPs of a streamed operand equal its byte
        // count; the batched GEMM runs at the same sustained tensor
        // throughput the summarization pass is calibrated to.
        let compute_us = |bytes: f64| b * bytes / (calib::SUMMARIZATION_TFLOPS * 1e12) * 1e6;
        let allreduce = if self.gpus > 1 {
            calib::ALLREDUCE_US
        } else {
            0.0
        };
        // KV cache reads grow with context, per batch member.
        let kv_bytes = t as f64 * 2.0 * self.cfg.embedding_dim as f64 * 2.0 / self.gpus as f64;
        GpuLayerBreakdown {
            layer_norm_us: calib::LN_US_PER_LAYER,
            self_attention_us: calib::ATTN_BASE_US_PER_LAYER
                + gemv_us(attn_bytes + b * kv_bytes).max(compute_us(attn_bytes + kv_bytes))
                + allreduce,
            residual_us: calib::RESIDUAL_US_PER_LAYER,
            ffn_us: calib::FFN_BASE_US_PER_LAYER
                + gemv_us(ffn_bytes).max(compute_us(ffn_bytes))
                + allreduce,
        }
    }

    /// One generation-stage token step (full decoder pass at batch 1), ms.
    pub fn generation_step_ms(&self, t: usize) -> f64 {
        self.generation_step_ms_batched(t, 1)
    }

    /// One generation-stage token step for a batch of `batch` requests,
    /// ms. The decoder pass amortises ([`layer_breakdown_batched`]); the
    /// LM head still runs per emitted token, i.e. per member.
    ///
    /// [`layer_breakdown_batched`]: GpuModel::layer_breakdown_batched
    pub fn generation_step_ms_batched(&self, t: usize, batch: usize) -> f64 {
        let per_layer = self.layer_breakdown_batched(t, batch).total_us();
        (per_layer * self.cfg.num_layers as f64 + calib::HEAD_US * batch as f64) / 1e3
    }

    /// The summarization pass over `n` context tokens, ms: one decoder
    /// pass (kernel-overhead bound, like a generation step) plus the
    /// batched compute for the extra tokens and the one-time multi-GPU
    /// warm-up.
    pub fn summarization_pass_ms(&self, n: usize) -> f64 {
        self.summarization_pass_ms_batched(n, 1)
    }

    /// The summarization pass over `n` context tokens for a batch of
    /// `batch` requests, ms. Summarization is already compute-bound at
    /// batch 1, so its cost scales with the batch's token work
    /// (`batch × n` tokens through the same sustained throughput).
    pub fn summarization_pass_ms_batched(&self, n: usize, batch: usize) -> f64 {
        let base = self.generation_step_ms_batched(n, batch);
        let flops_per_token = flops::token_step_flops(&self.cfg, n).total();
        let batched_ms = (batch as f64 * n as f64 * flops_per_token)
            / (self.gpus as f64 * calib::SUMMARIZATION_TFLOPS * 1e12)
            * 1e3;
        let warmup = calib::WARMUP_MS_PER_PEER * (self.gpus as f64 - 1.0);
        base + batched_ms + warmup
    }

    /// Runs a workload.
    pub fn run(&self, workload: Workload) -> GpuReport {
        self.run_padded(workload.input_len, workload.output_len, 1)
    }

    /// Runs a coalesced batch of workloads, padded to the longest
    /// context and longest output among the members (standard static
    /// batching). `run_batch(&[w])` equals `Ok(`[`run`]`(w))` bit for
    /// bit.
    ///
    /// [`run`]: GpuModel::run
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBatch`] for a batch with no members.
    pub fn run_batch(&self, batch: &[Workload]) -> Result<GpuReport, EmptyBatch> {
        let (Some(input_len), Some(output_len)) = (
            batch.iter().map(|w| w.input_len).max(),
            batch.iter().map(|w| w.output_len).max(),
        ) else {
            return Err(EmptyBatch);
        };
        Ok(self.run_padded(input_len, output_len, batch.len()))
    }

    /// `batch` members executing together at the padded shape.
    fn run_padded(&self, input_len: usize, output_len: usize, batch: usize) -> GpuReport {
        let summarization_ms = self.summarization_pass_ms_batched(input_len, batch);
        let mut generation_ms = 0.0;
        for out in 1..output_len {
            generation_ms += self.generation_step_ms_batched(input_len + out, batch);
        }
        GpuReport {
            summarization_ms,
            generation_ms,
            power_w: calib::GPU_POWER_W * self.gpus as f64,
        }
    }

    /// Average GFLOPS over a stage (used by Fig 17): model FLOPs divided
    /// by the modelled stage time.
    pub fn stage_gflops(&self, workload: Workload) -> (f64, f64, f64) {
        let fl = flops::workload_flops(&self.cfg, workload);
        let report = self.run(workload);
        let s = fl.summarization / (report.summarization_ms / 1e3) / 1e9;
        let g = if report.generation_ms > 0.0 {
            fl.generation / (report.generation_ms / 1e3) / 1e9
        } else {
            0.0
        };
        let t = fl.total() / (report.total_ms() / 1e3) / 1e9;
        (s, g, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slope_ms_per_token(cfg: GptConfig, gpus: usize) -> f64 {
        let m = GpuModel::new(cfg, gpus);
        let short = m.run(Workload::new(32, 1)).total_ms();
        let long = m.run(Workload::new(32, 4)).total_ms();
        (long - short) / 3.0
    }

    #[test]
    fn per_output_token_slopes_match_fig14() {
        // Paper: ~37.3 (345M/1), ~61.3 (774M/2), ~74.5 (1.5B/4) ms/token.
        let s345 = slope_ms_per_token(GptConfig::gpt2_345m(), 1);
        assert!((s345 - 37.3).abs() / 37.3 < 0.10, "345M slope {s345}");
        let s774 = slope_ms_per_token(GptConfig::gpt2_774m(), 2);
        assert!((s774 - 61.3).abs() / 61.3 < 0.12, "774M slope {s774}");
        let s15 = slope_ms_per_token(GptConfig::gpt2_1_5b(), 4);
        assert!((s15 - 74.5).abs() / 74.5 < 0.10, "1.5B slope {s15}");
    }

    #[test]
    fn input_tokens_are_nearly_free() {
        // Fig 3: ~0.02 ms per additional input token.
        let m = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
        let small = m.run(Workload::new(32, 1)).total_ms();
        let large = m.run(Workload::new(128, 1)).total_ms();
        let slope = (large - small) / 96.0;
        assert!(
            slope > 0.005 && slope < 0.08,
            "input slope {slope} ms/token"
        );
    }

    #[test]
    fn fig14_32_1_anchor() {
        let m = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
        let got = m.run(Workload::new(32, 1)).total_ms();
        assert!(
            (got - 86.7).abs() / 86.7 < 0.10,
            "[32:1] = {got} ms vs 86.7"
        );
    }

    #[test]
    fn breakdown_shares_match_fig4() {
        // Paper Fig 4 latency: LN 9.9%, SA 56.5%, Residual 12.9%, FFN 20.7%.
        let m = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
        let [ln, sa, res, ffn] = m.layer_breakdown(64).shares_percent();
        assert!((ln - 9.9).abs() < 2.0, "LN {ln}%");
        assert!((sa - 56.5).abs() < 4.0, "SA {sa}%");
        assert!((res - 12.9).abs() < 2.0, "Residual {res}%");
        assert!((ffn - 20.7).abs() < 4.0, "FFN {ffn}%");
    }

    #[test]
    fn throughput_anchor_table2() {
        // Table II: 13.01 tokens/s at 1.5B, 64:64.
        let m = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
        let w = Workload::chatbot();
        let tps = m.run(w).tokens_per_second(w);
        assert!((tps - 13.01).abs() / 13.01 < 0.10, "tokens/s {tps}");
    }

    #[test]
    fn summarization_gflops_dwarf_generation_gflops() {
        // Fig 17 shape: GPU is efficient in summarization, collapses in
        // generation.
        let m = GpuModel::new(GptConfig::gpt2_345m(), 1);
        let (s, g, _) = m.stage_gflops(Workload::chatbot());
        assert!(s / g > 10.0, "summ {s} vs gen {g}");
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_the_unbatched_run() {
        let m = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
        let w = Workload::chatbot();
        assert_eq!(m.run_batch(&[w]), Ok(m.run(w)));
        assert_eq!(m.run_batch(&[]), Err(EmptyBatch));
        assert_eq!(m.layer_breakdown_batched(64, 1), m.layer_breakdown(64));
        assert_eq!(
            m.summarization_pass_ms_batched(64, 1),
            m.summarization_pass_ms(64)
        );
    }

    #[test]
    fn batch_cost_is_monotone_and_amortises_decode() {
        let m = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
        let w = Workload::chatbot();
        let mut prev = 0.0;
        for b in 1..=16 {
            let t = m.run_batch(&vec![w; b]).unwrap().total_ms();
            assert!(t >= prev, "batch {b} got cheaper: {t} < {prev}");
            prev = t;
        }
        // The batch-1 GPU decode is kernel-overhead and weight-stream
        // bound, so an 8-way batch costs nowhere near 8x — this is the
        // throughput the GPU appliance wins back by batching.
        let one = m.run(w).total_ms();
        let eight = m.run_batch(&[w; 8]).unwrap().total_ms();
        assert!(
            eight < 2.0 * one,
            "8-way batch should amortise: {eight} vs 8x{one}"
        );
    }

    #[test]
    fn batched_runs_pad_to_the_largest_member() {
        let m = GpuModel::new(GptConfig::gpt2_345m(), 1);
        let mixed = m.run_batch(&[Workload::new(16, 8), Workload::new(64, 32)]);
        let uniform = m.run_batch(&[Workload::new(64, 32), Workload::new(64, 32)]);
        assert_eq!(mixed, uniform);
    }

    #[test]
    fn generation_dominates_for_long_outputs() {
        let m = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
        let r = m.run(Workload::new(32, 256));
        assert!(r.generation_ms > 50.0 * r.summarization_ms);
    }
}

//! Pipelined model parallelism — the scheme the paper rejects (§IV-B).
//!
//! In pipelined parallelism each device owns a contiguous block of
//! decoder layers and tokens flow stage to stage. Throughput can pipeline
//! across *independent* requests, but text generation is a feedback loop:
//! token *t+1* cannot enter stage 0 until token *t* leaves the last stage
//! and the LM head. Per-token latency therefore stays at the
//! full-model-width single-device cost plus the inter-stage transfers —
//! "the difference in latency between the two schemes would increase
//! linearly per decoder layer" (paper §IV-B). This model quantifies that
//! argument for the ablation harness.

use crate::appliance::Appliance;
use crate::error::SimError;
use dfx_hw::{Cycles, RingModel};
use dfx_model::{GptConfig, Workload};
use serde::{Deserialize, Serialize};

/// Latency result of a pipelined-parallelism run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinedRun {
    /// The workload.
    pub workload: Workload,
    /// Number of pipeline stages (devices).
    pub stages: usize,
    /// End-to-end latency, ms.
    pub latency_ms: f64,
    /// Portion spent on inter-stage activations transfers, ms.
    pub transfer_ms: f64,
}

impl PipelinedRun {
    /// Output tokens per second.
    pub fn tokens_per_second(&self) -> f64 {
        self.workload.output_len as f64 / (self.latency_ms / 1e3)
    }
}

/// Times a text-generation workload under pipelined parallelism with
/// `stages` devices, each holding `num_layers / stages` full-width
/// layers.
///
/// Every token step costs the *single-device, full-width* decoder pass
/// (the layers run somewhere at full width, sequentially for this
/// request) plus `stages − 1` activation hops and, per generated token,
/// the loop-back hop from the last stage to the first.
///
/// # Errors
///
/// Returns [`SimError::InvalidRequest`] if `stages` does not divide the
/// layer count or the workload is invalid (empty, or longer than the
/// model's `max_seq_len`), and [`SimError::Partition`] if the full-width
/// model does not fit one device.
pub fn pipelined_generate_timed(
    cfg: &GptConfig,
    stages: usize,
    workload: Workload,
) -> Result<PipelinedRun, SimError> {
    if stages == 0 || cfg.num_layers % stages != 0 {
        return Err(SimError::InvalidRequest(format!(
            "{} layers do not split into {stages} pipeline stages",
            cfg.num_layers
        )));
    }

    // Full-width per-token cost: the single-device run (no intra-layer
    // partitioning, no ring syncs inside layers).
    let single = Appliance::timing_only(cfg.clone(), 1)?
        .generate_timed(workload.input_len, workload.output_len)?;
    let compute = single.summarization.total + single.generation.total;

    // Inter-stage hop: one activation vector (emb FP16) over the same
    // 100 Gb/s links the ring uses.
    let link = RingModel::new(2);
    let hop = Cycles(
        link.hop_latency.0
            + (cfg.embedding_dim as f64 * 2.0 / link.payload_bytes_per_cycle()).ceil() as u64,
    );
    let pass = hop * (stages - 1) as u64;
    // Generated tokens additionally loop from the last stage back to the
    // first (the feedback loop); a single stage has no loop-back hop.
    let loopback = if stages > 1 { hop } else { Cycles::ZERO };
    // Every token step crosses the stages once; every generation step
    // also loops back.
    let transfer = pass * workload.input_len as u64
        + (pass + loopback) * workload.output_len.saturating_sub(1) as u64;

    Ok(PipelinedRun {
        workload,
        stages,
        latency_ms: compute.to_millis() + transfer.to_millis(),
        transfer_ms: transfer.to_millis(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_does_not_reduce_latency() {
        // The paper's §IV-B argument at 345M scale: 4-stage pipelined
        // parallelism is slower than 4-way intra-layer parallelism, and
        // no faster than a single device.
        let cfg = GptConfig::gpt2_345m();
        let w = Workload::new(8, 8);
        let pipe = pipelined_generate_timed(&cfg, 4, w).unwrap();
        let single = Appliance::timing_only(cfg.clone(), 1)
            .unwrap()
            .generate_timed(w.input_len, w.output_len)
            .unwrap();
        let intra = Appliance::timing_only(cfg, 4)
            .unwrap()
            .generate_timed(w.input_len, w.output_len)
            .unwrap();
        assert!(
            pipe.latency_ms >= single.total_latency_ms(),
            "pipelined {} ms must not beat single-device {} ms",
            pipe.latency_ms,
            single.total_latency_ms()
        );
        assert!(
            intra.total_latency_ms() < 0.7 * pipe.latency_ms,
            "intra-layer {} ms should clearly beat pipelined {} ms",
            intra.total_latency_ms(),
            pipe.latency_ms
        );
    }

    #[test]
    fn stage_count_must_divide_layers() {
        let cfg = GptConfig::tiny(); // 2 layers
        assert!(pipelined_generate_timed(&cfg, 3, Workload::new(2, 2)).is_err());
        assert!(pipelined_generate_timed(&cfg, 2, Workload::new(2, 2)).is_ok());
    }

    #[test]
    fn overlong_workloads_are_rejected() {
        let cfg = GptConfig::tiny();
        let w = Workload::new(cfg.max_seq_len, 1);
        assert!(matches!(
            pipelined_generate_timed(&cfg, 2, w),
            Err(SimError::InvalidRequest(_))
        ));
    }

    #[test]
    fn transfer_grows_with_stage_count() {
        let cfg = GptConfig::tiny();
        let w = Workload::new(4, 4);
        let p1 = pipelined_generate_timed(&cfg, 1, w).unwrap();
        let p2 = pipelined_generate_timed(&cfg, 2, w).unwrap();
        assert_eq!(p1.transfer_ms, 0.0);
        assert!(p2.transfer_ms > 0.0);
        assert!(p2.latency_ms > p1.latency_ms);
    }
}

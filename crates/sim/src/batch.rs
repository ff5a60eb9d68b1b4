//! Batched execution on the DFX appliance.
//!
//! DFX is deliberately a batch-1 design — the paper's service argument
//! (§III-A) is that datacenter text generation cannot wait to form
//! batches. Measuring that trade-off, rather than asserting it, needs a
//! batched cost model: [`Appliance::generate_batch_timed`] executes one
//! *coalesced batch* of requests through the same per-token cycle model
//! ([`dfx_core::TimingCore::time_step_batched`]), where the batch pays
//! per-request compute, vector and K/V work but shares one weight stream
//! per matrix instruction.
//!
//! Batch semantics follow standard static batching: member workloads are
//! padded to the longest context and the longest output in the batch, so
//! the batch's summarization cost scales with the batch's token work
//! while decode steps amortise weight streaming. A batch of one is
//! bit-identical to [`Appliance::generate_timed`].
//!
//! For token-granular execution — members joining and leaving between
//! decode steps instead of padding to the longest — see the incremental
//! executor [`BatchState`](crate::BatchState), which continuous batching
//! schedules against.

use crate::appliance::Appliance;
use crate::error::SimError;
use dfx_core::StepTiming;
use dfx_hw::PowerModel;
use dfx_model::Workload;
use serde::{Deserialize, Serialize};

/// Timing of one coalesced batch of text-generation requests.
///
/// Mirrors [`TimedRun`](crate::TimedRun) with a batch dimension: the two
/// stage timings cover the whole batch (every member finishes together at
/// the padded shape), and the throughput accounting credits only the
/// tokens the members actually asked for — padding is a cost, not output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchedRun {
    /// The member workloads, in batch order.
    pub workloads: Vec<Workload>,
    /// The padded shape the batch executed at (longest context, longest
    /// output across members).
    pub padded: Workload,
    /// Accumulated timing of the summarization stage for the whole batch.
    pub summarization: StepTiming,
    /// Accumulated timing of the generation stage for the whole batch.
    pub generation: StepTiming,
    /// Cluster size the run was timed for.
    pub num_fpgas: usize,
}

impl BatchedRun {
    /// Number of requests in the batch.
    pub fn batch_size(&self) -> usize {
        self.workloads.len()
    }

    /// Summarization-stage latency in milliseconds.
    pub fn summarization_ms(&self) -> f64 {
        self.summarization.total.to_millis()
    }

    /// Generation-stage latency in milliseconds.
    pub fn generation_ms(&self) -> f64 {
        self.generation.total.to_millis()
    }

    /// End-to-end latency of the batch in milliseconds — every member
    /// sees this latency, because a coalesced batch completes as a unit.
    pub fn total_latency_ms(&self) -> f64 {
        self.summarization_ms() + self.generation_ms()
    }

    /// Output tokens actually requested across the batch (padding steps
    /// produce no credited tokens).
    pub fn output_tokens(&self) -> usize {
        self.workloads.iter().map(|w| w.output_len).sum()
    }

    /// Aggregate throughput: credited output tokens over the batch
    /// latency (the batched counterpart of the paper's §VII-B metric).
    pub fn tokens_per_second(&self) -> f64 {
        self.output_tokens() as f64 / (self.total_latency_ms() / 1e3)
    }

    /// Average datapath activity across the batch (for the power model).
    pub fn activity(&self) -> f64 {
        let mut merged = self.summarization;
        merged.accumulate(&self.generation);
        merged.activity()
    }

    /// Average appliance power in watts.
    pub fn power_w(&self) -> f64 {
        PowerModel::u280_dfx().average_watts(self.activity()) * self.num_fpgas as f64
    }

    /// Output tokens per joule.
    pub fn tokens_per_joule(&self) -> f64 {
        self.tokens_per_second() / self.power_w()
    }
}

impl Appliance {
    /// Times one coalesced batch of workloads (available in both modes,
    /// like [`generate_timed`]).
    ///
    /// Members are padded to the batch's longest context and longest
    /// output; each padded token step runs through
    /// [`dfx_core::TimingCore::time_step_batched`] (once per tile class
    /// per appliance, via its step table), so per-request work scales with the
    /// batch while shared weight streams are paid once.
    /// `generate_batch_timed(&[w])` is bit-identical to
    /// [`generate_timed`]`(w.input_len, w.output_len)`.
    ///
    /// [`generate_timed`]: Appliance::generate_timed
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for an empty batch, for any
    /// member with an empty context, or when the *padded* shape exceeds
    /// the model's maximum sequence length; [`SimError::Memory`] when
    /// the batch's joint K/V claim (every member grows a cache at the
    /// padded shape) does not fit the per-device HBM budget next to the
    /// weight shard ([`Appliance::memory_model`]).
    pub fn generate_batch_timed(&self, batch: &[Workload]) -> Result<BatchedRun, SimError> {
        if batch.is_empty() {
            return Err(SimError::InvalidRequest("empty batch".into()));
        }
        let padded = Workload::new(
            batch.iter().map(|w| w.input_len).fold(0, usize::max),
            batch.iter().map(|w| w.output_len).fold(0, usize::max),
        );
        if let Some(w) = batch.iter().find(|w| w.input_len == 0) {
            return Err(SimError::InvalidRequest(format!(
                "batch member {w} has an empty context"
            )));
        }
        // The padded shape is what actually executes; validating it also
        // covers every member.
        self.check_workload(padded)?;
        if !self.batch_kv_fits(batch.len(), padded) {
            let claim_tokens = batch.len() * padded.total_steps();
            let memory = self.memory_model();
            return Err(SimError::Memory(format!(
                "a {}-way batch padded to {padded} claims {claim_tokens} tokens of K/V \
                 ({:.1} MB), over the {:.1} MB HBM budget left by the weight shard",
                batch.len(),
                memory.kv_claim_bytes(claim_tokens) as f64 / 1e6,
                memory.kv_budget_bytes() as f64 / 1e6,
            )));
        }

        let (summarization, generation) = self.stage_timings(padded, batch.len() as u32);
        Ok(BatchedRun {
            workloads: batch.to_vec(),
            padded,
            summarization,
            generation,
            num_fpgas: self.num_fpgas(),
        })
    }

    /// Whether a static batch of `members` requests, each caching K/V
    /// at the `padded` shape, fits the per-device K/V pool. Members of a
    /// static batch all peak together, so each padded footprint is
    /// rounded up to whole blocks (1-token blocks without paging). The
    /// rule behind [`generate_batch_timed`](Appliance::generate_batch_timed)'s
    /// memory check and the serving layer's feasibility probe.
    pub fn batch_kv_fits(&self, members: usize, padded: Workload) -> bool {
        let block_tokens = self.kv_paging().map_or(1, |p| p.block_tokens);
        let total_blocks = self.memory_model().max_resident_tokens() as usize / block_tokens;
        members * padded.total_steps().div_ceil(block_tokens) <= total_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::GptConfig;

    fn appliance() -> Appliance {
        Appliance::timing_only(GptConfig::tiny(), 2).unwrap()
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_the_unbatched_run() {
        let a = appliance();
        let w = Workload::new(8, 4);
        let batched = a.generate_batch_timed(&[w]).unwrap();
        let single = a.generate_timed(8, 4).unwrap();
        assert_eq!(batched.summarization, single.summarization);
        assert_eq!(batched.generation, single.generation);
        assert_eq!(batched.padded, w);
        assert_eq!(batched.total_latency_ms(), single.total_latency_ms());
        assert_eq!(batched.tokens_per_second(), single.tokens_per_second());
        assert_eq!(batched.power_w(), single.power_w());
    }

    #[test]
    fn batch_cost_is_monotone_in_batch_size() {
        let a = appliance();
        let w = Workload::new(8, 4);
        let mut prev = 0.0;
        for b in 1..=8 {
            let run = a.generate_batch_timed(&vec![w; b]).unwrap();
            assert!(
                run.total_latency_ms() >= prev,
                "batch {b} got cheaper: {} < {prev}",
                run.total_latency_ms()
            );
            prev = run.total_latency_ms();
        }
    }

    #[test]
    fn batching_improves_aggregate_throughput() {
        // Production geometry: the weight stream dominates, so a batch
        // delivers more tokens/s than batch-1 even though its latency is
        // higher — exactly the latency/throughput trade-off the serving
        // experiments sweep.
        let cfg = GptConfig::new("345m-2layer", 1024, 16, 2, 512, 64);
        let a = Appliance::timing_only(cfg, 1).unwrap();
        let w = Workload::new(16, 8);
        let one = a.generate_batch_timed(&[w]).unwrap();
        let four = a.generate_batch_timed(&[w; 4]).unwrap();
        assert!(four.tokens_per_second() > 1.5 * one.tokens_per_second());
        assert!(four.total_latency_ms() > one.total_latency_ms());
    }

    #[test]
    fn heterogeneous_batches_pad_to_the_largest_member() {
        let a = appliance();
        let mixed = a
            .generate_batch_timed(&[Workload::new(4, 2), Workload::new(8, 4)])
            .unwrap();
        let uniform = a
            .generate_batch_timed(&[Workload::new(8, 4), Workload::new(8, 4)])
            .unwrap();
        assert_eq!(mixed.padded, Workload::new(8, 4));
        // Same padded shape, same batch size: identical latency...
        assert_eq!(mixed.total_latency_ms(), uniform.total_latency_ms());
        // ...but padding earns no token credit.
        assert_eq!(mixed.output_tokens(), 6);
        assert_eq!(uniform.output_tokens(), 8);
        assert!(mixed.tokens_per_second() < uniform.tokens_per_second());
    }

    #[test]
    fn invalid_batches_are_rejected() {
        let a = appliance();
        assert!(matches!(
            a.generate_batch_timed(&[]),
            Err(SimError::InvalidRequest(_))
        ));
        assert!(matches!(
            a.generate_batch_timed(&[Workload::new(8, 4), Workload::new(0, 4)]),
            Err(SimError::InvalidRequest(_))
        ));
        // Padded shape exceeding the context window is rejected even if
        // each member alone would fit... (tiny max_seq_len = 128)
        assert!(a
            .generate_batch_timed(&[Workload::new(100, 2), Workload::new(2, 100)])
            .is_err());
    }

    #[test]
    fn over_capacity_batches_are_memory_errors() {
        // Budget for 20 padded tokens of K/V: one 8+4 member fits, a
        // pair (2 x 12 padded tokens) does not — the joint K/V claim,
        // not the padded shape, is what rejects it.
        let a = appliance();
        let m = a.memory_model();
        let capped = Appliance::timing_only(GptConfig::tiny(), 2)
            .unwrap()
            .with_hbm_capacity(m.weight_bytes + 20 * m.kv_bytes_per_token)
            .unwrap();
        let w = Workload::new(8, 4);
        assert!(capped.generate_batch_timed(&[w]).is_ok());
        let err = capped.generate_batch_timed(&[w, w]).unwrap_err();
        assert!(matches!(err, SimError::Memory(_)), "{err:?}");
    }
}

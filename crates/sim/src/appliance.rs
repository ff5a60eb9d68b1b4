//! The DFX appliance: the top-level user-facing API.
//!
//! An [`Appliance`] is a cluster of FPGAs running one model. Two modes
//! exist:
//!
//! - **timing-only** — no weights are materialised; every token step is
//!   compiled to a program and passed through the cycle model. This is
//!   how the full-scale models (345M/774M/1.5B) are evaluated, exactly
//!   like the paper's latency/throughput experiments.
//! - **functional** — test-scale weights execute bit-level on every
//!   simulated core *and* each step is timed, so generated text comes
//!   with its latency report.
//!
//! A token step's cost depends only on its context position, whether it
//! runs the LM head, and the batch it runs for, so each appliance times
//! every such program once and keeps it in a step-cost table that all
//! timed paths share ([`Appliance::timed_step_programs`] counts it).
//! The same memo keeps each `(padded shape, batch)` run's stage sums, so
//! a repeated `generate_timed` or `generate_batch_timed` is one lookup.

use crate::cluster::FunctionalCluster;
use crate::error::SimError;
use dfx_core::{CoreParams, StepTiming, TimingCore};
use dfx_hw::{Cycles, PowerModel};
use dfx_isa::{OpClass, ParallelConfig, ProgramBuilder};
use dfx_model::{GptConfig, GptWeights, Workload};
use dfx_num::F16;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Timing of one full text-generation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedRun {
    /// The workload this run executed.
    pub workload: Workload,
    /// Accumulated timing of the summarization stage (all context
    /// tokens, LM head on the last).
    pub summarization: StepTiming,
    /// Accumulated timing of the generation stage.
    pub generation: StepTiming,
    /// Cluster size the run was timed for.
    pub num_fpgas: usize,
}

impl TimedRun {
    /// Summarization-stage latency in milliseconds.
    pub fn summarization_ms(&self) -> f64 {
        self.summarization.total.to_millis()
    }

    /// Generation-stage latency in milliseconds.
    pub fn generation_ms(&self) -> f64 {
        self.generation.total.to_millis()
    }

    /// End-to-end latency in milliseconds.
    pub fn total_latency_ms(&self) -> f64 {
        self.summarization_ms() + self.generation_ms()
    }

    /// Output tokens per second (the paper's throughput metric: output
    /// tokens over end-to-end latency, §VII-B).
    pub fn tokens_per_second(&self) -> f64 {
        self.workload.output_len as f64 / (self.total_latency_ms() / 1e3)
    }

    /// Merged per-class cycle attribution across both stages.
    pub fn breakdown(&self) -> LatencyBreakdown {
        let mut merged = self.summarization;
        merged.accumulate(&self.generation);
        LatencyBreakdown::from_step(&merged)
    }

    /// Average datapath activity across the run (for the power model).
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

/// Latency attribution by op class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Milliseconds attributed to each class (makespan advancement), in
    /// [`OpClass::ALL`] order; a class the run never used reads 0.
    pub ms: Vec<(OpClass, f64)>,
}

impl LatencyBreakdown {
    fn from_step(step: &StepTiming) -> Self {
        LatencyBreakdown {
            ms: OpClass::ALL
                .iter()
                .map(|&c| (c, step.by_class[c as usize].to_millis()))
                .collect(),
        }
    }

    /// Milliseconds of one class.
    pub fn class_ms(&self, class: OpClass) -> f64 {
        self.ms
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The paper's Fig 15 shares: percentages over the five decoder
    /// classes (Self-Attention, FFN, Synchronization, LayerNorm,
    /// Residual), excluding embedding and LM head.
    pub fn fig15_shares(&self) -> [(OpClass, f64); 5] {
        let classes = [
            OpClass::SelfAttention,
            OpClass::Ffn,
            OpClass::Sync,
            OpClass::LayerNorm,
            OpClass::Residual,
        ];
        let total: f64 = classes.iter().map(|c| self.class_ms(*c)).sum();
        classes.map(|c| (c, 100.0 * self.class_ms(c) / total.max(f64::MIN_POSITIVE)))
    }
}

/// Result of a functional generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRun {
    /// The generated token ids.
    pub tokens: Vec<u32>,
    /// The run's timing.
    pub timed: TimedRun,
}

enum Mode {
    TimingOnly,
    Functional(Box<FunctionalCluster>),
}

/// Step-cost table key: `(context position, LM head, batch)`.
type StepKey = (usize, bool, u32);

/// The appliance's timing memo. Every entry is a pure function of its
/// key, so fill order (and which thread fills) cannot change a value.
#[derive(Default)]
struct TimingMemo {
    /// Every `token_step` program the cycle model has timed.
    steps: BTreeMap<StepKey, StepTiming>,
    /// `(summarization, generation)` of every `(padded shape, batch)`
    /// run, summed from `steps`.
    stages: BTreeMap<(Workload, u32), (StepTiming, StepTiming)>,
}

/// A simulated DFX appliance.
///
/// # Examples
///
/// ```
/// use dfx_sim::Appliance;
/// use dfx_model::GptConfig;
///
/// # fn main() -> Result<(), dfx_sim::SimError> {
/// let appliance = Appliance::timing_only(GptConfig::gpt2_345m(), 1)?;
/// let run = appliance.generate_timed(64, 64)?;
/// assert!(run.total_latency_ms() > 100.0);
/// # Ok(())
/// # }
/// ```
pub struct Appliance {
    cfg: GptConfig,
    num_fpgas: usize,
    builder: ProgramBuilder,
    timing: TimingCore,
    mode: Mode,
    /// Per-device HBM capacity in bytes (the U280's 8 GiB unless
    /// overridden by [`with_hbm_capacity`](Appliance::with_hbm_capacity)
    /// for capacity sweeps).
    hbm_capacity_bytes: u64,
    /// Paged K/V allocation, when enabled by
    /// [`with_kv_paging`](Appliance::with_kv_paging); `None` admits
    /// through a reserved [`BlockPool`](crate::BlockPool).
    kv_paging: Option<crate::PagedKvConfig>,
    /// Step costs and stage sums timed on this appliance, filled on
    /// first use.
    memo: Mutex<TimingMemo>,
}

impl std::fmt::Debug for Appliance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Appliance")
            .field("model", &self.cfg.name)
            .field("num_fpgas", &self.num_fpgas)
            .field(
                "mode",
                &match self.mode {
                    Mode::TimingOnly => "timing-only",
                    Mode::Functional(_) => "functional",
                },
            )
            .finish()
    }
}

impl Appliance {
    /// Creates a timing-only appliance (no weights materialised; use for
    /// full-scale models).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Partition`] if the model does not divide
    /// across `num_fpgas`.
    pub fn timing_only(cfg: GptConfig, num_fpgas: usize) -> Result<Self, SimError> {
        Self::timing_only_with_params(cfg, num_fpgas, CoreParams::default())
    }

    /// Timing-only appliance with custom core parameters (the Fig 8a
    /// design-space exploration re-times attention with different
    /// `(d, l)` geometries).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Partition`] if the model does not divide
    /// across `num_fpgas`.
    pub fn timing_only_with_params(
        cfg: GptConfig,
        num_fpgas: usize,
        params: CoreParams,
    ) -> Result<Self, SimError> {
        let par = ParallelConfig::new(0, num_fpgas);
        Self::check_capacity(&cfg, par)?;
        let builder = ProgramBuilder::new(cfg.clone(), par).map_err(SimError::Partition)?;
        Ok(Appliance {
            cfg,
            num_fpgas,
            builder,
            timing: TimingCore::new(params, num_fpgas as u32),
            mode: Mode::TimingOnly,
            hbm_capacity_bytes: dfx_hw::HbmModel::default().capacity_bytes,
            kv_paging: None,
            memo: Mutex::default(),
        })
    }

    /// Creates a functional appliance executing `weights` bit-level on
    /// every core.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Partition`] if the model does not divide
    /// across `num_fpgas`.
    pub fn functional(weights: GptWeights<F16>, num_fpgas: usize) -> Result<Self, SimError> {
        let cfg = weights.config.clone();
        let par = ParallelConfig::new(0, num_fpgas);
        let builder = ProgramBuilder::new(cfg.clone(), par).map_err(SimError::Partition)?;
        let cluster = FunctionalCluster::new(weights, num_fpgas)?;
        Ok(Appliance {
            cfg,
            num_fpgas,
            builder,
            timing: TimingCore::new(CoreParams::default(), num_fpgas as u32),
            mode: Mode::Functional(Box::new(cluster)),
            hbm_capacity_bytes: dfx_hw::HbmModel::default().capacity_bytes,
            kv_paging: None,
            memo: Mutex::default(),
        })
    }

    /// Overrides the per-device HBM capacity (a what-if knob for the
    /// `memory` experiment's capacity sweeps; the default is the U280's
    /// 8 GiB). The override only moves the *K/V budget* consulted by
    /// [`memory_model`](Appliance::memory_model), the incremental
    /// executor's [`BlockPool`](crate::BlockPool) and the batched path; the
    /// paper's single-request timing paths are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Partition`] when the capacity cannot hold the
    /// weight shard plus at least one token of K/V — a device that can
    /// admit nothing is a partitioning problem, not a serving one.
    pub fn with_hbm_capacity(mut self, capacity_bytes: u64) -> Result<Self, SimError> {
        let model = self.memory_model();
        if model.weight_bytes + model.kv_bytes_per_token > capacity_bytes {
            return Err(SimError::Partition(format!(
                "{:.2} MB of HBM cannot hold {}'s {:.2} MB weight shard plus one token of K/V; \
                 use a larger capacity or a larger cluster",
                capacity_bytes as f64 / 1e6,
                self.cfg.name,
                model.weight_bytes as f64 / 1e6,
            )));
        }
        self.hbm_capacity_bytes = capacity_bytes;
        Ok(self)
    }

    /// Switches the incremental executor's [`BlockPool`](crate::BlockPool)
    /// to paged admission: admission takes blocks for the prompt rather
    /// than the whole `input + output` claim, K/V grows page by page,
    /// exhaustion preempts under `cfg`'s
    /// [`PreemptionPolicy`](crate::PreemptionPolicy), and a non-zero
    /// `shared_prefix_tokens` enables the prefix cache. Without it the
    /// pool is [`reserved`](crate::BlockPool::reserved): admission takes
    /// the whole claim.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for a zero block size and
    /// [`SimError::Partition`] when the K/V budget is smaller than one
    /// block (a pool with zero blocks can admit nothing).
    pub fn with_kv_paging(mut self, cfg: crate::PagedKvConfig) -> Result<Self, SimError> {
        if cfg.block_tokens == 0 {
            return Err(SimError::InvalidRequest(
                "a K/V block must hold at least 1 token".into(),
            ));
        }
        let model = self.memory_model();
        if (model.max_resident_tokens() as usize) < cfg.block_tokens {
            return Err(SimError::Partition(format!(
                "the K/V budget of {} tokens cannot hold a single {}-token block; \
                 use a smaller block size or a larger capacity",
                model.max_resident_tokens(),
                cfg.block_tokens,
            )));
        }
        self.kv_paging = Some(cfg);
        Ok(self)
    }

    /// The paged-K/V configuration, when enabled.
    pub fn kv_paging(&self) -> Option<&crate::PagedKvConfig> {
        self.kv_paging.as_ref()
    }

    /// The per-device HBM capacity model: the always-resident weight
    /// shard (from the model's memory map at this cluster's partition)
    /// and the K/V bytes one context token occupies across this core's
    /// layers and local heads (keys + values, FP16). Its budget is the
    /// joint admission constraint for multi-request execution — every
    /// live member's `input + output` claim must fit next to the
    /// weights on *each* device.
    pub fn memory_model(&self) -> dfx_hw::MemoryModel {
        let par = ParallelConfig::new(0, self.num_fpgas);
        let map = dfx_isa::MemoryMap::for_model(&self.cfg, par);
        let kv_bytes_per_token = (self.cfg.num_layers as u64)
            * (par.heads_per_core(&self.cfg) as u64)
            * (self.cfg.head_dim() as u64)
            * 2 // keys and values
            * 2; // FP16
        dfx_hw::MemoryModel::new(
            self.hbm_capacity_bytes,
            map.weight_footprint(),
            kv_bytes_per_token,
        )
    }

    /// The model configuration.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// Cluster size.
    pub fn num_fpgas(&self) -> usize {
        self.num_fpgas
    }

    /// Timing of one `token_step(pos, lm_head)` program run for `batch`
    /// requests, from the step-cost table. A miss times the program
    /// through [`TimingCore::time_step_batched`] outside the lock.
    fn step(&self, pos: usize, lm_head: bool, batch: u32) -> StepTiming {
        let key = (pos, lm_head, batch);
        let hit = self.memo().steps.get(&key).copied();
        if let Some(timing) = hit {
            return timing;
        }
        let program = self.builder.token_step(pos, lm_head);
        let timing = self.timing.time_step_batched(&program, batch);
        self.memo().steps.insert(key, timing);
        timing
    }

    /// Makespan of one `token_step(pos, lm_head)` program run for
    /// `batch` requests (the continuous executor's step cost).
    pub(crate) fn step_cycles(&self, pos: usize, lm_head: bool, batch: u32) -> Cycles {
        self.step(pos, lm_head, batch).total
    }

    /// Summed makespans of prefill positions `from..to` over an
    /// `input_len`-token context at batch 1, LM head from the context's
    /// last position on. Holds the lock across hits and releases it to
    /// time a miss.
    pub(crate) fn prefill_cycles(&self, input_len: usize, from: usize, to: usize) -> Cycles {
        let mut cycles = Cycles::ZERO;
        let mut memo = self.memo();
        for pos in from..to {
            let lm_head = pos + 1 >= input_len;
            cycles += match memo.steps.get(&(pos, lm_head, 1)) {
                Some(timing) => timing.total,
                None => {
                    drop(memo);
                    let total = self.step_cycles(pos, lm_head, 1);
                    memo = self.memo();
                    total
                }
            };
        }
        cycles
    }

    /// Number of distinct `token_step` programs the cycle model has
    /// timed on this appliance (the step-cost table's size). Every timed
    /// path (`generate_timed`, `generate_batch_timed` and every
    /// [`BatchState`](crate::BatchState)) shares the one table, so a
    /// program is timed once per appliance however often it recurs.
    pub fn timed_step_programs(&self) -> usize {
        self.memo().steps.len()
    }

    /// The timing memo, recovered if a panicking thread poisoned the
    /// lock (entries are inserted whole, so it is never torn).
    fn memo(&self) -> MutexGuard<'_, TimingMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Times `padded.input_len` summarization steps (LM head on the
    /// last, when any output follows) and `padded.output_len - 1`
    /// generation steps, each run for `batch` requests. A repeated
    /// `(padded, batch)` is one memo lookup.
    pub(crate) fn stage_timings(&self, padded: Workload, batch: u32) -> (StepTiming, StepTiming) {
        let hit = self.memo().stages.get(&(padded, batch)).copied();
        if let Some(stages) = hit {
            return stages;
        }
        let mut summarization = StepTiming::default();
        for pos in 0..padded.input_len {
            let lm = pos + 1 == padded.input_len && padded.output_len > 0;
            summarization.accumulate(&self.step(pos, lm, batch));
        }
        let mut generation = StepTiming::default();
        for out in 1..padded.output_len {
            generation.accumulate(&self.step(padded.input_len + out - 1, true, batch));
        }
        self.memo()
            .stages
            .insert((padded, batch), (summarization, generation));
        (summarization, generation)
    }

    /// Times one workload without executing data (available in both
    /// modes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for empty or overlong
    /// workloads.
    pub fn generate_timed(
        &self,
        input_len: usize,
        output_len: usize,
    ) -> Result<TimedRun, SimError> {
        let workload = Workload::new(input_len, output_len);
        self.check_workload(workload)?;
        let (summarization, generation) = self.stage_timings(workload, 1);
        Ok(TimedRun {
            workload,
            summarization,
            generation,
            num_fpgas: self.num_fpgas,
        })
    }

    /// Generates text functionally (functional mode only), returning the
    /// tokens together with the run's timing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] in timing-only mode or for
    /// invalid workloads, and propagates cluster errors.
    pub fn generate(
        &mut self,
        input: &[u32],
        output_len: usize,
    ) -> Result<GenerationRun, SimError> {
        let timed = self.generate_timed(input.len(), output_len)?;
        match &mut self.mode {
            Mode::TimingOnly => Err(SimError::InvalidRequest(
                "functional generation requires Appliance::functional".into(),
            )),
            Mode::Functional(cluster) => {
                cluster.reset()?;
                let tokens = cluster.generate(input, output_len)?;
                Ok(GenerationRun { tokens, timed })
            }
        }
    }

    /// Verifies one core's weight partition plus fully grown KV cache
    /// fits the U280's 8 GB of HBM — the capacity constraint that forces
    /// model parallelism in the first place (paper §III-C). Makes the
    /// GPT-3 projection honest: `gpt3_13b` needs at least 4 FPGAs.
    fn check_capacity(cfg: &GptConfig, par: ParallelConfig) -> Result<(), SimError> {
        par.check(cfg).map_err(SimError::Partition)?;
        let map = dfx_isa::MemoryMap::for_model(cfg, par);
        let capacity = dfx_hw::HbmModel::default().capacity_bytes;
        let need = map.hbm_footprint();
        if need > capacity {
            return Err(SimError::Partition(format!(
                "{}'s per-core HBM footprint ({:.2} GB weights+KV) exceeds the U280's {:.0} GB; \
                 use a larger cluster",
                cfg.name,
                need as f64 / 1e9,
                capacity as f64 / 1e9,
            )));
        }
        Ok(())
    }

    pub(crate) fn check_workload(&self, w: Workload) -> Result<(), SimError> {
        if w.input_len == 0 {
            return Err(SimError::InvalidRequest("empty context".into()));
        }
        if w.input_len + w.output_len > self.cfg.max_seq_len {
            return Err(SimError::InvalidRequest(format!(
                "sequence of {} exceeds the model maximum {}",
                w.input_len + w.output_len,
                self.cfg.max_seq_len
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_run_reports_consistent_stages() {
        let a = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let run = a.generate_timed(8, 4).unwrap();
        assert!(run.summarization_ms() > 0.0);
        assert!(run.generation_ms() > 0.0);
        assert!(
            (run.total_latency_ms() - run.summarization_ms() - run.generation_ms()).abs() < 1e-9
        );
        assert!(run.tokens_per_second() > 0.0);
    }

    #[test]
    fn every_timed_path_shares_one_step_cost_table() {
        let a = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        assert_eq!(a.timed_step_programs(), 0);
        // 8 summarization steps (LM head on the last) + 3 generation steps.
        let run = a.generate_timed(8, 4).unwrap();
        assert_eq!(a.timed_step_programs(), 11);

        // The static batch of one, a solo continuous run and the
        // prefill estimate all hit the table.
        let w = Workload::new(8, 4);
        let batched = a.generate_batch_timed(&[w]).unwrap();
        assert_eq!(batched.summarization, run.summarization);
        assert_eq!(batched.generation, run.generation);
        let mut solo = a.batch_state();
        solo.admit(0, w).unwrap();
        while solo.live() > 0 {
            solo.step_token().unwrap();
        }
        assert_eq!(solo.prefill_cost_ms(8), run.summarization_ms());
        assert_eq!(a.timed_step_programs(), 11);
        // The single run and the batch of one share one stage entry.
        assert_eq!(a.memo().stages.len(), 1);

        // A two-member batch re-times only its batch-2 decode steps.
        let before: Vec<StepKey> = a.memo().steps.keys().copied().collect();
        let mut pair = a.batch_state();
        pair.admit(0, w).unwrap();
        pair.admit(1, w).unwrap();
        while pair.live() > 0 {
            pair.step_token().unwrap();
        }
        let added: Vec<StepKey> = a
            .memo()
            .steps
            .keys()
            .filter(|k| !before.contains(k))
            .copied()
            .collect();
        assert_eq!(added, vec![(8, true, 2), (9, true, 2), (10, true, 2)]);
        assert_eq!(a.timed_step_programs(), 14);
    }

    #[test]
    fn table_entries_reproduce_the_cycle_model_exactly() {
        let a = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        for batch in [1u32, 3] {
            let padded = Workload::new(6, 3);
            let mut direct = (StepTiming::default(), StepTiming::default());
            for pos in 0..6 {
                let program = a.builder.token_step(pos, pos == 5);
                direct
                    .0
                    .accumulate(&a.timing.time_step_batched(&program, batch));
            }
            for pos in 6..8 {
                let program = a.builder.token_step(pos, true);
                direct
                    .1
                    .accumulate(&a.timing.time_step_batched(&program, batch));
            }
            // Cold (filling the memo), then warm (reading it back).
            assert_eq!(a.stage_timings(padded, batch), direct);
            assert_eq!(a.stage_timings(padded, batch), direct);
        }
    }

    #[test]
    fn one_output_token_means_no_generation_stage() {
        let a = Appliance::timing_only(GptConfig::tiny(), 1).unwrap();
        let run = a.generate_timed(8, 1).unwrap();
        assert_eq!(run.generation.total.0, 0);
        assert!(run.summarization.total.0 > 0);
    }

    #[test]
    fn latency_is_monotone_in_both_dimensions() {
        let a = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let base = a.generate_timed(8, 4).unwrap().total_latency_ms();
        let more_in = a.generate_timed(16, 4).unwrap().total_latency_ms();
        let more_out = a.generate_timed(8, 8).unwrap().total_latency_ms();
        assert!(more_in > base);
        assert!(more_out > base);
    }

    #[test]
    fn functional_mode_generates_and_times() {
        let w = GptWeights::synthetic(&GptConfig::tiny()).cast::<F16>();
        let mut a = Appliance::functional(w, 2).unwrap();
        let run = a.generate(&[1, 2, 3, 4], 5).unwrap();
        assert_eq!(run.tokens.len(), 5);
        assert!(run.timed.total_latency_ms() > 0.0);
        // Repeat runs are deterministic thanks to the internal reset.
        let run2 = a.generate(&[1, 2, 3, 4], 5).unwrap();
        assert_eq!(run.tokens, run2.tokens);
    }

    #[test]
    fn timing_only_mode_rejects_functional_generation() {
        let mut a = Appliance::timing_only(GptConfig::tiny(), 1).unwrap();
        assert!(matches!(
            a.generate(&[1, 2], 2),
            Err(SimError::InvalidRequest(_))
        ));
    }

    #[test]
    fn fig15_shares_sum_to_100() {
        let a = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let run = a.generate_timed(4, 4).unwrap();
        let shares = run.breakdown().fig15_shares();
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 100.0).abs() < 1e-6, "{sum}");
    }

    #[test]
    fn capacity_check_gates_large_models() {
        // GPT-3 13B weights alone are ~25.7 GB of FP16: one or two U280s
        // cannot hold a partition; four can.
        let err = Appliance::timing_only(GptConfig::gpt3_13b(), 2).unwrap_err();
        assert!(matches!(err, SimError::Partition(m) if m.contains("HBM footprint")));
        assert!(Appliance::timing_only(GptConfig::gpt3_13b(), 4).is_ok());
        // All paper configurations fit at their published cluster sizes.
        assert!(Appliance::timing_only(GptConfig::gpt2_345m(), 1).is_ok());
        assert!(Appliance::timing_only(GptConfig::gpt2_1_5b(), 4).is_ok());
    }

    #[test]
    fn memory_model_matches_the_paper_geometry() {
        // GPT-2 1.5B across 4 U280s: each device holds a quarter of the
        // decoder weights (~0.68 GB) plus its vocabulary slice of the LM
        // head, and one context token's K/V costs
        // 48 layers x 6 local heads x 64 dims x 2 (K+V) x 2 B = 72 KiB.
        let a = Appliance::timing_only(GptConfig::gpt2_1_5b(), 4).unwrap();
        let m = a.memory_model();
        assert_eq!(m.capacity_bytes, 8 * (1 << 30));
        assert_eq!(m.kv_bytes_per_token, 48 * 6 * 64 * 2 * 2);
        let decoder_share = GptConfig::gpt2_1_5b().decoder_weight_bytes() / 4;
        assert!(
            m.weight_bytes > decoder_share && m.weight_bytes < decoder_share + (100 << 20),
            "weight shard {} vs decoder share {decoder_share}",
            m.weight_bytes
        );
        // The budget holds two orders of magnitude more context than one
        // max-length sequence — the headroom continuous batching spends.
        assert!(m.max_resident_tokens() > 50 * 1024);
    }

    #[test]
    fn hbm_capacity_override_moves_the_kv_budget() {
        let a = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let weights = a.memory_model().weight_bytes;
        let per_token = a.memory_model().kv_bytes_per_token;
        let small = Appliance::timing_only(GptConfig::tiny(), 2)
            .unwrap()
            .with_hbm_capacity(weights + 64 * per_token)
            .unwrap();
        assert_eq!(small.memory_model().max_resident_tokens(), 64);
        // A capacity below the weight shard is a partitioning error.
        let err = Appliance::timing_only(GptConfig::tiny(), 2)
            .unwrap()
            .with_hbm_capacity(weights)
            .unwrap_err();
        assert!(matches!(err, SimError::Partition(_)), "{err:?}");
    }

    #[test]
    fn power_scales_with_cluster_size() {
        let a1 = Appliance::timing_only(GptConfig::tiny(), 1).unwrap();
        let a2 = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let p1 = a1.generate_timed(4, 4).unwrap().power_w();
        let p2 = a2.generate_timed(4, 4).unwrap().power_w();
        assert!(p2 > 1.5 * p1);
    }
}

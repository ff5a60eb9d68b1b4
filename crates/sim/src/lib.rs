//! # dfx-sim — the simulated DFX appliance and its experiments
//!
//! Ties the stack together: the homogeneous multi-core functional
//! cluster with ring synchronisation, the [`Appliance`] API (timing-only
//! for full-scale models, functional for bit-level runs), stage-level
//! GFLOPS accounting, the Table II cost model and the §VII-A accuracy
//! harness.
//!
//! ```
//! use dfx_sim::Appliance;
//! use dfx_model::GptConfig;
//!
//! # fn main() -> Result<(), dfx_sim::SimError> {
//! // The paper's headline setup: GPT-2 1.5B on four FPGAs.
//! let appliance = Appliance::timing_only(GptConfig::gpt2_1_5b(), 4)?;
//! let run = appliance.generate_timed(32, 4)?;
//! println!("[32:4] latency = {:.1} ms", run.total_latency_ms());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod accuracy;
mod appliance;
mod batch;
mod block;
mod cluster;
mod continuous;
mod cost;
mod error;
mod gflops;
mod pipeline;

pub use accuracy::{
    accuracy_items, paper_tasks, quick_tasks, run_accuracy, AccuracyResult, AccuracyScorer,
    AccuracyTask,
};
pub use appliance::{Appliance, GenerationRun, LatencyBreakdown, TimedRun};
pub use batch::BatchedRun;
pub use block::{BlockPool, PagedKvConfig, PagingStats, PreemptionPolicy, Prefix};
pub use cluster::FunctionalCluster;
pub use continuous::{validate_workload, BatchState, ContinuousStepper, StepEvent};
pub use cost::{ApplianceCost, CostComparison, U280_PRICE_USD, V100_PRICE_USD};
pub use error::SimError;
pub use gflops::{dfx_stage_gflops, StageGflops};
pub use pipeline::{pipelined_generate_timed, PipelinedRun};

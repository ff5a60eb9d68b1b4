//! # dfx-core — the DFX compute core
//!
//! The programmable core of the appliance (paper §V): control unit,
//! scheduler and scoreboard, register files with operand collection,
//! matrix processing unit (d × l MAC trees + SFU_M with masking, GELU
//! LUT and reduce-max), vector processing unit (d-wide FP16 ALU + SFU_V),
//! DMA-fed weight streaming and ring-router synchronisation.
//!
//! Two engines execute the same `dfx-isa` programs:
//!
//! - [`FunctionalCore`] — the bit-level data plane. Runs real FP16 math
//!   with MAC-tree reduction semantics on partitioned weights
//!   ([`CoreWeights`]) and the transpose-layout KV store. Used to
//!   validate the appliance against the `dfx-model` reference and for
//!   the accuracy experiments.
//! - [`TimingCore`] — the data-free cycle model. Places every instruction
//!   on its unit with scoreboard dependencies, issue-rate limits,
//!   accumulation hazards and `max(compute, stream)` DMA overlap. Used
//!   for every performance experiment.
//!
//! ```
//! use dfx_core::{CoreParams, TimingCore};
//! use dfx_isa::{ParallelConfig, ProgramBuilder};
//! use dfx_model::GptConfig;
//!
//! // Time one generation-stage token step of a 2-core cluster.
//! let builder = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 2)).unwrap();
//! let engine = TimingCore::new(CoreParams::default(), 2);
//! let step = engine.time_step(&builder.token_step(8, true));
//! println!("{} µs", step.total.to_micros());
//! ```

#![warn(missing_docs)]

mod error;
mod exec;
mod params;
mod scoreboard;
mod timing;
mod weights;

pub use dfx_isa::{NUM_SREGS, NUM_VREGS};
pub use error::ExecError;
pub use exec::{CoreEvent, FunctionalCore};
pub use params::CoreParams;
pub use scoreboard::Scoreboard;
pub use timing::{StepTiming, TimingCore, Unit};
pub use weights::{CoreLayerWeights, CoreWeights, HeadKv, KvStore, LaneTiles};

//! # dfx-baseline — the paper's comparison platforms
//!
//! Analytic performance models of the evaluation baselines: a custom
//! appliance of NVIDIA V100 GPUs running Megatron-LM (the primary
//! comparison of Figs 3, 4, 14, 16 and Table II) and a cloud TPU
//! (Fig 17). We have no access to either device; every constant is fitted
//! to data points published in the paper and documented next to its
//! anchor in the `calib` modules — see DESIGN.md for the substitution
//! rationale.
//!
//! ```
//! use dfx_baseline::GpuModel;
//! use dfx_model::{GptConfig, Workload};
//!
//! let gpu = GpuModel::new(GptConfig::gpt2_345m(), 1);
//! let r = gpu.run(Workload::new(32, 16));
//! assert!(r.generation_ms > r.summarization_ms);
//! ```

#![warn(missing_docs)]

mod gpu;
mod tpu;

pub use gpu::{calib as gpu_calib, EmptyBatch, GpuLayerBreakdown, GpuModel, GpuReport};
pub use tpu::{calib as tpu_calib, TpuModel, TpuReport};

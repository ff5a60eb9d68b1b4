//! # DFX — a simulated multi-FPGA appliance for transformer text generation
//!
//! This crate is the façade of the DFX workspace, a full reproduction of
//! *"DFX: A Low-latency Multi-FPGA Appliance for Accelerating
//! Transformer-based Text Generation"* (MICRO 2022) as a cycle-approximate
//! software simulator. It re-exports the public API of every subsystem:
//!
//! - [`num`] — IEEE 754 half-precision arithmetic and the special-function
//!   units (GELU lookup table, exponential, reciprocal, rsqrt).
//! - [`model`] — GPT-2 configurations, synthetic weights and the
//!   precision-generic reference implementation.
//! - [`isa`] — the DFX instruction set and the program builder that lowers
//!   GPT-2 inference onto it.
//! - [`hw`] — hardware substrate models: HBM, DDR, DMA with the zigzag
//!   tiling scheme, the Aurora ring network, FPGA resources, power, and
//!   the per-device [`MemoryModel`](hw::MemoryModel) capacity model
//!   (weight-shard residency + K/V bytes per token) the serving stack
//!   admits against.
//! - [`core`] — the DFX compute core: scheduler, scoreboard, matrix and
//!   vector processing units, functional executor and timing engine.
//! - [`baseline`] — calibrated analytic GPU (4×V100 / Megatron-LM) and TPU
//!   baselines used by the paper's evaluation.
//! - [`sim`] — the multi-FPGA cluster and appliance API plus the
//!   experiment harnesses (latency, breakdown, throughput, energy, cost,
//!   accuracy).
//! - [`serve`] — the unified [`Backend`](serve::Backend) trait over
//!   DFX/GPU/TPU (single requests, coalesced batches, token-granular
//!   [`ContinuousStepper`](serve::ContinuousStepper)s and the
//!   [`memory`](serve::Backend::memory) capacity capability) and the
//!   request-serving engine (schedulers — size-and-timeout
//!   [`Batching`](serve::Batching), token-boundary, memory- and
//!   prefill-aware [`ContinuousBatching`](serve::ContinuousBatching)
//!   with chunked prefill — arrival processes, tail-latency reports),
//!   plus the cluster tier: a deterministic
//!   [`ClusterRouter`](serve::ClusterRouter) over N replica engines
//!   with pluggable [`Placement`](serve::Placement) policies, session
//!   affinity, and prefill/decode disaggregation over a modelled
//!   [`LinkModel`](hw::LinkModel), and the observability layer
//!   ([`serve::telemetry`]): Prometheus-format metrics, per-request
//!   lifecycle traces with Chrome trace-event export, TTFT/ITL
//!   percentiles and per-request energy attribution.
//!
//! `ARCHITECTURE.md` at the repository root maps the paper's sections,
//! figures and tables onto these crates and the `reproduce` ids that
//! regenerate them.
//!
//! ## Quickstart
//!
//! ```
//! use dfx::model::GptConfig;
//! use dfx::sim::Appliance;
//!
//! # fn main() -> Result<(), dfx::sim::SimError> {
//! // A 4-FPGA appliance running the 1.5B-parameter GPT-2 (timing mode).
//! let appliance = Appliance::timing_only(GptConfig::gpt2_1_5b(), 4)?;
//! let report = appliance.generate_timed(64, 64)?;
//! println!("latency: {:.1} ms", report.total_latency_ms());
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving a request stream
//!
//! Every platform implements [`serve::Backend`]; the engine pushes a
//! seeded arrival process through any of them and reports tail latency.
//! Swap the queue discipline with
//! [`with_scheduler`](serve::ServingEngine::with_scheduler):
//! [`serve::Batching`] coalesces requests into static padded batches,
//! [`serve::ContinuousBatching`] admits requests into a *running* batch
//! at token boundaries (members exit the moment they finish), and
//! [`serve::ShortestJobFirst`] trades mean sojourn for worst-case —
//! plain SJF can starve long requests under sustained load;
//! [`ShortestJobFirst::with_aging`](serve::ShortestJobFirst::with_aging)
//! bounds that:
//!
//! ```
//! use dfx::model::{GptConfig, Workload};
//! use dfx::serve::{ArrivalProcess, ServingEngine};
//! use dfx::sim::Appliance;
//!
//! # fn main() -> Result<(), dfx::sim::SimError> {
//! let appliance = Appliance::timing_only(GptConfig::tiny(), 2)?;
//! let stream = vec![Workload::new(8, 8); 16];
//! let poisson = ArrivalProcess::Poisson { rate_per_s: 10.0, seed: 7 };
//! let report = ServingEngine::new(&appliance).run(&stream, &poisson)?;
//! println!("p99 sojourn: {:.1} ms", report.p99_sojourn_ms);
//! # Ok(())
//! # }
//! ```
//!
//! ## The HBM/KV memory budget
//!
//! Each device's HBM holds the weight shard plus every live request's
//! K/V attention state (paper §IV-B), so multi-request admission is
//! capacity-bounded: every member claims `input + output` tokens of
//! K/V ([`hw::MemoryModel`], brokered by [`sim::BlockPool`] inside the
//! incremental executor), and the continuous-batching disciplines keep
//! the joint claim within [`Backend::memory`](serve::Backend::memory)'s
//! budget. [`ContinuousBatching::with_prefill_chunk`](serve::ContinuousBatching::with_prefill_chunk)
//! additionally splits admission prefills into token-budgeted chunks
//! interleaved with decode (Sarathi/TGI style), bounding the decode
//! stall running members feel:
//!
//! ```
//! use dfx::model::GptConfig;
//! use dfx::sim::Appliance;
//!
//! # fn main() -> Result<(), dfx::sim::SimError> {
//! let appliance = Appliance::timing_only(GptConfig::gpt2_1_5b(), 4)?;
//! let memory = appliance.memory_model();
//! // ~0.7 GiB weight shard, 72 KiB of K/V per token, ~105k tokens of
//! // K/V budget per device.
//! assert_eq!(memory.kv_bytes_per_token, 73_728);
//! assert!(memory.max_resident_tokens() > 100_000);
//! # Ok(())
//! # }
//! ```
//!
//! ## Routing across a cluster of replicas
//!
//! A fleet puts a [`ClusterRouter`](serve::ClusterRouter) in front of
//! independent replica engines and picks a replica per request through
//! a [`Placement`](serve::Placement) policy — round-robin,
//! least-outstanding, K/V-load-aware
//! ([`LeastKvLoaded`](serve::LeastKvLoaded)), or session-affine
//! ([`SessionAffinity`](serve::SessionAffinity), which keeps a
//! session's shared-prefix cache warm on one replica). Replicas may be
//! heterogeneous (different shard widths per replica), and a
//! [`DisaggregatedCluster`](serve::DisaggregatedCluster) splits
//! prefill from decode with the K/V handoff costed over an
//! [`hw::LinkModel`]. The report pools percentiles across replicas —
//! never averages them — and carries a Jain balance index:
//!
//! ```
//! use dfx::model::GptConfig;
//! use dfx::serve::{ArrivalProcess, Backend, ClusterRouter, RoundRobin};
//! use dfx::serve::chatbot_mix;
//! use dfx::sim::Appliance;
//!
//! # fn main() -> Result<(), dfx::sim::SimError> {
//! let a = Appliance::timing_only(GptConfig::tiny(), 1)?;
//! let b = Appliance::timing_only(GptConfig::tiny(), 1)?;
//! let mut router = ClusterRouter::uniform(
//!     vec![&a as &dyn Backend, &b as &dyn Backend],
//!     Box::new(RoundRobin::new()),
//! )?;
//! let stream = chatbot_mix(8, 128);
//! let poisson = ArrivalProcess::Poisson { rate_per_s: 20.0, seed: 7 };
//! let report = router.run(&stream, &poisson)?;
//! assert_eq!(report.total_requests, 8);
//! assert_eq!(report.balance_index, 1.0); // round-robin splits 4:4
//! # Ok(())
//! # }
//! ```
//!
//! ## Observability
//!
//! Every run can be traced and scraped. [`run_traced`](serve::ServingEngine::run_traced)
//! returns the usual [`ServiceReport`](serve::ServiceReport) — now with
//! first-class TTFT/ITL percentiles and energy — plus a
//! [`RunTrace`](serve::RunTrace) of per-request lifecycle spans that
//! exports as Chrome trace-event JSON; a
//! [`MetricsRegistry`](serve::MetricsRegistry) renders counters, gauges
//! and log-bucketed histograms in Prometheus text exposition format.
//! All timestamps are simulated, so both dumps are bit-identical across
//! runs:
//!
//! ```
//! use dfx::serve::telemetry::{validate_prometheus, Labels, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! let labels = Labels::new().with("backend", "dfx").with("discipline", "continuous");
//! reg.counter("dfx_requests_total", "Requests retired.", &labels, 96);
//! reg.gauge("dfx_p99_ttft_ms", "p99 time to first token.", &labels, 41.5);
//! reg.observe("dfx_request_ttft_ms", "Per-request TTFT.", &labels, &[12.0]);
//!
//! let text = reg.render();
//! assert!(text.contains("# TYPE dfx_requests_total counter"));
//! assert!(text.contains(r#"dfx_requests_total{backend="dfx",discipline="continuous"} 96"#));
//! // The exposition validates line by line (CI runs this on real dumps).
//! assert!(validate_prometheus(&text).is_ok());
//! ```
//!
//! See `examples/` for end-to-end scenarios, `crates/bench` for the
//! harness that regenerates every table and figure of the paper, and
//! `ARCHITECTURE.md` for the full paper-section ↔ crate map.

pub use dfx_baseline as baseline;
pub use dfx_core as core;
pub use dfx_hw as hw;
pub use dfx_isa as isa;
pub use dfx_model as model;
pub use dfx_num as num;
pub use dfx_serve as serve;
pub use dfx_sim as sim;

//! # dfx-serve — one execution API, and a request-serving engine on top
//!
//! The paper's pitch is service-level (§III-A): datacenter text
//! generation runs *non-batched* request streams, so what users feel is
//! tail latency under load, not raw FLOPs. This crate supplies the two
//! abstractions that view needs:
//!
//! - [`Backend`] — a uniform `serve(Workload) -> RunReport` over every
//!   platform in the evaluation: the DFX [`Appliance`], the V100
//!   [`GpuModel`] and the cloud [`TpuModel`]. One report shape
//!   ([`RunReport`]) carries stage latencies, tokens/s and energy, so
//!   callers stop pattern-matching on three platform-specific structs.
//! - [`ServingEngine`] — a deterministic discrete-event simulator that
//!   drives any backend (or a pool behind one queue) through a pluggable
//!   [`Scheduler`] with seeded [`ArrivalProcess`] generators (Poisson,
//!   closed-loop, trace replay), producing a [`ServiceReport`] with
//!   p50/p95/p99 sojourn, queue depth, utilization and goodput.
//!
//! ```
//! use dfx_model::{GptConfig, Workload};
//! use dfx_serve::{ArrivalProcess, Backend, ServingEngine};
//! use dfx_sim::Appliance;
//!
//! # fn main() -> Result<(), dfx_sim::SimError> {
//! let appliance = Appliance::timing_only(GptConfig::tiny(), 2)?;
//! // The unified per-request API...
//! let report = appliance.serve(Workload::new(8, 8))?;
//! assert!(report.tokens_per_second() > 0.0);
//! // ...and the service-level view of the same backend.
//! let stream = vec![Workload::new(8, 8); 16];
//! let poisson = ArrivalProcess::Poisson { rate_per_s: 10.0, seed: 7 };
//! let service = ServingEngine::new(&appliance).run(&stream, &poisson)?;
//! assert!(service.p99_sojourn_ms >= service.p50_sojourn_ms);
//! # Ok(())
//! # }
//! ```
//!
//! [`Appliance`]: dfx_sim::Appliance
//! [`GpuModel`]: dfx_baseline::GpuModel
//! [`TpuModel`]: dfx_baseline::TpuModel

#![warn(missing_docs)]

mod arrivals;
mod backend;
mod checkpoint;
mod cluster;
mod engine;
mod mix;
mod scheduler;
pub mod stats;
mod stepper;
pub mod telemetry;

pub use arrivals::ArrivalProcess;
pub use backend::{Backend, BatchReport, RunReport};
/// Incremental engine checkpoints ([`EngineCheckpoint`]): one request
/// stream simulated in time order as its arrivals become known — the
/// seam every cluster replica streams through, with reports
/// bit-identical to a batch run.
pub use checkpoint::EngineCheckpoint;
/// Cluster tier ([`ClusterRouter`]): deterministic routing across N
/// replica engines with pluggable [`Placement`] policies
/// ([`RoundRobin`], [`LeastOutstanding`], [`LeastKvLoaded`],
/// [`SessionAffinity`]), pooled cross-replica percentiles and a Jain
/// [`jain_fairness`] balance index in the [`ClusterReport`]; a
/// [`DisaggregatedCluster`] chains a prefill router and a
/// [`DecodeOnly`]-wrapped decode router over a modelled K/V link.
pub use cluster::{
    jain_fairness, ClusterReport, ClusterRouter, DecodeOnly, DisaggregatedCluster, LeastKvLoaded,
    LeastOutstanding, Placement, ReplicaReport, ReplicaSnapshot, RoundRobin, RoutedRequest,
    SessionAffinity, TransferStats,
};
/// The token-step seam, defined in `dfx_sim` next to the appliance's
/// stepper: [`ContinuousStepper`] (returned by
/// [`Backend::continuous`]), the [`StepEvent`] each admission and step
/// reports, and the [`validate_workload`] check every backend and
/// stepper applies.
pub use dfx_sim::{validate_workload, ContinuousStepper, StepEvent};
pub use engine::{Request, Response, ServiceReport, ServingEngine};
pub use mix::chatbot_mix;
/// Queue disciplines for [`ServingEngine::with_scheduler`]: [`Fifo`]
/// (arrival order), [`Batching`] (size-and-timeout static coalescing;
/// `max_batch == 1` is exactly FIFO), [`ContinuousBatching`]
/// (token-boundary admission and early exit on backends with a
/// [`ContinuousStepper`]; `max_batch == 1` is exactly FIFO; admission
/// keeps the joint K/V claim within the backend's
/// [`Backend::memory`] budget, and the
/// [`with_slo`](ContinuousBatching::with_slo) /
/// [`with_prefill_chunk`](ContinuousBatching::with_prefill_chunk)
/// options add prefill-aware deferral and Sarathi-style chunked
/// prefill) and [`ShortestJobFirst`] — plain SJF starves long requests
/// under sustained load; [`ShortestJobFirst::with_aging`] bounds that
/// by serving the oldest queued request once it has waited the age
/// bound.
pub use scheduler::{
    AdmissionProbe, BatchDecision, Batching, ContinuousBatching, Fifo, RunningMember, Scheduler,
    ShortestJobFirst, UnboundedProbe,
};
/// Observability ([`telemetry`]): a deterministic, dependency-free
/// [`MetricsRegistry`] rendered in Prometheus text exposition format,
/// per-request lifecycle traces ([`RunTrace`], built by
/// [`ServingEngine::run_traced`]) exportable as Chrome trace-event
/// JSON, and per-request energy attribution — every timestamp is
/// simulated time, so exports are bit-identical across runs.
pub use telemetry::{Labels, MetricsRegistry, RequestTrace, RunTrace, SpanOutcome};

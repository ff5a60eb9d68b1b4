//! The unified execution backend: one `serve` call, one report shape,
//! for every platform the paper evaluates.
//!
//! Before this trait existed, `Appliance::generate_timed(in, out)`,
//! `GpuModel::run(Workload)` and `TpuModel::run(Workload)` had three
//! incompatible signatures and three incompatible report structs, so
//! every experiment and example re-adapted them by hand. [`Backend`]
//! collapses the three into `serve(Workload) -> RunReport`.

use crate::stepper::{ApplianceStepper, ContinuousStepper, GpuStepper};
use dfx_baseline::{gpu_calib, GpuModel, TpuModel};
use dfx_hw::MemoryModel;
use dfx_model::Workload;
use dfx_sim::{Appliance, SimError};
use serde::{Deserialize, Serialize};

/// Joint K/V feasibility of a *static coalesced* batch: every member's
/// cache grows at the padded shape, and all are resident at once.
fn padded_kv_fits(memory: &MemoryModel, batch: &[Workload]) -> bool {
    let padded = batch.iter().map(|w| w.input_len).max().unwrap_or(0)
        + batch.iter().map(|w| w.output_len).max().unwrap_or(0);
    memory.fits_tokens(batch.len() * padded)
}

/// Platform-independent result of serving one coalesced batch of
/// requests.
///
/// A coalesced batch completes as a unit: every member experiences the
/// same [`total_ms`](BatchReport::total_ms), and throughput credits only
/// the output tokens members actually asked for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// The member workloads, in batch order.
    pub workloads: Vec<Workload>,
    /// Summarization-stage latency of the whole batch, ms.
    pub summarization_ms: f64,
    /// Generation-stage latency of the whole batch, ms.
    pub generation_ms: f64,
    /// Accelerator cards the run occupied.
    pub devices: usize,
    /// Average board power across the run, W (`None` when uncalibrated).
    pub power_w: Option<f64>,
}

impl BatchReport {
    /// Number of requests in the batch.
    pub fn batch_size(&self) -> usize {
        self.workloads.len()
    }

    /// End-to-end latency of the batch, ms.
    pub fn total_ms(&self) -> f64 {
        self.summarization_ms + self.generation_ms
    }

    /// Output tokens requested across the batch.
    pub fn output_tokens(&self) -> usize {
        self.workloads.iter().map(|w| w.output_len).sum()
    }

    /// Aggregate throughput: credited output tokens over the batch
    /// latency.
    pub fn tokens_per_second(&self) -> f64 {
        self.output_tokens() as f64 / (self.total_ms() / 1e3)
    }

    /// Energy of the batch in joules, if the platform models power.
    pub fn energy_j(&self) -> Option<f64> {
        self.power_w.map(|p| p * self.total_ms() / 1e3)
    }
}

/// Platform-independent result of serving one request.
///
/// Carries the two paper stages plus enough metadata to derive every
/// service-level metric (throughput, energy) without knowing which
/// platform produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The workload this report timed.
    pub workload: Workload,
    /// Summarization-stage latency (first pass over the context), ms.
    pub summarization_ms: f64,
    /// Generation-stage latency (remaining output tokens), ms.
    pub generation_ms: f64,
    /// Accelerator cards the run occupied.
    pub devices: usize,
    /// Average board power across the appliance, W. `None` when the
    /// platform has no calibrated power model (the cloud TPU).
    pub power_w: Option<f64>,
}

impl RunReport {
    /// End-to-end latency, ms.
    pub fn total_ms(&self) -> f64 {
        self.summarization_ms + self.generation_ms
    }

    /// Output tokens per second (the paper's throughput metric: output
    /// tokens over end-to-end latency, §VII-B).
    pub fn tokens_per_second(&self) -> f64 {
        self.workload.output_len as f64 / (self.total_ms() / 1e3)
    }

    /// Energy of the run in joules, if the platform models power.
    pub fn energy_j(&self) -> Option<f64> {
        self.power_w.map(|p| p * self.total_ms() / 1e3)
    }

    /// Output tokens per joule, if the platform models power.
    pub fn tokens_per_joule(&self) -> Option<f64> {
        self.power_w.map(|p| self.tokens_per_second() / p)
    }
}

/// A text-generation execution platform with a uniform serving interface.
///
/// Implemented by the DFX [`Appliance`], the V100 [`GpuModel`] and the
/// cloud [`TpuModel`]; the serving engine (and any experiment) drives all
/// of them through this one shape.
pub trait Backend {
    /// Human-readable platform description, e.g. `DFX (4x U280,
    /// gpt2-1.5b)`. It labels reports, traces and metrics only
    /// ([`ServiceReport::backend`](crate::ServiceReport::backend) names
    /// the pool with it); nothing keys timing on it, so two backends
    /// with equal names may time differently.
    fn name(&self) -> String;

    /// Number of accelerator cards behind this backend.
    fn device_count(&self) -> usize;

    /// Nominal average board power of the whole backend at full datapath
    /// activity, W. `None` when uncalibrated (the cloud TPU).
    fn nominal_power_w(&self) -> Option<f64>;

    /// Serves one request end to end.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for zero-length workloads
    /// (`input_len == 0` or `output_len == 0`) — enforced uniformly here
    /// at the backend boundary instead of letting platform models emit
    /// degenerate reports — and propagates platform-specific errors.
    fn serve(&self, workload: Workload) -> Result<RunReport, SimError>;

    /// Serves one coalesced batch of requests as a unit.
    ///
    /// The default implementation is a *sequential fallback*: it serves
    /// the members one after another and sums the stage latencies, so
    /// every backend — including ones written before batching existed —
    /// keeps working behind a batching scheduler, just without a batching
    /// win. Platforms with a real batched cost model ([`Appliance`],
    /// [`GpuModel`]) override it; the cloud [`TpuModel`] keeps the
    /// fallback (the paper publishes no batched TPU data to calibrate
    /// against). `serve_batch(&[w])` always agrees with `serve(w)` on
    /// latency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for an empty batch or any
    /// zero-length member, and propagates platform-specific errors.
    fn serve_batch(&self, batch: &[Workload]) -> Result<BatchReport, SimError> {
        if batch.is_empty() {
            return Err(SimError::InvalidRequest("empty batch".into()));
        }
        let mut summarization_ms = 0.0;
        let mut generation_ms = 0.0;
        for &w in batch {
            let r = self.serve(w)?;
            // lint: order-sensitive — per-member in batch order
            summarization_ms += r.summarization_ms;
            // lint: order-sensitive — per-member in batch order
            generation_ms += r.generation_ms;
        }
        Ok(BatchReport {
            workloads: batch.to_vec(),
            summarization_ms,
            generation_ms,
            devices: self.device_count(),
            power_w: self.nominal_power_w(),
        })
    }

    /// The device-memory capacity model behind this backend, per
    /// device: the always-resident weight shard and the K/V bytes one
    /// context token occupies. `None` when the platform's memory is not
    /// modelled (the cloud TPU) — callers must then treat capacity as
    /// unbounded, which reproduces the pre-memory-subsystem behaviour.
    ///
    /// Schedulers use it as the *joint* admission constraint: every
    /// live request claims `input + output` tokens of K/V until it
    /// retires, and the sum must fit [`MemoryModel::kv_budget_bytes`]
    /// on each device. The engine threads it into both scheduling
    /// paths — [`batch_feasible`](Backend::batch_feasible) on the
    /// static path, [`AdmissionProbe::kv_fits`](crate::AdmissionProbe)
    /// at token boundaries. A paged-K/V stepper refines the
    /// token-boundary check to block granularity through
    /// [`ContinuousStepper::kv_fits_resident`]; this whole-claim model
    /// stays the fallback.
    fn memory(&self) -> Option<MemoryModel> {
        None
    }

    /// Whether this backend can execute `batch` as one coalesced
    /// *static* unit: the joint K/V claim must fit the device's
    /// [`memory`](Backend::memory) budget, and the padded shape any
    /// backend-specific cap.
    ///
    /// A coalesced batch runs at the padded shape (the batch's longest
    /// context and longest output): a backend with a hard sequence cap
    /// can reject a batch whose members are each individually valid,
    /// and every member's K/V cache grows at the padded shape, all
    /// resident at once — so the *joint K/V claim*
    /// (`batch × padded tokens × kv bytes/token`), not the per-member
    /// shape, is the binding constraint on memory-modelled backends.
    /// Batching schedulers ([`Batching`](crate::Batching),
    /// [`ContinuousBatching`](crate::ContinuousBatching) on its static
    /// fallback) consult this hook while coalescing, so infeasible sets
    /// are never dispatched.
    ///
    /// The default implementation checks the joint K/V claim against
    /// [`memory`](Backend::memory) and falls back to accepting
    /// everything when `memory()` is `None` (the old shape-only
    /// contract: correct for the sequential
    /// [`serve_batch`](Backend::serve_batch) fallback, which never
    /// pads and holds one request's state at a time). The [`Appliance`]
    /// overrides it to *also* check the padded shape against its
    /// `max_seq_len`.
    ///
    /// Token-granular admission through a [`ContinuousStepper`] is per
    /// member feasible in shape and never consults this hook — between
    /// decode steps there is no joint padded shape — but it still
    /// honours the joint K/V budget through the engine's
    /// [`AdmissionProbe`](crate::AdmissionProbe).
    fn batch_feasible(&self, batch: &[Workload]) -> bool {
        self.memory()
            .is_none_or(|memory| padded_kv_fits(&memory, batch))
    }

    /// The token-granular execution capability: a stepper that admits
    /// members with a prefill charge, decodes all live members one
    /// token per [`step_token`](ContinuousStepper::step_token), and
    /// exits members the moment they finish.
    ///
    /// Returns `None` for backends without an incremental cost model
    /// (the cloud [`TpuModel`]); those keep serving through the static
    /// [`serve_batch`](Backend::serve_batch) path, and the engine falls
    /// back to static coalescing for them even under a continuous
    /// discipline.
    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        None
    }
}

/// Validates a workload at the [`Backend`] boundary.
///
/// # Errors
///
/// Returns [`SimError::InvalidRequest`] if the workload has no context
/// tokens or generates no output tokens.
pub fn validate_workload(w: Workload) -> Result<(), SimError> {
    if w.input_len == 0 {
        return Err(SimError::InvalidRequest(
            "workload has an empty context (input_len == 0)".into(),
        ));
    }
    if w.output_len == 0 {
        return Err(SimError::InvalidRequest(
            "workload generates nothing (output_len == 0)".into(),
        ));
    }
    Ok(())
}

impl Backend for Appliance {
    fn name(&self) -> String {
        // Paged appliances name themselves distinctly, so service
        // reports and metric labels tell the two allocators apart.
        match self.kv_paging() {
            Some(paging) => format!(
                "DFX ({}x U280, {}, paged KV/{})",
                self.num_fpgas(),
                self.config().name,
                paging.block_tokens,
            ),
            None => format!("DFX ({}x U280, {})", self.num_fpgas(), self.config().name),
        }
    }

    fn device_count(&self) -> usize {
        self.num_fpgas()
    }

    fn nominal_power_w(&self) -> Option<f64> {
        Some(dfx_hw::PowerModel::u280_dfx().average_watts(1.0) * self.num_fpgas() as f64)
    }

    fn serve(&self, workload: Workload) -> Result<RunReport, SimError> {
        validate_workload(workload)?;
        let run = self.generate_timed(workload.input_len, workload.output_len)?;
        Ok(RunReport {
            workload,
            summarization_ms: run.summarization_ms(),
            generation_ms: run.generation_ms(),
            devices: self.num_fpgas(),
            power_w: Some(run.power_w()),
        })
    }

    fn serve_batch(&self, batch: &[Workload]) -> Result<BatchReport, SimError> {
        for &w in batch {
            validate_workload(w)?;
        }
        let run = self.generate_batch_timed(batch)?;
        Ok(BatchReport {
            workloads: batch.to_vec(),
            summarization_ms: run.summarization_ms(),
            generation_ms: run.generation_ms(),
            devices: self.num_fpgas(),
            power_w: Some(run.power_w()),
        })
    }

    fn memory(&self) -> Option<MemoryModel> {
        Some(self.memory_model())
    }

    fn batch_feasible(&self, batch: &[Workload]) -> bool {
        // The padded shape is what a static batch executes at; it must
        // fit the model's context window, and the joint K/V claim (every
        // member caching at the padded shape) must fit the per-device
        // pool — the same checks generate_batch_timed enforces.
        let padded = Workload::new(
            batch.iter().map(|w| w.input_len).max().unwrap_or(0),
            batch.iter().map(|w| w.output_len).max().unwrap_or(0),
        );
        !batch.is_empty()
            && padded.total_steps() <= self.config().max_seq_len
            && self.batch_kv_fits(batch.len(), padded)
    }

    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        Some(Box::new(ApplianceStepper::new(self)))
    }
}

impl Backend for GpuModel {
    fn name(&self) -> String {
        format!("GPU ({}x V100, {})", self.gpus(), self.config().name)
    }

    fn device_count(&self) -> usize {
        self.gpus()
    }

    fn nominal_power_w(&self) -> Option<f64> {
        Some(gpu_calib::GPU_POWER_W * self.gpus() as f64)
    }

    fn serve(&self, workload: Workload) -> Result<RunReport, SimError> {
        validate_workload(workload)?;
        let report = self.run(workload);
        Ok(RunReport {
            workload,
            summarization_ms: report.summarization_ms,
            generation_ms: report.generation_ms,
            devices: self.gpus(),
            power_w: Some(report.power_w),
        })
    }

    fn serve_batch(&self, batch: &[Workload]) -> Result<BatchReport, SimError> {
        for &w in batch {
            validate_workload(w)?;
        }
        let report = self
            .run_batch(batch)
            .map_err(|e| SimError::InvalidRequest(e.to_string()))?;
        Ok(BatchReport {
            workloads: batch.to_vec(),
            summarization_ms: report.summarization_ms,
            generation_ms: report.generation_ms,
            devices: self.gpus(),
            power_w: Some(report.power_w),
        })
    }

    fn memory(&self) -> Option<MemoryModel> {
        // 32 GiB HBM2 per V100 (the SXM3 cards the paper's DGX-class
        // server carries). Each GPU holds an FP16 shard of the whole
        // model under Megatron-LM tensor parallelism, and a token's
        // K/V state (2 x emb x 2 B per layer) splits the same way. A
        // shard past the card's capacity means this cluster could not
        // host the model at all — the analytic latency model answers
        // anyway, so report the memory as unmodelled rather than panic
        // mid-scheduling.
        let cfg = self.config();
        let capacity_bytes = 32 * (1 << 30);
        let weight_bytes = 2 * cfg.num_parameters() / self.gpus() as u64;
        let kv_bytes_per_token =
            (cfg.num_layers as u64) * 2 * (cfg.embedding_dim as u64) * 2 / self.gpus() as u64;
        if weight_bytes + kv_bytes_per_token > capacity_bytes {
            return None;
        }
        Some(MemoryModel::new(
            capacity_bytes,
            weight_bytes,
            kv_bytes_per_token,
        ))
    }

    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        Some(Box::new(GpuStepper::new(self)))
    }
}

impl Backend for TpuModel {
    fn name(&self) -> String {
        format!("TPU ({})", self.config().name)
    }

    fn device_count(&self) -> usize {
        1
    }

    fn nominal_power_w(&self) -> Option<f64> {
        // The paper reports TPU GFLOPS but never board power (§VII-C).
        None
    }

    fn serve(&self, workload: Workload) -> Result<RunReport, SimError> {
        validate_workload(workload)?;
        let report = self.run(workload);
        Ok(RunReport {
            workload,
            summarization_ms: report.summarization_ms,
            generation_ms: report.generation_ms,
            devices: 1,
            power_w: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::GptConfig;

    fn backends() -> (Appliance, GpuModel, TpuModel) {
        let cfg = GptConfig::tiny();
        (
            Appliance::timing_only(cfg.clone(), 2).unwrap(),
            GpuModel::new(cfg.clone(), 2),
            TpuModel::new(cfg),
        )
    }

    #[test]
    fn all_three_platforms_serve_the_same_shape() {
        let (dfx, gpu, tpu) = backends();
        let w = Workload::new(8, 4);
        for backend in [&dfx as &dyn Backend, &gpu, &tpu] {
            let r = backend.serve(w).unwrap();
            assert_eq!(r.workload, w);
            assert_eq!(r.devices, backend.device_count());
            assert!(r.summarization_ms > 0.0);
            assert!(r.generation_ms > 0.0);
            assert!(r.tokens_per_second() > 0.0);
        }
    }

    #[test]
    fn zero_length_workloads_are_rejected_at_the_boundary() {
        let (dfx, gpu, tpu) = backends();
        for backend in [&dfx as &dyn Backend, &gpu, &tpu] {
            for w in [Workload::new(0, 4), Workload::new(8, 0)] {
                assert!(
                    matches!(backend.serve(w), Err(SimError::InvalidRequest(_))),
                    "{} accepted {w}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn report_matches_the_platform_specific_api() {
        let (dfx, _, _) = backends();
        let w = Workload::new(8, 4);
        let unified = dfx.serve(w).unwrap();
        let native = dfx.generate_timed(8, 4).unwrap();
        assert_eq!(unified.total_ms(), native.total_latency_ms());
        assert_eq!(unified.tokens_per_second(), native.tokens_per_second());
        assert_eq!(unified.power_w, Some(native.power_w()));
    }

    #[test]
    fn serve_batch_of_one_matches_serve_on_every_platform() {
        let (dfx, gpu, tpu) = backends();
        let w = Workload::new(8, 4);
        for backend in [&dfx as &dyn Backend, &gpu, &tpu] {
            let single = backend.serve(w).unwrap();
            let batch = backend.serve_batch(&[w]).unwrap();
            assert_eq!(batch.batch_size(), 1);
            assert_eq!(batch.total_ms(), single.total_ms(), "{}", backend.name());
            assert_eq!(batch.tokens_per_second(), single.tokens_per_second());
        }
    }

    #[test]
    fn batched_platforms_beat_the_sequential_fallback() {
        // DFX and GPU override serve_batch with a real batched cost
        // model, so a 4-way batch must finish faster than serving the
        // four members back to back.
        let (dfx, gpu, _) = backends();
        let batch = vec![Workload::new(8, 4); 4];
        for backend in [&dfx as &dyn Backend, &gpu] {
            let batched = backend.serve_batch(&batch).unwrap().total_ms();
            let sequential: f64 = batch
                .iter()
                .map(|&w| backend.serve(w).unwrap().total_ms())
                .sum();
            assert!(
                batched < sequential,
                "{}: batch {batched} !< sequential {sequential}",
                backend.name()
            );
        }
    }

    #[test]
    fn the_tpu_keeps_the_sequential_fallback() {
        let (_, _, tpu) = backends();
        let batch = vec![Workload::new(8, 4); 3];
        let batched = tpu.serve_batch(&batch).unwrap().total_ms();
        let sequential: f64 = batch
            .iter()
            .map(|&w| tpu.serve(w).unwrap().total_ms())
            .sum();
        assert!((batched - sequential).abs() < 1e-9);
    }

    #[test]
    fn invalid_batches_are_rejected_at_the_boundary() {
        let (dfx, gpu, tpu) = backends();
        for backend in [&dfx as &dyn Backend, &gpu, &tpu] {
            assert!(
                matches!(backend.serve_batch(&[]), Err(SimError::InvalidRequest(_))),
                "{} accepted an empty batch",
                backend.name()
            );
            assert!(matches!(
                backend.serve_batch(&[Workload::new(8, 4), Workload::new(0, 4)]),
                Err(SimError::InvalidRequest(_))
            ));
        }
    }

    #[test]
    fn feasibility_tracks_the_appliance_padded_cap() {
        // tiny's max_seq_len is 128: each member fits alone, the padded
        // pair does not. The GPU and TPU models have no hard cap.
        let (dfx, gpu, tpu) = backends();
        let long_ctx = Workload::new(100, 2);
        let long_out = Workload::new(2, 100);
        assert!(dfx.batch_feasible(&[long_ctx]));
        assert!(dfx.batch_feasible(&[long_out]));
        assert!(!dfx.batch_feasible(&[long_ctx, long_out]));
        assert!(!Backend::batch_feasible(&dfx, &[]));
        assert!(gpu.batch_feasible(&[long_ctx, long_out]));
        assert!(tpu.batch_feasible(&[long_ctx, long_out]));
        // The hook and the batched path agree.
        assert!(dfx.serve_batch(&[long_ctx, long_out]).is_err());
    }

    #[test]
    fn memory_models_are_exposed_per_platform() {
        let (dfx, gpu, tpu) = backends();
        let d = dfx.memory().expect("appliance models HBM");
        assert_eq!(d, dfx.memory_model());
        let g = gpu.memory().expect("GPU models HBM2");
        assert_eq!(g.capacity_bytes, 32 * (1 << 30));
        assert!(g.weight_bytes > 0 && g.kv_bytes_per_token > 0);
        // The TPU's memory is unmodelled: capacity reads as unbounded.
        assert!(tpu.memory().is_none());
        assert!(tpu.batch_feasible(&[Workload::new(100, 100); 64]));
        // A model whose FP16 shard exceeds the V100's 32 GiB reports
        // unmodelled memory instead of panicking mid-scheduling.
        let huge = GpuModel::new(GptConfig::new("gpt-huge", 8192, 64, 256, 50257, 2048), 1);
        assert!(huge.memory().is_none());
        assert!(huge.batch_feasible(&[Workload::new(100, 100); 4]));
    }

    #[test]
    fn feasibility_tracks_the_joint_kv_budget() {
        // Budget for 30 padded K/V tokens: a 12-token member is feasible
        // alone and as its own batch, but a pair (2 x 12 = 24... at the
        // padded shape both claim 12) is fine while a trio is not —
        // the joint claim, not the padded shape, rejects it.
        let cfg = GptConfig::tiny();
        let probe = Appliance::timing_only(cfg.clone(), 2).unwrap();
        let m = probe.memory_model();
        let dfx = Appliance::timing_only(cfg, 2)
            .unwrap()
            .with_hbm_capacity(m.weight_bytes + 30 * m.kv_bytes_per_token)
            .unwrap();
        let w = Workload::new(8, 4);
        assert!(dfx.batch_feasible(&[w]));
        assert!(dfx.batch_feasible(&[w, w]));
        assert!(!dfx.batch_feasible(&[w, w, w]));
        // The hook and the batched path agree.
        assert!(dfx.serve_batch(&[w, w]).is_ok());
        assert!(dfx.serve_batch(&[w, w, w]).is_err());
    }

    #[test]
    fn energy_is_power_times_time() {
        let (_, gpu, tpu) = backends();
        let w = Workload::new(8, 4);
        let r = gpu.serve(w).unwrap();
        let e = r.energy_j().unwrap();
        assert!((e - r.power_w.unwrap() * r.total_ms() / 1e3).abs() < 1e-12);
        assert_eq!(tpu.serve(w).unwrap().energy_j(), None);
    }
}

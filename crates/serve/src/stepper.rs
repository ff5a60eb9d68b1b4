//! The GPU's token-granular stepper.
//!
//! A [`ContinuousStepper`] (defined in `dfx_sim` next to the
//! appliance's [`BatchState`](dfx_sim::BatchState), and re-exported
//! here with its [`StepEvent`](dfx_sim::StepEvent)) is the serving-layer
//! view of an incremental batched executor: members are admitted with a
//! prefill charge, every [`step_token`](ContinuousStepper::step_token)
//! advances all live members by one output token at the live batch
//! size, and members exit the moment they have produced their requested
//! tokens — no padding to the longest batch-mate, no waiting for a
//! batch to form. Backends advertise the capability through
//! [`Backend::continuous`](crate::Backend::continuous): the appliance
//! returns its `BatchState`, the GPU the closed-form [`GpuStepper`]
//! below, and backends without it (the cloud TPU) keep serving through
//! the static [`serve_batch`](crate::Backend::serve_batch) path.
//!
//! The stepper's cost estimates
//! ([`prefill_cost_ms`](ContinuousStepper::prefill_cost_ms),
//! [`step_cost_ms`](ContinuousStepper::step_cost_ms)) and K/V hooks feed
//! the engine's [`AdmissionProbe`](crate::AdmissionProbe), so
//! prefill-aware disciplines can weigh an admission's serial stall
//! against the running members' deadlines before committing to it.
//! The telemetry layer hangs off the same seam: every `StepEvent`
//! boundary the engine commits becomes a token-emission instant in a
//! [`RunTrace`](crate::telemetry::RunTrace) (via
//! [`ServingEngine::run_traced`](crate::ServingEngine::run_traced)) and
//! an inter-token-latency sample in the
//! [`ServiceReport`](crate::ServiceReport) percentiles.

use dfx_baseline::GpuModel;
use dfx_model::Workload;
use dfx_sim::{validate_workload, ContinuousStepper, SimError, StepEvent};

struct GpuMember {
    id: u64,
    workload: Workload,
    /// Output tokens produced so far (the prefill produces the first).
    emitted: usize,
}

/// Closed-form continuous stepper for the GPU appliance: prefills cost
/// [`GpuModel::summarization_pass_ms_batched`] at batch 1, decode steps
/// cost [`GpuModel::generation_step_ms_batched`] at the live batch size
/// and the largest live context — the same terms
/// [`GpuModel::run_batch`] sums, so a solo member reproduces
/// [`GpuModel::run`] exactly. The summarization pass is one parallel
/// kernel sweep, not a per-token loop, so
/// [`set_prefill_chunk`](ContinuousStepper::set_prefill_chunk) keeps
/// the default whole-prefill admission (the Sarathi-style chunk budget
/// targets DFX's serial prefill).
pub(crate) struct GpuStepper<'a> {
    gpu: &'a GpuModel,
    members: Vec<GpuMember>,
}

impl<'a> GpuStepper<'a> {
    pub(crate) fn new(gpu: &'a GpuModel) -> Self {
        GpuStepper {
            gpu,
            members: Vec::new(),
        }
    }
}

impl ContinuousStepper for GpuStepper<'_> {
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        validate_workload(workload)?;
        if self.members.iter().any(|m| m.id == id) {
            return Err(SimError::InvalidRequest(format!(
                "member id {id} is already in the batch"
            )));
        }
        let ms = self
            .gpu
            .summarization_pass_ms_batched(workload.input_len, 1);
        let finished = workload.output_len == 1;
        if !finished {
            self.members.push(GpuMember {
                id,
                workload,
                emitted: 1,
            });
        }
        Ok(StepEvent {
            ms,
            live: self.members.len(),
            finished: if finished { vec![id] } else { Vec::new() },
            prefilling: Vec::new(),
        })
    }

    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        // Mirrors run_batch's decode loop: generating output token
        // `emitted + 1` costs a step at context `input_len + emitted`.
        // `max()` is `None` exactly when there is nobody to step.
        let t = self
            .members
            .iter()
            .map(|m| m.workload.input_len + m.emitted)
            .max()
            .ok_or_else(|| {
                SimError::InvalidRequest("no live members to step (admit first)".into())
            })?;
        let ms = self.gpu.generation_step_ms_batched(t, self.members.len());
        let mut finished = Vec::new();
        let mut i = 0;
        while i < self.members.len() {
            self.members[i].emitted += 1;
            if self.members[i].emitted == self.members[i].workload.output_len {
                finished.push(self.members.remove(i).id);
            } else {
                i += 1;
            }
        }
        Ok(StepEvent {
            ms,
            live: self.members.len(),
            finished,
            prefilling: Vec::new(),
        })
    }

    fn live(&self) -> usize {
        self.members.len()
    }

    fn prefill_cost_ms(&mut self, workload: Workload) -> f64 {
        self.gpu
            .summarization_pass_ms_batched(workload.input_len, 1)
    }

    fn step_cost_ms(&mut self, live: usize) -> f64 {
        let t = self
            .members
            .iter()
            .map(|m| m.workload.input_len + m.emitted)
            .max()
            .unwrap_or(1);
        self.gpu.generation_step_ms_batched(t, live.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use dfx_baseline::TpuModel;
    use dfx_model::GptConfig;
    use dfx_sim::Appliance;

    fn solo_ms(stepper: &mut dyn ContinuousStepper, w: Workload) -> f64 {
        let mut total = stepper.admit(0, w).unwrap().ms;
        while stepper.live() > 0 {
            total += stepper.step_token().unwrap().ms;
        }
        total
    }

    #[test]
    fn solo_stepping_matches_serve_on_both_continuous_backends() {
        let cfg = GptConfig::tiny();
        let dfx = Appliance::timing_only(cfg.clone(), 2).unwrap();
        let gpu = GpuModel::new(cfg, 2);
        for w in [
            Workload::new(8, 4),
            Workload::new(5, 1),
            Workload::new(3, 9),
        ] {
            for backend in [&dfx as &dyn Backend, &gpu] {
                let serve_ms = backend.serve(w).unwrap().total_ms();
                let mut stepper = backend.continuous().expect("continuous backend");
                let stepped_ms = solo_ms(stepper.as_mut(), w);
                assert!(
                    (stepped_ms - serve_ms).abs() < 1e-9 * serve_ms.max(1.0),
                    "{} {w}: stepped {stepped_ms} vs serve {serve_ms}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn the_tpu_has_no_stepper() {
        let tpu = TpuModel::new(GptConfig::tiny());
        assert!(Backend::continuous(&tpu).is_none());
    }

    #[test]
    fn gpu_members_exit_early_and_conserve_tokens() {
        let gpu = GpuModel::new(GptConfig::tiny(), 1);
        let mut s = GpuStepper::new(&gpu);
        s.admit(0, Workload::new(8, 6)).unwrap();
        s.admit(1, Workload::new(4, 2)).unwrap();
        let mut tokens = 2; // two prefills, one token each
        let mut exits = Vec::new();
        while s.live() > 0 {
            let ev = s.step_token().unwrap();
            tokens += ev.finished.len() + ev.live;
            exits.extend(ev.finished);
        }
        assert_eq!(exits, vec![1, 0]);
        assert_eq!(tokens, 8);
    }

    #[test]
    fn invalid_gpu_admissions_are_rejected() {
        let gpu = GpuModel::new(GptConfig::tiny(), 1);
        let mut s = GpuStepper::new(&gpu);
        assert!(s.admit(0, Workload::new(0, 4)).is_err());
        assert!(s.step_token().is_err());
        s.admit(0, Workload::new(4, 4)).unwrap();
        assert!(s.admit(0, Workload::new(4, 4)).is_err());
    }

    #[test]
    fn appliance_stepper_reports_memory_refusals_and_estimates() {
        // Budget for 20 tokens of K/V claim next to the weights.
        let cfg = GptConfig::tiny();
        let probe = Appliance::timing_only(cfg.clone(), 2).unwrap();
        let m = probe.memory_model();
        let dfx = Appliance::timing_only(cfg, 2)
            .unwrap()
            .with_hbm_capacity(m.weight_bytes + 20 * m.kv_bytes_per_token)
            .unwrap();
        let mut s = Backend::continuous(&dfx).unwrap();
        let w = Workload::new(8, 4);
        assert!(s.prefill_cost_ms(w) > 0.0);
        assert!(s.step_cost_ms(2) > s.step_cost_ms(1) * 0.5);
        s.admit(0, w).unwrap();
        let err = s.admit(1, w).unwrap_err();
        assert!(matches!(err, SimError::Memory(_)), "{err:?}");
    }

    #[test]
    fn appliance_stepper_chunks_prefills_on_request() {
        let dfx = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let mut s = Backend::continuous(&dfx).unwrap();
        s.set_prefill_chunk(Some(4));
        let ev = s.admit(0, Workload::new(12, 2)).unwrap();
        assert_eq!(ev.prefilling, vec![0]);
        // Two more chunks complete the prefill (emitting the first
        // token), one decode step finishes the member.
        let ev = s.step_token().unwrap();
        assert_eq!(ev.prefilling, vec![0]);
        let ev = s.step_token().unwrap();
        assert!(ev.prefilling.is_empty());
        assert!(ev.finished.is_empty());
        let ev = s.step_token().unwrap();
        assert_eq!(ev.finished, vec![0]);
        assert_eq!(s.live(), 0);
    }
}

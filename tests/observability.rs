//! Property-based tests of the telemetry layer's conservation and
//! causality guarantees.
//!
//! The same closed-form backend as `serving_invariants.rs` (integer
//! service milliseconds, so f64 arithmetic is exact) drives
//! [`ServingEngine::run_traced`] under arbitrary workloads, arrival
//! processes and disciplines, and checks the tracing contract: tracing
//! never perturbs the run, every admitted request closes exactly one
//! terminal span, span times are monotone and causal, and both export
//! formats survive their own validators.

use dfx::model::Workload;
use dfx::serve::telemetry::{self, Json, Labels, MetricsRegistry};
use dfx::serve::{
    ArrivalProcess, Backend, ContinuousBatching, ContinuousStepper, RunReport, ServingEngine,
    StepEvent,
};
use dfx::sim::SimError;
use proptest::prelude::*;

/// Closed-form backend: `input + output` ms per request, a matching
/// stepper (prefill = `input_len` ms, 1 ms per decoded token) and a
/// 100 W power model so energy attribution is exercised end to end.
struct UnitBackend;

/// (id, workload, tokens emitted) per live member.
struct UnitStepper {
    members: Vec<(u64, Workload, usize)>,
}

impl ContinuousStepper for UnitStepper {
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        dfx::serve::validate_workload(workload)?;
        self.members.push((id, workload, 0));
        Ok(StepEvent {
            ms: workload.input_len as f64,
            live: self.members.len(),
            finished: vec![],
            prefilling: vec![],
        })
    }

    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        if self.members.is_empty() {
            return Err(SimError::InvalidRequest("no live members".into()));
        }
        let mut finished = Vec::new();
        let mut i = 0;
        while i < self.members.len() {
            self.members[i].2 += 1;
            if self.members[i].2 == self.members[i].1.output_len {
                finished.push(self.members.remove(i).0);
            } else {
                i += 1;
            }
        }
        Ok(StepEvent {
            ms: 1.0,
            live: self.members.len(),
            finished,
            prefilling: vec![],
        })
    }

    fn live(&self) -> usize {
        self.members.len()
    }
}

impl Backend for UnitBackend {
    fn name(&self) -> String {
        "unit".into()
    }
    fn device_count(&self) -> usize {
        1
    }
    fn nominal_power_w(&self) -> Option<f64> {
        Some(100.0)
    }
    fn serve(&self, w: Workload) -> Result<RunReport, SimError> {
        dfx::serve::validate_workload(w)?;
        Ok(RunReport {
            workload: w,
            summarization_ms: w.input_len as f64,
            generation_ms: w.output_len as f64,
            devices: 1,
            power_w: Some(100.0),
        })
    }
    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        Some(Box::new(UnitStepper {
            members: Vec::new(),
        }))
    }
}

fn arb_workloads() -> impl Strategy<Value = Vec<Workload>> {
    proptest::collection::vec((1usize..48, 1usize..48), 1..32)
        .prop_map(|v| v.into_iter().map(|(i, o)| Workload::new(i, o)).collect())
}

fn arb_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (0.5f64..200.0, any::<u64>())
            .prop_map(|(rate_per_s, seed)| { ArrivalProcess::Poisson { rate_per_s, seed } }),
        (1usize..6, 0.0f64..50.0).prop_map(|(clients, think_time_ms)| {
            ArrivalProcess::ClosedLoop {
                clients,
                think_time_ms,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tracing contract on both paths: tracing does not perturb the
    /// report, and every admitted request closes exactly one terminal
    /// span whose boundaries are monotone and causal.
    #[test]
    fn traces_conserve_requests_and_respect_causality(
        workloads in arb_workloads(),
        arrivals in arb_arrivals(),
        max_batch in 1usize..6,
        continuous in any::<bool>(),
    ) {
        let build = || {
            let mut engine = ServingEngine::new(&UnitBackend);
            if continuous {
                engine = engine.with_scheduler(Box::new(ContinuousBatching::new(max_batch)));
            }
            engine
        };
        let plain = build().run(&workloads, &arrivals).unwrap();
        let (report, trace) = build().run_traced(&workloads, &arrivals).unwrap();
        prop_assert_eq!(&report, &plain, "tracing perturbed the run");

        // Conservation: one terminal span per admitted request, ids
        // exactly the submission indices.
        trace.validate().unwrap();
        prop_assert_eq!(trace.requests.len(), workloads.len());
        let ids: Vec<u64> = trace.requests.iter().map(|t| t.id).collect();
        prop_assert_eq!(ids, (0..workloads.len() as u64).collect::<Vec<u64>>());

        // Causality per span, against the matching response (responses
        // arrive in completion order; traces are sorted by id).
        let mut by_id = report.responses.clone();
        by_id.sort_by_key(|r| r.request.id);
        for (t, r) in trace.requests.iter().zip(by_id.iter()) {
            prop_assert_eq!(t.id, r.request.id);
            prop_assert!(t.arrival_ms <= t.start_ms);
            prop_assert!(t.start_ms <= t.finish_ms);
            prop_assert_eq!(t.finish_ms, r.finish_ms);
            if let Some(first) = t.first_token_ms {
                prop_assert!(first >= t.start_ms && first <= t.finish_ms);
                // Token boundaries are monotone; validate() checked, but
                // pin the count too. The engine emits one token at
                // prefill completion and one per decode step, and this
                // stepper decodes `output_len` steps, so each request
                // records exactly `output + 1` emission boundaries.
                prop_assert_eq!(t.token_ms.len(), t.output_tokens + 1);
            }
        }

        // Energy attribution partitions the pool total exactly (token
        // shares sum to one).
        let attributed: f64 = trace.requests.iter().filter_map(|t| t.energy_j).sum();
        let total = report.energy_j.unwrap();
        prop_assert!((attributed - total).abs() <= 1e-9 * total.max(1.0));

        // Both export formats survive their validators, and the Chrome
        // JSON round-trips through the vendored parser byte for byte.
        let json = trace.to_chrome_json();
        let parsed = Json::parse(&json).unwrap();
        prop_assert_eq!(parsed.render(), json);
        let mut reg = MetricsRegistry::new();
        telemetry::record_service_report(&mut reg, &report, &Labels::new());
        let samples = telemetry::validate_prometheus(&reg.render()).unwrap();
        prop_assert!(samples > 0);
    }
}

//! Property-based tests of the `ServingEngine` discrete-event invariants.
//!
//! A synthetic closed-form backend keeps service times trivial so the
//! properties stress the *engine* (queueing, scheduling, bookkeeping),
//! not the cycle model; one case runs against a real tiny `Appliance` to
//! tie the trait boundary together.

use dfx::model::{GptConfig, Workload};
use dfx::serve::{
    ArrivalProcess, Backend, ContinuousBatching, ContinuousStepper, RunReport, ServingEngine,
    StepEvent,
};
use dfx::sim::SimError;
use proptest::prelude::*;

/// Closed-form backend: `input + output` ms per request. It exposes a
/// matching [`ContinuousStepper`] (prefill = `input_len` ms, 1 ms per
/// decoded token), so a solo member stepped to completion accumulates
/// exactly `serve`'s latency — in *integer* milliseconds, which f64
/// adds exactly in any order, making the continuous ≡ FIFO comparison
/// below bit-exact rather than approximate.
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
        None
    }
    fn serve(&self, w: Workload) -> Result<RunReport, SimError> {
        dfx::serve::validate_workload(w)?;
        Ok(RunReport {
            workload: w,
            summarization_ms: w.input_len as f64,
            generation_ms: w.output_len as f64,
            devices: 1,
            power_w: None,
        })
    }
    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        Some(Box::new(UnitStepper {
            members: Vec::new(),
        }))
    }
}

fn arb_workloads() -> impl Strategy<Value = Vec<Workload>> {
    proptest::collection::vec((1usize..64, 1usize..64), 1..40)
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

/// Tokens per member, counted from a stepper's [`StepEvent`]s alone: an
/// admission earns its joiner one token unless the joiner is listed in
/// `prefilling`, and a step earns one for every live member not listed
/// there.
struct TokenLedger {
    earned: Vec<usize>,
    finishes: Vec<usize>,
    live: Vec<u64>,
    /// One per emitting admission, plus `live + finished − prefilling`
    /// per step: the count the engine and the simbench seam check use.
    summed: usize,
}

impl TokenLedger {
    fn new(members: usize) -> Self {
        TokenLedger {
            earned: vec![0; members],
            finishes: vec![0; members],
            live: Vec::new(),
            summed: 0,
        }
    }

    fn admitted(&mut self, id: u64, ev: &StepEvent) {
        if !ev.prefilling.contains(&id) {
            self.earned[id as usize] += 1;
            self.summed += 1;
        }
        assert!(
            ev.finished.iter().all(|&f| f == id),
            "an admission finishes only its joiner"
        );
        self.live.push(id);
        self.retire(ev);
    }

    fn stepped(&mut self, ev: &StepEvent) {
        for &id in &self.live {
            if !ev.prefilling.contains(&id) {
                self.earned[id as usize] += 1;
            }
        }
        self.summed += ev.live + ev.finished.len() - ev.prefilling.len();
        self.retire(ev);
    }

    fn retire(&mut self, ev: &StepEvent) {
        for &f in &ev.finished {
            assert!(self.live.contains(&f), "member {f} finished while not live");
            self.finishes[f as usize] += 1;
        }
        self.live.retain(|l| !ev.finished.contains(l));
        assert_eq!(ev.live, self.live.len(), "the event's live count");
    }

    /// Every member earned exactly its `output_len` and finished once,
    /// and the per-event sums total the requested output.
    fn check(&self, workloads: &[Workload]) {
        for (id, w) in workloads.iter().enumerate() {
            assert_eq!(self.earned[id], w.output_len, "member {id}'s tokens");
            assert_eq!(self.finishes[id], 1, "member {id}'s finishes");
        }
        let expect: usize = workloads.iter().map(|w| w.output_len).sum();
        assert_eq!(self.summed, expect, "summed tokens");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every submitted request appears exactly once, and none starts
    /// before it arrived — under any arrival process and pool size.
    #[test]
    fn conservation_and_causality(
        workloads in arb_workloads(),
        arrivals in arb_arrivals(),
        servers in 1usize..4,
    ) {
        let backends: Vec<UnitBackend> = (0..servers).map(|_| UnitBackend).collect();
        let report = ServingEngine::pool(backends.iter().map(|b| b as &dyn Backend).collect())
            .unwrap()
            .run(&workloads, &arrivals)
            .unwrap();

        prop_assert_eq!(report.responses.len(), workloads.len());
        let mut ids: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..workloads.len() as u64).collect::<Vec<_>>());
        for r in &report.responses {
            prop_assert!(r.start_ms >= r.request.arrival_ms,
                "request {} started {} before its arrival {}",
                r.request.id, r.start_ms, r.request.arrival_ms);
            prop_assert!(r.server < servers);
            prop_assert_eq!(r.request.workload, workloads[r.request.id as usize]);
            let expect = (r.request.workload.input_len + r.request.workload.output_len) as f64;
            prop_assert!((r.service_ms() - expect).abs() < 1e-9);
        }
        prop_assert!(report.utilization > 0.0 && report.utilization <= 1.0 + 1e-12);
        prop_assert!(report.p50_sojourn_ms <= report.p95_sojourn_ms);
        prop_assert!(report.p95_sojourn_ms <= report.p99_sojourn_ms);
    }

    /// FIFO never reorders: dispatch order equals arrival order (ids are
    /// assigned in arrival order for open-loop processes), and start
    /// times are monotone in it.
    #[test]
    fn fifo_never_reorders(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        servers in 1usize..4,
    ) {
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let backends: Vec<UnitBackend> = (0..servers).map(|_| UnitBackend).collect();
        let report = ServingEngine::pool(backends.iter().map(|b| b as &dyn Backend).collect())
            .unwrap()
            .run(&workloads, &arrivals)
            .unwrap();
        let ids: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "FIFO reordered: {:?}", ids);
        let starts: Vec<f64> = report.responses.iter().map(|r| r.start_ms).collect();
        prop_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "starts not monotone: {:?}", starts);
    }

    /// Identical seeds reproduce identical reports; different seeds make
    /// different arrival traces.
    #[test]
    fn seeded_runs_are_reproducible(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
    ) {
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let a = ServingEngine::new(&UnitBackend).run(&workloads, &arrivals).unwrap();
        let b = ServingEngine::new(&UnitBackend).run(&workloads, &arrivals).unwrap();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `Batching` discipline conserves requests, and — whenever a
    /// server is free (guaranteed here by a pool as large as the
    /// stream) — no request's dispatch is delayed past the scheduler's
    /// `max_wait_ms` window.
    #[test]
    fn batching_conserves_and_never_waits_past_the_timeout(
        workloads in proptest::collection::vec((1usize..64, 1usize..64), 1..12)
            .prop_map(|v| v.into_iter().map(|(i, o)| Workload::new(i, o)).collect::<Vec<_>>()),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        max_batch in 1usize..6,
        max_wait_ms in 0.0f64..100.0,
    ) {
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let backends: Vec<UnitBackend> = workloads.iter().map(|_| UnitBackend).collect();
        let report = ServingEngine::pool(backends.iter().map(|b| b as &dyn Backend).collect())
            .unwrap()
            .with_scheduler(Box::new(dfx::serve::Batching::new(max_batch, max_wait_ms)))
            .run(&workloads, &arrivals)
            .unwrap();

        prop_assert_eq!(report.responses.len(), workloads.len());
        let mut ids: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..workloads.len() as u64).collect::<Vec<_>>());
        for r in &report.responses {
            prop_assert!(r.start_ms >= r.request.arrival_ms);
            prop_assert!(
                r.wait_ms() <= max_wait_ms + 1e-9,
                "request {} waited {} ms past a {} ms window with a free server",
                r.request.id, r.wait_ms(), max_wait_ms
            );
        }
        // Dispatches never exceed requests, and coalescing never exceeds
        // the configured batch size on average.
        prop_assert!(report.dispatches >= 1 && report.dispatches <= workloads.len());
        prop_assert!(report.mean_batch_size() <= max_batch as f64 + 1e-12);
    }

    /// `Batching` with `max_batch == 1` is exactly FIFO — same responses,
    /// same dispatch count — under any stream and arrival process.
    #[test]
    fn batching_with_max_batch_one_is_fifo(
        workloads in arb_workloads(),
        arrivals in arb_arrivals(),
        max_wait_ms in 0.0f64..500.0,
    ) {
        let fifo = ServingEngine::new(&UnitBackend).run(&workloads, &arrivals).unwrap();
        let batch1 = ServingEngine::new(&UnitBackend)
            .with_scheduler(Box::new(dfx::serve::Batching::new(1, max_wait_ms)))
            .run(&workloads, &arrivals)
            .unwrap();
        prop_assert_eq!(&fifo.responses, &batch1.responses);
        prop_assert_eq!(fifo.dispatches, batch1.dispatches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Continuous batching with `max_batch == 1` is exactly the FIFO
    /// single-dispatch path — same responses (starts, finishes,
    /// servers) and same service statistics, under any stream and
    /// arrival process. The UnitBackend's integer-millisecond costs add
    /// exactly in f64, so the comparison is bit-exact.
    #[test]
    fn continuous_with_max_batch_one_is_fifo(
        workloads in arb_workloads(),
        arrivals in arb_arrivals(),
    ) {
        let fifo = ServingEngine::new(&UnitBackend).run(&workloads, &arrivals).unwrap();
        let cont = ServingEngine::new(&UnitBackend)
            .with_scheduler(Box::new(ContinuousBatching::new(1)))
            .run(&workloads, &arrivals)
            .unwrap();
        prop_assert_eq!(&fifo.responses, &cont.responses);
        prop_assert_eq!(fifo.p50_sojourn_ms, cont.p50_sojourn_ms);
        prop_assert_eq!(fifo.p99_sojourn_ms, cont.p99_sojourn_ms);
        prop_assert_eq!(fifo.utilization, cont.utilization);
        prop_assert_eq!(fifo.makespan_ms, cont.makespan_ms);
        prop_assert_eq!(fifo.goodput_tps, cont.goodput_tps);
    }

    /// Admission causality and conservation on the token-boundary path:
    /// under a seeded Poisson mix every request is served exactly once,
    /// no member's prefill starts before its arrival, and a member
    /// never finishes before `output_len` decode milliseconds have
    /// passed since its start.
    #[test]
    fn continuous_admissions_respect_arrival_causality(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        max_batch in 1usize..6,
        servers in 1usize..4,
    ) {
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let backends: Vec<UnitBackend> = (0..servers).map(|_| UnitBackend).collect();
        let report = ServingEngine::pool(backends.iter().map(|b| b as &dyn Backend).collect())
            .unwrap()
            .with_scheduler(Box::new(ContinuousBatching::new(max_batch)))
            .run(&workloads, &arrivals)
            .unwrap();

        prop_assert_eq!(report.responses.len(), workloads.len());
        let mut ids: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..workloads.len() as u64).collect::<Vec<_>>());
        for r in &report.responses {
            prop_assert!(r.start_ms >= r.request.arrival_ms,
                "request {} started {} before its arrival {}",
                r.request.id, r.start_ms, r.request.arrival_ms);
            prop_assert!(r.server < servers);
            // At minimum its own prefill plus one ms per output token;
            // co-resident prefills can only stretch it.
            let floor = (r.request.workload.input_len + r.request.workload.output_len) as f64;
            prop_assert!(r.service_ms() >= floor - 1e-9,
                "request {} served in {} ms, below its {} ms floor",
                r.request.id, r.service_ms(), floor);
        }
        prop_assert!(report.utilization > 0.0 && report.utilization <= 1.0 + 1e-12);
        prop_assert!(report.p50_sojourn_ms <= report.p99_sojourn_ms);
        // Determinism: the token-boundary loop reproduces bit-for-bit.
        let again = ServingEngine::pool(backends.iter().map(|b| b as &dyn Backend).collect())
            .unwrap()
            .with_scheduler(Box::new(ContinuousBatching::new(max_batch)))
            .run(&workloads, &arrivals)
            .unwrap();
        prop_assert_eq!(report, again);
    }
}

proptest! {
    // Fewer cases: these run the real cycle model per case.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Early-exit conservation on the real appliance's incremental
    /// executor: however admissions interleave with decode steps, the
    /// total tokens produced (one per prefill, one per live member per
    /// step) equal the sum the members asked for, and every retired
    /// member carries exactly its own `output_len` — early exit stops
    /// members when they are done, it never truncates or pads.
    #[test]
    fn early_exit_conserves_tokens_against_the_sequential_sum(
        specs in proptest::collection::vec((1usize..24, 1usize..16), 1..6),
        stagger in 0usize..4,
    ) {
        let appliance = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let mut batch = appliance.batch_state();
        let workloads: Vec<Workload> =
            specs.into_iter().map(|(i, o)| Workload::new(i, o)).collect();

        let mut ledger = TokenLedger::new(workloads.len());
        let mut queued = workloads.iter().enumerate().collect::<Vec<_>>();
        queued.reverse();
        while batch.live() > 0 || !queued.is_empty() {
            // Admit one member every `stagger` steps (all at once for 0).
            while let Some(&(id, w)) = queued.last() {
                let ev = batch.admit(id as u64, *w).unwrap();
                // Whole prefills: every admission emits a first token.
                prop_assert!(ev.prefilling.is_empty());
                ledger.admitted(id as u64, &ev);
                queued.pop();
                if stagger > 0 {
                    break;
                }
            }
            for _ in 0..stagger.max(1) {
                if batch.live() == 0 {
                    break;
                }
                ledger.stepped(&batch.step_token().unwrap());
            }
        }
        ledger.check(&workloads);
    }

    /// A batch of one goes through the batched cost model bit-for-bit
    /// identically to the unbatched path, on the appliance and the GPU.
    #[test]
    fn batch_of_one_is_bit_identical_to_unbatched(
        input_len in 1usize..24,
        output_len in 1usize..16,
    ) {
        let w = Workload::new(input_len, output_len);
        let appliance = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let batched = appliance.generate_batch_timed(&[w]).unwrap();
        let single = appliance.generate_timed(input_len, output_len).unwrap();
        prop_assert_eq!(batched.summarization, single.summarization);
        prop_assert_eq!(batched.generation, single.generation);
        prop_assert_eq!(batched.total_latency_ms(), single.total_latency_ms());

        let gpu = dfx::baseline::GpuModel::new(GptConfig::tiny(), 2);
        prop_assert_eq!(gpu.run_batch(&[w]), Ok(gpu.run(w)));
    }

    /// Batch cost is monotone non-decreasing in batch size on both
    /// batched cost models.
    #[test]
    fn batch_cost_is_monotone_in_batch_size(
        input_len in 1usize..24,
        output_len in 1usize..16,
    ) {
        let w = Workload::new(input_len, output_len);
        let appliance = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let gpu = dfx::baseline::GpuModel::new(GptConfig::tiny(), 2);
        let mut prev_dfx = 0.0;
        let mut prev_gpu = 0.0;
        for b in 1..=5 {
            let batch = vec![w; b];
            let dfx_ms = appliance.generate_batch_timed(&batch).unwrap().total_latency_ms();
            prop_assert!(dfx_ms >= prev_dfx, "DFX batch {} got cheaper: {} < {}", b, dfx_ms, prev_dfx);
            prev_dfx = dfx_ms;
            let gpu_ms = gpu.run_batch(&batch).unwrap().total_ms();
            prop_assert!(gpu_ms >= prev_gpu, "GPU batch {} got cheaper: {} < {}", b, gpu_ms, prev_gpu);
            prev_gpu = gpu_ms;
        }
    }
}

proptest! {
    // The K/V-conservation suite runs the real cycle model per case.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reserved K/V admission never over-commits and frees exactly what
    /// it reserved, however admissions, early exits and chunked prefills
    /// interleave: at every step the committed claim stays within the
    /// budget, refused admissions leave the pool untouched, and once
    /// everything retires the pool is empty again.
    #[test]
    fn kv_pool_never_overcommits_and_frees_exactly_what_it_reserved(
        specs in proptest::collection::vec((1usize..24, 1usize..16), 1..8),
        budget_slack in 0u64..32,
        chunk_raw in 0usize..8,
    ) {
        // 0 means no chunk budget (whole-prefill admission).
        let chunk = (chunk_raw > 0).then_some(chunk_raw);
        let workloads: Vec<Workload> =
            specs.into_iter().map(|(i, o)| Workload::new(i, o)).collect();
        // A budget that fits the largest single claim plus some slack,
        // so admissions are refused at plausible points.
        let max_claim = workloads.iter().map(|w| w.input_len + w.output_len).max().unwrap() as u64;
        let probe = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let m = probe.memory_model();
        let appliance = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2)
            .unwrap()
            .with_hbm_capacity(m.weight_bytes + (max_claim + budget_slack) * m.kv_bytes_per_token)
            .unwrap();
        let budget_tokens = (max_claim + budget_slack) as usize;

        let mut batch = appliance.batch_state();
        batch.set_prefill_chunk(chunk);
        let mut queued: Vec<(u64, Workload)> = workloads
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u64, w))
            .rev()
            .collect();
        let mut served = 0usize;
        while served < workloads.len() {
            // Admit from the queue until the pool refuses.
            while let Some(&(id, w)) = queued.last() {
                let committed_before = batch.kv().committed_tokens();
                match batch.admit(id, w) {
                    Ok(ev) => {
                        // A member finishing at admission (output 1,
                        // whole prefill) releases its claim on the spot.
                        let expect = if ev.finished.is_empty() {
                            committed_before + w.input_len + w.output_len
                        } else {
                            committed_before
                        };
                        prop_assert_eq!(batch.kv().committed_tokens(), expect);
                        served += ev.finished.len();
                        queued.pop();
                    }
                    Err(dfx::sim::SimError::Memory(_)) => {
                        // A refusal must change nothing.
                        prop_assert_eq!(batch.kv().committed_tokens(), committed_before);
                        break;
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                }
            }
            prop_assert!(batch.kv().committed_tokens() <= budget_tokens,
                "over-committed: {} of {}", batch.kv().committed_tokens(), budget_tokens);
            if batch.live() > 0 {
                served += batch.step_token().unwrap().finished.len();
            } else {
                prop_assert!(!queued.is_empty(), "live 0 with work unserved and queue empty");
            }
        }
        // Everything retired: every claim came back.
        prop_assert_eq!(batch.kv().committed_tokens(), 0);
        prop_assert_eq!(batch.kv().live(), 0);
    }

    /// Chunked prefill produces token-identical output to unchunked
    /// prefill: same per-member token counts, same total steps' token
    /// work, under any chunk budget and admission stagger.
    #[test]
    fn chunked_prefill_is_token_identical_to_unchunked(
        specs in proptest::collection::vec((1usize..24, 1usize..16), 1..6),
        chunk in 1usize..8,
        stagger in 0usize..4,
    ) {
        let appliance = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let workloads: Vec<Workload> =
            specs.into_iter().map(|(i, o)| Workload::new(i, o)).collect();
        let run = |chunk: Option<usize>| {
            let mut batch = appliance.batch_state();
            batch.set_prefill_chunk(chunk);
            let mut ledger = TokenLedger::new(workloads.len());
            let mut queued: Vec<(usize, Workload)> =
                workloads.iter().copied().enumerate().rev().collect();
            while batch.live() > 0 || !queued.is_empty() {
                while let Some(&(id, w)) = queued.last() {
                    ledger.admitted(id as u64, &batch.admit(id as u64, w).unwrap());
                    queued.pop();
                    if stagger > 0 {
                        break;
                    }
                }
                for _ in 0..stagger.max(1) {
                    if batch.live() == 0 {
                        break;
                    }
                    ledger.stepped(&batch.step_token().unwrap());
                }
            }
            ledger
        };
        let unchunked = run(None);
        let chunked = run(Some(chunk));
        prop_assert_eq!(&chunked.earned, &unchunked.earned, "per-member tokens differ");
        prop_assert_eq!(chunked.summed, unchunked.summed, "total token work differs");
        unchunked.check(&workloads);
        chunked.check(&workloads);
    }
}

proptest! {
    // The seam suite runs the real cycle model per case.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The appliance's boxed [`ContinuousStepper`] accounts for every
    /// token through its [`StepEvent`]s alone, under chunked prefill,
    /// reserved or paged K/V (recompute or retain, with and without a
    /// shared prefix) and an HBM budget tight enough to refuse
    /// admissions and preempt decoders. An admission earns the joiner
    /// one token unless it is listed in `prefilling`; a step earns one
    /// for every live member not listed there. Every member then earns
    /// exactly its `output_len`, every id finishes exactly once, and
    /// the per-event sums `live + finished − prefilling` (a step) plus
    /// one per emitting admission total Σ`output_len` — the count the
    /// engine and the simbench seam check both rely on.
    #[test]
    fn appliance_stepper_events_account_for_every_token_under_preemption(
        specs in proptest::collection::vec((2usize..28, 1usize..24), 2..7),
        chunk_raw in 0usize..10,
        policy in 0u8..3,
        shared_prefix in any::<bool>(),
        slack in 0u64..16,
        stagger in 0usize..3,
    ) {
        use dfx::sim::{Appliance, PagedKvConfig, PreemptionPolicy};

        let chunk = (chunk_raw > 0).then_some(chunk_raw);
        let workloads: Vec<Workload> =
            specs.into_iter().map(|(i, o)| Workload::new(i, o)).collect();
        // The largest claim, rounded up to whole 4-token blocks, plus a
        // little slack: every member fits alone, two rarely fit whole.
        let max_claim = workloads.iter().map(|w| w.input_len + w.output_len).max().unwrap();
        let tokens = (max_claim.div_ceil(4) * 4) as u64 + slack;
        let base = Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let m = base.memory_model();
        let capped = Appliance::timing_only(GptConfig::tiny(), 2)
            .unwrap()
            .with_hbm_capacity(m.weight_bytes + tokens * m.kv_bytes_per_token)
            .unwrap();
        let paging = |policy| {
            let cfg = PagedKvConfig::new(4).with_policy(policy);
            if shared_prefix { cfg.with_shared_prefix(8) } else { cfg }
        };
        let appliance = match policy {
            0 => capped,
            1 => capped.with_kv_paging(paging(PreemptionPolicy::Recompute)).unwrap(),
            _ => capped.with_kv_paging(paging(PreemptionPolicy::Retain)).unwrap(),
        };

        let mut stepper = Backend::continuous(&appliance).expect("the appliance steps");
        stepper.set_prefill_chunk(chunk);
        let mut queue: Vec<(u64, Workload)> =
            workloads.iter().copied().enumerate().map(|(i, w)| (i as u64, w)).rev().collect();
        let mut ledger = TokenLedger::new(workloads.len());
        while !queue.is_empty() || stepper.live() > 0 {
            while let Some(&(id, w)) = queue.last() {
                match stepper.admit(id, w) {
                    Ok(ev) => {
                        queue.pop();
                        ledger.admitted(id, &ev);
                    }
                    Err(SimError::Memory(_)) => {
                        prop_assert!(stepper.live() > 0, "a solo-feasible member was refused");
                        break;
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                }
                if stagger > 0 {
                    break;
                }
            }
            for _ in 0..stagger.max(1) {
                if stepper.live() == 0 {
                    break;
                }
                ledger.stepped(&stepper.step_token().unwrap());
            }
        }
        ledger.check(&workloads);
    }
}

/// Token-boundary scheduling holds its invariants end to end on the
/// real cycle-model appliance: deterministic, causal, and equivalent to
/// FIFO at `max_batch == 1` (up to float accumulation order — the
/// cycle model sums per-step milliseconds on the token path and
/// per-stage cycle totals on the dispatch path).
#[test]
fn continuous_invariants_hold_on_a_real_appliance() {
    let appliance = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
    let workloads: Vec<Workload> = (0..10)
        .map(|i| Workload::new(4 + i % 3, 2 + i % 4))
        .collect();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 2.0,
        seed: 42,
    };
    let run = |max_batch: usize| {
        ServingEngine::new(&appliance)
            .with_scheduler(Box::new(ContinuousBatching::new(max_batch)))
            .run(&workloads, &arrivals)
            .unwrap()
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(a, b, "continuous real-backend runs must be deterministic");
    assert_eq!(a.responses.len(), workloads.len());
    for r in &a.responses {
        assert!(r.start_ms >= r.request.arrival_ms);
        assert!(r.service_ms() > 0.0);
    }

    let fifo = ServingEngine::new(&appliance)
        .run(&workloads, &arrivals)
        .unwrap();
    let cont1 = run(1);
    assert_eq!(fifo.responses.len(), cont1.responses.len());
    for (f, c) in fifo.responses.iter().zip(&cont1.responses) {
        assert_eq!(f.request, c.request);
        assert!((f.start_ms - c.start_ms).abs() <= 1e-6 * f.start_ms.max(1.0));
        assert!((f.finish_ms - c.finish_ms).abs() <= 1e-6 * f.finish_ms.max(1.0));
    }
}

/// The same invariants hold end to end with a real cycle-model backend.
#[test]
fn invariants_hold_on_a_real_appliance() {
    let appliance = dfx::sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
    let workloads: Vec<Workload> = (0..10)
        .map(|i| Workload::new(4 + i % 3, 2 + i % 4))
        .collect();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 2.0,
        seed: 42,
    };
    let a = ServingEngine::new(&appliance)
        .run(&workloads, &arrivals)
        .unwrap();
    let b = ServingEngine::new(&appliance)
        .run(&workloads, &arrivals)
        .unwrap();
    assert_eq!(a, b, "real-backend runs must be deterministic");
    assert_eq!(a.responses.len(), workloads.len());
    for r in &a.responses {
        assert!(r.start_ms >= r.request.arrival_ms);
        assert!(r.service_ms() > 0.0);
    }
}

/// Every static dispatch is timed by the server that runs it, even when
/// pool members share a name: a FIFO pool of a default tiny appliance
/// and one whose core issues 4× slower serves each request in exactly
/// its own server's `serve` time.
#[test]
fn a_mixed_pool_times_each_response_on_its_own_server() {
    use dfx::core::CoreParams;
    use dfx::sim::Appliance;

    let fast = Appliance::timing_only(GptConfig::tiny(), 1).unwrap();
    let defaults = CoreParams::default();
    let params = CoreParams {
        issue_interval: 4 * defaults.issue_interval,
        ..defaults
    };
    let slow = Appliance::timing_only_with_params(GptConfig::tiny(), 1, params).unwrap();
    assert_eq!(fast.name(), slow.name());
    let pool: [&dyn Backend; 2] = [&fast, &slow];

    // Two shapes, all arriving at once, so both servers run both.
    let workloads: Vec<Workload> = (0..8).map(|i| Workload::new(8, 2 + i % 2)).collect();
    let arrivals = ArrivalProcess::Trace(vec![0.0; workloads.len()]);
    let report = ServingEngine::pool(pool.to_vec())
        .unwrap()
        .run(&workloads, &arrivals)
        .unwrap();
    assert_eq!(report.responses.len(), workloads.len());
    for server in 0..pool.len() {
        assert!(report.responses.iter().any(|r| r.server == server));
    }
    for r in &report.responses {
        let own = pool[r.server].serve(r.request.workload).unwrap().total_ms();
        let other = pool[1 - r.server]
            .serve(r.request.workload)
            .unwrap()
            .total_ms();
        assert!(
            own != other,
            "the two servers must time {} apart",
            r.request.workload
        );
        assert!(
            (r.service_ms() - own).abs() <= 1e-9 * own,
            "request {} on server {}: served in {} ms, its server takes {own} ms",
            r.request.id,
            r.server,
            r.service_ms()
        );
    }
}

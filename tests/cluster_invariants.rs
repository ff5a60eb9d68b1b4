//! Property-based tests of the `ClusterRouter` routing invariants.
//!
//! The same closed-form `UnitBackend` as `serving_invariants.rs` keeps
//! service times trivial (integer milliseconds, exact in f64), so the
//! properties stress the *router* — assignment, sub-stream streaming,
//! report pooling — not the cycle model. The pinned invariants:
//!
//! 1. **Conservation** — every submitted request appears exactly once
//!    in the cluster report, under any placement (including a seeded
//!    random one) and any open-loop arrival process.
//! 2. **Causality** — no response starts before its arrival, and every
//!    response's replica index is the one the placement chose.
//! 3. **Determinism** — identical seeds reproduce the whole
//!    `ClusterReport` bit for bit.
//! 4. **Single-replica equivalence** — a cluster of one replica is the
//!    bare `ServingEngine` run, bit-identical responses and all, under
//!    every placement.
//! 5. **Round-robin fairness** — dispatch counts never differ by more
//!    than one, so the Jain balance index is ~1.
//! 6. **Snapshot oracle** — on memory-bound replicas, every snapshot a
//!    load-aware placement is shown equals its replica's final report
//!    read at the arrival instant, on closed-form replicas under
//!    arbitrary streams and on tiny-model appliances for a fixed one.
//!
//! Plus the session-affinity prefix-hit regression: with a shared
//! system prompt on paged replicas, pinning a session strictly
//! out-hits spraying it, and the cluster's pooled `PagingStats` equal
//! the per-replica sums.
//!
//! The property blocks deliberately carry no explicit case count: the
//! vendored proptest honours `PROPTEST_CASES`, which CI raises for
//! this suite.

use dfx::hw::MemoryModel;
use dfx::model::{GptConfig, Workload};
use dfx::serve::{
    ArrivalProcess, Backend, Batching, ClusterReport, ClusterRouter, ContinuousBatching,
    ContinuousStepper, Fifo, LeastKvLoaded, LeastOutstanding, Placement, ReplicaSnapshot,
    RoundRobin, RoutedRequest, RunReport, Scheduler, ServingEngine, SessionAffinity, StepEvent,
};
use dfx::sim::{Appliance, PagedKvConfig, PreemptionPolicy, SimError};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Closed-form backend: `input + output` ms per request, with a
/// matching token-granular stepper (see `serving_invariants.rs`).
struct UnitBackend;

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

/// `UnitBackend` behind a K/V budget of `tokens` context positions, so
/// the admission probe declines joins that would overflow it and the
/// router reads real K/V load.
struct BoundedUnit {
    memory: MemoryModel,
}

impl BoundedUnit {
    fn new(tokens: u64) -> Self {
        BoundedUnit {
            memory: MemoryModel::new(1_000 + tokens * 64, 1_000, 64),
        }
    }
}

impl Backend for BoundedUnit {
    fn name(&self) -> String {
        "bounded-unit".into()
    }
    fn device_count(&self) -> usize {
        1
    }
    fn nominal_power_w(&self) -> Option<f64> {
        None
    }
    fn serve(&self, w: Workload) -> Result<RunReport, SimError> {
        UnitBackend.serve(w)
    }
    fn memory(&self) -> Option<MemoryModel> {
        Some(self.memory)
    }
    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        UnitBackend.continuous()
    }
}

/// A deterministic "adversarial" placement: a seeded LCG picks any
/// replica, ignoring load entirely. If the router's bookkeeping
/// survives this, it survives every well-behaved policy.
struct SeededRandom {
    state: u64,
}

impl Placement for SeededRandom {
    fn name(&self) -> String {
        "seeded-random".into()
    }
    fn place(&mut self, _request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        // Knuth's MMIX LCG constants; high bits for the draw.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.state >> 33) as usize) % replicas.len()
    }
}

/// Every snapshot set a placement was shown, with the request it placed.
type SnapshotLog = Rc<RefCell<Vec<(RoutedRequest, Vec<ReplicaSnapshot>)>>>;

/// Wraps a placement and records what it is shown.
struct Recording {
    inner: Box<dyn Placement>,
    log: SnapshotLog,
}

impl Placement for Recording {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.log.borrow_mut().clear();
        self.inner.reset();
    }
    fn place(&mut self, request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        self.log.borrow_mut().push((*request, replicas.to_vec()));
        self.inner.place(request, replicas)
    }
}

/// The placement `which` (0..3) names: the load-blind one and both
/// load signals.
/// The queue discipline a property draws: `Fifo`, static
/// `Batching(max_batch, max_wait_ms)` or `ContinuousBatching(max_batch)`.
fn discipline(which: usize, max_batch: usize, max_wait_ms: f64) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(Fifo),
        1 => Box::new(Batching::new(max_batch, max_wait_ms)),
        _ => Box::new(ContinuousBatching::new(max_batch)),
    }
}

fn placement(which: usize) -> Box<dyn Placement> {
    match which {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(LeastOutstanding),
        _ => Box::new(LeastKvLoaded),
    }
}

/// Routes `workloads` over single-server replicas with `placement`
/// recording every snapshot set, under `ContinuousBatching(max_batch)`.
fn recorded_run(
    servers: Vec<&dyn Backend>,
    placement: Box<dyn Placement>,
    max_batch: usize,
    workloads: &[Workload],
    arrivals: &ArrivalProcess,
) -> (ClusterReport, SnapshotLog) {
    let log = SnapshotLog::default();
    let recording = Recording {
        inner: placement,
        log: Rc::clone(&log),
    };
    let report = ClusterRouter::uniform(servers, Box::new(recording))
        .unwrap()
        .with_scheduler_factory(move || Box::new(ContinuousBatching::new(max_batch)))
        .run(workloads, arrivals)
        .unwrap();
    (report, log)
}

/// The snapshot of replica `index` that the final `report` implies at
/// `request`'s arrival `t`: assigned = the replica's requests placed
/// before this one; outstanding = those finishing after `t`; K/V load
/// = the claims of those started strictly before `t` (a decision at
/// `t` is not committed yet) and finishing after it, over the budget.
fn final_report_read_at(
    report: &ClusterReport,
    request: &RoutedRequest,
    index: usize,
    memory: MemoryModel,
) -> ReplicaSnapshot {
    let t = request.arrival_ms;
    let (mut assigned, mut outstanding, mut claimed) = (0usize, 0usize, 0u64);
    for r in &report.responses {
        if r.server != index || r.request.id >= request.id {
            continue;
        }
        assigned += 1;
        if r.finish_ms > t {
            outstanding += 1;
            if r.start_ms < t {
                let w = r.request.workload;
                claimed += memory.kv_claim_bytes(w.input_len + w.output_len);
            }
        }
    }
    ReplicaSnapshot {
        index,
        assigned,
        outstanding,
        kv_load: claimed as f64 / memory.kv_budget_bytes() as f64,
    }
}

/// Every logged snapshot that differs from the final report read at its
/// arrival, as `(request id, shown, expected)`.
fn snapshot_mismatches(
    report: &ClusterReport,
    log: &SnapshotLog,
    memories: &[MemoryModel],
) -> Vec<(u64, ReplicaSnapshot, ReplicaSnapshot)> {
    let mut bad = Vec::new();
    for (request, snapshots) in log.borrow().iter() {
        for (i, shown) in snapshots.iter().enumerate() {
            let expected = final_report_read_at(report, request, i, memories[i]);
            if *shown != expected {
                bad.push((request.id, shown.clone(), expected));
            }
        }
    }
    bad
}

fn arb_workloads() -> impl Strategy<Value = Vec<Workload>> {
    proptest::collection::vec((1usize..64, 1usize..64), 1..32)
        .prop_map(|v| v.into_iter().map(|(i, o)| Workload::new(i, o)).collect())
}

proptest! {
    /// Conservation and causality under an adversarial placement:
    /// every request served exactly once, with its own workload, never
    /// before it arrived, on the replica the placement chose.
    #[test]
    fn random_placement_conserves_requests_and_causality(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        lcg_seed in any::<u64>(),
        replicas in 1usize..5,
    ) {
        let backends: Vec<UnitBackend> = (0..replicas).map(|_| UnitBackend).collect();
        let servers: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let report = ClusterRouter::uniform(servers, Box::new(SeededRandom { state: lcg_seed }))
            .unwrap()
            .run(&workloads, &arrivals)
            .unwrap();

        prop_assert_eq!(report.total_requests, workloads.len());
        prop_assert_eq!(report.responses.len(), workloads.len());
        let ids: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        prop_assert_eq!(ids, (0..workloads.len() as u64).collect::<Vec<_>>());
        let dispatched: usize = report.replicas.iter().map(|r| r.dispatched).sum();
        prop_assert_eq!(dispatched, workloads.len());
        for r in &report.responses {
            prop_assert!(r.start_ms >= r.request.arrival_ms,
                "request {} started {} before its arrival {}",
                r.request.id, r.start_ms, r.request.arrival_ms);
            prop_assert!(r.server < replicas);
            prop_assert_eq!(r.request.workload, workloads[r.request.id as usize]);
        }
        prop_assert!(report.p50_sojourn_ms <= report.p95_sojourn_ms);
        prop_assert!(report.p95_sojourn_ms <= report.p99_sojourn_ms);
        prop_assert!(report.balance_index > 0.0 && report.balance_index <= 1.0 + 1e-12);
    }

    /// Identical seeds reproduce the whole cluster report bit for bit,
    /// for both a load-blind and a load-aware placement (the latter
    /// exercises the incremental re-simulation path).
    #[test]
    fn seeded_cluster_runs_are_reproducible(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        replicas in 1usize..4,
        load_aware in any::<bool>(),
    ) {
        let backends: Vec<UnitBackend> = (0..replicas).map(|_| UnitBackend).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let run = || {
            let servers: Vec<&dyn Backend> =
                backends.iter().map(|b| b as &dyn Backend).collect();
            let placement: Box<dyn Placement> = if load_aware {
                Box::new(dfx::serve::LeastOutstanding)
            } else {
                Box::new(RoundRobin::new())
            };
            ClusterRouter::uniform(servers, placement)
                .unwrap()
                .run(&workloads, &arrivals)
                .unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    /// A cluster of one replica is the bare engine under every
    /// placement and every discipline: the replica's inner report
    /// equals `ServingEngine::run` over the same pool bit for bit, and
    /// the cluster-level responses and percentiles match it. The
    /// replica is a pool of one or two servers; `Batching` exercises
    /// the streamed `Wait` stash, `ContinuousBatching` the streamed
    /// decline, `Fifo` the plain static dispatch.
    #[test]
    fn single_replica_cluster_is_bit_identical_to_bare_engine(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        drawn_discipline in (0usize..3, 1usize..5, 0.0f64..40.0),
        drawn_pool in (0usize..3, 1usize..3),
    ) {
        let (which_discipline, max_batch, max_wait_ms) = drawn_discipline;
        let (which, pool_size) = drawn_pool;
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let make_scheduler = move || discipline(which_discipline, max_batch, max_wait_ms);
        let backends: Vec<UnitBackend> = (0..pool_size).map(|_| UnitBackend).collect();
        let pool = || backends.iter().map(|b| b as &dyn Backend).collect::<Vec<_>>();
        let bare = ServingEngine::pool(pool())
            .unwrap()
            .with_scheduler(make_scheduler())
            .run(&workloads, &arrivals)
            .unwrap();
        let cluster = ClusterRouter::new(vec![pool()], placement(which))
            .unwrap()
            .with_scheduler_factory(make_scheduler)
            .run(&workloads, &arrivals)
            .unwrap();

        let inner = cluster.replicas[0].report.as_ref().unwrap();
        prop_assert_eq!(inner, &bare);
        // The engine reports completion order and pool servers; the
        // cluster re-keys to ascending global id and names the replica
        // (always 0 here). Same responses, documented order.
        let mut bare_by_id = bare.responses.clone();
        bare_by_id.sort_by_key(|r| r.request.id);
        for r in &mut bare_by_id {
            r.server = 0;
        }
        prop_assert_eq!(&cluster.responses, &bare_by_id);
        prop_assert_eq!(cluster.p50_sojourn_ms, bare.p50_sojourn_ms);
        prop_assert_eq!(cluster.p95_sojourn_ms, bare.p95_sojourn_ms);
        prop_assert_eq!(cluster.p99_sojourn_ms, bare.p99_sojourn_ms);
        prop_assert_eq!(cluster.makespan_ms, bare.makespan_ms);
        prop_assert_eq!(cluster.goodput_tps, bare.goodput_tps);
        prop_assert_eq!(cluster.balance_index, 1.0);
    }

    /// Round-robin dispatch counts never differ by more than one,
    /// whatever the stream or pacing.
    #[test]
    fn round_robin_dispatch_counts_differ_by_at_most_one(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        replicas in 1usize..6,
    ) {
        let backends: Vec<UnitBackend> = (0..replicas).map(|_| UnitBackend).collect();
        let servers: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let report = ClusterRouter::uniform(servers, Box::new(RoundRobin::new()))
            .unwrap()
            .run(&workloads, &arrivals)
            .unwrap();
        let counts: Vec<usize> = report.replicas.iter().map(|r| r.dispatched).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "round-robin dispatch skew: {:?}", counts);
    }

    /// Snapshot oracle: every snapshot a load-aware placement is shown
    /// equals its replica's final report read at the arrival instant.
    /// The 160-token budget fits any single arb workload (≤ 126 tokens)
    /// but not every pair, so admission declines genuinely occur under
    /// load.
    #[test]
    fn snapshots_match_final_reports_read_at_each_arrival(
        workloads in arb_workloads(),
        rate_per_s in 0.5f64..200.0,
        seed in any::<u64>(),
        replicas in 1usize..4,
        max_batch in 1usize..5,
        kv_aware in any::<bool>(),
    ) {
        let backends: Vec<BoundedUnit> = (0..replicas).map(|_| BoundedUnit::new(160)).collect();
        let servers: Vec<&dyn Backend> = backends.iter().map(|b| b as &dyn Backend).collect();
        let memories: Vec<MemoryModel> = backends.iter().map(|b| b.memory).collect();
        let arrivals = ArrivalProcess::Poisson { rate_per_s, seed };
        let (report, log) = recorded_run(
            servers,
            placement(if kv_aware { 2 } else { 1 }),
            max_batch,
            &workloads,
            &arrivals,
        );
        prop_assert_eq!(log.borrow().len(), workloads.len());
        let bad = snapshot_mismatches(&report, &log, &memories);
        prop_assert!(bad.is_empty(), "(id, shown, expected): {:?}", bad);
    }
}

/// The snapshot oracle on the cycle model: three tiny-model appliances
/// with a 160-token K/V budget under a saturating stream, for both load
/// signals.
#[test]
fn snapshots_match_final_reports_on_memory_bound_appliances() {
    let appliances: Vec<Appliance> = (0..3)
        .map(|_| {
            let base = Appliance::timing_only(GptConfig::tiny(), 1).unwrap();
            let m = base.memory_model();
            base.with_hbm_capacity(m.weight_bytes + 160 * m.kv_bytes_per_token)
                .unwrap()
        })
        .collect();
    let memories: Vec<MemoryModel> = appliances.iter().map(Appliance::memory_model).collect();
    let workloads: Vec<Workload> = (0..24)
        .map(|i| Workload::new(8 + (i * 17) % 56, 4 + (i * 11) % 40))
        .collect();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 2_000.0,
        seed: 7,
    };
    for which in [1, 2] {
        let servers: Vec<&dyn Backend> = appliances.iter().map(|a| a as &dyn Backend).collect();
        let (report, log) = recorded_run(servers, placement(which), 3, &workloads, &arrivals);
        assert_eq!(log.borrow().len(), workloads.len());
        let bad = snapshot_mismatches(&report, &log, &memories);
        assert!(bad.is_empty(), "(id, shown, expected): {bad:?}");
    }
}

/// Session-affinity prefix-hit regression: two paged replicas behind a
/// shared system prompt, one session of identical requests. Pinning
/// the session computes the prompt once and hits it `n-1` times;
/// spraying round-robin computes it once *per replica*, so affinity
/// strictly out-hits it. The cluster's pooled `PagingStats` must be
/// the exact per-replica sums in both runs.
#[test]
fn session_affinity_out_hits_round_robin_and_paging_totals_are_sums() {
    let cfg = GptConfig::tiny();
    let prefix = 16usize;
    let paged: Vec<Appliance> = (0..2)
        .map(|_| {
            Appliance::timing_only(cfg.clone(), 1)
                .unwrap()
                .with_kv_paging(
                    PagedKvConfig::new(8)
                        .with_policy(PreemptionPolicy::Retain)
                        .with_shared_prefix(prefix),
                )
                .unwrap()
        })
        .collect();
    let stream = vec![Workload::new(prefix + 8, 4); 10];
    let sessions = vec![Some(3u64); stream.len()];
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 20.0,
        seed: 11,
    };
    let run = |placement: Box<dyn Placement>| {
        let servers: Vec<&dyn Backend> = paged.iter().map(|a| a as &dyn Backend).collect();
        ClusterRouter::uniform(servers, placement)
            .unwrap()
            .with_scheduler_factory(|| Box::new(ContinuousBatching::new(4)))
            .run_sessions(&stream, &sessions, &arrivals)
            .unwrap()
    };
    let sprayed = run(Box::new(RoundRobin::new()));
    let pinned = run(Box::new(SessionAffinity::new(Box::new(RoundRobin::new()))));

    // Affinity routes the whole session to one replica.
    let pinned_counts: Vec<usize> = pinned.replicas.iter().map(|r| r.dispatched).collect();
    assert!(
        pinned_counts.contains(&stream.len()),
        "session split across replicas: {pinned_counts:?}"
    );

    let (s, p) = (sprayed.paging.unwrap(), pinned.paging.unwrap());
    assert_eq!(p.prefix_computed_tokens, prefix);
    assert_eq!(s.prefix_computed_tokens, 2 * prefix);
    assert!(
        p.prefix_hit_tokens > s.prefix_hit_tokens,
        "affinity hits {} !> round-robin hits {}",
        p.prefix_hit_tokens,
        s.prefix_hit_tokens
    );

    // Pooled paging counters are the exact per-replica sums.
    for report in [&sprayed, &pinned] {
        let pooled = report.paging.unwrap();
        let mut hit = 0usize;
        let mut computed = 0usize;
        let mut preemptions = 0usize;
        for r in &report.replicas {
            if let Some(stats) = r.report.as_ref().and_then(|rep| rep.paging) {
                hit += stats.prefix_hit_tokens;
                computed += stats.prefix_computed_tokens;
                preemptions += stats.preemptions;
            }
        }
        assert_eq!(pooled.prefix_hit_tokens, hit);
        assert_eq!(pooled.prefix_computed_tokens, computed);
        assert_eq!(pooled.preemptions, preemptions);
    }
}

/// The routing invariants hold end to end on real cycle-model
/// appliances: deterministic, conserving, causal.
#[test]
fn cluster_invariants_hold_on_real_appliances() {
    let appliances: Vec<Appliance> = (0..3)
        .map(|_| Appliance::timing_only(GptConfig::tiny(), 1).unwrap())
        .collect();
    let workloads: Vec<Workload> = (0..12)
        .map(|i| Workload::new(4 + i % 3, 2 + i % 4))
        .collect();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 5.0,
        seed: 42,
    };
    let run = || {
        let servers: Vec<&dyn Backend> = appliances.iter().map(|a| a as &dyn Backend).collect();
        ClusterRouter::uniform(servers, Box::new(dfx::serve::LeastKvLoaded))
            .unwrap()
            .with_scheduler_factory(|| Box::new(ContinuousBatching::new(3)))
            .run(&workloads, &arrivals)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "real-backend cluster runs must be deterministic");
    assert_eq!(a.responses.len(), workloads.len());
    for r in &a.responses {
        assert!(r.start_ms >= r.request.arrival_ms);
        assert!(r.finish_ms > r.start_ms);
        assert!(r.server < 3);
    }
}

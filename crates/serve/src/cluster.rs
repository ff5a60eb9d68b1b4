//! Cluster tier: deterministic routing across N serving-engine replicas.
//!
//! The paper's appliance stops at 2 servers / 8 FPGAs (§VI); a
//! production deployment fronts many such appliances — possibly of
//! different generations, possibly mixed with GPU servers — behind one
//! request stream. [`ClusterRouter`] is that front door: it assigns
//! every arrival to exactly one replica through a pluggable
//! [`Placement`] policy, simulates each replica's sub-stream on its own
//! [`ServingEngine`](crate::ServingEngine), and aggregates the per-replica
//! [`ServiceReport`]s into a [`ClusterReport`] with *pooled*
//! cross-replica percentiles (see [`stats::merged_percentile`] — never
//! averaged), a Jain balance index and merged paging counters.
//!
//! # Causal routing
//!
//! Requests are placed in arrival order, and every replica streams its
//! sub-stream through one [`EngineCheckpoint`] for the whole run. At an
//! arrival `t` the router advances each checkpoint to `t` and reads the
//! replica's [`ReplicaSnapshot`] off the events it has committed
//! strictly before `t`, so no snapshot depends on a request arriving at
//! or after `t`. A scheduler decision whose outcome depends on whether
//! another request will arrive (a decline or a wait taken when the
//! replica knows of no later arrival) stays unresolved until one does:
//! while a replica waits on such a decision, it commits nothing further
//! and its snapshot reads the events committed before the decision.
//! After the last arrival every checkpoint drains to the same
//! [`ServiceReport`] a batch run of its sub-stream produces, so the
//! router simulates each engine event once.
//!
//! Closed-loop arrivals are rejected with a typed error: a think-time
//! loop couples submissions to completions on *one* queue, so it binds
//! to a single replica's engine, not to a router.
//!
//! # Disaggregation
//!
//! [`DisaggregatedCluster`] chains two routers — a prefill pool and a
//! decode pool — with a modelled K/V handoff over a
//! [`LinkModel`]: a request prefills (and emits its first token) on
//! the prefill pool, pays `context tokens × kv bytes/token × devices`
//! of transfer, then decodes its remaining tokens on a
//! [`DecodeOnly`]-wrapped replica whose admission charges no prefill
//! (the K/V cache arrives pre-populated over the link).

use crate::arrivals::ArrivalProcess;
use crate::backend::{Backend, BatchReport, RunReport};
use crate::checkpoint::EngineCheckpoint;
use crate::engine::{Request, Response, ServiceReport};
use crate::scheduler::Scheduler;
use crate::stats;
use dfx_hw::{LinkModel, MemoryModel};
use dfx_model::Workload;
use dfx_sim::{ContinuousStepper, StepEvent};
use dfx_sim::{PagingStats, SimError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One request as the router sees it at placement time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedRequest {
    /// Global submission index (also the index into the workload list).
    pub id: u64,
    /// What the request asks a replica to do.
    pub workload: Workload,
    /// Absolute arrival time, ms.
    pub arrival_ms: f64,
    /// Session the request belongs to, when the trace carries sessions
    /// ([`ClusterRouter::run_sessions`]); requests of one session share
    /// a prefix, so [`SessionAffinity`] keeps them on one replica.
    pub session: Option<u64>,
}

/// A replica's state at one placement decision: what it committed
/// strictly before the arrival instant (see the module docs on causal
/// routing).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSnapshot {
    /// Replica index in construction order.
    pub index: usize,
    /// Requests assigned to this replica so far (queued, running or
    /// finished).
    pub assigned: usize,
    /// Assigned requests the replica has not committed as finished by
    /// the arrival instant: the queued and running ones, plus — while
    /// the replica waits on an unresolved decision — any that finish
    /// between that decision and the arrival.
    pub outstanding: usize,
    /// Fraction of the replica's K/V budget claimed at the arrival
    /// instant by committed admissions that have started and whose
    /// committed completion (if any) lies after it: whole
    /// `input + output` claims against [`MemoryModel::kv_budget_bytes`],
    /// summed over the replica's memory-modelled servers. Zero when no
    /// server models memory.
    pub kv_load: f64,
}

/// A routing policy: picks the replica index for each arrival.
///
/// Implementations are deterministic state machines; the router calls
/// [`reset`](Placement::reset) at the start of every run so a reused
/// router reproduces identical reports.
pub trait Placement {
    /// Human-readable policy name for reports.
    fn name(&self) -> String;

    /// Clears per-run state (dispatch counters, session tables).
    fn reset(&mut self) {}

    /// Chooses the replica for `request`. Must return an index below
    /// `replicas.len()`; the router turns an out-of-range choice into a
    /// typed [`SimError::Service`].
    fn place(&mut self, request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize;
}

/// Cycles through replicas in construction order: dispatch counts never
/// differ by more than one.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin policy starting at replica 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Placement for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn reset(&mut self) {
        self.next = 0;
    }

    fn place(&mut self, _request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        let choice = self.next % replicas.len().max(1);
        self.next = choice + 1;
        choice
    }
}

/// Joins the replica with the fewest in-system requests (TGI-router
/// style least-outstanding-requests), ties to the lowest index.
#[derive(Debug, Default)]
pub struct LeastOutstanding;

impl Placement for LeastOutstanding {
    fn name(&self) -> String {
        "least-outstanding".into()
    }

    fn place(&mut self, _request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        replicas
            .iter()
            .min_by(|a, b| (a.outstanding, a.index).cmp(&(b.outstanding, b.index)))
            .map(|r| r.index)
            .unwrap_or(0)
    }
}

/// Joins the replica with the lowest claimed fraction of its K/V budget
/// — the memory-aware policy: on memory-bound replicas, queue length
/// undercounts pressure because one long-context request claims as much
/// HBM as many short ones. Ties break on outstanding count, then index.
#[derive(Debug, Default)]
pub struct LeastKvLoaded;

impl Placement for LeastKvLoaded {
    fn name(&self) -> String {
        "least-kv-loaded".into()
    }

    fn place(&mut self, _request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        replicas
            .iter()
            .min_by(|a, b| {
                a.kv_load
                    .total_cmp(&b.kv_load)
                    .then((a.outstanding, a.index).cmp(&(b.outstanding, b.index)))
            })
            .map(|r| r.index)
            .unwrap_or(0)
    }
}

/// Pins every session to the replica that served its first request, so
/// same-session requests hit the prefix-cache blocks their predecessors
/// left behind ([`dfx_sim::BlockPool`]'s shared-prefix cache); requests
/// without a session — and each session's first request — fall through
/// to the wrapped policy.
pub struct SessionAffinity {
    fallback: Box<dyn Placement>,
    sessions: BTreeMap<u64, usize>,
}

impl SessionAffinity {
    /// Session affinity over `fallback` for unpinned requests.
    pub fn new(fallback: Box<dyn Placement>) -> Self {
        SessionAffinity {
            fallback,
            sessions: BTreeMap::new(),
        }
    }
}

impl Placement for SessionAffinity {
    fn name(&self) -> String {
        format!("session-affinity({})", self.fallback.name())
    }

    fn reset(&mut self) {
        self.sessions.clear();
        self.fallback.reset();
    }

    fn place(&mut self, request: &RoutedRequest, replicas: &[ReplicaSnapshot]) -> usize {
        if let Some(session) = request.session {
            if let Some(&pinned) = self.sessions.get(&session) {
                return pinned;
            }
            let choice = self.fallback.place(request, replicas);
            self.sessions.insert(session, choice);
            return choice;
        }
        self.fallback.place(request, replicas)
    }
}

/// Jain's fairness index of the per-replica dispatch counts:
/// `(Σx)² / (n · Σx²)`, in `(0, 1]` — `1.0` means perfectly even,
/// `1/n` means one replica took everything. An all-zero vector is
/// trivially balanced (`1.0`).
pub fn jain_fairness(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for &c in counts {
        let x = c as f64;
        // lint: order-sensitive — summed in replica index order
        sum += x;
        // lint: order-sensitive — summed in replica index order
        sum_sq += x * x;
    }
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (counts.len() as f64 * sum_sq)
}

/// Total modelled K/V bytes one context token occupies across a
/// replica's devices: the per-device [`MemoryModel::kv_bytes_per_token`]
/// of the first memory-modelled server, times its device count (wider
/// sharding splits a token's K/V across more devices but the *total*
/// moved over a link is the whole token). Zero when no server models
/// memory.
fn replica_kv_bytes_per_token(servers: &[&dyn Backend]) -> u64 {
    servers
        .iter()
        .find_map(|s| {
            s.memory()
                .map(|m| m.kv_bytes_per_token * s.device_count() as u64)
        })
        .unwrap_or(0)
}

fn replica_name(servers: &[&dyn Backend]) -> String {
    if servers.len() == 1 {
        servers[0].name()
    } else {
        let names: Vec<String> = servers.iter().map(|s| s.name()).collect();
        format!("pool({})", names.join(" + "))
    }
}

/// Per-replica slice of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Replica description (server name, or `pool(...)`).
    pub name: String,
    /// Requests the router dispatched to this replica.
    pub dispatched: usize,
    /// The replica's own engine report (request ids are replica-local
    /// submission indices). `None` when nothing was dispatched here.
    pub report: Option<ServiceReport>,
}

/// Modelled K/V-handoff cost of a disaggregated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferStats {
    /// Requests that moved prefill→decode over the link.
    pub transfers: usize,
    /// Total K/V bytes moved.
    pub bytes: u64,
    /// Total link time across all transfers, ms.
    pub total_ms: f64,
    /// Mean link time per transferred request, ms (zero when nothing
    /// transferred).
    pub mean_ms: f64,
}

/// Service-level view of a whole cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Placement policy name.
    pub placement: String,
    /// Scheduler each replica engine ran.
    pub scheduler: String,
    /// Per-replica dispatch counts and engine reports.
    pub replicas: Vec<ReplicaReport>,
    /// Every response, with *global* request ids, ascending by id;
    /// [`Response::server`] is the replica index.
    pub responses: Vec<Response>,
    /// Requests served.
    pub total_requests: usize,
    /// Last completion across the cluster, ms.
    pub makespan_ms: f64,
    /// Median sojourn of the *pooled* per-replica samples, ms.
    pub p50_sojourn_ms: f64,
    /// 95th-percentile pooled sojourn, ms.
    pub p95_sojourn_ms: f64,
    /// 99th-percentile pooled sojourn, ms.
    pub p99_sojourn_ms: f64,
    /// Median pooled time to first token, ms — per-replica TTFT
    /// samples pooled via [`stats::merge_sorted`] (percentiles of a
    /// cluster are percentiles of the pooled samples, never averages
    /// of per-replica percentiles). On a [`DisaggregatedCluster`] this
    /// is end to end: the first token reaches the client when its
    /// prefill phase completes.
    pub p50_ttft_ms: f64,
    /// 95th-percentile pooled TTFT, ms.
    pub p95_ttft_ms: f64,
    /// 99th-percentile pooled TTFT, ms.
    pub p99_ttft_ms: f64,
    /// Median pooled inter-token latency, ms (zero when no replica ran
    /// a token-boundary discipline).
    pub p50_itl_ms: f64,
    /// 95th-percentile pooled ITL, ms.
    pub p95_itl_ms: f64,
    /// 99th-percentile pooled ITL, ms.
    pub p99_itl_ms: f64,
    /// Cluster energy, J: the sum of per-replica
    /// [`ServiceReport::energy_j`] (each replica's backend power times
    /// its busy time). `None` when no replica models power. Per-replica
    /// values stay readable through
    /// [`replicas`](ClusterReport::replicas).
    pub energy_j: Option<f64>,
    /// Output tokens delivered per second of cluster makespan.
    pub goodput_tps: f64,
    /// Jain fairness of the dispatch counts ([`jain_fairness`]).
    pub balance_index: f64,
    /// Paged-K/V counters merged across every replica that paged.
    pub paging: Option<PagingStats>,
    /// K/V-handoff cost; `None` outside disaggregated topologies.
    pub transfer: Option<TransferStats>,
}

impl ClusterReport {
    /// Mean per-replica utilization over replicas that served anything.
    pub fn mean_utilization(&self) -> f64 {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for r in &self.replicas {
            if let Some(report) = &r.report {
                // lint: order-sensitive — summed in replica index order
                sum += report.utilization;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Cluster-wide prefix-cache hit rate, when any replica pages.
    pub fn prefix_hit_rate(&self) -> Option<f64> {
        self.paging.as_ref().map(PagingStats::hit_rate)
    }
}

/// A deterministic router over N serving-engine replicas. See the
/// module docs for the routing model and its exactness guarantees.
pub struct ClusterRouter<'a> {
    /// Each replica's server pool, in construction order.
    replicas: Vec<Vec<&'a dyn Backend>>,
    placement: Box<dyn Placement>,
    make_scheduler: Box<dyn Fn() -> Box<dyn Scheduler> + 'a>,
}

impl<'a> ClusterRouter<'a> {
    /// A router over replicas, each a non-empty server pool behind one
    /// queue ([`ServingEngine::pool`](crate::ServingEngine::pool) semantics).
    ///
    /// Replica engines default to FIFO; install any discipline with
    /// [`with_scheduler_factory`](ClusterRouter::with_scheduler_factory).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] when there are no replicas or a
    /// replica has no servers.
    pub fn new(
        replicas: Vec<Vec<&'a dyn Backend>>,
        placement: Box<dyn Placement>,
    ) -> Result<Self, SimError> {
        if replicas.is_empty() {
            return Err(SimError::Service("cluster has no replicas".into()));
        }
        for (i, servers) in replicas.iter().enumerate() {
            if servers.is_empty() {
                return Err(SimError::Service(format!("replica {i} has no servers")));
            }
        }
        Ok(ClusterRouter {
            replicas,
            placement,
            make_scheduler: Box::new(|| Box::new(crate::scheduler::Fifo)),
        })
    }

    /// A router with one single-server replica per backend.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] for an empty backend list.
    pub fn uniform(
        servers: Vec<&'a dyn Backend>,
        placement: Box<dyn Placement>,
    ) -> Result<Self, SimError> {
        ClusterRouter::new(servers.into_iter().map(|s| vec![s]).collect(), placement)
    }

    /// Installs the scheduler every replica engine runs. A factory, not
    /// an instance: each replica's checkpoint needs its own scheduler
    /// state.
    pub fn with_scheduler_factory(mut self, factory: impl Fn() -> Box<dyn Scheduler> + 'a) -> Self {
        self.make_scheduler = Box::new(factory);
        self
    }

    /// Routes and serves a sessionless stream; see
    /// [`run_sessions`](ClusterRouter::run_sessions).
    ///
    /// # Errors
    ///
    /// As [`run_sessions`](ClusterRouter::run_sessions).
    pub fn run(
        &mut self,
        workloads: &[Workload],
        arrivals: &ArrivalProcess,
    ) -> Result<ClusterReport, SimError> {
        self.run_sessions(workloads, &vec![None; workloads.len()], arrivals)
    }

    /// Routes every arrival to one replica and serves all sub-streams,
    /// producing a [`ClusterReport`]. `sessions[i]` tags workload `i`
    /// with a session for [`SessionAffinity`] (use `None` for
    /// sessionless requests).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] for an empty workload list, a
    /// session list of mismatched length, a closed-loop arrival process
    /// (think-time loops bind to one replica's engine — see the module
    /// docs), or a placement returning an out-of-range replica index;
    /// propagates engine and backend errors from replica simulation.
    pub fn run_sessions(
        &mut self,
        workloads: &[Workload],
        sessions: &[Option<u64>],
        arrivals: &ArrivalProcess,
    ) -> Result<ClusterReport, SimError> {
        if workloads.is_empty() {
            return Err(SimError::Service("nothing to route".into()));
        }
        if sessions.len() != workloads.len() {
            return Err(SimError::Service(format!(
                "{} session tags for {} workloads",
                sessions.len(),
                workloads.len()
            )));
        }
        let times = arrivals.open_arrivals_ms(workloads.len())?.ok_or_else(|| {
            SimError::Service(
                "cluster routing requires an open-loop arrival process (Poisson or \
                 Trace); a closed loop couples submissions to completions on one \
                 queue, so it binds to a single replica's ServingEngine"
                    .into(),
            )
        })?;

        self.placement.reset();
        // Each replica's checkpoint, paired with the global ids of the
        // requests pushed into it (its local ids are push indices).
        let mut streams: Vec<(EngineCheckpoint<'a>, Vec<u64>)> =
            Vec::with_capacity(self.replicas.len());
        for servers in &self.replicas {
            let live = EngineCheckpoint::new(servers.clone(), (self.make_scheduler)())?;
            streams.push((live, Vec::new()));
        }

        for (i, (&workload, &arrival_ms)) in workloads.iter().zip(&times).enumerate() {
            let request = RoutedRequest {
                id: i as u64,
                workload,
                arrival_ms,
                session: sessions[i],
            };
            let mut snapshots = Vec::with_capacity(streams.len());
            for (index, (live, _)) in streams.iter_mut().enumerate() {
                live.advance_to(arrival_ms)?;
                snapshots.push(ReplicaSnapshot {
                    index,
                    assigned: live.pushed(),
                    outstanding: live.outstanding_at(arrival_ms),
                    kv_load: live.kv_load_at(arrival_ms),
                });
            }
            let choice = self.placement.place(&request, &snapshots);
            let Some((live, ids)) = streams.get_mut(choice) else {
                return Err(SimError::Service(format!(
                    "placement `{}` chose replica {choice} of {}",
                    self.placement.name(),
                    self.replicas.len()
                )));
            };
            live.push(workload, arrival_ms);
            ids.push(request.id);
        }

        self.finalize(workloads, streams)
    }

    /// Drains every non-empty replica's checkpoint and aggregates the
    /// cluster report.
    fn finalize(
        &self,
        workloads: &[Workload],
        streams: Vec<(EngineCheckpoint<'a>, Vec<u64>)>,
    ) -> Result<ClusterReport, SimError> {
        let mut replica_reports = Vec::with_capacity(self.replicas.len());
        let mut responses: Vec<Response> = Vec::with_capacity(workloads.len());
        let mut paging: Option<PagingStats> = None;
        let mut makespan_ms = 0.0f64;
        for (index, (servers, (live, ids))) in self.replicas.iter().zip(streams).enumerate() {
            let report = if ids.is_empty() {
                None
            } else {
                Some(live.finish()?)
            };
            if let Some(report) = &report {
                for r in &report.responses {
                    let local = r.request.id as usize;
                    let global_id = match ids.get(local) {
                        Some(&gid) => gid,
                        None => {
                            return Err(SimError::Service(format!(
                                "replica {index} reported unknown local request {local}"
                            )))
                        }
                    };
                    responses.push(Response {
                        request: Request {
                            id: global_id,
                            workload: r.request.workload,
                            arrival_ms: r.request.arrival_ms,
                        },
                        server: index,
                        start_ms: r.start_ms,
                        finish_ms: r.finish_ms,
                    });
                }
                if let Some(stats) = &report.paging {
                    match paging.as_mut() {
                        Some(merged) => merged.merge(stats),
                        None => paging = Some(*stats),
                    }
                }
                makespan_ms = makespan_ms.max(report.makespan_ms);
            }
            replica_reports.push(ReplicaReport {
                name: replica_name(servers),
                dispatched: ids.len(),
                report,
            });
        }
        responses.sort_by_key(|r| r.request.id);

        // Pooled cross-replica percentiles through the shared merge
        // seam — averaging per-replica percentiles is the bug this
        // module's stats satellite exists to prevent.
        let group_refs: Vec<&[f64]> = replica_reports
            .iter()
            .filter_map(|r| r.report.as_ref().map(ServiceReport::sorted_sojourns))
            .collect();
        let pooled = stats::merge_sorted(&group_refs)?;
        let counts: Vec<usize> = replica_reports.iter().map(|r| r.dispatched).collect();
        let total_tokens: usize = workloads.iter().map(|w| w.output_len).sum();

        // TTFT/ITL pool through the same merge seam as sojourns, and
        // energy sums per-replica totals — the values a per-replica
        // engine report carries but this tier used to drop.
        let ttft_refs: Vec<&[f64]> = replica_reports
            .iter()
            .filter_map(|r| r.report.as_ref().map(ServiceReport::sorted_ttfts))
            .collect();
        let pooled_ttfts = stats::merge_sorted(&ttft_refs)?;
        let itl_refs: Vec<&[f64]> = replica_reports
            .iter()
            .filter_map(|r| r.report.as_ref().map(ServiceReport::sorted_token_gaps))
            .collect();
        let pooled_itl = stats::merge_sorted(&itl_refs)?;
        let (p50_ttft_ms, p95_ttft_ms, p99_ttft_ms) = pooled_percentiles(&pooled_ttfts)?;
        let (p50_itl_ms, p95_itl_ms, p99_itl_ms) = pooled_percentiles(&pooled_itl)?;
        let energy_j = sum_energy(replica_reports.iter().map(|r| r.report.as_ref()));

        Ok(ClusterReport {
            placement: self.placement.name(),
            scheduler: (self.make_scheduler)().name().to_string(),
            replicas: replica_reports,
            responses,
            total_requests: workloads.len(),
            makespan_ms,
            p50_sojourn_ms: stats::percentile(&pooled, 0.50)?,
            p95_sojourn_ms: stats::percentile(&pooled, 0.95)?,
            p99_sojourn_ms: stats::percentile(&pooled, 0.99)?,
            p50_ttft_ms,
            p95_ttft_ms,
            p99_ttft_ms,
            p50_itl_ms,
            p95_itl_ms,
            p99_itl_ms,
            energy_j,
            goodput_tps: total_tokens as f64 / (makespan_ms.max(f64::MIN_POSITIVE) / 1e3),
            balance_index: jain_fairness(&counts),
            paging,
            transfer: None,
        })
    }
}

/// Nearest-rank p50/p95/p99 over an already-sorted pool; all zero for
/// an empty pool (e.g. ITL under a static discipline).
fn pooled_percentiles(pool: &[f64]) -> Result<(f64, f64, f64), SimError> {
    if pool.is_empty() {
        return Ok((0.0, 0.0, 0.0));
    }
    Ok((
        stats::percentile(pool, 0.50)?,
        stats::percentile(pool, 0.95)?,
        stats::percentile(pool, 0.99)?,
    ))
}

/// Sums [`ServiceReport::energy_j`] across replica reports: `None`
/// when no replica models power, otherwise the sum over those that do.
fn sum_energy<'r>(reports: impl Iterator<Item = Option<&'r ServiceReport>>) -> Option<f64> {
    let mut total: Option<f64> = None;
    for report in reports.flatten() {
        if let Some(e) = report.energy_j {
            // lint: order-sensitive — summed in replica index order
            *total.get_or_insert(0.0) += e;
        }
    }
    total
}

/// A backend wrapper whose admission charges no prefill: the K/V cache
/// for the context is already resident (delivered over the
/// [`LinkModel`] of a [`DisaggregatedCluster`], which pays the
/// transfer on the shared timeline instead). Static serving zeroes the
/// summarization stage; the continuous stepper zeroes the admission
/// charge. Everything else — decode costs, memory budget, paging —
/// delegates to the wrapped backend.
pub struct DecodeOnly<'a> {
    inner: &'a dyn Backend,
}

impl<'a> DecodeOnly<'a> {
    /// Wraps `inner` as a decode-pool backend.
    pub fn new(inner: &'a dyn Backend) -> Self {
        DecodeOnly { inner }
    }
}

impl Backend for DecodeOnly<'_> {
    fn name(&self) -> String {
        format!("decode-only({})", self.inner.name())
    }

    fn device_count(&self) -> usize {
        self.inner.device_count()
    }

    fn nominal_power_w(&self) -> Option<f64> {
        self.inner.nominal_power_w()
    }

    fn serve(&self, workload: Workload) -> Result<RunReport, SimError> {
        let mut report = self.inner.serve(workload)?;
        report.summarization_ms = 0.0;
        Ok(report)
    }

    fn serve_batch(&self, batch: &[Workload]) -> Result<BatchReport, SimError> {
        let mut report = self.inner.serve_batch(batch)?;
        report.summarization_ms = 0.0;
        Ok(report)
    }

    fn memory(&self) -> Option<MemoryModel> {
        self.inner.memory()
    }

    fn batch_feasible(&self, batch: &[Workload]) -> bool {
        self.inner.batch_feasible(batch)
    }

    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        self.inner
            .continuous()
            .map(|inner| Box::new(DecodeOnlyStepper { inner }) as Box<dyn ContinuousStepper>)
    }
}

/// Stepper adapter behind [`DecodeOnly`]: admissions allocate K/V and
/// join the batch as usual but charge zero time.
struct DecodeOnlyStepper<'a> {
    inner: Box<dyn ContinuousStepper + 'a>,
}

impl ContinuousStepper for DecodeOnlyStepper<'_> {
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        let mut event = self.inner.admit(id, workload)?;
        event.ms = 0.0;
        Ok(event)
    }

    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        self.inner.step_token()
    }

    fn live(&self) -> usize {
        self.inner.live()
    }

    fn set_prefill_chunk(&mut self, _chunk: Option<usize>) {
        // There is no prefill to chunk on the decode pool.
    }

    fn prefill_cost_ms(&mut self, _workload: Workload) -> f64 {
        0.0
    }

    fn step_cost_ms(&mut self, live: usize) -> f64 {
        self.inner.step_cost_ms(live)
    }

    fn kv_fits_resident(&self, members: &[Workload]) -> Option<bool> {
        self.inner.kv_fits_resident(members)
    }

    fn kv_stats(&self) -> Option<PagingStats> {
        self.inner.kv_stats()
    }
}

/// Prefill/decode disaggregation: a prefill router, a decode router and
/// the link between them (Splitwise/DistServe-style, on top of the
/// paper's observation that summarization is compute-bound while
/// generation is memory-bound, §III-B).
///
/// A request runs `(input, 1)` on the prefill pool (the prefill emits
/// the first token), pays `input tokens × kv bytes/token × devices`
/// over the link, then runs `(input + 1, output − 1)` on the decode
/// pool, whose replicas should be [`DecodeOnly`]-wrapped so admission
/// charges no second prefill. Requests asking for a single output token
/// never transfer.
pub struct DisaggregatedCluster<'a> {
    prefill: ClusterRouter<'a>,
    decode: ClusterRouter<'a>,
    link: LinkModel,
}

impl<'a> DisaggregatedCluster<'a> {
    /// A disaggregated topology over the two routers and the K/V link.
    pub fn new(prefill: ClusterRouter<'a>, decode: ClusterRouter<'a>, link: LinkModel) -> Self {
        DisaggregatedCluster {
            prefill,
            decode,
            link,
        }
    }

    /// Serves the stream through both phases, producing one
    /// [`ClusterReport`]: `replicas` lists the prefill replicas then
    /// the decode replicas (each phase's inner reports keep
    /// phase-local request ids), `responses` are end-to-end per
    /// original request, and `transfer` carries the modelled K/V
    /// handoff cost.
    ///
    /// # Errors
    ///
    /// As [`ClusterRouter::run`], for either phase.
    pub fn run(
        &mut self,
        workloads: &[Workload],
        arrivals: &ArrivalProcess,
    ) -> Result<ClusterReport, SimError> {
        if workloads.is_empty() {
            return Err(SimError::Service("nothing to route".into()));
        }
        // Phase 1: prefill each context and emit the first token.
        let prefill_workloads: Vec<Workload> = workloads
            .iter()
            .map(|w| Workload::new(w.input_len, 1))
            .collect();
        let prefill_report = self.prefill.run(&prefill_workloads, arrivals)?;

        // Phase 2 arrivals: prefill completion plus the K/V transfer.
        // Bytes per context token come from the prefill replica that
        // served the request (its sharding fixes how much K/V exists).
        let mut transfers = 0usize;
        let mut transfer_bytes = 0u64;
        let mut transfer_total_ms = 0.0f64;
        let mut decode_stream: Vec<(u64, Workload, f64)> = Vec::new();
        let mut prefill_finish = vec![(0usize, 0.0f64, 0.0f64); workloads.len()];
        for r in &prefill_report.responses {
            let i = r.request.id as usize;
            prefill_finish[i] = (r.server, r.start_ms, r.finish_ms);
            let original = workloads[i];
            if original.output_len < 2 {
                continue;
            }
            let bytes_per_token = replica_kv_bytes_per_token(&self.prefill.replicas[r.server]);
            let bytes = bytes_per_token * original.input_len as u64;
            let link_ms = self.link.transfer_ms(bytes);
            transfers += 1;
            transfer_bytes += bytes;
            // lint: order-sensitive — summed in prefill response order
            transfer_total_ms += link_ms;
            decode_stream.push((
                r.request.id,
                Workload::new(original.input_len + 1, original.output_len - 1),
                r.finish_ms + link_ms,
            ));
        }
        decode_stream.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));

        let decode_report = if decode_stream.is_empty() {
            None
        } else {
            let decode_workloads: Vec<Workload> = decode_stream.iter().map(|d| d.1).collect();
            let decode_trace: Vec<f64> = decode_stream.iter().map(|d| d.2).collect();
            Some(
                self.decode
                    .run(&decode_workloads, &ArrivalProcess::Trace(decode_trace))?,
            )
        };

        // End-to-end responses per original request.
        let n_prefill = self.prefill.replicas.len();
        let mut responses: Vec<Response> = Vec::with_capacity(workloads.len());
        for (i, &w) in workloads.iter().enumerate() {
            let (server, start_ms, finish_ms) = prefill_finish[i];
            responses.push(Response {
                request: Request {
                    id: i as u64,
                    workload: w,
                    arrival_ms: prefill_report.responses[i].request.arrival_ms,
                },
                server,
                start_ms,
                finish_ms,
            });
        }
        if let Some(decode) = &decode_report {
            for r in &decode.responses {
                let local = r.request.id as usize;
                let global = decode_stream[local].0 as usize;
                responses[global].server = n_prefill + r.server;
                responses[global].finish_ms = r.finish_ms;
            }
        }

        // Aggregate the combined report.
        let mut replicas = prefill_report.replicas.clone();
        if let Some(decode) = &decode_report {
            replicas.extend(decode.replicas.iter().cloned());
        } else {
            for servers in &self.decode.replicas {
                replicas.push(ReplicaReport {
                    name: replica_name(servers),
                    dispatched: 0,
                    report: None,
                });
            }
        }
        let mut paging = prefill_report.paging;
        if let Some(stats) = decode_report.as_ref().and_then(|d| d.paging.as_ref()) {
            match paging.as_mut() {
                Some(merged) => merged.merge(stats),
                None => paging = Some(*stats),
            }
        }
        let makespan_ms = responses.iter().map(|r| r.finish_ms).fold(0.0f64, f64::max);
        let mut sojourns: Vec<f64> = responses.iter().map(Response::sojourn_ms).collect();
        sojourns.sort_by(f64::total_cmp);
        let counts: Vec<usize> = replicas.iter().map(|r| r.dispatched).collect();
        let total_tokens: usize = workloads.iter().map(|w| w.output_len).sum();

        // End-to-end TTFT: the client sees its first token when the
        // prefill phase completes (phase 1 runs `(input, 1)`
        // workloads), before the K/V handoff and decode.
        let mut ttfts: Vec<f64> = prefill_report
            .responses
            .iter()
            .map(Response::sojourn_ms)
            .collect();
        ttfts.sort_by(f64::total_cmp);
        let (p50_ttft_ms, p95_ttft_ms, p99_ttft_ms) = pooled_percentiles(&ttfts)?;
        // ITL pools across both phases' replicas; prefill-phase
        // single-token runs contribute no gaps, so this is the decode
        // tier's inter-token story.
        let itl_refs: Vec<&[f64]> = replicas
            .iter()
            .filter_map(|r| r.report.as_ref().map(ServiceReport::sorted_token_gaps))
            .collect();
        let pooled_itl = stats::merge_sorted(&itl_refs)?;
        let (p50_itl_ms, p95_itl_ms, p99_itl_ms) = pooled_percentiles(&pooled_itl)?;
        let energy_j = sum_energy(replicas.iter().map(|r| r.report.as_ref()));

        Ok(ClusterReport {
            placement: format!(
                "disaggregated(prefill: {}, decode: {})",
                prefill_report.placement,
                decode_report
                    .as_ref()
                    .map_or_else(|| self.decode.placement.name(), |d| d.placement.clone()),
            ),
            scheduler: prefill_report.scheduler.clone(),
            replicas,
            responses,
            total_requests: workloads.len(),
            makespan_ms,
            p50_sojourn_ms: stats::percentile(&sojourns, 0.50)?,
            p95_sojourn_ms: stats::percentile(&sojourns, 0.95)?,
            p99_sojourn_ms: stats::percentile(&sojourns, 0.99)?,
            p50_ttft_ms,
            p95_ttft_ms,
            p99_ttft_ms,
            p50_itl_ms,
            p95_itl_ms,
            p99_itl_ms,
            energy_j,
            goodput_tps: total_tokens as f64 / (makespan_ms.max(f64::MIN_POSITIVE) / 1e3),
            balance_index: jain_fairness(&counts),
            paging,
            transfer: Some(TransferStats {
                transfers,
                bytes: transfer_bytes,
                total_ms: transfer_total_ms,
                mean_ms: if transfers == 0 {
                    0.0
                } else {
                    transfer_total_ms / transfers as f64
                },
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ContinuousBatching;
    use dfx_model::GptConfig;
    use dfx_sim::Appliance;

    fn tiny_appliance() -> Appliance {
        Appliance::timing_only(GptConfig::tiny(), 1).unwrap()
    }

    fn burst(n: usize) -> (Vec<Workload>, ArrivalProcess) {
        let w = vec![Workload::new(8, 4); n];
        let times = (0..n).map(|i| i as f64 * 0.1).collect();
        (w, ArrivalProcess::Trace(times))
    }

    #[test]
    fn construction_rejects_degenerate_clusters() {
        let a = tiny_appliance();
        assert!(matches!(
            ClusterRouter::new(vec![], Box::new(RoundRobin::new())),
            Err(SimError::Service(_))
        ));
        assert!(matches!(
            ClusterRouter::new(vec![vec![&a], vec![]], Box::new(RoundRobin::new())),
            Err(SimError::Service(_))
        ));
    }

    #[test]
    fn closed_loop_arrivals_are_rejected_with_a_typed_error() {
        let a = tiny_appliance();
        let b = tiny_appliance();
        let mut cluster =
            ClusterRouter::uniform(vec![&a, &b], Box::new(RoundRobin::new())).unwrap();
        let err = cluster
            .run(
                &[Workload::new(8, 4); 4],
                &ArrivalProcess::ClosedLoop {
                    clients: 2,
                    think_time_ms: 10.0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Service(m) if m.contains("open-loop")));
    }

    #[test]
    fn empty_streams_and_mismatched_sessions_are_rejected() {
        let a = tiny_appliance();
        let mut cluster = ClusterRouter::uniform(vec![&a], Box::new(RoundRobin::new())).unwrap();
        assert!(matches!(
            cluster.run(&[], &ArrivalProcess::Trace(vec![])),
            Err(SimError::Service(_))
        ));
        assert!(matches!(
            cluster.run_sessions(
                &[Workload::new(8, 4)],
                &[None, None],
                &ArrivalProcess::Trace(vec![0.0]),
            ),
            Err(SimError::Service(_))
        ));
    }

    #[test]
    fn out_of_range_placement_is_a_typed_error() {
        struct Broken;
        impl Placement for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn place(&mut self, _r: &RoutedRequest, _s: &[ReplicaSnapshot]) -> usize {
                99
            }
        }
        let a = tiny_appliance();
        let mut cluster = ClusterRouter::uniform(vec![&a], Box::new(Broken)).unwrap();
        let (w, arr) = burst(2);
        let err = cluster.run(&w, &arr).unwrap_err();
        assert!(matches!(err, SimError::Service(m) if m.contains("chose replica 99")));
    }

    #[test]
    fn round_robin_cycles_and_balances() {
        let (a, b, c) = (tiny_appliance(), tiny_appliance(), tiny_appliance());
        let mut cluster =
            ClusterRouter::uniform(vec![&a, &b, &c], Box::new(RoundRobin::new())).unwrap();
        let (w, arr) = burst(8);
        let report = cluster.run(&w, &arr).unwrap();
        let counts: Vec<usize> = report.replicas.iter().map(|r| r.dispatched).collect();
        assert_eq!(counts, vec![3, 3, 2]);
        assert_eq!(report.total_requests, 8);
        assert_eq!(report.responses.len(), 8);
        // Ids are globally unique and ascending after the merge.
        let ids: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
        assert!(report.balance_index > 0.9);
    }

    #[test]
    fn cluster_energy_is_the_sum_of_replica_energies() {
        let a = tiny_appliance();
        let b = tiny_appliance();
        let mut cluster =
            ClusterRouter::uniform(vec![&a, &b], Box::new(RoundRobin::new())).unwrap();
        let (w, arr) = burst(6);
        let report = cluster.run(&w, &arr).unwrap();
        // The DFX appliance models board power, so every replica report
        // carries energy and the pooled total is their exact sum.
        let replica_sum: f64 = report
            .replicas
            .iter()
            .filter_map(|r| r.report.as_ref().and_then(|s| s.energy_j))
            .sum();
        assert!(replica_sum > 0.0);
        assert!((report.energy_j.unwrap() - replica_sum).abs() < 1e-9);
        // TTFT pools across replicas (dispatch delay on the static
        // path) and keeps percentile ordering.
        assert!(report.p99_ttft_ms >= report.p50_ttft_ms);
        assert!(report.p50_ttft_ms >= 0.0);
    }

    #[test]
    fn least_outstanding_avoids_the_busy_replica() {
        // Replica 0 gets a long request at t=0; a burst right after
        // should pile onto replica 1 until the queues even out.
        let a = tiny_appliance();
        let b = tiny_appliance();
        let mut cluster = ClusterRouter::uniform(vec![&a, &b], Box::new(LeastOutstanding)).unwrap();
        let w = vec![
            Workload::new(64, 32),
            Workload::new(8, 4),
            Workload::new(8, 4),
        ];
        let arr = ArrivalProcess::Trace(vec![0.0, 0.1, 0.2]);
        let report = cluster.run(&w, &arr).unwrap();
        // First request -> replica 0 (tie at zero load); the second
        // avoids the grinding long request and lands on replica 1; the
        // third sees one outstanding on each and ties back to 0.
        let servers: Vec<usize> = report.responses.iter().map(|r| r.server).collect();
        assert_eq!(servers, vec![0, 1, 0]);
    }

    #[test]
    fn session_affinity_pins_sessions_and_falls_back() {
        let a = tiny_appliance();
        let b = tiny_appliance();
        let mut cluster = ClusterRouter::uniform(
            vec![&a, &b],
            Box::new(SessionAffinity::new(Box::new(RoundRobin::new()))),
        )
        .unwrap();
        let w = vec![Workload::new(8, 4); 5];
        let sessions = vec![Some(7), None, Some(7), Some(7), None];
        let arr = ArrivalProcess::Trace(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let report = cluster.run_sessions(&w, &sessions, &arr).unwrap();
        let by_id: Vec<usize> = report.responses.iter().map(|r| r.server).collect();
        // Session 7 pinned to replica 0 (round-robin's first pick);
        // sessionless requests alternate through the fallback.
        assert_eq!(by_id[0], 0);
        assert_eq!(by_id[2], 0);
        assert_eq!(by_id[3], 0);
        assert_ne!(by_id[1], by_id[4]);
        assert!(report.placement.contains("session-affinity"));
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0, 0]), 1.0);
        assert_eq!(jain_fairness(&[5, 5, 5]), 1.0);
        let skewed = jain_fairness(&[12, 0, 0, 0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        let near = jain_fairness(&[3, 3, 2]);
        assert!(near > 0.9 && near < 1.0);
    }

    #[test]
    fn decode_only_zeroes_prefill_but_keeps_decode() {
        let a = tiny_appliance();
        let wrapped = DecodeOnly::new(&a);
        let w = Workload::new(16, 8);
        let full = a.serve(w).unwrap();
        let decode = wrapped.serve(w).unwrap();
        assert_eq!(decode.summarization_ms, 0.0);
        assert_eq!(decode.generation_ms, full.generation_ms);
        assert!(decode.total_ms() < full.total_ms());
        // The stepper admission is free too; decode steps still cost.
        let mut stepper = Backend::continuous(&wrapped).unwrap();
        let ev = stepper.admit(0, w).unwrap();
        assert_eq!(ev.ms, 0.0);
        let step = stepper.step_token().unwrap();
        assert!(step.ms > 0.0);
        assert_eq!(stepper.prefill_cost_ms(w), 0.0);
    }

    #[test]
    fn disaggregated_run_reports_nonzero_transfer() {
        let p1 = tiny_appliance();
        let p2 = tiny_appliance();
        let d1 = tiny_appliance();
        let wrapped = DecodeOnly::new(&d1);
        let prefill = ClusterRouter::uniform(vec![&p1, &p2], Box::new(RoundRobin::new())).unwrap();
        let decode = ClusterRouter::uniform(vec![&wrapped], Box::new(RoundRobin::new()))
            .unwrap()
            .with_scheduler_factory(|| Box::new(ContinuousBatching::new(4)));
        let mut cluster = DisaggregatedCluster::new(prefill, decode, LinkModel::qsfp28());
        let w = vec![
            Workload::new(16, 8),
            Workload::new(16, 1), // single-token: never transfers
            Workload::new(16, 8),
        ];
        let arr = ArrivalProcess::Trace(vec![0.0, 0.5, 1.0]);
        let report = cluster.run(&w, &arr).unwrap();
        let transfer = report.transfer.unwrap();
        assert_eq!(transfer.transfers, 2);
        assert!(transfer.bytes > 0);
        assert!(transfer.total_ms > 0.0);
        assert!((transfer.mean_ms - transfer.total_ms / 2.0).abs() < 1e-12);
        // End-to-end: one response per original request, finishing after
        // its own prefill; 3 replicas listed (2 prefill + 1 decode).
        assert_eq!(report.responses.len(), 3);
        assert_eq!(report.replicas.len(), 3);
        assert_eq!(report.replicas[2].dispatched, 2);
        assert!(report.placement.starts_with("disaggregated"));
        for r in &report.responses {
            assert!(r.finish_ms > r.start_ms);
            assert!(r.start_ms >= r.request.arrival_ms);
        }
        // The single-token request finished at its prefill replica.
        assert!(report.responses[1].server < 2);
    }

    #[test]
    fn a_stalled_replica_snapshots_only_its_committed_events() {
        use crate::engine::ServingEngine;
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Sends everything to replica 0 and keeps every snapshot set.
        struct Recording(Rc<RefCell<Vec<Vec<ReplicaSnapshot>>>>);
        impl Placement for Recording {
            fn name(&self) -> String {
                "recording".into()
            }
            fn place(&mut self, _r: &RoutedRequest, s: &[ReplicaSnapshot]) -> usize {
                self.0.borrow_mut().push(s.to_vec());
                0
            }
        }

        // One replica of two memory-bound servers: a 160-token and a
        // 40-token K/V budget. r0 runs alone on the big server (batch
        // 1). r1 fits only the big server, so at its arrival the idle
        // small server declines it with no later arrival known and the
        // replica stalls. r2 arrives after r0 has finished.
        let bounded = |tokens: u64| {
            let base = tiny_appliance();
            let m = base.memory_model();
            base.with_hbm_capacity(m.weight_bytes + tokens * m.kv_bytes_per_token)
                .unwrap()
        };
        let (big, small) = (bounded(160), bounded(40));
        let (r0, r1, r2) = (
            Workload::new(64, 32),
            Workload::new(60, 40),
            Workload::new(8, 4),
        );
        let solo_ms = |w: Workload| {
            ServingEngine::new(&big)
                .with_scheduler(Box::new(ContinuousBatching::new(1)))
                .run(&[w], &ArrivalProcess::Trace(vec![0.0]))
                .unwrap()
                .makespan_ms
        };
        let (r0_done, t2) = (solo_ms(r0), solo_ms(r0) + solo_ms(r1) / 2.0);

        let seen = Rc::new(RefCell::new(Vec::new()));
        let report = ClusterRouter::new(
            vec![vec![&big, &small]],
            Box::new(Recording(Rc::clone(&seen))),
        )
        .unwrap()
        .with_scheduler_factory(|| Box::new(ContinuousBatching::new(1)))
        .run(&[r0, r1, r2], &ArrivalProcess::Trace(vec![0.0, 0.1, t2]))
        .unwrap();

        // The final report is the batch run of the same stream: r0
        // retired on the big server before r2 arrived, r1 followed it
        // there, r2 ran on the small server.
        let inner = report.replicas[0].report.as_ref().unwrap();
        let batch = ServingEngine::pool(vec![&big, &small])
            .unwrap()
            .with_scheduler(Box::new(ContinuousBatching::new(1)))
            .run(&[r0, r1, r2], &ArrivalProcess::Trace(vec![0.0, 0.1, t2]))
            .unwrap();
        assert_eq!(inner, &batch);
        let by_id = |id: u64| inner.responses.iter().find(|r| r.request.id == id).unwrap();
        assert_eq!(
            (by_id(0).server, by_id(1).server, by_id(2).server),
            (0, 0, 1)
        );
        assert_eq!(by_id(0).finish_ms, r0_done);
        assert_eq!(by_id(1).start_ms, r0_done);
        assert!(r0_done < t2 && by_id(1).finish_ms > t2);

        // At r2's arrival the replica has committed nothing since the
        // decline at 0.1: r0's retirement is not in yet, so both
        // requests are outstanding and r0's claim is the one open.
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        let snap = &seen[2][0];
        assert_eq!((snap.index, snap.assigned, snap.outstanding), (0, 2, 2));
        let (m_big, m_small) = (big.memory_model(), small.memory_model());
        let budget = m_big.kv_budget_bytes() + m_small.kv_budget_bytes();
        assert_eq!(
            snap.kv_load,
            m_big.kv_claim_bytes(64 + 32) as f64 / budget as f64
        );
    }

    #[test]
    fn reused_router_reproduces_reports() {
        let a = tiny_appliance();
        let b = tiny_appliance();
        let mut cluster = ClusterRouter::uniform(vec![&a, &b], Box::new(LeastOutstanding)).unwrap();
        let (w, arr) = burst(6);
        let first = cluster.run(&w, &arr).unwrap();
        let second = cluster.run(&w, &arr).unwrap();
        assert_eq!(first, second);
    }
}

//! The deterministic discrete-event request-serving simulator.
//!
//! [`ServingEngine`] pushes a stream of requests through one or more
//! [`Backend`]s behind a single queue, under a pluggable
//! [`Scheduler`], with arrivals drawn from a seeded
//! [`ArrivalProcess`]. Everything is deterministic for fixed inputs, so
//! service-level experiments reproduce bit-for-bit.
//!
//! One event loop serves every discipline. Each event is the earliest
//! busy server's token boundary, or the earliest idle server meeting
//! the earliest known request; what happens there is the server's
//! **dispatch policy**:
//!
//! - **continuous** when the discipline is ([`Scheduler::is_continuous`])
//!   and every backend exposes a [`ContinuousStepper`]
//!   ([`Backend::continuous`]): servers advance one decode token at a
//!   time, members exit the moment they finish, and the scheduler's
//!   admission seam ([`Scheduler::admit`]) can join queued requests to a
//!   *running* batch between steps;
//! - **static** otherwise: an idle server runs one batch picked by
//!   [`Scheduler::pick_batch`] (usually of one) as a single opaque
//!   backend call, and every member retires when it ends.
//!
//! Either policy may hold an idle server instead — a static
//! [`BatchDecision::Wait`] or a continuous decline — under one hold
//! rule. The loop runs as a **resumable state machine**: its state lives
//! in an explicit [`EngineState`] and advances one event per step call,
//! so a run can be driven to completion in one go
//! ([`ServingEngine::run`]) or held at a time horizon and resumed as
//! later arrivals become known
//! ([`EngineCheckpoint`](crate::EngineCheckpoint) — the seam the
//! cluster tier's O(n) incremental placement snapshots are built on).
//! The hot paths are kept deliberately cheap: not-yet-queued
//! submissions wait in a binary heap keyed `(time, id)` and the arrival
//! queue pops its head without shifting the tail (see ARCHITECTURE.md,
//! "Performance"). Service times come from the backends, which keep
//! whatever timing memo they need; the engine keeps none.

use crate::arrivals::{ArrivalProcess, SubmissionPlan};
use crate::backend::Backend;
use crate::scheduler::{AdmissionProbe, BatchDecision, Fifo, RunningMember, Scheduler};
use crate::stats;
use crate::stepper::ContinuousStepper;
use dfx_hw::MemoryModel;
use dfx_model::Workload;
use dfx_sim::{PagingStats, SimError};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One request entering the service: a workload plus its arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Submission index (also the index into the workload list).
    pub id: u64,
    /// What the request asks the backend to do.
    pub workload: Workload,
    /// Absolute arrival time, ms.
    pub arrival_ms: f64,
}

/// One served request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request this response answers.
    pub request: Request,
    /// Index of the pool server that executed it.
    pub server: usize,
    /// When execution began, ms (never before the arrival). Under the
    /// continuous policy this is the start of the request's prefill.
    pub start_ms: f64,
    /// When execution finished, ms.
    pub finish_ms: f64,
}

impl Response {
    /// Pure execution time, ms.
    pub fn service_ms(&self) -> f64 {
        self.finish_ms - self.start_ms
    }

    /// Time spent waiting in the queue, ms.
    pub fn wait_ms(&self) -> f64 {
        self.start_ms - self.request.arrival_ms
    }

    /// Sojourn (queueing + service) time — what the user feels, ms.
    pub fn sojourn_ms(&self) -> f64 {
        self.finish_ms - self.request.arrival_ms
    }
}

/// Service-level result of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Description of the backend pool.
    pub backend: String,
    /// Queue discipline used.
    pub scheduler: String,
    /// Pool size.
    pub servers: usize,
    /// Every served request, in event order. Exactly one response per
    /// submitted request.
    pub responses: Vec<Response>,
    /// Time from t=0 to the last completion, ms.
    pub makespan_ms: f64,
    /// Median sojourn time, ms.
    pub p50_sojourn_ms: f64,
    /// 95th-percentile sojourn time, ms.
    pub p95_sojourn_ms: f64,
    /// 99th-percentile sojourn time, ms.
    pub p99_sojourn_ms: f64,
    /// Time-weighted average number of waiting (not yet started)
    /// requests.
    pub mean_queue_depth: f64,
    /// Peak number of waiting requests.
    pub max_queue_depth: usize,
    /// Fraction of total server time spent serving, in `[0, 1]`.
    pub utilization: f64,
    /// Output tokens delivered per second of makespan.
    pub goodput_tps: f64,
    /// Backend invocations made. Under the static policy each dispatch
    /// serves one coalesced batch (a single-dispatch discipline makes
    /// one per response); under the continuous policy every admission
    /// prefill and every token step counts as one invocation.
    pub dispatches: usize,
    /// Largest number of requests concurrently resident on one server:
    /// the biggest dispatched batch under the static policy, the peak
    /// live member count (decoding plus mid-prefill) under the
    /// continuous one. Under saturation this is what a K/V capacity
    /// limit ([`Backend::memory`]) visibly caps.
    pub peak_live_batch: usize,
    /// Median time to first token, ms. Under the continuous policy a
    /// request's TTFT is measured at its first emission boundary (its
    /// prefill's completion — the engine's first-token instant); a
    /// static dispatch models no intra-batch token timing, so TTFT is
    /// the dispatch delay (`start - arrival`), a lower bound on what a
    /// streaming client would see. Percentiles are nearest-rank over
    /// exactly one sample per request.
    pub p50_ttft_ms: f64,
    /// 95th-percentile time to first token, ms.
    pub p95_ttft_ms: f64,
    /// 99th-percentile time to first token, ms.
    pub p99_ttft_ms: f64,
    /// Median inter-token latency, ms: the gap between a member's
    /// consecutive token emissions under the continuous policy, pooled
    /// across members — the decode stall a running member feels when
    /// admissions (whole prefills, or chunks under a chunked-prefill
    /// discipline) interleave with its steps. Zero under the static
    /// policy and when no member ever emitted twice.
    pub p50_itl_ms: f64,
    /// 95th-percentile inter-token latency, ms.
    pub p95_itl_ms: f64,
    /// 99th-percentile inter-token latency, ms.
    pub p99_itl_ms: f64,
    /// Backend energy over the run, J: each server's
    /// [`nominal_power_w`](crate::Backend::nominal_power_w) times its
    /// busy time, summed over the pool. `None` when no server models
    /// power (servers without a power model contribute nothing).
    pub energy_j: Option<f64>,
    /// Paged-K/V counters summed across the pool's steppers (block
    /// capacity, peak occupancy and fragmentation, prefix-cache
    /// hit/computed tokens, preemptions). `None` unless at least one
    /// server allocated K/V in blocks
    /// ([`Appliance::with_kv_paging`](dfx_sim::Appliance)) under the
    /// continuous policy.
    pub paging: Option<PagingStats>,
    /// The sojourn samples sorted ascending, computed once when the
    /// report is built — percentile queries and cluster-level pooling
    /// read this without re-sorting per call.
    sorted_sojourns: Vec<f64>,
    /// Per-request TTFT samples sorted ascending (one per request),
    /// the cluster pooling seam for TTFT percentiles.
    sorted_ttfts: Vec<f64>,
    /// Inter-token gap samples sorted ascending, the cluster pooling
    /// seam for ITL percentiles. Empty under the static policy.
    sorted_token_gaps: Vec<f64>,
}

impl ServiceReport {
    /// Mean sojourn time, ms.
    pub fn mean_sojourn_ms(&self) -> f64 {
        // lint: order-sensitive — summed in response completion order
        self.responses.iter().map(Response::sojourn_ms).sum::<f64>() / self.responses.len() as f64
    }

    /// Average realized batch size under the *static* policy: requests
    /// served per backend invocation (1.0 under a single-dispatch
    /// discipline). Not meaningful under the continuous policy, where
    /// [`dispatches`](ServiceReport::dispatches) counts admissions and
    /// token steps.
    pub fn mean_batch_size(&self) -> f64 {
        self.responses.len() as f64 / self.dispatches.max(1) as f64
    }

    /// Arbitrary sojourn percentile (fraction in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] for a fraction outside `[0, 1]`.
    pub fn sojourn_percentile_ms(&self, p: f64) -> Result<f64, SimError> {
        stats::percentile(&self.sorted_sojourns, p)
    }

    /// This report's sojourn samples, ascending — the seam cluster-level
    /// aggregation pools across replicas (percentiles of a cluster are
    /// percentiles of the pooled samples, never averages of per-replica
    /// percentiles; see [`stats::merged_percentile`]). Sorted once at
    /// report construction; this accessor is free.
    pub fn sorted_sojourns(&self) -> &[f64] {
        &self.sorted_sojourns
    }

    /// Per-request TTFT samples ascending (exactly one per request) —
    /// the seam cluster aggregation pools TTFT percentiles across, and
    /// the raw material of the telemetry TTFT histogram. See
    /// [`p50_ttft_ms`](ServiceReport::p50_ttft_ms) for what a sample
    /// measures under each policy.
    pub fn sorted_ttfts(&self) -> &[f64] {
        &self.sorted_ttfts
    }

    /// Inter-token gap samples ascending (empty under the static policy) —
    /// the cluster pooling seam for ITL percentiles and the telemetry
    /// ITL histogram's raw material.
    pub fn sorted_token_gaps(&self) -> &[f64] {
        &self.sorted_token_gaps
    }
}

/// Heap key for a not-yet-queued submission: ascending `(time, id)`
/// with `total_cmp` on the time, the exact order the old sorted-`Vec`
/// pending list popped in.
#[derive(Debug, PartialEq)]
struct PendKey {
    time_ms: f64,
    id: usize,
}

impl Eq for PendKey {}

impl Ord for PendKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ms
            .total_cmp(&other.time_ms)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for PendKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of not-yet-queued submissions ordered by `(time, id)`.
/// Replaces the sorted `Vec<(f64, usize)>` whose `remove(0)` shifted
/// the whole tail on every pull: push and pop are now O(log n) and the
/// pop order is identical (times are never NaN, ids are unique, so
/// `total_cmp`-then-id is a strict total order agreeing with the old
/// partial-ordered tuple comparisons).
#[derive(Debug, Default)]
struct PendingHeap {
    heap: BinaryHeap<Reverse<PendKey>>,
}

impl PendingHeap {
    fn push(&mut self, time_ms: f64, id: usize) {
        self.heap.push(Reverse(PendKey { time_ms, id }));
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        self.heap.pop().map(|Reverse(k)| (k.time_ms, k.id))
    }

    fn peek(&self) -> Option<(f64, usize)> {
        self.heap.peek().map(|Reverse(k)| (k.time_ms, k.id))
    }
}

/// The arrival queue: requests that have arrived but not yet been
/// dispatched, sorted by `(arrival, id)`. Schedulers index into it
/// arbitrarily, so it stays a contiguous sorted slice — but the
/// overwhelmingly common mutations are *pop the head* (FIFO-ish picks)
/// and *append at the tail* (pulled arrivals are globally ascending),
/// so the head is tracked as an offset instead of shifting the tail on
/// every `remove(0)`, and inserts try the tail before binary-searching.
#[derive(Debug, Default)]
struct ArrivalQueue {
    buf: Vec<Request>,
    head: usize,
}

impl ArrivalQueue {
    fn as_slice(&self) -> &[Request] {
        &self.buf[self.head..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    fn first(&self) -> Option<&Request> {
        self.buf.get(self.head)
    }

    /// Inserts keeping `(arrival, id)` order — the same tuple
    /// comparison the old `partition_point` insert used. Closed-loop
    /// resubmissions always land at the tail (a completion's next
    /// submission never precedes arrivals already pulled), so the
    /// binary-search path is a cold fallback.
    fn insert_sorted(&mut self, req: Request) {
        let key = (req.arrival_ms, req.id);
        if self.buf.last().is_none_or(|l| (l.arrival_ms, l.id) <= key) {
            self.buf.push(req);
        } else {
            let live = &self.buf[self.head..];
            let pos = live.partition_point(|q| (q.arrival_ms, q.id) <= key);
            self.buf.insert(self.head + pos, req);
        }
    }

    /// Removes and returns the request at `idx` (relative to the live
    /// slice). `idx == 0` is O(1); the storage is compacted once the
    /// dead prefix dominates.
    fn remove(&mut self, idx: usize) -> Request {
        if idx == 0 {
            let r = self.buf[self.head];
            self.head += 1;
            if self.head >= 64 && self.head * 2 >= self.buf.len() {
                self.buf.drain(..self.head);
                self.head = 0;
            }
            r
        } else {
            self.buf.remove(self.head + idx)
        }
    }
}

/// A live member of a continuous server: its request, when its prefill
/// began, how many output tokens it has produced, and when it last
/// emitted one.
struct Active {
    request: Request,
    start_ms: f64,
    tokens_done: usize,
    last_emit_ms: f64,
}

/// One pool server: its token-granular executor (continuous policy
/// only), the live members, and its timeline as `epoch + rel`. The
/// epoch is the absolute start of the current busy period and `rel` the
/// time charged since; keeping the busy period relative means a solo
/// member's finish is `start + accumulated service`, the same
/// association a static dispatch uses, so `max_batch == 1` continuous
/// batching reproduces FIFO exactly.
struct Server<'b> {
    /// `None` under the static policy: the server runs whole dispatches
    /// through [`Backend::serve`]/[`Backend::serve_batch`], so it is
    /// never live between events.
    stepper: Option<Box<dyn ContinuousStepper + 'b>>,
    members: Vec<Active>,
    /// The backend's capacity model (None: unbounded), for the
    /// scheduler's admission probe.
    memory: Option<MemoryModel>,
    epoch_ms: f64,
    rel_ms: f64,
}

impl Server<'_> {
    /// The absolute time the server has been simulated to: its next
    /// token boundary while members are live, its free time while idle.
    fn clock_ms(&self) -> f64 {
        self.epoch_ms + self.rel_ms
    }

    /// Members decoding or mid-prefill; always 0 on a static server.
    fn live(&self) -> usize {
        self.stepper.as_ref().map_or(0, |s| s.live())
    }
}

/// The [`AdmissionProbe`] over one server: estimates from its stepper,
/// capacity from its backend's memory model.
struct Probe<'p, 'b> {
    stepper: &'p mut (dyn ContinuousStepper + 'b),
    memory: Option<MemoryModel>,
}

impl AdmissionProbe for Probe<'_, '_> {
    fn prefill_ms(&mut self, workload: Workload) -> f64 {
        self.stepper.prefill_cost_ms(workload)
    }
    fn step_ms(&mut self, live: usize) -> f64 {
        self.stepper.step_cost_ms(live)
    }
    fn kv_fits(&self, members: &[Workload]) -> bool {
        // A paged stepper answers at block granularity (free blocks vs
        // the joiners' prompts); otherwise fall back to summing whole
        // `input + output` claims.
        if let Some(fits) = self.stepper.kv_fits_resident(members) {
            return fits;
        }
        self.memory.is_none_or(|m| {
            let tokens: usize = members.iter().map(|w| w.input_len + w.output_len).sum();
            m.fits_tokens(tokens)
        })
    }
}

/// The earliest candidate of a kind, as `(clock ms, server)`.
type Earliest = Option<(f64, usize)>;

/// What one `step` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// One event was committed (or a stashed hold was resolved).
    Progressed,
    /// The next event's instant is at or past the horizon — nothing was
    /// mutated — or a stashed hold needs arrivals the stream has not
    /// revealed yet. Never returned without a horizon.
    Blocked,
    /// No event exists: the pending heap and queue are empty and no
    /// member is live. In a batch run with requests unserved this is a
    /// starvation error; on a stream it just means the engine has
    /// caught up with everything pushed.
    Exhausted,
}

/// Resumable state of the event loop. Built by
/// [`ServingEngine::build_state`], advanced by [`ServingEngine::step`],
/// harvested by [`ServingEngine::build_report`].
pub(crate) struct EngineState<'b> {
    workloads: Vec<Workload>,
    plan: SubmissionPlan,
    pending: PendingHeap,
    queue: ArrivalQueue,
    servers: Vec<Server<'b>>,
    busy: Vec<f64>,
    /// Every response committed so far, in event order.
    pub(crate) responses: Vec<Response>,
    /// `(server, start_ms, input + output tokens)` per admitted
    /// request, appended at the event that committed the admission —
    /// starts become known here, possibly long before the response
    /// retires, which is what lets streamed K/V-load accounting see
    /// in-flight claims.
    pub(crate) admissions: Vec<(usize, f64, usize)>,
    dispatches: usize,
    peak_live_batch: usize,
    /// Per-request time to first token, ms (exactly one sample per
    /// request): `start - arrival` at a static dispatch, the first
    /// emission boundary on a continuous server.
    ttfts: Vec<f64>,
    /// Gaps between a member's consecutive token emissions (the decode
    /// stall admissions inject), pooled across members. Empty under the
    /// static policy.
    token_gaps: Vec<f64>,
    /// `(request id, emission instant)` per token the engine charged,
    /// in event order — the raw material of a
    /// [`RunTrace`](crate::telemetry::RunTrace)'s decode
    /// spans. `None` (not collected) unless the run was started by
    /// [`ServingEngine::run_traced`], so the hot path pays nothing.
    trace_tokens: Option<Vec<(u64, f64)>>,
    /// Floor on the next idle-server instant, set by a hold so a future
    /// arrival (or a busy boundary) can change the scheduler's mind.
    wake_ms: f64,
    /// Consecutive holds with no arrival or committed work in between.
    stalls: u32,
    /// The deadline of a hold (infinite for a continuous decline) whose
    /// wake instant could still be lowered by an arrival the stream has
    /// not revealed. Nothing advances while it is stashed; it resolves
    /// once an arrival before the deadline is known or the horizon
    /// covers the deadline, and unconditionally at finalization.
    stashed_hold_ms: Option<f64>,
}

impl EngineState<'_> {
    /// Appends one request to the stream: its id is its push index.
    /// Pushes must arrive in nondecreasing `arrival_ms` order for
    /// horizon-bounded stepping to be faithful to a batch replay.
    pub(crate) fn push(&mut self, workload: Workload, arrival_ms: f64) {
        self.pending.push(arrival_ms, self.workloads.len());
        self.workloads.push(workload);
    }

    /// Requests pushed so far (batch runs: the full workload list).
    pub(crate) fn pushed(&self) -> usize {
        self.workloads.len()
    }
}

/// A deterministic discrete-event simulator serving a request stream on
/// a pool of [`Backend`]s behind one queue.
///
/// The engine holds its pool and its discipline, nothing else: every
/// static dispatch is timed by the server that runs it, so a pool may
/// mix backends whatever their names. Repeats stay cheap where the
/// backend memoizes — an [`Appliance`](dfx_sim::Appliance) answers a
/// shape it has timed from its own memo, shared by every engine over
/// it — and the GPU and TPU models are closed forms.
///
/// # Examples
///
/// ```
/// use dfx_model::{GptConfig, Workload};
/// use dfx_serve::{ArrivalProcess, ServingEngine};
/// use dfx_sim::Appliance;
///
/// # fn main() -> Result<(), dfx_sim::SimError> {
/// let appliance = Appliance::timing_only(GptConfig::tiny(), 2)?;
/// let workloads = vec![Workload::new(8, 8); 20];
/// let arrivals = ArrivalProcess::Poisson { rate_per_s: 5.0, seed: 1 };
/// let report = ServingEngine::new(&appliance).run(&workloads, &arrivals)?;
/// assert_eq!(report.responses.len(), 20);
/// assert!(report.p99_sojourn_ms >= report.p50_sojourn_ms);
/// # Ok(())
/// # }
/// ```
pub struct ServingEngine<'a> {
    servers: Vec<&'a dyn Backend>,
    scheduler: Box<dyn Scheduler>,
}

impl<'a> ServingEngine<'a> {
    /// An engine over a single backend with the FIFO discipline.
    pub fn new(backend: &'a dyn Backend) -> Self {
        Self::assemble(vec![backend])
    }

    /// An engine over a pool of backends sharing one queue (FIFO).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] for an empty pool.
    pub fn pool(servers: Vec<&'a dyn Backend>) -> Result<Self, SimError> {
        if servers.is_empty() {
            return Err(SimError::Service("backend pool is empty".into()));
        }
        Ok(Self::assemble(servers))
    }

    fn assemble(servers: Vec<&'a dyn Backend>) -> Self {
        ServingEngine {
            servers,
            scheduler: Box::new(Fifo),
        }
    }

    /// Replaces the queue discipline.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Serves `workloads` with arrivals drawn from `arrivals`.
    ///
    /// A continuous discipline ([`Scheduler::is_continuous`]) on a pool
    /// where every backend exposes a [`ContinuousStepper`] runs the
    /// continuous dispatch policy; everything else runs the static one,
    /// where each dispatch is one [`Backend::serve`] (a batch of one) or
    /// [`Backend::serve_batch`] call on the server that runs it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] for an empty workload list or a
    /// malformed arrival process, and propagates backend errors (e.g.
    /// [`SimError::InvalidRequest`] for zero-length workloads).
    pub fn run(
        &mut self,
        workloads: &[Workload],
        arrivals: &ArrivalProcess,
    ) -> Result<ServiceReport, SimError> {
        let mut state = self.batch_state(workloads, arrivals)?;
        self.drain(&mut state)?;
        self.build_report(state)
    }

    /// Serves `workloads` exactly as [`run`](Self::run) does — same
    /// event loop, bit-identical [`ServiceReport`] — and additionally
    /// assembles the per-request lifecycle trace
    /// ([`RunTrace`](crate::telemetry::RunTrace)): queued / prefill /
    /// per-token decode spans in simulated time, with each request's
    /// energy attributed as its token share of its server's busy
    /// energy. Trace collection is enabled only on this entry point,
    /// so [`run`](Self::run) pays nothing for it.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_traced(
        &mut self,
        workloads: &[Workload],
        arrivals: &ArrivalProcess,
    ) -> Result<(ServiceReport, crate::telemetry::RunTrace), SimError> {
        let mut state = self.batch_state(workloads, arrivals)?;
        state.trace_tokens = Some(Vec::new());
        self.drain(&mut state)?;
        // Harvest the raw material the report constructor consumes.
        let busy = state.busy.clone();
        let token_events = state.trace_tokens.take().unwrap_or_default();
        let report = self.build_report(state)?;
        let trace = self.assemble_trace(&report, &busy, token_events);
        Ok((report, trace))
    }

    /// Builds the [`RunTrace`](crate::telemetry::RunTrace) for a
    /// finished run: one [`RequestTrace`](crate::telemetry::RequestTrace)
    /// per response, its token boundaries from the engine's emission
    /// events, and its energy as `(its input + output tokens) /
    /// (tokens its server served)` of the server's busy energy.
    fn assemble_trace(
        &self,
        report: &ServiceReport,
        busy: &[f64],
        token_events: Vec<(u64, f64)>,
    ) -> crate::telemetry::RunTrace {
        use crate::telemetry::{RequestTrace, RunTrace, SpanOutcome};

        let server_energy: Vec<Option<f64>> = busy
            .iter()
            .enumerate()
            .map(|(s, &b)| self.servers[s].nominal_power_w().map(|p| p * b / 1e3))
            .collect();
        let mut server_tokens = vec![0u64; self.servers.len()];
        for r in &report.responses {
            server_tokens[r.server] +=
                (r.request.workload.input_len + r.request.workload.output_len) as u64;
        }

        // Batch-run request ids are submission indices 0..n, and every
        // request retires exactly once, so id-indexed assembly is
        // total.
        let mut requests: Vec<RequestTrace> = report
            .responses
            .iter()
            .map(|r| {
                let tokens = (r.request.workload.input_len + r.request.workload.output_len) as f64;
                let share = if server_tokens[r.server] > 0 {
                    tokens / server_tokens[r.server] as f64
                } else {
                    0.0
                };
                RequestTrace {
                    id: r.request.id,
                    server: r.server,
                    input_tokens: r.request.workload.input_len,
                    output_tokens: r.request.workload.output_len,
                    arrival_ms: r.request.arrival_ms,
                    start_ms: r.start_ms,
                    first_token_ms: None,
                    finish_ms: r.finish_ms,
                    token_ms: Vec::new(),
                    energy_j: server_energy[r.server].map(|e| e * share),
                    outcome: SpanOutcome::Retired,
                }
            })
            .collect();
        requests.sort_by_key(|t| t.id);
        for (id, ms) in token_events {
            if let Some(t) = requests.get_mut(id as usize) {
                t.token_ms.push(ms);
            }
        }
        for t in &mut requests {
            t.first_token_ms = t.token_ms.first().copied();
        }
        RunTrace {
            backend: report.backend.clone(),
            scheduler: report.scheduler.clone(),
            requests,
        }
    }

    /// The state of a batch run: every request known up front (or
    /// released by the closed loop), validated as [`run`](Self::run)
    /// documents.
    fn batch_state(
        &mut self,
        workloads: &[Workload],
        arrivals: &ArrivalProcess,
    ) -> Result<EngineState<'a>, SimError> {
        if workloads.is_empty() {
            return Err(SimError::Service("nothing to serve".into()));
        }
        let plan = arrivals.plan(workloads.len())?;
        self.build_state(workloads.to_vec(), plan)
    }

    /// Steps `state` with no horizon until every pushed request has a
    /// response. Without a horizon a step never blocks, so running dry
    /// first means the event loop starved with requests unserved.
    pub(crate) fn drain(&mut self, state: &mut EngineState<'a>) -> Result<(), SimError> {
        while state.responses.len() < state.pushed() {
            if self.step(state, None)? != StepOutcome::Progressed {
                return Err(SimError::Service(
                    "event loop ran out of events with requests unserved".into(),
                ));
            }
        }
        Ok(())
    }

    /// Builds the resumable state for a run over `workloads` under
    /// `plan`. The dispatch policy is chosen exactly as
    /// [`run`](Self::run) describes: continuous servers get a stepper
    /// each, static servers none.
    fn build_state(
        &mut self,
        workloads: Vec<Workload>,
        plan: SubmissionPlan,
    ) -> Result<EngineState<'a>, SimError> {
        let n = workloads.len();
        let pending = Self::initial_pending(&plan, n);
        let continuous =
            self.scheduler.is_continuous() && self.servers.iter().all(|s| s.continuous().is_some());
        let prefill_chunk = self.scheduler.prefill_chunk();
        let mut servers = Vec::with_capacity(self.servers.len());
        for &s in &self.servers {
            let stepper = if continuous {
                // `continuous` holds only when every backend has a
                // stepper, but re-check instead of panicking on a
                // broken invariant.
                let mut stepper = s.continuous().ok_or_else(|| {
                    SimError::Service(format!("backend {} cannot batch continuously", s.name()))
                })?;
                if prefill_chunk.is_some() {
                    stepper.set_prefill_chunk(prefill_chunk);
                }
                Some(stepper)
            } else {
                None
            };
            servers.push(Server {
                stepper,
                members: Vec::new(),
                memory: s.memory(),
                epoch_ms: 0.0,
                rel_ms: 0.0,
            });
        }
        Ok(EngineState {
            workloads,
            plan,
            pending,
            queue: ArrivalQueue::default(),
            busy: vec![0.0f64; servers.len()],
            servers,
            responses: Vec::with_capacity(n),
            admissions: Vec::with_capacity(n),
            dispatches: 0,
            peak_live_batch: 0,
            ttfts: Vec::with_capacity(n),
            token_gaps: Vec::new(),
            trace_tokens: None,
            wake_ms: 0.0,
            stalls: 0,
            stashed_hold_ms: None,
        })
    }

    /// An empty open-loop stream: requests enter via
    /// [`EngineState::push`] and the state is advanced with
    /// horizon-bounded [`step`](Self::step) calls. The seam
    /// [`EngineCheckpoint`](crate::EngineCheckpoint) wraps.
    pub(crate) fn start_stream(&mut self) -> Result<EngineState<'a>, SimError> {
        self.build_state(Vec::new(), SubmissionPlan::Open(Vec::new()))
    }

    /// The initial submission list: every open-loop arrival up front, or
    /// one request per closed-loop client at t=0.
    fn initial_pending(plan: &SubmissionPlan, n: usize) -> PendingHeap {
        let mut pending = PendingHeap::default();
        match plan {
            SubmissionPlan::Open(times) => {
                for (id, &t) in times.iter().enumerate().take(n) {
                    pending.push(t, id);
                }
            }
            SubmissionPlan::Closed { clients, .. } => {
                for j in 0..n.min(*clients) {
                    pending.push(0.0, j);
                }
            }
        }
        pending
    }

    /// Moves every pending submission with time `<= now_ms` into the
    /// queue (kept sorted by `(arrival, id)`). Returns whether anything
    /// arrived.
    fn pull_arrivals(
        pending: &mut PendingHeap,
        queue: &mut ArrivalQueue,
        workloads: &[Workload],
        now_ms: f64,
    ) -> bool {
        let mut admitted = false;
        while let Some((arrival_ms, id)) = pending.peek() {
            if arrival_ms > now_ms {
                break;
            }
            pending.pop();
            queue.insert_sorted(Request {
                id: id as u64,
                workload: workloads[id],
                arrival_ms,
            });
            admitted = true;
        }
        admitted
    }

    /// Closed-loop feedback: a completion schedules the owning client's
    /// next round-robin submission. Open-loop plans do nothing.
    fn schedule_next_submission(
        plan: &SubmissionPlan,
        pending: &mut PendingHeap,
        n: usize,
        finished_id: u64,
        finish_ms: f64,
    ) {
        if let SubmissionPlan::Closed {
            clients,
            think_time_ms,
        } = plan
        {
            // The owning client thinks, then submits its next
            // round-robin request.
            let next = finished_id as usize + clients;
            if next < n {
                pending.push(finish_ms + think_time_ms, next);
            }
        }
    }

    /// The next token boundary among servers with live members (none
    /// under the static policy) and the earliest-free idle server, each
    /// as `(clock, server)` with ties going to the lower index.
    fn earliest_clocks(servers: &[Server<'_>]) -> (Earliest, Earliest) {
        let (mut busy, mut idle) = (None, None);
        for (s, r) in servers.iter().enumerate() {
            let slot = if r.live() > 0 { &mut busy } else { &mut idle };
            let clock = r.clock_ms();
            if slot.is_none_or(|(t, _): (f64, usize)| clock.total_cmp(&t).is_lt()) {
                *slot = Some((clock, s));
            }
        }
        (busy, idle)
    }

    /// Advances the state by one event.
    ///
    /// The event is the earliest busy token boundary, or the earliest
    /// instant the earliest-free idle server can meet the earliest known
    /// request, floored by the wake instant of the last hold (a busy
    /// boundary wins ties). Arrivals up to that instant join the queue,
    /// then the server's dispatch policy decides: a continuous server
    /// runs the admission seam and one token step, a static server
    /// dispatches one coalesced batch. Either may *hold* instead (see
    /// [`hold`](Self::hold)).
    ///
    /// With `horizon = None` every event is committable and the call
    /// never returns [`StepOutcome::Blocked`]. With `horizon = Some(t)`
    /// only events whose decision instant is strictly before `t` are
    /// committed, and holds whose wake instant could still change with
    /// arrivals at or after `t` are stashed instead of guessed — so a
    /// horizon-bounded stream that receives every arrival before
    /// advancing past it commits exactly the event prefix a full batch
    /// replay would.
    pub(crate) fn step(
        &mut self,
        st: &mut EngineState<'a>,
        horizon: Option<f64>,
    ) -> Result<StepOutcome, SimError> {
        if let Some(deadline_ms) = st.stashed_hold_ms.take() {
            return self.hold(st, deadline_ms, horizon);
        }

        let (busy_next, idle_free) = Self::earliest_clocks(&st.servers);
        let idle_next = idle_free.and_then(|(clock, s)| {
            let req_t = st
                .queue
                .first()
                .map(|q| q.arrival_ms)
                .or_else(|| st.pending.peek().map(|p| p.0));
            req_t.map(|t| (t.max(clock).max(st.wake_ms), s))
        });
        let (now, server) = match (busy_next, idle_next) {
            (Some(b), Some(i)) if b.0 <= i.0 => b,
            (Some(_), Some(i)) => i,
            (Some(b), None) => b,
            (None, Some(i)) => i,
            (None, None) => return Ok(StepOutcome::Exhausted),
        };
        if horizon.is_some_and(|t| now >= t) {
            return Ok(StepOutcome::Blocked);
        }
        if Self::pull_arrivals(&mut st.pending, &mut st.queue, &st.workloads, now) {
            st.stalls = 0;
        }

        let hold_until = if st.servers[server].stepper.is_some() {
            self.token_boundary(st, server, now)?
        } else {
            self.dispatch(st, server, now)?
        };
        match hold_until {
            Some(deadline_ms) => self.hold(st, deadline_ms, horizon),
            None => Ok(StepOutcome::Progressed),
        }
    }

    /// The static policy at an idle server: the scheduler picks a batch
    /// (usually of one) from everything queued, and it runs as one
    /// `serve`/`serve_batch` call. Every member starts at
    /// `now` — clamped to the newest member's arrival — gets its TTFT
    /// sample (`start - arrival`) at once, and retires with the batch at
    /// `start + service`, which becomes the server's clock. Returns the
    /// deadline of a [`BatchDecision::Wait`] instead of dispatching.
    // Kept out of `step`: inlined there, the static arm slowed the
    // continuous `hotpath` shapes by ~3% (interleaved runs on a shared
    // 2-vCPU x86-64 host).
    #[inline(never)]
    fn dispatch(
        &mut self,
        st: &mut EngineState<'a>,
        server: usize,
        now: f64,
    ) -> Result<Option<f64>, SimError> {
        let servers = &self.servers;
        let mut picked =
            match self
                .scheduler
                .pick_batch(st.queue.as_slice(), now, &|ws: &[Workload]| {
                    servers[server].batch_feasible(ws)
                }) {
                BatchDecision::Dispatch(picked) => picked,
                BatchDecision::Wait(until_ms) if until_ms.is_finite() && until_ms > now => {
                    return Ok(Some(until_ms));
                }
                BatchDecision::Wait(until_ms) => {
                    return Err(SimError::Service(format!(
                        "scheduler {} asked to wait until {until_ms} ms at {now} ms",
                        self.scheduler.name()
                    )));
                }
            };
        picked.sort_unstable();
        let in_range = picked.last().is_some_and(|&i| i < st.queue.len());
        if !in_range || picked.windows(2).any(|w| w[0] == w[1]) {
            return Err(SimError::Service(format!(
                "scheduler {} picked invalid batch {picked:?} from a queue of {}",
                self.scheduler.name(),
                st.queue.len()
            )));
        }
        st.stalls = 0;
        st.wake_ms = 0.0;

        // Extract in descending index order, then restore arrival
        // order within the batch.
        let mut batch: Vec<Request> = picked.iter().rev().map(|&i| st.queue.remove(i)).collect();
        batch.reverse();

        // A one-element batch goes through the single-request path
        // (bit-identical numbers to the pre-batching engine); larger
        // batches execute as one unit.
        let backend = self.servers[server];
        let service_ms = match batch.as_slice() {
            [single] => backend.serve(single.workload)?.total_ms(),
            many => {
                let workloads: Vec<Workload> = many.iter().map(|r| r.workload).collect();
                backend.serve_batch(&workloads)?.total_ms()
            }
        };
        // `now` dominates the server's free time and the queue head's
        // arrival, but not necessarily every member's: after a
        // Wait-elevated round admits late arrivals, a different
        // (earlier-free) server's `now` can lapse behind them, so clamp
        // the start to the batch's newest arrival.
        let start_ms = batch.iter().map(|r| r.arrival_ms).fold(now, f64::max);
        let run = &mut st.servers[server];
        run.epoch_ms = start_ms;
        run.rel_ms = service_ms;
        let finish_ms = run.clock_ms();
        // lint: order-sensitive — event-ordered timeline accumulation
        st.busy[server] += service_ms;
        st.dispatches += 1;
        st.peak_live_batch = st.peak_live_batch.max(batch.len());

        let n = st.workloads.len();
        for request in batch {
            st.admissions.push((
                server,
                start_ms,
                request.workload.input_len + request.workload.output_len,
            ));
            st.ttfts.push(start_ms - request.arrival_ms);
            st.responses.push(Response {
                request,
                server,
                start_ms,
                finish_ms,
            });
            Self::schedule_next_submission(&st.plan, &mut st.pending, n, request.id, finish_ms);
        }
        Ok(None)
    }

    /// The continuous policy at one server's token boundary: the
    /// scheduler's admission seam may join queued requests to the
    /// running batch (each paying its prefill before decode resumes),
    /// then one token step runs. Members exit the moment they produce
    /// their last token — no padding to the longest batch-mate. Returns
    /// an infinite hold deadline when an idle server faces queued work
    /// and admits nobody.
    fn token_boundary(
        &mut self,
        st: &mut EngineState<'a>,
        server: usize,
        now: f64,
    ) -> Result<Option<f64>, SimError> {
        let n = st.workloads.len();
        let run = &mut st.servers[server];
        let Some(stepper) = run.stepper.as_deref_mut() else {
            return Err(SimError::Service(format!("server {server} has no stepper")));
        };
        if stepper.live() == 0 {
            // A fresh busy period may start here: re-anchor the
            // relative timeline at this instant (`now` never lies
            // before the idle server's free time).
            run.epoch_ms = now;
            run.rel_ms = 0.0;
        }

        let mut admitted_any = false;
        if !st.queue.is_empty() {
            let running: Vec<RunningMember> = run
                .members
                .iter()
                .map(|m| RunningMember {
                    id: m.request.id,
                    workload: m.request.workload,
                    tokens_done: m.tokens_done,
                    arrival_ms: m.request.arrival_ms,
                })
                .collect();
            let mut probe = Probe {
                stepper: &mut *stepper,
                memory: run.memory,
            };
            let mut picks = self.scheduler.admit(
                &running,
                st.queue.as_slice(),
                run.epoch_ms + run.rel_ms,
                &mut probe,
            );
            picks.sort_unstable();
            let in_range = picks.iter().all(|&i| i < st.queue.len());
            if !in_range || picks.windows(2).any(|w| w[0] == w[1]) {
                return Err(SimError::Service(format!(
                    "scheduler {} admitted invalid indices {picks:?} from a queue of {}",
                    self.scheduler.name(),
                    st.queue.len()
                )));
            }
            if !picks.is_empty() {
                admitted_any = true;
                st.stalls = 0;
                st.wake_ms = 0.0;
                let mut joining: Vec<Request> =
                    picks.iter().rev().map(|&i| st.queue.remove(i)).collect();
                joining.reverse();
                for request in joining {
                    // Prefills run back to back: each member starts
                    // (and is no longer "waiting") when its own
                    // prefill begins.
                    let start_ms = run.epoch_ms + run.rel_ms;
                    st.admissions.push((
                        server,
                        start_ms,
                        request.workload.input_len + request.workload.output_len,
                    ));
                    let ev = stepper.admit(request.id, request.workload)?;
                    // lint: order-sensitive — event-ordered timeline accumulation
                    run.rel_ms += ev.ms;
                    // lint: order-sensitive — event-ordered timeline accumulation
                    st.busy[server] += ev.ms;
                    st.dispatches += 1;
                    let emit_ms = run.epoch_ms + run.rel_ms;
                    let retired = ev.finished.contains(&request.id);
                    if !retired && ev.prefilling.contains(&request.id) {
                        // A chunked admission: no token yet, the
                        // remaining chunks interleave with decode.
                        run.members.push(Active {
                            request,
                            start_ms,
                            tokens_done: 0,
                            last_emit_ms: 0.0,
                        });
                        continue;
                    }
                    // A whole prefill emits the first token at its
                    // completion.
                    st.ttfts.push(emit_ms - request.arrival_ms);
                    if let Some(tokens) = st.trace_tokens.as_mut() {
                        tokens.push((request.id, emit_ms));
                    }
                    if retired {
                        // The prefill emitted everything: first token
                        // and retirement coincide.
                        st.responses.push(Response {
                            request,
                            server,
                            start_ms,
                            finish_ms: emit_ms,
                        });
                        Self::schedule_next_submission(
                            &st.plan,
                            &mut st.pending,
                            n,
                            request.id,
                            emit_ms,
                        );
                    } else {
                        run.members.push(Active {
                            request,
                            start_ms,
                            tokens_done: 1,
                            last_emit_ms: emit_ms,
                        });
                    }
                }
                st.peak_live_batch = st.peak_live_batch.max(stepper.live());
            }
        }

        if stepper.live() == 0 {
            // Idle server, queued work, nothing admitted: the scheduler
            // may be holding out for a future arrival or for another
            // server's token boundary (retirements and closed-loop
            // completions both change the picture).
            let declined = !st.queue.is_empty() && !admitted_any;
            return Ok(declined.then_some(f64::INFINITY));
        }
        // One step: a prefill chunk if one is in flight, then a decode
        // pass; exits happen the moment a member has its last token.
        let ev = stepper.step_token()?;
        // lint: order-sensitive — event-ordered timeline accumulation
        run.rel_ms += ev.ms;
        // lint: order-sensitive — event-ordered timeline accumulation
        st.busy[server] += ev.ms;
        st.dispatches += 1;
        let finish_ms = run.epoch_ms + run.rel_ms;
        for m in &mut run.members {
            if ev.prefilling.contains(&m.request.id) {
                continue; // mid-prefill: no token this step
            }
            if m.tokens_done > 0 {
                // The inter-token gap a decoding member felt.
                st.token_gaps.push(finish_ms - m.last_emit_ms);
            } else {
                // A chunked prefill's last chunk: the member's first
                // token lands here, not at admission.
                st.ttfts.push(finish_ms - m.request.arrival_ms);
            }
            if let Some(tokens) = st.trace_tokens.as_mut() {
                tokens.push((m.request.id, finish_ms));
            }
            m.tokens_done += 1;
            m.last_emit_ms = finish_ms;
        }
        for id in ev.finished {
            let pos = run
                .members
                .iter()
                .position(|m| m.request.id == id)
                .ok_or_else(|| {
                    SimError::Service(format!("stepper finished unknown member {id}"))
                })?;
            let m = run.members.remove(pos);
            st.responses.push(Response {
                request: m.request,
                server,
                start_ms: m.start_ms,
                finish_ms,
            });
            Self::schedule_next_submission(&st.plan, &mut st.pending, n, m.request.id, finish_ms);
        }
        st.stalls = 0;
        Ok(None)
    }

    /// Holds the idle pool: a static [`BatchDecision::Wait`] with its
    /// deadline, or a continuous decline, which is a hold with no
    /// deadline. The pool wakes at the next known arrival if it comes
    /// before the deadline, otherwise at the next busy boundary (only a
    /// continuous run has one), otherwise at the deadline; a decline
    /// with neither is a hard stall. Under a horizon the hold is stashed
    /// while no known arrival precedes the deadline and the horizon does
    /// not cover it — an arrival not yet revealed could still come
    /// first. More than two consecutive holds without an arrival or
    /// committed work in between are rejected as a stalling scheduler.
    fn hold(
        &self,
        st: &mut EngineState<'_>,
        deadline_ms: f64,
        horizon: Option<f64>,
    ) -> Result<StepOutcome, SimError> {
        let next_arrival = st
            .pending
            .peek()
            .map(|(a, _)| a)
            .filter(|&a| a < deadline_ms);
        if next_arrival.is_none() && horizon.is_some_and(|t| deadline_ms > t) {
            st.stashed_hold_ms = Some(deadline_ms);
            return Ok(StepOutcome::Blocked);
        }
        st.wake_ms = next_arrival
            .or_else(|| Self::earliest_clocks(&st.servers).0.map(|b| b.0))
            .unwrap_or(deadline_ms);
        st.stalls += 1;
        if st.stalls > 2 || st.wake_ms.is_infinite() {
            return Err(SimError::Service(format!(
                "scheduler {} holds queued requests without serving them",
                self.scheduler.name()
            )));
        }
        Ok(StepOutcome::Progressed)
    }

    /// Consumes a finished state into its [`ServiceReport`].
    pub(crate) fn build_report(&self, st: EngineState<'_>) -> Result<ServiceReport, SimError> {
        let responses = st.responses;
        let makespan_ms = responses.iter().map(|r| r.finish_ms).fold(0.0f64, f64::max);

        let mut sorted_sojourns: Vec<f64> = responses.iter().map(Response::sojourn_ms).collect();
        sorted_sojourns.sort_by(f64::total_cmp);
        let p50_sojourn_ms = stats::percentile(&sorted_sojourns, 0.50)?;
        let p95_sojourn_ms = stats::percentile(&sorted_sojourns, 0.95)?;
        let p99_sojourn_ms = stats::percentile(&sorted_sojourns, 0.99)?;

        // Waiting-queue depth over time: +1 at arrival, -1 at start.
        // Departures sort before arrivals at equal timestamps, so a
        // request served the instant it arrives contributes no depth.
        let mut events: Vec<(f64, i64)> = Vec::with_capacity(2 * responses.len());
        for r in &responses {
            events.push((r.request.arrival_ms, 1));
            events.push((r.start_ms, -1));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut depth, mut max_depth, mut area, mut prev_t) = (0i64, 0i64, 0.0f64, 0.0f64);
        for (t, delta) in events {
            area += depth as f64 * (t - prev_t);
            depth += delta;
            max_depth = max_depth.max(depth);
            prev_t = t;
        }

        let mut sorted_token_gaps = st.token_gaps;
        sorted_token_gaps.sort_by(f64::total_cmp);
        let (p50_itl_ms, p95_itl_ms, p99_itl_ms) = if sorted_token_gaps.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (
                stats::percentile(&sorted_token_gaps, 0.50)?,
                stats::percentile(&sorted_token_gaps, 0.95)?,
                stats::percentile(&sorted_token_gaps, 0.99)?,
            )
        };

        let mut sorted_ttfts = st.ttfts;
        sorted_ttfts.sort_by(f64::total_cmp);
        let (p50_ttft_ms, p95_ttft_ms, p99_ttft_ms) = if sorted_ttfts.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (
                stats::percentile(&sorted_ttfts, 0.50)?,
                stats::percentile(&sorted_ttfts, 0.95)?,
                stats::percentile(&sorted_ttfts, 0.99)?,
            )
        };

        // Pool energy: nominal power x busy time per server; servers
        // without a power model (the TPU) contribute nothing.
        let mut energy_j: Option<f64> = None;
        for (s, &busy_ms) in st.busy.iter().enumerate() {
            if let Some(power_w) = self.servers[s].nominal_power_w() {
                // lint: order-sensitive — summed in server index order
                *energy_j.get_or_insert(0.0) += power_w * busy_ms / 1e3;
            }
        }

        // Pool-wide paged-K/V counters, when any stepper pages.
        let mut paging: Option<PagingStats> = None;
        for stats in st
            .servers
            .iter()
            .filter_map(|r| r.stepper.as_ref()?.kv_stats())
        {
            match paging.as_mut() {
                Some(merged) => merged.merge(&stats),
                None => paging = Some(stats),
            }
        }

        let total_tokens: usize = st.workloads.iter().map(|w| w.output_len).sum();
        Ok(ServiceReport {
            backend: self.pool_name(),
            scheduler: self.scheduler.name().to_string(),
            servers: self.servers.len(),
            makespan_ms,
            p50_sojourn_ms,
            p95_sojourn_ms,
            p99_sojourn_ms,
            mean_queue_depth: if makespan_ms > 0.0 {
                area / makespan_ms
            } else {
                0.0
            },
            max_queue_depth: max_depth as usize,
            // lint: order-sensitive — summed in server index order
            utilization: st.busy.iter().sum::<f64>()
                / (self.servers.len() as f64 * makespan_ms.max(f64::MIN_POSITIVE)),
            goodput_tps: total_tokens as f64 / (makespan_ms.max(f64::MIN_POSITIVE) / 1e3),
            dispatches: st.dispatches,
            peak_live_batch: st.peak_live_batch,
            p50_ttft_ms,
            p95_ttft_ms,
            p99_ttft_ms,
            p50_itl_ms,
            p95_itl_ms,
            p99_itl_ms,
            energy_j,
            paging,
            responses,
            sorted_sojourns,
            sorted_ttfts,
            sorted_token_gaps,
        })
    }

    /// The per-server memory models of this engine's pool, in pool
    /// order — what [`EngineCheckpoint`](crate::EngineCheckpoint) sizes
    /// K/V claims with.
    pub(crate) fn server_memories(&self) -> Vec<Option<MemoryModel>> {
        self.servers.iter().map(|s| s.memory()).collect()
    }

    fn pool_name(&self) -> String {
        let first = self.servers[0].name();
        if self.servers.len() == 1 {
            first
        } else if self.servers.iter().all(|s| s.name() == first) {
            format!("{}x {first}", self.servers.len())
        } else {
            self.servers
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(" + ")
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{validate_workload, RunReport};
    use crate::scheduler::{ContinuousBatching, ShortestJobFirst};
    use crate::stepper::StepEvent;

    /// A backend with a closed-form service time: 1 ms per token.
    /// `stepped` additionally exposes a matching [`ContinuousStepper`]
    /// (prefill = `input_len` ms, 1 ms per decoded token), so solo
    /// stepping reproduces `serve` exactly.
    struct Const {
        label: &'static str,
        stepped: bool,
        power_w: Option<f64>,
    }

    struct ConstStepper {
        /// (id, workload, tokens emitted so far).
        members: Vec<(u64, Workload, usize)>,
    }

    impl ContinuousStepper for ConstStepper {
        fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
            validate_workload(workload)?;
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

    impl Backend for Const {
        fn name(&self) -> String {
            self.label.to_string()
        }
        fn device_count(&self) -> usize {
            1
        }
        fn nominal_power_w(&self) -> Option<f64> {
            self.power_w
        }
        fn serve(&self, w: Workload) -> Result<RunReport, SimError> {
            validate_workload(w)?;
            Ok(RunReport {
                workload: w,
                summarization_ms: w.input_len as f64,
                generation_ms: w.output_len as f64,
                devices: 1,
                power_w: None,
            })
        }
        fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
            self.stepped.then(|| {
                Box::new(ConstStepper {
                    members: Vec::new(),
                }) as Box<dyn ContinuousStepper>
            })
        }
    }

    const B: Const = Const {
        label: "unit",
        stepped: false,
        power_w: None,
    };
    /// The same backend with the token-granular capability.
    const S: Const = Const {
        label: "unit",
        stepped: true,
        power_w: None,
    };
    /// The stepped backend with a 250 W power model, for the energy
    /// accounting tests.
    const PW: Const = Const {
        label: "unit",
        stepped: true,
        power_w: Some(250.0),
    };

    #[test]
    fn every_request_is_served_once_and_in_fifo_order() {
        let workloads = vec![Workload::new(10, 10); 12];
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 100.0,
            seed: 3,
        };
        let r = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        assert_eq!(r.responses.len(), 12);
        let mut ids: Vec<u64> = r.responses.iter().map(|x| x.request.id).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "FIFO reordered {ids:?}"
        );
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
        for resp in &r.responses {
            assert!(resp.start_ms >= resp.request.arrival_ms);
            assert!((resp.service_ms() - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let workloads: Vec<Workload> = (0..20)
            .map(|i| Workload::new(8 + i % 4, 4 + i % 8))
            .collect();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 40.0,
            seed: 0xD15C,
        };
        let a = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        let b = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ttft_pins_continuous_vs_static_on_a_known_workload() {
        // Two well-separated (8 in, 4 out) requests on the 1 ms/token
        // backend. Both paths serve identically (batch-1 continuous ≡
        // FIFO), but TTFT differs by construction: the static path has
        // no intra-batch token timing, so TTFT is the dispatch delay
        // (0 here — each request starts at its arrival), while the
        // continuous path measures the first emission boundary — the
        // 8 ms prefill after arrival — then decodes a token per ms.
        let workloads = vec![Workload::new(8, 4); 2];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 100.0]);
        let fifo = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        let cont = ServingEngine::new(&S)
            .with_scheduler(Box::new(ContinuousBatching::new(1)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(fifo.responses, cont.responses);

        assert_eq!(fifo.p50_ttft_ms, 0.0);
        assert_eq!(fifo.p99_ttft_ms, 0.0);
        assert_eq!(fifo.p50_itl_ms, 0.0);
        assert_eq!(fifo.sorted_ttfts(), &[0.0, 0.0]);
        assert!(fifo.sorted_token_gaps().is_empty());

        assert_eq!(cont.p50_ttft_ms, 8.0);
        assert_eq!(cont.p99_ttft_ms, 8.0);
        assert_eq!(cont.sorted_ttfts(), &[8.0, 8.0]);
        assert_eq!(cont.p50_itl_ms, 1.0);
        assert_eq!(cont.p99_itl_ms, 1.0);
    }

    #[test]
    fn every_request_contributes_exactly_one_ttft_sample() {
        let workloads: Vec<Workload> = (0..17)
            .map(|i| Workload::new(4 + i % 5, 1 + i % 7))
            .collect();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 120.0,
            seed: 9,
        };
        for (backend, scheduler) in [(&B, None), (&S, Some(ContinuousBatching::new(4)))] {
            let mut engine = ServingEngine::new(backend as &dyn Backend);
            if let Some(s) = scheduler {
                engine = engine.with_scheduler(Box::new(s));
            }
            let r = engine.run(&workloads, &arrivals).unwrap();
            assert_eq!(r.sorted_ttfts().len(), workloads.len());
            assert!(r.sorted_ttfts().iter().all(|&t| t >= 0.0));
            assert!(r.p99_ttft_ms >= r.p50_ttft_ms);
        }
    }

    #[test]
    fn energy_is_power_times_busy_time() {
        let workloads = vec![Workload::new(8, 4); 2];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 100.0]);
        // 2 requests x (8 ms prefill + 4 ms decode) at 250 W:
        // 250 W x 0.024 s = 6 J exactly.
        let r = ServingEngine::new(&PW)
            .with_scheduler(Box::new(ContinuousBatching::new(1)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.energy_j, Some(6.0));
        // No power model anywhere in the pool: energy is None.
        let b = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        assert_eq!(b.energy_j, None);
    }

    #[test]
    fn run_traced_matches_run_and_conserves_spans() {
        let workloads = vec![
            Workload::new(8, 4),
            Workload::new(6, 3),
            Workload::new(5, 1),
        ];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 1.0, 2.0]);

        let plain = ServingEngine::new(&PW)
            .with_scheduler(Box::new(ContinuousBatching::new(4)))
            .run(&workloads, &arrivals)
            .unwrap();
        let (report, trace) = ServingEngine::new(&PW)
            .with_scheduler(Box::new(ContinuousBatching::new(4)))
            .run_traced(&workloads, &arrivals)
            .unwrap();
        assert_eq!(report, plain, "tracing must not perturb the run");
        trace.validate().unwrap();
        assert_eq!(trace.requests.len(), workloads.len());
        for t in &trace.requests {
            assert!(t.first_token_ms.is_some());
            assert!(!t.token_ms.is_empty());
        }
        // Attributed energy partitions the pool total (token shares
        // sum to one per server).
        let attributed: f64 = trace.requests.iter().filter_map(|t| t.energy_j).sum();
        assert!((attributed - report.energy_j.unwrap()).abs() < 1e-9);

        // The static path traces coarse spans: no token timing.
        let (sreport, strace) = ServingEngine::new(&B)
            .run_traced(&workloads, &arrivals)
            .unwrap();
        assert_eq!(sreport.responses.len(), workloads.len());
        strace.validate().unwrap();
        assert!(strace
            .requests
            .iter()
            .all(|t| t.first_token_ms.is_none() && t.token_ms.is_empty() && t.energy_j.is_none()));
        let json = strace.to_chrome_json();
        assert!(crate::telemetry::Json::parse(&json).is_ok());
    }

    #[test]
    fn a_pool_halves_the_queue() {
        let workloads = vec![Workload::new(50, 50); 40];
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 15.0,
            seed: 11,
        };
        let solo = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        let duo = ServingEngine::pool(vec![&B, &B])
            .unwrap()
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(duo.servers, 2);
        assert_eq!(duo.backend, "2x unit");
        assert!(duo.p99_sojourn_ms < solo.p99_sojourn_ms / 2.0);
        assert!(duo.responses.iter().any(|r| r.server == 1));
    }

    #[test]
    fn closed_loop_never_queues_more_than_clients() {
        let workloads = vec![Workload::new(10, 10); 30];
        let arrivals = ArrivalProcess::ClosedLoop {
            clients: 3,
            think_time_ms: 5.0,
        };
        let r = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        assert_eq!(r.responses.len(), 30);
        assert!(r.max_queue_depth <= 3, "{}", r.max_queue_depth);
        // Work conserving: the single server is the bottleneck.
        assert!(r.utilization > 0.5, "{}", r.utilization);
    }

    #[test]
    fn trace_replay_uses_the_given_timestamps() {
        let workloads = vec![Workload::new(5, 5); 3];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 100.0, 100.0]);
        let r = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        assert_eq!(r.responses[0].start_ms, 0.0);
        assert_eq!(r.responses[1].start_ms, 100.0);
        assert_eq!(r.responses[2].start_ms, 110.0);
    }

    #[test]
    fn sjf_prefers_short_jobs_under_backlog() {
        // All arrive at once; SJF should serve ascending output lengths
        // after the first pick.
        let workloads = vec![
            Workload::new(1, 50),
            Workload::new(1, 10),
            Workload::new(1, 30),
            Workload::new(1, 20),
        ];
        let arrivals = ArrivalProcess::Trace(vec![0.0; 4]);
        let r = ServingEngine::new(&B)
            .with_scheduler(Box::new(ShortestJobFirst::new()))
            .run(&workloads, &arrivals)
            .unwrap();
        let order: Vec<u64> = r.responses.iter().map(|x| x.request.id).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert_eq!(r.scheduler, "SJF(output_len)");
    }

    #[test]
    fn aged_sjf_bounds_starvation_under_sustained_short_arrivals() {
        // One long job at t=0 under a steady stream of short jobs that
        // would starve it forever: with aging it runs once it has
        // waited the bound; without aging it finishes last.
        let n_short = 30usize;
        let mut workloads = vec![Workload::new(1, 49)];
        workloads.extend(vec![Workload::new(1, 9); n_short]);
        // Shorts arrive every 10 ms — exactly the short service time, so
        // plain SJF always has a shorter job available.
        let mut times = vec![0.0];
        times.extend((0..n_short).map(|i| i as f64 * 10.0));
        let arrivals = ArrivalProcess::Trace(times);

        let plain = ServingEngine::new(&B)
            .with_scheduler(Box::new(ShortestJobFirst::new()))
            .run(&workloads, &arrivals)
            .unwrap();
        let long_plain = plain.responses.iter().find(|r| r.request.id == 0).unwrap();
        assert_eq!(
            plain.responses.last().unwrap().request.id,
            0,
            "without aging the long job must finish last"
        );

        let aged = ServingEngine::new(&B)
            .with_scheduler(Box::new(ShortestJobFirst::with_aging(40.0)))
            .run(&workloads, &arrivals)
            .unwrap();
        let long_aged = aged.responses.iter().find(|r| r.request.id == 0).unwrap();
        assert!(
            long_aged.start_ms < long_plain.start_ms,
            "aging must start the long job earlier: {} !< {}",
            long_aged.start_ms,
            long_plain.start_ms
        );
        // The long job runs as soon as it is stale and a server frees:
        // well before the short stream drains.
        assert!(
            long_aged.start_ms <= 50.0,
            "aged long-job start {} should be near the 40 ms bound",
            long_aged.start_ms
        );
    }

    #[test]
    fn batching_coalesces_a_backlog_into_one_dispatch() {
        // Four requests queued at t=0 with max_batch 4: one backend
        // invocation serves all of them, finishing together.
        let workloads = vec![Workload::new(10, 10); 4];
        let arrivals = ArrivalProcess::Trace(vec![0.0; 4]);
        let r = ServingEngine::new(&B)
            .with_scheduler(Box::new(crate::scheduler::Batching::new(4, 50.0)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.dispatches, 1);
        assert!((r.mean_batch_size() - 4.0).abs() < 1e-12);
        // The Const backend has no batched model, so the sequential
        // fallback sums the four service times; all four share it.
        for resp in &r.responses {
            assert_eq!(resp.start_ms, 0.0);
            assert!((resp.finish_ms - 80.0).abs() < 1e-9);
        }
    }

    #[test]
    fn batching_waits_for_latecomers_within_the_timeout() {
        // Second request arrives at 5 ms; the scheduler holds the free
        // server (timeout 30 ms) and dispatches both together.
        let workloads = vec![Workload::new(10, 10); 2];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 5.0]);
        let r = ServingEngine::new(&B)
            .with_scheduler(Box::new(crate::scheduler::Batching::new(2, 30.0)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.dispatches, 1);
        assert_eq!(r.responses[0].start_ms, 5.0);
        assert_eq!(r.responses[1].start_ms, 5.0);
    }

    #[test]
    fn batching_flushes_a_partial_batch_at_the_timeout() {
        // Nothing else ever arrives: the lone request must not wait past
        // its 30 ms window.
        let workloads = vec![Workload::new(10, 10)];
        let arrivals = ArrivalProcess::Trace(vec![2.0]);
        let r = ServingEngine::new(&B)
            .with_scheduler(Box::new(crate::scheduler::Batching::new(8, 30.0)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.dispatches, 1);
        assert_eq!(r.responses[0].start_ms, 32.0);
    }

    #[test]
    fn batching_with_max_batch_one_matches_fifo_exactly() {
        let workloads: Vec<Workload> = (0..20)
            .map(|i| Workload::new(4 + i % 5, 2 + i % 7))
            .collect();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 60.0,
            seed: 0xBA7C,
        };
        let fifo = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        let batch1 = ServingEngine::new(&B)
            .with_scheduler(Box::new(crate::scheduler::Batching::new(1, 1_000.0)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(fifo.responses, batch1.responses);
        assert_eq!(fifo.dispatches, batch1.dispatches);
    }

    #[test]
    fn continuous_with_max_batch_one_matches_fifo_exactly() {
        // The tentpole invariant: max_batch == 1 continuous batching is
        // the FIFO single-dispatch path — same starts, same finishes,
        // same percentiles (dispatch counting differs by design: the
        // token loop counts steps).
        let workloads: Vec<Workload> = (0..20)
            .map(|i| Workload::new(4 + i % 5, 2 + i % 7))
            .collect();
        for arrivals in [
            ArrivalProcess::Poisson {
                rate_per_s: 60.0,
                seed: 0xBA7C,
            },
            ArrivalProcess::ClosedLoop {
                clients: 3,
                think_time_ms: 4.0,
            },
        ] {
            let fifo = ServingEngine::new(&S).run(&workloads, &arrivals).unwrap();
            let cont = ServingEngine::new(&S)
                .with_scheduler(Box::new(ContinuousBatching::new(1)))
                .run(&workloads, &arrivals)
                .unwrap();
            assert_eq!(fifo.responses, cont.responses, "{arrivals:?}");
            assert_eq!(fifo.p99_sojourn_ms, cont.p99_sojourn_ms);
            assert_eq!(fifo.utilization, cont.utilization);
            assert_eq!(fifo.makespan_ms, cont.makespan_ms);
        }
    }

    #[test]
    fn continuous_admits_latecomers_into_a_running_batch() {
        // Request 1 arrives while request 0 decodes: it joins at the
        // next token boundary instead of waiting for 0 to finish.
        let workloads = vec![Workload::new(10, 20), Workload::new(5, 5)];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 12.0]);
        let r = ServingEngine::new(&S)
            .with_scheduler(Box::new(ContinuousBatching::new(2)))
            .run(&workloads, &arrivals)
            .unwrap();
        let first = r.responses.iter().find(|x| x.request.id == 0).unwrap();
        let second = r.responses.iter().find(|x| x.request.id == 1).unwrap();
        // The latecomer starts (prefills) at the first boundary at or
        // after its arrival, well before the long request finishes.
        assert!(second.start_ms >= 12.0);
        assert!(
            second.start_ms < first.finish_ms,
            "no admission happened: {} !< {}",
            second.start_ms,
            first.finish_ms
        );
        // Its 5 ms prefill stalls the running member's decode, so the
        // long request finishes later than it would alone (10 + 20 ms),
        // but far earlier than a static padded batch would allow.
        assert!(first.finish_ms > 30.0);
        // The short member exits early, before the long one.
        assert!(second.finish_ms < first.finish_ms);
    }

    #[test]
    fn continuous_early_exit_frees_slots_for_the_backlog() {
        // max_batch 2 over four queued requests: as each short member
        // exits, the next queued request is admitted at a token
        // boundary — the batch never drains to empty before refilling.
        let workloads = vec![
            Workload::new(2, 12),
            Workload::new(2, 3),
            Workload::new(2, 3),
            Workload::new(2, 3),
        ];
        let arrivals = ArrivalProcess::Trace(vec![0.0; 4]);
        let r = ServingEngine::new(&S)
            .with_scheduler(Box::new(ContinuousBatching::new(2)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.responses.len(), 4);
        let long = r.responses.iter().find(|x| x.request.id == 0).unwrap();
        // Every short request starts before the long member finishes:
        // each slot handoff happens mid-flight.
        for id in 1..4 {
            let short = r.responses.iter().find(|x| x.request.id == id).unwrap();
            assert!(
                short.start_ms < long.finish_ms,
                "request {id} waited for the long member"
            );
        }
    }

    #[test]
    fn continuous_discipline_falls_back_to_static_without_a_stepper() {
        // The Const backend without a stepper keeps the static path:
        // ContinuousBatching acts as an immediate greedy coalescer.
        let workloads = vec![Workload::new(10, 10); 4];
        let arrivals = ArrivalProcess::Trace(vec![0.0; 4]);
        let r = ServingEngine::new(&B)
            .with_scheduler(Box::new(ContinuousBatching::new(4)))
            .run(&workloads, &arrivals)
            .unwrap();
        // One coalesced dispatch through the sequential serve_batch
        // fallback: all four finish together at the summed latency.
        assert_eq!(r.dispatches, 1);
        for resp in &r.responses {
            assert_eq!(resp.start_ms, 0.0);
            assert!((resp.finish_ms - 80.0).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_admissions_are_service_errors() {
        /// Admits a duplicated index.
        struct DupAdmit;
        impl Scheduler for DupAdmit {
            fn name(&self) -> &str {
                "dup-admit"
            }
            fn pick(&mut self, _q: &[Request], _now: f64) -> usize {
                0
            }
            fn admit(
                &mut self,
                _running: &[RunningMember],
                _queue: &[Request],
                _now: f64,
                _probe: &mut dyn crate::scheduler::AdmissionProbe,
            ) -> Vec<usize> {
                vec![0, 0]
            }
            fn is_continuous(&self) -> bool {
                true
            }
        }
        let workloads = vec![Workload::new(5, 5); 2];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 0.0]);
        let err = ServingEngine::new(&S)
            .with_scheduler(Box::new(DupAdmit))
            .run(&workloads, &arrivals)
            .unwrap_err();
        assert!(matches!(err, SimError::Service(_)), "{err:?}");
    }

    #[test]
    fn declining_one_idle_server_defers_to_another_servers_boundary() {
        // A packing discipline keeps every request on the first-seeded
        // server: it declines admissions whenever the presented batch
        // is empty (an idle server) after the first seed. With no
        // future arrivals left, the engine must not call that a stall —
        // the busy server's next token boundary presents a non-empty
        // running batch and drains the queue.
        struct PackFirst {
            seeded: bool,
        }
        impl Scheduler for PackFirst {
            fn name(&self) -> &str {
                "pack-first"
            }
            fn pick(&mut self, _q: &[Request], _now: f64) -> usize {
                0
            }
            fn admit(
                &mut self,
                running: &[RunningMember],
                queue: &[Request],
                _now: f64,
                _probe: &mut dyn crate::scheduler::AdmissionProbe,
            ) -> Vec<usize> {
                if running.is_empty() && self.seeded {
                    return Vec::new();
                }
                self.seeded = true;
                (0..queue.len()).collect()
            }
            fn is_continuous(&self) -> bool {
                true
            }
        }
        let workloads = vec![Workload::new(5, 5), Workload::new(5, 5)];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 6.0]);
        let r = ServingEngine::pool(vec![&S, &S])
            .unwrap()
            .with_scheduler(Box::new(PackFirst { seeded: false }))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.responses.len(), 2);
        // Both packed onto the seeded server; the latecomer joined at a
        // token boundary after its arrival.
        assert!(r.responses.iter().all(|resp| resp.server == 0));
        let late = r.responses.iter().find(|x| x.request.id == 1).unwrap();
        assert!(late.start_ms >= 6.0);
    }

    #[test]
    fn admission_decliners_are_rejected_as_stalls() {
        /// Continuous discipline that never admits anybody.
        struct Decline;
        impl Scheduler for Decline {
            fn name(&self) -> &str {
                "decline"
            }
            fn pick(&mut self, _q: &[Request], _now: f64) -> usize {
                0
            }
            fn is_continuous(&self) -> bool {
                true
            }
        }
        let workloads = vec![Workload::new(5, 5)];
        let arrivals = ArrivalProcess::Trace(vec![0.0]);
        let err = ServingEngine::new(&S)
            .with_scheduler(Box::new(Decline))
            .run(&workloads, &arrivals)
            .unwrap_err();
        assert!(matches!(err, SimError::Service(_)), "{err:?}");
    }

    #[test]
    fn stalling_schedulers_are_rejected() {
        /// Always waits, never dispatches.
        struct Stall;
        impl Scheduler for Stall {
            fn name(&self) -> &str {
                "stall"
            }
            fn pick(&mut self, _q: &[Request], _now: f64) -> usize {
                0
            }
            fn pick_batch(
                &mut self,
                _q: &[Request],
                now_ms: f64,
                _feasible: &dyn Fn(&[Workload]) -> bool,
            ) -> BatchDecision {
                BatchDecision::Wait(now_ms + 1.0)
            }
        }
        let workloads = vec![Workload::new(5, 5)];
        let arrivals = ArrivalProcess::Trace(vec![0.0]);
        let err = ServingEngine::new(&B)
            .with_scheduler(Box::new(Stall))
            .run(&workloads, &arrivals)
            .unwrap_err();
        assert!(matches!(err, SimError::Service(_)), "{err:?}");
    }

    #[test]
    fn late_arrivals_in_a_custom_pick_never_start_before_they_arrive() {
        // A scheduler may legally Wait past a second server's free time
        // and then batch a late arrival with the queue head; the
        // dispatch instant of the earlier-free server must not drag the
        // late member's start before its own arrival.
        struct SkipOldest {
            calls: u32,
        }
        impl Scheduler for SkipOldest {
            fn name(&self) -> &str {
                "skip-oldest"
            }
            fn pick(&mut self, _q: &[Request], _now: f64) -> usize {
                0
            }
            fn pick_batch(
                &mut self,
                queue: &[Request],
                _now: f64,
                _feasible: &dyn Fn(&[Workload]) -> bool,
            ) -> BatchDecision {
                self.calls += 1;
                match self.calls {
                    // Hold the first server while arrivals trickle in.
                    1 | 2 => BatchDecision::Wait(100.0),
                    // Serve the middle request alone...
                    3 => BatchDecision::Dispatch(vec![1]),
                    // ...then batch the head with the latest arrival on
                    // the still-free second server.
                    _ => BatchDecision::Dispatch((0..queue.len()).collect()),
                }
            }
        }
        let workloads = vec![Workload::new(5, 5); 3];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 50.0, 60.0]);
        let r = ServingEngine::pool(vec![&B, &B])
            .unwrap()
            .with_scheduler(Box::new(SkipOldest { calls: 0 }))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.responses.len(), 3);
        for resp in &r.responses {
            assert!(
                resp.start_ms >= resp.request.arrival_ms,
                "request {} started at {} before its arrival {}",
                resp.request.id,
                resp.start_ms,
                resp.request.arrival_ms
            );
        }
    }

    #[test]
    fn invalid_batch_picks_are_service_errors() {
        /// Dispatches a duplicated index.
        struct Dup;
        impl Scheduler for Dup {
            fn name(&self) -> &str {
                "dup"
            }
            fn pick(&mut self, _q: &[Request], _now: f64) -> usize {
                0
            }
            fn pick_batch(
                &mut self,
                _q: &[Request],
                _now: f64,
                _feasible: &dyn Fn(&[Workload]) -> bool,
            ) -> BatchDecision {
                BatchDecision::Dispatch(vec![0, 0])
            }
        }
        let workloads = vec![Workload::new(5, 5); 2];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 0.0]);
        let err = ServingEngine::new(&B)
            .with_scheduler(Box::new(Dup))
            .run(&workloads, &arrivals)
            .unwrap_err();
        assert!(matches!(err, SimError::Service(_)), "{err:?}");
    }

    /// A tiny appliance whose HBM holds the weight shard plus
    /// `tokens` of K/V claim.
    fn capped_appliance(tokens: u64) -> dfx_sim::Appliance {
        use dfx_model::GptConfig;
        let probe = dfx_sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let m = probe.memory_model();
        dfx_sim::Appliance::timing_only(GptConfig::tiny(), 2)
            .unwrap()
            .with_hbm_capacity(m.weight_bytes + tokens * m.kv_bytes_per_token)
            .unwrap()
    }

    #[test]
    fn kv_capacity_caps_the_live_batch() {
        // Six saturating requests of 16 tokens' claim each: a 32-token
        // budget holds two at a time, however large the discipline's
        // max batch; unlimited HBM lets all six decode together.
        let workloads = vec![Workload::new(8, 8); 6];
        let arrivals = ArrivalProcess::Trace(vec![0.0; 6]);
        let capped = capped_appliance(32);
        let r = ServingEngine::new(&capped)
            .with_scheduler(Box::new(ContinuousBatching::new(8)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.responses.len(), 6);
        assert_eq!(r.peak_live_batch, 2, "HBM holds exactly two claims");

        let unlimited = dfx_sim::Appliance::timing_only(dfx_model::GptConfig::tiny(), 2).unwrap();
        let r = ServingEngine::new(&unlimited)
            .with_scheduler(Box::new(ContinuousBatching::new(8)))
            .run(&workloads, &arrivals)
            .unwrap();
        assert_eq!(r.peak_live_batch, 6);
    }

    #[test]
    fn chunked_prefill_cuts_the_decode_stall_at_equal_goodput() {
        // A long decode with long-context joiners arriving mid-flight:
        // unchunked, every admission stalls the runner for a whole
        // prefill; chunked, the worst inter-token gap shrinks while the
        // same total work keeps goodput essentially unchanged.
        use dfx_model::GptConfig;
        let dfx = dfx_sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let mut workloads = vec![Workload::new(8, 48)];
        workloads.extend(vec![Workload::new(64, 2); 3]);
        let arrivals = ArrivalProcess::Trace(vec![0.0, 0.5, 1.0, 1.5]);
        let run = |scheduler: Box<dyn Scheduler>| {
            ServingEngine::new(&dfx)
                .with_scheduler(scheduler)
                .run(&workloads, &arrivals)
                .unwrap()
        };
        let whole = run(Box::new(ContinuousBatching::new(4)));
        let chunked = run(Box::new(ContinuousBatching::new(4).with_prefill_chunk(4)));
        assert_eq!(chunked.responses.len(), whole.responses.len());
        assert!(
            chunked.p99_itl_ms < 0.6 * whole.p99_itl_ms,
            "chunked p99 gap {} !<< unchunked {}",
            chunked.p99_itl_ms,
            whole.p99_itl_ms
        );
        assert!(
            (chunked.goodput_tps - whole.goodput_tps).abs() < 0.05 * whole.goodput_tps,
            "goodput moved: chunked {} vs whole {}",
            chunked.goodput_tps,
            whole.goodput_tps
        );
    }

    #[test]
    fn slo_admission_defers_the_join_until_the_runner_is_safe() {
        // A 64-token prefill joining mid-decode blows the runner's SLO:
        // with the guard the join waits for the runner to finish (the
        // runner keeps its solo latency); greedy admission stalls it.
        use dfx_model::GptConfig;
        let dfx = dfx_sim::Appliance::timing_only(GptConfig::tiny(), 2).unwrap();
        let runner = Workload::new(8, 20);
        let solo_ms = dfx.serve(runner).unwrap().total_ms();
        let workloads = vec![runner, Workload::new(64, 2)];
        let arrivals = ArrivalProcess::Trace(vec![0.0, 1.0]);
        let run = |scheduler: Box<dyn Scheduler>| {
            ServingEngine::new(&dfx)
                .with_scheduler(scheduler)
                .run(&workloads, &arrivals)
                .unwrap()
        };
        let greedy = run(Box::new(ContinuousBatching::new(4)));
        let guarded = run(Box::new(ContinuousBatching::new(4).with_slo(1.2 * solo_ms)));
        let finish = |r: &ServiceReport, id: u64| {
            r.responses
                .iter()
                .find(|x| x.request.id == id)
                .unwrap()
                .finish_ms
        };
        assert!(
            finish(&guarded, 0) < finish(&greedy, 0),
            "the guard must protect the runner: {} !< {}",
            finish(&guarded, 0),
            finish(&greedy, 0)
        );
        // The runner meets its SLO under the guard (and the deferred
        // join is still served).
        assert!(finish(&guarded, 0) <= 1.2 * solo_ms + 1e-9);
        assert_eq!(guarded.responses.len(), 2);
    }

    #[test]
    fn utilization_and_goodput_are_consistent() {
        let workloads = vec![Workload::new(10, 10); 10];
        // Saturating arrivals: all at t=0.
        let arrivals = ArrivalProcess::Trace(vec![0.0; 10]);
        let r = ServingEngine::new(&B).run(&workloads, &arrivals).unwrap();
        assert!((r.utilization - 1.0).abs() < 1e-9, "{}", r.utilization);
        assert!((r.makespan_ms - 200.0).abs() < 1e-9);
        assert!((r.goodput_tps - 100.0 / 0.2).abs() < 1e-6);
        assert_eq!(r.max_queue_depth, 9);
    }

    #[test]
    fn empty_inputs_are_service_errors() {
        let arrivals = ArrivalProcess::Trace(vec![]);
        assert!(matches!(
            ServingEngine::new(&B).run(&[], &arrivals),
            Err(SimError::Service(_))
        ));
        assert!(matches!(
            ServingEngine::pool(vec![]),
            Err(SimError::Service(_))
        ));
    }
}

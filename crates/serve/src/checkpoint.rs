//! Incremental engine checkpoints: one resumable simulation per request
//! stream, advanced in time order as its arrivals become known.
//!
//! The cluster tier streams every replica through an
//! [`EngineCheckpoint`]: at each routed arrival `t` it advances the
//! replica to `t` and reads its load, and after the last arrival it
//! drains the replica into its report. A checkpoint keeps one
//! [`EngineState`](crate::engine) — the one event loop both dispatch
//! policies run on — and advances it monotonically: pushes reveal
//! arrivals in time order, `advance_to(t)` commits the events whose
//! decision instant lies strictly before `t` (holds whose wake instant
//! could still depend on unrevealed arrivals are stashed, not guessed —
//! see the step contract in `engine.rs`), and
//! [`finish`](EngineCheckpoint::finish) drains the stream into the same
//! [`ServiceReport`] a fresh batch run over everything pushed would
//! produce, bit for bit.
//!
//! The load signals read the committed events with integer byte
//! accounting (K/V budgets and claims are exact `u64` token-byte
//! products far below 2^53, so the reported ratio is exact):
//!
//! - **outstanding** = pushed − |committed responses with
//!   `finish_ms <= t`|;
//! - **K/V load** slides two independent min-heaps as `t` advances:
//!   claims open from the engine's *admission log* when their
//!   `start_ms` passes — starts are known at the admission event, so
//!   requests still in flight at `t` (the very thing K/V load
//!   measures) are visible long before they retire — and close from
//!   the response log when their `finish_ms` passes. A claim's start
//!   never exceeds its finish, so `claimed(t) = Σ opened − Σ closed`
//!   is the "started by `t`, unfinished at `t`" sum over committed
//!   events. (A claim can also start *after* the event that committed
//!   it — back-to-back prefills at one admission boundary push later
//!   joiners' starts forward — which the start-keyed heap absorbs.)
//!
//! Caveats:
//!
//! - Snapshot times must be non-decreasing (the heaps only slide
//!   forward), which routed arrivals are.
//! - When the scheduler holds an idle server — a static `Wait` whose
//!   deadline lies past `t`, or a continuous decline, a hold with no
//!   deadline — and the stream knows of no arrival before the
//!   deadline, the wake instant depends on whether another request
//!   joins the stream first, so the advance parks there. Until a push
//!   (or a horizon covering the deadline) resolves the hold,
//!   `advance_to` commits nothing further and the load signals read
//!   the events committed before it.
//! - Checkpointed runs report through the same [`ServiceReport`] as
//!   batch runs, so the cluster tier's pooled TTFT/ITL percentiles and
//!   energy totals (see [`telemetry`](crate::telemetry)) need no
//!   checkpoint-specific plumbing — `finish` hands back the sorted
//!   samples and busy time the telemetry layer reads.

use crate::backend::Backend;
use crate::engine::{EngineState, ServiceReport, ServingEngine, StepOutcome};
use crate::scheduler::Scheduler;
use dfx_hw::MemoryModel;
use dfx_model::Workload;
use dfx_sim::SimError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A serving engine plus the resumable state of one request stream,
/// advanced in time order as arrivals become known.
///
/// ```
/// use dfx_model::{GptConfig, Workload};
/// use dfx_serve::{ArrivalProcess, ContinuousBatching, EngineCheckpoint, ServingEngine};
/// use dfx_sim::Appliance;
///
/// # fn main() -> Result<(), dfx_sim::SimError> {
/// let appliance = Appliance::timing_only(GptConfig::tiny(), 2)?;
/// let workloads = vec![Workload::new(8, 8); 12];
/// let times: Vec<f64> = (0..12).map(|i| i as f64 * 3.5).collect();
///
/// // Stream the requests through a checkpoint…
/// let mut ck = EngineCheckpoint::new(
///     vec![&appliance],
///     Box::new(ContinuousBatching::new(4)),
/// )?;
/// for (w, &t) in workloads.iter().zip(&times) {
///     ck.advance_to(t)?;
///     let _load_now = ck.kv_load_at(t);
///     ck.push(*w, t);
/// }
/// let streamed = ck.finish()?;
///
/// // …and the report is bit-identical to a fresh batch run.
/// let batch = ServingEngine::new(&appliance)
///     .with_scheduler(Box::new(ContinuousBatching::new(4)))
///     .run(&workloads, &ArrivalProcess::Trace(times))?;
/// assert_eq!(streamed, batch);
/// # Ok(())
/// # }
/// ```
pub struct EngineCheckpoint<'a> {
    engine: ServingEngine<'a>,
    state: EngineState<'a>,
    /// Per-pool-slot memory models, indexed by `Response::server`.
    memories: Vec<Option<MemoryModel>>,
    /// Σ `kv_budget_bytes()` over memory-modelled servers.
    budget_bytes: u64,
    /// How many committed responses have been folded into the heaps.
    seen_responses: usize,
    /// How many committed admissions have been folded into the heaps.
    seen_admissions: usize,
    /// Committed finish times (as f64 bits), popped as `t` passes them.
    finish_heap: BinaryHeap<Reverse<u64>>,
    /// Committed responses whose finish has passed the snapshot time.
    finished: usize,
    /// K/V claims of committed admissions: `(start bits, bytes)`,
    /// claimed when the snapshot time reaches their start. Fed by the
    /// admission log, so in-flight requests (admitted, not yet retired)
    /// are visible.
    start_claims: BinaryHeap<Reverse<(u64, u64)>>,
    /// K/V claims of committed responses: `(finish bits, bytes)`,
    /// released when the snapshot time reaches their finish. A claim's
    /// start never exceeds its finish, so by the time a release is due
    /// its start has already been claimed.
    end_claims: BinaryHeap<Reverse<(u64, u64)>>,
    /// Bytes currently claimed at the last snapshot time.
    claimed_bytes: u64,
}

impl<'a> EngineCheckpoint<'a> {
    /// A checkpoint over a pool of backends under `scheduler`, with an
    /// empty open-loop stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] for an empty pool.
    pub fn new(
        servers: Vec<&'a dyn Backend>,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<Self, SimError> {
        let mut engine = ServingEngine::pool(servers)?.with_scheduler(scheduler);
        let memories = engine.server_memories();
        let budget_bytes = memories
            .iter()
            .flatten()
            .map(MemoryModel::kv_budget_bytes)
            .sum();
        let state = engine.start_stream()?;
        Ok(EngineCheckpoint {
            engine,
            state,
            memories,
            budget_bytes,
            seen_responses: 0,
            seen_admissions: 0,
            finish_heap: BinaryHeap::new(),
            finished: 0,
            start_claims: BinaryHeap::new(),
            end_claims: BinaryHeap::new(),
            claimed_bytes: 0,
        })
    }

    /// Appends one request to the stream. Its id is its push index;
    /// pushes must come in nondecreasing `arrival_ms` order.
    pub fn push(&mut self, workload: Workload, arrival_ms: f64) {
        self.state.push(workload, arrival_ms);
    }

    /// Requests pushed so far.
    pub fn pushed(&self) -> usize {
        self.state.pushed()
    }

    /// Commits every event whose decision instant lies strictly before
    /// `t`, stopping early at a decision that waits on an unrevealed
    /// arrival (see the module caveats). Afterwards the load accessors
    /// answer for time `t` from the committed events.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (scheduler protocol violations, backend
    /// failures).
    pub fn advance_to(&mut self, t: f64) -> Result<(), SimError> {
        while let StepOutcome::Progressed = self.engine.step(&mut self.state, Some(t))? {}
        self.ingest_events();
        Ok(())
    }

    /// Folds admissions and responses committed since the last call
    /// into the snapshot heaps. Claims are *opened* by the admission
    /// log — starts become known at the admission event, long before a
    /// mid-flight request retires — and *closed* by the response log.
    fn ingest_events(&mut self) {
        let admissions = &self.state.admissions;
        for &(server, start_ms, tokens) in &admissions[self.seen_admissions..] {
            if let Some(m) = self.memories.get(server).and_then(Option::as_ref) {
                let bytes = m.kv_claim_bytes(tokens);
                self.start_claims.push(Reverse((start_ms.to_bits(), bytes)));
            }
        }
        self.seen_admissions = admissions.len();

        let total = self.state.responses.len();
        for r in &self.state.responses[self.seen_responses..] {
            self.finish_heap.push(Reverse(r.finish_ms.to_bits()));
            if let Some(m) = self.memories.get(r.server).and_then(Option::as_ref) {
                let tokens = r.request.workload.input_len + r.request.workload.output_len;
                let bytes = m.kv_claim_bytes(tokens);
                self.end_claims
                    .push(Reverse((r.finish_ms.to_bits(), bytes)));
            }
        }
        self.seen_responses = total;
    }

    /// Requests pushed but not finished by `t`: the
    /// [`LeastOutstanding`](crate::cluster::LeastOutstanding) signal.
    /// `t` must be at or past the last [`advance_to`](Self::advance_to)
    /// horizon and non-decreasing across calls.
    pub fn outstanding_at(&mut self, t: f64) -> usize {
        let t_bits = t.to_bits();
        while self
            .finish_heap
            .peek()
            .is_some_and(|&Reverse(f)| f <= t_bits)
        {
            self.finish_heap.pop();
            self.finished += 1;
        }
        self.state.pushed() - self.finished
    }

    /// Fraction of the pool's K/V budget claimed by requests in flight
    /// at `t` (0.0 for an unbudgeted pool): the
    /// [`LeastKvLoaded`](crate::cluster::LeastKvLoaded) signal. Same
    /// monotonicity contract as
    /// [`outstanding_at`](Self::outstanding_at).
    pub fn kv_load_at(&mut self, t: f64) -> f64 {
        if self.budget_bytes == 0 {
            return 0.0;
        }
        let t_bits = t.to_bits();
        while let Some(&Reverse((start, bytes))) = self.start_claims.peek() {
            if start > t_bits {
                break;
            }
            self.start_claims.pop();
            self.claimed_bytes += bytes;
        }
        while let Some(&Reverse((finish, bytes))) = self.end_claims.peek() {
            if finish > t_bits {
                break;
            }
            self.end_claims.pop();
            self.claimed_bytes -= bytes;
        }
        self.claimed_bytes as f64 / self.budget_bytes as f64
    }

    /// Drains the stream to completion and builds its report —
    /// bit-identical to a fresh batch run of the full pushed prefix
    /// under the same pool and scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Service`] for an empty stream or a starved
    /// event loop, and propagates engine errors.
    pub fn finish(mut self) -> Result<ServiceReport, SimError> {
        if self.state.pushed() == 0 {
            return Err(SimError::Service("nothing to serve".into()));
        }
        self.engine.drain(&mut self.state)?;
        self.engine.build_report(self.state)
    }
}

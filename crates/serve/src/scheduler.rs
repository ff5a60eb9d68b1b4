//! Pluggable queue disciplines for the serving engine.
//!
//! A [`Scheduler`] decides *what a freed server executes next*: a single
//! request ([`Scheduler::pick`]), a whole set of queued requests
//! coalesced into one backend invocation ([`Scheduler::pick_batch`]) —
//! or nothing yet ([`BatchDecision::Wait`]), holding the server idle
//! while a batch fills. Continuous disciplines additionally implement
//! the *admission seam* ([`Scheduler::admit`]): at every token boundary
//! of a running batch, they decide which queued requests join the
//! members already decoding.

use crate::engine::Request;
use dfx_model::Workload;

/// What a scheduler tells the engine to do with a free server.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchDecision {
    /// Dispatch these queue indices as one coalesced batch (one
    /// [`Backend::serve_batch`](crate::Backend::serve_batch) call). The
    /// indices must be non-empty, unique and in range; the engine
    /// dispatches the members in queue (arrival) order.
    Dispatch(Vec<usize>),
    /// Hold the server idle and ask again at this absolute time (ms) —
    /// or earlier, if a new request arrives first. This is the engine's
    /// one hold rule, the same one a continuous discipline's decline
    /// (an [`admit`](Scheduler::admit) that admits nobody at an idle
    /// server) falls under, there with no deadline. The time must lie
    /// strictly in the future of the decision instant, and a scheduler
    /// must make progress: the engine allows at most two consecutive
    /// holds with no new arrival or committed work in between and
    /// rejects the third with a service error, so a discipline must
    /// dispatch once its own deadline passes (a deadline-at-a-time
    /// wait like [`Batching`]'s never hits the limit: the engine wakes
    /// it at `min(deadline, next arrival)`, where it either dispatches
    /// or has admitted a new request).
    Wait(f64),
}

/// A member currently decoding inside a continuous batch, as shown to
/// [`Scheduler::admit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningMember {
    /// The request id of the member.
    pub id: u64,
    /// The member's workload.
    pub workload: Workload,
    /// Output tokens the member has produced so far (still zero while a
    /// chunked prefill is in flight).
    pub tokens_done: usize,
    /// When the member's request arrived, ms — the anchor for
    /// deadline-aware admission policies
    /// ([`ContinuousBatching::with_slo`]).
    pub arrival_ms: f64,
}

/// The cost/capacity oracle the engine hands to [`Scheduler::admit`] at
/// every token boundary: what an admission would *do* to the running
/// batch, answered by the executing backend.
///
/// Estimates come from the server's
/// [`ContinuousStepper`](crate::ContinuousStepper) (memoized, charging
/// nothing); capacity from the backend's
/// [`memory`](crate::Backend::memory) model. Backends without estimates
/// return 0 (policies then degrade to greedy admission); backends
/// without a memory model fit everything.
pub trait AdmissionProbe {
    /// Estimated serial prefill stall of admitting `workload` now, ms.
    fn prefill_ms(&mut self, workload: Workload) -> f64;

    /// Estimated cost of one decode step at a hypothetical live batch
    /// of `live` members, ms.
    fn step_ms(&mut self, live: usize) -> f64;

    /// Whether the K/V claims of `members` (running *and* joining — the
    /// caller passes the would-be resident set) fit the device's free
    /// HBM budget together. The granularity is the backend's: summed
    /// whole `input + output` claims on a reserved allocator, free
    /// *blocks* against the joiners' prompts on a paged one
    /// ([`ContinuousStepper::kv_fits_resident`](crate::ContinuousStepper::kv_fits_resident))
    /// — the same scheduler admits more aggressively on a paged backend
    /// without any code change here.
    fn kv_fits(&self, members: &[Workload]) -> bool;
}

/// An [`AdmissionProbe`] with no backend behind it: zero cost
/// estimates, infinite memory. What a probe-less test harness wants.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedProbe;

impl AdmissionProbe for UnboundedProbe {
    fn prefill_ms(&mut self, _workload: Workload) -> f64 {
        0.0
    }

    fn step_ms(&mut self, _live: usize) -> f64 {
        0.0
    }

    fn kv_fits(&self, _members: &[Workload]) -> bool {
        true
    }
}

/// A queue discipline: decides which waiting request(s) a freed server
/// takes next.
///
/// The engine keeps the queue sorted by `(arrival, id)` and calls
/// [`pick_batch`] with every request that has arrived by `now_ms`. Most
/// disciplines dispatch one request at a time and only implement
/// [`pick`]; batching disciplines override [`pick_batch`] to coalesce
/// several queued requests into one backend invocation, or to wait for a
/// batch to fill; continuous disciplines additionally return `true`
/// from [`is_continuous`] and implement [`admit`], switching the
/// engine's dispatch policy to token-boundary admission on backends
/// that support it.
///
/// [`pick`]: Scheduler::pick
/// [`pick_batch`]: Scheduler::pick_batch
/// [`admit`]: Scheduler::admit
/// [`is_continuous`]: Scheduler::is_continuous
pub trait Scheduler {
    /// Discipline name for reports.
    fn name(&self) -> &str;

    /// Index into `queue` (never empty, sorted by arrival) of the single
    /// request to dispatch at `now_ms`.
    ///
    /// This is the single-dispatch path: the default [`pick_batch`]
    /// wraps the returned index in a one-element
    /// [`BatchDecision::Dispatch`], so a discipline that never batches
    /// only implements this method.
    ///
    /// [`pick_batch`]: Scheduler::pick_batch
    fn pick(&mut self, queue: &[Request], now_ms: f64) -> usize;

    /// Batching-aware entry point of the engine's static dispatch
    /// policy, called at an idle server: returns the *set* of queue
    /// indices to dispatch as one unit, or
    /// [`BatchDecision::Wait`] to hold the free server until a batch
    /// fills. Defaults to dispatching [`pick`]'s single choice.
    ///
    /// `feasible` is the executing backend's
    /// [`batch_feasible`](crate::Backend::batch_feasible) check: it
    /// answers whether a candidate set can run as one coalesced padded
    /// batch, so shape-aware disciplines ([`Batching`],
    /// [`ContinuousBatching`]) never coalesce members the backend would
    /// reject.
    ///
    /// [`pick`]: Scheduler::pick
    fn pick_batch(
        &mut self,
        queue: &[Request],
        now_ms: f64,
        feasible: &dyn Fn(&[Workload]) -> bool,
    ) -> BatchDecision {
        let _ = feasible;
        BatchDecision::Dispatch(vec![self.pick(queue, now_ms)])
    }

    /// The continuous-batching admission seam: at a token boundary of
    /// the batch running `running` members, returns the queue indices
    /// to admit now (each pays its prefill before decoding resumes).
    /// Indices must be unique and in range; an empty vector admits
    /// nobody. Only consulted when [`is_continuous`] is true and the
    /// backend has a stepper; the default admits nobody.
    ///
    /// `probe` is the executing server's cost/capacity oracle: memory-
    /// aware disciplines keep the joint K/V claim within
    /// [`AdmissionProbe::kv_fits`], and prefill-aware ones weigh
    /// [`AdmissionProbe::prefill_ms`] against the running members'
    /// deadlines before stalling their decode.
    ///
    /// [`is_continuous`]: Scheduler::is_continuous
    fn admit(
        &mut self,
        running: &[RunningMember],
        queue: &[Request],
        now_ms: f64,
        probe: &mut dyn AdmissionProbe,
    ) -> Vec<usize> {
        let _ = (running, queue, now_ms, probe);
        Vec::new()
    }

    /// The prefill chunk budget this discipline wants steppers to run
    /// with ([`ContinuousStepper::set_prefill_chunk`]); the engine
    /// applies it to every server's stepper when a continuous run
    /// starts. `None` (the default) keeps whole-prefill admission.
    ///
    /// [`ContinuousStepper::set_prefill_chunk`]:
    ///     crate::ContinuousStepper::set_prefill_chunk
    fn prefill_chunk(&self) -> Option<usize> {
        None
    }

    /// Whether this discipline schedules at token boundaries via
    /// [`admit`](Scheduler::admit). The engine's event loop uses the
    /// continuous dispatch policy only when this is true *and* every
    /// pooled backend has a
    /// [`ContinuousStepper`](crate::ContinuousStepper); otherwise its
    /// idle servers dispatch through the static
    /// [`pick_batch`](Scheduler::pick_batch) policy.
    fn is_continuous(&self) -> bool {
        false
    }
}

/// First-in first-out: requests are served strictly in arrival order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn pick(&mut self, _queue: &[Request], _now_ms: f64) -> usize {
        0
    }
}

/// Shortest-job-first on the generated-output length: among everything
/// queued, serve the request with the fewest output tokens (ties broken
/// by arrival order). A deliberately simple second discipline proving
/// the scheduler seam is real; it trades worst-case sojourn for mean.
///
/// # Starvation and aging
///
/// Plain SJF ([`ShortestJobFirst::new`]) is not fair: under sustained
/// load, a long request can be overtaken indefinitely as shorter
/// requests keep arriving — its sojourn is unbounded even though the
/// system is stable. [`ShortestJobFirst::with_aging`] bounds that
/// starvation: once the oldest queued request has waited `max_age_ms`,
/// it is served next regardless of length, so no request waits more
/// than `max_age_ms` behind the shortest-first order while a server is
/// free.
#[derive(Debug, Clone)]
pub struct ShortestJobFirst {
    max_age_ms: Option<f64>,
    name: String,
}

impl Default for ShortestJobFirst {
    fn default() -> Self {
        ShortestJobFirst::new()
    }
}

impl ShortestJobFirst {
    /// Plain SJF, no aging (see the starvation caveat above).
    pub fn new() -> Self {
        ShortestJobFirst {
            max_age_ms: None,
            name: "SJF(output_len)".to_string(),
        }
    }

    /// SJF with aging: the oldest queued request preempts the
    /// shortest-first order once it has waited `max_age_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `max_age_ms` is negative or non-finite.
    pub fn with_aging(max_age_ms: f64) -> Self {
        assert!(
            max_age_ms.is_finite() && max_age_ms >= 0.0,
            "max_age_ms must be finite and non-negative"
        );
        ShortestJobFirst {
            max_age_ms: Some(max_age_ms),
            name: format!("SJF(output_len, age={max_age_ms}ms)"),
        }
    }
}

impl Scheduler for ShortestJobFirst {
    fn name(&self) -> &str {
        &self.name
    }

    fn pick(&mut self, queue: &[Request], now_ms: f64) -> usize {
        // The queue is sorted by arrival, so index 0 is the oldest.
        if let Some(max_age_ms) = self.max_age_ms {
            if !queue.is_empty() && now_ms - queue[0].arrival_ms >= max_age_ms {
                return 0;
            }
        }
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.workload.output_len)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Size-and-timeout batching in arrival order: coalesce up to
/// `max_batch` queued requests into one backend invocation, dispatching
/// early once the oldest queued request has waited `max_wait_ms`.
///
/// The two knobs span the paper's trade-off space (§III-A): a large
/// `max_batch` with a generous timeout is the GPU serving posture
/// (throughput first), `max_batch == 1` collapses to [`Fifo`] exactly —
/// making DFX's latency-first batch-1 service directly comparable in the
/// same engine.
///
/// The timeout guarantee is conditional on a free server: a request's
/// dispatch is delayed by the *scheduler* at most `max_wait_ms` past its
/// arrival; time spent with every server busy counts against capacity,
/// not against the batching window.
///
/// # Coalescing feasibility
///
/// A coalesced batch executes at the *padded* shape (the batch's
/// longest context and longest output), which a backend with a hard
/// sequence cap (the DFX appliance's `max_seq_len`) can reject even
/// when every member alone is valid. The discipline therefore grows
/// each batch through the backend's
/// [`batch_feasible`](crate::Backend::batch_feasible) hook: a member
/// whose addition would make the set infeasible is skipped (it stays
/// queued and anchors its own batch next round), so mixed streams like
/// [`chatbot_mix`](crate::chatbot_mix) on short-context models dispatch
/// without backend rejections.
#[derive(Debug, Clone)]
pub struct Batching {
    max_batch: usize,
    max_wait_ms: f64,
    name: String,
}

impl Batching {
    /// Creates the discipline.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `max_wait_ms` is negative or
    /// non-finite.
    pub fn new(max_batch: usize, max_wait_ms: f64) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        assert!(
            max_wait_ms.is_finite() && max_wait_ms >= 0.0,
            "max_wait_ms must be finite and non-negative"
        );
        Batching {
            max_batch,
            max_wait_ms,
            name: format!("Batching(max={max_batch}, wait={max_wait_ms}ms)"),
        }
    }

    /// Maximum requests coalesced into one dispatch.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Longest the oldest queued request is held for batch-mates, ms.
    pub fn max_wait_ms(&self) -> f64 {
        self.max_wait_ms
    }
}

/// Grows a batch from the queue head in arrival order, skipping members
/// that would make the padded set infeasible for the backend. The head
/// itself is always included, feasible or not: a single-member batch
/// dispatches through [`Backend::serve`](crate::Backend::serve), which
/// checks the context window (and fails a request past it rather than
/// queueing it forever) but not the K/V budget, so a lone request whose
/// claim exceeds that budget is still served.
fn grow_feasible(
    queue: &[Request],
    max_batch: usize,
    feasible: &dyn Fn(&[Workload]) -> bool,
) -> Vec<usize> {
    let mut picked = vec![0];
    let mut shapes = vec![queue[0].workload];
    for (i, r) in queue.iter().enumerate().skip(1) {
        if picked.len() == max_batch {
            break;
        }
        shapes.push(r.workload);
        if feasible(&shapes) {
            picked.push(i);
        } else {
            shapes.pop();
        }
    }
    picked
}

impl Scheduler for Batching {
    fn name(&self) -> &str {
        &self.name
    }

    fn pick(&mut self, _queue: &[Request], _now_ms: f64) -> usize {
        // Single-dispatch path (unused by the engine once `pick_batch`
        // is overridden): arrival order.
        0
    }

    fn pick_batch(
        &mut self,
        queue: &[Request],
        now_ms: f64,
        feasible: &dyn Fn(&[Workload]) -> bool,
    ) -> BatchDecision {
        let picked = grow_feasible(queue, self.max_batch, feasible);
        if picked.len() >= self.max_batch {
            return BatchDecision::Dispatch(picked);
        }
        // The queue is sorted by arrival, so index 0 is the oldest.
        let deadline = queue[0].arrival_ms + self.max_wait_ms;
        if now_ms >= deadline {
            BatchDecision::Dispatch(picked)
        } else {
            BatchDecision::Wait(deadline)
        }
    }
}

/// Continuous (iteration-level) batching: requests join and leave a
/// running batch at token boundaries, the discipline of Orca/vLLM-style
/// serving stacks.
///
/// On a backend with a [`ContinuousStepper`](crate::ContinuousStepper),
/// the engine runs its continuous dispatch policy and consults
/// [`admit`](Scheduler::admit) at every boundary: this discipline
/// admits queued requests in arrival order whenever the live batch has
/// a free slot (up to `max_batch`) *and* the joint K/V claim of the
/// running members plus the candidate fits the device's HBM budget
/// ([`AdmissionProbe::kv_fits`] — vacuously true on backends without a
/// [`memory`](crate::Backend::memory) model, block-granular on a
/// paged-K/V appliance, where prompts rather than whole claims gate
/// admission). It never holds a server
/// to let a batch fill — admission is greedy because a joining member
/// costs only its own prefill, not a padded re-run of the whole batch.
/// Members exit the moment they produce their last token, releasing
/// their claim.
///
/// With `max_batch == 1` the discipline degenerates to one request at a
/// time in arrival order — exactly the [`Fifo`] single-dispatch path,
/// which the serving invariants pin down.
///
/// On a backend *without* a stepper (the cloud TPU), the engine keeps
/// the static policy and this discipline acts as an immediate-dispatch
/// coalescer: up to `max_batch` feasible requests per dispatch
/// (consulting [`batch_feasible`](crate::Backend::batch_feasible),
/// which covers both the padded shape and the joint K/V claim), zero
/// batching window.
///
/// # Prefill-aware admission ([`with_slo`](ContinuousBatching::with_slo))
///
/// On DFX the serial prefill is the dominant cost of joining a running
/// batch: every decoding member stalls for the newcomer's whole
/// summarization pass. With an SLO configured, a join is *deferred*
/// when the stall it injects would push any running member past its
/// deadline (`arrival + slo_ms`, projected as `now + pending prefills +
/// remaining tokens × step estimate`). A deferred candidate stays
/// queued and is reconsidered at the next boundary — typically joining
/// once a member retires. An idle server always admits (deferring
/// everybody forever would serve nobody).
///
/// # Chunked prefill ([`with_prefill_chunk`](ContinuousBatching::with_prefill_chunk))
///
/// Splits each admitted member's prefill into token-budgeted chunks
/// interleaved with decode steps (on steppers that support it — the
/// appliance does), bounding the per-step decode stall by one chunk
/// instead of one whole context. Total work is unchanged, so goodput
/// holds while the p99 inter-token gap of running members falls.
///
/// # Examples
///
/// ```
/// use dfx_model::{GptConfig, Workload};
/// use dfx_serve::{ArrivalProcess, ContinuousBatching, ServingEngine};
/// use dfx_sim::Appliance;
///
/// # fn main() -> Result<(), dfx_sim::SimError> {
/// let appliance = Appliance::timing_only(GptConfig::tiny(), 2)?;
/// let stream = vec![Workload::new(8, 8); 12];
/// let arrivals = ArrivalProcess::Poisson { rate_per_s: 50.0, seed: 7 };
/// let report = ServingEngine::new(&appliance)
///     .with_scheduler(Box::new(ContinuousBatching::new(4).with_prefill_chunk(4)))
///     .run(&stream, &arrivals)?;
/// assert_eq!(report.responses.len(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ContinuousBatching {
    max_batch: usize,
    slo_ms: Option<f64>,
    prefill_chunk: Option<usize>,
    name: String,
}

impl ContinuousBatching {
    /// Creates the discipline with at most `max_batch` members decoding
    /// at once (greedy, memory-aware admission; no SLO deferral, whole
    /// prefills).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        let mut c = ContinuousBatching {
            max_batch,
            slo_ms: None,
            prefill_chunk: None,
            name: String::new(),
        };
        c.rename();
        c
    }

    /// Adds prefill-aware admission: defer a join when its prefill
    /// stall would push a running member past `arrival + slo_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `slo_ms` is non-positive or non-finite.
    #[must_use]
    pub fn with_slo(mut self, slo_ms: f64) -> Self {
        assert!(
            slo_ms.is_finite() && slo_ms > 0.0,
            "slo_ms must be finite and positive"
        );
        self.slo_ms = Some(slo_ms);
        self.rename();
        self
    }

    /// Adds a chunked-prefill budget of `tokens` context positions per
    /// step (applied to every server's stepper by the engine).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero.
    #[must_use]
    pub fn with_prefill_chunk(mut self, tokens: usize) -> Self {
        assert!(tokens > 0, "a prefill chunk must be at least 1 token");
        self.prefill_chunk = Some(tokens);
        self.rename();
        self
    }

    /// Maximum members decoding at once.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    fn rename(&mut self) {
        let mut name = format!("Continuous(max={}", self.max_batch);
        if let Some(slo) = self.slo_ms {
            name.push_str(&format!(", slo={slo}ms"));
        }
        if let Some(chunk) = self.prefill_chunk {
            name.push_str(&format!(", chunk={chunk}"));
        }
        name.push(')');
        self.name = name;
    }
}

impl Scheduler for ContinuousBatching {
    fn name(&self) -> &str {
        &self.name
    }

    fn pick(&mut self, _queue: &[Request], _now_ms: f64) -> usize {
        0
    }

    fn pick_batch(
        &mut self,
        queue: &[Request],
        _now_ms: f64,
        feasible: &dyn Fn(&[Workload]) -> bool,
    ) -> BatchDecision {
        // Static fallback (no stepper): immediate greedy coalescing.
        BatchDecision::Dispatch(grow_feasible(queue, self.max_batch, feasible))
    }

    fn admit(
        &mut self,
        running: &[RunningMember],
        queue: &[Request],
        now_ms: f64,
        probe: &mut dyn AdmissionProbe,
    ) -> Vec<usize> {
        let slots = self.max_batch.saturating_sub(running.len());
        let mut picks = Vec::new();
        // The would-be resident set: running members plus accepted
        // candidates — the joint K/V claim each further admission must
        // fit next to.
        let mut resident: Vec<Workload> = running.iter().map(|m| m.workload).collect();
        // Members a further admission's stall must not push past their
        // deadline: `(arrival, remaining output tokens)` for the running
        // members *and* for candidates already picked at this boundary
        // (their own prefills are in `pending_stall_ms`; their whole
        // output is still ahead of them).
        let mut protected: Vec<(f64, usize)> = running
            .iter()
            .map(|m| {
                (
                    m.arrival_ms,
                    m.workload.output_len.saturating_sub(m.tokens_done),
                )
            })
            .collect();
        // Prefill stall already committed by this boundary's picks.
        let mut pending_stall_ms = 0.0;
        for (i, req) in queue.iter().enumerate() {
            if picks.len() == slots {
                break;
            }
            resident.push(req.workload);
            if !probe.kv_fits(&resident) {
                resident.pop();
                continue;
            }
            if let Some(slo) = self.slo_ms {
                // An idle server always admits its first candidate:
                // there is nobody to protect and deferring everybody
                // serves nobody.
                if !protected.is_empty() {
                    let stall = probe.prefill_ms(req.workload);
                    let step = probe.step_ms(running.len() + picks.len() + 1);
                    let blows_a_deadline = protected.iter().any(|&(arrival_ms, remaining)| {
                        let projected_finish =
                            now_ms + pending_stall_ms + stall + remaining as f64 * step;
                        projected_finish > arrival_ms + slo
                    });
                    if blows_a_deadline {
                        resident.pop();
                        continue;
                    }
                    // lint: order-sensitive — stalls charged in admission order
                    pending_stall_ms += stall;
                }
                protected.push((req.arrival_ms, req.workload.output_len));
            }
            picks.push(i);
        }
        picks
    }

    fn prefill_chunk(&self) -> Option<usize> {
        self.prefill_chunk
    }

    fn is_continuous(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::Workload;

    fn queue(arrivals: &[f64]) -> Vec<Request> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival_ms)| Request {
                id: i as u64,
                workload: Workload::new(8, 8),
                arrival_ms,
            })
            .collect()
    }

    const ANY: fn(&[Workload]) -> bool = |_| true;

    #[test]
    fn a_full_queue_dispatches_max_batch_in_arrival_order() {
        let mut b = Batching::new(3, 100.0);
        let q = queue(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            b.pick_batch(&q, 5.0, &ANY),
            BatchDecision::Dispatch(vec![0, 1, 2])
        );
    }

    #[test]
    fn a_partial_queue_waits_until_the_oldest_deadline() {
        let mut b = Batching::new(4, 100.0);
        let q = queue(&[10.0, 12.0]);
        assert_eq!(b.pick_batch(&q, 20.0, &ANY), BatchDecision::Wait(110.0));
        // At the deadline, flush whatever is queued.
        assert_eq!(
            b.pick_batch(&q, 110.0, &ANY),
            BatchDecision::Dispatch(vec![0, 1])
        );
    }

    #[test]
    fn max_batch_one_never_waits() {
        let mut b = Batching::new(1, 1_000.0);
        let q = queue(&[0.0]);
        assert_eq!(
            b.pick_batch(&q, 0.0, &ANY),
            BatchDecision::Dispatch(vec![0])
        );
    }

    #[test]
    fn zero_timeout_flushes_immediately() {
        let mut b = Batching::new(8, 0.0);
        let q = queue(&[5.0, 6.0]);
        assert_eq!(
            b.pick_batch(&q, 6.0, &ANY),
            BatchDecision::Dispatch(vec![0, 1])
        );
    }

    #[test]
    fn infeasible_members_are_skipped_not_coalesced() {
        // A feasibility oracle that rejects any pair containing both a
        // long-context and a long-output member (the padded-cap shape).
        let feasible = |ws: &[Workload]| {
            let input = ws.iter().map(|w| w.input_len).max().unwrap_or(0);
            let output = ws.iter().map(|w| w.output_len).max().unwrap_or(0);
            input + output <= 100
        };
        let mut q = queue(&[0.0, 1.0, 2.0]);
        q[0].workload = Workload::new(90, 2);
        q[1].workload = Workload::new(2, 90); // pads past the cap with q[0]
        q[2].workload = Workload::new(8, 8);
        let mut b = Batching::new(3, 0.0);
        assert_eq!(
            b.pick_batch(&q, 5.0, &feasible),
            BatchDecision::Dispatch(vec![0, 2])
        );
        // The skipped member anchors its own batch once it reaches the
        // head.
        let rest = vec![q[1]];
        assert_eq!(
            b.pick_batch(&rest, 6.0, &feasible),
            BatchDecision::Dispatch(vec![0])
        );
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_panics() {
        let _ = Batching::new(0, 10.0);
    }

    #[test]
    fn default_pick_batch_wraps_pick() {
        let mut sjf = ShortestJobFirst::new();
        let mut q = queue(&[0.0, 1.0]);
        q[1].workload = Workload::new(8, 2);
        assert_eq!(
            sjf.pick_batch(&q, 2.0, &ANY),
            BatchDecision::Dispatch(vec![1])
        );
    }

    #[test]
    fn aged_sjf_prefers_the_oldest_once_it_is_stale() {
        let mut sjf = ShortestJobFirst::with_aging(50.0);
        let mut q = queue(&[0.0, 1.0]);
        q[1].workload = Workload::new(8, 2);
        // Fresh queue: shortest first.
        assert_eq!(sjf.pick(&q, 10.0), 1);
        // Past the age bound: the oldest wins regardless of length.
        assert_eq!(sjf.pick(&q, 50.0), 0);
        assert_eq!(sjf.name(), "SJF(output_len, age=50ms)");
    }

    fn member(id: u64, workload: Workload, tokens_done: usize, arrival_ms: f64) -> RunningMember {
        RunningMember {
            id,
            workload,
            tokens_done,
            arrival_ms,
        }
    }

    #[test]
    fn continuous_admits_up_to_the_free_slots_in_arrival_order() {
        let mut c = ContinuousBatching::new(4);
        let q = queue(&[0.0, 1.0, 2.0]);
        let running = [member(9, Workload::new(8, 8), 3, 0.0)];
        assert_eq!(
            c.admit(&running, &q, 5.0, &mut UnboundedProbe),
            vec![0, 1, 2]
        );
        let full: Vec<RunningMember> = (0..4)
            .map(|id| member(id, Workload::new(8, 8), 1, 0.0))
            .collect();
        assert_eq!(
            c.admit(&full, &q, 5.0, &mut UnboundedProbe),
            Vec::<usize>::new()
        );
        assert!(c.is_continuous());
        assert_eq!(c.prefill_chunk(), None);
    }

    /// A probe with fixed costs and a token-capacity K/V oracle.
    struct FixedProbe {
        prefill_ms: f64,
        step_ms: f64,
        kv_budget_tokens: usize,
    }

    impl AdmissionProbe for FixedProbe {
        fn prefill_ms(&mut self, _w: Workload) -> f64 {
            self.prefill_ms
        }
        fn step_ms(&mut self, _live: usize) -> f64 {
            self.step_ms
        }
        fn kv_fits(&self, members: &[Workload]) -> bool {
            members
                .iter()
                .map(|w| w.input_len + w.output_len)
                .sum::<usize>()
                <= self.kv_budget_tokens
        }
    }

    #[test]
    fn continuous_admission_respects_the_joint_kv_budget() {
        // Budget for 40 tokens; the running member claims 16, each
        // candidate 16: one fits, the second is skipped, the *third*
        // (smaller) still fits — the discipline packs around it.
        let mut c = ContinuousBatching::new(8);
        let mut q = queue(&[0.0, 1.0, 2.0]);
        q[2].workload = Workload::new(4, 4);
        let running = [member(9, Workload::new(8, 8), 1, 0.0)];
        let mut probe = FixedProbe {
            prefill_ms: 0.0,
            step_ms: 0.0,
            kv_budget_tokens: 40,
        };
        assert_eq!(c.admit(&running, &q, 5.0, &mut probe), vec![0, 2]);
    }

    #[test]
    fn slo_admission_defers_prefills_that_blow_running_deadlines() {
        // The running member arrived at t=0 with 4 tokens to go at
        // 1 ms/step; an SLO of 20 ms leaves ~6 ms of slack at t=10. A
        // 50 ms prefill blows it (deferred); a 2 ms prefill fits.
        let mut c = ContinuousBatching::new(8).with_slo(20.0);
        let q = queue(&[0.0]);
        let running = [member(9, Workload::new(8, 8), 4, 0.0)];
        let mut heavy = FixedProbe {
            prefill_ms: 50.0,
            step_ms: 1.0,
            kv_budget_tokens: usize::MAX,
        };
        assert_eq!(c.admit(&running, &q, 10.0, &mut heavy), Vec::<usize>::new());
        let mut light = FixedProbe {
            prefill_ms: 2.0,
            step_ms: 1.0,
            kv_budget_tokens: usize::MAX,
        };
        assert_eq!(c.admit(&running, &q, 10.0, &mut light), vec![0]);
        // An idle server admits even the heavy prefill: nobody to
        // protect.
        assert_eq!(c.admit(&[], &q, 10.0, &mut heavy), vec![0]);
        assert_eq!(c.name(), "Continuous(max=8, slo=20ms)");
    }

    #[test]
    fn slo_admission_protects_same_boundary_picks_too() {
        // Burst arrival on an idle server: the first (short) candidate
        // is admitted unconditionally, and the second's 50 ms prefill
        // is then weighed against the *first pick's* deadline — not
        // just against running members — so it is deferred.
        let mut c = ContinuousBatching::new(8).with_slo(20.0);
        let mut q = queue(&[0.0, 0.0]);
        q[0].workload = Workload::new(2, 8);
        q[1].workload = Workload::new(64, 2);
        let mut heavy = FixedProbe {
            prefill_ms: 50.0,
            step_ms: 1.0,
            kv_budget_tokens: usize::MAX,
        };
        assert_eq!(c.admit(&[], &q, 0.0, &mut heavy), vec![0]);
        // With a slack SLO the same burst is admitted whole.
        let mut relaxed = ContinuousBatching::new(8).with_slo(1_000.0);
        assert_eq!(relaxed.admit(&[], &q, 0.0, &mut heavy), vec![0, 1]);
    }

    #[test]
    fn the_prefill_chunk_knob_reaches_the_engine() {
        let c = ContinuousBatching::new(4).with_prefill_chunk(16);
        assert_eq!(c.prefill_chunk(), Some(16));
        assert_eq!(c.name(), "Continuous(max=4, chunk=16)");
    }

    #[test]
    fn continuous_static_fallback_dispatches_immediately() {
        let mut c = ContinuousBatching::new(2);
        let q = queue(&[0.0, 1.0, 2.0]);
        // No waiting, capped at max_batch.
        assert_eq!(
            c.pick_batch(&q, 0.0, &ANY),
            BatchDecision::Dispatch(vec![0, 1])
        );
    }
}

//! Token-granular batched execution: the incremental executor behind
//! continuous (iteration-level) batching, and the stepping seam the
//! serving layer schedules against.
//!
//! [`Appliance::generate_batch_timed`] executes a *static* batch: every
//! member is padded to the batch's longest context and longest output,
//! and the whole batch completes as a unit. A [`ContinuousStepper`]
//! splits that whole-batch run into its token steps so a serving layer
//! can make decisions *between* steps, the discipline of Orca/vLLM-style
//! continuous batching:
//!
//! - [`admit`](ContinuousStepper::admit) joins a new member, charging
//!   its prefill (summarization) pass to the shared timeline;
//! - [`step_token`](ContinuousStepper::step_token) advances every live
//!   member by one output token at the *current* live batch size —
//!   members with different output lengths exit early instead of
//!   padding to the longest.
//!
//! Each operation reports a [`StepEvent`]: the time it added, the live
//! count after it, the members that produced their last token, and the
//! members that produced none. [`BatchState`] is the appliance's
//! stepper, charging every step through
//! [`dfx_core::TimingCore::time_step_batched`]; the serving crate adds a
//! closed-form GPU stepper and re-exports the trait and the event.
//!
//! A member that runs alone through a `BatchState` costs exactly what
//! [`Appliance::generate_timed`] charges (the per-step programs are
//! identical), and each decode step produces one credited token per
//! decoding member, so total token work is conserved no matter how
//! admissions and early exits interleave.
//!
//! # Memory admission
//!
//! Each device's HBM holds the weight shard plus every live member's
//! K/V attention state (paper §IV-B). One [`BlockPool`] over the
//! appliance's [`memory_model`](Appliance::memory_model) brokers that
//! budget, under one of two admission policies:
//!
//! - **reserved** (the default) — admission takes the member's whole
//!   claim (`input_len + output_len` context positions ×
//!   [`MemoryModel::kv_bytes_per_token`](dfx_hw::MemoryModel)) and
//!   [`admit`](ContinuousStepper::admit) fails with [`SimError::Memory`]
//!   when it exceeds the free budget. A member can never be evicted
//!   mid-decode by a later admission, and its claim is released in full
//!   when it finishes.
//! - **paged** (under [`Appliance::with_kv_paging`]) — admission takes
//!   blocks for the member's *prompt* only, decode grows the block table
//!   page by page, and a grow that finds the pool exhausted preempts the
//!   youngest co-tenant under the configured
//!   [`PreemptionPolicy`](crate::PreemptionPolicy) — recompute (the
//!   victim's prefill re-runs over everything it had materialised, LM
//!   head on every already-emitted position, and it resumes decoding
//!   with its emitted count intact) or retain (its blocks swap to DDR,
//!   charged through [`dfx_hw::DdrModel`], and stream back when capacity
//!   returns). A non-zero shared-prefix length additionally routes every
//!   admission through the ref-counted prefix cache, skipping both the
//!   K/V bytes and the prefill compute of cached prompt blocks.
//!
//! # Chunked prefill
//!
//! By default a member's whole prefill is charged at admission, stalling
//! every decoding member for the full summarization pass — on DFX the
//! dominant cost of joining a running batch. With
//! [`set_prefill_chunk`](ContinuousStepper::set_prefill_chunk), the
//! prefill is split into token-budgeted chunks interleaved with decode
//! steps (Sarathi/TGI style): each
//! [`step_token`](ContinuousStepper::step_token) advances the oldest
//! in-flight prefill by at most the budget before decoding the live
//! members, bounding the decode stall per step by one chunk instead of
//! one whole context. Total prefill work is identical (the same
//! per-position programs run in the same order), so the member produces
//! exactly the same tokens — chunking trades nothing but the
//! interleaving. An unset (or `>= input_len`) budget reproduces the
//! unchunked path bit for bit.
//!
//! Decode steps at heterogeneous positions are charged at the *largest*
//! live position (the attention shape the hardware would pad to within
//! the step).

use crate::appliance::Appliance;
use crate::block::{BlockPool, PagingStats, PreemptionPolicy, Prefix};
use crate::error::SimError;
use dfx_model::Workload;

/// Result of one stepper operation (an admission's prefill or one
/// step).
///
/// An operation emits `live + finished.len() − prefilling.len()`
/// tokens when it is a step; an admission emits one token for its
/// joiner unless the joiner is listed in `prefilling`.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// Time the operation added to the run's shared timeline, ms.
    pub ms: f64,
    /// Live members after the operation (including members whose
    /// chunked prefill is still in flight).
    pub live: usize,
    /// Member ids that produced their last token during the operation.
    pub finished: Vec<u64>,
    /// Member ids that produced *no* token during the operation: their
    /// prefill is still in flight (admitted under a chunk budget, or
    /// queued behind another member's chunks), or — on a paged-K/V
    /// stepper — they were preempted, are parked in DDR, or spent the
    /// step being restored. Always empty on steppers without chunked
    /// prefill or paging.
    pub prefilling: Vec<u64>,
}

/// A backend executing requests token by token, with admissions between
/// steps.
///
/// The contract a serving engine relies on:
///
/// - a member admitted into an *empty* stepper and stepped to
///   completion accumulates the backend's whole-run latency for the
///   same workload — exactly on backends whose per-step costs add
///   without rounding (integer-millisecond test backends), and within
///   float accumulation order otherwise (the built-in appliance/GPU
///   steppers sum per-step milliseconds where a whole run sums
///   per-stage totals, a ~1e-9 relative difference) — so continuous
///   batching at `max_batch == 1` reproduces the single-dispatch FIFO
///   numbers;
/// - every [`step_token`](ContinuousStepper::step_token) produces one
///   credited output token per live *decoding* member (members listed
///   in [`StepEvent::prefilling`] produce none yet), so token work is
///   conserved under any admission/exit interleaving;
/// - admission feasibility is per member for *shape* (each workload is
///   validated alone — the static path's joint padded-shape constraint
///   does not apply between decode steps) but *joint* for memory: a
///   stepper backed by a K/V allocator ([`BatchState`]) fails admission
///   with [`SimError::Memory`] when the member's claim does not fit next
///   to the already-admitted members' claims. Schedulers avoid such
///   admissions through the cost and K/V estimates below.
pub trait ContinuousStepper {
    /// Admits a member, charging its prefill (or its first chunk, under
    /// a [`set_prefill_chunk`](ContinuousStepper::set_prefill_chunk)
    /// budget) to the shared timeline.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for workloads the backend
    /// rejects (zero-length, over the model's sequence cap) or a
    /// duplicate id, and [`SimError::Memory`] when the member's K/V
    /// claim exceeds the backend's free device-memory budget.
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError>;

    /// Advances every live member: one prefill chunk if one is in
    /// flight, then one output token for every decoding member.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] when no members are live.
    fn step_token(&mut self) -> Result<StepEvent, SimError>;

    /// Number of live (admitted, unfinished) members.
    fn live(&self) -> usize;

    /// Sets the prefill chunk budget (tokens charged per admission or
    /// step before decode resumes). The default implementation ignores
    /// the budget: backends without an incremental prefill model keep
    /// whole-prefill admission, which is always correct — chunking only
    /// redistributes when the same work is charged.
    fn set_prefill_chunk(&mut self, chunk: Option<usize>) {
        let _ = chunk;
    }

    /// Estimated serial stall of admitting `workload` now: its full
    /// prefill cost, ms. Feeds prefill-aware admission policies; the
    /// default (no estimate) returns 0, which makes such policies admit
    /// greedily on this backend.
    fn prefill_cost_ms(&mut self, workload: Workload) -> f64 {
        let _ = workload;
        0.0
    }

    /// Estimated cost of one decode step at a hypothetical live batch
    /// of `live` members, ms. Same default caveat as
    /// [`prefill_cost_ms`](ContinuousStepper::prefill_cost_ms).
    fn step_cost_ms(&mut self, live: usize) -> f64 {
        let _ = live;
        0.0
    }

    /// Backend-granular K/V feasibility of a hypothetical resident set
    /// (current live members plus candidates), when the stepper can
    /// answer more precisely than summed whole claims — the paged
    /// appliance stepper counts free *blocks* against the joiners'
    /// prompts. `None` (the default) tells the caller to fall back to
    /// summing whole claims against the backend's memory model.
    fn kv_fits_resident(&self, members: &[Workload]) -> Option<bool> {
        let _ = members;
        None
    }

    /// Paged-K/V run counters ([`PagingStats`]), when the stepper
    /// allocates K/V in blocks. `None` (the default) on reserved-claim
    /// and memory-less steppers.
    fn kv_stats(&self) -> Option<PagingStats> {
        None
    }
}

/// Validates a workload at a serving boundary: every backend's `serve`
/// and every stepper's admission.
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

struct Member {
    id: u64,
    workload: Workload,
    /// Context positions prefilled so far (`== prefill_target` once the
    /// member decodes).
    prefilled: usize,
    /// Positions the member must have materialised before it can
    /// decode. `input_len` normally; after a recompute preemption,
    /// everything it had written (`input_len + emitted − 1`), since the
    /// generated positions' K/V must come back too.
    prefill_target: usize,
    /// Output tokens produced so far (completing the prefill produces
    /// the first).
    emitted: usize,
    /// Tokens swapped out to DDR by a retain preemption (`None` when
    /// resident). A parked member holds no HBM blocks and makes no
    /// progress until swapped back in.
    parked: Option<usize>,
}

impl Member {
    fn decoding(&self) -> bool {
        self.parked.is_none() && self.prefilled == self.prefill_target
    }
}

/// Incremental batched executor over one [`Appliance`]: the appliance's
/// [`ContinuousStepper`].
///
/// Costs are charged through the same cycle model as the static paths:
/// prefills replay [`Appliance::generate_timed`]'s summarization loop,
/// decode steps run one `token_step` program through
/// [`dfx_core::TimingCore::time_step_batched`] at the live batch size.
/// Every step cost comes from the appliance's step table, keyed by
/// `(tile class start, lm_head, batch)` and shared with the static paths
/// and every other `BatchState` on the appliance, so a stream times no
/// class another run already timed
/// ([`Appliance::timed_step_programs`] counts them). Admission funds
/// each member's K/V from one [`BlockPool`] over the appliance's
/// [`memory_model`](Appliance::memory_model) budget — its whole claim
/// by default, its prompt blocks under
/// [`with_kv_paging`](Appliance::with_kv_paging) — and fails with
/// [`SimError::Memory`] when that does not fit. A member's K/V is
/// released the moment it produces its last token.
///
/// # Examples
///
/// ```
/// use dfx_model::{GptConfig, Workload};
/// use dfx_sim::{Appliance, ContinuousStepper};
///
/// # fn main() -> Result<(), dfx_sim::SimError> {
/// let appliance = Appliance::timing_only(GptConfig::tiny(), 2)?;
/// let mut batch = appliance.batch_state();
///
/// // Admit one member, decode a token, then admit a second mid-flight.
/// batch.admit(0, Workload::new(8, 4))?;
/// let step = batch.step_token()?;
/// assert_eq!(step.live, 1);
/// batch.admit(1, Workload::new(4, 2))?;
/// let step = batch.step_token()?;
/// // The short member exits early; the long one keeps decoding.
/// assert_eq!(step.finished, vec![1]);
/// assert_eq!(step.live, 1);
/// # Ok(())
/// # }
/// ```
pub struct BatchState<'a> {
    appliance: &'a Appliance,
    members: Vec<Member>,
    /// The K/V allocator over the appliance's per-device HBM budget
    /// (reserved by default; paged under [`Appliance::with_kv_paging`]).
    kv: BlockPool,
    /// Prefill chunk budget in tokens (`None`: whole-prefill admission).
    prefill_chunk: Option<usize>,
}

impl Appliance {
    /// Creates an empty incremental batch executor over this appliance,
    /// with a [`BlockPool`] sized by
    /// [`memory_model`](Appliance::memory_model): reserved by default,
    /// paged under [`with_kv_paging`](Appliance::with_kv_paging).
    ///
    /// See [`BatchState`] for the admit / step cycle.
    pub fn batch_state(&self) -> BatchState<'_> {
        BatchState {
            appliance: self,
            members: Vec::new(),
            kv: match self.kv_paging() {
                Some(cfg) => BlockPool::new(self.memory_model(), cfg.block_tokens),
                None => BlockPool::reserved(self.memory_model()),
            },
            prefill_chunk: None,
        }
    }
}

impl BatchState<'_> {
    /// The K/V allocator: inspect committed/free budget from outside.
    pub fn kv(&self) -> &BlockPool {
        &self.kv
    }

    fn decode_cost(&self, pos: usize, batch: usize) -> f64 {
        self.appliance
            .step_cycles(pos, true, batch as u32)
            .to_millis()
    }

    /// Cost of `workload`'s prefill positions `from..to`, ms (LM head on
    /// the context's last position and on every generated position — the
    /// latter only arise when a recompute preemption replays decode
    /// output; cycles are summed before the conversion to ms).
    fn prefill_span_ms(&self, input_len: usize, from: usize, to: usize) -> f64 {
        self.appliance
            .prefill_cycles(input_len, from, to)
            .to_millis()
    }

    /// Ensures member `grower` can write `tokens` more positions,
    /// evicting the youngest block-holding co-tenant at a time under the
    /// configured [`PreemptionPolicy`] until the write fits. Decode
    /// growth calls this every token; prefill growth only as a last
    /// resort (see [`step_token`](ContinuousStepper::step_token) — an
    /// evicting prefill invites recompute livelock). Returns the DDR swap
    /// time charged (retain policy only); a no-op returning 0 on a
    /// reserved pool, where admission funded the whole claim.
    fn make_room(&mut self, grower: u64, tokens: usize) -> Result<f64, SimError> {
        let mut ms = 0.0;
        loop {
            let pool = &mut self.kv;
            if pool.can_write(grower, tokens) {
                return Ok(ms);
            }
            let Some(i) = self.members.iter().rposition(|m| {
                m.id != grower
                    && m.parked.is_none()
                    && pool.lease_blocks(m.id).is_some_and(|(o, s)| o + s > 0)
            }) else {
                // Unreachable when every admission was solo-feasible:
                // a lone block-holder can always reach its own claim.
                return Err(SimError::Memory(format!(
                    "the block pool cannot make room for member {grower}: \
                     no preemptible co-tenant holds blocks"
                )));
            };
            let policy = self
                .appliance
                .kv_paging()
                .map_or(PreemptionPolicy::Recompute, |cfg| cfg.policy);
            let victim = &mut self.members[i];
            let (used, owned) = pool.evict(victim.id)?;
            match policy {
                PreemptionPolicy::Recompute => {
                    // The victim restarts its prefill over everything it
                    // had materialised: its prompt plus the K/V of every
                    // token it already emitted.
                    victim.prefilled = 0;
                    victim.prefill_target =
                        victim.workload.input_len + victim.emitted.saturating_sub(1);
                }
                PreemptionPolicy::Retain => {
                    pool.record_swap_out();
                    victim.parked = Some(used);
                    let bytes = pool.memory().kv_claim_bytes(owned * pool.block_tokens());
                    // lint: order-sensitive — simulated-clock accumulation
                    ms += dfx_hw::DdrModel::default()
                        .transfer_cycles(bytes)
                        .to_millis();
                }
            }
        }
    }
}

impl ContinuousStepper for BatchState<'_> {
    /// Admits a member: validates the workload, funds its K/V from the
    /// HBM budget (its whole claim, or under paging its first write's
    /// blocks), charges its prefill pass (or its first chunk, under
    /// [`set_prefill_chunk`](ContinuousStepper::set_prefill_chunk)) to
    /// the shared timeline and registers it for decode steps.
    ///
    /// The unchunked prefill replays the summarization stage of
    /// [`Appliance::generate_timed`] (every context token, LM head on
    /// the last), so a member admitted into an empty batch and stepped
    /// to completion costs exactly the sequential run. Admission
    /// requires per-member validity (`input_len + output_len` within the
    /// model cap — there is no joint padded shape) *and* room in the
    /// K/V pool for what admission takes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for an empty context, an
    /// empty output, a workload exceeding the model's maximum sequence
    /// length, or an id already live; [`SimError::Memory`] when the K/V
    /// pool cannot fund the admission.
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        validate_workload(workload)?;
        self.appliance.check_workload(workload)?;
        if self.members.iter().any(|m| m.id == id) {
            return Err(SimError::InvalidRequest(format!(
                "member id {id} is already in the batch"
            )));
        }
        let chunk = self.prefill_chunk.unwrap_or(usize::MAX);
        // Admission funds the first prefill chunk (the whole claim on a
        // reserved pool), with cached prefix blocks attached for free.
        // The prompt cap of `input_len − 1` guarantees at least one
        // computed position — the LM head that emits the first token.
        let prefix = self
            .appliance
            .kv_paging()
            .filter(|cfg| cfg.shared_prefix_tokens > 0)
            .map(|cfg| Prefix {
                key: 0,
                tokens: cfg.shared_prefix_tokens.min(workload.input_len - 1),
            });
        let hits = prefix.map_or(0, |p| self.kv.prefix_hits(p));
        let first_computed = chunk.min(workload.input_len - hits);
        let hit = self.kv.admit(
            id,
            workload.input_len + workload.output_len,
            first_computed,
            prefix,
        )?;
        debug_assert_eq!(hit, hits);
        let prefilled = hit + first_computed;
        let ms = self.prefill_span_ms(workload.input_len, hit, prefilled);
        // The prefill's LM head produces the first output token, unless
        // the prefill is still in flight.
        let pending = prefilled < workload.input_len;
        let finished = !pending && workload.output_len == 1;
        if finished {
            self.kv.release(id);
        } else {
            self.members.push(Member {
                id,
                workload,
                prefilled,
                prefill_target: workload.input_len,
                emitted: usize::from(!pending),
                parked: None,
            });
        }
        Ok(StepEvent {
            ms,
            live: self.members.len(),
            finished: if finished { vec![id] } else { Vec::new() },
            prefilling: if pending { vec![id] } else { Vec::new() },
        })
    }

    /// Advances the batch by one step: works one chunk of the oldest
    /// in-flight prefill (if any — see
    /// [`set_prefill_chunk`](ContinuousStepper::set_prefill_chunk)),
    /// then advances every decoding member by one output token.
    ///
    /// The decode pass runs one `token_step` program through
    /// [`dfx_core::TimingCore::time_step_batched`] at the decoding batch
    /// size, positioned at the largest decoding member's context (the
    /// attention shape the step pads to); every decoding member earns
    /// one output token, and a member completing its prefill earns its
    /// first. Members reaching their requested length leave the batch
    /// (releasing their K/V) and are listed in [`StepEvent::finished`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] when no members are live.
    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        if self.members.is_empty() {
            return Err(SimError::InvalidRequest(
                "no live members to step (admit first)".into(),
            ));
        }
        let mut ms = 0.0;
        // Members that earned a token this step: a completed prefill's
        // first, or one decoded token.
        let mut earned: Vec<u64> = Vec::new();
        let mut finished = Vec::new();
        // Members that made paged-only progress this step (a swap back
        // in, or a recompute catching up): live, but no token earned.
        let mut resumed: Vec<u64> = Vec::new();

        // Swap the oldest parked member back in once its footprint fits
        // again (the paged retain policy; charged as a DDR transfer).
        let oldest_parked = self
            .members
            .iter()
            .enumerate()
            .find_map(|(i, m)| m.parked.map(|p| (i, p)));
        if let Some((i, swapped)) = oldest_parked {
            let id = self.members[i].id;
            if self.kv.can_write(id, swapped) {
                self.kv.restore(id, swapped)?;
                let bytes = self.kv.memory().kv_claim_bytes(swapped);
                ms += dfx_hw::DdrModel::default()
                    .transfer_cycles(bytes)
                    .to_millis();
                self.members[i].parked = None;
                resumed.push(id);
            }
        }

        // One chunk of the oldest active in-flight prefill that fits.
        //
        // A prefill chunk only runs when its blocks are already free
        // (always, on a reserved pool): growing a prefill never preempts
        // a decoding member, because two recompute victims could then
        // evict each other's re-prefill forever without either earning
        // a token.
        // A chunk that does not fit simply waits for decoders to retire
        // and release blocks. The one exception: when no member can make
        // progress any other way (nothing decodes, nothing resumed), the
        // oldest pending prefill runs anyway and preempts co-tenants as
        // a last resort — solo-fit admission guarantees it completes
        // even if it ends up holding the pool alone.
        //
        // A budget cleared mid-flight finishes the pending prefill in
        // one whole chunk.
        let chunk = self.prefill_chunk.unwrap_or(usize::MAX);
        let candidates: Vec<usize> = (0..self.members.len())
            .filter(|&i| {
                let m = &self.members[i];
                m.parked.is_none() && !m.decoding() && !resumed.contains(&m.id)
            })
            .collect();
        let mut chosen: Option<(usize, bool)> = None;
        for &i in &candidates {
            let (id, target) = (self.members[i].id, self.members[i].prefill_target);
            // A recompute victim restarting from zero re-attaches any
            // still-cached prefix blocks before recomputing the rest.
            if self.members[i].prefilled == 0 {
                self.members[i].prefilled = self.kv.attach_cached_prefix(id, target)?;
            }
            let from = self.members[i].prefilled;
            let to = from.saturating_add(chunk).min(target);
            if self.kv.can_write(id, to - from) {
                chosen = Some((i, false));
                break;
            }
        }
        if chosen.is_none() && !candidates.is_empty() {
            let any_runnable = self
                .members
                .iter()
                .any(|m| m.parked.is_none() && m.prefilled == m.prefill_target);
            if !any_runnable {
                chosen = Some((candidates[0], true));
            }
        }
        if let Some((i, force)) = chosen {
            let (id, workload) = {
                let m = &self.members[i];
                (m.id, m.workload)
            };
            let target = self.members[i].prefill_target;
            let from = self.members[i].prefilled;
            let to = from.saturating_add(chunk).min(target);
            if force {
                ms += self.make_room(id, to - from)?;
            }
            ms += self.prefill_span_ms(workload.input_len, from, to);
            self.kv.write(id, to - from)?;
            let m = &mut self.members[i];
            m.prefilled = to;
            if m.decoding() {
                if m.emitted == 0 {
                    m.emitted = 1;
                    earned.push(id);
                    if m.workload.output_len == 1 {
                        finished.push(id);
                        self.members.remove(i);
                        self.kv.release(id);
                    }
                } else {
                    // A recompute caught back up: its K/V is whole
                    // again, but every token over these positions was
                    // already emitted before the preemption.
                    resumed.push(id);
                }
            }
        }

        // One decode pass over the members that were already decoding at
        // the step's start (a member completing its prefill above joins
        // from the next step; a member resumed above likewise).
        let decoding: Vec<u64> = self
            .members
            .iter()
            .filter(|m| m.decoding() && !earned.contains(&m.id) && !resumed.contains(&m.id))
            .map(|m| m.id)
            .collect();
        if !decoding.is_empty() {
            // Mirrors generate_timed's decode loop: generating output
            // token `emitted + 1` runs token_step(input_len + emitted - 1).
            let pos = self
                .members
                .iter()
                .filter(|m| decoding.contains(&m.id))
                .map(|m| m.workload.input_len + m.emitted - 1)
                .fold(0, usize::max);
            ms += self.decode_cost(pos, decoding.len());
        }

        let mut i = 0;
        while i < self.members.len() {
            let id = self.members[i].id;
            // Skip members outside the snapshot — and, paged only,
            // snapshot members preempted mid-step by an earlier
            // member's growth (the charged decode pass ran at the
            // pre-preemption shape; the victim just earns nothing).
            if !decoding.contains(&id) || !self.members[i].decoding() {
                i += 1;
                continue;
            }
            // lint: order-sensitive — simulated-clock accumulation
            ms += self.make_room(id, 1)?;
            self.kv.write(id, 1)?;
            self.members[i].emitted += 1;
            earned.push(id);
            if self.members[i].emitted == self.members[i].workload.output_len {
                self.members.remove(i);
                self.kv.release(id);
                finished.push(id);
            } else {
                i += 1;
            }
        }
        let prefilling: Vec<u64> = self
            .members
            .iter()
            .filter(|m| !earned.contains(&m.id))
            .map(|m| m.id)
            .collect();
        Ok(StepEvent {
            ms,
            live: self.members.len(),
            finished,
            prefilling,
        })
    }

    fn live(&self) -> usize {
        self.members.len()
    }

    /// Sets the prefill chunk budget: admissions charge at most `chunk`
    /// context positions up front and later
    /// [`step_token`](ContinuousStepper::step_token)s interleave the
    /// remainder with decode, one chunk per step. `None` (the default)
    /// restores whole-prefill admission; a budget at or above a member's
    /// `input_len` is equivalent to it for that member. Clearing the
    /// budget while a chunked prefill is in flight is allowed: the next
    /// step finishes that prefill in one whole chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is `Some(0)`.
    fn set_prefill_chunk(&mut self, chunk: Option<usize>) {
        assert!(chunk != Some(0), "a prefill chunk must be at least 1 token");
        self.prefill_chunk = chunk;
    }

    /// The full prefill pass over `workload`'s context, ms — the serial
    /// stall an unchunked admission would add to the shared timeline.
    /// Charges nothing; sums the same per-position step costs admission
    /// charges.
    fn prefill_cost_ms(&mut self, workload: Workload) -> f64 {
        self.prefill_span_ms(workload.input_len, 0, workload.input_len)
    }

    /// One decode step at a hypothetical live batch of `live` members,
    /// ms, positioned at the current largest decoding context (or the
    /// first decode position when none decodes). Charges nothing; reads
    /// the step cost the decode pass charges.
    fn step_cost_ms(&mut self, live: usize) -> f64 {
        let pos = self
            .members
            .iter()
            .filter(|m| m.decoding())
            .map(|m| m.workload.input_len + m.emitted - 1)
            .max()
            .unwrap_or(1);
        self.decode_cost(pos, live.max(1))
    }

    /// Block-granular feasibility of a hypothetical resident set:
    /// `None` without paging (the caller sums whole claims), `Some(fits)`
    /// under it. `members` is the would-be resident set — live members
    /// are matched off by workload.
    ///
    /// The policy is *half-funded outputs*: prompts are funded in full
    /// (a joiner needs blocks for its whole prompt minus its cached
    /// prefix blocks; a resident keeps its remaining prefill demand),
    /// but only half of each member's future decode growth is budgeted
    /// up front. A member's expected K/V footprint over its decode is
    /// `input + output/2` — short-output members finish and free blocks
    /// that fund the long tail — so this packs measurably more members
    /// than max-claim reservation while keeping preemption the rare
    /// case rather than the steady state.
    fn kv_fits_resident(&self, members: &[Workload]) -> Option<bool> {
        let cfg = self.appliance.kv_paging()?;
        let pool = &self.kv;
        let mut live: Vec<Workload> = self.members.iter().map(|m| m.workload).collect();
        let mut need = 0usize;
        for &w in members {
            if let Some(i) = live.iter().position(|&l| l == w) {
                live.swap_remove(i);
                continue;
            }
            let claim = w.input_len + w.output_len;
            if claim == 0 || pool.blocks_for(claim) > pool.total_blocks() {
                return Some(false);
            }
            let hit_blocks = if cfg.shared_prefix_tokens > 0 {
                pool.prefix_hits(Prefix {
                    key: 0,
                    tokens: cfg.shared_prefix_tokens.min(w.input_len.saturating_sub(1)),
                }) / pool.block_tokens()
            } else {
                0
            };
            let prompt_blocks = pool.blocks_for(w.input_len);
            let growth = pool.blocks_for(claim).saturating_sub(prompt_blocks);
            need += prompt_blocks.saturating_sub(hit_blocks) + growth.div_ceil(2);
        }
        let mut pending = 0usize;
        for m in &self.members {
            let held = pool.lease_blocks(m.id).map_or(0, |(o, s)| o + s);
            let prefill_blocks = pool.blocks_for(m.prefill_target);
            let claim_blocks = pool.blocks_for(m.workload.input_len + m.workload.output_len);
            let growth = claim_blocks.saturating_sub(prefill_blocks.max(held));
            pending += prefill_blocks.saturating_sub(held) + growth.div_ceil(2);
        }
        Some(need + pending <= pool.available_blocks())
    }

    fn kv_stats(&self) -> Option<PagingStats> {
        self.appliance.kv_paging().map(|_| self.kv.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::GptConfig;

    fn appliance() -> Appliance {
        Appliance::timing_only(GptConfig::tiny(), 2).unwrap()
    }

    /// Steps a batch to completion, returning the members in finishing
    /// order and the timeline the steps added, ms.
    fn drain(b: &mut BatchState<'_>) -> (Vec<u64>, f64) {
        let (mut finished, mut ms) = (Vec::new(), 0.0);
        while b.live() > 0 {
            let step = b.step_token().unwrap();
            ms += step.ms;
            finished.extend(step.finished);
        }
        (finished, ms)
    }

    /// Runs one workload alone through the incremental API, returning
    /// its whole timeline, ms.
    fn solo_ms(a: &Appliance, w: Workload) -> f64 {
        let mut b = a.batch_state();
        let admitted = b.admit(0, w).unwrap();
        let (finished, stepped) = drain(&mut b);
        assert_eq!(admitted.finished.len() + finished.len(), 1);
        admitted.ms + stepped
    }

    #[test]
    fn a_solo_member_costs_the_sequential_run() {
        let a = appliance();
        for w in [
            Workload::new(8, 4),
            Workload::new(3, 1),
            Workload::new(5, 9),
        ] {
            let seq = a.generate_timed(w.input_len, w.output_len).unwrap();
            let inc = solo_ms(&a, w);
            assert!(
                (inc - seq.total_latency_ms()).abs() < 1e-9 * seq.total_latency_ms().max(1.0),
                "{w}: incremental {inc} vs sequential {}",
                seq.total_latency_ms()
            );
        }
    }

    #[test]
    fn token_work_is_conserved_under_interleaving() {
        let a = appliance();
        let mut b = a.batch_state();
        let ws = [
            Workload::new(8, 5),
            Workload::new(4, 2),
            Workload::new(6, 7),
        ];
        // One token per step for every live member not prefilling (the
        // finished ones included), plus each prefill's first token.
        let step_tokens = |ev: StepEvent| ev.live + ev.finished.len() - ev.prefilling.len();
        let mut tokens = 0usize;
        let mut finished = Vec::new();
        b.admit(0, ws[0]).unwrap();
        tokens += step_tokens(b.step_token().unwrap());
        b.admit(1, ws[1]).unwrap();
        let mut admitted_third = false;
        while b.live() > 0 {
            let ev = b.step_token().unwrap();
            finished.extend(ev.finished.iter().copied());
            tokens += step_tokens(ev);
            if !admitted_third {
                b.admit(2, ws[2]).unwrap();
                admitted_third = true;
            }
        }
        finished.sort_unstable();
        assert_eq!(finished, vec![0, 1, 2]);
        let expect: usize = ws.iter().map(|w| w.output_len).sum();
        assert_eq!(tokens + ws.len(), expect);
    }

    #[test]
    fn short_members_exit_before_long_ones() {
        let a = appliance();
        let mut b = a.batch_state();
        b.admit(0, Workload::new(8, 8)).unwrap();
        b.admit(1, Workload::new(8, 3)).unwrap();
        assert_eq!(drain(&mut b).0, vec![1, 0]);
    }

    #[test]
    fn early_exit_frees_the_short_member_before_the_padded_batch_would() {
        // In a static padded batch every member waits for the longest
        // output; through the incremental API the short member is done
        // the moment it has its own tokens.
        let a = appliance();
        let ws = [Workload::new(8, 24), Workload::new(8, 2)];
        let padded = a.generate_batch_timed(&ws).unwrap().total_latency_ms();
        let mut b = a.batch_state();
        let mut elapsed = b.admit(0, ws[0]).unwrap().ms + b.admit(1, ws[1]).unwrap().ms;
        let mut short_done_ms = None;
        while b.live() > 0 {
            let step = b.step_token().unwrap();
            elapsed += step.ms;
            if step.finished.contains(&1) {
                short_done_ms = Some(elapsed);
            }
        }
        let short_done_ms = short_done_ms.expect("short member finished");
        assert!(
            short_done_ms < padded,
            "short member at {short_done_ms} !< padded batch {padded}"
        );
    }

    #[test]
    fn admission_is_per_member_feasible_where_static_padding_is_not() {
        // tiny's max_seq_len is 128: the pair pads past the cap as a
        // static batch but runs fine through token-granular admission.
        let a = appliance();
        let long_ctx = Workload::new(100, 2);
        let long_out = Workload::new(2, 100);
        assert!(a.generate_batch_timed(&[long_ctx, long_out]).is_err());
        let mut b = a.batch_state();
        b.admit(0, long_ctx).unwrap();
        b.admit(1, long_out).unwrap();
        assert_eq!(drain(&mut b).0.len(), 2);
    }

    #[test]
    fn invalid_admissions_are_rejected() {
        let a = appliance();
        let mut b = a.batch_state();
        assert!(matches!(
            b.admit(0, Workload::new(0, 4)),
            Err(SimError::InvalidRequest(_))
        ));
        assert!(matches!(
            b.admit(0, Workload::new(4, 0)),
            Err(SimError::InvalidRequest(_))
        ));
        assert!(matches!(
            b.admit(0, Workload::new(200, 200)),
            Err(SimError::InvalidRequest(_))
        ));
        b.admit(0, Workload::new(4, 4)).unwrap();
        assert!(matches!(
            b.admit(0, Workload::new(4, 4)),
            Err(SimError::InvalidRequest(_))
        ));
        // Stepping an empty batch is an error, not a no-op.
        let mut empty = a.batch_state();
        assert!(matches!(
            empty.step_token(),
            Err(SimError::InvalidRequest(_))
        ));
    }

    #[test]
    fn output_len_one_finishes_at_admission() {
        let a = appliance();
        let mut b = a.batch_state();
        let out = b.admit(7, Workload::new(6, 1)).unwrap();
        assert_eq!(out.finished, vec![7]);
        assert!(out.prefilling.is_empty());
        assert!(out.ms > 0.0);
        assert_eq!((out.live, b.live()), (0, 0));
        assert_eq!(b.kv().committed_tokens(), 0);
        // Exactly the sequential cost: generate_timed(6, 1) has no
        // generation stage either.
        let seq = a.generate_timed(6, 1).unwrap().total_latency_ms();
        assert!((out.ms - seq).abs() < 1e-9);
    }

    #[test]
    fn step_costs_grow_with_the_live_batch() {
        let a = appliance();
        let w = Workload::new(8, 16);
        let mut solo = a.batch_state();
        solo.admit(0, w).unwrap();
        let one = solo.step_token().unwrap().ms;
        let mut duo = a.batch_state();
        duo.admit(0, w).unwrap();
        duo.admit(1, w).unwrap();
        let two = duo.step_token().unwrap().ms;
        assert!(two > one, "batch-2 step {two} !> batch-1 step {one}");
    }

    // --- K/V capacity admission ------------------------------------

    /// An appliance whose HBM holds the weight shard plus `tokens` of
    /// K/V claim.
    fn capped(tokens: u64) -> Appliance {
        let a = appliance();
        let m = a.memory_model();
        appliance()
            .with_hbm_capacity(m.weight_bytes + tokens * m.kv_bytes_per_token)
            .unwrap()
    }

    #[test]
    fn admission_fails_when_the_kv_claim_exceeds_free_hbm() {
        // Budget for 20 tokens: one 8+4 member fits, a second does not
        // until the first finishes.
        let a = capped(20);
        let mut b = a.batch_state();
        b.admit(0, Workload::new(8, 4)).unwrap();
        assert_eq!(b.kv().committed_tokens(), 12);
        let err = b.admit(1, Workload::new(8, 4)).unwrap_err();
        assert!(matches!(err, SimError::Memory(_)), "{err:?}");
        drain(&mut b);
        // The claim is released the moment the member finishes.
        assert_eq!(b.kv().committed_tokens(), 0);
        b.admit(1, Workload::new(8, 4)).unwrap();
        assert_eq!(drain(&mut b).0, vec![1]);
    }

    #[test]
    fn early_exit_releases_the_full_claim() {
        let a = capped(40);
        let mut b = a.batch_state();
        b.admit(0, Workload::new(8, 24)).unwrap();
        b.admit(1, Workload::new(4, 2)).unwrap();
        assert_eq!(b.kv().committed_tokens(), 38);
        while !b.step_token().unwrap().finished.contains(&1) {}
        // The short member exited early; its whole 6-token claim is
        // back, not just what it wrote.
        assert_eq!(b.kv().committed_tokens(), 32);
        assert_eq!(b.kv().free_tokens(), 8);
    }

    // --- Chunked prefill --------------------------------------------

    #[test]
    fn chunked_prefill_produces_token_identical_output() {
        let a = appliance();
        let ws = [Workload::new(24, 6), Workload::new(16, 3)];
        let run = |chunk: Option<usize>| {
            let mut b = a.batch_state();
            b.set_prefill_chunk(chunk);
            let mut tokens = 0;
            for (i, &w) in ws.iter().enumerate() {
                if b.admit(i as u64, w).unwrap().prefilling.is_empty() {
                    tokens += 1; // the prefill's first token
                }
            }
            let mut finished = Vec::new();
            while b.live() > 0 {
                let ev = b.step_token().unwrap();
                tokens += ev.live + ev.finished.len() - ev.prefilling.len();
                finished.extend(ev.finished);
            }
            finished.sort_unstable();
            (finished, tokens)
        };
        let unchunked = run(None);
        assert_eq!(unchunked, (vec![0, 1], 9));
        for chunk in [1, 4, 7, 64] {
            assert_eq!(run(Some(chunk)), unchunked, "chunk {chunk}");
        }
    }

    #[test]
    fn chunked_prefill_total_cost_matches_unchunked_closely() {
        // The same per-position programs run in the same order, so the
        // total timeline differs only by per-chunk float conversion.
        let a = appliance();
        let w = Workload::new(24, 4);
        let unchunked = solo_ms(&a, w);
        let mut b = a.batch_state();
        b.set_prefill_chunk(Some(5));
        let admitted = b.admit(0, w).unwrap().ms;
        let (finished, stepped) = drain(&mut b);
        assert_eq!(finished, vec![0]);
        let chunked = admitted + stepped;
        assert!(
            (chunked - unchunked).abs() < 1e-9 * unchunked,
            "chunked {chunked} vs unchunked {unchunked}"
        );
    }

    #[test]
    fn a_chunk_budget_at_or_above_the_context_is_the_unchunked_path() {
        let a = appliance();
        let w = Workload::new(8, 4);
        let plain = solo_ms(&a, w);
        let mut b = a.batch_state();
        b.set_prefill_chunk(Some(w.input_len));
        let out = b.admit(0, w).unwrap();
        assert!(out.prefilling.is_empty());
        let covered = out.ms + drain(&mut b).1;
        assert_eq!(covered, plain, "bit-identical at a covering budget");
    }

    #[test]
    fn chunked_prefill_bounds_the_decode_stall() {
        // A running member decodes while a long prefill joins: unchunked,
        // one admission stalls decode for the whole context; chunked,
        // no single step (chunk + decode) costs near that.
        let a = appliance();
        let long = Workload::new(96, 4);
        let mut b = a.batch_state();
        b.set_prefill_chunk(Some(8));
        b.admit(0, Workload::new(8, 30)).unwrap();
        b.step_token().unwrap();
        let first_chunk = b.admit(1, long).unwrap();
        assert_eq!(first_chunk.prefilling, vec![1]);
        let full_prefill = a.batch_state().prefill_cost_ms(long);
        let mut max_step = first_chunk.ms;
        let mut finished = 0;
        while b.live() > 0 {
            let ev = b.step_token().unwrap();
            max_step = max_step.max(ev.ms);
            finished += ev.finished.len();
        }
        assert_eq!(finished, 2);
        assert!(
            max_step < 0.5 * full_prefill,
            "worst step {max_step} not well under the {full_prefill} ms whole prefill"
        );
    }

    #[test]
    fn prefilling_members_are_reported_and_produce_no_tokens() {
        let a = appliance();
        let mut b = a.batch_state();
        b.set_prefill_chunk(Some(4));
        // Member 0 prefills in 2 chunks (4 now, 4 later), member 1 in 3
        // (4 now, 8 later).
        assert_eq!(b.admit(0, Workload::new(8, 6)).unwrap().prefilling, vec![0]);
        assert_eq!(
            b.admit(1, Workload::new(12, 2)).unwrap().prefilling,
            vec![1]
        );
        // Prefills complete one chunk per step, oldest first; a member
        // mid-prefill produces no tokens and is reported as such.
        let s1 = b.step_token().unwrap();
        assert_eq!(s1.prefilling, vec![1]); // member 0 completes, emits
        let s2 = b.step_token().unwrap();
        assert_eq!(s2.prefilling, vec![1]); // member 0 decodes, 1 prefills
        let s3 = b.step_token().unwrap();
        assert!(s3.prefilling.is_empty()); // member 1 emits its first
                                           // From the next step both decode; member 1 (output 2) is done.
        let s4 = b.step_token().unwrap();
        assert_eq!((s4.live, s4.finished), (1, vec![1]));
        // Member 0 has emitted 4 of its 6 tokens: two more steps.
        assert_eq!(b.step_token().unwrap().finished, Vec::<u64>::new());
        assert_eq!(b.step_token().unwrap().finished, vec![0]);
        assert_eq!(b.live(), 0);
    }

    #[test]
    fn clearing_the_chunk_budget_mid_prefill_finishes_it_whole() {
        let a = appliance();
        let mut b = a.batch_state();
        b.set_prefill_chunk(Some(4));
        b.admit(0, Workload::new(12, 2)).unwrap();
        b.set_prefill_chunk(None);
        // The next step charges the remaining 8 positions in one chunk,
        // emitting the first token; one decode step finishes the member.
        let step = b.step_token().unwrap();
        assert!(step.prefilling.is_empty() && step.finished.is_empty());
        let step = b.step_token().unwrap();
        assert_eq!(step.finished, vec![0]);
    }

    #[test]
    fn estimates_charge_nothing() {
        let a = appliance();
        let mut b = a.batch_state();
        let w = Workload::new(16, 2);
        let p = b.prefill_cost_ms(w);
        let d = b.step_cost_ms(4);
        assert!(p > 0.0 && d > 0.0);
        assert_eq!(b.kv().committed_tokens(), 0);
        // The estimate equals what admission then charges.
        assert_eq!(b.admit(0, w).unwrap().ms, p);
    }
}

//! Token-granular batched execution: the incremental executor behind
//! continuous (iteration-level) batching.
//!
//! [`Appliance::generate_batch_timed`] executes a *static* batch: every
//! member is padded to the batch's longest context and longest output,
//! and the whole batch completes as a unit. [`BatchState`] splits that
//! whole-batch run into its token steps so a serving layer can make
//! decisions *between* steps, the discipline of Orca/vLLM-style
//! continuous batching:
//!
//! - [`BatchState::admit`] joins a new member, funding its K/V from the
//!   device's HBM budget ([`BlockPool`]) and charging its prefill
//!   (summarization) pass to the shared timeline;
//! - [`BatchState::step_token`] advances every live member by one decode
//!   token through [`dfx_core::TimingCore::time_step_batched`] at the
//!   *current* live batch size — members with different output lengths
//!   exit early instead of padding to the longest;
//! - [`BatchState::retire`] drains members that have produced their last
//!   token, freeing their slots for the next admission (their K/V is
//!   released the moment they finish).
//!
//! A member that runs alone through this API costs exactly what
//! [`Appliance::generate_timed`] charges (the per-step programs are
//! identical), and each decode step produces one credited token per live
//! member, so total token work is conserved no matter how admissions and
//! early exits interleave.
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
//!   [`admit`](BatchState::admit) fails with [`SimError::Memory`] when it
//!   exceeds the free budget. A member can never be evicted mid-decode
//!   by a later admission, and its claim is released in full when it
//!   finishes.
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
//! [`set_prefill_chunk`](BatchState::set_prefill_chunk), the prefill is
//! split into token-budgeted chunks interleaved with decode steps
//! (Sarathi/TGI style): each [`step_token`](BatchState::step_token)
//! advances the oldest in-flight prefill by at most the budget before
//! decoding the live members, bounding the decode stall per step by one
//! chunk instead of one whole context. Total prefill work is identical
//! (the same per-position programs run in the same order), so the
//! member produces exactly the same tokens — chunking trades nothing
//! but the interleaving. An unset (or `>= input_len`) budget reproduces
//! the unchunked path bit for bit.
//!
//! Decode steps at heterogeneous positions are charged at the *largest*
//! live position (the attention shape the hardware would pad to within
//! the step).

use crate::appliance::Appliance;
use crate::block::{BlockPool, PagingStats, PreemptionPolicy, Prefix};
use crate::error::SimError;
use dfx_model::Workload;

/// Result of admitting one member into a running batch.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitOutcome {
    /// Time the member's prefill pass (or, under a chunk budget, its
    /// first prefill chunk) added to the shared timeline, ms. Decode of
    /// the other live members stalls for this long — the admission cost
    /// a scheduler weighs against queue wait.
    pub prefill_ms: f64,
    /// True when the prefill already produced the member's only output
    /// token (`output_len == 1`): the member never decodes and is
    /// immediately ready to [`retire`](BatchState::retire).
    pub finished: bool,
    /// Context positions still to prefill (zero without a chunk budget:
    /// the whole pass is charged at admission). While positive, the
    /// member is live but produces no tokens; subsequent
    /// [`step_token`](BatchState::step_token)s work the remainder off
    /// one chunk at a time.
    pub pending_prefill: usize,
}

/// Result of one decode step over every live member.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenStepOutcome {
    /// Time the step added to the shared timeline, ms (a prefill chunk,
    /// if one was in flight, plus the decode pass; under paged K/V,
    /// also any preemption swaps the step forced).
    pub ms: f64,
    /// Decoding members the step advanced — also the number of output
    /// tokens the step produced for *previously running* members (one
    /// per decoding member, never padding). Under paged K/V a member
    /// preempted mid-step by a co-tenant's growth is not counted, even
    /// though the decode pass was charged at the pre-preemption batch
    /// shape (the hardware step it was padded into ran regardless).
    pub batch: usize,
    /// Ids of members that produced their last token in this step; they
    /// are ready to [`retire`](BatchState::retire) and no longer count
    /// as live.
    pub finished: Vec<u64>,
    /// Ids whose prefill completed in this step, emitting their first
    /// output token (always empty without a chunk budget).
    pub first_tokens: Vec<u64>,
    /// Ids of live members that produced *no* token this step: their
    /// prefill is still in flight (mid-chunk or queued behind another
    /// member's) or — under paged K/V — they are preempted, parked in
    /// DDR, or were resumed this step. Always empty without a chunk
    /// budget under reserved admission.
    pub prefilling: Vec<u64>,
}

/// A member drained by [`BatchState::retire`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetiredMember {
    /// Caller-assigned id from [`BatchState::admit`].
    pub id: u64,
    /// The member's workload.
    pub workload: Workload,
    /// Output tokens the member produced — always exactly
    /// `workload.output_len` when drained by
    /// [`BatchState::retire`]: early exit means a member stops *when it
    /// is done*, not that it is truncated. Only
    /// [`BatchState::cancel`] returns fewer: the tokens produced before
    /// the cancellation.
    pub tokens: usize,
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

/// Incremental batched executor over one [`Appliance`]: the
/// token-granular API continuous batching schedules against.
///
/// Costs are charged through the same cycle model as the static paths:
/// prefills replay [`Appliance::generate_timed`]'s summarization loop,
/// decode steps run one `token_step` program through
/// [`dfx_core::TimingCore::time_step_batched`] at the live batch size.
/// Every step cost comes from the appliance's step-cost table, keyed by
/// `(position, lm_head, batch)` and shared with the static paths and
/// every other `BatchState` on the appliance, so a stream re-times no
/// program another run already timed
/// ([`Appliance::timed_step_programs`] counts them). Admission funds
/// each member's K/V from one [`BlockPool`] over the appliance's
/// [`memory_model`](Appliance::memory_model) budget — its whole claim
/// by default, its prompt blocks under
/// [`with_kv_paging`](Appliance::with_kv_paging) — and fails with
/// [`SimError::Memory`] when that does not fit.
///
/// # Examples
///
/// ```
/// use dfx_model::{GptConfig, Workload};
/// use dfx_sim::Appliance;
///
/// # fn main() -> Result<(), dfx_sim::SimError> {
/// let appliance = Appliance::timing_only(GptConfig::tiny(), 2)?;
/// let mut batch = appliance.batch_state();
///
/// // Admit one member, decode a token, then admit a second mid-flight.
/// batch.admit(0, Workload::new(8, 4))?;
/// let step = batch.step_token()?;
/// assert_eq!(step.batch, 1);
/// batch.admit(1, Workload::new(4, 2))?;
/// let step = batch.step_token()?;
/// assert_eq!(step.batch, 2);
/// // The short member exits early; the long one keeps decoding.
/// assert_eq!(step.finished, vec![1]);
/// assert_eq!(batch.retire().len(), 1);
/// assert_eq!(batch.live(), 1);
/// # Ok(())
/// # }
/// ```
pub struct BatchState<'a> {
    appliance: &'a Appliance,
    members: Vec<Member>,
    finished: Vec<RetiredMember>,
    elapsed_ms: f64,
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
    /// See [`BatchState`] for the admit / step / retire cycle.
    pub fn batch_state(&self) -> BatchState<'_> {
        BatchState {
            appliance: self,
            members: Vec::new(),
            finished: Vec::new(),
            elapsed_ms: 0.0,
            kv: match self.kv_paging() {
                Some(cfg) => BlockPool::new(self.memory_model(), cfg.block_tokens),
                None => BlockPool::reserved(self.memory_model()),
            },
            prefill_chunk: None,
        }
    }
}

impl BatchState<'_> {
    /// Number of live (admitted, not yet finished) members, including
    /// members whose chunked prefill is still in flight.
    pub fn live(&self) -> usize {
        self.members.len()
    }

    /// Total time charged to the shared timeline so far, ms (prefills
    /// plus decode steps).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ms
    }

    /// The K/V allocator: inspect committed/free budget from outside.
    pub fn kv(&self) -> &BlockPool {
        &self.kv
    }

    /// Paged-K/V run counters, when paged allocation is active.
    pub fn paging_stats(&self) -> Option<PagingStats> {
        self.appliance.kv_paging().map(|_| self.kv.stats())
    }

    /// Sets the prefill chunk budget: admissions charge at most `chunk`
    /// context positions up front and later [`step_token`]s interleave
    /// the remainder with decode, one chunk per step. `None` (the
    /// default) restores whole-prefill admission; a budget at or above
    /// a member's `input_len` is equivalent to it for that member.
    /// Clearing the budget while a chunked prefill is in flight is
    /// allowed: the next step finishes that prefill in one whole chunk.
    ///
    /// [`step_token`]: BatchState::step_token
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is `Some(0)`.
    pub fn set_prefill_chunk(&mut self, chunk: Option<usize>) {
        assert!(chunk != Some(0), "a prefill chunk must be at least 1 token");
        self.prefill_chunk = chunk;
    }

    /// Estimated cost of the full prefill pass over `input_len` context
    /// tokens, ms — the serial stall an unchunked admission would add to
    /// the shared timeline. Charges nothing; sums the same per-position
    /// step costs admission charges.
    pub fn prefill_cost_ms(&self, input_len: usize) -> f64 {
        self.prefill_span_ms(input_len, 0, input_len)
    }

    /// Estimated cost of one decode step at a hypothetical live batch of
    /// `batch` members, ms, positioned at the current largest live
    /// context (or the first decode position when the batch is empty).
    /// Charges nothing; reads the step cost the decode pass charges.
    pub fn decode_step_cost_ms(&self, batch: usize) -> f64 {
        let pos = self
            .members
            .iter()
            .filter(|m| m.decoding())
            .map(|m| m.workload.input_len + m.emitted - 1)
            .max()
            .unwrap_or(1);
        self.decode_cost(pos, batch.max(1))
    }

    fn decode_cost(&self, pos: usize, batch: usize) -> f64 {
        self.appliance
            .step_cycles(pos, true, batch as u32)
            .to_millis()
    }

    /// Charges positions `from..to` of `workload`'s prefill (LM head on
    /// the context's last position and on every generated position — the
    /// latter only arise when a recompute preemption replays decode
    /// output), returning the chunk's cost in ms.
    fn charge_prefill_chunk(&mut self, workload: Workload, from: usize, to: usize) -> f64 {
        let ms = self.prefill_span_ms(workload.input_len, from, to);
        self.elapsed_ms += ms;
        ms
    }

    /// Cost of prefill positions `from..to` over an `input_len`-token
    /// context, ms, without charging it (cycles are summed before the
    /// conversion to ms).
    fn prefill_span_ms(&self, input_len: usize, from: usize, to: usize) -> f64 {
        self.appliance
            .prefill_cycles(input_len, from, to)
            .to_millis()
    }

    /// Moves a member to the finished list, releasing its K/V lease.
    fn finish(&mut self, member: Member) {
        self.kv.release(member.id);
        self.finished.push(RetiredMember {
            id: member.id,
            workload: member.workload,
            tokens: member.emitted,
        });
    }

    /// Cancels live member `id` mid-flight — mid-prefill, parked, or
    /// decoding — releasing its whole K/V lease immediately (a lease is
    /// freed in full however a member exits; see
    /// [`BlockPool::release`]). The member is returned with the tokens it
    /// actually produced and is *not* queued for
    /// [`retire`](BatchState::retire); its id becomes reusable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for an id that is not live.
    pub fn cancel(&mut self, id: u64) -> Result<RetiredMember, SimError> {
        let i = self
            .members
            .iter()
            .position(|m| m.id == id)
            .ok_or_else(|| {
                SimError::InvalidRequest(format!("member {id} is not live, nothing to cancel"))
            })?;
        let member = self.members.remove(i);
        self.kv.release(member.id);
        Ok(RetiredMember {
            id: member.id,
            workload: member.workload,
            tokens: member.emitted,
        })
    }

    /// Admits a member: validates the workload, funds its K/V from the
    /// HBM budget (its whole claim, or under paging its first write's
    /// blocks), charges its prefill pass (or its
    /// first chunk, under [`set_prefill_chunk`]) to the shared timeline
    /// and registers it for decode steps.
    ///
    /// The unchunked prefill replays the summarization stage of
    /// [`Appliance::generate_timed`] (every context token, LM head on
    /// the last), so a member admitted into an empty batch and stepped
    /// to completion costs exactly the sequential run. Admission
    /// requires per-member validity (`input_len + output_len` within the
    /// model cap — there is no joint padded shape) *and* room in the
    /// K/V pool for what admission takes.
    ///
    /// [`set_prefill_chunk`]: BatchState::set_prefill_chunk
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for an empty context, a
    /// workload exceeding the model's maximum sequence length, or an id
    /// already live or awaiting retirement; [`SimError::Memory`] when
    /// the K/V pool cannot fund the admission.
    pub fn admit(&mut self, id: u64, workload: Workload) -> Result<AdmitOutcome, SimError> {
        self.appliance.check_workload(workload)?;
        if workload.output_len == 0 {
            return Err(SimError::InvalidRequest(
                "workload generates nothing (output_len == 0)".into(),
            ));
        }
        if self.members.iter().any(|m| m.id == id) || self.finished.iter().any(|m| m.id == id) {
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
        let prefill_ms = self.charge_prefill_chunk(workload, hit, prefilled);
        if prefilled < workload.input_len {
            self.members.push(Member {
                id,
                workload,
                prefilled,
                prefill_target: workload.input_len,
                emitted: 0,
                parked: None,
            });
            return Ok(AdmitOutcome {
                prefill_ms,
                finished: false,
                pending_prefill: workload.input_len - prefilled,
            });
        }
        // The prefill's LM head produces the first output token.
        let finished = workload.output_len == 1;
        let member = Member {
            id,
            workload,
            prefilled,
            prefill_target: workload.input_len,
            emitted: 1,
            parked: None,
        };
        if finished {
            self.finish(member);
        } else {
            self.members.push(member);
        }
        Ok(AdmitOutcome {
            prefill_ms,
            finished,
            pending_prefill: 0,
        })
    }

    /// Advances the batch by one step: works one chunk of the oldest
    /// in-flight prefill (if any — see
    /// [`set_prefill_chunk`](BatchState::set_prefill_chunk)), then
    /// advances every decoding member by one output token.
    ///
    /// The decode pass runs one `token_step` program through
    /// [`dfx_core::TimingCore::time_step_batched`] at the decoding batch
    /// size, positioned at the largest decoding member's context (the
    /// attention shape the step pads to); every decoding member earns
    /// one output token, and a member completing its prefill earns its
    /// first. Members reaching their requested length are moved to the
    /// retirement list (releasing their K/V claim) and returned in
    /// [`TokenStepOutcome::finished`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] when no members are live.
    pub fn step_token(&mut self) -> Result<TokenStepOutcome, SimError> {
        if self.members.is_empty() {
            return Err(SimError::InvalidRequest(
                "no live members to step (admit first)".into(),
            ));
        }
        let mut ms = 0.0;
        let mut first_tokens = Vec::new();
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
                let swap_ms = dfx_hw::DdrModel::default()
                    .transfer_cycles(bytes)
                    .to_millis();
                ms += swap_ms;
                self.elapsed_ms += swap_ms;
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
            ms += self.charge_prefill_chunk(workload, from, to);
            self.kv.write(id, to - from)?;
            let m = &mut self.members[i];
            m.prefilled = to;
            if m.decoding() {
                if m.emitted == 0 {
                    m.emitted = 1;
                    first_tokens.push(id);
                    if m.workload.output_len == 1 {
                        finished.push(id);
                        let m = self.members.remove(i);
                        self.finish(m);
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
            .filter(|m| m.decoding() && !first_tokens.contains(&m.id) && !resumed.contains(&m.id))
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
            let step_ms = self.decode_cost(pos, decoding.len());
            ms += step_ms;
            self.elapsed_ms += step_ms;
        }

        let mut advanced: Vec<u64> = Vec::new();
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
            advanced.push(id);
            if self.members[i].emitted == self.members[i].workload.output_len {
                let m = self.members.remove(i);
                finished.push(m.id);
                self.finish(m);
            } else {
                i += 1;
            }
        }
        let prefilling: Vec<u64> = self
            .members
            .iter()
            .filter(|m| !advanced.contains(&m.id) && !first_tokens.contains(&m.id))
            .map(|m| m.id)
            .collect();
        Ok(TokenStepOutcome {
            ms,
            batch: advanced.len(),
            finished,
            first_tokens,
            prefilling,
        })
    }

    /// Ensures member `grower` can write `tokens` more positions,
    /// evicting the youngest block-holding co-tenant at a time under the
    /// configured [`PreemptionPolicy`] until the write fits. Decode
    /// growth calls this every token; prefill growth only as a last
    /// resort (see [`step_token`](BatchState::step_token) — an evicting
    /// prefill invites recompute livelock). Returns the DDR swap time
    /// charged (retain policy only); a no-op returning 0 on a reserved
    /// pool, where admission funded the whole claim.
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
                    let swap_ms = dfx_hw::DdrModel::default()
                        .transfer_cycles(bytes)
                        .to_millis();
                    // lint: order-sensitive — simulated-clock accumulation
                    ms += swap_ms;
                    // lint: order-sensitive — simulated-clock accumulation
                    self.elapsed_ms += swap_ms;
                }
            }
        }
    }

    /// Block-granular feasibility of a hypothetical resident set, for
    /// the serving layer's admission probe: `None` without paging (the
    /// caller sums whole claims), `Some(fits)` under it. `members` is the would-be
    /// resident set — live members are matched off by workload.
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
    pub fn resident_kv_fits(&self, members: &[Workload]) -> Option<bool> {
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

    /// Drains every member that has produced its last token, freeing
    /// their slots for subsequent admissions (their K/V claims were
    /// released the moment they finished).
    pub fn retire(&mut self) -> Vec<RetiredMember> {
        std::mem::take(&mut self.finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::GptConfig;

    fn appliance() -> Appliance {
        Appliance::timing_only(GptConfig::tiny(), 2).unwrap()
    }

    /// Runs one workload alone through the incremental API.
    fn solo_ms(a: &Appliance, w: Workload) -> f64 {
        let mut b = a.batch_state();
        b.admit(0, w).unwrap();
        while b.live() > 0 {
            b.step_token().unwrap();
        }
        let retired = b.retire();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].tokens, w.output_len);
        b.elapsed_ms()
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
        let mut tokens = 0usize;
        b.admit(0, ws[0]).unwrap();
        tokens += b.step_token().unwrap().batch;
        b.admit(1, ws[1]).unwrap();
        let mut admitted_third = false;
        while b.live() > 0 {
            tokens += b.step_token().unwrap().batch;
            if !admitted_third {
                b.admit(2, ws[2]).unwrap();
                admitted_third = true;
            }
        }
        let retired = b.retire();
        assert_eq!(retired.len(), 3);
        for r in &retired {
            assert_eq!(r.tokens, r.workload.output_len, "member {} truncated", r.id);
        }
        // One token per member per step, plus the prefill's first token.
        let expect: usize = ws.iter().map(|w| w.output_len).sum();
        assert_eq!(tokens + ws.len(), expect);
    }

    #[test]
    fn short_members_exit_before_long_ones() {
        let a = appliance();
        let mut b = a.batch_state();
        b.admit(0, Workload::new(8, 8)).unwrap();
        b.admit(1, Workload::new(8, 3)).unwrap();
        let mut exit_order = Vec::new();
        while b.live() > 0 {
            exit_order.extend(b.step_token().unwrap().finished);
        }
        assert_eq!(exit_order, vec![1, 0]);
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
        b.admit(0, ws[0]).unwrap();
        b.admit(1, ws[1]).unwrap();
        let mut short_done_ms = None;
        while b.live() > 0 {
            let step = b.step_token().unwrap();
            if step.finished.contains(&1) {
                short_done_ms = Some(b.elapsed_ms());
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
        while b.live() > 0 {
            b.step_token().unwrap();
        }
        assert_eq!(b.retire().len(), 2);
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
        assert!(out.finished);
        assert!(out.prefill_ms > 0.0);
        assert_eq!(out.pending_prefill, 0);
        assert_eq!(b.live(), 0);
        let retired = b.retire();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].tokens, 1);
        // Exactly the sequential cost: generate_timed(6, 1) has no
        // generation stage either.
        let seq = a.generate_timed(6, 1).unwrap().total_latency_ms();
        assert!((b.elapsed_ms() - seq).abs() < 1e-9);
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
        while b.live() > 0 {
            b.step_token().unwrap();
        }
        // The claim is released the moment the member finishes.
        assert_eq!(b.kv().committed_tokens(), 0);
        b.admit(1, Workload::new(8, 4)).unwrap();
        assert_eq!(b.retire().len(), 1);
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

    /// Steps a batch to completion, returning every retired member and
    /// the total tokens observed step by step.
    fn drain(b: &mut BatchState<'_>) -> (Vec<RetiredMember>, usize) {
        let mut tokens = 0;
        while b.live() > 0 {
            let step = b.step_token().unwrap();
            tokens += step.batch + step.first_tokens.len();
        }
        (b.retire(), tokens)
    }

    #[test]
    fn chunked_prefill_produces_token_identical_output() {
        let a = appliance();
        let ws = [Workload::new(24, 6), Workload::new(16, 3)];
        let run = |chunk: Option<usize>| {
            let mut b = a.batch_state();
            b.set_prefill_chunk(chunk);
            let mut tokens = 0;
            for (i, &w) in ws.iter().enumerate() {
                let out = b.admit(i as u64, w).unwrap();
                if out.pending_prefill == 0 {
                    tokens += 1; // the prefill's first token
                }
            }
            let (retired, stepped) = drain(&mut b);
            let mut per_member: Vec<(u64, usize)> =
                retired.iter().map(|r| (r.id, r.tokens)).collect();
            per_member.sort_unstable();
            (per_member, tokens + stepped)
        };
        let unchunked = run(None);
        for chunk in [1, 4, 7, 64] {
            let chunked = run(Some(chunk));
            assert_eq!(
                chunked.0, unchunked.0,
                "chunk {chunk}: member tokens differ"
            );
            assert_eq!(chunked.1, unchunked.1, "chunk {chunk}: total tokens differ");
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
        b.admit(0, w).unwrap();
        while b.live() > 0 {
            b.step_token().unwrap();
        }
        assert_eq!(b.retire().len(), 1);
        let chunked = b.elapsed_ms();
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
        assert_eq!(out.pending_prefill, 0);
        while b.live() > 0 {
            b.step_token().unwrap();
        }
        assert_eq!(b.elapsed_ms(), plain, "bit-identical at a covering budget");
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
        assert!(first_chunk.pending_prefill == 88);
        let whole = a.batch_state();
        let full_prefill = whole.prefill_cost_ms(long.input_len);
        let mut max_step = first_chunk.prefill_ms;
        while b.live() > 0 {
            max_step = max_step.max(b.step_token().unwrap().ms);
        }
        assert_eq!(b.retire().len(), 2);
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
        b.admit(0, Workload::new(8, 6)).unwrap(); // 2 chunks: 4 now, 4 later
        b.admit(1, Workload::new(12, 2)).unwrap(); // 3 chunks: 4 now, 8 later
                                                   // Prefills complete one chunk per step, oldest first; a member
                                                   // mid-prefill produces no tokens and is reported as such.
        let s1 = b.step_token().unwrap();
        assert_eq!(s1.first_tokens, vec![0]); // member 0 completes, emits
        assert_eq!(s1.batch, 0); // nobody was decoding yet
        assert_eq!(s1.prefilling, vec![1]);
        let s2 = b.step_token().unwrap();
        assert_eq!(s2.batch, 1); // member 0 decodes...
        assert_eq!(s2.prefilling, vec![1]); // ...while member 1 prefills
        let s3 = b.step_token().unwrap();
        assert_eq!(s3.first_tokens, vec![1]);
        assert!(s3.prefilling.is_empty());
        // From the next step both decode.
        let s4 = b.step_token().unwrap();
        assert_eq!(s4.batch, 2);
        assert_eq!(s4.finished, vec![1]); // output 2: done one step later
        let (retired, _) = drain(&mut b);
        let mut tokens: Vec<(u64, usize)> = retired.iter().map(|r| (r.id, r.tokens)).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![(0, 6), (1, 2)]);
    }

    #[test]
    fn clearing_the_chunk_budget_mid_prefill_finishes_it_whole() {
        let a = appliance();
        let mut b = a.batch_state();
        b.set_prefill_chunk(Some(4));
        b.admit(0, Workload::new(12, 2)).unwrap();
        b.set_prefill_chunk(None);
        // The next step charges the remaining 8 positions in one chunk,
        // emitting the first token.
        let step = b.step_token().unwrap();
        assert_eq!(step.first_tokens, vec![0]);
        let (retired, _) = drain(&mut b);
        assert_eq!(retired[0].tokens, 2);
    }

    #[test]
    fn estimates_charge_nothing() {
        let a = appliance();
        let mut b = a.batch_state();
        let p = b.prefill_cost_ms(16);
        let d = b.decode_step_cost_ms(4);
        assert!(p > 0.0 && d > 0.0);
        assert_eq!(b.elapsed_ms(), 0.0);
        assert_eq!(b.kv().committed_tokens(), 0);
        // The estimate equals what admission then charges.
        let out = b.admit(0, Workload::new(16, 2)).unwrap();
        assert_eq!(out.prefill_ms, p);
    }
}

//! The K/V allocator: a block table with two admission policies and a
//! prefix cache.
//!
//! Each U280's HBM holds the core's weight shard *and* the growing K/V
//! attention state of every live request (paper §IV-B), so the live
//! batch is bounded by memory, not only by padded shape. [`BlockPool`]
//! brokers that budget for the incremental executor
//! ([`BatchState`](crate::BatchState)). The budget is carved into
//! fixed-size *blocks* of [`block_tokens`](BlockPool::block_tokens)
//! context positions, and every member holds a block table. What
//! admission takes is the pool's policy:
//!
//! - **reserved** ([`BlockPool::reserved`]) — 1-token blocks, and
//!   admission takes the member's whole `input + output` claim up front
//!   (TGI-style budgeting). Writes never allocate, so an admitted member
//!   can never be preempted by a later one, and release returns exactly
//!   the claim however the member exits.
//! - **paged** ([`BlockPool::new`]) — the way vLLM/TGI paged attention
//!   does it (`conceptual/paged_attention`): admission takes only the
//!   blocks the member's *prompt* needs, and decode grows the block
//!   table page by page as positions are actually written. The price is
//!   twofold and both halves are modelled:
//!   - **internal fragmentation** — a member's last block is partially
//!     filled ([`fragmentation_tokens`](BlockPool::fragmentation_tokens)
//!     totals the waste), and the budget's tail that doesn't fill a
//!     whole block is unusable;
//!   - **preemption** — because admission does not cover the worst case,
//!     a [`write`](BlockPool::write) can find the pool exhausted. The
//!     executor then [`evict`](BlockPool::evict)s a victim and either
//!     *recomputes* its K/V later or *retains* it in DDR and swaps it
//!     back ([`PreemptionPolicy`]).
//!
//! On top of paged blocks sits a **prefix cache**: requests that share a
//! common prompt prefix (a chatbot system prompt) share the K/V blocks
//! that lie entirely inside the shared region, ref-counted per sharer.
//! A sharer that finds the blocks cached skips both the redundant
//! *bytes* (no new allocation) and the redundant *prefill compute*
//! (the executor charges nothing for cached positions). Blocks whose
//! last sharer released stay cached — idle but evictable — so the next
//! request with the same prefix still hits.
//!
//! The allocator is pinned by an invariant suite (`tests/kv_paging.rs`):
//! block conservation (`free + cached + owned == total` at every step),
//! exact frees, prefix ref-count soundness and whole-claim reserved
//! leases are enforced by
//! [`assert_invariants`](BlockPool::assert_invariants) under random
//! admit/write/evict/release interleavings on both policies.

use crate::error::SimError;
use dfx_hw::MemoryModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the executor does with a preemption victim's K/V state when a
/// grow request finds the pool exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptionPolicy {
    /// Drop the victim's blocks and re-run its prefill (over everything
    /// it had materialised) when capacity returns — vLLM's recompute
    /// mode. Costs compute, no DDR traffic.
    #[default]
    Recompute,
    /// Swap the victim's blocks out to the device's DDR and stream them
    /// back when capacity returns — vLLM's swap mode. Costs two DDR
    /// transfers ([`dfx_hw::DdrModel`] timing), no recompute.
    Retain,
}

/// Configuration of the paged K/V mode on an
/// [`Appliance`](crate::Appliance) (see
/// [`Appliance::with_kv_paging`](crate::Appliance::with_kv_paging)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedKvConfig {
    /// Block size in context positions (tokens). Smaller blocks track
    /// actual usage more tightly (less fragmentation) at the cost of a
    /// larger block table; a block size at or above every claim
    /// degenerates to one block per member.
    pub block_tokens: usize,
    /// What happens to a victim when a grow finds the pool exhausted.
    pub policy: PreemptionPolicy,
    /// Length, in tokens, of the system prompt every request in the
    /// stream shares (the chatbot deployment model: one fixed system
    /// prompt, per-user suffixes). Zero disables the prefix cache.
    /// Only whole blocks entirely inside the shared region are shared.
    pub shared_prefix_tokens: usize,
}

impl PagedKvConfig {
    /// Paged allocation with `block_tokens`-token blocks, recompute
    /// preemption and no prefix sharing.
    pub fn new(block_tokens: usize) -> Self {
        PagedKvConfig {
            block_tokens,
            policy: PreemptionPolicy::Recompute,
            shared_prefix_tokens: 0,
        }
    }

    /// Selects the preemption policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PreemptionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the prefix cache: every request's first
    /// `min(tokens, input_len)` context positions are the stream's
    /// common system prompt.
    #[must_use]
    pub fn with_shared_prefix(mut self, tokens: usize) -> Self {
        self.shared_prefix_tokens = tokens;
        self
    }
}

/// Identifies a shareable prompt prefix at admission: all members
/// passing the same `key` declare their first `tokens` context
/// positions identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    /// Identity of the shared prompt (equal key ⇒ equal content).
    pub key: u64,
    /// Length of the shared region in tokens; only the whole blocks it
    /// covers are shared.
    pub tokens: usize,
}

/// Counters a paged run accumulates, surfaced per serving run through
/// [`ServiceReport::paging`](../dfx_serve/struct.ServiceReport.html) and
/// the `memory` reproduce id's paged sweep.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PagingStats {
    /// Configured block size, tokens.
    pub block_tokens: usize,
    /// Blocks the pool was carved into (summed across devices when
    /// merged).
    pub total_blocks: usize,
    /// Peak blocks simultaneously unavailable (member-held or cached).
    pub peak_blocks_in_use: usize,
    /// Peak tokens of internal fragmentation (allocated-but-unwritten
    /// tail positions across live members).
    pub peak_fragmentation_tokens: usize,
    /// Prompt tokens served from the prefix cache instead of being
    /// prefilled.
    pub prefix_hit_tokens: usize,
    /// Shareable prompt tokens that had to be computed (cache cold).
    pub prefix_computed_tokens: usize,
    /// Members evicted because a grow found the pool exhausted.
    pub preemptions: usize,
    /// Evictions that swapped K/V to DDR (the [`PreemptionPolicy::Retain`]
    /// path) rather than scheduling a recompute.
    pub swap_outs: usize,
}

impl PagingStats {
    /// Fraction of shareable prompt traffic served from the cache:
    /// `hits / (hits + computed)`, or 0 when no shareable tokens flowed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.prefix_hit_tokens + self.prefix_computed_tokens;
        if total == 0 {
            return 0.0;
        }
        self.prefix_hit_tokens as f64 / total as f64
    }

    /// Accumulates another device's counters (capacities and peaks sum:
    /// the merged stats describe the fleet).
    pub fn merge(&mut self, other: &PagingStats) {
        self.block_tokens = self.block_tokens.max(other.block_tokens);
        self.total_blocks += other.total_blocks;
        self.peak_blocks_in_use += other.peak_blocks_in_use;
        self.peak_fragmentation_tokens += other.peak_fragmentation_tokens;
        self.prefix_hit_tokens += other.prefix_hit_tokens;
        self.prefix_computed_tokens += other.prefix_computed_tokens;
        self.preemptions += other.preemptions;
        self.swap_outs += other.swap_outs;
    }
}

/// One member's block-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockLease {
    /// Worst-case claim in tokens (`input + output`): the solo-fit bound
    /// and the write ceiling; a reserved pool also takes it up front.
    claim_tokens: usize,
    /// Context positions materialised so far (cache hits included).
    used_tokens: usize,
    /// Blocks held exclusively by this member.
    owned_blocks: usize,
    /// Leading cache blocks this member holds a reference on.
    shared_blocks: usize,
    /// Shared-prefix declaration: key and the block-aligned shareable
    /// length in tokens (0 without a prefix).
    prefix_key: u64,
    shareable_tokens: usize,
}

/// A K/V allocator over one device's [`MemoryModel`]: a block table
/// with a reserved or a paged admission policy, preemption support and
/// a ref-counted prefix cache.
///
/// On a paged pool ([`new`](BlockPool::new)), admission
/// ([`admit`](BlockPool::admit)) takes blocks for the member's *first
/// write* (its prompt, or its first prefill chunk) — not its worst case
/// — checking only that the worst case could fit an *empty* pool (solo
/// feasibility, so a lone member can always run to completion).
/// [`write`](BlockPool::write) allocates further blocks as positions are
/// materialised and fails with [`SimError::Memory`] when none are left;
/// the executor resolves that by [`evict`](BlockPool::evict)ing a victim
/// under its [`PreemptionPolicy`].
///
/// On a reserved pool ([`reserved`](BlockPool::reserved)), admission
/// takes the whole claim in 1-token blocks, so writes never allocate and
/// nothing is ever evicted.
///
/// # Examples
///
/// Page-by-page growth and last-partial-block fragmentation:
///
/// ```
/// use dfx_hw::MemoryModel;
/// use dfx_sim::BlockPool;
///
/// // 102 tokens of K/V budget next to the weights → six 16-token blocks.
/// let mut pool = BlockPool::new(MemoryModel::new(2048, 1024, 10), 16);
/// assert_eq!(pool.total_blocks(), 6);
/// // A member claiming 96 tokens worst-case admits on its 40-token
/// // prompt alone: 3 blocks now, nothing reserved for the rest.
/// pool.admit(0, 96, 40, None).unwrap();
/// assert_eq!(pool.free_blocks(), 3);
/// assert_eq!(pool.fragmentation_tokens(), 8); // 48 allocated − 40 written
/// // Decode grows page by page: 8 more tokens fill block 3's tail...
/// pool.write(0, 8).unwrap();
/// assert_eq!(pool.free_blocks(), 3);
/// // ...and the 49th token opens a fourth block.
/// pool.write(0, 1).unwrap();
/// assert_eq!(pool.free_blocks(), 2);
/// // Release frees exactly the blocks the member held.
/// assert_eq!(pool.release(0), 4);
/// assert_eq!(pool.free_blocks(), 6);
/// ```
///
/// Prefix sharing — the second sharer of a system prompt skips the
/// shared blocks' bytes (and the executor skips their compute):
///
/// ```
/// use dfx_hw::MemoryModel;
/// use dfx_sim::{BlockPool, Prefix};
///
/// let mut pool = BlockPool::new(MemoryModel::new(2048, 1024, 10), 16);
/// let sys = Prefix { key: 7, tokens: 32 }; // two whole 16-token blocks
/// // The first sharer computes its whole 40-token prompt, filling the
/// // cache as its writes cross the shared blocks...
/// assert_eq!(pool.admit(0, 48, 40, Some(sys)).unwrap(), 0);
/// // ...so the second sharer's first 32 positions hit.
/// assert_eq!(pool.admit(1, 64, 24, Some(sys)).unwrap(), 32);
/// assert_eq!(pool.stats().hit_rate(), 0.5);
/// // Releasing both sharers leaves the blocks cached (idle, evictable):
/// // a third sharer still hits without any live co-tenant.
/// pool.release(0);
/// pool.release(1);
/// assert_eq!(pool.cached_blocks(), 2);
/// assert_eq!(pool.prefix_hits(sys), 32);
/// ```
#[derive(Debug, Clone)]
pub struct BlockPool {
    memory: MemoryModel,
    block_tokens: usize,
    total_blocks: usize,
    /// Blocks neither member-held nor cached.
    free_blocks: usize,
    leases: BTreeMap<u64, BlockLease>,
    /// Prefix cache: `(key, block index)` → sharer ref-count. Entries
    /// with zero refs stay cached (hits for future sharers) until an
    /// allocation evicts them, oldest first.
    cache: BTreeMap<(u64, usize), usize>,
    /// Cache entries in insertion order (the deterministic eviction
    /// order for idle entries).
    cache_order: Vec<(u64, usize)>,
    stats: PagingStats,
    /// Admission takes the whole claim (1-token blocks, no eviction, no
    /// prefix sharing).
    reserved: bool,
}

impl BlockPool {
    /// An empty paged pool carving `memory`'s K/V budget into
    /// `block_tokens`-token blocks (the budget tail that does not fill
    /// a whole block is unusable — block-table quantisation).
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn new(memory: MemoryModel, block_tokens: usize) -> Self {
        assert!(block_tokens > 0, "a K/V block must hold at least 1 token");
        let total_blocks = memory.max_resident_tokens() as usize / block_tokens;
        BlockPool {
            memory,
            block_tokens,
            total_blocks,
            free_blocks: total_blocks,
            leases: BTreeMap::new(),
            cache: BTreeMap::new(),
            cache_order: Vec::new(),
            stats: PagingStats {
                block_tokens,
                total_blocks,
                ..PagingStats::default()
            },
            reserved: false,
        }
    }

    /// An empty reserved pool over `memory`'s K/V budget: 1-token
    /// blocks, and [`admit`](BlockPool::admit) takes the member's whole
    /// claim up front, so [`write`](BlockPool::write) never allocates.
    /// [`evict`](BlockPool::evict) and prefix-sharing admissions are
    /// refused.
    ///
    /// # Examples
    ///
    /// A claim is taken whole at admission and returned whole at release:
    ///
    /// ```
    /// use dfx_hw::MemoryModel;
    /// use dfx_sim::BlockPool;
    ///
    /// // Room for 102 tokens of K/V next to the weights.
    /// let mut pool = BlockPool::reserved(MemoryModel::new(2048, 1024, 10));
    /// assert_eq!(pool.free_tokens(), 102);
    /// pool.admit(0, 60, 0, None).unwrap();
    /// assert!(pool.admit(1, 60, 0, None).is_err(), "claim exceeds the free budget");
    /// pool.admit(1, 40, 0, None).unwrap();
    /// assert_eq!(pool.release(0), 60);
    /// assert_eq!(pool.free_tokens(), 62);
    /// ```
    pub fn reserved(memory: MemoryModel) -> Self {
        BlockPool {
            reserved: true,
            ..BlockPool::new(memory, 1)
        }
    }

    /// The capacity model the pool allocates against.
    pub fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    /// Block size in tokens.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Blocks the budget was carved into.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Blocks neither member-held nor cached.
    pub fn free_blocks(&self) -> usize {
        self.free_blocks
    }

    /// Cache entries (referenced or idle).
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Idle cache entries: no live sharer, evictable on demand.
    pub fn cached_idle_blocks(&self) -> usize {
        self.cache.values().filter(|&&refs| refs == 0).count()
    }

    /// Blocks an allocation could take right now: free plus evictable.
    pub fn available_blocks(&self) -> usize {
        self.free_blocks + self.cached_idle_blocks()
    }

    /// Blocks needed to hold `tokens` context positions.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Number of live leases.
    pub fn live(&self) -> usize {
        self.leases.len()
    }

    /// Context positions materialised across every live lease.
    pub fn used_tokens(&self) -> usize {
        self.leases.values().map(|l| l.used_tokens).sum()
    }

    /// Tokens of capacity committed right now: every block that is not
    /// free and not idle cache, at block granularity (fragmentation
    /// included — commitment is what nobody else can allocate).
    pub fn committed_tokens(&self) -> usize {
        (self.total_blocks - self.free_blocks - self.cached_idle_blocks()) * self.block_tokens
    }

    /// Tokens still allocatable, at block granularity.
    pub fn free_tokens(&self) -> usize {
        self.available_blocks() * self.block_tokens
    }

    /// Internal fragmentation right now: allocated-but-unwritten
    /// positions summed over every live member's footprint (each
    /// member's last block is partially filled; shared blocks are full
    /// by construction).
    pub fn fragmentation_tokens(&self) -> usize {
        self.leases
            .values()
            .map(|l| (l.owned_blocks + l.shared_blocks) * self.block_tokens - l.used_tokens)
            .sum()
    }

    /// The blocks member `id` holds, as `(owned, shared)` — `None` for
    /// an unknown id.
    pub fn lease_blocks(&self, id: u64) -> Option<(usize, usize)> {
        self.leases
            .get(&id)
            .map(|l| (l.owned_blocks, l.shared_blocks))
    }

    /// Run counters so far (a copy; totals are filled at construction).
    pub fn stats(&self) -> PagingStats {
        self.stats
    }

    /// Leading tokens of `prefix` already in the cache: the run of
    /// consecutive whole blocks from position 0 present under
    /// `prefix.key`. These are the positions a new sharer would neither
    /// allocate nor compute.
    pub fn prefix_hits(&self, prefix: Prefix) -> usize {
        let shareable = prefix.tokens / self.block_tokens;
        let mut hits = 0;
        while hits < shareable && self.cache.contains_key(&(prefix.key, hits)) {
            hits += 1;
        }
        hits * self.block_tokens
    }

    /// Admits member `id` with a worst-case claim of `claim_tokens` and
    /// an immediate write of `first_write` computed positions (its
    /// prompt, or its first prefill chunk — *excluding* positions the
    /// prefix cache already holds). Returns the cache-hit tokens: the
    /// member starts with that many positions already materialised.
    ///
    /// A paged pool takes only the first write's blocks; the claim is a
    /// ceiling checked against the *whole* pool (solo feasibility), not
    /// a reservation. A reserved pool takes the whole claim.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRequest`] for a zero claim, a duplicate id, a
    /// first write past the claim, or a prefix on a reserved pool;
    /// [`SimError::Memory`] when the claim could never fit even an empty
    /// pool, or when admission needs more blocks than are free or
    /// evictable (admission must wait).
    pub fn admit(
        &mut self,
        id: u64,
        claim_tokens: usize,
        first_write: usize,
        prefix: Option<Prefix>,
    ) -> Result<usize, SimError> {
        if claim_tokens == 0 {
            return Err(SimError::InvalidRequest(
                "a K/V lease must claim at least one token".into(),
            ));
        }
        if self.leases.contains_key(&id) {
            return Err(SimError::InvalidRequest(format!(
                "member {id} already holds a K/V lease"
            )));
        }
        if self.blocks_for(claim_tokens) > self.total_blocks {
            return Err(SimError::Memory(format!(
                "a claim of {claim_tokens} tokens needs {} blocks of {}; the whole pool has {}",
                self.blocks_for(claim_tokens),
                self.block_tokens,
                self.total_blocks,
            )));
        }
        if self.reserved && prefix.is_some() {
            return Err(SimError::InvalidRequest(
                "a reserved K/V pool shares no prefix blocks".into(),
            ));
        }
        let (key, shareable_tokens) = match prefix {
            Some(p) => (p.key, (p.tokens / self.block_tokens) * self.block_tokens),
            None => (0, 0),
        };
        let hit_tokens = match prefix {
            Some(p) => self.prefix_hits(p),
            None => 0,
        };
        let hit_blocks = hit_tokens / self.block_tokens;
        if hit_tokens + first_write > claim_tokens {
            return Err(SimError::InvalidRequest(format!(
                "member {id}'s first write of {first_write} tokens (after {hit_tokens} cached) \
                 exceeds its claim of {claim_tokens}"
            )));
        }
        // Attaching pins the hit blocks, so they stop being evictable:
        // count the first write's need against what would remain.
        let idle_hits = (0..hit_blocks)
            .filter(|&i| self.cache.get(&(key, i)) == Some(&0))
            .count();
        let needed = if self.reserved {
            self.blocks_for(claim_tokens)
        } else {
            self.blocks_for(hit_tokens + first_write) - hit_blocks
        };
        if needed > self.available_blocks() - idle_hits {
            return Err(SimError::Memory(format!(
                "admitting member {id} needs {needed} free blocks of {}; only {} are available",
                self.block_tokens,
                self.available_blocks() - idle_hits,
            )));
        }
        for i in 0..hit_blocks {
            let refs = self.cache.get_mut(&(key, i)).ok_or_else(|| {
                SimError::Service(format!(
                    "prefix block ({key:#x}, {i}) vanished mid-admission"
                ))
            })?;
            *refs += 1;
        }
        self.stats.prefix_hit_tokens += hit_tokens;
        let reserved_blocks = if self.reserved { needed } else { 0 };
        self.take_blocks(reserved_blocks);
        self.leases.insert(
            id,
            BlockLease {
                claim_tokens,
                used_tokens: hit_tokens,
                owned_blocks: reserved_blocks,
                shared_blocks: hit_blocks,
                prefix_key: key,
                shareable_tokens,
            },
        );
        if first_write > 0 {
            // Feasibility was checked above, so this only propagates a
            // genuine accounting bug rather than aborting the process.
            self.write_impl(id, first_write, true)?;
        }
        self.note_peaks();
        Ok(hit_tokens)
    }

    /// Whether member `id` could [`write`](BlockPool::write) `tokens`
    /// more positions right now (enough free or evictable blocks, and
    /// within its claim).
    pub fn can_write(&self, id: u64, tokens: usize) -> bool {
        let Some(lease) = self.leases.get(&id) else {
            return false;
        };
        if lease.used_tokens + tokens > lease.claim_tokens {
            return false;
        }
        let needed = self
            .blocks_for(lease.used_tokens + tokens)
            .saturating_sub(lease.owned_blocks + lease.shared_blocks);
        needed <= self.available_blocks()
    }

    /// Records `tokens` K/V positions written by member `id`, allocating
    /// blocks page by page as block boundaries are crossed. Writes that
    /// complete a whole block inside the member's shared-prefix region
    /// publish it to the prefix cache (or, when a concurrent sharer
    /// published it first, drop the duplicate and take a reference).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRequest`] for an unknown id or writes past the
    /// member's claim (an executor bug); [`SimError::Memory`] when the
    /// pool is exhausted — the preemption trigger: nothing changes, the
    /// executor [`evict`](BlockPool::evict)s a victim and retries.
    pub fn write(&mut self, id: u64, tokens: usize) -> Result<(), SimError> {
        self.write_impl(id, tokens, true)
    }

    /// [`write`](BlockPool::write) without prefix-compute accounting:
    /// the swap-in path restores positions from DDR rather than
    /// computing them, so they are neither cache hits nor misses.
    pub fn restore(&mut self, id: u64, tokens: usize) -> Result<(), SimError> {
        self.write_impl(id, tokens, false)
    }

    fn write_impl(&mut self, id: u64, tokens: usize, computed: bool) -> Result<(), SimError> {
        let lease = self.leases.get(&id).copied().ok_or_else(|| {
            SimError::InvalidRequest(format!("member {id} holds no K/V lease to grow"))
        })?;
        let new_used = lease.used_tokens + tokens;
        if new_used > lease.claim_tokens {
            return Err(SimError::Memory(format!(
                "member {id} wrote {new_used} K/V positions past its claim of {}",
                lease.claim_tokens
            )));
        }
        let have = lease.owned_blocks + lease.shared_blocks;
        let delta = self.blocks_for(new_used).saturating_sub(have);
        if delta > self.available_blocks() {
            return Err(SimError::Memory(format!(
                "the block pool is exhausted: member {id} needs {delta} blocks of {}; \
                 {} free, {} evictable — preempt a member or wait for a retirement",
                self.block_tokens,
                self.free_blocks,
                self.cached_idle_blocks(),
            )));
        }
        self.take_blocks(delta);
        let lease = self
            .leases
            .get_mut(&id)
            .ok_or_else(|| SimError::Service(format!("member {id}'s lease vanished mid-write")))?;
        lease.owned_blocks += delta;
        if computed && lease.used_tokens < lease.shareable_tokens {
            self.stats.prefix_computed_tokens +=
                new_used.min(lease.shareable_tokens) - lease.used_tokens;
        }
        lease.used_tokens = new_used;
        // Publish whole blocks completed inside the shared region.
        let (key, shareable) = (lease.prefix_key, lease.shareable_tokens);
        while {
            let l = &self.leases[&id];
            (l.shared_blocks + 1) * self.block_tokens <= l.used_tokens.min(shareable)
        } {
            let idx = self.leases[&id].shared_blocks;
            match self.cache.get_mut(&(key, idx)) {
                Some(refs) => {
                    // A concurrent sharer published this block first:
                    // drop our duplicate copy and reference theirs.
                    *refs += 1;
                    self.free_blocks += 1;
                }
                None => {
                    self.cache.insert((key, idx), 1);
                    self.cache_order.push((key, idx));
                }
            }
            let l = self.leases.get_mut(&id).ok_or_else(|| {
                SimError::Service(format!("member {id}'s lease vanished mid-write"))
            })?;
            l.owned_blocks -= 1;
            l.shared_blocks += 1;
        }
        self.note_peaks();
        Ok(())
    }

    /// Re-attaches an evicted member (zero positions materialised) to
    /// the cached run of its shared prefix, up to `cap` tokens: the
    /// recompute path's head start. Returns the tokens attached (0 for
    /// members without a prefix, or when the cache has gone cold).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRequest`] for an unknown id or a member that
    /// still holds positions.
    pub fn attach_cached_prefix(&mut self, id: u64, cap: usize) -> Result<usize, SimError> {
        let lease =
            self.leases.get(&id).copied().ok_or_else(|| {
                SimError::InvalidRequest(format!("member {id} holds no K/V lease"))
            })?;
        if lease.used_tokens > 0 {
            return Err(SimError::InvalidRequest(format!(
                "member {id} already holds {} positions; only an evicted member re-attaches",
                lease.used_tokens
            )));
        }
        let hit = self
            .prefix_hits(Prefix {
                key: lease.prefix_key,
                tokens: lease.shareable_tokens,
            })
            .min((cap / self.block_tokens) * self.block_tokens);
        for i in 0..hit / self.block_tokens {
            let refs = self.cache.get_mut(&(lease.prefix_key, i)).ok_or_else(|| {
                SimError::Service(format!(
                    "prefix block ({:#x}, {i}) vanished mid-attach",
                    lease.prefix_key
                ))
            })?;
            *refs += 1;
        }
        let l = self
            .leases
            .get_mut(&id)
            .ok_or_else(|| SimError::Service(format!("member {id}'s lease vanished mid-attach")))?;
        l.used_tokens = hit;
        l.shared_blocks = hit / self.block_tokens;
        self.stats.prefix_hit_tokens += hit;
        Ok(hit)
    }

    /// Preempts member `id`: frees its owned blocks, releases its cache
    /// references (the blocks stay cached for future sharers) and
    /// resets it to zero materialised positions — the lease itself
    /// survives, so the member can be recomputed or swapped back in.
    /// Returns `(used_tokens, owned_blocks)` at eviction: what must be
    /// rematerialised, and the footprint a swap would move.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRequest`] for an unknown id, or on a reserved
    /// pool (its leases are never preempted).
    pub fn evict(&mut self, id: u64) -> Result<(usize, usize), SimError> {
        if self.reserved {
            return Err(SimError::InvalidRequest(
                "a reserved K/V pool never evicts".into(),
            ));
        }
        let lease = self.leases.get_mut(&id).ok_or_else(|| {
            SimError::InvalidRequest(format!("member {id} holds no K/V lease to evict"))
        })?;
        let used = lease.used_tokens;
        let owned = lease.owned_blocks;
        let shared = lease.shared_blocks;
        let key = lease.prefix_key;
        lease.used_tokens = 0;
        lease.owned_blocks = 0;
        lease.shared_blocks = 0;
        self.free_blocks += owned;
        for i in 0..shared {
            let refs = self.cache.get_mut(&(key, i)).ok_or_else(|| {
                SimError::Service(format!(
                    "shared block ({key:#x}, {i}) vanished mid-eviction"
                ))
            })?;
            *refs -= 1;
        }
        self.stats.preemptions += 1;
        Ok((used, owned))
    }

    /// Counts a [`PreemptionPolicy::Retain`] eviction that swapped K/V
    /// out to DDR (the executor charges the transfer itself).
    pub(crate) fn record_swap_out(&mut self) {
        self.stats.swap_outs += 1;
    }

    /// Releases member `id`'s lease, freeing its owned blocks and its
    /// cache references — exactly the blocks it held, whether it ran to
    /// completion, exited early, or was cancelled mid-prefill. Shared
    /// blocks whose last reference drops *stay cached* (idle, evictable)
    /// so future sharers still hit. Returns the blocks the member held;
    /// unknown ids free nothing.
    pub fn release(&mut self, id: u64) -> usize {
        match self.leases.remove(&id) {
            Some(lease) => {
                self.free_blocks += lease.owned_blocks;
                for i in 0..lease.shared_blocks {
                    // Release is infallible by contract (unknown ids
                    // free nothing); a lease always references cached
                    // blocks, pinned by its own refcount.
                    let refs = self
                        .cache
                        .get_mut(&(lease.prefix_key, i))
                        // lint: allow(panic-policy, lease refcount pins its cached blocks)
                        .expect("shared block cached");
                    *refs -= 1;
                }
                lease.owned_blocks + lease.shared_blocks
            }
            None => 0,
        }
    }

    /// Takes `n` blocks for allocation; the caller has already checked
    /// `n <= available_blocks()`. Prefers free blocks, then evicts idle
    /// cache entries oldest first.
    fn take_blocks(&mut self, n: usize) {
        while self.free_blocks < n {
            // Private helper: both callers bound `n` by
            // `available_blocks()` (free + idle cached) first, so an
            // idle entry must exist whenever free blocks run short.
            let pos = self
                .cache_order
                .iter()
                .position(|k| self.cache.get(k) == Some(&0))
                // lint: allow(panic-policy, callers bound n by available_blocks)
                .expect("caller checked available_blocks");
            let key = self.cache_order.remove(pos);
            self.cache.remove(&key);
            self.free_blocks += 1;
        }
        self.free_blocks -= n;
    }

    fn note_peaks(&mut self) {
        let in_use = self.total_blocks - self.free_blocks - self.cached_idle_blocks();
        self.stats.peak_blocks_in_use = self.stats.peak_blocks_in_use.max(in_use);
        self.stats.peak_fragmentation_tokens = self
            .stats
            .peak_fragmentation_tokens
            .max(self.fragmentation_tokens());
    }

    /// Validates the allocator's invariants, panicking with a diagnostic
    /// on violation — the anchor the property suite calls after every
    /// operation:
    ///
    /// - **block conservation**: free + cached + Σ owned == total;
    /// - **ref-count soundness**: Σ cache refs == Σ members' shared
    ///   blocks (references never leak or go negative);
    /// - **footprint exactness**: every member holds exactly the blocks
    ///   its materialised positions need, within its claim — on a
    ///   reserved pool, exactly the blocks of its whole claim.
    pub fn assert_invariants(&self) {
        let owned: usize = self.leases.values().map(|l| l.owned_blocks).sum();
        assert_eq!(
            self.free_blocks + self.cache.len() + owned,
            self.total_blocks,
            "block conservation violated: {} free + {} cached + {owned} owned != {} total",
            self.free_blocks,
            self.cache.len(),
            self.total_blocks,
        );
        let refs: usize = self.cache.values().sum();
        let shared: usize = self.leases.values().map(|l| l.shared_blocks).sum();
        assert_eq!(
            refs, shared,
            "prefix ref-counts leaked: {refs} cache refs vs {shared} member shared blocks"
        );
        assert_eq!(
            self.cache.len(),
            self.cache_order.len(),
            "cache eviction order out of sync"
        );
        for (id, l) in &self.leases {
            assert!(
                l.used_tokens <= l.claim_tokens,
                "member {id} wrote past its claim"
            );
            assert!(
                l.shared_blocks * self.block_tokens <= l.used_tokens || l.used_tokens == 0,
                "member {id} shares blocks beyond its writes"
            );
            let footprint = if self.reserved {
                self.blocks_for(l.claim_tokens)
            } else if l.used_tokens == 0 {
                0
            } else {
                self.blocks_for(l.used_tokens)
            };
            assert_eq!(
                l.owned_blocks + l.shared_blocks,
                footprint,
                "member {id} holds {} blocks for {} used tokens",
                l.owned_blocks + l.shared_blocks,
                l.used_tokens,
            );
            for i in 0..l.shared_blocks {
                assert!(
                    self.cache
                        .get(&(l.prefix_key, i))
                        .is_some_and(|&refs| refs >= 1),
                    "member {id}'s shared block {i} is not cached"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool of `blocks` 4-token blocks.
    fn pool(blocks: u64) -> BlockPool {
        BlockPool::new(MemoryModel::new(blocks * 4 + 1, 1, 1), 4)
    }

    #[test]
    fn admission_takes_prompt_blocks_not_the_claim() {
        let mut p = pool(4);
        // Claim 16 (the whole pool), prompt 5 → two blocks now.
        p.admit(0, 16, 5, None).unwrap();
        assert_eq!(p.free_blocks(), 2);
        assert_eq!(p.committed_tokens(), 8);
        // A second member the reserved pool would refuse fits.
        p.admit(1, 8, 4, None).unwrap();
        assert_eq!(p.free_blocks(), 1);
        p.assert_invariants();
    }

    #[test]
    fn solo_infeasible_claims_are_refused_outright() {
        let mut p = pool(4);
        let err = p.admit(0, 17, 4, None).unwrap_err();
        assert!(matches!(err, SimError::Memory(_)), "{err:?}");
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn writes_grow_page_by_page_and_exhaustion_is_reported() {
        let mut p = pool(3);
        p.admit(0, 12, 4, None).unwrap();
        p.admit(1, 8, 4, None).unwrap();
        p.write(0, 2).unwrap(); // 6 used → a second block → pool full
        assert_eq!(p.free_blocks(), 0);
        assert!(p.can_write(0, 2), "block 2's tail still has room");
        assert!(!p.can_write(1, 1), "a new block is needed and none left");
        let err = p.write(1, 1).unwrap_err();
        assert!(matches!(err, SimError::Memory(_)), "{err:?}");
        // Nothing changed on the failed write.
        p.assert_invariants();
        assert_eq!(p.lease_blocks(1), Some((1, 0)));
    }

    #[test]
    fn eviction_frees_blocks_and_keeps_the_lease() {
        let mut p = pool(3);
        p.admit(0, 12, 8, None).unwrap();
        p.admit(1, 4, 4, None).unwrap();
        let (used, owned) = p.evict(1).unwrap();
        assert_eq!((used, owned), (4, 1));
        assert_eq!(p.live(), 2, "the lease survives eviction");
        assert_eq!(p.free_blocks(), 1);
        assert_eq!(p.stats().preemptions, 1);
        // The victim rematerialises later.
        p.write(1, 4).unwrap();
        p.assert_invariants();
    }

    #[test]
    fn release_frees_exactly_what_the_member_held() {
        let mut p = pool(4);
        p.admit(0, 16, 9, None).unwrap(); // 3 blocks
        assert_eq!(p.release(0), 3);
        assert_eq!(p.free_blocks(), 4);
        assert_eq!(p.release(0), 0, "double release frees nothing");
        p.assert_invariants();
    }

    #[test]
    fn shared_prefixes_are_cached_hit_and_evicted_in_order() {
        let mut p = pool(6);
        let sys = Prefix { key: 1, tokens: 8 };
        assert_eq!(p.admit(0, 12, 12, Some(sys)).unwrap(), 0);
        assert_eq!(p.lease_blocks(0), Some((1, 2)));
        // The second sharer hits both prefix blocks: one new block only.
        assert_eq!(p.admit(1, 12, 4, Some(sys)).unwrap(), 8);
        assert_eq!(p.lease_blocks(1), Some((1, 2)));
        assert_eq!(p.free_blocks(), 2);
        p.assert_invariants();
        // Both release: blocks stay cached, idle, and still hit.
        p.release(0);
        p.release(1);
        assert_eq!(p.cached_idle_blocks(), 2);
        assert_eq!(p.prefix_hits(sys), 8);
        // Allocation pressure evicts idle cache, oldest first.
        p.admit(9, 24, 24, None).unwrap();
        assert_eq!(p.cached_blocks(), 0);
        assert_eq!(p.prefix_hits(sys), 0);
        p.assert_invariants();
    }

    #[test]
    fn partial_prefix_blocks_are_never_shared() {
        let mut p = pool(6);
        // A 6-token shared region covers one whole 4-token block; the
        // 2-token tail stays private.
        let sys = Prefix { key: 2, tokens: 6 };
        p.admit(0, 10, 10, Some(sys)).unwrap();
        assert_eq!(p.lease_blocks(0), Some((2, 1)));
        assert_eq!(p.admit(1, 10, 6, Some(sys)).unwrap(), 4);
        p.assert_invariants();
    }

    #[test]
    fn hit_rate_counts_shareable_traffic_only() {
        let mut p = pool(8);
        let sys = Prefix { key: 3, tokens: 8 };
        p.admit(0, 16, 16, Some(sys)).unwrap(); // 8 shareable computed
        p.admit(1, 16, 8, Some(sys)).unwrap(); // 8 hit
        let s = p.stats();
        assert_eq!(s.prefix_computed_tokens, 8);
        assert_eq!(s.prefix_hit_tokens, 8);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_cold_sharers_deduplicate_on_publish() {
        let mut p = pool(8);
        let sys = Prefix { key: 4, tokens: 4 };
        // Both admitted cold (chunked prefill: nothing written yet).
        p.admit(0, 8, 2, Some(sys)).unwrap();
        p.admit(1, 8, 2, Some(sys)).unwrap();
        // Both complete the shared block; the second's copy is dropped.
        p.write(0, 2).unwrap();
        p.write(1, 2).unwrap();
        assert_eq!(p.cached_blocks(), 1);
        assert_eq!(p.lease_blocks(0), Some((0, 1)));
        assert_eq!(p.lease_blocks(1), Some((0, 1)));
        p.assert_invariants();
    }

    // --- Reserved admission -----------------------------------------

    /// A reserved pool with a budget of `tokens` (1 B of weights keeps
    /// the arithmetic trivial: budget = tokens).
    fn reserved(tokens: u64) -> BlockPool {
        BlockPool::reserved(MemoryModel::new(tokens + 1, 1, 1))
    }

    #[test]
    fn reserved_admission_takes_the_whole_claim_and_refusal_changes_nothing() {
        let mut p = reserved(10);
        p.admit(0, 6, 2, None).unwrap();
        assert_eq!(p.committed_tokens(), 6, "the claim, not the 2 written");
        assert_eq!(p.free_tokens(), 4);
        let err = p.admit(1, 5, 0, None).unwrap_err();
        assert!(matches!(err, SimError::Memory(_)), "{err:?}");
        assert_eq!((p.live(), p.free_tokens(), p.used_tokens()), (1, 4, 2));
        p.admit(1, 4, 0, None).unwrap();
        assert_eq!(p.free_tokens(), 0);
        assert!(matches!(p.admit(2, 1, 0, None), Err(SimError::Memory(_))));
        p.assert_invariants();
    }

    #[test]
    fn reserved_release_frees_exactly_the_claim() {
        let mut p = reserved(10);
        p.admit(7, 6, 0, None).unwrap();
        p.write(7, 3).unwrap(); // partial use does not shrink the claim
        assert_eq!(p.release(7), 6);
        assert_eq!(p.free_tokens(), 10);
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.release(7), 0, "double release frees nothing");
        p.assert_invariants();
    }

    #[test]
    fn reserved_release_mid_prefill_frees_the_whole_claim_exactly_once() {
        // The early-cancel path: a member retired between prefill
        // chunks frees its whole claim in one call — not the written
        // prefix — and a second release is a no-op, not a double-free.
        let mut p = reserved(10);
        p.admit(0, 8, 3, None).unwrap();
        assert_eq!(p.release(0), 8, "frees the claim, not the 3 written tokens");
        assert_eq!(p.free_tokens(), 10);
        assert_eq!(p.committed_tokens(), 0);
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.release(0), 0, "second release frees nothing");
        assert!(matches!(p.write(0, 1), Err(SimError::InvalidRequest(_))));
        p.assert_invariants();
    }

    #[test]
    fn reserved_writes_never_allocate_and_are_bounded_by_the_claim() {
        let mut p = reserved(10);
        p.admit(0, 4, 0, None).unwrap();
        p.admit(1, 6, 0, None).unwrap();
        assert_eq!(p.free_blocks(), 0);
        assert!(p.can_write(0, 4), "the claim is already funded");
        p.write(0, 4).unwrap();
        assert!(matches!(p.write(0, 1), Err(SimError::Memory(_))));
        assert!(matches!(p.write(9, 1), Err(SimError::InvalidRequest(_))));
        p.assert_invariants();
    }

    #[test]
    fn reserved_rejects_zero_and_duplicate_claims_evictions_and_prefixes() {
        let mut p = reserved(10);
        assert!(matches!(
            p.admit(0, 0, 0, None),
            Err(SimError::InvalidRequest(_))
        ));
        p.admit(0, 2, 1, None).unwrap();
        assert!(matches!(
            p.admit(0, 2, 0, None),
            Err(SimError::InvalidRequest(_))
        ));
        let sys = Prefix { key: 1, tokens: 4 };
        assert!(matches!(
            p.admit(1, 6, 6, Some(sys)),
            Err(SimError::InvalidRequest(_))
        ));
        assert!(matches!(p.evict(0), Err(SimError::InvalidRequest(_))));
        assert_eq!((p.live(), p.committed_tokens(), p.used_tokens()), (1, 2, 1));
        assert_eq!(p.stats().preemptions, 0);
        p.assert_invariants();
    }

    #[test]
    fn restore_does_not_distort_prefix_accounting() {
        let mut p = pool(4);
        p.admit(0, 8, 8, None).unwrap();
        let (used, _) = p.evict(0).unwrap();
        p.restore(0, used).unwrap();
        assert_eq!(p.stats().prefix_computed_tokens, 0);
        p.assert_invariants();
    }
}

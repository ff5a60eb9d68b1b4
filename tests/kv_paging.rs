//! Allocator invariant suite for the K/V subsystem.
//!
//! Pins the [`BlockPool`] block-table allocator — under both its
//! reserved and its paged admission policy — and its prefix cache with
//! three kinds of guarantees:
//!
//! 1. **Allocator invariants** (property tests): under random
//!    admit/write/evict/restore/release interleavings the pool never
//!    over-commits — free + cached + owned always equals the total
//!    block count — releases free exactly what each member held, and
//!    prefix ref-counts never go negative or leak once every sharer
//!    has retired. A reserved pool holds every lease's whole claim and
//!    refuses evictions and prefixes without changing anything.
//! 2. **Reserved ≡ paged equivalence**: with paging enabled but memory
//!    slack (or a covering block size at bounded capacity, with the
//!    prefix cache off), the paged engine's serving / batching /
//!    continuous / memory behaviour is bit-identical to the reserved
//!    engine — same responses, same timings, same token timelines. On
//!    mixed streams at a tight capacity, the reserved engine's report
//!    never shows more whole claims in flight than the budget holds.
//! 3. **Preemption and prefix semantics** (deterministic): both
//!    recompute and retain preemption complete every member with its
//!    exact requested output, counted from the stepper's events, and a
//!    shared prefix shortens later prefills. (A member released
//!    mid-prefill frees its whole lease: see the block pool's
//!    `reserved_release_mid_prefill_frees_the_whole_claim_exactly_once`.)
//!
//! The property blocks deliberately carry no explicit case count: the
//! vendored proptest honours `PROPTEST_CASES`, which CI raises for
//! this suite.

use dfx::hw::MemoryModel;
use dfx::model::{GptConfig, Workload};
use dfx::serve::{
    chatbot_mix, ArrivalProcess, Batching, ContinuousBatching, Fifo, Scheduler, ServiceReport,
    ServingEngine,
};
use dfx::sim::{
    Appliance, BatchState, BlockPool, ContinuousStepper, PagedKvConfig, PreemptionPolicy, Prefix,
    SimError, StepEvent,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// 1. Allocator invariants under random interleavings
// ---------------------------------------------------------------------

/// One random allocator operation: an opcode, a member selector and a
/// token amount, interpreted modulo whatever is currently legal.
type Op = (u8, usize, usize);

/// Drives a [`BlockPool`] through a random op sequence, asserting the
/// structural invariants after every operation, and returns the ids
/// still live at the end. On a reserved pool, evictions and prefix
/// sharing become attempts that must be refused.
fn drive(pool: &mut BlockPool, ops: &[Op], reserved: bool) -> Result<Vec<u64>, TestCaseError> {
    let total = pool.total_blocks();
    let capacity_tokens = total * pool.block_tokens();
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for &(op, sel, amount) in ops {
        match op {
            // Admit, every third attempt sharing the common prefix.
            0 => {
                let claim = 1 + amount % (capacity_tokens + 2);
                let first_write = amount % (claim + 1);
                let prefix = (sel % 3 == 0 && !reserved).then_some(Prefix {
                    key: 0,
                    tokens: 1 + sel % (claim.max(2) - 1).max(1),
                });
                if pool.admit(next_id, claim, first_write, prefix).is_ok() {
                    live.push(next_id);
                }
                next_id += 1;
            }
            // Grow a live member by a few positions.
            1 if !live.is_empty() => {
                let id = live[sel % live.len()];
                let _ = pool.write(id, 1 + amount % (2 * pool.block_tokens()));
            }
            // A reserved pool refuses evictions and prefixes, unchanged.
            2 if reserved && !live.is_empty() => {
                let id = live[sel % live.len()];
                let before = (
                    pool.live(),
                    pool.free_blocks(),
                    pool.used_tokens(),
                    pool.lease_blocks(id),
                );
                prop_assert!(pool.evict(id).is_err(), "a reserved pool never evicts");
                let prefix = Prefix {
                    key: 0,
                    tokens: 1 + amount,
                };
                prop_assert!(pool.admit(next_id, 1 + amount, 0, Some(prefix)).is_err());
                next_id += 1;
                let after = (
                    pool.live(),
                    pool.free_blocks(),
                    pool.used_tokens(),
                    pool.lease_blocks(id),
                );
                prop_assert_eq!(before, after, "a refused op must change nothing");
            }
            // Preempt a live member (frees owned blocks, derefs shared).
            2 if !live.is_empty() => {
                let id = live[sel % live.len()];
                pool.evict(id).expect("live members always evictable");
            }
            // Re-attach cached prefix blocks after an eviction.
            3 if !live.is_empty() => {
                let id = live[sel % live.len()];
                let _ = pool.attach_cached_prefix(id, 1 + amount % capacity_tokens.max(1));
            }
            // Restore swapped-in positions without compute accounting.
            4 if !live.is_empty() => {
                let id = live[sel % live.len()];
                let _ = pool.restore(id, 1 + amount % pool.block_tokens());
            }
            // Release: must free exactly the blocks the member held.
            5 if !live.is_empty() => {
                let id = live.remove(sel % live.len());
                let held = pool
                    .lease_blocks(id)
                    .map_or(0, |(owned, shared)| owned + shared);
                let free_before = pool.free_blocks();
                let freed = pool.release(id);
                prop_assert_eq!(freed, held, "release must return every held block");
                prop_assert!(
                    pool.free_blocks() >= free_before,
                    "release can only grow the free list"
                );
            }
            _ => {}
        }
        pool.assert_invariants();
        prop_assert_eq!(pool.total_blocks(), total, "capacity is constant");
    }
    Ok(live)
}

proptest! {
    /// Block conservation, exact frees and ref-count soundness under
    /// random interleavings, across block sizes and pool sizes, on
    /// paged and reserved pools.
    #[test]
    fn block_pool_never_overcommits_under_random_interleavings(
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..96), 1..120),
        block_tokens in 1usize..9,
        pool_blocks in 1usize..14,
        reserved in any::<bool>(),
    ) {
        let memory = MemoryModel::new((pool_blocks * block_tokens) as u64 + 1, 1, 1);
        let mut pool = if reserved {
            BlockPool::reserved(memory)
        } else {
            BlockPool::new(memory, block_tokens)
        };
        let total = pool.total_blocks();
        let live = drive(&mut pool, &ops, reserved)?;

        // Drain every survivor: all blocks must come back as free or
        // idle cache entries, with no ref-count left behind.
        for id in live {
            pool.release(id);
        }
        pool.assert_invariants();
        prop_assert_eq!(
            pool.free_blocks() + pool.cached_blocks(),
            total,
            "after every member retires, every block is free or idle cache"
        );
        prop_assert_eq!(
            pool.cached_idle_blocks(),
            pool.cached_blocks(),
            "no sharer left, so no cached block may keep a reference"
        );
        prop_assert_eq!(pool.live(), 0);
        prop_assert_eq!(pool.used_tokens(), 0);
    }
}

// ---------------------------------------------------------------------
// 2. Reserved-fallback equivalence
// ---------------------------------------------------------------------

fn smoke_cfg() -> GptConfig {
    GptConfig::new("kv-paging-smoke", 64, 2, 2, 512, 640)
}

/// Field-wise report equality, ignoring the backend label (the paged
/// appliance advertises its block size) and the paging stats (absent
/// without paging by construction).
fn assert_reports_identical(a: &ServiceReport, b: &ServiceReport, what: &str) {
    assert_eq!(a.responses, b.responses, "{what}: responses diverged");
    assert_eq!(a.makespan_ms, b.makespan_ms, "{what}: makespan diverged");
    assert_eq!(a.p50_sojourn_ms, b.p50_sojourn_ms, "{what}: p50 diverged");
    assert_eq!(a.p99_sojourn_ms, b.p99_sojourn_ms, "{what}: p99 diverged");
    assert_eq!(a.goodput_tps, b.goodput_tps, "{what}: goodput diverged");
    assert_eq!(
        a.peak_live_batch, b.peak_live_batch,
        "{what}: peak live batch diverged"
    );
    assert_eq!(a.p99_itl_ms, b.p99_itl_ms, "{what}: token gap diverged");
}

/// With the default 8 GiB of HBM (memory never binds at chatbot scale)
/// and the prefix cache off, enabling paging changes *nothing*: the
/// serving (FIFO), batching, continuous and chunked-continuous rows
/// are bit-identical to the reserved engine, at a small and at a
/// covering block size.
#[test]
fn paged_engine_is_bit_identical_to_reserved_when_memory_never_binds() {
    let cfg = smoke_cfg();
    let mix = chatbot_mix(24, cfg.max_seq_len);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 50.0,
        seed: 0x5EED,
    };
    type MakeScheduler = fn() -> Box<dyn Scheduler>;
    let schedulers: Vec<(&str, MakeScheduler)> = vec![
        ("serving/fifo", || Box::new(Fifo)),
        ("batching", || Box::new(Batching::new(4, 40.0))),
        ("continuous", || Box::new(ContinuousBatching::new(4))),
        ("continuous/chunked", || {
            Box::new(ContinuousBatching::new(4).with_prefill_chunk(8))
        }),
    ];
    let reserved = Appliance::timing_only(cfg.clone(), 1).unwrap();
    for block_tokens in [16, 512] {
        let paged = Appliance::timing_only(cfg.clone(), 1)
            .unwrap()
            .with_kv_paging(PagedKvConfig::new(block_tokens))
            .unwrap();
        for (what, scheduler) in &schedulers {
            let a = ServingEngine::new(&reserved)
                .with_scheduler(scheduler())
                .run(&mix, &arrivals)
                .unwrap();
            let b = ServingEngine::new(&paged)
                .with_scheduler(scheduler())
                .run(&mix, &arrivals)
                .unwrap();
            assert_reports_identical(&a, &b, &format!("{what} (block {block_tokens})"));
        }
    }
}

/// At a *bounded* capacity, a block size that covers the whole uniform
/// claim (one block per member) makes paged admission degenerate to
/// max-claim reservation: the memory-experiment capacity rows are
/// bit-identical too.
#[test]
fn covering_block_size_is_bit_identical_at_bounded_capacity() {
    let cfg = smoke_cfg();
    let point = Workload::new(cfg.max_seq_len / 2, cfg.max_seq_len / 4);
    let claim_tokens = point.input_len + point.output_len;
    let memory = Appliance::timing_only(cfg.clone(), 1)
        .unwrap()
        .memory_model();
    let stream = vec![point; 8];
    let backlog = ArrivalProcess::Trace(vec![0.0; stream.len()]);
    for claims in [2u64, 3] {
        let capacity =
            memory.weight_bytes + claims * claim_tokens as u64 * memory.kv_bytes_per_token;
        let reserved = Appliance::timing_only(cfg.clone(), 1)
            .unwrap()
            .with_hbm_capacity(capacity)
            .unwrap();
        let paged = Appliance::timing_only(cfg.clone(), 1)
            .unwrap()
            .with_hbm_capacity(capacity)
            .unwrap()
            .with_kv_paging(PagedKvConfig::new(claim_tokens))
            .unwrap();
        let run = |appliance: &Appliance| {
            ServingEngine::new(appliance)
                .with_scheduler(Box::new(ContinuousBatching::new(4)))
                .run(&stream, &backlog)
                .unwrap()
        };
        assert_reports_identical(&run(&reserved), &run(&paged), &format!("{claims} claims"));
    }
}

proptest! {
    /// Token-timeline equivalence at the [`BatchState`] level: the same
    /// admit/step interleaving on a reserved pool and on a paged
    /// pool with ample capacity produces bit-identical [`StepEvent`]s,
    /// admissions and steps alike — same milliseconds, same live
    /// counts, same finish order.
    #[test]
    fn paged_token_timelines_match_reserved_step_for_step(
        workloads in proptest::collection::vec((1usize..24, 1usize..12), 1..6),
        block_tokens in 1usize..40,
        admit_gap in 0usize..3,
    ) {
        let cfg = GptConfig::tiny();
        let reserved = Appliance::timing_only(cfg.clone(), 2).unwrap();
        let paged = Appliance::timing_only(cfg, 2)
            .unwrap()
            .with_kv_paging(PagedKvConfig::new(block_tokens))
            .unwrap();
        let run = |appliance: &Appliance| -> Vec<StepEvent> {
            let mut batch = appliance.batch_state();
            let mut timeline = Vec::new();
            let mut queue = workloads.iter();
            let mut id = 0u64;
            loop {
                for _ in 0..=admit_gap {
                    if let Some(&(input, output)) = queue.next() {
                        timeline.push(batch.admit(id, Workload::new(input, output)).unwrap());
                        id += 1;
                    }
                }
                if batch.live() == 0 {
                    break;
                }
                timeline.push(batch.step_token().unwrap());
                if batch.live() == 0 && queue.len() == 0 {
                    break;
                }
            }
            timeline
        };
        prop_assert_eq!(run(&reserved), run(&paged));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reserved admission on mixed streams, checked from the final
    /// report alone: every request is answered exactly once, and at
    /// every response's start the whole `input + output` claims of the
    /// responses then in flight fit the K/V budget — with and without a
    /// prefill chunk, at a capacity of the largest claim plus slack.
    #[test]
    fn reserved_admission_never_overcommits_on_mixed_streams(
        workloads in proptest::collection::vec((1usize..48, 1usize..32), 2..14),
        gaps_ms in proptest::collection::vec(0usize..6, 14),
        max_batch in 1usize..5,
        chunk in 0usize..12,
        slack in 0u64..40,
    ) {
        let stream: Vec<Workload> =
            workloads.iter().map(|&(i, o)| Workload::new(i, o)).collect();
        let max_claim = stream
            .iter()
            .map(|w| w.input_len + w.output_len)
            .max()
            .unwrap_or(0) as u64;
        let appliance = tight_appliance(max_claim + slack, None);
        let budget = appliance.memory_model().max_resident_tokens() as usize;
        let arrivals: Vec<f64> = gaps_ms[..stream.len()]
            .iter()
            .scan(0.0, |t, &gap| {
                *t += gap as f64;
                Some(*t)
            })
            .collect();
        let scheduler = match chunk {
            0 => ContinuousBatching::new(max_batch),
            c => ContinuousBatching::new(max_batch).with_prefill_chunk(c),
        };
        let report = ServingEngine::new(&appliance)
            .with_scheduler(Box::new(scheduler))
            .run(&stream, &ArrivalProcess::Trace(arrivals))
            .unwrap();
        let mut answered: Vec<u64> = report.responses.iter().map(|r| r.request.id).collect();
        answered.sort_unstable();
        prop_assert_eq!(answered, (0..stream.len() as u64).collect::<Vec<_>>());
        for r in &report.responses {
            let t = r.start_ms;
            let resident: usize = report
                .responses
                .iter()
                .filter(|o| o.start_ms <= t && t < o.finish_ms)
                .map(|o| o.request.workload.input_len + o.request.workload.output_len)
                .sum();
            prop_assert!(
                resident <= budget,
                "at {} ms, {} tokens of claims are in flight over a {}-token budget",
                t,
                resident,
                budget
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. Preemption and prefix sharing semantics
// ---------------------------------------------------------------------

/// A tiny appliance whose HBM holds `tokens` K/V positions next to the
/// weight shard.
fn tight_appliance(tokens: u64, paging: Option<PagedKvConfig>) -> Appliance {
    let cfg = GptConfig::tiny();
    let base = Appliance::timing_only(cfg.clone(), 2).unwrap();
    let memory = base.memory_model();
    let capacity = memory.weight_bytes + tokens * memory.kv_bytes_per_token;
    let capped = Appliance::timing_only(cfg, 2)
        .unwrap()
        .with_hbm_capacity(capacity)
        .unwrap();
    match paging {
        Some(p) => capped.with_kv_paging(p).unwrap(),
        None => capped,
    }
}

/// Admits `workload` as member `id`, keeping its admission event.
fn admit(batch: &mut BatchState, id: u64, workload: Workload) -> (u64, StepEvent) {
    (id, batch.admit(id, workload).unwrap())
}

/// Steps the batch to completion, asserting the pool invariants at
/// every token boundary, and returns `(id, tokens)` per member in
/// finishing order, counted from the [`StepEvent`]s alone: an admission
/// (from `admitted`) earns the joiner's first token unless it is still
/// prefilling, and a step earns one for every live member it does not
/// list as prefilling.
fn drain(batch: &mut BatchState, admitted: &[(u64, StepEvent)]) -> Vec<(u64, usize)> {
    let (mut live, mut finished) = (Vec::new(), Vec::new());
    for (id, ev) in admitted {
        let member = (*id, usize::from(!ev.prefilling.contains(id)));
        if ev.finished.contains(id) {
            finished.push(member);
        } else {
            live.push(member);
        }
    }
    while batch.live() > 0 {
        let ev = batch.step_token().unwrap();
        batch.kv().assert_invariants();
        for (id, tokens) in &mut live {
            *tokens += usize::from(!ev.prefilling.contains(id));
        }
        for id in ev.finished {
            let i = live.iter().position(|m| m.0 == id).expect("a live member");
            finished.push(live.remove(i));
        }
    }
    finished
}

/// Two members whose combined growth exhausts a pool that fits both
/// prompts: recompute preemption must fire at least once and still
/// complete both members with their exact requested output.
#[test]
fn recompute_preemption_completes_every_member_exactly() {
    let appliance = tight_appliance(64, Some(PagedKvConfig::new(4)));
    let mut batch = appliance.batch_state();
    let admitted = [
        admit(&mut batch, 0, Workload::new(20, 30)),
        admit(&mut batch, 1, Workload::new(20, 30)),
    ];
    let mut retired = drain(&mut batch, &admitted);
    retired.sort_unstable();
    assert_eq!(retired, vec![(0, 30), (1, 30)]);
    let stats = batch.kv_stats().unwrap();
    assert!(stats.preemptions >= 1, "growth past 64 tokens must preempt");
    assert_eq!(stats.swap_outs, 0, "recompute never swaps");
}

/// The same exhaustion under the retain policy: the victim parks, swaps
/// back in when room frees, and both members still finish exactly.
#[test]
fn retain_preemption_swaps_out_and_still_completes_exactly() {
    let appliance = tight_appliance(
        64,
        Some(PagedKvConfig::new(4).with_policy(PreemptionPolicy::Retain)),
    );
    let mut batch = appliance.batch_state();
    let admitted = [
        admit(&mut batch, 0, Workload::new(20, 30)),
        admit(&mut batch, 1, Workload::new(20, 30)),
    ];
    let mut retired = drain(&mut batch, &admitted);
    retired.sort_unstable();
    assert_eq!(retired, vec![(0, 30), (1, 30)]);
    let stats = batch.kv_stats().unwrap();
    assert!(stats.swap_outs >= 1, "growth past 64 tokens must swap out");
}

/// A shared system prompt makes the second member's admission cheaper:
/// its cached prefix blocks are attached, not recomputed.
#[test]
fn shared_prefix_skips_recomputing_cached_prompt_blocks() {
    let appliance = tight_appliance(256, Some(PagedKvConfig::new(4).with_shared_prefix(16)));
    let mut batch = appliance.batch_state();
    let first = admit(&mut batch, 0, Workload::new(24, 4));
    let second = admit(&mut batch, 1, Workload::new(24, 4));
    assert!(
        second.1.ms < first.1.ms,
        "cached prefix must shorten the second prefill ({} !< {})",
        second.1.ms,
        first.1.ms
    );
    let stats = batch.kv_stats().unwrap();
    assert_eq!(stats.prefix_hit_tokens, 16, "whole shared blocks re-used");
    let mut retired = drain(&mut batch, &[first, second]);
    retired.sort_unstable();
    assert_eq!(retired, vec![(0, 4), (1, 4)]);
}

/// Paged admission is block-granular: a second member fits by its
/// prompt where max-claim reservation has no room left, while a claim
/// that cannot fit even a solo member is still rejected outright.
#[test]
fn paged_admission_is_strictly_more_admissive_than_reservation() {
    let reserved = tight_appliance(64, None);
    let mut batch = reserved.batch_state();
    batch.admit(0, Workload::new(20, 30)).unwrap();
    assert!(
        matches!(
            batch.admit(1, Workload::new(20, 30)),
            Err(SimError::Memory(_))
        ),
        "reserved: 2 x 50-token claims exceed 64 tokens"
    );

    let paged = tight_appliance(64, Some(PagedKvConfig::new(4)));
    let mut batch = paged.batch_state();
    batch.admit(0, Workload::new(20, 30)).unwrap();
    batch
        .admit(1, Workload::new(20, 30))
        .expect("paged: both 20-token prompts fit in 16 blocks");
    assert!(
        matches!(
            batch.admit(2, Workload::new(40, 30)),
            Err(SimError::Memory(_))
        ),
        "a 70-token claim can never fit 64 tokens solo"
    );
}

proptest! {
    /// Chunked prefill composed with paging is token-identical to the
    /// unchunked paged engine: every member retires with exactly its
    /// requested output regardless of chunk budget, block size or a
    /// pool tight enough to preempt.
    #[test]
    fn chunked_and_unchunked_paged_prefill_are_token_identical(
        workloads in proptest::collection::vec((2usize..20, 1usize..10), 1..5),
        chunk in 1usize..16,
        block_tokens in 1usize..8,
        pool_tokens in 48u64..128,
    ) {
        let run = |chunk: Option<usize>| -> Vec<(u64, usize)> {
            let appliance =
                tight_appliance(pool_tokens, Some(PagedKvConfig::new(block_tokens)));
            let mut batch = appliance.batch_state();
            let total_blocks = batch.kv().total_blocks();
            batch.set_prefill_chunk(chunk);
            // Admit the same member set on both sides: a chunked admit
            // writes a smaller first chunk than an unchunked one, so
            // only admissions whose *whole prompt* fits next to the
            // prompts already admitted are attempted — the remaining
            // failure mode (a solo-unfit claim) depends only on the
            // claim and rejects identically regardless of chunking.
            let mut prompt_blocks = 0usize;
            let mut admitted = Vec::new();
            for (i, &(input, output)) in workloads.iter().enumerate() {
                let need = input.div_ceil(block_tokens);
                if prompt_blocks + need > total_blocks {
                    continue;
                }
                if let Ok(ev) = batch.admit(i as u64, Workload::new(input, output)) {
                    prompt_blocks += need;
                    admitted.push((i as u64, ev));
                }
            }
            let mut retired = drain(&mut batch, &admitted);
            retired.sort_unstable();
            retired
        };
        prop_assert_eq!(run(Some(chunk)), run(None));
    }
}

//! Shared-system-prompt chatbot serving on the paged K/V allocator.
//!
//! A chatbot fleet typically prepends the same system prompt to every
//! conversation. With max-claim reservation each request recomputes
//! that prefix and holds private K/V for it; with the paged allocator
//! ([`dfx::sim::BlockPool`]) the prefix's whole blocks live once in a
//! ref-counted cache — later requests attach them instead of
//! recomputing, skipping both the prefill work and the K/V bytes.
//!
//! This example walks a small chatbot mix through the batch engine at a
//! tight HBM capacity, printing block occupancy as members join and
//! retire, then compares reserved vs paged vs paged+prefix end to end
//! and reports the cache hit rate.
//!
//! ```sh
//! cargo run --release --example prefix_cache
//! ```

use dfx::model::{GptConfig, Workload};
use dfx::serve::{chatbot_mix, ArrivalProcess, ContinuousBatching, ServingEngine};
use dfx::sim::{Appliance, ContinuousStepper, PagedKvConfig, PreemptionPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = GptConfig::gpt2_345m();
    let system_prompt = 32; // tokens every conversation starts with
    let block_tokens = 16;

    // A capacity tight enough that the allocator matters: room for
    // ~4 concurrent 128-token chatbot claims next to the weight shard.
    let base = Appliance::timing_only(cfg.clone(), 1)?;
    let memory = base.memory_model();
    let capacity = memory.weight_bytes + 4 * 128 * memory.kv_bytes_per_token;
    let capped = || -> Result<Appliance, Box<dyn std::error::Error>> {
        Ok(Appliance::timing_only(cfg.clone(), 1)?.with_hbm_capacity(capacity)?)
    };

    // --- 1. Block occupancy, member by member -------------------------
    let paging = PagedKvConfig::new(block_tokens)
        .with_policy(PreemptionPolicy::Retain)
        .with_shared_prefix(system_prompt);
    let appliance = capped()?.with_kv_paging(paging)?;
    let mut batch = appliance.batch_state();
    let pool_blocks = batch.kv().total_blocks();
    println!(
        "paged pool: {pool_blocks} blocks of {block_tokens} tokens, {system_prompt}-token \
         shared system prompt\n"
    );
    println!(
        "{:<28} {:>6} {:>7} {:>7} {:>9}",
        "event", "live", "free", "cached", "hit toks"
    );
    let occupancy = |batch: &dfx::sim::BatchState, event: &str| {
        let pool = batch.kv();
        let stats = pool.stats();
        println!(
            "{:<28} {:>6} {:>7} {:>7} {:>9}",
            event,
            pool.live(),
            pool.free_blocks(),
            pool.cached_blocks(),
            stats.prefix_hit_tokens,
        );
    };
    let conversations = [
        Workload::new(48, 16),
        Workload::new(64, 24),
        Workload::new(48, 8),
        Workload::new(96, 16),
    ];
    for (id, w) in conversations.iter().enumerate() {
        batch.admit(id as u64, *w)?;
        occupancy(&batch, &format!("admit #{id} {w}"));
    }
    while batch.live() > 0 {
        for id in batch.step_token()?.finished {
            let tokens = conversations[id as usize].output_len;
            occupancy(&batch, &format!("retire #{id} ({tokens} tokens)"));
        }
    }
    occupancy(&batch, "drained (prefix stays cached)");
    let stats = batch.kv_stats().unwrap();
    println!(
        "\nprefix cache: {} prompt tokens attached from cache, {} computed -> {:.0}% hit rate\n",
        stats.prefix_hit_tokens,
        stats.prefix_computed_tokens,
        stats.hit_rate() * 100.0
    );

    // --- 2. Reserved vs paged vs paged+prefix, end to end -------------
    let mix = chatbot_mix(48, cfg.max_seq_len);
    let backlog = ArrivalProcess::Trace(vec![0.0; mix.len()]);
    let run = |appliance: &Appliance| {
        ServingEngine::new(appliance)
            .with_scheduler(Box::new(ContinuousBatching::new(8)))
            .run(&mix, &backlog)
    };
    println!(
        "{:<16} {:>10} {:>14} {:>9} {:>9}",
        "allocator", "peak batch", "goodput tok/s", "preempt", "hit rate"
    );
    let retain = PagedKvConfig::new(block_tokens).with_policy(PreemptionPolicy::Retain);
    let setups = [
        ("reserved", None),
        ("paged", Some(retain)),
        (
            "paged+prefix",
            Some(retain.with_shared_prefix(system_prompt)),
        ),
    ];
    let mut baseline = 0.0;
    for (label, paging) in setups {
        let appliance = match paging {
            Some(p) => capped()?.with_kv_paging(p)?,
            None => capped()?,
        };
        let report = run(&appliance)?;
        let hit = report
            .paging
            .map_or("-".to_string(), |s| format!("{:.0}%", s.hit_rate() * 100.0));
        let preempt = report
            .paging
            .map_or("-".to_string(), |s| s.preemptions.to_string());
        let vs = if baseline == 0.0 {
            baseline = report.goodput_tps;
            String::new()
        } else {
            format!(
                "  ({:+.1}% vs reserved)",
                100.0 * (report.goodput_tps / baseline - 1.0)
            )
        };
        println!(
            "{:<16} {:>10} {:>14.1} {:>9} {:>9}{vs}",
            label, report.peak_live_batch, report.goodput_tps, preempt, hit
        );
    }
    Ok(())
}

//! Memory-subsystem experiment: HBM capacity as the continuous-batching
//! admission constraint, and chunked prefill as the stall cure.
//!
//! Not a paper figure — the paper's appliance serves batch-1, so its 8 GB
//! of HBM per U280 (§IV-A) only ever holds the weight shard plus *one*
//! request's K/V cache. The moment the serving layer batches
//! continuously, every live request claims `kv bytes/token × (input +
//! output)` next to the weights, and capacity — not padded shape —
//! bounds the live batch ([`Backend::memory`],
//! [`dfx_sim::BlockPool`](dfx_sim::BlockPool)). This experiment measures that
//! memory layer end to end on the DFX appliance, in four sweeps:
//!
//! 1. **HBM capacity × saturating backlog** — the peak live batch
//!    tracks how many K/V claims fit next to the weight shard, not the
//!    scheduler's max batch;
//! 2. **prefill chunk budget × arrival rate** — chunking a joiner's
//!    prefill into token budgets interleaved with decode
//!    ([`ContinuousBatching::with_prefill_chunk`]) cuts the p99
//!    inter-token stall running members feel, at equal goodput (the
//!    same total work, redistributed);
//! 3. **admission policy** — prefill-aware deferral
//!    ([`ContinuousBatching::with_slo`]) vs greedy admission under
//!    load: the guard refuses joins whose prefill stall would blow the
//!    running members' deadlines;
//! 4. **paged vs reserved admission** — at equal (tight) HBM, the
//!    block pool's paged policy admits on prompt *blocks* and grows
//!    page-by-page instead of reserving the full input+output claim up
//!    front, recovering live batch and goodput;
//!    with a shared system prompt, the ref-counted prefix cache skips
//!    redundant prefill and the sweep reports the hit rate.
//!
//! Knobs: model/devices, request count, the capacity grid (in
//! concurrent chatbot-claims), the chunk-budget grid, the rate grid and
//! the continuous max batch. With the real 8 GiB capacity and no chunk
//! budget, every number in the `serving`/`batching`/`continuous`
//! experiments is unchanged — the in-module identity test pins that.
//!
//! [`Backend::memory`]: dfx_serve::Backend::memory
//! [`ContinuousBatching::with_prefill_chunk`]:
//!     dfx_serve::ContinuousBatching::with_prefill_chunk
//! [`ContinuousBatching::with_slo`]: dfx_serve::ContinuousBatching::with_slo

use crate::table::{fmt, ExperimentReport, MdTable};
use dfx_model::{GptConfig, Workload};
use dfx_serve::{
    chatbot_mix, ArrivalProcess, Backend, ContinuousBatching, Scheduler, ServingEngine,
};
use dfx_sim::{Appliance, PagedKvConfig, PreemptionPolicy, SimError};

/// The uniform per-request shape of the capacity sweep: the paper's
/// chatbot point, clamped for short-context smoke configurations.
fn claim_point(cfg: &GptConfig) -> Workload {
    let w = Workload::chatbot();
    if w.input_len + w.output_len > cfg.max_seq_len {
        Workload::new(cfg.max_seq_len / 2, cfg.max_seq_len / 4)
    } else {
        w
    }
}

/// Runs the three sweeps on one model/cluster setup. `capacity_claims`
/// lists HBM capacities as "weight shard + k concurrent chatbot-point
/// K/V claims"; `chunk_budgets` the prefill chunk sizes (tokens) swept
/// against unchunked admission; `max_batch` bounds the continuous live
/// batch everywhere.
///
/// # Errors
///
/// Fails when the setup is invalid: an indivisible device count, or a
/// capacity that cannot hold the weight shard.
pub fn run_setup(
    cfg: GptConfig,
    devices: usize,
    n_requests: usize,
    capacity_claims: &[usize],
    chunk_budgets: &[usize],
    rates_per_s: &[f64],
    max_batch: usize,
) -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "memory",
        "HBM/KV memory subsystem: capacity-bounded admission and chunked prefill",
    );
    let dfx = Appliance::timing_only(cfg.clone(), devices)?;
    let memory = dfx.memory_model();
    let point = claim_point(&cfg);
    let claim_tokens = (point.input_len + point.output_len) as u64;
    report.note(format!(
        "{} per device: {:.0} MiB weight shard resident in {:.1} GiB of HBM, {:.1} KiB of K/V \
         per context token ({} tokens of K/V budget). Every live request claims its full \
         input+output K/V up front (admission fails when it does not fit), so capacity bounds \
         the live batch; chunked prefill then bounds the decode stall an admission injects.",
        Backend::name(&dfx),
        memory.weight_bytes as f64 / (1 << 20) as f64,
        memory.capacity_bytes as f64 / (1 << 30) as f64,
        memory.kv_bytes_per_token as f64 / 1024.0,
        memory.max_resident_tokens(),
    ));

    // --- 1. Capacity sweep: HBM size caps the live batch -------------
    let mut cap_table = MdTable::new(
        format!(
            "Capacity sweep: {n_requests} saturating {point} requests, continuous max batch \
             {max_batch}; the peak live batch tracks how many {claim_tokens}-token K/V claims \
             fit next to the weight shard"
        ),
        &[
            "HBM GiB",
            "KV budget (tokens)",
            "claims that fit",
            "peak live batch",
            "p99 ms",
            "goodput tok/s",
        ],
    );
    let stream = vec![point; n_requests];
    let backlog = ArrivalProcess::Trace(vec![0.0; n_requests]);
    // Each capacity cell builds its own appliance and engine, so the
    // cells fan out over the work-stealing pool; `par_map` returns
    // rows in sweep order, keeping the table bit-identical.
    let cap_rows = rayon_lite::par_map(capacity_claims, |&claims| {
        let capacity =
            memory.weight_bytes + claims as u64 * claim_tokens * memory.kv_bytes_per_token;
        let capped = Appliance::timing_only(cfg.clone(), devices)?.with_hbm_capacity(capacity)?;
        let r = ServingEngine::new(&capped)
            .with_scheduler(Box::new(ContinuousBatching::new(max_batch)))
            .run(&stream, &backlog)?;
        Ok::<_, SimError>(vec![
            fmt(capacity as f64 / (1 << 30) as f64, 3),
            capped.memory_model().max_resident_tokens().to_string(),
            claims.to_string(),
            r.peak_live_batch.to_string(),
            fmt(r.p99_sojourn_ms, 0),
            fmt(r.goodput_tps, 1),
        ])
    });
    for row in cap_rows {
        cap_table.push_row(row?);
    }
    let r = ServingEngine::new(&dfx)
        .with_scheduler(Box::new(ContinuousBatching::new(max_batch)))
        .run(&stream, &backlog)?;
    cap_table.push_row(vec![
        fmt(memory.capacity_bytes as f64 / (1 << 30) as f64, 3),
        memory.max_resident_tokens().to_string(),
        "unbounded".into(),
        r.peak_live_batch.to_string(),
        fmt(r.p99_sojourn_ms, 0),
        fmt(r.goodput_tps, 1),
    ]);
    report.table(cap_table);

    // --- 2. Chunked prefill: stall vs goodput -------------------------
    let mut chunk_table = MdTable::new(
        format!(
            "Chunked prefill: {n_requests} chatbot-mix requests at the default 8 GiB, \
             continuous max batch {max_batch}; the p99 inter-token gap is the decode stall \
             running members feel when a joiner prefills"
        ),
        &[
            "arrival/s",
            "prefill chunk",
            "p99 token gap ms",
            "p50 ms",
            "p99 ms",
            "goodput tok/s",
        ],
    );
    let mix = chatbot_mix(n_requests, cfg.max_seq_len);
    // Every (rate, chunk) cell runs its own engine: fan out, collect
    // rows in sweep order.
    let mut chunk_cells: Vec<(f64, Option<usize>)> = Vec::new();
    for &rate_per_s in rates_per_s {
        chunk_cells.push((rate_per_s, None));
        for &chunk in chunk_budgets {
            chunk_cells.push((rate_per_s, Some(chunk)));
        }
    }
    let chunk_rows = rayon_lite::par_map(&chunk_cells, |&(rate_per_s, chunk)| {
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s,
            seed: 0x5EED,
        };
        let (label, scheduler): (String, Box<dyn Scheduler>) = match chunk {
            None => ("whole".into(), Box::new(ContinuousBatching::new(max_batch))),
            Some(chunk) => (
                chunk.to_string(),
                Box::new(ContinuousBatching::new(max_batch).with_prefill_chunk(chunk)),
            ),
        };
        let r = ServingEngine::new(&dfx)
            .with_scheduler(scheduler)
            .run(&mix, &arrivals)?;
        Ok::<_, SimError>(vec![
            fmt(rate_per_s, 2),
            label,
            fmt(r.p99_itl_ms, 1),
            fmt(r.p50_sojourn_ms, 0),
            fmt(r.p99_sojourn_ms, 0),
            fmt(r.goodput_tps, 1),
        ])
    });
    for row in chunk_rows {
        chunk_table.push_row(row?);
    }
    report.table(chunk_table);

    // --- 3. Admission policy: greedy vs prefill-aware -----------------
    let rate_per_s = rates_per_s.last().copied().unwrap_or(1.0);
    let slo_ms = 4.0 * dfx.serve(point)?.total_ms();
    let mut policy_table = MdTable::new(
        format!(
            "Admission policy at {rate_per_s} req/s: greedy admission vs prefill-aware \
             deferral (SLO {slo_ms:.0} ms from arrival) vs deferral + chunking"
        ),
        &[
            "policy",
            "p99 token gap ms",
            "p50 ms",
            "p99 ms",
            "goodput tok/s",
        ],
    );
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s,
        seed: 0x5EED,
    };
    let chunk = chunk_budgets.first().copied();
    let mut policies: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("greedy", Box::new(ContinuousBatching::new(max_batch))),
        (
            "slo-deferral",
            Box::new(ContinuousBatching::new(max_batch).with_slo(slo_ms)),
        ),
    ];
    if let Some(chunk) = chunk {
        policies.push((
            "slo + chunk",
            Box::new(
                ContinuousBatching::new(max_batch)
                    .with_slo(slo_ms)
                    .with_prefill_chunk(chunk),
            ),
        ));
    }
    for (label, scheduler) in policies {
        let r = ServingEngine::new(&dfx)
            .with_scheduler(scheduler)
            .run(&mix, &arrivals)?;
        policy_table.push_row(vec![
            label.into(),
            fmt(r.p99_itl_ms, 1),
            fmt(r.p50_sojourn_ms, 0),
            fmt(r.p99_sojourn_ms, 0),
            fmt(r.goodput_tps, 1),
        ]);
    }
    report.table(policy_table);

    // --- 4. Paged vs reserved K/V at equal HBM ------------------------
    // Block size and system-prompt length for the paged configurations.
    // The chatbot mix's largest claim is 288 tokens (2.25 chatbot
    // points), so 3 claim-points is the tightest capacity at which the
    // reserved allocator can still admit every request solo.
    let block_tokens = 16;
    let shared_prefix = 32;
    let paged_claims = [3usize, 4, 6];
    let mut paged_table = MdTable::new(
        format!(
            "Paged vs reserved K/V at equal HBM: {n_requests} saturating chatbot-mix requests, \
             continuous max batch {max_batch}; reserved admission claims the full input+output \
             up front, paged admission ({block_tokens}-token blocks) gates on prompt blocks and \
             grows page-by-page, preempting on exhaustion"
        ),
        &[
            "HBM (claims)",
            "allocator",
            "peak live batch",
            "preempt",
            "prefix hit",
            "p99 ms",
            "goodput tok/s",
            "vs reserved",
        ],
    );
    let backlog_mix = ArrivalProcess::Trace(vec![0.0; mix.len()]);
    // The "vs reserved" column ties each allocator row to the reserved
    // goodput of the *same* claims group, so a group is the unit of
    // parallelism: its four allocator runs stay sequential inside one
    // worker, groups fan out, and the cross-group headline maxima fold
    // afterwards in group order (bit-identical to the serial sweep).
    struct PagedGroup {
        rows: Vec<Vec<String>>,
        retain_gain: f64,
        prefix_gain: f64,
        prefix_hit: f64,
    }
    let groups = rayon_lite::par_map(&paged_claims, |&claims| {
        let capacity =
            memory.weight_bytes + claims as u64 * claim_tokens * memory.kv_bytes_per_token;
        let capped = || Appliance::timing_only(cfg.clone(), devices)?.with_hbm_capacity(capacity);
        let allocators: Vec<(&str, Appliance)> = vec![
            ("reserved", capped()?),
            (
                "paged/recompute",
                capped()?.with_kv_paging(PagedKvConfig::new(block_tokens))?,
            ),
            (
                "paged/retain",
                capped()?.with_kv_paging(
                    PagedKvConfig::new(block_tokens).with_policy(PreemptionPolicy::Retain),
                )?,
            ),
            (
                "paged/retain+prefix",
                capped()?.with_kv_paging(
                    PagedKvConfig::new(block_tokens)
                        .with_policy(PreemptionPolicy::Retain)
                        .with_shared_prefix(shared_prefix),
                )?,
            ),
        ];
        let mut group = PagedGroup {
            rows: Vec::new(),
            retain_gain: 0.0,
            prefix_gain: 0.0,
            prefix_hit: 0.0,
        };
        let mut reserved_goodput = 0.0;
        for (label, appliance) in &allocators {
            let r = ServingEngine::new(appliance)
                .with_scheduler(Box::new(ContinuousBatching::new(max_batch)))
                .run(&mix, &backlog_mix)?;
            let (preempt, hit) = match &r.paging {
                Some(s) => (
                    s.preemptions.to_string(),
                    format!("{:.1}%", s.hit_rate() * 100.0),
                ),
                None => ("-".into(), "-".into()),
            };
            let vs = if *label == "reserved" {
                reserved_goodput = r.goodput_tps;
                "-".into()
            } else {
                let gain = 100.0 * (r.goodput_tps / reserved_goodput - 1.0);
                match *label {
                    "paged/retain" => group.retain_gain = gain,
                    "paged/retain+prefix" => {
                        group.prefix_gain = gain;
                        group.prefix_hit = r.paging.as_ref().map_or(0.0, |s| s.hit_rate());
                    }
                    _ => {}
                }
                format!("{gain:+.1}%")
            };
            group.rows.push(vec![
                claims.to_string(),
                (*label).into(),
                r.peak_live_batch.to_string(),
                preempt,
                hit,
                fmt(r.p99_sojourn_ms, 0),
                fmt(r.goodput_tps, 1),
                vs,
            ]);
        }
        Ok::<_, SimError>(group)
    });
    let mut headline: Option<(f64, f64, f64)> = None;
    for group in groups {
        let group = group?;
        for row in group.rows {
            paged_table.push_row(row);
        }
        let h = headline.get_or_insert((group.retain_gain, 0.0, 0.0));
        h.0 = h.0.max(group.retain_gain);
        h.1 = h.1.max(group.prefix_gain);
        h.2 = h.2.max(group.prefix_hit);
    }
    report.table(paged_table);
    if let Some((gain, prefix_gain, hit)) = headline {
        report.note(format!(
            "Paged allocation ({block_tokens}-token blocks, retain preemption) recovers up to \
             {gain:+.1}% goodput over max-claim reservation at equal HBM; sharing a \
             {shared_prefix}-token system prompt through the prefix cache lifts that to \
             {prefix_gain:+.1}% with {:.1}% of shared-prefix prompt tokens served from cached \
             blocks instead of recomputed.",
            hit * 100.0,
        ));
    }
    Ok(report)
}

/// The headline sweep: GPT-2 1.5B on 4 FPGAs — capacities holding 1 to
/// 16 concurrent chatbot claims next to the ~0.7 GiB weight shard,
/// prefill chunks of 16 and 64 tokens, the serving experiments' rate
/// grid, continuous max batch 16.
pub fn run() -> Result<ExperimentReport, SimError> {
    run_setup(
        GptConfig::gpt2_1_5b(),
        4,
        96,
        &[1, 2, 4, 8, 16],
        &[16, 64],
        &[0.5, 1.0, 2.0],
        16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> GptConfig {
        GptConfig::new("memory-smoke", 64, 2, 2, 512, 640)
    }

    #[test]
    fn the_peak_live_batch_tracks_the_hbm_capacity() {
        // The acceptance shape of sweep 1: under a saturating backlog
        // the peak live batch equals the number of claims that fit,
        // up to the scheduler's max batch.
        let report = run_setup(smoke_cfg(), 1, 12, &[1, 2, 4], &[8], &[50.0], 4).unwrap();
        let rows = &report.tables[0].rows;
        assert_eq!(rows.len(), 4); // 3 capacities + unbounded
        for (row, want) in rows.iter().zip(["1", "2", "4", "4"]) {
            assert_eq!(row[3], want, "claims {} -> peak {}", row[2], row[3]);
        }
    }

    #[test]
    fn chunked_prefill_cuts_the_stall_at_equal_goodput() {
        // The acceptance criterion of sweep 2, asserted on the raw
        // reports: a chunk budget strictly improves the p99 inter-token
        // gap while goodput stays within 5%.
        let cfg = smoke_cfg();
        let dfx = Appliance::timing_only(cfg.clone(), 1).unwrap();
        let mix = chatbot_mix(24, cfg.max_seq_len);
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 200.0,
            seed: 0x5EED,
        };
        let run = |scheduler: Box<dyn Scheduler>| {
            ServingEngine::new(&dfx)
                .with_scheduler(scheduler)
                .run(&mix, &arrivals)
                .unwrap()
        };
        let whole = run(Box::new(ContinuousBatching::new(4)));
        let chunked = run(Box::new(ContinuousBatching::new(4).with_prefill_chunk(8)));
        assert!(
            chunked.p99_itl_ms < whole.p99_itl_ms,
            "chunked p99 gap {} !< whole {}",
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
    fn paged_allocation_recovers_goodput_over_reservation_at_tight_capacity() {
        // The acceptance criterion of sweep 4: at equal (tight) HBM,
        // block-granular admission strictly beats max-claim reservation
        // on peak live batch and goodput, and the shared-prefix cache
        // serves a non-zero fraction of prompt tokens.
        let cfg = smoke_cfg();
        let dfx = Appliance::timing_only(cfg.clone(), 1).unwrap();
        let memory = dfx.memory_model();
        let point = claim_point(&cfg);
        let claim_tokens = (point.input_len + point.output_len) as u64;
        let capacity = memory.weight_bytes + 3 * claim_tokens * memory.kv_bytes_per_token;
        let capped = || {
            Appliance::timing_only(cfg.clone(), 1)
                .unwrap()
                .with_hbm_capacity(capacity)
                .unwrap()
        };
        let mix = chatbot_mix(16, cfg.max_seq_len);
        let backlog = ArrivalProcess::Trace(vec![0.0; mix.len()]);
        let run = |appliance: &Appliance| {
            ServingEngine::new(appliance)
                .with_scheduler(Box::new(ContinuousBatching::new(8)))
                .run(&mix, &backlog)
                .unwrap()
        };
        let reserved = run(&capped());
        let paged = run(&capped()
            .with_kv_paging(PagedKvConfig::new(16).with_policy(PreemptionPolicy::Retain))
            .unwrap());
        assert!(
            paged.peak_live_batch > reserved.peak_live_batch,
            "paged peak {} !> reserved peak {}",
            paged.peak_live_batch,
            reserved.peak_live_batch
        );
        assert!(
            paged.goodput_tps > reserved.goodput_tps,
            "paged goodput {} !> reserved {}",
            paged.goodput_tps,
            reserved.goodput_tps
        );
        let cached = run(&capped()
            .with_kv_paging(
                PagedKvConfig::new(16)
                    .with_policy(PreemptionPolicy::Retain)
                    .with_shared_prefix(32),
            )
            .unwrap());
        let stats = cached.paging.expect("paged run reports stats");
        assert!(stats.hit_rate() > 0.0, "prefix cache never hit: {stats:?}");
        assert!(
            cached.goodput_tps > reserved.goodput_tps,
            "prefix-cached goodput {} !> reserved {}",
            cached.goodput_tps,
            reserved.goodput_tps
        );
    }

    #[test]
    fn default_capacity_and_no_chunking_reproduce_the_pr4_rows() {
        // The backwards-compatibility acceptance: at the real 8 GiB
        // (where chatbot-scale claims never bind) with whole prefills,
        // the memory-aware engine is bit-identical to the plain
        // continuous discipline — so the `serving`/`batching`/
        // `continuous` experiment rows are unchanged by this subsystem.
        let cfg = smoke_cfg();
        let dfx = Appliance::timing_only(cfg.clone(), 1).unwrap();
        let huge = Appliance::timing_only(cfg.clone(), 1)
            .unwrap()
            .with_hbm_capacity(1 << 40)
            .unwrap();
        let mix = chatbot_mix(24, cfg.max_seq_len);
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 50.0,
            seed: 0x5EED,
        };
        let a = ServingEngine::new(&dfx)
            .with_scheduler(Box::new(ContinuousBatching::new(4)))
            .run(&mix, &arrivals)
            .unwrap();
        let b = ServingEngine::new(&huge)
            .with_scheduler(Box::new(ContinuousBatching::new(4)))
            .run(&mix, &arrivals)
            .unwrap();
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.p99_sojourn_ms, b.p99_sojourn_ms);
        assert_eq!(a.goodput_tps, b.goodput_tps);
    }
}

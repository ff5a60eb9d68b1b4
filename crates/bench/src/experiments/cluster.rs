//! Cluster-tier experiment: replica routing above the serving engine.
//!
//! Not a paper figure — the paper serves one appliance (§III), but its
//! own service-level framing begs the next question: a datacenter runs
//! *fleets* of appliances behind one arrival stream, so who decides
//! which replica serves which request? This experiment measures the
//! cluster tier ([`ClusterRouter`]) end to end, in four sweeps:
//!
//! 1. **Placement under saturation** — round-robin vs least-outstanding
//!    vs least-K/V-loaded on memory-bound replicas. The chatbot mix
//!    cycles four input sizes with period four, so round-robin over
//!    four replicas *resonates*: each replica receives a fixed input
//!    size, one of them all heavy contexts, and the pooled p99 lives in
//!    that replica's queue. Load-aware placement breaks the resonance.
//! 2. **Session affinity** — with paged replicas sharing a system
//!    prompt, [`SessionAffinity`] keeps a session on the replica whose
//!    prefix cache is warm; spraying the same stream round-robin
//!    recomputes the prefix once per replica.
//! 3. **Prefill/decode disaggregation** — the same device count split
//!    into a prefill pool and a decode pool ([`DisaggregatedCluster`]),
//!    with the context's K/V cache moved over a modelled 100 Gb/s link;
//!    the table reports the end-to-end cost of that transfer against
//!    the unified topology.
//! 4. **Wide sharding** — one replica grown past the paper's 4 FPGAs:
//!    per-device weight shard, K/V bytes per token and resident-token
//!    headroom shrink with the shard while batch-1 latency improves,
//!    which is exactly the trade the placement policies arbitrate.
//!
//! Knobs: model, replica count, request count, arrival rate, the
//! per-replica K/V budget (tokens) that makes replicas memory-bound,
//! the continuous max batch, and the shard-width grid.
//!
//! [`ClusterRouter`]: dfx_serve::ClusterRouter
//! [`SessionAffinity`]: dfx_serve::SessionAffinity
//! [`DisaggregatedCluster`]: dfx_serve::DisaggregatedCluster

use crate::table::{fmt, ExperimentReport, MdTable};
use dfx_hw::LinkModel;
use dfx_model::{GptConfig, Workload};
use dfx_serve::{
    chatbot_mix, ArrivalProcess, Backend, ClusterReport, ClusterRouter, ContinuousBatching,
    DecodeOnly, DisaggregatedCluster, LeastKvLoaded, LeastOutstanding, Placement, RoundRobin,
    SessionAffinity,
};
use dfx_sim::{Appliance, PagedKvConfig, PreemptionPolicy, SimError};

/// Arrival seed shared with the other service-level experiments.
const SEED: u64 = 0x5EED;

/// The shared system prompt of the affinity sweep, tokens.
const SHARED_PREFIX: usize = 128;

/// Paged-K/V block size of the affinity sweep, tokens.
const BLOCK_TOKENS: usize = 16;

/// Headline configuration: the paper's largest GPT-2 across four
/// single-FPGA replicas, memory-bound to a 480-token K/V budget each,
/// and a sharding sweep past the paper's 4-FPGA appliance.
pub fn run() -> Result<ExperimentReport, SimError> {
    run_setup(
        GptConfig::gpt2_1_5b(),
        4,
        64,
        1.0,
        480,
        8,
        &[1, 2, 4, 8, 12],
    )
}

/// A memory-bound single-FPGA replica: HBM capped at the weight shard
/// plus `kv_budget_tokens` of K/V.
fn bounded_replica(cfg: &GptConfig, kv_budget_tokens: usize) -> Result<Appliance, SimError> {
    let base = Appliance::timing_only(cfg.clone(), 1)?;
    let memory = base.memory_model();
    let capacity = memory.weight_bytes + kv_budget_tokens as u64 * memory.kv_bytes_per_token;
    base.with_hbm_capacity(capacity)
}

/// Runs the four sweeps on one model/cluster setup. `kv_budget_tokens`
/// caps every replica's HBM at "weight shard + that many K/V tokens"
/// so placement decisions are memory-bound; `shard_counts` lists the
/// per-replica FPGA counts of the wide-sharding table (each must
/// divide the model's head count).
///
/// # Errors
///
/// Fails when the setup is invalid: an indivisible shard count, a K/V
/// budget no request fits, or an empty grid.
pub fn run_setup(
    cfg: GptConfig,
    n_replicas: usize,
    n_requests: usize,
    rate_per_s: f64,
    kv_budget_tokens: usize,
    max_batch: usize,
    shard_counts: &[usize],
) -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "cluster",
        "Cluster tier: placement policy, session affinity, disaggregation, wide sharding",
    );
    let mix = chatbot_mix(n_requests, cfg.max_seq_len);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s,
        seed: SEED,
    };

    // --- 1. Placement under saturation -------------------------------
    let replicas: Vec<Appliance> = (0..n_replicas)
        .map(|_| bounded_replica(&cfg, kv_budget_tokens))
        .collect::<Result<_, _>>()?;
    let mut placement_table = MdTable::new(
        format!(
            "Placement on {n_replicas} memory-bound replicas ({kv_budget_tokens}-token K/V \
             budget each): {n_requests} chatbot-mix requests at {rate_per_s}/s, continuous max \
             batch {max_batch}; percentiles are pooled across replicas"
        ),
        &[
            "placement",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "goodput tok/s",
            "balance",
            "mean util %",
        ],
    );
    let run_placement = |placement: Box<dyn Placement>| -> Result<ClusterReport, SimError> {
        let servers: Vec<&dyn Backend> = replicas.iter().map(|a| a as &dyn Backend).collect();
        ClusterRouter::uniform(servers, placement)?
            .with_scheduler_factory(move || Box::new(ContinuousBatching::new(max_batch)))
            .run(&mix, &arrivals)
    };
    // The three placement sweeps share nothing (each builds its own
    // router over the same replica pool), so they fan out over the
    // work-stealing pool; results come back in placement order.
    let placement_reports = rayon_lite::par_map(&[0usize, 1, 2], |&which| {
        let placement: Box<dyn Placement> = match which {
            0 => Box::new(RoundRobin::new()),
            1 => Box::new(LeastOutstanding),
            _ => Box::new(LeastKvLoaded),
        };
        run_placement(placement)
    });
    let [rr, lo, lkl]: [ClusterReport; 3] = placement_reports
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .try_into()
        .map_err(|_| SimError::Service("expected one report per placement".into()))?;
    for r in [&rr, &lo, &lkl] {
        placement_table.push_row(vec![
            r.placement.clone(),
            fmt(r.p50_sojourn_ms, 1),
            fmt(r.p95_sojourn_ms, 1),
            fmt(r.p99_sojourn_ms, 1),
            fmt(r.goodput_tps, 1),
            fmt(r.balance_index, 3),
            fmt(100.0 * r.mean_utilization(), 1),
        ]);
    }
    report.note(format!(
        "The chatbot mix cycles input sizes with the replica count's period, so round-robin \
         pins every heavy context on one replica; K/V-aware placement cuts the pooled p99 \
         from {} ms to {} ms ({:.2}x) at equal hardware.",
        fmt(rr.p99_sojourn_ms, 1),
        fmt(lkl.p99_sojourn_ms, 1),
        rr.p99_sojourn_ms / lkl.p99_sojourn_ms.max(f64::MIN_POSITIVE),
    ));
    report.table(placement_table);

    // --- 2. Session affinity on paged replicas -----------------------
    let paged_pair: Vec<Appliance> = (0..2)
        .map(|_| {
            Appliance::timing_only(cfg.clone(), 1)?.with_kv_paging(
                PagedKvConfig::new(BLOCK_TOKENS)
                    .with_policy(PreemptionPolicy::Retain)
                    .with_shared_prefix(SHARED_PREFIX),
            )
        })
        .collect::<Result<_, _>>()?;
    let session_stream = vec![Workload::new(SHARED_PREFIX + 32, 16); n_requests.clamp(8, 24)];
    let one_session = vec![Some(7u64); session_stream.len()];
    let mut affinity_table = MdTable::new(
        format!(
            "One {}-request session with a {SHARED_PREFIX}-token system prompt across 2 paged \
             replicas: affinity keeps the warm prefix cache, spraying recomputes it per replica",
            session_stream.len()
        ),
        &[
            "policy",
            "prefix hits (tok)",
            "prefix computed (tok)",
            "hit rate %",
            "p99 ms",
        ],
    );
    let run_affinity = |placement: Box<dyn Placement>| -> Result<ClusterReport, SimError> {
        let servers: Vec<&dyn Backend> = paged_pair.iter().map(|a| a as &dyn Backend).collect();
        ClusterRouter::uniform(servers, placement)?
            .with_scheduler_factory(move || Box::new(ContinuousBatching::new(max_batch)))
            .run_sessions(&session_stream, &one_session, &arrivals)
    };
    let sprayed = run_affinity(Box::new(RoundRobin::new()))?;
    let pinned = run_affinity(Box::new(SessionAffinity::new(Box::new(RoundRobin::new()))))?;
    for r in [&sprayed, &pinned] {
        let paging = r
            .paging
            .ok_or_else(|| SimError::Service("paged replicas reported no paging stats".into()))?;
        affinity_table.push_row(vec![
            r.placement.clone(),
            paging.prefix_hit_tokens.to_string(),
            paging.prefix_computed_tokens.to_string(),
            fmt(100.0 * paging.hit_rate(), 1),
            fmt(r.p99_sojourn_ms, 1),
        ]);
    }
    report.note(format!(
        "Session affinity lifts the cluster prefix hit rate from {}% to {}%: the session's \
         replica computes the shared prompt once, every later request hits it.",
        fmt(100.0 * sprayed.prefix_hit_rate().unwrap_or(0.0), 1),
        fmt(100.0 * pinned.prefix_hit_rate().unwrap_or(0.0), 1),
    ));
    report.table(affinity_table);

    // --- 3. Unified vs disaggregated topology ------------------------
    let prefill_count = (n_replicas / 2).max(1);
    let decode_count = (n_replicas - prefill_count).max(1);
    let unified_pool: Vec<Appliance> = (0..n_replicas)
        .map(|_| Appliance::timing_only(cfg.clone(), 1))
        .collect::<Result<_, _>>()?;
    let prefill_pool: Vec<Appliance> = (0..prefill_count)
        .map(|_| Appliance::timing_only(cfg.clone(), 1))
        .collect::<Result<_, _>>()?;
    let decode_pool: Vec<Appliance> = (0..decode_count)
        .map(|_| Appliance::timing_only(cfg.clone(), 1))
        .collect::<Result<_, _>>()?;
    let decode_only: Vec<DecodeOnly> = decode_pool
        .iter()
        .map(|a| DecodeOnly::new(a as &dyn Backend))
        .collect();

    let unified = {
        let servers: Vec<&dyn Backend> = unified_pool.iter().map(|a| a as &dyn Backend).collect();
        ClusterRouter::uniform(servers, Box::new(RoundRobin::new()))?
            .with_scheduler_factory(move || Box::new(ContinuousBatching::new(max_batch)))
            .run(&mix, &arrivals)?
    };
    let disaggregated = {
        let prefill_servers: Vec<&dyn Backend> =
            prefill_pool.iter().map(|a| a as &dyn Backend).collect();
        let decode_servers: Vec<&dyn Backend> =
            decode_only.iter().map(|a| a as &dyn Backend).collect();
        let prefill = ClusterRouter::uniform(prefill_servers, Box::new(RoundRobin::new()))?
            .with_scheduler_factory(move || Box::new(ContinuousBatching::new(max_batch)));
        let decode = ClusterRouter::uniform(decode_servers, Box::new(RoundRobin::new()))?
            .with_scheduler_factory(move || Box::new(ContinuousBatching::new(max_batch)));
        DisaggregatedCluster::new(prefill, decode, LinkModel::qsfp28()).run(&mix, &arrivals)?
    };
    let mut topology_table = MdTable::new(
        format!(
            "Unified ({n_replicas} replicas) vs disaggregated ({prefill_count} prefill + \
             {decode_count} decode) at equal device count, K/V handoff over a 100 Gb/s link"
        ),
        &[
            "topology",
            "p99 ms",
            "goodput tok/s",
            "transfers",
            "K/V moved MiB",
            "mean link ms",
        ],
    );
    topology_table.push_row(vec![
        "unified".into(),
        fmt(unified.p99_sojourn_ms, 1),
        fmt(unified.goodput_tps, 1),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    let transfer = disaggregated
        .transfer
        .ok_or_else(|| SimError::Service("disaggregated run reported no transfer".into()))?;
    topology_table.push_row(vec![
        "disaggregated".into(),
        fmt(disaggregated.p99_sojourn_ms, 1),
        fmt(disaggregated.goodput_tps, 1),
        transfer.transfers.to_string(),
        fmt(transfer.bytes as f64 / (1 << 20) as f64, 1),
        fmt(transfer.mean_ms, 3),
    ]);
    report.note(format!(
        "Disaggregation moves {} K/V transfers ({} MiB) over the link at {} ms each — a \
         real, modelled cost ({} ms total) the unified topology never pays.",
        transfer.transfers,
        fmt(transfer.bytes as f64 / (1 << 20) as f64, 1),
        fmt(transfer.mean_ms, 3),
        fmt(transfer.total_ms, 1),
    ));
    report.table(topology_table);

    // --- 4. Wide sharding --------------------------------------------
    let point = {
        let w = Workload::chatbot();
        if w.input_len + w.output_len > cfg.max_seq_len {
            Workload::new(cfg.max_seq_len / 2, cfg.max_seq_len / 4)
        } else {
            w
        }
    };
    let mut shard_table = MdTable::new(
        format!(
            "Wide sharding: one {} replica grown across FPGAs, batch-1 {point} request",
            cfg.name
        ),
        &[
            "FPGAs",
            "weight MiB/dev",
            "K/V KiB/tok/dev",
            "resident tokens/dev",
            "latency ms",
            "tok/s",
        ],
    );
    let shard_rows =
        rayon_lite::par_map(shard_counts, |&devices| -> Result<Vec<String>, SimError> {
            let wide = Appliance::timing_only(cfg.clone(), devices)?;
            let memory = wide.memory_model();
            let run = wide.serve(point)?;
            Ok(vec![
                devices.to_string(),
                fmt(memory.weight_bytes as f64 / (1 << 20) as f64, 1),
                fmt(memory.kv_bytes_per_token as f64 / 1024.0, 2),
                memory.max_resident_tokens().to_string(),
                fmt(run.total_ms(), 1),
                fmt(run.tokens_per_second(), 1),
            ])
        });
    for row in shard_rows {
        shard_table.push_row(row?);
    }
    report.note(
        "Wider shards shrink the per-device weight slice and K/V footprint, buying \
         resident-token headroom and batch-1 latency — the capacity signal LeastKvLoaded \
         reads when pools are heterogeneous.",
    );
    report.table(shard_table);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> GptConfig {
        GptConfig::new("cluster-smoke", 64, 2, 2, 512, 640)
    }

    /// Acceptance: K/V-aware placement beats round-robin's resonant
    /// assignment on pooled p99 when replicas are memory-bound and the
    /// arrival pace saturates the replica round-robin pins every heavy
    /// context on. The 2.8 ms gap sits in the measured window where
    /// the balanced cluster keeps up (mean service 8.5 ms over 4
    /// replicas) but the all-heavy replica cannot (a heavy request
    /// every 11.2 ms against a 13.2 ms mean service).
    #[test]
    fn least_kv_loaded_beats_round_robin_p99_under_saturation() {
        let cfg = smoke_cfg();
        let replicas: Vec<Appliance> = (0..4)
            .map(|_| bounded_replica(&cfg, 320).unwrap())
            .collect();
        let mix = chatbot_mix(64, cfg.max_seq_len);
        let paced = ArrivalProcess::Trace((0..mix.len()).map(|i| i as f64 * 2.8).collect());
        let run = |placement: Box<dyn Placement>| {
            let servers: Vec<&dyn Backend> = replicas.iter().map(|a| a as &dyn Backend).collect();
            ClusterRouter::uniform(servers, placement)
                .unwrap()
                .with_scheduler_factory(|| Box::new(ContinuousBatching::new(8)))
                .run(&mix, &paced)
                .unwrap()
        };
        let rr = run(Box::new(RoundRobin::new()));
        let lkl = run(Box::new(LeastKvLoaded));
        assert!(
            lkl.p99_sojourn_ms < rr.p99_sojourn_ms,
            "least-kv p99 {} !< round-robin p99 {}",
            lkl.p99_sojourn_ms,
            rr.p99_sojourn_ms
        );
        // Round-robin's dispatch counts are perfectly even; the win
        // comes from balancing K/V claims, not request counts.
        assert_eq!(rr.balance_index, 1.0);
    }

    /// Acceptance: session affinity strictly lifts cluster prefix
    /// hit-tokens over spraying the same session round-robin.
    #[test]
    fn session_affinity_lifts_prefix_hits_over_round_robin() {
        let cfg = smoke_cfg();
        let paged: Vec<Appliance> = (0..2)
            .map(|_| {
                Appliance::timing_only(cfg.clone(), 1)
                    .unwrap()
                    .with_kv_paging(
                        PagedKvConfig::new(BLOCK_TOKENS)
                            .with_policy(PreemptionPolicy::Retain)
                            .with_shared_prefix(SHARED_PREFIX),
                    )
                    .unwrap()
            })
            .collect();
        let stream = vec![Workload::new(SHARED_PREFIX + 32, 16); 12];
        let sessions = vec![Some(1u64); stream.len()];
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 50.0,
            seed: SEED,
        };
        let run = |placement: Box<dyn Placement>| {
            let servers: Vec<&dyn Backend> = paged.iter().map(|a| a as &dyn Backend).collect();
            ClusterRouter::uniform(servers, placement)
                .unwrap()
                .with_scheduler_factory(|| Box::new(ContinuousBatching::new(4)))
                .run_sessions(&stream, &sessions, &arrivals)
                .unwrap()
        };
        let sprayed = run(Box::new(RoundRobin::new()));
        let pinned = run(Box::new(SessionAffinity::new(Box::new(RoundRobin::new()))));
        let (s, p) = (sprayed.paging.unwrap(), pinned.paging.unwrap());
        assert!(
            p.prefix_hit_tokens > s.prefix_hit_tokens,
            "affinity hits {} !> round-robin hits {}",
            p.prefix_hit_tokens,
            s.prefix_hit_tokens
        );
        assert!(pinned.prefix_hit_rate().unwrap() > sprayed.prefix_hit_rate().unwrap());
    }

    /// Acceptance: the disaggregated topology pays a nonzero modelled
    /// K/V-transfer cost.
    #[test]
    fn disaggregated_topology_reports_nonzero_transfer_cost() {
        let cfg = smoke_cfg();
        let prefill_app = Appliance::timing_only(cfg.clone(), 1).unwrap();
        let decode_app = Appliance::timing_only(cfg.clone(), 1).unwrap();
        let decode_only = DecodeOnly::new(&decode_app as &dyn Backend);
        let prefill =
            ClusterRouter::uniform(vec![&prefill_app], Box::new(RoundRobin::new())).unwrap();
        let decode = ClusterRouter::uniform(
            vec![&decode_only as &dyn Backend],
            Box::new(RoundRobin::new()),
        )
        .unwrap();
        let mix = chatbot_mix(8, cfg.max_seq_len);
        let report = DisaggregatedCluster::new(prefill, decode, LinkModel::qsfp28())
            .run(&mix, &ArrivalProcess::Trace(vec![0.0; mix.len()]))
            .unwrap();
        let transfer = report.transfer.unwrap();
        assert!(transfer.transfers > 0);
        assert!(transfer.bytes > 0);
        assert!(transfer.total_ms > 0.0 && transfer.mean_ms > 0.0);
        assert_eq!(report.total_requests, mix.len());
    }

    #[test]
    fn smoke_setup_produces_all_four_tables() {
        let report = run_setup(smoke_cfg(), 2, 16, 200.0, 320, 4, &[1, 2]).unwrap();
        assert_eq!(report.id, "cluster");
        assert_eq!(report.tables.len(), 4);
        assert_eq!(report.tables[0].rows.len(), 3);
        assert_eq!(report.tables[1].rows.len(), 2);
        assert_eq!(report.tables[2].rows.len(), 2);
        assert_eq!(report.tables[3].rows.len(), 2);
    }
}

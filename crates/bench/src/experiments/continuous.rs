//! Continuous-batching experiment: the serving frontier the paper's
//! §III-A argument implies, measured across all three disciplines.
//!
//! Not a paper figure — modern serving stacks (Orca, vLLM, TGI) batch at
//! *token* boundaries: requests join a running batch between decode
//! steps and leave the moment they finish, so a low-latency appliance
//! must be compared against continuous batching, not only against the
//! static padded batching of [`batching`](super::batching). This
//! experiment runs the same seeded Poisson stream of chatbot-mix
//! requests through three disciplines on both appliances, sweeping
//! **arrival rate × max batch**: `batch-1` (the FIFO reference — the
//! [`serving`](super::serving) experiment's numbers), `static`
//! ([`Batching`]: size + timeout, padded units) and `continuous`
//! ([`ContinuousBatching`]: token-boundary admission, per-member early
//! exit). Knobs: model/devices, request count, the batch-size and rate
//! grids, and the static batching timeout. Output shape: one table with
//! a row per (appliance, discipline, max batch, rate) carrying p50/p99
//! sojourn, utilization, goodput, p95 TTFT/ITL and total energy (ITL is
//! zero on the static disciplines, which model no intra-batch token
//! timing). Continuous rows with `max batch =
//! 1` are identical to the `serving` experiment's cells — token-boundary
//! scheduling at batch 1 degenerates to the single-dispatch FIFO path.

use crate::table::{fmt, ExperimentReport, MdTable};
use dfx_baseline::GpuModel;
use dfx_model::GptConfig;
use dfx_serve::{
    chatbot_mix, ArrivalProcess, Backend, Batching, ContinuousBatching, Scheduler, ServiceReport,
    ServingEngine,
};
use dfx_sim::{Appliance, SimError};

/// Runs the sweep on one model/cluster setup. `batch_sizes` bounds both
/// the static coalescer and the continuous live batch; `max_wait_ms` is
/// the static discipline's batching window (continuous batching never
/// waits — admission is greedy at token boundaries).
///
/// # Panics
///
/// Panics when the setup is invalid (an indivisible device count, a
/// request stream the model cannot serve): experiment inputs are
/// compile-time constants, so a failure is a bug in the caller, not an
/// input error.
pub fn run_setup(
    cfg: GptConfig,
    devices: usize,
    n_requests: usize,
    batch_sizes: &[usize],
    rates_per_s: &[f64],
    max_wait_ms: f64,
) -> ExperimentReport {
    match build(
        cfg,
        devices,
        n_requests,
        batch_sizes,
        rates_per_s,
        max_wait_ms,
    ) {
        Ok(report) => report,
        // lint: allow(panic-policy, experiment inputs are compile-time constants; see rustdoc)
        Err(e) => panic!("continuous experiment failed: {e:?}"),
    }
}

fn build(
    cfg: GptConfig,
    devices: usize,
    n_requests: usize,
    batch_sizes: &[usize],
    rates_per_s: &[f64],
    max_wait_ms: f64,
) -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "continuous",
        "Continuous batching: token-boundary scheduling vs static batching vs batch-1",
    );
    let dfx = Appliance::timing_only(cfg.clone(), devices)?;
    let gpu = GpuModel::new(cfg.clone(), devices);
    report.note(format!(
        "{n_requests} chatbot-mix requests on {} vs {}, one shared seed per rate. batch-1 is \
         the `serving` FIFO reference; static is the `batching` discipline (padded units, \
         {max_wait_ms} ms window); continuous admits at token boundaries and exits members \
         early, so it recovers the GPU's batched goodput without the padded batch's sojourn — \
         the frontier modern serving stacks hold DFX's batch-1 design against. Continuous rows \
         at max batch 1 are the `serving` numbers exactly.",
        Backend::name(&dfx),
        Backend::name(&gpu),
    ));
    let stream = chatbot_mix(n_requests, cfg.max_seq_len);

    let mut t = MdTable::new(
        "Sojourn percentiles, utilization and goodput by discipline, batch size and arrival rate",
        &[
            "appliance",
            "discipline",
            "max batch",
            "arrival/s",
            "p50 ms",
            "p99 ms",
            "util %",
            "goodput tok/s",
            "p95 ttft ms",
            "p95 itl ms",
            "energy J",
        ],
    );
    // One engine per (backend, discipline, batch size). Groups share
    // only the appliance, whose timing memo is a pure function of its
    // keys, so they fan out over the work-stealing pool; the rate loop
    // inside a group stays sequential and `par_map` returns row blocks
    // in group order, keeping the table bit-identical to a serial
    // sweep.
    let mut groups: Vec<(bool, &str, usize)> = Vec::new();
    for is_gpu in [false, true] {
        groups.push((is_gpu, "batch-1", 1));
        for &max_batch in batch_sizes {
            groups.push((is_gpu, "static", max_batch));
            groups.push((is_gpu, "continuous", max_batch));
        }
    }
    let row_blocks: Vec<Result<Vec<Vec<String>>, SimError>> =
        rayon_lite::par_map(&groups, |&(is_gpu, discipline, max_batch)| {
            let (label, backend): (&str, &dyn Backend) =
                if is_gpu { ("GPU", &gpu) } else { ("DFX", &dfx) };
            let scheduler: Box<dyn Scheduler> = match discipline {
                "batch-1" => Box::new(dfx_serve::Fifo),
                "static" => Box::new(Batching::new(max_batch, max_wait_ms)),
                _ => Box::new(ContinuousBatching::new(max_batch)),
            };
            let mut engine = ServingEngine::new(backend).with_scheduler(scheduler);
            rates_per_s
                .iter()
                .map(|&rate_per_s| {
                    let arrivals = ArrivalProcess::Poisson {
                        rate_per_s,
                        seed: 0x5EED,
                    };
                    let r: ServiceReport = engine.run(&stream, &arrivals)?;
                    Ok(vec![
                        label.into(),
                        discipline.into(),
                        max_batch.to_string(),
                        fmt(rate_per_s, 2),
                        fmt(r.p50_sojourn_ms, 0),
                        fmt(r.p99_sojourn_ms, 0),
                        fmt(100.0 * r.utilization, 1),
                        fmt(r.goodput_tps, 1),
                        fmt(r.p95_ttft_ms, 0),
                        fmt(r.p95_itl_ms, 2),
                        match r.energy_j {
                            Some(e) => fmt(e, 1),
                            None => "-".into(),
                        },
                    ])
                })
                .collect()
        });
    for block in row_blocks {
        for row in block? {
            t.push_row(row);
        }
    }
    report.table(t);
    Ok(report)
}

/// The headline sweep: GPT-2 1.5B on 4 devices per appliance, the same
/// stream/rates as the `serving` and `batching` experiments, batch
/// sizes 1/4/8 with the 500 ms static batching window.
pub fn run() -> ExperimentReport {
    run_setup(
        GptConfig::gpt2_1_5b(),
        4,
        200,
        &[1, 4, 8],
        &[0.25, 0.5, 1.0, 2.0],
        500.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> GptConfig {
        GptConfig::new("continuous-smoke", 64, 2, 2, 512, 640)
    }

    #[test]
    fn continuous_batch_one_rows_match_the_serving_experiment_exactly() {
        // The tentpole acceptance property: continuous batching at
        // max batch 1 reproduces the `serving` experiment's FIFO numbers
        // cell for cell (same stream, same seeds, same formatting).
        let rates = [5.0, 50.0];
        let serving = super::super::serving_setup(smoke_cfg(), 1, 24, &rates);
        let continuous = run_setup(smoke_cfg(), 1, 24, &[1], &rates, 20.0);
        let s = &serving.tables[0];
        let c = &continuous.tables[0];
        for (i, _rate) in rates.iter().enumerate() {
            // serving columns: rate, DFX p50, DFX p99, DFX util, GPU
            // p50, GPU p99, GPU util. continuous rows are (appliance,
            // discipline, batch, rate, p50, p99, util, goodput).
            for (appliance, s_cols) in [("DFX", 1..4), ("GPU", 4..7)] {
                let row: &Vec<String> = c
                    .rows
                    .iter()
                    .find(|r| {
                        r[0] == appliance
                            && r[1] == "continuous"
                            && r[2] == "1"
                            && r[3] == s.rows[i][0]
                    })
                    .expect("continuous batch-1 row");
                assert_eq!(
                    &row[4..7],
                    &s.rows[i][s_cols],
                    "{appliance} continuous batch-1 differs from serving"
                );
                // The batch-1 FIFO reference rows agree too.
                let b1: &Vec<String> = c
                    .rows
                    .iter()
                    .find(|r| r[0] == appliance && r[1] == "batch-1" && r[3] == s.rows[i][0])
                    .expect("batch-1 row");
                assert_eq!(&b1[4..7], &row[4..7]);
            }
        }
    }

    #[test]
    fn continuous_dominates_static_batching_under_saturation() {
        // The acceptance criterion: at some swept arrival rate,
        // continuous batching delivers strictly more goodput at equal
        // or better p99 than static batching with the same max batch.
        let cfg = smoke_cfg();
        let gpu = GpuModel::new(cfg.clone(), 1);
        let stream = chatbot_mix(32, cfg.max_seq_len);
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 200.0,
            seed: 0x5EED,
        };
        let stat = ServingEngine::new(&gpu)
            .with_scheduler(Box::new(Batching::new(8, 10.0)))
            .run(&stream, &arrivals)
            .expect("valid stream");
        let cont = ServingEngine::new(&gpu)
            .with_scheduler(Box::new(ContinuousBatching::new(8)))
            .run(&stream, &arrivals)
            .expect("valid stream");
        assert!(
            cont.goodput_tps > stat.goodput_tps,
            "continuous goodput {} !> static {}",
            cont.goodput_tps,
            stat.goodput_tps
        );
        assert!(
            cont.p99_sojourn_ms <= stat.p99_sojourn_ms,
            "continuous p99 {} !<= static {}",
            cont.p99_sojourn_ms,
            stat.p99_sojourn_ms
        );
    }

    #[test]
    fn continuous_helps_dfx_goodput_without_wrecking_its_tail() {
        // DFX's pitch is batch-1 latency; continuous batching should
        // still add goodput under backlog while keeping the tail close
        // to the batch-1 service floor (no padded batches, no windows).
        let cfg = smoke_cfg();
        let dfx = Appliance::timing_only(cfg.clone(), 1).expect("single core");
        let stream = chatbot_mix(24, cfg.max_seq_len);
        // Past the smoke appliance's batch-1 capacity, so a backlog
        // forms and shared decoding actually shortens the makespan.
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 2_000.0,
            seed: 0x5EED,
        };
        let fifo = ServingEngine::new(&dfx)
            .run(&stream, &arrivals)
            .expect("valid stream");
        let cont = ServingEngine::new(&dfx)
            .with_scheduler(Box::new(ContinuousBatching::new(4)))
            .run(&stream, &arrivals)
            .expect("valid stream");
        assert!(
            cont.goodput_tps > fifo.goodput_tps,
            "continuous goodput {} !> batch-1 {}",
            cont.goodput_tps,
            fifo.goodput_tps
        );
        assert!(cont.p99_sojourn_ms < fifo.p99_sojourn_ms);
    }
}

//! Batched serving experiment: the latency/throughput trade-off of
//! §III-A, measured instead of asserted.
//!
//! Not a paper figure — the paper *argues* that GPUs need batching to
//! reach throughput while datacenter text generation cannot afford the
//! wait, and evaluates only batch-1 latency. This experiment closes that
//! loop with the batched cost models: the same seeded Poisson stream of
//! chatbot-mix requests runs through a [`Batching`] scheduler (max batch
//! size × max-wait timeout) on both appliances, sweeping **batch size ×
//! arrival rate**. Knobs: model/devices, request count, the batch-size
//! and rate grids, and the batching timeout. Output shape: one table
//! with a row per (appliance, max batch, arrival rate) carrying sojourn
//! percentiles, utilization, goodput and the realized mean batch size.
//! Rows with `max batch = 1` are identical to the [`serving`](super::serving)
//! experiment's numbers at the same rate — batch-1 through the batching
//! seam is bit-for-bit the engine's single-dispatch path.

use crate::table::{fmt, ExperimentReport, MdTable};
use dfx_baseline::GpuModel;
use dfx_model::GptConfig;
use dfx_serve::{chatbot_mix, ArrivalProcess, Backend, Batching, ServingEngine};
use dfx_sim::{Appliance, SimError};

/// Runs the sweep on one model/cluster setup. `batch_sizes` is the
/// [`Batching`] scheduler's maximum batch; `max_wait_ms` is how long the
/// oldest queued request may be held while a batch fills.
///
/// # Errors
///
/// Fails when the setup is invalid: an indivisible device count, or a
/// request stream the model cannot serve.
pub fn run_setup(
    cfg: GptConfig,
    devices: usize,
    n_requests: usize,
    batch_sizes: &[usize],
    rates_per_s: &[f64],
    max_wait_ms: f64,
) -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "batching",
        "Batched serving (SIII-A): batch size x arrival rate on DFX and the GPU appliance",
    );
    let dfx = Appliance::timing_only(cfg.clone(), devices)?;
    let gpu = GpuModel::new(cfg.clone(), devices);
    report.note(format!(
        "{n_requests} chatbot-mix requests on {} vs {}, one shared seed per rate, Batching \
         scheduler (max-wait {max_wait_ms} ms). max batch = 1 is exactly the `serving` \
         experiment's FIFO numbers; larger batches trade each member's sojourn for goodput — \
         the GPU recovers throughput by batching (its per-kernel overheads amortise) while \
         DFX's batch-1 latency is already near its floor.",
        Backend::name(&dfx),
        Backend::name(&gpu),
    ));
    let stream = chatbot_mix(n_requests, cfg.max_seq_len);

    let mut t = MdTable::new(
        "Sojourn percentiles, utilization and goodput by batch size and arrival rate",
        &[
            "appliance",
            "max batch",
            "arrival/s",
            "p50 ms",
            "p99 ms",
            "util %",
            "goodput tok/s",
            "mean batch",
        ],
    );
    for (label, backend) in [("DFX", &dfx as &dyn Backend), ("GPU", &gpu)] {
        for &max_batch in batch_sizes {
            // One engine per (appliance, batch size): the service-time
            // memo persists across the rate sweep, so each distinct
            // workload/batch composition is cost-modeled once.
            let mut engine = ServingEngine::new(backend)
                .with_scheduler(Box::new(Batching::new(max_batch, max_wait_ms)));
            for &rate_per_s in rates_per_s {
                let arrivals = ArrivalProcess::Poisson {
                    rate_per_s,
                    seed: 0x5EED,
                };
                let r = engine.run(&stream, &arrivals)?;
                t.push_row(vec![
                    label.into(),
                    max_batch.to_string(),
                    fmt(rate_per_s, 2),
                    fmt(r.p50_sojourn_ms, 0),
                    fmt(r.p99_sojourn_ms, 0),
                    fmt(100.0 * r.utilization, 1),
                    fmt(r.goodput_tps, 1),
                    fmt(r.mean_batch_size(), 2),
                ]);
            }
        }
    }
    report.table(t);
    Ok(report)
}

/// The headline sweep: GPT-2 1.5B on 4 devices per appliance, the same
/// stream/rates as the `serving` experiment, batch sizes 1–8 with a
/// 500 ms batching window.
pub fn run() -> Result<ExperimentReport, SimError> {
    run_setup(
        GptConfig::gpt2_1_5b(),
        4,
        200,
        &[1, 2, 4, 8],
        &[0.25, 0.5, 1.0, 2.0],
        500.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> GptConfig {
        GptConfig::new("batching-smoke", 64, 2, 2, 512, 640)
    }

    #[test]
    fn batch_one_rows_match_the_serving_experiment_exactly() {
        // The acceptance property of the batching seam: max batch = 1
        // reproduces the `serving` experiment's single-request numbers
        // cell for cell (same stream, same seeds, same formatting).
        let rates = [5.0, 50.0];
        let serving = super::super::serving_setup(smoke_cfg(), 1, 24, &rates).unwrap();
        let batching = run_setup(smoke_cfg(), 1, 24, &[1, 2], &rates, 20.0).unwrap();
        let s = &serving.tables[0];
        let b = &batching.tables[0];
        for (i, _rate) in rates.iter().enumerate() {
            // serving columns: rate, DFX p50, DFX p99, DFX util, GPU p50,
            // GPU p99, GPU util. batching rows are (appliance, batch,
            // rate, p50, p99, util, goodput, mean batch) with DFX batch-1
            // rows first.
            let dfx_row = &b.rows[i];
            assert_eq!(dfx_row[0], "DFX");
            assert_eq!(dfx_row[1], "1");
            assert_eq!(dfx_row[2], s.rows[i][0], "rate column mismatch");
            assert_eq!(&dfx_row[3..6], &s.rows[i][1..4], "DFX batch-1 differs");
            let gpu_row: &Vec<String> = b
                .rows
                .iter()
                .find(|r| r[0] == "GPU" && r[1] == "1" && r[2] == s.rows[i][0])
                .expect("GPU batch-1 row");
            assert_eq!(&gpu_row[3..6], &s.rows[i][4..7], "GPU batch-1 differs");
        }
    }

    #[test]
    fn batching_raises_gpu_goodput_under_saturation() {
        // At a rate well past the GPU's batch-1 capacity, an 8-way batch
        // must deliver clearly more goodput than batch-1.
        let cfg = smoke_cfg();
        let gpu = GpuModel::new(cfg.clone(), 1);
        let stream = chatbot_mix(32, cfg.max_seq_len);
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 200.0,
            seed: 0x5EED,
        };
        let run_at = |max_batch: usize| {
            ServingEngine::new(&gpu)
                .with_scheduler(Box::new(Batching::new(max_batch, 10.0)))
                .run(&stream, &arrivals)
                .expect("valid stream")
        };
        let one = run_at(1);
        let eight = run_at(8);
        assert!(
            eight.goodput_tps > 1.5 * one.goodput_tps,
            "batch-8 goodput {} !> 1.5x batch-1 {}",
            eight.goodput_tps,
            one.goodput_tps
        );
        assert!(eight.mean_batch_size() > 2.0);
    }
}

//! Service-level experiment: the §III-A claim, quantified.
//!
//! Not a paper figure — the paper *motivates* DFX with non-batched
//! datacenter request streams (§III-A) but only evaluates per-request
//! latency. This experiment closes the loop: the same seeded Poisson
//! stream of chatbot-mix requests through the DFX appliance and the GPU
//! appliance via the unified `Backend`/`ServingEngine` API, sweeping the
//! arrival rate across the GPU appliance's saturation point. Knobs
//! ([`run_setup`]): model/cluster size, request count and the rate grid.
//! Output shape: one table with a row per arrival rate carrying p50/p99
//! sojourn and utilization for both appliances — the batch-1 reference
//! the [`batching`](super::batching) experiment is measured against.

use crate::table::{fmt, ExperimentReport, MdTable};
use dfx_baseline::GpuModel;
use dfx_model::GptConfig;
use dfx_serve::{chatbot_mix, ArrivalProcess, Backend, ServingEngine};
use dfx_sim::{Appliance, SimError};

/// Runs the sweep on one model/cluster setup. `rates_per_s` should
/// straddle the GPU appliance's capacity so the divergence is visible.
///
/// # Errors
///
/// Fails when the setup is invalid: an indivisible device count, or a
/// request stream the model cannot serve.
pub fn run_setup(
    cfg: GptConfig,
    devices: usize,
    n_requests: usize,
    rates_per_s: &[f64],
) -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "serving",
        "Service-level view (SIII-A): tail latency under a Poisson request stream",
    );
    let dfx = Appliance::timing_only(cfg.clone(), devices)?;
    let gpu = GpuModel::new(cfg.clone(), devices);
    report.note(format!(
        "{n_requests} chatbot-mix requests on {} vs the {}-GPU appliance, one shared seed per \
         rate, FIFO queue. Sojourn = queueing + service; the paper's per-request speedup becomes \
         a tail-latency cliff once the arrival rate crosses the GPU appliance's capacity.",
        dfx.name(),
        devices
    ));
    let stream = chatbot_mix(n_requests, cfg.max_seq_len);
    // One engine per backend across the whole sweep: the service-time
    // memo persists, so each distinct workload is cycle-modeled once.
    let mut dfx_engine = ServingEngine::new(&dfx);
    let mut gpu_engine = ServingEngine::new(&gpu);

    let mut t = MdTable::new(
        "Sojourn percentiles and utilization by arrival rate",
        &[
            "arrival/s",
            "DFX p50 ms",
            "DFX p99 ms",
            "DFX util %",
            "GPU p50 ms",
            "GPU p99 ms",
            "GPU util %",
        ],
    );
    for &rate_per_s in rates_per_s {
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s,
            seed: 0x5EED,
        };
        let d = dfx_engine.run(&stream, &arrivals)?;
        let g = gpu_engine.run(&stream, &arrivals)?;
        t.push_row(vec![
            fmt(rate_per_s, 2),
            fmt(d.p50_sojourn_ms, 0),
            fmt(d.p99_sojourn_ms, 0),
            fmt(100.0 * d.utilization, 1),
            fmt(g.p50_sojourn_ms, 0),
            fmt(g.p99_sojourn_ms, 0),
            fmt(100.0 * g.utilization, 1),
        ]);
    }
    report.table(t);
    Ok(report)
}

/// The headline sweep: GPT-2 1.5B on 4 devices per appliance.
pub fn run() -> Result<ExperimentReport, SimError> {
    run_setup(GptConfig::gpt2_1_5b(), 4, 200, &[0.25, 0.5, 1.0, 2.0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::Workload;
    use dfx_serve::ServiceReport;

    #[test]
    fn dfx_tail_stays_interactive_where_gpu_diverges() {
        // The old hand-rolled `service_sim` result through the new API,
        // at paper scale but debug-test cost: 345M on one device, a
        // single distinct workload (timed once by the appliance), rates
        // straddling the GPU appliance's ~0.41 req/s capacity while DFX
        // (~0.97 req/s) still has headroom.
        let cfg = GptConfig::gpt2_345m();
        let dfx = Appliance::timing_only(cfg.clone(), 1).expect("single core");
        let gpu = GpuModel::new(cfg, 1);
        let stream = vec![Workload::chatbot(); 60];
        let run = |backend: &dyn Backend, rate_per_s: f64| -> ServiceReport {
            let arrivals = ArrivalProcess::Poisson {
                rate_per_s,
                seed: 0x5EED,
            };
            ServingEngine::new(backend)
                .run(&stream, &arrivals)
                .expect("valid stream")
        };

        let (dfx_low, gpu_low) = (run(&dfx, 0.2), run(&gpu, 0.2));
        let (dfx_high, gpu_high) = (run(&dfx, 0.7), run(&gpu, 0.7));
        // Low load: both interactive, gap ~ the per-request speedup.
        assert!(gpu_low.p99_sojourn_ms < 20.0 * dfx_low.p99_sojourn_ms);
        // High load: the GPU queue diverges, DFX degrades gracefully.
        assert!(
            gpu_high.p99_sojourn_ms > 5.0 * dfx_high.p99_sojourn_ms,
            "GPU p99 {} vs DFX {}",
            gpu_high.p99_sojourn_ms,
            dfx_high.p99_sojourn_ms
        );
        assert!(
            dfx_high.p99_sojourn_ms < 10.0 * dfx_low.p99_sojourn_ms,
            "DFX should stay near its service time: {} vs {}",
            dfx_high.p99_sojourn_ms,
            dfx_low.p99_sojourn_ms
        );
        assert!(gpu_high.utilization > dfx_high.utilization);
        // Determinism: identical seeds reproduce identical reports.
        assert_eq!(run(&dfx, 0.7), dfx_high);
        assert_eq!(run(&gpu, 0.7), gpu_high);
    }
}

//! Figure 14: end-to-end inference latency, DFX vs the GPU appliance, on
//! 345M/774M/1.5B with matched device counts.
//!
//! [`run`] walks the paper's 15-point workload grid (inputs {32, 64,
//! 128} × outputs {1, 4, 16, 64, 256}) for each published model/cluster
//! pairing (345M×1, 774M×2, 1.5B×4) and emits one table per model — a
//! row per grid point with GPU ms, DFX ms and the speedup — plus the
//! grid-average speedup against the paper's headline (~5.6× on 1.5B).
//! [`run_model`] exposes the per-model grid as data ([`ModelGrid`]) with
//! the model configuration and device count as knobs; the smoke tests
//! drive it with a tiny configuration.

use crate::paper;
use crate::table::{fmt, fmt_ratio, ExperimentReport, MdTable};
use dfx_baseline::GpuModel;
use dfx_model::{GptConfig, Workload};
use dfx_serve::Backend;
use dfx_sim::{Appliance, SimError};

/// One model's regenerated grid.
pub struct ModelGrid {
    /// Model configuration.
    pub cfg: GptConfig,
    /// Devices used on both platforms.
    pub devices: usize,
    /// Simulated GPU latency per grid point, ms.
    pub gpu_ms: Vec<f64>,
    /// Simulated DFX latency per grid point, ms.
    pub dfx_ms: Vec<f64>,
}

impl ModelGrid {
    /// Average speedup over the grid (mean of per-workload ratios is not
    /// what the paper reports; it uses the ratio of average latencies).
    pub fn average_speedup(&self) -> f64 {
        let g: f64 = self.gpu_ms.iter().sum::<f64>() / self.gpu_ms.len() as f64;
        let d: f64 = self.dfx_ms.iter().sum::<f64>() / self.dfx_ms.len() as f64;
        g / d
    }
}

/// End-to-end latency of every grid point on one [`Backend`], ms.
/// Workloads are independent; fan out over the work-stealing pool
/// (results come back in grid order regardless of thread count, and an
/// [`Appliance`]'s shared step-cost table makes fill order irrelevant).
///
/// # Errors
///
/// Propagates the first grid point the backend cannot serve (a model
/// whose context window is shorter than the grid's longest shape).
pub fn grid_latencies_ms(backend: &(impl Backend + Sync)) -> Result<Vec<f64>, SimError> {
    rayon_lite::par_map(&paper::GRID, |&(input, output)| {
        backend
            .serve(Workload::new(input, output))
            .map(|r| r.total_ms())
    })
    .into_iter()
    .collect()
}

/// Simulates the full grid for one model.
///
/// # Errors
///
/// Fails when the setup is invalid: an indivisible device count, or a
/// context window shorter than the grid.
pub fn run_model(cfg: GptConfig, devices: usize) -> Result<ModelGrid, SimError> {
    let gpu = GpuModel::new(cfg.clone(), devices);
    let dfx = Appliance::timing_only(cfg.clone(), devices)?;
    Ok(ModelGrid {
        gpu_ms: grid_latencies_ms(&gpu)?,
        dfx_ms: grid_latencies_ms(&dfx)?,
        cfg,
        devices,
    })
}

/// Regenerates Figure 14.
pub fn run() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "fig14",
        "Figure 14: Inference latency of DFX vs the GPU appliance",
    );
    report.note(
        "GPU latencies come from the calibrated V100/Megatron model; DFX latencies from the \
         cycle-level appliance simulator. Paper columns are the figure's data labels.",
    );

    let setups = [
        (
            GptConfig::gpt2_345m(),
            1usize,
            &paper::FIG14_GPU_345M,
            &paper::FIG14_DFX_345M,
        ),
        (
            GptConfig::gpt2_774m(),
            2,
            &paper::FIG14_GPU_774M,
            &paper::FIG14_DFX_774M,
        ),
        (
            GptConfig::gpt2_1_5b(),
            4,
            &paper::FIG14_GPU_1_5B,
            &paper::FIG14_DFX_1_5B,
        ),
    ];

    for (i, (cfg, devices, paper_gpu, paper_dfx)) in setups.into_iter().enumerate() {
        let grid = run_model(cfg.clone(), devices)?;
        let mut t = MdTable::new(
            format!("{} — {} device(s) per appliance", cfg.name, devices),
            &[
                "[in:out]",
                "GPU ms (sim)",
                "GPU ms (paper)",
                "DFX ms (sim)",
                "DFX ms (paper)",
                "speedup (sim)",
                "speedup (paper)",
            ],
        );
        for (j, &(input, output)) in paper::GRID.iter().enumerate() {
            t.push_row(vec![
                format!("[{input}:{output}]"),
                fmt(grid.gpu_ms[j], 1),
                fmt(paper_gpu[j], 1),
                fmt(grid.dfx_ms[j], 1),
                fmt(paper_dfx[j], 1),
                fmt_ratio(grid.gpu_ms[j] / grid.dfx_ms[j]),
                fmt_ratio(paper_gpu[j] / paper_dfx[j]),
            ]);
        }
        t.push_row(vec![
            "**average**".into(),
            fmt(grid.gpu_ms.iter().sum::<f64>() / 15.0, 1),
            fmt(paper_gpu.iter().sum::<f64>() / 15.0, 1),
            fmt(grid.dfx_ms.iter().sum::<f64>() / 15.0, 1),
            fmt(paper_dfx.iter().sum::<f64>() / 15.0, 1),
            fmt_ratio(grid.average_speedup()),
            fmt_ratio(paper::FIG14_SPEEDUPS[i]),
        ]);
        report.table(t);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_speedup_shape_holds_for_345m() {
        // Shape assertions on the smallest model to keep test time down:
        // DFX wins on generation-heavy points, the GPU wins at [128:1],
        // and the average speedup lands near the paper's 3.20x.
        let grid = run_model(GptConfig::gpt2_345m(), 1).unwrap();
        let idx =
            |inp: usize, out: usize| paper::GRID.iter().position(|&p| p == (inp, out)).unwrap();
        assert!(
            grid.gpu_ms[idx(128, 1)] < grid.dfx_ms[idx(128, 1)],
            "GPU should win the summarization-only corner"
        );
        assert!(
            grid.dfx_ms[idx(32, 256)] * 3.0 < grid.gpu_ms[idx(32, 256)],
            "DFX should win the generation-heavy corner by a wide margin"
        );
        let s = grid.average_speedup();
        assert!(
            (s - 3.20).abs() / 3.20 < 0.35,
            "average speedup {s} too far from the paper's 3.20x"
        );
    }
}

//! Figures 15–18 and Table II: the DFX evaluation experiments.
//!
//! Each runner regenerates one artifact at the paper's operating point
//! (GPT-2 1.5B or 345M at the 64:64 chatbot workload; the workload and
//! cluster sizes are fixed by the figure, so there are no knobs):
//! [`fig15`] — DFX latency shares over the five decoder op classes, one
//! row per class against the paper's shares; [`fig16`] — tokens/s and
//! tokens/J of DFX vs the GPU appliance per workload row; [`fig17`] —
//! summarization/generation/total GFLOPS for GPU, TPU and DFX, one row
//! per platform; [`fig18`] — latency and throughput across 1/2/4-FPGA
//! clusters, one row per cluster size; [`table2`] — the cost analysis
//! (USD, tokens/s, tokens/s per million USD) with the paper's 8.21×
//! cost-effectiveness headline.

use crate::paper;
use crate::table::{fmt, fmt_ratio, ExperimentReport, MdTable};
use dfx_baseline::{GpuModel, TpuModel};
use dfx_model::{GptConfig, Workload};
use dfx_serve::{Backend, RunReport};
use dfx_sim::{dfx_stage_gflops, Appliance, CostComparison, SimError};

/// Figure 15: latency breakdown of 4 FPGAs on the 1.5B model.
pub fn fig15() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "fig15",
        "Figure 15: DFX latency breakdown (GPT-2 1.5B, 4 FPGAs)",
    );
    report.note(
        "Shares over the five decoder classes, excluding embedding and LM head (which the \
         paper's figure does not break out).",
    );
    let appliance = Appliance::timing_only(GptConfig::gpt2_1_5b(), 4)?;
    let run = appliance.generate_timed(64, 64)?;
    let shares = run.breakdown().fig15_shares();

    let mut t = MdTable::new(
        "Breakdown at the 64:64 workload",
        &["class", "share % (sim)", "share % (paper)"],
    );
    for (i, (class, share)) in shares.iter().enumerate() {
        t.push_row(vec![
            class.name().into(),
            fmt(*share, 1),
            fmt(paper::FIG15_SHARES[i], 1),
        ]);
    }
    report.table(t);
    Ok(report)
}

/// Figure 16: throughput and energy efficiency on the 1.5B model.
pub fn fig16() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "fig16",
        "Figure 16: Throughput and energy efficiency, DFX vs GPU (GPT-2 1.5B)",
    );
    let cfg = GptConfig::gpt2_1_5b();
    let gpu = GpuModel::new(cfg.clone(), 4);
    let dfx = Appliance::timing_only(cfg, 4)?;

    // Both platforms behind the unified Backend API: one report shape.
    let rows = std::thread::scope(|s| {
        let handles: Vec<_> = paper::GRID
            .iter()
            .map(|&(input, output)| {
                let gpu = &gpu;
                let dfx = &dfx;
                s.spawn(move || -> Result<(RunReport, RunReport), SimError> {
                    let w = Workload::new(input, output);
                    Ok((gpu.serve(w)?, dfx.serve(w)?))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| SimError::Service("a fig16 worker panicked".into()))?
            })
            .collect::<Result<Vec<_>, SimError>>()
    })?;

    let mut t = MdTable::new(
        "Per-workload throughput and energy efficiency",
        &[
            "[in:out]",
            "GPU tok/s",
            "DFX tok/s",
            "ratio",
            "GPU tok/J",
            "DFX tok/J",
            "energy ratio",
        ],
    );
    let mut tp_ratio_sum = 0.0;
    let mut en_ratio_sum = 0.0;
    let uncalibrated = || SimError::InvalidRequest("a platform has no power model".into());
    for (g, d) in &rows {
        let (gtps, dtps) = (g.tokens_per_second(), d.tokens_per_second());
        let gtpj = g.tokens_per_joule().ok_or_else(uncalibrated)?;
        let dtpj = d.tokens_per_joule().ok_or_else(uncalibrated)?;
        tp_ratio_sum += dtps / gtps;
        en_ratio_sum += dtpj / gtpj;
        t.push_row(vec![
            g.workload.to_string(),
            fmt(gtps, 2),
            fmt(dtps, 2),
            fmt_ratio(dtps / gtps),
            fmt(gtpj, 3),
            fmt(dtpj, 3),
            fmt_ratio(dtpj / gtpj),
        ]);
    }
    let n = rows.len() as f64;
    report.note(format!(
        "Average throughput ratio {:.2}x (paper {:.2}x); average energy-efficiency ratio {:.2}x \
         (paper {:.2}x).",
        tp_ratio_sum / n,
        paper::FIG16_THROUGHPUT_RATIO,
        en_ratio_sum / n,
        paper::FIG16_ENERGY_RATIO
    ));
    report.table(t);
    Ok(report)
}

/// Figure 17: GFLOPS of GPU, TPU and DFX on the 345M model at 64:64.
pub fn fig17() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "fig17",
        "Figure 17: GFLOPS of GPU, TPU and DFX (345M, 64:64)",
    );
    report.note(
        "The defining shape: GPU/TPU collapse by 1-2 orders of magnitude in the generation \
         stage; DFX sustains nearly identical GFLOPS in both stages. (The paper's absolute GPU \
         GFLOPS imply a lower per-token latency than its own Fig 14; we note the inconsistency \
         and report our model's accounting.)",
    );
    let cfg = GptConfig::gpt2_345m();
    let w = Workload::chatbot();

    let gpu = GpuModel::new(cfg.clone(), 1).stage_gflops(w);
    let tpu = TpuModel::new(cfg.clone()).stage_gflops(w);
    let dfx_run =
        Appliance::timing_only(cfg.clone(), 1)?.generate_timed(w.input_len, w.output_len)?;
    let dfx = dfx_stage_gflops(&cfg, &dfx_run);

    let mut t = MdTable::new(
        "Average GFLOPS per stage",
        &[
            "platform",
            "summarization (sim)",
            "generation (sim)",
            "total (sim)",
            "summarization (paper)",
            "generation (paper)",
            "total (paper)",
        ],
    );
    for (name, got, want) in [
        ("GPU (1x V100)", (gpu.0, gpu.1, gpu.2), paper::FIG17_GPU),
        ("TPU", (tpu.0, tpu.1, tpu.2), paper::FIG17_TPU),
        (
            "DFX (1x U280)",
            (dfx.summarization, dfx.generation, dfx.total),
            paper::FIG17_DFX,
        ),
    ] {
        t.push_row(vec![
            name.into(),
            fmt(got.0, 1),
            fmt(got.1, 1),
            fmt(got.2, 1),
            fmt(want[0], 1),
            fmt(want[1], 1),
            fmt(want[2], 1),
        ]);
    }
    report.table(t);
    Ok(report)
}

/// Figure 18: DFX scalability on the 345M model at 64:64.
pub fn fig18() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "fig18",
        "Figure 18: DFX scalability (345M, 64:64, 1/2/4 FPGAs)",
    );
    report.note(
        "The paper's Fig 18 throughputs (93.10 tok/s at 1 FPGA) are internally inconsistent \
         with its Fig 14 latencies (1031.2 ms for 64 tokens ≈ 62 tok/s); we calibrate to Fig 14 \
         and compare scaling *factors*, which is the figure's point.",
    );
    let cfg = GptConfig::gpt2_345m();
    let mut t = MdTable::new(
        "Throughput scaling",
        &[
            "FPGAs",
            "tok/s (sim)",
            "tok/s (paper)",
            "scaling vs previous (sim)",
            "scaling vs previous (paper)",
        ],
    );
    let mut prev: Option<f64> = None;
    let paper_scaling = [f64::NAN, 146.25 / 93.10, 207.56 / 146.25];
    for (i, fpgas) in [1usize, 2, 4].into_iter().enumerate() {
        let run = Appliance::timing_only(cfg.clone(), fpgas)?.serve(Workload::chatbot())?;
        let tps = run.tokens_per_second();
        let scale = prev.map(|p| tps / p);
        t.push_row(vec![
            fpgas.to_string(),
            fmt(tps, 2),
            fmt(paper::FIG18_TOKENS_PER_S[i], 2),
            scale.map_or("-".into(), fmt_ratio),
            if i == 0 {
                "-".into()
            } else {
                fmt_ratio(paper_scaling[i])
            },
        ]);
        prev = Some(tps);
    }
    report.table(t);
    Ok(report)
}

/// Table II: cost analysis.
pub fn table2() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new("table2", "Table II: Appliance cost analysis");
    let cfg = GptConfig::gpt2_1_5b();
    let w = Workload::chatbot();
    let gpu_tps = GpuModel::new(cfg.clone(), 4).serve(w)?.tokens_per_second();
    let dfx_tps = Appliance::timing_only(cfg, 4)?
        .serve(w)?
        .tokens_per_second();
    let cmp = CostComparison::from_throughput(gpu_tps, dfx_tps);

    let mut t = MdTable::new(
        "Cost-effectiveness at 1.5B, 64:64 (accelerator retail prices only)",
        &[
            "appliance",
            "tok/s (sim)",
            "tok/s (paper)",
            "cost $",
            "tok/s per M$ (sim)",
            "tok/s per M$ (paper)",
        ],
    );
    t.push_row(vec![
        cmp.gpu.name.clone(),
        fmt(cmp.gpu.tokens_per_second, 2),
        fmt(paper::TABLE2_GPU_TPS, 2),
        fmt(cmp.gpu.total_cost_usd(), 0),
        fmt(cmp.gpu.tokens_per_second_per_million_usd(), 2),
        "283.86".into(),
    ]);
    t.push_row(vec![
        cmp.dfx.name.clone(),
        fmt(cmp.dfx.tokens_per_second, 2),
        fmt(paper::TABLE2_DFX_TPS, 2),
        fmt(cmp.dfx.total_cost_usd(), 0),
        fmt(cmp.dfx.tokens_per_second_per_million_usd(), 2),
        "2330.98".into(),
    ]);
    report.note(format!(
        "Cost-effectiveness advantage: {:.2}x (paper {:.2}x); upfront saving ${:.0} (paper \
         $14,652).",
        cmp.dfx_advantage(),
        paper::TABLE2_ADVANTAGE,
        cmp.upfront_saving_usd()
    ));
    report.table(t);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_shares_resemble_paper_bands() {
        let r = fig15().unwrap();
        let get = |row: usize| r.tables[0].rows[row][1].parse::<f64>().unwrap();
        let sa = get(0);
        let ffn = get(1);
        let sync = get(2);
        let ln = get(3);
        let res = get(4);
        assert!((sa - 43.0).abs() < 12.0, "SA {sa}%");
        assert!((ffn - 29.6).abs() < 12.0, "FFN {ffn}%");
        assert!((sync - 17.3).abs() < 9.0, "Sync {sync}%");
        assert!((ln - 9.3).abs() < 6.0, "LN {ln}%");
        assert!(res < 4.0, "Residual {res}%");
    }

    #[test]
    fn fig18_scaling_is_sublinear_but_positive() {
        let r = fig18().unwrap();
        let tps: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[1].parse::<f64>().unwrap())
            .collect();
        assert!(tps[1] > tps[0] && tps[2] > tps[1], "{tps:?}");
        let s12 = tps[1] / tps[0];
        let s24 = tps[2] / tps[1];
        assert!(s12 > 1.2 && s12 < 2.0, "1->2 scaling {s12}");
        assert!(s24 > 1.1 && s24 < 2.0, "2->4 scaling {s24}");
        assert!(s24 < s12 + 0.3, "diminishing returns expected");
    }
}

//! Table I (model configurations) and the §VII-A accuracy experiment.
//!
//! [`table1`] prints the GPT-2 configurations of Table I (one row per
//! model: parameters, embedding dim, heads, head dim, layers) straight
//! from [`GptConfig`]; no knobs — it is the contract the other
//! experiments build on. [`accuracy`] reruns the §VII-A comparison: the
//! bit-level FP16 functional simulator against the FP32 reference on
//! the paper's task list (WSC, CBT-CN, CBT-NE, …), one row per task
//! with both accuracies and their gap (paper: ≤0.1%). Knobs: `full`
//! switches between quick (~500-item) and paper-size task sets, and
//! [`accuracy_with_tasks`] accepts arbitrary [`AccuracyTask`] lists for
//! the smoke tests.

use crate::paper;
use crate::table::{fmt, ExperimentReport, MdTable};
use dfx_model::GptConfig;
use dfx_sim::{
    accuracy_items, paper_tasks, quick_tasks, AccuracyResult, AccuracyScorer, AccuracyTask,
    Appliance, SimError,
};

/// Cores of the functional cluster the accuracy experiment runs.
const ACCURACY_CORES: usize = 2;

/// Seed of the accuracy experiment's synthetic contexts.
const ACCURACY_SEED: u64 = 0xACC0;

/// Contiguous item chunks the accuracy items are split into, each scored
/// by its own models on the worker pool. Fixed, so the split (and with it
/// every count) is the same on any machine.
const ACCURACY_CHUNKS: usize = 8;

/// Table I: GPT-2 model configuration.
pub fn table1() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new("table1", "Table I: GPT-2 model configuration");
    let mut t = MdTable::new(
        "",
        &[
            "model",
            "parameters",
            "embedding dim",
            "attention heads",
            "head dim",
            "layers",
        ],
    );
    for cfg in [
        GptConfig::gpt2_345m(),
        GptConfig::gpt2_774m(),
        GptConfig::gpt2_1_5b(),
    ] {
        t.push_row(vec![
            cfg.name.clone(),
            format!("{:.0}M", cfg.num_parameters() as f64 / 1e6),
            cfg.embedding_dim.to_string(),
            cfg.num_heads.to_string(),
            cfg.head_dim().to_string(),
            cfg.num_layers.to_string(),
        ]);
    }
    report.note(
        "Parameter counts include embeddings; the 1.5B configuration uses the paper's \
         24-head adjustment.",
    );
    report.table(t);

    // HBM provisioning at each model's published cluster size (§IV-A:
    // 8 GB of HBM2 per U280), cross-checking the memory model the
    // `memory` experiment builds on: the resident FP16 weight shard,
    // the K/V bytes one context token costs per device, and how many
    // context tokens of K/V the remaining budget holds.
    let mut m = MdTable::new(
        "HBM capacity per device (the memory model behind the `memory` experiment)",
        &[
            "model",
            "FPGAs",
            "HBM GiB/device",
            "weight shard MiB",
            "KV bytes/token",
            "KV budget (tokens)",
        ],
    );
    for (cfg, devices) in [
        (GptConfig::gpt2_345m(), 1),
        (GptConfig::gpt2_774m(), 2),
        (GptConfig::gpt2_1_5b(), 4),
    ] {
        let appliance = Appliance::timing_only(cfg.clone(), devices)?;
        let memory = appliance.memory_model();
        m.push_row(vec![
            cfg.name.clone(),
            devices.to_string(),
            fmt(memory.capacity_bytes as f64 / (1 << 30) as f64, 0),
            fmt(memory.weight_bytes as f64 / (1 << 20) as f64, 0),
            memory.kv_bytes_per_token.to_string(),
            memory.max_resident_tokens().to_string(),
        ]);
    }
    report.table(m);
    Ok(report)
}

/// §VII-A: inference accuracy of the FP16 DFX datapath.
pub fn accuracy(full: bool) -> Result<ExperimentReport, SimError> {
    let tasks = if full { paper_tasks() } else { quick_tasks() };
    let mut report = accuracy_with_tasks(&tasks)?;
    if !full {
        report.note("Quick mode: item counts scaled to 10% (run with --full for paper sizes).");
    }
    Ok(report)
}

/// The accuracy results, the same as `run_accuracy` gives: the items are
/// drawn in one sequence, split into [`ACCURACY_CHUNKS`] contiguous
/// chunks scored on the worker pool, and the per-task agreement counts
/// summed.
fn accuracy_results(tasks: &[AccuracyTask]) -> Result<Vec<AccuracyResult>, SimError> {
    let cfg = GptConfig::tiny();
    let items = accuracy_items(&cfg, tasks, ACCURACY_SEED);
    let chunks: Vec<_> = items
        .chunks(items.len().div_ceil(ACCURACY_CHUNKS).max(1))
        .collect();
    let counts = rayon_lite::par_map(&chunks, |chunk| {
        AccuracyScorer::new(&cfg, ACCURACY_CORES)?.count(tasks.len(), chunk)
    });
    let mut totals = vec![[0usize; 2]; tasks.len()];
    for chunk in counts {
        for (total, count) in totals.iter_mut().zip(chunk?) {
            total[0] += count[0];
            total[1] += count[1];
        }
    }
    Ok(AccuracyResult::from_counts(tasks, &totals))
}

/// §VII-A on an arbitrary task set. The paper runner delegates here; the
/// smoke tests pass micro task sets so the functional simulation stays
/// fast in debug builds.
///
/// # Errors
///
/// Fails if the functional simulation faults.
pub fn accuracy_with_tasks(tasks: &[AccuracyTask]) -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new(
        "accuracy",
        "Section VII-A: Inference accuracy (FP16 DFX vs FP32 reference)",
    );
    report.note(
        "Substitution: without the pretrained checkpoints and licensed datasets, task sets are \
         synthetic next-token-selection items of the paper's sizes; the measured property — \
         FP16 DFX selects the same token as the reference — is preserved (DESIGN.md).",
    );
    let results = accuracy_results(tasks)?;

    let mut t = MdTable::new(
        "Agreement with the FP32 reference (greedy next-token)",
        &[
            "task",
            "items",
            "DFX FP16 agreement %",
            "GPU FP16 agreement %",
            "delta pp (sim)",
            "delta % (paper)",
        ],
    );
    for (i, r) in results.iter().enumerate() {
        t.push_row(vec![
            r.name.clone(),
            r.items.to_string(),
            fmt(100.0 * r.dfx_agreement, 2),
            fmt(100.0 * r.gpu_fp16_agreement, 2),
            fmt(r.delta_percent(), 2),
            fmt(paper::ACCURACY_DELTAS[i.min(2)], 2),
        ]);
    }
    report.table(t);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let r = table1().unwrap();
        assert_eq!(r.tables[0].rows.len(), 3);
        assert_eq!(r.tables[0].rows[2][2], "1536");
        assert_eq!(r.tables[0].rows[2][5], "48");
    }

    #[test]
    fn chunked_accuracy_equals_the_serial_harness() {
        let tasks = [
            AccuracyTask {
                name: "a".into(),
                items: 5,
                context_len: 3,
            },
            AccuracyTask {
                name: "b".into(),
                items: 4,
                context_len: 4,
            },
        ];
        let serial =
            dfx_sim::run_accuracy(&GptConfig::tiny(), ACCURACY_CORES, &tasks, ACCURACY_SEED)
                .unwrap();
        assert_eq!(accuracy_results(&tasks).unwrap(), serial);
    }

    #[test]
    fn table1_hbm_line_matches_the_paper_hardware() {
        // §IV-A: 8 GB of HBM2 per U280; the 1.5B shard on 4 devices
        // costs 72 KiB of K/V per context token
        // (48 layers x 6 local heads x 64 dims x 2 x 2 B).
        let r = table1().unwrap();
        let hbm = &r.tables[1];
        assert_eq!(hbm.rows.len(), 3);
        for row in &hbm.rows {
            assert_eq!(row[2], "8");
        }
        assert_eq!(hbm.rows[2][4], (48u64 * 6 * 64 * 2 * 2).to_string());
    }
}

//! Inference-accuracy harness (paper §VII-A).
//!
//! The paper validates that the FP16 DFX datapath loses no accuracy
//! against the FP16 GPU on WSC (273 items), CBT-CN and CBT-NE (2,500
//! items each) — tasks that pick a word given a context. Without the
//! proprietary datasets and pretrained weights we preserve the *measured
//! property*: on synthetic contexts, does the DFX pipeline (MAC trees,
//! GELU LUT, lowered softmax/LayerNorm) select the same next token as a
//! reference model? Reported per task set:
//!
//! - `dfx_agreement` — DFX FP16 cluster vs FP32 reference;
//! - `gpu_fp16_agreement` — plain FP16 model (the GPU baseline's
//!   precision) vs FP32 reference;
//! - `delta` — their difference, the analogue of the paper's accuracy
//!   delta (0%, −0.3%, +0.15%).

use crate::cluster::FunctionalCluster;
use crate::error::SimError;
use dfx_model::{Gpt2Model, GptConfig, GptWeights};
use dfx_num::F16;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One synthetic evaluation task set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccuracyTask {
    /// Task name (mirrors the paper's dataset).
    pub name: String,
    /// Number of scored items.
    pub items: usize,
    /// Context length per item.
    pub context_len: usize,
}

/// The paper's three task sets at their published sizes.
pub fn paper_tasks() -> Vec<AccuracyTask> {
    vec![
        AccuracyTask {
            name: "WSC".into(),
            items: 273,
            context_len: 12,
        },
        AccuracyTask {
            name: "CBT-CN".into(),
            items: 2_500,
            context_len: 16,
        },
        AccuracyTask {
            name: "CBT-NE".into(),
            items: 2_500,
            context_len: 16,
        },
    ]
}

/// Scaled-down variants for quick runs.
pub fn quick_tasks() -> Vec<AccuracyTask> {
    paper_tasks()
        .into_iter()
        .map(|t| AccuracyTask {
            items: (t.items / 10).max(25),
            ..t
        })
        .collect()
}

/// Agreement results for one task set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyResult {
    /// Task name.
    pub name: String,
    /// Items scored.
    pub items: usize,
    /// Fraction of items where the DFX cluster's token equals the FP32
    /// reference's token.
    pub dfx_agreement: f64,
    /// Fraction where the plain FP16 model equals the FP32 reference.
    pub gpu_fp16_agreement: f64,
}

impl AccuracyResult {
    /// The results of `tasks` from their [`AccuracyScorer::count`]
    /// entries, summed over all of each task's items.
    pub fn from_counts(tasks: &[AccuracyTask], counts: &[[usize; 2]]) -> Vec<Self> {
        tasks
            .iter()
            .zip(counts)
            .map(|(task, &[dfx_agree, fp16_agree])| AccuracyResult {
                name: task.name.clone(),
                items: task.items,
                dfx_agreement: dfx_agree as f64 / task.items as f64,
                gpu_fp16_agreement: fp16_agree as f64 / task.items as f64,
            })
            .collect()
    }

    /// DFX accuracy delta vs the FP16 GPU baseline, in percentage points
    /// (positive = DFX agrees with FP32 more often).
    pub fn delta_percent(&self) -> f64 {
        100.0 * (self.dfx_agreement - self.gpu_fp16_agreement)
    }
}

/// The synthetic items of every task set, in task order, each as its
/// task's index and its context: `task.items` contexts of
/// `task.context_len` tokens each, all drawn in sequence from one RNG
/// seeded with `seed`.
pub fn accuracy_items(
    cfg: &GptConfig,
    tasks: &[AccuracyTask],
    seed: u64,
) -> Vec<(usize, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(tasks.iter().map(|t| t.items).sum());
    for (t, task) in tasks.iter().enumerate() {
        for _ in 0..task.items {
            let context = (0..task.context_len)
                .map(|_| rng.gen_range(0..cfg.vocab_size as u32))
                .collect();
            items.push((t, context));
        }
    }
    items
}

/// The three models an accuracy item runs through: the FP32 reference,
/// the plain FP16 model and the functional DFX cluster, on the synthetic
/// weights of one configuration. Items are independent, so the items of
/// [`accuracy_items`] can be split across several scorers and their
/// counts summed.
#[derive(Debug)]
pub struct AccuracyScorer {
    reference32: Gpt2Model<f32>,
    reference16: Gpt2Model<F16>,
    cluster: FunctionalCluster,
}

impl AccuracyScorer {
    /// Builds the models for `cfg` with a `num_cores` DFX cluster.
    ///
    /// # Errors
    ///
    /// Propagates cluster construction errors.
    pub fn new(cfg: &GptConfig, num_cores: usize) -> Result<Self, SimError> {
        let w32 = GptWeights::synthetic(cfg);
        let w16 = w32.cast::<F16>();
        Ok(AccuracyScorer {
            reference32: Gpt2Model::new(w32),
            reference16: Gpt2Model::new(w16.clone()),
            cluster: FunctionalCluster::new(w16, num_cores)?,
        })
    }

    /// Scores `items` of `num_tasks` task sets. Entry `t` counts the items
    /// of task `t` on which the DFX cluster's next token, and the plain
    /// FP16 model's, equal the FP32 reference's.
    ///
    /// # Errors
    ///
    /// Propagates cluster execution errors; an item naming a task past
    /// `num_tasks` is a [`SimError::InvalidRequest`].
    pub fn count(
        &mut self,
        num_tasks: usize,
        items: &[(usize, Vec<u32>)],
    ) -> Result<Vec<[usize; 2]>, SimError> {
        let mut counts = vec![[0usize; 2]; num_tasks];
        for (task, context) in items {
            let count = counts.get_mut(*task).ok_or_else(|| {
                SimError::InvalidRequest(format!("item of task {task} of {num_tasks}"))
            })?;
            let expect = self.reference32.generate(context, 1).tokens[0];
            let fp16 = self.reference16.generate(context, 1).tokens[0];
            self.cluster.reset()?;
            let dfx = self.cluster.generate(context, 1)?[0];
            count[0] += usize::from(dfx == expect);
            count[1] += usize::from(fp16 == expect);
        }
        Ok(counts)
    }
}

/// Runs the accuracy comparison on synthetic contexts.
///
/// # Errors
///
/// Propagates cluster construction/execution errors.
pub fn run_accuracy(
    cfg: &GptConfig,
    num_cores: usize,
    tasks: &[AccuracyTask],
    seed: u64,
) -> Result<Vec<AccuracyResult>, SimError> {
    let items = accuracy_items(cfg, tasks, seed);
    let counts = AccuracyScorer::new(cfg, num_cores)?.count(tasks.len(), &items)?;
    Ok(AccuracyResult::from_counts(tasks, &counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfx_matches_fp16_reference_closely_on_tiny_model() {
        let cfg = GptConfig::tiny();
        let tasks = vec![AccuracyTask {
            name: "smoke".into(),
            items: 40,
            context_len: 8,
        }];
        let results = run_accuracy(&cfg, 2, &tasks, 7).unwrap();
        let r = &results[0];
        // The paper's claim: FP16 costs (essentially) nothing. On random
        // weights agreement is high and DFX tracks the FP16 baseline.
        assert!(r.dfx_agreement > 0.9, "dfx agreement {}", r.dfx_agreement);
        assert!(
            r.delta_percent().abs() < 5.0,
            "delta {}%",
            r.delta_percent()
        );
    }

    #[test]
    fn paper_tasks_have_published_sizes() {
        let tasks = paper_tasks();
        assert_eq!(tasks[0].items, 273);
        assert_eq!(tasks[1].items, 2500);
        assert_eq!(tasks[2].items, 2500);
        assert!(quick_tasks().iter().all(|t| t.items < 300));
    }
}

//! One runner per paper table/figure (plus the service-level
//! experiments the paper argues but never measures).
//!
//! Every public runner returns an [`ExperimentReport`], wrapped in a
//! `Result` when its setup can fail; the `reproduce` binary maps
//! experiment ids onto them via [`CATALOG`], which is the single source
//! of truth for what ids exist, what they regenerate, and which runner
//! executes them ([`CatalogEntry::run`]).
//!
//! [`ExperimentReport`]: crate::table::ExperimentReport

use crate::table::ExperimentReport;
use dfx_sim::SimError;

mod ablation;
mod batching;
mod cluster;
mod continuous;
mod design;
mod evaluation;
mod fig14;
mod memory;
mod motivation;
mod serving;
mod tables;

pub use ablation::run as ablation;
pub use batching::{run as batching, run_setup as batching_setup};
pub use cluster::{run as cluster, run_setup as cluster_setup};
pub use continuous::{run as continuous, run_setup as continuous_setup};
pub use design::{fig13, fig8};
pub use evaluation::{fig15, fig16, fig17, fig18, table2};
pub use fig14::{grid_latencies_ms, run as fig14, run_model, ModelGrid};
pub use memory::{run as memory, run_setup as memory_setup};
pub use motivation::{fig3, fig4};
pub use serving::{run as serving, run_setup as serving_setup};
pub use tables::{accuracy, accuracy_with_tasks, table1};

/// One `reproduce` experiment: its command-line id, the paper artifact
/// (or service-level question) it regenerates, and the runner the
/// binary dispatches to.
pub struct CatalogEntry {
    /// The id accepted on the `reproduce` command line.
    pub id: &'static str,
    /// What the experiment regenerates.
    pub what: &'static str,
    /// Runs the experiment. The flag is `--full` (paper-size task
    /// sets); only the accuracy experiment consults it. An invalid
    /// setup comes back as a [`SimError`] for the caller to report.
    pub run: fn(bool) -> Result<ExperimentReport, SimError>,
}

/// Every experiment the `reproduce` binary accepts — the single source
/// of truth: ids, descriptions *and* dispatch. `--help` and unknown-id
/// errors print this list, and the binary runs experiments through
/// [`CatalogEntry::run`], so an id cannot exist without a runner.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        id: "table1",
        what: "Table I: GPT-2 model configurations",
        run: |_| table1(),
    },
    CatalogEntry {
        id: "fig3",
        what: "Figure 3: GPU text-generation latency vs input/output size",
        run: |_| Ok(fig3()),
    },
    CatalogEntry {
        id: "fig4",
        what: "Figure 4: GPU per-layer latency and operation-count breakdown",
        run: |_| Ok(fig4()),
    },
    CatalogEntry {
        id: "fig8",
        what: "Figure 8: tile-dimension/lane-count design-space exploration",
        run: |_| fig8(),
    },
    CatalogEntry {
        id: "fig13",
        what: "Figure 13: FPGA resource utilisation (Alveo U280)",
        run: |_| Ok(fig13()),
    },
    CatalogEntry {
        id: "fig14",
        what: "Figure 14: end-to-end latency grid, DFX vs the GPU appliance",
        run: |_| fig14(),
    },
    CatalogEntry {
        id: "fig15",
        what: "Figure 15: DFX latency breakdown (1.5B, 4 FPGAs)",
        run: |_| fig15(),
    },
    CatalogEntry {
        id: "fig16",
        what: "Figure 16: throughput and energy efficiency, DFX vs GPU",
        run: |_| fig16(),
    },
    CatalogEntry {
        id: "fig17",
        what: "Figure 17: GFLOPS of GPU, TPU and DFX by stage",
        run: |_| fig17(),
    },
    CatalogEntry {
        id: "fig18",
        what: "Figure 18: DFX scalability across 1/2/4 FPGAs",
        run: |_| fig18(),
    },
    CatalogEntry {
        id: "table2",
        what: "Table II: appliance cost analysis",
        run: |_| table2(),
    },
    CatalogEntry {
        id: "accuracy",
        what: "SVII-A: inference accuracy, FP16 DFX vs the FP32 reference",
        run: accuracy,
    },
    CatalogEntry {
        id: "ablation",
        what: "Design-choice ablations: transpose scheme, pipelining, scoreboard, tiling",
        run: |_| ablation(),
    },
    CatalogEntry {
        id: "serving",
        what: "SIII-A service level: tail latency under a Poisson stream, DFX vs GPU",
        run: |_| serving(),
    },
    CatalogEntry {
        id: "batching",
        what: "Batched serving: batch size x arrival rate, Batching scheduler on both appliances",
        run: |_| batching(),
    },
    CatalogEntry {
        id: "continuous",
        what: "Continuous batching: token-boundary scheduling vs static batching vs batch-1",
        run: |_| continuous(),
    },
    CatalogEntry {
        id: "memory",
        what: "HBM/KV memory subsystem: capacity-bounded admission and chunked prefill",
        run: |_| memory(),
    },
    CatalogEntry {
        id: "cluster",
        what: "Cluster tier: placement policy, session affinity, disaggregation, wide sharding",
        run: |_| cluster(),
    },
];

#[cfg(test)]
mod catalog_tests {
    use super::CATALOG;

    #[test]
    fn catalog_ids_are_unique_and_nonempty() {
        let mut ids: Vec<&str> = CATALOG.iter().map(|e| e.id).collect();
        assert!(!ids.is_empty());
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CATALOG.len(), "duplicate catalog id");
        assert!(CATALOG
            .iter()
            .all(|e| !e.id.is_empty() && !e.what.is_empty()));
    }
}

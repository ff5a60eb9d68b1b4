//! Smoke tests for the paper harness: every experiment runner must
//! complete and produce a well-formed, non-degenerate report so that
//! regressions in `crates/bench/src/experiments/` are caught by
//! `cargo test`, not first noticed when someone reruns `reproduce`.

use dfx_bench::experiments;
use dfx_bench::table::ExperimentReport;
use dfx_model::GptConfig;
use dfx_sim::{AccuracyTask, SimError};

/// A report is well-formed when it carries the expected id, at least one
/// table with at least one row, and renders to markdown free of NaN/inf
/// artifacts (a degenerate number in any cell is a harness regression).
fn assert_well_formed(report: &ExperimentReport, id: &str) {
    assert_eq!(report.id, id, "report id mismatch");
    assert!(!report.title.is_empty(), "{id}: empty title");
    assert!(!report.tables.is_empty(), "{id}: no tables");
    let md = report.to_markdown();
    assert!(md.contains('|'), "{id}: markdown has no table rows");
    // A degenerate float formats as `NaN`, `inf` or `-inf`; scan table
    // cells token-wise so prose like "buffer-infeasible" doesn't trip it.
    for line in md.lines().filter(|l| l.starts_with('|')) {
        for cell in line.split('|') {
            for token in cell.split_whitespace() {
                let token = token.trim_matches(|c: char| "()+%x,".contains(c));
                assert!(
                    !matches!(token, "NaN" | "-NaN" | "inf" | "-inf"),
                    "{id}: degenerate value in row: {line}"
                );
            }
        }
    }
}

#[test]
fn motivation_experiments_produce_reports() {
    assert_well_formed(&experiments::fig3(), "fig3");
    assert_well_formed(&experiments::fig4(), "fig4");
}

#[test]
fn design_experiments_produce_reports() {
    assert_well_formed(&experiments::fig8().unwrap(), "fig8");
    assert_well_formed(&experiments::fig13(), "fig13");
}

#[test]
fn evaluation_experiments_produce_reports() {
    assert_well_formed(&experiments::fig15().unwrap(), "fig15");
    assert_well_formed(&experiments::fig16().unwrap(), "fig16");
    assert_well_formed(&experiments::fig17().unwrap(), "fig17");
    assert_well_formed(&experiments::fig18().unwrap(), "fig18");
    assert_well_formed(&experiments::table2().unwrap(), "table2");
}

#[test]
fn table_experiments_produce_reports() {
    assert_well_formed(&experiments::table1().unwrap(), "table1");
    // Micro task sets: the accuracy harness runs the bit-level functional
    // simulator per item, so even quick mode (~500 items) takes minutes
    // in debug builds. A handful of items per task exercises the same
    // path; `reproduce accuracy [--full]` covers the real sizes.
    let micro: Vec<AccuracyTask> = ["WSC", "CBT-CN", "CBT-NE"]
        .iter()
        .map(|name| AccuracyTask {
            name: (*name).into(),
            items: 5,
            context_len: 8,
        })
        .collect();
    assert_well_formed(
        &experiments::accuracy_with_tasks(&micro).unwrap(),
        "accuracy",
    );
}

#[test]
fn ablation_experiment_produces_report() {
    assert_well_formed(&experiments::ablation().unwrap(), "ablation");
}

#[test]
fn serving_experiment_produces_report_on_a_tiny_config() {
    // The headline sweep (`reproduce serving`) runs the 1.5B appliance;
    // this smoke config exercises the same engine/report machinery at
    // test speed. The in-module 345M unit test covers the qualitative
    // divergence shape.
    let cfg = GptConfig::new("serving-smoke", 64, 2, 2, 512, 640);
    let report = experiments::serving_setup(cfg, 1, 24, &[5.0, 50.0]).unwrap();
    assert_well_formed(&report, "serving");
    assert_eq!(report.tables[0].rows.len(), 2);
}

#[test]
fn an_indivisible_device_count_is_a_partition_error() {
    // Two heads do not split across three devices: the runner returns
    // the appliance's typed error instead of panicking.
    let cfg = GptConfig::new("serving-smoke", 64, 2, 2, 512, 640);
    let err = experiments::serving_setup(cfg, 3, 24, &[5.0]).unwrap_err();
    assert!(matches!(err, SimError::Partition(_)), "{err:?}");
}

#[test]
fn batching_experiment_produces_report_on_a_tiny_config() {
    // The headline sweep (`reproduce batching`) runs the 1.5B appliance;
    // this smoke config exercises the batched engine/report machinery at
    // test speed. The in-module tests cover the batch-1 == `serving`
    // identity and the GPU goodput shape.
    let cfg = GptConfig::new("batching-smoke", 64, 2, 2, 512, 640);
    let report = experiments::batching_setup(cfg, 1, 24, &[1, 4], &[5.0, 50.0], 20.0).unwrap();
    assert_well_formed(&report, "batching");
    // 2 appliances x 2 batch sizes x 2 rates.
    assert_eq!(report.tables[0].rows.len(), 8);
}

#[test]
fn continuous_experiment_produces_report_on_a_tiny_config() {
    // The headline sweep (`reproduce continuous`) runs the 1.5B
    // appliance; this smoke config exercises the token-boundary
    // engine/report machinery at test speed. The in-module tests cover
    // the continuous batch-1 == `serving` identity and the
    // continuous-dominates-static shape.
    let cfg = GptConfig::new("continuous-smoke", 64, 2, 2, 512, 640);
    let report = experiments::continuous_setup(cfg, 1, 24, &[1, 4], &[5.0, 50.0], 20.0).unwrap();
    assert_well_formed(&report, "continuous");
    // 2 appliances x (1 batch-1 + 2x2 discipline/batch) x 2 rates.
    assert_eq!(report.tables[0].rows.len(), 20);
}

#[test]
fn memory_experiment_produces_report_on_a_tiny_config() {
    // The headline sweep (`reproduce memory`) runs the 1.5B appliance;
    // this smoke config exercises the capacity/chunk/policy machinery
    // at test speed. The in-module tests cover the capacity-bounded
    // peak-batch shape, the chunked-prefill stall win and the PR-4
    // row-identity guarantee.
    let cfg = GptConfig::new("memory-smoke", 64, 2, 2, 512, 640);
    let report = experiments::memory_setup(cfg, 1, 12, &[1, 2], &[8], &[5.0, 50.0], 4).unwrap();
    assert_well_formed(&report, "memory");
    assert_eq!(report.tables.len(), 4);
    // 2 capacities + the unbounded row.
    assert_eq!(report.tables[0].rows.len(), 3);
    // 2 rates x (whole + 1 chunk budget).
    assert_eq!(report.tables[1].rows.len(), 4);
    // greedy, slo-deferral, slo + chunk.
    assert_eq!(report.tables[2].rows.len(), 3);
    // 3 paged-sweep capacities x 4 allocators.
    assert_eq!(report.tables[3].rows.len(), 12);
}

#[test]
fn cluster_experiment_produces_report_on_a_tiny_config() {
    // The headline sweep (`reproduce cluster`) routes across four 1.5B
    // replicas; this smoke config exercises the router/report machinery
    // at test speed. The in-module tests cover the three acceptance
    // shapes: K/V-aware placement beating round-robin's resonant p99,
    // session affinity lifting prefix hits, and the disaggregated
    // topology's nonzero transfer cost.
    let cfg = GptConfig::new("cluster-smoke", 64, 2, 2, 512, 640);
    let report = experiments::cluster_setup(cfg, 2, 16, 200.0, 320, 4, &[1, 2]).unwrap();
    assert_well_formed(&report, "cluster");
    assert_eq!(report.tables.len(), 4);
    // round-robin, least-outstanding, least-kv-loaded.
    assert_eq!(report.tables[0].rows.len(), 3);
    // sprayed vs pinned.
    assert_eq!(report.tables[1].rows.len(), 2);
    // unified vs disaggregated.
    assert_eq!(report.tables[2].rows.len(), 2);
    // one row per shard width.
    assert_eq!(report.tables[3].rows.len(), 2);
}

#[test]
fn every_catalog_id_is_runnable_and_vice_versa() {
    // The catalog is the single source of truth for `reproduce` — ids,
    // descriptions and dispatch live in one table, so an id cannot
    // exist without a runner. This pins the expected id set.
    let ids: Vec<&str> = experiments::CATALOG.iter().map(|e| e.id).collect();
    for required in [
        "table1",
        "fig3",
        "fig4",
        "fig8",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "table2",
        "accuracy",
        "ablation",
        "serving",
        "batching",
        "continuous",
        "memory",
        "cluster",
    ] {
        assert!(ids.contains(&required), "catalog is missing `{required}`");
    }
    assert_eq!(ids.len(), 18, "unexpected catalog entries: {ids:?}");
}

#[test]
fn fig14_grid_runs_on_a_tiny_config() {
    // The full fig14 report spans three paper-scale models; this tiny
    // model exercises the same grid machinery at test speed. The paper
    // grid reaches input 256 + output 256 tokens, so the smoke config
    // needs a longer context than `GptConfig::tiny()`'s 128.
    let cfg = GptConfig::new("fig14-smoke", 64, 2, 2, 512, 640);
    let grid = experiments::run_model(cfg, 1).unwrap();
    assert_eq!(grid.gpu_ms.len(), grid.dfx_ms.len());
    assert!(!grid.gpu_ms.is_empty(), "empty fig14 grid");
    for (g, d) in grid.gpu_ms.iter().zip(&grid.dfx_ms) {
        assert!(g.is_finite() && *g > 0.0, "GPU latency degenerate: {g}");
        assert!(d.is_finite() && *d > 0.0, "DFX latency degenerate: {d}");
    }
    let speedup = grid.average_speedup();
    assert!(
        speedup.is_finite() && speedup > 0.0,
        "degenerate average speedup: {speedup}"
    );
}

// The full fig14 report simulates the complete 15-point grid on all three
// paper models (up to 256 generated tokens per point) — minutes in debug
// builds. The grid machinery is covered at test speed by
// `fig14_grid_runs_on_a_tiny_config` and by the in-module 345M unit test;
// run this one with `cargo test -- --ignored` or via `reproduce fig14`.
#[test]
#[ignore = "paper-scale grid; covered by the tiny-config test above"]
fn fig14_full_report_is_well_formed() {
    assert_well_formed(&experiments::fig14().unwrap(), "fig14");
}

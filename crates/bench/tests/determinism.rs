//! Cross-run determinism: the dynamic twin of lint rules R1/R2.
//!
//! `dfx-lint` bans the *sources* of nondeterminism (randomized
//! iteration order, wall clocks, ambient RNGs) statically; this harness
//! pins the *property* those bans exist for — identical seeds produce
//! bit-identical reports. Every comparison below is `==` on the full
//! report structure, so a single differing bit in any cell, note or
//! metric fails.

use dfx_bench::{experiments, observability, paper};
use dfx_model::{GptConfig, Workload};
use dfx_serve::{ArrivalProcess, ContinuousBatching, ServingEngine};
use dfx_sim::{Appliance, ContinuousStepper};

#[test]
fn continuous_sweep_is_bit_identical_across_runs() {
    let run = || {
        let cfg = GptConfig::new("continuous-smoke", 64, 2, 2, 512, 640);
        experiments::continuous_setup(cfg, 1, 24, &[1, 4], &[5.0, 50.0], 20.0).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "two in-process continuous sweeps with identical seeds diverged"
    );
}

#[test]
fn memory_sweep_is_bit_identical_across_runs() {
    let run = || {
        let cfg = GptConfig::new("memory-smoke", 64, 2, 2, 512, 640);
        experiments::memory_setup(cfg, 1, 12, &[1, 2], &[8], &[5.0, 50.0], 4).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "two in-process memory sweeps with identical seeds diverged"
    );
}

#[test]
fn cluster_sweep_is_bit_identical_across_runs() {
    let run = || {
        let cfg = GptConfig::new("cluster-smoke", 64, 2, 2, 512, 640);
        experiments::cluster_setup(cfg, 2, 16, 200.0, 320, 4, &[1, 2]).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "two in-process cluster sweeps with identical seeds diverged"
    );
}

#[test]
fn sweeps_are_bit_identical_with_the_worker_pool_off() {
    // The experiment sweeps fan independent cells out over the
    // rayon-lite pool; `with_max_threads(1)` forces the same sweep
    // fully serial on the calling thread. Any divergence means a cell
    // read something it shouldn't (shared memo, accumulation order,
    // thread identity) — results must not depend on the thread count.
    let continuous = || {
        let cfg = GptConfig::new("continuous-smoke", 64, 2, 2, 512, 640);
        experiments::continuous_setup(cfg, 1, 24, &[1, 4], &[5.0, 50.0], 20.0).unwrap()
    };
    let memory = || {
        let cfg = GptConfig::new("memory-smoke", 64, 2, 2, 512, 640);
        experiments::memory_setup(cfg, 1, 12, &[1, 2], &[8], &[5.0, 50.0], 4).unwrap()
    };
    let cluster = || {
        let cfg = GptConfig::new("cluster-smoke", 64, 2, 2, 512, 640);
        experiments::cluster_setup(cfg, 2, 16, 200.0, 320, 4, &[1, 2]).unwrap()
    };
    let (pooled_c, pooled_m, pooled_k) = (continuous(), memory(), cluster());
    let serial_c = rayon_lite::with_max_threads(1, continuous);
    let serial_m = rayon_lite::with_max_threads(1, memory);
    let serial_k = rayon_lite::with_max_threads(1, cluster);
    assert_eq!(pooled_c, serial_c, "continuous sweep depends on the pool");
    assert_eq!(pooled_m, serial_m, "memory sweep depends on the pool");
    assert_eq!(pooled_k, serial_k, "cluster sweep depends on the pool");
}

#[test]
fn step_cost_table_fill_order_changes_no_latency() {
    // An appliance times each step program once and keeps it in a
    // table shared by every timed path and worker thread. Whatever
    // order fills the table, a warm lookup returns the cold value.
    let cfg = GptConfig::new("fig14-smoke", 64, 2, 2, 512, 640);
    let appliance = || Appliance::timing_only(cfg.clone(), 1).expect("partitionable");
    let bits = |ms: Vec<f64>| ms.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let grid = |a: &Appliance| bits(experiments::grid_latencies_ms(a).expect("grid fits"));

    let shared = appliance();
    let (cold, warm) = rayon_lite::with_max_threads(4, || (grid(&shared), grid(&shared)));
    assert_eq!(cold, warm, "a warm table changed a grid latency");
    let serial = rayon_lite::with_max_threads(1, || grid(&appliance()));
    assert_eq!(
        cold, serial,
        "the table's thread fill order changed a latency"
    );

    // Continuous-style steps first: batch-1 prefills and batch-k decode
    // steps enter the table before the static path reads it.
    let stepped = appliance();
    let mut batch = stepped.batch_state();
    batch.set_prefill_chunk(Some(48));
    for (id, &(input, output)) in paper::GRID.iter().enumerate() {
        batch
            .admit(id as u64, Workload::new(input, output))
            .expect("grid shape fits");
        if batch.live() > 0 {
            batch.step_token().expect("a member is live");
        }
    }
    while batch.live() > 0 {
        batch.step_token().expect("a member is live");
    }
    assert!(stepped.timed_step_programs() > 0);
    assert_eq!(
        cold,
        grid(&stepped),
        "stepping before the static path changed a latency"
    );
}

#[test]
fn telemetry_dumps_are_byte_identical_across_runs() {
    // The acceptance property for `reproduce --metrics/--trace`: two
    // in-process captures of the same serving id produce byte-identical
    // Prometheus exposition text and Chrome trace JSON. Every serving id
    // is pinned, not just the headline `continuous` one.
    for id in observability::SERVING_IDS {
        let run = || {
            let cfg = GptConfig::new("telemetry-smoke", 64, 2, 2, 512, 640);
            observability::capture_setup(id, cfg, 1, 16, 50.0).expect("capture succeeds")
        };
        let first = run();
        let second = run();
        assert_eq!(
            first.metrics_text, second.metrics_text,
            "{id}: metrics text diverged between identical runs"
        );
        assert_eq!(
            first.trace_json, second.trace_json,
            "{id}: trace JSON diverged between identical runs"
        );
        assert_eq!(first, second, "{id}: dump metadata diverged");
    }
}

#[test]
fn service_reports_are_bit_identical_across_engine_runs() {
    // Below the sweep tables: the raw ServiceReport (every response's
    // timing, utilization, queue depths) from a seeded Poisson stream
    // through the continuous scheduler, twice.
    let run = || {
        let cfg = GptConfig::new("det-smoke", 64, 2, 2, 512, 640);
        let appliance = Appliance::timing_only(cfg, 1)?;
        let workloads: Vec<Workload> = (0..24)
            .map(|i| Workload::new(8 + (i % 5) * 4, 4 + (i % 3) * 2))
            .collect();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 40.0,
            seed: 7,
        };
        ServingEngine::new(&appliance)
            .with_scheduler(Box::new(ContinuousBatching::new(4)))
            .run(&workloads, &arrivals)
    };
    let first = run().expect("first run succeeds");
    let second = run().expect("second run succeeds");
    assert_eq!(first, second, "seeded engine runs diverged bit for bit");
}

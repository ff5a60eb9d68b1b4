//! Criterion benches for the simulator engines themselves: how fast the
//! compiler, the timing engine and the functional executor run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dfx_core::{CoreParams, CoreWeights, FunctionalCore, TimingCore};
use dfx_isa::{ParallelConfig, ProgramBuilder};
use dfx_model::{GptConfig, GptWeights};
use dfx_num::F16;

fn bench_program_builder(c: &mut Criterion) {
    let mut g = c.benchmark_group("builder");
    for (name, cfg, cores) in [
        ("tiny_2core", GptConfig::tiny(), 2usize),
        ("1.5b_4core", GptConfig::gpt2_1_5b(), 4),
    ] {
        let b = ProgramBuilder::new(cfg, ParallelConfig::new(0, cores)).unwrap();
        g.bench_function(format!("token_step/{name}"), |bench| {
            bench.iter(|| b.token_step(black_box(63), true))
        });
    }
    g.finish();
}

fn bench_timing_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("timing");
    g.sample_size(20);
    for (name, cfg, cores) in [
        ("tiny_2core", GptConfig::tiny(), 2usize),
        ("1.5b_4core", GptConfig::gpt2_1_5b(), 4),
    ] {
        let b = ProgramBuilder::new(cfg, ParallelConfig::new(0, cores)).unwrap();
        let program = b.token_step(63, true);
        let engine = TimingCore::new(CoreParams::default(), cores as u32);
        g.bench_function(format!("time_step/{name}"), |bench| {
            bench.iter(|| engine.time_step(black_box(&program)))
        });
        if cores == 4 {
            g.bench_function(format!("time_step_batched/{name}_b8"), |bench| {
                bench.iter(|| engine.time_step_batched(black_box(&program), 8))
            });
            // The step table's miss path: builds and times the same step
            // part by part.
            for (suffix, batch) in [("", 1), ("_b8", 8)] {
                g.bench_function(format!("time_token_step/{name}{suffix}"), |bench| {
                    bench.iter(|| engine.time_token_step(&b, black_box(63), true, batch))
                });
            }
            let unchecked = engine.clone().without_scoreboard();
            g.bench_function(format!("time_step/{name}_without_scoreboard"), |bench| {
                bench.iter(|| unchecked.time_step(black_box(&program)))
            });
        }
    }
    g.finish();
}

fn bench_functional_step(c: &mut Criterion) {
    let cfg = GptConfig::tiny();
    let weights = GptWeights::synthetic(&cfg).cast::<F16>();
    let par = ParallelConfig::new(0, 1);
    let builder = ProgramBuilder::new(cfg, par).unwrap();
    let program = builder.token_step(0, true);
    let core_weights = CoreWeights::partition_cluster(weights, 1)
        .expect("tiny model partitions")
        .swap_remove(0);
    let mut core = FunctionalCore::new(core_weights);
    let mut g = c.benchmark_group("functional");
    g.sample_size(20);
    g.bench_function("token_step/tiny_1core", |bench| {
        bench.iter(|| {
            // Reset per iteration: the step mutates the KV cache.
            core.reset();
            core.begin_step(black_box(5));
            core.run(&program, 0)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_program_builder,
    bench_timing_engine,
    bench_functional_step
);
criterion_main!(benches);

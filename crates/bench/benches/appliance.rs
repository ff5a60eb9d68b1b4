//! Criterion benches for end-to-end experiment throughput: how long the
//! harness takes to regenerate paper data points.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dfx_baseline::{GpuModel, TpuModel};
use dfx_model::{Gpt2Model, GptConfig, GptWeights, Workload};
use dfx_sim::Appliance;

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline");
    let gpu = GpuModel::new(GptConfig::gpt2_1_5b(), 4);
    let tpu = TpuModel::new(GptConfig::gpt2_345m());
    g.bench_function("gpu_run_32_256", |b| {
        b.iter(|| gpu.run(black_box(Workload::new(32, 256))))
    });
    g.bench_function("tpu_run_64_64", |b| {
        b.iter(|| tpu.run(black_box(Workload::chatbot())))
    });
    g.finish();
}

fn bench_appliance(c: &mut Criterion) {
    let mut g = c.benchmark_group("appliance");
    g.sample_size(10);
    // Cold: a fresh appliance (construction is microseconds) with an
    // empty step table, so every tile class runs the cycle model.
    g.bench_function("generate_timed_1.5b_32_4_cold", |b| {
        b.iter(|| {
            Appliance::timing_only(GptConfig::gpt2_1_5b(), 4)
                .unwrap()
                .generate_timed(black_box(32), black_box(4))
                .unwrap()
        })
    });
    // Warm: the same shape again on one appliance, every step a table
    // lookup.
    let appliance = Appliance::timing_only(GptConfig::gpt2_1_5b(), 4).unwrap();
    g.bench_function("generate_timed_1.5b_32_4_warm", |b| {
        b.iter(|| {
            appliance
                .generate_timed(black_box(32), black_box(4))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_reference_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("reference");
    g.sample_size(20);
    let model = Gpt2Model::new(GptWeights::synthetic(&GptConfig::tiny()));
    g.bench_function("generate_tiny_8_8", |b| {
        b.iter(|| model.generate(black_box(&[1, 2, 3, 4, 5, 6, 7, 8]), 8))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_baselines,
    bench_appliance,
    bench_reference_model
);
criterion_main!(benches);

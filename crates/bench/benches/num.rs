//! Criterion benches for the half-precision datapath primitives.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dfx_model::Matrix;
use dfx_num::{reduce, GeluLut, F16};

fn bench_f16(c: &mut Criterion) {
    let mut g = c.benchmark_group("f16");
    g.bench_function("from_f32", |b| {
        b.iter(|| F16::from_f32(black_box(1.2345f32)))
    });
    let x = F16::from_f32(1.5);
    let y = F16::from_f32(2.25);
    g.bench_function("add", |b| b.iter(|| black_box(x) + black_box(y)));
    g.bench_function("mul", |b| b.iter(|| black_box(x) * black_box(y)));
    g.finish();
}

/// Best of five timings of `calls` calls of `f`, in ns per each of the
/// `ops_per_call` operations a call performs.
fn ns_per_op(calls: u32, ops_per_call: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        // lint: allow(ambient-time, wall-clock cost per op is this bench's measurement)
        let start = std::time::Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / (f64::from(calls) * f64::from(ops_per_call))
}

/// A 256×256 FP16 vector-matrix product (the reference model's `vecmat`,
/// one multiply and one add per weight) and the same matrix applied to
/// 16 rows in one pass (the summarization stage's `matmul_bias`), each
/// reported as ns per F16 op; and one `d × l` = 64×16 widened weight
/// tile through the executor's lane-parallel MAC trees, reported as ns
/// per MAC.
fn bench_vecmat(c: &mut Criterion) {
    const N: usize = 256;
    const OPS_PER_CALL: u32 = 2 * (N * N) as u32;
    let w = Matrix::from_fn(N, N, |r, c| {
        F16::from_f32(((r * 7 + c * 3) % 17) as f32 * 0.01)
    });
    let x: Vec<F16> = (0..N)
        .map(|i| F16::from_f32((i % 13) as f32 * 0.05))
        .collect();
    const D: usize = 64;
    const MACS_PER_CALL: u32 = (D * reduce::LANES) as u32;
    let wide: Vec<f32> = x[..D].iter().map(|v| v.to_f32()).collect();
    let tile: Vec<[f32; reduce::LANES]> = w.as_slice()[..D * reduce::LANES]
        .chunks_exact(reduce::LANES)
        .map(|row| std::array::from_fn(|l| row[l].to_f32()))
        .collect();
    const ROWS: usize = 16;
    let rows = Matrix::from_fn(ROWS, N, |r, c| x[(c + 5 * r) % N]);
    let bias = vec![F16::ZERO; N];
    let mut table = Vec::new();
    let mut g = c.benchmark_group("f16");
    g.bench_function("vecmat_256", |b| b.iter(|| w.vecmat(black_box(&x))));
    g.bench_function("vecmat_rows_16x256", |b| {
        b.iter(|| w.matmul_bias(black_box(&rows), &bias))
    });
    g.bench_function("mac_tile_64x16", |b| {
        b.iter(|| {
            reduce::mac_tile(
                black_box(&wide),
                black_box(&tile),
                reduce::LANES,
                &mut table,
            )
        })
    });
    g.finish();

    let calls = 200;
    let per_op = ns_per_op(calls, OPS_PER_CALL, || {
        black_box(w.vecmat(black_box(&x)));
    });
    println!("f16/vecmat_256 per op                    {per_op:.2} ns per F16 op (best of 5 x {calls} calls)");
    let calls = 20;
    let per_op = ns_per_op(calls, OPS_PER_CALL * ROWS as u32, || {
        black_box(w.matmul_bias(black_box(&rows), &bias));
    });
    println!("f16/vecmat_rows_16x256 per op            {per_op:.2} ns per F16 op (best of 5 x {calls} calls)");
    let calls = 20_000;
    let per_mac = ns_per_op(calls, MACS_PER_CALL, || {
        black_box(reduce::mac_tile(
            black_box(&wide),
            black_box(&tile),
            reduce::LANES,
            &mut table,
        ));
    });
    println!("f16/mac_tile_64x16 per MAC               {per_mac:.2} ns per MAC (best of 5 x {calls} calls)");
}

fn bench_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce");
    let v64: Vec<F16> = (0..64).map(|i| F16::from_f32(i as f32 * 0.01)).collect();
    let v4k: Vec<F16> = (0..4096)
        .map(|i| F16::from_f32((i % 97) as f32 * 0.01))
        .collect();
    let w64 = vec![F16::from_f32(0.5); 64];
    g.bench_function("tree_sum_64", |b| {
        b.iter(|| reduce::tree_sum(black_box(&v64)))
    });
    g.bench_function("tree_sum_4096", |b| {
        b.iter(|| reduce::tree_sum(black_box(&v4k)))
    });
    g.bench_function("mac_tree_64", |b| {
        b.iter(|| reduce::mac_tree(black_box(&v64), black_box(&w64)))
    });
    g.finish();
}

fn bench_gelu(c: &mut Criterion) {
    let lut = GeluLut::new();
    let x = F16::from_f32(0.7);
    c.bench_function("gelu_lut_eval", |b| b.iter(|| lut.eval(black_box(x))));
}

criterion_group!(benches, bench_f16, bench_vecmat, bench_reduce, bench_gelu);
criterion_main!(benches);

//! Softmax micro-benchmarks: the SAS claim is that LUT×POLY beats `exp`
//! element-for-element; these benches measure that on the CPU substrate
//! (the GPU-side factor is modelled in `turbo-gpusim`).

use turbo_bench::harness::Criterion;
use turbo_bench::{criterion_group, criterion_main};
use std::hint::black_box;
use turbo_softmax::{softmax, Sas, PAPER_POLY};
use turbo_tensor::TensorRng;

fn scores() -> turbo_tensor::Matrix {
    TensorRng::new(11).normal(64, 256, 0.0, 3.0)
}

fn bench_exp_scalar(c: &mut Criterion) {
    let mut rng = TensorRng::new(12);
    let xs: Vec<f32> = (0..4096)
        .map(|_| -rng.standard_normal().abs() * 3.0)
        .collect();
    let sas = Sas::paper_default();
    let sas16 = Sas::paper_default().with_f16_poly(true);
    let mut g = c.benchmark_group("softmax/exp_4096");
    g.bench_function("std_exp", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &x in black_box(&xs) {
                acc += x.exp();
            }
            acc
        })
    });
    g.bench_function("sas", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &x in black_box(&xs) {
                acc += sas.exp(x);
            }
            acc
        })
    });
    g.bench_function("sas_f16_poly", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &x in black_box(&xs) {
                acc += sas16.exp(x);
            }
            acc
        })
    });
    g.finish();
}

fn bench_full_softmax(c: &mut Criterion) {
    let m = scores();
    let sas = Sas::paper_default();
    let mut g = c.benchmark_group("softmax/full_64x256");
    g.bench_function("exact", |b| b.iter(|| softmax(black_box(&m))));
    g.bench_function("sas", |b| b.iter(|| sas.try_softmax(black_box(&m)).unwrap()));
    g.finish();
}

fn bench_threshold_sweep(c: &mut Criterion) {
    let m = scores();
    let mut g = c.benchmark_group("softmax/sas_threshold");
    for nr in [-3i32, -6, -9] {
        let sas = Sas::new(nr, PAPER_POLY);
        g.bench_function(format!("n_r={nr}"), |b| {
            b.iter(|| sas.try_softmax(black_box(&m)).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_exp_scalar,
    bench_full_softmax,
    bench_threshold_sweep
);
criterion_main!(benches);

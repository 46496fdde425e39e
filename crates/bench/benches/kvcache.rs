//! KV-cache benchmarks, including the universal-scale buffer ablation
//! from DESIGN.md: fixed-scale append+clamp (the paper's design) vs
//! re-deriving a scale for every appended row.

use turbo_bench::harness::{BatchSize, Criterion};
use turbo_bench::{criterion_group, criterion_main};
use std::hint::black_box;
use turbo_kvcache::{
    deserialize_head_cache, serialize_head_cache, DequantTile, HeadKvCache, Int8Buffer,
    KvCacheConfig,
};
use turbo_quant::symmetric::quantize_slice_sym;
use turbo_quant::{BitWidth, ProgressiveBlock, SymQuantized};
use turbo_tensor::{Matrix, TensorRng};

const D: usize = 128;

fn rows(n: usize) -> Matrix {
    TensorRng::new(41).normal(n, D, 0.0, 1.0)
}

fn bench_buffer_append(c: &mut Criterion) {
    let data = rows(64);
    let mut g = c.benchmark_group("kvcache/buffer_scale_ablation_64_rows");
    // The paper's design: one universal scale, later rows clamp.
    g.bench_function("universal_scale", |b| {
        b.iter_batched(
            || Int8Buffer::new(D),
            |mut buf| {
                for t in 0..64 {
                    buf.try_append(black_box(data.row(t))).unwrap();
                }
                buf
            },
            BatchSize::SmallInput,
        )
    });
    // The alternative KIVI/GEAR avoid: re-deriving a scale per row (which
    // would force per-row parameter storage and block integer matmuls).
    g.bench_function("per_row_rescale", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(64 * D);
            let mut scales = Vec::with_capacity(64);
            for t in 0..64 {
                let (codes, scale) = quantize_slice_sym(black_box(data.row(t)));
                out.extend(codes);
                scales.push(scale);
            }
            (out, scales)
        })
    });
    g.finish();
}

fn bench_decode_append_and_flush(c: &mut Criterion) {
    let data = rows(256);
    let mut g = c.benchmark_group("kvcache/append_256_tokens");
    for bits in [BitWidth::Int4, BitWidth::Int2] {
        g.bench_function(format!("{bits}"), |b| {
            b.iter_batched(
                || {
                    HeadKvCache::new(
                        D,
                        KvCacheConfig {
                            bits,
                            group_size: 64,
                            buffer_capacity: 64,
                        },
                    )
                },
                |mut cache| {
                    for t in 0..256 {
                        cache
                            .try_append(black_box(data.row(t)), black_box(data.row(t)))
                            .unwrap();
                    }
                    cache
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// The prefill write: stage 2 of BPQ on the INT8 tiles the prefill sweep
/// already quantized.
fn bench_prefill_block(c: &mut Criterion) {
    let k8 = SymQuantized::quantize(&rows(64));
    c.bench_function("kvcache/prefill_block_64x128_int4", |b| {
        b.iter_batched(
            || HeadKvCache::new(D, KvCacheConfig::default()),
            |mut cache| {
                cache.append_prefill_blocks([(black_box(&k8), black_box(&k8))]);
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

/// A decode-side tile-cache miss: expand one resident K/V block pair to
/// INT8 (K row-major, V channel-major).
fn bench_tile_build(c: &mut Criterion) {
    let k = ProgressiveBlock::quantize(&rows(64), BitWidth::Int4, 64);
    let v = ProgressiveBlock::quantize(
        &TensorRng::new(42).normal(64, D, 0.0, 1.0),
        BitWidth::Int4,
        64,
    );
    c.bench_function("kvcache/tile_build_64x128_int4", |b| {
        b.iter(|| DequantTile::from_blocks(black_box(&k), black_box(&v)))
    });
}

fn bench_persistence(c: &mut Criterion) {
    let data = rows(256);
    let mut cache = HeadKvCache::new(D, KvCacheConfig::default());
    for t in 0..256 {
        cache.try_append(data.row(t), data.row(t)).unwrap();
    }
    let bytes = serialize_head_cache(&cache);
    let mut g = c.benchmark_group("kvcache/persist_256x128");
    g.bench_function("serialize", |b| b.iter(|| serialize_head_cache(black_box(&cache))));
    g.bench_function("deserialize", |b| {
        b.iter(|| deserialize_head_cache(black_box(&bytes)).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_buffer_append,
    bench_decode_append_and_flush,
    bench_prefill_block,
    bench_tile_build,
    bench_persistence
);
criterion_main!(benches);

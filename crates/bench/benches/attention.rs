//! Whole-attention benchmarks: prefill and decode per method on the CPU
//! reference kernels.

use turbo_bench::harness::{BatchSize, Criterion};
use turbo_bench::{criterion_group, criterion_main};
use std::hint::black_box;
use turbo_attention::{
    flash_attention, multilayer_episode_pipelined_on, multilayer_episode_serialized,
    naive_attention, splitk_wins, turbo_attend_cache, turbo_attend_cache_into,
    turbo_attend_cache_splitk, turbo_attend_cache_splitk_on, turbo_attend_group_into,
    turbo_prefill_head, Masking,
    Scratch, TurboAttention, SPLITK_MIN_TOKENS,
};
use turbo_quant::BitWidth;
use turbo_baselines::{
    decode_attention_fp16, GearCache, GearConfig, KiviCache, KiviConfig, KvCompressor,
};
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_softmax::Sas;
use turbo_tensor::{Matrix, TensorRng};

const N: usize = 256;
const D: usize = 64;

fn qkv() -> (Matrix, Matrix, Matrix) {
    let mut rng = TensorRng::new(31);
    (
        rng.normal(N, D, 0.0, 1.0),
        rng.normal(N, D, 0.0, 1.0),
        rng.normal(N, D, 0.0, 1.0),
    )
}

fn bench_prefill(c: &mut Criterion) {
    let (q, k, v) = qkv();
    let sas = Sas::paper_default();
    let mut g = c.benchmark_group("attention/prefill_256x64");
    g.bench_function("naive_f32", |b| {
        b.iter(|| naive_attention(black_box(&q), black_box(&k), black_box(&v), Masking::Causal))
    });
    g.bench_function("flash_f32", |b| {
        b.iter(|| {
            flash_attention(
                black_box(&q),
                black_box(&k),
                black_box(&v),
                Masking::Causal,
                64,
                64,
            )
        })
    });
    g.bench_function("turbo", |b| {
        b.iter_batched(
            || HeadKvCache::new(D, KvCacheConfig::default()),
            |mut cache| {
                turbo_prefill_head(
                    black_box(&q),
                    black_box(&k),
                    black_box(&v),
                    Masking::Causal,
                    &sas,
                    64,
                    64,
                    &mut cache,
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let (q, k, v) = qkv();
    let sas = Sas::paper_default();

    // Pre-populate each cache with N tokens.
    let mut turbo = HeadKvCache::new(D, KvCacheConfig::default());
    for t in 0..N {
        turbo.append(k.row(t), v.row(t));
    }
    let mut kivi = KiviCache::new(D, KiviConfig::default());
    let mut gear = GearCache::new(D, GearConfig::default());
    for t in 0..N {
        kivi.append(k.row(t), v.row(t));
        gear.append(k.row(t), v.row(t));
    }

    let mut g = c.benchmark_group("attention/decode_over_256");
    g.bench_function("turbo_attend_cache", |b| {
        b.iter(|| turbo_attend_cache(black_box(q.row(0)), &turbo, &sas))
    });
    // The strictly allocation-free variant: caller-owned scratch arena
    // and output row, warm resident-tile cache.
    let mut scratch = Scratch::for_cache(&turbo);
    let mut out_row: Vec<f32> = Vec::with_capacity(D);
    g.bench_function("turbo_attend_cache_into", |b| {
        b.iter(|| {
            turbo_attend_cache_into(black_box(q.row(0)), &turbo, &sas, &mut scratch, &mut out_row);
            black_box(out_row[0])
        })
    });
    g.bench_function("turbo_attend_splitk", |b| {
        b.iter(|| turbo_attend_cache_splitk(black_box(q.row(0)), &turbo, &sas))
    });
    // One full decode step — append the new token's K/V, then attend —
    // with and without the write-ahead log on the append path. The delta
    // is the durability tax of crash-consistent serving.
    //
    // Every durability row here uses a *persistent* cache/set: each
    // iteration appends one token, and every `EPISODE` tokens the state
    // checkpoints and trims back to the 256-token prefix (the real
    // serving cadence). The earlier clone-per-iteration shape timed the
    // clone *and the drop* of the full structure inside the routine, so
    // the reported "WAL tax" was mostly clone/drop traffic — ~10× on the
    // layer set — not durability.
    const EPISODE: usize = 256;
    // A durable set holding the same 256-token prefix as `turbo`,
    // checkpointed so the WAL starts empty.
    let durable_set = |heads: usize| {
        let mut s = turbo_kvcache::DurableLayerSet::new(
            1,
            heads,
            D,
            KvCacheConfig::default(),
            Box::new(turbo_kvcache::NeverCheckpoint),
        );
        for t in 0..N {
            let kr: Vec<&[f32]> = vec![k.row(t); heads];
            let vr: Vec<&[f32]> = vec![v.row(t); heads];
            s.try_append_token(&kr, &vr, None).expect("prefill");
        }
        s.checkpoint(None);
        s
    };
    {
        let mut cache = turbo.clone();
        let mut tok = 0usize;
        g.bench_function("turbo_decode_step", |b| {
            b.iter(|| {
                cache.append(k.row(0), v.row(0));
                tok += 1;
                if tok == EPISODE {
                    tok = 0;
                    cache = turbo.clone();
                }
                turbo_attend_cache(black_box(q.row(0)), &cache, &sas)
            })
        });
    }
    {
        // One head behind the write-ahead log: a 1-layer × 1-head set.
        let single = durable_set(1);
        let mut s = single.clone();
        let mut tok = 0usize;
        g.bench_function("turbo_decode_step_with_wal", |b| {
            b.iter(|| {
                s.try_append_token(&[k.row(0)], &[v.row(0)], None)
                    .expect("decode append");
                tok += 1;
                if tok == EPISODE {
                    tok = 0;
                    s.checkpoint(None);
                    s = single.clone();
                }
                turbo_attend_cache(black_box(q.row(0)), s.layer(0).head(0), &sas)
            })
        });
    }
    // Durability at model scale: 8 heads receive the token's K/V rows,
    // and the layer-level group commit logs one record carrying all 8.
    // The row appends to all 8 caches and attends on head 0.
    const HEADS: usize = 8;
    let layer_set = durable_set(HEADS);
    let kr: Vec<&[f32]> = vec![k.row(0); HEADS];
    let vr: Vec<&[f32]> = vec![v.row(0); HEADS];
    {
        let mut s = layer_set.clone();
        let mut tok = 0usize;
        g.bench_function("turbo_decode_step_with_layer_wal", |b| {
            b.iter(|| {
                s.try_append_token(&kr, &vr, None).expect("decode append");
                tok += 1;
                if tok == EPISODE {
                    tok = 0;
                    s.checkpoint(None);
                    s = layer_set.clone();
                }
                turbo_attend_cache(black_box(q.row(0)), s.layer(0).head(0), &sas)
            })
        });
    }
    // Batched WAL flush (fsync every 8 tokens instead of every token):
    // the delta vs the row above is the amortized durability tax.
    {
        let mut s = layer_set.clone();
        s.set_flush_every_n_tokens(8);
        let mut tok = 0usize;
        g.bench_function("turbo_decode_step_with_layer_wal_flush8", |b| {
            b.iter(|| {
                s.try_append_token(&kr, &vr, None).expect("decode append");
                tok += 1;
                if tok == EPISODE {
                    tok = 0;
                    s.checkpoint(None);
                    s = layer_set.clone();
                    s.set_flush_every_n_tokens(8);
                }
                turbo_attend_cache(black_box(q.row(0)), s.layer(0).head(0), &sas)
            })
        });
    }
    g.bench_function("kivi_dequant_then_f16", |b| {
        b.iter(|| decode_attention_fp16(black_box(q.row(0)), &kivi))
    });
    g.bench_function("gear_dequant_then_f16", |b| {
        b.iter(|| decode_attention_fp16(black_box(q.row(0)), &gear))
    });
    g.finish();
}

/// Integer micro-kernels, scalar arm vs the detected dispatch arm, on
/// the shapes the fused sweeps actually run (64-wide dot for QK^T at
/// d=64; a 64×64×64 tile GEMM; the grouped-decode GEMMs of G=4 query
/// rows at d=128 over a 64-row tile, scores 4×128×64 and `P·V`
/// 4×64×128, and their one-row twin at d=64), plus one G=4 grouped
/// attend over 1024 cached tokens at d=128 beside its G=1 twin. On a
/// machine without vector support the scalar and dispatched rows
/// coincide; the delta is the per-call win the SIMD layer buys before
/// any fusion. These rows are recorded for the trend, not gated — the
/// end-to-end prefill/decode rows above are the gate.
fn bench_i8_kernels(c: &mut Criterion) {
    use turbo_tensor::simd::{dot_i8_on, matmul_i8t_on};
    use turbo_tensor::{simd_level, SimdLevel};
    let mut rng = TensorRng::new(41);
    let mk = |n: usize, rng: &mut TensorRng| -> Vec<i8> {
        (0..n)
            .map(|_| (rng.standard_normal() * 40.0).clamp(-127.0, 127.0) as i8)
            .collect()
    };
    let a = mk(D, &mut rng);
    let b = mk(D, &mut rng);
    let ga = mk(64 * D, &mut rng);
    let gb = mk(64 * D, &mut rng);
    let level = simd_level();

    let mut g = c.benchmark_group("attention/kernels_i8");
    g.bench_function("dot_64/scalar", |bch| {
        bch.iter(|| dot_i8_on(SimdLevel::Scalar, black_box(&a), black_box(&b)))
    });
    g.bench_function("dot_64/dispatched", |bch| {
        bch.iter(|| dot_i8_on(level, black_box(&a), black_box(&b)))
    });
    let mut out = Vec::with_capacity(64 * 64);
    g.bench_function("matmul_64x64x64/scalar", |bch| {
        bch.iter(|| {
            matmul_i8t_on(SimdLevel::Scalar, black_box(&ga), black_box(&gb), 64, D, 64, &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("matmul_64x64x64/dispatched", |bch| {
        bch.iter(|| {
            matmul_i8t_on(level, black_box(&ga), black_box(&gb), 64, D, 64, &mut out);
            black_box(out[0])
        })
    });
    // Grouped decode at d = 128: G × d query codes against a 64-row key
    // tile, then G × 64 probability codes against the d × 64 values.
    const GD: usize = 128;
    let qa = mk(4 * GD, &mut rng);
    let tile = mk(64 * GD, &mut rng);
    for (name, arm) in [
        ("matmul_4x128x64/scalar", SimdLevel::Scalar),
        ("matmul_4x128x64/dispatched", level),
    ] {
        g.bench_function(name, |bch| {
            bch.iter(|| {
                matmul_i8t_on(arm, black_box(&qa), black_box(&tile), 4, GD, 64, &mut out);
                black_box(out[0])
            })
        });
    }
    let pa = mk(4 * 64, &mut rng);
    g.bench_function("matmul_4x64x128/dispatched", |bch| {
        bch.iter(|| {
            matmul_i8t_on(level, black_box(&pa), black_box(&tile), 4, 64, GD, &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("matmul_1x64x64/dispatched", |bch| {
        bch.iter(|| {
            matmul_i8t_on(level, black_box(&a), black_box(&gb), 1, D, 64, &mut out);
            black_box(out[0])
        })
    });

    let ctx = rng.normal(1024, GD, 0.0, 1.0);
    let mut cache = HeadKvCache::new(GD, KvCacheConfig::default());
    for t in 0..ctx.rows() {
        cache.append(ctx.row(t), ctx.row(t));
    }
    let qs = rng.normal(4, GD, 0.0, 1.0);
    let sas = Sas::paper_default();
    let mut scratch = Scratch::new();
    let mut attended = Vec::new();
    for (name, group) in [
        ("attend_group_g4_ctx1024", 4),
        ("attend_group_g1_ctx1024", 1),
    ] {
        let rows: Vec<&[f32]> = (0..group).map(|i| qs.row(i)).collect();
        g.bench_function(name, |bch| {
            bch.iter(|| {
                turbo_attend_group_into(
                    black_box(&rows),
                    &cache,
                    &sas,
                    &mut scratch,
                    &mut attended,
                );
                black_box(attended[0])
            })
        });
    }
    g.finish();
}

fn bench_block_sizes(c: &mut Criterion) {
    let (q, k, v) = qkv();
    let sas = Sas::paper_default();
    let mut g = c.benchmark_group("attention/turbo_prefill_block_size");
    for (br, bc) in [(32usize, 32usize), (64, 64), (128, 128)] {
        g.bench_function(format!("{br}x{bc}"), |b| {
            b.iter_batched(
                || HeadKvCache::new(D, KvCacheConfig::default()),
                |mut cache| {
                    turbo_prefill_head(&q, &k, &v, Masking::Causal, &sas, br, bc, &mut cache)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// 32-head layer prefill, serial vs. pooled: the headline number for the
/// execution runtime. On a ≥4-core machine the pooled path should show
/// ≥2× over serial; on fewer cores the two converge (the pool adds no
/// arithmetic, only scheduling).
fn bench_prefill_layer_32head(c: &mut Criterion) {
    const H: usize = 32;
    const SEQ: usize = 128;
    let mut rng = TensorRng::new(77);
    let mk = |rng: &mut TensorRng| -> Vec<Matrix> {
        (0..H).map(|_| rng.normal(SEQ, D, 0.0, 1.0)).collect()
    };
    let qs = mk(&mut rng);
    let ks = mk(&mut rng);
    let vs = mk(&mut rng);
    let bits = [BitWidth::Int4; H];
    let engine = TurboAttention::default();

    let mut g = c.benchmark_group("attention/prefill_layer_32head_128x64");
    g.bench_function("serial", |b| {
        b.iter(|| engine.prefill_layer(black_box(&qs), black_box(&ks), black_box(&vs), &bits))
    });
    g.bench_function("pooled", |b| {
        b.iter(|| {
            engine.prefill_layer_parallel(black_box(&qs), black_box(&ks), black_box(&vs), &bits)
        })
    });
    g.finish();
}

/// Multi-layer pipelined episode vs. the serialized reference: an
/// 8-layer × 2-head shard runs a 48-token prompt (8-token chunks) plus
/// 16 decode steps through the same [`LayerPipeline`] DAG, either in
/// task order or released to the pool. Both engines are bit-identical by
/// construction (the integration suite pins that), so this delta is pure
/// scheduling: on a multi-core box the pipelined row should win by
/// overlapping layer k+1's prefill with layer k's decode; on one core it
/// pays only the pool's dispatch overhead. Both rows are median-gated.
fn bench_multilayer(c: &mut Criterion) {
    use turbo_kvcache::{DurableLayerSet, NeverCheckpoint};
    const LAYERS: usize = 8;
    const ML_HEADS: usize = 2;
    const ML_D: usize = 32;
    const PROMPT: usize = 48;
    const DECODE: usize = 16;
    const CHUNK: usize = 8;
    let mut rng = TensorRng::new(53);
    let prompt = rng.normal(PROMPT, ML_HEADS * ML_D, 0.0, 1.0);
    let decode = rng.normal(DECODE, ML_HEADS * ML_D, 0.0, 1.0);
    let sas = Sas::paper_default();
    let fresh = || {
        DurableLayerSet::new(
            LAYERS,
            ML_HEADS,
            ML_D,
            KvCacheConfig::default(),
            Box::new(NeverCheckpoint),
        )
    };
    let rt = turbo_runtime::global();

    let mut g = c.benchmark_group("attention/multilayer_8layer");
    g.bench_function("serialized", |b| {
        b.iter_batched(
            fresh,
            |mut set| {
                multilayer_episode_serialized(&mut set, &prompt, &decode, &sas, CHUNK, None)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("pipelined", |b| {
        b.iter_batched(
            fresh,
            |mut set| {
                multilayer_episode_pipelined_on(rt, &mut set, &prompt, &decode, &sas, CHUNK, None)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The split-K routing crossover: fused vs. split-K decode attention at
/// the routing threshold ([`SPLITK_MIN_TOKENS`] cached tokens) and one
/// octave below it. These rows pin the constant empirically — on a
/// multi-core box split-K should win at the threshold and lose below it;
/// on one core `splitk_wins` routes everything to the fused kernel and
/// the rows record how far from break-even the partitioned sweep runs.
/// Recorded for the trend, not gated (the crossover is machine-shaped).
fn bench_splitk_crossover(c: &mut Criterion) {
    let mut rng = TensorRng::new(59);
    let q: Vec<f32> = (0..D).map(|_| rng.standard_normal()).collect();
    let sas = Sas::paper_default();
    let rt = turbo_runtime::global();

    let mut g = c.benchmark_group("attention/splitk_crossover");
    for tokens in [SPLITK_MIN_TOKENS / 2, SPLITK_MIN_TOKENS] {
        let mut cache = HeadKvCache::new(D, KvCacheConfig::default());
        let ctx = rng.normal(tokens, D, 0.0, 1.0);
        for t in 0..tokens {
            cache.append(ctx.row(t), ctx.row(t));
        }
        g.bench_function(format!("fused_{tokens}"), |b| {
            b.iter(|| turbo_attend_cache(black_box(&q), &cache, &sas))
        });
        g.bench_function(format!("splitk_{tokens}"), |b| {
            b.iter(|| turbo_attend_cache_splitk_on(rt, black_box(&q), &cache, &sas))
        });
        // Sanity: the routing predicate agrees with the threshold the
        // rows straddle.
        assert_eq!(
            splitk_wins(tokens, rt.workers().max(2)),
            tokens >= SPLITK_MIN_TOKENS
        );
    }
    g.finish();
}

/// Fleet control-plane throughput: one diurnal day (8 epochs × 12
/// requests = 96 requests) served through the SLO-driven autoscaled
/// fleet, with and without correlated chaos bursts. Each iteration runs
/// the whole control loop, so requests/s = 96 / (median_ns × 1e-9); the
/// delta between the rows is the cost of enduring bursts (kills, WAL
/// rebuilds, scale-ups) versus steady diurnal serving.
fn bench_fleet(c: &mut Criterion) {
    use turbo_gpusim::{
        fleet::FleetWorkloadSpec, run_fleet, AttnMethod, FleetConfig, GpuSpec, ModelGeometry,
    };
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let chaos = FleetConfig {
        epochs: 8,
        burst_every: 4,
        workload: FleetWorkloadSpec {
            requests_per_epoch: 12,
            ..FleetWorkloadSpec::default()
        },
        ..FleetConfig::default()
    };
    let quiet = FleetConfig {
        burst_every: 0,
        ..chaos.clone()
    };
    let mut g = c.benchmark_group("fleet/diurnal_8ep_96req");
    g.bench_function("no_chaos", |b| {
        b.iter(|| {
            run_fleet(
                black_box(&gpu),
                &geom,
                AttnMethod::FlashFp16,
                &quiet,
                2026,
                None,
            )
        })
    });
    g.bench_function("chaos_bursts", |b| {
        b.iter(|| {
            run_fleet(
                black_box(&gpu),
                &geom,
                AttnMethod::FlashFp16,
                &chaos,
                2026,
                None,
            )
        })
    });
    g.finish();
}

/// Continuous-batching scheduler at production scale: 2048 concurrent
/// short sequences (32-token prompts, 12 generated tokens each) admitted
/// through the budgeted event loop. At 3-bit resident KV the entire
/// cohort's ~90k-token reservation fits the device and the scheduler
/// holds all 2048 sequences in flight at once; FP16 must serve the same
/// load in memory-limited waves. Each iteration runs the whole episode
/// (admission sweeps, chunked prefills, batched decode steps, ledger),
/// so sequences/s = 2048 / (median_ns × 1e-9).
fn bench_continuous_serving(c: &mut Criterion) {
    use turbo_gpusim::{
        simulate_serving_continuous, AttnMethod, GpuSpec, ModelGeometry, SchedulerConfig,
        ServingPolicy, WorkloadSpec,
    };
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let reqs = WorkloadSpec {
        n: 2048,
        rate: 200_000.0,
        prompt: 32,
        gen: 12,
        seed: 0x7007,
    }
    .requests();
    let policy = ServingPolicy {
        sched: SchedulerConfig {
            prefill_chunk: 32,
            max_batch_prefill_tokens: 8192,
            max_batch_size: 4096,
            ..SchedulerConfig::default()
        },
        ..ServingPolicy::default()
    };
    let mut g = c.benchmark_group("serving/continuous_2048seq");
    g.bench_function("turbo3", |b| {
        b.iter(|| {
            simulate_serving_continuous(
                black_box(&gpu),
                &geom,
                AttnMethod::Turbo { kv_bits: 3.0 },
                &reqs,
                &policy,
                None,
            )
        })
    });
    g.bench_function("flash_fp16", |b| {
        b.iter(|| {
            simulate_serving_continuous(
                black_box(&gpu),
                &geom,
                AttnMethod::FlashFp16,
                &reqs,
                &policy,
                None,
            )
        })
    });
    g.finish();
}

/// Sharded long-context serving: a 128k-token context partitioned over
/// 4 shards, served through the full episode — fan-out dispatch with
/// hedging, a degraded-zone burst, a mid-episode shard kill with WAL
/// tear, deterministic re-shard (prefix migration + suffix re-prefill +
/// map epoch bump + tile-cache invalidation), and the per-shard
/// lockstep serve. Each iteration runs the whole episode including its
/// ledger asserts, so episodes/s = 1 / (median_ns × 1e-9); the
/// turbo3-vs-fp16 delta prices the serving phase, the rest is the
/// shared durability machinery.
fn bench_sharded_serving(c: &mut Criterion) {
    use turbo_gpusim::{
        run_sharded_episode, uniform_workload, AttnMethod, GpuSpec, ModelGeometry, ShardedConfig,
    };
    use turbo_robust::{ChaosAction, ChaosEvent};
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let config = ShardedConfig {
        shards: 4,
        context_tokens: 131_072,
        ..ShardedConfig::default()
    };
    let reqs = uniform_workload(6, 1.5, 256, 16, 77);
    let chaos = [
        ChaosEvent {
            time: 0.5,
            action: ChaosAction::DegradeZone {
                zone: 1,
                latency_factor: 4.0,
                wal_rot: 0.7,
                duration: 3.0,
            },
        },
        ChaosEvent {
            time: 1.5,
            action: ChaosAction::KillReplica {
                replica: 1,
                wal_cut: 0.9,
            },
        },
    ];
    let mut g = c.benchmark_group("serving/sharded_128k_4shard");
    g.bench_function("turbo3", |b| {
        b.iter(|| {
            run_sharded_episode(
                black_box(&gpu),
                &geom,
                AttnMethod::Turbo { kv_bits: 3.0 },
                &reqs,
                &chaos,
                &config,
                31,
                None,
            )
        })
    });
    g.bench_function("flash_fp16", |b| {
        b.iter(|| {
            run_sharded_episode(
                black_box(&gpu),
                &geom,
                AttnMethod::FlashFp16,
                &reqs,
                &chaos,
                &config,
                31,
                None,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_prefill,
    bench_decode,
    bench_i8_kernels,
    bench_block_sizes,
    bench_multilayer,
    bench_splitk_crossover,
    bench_prefill_layer_32head,
    bench_fleet,
    bench_continuous_serving,
    bench_sharded_serving,
);
criterion_main!(benches);

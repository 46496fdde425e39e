//! Kernel probes (tensor/softmax/quant) at a workload's shapes, and the
//! baseline reference programs on the same contexts as turbo's calls.
//!
//! Probe op and byte counts are computed from the shapes, not measured.

use std::hint::black_box;
use std::time::Instant;

use turbo_attention::{flash_attention, turbo_attend_cache, Masking, TurboAttention};
use turbo_baselines::{
    decode_attention_fp16, Fp16Cache, GearCache, GearConfig, KiviCache, KiviConfig, KvCompressor,
};
use turbo_kvcache::HeadKvCache;
use turbo_quant::{quantize_slice_sym_into, BitWidth, ProgressiveBlock, SymQuantized};
use turbo_softmax::Sas;
use turbo_tensor::{Matrix, TensorRng};

use crate::json::Json;
use crate::report::{Kind, Outcome};
use crate::stats::{median, ratio};

/// Kernel tile height (`B_r = B_c = n_b = 64`, the engine default).
pub const TILE: usize = 64;

/// Timing repeats per probe; the median is reported.
const REPEATS: usize = 5;

/// Median ns per call of `f`, calibrated so one repeat takes about
/// `target_ns`.
fn time_per_call(target_ns: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let iters = (target_ns / once).clamp(1.0, 1e6) as usize;
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

fn put_probe(out: &mut Outcome, name: &str, ns: f64, ops: f64, bytes: f64) {
    out.put(&format!("probe.{name}.ns_per_call"), ns, "ns", Kind::Host);
    out.put(&format!("probe.{name}.ops"), ops, "count", Kind::Computed);
    out.put(&format!("probe.{name}.bytes"), bytes, "B", Kind::Computed);
}

/// Runs the five kernel probes at head dimension `d`, a decode context
/// of `ctx` tokens, inside spans of the layer each kernel lives in.
pub fn kernel_probes(out: &mut Outcome, seed: u64, d: usize, ctx: usize) {
    const TARGET_NS: f64 = 2e6;
    let mut rng = TensorRng::new(seed ^ 0x9B0B);
    let x = rng.normal(TILE, d, 0.0, 1.0);
    let y = rng.normal(TILE, d, 0.0, 1.0);
    let qa = SymQuantized::quantize(&x);
    let qb = SymQuantized::quantize(&y);
    let level = turbo_tensor::simd_level();
    let sas = Sas::paper_default();

    // QK^T tile GEMM of prefill: (64 × d) · (64 × d)^T, i8 → i32.
    let mut acc = Vec::with_capacity(TILE * TILE);
    let ns = out.tracer.span("tensor.gemm_i8", || {
        time_per_call(TARGET_NS, || {
            turbo_tensor::simd::matmul_i8t_on(
                level,
                black_box(qa.codes()),
                black_box(qb.codes()),
                TILE,
                d,
                TILE,
                &mut acc,
            );
            black_box(&acc);
        })
    });
    let mnk = (TILE * d * TILE) as f64;
    put_probe(
        out,
        "gemm_i8",
        ns,
        2.0 * mnk,
        (2 * TILE * d + 4 * TILE * TILE) as f64,
    );

    // One decode query row against one cached key row.
    let (a, b) = (&qa.codes()[..d], &qb.codes()[..d]);
    let ns = out.tracer.span("tensor.dot_i8", || {
        time_per_call(TARGET_NS, || {
            black_box(turbo_tensor::dot_i8(black_box(a), black_box(b)));
        })
    });
    put_probe(out, "dot_i8", ns, 2.0 * d as f64, 2.0 * d as f64);

    // SAS exponential of one score row over the decode context.
    let codes: Vec<i32> = (0..ctx).map(|j| (j as i32 * 7919) % 4001 - 4000).collect();
    let mut probs = vec![0.0f32; ctx];
    let ns = out.tracer.span("softmax.sas_exp", || {
        time_per_call(TARGET_NS, || {
            black_box(sas.exp_scaled_row_into(black_box(&codes), 1e-3, 0.0, &mut probs));
        })
    });
    put_probe(out, "sas_exp", ns, ctx as f64, 8.0 * ctx as f64);

    // INT8 encode of one 64 × d query/key tile.
    let mut enc = Vec::with_capacity(TILE * d);
    let ns = out.tracer.span("quant.encode_i8", || {
        time_per_call(TARGET_NS, || {
            black_box(quantize_slice_sym_into(black_box(x.as_slice()), &mut enc));
        })
    });
    let n = (TILE * d) as f64;
    put_probe(out, "encode_i8", ns, 2.0 * n, 5.0 * n);

    // Progressive INT8 → INT4 compression of one flushed 64-token block.
    let ns = out.tracer.span("quant.progressive", || {
        time_per_call(TARGET_NS, || {
            black_box(ProgressiveBlock::quantize_from_int8(
                black_box(&qa),
                BitWidth::Int4,
                TILE,
            ));
        })
    });
    put_probe(out, "progressive", ns, 2.0 * n, 1.5 * n);
}

/// Flash f32 and turbo prefill of one head on the same `(q, k, v)`.
pub fn prefill_baseline(
    out: &mut Outcome,
    engine: &TurboAttention,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) {
    let t = Instant::now();
    let flash = out.tracer.span("baselines.flash_f32", || {
        flash_attention(q, k, v, Masking::Causal, TILE, TILE)
    });
    let flash_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let (turbo, _) = out.tracer.span("attention.baseline_prefill", || {
        engine.prefill_head(q, k, v)
    });
    let turbo_ms = t.elapsed().as_secs_f64() * 1e3;
    black_box((flash, turbo));
    out.put("baselines.flash_f32.prefill_ms", flash_ms, "ms", Kind::Host);
    out.put("baselines.turbo.prefill_ms", turbo_ms, "ms", Kind::Host);
}

/// Decode-attention reference programs on one head's context: KIVI, GEAR
/// and FP16 caches fed the same K/V rows turbo's cache holds, attended
/// with the same query. Also records the measured CPU analog of the
/// paper's Figure 1b (dequantization share of decode) in the notes.
pub fn decode_baselines(
    out: &mut Outcome,
    sas: &Sas,
    head: &HeadKvCache,
    ks: &Matrix,
    vs: &Matrix,
    q: &[f32],
) {
    const TARGET_NS: f64 = 4e6;
    let d = ks.cols();
    let (mut kivi, mut gear, mut fp16) = out.tracer.span("baselines.build", || {
        (
            KiviCache::new(d, KiviConfig::default()),
            GearCache::new(d, GearConfig::default()),
            Fp16Cache::new(d),
        )
    });
    out.tracer.span("baselines.build", || {
        for r in 0..ks.rows() {
            kivi.append(ks.row(r), vs.row(r));
            gear.append(ks.row(r), vs.row(r));
            fp16.append(ks.row(r), vs.row(r));
        }
    });
    let mut shares = Json::obj();
    let caches: [(&str, &dyn KvCompressor); 3] =
        [("kivi", &kivi), ("gear", &gear), ("fp16", &fp16)];
    for (name, cache) in caches {
        let (total_ns, dequant_ns) = out.tracer.span("baselines.decode", || {
            (
                time_per_call(TARGET_NS, || {
                    black_box(decode_attention_fp16(black_box(q), cache));
                }),
                time_per_call(TARGET_NS, || {
                    black_box(cache.materialize());
                }),
            )
        });
        out.put(
            &format!("baselines.{name}.decode_us"),
            total_ns / 1e3,
            "us",
            Kind::Host,
        );
        shares.set(name, ratio(dequant_ns, total_ns));
    }

    // Turbo on its live cache (warm tiles), then with the tile cache off
    // to split out the integer dequantization of every resident block.
    let turbo_ns = out.tracer.span("attention.baseline_decode", || {
        time_per_call(TARGET_NS, || {
            black_box(turbo_attend_cache(black_box(q), head, sas));
        })
    });
    let cold = head.clone();
    cold.set_tile_cache_budget(0);
    let blocks = cold.resident_blocks().len();
    let (cold_ns, dequant_ns) = out.tracer.span("attention.baseline_decode", || {
        (
            time_per_call(TARGET_NS, || {
                black_box(turbo_attend_cache(black_box(q), &cold, sas));
            }),
            time_per_call(TARGET_NS, || {
                for b in 0..blocks {
                    black_box(cold.resident_tile(b));
                }
            }),
        )
    });
    out.put(
        "baselines.turbo.decode_us",
        turbo_ns / 1e3,
        "us",
        Kind::Host,
    );
    shares.set("turbo_tile_cache_off", ratio(dequant_ns, cold_ns));
    out.notes.set(
        "figure1b_cpu_dequant_share",
        Json::obj()
            .with("measured", shares)
            .with(
                "cost_model",
                Json::obj()
                    .with("turbo", 0.329)
                    .with("kivi", 0.596)
                    .with("gear", 0.615),
            )
            .with("context_tokens", ks.rows())
            .with("head_dim", d)
            .with(
                "note",
                "host share of decode-attention time spent dequantizing the cache; \
                 the cost-model shares are the paper's A100 Figure 1b",
            ),
    );
}

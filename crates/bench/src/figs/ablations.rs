//! Extra ablations: the appendix's pure 2-bit results, the decode-buffer
//! capacity `n_b` sweep, and the progressive-vs-direct quantization
//! design choice called out in DESIGN.md.

use crate::Table;
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_model::backend::{Backend, Fp8Backend, GearBackend, KiviBackend, TurboBackend};
use turbo_model::{evaluate_on, EvalConfig, ModelProfile, TaskSuite};
use turbo_quant::asymmetric::fake_quant_channelwise;
use turbo_quant::{BitWidth, ProgressiveBlock};
use turbo_tensor::{mse, TensorRng};

/// Appendix: pure 2-bit KV-cache accuracy for every method.
pub fn run_pure_2bit(episodes: usize) {
    let cfg = EvalConfig {
        episodes,
        seed: 0xAB2B,
    };
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(TurboBackend::int2()),
        Box::new(KiviBackend::new(BitWidth::Int2)),
        Box::new(GearBackend::new(BitWidth::Int2)),
    ];
    let mut t = Table::new(
        &format!("Appendix — pure 2-bit KV cache accuracy ({episodes} episodes/cell)"),
        &["method", "LLaMA3/GSM8k", "Qwen2/GSM8k", "Phi3/GSM8k"],
    );
    let suite = TaskSuite::gsm8k_proxy();
    for b in &backends {
        let mut row = vec![b.name() + " (2bit)"];
        for p in ModelProfile::paper_profiles() {
            let r = evaluate_on(turbo_runtime::global(), b.as_ref(), &p, &suite, &cfg);
            row.push(format!("{:.1}", r.accuracy * 100.0));
        }
        t.row(&row);
    }
    t.print();
}

/// Ablation: decode-buffer capacity `n_b` — accuracy, clamping rate and
/// memory as the buffer grows.
pub fn run_buffer_sweep(episodes: usize) {
    let cfg = EvalConfig {
        episodes,
        seed: 0xAB4B,
    };
    let profile = ModelProfile::llama3_like();
    let suite = TaskSuite::bbh_proxy();
    let mut t = Table::new(
        &format!(
            "Ablation — decode-buffer capacity n_b (LLaMA3-like, BBH-proxy, {episodes} episodes)"
        ),
        &[
            "n_b",
            "accuracy",
            "clamped elems / 256 tokens",
            "cache bytes / 256 tokens",
        ],
    );
    for nb in [4usize, 8, 16, 32, 64] {
        let backend = TurboBackend::int4().with_config(turbo_attention::TurboConfig {
            buffer_capacity: nb,
            block_r: 16,
            block_c: 16,
            group_size: 16,
            ..turbo_attention::TurboConfig::default()
        });
        let acc = evaluate_on(turbo_runtime::global(), &backend, &profile, &suite, &cfg).accuracy;

        // Clamping/memory measurement on a decode stream.
        let mut rng = TensorRng::new(nb as u64);
        let data = rng.normal(256, 64, 0.0, 1.0);
        let mut cache = HeadKvCache::new(
            64,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 16,
                buffer_capacity: nb,
            },
        );
        for r in 0..256 {
            cache
                .try_append(data.row(r), data.row(r))
                .expect("normal samples are finite");
        }
        let clamped =
            cache.key_buffer().clamped_elements() + cache.value_buffer().clamped_elements();
        t.row(&[
            format!("{nb}"),
            format!("{:.1}", acc * 100.0),
            format!("{clamped}"),
            format!("{}", cache.memory_stats().total_bytes()),
        ]);
    }
    t.print();
}

/// Ablation: two-stage progressive quantization vs direct float INT4/2 at
/// matched granularity, on outlier-bearing activations.
pub fn run_progressive_vs_direct() {
    let mut t = Table::new(
        "Ablation — progressive (INT8→INTx, integer params) vs direct float INTx",
        &[
            "bits",
            "outlier scale",
            "progressive MSE",
            "direct-float MSE",
            "ratio",
        ],
    );
    for bits in [BitWidth::Int4, BitWidth::Int2] {
        for outlier in [1.0f32, 10.0, 30.0] {
            let mut rng = TensorRng::new(77);
            let m = if outlier > 1.0 {
                rng.normal_with_channel_outliers(256, 64, 1.0, &[3, 40], outlier)
            } else {
                rng.normal(256, 64, 0.0, 1.0)
            };
            let pq = ProgressiveBlock::quantize(&m, bits, 64);
            let e_pq = mse(&pq.dequantize(), &m);
            let e_direct = mse(&fake_quant_channelwise(&m, bits, 64), &m);
            t.row(&[
                bits.to_string(),
                format!("{outlier:.0}x"),
                format!("{e_pq:.4e}"),
                format!("{e_direct:.4e}"),
                format!("{:.2}", e_pq / e_direct),
            ]);
        }
    }
    t.print();
    println!(
        "(Progressive pays a small error premium over direct float quantization in\n\
         exchange for integer-only dequantization — the latency win of Figure 1b.)"
    );
}

/// Extension: FP8 (E4M3) KV cache vs TurboAttention's integer formats —
/// the Hopper-era trade-off the paper's related work alludes to
/// (FlashAttention-3 / FlashInfer FP8).
pub fn run_fp8_extension(episodes: usize) {
    let cfg = EvalConfig {
        episodes,
        seed: 0xF8F8,
    };
    let backends: Vec<(Box<dyn Backend>, &str)> = vec![
        (Box::new(Fp8Backend), "2.0x"),
        (Box::new(TurboBackend::int4()), "~3.6x"),
        (Box::new(TurboBackend::int3()), "~4.2x"),
        (Box::new(TurboBackend::mixed(4)), "~4.9x"),
        (Box::new(TurboBackend::int2()), "~6.9x"),
    ];
    let mut t = Table::new(
        &format!("Extension — FP8 KV cache vs integer formats ({episodes} episodes/cell)"),
        &[
            "method",
            "KV compression",
            "LLaMA3/GSM8k",
            "Qwen2/GSM8k",
            "Phi3/GSM8k",
        ],
    );
    let suite = TaskSuite::gsm8k_proxy();
    for (b, ratio) in &backends {
        let mut row = vec![b.name(), ratio.to_string()];
        for p in ModelProfile::paper_profiles() {
            let r = evaluate_on(turbo_runtime::global(), b.as_ref(), &p, &suite, &cfg);
            row.push(format!("{:.1}", r.accuracy * 100.0));
        }
        t.row(&row);
    }
    t.print();
}

/// Extension: continuous-batching serving comparison (sustained load on
/// the A100 cost model).
pub fn run_serving_extension() {
    use turbo_gpusim::{simulate_serving, uniform_workload, AttnMethod, GpuSpec, ModelGeometry};
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let mut t = Table::new(
        "Extension — continuous-batching serving (Phi3-medium, 40 reqs @ 0.5/s, 8k prompt, 128 gen)",
        &[
            "method",
            "mean latency (s)",
            "p95 latency (s)",
            "tokens/s",
            "peak batch",
            "mean queue (s)",
        ],
    );
    let reqs = uniform_workload(40, 0.5, 8192, 128, 2024);
    for m in AttnMethod::figure6_lineup() {
        let s = simulate_serving(&gpu, &geom, m, &reqs);
        t.row(&[
            m.to_string(),
            format!("{:.2}", s.mean_latency),
            format!("{:.2}", s.p95_latency),
            format!("{:.0}", s.throughput),
            format!("{}", s.peak_batch),
            format!("{:.2}", s.mean_queue_time),
        ]);
    }
    t.print();
}

/// Extension: QuaRot composability — per-tile INT8 quantization error with
/// and without Hadamard rotation on outlier-bearing activations.
pub fn run_quarot_extension() {
    use turbo_quant::rotation::rotation_ablation;
    use turbo_tensor::TensorRng;
    let mut t = Table::new(
        "Extension — QuaRot-style rotation composability (per-tile INT8 MSE)",
        &[
            "outlier channels",
            "outlier scale",
            "plain MSE",
            "rotated MSE",
            "gain",
        ],
    );
    for (count, scale) in [(0usize, 1.0f32), (2, 10.0), (4, 30.0), (8, 50.0)] {
        let mut rng = TensorRng::new(31 + count as u64);
        let m = if count == 0 {
            rng.normal(128, 64, 0.0, 1.0)
        } else {
            let channels = rng.distinct_indices(64, count);
            rng.normal_with_channel_outliers(128, 64, 1.0, &channels, scale)
        };
        let (plain, rotated) = rotation_ablation(&m);
        t.row(&[
            format!("{count}"),
            format!("{scale:.0}x"),
            format!("{plain:.3e}"),
            format!("{rotated:.3e}"),
            format!("{:.1}x", plain / rotated),
        ]);
    }
    t.print();

    // Accuracy composition: rotation must not cost accuracy on the task
    // harness (and helps at 2-bit, where outlier smearing matters most).
    use turbo_model::backend::QuarotTurboBackend;
    let cfg = EvalConfig {
        episodes: 120,
        seed: 0xA407,
    };
    let profile = ModelProfile::llama3_like();
    let suite = TaskSuite::gsm8k_proxy();
    let mut t2 = Table::new(
        "QuaRot + TurboAttention accuracy composition (LLaMA3-like, GSM8k-proxy)",
        &["method", "acc"],
    );
    let rows: Vec<(String, Box<dyn Backend>)> = vec![
        ("Turbo 4-bit".into(), Box::new(TurboBackend::int4())),
        (
            "QuaRot + Turbo 4-bit".into(),
            Box::new(QuarotTurboBackend::int4()),
        ),
        ("Turbo 2-bit".into(), Box::new(TurboBackend::int2())),
        (
            "QuaRot + Turbo 2-bit".into(),
            Box::new(QuarotTurboBackend::int2()),
        ),
    ];
    for (name, b) in rows {
        let r = evaluate_on(turbo_runtime::global(), b.as_ref(), &profile, &suite, &cfg);
        t2.row(&[name, format!("{:.1}", r.accuracy * 100.0)]);
    }
    t2.print();
}

/// Extension: error compounding with retrieval depth — accuracy as chains
/// grow from 1 to 8 hops (the mechanism behind long-CoT degradation).
pub fn run_depth_extension(episodes: usize) {
    use turbo_model::backend::Fp8Backend;
    use turbo_model::TaskSuite;
    let cfg = EvalConfig {
        episodes,
        seed: 0xDEE9,
    };
    let profile = ModelProfile::llama3_like();
    let mut t = Table::new(
        &format!(
            "Extension — accuracy vs chain depth (LLaMA3-like, 48 pairs, {episodes} episodes)"
        ),
        &["hops", "FP16", "FP8", "Turbo4", "Turbo(2/4)", "KIVI2"],
    );
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(turbo_model::backend::Fp16Backend),
        Box::new(Fp8Backend),
        Box::new(TurboBackend::int4()),
        Box::new(TurboBackend::mixed(4)),
        Box::new(KiviBackend::new(BitWidth::Int2)),
    ];
    for hops in [1usize, 2, 4, 6, 8] {
        let suite = TaskSuite {
            name: "depth-sweep",
            n_pairs: 48,
            hops,
            confusers: 3,
        };
        let mut row = vec![format!("{hops}")];
        for b in &backends {
            let r = evaluate_on(turbo_runtime::global(), b.as_ref(), &profile, &suite, &cfg);
            row.push(format!("{:.1}", r.accuracy * 100.0));
        }
        t.row(&row);
    }
    t.print();
    println!(
        "(Per-hop survival compounds multiplicatively: methods with small per-step\n\
         error diverge slowly; 2-bit error compounds to failure within a few hops.)"
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn tiny_runs_complete() {
        super::run_pure_2bit(2);
        super::run_buffer_sweep(2);
        super::run_progressive_vs_direct();
        super::run_fp8_extension(2);
        super::run_serving_extension();
        super::run_quarot_extension();
        super::run_depth_extension(2);
    }
}

//! Long-context chat serving across a whole attention layer with
//! head-wise mixed precision.
//!
//! Scenario: a chat assistant holds a 2k-token conversation in its KV
//! cache and streams replies. Half the heads exhibit the channel-outlier
//! pattern of Figure 4; the engine's priority metric keeps those at INT4
//! and demotes the calm heads to INT2 (section 3.2), then decoding runs
//! fully quantized. Multi-head attention is the layer engine's GQA path
//! with groups of one.

use turbo_attention::{
    naive_attention, turbo_attend_cache, GqaLayout, Masking, TurboAttention, TurboConfig,
};
use turbo_quant::BitWidth;
use turbo_tensor::{Matrix, TensorRng};

fn main() {
    let mut rng = TensorRng::new(7);
    let (heads, ctx, d) = (8usize, 2048usize, 64usize);

    // Conversation history: half the heads have strong key-channel
    // outliers, like real models do.
    let qs: Vec<Matrix> = (0..heads).map(|_| rng.normal(ctx, d, 0.0, 1.0)).collect();
    let ks: Vec<Matrix> = (0..heads)
        .map(|h| {
            if h % 2 == 0 {
                rng.normal_with_channel_outliers(ctx, d, 1.0, &[3, 17, 40], 18.0)
            } else {
                rng.normal(ctx, d, 0.0, 1.0)
            }
        })
        .collect();
    let vs: Vec<Matrix> = (0..heads).map(|_| rng.normal(ctx, d, 0.0, 1.0)).collect();

    // Prefill with automatic mixed precision: 4 of 8 heads demoted to
    // 2-bit by the gap x std priority metric.
    let engine = TurboAttention::new(TurboConfig::default());
    let rt = turbo_runtime::global();
    let layout = GqaLayout::new(heads, heads);
    let (_, mut layer) = engine.prefill_layer_gqa_on(rt, layout, &qs, &ks, &vs, heads / 2);

    println!("prefilled {ctx}-token conversation across {heads} heads");
    for h in 0..heads {
        println!(
            "  head {h}: resident cache {} (outliers: {})",
            layer.head(h).config().bits,
            if h % 2 == 0 { "yes" } else { "no" }
        );
    }
    let stats = layer.memory_stats();
    println!(
        "layer KV cache: {:.1} KiB vs {:.1} KiB FP16 ({:.1}x compression, avg {:.1} bits)",
        stats.total_bytes() as f64 / 1024.0,
        stats.fp16_bytes as f64 / 1024.0,
        stats.compression_ratio(),
        layer.average_bits()
    );

    // Stream a 16-token reply; compare the last step to exact attention.
    let mut full_k = ks.clone();
    let mut full_v = vs.clone();
    let mut worst = 0.0f32;
    let mut identical = true;
    // Prefill ran on the pool too; count only the decode loop's tasks.
    let tasks_before = rt.snapshot().tasks_run;
    for _ in 0..16 {
        let step_q: Vec<Matrix> = (0..heads).map(|_| rng.normal(1, d, 0.0, 1.0)).collect();
        let step_k: Vec<Matrix> = (0..heads).map(|_| rng.normal(1, d, 0.0, 1.0)).collect();
        let step_v: Vec<Matrix> = (0..heads).map(|_| rng.normal(1, d, 0.0, 1.0)).collect();
        let outs = engine.decode_layer_parallel_on(
            rt,
            &step_q.iter().map(|m| m.row(0)).collect::<Vec<_>>(),
            &step_k.iter().map(|m| m.row(0)).collect::<Vec<_>>(),
            &step_v.iter().map(|m| m.row(0)).collect::<Vec<_>>(),
            &mut layer,
        );
        for h in 0..heads {
            let alone = turbo_attend_cache(step_q[h].row(0), layer.head(h), engine.sas());
            identical &= alone == outs[h];
            full_k[h].append_rows(&step_k[h]);
            full_v[h].append_rows(&step_v[h]);
            let exact = naive_attention(&step_q[h], &full_k[h], &full_v[h], Masking::Causal);
            for (a, b) in outs[h].iter().zip(exact.row(0)) {
                worst = worst.max((a - b).abs());
            }
        }
    }
    let decode_tasks = rt.snapshot().tasks_run - tasks_before;
    println!("decoded 16 reply tokens; worst per-element deviation vs exact: {worst:.4}");
    println!("layer decode bit-identical to per-head decode: {identical}");
    println!(
        "note: INT2 heads carry most of that deviation — rerun with all heads at {} to tighten it",
        BitWidth::Int4
    );

    // Decode ran head-parallel on the shared work-stealing runtime
    // (TURBO_RUNTIME_THREADS caps the pool). Only the worker and task
    // counts are deterministic; the stolen/helper split depends on
    // scheduling and would break the identical-stdout contract of these
    // examples.
    println!(
        "runtime: {} workers ran {decode_tasks} decode tasks ({heads} heads x 16 steps)",
        rt.workers()
    );
}

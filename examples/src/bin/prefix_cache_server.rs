//! Prefix-cache serving with GQA and grouped decode.
//!
//! Scenario: a server keeps the quantized KV cache of a shared system
//! prompt on disk. Per request it (1) reloads the compressed prefix
//! instead of re-prefilling, and (2) decodes with grouped-query attention
//! (4 query heads per KV head, as LLaMA3/Phi-3 ship): the query heads
//! that share a KV head attend in one grouped pass over its quantized
//! cache, so each cached tile is read once per group, not once per head.

use turbo_attention::{
    turbo_attend_cache, turbo_attend_group, GqaLayout, TurboAttention, TurboConfig,
};
use turbo_kvcache::{deserialize_head_cache, serialize_head_cache, HeadKvCache};
use turbo_tensor::{Matrix, TensorRng};

fn main() {
    let mut rng = TensorRng::new(1234);
    let layout = GqaLayout::new(8, 2); // 8 query heads share 2 KV heads
    let (prefix_len, d) = (1024usize, 64usize);

    // --- Offline: prefill the shared prefix once and persist it. -------
    let engine = TurboAttention::new(TurboConfig::default());
    let qs: Vec<Matrix> = (0..layout.q_heads)
        .map(|_| rng.normal(prefix_len, d, 0.0, 1.0))
        .collect();
    let ks: Vec<Matrix> = (0..layout.kv_heads)
        .map(|_| rng.normal(prefix_len, d, 0.0, 1.0))
        .collect();
    let vs: Vec<Matrix> = (0..layout.kv_heads)
        .map(|_| rng.normal(prefix_len, d, 0.0, 1.0))
        .collect();
    let rt = turbo_runtime::global();
    let (_, cache) = engine.prefill_layer_gqa_on(rt, layout, &qs, &ks, &vs, 1);

    let payloads: Vec<Vec<u8>> = (0..layout.kv_heads)
        .map(|h| serialize_head_cache(cache.head(h)))
        .collect();
    let stored: usize = payloads.iter().map(Vec::len).sum();
    let fp16 = 2 * 2 * prefix_len * d * layout.kv_heads;
    println!(
        "persisted {prefix_len}-token prefix: {} KiB on disk vs {} KiB FP16 ({:.1}x smaller)",
        stored / 1024,
        fp16 / 1024,
        fp16 as f64 / stored as f64
    );

    // --- Online: a request arrives; reload the prefix per KV head. -----
    let reloaded: Vec<HeadKvCache> = payloads
        .iter()
        .map(|p| deserialize_head_cache(p).expect("stored prefix must decode"))
        .collect();
    println!(
        "reloaded prefix: {} tokens x {} KV heads (bit-identical to the original: {})",
        reloaded[0].len(),
        reloaded.len(),
        (0..layout.kv_heads)
            .all(|h| reloaded[h].dequantize_all() == cache.head(h).dequantize_all())
    );

    // --- Serve: one grouped decode pass per KV head. -------------------
    let sas = engine.sas();
    let g = layout.group_size();
    let mut grouped_is_per_head = true;
    for _ in 0..8 {
        let q_rows: Vec<Vec<f32>> = (0..layout.q_heads)
            .map(|_| (0..d).map(|_| rng.standard_normal()).collect::<Vec<f32>>())
            .collect();
        for (kv, head) in reloaded.iter().enumerate() {
            let group: Vec<&[f32]> = q_rows[kv * g..(kv + 1) * g]
                .iter()
                .map(Vec::as_slice)
                .collect();
            let outs = turbo_attend_group(&group, head, sas);
            for (q, out) in group.iter().zip(&outs) {
                grouped_is_per_head &= *out == turbo_attend_cache(q, head, sas);
            }
        }
    }
    println!(
        "grouped decode: {} query heads as {} groups of {g}, one pass per group over {} \
         resident blocks (bit-identical to per-head decode: {grouped_is_per_head})",
        layout.q_heads,
        layout.kv_heads,
        reloaded[0].resident_blocks().len(),
    );
}

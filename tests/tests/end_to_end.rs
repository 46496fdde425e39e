//! Full-lifecycle integration tests: prefill → decode → cache state,
//! across every crate boundary.

use turbo_attention::{
    naive_attention, turbo_attend_cache, GqaLayout, Masking, TurboAttention, TurboConfig,
};
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_quant::{BitWidth, SymQuantized};
use turbo_softmax::Sas;
use turbo_tensor::{relative_error, Matrix, TensorRng};

fn qkv(seed: u64, n: usize, d: usize) -> (Matrix, Matrix, Matrix) {
    let mut rng = TensorRng::new(seed);
    (
        rng.normal(n, d, 0.0, 1.0),
        rng.normal(n, d, 0.0, 1.0),
        rng.normal(n, d, 0.0, 1.0),
    )
}

#[test]
fn long_generation_stays_accurate() {
    // Prefill 256 tokens, decode 128 more; every 16th step is checked
    // against dense exact attention over the true (unquantized) history.
    let d = 32;
    let (q0, k0, v0) = qkv(1, 256, d);
    let engine = TurboAttention::new(TurboConfig {
        buffer_capacity: 32,
        ..TurboConfig::default()
    });
    let (_, mut cache) = engine.prefill_head(&q0, &k0, &v0);

    let mut rng = TensorRng::new(2);
    let mut ks = k0;
    let mut vs = v0;
    for step in 0..128 {
        let qt = rng.normal(1, d, 0.0, 1.0);
        let kt = rng.normal(1, d, 0.0, 1.0);
        let vt = rng.normal(1, d, 0.0, 1.0);
        ks.append_rows(&kt);
        vs.append_rows(&vt);
        cache.try_append(kt.row(0), vt.row(0)).unwrap();
        let out = turbo_attend_cache(qt.row(0), &cache, engine.sas());
        assert_eq!(cache.len(), 257 + step);
        if step % 16 == 0 {
            let exact = naive_attention(&qt, &ks, &vs, Masking::Causal);
            let out_m = Matrix::from_vec(1, d, out);
            let rel = relative_error(&out_m, &exact);
            assert!(rel < 0.25, "step {step}: relative error {rel}");
        }
    }
    // Cache structure: 256 prefill + 128 decoded, buffer capacity 32.
    assert_eq!(cache.len(), 384);
    assert_eq!(cache.buffer_len(), 0); // 128 decodes = exactly 4 flushes
}

#[test]
fn prefill_cache_equals_decode_built_cache_closely() {
    // Building the cache via prefill blocks vs appending token-by-token
    // must give comparable reconstructions (scales differ slightly:
    // per-block stage-1 vs buffer universal scale).
    let d = 16;
    let (_, k, v) = qkv(3, 64, d);
    let cfg = KvCacheConfig {
        bits: BitWidth::Int4,
        group_size: 64,
        buffer_capacity: 64,
    };
    let mut prefill_cache = HeadKvCache::new(d, cfg);
    let (k8, v8) = (SymQuantized::quantize(&k), SymQuantized::quantize(&v));
    prefill_cache.append_prefill_blocks([(&k8, &v8)]);
    let mut decode_cache = HeadKvCache::new(d, cfg);
    for t in 0..64 {
        decode_cache.try_append(k.row(t), v.row(t)).unwrap();
    }
    decode_cache.try_flush().unwrap();
    let (kp, _) = prefill_cache.dequantize_all();
    let (kd, _) = decode_cache.dequantize_all();
    assert!(relative_error(&kp, &k) < 0.12);
    assert!(relative_error(&kd, &k) < 0.2);
}

#[test]
fn attend_cache_is_read_only() {
    let d = 8;
    let (_, k, v) = qkv(4, 32, d);
    let engine = TurboAttention::default();
    let (_, cache) = engine.prefill_head(&k, &k, &v);
    let sas = Sas::paper_default();
    let len_before = cache.len();
    let q = [0.5f32; 8];
    let a = turbo_attend_cache(&q, &cache, &sas);
    let b = turbo_attend_cache(&q, &cache, &sas);
    assert_eq!(a, b, "read-only attend must be deterministic");
    assert_eq!(cache.len(), len_before);
}

#[test]
fn mixed_precision_layer_protects_outlier_heads() {
    // Outlier heads (kept at INT4) must end up with lower attention error
    // than the demoted INT2 heads on comparable data.
    let d = 32;
    let n = 128;
    let mut rng = TensorRng::new(5);
    let qs: Vec<Matrix> = (0..4).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
    let ks = vec![
        rng.normal_with_channel_outliers(n, d, 1.0, &[2, 9], 20.0),
        rng.normal(n, d, 0.0, 1.0),
        rng.normal_with_channel_outliers(n, d, 1.0, &[5], 20.0),
        rng.normal(n, d, 0.0, 1.0),
    ];
    let vs: Vec<Matrix> = (0..4).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
    let engine = TurboAttention::default();
    let layout = GqaLayout::new(4, 4);
    let (_, layer) = engine.prefill_layer_gqa_on(turbo_runtime::global(), layout, &qs, &ks, &vs, 2);
    assert_eq!(layer.head(0).config().bits, BitWidth::Int4);
    assert_eq!(layer.head(1).config().bits, BitWidth::Int2);
    assert_eq!(layer.head(2).config().bits, BitWidth::Int4);
    assert_eq!(layer.head(3).config().bits, BitWidth::Int2);
    // Reconstruction error per head mirrors the bit assignment.
    let e_int4 = relative_error(&layer.head(1).dequantize_all().1, &vs[1]);
    let e_int2 = relative_error(&layer.head(3).dequantize_all().1, &vs[3]);
    // Heads 1 and 3 hold statistically identical V; both are INT2 so they
    // should be similar — while head 0's INT4 V beats both.
    let e_head0 = relative_error(&layer.head(0).dequantize_all().1, &vs[0]);
    assert!(e_head0 < e_int4.min(e_int2));
}

#[test]
fn compression_ratio_exceeds_paper_claim_at_mixed_precision() {
    // The paper claims >4.4x KV-cache reduction with mixed 2/4-bit.
    let d = 128;
    let n = 1024;
    let mut rng = TensorRng::new(6);
    let k = rng.normal(n, d, 0.0, 1.0);
    let engine = TurboAttention::default();
    let qs: Vec<Matrix> = (0..2).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
    let ks = vec![k.clone(), rng.normal(n, d, 0.0, 1.0)];
    let vs = vec![k.clone(), k];
    let bits = [BitWidth::Int2, BitWidth::Int4];
    let (_, layer) =
        engine.prefill_layer_parallel_on(turbo_runtime::global(), &qs, &ks, &vs, &bits);
    let ratio = layer.memory_stats().compression_ratio();
    assert!(ratio > 4.4, "compression ratio {ratio}");
}

#[test]
fn sas_threshold_trades_accuracy_for_sparsity() {
    // Tighter thresholds are cheaper (smaller LUT, more zeros) but lose
    // accuracy; the engine must remain monotone across thresholds.
    let (q, k, v) = qkv(7, 96, 16);
    let exact = naive_attention(&q, &k, &v, Masking::Causal);
    let mut errs = Vec::new();
    for nr in [-2i32, -6, -12] {
        let engine = TurboAttention::new(TurboConfig {
            sas_threshold: nr,
            ..TurboConfig::default()
        });
        let (out, _) = engine.prefill_head(&q, &k, &v);
        errs.push(relative_error(&out, &exact));
    }
    assert!(
        errs[0] > errs[1] && errs[1] >= errs[2] * 0.5,
        "threshold errors not ordered: {errs:?}"
    );
}

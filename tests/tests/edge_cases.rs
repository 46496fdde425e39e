//! Edge-case and failure-injection integration tests: degenerate shapes,
//! extreme values, and API-misuse paths across the crate stack.

use turbo_attention::{
    naive_attention, turbo_attend_cache, GqaLayout, Masking, TurboAttention, TurboConfig,
};
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_quant::{BitWidth, ProgressiveBlock, SymQuantized};
use turbo_softmax::Sas;
use turbo_tensor::{Matrix, TensorRng};

#[test]
fn one_by_one_attention() {
    // The smallest possible attention problem: 1 token, 1 channel.
    let q = Matrix::from_rows(&[&[2.0]]);
    let k = Matrix::from_rows(&[&[3.0]]);
    let v = Matrix::from_rows(&[&[5.0]]);
    let out = naive_attention(&q, &k, &v, Masking::Causal);
    assert_eq!(out.get(0, 0), 5.0);

    let engine = TurboAttention::new(TurboConfig {
        block_r: 1,
        block_c: 1,
        group_size: 1,
        buffer_capacity: 1,
        ..TurboConfig::default()
    });
    let (turbo_out, cache) = engine.prefill_head(&q, &k, &v);
    assert!((turbo_out.get(0, 0) - 5.0).abs() < 0.15);
    assert_eq!(cache.len(), 1);
}

#[test]
fn gqa_with_group_one_equals_mha() {
    // kv_heads == q_heads degenerates to plain multi-head attention.
    let layout = GqaLayout::new(2, 2);
    assert_eq!(layout.group_size(), 1);
    let mut rng = TensorRng::new(1);
    let qs: Vec<Matrix> = (0..2).map(|_| rng.normal(16, 8, 0.0, 1.0)).collect();
    let ks: Vec<Matrix> = (0..2).map(|_| rng.normal(16, 8, 0.0, 1.0)).collect();
    let vs: Vec<Matrix> = (0..2).map(|_| rng.normal(16, 8, 0.0, 1.0)).collect();
    let engine = TurboAttention::default();
    let rt = turbo_runtime::global();
    let (gqa_outs, _) = engine.prefill_layer_gqa_on(rt, layout, &qs, &ks, &vs, 0);
    for h in 0..2 {
        let (mha_out, _) = engine.prefill_head(&qs[h], &ks[h], &vs[h]);
        assert_eq!(gqa_outs[h], mha_out);
    }
}

#[test]
fn parallel_layer_with_single_head() {
    let mut rng = TensorRng::new(2);
    let q = vec![rng.normal(8, 4, 0.0, 1.0)];
    let k = vec![rng.normal(8, 4, 0.0, 1.0)];
    let v = vec![rng.normal(8, 4, 0.0, 1.0)];
    let engine = TurboAttention::default();
    let (serial, _) = engine.prefill_head(&q[0], &k[0], &v[0]);
    let (parallel, _) =
        engine.prefill_layer_parallel_on(turbo_runtime::global(), &q, &k, &v, &[BitWidth::Int4]);
    assert_eq!(vec![serial], parallel);
}

#[test]
fn huge_magnitude_activations_survive_the_quantized_path() {
    // 1e4-scale activations: scales absorb magnitude, no overflow anywhere.
    let mut rng = TensorRng::new(3);
    let q = rng.normal(32, 8, 0.0, 1.0e4);
    let k = rng.normal(32, 8, 0.0, 1.0e4);
    let v = rng.normal(32, 8, 0.0, 1.0e4);
    let engine = TurboAttention::default();
    let (out, _) = engine.prefill_head(&q, &k, &v);
    assert!(out.as_slice().iter().all(|x| x.is_finite()));
    // Attention output stays within V's range (convexity).
    assert!(out.max() <= v.max() * 1.01);
    assert!(out.min() >= v.min() * 1.01);
}

#[test]
fn tiny_magnitude_activations_survive_too() {
    let mut rng = TensorRng::new(4);
    let q = rng.normal(16, 8, 0.0, 1.0e-5);
    let k = rng.normal(16, 8, 0.0, 1.0e-5);
    let v = rng.normal(16, 8, 0.0, 1.0e-5);
    let engine = TurboAttention::default();
    let (out, _) = engine.prefill_head(&q, &k, &v);
    assert!(out.as_slice().iter().all(|x| x.is_finite()));
}

#[test]
fn constant_keys_give_uniform_attention() {
    // All keys identical -> scores identical -> output = mean of values.
    let q = Matrix::from_rows(&[&[1.0, 1.0]]);
    let k = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5], &[0.5, 0.5]]);
    let v = Matrix::from_rows(&[&[0.0, 3.0], &[3.0, 0.0], &[0.0, 0.0]]);
    let exact = naive_attention(&q, &k, &v, Masking::Full);
    assert!((exact.get(0, 0) - 1.0).abs() < 1e-6);
    assert!((exact.get(0, 1) - 1.0).abs() < 1e-6);

    let sas = Sas::paper_default();
    let mut cache = HeadKvCache::new(2, KvCacheConfig::default());
    for t in 0..3 {
        cache.append(k.row(t), v.row(t));
    }
    let out = turbo_attend_cache(&[1.0, 1.0], &cache, &sas);
    assert!((out[0] - 1.0).abs() < 0.1);
    assert!((out[1] - 1.0).abs() < 0.1);
}

#[test]
fn zero_queries_attend_uniformly() {
    // A zero query scores every key 0: softmax is uniform regardless of
    // quantization (scale of an all-zero row is the safe default 1.0).
    let mut rng = TensorRng::new(5);
    let k = rng.normal(8, 4, 0.0, 1.0);
    let v = rng.normal(8, 4, 0.0, 1.0);
    let sas = Sas::paper_default();
    let mut cache = HeadKvCache::new(4, KvCacheConfig::default());
    for t in 0..8 {
        cache.append(k.row(t), v.row(t));
    }
    let out = turbo_attend_cache(&[0.0; 4], &cache, &sas);
    let mean: Vec<f32> = (0..4)
        .map(|c| (0..8).map(|t| v.get(t, c)).sum::<f32>() / 8.0)
        .collect();
    for (a, b) in out.iter().zip(&mean) {
        assert!((a - b).abs() < 0.1, "{a} vs {b}");
    }
}

#[test]
fn progressive_block_of_single_element() {
    let m = Matrix::from_rows(&[&[0.75]]);
    let pq = ProgressiveBlock::quantize(&m, BitWidth::Int2, 1);
    let back = pq.dequantize();
    assert!((back.get(0, 0) - 0.75).abs() < 0.02);
}

#[test]
fn sym_quantized_handles_negative_only_blocks() {
    let m = Matrix::from_rows(&[&[-3.0, -1.0, -2.0]]);
    let q = SymQuantized::quantize(&m);
    let back = q.dequantize();
    for c in 0..3 {
        assert!((back.get(0, c) - m.get(0, c)).abs() <= q.scale() * 0.5 + 1e-6);
    }
}

#[test]
fn decode_after_many_flushes_stays_stable() {
    // 1000 tokens through a 16-token buffer: 62 flushes; error must not
    // drift upward over time.
    let mut rng = TensorRng::new(6);
    let d = 8;
    let sas = Sas::paper_default();
    let mut cache = HeadKvCache::new(
        d,
        KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 16,
            buffer_capacity: 16,
        },
    );
    let data = rng.normal(1000, d, 0.0, 1.0);
    for t in 0..1000 {
        cache.append(data.row(t), data.row(t));
    }
    let q = rng.normal(1, d, 0.0, 1.0);
    let out = turbo_attend_cache(q.row(0), &cache, &sas);
    let exact = naive_attention(&q, &data, &data, Masking::Causal);
    for (a, b) in out.iter().zip(exact.row(0)) {
        assert!((a - b).abs() < 0.2, "{a} vs {b}");
    }
}

#[test]
fn sliding_window_narrower_than_block_sizes() {
    // Window of 3 with blocks of 16: masking must dominate tiling.
    let mut rng = TensorRng::new(7);
    let q = rng.normal(40, 8, 0.0, 1.0);
    let k = rng.normal(40, 8, 0.0, 1.0);
    let v = rng.normal(40, 8, 0.0, 1.0);
    let exact = naive_attention(&q, &k, &v, Masking::SlidingWindow(3));
    let tiled = turbo_attention::flash_attention(&q, &k, &v, Masking::SlidingWindow(3), 16, 16);
    assert!(turbo_tensor::max_abs_error(&exact, &tiled) < 1e-5);
}

#[test]
fn fp8_and_f16_rounding_agree_on_exact_grid() {
    // Powers of two in both grids are fixed points of both roundings.
    for e in -6..=8 {
        let x = (2.0f32).powi(e);
        assert_eq!(turbo_tensor::round_f16(x), x);
        assert_eq!(turbo_tensor::round_e4m3(x), x);
    }
}

#[test]
fn persist_deserialization_survives_arbitrary_byte_mutations() {
    // Deterministic fuzz loop: every mutation of a valid payload must
    // yield either a clean `PersistError` or a coherent cache — never a
    // panic. This covers the header (uncovered by checksums) as well as
    // the CRC-protected body.
    use turbo_kvcache::persist::{deserialize_head_cache, serialize_head_cache};
    use turbo_robust::FaultInjector;

    let mut rng = TensorRng::new(0xF022);
    let mut cache = HeadKvCache::new(
        6,
        KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 8,
            buffer_capacity: 8,
        },
    );
    let data = rng.normal(37, 6, 0.0, 1.0);
    for t in 0..37 {
        cache.append(data.row(t), data.row(t));
    }
    let clean = serialize_head_cache(&cache);
    assert_eq!(deserialize_head_cache(&clean).unwrap().len(), 37);

    let mut inj = FaultInjector::new(0xF023);
    let mut decoded_ok = 0usize;
    for round in 0..512 {
        let mut payload = clean.clone();
        match round % 4 {
            // Byte corruption anywhere (header included).
            0 | 1 => {
                let n = 1 + inj.pick(8);
                inj.corrupt_bytes(&mut payload, n);
            }
            // Truncation to a strictly shorter prefix.
            2 => {
                inj.truncate_bytes(&mut payload);
            }
            // Both.
            _ => {
                inj.truncate_bytes(&mut payload);
                if !payload.is_empty() {
                    let n = 1 + inj.pick(4);
                    inj.corrupt_bytes(&mut payload, n);
                }
            }
        }
        match deserialize_head_cache(&payload) {
            Err(_) => {}
            Ok(c) => {
                // If it decodes, it must be internally coherent.
                decoded_ok += 1;
                assert_eq!(c.head_dim(), 6);
                let (k, v) = c.dequantize_all();
                assert_eq!(k.rows(), c.len());
                assert_eq!(v.rows(), c.len());
            }
        }
        // The recovery path must hold the same never-panic contract.
        if let Ok((salvaged, report)) = turbo_kvcache::recover_head_cache(&payload, None) {
            assert_eq!(salvaged.len(), report.valid_tokens);
        }
    }
    // Nearly everything must be rejected: the only undetectable byte
    // mutations are ones that strike a stored checksum AND its covered
    // bytes in a colliding way, which the IEEE CRC makes vanishingly rare.
    assert!(
        decoded_ok <= 8,
        "suspiciously many corrupt payloads decoded: {decoded_ok}/512"
    );
}

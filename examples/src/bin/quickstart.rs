//! Quickstart: quantized attention in a dozen lines.
//!
//! Prefills one attention head with TurboAttention (INT8 execution + SAS
//! softmax, progressive INT4 KV cache), decodes a few more tokens, and
//! reports accuracy against exact attention plus the cache's compression
//! ratio.

use turbo_attention::{naive_attention, turbo_attend_cache, Masking, TurboAttention, TurboConfig};
use turbo_tensor::{relative_error, Matrix, TensorRng};

fn main() {
    let mut rng = TensorRng::new(2024);
    let (tokens, d) = (512usize, 64usize);
    let q = rng.normal(tokens, d, 0.0, 1.0);
    let k = rng.normal(tokens, d, 0.0, 1.0);
    let v = rng.normal(tokens, d, 0.0, 1.0);

    // 1. Prefill with the paper-default engine (B_r = B_c = n_b = 64,
    //    INT4 cache, SAS threshold -6).
    let engine = TurboAttention::new(TurboConfig::default());
    let (out, mut cache) = engine.prefill_head(&q, &k, &v);

    let exact = naive_attention(&q, &k, &v, Masking::Causal);
    println!("prefill: {} tokens, head dim {}", tokens, d);
    println!(
        "  relative error vs exact attention: {:.4}",
        relative_error(&out, &exact)
    );

    // 2. Decode 32 more tokens against the quantized cache.
    let mut ks = k.clone();
    let mut vs = v.clone();
    let mut last_err = 0.0;
    for _ in 0..32 {
        let qt = rng.normal(1, d, 0.0, 1.0);
        let kt = rng.normal(1, d, 0.0, 1.0);
        let vt = rng.normal(1, d, 0.0, 1.0);
        ks.append_rows(&kt);
        vs.append_rows(&vt);
        cache
            .try_append(kt.row(0), vt.row(0))
            .expect("normal samples are finite");
        let step = turbo_attend_cache(qt.row(0), &cache, engine.sas());
        let exact_step = naive_attention(&qt, &ks, &vs, Masking::Causal);
        let step_m = Matrix::from_vec(1, d, step);
        last_err = relative_error(&step_m, &exact_step);
    }
    println!("decode: 32 steps, final-step relative error {last_err:.4}");

    // 3. Memory accounting.
    let stats = cache.memory_stats();
    println!(
        "KV cache: {} tokens in {} bytes ({:.1}x smaller than FP16's {} bytes)",
        cache.len(),
        stats.total_bytes(),
        stats.compression_ratio(),
        stats.fp16_bytes
    );
}

//! Ring/Lean-attention-style sequence-parallel prefill.
//!
//! Ring Attention, Striped Attention and Lean Attention — all cited by
//! the paper as compatible optimizations — shard the key/value sequence
//! across devices; every device computes partial attention of the *whole*
//! query set over its shard, and the partials merge exactly with their
//! logsumexp weights. This module implements that composition for both
//! the exact kernel and the quantized TurboAttention kernel, proving the
//! paper's compatibility claim end to end: the merge only needs each
//! shard's `(O, lse)` pair, which Algorithm 1 already returns.

use crate::prefill::{turbo_prefill_head, PrefillOutput};
use crate::reference::{flash_attention_with_lse, Masking};
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_softmax::Sas;
use turbo_tensor::Matrix;

/// Merges per-shard partial outputs into the full attention output.
///
/// Shard `s` supplies `(O_s, lse_s)` where `O_s` is the normalized
/// attention of every query over that shard's keys and `lse_s[i]` is the
/// query's logsumexp there. The exact combination is
/// `O = Σ_s softmax-weight_s · O_s` with
/// `weight_s[i] = exp(lse_s[i] − lse*_i) / Σ_t exp(lse_t[i] − lse*_i)`.
///
/// # Panics
///
/// Panics if `parts` is empty or shapes/lengths disagree.
pub fn merge_shards(parts: &[(Matrix, Vec<f32>)]) -> Matrix {
    assert!(!parts.is_empty(), "no shards to merge");
    let (rows, cols) = parts[0].0.shape();
    for (o, lse) in parts {
        assert_eq!(o.shape(), (rows, cols), "shard output shape mismatch");
        assert_eq!(lse.len(), rows, "shard lse length mismatch");
    }
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..rows {
        let max_lse = parts
            .iter()
            .map(|(_, l)| l[i])
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(max_lse.is_finite(), "query {i} attended to nothing");
        let mut total = 0.0f32;
        let weights: Vec<f32> = parts
            .iter()
            .map(|(_, l)| {
                let w = (l[i] - max_lse).exp();
                total += w;
                w
            })
            .collect();
        for (w, (o, _)) in weights.iter().zip(parts) {
            let wn = w / total;
            for c in 0..cols {
                let val = out.get(i, c) + wn * o.get(i, c);
                out.set(i, c, val);
            }
        }
    }
    out
}

/// Exact sequence-parallel prefill on `rt` (pass
/// [`turbo_runtime::global()`] for the default pool): shards `k`/`v`
/// into `shards` contiguous pieces, computes full-query partial
/// attention per shard, and merges. Produces the same output as
/// single-device [`crate::reference::flash_attention`] with
/// `Masking::Full`.
///
/// Each shard is one pooled task (one per simulated "device"); the
/// index-ordered merge makes the result bit-identical at any worker
/// count.
///
/// # Panics
///
/// Panics if `shards == 0` or exceeds the key count.
pub fn ring_prefill_exact_on(
    rt: &turbo_runtime::Runtime,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    shards: usize,
    block: usize,
) -> Matrix {
    assert!(shards > 0, "need at least one shard");
    assert!(shards <= k.rows(), "more shards than keys");
    let shard_len = k.rows().div_ceil(shards);
    let parts: Vec<(Matrix, Vec<f32>)> = rt.par_map_indexed(shards, |s| {
        let start = s * shard_len;
        let len = shard_len.min(k.rows() - start);
        let ks = k.row_block(start, len);
        let vs = v.row_block(start, len);
        flash_attention_with_lse(q, &ks, &vs, Masking::Full, block, block)
    });
    merge_shards(&parts)
}

/// Quantized sequence-parallel prefill on `rt` (pass
/// [`turbo_runtime::global()`] for the default pool): every shard runs
/// the full TurboAttention Algorithm 1 (INT8 matmuls + SAS + cache
/// write), then the shard outputs merge by logsumexp. Returns the merged
/// output and the per-shard quantized caches (one per "device").
///
/// Each shard (Algorithm 1 + its own cache write) is one pooled task;
/// the index-ordered merge keeps the output and cache order
/// bit-identical at any worker count.
///
/// # Panics
///
/// Panics if `shards == 0` or exceeds the key count.
#[allow(clippy::too_many_arguments)]
pub fn ring_prefill_turbo_on(
    rt: &turbo_runtime::Runtime,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    shards: usize,
    sas: &Sas,
    block: usize,
    cache_config: KvCacheConfig,
) -> (Matrix, Vec<HeadKvCache>) {
    assert!(shards > 0, "need at least one shard");
    assert!(shards <= k.rows(), "more shards than keys");
    let shard_len = k.rows().div_ceil(shards);
    let results: Vec<((Matrix, Vec<f32>), HeadKvCache)> = rt.par_map_indexed(shards, |s| {
        let start = s * shard_len;
        let len = shard_len.min(k.rows() - start);
        let ks = k.row_block(start, len);
        let vs = v.row_block(start, len);
        let mut cache = HeadKvCache::new(q.cols(), cache_config);
        let PrefillOutput { output, lse } =
            turbo_prefill_head(q, &ks, &vs, Masking::Full, sas, block, block, &mut cache);
        ((output, lse), cache)
    });
    let (parts, caches): (Vec<(Matrix, Vec<f32>)>, Vec<HeadKvCache>) =
        results.into_iter().unzip();
    (merge_shards(&parts), caches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{flash_attention, naive_attention};
    use turbo_quant::BitWidth;
    use turbo_tensor::{max_abs_error, relative_error, TensorRng};

    fn qkv(seed: u64, n: usize, d: usize) -> (Matrix, Matrix, Matrix) {
        let mut rng = TensorRng::new(seed);
        (
            rng.normal(n, d, 0.0, 1.0),
            rng.normal(n, d, 0.0, 1.0),
            rng.normal(n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn exact_ring_matches_single_device() {
        let (q, k, v) = qkv(1, 96, 16);
        let single = flash_attention(&q, &k, &v, Masking::Full, 32, 32);
        for shards in [1usize, 2, 3, 5, 96] {
            let ring = ring_prefill_exact_on(turbo_runtime::global(), &q, &k, &v, shards, 16);
            assert!(
                max_abs_error(&single, &ring) < 1e-4,
                "{shards} shards diverged"
            );
        }
    }

    #[test]
    fn ragged_shards_are_exact_too() {
        let (q, k, v) = qkv(2, 50, 8); // 50 keys over 4 shards: 13/13/13/11
        let single = naive_attention(&q, &k, &v, Masking::Full);
        let ring = ring_prefill_exact_on(turbo_runtime::global(), &q, &k, &v, 4, 8);
        assert!(max_abs_error(&single, &ring) < 1e-4);
    }

    #[test]
    fn quantized_ring_matches_quantized_single_device() {
        let (q, k, v) = qkv(3, 64, 16);
        let sas = Sas::paper_default();
        let cfg = KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 16,
            buffer_capacity: 16,
        };
        let mut single_cache = HeadKvCache::new(16, cfg);
        let single = turbo_prefill_head(&q, &k, &v, Masking::Full, &sas, 16, 16, &mut single_cache);
        let rt = turbo_runtime::global();
        let (ring, caches) = ring_prefill_turbo_on(rt, &q, &k, &v, 4, &sas, 16, cfg);
        // Shard-local quantization scales differ slightly from the global
        // sweep, so allow a small tolerance.
        let rel = relative_error(&ring, &single.output);
        assert!(rel < 0.05, "quantized ring rel error {rel}");
        // Every shard cached its slice of the sequence.
        let total: usize = caches.iter().map(HeadKvCache::len).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn quantized_ring_tracks_exact_attention() {
        let (q, k, v) = qkv(4, 80, 16);
        let sas = Sas::paper_default();
        let cfg = KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 16,
            buffer_capacity: 16,
        };
        let exact = naive_attention(&q, &k, &v, Masking::Full);
        let rt = turbo_runtime::global();
        let (ring, _) = ring_prefill_turbo_on(rt, &q, &k, &v, 5, &sas, 16, cfg);
        assert!(relative_error(&ring, &exact) < 0.06);
    }

    #[test]
    fn merge_is_shard_order_invariant() {
        let (q, k, v) = qkv(5, 32, 8);
        let a = flash_attention_with_lse(
            &q,
            &k.row_block(0, 16),
            &v.row_block(0, 16),
            Masking::Full,
            8,
            8,
        );
        let b = flash_attention_with_lse(
            &q,
            &k.row_block(16, 16),
            &v.row_block(16, 16),
            Masking::Full,
            8,
            8,
        );
        let fwd = merge_shards(&[a.clone(), b.clone()]);
        let rev = merge_shards(&[b, a]);
        assert!(max_abs_error(&fwd, &rev) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "more shards than keys")]
    fn too_many_shards_panics() {
        let (q, k, v) = qkv(6, 4, 4);
        ring_prefill_exact_on(turbo_runtime::global(), &q, &k, &v, 5, 4);
    }

    #[test]
    fn pooled_shards_are_bit_identical_at_any_worker_count() {
        let (q, k, v) = qkv(7, 72, 16);
        let sas = Sas::paper_default();
        let cfg = KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 16,
            buffer_capacity: 16,
        };
        let serial_rt = turbo_runtime::Runtime::with_workers(1);
        let exact_base = ring_prefill_exact_on(&serial_rt, &q, &k, &v, 5, 16);
        let (turbo_base, caches_base) = ring_prefill_turbo_on(&serial_rt, &q, &k, &v, 5, &sas, 16, cfg);
        for workers in [2usize, 8] {
            let rt = turbo_runtime::Runtime::with_workers(workers);
            let exact = ring_prefill_exact_on(&rt, &q, &k, &v, 5, 16);
            assert_eq!(exact_base, exact, "exact ring diverged at {workers} workers");
            let (turbo, caches) = ring_prefill_turbo_on(&rt, &q, &k, &v, 5, &sas, 16, cfg);
            assert_eq!(turbo_base, turbo, "turbo ring diverged at {workers} workers");
            assert_eq!(caches.len(), caches_base.len());
            for (a, b) in caches_base.iter().zip(&caches) {
                assert_eq!(a.len(), b.len());
                assert_eq!(a.dequantize_all(), b.dequantize_all());
            }
        }
        // And the global runtime agrees too.
        let global = ring_prefill_exact_on(turbo_runtime::global(), &q, &k, &v, 5, 16);
        assert_eq!(exact_base, global);
    }
}

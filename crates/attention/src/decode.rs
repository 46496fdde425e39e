//! TurboAttention decode — Algorithm 2.
//!
//! One new token's query attends to the quantized KV cache:
//!
//! 1. The new `k`/`v` vectors enter the INT8 buffer (universal scale,
//!    flushing to INT4/2 every `n_b` steps).
//! 2. `q` is symmetrically quantized to INT8.
//! 3. Each resident block's INT8 expansion comes from the head's
//!    [`DequantTile`] cache — the pure-integer INT4/2 → INT8
//!    dequantization runs once per block for as long as the block stays
//!    resident instead of once per decode step — and scores come from
//!    the fused INT8 GEMM kernel.
//! 4. SAS replaces FP32 exponentiation (evaluated over the whole score
//!    tile with threshold-skip short-circuiting); the probability row is
//!    INT8 re-quantized for the `P⁸·V⁸` product, exactly as in prefill.
//!
//! One kernel serves both plain and grouped-query decode:
//! [`turbo_attend_group_into`] attends `G` query rows that share the
//! cache, looking each tile up once and running one `G`-row GEMM per
//! tile for scores and one for `P·V`. [`turbo_attend_cache_into`] is its
//! `G = 1` call.
//!
//! The hot path is **zero-allocation** in steady state: all intermediate
//! buffers live in a caller-owned [`Scratch`] arena (the convenience
//! entry points keep one per thread), value tiles arrive pre-transposed
//! from the cache, and the only per-step allocation on the convenience
//! path is the returned output vector itself. Every kernel here is
//! bit-identical to the original unfused implementation: integer
//! accumulation is associative, the scale epilogues multiply the same
//! finished sums, and SAS short-circuiting zeroes exactly the entries
//! `Sas::exp` would.

use std::cell::RefCell;

use crate::scratch::{RowState, Scratch};
use turbo_kvcache::{DequantTile, HeadKvCache};
use turbo_quant::quantize_row_sym_into;
use turbo_softmax::Sas;
use turbo_tensor::matmul_i8_transposed_b_into;

/// Decodes one token for one head: appends `(k_new, v_new)` to the cache,
/// then computes the attention output of `q_new` over the whole cache.
///
/// Returns the `d`-dimensional attention output row.
///
/// # Panics
///
/// Panics if vector lengths don't match the cache's head dimension.
pub fn turbo_decode_head(
    q_new: &[f32],
    k_new: &[f32],
    v_new: &[f32],
    cache: &mut HeadKvCache,
    sas: &Sas,
) -> Vec<f32> {
    let d = cache.head_dim();
    assert_eq!(q_new.len(), d, "query width mismatch");
    assert_eq!(k_new.len(), d, "key width mismatch");
    assert_eq!(v_new.len(), d, "value width mismatch");

    cache.append(k_new, v_new);
    turbo_attend_cache(q_new, cache, sas)
}

/// Allocation-free sibling of [`turbo_decode_head`]: intermediates live
/// in `scratch` and the output row is written into `out` (cleared and
/// refilled, keeping its capacity). In steady state — between buffer
/// flush boundaries, with the tile cache warm — a step performs zero
/// heap allocations.
///
/// # Panics
///
/// As [`turbo_decode_head`].
pub fn turbo_decode_head_into(
    q_new: &[f32],
    k_new: &[f32],
    v_new: &[f32],
    cache: &mut HeadKvCache,
    sas: &Sas,
    scratch: &mut Scratch,
    out: &mut Vec<f32>,
) {
    let d = cache.head_dim();
    assert_eq!(q_new.len(), d, "query width mismatch");
    assert_eq!(k_new.len(), d, "key width mismatch");
    assert_eq!(v_new.len(), d, "value width mismatch");

    cache.append(k_new, v_new);
    turbo_attend_cache_into(q_new, cache, sas, scratch, out);
}

/// Attends a single query over an existing quantized cache *without*
/// appending anything — the read-only half of Algorithm 2. Useful when the
/// same cache serves several queries (e.g. multi-hop retrieval probes).
///
/// Uses a thread-local [`Scratch`] arena, so repeated calls only allocate
/// the returned vector. For a strictly allocation-free loop use
/// [`turbo_attend_cache_into`].
///
/// # Panics
///
/// Panics if `q.len()` differs from the cache head dimension or the cache
/// is empty.
pub fn turbo_attend_cache(q: &[f32], cache: &HeadKvCache, sas: &Sas) -> Vec<f32> {
    with_thread_scratch(|scratch| {
        let mut out = Vec::new();
        turbo_attend_cache_into(q, cache, sas, scratch, &mut out);
        out
    })
}

/// As [`turbo_attend_cache`], with caller-owned buffers: all
/// intermediates live in `scratch` and the output is written into `out`.
/// Zero heap allocations once `scratch`/`out` have warmed to the cache's
/// shape and the tile cache holds the resident blocks. This is the
/// one-row call of [`turbo_attend_group_into`].
///
/// # Panics
///
/// As [`turbo_attend_cache`].
pub fn turbo_attend_cache_into(
    q: &[f32],
    cache: &HeadKvCache,
    sas: &Sas,
    scratch: &mut Scratch,
    out: &mut Vec<f32>,
) {
    turbo_attend_group_into(&[q], cache, sas, scratch, out);
}

/// Attends a whole query group — the `G` query heads that share one KV
/// head under GQA — over `cache` in one pass, returning one output row
/// per query. Uses a thread-local [`Scratch`] arena.
///
/// Row `i` is bit-identical to `turbo_attend_cache(qs[i], cache, sas)`.
///
/// # Panics
///
/// As [`turbo_attend_group_into`].
pub fn turbo_attend_group(qs: &[&[f32]], cache: &HeadKvCache, sas: &Sas) -> Vec<Vec<f32>> {
    with_thread_scratch(|scratch| {
        let mut out = Vec::new();
        turbo_attend_group_into(qs, cache, sas, scratch, &mut out);
        out.chunks_exact(cache.head_dim())
            .map(<[f32]>::to_vec)
            .collect()
    })
}

/// The grouped decode kernel: attends the `G = qs.len()` query rows over
/// the cache, writing their outputs row-major (`G × d`) into `out`.
///
/// Each resident tile is looked up in the tile cache once and feeds one
/// `G × rows` integer score GEMM and one `G × d` integer `P·V` GEMM for
/// the whole group; the open buffer's value codes are transposed once.
/// Every query row keeps its own quantization scale and online-softmax
/// state, and every float operation runs in the same per-row order as a
/// one-row call, so row `i` is bit-identical to attending `qs[i]` alone.
///
/// # Panics
///
/// Panics if `qs` is empty, any row's length differs from the cache head
/// dimension, or the cache is empty.
pub fn turbo_attend_group_into(
    qs: &[&[f32]],
    cache: &HeadKvCache,
    sas: &Sas,
    scratch: &mut Scratch,
    out: &mut Vec<f32>,
) {
    let d = cache.head_dim();
    let g = qs.len();
    assert!(g > 0, "need at least one query row");
    assert!(qs.iter().all(|q| q.len() == d), "query width mismatch");
    assert!(!cache.is_empty(), "cannot attend to an empty cache");

    let scale = 1.0 / (d as f32).sqrt();
    let Scratch {
        q8,
        si,
        p,
        p8,
        pv,
        vt,
        o,
        rows: state,
    } = scratch;
    q8.clear();
    q8.resize(g * d, 0);
    state.clear();
    for (q, q8_row) in qs.iter().zip(q8.chunks_exact_mut(d)) {
        state.push(RowState::new(quantize_row_sym_into(q, q8_row)));
    }
    o.clear();
    o.resize(g * d, 0.0);
    let mut bufs = TileBufs { si, p, p8, pv };

    // Resident progressive blocks: memoized integer dequantization, one
    // lookup per block for the whole group.
    for b in 0..cache.resident_blocks().len() {
        let tile: std::sync::Arc<DequantTile> = cache.resident_tile(b);
        let view = TileView {
            k_codes: tile.k_codes(),
            k_scale: tile.k_scale(),
            vt_codes: tile.vt_codes(),
            v_scale: tile.v_scale(),
            rows: tile.rows(),
        };
        attend_tile(q8, scale, d, &view, sas, &mut bufs, o, state);
    }

    // Open INT8 buffer: codes are used in place (no snapshot clone); only
    // the value transpose is materialized, into the reusable arena.
    if cache.buffer_len() > 0 {
        let kb = cache.key_buffer();
        let vb = cache.value_buffer();
        let rows = kb.len();
        vt.clear();
        vt.resize(rows * d, 0);
        for (r, v_row) in vb.codes().chunks_exact(d).enumerate() {
            for (c, &x) in v_row.iter().enumerate() {
                vt[c * rows + r] = x;
            }
        }
        let view = TileView {
            k_codes: kb.codes(),
            k_scale: kb.scale().expect("non-empty buffer has a scale"),
            vt_codes: vt,
            v_scale: vb.scale().expect("non-empty buffer has a scale"),
            rows,
        };
        attend_tile(q8, scale, d, &view, sas, &mut bufs, o, state);
    }

    out.clear();
    for (st, o_row) in state.iter().zip(o.chunks_exact(d)) {
        assert!(st.l > 0.0, "decode token attended to nothing");
        let inv = 1.0 / st.l;
        out.extend(o_row.iter().map(|&x| x * inv));
    }
}

/// Runs `f` with this thread's decode [`Scratch`] arena.
fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
    }
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// One INT8 K/V tile as the fused kernel consumes it: key codes
/// row-major (`rows × d`), value codes channel-major (`d × rows`).
struct TileView<'a> {
    k_codes: &'a [i8],
    k_scale: f32,
    vt_codes: &'a [i8],
    v_scale: f32,
    rows: usize,
}

/// The per-tile intermediates of [`attend_tile`], borrowed from the
/// [`Scratch`] arena.
struct TileBufs<'a> {
    si: &'a mut Vec<i32>,
    p: &'a mut Vec<f32>,
    p8: &'a mut Vec<i8>,
    pv: &'a mut Vec<i32>,
}

/// Fused attention of `G` query rows over one INT8 K/V tile, folded into
/// each row's online-softmax state (`o` row, `m`, `l`).
///
/// Bit-identical, row by row, to the original single-row
/// `matmul → Matrix → online_update` chain:
/// * scores stay in raw `i32` through one SIMD-dispatched
///   `Q⁸ · (K⁸)ᵀ` GEMM (exact integer accumulation, so sharing the GEMM
///   across rows changes no sum), and each row's max is taken over its
///   integer sums — `i32 → f32` conversion and the positive
///   `s_q·s_k/√d` scale are weakly monotone, so the scaled integer max
///   *is* the f32 row max the old code folded;
/// * SAS consumes each row's codes plus scale directly via
///   `exp_scaled_row_into`, which evaluates the exact
///   `code as f32 * s_scale - m_new` expression per element (vectorized
///   when the evaluator qualifies), zeroing exactly the entries
///   `Sas::exp` zeroes;
/// * each probability row is re-quantized with its own `max|p|/119`
///   fold, and one integer `P⁸·V⁸` GEMM consumes the pre-transposed
///   value codes for every row at once.
///
/// A row whose running max stays `−∞` (possible only for a non-finite
/// query scale) contributes nothing: its probability codes are zero and
/// its state and output row are left untouched.
#[allow(clippy::too_many_arguments)]
fn attend_tile(
    q8: &[i8],
    scale: f32,
    d: usize,
    tile: &TileView<'_>,
    sas: &Sas,
    bufs: &mut TileBufs<'_>,
    o: &mut [f32],
    state: &mut [RowState],
) {
    let g = state.len();
    let rows = tile.rows;
    debug_assert_eq!(tile.k_codes.len(), rows * d, "K tile shape mismatch");
    debug_assert_eq!(tile.vt_codes.len(), rows * d, "V tile shape mismatch");

    // Fused integer score kernel: one G × rows GEMM against the key
    // tile; the scores never leave i32 until SAS consumes them.
    matmul_i8_transposed_b_into(q8, tile.k_codes, g, d, rows, bufs.si);

    bufs.p.clear();
    bufs.p.resize(g * rows, 0.0);
    bufs.p8.clear();
    bufs.p8.resize(g * rows, 0);
    let per_row = bufs
        .si
        .chunks_exact(rows)
        .zip(bufs.p.chunks_exact_mut(rows))
        .zip(bufs.p8.chunks_exact_mut(rows));
    for (st, ((s_row, p_row), p8_row)) in state.iter_mut().zip(per_row) {
        let s_scale = st.s_q * tile.k_scale * scale;
        let row_max = match s_row.iter().max() {
            Some(&mx) => mx as f32 * s_scale,
            None => f32::NEG_INFINITY,
        };
        let m_new = st.m.max(row_max);
        st.live = m_new != f32::NEG_INFINITY;
        if !st.live {
            // Tile contributed nothing (cannot happen with finite
            // scores); the original code also left (o, l) unchanged.
            continue;
        }
        st.corr = if st.m == f32::NEG_INFINITY {
            0.0
        } else {
            sas.exp(st.m - m_new)
        };
        let row_sum = sas.exp_scaled_row_into(s_row, s_scale, m_new, p_row);
        st.l = st.l * st.corr + row_sum;
        st.m = m_new;
        // Quantize the probability row (Algorithm 1: s_P = max|P̃|/119).
        let s_p = quantize_row_sym_into(p_row, p8_row);
        st.pv_scale = s_p * tile.v_scale;
    }

    // One integer P·V product for the group against the pre-transposed
    // values.
    matmul_i8_transposed_b_into(bufs.p8, tile.vt_codes, g, rows, d, bufs.pv);
    for ((st, o_row), pv_row) in state
        .iter()
        .zip(o.chunks_exact_mut(d))
        .zip(bufs.pv.chunks_exact(d))
    {
        if !st.live {
            continue;
        }
        for (oc, &x) in o_row.iter_mut().zip(pv_row) {
            *oc = *oc * st.corr + x as f32 * st.pv_scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{naive_attention, Masking};
    use turbo_kvcache::KvCacheConfig;
    use turbo_quant::BitWidth;
    use turbo_tensor::TensorRng;

    fn cache(d: usize, bits: BitWidth, nb: usize) -> HeadKvCache {
        HeadKvCache::new(
            d,
            KvCacheConfig {
                bits,
                group_size: 64,
                buffer_capacity: nb,
            },
        )
    }

    /// Decodes a whole sequence token-by-token and compares against exact
    /// causal attention computed densely at each step.
    fn decode_error(seed: u64, n: usize, d: usize, bits: BitWidth, nb: usize) -> f32 {
        let mut rng = TensorRng::new(seed);
        let q = rng.normal(n, d, 0.0, 1.0);
        let k = rng.normal(n, d, 0.0, 1.0);
        let v = rng.normal(n, d, 0.0, 1.0);
        let sas = Sas::paper_default();
        let mut c = cache(d, bits, nb);
        let mut worst = 0.0f32;
        for t in 0..n {
            let out = turbo_decode_head(q.row(t), k.row(t), v.row(t), &mut c, &sas);
            // Exact: q_t against keys 0..=t.
            let qt = q.row_block(t, 1);
            let kt = k.row_block(0, t + 1);
            let vt = v.row_block(0, t + 1);
            let exact = naive_attention(&qt, &kt, &vt, Masking::Causal);
            for (a, b) in out.iter().zip(exact.row(0)) {
                worst = worst.max((a - b).abs());
            }
        }
        worst
    }

    #[test]
    fn single_token_attends_to_itself_exactly() {
        let sas = Sas::paper_default();
        let mut c = cache(4, BitWidth::Int4, 8);
        let k = [0.5f32, -0.25, 1.0, 0.0];
        let v = [1.0f32, 2.0, -3.0, 0.5];
        let out = turbo_decode_head(&[0.1, 0.2, 0.3, 0.4], &k, &v, &mut c, &sas);
        // Softmax over one entry is 1 regardless of approximation.
        for (a, b) in out.iter().zip(&v) {
            assert!((a - b).abs() < 0.03, "{a} vs {b}");
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn decode_tracks_exact_attention_int4() {
        let err = decode_error(61, 96, 16, BitWidth::Int4, 32);
        assert!(err < 0.2, "int4 decode error {err}");
    }

    #[test]
    fn decode_int2_is_coarser_than_int4() {
        let e4 = decode_error(62, 64, 16, BitWidth::Int4, 16);
        let e2 = decode_error(62, 64, 16, BitWidth::Int2, 16);
        assert!(e4 < e2, "int4 {e4} must beat int2 {e2}");
    }

    #[test]
    fn decode_spans_resident_and_buffered_tokens() {
        // With nb=8 and 20 tokens: 2 flushed blocks + 4 buffered.
        let mut rng = TensorRng::new(63);
        let sas = Sas::paper_default();
        let mut c = cache(8, BitWidth::Int4, 8);
        let data = rng.normal(20, 8, 0.0, 1.0);
        let mut last = Vec::new();
        for t in 0..20 {
            last = turbo_decode_head(data.row(t), data.row(t), data.row(t), &mut c, &sas);
        }
        assert_eq!(c.resident_blocks().len(), 2);
        assert_eq!(c.buffer_len(), 4);
        // Exact reference over all 20 tokens.
        let qt = data.row_block(19, 1);
        let exact = naive_attention(&qt, &data, &data, Masking::Causal);
        for (a, b) in last.iter().zip(exact.row(0)) {
            assert!((a - b).abs() < 0.2, "{a} vs {b}");
        }
    }

    #[test]
    fn prefill_then_decode_composes() {
        let mut rng = TensorRng::new(64);
        let d = 16;
        let n0 = 64;
        let q0 = rng.normal(n0, d, 0.0, 1.0);
        let k0 = rng.normal(n0, d, 0.0, 1.0);
        let v0 = rng.normal(n0, d, 0.0, 1.0);
        let sas = Sas::paper_default();
        let mut c = cache(d, BitWidth::Int4, 16);
        crate::prefill::turbo_prefill_head(&q0, &k0, &v0, Masking::Causal, &sas, 32, 32, &mut c);
        // Decode 5 more tokens.
        let mut out = Vec::new();
        let mut ks = k0.clone();
        let mut vs = v0.clone();
        for t in 0..5 {
            let qt = rng.normal(1, d, 0.0, 1.0);
            let kt = rng.normal(1, d, 0.0, 1.0);
            let vt = rng.normal(1, d, 0.0, 1.0);
            ks.append_rows(&kt);
            vs.append_rows(&vt);
            out = turbo_decode_head(qt.row(0), kt.row(0), vt.row(0), &mut c, &sas);
            assert_eq!(c.len(), n0 + t + 1);
            let exact = naive_attention(&qt, &ks, &vs, Masking::Causal);
            for (a, b) in out.iter().zip(exact.row(0)) {
                assert!((a - b).abs() < 0.25, "step {t}: {a} vs {b}");
            }
        }
        assert_eq!(out.len(), d);
    }

    #[test]
    fn buffer_flush_mid_decode_preserves_accuracy() {
        // Cross the n_b boundary and verify no jump in error.
        let e = decode_error(65, 17, 8, BitWidth::Int4, 16); // flush at t=15
        assert!(e < 0.2, "error across flush {e}");
    }

    #[test]
    fn into_variant_matches_convenience_path_bitwise() {
        let mut rng = TensorRng::new(66);
        let d = 16;
        let data = rng.normal(50, d, 0.0, 1.0);
        let sas = Sas::paper_default();
        let mut c = cache(d, BitWidth::Int4, 16);
        let mut c2 = c.clone();
        let mut scratch = Scratch::for_cache(&c);
        let mut out = Vec::new();
        for t in 0..50 {
            let a = turbo_decode_head(data.row(t), data.row(t), data.row(t), &mut c, &sas);
            turbo_decode_head_into(
                data.row(t),
                data.row(t),
                data.row(t),
                &mut c2,
                &sas,
                &mut scratch,
                &mut out,
            );
            assert_eq!(a, out, "step {t} diverged");
        }
    }

    #[test]
    fn warm_tile_cache_is_bit_identical_to_cold() {
        let mut rng = TensorRng::new(67);
        let d = 8;
        let data = rng.normal(40, d, 0.0, 1.0);
        let sas = Sas::paper_default();
        let warm = cache(d, BitWidth::Int4, 8);
        let cold = warm.clone();
        cold.set_tile_cache_budget(0); // every lookup misses: fresh dequant
        let mut warm = warm;
        let mut cold = cold;
        for t in 0..40 {
            let a = turbo_decode_head(data.row(t), data.row(t), data.row(t), &mut warm, &sas);
            let b = turbo_decode_head(data.row(t), data.row(t), data.row(t), &mut cold, &sas);
            assert_eq!(a, b, "step {t}: cached vs uncached diverged");
        }
        let s = warm.tile_cache_stats();
        assert!(s.hits > 0, "warm cache never hit");
        assert_eq!(cold.tile_cache_stats().hits, 0);
    }

    #[test]
    #[should_panic(expected = "query width mismatch")]
    fn wrong_query_width_panics() {
        let sas = Sas::paper_default();
        let mut c = cache(4, BitWidth::Int4, 8);
        turbo_decode_head(&[0.0; 3], &[0.0; 4], &[0.0; 4], &mut c, &sas);
    }
}

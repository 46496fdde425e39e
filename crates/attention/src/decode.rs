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
//! Step 1 is the cache's own [`HeadKvCache::try_append`]; this module is
//! the attend half. One kernel serves both plain and grouped-query
//! decode: [`turbo_attend_group_into`] attends `G` query rows that share
//! the cache, looking each tile up once and running one `G`-row GEMM per
//! tile for scores and one for `P·V`. A single query is the `G = 1`
//! call.
//!
//! The hot path is **zero-allocation** in steady state: all intermediate
//! buffers live in a caller-owned [`Scratch`] arena (the convenience
//! entry points [`turbo_attend_cache`] and [`turbo_attend_group`] keep
//! one per thread), every K/V tile — resident or the open buffer —
//! arrives already packed as the GEMM's second operand, and the only
//! per-step allocation on the convenience path is the
//! returned output vector itself. Every kernel here is
//! bit-identical to the original unfused implementation: integer
//! accumulation is associative, the scale epilogues multiply the same
//! finished sums, and SAS short-circuiting zeroes exactly the entries
//! `Sas::exp` would.

use std::cell::RefCell;

use crate::prefill::max_i32;
use crate::scratch::{RowState, Scratch};
use turbo_kvcache::{DequantTile, HeadKvCache};
use turbo_quant::quantize_row_sym_into;
use turbo_softmax::{Sas, ScaledRow};
use turbo_tensor::{matmul_i8_packed_into, PackedB};

/// Attends a single query over an existing quantized cache *without*
/// appending anything — the read-only half of Algorithm 2. Useful when the
/// same cache serves several queries (e.g. multi-hop retrieval probes).
///
/// Uses a thread-local [`Scratch`] arena, so repeated calls only allocate
/// the returned vector. For a strictly allocation-free loop call
/// [`turbo_attend_group_into`] with the one-row group `&[q]`.
///
/// # Panics
///
/// Panics if `q.len()` differs from the cache head dimension or the cache
/// is empty.
pub fn turbo_attend_cache(q: &[f32], cache: &HeadKvCache, sas: &Sas) -> Vec<f32> {
    with_thread_scratch(|scratch| {
        let mut out = Vec::new();
        turbo_attend_group_into(&[q], cache, sas, scratch, &mut out);
        out
    })
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
/// the whole group; the open buffer takes part through the packed views
/// the cache keeps of it.
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
        exp_rows,
        sums,
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
    let mut bufs = TileBufs {
        si,
        p,
        p8,
        pv,
        exp_rows,
        sums,
    };

    // Resident progressive blocks: memoized integer dequantization, one
    // lookup per block for the whole group.
    for b in 0..cache.resident_blocks().len() {
        let tile: std::sync::Arc<DequantTile> = cache.resident_tile(b);
        let view = TileView {
            k: tile.keys(),
            k_scale: tile.k_scale(),
            v: tile.values(),
            v_scale: tile.v_scale(),
        };
        attend_tile(q8, scale, &view, sas, &mut bufs, o, state);
    }

    // Open INT8 buffer: its codes arrive already packed, kept in step
    // with every append by the cache.
    if cache.buffer_len() > 0 {
        let view = TileView {
            k: cache.key_view(),
            k_scale: cache
                .key_buffer()
                .scale()
                .expect("non-empty buffer has a scale"),
            v: cache.value_view(),
            v_scale: cache
                .value_buffer()
                .scale()
                .expect("non-empty buffer has a scale"),
        };
        attend_tile(q8, scale, &view, sas, &mut bufs, o, state);
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

/// One INT8 K/V tile as the fused kernel consumes it: both halves packed
/// as GEMM operands, keys one column per token, values one column per
/// channel.
struct TileView<'a> {
    k: &'a PackedB,
    k_scale: f32,
    v: &'a PackedB,
    v_scale: f32,
}

/// The per-tile intermediates of [`attend_tile`], borrowed from the
/// [`Scratch`] arena.
struct TileBufs<'a> {
    si: &'a mut Vec<i32>,
    p: &'a mut Vec<f32>,
    p8: &'a mut Vec<i8>,
    pv: &'a mut Vec<i32>,
    exp_rows: &'a mut Vec<ScaledRow>,
    sums: &'a mut Vec<f32>,
}

/// Fused attention of `G` query rows over one INT8 K/V tile, folded into
/// each row's online-softmax state (`o` row, `m`, `l`).
///
/// Bit-identical, row by row, to the original single-row
/// `matmul → Matrix → online_update` chain:
/// * scores stay in raw `i32` through one packed `Q⁸ · (K⁸)ᵀ` GEMM
///   (exact integer accumulation, so sharing the GEMM across rows
///   changes no sum), and each row's max is taken over its integer sums
///   — `i32 → f32` conversion and the positive `s_q·s_k/√d` scale are
///   weakly monotone, so the scaled integer max *is* the f32 row max the
///   old code folded;
/// * SAS consumes every row's codes plus its own scale in one
///   [`Sas::exp_scaled_rows_into`] call, which evaluates the exact
///   `code as f32 * s_scale - m_new` expression per element and sums
///   each row left to right;
/// * each probability row is re-quantized with its own `max|p|/119`
///   fold, and one packed integer `P⁸·V⁸` GEMM serves every row at once.
///
/// A row whose running max stays `−∞` (possible only for a non-finite
/// query scale) contributes nothing: its probability codes are zero and
/// its state and output row are left untouched.
fn attend_tile(
    q8: &[i8],
    scale: f32,
    tile: &TileView<'_>,
    sas: &Sas,
    bufs: &mut TileBufs<'_>,
    o: &mut [f32],
    state: &mut [RowState],
) {
    let g = state.len();
    let rows = tile.k.n();
    let d = tile.v.n();
    debug_assert_eq!(tile.v.k(), rows, "K/V tile row mismatch");

    // Fused integer score kernel: one G × rows GEMM against the key
    // tile; the scores never leave i32 until SAS consumes them.
    matmul_i8_packed_into(q8, g, tile.k, bufs.si);

    bufs.exp_rows.clear();
    for (st, s_row) in state.iter_mut().zip(bufs.si.chunks_exact(rows)) {
        let s_scale = st.s_q * tile.k_scale * scale;
        let row_max = match max_i32(s_row) {
            Some(mx) => mx as f32 * s_scale,
            None => f32::NEG_INFINITY,
        };
        let m_new = st.m.max(row_max);
        // A dead row (cannot happen with finite scores) gets an empty
        // span: the tile contributes nothing to it, as in the original
        // code, which left (o, l) unchanged.
        st.live = m_new != f32::NEG_INFINITY;
        if st.live {
            st.corr = if st.m == f32::NEG_INFINITY {
                0.0
            } else {
                sas.exp(st.m - m_new)
            };
        }
        let span = if st.live { (0, rows) } else { (0, 0) };
        bufs.exp_rows.push(ScaledRow {
            s_scale,
            m_new,
            span,
        });
    }
    bufs.p.resize(g * rows, 0.0);
    bufs.sums.resize(g, 0.0);
    sas.exp_scaled_rows_into(bufs.si, rows, bufs.exp_rows, bufs.p, bufs.sums);

    bufs.p8.clear();
    bufs.p8.resize(g * rows, 0);
    let per_row = bufs.exp_rows.iter().zip(bufs.sums.iter()).zip(
        bufs.p
            .chunks_exact(rows)
            .zip(bufs.p8.chunks_exact_mut(rows)),
    );
    for (st, ((row, &row_sum), (p_row, p8_row))) in state.iter_mut().zip(per_row) {
        if !st.live {
            continue;
        }
        st.l = st.l * st.corr + row_sum;
        st.m = row.m_new;
        // Quantize the probability row (Algorithm 1: s_P = max|P̃|/119).
        let s_p = quantize_row_sym_into(p_row, p8_row);
        st.pv_scale = s_p * tile.v_scale;
    }

    // One integer P·V product for the group against the packed values.
    matmul_i8_packed_into(bufs.p8, g, tile.v, bufs.pv);
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

    /// One decode step: appends the token, then attends `q` over the
    /// whole cache.
    fn step(q: &[f32], k: &[f32], v: &[f32], c: &mut HeadKvCache, sas: &Sas) -> Vec<f32> {
        c.try_append(k, v).unwrap();
        turbo_attend_cache(q, c, sas)
    }

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
            let out = step(q.row(t), k.row(t), v.row(t), &mut c, &sas);
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
        let out = step(&[0.1, 0.2, 0.3, 0.4], &k, &v, &mut c, &sas);
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
            last = step(data.row(t), data.row(t), data.row(t), &mut c, &sas);
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
            out = step(qt.row(0), kt.row(0), vt.row(0), &mut c, &sas);
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
        let mut scratch = Scratch::for_cache(&c);
        let mut out = Vec::new();
        for t in 0..50 {
            let a = step(data.row(t), data.row(t), data.row(t), &mut c, &sas);
            turbo_attend_group_into(&[data.row(t)], &c, &sas, &mut scratch, &mut out);
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
            let a = step(data.row(t), data.row(t), data.row(t), &mut warm, &sas);
            let b = step(data.row(t), data.row(t), data.row(t), &mut cold, &sas);
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
        step(&[0.0; 3], &[0.0; 4], &[0.0; 4], &mut c, &sas);
    }
}

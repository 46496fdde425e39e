//! TurboAttention prefill — Algorithm 1.
//!
//! A FlashAttention-style sweep where every matmul runs on the INT8 path:
//!
//! 1. Each `Q`/`K`/`V` tile is symmetrically quantized to INT8
//!    (`s = max|x|/119`).
//! 2. Scores come from the integer GEMM `Q⁸·(K⁸)ᵀ` scaled by
//!    `s_Q·s_K/√d`.
//! 3. Exponentiation uses SAS instead of FP32 `exp`.
//! 4. The probability tile is itself re-quantized to INT8 and the output
//!    update uses the integer GEMM `P⁸·V⁸` scaled by `s_P·s_V`.
//! 5. As each `K`/`V` tile is first touched, its INT8 codes are
//!    progressively re-quantized (INT4/INT2, channel-wise) and written to
//!    the KV cache for the decode phase.

use crate::reference::Masking;
use turbo_kvcache::HeadKvCache;
use turbo_quant::symmetric::{quantize_slice_sym_into, SymQuantized};
use turbo_softmax::Sas;
use turbo_tensor::{matmul_i8_transposed_b_into, Matrix};

/// Result of a prefill pass over one head.
#[derive(Clone, Debug)]
pub struct PrefillOutput {
    /// Attention output `O`, `n_q × d`.
    pub output: Matrix,
    /// Per-row logsumexp `L = m + ln ℓ` (used by e.g. ring/lean attention
    /// compositions; exposed because Algorithm 1 returns it).
    pub lse: Vec<f32>,
}

/// Runs Algorithm 1 on one head: quantized tiled attention over
/// `(q, k, v)` while populating `cache` with the progressively quantized
/// K/V blocks.
///
/// `block_r`/`block_c` are the `B_r`/`B_c` tile heights. The cache's own
/// config decides the resident bit width and channel-group size.
///
/// This is the serial single-head reference: the K/V pre-pass, then the
/// query row-block sweep one block after another. The pooled layer engine
/// ([`TurboAttention::prefill_layer_gqa_on`](crate::TurboAttention::prefill_layer_gqa_on))
/// runs the same two parts on the runtime and is bit-identical to it.
///
/// # Panics
///
/// Panics if shapes are inconsistent, block sizes are zero, the cache is
/// non-empty, or its head dimension differs from `q.cols()`.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's parameter list
pub fn turbo_prefill_head(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    masking: Masking,
    sas: &Sas,
    block_r: usize,
    block_c: usize,
    cache: &mut HeadKvCache,
) -> PrefillOutput {
    assert!(block_r > 0 && block_c > 0, "block sizes must be positive");
    let offset = query_offset(q, k, masking);
    let tiles = KvTiles::quantize(k, v, block_c, cache);
    let sweep = tiles.sweep(masking, sas, offset);
    PrefillOutput::from_blocks(
        q.rows(),
        q.cols(),
        q.row_blocks(block_r)
            .map(|(qi, q_blk)| (qi, sweep.q_block(qi, &q_blk))),
    )
}

impl PrefillOutput {
    /// Stitches one head's row-block results, each `(first row, (output
    /// rows, logsumexp))`, into its `n_q × d` output.
    pub(crate) fn from_blocks(
        n_q: usize,
        d: usize,
        blocks: impl IntoIterator<Item = (usize, (Matrix, Vec<f32>))>,
    ) -> Self {
        let mut out = Matrix::zeros(n_q, d);
        let mut lse = vec![0.0f32; n_q];
        for (qi, (blk_out, blk_lse)) in blocks {
            let rows = qi..qi + blk_out.rows();
            out.as_mut_slice()[rows.start * d..rows.end * d].copy_from_slice(blk_out.as_slice());
            lse[rows].copy_from_slice(&blk_lse);
        }
        Self { output: out, lse }
    }
}

/// Checks one query head's shape against its keys and returns the causal
/// offset `n_k − n_q` (queries are the last positions), or 0 without a
/// causal mask.
///
/// # Panics
///
/// Panics if `q` and `k` differ in width, or a causal-like mask has more
/// queries than keys.
pub(crate) fn query_offset(q: &Matrix, k: &Matrix, masking: Masking) -> usize {
    assert_eq!(q.cols(), k.cols(), "Q/K width mismatch");
    if !masking.is_causal_like() {
        return 0;
    }
    assert!(
        q.rows() <= k.rows(),
        "causal masking assumes queries are the last positions"
    );
    k.rows() - q.rows()
}

/// A stage-1-quantized value tile with its codes stored channel-major
/// (`d × rows`) — the transpose the integer `P⁸·V⁸` GEMM consumes. The
/// transpose is paid once in the pre-pass instead of once per
/// `(q-block, k-tile)` pair.
struct VTile {
    vt: Vec<i8>,
    scale: f32,
    rows: usize,
}

impl VTile {
    fn new(v8: &SymQuantized) -> Self {
        let (rows, d) = (v8.rows(), v8.cols());
        let codes = v8.codes();
        let mut vt = vec![0i8; rows * d];
        for (r, v_row) in codes.chunks_exact(d).enumerate() {
            for (c, &x) in v_row.iter().enumerate() {
                vt[c * rows + r] = x;
            }
        }
        Self {
            vt,
            scale: v8.scale(),
            rows,
        }
    }
}

/// One KV head's INT8 tiles after the pre-pass. Every query head that
/// shares the KV head sweeps these same frozen tiles, so each K/V tile is
/// quantized once per prefill, as in Algorithm 1.
pub(crate) struct KvTiles {
    k_tiles: Vec<(usize, SymQuantized)>,
    v_tiles: Vec<VTile>,
    n_k: usize,
    d: usize,
}

impl KvTiles {
    /// The K/V pre-pass: stage-1 quantizes each `block_c`-row K/V tile,
    /// writes its progressive block to `cache` as Algorithm 1 does on the
    /// first row sweep, and keeps the INT8 tiles (values transposed).
    ///
    /// # Panics
    ///
    /// Panics if `k` and `v` differ in shape, the cache is non-empty, or
    /// its head dimension differs from `k.cols()`.
    pub(crate) fn quantize(
        k: &Matrix,
        v: &Matrix,
        block_c: usize,
        cache: &mut HeadKvCache,
    ) -> Self {
        assert_eq!(k.shape(), v.shape(), "K/V shape mismatch");
        assert!(cache.is_empty(), "prefill requires an empty cache");
        assert_eq!(cache.head_dim(), k.cols(), "cache head dimension mismatch");
        let mut k_tiles = Vec::new();
        let mut v_tiles = Vec::new();
        for (kj, k_blk) in k.row_blocks(block_c) {
            let v_blk = v.row_block(kj, k_blk.rows());
            let k8 = SymQuantized::quantize(&k_blk);
            let v8 = SymQuantized::quantize(&v_blk);
            cache.append_prefill_block(&k_blk, &v_blk);
            k_tiles.push((kj, k8));
            v_tiles.push(VTile::new(&v8));
        }
        Self {
            k_tiles,
            v_tiles,
            n_k: k.rows(),
            d: k.cols(),
        }
    }

    /// The sweep of one query head over these tiles; `offset` comes from
    /// [`query_offset`].
    pub(crate) fn sweep<'a>(
        &'a self,
        masking: Masking,
        sas: &'a Sas,
        offset: usize,
    ) -> HeadSweep<'a> {
        HeadSweep {
            tiles: self,
            masking,
            sas,
            offset,
        }
    }
}

/// One query head's sweep over a KV head's frozen tiles. Each query row
/// block is processed by [`HeadSweep::q_block`], a pure function — the
/// unit of parallelism.
pub(crate) struct HeadSweep<'a> {
    tiles: &'a KvTiles,
    masking: Masking,
    sas: &'a Sas,
    offset: usize,
}

impl HeadSweep<'_> {
    /// Online-softmax sweep for the row block starting at absolute query
    /// row `qi`. Returns the normalized `br × d` output rows and their
    /// logsumexp values.
    ///
    /// All intermediates (score tile, probability tile, its INT8
    /// re-quantization, the integer `P·V` accumulator, the correction
    /// row) are allocated once per *row block* and reused across every
    /// K tile of the sweep — the old code reallocated each per tile.
    pub(crate) fn q_block(&self, qi: usize, q_blk: &Matrix) -> (Matrix, Vec<f32>) {
        let tiles = self.tiles;
        let (d, n_k, masking, offset) = (tiles.d, tiles.n_k, self.masking, self.offset);
        let scale = 1.0 / (d as f32).sqrt();
        let br = q_blk.rows();
        let q8 = SymQuantized::quantize(q_blk);
        let mut o = Matrix::zeros(br, d);
        let mut m = vec![f32::NEG_INFINITY; br];
        let mut l = vec![0.0f32; br];

        // Per-row-block scratch, reused for every K tile below.
        let mut s_int: Vec<i32> = Vec::new();
        let mut spans = vec![(0usize, 0usize); br];
        let mut p: Vec<f32> = Vec::new();
        let mut p8: Vec<i8> = Vec::new();
        let mut corr = vec![0.0f32; br];
        let mut pv: Vec<i32> = Vec::new();

        let (blk_lo, _) = masking.visible_range(qi + offset, n_k);
        let (_, blk_hi) = masking.visible_range(qi + br - 1 + offset, n_k);
        for (tile_idx, (kj, k8)) in tiles.k_tiles.iter().enumerate() {
            let kj = *kj;
            let bc = k8.rows();
            if masking.is_causal_like() {
                if kj > blk_hi {
                    break;
                }
                if kj + bc <= blk_lo {
                    continue;
                }
            }
            // Integer score GEMM with the scalar symmetric correction. The
            // i32 tile is *not* dequantized into an f32 buffer: masking is
            // tracked as a per-row visible span `[j0, j1)` and the SAS
            // exponential consumes the raw codes plus `s_scale` directly
            // (masked entries contribute exactly 0.0 either way, so the
            // span form is value-identical to writing −∞ sentinels).
            matmul_i8_transposed_b_into(q8.codes(), k8.codes(), br, d, bc, &mut s_int);
            let s_scale = q8.scale() * k8.scale() * scale;
            if masking.is_causal_like() {
                for (i, span) in spans.iter_mut().enumerate() {
                    let (lo, hi) = masking.visible_range(qi + i + offset, n_k);
                    // Intersect [lo, hi] with this tile's keys [kj, kj+bc).
                    let j0 = lo.max(kj) - kj;
                    let j1 = (hi + 1).min(kj + bc).saturating_sub(kj);
                    *span = if j0 < j1 { (j0, j1) } else { (0, 0) };
                }
            } else {
                spans.fill((0, bc));
            }

            online_update_quantized(
                &mut o,
                &mut m,
                &mut l,
                &s_int,
                s_scale,
                &spans,
                bc,
                &tiles.v_tiles[tile_idx],
                self.sas,
                &mut p,
                &mut p8,
                &mut corr,
                &mut pv,
            );
        }

        let mut blk_out = Matrix::zeros(br, d);
        let mut blk_lse = vec![0.0f32; br];
        for i in 0..br {
            assert!(l[i] > 0.0, "row {} attended to nothing", qi + i);
            let inv = 1.0 / l[i];
            for c in 0..d {
                blk_out.set(i, c, o.get(i, c) * inv);
            }
            blk_lse[i] = m[i] + l[i].ln();
        }
        (blk_out, blk_lse)
    }
}

/// Shared quantized online-softmax update (steps 3–4 of Algorithm 1 and
/// the body of Algorithm 2), fused on the *integer* score tile: per-row
/// max over the raw `i32` codes, SAS exponentiation straight from codes
/// plus `s_scale` ([`Sas::exp_scaled_row_into`]), INT8 re-quantization of
/// the whole probability tile with a single scale (Algorithm 1:
/// `s_P = max|P̃|/119`), and the integer `P⁸·V⁸` accumulation against the
/// pre-transposed value codes. The f32 score tile never materializes.
///
/// Value-identical to the unfused form (dequantize → mask with −∞ →
/// f32 row max → `exp_row_into`): `i32 → f32` conversion and the
/// positive-scale multiply are weakly monotone, so the converted integer
/// max *is* the f32 row max; masked/out-of-span entries produce exactly
/// `0.0` on both paths, and `+0.0` terms do not perturb the non-negative
/// left-to-right row sum. All buffers are caller-owned scratch; nothing
/// is allocated here.
#[allow(clippy::too_many_arguments)]
fn online_update_quantized(
    o: &mut Matrix,
    m: &mut [f32],
    l: &mut [f32],
    s_int: &[i32],
    s_scale: f32,
    spans: &[(usize, usize)],
    bc: usize,
    v8: &VTile,
    sas: &Sas,
    p: &mut Vec<f32>,
    p8: &mut Vec<i8>,
    corr: &mut [f32],
    pv: &mut Vec<i32>,
) {
    let br = m.len();
    let d = o.cols();
    debug_assert_eq!(s_int.len(), br * bc, "score tile shape mismatch");
    debug_assert_eq!(spans.len(), br, "span row-count mismatch");
    debug_assert_eq!(v8.rows, bc, "V tile height mismatch");
    debug_assert_eq!(v8.vt.len(), bc * d, "V tile width mismatch");

    // Compute the SAS probability tile row-by-row, then one integer GEMM.
    p.clear();
    p.resize(br * bc, 0.0);
    for i in 0..br {
        let (j0, j1) = spans[i];
        let row_codes = &s_int[i * bc + j0..i * bc + j1];
        let row_max = match row_codes.iter().max() {
            Some(&mx) => mx as f32 * s_scale,
            None => f32::NEG_INFINITY, // fully masked row in this tile
        };
        let m_new = m[i].max(row_max);
        if m_new == f32::NEG_INFINITY {
            corr[i] = 1.0; // row untouched by this tile
            continue;
        }
        corr[i] = if m[i] == f32::NEG_INFINITY {
            0.0
        } else {
            sas.exp(m[i] - m_new)
        };
        let row_sum =
            sas.exp_scaled_row_into(row_codes, s_scale, m_new, &mut p[i * bc + j0..i * bc + j1]);
        l[i] = l[i] * corr[i] + row_sum;
        m[i] = m_new;
    }

    // One scale over the whole tile, as the paper's P quantization does.
    let s_p = quantize_slice_sym_into(p, p8);
    matmul_i8_transposed_b_into(p8, &v8.vt, br, bc, d, pv);
    let pv_scale = s_p * v8.scale;
    for i in 0..br {
        let ci = corr[i];
        for c in 0..d {
            let acc = o.get(i, c) * ci + pv[i * d + c] as f32 * pv_scale;
            o.set(i, c, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{flash_attention, naive_attention};
    use turbo_kvcache::KvCacheConfig;
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

    fn fresh_cache(d: usize) -> HeadKvCache {
        HeadKvCache::new(
            d,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 64,
                buffer_capacity: 64,
            },
        )
    }

    #[test]
    fn prefill_tracks_exact_attention_full() {
        let (q, k, v) = qkv(51, 96, 32);
        let sas = Sas::paper_default();
        let mut cache = fresh_cache(32);
        let out = turbo_prefill_head(&q, &k, &v, Masking::Full, &sas, 32, 32, &mut cache);
        let exact = naive_attention(&q, &k, &v, Masking::Full);
        let rel = relative_error(&out.output, &exact);
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn prefill_tracks_exact_attention_causal() {
        let (q, k, v) = qkv(52, 80, 16);
        let sas = Sas::paper_default();
        let mut cache = fresh_cache(16);
        let out = turbo_prefill_head(&q, &k, &v, Masking::Causal, &sas, 16, 16, &mut cache);
        let exact = naive_attention(&q, &k, &v, Masking::Causal);
        let rel = relative_error(&out.output, &exact);
        assert!(rel < 0.06, "relative error {rel}");
    }

    #[test]
    fn prefill_populates_cache_blocks() {
        let (q, k, v) = qkv(53, 100, 8);
        let sas = Sas::paper_default();
        let mut cache = fresh_cache(8);
        turbo_prefill_head(&q, &k, &v, Masking::Causal, &sas, 32, 32, &mut cache);
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.resident_blocks().len(), 4); // 32+32+32+4
        assert_eq!(cache.buffer_len(), 0);
        // The cached K is a faithful INT4 reconstruction.
        let (kq, vq) = cache.dequantize_all();
        assert!(relative_error(&kq, &k) < 0.12);
        assert!(relative_error(&vq, &v) < 0.12);
    }

    #[test]
    fn block_size_robustness_matches_table_3() {
        // Output must stay stable across (Br, Bc) combinations.
        let (q, k, v) = qkv(54, 128, 16);
        let sas = Sas::paper_default();
        let mut outs = Vec::new();
        for (br, bc) in [(32, 32), (32, 64), (64, 32), (64, 64), (128, 128)] {
            let mut cache = fresh_cache(16);
            let o = turbo_prefill_head(&q, &k, &v, Masking::Causal, &sas, br, bc, &mut cache);
            outs.push(o.output);
        }
        for o in &outs[1..] {
            assert!(
                relative_error(o, &outs[0]) < 0.03,
                "block-size sensitivity too high"
            );
        }
    }

    #[test]
    fn lse_close_to_exact_flash_lse() {
        let (q, k, v) = qkv(55, 64, 16);
        let sas = Sas::paper_default();
        let mut cache = fresh_cache(16);
        let out = turbo_prefill_head(&q, &k, &v, Masking::Full, &sas, 32, 32, &mut cache);
        let (_, lse) =
            crate::reference::flash_attention_with_lse(&q, &k, &v, Masking::Full, 32, 32);
        for (a, b) in out.lse.iter().zip(&lse) {
            assert!((a - b).abs() < 0.1, "lse {a} vs {b}");
        }
    }

    #[test]
    fn quantized_error_exceeds_f16_flash_but_stays_small() {
        // Sanity on the approximation ladder: exact < fp16-flash < turbo.
        let (q, k, v) = qkv(56, 64, 32);
        let exact = naive_attention(&q, &k, &v, Masking::Full);
        let f16 = flash_attention(&q, &k, &v, Masking::Full, 32, 32);
        let sas = Sas::paper_default();
        let mut cache = fresh_cache(32);
        let turbo = turbo_prefill_head(&q, &k, &v, Masking::Full, &sas, 32, 32, &mut cache).output;
        let e_f16 = max_abs_error(&exact, &f16);
        let e_turbo = max_abs_error(&exact, &turbo);
        assert!(e_f16 <= e_turbo, "f16 {e_f16} vs turbo {e_turbo}");
        assert!(e_turbo < 0.25, "turbo error {e_turbo} too large");
    }

    #[test]
    fn ragged_tail_blocks_are_handled() {
        let (q, k, v) = qkv(57, 70, 8); // 70 = 2*32 + 6
        let sas = Sas::paper_default();
        let mut cache = fresh_cache(8);
        let out = turbo_prefill_head(&q, &k, &v, Masking::Causal, &sas, 32, 32, &mut cache);
        assert_eq!(out.output.shape(), (70, 8));
        let exact = naive_attention(&q, &k, &v, Masking::Causal);
        assert!(relative_error(&out.output, &exact) < 0.06);
    }

    #[test]
    #[should_panic(expected = "empty cache")]
    fn non_empty_cache_rejected() {
        let (q, k, v) = qkv(58, 8, 4);
        let sas = Sas::paper_default();
        let mut cache = fresh_cache(4);
        cache.append(&[0.0; 4], &[0.0; 4]);
        turbo_prefill_head(&q, &k, &v, Masking::Full, &sas, 4, 4, &mut cache);
    }
}

#[cfg(test)]
mod sliding_window_tests {
    use super::*;
    use crate::reference::naive_attention;
    use turbo_kvcache::KvCacheConfig;
    use turbo_quant::BitWidth;
    use turbo_tensor::{relative_error, TensorRng};

    #[test]
    fn turbo_prefill_respects_sliding_window() {
        let mut rng = TensorRng::new(91);
        let (n, d) = (96usize, 16usize);
        let q = rng.normal(n, d, 0.0, 1.0);
        let k = rng.normal(n, d, 0.0, 1.0);
        let v = rng.normal(n, d, 0.0, 1.0);
        let sas = Sas::paper_default();
        for w in [8usize, 32] {
            let mut cache = HeadKvCache::new(
                d,
                KvCacheConfig {
                    bits: BitWidth::Int4,
                    group_size: 32,
                    buffer_capacity: 32,
                },
            );
            let out = turbo_prefill_head(
                &q,
                &k,
                &v,
                Masking::SlidingWindow(w),
                &sas,
                16,
                16,
                &mut cache,
            );
            let exact = naive_attention(&q, &k, &v, Masking::SlidingWindow(w));
            let rel = relative_error(&out.output, &exact);
            assert!(rel < 0.08, "window {w}: rel {rel}");
        }
    }
}

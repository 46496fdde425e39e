//! The layer engine: grouped-query attention (GQA) on the pooled runtime.
//!
//! The models the paper evaluates (LLaMA3-8B, Phi-3) share each KV head
//! among a *group* of query heads. Multi-head attention is the `G = 1`
//! case, `GqaLayout::new(h, h)`, so this one engine serves both. For
//! FlashQ the grouping matters twice:
//!
//! * the KV cache (and therefore compression) is per **KV head**, so the
//!   head-priority metric ranks KV heads;
//! * one integer quantization (at prefill) or dequantization (at decode)
//!   of a K/V tile serves the whole query group — amortizing exactly the
//!   cost TurboAttention already minimizes.
//!
//! Prefill runs in two phases. Phase 1 is one task per KV head: it builds
//! the head's cache and runs the K/V pre-pass once (stage-1 tiles, the
//! progressive cache blocks, the packed K/V tiles). Phase 2 is one
//! flat batch of `(query head, row block)` tasks, each sweeping its KV
//! head's frozen tiles ([`turbo_prefill_head`](crate::prefill::turbo_prefill_head)
//! runs the same two parts serially for one head).
//!
//! Decode runs one task per KV head: the task appends the head's new
//! `(k, v)` row, then attends the group's `G` query rows in one pass
//! ([`turbo_attend_group`]). Each resident tile is looked up once and
//! feeds one `G × rows` score GEMM and one `G × d` `P·V` GEMM; the open
//! buffer's values are transposed once. Every query row keeps its own
//! quantization scale and online-softmax state, so each output is
//! bit-identical to attending that query head alone.
//!
//! The task partition is fixed by the input shapes alone and results
//! merge in (head, row) order, so outputs and caches are bit-identical at
//! any worker count.

use crate::api::TurboAttention;
use crate::decode::turbo_attend_group;
use crate::head_select::{select_two_bit_heads, HeadStats, SelectionMethod};
use crate::prefill::{query_offset, KvTiles, PrefillOutput};
use turbo_kvcache::{HeadKvCache, LayerKvCache};
use turbo_quant::BitWidth;
use turbo_runtime::Runtime;
use turbo_tensor::Matrix;

/// A GQA layer configuration: `q_heads` query heads sharing `kv_heads`
/// caches (`q_heads` a positive multiple of `kv_heads`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GqaLayout {
    /// Number of query heads.
    pub q_heads: usize,
    /// Number of KV heads.
    pub kv_heads: usize,
}

impl GqaLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics unless `q_heads` is a positive multiple of a positive
    /// `kv_heads`.
    pub fn new(q_heads: usize, kv_heads: usize) -> Self {
        let layout = Self { q_heads, kv_heads };
        layout.validate();
        layout
    }

    /// The check in [`GqaLayout::new`]; the engine repeats it because the
    /// fields are public and a struct literal skips `new`.
    fn validate(&self) {
        assert!(
            self.kv_heads > 0 && self.q_heads > 0 && self.q_heads.is_multiple_of(self.kv_heads),
            "query heads must be a multiple of KV heads (got {} query, {} KV)",
            self.q_heads,
            self.kv_heads
        );
    }

    /// Query heads per KV head.
    pub fn group_size(&self) -> usize {
        self.q_heads / self.kv_heads
    }

    /// The KV head serving query head `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= q_heads`.
    pub fn kv_head_of(&self, q: usize) -> usize {
        assert!(q < self.q_heads, "query head {q} out of range");
        q / self.group_size()
    }
}

impl TurboAttention {
    /// Multi-head prefill on `rt` with explicit per-head bit widths: the
    /// layer engine with `GqaLayout::new(h, h)`.
    ///
    /// # Panics
    ///
    /// Panics if there are no heads or the per-head tensors and widths
    /// disagree in count or shape.
    pub fn prefill_layer_parallel_on(
        &self,
        rt: &Runtime,
        qs: &[Matrix],
        ks: &[Matrix],
        vs: &[Matrix],
        bits_per_head: &[BitWidth],
    ) -> (Vec<Matrix>, LayerKvCache) {
        let layout = GqaLayout::new(qs.len(), qs.len());
        self.prefill_layer_on(rt, layout, qs, ks, vs, bits_per_head)
    }

    /// GQA prefill on `rt` (pass [`turbo_runtime::global()`] for the
    /// default pool): `qs` has one matrix per **query** head, `ks`/`vs`
    /// one per **KV** head. Returns per-query-head outputs and the
    /// per-KV-head quantized cache.
    ///
    /// `n_two_bit` KV heads are demoted to INT2 by the priority metric
    /// (Equations 11–12). Multi-head attention is
    /// `GqaLayout::new(h, h)`.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is invalid, the tensor counts don't match it,
    /// or shapes are inconsistent.
    pub fn prefill_layer_gqa_on(
        &self,
        rt: &Runtime,
        layout: GqaLayout,
        qs: &[Matrix],
        ks: &[Matrix],
        vs: &[Matrix],
        n_two_bit: usize,
    ) -> (Vec<Matrix>, LayerKvCache) {
        let stats: Vec<HeadStats> = ks.iter().map(HeadStats::from_activations).collect();
        let bits = select_two_bit_heads(&stats, n_two_bit, SelectionMethod::Priority);
        self.prefill_layer_on(rt, layout, qs, ks, vs, &bits)
    }

    /// The one prefill body. Phase 1 runs the K/V pre-pass once per KV
    /// head; phase 2 sweeps every `(query head, row block)` pair over its
    /// KV head's frozen tiles. Each query head's output and each KV
    /// head's cache are bit-identical to
    /// [`turbo_prefill_head`](crate::prefill::turbo_prefill_head) on
    /// that head's K/V.
    fn prefill_layer_on(
        &self,
        rt: &Runtime,
        layout: GqaLayout,
        qs: &[Matrix],
        ks: &[Matrix],
        vs: &[Matrix],
        bits_per_kv_head: &[BitWidth],
    ) -> (Vec<Matrix>, LayerKvCache) {
        layout.validate();
        assert_eq!(qs.len(), layout.q_heads, "one Q per query head");
        assert_eq!(ks.len(), layout.kv_heads, "one K per KV head");
        assert_eq!(vs.len(), layout.kv_heads, "one V per KV head");
        assert_eq!(
            bits_per_kv_head.len(),
            layout.kv_heads,
            "one bit width per KV head"
        );
        let cfg = *self.config();
        let offsets: Vec<usize> = qs
            .iter()
            .enumerate()
            .map(|(h, q)| query_offset(q, &ks[layout.kv_head_of(h)], cfg.masking))
            .collect();

        let (caches, tiles): (Vec<HeadKvCache>, Vec<KvTiles>) = rt
            .par_map_indexed(layout.kv_heads, |kv| {
                let mut cache =
                    HeadKvCache::new(ks[kv].cols(), cfg.cache_config(bits_per_kv_head[kv]));
                let tiles = KvTiles::quantize(&ks[kv], &vs[kv], cfg.block_c, &mut cache);
                (cache, tiles)
            })
            .into_iter()
            .unzip();

        let sweeps: Vec<_> = offsets
            .iter()
            .enumerate()
            .map(|(h, &offset)| tiles[layout.kv_head_of(h)].sweep(cfg.masking, self.sas(), offset))
            .collect();
        let starts: Vec<(usize, usize)> = qs
            .iter()
            .enumerate()
            .flat_map(|(h, q)| (0..q.rows()).step_by(cfg.block_r).map(move |qi| (h, qi)))
            .collect();
        let mut results = rt
            .par_map(&starts, |&(h, qi)| {
                let q = &qs[h];
                let q_blk = q.row_block(qi, cfg.block_r.min(q.rows() - qi));
                (qi, sweeps[h].q_block(qi, &q_blk))
            })
            .into_iter();
        let outs = qs
            .iter()
            .map(|q| {
                let blocks = results.by_ref().take(q.rows().div_ceil(cfg.block_r));
                PrefillOutput::from_blocks(q.rows(), q.cols(), blocks).output
            })
            .collect();
        (outs, LayerKvCache::from_heads(caches))
    }

    /// Multi-head decode on `rt`: the GQA decode with
    /// `GqaLayout::new(h, h)`, where `h` is the layer's head count.
    ///
    /// # Panics
    ///
    /// Panics if row counts don't match the layer's head count.
    pub fn decode_layer_parallel_on(
        &self,
        rt: &Runtime,
        qs: &[&[f32]],
        ks: &[&[f32]],
        vs: &[&[f32]],
        layer: &mut LayerKvCache,
    ) -> Vec<Vec<f32>> {
        let h = layer.num_heads();
        self.decode_layer_gqa_on(rt, GqaLayout::new(h, h), qs, ks, vs, layer)
    }

    /// GQA decode on `rt` (pass [`turbo_runtime::global()`] for the
    /// default pool): appends one `(k, v)` row per KV head, then attends
    /// one query row per query head against its group's shared cache.
    ///
    /// Each KV head is one pooled task: it appends its `(k, v)` row (so a
    /// buffer flush compresses on the pool too), then attends its whole
    /// query group in one grouped pass over the cache
    /// ([`turbo_attend_group`]). Index-ordered results are bit-identical
    /// at any worker count, and each query head's output is bit-identical
    /// to [`turbo_attend_cache`](crate::decode::turbo_attend_cache) on
    /// the same cache.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is invalid, row counts don't match it, or a K/V
    /// row is not `head_dim` wide and finite.
    pub fn decode_layer_gqa_on(
        &self,
        rt: &Runtime,
        layout: GqaLayout,
        qs: &[&[f32]],
        ks: &[&[f32]],
        vs: &[&[f32]],
        layer: &mut LayerKvCache,
    ) -> Vec<Vec<f32>> {
        layout.validate();
        assert_eq!(qs.len(), layout.q_heads, "one query row per query head");
        assert_eq!(ks.len(), layout.kv_heads, "one key row per KV head");
        assert_eq!(vs.len(), layout.kv_heads, "one value row per KV head");
        assert_eq!(layer.num_heads(), layout.kv_heads, "cache head mismatch");
        let g = layout.group_size();
        let sas = self.sas();
        let mut heads: Vec<(usize, &mut HeadKvCache)> = layer.iter_mut().enumerate().collect();
        rt.par_map_mut(&mut heads, |(kv, cache)| {
            cache
                .try_append(ks[*kv], vs[*kv])
                .expect("decode K/V rows must be head_dim wide and finite");
            turbo_attend_group(&qs[*kv * g..(*kv + 1) * g], cache, sas)
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TurboConfig;
    use crate::reference::{naive_attention, Masking};
    use turbo_kvcache::serialize_head_cache;
    use turbo_tensor::{relative_error, TensorRng};

    #[test]
    fn layout_math() {
        let l = GqaLayout::new(8, 2);
        assert_eq!(l.group_size(), 4);
        assert_eq!(l.kv_head_of(0), 0);
        assert_eq!(l.kv_head_of(3), 0);
        assert_eq!(l.kv_head_of(4), 1);
        assert_eq!(l.kv_head_of(7), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of KV heads")]
    fn ragged_layout_panics() {
        GqaLayout::new(6, 4);
    }

    #[test]
    #[should_panic(expected = "multiple of KV heads")]
    fn empty_layout_panics() {
        GqaLayout::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "multiple of KV heads")]
    fn struct_literal_ragged_layout_panics_in_decode() {
        let mut rng = TensorRng::new(5);
        let heads = |rng: &mut TensorRng, h: usize| -> Vec<Matrix> {
            (0..h).map(|_| rng.normal(8, 8, 0.0, 1.0)).collect()
        };
        let (qs, ks, vs) = (heads(&mut rng, 4), heads(&mut rng, 4), heads(&mut rng, 4));
        let engine = TurboAttention::default();
        let rt = turbo_runtime::global();
        let (_, mut cache) =
            engine.prefill_layer_gqa_on(rt, GqaLayout::new(4, 4), &qs, &ks, &vs, 0);
        // Six query heads cannot share four KV heads; the fields are
        // public, so only the engine's own check stands in the way.
        let ragged = GqaLayout {
            q_heads: 6,
            kv_heads: 4,
        };
        let q_rows = vec![qs[0].row(0); 6];
        let kv_rows: Vec<&[f32]> = ks.iter().map(|m| m.row(0)).collect();
        engine.decode_layer_gqa_on(rt, ragged, &q_rows, &kv_rows, &kv_rows, &mut cache);
    }

    #[test]
    fn shared_sweep_matches_single_head_reference() {
        use crate::prefill::turbo_prefill_head;
        use turbo_kvcache::KvCacheConfig;

        // A ragged prompt: 70 = 2 * 32 + 6 rows.
        let (n, d, kv_heads) = (70usize, 16usize, 2usize);
        let engine = TurboAttention::new(TurboConfig {
            block_r: 32,
            block_c: 32,
            ..TurboConfig::default()
        });
        let cfg = engine.config();
        for g in [1usize, 4] {
            let layout = GqaLayout::new(g * kv_heads, kv_heads);
            let mut rng = TensorRng::new(11 + g as u64);
            let mut heads =
                |h: usize| -> Vec<Matrix> { (0..h).map(|_| rng.normal(n, d, 0.0, 1.0)).collect() };
            let (qs, ks, vs) = (heads(layout.q_heads), heads(kv_heads), heads(kv_heads));
            for workers in [1usize, 2, 8] {
                let rt = turbo_runtime::Runtime::with_workers(workers);
                let (outs, layer) = engine.prefill_layer_gqa_on(&rt, layout, &qs, &ks, &vs, 1);
                for q in 0..layout.q_heads {
                    let kv = layout.kv_head_of(q);
                    let mut cache = HeadKvCache::new(
                        d,
                        KvCacheConfig {
                            bits: layer.head(kv).config().bits,
                            group_size: cfg.group_size,
                            buffer_capacity: cfg.buffer_capacity,
                        },
                    );
                    let alone = turbo_prefill_head(
                        &qs[q],
                        &ks[kv],
                        &vs[kv],
                        cfg.masking,
                        engine.sas(),
                        cfg.block_r,
                        cfg.block_c,
                        &mut cache,
                    );
                    assert_eq!(
                        alone.output, outs[q],
                        "G={g}, {workers} workers: query head {q} diverged"
                    );
                    assert_eq!(
                        serialize_head_cache(&cache),
                        serialize_head_cache(layer.head(kv)),
                        "G={g}, {workers} workers: KV head {kv} cache diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn gqa_prefill_matches_reference_per_query_head() {
        let layout = GqaLayout::new(4, 2);
        let mut rng = TensorRng::new(1);
        let (n, d) = (64usize, 16usize);
        let qs: Vec<Matrix> = (0..4).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let ks: Vec<Matrix> = (0..2).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let vs: Vec<Matrix> = (0..2).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let engine = TurboAttention::new(TurboConfig::default());
        let rt = turbo_runtime::global();
        let (outs, cache) = engine.prefill_layer_gqa_on(rt, layout, &qs, &ks, &vs, 0);
        assert_eq!(outs.len(), 4);
        assert_eq!(cache.num_heads(), 2);
        assert_eq!(cache.len(), n);
        for q_head in 0..4 {
            let kv = layout.kv_head_of(q_head);
            let exact = naive_attention(&qs[q_head], &ks[kv], &vs[kv], Masking::Causal);
            let rel = relative_error(&outs[q_head], &exact);
            assert!(rel < 0.06, "query head {q_head}: rel {rel}");
        }
    }

    #[test]
    fn gqa_decode_appends_once_per_kv_head() {
        let layout = GqaLayout::new(4, 2);
        let mut rng = TensorRng::new(2);
        let d = 8;
        let qs: Vec<Matrix> = (0..4).map(|_| rng.normal(8, d, 0.0, 1.0)).collect();
        let ks: Vec<Matrix> = (0..2).map(|_| rng.normal(8, d, 0.0, 1.0)).collect();
        let vs: Vec<Matrix> = (0..2).map(|_| rng.normal(8, d, 0.0, 1.0)).collect();
        let engine = TurboAttention::default();
        let rt = turbo_runtime::global();
        let (_, mut cache) = engine.prefill_layer_gqa_on(rt, layout, &qs, &ks, &vs, 1);
        let q_rows: Vec<&[f32]> = qs.iter().map(|m| m.row(0)).collect();
        let kv_rows: Vec<&[f32]> = ks.iter().map(|m| m.row(0)).collect();
        let outs = engine.decode_layer_gqa_on(rt, layout, &q_rows, &kv_rows, &kv_rows, &mut cache);
        assert_eq!(outs.len(), 4);
        assert_eq!(cache.len(), 9); // 8 prefill + 1 decoded, per KV head
                                    // Query heads sharing a KV head but with different queries should
                                    // produce different outputs.
        assert_ne!(outs[0], outs[1]);
    }

    #[test]
    fn pooled_gqa_is_bit_identical_at_any_worker_count() {
        use crate::decode::turbo_attend_cache;

        let (n, d, kv_heads, steps) = (48usize, 16usize, 2usize, 40usize);
        // n_b = 16: 40 decode steps cross two buffer flushes.
        let engine = TurboAttention::new(TurboConfig {
            buffer_capacity: 16,
            ..TurboConfig::default()
        });
        for g in [1usize, 4, 8] {
            let layout = GqaLayout::new(g * kv_heads, kv_heads);
            let mut rng = TensorRng::new(4 + g as u64);
            let qs: Vec<Matrix> = (0..layout.q_heads)
                .map(|_| rng.normal(n + steps, d, 0.0, 1.0))
                .collect();
            let ks: Vec<Matrix> = (0..kv_heads)
                .map(|_| rng.normal(n + steps, d, 0.0, 1.0))
                .collect();
            let vs: Vec<Matrix> = (0..kv_heads)
                .map(|_| rng.normal(n + steps, d, 0.0, 1.0))
                .collect();
            let prompt =
                |ms: &[Matrix]| -> Vec<Matrix> { ms.iter().map(|m| m.row_block(0, n)).collect() };
            let (pq, pk, pv) = (prompt(&qs), prompt(&ks), prompt(&vs));
            let serial_rt = turbo_runtime::Runtime::with_workers(1);
            let (outs_base, mut cache_base) =
                engine.prefill_layer_gqa_on(&serial_rt, layout, &pq, &pk, &pv, 1);
            let pools: Vec<turbo_runtime::Runtime> =
                [2usize, 8].map(turbo_runtime::Runtime::with_workers).into();
            let mut caches = Vec::new();
            for rt in &pools {
                let (outs, cache) = engine.prefill_layer_gqa_on(rt, layout, &pq, &pk, &pv, 1);
                assert_eq!(
                    outs_base,
                    outs,
                    "G={g}: prefill diverged at {} workers",
                    rt.workers()
                );
                caches.push(cache);
            }
            for t in n..n + steps {
                let q_rows: Vec<&[f32]> = qs.iter().map(|m| m.row(t)).collect();
                let k_rows: Vec<&[f32]> = ks.iter().map(|m| m.row(t)).collect();
                let v_rows: Vec<&[f32]> = vs.iter().map(|m| m.row(t)).collect();
                let dec_base = engine.decode_layer_gqa_on(
                    &serial_rt,
                    layout,
                    &q_rows,
                    &k_rows,
                    &v_rows,
                    &mut cache_base,
                );
                for (q, out) in dec_base.iter().enumerate() {
                    let head = cache_base.head(layout.kv_head_of(q));
                    let alone = turbo_attend_cache(q_rows[q], head, engine.sas());
                    assert_eq!(
                        &alone, out,
                        "G={g} step {t}: query head {q} != per-head attend"
                    );
                }
                for (rt, cache) in pools.iter().zip(&mut caches) {
                    let dec =
                        engine.decode_layer_gqa_on(rt, layout, &q_rows, &k_rows, &v_rows, cache);
                    assert_eq!(
                        dec_base,
                        dec,
                        "G={g} step {t}: diverged at {} workers",
                        rt.workers()
                    );
                }
            }
            for kv in 0..kv_heads {
                assert!(
                    cache_base.head(kv).resident_blocks().len()
                        >= n.div_ceil(engine.config().block_c) + 2,
                    "G={g}: the run must cross two flushes"
                );
                for cache in &caches {
                    assert_eq!(
                        cache_base.head(kv).config(),
                        cache.head(kv).config(),
                        "G={g}: head {kv} config diverged"
                    );
                    assert_eq!(
                        cache_base.head(kv).dequantize_all(),
                        cache.head(kv).dequantize_all(),
                        "G={g}: head {kv} cache contents diverged"
                    );
                }
            }
        }
    }

    /// Prefill hands decode its tiles: after the layer prefill every KV
    /// head's tile cache holds one tile per resident block, and the first
    /// decode step serves every block from the cache.
    #[test]
    fn prefill_warms_every_tile_so_the_first_decode_step_misses_none() {
        let layout = GqaLayout::new(4, 2);
        let mut rng = TensorRng::new(5);
        // 200 tokens: three 64-token blocks and a ragged one of 8.
        let (n, d) = (200usize, 32usize);
        let qs: Vec<Matrix> = (0..4).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let ks: Vec<Matrix> = (0..2).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let vs: Vec<Matrix> = (0..2).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let engine = TurboAttention::default();
        let rt = turbo_runtime::global();
        // One INT2 head: both widths hand over their tiles.
        let (_, mut cache) = engine.prefill_layer_gqa_on(rt, layout, &qs, &ks, &vs, 1);
        for head in cache.iter() {
            let s = head.tile_cache_stats();
            assert_eq!(head.resident_blocks().len(), 4);
            assert_eq!((s.entries, s.hits, s.misses), (4, 0, 0));
        }
        let q_rows: Vec<&[f32]> = qs.iter().map(|m| m.row(0)).collect();
        let kv_rows: Vec<&[f32]> = ks.iter().map(|m| m.row(1)).collect();
        engine.decode_layer_gqa_on(rt, layout, &q_rows, &kv_rows, &kv_rows, &mut cache);
        for head in cache.iter() {
            let s = head.tile_cache_stats();
            assert_eq!(
                (s.hits, s.misses),
                (4, 0),
                "the first decode step rebuilt a tile"
            );
        }
    }

    #[test]
    fn gqa_mixed_precision_ranks_kv_heads() {
        let layout = GqaLayout::new(4, 2);
        let mut rng = TensorRng::new(3);
        let d = 16;
        let qs: Vec<Matrix> = (0..4).map(|_| rng.normal(32, d, 0.0, 1.0)).collect();
        let ks = vec![
            rng.normal_with_channel_outliers(32, d, 1.0, &[2], 20.0),
            rng.normal(32, d, 0.0, 1.0),
        ];
        let vs: Vec<Matrix> = (0..2).map(|_| rng.normal(32, d, 0.0, 1.0)).collect();
        let engine = TurboAttention::default();
        let rt = turbo_runtime::global();
        let (_, cache) = engine.prefill_layer_gqa_on(rt, layout, &qs, &ks, &vs, 1);
        assert_eq!(cache.head(0).config().bits, BitWidth::Int4);
        assert_eq!(cache.head(1).config().bits, BitWidth::Int2);
    }
}

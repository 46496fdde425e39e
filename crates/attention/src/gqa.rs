//! Grouped-query attention (GQA) on top of the quantized engine.
//!
//! The models the paper evaluates (LLaMA3-8B, Phi-3) share each KV head
//! among a *group* of query heads. For FlashQ this matters twice:
//!
//! * the KV cache (and therefore compression) is per **KV head**, so the
//!   head-priority metric ranks KV heads;
//! * at decode time one integer dequantization of a KV block serves the
//!   whole query group — amortizing exactly the cost TurboAttention
//!   already minimizes.
//!
//! Decode runs one task per KV head: the task appends the head's new
//! `(k, v)` row, then attends the group's `G` query rows in one pass
//! ([`turbo_attend_group`]). Each resident tile is looked up once and
//! feeds one `G × rows` score GEMM and one `G × d` `P·V` GEMM; the open
//! buffer's values are transposed once. Every query row keeps its own
//! quantization scale and online-softmax state, so each output is
//! bit-identical to attending that query head alone.

use crate::api::TurboAttention;
use crate::decode::turbo_attend_group;
use crate::head_select::{select_two_bit_heads, HeadStats, SelectionMethod};
use crate::prefill::turbo_prefill_head;
use turbo_kvcache::{HeadKvCache, LayerKvCache};
use turbo_quant::BitWidth;
use turbo_tensor::Matrix;

/// A GQA layer configuration: `q_heads` query heads sharing `kv_heads`
/// caches (`q_heads % kv_heads == 0`).
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
    /// Panics if `kv_heads == 0` or `q_heads` is not a multiple of
    /// `kv_heads`.
    pub fn new(q_heads: usize, kv_heads: usize) -> Self {
        assert!(kv_heads > 0, "need at least one KV head");
        assert_eq!(
            q_heads % kv_heads,
            0,
            "query heads must be a multiple of KV heads"
        );
        Self { q_heads, kv_heads }
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
    /// GQA prefill: `qs` has one matrix per **query** head, `ks`/`vs` one
    /// per **KV** head. Returns per-query-head outputs and the per-KV-head
    /// quantized cache.
    ///
    /// `n_two_bit` KV heads are demoted to INT2 by the priority metric.
    ///
    /// # Panics
    ///
    /// Panics if the tensor counts don't match `layout` or shapes are
    /// inconsistent.
    pub fn prefill_layer_gqa(
        &self,
        layout: GqaLayout,
        qs: &[Matrix],
        ks: &[Matrix],
        vs: &[Matrix],
        n_two_bit: usize,
    ) -> (Vec<Matrix>, LayerKvCache) {
        self.prefill_layer_gqa_on(turbo_runtime::global(), layout, qs, ks, vs, n_two_bit)
    }

    /// As [`TurboAttention::prefill_layer_gqa`], but on an explicit
    /// runtime. Every query head is one pooled task; group leaders build
    /// the shared per-KV-head cache, the rest attend through scratch
    /// caches. The index-ordered merge keeps outputs and cache contents
    /// bit-identical at any worker count.
    ///
    /// # Panics
    ///
    /// As [`TurboAttention::prefill_layer_gqa`].
    pub fn prefill_layer_gqa_on(
        &self,
        rt: &turbo_runtime::Runtime,
        layout: GqaLayout,
        qs: &[Matrix],
        ks: &[Matrix],
        vs: &[Matrix],
        n_two_bit: usize,
    ) -> (Vec<Matrix>, LayerKvCache) {
        assert_eq!(qs.len(), layout.q_heads, "one Q per query head");
        assert_eq!(ks.len(), layout.kv_heads, "one K per KV head");
        assert_eq!(vs.len(), layout.kv_heads, "one V per KV head");
        let d = ks[0].cols();
        let stats: Vec<HeadStats> = ks.iter().map(HeadStats::from_activations).collect();
        let bits: Vec<BitWidth> =
            select_two_bit_heads(&stats, n_two_bit, SelectionMethod::Priority);

        // One pooled task per query head. The group leader (first query
        // of each group) keeps its cache — it becomes the group's shared
        // cache; the rest run the same quantized math through a scratch
        // cache that is dropped, so the shared cache is written once.
        let results: Vec<(Matrix, Option<turbo_kvcache::HeadKvCache>)> =
            rt.par_map_indexed(layout.q_heads, |q_head| {
                let kv = layout.kv_head_of(q_head);
                let mut cache = turbo_kvcache::HeadKvCache::new(
                    d,
                    turbo_kvcache::KvCacheConfig {
                        bits: bits[kv],
                        group_size: self.config().group_size,
                        buffer_capacity: self.config().buffer_capacity,
                    },
                );
                let out = turbo_prefill_head(
                    &qs[q_head],
                    &ks[kv],
                    &vs[kv],
                    self.config().masking,
                    self.sas(),
                    self.config().block_r,
                    self.config().block_c,
                    &mut cache,
                );
                let leader = q_head % layout.group_size() == 0;
                (out.output, leader.then_some(cache))
            });

        let mut outs = Vec::with_capacity(layout.q_heads);
        let mut heads = Vec::with_capacity(layout.kv_heads);
        for (out, cache) in results {
            outs.push(out);
            if let Some(c) = cache {
                heads.push(c);
            }
        }
        (outs, LayerKvCache::from_heads(heads))
    }

    /// GQA decode: appends one `(k, v)` row per KV head, then attends one
    /// query row per query head against its group's shared cache.
    ///
    /// # Panics
    ///
    /// Panics if row counts don't match `layout`.
    pub fn decode_layer_gqa(
        &self,
        layout: GqaLayout,
        qs: &[&[f32]],
        ks: &[&[f32]],
        vs: &[&[f32]],
        layer: &mut LayerKvCache,
    ) -> Vec<Vec<f32>> {
        self.decode_layer_gqa_on(turbo_runtime::global(), layout, qs, ks, vs, layer)
    }

    /// As [`TurboAttention::decode_layer_gqa`], but on an explicit
    /// runtime. Each KV head is one pooled task: it appends its `(k, v)`
    /// row (so a buffer flush compresses on the pool too), then attends
    /// its whole query group in one grouped pass over the cache
    /// ([`turbo_attend_group`]). Index-ordered results are bit-identical
    /// at any worker count, and each query head's output is bit-identical
    /// to [`turbo_attend_cache`](crate::decode::turbo_attend_cache) on
    /// the same cache.
    ///
    /// # Panics
    ///
    /// As [`TurboAttention::decode_layer_gqa`].
    pub fn decode_layer_gqa_on(
        &self,
        rt: &turbo_runtime::Runtime,
        layout: GqaLayout,
        qs: &[&[f32]],
        ks: &[&[f32]],
        vs: &[&[f32]],
        layer: &mut LayerKvCache,
    ) -> Vec<Vec<f32>> {
        assert_eq!(qs.len(), layout.q_heads, "one query row per query head");
        assert_eq!(ks.len(), layout.kv_heads, "one key row per KV head");
        assert_eq!(vs.len(), layout.kv_heads, "one value row per KV head");
        assert_eq!(layer.num_heads(), layout.kv_heads, "cache head mismatch");
        let g = layout.group_size();
        let sas = self.sas();
        let mut heads: Vec<(usize, &mut HeadKvCache)> = layer.iter_mut().enumerate().collect();
        rt.par_map_mut(&mut heads, |(kv, cache)| {
            cache.append(ks[*kv], vs[*kv]);
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
    fn gqa_prefill_matches_reference_per_query_head() {
        let layout = GqaLayout::new(4, 2);
        let mut rng = TensorRng::new(1);
        let (n, d) = (64usize, 16usize);
        let qs: Vec<Matrix> = (0..4).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let ks: Vec<Matrix> = (0..2).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let vs: Vec<Matrix> = (0..2).map(|_| rng.normal(n, d, 0.0, 1.0)).collect();
        let engine = TurboAttention::new(TurboConfig::default());
        let (outs, cache) = engine.prefill_layer_gqa(layout, &qs, &ks, &vs, 0);
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
        let (_, mut cache) = engine.prefill_layer_gqa(layout, &qs, &ks, &vs, 1);
        let q_rows: Vec<&[f32]> = qs.iter().map(|m| m.row(0)).collect();
        let kv_rows: Vec<&[f32]> = ks.iter().map(|m| m.row(0)).collect();
        let outs = engine.decode_layer_gqa(layout, &q_rows, &kv_rows, &kv_rows, &mut cache);
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
        let (_, cache) = engine.prefill_layer_gqa(layout, &qs, &ks, &vs, 1);
        assert_eq!(cache.head(0).config().bits, BitWidth::Int4);
        assert_eq!(cache.head(1).config().bits, BitWidth::Int2);
    }
}

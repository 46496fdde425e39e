//! Pooled layer execution on the shared work-stealing runtime.
//!
//! Attention heads are embarrassingly parallel — on a GPU they map to
//! independent thread blocks; on this CPU substrate they map to tasks on
//! the persistent [`turbo_runtime`] pool. Each head task additionally
//! fans its query row-block sweeps out as nested tasks
//! ([`turbo_prefill_head_pooled`]), so a layer with fewer heads than
//! cores still saturates the pool. Results are bit-identical to the
//! serial path because the task partition is fixed by the input shape
//! alone and results merge in head/row order — worker count never enters
//! the arithmetic.
//!
//! The old implementation spawned one fresh OS thread per head per call,
//! oversubscribing the machine whenever `heads > cores` and paying spawn
//! latency on every decode step. The pool spawns its workers once; the
//! `pool_never_exceeds_configured_worker_count` regression test in
//! `turbo-runtime` pins that via `HealthStats`.

use crate::api::TurboAttention;
use crate::decode::turbo_attend_cache;
use crate::prefill::turbo_prefill_head_pooled;
use turbo_kvcache::{HeadKvCache, KvCacheConfig, LayerKvCache};
use turbo_quant::BitWidth;
use turbo_runtime::Runtime;
use turbo_tensor::Matrix;

impl TurboAttention {
    /// Parallel variant of [`TurboAttention::prefill_layer`] on `rt`
    /// (pass [`turbo_runtime::global()`] for the default pool): one
    /// pooled task per head, with nested row-block tasks inside each
    /// head. Output and caches are bit-identical to the serial path at
    /// any worker count.
    ///
    /// # Panics
    ///
    /// As [`TurboAttention::prefill_layer`].
    pub fn prefill_layer_parallel_on(
        &self,
        rt: &Runtime,
        qs: &[Matrix],
        ks: &[Matrix],
        vs: &[Matrix],
        bits_per_head: &[BitWidth],
    ) -> (Vec<Matrix>, LayerKvCache) {
        let h = qs.len();
        assert!(h > 0, "at least one head required");
        assert_eq!(ks.len(), h, "per-head K count mismatch");
        assert_eq!(vs.len(), h, "per-head V count mismatch");
        assert_eq!(bits_per_head.len(), h, "per-head bit-width count mismatch");
        let d = qs[0].cols();
        let cfg = *self.config();
        let sas = self.sas();

        let results: Vec<(Matrix, HeadKvCache)> = rt.par_map_indexed(h, |i| {
            let mut cache = HeadKvCache::new(
                d,
                KvCacheConfig {
                    bits: bits_per_head[i],
                    group_size: cfg.group_size,
                    buffer_capacity: cfg.buffer_capacity,
                },
            );
            let out = turbo_prefill_head_pooled(
                &qs[i],
                &ks[i],
                &vs[i],
                cfg.masking,
                sas,
                cfg.block_r,
                cfg.block_c,
                &mut cache,
                rt,
            );
            (out.output, cache)
        });

        let mut outs = Vec::with_capacity(h);
        let mut caches = Vec::with_capacity(h);
        for (o, c) in results {
            outs.push(o);
            caches.push(c);
        }
        (outs, LayerKvCache::from_heads(caches))
    }

    /// Parallel variant of [`TurboAttention::decode_layer`] on `rt`
    /// (pass [`turbo_runtime::global()`] for the default pool): appends
    /// and attends every head as a pooled task.
    ///
    /// # Panics
    ///
    /// As [`TurboAttention::decode_layer`].
    pub fn decode_layer_parallel_on(
        &self,
        rt: &Runtime,
        qs: &[&[f32]],
        ks: &[&[f32]],
        vs: &[&[f32]],
        layer: &mut LayerKvCache,
    ) -> Vec<Vec<f32>> {
        let h = layer.num_heads();
        assert_eq!(qs.len(), h, "one query row per head required");
        assert_eq!(ks.len(), h, "one key row per head required");
        assert_eq!(vs.len(), h, "one value row per head required");
        let sas = self.sas();
        let mut heads: Vec<(usize, &mut HeadKvCache)> = layer.iter_mut().enumerate().collect();
        rt.par_map_mut(&mut heads, |(i, cache)| {
            cache.append(ks[*i], vs[*i]);
            turbo_attend_cache(qs[*i], cache, sas)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::TensorRng;

    fn heads(seed: u64, h: usize, n: usize, d: usize) -> Vec<Matrix> {
        let mut rng = TensorRng::new(seed);
        (0..h).map(|_| rng.normal(n, d, 0.0, 1.0)).collect()
    }

    /// Worker counts the equivalence tests sweep: serial-on-pool, the
    /// smallest truly concurrent pool, and an oversubscribed "N".
    const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

    #[test]
    fn parallel_prefill_matches_serial_bit_for_bit() {
        let qs = heads(1, 6, 96, 16);
        let ks = heads(2, 6, 96, 16);
        let vs = heads(3, 6, 96, 16);
        let bits = [
            BitWidth::Int4,
            BitWidth::Int2,
            BitWidth::Int4,
            BitWidth::Int4,
            BitWidth::Int2,
            BitWidth::Int4,
        ];
        let engine = TurboAttention::default();
        let (serial_out, serial_cache) = engine.prefill_layer(&qs, &ks, &vs, &bits);

        // Global pool (whatever size the machine gives us)...
        let (par_out, par_cache) =
            engine.prefill_layer_parallel_on(turbo_runtime::global(), &qs, &ks, &vs, &bits);
        assert_eq!(serial_out, par_out);
        for h in 0..6 {
            assert_eq!(
                serial_cache.head(h).dequantize_all(),
                par_cache.head(h).dequantize_all()
            );
        }

        // ...and pinned pools at 1, 2, and N workers.
        for workers in WORKER_SWEEP {
            let rt = Runtime::with_workers(workers);
            let (out, cache) = engine.prefill_layer_parallel_on(&rt, &qs, &ks, &vs, &bits);
            assert_eq!(serial_out, out, "{workers} workers diverged");
            for h in 0..6 {
                assert_eq!(
                    serial_cache.head(h).dequantize_all(),
                    cache.head(h).dequantize_all(),
                    "{workers}-worker cache diverged at head {h}"
                );
            }
        }
    }

    #[test]
    fn parallel_decode_matches_serial() {
        let qs = heads(4, 4, 32, 8);
        let ks = heads(5, 4, 32, 8);
        let vs = heads(6, 4, 32, 8);
        let engine = TurboAttention::default();
        let bits = [BitWidth::Int4; 4];
        let (_, mut serial_cache) = engine.prefill_layer(&qs, &ks, &vs, &bits);
        let step = heads(7, 4, 1, 8);
        let rows: Vec<&[f32]> = step.iter().map(|m| m.row(0)).collect();
        let serial = engine.decode_layer(&rows, &rows, &rows, &mut serial_cache);

        let (_, mut par_cache) = engine.prefill_layer(&qs, &ks, &vs, &bits);
        let parallel = engine.decode_layer_parallel_on(
            turbo_runtime::global(),
            &rows,
            &rows,
            &rows,
            &mut par_cache,
        );
        assert_eq!(serial, parallel);
        assert_eq!(serial_cache.len(), par_cache.len());

        for workers in WORKER_SWEEP {
            let rt = Runtime::with_workers(workers);
            let (_, mut cache) = engine.prefill_layer(&qs, &ks, &vs, &bits);
            let out = engine.decode_layer_parallel_on(&rt, &rows, &rows, &rows, &mut cache);
            assert_eq!(serial, out, "{workers} workers diverged");
            assert_eq!(serial_cache.len(), cache.len());
        }
    }

    #[test]
    fn pooled_prefill_head_matches_serial_across_worker_counts() {
        use crate::prefill::{turbo_prefill_head, turbo_prefill_head_pooled};
        use crate::reference::Masking;
        use turbo_softmax::Sas;

        let mut rng = TensorRng::new(11);
        let q = rng.normal(70, 16, 0.0, 1.0); // ragged tail: 70 = 2*32 + 6
        let k = rng.normal(70, 16, 0.0, 1.0);
        let v = rng.normal(70, 16, 0.0, 1.0);
        let sas = Sas::paper_default();
        let cache_cfg = KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 64,
            buffer_capacity: 64,
        };
        let mut cache = HeadKvCache::new(16, cache_cfg);
        let serial = turbo_prefill_head(&q, &k, &v, Masking::Causal, &sas, 32, 32, &mut cache);

        for workers in WORKER_SWEEP {
            let rt = Runtime::with_workers(workers);
            let mut cache = HeadKvCache::new(16, cache_cfg);
            let pooled = turbo_prefill_head_pooled(
                &q,
                &k,
                &v,
                Masking::Causal,
                &sas,
                32,
                32,
                &mut cache,
                &rt,
            );
            assert_eq!(serial.output, pooled.output, "{workers} workers diverged");
            assert_eq!(serial.lse, pooled.lse, "{workers}-worker lse diverged");
        }
    }
}

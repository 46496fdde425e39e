//! Bit-identity tests of the multi-head entry points of the layer engine.
//!
//! [`TurboAttention::prefill_layer_parallel_on`] and
//! [`TurboAttention::decode_layer_parallel_on`] are the `G = 1` calls of
//! the GQA engine in [`crate::gqa`]. These tests pin them against the
//! serial single-head references, [`turbo_prefill_head`] and
//! [`turbo_attend_cache`] run head by head, on the global pool and on
//! pinned pools of 1, 2 and 8 workers.

mod tests {
    use crate::api::{TurboAttention, TurboConfig};
    use crate::decode::turbo_attend_cache;
    use crate::prefill::turbo_prefill_head;
    use turbo_kvcache::{serialize_head_cache, HeadKvCache};
    use turbo_quant::BitWidth;
    use turbo_runtime::Runtime;
    use turbo_tensor::{Matrix, TensorRng};

    fn heads(seed: u64, h: usize, n: usize, d: usize) -> Vec<Matrix> {
        let mut rng = TensorRng::new(seed);
        (0..h).map(|_| rng.normal(n, d, 0.0, 1.0)).collect()
    }

    /// Worker counts the equivalence tests sweep: serial-on-pool, the
    /// smallest truly concurrent pool, and an oversubscribed "N".
    const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

    /// Serial reference: each head prefilled alone by
    /// [`turbo_prefill_head`] into a fresh cache of its bit width.
    fn serial_prefill(
        engine: &TurboAttention,
        qs: &[Matrix],
        ks: &[Matrix],
        vs: &[Matrix],
        bits: &[BitWidth],
    ) -> (Vec<Matrix>, Vec<HeadKvCache>) {
        let cfg = engine.config();
        (0..qs.len())
            .map(|h| {
                let mut cache = HeadKvCache::new(qs[h].cols(), cfg.cache_config(bits[h]));
                let out = turbo_prefill_head(
                    &qs[h],
                    &ks[h],
                    &vs[h],
                    cfg.masking,
                    engine.sas(),
                    cfg.block_r,
                    cfg.block_c,
                    &mut cache,
                );
                (out.output, cache)
            })
            .unzip()
    }

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
        let (serial_out, serial_cache) = serial_prefill(&engine, &qs, &ks, &vs, &bits);

        // Global pool (whatever size the machine gives us)...
        let (par_out, par_cache) =
            engine.prefill_layer_parallel_on(turbo_runtime::global(), &qs, &ks, &vs, &bits);
        assert_eq!(serial_out, par_out);
        for (h, serial) in serial_cache.iter().enumerate() {
            assert_eq!(
                serialize_head_cache(serial),
                serialize_head_cache(par_cache.head(h))
            );
        }

        // ...and pinned pools at 1, 2, and N workers.
        for workers in WORKER_SWEEP {
            let rt = Runtime::with_workers(workers);
            let (out, cache) = engine.prefill_layer_parallel_on(&rt, &qs, &ks, &vs, &bits);
            assert_eq!(serial_out, out, "{workers} workers diverged");
            for (h, serial) in serial_cache.iter().enumerate() {
                assert_eq!(
                    serialize_head_cache(serial),
                    serialize_head_cache(cache.head(h)),
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
        let (_, mut serial_cache) = serial_prefill(&engine, &qs, &ks, &vs, &bits);
        let step = heads(7, 4, 1, 8);
        let rows: Vec<&[f32]> = step.iter().map(|m| m.row(0)).collect();
        let serial: Vec<Vec<f32>> = serial_cache
            .iter_mut()
            .zip(&rows)
            .map(|(cache, row)| {
                cache.try_append(row, row).unwrap();
                turbo_attend_cache(row, cache, engine.sas())
            })
            .collect();

        let (_, mut par_cache) =
            engine.prefill_layer_parallel_on(turbo_runtime::global(), &qs, &ks, &vs, &bits);
        let parallel = engine.decode_layer_parallel_on(
            turbo_runtime::global(),
            &rows,
            &rows,
            &rows,
            &mut par_cache,
        );
        assert_eq!(serial, parallel);
        assert_eq!(serial_cache[0].len(), par_cache.len());

        for workers in WORKER_SWEEP {
            let rt = Runtime::with_workers(workers);
            let (_, mut cache) = engine.prefill_layer_parallel_on(&rt, &qs, &ks, &vs, &bits);
            let out = engine.decode_layer_parallel_on(&rt, &rows, &rows, &rows, &mut cache);
            assert_eq!(serial, out, "{workers} workers diverged");
            for (h, serial) in serial_cache.iter().enumerate() {
                assert_eq!(
                    serialize_head_cache(serial),
                    serialize_head_cache(cache.head(h)),
                    "{workers}-worker cache diverged at head {h}"
                );
            }
        }
    }

    #[test]
    fn pooled_prefill_head_matches_serial_across_worker_counts() {
        // One head, a ragged tail (70 = 2 * 32 + 6 rows): the row-block
        // tasks of the pooled sweep carry all of the parallelism.
        let engine = TurboAttention::new(TurboConfig {
            block_r: 32,
            block_c: 32,
            ..TurboConfig::default()
        });
        let qs = heads(11, 1, 70, 16);
        let ks = heads(12, 1, 70, 16);
        let vs = heads(13, 1, 70, 16);
        let bits = [BitWidth::Int4];
        let (serial_out, serial_cache) = serial_prefill(&engine, &qs, &ks, &vs, &bits);

        for workers in WORKER_SWEEP {
            let rt = Runtime::with_workers(workers);
            let (out, cache) = engine.prefill_layer_parallel_on(&rt, &qs, &ks, &vs, &bits);
            assert_eq!(serial_out, out, "{workers} workers diverged");
            assert_eq!(
                serialize_head_cache(&serial_cache[0]),
                serialize_head_cache(cache.head(0)),
                "{workers}-worker cache diverged"
            );
        }
    }
}

//! High-level TurboAttention engine.

use crate::prefill::turbo_prefill_head;
use crate::reference::Masking;
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_quant::BitWidth;
use turbo_softmax::{Poly3, Sas, PAPER_POLY, PAPER_THRESHOLD};
use turbo_tensor::Matrix;

/// Configuration of the TurboAttention engine.
///
/// Defaults follow section 5.2: `B_r = B_c = n_b = 64`, SAS threshold −6,
/// INT4 resident cache, causal masking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TurboConfig {
    /// Query tile height `B_r`.
    pub block_r: usize,
    /// Key/value tile height `B_c`.
    pub block_c: usize,
    /// Resident KV-cache precision for uniform-precision heads.
    pub kv_bits: BitWidth,
    /// Channel-group size of the second quantization stage.
    pub group_size: usize,
    /// Decode-buffer capacity `n_b`.
    pub buffer_capacity: usize,
    /// SAS sparsification threshold `n_r` (negative).
    pub sas_threshold: i32,
    /// SAS fractional-part polynomial.
    pub sas_poly: Poly3,
    /// Attention masking mode.
    pub masking: Masking,
}

impl Default for TurboConfig {
    fn default() -> Self {
        Self {
            block_r: 64,
            block_c: 64,
            kv_bits: BitWidth::Int4,
            group_size: 64,
            buffer_capacity: 64,
            sas_threshold: PAPER_THRESHOLD,
            sas_poly: PAPER_POLY,
            masking: Masking::Causal,
        }
    }
}

impl TurboConfig {
    pub(crate) fn cache_config(&self, bits: BitWidth) -> KvCacheConfig {
        KvCacheConfig {
            bits,
            group_size: self.group_size,
            buffer_capacity: self.buffer_capacity,
        }
    }
}

/// The TurboAttention engine: FlashQ quantized execution + SAS softmax,
/// per head or across a whole layer with head-wise mixed precision.
///
/// # Example
///
/// ```
/// use turbo_attention::{GqaLayout, TurboAttention, TurboConfig};
/// use turbo_tensor::TensorRng;
///
/// let mut rng = TensorRng::new(1);
/// let qs: Vec<_> = (0..4).map(|_| rng.normal(64, 16, 0.0, 1.0)).collect();
/// let ks: Vec<_> = (0..4).map(|_| rng.normal(64, 16, 0.0, 1.0)).collect();
/// let vs: Vec<_> = (0..4).map(|_| rng.normal(64, 16, 0.0, 1.0)).collect();
/// let engine = TurboAttention::new(TurboConfig::default());
/// // Multi-head attention is GQA with groups of one. Mixed precision:
/// // demote the 2 lowest-priority heads to INT2.
/// let rt = turbo_runtime::global();
/// let (outs, cache) = engine.prefill_layer_gqa_on(rt, GqaLayout::new(4, 4), &qs, &ks, &vs, 2);
/// assert_eq!(outs.len(), 4);
/// assert_eq!(cache.average_bits(), 3.0);
/// ```
#[derive(Clone, Debug)]
pub struct TurboAttention {
    config: TurboConfig,
    sas: Sas,
}

impl TurboAttention {
    /// Builds an engine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if block sizes, group size, or buffer capacity are zero, or
    /// the SAS threshold is non-negative.
    pub fn new(config: TurboConfig) -> Self {
        assert!(config.block_r > 0 && config.block_c > 0, "zero block size");
        assert!(config.group_size > 0, "zero group size");
        assert!(config.buffer_capacity > 0, "zero buffer capacity");
        let sas = Sas::new(config.sas_threshold, config.sas_poly);
        Self { config, sas }
    }

    /// The engine configuration.
    pub fn config(&self) -> &TurboConfig {
        &self.config
    }

    /// The SAS evaluator the engine uses.
    pub fn sas(&self) -> &Sas {
        &self.sas
    }

    /// Prefills one head, returning the attention output and the populated
    /// quantized cache (at the config's uniform `kv_bits`). Decode
    /// continues with [`HeadKvCache::try_append`] and
    /// [`crate::turbo_attend_cache`].
    pub fn prefill_head(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, HeadKvCache) {
        let mut cache = HeadKvCache::new(q.cols(), self.config.cache_config(self.config.kv_bits));
        let out = turbo_prefill_head(
            q,
            k,
            v,
            self.config.masking,
            &self.sas,
            self.config.block_r,
            self.config.block_c,
            &mut cache,
        );
        (out.output, cache)
    }
}

impl Default for TurboAttention {
    fn default() -> Self {
        Self::new(TurboConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gqa::GqaLayout;
    use crate::reference::naive_attention;
    use turbo_tensor::{relative_error, TensorRng};

    fn heads(seed: u64, h: usize, n: usize, d: usize) -> Vec<Matrix> {
        let mut rng = TensorRng::new(seed);
        (0..h).map(|_| rng.normal(n, d, 0.0, 1.0)).collect()
    }

    #[test]
    fn prefill_head_matches_reference() {
        let q = heads(70, 1, 64, 16).pop().unwrap();
        let k = heads(71, 1, 64, 16).pop().unwrap();
        let v = heads(72, 1, 64, 16).pop().unwrap();
        let engine = TurboAttention::default();
        let (out, cache) = engine.prefill_head(&q, &k, &v);
        assert_eq!(cache.len(), 64);
        let exact = naive_attention(&q, &k, &v, Masking::Causal);
        assert!(relative_error(&out, &exact) < 0.06);
    }

    #[test]
    fn layer_auto_selects_requested_number_of_two_bit_heads() {
        let qs = heads(73, 4, 64, 16);
        let mut rng = TensorRng::new(74);
        // Heads 0 and 2 get channel outliers -> high priority -> stay INT4.
        let ks = vec![
            rng.normal_with_channel_outliers(64, 16, 1.0, &[3], 20.0),
            rng.normal(64, 16, 0.0, 1.0),
            rng.normal_with_channel_outliers(64, 16, 1.0, &[7], 20.0),
            rng.normal(64, 16, 0.0, 1.0),
        ];
        let vs = heads(75, 4, 64, 16);
        let engine = TurboAttention::default();
        let layout = GqaLayout::new(4, 4);
        let (_, cache) =
            engine.prefill_layer_gqa_on(turbo_runtime::global(), layout, &qs, &ks, &vs, 2);
        assert_eq!(cache.head(0).config().bits, BitWidth::Int4);
        assert_eq!(cache.head(1).config().bits, BitWidth::Int2);
        assert_eq!(cache.head(2).config().bits, BitWidth::Int4);
        assert_eq!(cache.head(3).config().bits, BitWidth::Int2);
    }

    #[test]
    fn layer_prefill_outputs_match_per_head_prefill() {
        let qs = heads(76, 2, 32, 8);
        let ks = heads(77, 2, 32, 8);
        let vs = heads(78, 2, 32, 8);
        let engine = TurboAttention::default();
        let rt = turbo_runtime::global();
        let (outs, _) = engine.prefill_layer_parallel_on(rt, &qs, &ks, &vs, &[BitWidth::Int4; 2]);
        for i in 0..2 {
            let (single, _) = engine.prefill_head(&qs[i], &ks[i], &vs[i]);
            assert_eq!(outs[i], single);
        }
    }

    #[test]
    fn decode_layer_round_trip() {
        let engine = TurboAttention::new(TurboConfig {
            buffer_capacity: 4,
            ..TurboConfig::default()
        });
        let qs = heads(79, 2, 16, 8);
        let ks = heads(80, 2, 16, 8);
        let vs = heads(81, 2, 16, 8);
        let rt = turbo_runtime::global();
        let (_, mut cache) =
            engine.prefill_layer_parallel_on(rt, &qs, &ks, &vs, &[BitWidth::Int4; 2]);
        let mut rng = TensorRng::new(82);
        let step_q = rng.normal(2, 8, 0.0, 1.0);
        let outs = engine.decode_layer_parallel_on(
            rt,
            &[step_q.row(0), step_q.row(1)],
            &[step_q.row(0), step_q.row(1)],
            &[step_q.row(0), step_q.row(1)],
            &mut cache,
        );
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].len(), 8);
        assert_eq!(cache.len(), 17);
    }

    #[test]
    #[should_panic(expected = "zero block size")]
    fn invalid_config_panics() {
        TurboAttention::new(TurboConfig {
            block_r: 0,
            ..TurboConfig::default()
        });
    }
}

//! Layer-level cache: one [`HeadKvCache`] per KV head with head-wise
//! mixed precision (section 3.2).

use crate::head::{HeadKvCache, KvCacheConfig};
use crate::stats::MemoryStats;
use turbo_quant::BitWidth;

/// KV cache for all heads of one transformer layer, with per-head bit
/// widths chosen by the head-priority metric.
#[derive(Clone, Debug)]
pub struct LayerKvCache {
    heads: Vec<HeadKvCache>,
}

impl LayerKvCache {
    /// Creates a layer cache with an explicit bit width per head.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_head` is empty or any width is INT8.
    pub fn new(
        head_dim: usize,
        bits_per_head: &[BitWidth],
        group_size: usize,
        buffer_capacity: usize,
    ) -> Self {
        assert!(!bits_per_head.is_empty(), "at least one head required");
        let heads = bits_per_head
            .iter()
            .map(|&bits| {
                HeadKvCache::new(
                    head_dim,
                    KvCacheConfig {
                        bits,
                        group_size,
                        buffer_capacity,
                    },
                )
            })
            .collect();
        Self { heads }
    }

    /// Uniform precision across `n_heads`.
    pub fn uniform(
        n_heads: usize,
        head_dim: usize,
        bits: BitWidth,
        group_size: usize,
        buffer_capacity: usize,
    ) -> Self {
        Self::new(head_dim, &vec![bits; n_heads], group_size, buffer_capacity)
    }

    /// Number of heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Cached tokens (identical across heads).
    pub fn len(&self) -> usize {
        self.heads[0].len()
    }

    /// Whether no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable access to one head's cache.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn head(&self, h: usize) -> &HeadKvCache {
        &self.heads[h]
    }

    /// Mutable access to one head's cache.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn head_mut(&mut self, h: usize) -> &mut HeadKvCache {
        &mut self.heads[h]
    }

    /// Assembles a layer cache from pre-built per-head caches (all heads
    /// must share the head dimension and token count).
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty or dimensions/token counts disagree.
    pub fn from_heads(heads: Vec<HeadKvCache>) -> Self {
        assert!(!heads.is_empty(), "at least one head required");
        let d = heads[0].head_dim();
        let len = heads[0].len();
        for h in &heads {
            assert_eq!(h.head_dim(), d, "head dimension mismatch");
            assert_eq!(h.len(), len, "token count mismatch");
        }
        Self { heads }
    }

    /// Iterates over the per-head caches.
    pub fn iter(&self) -> impl Iterator<Item = &HeadKvCache> {
        self.heads.iter()
    }

    /// Mutable iteration over the per-head caches (e.g. for parallel
    /// per-head decode).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut HeadKvCache> {
        self.heads.iter_mut()
    }

    /// Aggregated memory stats across heads.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for h in &self.heads {
            total.accumulate(h.memory_stats());
        }
        total
    }

    /// Average code bits per cached element across heads, e.g. 3.0 when
    /// half the heads are INT2 and half INT4 (Table 2's "Bit" column).
    pub fn average_bits(&self) -> f64 {
        let sum: u32 = self.heads.iter().map(|h| h.config().bits.bits()).sum();
        sum as f64 / self.heads.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::TensorRng;

    #[test]
    fn mixed_precision_layer_averages_three_bits() {
        let bits = [
            BitWidth::Int2,
            BitWidth::Int4,
            BitWidth::Int2,
            BitWidth::Int4,
        ];
        let layer = LayerKvCache::new(8, &bits, 32, 16);
        assert_eq!(layer.average_bits(), 3.0);
        assert_eq!(layer.num_heads(), 4);
    }

    #[test]
    fn mixed_precision_memory_is_between_uniform_extremes() {
        let mut rng = TensorRng::new(41);
        let k = rng.normal(128, 16, 0.0, 1.0);
        let fill = |mut layer: LayerKvCache| {
            for head in layer.iter_mut() {
                for t in 0..128 {
                    head.try_append(k.row(t), k.row(t)).unwrap();
                }
                head.try_flush().unwrap();
            }
            layer.memory_stats().total_bytes()
        };
        let m2 = fill(LayerKvCache::uniform(2, 16, BitWidth::Int2, 64, 64));
        let m4 = fill(LayerKvCache::uniform(2, 16, BitWidth::Int4, 64, 64));
        let mixed = fill(LayerKvCache::new(
            16,
            &[BitWidth::Int2, BitWidth::Int4],
            64,
            64,
        ));
        assert!(m2 < mixed && mixed < m4, "{m2} < {mixed} < {m4}");
    }
}

//! Per-head quantized KV cache.

use std::sync::Arc;

use crate::buffer::Int8Buffer;
use crate::dequant_cache::{DequantCacheStats, DequantTile, TileCacheCell, DEFAULT_TILE_CACHE_BUDGET};
use crate::error::CacheError;
use crate::stats::MemoryStats;
use turbo_quant::{BitWidth, ProgressiveBlock, SymQuantized};
use turbo_robust::HealthStats;
use turbo_tensor::Matrix;

/// Configuration of one head's KV cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvCacheConfig {
    /// Resident-cache precision (INT4 or INT2, per head-wise mixed
    /// precision; INT8 is rejected).
    pub bits: BitWidth,
    /// Token-group size of the channel-wise second quantization stage.
    pub group_size: usize,
    /// Decode-buffer capacity `n_b` (the paper uses 64).
    pub buffer_capacity: usize,
}

impl Default for KvCacheConfig {
    /// The paper's defaults: INT4, group 64, `n_b = 64`.
    fn default() -> Self {
        Self {
            bits: BitWidth::Int4,
            group_size: 64,
            buffer_capacity: 64,
        }
    }
}

/// The quantized K/V cache of a single attention head.
///
/// Holds a sequence of flushed [`ProgressiveBlock`]s plus the open INT8
/// decode buffers for keys and values. Tokens are globally ordered: all
/// resident blocks (in insertion order) precede the buffered tokens.
#[derive(Clone, Debug)]
pub struct HeadKvCache {
    d: usize,
    config: KvCacheConfig,
    k_blocks: Vec<ProgressiveBlock>,
    v_blocks: Vec<ProgressiveBlock>,
    k_buf: Int8Buffer,
    v_buf: Int8Buffer,
    resident_tokens: usize,
    /// Monotonic counter bumped whenever resident-block indices shift
    /// (middle eviction). Part of the tile-cache key, so a stale
    /// [`DequantTile`] can never be served. Pushing a block (flush,
    /// prefill append) keeps it: every earlier index still names the
    /// same immutable block.
    generation: u64,
    tile_cache: TileCacheCell,
}

/// Ceiling on the rows pre-reserved in the open buffers at construction.
/// Real decode configs sit far below this; callers that use an enormous
/// `buffer_capacity` as a "never flush" sentinel (e.g. an INT8-resident
/// fallback rung) still get a bounded reservation and grow on demand.
const MAX_EAGER_RESERVE_ROWS: usize = 4096;

fn eager_reserve_rows(config: &KvCacheConfig) -> usize {
    config.buffer_capacity.min(MAX_EAGER_RESERVE_ROWS)
}

impl HeadKvCache {
    /// Creates an empty cache for a head of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, `buffer_capacity == 0`, `group_size == 0`, or
    /// `bits` is INT8.
    pub fn new(d: usize, config: KvCacheConfig) -> Self {
        assert!(d > 0, "head dimension must be positive");
        assert!(
            config.buffer_capacity > 0,
            "buffer capacity must be positive"
        );
        assert!(config.group_size > 0, "group size must be positive");
        assert!(
            config.bits != BitWidth::Int8,
            "resident cache must be INT4 or INT2"
        );
        let mut k_buf = Int8Buffer::new(d);
        let mut v_buf = Int8Buffer::new(d);
        // A flush fires the moment the buffer reaches capacity, so the
        // buffers never hold more rows than that — reserving once here
        // makes every steady-state decode append allocation-free. Capped
        // so sentinel "never flush" capacities don't demand the universe.
        k_buf.reserve_rows(eager_reserve_rows(&config));
        v_buf.reserve_rows(eager_reserve_rows(&config));
        Self {
            d,
            config,
            k_blocks: Vec::new(),
            v_blocks: Vec::new(),
            k_buf,
            v_buf,
            resident_tokens: 0,
            generation: 0,
            tile_cache: TileCacheCell::new(DEFAULT_TILE_CACHE_BUDGET),
        }
    }

    /// Reassembles a cache from raw parts (deserialization path).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or token counts.
    pub(crate) fn from_parts(
        d: usize,
        config: KvCacheConfig,
        k_blocks: Vec<ProgressiveBlock>,
        v_blocks: Vec<ProgressiveBlock>,
        mut k_buf: Int8Buffer,
        mut v_buf: Int8Buffer,
    ) -> Self {
        assert_eq!(k_blocks.len(), v_blocks.len(), "K/V block count mismatch");
        let mut resident_tokens = 0usize;
        for (kb, vb) in k_blocks.iter().zip(&v_blocks) {
            assert_eq!(kb.cols(), d, "K block channel mismatch");
            assert_eq!(vb.cols(), d, "V block channel mismatch");
            assert_eq!(kb.rows(), vb.rows(), "K/V block row mismatch");
            resident_tokens += kb.rows();
        }
        assert_eq!(k_buf.len(), v_buf.len(), "K/V buffer length mismatch");
        assert_eq!(k_buf.channels(), d, "buffer channel mismatch");
        k_buf.reserve_rows(eager_reserve_rows(&config));
        v_buf.reserve_rows(eager_reserve_rows(&config));
        // Recovery (WAL replay, deserialization) starts with a cold tile
        // cache: the rebuilt blocks get a fresh generation-0 identity, so
        // nothing from a previous life of the cache can be served.
        Self {
            d,
            config,
            k_blocks,
            v_blocks,
            k_buf,
            v_buf,
            resident_tokens,
            generation: 0,
            tile_cache: TileCacheCell::new(DEFAULT_TILE_CACHE_BUDGET),
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.d
    }

    /// The cache configuration.
    pub fn config(&self) -> KvCacheConfig {
        self.config
    }

    /// Total cached tokens (resident + buffered).
    pub fn len(&self) -> usize {
        self.resident_tokens + self.k_buf.len()
    }

    /// Whether the cache holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokens currently in the open decode buffer.
    pub fn buffer_len(&self) -> usize {
        self.k_buf.len()
    }

    /// Flushed key blocks, oldest first.
    pub fn resident_blocks(&self) -> &[ProgressiveBlock] {
        &self.k_blocks
    }

    /// Flushed value blocks, oldest first.
    pub fn resident_value_blocks(&self) -> &[ProgressiveBlock] {
        &self.v_blocks
    }

    /// The open key buffer.
    pub fn key_buffer(&self) -> &Int8Buffer {
        &self.k_buf
    }

    /// The open value buffer.
    pub fn value_buffer(&self) -> &Int8Buffer {
        &self.v_buf
    }

    /// Appends one decoded token's key/value vectors, flushing the buffer
    /// into a progressive block when it reaches capacity.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are not `head_dim` long or contain non-finite
    /// values. [`HeadKvCache::try_append`] is the non-panicking equivalent.
    pub fn append(&mut self, k: &[f32], v: &[f32]) {
        if let Err(e) = self.try_append(k, v) {
            panic!("{e}");
        }
    }

    /// Non-panicking [`HeadKvCache::append`].
    ///
    /// # Errors
    ///
    /// Validation errors ([`CacheError::WidthMismatch`],
    /// [`CacheError::NonFinite`]) are returned *before* any mutation — the
    /// token is not cached. [`CacheError::ScaleOverflow`] means the token
    /// **was** buffered but the capacity-triggered flush could not compress
    /// the buffer; the tokens stay in the INT8 buffer, so a caller can
    /// promote the cache to a higher precision without losing them.
    pub fn try_append(&mut self, k: &[f32], v: &[f32]) -> Result<(), CacheError> {
        // Validate V up front so a bad V row cannot leave K one row ahead.
        if v.len() != self.d {
            return Err(CacheError::WidthMismatch {
                expected: self.d,
                got: v.len(),
            });
        }
        if let Some(channel) = v.iter().position(|x| !x.is_finite()) {
            return Err(CacheError::NonFinite { channel });
        }
        self.k_buf.try_append(k)?;
        self.v_buf
            .try_append(v)
            .expect("V row validated before K was appended");
        if self.k_buf.len() >= self.config.buffer_capacity {
            self.try_flush()?;
        }
        Ok(())
    }

    /// Prefill path: quantizes whole `B_c`-sized K/V tiles directly into
    /// resident blocks (Algorithm 1 writes `K^{q2}`/`V^{q2}` per block).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or the buffer is non-empty (prefill must
    /// precede decode).
    pub fn append_prefill_block(&mut self, k: &Matrix, v: &Matrix) {
        assert_eq!(k.shape(), v.shape(), "K/V shape mismatch");
        assert_eq!(k.cols(), self.d, "channel mismatch");
        assert!(
            self.k_buf.is_empty(),
            "prefill blocks must be appended before decoding starts"
        );
        if k.rows() == 0 {
            return;
        }
        self.k_blocks.push(ProgressiveBlock::quantize(
            k,
            self.config.bits,
            self.config.group_size,
        ));
        self.v_blocks.push(ProgressiveBlock::quantize(
            v,
            self.config.bits,
            self.config.group_size,
        ));
        self.resident_tokens += k.rows();
    }

    /// Forces the open buffer to compress into resident blocks even if it
    /// is not full. No-op on an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's universal scale cannot be represented at the
    /// resident precision. [`HeadKvCache::try_flush`] is the non-panicking
    /// equivalent.
    pub fn flush(&mut self) {
        if let Err(e) = self.try_flush() {
            panic!("{e}");
        }
    }

    /// Non-panicking [`HeadKvCache::flush`]. On error the buffer is left
    /// intact (nothing is compressed, nothing is lost).
    ///
    /// # Errors
    ///
    /// [`CacheError::ScaleOverflow`] if the second quantization stage
    /// cannot represent the buffer's scale.
    pub fn try_flush(&mut self) -> Result<(), CacheError> {
        if self.k_buf.is_empty() {
            return Ok(());
        }
        let k8: SymQuantized = self.k_buf.as_sym_quantized();
        let v8: SymQuantized = self.v_buf.as_sym_quantized();
        let kb =
            ProgressiveBlock::try_quantize_from_int8(&k8, self.config.bits, self.config.group_size)?;
        let vb =
            ProgressiveBlock::try_quantize_from_int8(&v8, self.config.bits, self.config.group_size)?;
        self.k_blocks.push(kb);
        self.v_blocks.push(vb);
        self.resident_tokens += self.k_buf.len();
        self.k_buf.clear();
        self.v_buf.clear();
        Ok(())
    }

    /// StreamingLLM-style eviction: keeps the first `sink_blocks` resident
    /// blocks (the attention sinks) and as many of the most recent blocks
    /// as fit within `max_tokens` (counting buffered tokens), dropping the
    /// middle. Returns the number of evicted tokens.
    ///
    /// Eviction changes attention results (dropped tokens can no longer be
    /// attended) — it is the standard long-context memory-bound trade-off,
    /// composable with quantization because blocks are self-contained.
    ///
    /// # Panics
    ///
    /// Panics if `max_tokens` cannot even hold the sinks plus the open
    /// buffer.
    pub fn evict_middle(&mut self, max_tokens: usize, sink_blocks: usize) -> usize {
        if self.len() <= max_tokens {
            return 0;
        }
        let sink_blocks = sink_blocks.min(self.k_blocks.len());
        let sink_tokens: usize = self.k_blocks[..sink_blocks]
            .iter()
            .map(ProgressiveBlock::rows)
            .sum();
        let fixed = sink_tokens + self.k_buf.len();
        assert!(
            fixed <= max_tokens,
            "budget {max_tokens} cannot hold {sink_tokens} sink tokens + {} buffered",
            self.k_buf.len()
        );
        // Keep the most recent blocks that fit in the remaining budget.
        let mut budget = max_tokens - fixed;
        let mut keep_from = self.k_blocks.len();
        while keep_from > sink_blocks {
            let rows = self.k_blocks[keep_from - 1].rows();
            if rows > budget {
                break;
            }
            budget -= rows;
            keep_from -= 1;
        }
        let evicted: usize = self.k_blocks[sink_blocks..keep_from]
            .iter()
            .map(ProgressiveBlock::rows)
            .sum();
        self.k_blocks.drain(sink_blocks..keep_from);
        self.v_blocks.drain(sink_blocks..keep_from);
        self.resident_tokens -= evicted;
        if evicted > 0 {
            // Block indices shift after the drain, so every cached tile
            // keyed by the old indices must die with the old generation.
            self.bump_generation();
        }
        evicted
    }

    /// Invalidates the tile cache after resident-block indices shift.
    fn bump_generation(&mut self) {
        self.generation += 1;
        let generation = self.generation;
        self.tile_cache.with(|c| c.purge_generations_below(generation));
    }

    /// The current resident-block generation. Only
    /// [`HeadKvCache::evict_middle`] bumps it, because only eviction
    /// shifts block indices; a flush or prefill append pushes a new block
    /// and leaves every cached tile valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The memoized INT8 expansion of resident block `b`, building and
    /// caching it on a miss.
    ///
    /// Output is bit-identical to calling `dequantize_to_int8()` on the
    /// K/V blocks directly (plus the V transpose): the tile is a pure
    /// function of the block contents, blocks are immutable once pushed,
    /// and the generation key changes whenever an index could name a
    /// different block, so a cached tile was built from exactly block
    /// `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn resident_tile(&self, b: usize) -> Arc<DequantTile> {
        let generation = self.generation;
        if let Some(tile) = self.tile_cache.with(|c| c.get(b, generation)) {
            return tile;
        }
        // Build outside the lock: expansion is the expensive part and a
        // racing builder producing the same (bit-identical) tile is
        // harmless — last insert wins.
        let tile = Arc::new(DequantTile::from_blocks(
            &self.k_blocks[b],
            &self.v_blocks[b],
        ));
        let clone = Arc::clone(&tile);
        self.tile_cache.with(move |c| c.insert(b, generation, clone));
        tile
    }

    /// Sets the tile-cache byte budget (0 disables caching).
    pub fn set_tile_cache_budget(&self, bytes: usize) {
        self.tile_cache.with(|c| c.set_budget(bytes));
    }

    /// Wires a shared health registry into the tile cache so hit/miss/
    /// evict events are observable live.
    pub fn set_tile_cache_health(&self, health: Option<Arc<HealthStats>>) {
        self.tile_cache.with(move |c| c.set_health(health));
    }

    /// Tile-cache counter snapshot.
    pub fn tile_cache_stats(&self) -> DequantCacheStats {
        self.tile_cache.with(|c| c.stats())
    }

    /// Reconstructs the full `(K, V)` tensors in f32 — test/debug path.
    pub fn dequantize_all(&self) -> (Matrix, Matrix) {
        let mut ks: Vec<Matrix> = self.k_blocks.iter().map(|b| b.dequantize()).collect();
        let mut vs: Vec<Matrix> = self.v_blocks.iter().map(|b| b.dequantize()).collect();
        if !self.k_buf.is_empty() {
            ks.push(self.k_buf.dequantize());
            vs.push(self.v_buf.dequantize());
        }
        if ks.is_empty() {
            return (Matrix::zeros(0, self.d), Matrix::zeros(0, self.d));
        }
        (Matrix::vstack(&ks), Matrix::vstack(&vs))
    }

    /// Memory accounting for this head.
    pub fn memory_stats(&self) -> MemoryStats {
        let resident: usize = self
            .k_blocks
            .iter()
            .chain(&self.v_blocks)
            .map(|b| b.storage_bytes())
            .sum();
        MemoryStats {
            resident_bytes: resident,
            buffer_bytes: self.k_buf.storage_bytes() + self.v_buf.storage_bytes(),
            fp16_bytes: 2 * 2 * self.len() * self.d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::TensorRng;

    fn cfg(bits: BitWidth, nb: usize) -> KvCacheConfig {
        KvCacheConfig {
            bits,
            group_size: 32,
            buffer_capacity: nb,
        }
    }

    #[test]
    fn decode_appends_flush_at_capacity() {
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        for t in 0..20 {
            let row = [t as f32 * 0.1; 4];
            c.append(&row, &row);
        }
        assert_eq!(c.len(), 20);
        assert_eq!(c.resident_blocks().len(), 2); // two flushes of 8
        assert_eq!(c.buffer_len(), 4);
    }

    #[test]
    fn prefill_then_decode_order_is_preserved() {
        let mut rng = TensorRng::new(31);
        let mut c = HeadKvCache::new(8, cfg(BitWidth::Int4, 16));
        let k0 = rng.normal(32, 8, 0.0, 1.0);
        let v0 = rng.normal(32, 8, 0.0, 1.0);
        c.append_prefill_block(&k0, &v0);
        let k1 = rng.normal(1, 8, 0.0, 1.0);
        c.append(k1.row(0), k1.row(0));
        let (k, _v) = c.dequantize_all();
        assert_eq!(k.rows(), 33);
        // Prefill tokens come first.
        assert!((k.get(0, 0) - k0.get(0, 0)).abs() < 0.2);
        assert!((k.get(32, 0) - k1.get(0, 0)).abs() < 0.2);
    }

    #[test]
    fn flush_mid_buffer_compacts_everything() {
        let mut c = HeadKvCache::new(2, cfg(BitWidth::Int4, 64));
        c.append(&[1.0, 2.0], &[3.0, 4.0]);
        c.append(&[1.1, 2.1], &[3.1, 4.1]);
        assert_eq!(c.buffer_len(), 2);
        c.flush();
        assert_eq!(c.buffer_len(), 0);
        assert_eq!(c.resident_blocks().len(), 1);
        assert_eq!(c.len(), 2);
        c.flush(); // idempotent on empty buffer
        assert_eq!(c.resident_blocks().len(), 1);
    }

    #[test]
    fn round_trip_accuracy_int4() {
        let mut rng = TensorRng::new(32);
        let mut c = HeadKvCache::new(16, cfg(BitWidth::Int4, 32));
        let k = rng.normal(96, 16, 0.0, 1.0);
        let v = rng.normal(96, 16, 0.0, 1.0);
        for t in 0..96 {
            c.append(k.row(t), v.row(t));
        }
        let (kq, vq) = c.dequantize_all();
        assert!(turbo_tensor::relative_error(&kq, &k) < 0.15);
        assert!(turbo_tensor::relative_error(&vq, &v) < 0.15);
    }

    #[test]
    fn int2_compresses_harder_with_more_error() {
        let mut rng = TensorRng::new(33);
        let k = rng.normal(64, 16, 0.0, 1.0);
        let build = |bits| {
            let mut c = HeadKvCache::new(16, cfg(bits, 64));
            for t in 0..64 {
                c.append(k.row(t), k.row(t));
            }
            c.flush();
            c
        };
        let c4 = build(BitWidth::Int4);
        let c2 = build(BitWidth::Int2);
        let s4 = c4.memory_stats();
        let s2 = c2.memory_stats();
        assert!(s2.total_bytes() < s4.total_bytes());
        let e4 = turbo_tensor::mse(&c4.dequantize_all().0, &k);
        let e2 = turbo_tensor::mse(&c2.dequantize_all().0, &k);
        assert!(e4 < e2);
    }

    #[test]
    fn compression_ratio_exceeds_4x_for_int4() {
        let mut rng = TensorRng::new(34);
        let mut c = HeadKvCache::new(64, cfg(BitWidth::Int4, 64));
        let k = rng.normal(512, 64, 0.0, 1.0);
        for t in 0..512 {
            c.append(k.row(t), k.row(t));
        }
        c.flush();
        let stats = c.memory_stats();
        assert!(
            stats.compression_ratio() > 3.4,
            "ratio {}",
            stats.compression_ratio()
        );
    }

    #[test]
    fn empty_cache_behaviour() {
        let c = HeadKvCache::new(4, KvCacheConfig::default());
        assert!(c.is_empty());
        let (k, v) = c.dequantize_all();
        assert_eq!(k.shape(), (0, 4));
        assert_eq!(v.shape(), (0, 4));
        assert_eq!(c.memory_stats().resident_bytes, 0);
    }

    #[test]
    fn evict_middle_keeps_sinks_and_recency() {
        let mut rng = TensorRng::new(77);
        let data = rng.normal(80, 4, 0.0, 1.0);
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        for t in 0..80 {
            c.append(data.row(t), data.row(t));
        }
        // 10 resident blocks of 8. Keep 1 sink block + recency in 40 tokens.
        let evicted = c.evict_middle(40, 1);
        assert_eq!(c.len(), 80 - evicted);
        assert!(c.len() <= 40);
        let (k, _) = c.dequantize_all();
        // Sinks: first 8 tokens still match the original prefix.
        for t in 0..8 {
            assert!((k.get(t, 0) - data.get(t, 0)).abs() < 0.2, "sink token {t}");
        }
        // Recency: last 8 tokens still match the original suffix.
        for t in 0..8 {
            let orig = data.get(72 + t, 0);
            let kept = k.get(k.rows() - 8 + t, 0);
            assert!((kept - orig).abs() < 0.2, "recent token {t}");
        }
        // No-op when already under budget.
        assert_eq!(c.evict_middle(1000, 1), 0);
    }

    #[test]
    fn evicted_cache_continues_serving() {
        let mut rng = TensorRng::new(78);
        let data = rng.normal(64, 4, 0.0, 1.0);
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        for t in 0..64 {
            c.append(data.row(t), data.row(t));
        }
        c.evict_middle(24, 1);
        // Appending and flushing still works after eviction.
        for t in 0..16 {
            c.append(data.row(t), data.row(t));
        }
        let (k, v) = c.dequantize_all();
        assert_eq!(k.rows(), c.len());
        assert_eq!(v.rows(), c.len());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn impossible_eviction_budget_panics() {
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        for t in 0..32 {
            let row = [t as f32; 4];
            c.append(&row, &row);
        }
        c.evict_middle(4, 2); // 2 sink blocks = 16 tokens > 4 budget
    }

    #[test]
    #[should_panic(expected = "INT4 or INT2")]
    fn int8_resident_rejected() {
        HeadKvCache::new(4, cfg(BitWidth::Int8, 8));
    }

    #[test]
    fn try_append_validates_both_rows_before_mutating() {
        let mut c = HeadKvCache::new(2, cfg(BitWidth::Int4, 8));
        // Bad V must not leave K one row ahead.
        assert_eq!(
            c.try_append(&[1.0, 2.0], &[f32::NAN, 0.0]),
            Err(CacheError::NonFinite { channel: 0 })
        );
        assert_eq!(
            c.try_append(&[1.0, 2.0], &[1.0]),
            Err(CacheError::WidthMismatch { expected: 2, got: 1 })
        );
        assert_eq!(
            c.try_append(&[f32::INFINITY, 0.0], &[1.0, 2.0]),
            Err(CacheError::NonFinite { channel: 0 })
        );
        assert!(c.is_empty());
        assert_eq!(c.try_append(&[1.0, 2.0], &[3.0, 4.0]), Ok(()));
        assert_eq!(c.len(), 1);
        assert_eq!(c.key_buffer().len(), c.value_buffer().len());
    }

    #[test]
    fn try_flush_on_empty_buffer_is_ok() {
        let mut c = HeadKvCache::new(2, cfg(BitWidth::Int4, 8));
        assert_eq!(c.try_flush(), Ok(()));
        c.try_append(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
        assert_eq!(c.try_flush(), Ok(()));
        assert_eq!(c.resident_blocks().len(), 1);
        assert_eq!(c.buffer_len(), 0);
    }

    #[test]
    fn resident_tile_matches_fresh_dequant_and_hits_on_reuse() {
        let mut rng = TensorRng::new(41);
        let mut c = HeadKvCache::new(8, cfg(BitWidth::Int4, 8));
        let data = rng.normal(16, 8, 0.0, 1.0);
        for t in 0..16 {
            c.append(data.row(t), data.row(t));
        }
        assert_eq!(c.resident_blocks().len(), 2);
        let tile = c.resident_tile(1);
        let k8 = c.resident_blocks()[1].dequantize_to_int8();
        assert_eq!(tile.k_codes(), k8.codes());
        assert_eq!(tile.k_scale(), k8.scale());
        let again = c.resident_tile(1);
        assert!(std::sync::Arc::ptr_eq(&tile, &again), "second lookup must hit");
        let s = c.tile_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn tiles_survive_pushes_and_die_on_eviction() {
        let mut rng = TensorRng::new(42);
        let data = rng.normal(64, 4, 0.0, 1.0);
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        c.append_prefill_block(&data.row_block(0, 8), &data.row_block(0, 8));
        let g0 = c.generation();
        let tile = c.resident_tile(0);
        // Further flushes push blocks without touching earlier indices.
        for t in 8..40 {
            c.append(data.row(t), data.row(t));
        }
        assert_eq!(c.resident_blocks().len(), 5);
        assert_eq!(c.generation(), g0, "a flush must not bump");
        let again = c.resident_tile(0);
        assert!(Arc::ptr_eq(&tile, &again), "block 0's tile must survive flushes");
        assert_eq!(again.k_codes(), c.resident_blocks()[0].dequantize_to_int8().codes());

        // So does a prefill block append (on a fresh cache: prefill
        // precedes decode).
        let mut p = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        p.append_prefill_block(&data.row_block(0, 8), &data.row_block(0, 8));
        let first = p.resident_tile(0);
        p.append_prefill_block(&data.row_block(8, 8), &data.row_block(8, 8));
        assert_eq!(p.generation(), 0, "a prefill append must not bump");
        let kept = p.resident_tile(0);
        assert!(Arc::ptr_eq(&first, &kept), "tile must survive a prefill append");
        assert_eq!(kept.k_codes(), p.resident_blocks()[0].dequantize_to_int8().codes());
        let v8 = p.resident_value_blocks()[0].dequantize_to_int8();
        assert_eq!(kept.v_scale(), v8.scale());

        // Eviction shifts indices: it bumps and empties the tile cache.
        for b in 0..c.resident_blocks().len() {
            c.resident_tile(b);
        }
        assert_eq!(c.tile_cache_stats().entries, 5);
        c.evict_middle(24, 1);
        assert!(c.generation() > g0, "eviction must bump");
        assert_eq!(c.tile_cache_stats().entries, 0);
        // Tiles for the post-eviction layout still serve correctly.
        let tile = c.resident_tile(1);
        assert_eq!(tile.k_codes(), c.resident_blocks()[1].dequantize_to_int8().codes());
    }

    #[test]
    fn zero_budget_tile_cache_still_serves_tiles() {
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 4));
        c.set_tile_cache_budget(0);
        for t in 0..4 {
            let row = [t as f32; 4];
            c.append(&row, &row);
        }
        let a = c.resident_tile(0);
        let b = c.resident_tile(0);
        assert_eq!(a.k_codes(), b.k_codes());
        assert_eq!(c.tile_cache_stats().hits, 0);
        assert_eq!(c.tile_cache_stats().misses, 2);
    }

    #[test]
    #[should_panic(expected = "before decoding")]
    fn prefill_after_decode_rejected() {
        let mut c = HeadKvCache::new(2, cfg(BitWidth::Int4, 8));
        c.append(&[1.0, 1.0], &[1.0, 1.0]);
        c.append_prefill_block(&Matrix::zeros(4, 2), &Matrix::zeros(4, 2));
    }
}

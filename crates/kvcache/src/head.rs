//! Per-head quantized KV cache.

use std::sync::Arc;

use crate::buffer::Int8Buffer;
use crate::dequant_cache::{DequantCacheStats, DequantTile, TileCacheCell, DEFAULT_TILE_CACHE_BUDGET};
use crate::error::CacheError;
use crate::stats::MemoryStats;
use turbo_quant::{BitWidth, ProgressiveBlock, QuantError, SymQuantized};
use turbo_robust::HealthStats;
use turbo_tensor::{Matrix, PackedB};

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
    /// The open key buffer as the score GEMM's packed operand, one column
    /// per buffered token. Like the tile cache, derived working state:
    /// rebuilt from the buffer, never serialized, not in
    /// [`MemoryStats`].
    k_view: PackedB,
    /// The open value buffer as the `P·V` GEMM's packed operand, one
    /// reduction index per buffered token.
    v_view: PackedB,
}

/// Ceiling on the rows pre-reserved in the open buffers at construction.
/// Real decode configs sit far below this; callers that use an enormous
/// `buffer_capacity` as a "never flush" sentinel (e.g. an INT8-resident
/// fallback rung) still get a bounded reservation and grow on demand.
const MAX_EAGER_RESERVE_ROWS: usize = 4096;

fn eager_reserve_rows(config: &KvCacheConfig) -> usize {
    config.buffer_capacity.min(MAX_EAGER_RESERVE_ROWS)
}

/// The packed views of empty open buffers of width `d`: keys with no
/// columns yet, values with no reduction indices yet.
fn empty_views(d: usize) -> (PackedB, PackedB) {
    let mut k_view = PackedB::new();
    k_view.reset(0, d);
    let mut v_view = PackedB::new();
    v_view.reset(d, 0);
    (k_view, v_view)
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
        let (mut k_view, mut v_view) = empty_views(d);
        k_view.reserve_columns(eager_reserve_rows(&config));
        v_view.reserve_reduction(eager_reserve_rows(&config));
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
            k_view,
            v_view,
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
        k_buf: Int8Buffer,
        v_buf: Int8Buffer,
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
        // No eager reservation here: `d` and `buffer_capacity` may come
        // from storage, so recovered buffers grow on demand instead.
        // Recovery (WAL replay, deserialization) starts with a cold tile
        // cache: the rebuilt blocks get a fresh generation-0 identity, so
        // nothing from a previous life of the cache can be served.
        let (mut k_view, mut v_view) = empty_views(d);
        for (k, v) in k_buf
            .codes()
            .chunks_exact(d)
            .zip(v_buf.codes().chunks_exact(d))
        {
            k_view.push_column(k);
            v_view.push_reduction(v);
        }
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
            k_view,
            v_view,
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

    /// The open key buffer's codes as the packed operand of the score
    /// GEMM `q · Kᵀ`: one column per buffered token. It grows by one
    /// column per append and empties at a flush.
    pub fn key_view(&self) -> &PackedB {
        &self.k_view
    }

    /// The open value buffer's codes as the packed operand of the `P · V`
    /// GEMM: one column per channel, one reduction index per buffered
    /// token. It grows by one reduction index per append and empties at
    /// a flush.
    pub fn value_view(&self) -> &PackedB {
        &self.v_view
    }

    /// Appends one decoded token's key/value vectors, flushing the buffer
    /// into a progressive block when it reaches capacity.
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
        self.k_view.push_column(self.k_buf.last_row());
        self.v_view.push_reduction(self.v_buf.last_row());
        if self.k_buf.len() >= self.config.buffer_capacity {
            self.try_flush()?;
        }
        Ok(())
    }

    /// Prefill path: compresses the stage-1 INT8 K/V tiles the prefill
    /// sweep already made into resident blocks, in order (Algorithm 1
    /// writes `K^{q2}`/`V^{q2}` per `B_c` block), so each tile is
    /// quantized to INT8 once. Given `SymQuantized::quantize(tile)`, each
    /// block is bit-identical to [`ProgressiveBlock::quantize`] of the f32
    /// tile. Empty tiles add nothing.
    ///
    /// The same pass hands each block's decode tile to the tile cache
    /// (`DequantTile::from_int8` of the expansion
    /// [`ProgressiveBlock::quantize_and_expand_from_int8`] computes from
    /// the codes in hand), bit-identical to the one
    /// [`HeadKvCache::resident_tile`] would build on a miss, so the first
    /// decode step after a prefill rebuilds nothing. With a tile-cache
    /// budget of 0 no tile is built. The tiles are packed after all the
    /// blocks, so the decode working set sits together in memory instead
    /// of between the blocks: interleaved, the steady decode step of the
    /// `prefill_burst` shape measured a few percent slower.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or the buffer is non-empty (prefill must
    /// precede decode).
    pub fn append_prefill_blocks<'a>(
        &mut self,
        tiles: impl IntoIterator<Item = (&'a SymQuantized, &'a SymQuantized)>,
    ) {
        assert!(
            self.k_buf.is_empty(),
            "prefill blocks must be appended before decoding starts"
        );
        let (bits, group_size) = (self.config.bits, self.config.group_size);
        let warm = self.tile_cache.with(|c| c.stats().budget_bytes) > 0;
        let first = self.k_blocks.len();
        let mut expanded = Vec::new();
        for (k8, v8) in tiles {
            assert_eq!(
                (k8.rows(), k8.cols()),
                (v8.rows(), v8.cols()),
                "K/V shape mismatch"
            );
            assert_eq!(k8.cols(), self.d, "channel mismatch");
            if k8.rows() == 0 {
                continue;
            }
            if warm {
                let (kb, k_exp) =
                    ProgressiveBlock::quantize_and_expand_from_int8(k8, bits, group_size);
                let (vb, v_exp) =
                    ProgressiveBlock::quantize_and_expand_from_int8(v8, bits, group_size);
                self.k_blocks.push(kb);
                self.v_blocks.push(vb);
                expanded.push((k_exp, v_exp));
            } else {
                self.k_blocks
                    .push(ProgressiveBlock::quantize_from_int8(k8, bits, group_size));
                self.v_blocks
                    .push(ProgressiveBlock::quantize_from_int8(v8, bits, group_size));
            }
            self.resident_tokens += k8.rows();
        }
        // Every expansion stays alive until the last tile is packed, so no
        // tile lands in a freed expansion's slot between two blocks.
        let generation = self.generation;
        for (b, (k, v)) in (first..).zip(&expanded) {
            let tile = Arc::new(DequantTile::from_int8(k, v));
            self.tile_cache.with(move |c| c.insert(b, generation, tile));
        }
    }

    /// Forces the open buffer to compress into resident blocks even if it
    /// is not full. No-op on an empty buffer. On error the buffer is left
    /// intact (nothing is compressed, nothing is lost).
    ///
    /// # Errors
    ///
    /// [`CacheError::ScaleOverflow`] if the second quantization stage
    /// cannot represent the buffer's scale.
    pub fn try_flush(&mut self) -> Result<(), CacheError> {
        Ok(self.flush_buffer()?)
    }

    /// [`HeadKvCache::try_flush`] with its one failure in the type: only
    /// the second stage's scale check can refuse a buffer, so callers that
    /// must tell every outcome apart (WAL replay) match exhaustively.
    pub(crate) fn flush_buffer(&mut self) -> Result<(), QuantError> {
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
        self.k_view.reset(0, self.d);
        self.v_view.clear_reduction();
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
    /// caching it on a miss. Prefill blocks arrive cached
    /// ([`HeadKvCache::append_prefill_blocks`]); flushed, recovered and
    /// post-eviction blocks are built here on their first lookup.
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
            c.try_append(&row, &row).unwrap();
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
        let (k8, v8) = (SymQuantized::quantize(&k0), SymQuantized::quantize(&v0));
        c.append_prefill_blocks([(&k8, &v8)]);
        let k1 = rng.normal(1, 8, 0.0, 1.0);
        c.try_append(k1.row(0), k1.row(0)).unwrap();
        let (k, _v) = c.dequantize_all();
        assert_eq!(k.rows(), 33);
        // Prefill tokens come first.
        assert!((k.get(0, 0) - k0.get(0, 0)).abs() < 0.2);
        assert!((k.get(32, 0) - k1.get(0, 0)).abs() < 0.2);
    }

    #[test]
    fn flush_mid_buffer_compacts_everything() {
        let mut c = HeadKvCache::new(2, cfg(BitWidth::Int4, 64));
        c.try_append(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
        c.try_append(&[1.1, 2.1], &[3.1, 4.1]).unwrap();
        assert_eq!(c.buffer_len(), 2);
        c.try_flush().unwrap();
        assert_eq!(c.buffer_len(), 0);
        assert_eq!(c.resident_blocks().len(), 1);
        assert_eq!(c.len(), 2);
        c.try_flush().unwrap(); // idempotent on empty buffer
        assert_eq!(c.resident_blocks().len(), 1);
    }

    #[test]
    fn round_trip_accuracy_int4() {
        let mut rng = TensorRng::new(32);
        let mut c = HeadKvCache::new(16, cfg(BitWidth::Int4, 32));
        let k = rng.normal(96, 16, 0.0, 1.0);
        let v = rng.normal(96, 16, 0.0, 1.0);
        for t in 0..96 {
            c.try_append(k.row(t), v.row(t)).unwrap();
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
                c.try_append(k.row(t), k.row(t)).unwrap();
            }
            c.try_flush().unwrap();
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
            c.try_append(k.row(t), k.row(t)).unwrap();
        }
        c.try_flush().unwrap();
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
            c.try_append(data.row(t), data.row(t)).unwrap();
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
            c.try_append(data.row(t), data.row(t)).unwrap();
        }
        c.evict_middle(24, 1);
        // Appending and flushing still works after eviction.
        for t in 0..16 {
            c.try_append(data.row(t), data.row(t)).unwrap();
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
            c.try_append(&row, &row).unwrap();
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

    /// The open buffer's packed views hold exactly the buffer's codes
    /// after every append and flush, and recovery rebuilds them.
    #[test]
    fn buffer_views_track_appends_flushes_and_recovery() {
        let mut rng = TensorRng::new(44);
        let d = 6;
        let data = rng.normal(29, d, 0.0, 1.0);
        let mut c = HeadKvCache::new(d, cfg(BitWidth::Int4, 8));
        let views_match = |c: &HeadKvCache| {
            let (kb, vb) = (c.key_buffer().codes(), c.value_buffer().codes());
            let rows = c.buffer_len();
            assert_eq!(c.key_view().to_rows(), kb);
            assert_eq!((c.value_view().n(), c.value_view().k()), (d, rows));
            for t in 0..rows {
                for ch in 0..d {
                    let (got, want) = (c.value_view().get(ch, t), vb[t * d + ch]);
                    assert_eq!(got, want, "token {t} channel {ch}");
                }
            }
        };
        for t in 0..29 {
            let v: Vec<f32> = data.row(t).iter().map(|x| -x).collect();
            c.try_append(data.row(t), &v).unwrap();
            views_match(&c);
        }
        assert_eq!((c.resident_blocks().len(), c.buffer_len()), (3, 5));
        let bytes = crate::persist::serialize_head_cache(&c);
        let back = crate::persist::deserialize_head_cache(&bytes).unwrap();
        views_match(&back);
        assert_eq!(back.key_view().to_rows(), c.key_view().to_rows());
        assert_eq!(back.value_view().to_rows(), c.value_view().to_rows());
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
            c.try_append(data.row(t), data.row(t)).unwrap();
        }
        assert_eq!(c.resident_blocks().len(), 2);
        let tile = c.resident_tile(1);
        let k8 = c.resident_blocks()[1].dequantize_to_int8();
        assert_eq!(tile.keys().to_rows(), k8.codes());
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
        let first8 = SymQuantized::quantize(&data.row_block(0, 8));
        c.append_prefill_blocks([(&first8, &first8)]);
        let g0 = c.generation();
        let tile = c.resident_tile(0);
        // Further flushes push blocks without touching earlier indices.
        for t in 8..40 {
            c.try_append(data.row(t), data.row(t)).unwrap();
        }
        assert_eq!(c.resident_blocks().len(), 5);
        assert_eq!(c.generation(), g0, "a flush must not bump");
        let again = c.resident_tile(0);
        assert!(Arc::ptr_eq(&tile, &again), "block 0's tile must survive flushes");
        assert_eq!(again.keys().to_rows(), c.resident_blocks()[0].dequantize_to_int8().codes());

        // So does a prefill block append (on a fresh cache: prefill
        // precedes decode).
        let mut p = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        p.append_prefill_blocks([(&first8, &first8)]);
        let first = p.resident_tile(0);
        let next = SymQuantized::quantize(&data.row_block(8, 8));
        p.append_prefill_blocks([(&next, &next)]);
        assert_eq!(p.generation(), 0, "a prefill append must not bump");
        let kept = p.resident_tile(0);
        assert!(Arc::ptr_eq(&first, &kept), "tile must survive a prefill append");
        assert_eq!(kept.keys().to_rows(), p.resident_blocks()[0].dequantize_to_int8().codes());
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
        assert_eq!(tile.keys().to_rows(), c.resident_blocks()[1].dequantize_to_int8().codes());
    }

    #[test]
    fn zero_budget_tile_cache_still_serves_tiles() {
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 4));
        c.set_tile_cache_budget(0);
        for t in 0..4 {
            let row = [t as f32; 4];
            c.try_append(&row, &row).unwrap();
        }
        let a = c.resident_tile(0);
        let b = c.resident_tile(0);
        assert_eq!(a.keys().to_rows(), b.keys().to_rows());
        assert_eq!(c.tile_cache_stats().hits, 0);
        assert_eq!(c.tile_cache_stats().misses, 2);
    }

    #[test]
    fn prefill_block_from_int8_tiles_matches_f32_quantize() {
        let mut rng = TensorRng::new(43);
        // 40 rows in tiles of 16: the last tile is ragged (8 rows), and
        // groups of 6 leave a ragged group in every tile.
        let k = rng.normal(40, 8, 0.0, 1.0);
        let v = rng.normal_with_channel_outliers(40, 8, 1.0, &[2], 10.0);
        for bits in [BitWidth::Int4, BitWidth::Int2] {
            let config = KvCacheConfig {
                bits,
                group_size: 6,
                buffer_capacity: 16,
            };
            let mut c = HeadKvCache::new(8, config);
            for (b, (r, k_blk)) in k.row_blocks(16).enumerate() {
                let v_blk = v.row_block(r, k_blk.rows());
                let (k8, v8) = (SymQuantized::quantize(&k_blk), SymQuantized::quantize(&v_blk));
                c.append_prefill_blocks([(&k8, &v8)]);
                let (kb, vb) = (&c.resident_blocks()[b], &c.resident_value_blocks()[b]);
                let k_ref = ProgressiveBlock::quantize(&k_blk, bits, 6);
                let v_ref = ProgressiveBlock::quantize(&v_blk, bits, 6);
                assert_eq!(kb.packed().bytes(), k_ref.packed().bytes(), "{bits} K tile {b}");
                assert_eq!(vb.packed().bytes(), v_ref.packed().bytes(), "{bits} V tile {b}");
                assert_eq!((kb, vb), (&k_ref, &v_ref), "{bits} tile {b}");
            }
            assert_eq!(c.resident_blocks().len(), 3);
            assert_eq!(c.resident_blocks()[2].rows(), 8);
            assert_eq!(c.len(), 40);
        }
    }

    /// The tile a prefill block hands the tile cache equals the one a
    /// decode-side miss builds from the block itself.
    #[test]
    fn prefill_tile_equals_the_tile_built_from_its_blocks() {
        let mut state = 0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for bits in [BitWidth::Int2, BitWidth::Int3, BitWidth::Int4] {
            for rows in 1..=70 {
                for group_size in [1, 6, 16, 64, 100] {
                    for d in [1, 3, 8, 64, 128] {
                        let mut tile8 = |scale| {
                            let codes = (0..rows * d).map(|_| next() as i8).collect();
                            SymQuantized::from_parts(codes, scale, rows, d)
                        };
                        let (k8, v8) = (tile8(0.5), tile8(2.0));
                        let config = KvCacheConfig {
                            bits,
                            group_size,
                            buffer_capacity: 8,
                        };
                        let mut c = HeadKvCache::new(d, config);
                        c.append_prefill_blocks([(&k8, &v8)]);
                        assert_eq!(c.tile_cache_stats().entries, 1);
                        let tile = c.resident_tile(0);
                        assert_eq!(c.tile_cache_stats().misses, 0, "the tile must be warm");
                        let built = DequantTile::from_blocks(
                            &c.resident_blocks()[0],
                            &c.resident_value_blocks()[0],
                        );
                        let what = format!("{bits:?} {rows}x{d} group {group_size}");
                        assert_eq!(tile.keys().to_rows(), built.keys().to_rows(), "{what}: K");
                        assert_eq!(
                            tile.values().to_rows(),
                            built.values().to_rows(),
                            "{what}: V"
                        );
                        assert_eq!(
                            (tile.k_scale(), tile.v_scale()),
                            (built.k_scale(), built.v_scale()),
                            "{what}: scales"
                        );
                        assert_eq!(tile.bytes(), built.bytes(), "{what}: bytes");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_prefill_builds_no_tile() {
        let mut c = HeadKvCache::new(4, cfg(BitWidth::Int4, 8));
        c.set_tile_cache_budget(0);
        let zeros = SymQuantized::quantize(&Matrix::zeros(8, 4));
        c.append_prefill_blocks([(&zeros, &zeros)]);
        let s = c.tile_cache_stats();
        assert_eq!((s.entries, s.evictions), (0, 0), "no tile may be built");
        c.resident_tile(0);
        assert_eq!(c.tile_cache_stats().misses, 1);
    }

    #[test]
    #[should_panic(expected = "before decoding")]
    fn prefill_after_decode_rejected() {
        let mut c = HeadKvCache::new(2, cfg(BitWidth::Int4, 8));
        c.try_append(&[1.0, 1.0], &[1.0, 1.0]).unwrap();
        let zeros = SymQuantized::quantize(&Matrix::zeros(4, 2));
        c.append_prefill_blocks([(&zeros, &zeros)]);
    }
}

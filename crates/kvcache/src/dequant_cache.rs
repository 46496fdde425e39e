//! Resident-tile dequantization cache for the decode hot path.
//!
//! Every decode step attends over every resident [`ProgressiveBlock`] of
//! the head's KV cache. The blocks themselves are immutable between
//! flushes, yet the naive hot path re-ran the pure-integer INT4/2 → INT8
//! expansion (`dequantize_to_int8`) for both K and V of every block on
//! every token. This module memoizes that expansion: a [`DequantTile`]
//! holds the INT8 key codes (row-major, matmul-ready) and the value codes
//! *pre-transposed* to channel-major — the exact layout the fused `P·V`
//! kernel consumes — so a warm decode step performs no dequantization and
//! no transposition at all.
//!
//! Correctness does not depend on the cache: `dequantize_to_int8` is a
//! deterministic pure function of the block, so a cached tile is
//! bit-identical to a freshly built one. Resident blocks are immutable
//! once pushed, so a buffer flush or prefill append — which only adds a
//! block at the next index — leaves every cached tile valid, and each
//! block is dequantized once for its lifetime. Invalidation is by
//! *generation*: [`HeadKvCache`](crate::HeadKvCache) bumps a monotonic
//! counter when block indices shift (middle eviction), and the counter is
//! part of the cache key, so stale tiles can never be returned — they are
//! purged eagerly to release memory.
//!
//! The cache is bounded by a byte budget with least-recently-used
//! eviction, and reports hit/miss/evict events both through local
//! counters ([`DequantCacheStats`]) and, when wired, a shared
//! [`HealthStats`] registry.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use turbo_quant::ProgressiveBlock;
use turbo_robust::{HealthEvent, HealthStats};

/// Default tile-cache byte budget (32 MiB): comfortably holds the
/// resident set of the bench and test workloads while still exercising
/// LRU eviction in long-context runs.
pub const DEFAULT_TILE_CACHE_BUDGET: usize = 32 << 20;

/// The memoized INT8 expansion of one resident K/V block pair, laid out
/// exactly as the fused decode kernels consume it.
///
/// * `k_codes` — key codes row-major (`rows × d`), ready to be the
///   transposed-B operand of the `q·Kᵀ` INT8 matmul.
/// * `vt_codes` — value codes **channel-major** (`d × rows`), i.e. the
///   transpose the `P·V` kernel needs; computing it here removes the
///   per-step `transpose_codes` allocation from the hot path.
#[derive(Clone, Debug)]
pub struct DequantTile {
    k_codes: Vec<i8>,
    k_scale: f32,
    vt_codes: Vec<i8>,
    v_scale: f32,
    rows: usize,
    d: usize,
}

impl DequantTile {
    /// Builds the tile from a resident K/V block pair. Pure function of
    /// the blocks: two calls on the same blocks produce bit-identical
    /// tiles, which is why memoization cannot change attention output.
    ///
    /// # Panics
    ///
    /// Panics if the blocks disagree in shape.
    pub fn from_blocks(k: &ProgressiveBlock, v: &ProgressiveBlock) -> Self {
        assert_eq!(k.rows(), v.rows(), "K/V row mismatch");
        assert_eq!(k.cols(), v.cols(), "K/V channel mismatch");
        let rows = k.rows();
        let d = k.cols();
        let k8 = k.dequantize_to_int8();
        let v8 = v.dequantize_to_int8();
        let v_codes = v8.codes();
        let mut vt_codes = vec![0i8; rows * d];
        for r in 0..rows {
            for c in 0..d {
                vt_codes[c * rows + r] = v_codes[r * d + c];
            }
        }
        Self {
            k_codes: k8.codes().to_vec(),
            k_scale: k8.scale(),
            vt_codes,
            v_scale: v8.scale(),
            rows,
            d,
        }
    }

    /// INT8 key codes, row-major `rows × d`.
    pub fn k_codes(&self) -> &[i8] {
        &self.k_codes
    }

    /// Scale of the key codes.
    pub fn k_scale(&self) -> f32 {
        self.k_scale
    }

    /// INT8 value codes, channel-major `d × rows` (pre-transposed).
    pub fn vt_codes(&self) -> &[i8] {
        &self.vt_codes
    }

    /// Scale of the value codes.
    pub fn v_scale(&self) -> f32 {
        self.v_scale
    }

    /// Tokens in the tile.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Channels per token.
    pub fn channels(&self) -> usize {
        self.d
    }

    /// Resident footprint of this tile in bytes.
    pub fn bytes(&self) -> usize {
        self.k_codes.len() + self.vt_codes.len() + 2 * std::mem::size_of::<f32>()
    }
}

/// Counter snapshot of a [`DequantTileCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DequantCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to rebuild the tile.
    pub misses: u64,
    /// Tiles evicted by the byte budget (LRU order). Generation purges
    /// are invalidations, not evictions, and are not counted here.
    pub evictions: u64,
    /// Tiles currently resident.
    pub entries: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
}

#[derive(Clone, Debug)]
struct Entry {
    tile: Arc<DequantTile>,
    last_used: u64,
}

/// Bounded LRU memo of [`DequantTile`]s keyed by `(block index,
/// generation)`.
#[derive(Clone, Debug)]
pub struct DequantTileCache {
    entries: HashMap<(usize, u64), Entry>,
    budget_bytes: usize,
    resident_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    health: Option<Arc<HealthStats>>,
}

impl DequantTileCache {
    /// Creates an empty cache with the given byte budget. A budget of 0
    /// disables caching (every insert immediately evicts).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            budget_bytes,
            resident_bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            health: None,
        }
    }

    /// Wires a shared health registry; hit/miss/evict events are recorded
    /// live as [`HealthEvent::DequantCacheHit`] /
    /// [`HealthEvent::DequantCacheMiss`] / [`HealthEvent::DequantCacheEvict`].
    pub fn set_health(&mut self, health: Option<Arc<HealthStats>>) {
        self.health = health;
    }

    /// Changes the byte budget, evicting immediately if the resident set
    /// no longer fits.
    pub fn set_budget(&mut self, budget_bytes: usize) {
        self.budget_bytes = budget_bytes;
        self.evict_to_budget();
    }

    /// Looks up the tile for `(block, generation)`, updating recency and
    /// recording a hit or miss.
    pub fn get(&mut self, block: usize, generation: u64) -> Option<Arc<DequantTile>> {
        self.tick += 1;
        match self.entries.get_mut(&(block, generation)) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                if let Some(h) = &self.health {
                    h.record(HealthEvent::DequantCacheHit);
                }
                Some(Arc::clone(&e.tile))
            }
            None => {
                self.misses += 1;
                if let Some(h) = &self.health {
                    h.record(HealthEvent::DequantCacheMiss);
                }
                None
            }
        }
    }

    /// Inserts a freshly built tile, then evicts least-recently-used
    /// tiles until the resident set fits the budget (possibly evicting
    /// the tile just inserted when the budget is smaller than one tile).
    pub fn insert(&mut self, block: usize, generation: u64, tile: Arc<DequantTile>) {
        self.tick += 1;
        let bytes = tile.bytes();
        let prev = self.entries.insert(
            (block, generation),
            Entry {
                tile,
                last_used: self.tick,
            },
        );
        self.resident_bytes += bytes;
        if let Some(p) = prev {
            self.resident_bytes -= p.tile.bytes();
        }
        self.evict_to_budget();
    }

    /// Drops every tile whose generation predates `generation` — the
    /// eager half of generation invalidation (stale keys could never be
    /// looked up again, but their memory should not linger).
    pub fn purge_generations_below(&mut self, generation: u64) {
        let mut freed = 0usize;
        self.entries.retain(|&(_, g), e| {
            if g < generation {
                freed += e.tile.bytes();
                false
            } else {
                true
            }
        });
        self.resident_bytes -= freed;
    }

    /// Drops every tile.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DequantCacheStats {
        DequantCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            resident_bytes: self.resident_bytes,
            budget_bytes: self.budget_bytes,
        }
    }

    fn evict_to_budget(&mut self) {
        while self.resident_bytes > self.budget_bytes && !self.entries.is_empty() {
            // O(n) scan is fine: the resident set is small (one entry per
            // resident block) and eviction is rare on the hot path.
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty");
            let e = self.entries.remove(&oldest).expect("present");
            self.resident_bytes -= e.tile.bytes();
            self.evictions += 1;
            if let Some(h) = &self.health {
                h.record(HealthEvent::DequantCacheEvict);
            }
        }
    }
}

/// Interior-mutable cache cell shared by `&self` readers of a
/// [`HeadKvCache`](crate::HeadKvCache).
///
/// Cloning a cache clones the cell's *contents* (tiles are `Arc`-shared,
/// so the clone is cheap and the warm state carries over — a cloned cache
/// starts warm). A poisoned lock is recovered rather than propagated: the
/// cache holds only memoized derived data, so observing a panicked
/// writer's state is harmless.
pub(crate) struct TileCacheCell(Mutex<DequantTileCache>);

impl TileCacheCell {
    pub(crate) fn new(budget_bytes: usize) -> Self {
        Self(Mutex::new(DequantTileCache::new(budget_bytes)))
    }

    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut DequantTileCache) -> R) -> R {
        let mut guard = self.0.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut guard)
    }
}

impl Clone for TileCacheCell {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.with(|c| c.clone())))
    }
}

impl std::fmt::Debug for TileCacheCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.with(|c| c.stats());
        f.debug_tuple("TileCacheCell").field(&stats).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_quant::BitWidth;
    use turbo_tensor::TensorRng;

    fn block(seed: u64, rows: usize, d: usize) -> ProgressiveBlock {
        let mut rng = TensorRng::new(seed);
        ProgressiveBlock::quantize(&rng.normal(rows, d, 0.0, 1.0), BitWidth::Int4, 32)
    }

    #[test]
    fn tile_matches_fresh_dequant_and_pretransposes_v() {
        let k = block(1, 16, 8);
        let v = block(2, 16, 8);
        let tile = DequantTile::from_blocks(&k, &v);
        let k8 = k.dequantize_to_int8();
        let v8 = v.dequantize_to_int8();
        assert_eq!(tile.k_codes(), k8.codes());
        assert_eq!(tile.k_scale(), k8.scale());
        assert_eq!(tile.v_scale(), v8.scale());
        for r in 0..16 {
            for c in 0..8 {
                assert_eq!(tile.vt_codes()[c * 16 + r], v8.codes()[r * 8 + c]);
            }
        }
        assert_eq!(tile.bytes(), 16 * 8 * 2 + 8);
    }

    #[test]
    fn hit_miss_and_recency() {
        let mut cache = DequantTileCache::new(1 << 20);
        let tile = Arc::new(DequantTile::from_blocks(&block(1, 8, 4), &block(2, 8, 4)));
        assert!(cache.get(0, 0).is_none());
        cache.insert(0, 0, Arc::clone(&tile));
        let got = cache.get(0, 0).expect("hit");
        assert!(Arc::ptr_eq(&got, &tile));
        // Stale generation never hits.
        assert!(cache.get(0, 1).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let tile = |s| Arc::new(DequantTile::from_blocks(&block(s, 8, 4), &block(s + 100, 8, 4)));
        let bytes = tile(1).bytes();
        let mut cache = DequantTileCache::new(2 * bytes);
        cache.insert(0, 0, tile(1));
        cache.insert(1, 0, tile(2));
        // Touch block 0 so block 1 is the LRU victim.
        cache.get(0, 0).expect("hit");
        cache.insert(2, 0, tile(3));
        assert!(cache.get(0, 0).is_some(), "recently used survives");
        assert!(cache.get(1, 0).is_none(), "LRU victim evicted");
        assert!(cache.get(2, 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().resident_bytes <= 2 * bytes);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut cache = DequantTileCache::new(0);
        let tile = Arc::new(DequantTile::from_blocks(&block(1, 8, 4), &block(2, 8, 4)));
        cache.insert(0, 0, tile);
        assert!(cache.get(0, 0).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn generation_purge_frees_memory() {
        let mut cache = DequantTileCache::new(1 << 20);
        let tile = Arc::new(DequantTile::from_blocks(&block(1, 8, 4), &block(2, 8, 4)));
        cache.insert(0, 0, Arc::clone(&tile));
        cache.insert(1, 0, Arc::clone(&tile));
        cache.insert(0, 1, Arc::clone(&tile));
        cache.purge_generations_below(1);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, tile.bytes());
        assert!(cache.get(0, 1).is_some());
    }

    #[test]
    fn health_sink_records_events() {
        let health = Arc::new(HealthStats::new());
        let mut cache = DequantTileCache::new(0);
        cache.set_health(Some(Arc::clone(&health)));
        let tile = Arc::new(DequantTile::from_blocks(&block(1, 8, 4), &block(2, 8, 4)));
        cache.get(0, 0);
        cache.insert(0, 0, Arc::clone(&tile));
        cache.set_budget(1 << 20);
        cache.insert(0, 0, tile);
        cache.get(0, 0);
        assert_eq!(health.count(HealthEvent::DequantCacheMiss), 1);
        assert_eq!(health.count(HealthEvent::DequantCacheHit), 1);
        assert_eq!(health.count(HealthEvent::DequantCacheEvict), 1);
    }

    #[test]
    fn clone_carries_warm_state() {
        let mut cache = DequantTileCache::new(1 << 20);
        let tile = Arc::new(DequantTile::from_blocks(&block(1, 8, 4), &block(2, 8, 4)));
        cache.insert(0, 0, tile);
        let mut copy = cache.clone();
        assert!(copy.get(0, 0).is_some());
    }
}

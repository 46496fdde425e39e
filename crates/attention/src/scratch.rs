//! Reusable scratch buffers for the zero-realloc decode hot path.
//!
//! Every fused decode step needs a handful of short-lived buffers: the
//! quantized query rows, one score block, one probability block, its
//! INT8 re-quantization, the integer `P·V` accumulator, the per-row SAS
//! parameters and sums, the unnormalized output rows, and one
//! online-softmax state per query row. A grouped-query step attends
//! `G` query rows at once, so every per-row buffer holds `G` rows laid
//! out row-major. The original kernels allocated each of these per call
//! (and some per *tile*); a [`Scratch`] owns them all so a steady-state
//! decode loop performs **zero** heap allocations — buffers are
//! `clear()`ed and refilled, which keeps their capacity.
//!
//! Lifetime rules: a `Scratch` is a plain bag of `Vec`s with no
//! invariants between calls — it can be shared across caches, heads,
//! group sizes and SAS configurations, grown on demand, dropped at any
//! time. Nothing in it affects numerics; kernels write every element
//! they read.

use turbo_kvcache::HeadKvCache;
use turbo_softmax::ScaledRow;

/// Reusable buffer arena for
/// [`turbo_attend_group_into`](crate::decode::turbo_attend_group_into)
/// and friends.
///
/// Construct once (optionally pre-sized with [`Scratch::for_cache`] or
/// [`Scratch::for_group`]) and pass to every decode step; after the
/// first call at a given cache shape and group size, subsequent calls
/// allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Quantized query rows (`G × d` codes).
    pub(crate) q8: Vec<i8>,
    /// Raw integer scores for the current tile (`G × bc` i32 sums) — the
    /// fused kernels keep QK^T scores in integer form until the SAS
    /// exponential consumes them.
    pub(crate) si: Vec<i32>,
    /// SAS probability rows (`G × bc` floats).
    pub(crate) p: Vec<f32>,
    /// INT8 re-quantized probability rows (`G × bc` codes).
    pub(crate) p8: Vec<i8>,
    /// Integer `P·V` accumulator (`G × d` lanes).
    pub(crate) pv: Vec<i32>,
    /// Per-row SAS parameters for the current tile (`G` entries).
    pub(crate) exp_rows: Vec<ScaledRow>,
    /// Per-row probability sums for the current tile (`G` entries).
    pub(crate) sums: Vec<f32>,
    /// Unnormalized output accumulators (`G × d` floats).
    pub(crate) o: Vec<f32>,
    /// Online-softmax state, one per query row (`G` entries).
    pub(crate) rows: Vec<RowState>,
}

/// One query row's online-softmax state `(m, l)` plus the per-tile
/// factors its output update needs after the shared `P·V` GEMM.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowState {
    /// Query quantization scale `s_q`.
    pub(crate) s_q: f32,
    /// Running score maximum.
    pub(crate) m: f32,
    /// Running probability sum.
    pub(crate) l: f32,
    /// Rescale factor `exp(m_old − m_new)` of the current tile.
    pub(crate) corr: f32,
    /// Output scale `s_P · s_V` of the current tile.
    pub(crate) pv_scale: f32,
    /// Whether the current tile contributed to this row.
    pub(crate) live: bool,
}

impl RowState {
    /// A fresh row: nothing attended yet.
    pub(crate) fn new(s_q: f32) -> Self {
        Self {
            s_q,
            m: f32::NEG_INFINITY,
            l: 0.0,
            corr: 0.0,
            pv_scale: 0.0,
            live: false,
        }
    }
}

impl Scratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-sized for single-query decoding against `cache`, so
    /// even the very first step allocates nothing.
    pub fn for_cache(cache: &HeadKvCache) -> Self {
        Self::for_group(cache, 1)
    }

    /// An arena pre-sized for attending `g` query rows at once against
    /// `cache`: `d` comes from the head dimension and the widest tile is
    /// the larger of the biggest resident block and the buffer capacity.
    pub fn for_group(cache: &HeadKvCache, g: usize) -> Self {
        let d = cache.head_dim();
        // Cap the buffer-capacity contribution: configs that use a huge
        // capacity as a "never flush" sentinel would otherwise request an
        // absurd reservation. Such buffers grow on demand instead.
        const MAX_PRESIZE_ROWS: usize = 4096;
        let max_bc = cache
            .resident_blocks()
            .iter()
            .map(|b| b.rows())
            .max()
            .unwrap_or(0)
            .max(cache.config().buffer_capacity.min(MAX_PRESIZE_ROWS))
            .max(cache.buffer_len());
        let mut s = Self::new();
        s.reserve(g, d, max_bc);
        s
    }

    /// Ensures capacity for `g` query rows of head dimension `d` against
    /// tiles up to `max_bc` rows high.
    pub fn reserve(&mut self, g: usize, d: usize, max_bc: usize) {
        ensure_cap(&mut self.q8, g * d);
        ensure_cap(&mut self.si, g * max_bc);
        ensure_cap(&mut self.p, g * max_bc);
        ensure_cap(&mut self.p8, g * max_bc);
        ensure_cap(&mut self.pv, g * d);
        ensure_cap(&mut self.exp_rows, g);
        ensure_cap(&mut self.sums, g);
        ensure_cap(&mut self.o, g * d);
        ensure_cap(&mut self.rows, g);
    }
}

fn ensure_cap<T>(v: &mut Vec<T>, want: usize) {
    if v.capacity() < want {
        v.reserve(want - v.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_kvcache::KvCacheConfig;
    use turbo_quant::BitWidth;

    #[test]
    fn for_cache_presizes_every_buffer() {
        let mut cache = HeadKvCache::new(
            8,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 32,
                buffer_capacity: 16,
            },
        );
        for t in 0..20 {
            let row = [t as f32 * 0.1; 8];
            cache.try_append(&row, &row).unwrap();
        }
        let s = Scratch::for_cache(&cache);
        assert!(s.q8.capacity() >= 8);
        assert!(s.si.capacity() >= 16);
        assert!(s.p.capacity() >= 16);
        assert!(s.p8.capacity() >= 16);
        assert!(s.pv.capacity() >= 8);
        assert!(s.exp_rows.capacity() >= 1);
        assert!(s.sums.capacity() >= 1);
        assert!(s.o.capacity() >= 8);
        assert!(s.rows.capacity() >= 1);

        let g = Scratch::for_group(&cache, 4);
        assert!(g.q8.capacity() >= 4 * 8);
        assert!(g.si.capacity() >= 4 * 16);
        assert!(g.p8.capacity() >= 4 * 16);
        assert!(g.pv.capacity() >= 4 * 8);
        assert!(g.exp_rows.capacity() >= 4);
        assert!(g.sums.capacity() >= 4);
        assert!(g.o.capacity() >= 4 * 8);
        assert!(g.rows.capacity() >= 4);
    }
}

//! Property test: the resident-tile dequant cache is invisible to
//! numerics.
//!
//! 256 seeded episodes drive a tile-cached head cache and an uncached
//! (budget-0) twin through identical interleavings of token appends,
//! explicit flushes, progressive middle evictions, and snapshot
//! recoveries, checking after **every** mutation that both answer a
//! decode query bit-for-bit identically. Each episode opens with 0–3
//! prefill blocks, whose tiles the cached twin receives warm from the
//! prefill write. Any staleness bug — a tile surviving a flush, an
//! eviction, or a recovery, or a warm prefill tile that differs from the
//! one a miss builds — shows up as a bitwise divergence.

use turbo_attention::turbo_attend_cache;
use turbo_kvcache::persist::serialize_head_cache;
use turbo_kvcache::{recover_head_cache, HeadKvCache, KvCacheConfig};
use turbo_quant::{BitWidth, SymQuantized};
use turbo_robust::FaultInjector;
use turbo_softmax::Sas;
use turbo_tensor::TensorRng;

const EPISODES: u64 = 256;
const OPS_PER_EPISODE: usize = 24;

fn episode(seed: u64) {
    let d = [8usize, 16, 32][(seed % 3) as usize];
    let buffer_capacity = [8usize, 16, 24][((seed / 3) % 3) as usize];
    let bits = if seed.is_multiple_of(2) {
        BitWidth::Int4
    } else {
        BitWidth::Int2
    };
    let config = KvCacheConfig {
        bits,
        group_size: 8,
        buffer_capacity,
    };
    let sas = Sas::paper_default();
    let mut rng = TensorRng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let mut chooser = FaultInjector::new(seed ^ 0xC0FF_EE00);

    let mut cached = HeadKvCache::new(d, config);
    let mut uncached = HeadKvCache::new(d, config);
    uncached.set_tile_cache_budget(0);

    let row = |rng: &mut TensorRng| -> Vec<f32> {
        (0..d).map(|_| rng.standard_normal()).collect()
    };

    // The prompt: 0–3 prefill blocks of 1..=buffer_capacity tokens (so a
    // sink block plus the buffer still fit the eviction budget below),
    // drawn from their own generators so the ops below stay as they were.
    let mut prompt = TensorRng::new(seed ^ 0x9E11_F111);
    let mut heights = FaultInjector::new(seed ^ 0x9E11_F112);
    let tiles: Vec<_> = (0..heights.pick(4))
        .map(|_| {
            let rows = 1 + heights.pick(buffer_capacity);
            let k = SymQuantized::quantize(&prompt.normal(rows, d, 0.0, 1.0));
            let v = SymQuantized::quantize(&prompt.normal(rows, d, 0.0, 1.0));
            (k, v)
        })
        .collect();
    cached.append_prefill_blocks(tiles.iter().map(|(k, v)| (k, v)));
    uncached.append_prefill_blocks(tiles.iter().map(|(k, v)| (k, v)));
    if !cached.is_empty() {
        let q = row(&mut prompt);
        let warm = turbo_attend_cache(&q, &cached, &sas);
        assert_eq!(
            cached.tile_cache_stats().misses,
            0,
            "seed {seed}: a prefill tile was cold"
        );
        let cold = turbo_attend_cache(&q, &uncached, &sas);
        assert_eq!(
            warm, cold,
            "seed {seed}: warm prefill tiles diverged from uncached"
        );
    }

    for op in 0..OPS_PER_EPISODE {
        match chooser.pick(10) {
            // Mostly decode appends — the hot path.
            0..=6 => {
                let k = row(&mut rng);
                let v = row(&mut rng);
                cached.try_append(&k, &v).unwrap();
                uncached.try_append(&k, &v).unwrap();
            }
            7 => {
                let a = cached.try_flush();
                let b = uncached.try_flush();
                assert_eq!(a.is_ok(), b.is_ok(), "seed {seed} op {op}: flush diverged");
            }
            8 => {
                // Progressive compression: evict middle blocks under a
                // budget both caches can honor (sink block + buffer
                // always fit in 2 × capacity).
                let budget = (cached.len() / 2).max(2 * buffer_capacity);
                let a = cached.evict_middle(budget, 1);
                let b = uncached.evict_middle(budget, 1);
                assert_eq!(a, b, "seed {seed} op {op}: eviction count diverged");
            }
            _ => {
                // Snapshot round-trip (the WAL recovery state path):
                // recovered caches start with cold generation-0 tile
                // caches; stale tiles from the previous life must be
                // unreachable.
                let snap_a = serialize_head_cache(&cached);
                let snap_b = serialize_head_cache(&uncached);
                assert_eq!(snap_a, snap_b, "seed {seed} op {op}: snapshots diverged");
                let (back_a, report_a) = recover_head_cache(&snap_a, None).unwrap();
                let (back_b, report_b) = recover_head_cache(&snap_b, None).unwrap();
                assert!(report_a.complete && report_b.complete);
                cached = back_a;
                uncached = back_b;
                uncached.set_tile_cache_budget(0);
            }
        }
        if cached.is_empty() {
            continue;
        }
        let q = row(&mut rng);
        let warm = turbo_attend_cache(&q, &cached, &sas);
        let cold = turbo_attend_cache(&q, &uncached, &sas);
        assert_eq!(
            warm, cold,
            "seed {seed} op {op}: cached decode diverged from uncached"
        );
    }

    // The episode must actually have exercised the tile cache on one
    // side and bypassed it on the other. Two back-to-back attends with
    // no mutation in between guarantee at least one hit even when the
    // last op was a recovery (which resets the tile cache cold).
    if !cached.resident_blocks().is_empty() {
        let q = row(&mut rng);
        turbo_attend_cache(&q, &cached, &sas);
        turbo_attend_cache(&q, &cached, &sas);
        assert!(cached.tile_cache_stats().hits > 0, "seed {seed}: cache never hit");
    }
    assert_eq!(uncached.tile_cache_stats().hits, 0, "seed {seed}: budget-0 twin hit");
}

#[test]
fn cached_decode_is_bit_identical_to_uncached_across_256_episodes() {
    for seed in 0..EPISODES {
        episode(seed);
    }
}

//! Proof that the decode hot path is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; the tests
//! warm a cache + scratch arena, then pin the exact number of heap
//! allocations performed by a run of decode steps to **zero**. The
//! counter is thread-local, so libtest running the tests on parallel
//! threads cannot leak one test's setup into another's window. The
//! assertions are active in debug builds (the default `cargo test`
//! profile); release builds still execute the loops as a smoke test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use turbo_attention::{turbo_attend_group_into, Scratch};
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_quant::{BitWidth, SymQuantized};
use turbo_softmax::Sas;
use turbo_tensor::TensorRng;

/// Counts every allocation routed through the global allocator, per
/// thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: touching it never
    // allocates, so the allocator may use it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down; such
    // allocations belong to no test window.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn populated_cache(seed: u64, n: usize, d: usize, buffer_capacity: usize) -> HeadKvCache {
    let mut rng = TensorRng::new(seed);
    let k = rng.normal(n, d, 0.0, 1.0);
    let v = rng.normal(n, d, 0.0, 1.0);
    let mut cache = HeadKvCache::new(
        d,
        KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 32,
            buffer_capacity,
        },
    );
    for t in 0..n {
        cache.try_append(k.row(t), v.row(t)).unwrap();
    }
    cache
}

/// The first decode step after a prefill: the prefill hands every
/// block's tile to the tile cache as it writes the block, so with a
/// presized arena the very first attend builds nothing and allocates
/// nothing.
#[test]
fn first_attend_after_prefill_is_allocation_free() {
    let d = 32;
    let mut rng = TensorRng::new(41);
    let mut cache = HeadKvCache::new(
        d,
        KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 32,
            buffer_capacity: 64,
        },
    );
    // 200 prompt tokens as prefill writes them: three 64-token blocks and
    // a ragged one of 8.
    let tiles: Vec<_> = [64, 64, 64, 8]
        .into_iter()
        .map(|rows| {
            let k = SymQuantized::quantize(&rng.normal(rows, d, 0.0, 1.0));
            let v = SymQuantized::quantize(&rng.normal(rows, d, 0.0, 1.0));
            (k, v)
        })
        .collect();
    cache.append_prefill_blocks(tiles.iter().map(|(k, v)| (k, v)));
    let sas = Sas::paper_default();
    let q: Vec<f32> = (0..d).map(|_| rng.standard_normal()).collect();
    let mut scratch = Scratch::for_cache(&cache);
    let mut out = Vec::with_capacity(d);

    let before = allocations();
    turbo_attend_group_into(&[&q], &cache, &sas, &mut scratch, &mut out);
    let allocated = allocations() - before;
    assert_eq!(out.len(), d);
    #[cfg(debug_assertions)]
    assert_eq!(
        allocated, 0,
        "the first attend after a prefill must not allocate ({allocated} allocations)"
    );
    #[cfg(not(debug_assertions))]
    let _ = allocated;
    assert_eq!(cache.tile_cache_stats().misses, 0);
}

/// Attend-only loop (read path of Algorithm 2): after one warmup call
/// fills the tile cache and sizes the arena, further queries over an
/// unchanged cache must not touch the allocator at all.
#[test]
fn attend_loop_is_allocation_free_once_warm() {
    let d = 32;
    let cache = populated_cache(11, 200, d, 64);
    let sas = Sas::paper_default();
    let mut rng = TensorRng::new(12);
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..d).map(|_| rng.standard_normal()).collect())
        .collect();

    let mut scratch = Scratch::for_cache(&cache);
    let mut out = Vec::with_capacity(d);
    // Warmup: builds the resident dequant tiles and grows every buffer
    // to its working size.
    turbo_attend_group_into(&[&queries[0]], &cache, &sas, &mut scratch, &mut out);

    let before = allocations();
    for q in &queries {
        turbo_attend_group_into(&[q], &cache, &sas, &mut scratch, &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(out.len(), d);
    #[cfg(debug_assertions)]
    assert_eq!(
        allocated, 0,
        "warm attend loop must not allocate ({allocated} allocations over 32 steps)"
    );
    #[cfg(not(debug_assertions))]
    let _ = allocated;
}

/// Full decode steps (append + attend): between buffer flush boundaries,
/// with reserved buffers and a warm tile cache, a steady-state decode
/// step performs zero heap allocations.
#[test]
fn decode_steps_are_allocation_free_between_flush_boundaries() {
    let d = 32;
    let buffer_capacity = 64;
    // 200 tokens: 3×64 resident blocks + 8 buffered rows, leaving 56
    // appends of headroom before the next flush boundary.
    let mut cache = populated_cache(21, 200, d, buffer_capacity);
    let sas = Sas::paper_default();
    let mut rng = TensorRng::new(22);
    let steps: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..32)
        .map(|_| {
            let row = |rng: &mut TensorRng| (0..d).map(|_| rng.standard_normal()).collect();
            (row(&mut rng), row(&mut rng), row(&mut rng))
        })
        .collect();

    let mut scratch = Scratch::for_cache(&cache);
    let mut out = Vec::with_capacity(d);
    // Warmup attend: fills the tile cache without consuming append
    // headroom.
    turbo_attend_group_into(&[&steps[0].0], &cache, &sas, &mut scratch, &mut out);

    let before = allocations();
    for (q, k, v) in &steps {
        cache.try_append(k, v).unwrap();
        turbo_attend_group_into(&[q], &cache, &sas, &mut scratch, &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(out.len(), d);
    assert_eq!(cache.len(), 232);
    assert!(
        cache.buffer_len() < buffer_capacity,
        "test must stay between flush boundaries"
    );
    #[cfg(debug_assertions)]
    assert_eq!(
        allocated, 0,
        "steady-state decode must not allocate ({allocated} allocations over 32 steps)"
    );
    #[cfg(not(debug_assertions))]
    let _ = allocated;
}

/// Grouped attend (the GQA decode kernel): four query rows sharing one
/// cache go through one pass per tile. Once the arena is sized for the
/// group and the tile cache is warm, the loop must not allocate.
#[test]
fn grouped_attend_loop_is_allocation_free_once_warm() {
    const G: usize = 4;
    let d = 32;
    let cache = populated_cache(31, 200, d, 64);
    let sas = Sas::paper_default();
    let mut rng = TensorRng::new(32);
    let queries: Vec<Vec<f32>> = (0..32 * G)
        .map(|_| (0..d).map(|_| rng.standard_normal()).collect())
        .collect();
    let groups: Vec<Vec<&[f32]>> = queries
        .chunks_exact(G)
        .map(|g| g.iter().map(Vec::as_slice).collect())
        .collect();

    let mut scratch = Scratch::for_group(&cache, G);
    let mut out = Vec::with_capacity(G * d);
    // Warmup: builds the resident dequant tiles.
    turbo_attend_group_into(&groups[0], &cache, &sas, &mut scratch, &mut out);

    let before = allocations();
    for qs in &groups {
        turbo_attend_group_into(qs, &cache, &sas, &mut scratch, &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(out.len(), G * d);
    #[cfg(debug_assertions)]
    assert_eq!(
        allocated, 0,
        "warm grouped attend loop must not allocate ({allocated} allocations over 32 steps)"
    );
    #[cfg(not(debug_assertions))]
    let _ = allocated;
}

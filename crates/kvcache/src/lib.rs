//! # turbo-kvcache
//!
//! Quantized key/value cache with the paper's *enhanced decode buffer*
//! (subsection 3.3).
//!
//! The resident cache holds progressively quantized INT4/INT2 blocks
//! ([`turbo_quant::ProgressiveBlock`]). Newly decoded tokens land in an
//! INT8 buffer with a **universal scale**: the scale is fixed when the
//! buffer opens and later tokens whose values exceed the representable
//! range are clamped instead of triggering a recompression of earlier
//! tokens. When the buffer reaches `n_b` tokens it is flushed — second-stage
//! quantized to the head's resident bit width — in one integer-arithmetic
//! pass.
//!
//! This contrasts with KIVI/GEAR, which hold their residual window in full
//! precision (FP16) and therefore cannot feed integer matmuls directly.
//!
//! # Example
//!
//! ```
//! use turbo_kvcache::{HeadKvCache, KvCacheConfig};
//! use turbo_quant::BitWidth;
//!
//! let cfg = KvCacheConfig { bits: BitWidth::Int4, group_size: 64, buffer_capacity: 64 };
//! let mut cache = HeadKvCache::new(8, cfg);
//! for t in 0..100 {
//!     let k: Vec<f32> = (0..8).map(|i| (t * 8 + i) as f32 * 0.01).collect();
//!     let v: Vec<f32> = (0..8).map(|i| (t + i) as f32 * 0.02).collect();
//!     cache.try_append(&k, &v)?;
//! }
//! assert_eq!(cache.len(), 100);
//! assert_eq!(cache.resident_blocks().len(), 1); // one flushed block of 64
//! assert_eq!(cache.buffer_len(), 36);
//! # Ok::<(), turbo_kvcache::CacheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod dequant_cache;
pub mod error;
pub mod head;
pub mod layer;
pub mod paged;
pub mod persist;
pub mod stats;

pub use buffer::Int8Buffer;
pub use dequant_cache::{
    DequantCacheStats, DequantTile, DequantTileCache, DEFAULT_TILE_CACHE_BUDGET,
};
pub use error::CacheError;
pub use head::{HeadKvCache, KvCacheConfig};
pub use layer::LayerKvCache;
pub use paged::{PagedKvPool, SeqId};
pub use persist::layer_wal::{
    replay_layer_wal, CheckpointCause, CheckpointPolicy, DurableLayerSet,
    GroupCommitStats, LayerRecoverOutcome, LayerWalReplayReport, LayerWriteAheadLog,
    NeverCheckpoint, RecordBudget, ReplayBudget,
};
pub use persist::{
    deserialize_head_cache, frame_boundaries, recover_head_cache, serialize_head_cache,
    PersistError,
};
pub use stats::{MemoryStats, RecoveryReport, ScrubReport};

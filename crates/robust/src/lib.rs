//! # turbo-robust
//!
//! Fault-tolerance toolkit for the TurboAttention reproduction: the
//! pieces a production quantized-attention deployment needs when a bit
//! flips, a persisted cache tears, or an outlier blows past the INT8
//! range.
//!
//! * [`FaultInjector`] — deterministic, seedable injection of bit-flips
//!   into packed codes, truncation/mutation of serialized caches,
//!   NaN/Inf poisoning of activations, and simulated HBM pressure.
//! * [`HealthStats`] / [`HealthEvent`] — a shared atomic counter
//!   registry every detection, repair, and fallback reports into, so
//!   observed-fault counts can be checked against injected-fault counts.
//! * [`crc32`] / [`Crc32`] — hand-rolled IEEE CRC32 (no external
//!   crates) backing per-block checksums in the persisted-cache format,
//!   page scrubbing in the paged pool, and WAL record framing. On x86-64
//!   with AVX2 and PCLMULQDQ the 16-byte-multiple body of an input of at
//!   least 64 bytes is folded by carry-less multiplication
//!   (`turbo_tensor::simd::crc32_fold_on`); slicing-by-8 tables finish
//!   the tail and are the scalar arm (`TURBO_SIMD=0`, aarch64). Both
//!   arms give the same value for every input.
//! * [`ChaosPlan`] — seeded, time-ordered scripts of kills, WAL
//!   truncations, fault injections, pressure spikes, and *correlated*
//!   failure bursts (simultaneous multi-replica kills, zone faults,
//!   pressure storms) for the chaos soak harness; pure data consumed by
//!   the serving layer.
//! * [`SloTracker`] — windowed p50/p99 latency and SLO-violation-rate
//!   accounting the fleet control plane steers by.
//! * [`OnlineTuner`] — AIMD re-tuning of admission backoff, hedging
//!   delay, and breaker thresholds from observed SLO windows.
//! * [`ReplayTuner`] — sibling AIMD controller folding checkpoint
//!   cadence into the control plane: rebuild/replay telemetry tightens
//!   the `ReplayBudget` ceiling under churn and relaxes it when calm.
//!
//! The crate sits *below* `turbo-kvcache` and `turbo-attention` in the
//! dependency graph (it only needs `turbo-tensor` and `turbo-quant`),
//! so cache, engine, and serving layers can all share one vocabulary of
//! faults and one counter registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod crc32;
mod fault;
mod health;
mod slo;
mod tuner;

pub use chaos::{BurstKind, ChaosAction, ChaosBurst, ChaosConfig, ChaosEvent, ChaosPlan};
pub use crc32::{crc32, Crc32};
pub use fault::{ActivationFault, ByteFault, FaultInjector};
pub use health::{HealthEvent, HealthStats, ALL_EVENTS, EVENT_COUNT};
pub use slo::{percentile, SloConfig, SloTracker, SloWindow};
pub use tuner::{
    OnlineTuner, ReplayTelemetry, ReplayTuner, ReplayTunerConfig, TunedParams, TunerConfig,
};

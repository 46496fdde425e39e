//! # turbo-gpusim
//!
//! Analytical performance model of an NVIDIA A100-SXM-80GB running the
//! attention methods compared in the paper.
//!
//! No GPU is available in this environment, so wall-clock results
//! (Figures 1, 6 and 7a) are reproduced with a roofline-style cost model:
//! each kernel is characterized by the bytes it moves, the MACs it issues
//! per precision, its exponentiation/dequantization element operations,
//! and fixed launch overhead. The figures the paper draws — who wins,
//! by what factor, where OOM hits — are determined by exactly these
//! quantities:
//!
//! * FP16 tensor-core vs INT8 tensor-core matmul throughput (2×),
//! * FP32 CUDA-core exponentiation at ~3 % of FP16 tensor throughput
//!   (the paper's section 2.2 observation),
//! * KV-cache bytes at 16 vs 8 vs 4/3/2 bits,
//! * per-element dequantization work: none (FP16), integer (Turbo),
//!   float + low-rank (KIVI/GEAR).
//!
//! The model is calibrated so FlashAttention-FP16 prefill spends ~30 % of
//! its time in softmax (the paper's measurement) and validated in tests
//! against every qualitative claim of Figures 1/6/7a.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endtoend;
pub mod fleet;
pub mod geometry;
pub mod hw;
pub mod kernels;
pub mod memory;
pub mod method;
pub mod replica;
pub mod sched;
pub mod serving;
pub mod shard;
pub mod throughput;

pub use endtoend::{generation_breakdown, EndToEndBreakdown};
pub use fleet::{
    run_fleet, run_fleet_on, Autoscaler, AutoscalerConfig, BurstRecovery, EpochReport,
    FleetConfig, FleetStats, FleetWorkloadSpec, ScaleDecision,
};
pub use geometry::ModelGeometry;
pub use hw::GpuSpec;
pub use kernels::{decode_latency, prefill_latency, KernelBreakdown};
pub use memory::{fits_in_memory, memory_usage};
pub use method::AttnMethod;
pub use replica::{
    run_replica_set, run_replica_set_on, BreakerConfig, BreakerState, CircuitBreaker,
    ReplicaSetConfig, ReplicaSetStats,
};
pub use sched::{
    simulate_serving_continuous, simulate_serving_continuous_streamed, Queue, Scheduler,
    SchedulerConfig, SchedulerStats, StepRecord, TokenEvent,
};
pub use serving::{
    simulate_serving, simulate_serving_robust, simulate_serving_robust_paged, uniform_workload,
    RequestSpec, RobustServingStats, ServingPolicy, ServingStats, WorkloadSpec,
};
pub use shard::{
    run_sharded_episode, run_sharded_episode_on, ShardMap, ShardRange, ShardedConfig,
    ShardedStats, SHARD_MAP_MAGIC, SHARD_MAP_VERSION,
};
pub use throughput::{max_throughput, throughput};

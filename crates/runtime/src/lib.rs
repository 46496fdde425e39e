//! # turbo-runtime
//!
//! Shared, persistent work-stealing execution runtime for the CPU
//! substrate.
//!
//! Every parallel entry point in the workspace used to spawn one fresh OS
//! thread per head per call — oversubscribing the machine whenever
//! `heads > cores` and paying spawn latency on every decode step. This
//! crate replaces that with one lazily-initialized global pool
//! ([`global`]) sized from `std::thread::available_parallelism` and
//! overridable via the `TURBO_RUNTIME_THREADS` environment variable or a
//! per-instance [`Runtime::with_workers`] constructor.
//!
//! The size n counts executors, the calling thread among them: a pool
//! spawns n − 1 threads, and whichever thread submits a batch runs its
//! tasks too (see below). Idle executors spin ~50 µs before they park:
//! decode submits one short batch per layer per token, and a condvar
//! wake-up cost ~16–18 µs per batch on a 2-vCPU KVM guest. Counting the
//! caller keeps the spinners from outnumbering the cores.
//!
//! ## Determinism
//!
//! [`Runtime::par_map`] / [`Runtime::par_tiles`] partition work into a
//! *fixed* set of indexed tasks that depends only on the input (never on
//! the worker count), run each task's pure function independently, and
//! merge results in index order. Because floating-point reductions happen
//! inside a task — never across tasks in scheduling order — the output is
//! bit-identical to a serial sweep regardless of how many workers execute
//! it or how work gets stolen. The equivalence tests in
//! `turbo-attention` pin this at 1, 2, and N workers.
//!
//! ## Nesting and deadlock freedom
//!
//! A submitting thread does not sleep while its batch runs: it *helps*,
//! draining queued tasks (its own batch's or anyone else's) until its
//! completion latch drops. A pool worker that submits a nested batch
//! becomes a helper the same way, so nested `par_map` calls (e.g. head-
//! level parallelism over tile-level parallelism) cannot deadlock even on
//! a single-worker pool.
//!
//! ## Instrumentation
//!
//! The pool counts spawned workers, executed tasks, and steals into a
//! [`turbo_robust::HealthStats`] registry ([`Runtime::health`]) and keeps
//! richer gauges (per-task wall time, peak queue depth, peak concurrent
//! executors, helping submitters included) in a [`RuntimeSnapshot`]. The worker-spawn counter is the
//! regression guard that the pool never exceeds its configured size.

//! ## Layer pipeline
//!
//! [`LayerPipeline`] layers a dependency-graph executor on top of
//! [`Runtime::scope`]'s dynamic task spawning: heterogeneous work classes
//! ([`WorkClass`] — prefill chunks, decode steps, WAL commits,
//! checkpoints) tagged per layer, released to the pool the moment their
//! dependency edges drop. Layer `k+1`'s prefill overlaps layer `k`'s
//! decode while per-layer token order — and the WAL's one-record-per-token
//! group commit — stay exact, because they are edges, not conventions.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod pipeline;
mod pool;

pub use pipeline::{LayerPipeline, PipelineStats, TaskId, WorkClass};
pub use pool::{global, worker_count_from, Runtime, RuntimeSnapshot, Scope, ENV_WORKERS};

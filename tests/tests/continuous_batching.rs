//! Property and chaos coverage for the continuous-batching scheduler
//! (`gpusim::sched`) — the serving front end every robust path now runs
//! on.
//!
//! * **Budget invariants** — across seeded episodes with randomized
//!   budgets, every engine step respects the per-step prefill-token
//!   budget, the reserved total-token budget, and the batch-size cap.
//! * **Exact deadline sheds** — the ledger always balances, every
//!   deadline event is mirrored in `HealthStats`, and truncations only
//!   happen past the deadline.
//! * **Chaos through the new path** — replica kills with WAL tears and
//!   rebuilds run on scheduler-backed serving with tight budgets, and
//!   the exactly-once / zero-token-loss contracts still hold, bit-
//!   identically across worker counts.
//! * **Scale** — thousands of concurrent sequences through one
//!   scheduler, the regime the TurboAttention throughput claims target.

use turbo_gpusim::{
    run_replica_set_on, simulate_serving_continuous, AttnMethod, GpuSpec, ModelGeometry,
    ReplicaSetConfig, SchedulerConfig, ServingPolicy, WorkloadSpec,
};
use turbo_robust::{ChaosConfig, ChaosPlan, HealthEvent, HealthStats};

fn setup() -> (GpuSpec, ModelGeometry) {
    (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
}

/// Derives a scheduler config + workload + policy from one seed, varying
/// every budget the property suite must exercise.
fn episode(seed: u64) -> (SchedulerConfig, ServingPolicy, Vec<turbo_gpusim::RequestSpec>) {
    let chunk = 64 << (seed % 4); // 64..512
    let cfg = SchedulerConfig {
        prefill_chunk: chunk,
        max_batch_prefill_tokens: chunk * (1 + (seed % 5) as usize),
        max_batch_total_tokens: if seed.is_multiple_of(3) {
            usize::MAX
        } else {
            4096 + (seed % 7) as usize * 2048
        },
        max_waiting_tokens: (seed % 6) as usize,
        waiting_served_ratio: 0.5 + (seed % 8) as f64 * 0.25,
        max_batch_size: 4 + (seed % 29) as usize,
    };
    let policy = ServingPolicy {
        deadline: if seed.is_multiple_of(2) { f64::INFINITY } else { 4.0 },
        sched: cfg,
        ..ServingPolicy::default()
    };
    let reqs = WorkloadSpec {
        n: 12 + (seed % 21) as usize,
        rate: 2.0 + (seed % 9) as f64,
        prompt: 128 + (seed % 4) as usize * 512,
        gen: 8 + (seed % 48) as usize,
        seed,
    }
    .requests();
    (cfg, policy, reqs)
}

#[test]
fn budgets_hold_on_every_step_across_seeded_episodes() {
    let (gpu, geom) = setup();
    for ep in 0..24u64 {
        let seed = 0xBA7C_4000 + ep;
        let (cfg, policy, reqs) = episode(seed);
        let health = HealthStats::new();
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::Turbo { kv_bits: 4.0 },
            &reqs,
            &policy,
            None,
            Some(&health),
        );
        let s = &stats.serving;
        assert_eq!(
            s.completed + s.truncated + s.rejected,
            reqs.len(),
            "seed {seed}: ledger must balance"
        );
        for step in &stats.steps {
            assert!(
                step.prefill_tokens <= cfg.max_batch_prefill_tokens,
                "seed {seed} step {}: prefill {} over budget {}",
                step.index,
                step.prefill_tokens,
                cfg.max_batch_prefill_tokens
            );
            assert!(
                step.reserved_tokens <= cfg.max_batch_total_tokens,
                "seed {seed} step {}: reserved {} over budget {}",
                step.index,
                step.reserved_tokens,
                cfg.max_batch_total_tokens
            );
            assert!(
                step.batch <= cfg.max_batch_size,
                "seed {seed} step {}: batch {} over cap {}",
                step.index,
                step.batch,
                cfg.max_batch_size
            );
            assert!(step.duration > 0.0, "steps always advance time");
        }
        assert!(stats.peak_step_prefill_tokens <= cfg.max_batch_prefill_tokens);
        assert_eq!(stats.streamed_tokens, s.generated_tokens);
        // Deadline sheds are exact: every miss is a health event, and the
        // two agree to the count.
        assert_eq!(
            health.count(HealthEvent::DeadlineMiss),
            s.deadline_misses as u64,
            "seed {seed}: health/ledger deadline mismatch"
        );
        // Determinism: the same episode replays bit-identically.
        let again = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::Turbo { kv_bits: 4.0 },
            &reqs,
            &policy,
            None,
            None,
        );
        assert_eq!(stats, again, "seed {seed}: episode must replay exactly");
    }
}

#[test]
fn chaos_kill_and_wal_rebuild_run_through_the_scheduler_path() {
    let (gpu, geom) = setup();
    // Tight scheduler budgets so the chaos episode genuinely exercises
    // chunked prefill + budgeted admission, not an effectively-unbounded
    // batch.
    let policy = ServingPolicy {
        sched: SchedulerConfig {
            prefill_chunk: 128,
            max_batch_prefill_tokens: 256,
            max_batch_total_tokens: 8192,
            max_batch_size: 6,
            ..SchedulerConfig::default()
        },
        ..ServingPolicy::default()
    };
    let rs_cfg = ReplicaSetConfig {
        prefix_tokens: 64,
        prefix_dim: 4,
        policy,
        ..ReplicaSetConfig::default()
    };
    let chaos_cfg = ChaosConfig {
        replicas: 2,
        horizon: 20.0,
        ..ChaosConfig::default()
    };
    let mut kills_seen = 0usize;
    for ep in 0..8u64 {
        let seed = 0xC0B4_7001 + ep * 131;
        let plan = ChaosPlan::generate(seed, &chaos_cfg);
        let reqs = WorkloadSpec {
            n: 10,
            rate: 2.0,
            prompt: 512,
            gen: 16,
            seed,
        }
        .requests();
        let health = HealthStats::new();
        let stats = run_replica_set_on(
            turbo_runtime::global(),
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &plan.events,
            &rs_cfg,
            seed,
            Some(&health),
        );
        // Exactly-once accounting survives the scheduler swap.
        assert_eq!(stats.accounted(), stats.total, "seed {seed}");
        assert_eq!(stats.total, reqs.len());
        // Zero token loss: every killed prefix is replayed or re-prefilled.
        assert_eq!(stats.lost_tokens, 0, "seed {seed}");
        assert_eq!(
            stats.kills * rs_cfg.prefix_tokens,
            stats.recovered_tokens + stats.reprefilled_tokens,
            "seed {seed}: durability ledger"
        );
        assert_eq!(stats.rebuilds, stats.kills, "every kill rebuilds");
        kills_seen += stats.kills;
        // Bit-identical across worker counts on the new path.
        for workers in [1usize, 2, 8] {
            let rt = turbo_runtime::Runtime::with_workers(workers);
            let pooled = run_replica_set_on(
                &rt,
                &gpu,
                &geom,
                AttnMethod::FlashFp16,
                &reqs,
                &plan.events,
                &rs_cfg,
                seed,
                None,
            );
            assert_eq!(stats, pooled, "seed {seed}: {workers} workers diverged");
        }
    }
    assert!(kills_seen > 0, "chaos plans must include kills to test rebuild");
}

#[test]
fn thousands_of_concurrent_sequences_through_one_scheduler() {
    let (gpu, geom) = setup();
    // 2048 short sequences arriving near-simultaneously. At 3-bit
    // resident KV the full 2048 × (32+12)-token reservation fits the
    // device, so the scheduler can hold the entire cohort in flight —
    // the regime the paper's throughput claims target.
    let reqs = WorkloadSpec {
        n: 2048,
        rate: 200_000.0,
        prompt: 32,
        gen: 12,
        seed: 0x7007,
    }
    .requests();
    let policy = ServingPolicy {
        sched: SchedulerConfig {
            prefill_chunk: 32,
            max_batch_prefill_tokens: 8192,
            max_batch_size: 4096,
            ..SchedulerConfig::default()
        },
        ..ServingPolicy::default()
    };
    let stats = simulate_serving_continuous(
        &gpu,
        &geom,
        AttnMethod::Turbo { kv_bits: 3.0 },
        &reqs,
        &policy,
        None,
        None,
    );
    assert_eq!(stats.serving.completed, reqs.len(), "everything completes");
    assert!(
        stats.serving.peak_batch >= 1000,
        "peak concurrency {} must reach four digits",
        stats.serving.peak_batch
    );
    assert_eq!(
        stats.serving.generated_tokens,
        reqs.len() * 12,
        "12 tokens per sequence, exactly"
    );
    // The cohort was genuinely batched, not trickled: far fewer engine
    // steps than sequences.
    assert!(
        stats.steps.len() < reqs.len() / 4,
        "{} steps for {} sequences is serialized, not batched",
        stats.steps.len(),
        reqs.len()
    );
}

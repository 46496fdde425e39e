//! Chaos drill: kills a replica mid-serving, watches the write-ahead log
//! bring it back, and prints the exactly-once ledger.
//!
//! Three acts:
//!   1. a durable single-head set takes a mid-stream crash (the WAL torn
//!      at an arbitrary byte offset) and recovers a bit-identical prefix,
//!   2. a seeded chaos plan — kills, a graceful restart, silent WAL rot,
//!      a memory-pressure spike — runs against a 2-replica serving set
//!      with circuit breakers, hedging, and failover retries,
//!   3. the same episode replays from its seed and lands on the exact
//!      same end state, byte for byte.
//!
//! Run with `cargo run --release --bin chaos_drill`.

use turbo_gpusim::{
    run_replica_set_on, AttnMethod, GpuSpec, ModelGeometry, ReplicaSetConfig, WorkloadSpec,
};
use turbo_kvcache::{DurableLayerSet, KvCacheConfig, LayerWriteAheadLog, NeverCheckpoint};
use turbo_quant::BitWidth;
use turbo_robust::{ChaosConfig, ChaosPlan, HealthEvent, HealthStats};
use turbo_tensor::TensorRng;

fn main() {
    // 1. Crash a durable single-head set mid-write and recover it. 96
    //    tokens go in, a checkpoint lands at 48, and the crash tears the
    //    WAL roughly two thirds of the way through a record.
    let cfg = KvCacheConfig {
        bits: BitWidth::Int4,
        group_size: 16,
        buffer_capacity: 16,
    };
    let data = TensorRng::new(12).normal(96, 8, 0.0, 1.0);
    let mut durable = DurableLayerSet::new(1, 1, 8, cfg, Box::new(NeverCheckpoint));
    for t in 0..96 {
        if t == 48 {
            durable.checkpoint_on(turbo_runtime::global(), None);
        }
        let row = data.row(t);
        durable.try_append_token(&[row], &[row], None).expect("append");
    }
    let (snap, mut wal) = durable.durable_state();
    let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
    let torn_at = boundaries[boundaries.len() * 2 / 3] + 5; // mid-record
    wal.truncate(torn_at);
    let health = HealthStats::new();
    let (back, outcome) = DurableLayerSet::recover_on(
        turbo_runtime::global(),
        1,
        1,
        8,
        cfg,
        Box::new(NeverCheckpoint),
        &snap,
        &wal,
        Some(&health),
    )
    .expect("checkpoint anchors recovery");
    println!(
        "1. crash at WAL byte {torn_at}: checkpoint 48 + {} replayed appends \
         = {} of 96 tokens back, {} torn bytes dropped",
        outcome.wal.map_or(0, |w| w.appends),
        back.tokens(),
        outcome.wal.map_or(0, |w| w.dropped_bytes),
    );
    assert_eq!(back.tokens(), outcome.tokens);

    // 2. A chaos episode against a replica set: the plan is pure data
    //    drawn from a seed; the router handles the rest.
    let seed = 2026;
    let plan = ChaosPlan::generate(
        seed,
        &ChaosConfig {
            replicas: 2,
            horizon: 12.0,
            kills: 2,
            restarts: 1,
            wal_truncations: 1,
            faults: 0,
            pressure_spikes: 1,
            pressure_range: (0.6, 0.9),
            ..ChaosConfig::default()
        },
    );
    println!("2. chaos plan (seed {seed}): {} events", plan.events.len());
    for e in &plan.events {
        println!("   t={:6.2}s  {:?}", e.time, e.action);
    }
    let reqs = WorkloadSpec {
        n: 24,
        rate: 4.0,
        prompt: 1024,
        gen: 32,
        seed,
    }
    .requests();
    let rs_cfg = ReplicaSetConfig {
        prefix_tokens: 64,
        prefix_dim: 4,
        ..ReplicaSetConfig::default()
    };
    let health = HealthStats::new();
    let stats = run_replica_set_on(
        turbo_runtime::global(),
        &GpuSpec::a100_80gb(),
        &ModelGeometry::phi3_medium(),
        AttnMethod::Turbo { kv_bits: 3.0 },
        &reqs,
        &plan.events,
        &rs_cfg,
        seed,
        Some(&health),
    );
    println!(
        "   ledger: {} completed + {} truncated + {} rejected = {} submitted (exactly once)",
        stats.completed, stats.truncated, stats.rejected, stats.total
    );
    println!(
        "   kills {} / rebuilds {} — {} tokens back via WAL replay, {} re-prefilled, {} lost",
        stats.kills,
        stats.rebuilds,
        stats.recovered_tokens,
        stats.reprefilled_tokens,
        stats.lost_tokens
    );
    println!(
        "   failovers {} (hedged {}, hedge saves {}), breaker trips {}",
        stats.failovers,
        stats.hedged,
        stats.hedge_saves,
        health.count(HealthEvent::BreakerOpened)
    );
    assert_eq!(stats.accounted(), stats.total);
    assert_eq!(stats.lost_tokens, 0);

    // 3. Determinism: the same seed replays to the same end state.
    let again = run_replica_set_on(
        turbo_runtime::global(),
        &GpuSpec::a100_80gb(),
        &ModelGeometry::phi3_medium(),
        AttnMethod::Turbo { kv_bits: 3.0 },
        &reqs,
        &plan.events,
        &rs_cfg,
        seed,
        None,
    );
    assert_eq!(stats, again);
    println!("3. replayed episode from seed {seed}: end state identical, bit for bit");
}

//! De-panic regression suite: poisoned serving state must degrade to
//! `Rejected`, never to a panic.
//!
//! The serving and replica layers run inside long-lived fleet loops, so
//! a panic on a weird-but-reachable state (every replica dead, NaN-prone
//! latency comparisons, hedges promoted onto dead backups, zero-width
//! deadlines) would take down the whole control plane. These tests pin
//! the discipline: the hot paths use `total_cmp`/`fold`/`filter` instead
//! of `unwrap()`/`expect()`, and every adversarial configuration lands
//! in the ledger as rejections or truncations.

use turbo_gpusim::{
    run_replica_set_on, AttnMethod, GpuSpec, ModelGeometry, ReplicaSetConfig, WorkloadSpec,
};
use turbo_robust::{ChaosAction, ChaosEvent, HealthStats};

fn setup() -> (GpuSpec, ModelGeometry) {
    (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
}

fn workload(seed: u64) -> Vec<turbo_gpusim::RequestSpec> {
    WorkloadSpec {
        n: 12,
        rate: 3.0,
        prompt: 256,
        gen: 8,
        seed,
    }
    .requests()
}

/// Every replica dies before the first arrival and never comes back
/// within most deadlines: the router faces a fully poisoned set. All
/// requests must land in a terminal bucket — no panic, no ledger leak.
#[test]
fn total_fleet_wipeout_rejects_instead_of_panicking() {
    let (gpu, geom) = setup();
    let cfg = ReplicaSetConfig {
        replicas: 3,
        prefix_tokens: 64,
        prefix_dim: 4,
        ..ReplicaSetConfig::default()
    };
    let events: Vec<ChaosEvent> = (0..3)
        .map(|r| ChaosEvent {
            time: 1e-9,
            action: ChaosAction::KillReplica {
                replica: r,
                wal_cut: 0.5,
            },
        })
        .collect();
    let reqs = workload(0xDEAD);
    let health = HealthStats::new();
    let stats = run_replica_set_on(
        turbo_runtime::global(),
        &gpu,
        &geom,
        AttnMethod::FlashFp16,
        &reqs,
        &events,
        &cfg,
        0xDEAD,
        Some(&health),
    );
    assert_eq!(stats.accounted(), stats.total);
    assert_eq!(stats.total, reqs.len());
    assert_eq!(stats.kills, 3);
    assert_eq!(stats.lost_tokens, 0);
}

/// Hedging with the backup also under fire: the promotion path must use
/// the guarded `filter` route (a dead backup is simply not promoted),
/// and repeated kills across both primaries and backups stay panic-free.
#[test]
fn hedging_onto_dying_backups_stays_panic_free() {
    let (gpu, geom) = setup();
    let cfg = ReplicaSetConfig {
        replicas: 2,
        hedge_threshold: Some(0.05),
        prefix_tokens: 64,
        prefix_dim: 4,
        ..ReplicaSetConfig::default()
    };
    // Alternate kills on both replicas throughout the run so hedges keep
    // promoting onto replicas that are about to die (or already dead).
    let events: Vec<ChaosEvent> = (0..6)
        .map(|i| ChaosEvent {
            time: 0.5 + i as f64 * 0.7,
            action: ChaosAction::KillReplica {
                replica: i % 2,
                wal_cut: 0.3 + 0.1 * i as f64,
            },
        })
        .collect();
    let reqs = workload(0xBEEF);
    let stats = run_replica_set_on(
        turbo_runtime::global(),
        &gpu,
        &geom,
        AttnMethod::FlashFp16,
        &reqs,
        &events,
        &cfg,
        0xBEEF,
        None,
    );
    assert_eq!(stats.accounted(), stats.total);
    assert_eq!(stats.lost_tokens, 0);
    assert_eq!(
        stats.recovered_tokens + stats.reprefilled_tokens,
        stats.kills * cfg.prefix_tokens
    );
}

/// A zero-width deadline rejects every request at admission; the
/// latency-percentile and max-fold paths then run over empty/degenerate
/// sets and must not unwrap.
#[test]
fn zero_width_deadline_rejects_everything_without_panicking() {
    let (gpu, geom) = setup();
    let mut cfg = ReplicaSetConfig {
        replicas: 2,
        prefix_tokens: 64,
        prefix_dim: 4,
        ..ReplicaSetConfig::default()
    };
    cfg.policy.deadline = 1e-12;
    let reqs = workload(0xFEED);
    let stats = run_replica_set_on(
        turbo_runtime::global(),
        &gpu,
        &geom,
        AttnMethod::FlashFp16,
        &reqs,
        &[],
        &cfg,
        0xFEED,
        None,
    );
    assert_eq!(stats.accounted(), stats.total);
    assert_eq!(stats.completed, 0, "nothing can meet a zero deadline");
    // Whatever was served (truncated at the deadline) has a recorded
    // latency; the percentile/max paths survived the degenerate set.
    let served: usize = stats
        .per_replica
        .iter()
        .flatten()
        .map(|r| r.latencies.len())
        .sum();
    assert_eq!(served, stats.completed + stats.truncated);
}

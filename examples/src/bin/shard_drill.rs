//! Shard drill: serves a long context across four shards, kills one
//! mid-episode, and watches the re-shard protocol migrate its slice to
//! the survivors with zero token loss.
//!
//! Four acts:
//!   1. a 32k-token context is partitioned across 4 shards by a
//!      CRC32-framed, versioned shard map (torn map writes are shown to
//!      be rejected, never adopted),
//!   2. a degraded-zone burst makes zone 1 *slow* — latency inflates
//!      4×, WAL rot is silently injected — and the dispatcher hedges
//!      around it without failing anything over (slow ≠ dead),
//!   3. a shard in the rotted zone is killed: its WAL is torn, the
//!      surviving prefix migrates to the survivors at replay speed,
//!      only the lost suffix is re-prefilled, and the map's epoch bump
//!      invalidates every stale pre-migration dequant tile,
//!   4. the faulted episode's context fingerprint and the no-fault
//!      run's are compared bit for bit.
//!
//! Run with `cargo run --release --bin shard_drill`.

use turbo_gpusim::{
    run_sharded_episode, uniform_workload, AttnMethod, GpuSpec, ModelGeometry, ShardMap,
    ShardedConfig,
};
use turbo_robust::{ChaosAction, ChaosEvent, HealthEvent, HealthStats};

fn main() {
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let method = AttnMethod::Turbo { kv_bits: 3.0 };
    let seed = 2026;

    // 1. The shard map: a near-equal contiguous partition, CRC32-framed.
    let config = ShardedConfig {
        shards: 4,
        context_tokens: 32_768,
        // Checkpoint under a 20ms replay ceiling (the knob the fleet's
        // ReplayTuner steers): the WAL carries ~1000 records at any
        // instant, so a kill has real replay *and* real re-prefill.
        replay_budget_secs: Some(0.02),
        ..ShardedConfig::default()
    };
    let map = ShardMap::balanced(config.shards, config.context_tokens);
    println!(
        "1. shard map v{} epoch {}: {} tokens over {} shards",
        map.version, map.epoch, map.total_tokens, config.shards
    );
    for r in &map.assignments {
        println!("   shard {} owns [{:6}, {:6})", r.shard, r.start, r.end());
    }
    let bytes = map.encode();
    let torn = &bytes[..bytes.len() / 2];
    println!(
        "   torn map write ({} of {} bytes): {}",
        torn.len(),
        bytes.len(),
        ShardMap::decode(torn).unwrap_err()
    );

    // 2+3. One episode: a degraded-zone burst at t=0.5 rots zone 1's
    //      WALs and inflates its latency; the kill lands on shard 1
    //      (zone 1) at t=1.5, so recovery sees the compounded tear.
    let chaos = [
        ChaosEvent {
            time: 0.5,
            action: ChaosAction::DegradeZone {
                zone: 1,
                latency_factor: 4.0,
                wal_rot: 0.7,
                duration: 3.0,
            },
        },
        ChaosEvent {
            time: 1.5,
            action: ChaosAction::KillReplica {
                replica: 1,
                wal_cut: 0.9,
            },
        },
    ];
    let reqs = uniform_workload(8, 2.0, 256, 16, seed);
    let health = HealthStats::new();
    let stats = run_sharded_episode(
        &gpu,
        &geom,
        method,
        &reqs,
        &chaos,
        &config,
        seed,
        Some(&health),
    );
    println!(
        "2. degraded zone: {} window(s), {} hedged fan-outs ({} capped), \
         breakers opened: {}",
        stats.degraded_windows,
        stats.hedged,
        stats.hedge_saves,
        health.count(HealthEvent::BreakerOpened)
    );
    println!(
        "3. kill + re-shard: epoch {} after {} kill(s) — {} tokens migrated \
         via WAL replay, {} re-prefilled, {} lost; {} stale tiles purged",
        stats.map_epoch,
        stats.shard_kills,
        stats.migrated_tokens,
        stats.reprefilled_tokens,
        stats.lost_tokens,
        stats.stale_tiles_purged
    );
    for r in &stats.map.assignments {
        println!("   shard {} owns [{:6}, {:6})", r.shard, r.start, r.end());
    }
    println!(
        "   ledger: {} completed + {} truncated + {} rejected = {} submitted (exactly once)",
        stats.completed, stats.truncated, stats.rejected, stats.total
    );
    assert_eq!(stats.accounted(), stats.total);
    assert_eq!(stats.lost_tokens, 0);

    // 4. The faulted episode holds the same logical context as the
    //    no-fault twin, bit for bit.
    let clean = run_sharded_episode(&gpu, &geom, method, &reqs, &[], &config, seed, None);
    assert_eq!(stats.context_crc, clean.context_crc);
    println!(
        "4. context fingerprint {:08x} matches the no-fault run — \
         re-sharding lost nothing",
        stats.context_crc
    );
}

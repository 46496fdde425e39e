//! Crash-cut acceptance suite for sharded long-context re-sharding.
//!
//! The contract under test: when a shard of a long-context episode is
//! killed, tearing its WAL at *any* byte offset, the re-shard protocol
//! recovers a bit-identical common prefix, migrates it to the
//! survivors, re-prefills only the lost suffix, and the episode ends
//! with the exactly-once request ledger, the zero-token-loss ledger,
//! and a context fingerprint identical to the no-fault run — across
//! 2-, 4-, and 8-shard layouts and at 1/2/8 runtime workers.
//!
//! Structure:
//!
//! * an exhaustive layer-set sweep cuts the victim's WAL at every
//!   record boundary plus intra-record offsets and proves recovery is
//!   prefix-consistent, bit for bit, per shard layout;
//! * an episode sweep drives the full re-shard protocol at every
//!   record-boundary cut (plus mid-record tears) and pins the ledgers;
//! * a seeded chaos soak replays generated plans (kills + WAL rot +
//!   degraded zones) through the sharded path, episode count scaled by
//!   `TURBO_RESHARD_EPISODES`;
//! * a long-context acceptance episode (`TURBO_SHARD_TOKENS`, default
//!   131072 tokens over 4 shards) survives a mid-episode kill *and* a
//!   degraded-zone burst bit-identically at 1, 2, and 8 workers.

use turbo_gpusim::{
    run_sharded_episode, run_sharded_episode_on, uniform_workload, AttnMethod, GpuSpec,
    ModelGeometry, RequestSpec, ShardMap, ShardedConfig, ShardedStats,
};
use turbo_kvcache::{DurableLayerSet, LayerWriteAheadLog, RecordBudget};
use turbo_robust::{ChaosAction, ChaosConfig, ChaosEvent, ChaosPlan, HealthEvent, HealthStats};
use turbo_runtime::Runtime;
use turbo_tensor::TensorRng;

fn setup() -> (GpuSpec, ModelGeometry) {
    (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
}

fn method() -> AttnMethod {
    AttnMethod::Turbo { kv_bits: 3.0 }
}

fn cfg(shards: usize, context_tokens: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        context_tokens,
        ..ShardedConfig::default()
    }
}

fn workload() -> Vec<RequestSpec> {
    uniform_workload(8, 2.0, 192, 12, 1234)
}

fn kill(time: f64, shard: usize, wal_cut: f64) -> ChaosEvent {
    ChaosEvent {
        time,
        action: ChaosAction::KillReplica {
            replica: shard,
            wal_cut,
        },
    }
}

/// Rebuilds shard `victim`'s durable slice exactly as
/// `run_sharded_episode` does for `seed`: the canonical context rows of
/// its balanced-map range, with a checkpoint at the slice midpoint so
/// the WAL carries the second half.
fn build_victim_slice(
    config: &ShardedConfig,
    seed: u64,
    victim: usize,
) -> (DurableLayerSet, Vec<usize>, turbo_tensor::Matrix) {
    let context = TensorRng::new(seed ^ 0x5A8D_11E7).normal(
        config.context_tokens,
        config.dim,
        0.0,
        1.0,
    );
    let map = ShardMap::balanced(config.shards, config.context_tokens);
    let slice: Vec<usize> = map
        .assignments
        .iter()
        .filter(|r| r.shard == victim)
        .flat_map(|r| r.start..r.end())
        .collect();
    let cells = config.layers * config.heads;
    let mut durable = DurableLayerSet::new(
        config.layers,
        config.heads,
        config.dim,
        config.cache,
        Box::new(RecordBudget { max_records: 4096 }),
    );
    let half = slice.len() / 2;
    for (i, &t) in slice.iter().enumerate() {
        if i == half {
            durable.checkpoint_on(turbo_runtime::global(), None);
        }
        let row = context.row(t);
        let rows: Vec<&[f32]> = vec![row; cells];
        durable.try_append_token(&rows, &rows, None).unwrap();
    }
    (durable, slice, context)
}

/// Serialized-state equality across every (layer, head) cell.
fn assert_sets_identical(a: &DurableLayerSet, b: &DurableLayerSet, what: &str) {
    assert_eq!(a.tokens(), b.tokens(), "{what}: token counts diverge");
    for l in 0..a.num_layers() {
        for h in 0..a.heads_per_layer() {
            assert_eq!(
                a.layer(l).head(h).to_bytes(),
                b.layer(l).head(h).to_bytes(),
                "{what}: layer {l} head {h} not bit-identical"
            );
        }
    }
}

#[test]
fn every_victim_wal_cut_recovers_a_bit_identical_prefix() {
    let seed = 0xA11CE;
    for shards in [2usize, 4, 8] {
        let config = cfg(shards, 256);
        let (victim, slice, context) = build_victim_slice(&config, seed, 0);
        let cells = config.layers * config.heads;
        let (snap, wal) = victim.durable_state();
        let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
        assert!(
            boundaries.len() > slice.len() / 4,
            "{shards}-shard slice must push real records through the WAL"
        );

        // Reference advanced in lockstep with the recovered prefix; the
        // midpoint checkpoint is replayed at the same token so flush
        // cadence matches the victim's bit for bit.
        let half = slice.len() / 2;
        let mut reference = DurableLayerSet::new(
            config.layers,
            config.heads,
            config.dim,
            config.cache,
            Box::new(RecordBudget { max_records: 4096 }),
        );
        let mut ref_tokens = 0usize;
        let advance_to = |n: usize, reference: &mut DurableLayerSet, from: usize| {
            for (i, &t) in slice.iter().enumerate().take(n).skip(from) {
                if i == half {
                    reference.checkpoint_on(turbo_runtime::global(), None);
                }
                let row = context.row(t);
                let rows: Vec<&[f32]> = vec![row; cells];
                reference.try_append_token(&rows, &rows, None).unwrap();
            }
        };

        let mut last_tokens = 0usize;
        let mut cuts: Vec<usize> = Vec::new();
        for (i, &b) in boundaries.iter().enumerate() {
            cuts.push(b);
            // Torn cuts inside the next record must fall back to this
            // boundary's prefix.
            if i + 1 < boundaries.len() {
                let next = boundaries[i + 1];
                for j in 1..=3usize {
                    let cut = b + j * (next - b) / 4;
                    if cut > b && cut < next {
                        cuts.push(cut);
                    }
                }
            }
        }
        for cut in cuts {
            let (back, outcome) = DurableLayerSet::recover_or_empty(
                config.layers,
                config.heads,
                config.dim,
                config.cache,
                Box::new(RecordBudget { max_records: 4096 }),
                &snap,
                &wal[..cut],
                None,
            );
            assert!(
                outcome.tokens >= last_tokens,
                "{shards}-shard: recovery regressed at cut {cut}"
            );
            assert!(outcome.tokens <= slice.len());
            last_tokens = outcome.tokens;
            advance_to(outcome.tokens, &mut reference, ref_tokens);
            ref_tokens = outcome.tokens;
            assert_sets_identical(
                &back,
                &reference,
                &format!("{shards}-shard cut {cut}"),
            );
        }
        // The clean full log recovers everything.
        let (full, outcome) = DurableLayerSet::recover_or_empty(
            config.layers,
            config.heads,
            config.dim,
            config.cache,
            Box::new(RecordBudget { max_records: 4096 }),
            &snap,
            &wal,
            None,
        );
        assert_eq!(outcome.tokens, slice.len());
        assert_sets_identical(&full, &victim, &format!("{shards}-shard full log"));
    }
}

#[test]
fn episode_reshards_losslessly_at_every_record_boundary_cut() {
    let (gpu, geom) = setup();
    let seed = 0xBEEF;
    let config = cfg(4, 128);
    let reqs = workload();
    let clean = run_sharded_episode(&gpu, &geom, method(), &reqs, &[], &config, seed, None);

    // Derive exact byte cuts from the victim's actual WAL framing, then
    // express each as the fraction the chaos action carries.
    let (victim, _, _) = build_victim_slice(&config, seed, 1);
    let (_, wal) = victim.durable_state();
    let len = wal.len() as f64;
    let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
    let mut cuts: Vec<f64> = Vec::new();
    for (i, &b) in boundaries.iter().enumerate() {
        cuts.push((b as f64 + 0.5) / len); // lands exactly on the boundary
        if i + 1 < boundaries.len() {
            let mid = b + (boundaries[i + 1] - b) / 2;
            if mid > b {
                cuts.push((mid as f64) / len); // torn mid-record
            }
        }
    }
    cuts.push(0.0);
    cuts.push(1.0);

    let victim_tokens = config.context_tokens / config.shards;
    for cut in cuts {
        let stats = run_sharded_episode(
            &gpu,
            &geom,
            method(),
            &reqs,
            &[kill(1.0, 1, cut)],
            &config,
            seed,
            None,
        );
        assert_eq!(stats.shard_kills, 1, "cut {cut}");
        assert_eq!(stats.lost_tokens, 0, "cut {cut}: tokens lost");
        assert_eq!(stats.accounted(), stats.total, "cut {cut}: ledger broken");
        assert_eq!(
            stats.migrated_tokens + stats.reprefilled_tokens,
            victim_tokens,
            "cut {cut}: victim range not fully redistributed"
        );
        assert_eq!(
            stats.context_crc, clean.context_crc,
            "cut {cut}: context fingerprint diverged from the no-fault run"
        );
        assert_eq!(stats.map_epoch, 1, "cut {cut}");
        stats.map.validate(config.shards).unwrap();
    }
}

#[test]
fn layouts_2_4_8_survive_kills_with_identical_fingerprints() {
    let (gpu, geom) = setup();
    let reqs = workload();
    for shards in [2usize, 4, 8] {
        let config = cfg(shards, 256);
        let clean = run_sharded_episode(&gpu, &geom, method(), &reqs, &[], &config, 5, None);
        for cut in [0.0, 0.3, 0.6, 0.9, 1.0] {
            let stats = run_sharded_episode(
                &gpu,
                &geom,
                method(),
                &reqs,
                &[kill(0.8, shards - 1, cut)],
                &config,
                5,
                None,
            );
            assert_eq!(stats.lost_tokens, 0, "{shards}-shard cut {cut}");
            assert_eq!(stats.accounted(), stats.total, "{shards}-shard cut {cut}");
            assert_eq!(
                stats.context_crc, clean.context_crc,
                "{shards}-shard cut {cut}"
            );
            assert_eq!(
                stats.per_shard_tokens.iter().sum::<usize>(),
                config.context_tokens,
                "{shards}-shard cut {cut}"
            );
        }
    }
}

fn episodes() -> usize {
    std::env::var("TURBO_RESHARD_EPISODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

#[test]
fn seeded_chaos_soak_with_degraded_zones() {
    let (gpu, geom) = setup();
    let config = cfg(4, 256);
    let chaos_cfg = ChaosConfig {
        replicas: config.shards,
        horizon: 12.0,
        kills: 1,
        restarts: 1,
        wal_truncations: 1,
        faults: 0,
        pressure_spikes: 1,
        zones: config.zones,
        degraded_zones: 1,
        degrade_duration: 2.0,
        ..ChaosConfig::default()
    };
    let reqs = workload();
    let clean = run_sharded_episode(&gpu, &geom, method(), &reqs, &[], &config, 99, None);
    for ep in 0..episodes() {
        let seed = 0x50AC ^ (ep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan = ChaosPlan::generate(seed, &chaos_cfg);
        let health = HealthStats::new();
        let stats = run_sharded_episode(
            &gpu,
            &geom,
            method(),
            &reqs,
            &plan.events,
            &config,
            99,
            Some(&health),
        );
        assert_eq!(stats.accounted(), stats.total, "episode {ep}");
        assert_eq!(stats.lost_tokens, 0, "episode {ep}");
        assert_eq!(stats.context_crc, clean.context_crc, "episode {ep}");
        assert_eq!(
            stats.per_shard_tokens.iter().sum::<usize>(),
            config.context_tokens,
            "episode {ep}"
        );
        assert_eq!(
            health.count(HealthEvent::ShardResharded),
            stats.reshards as u64,
            "episode {ep}"
        );
        assert_eq!(stats.map_epoch, stats.reshards as u64, "episode {ep}");
        // Degraded zones never kill and never open breakers.
        assert_eq!(
            health.count(HealthEvent::ZoneDegraded),
            stats.degraded_windows as u64,
            "episode {ep}"
        );
        // Every 8th episode: the whole ShardedStats (trace included)
        // must be bit-identical across worker counts.
        if ep % 8 == 0 {
            let rt = Runtime::with_workers(2);
            let again = run_sharded_episode_on(
                &rt,
                &gpu,
                &geom,
                method(),
                &reqs,
                &plan.events,
                &config,
                99,
                None,
            );
            let base = run_sharded_episode(
                &gpu, &geom, method(), &reqs, &plan.events, &config, 99, None,
            );
            assert_eq!(base, again, "episode {ep}: workers diverge");
        }
    }
}

fn acceptance_tokens() -> usize {
    std::env::var("TURBO_SHARD_TOKENS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(131_072)
}

#[test]
fn long_context_acceptance_kill_plus_degraded_burst_at_1_2_8_workers() {
    let (gpu, geom) = setup();
    let tokens = acceptance_tokens();
    let config = ShardedConfig {
        shards: 4,
        context_tokens: tokens,
        ..ShardedConfig::default()
    };
    let reqs = uniform_workload(6, 1.5, 256, 16, 77);
    // A degraded-zone burst rots zone 1's WALs and inflates its
    // latency, then the kill lands on a zone-1 shard mid-episode: the
    // re-shard must absorb the compounded tear.
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
        kill(1.5, 1, 0.9),
    ];

    let clean = run_sharded_episode(&gpu, &geom, method(), &reqs, &[], &config, 31, None);
    let runs: Vec<ShardedStats> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let rt = Runtime::with_workers(w);
            run_sharded_episode_on(
                &rt, &gpu, &geom, method(), &reqs, &chaos, &config, 31, None,
            )
        })
        .collect();

    for (i, stats) in runs.iter().enumerate() {
        assert_eq!(stats.shard_kills, 1, "run {i}");
        assert_eq!(stats.reshards, 1, "run {i}");
        assert_eq!(stats.degraded_windows, 1, "run {i}");
        assert_eq!(stats.lost_tokens, 0, "run {i}: tokens lost");
        assert_eq!(stats.accounted(), stats.total, "run {i}: ledger broken");
        assert_eq!(
            stats.migrated_tokens + stats.reprefilled_tokens,
            tokens / 4,
            "run {i}: victim range not redistributed"
        );
        assert!(
            stats.migrated_tokens > 0,
            "run {i}: the torn WAL must still recover a prefix"
        );
        assert_eq!(
            stats.context_crc, clean.context_crc,
            "run {i}: faulted episode diverged from the no-fault twin"
        );
        assert_eq!(
            stats.per_shard_tokens.iter().sum::<usize>(),
            tokens,
            "run {i}"
        );
    }
    assert_eq!(runs[0], runs[1], "1 vs 2 workers diverge");
    assert_eq!(runs[0], runs[2], "1 vs 8 workers diverge");
    assert_eq!(runs[0].trace, runs[2].trace, "traces must be bit-identical");
}

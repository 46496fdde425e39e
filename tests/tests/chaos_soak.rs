//! Deterministic chaos soak: thousands of seeded adversarial episodes
//! against the replicated serving stack.
//!
//! Every episode draws a [`ChaosPlan`] (kills, restarts, silent WAL rot,
//! activation faults, memory-pressure spikes) and a seeded workload from
//! one seed, runs the replica set through it, and asserts the crash
//! -consistency contract:
//!
//! * **exactly-once accounting** — `completed + truncated + rejected`
//!   equals the number of submitted requests;
//! * **zero token loss** — every durable prefix token of every killed
//!   replica is either recovered by snapshot + WAL replay or re-prefilled
//!   (and the ledger proves which);
//! * **engine survival** — PR-1 activation faults scheduled by the plan
//!   are screened by the robust attention engine, never surfacing a
//!   non-finite output;
//! * **per-seed determinism** — re-running an episode with the same seed
//!   reproduces the exact same `ReplicaSetStats`, bit for bit.
//!
//! The episode count defaults to 1000 and can be overridden with the
//! `TURBO_CHAOS_EPISODES` environment variable (CI runs a bounded smoke
//! of 64; soak rigs can turn it up).

use turbo_attention::robust::RobustAttention;
use turbo_attention::TurboConfig;
use turbo_gpusim::{
    run_replica_set_on, AttnMethod, GpuSpec, ModelGeometry, ReplicaSetConfig, WorkloadSpec,
};
use turbo_robust::{ChaosAction, ChaosConfig, ChaosPlan, FaultInjector, HealthEvent, HealthStats};
use turbo_tensor::TensorRng;

fn episodes() -> usize {
    std::env::var("TURBO_CHAOS_EPISODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000)
}

#[test]
fn chaos_soak_holds_exactly_once_and_zero_loss_across_seeded_episodes() {
    let gpu = GpuSpec::a100_80gb();
    let geom = ModelGeometry::phi3_medium();
    let chaos_cfg = ChaosConfig {
        replicas: 2,
        horizon: 20.0,
        ..ChaosConfig::default()
    };
    let rs_cfg = ReplicaSetConfig {
        prefix_tokens: 64,
        prefix_dim: 4,
        ..ReplicaSetConfig::default()
    };
    let n = episodes();
    assert!(n > 0, "soak needs at least one episode");
    let mut total_kills = 0usize;
    let mut total_recovered = 0usize;
    let mut total_reprefilled = 0usize;
    for ep in 0..n {
        let seed = 0xC4A0_5000 + ep as u64;
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

        // Exactly-once: every submitted request lands in exactly one
        // terminal bucket.
        assert_eq!(stats.total, reqs.len(), "episode {ep}");
        assert_eq!(stats.accounted(), stats.total, "episode {ep}: ledger leak");

        // Zero token loss beyond what the plan itself declares: each of
        // the `kills × 64` durable prefix tokens is recovered or
        // re-prefilled, never silently dropped.
        assert_eq!(stats.lost_tokens, 0, "episode {ep}: silent token loss");
        assert_eq!(
            stats.recovered_tokens + stats.reprefilled_tokens,
            stats.kills * rs_cfg.prefix_tokens,
            "episode {ep}: durability ledger does not balance"
        );
        assert_eq!(stats.rebuilds, stats.kills, "episode {ep}");
        assert!(
            stats.makespan.is_finite() && stats.makespan >= 0.0,
            "episode {ep}"
        );
        assert!(stats.generated_tokens <= reqs.len() * 16, "episode {ep}");

        // Health telemetry agrees with the ledger.
        assert_eq!(
            health.count(HealthEvent::ReplicaKilled),
            stats.kills as u64,
            "episode {ep}"
        );
        assert_eq!(
            health.count(HealthEvent::ReplicaRebuilt),
            stats.rebuilds as u64,
            "episode {ep}"
        );
        if stats.kills > 0 {
            // Every rebuild either replays the WAL or (when the tear hit
            // the WAL header) explicitly drops it — never neither.
            assert!(
                health.count(HealthEvent::WalReplay) + health.count(HealthEvent::WalRecordDropped)
                    >= stats.kills as u64,
                "episode {ep}: rebuilds must replay or drop the WAL"
            );
        }
        total_kills += stats.kills;
        total_recovered += stats.recovered_tokens;
        total_reprefilled += stats.reprefilled_tokens;

        // Engine-level chaos: the plan's activation faults are applied
        // straight to the robust attention engine mid-decode (the PR-1
        // fault class); outputs must stay finite with every token cached.
        let faults: Vec<usize> = plan
            .engine_events()
            .iter()
            .filter_map(|e| match e.action {
                ChaosAction::InjectFault { elements } => Some(elements),
                _ => None,
            })
            .collect();
        if !faults.is_empty() {
            let robust = RobustAttention::new(TurboConfig::default());
            let mut rng = TensorRng::new(seed ^ 0xFA17);
            let mut inj = FaultInjector::new(seed ^ 0xFA18);
            let mut cache = robust.new_cache(8);
            let steps = faults.len() * 2;
            for t in 0..steps {
                let mut q = rng.normal(1, 8, 0.0, 1.0);
                let k = rng.normal(1, 8, 0.0, 1.0);
                let v = rng.normal(1, 8, 0.0, 1.0);
                if t % 2 == 0 {
                    inj.inject_non_finite(&mut q, faults[t / 2]);
                }
                let out = robust
                    .try_decode(q.row(0), k.row(0), v.row(0), &mut cache)
                    .expect("decode must survive injected faults");
                assert!(
                    out.iter().all(|x| x.is_finite()),
                    "episode {ep}: non-finite output at step {t}"
                );
            }
            assert_eq!(cache.len(), steps, "episode {ep}: token dropped");
        }

        // Deterministic replay: a sampled subset of episodes re-runs and
        // must reproduce the end state bit for bit.
        if ep % 16 == 0 {
            let again = run_replica_set_on(
                turbo_runtime::global(),
                &gpu,
                &geom,
                AttnMethod::FlashFp16,
                &reqs,
                &plan.events,
                &rs_cfg,
                seed,
                None,
            );
            assert_eq!(stats, again, "episode {ep}: seed replay diverged");
        }
    }
    // The soak must actually exercise the crash path, and the WAL must
    // carry real weight: across all episodes, replay recovers tokens.
    assert!(total_kills > 0, "the chaos plans never killed anything");
    assert!(total_recovered > 0, "WAL replay never recovered a token");
    assert_eq!(
        total_recovered + total_reprefilled,
        total_kills * rs_cfg.prefix_tokens
    );
}

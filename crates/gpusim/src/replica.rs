//! Replicated fault-tolerant serving: failover, circuit breakers, and
//! WAL-backed replica rebuild.
//!
//! [`run_replica_set_on`] simulates N replicas of the continuous-batching
//! serving engine ([`crate::sched`]) behind one router. The router walks
//! the merged, deterministic timeline of request arrivals and chaos
//! events ([`ChaosEvent`], generated by `turbo-robust`) that it shares
//! with the sharded episode (`gpusim::router`):
//!
//! * each request is dispatched to the least-loaded **up** replica whose
//!   **circuit breaker** admits traffic ([`CircuitBreaker`]:
//!   closed → open after consecutive failures → half-open after a
//!   cooldown → closed on a successful probe);
//! * when the estimated queue wait exceeds the hedge threshold, the
//!   request is **hedged**: a standby replica is registered at dispatch
//!   time, and if the primary dies mid-flight the request promotes to the
//!   standby immediately, skipping the retry backoff;
//! * a **kill** tears the replica's write-ahead log at an arbitrary byte
//!   offset; the replica rebuilds **all layers from one log** — snapshot
//!   plus group-commit WAL replay
//!   ([`turbo_kvcache::DurableLayerSet::recover_or_empty`]) — and
//!   re-prefills only the lost suffix, then rejoins;
//! * in-flight requests of a killed replica **fail over** with jittered
//!   exponential backoff, bounded by a retry budget.
//!
//! Once routing is settled, each replica's assigned requests run through
//! the full robust serving simulation as pooled tasks on
//! `turbo_runtime` — one task per replica — and the results are merged
//! into a [`ReplicaSetStats`] ledger in which every request is accounted
//! **exactly once**: `completed + truncated + rejected == total` (the
//! run asserts this). Token durability is likewise exact:
//! `kills × prefix_tokens == recovered + reprefilled` and
//! [`ReplicaSetStats::lost_tokens`] is always zero.
//!
//! Everything is a pure function of `(inputs, seed)` — the jitter RNG is
//! seeded, chaos plans are seeded, and the runtime merge is index-ordered
//! — so a chaos episode replays bit-identically, which is what the soak
//! harness asserts per seed.

use crate::geometry::ModelGeometry;
use crate::hw::GpuSpec;
use crate::method::AttnMethod;
use crate::router::{
    checkpoint_policy, rebuild_secs, rot, tear, CostModel, Flight, Pending, Timeline, Unit,
};
use crate::serving::{RequestSpec, RobustServingStats, ServingPolicy};
use turbo_kvcache::{DurableLayerSet, KvCacheConfig};
use turbo_robust::{ChaosAction, ChaosEvent, HealthEvent, HealthStats};
use turbo_tensor::TensorRng;

/// Circuit-breaker tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Seconds the breaker stays open before probing (half-open).
    pub cooldown: f64,
    /// Dispatches allowed while half-open before the breaker decides.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    /// Trip after 3 consecutive failures, probe after 5 s, one probe.
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: 5.0,
            half_open_probes: 1,
        }
    }
}

/// Circuit-breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows.
    Closed,
    /// Tripped: no traffic until the cooldown elapses.
    Open,
    /// Probing: a bounded number of requests may test the replica.
    HalfOpen,
}

/// Per-replica circuit breaker.
///
/// `Closed → Open` after `failure_threshold` consecutive failures;
/// `Open → HalfOpen` once `cooldown` seconds pass; `HalfOpen → Closed`
/// on a successful probe, `HalfOpen → Open` on a failed one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: f64,
    probes_left: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0.0,
            probes_left: 0,
        }
    }

    /// Current state (after any cooldown transition due at `now` — call
    /// [`CircuitBreaker::admits`] to apply it).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a dispatch at `now` may proceed. An open breaker past its
    /// cooldown transitions to half-open; half-open admits are limited to
    /// the configured probe budget.
    pub fn admits(&mut self, now: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now - self.opened_at >= self.config.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.probes_left = self.config.half_open_probes;
                    self.admits(now)
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_left > 0 {
                    self.probes_left -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A dispatched request succeeded: close and reset.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// A dispatched request (or the replica itself) failed at `now`.
    /// Records [`HealthEvent::BreakerOpened`] when this trips the breaker.
    pub fn on_failure(&mut self, now: f64, health: Option<&HealthStats>) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::Closed => self.consecutive_failures >= self.config.failure_threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at = now;
            if let Some(h) = health {
                h.record(HealthEvent::BreakerOpened);
            }
        }
    }
}

/// Tuning for a replica set run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaSetConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Per-replica serving policy (deadlines, admission backoff, ...).
    pub policy: ServingPolicy,
    /// Circuit-breaker tuning shared by every replica.
    pub breaker: BreakerConfig,
    /// Base failover backoff in seconds; doubles per attempt, with
    /// deterministic jitter in `[0.5, 1.5)`.
    pub retry_base: f64,
    /// Re-dispatch attempts tolerated per request before rejection.
    pub max_failovers: u32,
    /// Estimated queue wait (seconds) above which a dispatch registers a
    /// standby hedge replica. `None` disables hedging.
    pub hedge_threshold: Option<f64>,
    /// Tokens in the shared durable prefix cache each replica carries
    /// (the same logical tokens live in every layer/head cell).
    pub prefix_tokens: usize,
    /// Layers in the durable prefix cache — all rebuilt from one
    /// group-commit WAL.
    pub prefix_layers: usize,
    /// Heads per layer in the durable prefix cache.
    pub prefix_heads: usize,
    /// Head dimension of the prefix cache.
    pub prefix_dim: usize,
    /// Quantization config of the prefix cache.
    pub cache: KvCacheConfig,
    /// WAL replay speed during rebuild, tokens per second.
    pub wal_replay_rate: f64,
    /// Re-prefill speed for tokens the WAL could not recover, tokens per
    /// second (much slower than replay — that asymmetry is why the WAL
    /// pays for itself).
    pub reprefill_rate: f64,
    /// Failure-domain count degraded-zone chaos groups replicas into
    /// (`replica % zones`); must match the chaos plan's zone layout.
    pub zones: usize,
    /// When set, checkpoint cadence runs under a replay-bounded policy:
    /// checkpoints fire whenever estimated WAL replay (at
    /// `wal_replay_rate`) would exceed this many seconds. `None` keeps
    /// the static record-budget default. The control plane drives this
    /// knob per epoch from a [`turbo_robust::ReplayTuner`].
    pub replay_budget_secs: Option<f64>,
}

impl Default for ReplicaSetConfig {
    /// Two replicas, hedging past 1 s of queue wait, a 128-token durable
    /// prefix, and WAL replay 10× faster than re-prefill.
    fn default() -> Self {
        Self {
            replicas: 2,
            policy: ServingPolicy::default(),
            breaker: BreakerConfig::default(),
            retry_base: 0.1,
            max_failovers: 4,
            hedge_threshold: Some(1.0),
            prefix_tokens: 128,
            prefix_layers: 2,
            prefix_heads: 2,
            prefix_dim: 8,
            cache: KvCacheConfig {
                group_size: 16,
                buffer_capacity: 16,
                ..KvCacheConfig::default()
            },
            wal_replay_rate: 50_000.0,
            reprefill_rate: 5_000.0,
            zones: 2,
            replay_budget_secs: None,
        }
    }
}

/// Exactly-once ledger and durability accounting of a replica-set run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplicaSetStats {
    /// Requests submitted.
    pub total: usize,
    /// Requests that generated every token.
    pub completed: usize,
    /// Requests truncated by their deadline.
    pub truncated: usize,
    /// Requests rejected (serving-level plus routing-level); together
    /// with `completed + truncated` this always equals `total`.
    pub rejected: usize,
    /// Rejections issued by the router itself (retry budget exhausted).
    pub routing_rejected: usize,
    /// Re-dispatches after a replica failure.
    pub failovers: usize,
    /// Requests that registered a standby hedge at dispatch.
    pub hedged: usize,
    /// Hedged requests that promoted to their standby after a kill,
    /// skipping the retry backoff.
    pub hedge_saves: usize,
    /// Replica kills applied.
    pub kills: usize,
    /// Graceful restarts applied.
    pub restarts: usize,
    /// Rebuilds completed (every kill rebuilds).
    pub rebuilds: usize,
    /// Prefix tokens recovered from snapshot + WAL replay across all
    /// rebuilds.
    pub recovered_tokens: usize,
    /// Prefix tokens the WAL could not recover, re-prefilled from source.
    pub reprefilled_tokens: usize,
    /// Prefix tokens neither recovered nor re-prefilled — always zero.
    pub lost_tokens: usize,
    /// Tokens generated across all replicas.
    pub generated_tokens: usize,
    /// Latest finish time across replicas.
    pub makespan: f64,
    /// Per-replica serving stats (`None` when a replica served nothing).
    pub per_replica: Vec<Option<RobustServingStats>>,
}

impl ReplicaSetStats {
    /// `completed + truncated + rejected` — the exactly-once check.
    pub fn accounted(&self) -> usize {
        self.completed + self.truncated + self.rejected
    }
}

struct Replica {
    /// Time from which the replica accepts dispatches (down before it).
    up_at: f64,
    busy_until: f64,
    breaker: CircuitBreaker,
    durable: DurableLayerSet,
    /// Pending silent WAL rot (fraction of the log that survives),
    /// discovered at the next crash recovery.
    rot_cut: Option<f64>,
    flights: Vec<Flight>,
}

impl Replica {
    fn is_up(&self, now: f64) -> bool {
        now >= self.up_at
    }
}

/// Runs a replica set on `rt` (pass [`turbo_runtime::global`] for the
/// shared pool). See the module docs.
///
/// # Panics
///
/// Panics on caller errors (empty/unsorted `requests`, zero replicas,
/// non-positive rates) and if the exactly-once ledger or zero-token-loss
/// invariant would be violated (a simulator bug, not an input error).
#[allow(clippy::too_many_arguments)]
pub fn run_replica_set_on(
    rt: &turbo_runtime::Runtime,
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    requests: &[RequestSpec],
    chaos: &[ChaosEvent],
    config: &ReplicaSetConfig,
    seed: u64,
    health: Option<&HealthStats>,
) -> ReplicaSetStats {
    assert!(config.replicas > 0, "need at least one replica");
    let mut timeline = Timeline::new(
        requests,
        chaos,
        seed ^ 0x00C3_A050,
        config.retry_base,
        config.max_failovers,
    );
    assert!(
        config.wal_replay_rate > 0.0 && config.reprefill_rate > 0.0,
        "rebuild rates must be positive"
    );
    assert!(
        config.prefix_tokens > 0 && config.prefix_dim > 0,
        "prefix cache must be non-empty"
    );
    assert!(
        config.prefix_layers > 0 && config.prefix_heads > 0,
        "prefix cache geometry must be non-empty"
    );

    // Canonical prefix every replica carries; rebuilds re-prefill lost
    // suffixes from this source of truth. Every layer/head cell holds the
    // same logical tokens, committed as one group record per token.
    let prefix_data =
        TensorRng::new(seed ^ 0x9E37_79B9).normal(config.prefix_tokens, config.prefix_dim, 0.0, 1.0);
    let cells = config.prefix_layers * config.prefix_heads;
    let make_policy = || checkpoint_policy(config.replay_budget_secs, config.wal_replay_rate, 256);
    let build_durable = || {
        let mut d = DurableLayerSet::new(
            config.prefix_layers,
            config.prefix_heads,
            config.prefix_dim,
            config.cache,
            make_policy(),
        );
        let half = config.prefix_tokens / 2;
        for t in 0..config.prefix_tokens {
            if t == half {
                // Steady state: snapshot covers the first half, the WAL
                // holds the rest — so a kill exercises real replay.
                d.checkpoint_on(rt, None);
            }
            let row = prefix_data.row(t);
            let rows: Vec<&[f32]> = vec![row; cells];
            let _ = d.try_append_token(&rows, &rows, None);
        }
        d
    };

    let mut replicas: Vec<Replica> = (0..config.replicas)
        .map(|_| Replica {
            up_at: 0.0,
            busy_until: 0.0,
            breaker: CircuitBreaker::new(config.breaker),
            durable: build_durable(),
            rot_cut: None,
            flights: Vec::new(),
        })
        .collect();

    let cost = CostModel { gpu, geom, method };
    let mut stats = ReplicaSetStats {
        total: requests.len(),
        ..ReplicaSetStats::default()
    };
    let mut pressure = config.policy.hbm_usable_fraction;

    // ------------------------------------------------- phase 1: routing --
    while let Some((now, item)) = timeline.pop() {
        match item {
            Pending::Dispatch(req) => {
                // Candidates: up replicas whose breaker admits traffic.
                let mut candidates: Vec<usize> = Vec::new();
                for (i, r) in replicas.iter_mut().enumerate() {
                    if r.is_up(now) && r.breaker.admits(now) {
                        candidates.push(i);
                    }
                }
                candidates.sort_by(|&a, &b| {
                    let la = replicas[a].busy_until.max(now);
                    let lb = replicas[b].busy_until.max(now);
                    // total_cmp: a poisoned load must skew routing, not
                    // panic it (NaN sorts last, so a poisoned replica is
                    // simply the least-preferred candidate).
                    la.total_cmp(&lb).then(a.cmp(&b))
                });
                let Some(primary) = candidates.first().copied() else {
                    timeline.retry_or_reject(now, req, health);
                    continue;
                };
                let wait = replicas[primary].busy_until.max(now) - now;
                let backup = match config.hedge_threshold {
                    Some(h) if wait > h && candidates.len() >= 2 => {
                        stats.hedged += 1;
                        if let Some(hs) = health {
                            hs.record(HealthEvent::RequestHedged);
                        }
                        Some(candidates[1])
                    }
                    _ => None,
                };
                let finish = replicas[primary].busy_until.max(now) + cost.est_service(req);
                replicas[primary].busy_until = finish;
                replicas[primary].breaker.on_success();
                replicas[primary].flights.push(Flight {
                    req,
                    dispatched_at: now,
                    est_finish: finish,
                    backup,
                    kept: true,
                });
            }
            // Only the sharded episode schedules zone restores.
            Pending::Restore { .. } => {}
            Pending::Chaos(action) => match action {
                ChaosAction::KillReplica { replica, wal_cut } => {
                    let i = replica % replicas.len();
                    if !replicas[i].is_up(now) {
                        continue; // already down: the kill hits a corpse
                    }
                    stats.kills += 1;
                    if let Some(hs) = health {
                        hs.record(HealthEvent::ReplicaKilled);
                    }
                    // All layers rebuild from the one group-commit log:
                    // whatever token prefix survives the tear, every
                    // layer/head cell lands on it together.
                    let r = &mut replicas[i];
                    let (mut rebuilt, tokens, _) =
                        tear(&r.durable, &mut r.rot_cut, wal_cut, make_policy(), health);
                    let recovered = tokens.min(config.prefix_tokens);
                    let lost_suffix = config.prefix_tokens - recovered;
                    for t in recovered..config.prefix_tokens {
                        let row = prefix_data.row(t);
                        let rows: Vec<&[f32]> = vec![row; cells];
                        let _ = rebuilt.try_append_token(&rows, &rows, health);
                    }
                    stats.recovered_tokens += recovered;
                    stats.reprefilled_tokens += lost_suffix;
                    r.durable = rebuilt;
                    r.up_at = now
                        + rebuild_secs(
                            recovered,
                            lost_suffix,
                            config.wal_replay_rate,
                            config.reprefill_rate,
                        );
                    r.busy_until = r.up_at;
                    stats.rebuilds += 1;
                    if let Some(hs) = health {
                        hs.record(HealthEvent::ReplicaRebuilt);
                    }
                    // Fail over everything still in the air.
                    let mut redispatch: Vec<Flight> = Vec::new();
                    for f in r.flights.iter_mut() {
                        if f.kept && f.est_finish > now {
                            f.kept = false;
                            redispatch.push(*f);
                        }
                    }
                    r.breaker.on_failure(now, health);
                    for f in redispatch {
                        replicas[i].breaker.on_failure(now, health);
                        // Hedged flights promote to their standby with no
                        // backoff; the standby admits unless it is down or
                        // its breaker refuses.
                        let promoted = f.backup.filter(|&j| {
                            j != i && replicas[j].is_up(now) && replicas[j].breaker.admits(now)
                        });
                        let Some(j) = promoted else {
                            timeline.retry(now, f.req, health);
                            continue;
                        };
                        stats.hedge_saves += 1;
                        let finish = replicas[j].busy_until.max(now) + cost.est_service(f.req);
                        replicas[j].busy_until = finish;
                        replicas[j].breaker.on_success();
                        replicas[j].flights.push(Flight {
                            dispatched_at: now,
                            est_finish: finish,
                            backup: None,
                            kept: true,
                            ..f
                        });
                    }
                }
                ChaosAction::RestartReplica { replica } => {
                    let i = replica % replicas.len();
                    if !replicas[i].is_up(now) {
                        continue;
                    }
                    // Graceful: checkpoint, drain in-flight work, brief
                    // pause, rejoin with nothing lost.
                    replicas[i].durable.checkpoint_on(rt, health);
                    stats.restarts += 1;
                    let pause = 0.05;
                    replicas[i].up_at = now.max(replicas[i].busy_until) + pause;
                    replicas[i].busy_until = replicas[i].up_at;
                }
                ChaosAction::TruncateWal { replica, wal_cut } => {
                    let i = replica % replicas.len();
                    rot(&mut replicas[i].rot_cut, wal_cut);
                }
                ChaosAction::MemoryPressure { usable } => {
                    pressure = pressure.min(usable);
                }
                ChaosAction::DegradeZone {
                    zone,
                    latency_factor,
                    wal_rot,
                    duration,
                } => {
                    // Sick, not dead: every up member of the zone loses the
                    // slow fraction of the window to inflated service time
                    // (queue waits grow, so hedging fires) and its durable
                    // log silently rots — but nothing *fails*, so breakers
                    // must stay closed. Slow ≠ dead.
                    if let Some(hs) = health {
                        hs.record(HealthEvent::ZoneDegraded);
                    }
                    let zones = config.zones.max(1);
                    let stall = duration * (1.0 - 1.0 / latency_factor.max(1.0));
                    for i in (0..replicas.len()).filter(|r| r % zones == zone % zones) {
                        rot(&mut replicas[i].rot_cut, wal_rot);
                        if let Some(hs) = health {
                            hs.record(HealthEvent::DegradedWalRot);
                        }
                        if replicas[i].is_up(now) {
                            replicas[i].busy_until = replicas[i].busy_until.max(now) + stall;
                        }
                    }
                }
                // Engine-level activation faults are applied by the chaos
                // harness directly to the attention engine, not here.
                ChaosAction::InjectFault { .. } => {}
            },
        }
    }
    stats.failovers = timeline.failovers;
    stats.routing_rejected = timeline.routing_rejected;

    // ------------------------------------- phase 2: serve per replica --
    let policy = ServingPolicy {
        hbm_usable_fraction: pressure,
        ..config.policy
    };
    let routed: Vec<Vec<RequestSpec>> = replicas
        .iter()
        .map(|r| {
            r.flights
                .iter()
                .filter(|f| f.kept)
                .map(|f| RequestSpec {
                    arrival: f.dispatched_at,
                    prompt: f.req.prompt,
                    gen: f.req.gen,
                })
                .collect()
        })
        .collect();
    // Each replica's requests fork its prefix sequence.
    let prefix_rows: Vec<&[f32]> = (0..config.prefix_tokens)
        .map(|t| prefix_data.row(t))
        .collect();
    let units: Vec<Option<Unit>> = routed
        .iter()
        .map(|reqs| (!reqs.is_empty()).then(|| (reqs.as_slice(), prefix_rows.clone())))
        .collect();
    stats.per_replica =
        cost.serve_paged(rt, &policy, config.prefix_dim, config.cache, &units, health);

    for s in stats.per_replica.iter().flatten() {
        stats.completed += s.completed;
        stats.truncated += s.truncated;
        stats.rejected += s.rejected;
        stats.generated_tokens += s.generated_tokens;
        stats.makespan = stats.makespan.max(s.makespan);
    }
    stats.rejected += stats.routing_rejected;
    stats.lost_tokens = stats.kills * config.prefix_tokens
        - stats.recovered_tokens
        - stats.reprefilled_tokens;

    assert_eq!(
        stats.accounted(),
        stats.total,
        "exactly-once accounting violated"
    );
    assert_eq!(stats.lost_tokens, 0, "prefix tokens were silently lost");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_robust::{ChaosConfig, ChaosPlan};

    fn setup() -> (GpuSpec, ModelGeometry) {
        (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
    }

    fn workload() -> Vec<RequestSpec> {
        crate::serving::uniform_workload(24, 2.0, 1024, 32, 42)
    }

    /// A FlashAttention-FP16 replica set on the global runtime.
    fn run_global(
        reqs: &[RequestSpec],
        chaos: &[ChaosEvent],
        cfg: &ReplicaSetConfig,
        seed: u64,
        health: Option<&HealthStats>,
    ) -> ReplicaSetStats {
        let (gpu, geom) = setup();
        let (rt, method) = (turbo_runtime::global(), AttnMethod::FlashFp16);
        run_replica_set_on(rt, &gpu, &geom, method, reqs, chaos, cfg, seed, health)
    }

    fn small_config() -> ReplicaSetConfig {
        ReplicaSetConfig {
            prefix_tokens: 64,
            prefix_dim: 4,
            ..ReplicaSetConfig::default()
        }
    }

    #[test]
    fn breaker_walks_its_state_machine() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: 1.0,
            half_open_probes: 1,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits(0.0));
        let h = HealthStats::new();
        b.on_failure(0.0, Some(&h));
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(0.0, Some(&h));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(h.count(HealthEvent::BreakerOpened), 1);
        assert!(!b.admits(0.5), "open within cooldown refuses");
        assert!(b.admits(1.5), "past cooldown: half-open probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admits(1.5), "probe budget spent");
        b.on_failure(1.6, Some(&h));
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert!(b.admits(2.7));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits(2.8));
    }

    #[test]
    fn calm_run_completes_everything_exactly_once() {
        let reqs = workload();
        let stats = run_global(&reqs, &[], &small_config(), 7, None);
        assert_eq!(stats.total, reqs.len());
        assert_eq!(stats.completed, reqs.len());
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.kills, 0);
        assert_eq!(stats.lost_tokens, 0);
        // Both replicas carried load.
        assert!(stats.per_replica.iter().flatten().count() >= 2);
    }

    #[test]
    fn kills_fail_over_and_rebuild_by_wal_replay() {
        let reqs = workload();
        let plan = ChaosPlan::generate(
            11,
            &ChaosConfig {
                replicas: 2,
                horizon: 10.0,
                kills: 2,
                restarts: 0,
                wal_truncations: 1,
                faults: 0,
                pressure_spikes: 0,
                ..ChaosConfig::default()
            },
        );
        let health = HealthStats::new();
        let stats = run_global(&reqs, &plan.events, &small_config(), 11, Some(&health));
        assert_eq!(stats.accounted(), stats.total);
        assert!(stats.kills >= 1, "the plan schedules kills");
        assert_eq!(stats.rebuilds, stats.kills);
        assert_eq!(
            stats.recovered_tokens + stats.reprefilled_tokens,
            stats.kills * 64,
            "every prefix token is recovered or re-prefilled"
        );
        assert_eq!(stats.lost_tokens, 0);
        assert_eq!(health.count(HealthEvent::ReplicaKilled), stats.kills as u64);
        assert_eq!(
            health.count(HealthEvent::ReplicaRebuilt),
            stats.rebuilds as u64
        );
        assert!(health.count(HealthEvent::WalReplay) >= 1);
    }

    #[test]
    fn replica_set_is_deterministic_per_seed_and_worker_count() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let plan = ChaosPlan::generate(23, &ChaosConfig::default());
        let cfg = small_config();
        let run = |rt: &turbo_runtime::Runtime| {
            run_replica_set_on(
                rt,
                &gpu,
                &geom,
                AttnMethod::FlashFp16,
                &reqs,
                &plan.events,
                &cfg,
                23,
                None,
            )
        };
        let baseline = run(&turbo_runtime::Runtime::with_workers(1));
        for workers in [2usize, 8] {
            let rt = turbo_runtime::Runtime::with_workers(workers);
            assert_eq!(baseline, run(&rt), "{workers} workers diverged");
        }
        // And an identical re-run on the global runtime matches too.
        assert_eq!(baseline, run(turbo_runtime::global()));
    }

    #[test]
    fn total_outage_rejects_after_retry_budget() {
        // One replica, killed immediately with a huge rebuild bill.
        let reqs = crate::serving::uniform_workload(4, 10.0, 512, 8, 5);
        let chaos = vec![ChaosEvent {
            time: 1e-6,
            action: ChaosAction::KillReplica {
                replica: 0,
                wal_cut: 0.0,
            },
        }];
        let cfg = ReplicaSetConfig {
            replicas: 1,
            max_failovers: 2,
            retry_base: 0.001,
            prefix_tokens: 64,
            prefix_dim: 4,
            wal_replay_rate: 1e-3, // rebuild takes ~forever relative to retries
            reprefill_rate: 1e-3,
            ..ReplicaSetConfig::default()
        };
        let stats = run_global(&reqs, &chaos, &cfg, 3, None);
        assert_eq!(stats.accounted(), stats.total);
        assert!(stats.routing_rejected > 0, "retry budget must exhaust");
        assert!(stats.failovers > 0);
    }

    #[test]
    fn hedged_requests_promote_without_backoff() {
        // A burst deep enough to queue, then a kill that catches the
        // primary with hedged flights in the air.
        let reqs = crate::serving::uniform_workload(16, 200.0, 2048, 64, 9);
        let kill_at = reqs[2].arrival + 1e-3;
        let chaos = vec![ChaosEvent {
            time: kill_at,
            action: ChaosAction::KillReplica {
                replica: 0,
                wal_cut: 0.5,
            },
        }];
        let cfg = ReplicaSetConfig {
            hedge_threshold: Some(0.0),
            prefix_tokens: 64,
            prefix_dim: 4,
            ..ReplicaSetConfig::default()
        };
        let health = HealthStats::new();
        let stats = run_global(&reqs, &chaos, &cfg, 13, Some(&health));
        assert_eq!(stats.accounted(), stats.total);
        assert!(stats.hedged > 0, "zero threshold hedges queued requests");
        assert_eq!(
            health.count(HealthEvent::RequestHedged),
            stats.hedged as u64
        );
        if stats.kills > 0 && stats.hedge_saves > 0 {
            assert!(stats.hedge_saves <= stats.hedged);
        }
    }
}

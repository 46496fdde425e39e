//! Sharded long-context serving with crash-consistent re-sharding.
//!
//! A 64k–128k-token context is too large for any single replica's paged
//! pool, so its KV cache is partitioned across N **shards**: each shard
//! owns a contiguous slice of the global token range as a durable
//! [`DurableLayerSet`] (group-commit WAL + checkpoint), and the layout
//! is recorded in a CRC32-framed, versioned [`ShardMap`]. Serving is
//! ring-style: every request fans out to all live shards, each computes
//! its partial attention over its slice, and the partials merge exactly
//! (`turbo_attention::merge_shards` semantics) — so the episode ledger
//! must agree across shards in lockstep.
//!
//! **Re-sharding.** When chaos kills a shard, its WAL is torn at an
//! arbitrary byte offset (compounded by any silent rot a degraded zone
//! injected earlier). The deterministic re-shard protocol then:
//!
//! 1. replays the surviving WAL prefix (`recover_or_empty`) to learn
//!    how many of the victim's tokens are recoverable,
//! 2. redistributes the victim's global token range to the survivors in
//!    near-equal contiguous chunks (ascending survivor order) — the
//!    recovered prefix *migrates* at WAL-replay speed, only the lost
//!    suffix is *re-prefilled* from the canonical context at the much
//!    slower re-prefill rate,
//! 3. bumps the shard map's migration **epoch**, which is the
//!    generation key of every per-shard [`DequantTileCache`]: stale
//!    pre-migration tiles become unreachable and are purged,
//! 4. adopts the new map only after an encode → decode → validate
//!    round-trip (crash-consistent: a torn map write leaves the old map
//!    in force).
//!
//! The exactly-once request ledger and zero-token-loss ledger are
//! asserted at the end of every episode, and the logical context
//! content is fingerprinted (`context_crc`, per-token CRCs chained in
//! global token order through the live shard map) so tests can pin a
//! faulted episode bit-identical to its no-fault twin.
//!
//! **Degraded zones.** [`ChaosAction::DegradeZone`] makes a zone *sick*
//! rather than dead: service time inflates by a factor and WAL rot is
//! silently injected, but every request still succeeds. Nothing is
//! failed over for slowness (slow ≠ dead); hedging alone absorbs the
//! latency — the dispatcher hedges a degraded shard's sub-query onto a
//! healthy read path and caps its effective slowdown. Shards carry no
//! circuit breaker: a fan-out needs every live shard, and a killed shard
//! is retired by the re-shard in the same step.
//!
//! The event timeline, retry backoff, WAL tear and phase-2 fan-out are
//! shared with the replica set (`gpusim::router`). Phase 2 serves the
//! kept flights per shard through the continuous-batching scheduler
//! ([`crate::sched::simulate_serving_continuous`] on a paged pool) on
//! pooled runtime tasks with an index-ordered merge, so the whole
//! episode is bit-identical at any worker count.

use crate::geometry::ModelGeometry;
use crate::hw::GpuSpec;
use crate::method::AttnMethod;
use crate::router::{
    checkpoint_policy, rebuild_secs, rot, tear, CostModel, Flight, Pending, Timeline, Unit,
};
use crate::serving::{RequestSpec, RobustServingStats, ServingPolicy};
use turbo_kvcache::{DequantTile, DequantTileCache, DurableLayerSet, KvCacheConfig, LayerKvCache};
use turbo_robust::{crc32, ChaosAction, ChaosEvent, HealthEvent, HealthStats};
use turbo_runtime::{LayerPipeline, TaskId, WorkClass};
use turbo_tensor::{Matrix, TensorRng};

use std::sync::{Arc, Mutex};

/// Magic bytes opening every serialized shard map.
pub const SHARD_MAP_MAGIC: [u8; 4] = *b"TSMP";
/// Current shard-map format version.
pub const SHARD_MAP_VERSION: u16 = 1;

/// One contiguous slice of the global token range owned by one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRange {
    /// Owning shard id.
    pub shard: usize,
    /// First global token of the slice.
    pub start: usize,
    /// Tokens in the slice (always > 0).
    pub len: usize,
}

impl ShardRange {
    /// One-past-the-end global token.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Versioned, CRC32-framed record of which shard owns which slice of
/// the global token range. The `epoch` counts re-shard migrations and
/// doubles as the generation key of every per-shard dequant tile cache,
/// so bumping it invalidates all pre-migration tiles at once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Format version (`SHARD_MAP_VERSION`).
    pub version: u16,
    /// Migration epoch: 0 at initial layout, +1 per re-shard.
    pub epoch: u64,
    /// Global context length the map covers.
    pub total_tokens: usize,
    /// Slices sorted by `start`; together they partition
    /// `[0, total_tokens)` exactly. A shard may own several slices
    /// after migrations.
    pub assignments: Vec<ShardRange>,
}

impl ShardMap {
    /// Initial layout: `total` tokens split into near-equal contiguous
    /// slices, one per shard, ascending shard order, epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `total < shards` (every shard must
    /// own at least one token).
    pub fn balanced(shards: usize, total: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(total >= shards, "need at least one token per shard");
        let base = total / shards;
        let rem = total % shards;
        let mut assignments = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < rem);
            assignments.push(ShardRange {
                shard: s,
                start,
                len,
            });
            start += len;
        }
        Self {
            version: SHARD_MAP_VERSION,
            epoch: 0,
            total_tokens: total,
            assignments,
        }
    }

    /// Structural validation: slices sorted, contiguous from 0, cover
    /// exactly `total_tokens`, every owner below `shards`, no empty
    /// slice.
    pub fn validate(&self, shards: usize) -> Result<(), String> {
        if self.version != SHARD_MAP_VERSION {
            return Err(format!("unsupported shard map version {}", self.version));
        }
        if self.assignments.is_empty() {
            return Err("empty shard map".to_string());
        }
        let mut cursor = 0usize;
        for r in &self.assignments {
            if r.len == 0 {
                return Err(format!("empty slice for shard {}", r.shard));
            }
            if r.shard >= shards {
                return Err(format!("slice owner {} out of range", r.shard));
            }
            if r.start != cursor {
                return Err(format!(
                    "gap or overlap at token {cursor} (slice starts at {})",
                    r.start
                ));
            }
            cursor = r
                .start
                .checked_add(r.len)
                .ok_or_else(|| "slice end overflows".to_string())?;
        }
        if cursor != self.total_tokens {
            return Err(format!(
                "map covers {cursor} of {} tokens",
                self.total_tokens
            ));
        }
        Ok(())
    }

    /// Tokens currently owned by `shard`. Saturates rather than
    /// overflowing on a decoded map that [`ShardMap::validate`] would
    /// reject.
    pub fn tokens_of(&self, shard: usize) -> usize {
        self.assignments
            .iter()
            .filter(|r| r.shard == shard)
            .fold(0, |sum, r| sum.saturating_add(r.len))
    }

    /// Serializes the map with a trailing CRC32 over everything before
    /// it. Layout: magic, version u16, epoch u64, total u64, count u32,
    /// then (shard u32, start u64, len u64) per slice, then CRC32 — all
    /// little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26 + 20 * self.assignments.len());
        out.extend_from_slice(&SHARD_MAP_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.total_tokens as u64).to_le_bytes());
        out.extend_from_slice(&(self.assignments.len() as u32).to_le_bytes());
        for r in &self.assignments {
            out.extend_from_slice(&(r.shard as u32).to_le_bytes());
            out.extend_from_slice(&(r.start as u64).to_le_bytes());
            out.extend_from_slice(&(r.len as u64).to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and checksum-verifies a serialized map. Any torn,
    /// corrupt, or version-skewed artifact is rejected, leaving the
    /// caller's previous map in force — the crash-consistent adoption
    /// rule.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 30 {
            return Err("shard map too short".to_string());
        }
        if bytes[..4] != SHARD_MAP_MAGIC {
            return Err("bad shard map magic".to_string());
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(body) != stored {
            return Err("shard map checksum mismatch".to_string());
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != SHARD_MAP_VERSION {
            return Err(format!("unsupported shard map version {version}"));
        }
        let epoch = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
        let total_tokens = u64::from_le_bytes(bytes[14..22].try_into().unwrap()) as usize;
        let count = u32::from_le_bytes(bytes[22..26].try_into().unwrap()) as usize;
        if body.len() != 26 + 20 * count {
            return Err("shard map length mismatch".to_string());
        }
        let mut assignments = Vec::with_capacity(count);
        for i in 0..count {
            let at = 26 + 20 * i;
            assignments.push(ShardRange {
                shard: u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize,
                start: u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize,
                len: u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize,
            });
        }
        Ok(Self {
            version,
            epoch,
            total_tokens,
            assignments,
        })
    }

    /// Deterministic re-shard: the victim's slices are split into
    /// near-equal contiguous chunks, one per survivor in ascending
    /// survivor order, and the epoch advances. Adjacent same-owner
    /// slices merge, so the map stays minimal.
    ///
    /// # Panics
    ///
    /// Panics if `survivors` is empty or contains the victim.
    pub fn reshard(&self, victim: usize, survivors: &[usize]) -> Self {
        assert!(!survivors.is_empty(), "re-shard needs at least one survivor");
        assert!(
            !survivors.contains(&victim),
            "victim cannot survive itself"
        );
        let victim_tokens: usize = self.tokens_of(victim);
        assert!(victim_tokens > 0, "victim owns no tokens");
        let base = victim_tokens / survivors.len();
        let rem = victim_tokens % survivors.len();
        // Chunk quota per survivor, ascending survivor order.
        let mut quotas: Vec<(usize, usize)> = survivors
            .iter()
            .enumerate()
            .map(|(k, &s)| (s, base + usize::from(k < rem)))
            .collect();
        quotas.retain(|&(_, q)| q > 0);

        let mut assignments: Vec<ShardRange> = Vec::with_capacity(self.assignments.len() + 4);
        let mut qi = 0usize; // current quota index
        let mut taken = 0usize; // tokens the current survivor has taken
        for r in &self.assignments {
            if r.shard != victim {
                assignments.push(*r);
                continue;
            }
            // Carve this victim slice across the remaining quotas.
            let mut start = r.start;
            let mut left = r.len;
            while left > 0 {
                let (owner, quota) = quotas[qi];
                let take = (quota - taken).min(left);
                assignments.push(ShardRange {
                    shard: owner,
                    start,
                    len: take,
                });
                start += take;
                left -= take;
                taken += take;
                if taken == quota {
                    qi += 1;
                    taken = 0;
                }
            }
        }
        assignments.sort_by_key(|r| r.start);
        // Merge adjacent same-owner slices.
        let mut merged: Vec<ShardRange> = Vec::with_capacity(assignments.len());
        for r in assignments {
            match merged.last_mut() {
                Some(last) if last.shard == r.shard && last.end() == r.start => {
                    last.len += r.len;
                }
                _ => merged.push(r),
            }
        }
        Self {
            version: self.version,
            epoch: self.epoch + 1,
            total_tokens: self.total_tokens,
            assignments: merged,
        }
    }
}

/// Tuning for a sharded long-context episode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardedConfig {
    /// Shards the context is partitioned across.
    pub shards: usize,
    /// Global context length in tokens (the whole point: larger than
    /// any single shard could hold).
    pub context_tokens: usize,
    /// Layers in each shard's durable slice.
    pub layers: usize,
    /// Heads per layer.
    pub heads: usize,
    /// Head dimension.
    pub dim: usize,
    /// Quantization config of every shard slice.
    pub cache: KvCacheConfig,
    /// Per-shard serving policy for phase 2 (scheduler deadlines,
    /// admission, HBM fraction).
    pub policy: ServingPolicy,
    /// Base failover backoff in seconds (doubles per attempt, jittered).
    pub retry_base: f64,
    /// Re-dispatch attempts tolerated per request before rejection.
    pub max_failovers: u32,
    /// Fan-out wait (seconds) above which a degraded shard's sub-query
    /// is hedged onto a healthy read path. `None` disables hedging.
    pub hedge_threshold: Option<f64>,
    /// WAL replay speed during re-shard migration, tokens per second.
    pub wal_replay_rate: f64,
    /// Re-prefill speed for tokens the WAL could not recover, tokens
    /// per second.
    pub reprefill_rate: f64,
    /// Failure-domain count shards group into (`shard % zones`).
    pub zones: usize,
    /// Optional replay-bounded checkpoint cadence (see
    /// [`crate::replica::ReplicaSetConfig::replay_budget_secs`]).
    pub replay_budget_secs: Option<f64>,
    /// Byte budget of each shard's dequant tile cache.
    pub tile_budget_bytes: usize,
    /// Resident blocks warmed into each shard's tile cache per epoch.
    pub warm_blocks: usize,
}

impl Default for ShardedConfig {
    /// Four shards over a 4096-token context — small enough for unit
    /// tests, structurally identical to the 128k acceptance scenario.
    fn default() -> Self {
        Self {
            shards: 4,
            context_tokens: 4096,
            layers: 1,
            heads: 2,
            dim: 4,
            cache: KvCacheConfig {
                group_size: 16,
                buffer_capacity: 16,
                ..KvCacheConfig::default()
            },
            policy: ServingPolicy::default(),
            retry_base: 0.1,
            max_failovers: 6,
            hedge_threshold: Some(1.0),
            wal_replay_rate: 50_000.0,
            reprefill_rate: 5_000.0,
            zones: 2,
            replay_budget_secs: None,
            tile_budget_bytes: 1 << 20,
            warm_blocks: 8,
        }
    }
}

/// Ledger and durability accounting of one sharded episode.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedStats {
    /// Requests submitted.
    pub total: usize,
    /// Requests that generated every token.
    pub completed: usize,
    /// Requests truncated by their deadline.
    pub truncated: usize,
    /// Requests rejected (serving-level plus routing-level).
    pub rejected: usize,
    /// Rejections issued by the router (retry budget exhausted).
    pub routing_rejected: usize,
    /// Re-dispatches after a shard failure or unavailable fan-out.
    pub failovers: usize,
    /// Degraded-shard sub-queries hedged onto a healthy read path.
    pub hedged: usize,
    /// Hedges that actually capped a degraded shard's slowdown.
    pub hedge_saves: usize,
    /// Shard kills applied (each one triggers a re-shard).
    pub shard_kills: usize,
    /// Re-shard migrations completed.
    pub reshards: usize,
    /// Final shard-map migration epoch (= re-shards survived).
    pub map_epoch: u64,
    /// Victim tokens recovered from the torn WAL and migrated to
    /// survivors at replay speed.
    pub migrated_tokens: usize,
    /// Victim tokens the WAL could not recover, re-prefilled from the
    /// canonical context at re-prefill speed.
    pub reprefilled_tokens: usize,
    /// Tokens neither migrated nor re-prefilled — always zero.
    pub lost_tokens: usize,
    /// Degraded-zone windows entered.
    pub degraded_windows: usize,
    /// Stale pre-migration tiles purged across all tile caches when the
    /// map epoch bumped.
    pub stale_tiles_purged: usize,
    /// Valid-epoch tile hits observed across all shard tile caches.
    pub tile_hits: u64,
    /// Tile misses across all shard tile caches.
    pub tile_misses: u64,
    /// CRC32 chain of per-token content CRCs in global token order
    /// through the live shard map — the bit-identical-content
    /// fingerprint faulted runs must share with their no-fault twin.
    pub context_crc: u32,
    /// Final shard map.
    pub map: ShardMap,
    /// Tokens resident per shard at the end (index = shard id; retired
    /// shards hold zero).
    pub per_shard_tokens: Vec<usize>,
    /// Tokens generated by the ring-lockstep serve.
    pub generated_tokens: usize,
    /// Latest finish time across shards.
    pub makespan: f64,
    /// `FleetStats`-style trace for bit-exact comparison across runs
    /// and worker counts.
    pub trace: Vec<String>,
    /// Per-shard serving stats (`None` for retired shards or shards
    /// that served nothing).
    pub per_shard: Vec<Option<RobustServingStats>>,
}

impl ShardedStats {
    /// `completed + truncated + rejected` — the exactly-once check.
    pub fn accounted(&self) -> usize {
        self.completed + self.truncated + self.rejected
    }
}

struct Shard {
    up_at: f64,
    busy_until: f64,
    durable: DurableLayerSet,
    /// Pending silent WAL rot (fraction of the log that survives).
    rot_cut: Option<f64>,
    /// Global token ids this shard holds, in append order.
    local_globals: Vec<usize>,
    /// Epoch-keyed memo of resident INT8 expansions.
    tiles: DequantTileCache,
    retired: bool,
}

impl Shard {
    fn is_up(&self, now: f64) -> bool {
        !self.retired && now >= self.up_at
    }
}

/// Appends `tokens` (global indices into `context`) to one shard's
/// durable set through a per-shard [`LayerPipeline`].
///
/// The shard's layers are detached
/// ([`DurableLayerSet::take_layers_for_pipeline`]), every `(token,
/// layer)` cache append becomes a [`WorkClass::PrefillChunk`] task
/// chained along the token axis within its layer (per-cell append order
/// stays deterministic), and each token gets one chained
/// [`WorkClass::WalCommit`] task that logs exactly the record
/// `try_append_token` would have written. Layer `k+1`'s append for one
/// token can overlap layer `k`'s for the next; the pipeline joins at
/// the WAL boundary, not per layer. The WAL bytes and the restored
/// cache state are byte-identical to the serialized append loop at any
/// worker count, so the episode's CRC/ledger invariants are unaffected.
fn pipelined_append_tokens(
    rt: &turbo_runtime::Runtime,
    durable: &mut DurableLayerSet,
    context: &Matrix,
    tokens: &[usize],
    health: Option<&HealthStats>,
) {
    if tokens.is_empty() {
        return;
    }
    let taken = durable.take_layers_for_pipeline();
    let nlayers = taken.len();
    let heads = taken[0].num_heads();
    let layer_cells: Vec<Mutex<LayerKvCache>> = taken.into_iter().map(Mutex::new).collect();
    {
        let committer = Mutex::new(&mut *durable);
        let mut pipeline = LayerPipeline::new();
        let mut prev_in_layer: Vec<Option<TaskId>> = vec![None; nlayers];
        let mut wal_prev: Option<TaskId> = None;
        for &t in tokens {
            let row = context.row(t);
            let mut last = None;
            for (l, cell) in layer_cells.iter().enumerate() {
                let deps: Vec<TaskId> = prev_in_layer[l].into_iter().collect();
                let id = pipeline.task(WorkClass::PrefillChunk, l, &deps, move || {
                    let mut layer = cell.lock().unwrap();
                    for h in 0..heads {
                        layer.head_mut(h).append(row, row);
                    }
                });
                prev_in_layer[l] = Some(id);
                last = Some(id);
            }
            let deps: Vec<TaskId> = last.into_iter().chain(wal_prev).collect();
            let committer = &committer;
            let id = pipeline.task(
                WorkClass::WalCommit,
                nlayers.saturating_sub(1),
                &deps,
                move || {
                    let rows: Vec<&[f32]> = vec![row; nlayers * heads];
                    let _ = committer
                        .lock()
                        .unwrap()
                        .commit_pipelined_token(&rows, &rows, health);
                },
            );
            wal_prev = Some(id);
        }
        pipeline.run_on(rt);
    }
    let layers: Vec<LayerKvCache> = layer_cells
        .into_iter()
        .map(|m| m.into_inner().unwrap())
        .collect();
    durable.restore_layers_from_pipeline(layers, health);
}

/// Runs a sharded episode on the global runtime. See the module docs.
///
/// # Panics
///
/// Panics on caller errors (empty/unsorted requests, too few shards or
/// tokens) and if the exactly-once ledger, the zero-token-loss ledger,
/// the map/ownership agreement, or the cross-shard lockstep invariant
/// would be violated (simulator bugs, not input errors).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_episode(
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    requests: &[RequestSpec],
    chaos: &[ChaosEvent],
    config: &ShardedConfig,
    seed: u64,
    health: Option<&HealthStats>,
) -> ShardedStats {
    run_sharded_episode_on(
        turbo_runtime::global(),
        gpu,
        geom,
        method,
        requests,
        chaos,
        config,
        seed,
        health,
    )
}

/// As [`run_sharded_episode`], but on an explicit runtime (worker-count
/// equivalence tests).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_episode_on(
    rt: &turbo_runtime::Runtime,
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    requests: &[RequestSpec],
    chaos: &[ChaosEvent],
    config: &ShardedConfig,
    seed: u64,
    health: Option<&HealthStats>,
) -> ShardedStats {
    assert!(config.shards >= 2, "sharded serving needs at least 2 shards");
    assert!(
        config.context_tokens >= config.shards,
        "need at least one token per shard"
    );
    let mut timeline = Timeline::new(
        requests,
        chaos,
        seed ^ 0x00C3_A051,
        config.retry_base,
        config.max_failovers,
    );
    assert!(
        config.wal_replay_rate > 0.0 && config.reprefill_rate > 0.0,
        "migration rates must be positive"
    );
    assert!(
        config.layers > 0 && config.heads > 0 && config.dim > 0,
        "shard slice geometry must be non-empty"
    );
    let zones = config.zones.max(1);

    // Canonical context: the logical content the shards collectively
    // hold; re-prefills read lost suffixes from here. Every layer/head
    // cell of a shard carries the same logical tokens.
    let context =
        TensorRng::new(seed ^ 0x5A8D_11E7).normal(config.context_tokens, config.dim, 0.0, 1.0);
    let row_crc = |t: usize| -> u32 {
        let row = context.row(t);
        let mut bytes = Vec::with_capacity(row.len() * 4);
        for x in row {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        crc32(&bytes)
    };

    let make_policy = || checkpoint_policy(config.replay_budget_secs, config.wal_replay_rate, 4096);

    // ------------------------------------------- initial shard layout --
    let mut map = ShardMap::balanced(config.shards, config.context_tokens);
    map.validate(config.shards).expect("balanced map is valid");
    let mut map_bytes = map.encode();

    // Per-token ownership ledger: which shard appended the token last,
    // and the CRC of the row it appended. Reconstructed through the map
    // at the end into the content fingerprint.
    let mut owner_crc: Vec<Option<(usize, u32)>> = vec![None; config.context_tokens];

    let mut shards: Vec<Shard> = Vec::with_capacity(config.shards);
    for s in 0..config.shards {
        let mut durable = DurableLayerSet::new(
            config.layers,
            config.heads,
            config.dim,
            config.cache,
            make_policy(),
        );
        let mut local_globals = Vec::new();
        let slice: Vec<usize> = map
            .assignments
            .iter()
            .filter(|r| r.shard == s)
            .flat_map(|r| r.start..r.end())
            .collect();
        let half = slice.len() / 2;
        pipelined_append_tokens(rt, &mut durable, &context, &slice[..half], None);
        if !slice.is_empty() {
            // Steady state: snapshot covers the first half, the WAL
            // holds the rest — a kill exercises real replay.
            durable.checkpoint_on(rt, None);
        }
        pipelined_append_tokens(rt, &mut durable, &context, &slice[half..], None);
        for &t in &slice {
            owner_crc[t] = Some((s, row_crc(t)));
            local_globals.push(t);
        }
        shards.push(Shard {
            up_at: 0.0,
            busy_until: 0.0,
            durable,
            rot_cut: None,
            local_globals,
            tiles: DequantTileCache::new(config.tile_budget_bytes),
            retired: false,
        });
    }

    // Warm each shard's tile cache at the current epoch.
    let warm = |shard: &mut Shard, epoch: u64, budget: usize| {
        let head = shard.durable.layer(0).head(0);
        let ks = head.resident_blocks();
        let vs = head.resident_value_blocks();
        for (b, (k, v)) in ks.iter().zip(vs).enumerate().take(budget) {
            shard
                .tiles
                .insert(b, epoch, Arc::new(DequantTile::from_blocks(k, v)));
        }
    };
    for shard in shards.iter_mut() {
        warm(shard, map.epoch, config.warm_blocks);
    }

    // ------------------------------------------------- phase 1: timeline --
    let cost = CostModel { gpu, geom, method };
    let mut flights: Vec<Flight> = Vec::new();
    // Per-zone degradation window: (active_until, latency_factor).
    let mut degraded: Vec<Option<(f64, f64)>> = vec![None; zones];
    let mut pressure = config.policy.hbm_usable_fraction;
    let mut killed_tokens = 0usize;
    let mut trace: Vec<String> = Vec::new();
    let mut stats = ShardedStats {
        total: requests.len(),
        completed: 0,
        truncated: 0,
        rejected: 0,
        routing_rejected: 0,
        failovers: 0,
        hedged: 0,
        hedge_saves: 0,
        shard_kills: 0,
        reshards: 0,
        map_epoch: 0,
        migrated_tokens: 0,
        reprefilled_tokens: 0,
        lost_tokens: 0,
        degraded_windows: 0,
        stale_tiles_purged: 0,
        tile_hits: 0,
        tile_misses: 0,
        context_crc: 0,
        map: map.clone(),
        per_shard_tokens: Vec::new(),
        generated_tokens: 0,
        makespan: 0.0,
        trace: Vec::new(),
        per_shard: Vec::new(),
    };

    while let Some((now, item)) = timeline.pop() {
        match item {
            Pending::Dispatch(req) => {
                // A long-context request needs *every* live shard: the
                // context spans all of them and the ring merge is exact
                // only over the full set.
                let live: Vec<usize> = (0..shards.len()).filter(|&s| !shards[s].retired).collect();
                if !live.iter().all(|&s| shards[s].is_up(now)) {
                    timeline.retry_or_reject(now, req, health);
                    continue;
                }
                let est = cost.est_service(req);
                let mut worst = now;
                for &s in &live {
                    let raw_mult = match degraded[s % zones] {
                        Some((until, factor)) if now < until => factor,
                        _ => 1.0,
                    };
                    let mut mult = raw_mult;
                    if raw_mult > 1.0 {
                        let projected = (shards[s].busy_until.max(now) - now) + est * raw_mult;
                        if let Some(h) = config.hedge_threshold {
                            if projected > h {
                                // Slow, not dead: hedge the degraded
                                // sub-query onto a healthy read path
                                // and cap the slowdown.
                                stats.hedged += 1;
                                if let Some(hs) = health {
                                    hs.record(HealthEvent::RequestHedged);
                                }
                                let capped = raw_mult.min(2.0);
                                if capped < raw_mult {
                                    stats.hedge_saves += 1;
                                }
                                mult = capped;
                            }
                        }
                    }
                    let finish = shards[s].busy_until.max(now) + est * mult;
                    shards[s].busy_until = finish;
                    worst = worst.max(finish);
                }
                flights.push(Flight {
                    req,
                    dispatched_at: now,
                    est_finish: worst,
                    backup: None,
                    kept: true,
                });
            }
            Pending::Restore { zone } => {
                if let Some((until, _)) = degraded[zone] {
                    if now >= until {
                        degraded[zone] = None;
                        if let Some(hs) = health {
                            hs.record(HealthEvent::ZoneRestored);
                        }
                        trace.push(format!("t={now:.3} restore zone={zone}"));
                    }
                }
            }
            Pending::Chaos(action) => match action {
                ChaosAction::KillReplica { replica, wal_cut } => {
                    let v = replica % shards.len();
                    let live_count = shards.iter().filter(|s| !s.retired).count();
                    if shards[v].retired || live_count < 2 {
                        // Dead already, or no survivor to re-shard onto.
                        trace.push(format!("t={now:.3} kill shard={v} skipped"));
                        continue;
                    }
                    stats.shard_kills += 1;
                    if let Some(hs) = health {
                        hs.record(HealthEvent::ShardKilled);
                    }
                    // Tear the victim's WAL; silent degraded-zone rot
                    // compounds the damage.
                    let victim = &mut shards[v];
                    let (_, tokens, cut) = tear(
                        &victim.durable,
                        &mut victim.rot_cut,
                        wal_cut,
                        make_policy(),
                        health,
                    );
                    let local = victim.local_globals.len();
                    let recovered = tokens.min(local);
                    let lost = local - recovered;
                    killed_tokens += local;
                    stats.migrated_tokens += recovered;
                    stats.reprefilled_tokens += lost;

                    // Deterministic re-shard with crash-consistent map
                    // adoption: encode → decode → validate, then swap.
                    let survivors: Vec<usize> =
                        (0..shards.len()).filter(|&s| s != v && !shards[s].retired).collect();
                    let proposed = map.reshard(v, &survivors);
                    let encoded = proposed.encode();
                    let adopted = ShardMap::decode(&encoded)
                        .expect("freshly encoded shard map must decode");
                    adopted
                        .validate(config.shards)
                        .expect("re-sharded map must stay a partition");
                    map = adopted;
                    map_bytes = encoded;
                    if let Some(hs) = health {
                        hs.record(HealthEvent::ShardMapEpochBump);
                    }

                    // The epoch bump invalidates every pre-migration
                    // tile: purge stale generations everywhere, then
                    // re-warm the survivors at the new epoch.
                    for s in survivors.iter().copied().chain([v]) {
                        let before = shards[s].tiles.stats().entries;
                        shards[s].tiles.purge_generations_below(map.epoch);
                        stats.stale_tiles_purged += before - shards[s].tiles.stats().entries;
                    }

                    // Physically move the victim's tokens: survivors
                    // append their gained chunks in global order. The
                    // recovered prefix migrates at replay speed; only
                    // the lost suffix pays the re-prefill rate.
                    let victim_globals: std::collections::HashSet<usize> =
                        shards[v].local_globals.iter().copied().collect();
                    shards[v].local_globals.clear();
                    shards[v].retired = true;
                    shards[v].up_at = f64::INFINITY;
                    let rebuild_time = rebuild_secs(
                        recovered,
                        lost,
                        config.wal_replay_rate,
                        config.reprefill_rate,
                    );
                    for r in map.assignments.clone() {
                        if !survivors.contains(&r.shard) {
                            continue;
                        }
                        let gained: Vec<usize> = (r.start..r.end())
                            .filter(|t| victim_globals.contains(t))
                            .collect();
                        pipelined_append_tokens(
                            rt,
                            &mut shards[r.shard].durable,
                            &context,
                            &gained,
                            health,
                        );
                        for &t in &gained {
                            owner_crc[t] = Some((r.shard, row_crc(t)));
                            shards[r.shard].local_globals.push(t);
                        }
                    }
                    for &s in &survivors {
                        shards[s].busy_until = shards[s].busy_until.max(now) + rebuild_time;
                        warm(&mut shards[s], map.epoch, config.warm_blocks);
                    }
                    stats.reshards += 1;
                    if let Some(hs) = health {
                        hs.record(HealthEvent::ShardResharded);
                    }

                    // Everything in the air at kill time fails over.
                    let mut redispatch = 0usize;
                    for f in flights.iter_mut() {
                        if f.kept && f.est_finish > now {
                            f.kept = false;
                            timeline.retry(now, f.req, health);
                            redispatch += 1;
                        }
                    }
                    trace.push(format!(
                        "t={now:.3} kill shard={v} cut={cut:.4} recovered={recovered} \
                         reprefilled={lost} epoch={} redispatch={redispatch}",
                        map.epoch
                    ));
                }
                ChaosAction::RestartReplica { replica } => {
                    let i = replica % shards.len();
                    if shards[i].retired || !shards[i].is_up(now) {
                        continue;
                    }
                    shards[i].durable.checkpoint_on(rt, health);
                    let pause = 0.05;
                    shards[i].up_at = now.max(shards[i].busy_until) + pause;
                    shards[i].busy_until = shards[i].up_at;
                    trace.push(format!("t={now:.3} restart shard={i}"));
                }
                ChaosAction::TruncateWal { replica, wal_cut } => {
                    let i = replica % shards.len();
                    if !shards[i].retired {
                        rot(&mut shards[i].rot_cut, wal_cut);
                    }
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
                    let z = zone % zones;
                    degraded[z] = Some((now + duration, latency_factor.max(1.0)));
                    stats.degraded_windows += 1;
                    if let Some(hs) = health {
                        hs.record(HealthEvent::ZoneDegraded);
                    }
                    for i in (0..shards.len()).filter(|s| s % zones == z) {
                        if shards[i].retired {
                            continue;
                        }
                        rot(&mut shards[i].rot_cut, wal_rot);
                        if let Some(hs) = health {
                            hs.record(HealthEvent::DegradedWalRot);
                        }
                    }
                    timeline.push(now + duration, Pending::Restore { zone: z });
                    trace.push(format!(
                        "t={now:.3} degrade zone={z} factor={latency_factor:.2} \
                         rot={wal_rot:.4} until={:.3}",
                        now + duration
                    ));
                }
                // Engine-level activation faults are applied by the
                // chaos harness to the attention engine, not here.
                ChaosAction::InjectFault { .. } => {}
            },
        }
    }

    // Valid-epoch tiles must still serve after any migration: touch the
    // warmed blocks at the final epoch and fold the cache counters in.
    for shard in shards.iter_mut() {
        if shard.retired {
            continue;
        }
        for b in 0..config.warm_blocks {
            let _ = shard.tiles.get(b, map.epoch);
        }
        let ts = shard.tiles.stats();
        stats.tile_hits += ts.hits;
        stats.tile_misses += ts.misses;
    }

    // ---------------------------------------- phase 2: lockstep serve --
    let policy = ServingPolicy {
        hbm_usable_fraction: pressure,
        ..config.policy
    };
    let kept: Vec<RequestSpec> = flights
        .iter()
        .filter(|f| f.kept)
        .map(|f| RequestSpec {
            arrival: f.dispatched_at,
            prompt: f.req.prompt,
            gen: f.req.gen,
        })
        .collect();
    // Each shard serves the same kept flights over its own slice; the
    // ring merge is exact, so the ledgers must agree in lockstep.
    let units: Vec<Option<Unit>> = shards
        .iter()
        .map(|s| {
            (!s.retired && !kept.is_empty()).then(|| {
                let rows = s.local_globals.iter().map(|&t| context.row(t)).collect();
                (kept.as_slice(), rows)
            })
        })
        .collect();
    stats.per_shard = cost.serve_paged(rt, &policy, config.dim, config.cache, &units, health);

    let served: Vec<&RobustServingStats> = stats.per_shard.iter().flatten().collect();
    if let Some(first) = served.first() {
        for s in &served[1..] {
            assert_eq!(
                (s.completed, s.truncated, s.rejected, s.generated_tokens),
                (
                    first.completed,
                    first.truncated,
                    first.rejected,
                    first.generated_tokens
                ),
                "ring lockstep violated: shard ledgers disagree"
            );
        }
        stats.completed = first.completed;
        stats.truncated = first.truncated;
        stats.rejected = first.rejected;
        stats.generated_tokens = first.generated_tokens;
        stats.makespan = served
            .iter()
            .map(|s| s.makespan)
            .fold(0.0f64, f64::max);
    }
    stats.failovers = timeline.failovers;
    stats.routing_rejected = timeline.routing_rejected;
    stats.rejected += stats.routing_rejected;

    // ----------------------------------------------- ledgers + content --
    stats.lost_tokens = killed_tokens - stats.migrated_tokens - stats.reprefilled_tokens;
    stats.map_epoch = map.epoch;
    stats.per_shard_tokens = (0..shards.len())
        .map(|s| shards[s].local_globals.len())
        .collect();

    // The durable artifact must round-trip to the adopted map.
    let durable_map = ShardMap::decode(&map_bytes).expect("durable shard map decodes");
    assert_eq!(durable_map, map, "durable map artifact diverged");
    for (s, shard) in shards.iter().enumerate() {
        assert_eq!(
            map.tokens_of(s),
            shard.local_globals.len(),
            "shard {s} resident tokens disagree with the map"
        );
        if !shard.retired {
            assert_eq!(
                shard.durable.tokens(),
                shard.local_globals.len(),
                "shard {s} durable set out of step with its ledger"
            );
        }
    }

    // Content fingerprint: every global token must be owned by exactly
    // the shard the map says, with the CRC recorded at append time.
    let mut chain = Vec::with_capacity(config.context_tokens * 4);
    for r in &map.assignments {
        for (t, cell) in owner_crc.iter().enumerate().take(r.end()).skip(r.start) {
            let (owner, crc) = cell.expect("every token has an owner");
            assert_eq!(owner, r.shard, "token {t} owned off-map");
            chain.extend_from_slice(&crc.to_le_bytes());
        }
    }
    stats.context_crc = crc32(&chain);

    assert_eq!(
        stats.accounted(),
        stats.total,
        "exactly-once accounting violated"
    );
    assert_eq!(stats.lost_tokens, 0, "context tokens were silently lost");

    trace.push(format!(
        "final epoch={} kills={} reshards={} migrated={} reprefilled={} \
         completed={} truncated={} rejected={} crc={:08x}",
        stats.map_epoch,
        stats.shard_kills,
        stats.reshards,
        stats.migrated_tokens,
        stats.reprefilled_tokens,
        stats.completed,
        stats.truncated,
        stats.rejected,
        stats.context_crc
    ));
    stats.trace = trace;
    stats.map = map;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::uniform_workload;

    fn setup() -> (GpuSpec, ModelGeometry) {
        (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
    }

    /// A 3-bit Turbo episode over [`workload`] on the global runtime.
    fn episode(
        chaos: &[ChaosEvent],
        cfg: &ShardedConfig,
        seed: u64,
        health: Option<&HealthStats>,
    ) -> ShardedStats {
        let (gpu, geom) = setup();
        let method = AttnMethod::Turbo { kv_bits: 3.0 };
        run_sharded_episode(&gpu, &geom, method, &workload(), chaos, cfg, seed, health)
    }

    fn workload() -> Vec<RequestSpec> {
        uniform_workload(12, 2.0, 256, 16, 42)
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

    #[test]
    fn balanced_map_partitions_exactly() {
        for shards in [2, 3, 4, 8] {
            for total in [shards, 100, 4096, 4097] {
                let m = ShardMap::balanced(shards, total);
                m.validate(shards).unwrap();
                let sum: usize = (0..shards).map(|s| m.tokens_of(s)).sum();
                assert_eq!(sum, total);
                let spread: Vec<usize> = (0..shards).map(|s| m.tokens_of(s)).collect();
                let (min, max) = (
                    *spread.iter().min().unwrap(),
                    *spread.iter().max().unwrap(),
                );
                assert!(max - min <= 1, "near-equal split");
            }
        }
    }

    #[test]
    fn map_roundtrips_and_rejects_corruption() {
        let m = ShardMap::balanced(4, 1000);
        let bytes = m.encode();
        assert_eq!(ShardMap::decode(&bytes).unwrap(), m);
        // Truncation at every byte boundary is rejected, never adopted.
        for cut in 0..bytes.len() {
            assert!(
                ShardMap::decode(&bytes[..cut]).is_err(),
                "torn map at {cut} must not decode"
            );
        }
        // Any single-byte flip fails the checksum (or the magic).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(ShardMap::decode(&bad).is_err(), "flip at {i} must fail");
        }
        // A well-framed map whose slice end overflows `usize` decodes
        // (the CRC is valid) but must fail validation, not panic or wrap.
        let overflow = ShardMap {
            version: SHARD_MAP_VERSION,
            epoch: 0,
            total_tokens: 5,
            assignments: vec![
                ShardRange {
                    shard: 0,
                    start: 0,
                    len: 5,
                },
                ShardRange {
                    shard: 1,
                    start: 5,
                    len: usize::MAX,
                },
                ShardRange {
                    shard: 1,
                    start: 0,
                    len: 1,
                },
            ],
        };
        let decoded = ShardMap::decode(&overflow.encode()).unwrap();
        assert_eq!(decoded, overflow);
        assert!(decoded.validate(2).is_err(), "overflowing slice end must be rejected");
        assert_eq!(decoded.tokens_of(1), usize::MAX, "owner totals saturate");
    }

    #[test]
    fn map_survives_seeded_mutations() {
        let balanced = ShardMap::balanced(4, 4096);
        let once = balanced.reshard(1, &[0, 2, 3]);
        let twice = once.reshard(2, &[0, 3]);
        let maps = [balanced, once, twice];
        let mut inj = turbo_robust::FaultInjector::new(0x5AAD_u64);
        let (mut decoded, mut invalid) = (0usize, 0usize);
        for round in 0..512 {
            let mut bytes = maps[round % maps.len()].encode();
            if round % 4 == 3 {
                inj.truncate_bytes(&mut bytes);
            } else {
                let n = 1 + inj.pick(4);
                inj.corrupt_bytes(&mut bytes, n);
            }
            // Re-seal the trailing CRC so the damage reaches the length,
            // version and slice checks instead of the checksum.
            if let Some(body) = bytes.len().checked_sub(4) {
                let crc = crc32(&bytes[..body]);
                bytes[body..].copy_from_slice(&crc.to_le_bytes());
            }
            let Ok(map) = ShardMap::decode(&bytes) else {
                continue;
            };
            decoded += 1;
            assert_eq!(map.encode(), bytes, "round {round}: re-encode diverged");
            if map.validate(4).is_err() {
                invalid += 1;
            }
            for s in 0..4 {
                let _ = map.tokens_of(s);
            }
        }
        assert!(decoded > 0, "re-sealed mutations must reach the slice checks");
        assert!(invalid > 0, "mutated slices must fail validation");
    }

    #[test]
    fn reshard_moves_only_victim_tokens_and_bumps_epoch() {
        let m = ShardMap::balanced(4, 4096);
        let resharded = m.reshard(1, &[0, 2, 3]);
        resharded.validate(4).unwrap();
        assert_eq!(resharded.epoch, m.epoch + 1);
        assert_eq!(resharded.tokens_of(1), 0);
        assert_eq!(
            resharded.tokens_of(0) + resharded.tokens_of(2) + resharded.tokens_of(3),
            4096
        );
        // Survivors keep everything they had.
        for s in [0, 2, 3] {
            assert!(resharded.tokens_of(s) >= m.tokens_of(s));
        }
        // Repeated re-shards stay valid down to one shard.
        let again = resharded.reshard(2, &[0, 3]);
        again.validate(4).unwrap();
        let last = again.reshard(0, &[3]);
        last.validate(4).unwrap();
        assert_eq!(last.tokens_of(3), 4096);
        assert_eq!(last.epoch, 3);
    }

    #[test]
    fn no_fault_episode_completes_and_fingerprints() {
        let cfg = ShardedConfig::default();
        let reqs = workload();
        let stats = episode(&[], &cfg, 7, None);
        assert_eq!(stats.total, reqs.len());
        assert_eq!(stats.accounted(), stats.total);
        assert_eq!(stats.shard_kills, 0);
        assert_eq!(stats.map_epoch, 0);
        assert_eq!(stats.lost_tokens, 0);
        assert!(stats.completed > 0);
        assert_ne!(stats.context_crc, 0);
        assert_eq!(
            stats.per_shard_tokens.iter().sum::<usize>(),
            cfg.context_tokens
        );
    }

    #[test]
    fn shard_kill_reshards_with_zero_token_loss() {
        let cfg = ShardedConfig::default();
        let hs = HealthStats::new();
        let faulted = episode(&[kill(1.0, 2, 0.6)], &cfg, 7, Some(&hs));
        assert_eq!(faulted.shard_kills, 1);
        assert_eq!(faulted.reshards, 1);
        assert_eq!(faulted.map_epoch, 1);
        assert_eq!(faulted.lost_tokens, 0);
        assert_eq!(faulted.accounted(), faulted.total);
        assert!(faulted.migrated_tokens > 0, "torn WAL recovers a prefix");
        assert!(faulted.reprefilled_tokens > 0, "the tail is re-prefilled");
        assert_eq!(
            faulted.migrated_tokens + faulted.reprefilled_tokens,
            cfg.context_tokens / 4
        );
        assert_eq!(faulted.per_shard_tokens[2], 0, "victim retired");
        assert_eq!(hs.count(HealthEvent::ShardKilled), 1);
        assert_eq!(hs.count(HealthEvent::ShardResharded), 1);
        assert_eq!(hs.count(HealthEvent::ShardMapEpochBump), 1);

        // Bit-identical logical content to the no-fault run.
        let clean = episode(&[], &cfg, 7, None);
        assert_eq!(faulted.context_crc, clean.context_crc);
    }

    #[test]
    fn epoch_bump_purges_stale_tiles() {
        let cfg = ShardedConfig::default();
        let stats = episode(&[kill(1.0, 0, 0.5)], &cfg, 11, None);
        assert!(
            stats.stale_tiles_purged > 0,
            "pre-migration tiles must be purged on the epoch bump"
        );
        assert!(stats.tile_hits > 0, "current-epoch tiles still serve");
    }

    #[test]
    fn degraded_zone_keeps_breakers_closed_and_hedges() {
        let cfg = ShardedConfig {
            hedge_threshold: Some(1e-6),
            ..ShardedConfig::default()
        };
        let hs = HealthStats::new();
        let chaos = [ChaosEvent {
            time: 0.5,
            action: ChaosAction::DegradeZone {
                zone: 0,
                latency_factor: 8.0,
                wal_rot: 0.7,
                duration: 100.0,
            },
        }];
        let stats = episode(&chaos, &cfg, 13, Some(&hs));
        // Slow ≠ dead: nothing is rejected, nothing re-shards, nothing
        // reports a breaker opening — but the dispatcher hedges the slow
        // shards.
        assert_eq!(stats.shard_kills, 0);
        assert_eq!(stats.routing_rejected, 0);
        assert_eq!(hs.count(HealthEvent::BreakerOpened), 0);
        assert_eq!(hs.count(HealthEvent::ZoneDegraded), 1);
        assert!(stats.hedged > 0, "degraded fan-outs must hedge");
        assert!(stats.hedge_saves > 0, "hedges cap the slowdown");
        assert_eq!(stats.degraded_windows, 1);
        assert_eq!(stats.accounted(), stats.total);
    }

    #[test]
    fn degraded_rot_compounds_into_the_next_kill() {
        let cfg = ShardedConfig::default();
        // Zone 0 rots shard 0's WAL hard, then shard 0 dies with a mild
        // cut: recovery must see the *compounded* (worse) cut.
        let rot_then_kill = [
            ChaosEvent {
                time: 0.2,
                action: ChaosAction::DegradeZone {
                    zone: 0,
                    latency_factor: 2.0,
                    wal_rot: 0.1,
                    duration: 0.1,
                },
            },
            kill(1.0, 0, 0.99),
        ];
        let rotted = episode(&rot_then_kill, &cfg, 17, None);
        let unrotted = episode(&[kill(1.0, 0, 0.99)], &cfg, 17, None);
        assert!(
            rotted.migrated_tokens < unrotted.migrated_tokens,
            "rot must shrink the recoverable prefix ({} vs {})",
            rotted.migrated_tokens,
            unrotted.migrated_tokens
        );
        assert_eq!(rotted.lost_tokens, 0, "but never lose tokens");
        assert_eq!(rotted.context_crc, unrotted.context_crc);
    }

    #[test]
    fn episode_is_bit_identical_across_worker_counts() {
        let (gpu, geom) = setup();
        let cfg = ShardedConfig::default();
        let reqs = workload();
        let chaos = [
            ChaosEvent {
                time: 0.4,
                action: ChaosAction::DegradeZone {
                    zone: 1,
                    latency_factor: 4.0,
                    wal_rot: 0.8,
                    duration: 2.0,
                },
            },
            kill(1.0, 3, 0.7),
        ];
        let runs: Vec<ShardedStats> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let rt = turbo_runtime::Runtime::with_workers(w);
                run_sharded_episode_on(
                    &rt,
                    &gpu,
                    &geom,
                    AttnMethod::Turbo { kv_bits: 3.0 },
                    &reqs,
                    &chaos,
                    &cfg,
                    23,
                    None,
                )
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 8 workers");
        assert_eq!(runs[0].trace, runs[2].trace, "traces bit-identical");
    }

    #[test]
    fn double_kill_leaves_two_survivors_holding_everything() {
        let cfg = ShardedConfig::default();
        let stats = episode(&[kill(0.8, 1, 0.5), kill(1.6, 3, 0.4)], &cfg, 29, None);
        assert_eq!(stats.shard_kills, 2);
        assert_eq!(stats.map_epoch, 2);
        assert_eq!(stats.lost_tokens, 0);
        assert_eq!(stats.per_shard_tokens[1], 0);
        assert_eq!(stats.per_shard_tokens[3], 0);
        assert_eq!(
            stats.per_shard_tokens[0] + stats.per_shard_tokens[2],
            cfg.context_tokens
        );
        assert_eq!(stats.accounted(), stats.total);
    }

    #[test]
    fn kill_with_no_survivor_is_skipped() {
        let cfg = ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        };
        let stats = episode(&[kill(0.5, 0, 0.5), kill(1.0, 1, 0.5)], &cfg, 31, None);
        // The second kill would leave nobody; it is skipped and the
        // episode still accounts for every request and token.
        assert_eq!(stats.shard_kills, 1);
        assert_eq!(stats.lost_tokens, 0);
        assert_eq!(stats.accounted(), stats.total);
    }
}

//! Health counters for the fault-tolerance layer.
//!
//! [`HealthStats`] is a small fixed registry of atomic counters keyed by
//! [`HealthEvent`]. Every detection, repair, and fallback in the stack
//! records itself here, so tests (and operators) can assert that the
//! number of *observed* faults matches the number of *injected* ones,
//! and dashboards can watch degradation rates. Counters use relaxed
//! atomics — they are monotonic tallies, not synchronization points —
//! and increment through `&self` so one registry can be shared across
//! an engine, its caches, and the serving simulator.
//!
//! The event enum, [`ALL_EVENTS`], [`EVENT_COUNT`], and
//! [`HealthEvent::name`] are all generated from one declaration list by
//! the `health_events!` macro below, so the three tables can never drift
//! out of lockstep: adding an event without a name (or vice versa) is a
//! compile error, and the counter bank is sized from the same list.

use std::sync::atomic::{AtomicU64, Ordering};

/// Generates [`HealthEvent`], [`EVENT_COUNT`], [`ALL_EVENTS`], and
/// [`HealthEvent::name`] from a single `Variant => "name"` list. One
/// source of truth: the enum, the iteration table, the count, and the
/// name table cannot disagree by construction.
macro_rules! health_events {
    ($( $(#[$meta:meta])* $variant:ident => $name:literal, )+) => {
        /// Everything the robustness layer knows how to count.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum HealthEvent {
            $( $(#[$meta])* $variant, )+
        }

        /// Number of [`HealthEvent`] variants. Derived from the same
        /// declaration list as the enum, so it cannot drift.
        pub const EVENT_COUNT: usize = ALL_EVENTS.len();

        /// All events, in discriminant order, for iteration/reporting.
        pub const ALL_EVENTS: [HealthEvent; [$(HealthEvent::$variant),+].len()] =
            [$(HealthEvent::$variant),+];

        impl HealthEvent {
            /// Short stable name for logs and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $(HealthEvent::$variant => $name,)+
                }
            }
        }
    };
}

health_events! {
    /// A non-finite (NaN/±Inf) value was detected in a query/key/value
    /// input and sanitized to zero.
    NonFiniteInput => "non_finite_input",
    /// A non-finite value surfaced in an attention *output*, triggering
    /// recompute at a higher-precision rung.
    NonFiniteOutput => "non_finite_output",
    /// Progressive quantization detected a scale overflow (outlier too
    /// large for the INT8 → INT4/2 second stage).
    ScaleOverflow => "scale_overflow",
    /// A persisted-cache block failed its checksum or structural checks.
    CorruptBlock => "corrupt_block",
    /// A paged-pool page failed its checksum scrub and was dropped.
    DroppedPage => "dropped_page",
    /// A head fell back one rung on the precision ladder.
    PrecisionFallback => "precision_fallback",
    /// A head was promoted back up after a healthy streak.
    PrecisionPromotion => "precision_promotion",
    /// A serving request missed its deadline and was cancelled.
    DeadlineMiss => "deadline_miss",
    /// A serving admission was retried after backoff.
    AdmissionRetry => "admission_retry",
    /// A live sequence was demoted to a lower bitwidth to relieve HBM
    /// pressure.
    PressureDemotion => "pressure_demotion",
    /// A request was rejected outright (could never fit, or retries
    /// exhausted).
    RequestRejected => "request_rejected",
    /// A persisted cache was recovered partially (valid prefix kept,
    /// corrupt suffix dropped).
    PartialRecovery => "partial_recovery",
    /// The execution runtime spawned a persistent pool worker. The total
    /// count is bounded by the configured pool size for the life of the
    /// process — the regression guard against per-call thread spawning.
    RuntimeWorkerSpawned => "runtime_worker_spawned",
    /// The execution runtime ran one pooled task to completion.
    RuntimeTaskRun => "runtime_task_run",
    /// A pool worker (or helping submitter) stole a task from another
    /// worker's queue.
    RuntimeTaskStolen => "runtime_task_stolen",
    /// A write-ahead log was replayed onto a recovered snapshot.
    WalReplay => "wal_replay",
    /// A torn or corrupt WAL tail was dropped during recovery (one event
    /// per salvage, not per byte).
    WalRecordDropped => "wal_record_dropped",
    /// A serving replica was killed by a fault (crash, chaos kill).
    ReplicaKilled => "replica_killed",
    /// A killed replica finished rebuilding (snapshot + WAL replay +
    /// re-prefill) and rejoined the set.
    ReplicaRebuilt => "replica_rebuilt",
    /// A replica's circuit breaker tripped from closed to open.
    BreakerOpened => "breaker_opened",
    /// A request was re-dispatched to another replica after its original
    /// replica failed.
    FailoverRetry => "failover_retry",
    /// A request was hedged onto a standby replica at dispatch time.
    RequestHedged => "request_hedged",
    /// One group-commit record — every head of every layer's K/V rows for
    /// one token — was appended to a layer-level write-ahead log.
    LayerGroupCommit => "layer_group_commit",
    /// K/V row-pairs carried by group-commit records (recorded with
    /// `record_n`; divided by [`HealthEvent::LayerGroupCommit`] this gives
    /// the mean group-commit size).
    LayerGroupRows => "layer_group_rows",
    /// The adaptive checkpoint scheduler fired on records-since-checkpoint.
    CheckpointByRecords => "checkpoint_by_records",
    /// The adaptive checkpoint scheduler fired because the estimated WAL
    /// replay time exceeded its budget.
    CheckpointByReplayBudget => "checkpoint_by_replay_budget",
    /// Records applied while replaying a layer-level WAL (recorded with
    /// `record_n`; the replay length recovery actually paid).
    LayerWalReplayedRecords => "layer_wal_replayed_records",
    /// A resident block's INT8 expansion was served from the dequant tile
    /// cache (decode hot path avoided re-running the integer dequant).
    DequantCacheHit => "dequant_cache_hit",
    /// A resident block's INT8 expansion was not cached and had to be
    /// recomputed (cold block, or invalidated by flush/eviction/recovery).
    DequantCacheMiss => "dequant_cache_miss",
    /// A cached INT8 expansion was evicted to stay inside the tile cache's
    /// byte budget (LRU order).
    DequantCacheEvict => "dequant_cache_evict",
    /// A request finished inside its latency SLO (tracked per window by
    /// [`crate::SloTracker`]).
    SloRequestOk => "slo_request_ok",
    /// A request finished over its latency SLO or missed its deadline
    /// outright (an SLO violation).
    SloViolation => "slo_violation",
    /// An [`crate::SloTracker`] observation window closed and its
    /// percentiles were folded into the running report.
    SloWindowClosed => "slo_window_closed",
    /// The online tuner backed off (multiplicative-decrease): admission /
    /// hedging / breaker knobs moved toward the conservative end after a
    /// violating window.
    TunerBackoff => "tuner_backoff",
    /// The online tuner relaxed (additive-increase): knobs moved toward
    /// the aggressive end after a healthy window.
    TunerRelax => "tuner_relax",
    /// A correlated chaos burst began (multi-replica kills, zone fault,
    /// or pressure storm — one event per burst, not per victim).
    ChaosBurst => "chaos_burst",
    /// The fleet autoscaler added a replica after an SLO breach.
    FleetScaleUp => "fleet_scale_up",
    /// The fleet autoscaler drained and retired a replica after a
    /// sustained healthy run.
    FleetScaleDown => "fleet_scale_down",
    /// The fleet's p99/violation-rate signal returned under the SLO
    /// threshold after a correlated burst (one event per recovery).
    FleetSloRecovered => "fleet_slo_recovered",
    /// A KV shard serving a slice of a long context was killed by a
    /// fault (its WAL torn at the cut point).
    ShardKilled => "shard_killed",
    /// A killed shard's KV range finished redistributing to the
    /// surviving shards (replay + migrate + re-prefill complete).
    ShardResharded => "shard_resharded",
    /// The shard map's migration epoch was bumped after a re-shard,
    /// invalidating every pre-migration dequant tile generation.
    ShardMapEpochBump => "shard_map_epoch_bump",
    /// A zone entered degraded service: latency inflated and WAL rot
    /// injected, but its shards keep answering (slow ≠ dead).
    ZoneDegraded => "zone_degraded",
    /// A degraded zone's window elapsed and it returned to healthy
    /// service.
    ZoneRestored => "zone_restored",
    /// A degraded zone silently rotted a shard's WAL tail (the damage
    /// surfaces only at the next recovery).
    DegradedWalRot => "degraded_wal_rot",
    /// The replay-budget controller tightened checkpoint cadence
    /// (multiplicative-decrease) after observing rebuild churn.
    ReplayBudgetTightened => "replay_budget_tightened",
    /// The replay-budget controller relaxed checkpoint cadence
    /// (additive-increase) after a calm window.
    ReplayBudgetRelaxed => "replay_budget_relaxed",
}

// Compile-time lockstep guard: the counter bank, iteration table, and
// name table are all sized/generated from the one macro list, and the
// last discriminant must equal EVENT_COUNT - 1 (catches any future
// hand-edit that bypasses the macro).
const _: () = assert!(ALL_EVENTS[EVENT_COUNT - 1] as usize == EVENT_COUNT - 1);

/// Shared registry of per-event counters.
#[derive(Debug)]
pub struct HealthStats {
    counters: [AtomicU64; EVENT_COUNT],
}

// Arrays only derive `Default` up to 32 elements; build the counter
// bank explicitly.
impl Default for HealthStats {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HealthStats {
    /// Fresh registry with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `event` by one.
    pub fn record(&self, event: HealthEvent) {
        self.record_n(event, 1);
    }

    /// Increments `event` by `n`.
    pub fn record_n(&self, event: HealthEvent, n: u64) {
        self.counters[event as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current count for `event`.
    pub fn count(&self, event: HealthEvent) -> u64 {
        self.counters[event as usize].load(Ordering::Relaxed)
    }

    /// Sum over every counter.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// True if nothing has been recorded.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Snapshot as `(name, count)` pairs for non-zero counters.
    pub fn report(&self) -> Vec<(&'static str, u64)> {
        ALL_EVENTS
            .iter()
            .filter_map(|&e| {
                let n = self.count(e);
                (n > 0).then(|| (e.name(), n))
            })
            .collect()
    }

    /// Resets every counter to zero (test convenience).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Merges another registry's counts into this one.
    pub fn absorb(&self, other: &HealthStats) {
        for (i, c) in other.counters.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                self.counters[i].fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

impl Clone for HealthStats {
    fn clone(&self) -> Self {
        let out = Self::new();
        out.absorb(self);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let h = HealthStats::new();
        assert!(h.is_clean());
        h.record(HealthEvent::NonFiniteInput);
        h.record_n(HealthEvent::NonFiniteInput, 2);
        h.record(HealthEvent::DroppedPage);
        assert_eq!(h.count(HealthEvent::NonFiniteInput), 3);
        assert_eq!(h.count(HealthEvent::DroppedPage), 1);
        assert_eq!(h.total(), 4);
        assert!(!h.is_clean());
    }

    #[test]
    fn report_lists_only_nonzero() {
        let h = HealthStats::new();
        h.record_n(HealthEvent::ScaleOverflow, 5);
        assert_eq!(h.report(), vec![("scale_overflow", 5)]);
        h.reset();
        assert!(h.report().is_empty());
    }

    #[test]
    fn absorb_merges() {
        let a = HealthStats::new();
        let b = HealthStats::new();
        a.record(HealthEvent::DeadlineMiss);
        b.record_n(HealthEvent::DeadlineMiss, 4);
        a.absorb(&b);
        assert_eq!(a.count(HealthEvent::DeadlineMiss), 5);
    }

    #[test]
    fn all_events_cover_enum() {
        for (i, e) in ALL_EVENTS.iter().enumerate() {
            assert_eq!(*e as usize, i, "discriminant order mismatch");
        }
    }

    #[test]
    fn every_event_has_a_unique_nonempty_name() {
        let mut seen = std::collections::HashSet::new();
        for e in ALL_EVENTS {
            let name = e.name();
            assert!(!name.is_empty(), "{e:?} has an empty name");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{e:?} name {name:?} is not snake_case"
            );
            assert!(seen.insert(name), "duplicate event name {name:?}");
        }
        assert_eq!(seen.len(), EVENT_COUNT);
    }

    #[test]
    fn shard_and_degradation_events_are_named() {
        // Satellite guard: every shard/degradation/replay-budget event
        // introduced for sharded serving resolves to a stable name.
        let expected = [
            (HealthEvent::ShardKilled, "shard_killed"),
            (HealthEvent::ShardResharded, "shard_resharded"),
            (HealthEvent::ShardMapEpochBump, "shard_map_epoch_bump"),
            (HealthEvent::ZoneDegraded, "zone_degraded"),
            (HealthEvent::ZoneRestored, "zone_restored"),
            (HealthEvent::DegradedWalRot, "degraded_wal_rot"),
            (HealthEvent::ReplayBudgetTightened, "replay_budget_tightened"),
            (HealthEvent::ReplayBudgetRelaxed, "replay_budget_relaxed"),
        ];
        for (e, name) in expected {
            assert_eq!(e.name(), name);
        }
    }
}

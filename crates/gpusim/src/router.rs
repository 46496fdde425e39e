//! The failover timeline shared by the replica set ([`crate::replica`])
//! and the sharded episode ([`crate::shard`]).
//!
//! Both simulators walk one merged, deterministic timeline of request
//! arrivals and chaos events, retry a failed dispatch with jittered
//! exponential backoff, tear a killed unit's write-ahead log and recover
//! what survives, and finally serve each unit's kept flights on its own
//! paged pool. Those pieces live here once; the callers keep only what
//! differs — replica hedging and breakers, shard re-sharding and tiles.

use crate::endtoend::linear_time;
use crate::geometry::ModelGeometry;
use crate::hw::GpuSpec;
use crate::kernels::{decode_latency, prefill_latency};
use crate::method::AttnMethod;
use crate::sched::simulate_serving_continuous;
use crate::serving::{RequestSpec, RobustServingStats, ServingPolicy};
use turbo_kvcache::{
    CheckpointPolicy, DurableLayerSet, KvCacheConfig, PagedKvPool, RecordBudget, ReplayBudget,
};
use turbo_robust::{ChaosAction, ChaosEvent, HealthEvent, HealthStats};
use turbo_tensor::TensorRng;

/// A request on its way through the router.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Request {
    pub prompt: usize,
    pub gen: usize,
    /// Failed dispatches so far.
    pub attempts: u32,
}

/// One routed request: where it landed and whether it is still served
/// there.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Flight {
    pub req: Request,
    pub dispatched_at: f64,
    pub est_finish: f64,
    /// Standby replica registered by a hedge (replica set only).
    pub backup: Option<usize>,
    /// Cleared when a kill fails the flight over.
    pub kept: bool,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum Pending {
    Dispatch(Request),
    Chaos(ChaosAction),
    /// End of a degraded-zone window (sharded episode only).
    Restore {
        zone: usize,
    },
}

#[derive(Clone, Copy, Debug)]
struct Timed {
    time: f64,
    seq: u64,
    item: Pending,
}

/// The event queue plus the retry policy and its ledger.
pub(crate) struct Timeline {
    queue: Vec<Timed>,
    seq: u64,
    jitter: TensorRng,
    retry_base: f64,
    max_failovers: u32,
    /// Re-dispatches scheduled after a failure.
    pub failovers: usize,
    /// Requests rejected because their retry budget ran out.
    pub routing_rejected: usize,
}

impl Timeline {
    /// Seeds the queue with every request (attempt 0), then every chaos
    /// event, numbering them in that order so equal times stay ordered.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty or unsorted, or `retry_base <= 0`.
    pub fn new(
        requests: &[RequestSpec],
        chaos: &[ChaosEvent],
        jitter_seed: u64,
        retry_base: f64,
        max_failovers: u32,
    ) -> Self {
        assert!(!requests.is_empty(), "no requests to serve");
        for w in requests.windows(2) {
            assert!(
                w[0].arrival <= w[1].arrival,
                "requests must be sorted by arrival"
            );
        }
        assert!(retry_base > 0.0, "retry base must be positive");
        let mut timeline = Self {
            queue: Vec::with_capacity(requests.len() + chaos.len()),
            seq: 0,
            jitter: TensorRng::new(jitter_seed),
            retry_base,
            max_failovers,
            failovers: 0,
            routing_rejected: 0,
        };
        for r in requests {
            let req = Request {
                prompt: r.prompt,
                gen: r.gen,
                attempts: 0,
            };
            timeline.push(r.arrival, Pending::Dispatch(req));
        }
        for e in chaos {
            timeline.push(e.time, Pending::Chaos(e.action));
        }
        timeline
    }

    /// Schedules `item` at `time`.
    pub fn push(&mut self, time: f64, item: Pending) {
        self.queue.push(Timed {
            time,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, (time, seq)-ordered, deterministically.
    pub fn pop(&mut self) -> Option<(f64, Pending)> {
        let idx = self
            .queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                // total_cmp keeps the order total even if an event time
                // were poisoned to NaN (no-panic discipline; NaN sorts
                // last).
                a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)?;
        let ev = self.queue.swap_remove(idx);
        Some((ev.time, ev.item))
    }

    /// Re-dispatches a failed request after jittered exponential
    /// backoff. Retries run on their own schedule — the client cannot
    /// see when the set heals — so a long outage exhausts the budget.
    pub fn retry(&mut self, now: f64, req: Request, health: Option<&HealthStats>) {
        let jitter = self.jitter.uniform_value(0.5, 1.5) as f64;
        let backoff = self.retry_base * f64::powi(2.0, req.attempts as i32) * jitter;
        self.failovers += 1;
        if let Some(hs) = health {
            hs.record(HealthEvent::FailoverRetry);
        }
        let attempts = req.attempts + 1;
        self.push(
            now + backoff,
            Pending::Dispatch(Request { attempts, ..req }),
        );
    }

    /// A dispatch found nowhere to land: retry while the budget lasts,
    /// then reject.
    pub fn retry_or_reject(&mut self, now: f64, req: Request, health: Option<&HealthStats>) {
        if req.attempts >= self.max_failovers {
            self.routing_rejected += 1;
            if let Some(hs) = health {
                hs.record(HealthEvent::RequestRejected);
            }
        } else {
            self.retry(now, req, health);
        }
    }
}

/// Checkpoint cadence of a durable unit: replay-bounded when the control
/// plane set a budget, otherwise a static record budget sized so a
/// steady-state build never trips it.
pub(crate) fn checkpoint_policy(
    replay_budget_secs: Option<f64>,
    replay_rate: f64,
    max_records: usize,
) -> Box<dyn CheckpointPolicy> {
    match replay_budget_secs {
        Some(max_replay_secs) => Box::new(ReplayBudget {
            max_replay_secs,
            replay_rate,
        }),
        None => Box::new(RecordBudget { max_records }),
    }
}

/// Silent storage rot: the surviving fraction only ever shrinks, and it
/// is noticed at the next crash recovery.
pub(crate) fn rot(rot_cut: &mut Option<f64>, cut: f64) {
    let prev = rot_cut.unwrap_or(1.0);
    *rot_cut = Some(prev.min(cut));
}

/// A kill: tears `durable`'s WAL at `wal_cut`, compounded by (and
/// consuming) any pending rot, then rebuilds every layer from the
/// surviving snapshot + log. Returns the rebuilt set, the tokens it
/// recovered, and the effective cut.
pub(crate) fn tear(
    durable: &DurableLayerSet,
    rot_cut: &mut Option<f64>,
    wal_cut: f64,
    policy: Box<dyn CheckpointPolicy>,
    health: Option<&HealthStats>,
) -> (DurableLayerSet, usize, f64) {
    let (snap, mut wal) = durable.durable_state();
    let cut = rot_cut.take().map_or(wal_cut, |r| r.min(wal_cut));
    let keep = (wal.len() as f64 * cut) as usize;
    wal.truncate(keep);
    let (rebuilt, outcome) = DurableLayerSet::recover_or_empty(
        durable.num_layers(),
        durable.heads_per_layer(),
        durable.head_dim(),
        durable.config(),
        policy,
        &snap,
        &wal,
        health,
    );
    (rebuilt, outcome.tokens, cut)
}

/// Seconds to rebuild after a kill: a fixed restart cost, replay of the
/// recovered tokens, and re-prefill of the lost ones.
pub(crate) fn rebuild_secs(
    recovered: usize,
    lost: usize,
    replay_rate: f64,
    reprefill_rate: f64,
) -> f64 {
    0.01 + recovered as f64 / replay_rate + lost as f64 / reprefill_rate
}

/// One unit's phase-2 work: its kept requests and the prefix rows its
/// paged pool starts from.
pub(crate) type Unit<'a> = (&'a [RequestSpec], Vec<&'a [f32]>);

/// The hardware, model and attention method every unit is costed on.
#[derive(Clone, Copy)]
pub(crate) struct CostModel<'a> {
    pub gpu: &'a GpuSpec,
    pub geom: &'a ModelGeometry,
    pub method: AttnMethod,
}

impl CostModel<'_> {
    /// Single-request service estimate for routing. The full queueing
    /// behavior is simulated in phase 2; this only drives load
    /// balancing, hedging, and which flights a kill catches mid-air.
    pub fn est_service(&self, req: Request) -> f64 {
        let (gpu, geom, method) = (self.gpu, self.geom, self.method);
        let (prompt, gen) = (req.prompt, req.gen);
        prefill_latency(gpu, geom, method, 1, prompt).total()
            + linear_time(gpu, geom, 1, prompt)
            + gen as f64
                * (decode_latency(gpu, geom, method, 1, prompt + gen).total()
                    + linear_time(gpu, geom, 1, 1))
    }

    /// Phase 2: serves every unit on its own [`PagedKvPool`], one runtime
    /// task per unit, index-ordered. Each pool holds the unit's prefix
    /// as one sequence that requests fork, and cache faults reject a
    /// request instead of aborting the unit. Pool construction is a pure
    /// function of the inputs, so the result is bit-identical at any
    /// worker count. `None` units serve nothing.
    pub fn serve_paged(
        &self,
        rt: &turbo_runtime::Runtime,
        policy: &ServingPolicy,
        dim: usize,
        cache: KvCacheConfig,
        units: &[Option<Unit<'_>>],
        health: Option<&HealthStats>,
    ) -> Vec<Option<RobustServingStats>> {
        rt.par_map(units, |unit| {
            let (requests, prefix_rows) = unit.as_ref()?;
            let mut pool = PagedKvPool::new(dim, cache);
            let prefix = pool.create_sequence();
            for row in prefix_rows {
                let _ = pool.try_append(prefix, row, row);
            }
            let paged = Some((&mut pool, prefix));
            Some(
                simulate_serving_continuous(
                    self.gpu,
                    self.geom,
                    self.method,
                    requests,
                    policy,
                    paged,
                    health,
                )
                .serving,
            )
        })
    }
}

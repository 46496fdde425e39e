//! Continuous-batching scheduler: a request [`Queue`] plus an event-loop
//! [`Scheduler`] that re-forms the running batch every decode step.
//!
//! The serialized engine in [`crate::serving`] admits one request per
//! sweep and prefills it against the *entire* running decode batch: a
//! long prompt stalls every in-flight generation until it finishes. The
//! scheduler here follows the TGI `Infer`/`Queue` shape instead:
//!
//! * **Chunked prefill / decode interleaving** — a prompt is consumed in
//!   [`SchedulerConfig::prefill_chunk`]-token chunks, one per engine
//!   step, fused with the step's decode batch. Decoding sequences stall
//!   behind at most one chunk, never a whole prompt. The incremental
//!   chunk cost is derived from the kernel cost model
//!   (`prefill(ctx+chunk) − prefill(ctx)` plus a per-chunk launch and a
//!   per-chunk weight pass), so a fully chunked prefill costs what the
//!   monolithic one did plus the honest re-launch overhead.
//! * **Budgeted batch re-formation** — every step the scheduler may
//!   admit waiting requests, bounded by
//!   [`SchedulerConfig::max_batch_prefill_tokens`] (prompt-chunk tokens
//!   entering one step), [`SchedulerConfig::max_batch_total_tokens`]
//!   (reserved `prompt + gen` footprint across the batch),
//!   [`SchedulerConfig::max_batch_size`], and device memory.
//! * **`waiting_served_ratio` admission policy** — a running batch is
//!   only interrupted for a prefill when the eligible queue is at least
//!   `waiting_served_ratio ×` the running batch, or when
//!   [`SchedulerConfig::max_waiting_tokens`] decode steps have passed
//!   since the last prefill (bounding time-to-first-token), or when the
//!   device is idle.
//! * **Per-request deadlines** — waiting requests past their deadline
//!   are shed as rejections, prefilling ones are shed before any token
//!   is produced, decoding ones are truncated at token emission,
//!   exactly as the serialized engine did.
//! * **Streaming token delivery** — every generated token is emitted as
//!   a [`TokenEvent`] at the simulated instant its decode step
//!   completes; callers can observe the stream with
//!   [`simulate_serving_continuous_streamed`].
//!
//! The scheduler sits on the same paged-KV-pool `try_*` hot path as the
//! serialized engine (fork on admission, append per token, release on
//! finish; any cache fault degrades to a rejection). It is one serial
//! loop, like TGI's router: a decode step costs the kernel model's
//! latency at the batch's longest context, so there is nothing to
//! parallelise inside a step. Worker-count bit-identity is pinned where
//! real parallel work runs: the replica set's `par_map`, the shard
//! pipelines and `turbo_attention::multilayer`.
//!
//! [`simulate_serving_continuous`] (and therefore `gpusim::replica`,
//! `gpusim::shard`, `gpusim::fleet`, the chaos/crash soaks, and the
//! exactly-once ledger) runs on this scheduler; the serialized loop
//! survives only in the plain [`crate::serving::simulate_serving`]
//! reference simulator.

use crate::endtoend::linear_time;
use crate::geometry::ModelGeometry;
use crate::hw::GpuSpec;
use crate::kernels::{decode_latency, prefill_latency};
use crate::memory::fits_in_memory;
use crate::method::AttnMethod;
use crate::serving::{RequestSpec, RobustServingStats, ServingPolicy};
use turbo_kvcache::{PagedKvPool, SeqId};
use turbo_robust::{percentile, HealthEvent, HealthStats};

/// Batch-formation budgets of the continuous-batching scheduler (the
/// TGI `Queue` knobs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedulerConfig {
    /// Prompt tokens consumed per sequence per engine step. Smaller
    /// chunks interleave tighter (lower decode stall) at more launch
    /// overhead.
    pub prefill_chunk: usize,
    /// Budget of prompt-chunk tokens processed in one engine step,
    /// across all prefilling sequences (admission + continuation).
    pub max_batch_prefill_tokens: usize,
    /// Cap on the reserved `prompt + gen` footprint summed over the
    /// running batch. `usize::MAX` leaves capacity to the memory model.
    pub max_batch_total_tokens: usize,
    /// Decode steps tolerated since the last prefill before the queue
    /// is served regardless of the ratio policy (bounds TTFT).
    pub max_waiting_tokens: usize,
    /// A running batch is interrupted for a prefill only when the
    /// eligible queue is at least this multiple of the running batch
    /// (or `max_waiting_tokens` expired, or the device is idle).
    pub waiting_served_ratio: f64,
    /// Hard cap on concurrently running sequences.
    pub max_batch_size: usize,
}

impl Default for SchedulerConfig {
    /// 512-token chunks, 4096 prefill tokens per step, unbounded total
    /// tokens (memory-capped), serve the queue after 4 decode steps or
    /// at 1.2× pressure, up to 1024 concurrent sequences.
    fn default() -> Self {
        Self {
            prefill_chunk: 512,
            max_batch_prefill_tokens: 4096,
            max_batch_total_tokens: usize::MAX,
            max_waiting_tokens: 4,
            waiting_served_ratio: 1.2,
            max_batch_size: 1024,
        }
    }
}

impl SchedulerConfig {
    /// Panics on degenerate budgets (caller error).
    fn validate(&self) {
        assert!(self.prefill_chunk >= 1, "prefill chunk must be positive");
        assert!(
            self.max_batch_prefill_tokens >= 1,
            "per-step prefill budget must be positive"
        );
        assert!(
            self.max_batch_total_tokens >= 1,
            "total-token budget must be positive"
        );
        assert!(self.max_batch_size >= 1, "batch size cap must be positive");
        assert!(
            self.waiting_served_ratio.is_finite() && self.waiting_served_ratio >= 0.0,
            "waiting/served ratio must be finite and non-negative"
        );
    }
}

/// One streamed token: request index, zero-based token index within the
/// request, and the simulated time its decode step completed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenEvent {
    /// Index of the request in the submitted slice.
    pub req: usize,
    /// Zero-based index of the token within the request's generation.
    pub index: usize,
    /// Simulated delivery time in seconds.
    pub time: f64,
}

/// One engine step's record — the property suite asserts the budgets
/// hold on every entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepRecord {
    /// Zero-based step index.
    pub index: usize,
    /// Simulated time at the start of the step.
    pub start: f64,
    /// Step duration in seconds (prefill part + decode part).
    pub duration: f64,
    /// Requests admitted into the batch at this step.
    pub admitted: usize,
    /// Sequences granted a prompt chunk this step.
    pub prefill_seqs: usize,
    /// Prompt-chunk tokens processed this step
    /// (`≤ max_batch_prefill_tokens`).
    pub prefill_tokens: usize,
    /// Sequences that each produced one token this step.
    pub decode_batch: usize,
    /// Reserved `prompt + gen` footprint of the running batch after
    /// admission (`≤ max_batch_total_tokens`).
    pub reserved_tokens: usize,
    /// Running batch size after admission (`≤ max_batch_size`).
    pub batch: usize,
    /// Requests that finished (complete or truncated) this step.
    pub finished: usize,
}

/// Scheduler result: the serving-compatible ledger plus the scheduling
/// telemetry the serialized engine could not produce.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerStats {
    /// The exactly-once serving ledger and latency aggregates, shaped
    /// like the serialized robust engine's output so replica/fleet
    /// consume it unchanged.
    pub serving: RobustServingStats,
    /// Per-step records, in order.
    pub steps: Vec<StepRecord>,
    /// Steps that processed at least one prompt chunk.
    pub prefill_steps: usize,
    /// Steps that decoded at least one token.
    pub decode_steps: usize,
    /// Tokens delivered through the stream (== generated tokens).
    pub streamed_tokens: usize,
    /// Mean time-to-first-token of sequences that produced output.
    pub mean_ttft: f64,
    /// 95th-percentile time-to-first-token (nearest-rank).
    pub p95_ttft: f64,
    /// Largest per-step prompt-chunk token count observed.
    pub peak_step_prefill_tokens: usize,
    /// Largest reserved-footprint observed across steps.
    pub peak_reserved_tokens: usize,
}

#[derive(Clone, Copy, Debug)]
struct WaitingReq {
    req: usize,
    attempts: u32,
    next_try: f64,
}

/// Arrival-ordered waiting queue with deadline shedding and
/// backoff-aware eligibility (the TGI `Queue`).
#[derive(Clone, Debug, Default)]
pub struct Queue {
    entries: Vec<WaitingReq>,
}

impl Queue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Waiting requests (including ones backing off).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Requests whose backoff expired by `now` — the population the
    /// `waiting_served_ratio` policy weighs against the running batch.
    pub fn eligible(&self, now: f64) -> usize {
        self.entries.iter().filter(|w| w.next_try <= now).count()
    }

    fn push(&mut self, req: usize, arrival: f64) {
        self.entries.push(WaitingReq {
            req,
            attempts: 0,
            next_try: arrival,
        });
    }

    fn earliest_retry(&self) -> f64 {
        self.entries
            .iter()
            .map(|w| w.next_try)
            .fold(f64::INFINITY, f64::min)
    }
}

fn record(health: Option<&HealthStats>, event: HealthEvent) {
    if let Some(h) = health {
        h.record(event);
    }
}

#[derive(Clone, Copy, Debug)]
struct Seq {
    req: usize,
    /// Prompt tokens not yet prefilled (0 = decoding).
    remaining_prefill: usize,
    /// Tokens resident in the KV cache (prefilled + generated).
    ctx: usize,
    generated: usize,
    kv: Option<SeqId>,
}

/// The continuous-batching event loop. Construct with
/// [`Scheduler::new`], drive with [`Scheduler::step`] until it returns
/// `false`, then take the stats with [`Scheduler::finish`] — or use the
/// `simulate_serving_continuous*` wrappers that do exactly that.
pub struct Scheduler<'a> {
    gpu: GpuSpec,
    geom: &'a ModelGeometry,
    method: AttnMethod,
    requests: &'a [RequestSpec],
    policy: &'a ServingPolicy,
    cfg: SchedulerConfig,
    paged: Option<(&'a mut PagedKvPool, SeqId)>,
    health: Option<&'a HealthStats>,

    now: f64,
    next_arrival: usize,
    queue: Queue,
    running: Vec<Seq>,
    /// Reserved `prompt + gen` footprint of `running` (kept incremental
    /// so admission sweeps stay O(queue), not O(queue × batch)).
    reserved: usize,
    steps_since_prefill: usize,

    admit_time: Vec<f64>,
    finish_time: Vec<f64>,
    first_token: Vec<f64>,
    generated: Vec<usize>,
    truncated_flag: Vec<bool>,
    rejected: usize,
    deadline_misses: usize,
    admission_retries: u64,
    demotions: u64,
    peak_batch: usize,
    streamed: usize,
    steps: Vec<StepRecord>,
}

impl<'a> Scheduler<'a> {
    /// Builds a scheduler over `requests` (sorted by arrival).
    ///
    /// # Panics
    ///
    /// Panics on caller errors: empty/unsorted `requests`, a
    /// non-positive backoff or HBM fraction in `policy`, or degenerate
    /// budgets in `policy.sched`.
    pub fn new(
        gpu: &GpuSpec,
        geom: &'a ModelGeometry,
        method: AttnMethod,
        requests: &'a [RequestSpec],
        policy: &'a ServingPolicy,
        paged: Option<(&'a mut PagedKvPool, SeqId)>,
        health: Option<&'a HealthStats>,
    ) -> Self {
        assert!(!requests.is_empty(), "no requests to serve");
        for w in requests.windows(2) {
            assert!(
                w[0].arrival <= w[1].arrival,
                "requests must be sorted by arrival"
            );
        }
        assert!(
            policy.admission_backoff > 0.0,
            "admission backoff must be positive"
        );
        assert!(
            policy.hbm_usable_fraction > 0.0 && policy.hbm_usable_fraction <= 1.0,
            "usable HBM fraction must be in (0, 1]"
        );
        policy.sched.validate();

        // Simulated memory pressure: co-tenants shrink the usable device.
        let mut gpu = *gpu;
        gpu.hbm_capacity *= policy.hbm_usable_fraction;

        let n = requests.len();
        Self {
            gpu,
            geom,
            method,
            requests,
            policy,
            cfg: policy.sched,
            paged,
            health,
            now: 0.0,
            next_arrival: 0,
            queue: Queue::new(),
            running: Vec::new(),
            reserved: 0,
            steps_since_prefill: 0,
            admit_time: vec![f64::NAN; n],
            finish_time: vec![f64::NAN; n],
            first_token: vec![f64::NAN; n],
            generated: vec![0; n],
            truncated_flag: vec![false; n],
            rejected: 0,
            deadline_misses: 0,
            admission_retries: 0,
            demotions: 0,
            peak_batch: 0,
            streamed: 0,
            steps: Vec::new(),
        }
    }

    /// The waiting queue (for inspection in tests/harnesses).
    pub fn queue(&self) -> &Queue {
        &self.queue
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    fn demoted_method(&self) -> Option<AttnMethod> {
        match (self.method, self.policy.degrade_bits) {
            (AttnMethod::Turbo { kv_bits }, Some(target)) if target < kv_bits => {
                Some(AttnMethod::Turbo { kv_bits: target })
            }
            _ => None,
        }
    }

    /// Whether a batch reserving `total` tokens fits the budgets at
    /// method `m` (token budget is method-independent; memory is not).
    fn fits(&self, m: AttnMethod, total: usize) -> bool {
        total <= self.cfg.max_batch_total_tokens
            && fits_in_memory(&self.gpu, self.geom, m, 1, total.max(1))
    }

    fn release_kv(paged: &mut Option<(&'a mut PagedKvPool, SeqId)>, kv: &mut Option<SeqId>) {
        if let Some((pool, _)) = paged.as_mut() {
            if let Some(id) = kv.take() {
                let _ = pool.try_release(id);
            }
        }
    }

    /// Sheds waiting requests and prefilling sequences whose deadline
    /// passed; both are rejections (no output was produced).
    fn shed_expired(&mut self) {
        let deadline = self.policy.deadline;
        let now = self.now;
        let requests = self.requests;
        let (rejected, misses, health) = (&mut self.rejected, &mut self.deadline_misses, self.health);
        self.queue.entries.retain(|w| {
            if now - requests[w.req].arrival > deadline {
                *misses += 1;
                *rejected += 1;
                record(health, HealthEvent::DeadlineMiss);
                record(health, HealthEvent::RequestRejected);
                false
            } else {
                true
            }
        });
        let mut i = 0;
        while i < self.running.len() {
            let s = self.running[i];
            if s.remaining_prefill > 0 && now - requests[s.req].arrival > deadline {
                let mut seq = self.running.remove(i);
                self.reserved -= requests[seq.req].prompt + requests[seq.req].gen;
                Self::release_kv(&mut self.paged, &mut seq.kv);
                self.generated[seq.req] = 0;
                self.deadline_misses += 1;
                self.rejected += 1;
                record(self.health, HealthEvent::DeadlineMiss);
                record(self.health, HealthEvent::RequestRejected);
            } else {
                i += 1;
            }
        }
    }

    /// Whether the batch should be re-formed this step: idle device,
    /// TTFT bound expired, or the queue outweighs the batch.
    fn admission_due(&self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        if self.running.is_empty() || self.steps_since_prefill >= self.cfg.max_waiting_tokens {
            return true;
        }
        let min_size = (self.cfg.waiting_served_ratio * self.running.len() as f64).ceil() as usize;
        self.queue.eligible(self.now) >= min_size.max(1)
    }

    /// Admission sweep: admits eligible requests in arrival order under
    /// the prefill/total-token/batch-size/memory budgets; failed fits
    /// back off exponentially and reject after the retry budget (or
    /// immediately when infeasible even alone). Returns the number of
    /// requests admitted into the running batch.
    fn admit(&mut self) -> usize {
        let mut admitted = 0usize;
        let mut admit_tokens = 0usize;
        let mut i = 0usize;
        while i < self.queue.entries.len() {
            let w = self.queue.entries[i];
            if w.next_try > self.now {
                i += 1;
                continue;
            }
            let spec = self.requests[w.req];
            // Zero-length generation: nothing to prefill for, nothing to
            // decode — complete at admission with zero tokens attributed
            // (the old engine's decode loop minted one spurious token).
            if spec.gen == 0 {
                self.queue.entries.remove(i);
                self.admit_time[w.req] = self.now;
                self.finish_time[w.req] = self.now;
                continue;
            }
            if self.running.len() + 1 > self.cfg.max_batch_size {
                break; // batch full: defer the rest, not a failure
            }
            let first_chunk = spec
                .prompt
                .min(self.cfg.prefill_chunk)
                .min(self.cfg.max_batch_prefill_tokens);
            if admit_tokens + first_chunk > self.cfg.max_batch_prefill_tokens {
                break; // this step's prefill budget is spoken for
            }
            let total = self.reserved + spec.prompt + spec.gen;
            let mut fits_now = self.fits(self.method, total);
            if !fits_now {
                if let Some(lower) = self.demoted_method() {
                    // Demote the whole cache rather than shed this load.
                    if self.fits(lower, total) {
                        self.method = lower;
                        self.demotions += 1;
                        record(self.health, HealthEvent::PressureDemotion);
                        fits_now = true;
                    }
                }
            }
            if fits_now {
                // Forking the shared prefix goes through `try_fork`: a
                // corrupt or missing prefix degrades this admission to a
                // rejection instead of panicking the replica.
                let kv = match self.paged.as_mut() {
                    Some((pool, prefix)) => match pool.try_fork(*prefix) {
                        Ok(id) => Some(id),
                        Err(_) => {
                            self.queue.entries.remove(i);
                            self.rejected += 1;
                            record(self.health, HealthEvent::RequestRejected);
                            continue;
                        }
                    },
                    None => None,
                };
                self.queue.entries.remove(i);
                self.admit_time[w.req] = self.now;
                self.running.push(Seq {
                    req: w.req,
                    remaining_prefill: spec.prompt,
                    ctx: 0,
                    generated: 0,
                    kv,
                });
                self.reserved += spec.prompt + spec.gen;
                self.peak_batch = self.peak_batch.max(self.running.len());
                admitted += 1;
                admit_tokens += first_chunk;
                continue;
            }
            // Fit failure: count a retry; reject when the request cannot
            // fit even alone at the lowest allowed width, or the retry
            // budget is spent.
            let best = self.demoted_method().unwrap_or(self.method);
            let alone = spec.prompt + spec.gen <= self.cfg.max_batch_total_tokens
                && fits_in_memory(
                    &self.gpu,
                    self.geom,
                    best,
                    1,
                    (spec.prompt + spec.gen).max(1),
                );
            self.admission_retries += 1;
            record(self.health, HealthEvent::AdmissionRetry);
            if !alone || w.attempts >= self.policy.max_admission_retries {
                self.queue.entries.remove(i);
                self.rejected += 1;
                record(self.health, HealthEvent::RequestRejected);
                continue;
            }
            self.queue.entries[i].attempts += 1;
            self.queue.entries[i].next_try =
                self.now + self.policy.admission_backoff * f64::powi(2.0, w.attempts as i32);
            i += 1;
        }
        admitted
    }

    /// Incremental cost of prefilling `chunk` prompt tokens on top of
    /// `ctx` already-resident ones: the cost-model delta plus a
    /// per-chunk kernel launch and a per-chunk pass over the weights.
    /// Summed over a whole prompt this equals the monolithic prefill
    /// plus the honest re-launch/re-stream overhead of chunking.
    fn chunk_cost(&self, ctx: usize, chunk: usize) -> f64 {
        let full = prefill_latency(&self.gpu, self.geom, self.method, 1, ctx + chunk);
        let attn = if ctx == 0 {
            full.total()
        } else {
            let prev = prefill_latency(&self.gpu, self.geom, self.method, 1, ctx);
            (full.total() - prev.total()).max(0.0) + full.launch
        };
        attn + linear_time(&self.gpu, self.geom, 1, chunk)
    }

    /// Runs one engine step (admission + fused prefill/decode), emitting
    /// tokens into `sink`. Returns `false` once every request has
    /// reached a terminal state.
    pub fn step(&mut self, mut sink: Option<&mut dyn FnMut(TokenEvent)>) -> bool {
        // Ingest arrivals up to `now`, shed expired work.
        while self.next_arrival < self.requests.len()
            && self.requests[self.next_arrival].arrival <= self.now
        {
            self.queue
                .push(self.next_arrival, self.requests[self.next_arrival].arrival);
            self.next_arrival += 1;
        }
        self.shed_expired();

        let admitted = if self.admission_due() { self.admit() } else { 0 };

        if self.running.is_empty() {
            // Idle: jump to the next arrival or the earliest retry.
            let next_retry = self.queue.earliest_retry();
            let next_event = if self.next_arrival < self.requests.len() {
                next_retry.min(self.requests[self.next_arrival].arrival)
            } else {
                next_retry
            };
            if next_event.is_finite() {
                self.now = self.now.max(next_event);
                return true;
            }
            return false;
        }

        let start = self.now;

        // Grant prompt chunks in batch order under the per-step budget.
        let mut budget = self.cfg.max_batch_prefill_tokens;
        let mut grants: Vec<(usize, usize)> = Vec::new();
        let mut prefill_time = 0.0f64;
        for (idx, s) in self.running.iter().enumerate() {
            if budget == 0 {
                break;
            }
            if s.remaining_prefill > 0 {
                let chunk = s.remaining_prefill.min(self.cfg.prefill_chunk).min(budget);
                prefill_time += self.chunk_cost(s.ctx, chunk);
                grants.push((idx, chunk));
                budget -= chunk;
            }
        }
        let prefill_tokens: usize = grants.iter().map(|&(_, c)| c).sum();

        // One decode step for every sequence past its prompt. The step
        // finishes with its slowest member: the cost model is monotone
        // in context, so that is the longest-context latency.
        let (decode_batch, max_ctx) = self
            .running
            .iter()
            .filter(|s| s.remaining_prefill == 0)
            .fold((0usize, 0usize), |(n, m), s| (n + 1, m.max(s.ctx)));
        let decode_time = if decode_batch == 0 {
            0.0
        } else {
            decode_latency(&self.gpu, self.geom, self.method, decode_batch, max_ctx).total()
                + linear_time(&self.gpu, self.geom, decode_batch, 1)
        };

        self.now += prefill_time + decode_time;

        // Apply prefill progress.
        for &(idx, chunk) in &grants {
            self.running[idx].remaining_prefill -= chunk;
            self.running[idx].ctx += chunk;
        }

        // Footprint and batch size the step actually ran under (after
        // admission, before retirements below shrink them).
        let reserved_at_step = self.reserved;
        let batch_at_step = self.running.len();

        // Emit one token per decoding sequence; finish, truncate, or
        // keep. A paged append fault rejects that one request mid-flight
        // (released sequence, zeroed output) and the batch keeps going.
        let mut finished = 0usize;
        let mut still: Vec<Seq> = Vec::with_capacity(self.running.len());
        for mut s in std::mem::take(&mut self.running) {
            if s.remaining_prefill > 0 {
                still.push(s);
                continue;
            }
            let spec = self.requests[s.req];
            if let Some((pool, _)) = self.paged.as_mut() {
                if let Some(id) = s.kv {
                    let d = pool.head_dim();
                    let row: Vec<f32> = (0..d)
                        .map(|c| ((s.req * 31 + s.generated * 7 + c) % 97) as f32 * 1e-2)
                        .collect();
                    if pool.try_append(id, &row, &row).is_err() {
                        let _ = pool.try_release(id);
                        s.kv = None;
                        self.generated[s.req] = 0;
                        self.reserved -= spec.prompt + spec.gen;
                        self.rejected += 1;
                        record(self.health, HealthEvent::RequestRejected);
                        finished += 1;
                        continue;
                    }
                }
            }
            s.generated += 1;
            s.ctx += 1;
            self.generated[s.req] = s.generated;
            self.streamed += 1;
            if s.generated == 1 {
                self.first_token[s.req] = self.now - spec.arrival;
            }
            if let Some(f) = sink.as_mut() {
                f(TokenEvent {
                    req: s.req,
                    index: s.generated - 1,
                    time: self.now,
                });
            }
            let done = if s.generated >= spec.gen {
                self.finish_time[s.req] = self.now;
                true
            } else if self.now - spec.arrival > self.policy.deadline {
                // Out of time mid-generation: return what we have.
                self.finish_time[s.req] = self.now;
                self.truncated_flag[s.req] = true;
                self.deadline_misses += 1;
                record(self.health, HealthEvent::DeadlineMiss);
                true
            } else {
                still.push(s);
                false
            };
            if done {
                self.reserved -= spec.prompt + spec.gen;
                Self::release_kv(&mut self.paged, &mut s.kv);
                finished += 1;
            }
        }
        self.running = still;

        self.steps_since_prefill = if prefill_tokens > 0 {
            0
        } else {
            self.steps_since_prefill + 1
        };
        self.steps.push(StepRecord {
            index: self.steps.len(),
            start,
            duration: self.now - start,
            admitted,
            prefill_seqs: grants.len(),
            prefill_tokens,
            decode_batch,
            reserved_tokens: reserved_at_step,
            batch: batch_at_step,
            finished,
        });
        true
    }

    /// Consumes the scheduler and assembles the final statistics.
    pub fn finish(self) -> SchedulerStats {
        let requests = self.requests;
        let served: Vec<usize> = (0..requests.len())
            .filter(|&i| self.finish_time[i].is_finite())
            .collect();
        let completed = served.iter().filter(|&&i| !self.truncated_flag[i]).count();
        let truncated = served.len() - completed;
        let generated_tokens: usize = self.generated.iter().sum();
        let makespan = served
            .iter()
            .map(|&i| self.finish_time[i])
            .fold(0.0f64, f64::max);
        let mut latencies: Vec<f64> = served
            .iter()
            .map(|&i| self.finish_time[i] - requests[i].arrival)
            .collect();
        latencies.sort_by(f64::total_cmp);
        let (mean_latency, p95_latency, mean_queue_time) = if latencies.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            let queue: f64 = served
                .iter()
                .map(|&i| self.admit_time[i] - requests[i].arrival)
                .sum::<f64>()
                / served.len() as f64;
            (
                latencies.iter().sum::<f64>() / latencies.len() as f64,
                percentile(&latencies, 0.95),
                queue,
            )
        };
        let mut ttft: Vec<f64> = self
            .first_token
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .collect();
        ttft.sort_by(f64::total_cmp);
        let (mean_ttft, p95_ttft) = if ttft.is_empty() {
            (0.0, 0.0)
        } else {
            (
                ttft.iter().sum::<f64>() / ttft.len() as f64,
                percentile(&ttft, 0.95),
            )
        };

        let serving = RobustServingStats {
            completed,
            truncated,
            rejected: self.rejected,
            deadline_misses: self.deadline_misses,
            admission_retries: self.admission_retries,
            demotions: self.demotions,
            generated_tokens,
            makespan,
            throughput: if makespan > 0.0 {
                generated_tokens as f64 / makespan
            } else {
                0.0
            },
            mean_latency,
            p95_latency,
            mean_queue_time,
            peak_batch: self.peak_batch,
            latencies,
        };
        let prefill_steps = self.steps.iter().filter(|s| s.prefill_tokens > 0).count();
        let decode_steps = self.steps.iter().filter(|s| s.decode_batch > 0).count();
        let peak_step_prefill_tokens = self
            .steps
            .iter()
            .map(|s| s.prefill_tokens)
            .fold(0, usize::max);
        let peak_reserved_tokens = self
            .steps
            .iter()
            .map(|s| s.reserved_tokens)
            .fold(0, usize::max);
        SchedulerStats {
            serving,
            steps: self.steps,
            prefill_steps,
            decode_steps,
            streamed_tokens: self.streamed,
            mean_ttft,
            p95_ttft,
            peak_step_prefill_tokens,
            peak_reserved_tokens,
        }
    }
}

/// Core runner shared by both public entry points.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_continuous(
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    requests: &[RequestSpec],
    policy: &ServingPolicy,
    paged: Option<(&mut PagedKvPool, SeqId)>,
    health: Option<&HealthStats>,
    mut sink: Option<&mut dyn FnMut(TokenEvent)>,
) -> SchedulerStats {
    let mut sched = Scheduler::new(gpu, geom, method, requests, policy, paged, health);
    loop {
        // Fresh reborrow of the sink each iteration.
        let s = sink
            .as_mut()
            .map(|f| &mut **f as &mut dyn FnMut(TokenEvent));
        if !sched.step(s) {
            break;
        }
    }
    sched.finish()
}

/// Fault-tolerant serving: runs the continuous-batching scheduler over
/// `requests` and returns the full [`SchedulerStats`] — the
/// [`RobustServingStats`] ledger in `.serving` plus per-step telemetry.
/// Infeasible or unlucky requests are *rejected* instead of panicking or
/// stalling the queue forever, deadlines bound every request's latency,
/// admission failures back off exponentially, and — when the policy
/// allows — the KV cache is demoted to a lower bit width under memory
/// pressure rather than shedding load. Every intervention is recorded in
/// `health` (when given) and mirrored in the returned stats.
///
/// With `paged = Some((pool, prefix))` every admitted request carries a
/// real [`PagedKvPool`] sequence forked off `prefix`, and all cache
/// traffic goes through the pool's fallible `try_*` APIs: a
/// fork or append error rejects that request (releasing its sequence)
/// instead of aborting the engine, and finish/truncation releases the
/// fork, so a healthy run returns the pool holding exactly the prefix it
/// started with. With a healthy pool the trajectory and every stat are
/// identical to `paged = None` — the pool only adds state, never time.
///
/// # Panics
///
/// As [`Scheduler::new`] — caller errors only. Cache faults never panic.
pub fn simulate_serving_continuous(
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    requests: &[RequestSpec],
    policy: &ServingPolicy,
    paged: Option<(&mut PagedKvPool, SeqId)>,
    health: Option<&HealthStats>,
) -> SchedulerStats {
    run_continuous(gpu, geom, method, requests, policy, paged, health, None)
}

/// As [`simulate_serving_continuous`], but every generated token is
/// delivered to `sink` at its simulated emission time — the streaming
/// interface a serving front end would expose per client.
pub fn simulate_serving_continuous_streamed(
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    requests: &[RequestSpec],
    policy: &ServingPolicy,
    sink: &mut dyn FnMut(TokenEvent),
    health: Option<&HealthStats>,
) -> SchedulerStats {
    run_continuous(gpu, geom, method, requests, policy, None, health, Some(sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::uniform_workload;

    fn setup() -> (GpuSpec, ModelGeometry) {
        (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
    }

    fn policy(sched: SchedulerConfig) -> ServingPolicy {
        ServingPolicy {
            sched,
            ..ServingPolicy::default()
        }
    }

    #[test]
    fn budgets_hold_on_every_step() {
        let (gpu, geom) = setup();
        let reqs = uniform_workload(32, 6.0, 1024, 24, 41);
        let cfg = SchedulerConfig {
            prefill_chunk: 256,
            max_batch_prefill_tokens: 768,
            max_batch_total_tokens: 24_000,
            max_batch_size: 12,
            ..SchedulerConfig::default()
        };
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &policy(cfg),
            None,
            None,
        );
        assert!(!stats.steps.is_empty());
        for s in &stats.steps {
            assert!(
                s.prefill_tokens <= cfg.max_batch_prefill_tokens,
                "step {} prefill {} over budget",
                s.index,
                s.prefill_tokens
            );
            assert!(
                s.reserved_tokens <= cfg.max_batch_total_tokens,
                "step {} reserved {} over budget",
                s.index,
                s.reserved_tokens
            );
            assert!(s.batch <= cfg.max_batch_size);
            assert!(s.duration > 0.0);
        }
        assert_eq!(
            stats.serving.completed + stats.serving.truncated + stats.serving.rejected,
            reqs.len()
        );
        assert_eq!(stats.serving.completed, reqs.len());
    }

    #[test]
    fn prefill_chunks_interleave_with_decode() {
        let (gpu, geom) = setup();
        // Long prompts arriving while earlier requests decode: some step
        // must carry both a prompt chunk and a decode batch — the thing
        // the serialized engine could never do.
        let reqs = uniform_workload(16, 12.0, 4096, 64, 9);
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &policy(SchedulerConfig::default()),
            None,
            None,
        );
        assert!(
            stats
                .steps
                .iter()
                .any(|s| s.prefill_tokens > 0 && s.decode_batch > 0),
            "no fused prefill+decode step found"
        );
        assert_eq!(stats.serving.completed, reqs.len());
        assert!(stats.prefill_steps > 0 && stats.decode_steps > 0);
    }

    #[test]
    fn streamed_tokens_are_exact_and_ordered() {
        let (gpu, geom) = setup();
        let reqs = uniform_workload(10, 4.0, 512, 12, 3);
        let mut events: Vec<TokenEvent> = Vec::new();
        let stats = simulate_serving_continuous_streamed(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &policy(SchedulerConfig::default()),
            &mut |e| events.push(e),
            None,
        );
        assert_eq!(events.len(), stats.serving.generated_tokens);
        assert_eq!(events.len(), stats.streamed_tokens);
        // Delivery times never go backwards.
        for w in events.windows(2) {
            assert!(w[1].time >= w[0].time);
        }
        // Per request: contiguous indices 0..gen, strictly increasing
        // times.
        for (r, spec) in reqs.iter().enumerate() {
            let mine: Vec<&TokenEvent> = events.iter().filter(|e| e.req == r).collect();
            assert_eq!(mine.len(), spec.gen);
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(e.index, i);
            }
            for w in mine.windows(2) {
                assert!(w[1].time > w[0].time);
            }
        }
    }

    #[test]
    fn total_token_budget_throttles_concurrency_without_shedding() {
        let (gpu, geom) = setup();
        let reqs = uniform_workload(20, 50.0, 512, 8, 13);
        let tight = SchedulerConfig {
            max_batch_total_tokens: 2 * (512 + 8),
            ..SchedulerConfig::default()
        };
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &policy(tight),
            None,
            None,
        );
        assert!(stats.peak_reserved_tokens <= tight.max_batch_total_tokens);
        assert!(stats.serving.peak_batch <= 2);
        // Backoff retries, never rejections: everything still completes.
        assert_eq!(stats.serving.completed, reqs.len());
        assert!(stats.serving.admission_retries > 0);
    }

    #[test]
    fn max_waiting_tokens_bounds_queue_starvation() {
        let (gpu, geom) = setup();
        // An (effectively) infinite waiting/served ratio means the ratio
        // trigger never fires; only the max_waiting_tokens clock admits
        // late arrivals into a running batch. Everything must still
        // complete.
        let reqs = uniform_workload(16, 10.0, 768, 48, 21);
        let cfg = SchedulerConfig {
            waiting_served_ratio: 1e12,
            max_waiting_tokens: 3,
            ..SchedulerConfig::default()
        };
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &policy(cfg),
            None,
            None,
        );
        assert_eq!(stats.serving.completed, reqs.len());
        assert!(stats.mean_ttft.is_finite() && stats.mean_ttft > 0.0);
        assert!(stats.p95_ttft >= stats.mean_ttft * 0.1);
    }

    #[test]
    fn gen_zero_requests_finish_at_admission() {
        let (gpu, geom) = setup();
        let mut reqs = uniform_workload(8, 5.0, 256, 6, 2);
        reqs[0].gen = 0;
        reqs[5].gen = 0;
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &policy(SchedulerConfig::default()),
            None,
            None,
        );
        assert_eq!(stats.serving.completed, reqs.len());
        assert_eq!(
            stats.serving.generated_tokens,
            reqs.iter().map(|r| r.gen).sum::<usize>()
        );
        assert_eq!(stats.streamed_tokens, stats.serving.generated_tokens);
    }

    #[test]
    fn deadline_sheds_are_exact() {
        let (gpu, geom) = setup();
        let reqs = uniform_workload(24, 12.0, 2048, 64, 31);
        let pol = ServingPolicy {
            deadline: 1.5,
            ..ServingPolicy::default()
        };
        let health = HealthStats::new();
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &pol,
            None,
            Some(&health),
        );
        let s = &stats.serving;
        assert_eq!(s.completed + s.truncated + s.rejected, reqs.len());
        assert!(s.deadline_misses > 0, "1.5s deadline must bite");
        assert_eq!(
            health.count(HealthEvent::DeadlineMiss),
            s.deadline_misses as u64
        );
        // A truncated request exceeded its deadline by at most one step;
        // completed ones can finish at any time (they beat their token
        // count, not the clock) but truncations must be *past* deadline.
        let max_lat = s.latencies.iter().copied().fold(0.0f64, f64::max);
        if s.truncated > 0 {
            assert!(max_lat > pol.deadline);
        }
    }

    #[test]
    fn scheduler_run_is_deterministic() {
        let (gpu, geom) = setup();
        let reqs = uniform_workload(20, 6.0, 1024, 24, 55);
        let pol = ServingPolicy {
            deadline: 5.0,
            hbm_usable_fraction: 0.9,
            ..ServingPolicy::default()
        };
        let run = || {
            simulate_serving_continuous(&gpu, &geom, AttnMethod::FlashFp16, &reqs, &pol, None, None)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }
}

//! Serving simulators: the serialized reference engine, the request and
//! policy types the continuous-batching scheduler serves, and workloads.
//!
//! Figure 7a's "maximum throughput" is an offline number; production
//! serving cares about *sustained load*: requests arrive over time, the
//! engine interleaves prefills with batched decode steps, and the KV-cache
//! footprint decides how many sequences fit in HBM at once. This module
//! runs that loop as a discrete-event simulation on top of the kernel
//! cost model, so the end-to-end effect of KV compression — bigger live
//! batches, fewer admission stalls, lower tail latency — can be measured
//! per attention method.
//!
//! Two engines live here and in [`crate::sched`]:
//!
//! * [`simulate_serving`] — the *serialized* reference engine: one
//!   request prefills at a time (prefill preempts decode), all admitted
//!   sequences decode together, one token per step, and a request is
//!   admitted only if weights + every live sequence's *maximum* KV
//!   footprint fit in usable HBM. Simple, and the baseline the paper
//!   figures are read against.
//! * [`crate::sched::simulate_serving_continuous`] and everything above
//!   it (paged pools, replicas, the fleet) run on the **continuous-batching
//!   scheduler** in [`crate::sched`]: chunked prefill interleaved with
//!   decode, budgeted batch re-formation every step, a
//!   `waiting_served_ratio` admission policy, and streaming token
//!   delivery. The `ServingPolicy` carries the scheduler budgets in
//!   [`ServingPolicy::sched`].
//!
//! Both engines are single serial loops over the closed-form cost model,
//! as TGI's router is one loop with budgets. Evaluating that arithmetic
//! on a thread pool adds no fidelity, so neither has a pooled variant.

use crate::endtoend::linear_time;
use crate::geometry::ModelGeometry;
use crate::hw::GpuSpec;
use crate::kernels::{decode_latency, prefill_latency};
use crate::memory::fits_in_memory;
use crate::method::AttnMethod;

/// One inference request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestSpec {
    /// Arrival time in seconds.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub prompt: usize,
    /// Tokens to generate.
    pub gen: usize,
}

/// Aggregate results of a serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingStats {
    /// Requests completed.
    pub completed: usize,
    /// Wall-clock time when the last request finished.
    pub makespan: f64,
    /// Generated tokens per second of makespan.
    pub throughput: f64,
    /// Mean end-to-end request latency (arrival → last token).
    pub mean_latency: f64,
    /// Median end-to-end latency.
    pub p50_latency: f64,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: f64,
    /// Mean time spent waiting for admission (memory/queue).
    pub mean_queue_time: f64,
    /// Largest number of sequences decoding together.
    pub peak_batch: usize,
}

#[derive(Clone, Debug)]
struct LiveSeq {
    req: usize,
    generated: usize,
    ctx: usize,
}

/// Simulates serving `requests` (sorted by arrival) on the serialized
/// reference engine: one request prefills at a time and preempts decode,
/// then every admitted sequence decodes together, one token per step.
///
/// # Panics
///
/// Panics if `requests` is empty, unsorted by arrival, or contains a
/// request that can never fit in memory alone.
pub fn simulate_serving(
    gpu: &GpuSpec,
    geom: &ModelGeometry,
    method: AttnMethod,
    requests: &[RequestSpec],
) -> ServingStats {
    assert!(!requests.is_empty(), "no requests to serve");
    for w in requests.windows(2) {
        assert!(
            w[0].arrival <= w[1].arrival,
            "requests must be sorted by arrival"
        );
    }
    for (i, r) in requests.iter().enumerate() {
        assert!(
            fits_in_memory(gpu, geom, method, 1, r.prompt + r.gen),
            "request {i} cannot fit in memory even alone"
        );
    }

    let mut now = 0.0f64;
    let mut next_arrival = 0usize;
    let mut waiting: Vec<usize> = Vec::new();
    let mut live: Vec<LiveSeq> = Vec::new();
    let mut admit_time = vec![0.0f64; requests.len()];
    let mut finish_time = vec![f64::NAN; requests.len()];
    let mut peak_batch = 0usize;

    // Total final context of every live sequence must fit alongside the
    // weights; new admissions reserve their full footprint up front.
    let reserved_tokens = |live: &[LiveSeq], extra: usize| -> usize {
        live.iter()
            .map(|s| requests[s.req].prompt + requests[s.req].gen)
            .sum::<usize>()
            + extra
    };
    let fits = |total_tokens: usize| -> bool {
        // Model the reservation as one batch-1 "sequence" of that many
        // tokens (weights + KV + activations).
        fits_in_memory(gpu, geom, method, 1, total_tokens.max(1))
    };

    loop {
        // Ingest arrivals up to `now`.
        while next_arrival < requests.len() && requests[next_arrival].arrival <= now {
            waiting.push(next_arrival);
            next_arrival += 1;
        }

        // Admit + prefill one waiting request if it fits.
        if let Some(pos) = waiting
            .iter()
            .position(|&r| fits(reserved_tokens(&live, requests[r].prompt + requests[r].gen)))
        {
            let r = waiting.remove(pos);
            admit_time[r] = now;
            let spec = requests[r];
            if spec.gen == 0 {
                // Nothing to generate: complete at admission with zero
                // tokens. (The decode loop increments `generated` before
                // its completion check, so letting a `gen: 0` request
                // reach it minted one spurious token.)
                finish_time[r] = now;
                continue;
            }
            now += prefill_latency(gpu, geom, method, 1, spec.prompt).total()
                + linear_time(gpu, geom, 1, spec.prompt);
            live.push(LiveSeq {
                req: r,
                generated: 0,
                ctx: spec.prompt,
            });
            peak_batch = peak_batch.max(live.len());
            continue;
        }

        if !live.is_empty() {
            // One decode step for the whole live batch; it finishes with
            // its longest-context member. `live` is non-empty here, but
            // fold instead of `max().unwrap()` per the no-panic discipline.
            let batch = live.len();
            let max_ctx = live.iter().map(|s| s.ctx).fold(0, usize::max);
            let step = decode_latency(gpu, geom, method, batch, max_ctx).total();
            now += step + linear_time(gpu, geom, batch, 1);
            let mut still_live = Vec::with_capacity(live.len());
            for mut s in live.into_iter() {
                s.generated += 1;
                s.ctx += 1;
                if s.generated >= requests[s.req].gen {
                    finish_time[s.req] = now;
                } else {
                    still_live.push(s);
                }
            }
            live = still_live;
            continue;
        }

        // Idle: jump to the next arrival, or finish.
        if next_arrival < requests.len() {
            now = now.max(requests[next_arrival].arrival);
            continue;
        }
        break;
    }

    // Statistics.
    let mut latencies: Vec<f64> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| finish_time[i] - r.arrival)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let total_gen: usize = requests.iter().map(|r| r.gen).sum();
    let makespan = finish_time.iter().fold(0.0f64, |m, &t| m.max(t));
    // Nearest-rank, shared with `robust::slo` so every layer of the
    // stack quotes the same percentile definition.
    let pct = |p: f64| -> f64 { turbo_robust::percentile(&latencies, p) };
    let queue: f64 = requests
        .iter()
        .enumerate()
        .map(|(i, r)| admit_time[i] - r.arrival)
        .sum::<f64>()
        / requests.len() as f64;

    ServingStats {
        completed: requests.len(),
        makespan,
        throughput: if makespan > 0.0 {
            total_gen as f64 / makespan
        } else {
            0.0
        },
        mean_latency: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50_latency: pct(0.5),
        p95_latency: pct(0.95),
        mean_queue_time: queue,
        peak_batch,
    }
}

/// Operational policy of the fault-tolerant serving loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingPolicy {
    /// Per-request deadline in seconds from arrival. A waiting request
    /// past its deadline is rejected; a decoding one is truncated.
    /// `f64::INFINITY` disables deadlines.
    pub deadline: f64,
    /// Base backoff in seconds after a failed admission attempt; doubles
    /// per attempt. Must be positive.
    pub admission_backoff: f64,
    /// Failed admission attempts tolerated before the request is rejected.
    pub max_admission_retries: u32,
    /// If set and the method is [`AttnMethod::Turbo`], the serving loop
    /// may demote the resident KV bit width to this value when admission
    /// fails — trading accuracy for capacity instead of rejecting load.
    pub degrade_bits: Option<f64>,
    /// Fraction of HBM actually usable (simulated memory pressure from
    /// co-tenants/fragmentation). `1.0` = the whole device.
    pub hbm_usable_fraction: f64,
    /// Batch-formation budgets of the continuous-batching scheduler
    /// (chunk size, per-step prefill-token budget, total-token budget,
    /// `max_waiting_tokens`, `waiting_served_ratio`, batch-size cap).
    pub sched: crate::sched::SchedulerConfig,
}

impl Default for ServingPolicy {
    /// No deadlines, no pressure, no demotion; retry for a while before
    /// rejecting; default scheduler budgets.
    fn default() -> Self {
        Self {
            deadline: f64::INFINITY,
            admission_backoff: 0.25,
            max_admission_retries: 16,
            degrade_bits: None,
            hbm_usable_fraction: 1.0,
            sched: crate::sched::SchedulerConfig::default(),
        }
    }
}

/// Results of a fault-tolerant serving run.
///
/// Requests partition into `completed + truncated + rejected`; latency
/// statistics cover the requests that produced output (completed and
/// truncated).
#[derive(Clone, Debug, PartialEq)]
pub struct RobustServingStats {
    /// Requests that generated every token before any deadline.
    pub completed: usize,
    /// Requests cut off mid-generation by their deadline.
    pub truncated: usize,
    /// Requests never admitted (deadline, retry budget, or infeasible).
    pub rejected: usize,
    /// Deadline events (truncations + waiting-past-deadline rejections).
    pub deadline_misses: usize,
    /// Failed admission attempts across all requests.
    pub admission_retries: u64,
    /// Bit-width demotions performed under memory pressure (0 or 1).
    pub demotions: u64,
    /// Tokens actually generated (including partial output of truncated
    /// requests).
    pub generated_tokens: usize,
    /// Wall-clock time when the last served request finished.
    pub makespan: f64,
    /// Generated tokens per second of makespan (0 if nothing was served).
    pub throughput: f64,
    /// Mean end-to-end latency of served requests.
    pub mean_latency: f64,
    /// 95th-percentile end-to-end latency of served requests.
    pub p95_latency: f64,
    /// Mean admission wait of served requests.
    pub mean_queue_time: f64,
    /// Largest number of sequences decoding together.
    pub peak_batch: usize,
    /// End-to-end latency of every served request (completed and
    /// truncated), ascending. The fleet control plane feeds these into
    /// its `SloTracker` windows; aggregates above are derived from this
    /// same vector.
    pub latencies: Vec<f64>,
}

/// A fully seed-deterministic open-loop workload description.
///
/// The spec is plain `Copy` data with **no interior state**: calling
/// [`WorkloadSpec::requests`] any number of times, from any thread or
/// harness, yields the identical request vector — which is what lets the
/// chaos soak harness and the replica set share one workload per seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of requests.
    pub n: usize,
    /// Mean arrival rate in requests per second.
    pub rate: f64,
    /// Prompt length in tokens (fixed across requests).
    pub prompt: usize,
    /// Tokens to generate per request (fixed across requests).
    pub gen: usize,
    /// RNG seed for the inter-arrival gaps.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Materializes the request vector: `n` requests with inverse-CDF
    /// exponential inter-arrival gaps around `1/rate` seconds, sorted by
    /// arrival. Pure function of the spec.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `rate <= 0`.
    pub fn requests(&self) -> Vec<RequestSpec> {
        assert!(self.n > 0 && self.rate > 0.0, "need a positive workload");
        let mut rng = turbo_tensor::TensorRng::new(self.seed);
        let mut t = 0.0f64;
        (0..self.n)
            .map(|_| {
                // Inverse-CDF exponential gap from a uniform draw.
                let u: f64 = rng.uniform_value(1e-6, 1.0) as f64;
                t += -u.ln() / self.rate;
                RequestSpec {
                    arrival: t,
                    prompt: self.prompt,
                    gen: self.gen,
                }
            })
            .collect()
    }
}

/// Generates a deterministic open-loop workload: `n` requests with
/// exponential-ish inter-arrival gaps around `1/rate` seconds and fixed
/// prompt/gen sizes. Thin wrapper over [`WorkloadSpec::requests`].
pub fn uniform_workload(
    n: usize,
    rate: f64,
    prompt: usize,
    gen: usize,
    seed: u64,
) -> Vec<RequestSpec> {
    WorkloadSpec {
        n,
        rate,
        prompt,
        gen,
        seed,
    }
    .requests()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::simulate_serving_continuous;
    use turbo_kvcache::{PagedKvPool, SeqId};
    use turbo_robust::{HealthEvent, HealthStats};

    fn setup() -> (GpuSpec, ModelGeometry) {
        (GpuSpec::a100_80gb(), ModelGeometry::phi3_medium())
    }

    fn workload() -> Vec<RequestSpec> {
        uniform_workload(40, 2.0, 1024, 64, 99)
    }

    #[test]
    fn all_requests_complete() {
        let (gpu, geom) = setup();
        let stats = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &workload());
        assert_eq!(stats.completed, 40);
        assert!(stats.makespan > 0.0);
        assert!(stats.throughput > 0.0);
        assert!(stats.p95_latency >= stats.p50_latency);
        assert!(stats.mean_queue_time >= 0.0);
    }

    #[test]
    fn turbo_sustains_load_better_than_fp16() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let fp16 = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
        let turbo = simulate_serving(&gpu, &geom, AttnMethod::Turbo { kv_bits: 3.0 }, &reqs);
        assert!(
            turbo.mean_latency < fp16.mean_latency,
            "turbo {} vs fp16 {}",
            turbo.mean_latency,
            fp16.mean_latency
        );
        assert!(turbo.makespan <= fp16.makespan * 1.01);
    }

    #[test]
    fn kivi_pays_dequant_under_load() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let fp16 = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
        let kivi = simulate_serving(&gpu, &geom, AttnMethod::Kivi { bits: 4.0 }, &reqs);
        // KIVI decodes slower per step; under this (memory-light) load it
        // loses on latency despite the smaller cache.
        assert!(kivi.mean_latency > fp16.mean_latency);
    }

    #[test]
    fn compression_raises_peak_batch_under_memory_pressure() {
        let (gpu, geom) = setup();
        // Bursty long-context load: all requests arrive nearly at once, so
        // peak concurrency is limited by memory, not arrival pacing. FP16
        // fits ~7 live 8k sequences next to the weights; the compressed
        // cache fits all 12.
        let reqs = uniform_workload(12, 50.0, 8192, 32, 7);
        let fp16 = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
        let turbo = simulate_serving(&gpu, &geom, AttnMethod::Turbo { kv_bits: 3.0 }, &reqs);
        assert!(
            turbo.peak_batch > fp16.peak_batch,
            "turbo {} vs fp16 {}",
            turbo.peak_batch,
            fp16.peak_batch
        );
        assert!(turbo.mean_queue_time <= fp16.mean_queue_time + 1e-9);
    }

    #[test]
    fn deterministic_workload_and_simulation() {
        let (gpu, geom) = setup();
        let a = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &workload());
        let b = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &workload());
        assert_eq!(a, b);
    }

    #[test]
    fn light_load_has_no_queueing() {
        let (gpu, geom) = setup();
        let reqs = uniform_workload(5, 0.05, 512, 16, 3); // one every ~20s
        let stats = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
        assert!(stats.mean_queue_time < 1e-9);
        assert_eq!(stats.peak_batch, 1);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_requests_panic() {
        let (gpu, geom) = setup();
        let reqs = vec![
            RequestSpec {
                arrival: 1.0,
                prompt: 128,
                gen: 4,
            },
            RequestSpec {
                arrival: 0.5,
                prompt: 128,
                gen: 4,
            },
        ];
        simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn impossible_request_panics() {
        let (gpu, geom) = setup();
        let reqs = vec![RequestSpec {
            arrival: 0.0,
            prompt: 500_000,
            gen: 8,
        }];
        simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
    }

    #[test]
    fn robust_default_policy_completes_everything_cleanly() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let health = HealthStats::new();
        let robust = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            None,
            Some(&health),
        )
        .serving;
        assert_eq!(robust.completed, reqs.len());
        assert_eq!(robust.rejected, 0);
        assert_eq!(robust.truncated, 0);
        assert_eq!(robust.deadline_misses, 0);
        assert_eq!(
            robust.generated_tokens,
            reqs.iter().map(|r| r.gen).sum::<usize>()
        );
        assert!(robust.makespan > 0.0);
        assert!(robust.mean_queue_time >= 0.0);
        assert!(health.is_clean(), "clean run must record nothing");
    }

    #[test]
    fn long_prefill_never_stalls_decoders_for_a_full_prompt() {
        // Eight short requests decode while a 16k-token prompt prefills.
        // The serialized engine freezes every decoder for the entire
        // prefill; the scheduler bounds any single stall by one chunk,
        // so no engine step may take as long as the monolithic prefill.
        let (gpu, geom) = setup();
        let mut reqs = vec![
            RequestSpec {
                arrival: 0.0,
                prompt: 256,
                gen: 96,
            };
            8
        ];
        reqs.push(RequestSpec {
            arrival: 0.0,
            prompt: 16384,
            gen: 8,
        });
        let full_stall = prefill_latency(&gpu, &geom, AttnMethod::FlashFp16, 1, 16384).total()
            + linear_time(&gpu, &geom, 1, 16384);
        let stats = crate::sched::simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            None,
            None,
        );
        assert_eq!(stats.serving.completed, reqs.len());
        for s in &stats.steps {
            assert!(
                s.duration < full_stall,
                "step {} ran {}s — a serialized-prefill-sized stall ({}s)",
                s.index,
                s.duration,
                full_stall
            );
        }
        assert!(
            stats
                .steps
                .iter()
                .any(|s| s.prefill_tokens > 0 && s.decode_batch > 0),
            "decoders must make progress during the long prefill"
        );
    }

    #[test]
    fn gen_zero_completes_at_admission_with_zero_tokens() {
        let (gpu, geom) = setup();
        // Mix zero-length generations between normal requests; the
        // ledger must balance and only real generations mint tokens.
        let mut reqs = uniform_workload(12, 4.0, 256, 8, 5);
        for r in reqs.iter_mut().step_by(3) {
            r.gen = 0;
        }
        let expect_tokens: usize = reqs.iter().map(|r| r.gen).sum();
        let health = HealthStats::new();
        let robust = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            None,
            Some(&health),
        )
        .serving;
        assert_eq!(
            robust.completed + robust.truncated + robust.rejected,
            reqs.len()
        );
        assert_eq!(robust.completed, reqs.len(), "gen:0 completes immediately");
        assert_eq!(
            robust.generated_tokens, expect_tokens,
            "zero tokens attributed to gen:0 requests"
        );
        assert!(health.is_clean());
        // The plain engine agrees on the token count.
        let plain = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
        assert_eq!(plain.completed, reqs.len());
        assert!(
            (plain.throughput * plain.makespan - expect_tokens as f64).abs() < 1e-6,
            "plain engine attributes exactly the requested tokens"
        );
    }

    #[test]
    fn serving_percentiles_agree_with_slo_tracker_definition() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let robust = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            None,
            None,
        )
        .serving;
        // `latencies` is ascending; the quoted p95 is the shared
        // nearest-rank helper applied to that same vector.
        assert_eq!(
            robust.p95_latency,
            turbo_robust::percentile(&robust.latencies, 0.95)
        );
        let plain = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
        assert!(plain.p95_latency >= plain.p50_latency);
    }

    #[test]
    fn tight_deadlines_truncate_or_reject_instead_of_stalling() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let health = HealthStats::new();
        let policy = ServingPolicy {
            deadline: 2.0,
            ..ServingPolicy::default()
        };
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &policy,
            None,
            Some(&health),
        )
        .serving;
        assert_eq!(
            stats.completed + stats.truncated + stats.rejected,
            reqs.len()
        );
        assert!(stats.deadline_misses > 0, "2s deadline must bite");
        assert_eq!(
            health.count(HealthEvent::DeadlineMiss),
            stats.deadline_misses as u64
        );
        // Every served request respected (approximately) its deadline:
        // p95 is bounded by deadline + one decode step, not the unbounded
        // queueing latency of the plain simulator.
        let plain = simulate_serving(&gpu, &geom, AttnMethod::FlashFp16, &reqs);
        assert!(stats.p95_latency <= plain.p95_latency);
    }

    #[test]
    fn pressure_demotion_serves_load_that_would_otherwise_be_rejected() {
        let (gpu, geom) = setup();
        // Find an HBM pressure level where a single long request fits at
        // 2-bit resident KV but not at 4-bit.
        let long = RequestSpec {
            arrival: 0.0,
            prompt: 8192,
            gen: 32,
        };
        let tokens = long.prompt + long.gen;
        let fraction = (30..=95)
            .map(|p| p as f64 / 100.0)
            .find(|f| {
                let mut g = gpu;
                g.hbm_capacity *= f;
                !fits_in_memory(&g, &geom, AttnMethod::Turbo { kv_bits: 4.0 }, 1, tokens)
                    && fits_in_memory(&g, &geom, AttnMethod::Turbo { kv_bits: 2.0 }, 1, tokens)
            })
            .expect("some pressure level separates 4-bit from 2-bit");
        let reqs = uniform_workload(6, 10.0, long.prompt, long.gen, 11);

        // Exponential backoff from 0.25s covers ~17 minutes of simulated
        // time in 12 attempts — enough for the whole drained queue.
        let rigid = ServingPolicy {
            hbm_usable_fraction: fraction,
            max_admission_retries: 12,
            ..ServingPolicy::default()
        };
        let flexible = ServingPolicy {
            degrade_bits: Some(2.0),
            ..rigid
        };
        let method = AttnMethod::Turbo { kv_bits: 4.0 };
        let health = HealthStats::new();
        let serve = |policy: &ServingPolicy, health: Option<&HealthStats>| {
            simulate_serving_continuous(&gpu, &geom, method, &reqs, policy, None, health).serving
        };
        let without = serve(&rigid, None);
        let with = serve(&flexible, Some(&health));
        assert_eq!(without.completed, 0, "4-bit cannot fit any request");
        assert_eq!(without.rejected, reqs.len());
        assert_eq!(with.demotions, 1, "one global demotion to 2-bit");
        assert_eq!(health.count(HealthEvent::PressureDemotion), 1);
        assert_eq!(with.completed, reqs.len(), "2-bit serves everything");
        assert_eq!(with.rejected, 0);
    }

    #[test]
    fn robust_rejects_infeasible_request_without_panicking() {
        let (gpu, geom) = setup();
        let reqs = vec![RequestSpec {
            arrival: 0.0,
            prompt: 500_000,
            gen: 8,
        }];
        let health = HealthStats::new();
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            None,
            Some(&health),
        )
        .serving;
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(health.count(HealthEvent::RequestRejected), 1);
        assert_eq!(stats.throughput, 0.0);
    }

    fn prefix_pool(tokens: usize) -> (PagedKvPool, SeqId) {
        let mut pool = PagedKvPool::new(
            8,
            turbo_kvcache::KvCacheConfig {
                group_size: 16,
                buffer_capacity: 16,
                ..turbo_kvcache::KvCacheConfig::default()
            },
        );
        let prefix = pool.create_sequence();
        for t in 0..tokens {
            let row: Vec<f32> = (0..8).map(|c| ((t * 13 + c) % 89) as f32 * 1e-2).collect();
            pool.try_append(prefix, &row, &row).expect("prefix prefill");
        }
        (pool, prefix)
    }

    #[test]
    fn paged_healthy_run_matches_unpooled_and_leaks_nothing() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let unpooled = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            None,
            None,
        )
        .serving;
        let (mut pool, prefix) = prefix_pool(32);
        let health = HealthStats::new();
        let paged = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            Some((&mut pool, prefix)),
            Some(&health),
        )
        .serving;
        // The pool only adds state, never time: identical stats.
        assert_eq!(paged, unpooled);
        assert!(health.is_clean(), "healthy pool records nothing");
        // Every fork was released on finish — nothing leaked.
        assert_eq!(pool.num_sequences(), 1, "only the prefix survives");
        assert_eq!(pool.try_seq_len(prefix).expect("prefix survives"), 32);
    }

    #[test]
    fn poisoned_prefix_cache_rejects_requests_instead_of_panicking() {
        let (gpu, geom) = setup();
        let reqs = workload();
        // Poison the serving cache: the prefix sequence is gone (the same
        // degradation covers any CacheError a fork can hit — unknown
        // sequence, dangling page). The old panicking `fork` wrapper
        // would have aborted the replica right here.
        let (mut pool, prefix) = prefix_pool(32);
        pool.try_release(prefix).expect("release prefix");
        let health = HealthStats::new();
        let stats = simulate_serving_continuous(
            &gpu,
            &geom,
            AttnMethod::FlashFp16,
            &reqs,
            &ServingPolicy::default(),
            Some((&mut pool, prefix)),
            Some(&health),
        )
        .serving;
        assert_eq!(stats.rejected, reqs.len(), "every admission degrades");
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.truncated, 0);
        assert_eq!(stats.generated_tokens, 0);
        assert_eq!(
            health.count(HealthEvent::RequestRejected),
            reqs.len() as u64
        );
    }

    #[test]
    fn robust_simulation_is_deterministic() {
        let (gpu, geom) = setup();
        let reqs = workload();
        let policy = ServingPolicy {
            deadline: 5.0,
            hbm_usable_fraction: 0.9,
            ..ServingPolicy::default()
        };
        let method = AttnMethod::FlashFp16;
        let run = || simulate_serving_continuous(&gpu, &geom, method, &reqs, &policy, None, None);
        let (a, b) = (run().serving, run().serving);
        assert_eq!(a, b);
    }
}

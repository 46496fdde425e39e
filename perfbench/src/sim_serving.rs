//! `sim_serving`: the serving simulator on the A100 cost model, no real
//! kernels.
//!
//! One pass runs the continuous-batching scheduler for TurboAttention
//! (3-bit KV) and FlashAttention-FP16 on seeded Poisson arrivals at four
//! fixed rates, one diurnal fleet day with chaos bursts, and one sharded
//! episode over about 16k tokens with a shard kill plus its no-fault twin.
//! Simulated outputs are deterministic per seed, so every pass must
//! reproduce the first; the pass's host wall time is simulator cost.
//!
//! This is the bypass workload for kernel changes (the prediction is no
//! change) and the only workload on `gpusim` and `robust`.

use turbo_gpusim::{
    run_fleet, run_sharded_episode, simulate_serving_continuous_streamed, uniform_workload,
    AttnMethod, FleetConfig, GpuSpec, ModelGeometry, RequestSpec, SchedulerStats, ServingPolicy,
    ShardedConfig, WorkloadSpec,
};
use turbo_robust::{ChaosAction, ChaosEvent, HealthStats};

use crate::host;
use crate::json::Json;
use crate::ledger::Phase;
use crate::report::{self, Kind, Outcome};
use crate::stats::{median, percentile, ratio};
use crate::{Opts, Size};

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Requests per fixed-rate run.
    pub requests: usize,
    pub prompt: usize,
    pub gen: usize,
    /// Fleet epochs (one diurnal day).
    pub fleet_epochs: usize,
    pub shard_tokens: usize,
}

impl Shape {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Self {
                requests: 400,
                prompt: 1024,
                gen: 128,
                fleet_epochs: 8,
                shard_tokens: 16_384,
            },
            Size::Smoke => Self {
                requests: 40,
                prompt: 256,
                gen: 16,
                fleet_epochs: 2,
                shard_tokens: 2_048,
            },
        }
    }
}

/// Fixed arrival rates, requests per second. TurboAttention saturates
/// near 6 requests/s on this workload, so the goodput lands on an
/// interior rate with a wide margin on both sides of the limit.
pub const RATES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// Rate whose TTFT and inter-token gaps the end-to-end metrics report
/// (light load: the latencies of the cost model, little queueing).
pub const REFERENCE_RATE: usize = 0;
/// p99 TTFT limit of the goodput search, seconds.
pub const TTFT_LIMIT_S: f64 = 2.0;

/// Simulated outcome of one fixed-rate scheduler run.
#[derive(Clone, Debug, PartialEq)]
struct RateRun {
    ttft_s: Vec<f64>,
    itl_s: Vec<f64>,
    tok_s: f64,
    /// Requests completed per simulated second.
    requests_s: f64,
    /// Prompt tokens per simulated second of the steps that ran prefill.
    prefill_tok_s: f64,
    rejected: usize,
    steps: usize,
    ledger_ok: bool,
}

impl RateRun {
    fn meets_limit(&self) -> bool {
        self.rejected == 0 && percentile(&self.ttft_s, 0.99) <= TTFT_LIMIT_S
    }
}

/// Everything one pass simulated.
#[derive(Clone, Debug, PartialEq)]
struct Pass {
    turbo: Vec<RateRun>,
    fp16: Vec<RateRun>,
    fleet_total: usize,
    fleet_accounted: usize,
    fleet_violations: usize,
    fleet_violation_rate: f64,
    fleet_lost: usize,
    shard_accounted_ok: bool,
    shard_crc_ok: bool,
    shard_lost: usize,
    migrated: usize,
    reprefilled: usize,
    shard_kills: usize,
}

struct Bench {
    shape: Shape,
    gpu: GpuSpec,
    geom: ModelGeometry,
    /// Arrivals per rate.
    workloads: Vec<Vec<RequestSpec>>,
    fleet: FleetConfig,
    shard: ShardedConfig,
    shard_requests: Vec<RequestSpec>,
    chaos: Vec<ChaosEvent>,
    seed: u64,
}

const TURBO: AttnMethod = AttnMethod::Turbo { kv_bits: 3.0 };

fn setup(opts: &Opts) -> Bench {
    let shape = Shape::of(opts.size);
    let workloads = RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            WorkloadSpec {
                n: shape.requests,
                rate,
                prompt: shape.prompt,
                gen: shape.gen,
                seed: opts.seed.wrapping_mul(31).wrapping_add(i as u64),
            }
            .requests()
        })
        .collect();
    let fleet = FleetConfig {
        epochs: shape.fleet_epochs,
        burst_every: 3,
        ..FleetConfig::default()
    };
    let shard = ShardedConfig {
        // A seeded context length of about 16k tokens, in 64-token steps.
        context_tokens: shape.shard_tokens + 64 * (opts.seed % 16) as usize,
        replay_budget_secs: Some(0.02),
        ..ShardedConfig::default()
    };
    let chaos = vec![ChaosEvent {
        time: 1.5,
        action: ChaosAction::KillReplica {
            replica: 1,
            wal_cut: 0.9,
        },
    }];
    Bench {
        shape,
        gpu: GpuSpec::a100_80gb(),
        geom: ModelGeometry::phi3_medium(),
        workloads,
        fleet,
        shard,
        shard_requests: uniform_workload(8, 2.0, 256, 16, opts.seed),
        chaos,
        seed: opts.seed,
    }
}

impl Bench {
    fn rate_run(
        &self,
        out: &mut Outcome,
        method: AttnMethod,
        reqs: &[RequestSpec],
        health: &HealthStats,
    ) -> RateRun {
        let mut first = vec![f64::NAN; reqs.len()];
        let mut last = vec![f64::NAN; reqs.len()];
        let mut itl_s = Vec::new();
        let stats: SchedulerStats = out.tracer.span("gpusim.sched", || {
            simulate_serving_continuous_streamed(
                &self.gpu,
                &self.geom,
                method,
                reqs,
                &ServingPolicy::default(),
                &mut |ev| {
                    if ev.index == 0 {
                        first[ev.req] = ev.time;
                    } else {
                        itl_s.push(ev.time - last[ev.req]);
                    }
                    last[ev.req] = ev.time;
                },
                Some(health),
            )
        });
        let s = &stats.serving;
        let ttft_s = first
            .iter()
            .zip(reqs)
            .filter(|(t, _)| t.is_finite())
            .map(|(t, r)| t - r.arrival)
            .collect();
        let prefill_steps = stats.steps.iter().filter(|st| st.prefill_tokens > 0);
        let (prompt_tokens, prefill_secs) = prefill_steps.fold((0usize, 0.0f64), |(n, t), st| {
            (n + st.prefill_tokens, t + st.duration)
        });
        RateRun {
            ttft_s,
            itl_s,
            tok_s: s.throughput,
            requests_s: ratio(s.completed as f64, s.makespan),
            prefill_tok_s: ratio(prompt_tokens as f64, prefill_secs),
            rejected: s.rejected,
            steps: stats.steps.len(),
            ledger_ok: s.completed + s.truncated + s.rejected == reqs.len(),
        }
    }

    fn pass(&self, out: &mut Outcome, health: &HealthStats) -> Pass {
        let mut turbo = Vec::new();
        let mut fp16 = Vec::new();
        for reqs in &self.workloads {
            turbo.push(self.rate_run(out, TURBO, reqs, health));
            fp16.push(self.rate_run(out, AttnMethod::FlashFp16, reqs, health));
        }
        let fleet = out.tracer.span("gpusim.fleet", || {
            run_fleet(
                &self.gpu,
                &self.geom,
                TURBO,
                &self.fleet,
                self.seed,
                Some(health),
            )
        });
        let (faulted, twin) = out.tracer.span("gpusim.shard", || {
            let run = |chaos: &[ChaosEvent], h: Option<&HealthStats>| {
                run_sharded_episode(
                    &self.gpu,
                    &self.geom,
                    TURBO,
                    &self.shard_requests,
                    chaos,
                    &self.shard,
                    self.seed,
                    h,
                )
            };
            (run(&self.chaos, Some(health)), run(&[], None))
        });
        Pass {
            turbo,
            fp16,
            fleet_total: fleet.total,
            fleet_accounted: fleet.accounted(),
            fleet_violations: fleet.epochs.iter().map(|e| e.violations).sum(),
            fleet_violation_rate: fleet.violation_rate,
            fleet_lost: fleet.lost_tokens,
            shard_accounted_ok: faulted.accounted() == faulted.total
                && twin.accounted() == twin.total,
            shard_crc_ok: faulted.context_crc == twin.context_crc,
            shard_lost: faulted.lost_tokens,
            migrated: faulted.migrated_tokens,
            reprefilled: faulted.reprefilled_tokens,
            shard_kills: faulted.shard_kills,
        }
    }

    fn check(&self, out: &mut Outcome, p: &Pass, first: Option<&Pass>) {
        for (name, runs) in [("turbo", &p.turbo), ("fp16", &p.fp16)] {
            for (run, rate) in runs.iter().zip(RATES) {
                out.ledger.check(Phase::Sim, run.ledger_ok, || {
                    format!("{name} at {rate}/s: completed + truncated + rejected != total")
                });
            }
        }
        out.ledger.check(
            Phase::Sim,
            p.fleet_accounted == p.fleet_total && p.fleet_lost == 0,
            || {
                format!(
                    "fleet ledger {} of {} accounted, {} tokens lost",
                    p.fleet_accounted, p.fleet_total, p.fleet_lost
                )
            },
        );
        out.ledger.check(
            Phase::Sim,
            p.shard_accounted_ok && p.shard_lost == 0,
            || "sharded ledger does not balance or tokens were lost".into(),
        );
        out.ledger.check(Phase::Sim, p.shard_crc_ok, || {
            "sharded context_crc differs from its no-fault twin".into()
        });
        out.ledger.check(Phase::Sim, p.shard_kills > 0, || {
            "the shard kill did not fire".into()
        });
        if let Some(first) = first {
            out.ledger.check(Phase::Sim, p == first, || {
                "a pass simulated different outputs than the first".into()
            });
        }
    }
}

/// The highest fixed rate whose runs at it and below all meet the p99
/// TTFT limit with no rejections (0 when the lowest misses).
fn goodput(runs: &[RateRun]) -> f64 {
    runs.iter()
        .zip(RATES)
        .take_while(|(r, _)| r.meets_limit())
        .last()
        .map_or(0.0, |(_, rate)| rate)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts.trace);
    let (bench, setup_s) = crate::measure_setup(|| setup(opts));
    let health = HealthStats::new();
    let mut first: Option<Pass> = None;
    let log = host::run_episodes(opts, &mut out, |out, _| {
        let frame = out.tracer.begin("frame.pass");
        let p = bench.pass(out, &health);
        bench.check(out, &p, first.as_ref());
        out.tracer.end(frame);
        if first.is_none() {
            first = Some(p.clone());
        }
        p
    });
    let p = first.expect("a pass ran");
    let s = bench.shape;
    let reference = &p.turbo[REFERENCE_RATE];
    let top = &p.turbo[RATES.len() - 1];

    out.put("setup_s", setup_s, "s", Kind::Host);
    out.put(
        "episode_ms",
        median(&log.untraced_walls) / 1e6,
        "ms",
        Kind::SimulatorCost,
    );
    out.put(
        "sim.episode_ms",
        median(&log.untraced_walls) / 1e6,
        "ms",
        Kind::SimulatorCost,
    );
    out.put("requests_s", top.requests_s, "1/s", Kind::Simulated);
    out.put("sim.goodput_rps", goodput(&p.turbo), "1/s", Kind::Simulated);
    out.put(
        "prefill_tok_s",
        reference.prefill_tok_s,
        "1/s",
        Kind::Simulated,
    );
    out.put("decode_tok_s", top.tok_s, "1/s", Kind::Simulated);
    out.put("sim.tok_s", top.tok_s, "1/s", Kind::Simulated);
    out.put(
        "ttft_ms.p50",
        percentile(&reference.ttft_s, 0.5) * 1e3,
        "ms",
        Kind::Simulated,
    );
    out.put(
        "sim.ttft_ms.p99",
        percentile(&reference.ttft_s, 0.99) * 1e3,
        "ms",
        Kind::Simulated,
    );
    out.put(
        "itl_us.p50",
        percentile(&reference.itl_s, 0.5) * 1e6,
        "us",
        Kind::Simulated,
    );
    out.put(
        "itl_us.p99",
        percentile(&reference.itl_s, 0.99) * 1e6,
        "us",
        Kind::Simulated,
    );
    let recover_s = p.migrated as f64 / bench.shard.wal_replay_rate
        + p.reprefilled as f64 / bench.shard.reprefill_rate;
    out.put("recover_ms.p50", recover_s * 1e3, "ms", Kind::Simulated);
    let kv = bench.geom.kv_bytes_per_token_fp16() * TURBO.kv_bytes_per_elem() / 2.0;
    out.put("kv_bytes_per_token", kv, "B", Kind::Computed);

    // Per-rate table (simulated) for the report.
    let table: Vec<Json> = RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let row = |r: &RateRun| {
                Json::obj()
                    .with("tok_s", r.tok_s)
                    .with("requests_s", r.requests_s)
                    .with("prefill_tok_s", r.prefill_tok_s)
                    .with("ttft_ms_p50", percentile(&r.ttft_s, 0.5) * 1e3)
                    .with("ttft_ms_p99", percentile(&r.ttft_s, 0.99) * 1e3)
                    .with("itl_us_p50", percentile(&r.itl_s, 0.5) * 1e6)
                    .with("itl_us_p90", percentile(&r.itl_s, 0.9) * 1e6)
                    .with("itl_us_p95", percentile(&r.itl_s, 0.95) * 1e6)
                    .with("itl_us_p99", percentile(&r.itl_s, 0.99) * 1e6)
                    .with("itl_us_p999", percentile(&r.itl_s, 0.999) * 1e6)
                    .with("rejected", r.rejected)
                    .with("meets_limit", r.meets_limit())
            };
            Json::obj()
                .with("rate_rps", rate)
                .with("turbo", row(&p.turbo[i]))
                .with("fp16", row(&p.fp16[i]))
        })
        .collect();
    out.notes.set(
        "sim_rates",
        Json::obj()
            .with("ttft_limit_s", TTFT_LIMIT_S)
            .with("reference_rate_rps", RATES[REFERENCE_RATE])
            .with("requests_per_rate", s.requests)
            .with("prompt_tokens", s.prompt)
            .with("gen_tokens", s.gen)
            .with("table", table),
    );
    out.notes.set(
        "sim_fleet",
        Json::obj()
            .with("epochs", s.fleet_epochs)
            .with("requests", p.fleet_total)
            .with("slo_violations", p.fleet_violations)
            .with("slo_violation_rate", p.fleet_violation_rate),
    );
    out.notes.set(
        "sim_shard",
        Json::obj()
            .with("context_tokens", bench.shard.context_tokens)
            .with("kills", p.shard_kills)
            .with("migrated_tokens", p.migrated)
            .with("reprefilled_tokens", p.reprefilled),
    );
    report::put_health(&mut out, &health, log.episodes());

    if opts.trace {
        let n = log.traced.len().max(1) as f64;
        let busy = |out: &Outcome, name: &str| out.tracer.busy(name).1 as f64 / 1e6 / n;
        let steps: usize = p.turbo.iter().chain(&p.fp16).map(|r| r.steps).sum();
        out.put("gpusim.sched.steps", steps as f64, "count", Kind::Simulated);
        let (sched, fleet, shard) = (
            busy(&out, "gpusim.sched"),
            busy(&out, "gpusim.fleet"),
            busy(&out, "gpusim.shard"),
        );
        out.put("gpusim.sched.busy_ms", sched, "ms", Kind::SimulatorCost);
        out.put("gpusim.fleet.busy_ms", fleet, "ms", Kind::SimulatorCost);
        out.put(
            "gpusim.fleet.slo_violation_rate",
            p.fleet_violation_rate,
            "ratio",
            Kind::Simulated,
        );
        out.put("gpusim.shard.busy_ms", shard, "ms", Kind::SimulatorCost);
        out.put(
            "gpusim.shard.migrated_tokens",
            p.migrated as f64,
            "count",
            Kind::Simulated,
        );
        out.put(
            "gpusim.fp16.tok_s",
            p.fp16[RATES.len() - 1].tok_s,
            "1/s",
            Kind::Simulated,
        );
        out.put(
            "gpusim.fp16.goodput_rps",
            goodput(&p.fp16),
            "1/s",
            Kind::Simulated,
        );
        log.put_overhead_ratio(&mut out);
        report::put_trace_metrics(&mut out, log.traced_wall_ns, log.traced.len());
    }
    out
}
